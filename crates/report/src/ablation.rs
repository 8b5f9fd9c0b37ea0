//! Ablation studies beyond the paper's figures.
//!
//! * [`policy_ablation`] — how much of the taming benefit is specific to the
//!   biased-random policy: CPMR and interference sensitivity for LRU, FIFO,
//!   PLRU, SRRIP, uniform-random and biased-random LLCs at the same `T`.
//! * [`bias_ablation`] — how the CPMR depends on the bad way's victim
//!   weight.
//! * [`msg_ablation`] — how the SPM/LLC gap scales with the minimum
//!   synchronization granularity (the sync fabric's quality).
//! * [`adaptive_ablation`] — fixed `R` repetition versus the adaptive
//!   `UntilResident` strategy.

use prem_core::{sensitivity, NoiseModel, PremRun, RunWork};
use prem_gpusim::Scenario;
use prem_harness::{MatrixPolicy, MatrixScenario, PlatformSpec, RunRequest, RunSource};
use prem_kernels::Kernel;
use prem_memsim::Policy;

use crate::common::{planned, Harness};
use crate::stats::Stats;
use crate::table::{f3, pct, Table};

/// One policy's behaviour under PREM.
#[derive(Clone, Debug, PartialEq)]
pub struct PolicyRow {
    /// Policy name.
    pub policy: String,
    /// Prefetch repetition factor.
    pub r: u32,
    /// Mean CPMR in isolation.
    pub cpmr: f64,
    /// Interference sensitivity of the schedule.
    pub sensitivity: f64,
}

/// The policy ablation's rows: label and LLC policy override (the vendor
/// policy is [`Policy::nvidia_tegra`] on the TX1's four ways).
const POLICIES: [(&str, MatrixPolicy); 6] = [
    ("biased-random", MatrixPolicy::VendorBiased),
    ("random", MatrixPolicy::Random),
    ("lru", MatrixPolicy::Lru),
    ("fifo", MatrixPolicy::Fifo),
    ("plru", MatrixPolicy::Plru),
    ("srrip", MatrixPolicy::Srrip),
];

/// One ablation point's runs on `platform`, one per harness seed:
/// noise-free `work` under `scenario`.
fn seed_requests<'k>(
    kernel: &'k dyn Kernel,
    harness: &Harness,
    platform: &PlatformSpec,
    t_bytes: usize,
    work: RunWork,
    scenario: Scenario,
) -> Vec<RunRequest<'k>> {
    harness.requests(|seed| RunRequest {
        kernel,
        platform: platform.clone(),
        work,
        t_bytes,
        seed,
        scenario: MatrixScenario::Preset(scenario),
        noise: NoiseModel::off(),
    })
}

/// One policy-ablation row's runs: the TX1 under `policy`, in isolation
/// and under interference.
fn policy_point<'k>(
    kernel: &'k dyn Kernel,
    harness: &Harness,
    t_bytes: usize,
    policy: MatrixPolicy,
    r: u32,
) -> [Vec<RunRequest<'k>>; 2] {
    let platform = PlatformSpec::tx1().with_policy(policy);
    let work = RunWork::PremLlc { r };
    [Scenario::Isolation, Scenario::Interference]
        .map(|s| seed_requests(kernel, harness, &platform, t_bytes, work, s))
}

/// The runs the policy ablation consumes, as a plan. Per R the requests
/// differ only in LLC policy, seed and scenario: one derivation family.
pub fn policy_requests<'k>(
    kernel: &'k dyn Kernel,
    harness: &Harness,
    t_bytes: usize,
    rs: &[u32],
) -> Vec<RunRequest<'k>> {
    let mut reqs = Vec::new();
    for (_, policy) in POLICIES {
        for &r in rs {
            reqs.extend(policy_point(kernel, harness, t_bytes, policy, r).concat());
        }
    }
    reqs
}

/// Runs the replacement-policy ablation at interval size `t_bytes` from a
/// one-shot plan of [`policy_requests`].
pub fn policy_ablation(
    kernel: &dyn Kernel,
    harness: &Harness,
    t_bytes: usize,
    rs: &[u32],
) -> Vec<PolicyRow> {
    let source = planned(&policy_requests(kernel, harness, t_bytes, rs));
    policy_ablation_with(kernel, harness, t_bytes, rs, &source)
}

/// [`policy_ablation`] rendered from `source`: consumes exactly the runs
/// [`policy_requests`] enumerates.
pub fn policy_ablation_with(
    kernel: &dyn Kernel,
    harness: &Harness,
    t_bytes: usize,
    rs: &[u32],
    source: &impl RunSource,
) -> Vec<PolicyRow> {
    let mut rows = Vec::new();
    for (name, policy) in POLICIES {
        for &r in rs {
            let [iso, intf]: [Vec<PremRun>; 2] = policy_point(kernel, harness, t_bytes, policy, r)
                .map(|reqs| reqs.iter().map(|req| source.output(req).prem()).collect());
            let runs: Vec<(PremRun, PremRun)> = iso.into_iter().zip(intf).collect();
            rows.push(PolicyRow {
                policy: name.to_string(),
                r,
                cpmr: mean_over(&runs, |(iso, _)| iso.cpmr),
                sensitivity: mean_over(&runs, |(iso, intf)| {
                    sensitivity(iso.makespan_cycles, intf.makespan_cycles)
                }),
            });
        }
    }
    rows
}

/// Renders the policy ablation.
pub fn policy_table(rows: &[PolicyRow], t_kib: usize) -> Table {
    let mut t = Table::new(
        format!("Ablation: LLC replacement policy under PREM (T={t_kib}K)"),
        &["policy", "R", "cpmr", "sensitivity"],
    );
    for r in rows {
        t.push_row(vec![
            r.policy.clone(),
            r.r.to_string(),
            pct(r.cpmr),
            pct(r.sensitivity),
        ]);
    }
    t
}

/// One MSG setting's SPM-vs-LLC outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct MsgRow {
    /// Minimum synchronization granularity (µs).
    pub msg_us: f64,
    /// SPM makespan / LLC makespan (isolation).
    pub spm_over_llc: f64,
}

/// One MSG point's runs in isolation: SPM-PREM at `t_spm` and tamed
/// LLC-PREM at `t_llc` on the TX1 with its MSG set to `msg_us` (the
/// config digest in the request key separates the points).
fn msg_point<'k>(
    kernel: &'k dyn Kernel,
    harness: &Harness,
    t_spm: usize,
    t_llc: usize,
    msg_us: f64,
) -> [Vec<RunRequest<'k>>; 2] {
    let tx1 = PlatformSpec::tx1();
    let mut config = tx1.config().clone();
    config.cpu.sync.msg_us = msg_us;
    let platform = PlatformSpec::new(tx1.name(), config);
    let isolated =
        |work, t| seed_requests(kernel, harness, &platform, t, work, Scenario::Isolation);
    [
        isolated(RunWork::PremSpm, t_spm),
        isolated(RunWork::PremLlc { r: 8 }, t_llc),
    ]
}

/// The runs the MSG ablation consumes, as a plan. Per MSG value the LLC
/// runs differ only in seed: one derivation family.
pub fn msg_requests<'k>(
    kernel: &'k dyn Kernel,
    harness: &Harness,
    t_spm: usize,
    t_llc: usize,
    msgs_us: &[f64],
) -> Vec<RunRequest<'k>> {
    msgs_us
        .iter()
        .flat_map(|&m| msg_point(kernel, harness, t_spm, t_llc, m).concat())
        .collect()
}

/// Sweeps the MSG: with a fast sync fabric the SPM's small-phase penalty
/// shrinks — quantifying how much of the LLC win is sync-granularity.
/// Renders from a one-shot plan of [`msg_requests`].
pub fn msg_ablation(
    kernel: &dyn Kernel,
    harness: &Harness,
    t_spm: usize,
    t_llc: usize,
    msgs_us: &[f64],
) -> Vec<MsgRow> {
    let source = planned(&msg_requests(kernel, harness, t_spm, t_llc, msgs_us));
    msg_ablation_with(kernel, harness, t_spm, t_llc, msgs_us, &source)
}

/// [`msg_ablation`] rendered from `source`: consumes exactly the runs
/// [`msg_requests`] enumerates.
pub fn msg_ablation_with(
    kernel: &dyn Kernel,
    harness: &Harness,
    t_spm: usize,
    t_llc: usize,
    msgs_us: &[f64],
    source: &impl RunSource,
) -> Vec<MsgRow> {
    msgs_us
        .iter()
        .map(|&msg_us| {
            let [spm, llc] = msg_point(kernel, harness, t_spm, t_llc, msg_us)
                .map(|reqs| mean_over(&reqs, |req| source.output(req).prem().makespan_cycles));
            MsgRow {
                msg_us,
                spm_over_llc: spm / llc,
            }
        })
        .collect()
}

/// Renders the MSG ablation.
pub fn msg_table(rows: &[MsgRow], t_spm_kib: usize, t_llc_kib: usize) -> Table {
    let mut t = Table::new(
        format!("Ablation: sync granularity (SPM T={t_spm_kib}K vs LLC T={t_llc_kib}K)"),
        &["msg-us", "spm/llc"],
    );
    for r in rows {
        t.push_row(vec![format!("{:.0}", r.msg_us), f3(r.spm_over_llc)]);
    }
    t
}

/// One bad-way-weight setting's outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct BiasRow {
    /// Victim weight of the bad way (others weigh 1 each).
    pub bad_weight: u32,
    /// Resulting bad-way victim probability.
    pub bad_probability: f64,
    /// CPMR at R = 1.
    pub cpmr_r1: f64,
    /// CPMR at R = 8.
    pub cpmr_r8: f64,
}

/// One bias-ablation point's runs: the TX1 with the bad way (index 2) at
/// victim weight `w` and the other ways at 1, in isolation. The config
/// digest in the request key separates the weights.
fn bias_point<'k>(
    kernel: &'k dyn Kernel,
    harness: &Harness,
    t: usize,
    w: u32,
    r: u32,
) -> Vec<RunRequest<'k>> {
    let policy = Policy::BiasedRandom {
        weights: vec![1, 1, w, 1],
    };
    let tx1 = PlatformSpec::tx1();
    let platform = PlatformSpec::new(tx1.name(), tx1.config().clone().llc_policy(policy));
    let work = RunWork::PremLlc { r };
    seed_requests(kernel, harness, &platform, t, work, Scenario::Isolation)
}

/// The runs the bias ablation consumes, as a plan: every weight at R = 1
/// and R = 8.
pub fn bias_requests<'k>(
    kernel: &'k dyn Kernel,
    harness: &Harness,
    t_bytes: usize,
    weights: &[u32],
) -> Vec<RunRequest<'k>> {
    weights
        .iter()
        .flat_map(|&w| {
            [1, 8]
                .map(|r| bias_point(kernel, harness, t_bytes, w, r))
                .concat()
        })
        .collect()
}

/// Sweeps the bad way's victim weight: from uniform (weight 1 ⇒ p = 1/4) to
/// far worse than the TX1's measured 3 (p = 1/2). Shows that the taming
/// recipe is robust to how biased the policy actually is. Renders from a
/// one-shot plan of [`bias_requests`].
pub fn bias_ablation(
    kernel: &dyn Kernel,
    harness: &Harness,
    t_bytes: usize,
    weights: &[u32],
) -> Vec<BiasRow> {
    let source = planned(&bias_requests(kernel, harness, t_bytes, weights));
    bias_ablation_with(kernel, harness, t_bytes, weights, &source)
}

/// [`bias_ablation`] rendered from `source`: consumes exactly the runs
/// [`bias_requests`] enumerates.
pub fn bias_ablation_with(
    kernel: &dyn Kernel,
    harness: &Harness,
    t_bytes: usize,
    weights: &[u32],
    source: &impl RunSource,
) -> Vec<BiasRow> {
    weights
        .iter()
        .map(|&w| {
            let cpmr_at = |r| {
                let reqs = bias_point(kernel, harness, t_bytes, w, r);
                mean_over(&reqs, |req| source.output(req).prem().cpmr)
            };
            BiasRow {
                bad_weight: w,
                bad_probability: w as f64 / (w as f64 + 3.0),
                cpmr_r1: cpmr_at(1),
                cpmr_r8: cpmr_at(8),
            }
        })
        .collect()
}

/// Renders the bias ablation.
pub fn bias_table(rows: &[BiasRow], t_kib: usize) -> Table {
    let mut t = Table::new(
        format!("Ablation: bad-way victim weight (T={t_kib}K)"),
        &["bad-weight", "p(bad)", "cpmr R=1", "cpmr R=8"],
    );
    for r in rows {
        t.push_row(vec![
            r.bad_weight.to_string(),
            pct(r.bad_probability),
            pct(r.cpmr_r1),
            pct(r.cpmr_r8),
        ]);
    }
    t
}

/// Fixed-R versus adaptive prefetching at one interval size.
#[derive(Clone, Debug, PartialEq)]
pub struct AdaptiveRow {
    /// Strategy label.
    pub strategy: String,
    /// Mean CPMR.
    pub cpmr: f64,
    /// Mean M-phase prefetch rounds actually used.
    pub rounds: f64,
    /// Isolated makespan relative to the fixed R=8 configuration.
    pub makespan_rel_r8: f64,
}

/// The prefetch-strategy ablation's rows: label and work. The fixed R=8
/// row is also the makespan reference.
const STRATEGIES: [(&str, RunWork); 4] = [
    ("fixed R=1", RunWork::PremLlc { r: 1 }),
    ("fixed R=4", RunWork::PremLlc { r: 4 }),
    ("fixed R=8", RunWork::PremLlc { r: 8 }),
    ("until-resident (max 16)", RunWork::PremLlcUntilResident),
];

/// One prefetch strategy's runs on the TX1, noise-free in isolation.
fn strategy_point<'k>(
    kernel: &'k dyn Kernel,
    harness: &Harness,
    t: usize,
    work: RunWork,
) -> Vec<RunRequest<'k>> {
    let platform = PlatformSpec::tx1();
    seed_requests(kernel, harness, &platform, t, work, Scenario::Isolation)
}

/// The runs the prefetch-strategy ablation consumes, as a plan: every
/// strategy of [`adaptive_ablation`] per seed.
pub fn adaptive_requests<'k>(
    kernel: &'k dyn Kernel,
    harness: &Harness,
    t_bytes: usize,
) -> Vec<RunRequest<'k>> {
    STRATEGIES
        .iter()
        .flat_map(|&(_, work)| strategy_point(kernel, harness, t_bytes, work))
        .collect()
}

/// Compares `Repeated{r}` against `UntilResident`. Renders from a one-shot
/// plan of [`adaptive_requests`].
pub fn adaptive_ablation(
    kernel: &dyn Kernel,
    harness: &Harness,
    t_bytes: usize,
) -> Vec<AdaptiveRow> {
    let source = planned(&adaptive_requests(kernel, harness, t_bytes));
    adaptive_ablation_with(kernel, harness, t_bytes, &source)
}

/// [`adaptive_ablation`] rendered from `source`: consumes exactly the runs
/// [`adaptive_requests`] enumerates.
pub fn adaptive_ablation_with(
    kernel: &dyn Kernel,
    harness: &Harness,
    t_bytes: usize,
    source: &impl RunSource,
) -> Vec<AdaptiveRow> {
    let runs: Vec<Vec<PremRun>> = STRATEGIES
        .iter()
        .map(|&(_, work)| {
            let reqs = strategy_point(kernel, harness, t_bytes, work);
            reqs.iter().map(|req| source.output(req).prem()).collect()
        })
        .collect();
    let r8 = STRATEGIES
        .iter()
        .position(|&(_, work)| work == RunWork::PremLlc { r: 8 })
        .map(|i| mean_over(&runs[i], |run| run.makespan_cycles))
        .expect("R=8 is a strategy");
    STRATEGIES
        .iter()
        .zip(&runs)
        .map(|(&(label, _), runs)| AdaptiveRow {
            strategy: label.to_string(),
            cpmr: mean_over(runs, |run| run.cpmr),
            rounds: mean_over(runs, |run| run.max_rounds_used as f64),
            makespan_rel_r8: mean_over(runs, |run| run.makespan_cycles) / r8,
        })
        .collect()
}

/// The mean of `f` over per-seed `runs` (in seed order) — what
/// [`over_seeds`](crate::stats::over_seeds) computes, from runs simulated
/// once instead of once per metric.
fn mean_over<T>(runs: &[T], f: impl Fn(&T) -> f64) -> f64 {
    Stats::of(&runs.iter().map(f).collect::<Vec<_>>()).mean
}

/// Renders the adaptive-prefetch ablation.
pub fn adaptive_table(rows: &[AdaptiveRow], t_kib: usize) -> Table {
    let mut t = Table::new(
        format!("Ablation: prefetch strategies (T={t_kib}K)"),
        &["strategy", "cpmr", "max-rounds", "makespan/R8"],
    );
    for r in rows {
        t.push_row(vec![
            r.strategy.clone(),
            pct(r.cpmr),
            format!("{:.1}", r.rounds),
            f3(r.makespan_rel_r8),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use prem_kernels::Bicg;
    use prem_memsim::KIB;

    #[test]
    fn lru_has_zero_cpmr() {
        let k = Bicg::new(128, 128);
        let rows = policy_ablation(&k, &Harness::quick(), 24 * KIB, &[1]);
        let lru = rows.iter().find(|r| r.policy == "lru").unwrap();
        assert_eq!(lru.cpmr, 0.0);
    }

    #[test]
    fn biased_random_improves_with_r() {
        let k = Bicg::new(128, 128);
        let rows = policy_ablation(&k, &Harness::quick(), 24 * KIB, &[1, 8]);
        let r1 = rows
            .iter()
            .find(|r| r.policy == "biased-random" && r.r == 1)
            .unwrap();
        let r8 = rows
            .iter()
            .find(|r| r.policy == "biased-random" && r.r == 8)
            .unwrap();
        assert!(r8.cpmr <= r1.cpmr);
    }
}
