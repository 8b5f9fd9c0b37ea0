//! Shared experiment runners: one canonical request builder per
//! (configuration, scenario), plus the one-shot plan standalone entry
//! points render from.
//!
//! Since the run-plan refactor the three execution modes every figure
//! builds on — tamed/naive LLC-PREM, SPM-PREM and the unprotected
//! baseline — are *request builders* ([`llc_request`], [`spm_request`],
//! [`base_request`]) producing canonical [`RunRequest`]s on the TX1
//! platform with TX1-calibrated noise. A single run is
//! `llc_request(..).execute()`, byte-identical to the same request served
//! from a merged figure plan's cache. Standalone figure entry points
//! render from [`planned`].

use prem_core::{NoiseModel, RunWork};
use prem_gpusim::Scenario;
use prem_harness::{MatrixScenario, PlanExecutor, PlatformSpec, RunRequest};
use prem_kernels::Kernel;
use prem_memsim::KIB;

/// Interval size used for the baseline's (cache-tiled, non-PREM) access
/// stream: the paper's best LLC configuration.
pub const T_BASE: usize = 160 * KIB;

/// The seed set randomized results are averaged over in full-size
/// experiments; [`Harness::quick`] keeps only the first entry. Shared by
/// [`Harness::default`] so the canonical seeds have exactly one source.
pub const DEFAULT_SEEDS: [u64; 3] = [11, 23, 47];

/// Experiment harness parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Harness {
    /// Seeds over which randomized results are averaged.
    pub seeds: Vec<u64>,
}

impl Default for Harness {
    fn default() -> Self {
        Harness {
            seeds: DEFAULT_SEEDS.to_vec(),
        }
    }
}

impl Harness {
    /// Single-seed harness for fast tests (the first [`DEFAULT_SEEDS`]
    /// entry).
    pub fn quick() -> Self {
        Harness {
            seeds: vec![DEFAULT_SEEDS[0]],
        }
    }

    /// Seed-expands one request template: the plan-building twin of
    /// [`over_seeds`](crate::stats::over_seeds). Figure plan builders use
    /// this instead of hand-rolling seed loops.
    pub fn requests<'k>(
        &self,
        mut template: impl FnMut(u64) -> RunRequest<'k>,
    ) -> Vec<RunRequest<'k>> {
        self.seeds.iter().map(|&s| template(s)).collect()
    }
}

/// A request on the canonical figure platform (TX1 preset, per-request
/// LLC seed, TX1 noise) — the shared shape of all three builders.
fn tx1_request(
    kernel: &dyn Kernel,
    work: RunWork,
    t_bytes: usize,
    seed: u64,
    scenario: Scenario,
) -> RunRequest<'_> {
    RunRequest {
        kernel,
        platform: PlatformSpec::tx1(),
        work,
        t_bytes,
        seed,
        scenario: MatrixScenario::Preset(scenario),
        noise: NoiseModel::tx1(),
    }
}

/// The canonical LLC-PREM request: `r` prefetch repetitions at interval
/// size `t` bytes.
pub fn llc_request(
    kernel: &dyn Kernel,
    t: usize,
    r: u32,
    seed: u64,
    scenario: Scenario,
) -> RunRequest<'_> {
    tx1_request(kernel, RunWork::PremLlc { r }, t, seed, scenario)
}

/// The canonical SPM-PREM request at interval size `t` bytes (`t` must fit
/// the SPM).
pub fn spm_request(kernel: &dyn Kernel, t: usize, seed: u64, scenario: Scenario) -> RunRequest<'_> {
    tx1_request(kernel, RunWork::PremSpm, t, seed, scenario)
}

/// The canonical unprotected-baseline request (cache-tiled at [`T_BASE`],
/// floored at the kernel's minimum interval).
pub fn base_request(kernel: &dyn Kernel, seed: u64, scenario: Scenario) -> RunRequest<'_> {
    let t = T_BASE.max(kernel.min_interval_bytes());
    tx1_request(kernel, RunWork::Baseline, t, seed, scenario)
}

/// A fresh executor that has run `requests` as one plan on one worker —
/// what every standalone figure entry point renders from. The plan pins
/// each (kernel, T) tiling for its length, dedups shared requests and
/// derives policy/seed siblings by replay; a lazy executor would re-tile
/// for every request.
pub fn planned(requests: &[RunRequest<'_>]) -> PlanExecutor {
    let executor = PlanExecutor::new();
    executor.execute(requests, 1);
    executor
}

/// The interval sizes (KiB) evaluated on the LLC (paper Figs 3–5).
pub fn t_sweep_llc() -> Vec<usize> {
    vec![32, 64, 96, 128, 160, 192, 224, 256]
}

/// The interval sizes (KiB) evaluated on the SPM (bounded by 2 × 48 KiB).
pub fn t_sweep_spm() -> Vec<usize> {
    vec![32, 48, 64, 96]
}

/// The members of an SPM interval-size sweep (KiB) `kernel` can actually
/// run: tileable and within the canonical TX1 scratchpad capacity
/// (sourced from the platform preset, not a literal). fig3/fig5's
/// feasible SPM rows and fig6's candidate set both filter through this,
/// so the two figures can never disagree about which tile sizes exist.
pub fn feasible_spm_kib(kernel: &dyn Kernel, sweep_kib: &[usize]) -> Vec<usize> {
    let capacity = PlatformSpec::tx1().config().spm.capacity_bytes();
    sweep_kib
        .iter()
        .copied()
        .filter(|&t| {
            let b = t * KIB;
            b >= kernel.min_interval_bytes() && b <= capacity
        })
        .collect()
}

/// The prefetch repetition factors evaluated in Fig 4.
pub fn r_sweep() -> Vec<u32> {
    vec![1, 2, 3, 4, 6, 8, 12, 16]
}

#[cfg(test)]
mod tests {
    use super::*;
    use prem_gpusim::PlatformConfig;
    use prem_kernels::Bicg;

    #[test]
    fn runners_produce_consistent_runs() {
        let k = Bicg::new(128, 128);
        let llc = llc_request(&k, 32 * KIB, 8, 1, Scenario::Isolation)
            .execute()
            .prem();
        assert!(llc.makespan_cycles > 0.0);
        let spm = spm_request(&k, 32 * KIB, 1, Scenario::Isolation)
            .execute()
            .prem();
        assert!(spm.makespan_cycles > 0.0);
        let base = base_request(&k, 1, Scenario::Isolation)
            .execute()
            .baseline();
        assert!(base.cycles > 0.0);
        // PREM schedules cannot be faster than the raw baseline.
        assert!(llc.makespan_cycles > base.cycles * 0.5);
    }

    #[test]
    fn sweeps_are_sorted_unique() {
        for sweep in [t_sweep_llc(), t_sweep_spm()] {
            let mut sorted = sweep.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sweep, sorted);
        }
    }

    #[test]
    fn requests_helper_expands_the_seed_axis() {
        let k = Bicg::new(128, 128);
        let reqs =
            Harness::default().requests(|s| llc_request(&k, 32 * KIB, 8, s, Scenario::Isolation));
        assert_eq!(reqs.len(), DEFAULT_SEEDS.len());
        let seeds: Vec<u64> = reqs.iter().map(|r| r.seed).collect();
        assert_eq!(seeds, DEFAULT_SEEDS.to_vec());
        assert_eq!(Harness::quick().seeds, vec![DEFAULT_SEEDS[0]]);
    }

    #[test]
    fn wrapper_equals_resolved_request_configuration() {
        // The wrapper path and the hand-built pre-refactor path must agree
        // on the canonical configurations.
        let k = Bicg::new(128, 128);
        let llc = llc_request(&k, 32 * KIB, 8, 11, Scenario::Isolation);
        assert_eq!(
            llc.work.prem_config(llc.seed, llc.noise).map(|c| c.seed),
            Some(11)
        );
        let req = base_request(&k, 11, Scenario::Isolation);
        assert_eq!(req.t_bytes, T_BASE.max(k.min_interval_bytes()));
        assert_eq!(
            req.resolved_platform(),
            PlatformConfig::tx1().llc_seed(11),
            "plan resolution must reproduce the canonical TX1 platform"
        );
    }
}
