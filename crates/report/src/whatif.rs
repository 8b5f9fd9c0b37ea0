//! The LLC replacement-policy what-if sweep (beyond the paper): CPMR,
//! makespan and prefetch hit rate of the case-study kernel under every
//! policy of the full seven-entry what-if axis, seed-averaged.
//!
//! This artifact is the plan layer's flagship **derivation family**: its
//! requests differ only in LLC policy and seed, so a replay-enabled
//! [`PlanExecutor`](prem_harness::PlanExecutor) executes none of the 21
//! runs live: it compiles the family's stream from the tiling once
//! ([`prem_core::CompiledRun`]) and derives all 21 from it — which is why
//! the sweep always uses the full seed set, `quick` mode included: the
//! artifact doubles as the CI probe that replay actually engaged
//! (`replayed > 0` on the quick merged plan).

use prem_core::{NoiseModel, RunWork};
use prem_gpusim::Scenario;
use prem_harness::{MatrixPolicy, MatrixScenario, PlatformSpec, RunRequest, RunSource};
use prem_kernels::Kernel;
use prem_memsim::KIB;

use crate::common::{planned, DEFAULT_SEEDS};
use crate::stats::Stats;
use crate::table::{f3, pct, Table};

/// Prefetch repetition factor of the sweep (the paper's tamed R).
pub const WHATIF_R: u32 = 8;

/// One policy's seed-averaged row.
#[derive(Clone, Debug, PartialEq)]
pub struct WhatIfRow {
    /// Policy name (`biased`, `lru`, …).
    pub policy: &'static str,
    /// Mean compute-phase miss ratio across seeds.
    pub cpmr: f64,
    /// Mean makespan (cycles) across seeds.
    pub makespan_cycles: f64,
    /// Makespan relative to the vendor-biased policy.
    pub rel_makespan: f64,
    /// Mean M-phase prefetch hit rate across seeds.
    pub prefetch_hit_rate: f64,
}

/// The rendered what-if sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct WhatIf {
    /// Kernel name.
    pub kernel: String,
    /// Interval size (KiB).
    pub t_kib: usize,
    /// One row per policy, in [`MatrixPolicy::what_if_axis`] order.
    pub rows: Vec<WhatIfRow>,
}

impl WhatIf {
    /// Renders the sweep as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "What-if: {} LLC replacement-policy sweep (T={}K, R={}, {} seeds)",
                self.kernel,
                self.t_kib,
                WHATIF_R,
                DEFAULT_SEEDS.len()
            ),
            &["policy", "cpmr", "makespan-Mcyc", "rel-biased", "pf-hit"],
        );
        for r in &self.rows {
            t.push_row(vec![
                r.policy.to_string(),
                pct(r.cpmr),
                f3(r.makespan_cycles / 1e6),
                f3(r.rel_makespan),
                pct(r.prefetch_hit_rate),
            ]);
        }
        t
    }
}

/// The sweep's interval size for `kernel`: the paper's best LLC
/// configuration, floored at the kernel's minimum tileable interval.
fn whatif_t_bytes(kernel: &dyn Kernel) -> usize {
    (160 * KIB).max(kernel.min_interval_bytes())
}

/// One run of the sweep: `policy` and `seed` on the TX1 template,
/// everything else held fixed.
fn whatif_request(kernel: &dyn Kernel, policy: MatrixPolicy, seed: u64) -> RunRequest<'_> {
    RunRequest {
        kernel,
        platform: PlatformSpec::tx1().with_policy(policy),
        work: RunWork::PremLlc { r: WHATIF_R },
        t_bytes: whatif_t_bytes(kernel),
        seed,
        scenario: MatrixScenario::Preset(Scenario::Isolation),
        noise: NoiseModel::tx1(),
    }
}

/// The runs the what-if sweep consumes, as a plan: the full policy axis ×
/// the full canonical seed set — exactly one derivation family of 21
/// requests.
///
/// Deliberately *not* parameterized over [`crate::common::Harness`]: the
/// sweep keeps all of [`DEFAULT_SEEDS`] in `quick` mode so a quick merged
/// plan still contains a multi-member family (the `replayed > 0` CI gate).
pub fn whatif_requests(kernel: &dyn Kernel) -> Vec<RunRequest<'_>> {
    MatrixPolicy::what_if_axis()
        .into_iter()
        .flat_map(|policy| DEFAULT_SEEDS.map(|seed| whatif_request(kernel, policy, seed)))
        .collect()
}

/// Produces the what-if sweep from a one-shot plan of [`whatif_requests`].
pub fn whatif(kernel: &dyn Kernel) -> WhatIf {
    whatif_with(kernel, &planned(&whatif_requests(kernel)))
}

/// [`whatif`] rendered from `source`: consumes exactly the runs
/// [`whatif_requests`] enumerates.
pub fn whatif_with(kernel: &dyn Kernel, source: &impl RunSource) -> WhatIf {
    let mut rows = Vec::new();
    let mut biased_makespan = f64::NAN;
    for policy in MatrixPolicy::what_if_axis() {
        let mut cpmr = Vec::new();
        let mut makespan = Vec::new();
        let mut hit_rate = Vec::new();
        for &seed in &DEFAULT_SEEDS {
            let run = source.output(&whatif_request(kernel, policy, seed)).prem();
            cpmr.push(run.cpmr);
            makespan.push(run.makespan_cycles);
            let total = (run.prefetch_hits + run.prefetch_misses) as f64;
            hit_rate.push(if total > 0.0 {
                run.prefetch_hits as f64 / total
            } else {
                0.0
            });
        }
        let makespan_mean = Stats::of(&makespan).mean;
        if policy == MatrixPolicy::VendorBiased {
            biased_makespan = makespan_mean;
        }
        rows.push(WhatIfRow {
            policy: policy.name(),
            cpmr: Stats::of(&cpmr).mean,
            makespan_cycles: makespan_mean,
            rel_makespan: f64::NAN, // filled below, once biased is known
            prefetch_hit_rate: Stats::of(&hit_rate).mean,
        });
    }
    for row in &mut rows {
        row.rel_makespan = row.makespan_cycles / biased_makespan;
    }
    WhatIf {
        kernel: kernel.name().to_string(),
        t_kib: whatif_t_bytes(kernel) / KIB,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prem_kernels::Bicg;

    #[test]
    fn requests_form_one_derivation_family() {
        let k = Bicg::new(128, 128);
        let reqs = whatif_requests(&k);
        assert_eq!(reqs.len(), 7 * DEFAULT_SEEDS.len());
        let base = reqs[0].base_key();
        for r in &reqs {
            assert_eq!(r.base_key(), base, "one family: {}", r.key());
            assert!(r.replay_eligible(), "every member derivable: {}", r.key());
        }
        // Keys are still all distinct (policy/seed live in the key).
        let keys: std::collections::HashSet<String> = reqs.iter().map(|r| r.key()).collect();
        assert_eq!(keys.len(), reqs.len());
    }

    #[test]
    fn replayed_plan_renders_identically_to_direct() {
        use prem_harness::PlanExecutor;
        let k = Bicg::new(96, 96);
        let executor = PlanExecutor::new();
        let summary = executor.execute(&whatif_requests(&k), 2);
        assert_eq!(summary.families, 1);
        assert_eq!(summary.executed, 0, "no run executes live");
        assert_eq!(summary.replayed, 7 * DEFAULT_SEEDS.len());
        let live = PlanExecutor::new().without_replay();
        assert_eq!(whatif_with(&k, &executor), whatif_with(&k, &live));
    }

    #[test]
    fn biased_row_is_the_relative_unit() {
        let k = Bicg::new(96, 96);
        let w = whatif(&k);
        let biased = w.rows.iter().find(|r| r.policy == "biased").unwrap();
        assert!((biased.rel_makespan - 1.0).abs() < 1e-12);
        // LRU cannot self-evict within an interval footprint that fits, so
        // its CPMR is no worse than the biased policy's.
        let lru = w.rows.iter().find(|r| r.policy == "lru").unwrap();
        assert!(lru.cpmr <= biased.cpmr + 1e-12);
    }
}
