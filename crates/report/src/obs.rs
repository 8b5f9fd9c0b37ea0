//! The `obs` artifact: a phase-timing breakdown of one `figures`
//! invocation, rendered from a [`prem_obs`] registry snapshot.
//!
//! The executor, store, and front end record latency histograms under
//! well-known names (`plan.expand_ns`, `plan.live_ns`, …); this module
//! turns the snapshot into a human table — one row per phase with
//! count, total, and p50/p95/max — plus a `key=value` counters line.
//! Everything here *reads* the snapshot; nothing in the artifact can
//! influence run outputs, which is what keeps goldens byte-identical
//! with metrics on or off.

use prem_obs::{kv_line, Snapshot};
use prem_table::table::f3;

use crate::Table;

/// The timing histograms the breakdown reports, in display order, with
/// their human row labels. Names absent from the snapshot are skipped,
/// so the table adapts to which layers actually ran.
const PHASES: &[(&str, &str)] = &[
    ("plan.expand_ns", "plan: expand + dedup"),
    ("plan.execute_ns", "plan: execute (whole call)"),
    ("plan.unit_ns", "pool: unit"),
    ("plan.pool_wall_ns", "pool: wall"),
    ("plan.tile_ns", "plan: tile"),
    ("plan.compile_ns", "family: compile"),
    ("plan.live_ns", "run: live execute"),
    ("plan.replay_ns", "run: replay derive"),
    ("store.load_ns", "store: segment load"),
    ("store.lock_wait_ns", "store: lock wait"),
    ("store.append_ns", "store: append"),
    ("figures.render_ns", "figures: render"),
];

/// The plan counters echoed under the table, in display order.
const COUNTERS: &[(&str, &str)] = &[
    ("plan.requested", "requested"),
    ("plan.live_runs", "live_runs"),
    ("plan.elided", "elided"),
    ("plan.memory_hits", "memory_hits"),
    ("plan.disk_hits", "disk_hits"),
    ("plan.replayed", "replayed"),
    ("plan.families", "families"),
    ("plan.replay_walks", "replay_walks"),
];

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Renders the phase-timing table: one row per recorded histogram with
/// its sample count, total milliseconds, and p50/p95/max latencies.
pub fn obs_table(snapshot: &Snapshot) -> Table {
    let mut table = Table::new(
        "Phase timings (one invocation; totals overlap across layers)",
        &["phase", "count", "total ms", "p50 ms", "p95 ms", "max ms"],
    );
    for (name, label) in PHASES {
        let Some(hist) = snapshot.hist(name) else {
            continue;
        };
        if hist.count() == 0 {
            continue;
        }
        let total_ms = hist.sum() as f64 / 1e6;
        table.push_row(vec![
            (*label).to_string(),
            hist.count().to_string(),
            f3(total_ms),
            f3(ns_to_ms(hist.p50())),
            f3(ns_to_ms(hist.p95())),
            f3(ns_to_ms(hist.max())),
        ]);
    }
    table
}

/// The `key=value` counters line printed under the table — the plan
/// summary as the registry saw it (all keys present, zero or not).
pub fn obs_counters(snapshot: &Snapshot) -> String {
    kv_line(
        COUNTERS
            .iter()
            .map(|(name, label)| (*label, snapshot.counter(name).unwrap_or(0).to_string())),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use prem_obs::{MetricsSink, Registry};

    #[test]
    fn table_rows_follow_recorded_phases_and_counters_default_to_zero() {
        let registry = Registry::new();
        registry.observe("plan.live_ns", 2_000_000);
        registry.observe("plan.live_ns", 4_000_000);
        registry.observe("figures.render_ns", 1_000_000);
        registry.add("plan.requested", 5);
        let snap = registry.snapshot();

        let table = obs_table(&snap);
        assert_eq!(table.len(), 2, "one row per recorded phase:\n{table}");
        assert_eq!(table.rows()[0][0], "run: live execute");
        assert_eq!(table.rows()[0][1], "2");
        assert_eq!(table.rows()[0][2], "6.000");
        assert_eq!(table.rows()[1][0], "figures: render");

        let counters = obs_counters(&snap);
        assert!(
            counters.starts_with("requested=5 live_runs=0 "),
            "{counters}"
        );
        assert!(counters.ends_with("replay_walks=0"), "{counters}");
    }

    #[test]
    fn every_plan_name_is_one_the_executor_records() {
        use crate::common::llc_request;
        use prem_gpusim::{CorunnerProfile, Scenario};
        use prem_harness::{CorunnerMix, MatrixScenario, PlanExecutor, RunRequest};
        use prem_kernels::Bicg;
        use prem_memsim::KIB;
        // One family: an isolated member it prices and a bursty one it
        // runs live on the same walk's WCETs.
        let k = Bicg::new(96, 96);
        let priced = llc_request(&k, 32 * KIB, 8, 11, Scenario::Isolation);
        let live = RunRequest {
            scenario: MatrixScenario::Mix(CorunnerMix::uniform(
                1,
                CorunnerProfile::Bursty {
                    duty: 0.5,
                    period_cycles: 80_000.0,
                },
            )),
            ..priced.clone()
        };
        let registry = Registry::new();
        let summary = PlanExecutor::new().execute_metered(&[priced, live], 1, &registry);
        assert_eq!(
            (summary.families, summary.replayed, summary.executed),
            (1, 1, 1)
        );
        let snap = registry.snapshot();
        for (name, _) in PHASES.iter().filter(|(n, _)| n.starts_with("plan.")) {
            assert!(snap.hist(name).is_some(), "{name} is never recorded");
        }
        for (name, _) in COUNTERS {
            assert!(snap.counter(name).is_some(), "{name} is never recorded");
        }
    }

    #[test]
    fn empty_snapshot_renders_an_empty_table() {
        let snap = Registry::new().snapshot();
        assert!(obs_table(&snap).is_empty());
        assert_eq!(
            obs_counters(&snap),
            "requested=0 live_runs=0 elided=0 memory_hits=0 disk_hits=0 \
             replayed=0 families=0 replay_walks=0"
        );
    }
}
