//! Guards the "zero-cost when metrics are off" contract of the plan
//! executor's spans, the way `prem-trace`'s `nullsink_overhead.rs` guards
//! the trace sink's.
//!
//! `PlanExecutor::execute` *is* `execute_metered::<NullMetrics>`: its
//! tiling (`plan.tile_ns`), compile (`plan.compile_ns`), walk-and-price
//! (`plan.replay_ns`) and unit spans never read the clock against the
//! null sink, so metrics-off execution can only be cheaper than a metered
//! one. This test pins that: if a span is ever timed outside the sink's
//! enablement check, or the metrics-off path forks away from the metered
//! one and grows slower, the min-of-N ratio check fails. The threshold is
//! loose (10%) because CI machines are noisy. On a loaded host a single
//! run can be much faster than its neighbours (a quiet moment on a shared
//! core), and a min over few trials then tips the check on one lucky run:
//! the plan is sized so one execution takes over 10 ms, and both paths
//! take many alternating trials, so each side's min meets the quiet
//! moments too. The prefetch counters the family units add must appear,
//! and read the same at 1 and 2 workers.

use std::time::Instant;

use prem_core::{NoiseModel, RunWork};
use prem_gpusim::Scenario;
use prem_harness::{MatrixScenario, PlanExecutor, PlatformSpec, RunRequest};
use prem_kernels::Bicg;
use prem_memsim::KIB;
use prem_obs::Registry;

#[test]
fn metrics_off_plan_is_not_slower_than_a_metered_one() {
    let kernel = Bicg::new(512, 512);
    // Two families (LLC-PREM and SPM-PREM), sixteen seeds × two scenarios
    // each: every span kind fires.
    let mut plan = Vec::new();
    for work in [RunWork::PremLlc { r: 8 }, RunWork::PremSpm] {
        for seed in (0..16u64).map(|i| 11 + 12 * i) {
            for preset in [Scenario::Isolation, Scenario::Interference] {
                plan.push(RunRequest {
                    kernel: &kernel,
                    platform: PlatformSpec::tx1(),
                    work,
                    t_bytes: 64 * KIB,
                    seed,
                    scenario: MatrixScenario::Preset(preset),
                    noise: NoiseModel::tx1(),
                });
            }
        }
    }

    // Warm up once, then take the min of several trials per path — every
    // trial on a fresh executor, so each one tiles, compiles, walks and
    // prices the whole plan.
    PlanExecutor::new().execute(&plan, 1);
    let trials = 61;
    let mut off = f64::INFINITY;
    let mut on = f64::INFINITY;
    let mut registry = Registry::new();
    for trial in 0..trials {
        // Alternate which path runs first, so a drift in host load within
        // a trial does not always land on the same side.
        let (mut plain, mut metered) = (None, None);
        for metered_turn in [trial % 2 == 1, trial % 2 == 0] {
            if metered_turn {
                registry = Registry::new();
                let t0 = Instant::now();
                metered = Some(PlanExecutor::new().execute_metered(&plan, 1, &registry));
                on = on.min(t0.elapsed().as_secs_f64());
            } else {
                let t0 = Instant::now();
                plain = Some(PlanExecutor::new().execute(&plan, 1));
                off = off.min(t0.elapsed().as_secs_f64());
            }
        }
        assert_eq!(plain, metered, "metrics changed the plan");
    }
    let snap = registry.snapshot();
    let samples = |name| snap.hist(name).map_or(0, |h| h.count());
    assert_eq!(samples("plan.tile_ns"), 1, "one tiling key");
    assert_eq!(samples("plan.compile_ns"), 2, "one compile per family");
    assert_eq!(samples("plan.replay_ns"), plan.len() as u64);
    // Each family unit adds its walks' simulated and credited prefetches:
    // the LLC-PREM family's R = 8 rounds credit most of theirs, the SPM
    // family stages none. The counts are the same at any worker count.
    let walked = snap
        .counter("plan.prefetch_walked")
        .expect("walked counter");
    let credited = snap
        .counter("plan.prefetch_credited")
        .expect("credited counter");
    assert!(
        walked > 0 && credited > walked,
        "{walked} walked, {credited} credited"
    );
    let two = Registry::new();
    PlanExecutor::new().execute_metered(&plan, 2, &two);
    let two = two.snapshot();
    assert_eq!(two.counter("plan.prefetch_walked"), Some(walked));
    assert_eq!(two.counter("plan.prefetch_credited"), Some(credited));
    assert!(
        off <= on * 1.10,
        "metrics-off plan took {:.3} ms vs {:.3} ms metered (> +10%)",
        off * 1e3,
        on * 1e3
    );
}
