//! Guards the "zero-cost when disabled" contract of the instrumentation
//! layer.
//!
//! `run_prem` *is* `run_prem_traced::<NullSink>` — the untraced entry
//! point delegates to the generic with the no-op sink, so both calls
//! monomorphize to the same code and the no-op sink adds nothing to the
//! `prem_executor` hot path by construction (the criterion bench
//! `prem_executor/llc_r8_nullsink` shows the two within noise, <1%).
//! This test pins the delegation: if someone forks the traced path away
//! from the untraced one and makes it slower, the min-of-N ratio check
//! fails. The threshold is loose (10%) because CI machines are noisy. On
//! a loaded host a single run can be much faster than its neighbours (a
//! quiet moment on a shared core), and a min over few short trials then
//! tips the check on one lucky run: each timed side repeats the run until
//! it takes over 10 ms, and both paths take many alternating trials, so
//! each side's min meets the quiet moments too (the treatment
//! `prem-harness`'s `metrics_off.rs` gives the plan executor).

use std::time::Instant;

use prem_core::{run_prem, run_prem_traced, IntervalSpec, PremConfig, PremRun};
use prem_gpusim::{Platform, PlatformConfig, Scenario};
use prem_kernels::{Bicg, Kernel};
use prem_memsim::{NullSink, KIB};

/// Runs `reps` back-to-back executions through the untraced or the
/// NullSink path, returning the last run and the seconds all of them took.
fn timed_side(
    platform: &mut Platform,
    intervals: &[IntervalSpec],
    cfg: &PremConfig,
    reps: usize,
    traced: bool,
) -> (PremRun, f64) {
    let t0 = Instant::now();
    let mut last = None;
    for _ in 0..reps {
        last = Some(if traced {
            run_prem_traced(
                platform,
                intervals,
                cfg,
                Scenario::Isolation,
                None,
                &mut NullSink,
            )
            .unwrap()
            .0
        } else {
            run_prem(platform, intervals, cfg, Scenario::Isolation).unwrap()
        });
    }
    (last.expect("at least one rep"), t0.elapsed().as_secs_f64())
}

#[test]
fn nullsink_path_is_not_slower_than_untraced_path() {
    let kernel = Bicg::new(256, 256);
    let intervals = kernel.intervals(96 * KIB).expect("tiling");
    let cfg = PremConfig::llc_tamed();
    let mut platform = PlatformConfig::tx1().build();

    // Warm up, doubling the reps per side until one side takes 10 ms.
    let mut reps = 1;
    while timed_side(&mut platform, &intervals, &cfg, reps, false).1 < 0.010 {
        reps *= 2;
    }
    let trials = 31;
    let mut plain = f64::INFINITY;
    let mut traced = f64::INFINITY;
    for trial in 0..trials {
        // Alternate which path runs first, so a drift in host load within
        // a trial does not always land on the same side.
        let (mut a, mut b) = (None, None);
        for traced_turn in [trial % 2 == 1, trial % 2 == 0] {
            let (run, secs) = timed_side(&mut platform, &intervals, &cfg, reps, traced_turn);
            if traced_turn {
                traced = traced.min(secs);
                b = Some(run);
            } else {
                plain = plain.min(secs);
                a = Some(run);
            }
        }
        assert_eq!(a, b, "NullSink changed the simulation");
    }
    assert!(
        traced <= plain * 1.10,
        "NullSink path took {:.3} ms vs {:.3} ms untraced over {reps} runs (> +10%)",
        traced * 1e3,
        plain * 1e3
    );
}
