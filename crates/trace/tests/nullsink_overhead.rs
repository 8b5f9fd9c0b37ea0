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
//! fails. The threshold is loose (10%) because CI machines are noisy;
//! the absolute regression gate lives in `bench_matrix`.

use std::time::Instant;

use prem_core::{run_prem, run_prem_traced, PremConfig};
use prem_gpusim::{PlatformConfig, Scenario};
use prem_kernels::{Bicg, Kernel};
use prem_memsim::{NullSink, KIB};

#[test]
fn nullsink_path_is_not_slower_than_untraced_path() {
    let kernel = Bicg::new(256, 256);
    let intervals = kernel.intervals(96 * KIB).expect("tiling");
    let cfg = PremConfig::llc_tamed();
    let mut platform = PlatformConfig::tx1().build();

    // Warm up once, then take the min of several trials per path —
    // min-of-N is robust against scheduler noise.
    let _ = run_prem(&mut platform, &intervals, &cfg, Scenario::Isolation).unwrap();
    let trials = 7;
    let mut plain = f64::INFINITY;
    let mut traced = f64::INFINITY;
    for _ in 0..trials {
        let t0 = Instant::now();
        let a = run_prem(&mut platform, &intervals, &cfg, Scenario::Isolation).unwrap();
        plain = plain.min(t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        let (b, _) = run_prem_traced(
            &mut platform,
            &intervals,
            &cfg,
            Scenario::Isolation,
            None,
            &mut NullSink,
        )
        .unwrap();
        traced = traced.min(t0.elapsed().as_secs_f64());
        assert_eq!(a, b, "NullSink changed the simulation");
    }
    assert!(
        traced <= plain * 1.10,
        "NullSink path took {:.3} ms vs {:.3} ms untraced (> +10%)",
        traced * 1e3,
        plain * 1e3
    );
}
