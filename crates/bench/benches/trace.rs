//! Microbenchmarks of the trace subsystem's hot paths: encoding a
//! captured stream, decoding it back, replaying it against a cache, and
//! the PREM executor with an explicit no-op sink (directly comparable to
//! `prem_executor/llc_r8` in the `simulator` bench — the two must sit
//! within noise of each other, since the untraced entry point *is* the
//! `NullSink` monomorphization).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use prem_core::{run_prem_traced, PremConfig};
use prem_gpusim::{PlatformConfig, Scenario};
use prem_kernels::{Bicg, Kernel};
use prem_memsim::{NullSink, KIB};
use prem_trace::{capture_llc, replay_captured, Trace};

fn bench_trace_roundtrip(c: &mut Criterion) {
    let (_, trace) = capture_llc(&Bicg::new(256, 256), 96 * KIB, 8, 11, Scenario::Isolation);
    let bytes = trace.encode();

    let mut g = c.benchmark_group("trace");
    g.sample_size(20);
    g.throughput(Throughput::Elements(trace.events.len() as u64));
    g.bench_function("trace_encode", |b| b.iter(|| black_box(trace.encode())));
    g.bench_function("trace_decode", |b| {
        b.iter(|| black_box(Trace::decode(&bytes).expect("decode")))
    });
    g.bench_function("trace_replay", |b| {
        b.iter(|| black_box(replay_captured(&trace)))
    });
    g.finish();
}

fn bench_nullsink_executor(c: &mut Criterion) {
    // Mirrors simulator.rs's prem_executor/llc_r8 exactly, through the
    // traced entry point with a no-op sink.
    let kernel = Bicg::new(256, 256);
    let intervals = kernel.intervals(96 * KIB).expect("tiling");
    let cfg = PremConfig::llc_tamed();
    let mut g = c.benchmark_group("prem_executor");
    g.sample_size(20);
    g.bench_function("llc_r8_nullsink", |b| {
        let mut platform = PlatformConfig::tx1().build();
        b.iter(|| {
            black_box(
                run_prem_traced(
                    &mut platform,
                    &intervals,
                    &cfg,
                    Scenario::Isolation,
                    None,
                    &mut NullSink,
                )
                .expect("prem run"),
            )
        })
    });
    g.finish();
}

criterion_group! {
    name = trace;
    config = Criterion::default().sample_size(10);
    targets = bench_trace_roundtrip, bench_nullsink_executor
}
criterion_main!(trace);
