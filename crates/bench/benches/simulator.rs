//! Microbenchmarks of the simulator itself: cache access throughput per
//! replacement policy, prefetch passes, PREM executor end-to-end (isolated
//! and under bursty co-runners), one trajectory walk of a compiled stream,
//! and kernel tiling generation.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use prem_core::{run_prem, CompiledRun, NoiseModel, PremConfig, RunWork};
use prem_gpusim::{CorunnerProfile, PlatformConfig, Scenario};
use prem_kernels::{case_study_bicg, Bicg, Kernel};
use prem_memsim::{AccessKind, Cache, CacheConfig, LineAddr, Phase, Policy, KIB};

fn bench_cache_policies(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache_access");
    let n = 10_000u64;
    g.throughput(Throughput::Elements(n));
    for policy in [
        Policy::Lru,
        Policy::Fifo,
        Policy::PseudoLru,
        Policy::Random,
        Policy::nvidia_tegra(),
    ] {
        let name = policy.name().to_string();
        g.bench_function(&name, |b| {
            let mut cache = Cache::new(CacheConfig::new(256 * KIB, 4, 128).policy(policy.clone()));
            let mut i = 0u64;
            b.iter(|| {
                for _ in 0..n {
                    i = (i + 1) % 8192;
                    black_box(cache.access(LineAddr::new(i * 3), AccessKind::Read, Phase::CPhase));
                }
            })
        });
    }
    g.finish();
}

fn bench_index_hash(c: &mut Criterion) {
    let mut g = c.benchmark_group("index_hash");
    let n = 10_000u64;
    g.throughput(Throughput::Elements(n));
    for hashed in [false, true] {
        g.bench_function(if hashed { "hashed" } else { "modulo" }, |b| {
            let mut cache = Cache::new(
                CacheConfig::new(256 * KIB, 4, 128)
                    .policy(Policy::nvidia_tegra())
                    .index_hash(hashed),
            );
            let mut i = 0u64;
            b.iter(|| {
                for _ in 0..n {
                    i = (i + 1) % 8192;
                    black_box(cache.access(LineAddr::new(i * 32), AccessKind::Read, Phase::CPhase));
                }
            })
        });
    }
    g.finish();
}

fn bench_packed_hot_path(c: &mut Criterion) {
    // The packed layout's two fast paths in isolation: a resident working
    // set drives the sentinel-tag way scan straight to the hit early
    // return, while a sweeping stride forces the miss path (invalid-way
    // probe, victim selection, fill) on every access.
    let mut g = c.benchmark_group("packed_hot_path");
    let n = 10_000u64;
    g.throughput(Throughput::Elements(n));
    g.bench_function("hit_return", |b| {
        let mut cache =
            Cache::new(CacheConfig::new(256 * KIB, 4, 128).policy(Policy::nvidia_tegra()));
        let resident = (256 * KIB / 128) as u64;
        for l in 0..resident {
            cache.access(LineAddr::new(l), AccessKind::Prefetch, Phase::MPhase);
        }
        let mut i = 0u64;
        b.iter(|| {
            for _ in 0..n {
                i = (i + 1) % resident;
                black_box(cache.access(LineAddr::new(i), AccessKind::Read, Phase::CPhase));
            }
        })
    });
    g.bench_function("miss_fill", |b| {
        let mut cache =
            Cache::new(CacheConfig::new(256 * KIB, 4, 128).policy(Policy::nvidia_tegra()));
        let mut i = 0u64;
        b.iter(|| {
            for _ in 0..n {
                // Stride one set past capacity so every access misses.
                i += (256 * KIB / 128 / 4) as u64 + 1;
                black_box(cache.access(LineAddr::new(i), AccessKind::Write, Phase::CPhase));
            }
        })
    });
    g.finish();
}

fn bench_prem_executor(c: &mut Criterion) {
    let kernel = Bicg::new(256, 256);
    let intervals = kernel.intervals(96 * KIB).expect("tiling");
    // `llc_r8_bursty` runs the C-phases under three half-duty bursty
    // co-runners: the time-varying coster, which reads contention through
    // windows between burst edges.
    let bursty = PlatformConfig::tx1().with_corunners(vec![
        CorunnerProfile::Bursty {
            duty: 0.5,
            period_cycles: 80_000.0,
        };
        3
    ]);
    let mut g = c.benchmark_group("prem_executor");
    g.sample_size(20);
    for (name, platform, cfg, scenario) in [
        (
            "llc_r8",
            PlatformConfig::tx1(),
            PremConfig::llc_tamed(),
            Scenario::Isolation,
        ),
        (
            "spm",
            PlatformConfig::tx1(),
            PremConfig::spm(),
            Scenario::Isolation,
        ),
        (
            "llc_r8_bursty",
            bursty,
            PremConfig::llc_tamed(),
            Scenario::Corunners,
        ),
    ] {
        g.bench_function(name, |b| {
            let mut platform = platform.build();
            b.iter(|| {
                black_box(run_prem(&mut platform, &intervals, &cfg, scenario).expect("prem run"))
            })
        });
    }
    g.finish();
}

fn bench_walk(c: &mut Criterion) {
    // One trajectory walk of the case-study bicg's compiled R = 8 stream:
    // under the vendor's biased-random policy the later prefetch rounds
    // run event-driven and simulate only their misses; LRU reads hits, so
    // its walk stays on the per-set loop.
    let kernel = case_study_bicg();
    let intervals = kernel.intervals(160 * KIB).expect("tiling");
    let cfg = PlatformConfig::tx1();
    let compiled = CompiledRun::compile(
        &cfg,
        &intervals,
        RunWork::PremLlc { r: 8 },
        NoiseModel::tx1(),
    )
    .expect("compile");
    let mut g = c.benchmark_group("walk");
    g.sample_size(10);
    for (name, policy) in [
        ("bicg_r8_biased_random", Policy::nvidia_tegra()),
        ("bicg_r8_lru", Policy::Lru),
    ] {
        let member = cfg.clone().llc_policy(policy);
        g.bench_function(name, |b| b.iter(|| black_box(compiled.walk(&member, 11))));
    }
    g.finish();
}

fn bench_tiling(c: &mut Criterion) {
    let kernel = Bicg::new(1024, 1024);
    c.bench_function("bicg_tiling_160k", |b| {
        b.iter(|| black_box(kernel.intervals(160 * KIB).expect("tiling")))
    });
}

criterion_group! {
    name = simulator;
    config = Criterion::default().sample_size(10);
    targets = bench_cache_policies, bench_index_hash, bench_packed_hot_path,
              bench_prem_executor, bench_walk, bench_tiling
}
criterion_main!(simulator);
