//! The run-plan layer's dedup and cache contracts:
//!
//! * **fingerprint stability** — a request's fingerprint is a pure
//!   function of its coordinates, pinned against known vectors so it is
//!   provably identical across processes (nothing about the process — no
//!   addresses, no hash-map iteration order, no RNG — participates);
//! * **no false sharing** — distinct requests get distinct canonical keys
//!   and therefore distinct cache slots, and each served output equals a
//!   direct execution of that exact request;
//! * **merged-plan elision** — a plan merging two figures executes each
//!   *shared* request exactly once (asserted with the executor's
//!   execution-count probe);
//! * **one tiling per plan key** — a plan tiles each distinct
//!   (kernel, T) once, whatever the worker count, and pins no stream past
//!   the call.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use proptest::prelude::*;

use prem_core::{IntervalSpec, NoiseModel, RunWork};
use prem_gpusim::{CorunnerProfile, Scenario};
use prem_harness::seed::fingerprint;
use prem_harness::{
    CorunnerMix, MatrixPolicy, MatrixScenario, PlanExecutor, PlatformSpec, RunRequest, RunSource,
};
use prem_kernels::{Bicg, Kernel, KernelError, VerifyError};
use prem_memsim::KIB;

/// Serializes the tests that execute plans: they all tile through the
/// process-wide interval arena, and the tiling test reads its live-entry
/// count.
fn arena_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn request(kernel: &dyn Kernel, work: RunWork, t: usize, seed: u64, iso: bool) -> RunRequest<'_> {
    RunRequest {
        kernel,
        platform: PlatformSpec::tx1(),
        work,
        t_bytes: t,
        seed,
        scenario: MatrixScenario::Preset(if iso {
            Scenario::Isolation
        } else {
            Scenario::Interference
        }),
        noise: NoiseModel::tx1(),
    }
}

#[test]
fn fingerprint_pinned_against_known_vectors() {
    // The fingerprint machinery is FNV-1a + SplitMix64 over the canonical
    // key bytes. Pinning concrete values makes cross-process stability a
    // theorem rather than a hope: any process computing something else
    // has changed the algorithm (which would silently orphan every
    // persisted fingerprint) and fails here.
    assert_eq!(fingerprint(""), 0xc381_7c01_6ba4_ff30);
    assert_eq!(
        fingerprint("bicg(128x128)|tx1|isolation|llc-r8|t32768|s11"),
        {
            // Recompute from first principles: FNV-1a then SplitMix64.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &b in "bicg(128x128)|tx1|isolation|llc-r8|t32768|s11".as_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            let mut x = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^ (x >> 31)
        }
    );
}

#[test]
fn same_request_same_fingerprint_across_reconstructions() {
    // Two independently constructed (not cloned) requests with the same
    // coordinates — as two processes would build them — agree on key and
    // fingerprint.
    let k1 = Bicg::new(128, 128);
    let k2 = Bicg::new(128, 128);
    let a = request(&k1, RunWork::PremLlc { r: 8 }, 32 * KIB, 11, true);
    let b = request(&k2, RunWork::PremLlc { r: 8 }, 32 * KIB, 11, true);
    assert_eq!(a.key(), b.key());
    assert_eq!(a.fingerprint(), b.fingerprint());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Keys are injective over the coordinates the figures sweep: two
    /// requests share a key exactly when every coordinate matches.
    #[test]
    fn keys_are_injective_over_coordinates(
        (t_a, r_a, seed_a) in (
            prop::sample::select(vec![32usize, 64, 96, 160]),
            prop::sample::select(vec![1u32, 4, 8]),
            prop::sample::select(vec![11u64, 23, 47]),
        ),
        (t_b, r_b, seed_b) in (
            prop::sample::select(vec![32usize, 64, 96, 160]),
            prop::sample::select(vec![1u32, 4, 8]),
            prop::sample::select(vec![11u64, 23, 47]),
        ),
        iso_a in any::<bool>(),
        iso_b in any::<bool>(),
    ) {
        let k = Bicg::new(128, 128);
        let a = request(&k, RunWork::PremLlc { r: r_a }, t_a * KIB, seed_a, iso_a);
        let b = request(&k, RunWork::PremLlc { r: r_b }, t_b * KIB, seed_b, iso_b);
        let same = t_a == t_b && r_a == r_b && seed_a == seed_b && iso_a == iso_b;
        prop_assert_eq!(a.key() == b.key(), same);
        prop_assert_eq!(a.fingerprint() == b.fingerprint(), same);
    }
}

#[test]
fn no_false_sharing_between_distinct_requests() {
    // Fill one executor with near-neighbour requests, then check every
    // cached output against a direct execution of exactly that request:
    // had two requests aliased one slot, at least one would come back
    // with the other's (different-seed, different-scenario) result.
    let k = Bicg::new(128, 128);
    let mut requests = Vec::new();
    for seed in [11, 23] {
        for iso in [true, false] {
            requests.push(request(&k, RunWork::PremLlc { r: 8 }, 32 * KIB, seed, iso));
            requests.push(request(&k, RunWork::Baseline, 32 * KIB, seed, iso));
        }
        requests.push(request(&k, RunWork::PremSpm, 32 * KIB, seed, true));
    }
    let _arena = arena_lock();
    let executor = PlanExecutor::new();
    let summary = executor.execute(&requests, 2);
    // All distinct: every request occupies its own slot, derived within
    // its derivation family (both seeds and both scenarios of the LLC
    // requests form one family, those of the baseline requests another,
    // both SPM seeds a third).
    assert_eq!(
        summary.executed + summary.replayed,
        requests.len(),
        "all requests distinct"
    );
    assert_eq!(summary.elided + summary.hits + summary.disk_hits, 0);
    assert_eq!(summary.families, 3, "one family per work mode");
    assert_eq!(
        summary.executed, 0,
        "no run executes live to serve a family"
    );
    // Comparing every slot against a direct execution also proves the
    // replayed outputs bit-identical to live ones.
    for req in &requests {
        assert_eq!(
            executor.output(req),
            req.execute(),
            "cached output diverged from direct execution for {}",
            req.key()
        );
    }
    assert_eq!(
        executor.executed_runs(),
        summary.executed + summary.replayed,
        "verification must be served from cache"
    );
}

#[test]
fn merged_two_figure_plan_executes_each_shared_request_exactly_once() {
    let k = Bicg::new(128, 128);
    // Figure A: an (R, T) isolation grid. Figure B: an interference
    // comparison at one grid point. They share the R=8 isolation runs at
    // T = 32K and the baseline—exactly the fig4/fig3-style overlap.
    let mut fig_a = Vec::new();
    for r in [1, 8] {
        for t in [32 * KIB, 48 * KIB] {
            fig_a.push(request(&k, RunWork::PremLlc { r }, t, 11, true));
        }
    }
    fig_a.push(request(&k, RunWork::Baseline, 32 * KIB, 11, true));
    let mut fig_b = vec![
        request(&k, RunWork::PremLlc { r: 8 }, 32 * KIB, 11, true), // shared
        request(&k, RunWork::Baseline, 32 * KIB, 11, true),         // shared
        request(&k, RunWork::PremLlc { r: 8 }, 32 * KIB, 11, false),
    ];

    // Per-figure sums: |A| + |B| simulator runs.
    let separate = fig_a.len() + fig_b.len();

    // Merged: the shared requests execute exactly once.
    let mut merged = fig_a.clone();
    merged.append(&mut fig_b);
    let _arena = arena_lock();
    let executor = PlanExecutor::new();
    let summary = executor.execute(&merged, 2);
    assert_eq!(summary.requested, separate);
    assert_eq!(summary.elided, 2, "the two shared requests are elided");
    // The R=8/32 KiB isolation and interference runs are scenario
    // siblings of one family; the other four unique requests are families
    // of one. Every request is derived.
    assert_eq!(summary.executed + summary.replayed, separate - 2);
    assert_eq!((summary.replayed, summary.families), (6, 5));
    assert_eq!(executor.executed_runs(), summary.replayed);
    assert!(
        summary.executed + summary.replayed < separate,
        "merged plan must satisfy strictly fewer runs than the per-figure sum"
    );

    // Rendering both figures afterwards is pure cache traffic.
    for req in &merged {
        let _ = executor.output(req);
    }
    assert_eq!(
        executor.executed_runs(),
        summary.replayed,
        "post-plan rendering must not execute anything"
    );
}

/// Bicg under a name no other test uses (so it shares no arena entry),
/// counting its tilings.
#[derive(Debug)]
struct CountedBicg {
    inner: Bicg,
    tilings: AtomicUsize,
}

impl Kernel for CountedBicg {
    fn name(&self) -> &'static str {
        "counted-bicg"
    }
    fn dims(&self) -> String {
        self.inner.dims()
    }
    fn id_dims(&self) -> Vec<usize> {
        self.inner.id_dims()
    }
    fn dataset_bytes(&self) -> usize {
        self.inner.dataset_bytes()
    }
    fn min_interval_bytes(&self) -> usize {
        self.inner.min_interval_bytes()
    }
    fn intervals(&self, t_bytes: usize) -> Result<Vec<IntervalSpec>, KernelError> {
        self.tilings.fetch_add(1, Ordering::Relaxed);
        self.inner.intervals(t_bytes)
    }
    fn verify(&self, t_bytes: usize) -> Result<(), VerifyError> {
        self.inner.verify(t_bytes)
    }
}

#[test]
fn plan_tiles_each_kernel_t_key_once() {
    let _arena = arena_lock();
    let kernel = CountedBicg {
        inner: Bicg::new(96, 96),
        tilings: AtomicUsize::new(0),
    };
    // K = 3 (kernel, T) keys, interleaved in the plan so units of one key
    // are never adjacent in frontier order: families (LLC scenario pairs
    // with a bursty member that runs live, baseline, SPM, an LRU what-if)
    // at every T.
    let ts = [16 * KIB, 24 * KIB, 32 * KIB];
    let mut requests = Vec::new();
    for seed in [11, 23] {
        for iso in [true, false] {
            for &t in &ts {
                requests.push(request(&kernel, RunWork::PremLlc { r: 8 }, t, seed, iso));
                requests.push(request(&kernel, RunWork::Baseline, t, seed, iso));
                if iso {
                    requests.push(request(&kernel, RunWork::PremSpm, t, seed, true));
                    let mut bursty = request(&kernel, RunWork::PremLlc { r: 8 }, t, seed, true);
                    bursty.scenario = MatrixScenario::Mix(CorunnerMix::uniform(
                        1,
                        CorunnerProfile::Bursty {
                            duty: 0.5,
                            period_cycles: 80_000.0,
                        },
                    ));
                    requests.push(bursty);
                }
            }
        }
    }
    for &t in &ts {
        let mut sibling = request(&kernel, RunWork::PremLlc { r: 4 }, t, 11, true);
        sibling.platform = PlatformSpec::tx1().with_policy(MatrixPolicy::Lru);
        requests.push(sibling);
    }

    let mut outputs = Vec::new();
    for workers in [1, 4] {
        let live_before = prem_kernels::arena::shared().live_entries();
        kernel.tilings.store(0, Ordering::Relaxed);
        let executor = PlanExecutor::new();
        let summary = executor.execute(&requests, workers);
        assert_eq!(
            (summary.families, summary.executed),
            (4 * ts.len(), 2 * ts.len())
        );
        if workers == 1 {
            assert_eq!(
                kernel.tilings.load(Ordering::Relaxed),
                ts.len(),
                "one tiling per (kernel, T) key"
            );
        }
        assert_eq!(
            prem_kernels::arena::shared().live_entries(),
            live_before,
            "no stream pin outlives the call"
        );
        outputs.push(
            requests
                .iter()
                .map(|req| executor.output(req))
                .collect::<Vec<_>>(),
        );
    }
    assert_eq!(outputs[0], outputs[1], "4 workers must match 1 worker");
}
