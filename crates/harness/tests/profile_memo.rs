//! The profile-memo layer's equivalence contracts:
//!
//! * **profile-key boundary** — the profile key wildcards *exactly* the
//!   scenario slot (proptest over the coordinate axes): scenario siblings
//!   share one key, while policy, seed, interval size, noise model, work
//!   mode and kernel identity all separate keys, and the baseline (which
//!   never profiles) has none;
//! * **memo transparency** — a memo-enabled executor produces
//!   bit-identical outputs to a memo-disabled one at any worker count,
//!   and its summary charges exactly one profiling pass per distinct key;
//! * **replay × memo** — the composed fast path (replay families fed by
//!   memoized profiles) still matches direct execution field for field.

use proptest::prelude::*;

use prem_core::{NoiseModel, RunWork};
use prem_gpusim::{CorunnerProfile, Scenario};
use prem_harness::{
    CorunnerMix, MatrixPolicy, MatrixScenario, PlanExecutor, PlatformSpec, RunRequest, RunSource,
};
use prem_kernels::{Bicg, Kernel};
use prem_memsim::KIB;

/// The coordinate space the profile-key proptest draws from. Unlike the
/// replay suite's space this one also varies the noise model: the
/// profiling pass injects noise into the profiled C stream, so noise must
/// *not* be wildcarded (only the scenario is — see
/// [`RunRequest::profile_key`]).
#[derive(Clone, Debug)]
struct Coord {
    policy: Option<MatrixPolicy>,
    work: RunWork,
    t_kib: usize,
    seed: u64,
    scenario_pick: usize,
    noisy: bool,
    small_kernel: bool,
}

fn scenario(pick: usize) -> MatrixScenario {
    match pick {
        0 => MatrixScenario::Preset(Scenario::Isolation),
        1 => MatrixScenario::Preset(Scenario::Interference),
        2 => MatrixScenario::Mix(CorunnerMix::uniform(2, CorunnerProfile::Membomb)),
        _ => MatrixScenario::Mix(CorunnerMix::uniform(1, CorunnerProfile::CacheThrash)),
    }
}

fn coord() -> impl Strategy<Value = Coord> {
    (
        prop::sample::select(vec![
            None,
            Some(MatrixPolicy::VendorBiased),
            Some(MatrixPolicy::Lru),
            Some(MatrixPolicy::Srrip),
        ]),
        prop::sample::select(vec![
            RunWork::PremLlc { r: 4 },
            RunWork::PremLlc { r: 8 },
            RunWork::PremLlcUntilResident,
            RunWork::Baseline,
            RunWork::PremSpm,
        ]),
        prop::sample::select(vec![32usize, 160]),
        prop::sample::select(vec![11u64, 23]),
        0usize..4,
        // Two booleans in one draw: bit 0 = noisy, bit 1 = small kernel.
        0u8..4,
    )
        .prop_map(|(policy, work, t_kib, seed, scenario_pick, bits)| Coord {
            policy,
            work,
            t_kib,
            seed,
            scenario_pick,
            noisy: bits & 1 != 0,
            small_kernel: bits & 2 != 0,
        })
}

fn build<'k>(c: &Coord, small: &'k dyn Kernel, large: &'k dyn Kernel) -> RunRequest<'k> {
    let mut platform = PlatformSpec::tx1();
    if let Some(p) = c.policy {
        platform = platform.with_policy(p);
    }
    RunRequest {
        kernel: if c.small_kernel { small } else { large },
        platform,
        work: c.work,
        t_bytes: c.t_kib * KIB,
        seed: c.seed,
        scenario: scenario(c.scenario_pick),
        noise: if c.noisy {
            NoiseModel::tx1()
        } else {
            NoiseModel::off()
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Profile keys are injective over every coordinate *except* the
    /// scenario: two PREM requests share a profile key exactly when they
    /// agree on policy, seed, work, interval size, noise model and kernel
    /// — scenario siblings always collapse onto one key, and the baseline
    /// never has one. Noise stays key-separating on purpose: the
    /// profiling pass feeds noise into the profiled C stream, so two
    /// noise levels profile different cache trajectories.
    #[test]
    fn profile_key_wildcards_exactly_the_scenario_axis(
        a in coord(),
        b in coord(),
    ) {
        let small = Bicg::new(96, 96);
        let large = Bicg::new(128, 128);
        let ra = build(&a, &small, &large);
        let rb = build(&b, &small, &large);

        prop_assert_eq!(
            ra.profile_key().is_none(),
            matches!(a.work, RunWork::Baseline)
        );
        prop_assert_eq!(
            rb.profile_key().is_none(),
            matches!(b.work, RunWork::Baseline)
        );

        if let (Some(ka), Some(kb)) = (ra.profile_key(), rb.profile_key()) {
            let same = a.policy == b.policy
                && a.work == b.work
                && a.t_kib == b.t_kib
                && a.seed == b.seed
                && a.noisy == b.noisy
                && a.small_kernel == b.small_kernel;
            prop_assert_eq!(ka == kb, same);
        }
    }

    /// Memo transparency over arbitrary plans: whatever the composition,
    /// the memo-enabled executor's outputs are bit-identical to the
    /// memo-disabled executor's, and hits + misses add up to the executed
    /// PREM units.
    #[test]
    fn memoized_plan_is_bit_identical_to_memo_disabled(
        coords in prop::collection::vec(coord(), 1..8),
    ) {
        let small = Bicg::new(96, 96);
        let large = Bicg::new(128, 128);
        let requests: Vec<RunRequest<'_>> =
            coords.iter().map(|c| build(c, &small, &large)).collect();

        let memoized = PlanExecutor::new();
        let summary = memoized.execute(&requests, 2);
        let plain = PlanExecutor::new().without_profile_memo();
        let plain_summary = plain.execute(&requests, 2);

        prop_assert_eq!(plain_summary.profile_hits, 0);
        prop_assert_eq!(plain_summary.profile_misses, 0);
        prop_assert!(summary.profile_misses <= summary.profile_hits + summary.profile_misses);
        for req in &requests {
            prop_assert_eq!(memoized.output(req), plain.output(req));
        }
    }
}

/// A scenario-sibling grid: `policies × seeds × scenarios` PREM cells
/// plus one baseline cell.
fn sibling_grid(kernel: &dyn Kernel) -> Vec<RunRequest<'_>> {
    let mut requests = Vec::new();
    for policy in [MatrixPolicy::VendorBiased, MatrixPolicy::Lru] {
        for seed in [11u64, 23] {
            for pick in 0..3 {
                requests.push(RunRequest {
                    kernel,
                    platform: PlatformSpec::tx1().with_policy(policy),
                    work: RunWork::PremLlc { r: 8 },
                    t_bytes: 32 * KIB,
                    seed,
                    scenario: scenario(pick),
                    noise: NoiseModel::tx1(),
                });
            }
        }
    }
    requests.push(RunRequest {
        kernel,
        platform: PlatformSpec::tx1(),
        work: RunWork::Baseline,
        t_bytes: 32 * KIB,
        seed: 11,
        scenario: MatrixScenario::Preset(Scenario::Isolation),
        noise: NoiseModel::tx1(),
    });
    requests
}

#[test]
fn scenario_siblings_charge_exactly_one_profiling_pass_per_key() {
    // 2 policies × 2 seeds × 3 scenarios = 12 PREM cells over 4 distinct
    // profile keys (the scenario is wildcarded), plus one baseline cell
    // that never profiles. Replay is disabled so every cell executes live
    // and the accounting is per-request; the summary must charge exactly
    // 4 passes however many workers run the plan.
    let k = Bicg::new(96, 96);
    let requests = sibling_grid(&k);

    let reference: Vec<_> = {
        let e = PlanExecutor::new().without_replay().without_profile_memo();
        e.execute(&requests, 1);
        requests.iter().map(|r| e.output(r)).collect()
    };
    for workers in [1, 2, 5] {
        let e = PlanExecutor::new().without_replay();
        let summary = e.execute(&requests, workers);
        assert_eq!(summary.executed, requests.len(), "workers={workers}");
        assert_eq!(summary.profile_misses, 4, "workers={workers}");
        assert_eq!(summary.profile_hits, 8, "workers={workers}");
        for (req, expect) in requests.iter().zip(&reference) {
            assert_eq!(
                &e.output(req),
                expect,
                "memoized output drifted at workers={workers} for {}",
                req.key()
            );
        }
    }
}

#[test]
fn summary_line_reports_profile_counters() {
    let k = Bicg::new(96, 96);
    let e = PlanExecutor::new().without_replay();
    let summary = e.execute(&sibling_grid(&k), 2);
    let line = summary.to_string();
    assert!(line.contains(" profile-hits=8"), "{line}");
    assert!(line.ends_with("profile-misses=4"), "{line}");
}

#[test]
fn replay_with_memo_matches_direct_field_for_field() {
    // The fully-compiled path: a policy × seed column collapses into one
    // replay family, compiled from its tiling, whose members backfill the
    // memo instead of charging a pass. Every derived output must still
    // match a direct, memo-less execution of that exact request —
    // compared field by field, so a drift in any PREM observable names
    // itself.
    let k = Bicg::new(96, 96);
    let mut column = Vec::new();
    for policy in [
        MatrixPolicy::VendorBiased,
        MatrixPolicy::Lru,
        MatrixPolicy::Random,
    ] {
        for seed in [11u64, 23] {
            column.push(RunRequest {
                kernel: &k,
                platform: PlatformSpec::tx1().with_policy(policy),
                work: RunWork::PremLlc { r: 8 },
                t_bytes: 160 * KIB,
                seed,
                scenario: MatrixScenario::Preset(Scenario::Isolation),
                noise: NoiseModel::tx1(),
            });
        }
    }
    let executor = PlanExecutor::new();
    let summary = executor.execute(&column, 2);
    assert_eq!(summary.families, 1);
    assert_eq!(summary.executed, 0, "no live run");
    assert_eq!(
        (summary.profile_misses, summary.profile_hits),
        (0, 0),
        "a derived family charges no pass"
    );

    for req in &column {
        let replayed = executor.output(req).prem();
        let direct = req.execute().prem();
        assert_eq!(replayed.intervals, direct.intervals, "{}", req.key());
        assert_eq!(replayed.breakdown, direct.breakdown, "{}", req.key());
        assert_eq!(
            replayed.makespan_cycles,
            direct.makespan_cycles,
            "{}",
            req.key()
        );
        assert_eq!(
            replayed.budget_envelope_cycles,
            direct.budget_envelope_cycles,
            "{}",
            req.key()
        );
        assert_eq!(replayed.budgets, direct.budgets, "{}", req.key());
        assert_eq!(replayed.llc, direct.llc, "{}", req.key());
        assert_eq!(replayed.cpmr, direct.cpmr, "{}", req.key());
        assert_eq!(
            replayed.prefetch_hits,
            direct.prefetch_hits,
            "{}",
            req.key()
        );
        assert_eq!(
            replayed.prefetch_misses,
            direct.prefetch_misses,
            "{}",
            req.key()
        );
        assert_eq!(
            replayed.max_rounds_used,
            direct.max_rounds_used,
            "{}",
            req.key()
        );
        assert_eq!(
            replayed.budget_violation_cycles,
            direct.budget_violation_cycles,
            "{}",
            req.key()
        );
        assert_eq!(
            replayed.interval_timings,
            direct.interval_timings,
            "{}",
            req.key()
        );
        assert_eq!(replayed.bus, direct.bus, "{}", req.key());
        assert_eq!(
            replayed.polluted_lines,
            direct.polluted_lines,
            "{}",
            req.key()
        );
    }
}
