//! The replay-backed derivation layer's equivalence contracts:
//!
//! * **replay transparency** — a replay-enabled executor produces
//!   bit-identical outputs to a replay-disabled one for *any* plan drawn
//!   from the quick-suite coordinate space (proptest over the axes);
//! * **base-key injectivity** — two requests share a base key exactly
//!   when they agree on every coordinate other than the LLC policy
//!   override, the seed and the scenario (the full key still separates
//!   scenarios);
//! * **family locality** — a derivation family can never span kernels,
//!   platform templates, work modes, interval sizes or noise models, at
//!   any plan composition;
//! * **one walk per trajectory class** — a family compiles its stream
//!   once, walks it once per (policy, seed-if-random) class and prices
//!   every scenario sibling from it, with no live run — SPM staging
//!   included;
//! * **worker independence** — replayed plans render byte-identical
//!   outputs at any worker count, like every other plan.

use std::collections::HashMap;

use proptest::prelude::*;

use prem_core::{NoiseModel, RunWork};
use prem_gpusim::{CorunnerProfile, Scenario};
use prem_harness::{
    CorunnerMix, MatrixPolicy, MatrixScenario, PlanExecutor, PlatformSpec, RunRequest, RunSource,
};
use prem_kernels::{Bicg, Kernel};
use prem_memsim::KIB;
use prem_trace::testutil::plan_outputs_replay_vs_live;

/// The coordinate space the proptests draw plans from: a policy override
/// (`None` = template policy), work mode, interval size, seed and
/// scenario ([`scenario`]), on one of two kernel identities.
#[derive(Clone, Debug)]
struct Coord {
    policy: Option<MatrixPolicy>,
    work: RunWork,
    t_kib: usize,
    seed: u64,
    scenario_pick: usize,
    small_kernel: bool,
}

/// The scenario axis: both presets, the empty mix, two constant-contention
/// mixes (all replay-eligible) and the ineligible cache-thrashing mix.
fn scenario(pick: usize) -> MatrixScenario {
    match pick {
        0 => MatrixScenario::Preset(Scenario::Isolation),
        1 => MatrixScenario::Preset(Scenario::Interference),
        2 => MatrixScenario::Mix(CorunnerMix::uniform(0, CorunnerProfile::Membomb)),
        3 => MatrixScenario::Mix(CorunnerMix::uniform(2, CorunnerProfile::Membomb)),
        4 => MatrixScenario::Mix(CorunnerMix::uniform(1, CorunnerProfile::Stream)),
        _ => MatrixScenario::Mix(CorunnerMix::uniform(1, CorunnerProfile::CacheThrash)),
    }
}

fn coord() -> impl Strategy<Value = Coord> {
    (
        prop::sample::select(vec![
            None,
            Some(MatrixPolicy::VendorBiased),
            Some(MatrixPolicy::Lru),
            Some(MatrixPolicy::Fifo),
            Some(MatrixPolicy::Srrip),
            Some(MatrixPolicy::Random),
        ]),
        prop::sample::select(vec![
            RunWork::PremLlc { r: 4 },
            RunWork::PremLlc { r: 8 },
            RunWork::Baseline,
            RunWork::PremSpm,
        ]),
        prop::sample::select(vec![32usize, 160]),
        prop::sample::select(vec![11u64, 23, 47]),
        0usize..6,
        any::<bool>(),
    )
        .prop_map(
            |(policy, work, t_kib, seed, scenario_pick, small_kernel)| Coord {
                policy,
                work,
                t_kib,
                seed,
                scenario_pick,
                small_kernel,
            },
        )
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
        noise: NoiseModel::tx1(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole contract: for an arbitrary plan, the replay-enabled
    /// executor serves every request with output bit-identical to the
    /// replay-disabled executor — which the dedup suite already pins to
    /// direct execution. Replay may only change *how many* runs execute
    /// live, never a byte of any output. The shared
    /// [`prem_trace::testutil`] harness checks the plan-shape bookkeeping
    /// on the way.
    #[test]
    fn replayed_plan_is_bit_identical_to_replay_disabled(
        coords in prop::collection::vec(coord(), 1..10),
    ) {
        let small = Bicg::new(96, 96);
        let large = Bicg::new(128, 128);
        let requests: Vec<RunRequest<'_>> =
            coords.iter().map(|c| build(c, &small, &large)).collect();
        let (replayed, live) = plan_outputs_replay_vs_live(&requests, 2);
        prop_assert_eq!(replayed, live);
    }

    /// Base keys are injective over every non-derivable coordinate: two
    /// requests share a base key exactly when they agree on kernel, work
    /// and interval size — the policy override, the seed and the scenario
    /// (the derivation axes) never separate base keys, while the full key
    /// separates all three.
    #[test]
    fn base_key_wildcards_exactly_the_policy_seed_and_scenario_axes(
        a in coord(),
        b in coord(),
    ) {
        let small = Bicg::new(96, 96);
        let large = Bicg::new(128, 128);
        let ra = build(&a, &small, &large);
        let rb = build(&b, &small, &large);
        let same_base = a.work == b.work
            && a.t_kib == b.t_kib
            && a.small_kernel == b.small_kernel;
        prop_assert_eq!(ra.base_key() == rb.base_key(), same_base);
        // The full key additionally separates the derivation axes.
        let same_key = same_base
            && a.policy == b.policy
            && a.seed == b.seed
            && a.scenario_pick == b.scenario_pick;
        prop_assert_eq!(ra.key() == rb.key(), same_key);
    }

    /// Family locality: group any request set by base key and every group
    /// is homogeneous in kernel identity, platform template, work and
    /// interval size — a derivation family can never reach across them,
    /// whatever plan composition the consumer submits.
    #[test]
    fn families_never_span_kernels_platforms_or_work(
        coords in prop::collection::vec(coord(), 2..24),
    ) {
        let small = Bicg::new(96, 96);
        let large = Bicg::new(128, 128);
        let requests: Vec<RunRequest<'_>> =
            coords.iter().map(|c| build(c, &small, &large)).collect();

        let mut groups: HashMap<String, Vec<&Coord>> = HashMap::new();
        for (req, c) in requests.iter().zip(&coords) {
            groups.entry(req.base_key()).or_default().push(c);
        }
        for members in groups.values() {
            let first = members[0];
            for c in members {
                prop_assert_eq!(c.small_kernel, first.small_kernel);
                prop_assert_eq!(c.work, first.work);
                prop_assert_eq!(c.t_kib, first.t_kib);
            }
        }
    }
}

#[test]
fn one_family_column_is_replay_satisfied_and_matches_direct() {
    // The flagship shape: a full policy × seed column on otherwise-fixed
    // coordinates is exactly one derivation family — compiled once, every
    // member derived, nothing live — and every derived output equals a
    // direct execution of that exact request.
    let k = Bicg::new(96, 96);
    let seeds = [11u64, 23, 47];
    let mut column = Vec::new();
    for policy in MatrixPolicy::what_if_axis() {
        for &seed in &seeds {
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
    assert_eq!(summary.executed, 0, "no live representative");
    assert_eq!(summary.replayed, column.len());
    for req in &column {
        assert_eq!(
            executor.output(req),
            req.execute(),
            "derived output diverged from direct execution for {}",
            req.key()
        );
    }
    assert_eq!(
        executor.executed_runs(),
        column.len(),
        "verification must be served from cache"
    );
}

#[test]
fn replayed_plans_are_worker_count_independent() {
    // The executor's determinism contract extends to replay: the same
    // column renders bit-identical outputs at any worker count, wherever
    // wave A and wave B items land.
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
    let reference: Vec<_> = {
        let e = PlanExecutor::new();
        e.execute(&column, 1);
        column.iter().map(|r| e.output(r)).collect()
    };
    for workers in [2, 3, 7] {
        let e = PlanExecutor::new();
        let summary = e.execute(&column, workers);
        assert_eq!(summary.families, 1, "workers={workers}");
        for (req, expect) in column.iter().zip(&reference) {
            assert_eq!(
                &e.output(req),
                expect,
                "output drifted at workers={workers} for {}",
                req.key()
            );
        }
    }
}

/// Three seeds × Isolation/Interference of `work` on otherwise fixed
/// coordinates: the fig6/fig7 shape, one derivation family.
fn seed_by_scenario_column(
    kernel: &dyn Kernel,
    work: RunWork,
    t_kib: usize,
) -> Vec<RunRequest<'_>> {
    let mut column = Vec::new();
    for seed in [11u64, 23, 47] {
        for preset in [Scenario::Isolation, Scenario::Interference] {
            column.push(RunRequest {
                kernel,
                platform: PlatformSpec::tx1(),
                work,
                t_bytes: t_kib * KIB,
                seed,
                scenario: MatrixScenario::Preset(preset),
                noise: NoiseModel::tx1(),
            });
        }
    }
    column
}

#[test]
fn a_seed_by_scenario_column_walks_once_per_seed() {
    // The fig7 (LLC) and fig6 (SPM) shapes: three seeds ×
    // Isolation/Interference on otherwise fixed coordinates is one
    // derivation family. Nothing runs live: the family compiles once,
    // each seed (the TX1's biased-random policy draws from the RNG) walks
    // once, and both of its scenarios are priced from that walk.
    use prem_obs::Registry;
    let k = Bicg::new(96, 96);
    for (work, t_kib) in [(RunWork::PremLlc { r: 8 }, 160), (RunWork::PremSpm, 48)] {
        let column = seed_by_scenario_column(&k, work, t_kib);
        let executor = PlanExecutor::new();
        let registry = Registry::new();
        let summary = executor.execute_metered(&column, 2, &registry);
        assert_eq!((summary.families, summary.executed), (1, 0), "{work:?}");
        assert_eq!(summary.replayed, column.len(), "{work:?}");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("plan.replay_walks"), Some(3), "{work:?}");
        assert_eq!(snap.counter("plan.live_runs"), Some(0), "{work:?}");
        assert_eq!(
            snap.hist("plan.compile_ns").map(|h| h.count()),
            Some(1),
            "{work:?}: one compile per family"
        );
        assert_eq!(
            snap.hist("plan.replay_ns").map(|h| h.count()),
            Some(column.len() as u64),
            "{work:?}: one replay sample per derived member"
        );
        for req in &column {
            assert_eq!(executor.output(req), req.execute(), "{}", req.key());
        }
    }
}
