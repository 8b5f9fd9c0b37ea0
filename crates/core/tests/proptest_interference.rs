//! Property tests on the co-runner interference engine: interference is
//! **monotone** — adding a co-runner to a mix never *decreases* the
//! observed DRAM latency, the execution times, or the CPMR — and its
//! contention windows are exact: a window never spans a toggle, and an
//! executor that reads contention through windows charges every op what
//! a per-op evaluation would.

use proptest::prelude::*;

use prem_core::{run_baseline, run_prem, CAccess, IntervalSpec, NoiseModel, PremConfig};
use prem_gpusim::{
    CorunnerProfile, InterferenceEngine, Op, OpStream, PlatformConfig, Scenario, SmExecutor,
};
use prem_memsim::{AccessKind, DramConfig, LineAddr, Phase};

/// Where windows stop being exact: at and beyond 2^40 cycles they are
/// empty.
const WINDOW_LIMIT: f64 = (1u64 << 40) as f64;

/// The statically-demanding profiles (no duty cycling): for these,
/// monotonicity is exact, not statistical.
fn static_profile() -> impl Strategy<Value = CorunnerProfile> {
    prop::sample::select(vec![
        CorunnerProfile::Membomb,
        CorunnerProfile::Stream,
        CorunnerProfile::CacheThrash,
        CorunnerProfile::Idle,
    ])
}

/// Random static co-runner mixes of 0–4 actors.
fn mix() -> impl Strategy<Value = Vec<CorunnerProfile>> {
    prop::collection::vec(static_profile(), 0..4)
}

/// Mixes of 1–6 bursty actors, each with a random duty in (0, 1) and a
/// random period from 1/8 cycle to 64 K cycles (in eighths, so periods
/// and edges fall off the integer grid).
fn bursty_mix() -> impl Strategy<Value = Vec<CorunnerProfile>> {
    prop::collection::vec((1u64..1000, 1u64..(1 << 19)), 1..=6).prop_map(|actors| {
        actors
            .into_iter()
            .map(|(duty, period)| CorunnerProfile::Bursty {
                duty: duty as f64 / 1000.0,
                period_cycles: period as f64 / 8.0,
            })
            .collect()
    })
}

/// Start cycles for window checks derived from a random `base`: the base
/// itself, points from one cycle before to one cycle past the edge that
/// ends its window (a window stops one cycle short of the edge), and
/// points around and beyond 2^40 cycles.
fn window_starts(engine: &InterferenceEngine, base: f64, far: f64) -> Vec<f64> {
    let (_, until) = engine.contention_until(base);
    let mut starts = vec![base, WINDOW_LIMIT - 1.5, WINDOW_LIMIT, WINDOW_LIMIT + far];
    starts.extend((0..=8).map(|k| until + f64::from(k) / 4.0));
    starts
}

/// A modest interval set exercising both phases (mirrors the executor's
/// toy kernel: 4 intervals of 64 streamed lines).
fn toy_intervals() -> Vec<IntervalSpec> {
    (0..4)
        .map(|i| {
            let lines: Vec<_> = (0..64u64).map(|j| LineAddr::new(i * 64 + j)).collect();
            let accesses = lines.iter().map(|&l| CAccess::read(l)).collect();
            IntervalSpec::new(lines, accesses, 128)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Appending any co-runner (static or bursty) never lowers the demand
    /// the engine reports, and therefore never lowers the DRAM latency or
    /// serialization the victim observes, at any sampled time.
    #[test]
    fn dram_latency_never_decreases_when_a_corunner_joins(
        base in mix(),
        extra in static_profile(),
        duty in 0u64..=10,
        seed in any::<u64>(),
        t in 0u64..1_000_000,
    ) {
        let dram = DramConfig::tx1();
        let a = InterferenceEngine::new(&base, seed);
        for extra in [extra, CorunnerProfile::Bursty {
            duty: duty as f64 / 10.0,
            period_cycles: 10_000.0,
        }] {
            let mut longer = base.clone();
            longer.push(extra);
            let b = InterferenceEngine::new(&longer, seed);
            let t = t as f64;
            prop_assert!(b.demand_at(t) >= a.demand_at(t) - 1e-12);
            prop_assert!(
                dram.effective_latency(b.contention_at(t))
                    >= dram.effective_latency(a.contention_at(t)) - 1e-9
            );
            prop_assert!(
                dram.serialization(128, b.contention_at(t))
                    >= dram.serialization(128, a.contention_at(t)) - 1e-9
            );
        }
    }

    /// Adding a static co-runner never speeds up the PREM schedule or the
    /// unprotected baseline, and never lowers the CPMR: non-polluting
    /// profiles leave cache behavior (and so the CPMR) exactly unchanged,
    /// while a thrasher's pollution can only push it up.
    #[test]
    fn execution_and_cpmr_never_improve_when_a_corunner_joins(
        base in mix(),
        extra in static_profile(),
        seed in any::<u64>(),
    ) {
        let ivs = toy_intervals();
        let mut longer = base.clone();
        longer.push(extra);

        let run_with = |corunners: &[CorunnerProfile]| {
            let mut p = PlatformConfig::tx1()
                .with_corunners(corunners.to_vec())
                .build();
            let cfg = PremConfig::llc_tamed().with_seed(seed).with_noise(NoiseModel::tx1());
            let prem = run_prem(&mut p, &ivs, &cfg, Scenario::Corunners).unwrap();
            let mut p2 = PlatformConfig::tx1()
                .with_corunners(corunners.to_vec())
                .build();
            let b = run_baseline(&mut p2, &ivs, seed, Scenario::Corunners, NoiseModel::tx1())
                .unwrap();
            (prem, b)
        };
        let (prem_a, base_a) = run_with(&base);
        let (prem_b, base_b) = run_with(&longer);

        prop_assert!(prem_b.makespan_cycles >= prem_a.makespan_cycles - 1e-6);
        prop_assert!(base_b.cycles >= base_a.cycles - 1e-6);
        prop_assert!(prem_b.cpmr >= prem_a.cpmr - 1e-12);
        if !extra.pollutes_llc() {
            // Bus-only co-runners cannot touch the LLC: the miss pattern —
            // and with it the CPMR — must be bit-identical.
            prop_assert_eq!(prem_b.llc.c_phase, prem_a.llc.c_phase);
            prop_assert!((prem_b.cpmr - prem_a.cpmr).abs() < 1e-15);
        }
    }

    /// The interference preset and the equivalent explicit mix are the
    /// same measurement: three membombs via `Scenario::Corunners` must be
    /// bit-identical to `Scenario::Interference`.
    #[test]
    fn explicit_three_membombs_equal_the_interference_preset(seed in any::<u64>()) {
        let ivs = toy_intervals();
        let cfg = PremConfig::llc_tamed().with_seed(seed).with_noise(NoiseModel::tx1());
        let mut preset = PlatformConfig::tx1().build();
        let a = run_prem(&mut preset, &ivs, &cfg, Scenario::Interference).unwrap();
        let mut explicit = PlatformConfig::tx1()
            .with_corunners(vec![CorunnerProfile::Membomb; 3])
            .build();
        let b = run_prem(&mut explicit, &ivs, &cfg, Scenario::Corunners).unwrap();
        prop_assert_eq!(a, b);
    }

    /// `contention_until(c)` reports `contention_at(c)` and a window over
    /// which it holds: sampled points of `[c, until)` — its start, its
    /// middle, random points and the largest float below `until` — all
    /// read the same contention. Windows are empty at and beyond 2^40
    /// cycles.
    #[test]
    fn contention_windows_never_span_a_toggle(
        mix in bursty_mix(),
        seed in any::<u64>(),
        base in 0u64..(1 << 36),
        far in 0u64..(1 << 20),
        fractions in prop::collection::vec(0u64..1 << 20, 4),
    ) {
        let engine = InterferenceEngine::new(&mix, seed);
        for c in window_starts(&engine, base as f64 / 16.0, far as f64) {
            let (contention, until) = engine.contention_until(c);
            prop_assert_eq!(contention, engine.contention_at(c));
            prop_assert!(until >= c, "window [{c}, {until}) runs backwards");
            if c >= WINDOW_LIMIT {
                prop_assert_eq!(until, c);
            }
            if until == c {
                continue;
            }
            let mut samples = vec![c, c + (until - c) / 2.0, until.next_down()];
            samples.extend(
                fractions
                    .iter()
                    .map(|&f| c + (until - c) * (f as f64 / (1u64 << 20) as f64)),
            );
            for t in samples.into_iter().filter(|&t| t >= c && t < until) {
                prop_assert!(
                    engine.contention_at(t) == contention,
                    "toggle at {t} inside window [{c}, {until})"
                );
            }
        }
    }

    /// A bursty `run_under` charges every op exactly what a reference loop
    /// evaluating `contention_at` at each op's issue time charges — the
    /// windowed coster is bit-exact, near edges and past 2^40 included.
    #[test]
    fn windowed_run_under_matches_per_op_contention(
        mix in bursty_mix(),
        seed in any::<u64>(),
        base in 0u64..(1 << 36),
        far in 0u64..(1 << 20),
        lines in prop::collection::vec((0u64..4096, 0u8..8), 1..400),
    ) {
        let engine = InterferenceEngine::new(&mix, seed);
        // Loads over a working set larger than the LLC (hits and misses),
        // with compute and stores mixed in.
        let stream: OpStream = lines
            .iter()
            .map(|&(l, pick)| match pick {
                0 => Op::Alu(u32::try_from(l % 64).expect("small")),
                1 => Op::CachedStore(LineAddr::new(l)),
                _ => Op::CachedLoad(LineAddr::new(l)),
            })
            .collect();
        for start in window_starts(&engine, base as f64 / 16.0, far as f64) {
            let mut live = PlatformConfig::tx1().build();
            let out = SmExecutor::new(&mut live.mem, &live.cost)
                .run_under(&stream, Phase::CPhase, &engine, start)
                .expect("cached ops cannot fail");
            let mut reference = PlatformConfig::tx1().build();
            let mut cycles = 0.0f64;
            for op in &stream {
                let t = start + cycles;
                cycles += match *op {
                    Op::CachedLoad(line) | Op::CachedStore(line) => {
                        let kind = if matches!(op, Op::CachedStore(_)) {
                            AccessKind::Write
                        } else {
                            AccessKind::Read
                        };
                        let level = reference.mem.access_cached(line, kind, Phase::CPhase);
                        reference.cost.access_cost(level, engine.contention_at(t))
                    }
                    Op::Alu(n) => reference.cost.alu_cost(u64::from(n)),
                    _ => unreachable!("the stream holds cached ops and compute only"),
                };
            }
            prop_assert!(
                out.cycles.to_bits() == cycles.to_bits(),
                "start {start}: windowed {} vs per-op {cycles}",
                out.cycles
            );
        }
    }
}
