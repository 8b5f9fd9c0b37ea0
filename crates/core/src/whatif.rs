//! Replay-backed what-if execution: capture one live run, derive its
//! policy/seed siblings by replay.
//!
//! PR 4 established the enabling property: under a fixed prefetch
//! repetition the LLC's *input op sequence* does not depend on the LLC
//! replacement policy or seed — those axes only change which accesses hit.
//! The plan layer exploits this as a **derivation relation**: requests that
//! differ only in LLC policy and seed form a family, one representative
//! executes live with a capturing sink (`WhatIfSink`) recording the access
//! sequence, and
//! every sibling's full [`RunOutput`] is rebuilt by replaying the captured
//! sequence against a mirror cache carrying the sibling's policy/seed
//! ([`RunCapture::replay_for`]).
//!
//! ## Why replayed outputs are bit-identical to live ones
//!
//! * **Cache trajectory** — the mirror is a real [`Cache`] built from the
//!   sibling's configuration and fed the exact captured access sequence,
//!   so hits, misses, evictions and `CacheStats` are the live cache's by
//!   construction (the property `prem-trace`'s replay suite pins).
//! * **Cycle arithmetic** — floating-point accumulation is not
//!   associative, so the replay mirrors the executor's accumulator
//!   structure exactly: per-op adds into a per-round accumulator, per-round
//!   adds into the interval's M-phase work, fresh accumulators per C-phase,
//!   intervals folded in order. Per-op costs come from the captured
//!   [`CostModel`](prem_gpusim::CostModel) under the captured contention,
//!   i.e. the same pure functions the live executor charges. M-rounds go
//!   through the live executor's own round helper: a round walks only the
//!   lines whose LLC set missed in the round before and credits the rest
//!   as hits (per op, in issue order), and every round after one that
//!   missed nothing is credited whole — all on the sibling's trajectory.
//! * **Budgets** — the profiling pass and the timed run reset and reseed
//!   identically and feed identical op sequences, so their cache
//!   trajectories coincide; one captured walk therefore yields both the
//!   isolated-contention phase times that budgets derive from and the
//!   live-contention phase times the schedule reports (hit costs are
//!   contention-independent; only DRAM costs differ).
//!
//! Eligibility ([`replay_eligible`]) is exactly the set of runs where the
//! op-sequence invariance holds: LLC-staged PREM with a fixed repetition
//! and baseline work (SPM staging has no LLC what-if axis, and adaptive
//! prefetching stops after a policy/seed-dependent number of rounds), no
//! L1, and a co-runner mix whose contention is constant and which never
//! pollutes the LLC (pollution volume depends on budgets, which depend on
//! policy/seed).

use std::ops::Range;

use prem_gpusim::{ExecError, InterferenceEngine, PlatformConfig, Scenario};
use prem_memsim::{
    AccessKind, AccessOutcome, BusWindow, Cache, Contention, HitLevel, LineAddr, NullSink, Phase,
    Policy, TraceSink,
};

use crate::budget::BudgetPolicy;
use crate::exec::{
    prefetch_rounds, run_baseline_traced, run_prem_traced, BaselineRun, NoiseModel, PremRun,
    SetRounds,
};
use crate::interval::IntervalSpec;
use crate::local_store::{LocalStore, PrefetchStrategy};
use crate::metrics::Breakdown;
use crate::plan::{Executed, RunOutput, RunWork};
use crate::sync::PhaseTiming;

/// Whether a run is replay-derivable across the LLC policy/seed axes.
///
/// True exactly when the LLC's input op sequence is invariant in those
/// axes: LLC-PREM with a fixed repetition or baseline work, no L1 in front
/// of the LLC, and a co-runner mix under `scenario` that is time-invariant
/// (constant contention) and never pollutes the LLC.
pub fn replay_eligible(cfg: &PlatformConfig, work: RunWork, scenario: Scenario) -> bool {
    if cfg.l1.is_some() {
        return false;
    }
    match work {
        RunWork::PremLlc { .. } | RunWork::Baseline => {}
        // SPM staging bypasses the LLC: there is no policy/seed axis to
        // derive along (and the C-phase never touches the cache).
        RunWork::PremSpm => return false,
        // Adaptive round counts depend on which prefetches hit, i.e. on
        // the policy and seed.
        RunWork::PremLlcUntilResident => return false,
    }
    // Static/polluter properties are seed-independent, so probe with 0.
    let engine = InterferenceEngine::new(cfg.cpu.active_corunners(scenario), 0);
    engine.static_contention().is_some() && !engine.has_polluters()
}

/// One captured event of the LLC input sequence, in execution order.
#[derive(Copy, Clone, Debug)]
enum Entry {
    /// A PREM interval boundary (`begin_interval` on the PREM path; a pure
    /// cost-segment boundary on the baseline path).
    Interval,
    /// An M-phase begins (PREM only).
    MBegin,
    /// A C-phase begins (PREM only).
    CBegin,
    /// One cache access (line/kind/phase as the live run issued it).
    Access {
        line: LineAddr,
        kind: AccessKind,
        phase: Phase,
    },
    /// `n` warp arithmetic instructions charged between accesses.
    Compute { n: u64 },
}

/// The capturing sink: records the policy/seed-invariant input sequence.
///
/// Opts into deduplicated M-round delivery: a fixed repetition issues one
/// identical pass per round and this sink stores no outcomes, so recording
/// every round would store the same entries `r` times. The executor
/// delivers round 1 only; [`RunCapture::replay_for`] walks the recorded
/// round [`RunCapture::rounds`] times to reproduce the full sequence,
/// crediting settled sets and rounds exactly as the live executor does.
#[derive(Debug, Default)]
struct WhatIfSink {
    entries: Vec<Entry>,
}

impl TraceSink for WhatIfSink {
    const DEDUP_M_ROUNDS: bool = true;

    fn on_access(&mut self, line: LineAddr, kind: AccessKind, phase: Phase, _: &AccessOutcome) {
        self.entries.push(Entry::Access { line, kind, phase });
    }

    fn on_interval(&mut self) {
        self.entries.push(Entry::Interval);
    }

    fn on_phase(&mut self, phase: Phase, _cycles: f64) {
        match phase {
            Phase::MPhase => self.entries.push(Entry::MBegin),
            Phase::CPhase => self.entries.push(Entry::CBegin),
            Phase::Unphased | Phase::Corunner => {}
        }
    }

    fn on_compute(&mut self, n: u64) {
        self.entries.push(Entry::Compute { n });
    }
}

/// Which executor produced the capture (they segment differently).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum CaptureMode {
    Prem,
    Baseline,
}

/// A captured live run: everything needed to rebuild the [`RunOutput`] of
/// any policy/seed sibling without re-executing the simulator.
///
/// Produced by [`execute_run`](crate::execute_run) with
/// [`RunOptions::capture`](crate::RunOptions::capture) set, consumed by
/// [`RunCapture::replay_for`].
#[derive(Clone, Debug)]
pub struct RunCapture {
    mode: CaptureMode,
    /// The representative's fully-resolved platform config — the defense
    /// baseline every sibling is checked against (equal modulo LLC
    /// policy/seed) and the source of geometry and cost constants.
    base_cfg: PlatformConfig,
    entries: Vec<Entry>,
    n_intervals: usize,
    /// Fixed M-phase prefetch rounds per interval (PREM mode only).
    rounds: u32,
    msg_cycles: f64,
    switch_cycles: f64,
    budget: BudgetPolicy,
    /// Constant C-phase / baseline bus contention of the mix.
    c_cont: Contention,
    /// M-phase contention (token held).
    m_cont: Contention,
    /// Mean contention used for the bus ledger.
    ledger_cont: Contention,
}

/// [`execute_run`](crate::execute_run) with capture on: executes the run
/// live through the capturing sink and packages the recorded sequence as
/// a [`RunCapture`]. The output and WCETs are bit-identical to an
/// uncaptured run with the same profile source; replay-eligible mixes are
/// always fusion-eligible (both require constant contention and no
/// polluters), so a self-profiling representative pays one walk.
///
/// # Panics
///
/// Panics when the request is not [`replay_eligible`] — capturing an
/// ineligible run would hand out a capture whose replays are wrong, so the
/// caller must gate on eligibility first.
pub(crate) fn execute_captured(
    platform_cfg: &PlatformConfig,
    intervals: &[IntervalSpec],
    work: RunWork,
    seed: u64,
    scenario: Scenario,
    noise: NoiseModel,
    profiled: Option<(f64, f64)>,
) -> Result<Executed, ExecError> {
    assert!(
        replay_eligible(platform_cfg, work, scenario),
        "execute_run: capture requested for a run that is not replay-eligible"
    );
    let mut platform = platform_cfg.build();
    let mut sink = WhatIfSink::default();
    let engine = InterferenceEngine::new(platform_cfg.cpu.active_corunners(scenario), seed);
    let c_cont = engine
        .static_contention()
        .expect("eligible mixes have constant contention");

    let (output, wcets, mode, rounds, msg_cycles, switch_cycles, budget) = match work
        .prem_config(seed, noise)
    {
        Some(cfg) => {
            let msg_cycles = platform.us_to_cycles(platform.cpu.sync.msg_us);
            let switch_cycles = platform.us_to_cycles(platform.cpu.sync.switch_cost_us());
            let rounds = match &cfg.store {
                LocalStore::Llc { prefetch } => {
                    assert!(
                        !prefetch.adaptive(),
                        "adaptive prefetch round counts depend on policy/seed"
                    );
                    prefetch.max_rounds()
                }
                LocalStore::Spm { .. } => unreachable!("SPM work is not replay-eligible"),
            };
            let (run, wcets) = run_prem_traced(
                &mut platform,
                intervals,
                &cfg,
                scenario,
                profiled,
                &mut sink,
            )?;
            (
                RunOutput::Prem(run),
                Some(wcets),
                CaptureMode::Prem,
                rounds,
                msg_cycles,
                switch_cycles,
                cfg.budget,
            )
        }
        None => {
            let run =
                run_baseline_traced(&mut platform, intervals, seed, scenario, noise, &mut sink)?;
            (
                RunOutput::Baseline(run),
                None,
                CaptureMode::Baseline,
                0,
                0.0,
                0.0,
                BudgetPolicy::fair(),
            )
        }
    };

    let capture = RunCapture {
        mode,
        base_cfg: platform_cfg.clone(),
        entries: sink.entries,
        n_intervals: intervals.len(),
        rounds,
        msg_cycles,
        switch_cycles,
        budget,
        c_cont,
        m_cont: platform_cfg.cpu.m_phase_contention(),
        ledger_cont: engine.mean_contention(),
    };
    Ok(Executed {
        output,
        wcets,
        capture: Some(capture),
    })
}

/// Strips the replay-variant axes off a platform config: LLC policy and
/// seed are forced to fixed canonical values so two configs compare equal
/// exactly when they agree on everything replay preserves.
fn strip_llc_axes(cfg: &PlatformConfig) -> PlatformConfig {
    let mut stripped = cfg.clone();
    stripped.llc = stripped.llc.policy(Policy::Lru).seed(0);
    stripped
}

impl RunCapture {
    /// Derives the full [`RunOutput`] of the sibling request resolving to
    /// `cfg` with run seed `seed`, by replaying the captured sequence
    /// against a mirror cache under the sibling's LLC policy/seed.
    ///
    /// The result is bit-identical to executing the sibling live — the
    /// contract the plan layer's equivalence suite proves.
    ///
    /// # Panics
    ///
    /// Panics when `cfg` differs from the captured representative's config
    /// anywhere other than the LLC policy/seed — that means the caller
    /// grouped requests into a family whose members are not actually
    /// derivable from each other.
    pub fn replay_for(&self, cfg: &PlatformConfig, seed: u64) -> RunOutput {
        assert!(
            strip_llc_axes(cfg) == strip_llc_axes(&self.base_cfg),
            "replay_for: sibling config differs from the captured \
             representative beyond the LLC policy/seed axes"
        );
        // The sibling's mirror cache: captured geometry, sibling policy,
        // reseeded exactly as the live run reseeds after the cold build.
        let mut llc = Cache::new(cfg.llc.clone());
        llc.reseed(seed);

        let cost = &self.base_cfg.cost;
        // Per-op cost constants: the same pure cost-model functions the
        // live executor charges, evaluated once.
        let llc_hit = cost.access_cost(HitLevel::Llc, self.c_cont);
        let dram_live = cost.access_cost(HitLevel::Dram, self.c_cont);
        let dram_iso = cost.access_cost(HitLevel::Dram, Contention::Isolated);
        let pf_hit = cost.prefetch_cost(true, self.m_cont);
        let pf_miss = cost.prefetch_cost(false, self.m_cont);

        match self.mode {
            CaptureMode::Baseline => {
                let mut cycles = 0.0f64;
                for seg in self.baseline_segments() {
                    // Fresh accumulator per interval, folded in order —
                    // the live executor's exact summation structure. The
                    // epoch never advances: the live baseline never calls
                    // `begin_interval`.
                    let mut out_cycles = 0.0f64;
                    for e in &self.entries[seg] {
                        match *e {
                            Entry::Access { line, kind, phase } => {
                                let out = llc.access(line, kind, phase);
                                out_cycles += if out.hit { llc_hit } else { dram_live };
                            }
                            Entry::Compute { n } => out_cycles += cost.alu_cost(n),
                            Entry::Interval | Entry::MBegin | Entry::CBegin => {
                                unreachable!("marker inside a baseline segment")
                            }
                        }
                    }
                    cycles += out_cycles;
                }
                RunOutput::Baseline(BaselineRun {
                    cycles,
                    llc: llc.stats().clone(),
                })
            }
            CaptureMode::Prem => {
                let segments = self.prem_segments();
                // The capture stores one M round (the sink deduplicates the
                // fixed repetition); the live executor's round helper runs
                // it for `rounds` rounds over the mirror, so repeats hit or
                // miss per the *sibling's* trajectory and are credited
                // exactly where a live run of the sibling credits them.
                let strategy = PrefetchStrategy::Repeated { r: self.rounds };
                let mut sets = SetRounds::new(&llc);
                // Walk: per-interval (M-work, C-live, C-isolated, C DRAM
                // fills). The isolated accumulator reproduces the
                // profiling pass (identical trajectory, isolated DRAM
                // cost); the live accumulator reproduces the timed run.
                let mut per_iv = Vec::with_capacity(segments.len());
                let mut prefetch_hits = 0u64;
                let mut prefetch_misses = 0u64;
                for (m_range, c_range) in segments {
                    llc.begin_interval();
                    let footprint = self.entries[m_range].iter().map(|e| match *e {
                        Entry::Access {
                            line,
                            kind: AccessKind::Prefetch,
                            phase: Phase::MPhase,
                        } => line,
                        _ => unreachable!("an LLC M-phase captures prefetches only"),
                    });
                    let m = prefetch_rounds(
                        &mut llc,
                        footprint,
                        strategy,
                        (pf_hit, pf_miss),
                        0.0,
                        &mut sets,
                        &mut NullSink,
                    );
                    prefetch_hits += m.hits;
                    prefetch_misses += m.misses;
                    let m_work = m.work;
                    let mut c_live = 0.0f64;
                    let mut c_iso = 0.0f64;
                    let mut c_dram = 0u64;
                    for e in &self.entries[c_range] {
                        match *e {
                            Entry::Access { line, kind, phase } => {
                                let out = llc.access(line, kind, phase);
                                if out.hit {
                                    c_live += llc_hit;
                                    c_iso += llc_hit;
                                } else {
                                    c_dram += 1;
                                    c_live += dram_live;
                                    c_iso += dram_iso;
                                }
                            }
                            Entry::Compute { n } => {
                                let a = cost.alu_cost(n);
                                c_live += a;
                                c_iso += a;
                            }
                            Entry::Interval | Entry::MBegin | Entry::CBegin => {
                                unreachable!("marker inside a C-phase segment")
                            }
                        }
                    }
                    per_iv.push((m_work, c_live, c_iso, c_dram));
                }

                let mut m_wcet = 0.0f64;
                let mut c_wcet = 0.0f64;
                for &(m_work, _, c_iso, _) in &per_iv {
                    m_wcet = m_wcet.max(m_work);
                    c_wcet = c_wcet.max(c_iso);
                }
                let budgets = self.budget.compute(m_wcet, c_wcet, self.msg_cycles);

                let mut breakdown = Breakdown::default();
                let mut budget_violation = 0.0f64;
                let mut interval_timings = Vec::with_capacity(per_iv.len());
                let mut bus = BusWindow::default();
                for &(m_work, c_live, _, c_dram) in &per_iv {
                    let m_t = PhaseTiming::in_slot(m_work, self.msg_cycles);
                    let c_t = PhaseTiming::in_slot(c_live, self.msg_cycles);
                    bus.merge(&cost.dram.account_window(
                        c_t.elapsed(),
                        c_dram as f64 * cost.line_bytes as f64,
                        self.ledger_cont,
                    ));
                    breakdown.m_work += m_t.work;
                    breakdown.c_work += c_t.work;
                    breakdown.idle += m_t.idle + c_t.idle;
                    breakdown.sync += 2.0 * self.switch_cycles;
                    budget_violation +=
                        (m_work - budgets.m_cycles).max(0.0) + (c_live - budgets.c_cycles).max(0.0);
                    interval_timings.push((m_t, c_t));
                }

                let llc_stats = llc.stats().clone();
                let cpmr = llc_stats.cpmr();
                let budget_envelope_cycles = self.n_intervals as f64
                    * (budgets.interval_cycles() + 2.0 * self.switch_cycles);
                RunOutput::Prem(PremRun {
                    intervals: self.n_intervals,
                    makespan_cycles: breakdown.total(),
                    breakdown,
                    budget_envelope_cycles,
                    budgets,
                    llc: llc_stats,
                    cpmr,
                    prefetch_hits,
                    prefetch_misses,
                    // Fixed-repetition staging uses every round in every
                    // interval (a zero-interval run uses none).
                    max_rounds_used: if self.n_intervals == 0 {
                        0
                    } else {
                        self.rounds
                    },
                    budget_violation_cycles: budget_violation,
                    interval_timings,
                    bus,
                    // Eligible mixes have no cache-thrashing actors.
                    polluted_lines: 0,
                })
            }
        }
    }

    /// Splits a PREM capture into per-interval (M-entries, C-entries)
    /// ranges, following the `Interval, MBegin, …, CBegin, …` layout the
    /// executor emits.
    fn prem_segments(&self) -> Vec<(Range<usize>, Range<usize>)> {
        let mut segments = Vec::with_capacity(self.n_intervals);
        let mut i = 0;
        while i < self.entries.len() {
            assert!(matches!(self.entries[i], Entry::Interval), "capture layout");
            assert!(
                matches!(self.entries[i + 1], Entry::MBegin),
                "capture layout"
            );
            let m_start = i + 2;
            let mut j = m_start;
            while !matches!(self.entries[j], Entry::CBegin) {
                j += 1;
            }
            let c_start = j + 1;
            let mut k = c_start;
            while k < self.entries.len() && !matches!(self.entries[k], Entry::Interval) {
                k += 1;
            }
            segments.push((m_start..j, c_start..k));
            i = k;
        }
        assert_eq!(segments.len(), self.n_intervals, "capture layout");
        segments
    }

    /// Splits a baseline capture into per-interval entry ranges (segments
    /// between `Interval` markers).
    fn baseline_segments(&self) -> Vec<Range<usize>> {
        let mut segments = Vec::with_capacity(self.n_intervals);
        let mut i = 0;
        while i < self.entries.len() {
            assert!(matches!(self.entries[i], Entry::Interval), "capture layout");
            let start = i + 1;
            let mut j = start;
            while j < self.entries.len() && !matches!(self.entries[j], Entry::Interval) {
                j += 1;
            }
            segments.push(start..j);
            i = j;
        }
        assert_eq!(segments.len(), self.n_intervals, "capture layout");
        segments
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::CAccess;
    use crate::{execute_run, RunOptions};
    use prem_gpusim::CorunnerProfile;

    /// A plain live run's output.
    fn run_live(
        cfg: &PlatformConfig,
        ivs: &[IntervalSpec],
        work: RunWork,
        seed: u64,
        scenario: Scenario,
        noise: NoiseModel,
    ) -> RunOutput {
        execute_run(cfg, ivs, work, seed, scenario, noise, RunOptions::default())
            .unwrap()
            .output
    }

    /// A live run with capture on: its output and its capture.
    fn run_captured(
        cfg: &PlatformConfig,
        ivs: &[IntervalSpec],
        work: RunWork,
        seed: u64,
        scenario: Scenario,
        noise: NoiseModel,
    ) -> (RunOutput, RunCapture) {
        let opts = RunOptions {
            capture: true,
            ..RunOptions::default()
        };
        let run = execute_run(cfg, ivs, work, seed, scenario, noise, opts).unwrap();
        (run.output, run.capture.expect("capture requested"))
    }

    /// A toy kernel whose footprint overflows a small biased cache, so
    /// policy and seed actually change the trajectory.
    fn toy_intervals() -> Vec<IntervalSpec> {
        (0..6)
            .map(|i| {
                let lines: Vec<_> = (0..96u64).map(|j| LineAddr::new(i * 96 + j)).collect();
                let accesses = lines.iter().map(|&l| CAccess::read(l)).collect();
                IntervalSpec::new(lines, accesses, 256)
            })
            .collect()
    }

    fn small_platform(policy: Policy, seed: u64) -> PlatformConfig {
        let mut cfg = PlatformConfig::generic(32, 4, 64);
        cfg = cfg.llc_policy(policy).llc_seed(seed);
        cfg
    }

    /// A toy kernel whose footprints stay resident: three lines per set of
    /// the small cache, and every footprint repeated by the next interval,
    /// so prefetch rounds converge before `R` (the second interval of each
    /// pair can converge in its first round).
    fn converging_intervals() -> Vec<IntervalSpec> {
        toy_footprints(|i| (i / 2) * 192, 192)
    }

    /// A toy kernel whose footprints overflow the small cache: five lines
    /// per set of a four-way cache, so every prefetch round misses.
    fn overflowing_intervals() -> Vec<IntervalSpec> {
        toy_footprints(|i| i * 320, 320)
    }

    /// Six intervals; interval `i` stages and reads `len` contiguous lines
    /// from `start(i)`.
    fn toy_footprints(start: impl Fn(u64) -> u64, len: u64) -> Vec<IntervalSpec> {
        (0..6)
            .map(|i| {
                let lines: Vec<_> = (0..len).map(|j| LineAddr::new(start(i) + j)).collect();
                let accesses = lines.iter().map(|&l| CAccess::read(l)).collect();
                IntervalSpec::new(lines, accesses, 256)
            })
            .collect()
    }

    /// Every policy of the what-if axis (`MatrixPolicy::what_if_axis` in
    /// `prem-harness`, instantiated at four ways) times three seeds.
    fn sibling_axis() -> Vec<(Policy, u64)> {
        let policies = [
            Policy::nvidia_like(4),
            Policy::Lru,
            Policy::Fifo,
            Policy::PseudoLru,
            Policy::Nmru,
            Policy::Srrip,
            Policy::Random,
        ];
        let mut axis = Vec::new();
        for policy in policies {
            for seed in [11u64, 23, 47] {
                axis.push((policy.clone(), seed));
            }
        }
        axis
    }

    #[test]
    fn captured_output_is_bit_identical_to_uncaptured() {
        let cfg = small_platform(Policy::nvidia_like(4), 11);
        let ivs = toy_intervals();
        for work in [RunWork::PremLlc { r: 4 }, RunWork::Baseline] {
            let live = run_live(&cfg, &ivs, work, 11, Scenario::Isolation, NoiseModel::tx1());
            let (captured, _) =
                run_captured(&cfg, &ivs, work, 11, Scenario::Isolation, NoiseModel::tx1());
            assert_eq!(live, captured, "{work:?}: capture perturbed the run");
        }
    }

    #[test]
    fn replay_matches_live_for_every_policy_seed_sibling() {
        // Converging footprints take the zero-miss credit path (replay and
        // live both stop simulating rounds once one misses nothing);
        // overflowing ones simulate every round on both sides.
        let toys = [
            ("converging", converging_intervals()),
            ("overflowing", overflowing_intervals()),
        ];
        let works = [
            RunWork::PremLlc { r: 1 },
            RunWork::PremLlc { r: 2 },
            RunWork::PremLlc { r: 8 },
            RunWork::Baseline,
        ];
        for (toy, ivs) in &toys {
            let staged: u64 = ivs.iter().map(|iv| iv.footprint.len() as u64).sum();
            for work in works {
                for scenario in [Scenario::Isolation, Scenario::Interference] {
                    let rep_cfg = small_platform(Policy::nvidia_like(4), 11);
                    let (_, capture) =
                        run_captured(&rep_cfg, ivs, work, 11, scenario, NoiseModel::tx1());
                    for (policy, seed) in sibling_axis() {
                        let sib_cfg = small_platform(policy.clone(), seed);
                        let live = run_live(&sib_cfg, ivs, work, seed, scenario, NoiseModel::tx1());
                        let replayed = capture.replay_for(&sib_cfg, seed);
                        assert_eq!(
                            live, replayed,
                            "{toy} {work:?}/{scenario:?} sibling {policy:?} seed {seed} diverged"
                        );
                        // The toys exercise the branches they are named for.
                        if let (RunOutput::Prem(run), RunWork::PremLlc { r }) = (&replayed, work) {
                            if *toy == "overflowing" {
                                assert!(run.prefetch_misses >= ivs.len() as u64 * u64::from(r));
                            } else if policy == Policy::Lru {
                                assert!(run.prefetch_misses <= staged, "LRU converges in round 2");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn capture_replays_under_the_platforms_own_msg() {
        // The capture reads the MSG and switch cost from the platform it
        // runs on: with a non-default MSG, every sibling's replay still
        // equals its live run.
        let with_msg = |policy: Policy, seed| {
            let mut cfg = small_platform(policy, seed);
            cfg.cpu.sync.msg_us = 5.0;
            cfg
        };
        let ivs = toy_intervals();
        let work = RunWork::PremLlc { r: 4 };
        let noise = NoiseModel::tx1();
        let rep_cfg = with_msg(Policy::nvidia_like(4), 11);
        let (rep, capture) = run_captured(&rep_cfg, &ivs, work, 11, Scenario::Isolation, noise);
        let default_msg = small_platform(Policy::nvidia_like(4), 11);
        assert_ne!(
            rep,
            run_live(&default_msg, &ivs, work, 11, Scenario::Isolation, noise),
            "the MSG must shape this schedule"
        );
        for (policy, seed) in sibling_axis() {
            let sib_cfg = with_msg(policy.clone(), seed);
            let live = run_live(&sib_cfg, &ivs, work, seed, Scenario::Isolation, noise);
            assert_eq!(
                live,
                capture.replay_for(&sib_cfg, seed),
                "sibling {policy:?} seed {seed} diverged"
            );
        }
    }

    #[test]
    fn eligibility_rules() {
        let cfg = PlatformConfig::tx1();
        let llc = RunWork::PremLlc { r: 8 };
        assert!(replay_eligible(&cfg, llc, Scenario::Isolation));
        assert!(replay_eligible(&cfg, llc, Scenario::Interference));
        assert!(replay_eligible(
            &cfg,
            RunWork::Baseline,
            Scenario::Interference
        ));
        // SPM has no LLC what-if axis.
        assert!(!replay_eligible(
            &cfg,
            RunWork::PremSpm,
            Scenario::Isolation
        ));
        // Adaptive round counts follow the policy/seed.
        assert!(!replay_eligible(
            &cfg,
            RunWork::PremLlcUntilResident,
            Scenario::Isolation
        ));
        // Pollution volume depends on budgets, budgets on policy/seed.
        let thrash = cfg
            .clone()
            .with_corunners(vec![CorunnerProfile::CacheThrash]);
        assert!(!replay_eligible(&thrash, llc, Scenario::Corunners));
        // Time-varying demand breaks the constant-contention fast path.
        let bursty = cfg.clone().with_corunners(vec![CorunnerProfile::Bursty {
            duty: 0.5,
            period_cycles: 10_000.0,
        }]);
        assert!(!replay_eligible(&bursty, llc, Scenario::Corunners));
        // The same mixes are eligible when the scenario never activates them.
        assert!(replay_eligible(&thrash, llc, Scenario::Isolation));
    }

    #[test]
    #[should_panic(expected = "beyond the LLC policy/seed axes")]
    fn replay_for_rejects_foreign_configs() {
        let ivs = toy_intervals();
        let cfg = small_platform(Policy::Lru, 11);
        let (_, capture) = run_captured(
            &cfg,
            &ivs,
            RunWork::PremLlc { r: 2 },
            11,
            Scenario::Isolation,
            NoiseModel::off(),
        );
        // Same family axes, different geometry: must be refused.
        let foreign = PlatformConfig::generic(64, 4, 64);
        capture.replay_for(&foreign, 11);
    }

    #[test]
    #[should_panic(expected = "not replay-eligible")]
    fn capture_rejects_ineligible_work() {
        let ivs = toy_intervals();
        let cfg = PlatformConfig::tx1();
        let _ = run_captured(
            &cfg,
            &ivs,
            RunWork::PremSpm,
            11,
            Scenario::Isolation,
            NoiseModel::off(),
        );
    }
}
