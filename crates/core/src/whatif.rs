//! Replay-backed what-if execution: capture one live run, derive its
//! policy, seed and scenario siblings by walking and pricing.
//!
//! PR 4 established the enabling property: under a fixed prefetch
//! repetition the LLC's *input op sequence* does not depend on the LLC
//! replacement policy or seed — those axes only change which accesses hit.
//! The plan layer exploits this as a **derivation relation**: replay-
//! eligible requests that differ only in LLC policy, seed and contention
//! scenario form a family, one representative executes live with a
//! capturing sink (`WhatIfSink`) recording the access sequence and the
//! hit bit of every C-phase or baseline access, and every sibling's full
//! [`RunOutput`] is derived in two steps:
//!
//! * **walk** ([`RunCapture::walk`]) — the captured sequence is fed to a
//!   mirror cache carrying a sibling's policy/seed. The result is a
//!   [`Trajectory`]: per-interval M-phase work, one hit bit per captured
//!   C-phase or baseline access, each interval's C-phase cycles and DRAM
//!   fills at isolated contention, the `CacheStats` and the prefetch
//!   counts. It depends only on the LLC policy and, for a policy that
//!   draws from the RNG, the seed; the representative's own trajectory
//!   comes with its capture ([`RunCapture::trajectory`]), so its class
//!   needs no walk;
//! * **price** ([`RunCapture::price`]) — pure arithmetic: a member's
//!   output is rebuilt from a trajectory under the member's own constant
//!   contention and bus-ledger contention; an isolated member reuses the
//!   isolated sums, any other re-adds the hit bits under its own costs.
//!
//! [`RunCapture::replay_for`] is one walk plus one price; the plan layer
//! walks each trajectory class of a family at most once and prices every
//! member of the class from it.
//!
//! ## Why derived outputs are bit-identical to live ones
//!
//! * **Cache trajectory** — the mirror is a real [`Cache`] built from the
//!   sibling's configuration and fed the exact captured access sequence,
//!   so hits, misses, evictions and `CacheStats` are the live cache's by
//!   construction (the property `prem-trace`'s replay suite pins).
//! * **The trajectory does not depend on contention** — eligible mixes
//!   never pollute the LLC, and contention only prices an access; no
//!   cache decision reads the schedule clock. The M-phase runs with the
//!   DRAM token held, i.e. isolated under every mix, so its per-round
//!   work is part of the trajectory too.
//! * **Cycle arithmetic** — floating-point accumulation is not
//!   associative, so pricing mirrors the executor's accumulator structure
//!   exactly: per-op adds into a fresh accumulator per C-phase (or
//!   baseline interval), in issue order, intervals folded in order.
//!   Per-op costs come from the captured [`CostModel`] under the
//!   member's contention, i.e. the same pure functions the live executor
//!   charges. M-rounds go through the live executor's own round
//!   helper: a round walks only the lines whose LLC set missed in the
//!   round before and credits the rest as hits (per op, in issue order),
//!   and every round after one that missed nothing is credited whole.
//! * **Budgets** — the profiling pass and the timed run reset and reseed
//!   identically and feed identical op sequences, so their cache
//!   trajectories coincide; one trajectory therefore yields both the
//!   isolated-contention phase times that budgets derive from and the
//!   member's live-contention phase times (hit costs are
//!   contention-independent; only DRAM costs differ).
//! * **Bus ledger** — each member accounts its C-phase slots against its
//!   own scenario's mean contention.
//!
//! Eligibility ([`replay_eligible`]) is exactly the set of runs where the
//! op-sequence invariance holds: LLC-staged PREM with a fixed repetition
//! and baseline work (SPM staging has no LLC what-if axis, and adaptive
//! prefetching stops after a policy/seed-dependent number of rounds), no
//! L1, and a co-runner mix whose contention is constant and which never
//! pollutes the LLC (pollution volume depends on budgets, which depend on
//! policy/seed, and pollution would change the trajectory itself).

use std::ops::Range;

use prem_gpusim::{CostModel, ExecError, InterferenceEngine, PlatformConfig, Scenario};
use prem_memsim::{
    AccessKind, AccessOutcome, BusWindow, Cache, CacheStats, Contention, HitLevel, LineAddr,
    NullSink, Phase, Policy, TraceSink,
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

/// Whether a run is replay-derivable across the LLC policy, seed and
/// scenario axes.
///
/// True exactly when the LLC's input op sequence and its trajectory are
/// invariant in those axes up to what the trajectory records: LLC-PREM
/// with a fixed repetition or baseline work, no L1 in front of the LLC,
/// and a co-runner mix under `scenario` that is time-invariant (constant
/// contention, so pricing is per-op arithmetic) and never pollutes the
/// LLC (so contention changes what a miss costs, never which accesses
/// miss). Every eligible scenario of a request can be derived from a
/// capture of any other.
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

/// One captured event of the LLC input sequence, in execution order,
/// packed into one word so a capture costs 8 bytes per event: the top two
/// bits tag a cache access by kind (read, write, prefetch) or a compute
/// op, the rest hold the access's line or the op's instruction count. An
/// access's phase is not stored: an interval's M-phase entries are
/// prefetches, its C-phase entries run in the C-phase and a baseline's
/// demand stream runs unphased.
#[derive(Copy, Clone, Debug)]
struct Entry(u64);

/// An unpacked [`Entry`].
enum Event {
    /// One cache access, as the live run issued it.
    Access(LineAddr, AccessKind),
    /// `n` warp arithmetic instructions charged between accesses.
    Compute(u64),
}

impl Entry {
    const PAYLOAD_BITS: u32 = 62;
    const COMPUTE: u64 = 3;

    fn pack(tag: u64, payload: u64) -> Self {
        assert!(
            payload >> Self::PAYLOAD_BITS == 0,
            "captured line or instruction count exceeds 62 bits"
        );
        Entry(tag << Self::PAYLOAD_BITS | payload)
    }

    fn access(line: LineAddr, kind: AccessKind) -> Self {
        let tag = match kind {
            AccessKind::Read => 0,
            AccessKind::Write => 1,
            AccessKind::Prefetch => 2,
        };
        Self::pack(tag, line.raw())
    }

    fn compute(n: u64) -> Self {
        Self::pack(Self::COMPUTE, n)
    }

    fn event(self) -> Event {
        let payload = self.0 & ((1 << Self::PAYLOAD_BITS) - 1);
        let kind = match self.0 >> Self::PAYLOAD_BITS {
            0 => AccessKind::Read,
            1 => AccessKind::Write,
            2 => AccessKind::Prefetch,
            _ => return Event::Compute(payload),
        };
        Event::Access(LineAddr::new(payload), kind)
    }
}

/// The capturing sink: records the policy/seed-invariant input sequence,
/// where each interval's M-phase and C-phase begin, and the hit bit of
/// every C-phase or baseline access — the representative's own
/// trajectory.
///
/// Opts into deduplicated M-round delivery: a fixed repetition issues one
/// identical pass per round, so recording every round would store the
/// same entries `r` times. The executor delivers round 1 only;
/// [`RunCapture::walk`] walks the recorded round [`RunCapture::rounds`]
/// times to reproduce the full sequence, crediting settled sets and
/// rounds exactly as the live executor does.
#[derive(Debug, Default)]
struct WhatIfSink {
    entries: Vec<Entry>,
    /// Per interval: the entry index its M-phase (or baseline demand
    /// stream) starts at, and the one its C-phase starts at.
    marks: Vec<(usize, usize)>,
    /// Hit bit per C-phase or baseline access, in issue order.
    hits: Vec<bool>,
}

impl TraceSink for WhatIfSink {
    const DEDUP_M_ROUNDS: bool = true;

    fn on_access(&mut self, line: LineAddr, kind: AccessKind, phase: Phase, out: &AccessOutcome) {
        self.entries.push(Entry::access(line, kind));
        if phase != Phase::MPhase {
            self.hits.push(out.hit);
        }
    }

    fn on_interval(&mut self) {
        let at = self.entries.len();
        self.marks.push((at, at));
    }

    fn on_phase(&mut self, phase: Phase, _cycles: f64) {
        // An interval's M-phase starts at its interval mark; the baseline
        // emits no phases, so its demand stream is one C-range.
        if phase == Phase::CPhase {
            let at = self.entries.len();
            self.marks
                .last_mut()
                .expect("C-phase outside an interval")
                .1 = at;
        }
    }

    fn on_compute(&mut self, n: u64) {
        self.entries.push(Entry::compute(n));
    }
}

/// What one LLC policy and seed make of a capture's input sequence:
/// everything a derived run needs except the cost of contention.
///
/// Produced by [`RunCapture::walk`] (or recorded live, for the
/// representative: [`RunCapture::trajectory`]) and consumed by
/// [`RunCapture::price`].
#[derive(Clone, Debug, PartialEq)]
pub struct Trajectory {
    /// The LLC policy walked.
    policy: Policy,
    /// The run seed walked, when the policy draws from the RNG (a
    /// deterministic policy's victim choices cannot depend on the seed,
    /// see [`Policy::seed_sensitive`]).
    seed: Option<u64>,
    /// Per-interval M-phase work (PREM captures; empty for baseline). The
    /// M-phase runs token-held, so its work is contention-independent.
    m_work: Vec<f64>,
    /// Per-interval C-phase (or baseline interval) cycles at isolated
    /// contention — what the profiling pass measures, and every isolated
    /// member's live cost — and DRAM fills.
    c_iso: Vec<f64>,
    c_dram: Vec<u64>,
    /// One hit bit per captured C-phase or baseline access, in issue
    /// order: what a member under contention is priced from.
    hits: Vec<bool>,
    llc: CacheStats,
    prefetch_hits: u64,
    prefetch_misses: u64,
}

impl Trajectory {
    /// An empty trajectory of the class `(policy, seed)`.
    fn of_class(policy: &Policy, seed: u64) -> Self {
        Trajectory {
            policy: policy.clone(),
            seed: policy.seed_sensitive().then_some(seed),
            m_work: Vec::new(),
            c_iso: Vec::new(),
            c_dram: Vec::new(),
            hits: Vec::new(),
            llc: CacheStats::default(),
            prefetch_hits: 0,
            prefetch_misses: 0,
        }
    }

    /// Whether this is the trajectory of a run on `cfg`'s LLC policy with
    /// run seed `seed` — its trajectory class: the policy, plus the seed
    /// when the policy draws from the RNG.
    pub fn serves(&self, cfg: &PlatformConfig, seed: u64) -> bool {
        *cfg.llc.policy_ref() == self.policy && self.seed.is_none_or(|s| s == seed)
    }
}

/// The (hit, miss) cost of one C-phase or baseline access under
/// `contention`: the same pure cost-model functions the live executor
/// charges.
fn access_costs(cost: &CostModel, contention: Contention) -> (f64, f64) {
    (
        cost.access_cost(HitLevel::Llc, contention),
        cost.access_cost(HitLevel::Dram, contention),
    )
}

/// Prices one captured C-phase (or baseline interval) stream: each access
/// costs `hit_cost` or `miss_cost` as `hit` decides, each compute op its
/// ALU cost, added per op in issue order into one fresh accumulator — the
/// executor's summation structure. Returns the cycles and DRAM fills.
fn price_stream(
    entries: &[Entry],
    cost: &CostModel,
    (hit_cost, miss_cost): (f64, f64),
    mut hit: impl FnMut(LineAddr, AccessKind) -> bool,
) -> (f64, u64) {
    let mut cycles = 0.0f64;
    let mut dram = 0u64;
    for e in entries {
        match e.event() {
            Event::Access(line, kind) => {
                if hit(line, kind) {
                    cycles += hit_cost;
                } else {
                    cycles += miss_cost;
                    dram += 1;
                }
            }
            Event::Compute(n) => cycles += cost.alu_cost(n),
        }
    }
    (cycles, dram)
}

/// A captured live run: everything needed to rebuild the [`RunOutput`] of
/// any policy/seed/scenario sibling without re-executing the simulator.
///
/// Produced by [`execute_run`](crate::execute_run) with
/// [`RunOptions::capture`](crate::RunOptions::capture) set, consumed by
/// [`RunCapture::walk`] and [`RunCapture::price`].
#[derive(Clone, Debug)]
pub struct RunCapture {
    work: RunWork,
    /// The representative's platform config with the derivation axes
    /// stripped ([`strip_derivation_axes`]) — what every sibling must
    /// equal, and the source of geometry and cost constants.
    base_cfg: PlatformConfig,
    entries: Vec<Entry>,
    /// Per interval: its M-phase entries (PREM only; empty for baseline)
    /// and its C-phase (or baseline demand) entries.
    segments: Vec<(Range<usize>, Range<usize>)>,
    /// Fixed M-phase prefetch rounds per interval (PREM only).
    rounds: u32,
    msg_cycles: f64,
    switch_cycles: f64,
    budget: BudgetPolicy,
    /// The representative's own trajectory, recorded during its live run.
    own: Trajectory,
}

/// [`execute_run`](crate::execute_run) with capture on: executes the run
/// live through the capturing sink and packages the recorded sequence and
/// trajectory as a [`RunCapture`]. The output and WCETs are bit-identical
/// to an uncaptured run with the same profile source; replay-eligible
/// mixes are always fusion-eligible (both require constant contention and
/// no polluters), so a self-profiling representative pays one walk.
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
    let mut own = Trajectory::of_class(platform_cfg.llc.policy_ref(), seed);

    let (output, wcets, rounds, budget) = match work.prem_config(seed, noise) {
        Some(cfg) => {
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
            own.m_work = run.interval_timings.iter().map(|(m, _)| m.work).collect();
            own.llc = run.llc.clone();
            own.prefetch_hits = run.prefetch_hits;
            own.prefetch_misses = run.prefetch_misses;
            (RunOutput::Prem(run), Some(wcets), rounds, cfg.budget)
        }
        None => {
            let run =
                run_baseline_traced(&mut platform, intervals, seed, scenario, noise, &mut sink)?;
            own.llc = run.llc.clone();
            (RunOutput::Baseline(run), None, 0, BudgetPolicy::fair())
        }
    };

    let ends = sink
        .marks
        .iter()
        .skip(1)
        .map(|m| m.0)
        .chain([sink.entries.len()]);
    let segments: Vec<_> = sink
        .marks
        .iter()
        .zip(ends)
        .map(|(&(m_start, c_start), end)| (m_start..c_start, c_start..end))
        .collect();
    assert_eq!(segments.len(), intervals.len(), "capture layout");
    // The recorded hit bits priced at isolated contention: the same
    // per-interval sums a walk of this class accumulates.
    let iso = access_costs(&platform_cfg.cost, Contention::Isolated);
    let mut hits = sink.hits.iter().copied();
    for (_, c_range) in &segments {
        let (c_iso, c_dram) = price_stream(
            &sink.entries[c_range.clone()],
            &platform_cfg.cost,
            iso,
            |_, _| hits.next().expect("one hit bit per captured access"),
        );
        own.c_iso.push(c_iso);
        own.c_dram.push(c_dram);
    }
    own.hits = sink.hits;

    let capture = RunCapture {
        work,
        base_cfg: strip_derivation_axes(platform_cfg),
        entries: sink.entries,
        segments,
        rounds,
        msg_cycles: platform.us_to_cycles(platform.cpu.sync.msg_us),
        switch_cycles: platform.us_to_cycles(platform.cpu.sync.switch_cost_us()),
        budget,
        own,
    };
    Ok(Executed {
        output,
        wcets,
        capture: Some(capture),
    })
}

/// Strips the derivation axes off a platform config: LLC policy and seed
/// are forced to fixed canonical values and the co-runner list is
/// emptied, so two configs compare equal exactly when they agree on
/// everything a derivation preserves.
fn strip_derivation_axes(cfg: &PlatformConfig) -> PlatformConfig {
    let mut stripped = cfg.clone();
    stripped.llc = stripped.llc.policy(Policy::Lru).seed(0);
    stripped.cpu.corunners.clear();
    stripped
}

impl RunCapture {
    /// The representative's own trajectory, recorded during its live run:
    /// every member of its class prices from it without a walk.
    pub fn trajectory(&self) -> &Trajectory {
        &self.own
    }

    /// Walks the captured sequence through a mirror cache under the LLC
    /// policy of `cfg`, reseeded with run seed `seed` exactly as the live
    /// run reseeds after the cold build, and prices each C-phase at
    /// isolated contention on the way. The result serves every member of
    /// that trajectory class, whatever its scenario.
    ///
    /// # Panics
    ///
    /// Panics when `cfg` differs from the captured representative's config
    /// anywhere other than the LLC policy, seed and co-runner list — the
    /// caller grouped requests into a family whose members are not
    /// actually derivable from each other.
    pub fn walk(&self, cfg: &PlatformConfig, seed: u64) -> Trajectory {
        self.check_config(cfg);
        let mut llc = Cache::new(cfg.llc.clone());
        llc.reseed(seed);
        let mut trajectory = Trajectory::of_class(cfg.llc.policy_ref(), seed);
        trajectory.hits.reserve(self.own.hits.len());
        let prem = self.work != RunWork::Baseline;
        let c_phase = if prem { Phase::CPhase } else { Phase::Unphased };
        let cost = &self.base_cfg.cost;
        let iso = access_costs(cost, Contention::Isolated);
        let m_cont = self.base_cfg.cpu.m_phase_contention();
        let pf_cost = (
            cost.prefetch_cost(true, m_cont),
            cost.prefetch_cost(false, m_cont),
        );
        // The capture stores one M round (the sink deduplicates the fixed
        // repetition); the live executor's round helper runs it for
        // `rounds` rounds over the mirror, so repeats hit or miss per the
        // *sibling's* trajectory and are credited exactly where a live run
        // of the sibling credits them.
        let strategy = PrefetchStrategy::Repeated { r: self.rounds };
        let mut sets = SetRounds::new(&llc);
        for (m_range, c_range) in &self.segments {
            if prem {
                // The live baseline never calls `begin_interval`.
                llc.begin_interval();
                let footprint = self.entries[m_range.clone()]
                    .iter()
                    .map(|e| match e.event() {
                        Event::Access(line, AccessKind::Prefetch) => line,
                        _ => unreachable!("an LLC M-phase captures prefetches only"),
                    });
                let m = prefetch_rounds(
                    &mut llc,
                    footprint,
                    strategy,
                    pf_cost,
                    0.0,
                    &mut sets,
                    &mut NullSink,
                );
                trajectory.m_work.push(m.work);
                trajectory.prefetch_hits += m.hits;
                trajectory.prefetch_misses += m.misses;
            }
            let (c_iso, c_dram) =
                price_stream(&self.entries[c_range.clone()], cost, iso, |line, kind| {
                    let hit = llc.access(line, kind, c_phase).hit;
                    trajectory.hits.push(hit);
                    hit
                });
            trajectory.c_iso.push(c_iso);
            trajectory.c_dram.push(c_dram);
        }
        trajectory.llc = llc.stats().clone();
        trajectory
    }

    /// Prices `trajectory` as the member resolving to `cfg` with run seed
    /// `seed` under `scenario`: rebuilds the member's [`RunOutput`], and
    /// the `(m_wcet, c_wcet)` its budgets derive from (`None` for
    /// baseline work), under the member's own constant contention and
    /// bus-ledger contention. Pure arithmetic — the one place a derived
    /// output is assembled: an isolated member reuses the trajectory's
    /// isolated sums, any other walks the hit bits once.
    ///
    /// The result is bit-identical to executing the member live — the
    /// contract the plan layer's equivalence suite proves.
    ///
    /// # Panics
    ///
    /// Panics when `cfg` differs from the representative's config beyond
    /// the LLC policy, seed and co-runner list, when the member is not
    /// [`replay_eligible`] under `scenario`, or when `trajectory` was
    /// walked for another trajectory class.
    pub fn price(
        &self,
        trajectory: &Trajectory,
        cfg: &PlatformConfig,
        seed: u64,
        scenario: Scenario,
    ) -> Executed {
        self.check_config(cfg);
        assert!(
            replay_eligible(cfg, self.work, scenario),
            "price: the sibling's scenario is not replay-eligible"
        );
        assert!(
            trajectory.serves(cfg, seed),
            "price: the trajectory was walked for another LLC policy/seed class"
        );
        let engine = InterferenceEngine::new(cfg.cpu.active_corunners(scenario), seed);
        let c_cont = engine
            .static_contention()
            .expect("eligible mixes have constant contention");
        let ledger_cont = engine.mean_contention();

        let cost = &self.base_cfg.cost;
        let live = access_costs(cost, c_cont);
        // Per-interval live C cycles. With isolated per-op costs they are
        // the isolated sums bit for bit (same costs, same order);
        // otherwise the hit bits are priced again under the member's
        // contention.
        let priced: Vec<f64>;
        let c_live = if live == access_costs(cost, Contention::Isolated) {
            &trajectory.c_iso
        } else {
            let mut hits = trajectory.hits.iter().copied();
            priced = self
                .segments
                .iter()
                .map(|(_, c_range)| {
                    price_stream(&self.entries[c_range.clone()], cost, live, |_, _| {
                        hits.next().expect("one hit bit per captured access")
                    })
                    .0
                })
                .collect();
            &priced
        };

        if self.work == RunWork::Baseline {
            // The baseline's interval costs fold in order into its cycles.
            let mut cycles = 0.0f64;
            for &c in c_live {
                cycles += c;
            }
            return Executed {
                output: RunOutput::Baseline(BaselineRun {
                    cycles,
                    llc: trajectory.llc.clone(),
                }),
                wcets: None,
                capture: None,
            };
        }

        let mut m_wcet = 0.0f64;
        let mut c_wcet = 0.0f64;
        for (&m_work, &c_iso) in trajectory.m_work.iter().zip(&trajectory.c_iso) {
            m_wcet = m_wcet.max(m_work);
            c_wcet = c_wcet.max(c_iso);
        }
        let budgets = self.budget.compute(m_wcet, c_wcet, self.msg_cycles);

        let mut breakdown = Breakdown::default();
        let mut budget_violation = 0.0f64;
        let mut interval_timings = Vec::with_capacity(c_live.len());
        let mut bus = BusWindow::default();
        for ((&m_work, &c_live), &c_dram) in
            trajectory.m_work.iter().zip(c_live).zip(&trajectory.c_dram)
        {
            let m_t = PhaseTiming::in_slot(m_work, self.msg_cycles);
            let c_t = PhaseTiming::in_slot(c_live, self.msg_cycles);
            bus.merge(&cost.dram.account_window(
                c_t.elapsed(),
                c_dram as f64 * cost.line_bytes as f64,
                ledger_cont,
            ));
            breakdown.m_work += m_t.work;
            breakdown.c_work += c_t.work;
            breakdown.idle += m_t.idle + c_t.idle;
            breakdown.sync += 2.0 * self.switch_cycles;
            budget_violation +=
                (m_work - budgets.m_cycles).max(0.0) + (c_live - budgets.c_cycles).max(0.0);
            interval_timings.push((m_t, c_t));
        }

        let n_intervals = self.segments.len();
        let llc = trajectory.llc.clone();
        let cpmr = llc.cpmr();
        let budget_envelope_cycles =
            n_intervals as f64 * (budgets.interval_cycles() + 2.0 * self.switch_cycles);
        Executed {
            output: RunOutput::Prem(PremRun {
                intervals: n_intervals,
                makespan_cycles: breakdown.total(),
                breakdown,
                budget_envelope_cycles,
                budgets,
                llc,
                cpmr,
                prefetch_hits: trajectory.prefetch_hits,
                prefetch_misses: trajectory.prefetch_misses,
                // Fixed-repetition staging uses every round in every
                // interval (a zero-interval run uses none).
                max_rounds_used: if n_intervals == 0 { 0 } else { self.rounds },
                budget_violation_cycles: budget_violation,
                interval_timings,
                bus,
                // Eligible mixes have no cache-thrashing actors.
                polluted_lines: 0,
            }),
            wcets: Some((m_wcet, c_wcet)),
            capture: None,
        }
    }

    /// Derives the full [`RunOutput`] of the sibling resolving to `cfg`
    /// with run seed `seed` under `scenario`: one [`RunCapture::walk`]
    /// and one [`RunCapture::price`].
    ///
    /// # Panics
    ///
    /// As [`RunCapture::walk`] and [`RunCapture::price`].
    pub fn replay_for(&self, cfg: &PlatformConfig, seed: u64, scenario: Scenario) -> RunOutput {
        self.price(&self.walk(cfg, seed), cfg, seed, scenario)
            .output
    }

    /// Refuses a sibling config that differs from the representative's
    /// beyond the derivation axes.
    fn check_config(&self, cfg: &PlatformConfig) {
        assert!(
            strip_derivation_axes(cfg) == self.base_cfg,
            "sibling config differs from the captured representative beyond \
             the LLC policy, seed and co-runner axes"
        );
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

    /// The eligible scenarios a sibling may run under, each with the
    /// co-runner list its platform resolves with: the two presets and two
    /// constant-contention mixes.
    fn eligible_scenarios() -> Vec<(&'static str, Scenario, Vec<CorunnerProfile>)> {
        vec![
            ("isolation", Scenario::Isolation, vec![]),
            ("interference", Scenario::Interference, vec![]),
            (
                "2xmembomb",
                Scenario::Corunners,
                vec![CorunnerProfile::Membomb; 2],
            ),
            (
                "3xstream",
                Scenario::Corunners,
                vec![CorunnerProfile::Stream; 3],
            ),
        ]
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
    fn every_eligible_capture_prices_every_sibling_like_live() {
        // Converging footprints take the zero-miss credit path (walk and
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
        let noise = NoiseModel::tx1();
        for (toy, ivs) in &toys {
            let staged: u64 = ivs.iter().map(|iv| iv.footprint.len() as u64).sum();
            for work in works {
                // The representative is captured under every eligible
                // scenario: a contended capture records its own
                // trajectory (hit bits, isolated C sums, M work) from a
                // contended live run, and must record the same one an
                // isolated capture does — the one a walk of its class
                // reproduces.
                let rep_cfg = small_platform(Policy::nvidia_like(4), 11);
                let captures: Vec<(&str, RunCapture)> = eligible_scenarios()
                    .into_iter()
                    .map(|(name, scenario, corunners)| {
                        let rep_member = rep_cfg.clone().with_corunners(corunners);
                        let (_, capture) =
                            run_captured(&rep_member, ivs, work, 11, scenario, noise);
                        assert_eq!(
                            capture.trajectory(),
                            &capture.walk(&rep_member, 11),
                            "{toy} {work:?}: the {name} capture's own trajectory"
                        );
                        (name, capture)
                    })
                    .collect();
                for (_, capture) in &captures[1..] {
                    assert_eq!(capture.trajectory(), captures[0].1.trajectory());
                }
                for (policy, seed) in sibling_axis() {
                    let sib_cfg = small_platform(policy.clone(), seed);
                    // One walk per capture and sibling class, priced under
                    // every scenario; the representative's class is priced
                    // from the capture itself.
                    let own = policy == Policy::nvidia_like(4) && seed == 11;
                    let walked: Vec<Trajectory> = captures
                        .iter()
                        .map(|(_, capture)| {
                            assert_eq!(capture.trajectory().serves(&sib_cfg, seed), own);
                            capture.walk(&sib_cfg, seed)
                        })
                        .collect();
                    for (name, scenario, corunners) in eligible_scenarios() {
                        let member = sib_cfg.clone().with_corunners(corunners);
                        let live = run_live(&member, ivs, work, seed, scenario, noise);
                        let profiled = crate::profile_run(&member, ivs, work, seed, noise).unwrap();
                        for ((captured, capture), walked) in captures.iter().zip(&walked) {
                            let trajectory = if own { capture.trajectory() } else { walked };
                            let priced = capture.price(trajectory, &member, seed, scenario);
                            assert_eq!(
                                live, priced.output,
                                "{toy} {work:?}/{name} sibling {policy:?} seed {seed} \
                                 diverged from the {captured} capture"
                            );
                            assert_eq!(
                                priced.wcets, profiled,
                                "{toy} {work:?}/{name} wcets from the {captured} capture"
                            );
                            if name == "interference" {
                                assert_eq!(capture.replay_for(&member, seed, scenario), live);
                            }
                        }
                        // The toys exercise the branches they are named for.
                        if let (RunOutput::Prem(run), RunWork::PremLlc { r }) = (&live, work) {
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
                capture.replay_for(&sib_cfg, seed, Scenario::Isolation),
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

    /// An Isolation capture of the toy kernel and the sibling config
    /// carrying `corunners`, for the refusal cases.
    fn refusal_case(corunners: Vec<CorunnerProfile>) -> (RunCapture, PlatformConfig) {
        let cfg = small_platform(Policy::Lru, 11);
        let (_, capture) = run_captured(
            &cfg,
            &toy_intervals(),
            RunWork::PremLlc { r: 2 },
            11,
            Scenario::Isolation,
            NoiseModel::off(),
        );
        (capture, cfg.with_corunners(corunners))
    }

    #[test]
    #[should_panic(expected = "scenario is not replay-eligible")]
    fn price_rejects_a_bursty_sibling() {
        let (capture, bursty) = refusal_case(vec![CorunnerProfile::Bursty {
            duty: 0.5,
            period_cycles: 10_000.0,
        }]);
        capture.replay_for(&bursty, 11, Scenario::Corunners);
    }

    #[test]
    #[should_panic(expected = "scenario is not replay-eligible")]
    fn price_rejects_a_cache_thrash_sibling() {
        let (capture, thrash) = refusal_case(vec![CorunnerProfile::CacheThrash]);
        capture.price(capture.trajectory(), &thrash, 11, Scenario::Corunners);
    }

    #[test]
    #[should_panic(expected = "beyond the LLC policy, seed and co-runner axes")]
    fn walk_rejects_a_foreign_geometry() {
        let (capture, _) = refusal_case(vec![]);
        // Same derivation axes, different geometry: must be refused.
        let foreign = PlatformConfig::generic(64, 4, 64);
        capture.walk(&foreign, 11);
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
