//! The PREM executor: profiles a tiled kernel, budgets its phases, and runs
//! the budgeted schedule under a contention scenario.
//!
//! This is the runtime the paper describes: per interval, an M-phase stages
//! the footprint under the exclusive DRAM token (repeating prefetches per
//! the [`PrefetchStrategy`](crate::PrefetchStrategy)), then a C-phase
//! computes while the CPU owns DRAM. Phase slots are sized by a
//! [`BudgetPolicy`] from profiled worst-case phase times (floored at the
//! MSG), idling when work finishes early (paper Fig 1 (d)) and overrunning
//! when interference makes C-phase misses slower than budgeted.

use prem_gpusim::{
    CostModel, ExecError, InterferenceEngine, Op, OpStream, Platform, Scenario, SmExecutor,
};
use prem_memsim::{
    AccessKind, BusWindow, Cache, CacheStats, Contention, LineAddr, NullSink, Phase, TraceSink,
};

use crate::budget::{BudgetPolicy, Budgets};
use crate::interval::IntervalSpec;
use crate::local_store::{demand_ops, LocalStore, PrefetchStrategy};
use crate::metrics::Breakdown;
use crate::sync::PhaseTiming;

/// Unmanaged background traffic during compute phases.
///
/// Real GPU kernels touch cached data the PREM compiler does not manage:
/// kernel parameters, stack spills, index structures. These lines are
/// churned out of the cache by M-phase staging and refetched during the
/// C-phase, putting a floor under the CPMR and — crucially — generating the
/// *fills during the compute phase* that make bad-way residency dangerous
/// (paper §IV). `PremConfig` defaults to no noise (pure PREM theory); the
/// experiment harness enables the TX1-calibrated level.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct NoiseModel {
    /// Size of the unmanaged working set, in lines (0 disables noise).
    pub lines: u32,
    /// One unmanaged access is injected every `every` kernel memory
    /// accesses (0 disables noise).
    pub every: u32,
}

impl NoiseModel {
    /// No unmanaged traffic (pure PREM model).
    pub fn off() -> Self {
        NoiseModel { lines: 0, every: 0 }
    }

    /// TX1-calibrated unmanaged traffic: an 8 KiB working set touched once
    /// every 32 kernel accesses.
    pub fn tx1() -> Self {
        NoiseModel {
            lines: 64,
            every: 32,
        }
    }

    /// Whether noise is enabled.
    pub fn enabled(&self) -> bool {
        self.lines > 0 && self.every > 0
    }
}

impl Default for NoiseModel {
    fn default() -> Self {
        NoiseModel::off()
    }
}

/// Address region of the unmanaged working set: far above any kernel data
/// laid out by `prem-kernels` (which starts at 0x1000_0000).
const NOISE_BASE_LINE: u64 = 0x0F00_0000;

/// Emits interval `iv`'s compute-phase ops under `store` — its
/// unprotected baseline stream when `store` is `None` — with one
/// unmanaged read injected after every `noise.every` memory ops, cycling
/// through the noise working set. `counter` persists across phases so the
/// rotation is continuous. The one definition of what a C-phase issues:
/// the live executor runs it ([`demand_stream`]) and
/// [`CompiledRun::compile`](crate::CompiledRun::compile) packs it.
pub(crate) fn noisy_demand_ops(
    store: Option<&LocalStore>,
    iv: &IntervalSpec,
    noise: NoiseModel,
    counter: &mut u64,
    mut emit: impl FnMut(Op),
) {
    let mut since = 0u32;
    let push = |op: Op| {
        emit(op);
        if noise.enabled() && !matches!(op, Op::Alu(_) | Op::TranslAddr(_)) {
            since += 1;
            if since >= noise.every {
                since = 0;
                let line = NOISE_BASE_LINE + (*counter % noise.lines as u64);
                *counter += 1;
                emit(Op::CachedLoad(LineAddr::new(line)));
            }
        }
    };
    match store {
        Some(store) => store.c_phase_ops(iv, push),
        None => demand_ops(iv, push),
    }
}

/// [`noisy_demand_ops`] collected into the stream the live executor runs.
fn demand_stream(
    store: Option<&LocalStore>,
    iv: &IntervalSpec,
    noise: NoiseModel,
    counter: &mut u64,
) -> OpStream {
    let mut stream = OpStream::with_capacity(2 * iv.c_accesses.len() + 2);
    noisy_demand_ops(store, iv, noise, counter, |op| {
        stream.push(op);
    });
    stream
}

/// Full configuration of a PREM execution.
#[derive(Clone, Debug, PartialEq)]
pub struct PremConfig {
    /// Local-store strategy (SPM or LLC + prefetch strategy).
    pub store: LocalStore,
    /// Budgeting policy.
    pub budget: BudgetPolicy,
    /// Seed for the platform's randomized components.
    pub seed: u64,
    /// Unmanaged compute-phase traffic (defaults to off).
    pub noise: NoiseModel,
}

impl PremConfig {
    /// The paper's proposed configuration: LLC with `R = 8`, fair
    /// co-scheduling.
    pub fn llc_tamed() -> Self {
        PremConfig {
            store: LocalStore::llc_tamed(),
            budget: BudgetPolicy::fair(),
            seed: 1,
            noise: NoiseModel::off(),
        }
    }

    /// The SPM-based state of the art (HePREM-like).
    pub fn spm() -> Self {
        PremConfig {
            store: LocalStore::spm_default(),
            budget: BudgetPolicy::fair(),
            seed: 1,
            noise: NoiseModel::off(),
        }
    }

    /// Replaces the local store.
    pub fn with_store(mut self, store: LocalStore) -> Self {
        self.store = store;
        self
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the unmanaged-traffic model.
    pub fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }
}

/// Result of one PREM schedule execution.
#[derive(Clone, Debug, PartialEq)]
pub struct PremRun {
    /// Number of intervals executed.
    pub intervals: usize,
    /// Makespan breakdown (cycles).
    pub breakdown: Breakdown,
    /// Total schedule length (cycles).
    pub makespan_cycles: f64,
    /// Static guarantee: the budgeted schedule envelope (cycles) the
    /// schedulability analysis would use.
    pub budget_envelope_cycles: f64,
    /// The per-interval budgets used.
    pub budgets: Budgets,
    /// LLC statistics over the timed run.
    pub llc: CacheStats,
    /// Compute-phase miss ratio over the timed run.
    pub cpmr: f64,
    /// Prefetches that hit across all M-phase rounds.
    pub prefetch_hits: u64,
    /// Prefetches that missed (performed fills).
    pub prefetch_misses: u64,
    /// Largest number of M-phase prefetch rounds any interval used.
    pub max_rounds_used: u32,
    /// Cycles of phase work exceeding the static budgets — non-zero when
    /// interference pushes C-phases past their schedulability envelope.
    pub budget_violation_cycles: f64,
    /// Per-interval (M-phase, C-phase) work in cycles, in execution order —
    /// the raw material of paper Fig 1: each phase's slot follows from its
    /// work and the MSG ([`PhaseTiming::in_slot`]), so the timeline
    /// renderer places it there.
    pub interval_work: Vec<(f64, f64)>,
    /// Shared-bus ledger over the C-phase slots: how many bytes the GPU
    /// moved and how many the co-runner actors absorbed while the token
    /// was released. All zeros in isolation.
    pub bus: BusWindow,
    /// LLC lines injected by cache-thrashing co-runners over the run.
    pub polluted_lines: u64,
}

/// Result of an unprotected baseline execution.
#[derive(Clone, Debug, PartialEq)]
pub struct BaselineRun {
    /// Execution time (cycles).
    pub cycles: f64,
    /// LLC statistics.
    pub llc: CacheStats,
}

/// Executes `intervals` under PREM on `platform`: [`run_prem_traced`]
/// without instrumentation, profiling its own phases.
///
/// The platform is cold-reset and reseeded before every pass, so results
/// are deterministic in `cfg.seed`.
///
/// # Errors
///
/// [`ExecError::Spm`] when the SPM strategy is used with intervals whose
/// footprint exceeds the scratchpad capacity.
pub fn run_prem(
    platform: &mut Platform,
    intervals: &[IntervalSpec],
    cfg: &PremConfig,
    scenario: Scenario,
) -> Result<PremRun, ExecError> {
    run_prem_traced(platform, intervals, cfg, scenario, None, &mut NullSink).map(|(run, _)| run)
}

/// The PREM executor: runs the budgeted schedule under `scenario`,
/// returning the run and the `(m_wcet, c_wcet)` pair its budgets derive
/// from.
///
/// **Where the WCETs come from.** PREM budgets each phase from its
/// worst-case work measured in isolation, and a run gets that pair in one
/// of three ways:
///
/// - *handed in* as `profiled`: the pair [`profile_phases`] reports for
///   the same platform config (up to the co-runner list), intervals,
///   store/prefetch mode, seed and noise model. The plan layer passes the
///   WCETs of the run's isolated trajectory
///   ([`CompiledRun::walk`](crate::CompiledRun::walk)), which equal the
///   pass bit for bit; stale values from any other request compute
///   garbage budgets;
/// - *the run itself*, when its co-runner mix is idle
///   ([`InterferenceEngine::is_idle`]: no bus demand, no LLC polluter).
///   The run is then its own isolated profiling pass: nothing consumes a
///   budget before the loop ends, so each phase's per-interval maximum is
///   its WCET and the budgets are derived after the loop;
/// - *an isolated run first*, under any other mix: [`profile_phases`],
///   which is this executor under [`Scenario::Isolation`].
///
/// Every pass cold-resets and reseeds the platform, so the three sources
/// give bit-identical runs.
///
/// **Instrumentation.** The timed run (never a separate profiling pass)
/// reports every LLC access outcome, co-runner pollution fill, interval
/// boundary, phase transition and direct DRAM transfer to `sink`, with
/// op-issue timestamps on the global schedule clock. With [`NullSink`]
/// this monomorphizes to exactly [`run_prem`] — the contract the golden
/// suite pins. Capture starts after the cold reset that precedes the
/// timed run, so a recorded trace replayed against an equally cold cache
/// (same geometry, policy and `cfg.seed`) reproduces the run's
/// [`CacheStats`] field-for-field — the `prem-trace` replay engine's
/// validation property.
///
/// # Errors
///
/// [`ExecError::Spm`] exactly as for [`run_prem`].
pub fn run_prem_traced<S: TraceSink>(
    platform: &mut Platform,
    intervals: &[IntervalSpec],
    cfg: &PremConfig,
    scenario: Scenario,
    profiled: Option<(f64, f64)>,
    sink: &mut S,
) -> Result<(PremRun, (f64, f64)), ExecError> {
    let msg_cycles = platform.us_to_cycles(platform.cpu.sync.msg_us);
    let switch_cycles = platform.us_to_cycles(platform.cpu.sync.switch_cost_us());

    let mut engine = InterferenceEngine::new(platform.cpu.active_corunners(scenario), cfg.seed);
    // An idle mix makes this run its own profiling pass; any other one
    // needs an isolated run first.
    let profiled = match profiled {
        None if !engine.is_idle() => Some(profile_phases(platform, intervals, cfg)?),
        given => given,
    };
    let known_budgets = profiled.map(|(m, c)| cfg.budget.compute(m, c, msg_cycles));

    // Timed run under the requested scenario. The co-runner mix becomes a
    // set of live actors: bus contention per C-phase op is derived from
    // the demand the mix generates at that op's schedule time, and
    // cache-thrashing actors pollute the LLC during every token-released
    // window.
    platform.reset();
    platform.reseed(cfg.seed);
    let m_cont = platform.cpu.m_phase_contention();
    let ledger_cont = engine.mean_contention();

    let mut prefetch_hits = 0;
    let mut prefetch_misses = 0;
    let mut max_rounds_used = 0;
    let mut noise_counter = 0u64;
    // Per-interval (M work, C cycles, C DRAM fills): the run is folded
    // from these after the loop, once budgets are known.
    let mut per_iv = Vec::with_capacity(intervals.len());
    // Observed WCETs, what a run under an idle mix profiles: per-interval
    // maxima accumulated in interval order.
    let mut m_wcet_obs = 0.0f64;
    let mut c_wcet_obs = 0.0f64;
    let mut rounds = Rounds::new(platform.mem.llc());
    // Global schedule clock: what bursty co-runners' duty windows are
    // phased against.
    let mut now = 0.0f64;

    for iv in intervals {
        sink.on_interval();
        platform.mem.begin_interval();

        // --- M-phase (token held: every co-runner's DRAM traffic is
        // blocked, so the phase runs isolated and unpolluted) ---
        now += switch_cycles;
        sink.on_phase(Phase::MPhase, now);
        let m = run_m_phase(platform, iv, &cfg.store, m_cont, now, &mut rounds, sink)?;
        prefetch_hits += m.hits;
        prefetch_misses += m.misses;
        max_rounds_used = max_rounds_used.max(m.rounds);
        m_wcet_obs = m_wcet_obs.max(m.work);
        now += PhaseTiming::in_slot(m.work, msg_cycles).elapsed() + switch_cycles;

        // --- C-phase (token released: co-runners contend on the bus and
        // thrashers pollute the LLC for the whole static C slot) ---
        sink.on_phase(Phase::CPhase, now);
        // A self-profiling run has no polluters (its mix is idle), so the
        // zero window is a no-op; otherwise the real C budget bounds the
        // pollution slot.
        let pollute_window = known_budgets.as_ref().map_or(0.0, |b| b.c_cycles);
        engine.pollute_traced(platform.mem.llc_mut(), pollute_window, sink);
        let c_stream = demand_stream(Some(&cfg.store), iv, cfg.noise, &mut noise_counter);
        let c_out = SmExecutor::new(&mut platform.mem, &platform.cost).run_under_traced(
            &c_stream,
            Phase::CPhase,
            &engine,
            now,
            sink,
        )?;
        c_wcet_obs = c_wcet_obs.max(c_out.cycles);
        // Eager token release with the MSG floor: the slot ends at
        // max(work, MSG).
        now += PhaseTiming::in_slot(c_out.cycles, msg_cycles).elapsed();
        per_iv.push((m.work, c_out.cycles, c_out.levels.dram));
    }

    let wcets = profiled.unwrap_or((m_wcet_obs, c_wcet_obs));
    let budgets = known_budgets.unwrap_or_else(|| cfg.budget.compute(wcets.0, wcets.1, msg_cycles));
    let counters = RunCounters {
        llc: platform.mem.llc().stats().clone(),
        prefetch_hits,
        prefetch_misses,
        max_rounds_used,
        polluted_lines: engine.polluted_lines(),
    };
    let slots = SlotCosts {
        msg_cycles,
        switch_cycles,
        ledger_cont,
    };
    let run = prem_run(per_iv, budgets, &slots, &platform.cost, counters);
    Ok((run, wcets))
}

/// A PREM run's counters outside its schedule: what [`prem_run`] copies
/// into the [`PremRun`] as given.
pub(crate) struct RunCounters {
    pub(crate) llc: CacheStats,
    pub(crate) prefetch_hits: u64,
    pub(crate) prefetch_misses: u64,
    pub(crate) max_rounds_used: u32,
    pub(crate) polluted_lines: u64,
}

/// The platform's slot costs: the MSG that floors every phase slot, the
/// token-switch cost paid on each side of a phase, and the contention the
/// C-phase bus ledger is accounted under.
pub(crate) struct SlotCosts {
    pub(crate) msg_cycles: f64,
    pub(crate) switch_cycles: f64,
    pub(crate) ledger_cont: Contention,
}

/// The one PREM run assembly, shared by the live executor
/// ([`run_prem_traced`]) and pricing
/// ([`CompiledRun::price`](crate::CompiledRun::price)), so a priced run
/// is bit-identical to a live one by construction. Folds each interval's
/// (M work, C cycles, C DRAM fills), in interval order, through its slot
/// timings (eager release with the MSG floor, paper Fig 1 (d)) into the
/// makespan breakdown, the C-phase bus ledger and the budget violation
/// (work beyond a static budget is a diagnostic; budgets remain the
/// guarantee), keeps the (M, C) work pair, then adds the static envelope.
pub(crate) fn prem_run(
    per_interval: impl IntoIterator<Item = (f64, f64, u64)>,
    budgets: Budgets,
    slots: &SlotCosts,
    cost: &CostModel,
    counters: RunCounters,
) -> PremRun {
    let per_interval = per_interval.into_iter();
    let mut interval_work = Vec::with_capacity(per_interval.size_hint().0);
    let mut breakdown = Breakdown::default();
    let mut budget_violation = 0.0f64;
    let mut bus = BusWindow::default();
    for (m_work, c_cycles, c_dram) in per_interval {
        let m_t = PhaseTiming::in_slot(m_work, slots.msg_cycles);
        let c_t = PhaseTiming::in_slot(c_cycles, slots.msg_cycles);
        bus.merge(&cost.dram.account_window(
            c_t.elapsed(),
            c_dram as f64 * cost.line_bytes as f64,
            slots.ledger_cont,
        ));
        breakdown.m_work += m_work;
        breakdown.c_work += c_cycles;
        breakdown.idle += m_t.idle + c_t.idle;
        breakdown.sync += 2.0 * slots.switch_cycles;
        budget_violation +=
            (m_work - budgets.m_cycles).max(0.0) + (c_cycles - budgets.c_cycles).max(0.0);
        interval_work.push((m_work, c_cycles));
    }
    let intervals = interval_work.len();
    let cpmr = counters.llc.cpmr();
    PremRun {
        intervals,
        makespan_cycles: breakdown.total(),
        breakdown,
        budget_envelope_cycles: intervals as f64
            * (budgets.interval_cycles() + 2.0 * slots.switch_cycles),
        budgets,
        llc: counters.llc,
        cpmr,
        prefetch_hits: counters.prefetch_hits,
        prefetch_misses: counters.prefetch_misses,
        max_rounds_used: counters.max_rounds_used,
        budget_violation_cycles: budget_violation,
        interval_work,
        bus,
        polluted_lines: counters.polluted_lines,
    }
}

/// Executes the unprotected baseline: the same demand accesses with no
/// phases, no staging and no protection. The same unmanaged-traffic model
/// used for PREM runs is injected for a fair comparison.
///
/// # Errors
///
/// Currently infallible in practice (no SPM ops are emitted), but kept
/// fallible for signature symmetry with [`run_prem`].
pub fn run_baseline(
    platform: &mut Platform,
    intervals: &[IntervalSpec],
    seed: u64,
    scenario: Scenario,
    noise: NoiseModel,
) -> Result<BaselineRun, ExecError> {
    // An unprotected kernel is exposed to the whole mix the whole time:
    // bus contention on every access, and LLC pollution applied *before*
    // each interval runs, over the window that interval occupies —
    // thrash traffic concurrent with interval i must be visible to
    // interval i, not lag into i+1 (and a single-interval kernel must not
    // escape pollution entirely). The windows are the interval times of
    // the baseline under an idle mix, playing the same role the static C
    // budgets play on the PREM path.
    let mut engine = InterferenceEngine::new(platform.cpu.active_corunners(scenario), seed);
    let windows = if engine.has_polluters() {
        let mut idle = InterferenceEngine::new(&[], seed);
        baseline_intervals(platform, intervals, seed, noise, &mut idle, &[])?
    } else {
        Vec::new()
    };
    let per_iv = baseline_intervals(platform, intervals, seed, noise, &mut engine, &windows)?;
    Ok(BaselineRun {
        cycles: per_iv.iter().fold(0.0, |total, cycles| total + cycles),
        llc: platform.mem.llc().stats().clone(),
    })
}

/// The baseline's interval loop: cold-resets and reseeds `platform`, then
/// runs each interval's demand stream under `engine` from the running
/// schedule time, polluting the LLC over `windows[i]` before interval `i`
/// when a window is given. Returns each interval's cycles, in order.
fn baseline_intervals(
    platform: &mut Platform,
    intervals: &[IntervalSpec],
    seed: u64,
    noise: NoiseModel,
    engine: &mut InterferenceEngine,
    windows: &[f64],
) -> Result<Vec<f64>, ExecError> {
    platform.reset();
    platform.reseed(seed);
    let mut cycles = 0.0;
    let mut noise_counter = 0u64;
    let mut per_iv = Vec::with_capacity(intervals.len());
    for (i, iv) in intervals.iter().enumerate() {
        if let Some(&window) = windows.get(i) {
            engine.pollute(platform.mem.llc_mut(), window);
        }
        let stream = demand_stream(None, iv, noise, &mut noise_counter);
        let out = SmExecutor::new(&mut platform.mem, &platform.cost).run_under(
            &stream,
            Phase::Unphased,
            engine,
            cycles,
        )?;
        cycles += out.cycles;
        per_iv.push(out.cycles);
    }
    Ok(per_iv)
}

/// The isolated profiling pass: the worst-case (M, C) phase work of
/// `intervals`, measured by running them under [`Scenario::Isolation`],
/// the paper's profiling discipline.
///
/// It is [`run_prem_traced`] under an idle mix, keeping only the WCETs:
/// deterministic in (platform config, intervals, store/prefetch mode,
/// `cfg.seed`, `cfg.noise`), since the run cold-resets and reseeds the
/// platform, and independent of any run's scenario. Feed the result back
/// through [`run_prem_traced`] for any scenario sibling and the output is
/// bit-identical to profiling inline. It is the reference the WCETs of a
/// compiled run's isolated walk are checked against.
///
/// # Errors
///
/// [`ExecError::Spm`] when the SPM strategy is used with intervals whose
/// footprint exceeds the scratchpad capacity.
pub fn profile_phases(
    platform: &mut Platform,
    intervals: &[IntervalSpec],
    cfg: &PremConfig,
) -> Result<(f64, f64), ExecError> {
    run_prem_traced(
        platform,
        intervals,
        cfg,
        Scenario::Isolation,
        None,
        &mut NullSink,
    )
    .map(|(_, wcets)| wcets)
}

/// What one interval's M-phase did: its work (cycles), its prefetch
/// outcomes, the prefetches [`prefetch_rounds`] simulated (the rest it
/// credited as hits without touching the cache) and the rounds it used.
#[derive(Debug, Default)]
pub(crate) struct Staged {
    pub(crate) work: f64,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
    pub(crate) walked: u64,
    pub(crate) rounds: u32,
}

/// Round bookkeeping for [`prefetch_rounds`], allocated once per run or
/// walk and reused by every interval and round of it.
pub(crate) struct Rounds {
    /// Whether the LLC policy ignores hits
    /// ([`Policy::hit_oblivious`](prem_memsim::Policy::hit_oblivious)):
    /// the event loop's condition on the cache side.
    oblivious: bool,
    ways: usize,
    /// Per-set loop: `missed[s]` is the stamp of the last round in which
    /// set `s` missed. Every round takes a fresh, larger stamp, so nothing
    /// is ever cleared between rounds or intervals.
    missed: Vec<u32>,
    stamp: u32,
    /// Event loop: per LLC slot, one plus the footprint position the slot
    /// last served in the current interval (0: none). Cleared per
    /// interval.
    served: Vec<u32>,
    /// Event loop: the footprint positions due in this round and in the
    /// next one, one bit each.
    now: Vec<u64>,
    next: Vec<u64>,
}

impl Rounds {
    pub(crate) fn new(llc: &Cache) -> Self {
        let cfg = llc.config();
        Rounds {
            oblivious: cfg.policy_ref().hit_oblivious(),
            ways: cfg.ways(),
            missed: vec![0; cfg.sets()],
            stamp: 0,
            served: vec![0; cfg.sets() * cfg.ways()],
            now: Vec::new(),
            next: Vec::new(),
        }
    }

    /// Whether the rounds after the first run event-driven under
    /// `strategy`.
    fn events(&self, strategy: PrefetchStrategy) -> bool {
        self.oblivious && strategy.max_rounds() > 1
    }

    /// Position `p` was just served from LLC slot `slot`, and a miss there
    /// displaced whatever the slot served before: an earlier footprint
    /// line of this interval is due again, later in this round when it
    /// lies ahead of `p` and in the next round when it lies behind.
    #[inline(always)]
    fn serve(&mut self, slot: usize, p: usize, missed: bool) {
        if missed {
            if let Some(q) = (self.served[slot] as usize).checked_sub(1) {
                let due = if q > p { &mut self.now } else { &mut self.next };
                due[q / 64] |= 1 << (q % 64);
            }
        }
        self.served[slot] = p as u32 + 1;
    }
}

/// One prefetch round's outcome.
#[derive(Default)]
struct Round {
    cycles: f64,
    hits: u64,
    misses: u64,
    walked: u64,
}

impl Round {
    /// Adds one prefetch's outcome and cost, in issue order.
    #[inline(always)]
    fn tally(&mut self, hit: bool, (pf_hit, pf_miss): (f64, f64)) {
        if hit {
            self.hits += 1;
            self.cycles += pf_hit;
        } else {
            self.misses += 1;
            self.cycles += pf_miss;
        }
    }
}

/// Stages footprint `lines` into `llc` by prefetch rounds per
/// `strategy`, simulating only what a round can change — the one round
/// loop of the live executor and
/// [`CompiledRun::walk`](crate::CompiledRun::walk).
///
/// `lines` lists no line twice: every footprint is an
/// [`IntervalSpec::footprint`], which keeps each line once by
/// construction. Round 1 walks every line and reports it to `sink`
/// (op-issue timestamps from `start`, as the executor emits them). Later
/// rounds run unobserved and simulate only accesses that can miss; every
/// other prefetch is credited as a hit. They take one of two loops.
///
/// **Event loop** — when the policy ignores hits
/// ([`Policy::hit_oblivious`](prem_memsim::Policy::hit_oblivious):
/// random, biased-random, FIFO). Each LLC slot records the footprint
/// position it last served in this interval. A miss that displaces a
/// recorded line makes that line's position due: later in the same round
/// when it lies ahead, in the next round when it lies behind. Only due
/// positions are accessed, in issue order. Every footprint line is
/// resident from its round-1 issue on until a miss displaces it, and
/// every miss is one of these accesses, so a due position is exactly a
/// line that is gone when it issues: everything else is a hit. Skipping
/// a hit of an oblivious policy changes no later fill, eviction or RNG
/// draw, so the accesses that are made see today's cache.
///
/// **Per-set loop** — every other policy. A line is walked
/// only when its LLC set missed in the round before. If set `s` had no
/// miss in round `k`, nothing was filled into or evicted from it during
/// that round, so it still holds every footprint line it maps, and round
/// `k + 1` over `s` is a pure hit pass: the same way sequence, all hits.
/// Repeating that pass changes no state any policy reads later. Random,
/// biased-random and FIFO ignore hits. Replaying an all-hit way sequence
/// leaves LRU's relative stamp order, PLRU's tree bits, NMRU's MRU way
/// and SRRIP's RRPVs as the same sequence left them in round `k`; only
/// the replacer's clock differs, and no victim choice reads an absolute
/// stamp. Misses happen only in walked sets, in issue order, so victim
/// draws consume the RNG in the same order.
///
/// Both loops add a credited line's hit cost in its issue position, so
/// the round's cycle sum is the walked sum bit for bit, and settle its
/// hit through [`Cache::credit_repeated_hits`]. A fixed repetition whose
/// round missed nothing at all credits every remaining round whole.
///
/// Callers uphold the gates: the footprint is staged into the LLC, and no
/// sink observes rounds after the first. The adaptive strategy stops on
/// the miss count alone, which crediting preserves.
pub(crate) fn prefetch_rounds<S: TraceSink>(
    llc: &mut Cache,
    lines: &[LineAddr],
    strategy: PrefetchStrategy,
    costs: (f64, f64),
    start: f64,
    rounds: &mut Rounds,
    sink: &mut S,
) -> Staged {
    let events = rounds.events(strategy);
    if events {
        let words = lines.len().div_ceil(64);
        if rounds.next.len() < words {
            rounds.now.resize(words, 0);
            rounds.next.resize(words, 0);
        }
        // Rounds swap the two sets, so either one may still hold an
        // earlier interval's positions.
        rounds.now[..words].fill(0);
        rounds.next[..words].fill(0);
        rounds.served.fill(0);
    }
    let max_rounds = strategy.max_rounds();
    let mut staged = Staged::default();
    while staged.rounds < max_rounds {
        let round = if staged.rounds == 0 {
            first_round(llc, lines, events, costs, start, rounds, sink)
        } else if events {
            event_round(llc, lines, costs, rounds)
        } else {
            set_round(llc, lines, costs, rounds)
        };
        let credited = round.hits + round.misses - round.walked;
        llc.credit_repeated_hits(Phase::MPhase, credited);
        staged.work += round.cycles;
        staged.hits += round.hits;
        staged.misses += round.misses;
        staged.walked += round.walked;
        staged.rounds += 1;
        if strategy.adaptive() {
            if staged.rounds > 1 && round.misses == 0 {
                break;
            }
        } else if round.misses == 0 {
            // Every set is settled: each remaining round is this same
            // all-hit pass, credited with the same repeated adds.
            let remaining = max_rounds - staged.rounds;
            for _ in 0..remaining {
                staged.work += round.cycles;
                staged.hits += round.hits;
            }
            llc.credit_repeated_hits(Phase::MPhase, u64::from(remaining) * round.hits);
            staged.rounds = max_rounds;
        }
    }
    staged
}

/// Round 1 of either loop: walks every line in issue order, reports it
/// to `sink`, and records what the later rounds of its loop read — the
/// position each slot served (`events`) or the sets that missed.
#[inline(always)]
fn first_round<S: TraceSink>(
    llc: &mut Cache,
    lines: &[LineAddr],
    events: bool,
    costs: (f64, f64),
    start: f64,
    rounds: &mut Rounds,
    sink: &mut S,
) -> Round {
    rounds.stamp += 1;
    let mut round = Round::default();
    for (p, &line) in lines.iter().enumerate() {
        sink.on_op_issue(start + round.cycles);
        let out = llc.access_traced(line, AccessKind::Prefetch, Phase::MPhase, sink);
        let set = llc.set_of(line);
        if events {
            rounds.serve(set * rounds.ways + out.way, p, !out.hit);
        } else if !out.hit {
            rounds.missed[set] = rounds.stamp;
        }
        round.tally(out.hit, costs);
    }
    round.walked = lines.len() as u64;
    round
}

/// A round of the per-set loop: walks the lines whose set missed in the
/// round before, in issue order, and credits every other one as a hit.
#[inline(always)]
fn set_round(llc: &mut Cache, lines: &[LineAddr], costs: (f64, f64), rounds: &mut Rounds) -> Round {
    let prev = rounds.stamp;
    rounds.stamp += 1;
    let mut round = Round::default();
    for &line in lines {
        let set = llc.set_of(line);
        // Missed in the previous round (a miss earlier in this round may
        // already have restamped it to the current one).
        let hit = if rounds.missed[set] >= prev {
            round.walked += 1;
            llc.access(line, AccessKind::Prefetch, Phase::MPhase).hit
        } else {
            true
        };
        if !hit {
            rounds.missed[set] = rounds.stamp;
        }
        round.tally(hit, costs);
    }
    round
}

/// A round of the event loop: accesses exactly the due positions, in
/// issue order, and prices every other one as a hit in its place.
#[inline(always)]
fn event_round(
    llc: &mut Cache,
    lines: &[LineAddr],
    costs: (f64, f64),
    rounds: &mut Rounds,
) -> Round {
    // The round before drained `now`, so `next` starts this one empty.
    std::mem::swap(&mut rounds.now, &mut rounds.next);
    let mut round = Round::default();
    // The first position not priced yet.
    let mut priced = 0;
    let mut word = 0;
    while word < lines.len().div_ceil(64) {
        // Re-read on every pass: a miss may make a position ahead due.
        let bits = rounds.now[word];
        if bits == 0 {
            word += 1;
            continue;
        }
        rounds.now[word] = bits & (bits - 1);
        let p = word * 64 + bits.trailing_zeros() as usize;
        for _ in priced..p {
            round.cycles += costs.0;
        }
        let line = lines[p];
        let out = llc.access(line, AccessKind::Prefetch, Phase::MPhase);
        round.walked += 1;
        rounds.serve(llc.set_of(line) * rounds.ways + out.way, p, !out.hit);
        round.tally(out.hit, costs);
        priced = p + 1;
    }
    for _ in priced..lines.len() {
        round.cycles += costs.0;
    }
    round.hits = lines.len() as u64 - round.misses;
    round
}

/// One interval's M-phase under `store`, starting at schedule time
/// `start`: [`prefetch_rounds`] when its gates hold, otherwise every
/// round walked through the SM executor (SPM staging, or a sink that
/// records every round).
fn run_m_phase<S: TraceSink>(
    platform: &mut Platform,
    iv: &IntervalSpec,
    store: &LocalStore,
    m_cont: Contention,
    start: f64,
    rounds: &mut Rounds,
    sink: &mut S,
) -> Result<Staged, ExecError> {
    let strategy = match store {
        LocalStore::Llc { prefetch } => *prefetch,
        LocalStore::Spm { .. } => PrefetchStrategy::Repeated { r: 1 },
    };
    if matches!(store, LocalStore::Llc { .. }) && !S::RECORDS {
        let cost = (
            platform.cost.prefetch_cost(true, m_cont),
            platform.cost.prefetch_cost(false, m_cont),
        );
        let llc = platform.mem.llc_mut();
        return Ok(prefetch_rounds(
            llc,
            iv.footprint(),
            strategy,
            cost,
            start,
            rounds,
            sink,
        ));
    }
    let m_pass = store.m_phase_pass(iv);
    let mut staged = Staged::default();
    while staged.rounds < strategy.max_rounds() {
        let mut ex = SmExecutor::new(&mut platform.mem, &platform.cost);
        let out = ex.run_traced(&m_pass, Phase::MPhase, m_cont, start + staged.work, sink)?;
        staged.work += out.cycles;
        staged.hits += out.prefetch_hits;
        staged.misses += out.prefetch_misses;
        staged.rounds += 1;
        if strategy.adaptive() && staged.rounds > 1 && out.prefetch_misses == 0 {
            break;
        }
    }
    Ok(staged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::{CAccess, IntervalSpec};
    use prem_gpusim::PlatformConfig;
    use prem_memsim::LineAddr;

    /// A toy kernel: 4 intervals of 64 lines each, streamed.
    fn toy_intervals() -> Vec<IntervalSpec> {
        (0..4)
            .map(|i| {
                let lines: Vec<_> = (0..64u64).map(|j| LineAddr::new(i * 64 + j)).collect();
                let accesses = lines.iter().map(|&l| CAccess::read(l)).collect();
                IntervalSpec::new(lines, accesses, 128)
            })
            .collect()
    }

    #[test]
    fn prem_llc_runs_and_balances() {
        let mut p = PlatformConfig::tx1().build();
        let run = run_prem(
            &mut p,
            &toy_intervals(),
            &PremConfig::llc_tamed(),
            Scenario::Isolation,
        )
        .unwrap();
        assert_eq!(run.intervals, 4);
        assert!(run.makespan_cycles > 0.0);
        // In isolation, the measured schedule fits inside the envelope.
        assert!(run.makespan_cycles <= run.budget_envelope_cycles + 1e-6);
        // Budgets floored at the MSG (40 us at 1 GHz).
        assert!(run.budgets.m_cycles >= 40_000.0);
        assert_eq!(run.budget_violation_cycles, 0.0);
    }

    #[test]
    fn prem_spm_runs_within_capacity() {
        let mut p = PlatformConfig::tx1().build();
        let run = run_prem(
            &mut p,
            &toy_intervals(),
            &PremConfig::spm(),
            Scenario::Isolation,
        )
        .unwrap();
        // SPM C-phases never miss in the LLC; all misses are M-phase DMA.
        assert_eq!(run.llc.c_phase.misses, 0);
        assert_eq!(run.cpmr, 0.0);
    }

    #[test]
    fn spm_over_capacity_is_error() {
        let mut p = PlatformConfig::tx1().build();
        // One interval with a footprint of 1024 lines = 128 KiB > 96 KiB.
        let lines: Vec<_> = (0..1024u64).map(LineAddr::new).collect();
        let iv = IntervalSpec::new(lines, vec![], 0);
        let err = run_prem(&mut p, &[iv], &PremConfig::spm(), Scenario::Isolation);
        assert!(err.is_err());
    }

    #[test]
    fn interference_never_speeds_up_prem() {
        let mut p = PlatformConfig::tx1().build();
        let iso = run_prem(
            &mut p,
            &toy_intervals(),
            &PremConfig::llc_tamed(),
            Scenario::Isolation,
        )
        .unwrap();
        let inf = run_prem(
            &mut p,
            &toy_intervals(),
            &PremConfig::llc_tamed(),
            Scenario::Interference,
        )
        .unwrap();
        assert!(inf.makespan_cycles >= iso.makespan_cycles - 1e-6);
    }

    #[test]
    fn baseline_is_slower_under_interference() {
        let mut p = PlatformConfig::tx1().build();
        let noise = NoiseModel::off();
        let iso = run_baseline(&mut p, &toy_intervals(), 1, Scenario::Isolation, noise).unwrap();
        let inf = run_baseline(&mut p, &toy_intervals(), 1, Scenario::Interference, noise).unwrap();
        assert!(inf.cycles > iso.cycles);
    }

    #[test]
    fn noise_injection_adds_unmanaged_reads() {
        let iv = &toy_intervals()[0];
        let stream = demand_stream(None, iv, NoiseModel::off(), &mut 0);
        let noise = NoiseModel {
            lines: 8,
            every: 16,
        };
        let mut counter = 0;
        let noisy = demand_stream(None, iv, noise, &mut counter);
        assert_eq!(
            noisy.counts().cached_loads,
            stream.counts().cached_loads + 4
        );
        assert_eq!(counter, 4);
        // Noise lines rotate within the configured working set.
        let mut counter2 = 8;
        let again = demand_stream(None, iv, noise, &mut counter2);
        assert_eq!(again.counts().cached_loads, noisy.counts().cached_loads);
    }

    #[test]
    fn noise_off_is_identity() {
        let iv = &toy_intervals()[0];
        let mut counter = 0;
        let same = demand_stream(None, iv, NoiseModel::off(), &mut counter);
        let mut demand = OpStream::new();
        demand_ops(iv, |op| {
            demand.push(op);
        });
        assert_eq!(same, demand);
        let store = LocalStore::spm_default();
        let same = demand_stream(Some(&store), iv, NoiseModel::off(), &mut counter);
        assert_eq!(same, store.c_phase(iv));
        assert_eq!(counter, 0);
    }

    #[test]
    fn noise_creates_cpmr_floor() {
        let mut p = PlatformConfig::tx1().build();
        let cfg = PremConfig::llc_tamed().with_noise(NoiseModel::tx1());
        let run = run_prem(&mut p, &toy_intervals(), &cfg, Scenario::Isolation).unwrap();
        assert!(run.cpmr > 0.0, "noise should produce some C-phase misses");
        let clean = run_prem(
            &mut p,
            &toy_intervals(),
            &PremConfig::llc_tamed(),
            Scenario::Isolation,
        )
        .unwrap();
        assert!(clean.cpmr <= run.cpmr);
    }

    #[test]
    fn deterministic_in_seed() {
        let mut p = PlatformConfig::tx1().build();
        let cfg = PremConfig::llc_tamed().with_seed(99);
        let a = run_prem(&mut p, &toy_intervals(), &cfg, Scenario::Isolation).unwrap();
        let b = run_prem(&mut p, &toy_intervals(), &cfg, Scenario::Isolation).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn repeated_prefetch_reduces_cpmr_on_toy() {
        // Make the toy footprint exceed one interval's worth of sets so
        // evictions happen: use a small biased cache.
        use prem_memsim::{CacheConfig, Policy};
        let mut cfg = PlatformConfig::tx1();
        cfg.llc = CacheConfig::new(64 * 128, 4, 128).policy(Policy::nvidia_tegra());
        let intervals: Vec<IntervalSpec> = (0..8)
            .map(|i| {
                let lines: Vec<_> = (0..48u64).map(|j| LineAddr::new(i * 48 + j)).collect();
                let acc = lines.iter().map(|&l| CAccess::read(l)).collect();
                IntervalSpec::new(lines, acc, 0)
            })
            .collect();

        let mut p = cfg.build();
        let naive = run_prem(
            &mut p,
            &intervals,
            &PremConfig::llc_tamed().with_store(LocalStore::llc_naive()),
            Scenario::Isolation,
        )
        .unwrap();
        let tamed = run_prem(
            &mut p,
            &intervals,
            &PremConfig::llc_tamed(),
            Scenario::Isolation,
        )
        .unwrap();
        assert!(
            tamed.cpmr <= naive.cpmr,
            "tamed {} vs naive {}",
            tamed.cpmr,
            naive.cpmr
        );
    }

    /// One interval's [`Staged`] outcome, its work as bits.
    type StagedBits = (u64, u64, u64, u32);

    /// Stages every interval of `ivs` into a fresh LLC of `policy`, with
    /// each interval's compute phase (reads, every third access a write,
    /// and a few unmanaged lines) run in between, offering the event loop
    /// when `events` holds and forcing the per-set loop otherwise. Returns
    /// each interval's `(work bits, hits, misses, rounds)`, the prefetches
    /// simulated and the cache left behind.
    fn stage_all(
        policy: &prem_memsim::Policy,
        seed: u64,
        ivs: &[IntervalSpec],
        strategy: PrefetchStrategy,
        events: bool,
    ) -> (Vec<StagedBits>, u64, Cache) {
        let cfg = prem_memsim::CacheConfig::new(32 * 1024, 4, 128)
            .policy(policy.clone())
            .index_hash(true);
        let mut llc = Cache::new(cfg);
        llc.reseed(seed);
        let mut rounds = Rounds::new(&llc);
        // Every policy here ignores hits: clearing the flag leaves the
        // per-set loop as the only one.
        rounds.oblivious &= events;
        let mut walked = 0;
        let mut staged = Vec::new();
        for (i, iv) in ivs.iter().enumerate() {
            llc.begin_interval();
            let m = prefetch_rounds(
                &mut llc,
                iv.footprint(),
                strategy,
                (3.0, 7.0),
                0.0,
                &mut rounds,
                &mut NullSink,
            );
            staged.push((m.work.to_bits(), m.hits, m.misses, m.rounds));
            walked += m.walked;
            for (k, a) in iv.c_accesses.iter().enumerate() {
                let kind = if a.write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                llc.access(a.line, kind, Phase::CPhase);
                if k % 16 == 0 {
                    let noise = LineAddr::new(NOISE_BASE_LINE + (i * 7 + k) as u64 % 40);
                    llc.access(noise, AccessKind::Read, Phase::CPhase);
                }
            }
        }
        (staged, walked, llc)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Each round loop is the other's oracle: on footprints that
        /// overflow sets and carry lines from one interval to the next,
        /// the event loop stages exactly what the per-set loop stages —
        /// the same work bits, prefetch outcomes, rounds, `CacheStats`,
        /// contents and RNG position — while simulating no more
        /// prefetches.
        #[test]
        fn the_event_loop_stages_like_the_per_set_loop(
            shape in proptest::collection::vec((0u64..600, 1u64..400, 0usize..3), 1..6),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let ivs: Vec<IntervalSpec> = shape
                .iter()
                .map(|&(base, len, stride)| {
                    let stride = [1, 3, 64][stride];
                    let lines: Vec<_> =
                        (0..len).map(|j| LineAddr::new(base + j * stride)).collect();
                    let accesses = lines
                        .iter()
                        .enumerate()
                        .map(|(k, &l)| {
                            if k % 3 == 0 {
                                CAccess::write(l)
                            } else {
                                CAccess::read(l)
                            }
                        })
                        .collect();
                    IntervalSpec::new(lines, accesses, 0)
                })
                .collect();
            let policies = [
                prem_memsim::Policy::Random,
                prem_memsim::Policy::nvidia_tegra(),
                prem_memsim::Policy::BiasedRandom { weights: vec![1, 1, 9, 1] },
                prem_memsim::Policy::BiasedRandom { weights: vec![0, 1, 1, 1] },
                prem_memsim::Policy::Fifo,
            ];
            let strategies = [
                PrefetchStrategy::Repeated { r: 1 },
                PrefetchStrategy::Repeated { r: 2 },
                PrefetchStrategy::Repeated { r: 8 },
                PrefetchStrategy::UntilResident { max_rounds: 16 },
            ];
            for policy in &policies {
                proptest::prop_assert!(policy.hit_oblivious());
                for strategy in strategies {
                    let (event, event_walked, mut event_llc) =
                        stage_all(policy, seed, &ivs, strategy, true);
                    let (per_set, set_walked, mut set_llc) =
                        stage_all(policy, seed, &ivs, strategy, false);
                    proptest::prop_assert_eq!(&event, &per_set);
                    proptest::prop_assert!(event_walked <= set_walked);
                    proptest::prop_assert_eq!(event_llc.stats(), set_llc.stats());
                    // Same contents, replacement state and RNG position:
                    // a sweep over twice the capacity fares alike.
                    for l in 0..512u64 {
                        let line = LineAddr::new(l * 5);
                        proptest::prop_assert_eq!(
                            event_llc.access(line, AccessKind::Read, Phase::CPhase),
                            set_llc.access(line, AccessKind::Read, Phase::CPhase)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn the_event_loop_simulates_only_misses() {
        // 320 distinct lines staged into a cold 256-line cache: round 1
        // misses every line and every later round misses some. The event
        // loop simulates nothing but misses; the per-set loop also walks
        // the hits that share a set with a miss.
        let lines = (0..320).map(LineAddr::new).collect();
        let ivs = [IntervalSpec::new(lines, vec![], 0)];
        let r8 = PrefetchStrategy::Repeated { r: 8 };
        let policy = prem_memsim::Policy::nvidia_tegra();
        let (event, event_walked, _) = stage_all(&policy, 7, &ivs, r8, true);
        let (per_set, set_walked, _) = stage_all(&policy, 7, &ivs, r8, false);
        assert_eq!(event, per_set);
        let (_, hits, misses, _) = event[0];
        assert_eq!(hits + misses, 8 * 320);
        assert_eq!(event_walked, misses);
        assert!(event_walked < set_walked, "{event_walked} vs {set_walked}");
    }

    #[test]
    fn until_resident_stops_early_when_clean() {
        let mut p = PlatformConfig::tx1().build();
        let cfg = PremConfig::llc_tamed().with_store(LocalStore::Llc {
            prefetch: crate::local_store::PrefetchStrategy::UntilResident { max_rounds: 16 },
        });
        let run = run_prem(&mut p, &toy_intervals(), &cfg, Scenario::Isolation).unwrap();
        // The toy footprint fits trivially; two rounds suffice (fill+verify).
        assert!(run.max_rounds_used <= 3, "used {}", run.max_rounds_used);
    }
}
