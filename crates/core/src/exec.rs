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

use prem_gpusim::{ExecError, InterferenceEngine, Op, OpStream, Platform, Scenario, SmExecutor};
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
    /// Per-interval (M-phase, C-phase) slot timings, in execution order —
    /// the raw material of paper Fig 1 / the timeline renderer.
    pub interval_timings: Vec<(PhaseTiming, PhaseTiming)>,
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
/// The platform is cold-reset and reseeded before both the profiling pass
/// and the timed run, so results are deterministic in `cfg.seed`.
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

/// The PREM executor: profiles the phases (or takes a memoized profile),
/// then runs the budgeted schedule under `scenario`, returning the run
/// and the `(m_wcet, c_wcet)` pair its budgets derive from — exactly what
/// [`profile_phases`] reports, suitable for the plan layer's profile memo.
///
/// **Profile source.** `profiled` carries the `(m_wcet, c_wcet)` a
/// previous [`profile_phases`] call returned for the *same* platform
/// config, intervals, store/prefetch mode, seed and noise model.
/// Profiling is deterministic in exactly those inputs (it resets and
/// reseeds the platform on entry and runs isolated — no scenario
/// dependence), so passing the memoized pair skips the pass entirely and
/// the timed run — which cold-resets again before executing — is
/// bit-identical to the unmemoized call. Passing stale values from any
/// other request computes garbage budgets; the plan layer's `ProfileKey`
/// is the guarded way in.
///
/// **Fused profiling.** When `profiled` is `None` and the scenario's
/// co-runner mix has constant contention and no cache polluters, the
/// separate profiling pass is fused into the timed run. The profiling
/// trajectory and the timed trajectory coincide (both start from the same
/// cold reset and reseed and feed identical op sequences — the invariant
/// the replay equivalence suite proves), so one walk suffices: the C-phase
/// accumulates the isolated-contention cycles alongside the live ones
/// ([`SmExecutor::run_dual_traced`], per-op in issue order, bit-exact),
/// the M-phase work is its own isolated measurement already (the token is
/// held), and each phase's per-interval maximum is the WCET. Nothing in an
/// unpolluted walk consumes budgets until after the fact, so they are
/// derived post-loop from the observed WCETs. The output is bit-identical
/// to profiling separately; the walk is simply not paid twice. Other
/// mixes pay a separate [`profile_phases`] pass first.
///
/// **Instrumentation.** The timed run (never the profiling pass) reports
/// every LLC access outcome, co-runner pollution fill, interval boundary,
/// phase transition and direct DRAM transfer to `sink`, with op-issue
/// timestamps on the global schedule clock. With [`NullSink`] this
/// monomorphizes to exactly [`run_prem`] — the contract the golden suite
/// pins. Capture starts after the cold reset that precedes the timed run,
/// so a recorded trace replayed against an equally cold cache (same
/// geometry, policy and `cfg.seed`) reproduces the run's [`CacheStats`]
/// field-for-field — the `prem-trace` replay engine's validation property.
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
    // Fused self-profiling eligibility: constant contention (so the live
    // C-phase shares the profiling trajectory and a dual-cost walk can
    // price both) and no polluters (pollution would perturb the LLC
    // between phases, and its volume depends on the budgets themselves).
    let fused_c_cont = match profiled {
        None => engine
            .static_contention()
            .filter(|_| !engine.has_polluters()),
        Some(_) => None,
    };
    // Profiling pass: isolated execution to obtain per-phase WCETs —
    // skipped when the caller supplies the memoized result, fused into
    // the timed run when eligible.
    let profiled = match (profiled, fused_c_cont) {
        (Some(wcets), _) => Some(wcets),
        (None, Some(_)) => None,
        (None, None) => Some(profile_phases(platform, intervals, cfg)?),
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

    let mut breakdown = Breakdown::default();
    let mut prefetch_hits = 0;
    let mut prefetch_misses = 0;
    let mut max_rounds_used = 0;
    let mut noise_counter = 0u64;
    // Per-interval (M work, C work): the budget-violation diagnostic is
    // derived from these after the loop, once budgets are known in both
    // the memoized and the fused mode.
    let mut per_iv = Vec::with_capacity(intervals.len());
    // Observed WCETs (the fused mode's profiling result): per-interval
    // maxima accumulated in interval order, exactly as `profile_phases`
    // folds them.
    let mut m_wcet_obs = 0.0f64;
    let mut c_wcet_obs = 0.0f64;
    let mut interval_timings = Vec::with_capacity(intervals.len());
    let mut bus = BusWindow::default();
    let mut set_rounds = SetRounds::new(platform.mem.llc());
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
        let m = run_m_phase(platform, iv, &cfg.store, m_cont, now, &mut set_rounds, sink)?;
        prefetch_hits += m.hits;
        prefetch_misses += m.misses;
        let m_work = m.work;
        max_rounds_used = max_rounds_used.max(m.rounds);
        // The M-phase runs token-held, i.e. isolated — its work IS the
        // profiling measurement (identical accumulation in both passes).
        m_wcet_obs = m_wcet_obs.max(m_work);
        let m_t = PhaseTiming::in_slot(m_work, msg_cycles);
        now += m_t.elapsed() + switch_cycles;

        // --- C-phase (token released: co-runners contend on the bus and
        // thrashers pollute the LLC for the whole static C slot) ---
        sink.on_phase(Phase::CPhase, now);
        // Fused mode has no polluters (eligibility), so the zero window is
        // a no-op; otherwise the real C budget bounds the pollution slot.
        let pollute_window = known_budgets.as_ref().map_or(0.0, |b| b.c_cycles);
        engine.pollute_traced(platform.mem.llc_mut(), pollute_window, sink);
        let c_stream = demand_stream(Some(&cfg.store), iv, cfg.noise, &mut noise_counter);
        let mut ex = SmExecutor::new(&mut platform.mem, &platform.cost);
        let c_out = match fused_c_cont {
            // Fused: one walk prices the live C-phase and, per op in issue
            // order, the isolated C-phase the profiling pass would have
            // measured.
            Some(c_cont) => {
                let (out, c_iso) = ex.run_dual_traced(
                    &c_stream,
                    Phase::CPhase,
                    c_cont,
                    Contention::Isolated,
                    now,
                    sink,
                )?;
                c_wcet_obs = c_wcet_obs.max(c_iso);
                out
            }
            None => ex.run_under_traced(&c_stream, Phase::CPhase, &engine, now, sink)?,
        };

        // Eager token release with the MSG floor (Fig 1 (d)): the slot ends
        // at max(work, MSG). Budgets remain the static guarantee; work
        // beyond a budget is recorded as a violation diagnostic.
        let c_t = PhaseTiming::in_slot(c_out.cycles, msg_cycles);
        now += c_t.elapsed();
        bus.merge(&platform.cost.dram.account_window(
            c_t.elapsed(),
            c_out.levels.dram as f64 * platform.cost.line_bytes as f64,
            ledger_cont,
        ));
        breakdown.m_work += m_t.work;
        breakdown.c_work += c_t.work;
        breakdown.idle += m_t.idle + c_t.idle;
        breakdown.sync += 2.0 * switch_cycles;
        per_iv.push((m_work, c_out.cycles));
        interval_timings.push((m_t, c_t));
    }

    // WCETs: memoized/inline-profiled values, or the fused walk's own
    // observation — bit-identical by the trajectory-coincidence argument.
    let wcets = profiled.unwrap_or((m_wcet_obs, c_wcet_obs));
    let budgets = known_budgets.unwrap_or_else(|| cfg.budget.compute(wcets.0, wcets.1, msg_cycles));
    // Same per-interval fold, same order, as the previous inline
    // accumulation — only deferred until budgets exist in every mode.
    let mut budget_violation = 0.0f64;
    for &(m_work, c_cycles) in &per_iv {
        budget_violation +=
            (m_work - budgets.m_cycles).max(0.0) + (c_cycles - budgets.c_cycles).max(0.0);
    }

    let llc = platform.mem.llc().stats().clone();
    let cpmr = llc.cpmr();
    let budget_envelope_cycles =
        intervals.len() as f64 * (budgets.interval_cycles() + 2.0 * switch_cycles);

    let run = PremRun {
        intervals: intervals.len(),
        makespan_cycles: breakdown.total(),
        breakdown,
        budget_envelope_cycles,
        budgets,
        llc,
        cpmr,
        prefetch_hits,
        prefetch_misses,
        max_rounds_used,
        budget_violation_cycles: budget_violation,
        interval_timings,
        bus,
        polluted_lines: engine.polluted_lines(),
    };
    Ok((run, wcets))
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
    run_baseline_traced(platform, intervals, seed, scenario, noise, &mut NullSink)
}

/// [`run_baseline`] with cache-event instrumentation: every LLC access
/// outcome, per-interval boundary and compute op is reported to `sink`.
/// The baseline has no PREM intervals — [`TraceSink::on_interval`] here
/// marks the boundary between the per-interval demand streams (a cost
/// accounting segment), and the cache's self-eviction epoch does **not**
/// advance (the live baseline never calls `begin_interval` either). With
/// [`NullSink`] this monomorphizes to exactly [`run_baseline`].
///
/// # Errors
///
/// Exactly the [`run_baseline`] error conditions.
pub fn run_baseline_traced<S: TraceSink>(
    platform: &mut Platform,
    intervals: &[IntervalSpec],
    seed: u64,
    scenario: Scenario,
    noise: NoiseModel,
    sink: &mut S,
) -> Result<BaselineRun, ExecError> {
    // An unprotected kernel is exposed to the whole mix the whole time:
    // bus contention on every access, and LLC pollution applied *before*
    // each interval runs, over the window that interval occupies —
    // thrash traffic concurrent with interval i must be visible to
    // interval i, not lag into i+1 (and a single-interval kernel must not
    // escape pollution entirely). The window lengths come from an
    // isolated dry pass on a scratch platform, playing the same role the
    // static C budgets play on the PREM path.
    let mut engine = InterferenceEngine::new(platform.cpu.active_corunners(scenario), seed);
    let windows = if engine.has_polluters() {
        baseline_windows(platform, intervals, seed, noise)?
    } else {
        Vec::new()
    };

    platform.reset();
    platform.reseed(seed);
    let mut cycles = 0.0;
    let mut noise_counter = 0u64;
    for (i, iv) in intervals.iter().enumerate() {
        sink.on_interval();
        if let Some(&window) = windows.get(i) {
            engine.pollute_traced(platform.mem.llc_mut(), window, sink);
        }
        let stream = demand_stream(None, iv, noise, &mut noise_counter);
        let out = SmExecutor::new(&mut platform.mem, &platform.cost).run_under_traced(
            &stream,
            Phase::Unphased,
            &engine,
            cycles,
            sink,
        )?;
        cycles += out.cycles;
    }
    Ok(BaselineRun {
        cycles,
        llc: platform.mem.llc().stats().clone(),
    })
}

/// Isolated per-interval durations of the unprotected baseline, measured
/// on a scratch copy of `platform` — the pollution windows for thrashing
/// co-runner mixes.
fn baseline_windows(
    platform: &Platform,
    intervals: &[IntervalSpec],
    seed: u64,
    noise: NoiseModel,
) -> Result<Vec<f64>, ExecError> {
    let mut scratch = platform.clone();
    scratch.reset();
    scratch.reseed(seed);
    let mut noise_counter = 0u64;
    let mut windows = Vec::with_capacity(intervals.len());
    for iv in intervals {
        let stream = demand_stream(None, iv, noise, &mut noise_counter);
        let out = SmExecutor::new(&mut scratch.mem, &scratch.cost).run(
            &stream,
            Phase::Unphased,
            Contention::Isolated,
        )?;
        windows.push(out.cycles);
    }
    Ok(windows)
}

/// Isolated profiling pass returning worst-case observed (M, C) phase work.
///
/// This is the pass every PREM run pays before its timed run. It is
/// deterministic in (platform config, intervals, store/prefetch mode,
/// `cfg.seed`, `cfg.noise`) and independent of the run scenario — it
/// cold-resets and reseeds the platform on entry and measures in
/// isolation, the paper's profiling discipline. That determinism is what
/// makes the result memoizable: feed it back through [`run_prem_traced`]
/// for any scenario sibling of the profiled request and the output is
/// bit-identical to profiling inline.
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
    platform.reset();
    platform.reseed(cfg.seed);
    // Profiling is the paper's isolated measurement: no co-runner mix.
    let m_cont = platform.cpu.m_phase_contention();
    let c_cont = Contention::Isolated;
    let mut m_wcet = 0.0f64;
    let mut c_wcet = 0.0f64;
    let mut noise_counter = 0u64;
    let mut set_rounds = SetRounds::new(platform.mem.llc());
    for iv in intervals {
        platform.mem.begin_interval();
        let m = run_m_phase(
            platform,
            iv,
            &cfg.store,
            m_cont,
            0.0,
            &mut set_rounds,
            &mut NullSink,
        )?;
        let m_work = m.work;
        let c_stream = demand_stream(Some(&cfg.store), iv, cfg.noise, &mut noise_counter);
        let c_out = SmExecutor::new(&mut platform.mem, &platform.cost).run(
            &c_stream,
            Phase::CPhase,
            c_cont,
        )?;
        m_wcet = m_wcet.max(m_work);
        c_wcet = c_wcet.max(c_out.cycles);
    }
    Ok((m_wcet, c_wcet))
}

/// What one interval's M-phase did: its work (cycles), its prefetch
/// outcomes and the rounds it used.
#[derive(Debug, Default)]
pub(crate) struct Staged {
    pub(crate) work: f64,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
    pub(crate) rounds: u32,
}

/// Per-LLC-set round bookkeeping for [`prefetch_rounds`], allocated once
/// per run: `missed[s]` is the stamp of the last round in which set `s`
/// missed. Every round takes a fresh, larger stamp, so nothing is ever
/// cleared between rounds or intervals.
pub(crate) struct SetRounds {
    missed: Vec<u32>,
    stamp: u32,
}

impl SetRounds {
    pub(crate) fn new(llc: &Cache) -> Self {
        SetRounds {
            missed: vec![0; llc.config().sets()],
            stamp: 0,
        }
    }
}

/// Stages `footprint` into `llc` by prefetch rounds per `strategy`,
/// walking only what a round can change — the one round loop of the timed
/// run, the profiling pass and
/// [`CompiledRun::walk`](crate::CompiledRun::walk).
///
/// Round 1 walks every line and reports it to `sink` (op-issue timestamps
/// from `start`, as the executor emits them). Later rounds run unobserved,
/// and a line is walked only when its LLC set missed in the round before.
///
/// **Why a set that missed nothing may be credited.** If set `s` had no
/// miss in round `k`, nothing was filled into or evicted from it during
/// that round, so it still holds every footprint line it maps, and round
/// `k + 1` over `s` is a pure hit pass: the same way sequence, all hits.
/// Repeating that pass changes no state any policy reads later. Random,
/// biased-random and FIFO ignore hits. Replaying an all-hit way sequence
/// leaves LRU's relative stamp order, PLRU's tree bits, NMRU's MRU way
/// and SRRIP's RRPVs as the same sequence left them in round `k`; only
/// the replacer's clock differs, and no victim choice reads an absolute
/// stamp. Misses happen only in walked sets, in issue order, so victim
/// draws consume the RNG in the same order. A credited line adds the hit
/// cost in its issue position, so the round's cycle sum is the walked
/// sum bit for bit, and its hit is settled through
/// [`Cache::credit_repeated_hits`]. A fixed repetition whose round
/// missed nothing at all credits every remaining round whole.
///
/// Callers uphold the gates: the footprint is staged into the LLC with
/// no L1 in front (L1 churn would make rounds diverge), and no sink
/// observes rounds after the first. The adaptive strategy stops on the
/// miss count alone, which crediting preserves.
pub(crate) fn prefetch_rounds<I, S>(
    llc: &mut Cache,
    footprint: I,
    strategy: PrefetchStrategy,
    (pf_hit, pf_miss): (f64, f64),
    start: f64,
    sets: &mut SetRounds,
    sink: &mut S,
) -> Staged
where
    I: Iterator<Item = LineAddr> + Clone,
    S: TraceSink,
{
    let max_rounds = strategy.max_rounds();
    let mut staged = Staged::default();
    while staged.rounds < max_rounds {
        let prev = sets.stamp;
        sets.stamp += 1;
        let first = staged.rounds == 0;
        let mut cycles = 0.0f64;
        let mut hits = 0u64;
        let mut misses = 0u64;
        let mut credited = 0u64;
        for line in footprint.clone() {
            let set = llc.set_of(line);
            let hit = if first {
                sink.on_op_issue(start + cycles);
                llc.access_traced(line, AccessKind::Prefetch, Phase::MPhase, sink)
                    .hit
            } else if sets.missed[set] >= prev {
                // Missed in the previous round (a miss earlier in this
                // round may already have restamped it to the current one).
                llc.access(line, AccessKind::Prefetch, Phase::MPhase).hit
            } else {
                credited += 1;
                true
            };
            if hit {
                hits += 1;
                cycles += pf_hit;
            } else {
                misses += 1;
                cycles += pf_miss;
                sets.missed[set] = sets.stamp;
            }
        }
        llc.credit_repeated_hits(Phase::MPhase, credited);
        staged.work += cycles;
        staged.hits += hits;
        staged.misses += misses;
        staged.rounds += 1;
        if strategy.adaptive() {
            if staged.rounds > 1 && misses == 0 {
                break;
            }
        } else if misses == 0 {
            // Every set is settled: each remaining round is this same
            // all-hit pass, credited with the same repeated adds.
            let remaining = max_rounds - staged.rounds;
            for _ in 0..remaining {
                staged.work += cycles;
                staged.hits += hits;
            }
            llc.credit_repeated_hits(Phase::MPhase, u64::from(remaining) * hits);
            staged.rounds = max_rounds;
        }
    }
    staged
}

/// One interval's M-phase under `store`, starting at schedule time
/// `start`: [`prefetch_rounds`] when its gates hold, otherwise every
/// round walked through the SM executor (SPM staging, an L1 in front of
/// the LLC, or a sink that records every round).
fn run_m_phase<S: TraceSink>(
    platform: &mut Platform,
    iv: &IntervalSpec,
    store: &LocalStore,
    m_cont: Contention,
    start: f64,
    sets: &mut SetRounds,
    sink: &mut S,
) -> Result<Staged, ExecError> {
    let strategy = match store {
        LocalStore::Llc { prefetch } => *prefetch,
        LocalStore::Spm { .. } => PrefetchStrategy::Repeated { r: 1 },
    };
    if matches!(store, LocalStore::Llc { .. }) && !S::RECORDS && platform.mem.l1().is_none() {
        let cost = (
            platform.cost.prefetch_cost(true, m_cont),
            platform.cost.prefetch_cost(false, m_cont),
        );
        let footprint = iv.footprint.iter().copied();
        let llc = platform.mem.llc_mut();
        return Ok(prefetch_rounds(
            llc, footprint, strategy, cost, start, sets, sink,
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
