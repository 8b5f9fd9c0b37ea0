//! Replay-backed what-if execution: compile a run's LLC input stream from
//! its tiling, walk it once per trajectory class, price every member.
//!
//! PR 4 established the enabling property: under a fixed prefetch
//! repetition the LLC's *input op sequence* does not depend on the LLC
//! replacement policy or seed — those axes only change which accesses hit.
//! It is a pure function of the intervals, the store mode and the noise
//! model, so it never needs a live run. The plan layer exploits this as a
//! **derivation relation**: replay-eligible requests that differ only in
//! LLC policy, seed and contention scenario form a family, and every
//! member's full [`RunOutput`] is derived in three steps:
//!
//! * **compile** ([`CompiledRun::compile`]) — once per family, straight
//!   from the tiling: each interval's M-phase footprint (LLC-PREM) and its
//!   noise-injected C-phase (or baseline) ops, packed through the same op
//!   builders the live executor runs, so the two streams cannot drift.
//!   SPM staging never touches the LLC: its token-held M-phase work is
//!   priced once here, a scratchpad access becomes one constant-cost
//!   entry, and the scratchpad checks (capacity, unstaged compute access)
//!   run here, refusing a broken tiling with the live run's [`ExecError`];
//! * **walk** ([`CompiledRun::walk`]) — the compiled stream is fed to a
//!   mirror cache carrying a member's policy/seed. The result is a
//!   [`Trajectory`]: per-interval M-phase work, one hit bit per compiled
//!   C-phase or baseline access, each interval's C-phase cycles and DRAM
//!   fills at isolated contention, the `CacheStats` and the prefetch
//!   counts. It depends only on the LLC policy and, for a policy that
//!   draws from the RNG, the seed;
//! * **price** ([`CompiledRun::price`]) — pure arithmetic: a member's
//!   output is rebuilt from a trajectory under the member's own constant
//!   contention and bus-ledger contention; an isolated member reuses the
//!   isolated sums, any other re-adds the hit bits under its own costs.
//!
//! [`CompiledRun::replay_for`] is one walk plus one price; the plan layer
//! compiles each family once, walks each of its trajectory classes once
//! and prices every member of the class from it.
//!
//! ## Why derived outputs are bit-identical to live ones
//!
//! * **Input stream** — compile and the live executor emit ops through
//!   one definition ([`LocalStore`]'s op builders and the noise
//!   injector), so the compiled stream is the one a live run issues.
//! * **Cache trajectory** — the mirror is a real [`Cache`] built from the
//!   member's configuration and fed that exact sequence, so hits, misses,
//!   evictions and `CacheStats` are the live cache's by construction (the
//!   property `prem-trace`'s replay suite pins).
//! * **The trajectory does not depend on contention** — eligible mixes
//!   never pollute the LLC, and contention only prices an access; no
//!   cache decision reads the schedule clock. The M-phase runs with the
//!   DRAM token held, i.e. isolated under every mix, so its per-round
//!   work is part of the trajectory too (or, for SPM, of the compile).
//! * **Cycle arithmetic** — floating-point accumulation is not
//!   associative, so pricing mirrors the executor's accumulator structure
//!   exactly: per-op adds into a fresh accumulator per phase (or
//!   baseline interval), in issue order, intervals folded in order.
//!   Per-op costs are the same [`CostModel`] functions the live executor
//!   charges, under the member's contention. M-rounds go through the live
//!   executor's own round helper: a round walks only the lines whose LLC
//!   set missed in the round before and credits the rest as hits (per op,
//!   in issue order), and every round after one that missed nothing is
//!   credited whole.
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
//! op-sequence invariance holds: PREM with a fixed staging pass (LLC with
//! a fixed repetition, or SPM) and baseline work (adaptive prefetching
//! stops after a policy/seed-dependent number of rounds), no L1, and a
//! co-runner mix whose contention is constant and which never pollutes
//! the LLC (pollution volume depends on budgets, which depend on
//! policy/seed, and pollution would change the trajectory itself).

use std::ops::Range;

use prem_gpusim::{CostModel, ExecError, InterferenceEngine, Op, PlatformConfig, Scenario};
use prem_memsim::{
    AccessKind, BusWindow, Cache, CacheStats, Contention, HitLevel, LineAddr, NullSink, Phase,
    Policy, Spm, SpmError,
};

use crate::budget::BudgetPolicy;
use crate::exec::{noisy_demand_ops, prefetch_rounds, BaselineRun, NoiseModel, PremRun, SetRounds};
use crate::interval::IntervalSpec;
use crate::local_store::{LocalStore, PrefetchStrategy};
use crate::metrics::Breakdown;
use crate::plan::{Executed, RunOutput, RunWork};
use crate::sync::PhaseTiming;

/// Whether a run is replay-derivable across the LLC policy, seed and
/// scenario axes.
///
/// True exactly when the LLC's input op sequence and its trajectory are
/// invariant in those axes up to what the trajectory records: PREM with a
/// fixed staging pass (LLC with a fixed repetition, or SPM) or baseline
/// work, no L1 in front of the LLC, and a co-runner mix under `scenario`
/// that is time-invariant (constant contention, so pricing is per-op
/// arithmetic) and never pollutes the LLC (so contention changes what a
/// miss costs, never which accesses miss). Every eligible scenario of a
/// request derives from the same compiled stream.
pub fn replay_eligible(cfg: &PlatformConfig, work: RunWork, scenario: Scenario) -> bool {
    if cfg.l1.is_some() {
        return false;
    }
    match work {
        RunWork::PremLlc { .. } | RunWork::PremSpm | RunWork::Baseline => {}
        // Adaptive round counts depend on which prefetches hit, i.e. on
        // the policy and seed.
        RunWork::PremLlcUntilResident => return false,
    }
    // Static/polluter properties are seed-independent, so probe with 0.
    let engine = InterferenceEngine::new(cfg.cpu.active_corunners(scenario), 0);
    engine.static_contention().is_some() && !engine.has_polluters()
}

/// One compiled C-phase or baseline op, packed into one word so a stream
/// costs 8 bytes per op: the top two bits tag a cache access by kind
/// (read, write), a scratchpad access or a compute op, the rest hold the
/// access's line or the op's instruction count. Scratchpad accesses cost
/// the same under every contention, so one word holds a whole run of
/// them, each with the compute op right behind it (its `transl_addr`,
/// when no unmanaged read lands in between): an SPM stream costs about
/// one word per unmanaged read.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct Entry(u64);

/// An unpacked [`Entry`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Event {
    /// One cache access.
    Access(LineAddr, AccessKind),
    /// `times` × (one scratchpad access — contention-free, so its cost
    /// is constant — then `n` warp arithmetic instructions when `n > 0`).
    Spm { n: u64, times: u64 },
    /// `n` warp arithmetic instructions charged between accesses.
    Compute(u64),
}

impl Entry {
    const PAYLOAD_BITS: u32 = 62;
    const WRITE: u64 = 1;
    const SPM: u64 = 2;
    const COMPUTE: u64 = 3;
    /// An SPM entry's compute count takes the low 32 bits of its payload,
    /// its run length the rest.
    const SPM_TIMES_SHIFT: u32 = 32;
    /// The longest run one SPM entry holds.
    const MAX_RUN: u64 = (1 << (Self::PAYLOAD_BITS - Self::SPM_TIMES_SHIFT)) - 1;
    /// A scratchpad access with no compute op fused into it (yet).
    const BARE_SPM: Entry = Entry(Self::SPM << Self::PAYLOAD_BITS | 1 << Self::SPM_TIMES_SHIFT);

    fn pack(tag: u64, payload: u64) -> Self {
        assert!(
            payload >> Self::PAYLOAD_BITS == 0,
            "compiled line or instruction count exceeds 62 bits"
        );
        Entry(tag << Self::PAYLOAD_BITS | payload)
    }

    /// `times` scratchpad accesses, each followed by `n` warp arithmetic
    /// instructions when `n > 0`.
    fn spm(n: u64, times: u64) -> Self {
        Self::pack(Self::SPM, times << Self::SPM_TIMES_SHIFT | n)
    }

    /// The entry of one C-phase or baseline op.
    fn of_op(op: Op) -> Self {
        match op {
            Op::CachedLoad(line) => Self::pack(0, line.raw()),
            Op::CachedStore(line) => Self::pack(Self::WRITE, line.raw()),
            Op::SpmLoad(_) | Op::SpmStore(_) => Self::BARE_SPM,
            Op::Alu(n) | Op::TranslAddr(n) => Self::pack(Self::COMPUTE, u64::from(n)),
            Op::Prefetch(_) | Op::DramLoad(_) | Op::DramStore(_) => {
                unreachable!("a compute phase issues no staging op")
            }
        }
    }

    fn event(self) -> Event {
        let payload = self.0 & ((1 << Self::PAYLOAD_BITS) - 1);
        match self.0 >> Self::PAYLOAD_BITS {
            0 => Event::Access(LineAddr::new(payload), AccessKind::Read),
            Self::WRITE => Event::Access(LineAddr::new(payload), AccessKind::Write),
            Self::SPM => Event::Spm {
                n: payload & u64::from(u32::MAX),
                times: payload >> Self::SPM_TIMES_SHIFT,
            },
            _ => Event::Compute(payload),
        }
    }
}

/// What one LLC policy and seed make of a compiled stream: everything a
/// derived run needs except the cost of contention.
///
/// Produced by [`CompiledRun::walk`] and consumed by
/// [`CompiledRun::price`].
#[derive(Clone, Debug, PartialEq)]
pub struct Trajectory {
    /// The LLC policy walked.
    policy: Policy,
    /// The run seed walked, when the policy draws from the RNG (a
    /// deterministic policy's victim choices cannot depend on the seed,
    /// see [`Policy::seed_sensitive`]).
    seed: Option<u64>,
    /// Per-interval M-phase work (PREM; empty for baseline). The M-phase
    /// runs token-held, so its work is contention-independent.
    m_work: Vec<f64>,
    /// Per-interval C-phase (or baseline interval) cycles at isolated
    /// contention — what the profiling pass measures, and every isolated
    /// member's live cost — and DRAM fills.
    c_iso: Vec<f64>,
    c_dram: Vec<u64>,
    /// One hit bit per compiled C-phase or baseline cache access, in issue
    /// order: what a member under contention is priced from.
    hits: Vec<bool>,
    llc: CacheStats,
    prefetch_hits: u64,
    prefetch_misses: u64,
}

impl Trajectory {
    /// Whether this is the trajectory of a run on `cfg`'s LLC policy with
    /// run seed `seed` — its trajectory class: the policy, plus the seed
    /// when the policy draws from the RNG.
    pub fn serves(&self, cfg: &PlatformConfig, seed: u64) -> bool {
        *cfg.llc.policy_ref() == self.policy && self.seed.is_none_or(|s| s == seed)
    }
}

/// Per-op costs of one compiled C-phase or baseline stream under one
/// contention level: the same pure cost-model functions the live executor
/// charges.
#[derive(Copy, Clone, PartialEq)]
struct DemandCosts {
    hit: f64,
    miss: f64,
    spm: f64,
}

impl DemandCosts {
    fn new(cost: &CostModel, contention: Contention) -> Self {
        DemandCosts {
            hit: cost.access_cost(HitLevel::Llc, contention),
            miss: cost.access_cost(HitLevel::Dram, contention),
            spm: cost.access_cost(HitLevel::Spm, contention),
        }
    }
}

/// Prices one compiled C-phase (or baseline interval) stream: each cache
/// access costs `costs.hit` or `costs.miss` as `hit` decides, each
/// scratchpad access `costs.spm`, each compute op its ALU cost, added per
/// op in issue order into one fresh accumulator — the executor's
/// summation structure. Returns the cycles and DRAM fills.
fn price_stream(
    entries: &[Entry],
    cost: &CostModel,
    costs: DemandCosts,
    mut hit: impl FnMut(LineAddr, AccessKind) -> bool,
) -> (f64, u64) {
    let mut cycles = 0.0f64;
    let mut dram = 0u64;
    for e in entries {
        match e.event() {
            Event::Access(line, kind) => {
                if hit(line, kind) {
                    cycles += costs.hit;
                } else {
                    cycles += costs.miss;
                    dram += 1;
                }
            }
            Event::Spm { n, times } => {
                let alu = cost.alu_cost(n);
                for _ in 0..times {
                    cycles += costs.spm;
                    if n > 0 {
                        cycles += alu;
                    }
                }
            }
            Event::Compute(n) => cycles += cost.alu_cost(n),
        }
    }
    (cycles, dram)
}

/// Appends `op` to the phase whose entries start at `start`: the compute
/// op right behind a bare scratchpad access rides in that access's entry,
/// and the pair joins the run of equal pairs before it; any other op is
/// a new entry.
#[inline]
fn fold(entries: &mut Vec<Entry>, start: usize, op: Op) {
    let n = match op {
        Op::TranslAddr(n) | Op::Alu(n) if entries[start..].last() == Some(&Entry::BARE_SPM) => {
            u64::from(n)
        }
        _ => return entries.push(Entry::of_op(op)),
    };
    entries.pop();
    if let Some(last) = entries[start..].last_mut() {
        if let Event::Spm { n: m, times } = last.event() {
            if m == n && times < Entry::MAX_RUN {
                *last = Entry::spm(n, times + 1);
                return;
            }
        }
    }
    entries.push(Entry::spm(n, 1));
}

/// Keeps the first scratchpad refusal of a phase — the one a live run
/// stops at.
fn note(fault: &mut Option<SpmError>, checked: Result<(), SpmError>) {
    if let (None, Err(e)) = (&fault, checked) {
        *fault = Some(e);
    }
}

/// A run compiled from its tiling: everything needed to build the
/// [`RunOutput`] of any LLC policy, seed or scenario member of its family
/// without executing the simulator.
///
/// Produced by [`CompiledRun::compile`], consumed by [`CompiledRun::walk`]
/// and [`CompiledRun::price`].
#[derive(Clone, Debug)]
pub struct CompiledRun {
    work: RunWork,
    /// The compiled config with the derivation axes stripped
    /// ([`strip_derivation_axes`]) — what every member must equal, and the
    /// source of geometry and cost constants.
    base_cfg: PlatformConfig,
    /// LLC-PREM: every interval's footprint, one staging pass each.
    footprints: Vec<LineAddr>,
    /// Every interval's C-phase (or baseline) ops.
    entries: Vec<Entry>,
    /// Per interval: its `footprints` range and its `entries` range.
    segments: Vec<(Range<usize>, Range<usize>)>,
    /// Cache accesses among `entries`: the hit bits a walk records.
    accesses: usize,
    /// SPM-PREM: per-interval M-phase work. The token-held copy loop
    /// never touches the LLC, so every member shares it.
    spm_m_work: Vec<f64>,
    /// M-phase staging passes per interval (PREM only).
    rounds: u32,
    msg_cycles: f64,
    switch_cycles: f64,
    budget: BudgetPolicy,
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

impl CompiledRun {
    /// Compiles `intervals` under `work` and `noise` for the family of
    /// `cfg` (every config equal to it up to the LLC policy, seed and
    /// co-runner list): packs each interval's staged footprint and its
    /// noise-injected C-phase (or baseline) ops, in issue order, through
    /// the op builders the live executor runs. SPM work additionally
    /// prices each interval's token-held copy loop and checks the
    /// scratchpad discipline as the live run does.
    ///
    /// # Errors
    ///
    /// [`ExecError::Spm`] exactly where a live run of the request fails:
    /// the first interval whose staging overflows the scratchpad or whose
    /// compute phase touches a line it never staged.
    ///
    /// # Panics
    ///
    /// Panics when `work` on `cfg` is not replay-eligible under any
    /// scenario (adaptive prefetching, or an L1 in front of the LLC).
    pub fn compile(
        cfg: &PlatformConfig,
        intervals: &[IntervalSpec],
        work: RunWork,
        noise: NoiseModel,
    ) -> Result<Self, ExecError> {
        assert!(
            replay_eligible(cfg, work, Scenario::Isolation),
            "compile: {work:?} is not replay-eligible"
        );
        // The seed steers only the cache, never the stream.
        let prem = work.prem_config(0, noise);
        let store = prem.as_ref().map(|p| &p.store);
        let cost = &cfg.cost;
        let m_cont = cfg.cpu.m_phase_contention();
        let copy = cost.issue_cycles + cost.copy_line_cost(m_cont);
        let spm_cost = cost.access_cost(HitLevel::Spm, m_cont);
        let mut spm = Spm::new(cfg.spm.clone());
        let mut footprints = Vec::new();
        if matches!(store, Some(LocalStore::Llc { .. })) {
            footprints.reserve_exact(intervals.iter().map(|iv| iv.footprint.len()).sum());
        }
        // LLC and baseline streams hold one entry per op, so a counting
        // pass over the same ops sizes them exactly. Growing and trimming
        // them instead costs the same compile time but raised the peak
        // RSS of the benchmark's cold-figures workload by ~1 MB (26.6 →
        // 27.5 MB, medians of six pairs on a 2-vCPU host). An SPM stream
        // folds its scratchpad runs and stays small.
        let mut entries = Vec::new();
        if !matches!(store, Some(LocalStore::Spm { .. })) {
            let mut len = 0;
            let mut counter = 0u64;
            for iv in intervals {
                noisy_demand_ops(store, iv, noise, &mut counter, |_| len += 1);
            }
            entries.reserve_exact(len);
        }
        let mut segments = Vec::with_capacity(intervals.len());
        let mut spm_m_work = Vec::new();
        let mut accesses = 0;
        let mut counter = 0u64;
        for iv in intervals {
            let (m_start, c_start) = (footprints.len(), entries.len());
            let mut fault = None;
            match store {
                Some(llc @ LocalStore::Llc { .. }) => llc.m_phase_ops(iv, |op| match op {
                    Op::Prefetch(line) => footprints.push(line),
                    _ => unreachable!("LLC staging issues prefetches only"),
                }),
                Some(copy_loop @ LocalStore::Spm { .. }) => {
                    spm.release();
                    let mut m_work = 0.0f64;
                    copy_loop.m_phase_ops(iv, |op| {
                        m_work += match op {
                            Op::DramLoad(line) => {
                                note(&mut fault, spm.stage(line).map(drop));
                                copy
                            }
                            // Always right behind its line's copy-in, which
                            // staged the line or already refused.
                            Op::SpmStore(_) => spm_cost,
                            Op::DramStore(_) => copy,
                            Op::TranslAddr(n) => cost.alu_cost(u64::from(n)),
                            _ => unreachable!("SPM staging issues copies only"),
                        };
                    });
                    spm_m_work.push(m_work);
                }
                None => {}
            }
            noisy_demand_ops(store, iv, noise, &mut counter, |op| {
                match op {
                    Op::CachedLoad(_) | Op::CachedStore(_) => accesses += 1,
                    Op::SpmLoad(line) | Op::SpmStore(line) => note(&mut fault, spm.access(line)),
                    _ => {}
                }
                fold(&mut entries, c_start, op);
            });
            if let Some(e) = fault {
                return Err(e.into());
            }
            segments.push((m_start..footprints.len(), c_start..entries.len()));
        }
        // The stream lives on through every walk: return an SPM stream's
        // growth slack.
        entries.shrink_to_fit();
        Ok(CompiledRun {
            work,
            base_cfg: strip_derivation_axes(cfg),
            footprints,
            entries,
            segments,
            accesses,
            spm_m_work,
            rounds: match store {
                Some(LocalStore::Llc { prefetch }) => prefetch.max_rounds(),
                Some(LocalStore::Spm { .. }) => 1,
                None => 0,
            },
            msg_cycles: cfg.us_to_cycles(cfg.cpu.sync.msg_us),
            switch_cycles: cfg.us_to_cycles(cfg.cpu.sync.switch_cost_us()),
            budget: prem.map_or_else(BudgetPolicy::fair, |p| p.budget),
        })
    }

    /// Walks the compiled stream through a mirror cache under the LLC
    /// policy of `cfg`, reseeded with run seed `seed` exactly as the live
    /// run reseeds after the cold build, and prices each C-phase at
    /// isolated contention on the way. The result serves every member of
    /// that trajectory class, whatever its scenario.
    ///
    /// # Panics
    ///
    /// Panics when `cfg` differs from the compiled config anywhere other
    /// than the LLC policy, seed and co-runner list — the caller grouped
    /// requests into a family whose members are not actually derivable
    /// from each other.
    pub fn walk(&self, cfg: &PlatformConfig, seed: u64) -> Trajectory {
        self.check_config(cfg);
        let mut llc = Cache::new(cfg.llc.clone());
        llc.reseed(seed);
        let mut trajectory = Trajectory {
            policy: cfg.llc.policy_ref().clone(),
            seed: cfg.llc.policy_ref().seed_sensitive().then_some(seed),
            m_work: Vec::with_capacity(self.segments.len()),
            c_iso: Vec::with_capacity(self.segments.len()),
            c_dram: Vec::with_capacity(self.segments.len()),
            hits: Vec::with_capacity(self.accesses),
            llc: CacheStats::default(),
            prefetch_hits: 0,
            prefetch_misses: 0,
        };
        let c_phase = if self.work == RunWork::Baseline {
            Phase::Unphased
        } else {
            Phase::CPhase
        };
        let cost = &self.base_cfg.cost;
        let iso = DemandCosts::new(cost, Contention::Isolated);
        let m_cont = self.base_cfg.cpu.m_phase_contention();
        let pf_cost = (
            cost.prefetch_cost(true, m_cont),
            cost.prefetch_cost(false, m_cont),
        );
        // The live executor's round helper runs the compiled staging pass
        // for `rounds` rounds over the mirror, so repeats hit or miss per
        // *this* class's trajectory and are credited exactly where a live
        // run of the class credits them.
        let strategy = PrefetchStrategy::Repeated { r: self.rounds };
        let mut sets = SetRounds::new(&llc);
        for (i, (m_range, c_range)) in self.segments.iter().enumerate() {
            match self.work {
                // The live baseline never calls `begin_interval`.
                RunWork::Baseline => {}
                RunWork::PremSpm => {
                    llc.begin_interval();
                    trajectory.m_work.push(self.spm_m_work[i]);
                }
                RunWork::PremLlc { .. } | RunWork::PremLlcUntilResident => {
                    llc.begin_interval();
                    let footprint = self.footprints[m_range.clone()].iter().copied();
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
    /// Panics when `cfg` differs from the compiled config beyond the LLC
    /// policy, seed and co-runner list, when the member is not
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
            "price: the member's scenario is not replay-eligible"
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
        let live = DemandCosts::new(cost, c_cont);
        // Per-interval live C cycles. With isolated per-op costs they are
        // the isolated sums bit for bit (same costs, same order);
        // otherwise the hit bits are priced again under the member's
        // contention.
        let priced: Vec<f64>;
        let c_live = if live == DemandCosts::new(cost, Contention::Isolated) {
            &trajectory.c_iso
        } else {
            let mut hits = trajectory.hits.iter().copied();
            priced = self
                .segments
                .iter()
                .map(|(_, c_range)| {
                    price_stream(&self.entries[c_range.clone()], cost, live, |_, _| {
                        hits.next().expect("one hit bit per compiled access")
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
                // Fixed staging uses every pass in every interval (a
                // zero-interval run uses none).
                max_rounds_used: if n_intervals == 0 { 0 } else { self.rounds },
                budget_violation_cycles: budget_violation,
                interval_timings,
                bus,
                // Eligible mixes have no cache-thrashing actors.
                polluted_lines: 0,
            }),
            wcets: Some((m_wcet, c_wcet)),
        }
    }

    /// Derives the full [`RunOutput`] of the member resolving to `cfg`
    /// with run seed `seed` under `scenario`: one [`CompiledRun::walk`]
    /// and one [`CompiledRun::price`].
    ///
    /// # Panics
    ///
    /// As [`CompiledRun::walk`] and [`CompiledRun::price`].
    pub fn replay_for(&self, cfg: &PlatformConfig, seed: u64, scenario: Scenario) -> RunOutput {
        self.price(&self.walk(cfg, seed), cfg, seed, scenario)
            .output
    }

    /// Refuses a member config that differs from the compiled one beyond
    /// the derivation axes.
    fn check_config(&self, cfg: &PlatformConfig) {
        assert!(
            strip_derivation_axes(cfg) == self.base_cfg,
            "member config differs from the compiled one beyond \
             the LLC policy, seed and co-runner axes"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{noisy_demand_ops, NoiseModel};
    use crate::execute_run;
    use crate::interval::CAccess;
    use prem_gpusim::CorunnerProfile;

    /// A plain live run: its output, or the error it stops at.
    fn run_live(
        cfg: &PlatformConfig,
        ivs: &[IntervalSpec],
        work: RunWork,
        seed: u64,
        scenario: Scenario,
        noise: NoiseModel,
    ) -> Result<RunOutput, ExecError> {
        execute_run(cfg, ivs, work, seed, scenario, noise, None).map(|run| run.output)
    }

    fn small_platform(policy: Policy, seed: u64) -> PlatformConfig {
        PlatformConfig::generic(32, 4, 64)
            .llc_policy(policy)
            .llc_seed(seed)
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

    /// A toy kernel with what SPM staging reacts to: every footprint lists
    /// some lines twice (restaged for free) and every third compute access
    /// writes (each written line is copied out once per interval).
    fn writing_intervals() -> Vec<IntervalSpec> {
        (0..6)
            .map(|i| {
                let lines: Vec<_> = (0..160).map(|j| LineAddr::new(i * 100 + j)).collect();
                let mut footprint = lines.clone();
                footprint.extend(lines.iter().step_by(16).copied());
                let accesses = lines
                    .iter()
                    .chain(&lines)
                    .enumerate()
                    .map(|(k, &l)| {
                        if k % 3 == 0 {
                            CAccess::write(l)
                        } else {
                            CAccess::read(l)
                        }
                    })
                    .collect();
                IntervalSpec::new(footprint, accesses, 300)
            })
            .collect()
    }

    /// Every policy of the what-if axis (`MatrixPolicy::what_if_axis` in
    /// `prem-harness`, instantiated at four ways) times three seeds.
    fn member_axis() -> Vec<(Policy, u64)> {
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

    /// The eligible scenarios a member may run under, each with the
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
    fn every_compiled_stream_prices_every_member_like_live() {
        // Converging footprints take the zero-miss credit path (walk and
        // live both stop simulating rounds once one misses nothing);
        // overflowing ones simulate every round on both sides; the writing
        // toy stages duplicate lines and copies written ones out.
        let toys = [
            ("converging", converging_intervals()),
            ("overflowing", overflowing_intervals()),
            ("writing", writing_intervals()),
        ];
        let works = [
            RunWork::PremLlc { r: 1 },
            RunWork::PremLlc { r: 2 },
            RunWork::PremLlc { r: 8 },
            RunWork::PremSpm,
            RunWork::Baseline,
        ];
        // Unmanaged traffic on and off: off, an SPM run never touches the
        // LLC at all.
        for (toy, ivs, noise) in toys.iter().flat_map(|(toy, ivs)| {
            [NoiseModel::tx1(), NoiseModel::off()].map(|noise| (toy, ivs, noise))
        }) {
            let staged: u64 = ivs.iter().map(|iv| iv.footprint.len() as u64).sum();
            for work in works {
                // One compile per family, from any member's config.
                let compiled = CompiledRun::compile(
                    &small_platform(Policy::Fifo, 5).with_corunners(vec![CorunnerProfile::Membomb]),
                    ivs,
                    work,
                    noise,
                )
                .unwrap();
                for (policy, seed) in member_axis() {
                    let class_cfg = small_platform(policy.clone(), seed);
                    // One walk per class, priced under every scenario.
                    let trajectory = compiled.walk(&class_cfg, seed);
                    for (name, scenario, corunners) in eligible_scenarios() {
                        let member = class_cfg.clone().with_corunners(corunners);
                        let live = run_live(&member, ivs, work, seed, scenario, noise).unwrap();
                        let profiled = crate::profile_run(&member, ivs, work, seed, noise).unwrap();
                        let priced = compiled.price(&trajectory, &member, seed, scenario);
                        assert_eq!(
                            live, priced.output,
                            "{toy} {work:?}/{name} {noise:?} member {policy:?} \
                             seed {seed} diverged from live"
                        );
                        assert_eq!(priced.wcets, profiled, "{toy} {work:?}/{name} wcets");
                        if name == "interference" {
                            assert_eq!(compiled.replay_for(&member, seed, scenario), live);
                        }
                        // The toys exercise the branches they are named for.
                        match (&live, work) {
                            (RunOutput::Prem(run), RunWork::PremLlc { r }) => {
                                if *toy == "overflowing" {
                                    assert!(run.prefetch_misses >= ivs.len() as u64 * u64::from(r));
                                } else if *toy == "converging" && policy == Policy::Lru {
                                    assert!(run.prefetch_misses <= staged, "LRU converges");
                                }
                            }
                            // Only unmanaged traffic reaches the LLC.
                            (RunOutput::Prem(run), RunWork::PremSpm) => {
                                assert_eq!(run.llc.m_phase.total(), 0);
                                assert_eq!(run.llc.c_phase.misses > 0, noise.enabled());
                            }
                            _ => {}
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn compiled_stream_prices_under_the_platforms_own_msg() {
        // The compile reads the MSG and switch cost from the platform it
        // compiles for: with a non-default MSG, every member's derived run
        // still equals its live run.
        let with_msg = |policy: Policy, seed| {
            let mut cfg = small_platform(policy, seed);
            cfg.cpu.sync.msg_us = 5.0;
            cfg
        };
        let ivs = writing_intervals();
        let noise = NoiseModel::tx1();
        for work in [RunWork::PremLlc { r: 4 }, RunWork::PremSpm] {
            let compiled =
                CompiledRun::compile(&with_msg(Policy::Lru, 11), &ivs, work, noise).unwrap();
            let default_msg = small_platform(Policy::Lru, 11);
            assert_ne!(
                run_live(
                    &with_msg(Policy::Lru, 11),
                    &ivs,
                    work,
                    11,
                    Scenario::Isolation,
                    noise
                ),
                run_live(&default_msg, &ivs, work, 11, Scenario::Isolation, noise),
                "the MSG must shape this schedule"
            );
            for (policy, seed) in member_axis() {
                let cfg = with_msg(policy.clone(), seed);
                assert_eq!(
                    run_live(&cfg, &ivs, work, seed, Scenario::Isolation, noise).unwrap(),
                    compiled.replay_for(&cfg, seed, Scenario::Isolation),
                    "{work:?} member {policy:?} seed {seed} diverged"
                );
            }
        }
    }

    #[test]
    fn compiled_entries_follow_the_live_builders() {
        let noise = NoiseModel::tx1();
        // 40 accesses (the 32nd a write), and more arithmetic than one
        // `Op::Alu` carries.
        let alu = u64::from(u32::MAX) + 5;
        let lines: Vec<_> = (0..40).map(LineAddr::new).collect();
        let accesses = lines
            .iter()
            .map(|&l| {
                if l.raw() == 31 {
                    CAccess::write(l)
                } else {
                    CAccess::read(l)
                }
            })
            .collect();
        let ivs = vec![IntervalSpec::new(lines, accesses, alu); 2];
        let cfg = PlatformConfig::tx1();
        let noise_line = |k| Event::Access(LineAddr::new(0x0F00_0000 + k), AccessKind::Read);
        for work in [
            RunWork::PremLlc { r: 8 },
            RunWork::PremSpm,
            RunWork::Baseline,
        ] {
            let compiled = CompiledRun::compile(&cfg, &ivs, work, noise).unwrap();
            let store = work.prem_config(0, noise).map(|p| p.store);
            let mut counter = 0;
            for (iv, (m_range, c_range)) in ivs.iter().zip(&compiled.segments) {
                // Op for op what the live executor issues, once each run
                // of scratchpad accesses is split back into its ops.
                let mut live = Vec::new();
                noisy_demand_ops(store.as_ref(), iv, noise, &mut counter, |op| {
                    live.push(Entry::of_op(op).event())
                });
                let events: Vec<Event> = compiled.entries[c_range.clone()]
                    .iter()
                    .map(|e| e.event())
                    .collect();
                let split: Vec<Event> = events
                    .iter()
                    .flat_map(|e| match *e {
                        Event::Spm { n, times } => {
                            let bare = Entry::BARE_SPM.event();
                            let pair = [vec![bare], vec![Event::Compute(n)]];
                            let access = if n > 0 { pair.concat() } else { vec![bare] };
                            access.repeat(times as usize)
                        }
                        Event::Access(line, kind) => vec![Event::Access(line, kind)],
                        Event::Compute(n) => vec![Event::Compute(n)],
                    })
                    .collect();
                assert_eq!(split, live, "{work:?}");
                // The arithmetic splits into u32-sized chunks, last.
                assert_eq!(
                    events[events.len() - 2..],
                    [Event::Compute(u64::from(u32::MAX)), Event::Compute(5)],
                    "{work:?}"
                );
                match work {
                    // Noise lands right after the 32nd memory op, ahead of
                    // that access's `transl_addr` (which then stands alone
                    // between two runs), and the rotation runs on across
                    // intervals.
                    RunWork::PremSpm => {
                        assert_eq!(
                            events[..5],
                            [
                                Event::Spm { n: 4, times: 31 },
                                Event::Spm { n: 0, times: 1 },
                                noise_line(counter - 1),
                                Event::Compute(4),
                                Event::Spm { n: 4, times: 8 },
                            ]
                        );
                        assert!(m_range.is_empty(), "SPM staging is priced, not stored");
                    }
                    RunWork::PremLlc { .. } => {
                        assert_eq!(
                            events[31..33],
                            [
                                Event::Access(LineAddr::new(31), AccessKind::Write),
                                noise_line(counter - 1)
                            ]
                        );
                        assert_eq!(compiled.footprints[m_range.clone()], iv.footprint[..]);
                    }
                    // No phases: no staging at all.
                    _ => {
                        assert_eq!(events[32], noise_line(counter - 1));
                        assert!(m_range.is_empty());
                    }
                }
            }
        }
        let baseline = CompiledRun::compile(&cfg, &ivs, RunWork::Baseline, noise).unwrap();
        assert!(baseline.footprints.is_empty() && baseline.spm_m_work.is_empty());
        assert_eq!(baseline.rounds, 0);
    }

    #[test]
    fn spm_refusals_match_live() {
        let cfg = small_platform(Policy::Lru, 11);
        let noise = NoiseModel::tx1();
        // 513 distinct lines overflow the 512-line scratchpad; one more
        // interval touches a line its footprint never staged.
        let over: Vec<_> = (0..513).map(LineAddr::new).collect();
        let over_capacity = vec![IntervalSpec::new(over, vec![], 0)];
        let uncovered = vec![
            writing_intervals()[0].clone(),
            IntervalSpec::new(
                vec![LineAddr::new(1)],
                vec![
                    CAccess::read(LineAddr::new(1)),
                    CAccess::write(LineAddr::new(2)),
                ],
                0,
            ),
        ];
        for ivs in [over_capacity, uncovered] {
            let live =
                run_live(&cfg, &ivs, RunWork::PremSpm, 11, Scenario::Isolation, noise).unwrap_err();
            let compiled = CompiledRun::compile(&cfg, &ivs, RunWork::PremSpm, noise).unwrap_err();
            assert_eq!(compiled, live);
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
        // SPM staging is a fixed, LLC-free pass.
        assert!(replay_eligible(
            &cfg,
            RunWork::PremSpm,
            Scenario::Interference
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
        assert!(!replay_eligible(
            &thrash,
            RunWork::PremSpm,
            Scenario::Corunners
        ));
        // Time-varying demand breaks the constant-contention fast path.
        let bursty = cfg.clone().with_corunners(vec![CorunnerProfile::Bursty {
            duty: 0.5,
            period_cycles: 10_000.0,
        }]);
        assert!(!replay_eligible(&bursty, llc, Scenario::Corunners));
        // The same mixes are eligible when the scenario never activates them.
        assert!(replay_eligible(&thrash, llc, Scenario::Isolation));
    }

    /// A compiled toy kernel and the member config carrying `corunners`,
    /// for the refusal cases.
    fn refusal_case(corunners: Vec<CorunnerProfile>) -> (CompiledRun, PlatformConfig) {
        let cfg = small_platform(Policy::Lru, 11);
        let compiled = CompiledRun::compile(
            &cfg,
            &converging_intervals(),
            RunWork::PremLlc { r: 2 },
            NoiseModel::off(),
        )
        .unwrap();
        (compiled, cfg.with_corunners(corunners))
    }

    #[test]
    #[should_panic(expected = "scenario is not replay-eligible")]
    fn price_rejects_a_bursty_member() {
        let (compiled, bursty) = refusal_case(vec![CorunnerProfile::Bursty {
            duty: 0.5,
            period_cycles: 10_000.0,
        }]);
        compiled.replay_for(&bursty, 11, Scenario::Corunners);
    }

    #[test]
    #[should_panic(expected = "scenario is not replay-eligible")]
    fn price_rejects_a_cache_thrash_member() {
        let (compiled, thrash) = refusal_case(vec![CorunnerProfile::CacheThrash]);
        let trajectory = compiled.walk(&thrash, 11);
        compiled.price(&trajectory, &thrash, 11, Scenario::Corunners);
    }

    #[test]
    #[should_panic(expected = "walked for another LLC policy/seed class")]
    fn price_rejects_another_class() {
        let (compiled, cfg) = refusal_case(vec![]);
        let trajectory = compiled.walk(&cfg, 11);
        let other = cfg.llc_policy(Policy::Fifo);
        compiled.price(&trajectory, &other, 11, Scenario::Isolation);
    }

    #[test]
    #[should_panic(expected = "beyond the LLC policy, seed and co-runner axes")]
    fn walk_rejects_a_foreign_geometry() {
        let (compiled, _) = refusal_case(vec![]);
        // Same derivation axes, different geometry: must be refused.
        let foreign = PlatformConfig::generic(64, 4, 64);
        compiled.walk(&foreign, 11);
    }

    #[test]
    #[should_panic(expected = "not replay-eligible")]
    fn compile_rejects_adaptive_work() {
        let _ = CompiledRun::compile(
            &PlatformConfig::tx1(),
            &converging_intervals(),
            RunWork::PremLlcUntilResident,
            NoiseModel::off(),
        );
    }
}
