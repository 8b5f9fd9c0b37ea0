//! The content-addressed run-plan layer: one execution pipeline for every
//! consumer of the simulator.
//!
//! Every layer of the workspace ultimately turns a coordinate tuple —
//! (kernel, platform, policy, store, T, R, seed, scenario) — into a
//! [`run_prem`](prem_core::run_prem) or
//! [`run_baseline`](prem_core::run_baseline) call. Before this layer each
//! consumer re-derived that mapping privately and, worse, re-*executed*
//! identical runs: the figure modules share baseline and LLC grid points,
//! the matrix pairs every PREM cell with a baseline, and a full `figures`
//! invocation repeated dozens of simulations another figure had already
//! paid for.
//!
//! The plan layer canonicalizes the tuple as a [`RunRequest`] with a
//! stable content [`fingerprint`](RunRequest::fingerprint) (the FNV-1a +
//! SplitMix64 machinery of [`crate::seed`]), and executes requests through
//! a [`PlanExecutor`] that
//!
//! * **dedupes** a submitted plan by canonical key, so a merged
//!   multi-figure plan executes each shared request exactly once;
//! * **executes** the unique frontier on the work-claiming pool
//!   ([`crate::pool::parallel_map`]) at *run* granularity — a plan of 300
//!   runs load-balances across workers instead of serializing behind the
//!   largest figure;
//! * **derives** every replay-eligible request instead of executing it:
//!   the frontier partitions into *derivation families* (equal
//!   [`RunRequest::base_key`]: every coordinate but the LLC policy, seed
//!   and scenario; a family of one included), each family compiles its
//!   LLC input stream from the tiling once ([`CompiledRun::compile`]),
//!   each trajectory class its members need (the LLC policy, plus the
//!   seed when the policy draws from the RNG) walks it once, and every
//!   member whose co-runner mix can be priced is priced from its class's
//!   trajectory under its own contention; bit-identical to live execution
//!   by contract, proven by the plan-replay equivalence suite
//!   (`crates/harness/tests/plan_replay.rs`). The other members
//!   (time-varying or polluting co-runner mixes) execute live on their
//!   class's WCETs ([`CompiledRun::wcets`]), so no run profiles itself;
//! * **caches** outputs in a sharded in-memory map addressed by the full
//!   canonical key (the fingerprint selects the shard; the key string
//!   guarantees distinct requests can never alias a cache slot).
//!
//! Every simulator execution in this module is a pool unit of a plan (a
//! lazy [`RunSource::output`] miss is a one-request plan). A live run
//! tiles, resolves and runs through the core bridge
//! [`prem_core::execute_run`]: inside a family with its class's WCETs,
//! with replay off (the reference path) profiling itself. The public
//! `RunRequest::execute*` methods are one-line forms of that path with a
//! fixed profile source.
//!
//! Dedup is sound because execution is deterministic in the request: a
//! [`RunRequest`] resolves to a freshly built platform seeded from its own
//! coordinates, so the first execution of a key is byte-identical to any
//! repeat — the golden suite pins this for the figure and matrix CSVs.
//!
//! The same determinism makes the cache *durable*: an executor opened with
//! [`PlanExecutor::with_store`] adds a persistent tier
//! ([`crate::store::RunStore`]) between the in-memory map and live
//! execution. Lookups resolve **memory hit → disk hit → live execute**,
//! and every live execution is appended back to the store, so a warm
//! regeneration of the full artifact set executes nothing, while an
//! experiment tweak (the platform-config digest lives in every canonical
//! key) re-executes exactly the invalidated frontier.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::ops::AddAssign;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use prem_core::{
    execute_run, profile_run, CompiledRun, Executed, IntervalSpec, NoiseModel, RunOutput, RunWork,
};
use prem_gpusim::{PlatformConfig, Scenario};
use prem_kernels::arena::{tiling_key, TilingKey};
use prem_kernels::Kernel;
use prem_obs::{MetricsSink, NullMetrics, Span};

use crate::pool::parallel_map;
use crate::seed::fingerprint;
use crate::spec::{scenario_name, MatrixPolicy, MatrixScenario};
use crate::store::RunStore;
use crate::wire::PlatformId;

/// A named platform template, plus an optional LLC-policy override: how a
/// request's platform is constructed. The per-request LLC seed and
/// co-runner mix are applied at resolution time from the request's own
/// coordinates.
///
/// The name and config are read-only. A template is built and digested
/// once, by [`PlatformSpec::new`] or by [`PlatformId::spec`], which hands
/// out one shared template per preset per process. Every clone (a matrix
/// cell, a figure request, a served job) shares the name, the config and
/// the key digest behind one [`Arc`]. A hand-modified config is a new
/// template, built with [`PlatformSpec::new`].
#[derive(Clone, Debug)]
pub struct PlatformSpec {
    template: Arc<Template>,
    /// Optional LLC replacement-policy override (the matrix's policy
    /// axis); `None` keeps the template's own policy, as the figure
    /// experiments do.
    pub policy: Option<MatrixPolicy>,
}

/// The shared, immutable part of a [`PlatformSpec`].
#[derive(Debug)]
struct Template {
    name: String,
    config: PlatformConfig,
    /// [`fingerprint`] of the config's `Debug` spelling: the digest every
    /// canonical key carries next to the name.
    digest: u64,
}

impl PlatformSpec {
    /// A named platform template with no policy override. The config is
    /// digested here, once, for every key of every request on it.
    pub fn new(name: impl Into<String>, config: PlatformConfig) -> Self {
        let digest = fingerprint(&format!("{config:?}"));
        PlatformSpec {
            template: Arc::new(Template {
                name: name.into(),
                config,
                digest,
            }),
            policy: None,
        }
    }

    /// The paper's TX1 platform — the template every figure experiment
    /// runs on: [`PlatformId::Tx1`]'s shared template.
    pub fn tx1() -> Self {
        PlatformId::Tx1.spec(None)
    }

    /// Short stable name used in canonical keys and reports (`tx1`,
    /// `tx2`, …). The key also carries a digest of the full config, so
    /// two different configs under the same name never alias.
    pub fn name(&self) -> &str {
        &self.template.name
    }

    /// The platform template's configuration.
    pub fn config(&self) -> &PlatformConfig {
        &self.template.config
    }

    /// Overrides the LLC replacement policy.
    pub fn with_policy(mut self, policy: MatrixPolicy) -> Self {
        self.policy = Some(policy);
        self
    }
}

/// One canonical simulator invocation: every consumer-level run — a figure
/// grid point, a matrix cell half, a bench entry — lowers to this.
#[derive(Clone, Debug)]
pub struct RunRequest<'k> {
    /// The kernel to tile and execute.
    pub kernel: &'k dyn Kernel,
    /// Platform construction recipe.
    pub platform: PlatformSpec,
    /// Execution mode (LLC-PREM / SPM-PREM / baseline).
    pub work: RunWork,
    /// PREM interval size in bytes (also the baseline's tiling size).
    pub t_bytes: usize,
    /// Seed for every randomized component of the run.
    pub seed: u64,
    /// Contention scenario: a paper preset or a named co-runner mix.
    pub scenario: MatrixScenario,
    /// Unmanaged compute-phase traffic model.
    pub noise: NoiseModel,
}

impl RunRequest<'_> {
    /// The canonical content key: every coordinate that influences the
    /// run's outcome, spelled stably. Two requests with equal keys are the
    /// same simulation; two requests with different keys may never share a
    /// cache slot. Names alone are not trusted: the platform template is
    /// folded in as a digest of its full configuration and a co-runner mix
    /// as a digest of its profile list, so a renamed, hand-modified or
    /// same-named-but-different template/mix cannot alias another.
    pub fn key(&self) -> String {
        let policy = self
            .platform
            .policy
            .map(|p| p.name())
            .unwrap_or("template-policy");
        // A mix folds a digest of its profile list in, so same-named-but-
        // different mixes cannot alias.
        let scenario = match &self.scenario {
            MatrixScenario::Preset(s) => scenario_name(*s).to_string(),
            MatrixScenario::Mix(m) => format!("{}#{:016x}", m.name(), m.digest()),
        };
        self.key_slots(policy, &self.seed.to_string(), &scenario)
    }

    /// The derivation **base key**: [`RunRequest::key`] with the three
    /// replay-invariant axes — the LLC policy override, the seed and the
    /// scenario — wildcarded. Requests sharing a base key agree on every
    /// other coordinate (kernel, platform template digest, work, T,
    /// noise), so their resolved platforms differ at most in LLC policy,
    /// seed and co-runner list, and one compiled stream serves them all: a
    /// member whose mix can be priced ([`RunRequest::replay_eligible`]) is
    /// priced from its trajectory class's walk — the M-phase runs
    /// token-held and such a mix never pollutes the LLC, so the scenario
    /// changes what a C-phase miss costs, never which accesses miss — and
    /// any other member runs live on that walk's WCETs. Distinct base keys
    /// never share a family; equal base keys with unequal keys are
    /// siblings.
    pub fn base_key(&self) -> String {
        self.key_slots("*", "*", "*")
    }

    /// The canonical key skeleton with every wildcardable slot explicit —
    /// the single format string behind [`RunRequest::key`] and
    /// [`RunRequest::base_key`]. The platform slot is the template's name
    /// and the digest of its full configuration, taken when the template
    /// was built, so a renamed or hand-modified template can never alias
    /// another.
    fn key_slots(&self, policy: &str, seed: &str, scenario: &str) -> String {
        format!(
            "{}({})|{}#{:016x}|{}|{}|{}|t{}|s{}|n{}x{}",
            self.kernel.name(),
            self.kernel.dims(),
            self.platform.name(),
            self.platform.template.digest,
            policy,
            scenario,
            self.work.key(),
            self.t_bytes,
            seed,
            self.noise.lines,
            self.noise.every,
        )
    }

    /// Stable content fingerprint of [`RunRequest::key`] — identical
    /// across processes for the same request (see
    /// [`crate::seed::fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        fingerprint(&self.key())
    }

    /// The fully-resolved platform configuration: template, then policy
    /// override (instantiated at the template's associativity), then the
    /// request seed, then the scenario's co-runner actors — the exact
    /// construction order the matrix engine has always used.
    pub fn resolved_platform(&self) -> PlatformConfig {
        let mut cfg = self.platform.config().clone();
        if let Some(policy) = self.platform.policy {
            let ways = cfg.llc.ways();
            cfg = cfg.llc_policy(policy.instantiate(ways));
        }
        let corunners = match &self.scenario {
            MatrixScenario::Preset(_) => Vec::new(),
            MatrixScenario::Mix(m) => m.profiles().to_vec(),
        };
        cfg.llc_seed(self.seed).with_corunners(corunners)
    }

    /// Tiles the kernel, resolves the platform and executes the request
    /// through the core bridge ([`prem_core::execute_run`]).
    ///
    /// # Panics
    ///
    /// Panics when the kernel cannot be tiled at `t_bytes` or the SPM
    /// strategy overflows the scratchpad — plan-built experiment
    /// configurations are expected to respect kernel and platform limits,
    /// exactly as the pre-plan runners did.
    pub fn execute(&self) -> RunOutput {
        self.run(None).output
    }

    /// [`RunRequest::execute`] with an optional profiling result from
    /// [`RunRequest::profile`] (for this request or any request equal to it
    /// up to the scenario): `Some` skips the profiling pass; the output is
    /// bit-identical either way.
    ///
    /// # Panics
    ///
    /// Exactly as [`RunRequest::execute`].
    pub fn execute_profiled(&self, profiled: Option<(f64, f64)>) -> RunOutput {
        self.run(profiled).output
    }

    /// Runs only the isolated profiling pass, returning its
    /// `(m_wcet, c_wcet)` — `None` for baseline work. The result is valid
    /// for every request equal to this one up to the scenario, and equals
    /// the WCETs of the request's trajectory class walk
    /// ([`CompiledRun::wcets`]), which the plan layer hands its live
    /// family members instead.
    ///
    /// # Panics
    ///
    /// Exactly as [`RunRequest::execute`].
    pub fn profile(&self) -> Option<(f64, f64)> {
        profile_run(
            &self.resolved_platform(),
            &self.tiled_intervals(),
            self.work,
            self.seed,
            self.noise,
        )
        .unwrap_or_else(|e| panic!("{} ({}): {e}", self.kernel.name(), self.key()))
    }

    /// [`RunRequest::execute`] additionally reporting the
    /// `(m_wcet, c_wcet)` the run's budgets derive from (`None` for
    /// baseline work). Under an idle mix the run is its own isolated
    /// profiling pass, so self-profiling costs one walk; any other mix
    /// runs an isolated pass first, two walks in all.
    ///
    /// # Panics
    ///
    /// Exactly as [`RunRequest::execute`].
    pub fn execute_reporting_profile(&self) -> (RunOutput, Option<(f64, f64)>) {
        let run = self.run(None);
        (run.output, run.wcets)
    }

    /// The one live execution path behind every `execute*` form: tiles,
    /// resolves and runs the request through [`prem_core::execute_run`]
    /// with the profile source `profiled`, panicking on execution errors as
    /// documented on [`RunRequest::execute`].
    fn run(&self, profiled: Option<(f64, f64)>) -> Executed {
        execute_run(
            &self.resolved_platform(),
            &self.tiled_intervals(),
            self.work,
            self.seed,
            self.resolved_scenario(),
            self.noise,
            profiled,
        )
        .unwrap_or_else(|e| self.refused(e))
    }

    /// Panics with the request's identity and the execution error — what
    /// every plan-built request that breaks a kernel or platform limit
    /// gets, live or compiled.
    fn refused(&self, e: impl fmt::Display) -> ! {
        panic!("{} ({}): {e}", self.kernel.name(), self.key())
    }

    /// The core-level scenario the request executes under (a mix activates
    /// its actors via [`Scenario::Corunners`]).
    pub fn resolved_scenario(&self) -> Scenario {
        match &self.scenario {
            MatrixScenario::Preset(s) => *s,
            MatrixScenario::Mix(_) => Scenario::Corunners,
        }
    }

    /// Tiles the kernel at the request's interval size through the shared
    /// interval arena ([`prem_kernels::arena`]): one build per distinct
    /// (kernel identity, dims, T) while any holder keeps the stream alive,
    /// so a request's profiling pass, timed run, scenario siblings and
    /// pool neighbors (the executor holds each key for the length of a
    /// plan call) all share one allocation. Panics on untileable
    /// configurations exactly like [`RunRequest::execute`].
    pub fn tiled_intervals(&self) -> Arc<[IntervalSpec]> {
        prem_kernels::arena::shared()
            .get(self.kernel, self.t_bytes)
            .unwrap_or_else(|e| panic!("{}: {e}", self.kernel.name()))
    }

    /// Whether this request's output can be priced from its derivation
    /// family's walk: its co-runner mix satisfies
    /// [`prem_core::replay_eligible`] — constant contention, no LLC
    /// pollution — whatever its work.
    pub fn replay_eligible(&self) -> bool {
        prem_core::replay_eligible(&self.resolved_platform(), self.resolved_scenario())
    }

    /// Compiles this request's family stream ([`CompiledRun::compile`])
    /// from its tiling: every request with the same
    /// [`RunRequest::base_key`] — different LLC policy, seed or scenario —
    /// walks it, and every replay-eligible one derives its output from it
    /// via [`RunRequest::replay_from`]. Panics as [`RunRequest::execute`]
    /// does (a compiled SPM tiling refuses exactly what a live run does).
    fn compile(&self) -> CompiledRun {
        CompiledRun::compile(
            &self.resolved_platform(),
            &self.tiled_intervals(),
            self.work,
            self.noise,
        )
        .unwrap_or_else(|e| self.refused(e))
    }

    /// [`RunRequest::execute`] plus a compile of the request's family
    /// stream ([`CompiledRun::compile`]): the live output and the stream
    /// every eligible sibling derives from via
    /// [`RunRequest::replay_from`].
    ///
    /// # Panics
    ///
    /// As [`RunRequest::execute`].
    pub fn execute_captured(&self) -> (RunOutput, CompiledRun) {
        (self.execute(), self.compile())
    }

    /// Derives this request's output from a family member's compiled
    /// stream — one walk and one price — instead of executing it. The
    /// result is bit-identical to [`RunRequest::execute`], the contract
    /// the plan-replay equivalence suite proves.
    ///
    /// # Panics
    ///
    /// Panics (in [`CompiledRun::replay_for`]) when `compiled` was not
    /// compiled for a sibling — this request's resolved platform differs
    /// from the compiled one beyond the LLC policy, seed and co-runner
    /// axes — or when this request is not [`RunRequest::replay_eligible`].
    pub fn replay_from(&self, compiled: &CompiledRun) -> RunOutput {
        compiled.replay_for(
            &self.resolved_platform(),
            self.seed,
            self.resolved_scenario(),
        )
    }
}

/// Where renderers obtain run outputs. Figure modules are written against
/// this, so the same rendering code serves a standalone one-plan call and a
/// merged cross-figure plan; [`PlanExecutor`] is the one implementation.
pub trait RunSource: Sync {
    /// The output for `req`, executing it if it is not already available.
    fn output(&self, req: &RunRequest<'_>) -> RunOutput;
}

/// Shard count of the result cache. A power of two so the fingerprint can
/// select a shard by masking; 16 keeps lock contention negligible at any
/// realistic worker count.
const SHARDS: usize = 16;

/// One schedulable piece of a plan's frontier: with replay on, a whole
/// derivation family (compiled once, every member priced or run live on
/// its class's WCETs); with replay off, a plain self-profiling live run —
/// indices into the frontier/family tables of one
/// [`PlanExecutor::execute_metered`] call.
enum Unit {
    Live(usize),
    Family(usize),
}

/// The tiled stream of one tiling key ([`prem_kernels::arena::TilingKey`])
/// for the length of one [`PlanExecutor::execute_metered`] call: the key's
/// first unit builds it through the shared arena, the units after it find
/// it there, and the key's last unit to finish drops it.
struct StreamPin {
    /// The pinned stream, and how many of the key's units have not yet
    /// finished.
    state: Mutex<(Option<Arc<[IntervalSpec]>>, usize)>,
}

impl StreamPin {
    fn new(units: usize) -> Self {
        StreamPin {
            state: Mutex::new((None, units)),
        }
    }

    /// Pins `req`'s stream unless an earlier unit of the key already did;
    /// the tiling is one `plan.tile_ns` sample.
    fn hold<M: MetricsSink>(&self, req: &RunRequest<'_>, metrics: &M) {
        let mut state = self.state.lock().expect("stream pin poisoned");
        if state.0.is_none() {
            let _tile = Span::start(metrics, "plan.tile_ns");
            state.0 = Some(req.tiled_intervals());
        }
    }

    /// Marks one unit of the key finished; the last one unpins the stream.
    fn release(&self) {
        let mut state = self.state.lock().expect("stream pin poisoned");
        state.1 -= 1;
        if state.1 == 0 {
            state.0 = None;
        }
    }
}

/// Cumulative counters of one [`PlanExecutor`] (or the delta of a single
/// [`PlanExecutor::execute`] call).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PlanSummary {
    /// Requests submitted.
    pub requested: usize,
    /// Unique requests executed live: with replay on, the family members
    /// whose co-runner mix cannot be priced (time-varying or polluting),
    /// run on their class's WCETs; with replay off, all of them.
    pub executed: usize,
    /// Duplicates elided within submitted plans (same key submitted more
    /// than once).
    pub elided: usize,
    /// Requests served from the cache (executed by an earlier plan or a
    /// lazy [`RunSource::output`] call).
    pub hits: usize,
    /// Requests served from the persistent on-disk store
    /// ([`PlanExecutor::with_store`]); always zero on a store-less
    /// executor.
    pub disk_hits: usize,
    /// Requests derived from their family's compiled stream instead of
    /// executing the simulator (bit-identical by contract).
    pub replayed: usize,
    /// Derivation families that priced at least one member: one per
    /// distinct base key among the frontier's replay-eligible requests, a
    /// family of one included.
    pub families: usize,
}

impl AddAssign<&PlanSummary> for PlanSummary {
    /// Field-wise accumulation — the aggregation the executor's running
    /// totals and the serve front end's tick totals and flush barriers are
    /// built on.
    fn add_assign(&mut self, rhs: &PlanSummary) {
        self.requested += rhs.requested;
        self.executed += rhs.executed;
        self.elided += rhs.elided;
        self.hits += rhs.hits;
        self.disk_hits += rhs.disk_hits;
        self.replayed += rhs.replayed;
        self.families += rhs.families;
    }
}

impl fmt::Display for PlanSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "plan: requested={} unique={} elided={} cache-hits={} disk-hits={} \
             replayed={} families={}",
            self.requested,
            self.executed,
            self.elided,
            self.hits,
            self.disk_hits,
            self.replayed,
            self.families
        )
    }
}

/// The content-addressed execution pipeline: expands submitted plans,
/// dedupes by canonical key, executes the unique frontier on the
/// work-claiming pool and memoizes every output in a sharded in-memory
/// cache. See the [module docs](self) for the design.
#[derive(Debug)]
pub struct PlanExecutor {
    shards: Vec<Mutex<HashMap<String, RunOutput>>>,
    store: Option<RunStore>,
    replay: bool,
    /// The running [`PlanExecutor::summary`]: every call's summary, and
    /// every lazy [`RunSource::output`] hit, added in.
    totals: Mutex<PlanSummary>,
}

impl Default for PlanExecutor {
    fn default() -> Self {
        PlanExecutor::new()
    }
}

impl PlanExecutor {
    /// An empty executor with no persistent tier.
    pub fn new() -> Self {
        PlanExecutor {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            store: None,
            replay: true,
            totals: Mutex::new(PlanSummary::default()),
        }
    }

    /// Disables replay-backed derivation: every unique request executes
    /// the simulator live and profiles itself. The escape hatch behind the
    /// front ends' `--no-replay` flag; also the reference the equivalence
    /// suites compare replay-enabled execution against.
    pub fn without_replay(mut self) -> Self {
        self.replay = false;
        self
    }

    /// Returns the executor unchanged, for callers that switch off profile
    /// sharing: no run shares a profiling pass (with replay on, live runs
    /// take their WCETs from their family's walk; with replay off, each
    /// profiles itself), so there is nothing to switch.
    pub fn without_profile_memo(self) -> Self {
        self
    }

    /// Attaches the persistent store `store` as this executor's durable
    /// tier: lookups resolve memory hit → disk hit → live execute, and
    /// every live execution is appended to the store, so a later process
    /// (or a later plan in this one) can serve it from disk. A chainable
    /// combinator like [`PlanExecutor::without_replay`]:
    /// `PlanExecutor::new().with_store(s).without_replay()` reads as one
    /// construction.
    ///
    /// Store failures — I/O errors and any form of on-disk corruption —
    /// panic: a cache that silently degrades to re-execution would mask
    /// the corruption it found. Recovery is deleting the cache directory.
    pub fn with_store(mut self, store: RunStore) -> Self {
        self.store = Some(store);
        self
    }

    /// The persistent tier, if this executor has one.
    pub fn store(&self) -> Option<&RunStore> {
        self.store.as_ref()
    }

    /// Probes the persistent tier for `key`. Hard-errors (panics) on
    /// store corruption or I/O failure, per the store's contract.
    fn disk_lookup<M: MetricsSink>(&self, key: &str, metrics: &M) -> Option<RunOutput> {
        self.store.as_ref().and_then(|store| {
            store
                .get_metered(key, metrics)
                .unwrap_or_else(|e| panic!("persistent run store failure: {e}"))
        })
    }

    /// Appends freshly executed outputs to the persistent tier (no-op
    /// without one). Hard-errors (panics) on store corruption or I/O
    /// failure.
    fn persist<'e, M: MetricsSink>(
        &self,
        entries: impl IntoIterator<Item = (&'e str, &'e RunOutput)>,
        metrics: &M,
    ) {
        if let Some(store) = &self.store {
            store
                .append_metered(entries, metrics)
                .unwrap_or_else(|e| panic!("persistent run store failure: {e}"));
        }
    }

    fn shard(&self, key: &str) -> &Mutex<HashMap<String, RunOutput>> {
        &self.shards[(fingerprint(key) as usize) & (SHARDS - 1)]
    }

    fn lookup(&self, key: &str) -> Option<RunOutput> {
        self.shard(key)
            .lock()
            .expect("plan cache shard poisoned")
            .get(key)
            .cloned()
    }

    /// Presence probe without cloning the cached output (dedup hot path).
    fn contains(&self, key: &str) -> bool {
        self.shard(key)
            .lock()
            .expect("plan cache shard poisoned")
            .contains_key(key)
    }

    /// Whether `key` would be served without any live execution or replay:
    /// a memory hit or (on a store-backed executor) a disk hit. The
    /// budgeted tick scheduler of `prem-serve` uses this to charge cached
    /// requests zero pool units. Hard-errors (panics) on store corruption
    /// or I/O failure, per the store's contract.
    pub fn cached(&self, key: &str) -> bool {
        self.contains(key)
            || self
                .store
                .as_ref()
                .map(|store| {
                    store
                        .contains(key)
                        .unwrap_or_else(|e| panic!("persistent run store failure: {e}"))
                })
                .unwrap_or(false)
    }

    fn insert(&self, key: String, output: RunOutput) {
        self.shard(&key)
            .lock()
            .expect("plan cache shard poisoned")
            .insert(key, output);
    }

    /// Adds `delta` to the running totals.
    fn tally(&self, delta: &PlanSummary) {
        *self.totals.lock().expect("plan totals poisoned") += delta;
    }

    /// Expands `requests` into the unique, not-yet-cached frontier,
    /// executes it on `workers` pool threads at run granularity, caches
    /// every output, and reports what happened *in this call*. Results are
    /// independent of the worker count (each request owns its platform and
    /// seed), so any consumer of the cache renders byte-identical
    /// artifacts at any parallelism.
    ///
    /// This is the [`PlanExecutor::execute_metered`] monomorphization
    /// against [`NullMetrics`] — the instrumentation compiles to nothing
    /// here, which the `obs` criterion bench pins.
    pub fn execute(&self, requests: &[RunRequest<'_>], workers: usize) -> PlanSummary {
        self.execute_metered(requests, workers, &NullMetrics)
    }

    /// [`PlanExecutor::execute`] with metrics: expansion/dedup and pool
    /// spans (`plan.expand_ns`, `plan.execute_ns`, per-unit
    /// `plan.unit_ns`, per-tiling-key `plan.tile_ns`, per-compile
    /// `plan.compile_ns`, per-member `plan.live_ns`/`plan.replay_ns` — a
    /// family member's sample is its timed run or pricing plus the
    /// trajectory walk it triggered, if any), the tier counters
    /// (`plan.live_runs`, `plan.memory_hits`, `plan.disk_hits`,
    /// `plan.replayed`, `plan.replay_walks`, …), the M-phase prefetches
    /// the walks simulated and credited as hits (`plan.prefetch_walked`,
    /// `plan.prefetch_credited`, added once per family unit that walks),
    /// family fan-out (`plan.family_fanout`) and pool shape gauges
    /// (`plan.pool_units`, `plan.pool_workers`,
    /// `plan.pool_utilization_permille`) land in `metrics`. Counters are
    /// added even when zero, so a fully warm run still materializes
    /// `plan.live_runs=0` in the snapshot. Metrics are strictly
    /// write-only: outputs and the returned summary are byte-identical to
    /// [`PlanExecutor::execute`], with any sink.
    pub fn execute_metered<M: MetricsSink>(
        &self,
        requests: &[RunRequest<'_>],
        workers: usize,
        metrics: &M,
    ) -> PlanSummary {
        let _whole = Span::start(metrics, "plan.execute_ns");
        let expand = Span::start(metrics, "plan.expand_ns");
        let mut claimed = HashSet::new();
        let mut frontier: Vec<(String, &RunRequest<'_>)> = Vec::new();
        let mut summary = PlanSummary {
            requested: requests.len(),
            ..PlanSummary::default()
        };
        for req in requests {
            let key = req.key();
            if claimed.contains(&key) {
                summary.elided += 1;
            } else if self.contains(&key) {
                claimed.insert(key);
                summary.hits += 1;
            } else if let Some(output) = self.disk_lookup(&key, metrics) {
                self.insert(key.clone(), output);
                claimed.insert(key);
                summary.disk_hits += 1;
            } else {
                claimed.insert(key.clone());
                frontier.push((key, req));
            }
        }
        // With replay on, partition the frontier into derivation families
        // by base key, in first-occurrence order: policy, seed and
        // scenario siblings together, and a lone request a family of one.
        // A member whose mix can be priced is derived; any other runs live
        // inside its family's unit. With replay off every request is a
        // self-profiling live unit.
        let priced: Vec<bool> = frontier
            .iter()
            .map(|(_, req)| self.replay && req.replay_eligible())
            .collect();
        let mut families: Vec<Vec<usize>> = Vec::new();
        if self.replay {
            let mut by_base: HashMap<String, usize> = HashMap::new();
            for (i, (_, req)) in frontier.iter().enumerate() {
                let f = *by_base.entry(req.base_key()).or_insert_with(|| {
                    families.push(Vec::new());
                    families.len() - 1
                });
                families[f].push(i);
            }
        }
        drop(expand);
        for members in &families {
            metrics.observe("plan.family_fanout", members.len() as u64);
        }

        // Schedule units: a family is one unit — compiled from the tiling,
        // walked, priced and run, and its compiled stream drops with the
        // unit. Families execute as units so peak stream memory is bounded
        // by the worker count, never the family count (a paper-scale
        // merged plan forms hundreds of families; their streams must not
        // be alive simultaneously). Derivation is deterministic in
        // (compiled stream, request), so outputs stay independent of the
        // worker count and of scheduling.
        //
        // Units run grouped by tiling key, in first-occurrence order of the
        // keys and in frontier order within a key, and each key's stream is
        // pinned from its first unit to its last: a key is tiled once per
        // call, however many units share it, and at one worker exactly one
        // stream is alive at a time.
        let units: Vec<Unit> = if self.replay {
            (0..families.len()).map(Unit::Family).collect()
        } else {
            (0..frontier.len()).map(Unit::Live).collect()
        };
        let unit_req = |unit: &Unit| match *unit {
            Unit::Live(i) => frontier[i].1,
            Unit::Family(f) => frontier[families[f][0]].1,
        };
        let mut by_tiling: HashMap<TilingKey, usize> = HashMap::new();
        let mut groups: Vec<Vec<&Unit>> = Vec::new();
        for unit in &units {
            let req = unit_req(unit);
            let g = *by_tiling
                .entry(tiling_key(req.kernel, req.t_bytes))
                .or_insert_with(|| {
                    groups.push(Vec::new());
                    groups.len() - 1
                });
            groups[g].push(unit);
        }
        let pins: Vec<StreamPin> = groups.iter().map(|g| StreamPin::new(g.len())).collect();
        let tasks: Vec<(&Unit, &StreamPin)> = groups
            .into_iter()
            .zip(&pins)
            .flat_map(|(group, pin)| group.into_iter().map(move |unit| (unit, pin)))
            .collect();
        let busy_ns = AtomicU64::new(0);
        let pool_start = metrics.enabled().then(Instant::now);
        let unit_outputs = parallel_map(workers, &tasks, |(unit, pin)| {
            let unit_start = metrics.enabled().then(Instant::now);
            pin.hold(unit_req(unit), metrics);
            let outs = self.run_unit(unit, &frontier, &priced, &families, metrics);
            pin.release();
            if let Some(start) = unit_start {
                let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                metrics.observe("plan.unit_ns", ns);
                busy_ns.fetch_add(ns, Ordering::Relaxed);
            }
            outs
        });
        if let Some(start) = pool_start {
            let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            metrics.observe("plan.pool_wall_ns", wall_ns);
            metrics.gauge("plan.pool_units", units.len() as i64);
            metrics.gauge("plan.pool_workers", workers as i64);
            // Worker utilization: summed per-unit busy time over the
            // pool's total capacity (wall × workers), in permille so the
            // gauge stays integer-valued.
            let capacity = wall_ns.saturating_mul(workers as u64);
            let busy = busy_ns.load(Ordering::Relaxed).saturating_mul(1000);
            if let Some(permille) = busy.checked_div(capacity) {
                metrics.gauge("plan.pool_utilization_permille", permille as i64);
            }
        }

        summary.replayed = priced.iter().filter(|&&p| p).count();
        summary.executed = frontier.len() - summary.replayed;
        summary.families = families
            .iter()
            .filter(|members| members.iter().any(|&i| priced[i]))
            .count();
        let mut outputs: Vec<Option<RunOutput>> = (0..frontier.len()).map(|_| None).collect();
        let mut replay_walks = 0;
        for (outs, walks) in unit_outputs {
            replay_walks += walks;
            for (i, output) in outs {
                outputs[i] = Some(output);
            }
        }
        let outputs: Vec<RunOutput> = outputs
            .into_iter()
            .map(|o| o.expect("every frontier slot is filled by exactly one unit"))
            .collect();

        // Replayed outputs persist and memoize exactly like live ones:
        // they are bit-identical to live execution, so the store stays a
        // pure content-addressed cache.
        self.persist(
            frontier
                .iter()
                .map(|(key, _)| key.as_str())
                .zip(outputs.iter()),
            metrics,
        );
        for ((key, _), output) in frontier.into_iter().zip(outputs) {
            self.insert(key, output);
        }
        self.tally(&summary);
        // Counters are added unconditionally — a zero delta still
        // materializes the key, so a fully warm snapshot reports
        // `plan.live_runs=0` instead of omitting it (the CI warm gate
        // reads exactly that).
        metrics.add("plan.requested", summary.requested as u64);
        metrics.add("plan.live_runs", summary.executed as u64);
        metrics.add("plan.elided", summary.elided as u64);
        metrics.add("plan.memory_hits", summary.hits as u64);
        metrics.add("plan.disk_hits", summary.disk_hits as u64);
        metrics.add("plan.replayed", summary.replayed as u64);
        metrics.add("plan.replay_walks", replay_walks as u64);
        metrics.add("plan.families", summary.families as u64);
        summary
    }

    /// Executes one scheduled unit — a plain live run, or a whole
    /// derivation family — returning `(frontier index, output)` pairs and
    /// the number of trajectory walks it made. The caller pins the unit's
    /// tiled stream.
    ///
    /// A family compiles only when a member needs a walk: a priced member,
    /// or a live one whose budgets need its class's WCETs (a live
    /// baseline run profiles nothing). Members then go one trajectory
    /// class at a time, classes in first-occurrence order: the class's
    /// first member walks the compiled stream, every member of the class
    /// is priced from that trajectory or runs live on its WCETs, and the
    /// trajectory drops. Each member leaves one `plan.replay_ns` (priced)
    /// or `plan.live_ns` (live) sample: its own work, plus the walk when
    /// it triggered one.
    fn run_unit<M: MetricsSink>(
        &self,
        unit: &Unit,
        frontier: &[(String, &RunRequest<'_>)],
        priced: &[bool],
        families: &[Vec<usize>],
        metrics: &M,
    ) -> (Vec<(usize, RunOutput)>, usize) {
        let span = |i: usize| {
            let name = if priced[i] {
                "plan.replay_ns"
            } else {
                "plan.live_ns"
            };
            Span::start(metrics, name)
        };
        let members = match *unit {
            Unit::Live(i) => {
                let _live = span(i);
                return (vec![(i, frontier[i].1.run(None).output)], 0);
            }
            Unit::Family(f) => &families[f],
        };
        let mut outs = Vec::with_capacity(members.len());
        let mut pending: Vec<(usize, PlatformConfig)> = Vec::new();
        for &i in members {
            let req = frontier[i].1;
            if priced[i] || req.work != RunWork::Baseline {
                pending.push((i, req.resolved_platform()));
            } else {
                let _live = span(i);
                outs.push((i, req.run(None).output));
            }
        }
        let Some(&(first, _)) = pending.first() else {
            return (outs, 0);
        };
        let compiled = {
            let _compile = Span::start(metrics, "plan.compile_ns");
            frontier[first].1.compile()
        };
        let mut walks = 0;
        let (mut walked, mut credited) = (0, 0);
        while let Some((first, cfg)) = pending.first() {
            let mut first_span = Some(span(*first));
            let trajectory = compiled.walk(cfg, frontier[*first].1.seed);
            walks += 1;
            let (simulated, skipped) = trajectory.prefetch_work();
            walked += simulated;
            credited += skipped;
            pending.retain(|(i, cfg)| {
                let req = frontier[*i].1;
                if !trajectory.serves(cfg, req.seed) {
                    return true;
                }
                let _member = first_span.take().unwrap_or_else(|| span(*i));
                let output = if priced[*i] {
                    compiled
                        .price(&trajectory, cfg, req.seed, req.resolved_scenario())
                        .output
                } else {
                    req.run(compiled.wcets(&trajectory)).output
                };
                outs.push((*i, output));
                false
            });
        }
        metrics.add("plan.prefetch_walked", walked);
        metrics.add("plan.prefetch_credited", credited);
        (outs, walks)
    }

    /// Cumulative counters over the executor's lifetime, including lazy
    /// [`RunSource::output`] executions and hits.
    pub fn summary(&self) -> PlanSummary {
        *self.totals.lock().expect("plan totals poisoned")
    }

    /// Requests this executor has simulated — executed live or derived
    /// from a compiled family — rather than served from a cache tier (the
    /// execution-count probe the dedup tests assert on).
    pub fn executed_runs(&self) -> usize {
        let totals = self.summary();
        totals.executed + totals.replayed
    }

    /// Number of distinct outputs currently cached.
    pub fn cached_runs(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("plan cache shard poisoned").len())
            .sum()
    }
}

impl RunSource for PlanExecutor {
    /// Serves `req` from memory, or else as a one-request plan: disk hit
    /// (with a persistent store) or execution on the calling thread,
    /// memoized in memory and appended to the store — so the
    /// data-dependent tail of a figure (e.g. a best-T follow-up) stays
    /// correct and warm-cacheable even when its requests were not part of
    /// any submitted plan.
    fn output(&self, req: &RunRequest<'_>) -> RunOutput {
        let key = req.key();
        if let Some(out) = self.lookup(&key) {
            self.tally(&PlanSummary {
                requested: 1,
                hits: 1,
                ..PlanSummary::default()
            });
            return out;
        }
        self.execute(std::slice::from_ref(req), 1);
        self.lookup(&key)
            .expect("a one-request plan caches its request")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prem_kernels::Bicg;
    use prem_memsim::KIB;

    fn req(kernel: &Bicg, work: RunWork, t: usize, seed: u64) -> RunRequest<'_> {
        RunRequest {
            kernel,
            platform: PlatformSpec::tx1(),
            work,
            t_bytes: t,
            seed,
            scenario: MatrixScenario::Preset(Scenario::Isolation),
            noise: NoiseModel::tx1(),
        }
    }

    #[test]
    fn key_covers_every_coordinate() {
        let k = Bicg::new(128, 128);
        let base = req(&k, RunWork::PremLlc { r: 8 }, 32 * KIB, 11);
        let key = base.key();
        assert_eq!(key, base.key(), "key must be stable");
        // Every varied coordinate must move the key.
        assert_ne!(key, req(&k, RunWork::PremLlc { r: 1 }, 32 * KIB, 11).key());
        assert_ne!(key, req(&k, RunWork::PremSpm, 32 * KIB, 11).key());
        assert_ne!(key, req(&k, RunWork::Baseline, 32 * KIB, 11).key());
        assert_ne!(key, req(&k, RunWork::PremLlc { r: 8 }, 64 * KIB, 11).key());
        assert_ne!(key, req(&k, RunWork::PremLlc { r: 8 }, 32 * KIB, 12).key());
        let mut intf = req(&k, RunWork::PremLlc { r: 8 }, 32 * KIB, 11);
        intf.scenario = MatrixScenario::Preset(Scenario::Interference);
        assert_ne!(key, intf.key());
        let mut noisy = req(&k, RunWork::PremLlc { r: 8 }, 32 * KIB, 11);
        noisy.noise = NoiseModel::off();
        assert_ne!(key, noisy.key());
        let k2 = Bicg::new(192, 160);
        assert_ne!(key, req(&k2, RunWork::PremLlc { r: 8 }, 32 * KIB, 11).key());
    }

    #[test]
    fn same_named_mix_with_different_profiles_cannot_alias() {
        use crate::spec::CorunnerMix;
        use prem_gpusim::CorunnerProfile;
        let k = Bicg::new(128, 128);
        let mut a = req(&k, RunWork::PremLlc { r: 8 }, 32 * KIB, 11);
        a.scenario = MatrixScenario::Mix(CorunnerMix::new("mix", vec![CorunnerProfile::Membomb]));
        let mut b = a.clone();
        b.scenario = MatrixScenario::Mix(CorunnerMix::new("mix", vec![CorunnerProfile::Stream]));
        assert_ne!(a.key(), b.key(), "same name, different actors");
        // An independently rebuilt identical mix still dedups.
        let mut c = a.clone();
        c.scenario = MatrixScenario::Mix(CorunnerMix::new("mix", vec![CorunnerProfile::Membomb]));
        assert_eq!(a.key(), c.key());
    }

    #[test]
    fn hand_modified_template_cannot_alias_a_preset() {
        let k = Bicg::new(128, 128);
        let preset = req(&k, RunWork::PremLlc { r: 8 }, 32 * KIB, 11);
        let mut config = preset.platform.config().clone();
        config.clock_ghz = 2.0;
        // Same name, different config.
        let doctored = RunRequest {
            platform: PlatformSpec::new(preset.platform.name(), config),
            ..preset.clone()
        };
        assert_ne!(preset.key(), doctored.key());
    }

    #[test]
    fn executor_dedupes_and_caches() {
        let k = Bicg::new(128, 128);
        let a = req(&k, RunWork::PremLlc { r: 8 }, 32 * KIB, 11);
        let b = req(&k, RunWork::Baseline, 32 * KIB, 11);
        let exec = PlanExecutor::new();
        // a submitted twice: one elision.
        let s = exec.execute(&[a.clone(), b.clone(), a.clone()], 1);
        assert_eq!((s.requested, s.replayed, s.elided, s.hits), (3, 2, 1, 0));
        assert_eq!(exec.cached_runs(), 2);
        // Resubmitting is all cache hits, nothing executes.
        let s = exec.execute(&[a.clone(), b.clone()], 1);
        assert_eq!((s.executed + s.replayed, s.hits), (0, 2));
        assert_eq!(exec.executed_runs(), 2);
        // Cached output equals a memo-free execution.
        assert_eq!(exec.output(&a), a.execute());
        assert_eq!(exec.executed_runs(), 2, "output() after execute() is a hit");
    }

    #[test]
    fn lazy_output_memoizes() {
        let k = Bicg::new(128, 128);
        let a = req(&k, RunWork::PremSpm, 32 * KIB, 11);
        let exec = PlanExecutor::new();
        let first = exec.output(&a);
        assert_eq!(exec.executed_runs(), 1);
        assert_eq!(exec.output(&a), first);
        assert_eq!(exec.executed_runs(), 1, "second output() must be a hit");
        assert_eq!(exec.summary().hits, 1);
    }

    #[test]
    fn store_backed_executor_serves_a_fresh_process_from_disk() {
        let dir = std::env::temp_dir().join(format!("prem-plan-store-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let k = Bicg::new(128, 128);
        let a = req(&k, RunWork::PremLlc { r: 8 }, 32 * KIB, 11);
        let b = req(&k, RunWork::Baseline, 32 * KIB, 11);
        let lazy = req(&k, RunWork::PremSpm, 32 * KIB, 11);

        // Cold process: everything is derived, then lands on disk.
        let cold = PlanExecutor::new().with_store(RunStore::open(&dir).expect("open"));
        let s = cold.execute(&[a.clone(), b.clone()], 1);
        assert_eq!((s.replayed, s.disk_hits), (2, 0));
        let lazy_out = cold.output(&lazy); // lazy tail persists too
        assert_eq!(
            cold.store().expect("store").stats().expect("stats").records,
            3
        );

        // Warm "second process": fresh executor, same directory — all
        // three requests are disk hits, zero live executions, outputs
        // byte-identical to the cold run.
        let warm = PlanExecutor::new().with_store(RunStore::open(&dir).expect("reopen"));
        let s = warm.execute(&[a.clone(), b.clone()], 1);
        assert_eq!((s.executed, s.hits, s.disk_hits), (0, 0, 2));
        assert_eq!(warm.output(&lazy), lazy_out);
        assert_eq!(warm.executed_runs(), 0);
        assert_eq!(warm.summary().disk_hits, 3);
        assert_eq!(warm.output(&a), a.execute());

        // An invalidating platform tweak changes the key, so only the
        // tweaked request is simulated again.
        let mut config = a.platform.config().clone();
        config.clock_ghz *= 2.0;
        let tweaked = RunRequest {
            platform: PlatformSpec::new(a.platform.name(), config),
            ..a.clone()
        };
        let s = warm.execute(&[tweaked, b.clone()], 1);
        assert_eq!((s.executed + s.replayed, s.hits, s.disk_hits), (1, 1, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metered_execution_is_output_identical_and_records_counters() {
        use prem_obs::{Histogram, Registry};
        let k = Bicg::new(128, 128);
        let reqs: Vec<RunRequest<'_>> = (0..3)
            .map(|i| req(&k, RunWork::PremLlc { r: 8 }, 32 * KIB, 11 + i))
            .collect();
        let plain = PlanExecutor::new();
        let metered = PlanExecutor::new();
        let registry = Registry::new();
        let s1 = plain.execute(&reqs, 1);
        let s2 = metered.execute_metered(&reqs, 2, &registry);
        assert_eq!(s1, s2, "metrics must not change the summary");
        for r in &reqs {
            assert_eq!(plain.output(r), metered.output(r));
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("plan.requested"), Some(3));
        assert_eq!(snap.counter("plan.live_runs"), Some(s2.executed as u64));
        assert_eq!(snap.counter("plan.replayed"), Some(s2.replayed as u64));
        assert_eq!(
            snap.counter("plan.disk_hits"),
            Some(0),
            "zero still present"
        );
        assert!(snap.hist("plan.execute_ns").is_some());
        assert!(snap.hist("plan.unit_ns").is_some());
        if s2.families > 0 {
            assert_eq!(snap.hist("plan.family_fanout").map(Histogram::max), Some(3));
        }
        // Summaries aggregate field-wise.
        let mut agg = PlanSummary::default();
        agg += &s1;
        agg += &s2;
        assert_eq!(agg.requested, 6);
        assert_eq!(agg.replayed, s1.replayed * 2);
    }

    #[test]
    fn executor_matches_direct_at_any_worker_count() {
        let k = Bicg::new(128, 128);
        let reqs: Vec<RunRequest<'_>> = (0..4)
            .map(|i| req(&k, RunWork::PremLlc { r: 8 }, 32 * KIB, 11 + i))
            .collect();
        let exec = PlanExecutor::new();
        exec.execute(&reqs, 4);
        for r in &reqs {
            assert_eq!(exec.output(r), r.execute());
        }
    }
}
