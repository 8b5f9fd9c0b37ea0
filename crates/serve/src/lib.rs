//! `prem-serve`: a budgeted sweep service over the run-plan layer.
//!
//! The `serve` binary is a long-running front end: it reads
//! newline-delimited sweep requests on stdin, decodes each into an
//! [`OwnedRunRequest`] (the wire form of the plan layer's
//! [`RunRequest`](prem_harness::RunRequest)), and executes everything
//! through one shared
//! [`PlanExecutor`] — typically store-backed, so overlapping clients and
//! repeated batches dedup against each other and against every figure or
//! matrix artifact ever generated into the same cache.
//!
//! Execution is *budgeted*: requests queue, and each scheduler tick
//! dispatches at most `budget` **pool units** — the plan layer's unit of
//! simulation work, where a live run counts once, a derivation family
//! (policy, seed and eligible scenario siblings derived from one stream
//! compiled from their tiling) counts once and a cached request counts
//! zero.
//! The selection is free-rider aware:
//! once a family is charged to the tick, every other member in the
//! queue rides along free, and cached requests are always
//! admitted, so a tick's *dispatch count* can far exceed its unit
//! budget while its *live simulation cost* never does. Per tick the
//! service surfaces queue depth, wait and execution-latency counters
//! ([`TickMetrics`], one machine-parseable `key=value` line), and warns
//! when a tick's wall time blows the configured budget.
//!
//! Every tick also streams into an owned [`prem_obs::Registry`]: the
//! executor and store record through their `*_metered` entry points, and
//! the service layers its own `serve.*` counters (ticks, dispatches,
//! queue depth, tick latency) on top. The `stats` command returns the
//! full snapshot as a `metrics <json>` line alongside the classic
//! counters, and the binary can persist it via `--metrics`.
//!
//! Protocol (one command per line; blank lines and `#` comments
//! ignored):
//!
//! ```text
//! req <tag> v1 kernel=bicg:512x512 platform=tx1 work=llc-r8 t=163840
//!     seed=11 scenario=isolation noise=64x32      (one line on the wire)
//! flush        run budgeted ticks until the queue drains
//! stats        report service counters
//! quit         drain, then exit (EOF behaves the same)
//! ```
//!
//! Responses stream back on stdout as `out <tag> fp=<hex> …` summaries
//! ([`Response::line`]), optionally carrying the full codec-encoded
//! [`RunOutput`] as hex. Malformed input is a hard error — the service
//! refuses the whole session rather than guessing, the same contract as
//! the store and codec layers.

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::io;
use std::time::Instant;

use prem_core::codec::bad_data;
use prem_core::RunOutput;
use prem_harness::{OwnedRunRequest, PlanExecutor, PlanSummary, ResolvedRunRequest, RunSource};
use prem_obs::{kv_line, MetricsSink, Registry};

/// One parsed protocol command (see the crate docs for the grammar).
#[derive(Debug)]
pub enum Command {
    /// `req <tag> <request-line>`: queue a run request under a
    /// client-chosen tag (echoed on the response).
    Request {
        /// The client's correlation tag (no whitespace).
        tag: String,
        /// The decoded request.
        request: OwnedRunRequest,
    },
    /// `flush`: run budgeted ticks until the queue drains.
    Flush,
    /// `stats`: report service counters.
    Stats,
    /// `quit`: drain, then exit.
    Quit,
}

impl Command {
    /// Parses one protocol line. `Ok(None)` for blank lines and `#`
    /// comments; malformed or unknown input is a hard error.
    pub fn parse(line: &str) -> io::Result<Option<Command>> {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            return Ok(None);
        }
        match trimmed {
            "flush" => return Ok(Some(Command::Flush)),
            "stats" => return Ok(Some(Command::Stats)),
            "quit" => return Ok(Some(Command::Quit)),
            _ => {}
        }
        let rest = trimmed
            .strip_prefix("req ")
            .ok_or_else(|| bad_data(&format!("unknown command `{trimmed}`")))?;
        let (tag, request_line) = rest
            .trim_start()
            .split_once(char::is_whitespace)
            .ok_or_else(|| bad_data("req needs `<tag> <request-line>`"))?;
        if tag.is_empty() {
            return Err(bad_data("empty request tag"));
        }
        Ok(Some(Command::Request {
            tag: tag.to_string(),
            request: OwnedRunRequest::from_line(request_line)?,
        }))
    }
}

/// Service configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Pool units a tick may dispatch (≥ 1): live runs plus derivation
    /// families, with cached requests and family siblings free.
    pub budget: usize,
    /// Wall-clock budget per tick in milliseconds; a tick exceeding it
    /// sets [`TickMetrics::over_budget`] (and the metrics line warns).
    /// `None` disables the check.
    pub tick_budget_ms: Option<f64>,
    /// Worker threads the executor may use within one tick.
    pub workers: usize,
}

impl Default for ServeConfig {
    /// Four units per tick, one worker, no wall-clock budget.
    fn default() -> Self {
        ServeConfig {
            budget: 4,
            tick_budget_ms: None,
            workers: 1,
        }
    }
}

/// One queued request with its scheduling coordinates precomputed.
#[derive(Debug)]
struct Job {
    tag: String,
    resolved: ResolvedRunRequest,
    key: String,
    base_key: String,
    fingerprint: u64,
    replay_eligible: bool,
    arrival_tick: u64,
}

/// One response: the request's identity plus its output.
#[derive(Debug)]
pub struct Response {
    /// The client's correlation tag.
    pub tag: String,
    /// The request's canonical content key.
    pub key: String,
    /// The request's stable fingerprint.
    pub fingerprint: u64,
    /// The run's output.
    pub output: RunOutput,
}

impl Response {
    /// The stdout wire line: `out <tag> fp=<hex> kind=… <headline
    /// numbers>`, plus the full codec-encoded output as
    /// `data=<hex>` when `emit_output` is set.
    pub fn line(&self, emit_output: bool) -> String {
        let mut line = format!("out {} fp={:016x}", self.tag, self.fingerprint);
        match &self.output {
            RunOutput::Prem(run) => {
                line.push_str(&format!(
                    " kind=prem makespan_cycles={} cpmr={}",
                    run.makespan_cycles, run.cpmr
                ));
            }
            RunOutput::Baseline(run) => {
                line.push_str(&format!(" kind=base cycles={}", run.cycles));
            }
        }
        if emit_output {
            line.push_str(" data=");
            line.push_str(&to_hex(&self.output.encode()));
        }
        line
    }
}

/// Per-tick scheduling and latency counters, printed (on stderr) by the
/// binary as the service's heartbeat.
#[derive(Clone, Debug)]
pub struct TickMetrics {
    /// Tick sequence number (1-based).
    pub tick: u64,
    /// Requests dispatched this tick (free riders included).
    pub dispatched: usize,
    /// Pool units charged this tick (≤ the configured budget).
    pub units: usize,
    /// The configured unit budget, for display.
    pub budget: usize,
    /// Queue depth entering the tick.
    pub queue_before: usize,
    /// Queue depth leaving the tick.
    pub queue_after: usize,
    /// Longest wait (in ticks) among dispatched requests.
    pub max_wait_ticks: u64,
    /// Tick wall time, milliseconds.
    pub exec_ms: f64,
    /// Whether the tick's wall time blew the configured budget.
    pub over_budget: bool,
    /// The executor's summary for this tick's batch.
    pub summary: PlanSummary,
}

impl fmt::Display for TickMetrics {
    /// One `key=value` heartbeat line via [`prem_obs::kv_line`] — every
    /// field machine-parseable, including the overrun marker
    /// (`WARN=wall-clock-budget`), so log scrapers never regex free
    /// prose.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut pairs = vec![
            ("tick", self.tick.to_string()),
            ("dispatched", self.dispatched.to_string()),
            ("units", self.units.to_string()),
            ("budget", self.budget.to_string()),
            ("queue_before", self.queue_before.to_string()),
            ("queue_after", self.queue_after.to_string()),
            ("wait_max_ticks", self.max_wait_ticks.to_string()),
            ("exec_ms", format!("{:.1}", self.exec_ms)),
            ("requested", self.summary.requested.to_string()),
            ("unique", self.summary.executed.to_string()),
            ("elided", self.summary.elided.to_string()),
            ("cache_hits", self.summary.hits.to_string()),
            ("disk_hits", self.summary.disk_hits.to_string()),
            ("replayed", self.summary.replayed.to_string()),
            ("families", self.summary.families.to_string()),
            ("profile_hits", self.summary.profile_hits.to_string()),
            ("profile_misses", self.summary.profile_misses.to_string()),
        ];
        if self.over_budget {
            pairs.push(("WARN", "wall-clock-budget".to_string()));
        }
        f.write_str(&kv_line(pairs))
    }
}

/// The sweep service: a request queue in front of one shared
/// [`PlanExecutor`], drained in budgeted ticks.
#[derive(Debug)]
pub struct SweepService {
    executor: PlanExecutor,
    config: ServeConfig,
    metrics: Registry,
    pending: VecDeque<Job>,
    tick: u64,
    submitted: usize,
    dispatched: usize,
    totals: PlanSummary,
}

impl SweepService {
    /// A service draining through `executor` under `config`.
    ///
    /// # Panics
    ///
    /// Panics when `config.budget` is zero — a zero-unit tick can never
    /// drain a live request, so the configuration is a bug, not a mode.
    pub fn new(executor: PlanExecutor, config: ServeConfig) -> Self {
        assert!(config.budget >= 1, "tick budget must be at least one unit");
        SweepService {
            executor,
            config,
            metrics: Registry::new(),
            pending: VecDeque::new(),
            tick: 0,
            submitted: 0,
            dispatched: 0,
            totals: PlanSummary::default(),
        }
    }

    /// Queues one request under `tag`. Resolves the kernel through the
    /// registry — an unknown kernel identity is rejected here, before it
    /// can queue.
    pub fn submit(&mut self, tag: impl Into<String>, request: OwnedRunRequest) -> io::Result<()> {
        let resolved = request.resolve()?;
        let (key, base_key, fingerprint, replay_eligible) = {
            let req = resolved.request();
            (
                req.key(),
                req.base_key(),
                req.fingerprint(),
                req.replay_eligible(),
            )
        };
        self.pending.push_back(Job {
            tag: tag.into(),
            resolved,
            key,
            base_key,
            fingerprint,
            replay_eligible,
            arrival_tick: self.tick,
        });
        self.submitted += 1;
        self.metrics.add("serve.submitted", 1);
        Ok(())
    }

    /// Current queue depth.
    pub fn queue_depth(&self) -> usize {
        self.pending.len()
    }

    /// Session-cumulative plan summary over every tick served so far.
    pub fn totals(&self) -> &PlanSummary {
        &self.totals
    }

    /// One service counters line (the first `stats` reply line).
    pub fn stats_line(&self) -> String {
        format!(
            "stats ticks={} submitted={} dispatched={} queue={} {}",
            self.tick,
            self.submitted,
            self.dispatched,
            self.pending.len(),
            self.totals,
        )
    }

    /// The full registry snapshot as a `metrics <json>` wire line (the
    /// second `stats` reply line): every `serve.*`, `plan.*`, and
    /// `store.*` metric the session has touched.
    pub fn metrics_line(&self) -> String {
        format!("metrics {}", self.metrics.snapshot().to_json())
    }

    /// The service's metrics registry (executor, store, and `serve.*`
    /// series) — the binary persists its snapshot under `--metrics`.
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Runs one budgeted tick: selects a batch from the queue head —
    /// charging one unit per live run or new derivation family, zero for
    /// cached requests and for replay-eligible siblings of a family
    /// already charged to this tick (same base key: policy, seed and
    /// scenario siblings alike, so an eligible co-runner sweep of one
    /// kernel costs one unit) — executes it through the shared executor,
    /// and returns the tick's metrics and responses (in dispatch order).
    ///
    /// The unit prediction is exact, not approximate: the selection
    /// mirrors the executor's own frontier partition, and the tick
    /// asserts that its live runs and compiled families fit the charged
    /// units after the fact, so a scheduling bug fails loudly instead of
    /// silently overspending.
    pub fn tick(&mut self) -> (TickMetrics, Vec<Response>) {
        let t0 = Instant::now();
        self.tick += 1;
        let queue_before = self.pending.len();

        let mut selected: Vec<Job> = Vec::new();
        let mut units = 0usize;
        // Keys already admitted this tick (an identical key re-dispatches
        // free: the executor elides it) and base keys of the families
        // charged this tick (an eligible sibling derives free).
        let mut keys: HashSet<String> = HashSet::new();
        let mut families: HashSet<String> = HashSet::new();
        let mut rest: VecDeque<Job> = VecDeque::new();
        for job in std::mem::take(&mut self.pending) {
            let free = keys.contains(&job.key)
                || (job.replay_eligible && families.contains(&job.base_key))
                || self.executor.cached(&job.key);
            if free || units < self.config.budget {
                if !free {
                    units += 1;
                    if job.replay_eligible {
                        families.insert(job.base_key.clone());
                    }
                }
                keys.insert(job.key.clone());
                selected.push(job);
            } else {
                rest.push_back(job);
            }
        }
        self.pending = rest;

        let requests: Vec<_> = selected.iter().map(|j| j.resolved.request()).collect();
        let summary = self
            .executor
            .execute_metered(&requests, self.config.workers, &self.metrics);
        assert!(
            summary.executed + summary.families <= units,
            "tick scheduled {units} units but the executor ran {} live and compiled {} families",
            summary.executed,
            summary.families
        );
        let responses: Vec<Response> = selected
            .iter()
            .map(|job| Response {
                tag: job.tag.clone(),
                key: job.key.clone(),
                fingerprint: job.fingerprint,
                output: self.executor.output(&job.resolved.request()),
            })
            .collect();

        let max_wait_ticks = selected
            .iter()
            .map(|j| self.tick - 1 - j.arrival_tick)
            .max()
            .unwrap_or(0);
        self.dispatched += selected.len();
        self.totals += &summary;
        let exec_ms = t0.elapsed().as_secs_f64() * 1000.0;
        self.metrics.add("serve.ticks", 1);
        self.metrics.add("serve.dispatched", selected.len() as u64);
        self.metrics.observe(
            "serve.tick_ns",
            t0.elapsed().as_nanos().min(u64::MAX.into()) as u64,
        );
        self.metrics.observe("serve.wait_ticks", max_wait_ticks);
        self.metrics
            .gauge("serve.queue_depth", self.pending.len() as i64);
        let over_budget = self.config.tick_budget_ms.is_some_and(|b| exec_ms > b);
        if over_budget {
            self.metrics.add("serve.over_budget_ticks", 1);
        }
        let metrics = TickMetrics {
            tick: self.tick,
            dispatched: selected.len(),
            units,
            budget: self.config.budget,
            queue_before,
            queue_after: self.pending.len(),
            max_wait_ticks,
            exec_ms,
            over_budget,
            summary,
        };
        (metrics, responses)
    }

    /// Runs ticks until the queue drains, invoking `on_tick` after each,
    /// and returns the aggregate summary over the drained ticks (the
    /// `flush` barrier).
    pub fn drain(&mut self, mut on_tick: impl FnMut(&TickMetrics, &[Response])) -> PlanSummary {
        let mut agg = PlanSummary::default();
        while !self.pending.is_empty() {
            let (metrics, responses) = self.tick();
            agg += &metrics.summary;
            on_tick(&metrics, &responses);
        }
        agg
    }
}

/// Lowercase hex encoding (for `data=` output payloads).
pub fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// Inverse of [`to_hex`]; odd length or non-hex digits are hard errors.
pub fn from_hex(s: &str) -> io::Result<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return Err(bad_data("odd-length hex payload"));
    }
    (0..s.len())
        .step_by(2)
        .map(|i| {
            u8::from_str_radix(&s[i..i + 2], 16).map_err(|_| bad_data("non-hex payload digit"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use prem_core::{NoiseModel, RunWork};
    use prem_gpusim::Scenario;
    use prem_harness::wire::PlatformId;
    use prem_harness::MatrixScenario;
    use prem_kernels::KernelId;
    use prem_memsim::KIB;

    /// A quick bicg request; `t_kib` and `seed` steer its identity.
    fn request(t_kib: usize, seed: u64) -> OwnedRunRequest {
        OwnedRunRequest {
            kernel: KernelId::new("bicg", vec![128, 64]),
            platform: PlatformId::Tx1,
            policy: None,
            work: RunWork::PremLlc { r: 8 },
            t_bytes: t_kib * KIB,
            seed,
            scenario: MatrixScenario::Preset(Scenario::Isolation),
            noise: NoiseModel::off(),
        }
    }

    fn service(budget: usize) -> SweepService {
        SweepService::new(
            PlanExecutor::new(),
            ServeConfig {
                budget,
                ..ServeConfig::default()
            },
        )
    }

    #[test]
    fn command_grammar_parses_and_rejects() {
        assert!(Command::parse("").unwrap().is_none());
        assert!(Command::parse("# comment").unwrap().is_none());
        assert!(matches!(
            Command::parse("flush").unwrap(),
            Some(Command::Flush)
        ));
        assert!(matches!(
            Command::parse("stats").unwrap(),
            Some(Command::Stats)
        ));
        assert!(matches!(
            Command::parse("quit").unwrap(),
            Some(Command::Quit)
        ));
        let line = format!("req a1 {}", request(16, 1).to_line());
        match Command::parse(&line).unwrap() {
            Some(Command::Request { tag, request: req }) => {
                assert_eq!(tag, "a1");
                assert_eq!(req, request(16, 1));
            }
            other => panic!("parsed {other:?}"),
        }
        for bad in ["nope", "req", "req onlytag", "req t v1 kernel=?:1"] {
            assert!(Command::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn ticks_never_exceed_the_unit_budget() {
        let mut svc = service(2);
        // Five distinct derivation families (t is part of the base key).
        for (i, t) in [16, 24, 32, 40, 48].iter().enumerate() {
            svc.submit(format!("r{i}"), request(*t, 1)).unwrap();
        }
        let mut unit_counts = Vec::new();
        let agg = svc.drain(|m, _| {
            assert!(m.units <= 2, "tick {} used {} units", m.tick, m.units);
            assert_eq!(m.summary.executed + m.summary.families, m.units);
            unit_counts.push(m.units);
        });
        assert_eq!(unit_counts, vec![2, 2, 1]);
        assert_eq!(agg.requested, 5);
        assert_eq!((agg.executed, agg.families, agg.replayed), (0, 5, 5));
        assert_eq!(svc.queue_depth(), 0);
    }

    #[test]
    fn family_members_share_one_unit() {
        let mut svc = service(1);
        // Same base key (seed is wildcarded): one family, three members.
        for seed in [1, 2, 3] {
            svc.submit(format!("s{seed}"), request(16, seed)).unwrap();
        }
        let (metrics, responses) = svc.tick();
        assert_eq!(metrics.dispatched, 3);
        assert_eq!(metrics.units, 1);
        assert_eq!(metrics.summary.executed, 0);
        assert_eq!(metrics.summary.replayed, 3);
        assert_eq!(responses.len(), 3);
        assert_eq!(svc.queue_depth(), 0);
    }

    #[test]
    fn an_eligible_corunner_count_sweep_rides_one_unit() {
        use prem_gpusim::CorunnerProfile;
        let mut svc = service(1);
        // Scenario is wildcarded too: isolation and every constant-
        // contention count of one kernel and seed form one family.
        let sweep = MatrixScenario::count_sweep(CorunnerProfile::Membomb, 3);
        for (i, scenario) in sweep.into_iter().enumerate() {
            let mut req = request(16, 1);
            req.scenario = scenario;
            svc.submit(format!("m{i}"), req).unwrap();
        }
        let (metrics, responses) = svc.tick();
        assert_eq!((metrics.dispatched, metrics.units), (4, 1));
        assert_eq!((metrics.summary.executed, metrics.summary.replayed), (0, 4));
        assert_eq!(responses.len(), 4);
        assert_eq!(svc.queue_depth(), 0);
    }

    #[test]
    fn cached_requests_cost_no_units_and_waits_are_counted() {
        let mut svc = service(1);
        svc.submit("a", request(16, 1)).unwrap();
        svc.submit("b", request(24, 1)).unwrap();
        let (first, _) = svc.tick();
        assert_eq!((first.units, first.queue_after), (1, 1));
        // Resubmitting the executed request is free; the queued `b`
        // (waiting one tick by now) takes the tick's single unit.
        svc.submit("a2", request(16, 1)).unwrap();
        let (second, responses) = svc.tick();
        assert_eq!(second.dispatched, 2);
        assert_eq!(second.units, 1);
        assert_eq!(second.summary.hits, 1);
        assert_eq!(second.max_wait_ticks, 1);
        assert!(responses.iter().any(|r| r.tag == "a2"));
    }

    #[test]
    fn wall_clock_budget_overrun_warns() {
        let mut svc = SweepService::new(
            PlanExecutor::new(),
            ServeConfig {
                budget: 1,
                tick_budget_ms: Some(0.0),
                workers: 1,
            },
        );
        svc.submit("a", request(16, 1)).unwrap();
        let (metrics, _) = svc.tick();
        assert!(metrics.over_budget);
        let line = metrics.to_string();
        assert!(line.contains("WARN=wall-clock-budget"), "line: {line}");
        assert!(line.starts_with("tick=1 dispatched=1 units=1 budget=1"));
        assert_eq!(
            svc.metrics().snapshot().counter("serve.over_budget_ticks"),
            Some(1)
        );
    }

    #[test]
    fn registry_snapshot_tracks_service_and_plan_series() {
        let mut svc = service(1);
        // One derivation family, two members, both derived.
        svc.submit("a", request(16, 1)).unwrap();
        svc.submit("b", request(16, 2)).unwrap();
        let agg = svc.drain(|_, _| {});
        assert_eq!((agg.executed, agg.replayed), (0, 2));
        let snap = svc.metrics().snapshot();
        assert_eq!(snap.counter("serve.ticks"), Some(1));
        assert_eq!(snap.counter("serve.submitted"), Some(2));
        assert_eq!(snap.counter("serve.dispatched"), Some(2));
        assert_eq!(snap.counter("plan.requested"), Some(2));
        assert_eq!(snap.counter("plan.live_runs"), Some(0));
        assert_eq!(snap.counter("plan.replayed"), Some(2));
        assert_eq!(snap.gauge("serve.queue_depth"), Some(0));
        assert!(snap.hist("serve.tick_ns").is_some_and(|h| h.count() == 1));
        assert!(snap.hist("plan.execute_ns").is_some());
        let line = svc.metrics_line();
        assert!(
            line.starts_with("metrics {\"schema\":\"prem-obs/v1\""),
            "line: {line}"
        );
    }

    #[test]
    fn hex_round_trips_and_rejects_garbage() {
        let bytes = vec![0x00, 0xff, 0x7a];
        assert_eq!(to_hex(&bytes), "00ff7a");
        assert_eq!(from_hex("00ff7a").unwrap(), bytes);
        assert!(from_hex("0f0").is_err());
        assert!(from_hex("zz").is_err());
    }

    #[test]
    fn responses_carry_decodable_outputs() {
        let mut svc = service(1);
        svc.submit("a", request(16, 1)).unwrap();
        let (_, responses) = svc.tick();
        let line = responses[0].line(true);
        let hex = line.split("data=").nth(1).expect("data payload");
        let decoded = RunOutput::decode(&from_hex(hex).unwrap()).unwrap();
        assert_eq!(decoded, responses[0].output);
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn zero_budget_is_rejected() {
        let _ = service(0);
    }
}
