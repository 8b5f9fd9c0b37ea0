//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold-figures|warm-figures|serve-mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one plan-pool worker. A run repeats its workload's pass
//! for `--seconds` and reports medians over its passes. With `--trace 0`
//! it prints the end-to-end metrics; with `--trace 1` it runs untraced
//! passes for the first half of the time and traced passes for the rest,
//! and prints the per-layer ledger of the median traced pass. The host
//! these figures come from is shared and its speed drifts, so every
//! end-to-end time is read from a [`calib::HostClock`]: raw time scaled
//! to a nominal host speed measured by a fixed reference job timed next
//! to the work. The per-layer times are raw. Every run checks its outputs and
//! prints `failed_frac`; the last stdout line is one JSON object with the
//! verdict, the checked and failed output counts, and the metrics.
//!
//! Workloads, and the layers each one loads most and least, are listed
//! with their metrics in `BENCHMARK.json` at the repository root.

mod calib;
mod figures;
mod layers;
mod seeds;
mod serve;
mod stats;
mod trace;

use std::collections::{HashMap, HashSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use prem_harness::{PlanExecutor, RunRequest};

use calib::HostClock;
use layers::{sample_requests, Layers, Sums};
use seeds::{Inputs, DEFAULT_SEED};
use trace::{Kind, Trace};

/// Plan-pool workers. The benchmark host has two cores shared with other
/// tenants, so every workload runs sequentially on one worker.
pub const WORKERS: usize = 1;

/// The end-to-end metrics with their units, in report order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
    ("req_per_s", "1/s"),
];

/// Digest ([`figures::digest`]) of the artifact files `figures all` writes
/// at the default seed.
const DEFAULT_DIGEST: u64 = 0x061f_5205_d4af_c4ec;

/// Extra set-ups timed in front of each pass. A set-up takes microseconds
/// and a cold run makes two or three passes, so `setup_s` is a median of
/// many.
const SETUP_ROUNDS: usize = 16;

/// Plan outputs re-executed live per run for the bit-equality check.
const PLAN_SAMPLE: usize = 6;

/// Requests whose core and kernel calls the traced run times.
const PROBE_SAMPLE: usize = 4;

/// Serve responses re-executed directly per run.
const SERVE_SAMPLE: usize = 8;

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Workload {
    ColdFigures,
    WarmFigures,
    ServeMixed,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "cold-figures" => Some(Workload::ColdFigures),
            "warm-figures" => Some(Workload::WarmFigures),
            "serve-mixed" => Some(Workload::ServeMixed),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ColdFigures => "cold-figures",
            Workload::WarmFigures => "warm-figures",
            Workload::ServeMixed => "serve-mixed",
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// A parsed command line: a benchmark run, or the fixture pass a run
/// starts as a child process (so its memory stays out of `peak_rss_mb`).
#[derive(Debug)]
enum Cli {
    Run(Args),
    Fixture {
        workload: Workload,
        seed: u64,
        dir: PathBuf,
    },
}

const USAGE: &str = "usage: perfbench --workload <cold-figures|warm-figures|serve-mixed> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let (fixture, args) = match args.split_first() {
        Some((first, rest)) if first == "fixture" => (true, rest),
        _ => (false, args),
    };
    let mut flags: HashMap<&str, &str> = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name, value);
    }
    let get = |name: &str| flags.get(name).copied().ok_or(format!("missing --{name}"));
    let workload = get("workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let seed = get("seed")?
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;
    if fixture {
        return Ok(Cli::Fixture {
            workload,
            seed,
            dir: PathBuf::from(get("dir")?),
        });
    }
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("bad --seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Cli::Run(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_cli(&args).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let result = match cli {
        Cli::Run(args) => run(&args),
        Cli::Fixture {
            workload,
            seed,
            dir,
        } => fixture(workload, seed, &dir),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// Output checks: each checked artifact, response or re-executed output
/// counts as one attempt.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }
}

/// A scratch directory inside the working directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> io::Result<WorkDir> {
        let dir = Path::new(".bench_work").join(format!("run-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    fn sub(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        fs::remove_dir_all(&self.0).ok();
        // Leaves the shared parent only when no other run is using it.
        fs::remove_dir(".bench_work").ok();
    }
}

/// One pass as a workload reports it: raw instants, read through the
/// pass's [`HostClock`] once its closing probe has run.
struct PassOut {
    /// Start and end of the timed phase.
    timed: (Instant, Instant),
    /// Every set-up timed in front of the pass (see [`timed_setup`]).
    setups: Vec<(Instant, Instant)>,
    /// Start and end of every output's latency: artifact ready times or
    /// responses.
    latencies: Vec<(Instant, Instant)>,
    outputs: usize,
    /// The pass's ledger, when it was traced.
    layers: Option<Layers>,
}

/// One pass's times, host-scaled (see [`calib`]).
struct Timed {
    wall_s: f64,
    setup_s: Vec<f64>,
    latency_ms: Vec<f64>,
    outputs: usize,
    layers: Option<Layers>,
}

impl Timed {
    fn read(out: PassOut, clock: &HostClock) -> Timed {
        let s = |&(a, b): &(Instant, Instant)| clock.between(a, b);
        Timed {
            wall_s: s(&out.timed),
            setup_s: out.setups.iter().map(s).collect(),
            latency_ms: out.latencies.iter().map(|l| s(l) * 1e3).collect(),
            outputs: out.outputs,
            layers: out.layers,
        }
    }
}

/// Repeats `pass(index, traced, clock)` for the run's time budget, each
/// pass on a fresh [`HostClock`] that the pass may checkpoint. Untraced
/// runs time only untraced passes. Traced runs time untraced passes for
/// the first half of the budget and traced ones for the rest, at least
/// one of each.
fn measure(
    args: &Args,
    mut pass: impl FnMut(usize, bool, &mut HostClock) -> io::Result<PassOut>,
) -> io::Result<(Vec<Timed>, Vec<Timed>)> {
    let start = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let tracing = args.trace && !untraced.is_empty() && elapsed >= args.seconds / 2.0;
        let n = untraced.len() + traced.len();
        let mut clock = HostClock::start();
        let out = pass(n, tracing, &mut clock)?;
        clock.finish();
        let raw_s = (out.timed.1 - out.timed.0).as_secs_f64();
        let out = Timed::read(out, &clock);
        eprintln!(
            "perfbench: pass {n} {:.4} s host-scaled, {raw_s:.4} s raw, p50 {:.4} ms, set-up median {:.3} us, probe median {:.3} ms, {:.3} s probing",
            out.wall_s,
            stats::percentile(&out.latency_ms, 0.5),
            stats::median(&out.setup_s) * 1e6,
            clock.median_reading() * 1e3,
            clock.probe_s()
        );
        if tracing {
            traced.push(out);
        } else {
            untraced.push(out);
        }
        if start.elapsed().as_secs_f64() >= args.seconds && (!args.trace || !traced.is_empty()) {
            return Ok((untraced, traced));
        }
    }
}

/// The process's resident-set high-water mark, in MiB.
fn peak_rss_mb() -> io::Result<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM line in /proc/self/status"))
}

/// Start and end instants of timed calls.
type Spans = Vec<(Instant, Instant)>;

/// Runs `setup` once untimed, to warm the caches the pass before it
/// evicted, then [`SETUP_ROUNDS`] timed times, dropping what it builds,
/// and then once more for the pass, whose result it returns with every
/// timed round's start and end. The rounds sit in front of every pass so
/// that `setup_s` samples the whole run, not one moment of the shared
/// host.
fn timed_setup<T>(mut setup: impl FnMut() -> io::Result<T>) -> io::Result<(T, Spans)> {
    drop(setup()?);
    let mut spans = Vec::with_capacity(SETUP_ROUNDS + 1);
    for _ in 0..SETUP_ROUNDS {
        let t = Instant::now();
        drop(setup()?);
        spans.push((t, Instant::now()));
    }
    let t = Instant::now();
    let out = setup()?;
    spans.push((t, Instant::now()));
    Ok((out, spans))
}

fn run(args: &Args) -> io::Result<()> {
    let mut checks = Checks::default();
    let work = WorkDir::create()?;
    let (untraced, traced, probe) = match args.workload {
        Workload::ColdFigures | Workload::WarmFigures => figure_workload(args, &work, &mut checks)?,
        Workload::ServeMixed => serve_workload(args, &work, &mut checks)?,
    };
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let mut traced = traced;
        traced.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
        let median = traced.swap_remove(traced.len() / 2);
        let walls: Vec<f64> = untraced.iter().map(|p| p.wall_s).collect();
        let mut layers = median.layers.expect("traced passes carry a ledger");
        for line in layers.ledger_lines() {
            eprintln!("perfbench: {line}");
        }
        layers.fill_overhead(median.wall_s, &walls);
        for (name, value) in probe {
            layers.set(name, value);
        }
        layers.report()
    } else {
        end_to_end(&untraced)?
    };
    report(args, &checks, &metrics);
    Ok(())
}

/// The end-to-end metrics of the untraced passes; `setup_s` is the median
/// of every set-up timed in them. The latency figures are medians over
/// passes of each pass's own percentile: a tail pooled over the whole run
/// is set by whichever seconds the shared host was slowest in.
fn end_to_end(passes: &[Timed]) -> io::Result<Vec<(&'static str, f64, &'static str)>> {
    let setup_s: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.setup_s.iter().copied())
        .collect();
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let p50s: Vec<f64> = passes
        .iter()
        .map(|p| stats::percentile(&p.latency_ms, 0.5))
        .collect();
    // Too few samples for a tail above the median: report the median.
    let tails: Vec<(f64, f64)> = passes
        .iter()
        .zip(&p50s)
        .map(|(p, &p50)| {
            stats::tail(&p.latency_ms, 0.99)
                .filter(|&(_, pct)| pct > 0.5)
                .unwrap_or((p50, 0.5))
        })
        .collect();
    let outputs: usize = passes.iter().map(|p| p.outputs).sum();
    eprintln!(
        "perfbench: {} pass(es); req_p99_ms is the median of each pass's p{:.1} of {} samples",
        passes.len(),
        tails[0].1 * 100.0,
        passes[0].latency_ms.len()
    );
    let values = [
        stats::median(&setup_s),
        stats::median(&walls),
        peak_rss_mb()?,
        stats::median(&p50s),
        stats::median(&tails.iter().map(|t| t.0).collect::<Vec<_>>()),
        outputs as f64 / walls.iter().sum::<f64>(),
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect())
}

/// Prints every metric by name with its unit, then the JSON result line.
fn report(args: &Args, checks: &Checks, metrics: &[(&str, f64, &str)]) {
    println!(
        "workload {} seed {} trace {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    for (name, value, unit) in metrics {
        println!("{name:<28} {value:>16.6} {unit}");
    }
    let failed_frac = checks.failed as f64 / checks.attempted.max(1) as f64;
    println!(
        "{:<28} {failed_frac:>16.6} ratio ({} of {} checked outputs failed)",
        "failed_frac", checks.failed, checks.attempted
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0 && checks.attempted > 0,
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    );
}

/// A workload's untraced and traced passes, and the traced run's
/// [`Layers::core_probe`] values.
type Measured = (Vec<Timed>, Vec<Timed>, Vec<(&'static str, f64)>);

/// cold-figures and warm-figures.
fn figure_workload(args: &Args, work: &WorkDir, checks: &mut Checks) -> io::Result<Measured> {
    let inputs = Inputs::from_seed(args.seed);
    let warm = args.workload == Workload::WarmFigures;
    // warm-figures: the code under test fills the store in a child
    // process, whose artifacts are the cold reference for the warm ones.
    let store = work.sub("store");
    let mut reference: Option<Vec<(String, u64)>> = None;
    if warm {
        let out = spawn_fixture(args.workload, args.seed, &store)?;
        let parsed = out
            .lines()
            .filter_map(|l| l.strip_prefix("artifact "))
            .map(|l| {
                let (name, hex) = l.split_once(' ')?;
                Some((name.to_string(), u64::from_str_radix(hex, 16).ok()?))
            })
            .collect::<Option<Vec<_>>>()
            .filter(|v| v.len() == figures::RENDERS.len())
            .ok_or_else(|| io::Error::other("fixture process printed no artifact digests"))?;
        reference = Some(parsed);
    }
    let pass_dir = |n: usize| {
        if warm {
            store.clone()
        } else {
            work.sub(&format!("pass-{n}"))
        }
    };

    let mut first_digest = None;
    let (untraced, traced) = measure(args, |n, tracing, clock| {
        let dir = pass_dir(n);
        let ((ctx, executor, open_ns), setups) = timed_setup(|| figures::setup(&inputs, &dir))?;
        let mut trace = Trace::new(tracing);
        let mut sums = Sums::default();
        let t = Instant::now();
        let root = trace.enter("pass", Kind::Container);
        let pass = figures::run_pass(&ctx, &executor, &mut trace, &mut sums, clock);
        trace.exit(root);
        let end = Instant::now();
        eprintln!("perfbench: pass {n} {}", pass.plan);

        // Every artifact matches the reference: the fill pass's for warm
        // runs, the first pass's for cold ones.
        let reference = reference.get_or_insert_with(|| {
            pass.artifacts
                .iter()
                .map(|a| (a.name.to_string(), a.digest()))
                .collect()
        });
        for (a, (name, want)) in pass.artifacts.iter().zip(reference.iter()) {
            checks.check(a.name == *name && a.digest() == *want, || {
                format!("artifact {} differs from the reference bytes", a.name)
            });
        }
        let digest = figures::digest(&pass.artifacts);
        if n == 0 {
            first_digest = Some(digest);
            check_plan_sample(checks, &ctx, &executor, args.seed);
        }
        let layers = tracing.then(|| {
            let mut l = Layers::default();
            l.fill_plan_and_store(&sums);
            l.set("store.open_ms", open_ns as f64 / 1e6);
            l.fill_from_trace(&trace);
            let merged = figures::merged_requests(&ctx);
            let tail = figures::followup_requests(&ctx, &executor);
            let mut seen = HashSet::new();
            let outputs: Vec<_> = merged
                .iter()
                .chain(&tail)
                .filter(|r| seen.insert(r.key()))
                .map(|r| prem_harness::RunSource::output(&executor, r))
                .collect();
            l.fill_sim(&outputs, &sums);
            l
        });
        drop(executor);
        if !warm {
            fs::remove_dir_all(&dir)?;
        }
        Ok(PassOut {
            timed: (t, end),
            setups,
            latencies: pass.ready.iter().map(|&r| (t, r)).collect(),
            outputs: pass.artifacts.len(),
            layers,
        })
    })?;
    if args.seed == DEFAULT_SEED {
        let digest = first_digest.expect("at least one pass");
        checks.check(digest == DEFAULT_DIGEST, || {
            format!(
                "artifact digest {digest:016x} != recorded {DEFAULT_DIGEST:016x} of `figures all`"
            )
        });
    }
    let probe = if args.trace {
        let ctx = figures::Ctx::new(&inputs);
        Layers::core_probe(&sample_requests(
            &figures::merged_requests(&ctx),
            PROBE_SAMPLE,
            args.seed,
        ))
    } else {
        Vec::new()
    };
    Ok((untraced, traced, probe))
}

/// Re-executes a deterministic sample of the pass's plan outputs on a
/// fresh executor with replay and the profile memo off, and checks each
/// is bit-equal to what the pass produced.
fn check_plan_sample(checks: &mut Checks, ctx: &figures::Ctx, executor: &PlanExecutor, seed: u64) {
    use prem_harness::RunSource;
    let mut all = figures::merged_requests(ctx);
    all.extend(figures::followup_requests(ctx, executor));
    let stride = all.len() / PLAN_SAMPLE;
    let offset = (seed as usize) % stride;
    let sample: Vec<RunRequest<'_>> = (0..PLAN_SAMPLE)
        .map(|i| all[offset + i * stride].clone())
        .collect();
    let fresh = PlanExecutor::new().without_replay().without_profile_memo();
    fresh.execute(&sample, WORKERS);
    for req in &sample {
        checks.check(
            fresh.output(req).encode() == executor.output(req).encode(),
            || format!("plan output {} differs from live re-execution", req.key()),
        );
    }
}

/// serve-mixed. Each pass serves its own stream (see [`serve`]).
fn serve_workload(args: &Args, work: &WorkDir, checks: &mut Checks) -> io::Result<Measured> {
    let preseed = serve::preseed(args.seed);
    let fixture = work.sub("fixture");
    spawn_fixture(args.workload, args.seed, &fixture)?;
    let (untraced, traced) = measure(args, |n, tracing, clock| {
        let stream = serve::generate(args.seed, n, &preseed)?;
        let flat: Vec<&serve::Tagged> = stream.requests().collect();
        // The first pass keeps an evenly spread sample for the
        // bit-equality check.
        let stride = flat.len() / SERVE_SAMPLE;
        let keep: Vec<usize> = if n == 0 {
            (0..SERVE_SAMPLE)
                .map(|i| (args.seed as usize) % stride + i * stride)
                .collect()
        } else {
            Vec::new()
        };
        // Each pass starts from its own copy of the fixture store; the
        // copy is fixture work, only the set-up is timed.
        let dir = work.sub(&format!("pass-{n}"));
        copy_dir(&fixture, &dir)?;
        let ((mut svc, open_ns), setups) = timed_setup(|| serve::setup(&dir))?;
        let mut trace = Trace::new(tracing);
        let t = Instant::now();
        let root = trace.enter("pass", Kind::Container);
        let rec = serve::run_pass(&stream, &mut svc, &keep, &mut trace, clock)?;
        trace.exit(root);
        let end = Instant::now();
        eprintln!(
            "perfbench: pass {n} {} ticks, {}",
            rec.ticks.len(),
            svc.totals()
        );

        for (i, &answers) in rec.answers.iter().enumerate() {
            checks.check(answers == 1, || {
                format!("tag {} answered {answers} times", flat[i].tag)
            });
        }
        checks.check(rec.mismatched == 0, || {
            format!(
                "{} responses carried a wrong key or fingerprint",
                rec.mismatched
            )
        });
        for (i, output) in &rec.kept {
            let direct = flat[*i].request.clone().resolve()?.request().execute();
            checks.check(direct.encode() == output.encode(), || {
                format!("response {} differs from direct execution", flat[*i].tag)
            });
        }
        let layers = tracing.then(|| serve_layers(&svc, &trace, &rec, open_ns));
        drop(svc);
        fs::remove_dir_all(&dir)?;
        Ok(PassOut {
            timed: (t, end),
            setups,
            outputs: rec.latency.len(),
            latencies: rec.latency,
            layers,
        })
    })?;
    let probe = if args.trace {
        let resolved = serve::generate(args.seed, 0, &preseed)?
            .requests()
            .map(|t| t.request.clone().resolve())
            .collect::<io::Result<Vec<_>>>()?;
        let reqs: Vec<RunRequest<'_>> = resolved.iter().map(|r| r.request()).collect();
        Layers::core_probe(&sample_requests(&reqs, PROBE_SAMPLE, args.seed))
    } else {
        Vec::new()
    };
    Ok((untraced, traced, probe))
}

/// The ledger of one traced serve pass.
fn serve_layers(
    svc: &prem_serve::SweepService,
    trace: &Trace,
    rec: &serve::PassRecord,
    open_ns: u64,
) -> Layers {
    let mut l = Layers::default();
    let mut sums = Sums::default();
    sums.add(&svc.metrics().snapshot());
    l.fill_plan_and_store(&sums);
    l.set("store.open_ms", open_ns as f64 / 1e6);
    l.fill_from_trace(trace);
    l.fill_sim(rec.outputs.values(), &sums);
    let totals = trace.total_by_name();
    let selfs = trace.self_by_name();
    let ticks = rec.ticks.len() as f64;
    let (submit_ns, submits) = totals.get("serve.submit").copied().unwrap_or((0, 0));
    l.set(
        "serve.submit_mean_us",
        submit_ns as f64 / 1e3 / submits as f64,
    );
    l.set("serve.ticks", ticks);
    let tick_ns = totals.get("serve.tick").map_or(0, |t| t.0);
    l.set("serve.tick_mean_ms", tick_ns as f64 / 1e6 / ticks);
    l.set(
        "serve.sched_ms",
        selfs.get("serve.tick").copied().unwrap_or(0) as f64 / 1e6,
    );
    let dispatched: usize = rec.ticks.iter().map(|t| t.0).sum();
    let units: usize = rec.ticks.iter().map(|t| t.1).sum();
    let depth: usize = rec.ticks.iter().map(|t| t.2).sum();
    l.set("serve.units_per_tick", units as f64 / ticks);
    l.set(
        "serve.free_rider_frac",
        (dispatched - units) as f64 / dispatched as f64,
    );
    l.set("serve.queue_depth_mean", depth as f64 / ticks);
    let wait = stats::tail(&rec.wait_ticks, 0.99)
        .map_or_else(|| stats::percentile(&rec.wait_ticks, 0.99), |t| t.0);
    l.set("serve.wait_ticks_p99", wait);
    l
}

/// Copies the flat store directory `from` to a fresh `to`.
fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Runs the workload's fixture pass in a child process and returns its
/// stdout. The child is waited for before this returns.
fn spawn_fixture(workload: Workload, seed: u64, dir: &Path) -> io::Result<String> {
    let out = Command::new(std::env::current_exe()?)
        .args([
            "fixture",
            "--workload",
            workload.name(),
            "--seed",
            &seed.to_string(),
            "--dir",
        ])
        .arg(dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()?;
    if !out.status.success() {
        return Err(io::Error::other(format!(
            "fixture process failed: {}",
            out.status
        )));
    }
    String::from_utf8(out.stdout).map_err(|_| io::Error::other("fixture output is not UTF-8"))
}

/// The fixture pass (child process): fills the store at `dir`.
/// warm-figures runs one cold pass and prints each artifact's digest;
/// serve-mixed executes the stream's pre-seed requests.
fn fixture(workload: Workload, seed: u64, dir: &Path) -> io::Result<()> {
    match workload {
        Workload::WarmFigures => {
            let (ctx, executor, _) = figures::setup(&Inputs::from_seed(seed), dir)?;
            let pass = figures::run_pass(
                &ctx,
                &executor,
                &mut Trace::new(false),
                &mut Sums::default(),
                &mut HostClock::start(),
            );
            for a in &pass.artifacts {
                println!("artifact {} {:016x}", a.name, a.digest());
            }
            println!("digest {:016x}", figures::digest(&pass.artifacts));
            Ok(())
        }
        Workload::ServeMixed => serve::seed_store(&serve::preseed(seed), dir),
        Workload::ColdFigures => Err(io::Error::other("cold-figures has no fixture")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn cli_parses_runs_and_fixtures_and_rejects_garbage() {
        let run = parse_cli(&strings(&[
            "--workload",
            "serve-mixed",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]));
        assert!(matches!(
            run,
            Ok(Cli::Run(Args {
                seed: 3,
                trace: true,
                ..
            }))
        ));
        let fix = parse_cli(&strings(&[
            "fixture",
            "--workload",
            "warm-figures",
            "--seed",
            "0",
            "--dir",
            "d",
        ]));
        assert!(matches!(fix, Ok(Cli::Fixture { seed: 0, .. })));
        for bad in [
            &[
                "--workload",
                "nope",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ][..],
            &[
                "--workload",
                "serve-mixed",
                "--seed",
                "1",
                "--seconds",
                "0",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "serve-mixed",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "2",
            ],
            &["--workload", "serve-mixed", "--seed"],
        ] {
            assert!(parse_cli(&strings(bad)).is_err(), "accepted {bad:?}");
        }
    }
}
