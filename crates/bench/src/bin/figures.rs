//! Regenerates every table and figure of the paper into `results/`.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p prem-bench --bin figures            # every paper figure
//! cargo run --release -p prem-bench --bin figures -- all     # same, explicitly
//! cargo run --release -p prem-bench --bin figures -- fig4    # one artifact
//! cargo run --release -p prem-bench --bin figures -- quick   # reduced sizes
//! cargo run --release -p prem-bench --bin figures -- matrix  # scenario matrix
//! cargo run --release -p prem-bench --bin figures -- trace   # capture + replay
//! cargo run --release -p prem-bench --bin figures -- --list  # artifact map
//! cargo run --release -p prem-bench --bin figures -- obs     # phase timings
//! cargo run --release -p prem-bench --bin figures -- cache stats   # store shape
//! cargo run --release -p prem-bench --bin figures -- cache verify  # full decode
//! cargo run --release -p prem-bench --bin figures -- cache gc      # drop dead keys
//! ```
//!
//! Unknown subcommands exit nonzero with the artifact listing.
//!
//! Every artifact job declares the requests it renders from, and the
//! requested jobs' requests execute as **one merged, deduplicated run
//! plan**: the [`prem_harness::PlanExecutor`] elides every request two
//! artifacts share (fig3/fig5/fig6/fig7 overlap heavily on baselines and
//! LLC grid points) and executes the unique frontier on the work-claiming
//! pool at *run* granularity — so a parallel run is no longer bounded by
//! the largest single artifact. The unique frontier is further partitioned
//! into **derivation families** (requests differing only in LLC
//! policy/seed): one representative per family executes live with what-if
//! capture on and every sibling's output is derived by replay,
//! bit-identical by the plan-replay equivalence suite (`--no-replay` opts
//! out). A per-invocation plan summary (unique runs, duplicates elided,
//! cache hits, replays, families) is printed to stderr; CI asserts the
//! elision count is nonzero and, on the quick merged plan,
//! `replayed > 0`. The renders then run as job-granular pool tasks
//! (`PREM_WORKERS` overrides the worker count); outputs are collected and
//! written in a fixed order, so the artifacts are byte-identical to a
//! sequential run.
//!
//! The plan executor is backed by the **persistent run cache**
//! (`results/.runcache/` by default — see `CACHING.md`): every live
//! execution is appended to the store and every later invocation serves
//! matching requests from disk, so a warm regeneration executes nothing.
//! `--no-cache` runs fully live (artifacts are byte-identical either
//! way), `--cache` re-enables it, `--cache-dir <path>` relocates the
//! store, and `cache {stats,verify,gc}` introspects it.
//!
//! Under `--metrics` the executor and store record into a `prem-obs`
//! registry and the snapshot is written to `<metrics-dir>/metrics.json`
//! (versioned single-line JSON) when the run finishes. The `obs`
//! subcommand (explicit only) runs the what-if plan metered and renders
//! the phase-timing breakdown as `results/obs.{txt,csv}`. Metrics never
//! influence run outputs: every artifact is byte-identical with metrics
//! on or off, and with no registry the metered entry points
//! monomorphize to the no-op null sink.

use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

use prem_gpusim::{PlatformConfig, Scenario};
use prem_harness::{
    cell_requests, default_workers, parallel_map, run_matrix_metered, write_artifact, ExecFlags,
    MatrixSpec, PlanExecutor, RunRequest, RunSource, RunStore, EXEC_FLAGS_HELP,
};
use prem_kernels::{case_study_bicg, standard_suite, suite_small, Bicg, Kernel};
use prem_memsim::KIB;
use prem_obs::{NullMetrics, Registry, Span};
use prem_report::{
    ablation,
    common::{llc_request, Harness},
    fig2::fig2,
    fig3::{fig3_requests, fig3_with, fig5_requests, fig5_with},
    fig4::{fig4_requests, fig4_with},
    fig6::{fig6_followup_requests, fig6_requests, fig6_with},
    fig7::{fig7_requests, fig7_with},
    interference,
    mei::mei,
    obs::{obs_counters, obs_table},
    whatif::{whatif_requests, whatif_with},
    Table,
};

/// One finished artifact: the text rendering (table + optional chart), an
/// optional CSV body, and a completion log line for stderr.
struct Artifact {
    name: String,
    text: String,
    csv: Option<String>,
    log: String,
}

impl Artifact {
    fn from_table(name: &str, table: &Table, extra: &str, t0: Instant) -> Self {
        Artifact {
            name: name.to_string(),
            text: format!("{table}\n{extra}"),
            csv: Some(table.to_csv()),
            log: format!("[{name} done in {:?}]", t0.elapsed()),
        }
    }
}

/// Inputs shared by every figure job, plus the process-wide run-plan
/// executor: the plan-based artifacts render from its cache after the
/// merged plan has executed, and the matrix shares the same cache when
/// requested.
struct Ctx {
    quick: bool,
    harness: Harness,
    bicg: Bicg,
    suite: Vec<Box<dyn Kernel>>,
    executor: PlanExecutor,
}

impl Ctx {
    /// The full-scale or `quick` (reduced sizes, one seed) inputs around
    /// `executor`.
    fn new(quick: bool, executor: PlanExecutor) -> Ctx {
        let (harness, bicg, suite) = if quick {
            (Harness::quick(), Bicg::new(512, 512), suite_small())
        } else {
            (Harness::default(), case_study_bicg(), standard_suite())
        };
        Ctx {
            quick,
            harness,
            bicg,
            suite,
            executor,
        }
    }
}

/// One artifact job: its subcommand, the artifact line `--list` shows, the
/// requests it renders from (merged into the one plan, and the live set
/// `cache gc` keeps) and the render itself.
struct Job {
    name: &'static str,
    what: &'static str,
    requests: fn(&Ctx) -> Vec<RunRequest<'_>>,
    render: fn(&Ctx) -> Vec<Artifact>,
}

/// The one run fig1's timeline draws: tamed LLC-PREM on the case-study
/// kernel at 160 KiB, seed 1, in isolation.
fn fig1_request(ctx: &Ctx) -> RunRequest<'_> {
    llc_request(&ctx.bicg, 160 * KIB, 8, 1, Scenario::Isolation)
}

/// The policy ablation's R values, the MSG ablation's granularities (µs)
/// and the bias ablation's bad-way weights, shared by the ablation job's
/// requests and render.
const POLICY_RS: &[u32] = &[1, 8];
const MSGS_US: &[f64] = &[5.0, 10.0, 20.0, 50.0, 100.0];
const BIAS_WEIGHTS: &[u32] = &[1, 2, 3, 5, 9];

/// The paper-figure jobs, in output order — one table drives dispatch,
/// listing, the merged plan and `cache gc`'s live set, so they cannot
/// drift. `matrix` (parallel internally) and `trace` (which times its
/// what-if grid on one worker) are handled separately (see
/// [`EXPLICIT_JOBS`]) and run only when named.
const JOBS: &[Job] = &[
    Job {
        name: "fig1",
        what: "fig1.txt — PREM interval timeline (M/C phases, token exchange)",
        requests: |ctx| vec![fig1_request(ctx)],
        render: |ctx| {
            let t0 = Instant::now();
            let run = ctx.executor.output(&fig1_request(ctx)).prem();
            let tx1 = PlatformConfig::tx1();
            let text = prem_report::fig1::timeline(&run, &tx1.cpu.sync, tx1.clock_ghz, 4, 0.4);
            vec![Artifact {
                name: "fig1".into(),
                text,
                csv: None,
                log: format!("[fig1 done in {:?}]", t0.elapsed()),
            }]
        },
    },
    Job {
        name: "fig2",
        what: "fig2.{txt,csv} — SPM vs cache data-movement instruction counts",
        requests: |_| Vec::new(),
        render: |ctx| {
            let t0 = Instant::now();
            let f = fig2(&ctx.bicg, 160 * KIB);
            vec![Artifact::from_table("fig2", &f.table(), "", t0)]
        },
    },
    Job {
        name: "fig3",
        what: "fig3.{txt,csv} — bicg breakdown, naive prefetch (R=1)",
        requests: |ctx| fig3_requests(&ctx.bicg, &ctx.harness),
        render: |ctx| {
            let t0 = Instant::now();
            let f = fig3_with(&ctx.bicg, &ctx.harness, &ctx.executor);
            vec![Artifact::from_table("fig3", &f.table(), &f.chart(), t0)]
        },
    },
    Job {
        name: "fig4",
        what: "fig4.{txt,csv} — CPMR over the (R, T) grid",
        requests: |ctx| fig4_requests(&ctx.bicg, &ctx.harness),
        render: |ctx| {
            let t0 = Instant::now();
            let f = fig4_with(&ctx.bicg, &ctx.harness, &ctx.executor);
            vec![Artifact::from_table("fig4", &f.table(), "", t0)]
        },
    },
    Job {
        name: "fig5",
        what: "fig5.{txt,csv} — bicg breakdown, tamed prefetch (R=8)",
        requests: |ctx| fig5_requests(&ctx.bicg, &ctx.harness),
        render: |ctx| {
            let t0 = Instant::now();
            let f = fig5_with(&ctx.bicg, &ctx.harness, &ctx.executor);
            vec![Artifact::from_table("fig5", &f.table(), &f.chart(), t0)]
        },
    },
    Job {
        name: "fig6",
        what: "fig6.{txt,csv} — per-kernel fair co-scheduling comparison",
        requests: |ctx| fig6_requests(&ctx.suite, &ctx.harness, 160, 8),
        render: |ctx| {
            let t0 = Instant::now();
            let f = fig6_with(&ctx.suite, &ctx.harness, 160, 8, &ctx.executor);
            vec![Artifact::from_table("fig6", &f.table(), "", t0)]
        },
    },
    Job {
        name: "fig7",
        what: "fig7.{txt,csv} — interference sensitivity vs T",
        requests: |ctx| fig7_requests(&ctx.suite, &ctx.harness, 8),
        render: |ctx| {
            let t0 = Instant::now();
            let f = fig7_with(&ctx.suite, &ctx.harness, 8, &ctx.executor);
            vec![Artifact::from_table("fig7", &f.table(), "", t0)]
        },
    },
    Job {
        name: "whatif",
        what: "whatif.{txt,csv} — LLC policy what-if sweep (replay-derived)",
        requests: |ctx| whatif_requests(&ctx.bicg),
        render: |ctx| {
            let t0 = Instant::now();
            let w = whatif_with(&ctx.bicg, &ctx.executor);
            vec![Artifact::from_table("whatif", &w.table(), "", t0)]
        },
    },
    Job {
        name: "interference",
        what: "interference_sweep.{txt,csv} — co-runner count sweep",
        requests: |ctx| interference::interference_requests(&ctx.bicg, 160 * KIB, 8, 11, 6),
        render: |ctx| {
            let t0 = Instant::now();
            let ex = &ctx.executor;
            let rows = interference::interference_sweep_with(&ctx.bicg, 160 * KIB, 8, 11, 6, ex);
            vec![Artifact::from_table(
                "interference_sweep",
                &interference::sweep_table(&rows, "bicg", 160, 8),
                "",
                t0,
            )]
        },
    },
    Job {
        name: "mei",
        what: "mei.{txt,csv} — biased-random replacement validation",
        requests: |_| Vec::new(),
        render: |ctx| {
            let t0 = Instant::now();
            let (_, table) = mei(if ctx.quick { 5_000 } else { 50_000 }, 7);
            vec![Artifact::from_table("mei", &table, "", t0)]
        },
    },
    Job {
        name: "ablation",
        what: "ablation_{policy,msg,adaptive,bias}.{txt,csv} — beyond-paper ablations",
        requests: |ctx| {
            let (bicg, harness) = (&ctx.bicg, &ctx.harness);
            [
                ablation::policy_requests(bicg, harness, 160 * KIB, POLICY_RS),
                ablation::msg_requests(bicg, harness, 96 * KIB, 160 * KIB, MSGS_US),
                ablation::adaptive_requests(bicg, harness, 160 * KIB),
                ablation::bias_requests(bicg, harness, 160 * KIB, BIAS_WEIGHTS),
            ]
            .concat()
        },
        render: |ctx| {
            // Each ablation gets its own t0 so the log lines report per-artifact
            // cost, not cumulative elapsed time.
            let t0 = Instant::now();
            let (bicg, harness, ex) = (&ctx.bicg, &ctx.harness, &ctx.executor);
            let mut out = Vec::new();
            let rows = ablation::policy_ablation_with(bicg, harness, 160 * KIB, POLICY_RS, ex);
            out.push(Artifact::from_table(
                "ablation_policy",
                &ablation::policy_table(&rows, 160),
                "",
                t0,
            ));
            let t0 = Instant::now();
            let rows = ablation::msg_ablation_with(bicg, harness, 96 * KIB, 160 * KIB, MSGS_US, ex);
            out.push(Artifact::from_table(
                "ablation_msg",
                &ablation::msg_table(&rows, 96, 160),
                "",
                t0,
            ));
            let t0 = Instant::now();
            let rows = ablation::adaptive_ablation_with(bicg, harness, 160 * KIB, ex);
            out.push(Artifact::from_table(
                "ablation_adaptive",
                &ablation::adaptive_table(&rows, 160),
                "",
                t0,
            ));
            let t0 = Instant::now();
            let rows = ablation::bias_ablation_with(bicg, harness, 160 * KIB, BIAS_WEIGHTS, ex);
            out.push(Artifact::from_table(
                "ablation_bias",
                &ablation::bias_table(&rows, 160),
                "",
                t0,
            ));
            out
        },
    },
];

/// Subcommands dispatched outside [`JOBS`] (explicit-only; they never
/// run as part of the default full set).
const EXPLICIT_JOBS: &[(&str, &str)] = &[
    (
        "matrix",
        "matrix.{txt,csv} — scenario matrix (explicit only)",
    ),
    (
        "trace",
        "trace_{reuse,heatmap,policy_replay}.{txt,csv} + trace_capture.bin — \
         LLC capture, analyses, replay sweep (explicit only)",
    ),
    (
        "obs",
        "obs.{txt,csv} — phase-timing breakdown of a metered what-if plan \
         (explicit only; implies metrics recording)",
    ),
];

/// Renders the artifact listing for `--list` and error messages.
fn listing() -> String {
    let mut out = String::from(
        "figures [quick] [subcommand...] — artifacts under results/\n\
         modifiers: quick (reduced sizes), all (the default figure set, \
         explicitly), --list (this listing)\n\
         cache: on by default at results/.runcache (see CACHING.md); \
         `cache {stats,verify,gc}` introspects it\n\
         replay: policy/seed siblings derive from one captured live run \
         per derivation family (bit-identical outputs)\n\
         executor flags (shared with bench_matrix and serve):\n",
    );
    out.push_str(EXEC_FLAGS_HELP);
    out.push('\n');
    for (name, what) in JOBS
        .iter()
        .map(|job| (job.name, job.what))
        .chain(EXPLICIT_JOBS.iter().copied())
    {
        out.push_str(&format!("  {name:<13} {what}\n"));
    }
    out
}

/// Every canonical key the current artifact set can request — the live
/// set `cache gc` keeps: every [`JOBS`] entry's requests and the scenario
/// matrix, both full and quick, plus fig6's data-dependent best-T
/// follow-up whenever the store already holds the complete first wave it
/// derives from (computed through a store-backed executor, i.e. from
/// cache, never by executing anything).
fn live_keys(cache_dir: &Path) -> std::io::Result<HashSet<String>> {
    let mut keys = HashSet::new();
    for quick in [false, true] {
        let store = RunStore::open(cache_dir)?;
        let ctx = Ctx::new(quick, PlanExecutor::new().with_store(store));
        for job in JOBS {
            keys.extend((job.requests)(&ctx).iter().map(RunRequest::key));
        }
        let store = ctx.executor.store().expect("store-backed executor");
        let mut first_wave_cached = true;
        for req in fig6_requests(&ctx.suite, &ctx.harness, 160, 8) {
            first_wave_cached &= store.contains(&req.key())?;
        }
        if first_wave_cached {
            let tail = fig6_followup_requests(&ctx.suite, &ctx.harness, &ctx.executor);
            keys.extend(tail.iter().map(RunRequest::key));
        }
        let spec = if quick {
            MatrixSpec::quick(suite_small())
        } else {
            MatrixSpec::new(standard_suite())
        };
        for cell in spec.expand() {
            keys.extend(cell_requests(&spec, &cell).iter().map(RunRequest::key));
        }
    }
    Ok(keys)
}

/// Dispatches `figures -- cache <action>`; returns the process exit code.
fn cache_command(action: Option<&str>, cache_dir: &Path) -> i32 {
    let fail = |e: std::io::Error| -> i32 {
        eprintln!("figures: cache command failed: {e}");
        1
    };
    match action {
        // `stats` reports through the metrics registry: per-shard record
        // and byte gauges plus the segment-load latency histogram, in
        // the registry's stable text rendering.
        Some("stats") => {
            let registry = Registry::new();
            match RunStore::open(cache_dir).and_then(|s| s.stats_metered(&registry)) {
                Ok(stats) => {
                    println!("run cache at {}", cache_dir.display());
                    println!(
                        "{} records, {} segment file(s)",
                        stats.records, stats.segments
                    );
                    print!("{}", registry.snapshot().to_text());
                    0
                }
                Err(e) => fail(e),
            }
        }
        Some("verify") => match RunStore::open(cache_dir).and_then(|s| s.verify()) {
            Ok(stats) => {
                print!(
                    "verify ok: every record decoded and checksummed at {}\n{stats}",
                    cache_dir.display()
                );
                0
            }
            Err(e) => fail(e),
        },
        Some("gc") => {
            let keep = match live_keys(cache_dir) {
                Ok(keys) => keys,
                Err(e) => return fail(e),
            };
            match RunStore::open(cache_dir).and_then(|s| s.gc(|key| keep.contains(key))) {
                Ok(report) => {
                    println!("{report} at {}", cache_dir.display());
                    0
                }
                Err(e) => fail(e),
            }
        }
        _ => {
            eprintln!("figures: usage: cache {{stats,verify,gc}} [--cache-dir <path>]");
            2
        }
    }
}

fn main() {
    // Executor flags (shared parser; everything else passes through).
    let (flags, args) = ExecFlags::parse("results/.runcache", std::env::args().skip(1))
        .unwrap_or_else(|e| {
            eprintln!("figures: {e}\n\n{}", listing());
            std::process::exit(2);
        });
    let cache_dir = flags.cache_dir.clone();
    if args.iter().any(|a| a == "--list") {
        print!("{}", listing());
        return;
    }
    if args.first().map(String::as_str) == Some("cache") {
        std::process::exit(cache_command(args.get(1).map(String::as_str), &cache_dir));
    }
    let quick = args.iter().any(|a| a == "quick");
    let which: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "quick" && *a != "all")
        .collect();
    let known = |a: &str| {
        JOBS.iter().any(|job| job.name == a) || EXPLICIT_JOBS.iter().any(|(name, _)| *name == a)
    };
    if let Some(bad) = which.iter().find(|a| !known(a)) {
        eprintln!("figures: unknown subcommand '{bad}'\n\n{}", listing());
        std::process::exit(2);
    }
    // `all` is the default figure set, spelled out (so `figures -- all
    // quick` is the canonical CI smoke invocation).
    let all = which.is_empty() || args.iter().any(|a| a == "all");
    let explicit_only = |name: &str| EXPLICIT_JOBS.iter().any(|(n, _)| *n == name);
    let run = |name: &str| (all && !explicit_only(name)) || which.contains(&name);
    let workers = default_workers();

    // One registry for the whole invocation when metrics are on. The
    // `obs` artifact needs timings even without `--metrics`, so it
    // implies a (process-local) registry; only `--metrics` persists the
    // snapshot.
    let registry: Option<Registry> = flags.registry().or_else(|| run("obs").then(Registry::new));

    // Parent directories (results/ included) are created per write by
    // `write_artifact`, so a nested or freshly wiped output tree works.
    let outdir = Path::new("results");

    // The store directory (and any missing parents) is created by
    // `RunStore::open`; corruption or I/O failure opening it is fatal
    // by the cache's hard-error policy.
    let executor = flags.executor().unwrap_or_else(|e| {
        eprintln!(
            "figures: cannot open run cache at {}: {e}",
            cache_dir.display()
        );
        std::process::exit(1);
    });

    let ctx = Ctx::new(quick, executor);

    let emit = |artifact: &Artifact| {
        println!("{}", artifact.text);
        write_artifact(
            outdir.join(format!("{}.txt", artifact.name)),
            artifact.text.as_bytes(),
        );
        if let Some(csv) = &artifact.csv {
            write_artifact(
                outdir.join(format!("{}.csv", artifact.name)),
                csv.as_bytes(),
            );
        }
        eprintln!("{}", artifact.log);
    };

    let t0 = Instant::now();

    // Phase 1 — the merged plan: every requested job contributes its
    // canonical requests, the executor elides duplicates (both within and
    // across artifacts) and executes the unique frontier at run
    // granularity. fig6's best-T interference tail is data-dependent, so it
    // is planned as a second wave once the first is cached.
    let jobs: Vec<&Job> = JOBS.iter().filter(|job| run(job.name)).collect();
    let mut merged: Vec<RunRequest<'_>> =
        jobs.iter().flat_map(|job| (job.requests)(&ctx)).collect();
    if run("obs") && !run("whatif") {
        // `obs` rides the what-if plan: small, yet it exercises the live,
        // replay, family, and (when cached) disk-hit paths the breakdown
        // reports.
        merged.extend(whatif_requests(&ctx.bicg));
    }
    // Metered twin when a registry exists, identical null-sink path
    // otherwise — outputs are byte-identical either way.
    let execute = |requests: &[RunRequest<'_>]| match registry.as_ref() {
        Some(reg) => ctx.executor.execute_metered(requests, workers, reg),
        None => ctx
            .executor
            .execute_metered(requests, workers, &NullMetrics),
    };
    if !merged.is_empty() {
        let tp = Instant::now();
        let summary = execute(&merged);
        eprintln!("[{summary} (merged figure plan, {:?})]", tp.elapsed());
        if run("fig6") {
            let tail = fig6_followup_requests(&ctx.suite, &ctx.harness, &ctx.executor);
            let summary = execute(&tail);
            eprintln!("[{summary} (fig6 best-T follow-up)]");
        }
    }

    // Phase 2 — job-granular artifacts: plan-based artifacts render from
    // the warm cache; the remaining generators compute as before.
    for artifacts in parallel_map(workers, &jobs, |job| {
        let _render = registry
            .as_ref()
            .map(|r| Span::start(r, "figures.render_ns"));
        (job.render)(&ctx)
    }) {
        for artifact in &artifacts {
            emit(artifact);
        }
    }

    if run("matrix") {
        let tm = Instant::now();
        let spec = if quick {
            MatrixSpec::quick(ctx.suite)
        } else {
            MatrixSpec::new(ctx.suite)
        };
        let result = match registry.as_ref() {
            Some(reg) => run_matrix_metered(&spec, workers, &ctx.executor, reg),
            None => run_matrix_metered(&spec, workers, &ctx.executor, &NullMetrics),
        };
        emit(&Artifact {
            name: "matrix".into(),
            text: result.render(),
            csv: Some(result.to_csv()),
            log: format!(
                "[matrix done in {:?}: {} cells on {workers} worker(s)]",
                tm.elapsed(),
                result.cells().len()
            ),
        });
    }

    if run("trace") {
        let tt = Instant::now();
        let art = prem_trace::trace_artifacts(&ctx.bicg, 160 * KIB, 8, 11);
        write_artifact(outdir.join("trace_capture.bin"), &art.encoded);
        // One capture+sweep produces all three tables, so there is no
        // meaningful per-artifact cost to report — the log lines say so
        // and the summary below carries the job total.
        let emit_table = |name: &str, table: &Table, extra: &str| {
            emit(&Artifact {
                name: name.to_string(),
                text: format!("{table}\n{extra}"),
                csv: Some(table.to_csv()),
                log: format!("[{name} written (one shared trace job, total below)]"),
            });
        };
        emit_table("trace_reuse", &art.reuse, "");
        emit_table("trace_heatmap", &art.heatmap, &art.heatmap_extra);
        emit_table("trace_policy_replay", &art.policy_replay, &art.policy_extra);
        eprintln!(
            "[trace done in {:?}: {} events, {} bytes -> results/trace_capture.bin]",
            tt.elapsed(),
            art.trace.events.len(),
            art.encoded.len()
        );
    }
    // The obs artifact renders last so it sees every phase recorded
    // above (merged plan, renders, matrix); the snapshot is read-only,
    // so the breakdown can never perturb the artifacts it reports on.
    if run("obs") {
        let t0 = Instant::now();
        let snap = registry
            .as_ref()
            .expect("obs implies a registry")
            .snapshot();
        let table = obs_table(&snap);
        let extra = obs_counters(&snap);
        emit(&Artifact::from_table("obs", &table, &extra, t0));
    }

    if flags.metrics_enabled() {
        let registry = registry.as_ref().expect("--metrics implies a registry");
        match flags.write_metrics(registry) {
            Ok(path) => eprintln!("[metrics snapshot -> {}]", path.display()),
            Err(e) => {
                eprintln!("figures: cannot write metrics snapshot: {e}");
                std::process::exit(1);
            }
        }
    }

    eprintln!(
        "[all artifacts done in {:?} on {workers} worker(s); cumulative {}]",
        t0.elapsed(),
        ctx.executor.summary()
    );
}
