//! CI performance gate over the quick scenario matrix, the trace
//! subsystem's hot paths and the run-plan layer.
//!
//! Runs every cell of the quick matrix **sequentially**, timing each one,
//! then times the trace pipeline on the quick capture kernel (capture,
//! encode, decode, and one replay per replacement policy), then the
//! run-plan hot paths (plan expansion, dedup of an already-cached plan
//! resubmission, the cache-hit lookup path, the observability layer's
//! metrics-off and metrics-on executions, the persistent run
//! store's cold — execute + append — and warm — all disk hits — paths,
//! the packed cache layout's raw access throughput, and the
//! profile-memo column — memoization off vs on over one interference
//! sweep's scenario siblings), and writes
//! `results/BENCH_matrix.json` (wall-time per entry + total). The total
//! is compared against a committed baseline (`ci/bench_baseline.json` by
//! default): a regression beyond the tolerance fails the process, which
//! is what gates the CI `bench` job — covering trace replay and the plan
//! cache the same way it covers the simulator.
//!
//! Sequential timing is deliberate: the sum of per-cell times is stable
//! across host core counts, while a parallel wall-time would make the
//! gate depend on the runner's machine shape.
//!
//! Environment:
//!
//! * `PREM_BENCH_BASELINE` — path of the baseline JSON (default
//!   `ci/bench_baseline.json`);
//! * `PREM_BENCH_TOLERANCE` — allowed fractional regression (default
//!   `0.25` = 25 %);
//! * `PREM_BENCH_WRITE_BASELINE=1` — rewrite the baseline from this run
//!   and exit successfully (how the committed numbers are refreshed).
//!
//! Flags: the shared executor flags (`prem_harness::flags`) are parsed
//! so the spelling matches `figures` and `serve`, but only `--cache-dir`
//! (relocating the scratch stores) is honored — the cache/replay toggles
//! are rejected because the store and replay tiers are what the gate
//! measures.

use std::fmt::Write as _;
use std::fs;
use std::process::ExitCode;
use std::time::Instant;

use prem_bench::{PROFILE_MEMO_MIN_SPEEDUP, REPLAY_COLUMN_MIN_SPEEDUP};
use prem_gpusim::CorunnerProfile;
use prem_harness::{
    run_cell_with, write_artifact, ExecFlags, MatrixPolicy, MatrixScenario, MatrixSpec,
    PlanExecutor, RunSource, RunStore, EXEC_FLAGS_HELP,
};
use prem_kernels::{suite_small, Bicg};
use prem_report::common::Harness;
use prem_report::fig3::fig35_requests;
use prem_report::whatif::whatif_requests;

/// Formats one measured cell as a JSON object line.
fn cell_json(key: &str, ms: f64) -> String {
    format!("    {{\"key\": \"{key}\", \"ms\": {ms:.3}}}")
}

/// Extracts the `"total_ms"` number from a baseline JSON document.
///
/// The workspace is offline (no serde); the baseline format is fixed and
/// produced by this binary, so a targeted scan is all the parsing needed.
fn parse_total_ms(json: &str) -> Option<f64> {
    let idx = json.find("\"total_ms\"")?;
    let rest = &json[idx + "\"total_ms\"".len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() -> ExitCode {
    // Shared executor flags: `--cache-dir` relocates the scratch stores
    // this gate builds and deletes; the cache/replay toggles are
    // rejected because the store tiers and the replay column ARE the
    // measured scenario — a gate timed with them off would compare
    // incomparable numbers against the committed baseline.
    let (flags, rest) = ExecFlags::parse(std::env::temp_dir(), std::env::args().skip(1))
        .unwrap_or_else(|e| {
            eprintln!("bench_matrix: {e}\n\nexecutor flags:\n{EXEC_FLAGS_HELP}");
            std::process::exit(2);
        });
    if flags.cache_overridden() || flags.replay_overridden() || flags.metrics_enabled() {
        eprintln!(
            "bench_matrix: --cache/--no-cache/--no-replay/--metrics would unground \
             the gate's baseline (the obs entries already time metrics on and off); \
             only --cache-dir is honored here"
        );
        return ExitCode::from(2);
    }
    if let Some(extra) = rest.first() {
        eprintln!("bench_matrix: unexpected argument `{extra}`");
        return ExitCode::from(2);
    }
    let scratch_root = flags.cache_dir.clone();

    let spec = MatrixSpec::quick(suite_small());
    let cells = spec.expand();
    eprintln!(
        "[bench_matrix: timing {} quick cells sequentially]",
        cells.len()
    );

    let mut cell_lines = Vec::with_capacity(cells.len());
    let mut total_ms = 0.0f64;
    for cell in &cells {
        let key = format!(
            "{}({})|{}|{}|{}#{}",
            spec.kernels[cell.kernel].name(),
            spec.kernels[cell.kernel].dims(),
            spec.platforms[cell.platform].name,
            spec.policies[cell.policy].name(),
            cell.scenario.name(),
            cell.seed_index,
        );
        let t0 = Instant::now();
        let _ = run_cell_with(&spec, cell, &PlanExecutor::new());
        let ms = t0.elapsed().as_secs_f64() * 1000.0;
        total_ms += ms;
        cell_lines.push(cell_json(&key, ms));
    }

    // Trace pipeline: capture once, then exercise every hot path the
    // replay engine rests on. Timed sequentially like the cells, so the
    // committed total stays machine-shape independent.
    let mut timed = |key: &str, ms: f64| {
        total_ms += ms;
        cell_lines.push(cell_json(key, ms));
    };
    let t0 = Instant::now();
    let (_, trace) = prem_trace::quick_capture();
    timed(
        "trace:capture|bicg(512x512)",
        t0.elapsed().as_secs_f64() * 1000.0,
    );
    let t0 = Instant::now();
    let bytes = trace.encode();
    timed(
        "trace:encode|bicg(512x512)",
        t0.elapsed().as_secs_f64() * 1000.0,
    );
    let t0 = Instant::now();
    let decoded = prem_trace::Trace::decode(&bytes).expect("trace decode");
    timed(
        "trace:decode|bicg(512x512)",
        t0.elapsed().as_secs_f64() * 1000.0,
    );
    drop(decoded);
    let ways = trace.header.cache.ways();
    for policy in MatrixPolicy::what_if_axis() {
        let t0 = Instant::now();
        let _ = prem_trace::replay_with_policy(&trace, policy.instantiate(ways));
        timed(
            &format!("trace:replay|{}", policy.name()),
            t0.elapsed().as_secs_f64() * 1000.0,
        );
    }

    // Run-plan layer hot paths, on a small kernel so the entries time the
    // plan machinery plus a bounded amount of simulation. Expansion builds
    // a fig3-shaped plan (requests + canonical keys), `plan:execute`
    // executes its unique frontier once, `plan:dedup` resubmits the same
    // plan (all cache hits, nothing re-executes), and `plan:cache-hit`
    // serves every request through the lazy lookup path.
    let bicg = Bicg::new(128, 128);
    let harness = Harness::quick();
    let plan_requests = || fig35_requests(&bicg, &harness, 8, &[32, 48], &[32, 64]);
    let t0 = Instant::now();
    let mut key_bytes = 0usize;
    for _ in 0..100 {
        key_bytes += plan_requests().iter().map(|r| r.key().len()).sum::<usize>();
    }
    assert!(key_bytes > 0);
    timed(
        "plan:expand|fig35(bicg 128x128) x100",
        t0.elapsed().as_secs_f64() * 1000.0,
    );
    let requests = plan_requests();
    let executor = PlanExecutor::new();
    let t0 = Instant::now();
    let first = executor.execute(&requests, 1);
    timed(
        "plan:execute|unique frontier",
        t0.elapsed().as_secs_f64() * 1000.0,
    );
    assert!(first.executed + first.replayed > 0 && first.hits == 0);
    let t0 = Instant::now();
    let resubmit = executor.execute(&requests, 1);
    timed(
        "plan:dedup|resubmission",
        t0.elapsed().as_secs_f64() * 1000.0,
    );
    assert_eq!(
        (resubmit.executed, resubmit.replayed, resubmit.hits),
        (0, 0, first.executed + first.replayed),
        "resubmitted plan must be all hits"
    );
    let t0 = Instant::now();
    for req in &requests {
        let _ = executor.output(req);
    }
    timed(
        "plan:cache-hit|lookup path",
        t0.elapsed().as_secs_f64() * 1000.0,
    );
    assert_eq!(
        executor.executed_runs(),
        first.executed + first.replayed,
        "cache-hit path must not execute"
    );

    // Observability overhead: the same fig35 plan executed through the
    // metered entry point against the null sink (`execute` itself is this
    // monomorphization — it must track `plan:execute` above) and against
    // a live registry (bounds the cost of actually recording). Both feed
    // the gated total, so a metrics-path regression trips the baseline.
    let t0 = Instant::now();
    let obs_off = PlanExecutor::new();
    let off_summary = obs_off.execute_metered(&requests, 1, &prem_obs::NullMetrics);
    timed(
        "obs:off|null-sink execute",
        t0.elapsed().as_secs_f64() * 1000.0,
    );
    assert_eq!(
        off_summary, first,
        "obs:off must do the work plan:execute did"
    );
    let registry = prem_obs::Registry::new();
    let t0 = Instant::now();
    let obs_on = PlanExecutor::new();
    let on_summary = obs_on.execute_metered(&requests, 1, &registry);
    timed(
        "obs:on|registry execute",
        t0.elapsed().as_secs_f64() * 1000.0,
    );
    assert_eq!(
        on_summary, first,
        "obs:on must do the work plan:execute did"
    );
    {
        use prem_obs::MetricsSink as _;
        assert!(
            !prem_obs::NullMetrics.enabled() && registry.enabled(),
            "sink enablement must match what the two entries timed"
        );
    }
    let snap = registry.snapshot();
    for (counter, count) in [
        ("plan.live_runs", first.executed),
        ("plan.replayed", first.replayed),
        ("plan.families", first.families),
    ] {
        assert_eq!(
            snap.counter(counter),
            Some(count as u64),
            "metered run records {counter}"
        );
    }

    // Persistent run store: `store:cold` executes the same plan through a
    // store-backed executor and appends every output to a scratch store
    // on disk; `store:warm` reopens that store from a fresh executor (≈ a
    // second process) and must serve the whole plan from disk — zero live
    // executions — timing the segment parse + decode path.
    let store_dir = scratch_root.join(format!("prem-bench-store-{}", std::process::id()));
    let _ = fs::remove_dir_all(&store_dir);
    let t0 = Instant::now();
    let cold =
        PlanExecutor::new().with_store(RunStore::open(&store_dir).expect("open bench store"));
    let cold_summary = cold.execute(&requests, 1);
    timed(
        "store:cold|execute+append",
        t0.elapsed().as_secs_f64() * 1000.0,
    );
    assert_eq!(
        cold_summary, first,
        "cold store run must execute and derive the full unique frontier"
    );
    let t0 = Instant::now();
    let warm =
        PlanExecutor::new().with_store(RunStore::open(&store_dir).expect("reopen bench store"));
    let warm_summary = warm.execute(&requests, 1);
    timed("store:warm|disk-hit", t0.elapsed().as_secs_f64() * 1000.0);
    // The fig35 plan's isolation/interference pairs are derivation
    // families, so its unique requests are the live and the derived ones.
    assert_eq!(
        (
            warm_summary.executed,
            warm_summary.replayed,
            warm_summary.disk_hits
        ),
        (0, 0, first.executed + first.replayed),
        "warm store run must be all disk hits"
    );
    let _ = fs::remove_dir_all(&store_dir);

    // Replay-backed derivation (PR 7): a cold 7-policy × 3-seed what-if
    // column, timed three ways. `plan:column|live` executes all 21 runs
    // live (the `--no-replay` path), `plan:replay|cold` compiles the
    // family's stream from its tiling and derives all 21 runs from it,
    // `plan:replay|warm` re-renders the column from a fresh store-backed
    // executor (pure disk hits, replayed outputs included). The cold
    // live/replay ratio is the acceptance criterion of the derivation
    // family work and is asserted hard at `REPLAY_COLUMN_MIN_SPEEDUP`, on
    // top of the baseline total gating all entries.
    let column_kernel = Bicg::new(96, 96);
    let column = whatif_requests(&column_kernel);
    // The ratio gate compares min-of-3 cold executions per side: each rep
    // is a fresh executor, the min discards scheduler noise without hiding
    // a real regression.
    const COLUMN_REPS: usize = 3;
    let mut live_ms = f64::INFINITY;
    let mut live_exec = PlanExecutor::new().without_replay();
    for _ in 0..COLUMN_REPS {
        let exec = PlanExecutor::new().without_replay();
        let t0 = Instant::now();
        let live_summary = exec.execute(&column, 1);
        live_ms = live_ms.min(t0.elapsed().as_secs_f64() * 1000.0);
        assert_eq!(
            (live_summary.executed, live_summary.replayed),
            (column.len(), 0),
            "--no-replay column must execute every run live"
        );
        live_exec = exec;
    }
    timed("plan:column|live 7x3", live_ms);
    let mut replay_ms = f64::INFINITY;
    let mut replay_exec = PlanExecutor::new();
    for _ in 0..COLUMN_REPS {
        let exec = PlanExecutor::new();
        let t0 = Instant::now();
        let replay_summary = exec.execute(&column, 1);
        replay_ms = replay_ms.min(t0.elapsed().as_secs_f64() * 1000.0);
        assert_eq!(
            (
                replay_summary.executed,
                replay_summary.replayed,
                replay_summary.families
            ),
            (0, column.len(), 1),
            "the what-if column is one derivation family"
        );
        replay_exec = exec;
    }
    timed("plan:replay|cold 7x3", replay_ms);
    for req in &column {
        assert_eq!(
            replay_exec.output(req),
            live_exec.output(req),
            "replayed output diverged from live for {}",
            req.key()
        );
    }
    // Replayed outputs are first-class store citizens: persist the column
    // through a store-backed replay executor (untimed — disk cost is the
    // store's own benchmark), then time a warm re-render where every
    // derived run is a disk hit.
    let replay_store = scratch_root.join(format!("prem-bench-replay-{}", std::process::id()));
    let _ = fs::remove_dir_all(&replay_store);
    PlanExecutor::new()
        .with_store(RunStore::open(&replay_store).expect("open replay store"))
        .execute(&column, 1);
    let t0 = Instant::now();
    let warm_replay =
        PlanExecutor::new().with_store(RunStore::open(&replay_store).expect("reopen replay store"));
    let warm_column = warm_replay.execute(&column, 1);
    timed("plan:replay|warm 7x3", t0.elapsed().as_secs_f64() * 1000.0);
    assert_eq!(
        (
            warm_column.executed + warm_column.replayed,
            warm_column.disk_hits
        ),
        (0, column.len()),
        "replayed outputs must be disk hits in a fresh process"
    );
    let _ = fs::remove_dir_all(&replay_store);
    let speedup = live_ms / replay_ms;
    eprintln!(
        "[bench_matrix: what-if column {}x{} replay speedup {speedup:.2}x \
         (live {live_ms:.1} ms, replay {replay_ms:.1} ms)]",
        column.len() / 3,
        3
    );
    // Fused self-profiling cut the live side's cost roughly in half — a
    // live cell no longer pays a separate profiling pass — so the replay
    // elision's margin over live shrank from ~4x. The gate guards the
    // ordering (replay must stay cheaper than the compiled live path),
    // not the old margin.
    assert!(
        speedup >= REPLAY_COLUMN_MIN_SPEEDUP,
        "replay-backed column must be ≥{REPLAY_COLUMN_MIN_SPEEDUP}x faster than live \
         (got {speedup:.2}x: live {live_ms:.1} ms, replay {replay_ms:.1} ms)"
    );

    // Compiled live execution (PR 10). `exec:hotpath` times the packed
    // cache layout directly — a TX1-shaped LLC driven through a mixed
    // hit/miss stream, counting the sentinel-tag way scan, the hit early
    // return and the miss fill path with nothing else on the clock.
    let mut hot = prem_memsim::Cache::new(
        prem_memsim::CacheConfig::new(256 * prem_memsim::KIB, 4, 128)
            .policy(prem_memsim::Policy::nvidia_tegra()),
    );
    let hot_lines = (256 * prem_memsim::KIB / 128) as u64;
    let t0 = Instant::now();
    let mut sweep = hot_lines;
    for i in 0..2_000_000u64 {
        // Three strides over a half-capacity resident window (hits after
        // the first lap), then one step of an ever-advancing sweep
        // (misses): ~3/4 hit path, ~1/4 miss path.
        let line = if i % 4 == 3 {
            sweep += 1;
            sweep
        } else {
            (i * 3) % (hot_lines / 2)
        };
        let _ = hot.access(
            prem_memsim::LineAddr::new(line),
            if i % 8 == 0 {
                prem_memsim::AccessKind::Write
            } else {
                prem_memsim::AccessKind::Read
            },
            prem_memsim::Phase::CPhase,
        );
    }
    timed(
        "exec:hotpath|packed 2M accesses",
        t0.elapsed().as_secs_f64() * 1000.0,
    );
    let hot_stats = hot.stats();
    assert!(
        hot_stats.c_phase.hits > 0 && hot_stats.c_phase.misses > 0,
        "hot-path stream must exercise both the hit and the miss path"
    );

    // `exec:profile-memo|cold` vs `|warm`: an interference-sweep-shaped
    // scenario column — co-runner profiles × counts 0..=6, all siblings
    // of ONE profile key — executed with memoization off (every live cell
    // pays its own profiling pass) and on (the column charges at most a
    // single pass). Constant-contention unpolluted mixes derive from the
    // compiled stream, so the column uses mixes derivation cannot touch —
    // time-varying (bursty) contention — whose cells run live and pay a
    // real pass the memo elides. Only the count-0 isolation cell is
    // eligible: it is derived, and on the memoized side it backfills the
    // key's cell for the bursty cells. Bursty mixes are non-polluting, so
    // the pass and the timed run stage alike (both walk only the
    // prefetch-round lines whose LLC set missed in the round before) and,
    // with the timed C-phase reading contention through windows between
    // burst edges, cost about the same: the elided pass shows as a ~2x
    // cold/warm gap. A polluting profile would deflate the ratio instead
    // (its timed run also pays the pollution fills the pass never sees,
    // dwarfing the pass). R=16 keeps the column M-phase-heavy: the M-pass
    // costs the same in the profiling pass and the timed run, so the
    // sweep's co-runner C-phase overhead does not drown the pass the memo
    // elides. The cold/warm ratio is asserted hard at ≥1.5×, on top of
    // the baseline total gating both entries.
    let memo_kernel = Bicg::new(256, 256);
    let mut memo_column: Vec<prem_harness::RunRequest<'_>> = Vec::new();
    for (pi, profile) in [
        CorunnerProfile::Bursty {
            duty: 0.5,
            period_cycles: 80_000.0,
        },
        CorunnerProfile::Bursty {
            duty: 0.25,
            period_cycles: 40_000.0,
        },
    ]
    .into_iter()
    .enumerate()
    {
        // Count 0 is the same isolation scenario for every profile — the
        // plan would dedupe the repeat, so only the first sweep keeps it.
        for scenario in MatrixScenario::count_sweep(profile, 6)
            .into_iter()
            .skip(usize::from(pi > 0))
        {
            memo_column.push(prem_harness::RunRequest {
                kernel: &memo_kernel,
                platform: prem_harness::PlatformSpec::tx1(),
                work: prem_core::RunWork::PremLlc { r: 16 },
                t_bytes: 224 * prem_memsim::KIB,
                seed: 11,
                scenario,
                noise: prem_core::NoiseModel::tx1(),
            });
        }
    }
    // min-of-5 per side: the ratio gate needs tighter reps than the
    // replay column gate because its threshold sits closer to the
    // measured value.
    const MEMO_REPS: usize = 5;
    let mut cold_ms = f64::INFINITY;
    for _ in 0..MEMO_REPS {
        let exec = PlanExecutor::new().without_profile_memo();
        let t0 = Instant::now();
        let cold_summary = exec.execute(&memo_column, 1);
        cold_ms = cold_ms.min(t0.elapsed().as_secs_f64() * 1000.0);
        assert_eq!(
            (
                cold_summary.executed,
                cold_summary.replayed,
                cold_summary.profile_misses
            ),
            (memo_column.len() - 1, 1, 0),
            "memo-off column must profile per live cell and count nothing"
        );
    }
    timed("exec:profile-memo|cold 13-cell", cold_ms);
    let mut warm_ms = f64::INFINITY;
    for _ in 0..MEMO_REPS {
        let exec = PlanExecutor::new();
        let t0 = Instant::now();
        let warm_summary = exec.execute(&memo_column, 1);
        warm_ms = warm_ms.min(t0.elapsed().as_secs_f64() * 1000.0);
        assert_eq!(
            (warm_summary.profile_misses, warm_summary.profile_hits),
            (1, memo_column.len() - 2),
            "the scenario column's live cells share one profile key"
        );
    }
    timed("exec:profile-memo|warm 13-cell", warm_ms);
    let memo_speedup = cold_ms / warm_ms;
    eprintln!(
        "[bench_matrix: profile-memo column {}-cell speedup {memo_speedup:.2}x \
         (cold {cold_ms:.1} ms, warm {warm_ms:.1} ms)]",
        memo_column.len()
    );
    assert!(
        memo_speedup >= PROFILE_MEMO_MIN_SPEEDUP,
        "memoized profiling must be ≥{PROFILE_MEMO_MIN_SPEEDUP}x faster than per-cell \
         profiling (got {memo_speedup:.2}x: cold {cold_ms:.1} ms, warm {warm_ms:.1} ms)"
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"prem-bench-matrix/v1\",");
    let _ = writeln!(json, "  \"matrix\": \"quick\",");
    let _ = writeln!(json, "  \"cell_count\": {},", cells.len());
    let _ = writeln!(json, "  \"entry_count\": {},", cell_lines.len());
    let _ = writeln!(json, "  \"total_ms\": {total_ms:.3},");
    let _ = writeln!(json, "  \"cells\": [");
    let _ = writeln!(json, "{}", cell_lines.join(",\n"));
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    write_artifact("results/BENCH_matrix.json", json.as_bytes());
    eprintln!("[bench_matrix: total {total_ms:.1} ms -> results/BENCH_matrix.json]");

    let baseline_path = std::env::var("PREM_BENCH_BASELINE")
        .unwrap_or_else(|_| "ci/bench_baseline.json".to_string());
    if std::env::var("PREM_BENCH_WRITE_BASELINE").as_deref() == Ok("1") {
        write_artifact(&baseline_path, json.as_bytes());
        eprintln!("[bench_matrix: baseline rewritten at {baseline_path}]");
        return ExitCode::SUCCESS;
    }

    let tolerance: f64 = std::env::var("PREM_BENCH_TOLERANCE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.25);
    let baseline = match fs::read_to_string(&baseline_path) {
        Ok(text) => match parse_total_ms(&text) {
            Some(ms) => ms,
            None => {
                eprintln!("[bench_matrix: {baseline_path} has no total_ms — failing]");
                return ExitCode::FAILURE;
            }
        },
        Err(e) => {
            eprintln!("[bench_matrix: cannot read {baseline_path}: {e} — failing]");
            return ExitCode::FAILURE;
        }
    };

    let limit = baseline * (1.0 + tolerance);
    if total_ms > limit {
        eprintln!(
            "[bench_matrix: REGRESSION — {total_ms:.1} ms > {limit:.1} ms \
             (baseline {baseline:.1} ms + {:.0}%)]",
            tolerance * 100.0
        );
        ExitCode::FAILURE
    } else {
        eprintln!(
            "[bench_matrix: OK — {total_ms:.1} ms within {limit:.1} ms \
             (baseline {baseline:.1} ms + {:.0}%)]",
            tolerance * 100.0
        );
        ExitCode::SUCCESS
    }
}
