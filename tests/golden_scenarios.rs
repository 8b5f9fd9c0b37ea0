//! Golden-file tests pinning the preset scenario artifacts.
//!
//! The co-runner interference engine replaced the scalar contention model;
//! the refactor's contract is that the paper's two preset scenarios —
//! isolation and the three-membomb interference mix — produce **byte
//! identical** artifacts to the pre-refactor code. The CSVs under
//! `tests/goldens/` were generated by the `figures` binary immediately
//! before the refactor (`quick fig2`, `quick fig6`, `matrix quick`);
//! these tests regenerate them through the library APIs the binary uses.
//!
//! If one of these fails, the engine changed the timing or cache behavior
//! of a preset — that is a reproduction regression, not a golden-file
//! refresh situation.
//!
//! `trace_quick.csv` extends the same contract to the trace subsystem: it
//! pins the reuse-distance summary of the quick capture, and the
//! accompanying assertions pin that capture is invisible (traced run ≡
//! untraced run) and that replay reproduces the captured statistics.
//! `trace_policy_replay_quick.csv` pins the `figures -- trace quick`
//! policy × seed what-if grid; it was written before that grid moved onto
//! the plan layer's derivation families.
//!
//! The `ablation_*_quick.csv` and `interference_sweep_quick.csv` goldens
//! were written by `figures -- quick ablation interference` before the
//! executor entry points were collapsed into one per layer, while both
//! artifact families still executed outside the plan layer; they pin the
//! policy/bias ablations and the sweep across their move onto it.

use prem_core::RunWork;
use prem_gpusim::Scenario;
use prem_harness::{default_workers, run_matrix, MatrixSpec, PlanExecutor, RunRequest, RunStore};
use prem_kernels::{suite_small, Bicg};
use prem_memsim::KIB;
use prem_report::{
    ablation,
    common::Harness,
    fig2::fig2,
    fig3::{fig3_requests, fig3_with},
    fig6::{fig6, fig6_followup_requests, fig6_requests, fig6_with},
    fig7::{fig7_requests, fig7_with},
    interference, llc_request,
    whatif::{whatif_requests, whatif_with},
};

#[test]
fn fig2_quick_is_byte_identical_to_pre_refactor_golden() {
    let f = fig2(&Bicg::new(512, 512), 160 * KIB);
    assert_eq!(
        f.table().to_csv(),
        include_str!("goldens/fig2_quick.csv"),
        "fig2 quick CSV drifted from the pre-engine golden"
    );
}

#[test]
fn ablation_quick_tables_are_byte_identical_to_goldens() {
    // The four ablation tables of `figures -- quick ablation`, rendered
    // from the binary's exact arguments.
    let bicg = Bicg::new(512, 512);
    let harness = Harness::quick();
    let policy = ablation::policy_ablation(&bicg, &harness, 160 * KIB, &[1, 8]);
    assert_eq!(
        ablation::policy_table(&policy, 160).to_csv(),
        include_str!("goldens/ablation_policy_quick.csv"),
        "ablation_policy quick CSV drifted from the golden"
    );
    let msg = ablation::msg_ablation(
        &bicg,
        &harness,
        96 * KIB,
        160 * KIB,
        &[5.0, 10.0, 20.0, 50.0, 100.0],
    );
    assert_eq!(
        ablation::msg_table(&msg, 96, 160).to_csv(),
        include_str!("goldens/ablation_msg_quick.csv"),
        "ablation_msg quick CSV drifted from the golden"
    );
    let adaptive = ablation::adaptive_ablation(&bicg, &harness, 160 * KIB);
    assert_eq!(
        ablation::adaptive_table(&adaptive, 160).to_csv(),
        include_str!("goldens/ablation_adaptive_quick.csv"),
        "ablation_adaptive quick CSV drifted from the golden"
    );
    let bias = ablation::bias_ablation(&bicg, &harness, 160 * KIB, &[1, 2, 3, 5, 9]);
    assert_eq!(
        ablation::bias_table(&bias, 160).to_csv(),
        include_str!("goldens/ablation_bias_quick.csv"),
        "ablation_bias quick CSV drifted from the golden"
    );
}

#[test]
fn interference_sweep_quick_is_byte_identical_to_golden() {
    // `figures -- quick interference`: 0-6 co-runners per profile.
    let rows = interference::interference_sweep(&Bicg::new(512, 512), 160 * KIB, 8, 11, 6);
    assert_eq!(
        interference::sweep_table(&rows, "bicg", 160, 8).to_csv(),
        include_str!("goldens/interference_sweep_quick.csv"),
        "interference_sweep quick CSV drifted from the golden"
    );
}

#[test]
fn fig6_quick_is_byte_identical_to_pre_refactor_golden() {
    let f = fig6(&suite_small(), &Harness::quick(), 160, 8);
    assert_eq!(
        f.table().to_csv(),
        include_str!("goldens/fig6_quick.csv"),
        "fig6 quick CSV (isolation + interference presets) drifted from the pre-engine golden"
    );
}

#[test]
fn merged_plan_regenerates_fig3_fig6_fig7_byte_identical_to_pre_plan_goldens() {
    // The run-plan cross-check: fig3, fig6 and fig7 (quick) are rebuilt as
    // *one merged, deduplicated plan* on a shared executor and rendered
    // from its cache. The CSVs must be byte-identical to the goldens
    // captured from the per-figure execution paths immediately before the
    // plan refactor — dedup and caching may only remove repeated work,
    // never change a byte of output.
    let harness = Harness::quick();
    let bicg = Bicg::new(512, 512);
    let suite = suite_small();

    let mut merged: Vec<RunRequest<'_>> = fig3_requests(&bicg, &harness);
    merged.extend(fig6_requests(&suite, &harness, 160, 8));
    merged.extend(fig7_requests(&suite, &harness, 8));
    merged.extend(whatif_requests(&bicg));

    let executor = PlanExecutor::new();
    let summary = executor.execute(&merged, default_workers());
    assert!(
        summary.elided > 0,
        "fig6 and fig7 share baselines and LLC points — a merged plan with \
         zero elisions means the canonical keys drifted apart"
    );
    assert!(
        summary.replayed > 0 && summary.families > 0,
        "the what-if column keeps its full seed set in quick mode precisely \
         so a quick merged plan always contains a derivation family"
    );
    assert_eq!(
        summary.executed + summary.replayed + summary.elided,
        summary.requested,
        "first merged submission: every request runs, derives or is elided"
    );
    executor.execute(
        &fig6_followup_requests(&suite, &harness, &executor),
        default_workers(),
    );
    let executed_after_plan = executor.executed_runs();

    assert_eq!(
        fig3_with(&bicg, &harness, &executor).table().to_csv(),
        include_str!("goldens/fig3_quick.csv"),
        "fig3 quick CSV through the plan layer drifted from the pre-plan golden"
    );
    assert_eq!(
        fig6_with(&suite, &harness, 160, 8, &executor)
            .table()
            .to_csv(),
        include_str!("goldens/fig6_quick.csv"),
        "fig6 quick CSV through the plan layer drifted from the pre-plan golden"
    );
    assert_eq!(
        fig7_with(&suite, &harness, 8, &executor).table().to_csv(),
        include_str!("goldens/fig7_quick.csv"),
        "fig7 quick CSV through the plan layer drifted from the pre-plan golden"
    );
    assert_eq!(
        whatif_with(&bicg, &executor),
        whatif_with(&bicg, &PlanExecutor::new().without_replay()),
        "the replay-derived what-if sweep drifted from live execution"
    );
    assert_eq!(
        executor.executed_runs(),
        executed_after_plan,
        "rendering must be pure cache traffic: the plan builders failed to \
         enumerate something a renderer consumed"
    );
}

#[test]
fn replay_derived_outputs_persist_and_reload_like_live_ones() {
    // The derivation × persistence cross-check: a cold store-backed
    // executor satisfies the what-if column with one compiled family and
    // no live run, and appends *every* derived output to the disk
    // store. A fresh executor on the reopened store (≈ a second
    // process) must then serve the whole column from disk, executing and
    // replaying nothing, and render the exact artifact the cold pass
    // rendered.
    let dir = std::env::temp_dir().join(format!("prem-golden-replay-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let bicg = Bicg::new(512, 512);
    let column = whatif_requests(&bicg);

    let cold = PlanExecutor::new().with_store(RunStore::open(&dir).expect("open store"));
    let summary = cold.execute(&column, default_workers());
    assert_eq!(summary.families, 1, "the column is one derivation family");
    assert_eq!(
        summary.executed, 0,
        "no run executes live to serve a family"
    );
    assert_eq!(summary.replayed, column.len());
    let cold_render = whatif_with(&bicg, &cold);

    let warm = PlanExecutor::new().with_store(RunStore::open(&dir).expect("reopen store"));
    let summary = warm.execute(&column, default_workers());
    assert_eq!(
        (summary.executed, summary.replayed, summary.hits),
        (0, 0, 0),
        "warm column must be pure disk traffic"
    );
    assert_eq!(
        summary.disk_hits,
        column.len(),
        "every output — the replay-derived ones included — must be a disk hit"
    );
    assert_eq!(
        whatif_with(&bicg, &warm),
        cold_render,
        "warm render of the replay-derived column drifted from the cold one"
    );
    assert_eq!(warm.executed_runs(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn warm_disk_cache_renders_fig3_and_fig7_byte_identical_to_goldens() {
    // The persistent-store cross-check: outputs executed by one process
    // and served to a second purely from the on-disk run cache must
    // render the same bytes as live execution. A cold store-backed
    // executor runs the fig3 + fig7 quick plans and persists them; a
    // fresh executor on a *reopened* store (≈ a second process) then
    // renders both figures without executing a single run, and the CSVs
    // must match the committed goldens byte for byte.
    let dir = std::env::temp_dir().join(format!("prem-golden-store-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let harness = Harness::quick();
    let bicg = Bicg::new(512, 512);
    let suite = suite_small();
    let mut merged: Vec<RunRequest<'_>> = fig3_requests(&bicg, &harness);
    merged.extend(fig7_requests(&suite, &harness, 8));

    let cold = PlanExecutor::new().with_store(RunStore::open(&dir).expect("open store"));
    let summary = cold.execute(&merged, default_workers());
    assert!(
        summary.executed + summary.replayed > 0,
        "cold store cannot satisfy the plan"
    );
    assert_eq!(summary.disk_hits, 0, "cold store produced disk hits");

    let warm = PlanExecutor::new().with_store(RunStore::open(&dir).expect("reopen store"));
    let summary = warm.execute(&merged, default_workers());
    assert_eq!(
        (summary.executed, summary.hits),
        (0, 0),
        "warm plan must be pure disk traffic"
    );
    assert!(summary.disk_hits > 0, "warm plan reported no disk hits");
    assert_eq!(
        fig3_with(&bicg, &harness, &warm).table().to_csv(),
        include_str!("goldens/fig3_quick.csv"),
        "fig3 quick CSV from the warm disk cache drifted from the golden"
    );
    assert_eq!(
        fig7_with(&suite, &harness, 8, &warm).table().to_csv(),
        include_str!("goldens/fig7_quick.csv"),
        "fig7 quick CSV from the warm disk cache drifted from the golden"
    );
    assert_eq!(
        warm.executed_runs(),
        0,
        "a warm regeneration must not execute anything"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metered_execution_renders_goldens_byte_identical_to_metrics_off() {
    // The observability contract: metrics observe execution, they never
    // steer it. The same merged quick plan runs once through the default
    // (null-sink) path and once against a live registry; the summaries
    // must be equal, the rendered CSVs must match the committed goldens
    // byte for byte, and the metered pass must actually have recorded —
    // a silently disabled registry would make this test vacuous.
    let harness = Harness::quick();
    let bicg = Bicg::new(512, 512);
    let suite = suite_small();
    let requests = || {
        let mut merged: Vec<RunRequest<'_>> = fig3_requests(&bicg, &harness);
        merged.extend(fig7_requests(&suite, &harness, 8));
        merged.extend(whatif_requests(&bicg));
        // Adaptive prefetching is never replay-eligible: this request
        // runs live, so the live span is pinned too.
        let mut until = llc_request(&bicg, 160 * KIB, 8, 11, Scenario::Isolation);
        until.work = RunWork::PremLlcUntilResident;
        merged.push(until);
        merged
    };

    let off = PlanExecutor::new();
    let off_summary = off.execute(&requests(), default_workers());
    let registry = prem_obs::Registry::new();
    let on = PlanExecutor::new();
    let on_summary = on.execute_metered(&requests(), default_workers(), &registry);
    assert_eq!(
        off_summary, on_summary,
        "a live registry changed what the plan executed"
    );
    assert_eq!(
        fig3_with(&bicg, &harness, &on).table().to_csv(),
        include_str!("goldens/fig3_quick.csv"),
        "fig3 quick CSV with metrics on drifted from the golden"
    );
    assert_eq!(
        fig7_with(&suite, &harness, 8, &on).table().to_csv(),
        include_str!("goldens/fig7_quick.csv"),
        "fig7 quick CSV with metrics on drifted from the golden"
    );
    assert_eq!(
        whatif_with(&bicg, &on),
        whatif_with(&bicg, &off),
        "the what-if sweep diverged between metered and unmetered passes"
    );
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("plan.requested"),
        Some(requests().len() as u64),
        "the metered pass did not record"
    );
    assert_eq!(
        snap.counter("plan.live_runs"),
        Some(on_summary.executed as u64)
    );
    // Each live run leaves one live sample, each family one compile
    // sample and each derived member one replay sample.
    let samples = |name| snap.hist(name).map_or(0, |h| h.count());
    assert!(
        on_summary.executed > 0 && on_summary.replayed > 0,
        "the plan must execute live and derive: {on_summary:?}"
    );
    assert_eq!(samples("plan.live_ns"), on_summary.executed as u64);
    assert_eq!(samples("plan.compile_ns"), on_summary.families as u64);
    assert_eq!(samples("plan.replay_ns"), on_summary.replayed as u64);
}

#[test]
fn matrix_quick_is_byte_identical_to_pre_refactor_golden() {
    let result = run_matrix(&MatrixSpec::quick(suite_small()), default_workers());
    assert_eq!(
        result.to_csv(),
        include_str!("goldens/matrix_quick.csv"),
        "quick scenario-matrix CSV drifted from the pre-engine golden"
    );
}

#[test]
fn trace_quick_reuse_summary_is_pinned_and_capture_is_invisible() {
    // The quick capture (bicg 512×512, T = 160 KiB, R = 8, seed 11 — the
    // `figures -- trace quick` configuration) pins three contracts at
    // once:
    //
    //  1. the reuse-distance summary of the captured stream is
    //     byte-identical to the committed golden — the capture path can
    //     never silently change what the simulator does;
    //  2. the captured `PremRun` equals the untraced experiment runner's
    //     run field-for-field — recording is invisible to the timed run;
    //  3. replaying the capture reproduces the run's `CacheStats` — the
    //     replay-equivalence contract on the golden configuration.
    let (run, trace) = prem_trace::quick_capture();
    assert_eq!(
        prem_trace::reuse_table(&trace).to_csv(),
        include_str!("goldens/trace_quick.csv"),
        "quick capture reuse-distance CSV drifted from the golden"
    );
    let plain = llc_request(&Bicg::new(512, 512), 160 * KIB, 8, 11, Scenario::Isolation)
        .execute()
        .prem();
    assert_eq!(plain, run, "capture-on perturbed the simulation");
    assert_eq!(
        prem_trace::replay_captured(&trace),
        run.llc,
        "replay diverged from the captured run"
    );
}

#[test]
fn trace_quick_policy_replay_grid_is_byte_identical_to_golden() {
    // The `figures -- trace quick` what-if grid (7 policies x 3 seeds). The
    // golden was written before the grid moved onto the plan layer; its
    // rows also show the grid is not vacuous (at seed 11 biased-random
    // misses 12497 times, LRU 8379).
    let art = prem_trace::trace_artifacts(&Bicg::new(512, 512), 160 * KIB, 8, 11);
    assert_eq!(
        art.policy_replay.to_csv(),
        include_str!("goldens/trace_policy_replay_quick.csv"),
        "quick policy-replay CSV drifted from the golden"
    );
}
