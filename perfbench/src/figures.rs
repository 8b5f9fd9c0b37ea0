//! The figure workloads: the paper-scale `figures all` artifact set,
//! rebuilt in-process from the public builders.
//!
//! A pass mirrors the `figures` binary at one worker: the merged
//! fig3/4/5/6/7/what-if plan, fig6's best-T follow-up wave, then every
//! render in the binary's output order. Artifact bytes are exactly what
//! `figures all` writes to `results/`, so [`digest`] of a pass can be
//! compared against the files on disk.

use std::path::Path;
use std::time::Instant;

use prem_core::{run_prem, NoiseModel, PremConfig, SyncConfig};
use prem_gpusim::{PlatformConfig, Scenario};
use prem_harness::seed::fingerprint_bytes;
use prem_harness::{PlanExecutor, PlanSummary, RunRequest, RunStore};
use prem_kernels::{case_study_bicg, standard_suite, Bicg, Kernel};
use prem_memsim::KIB;
use prem_obs::Registry;
use prem_report::{
    ablation,
    common::Harness,
    fig2::fig2,
    fig3::{fig3_requests, fig3_with, fig5_requests, fig5_with},
    fig4::{fig4_requests, fig4_with},
    fig6::{fig6_followup_requests, fig6_requests, fig6_with},
    fig7::{fig7_requests, fig7_with},
    interference,
    mei::mei,
    whatif::{whatif_requests, whatif_with},
    Table,
};

use crate::calib::{self, HostClock, UnitCheckpoints};
use crate::layers::{attach_plan_children, Sums};
use crate::seeds::Inputs;
use crate::trace::{Kind, Trace};
use crate::WORKERS;

/// The inputs every render shares, built during set-up.
pub struct Ctx {
    harness: Harness,
    bicg: Bicg,
    suite: Vec<Box<dyn Kernel>>,
    interference_seed: u64,
    mei_seed: u64,
}

impl Ctx {
    /// Suite and kernel construction for `inputs`.
    pub fn new(inputs: &Inputs) -> Ctx {
        Ctx {
            harness: Harness {
                seeds: inputs.harness_seeds.clone(),
            },
            bicg: case_study_bicg(),
            suite: standard_suite(),
            interference_seed: inputs.interference_seed,
            mei_seed: inputs.mei_seed,
        }
    }
}

/// Set-up of one pass: suite and kernel construction, the store, the
/// executor. Returns the context, the executor and how long
/// `RunStore::open` took (ns).
pub fn setup(inputs: &Inputs, store_dir: &Path) -> std::io::Result<(Ctx, PlanExecutor, u64)> {
    let ctx = Ctx::new(inputs);
    let t = Instant::now();
    let store = RunStore::open(store_dir)?;
    let open_ns = t.elapsed().as_nanos() as u64;
    Ok((ctx, PlanExecutor::new().with_store(store), open_ns))
}

/// One rendered artifact: the text `figures` writes as `<name>.txt` and,
/// for tables, the `<name>.csv` body.
#[derive(Clone, Debug, PartialEq)]
pub struct Artifact {
    pub name: &'static str,
    pub text: String,
    pub csv: Option<String>,
}

impl Artifact {
    fn table(name: &'static str, table: &Table, extra: &str) -> Self {
        Artifact {
            name,
            text: format!("{table}\n{extra}"),
            csv: Some(table.to_csv()),
        }
    }

    /// The files `figures` writes for this artifact, as (file name, bytes).
    pub fn files(&self) -> Vec<(String, &[u8])> {
        let mut out = vec![(format!("{}.txt", self.name), self.text.as_bytes())];
        if let Some(csv) = &self.csv {
            out.push((format!("{}.csv", self.name), csv.as_bytes()));
        }
        out
    }

    /// Stable digest of this artifact's files.
    pub fn digest(&self) -> u64 {
        digest(std::slice::from_ref(self))
    }
}

/// Digest of an artifact set: FNV-1a + SplitMix64 over every file, in
/// file-name order, each framed as `name\nlength\nbytes`. The same framing
/// over a `results/` directory written by `figures all` gives the same
/// value.
pub fn digest(artifacts: &[Artifact]) -> u64 {
    let mut files: Vec<(String, &[u8])> = artifacts.iter().flat_map(Artifact::files).collect();
    files.sort();
    let mut framed = Vec::new();
    for (name, bytes) in files {
        framed.extend_from_slice(format!("{name}\n{}\n", bytes.len()).as_bytes());
        framed.extend_from_slice(bytes);
    }
    fingerprint_bytes(&framed)
}

type Render = fn(&Ctx, &PlanExecutor) -> Artifact;

/// Every render of `figures all`, in its output order, with the label its
/// `render.<label>` span carries.
pub const RENDERS: &[(&str, Render)] = &[
    ("fig1", |ctx, _| {
        let intervals = ctx.bicg.intervals(160 * KIB).expect("tiling");
        let mut platform = PlatformConfig::tx1().build();
        let cfg = PremConfig::llc_tamed().with_noise(NoiseModel::tx1());
        let run = run_prem(&mut platform, &intervals, &cfg, Scenario::Isolation).expect("prem run");
        Artifact {
            name: "fig1",
            text: prem_report::fig1::timeline(&run, &SyncConfig::tx1(), platform.clock_ghz, 4, 0.4),
            csv: None,
        }
    }),
    ("fig2", |ctx, _| {
        Artifact::table("fig2", &fig2(&ctx.bicg, 160 * KIB).table(), "")
    }),
    ("fig3", |ctx, ex| {
        let f = fig3_with(&ctx.bicg, &ctx.harness, ex);
        Artifact::table("fig3", &f.table(), &f.chart())
    }),
    ("fig4", |ctx, ex| {
        Artifact::table("fig4", &fig4_with(&ctx.bicg, &ctx.harness, ex).table(), "")
    }),
    ("fig5", |ctx, ex| {
        let f = fig5_with(&ctx.bicg, &ctx.harness, ex);
        Artifact::table("fig5", &f.table(), &f.chart())
    }),
    ("fig6", |ctx, ex| {
        Artifact::table(
            "fig6",
            &fig6_with(&ctx.suite, &ctx.harness, 160, 8, ex).table(),
            "",
        )
    }),
    ("fig7", |ctx, ex| {
        Artifact::table(
            "fig7",
            &fig7_with(&ctx.suite, &ctx.harness, 8, ex).table(),
            "",
        )
    }),
    ("whatif", |ctx, ex| {
        Artifact::table("whatif", &whatif_with(&ctx.bicg, ex).table(), "")
    }),
    ("interference", |ctx, _| {
        let rows =
            interference::interference_sweep(&ctx.bicg, 160 * KIB, 8, ctx.interference_seed, 6);
        Artifact::table(
            "interference_sweep",
            &interference::sweep_table(&rows, "bicg", 160, 8),
            "",
        )
    }),
    ("mei", |ctx, _| {
        Artifact::table("mei", &mei(50_000, ctx.mei_seed).1, "")
    }),
    ("ablation_policy", |ctx, _| {
        let rows = ablation::policy_ablation(&ctx.bicg, &ctx.harness, 160 * KIB, &[1, 8]);
        Artifact::table("ablation_policy", &ablation::policy_table(&rows, 160), "")
    }),
    ("ablation_msg", |ctx, _| {
        let rows = ablation::msg_ablation(
            &ctx.bicg,
            &ctx.harness,
            96 * KIB,
            160 * KIB,
            &[5.0, 10.0, 20.0, 50.0, 100.0],
        );
        Artifact::table("ablation_msg", &ablation::msg_table(&rows, 96, 160), "")
    }),
    ("ablation_adaptive", |ctx, _| {
        let rows = ablation::adaptive_ablation(&ctx.bicg, &ctx.harness, 160 * KIB);
        Artifact::table(
            "ablation_adaptive",
            &ablation::adaptive_table(&rows, 160),
            "",
        )
    }),
    ("ablation_bias", |ctx, _| {
        let rows = ablation::bias_ablation(&ctx.bicg, &ctx.harness, 160 * KIB, &[1, 2, 3, 5, 9]);
        Artifact::table("ablation_bias", &ablation::bias_table(&rows, 160), "")
    }),
];

/// The merged first-wave plan of the plan-based figures.
pub fn merged_requests(ctx: &Ctx) -> Vec<RunRequest<'_>> {
    let mut reqs = Vec::new();
    reqs.extend(fig3_requests(&ctx.bicg, &ctx.harness));
    reqs.extend(fig4_requests(&ctx.bicg, &ctx.harness));
    reqs.extend(fig5_requests(&ctx.bicg, &ctx.harness));
    reqs.extend(fig6_requests(&ctx.suite, &ctx.harness, 160, 8));
    reqs.extend(fig7_requests(&ctx.suite, &ctx.harness, 8));
    reqs.extend(whatif_requests(&ctx.bicg));
    reqs
}

/// fig6's data-dependent second wave, read from `executor`'s outputs.
pub fn followup_requests<'c>(ctx: &'c Ctx, executor: &PlanExecutor) -> Vec<RunRequest<'c>> {
    fig6_followup_requests(&ctx.suite, &ctx.harness, executor)
}

/// What one pass produced.
pub struct Pass {
    pub artifacts: Vec<Artifact>,
    /// When each artifact was ready.
    pub ready: Vec<Instant>,
    /// Summed plan summaries of both waves.
    pub plan: PlanSummary,
}

/// Runs one timed pass against `executor`, checkpointing `clock` after
/// each plan wave and each render. With tracing on, every call into the
/// library crates is a span and the executor's metered twin reports into
/// `sums`.
pub fn run_pass(
    ctx: &Ctx,
    executor: &PlanExecutor,
    trace: &mut Trace,
    sums: &mut Sums,
    clock: &mut HostClock,
) -> Pass {
    let merged = trace.span("report.requests", Kind::Layer, || merged_requests(ctx));
    let mut plan = execute(executor, &merged, trace, sums, clock);
    calib::checkpoint(clock, trace);
    let tail = trace.span("report.followup", Kind::Layer, || {
        followup_requests(ctx, executor)
    });
    plan += &execute(executor, &tail, trace, sums, clock);
    calib::checkpoint(clock, trace);
    let mut artifacts = Vec::with_capacity(RENDERS.len());
    let mut ready = Vec::with_capacity(RENDERS.len());
    for (label, render) in RENDERS {
        let id = trace.enter(&format!("render.{label}"), Kind::Layer);
        artifacts.push(render(ctx, executor));
        trace.exit(id);
        ready.push(Instant::now());
        calib::checkpoint(clock, trace);
    }
    Pass {
        artifacts,
        ready,
        plan,
    }
}

/// `PlanExecutor::execute` at the benchmark's worker count. Untraced, it
/// checkpoints `clock` between pool units; traced, it reports into a
/// registry instead, since probes inside the call would count as
/// unattributed time in the ledger.
fn execute(
    executor: &PlanExecutor,
    requests: &[RunRequest<'_>],
    trace: &mut Trace,
    sums: &mut Sums,
    clock: &mut HostClock,
) -> PlanSummary {
    if !trace.enabled() {
        return executor.execute_metered(requests, WORKERS, &UnitCheckpoints::new(clock));
    }
    let registry = Registry::new();
    let id = trace.enter("plan.execute", Kind::Container);
    let summary = executor.execute_metered(requests, WORKERS, &registry);
    trace.exit(id);
    let snap = registry.snapshot();
    attach_plan_children(trace, id, &snap, None);
    sums.add(&snap);
    summary
}
