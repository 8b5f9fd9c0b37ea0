//! The `figures -- trace` artifact generators: tables and reports built
//! from one captured run (reuse histogram, per-set heatmap), plus the
//! policy × seed what-if grid, which runs through the plan layer as one
//! derivation family and is validated against live re-execution.

use std::time::Instant;

use prem_gpusim::Scenario;
use prem_harness::{MatrixPolicy, PlanExecutor, PlatformSpec, RunRequest, RunSource};
use prem_kernels::Kernel;
use prem_memsim::KIB;
use prem_report::{llc_request, Table, DEFAULT_SEEDS};

use crate::analysis::{
    occupancy_timeline, per_set_stats, reuse_histogram, self_eviction_timeline, ReuseHistogram,
};
use crate::capture::capture_llc;
use crate::format::Trace;
use crate::replay::replay_captured;

/// Everything the `figures -- trace` artifact emits for one captured run.
#[derive(Debug)]
pub struct TraceArtifacts {
    /// The captured trace.
    pub trace: Trace,
    /// The trace's binary encoding (the `trace_capture.bin` artifact) —
    /// encoded once here so consumers don't re-encode the whole stream.
    pub encoded: Vec<u8>,
    /// Reuse-distance histogram table (`trace_reuse.{csv,txt}`).
    pub reuse: Table,
    /// Per-set heatmap table (`trace_heatmap.{csv,txt}`).
    pub heatmap: Table,
    /// Occupancy / self-eviction timelines appended to the heatmap text.
    pub heatmap_extra: String,
    /// Policy × seed what-if grid table (`trace_policy_replay.{csv,txt}`).
    pub policy_replay: Table,
    /// Validation and live-vs-derived timing appended to the grid text.
    pub policy_extra: String,
}

/// Renders the reuse-distance histogram as a table.
pub fn reuse_table(trace: &Trace) -> Table {
    let hist = reuse_histogram(trace);
    let mut table = Table::new(
        format!(
            "trace_reuse — LLC reuse distances, {} ({} accesses, {} lines)",
            trace.header.label, hist.accesses, hist.distinct_lines
        ),
        &["distance", "accesses", "fraction"],
    );
    let total = hist.accesses.max(1) as f64;
    table.push_row(vec![
        "cold".into(),
        hist.cold.to_string(),
        format!("{:.4}", hist.cold as f64 / total),
    ]);
    for (b, &count) in hist.buckets.iter().enumerate() {
        table.push_row(vec![
            ReuseHistogram::bucket_label(b),
            count.to_string(),
            format!("{:.4}", count as f64 / total),
        ]);
    }
    table
}

/// Number of consecutive-set groups the heatmap aggregates into.
const HEATMAP_GROUPS: usize = 32;

/// Renders the per-set access/miss/self-eviction heatmap, aggregated into
/// at most 32 groups of consecutive sets.
pub fn heatmap_table(trace: &Trace) -> Table {
    let sets = per_set_stats(trace);
    let group = sets.len().div_ceil(HEATMAP_GROUPS).max(1);
    let mut table = Table::new(
        format!(
            "trace_heatmap — per-set LLC traffic, {} ({} sets / {} per row)",
            trace.header.label,
            sets.len(),
            group
        ),
        &[
            "sets",
            "accesses",
            "misses",
            "miss%",
            "evictions",
            "self_ev",
        ],
    );
    for (g, chunk) in sets.chunks(group).enumerate() {
        let accesses: u64 = chunk.iter().map(|s| s.accesses).sum();
        let misses: u64 = chunk.iter().map(|s| s.misses).sum();
        let evictions: u64 = chunk.iter().map(|s| s.evictions).sum();
        let self_ev: u64 = chunk.iter().map(|s| s.self_evictions).sum();
        let lo = g * group;
        let hi = lo + chunk.len() - 1;
        table.push_row(vec![
            format!("{lo}-{hi}"),
            accesses.to_string(),
            misses.to_string(),
            format!("{:.1}%", 100.0 * misses as f64 / accesses.max(1) as f64),
            evictions.to_string(),
            self_ev.to_string(),
        ]);
    }
    table
}

/// Renders the occupancy/working-set and self-eviction timelines as plain
/// text (appended to the heatmap artifact).
pub fn timelines_text(trace: &Trace) -> String {
    let mut out = String::new();
    out.push_str("occupancy / working-set timeline (events, resident, distinct):\n");
    for sample in occupancy_timeline(trace, 16) {
        out.push_str(&format!(
            "  {:>9}  {:>7}  {:>8}\n",
            sample.events, sample.resident, sample.distinct
        ));
    }
    let attribution = self_eviction_timeline(trace);
    let shown = attribution.len().min(8);
    out.push_str(&format!(
        "self-eviction attribution, first {shown} of {} intervals \
         (interval, fills, evictions, self, corunner):\n",
        attribution.len()
    ));
    for iv in attribution.iter().take(shown) {
        out.push_str(&format!(
            "  {:>4}  {:>7}  {:>7}  {:>6}  {:>6}\n",
            iv.interval, iv.fills, iv.evictions, iv.self_evictions, iv.corunner_evictions
        ));
    }
    out
}

/// Builds the full `figures -- trace` artifact set for one kernel: capture
/// once and analyze, then run the policy × seed what-if grid through the
/// plan layer **twice** — once on a replay-disabled executor (every
/// what-if a live run), once on a replay-enabled one (the grid is one
/// derivation family: one representative live with capture, every
/// sibling derived from it) — validating that every derived
/// [`RunOutput`](prem_core::RunOutput) equals its live run and measuring
/// what derivation saves.
///
/// The representative's capture serves the whole grid because the LLC
/// access stream is policy- and seed-independent (fixed prefetch
/// repetition): only victim selection varies, and that is exactly what
/// replay re-derives.
///
/// Both sides run on one worker: a derivation family is one pool unit,
/// so more workers would speed up the live side only.
///
/// # Panics
///
/// Panics if the grid does not form one derivation family, or if a
/// derived output differs from its live run — a broken
/// replay-equivalence contract, not a recoverable condition.
pub fn trace_artifacts(kernel: &dyn Kernel, t: usize, r: u32, seed: u64) -> TraceArtifacts {
    let scenario = Scenario::Isolation;
    let (live, trace) = capture_llc(kernel, t, r, seed, scenario);
    assert_eq!(
        replay_captured(&trace),
        live.llc,
        "replay-equivalence violated for the captured configuration"
    );

    let axis = MatrixPolicy::what_if_axis();
    let grid: Vec<RunRequest<'_>> = axis
        .iter()
        .flat_map(|&policy| {
            DEFAULT_SEEDS.iter().map(move |&s| RunRequest {
                platform: PlatformSpec::tx1().with_policy(policy),
                ..llc_request(kernel, t, r, s, scenario)
            })
        })
        .collect();

    let live_exec = PlanExecutor::new().without_replay();
    let t0 = Instant::now();
    live_exec.execute(&grid, 1);
    let live_ms = t0.elapsed().as_secs_f64() * 1000.0;

    let replay_exec = PlanExecutor::new();
    let t0 = Instant::now();
    let derived = replay_exec.execute(&grid, 1);
    let replay_ms = t0.elapsed().as_secs_f64() * 1000.0;
    assert_eq!(
        (derived.executed, derived.replayed),
        (1, grid.len() - 1),
        "the what-if grid must form one derivation family"
    );

    let mut table = Table::new(
        format!(
            "trace_policy_replay — {} replayed over {} policies x {} seeds",
            trace.header.label,
            axis.len(),
            DEFAULT_SEEDS.len()
        ),
        &[
            "policy",
            "seed",
            "misses",
            "cpmr",
            "self_ev",
            "writebacks",
            "replay==live",
        ],
    );
    let mut all_match = true;
    for req in &grid {
        let replayed = replay_exec.output(req);
        let matched = live_exec.output(req) == replayed;
        all_match &= matched;
        let stats = replayed.prem().llc;
        table.push_row(vec![
            req.platform
                .policy
                .expect("grid requests override the policy")
                .name()
                .to_string(),
            req.seed.to_string(),
            stats.total_misses().to_string(),
            format!("{:.4}", stats.cpmr()),
            stats.self_evictions.to_string(),
            stats.writebacks.to_string(),
            if matched { "yes" } else { "NO" }.to_string(),
        ]);
    }
    let speedup = live_ms / replay_ms.max(1e-9);
    let encoded = trace.encode();
    let policy_extra = format!(
        "{} what-ifs on 1 worker: live re-execution {live_ms:.1} ms, \
         plan replay ({} live + {} derived) {replay_ms:.1} ms -> {speedup:.1}x faster\n\
         replay==live for all {} what-ifs: {}\n\
         trace: {} events, {} bytes encoded\n",
        grid.len(),
        derived.executed,
        derived.replayed,
        grid.len(),
        if all_match { "yes" } else { "NO (regression!)" },
        trace.events.len(),
        encoded.len(),
    );
    assert!(
        all_match,
        "replay diverged from live re-execution on at least one what-if"
    );

    TraceArtifacts {
        reuse: reuse_table(&trace),
        heatmap: heatmap_table(&trace),
        heatmap_extra: timelines_text(&trace),
        policy_replay: table,
        policy_extra,
        encoded,
        trace,
    }
}

/// The quick-suite capture configuration used by goldens, CI smoke runs
/// and the bench gate: bicg 512×512 at the paper's best LLC interval size.
pub fn quick_capture() -> (prem_core::PremRun, Trace) {
    capture_llc(
        &prem_kernels::Bicg::new(512, 512),
        160 * KIB,
        8,
        11,
        Scenario::Isolation,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use prem_kernels::Bicg;

    #[test]
    fn reuse_and_heatmap_tables_are_consistent() {
        let (_, trace) = capture_llc(&Bicg::new(128, 128), 32 * KIB, 4, 11, Scenario::Isolation);
        let reuse = reuse_table(&trace);
        assert!(!reuse.is_empty());
        // Counts in the table sum to the analyzed accesses.
        let total: u64 = reuse
            .rows()
            .iter()
            .map(|r| r[1].parse::<u64>().unwrap())
            .sum();
        assert_eq!(total, reuse_histogram(&trace).accesses);
        let heatmap = heatmap_table(&trace);
        assert!(heatmap.len() <= HEATMAP_GROUPS);
        assert!(!timelines_text(&trace).is_empty());
    }

    #[test]
    fn artifacts_validate_replay_against_live_execution() {
        let art = trace_artifacts(&Bicg::new(128, 128), 32 * KIB, 4, 11);
        assert!(art.policy_extra.contains("replay==live for all"));
        assert!(!art.policy_replay.is_empty());
        assert!(art.policy_replay.rows().iter().all(|r| r[6] == "yes"));
    }

    #[test]
    fn run_llc_and_capture_llc_agree() {
        // The traced twin must not drift from the experiment runner the
        // figures use — same config, same PremRun.
        let kernel = Bicg::new(128, 128);
        let plain = prem_report::llc_request(&kernel, 32 * KIB, 8, 11, Scenario::Isolation)
            .execute()
            .prem();
        let (captured, _) = capture_llc(&kernel, 32 * KIB, 8, 11, Scenario::Isolation);
        assert_eq!(plain, captured);
    }
}
