//! The per-layer ledger: metric names, and the arithmetic that turns a
//! traced pass (spans, metered snapshots, run outputs) into their values.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use prem_core::RunOutput;
use prem_harness::RunRequest;
use prem_obs::{MetricValue, Snapshot};

use crate::stats;
use crate::trace::{Kind, Trace};

/// Every per-layer metric with its unit, in report order. Each workload
/// reports all of them; a layer a workload does not touch reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("plan.live_runs", "count"),
    ("plan.replayed", "count"),
    ("plan.families", "count"),
    ("plan.elided", "count"),
    ("plan.memory_hits", "count"),
    ("plan.disk_hits", "count"),
    ("plan.profile_hits", "count"),
    ("plan.profile_misses", "count"),
    ("plan.expand_ms", "ms"),
    ("plan.execute_ms", "ms"),
    ("plan.live_ms", "ms"),
    ("plan.live_mean_ms", "ms"),
    ("plan.replay_ms", "ms"),
    ("plan.replay_mean_ms", "ms"),
    ("plan.replay_to_live", "ratio"),
    ("plan.derived_frac", "ratio"),
    ("store.open_ms", "ms"),
    ("store.load_ms", "ms"),
    ("store.segment_loads", "count"),
    ("store.bytes_read", "B"),
    ("store.append_ms", "ms"),
    ("store.appended_records", "count"),
    ("store.bytes_written", "B"),
    ("store.lock_wait_ms", "ms"),
    ("core.profile_mean_ms", "ms"),
    ("core.timed_mean_ms", "ms"),
    ("core.fused_mean_ms", "ms"),
    ("core.capture_mean_ms", "ms"),
    ("core.replay_mean_ms", "ms"),
    ("kernels.tile_mean_ms", "ms"),
    ("sim.gpu_accesses", "count"),
    ("sim.m_accesses", "count"),
    ("sim.c_accesses", "count"),
    ("sim.corunner_accesses", "count"),
    ("sim.misses", "count"),
    ("sim.self_evictions", "count"),
    ("sim.makespan_gcycles", "Gcycle"),
    ("sim.live_ns_per_access", "ns"),
    ("sim.replay_ns_per_access", "ns"),
    ("render.fig1_ms", "ms"),
    ("render.fig2_ms", "ms"),
    ("render.fig3_ms", "ms"),
    ("render.fig4_ms", "ms"),
    ("render.fig5_ms", "ms"),
    ("render.fig6_ms", "ms"),
    ("render.fig7_ms", "ms"),
    ("render.whatif_ms", "ms"),
    ("render.interference_ms", "ms"),
    ("render.mei_ms", "ms"),
    ("render.ablation_policy_ms", "ms"),
    ("render.ablation_msg_ms", "ms"),
    ("render.ablation_adaptive_ms", "ms"),
    ("render.ablation_bias_ms", "ms"),
    ("serve.submit_mean_us", "us"),
    ("serve.ticks", "count"),
    ("serve.tick_mean_ms", "ms"),
    ("serve.sched_ms", "ms"),
    ("serve.units_per_tick", "count"),
    ("serve.free_rider_frac", "ratio"),
    ("serve.queue_depth_mean", "count"),
    ("serve.wait_ticks_p99", "count"),
    ("ledger.unattributed_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// The parts of one `PlanExecutor::execute_metered` call that its
/// snapshot times, as (ledger span, histogram). They are disjoint in time
/// on a one-worker pool: expansion (with its disk lookups) runs before the
/// pool, live runs and replays inside it, appends after it.
const PLAN_PARTS: &[(&str, &str)] = &[
    ("plan.expand", "plan.expand_ns"),
    ("plan.live", "plan.live_ns"),
    ("plan.replay", "plan.replay_ns"),
    ("store.append", "store.append_ns"),
];

/// Sum of histogram `name` in `snap` (ns), 0 when absent.
pub fn hist_sum(snap: &Snapshot, name: &str) -> u64 {
    snap.hist(name).map_or(0, |h| h.sum() as u64)
}

/// Attaches the metered parts of a plan execution (the difference between
/// `after` and `before`, or all of `after`) as aggregate children of the
/// span `parent`.
pub fn attach_plan_children(
    trace: &mut Trace,
    parent: Option<usize>,
    after: &Snapshot,
    before: Option<&Snapshot>,
) {
    for (span, hist) in PLAN_PARTS {
        let ns = hist_sum(after, hist) - before.map_or(0, |b| hist_sum(b, hist));
        trace.aggregate(parent, span, Kind::Layer, ns);
    }
}

/// Counters and histogram (count, sum) totals over several snapshots.
#[derive(Debug, Default)]
pub struct Sums {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, (u64, u64)>,
}

impl Sums {
    pub fn add(&mut self, snap: &Snapshot) {
        for (name, value) in snap.entries() {
            match value {
                MetricValue::Counter(n) => *self.counters.entry(name.clone()).or_default() += n,
                MetricValue::Hist(h) => {
                    let e = self.hists.entry(name.clone()).or_default();
                    e.0 += h.count();
                    e.1 += h.sum() as u64;
                }
                MetricValue::Gauge(_) => {}
            }
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// Histogram total in milliseconds (the histograms hold ns).
    pub fn ms(&self, name: &str) -> f64 {
        self.hists.get(name).map_or(0.0, |h| h.1 as f64 / 1e6)
    }

    pub fn samples(&self, name: &str) -> f64 {
        self.hists.get(name).map_or(0.0, |h| h.0 as f64)
    }
}

/// Named per-layer values, filled piecewise by a workload, plus the self
/// time of every span name of the traced pass.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    self_ns: BTreeMap<String, u64>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "undeclared per-layer metric {name}"
        );
        self.values
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// The span self times behind the ledger, one line per span name.
    pub fn ledger_lines(&self) -> Vec<String> {
        self.self_ns
            .iter()
            .map(|(name, ns)| format!("self {name:<28} {:>12.3} ms", *ns as f64 / 1e6))
            .collect()
    }

    /// Every [`PER_LAYER`] metric as (name, value, unit).
    pub fn report(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, self.get(name), unit))
            .collect()
    }

    /// The plan and store metrics from metered snapshot totals.
    pub fn fill_plan_and_store(&mut self, sums: &Sums) {
        for (metric, counter) in [
            ("plan.live_runs", "plan.live_runs"),
            ("plan.replayed", "plan.replayed"),
            ("plan.families", "plan.families"),
            ("plan.elided", "plan.elided"),
            ("plan.memory_hits", "plan.memory_hits"),
            ("plan.disk_hits", "plan.disk_hits"),
            ("plan.profile_hits", "plan.profile_hits"),
            ("plan.profile_misses", "plan.profile_misses"),
            ("store.segment_loads", "store.segment_loads"),
            ("store.bytes_read", "store.bytes_read"),
            ("store.appended_records", "store.appended_records"),
            ("store.bytes_written", "store.bytes_written"),
        ] {
            self.set(metric, sums.counter(counter));
        }
        for (metric, hist) in [
            ("plan.expand_ms", "plan.expand_ns"),
            ("plan.execute_ms", "plan.execute_ns"),
            ("plan.live_ms", "plan.live_ns"),
            ("plan.replay_ms", "plan.replay_ns"),
            ("store.load_ms", "store.load_ns"),
            ("store.append_ms", "store.append_ns"),
            ("store.lock_wait_ms", "store.lock_wait_ns"),
        ] {
            self.set(metric, sums.ms(hist));
        }
        let live_mean = sums.ms("plan.live_ns") / sums.samples("plan.live_ns");
        let replay_mean = sums.ms("plan.replay_ns") / sums.samples("plan.replay_ns");
        self.set("plan.live_mean_ms", live_mean);
        self.set("plan.replay_mean_ms", replay_mean);
        self.set("plan.replay_to_live", replay_mean / live_mean);
        let (live, replayed) = (
            sums.counter("plan.live_runs"),
            sums.counter("plan.replayed"),
        );
        self.set("plan.derived_frac", replayed / (live + replayed));
    }

    /// The ledger row and every `render.*` span total of a traced pass.
    pub fn fill_from_trace(&mut self, trace: &Trace) {
        for (name, (ns, _)) in trace.total_by_name() {
            if let Some((metric, _)) = PER_LAYER
                .iter()
                .find(|(m, _)| m.strip_suffix("_ms") == Some(name.as_str()))
                .filter(|(m, _)| m.starts_with("render."))
            {
                self.set(metric, ns as f64 / 1e6);
            }
        }
        self.set(
            "ledger.unattributed_ms",
            trace.unattributed_ns() as f64 / 1e6,
        );
        self.self_ns = trace.self_by_name();
    }

    /// Simulated-event counts summed over `outputs`, and host time per
    /// simulated GPU access for live runs and replays. The per-access
    /// figures divide the pass's metered live (replay) time by the number
    /// of timed live runs (replays) times the mean accesses per output.
    pub fn fill_sim<'o>(&mut self, outputs: impl IntoIterator<Item = &'o RunOutput>, sums: &Sums) {
        let (mut n, mut gpu, mut m, mut c, mut co, mut misses, mut selfev, mut cycles) =
            (0u64, 0u64, 0u64, 0u64, 0u64, 0u64, 0u64, 0f64);
        for out in outputs {
            let llc = match out {
                RunOutput::Prem(run) => {
                    cycles += run.makespan_cycles;
                    &run.llc
                }
                RunOutput::Baseline(run) => {
                    cycles += run.cycles;
                    &run.llc
                }
            };
            n += 1;
            gpu += llc.total_accesses();
            m += llc.m_phase.total();
            c += llc.c_phase.total();
            co += llc.corunner.total();
            misses += llc.total_misses();
            selfev += llc.self_evictions;
        }
        self.set("sim.gpu_accesses", gpu as f64);
        self.set("sim.m_accesses", m as f64);
        self.set("sim.c_accesses", c as f64);
        self.set("sim.corunner_accesses", co as f64);
        self.set("sim.misses", misses as f64);
        self.set("sim.self_evictions", selfev as f64);
        self.set("sim.makespan_gcycles", cycles / 1e9);
        let per_run = gpu as f64 / n as f64;
        for (metric, hist) in [
            ("sim.live_ns_per_access", "plan.live_ns"),
            ("sim.replay_ns_per_access", "plan.replay_ns"),
        ] {
            self.set(metric, sums.ms(hist) * 1e6 / (sums.samples(hist) * per_run));
        }
    }

    /// Times the core and kernel entry points on `sample`, outside any
    /// timed pass, and returns each `core.*` / `kernels.*` metric's mean.
    /// Each request's tiling is pinned in the shared arena while its core
    /// calls run, so those exclude tiling; the replay derives a sibling
    /// (next LLC seed) from the request's own capture.
    pub fn core_probe(sample: &[RunRequest<'_>]) -> Vec<(&'static str, f64)> {
        let mut t: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut timed = |name: &'static str, start: Instant| {
            t.entry(name)
                .or_default()
                .push(start.elapsed().as_secs_f64() * 1e3);
        };
        for req in sample {
            let s = Instant::now();
            black_box(
                req.kernel
                    .intervals(req.t_bytes)
                    .expect("sampled request tiles"),
            );
            timed("kernels.tile_mean_ms", s);
            let _pin = req.tiled_intervals();
            let s = Instant::now();
            let w = black_box(req.profile());
            timed("core.profile_mean_ms", s);
            let s = Instant::now();
            black_box(req.execute_profiled(w));
            timed("core.timed_mean_ms", s);
            let s = Instant::now();
            black_box(req.execute_reporting_profile());
            timed("core.fused_mean_ms", s);
            let s = Instant::now();
            let (_, capture) = black_box(req.execute_captured());
            timed("core.capture_mean_ms", s);
            let mut sibling = req.clone();
            sibling.seed = sibling.seed.wrapping_add(1);
            let s = Instant::now();
            black_box(sibling.replay_from(&capture));
            timed("core.replay_mean_ms", s);
        }
        t.into_iter()
            .map(|(name, xs)| (name, xs.iter().sum::<f64>() / xs.len() as f64))
            .collect()
    }

    /// `trace.overhead_frac`: the traced pass's wall time over the median
    /// untraced one, minus 1.
    pub fn fill_overhead(&mut self, traced_wall_s: f64, untraced_walls_s: &[f64]) {
        self.set(
            "trace.overhead_frac",
            traced_wall_s / stats::median(untraced_walls_s) - 1.0,
        );
    }
}

/// A deterministic sample of `k` distinct replay-eligible LLC requests
/// from `reqs`, spread evenly from a seed-chosen offset.
pub fn sample_requests<'r, 'k>(
    reqs: &'r [RunRequest<'k>],
    k: usize,
    seed: u64,
) -> Vec<RunRequest<'k>> {
    let mut seen = std::collections::HashSet::new();
    let eligible: Vec<&RunRequest<'k>> = reqs
        .iter()
        .filter(|r| matches!(r.work, prem_core::RunWork::PremLlc { .. }) && r.replay_eligible())
        .filter(|r| seen.insert(r.key()))
        .collect();
    if eligible.is_empty() {
        return Vec::new();
    }
    let k = k.min(eligible.len());
    let stride = eligible.len() / k;
    let offset = (seed as usize) % stride.max(1);
    (0..k)
        .map(|i| eligible[offset + i * stride].clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        for (name, unit) in PER_LAYER {
            assert!(name.len() <= 64 && unit.len() <= 16, "{name}");
        }
    }

    #[test]
    fn benchmark_manifest_lists_every_per_layer_metric() {
        let manifest = include_str!("../../BENCHMARK.json");
        for (name, unit) in PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            manifest.matches("\"better\"").count(),
            PER_LAYER.len() + crate::END_TO_END.len()
        );
    }

    #[test]
    fn missing_and_non_finite_values_read_zero() {
        let mut l = Layers::default();
        l.set("plan.replay_to_live", f64::NAN);
        assert_eq!(l.get("plan.replay_to_live"), 0.0);
        assert_eq!(l.report().len(), PER_LAYER.len());
    }
}
