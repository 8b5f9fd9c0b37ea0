//! Recording sinks and end-to-end capture helpers.

use prem_core::{run_prem_traced, IntervalSpec, PremConfig, PremRun};
use prem_gpusim::{ExecError, Platform, Scenario};
use prem_kernels::Kernel;
use prem_memsim::{AccessKind, AccessOutcome, LineAddr, Phase, TraceSink};

use crate::event::TraceEvent;
use crate::format::{Trace, TraceHeader};

/// A [`TraceSink`] recording the full event stream in memory.
///
/// One [`TraceSink::on_access`] callback expands into up to four events,
/// in mechanism order: the access itself, the displaced victim (if any),
/// its writeback (if dirty), and the fill of the missed line.
#[derive(Clone, Debug, Default)]
pub struct CaptureSink {
    now: u64,
    events: Vec<TraceEvent>,
}

impl CaptureSink {
    /// An empty sink.
    pub fn new() -> Self {
        CaptureSink::default()
    }

    /// The events captured so far.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consumes the sink, returning the captured events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

impl TraceSink for CaptureSink {
    fn on_access(
        &mut self,
        line: LineAddr,
        kind: AccessKind,
        phase: Phase,
        outcome: &AccessOutcome,
    ) {
        self.events.push(TraceEvent::Access {
            ts: self.now,
            line,
            kind,
            phase,
            hit: outcome.hit,
        });
        if let Some(ev) = outcome.evicted {
            self.events.push(TraceEvent::Evict {
                line: ev.line,
                alive: ev.alive,
                dirty: ev.dirty,
                foreign: ev.foreign,
                by: phase,
            });
            if ev.dirty {
                self.events.push(TraceEvent::Writeback { line: ev.line });
            }
        }
        if !outcome.hit {
            self.events.push(TraceEvent::Fill {
                line,
                way: outcome.way as u32,
            });
        }
    }

    fn on_interval(&mut self) {
        self.events.push(TraceEvent::IntervalBegin);
    }

    fn on_phase(&mut self, phase: Phase, cycles: f64) {
        // The transition also advances the sink clock, so traffic emitted
        // before the next op issue (co-runner pollution at a C-window
        // start) is stamped at the phase boundary.
        self.now = cycles as u64;
        self.events.push(TraceEvent::PhaseBegin {
            ts: self.now,
            phase,
        });
    }

    fn on_op_issue(&mut self, cycles: f64) {
        self.now = cycles as u64;
    }

    fn on_dram_transfer(&mut self, line: LineAddr, write: bool) {
        self.events.push(TraceEvent::DramTransfer {
            ts: self.now,
            line,
            write,
        });
    }
}

/// Runs PREM with capture enabled, returning the run and its trace.
///
/// The trace header records the LLC configuration with the **effective**
/// seed of the timed run (`cfg.seed` — [`prem_core::run_prem`] reseeds the
/// platform with it before the timed pass), which is exactly what the
/// replay engine needs to rebuild an equivalent cache.
///
/// # Errors
///
/// [`ExecError::Spm`] exactly as for [`prem_core::run_prem`].
pub fn capture_prem(
    platform: &mut Platform,
    intervals: &[IntervalSpec],
    cfg: &PremConfig,
    scenario: Scenario,
    label: impl Into<String>,
) -> Result<(PremRun, Trace), ExecError> {
    let mut sink = CaptureSink::new();
    let (run, _) = run_prem_traced(platform, intervals, cfg, scenario, None, &mut sink)?;
    let cache = platform.mem.llc().config().clone().seed(cfg.seed);
    Ok((
        run,
        Trace {
            header: TraceHeader {
                label: label.into(),
                cache,
            },
            events: sink.into_events(),
        },
    ))
}

/// Captures the standard LLC-PREM experiment configuration on the TX1
/// platform: interval size `t`, `r` prefetch repetitions, TX1 noise —
/// the traced twin of executing [`prem_report::llc_request`], configured
/// from that same request and byte-identical in its `PremRun`
/// (pinned by the golden suite).
///
/// # Panics
///
/// Panics if the kernel cannot be tiled at `t`, like the experiment
/// runners it mirrors.
pub fn capture_llc(
    kernel: &dyn Kernel,
    t: usize,
    r: u32,
    seed: u64,
    scenario: Scenario,
) -> (PremRun, Trace) {
    let req = prem_report::llc_request(kernel, t, r, seed, scenario);
    let cfg = req
        .work
        .prem_config(req.seed, req.noise)
        .expect("LLC-PREM is a PREM mode");
    let mut platform = req.resolved_platform().build();
    let label = format!("{}({})", kernel.name(), kernel.dims());
    capture_prem(&mut platform, &req.tiled_intervals(), &cfg, scenario, label)
        .expect("llc prem capture cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;
    use prem_core::{run_prem, LocalStore, PrefetchStrategy};
    use prem_gpusim::PlatformConfig;
    use prem_harness::MatrixPolicy;
    use prem_kernels::Bicg;
    use prem_memsim::{Policy, KIB};

    #[test]
    fn capture_is_invisible_to_the_run() {
        // `run_prem` simulates only the prefetches of later rounds that
        // can miss — a hit-oblivious policy's misses alone, or every line
        // of an LLC set that missed the round before — and credits the
        // rest; the capture sink observes every round, so the capturing
        // run walks them all. The two must agree on the whole `PremRun`
        // for every what-if policy, the bias ablation's weights and a
        // vector with a never-evicted way, three seeds, fixed repetitions
        // around the paper's R = 8 and the adaptive strategy, at one T
        // whose rounds converge and one whose footprint overflows sets.
        let kernel = Bicg::new(256, 256);
        let strategies = [
            PrefetchStrategy::Repeated { r: 1 },
            PrefetchStrategy::Repeated { r: 2 },
            PrefetchStrategy::Repeated { r: 8 },
            PrefetchStrategy::Repeated { r: 16 },
            PrefetchStrategy::UntilResident { max_rounds: 16 },
        ];
        let policies: Vec<Policy> = MatrixPolicy::what_if_axis()
            .iter()
            .map(|p| p.instantiate(4))
            .chain([
                Policy::BiasedRandom {
                    weights: vec![1, 1, 9, 1],
                },
                Policy::BiasedRandom {
                    weights: vec![0, 1, 1, 1],
                },
            ])
            .collect();
        for (t, converges) in [(32 * KIB, true), (224 * KIB, false)] {
            let intervals = kernel.intervals(t).expect("tiling");
            for (policy, seed) in policies
                .iter()
                .flat_map(|p| [7u64, 11, 23].map(|seed| (p, seed)))
            {
                let platform = PlatformConfig::tx1().llc_policy(policy.clone());
                for prefetch in strategies {
                    let cfg = PremConfig::llc_tamed()
                        .with_seed(seed)
                        .with_store(LocalStore::Llc { prefetch });
                    let plain =
                        run_prem(&mut platform.build(), &intervals, &cfg, Scenario::Isolation)
                            .expect("plain");
                    let (captured, trace) = capture_prem(
                        &mut platform.build(),
                        &intervals,
                        &cfg,
                        Scenario::Isolation,
                        "bicg",
                    )
                    .expect("capture");
                    let what = format!("T={t} {policy:?} seed {seed} {prefetch:?}");
                    assert_eq!(plain, captured, "{what}: capture perturbed the simulation");
                    // The two footprints take the branches they are named
                    // for: the adaptive strategy settles early, or never.
                    if prefetch.adaptive() {
                        assert_eq!(captured.max_rounds_used < 16, converges, "{what}");
                    }
                    // Every interval boundary and both phases of each
                    // interval appear.
                    let intervals_seen = trace
                        .events
                        .iter()
                        .filter(|e| matches!(e, TraceEvent::IntervalBegin))
                        .count();
                    assert_eq!(intervals_seen, captured.intervals, "{what}");
                    let phases = trace
                        .events
                        .iter()
                        .filter(|e| matches!(e, TraceEvent::PhaseBegin { .. }))
                        .count();
                    assert_eq!(phases, 2 * captured.intervals, "{what}");
                }
            }
        }
    }

    #[test]
    fn captured_stream_is_consistent_with_stats() {
        let (run, trace) = capture_llc(&Bicg::new(128, 128), 32 * KIB, 8, 11, Scenario::Isolation);
        let mut hits = 0u64;
        let mut misses = 0u64;
        let mut evictions = 0u64;
        let mut writebacks = 0u64;
        for event in &trace.events {
            match event {
                TraceEvent::Access {
                    hit,
                    phase: Phase::MPhase | Phase::CPhase | Phase::Unphased,
                    ..
                } => {
                    if *hit {
                        hits += 1;
                    } else {
                        misses += 1;
                    }
                }
                TraceEvent::Evict { .. } => evictions += 1,
                TraceEvent::Writeback { .. } => writebacks += 1,
                _ => {}
            }
        }
        assert_eq!(
            hits,
            run.llc.m_phase.hits + run.llc.c_phase.hits + run.llc.unphased.hits
        );
        assert_eq!(misses, run.llc.total_misses());
        assert_eq!(evictions, run.llc.evictions);
        assert_eq!(writebacks, run.llc.writebacks);
    }

    #[test]
    fn timestamps_are_monotone() {
        let (_, trace) = capture_llc(&Bicg::new(128, 128), 32 * KIB, 2, 11, Scenario::Isolation);
        let mut prev = 0u64;
        for event in &trace.events {
            if let Some(ts) = event.ts() {
                assert!(ts >= prev, "timestamp went backwards: {ts} < {prev}");
                prev = ts;
            }
        }
        assert!(prev > 0);
    }
}
