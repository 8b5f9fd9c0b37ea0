//! The trace-driven replay engine.
//!
//! A captured trace contains the full LLC input stream of a timed PREM
//! run: every access (demand, prefetch, unmanaged noise *and* co-runner
//! pollution) in issue order plus the interval boundaries that drive
//! self-eviction epochs. Replaying that stream against a cold cache built
//! from the captured header reproduces the live run's [`CacheStats`]
//! **field-for-field** — asserted by the property suite and the golden
//! suite — because victim selection depends only on replacement state
//! reconstructed by the stream itself and on the RNG stream, which the
//! header's seed pins.
//!
//! That makes replay the check that a `PRTC` capture is complete: a trace
//! that dropped or reordered an input event would replay to different
//! statistics. Replay drives the real [`Cache`], so any [`CacheConfig`] ×
//! [`Policy`] over the same stream can be replayed too
//! ([`replay_with_policy`]). Policy × seed what-if grids over whole runs
//! are the plan layer's job: `prem_harness::PlanExecutor` derives them
//! from one captured representative (see [`crate::trace_artifacts`]).

use prem_memsim::{Cache, CacheConfig, CacheStats, Policy};

use crate::event::TraceEvent;
use crate::format::Trace;

/// Replays `events` against a cold cache built from `cfg`, returning the
/// final statistics.
///
/// Only input events ([`TraceEvent::Access`], [`TraceEvent::IntervalBegin`])
/// drive the cache; recorded outcomes (fills, evictions, writebacks) are
/// ignored — replay re-derives them under whatever configuration it is
/// given.
///
/// # Panics
///
/// Panics if `cfg` is invalid, as [`Cache::new`] does.
pub fn replay_events(events: &[TraceEvent], cfg: CacheConfig) -> CacheStats {
    let mut cache = Cache::new(cfg);
    for event in events {
        match *event {
            TraceEvent::Access {
                line, kind, phase, ..
            } => {
                cache.access(line, kind, phase);
            }
            TraceEvent::IntervalBegin => cache.begin_interval(),
            _ => {}
        }
    }
    cache.stats().clone()
}

/// Replays a trace under its own captured configuration.
///
/// The replay-equivalence contract: this equals the live run's
/// [`CacheStats`] exactly.
pub fn replay_captured(trace: &Trace) -> CacheStats {
    replay_events(&trace.events, trace.header.cache.clone())
}

/// Replays a trace under the captured geometry with a different
/// replacement policy (the policy must drive the captured way count).
pub fn replay_with_policy(trace: &Trace, policy: Policy) -> CacheStats {
    replay_events(&trace.events, trace.header.cache.clone().policy(policy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::capture_llc;
    use prem_gpusim::Scenario;
    use prem_kernels::Bicg;
    use prem_memsim::KIB;

    #[test]
    fn replay_reproduces_live_stats_bit_exactly() {
        let (run, trace) = capture_llc(&Bicg::new(128, 128), 32 * KIB, 8, 11, Scenario::Isolation);
        assert_eq!(replay_captured(&trace), run.llc);
    }

    #[test]
    fn replay_reproduces_live_stats_under_corunner_pollution() {
        // The interference *preset* is bus-only (membombs); foreign-line
        // bookkeeping in replay only runs under cache-thrashing
        // co-runners, so capture one of those mixes explicitly.
        use crate::capture::capture_prem;
        use prem_core::{NoiseModel, RunWork};
        use prem_gpusim::{CorunnerProfile, PlatformConfig};
        use prem_kernels::Kernel;
        let kernel = Bicg::new(192, 192);
        let intervals = kernel.intervals(32 * KIB).expect("tiling");
        let cfg = RunWork::PremLlc { r: 4 }
            .prem_config(11, NoiseModel::tx1())
            .expect("LLC-PREM is a PREM mode");
        let mut platform = PlatformConfig::tx1()
            .llc_seed(11)
            .with_corunners(vec![CorunnerProfile::CacheThrash; 2])
            .build();
        let (run, trace) = capture_prem(
            &mut platform,
            &intervals,
            &cfg,
            Scenario::Corunners,
            "bicg-thrash",
        )
        .expect("capture");
        assert!(
            run.llc.corunner.total() > 0,
            "thrashers injected no traffic — the test is vacuous"
        );
        assert_eq!(replay_captured(&trace), run.llc);
    }

    #[test]
    fn replay_reproduces_live_stats_under_interference() {
        let (run, trace) = capture_llc(
            &Bicg::new(128, 128),
            32 * KIB,
            8,
            23,
            Scenario::Interference,
        );
        assert_eq!(replay_captured(&trace), run.llc);
    }

    #[test]
    fn replay_survives_a_format_roundtrip() {
        let (run, trace) = capture_llc(&Bicg::new(128, 128), 32 * KIB, 4, 47, Scenario::Isolation);
        let decoded = Trace::decode(&trace.encode()).expect("decode");
        assert_eq!(replay_captured(&decoded), run.llc);
    }
}
