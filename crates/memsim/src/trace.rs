//! The cache-event instrumentation layer: [`TraceSink`].
//!
//! Every component that touches the LLC — the SM executor's cached path,
//! the co-runner interference engine's pollution loop, the PREM executor's
//! interval machinery — offers a `*_traced` variant generic over a
//! [`TraceSink`]. The untraced entry points delegate to those variants with
//! [`NullSink`], whose provided no-op methods inline away entirely: the
//! monomorphized untraced path is byte-for-byte the pre-instrumentation
//! code, so enabling the hooks costs nothing unless a recording sink is
//! actually plugged in.
//!
//! The hooks deliberately carry *mechanism-level* information (the access,
//! its outcome, the displaced victim with owner/alive/dirty attribution)
//! rather than a pre-baked event type: the `prem-trace` crate builds its
//! serializable event model on top of these callbacks without this crate
//! having to know about trace formats.

use crate::addr::LineAddr;
use crate::cache::{AccessKind, AccessOutcome};
use crate::stats::Phase;

/// Receiver of cache-level events during an instrumented run.
///
/// All methods are provided as no-ops so sinks only override what they
/// record. Implementations must not perturb simulation state — sinks are
/// observers; the contract (asserted by golden and property tests) is that
/// a run with any sink attached produces the same `CacheStats`, timings
/// and artifacts as an untraced run.
pub trait TraceSink {
    /// Whether this sink observes individual events. Defaults to `true`;
    /// only [`NullSink`] overrides it to `false`, which licenses executors
    /// to take *event-invisible* shortcuts — accounting provably
    /// identical work analytically instead of simulating it op by op. The
    /// PREM executor credits, as hits, the prefetches of a round whose
    /// LLC set missed nothing in the round before (and every round after
    /// one that missed nothing at all). Recording sinks must leave this
    /// `true` so captures stay complete: a replayed trace needs every
    /// access the run logically performed, not just the ones the live run
    /// bothered to simulate.
    const RECORDS: bool = true;

    /// One access on the cached path completed with `outcome`. Misses
    /// imply a fill of `line` into `outcome.way`; a displaced victim, if
    /// any, rides along in `outcome.evicted` with owner/alive/dirty
    /// attribution (dirty victims imply a writeback).
    #[inline]
    fn on_access(
        &mut self,
        line: LineAddr,
        kind: AccessKind,
        phase: Phase,
        outcome: &AccessOutcome,
    ) {
        let _ = (line, kind, phase, outcome);
    }

    /// A new PREM interval began (self-eviction epochs advanced).
    #[inline]
    fn on_interval(&mut self) {}

    /// A phase transition at schedule time `cycles`: subsequent accesses
    /// run under `phase`. Carries its own timestamp (like
    /// [`TraceSink::on_op_issue`]) so emitters need no clock-refresh call
    /// ordered before it.
    #[inline]
    fn on_phase(&mut self, phase: Phase, cycles: f64) {
        let _ = (phase, cycles);
    }

    /// The next operation issues at schedule time `cycles` (op-issue
    /// timestamp). Emitted by the executor before each op it charges.
    #[inline]
    fn on_op_issue(&mut self, cycles: f64) {
        let _ = cycles;
    }

    /// A pure-compute op (`n` warp arithmetic instructions) was charged.
    /// Emitted by the executor so replay engines can reproduce the exact
    /// cycle-accumulation sequence of a run, compute ops included.
    #[inline]
    fn on_compute(&mut self, n: u64) {
        let _ = n;
    }

    /// A direct DRAM line transfer bypassing the caches (SPM DMA).
    #[inline]
    fn on_dram_transfer(&mut self, line: LineAddr, write: bool) {
        let _ = (line, write);
    }
}

/// The zero-cost default sink: records nothing.
///
/// Untraced entry points (`Cache::access`, `SmExecutor::run`, `run_prem`)
/// delegate to their traced counterparts with a `NullSink`; the provided
/// no-op methods monomorphize to nothing.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    const RECORDS: bool = false;
}

/// A minimal diagnostic sink counting events by kind — useful in tests
/// and for sizing captures before recording them.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CountingSink {
    /// Accesses observed (hits + misses).
    pub accesses: u64,
    /// Accesses that missed (fills).
    pub fills: u64,
    /// Victims displaced by fills.
    pub evictions: u64,
    /// Dirty victims (writebacks).
    pub writebacks: u64,
    /// Interval boundaries observed.
    pub intervals: u64,
    /// Phase transitions observed.
    pub phases: u64,
    /// Direct DRAM transfers observed.
    pub dram_transfers: u64,
}

impl TraceSink for CountingSink {
    fn on_access(
        &mut self,
        _line: LineAddr,
        _kind: AccessKind,
        _phase: Phase,
        outcome: &AccessOutcome,
    ) {
        self.accesses += 1;
        if !outcome.hit {
            self.fills += 1;
        }
        if let Some(ev) = outcome.evicted {
            self.evictions += 1;
            if ev.dirty {
                self.writebacks += 1;
            }
        }
    }

    fn on_interval(&mut self) {
        self.intervals += 1;
    }

    fn on_phase(&mut self, _phase: Phase, _cycles: f64) {
        self.phases += 1;
    }

    fn on_dram_transfer(&mut self, _line: LineAddr, _write: bool) {
        self.dram_transfers += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{Cache, CacheConfig};

    #[test]
    fn null_sink_observes_nothing_and_changes_nothing() {
        let cfg = CacheConfig::new(512, 2, 64);
        let mut plain = Cache::new(cfg.clone());
        let mut traced = Cache::new(cfg);
        let mut sink = NullSink;
        for i in 0..64u64 {
            let a = plain.access(LineAddr::new(i % 12), AccessKind::Read, Phase::MPhase);
            let b = traced.access_traced(
                LineAddr::new(i % 12),
                AccessKind::Read,
                Phase::MPhase,
                &mut sink,
            );
            assert_eq!(a, b);
        }
        assert_eq!(plain.stats(), traced.stats());
    }

    #[test]
    fn counting_sink_tallies_outcomes() {
        let mut c = Cache::new(CacheConfig::new(512, 2, 64));
        let mut sink = CountingSink::default();
        // Fill set 0 (lines 0, 4), then displace with a dirty-victim miss.
        c.access_traced(
            LineAddr::new(0),
            AccessKind::Write,
            Phase::MPhase,
            &mut sink,
        );
        c.access_traced(LineAddr::new(4), AccessKind::Read, Phase::MPhase, &mut sink);
        c.access_traced(LineAddr::new(8), AccessKind::Read, Phase::CPhase, &mut sink);
        sink.on_interval();
        sink.on_phase(Phase::CPhase, 100.0);
        sink.on_dram_transfer(LineAddr::new(1), true);
        assert_eq!(sink.accesses, 3);
        assert_eq!(sink.fills, 3);
        assert_eq!(sink.evictions, 1);
        assert_eq!(sink.writebacks, 1);
        assert_eq!(sink.intervals, 1);
        assert_eq!(sink.phases, 1);
        assert_eq!(sink.dram_transfers, 1);
    }
}
