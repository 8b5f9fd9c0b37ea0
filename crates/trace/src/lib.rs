//! # prem-trace — cache-event capture, introspection and replay
//!
//! The simulator's answer to "what is the LLC *doing*?": the instrumentation
//! hooks in `prem-memsim`/`prem-gpusim`/`prem-core` ([`prem_memsim::TraceSink`])
//! stream every access, fill, eviction (with owner/alive/dirty attribution),
//! writeback, interval boundary and phase transition of a timed PREM run
//! into this crate, which provides:
//!
//! * **Capture** — [`CaptureSink`] / [`capture_prem`] / [`capture_llc`]
//!   record a run without perturbing it (the untraced path is the same
//!   monomorphized code with a no-op sink, pinned byte-identical by the
//!   golden suite).
//! * **A compact binary format** — delta-varint events behind a
//!   magic/version header ([`TraceWriter`], [`TraceReader`], [`Trace`]),
//!   with exact round-trip guarantees for arbitrary event sequences
//!   (property-tested) and ~3 bytes/event on real captures.
//! * **Analysis passes** — exact reuse-distance histograms
//!   ([`reuse_histogram`]), per-set heatmaps ([`per_set_stats`]),
//!   occupancy/working-set timelines ([`occupancy_timeline`]) and
//!   per-interval self-eviction attribution ([`self_eviction_timeline`]).
//! * **Trace-driven replay** — [`replay_captured`] reproduces the live
//!   run's [`prem_memsim::CacheStats`] **field-for-field** from the
//!   captured stream through the real `prem_memsim::Cache`, which is the
//!   check that a capture is complete; [`replay_with_policy`] replays it
//!   under another replacement policy.
//! * **The `figures -- trace` artifacts** — [`trace_artifacts`] renders the
//!   analyses of one capture and runs the policy × seed what-if grid
//!   through the plan layer (`prem_harness::PlanExecutor`), which derives
//!   all 21 runs from one stream compiled from the tiling and is checked
//!   against live re-execution.
//!
//! ```
//! use prem_gpusim::Scenario;
//! use prem_kernels::Bicg;
//! use prem_memsim::KIB;
//! use prem_trace::{capture_llc, replay_captured, Trace};
//!
//! let (live, trace) = capture_llc(&Bicg::new(128, 128), 32 * KIB, 8, 11,
//!                                 Scenario::Isolation);
//! // Replay equivalence: the captured stream reproduces the live stats.
//! assert_eq!(replay_captured(&trace), live.llc);
//! // Round-trip guarantee: encode/decode is the identity.
//! assert_eq!(Trace::decode(&trace.encode()).unwrap(), trace);
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod artifacts;
mod capture;
mod event;
mod format;
mod replay;
pub mod testutil;

pub use analysis::{
    occupancy_timeline, per_set_stats, reuse_histogram, self_eviction_timeline,
    IntervalAttribution, ReuseHistogram, SetStats, TimelineSample,
};
pub use artifacts::{heatmap_table, quick_capture, reuse_table, trace_artifacts, TraceArtifacts};
pub use capture::{capture_llc, capture_prem, CaptureSink};
pub use event::TraceEvent;
pub use format::{Trace, TraceHeader, TraceReader, TraceWriter, MAGIC, MAX_LABEL_BYTES, VERSION};
pub use replay::{replay_captured, replay_events, replay_with_policy};
