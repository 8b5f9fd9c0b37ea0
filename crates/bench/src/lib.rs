//! # prem-bench — artifact binaries and criterion benches
//!
//! Its only library API is the gate constants `bench_matrix` enforces
//! (kept here so `tests/gate_docs.rs` can hold the docs to them); the
//! crate exists to host
//!
//! * `bin/figures` — regenerates every paper artifact (and the scenario
//!   matrix) into `results/`, fanning independent artifacts out on the
//!   `prem-harness` thread pool;
//! * `bin/diag` — a per-kernel diagnostic sweep of PREM run internals;
//! * `benches/figures`, `benches/simulator` — criterion benches over the
//!   figure generators and the simulator hot paths.
//!
//! See EXPERIMENTS.md at the repository root for the artifact map.

#![deny(missing_docs)]

/// Floor on the cold 7-policy × 3-seed what-if column's speedup from
/// replay: `plan:column|live` over `plan:replay|cold` wall time
/// (min-of-3 per side). `bench_matrix` fails below it.
pub const REPLAY_COLUMN_MIN_SPEEDUP: f64 = 1.3;

/// Floor on the family-WCET column's speedup: `exec:family-wcets|profiled`
/// (replay off: every live cell profiles itself) over `|walked` (one
/// compile and one walk give every live cell its WCETs) wall time
/// (min-of-5 per side). `bench_matrix` fails below it.
pub const FAMILY_WCETS_MIN_SPEEDUP: f64 = 1.5;
