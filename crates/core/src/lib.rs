//! # prem-core — the Predictable Execution Model with tamed GPU caches
//!
//! This crate implements the contribution of Forsberg, Benini, Marongiu,
//! *"Taming Data Caches for Predictable Execution on GPU-based SoCs"*
//! (DATE 2019): executing GPU kernels as PREM interval schedules whose
//! memory phases stage data into the **last-level cache** using **repeated
//! prefetches** to defeat the biased-random replacement policy, with
//! watchdog-timer synchronization and phase budgeting.
//!
//! The moving parts:
//!
//! * [`IntervalSpec`] — a store-agnostic PREM interval (staged footprint +
//!   compute accesses), produced by kernel tilings (`prem-kernels`).
//! * [`LocalStore`] — SPM (explicit copies + `transl_addr` overhead) versus
//!   LLC (prefetches, optionally repeated: [`PrefetchStrategy`]).
//! * [`SyncConfig`] / [`BudgetPolicy`] — the token-exchange protocol with
//!   its minimum synchronization granularity (MSG), and WCET budgeting
//!   (fair co-scheduling by default, as in the paper's evaluation).
//! * [`run_prem`] / [`run_baseline`] — the executors producing
//!   [`Breakdown`]s, makespans and the **CPMR** predictability metric.
//!   Each has one general form: [`run_prem_traced`] takes a trace sink
//!   and an optional memoized profile and returns the `(m_wcet, c_wcet)`
//!   its budgets derive from; [`run_baseline_traced`] takes a sink.
//!   [`profile_phases`] is the isolated profiling pass on its own.
//! * [`analytic`] — the paper's coin-toss and good-way-capacity models for
//!   cross-checking the simulator.
//! * [`plan`] — the `RunRequest → run_prem / run_baseline` bridge the
//!   run-plan layer (`prem-harness::plan`) executes live requests
//!   through: one [`execute_run`], with an optional memoized profile,
//!   plus [`profile_run`].
//! * [`whatif`] — replay-backed derivation of LLC policy, seed and
//!   scenario family members from a stream compiled from the tiling
//!   ([`CompiledRun`]): one walk per [`Trajectory`] class, priced per
//!   member.
//! * [`codec`] — versioned, bit-exact binary serialization of executed
//!   [`RunOutput`]s, the payload format of the persistent run store
//!   (`prem-harness::store`).
//!
//! ```
//! use prem_core::{run_prem, CAccess, IntervalSpec, PremConfig};
//! use prem_gpusim::{PlatformConfig, Scenario};
//! use prem_memsim::LineAddr;
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut platform = PlatformConfig::tx1().build();
//! let lines: Vec<_> = (0..256u64).map(LineAddr::new).collect();
//! let accesses: Vec<_> = lines.iter().map(|&l| CAccess::read(l)).collect();
//! let interval = IntervalSpec::new(lines, accesses, 512);
//! let run = run_prem(&mut platform, &[interval], &PremConfig::llc_tamed(),
//!                    Scenario::Isolation)?;
//! assert!(run.cpmr < 0.01); // tamed: compute phase hits
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analytic;
mod budget;
pub mod codec;
mod exec;
mod interval;
mod local_store;
mod metrics;
pub mod plan;
pub mod schedulability;
mod sync;
mod tiling;
pub mod whatif;

pub use budget::{BudgetPolicy, Budgets};
pub use codec::CODEC_VERSION;
pub use exec::{
    profile_phases, run_baseline, run_baseline_traced, run_prem, run_prem_traced, BaselineRun,
    NoiseModel, PremConfig, PremRun,
};
pub use interval::{CAccess, IntervalSpec};
pub use local_store::{LocalStore, PrefetchStrategy};
pub use metrics::{sensitivity, speedup, Breakdown};
pub use plan::{execute_run, profile_run, Executed, RunOutput, RunWork};
pub use sync::{PhaseTiming, SyncConfig};
pub use tiling::{check_tiling, rows_per_interval, TilingError};
pub use whatif::{replay_eligible, CompiledRun, Trajectory};
