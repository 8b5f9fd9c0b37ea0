//! # prem-gpusim — GPU SoC execution-timing model
//!
//! Executes warp-level micro-op streams ([`OpStream`]) against the memory
//! hierarchy from [`prem_memsim`], charging cycles from a throughput-oriented
//! [`CostModel`] (latency hidden by memory-level parallelism, bandwidth
//! charged in full). [`PlatformConfig::tx1`] assembles the NVIDIA Jetson
//! TX1-like platform the paper evaluates on.
//!
//! ```
//! use prem_gpusim::{Op, OpStream, PlatformConfig, SmExecutor};
//! use prem_memsim::{Contention, LineAddr, Phase};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut platform = PlatformConfig::tx1().build();
//! let stream: OpStream = (0..64).map(|i| Op::CachedLoad(LineAddr::new(i))).collect();
//! let out = SmExecutor::new(&mut platform.mem, &platform.cost)
//!     .run(&stream, Phase::Unphased, Contention::Isolated)?;
//! assert_eq!(out.levels.dram, 64); // all cold misses
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod cost;
mod cpu;
mod interference;
mod op;
mod platform;
mod sm;

pub use cost::CostModel;
pub use cpu::{CpuConfig, Scenario, SyncConfig, INTERFERENCE_MIX};
pub use interference::{CorunnerProfile, InterferenceEngine};
pub use op::{Op, OpCounts, OpStream};
pub use platform::{Platform, PlatformConfig};
pub use sm::{ExecError, LevelCounts, RunOutcome, SmExecutor};
