//! # prem-memsim — memory-hierarchy simulation for PREM on GPU SoCs
//!
//! Line-accurate simulation of the memory components of a heterogeneous SoC
//! in the NVIDIA Tegra TX1 class, as needed to reproduce Forsberg et al.,
//! *"Taming Data Caches for Predictable Execution on GPU-based SoCs"*
//! (DATE 2019):
//!
//! * [`Cache`] — set-associative caches with pluggable replacement
//!   ([`Policy`]), including the **biased-random** victim selection measured
//!   on NVIDIA GPUs by Mei et al. ([`Policy::nvidia_tegra`]), with
//!   phase-tagged statistics ([`CacheStats`]) and the paper's CPMR metric
//!   ([`CacheStats::cpmr`]).
//! * [`Spm`] — the software-managed scratchpad used by the SPM-based PREM
//!   state of the art.
//! * [`DramConfig`] / [`Contention`] — shared-DRAM timing with a co-runner
//!   interference model.
//! * [`MemSystem`] — the composed GPU-visible hierarchy.
//! * [`TraceSink`] — the zero-cost cache-event instrumentation layer the
//!   `prem-trace` capture/replay subsystem plugs into.
//!
//! Everything is deterministic: randomized policies draw from an internal
//! xoshiro256\*\* generator ([`rng::Rng`]) seeded per component.
//!
//! ```
//! use prem_memsim::{Cache, CacheConfig, Policy, AccessKind, Phase, LineAddr, KIB};
//!
//! // The TX1 LLC: 256 KiB, 4-way, 128 B lines, biased-random replacement.
//! let cfg = CacheConfig::new(256 * KIB, 4, 128).policy(Policy::nvidia_tegra());
//! assert_eq!(cfg.good_capacity_bytes(), 192 * KIB); // the paper's usable size
//! let mut llc = Cache::new(cfg);
//! llc.access(LineAddr::new(42), AccessKind::Prefetch, Phase::MPhase);
//! assert!(llc.contains(LineAddr::new(42)));
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod addr;
mod cache;
mod dram;
mod hierarchy;
mod replacement;
pub mod rng;
mod spm;
mod stats;
pub mod trace;

pub use addr::{lines_covering, splitmix64, Addr, LineAddr, LineHasher, LineSet, KIB, MIB};
pub use cache::{AccessKind, AccessOutcome, Cache, CacheConfig, Evicted};
pub use dram::{BusWindow, Contention, DramConfig, DramStats, CALIBRATED_DEMAND};
pub use hierarchy::{HitLevel, MemSystem};
pub use replacement::{Policy, Replacer};
pub use spm::{Spm, SpmConfig, SpmError, SpmStats};
pub use stats::{AccessCounts, CacheStats, Phase};
pub use trace::{CountingSink, NullSink, TraceSink};
