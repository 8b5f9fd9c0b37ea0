//! Composition of the GPU-side memory system: the LLC, the scratchpad,
//! and the path to DRAM.
//!
//! [`MemSystem::access_cached`] models the cached path (LLC → DRAM,
//! fill-on-miss); [`MemSystem::access_spm`] models the
//! explicitly managed scratchpad path. The returned [`HitLevel`] tells the
//! cost model where the access was served from.

use crate::addr::LineAddr;
use crate::cache::{AccessKind, Cache};
use crate::spm::{Spm, SpmError};
use crate::stats::Phase;
use crate::trace::TraceSink;

/// The memory level that served an access.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum HitLevel {
    /// Served by the last-level cache.
    Llc,
    /// Served by the scratchpad.
    Spm,
    /// Missed all caches; a DRAM line transfer happened.
    Dram,
}

/// The GPU-visible memory system.
#[derive(Clone, Debug)]
pub struct MemSystem {
    llc: Cache,
    spm: Spm,
}

impl MemSystem {
    /// Builds a memory system with an LLC and a scratchpad.
    pub fn new(llc: Cache, spm: Spm) -> Self {
        MemSystem { llc, spm }
    }

    /// One access on the cached path. A miss fills the LLC.
    pub fn access_cached(&mut self, line: LineAddr, kind: AccessKind, phase: Phase) -> HitLevel {
        self.access_cached_traced(line, kind, phase, &mut crate::trace::NullSink)
    }

    /// [`MemSystem::access_cached`] with LLC instrumentation: the access
    /// reports its outcome to `sink`. Traces are defined at LLC
    /// granularity: that is the shared level whose behavior the paper's
    /// analysis — and the replay engine — reason about.
    pub fn access_cached_traced<S: TraceSink>(
        &mut self,
        line: LineAddr,
        kind: AccessKind,
        phase: Phase,
        sink: &mut S,
    ) -> HitLevel {
        if self.llc.access_traced(line, kind, phase, sink).hit {
            HitLevel::Llc
        } else {
            HitLevel::Dram
        }
    }

    /// One access on the scratchpad path.
    ///
    /// # Errors
    ///
    /// Propagates [`SpmError::NotStaged`] if the PREM tiling failed to cover
    /// this line.
    pub fn access_spm(&mut self, line: LineAddr) -> Result<HitLevel, SpmError> {
        self.spm.access(line)?;
        Ok(HitLevel::Spm)
    }

    /// The LLC.
    pub fn llc(&self) -> &Cache {
        &self.llc
    }

    /// The LLC, mutable.
    pub fn llc_mut(&mut self) -> &mut Cache {
        &mut self.llc
    }

    /// The scratchpad.
    pub fn spm(&self) -> &Spm {
        &self.spm
    }

    /// The scratchpad, mutable.
    pub fn spm_mut(&mut self) -> &mut Spm {
        &mut self.spm
    }

    /// Marks an interval boundary on all components (self-eviction epochs,
    /// scratchpad release).
    pub fn begin_interval(&mut self) {
        self.llc.begin_interval();
        self.spm.release();
    }

    /// Clears statistics on all components (contents untouched).
    pub fn reset_stats(&mut self) {
        self.llc.reset_stats();
        self.spm.reset_stats();
    }

    /// Invalidates all cache contents and releases the scratchpad.
    pub fn cold_reset(&mut self) {
        self.llc.invalidate_all();
        self.spm.release();
    }

    /// Reseeds all randomized components.
    pub fn reseed(&mut self, seed: u64) {
        self.llc.reseed(seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::spm::SpmConfig;

    fn sys() -> MemSystem {
        let llc = Cache::new(CacheConfig::new(1024, 2, 64));
        MemSystem::new(llc, Spm::new(SpmConfig::new(256, 64)))
    }

    #[test]
    fn miss_goes_to_dram_then_hits_llc() {
        let mut m = sys();
        assert_eq!(
            m.access_cached(LineAddr::new(7), AccessKind::Read, Phase::MPhase),
            HitLevel::Dram
        );
        assert_eq!(
            m.access_cached(LineAddr::new(7), AccessKind::Read, Phase::CPhase),
            HitLevel::Llc
        );
    }

    #[test]
    fn spm_path_requires_staging() {
        let mut m = sys();
        assert!(m.access_spm(LineAddr::new(1)).is_err());
        m.spm_mut().stage(LineAddr::new(1)).unwrap();
        assert_eq!(m.access_spm(LineAddr::new(1)), Ok(HitLevel::Spm));
    }

    #[test]
    fn begin_interval_releases_spm() {
        let mut m = sys();
        m.spm_mut().stage(LineAddr::new(1)).unwrap();
        m.begin_interval();
        assert!(!m.spm().contains(LineAddr::new(1)));
    }

    #[test]
    fn cold_reset_empties_caches() {
        let mut m = sys();
        m.access_cached(LineAddr::new(5), AccessKind::Read, Phase::Unphased);
        m.cold_reset();
        assert_eq!(
            m.access_cached(LineAddr::new(5), AccessKind::Read, Phase::Unphased),
            HitLevel::Dram
        );
    }
}
