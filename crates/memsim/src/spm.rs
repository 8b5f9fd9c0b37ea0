//! Software-managed scratchpad memory (SPM).
//!
//! The SPM is the local store used by the SPM-based PREM state of the art
//! (HePREM, DATE'18). It is explicitly addressed: the M-phase *copies* data
//! in (a DRAM read plus an SPM write per line, plus address-translation
//! instructions — Fig 2 of the paper), and data never disappears until the
//! interval releases it. Capacity on the TX1 is 2 × 48 KiB.

use std::error::Error;
use std::fmt;

use crate::addr::{LineAddr, LineSet, KIB};

/// Error staging data into the scratchpad.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpmError {
    /// The interval's footprint exceeds the scratchpad capacity.
    CapacityExceeded {
        /// Configured capacity in bytes.
        capacity_bytes: usize,
        /// Bytes the stage would have needed.
        requested_bytes: usize,
    },
    /// A compute-phase access touched a line that was never staged.
    NotStaged {
        /// The missing line.
        line: LineAddr,
    },
}

impl fmt::Display for SpmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpmError::CapacityExceeded {
                capacity_bytes,
                requested_bytes,
            } => write!(
                f,
                "scratchpad capacity exceeded: requested {requested_bytes} of {capacity_bytes} bytes"
            ),
            SpmError::NotStaged { line } => {
                write!(f, "compute access to unstaged scratchpad line {line}")
            }
        }
    }
}

impl Error for SpmError {}

/// Scratchpad geometry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpmConfig {
    capacity_bytes: usize,
    line_bytes: usize,
}

impl SpmConfig {
    /// Creates a scratchpad configuration.
    pub fn new(capacity_bytes: usize, line_bytes: usize) -> Self {
        SpmConfig {
            capacity_bytes,
            line_bytes,
        }
    }

    /// The TX1 configuration: 2 SMs × 48 KiB shared memory, 128-byte lines.
    pub fn tx1() -> Self {
        SpmConfig::new(2 * 48 * KIB, 128)
    }

    /// The TX2 (Pascal GP10B) configuration: 2 SMs × 64 KiB shared memory.
    pub fn tx2() -> Self {
        SpmConfig::new(2 * 64 * KIB, 128)
    }

    /// A Xavier-like (Volta GV10B) configuration: 8 SMs × 96 KiB of shared
    /// memory carved from the combined L1/shared storage.
    pub fn xavier_like() -> Self {
        SpmConfig::new(8 * 96 * KIB, 128)
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Transfer granularity in bytes.
    pub fn line_bytes(&self) -> usize {
        self.line_bytes
    }

    /// Capacity in lines.
    pub fn capacity_lines(&self) -> usize {
        self.capacity_bytes / self.line_bytes
    }
}

/// Scratchpad statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpmStats {
    /// Lines copied in by M-phases.
    pub staged_lines: u64,
    /// Compute-phase accesses served.
    pub accesses: u64,
}

/// A software-managed scratchpad.
///
/// ```
/// use prem_memsim::{Spm, SpmConfig, LineAddr};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut spm = Spm::new(SpmConfig::new(256, 128));
/// spm.stage(LineAddr::new(1))?;
/// spm.stage(LineAddr::new(2))?;
/// assert!(spm.stage(LineAddr::new(3)).is_err()); // over capacity
/// assert!(spm.contains(LineAddr::new(1)));
/// spm.release();
/// assert!(!spm.contains(LineAddr::new(1)));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Spm {
    cfg: SpmConfig,
    resident: LineSet,
    stats: SpmStats,
}

impl Spm {
    /// Builds an empty scratchpad.
    pub fn new(cfg: SpmConfig) -> Self {
        Spm {
            cfg,
            resident: LineSet::default(),
            stats: SpmStats::default(),
        }
    }

    /// The scratchpad's configuration.
    pub fn config(&self) -> &SpmConfig {
        &self.cfg
    }

    /// Copies `line` into the scratchpad.
    ///
    /// Returns `true` if the line was newly staged, `false` if it was
    /// already resident.
    ///
    /// # Errors
    ///
    /// [`SpmError::CapacityExceeded`] when the scratchpad is full.
    pub fn stage(&mut self, line: LineAddr) -> Result<bool, SpmError> {
        let requested = (self.resident.len() + 1) * self.cfg.line_bytes;
        // With room for one more line, one probe both checks and stages.
        if requested <= self.cfg.capacity_bytes {
            let staged = self.resident.insert(line);
            self.stats.staged_lines += u64::from(staged);
            return Ok(staged);
        }
        if self.resident.contains(&line) {
            return Ok(false);
        }
        Err(SpmError::CapacityExceeded {
            capacity_bytes: self.cfg.capacity_bytes,
            requested_bytes: requested,
        })
    }

    /// Serves a compute-phase access to `line`.
    ///
    /// # Errors
    ///
    /// [`SpmError::NotStaged`] if the line was never staged — this indicates
    /// a broken PREM tiling (the M-phase must cover the C-phase footprint).
    pub fn access(&mut self, line: LineAddr) -> Result<(), SpmError> {
        if self.resident.contains(&line) {
            self.stats.accesses += 1;
            Ok(())
        } else {
            Err(SpmError::NotStaged { line })
        }
    }

    /// Whether `line` is resident.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.resident.contains(&line)
    }

    /// Bytes currently occupied.
    pub fn used_bytes(&self) -> usize {
        self.resident.len() * self.cfg.line_bytes
    }

    /// Releases all staged data (end of interval).
    pub fn release(&mut self) {
        self.resident.clear();
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &SpmStats {
        &self.stats
    }

    /// Clears statistics.
    pub fn reset_stats(&mut self) {
        self.stats = SpmStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_within_capacity() {
        let mut spm = Spm::new(SpmConfig::new(512, 128));
        for i in 0..4 {
            assert_eq!(spm.stage(LineAddr::new(i)), Ok(true));
        }
        assert_eq!(spm.used_bytes(), 512);
    }

    #[test]
    fn restage_is_idempotent() {
        let mut spm = Spm::new(SpmConfig::new(512, 128));
        assert_eq!(spm.stage(LineAddr::new(1)), Ok(true));
        assert_eq!(spm.stage(LineAddr::new(1)), Ok(false));
        assert_eq!(spm.used_bytes(), 128);
    }

    #[test]
    fn capacity_overflow_is_error() {
        let mut spm = Spm::new(SpmConfig::new(256, 128));
        spm.stage(LineAddr::new(0)).unwrap();
        spm.stage(LineAddr::new(1)).unwrap();
        let err = spm.stage(LineAddr::new(2)).unwrap_err();
        assert_eq!(
            err,
            SpmError::CapacityExceeded {
                capacity_bytes: 256,
                requested_bytes: 384
            }
        );
    }

    #[test]
    fn access_unstaged_is_error() {
        let mut spm = Spm::new(SpmConfig::tx1());
        assert!(matches!(
            spm.access(LineAddr::new(9)),
            Err(SpmError::NotStaged { .. })
        ));
    }

    #[test]
    fn release_frees_everything() {
        let mut spm = Spm::new(SpmConfig::new(256, 128));
        spm.stage(LineAddr::new(0)).unwrap();
        spm.release();
        assert_eq!(spm.used_bytes(), 0);
        assert_eq!(spm.stage(LineAddr::new(5)), Ok(true));
    }

    #[test]
    fn tx1_capacity_is_96_kib() {
        assert_eq!(SpmConfig::tx1().capacity_bytes(), 96 * KIB);
        assert_eq!(SpmConfig::tx1().capacity_lines(), 768);
    }

    #[test]
    fn stats_track_staging_and_access() {
        let mut spm = Spm::new(SpmConfig::new(512, 128));
        spm.stage(LineAddr::new(0)).unwrap();
        spm.access(LineAddr::new(0)).unwrap();
        spm.access(LineAddr::new(0)).unwrap();
        assert_eq!(spm.stats().staged_lines, 1);
        assert_eq!(spm.stats().accesses, 2);
    }

    #[test]
    fn error_messages_are_lowercase_and_informative() {
        let e = SpmError::NotStaged {
            line: LineAddr::new(4),
        };
        assert!(e.to_string().starts_with("compute access"));
    }
}
