//! Tiling legality checks and sizing helpers.
//!
//! Kernels produce their own tilings (they know their iteration spaces);
//! this module provides the *checks* PREM correctness rests on:
//! every compute access must be covered by the interval's staged footprint,
//! and the footprint must respect the interval size `T`.

use std::error::Error;
use std::fmt;

use prem_memsim::LineSet;

use crate::interval::IntervalSpec;

/// A violation of the PREM tiling contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TilingError {
    /// A compute access touches a line missing from the footprint.
    UncoveredAccess {
        /// Index of the offending interval.
        interval: usize,
        /// The uncovered line (raw line number).
        line: u64,
    },
    /// An interval's footprint exceeds the requested interval size.
    FootprintTooLarge {
        /// Index of the offending interval.
        interval: usize,
        /// Footprint in bytes.
        footprint_bytes: usize,
        /// The interval-size limit `T` in bytes.
        t_bytes: usize,
    },
}

impl fmt::Display for TilingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TilingError::UncoveredAccess { interval, line } => write!(
                f,
                "interval {interval}: compute access to line {line:#x} not covered by the m-phase footprint"
            ),
            TilingError::FootprintTooLarge {
                interval,
                footprint_bytes,
                t_bytes,
            } => write!(
                f,
                "interval {interval}: footprint {footprint_bytes} B exceeds interval size {t_bytes} B"
            ),
        }
    }
}

impl Error for TilingError {}

/// Checks the PREM contract over a tiled kernel.
///
/// # Errors
///
/// The first [`TilingError`] found, scanning intervals in order.
pub fn check_tiling(
    intervals: &[IntervalSpec],
    t_bytes: usize,
    line_bytes: usize,
) -> Result<(), TilingError> {
    for (i, iv) in intervals.iter().enumerate() {
        let fp = iv.footprint_bytes(line_bytes);
        if fp > t_bytes {
            return Err(TilingError::FootprintTooLarge {
                interval: i,
                footprint_bytes: fp,
                t_bytes,
            });
        }
        let staged: LineSet = iv.footprint().iter().copied().collect();
        for a in &iv.c_accesses {
            if !staged.contains(&a.line) {
                return Err(TilingError::UncoveredAccess {
                    interval: i,
                    line: a.line.raw(),
                });
            }
        }
    }
    Ok(())
}

/// How many rows fit in an interval of `t_bytes` when each row adds
/// `bytes_per_row` to the footprint on top of `fixed_bytes` of
/// interval-invariant data. At least one row is always returned.
pub fn rows_per_interval(t_bytes: usize, fixed_bytes: usize, bytes_per_row: usize) -> usize {
    if bytes_per_row == 0 {
        return usize::MAX;
    }
    t_bytes.saturating_sub(fixed_bytes) / bytes_per_row.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::CAccess;
    use prem_memsim::LineAddr;

    fn l(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn valid_tiling_passes() {
        let iv = IntervalSpec::new(vec![l(0), l(1)], vec![CAccess::read(l(1))], 0);
        assert!(check_tiling(&[iv], 1024, 128).is_ok());
    }

    #[test]
    fn uncovered_access_detected() {
        let iv = IntervalSpec::new(vec![l(0)], vec![CAccess::read(l(9))], 0);
        assert_eq!(
            check_tiling(&[iv], 1024, 128),
            Err(TilingError::UncoveredAccess {
                interval: 0,
                line: 9
            })
        );
    }

    #[test]
    fn oversized_footprint_detected() {
        let iv = IntervalSpec::new(vec![l(0), l(1), l(2)], vec![], 0);
        assert_eq!(
            check_tiling(&[iv], 256, 128),
            Err(TilingError::FootprintTooLarge {
                interval: 0,
                footprint_bytes: 384,
                t_bytes: 256
            })
        );
    }

    #[test]
    fn a_footprint_stages_each_line_once() {
        // A line listed twice keeps its first position and counts once
        // against the interval size.
        let iv = IntervalSpec::new(vec![l(3), l(5), l(3), l(5)], vec![], 0);
        assert_eq!(iv.footprint(), [l(3), l(5)]);
        assert_eq!(check_tiling(&[iv], 256, 128), Ok(()));
    }

    #[test]
    fn rows_per_interval_math() {
        // 160 KiB interval, 8 KiB fixed, 4 KiB per row -> 38 rows.
        assert_eq!(rows_per_interval(160 * 1024, 8 * 1024, 4 * 1024), 38);
        assert_eq!(rows_per_interval(1024, 2048, 128), 0);
        assert_eq!(rows_per_interval(1024, 0, 0), usize::MAX);
    }
}
