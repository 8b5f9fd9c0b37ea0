//! PREM intervals: the unit of predictable execution.
//!
//! A PREM interval (paper Fig 1) couples a *memory phase* that stages a
//! bounded data footprint into local memory with a *compute phase* that is
//! guaranteed to operate on local data only. [`IntervalSpec`] is the
//! store-agnostic description produced by kernel tilings; the
//! [`LocalStore`](crate::LocalStore) strategy lowers it to concrete op
//! streams.

use prem_memsim::{LineAddr, LineSet};

/// One compute-phase line touch.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct CAccess {
    /// The line touched.
    pub line: LineAddr,
    /// Whether the touch writes (affects writeback traffic).
    pub write: bool,
}

impl CAccess {
    /// A read touch.
    pub fn read(line: LineAddr) -> Self {
        CAccess { line, write: false }
    }

    /// A write touch.
    pub fn write(line: LineAddr) -> Self {
        CAccess { line, write: true }
    }
}

/// Store-agnostic description of one PREM interval.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IntervalSpec {
    /// Lines the M-phase stages (inputs and outputs), in issue order, each
    /// once ([`IntervalSpec::new`]).
    footprint: Vec<LineAddr>,
    /// Ordered compute-phase line touches.
    pub c_accesses: Vec<CAccess>,
    /// Warp-level arithmetic instructions executed by the compute phase.
    pub alu: u64,
}

impl IntervalSpec {
    /// Creates an interval from its parts, keeping the first touch of
    /// each footprint line: staging a line twice would use no more
    /// capacity, so a footprint is repeat-free by construction, and the
    /// executor's LLC prefetch rounds rely on it.
    pub fn new(mut footprint: Vec<LineAddr>, c_accesses: Vec<CAccess>, alu: u64) -> Self {
        let mut staged = LineSet::with_capacity_and_hasher(footprint.len(), Default::default());
        footprint.retain(|&line| staged.insert(line));
        IntervalSpec {
            footprint,
            c_accesses,
            alu,
        }
    }

    /// Lines the M-phase stages, in issue order, each once.
    pub fn footprint(&self) -> &[LineAddr] {
        &self.footprint
    }

    /// Data footprint in bytes for the given line size.
    pub fn footprint_bytes(&self, line_bytes: usize) -> usize {
        self.footprint.len() * line_bytes
    }

    /// Lines written by the compute phase (deduplicated, stable order).
    pub fn written_lines(&self) -> Vec<LineAddr> {
        let mut seen = LineSet::default();
        self.c_accesses
            .iter()
            .filter(|a| a.write)
            .filter(|a| seen.insert(a.line))
            .map(|a| a.line)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn footprint_bytes_scales_with_line_size() {
        let iv = IntervalSpec::new(vec![l(0), l(1), l(2)], vec![], 0);
        assert_eq!(iv.footprint_bytes(128), 384);
        assert_eq!(iv.footprint_bytes(64), 192);
    }

    #[test]
    fn written_lines_dedup_preserves_order() {
        let iv = IntervalSpec::new(
            vec![l(0), l(1)],
            vec![
                CAccess::read(l(0)),
                CAccess::write(l(1)),
                CAccess::write(l(0)),
                CAccess::write(l(1)),
            ],
            0,
        );
        assert_eq!(iv.written_lines(), vec![l(1), l(0)]);
    }
}
