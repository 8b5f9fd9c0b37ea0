//! Builder for one PREM interval's footprint and compute-access stream.

use prem_core::{CAccess, IntervalSpec};
use prem_memsim::{LineAddr, LineSet};

use crate::data::ArrayDesc;

/// Accumulates the staged footprint (deduplicated, first-touch order) and
/// the ordered compute accesses of one interval.
#[derive(Clone, Debug, Default)]
pub struct IntervalBuilder {
    footprint: Vec<LineAddr>,
    staged: LineSet,
    c_accesses: Vec<CAccess>,
    alu: u64,
}

impl IntervalBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        IntervalBuilder::default()
    }

    /// Stages one line (idempotent).
    pub fn stage(&mut self, line: LineAddr) -> &mut Self {
        if self.staged.insert(line) {
            self.footprint.push(line);
        }
        self
    }

    /// Stages many lines.
    pub fn stage_all<I: IntoIterator<Item = LineAddr>>(&mut self, lines: I) -> &mut Self {
        for l in lines {
            self.stage(l);
        }
        self
    }

    /// Stages the lines of `a[r][c0..c1]`.
    pub fn stage_row(&mut self, a: &ArrayDesc, r: usize, c0: usize, c1: usize) -> &mut Self {
        self.stage_all(a.row_slice_lines(r, c0, c1))
    }

    /// Stages the lines of flat range `a[i0..i1]`.
    pub fn stage_flat(&mut self, a: &ArrayDesc, i0: usize, i1: usize) -> &mut Self {
        self.stage_all(a.flat_slice_lines(i0, i1))
    }

    /// Current footprint size in lines.
    pub fn footprint_lines(&self) -> usize {
        self.footprint.len()
    }

    /// Emits a compute-phase read of one line.
    pub fn read(&mut self, line: LineAddr) -> &mut Self {
        self.c_accesses.push(CAccess::read(line));
        self
    }

    /// Emits a compute-phase write of one line.
    pub fn write(&mut self, line: LineAddr) -> &mut Self {
        self.c_accesses.push(CAccess::write(line));
        self
    }

    /// Emits reads of every line in `a[r][c0..c1]`, in address order.
    pub fn read_row(&mut self, a: &ArrayDesc, r: usize, c0: usize, c1: usize) -> &mut Self {
        for l in a.row_slice_lines(r, c0, c1) {
            self.read(l);
        }
        self
    }

    /// Emits writes of every line in `a[r][c0..c1]`, in address order.
    pub fn write_row(&mut self, a: &ArrayDesc, r: usize, c0: usize, c1: usize) -> &mut Self {
        for l in a.row_slice_lines(r, c0, c1) {
            self.write(l);
        }
        self
    }

    /// Adds warp arithmetic instructions to the compute phase.
    pub fn alu(&mut self, n: u64) -> &mut Self {
        self.alu += n;
        self
    }

    /// Finalizes the interval.
    pub fn build(self) -> IntervalSpec {
        IntervalSpec::new(self.footprint, self.c_accesses, self.alu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Layout;
    use prem_core::check_tiling;

    #[test]
    fn staging_deduplicates_in_order() {
        let mut b = IntervalBuilder::new();
        b.stage(LineAddr::new(2))
            .stage(LineAddr::new(1))
            .stage(LineAddr::new(2));
        let iv = b.build();
        assert_eq!(iv.footprint, vec![LineAddr::new(2), LineAddr::new(1)]);
    }

    #[test]
    fn built_interval_passes_coverage_check() {
        let mut layout = Layout::new(128);
        let a = layout.alloc("a", 4, 64);
        let mut b = IntervalBuilder::new();
        b.stage_row(&a, 0, 0, 64);
        b.read_row(&a, 0, 0, 64);
        b.write_row(&a, 0, 32, 64);
        b.alu(10);
        let iv = b.build();
        assert!(check_tiling(&[iv], 4096, 128).is_ok());
    }

    #[test]
    fn uncovered_read_fails_coverage_check() {
        let mut layout = Layout::new(128);
        let a = layout.alloc("a", 4, 64);
        let mut b = IntervalBuilder::new();
        b.stage_row(&a, 0, 0, 64);
        b.read_row(&a, 1, 0, 64); // row 1 was never staged
        let iv = b.build();
        assert!(check_tiling(&[iv], 4096, 128).is_err());
    }
}
