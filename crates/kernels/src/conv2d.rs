//! `convolution-2d` — 3×3 stencil (PolyBench-ACC).
//!
//! The first kernel family whose PREM tiling needs *halos*: a row block
//! `[i0, i1)` of the output needs input rows `[i0-1, i1+1)`, so adjacent
//! intervals overlap by two matrix rows. On the LLC path the halo rows of
//! the next interval usually still sit in the cache — repeated prefetches
//! of them are cheap hits — while the SPM must re-copy them.

use prem_core::IntervalSpec;

use crate::data::{init_buffer, ArrayDesc, Layout, ELEM_BYTES};
use crate::stream::IntervalBuilder;
use crate::{check_coverage, compare_results, Kernel, KernelError, VerifyError, LINE_BYTES};

/// Stencil coefficients (PolyBench's constants).
const C: [[f32; 3]; 3] = [[0.2, -0.3, 0.4], [0.5, 0.6, -0.7], [-0.8, -0.9, 0.10]];

const ALU_PER_CHUNK: u64 = 11; // 9 MACs + addressing per output line

/// The `convolution-2d` kernel model.
#[derive(Clone, Debug)]
pub struct Conv2d {
    n: usize,
    a: ArrayDesc,
    b: ArrayDesc,
}

impl Conv2d {
    /// Creates a 3×3 convolution over an `n × n` image.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a multiple of 32.
    pub fn new(n: usize) -> Self {
        let mut layout = Layout::new(LINE_BYTES);
        let a = layout.alloc("A", n, n);
        let b = layout.alloc("B", n, n);
        Conv2d { n, a, b }
    }

    /// Output row blocks (interior rows `1..n-1` only).
    fn row_blocks(&self, t_bytes: usize) -> Result<Vec<(usize, usize)>, KernelError> {
        let min = self.min_interval_bytes();
        if t_bytes < min {
            return Err(KernelError::IntervalTooSmall {
                kernel: self.name(),
                t_bytes,
                min_bytes: min,
            });
        }
        // Each output row adds one A row + one B row; the halo adds two A
        // rows per interval.
        let per_row = 2 * self.n * ELEM_BYTES;
        let fixed = 2 * self.n * ELEM_BYTES + 2 * LINE_BYTES;
        let rows = prem_core::rows_per_interval(t_bytes, fixed, per_row).max(1);
        Ok((1..self.n - 1)
            .step_by(rows)
            .map(|i0| (i0, (i0 + rows).min(self.n - 1)))
            .collect())
    }

    fn compute(&self, blocks: &[(usize, usize)]) -> Vec<f32> {
        let a = init_buffer(&self.a, 1);
        let mut b = vec![0.0f32; self.n * self.n];
        for &(i0, i1) in blocks {
            for i in i0..i1 {
                for j in 1..self.n - 1 {
                    let mut acc = 0.0f32;
                    for (di, row) in C.iter().enumerate() {
                        for (dj, &c) in row.iter().enumerate() {
                            acc += c * a[(i + di - 1) * self.n + (j + dj - 1)];
                        }
                    }
                    b[i * self.n + j] = acc;
                }
            }
        }
        b
    }
}

impl Kernel for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn dims(&self) -> String {
        format!("{}x{} (3x3)", self.n, self.n)
    }

    fn id_dims(&self) -> Vec<usize> {
        vec![self.n]
    }

    fn dataset_bytes(&self) -> usize {
        self.a.bytes() + self.b.bytes()
    }

    fn min_interval_bytes(&self) -> usize {
        // Three input rows (halo) + one output row + slack.
        4 * self.n * ELEM_BYTES + 4 * LINE_BYTES
    }

    fn intervals(&self, t_bytes: usize) -> Result<Vec<IntervalSpec>, KernelError> {
        let epl = self.a.elems_per_line();
        let chunks = self.n / epl;
        let mut out = Vec::new();
        for (i0, i1) in self.row_blocks(t_bytes)? {
            let mut bld = IntervalBuilder::new();
            // Halo staging: input rows [i0-1, i1+1).
            for i in (i0 - 1)..(i1 + 1) {
                bld.stage_row(&self.a, i, 0, self.n);
            }
            for i in i0..i1 {
                bld.stage_row(&self.b, i, 0, self.n);
            }
            for i in i0..i1 {
                for c in 0..chunks {
                    let c0 = c * epl;
                    bld.read(self.a.line(i - 1, c0));
                    bld.read(self.a.line(i, c0));
                    bld.read(self.a.line(i + 1, c0));
                    bld.write(self.b.line(i, c0));
                    bld.alu(ALU_PER_CHUNK);
                }
            }
            out.push(bld.build());
        }
        Ok(out)
    }

    fn verify(&self, t_bytes: usize) -> Result<(), VerifyError> {
        check_coverage(&self.intervals(t_bytes)?, t_bytes)?;
        let reference = self.compute(&[(1, self.n - 1)]);
        let tiled = self.compute(&self.row_blocks(t_bytes)?);
        compare_results(self.name(), &reference, &tiled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prem_memsim::KIB;

    #[test]
    fn tiling_verified() {
        let k = Conv2d::new(128);
        for t in [8 * KIB, 32 * KIB] {
            k.verify(t).unwrap();
        }
    }

    #[test]
    fn halo_rows_overlap_between_intervals() {
        let k = Conv2d::new(128);
        let ivs = k.intervals(8 * KIB).unwrap();
        assert!(ivs.len() > 1);
        // The last input row of interval 0 reappears in interval 1's
        // footprint (halo).
        let shared: Vec<_> = ivs[0]
            .footprint()
            .iter()
            .filter(|l| ivs[1].footprint().contains(l))
            .collect();
        assert!(!shared.is_empty(), "no halo overlap");
    }

    #[test]
    fn boundary_rows_untouched() {
        let k = Conv2d::new(64);
        let out = k.compute(&[(1, 63)]);
        for j in 0..64 {
            assert_eq!(out[j], 0.0); // row 0 never written
            assert_eq!(out[63 * 64 + j], 0.0); // last row never written
        }
    }
}
