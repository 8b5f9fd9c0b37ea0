//! `bicg` — the BiCG sub-kernel of BiCGStab (PolyBench-ACC), the paper's
//! case-study kernel (§III-A, Figs 3–5).
//!
//! ```text
//! s[j] = Σ_i r[i] · A[i][j]        q[i] = Σ_j A[i][j] · p[j]
//! ```
//!
//! The matrix is streamed once, row-major; `p` and `s` stay resident across
//! the whole run, so the kernel is cache-friendly — exactly why the paper
//! picks it to expose self-eviction rather than capacity effects.

use prem_core::IntervalSpec;

use crate::data::{init_buffer, ArrayDesc, Layout, ELEM_BYTES};
use crate::stream::IntervalBuilder;
use crate::{check_coverage, compare_results, Kernel, KernelError, VerifyError, LINE_BYTES};

/// Warp ALU instructions per matrix line chunk (2 FMA streams + loop code).
const ALU_PER_CHUNK: u64 = 5;
/// Warp ALU instructions of per-row bookkeeping.
const ALU_PER_ROW: u64 = 2;

/// The `bicg` kernel model.
#[derive(Clone, Debug)]
pub struct Bicg {
    n: usize,
    m: usize,
    a: ArrayDesc,
    p: ArrayDesc,
    q: ArrayDesc,
    r: ArrayDesc,
    s: ArrayDesc,
}

impl Bicg {
    /// Creates a `bicg` instance over an `n × m` matrix.
    ///
    /// # Panics
    ///
    /// Panics unless `n` and `m` are multiples of 32 (one line of `f32`).
    pub fn new(n: usize, m: usize) -> Self {
        let mut layout = Layout::new(LINE_BYTES);
        let a = layout.alloc("A", n, m);
        let p = layout.alloc_vec("p", m);
        let q = layout.alloc_vec("q", n);
        let r = layout.alloc_vec("r", n);
        let s = layout.alloc_vec("s", m);
        Bicg {
            n,
            m,
            a,
            p,
            q,
            r,
            s,
        }
    }

    /// Row-block boundaries for interval size `t_bytes`.
    fn row_blocks(&self, t_bytes: usize) -> Result<Vec<(usize, usize)>, KernelError> {
        let min = self.min_interval_bytes();
        if t_bytes < min {
            return Err(KernelError::IntervalTooSmall {
                kernel: self.name(),
                t_bytes,
                min_bytes: min,
            });
        }
        let fixed = self.p.bytes() + self.s.bytes() + 2 * LINE_BYTES;
        let per_row = self.m * ELEM_BYTES + 2 * ELEM_BYTES;
        let rows = prem_core::rows_per_interval(t_bytes, fixed + 2 * LINE_BYTES, per_row).max(1);
        Ok((0..self.n)
            .step_by(rows)
            .map(|i0| (i0, (i0 + rows).min(self.n)))
            .collect())
    }

    fn reference(&self) -> Vec<f32> {
        let a = init_buffer(&self.a, 1);
        let p = init_buffer(&self.p, 2);
        let r = init_buffer(&self.r, 3);
        let mut s = vec![0.0f32; self.m];
        let mut q = vec![0.0f32; self.n];
        for i in 0..self.n {
            for j in 0..self.m {
                s[j] += r[i] * a[i * self.m + j];
                q[i] += a[i * self.m + j] * p[j];
            }
        }
        s.extend_from_slice(&q);
        s
    }

    fn tiled(&self, t_bytes: usize) -> Result<Vec<f32>, KernelError> {
        let a = init_buffer(&self.a, 1);
        let p = init_buffer(&self.p, 2);
        let r = init_buffer(&self.r, 3);
        let mut s = vec![0.0f32; self.m];
        let mut q = vec![0.0f32; self.n];
        for (i0, i1) in self.row_blocks(t_bytes)? {
            for i in i0..i1 {
                for j in 0..self.m {
                    s[j] += r[i] * a[i * self.m + j];
                    q[i] += a[i * self.m + j] * p[j];
                }
            }
        }
        s.extend_from_slice(&q);
        Ok(s)
    }
}

impl Kernel for Bicg {
    fn name(&self) -> &'static str {
        "bicg"
    }

    fn dims(&self) -> String {
        format!("{}x{}", self.n, self.m)
    }

    fn id_dims(&self) -> Vec<usize> {
        vec![self.n, self.m]
    }

    fn dataset_bytes(&self) -> usize {
        self.a.bytes() + self.p.bytes() + self.q.bytes() + self.r.bytes() + self.s.bytes()
    }

    fn min_interval_bytes(&self) -> usize {
        // p + s resident, one matrix row, one line each of q and r, slack.
        self.p.bytes() + self.s.bytes() + self.m * ELEM_BYTES + 6 * LINE_BYTES
    }

    fn intervals(&self, t_bytes: usize) -> Result<Vec<IntervalSpec>, KernelError> {
        let chunks = self.m / self.a.elems_per_line();
        let mut out = Vec::new();
        for (i0, i1) in self.row_blocks(t_bytes)? {
            let mut b = IntervalBuilder::new();
            // Staging: resident vectors, then the streamed rows.
            b.stage_flat(&self.p, 0, self.m);
            b.stage_flat(&self.s, 0, self.m);
            b.stage_flat(&self.r, i0, i1);
            b.stage_flat(&self.q, i0, i1);
            for i in i0..i1 {
                b.stage_row(&self.a, i, 0, self.m);
            }
            // Compute: row-major sweep.
            for i in i0..i1 {
                b.read(self.r.line(0, i));
                for c in 0..chunks {
                    let c0 = c * self.a.elems_per_line();
                    let c1 = c0 + self.a.elems_per_line();
                    b.read(self.a.line(i, c0));
                    b.read(self.p.line(0, c0));
                    b.write(self.s.line(0, c0));
                    debug_assert_eq!(c1 - c0, self.a.elems_per_line());
                    b.alu(ALU_PER_CHUNK);
                }
                b.write(self.q.line(0, i));
                b.alu(ALU_PER_ROW);
            }
            out.push(b.build());
        }
        Ok(out)
    }

    fn verify(&self, t_bytes: usize) -> Result<(), VerifyError> {
        check_coverage(&self.intervals(t_bytes)?, t_bytes)?;
        compare_results(self.name(), &self.reference(), &self.tiled(t_bytes)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prem_memsim::KIB;

    #[test]
    fn tiling_is_verified_at_many_sizes() {
        let k = Bicg::new(128, 128);
        for t in [8 * KIB, 16 * KIB, 32 * KIB, 64 * KIB] {
            k.verify(t).unwrap();
        }
    }

    #[test]
    fn too_small_interval_is_error() {
        let k = Bicg::new(128, 128);
        assert!(matches!(
            k.intervals(1024),
            Err(KernelError::IntervalTooSmall { .. })
        ));
    }

    #[test]
    fn footprints_respect_t() {
        let k = Bicg::new(256, 256);
        let t = 16 * KIB;
        for iv in k.intervals(t).unwrap() {
            assert!(iv.footprint_bytes(LINE_BYTES) <= t);
        }
    }

    #[test]
    fn larger_t_means_fewer_intervals() {
        let k = Bicg::new(256, 256);
        let small = k.intervals(8 * KIB).unwrap().len();
        let large = k.intervals(64 * KIB).unwrap().len();
        assert!(large < small, "{large} !< {small}");
    }

    #[test]
    fn matrix_lines_appear_exactly_once_across_intervals() {
        let k = Bicg::new(128, 128);
        let ivs = k.intervals(16 * KIB).unwrap();
        let mut a_lines = std::collections::HashMap::new();
        let a_first = k.a.line(0, 0).raw();
        let a_last = k.a.line(127, 127).raw();
        for iv in &ivs {
            for l in iv.footprint() {
                if (a_first..=a_last).contains(&l.raw()) {
                    *a_lines.entry(l.raw()).or_insert(0u32) += 1;
                }
            }
        }
        assert_eq!(a_lines.len(), 128 * 128 * 4 / 128);
        assert!(a_lines.values().all(|&c| c == 1));
    }

    #[test]
    fn dims_and_sizes_report() {
        let k = Bicg::new(128, 256);
        assert_eq!(k.dims(), "128x256");
        assert_eq!(k.dataset_bytes(), (128 * 256 + 2 * 256 + 2 * 128) * 4);
    }
}
