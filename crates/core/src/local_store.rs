//! Local-store strategies: how an interval's footprint is staged and how its
//! compute phase addresses data.
//!
//! The paper contrasts two strategies (Fig 2):
//!
//! * **SPM** (the state of the art): the M-phase runs an explicit copy loop
//!   — a DRAM read, an SPM store, and address-translation arithmetic per
//!   line — and every compute access pays `transl_addr` overhead to map a
//!   DRAM address onto its scratchpad slot.
//! * **LLC** (the paper's proposal): the M-phase issues one *prefetch* per
//!   line — optionally repeated `R` times to defeat the biased-random
//!   replacement ([`PrefetchStrategy::Repeated`]) — and compute accesses use
//!   original addresses with no software overhead.

use prem_gpusim::{Op, OpStream};

use crate::interval::IntervalSpec;

/// How M-phase prefetches are issued on the LLC path.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum PrefetchStrategy {
    /// `r` full prefetch passes (the paper's contribution, §IV: `r = 8`
    /// drives the bad-way residency below 0.5 %; `r = 1` is the naive
    /// single pass of §III).
    Repeated {
        /// The prefetch repetition factor `R ≥ 1`.
        r: u32,
    },
    /// Repeat passes until one pass hits entirely, up to `max_rounds`
    /// (adaptive variant; the natural extension of §IV).
    UntilResident {
        /// Upper bound on passes.
        max_rounds: u32,
    },
}

impl PrefetchStrategy {
    /// The fixed number of passes, or the maximum for the adaptive variant.
    pub fn max_rounds(self) -> u32 {
        match self {
            PrefetchStrategy::Repeated { r } => r.max(1),
            PrefetchStrategy::UntilResident { max_rounds } => max_rounds.max(1),
        }
    }

    /// Whether the executor may stop early on an all-hit pass.
    pub fn adaptive(self) -> bool {
        matches!(self, PrefetchStrategy::UntilResident { .. })
    }
}

/// A local-store strategy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LocalStore {
    /// Stage into the last-level cache via prefetches.
    Llc {
        /// Prefetch issuing strategy.
        prefetch: PrefetchStrategy,
    },
    /// Stage into the scratchpad via explicit copies.
    Spm {
        /// `transl_addr` warp instructions per compute access (Fig 2).
        transl_per_access: u32,
        /// Copy-loop overhead warp instructions per staged line.
        transl_per_line_copy: u32,
    },
}

impl LocalStore {
    /// The paper's proposed configuration: LLC with `R = 8`.
    pub fn llc_tamed() -> Self {
        LocalStore::Llc {
            prefetch: PrefetchStrategy::Repeated { r: 8 },
        }
    }

    /// The naive LLC configuration of §III (single prefetch pass).
    pub fn llc_naive() -> Self {
        LocalStore::Llc {
            prefetch: PrefetchStrategy::Repeated { r: 1 },
        }
    }

    /// The SPM state of the art with default software-addressing overheads.
    pub fn spm_default() -> Self {
        LocalStore::Spm {
            transl_per_access: 4,
            transl_per_line_copy: 2,
        }
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            LocalStore::Llc { .. } => "llc",
            LocalStore::Spm { .. } => "spm",
        }
    }

    /// Builds one M-phase staging pass for `interval`.
    ///
    /// For the LLC this is one prefetch sweep over the footprint (the
    /// executor repeats it per the [`PrefetchStrategy`]); for the SPM it is
    /// the full copy-in loop plus copy-out of the interval's written lines.
    pub fn m_phase_pass(&self, interval: &IntervalSpec) -> OpStream {
        let mut s = OpStream::with_capacity(interval.footprint().len() * 3);
        self.m_phase_ops(interval, |op| {
            s.push(op);
        });
        s
    }

    /// Emits one M-phase staging pass of `interval`, op by op in issue
    /// order — the one definition behind [`LocalStore::m_phase_pass`] and
    /// the compiled stream of [`CompiledRun`](crate::CompiledRun).
    pub(crate) fn m_phase_ops(&self, interval: &IntervalSpec, mut emit: impl FnMut(Op)) {
        match self {
            LocalStore::Llc { .. } => {
                for &line in interval.footprint() {
                    emit(Op::Prefetch(line));
                }
            }
            LocalStore::Spm {
                transl_per_line_copy,
                ..
            } => {
                for &line in interval.footprint() {
                    emit(Op::DramLoad(line));
                    emit(Op::SpmStore(line));
                    if *transl_per_line_copy > 0 {
                        emit(Op::TranslAddr(*transl_per_line_copy));
                    }
                }
                // Copy-out of produced data (charged to this interval's
                // M-phase; the hardware cache does this implicitly through
                // write-back evictions).
                for line in interval.written_lines() {
                    emit(Op::DramStore(line));
                }
            }
        }
    }

    /// Builds the compute-phase stream for `interval`.
    pub fn c_phase(&self, interval: &IntervalSpec) -> OpStream {
        let mut s = OpStream::with_capacity(interval.c_accesses.len() + 2);
        self.c_phase_ops(interval, |op| {
            s.push(op);
        });
        s
    }

    /// Emits the compute-phase ops of `interval` in issue order (see
    /// [`LocalStore::m_phase_ops`]).
    pub(crate) fn c_phase_ops(&self, interval: &IntervalSpec, mut emit: impl FnMut(Op)) {
        match self {
            LocalStore::Llc { .. } => return demand_ops(interval, emit),
            LocalStore::Spm {
                transl_per_access, ..
            } => {
                for a in &interval.c_accesses {
                    emit(if a.write {
                        Op::SpmStore(a.line)
                    } else {
                        Op::SpmLoad(a.line)
                    });
                    if *transl_per_access > 0 {
                        emit(Op::TranslAddr(*transl_per_access));
                    }
                }
            }
        }
        alu_ops(interval.alu, emit);
    }
}

/// Emits `interval`'s compute accesses straight through the cache
/// hierarchy, then its arithmetic: the LLC C-phase and the baseline
/// interval alike.
pub(crate) fn demand_ops(interval: &IntervalSpec, mut emit: impl FnMut(Op)) {
    for a in &interval.c_accesses {
        emit(if a.write {
            Op::CachedStore(a.line)
        } else {
            Op::CachedLoad(a.line)
        });
    }
    alu_ops(interval.alu, emit);
}

/// Emits `alu` warp instructions as `u32`-sized [`Op::Alu`] chunks.
fn alu_ops(mut alu: u64, mut emit: impl FnMut(Op)) {
    while alu > 0 {
        let chunk = alu.min(u32::MAX as u64) as u32;
        emit(Op::Alu(chunk));
        alu -= chunk as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::CAccess;
    use prem_memsim::LineAddr;

    fn l(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    /// The unprotected baseline stream of `interval`.
    fn baseline(interval: &IntervalSpec) -> OpStream {
        let mut s = OpStream::new();
        demand_ops(interval, |op| {
            s.push(op);
        });
        s
    }

    fn iv() -> IntervalSpec {
        IntervalSpec::new(
            vec![l(0), l(1)],
            vec![CAccess::read(l(0)), CAccess::write(l(1))],
            10,
        )
    }

    #[test]
    fn llc_m_phase_is_prefetch_only() {
        let s = LocalStore::llc_naive().m_phase_pass(&iv());
        let c = s.counts();
        assert_eq!(c.prefetches, 2);
        assert_eq!(c.memory_instructions(), 2);
        assert_eq!(c.transl, 0);
    }

    #[test]
    fn spm_m_phase_copies_and_writes_back() {
        let s = LocalStore::spm_default().m_phase_pass(&iv());
        let c = s.counts();
        assert_eq!(c.dram_loads, 2);
        assert_eq!(c.spm_stores, 2);
        assert_eq!(c.dram_stores, 1); // one written line
        assert_eq!(c.transl, 4);
    }

    #[test]
    fn fig2_spm_needs_more_instructions_than_cache() {
        let spm = LocalStore::spm_default();
        let llc = LocalStore::llc_naive();
        let m_spm = spm.m_phase_pass(&iv()).counts().total_instructions();
        let m_llc = llc.m_phase_pass(&iv()).counts().total_instructions();
        assert!(m_spm > 2 * m_llc, "spm {m_spm} vs llc {m_llc}");
        let c_spm = spm.c_phase(&iv()).counts().total_instructions();
        let c_llc = llc.c_phase(&iv()).counts().total_instructions();
        assert!(c_spm > c_llc);
    }

    #[test]
    fn c_phase_respects_access_kinds() {
        let s = LocalStore::llc_naive().c_phase(&iv());
        let c = s.counts();
        assert_eq!(c.cached_loads, 1);
        assert_eq!(c.cached_stores, 1);
        assert_eq!(c.alu, 10);
    }

    #[test]
    fn strategies_report_rounds() {
        assert_eq!(PrefetchStrategy::Repeated { r: 1 }.max_rounds(), 1);
        assert_eq!(PrefetchStrategy::Repeated { r: 8 }.max_rounds(), 8);
        assert_eq!(
            PrefetchStrategy::UntilResident { max_rounds: 12 }.max_rounds(),
            12
        );
        assert!(!PrefetchStrategy::Repeated { r: 8 }.adaptive());
        assert!(PrefetchStrategy::UntilResident { max_rounds: 4 }.adaptive());
    }

    #[test]
    fn repeated_zero_clamps_to_one() {
        assert_eq!(PrefetchStrategy::Repeated { r: 0 }.max_rounds(), 1);
    }

    #[test]
    fn baseline_has_no_staging() {
        let s = baseline(&iv());
        let c = s.counts();
        assert_eq!(c.prefetches + c.dram_loads + c.spm_stores, 0);
        assert_eq!(c.cached_loads, 1);
        assert_eq!(c.cached_stores, 1);
    }

    #[test]
    fn alu_chunking_handles_large_counts() {
        let big = IntervalSpec::new(vec![], vec![], u32::MAX as u64 + 5);
        let s = baseline(&big);
        assert_eq!(s.counts().alu, u32::MAX as u64 + 5);
    }
}
