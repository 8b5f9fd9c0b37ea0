//! GPU micro-operation streams.
//!
//! Kernels are represented as streams of warp-level micro-ops at cache-line
//! granularity: one `CachedLoad` stands for a coalesced 32-lane warp load
//! covering one 128-byte line, one `Alu(n)` for `n` warp-wide arithmetic
//! instructions. This abstraction keeps the simulator fast while preserving
//! exactly what the paper's analysis needs: the sequence of line fills seen
//! by the cache, and instruction-count differences between the SPM and cache
//! code paths (paper Fig 2).

use prem_memsim::LineAddr;

/// One warp-level micro-operation.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Op {
    /// Coalesced global load through the cache hierarchy.
    CachedLoad(LineAddr),
    /// Coalesced global store through the cache hierarchy (write-allocate).
    CachedStore(LineAddr),
    /// Software prefetch of one line into the LLC (the paper's M-phase op).
    Prefetch(LineAddr),
    /// Load served by the scratchpad.
    SpmLoad(LineAddr),
    /// Store served by the scratchpad.
    SpmStore(LineAddr),
    /// Direct DRAM line read bypassing the caches (SPM DMA-in).
    DramLoad(LineAddr),
    /// Direct DRAM line write bypassing the caches (SPM DMA-out).
    DramStore(LineAddr),
    /// `n` warp-wide arithmetic instructions.
    Alu(u32),
    /// `n` warp-wide address-translation instructions (the SPM's
    /// `transl_addr` overhead from paper Fig 2). Counted separately from
    /// [`Op::Alu`] so the code-size comparison can be reported.
    TranslAddr(u32),
}

/// Static instruction counts of a stream (paper Fig 2 comparison).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Cached loads.
    pub cached_loads: u64,
    /// Cached stores.
    pub cached_stores: u64,
    /// Prefetches.
    pub prefetches: u64,
    /// Scratchpad loads.
    pub spm_loads: u64,
    /// Scratchpad stores.
    pub spm_stores: u64,
    /// Direct DRAM reads.
    pub dram_loads: u64,
    /// Direct DRAM writes.
    pub dram_stores: u64,
    /// Arithmetic warp instructions.
    pub alu: u64,
    /// Address-translation warp instructions.
    pub transl: u64,
}

impl OpCounts {
    /// All memory-touching instructions.
    pub fn memory_instructions(&self) -> u64 {
        self.cached_loads
            + self.cached_stores
            + self.prefetches
            + self.spm_loads
            + self.spm_stores
            + self.dram_loads
            + self.dram_stores
    }

    /// Every instruction, including arithmetic.
    pub fn total_instructions(&self) -> u64 {
        self.memory_instructions() + self.alu + self.transl
    }

    /// Data-movement *management* overhead: instructions that exist only to
    /// move or re-address data (everything except demand accesses and real
    /// arithmetic). This is the quantity paper Fig 2 contrasts between the
    /// SPM and cache code.
    pub fn management_instructions(&self) -> u64 {
        self.prefetches + self.spm_stores + self.dram_loads + self.dram_stores + self.transl
    }

    fn add(&mut self, op: &Op) {
        match op {
            Op::CachedLoad(_) => self.cached_loads += 1,
            Op::CachedStore(_) => self.cached_stores += 1,
            Op::Prefetch(_) => self.prefetches += 1,
            Op::SpmLoad(_) => self.spm_loads += 1,
            Op::SpmStore(_) => self.spm_stores += 1,
            Op::DramLoad(_) => self.dram_loads += 1,
            Op::DramStore(_) => self.dram_stores += 1,
            Op::Alu(n) => self.alu += *n as u64,
            Op::TranslAddr(n) => self.transl += *n as u64,
        }
    }
}

/// A sequence of micro-ops (one PREM phase, or a whole baseline kernel).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OpStream {
    ops: Vec<Op>,
}

impl OpStream {
    /// Creates an empty stream.
    pub fn new() -> Self {
        OpStream::default()
    }

    /// Creates a stream with preallocated capacity.
    pub fn with_capacity(n: usize) -> Self {
        OpStream {
            ops: Vec::with_capacity(n),
        }
    }

    /// Appends one op.
    #[inline]
    pub fn push(&mut self, op: Op) -> &mut Self {
        self.ops.push(op);
        self
    }

    /// Appends all ops of `other`.
    pub fn extend_from(&mut self, other: &OpStream) -> &mut Self {
        self.ops.extend_from_slice(&other.ops);
        self
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Iterates over the ops.
    pub fn iter(&self) -> std::slice::Iter<'_, Op> {
        self.ops.iter()
    }

    /// Static instruction counts.
    pub fn counts(&self) -> OpCounts {
        let mut c = OpCounts::default();
        for op in &self.ops {
            c.add(op);
        }
        c
    }

    /// The distinct lines touched by memory ops, in first-touch order.
    pub fn touched_lines(&self) -> Vec<LineAddr> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for op in &self.ops {
            let line = match op {
                Op::CachedLoad(l)
                | Op::CachedStore(l)
                | Op::Prefetch(l)
                | Op::SpmLoad(l)
                | Op::SpmStore(l)
                | Op::DramLoad(l)
                | Op::DramStore(l) => Some(*l),
                Op::Alu(_) | Op::TranslAddr(_) => None,
            };
            if let Some(l) = line {
                if seen.insert(l) {
                    out.push(l);
                }
            }
        }
        out
    }
}

impl FromIterator<Op> for OpStream {
    fn from_iter<T: IntoIterator<Item = Op>>(iter: T) -> Self {
        OpStream {
            ops: iter.into_iter().collect(),
        }
    }
}

impl Extend<Op> for OpStream {
    fn extend<T: IntoIterator<Item = Op>>(&mut self, iter: T) {
        self.ops.extend(iter);
    }
}

impl<'a> IntoIterator for &'a OpStream {
    type Item = &'a Op;
    type IntoIter = std::slice::Iter<'a, Op>;
    fn into_iter(self) -> Self::IntoIter {
        self.ops.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn counts_are_exact() {
        let s: OpStream = vec![
            Op::CachedLoad(l(0)),
            Op::CachedStore(l(1)),
            Op::Prefetch(l(2)),
            Op::SpmLoad(l(3)),
            Op::SpmStore(l(4)),
            Op::DramLoad(l(5)),
            Op::DramStore(l(6)),
            Op::Alu(3),
            Op::TranslAddr(2),
        ]
        .into_iter()
        .collect();
        let c = s.counts();
        assert_eq!(c.cached_loads, 1);
        assert_eq!(c.cached_stores, 1);
        assert_eq!(c.prefetches, 1);
        assert_eq!(c.spm_loads, 1);
        assert_eq!(c.spm_stores, 1);
        assert_eq!(c.dram_loads, 1);
        assert_eq!(c.dram_stores, 1);
        assert_eq!(c.alu, 3);
        assert_eq!(c.transl, 2);
        assert_eq!(c.memory_instructions(), 7);
        assert_eq!(c.total_instructions(), 12);
    }

    #[test]
    fn management_overhead_reflects_fig2() {
        // SPM copy of one line: DRAM read + SPM write + 2 transl instrs.
        let spm: OpStream = vec![Op::DramLoad(l(0)), Op::SpmStore(l(0)), Op::TranslAddr(2)]
            .into_iter()
            .collect();
        // Cache path: a single prefetch.
        let llc: OpStream = vec![Op::Prefetch(l(0))].into_iter().collect();
        assert!(spm.counts().management_instructions() > llc.counts().management_instructions());
        assert_eq!(llc.counts().management_instructions(), 1);
    }

    #[test]
    fn touched_lines_deduplicates_in_order() {
        let s: OpStream = vec![
            Op::CachedLoad(l(5)),
            Op::Alu(1),
            Op::CachedLoad(l(3)),
            Op::CachedStore(l(5)),
        ]
        .into_iter()
        .collect();
        assert_eq!(s.touched_lines(), vec![l(5), l(3)]);
    }

    #[test]
    fn extend_concatenates() {
        let mut a = OpStream::new();
        a.push(Op::Alu(1));
        let mut b = OpStream::new();
        b.push(Op::Alu(2));
        a.extend_from(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.counts().alu, 3);
    }
}
