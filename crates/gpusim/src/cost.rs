//! Execution-cost model.
//!
//! Timing is throughput-oriented: a GPU hides memory latency behind many
//! outstanding warp accesses, so latency terms are divided by a configurable
//! memory-level-parallelism factor (`mlp`), while DRAM serialization
//! (bandwidth) is charged in full — bandwidth is the hard floor for bulk
//! transfers like PREM M-phases. All costs are in GPU cycles; the platform
//! converts to microseconds with its clock.

use prem_memsim::{Contention, DramConfig, HitLevel};

/// Cost-model parameters (cycles at the GPU clock).
#[derive(Clone, Debug, PartialEq)]
pub struct CostModel {
    /// Cycles per warp-wide arithmetic instruction.
    pub alu_cpi: f64,
    /// Issue cost of any memory instruction.
    pub issue_cycles: f64,
    /// LLC hit latency.
    pub llc_hit_cycles: f64,
    /// Scratchpad access latency.
    pub spm_cycles: f64,
    /// Memory-level parallelism: outstanding accesses that overlap latency.
    pub mlp: f64,
    /// Memory-level parallelism of explicit copy loops (SPM DMA-in/out).
    /// Copies are load-to-store dependent and register-bound, so they
    /// overlap far fewer misses than fire-and-forget prefetch streams.
    pub copy_mlp: f64,
    /// Cost of a software prefetch that hits (tag probe only, no data
    /// consumption — the paper's "negligible" repeated-prefetch cost, §IV-A).
    pub prefetch_hit_cycles: f64,
    /// DRAM timing.
    pub dram: DramConfig,
    /// Line size charged for DRAM transfers (bytes).
    pub line_bytes: usize,
}

impl CostModel {
    /// TX1-like defaults at 1 GHz (see DESIGN.md §4).
    pub fn tx1() -> Self {
        CostModel {
            alu_cpi: 0.5,
            issue_cycles: 2.0,
            llc_hit_cycles: 220.0,
            spm_cycles: 30.0,
            mlp: 32.0,
            copy_mlp: 6.0,
            prefetch_hit_cycles: 1.0,
            dram: DramConfig::tx1(),
            line_bytes: 128,
        }
    }

    /// TX2-like (Pascal) defaults: the wider LPDDR4 bus of
    /// [`DramConfig::tx2`], slightly deeper LLC pipeline in cycles at the
    /// higher clock; everything else inherits the TX1 calibration.
    pub fn tx2() -> Self {
        CostModel {
            llc_hit_cycles: 240.0,
            dram: DramConfig::tx2(),
            ..CostModel::tx1()
        }
    }

    /// Xavier-like (Volta) defaults: LPDDR4x timing from
    /// [`DramConfig::xavier_like`] and twice the memory-level parallelism
    /// (8 SMs keep many more warps in flight than the TX1's 2).
    pub fn xavier_like() -> Self {
        CostModel {
            llc_hit_cycles: 260.0,
            mlp: 64.0,
            copy_mlp: 8.0,
            dram: DramConfig::xavier_like(),
            ..CostModel::tx1()
        }
    }

    /// Cost of one demand access served at `level` under `contention`.
    pub fn access_cost(&self, level: HitLevel, contention: Contention) -> f64 {
        match level {
            HitLevel::Llc => self.issue_cycles + self.llc_hit_cycles / self.mlp,
            HitLevel::Spm => self.issue_cycles + self.spm_cycles / self.mlp,
            HitLevel::Dram => self.dram_line_cost(contention) + self.issue_cycles,
        }
    }

    /// Cost of one prefetch with the given outcome.
    pub fn prefetch_cost(&self, hit: bool, contention: Contention) -> f64 {
        if hit {
            self.prefetch_hit_cycles
        } else {
            // A missing prefetch performs a full line fill.
            self.prefetch_hit_cycles + self.dram_line_cost(contention)
        }
    }

    /// Cost of one DRAM line fill on the cached path (demand miss or
    /// prefetch miss).
    pub fn dram_line_cost(&self, contention: Contention) -> f64 {
        self.dram.effective_latency(contention) / self.mlp
            + self.dram.serialization(self.line_bytes, contention)
    }

    /// Cost of one explicit copy-loop line transfer (SPM DMA path): the
    /// dependent load/store chain exposes more of the DRAM latency.
    pub fn copy_line_cost(&self, contention: Contention) -> f64 {
        self.dram.effective_latency(contention) / self.copy_mlp
            + self.dram.serialization(self.line_bytes, contention)
    }

    /// Cost of `n` arithmetic warp instructions.
    pub fn alu_cost(&self, n: u64) -> f64 {
        n as f64 * self.alu_cpi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_levels_are_ordered() {
        let m = CostModel::tx1();
        let c = Contention::Isolated;
        let spm = m.access_cost(HitLevel::Spm, c);
        let llc = m.access_cost(HitLevel::Llc, c);
        let dram = m.access_cost(HitLevel::Dram, c);
        assert!(spm < llc && llc < dram);
    }

    #[test]
    fn interference_only_hurts_dram() {
        let m = CostModel::tx1();
        let iso = Contention::Isolated;
        let bomb = Contention::membomb();
        assert_eq!(
            m.access_cost(HitLevel::Llc, iso),
            m.access_cost(HitLevel::Llc, bomb)
        );
        assert!(m.access_cost(HitLevel::Dram, bomb) > m.access_cost(HitLevel::Dram, iso));
    }

    #[test]
    fn repeated_prefetch_hit_is_cheap() {
        let m = CostModel::tx1();
        let hit = m.prefetch_cost(true, Contention::Isolated);
        let miss = m.prefetch_cost(false, Contention::Isolated);
        assert!(hit * 10.0 < miss, "hit {hit} vs miss {miss}");
    }

    #[test]
    fn bandwidth_not_hidden_by_mlp() {
        // The serialization term must appear undivided in the DRAM cost.
        let m = CostModel::tx1();
        let ser = m.dram.serialization(m.line_bytes, Contention::Isolated);
        assert!(m.dram_line_cost(Contention::Isolated) >= ser);
    }
}
