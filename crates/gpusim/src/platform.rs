//! Whole-platform composition and presets.

use prem_memsim::{Cache, CacheConfig, MemSystem, Policy, Spm, SpmConfig, KIB};

use crate::cost::CostModel;
use crate::cpu::CpuConfig;

/// Static description of a platform.
#[derive(Clone, Debug, PartialEq)]
pub struct PlatformConfig {
    /// LLC geometry and policy.
    pub llc: CacheConfig,
    /// Optional L1 in front of the LLC.
    pub l1: Option<CacheConfig>,
    /// Scratchpad geometry.
    pub spm: SpmConfig,
    /// Execution cost model.
    pub cost: CostModel,
    /// CPU-side configuration.
    pub cpu: CpuConfig,
    /// GPU clock in GHz (converts cycles to wall time).
    pub clock_ghz: f64,
}

impl PlatformConfig {
    /// The NVIDIA Jetson TX1-like platform the paper evaluates on:
    /// 256 KiB 4-way LLC with biased-random replacement, 2 × 48 KiB SPM,
    /// shared LPDDR4, 1 GHz GPU clock. No L1 (GPU global loads on Maxwell
    /// bypass L1 by default).
    pub fn tx1() -> Self {
        PlatformConfig {
            llc: CacheConfig::new(256 * KIB, 4, 128)
                .policy(Policy::nvidia_tegra())
                .index_hash(true),
            l1: None,
            spm: SpmConfig::tx1(),
            cost: CostModel::tx1(),
            cpu: CpuConfig::tx1(),
            clock_ghz: 1.0,
        }
    }

    /// A Jetson TX2-like platform (Pascal GP10B iGPU): 512 KiB 8-way LLC
    /// with the generalized biased-random policy ([`Policy::nvidia_like`]),
    /// 2 × 64 KiB SPM, the wider LPDDR4 bus of the TX2 carrier, 1.3 GHz GPU
    /// clock. Geometry beyond the LLC size is extrapolated — NVIDIA
    /// publishes no replacement details for Pascal either.
    pub fn tx2() -> Self {
        PlatformConfig {
            llc: CacheConfig::new(512 * KIB, 8, 128)
                .policy(Policy::nvidia_like(8))
                .index_hash(true),
            l1: None,
            spm: SpmConfig::tx2(),
            cost: CostModel::tx2(),
            cpu: CpuConfig::tx1(),
            clock_ghz: 1.3,
        }
    }

    /// A Xavier-like platform (Volta GV10B iGPU): 512 KiB 16-way LLC,
    /// 8 × 96 KiB SPM, LPDDR4x with better memory-controller QoS, ≈1.4 GHz
    /// GPU clock. The "-like" is deliberate: this is a plausible
    /// extrapolation for matrix sweeps, not a validated model.
    pub fn xavier_like() -> Self {
        PlatformConfig {
            llc: CacheConfig::new(512 * KIB, 16, 128)
                .policy(Policy::nvidia_like(16))
                .index_hash(true),
            l1: None,
            spm: SpmConfig::xavier_like(),
            cost: CostModel::xavier_like(),
            cpu: CpuConfig::tx1(),
            clock_ghz: 1.377,
        }
    }

    /// A synthetic platform for LLC-geometry sweeps: `llc_kib` KiB of
    /// `ways`-way LLC under [`Policy::nvidia_like`], `spm_kib` KiB of
    /// scratchpad, TX1 cost model and clock. The set count
    /// (`llc_kib × 1024 / (ways × 128)`) must come out a power of two —
    /// [`PlatformConfig::build`] panics otherwise, like any other invalid
    /// cache geometry.
    pub fn generic(llc_kib: usize, ways: usize, spm_kib: usize) -> Self {
        PlatformConfig {
            llc: CacheConfig::new(llc_kib * KIB, ways, 128)
                .policy(Policy::nvidia_like(ways))
                .index_hash(true),
            l1: None,
            spm: SpmConfig::new(spm_kib * KIB, 128),
            cost: CostModel::tx1(),
            cpu: CpuConfig::tx1(),
            clock_ghz: 1.0,
        }
    }

    /// Replaces the LLC replacement policy (ablation studies).
    pub fn llc_policy(mut self, policy: Policy) -> Self {
        self.llc = self.llc.policy(policy);
        self
    }

    /// Replaces the LLC seed (multi-seed experiments).
    pub fn llc_seed(mut self, seed: u64) -> Self {
        self.llc = self.llc.seed(seed);
        self
    }

    /// Replaces the CPU co-runner mix activated by
    /// [`Scenario::Corunners`](crate::Scenario::Corunners).
    pub fn with_corunners(mut self, corunners: Vec<crate::CorunnerProfile>) -> Self {
        self.cpu.corunners = corunners;
        self
    }

    /// Converts cycles to microseconds at this config's GPU clock, as
    /// [`Platform::cycles_to_us`] does, without building a platform (the
    /// run-plan layer folds cached run outputs into µs with only the
    /// config at hand).
    pub fn cycles_to_us(&self, cycles: f64) -> f64 {
        cycles_to_us(self.clock_ghz, cycles)
    }

    /// Converts microseconds to cycles at this config's GPU clock, as
    /// [`Platform::us_to_cycles`] does, without building a platform (a
    /// compiled run prices its token exchanges with only the config at
    /// hand).
    pub fn us_to_cycles(&self, us: f64) -> f64 {
        us_to_cycles(self.clock_ghz, us)
    }

    /// Builds the runnable platform.
    pub fn build(&self) -> Platform {
        let mut mem = MemSystem::new(Cache::new(self.llc.clone()), Spm::new(self.spm.clone()));
        if let Some(l1) = &self.l1 {
            mem = mem.with_l1(Cache::new(l1.clone()));
        }
        Platform {
            mem,
            cost: self.cost.clone(),
            cpu: self.cpu.clone(),
            clock_ghz: self.clock_ghz,
        }
    }
}

/// A runnable platform instance: memory system + cost model + clock.
#[derive(Clone, Debug)]
pub struct Platform {
    /// The GPU-visible memory system.
    pub mem: MemSystem,
    /// The execution cost model.
    pub cost: CostModel,
    /// The CPU-side configuration.
    pub cpu: CpuConfig,
    /// GPU clock in GHz.
    pub clock_ghz: f64,
}

impl Platform {
    /// Converts cycles to microseconds at the platform clock.
    pub fn cycles_to_us(&self, cycles: f64) -> f64 {
        cycles_to_us(self.clock_ghz, cycles)
    }

    /// Converts microseconds to cycles at the platform clock.
    pub fn us_to_cycles(&self, us: f64) -> f64 {
        us_to_cycles(self.clock_ghz, us)
    }

    /// Cold-resets caches and scratchpad and clears statistics.
    pub fn reset(&mut self) {
        self.mem.cold_reset();
        self.mem.reset_stats();
    }

    /// Reseeds randomized components.
    pub fn reseed(&mut self, seed: u64) {
        self.mem.reseed(seed);
    }
}

/// Cycles at a `clock_ghz` GPU clock to microseconds: the one formula
/// behind both config and platform conversions.
fn cycles_to_us(clock_ghz: f64, cycles: f64) -> f64 {
    cycles / (clock_ghz * 1000.0)
}

/// Microseconds to cycles at a `clock_ghz` GPU clock (see
/// [`cycles_to_us`]). Live and compiled runs convert the token-exchange
/// costs through it, so their MSG cycles agree to the bit.
fn us_to_cycles(clock_ghz: f64, us: f64) -> f64 {
    us * clock_ghz * 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use prem_memsim::{AccessKind, LineAddr, Phase};

    #[test]
    fn tx1_preset_matches_paper_numbers() {
        let cfg = PlatformConfig::tx1();
        assert_eq!(cfg.llc.size_bytes(), 256 * KIB);
        assert_eq!(cfg.llc.good_capacity_bytes(), 192 * KIB);
        assert_eq!(cfg.spm.capacity_bytes(), 96 * KIB);
        // LLC is 5x the SPM size, but usable capacity ratio is 2x
        assert!(cfg.llc.size_bytes() >= 2 * cfg.spm.capacity_bytes());
    }

    #[test]
    fn clock_conversions_roundtrip() {
        let p = PlatformConfig::tx1().build();
        let us = p.cycles_to_us(20_000.0);
        assert!((us - 20.0).abs() < 1e-9);
        assert!((p.us_to_cycles(us) - 20_000.0).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_contents_and_stats() {
        let mut p = PlatformConfig::tx1().build();
        p.mem
            .llc_mut()
            .access(LineAddr::new(1), AccessKind::Read, Phase::Unphased);
        p.reset();
        assert_eq!(p.mem.llc().occupancy(), 0);
        assert_eq!(p.mem.llc().stats().total_accesses(), 0);
    }

    #[test]
    fn policy_override_builds() {
        let p = PlatformConfig::tx1().llc_policy(Policy::Lru).build();
        assert_eq!(p.mem.llc().config().policy_ref(), &Policy::Lru);
    }

    #[test]
    fn multi_soc_presets_build_and_order_sensibly() {
        for (cfg, llc_kib, spm_kib) in [
            (PlatformConfig::tx2(), 512, 128),
            (PlatformConfig::xavier_like(), 512, 768),
        ] {
            assert_eq!(cfg.llc.size_bytes(), llc_kib * KIB);
            assert_eq!(cfg.spm.capacity_bytes(), spm_kib * KIB);
            // One bad way at any associativity.
            let ways = cfg.llc.ways();
            assert_eq!(
                cfg.llc.good_capacity_bytes(),
                cfg.llc.size_bytes() / ways * (ways - 1)
            );
            cfg.build();
        }
        // Newer parts clock higher and move more bytes per cycle.
        assert!(PlatformConfig::tx2().clock_ghz > PlatformConfig::tx1().clock_ghz);
        assert!(
            PlatformConfig::xavier_like().cost.dram.bytes_per_cycle()
                > PlatformConfig::tx2().cost.dram.bytes_per_cycle()
        );
    }

    #[test]
    fn generic_preset_matches_requested_geometry() {
        let cfg = PlatformConfig::generic(128, 4, 64);
        assert_eq!(cfg.llc.size_bytes(), 128 * KIB);
        assert_eq!(cfg.llc.ways(), 4);
        assert_eq!(cfg.spm.capacity_bytes(), 64 * KIB);
        assert_eq!(cfg.llc.good_capacity_bytes(), 96 * KIB);
        cfg.build();
    }
}
