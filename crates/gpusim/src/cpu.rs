//! Host-CPU side of the SoC: the co-scheduled PREM partner and the
//! best-effort interference generators.
//!
//! The CPU matters to the GPU's timing through the co-runner mix it runs:
//! each co-runner is an actor with a memory-access profile
//! ([`CorunnerProfile`](crate::CorunnerProfile)) whose concurrent demand
//! the [`InterferenceEngine`](crate::InterferenceEngine) turns into bus
//! contention and LLC pollution. The paper's two measurement scenarios
//! remain available as presets:
//!
//! * [`Scenario::Isolation`] — no CPU traffic at all (the empty mix);
//! * [`Scenario::Interference`] — the paper's membomb scenario: three
//!   saturating memory bombs on the CPU cluster, which is exactly the
//!   calibration point of the DRAM model
//!   ([`CALIBRATED_DEMAND`](prem_memsim::CALIBRATED_DEMAND)), so preset
//!   results are bit-identical to the pre-engine scalar model;
//! * [`Scenario::Corunners`] — the configured [`CpuConfig::corunners`]
//!   mix, the general case.

use prem_memsim::Contention;

use crate::interference::CorunnerProfile;

/// Scenario under which a schedule executes.
#[derive(Copy, Clone, PartialEq, Debug, Default)]
pub enum Scenario {
    /// GPU alone: no CPU traffic at all (isolation measurement).
    #[default]
    Isolation,
    /// The paper's interference preset: three membomb co-runners.
    Interference,
    /// The co-runner mix configured in [`CpuConfig::corunners`].
    Corunners,
}

/// The fixed co-runner mix behind [`Scenario::Interference`]: three
/// saturating membomb cores (the A57 cluster minus the core reserved for
/// the co-scheduled PREM partner).
pub const INTERFERENCE_MIX: [CorunnerProfile; 3] = [
    CorunnerProfile::Membomb,
    CorunnerProfile::Membomb,
    CorunnerProfile::Membomb,
];

/// Timing of the CPU/GPU DRAM-token exchange, in microseconds (converted
/// to cycles at the platform clock); the protocol is described in
/// `prem_core`'s `sync` module.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SyncConfig {
    /// Minimum synchronization granularity: the smallest admissible phase
    /// budget.
    pub msg_us: f64,
    /// Interrupt delivery latency.
    pub irq_latency_us: f64,
    /// Interrupt handler (token exchange) execution time.
    pub handler_us: f64,
}

impl SyncConfig {
    /// TX1-like defaults: 40 µs MSG, 3 µs interrupt latency, 2 µs handler.
    pub fn tx1() -> Self {
        SyncConfig {
            msg_us: 40.0,
            irq_latency_us: 3.0,
            handler_us: 2.0,
        }
    }

    /// Cost of one phase switch (one token exchange), µs.
    pub fn switch_cost_us(&self) -> f64 {
        self.irq_latency_us + self.handler_us
    }
}

/// CPU-side configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct CpuConfig {
    /// The co-runner mix activated by [`Scenario::Corunners`]. Empty by
    /// default (equivalent to isolation until a mix is configured).
    pub corunners: Vec<CorunnerProfile>,
    /// Timing of the token exchange, a watchdog interrupt plus a CPU
    /// handler.
    pub sync: SyncConfig,
}

impl CpuConfig {
    /// TX1 defaults: no custom co-runner mix configured (the presets
    /// carry the paper's scenarios) and TX1 token-exchange timing.
    pub fn tx1() -> Self {
        CpuConfig {
            corunners: vec![],
            sync: SyncConfig::tx1(),
        }
    }

    /// Replaces the co-runner mix (builder form).
    #[must_use]
    pub fn with_corunners(mut self, corunners: Vec<CorunnerProfile>) -> Self {
        self.corunners = corunners;
        self
    }

    /// The co-runner profiles active under `scenario`.
    pub fn active_corunners(&self, scenario: Scenario) -> &[CorunnerProfile] {
        match scenario {
            Scenario::Isolation => &[],
            Scenario::Interference => &INTERFERENCE_MIX,
            Scenario::Corunners => &self.corunners,
        }
    }

    /// Contention experienced by a *protected* GPU M-phase.
    ///
    /// Takes no scenario: the PREM DRAM token blocks every co-runner's
    /// memory traffic while the GPU stages data, whatever the mix — the
    /// guarantee is now expressed by the signature instead of a silently
    /// ignored parameter.
    pub fn m_phase_contention(&self) -> Contention {
        Contention::Isolated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn m_phase_always_protected() {
        let cpu = CpuConfig::tx1().with_corunners(vec![CorunnerProfile::Membomb; 6]);
        assert_eq!(cpu.m_phase_contention(), Contention::Isolated);
    }

    #[test]
    fn presets_map_to_fixed_mixes() {
        let cpu = CpuConfig::tx1().with_corunners(vec![CorunnerProfile::Stream]);
        assert!(cpu.active_corunners(Scenario::Isolation).is_empty());
        assert_eq!(
            cpu.active_corunners(Scenario::Interference),
            &INTERFERENCE_MIX
        );
        assert_eq!(
            cpu.active_corunners(Scenario::Corunners),
            &[CorunnerProfile::Stream]
        );
    }

    #[test]
    fn interference_preset_hits_the_calibration_point() {
        let demand: f64 = INTERFERENCE_MIX.iter().map(|p| p.mean_demand()).sum();
        assert_eq!(Contention::from_demand(demand), Contention::membomb());
    }
}
