//! CPU/GPU synchronization protocol model.
//!
//! On the TX1 the DRAM token is exchanged between CPU and GPU by software
//! (GPUguard-style): a watchdog timer expires at the end of a budgeted
//! phase, an interrupt fires, and the handler performs the token exchange
//! (paper Fig 1 (a)–(b)). Two costs follow:
//!
//! * a fixed **synchronization cost** per phase switch (interrupt latency +
//!   handler execution);
//! * a **minimum synchronization granularity (MSG)** (Fig 1 (c)): phases
//!   shorter than the MSG cannot release the token early — the device idles
//!   until the watchdog fires (Fig 1 (d)).
//!
//! Both are CPU-side timings, so [`SyncConfig`] lives on the platform
//! (`CpuConfig::sync`) and the executor reads it from there.

pub use prem_gpusim::SyncConfig;

/// Timing of one executed phase inside its budgeted slot.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct PhaseTiming {
    /// Useful work performed (cycles).
    pub work: f64,
    /// Idle padding up to the budget (cycles); zero when the phase overran
    /// the slot, which then lasts as long as the work.
    pub idle: f64,
}

impl PhaseTiming {
    /// Places `work` cycles into a slot of `budget` cycles.
    pub fn in_slot(work: f64, budget: f64) -> Self {
        let idle = if work <= budget { budget - work } else { 0.0 };
        PhaseTiming { work, idle }
    }

    /// Wall-clock length of the slot actually consumed.
    pub fn elapsed(&self) -> f64 {
        self.work + self.idle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_phase_idles_to_budget() {
        let t = PhaseTiming::in_slot(10.0, 50.0);
        assert_eq!(t.idle, 40.0);
        assert_eq!(t.elapsed(), 50.0);
    }

    #[test]
    fn overrun_extends_schedule() {
        let t = PhaseTiming::in_slot(70.0, 50.0);
        assert_eq!(t.idle, 0.0);
        assert_eq!(t.elapsed(), 70.0);
    }

    #[test]
    fn exact_fit_has_no_padding() {
        let t = PhaseTiming::in_slot(50.0, 50.0);
        assert_eq!(t.idle, 0.0);
        assert_eq!(t.elapsed(), 50.0);
    }

    #[test]
    fn switch_cost_sums_components() {
        let s = SyncConfig::tx1();
        assert_eq!(s.switch_cost_us(), 5.0);
    }
}
