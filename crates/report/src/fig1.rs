//! Figure 1: the anatomy of a PREM interval schedule, rendered as an ASCII
//! timeline from a real run — M-phases (`M`), C-phases (`C`), MSG idling
//! (`.`, Fig 1 (d)) and token exchanges (`|`, Fig 1 (a)–(b)).

use prem_core::{PhaseTiming, PremRun, SyncConfig};

/// Renders the first `max_intervals` intervals of a run as a timeline,
/// placing each phase's work in its MSG-floored slot. `sync` and
/// `clock_ghz` must be the run's platform's; `cols_per_us` controls the
/// horizontal scale.
pub fn timeline(
    run: &PremRun,
    sync: &SyncConfig,
    clock_ghz: f64,
    max_intervals: usize,
    cols_per_us: f64,
) -> String {
    let to_cols = |cycles: f64| ((cycles / (clock_ghz * 1000.0)) * cols_per_us).round() as usize;
    // The executor's µs-to-cycles operand order, so each idle is
    // bit-identical to the one the run's schedule paid.
    let msg_cycles = sync.msg_us * clock_ghz * 1000.0;
    let switch_cycles = sync.switch_cost_us() * clock_ghz * 1000.0;
    let mut lane = String::new();
    for &(m_work, c_work) in run.interval_work.iter().take(max_intervals) {
        let m = PhaseTiming::in_slot(m_work, msg_cycles);
        let c = PhaseTiming::in_slot(c_work, msg_cycles);
        lane.extend(std::iter::repeat_n('M', to_cols(m.work).max(1)));
        lane.extend(std::iter::repeat_n('.', to_cols(m.idle)));
        lane.extend(std::iter::repeat_n('|', to_cols(switch_cycles).max(1)));
        lane.extend(std::iter::repeat_n('C', to_cols(c.work).max(1)));
        lane.extend(std::iter::repeat_n('.', to_cols(c.idle)));
        lane.extend(std::iter::repeat_n('|', to_cols(switch_cycles).max(1)));
    }
    format!(
        "-- PREM interval timeline (first {} of {} intervals) --\nGPU {}\n\
         legend: M=memory phase  C=compute phase  .=MSG idle  |=token exchange\n",
        max_intervals.min(run.intervals),
        run.intervals,
        lane
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::llc_request;
    use prem_gpusim::Scenario;
    use prem_kernels::Bicg;
    use prem_memsim::KIB;

    #[test]
    fn timeline_renders_phases_and_idling() {
        let k = Bicg::new(128, 128);
        let run = llc_request(&k, 32 * KIB, 8, 1, Scenario::Isolation)
            .execute()
            .prem();
        let s = timeline(&run, &SyncConfig::tx1(), 1.0, 4, 0.5);
        assert!(s.contains('M'));
        assert!(s.contains('C'));
        assert!(s.contains('|'));
        // Small intervals idle up to the MSG.
        assert!(s.contains('.'));
    }
}
