//! Diagnostic scratchpad: per-kernel PREM run internals at one configuration.
//!
//! Every kernel's runs execute as one plan on the work-claiming pool; the
//! lines print from the executor in suite order.

use prem_gpusim::Scenario;
use prem_harness::{default_workers, PlanExecutor, RunRequest, RunSource};
use prem_kernels::{standard_suite, Kernel};
use prem_memsim::KIB;
use prem_report::{base_request, llc_request, spm_request};

fn main() {
    let t = 160 * KIB;
    let suite = standard_suite();
    // Per kernel: tamed LLC-PREM in isolation and under interference, SPM
    // at 96 KiB, and the baseline.
    let plan: Vec<RunRequest<'_>> = suite
        .iter()
        .flat_map(|k| {
            let k: &dyn Kernel = k.as_ref();
            [
                llc_request(k, t, 8, 11, Scenario::Isolation),
                llc_request(k, t, 8, 11, Scenario::Interference),
                spm_request(k, 96 * KIB, 11, Scenario::Isolation),
                base_request(k, 11, Scenario::Isolation),
            ]
        })
        .collect();
    let executor = PlanExecutor::new();
    executor.execute(&plan, default_workers());
    for (k, reqs) in suite.iter().zip(plan.chunks(4)) {
        let [iso, intf, spm] = [0, 1, 2].map(|i| executor.output(&reqs[i]).prem());
        let base = executor.output(&reqs[3]).baseline();
        println!(
            "{:<8} ivs={:<4} m/iv={:>6.1}us c/iv={:>6.1}us idle/iv={:>6.1}us cpmr={:>5.2}% \
             intf/iso={:.3} viol={:>8.0} | spm: ivs={:<4} m/iv={:>6.1}us c/iv={:>6.1}us | base={:.2e}",
            k.name(),
            iso.intervals,
            iso.breakdown.m_work / iso.intervals as f64 / 1000.0,
            iso.breakdown.c_work / iso.intervals as f64 / 1000.0,
            iso.breakdown.idle / iso.intervals as f64 / 1000.0,
            iso.cpmr * 100.0,
            intf.makespan_cycles / iso.makespan_cycles,
            intf.budget_violation_cycles,
            spm.intervals,
            spm.breakdown.m_work / spm.intervals as f64 / 1000.0,
            spm.breakdown.c_work / spm.intervals as f64 / 1000.0,
            base.cycles,
        );
    }
}
