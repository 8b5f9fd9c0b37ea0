//! Integration tests asserting the paper's headline claims end-to-end,
//! on reduced problem sizes (full-size artifacts come from the `figures`
//! binary; see EXPERIMENTS.md).

use prem_gpu::core::analytic;
use prem_gpu::gpusim::Scenario;
use prem_gpu::kernels::{suite_small, Bicg};
use prem_gpu::memsim::KIB;
use prem_gpu::report::fig4::fig4_with_sweeps;
use prem_gpu::report::fig6::fig6;
use prem_gpu::report::fig7::fig7_with_sweep;
use prem_gpu::report::{base_request, llc_request, spm_request, Harness};

fn bicg() -> Bicg {
    Bicg::new(512, 512)
}

/// §IV: prefetch repetition monotonically (statistically) drives the CPMR
/// towards near-zero for intervals that fit the good ways.
#[test]
fn cpmr_decreases_with_repetition() {
    let kernel = bicg();
    let grid = fig4_with_sweeps(&kernel, &Harness::quick(), &[1, 2, 4, 8], &[96, 160]);
    for t in [96usize, 160] {
        let series: Vec<f64> = [1u32, 2, 4, 8]
            .iter()
            .map(|&r| grid.at(r, t).unwrap())
            .collect();
        for w in series.windows(2) {
            assert!(
                w[1] <= w[0] + 0.02,
                "CPMR not decreasing at T={t}K: {series:?}"
            );
        }
        let tamed = grid.at(8, t).unwrap();
        assert!(tamed < 0.10, "CPMR at R=8, T={t}K is {tamed}");
    }
}

/// §IV: the good-way capacity knee — CPMR grows sharply past 192 KiB.
/// Needs a data set spanning enough intervals for steady-state churn, so a
/// paper-scale matrix is used.
#[test]
fn cpmr_knee_at_good_way_capacity() {
    let kernel = Bicg::new(1024, 1024);
    let grid = fig4_with_sweeps(&kernel, &Harness::quick(), &[8], &[128, 192, 256]);
    let well_within = grid.at(8, 128).unwrap();
    let at_edge = grid.at(8, 192).unwrap();
    let beyond = grid.at(8, 256).unwrap();
    // Rising through the good-way capacity edge, sharply beyond it.
    assert!(at_edge >= well_within - 0.01, "{well_within} -> {at_edge}");
    assert!(
        beyond > 1.3 * well_within,
        "no knee: {well_within} at 128K vs {beyond} at 256K"
    );
}

/// The analytic coin-toss model matches the paper's R = 8 choice.
#[test]
fn coin_toss_model_picks_r8() {
    assert_eq!(analytic::repetitions_for_residency(0.005), 8);
    assert!(analytic::bad_way_residency(8) < 0.005);
}

/// §III/V: the SPM is indifferent to interference; the baseline is not.
#[test]
fn spm_indifferent_baseline_exposed() {
    let kernel = bicg();
    let spm_iso = spm_request(&kernel, 96 * KIB, 11, Scenario::Isolation)
        .execute()
        .prem();
    let spm_intf = spm_request(&kernel, 96 * KIB, 11, Scenario::Interference)
        .execute()
        .prem();
    let rel = spm_intf.makespan_cycles / spm_iso.makespan_cycles;
    assert!(rel < 1.01, "SPM sensitivity {rel}");

    let base_iso = base_request(&kernel, 11, Scenario::Isolation)
        .execute()
        .baseline();
    let base_intf = base_request(&kernel, 11, Scenario::Interference)
        .execute()
        .baseline();
    let rel = base_intf.cycles / base_iso.cycles;
    assert!(rel > 2.0, "baseline sensitivity only {rel}");
}

/// §V-A: the tamed LLC outperforms the SPM state of the art (suite-wide).
#[test]
fn llc_beats_spm() {
    let suite = suite_small();
    let f6 = fig6(&suite, &Harness::quick(), 160, 8);
    assert!(
        f6.avg_spm_over_llc() > 1.3,
        "SPM/LLC only {:.2}",
        f6.avg_spm_over_llc()
    );
}

/// §V-A: under interference the tamed LLC beats the unprotected baseline.
/// The claim holds at paper scale (small kernels pay the MSG floor
/// disproportionately), so a full-size bicg is used.
#[test]
fn llc_beats_contended_baseline_at_scale() {
    let kernel = Bicg::new(1024, 1024);
    let llc = llc_request(&kernel, 160 * KIB, 8, 11, Scenario::Interference)
        .execute()
        .prem();
    let base = base_request(&kernel, 11, Scenario::Interference)
        .execute()
        .baseline();
    assert!(
        base.cycles > llc.makespan_cycles,
        "baseline {:.3e} vs llc {:.3e}",
        base.cycles,
        llc.makespan_cycles
    );
}

/// §V-B: sensitivity grows with T but stays far below the baseline's.
#[test]
fn sensitivity_ordering() {
    let suite = suite_small();
    let f7 = fig7_with_sweep(&suite, &Harness::quick(), 8, &[96, 160, 192]);
    let s96 = f7.at(96).unwrap();
    let s192 = f7.at(192).unwrap();
    assert!(s96 <= s192 + 0.01, "{s96} vs {s192}");
    assert!(f7.baseline_sensitivity > 1.0);
    assert!(s192 < f7.baseline_sensitivity / 4.0);
}

/// The naive LLC (R = 1) degrades under interference where the tamed LLC
/// (R = 8) holds — the core taming claim of Figs 3 vs 5.
#[test]
fn taming_restores_predictability() {
    let kernel = bicg();
    let t = 160 * KIB;
    let sens = |r: u32| {
        let iso = llc_request(&kernel, t, r, 11, Scenario::Isolation)
            .execute()
            .prem()
            .makespan_cycles;
        let intf = llc_request(&kernel, t, r, 11, Scenario::Interference)
            .execute()
            .prem()
            .makespan_cycles;
        intf / iso - 1.0
    };
    let naive = sens(1);
    let tamed = sens(8);
    assert!(
        tamed < naive,
        "taming did not reduce sensitivity: R=1 {naive}, R=8 {tamed}"
    );
}

/// Coarser intervals amortize synchronization: idle+sync share shrinks as
/// T grows (the case *for* caches, §III).
#[test]
fn overhead_shrinks_with_interval_size() {
    let kernel = bicg();
    let share = |t_kib: usize| {
        let run = llc_request(&kernel, t_kib * KIB, 8, 11, Scenario::Isolation)
            .execute()
            .prem();
        (run.breakdown.idle + run.breakdown.sync) / run.makespan_cycles
    };
    let small = share(32);
    let large = share(160);
    assert!(large < small, "overhead share {small} -> {large}");
}

/// Every kernel of the suite admits both SPM- and LLC-sized tilings, and
/// passes its functional verification at both.
#[test]
fn suite_tiles_and_verifies_at_evaluation_sizes() {
    for k in suite_small() {
        for t in [96 * KIB, 160 * KIB] {
            k.verify(t)
                .unwrap_or_else(|e| panic!("{} at {}K: {e}", k.name(), t / KIB));
        }
    }
}
