//! Property tests on the PREM executor's accounting invariants.

use proptest::prelude::*;

use prem_core::{run_baseline, run_prem, CAccess, IntervalSpec, NoiseModel, PremConfig};
use prem_gpusim::{PlatformConfig, Scenario};
use prem_memsim::LineAddr;

/// Random (but coverage-correct) interval sets: each interval stages a
/// random slice of a line range and touches a random subset of it.
fn intervals() -> impl Strategy<Value = Vec<IntervalSpec>> {
    prop::collection::vec((1u64..2000, 1usize..200, any::<u64>()), 1..8).prop_map(|descr| {
        descr
            .into_iter()
            .map(|(base, len, pick)| {
                let lines: Vec<LineAddr> = (0..len as u64)
                    .map(|i| LineAddr::new(base * 16 + i))
                    .collect();
                let accesses: Vec<CAccess> = lines
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| pick >> (i % 64) & 1 == 1 || *i == 0)
                    .map(|(i, &l)| {
                        if i % 5 == 0 {
                            CAccess::write(l)
                        } else {
                            CAccess::read(l)
                        }
                    })
                    .collect();
                IntervalSpec::new(lines, accesses, (len * 3) as u64)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Breakdown components always sum to the makespan; idle is never
    /// negative; the work totals are the in-order sums of the recorded
    /// per-interval work, one pair per interval.
    #[test]
    fn accounting_invariants(ivs in intervals(), seed in any::<u64>()) {
        let mut p = PlatformConfig::tx1().build();
        let cfg = PremConfig::llc_tamed().with_seed(seed);
        let run = run_prem(&mut p, &ivs, &cfg, Scenario::Isolation).unwrap();
        let b = &run.breakdown;
        prop_assert!((b.m_work + b.c_work + b.idle + b.sync - run.makespan_cycles).abs() < 1e-6);
        prop_assert!(b.idle >= 0.0);
        let m_sum = run.interval_work.iter().fold(0.0, |acc, &(m, _)| acc + m);
        let c_sum = run.interval_work.iter().fold(0.0, |acc, &(_, c)| acc + c);
        prop_assert_eq!(b.m_work.to_bits(), m_sum.to_bits());
        prop_assert_eq!(b.c_work.to_bits(), c_sum.to_bits());
        prop_assert_eq!(run.interval_work.len(), ivs.len());
    }

    /// Isolation runs never violate their own budgets, and the envelope
    /// always covers the measured makespan.
    #[test]
    fn envelope_covers_isolated_run(ivs in intervals(), seed in any::<u64>()) {
        let mut p = PlatformConfig::tx1().build();
        let cfg = PremConfig::llc_tamed().with_seed(seed);
        let run = run_prem(&mut p, &ivs, &cfg, Scenario::Isolation).unwrap();
        prop_assert_eq!(run.budget_violation_cycles, 0.0);
        prop_assert!(run.makespan_cycles <= run.budget_envelope_cycles + 1e-6);
    }

    /// Interference never shortens a PREM schedule or a baseline.
    #[test]
    fn interference_monotone(ivs in intervals(), seed in any::<u64>()) {
        let mut p = PlatformConfig::tx1().build();
        let cfg = PremConfig::llc_tamed().with_seed(seed).with_noise(NoiseModel::tx1());
        let iso = run_prem(&mut p, &ivs, &cfg, Scenario::Isolation).unwrap();
        let intf = run_prem(&mut p, &ivs, &cfg, Scenario::Interference).unwrap();
        prop_assert!(intf.makespan_cycles >= iso.makespan_cycles - 1e-6);

        let b_iso = run_baseline(&mut p, &ivs, seed, Scenario::Isolation, NoiseModel::tx1()).unwrap();
        let b_intf =
            run_baseline(&mut p, &ivs, seed, Scenario::Interference, NoiseModel::tx1()).unwrap();
        prop_assert!(b_intf.cycles >= b_iso.cycles - 1e-6);
    }

    /// CPMR is a ratio in [0, 1] and zero when nothing misses in C.
    #[test]
    fn cpmr_is_a_ratio(ivs in intervals(), seed in any::<u64>()) {
        let mut p = PlatformConfig::tx1().build();
        let run = run_prem(&mut p, &ivs, &PremConfig::llc_tamed().with_seed(seed),
                           Scenario::Isolation).unwrap();
        prop_assert!((0.0..=1.0).contains(&run.cpmr));
    }

    /// The whole executor is deterministic in (intervals, seed).
    #[test]
    fn executor_deterministic(ivs in intervals(), seed in any::<u64>()) {
        let mut p = PlatformConfig::tx1().build();
        let cfg = PremConfig::llc_tamed().with_seed(seed);
        let a = run_prem(&mut p, &ivs, &cfg, Scenario::Isolation).unwrap();
        let b = run_prem(&mut p, &ivs, &cfg, Scenario::Isolation).unwrap();
        prop_assert_eq!(a, b);
    }
}
