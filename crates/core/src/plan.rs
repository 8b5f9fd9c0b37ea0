//! The `RunRequest → run_prem / run_baseline` bridge.
//!
//! The run-plan layer (`prem-harness::plan`) canonicalizes every simulator
//! invocation in the workspace into a request; this module is the single
//! place such a request becomes an actual execution. [`RunWork`] names the
//! execution modes consumers use — LLC-PREM with a fixed prefetch
//! repetition or with adaptive until-resident prefetching, SPM-PREM and
//! the unprotected baseline — [`RunWork::prem_config`] derives the one
//! canonical [`PremConfig`] per mode, and [`execute_run`] runs a resolved
//! request on a freshly built platform.
//!
//! Keeping the mode → configuration mapping here (rather than in each
//! consumer) is what makes the run-plan cache sound: two layers that
//! *mean* the same run cannot accidentally construct different
//! `PremConfig`s for it.

use prem_gpusim::{ExecError, PlatformConfig, Scenario};
use prem_memsim::NullSink;

use crate::exec::{profile_phases, run_baseline, run_prem_traced, NoiseModel, PremConfig};
use crate::interval::IntervalSpec;
use crate::local_store::{LocalStore, PrefetchStrategy};
use crate::{BaselineRun, PremRun};

/// Upper bound on the M-phase prefetch rounds of
/// [`RunWork::PremLlcUntilResident`].
pub const UNTIL_RESIDENT_MAX_ROUNDS: u32 = 16;

/// What a run request executes once its platform is resolved.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RunWork {
    /// LLC-PREM with `r` prefetch repetitions — the paper's tamed
    /// configuration ([`PremConfig::llc_tamed`] with `Repeated { r }`).
    PremLlc {
        /// Prefetch repetition factor.
        r: u32,
    },
    /// LLC-PREM with adaptive prefetching: M-phase rounds repeat until one
    /// misses nothing, up to [`UNTIL_RESIDENT_MAX_ROUNDS`]
    /// ([`PremConfig::llc_tamed`] with `UntilResident`). Never
    /// replay-eligible: how many rounds run depends on the LLC policy and
    /// seed.
    PremLlcUntilResident,
    /// SPM-PREM, the HePREM-like state of the art ([`PremConfig::spm`]).
    PremSpm,
    /// The unprotected baseline (no phases, no staging, no protection).
    Baseline,
}

impl RunWork {
    /// Short stable name used in canonical request keys (`llc-r8`,
    /// `llc-until16`, `spm`, `base`). Part of every cached fingerprint —
    /// renaming a mode invalidates all published plans, so name modes once.
    pub fn key(&self) -> String {
        match self {
            RunWork::PremLlc { r } => format!("llc-r{r}"),
            RunWork::PremLlcUntilResident => format!("llc-until{UNTIL_RESIDENT_MAX_ROUNDS}"),
            RunWork::PremSpm => "spm".into(),
            RunWork::Baseline => "base".into(),
        }
    }

    /// The canonical [`PremConfig`] this mode executes under (`None` for
    /// the baseline, which takes seed and noise directly). This is the
    /// single source of the experiment configurations: every request of
    /// the plan layer, and so every figure, ablation and matrix cell,
    /// executes under the config derived here.
    pub fn prem_config(&self, seed: u64, noise: NoiseModel) -> Option<PremConfig> {
        let llc = |prefetch| PremConfig {
            store: LocalStore::Llc { prefetch },
            ..PremConfig::llc_tamed()
        };
        let cfg = match *self {
            RunWork::PremLlc { r } => llc(PrefetchStrategy::Repeated { r }),
            RunWork::PremLlcUntilResident => llc(PrefetchStrategy::UntilResident {
                max_rounds: UNTIL_RESIDENT_MAX_ROUNDS,
            }),
            RunWork::PremSpm => PremConfig::spm(),
            RunWork::Baseline => return None,
        };
        Some(cfg.with_seed(seed).with_noise(noise))
    }
}

/// Outcome of one executed run request: the PREM result or the baseline
/// result, depending on the request's [`RunWork`].
#[derive(Clone, Debug, PartialEq)]
pub enum RunOutput {
    /// A PREM schedule execution (every [`RunWork`] but the baseline).
    Prem(PremRun),
    /// An unprotected baseline execution ([`RunWork::Baseline`]).
    Baseline(BaselineRun),
}

impl RunOutput {
    /// Unwraps a PREM result.
    ///
    /// # Panics
    ///
    /// Panics if the output is a baseline run — requesting PREM output for
    /// a baseline request is a plan-construction bug, not a runtime
    /// condition.
    pub fn prem(self) -> PremRun {
        match self {
            RunOutput::Prem(run) => run,
            RunOutput::Baseline(_) => panic!("requested PREM output of a baseline run"),
        }
    }

    /// Unwraps a baseline result.
    ///
    /// # Panics
    ///
    /// Panics if the output is a PREM run (see [`RunOutput::prem`]).
    pub fn baseline(self) -> BaselineRun {
        match self {
            RunOutput::Baseline(run) => run,
            RunOutput::Prem(_) => panic!("requested baseline output of a PREM run"),
        }
    }
}

/// What [`execute_run`] returns.
#[derive(Debug)]
pub struct Executed {
    /// The run's output.
    pub output: RunOutput,
    /// The `(m_wcet, c_wcet)` the run's budgets derive from — the memoized
    /// pair when one was passed in, otherwise what [`profile_run`] would
    /// report — and `None` for baseline work, which never profiles.
    pub wcets: Option<(f64, f64)>,
}

/// Executes one fully-resolved run request live: builds `platform_cfg`,
/// derives the mode's canonical [`PremConfig`] and dispatches to
/// [`run_prem_traced`] or [`run_baseline`] — the one bridge every live
/// plan-layer execution goes through.
///
/// `platform_cfg` must already carry every per-request override (LLC
/// policy, LLC seed, co-runner mix) — resolution is the plan layer's job;
/// this bridge only executes. `profiled` is a memoized `(m_wcet, c_wcet)`
/// from [`profile_run`] (for this request or any scenario sibling):
/// `Some` skips the profiling pass, `None` profiles inline or fused into
/// the timed run. The output is bit-identical either way; baseline work
/// ignores it.
///
/// # Errors
///
/// Exactly the [`run_prem_traced`] / [`run_baseline`] error conditions
/// ([`ExecError::Spm`] for over-capacity SPM footprints).
pub fn execute_run(
    platform_cfg: &PlatformConfig,
    intervals: &[IntervalSpec],
    work: RunWork,
    seed: u64,
    scenario: Scenario,
    noise: NoiseModel,
    profiled: Option<(f64, f64)>,
) -> Result<Executed, ExecError> {
    let mut platform = platform_cfg.build();
    let (output, wcets) = match work.prem_config(seed, noise) {
        Some(cfg) => {
            let (run, wcets) = run_prem_traced(
                &mut platform,
                intervals,
                &cfg,
                scenario,
                profiled,
                &mut NullSink,
            )?;
            (RunOutput::Prem(run), Some(wcets))
        }
        None => {
            let run = run_baseline(&mut platform, intervals, seed, scenario, noise)?;
            (RunOutput::Baseline(run), None)
        }
    };
    Ok(Executed { output, wcets })
}

/// Runs only the isolated profiling pass of a request, returning its
/// `(m_wcet, c_wcet)` — the memoizable half of [`execute_run`].
///
/// Returns `Ok(None)` for [`RunWork::Baseline`] (the baseline never
/// profiles). The result is valid for *every* scenario sibling of the
/// request (profiling is scenario-independent — see [`profile_phases`]);
/// feed it back as [`execute_run`]'s `profiled` under any scenario and
/// the output is bit-identical to a self-profiling run.
///
/// # Errors
///
/// Exactly the [`profile_phases`] error conditions.
pub fn profile_run(
    platform_cfg: &PlatformConfig,
    intervals: &[IntervalSpec],
    work: RunWork,
    seed: u64,
    noise: NoiseModel,
) -> Result<Option<(f64, f64)>, ExecError> {
    match work.prem_config(seed, noise) {
        Some(cfg) => {
            let mut platform = platform_cfg.build();
            profile_phases(&mut platform, intervals, &cfg).map(Some)
        }
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_prem;
    use crate::interval::CAccess;
    use crate::whatif::CompiledRun;
    use prem_memsim::LineAddr;

    fn toy_intervals() -> Vec<IntervalSpec> {
        (0..4)
            .map(|i| {
                let lines: Vec<_> = (0..64u64).map(|j| LineAddr::new(i * 64 + j)).collect();
                let accesses = lines.iter().map(|&l| CAccess::read(l)).collect();
                IntervalSpec::new(lines, accesses, 128)
            })
            .collect()
    }

    #[test]
    fn work_keys_are_stable() {
        // These strings are part of every cached request fingerprint.
        assert_eq!(RunWork::PremLlc { r: 8 }.key(), "llc-r8");
        assert_eq!(RunWork::PremLlcUntilResident.key(), "llc-until16");
        assert_eq!(RunWork::PremSpm.key(), "spm");
        assert_eq!(RunWork::Baseline.key(), "base");
    }

    #[test]
    fn prem_config_matches_the_hand_built_experiment_configs() {
        let noise = NoiseModel::tx1();
        let llc = RunWork::PremLlc { r: 8 }.prem_config(11, noise).unwrap();
        let by_hand = PremConfig {
            store: LocalStore::Llc {
                prefetch: PrefetchStrategy::Repeated { r: 8 },
            },
            ..PremConfig::llc_tamed()
        }
        .with_seed(11)
        .with_noise(noise);
        assert_eq!(llc, by_hand);
        let adaptive = RunWork::PremLlcUntilResident
            .prem_config(11, noise)
            .unwrap();
        let by_hand = PremConfig {
            store: LocalStore::Llc {
                prefetch: PrefetchStrategy::UntilResident { max_rounds: 16 },
            },
            ..PremConfig::llc_tamed()
        }
        .with_seed(11)
        .with_noise(noise);
        assert_eq!(adaptive, by_hand);
        let spm = RunWork::PremSpm.prem_config(11, noise).unwrap();
        assert_eq!(spm, PremConfig::spm().with_seed(11).with_noise(noise));
        assert!(RunWork::Baseline.prem_config(11, noise).is_none());
    }

    #[test]
    fn bridge_reproduces_direct_execution() {
        let cfg = PlatformConfig::tx1().llc_seed(7);
        let ivs = toy_intervals();
        let bridged = execute_run(
            &cfg,
            &ivs,
            RunWork::PremLlc { r: 8 },
            7,
            Scenario::Isolation,
            NoiseModel::tx1(),
            None,
        )
        .unwrap()
        .output
        .prem();
        let mut platform = cfg.build();
        let direct = run_prem(
            &mut platform,
            &ivs,
            &RunWork::PremLlc { r: 8 }
                .prem_config(7, NoiseModel::tx1())
                .unwrap(),
            Scenario::Isolation,
        )
        .unwrap();
        assert_eq!(bridged, direct);

        let base = execute_run(
            &cfg,
            &ivs,
            RunWork::Baseline,
            7,
            Scenario::Isolation,
            NoiseModel::off(),
            None,
        )
        .unwrap()
        .output
        .baseline();
        let mut platform = cfg.build();
        let direct = run_baseline(
            &mut platform,
            &ivs,
            7,
            Scenario::Isolation,
            NoiseModel::off(),
        )
        .unwrap();
        assert_eq!(base, direct);
    }

    #[test]
    #[should_panic(expected = "baseline output of a PREM run")]
    fn output_unwrap_mismatch_panics() {
        let cfg = PlatformConfig::tx1();
        let out = execute_run(
            &cfg,
            &toy_intervals(),
            RunWork::PremLlc { r: 1 },
            1,
            Scenario::Isolation,
            NoiseModel::off(),
            None,
        )
        .unwrap()
        .output;
        let _ = out.baseline();
    }

    /// Bit patterns of a WCET pair, so equality is exact.
    fn bits(wcets: Option<(f64, f64)>) -> Option<(u64, u64)> {
        wcets.map(|(m, c)| (m.to_bits(), c.to_bits()))
    }

    #[test]
    fn every_profile_source_and_derivation_is_the_same_run() {
        use prem_gpusim::CorunnerProfile;
        let ivs = toy_intervals();
        let noise = NoiseModel::tx1();
        let tx1 = PlatformConfig::tx1().llc_seed(7);
        let thrash = tx1
            .clone()
            .with_corunners(vec![CorunnerProfile::CacheThrash]);
        let bursty = tx1.clone().with_corunners(vec![CorunnerProfile::Bursty {
            duty: 0.5,
            period_cycles: 10_000.0,
        }]);
        // The two presets self-profile fused into the timed walk; the
        // polluting and the time-varying mix pay a separate pass.
        let scenarios = [
            (&tx1, Scenario::Isolation, true),
            (&tx1, Scenario::Interference, true),
            (&thrash, Scenario::Corunners, false),
            (&bursty, Scenario::Corunners, false),
        ];
        let works = [
            RunWork::PremLlc { r: 1 },
            RunWork::PremLlc { r: 8 },
            RunWork::PremLlcUntilResident,
            RunWork::PremSpm,
            RunWork::Baseline,
        ];
        for (cfg, scenario, fusable) in scenarios {
            for work in works {
                let ctx = format!("{work:?}/{scenario:?}/{:?}", cfg.cpu);
                let run =
                    |profiled| execute_run(cfg, &ivs, work, 7, scenario, noise, profiled).unwrap();
                let plain = run(None);
                let profiled = profile_run(cfg, &ivs, work, 7, noise).unwrap();
                assert_eq!(bits(plain.wcets), bits(profiled), "{ctx}: wcets");
                assert_eq!(profiled.is_none(), work == RunWork::Baseline, "{ctx}");
                let memoized = run(profiled);
                assert_eq!(memoized.output.encode(), plain.output.encode(), "{ctx}");
                assert_eq!(bits(memoized.wcets), bits(plain.wcets), "{ctx}");

                // Every fixed-stream mode under a fusable mix derives: one
                // compile, one walk and one price give the live run.
                let eligible = crate::replay_eligible(cfg, work, scenario);
                let adaptive = work == RunWork::PremLlcUntilResident;
                assert_eq!(eligible, fusable && !adaptive, "{ctx}");
                if eligible {
                    let compiled = CompiledRun::compile(cfg, &ivs, work, noise).unwrap();
                    let derived = compiled.price(&compiled.walk(cfg, 7), cfg, 7, scenario);
                    assert_eq!(derived.output.encode(), plain.output.encode(), "{ctx}");
                    assert_eq!(bits(derived.wcets), bits(plain.wcets), "{ctx}");
                }
            }
        }
    }
}
