//! Event-driven CPU co-runner interference engine.
//!
//! The paper's evaluation models interference as "the membomb is on or
//! off" — one scalar. Real co-runner mixes are richer: CIAO (Zhang et
//! al.) shows cache/DRAM interference between concurrent clients is
//! phase-dependent and workload-shaped, and "Observing the Invisible"
//! (Tarapore et al.) argues for inspecting cache state under live
//! contention. This module therefore models CPU co-runners as **actors**
//! with memory-access profiles ([`CorunnerProfile`]): each actor issues
//! demand against the shared DRAM bus, time-varying for bursty profiles,
//! and cache-thrashing actors additionally pollute the shared LLC through
//! the ordinary replacement machinery.
//!
//! The interference a GPU phase feels is **derived from the concurrent
//! demand of the mix** ([`InterferenceEngine::contention_at`]), not from a
//! fixed multiplier: the aggregate demand (in saturating-stream units) is
//! handed to [`prem_memsim::Contention`], whose pressure normalization
//! guarantees that the paper's preset — three membomb cores — reproduces
//! the calibrated TX1 degradation bit-for-bit.
//!
//! Determinism: the engine owns a seeded RNG used once, at construction,
//! to draw burst phase offsets; pollution walks fixed address regions with
//! per-actor cursors. Two engines built from the same `(mix, seed)` pair
//! behave identically, and appending an actor never perturbs the offsets
//! of the actors before it.

use prem_memsim::rng::Rng;
use prem_memsim::{AccessKind, Cache, Contention, LineAddr, Phase};

/// Memory-access profile of one CPU co-runner actor.
///
/// Demand is expressed in saturating-stream units: 1.0 means the actor
/// alone would keep the DRAM controller busy back-to-back.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum CorunnerProfile {
    /// The paper's memory bomb: pointer-chasing over a DRAM-sized buffer,
    /// fully saturating (demand 1.0), uncached — no LLC footprint.
    Membomb,
    /// A STREAM-like kernel: bandwidth-heavy but with arithmetic between
    /// loads (demand 0.6), streaming through the LLC without reuse.
    Stream,
    /// A working set slightly larger than the shared LLC, walked
    /// repeatedly: moderate bus demand (0.35) but continuous LLC
    /// pollution through the replacement machinery.
    CacheThrash,
    /// On/off memory bomb: saturating for `duty × period_cycles`, idle
    /// for the rest of each period. The burst phase offset is drawn per
    /// actor from the engine seed.
    Bursty {
        /// Fraction of each period spent bursting, in `[0, 1]`.
        duty: f64,
        /// Burst period in GPU cycles (must be positive).
        period_cycles: f64,
    },
    /// A compute-bound co-runner: occupies a core, touches no memory.
    Idle,
}

/// LLC lines a cache-thrashing actor touches per 1000 cycles of window.
const THRASH_LINES_PER_KCYCLE: f64 = 8.0;

/// Lines in one thrasher's working set (512 KiB at 128-byte lines —
/// larger than any preset LLC, so the walk never settles).
const THRASH_WORKING_SET_LINES: u64 = 4096;

/// Base line address of co-runner working sets: far above both kernel
/// data (0x1000_0000) and the unmanaged-noise region (0x0F00_0000).
const THRASH_BASE_LINE: u64 = 0x3000_0000;

/// Line-address stride between two thrashers' working sets.
const THRASH_REGION_STRIDE: u64 = 0x10_0000;

/// Schedule times (`cycle + offset`, in cycles) below which a contention
/// window is exact: at these magnitudes every rounding in the window
/// arithmetic and in [`InterferenceEngine::contention_at`] is below
/// 2^-11 cycles, far inside the one cycle a window stops short of an
/// edge. At and beyond it (about 18 minutes at 1 GHz) windows are empty.
const WINDOW_LIMIT: f64 = (1u64 << 40) as f64;

impl CorunnerProfile {
    /// Short stable name used in tables, CSV cells and seed keys.
    pub fn name(&self) -> &'static str {
        match self {
            CorunnerProfile::Membomb => "membomb",
            CorunnerProfile::Stream => "stream",
            CorunnerProfile::CacheThrash => "cache_thrash",
            CorunnerProfile::Bursty { .. } => "bursty",
            CorunnerProfile::Idle => "idle",
        }
    }

    /// Demand while actively issuing (saturating-stream units).
    pub fn peak_demand(&self) -> f64 {
        match self {
            CorunnerProfile::Membomb => 1.0,
            CorunnerProfile::Stream => 0.6,
            CorunnerProfile::CacheThrash => 0.35,
            CorunnerProfile::Bursty { .. } => 1.0,
            CorunnerProfile::Idle => 0.0,
        }
    }

    /// Long-run average demand (duty-weighted for bursty profiles).
    pub fn mean_demand(&self) -> f64 {
        match self {
            CorunnerProfile::Bursty { duty, .. } => duty.clamp(0.0, 1.0),
            _ => self.peak_demand(),
        }
    }

    /// Whether the profile's demand varies over time.
    pub fn is_time_varying(&self) -> bool {
        match self {
            CorunnerProfile::Bursty { duty, .. } => {
                let duty = duty.clamp(0.0, 1.0);
                duty > 0.0 && duty < 1.0
            }
            _ => false,
        }
    }

    /// Whether the profile pollutes the shared LLC.
    pub fn pollutes_llc(&self) -> bool {
        matches!(self, CorunnerProfile::CacheThrash)
    }

    /// A bursty actor's place in its period at `cycle`, given its burst
    /// phase `offset`: `(phase, on, period)`, bursting while
    /// `phase < on`. `None` for the other profiles.
    fn burst_phase(&self, cycle: f64, offset: f64) -> Option<(f64, f64, f64)> {
        match *self {
            CorunnerProfile::Bursty {
                duty,
                period_cycles,
            } => Some((
                (cycle + offset).rem_euclid(period_cycles),
                duty.clamp(0.0, 1.0) * period_cycles,
                period_cycles,
            )),
            _ => None,
        }
    }

    /// Demand at `cycle`, given this actor's burst phase `offset`.
    fn demand_at(&self, cycle: f64, offset: f64) -> f64 {
        match self.burst_phase(cycle, offset) {
            Some((phase, on, _)) if phase < on => 1.0,
            Some(_) => 0.0,
            None => self.peak_demand(),
        }
    }

    /// How many cycles past `cycle` this actor's demand provably stays
    /// what it is at `cycle`: one cycle short of its next on/off edge,
    /// 0 near an edge or outside `[0, WINDOW_LIMIT)`, `None` for
    /// constant demand.
    ///
    /// Exactness: `demand_at` reads `phase = fmod(cycle + offset,
    /// period)`, and `fmod` is exact, so the actor keeps its state for
    /// every `t` whose rounded `t + offset` stays below the edge. The
    /// window's own roundings and that of `t + offset` are each below
    /// 2^-11 cycles under the limit, and the window ends a whole cycle
    /// early.
    fn steady_for(&self, cycle: f64, offset: f64) -> Option<f64> {
        if !self.is_time_varying() {
            return None;
        }
        if !(0.0..WINDOW_LIMIT).contains(&(cycle + offset)) {
            return Some(0.0);
        }
        let (phase, on, period) = self.burst_phase(cycle, offset)?;
        let edge = if phase < on {
            on - phase
        } else {
            period - phase
        };
        Some((edge.min(WINDOW_LIMIT) - 1.0).max(0.0))
    }

    /// Validates profile parameters.
    ///
    /// # Errors
    ///
    /// Returns a message for a non-positive or non-finite burst period.
    pub fn validate(&self) -> Result<(), String> {
        if let CorunnerProfile::Bursty { period_cycles, .. } = self {
            if !period_cycles.is_finite() || *period_cycles <= 0.0 {
                return Err(format!(
                    "bursty period must be positive, got {period_cycles}"
                ));
            }
        }
        Ok(())
    }
}

/// Per-actor mutable state of a cache-thrashing co-runner.
#[derive(Clone, Debug, Default)]
struct ThrashState {
    /// Next position in the actor's working-set walk.
    cursor: u64,
    /// Fractional accesses carried between pollution windows.
    carry: f64,
}

/// The co-runner mix as a running simulation actor set.
///
/// Built per execution from `(mix, seed)`; owns all mutable co-runner
/// state so concurrent cells of a scenario matrix never share anything.
#[derive(Clone, Debug)]
pub struct InterferenceEngine {
    profiles: Vec<CorunnerProfile>,
    /// Burst phase offset per actor (0 for non-bursty profiles).
    offsets: Vec<f64>,
    /// Thrash walk state per actor (empty state for non-thrashers).
    thrash: Vec<ThrashState>,
    /// Total demand when no profile is time-varying.
    static_contention: Option<Contention>,
    /// Total LLC lines injected so far.
    polluted_lines: u64,
}

impl InterferenceEngine {
    /// Builds the engine for `profiles`, drawing burst offsets from
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid profile (see [`CorunnerProfile::validate`]);
    /// mixes are static experiment inputs, so failing fast beats
    /// threading errors through every run.
    pub fn new(profiles: &[CorunnerProfile], seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed ^ 0x1f3a_9d4c_c0de_b0b5);
        let mut offsets = Vec::with_capacity(profiles.len());
        for p in profiles {
            if let Err(e) = p.validate() {
                panic!("invalid co-runner profile: {e}");
            }
            // Only bursty actors draw, so appending an actor never
            // re-phases the ones before it.
            offsets.push(match p {
                CorunnerProfile::Bursty { period_cycles, .. } if p.is_time_varying() => {
                    rng.next_f64() * period_cycles
                }
                _ => 0.0,
            });
        }
        let static_contention = if profiles.iter().any(|p| p.is_time_varying()) {
            None
        } else {
            Some(Contention::from_demand(
                profiles.iter().map(|p| p.mean_demand()).sum(),
            ))
        };
        InterferenceEngine {
            thrash: vec![ThrashState::default(); profiles.len()],
            profiles: profiles.to_vec(),
            offsets,
            static_contention,
            polluted_lines: 0,
        }
    }

    /// The profiles this engine simulates.
    pub fn profiles(&self) -> &[CorunnerProfile] {
        &self.profiles
    }

    /// Whether the mix produces any interference at all (bus demand or
    /// LLC pollution).
    pub fn is_idle(&self) -> bool {
        self.profiles
            .iter()
            .all(|p| p.mean_demand() == 0.0 && !p.pollutes_llc())
    }

    /// Whether any actor of the mix pollutes the LLC.
    pub fn has_polluters(&self) -> bool {
        self.profiles.iter().any(|p| p.pollutes_llc())
    }

    /// Aggregate co-runner demand at `cycle` (saturating-stream units).
    pub fn demand_at(&self, cycle: f64) -> f64 {
        self.profiles
            .iter()
            .zip(&self.offsets)
            .map(|(p, &off)| p.demand_at(cycle, off))
            .sum()
    }

    /// Bus contention felt by the victim at `cycle`.
    pub fn contention_at(&self, cycle: f64) -> Contention {
        Contention::from_demand(self.demand_at(cycle))
    }

    /// The contention at `cycle` ([`InterferenceEngine::contention_at`]),
    /// plus a cycle `until ≥ cycle` before which no actor toggles:
    /// `contention_at(t)` returns the same value for every `t` in
    /// `[cycle, until)`. Each bursty actor's window ends one cycle short
    /// of its next edge; the window is empty (`until == cycle`) near an
    /// edge and at or beyond 2^40 cycles, and unbounded for a mix without
    /// time-varying actors. Lets a per-op coster re-evaluate contention
    /// once per window instead of once per op.
    pub fn contention_until(&self, cycle: f64) -> (Contention, f64) {
        let until = self
            .profiles
            .iter()
            .zip(&self.offsets)
            .filter_map(|(p, &off)| p.steady_for(cycle, off))
            .fold(f64::INFINITY, |until, d| until.min(cycle + d));
        (self.contention_at(cycle), until)
    }

    /// The mix's constant contention, if no actor is time-varying. The
    /// presets resolve here: the empty mix to [`Contention::Isolated`],
    /// three membombs to exactly [`Contention::membomb`].
    pub fn static_contention(&self) -> Option<Contention> {
        self.static_contention
    }

    /// Long-run mean contention (duty-weighted) — used for bandwidth
    /// ledgers over windows much longer than any burst period.
    pub fn mean_contention(&self) -> Contention {
        Contention::from_demand(self.profiles.iter().map(|p| p.mean_demand()).sum())
    }

    /// Injects the LLC traffic the mix's cache-thrashing actors generate
    /// over a `window_cycles`-long concurrent window. Fractional accesses
    /// carry over, so many short windows pollute exactly as much as one
    /// long window. No-op for mixes without thrashers.
    pub fn pollute(&mut self, llc: &mut Cache, window_cycles: f64) {
        self.pollute_traced(llc, window_cycles, &mut prem_memsim::NullSink);
    }

    /// [`InterferenceEngine::pollute`] with instrumentation: every
    /// injected co-runner fill reports its outcome to `sink`, so captured
    /// traces carry the foreign traffic interleaved at the position it
    /// really hit the LLC. With [`prem_memsim::NullSink`] this is exactly
    /// [`InterferenceEngine::pollute`].
    pub fn pollute_traced<S: prem_memsim::TraceSink>(
        &mut self,
        llc: &mut Cache,
        window_cycles: f64,
        sink: &mut S,
    ) {
        if window_cycles <= 0.0 {
            return;
        }
        for (i, p) in self.profiles.iter().enumerate() {
            if !p.pollutes_llc() {
                continue;
            }
            let st = &mut self.thrash[i];
            let exact = st.carry + THRASH_LINES_PER_KCYCLE * window_cycles / 1000.0;
            let whole = exact.floor();
            st.carry = exact - whole;
            let base = THRASH_BASE_LINE + i as u64 * THRASH_REGION_STRIDE;
            for _ in 0..whole as u64 {
                let line = base + st.cursor % THRASH_WORKING_SET_LINES;
                st.cursor = st.cursor.wrapping_add(1);
                llc.access_traced(LineAddr::new(line), AccessKind::Read, Phase::Corunner, sink);
                self.polluted_lines += 1;
            }
        }
    }

    /// Total LLC lines injected by thrashers so far.
    pub fn polluted_lines(&self) -> u64 {
        self.polluted_lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prem_memsim::{CacheConfig, KIB};

    #[test]
    fn presets_resolve_to_the_calibration_points() {
        let iso = InterferenceEngine::new(&[], 1);
        assert_eq!(iso.static_contention(), Some(Contention::Isolated));
        assert!(iso.is_idle());

        let interference = InterferenceEngine::new(&[CorunnerProfile::Membomb; 3], 1);
        assert_eq!(
            interference.static_contention(),
            Some(Contention::membomb())
        );
    }

    #[test]
    fn demand_sums_over_actors() {
        let e = InterferenceEngine::new(
            &[
                CorunnerProfile::Membomb,
                CorunnerProfile::Stream,
                CorunnerProfile::Idle,
            ],
            7,
        );
        assert!((e.demand_at(0.0) - 1.6).abs() < 1e-12);
        assert_eq!(e.static_contention(), Some(Contention::from_demand(1.6)));
    }

    #[test]
    fn bursty_toggles_with_its_duty_cycle() {
        let p = CorunnerProfile::Bursty {
            duty: 0.25,
            period_cycles: 1000.0,
        };
        let e = InterferenceEngine::new(&[p], 42);
        assert!(e.static_contention().is_none());
        // Demand over one period averages out to the duty cycle.
        let samples = 4000;
        let on = (0..samples)
            .filter(|i| e.demand_at(*i as f64) > 0.0)
            .count();
        let duty = on as f64 / samples as f64;
        assert!((duty - 0.25).abs() < 0.05, "duty {duty}");
        // Degenerate duties are static.
        for duty in [0.0, 1.0] {
            let e = InterferenceEngine::new(
                &[CorunnerProfile::Bursty {
                    duty,
                    period_cycles: 1000.0,
                }],
                42,
            );
            assert_eq!(e.static_contention(), Some(Contention::from_demand(duty)));
        }
    }

    #[test]
    fn same_seed_same_behavior_and_appending_preserves_prefix() {
        let mix = [
            CorunnerProfile::Bursty {
                duty: 0.5,
                period_cycles: 512.0,
            },
            CorunnerProfile::Bursty {
                duty: 0.5,
                period_cycles: 512.0,
            },
        ];
        let a = InterferenceEngine::new(&mix, 9);
        let b = InterferenceEngine::new(&mix, 9);
        for t in 0..2048 {
            assert_eq!(a.demand_at(t as f64), b.demand_at(t as f64));
        }
        // Appending an actor must not re-phase the existing ones.
        let mut longer = mix.to_vec();
        longer.push(CorunnerProfile::Membomb);
        let c = InterferenceEngine::new(&longer, 9);
        for t in 0..2048 {
            assert_eq!(c.demand_at(t as f64), a.demand_at(t as f64) + 1.0);
        }
    }

    #[test]
    fn adding_an_actor_never_lowers_demand() {
        let base = vec![CorunnerProfile::Stream, CorunnerProfile::CacheThrash];
        let a = InterferenceEngine::new(&base, 3);
        for extra in [
            CorunnerProfile::Membomb,
            CorunnerProfile::Stream,
            CorunnerProfile::CacheThrash,
            CorunnerProfile::Idle,
            CorunnerProfile::Bursty {
                duty: 0.3,
                period_cycles: 700.0,
            },
        ] {
            let mut longer = base.clone();
            longer.push(extra);
            let b = InterferenceEngine::new(&longer, 3);
            for t in 0..4096 {
                let t = t as f64;
                assert!(b.demand_at(t) >= a.demand_at(t) - 1e-12);
            }
        }
    }

    #[test]
    fn thrashers_pollute_deterministically_and_membombs_do_not() {
        let cfg = CacheConfig::new(64 * KIB, 4, 128);
        let mut llc = Cache::new(cfg.clone());
        let mut e = InterferenceEngine::new(&[CorunnerProfile::Membomb; 3], 5);
        e.pollute(&mut llc, 1_000_000.0);
        assert_eq!(e.polluted_lines(), 0);
        assert_eq!(llc.stats().corunner.total(), 0);

        let mut e = InterferenceEngine::new(&[CorunnerProfile::CacheThrash; 2], 5);
        let mut llc2 = Cache::new(cfg);
        e.pollute(&mut llc2, 10_000.0);
        // 8 lines/kcycle × 10 kcycles × 2 actors.
        assert_eq!(e.polluted_lines(), 160);
        assert_eq!(llc2.stats().corunner.total(), 160);
        assert_eq!(llc2.stats().total_accesses(), 0);
    }

    #[test]
    fn pollution_carry_makes_windows_splittable() {
        let cfg = CacheConfig::new(64 * KIB, 4, 128);
        let mut one = InterferenceEngine::new(&[CorunnerProfile::CacheThrash], 5);
        let mut llc_a = Cache::new(cfg.clone());
        one.pollute(&mut llc_a, 10_000.0);
        let mut many = InterferenceEngine::new(&[CorunnerProfile::CacheThrash], 5);
        let mut llc_b = Cache::new(cfg);
        for _ in 0..100 {
            many.pollute(&mut llc_b, 100.0);
        }
        assert_eq!(one.polluted_lines(), many.polluted_lines());
    }

    #[test]
    #[should_panic(expected = "invalid co-runner profile")]
    fn invalid_burst_period_rejected() {
        InterferenceEngine::new(
            &[CorunnerProfile::Bursty {
                duty: 0.5,
                period_cycles: 0.0,
            }],
            1,
        );
    }
}
