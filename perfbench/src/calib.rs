//! Host-speed calibration: the clock every reported time is read from.
//!
//! The benchmark host is shared. The CPU throughput one thread gets swings
//! by up to 1.4x, over seconds and over tens of seconds, with no time spent
//! waiting for a CPU (the loss is in the hardware the host shares), so ten
//! runs of the same code land in ten host phases and their raw wall times
//! spread by 10 to 37 % (IQR over median). [`probe`] times a fixed
//! reference job that does not depend on the code under test: a dependent
//! walk over a 1 MiB random cycle, mixing cache-missing loads with integer
//! arithmetic. A [`HostClock`] probes at the start and end of every pass
//! and at checkpoints inside it (at most one per [`CHECKPOINT_S`]), on the
//! benchmark's own thread, and scales each stretch of raw time between two
//! probes by `(NOMINAL_PROBE_S / reading) ^ ELASTICITY`, `reading` being
//! the mean of the two probes. Reported times are therefore seconds on a
//! host whose probe reads [`NOMINAL_PROBE_S`]: a change to the code under
//! test moves them, a slow host phase mostly does not. Probe time itself
//! counts zero.

use std::hint::black_box;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use prem_obs::MetricsSink;

use crate::seeds::Rng;
use crate::trace::{Kind, Trace};

/// The probe reading (s) the reported times are scaled to: about what the
/// probe reads on a quiet 2.1 GHz Xeon vCPU.
const NOMINAL_PROBE_S: f64 = 0.008;

/// How much more the workloads slow down than the probe when the host is
/// busy: the slope of log pass time over log probe reading. Fitted on
/// passes of cold-figures (1.45) and warm-figures (1.0 to 1.2) on a
/// 2-vCPU 2.1 GHz Xeon host whose raw pass times swung by up to 1.4x;
/// 1.3 minimised the spread of both.
const ELASTICITY: f64 = 1.3;

/// Least raw time (s) between two probes inside a pass.
const CHECKPOINT_S: f64 = 0.25;

/// Entries in the walked cycle (4 B each: 1 MiB, past the L2 cache).
const CYCLE: usize = 1 << 18;

/// Steps of one timed walk.
const STEPS: usize = 1 << 20;

/// Walks timed per probe; the probe reports their median.
const WALKS: usize = 3;

/// A random single-cycle permutation (Sattolo's algorithm), built once.
fn cycle() -> &'static [u32] {
    static CYCLE_TABLE: OnceLock<Vec<u32>> = OnceLock::new();
    CYCLE_TABLE.get_or_init(|| {
        let mut order: Vec<u32> = (0..CYCLE as u32).collect();
        let mut rng = Rng::new(0x5eed_ca11);
        for i in (1..CYCLE).rev() {
            let j = rng.below(i as u64) as usize;
            order.swap(i, j);
        }
        let mut next = vec![0u32; CYCLE];
        for i in 0..CYCLE {
            next[order[i] as usize] = order[(i + 1) % CYCLE];
        }
        next
    })
}

/// One walk of [`STEPS`] dependent loads; returns a checksum so the walk
/// cannot be optimised away.
fn walk(next: &[u32]) -> u64 {
    let mut at = 0u32;
    let mut acc = 0u64;
    for _ in 0..STEPS {
        at = next[at as usize];
        acc = (acc ^ u64::from(at))
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(17);
    }
    acc
}

/// Seconds one reference walk takes on the host right now: the median of
/// [`WALKS`] timed walks.
fn probe() -> f64 {
    let next = cycle();
    let mut times = [0.0; WALKS];
    for t in &mut times {
        let start = Instant::now();
        black_box(walk(black_box(next)));
        *t = start.elapsed().as_secs_f64();
    }
    times.sort_by(f64::total_cmp);
    times[WALKS / 2]
}

/// A probe: raw start and end offsets from the clock's origin (s), and
/// its reading (s).
#[derive(Copy, Clone, Debug)]
struct Probe {
    start: f64,
    end: f64,
    reading: f64,
}

/// Host-scaled time over one pass. Probes at [`HostClock::start`], at
/// [`HostClock::checkpoint`]s and at [`HostClock::finish`]; every instant
/// read with [`HostClock::between`] must lie between the first and the
/// last probe.
#[derive(Debug)]
pub struct HostClock {
    origin: Instant,
    probes: Vec<Probe>,
}

impl HostClock {
    /// A clock whose first probe runs now.
    pub fn start() -> HostClock {
        let mut clock = HostClock {
            origin: Instant::now(),
            probes: Vec::new(),
        };
        clock.probe();
        clock
    }

    fn offset(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    fn probe(&mut self) {
        let start = self.offset(Instant::now());
        let reading = probe();
        let end = self.offset(Instant::now());
        self.probes.push(Probe {
            start,
            end,
            reading,
        });
    }

    /// Probes when [`CHECKPOINT_S`] or more have passed since the last
    /// probe ended.
    pub fn checkpoint(&mut self) {
        let last = self.probes.last().map_or(0.0, |p| p.end);
        if self.offset(Instant::now()) - last >= CHECKPOINT_S {
            self.probe();
        }
    }

    /// The closing probe; read the clock only after it.
    pub fn finish(&mut self) {
        self.probe();
    }

    /// Host-scaled seconds from the first probe to `t`: the raw time
    /// between each two consecutive probes, scaled by their mean reading.
    fn at(&self, t: Instant) -> f64 {
        let x = self.offset(t);
        self.probes
            .windows(2)
            .map(|w| {
                let raw = (x.min(w[1].start) - w[0].end).max(0.0);
                let reading = (w[0].reading + w[1].reading) / 2.0;
                raw * (NOMINAL_PROBE_S / reading).powf(ELASTICITY)
            })
            .sum()
    }

    /// Host-scaled seconds from `a` to `b`.
    pub fn between(&self, a: Instant, b: Instant) -> f64 {
        self.at(b) - self.at(a)
    }

    /// Raw seconds the probes took.
    pub fn probe_s(&self) -> f64 {
        self.probes.iter().map(|p| p.end - p.start).sum()
    }

    /// Median probe reading (s).
    pub fn median_reading(&self) -> f64 {
        let readings: Vec<f64> = self.probes.iter().map(|p| p.reading).collect();
        crate::stats::median(&readings)
    }
}

/// A metrics sink that records nothing and checkpoints a [`HostClock`]
/// each time the plan layer reports a finished pool unit, so that a long
/// `PlanExecutor` call is probed inside, too. It reports itself enabled
/// so that the per-unit report is made; that costs a clock read per
/// metered span.
pub struct UnitCheckpoints<'c>(Mutex<&'c mut HostClock>);

impl<'c> UnitCheckpoints<'c> {
    pub fn new(clock: &'c mut HostClock) -> Self {
        UnitCheckpoints(Mutex::new(clock))
    }
}

impl MetricsSink for UnitCheckpoints<'_> {
    fn enabled(&self) -> bool {
        true
    }

    fn observe(&self, name: &str, _: u64) {
        if name == "plan.unit_ns" {
            self.0.lock().expect("clock lock poisoned").checkpoint();
        }
    }
}

/// [`HostClock::checkpoint`] inside a `calib.probe` span, so a traced
/// pass's ledger attributes probe time instead of leaving it unattributed.
pub fn checkpoint(clock: &mut HostClock, trace: &mut Trace) {
    trace.span("calib.probe", Kind::Layer, || clock.checkpoint());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clock with hand-made probes at raw offsets, origin `o`.
    fn clock(o: Instant, probes: &[(f64, f64, f64)]) -> HostClock {
        HostClock {
            origin: o,
            probes: probes
                .iter()
                .map(|&(start, end, reading)| Probe {
                    start,
                    end,
                    reading,
                })
                .collect(),
        }
    }

    fn at(o: Instant, s: f64) -> Instant {
        o + std::time::Duration::from_secs_f64(s)
    }

    #[test]
    fn stretches_scale_by_their_probes_and_probe_time_counts_zero() {
        let o = Instant::now();
        let n = NOMINAL_PROBE_S;
        // Probes at [0, 1), [3, 4) and [6, 7): nominal speed, then a
        // stretch whose probes read twice the nominal time on average.
        let c = clock(o, &[(0.0, 1.0, n), (3.0, 4.0, n), (6.0, 7.0, 3.0 * n)]);
        let slow = 0.5f64.powf(ELASTICITY);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        // First stretch (1..3) reads raw: 2 s.
        assert!(close(c.between(at(o, 1.0), at(o, 3.0)), 2.0));
        // The probe interval [3, 4) adds nothing.
        assert!(close(c.between(at(o, 2.0), at(o, 4.0)), 1.0));
        // Second stretch (4..6) is scaled down.
        assert!(close(c.between(at(o, 4.0), at(o, 6.0)), 2.0 * slow));
        assert!(close(c.between(at(o, 0.0), at(o, 7.0)), 2.0 + 2.0 * slow));
        assert!(close(c.probe_s(), 3.0));
    }

    #[test]
    fn a_real_clock_reads_a_finite_time() {
        let mut c = HostClock::start();
        let a = Instant::now();
        c.checkpoint();
        let b = Instant::now();
        c.finish();
        let scaled = c.between(a, b);
        assert!(scaled >= 0.0 && scaled.is_finite());
        assert!(c.median_reading() > 0.0);
    }
}
