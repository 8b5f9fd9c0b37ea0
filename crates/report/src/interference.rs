//! Beyond the paper: the co-runner interference sweep.
//!
//! The paper evaluates two points of the interference space — no CPU
//! traffic, and three saturating membombs. The event-driven co-runner
//! engine opens the space in between and beyond: this artifact sweeps the
//! co-runner **count** (0–6) for each access profile and reports how the
//! PREM schedule and the unprotected baseline degrade, per profile.
//!
//! Expected shape (and what the acceptance tests assert): makespans and
//! baseline times grow monotonically with the co-runner count; the CPMR
//! stays flat for bus-only profiles (membomb, stream, bursty — they
//! cannot touch the LLC) and grows for `cache_thrash`, whose pollution
//! evicts staged lines before the compute phase consumes them.

use std::ops::Add;

use prem_core::RunWork;
use prem_gpusim::{CorunnerProfile, Scenario};
use prem_harness::{CorunnerMix, MatrixScenario, PlatformSpec, RunRequest, RunSource};
use prem_kernels::Kernel;

use crate::common::{llc_request, planned};
use crate::table::{f3, pct};
use crate::Table;

/// The profiles the sweep fans over, in output order.
pub fn sweep_profiles() -> Vec<CorunnerProfile> {
    vec![
        CorunnerProfile::Membomb,
        CorunnerProfile::Stream,
        CorunnerProfile::CacheThrash,
        CorunnerProfile::Bursty {
            duty: 0.5,
            period_cycles: 80_000.0,
        },
    ]
}

/// One sweep point: `n` co-runners of `profile` against one kernel.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepRow {
    /// Profile name.
    pub profile: &'static str,
    /// Co-runner count.
    pub n: usize,
    /// Aggregate mean demand of the mix (saturating-stream units).
    pub demand: f64,
    /// PREM schedule makespan (µs).
    pub prem_us: f64,
    /// Compute-phase miss ratio of the PREM run.
    pub cpmr: f64,
    /// Static WCET envelope (µs) — scenario-independent by construction.
    pub envelope_us: f64,
    /// Budget violations (µs).
    pub violation_us: f64,
    /// Unprotected baseline time (µs).
    pub baseline_us: f64,
    /// Mean co-runner bus throughput over the C-phase slots (bytes per
    /// GPU cycle).
    pub corunner_bpc: f64,
    /// LLC lines injected by thrashing co-runners during the PREM run.
    pub polluted_lines: u64,
}

/// Every sweep point in output order — `n` co-runners of a profile — with
/// its two requests: LLC-PREM under the mix on the TX1 platform, and the
/// unprotected baseline under the same mix at the same interval size.
/// Zero co-runners of any profile is one and the same empty mix, so every
/// profile's `n = 0` point is one pair of requests.
fn sweep_points(
    kernel: &dyn Kernel,
    t: usize,
    r: u32,
    seed: u64,
    max: usize,
) -> Vec<(CorunnerProfile, usize, [RunRequest<'_>; 2])> {
    let mut points = Vec::new();
    for profile in sweep_profiles() {
        for n in 0..=max {
            let mix = match n {
                0 => CorunnerMix::new("none", Vec::new()),
                _ => CorunnerMix::uniform(n, profile),
            };
            let prem = RunRequest {
                scenario: MatrixScenario::Mix(mix),
                ..llc_request(kernel, t, r, seed, Scenario::Corunners)
            };
            let base = RunRequest {
                work: RunWork::Baseline,
                ..prem.clone()
            };
            points.push((profile, n, [prem, base]));
        }
    }
    points
}

/// The runs the sweep consumes, as a plan. The points of each work mode
/// are one derivation family: one compiled stream and one walk, from
/// which the bus-only points (constant contention, no LLC pollution) are
/// priced and the bursty and cache-thrashing PREM points, which run live,
/// take their WCETs.
pub fn interference_requests(
    kernel: &dyn Kernel,
    t: usize,
    r: u32,
    seed: u64,
    max_corunners: usize,
) -> Vec<RunRequest<'_>> {
    let points = sweep_points(kernel, t, r, seed, max_corunners);
    points.into_iter().flat_map(|(_, _, reqs)| reqs).collect()
}

/// Runs the sweep: counts `0..=max_corunners` of every
/// [`sweep_profiles`] entry on the TX1 platform, from a one-shot plan of
/// [`interference_requests`].
pub fn interference_sweep(
    kernel: &dyn Kernel,
    t: usize,
    r: u32,
    seed: u64,
    max_corunners: usize,
) -> Vec<SweepRow> {
    let source = planned(&interference_requests(kernel, t, r, seed, max_corunners));
    interference_sweep_with(kernel, t, r, seed, max_corunners, &source)
}

/// [`interference_sweep`] rendered from `source`: consumes exactly the runs
/// [`interference_requests`] enumerates.
pub fn interference_sweep_with(
    kernel: &dyn Kernel,
    t: usize,
    r: u32,
    seed: u64,
    max_corunners: usize,
    source: &impl RunSource,
) -> Vec<SweepRow> {
    // Every point runs on the TX1 template (`llc_request`), so its clock
    // converts them all.
    let tx1 = PlatformSpec::tx1();
    let to_us = |cycles: f64| tx1.config().cycles_to_us(cycles);
    sweep_points(kernel, t, r, seed, max_corunners)
        .into_iter()
        .map(|(profile, n, [prem, base])| {
            let prem = source.output(&prem).prem();
            let base = source.output(&base).baseline();
            SweepRow {
                profile: profile.name(),
                n,
                // fold, not sum: the empty mix must print 0.000, not -0.000.
                demand: std::iter::repeat_n(profile.mean_demand(), n).fold(0.0, f64::add),
                prem_us: to_us(prem.makespan_cycles),
                cpmr: prem.cpmr,
                envelope_us: to_us(prem.budget_envelope_cycles),
                violation_us: to_us(prem.budget_violation_cycles),
                baseline_us: to_us(base.cycles),
                corunner_bpc: prem.bus.corunner_bytes_per_cycle(),
                polluted_lines: prem.polluted_lines,
            }
        })
        .collect()
}

/// Renders sweep rows as the `interference_sweep` table.
pub fn sweep_table(rows: &[SweepRow], kernel_name: &str, t_kib: usize, r: u32) -> Table {
    let mut t = Table::new(
        format!(
            "Interference sweep: {kernel_name}, LLC-PREM (R={r}, T={t_kib}K) \
             vs unprotected baseline, co-runner count 0-6 per profile"
        ),
        &[
            "profile", "n", "demand", "prem-us", "cpmr", "wcet-us", "viol-us", "base-us",
            "co-B/cyc", "pollute",
        ],
    );
    for row in rows {
        t.push_row(vec![
            row.profile.to_string(),
            row.n.to_string(),
            f3(row.demand),
            f3(row.prem_us),
            pct(row.cpmr),
            f3(row.envelope_us),
            f3(row.violation_us),
            f3(row.baseline_us),
            f3(row.corunner_bpc),
            row.polluted_lines.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use prem_kernels::Bicg;
    use prem_memsim::KIB;

    fn rows() -> Vec<SweepRow> {
        interference_sweep(&Bicg::new(128, 128), 32 * KIB, 8, 11, 3)
    }

    #[test]
    fn sweep_covers_profiles_times_counts() {
        let rows = rows();
        assert_eq!(rows.len(), sweep_profiles().len() * 4);
        // Count 0 of every profile is the same isolated measurement.
        let zeros: Vec<&SweepRow> = rows.iter().filter(|r| r.n == 0).collect();
        for z in &zeros {
            assert_eq!(z.demand, 0.0);
            assert_eq!(z.prem_us, zeros[0].prem_us);
            assert_eq!(z.baseline_us, zeros[0].baseline_us);
        }
    }

    #[test]
    fn curves_are_monotone_in_corunner_count() {
        let rows = rows();
        for profile in sweep_profiles() {
            let curve: Vec<&SweepRow> = rows
                .iter()
                .filter(|r| r.profile == profile.name())
                .collect();
            for pair in curve.windows(2) {
                assert!(
                    pair[1].prem_us >= pair[0].prem_us - 1e-9,
                    "{}: prem not monotone at n={}",
                    profile.name(),
                    pair[1].n
                );
                assert!(
                    pair[1].baseline_us >= pair[0].baseline_us - 1e-9,
                    "{}: baseline not monotone at n={}",
                    profile.name(),
                    pair[1].n
                );
                assert!(
                    pair[1].cpmr >= pair[0].cpmr - 1e-9,
                    "{}: cpmr not monotone at n={}",
                    profile.name(),
                    pair[1].n
                );
            }
        }
    }

    #[test]
    fn only_thrashers_pollute() {
        for row in rows() {
            if row.profile == "cache_thrash" && row.n > 0 {
                assert!(row.polluted_lines > 0, "thrashers must pollute");
            } else {
                assert_eq!(row.polluted_lines, 0, "{} must not pollute", row.profile);
            }
        }
    }

    #[test]
    fn table_renders_all_rows() {
        let rows = rows();
        let t = sweep_table(&rows, "bicg", 32, 8);
        assert_eq!(t.len(), rows.len());
        assert!(t.to_csv().starts_with("profile,n,demand"));
    }
}
