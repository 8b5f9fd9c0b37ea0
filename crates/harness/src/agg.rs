//! Aggregation of matrix cells into the report crate's tables.

use prem_gpusim::Scenario;
use prem_memsim::KIB;
use prem_table::table::{f3, pct};
use prem_table::{geomean, Table};

use crate::run::CellResult;
use crate::spec::{MatrixScenario, MatrixSpec};

/// All cell results of one matrix run, with enough axis metadata to render
/// seed-aggregated tables deterministically.
#[derive(Clone, Debug)]
pub struct MatrixResult {
    kernel_names: Vec<String>,
    kernel_dims: Vec<String>,
    platform_names: Vec<String>,
    policy_names: Vec<&'static str>,
    scenarios: Vec<MatrixScenario>,
    n_seeds: usize,
    r: u32,
    cells: Vec<CellResult>,
}

impl MatrixResult {
    /// Binds results (in expansion order) to their spec's axis names.
    pub(crate) fn new(spec: &MatrixSpec, cells: Vec<CellResult>) -> Self {
        assert_eq!(cells.len(), spec.len(), "one result per cell");
        MatrixResult {
            kernel_names: spec.kernels.iter().map(|k| k.name().to_string()).collect(),
            kernel_dims: spec.kernels.iter().map(|k| k.dims()).collect(),
            platform_names: spec.platforms.iter().map(|p| p.name().into()).collect(),
            policy_names: spec.policies.iter().map(|p| p.name()).collect(),
            scenarios: spec.scenarios.clone(),
            n_seeds: spec.seeds.len(),
            r: spec.r,
            cells,
        }
    }

    /// The raw per-cell results, in expansion order.
    pub fn cells(&self) -> &[CellResult] {
        &self.cells
    }

    /// Flat index of a (kernel, platform, policy, scenario, seed) cell —
    /// the expansion order of [`MatrixSpec::expand`].
    fn idx(&self, k: usize, p: usize, pol: usize, sc: usize, seed: usize) -> usize {
        (((k * self.platform_names.len() + p) * self.policy_names.len() + pol)
            * self.scenarios.len()
            + sc)
            * self.n_seeds
            + seed
    }

    /// Mean of one metric over the seed axis of a cell group.
    fn seed_mean(
        &self,
        k: usize,
        p: usize,
        pol: usize,
        sc: usize,
        metric: impl Fn(&CellResult) -> f64,
    ) -> f64 {
        let sum: f64 = (0..self.n_seeds)
            .map(|s| metric(&self.cells[self.idx(k, p, pol, sc, s)]))
            .sum();
        sum / self.n_seeds as f64
    }

    /// Per-(kernel, platform, policy, scenario) table, seed-aggregated.
    /// Its CSV form is the `results/matrix.csv` artifact.
    pub fn cell_table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Scenario matrix: LLC-PREM (R={}) vs unprotected baseline, {} seed(s) per cell",
                self.r, self.n_seeds
            ),
            &[
                "kernel",
                "dims",
                "platform",
                "policy",
                "scenario",
                "T",
                "ivs",
                "prem-us",
                "cpmr",
                "wcet-us",
                "viol-us",
                "base-us",
                "prem/base",
            ],
        );
        for k in 0..self.kernel_names.len() {
            for p in 0..self.platform_names.len() {
                for pol in 0..self.policy_names.len() {
                    for sc in 0..self.scenarios.len() {
                        let first = &self.cells[self.idx(k, p, pol, sc, 0)];
                        let prem = self.seed_mean(k, p, pol, sc, |c| c.makespan_us);
                        let base = self.seed_mean(k, p, pol, sc, |c| c.baseline_us);
                        t.push_row(vec![
                            self.kernel_names[k].clone(),
                            self.kernel_dims[k].clone(),
                            self.platform_names[p].clone(),
                            self.policy_names[pol].to_string(),
                            self.scenarios[sc].name().to_string(),
                            format!("{}K", first.cell.t_bytes / KIB),
                            first.intervals.to_string(),
                            f3(prem),
                            pct(self.seed_mean(k, p, pol, sc, |c| c.cpmr)),
                            f3(self.seed_mean(k, p, pol, sc, |c| c.envelope_us)),
                            f3(self.seed_mean(k, p, pol, sc, |c| c.violation_us)),
                            f3(base),
                            f3(prem / base),
                        ]);
                    }
                }
            }
        }
        t
    }

    /// Per-(platform, policy) summary: geomean interference sensitivity of
    /// PREM and of the baseline, mean isolated CPMR, and geomean WCET
    /// inflation (static envelope over the isolated baseline). Sensitivity
    /// columns need both scenarios in the matrix and are `n/a` otherwise.
    pub fn summary_table(&self) -> Table {
        let iso = self
            .scenarios
            .iter()
            .position(|s| *s == MatrixScenario::Preset(Scenario::Isolation));
        let intf = self
            .scenarios
            .iter()
            .position(|s| *s == MatrixScenario::Preset(Scenario::Interference));
        let mut t = Table::new(
            "Matrix summary (geomean over kernels)",
            &[
                "platform",
                "policy",
                "prem-sens",
                "base-sens",
                "cpmr-iso",
                "wcet-infl",
            ],
        );
        let nk = self.kernel_names.len();
        for p in 0..self.platform_names.len() {
            for pol in 0..self.policy_names.len() {
                let sens = |metric: &dyn Fn(&CellResult) -> f64| -> String {
                    match (iso, intf) {
                        (Some(i), Some(j)) => {
                            let g = geomean((0..nk).map(|k| {
                                self.seed_mean(k, p, pol, j, metric)
                                    / self.seed_mean(k, p, pol, i, metric)
                            }));
                            pct(g - 1.0)
                        }
                        _ => "n/a".into(),
                    }
                };
                let cpmr_iso = iso
                    .map(|i| {
                        let m = (0..nk)
                            .map(|k| self.seed_mean(k, p, pol, i, |c| c.cpmr))
                            .sum::<f64>()
                            / nk as f64;
                        pct(m)
                    })
                    .unwrap_or_else(|| "n/a".into());
                let wcet_infl = iso
                    .map(|i| {
                        let g = geomean((0..nk).map(|k| {
                            self.seed_mean(k, p, pol, i, |c| c.envelope_us)
                                / self.seed_mean(k, p, pol, i, |c| c.baseline_us)
                        }));
                        f3(g)
                    })
                    .unwrap_or_else(|| "n/a".into());
                t.push_row(vec![
                    self.platform_names[p].clone(),
                    self.policy_names[pol].to_string(),
                    sens(&|c| c.makespan_us),
                    sens(&|c| c.baseline_us),
                    cpmr_iso,
                    wcet_infl,
                ]);
            }
        }
        t
    }

    /// The human-readable artifact: summary followed by the full cell
    /// table. Byte-stable for a given spec at any worker count.
    pub fn render(&self) -> String {
        format!("{}\n{}", self.summary_table(), self.cell_table())
    }

    /// The machine-readable artifact (`results/matrix.csv`).
    pub fn to_csv(&self) -> String {
        self.cell_table().to_csv()
    }
}
