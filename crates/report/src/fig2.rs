//! Figure 2: data-movement code complexity — instruction counts of one
//! representative interval under the SPM and cache strategies.
//!
//! The paper's qualitative claim: SPM management needs explicit copy loops
//! plus `transl_addr` arithmetic on every access, while the cache needs only
//! a prefetch per line in the M-phase and *zero* added instructions in the
//! C-phase.

use prem_core::LocalStore;
use prem_gpusim::OpCounts;
use prem_kernels::Kernel;

use crate::table::Table;

/// Instruction counts of one interval under one strategy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fig2Row {
    /// Strategy label.
    pub store: String,
    /// M-phase instructions (one staging pass × repetitions).
    pub m_instructions: u64,
    /// C-phase instructions.
    pub c_instructions: u64,
    /// Data-movement *management* instructions across both phases.
    pub management: u64,
}

/// The code-complexity comparison.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fig2 {
    /// Kernel name.
    pub kernel: String,
    /// Interval index examined (always 0) footprint, in lines.
    pub footprint_lines: usize,
    /// One row per strategy.
    pub rows: Vec<Fig2Row>,
}

impl Fig2 {
    /// The row for a strategy label.
    pub fn row(&self, store: &str) -> Option<&Fig2Row> {
        self.rows.iter().find(|r| r.store == store)
    }

    /// Renders as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Fig 2: data-movement code, one {} interval ({} lines staged)",
                self.kernel, self.footprint_lines
            ),
            &["store", "m-instr", "c-instr", "management-instr"],
        );
        for r in &self.rows {
            t.push_row(vec![
                r.store.clone(),
                r.m_instructions.to_string(),
                r.c_instructions.to_string(),
                r.management.to_string(),
            ]);
        }
        t
    }
}

/// Compares strategies on the first interval of `kernel` at size `t_bytes`.
///
/// # Panics
///
/// Panics if the kernel cannot be tiled at `t_bytes`.
pub fn fig2(kernel: &dyn Kernel, t_bytes: usize) -> Fig2 {
    let intervals = kernel
        .intervals(t_bytes)
        .unwrap_or_else(|e| panic!("{}: {e}", kernel.name()));
    let iv = &intervals[0];
    let strategies: Vec<(&str, LocalStore, u64)> = vec![
        ("spm", LocalStore::spm_default(), 1),
        ("llc (R=1)", LocalStore::llc_naive(), 1),
        ("llc (R=8)", LocalStore::llc_tamed(), 8),
    ];
    let rows = strategies
        .into_iter()
        .map(|(name, store, passes)| {
            let m: OpCounts = store.m_phase_pass(iv).counts();
            let c: OpCounts = store.c_phase(iv).counts();
            Fig2Row {
                store: name.to_string(),
                m_instructions: m.total_instructions() * passes,
                c_instructions: c.total_instructions(),
                management: m.management_instructions() * passes + c.transl,
            }
        })
        .collect();
    Fig2 {
        kernel: kernel.name().to_string(),
        footprint_lines: iv.footprint().len(),
        rows,
    }
}
