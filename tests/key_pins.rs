//! Literal canonical keys, pinned.
//!
//! Every run the plan layer caches — in memory, in the persistent store,
//! in a serve session — is addressed by [`RunRequest::key`]; derivation
//! families group by [`RunRequest::base_key`]; store shards and wire
//! responses carry [`RunRequest::fingerprint`]. A key that moves makes
//! every store on disk serve nothing, and one that merges two requests'
//! identities serves one request's output for another. These tests spell
//! the keys of a few representative requests out byte for byte: a figure
//! request, matrix cells on a preset with a policy override and on a
//! synthetic geometry, the MSG and bias ablations' hand-built templates,
//! and two co-runner mixes. A refactor of how templates or mixes are
//! built or digested must leave every line below unchanged.

use prem_core::RunWork;
use prem_gpusim::{CorunnerProfile, Scenario};
use prem_harness::{
    cell_requests, CorunnerMix, MatrixPolicy, MatrixScenario, MatrixSpec, PlatformId, RunRequest,
};
use prem_kernels::Bicg;
use prem_memsim::KIB;
use prem_report::{ablation, common::Harness, llc_request};

/// Asserts `req`'s key, base key and fingerprint against their literals.
fn pin(req: &RunRequest<'_>, key: &str, base_key: &str, fingerprint: u64) {
    assert_eq!(req.key(), key);
    assert_eq!(req.base_key(), base_key);
    assert_eq!(req.fingerprint(), fingerprint, "fingerprint of {key}");
}

#[test]
fn fig3_tx1_llc_request_key_is_pinned() {
    let k = Bicg::new(512, 512);
    pin(
        &llc_request(&k, 160 * KIB, 1, 11, Scenario::Interference),
        "bicg(512x512)|tx1#f02e5eaefd8ed08a|template-policy|interference|llc-r1|t163840|s11|n64x32",
        "bicg(512x512)|tx1#f02e5eaefd8ed08a|*|*|llc-r1|t163840|s*|n64x32",
        0x27a0_04fc_43e8_4d9a,
    );
}

#[test]
fn matrix_cell_keys_are_pinned() {
    let spec = MatrixSpec::quick(vec![Box::new(Bicg::new(128, 128))]);
    // Platform 1 is tx2 and policy 1 the LRU override in the default axes.
    let cell = spec
        .expand()
        .into_iter()
        .find(|c| c.platform == 1 && c.policy == 1 && c.scenario.name() == "interference")
        .expect("the default matrix has a tx2 / lru / interference cell");
    let [prem, base] = cell_requests(&spec, &cell);
    pin(
        &prem,
        "bicg(128x128)|tx2#917113753dadaf1a|lru|interference|llc-r8|t425984|s8356972230714583144|n64x32",
        "bicg(128x128)|tx2#917113753dadaf1a|*|*|llc-r8|t425984|s*|n64x32",
        0x354d_706b_668b_0b35,
    );
    pin(
        &base,
        "bicg(128x128)|tx2#917113753dadaf1a|lru|interference|base|t425984|s8356972230714583144|n64x32",
        "bicg(128x128)|tx2#917113753dadaf1a|*|*|base|t425984|s*|n64x32",
        0xa0ae_8a1a_b8fe_7466,
    );

    // A synthetic-geometry cell, built as the matrix builds one.
    let k = Bicg::new(128, 128);
    let generic = PlatformId::Generic {
        llc_kib: 128,
        ways: 4,
        spm_kib: 64,
    };
    let req = RunRequest {
        platform: generic.spec(Some(MatrixPolicy::VendorBiased)),
        ..llc_request(&k, 64 * KIB, 8, 4242, Scenario::Isolation)
    };
    pin(
        &req,
        "bicg(128x128)|g128k4w#90dda1a18c954e8b|biased|isolation|llc-r8|t65536|s4242|n64x32",
        "bicg(128x128)|g128k4w#90dda1a18c954e8b|*|*|llc-r8|t65536|s*|n64x32",
        0x372f_4234_bca5_dba6,
    );
}

#[test]
fn ablation_template_keys_are_pinned() {
    let k = Bicg::new(512, 512);
    let harness = Harness::quick();
    let msg = ablation::msg_requests(&k, &harness, 96 * KIB, 160 * KIB, &[5.0]);
    assert_eq!(msg.len(), 2);
    pin(
        &msg[0],
        "bicg(512x512)|tx1#b3f3a2781c9fa887|template-policy|isolation|spm|t98304|s11|n0x0",
        "bicg(512x512)|tx1#b3f3a2781c9fa887|*|*|spm|t98304|s*|n0x0",
        0x2d70_789e_2ab1_0f83,
    );
    pin(
        &msg[1],
        "bicg(512x512)|tx1#b3f3a2781c9fa887|template-policy|isolation|llc-r8|t163840|s11|n0x0",
        "bicg(512x512)|tx1#b3f3a2781c9fa887|*|*|llc-r8|t163840|s*|n0x0",
        0x34d1_9532_862a_8437,
    );
    let bias = ablation::bias_requests(&k, &harness, 160 * KIB, &[9]);
    assert_eq!(bias.len(), 2);
    pin(
        &bias[1],
        "bicg(512x512)|tx1#53cdffb00d6a972d|template-policy|isolation|llc-r8|t163840|s11|n0x0",
        "bicg(512x512)|tx1#53cdffb00d6a972d|*|*|llc-r8|t163840|s*|n0x0",
        0x92f6_475a_32d3_88d7,
    );
}

#[test]
fn corunner_mix_keys_are_pinned() {
    let k = Bicg::new(512, 512);
    let with_mix = |mix: CorunnerMix| RunRequest {
        scenario: MatrixScenario::Mix(mix),
        ..llc_request(&k, 160 * KIB, 8, 11, Scenario::Isolation)
    };
    pin(
        &with_mix(CorunnerMix::uniform(2, CorunnerProfile::Membomb)),
        "bicg(512x512)|tx1#f02e5eaefd8ed08a|template-policy|2xmembomb#67a7d8c3ebee207c|llc-r8|t163840|s11|n64x32",
        "bicg(512x512)|tx1#f02e5eaefd8ed08a|*|*|llc-r8|t163840|s*|n64x32",
        0x603a_7f0f_b8a7_7adf,
    );
    let bursty = CorunnerProfile::Bursty {
        duty: 0.5,
        period_cycles: 80_000.0,
    };
    let req = RunRequest {
        work: RunWork::Baseline,
        ..with_mix(CorunnerMix::uniform(1, bursty))
    };
    pin(
        &req,
        "bicg(512x512)|tx1#f02e5eaefd8ed08a|template-policy|1xbursty#a433cffd2d999cf1|base|t163840|s11|n64x32",
        "bicg(512x512)|tx1#f02e5eaefd8ed08a|*|*|base|t163840|s*|n64x32",
        0x2e46_b3ff_83d3_bb5e,
    );
}
