//! Property tests on the persistent run store and its payload codec.
//!
//! The store's contract is *identity or loud failure*: an output that
//! goes through encode → disk → decode must come back bit-identical, and
//! any damage to the bytes — truncation anywhere, a flipped bit — must
//! either fail decoding outright or (at the codec layer, which carries no
//! checksum of its own) decode to a *different* value that the store's
//! per-record checksum would have rejected. These properties are sampled
//! over the real coordinate space: every execution mode, a spread of
//! seeds, interval sizes and scenarios.

use std::path::PathBuf;

use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;

use prem_core::{NoiseModel, RunOutput, RunWork};
use prem_gpusim::Scenario;
use prem_harness::{MatrixScenario, PlatformSpec, RunRequest, RunStore};
use prem_kernels::Bicg;
use prem_memsim::KIB;

/// A fresh per-invocation scratch directory under the system temp dir.
fn scratch_dir(tag: &str, case: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "prem-store-prop-{}-{tag}-{case}",
        std::process::id()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn outputs_roundtrip_and_damage_is_detected(
        seed in 0u64..64,
        r in 1u32..9,
        mode in 0usize..4,
        iso in 0usize..2,
        t_kib in proptest::sample::select(vec![16usize, 32, 48]),
    ) {
        let bicg = Bicg::new(64, 64);
        let work = match mode {
            0 => RunWork::PremLlc { r },
            1 => RunWork::PremSpm,
            2 => RunWork::Baseline,
            _ => RunWork::PremLlcUntilResident,
        };
        let req = RunRequest {
            kernel: &bicg,
            platform: PlatformSpec::tx1(),
            work,
            t_bytes: t_kib * KIB,
            seed,
            scenario: MatrixScenario::Preset(if iso == 0 {
                Scenario::Isolation
            } else {
                Scenario::Interference
            }),
            noise: NoiseModel::tx1(),
        };
        let out = req.execute();

        // Codec identity: encode → decode is bit-exact.
        let bytes = out.encode();
        let back = RunOutput::decode(&bytes).expect("decode of untouched bytes");
        prop_assert_eq!(&back, &out);

        // Truncation at any strict prefix is a decode error (the cut
        // point is derived from the case coordinates, so the sweep
        // covers header, body and tail cuts across cases).
        let cut = (seed as usize).wrapping_mul(7919) % bytes.len();
        prop_assert!(
            RunOutput::decode(&bytes[..cut]).is_err(),
            "truncation at {} of {} decoded successfully", cut, bytes.len()
        );

        // A flipped bit can never silently decode back to the original:
        // either the decoder rejects it, or it yields a different value
        // (which the store's per-record payload checksum catches before
        // the codec ever sees it).
        let pos = (seed as usize).wrapping_mul(104729) % bytes.len();
        let mut flipped = bytes.clone();
        flipped[pos] ^= 1 << (seed % 8);
        if let Ok(other) = RunOutput::decode(&flipped) {
            prop_assert!(
                other != out,
                "bit flip at byte {} decoded back to the original", pos
            );
        }

        // Store round-trip across handles: append under the canonical
        // key, reopen (≈ a new process), read back bit-identical.
        let dir = scratch_dir("roundtrip", seed ^ (r as u64) << 32 ^ (mode as u64) << 40);
        std::fs::remove_dir_all(&dir).ok();
        let key = req.key();
        let store = RunStore::open(&dir).expect("open store");
        prop_assert_eq!(store.append([(key.as_str(), &out)]).expect("append"), 1);
        let reopened = RunStore::open(&dir).expect("reopen store");
        prop_assert_eq!(reopened.get(&key).expect("get"), Some(out));
        prop_assert_eq!(reopened.verify().expect("verify").records, 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
