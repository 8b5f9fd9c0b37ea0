//! Stable per-cell seed derivation.
//!
//! Every matrix cell derives its RNG seed from a *stable hash of its own
//! coordinates* (kernel, platform, policy, scenario, base seed), never from
//! enumeration order, worker identity, or global state. Two consequences:
//!
//! * results are byte-identical at any worker count (the pool does not
//!   participate in seeding at all);
//! * adding a row to one axis does not shift the seeds of existing cells,
//!   so matrix results stay comparable as the matrix grows.

use prem_memsim::splitmix64;

/// FNV-1a, 64-bit: small, dependency-free, stable across platforms.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Derives a cell seed from the cell's canonical key string and the base
/// seed of its seed-axis coordinate. The SplitMix64 finalizer diffuses the
/// structured FNV output, so related keys (e.g. `seed 11` vs `seed 12`)
/// land far apart in seed space.
pub fn derive_seed(key: &str, base_seed: u64) -> u64 {
    splitmix64(fnv1a(key.as_bytes()) ^ base_seed)
}

/// Stable content fingerprint of a canonical key string: the same FNV-1a +
/// SplitMix64 machinery as [`derive_seed`], without a base seed. The
/// run-plan layer shards and addresses its result cache with this; like
/// cell seeds, fingerprints are a pure function of the key bytes, so they
/// are identical across processes, platforms and runs.
pub fn fingerprint(key: &str) -> u64 {
    fingerprint_bytes(key.as_bytes())
}

/// [`fingerprint`] over raw bytes — the same FNV-1a + SplitMix64 chain,
/// usable for non-UTF-8 content. The persistent run store checksums its
/// record payloads with this, keeping the whole cache subsystem on one
/// pinned hash.
pub fn fingerprint_bytes(bytes: &[u8]) -> u64 {
    splitmix64(fnv1a(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_across_calls() {
        assert_eq!(
            derive_seed("bicg|tx1|lru|isolation", 11),
            derive_seed("bicg|tx1|lru|isolation", 11)
        );
    }

    #[test]
    fn sensitive_to_every_coordinate() {
        let base = derive_seed("bicg|tx1|lru|isolation", 11);
        assert_ne!(base, derive_seed("bicg|tx1|lru|isolation", 12));
        assert_ne!(base, derive_seed("bicg|tx2|lru|isolation", 11));
        assert_ne!(base, derive_seed("bicg|tx1|lru|interference", 11));
        assert_ne!(base, derive_seed("mvt|tx1|lru|isolation", 11));
    }

    #[test]
    fn fingerprint_is_stable_and_seedless() {
        assert_eq!(
            fingerprint("bicg(128x128)|tx1|llc-r8"),
            fingerprint("bicg(128x128)|tx1|llc-r8")
        );
        assert_ne!(
            fingerprint("bicg(128x128)|tx1|llc-r8"),
            fingerprint("bicg(128x128)|tx1|llc-r1")
        );
        // fingerprint(k) == derive_seed(k, 0) by construction; pinning the
        // equality keeps the two derivations on the same machinery.
        assert_eq!(fingerprint("x"), derive_seed("x", 0));
    }

    #[test]
    fn known_vector_pins_the_hash() {
        // Pins FNV-1a + SplitMix64 so an accidental algorithm change (which
        // would silently re-seed every published matrix) fails loudly.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
    }
}
