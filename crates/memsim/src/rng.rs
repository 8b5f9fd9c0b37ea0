//! Deterministic pseudo-random number generation.
//!
//! Experiments must be bit-reproducible for a given seed, and the biased
//! random replacement policy needs weighted sampling with a stable stream.
//! Rather than pin an external crate's stream semantics, the workspace ships
//! this small, audited implementation of SplitMix64 (seeding) and
//! xoshiro256\*\* (generation) — the de-facto standard non-cryptographic
//! generators.

/// SplitMix64 stream, used to expand a 64-bit seed into generator state.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit value of the stream.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256\*\* generator: fast, 256-bit state, passes BigCrush.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed (expanded via SplitMix64).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Rng {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Returns the next 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Lemire's nearly-divisionless method with rejection for exactness.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Picks an index in `[0, weights.len())` with probability proportional
    /// to `weights[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    #[inline]
    pub fn pick_weighted(&mut self, weights: &[u32]) -> usize {
        let total: u64 = weights.iter().map(|&w| w as u64).sum();
        assert!(total > 0, "weights must not sum to zero");
        self.pick_weighted_of(weights, total)
    }

    /// [`Rng::pick_weighted`] with the weight sum `total` supplied by a
    /// caller that computed it once (the biased-random replacer draws on
    /// every miss). Same draw: `below(total)`, then the same scan.
    #[inline]
    pub(crate) fn pick_weighted_of(&mut self, weights: &[u32], total: u64) -> usize {
        let mut x = self.below(total);
        for (i, &w) in weights.iter().enumerate() {
            let w = w as u64;
            if x < w {
                return i;
            }
            x -= w;
        }
        unreachable!("weighted pick out of range")
    }

    /// Bernoulli draw with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = Rng::seed_from_u64(7);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = rng.below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..1000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn weighted_pick_matches_weights() {
        // Weights (1,1,3,1)/6: index 2 should be picked ~50% of the time.
        let mut rng = Rng::seed_from_u64(9);
        let weights = [1u32, 1, 3, 1];
        let mut counts = [0u32; 4];
        let n = 60_000;
        for _ in 0..n {
            counts[rng.pick_weighted(&weights)] += 1;
        }
        let frac2 = counts[2] as f64 / n as f64;
        assert!((frac2 - 0.5).abs() < 0.01, "bad-way fraction {frac2}");
        for i in [0usize, 1, 3] {
            let f = counts[i] as f64 / n as f64;
            assert!((f - 1.0 / 6.0).abs() < 0.01, "way {i} fraction {f}");
        }
    }

    #[test]
    fn weighted_pick_skips_zero_weights() {
        let mut rng = Rng::seed_from_u64(11);
        for _ in 0..100 {
            let i = rng.pick_weighted(&[0, 5, 0, 5]);
            assert!(i == 1 || i == 3);
        }
    }

    #[test]
    #[should_panic]
    fn weighted_pick_rejects_all_zero() {
        Rng::seed_from_u64(0).pick_weighted(&[0, 0]);
    }

    #[test]
    fn chance_estimates_probability() {
        let mut rng = Rng::seed_from_u64(5);
        let hits = (0..100_000).filter(|_| rng.chance(0.25)).count();
        let p = hits as f64 / 100_000.0;
        assert!((p - 0.25).abs() < 0.01);
    }
}
