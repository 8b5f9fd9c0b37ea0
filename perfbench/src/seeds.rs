//! Workload inputs derived from the `--seed` argument.
//!
//! [`DEFAULT_SEED`] reproduces the exact inputs of `figures all`; any
//! other seed derives a fresh harness seed set, interference and mei seeds
//! and serve-mixed request stream from it.

use prem_harness::seed::derive_seed;
use prem_report::DEFAULT_SEEDS;

/// The seed that reproduces `figures all` byte for byte.
pub const DEFAULT_SEED: u64 = 0;

/// A seed kept out of every tuning run, for checking later claims;
/// `BENCHMARK.json` names it.
#[cfg(test)]
pub const HELD_OUT_SEED: u64 = 7919;

/// Seeds `figures all` hard-codes for the interference sweep and the mei
/// dissection.
const DEFAULT_INTERFERENCE_SEED: u64 = 11;
const DEFAULT_MEI_SEED: u64 = 7;

/// The generated inputs of the figure workloads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Inputs {
    pub harness_seeds: Vec<u64>,
    pub interference_seed: u64,
    pub mei_seed: u64,
}

impl Inputs {
    pub fn from_seed(seed: u64) -> Inputs {
        if seed == DEFAULT_SEED {
            return Inputs {
                harness_seeds: DEFAULT_SEEDS.to_vec(),
                interference_seed: DEFAULT_INTERFERENCE_SEED,
                mei_seed: DEFAULT_MEI_SEED,
            };
        }
        let mut rng = Rng::new(derive_seed("perfbench/figures", seed));
        let mut harness_seeds: Vec<u64> = Vec::new();
        while harness_seeds.len() < DEFAULT_SEEDS.len() {
            let s = rng.below(1_000_000) + 1;
            if !harness_seeds.contains(&s) {
                harness_seeds.push(s);
            }
        }
        Inputs {
            harness_seeds,
            interference_seed: rng.below(1_000_000) + 1,
            mei_seed: rng.below(1_000_000) + 1,
        }
    }
}

/// SplitMix64: a tiny, fully specified generator, so a seed names the same
/// inputs on every platform and toolchain.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A uniformly chosen element of `xs` (non-empty).
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_reproduces_the_figures_inputs() {
        let inputs = Inputs::from_seed(DEFAULT_SEED);
        assert_eq!(inputs.harness_seeds, vec![11, 23, 47]);
        assert_eq!((inputs.interference_seed, inputs.mei_seed), (11, 7));
    }

    #[test]
    fn other_seeds_derive_distinct_deterministic_inputs() {
        let a = Inputs::from_seed(HELD_OUT_SEED);
        assert_eq!(a, Inputs::from_seed(HELD_OUT_SEED));
        assert_ne!(a, Inputs::from_seed(HELD_OUT_SEED + 1));
        assert_ne!(a, Inputs::from_seed(DEFAULT_SEED));
        let mut s = a.harness_seeds.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 3);
        let manifest = include_str!("../../BENCHMARK.json");
        assert!(manifest.contains(&format!("held-out seed {HELD_OUT_SEED}")));
    }
}
