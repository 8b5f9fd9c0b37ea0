//! Cache replacement policies.
//!
//! The policy under study is [`Policy::BiasedRandom`]: NVIDIA GPU caches pick
//! eviction victims at random with a *non-uniform* per-way distribution. Mei
//! et al. (TPDS'17, cited as \[13\] by the paper) measured, on a 4-way cache,
//! victim probabilities of (1/6, 1/6, 3/6, 1/6): one "bad" way is selected
//! half of the time. [`Policy::nvidia_tegra`] builds exactly that
//! configuration. LRU/FIFO/PLRU/uniform-random are provided for ablations and
//! for validating the paper's "LRU would be unproblematic" claim.

use crate::rng::Rng;

/// A replacement policy selection for a set-associative cache.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Evict the least-recently-used way.
    Lru,
    /// Evict ways in fill order (round-robin).
    Fifo,
    /// Tree pseudo-LRU (requires a power-of-two way count).
    PseudoLru,
    /// Uniform random victim.
    Random,
    /// Random victim with per-way weights (the NVIDIA-like policy).
    ///
    /// `weights[w]` is proportional to the probability that way `w` is chosen
    /// as the victim on a fill into a full set.
    BiasedRandom {
        /// Relative victim-selection weight of each way.
        weights: Vec<u32>,
    },
    /// Random victim among all ways except the most recently used one.
    Nmru,
    /// Static re-reference interval prediction (SRRIP, Jaleel et al.,
    /// ISCA'10) with 2-bit re-reference prediction values: fills insert at
    /// RRPV 2, hits promote to 0, victims are ways at RRPV 3 (aging all
    /// ways until one qualifies). Deterministic and scan-resistant — an
    /// interesting "what if the vendor shipped a smarter policy" ablation.
    Srrip,
}

impl Policy {
    /// The biased-random policy measured on NVIDIA Tegra GPU caches by Mei et
    /// al.: 4 ways with victim weights (1, 1, 3, 1)/6 — way 2 is the "bad
    /// way" chosen with probability 1/2.
    pub fn nvidia_tegra() -> Self {
        Policy::nvidia_like(4)
    }

    /// Generalizes the Mei et al. measurement to an arbitrary associativity:
    /// one "bad" way (at index `ways / 2`) is the victim half of the time,
    /// the remaining probability mass is spread uniformly. For `ways = 4`
    /// this is exactly [`Policy::nvidia_tegra`]'s (1, 1, 3, 1)/6. Used by
    /// the wider-LLC platform presets (TX2- and Xavier-class SoCs), whose
    /// vendors never published replacement details either.
    pub fn nvidia_like(ways: usize) -> Self {
        assert!(ways >= 1, "cache must have at least one way");
        let mut weights = vec![1u32; ways];
        if ways > 1 {
            weights[ways / 2] = (ways - 1) as u32;
        }
        Policy::BiasedRandom { weights }
    }

    /// Human-readable short name (used in reports).
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Lru => "lru",
            Policy::Fifo => "fifo",
            Policy::PseudoLru => "plru",
            Policy::Random => "random",
            Policy::BiasedRandom { .. } => "biased-random",
            Policy::Nmru => "nmru",
            Policy::Srrip => "srrip",
        }
    }

    /// Validates the policy against a way count.
    ///
    /// # Errors
    ///
    /// Returns a message when the policy cannot drive `ways` ways (weight
    /// vector length mismatch, all-zero weights, or non-power-of-two PLRU).
    pub fn validate(&self, ways: usize) -> Result<(), String> {
        match self {
            Policy::BiasedRandom { weights } => {
                if weights.len() != ways {
                    return Err(format!(
                        "biased-random needs {ways} weights, got {}",
                        weights.len()
                    ));
                }
                if weights.iter().all(|&w| w == 0) {
                    return Err("biased-random weights must not all be zero".into());
                }
                Ok(())
            }
            Policy::PseudoLru => {
                if ways.is_power_of_two() {
                    Ok(())
                } else {
                    Err(format!("pseudo-LRU requires power-of-two ways, got {ways}"))
                }
            }
            _ => Ok(()),
        }
    }

    /// Whether victim selection ever consumes the cache RNG.
    ///
    /// LRU, FIFO, tree-PLRU and SRRIP are pure functions of the access
    /// history — reseeding the cache cannot change any outcome — while
    /// the random family (uniform, biased, NMRU's random-except-MRU pick)
    /// draws from the RNG on every eviction from a full set. Seed-
    /// invariance lets replay-derived what-if sweeps share one replay
    /// across a deterministic policy's whole seed axis.
    pub fn seed_sensitive(&self) -> bool {
        match self {
            Policy::Random | Policy::BiasedRandom { .. } | Policy::Nmru => true,
            Policy::Lru | Policy::Fifo | Policy::PseudoLru | Policy::Srrip => false,
        }
    }

    /// Whether a hit leaves every later victim choice unchanged.
    ///
    /// Uniform and biased random pick victims from the RNG alone, and FIFO
    /// from fill order; none of them reads which lines were hit. LRU,
    /// tree-PLRU, NMRU and SRRIP all record hits in the state their victim
    /// choice reads. A simulator may therefore skip, and merely count, the
    /// hits of an oblivious policy: the misses, fills, evictions and RNG
    /// draws that follow are the same.
    pub fn hit_oblivious(&self) -> bool {
        match self {
            Policy::Random | Policy::BiasedRandom { .. } | Policy::Fifo => true,
            Policy::Lru | Policy::PseudoLru | Policy::Nmru | Policy::Srrip => false,
        }
    }

    /// Indices of the "good" ways: ways whose victim probability does not
    /// exceed the uniform share. For the Tegra weights (1,1,3,1) these are
    /// ways {0, 1, 3}; for symmetric policies every way is good.
    pub fn good_ways(&self, ways: usize) -> Vec<usize> {
        match self {
            Policy::BiasedRandom { weights } => {
                let total: u64 = weights.iter().map(|&w| w as u64).sum();
                (0..ways)
                    .filter(|&w| (weights[w] as u64) * (ways as u64) <= total)
                    .collect()
            }
            _ => (0..ways).collect(),
        }
    }
}

/// Per-cache replacement state for all sets.
///
/// State is stored in flat arrays indexed by `set * ways + way` so that one
/// allocation serves the whole cache.
///
/// Public because the `prem-trace` replay fast path drives the exact same
/// replacement state machine (and RNG) as [`Cache`](crate::Cache) over a
/// compiled access stream — single-sourcing the policy semantics is what
/// makes replayed statistics bit-exact by construction.
#[derive(Clone, Debug)]
pub struct Replacer {
    policy: Policy,
    ways: usize,
    /// LRU: monotone access stamps. FIFO: fill stamps.
    stamps: Vec<u64>,
    clock: u64,
    /// PLRU: tree bits per set (`ways - 1` bits packed into a u32).
    plru_bits: Vec<u32>,
    /// NMRU: most recently used way per set.
    mru: Vec<u8>,
    /// SRRIP: 2-bit re-reference prediction value per (set, way).
    rrpv: Vec<u8>,
    /// Biased random: the sum of the victim weights (0 for other
    /// policies), summed once here instead of on every miss.
    weight_total: u64,
    /// Biased random with a weight total of at most [`VICTIM_TABLE_MAX`]:
    /// the way each draw of `below(weight_total)` selects, so a victim is
    /// one table load instead of a scan over the weights. Empty otherwise.
    victim_table: Vec<u8>,
}

/// The largest biased-random weight total [`Replacer`] tabulates. Every
/// preset and ablation weight vector sums far below it; a larger total
/// keeps [`Rng::pick_weighted`]'s scan.
const VICTIM_TABLE_MAX: u64 = 256;

impl Replacer {
    /// Builds replacement state for `sets` × `ways`.
    ///
    /// # Panics
    ///
    /// Panics if the policy cannot drive `ways` ways.
    pub fn new(policy: Policy, sets: usize, ways: usize) -> Self {
        policy
            .validate(ways)
            .expect("invalid policy/way combination");
        let (weight_total, victim_table) = match &policy {
            Policy::BiasedRandom { weights } => {
                let total = weights.iter().map(|&w| u64::from(w)).sum();
                (total, Self::victim_table(weights, total))
            }
            _ => (0, Vec::new()),
        };
        Replacer {
            policy,
            ways,
            stamps: vec![0; sets * ways],
            clock: 0,
            plru_bits: vec![0; sets],
            mru: vec![0; sets],
            rrpv: vec![3; sets * ways],
            weight_total,
            victim_table,
        }
    }

    /// The way [`Rng::pick_weighted`]'s scan selects for each draw
    /// `x < total`, in draw order: `weights[w]` entries of way `w`, ways
    /// ascending. Empty when `total` exceeds [`VICTIM_TABLE_MAX`] or a way
    /// index does not fit a byte.
    fn victim_table(weights: &[u32], total: u64) -> Vec<u8> {
        if total > VICTIM_TABLE_MAX || weights.len() > usize::from(u8::MAX) + 1 {
            return Vec::new();
        }
        let mut table = Vec::with_capacity(total as usize);
        for (w, &n) in weights.iter().enumerate() {
            table.extend(std::iter::repeat_n(w as u8, n as usize));
        }
        table
    }

    /// Records that `way` of `set` was accessed (hit or just filled).
    #[inline]
    pub fn on_access(&mut self, set: usize, way: usize) {
        self.clock += 1;
        match self.policy {
            Policy::Lru => self.stamps[set * self.ways + way] = self.clock,
            Policy::PseudoLru => self.plru_touch(set, way),
            Policy::Nmru => self.mru[set] = way as u8,
            Policy::Srrip => self.rrpv[set * self.ways + way] = 0,
            Policy::Fifo | Policy::Random | Policy::BiasedRandom { .. } => {}
        }
    }

    /// Records that `way` of `set` was filled with a new line.
    #[inline]
    pub fn on_fill(&mut self, set: usize, way: usize) {
        self.clock += 1;
        match self.policy {
            Policy::Lru => self.stamps[set * self.ways + way] = self.clock,
            Policy::Fifo => self.stamps[set * self.ways + way] = self.clock,
            Policy::PseudoLru => self.plru_touch(set, way),
            Policy::Nmru => self.mru[set] = way as u8,
            Policy::Srrip => self.rrpv[set * self.ways + way] = 2,
            Policy::Random | Policy::BiasedRandom { .. } => {}
        }
    }

    /// Chooses a victim way in a full `set`.
    ///
    /// SRRIP mutates aging state, so this takes `&mut self`.
    #[inline]
    pub fn victim(&mut self, set: usize, rng: &mut Rng) -> usize {
        match &self.policy {
            Policy::Srrip => {
                let base = set * self.ways;
                loop {
                    if let Some(w) = (0..self.ways).find(|&w| self.rrpv[base + w] >= 3) {
                        return w;
                    }
                    for w in 0..self.ways {
                        self.rrpv[base + w] += 1;
                    }
                }
            }
            Policy::Lru | Policy::Fifo => {
                let base = set * self.ways;
                (0..self.ways)
                    .min_by_key(|&w| self.stamps[base + w])
                    .expect("cache has at least one way")
            }
            Policy::PseudoLru => self.plru_victim(set),
            Policy::Random => rng.below(self.ways as u64) as usize,
            Policy::BiasedRandom { weights } => {
                if self.victim_table.is_empty() {
                    rng.pick_weighted_of(weights, self.weight_total)
                } else {
                    // The scan's draw, looked up.
                    usize::from(self.victim_table[rng.below(self.weight_total) as usize])
                }
            }
            Policy::Nmru => {
                if self.ways == 1 {
                    0
                } else {
                    let mru = self.mru[set] as usize;
                    let pick = rng.below(self.ways as u64 - 1) as usize;
                    if pick >= mru {
                        pick + 1
                    } else {
                        pick
                    }
                }
            }
        }
    }

    /// Tree-PLRU touch: flip the bits on the path to `way` to point away.
    fn plru_touch(&mut self, set: usize, way: usize) {
        let mut node = 0usize; // root of the implicit tree
        let mut lo = 0usize;
        let mut hi = self.ways;
        let bits = &mut self.plru_bits[set];
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if way < mid {
                // went left: make the bit point right
                *bits |= 1 << node;
                node = 2 * node + 1;
                hi = mid;
            } else {
                *bits &= !(1 << node);
                node = 2 * node + 2;
                lo = mid;
            }
        }
    }

    /// Tree-PLRU victim: follow the bits.
    fn plru_victim(&self, set: usize) -> usize {
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = self.ways;
        let bits = self.plru_bits[set];
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if bits & (1 << node) != 0 {
                // bit points right
                node = 2 * node + 2;
                lo = mid;
            } else {
                node = 2 * node + 1;
                hi = mid;
            }
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::seed_from_u64(1234)
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut r = Replacer::new(Policy::Lru, 1, 4);
        for w in 0..4 {
            r.on_fill(0, w);
        }
        r.on_access(0, 0); // 1 is now LRU
        assert_eq!(r.victim(0, &mut rng()), 1);
    }

    #[test]
    fn fifo_ignores_hits() {
        let mut r = Replacer::new(Policy::Fifo, 1, 4);
        for w in 0..4 {
            r.on_fill(0, w);
        }
        r.on_access(0, 0); // hit must not save way 0 under FIFO
        assert_eq!(r.victim(0, &mut rng()), 0);
    }

    #[test]
    fn plru_victim_avoids_recent() {
        let mut r = Replacer::new(Policy::PseudoLru, 1, 4);
        for w in 0..4 {
            r.on_fill(0, w);
        }
        // Most recent fill is way 3; PLRU must not pick it.
        assert_ne!(r.victim(0, &mut rng()), 3);
    }

    #[test]
    fn plru_full_rotation_hits_all_ways() {
        // Repeatedly access the victim: PLRU must cycle through all ways.
        let mut r = Replacer::new(Policy::PseudoLru, 1, 8);
        let mut seen = [false; 8];
        let mut g = rng();
        for _ in 0..8 {
            let v = r.victim(0, &mut g);
            seen[v] = true;
            r.on_fill(0, v);
        }
        assert!(seen.iter().all(|&s| s), "seen = {seen:?}");
    }

    #[test]
    fn nmru_never_picks_mru() {
        let mut r = Replacer::new(Policy::Nmru, 1, 4);
        let mut g = rng();
        for w in 0..4 {
            r.on_fill(0, w);
        }
        r.on_access(0, 2);
        for _ in 0..100 {
            assert_ne!(r.victim(0, &mut g), 2);
        }
    }

    #[test]
    fn biased_random_frequency_matches_weights() {
        let mut r = Replacer::new(Policy::nvidia_tegra(), 1, 4);
        let mut g = rng();
        let mut counts = [0u32; 4];
        let n = 60_000;
        for _ in 0..n {
            counts[r.victim(0, &mut g)] += 1;
        }
        let bad = counts[2] as f64 / n as f64;
        assert!((bad - 0.5).abs() < 0.01, "bad-way rate {bad}");
    }

    #[test]
    fn good_ways_for_tegra_policy() {
        assert_eq!(Policy::nvidia_tegra().good_ways(4), vec![0, 1, 3]);
        assert_eq!(Policy::Lru.good_ways(4), vec![0, 1, 2, 3]);
        assert_eq!(Policy::Random.good_ways(2), vec![0, 1]);
    }

    #[test]
    fn nvidia_like_generalizes_tegra() {
        assert_eq!(
            Policy::nvidia_like(4),
            Policy::BiasedRandom {
                weights: vec![1, 1, 3, 1]
            }
        );
        // One bad way at any associativity ≥ 4, picked half of the time.
        // (At 2 ways "half of the time" degenerates to uniform random.)
        for ways in [4usize, 8, 16] {
            let p = Policy::nvidia_like(ways);
            assert!(p.validate(ways).is_ok());
            assert_eq!(p.good_ways(ways).len(), ways - 1, "ways={ways}");
            if let Policy::BiasedRandom { weights } = &p {
                let total: u32 = weights.iter().sum();
                assert_eq!(2 * weights[ways / 2], total, "ways={ways}");
            }
        }
        // Degenerate single-way cache still validates.
        assert!(Policy::nvidia_like(1).validate(1).is_ok());
    }

    #[test]
    fn srrip_evicts_distant_rereference_first() {
        let mut r = Replacer::new(Policy::Srrip, 1, 4);
        let mut g = rng();
        for w in 0..4 {
            r.on_fill(0, w); // all at RRPV 2
        }
        r.on_access(0, 1); // way 1 promoted to RRPV 0
                           // Aging brings ways 0,2,3 to 3 before way 1; victim is the lowest
                           // index among them.
        assert_eq!(r.victim(0, &mut g), 0);
        r.on_fill(0, 0);
        assert_eq!(r.victim(0, &mut g), 2);
    }

    #[test]
    fn srrip_scan_resistant() {
        // A reused line survives a one-shot scan of 3 other lines.
        let mut r = Replacer::new(Policy::Srrip, 1, 4);
        let mut g = rng();
        for w in 0..4 {
            r.on_fill(0, w);
        }
        r.on_access(0, 3); // hot way
        for _ in 0..3 {
            let v = r.victim(0, &mut g);
            assert_ne!(v, 3, "hot way evicted by scan");
            r.on_fill(0, v);
        }
    }

    /// The victim draws of a biased-random replacer next to
    /// [`Rng::pick_weighted`]'s, each from its own copy of one seed.
    fn assert_draws_like_the_scan(weights: Vec<u32>, tabulated: bool) {
        let mut r = Replacer::new(
            Policy::BiasedRandom {
                weights: weights.clone(),
            },
            2,
            weights.len(),
        );
        assert_eq!(!r.victim_table.is_empty(), tabulated, "{weights:?}");
        let (mut a, mut b) = (rng(), rng());
        for draw in 0..20_000 {
            let scanned = b.pick_weighted(&weights);
            assert_eq!(
                r.victim(draw % 2, &mut a),
                scanned,
                "{weights:?} draw {draw}"
            );
        }
        // Both consumed the same stream.
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn tabulated_victims_equal_the_weighted_scan() {
        for ways in [4, 8, 16] {
            let Policy::BiasedRandom { weights } = Policy::nvidia_like(ways) else {
                unreachable!("nvidia_like is biased-random")
            };
            assert_draws_like_the_scan(weights, true);
        }
        // The bias ablation's weights, and a way that is never a victim.
        assert_draws_like_the_scan(vec![1, 1, 9, 1], true);
        assert_draws_like_the_scan(vec![0, 1, 1, 1], true);
        assert_draws_like_the_scan(vec![0, 0, 256, 0], true);
    }

    #[test]
    fn a_weight_total_above_the_bound_keeps_the_scan() {
        assert_draws_like_the_scan(vec![1, 1, 255, 0], false);
        assert_draws_like_the_scan(vec![40_000, 1, 3, 70_000], false);
    }

    #[test]
    fn oblivious_policies_ignore_extra_hits() {
        // Two replacers over one full 4-way set see the same fills, but
        // only one of them sees a stream of hits in between. A policy
        // marked hit-oblivious must pick every victim alike; every other
        // policy must show that hits steer it.
        let policies = [
            Policy::Lru,
            Policy::Fifo,
            Policy::PseudoLru,
            Policy::Random,
            Policy::nvidia_tegra(),
            Policy::BiasedRandom {
                weights: vec![0, 1, 1, 1],
            },
            Policy::Nmru,
            Policy::Srrip,
        ];
        for policy in policies {
            let mut hit = Replacer::new(policy.clone(), 1, 4);
            let mut plain = Replacer::new(policy.clone(), 1, 4);
            for w in 0..4 {
                hit.on_fill(0, w);
                plain.on_fill(0, w);
            }
            let (mut a, mut b) = (rng(), rng());
            let mut hits = Rng::seed_from_u64(99);
            let mut diverged = false;
            for _ in 0..2_000 {
                for _ in 0..hits.below(4) {
                    hit.on_access(0, hits.below(4) as usize);
                }
                let (v, w) = (hit.victim(0, &mut a), plain.victim(0, &mut b));
                diverged |= v != w;
                hit.on_fill(0, v);
                plain.on_fill(0, w);
            }
            assert_eq!(!diverged, policy.hit_oblivious(), "{policy:?}");
        }
    }

    #[test]
    fn validate_rejects_bad_configs() {
        assert!(Policy::BiasedRandom {
            weights: vec![1, 1]
        }
        .validate(4)
        .is_err());
        assert!(Policy::BiasedRandom {
            weights: vec![0, 0]
        }
        .validate(2)
        .is_err());
        assert!(Policy::PseudoLru.validate(3).is_err());
        assert!(Policy::Lru.validate(3).is_ok());
        assert!(Policy::nvidia_tegra().validate(4).is_ok());
    }
}
