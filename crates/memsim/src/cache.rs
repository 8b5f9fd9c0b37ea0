//! Set-associative cache simulator with phase-tagged statistics.
//!
//! The model is line-accurate: every access probes the tag array, misses
//! select a victim through the configured [`Policy`] and install the new
//! line. Nothing about timing lives here — latency is charged by the
//! platform cost model in `prem-gpusim` based on the outcomes this module
//! reports.

use crate::addr::LineAddr;
use crate::replacement::{Policy, Replacer};
use crate::rng::Rng;
use crate::stats::{CacheStats, Phase};
use crate::trace::TraceSink;

/// What an access does to the cache contents.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum AccessKind {
    /// Demand load.
    Read,
    /// Demand store (write-allocate, write-back).
    Write,
    /// Software prefetch: fills like a read, data not consumed.
    Prefetch,
}

/// A line displaced by a fill.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Evicted {
    /// The displaced line.
    pub line: LineAddr,
    /// Whether the line was filled during the current interval — an
    /// eviction of such a line is a *self-eviction* in the paper's sense.
    pub alive: bool,
    /// Whether the line was dirty (causes a writeback).
    pub dirty: bool,
    /// Whether the victim was owned by co-runner (foreign) traffic.
    /// Displacing a foreign line is the aggressor's own problem: it is
    /// neither a self-eviction nor pollution damage, whichever phase
    /// caused the fill.
    pub foreign: bool,
}

/// Outcome of a single cache access.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct AccessOutcome {
    /// `true` when the line was already present.
    pub hit: bool,
    /// The victim displaced by the fill, if the access missed in a full set.
    pub evicted: Option<Evicted>,
    /// The way the line resides in after the access.
    pub way: usize,
}

/// Geometry and policy of a cache.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    size_bytes: usize,
    ways: usize,
    line_bytes: usize,
    policy: Policy,
    seed: u64,
    index_hash: bool,
}

impl CacheConfig {
    /// Creates a configuration; validation happens in [`Cache::new`].
    ///
    /// Defaults: LRU policy, seed 0xC0FFEE, modulo set indexing.
    pub fn new(size_bytes: usize, ways: usize, line_bytes: usize) -> Self {
        CacheConfig {
            size_bytes,
            ways,
            line_bytes,
            policy: Policy::Lru,
            seed: 0xC0FFEE,
            index_hash: false,
        }
    }

    /// Enables XOR set-index hashing. NVIDIA L2 caches hash upper address
    /// bits into the set index (observed by Mei et al.), which spreads
    /// power-of-two-strided accesses (e.g. matrix columns) across sets
    /// instead of aliasing them into a few.
    pub fn index_hash(mut self, enable: bool) -> Self {
        self.index_hash = enable;
        self
    }

    /// Whether XOR set-index hashing is enabled.
    pub fn has_index_hash(&self) -> bool {
        self.index_hash
    }

    /// Sets the replacement policy.
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the RNG seed used by randomized policies.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The RNG seed randomized policies draw from (trace headers persist
    /// it so replay can rebuild an identically seeded cache).
    pub fn seed_value(&self) -> u64 {
        self.seed
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> usize {
        self.size_bytes
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> usize {
        self.line_bytes
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.ways * self.line_bytes)
    }

    /// Total number of lines.
    pub fn lines(&self) -> usize {
        self.size_bytes / self.line_bytes
    }

    /// The configured replacement policy.
    pub fn policy_ref(&self) -> &Policy {
        &self.policy
    }

    /// Set index of `line` under this geometry (modulo or XOR-hashed,
    /// matching [`Cache::set_of`]). Exposed on the config so trace
    /// analyses can reconstruct set residency from a captured header
    /// without instantiating a cache. Recomputes the set count (an integer
    /// division) per call; [`Cache::set_of`] uses the mask and shift
    /// [`Cache::new`] derives once.
    pub fn set_index(&self, line: LineAddr) -> usize {
        let sets = self.sets();
        let raw = line.raw();
        if self.index_hash {
            let bits = sets.trailing_zeros();
            let folded = raw ^ (raw >> bits) ^ (raw >> (2 * bits));
            (folded as usize) & (sets - 1)
        } else {
            (raw as usize) & (sets - 1)
        }
    }

    /// Capacity (bytes) of the "good" ways only — the usable capacity under
    /// the paper's interval-sizing rule (§IV): `size × good_ways / ways`.
    pub fn good_capacity_bytes(&self) -> usize {
        let good = self.policy.good_ways(self.ways).len();
        self.size_bytes / self.ways * good
    }

    /// Validates the geometry/policy combination without building a
    /// cache — the check [`Cache::new`] panics on. Public so boundaries
    /// that deserialize configs from untrusted bytes (the trace format)
    /// can reject corrupt geometry as a recoverable error instead of
    /// panicking downstream.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !self.line_bytes.is_power_of_two() || self.line_bytes == 0 {
            return Err(format!(
                "line size {} must be a power of two",
                self.line_bytes
            ));
        }
        if self.ways == 0 {
            return Err("cache must have at least one way".into());
        }
        if self.size_bytes == 0 || !self.size_bytes.is_multiple_of(self.ways * self.line_bytes) {
            return Err(format!(
                "size {} not divisible into {} ways of {}-byte lines",
                self.size_bytes, self.ways, self.line_bytes
            ));
        }
        let sets = self.sets();
        if !sets.is_power_of_two() {
            return Err(format!("set count {sets} must be a power of two"));
        }
        self.policy.validate(self.ways)
    }
}

/// Sentinel tag marking an empty slot. Doubles as the validity encoding:
/// a slot is resident exactly when its tag differs from the sentinel, so
/// the hot lookup is a single tag compare with no side-array load. The
/// fill path rejects the sentinel as a real address, keeping the encoding
/// unambiguous (line addresses in this simulator start far below it).
const EMPTY_TAG: u64 = u64::MAX;

/// Packed per-slot metadata bits (one byte per slot).
mod meta {
    /// The line was written since fill (evicting it costs a writeback).
    pub const DIRTY: u8 = 1 << 0;
    /// The line is owned by co-runner (foreign) traffic.
    pub const FOREIGN: u8 = 1 << 1;
    /// The line was filled during the current PREM interval — displacing
    /// it is a self-eviction (or pollution, by the evictor's phase).
    pub const ALIVE: u8 = 1 << 2;
}

/// A set-associative cache.
///
/// Storage is the packed hot-path layout: a sentinel-tagged flat `u64` tag
/// array (validity folded into the tag: `u64::MAX` marks an empty slot)
/// plus one metadata byte per slot carrying the dirty/foreign/alive bits.
/// The hit path touches only the tag lane and returns before any miss
/// bookkeeping; [`Replacer`]/[`Rng`] interaction is identical to the
/// unpacked layout, so replay equivalence holds by construction.
///
/// ```
/// use prem_memsim::{Cache, CacheConfig, AccessKind, Phase, Policy, LineAddr};
/// let mut c = Cache::new(CacheConfig::new(1024, 2, 64).policy(Policy::Lru));
/// let miss = c.access(LineAddr::new(3), AccessKind::Read, Phase::MPhase);
/// assert!(!miss.hit);
/// let hit = c.access(LineAddr::new(3), AccessKind::Read, Phase::CPhase);
/// assert!(hit.hit);
/// assert_eq!(c.stats().cpmr(), 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    /// `sets - 1`: the set count is a power of two, so indexing is a mask.
    set_mask: usize,
    /// `log2(sets)`: the fold distance of the XOR index hash.
    hash_shift: u32,
    /// Raw line addresses, [`EMPTY_TAG`] where the slot is empty.
    tags: Vec<u64>,
    /// Packed [`meta`] bits, slot-parallel with `tags`.
    meta: Vec<u8>,
    /// Slots holding [`EMPTY_TAG`]. Only a fill into an empty way lowers
    /// it and only [`Cache::invalidate_all`] raises it, so once it reaches
    /// zero a miss skips the empty-way probe and goes straight to the
    /// policy's victim.
    empty_slots: usize,
    replacer: Replacer,
    rng: Rng,
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache from `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (non-power-of-two geometry or
    /// a policy/way mismatch); configurations are static experiment inputs,
    /// so failing fast is preferable to threading errors through every run.
    pub fn new(cfg: CacheConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid cache config: {e}");
        }
        let sets = cfg.sets();
        let slots = sets * cfg.ways;
        let replacer = Replacer::new(cfg.policy_ref().clone(), sets, cfg.ways);
        let rng = Rng::seed_from_u64(cfg.seed);
        Cache {
            cfg,
            set_mask: sets - 1,
            hash_shift: sets.trailing_zeros(),
            tags: vec![EMPTY_TAG; slots],
            meta: vec![0; slots],
            empty_slots: slots,
            replacer,
            rng,
            stats: CacheStats::default(),
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Set index for a line: [`CacheConfig::set_index`] without its
    /// per-call division, since every access goes through here.
    #[inline(always)]
    pub fn set_of(&self, line: LineAddr) -> usize {
        let raw = line.raw();
        let folded = if self.cfg.index_hash {
            raw ^ (raw >> self.hash_shift) ^ (raw >> (2 * self.hash_shift))
        } else {
            raw
        };
        (folded as usize) & self.set_mask
    }

    /// The single tag-scan used by every lookup ([`Cache::access`],
    /// [`Cache::way_of`], [`Cache::contains`] and the invalid-way probe):
    /// finds the lowest way of `set_tags` (one set's tag lane) whose tag
    /// equals `raw`.
    ///
    /// The set is scanned in fixed 4-wide chunks plus a remainder: each
    /// chunk folds four compares into a bitmask with no bounds checks and
    /// no data-dependent branch inside it, and the first chunk holding a
    /// match yields its lowest set bit. One path serves every
    /// associativity — 1 to 3 ways are all remainder, 4 and 8 are whole
    /// chunks, 6 and 16 mix both — with no branch on a particular count.
    #[inline(always)]
    fn find_way(set_tags: &[u64], raw: u64) -> Option<usize> {
        let mut chunks = set_tags.chunks_exact(4);
        let mut base = 0;
        for c in &mut chunks {
            let mask = u32::from(c[0] == raw)
                | u32::from(c[1] == raw) << 1
                | u32::from(c[2] == raw) << 2
                | u32::from(c[3] == raw) << 3;
            if mask != 0 {
                return Some(base + mask.trailing_zeros() as usize);
            }
            base += 4;
        }
        chunks
            .remainder()
            .iter()
            .position(|&t| t == raw)
            .map(|w| base + w)
    }

    /// The tag lane of the set starting at slot `base`.
    #[inline(always)]
    fn set_tags(&self, base: usize) -> &[u64] {
        &self.tags[base..base + self.cfg.ways]
    }

    /// The way holding `line`, if resident. Does not perturb any state.
    pub fn way_of(&self, line: LineAddr) -> Option<usize> {
        let raw = line.raw();
        if raw == EMPTY_TAG {
            return None;
        }
        Self::find_way(self.set_tags(self.set_of(line) * self.cfg.ways), raw)
    }

    /// Whether `line` is resident. Does not perturb any state.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.way_of(line).is_some()
    }

    /// Number of valid lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != EMPTY_TAG).count()
    }

    /// Performs one access, updating contents, replacement state and
    /// statistics.
    ///
    /// # Panics
    ///
    /// Panics on the reserved sentinel address `u64::MAX`, the tag that
    /// marks an empty slot; no modeled address space reaches it.
    #[inline]
    pub fn access(&mut self, line: LineAddr, kind: AccessKind, phase: Phase) -> AccessOutcome {
        let raw = line.raw();
        assert_ne!(
            raw, EMPTY_TAG,
            "line address collides with the empty-slot sentinel"
        );
        let set = self.set_of(line);
        let base = set * self.cfg.ways;
        if let Some(way) = Self::find_way(self.set_tags(base), raw) {
            self.stats.phase_mut(phase).hits += 1;
            if kind == AccessKind::Write {
                self.meta[base + way] |= meta::DIRTY;
            }
            self.replacer.on_access(set, way);
            return AccessOutcome {
                hit: true,
                evicted: None,
                way,
            };
        }

        self.stats.phase_mut(phase).misses += 1;
        // Prefer an invalid way; otherwise ask the policy for a victim. A
        // cache with no empty slot left has no invalid way to find.
        let free = if self.empty_slots == 0 {
            None
        } else {
            Self::find_way(self.set_tags(base), EMPTY_TAG)
        };
        let (way, evicted) = match free {
            Some(w) => {
                self.empty_slots -= 1;
                (w, None)
            }
            None => {
                let w = self.replacer.victim(set, &mut self.rng);
                let m = self.meta[base + w];
                // Displacement damage is attributed by the *victim's*
                // owner: losing an alive GPU line to the interval's own
                // fills is the paper's self-eviction phenomenon, losing it
                // to a co-runner fill is pollution, and a displaced
                // co-runner line is the aggressor's own problem (neither).
                // The flags are added as 0/1, not branched on.
                let own_alive = u64::from(m & (meta::ALIVE | meta::FOREIGN) == meta::ALIVE);
                let by_corunner = u64::from(phase == Phase::Corunner);
                self.stats.evictions += 1;
                self.stats.corunner_evictions += own_alive & by_corunner;
                self.stats.self_evictions += own_alive & (by_corunner ^ 1);
                self.stats.writebacks += u64::from(m & meta::DIRTY != 0);
                let ev = Evicted {
                    line: LineAddr::new(self.tags[base + w]),
                    alive: m & meta::ALIVE != 0,
                    dirty: m & meta::DIRTY != 0,
                    foreign: m & meta::FOREIGN != 0,
                };
                (w, Some(ev))
            }
        };

        self.tags[base + way] = raw;
        self.meta[base + way] = meta::ALIVE
            | if kind == AccessKind::Write {
                meta::DIRTY
            } else {
                0
            }
            | if phase == Phase::Corunner {
                meta::FOREIGN
            } else {
                0
            };
        self.replacer.on_fill(set, way);

        AccessOutcome {
            hit: false,
            evicted,
            way,
        }
    }

    /// [`Cache::access`] with instrumentation: the completed outcome is
    /// reported to `sink` ([`TraceSink::on_access`]). With
    /// [`crate::NullSink`] the callback monomorphizes to nothing and this
    /// is exactly [`Cache::access`].
    pub fn access_traced<S: TraceSink>(
        &mut self,
        line: LineAddr,
        kind: AccessKind,
        phase: Phase,
        sink: &mut S,
    ) -> AccessOutcome {
        let outcome = self.access(line, kind, phase);
        sink.on_access(line, kind, phase, &outcome);
        outcome
    }

    /// Credits `hits` additional hit accesses to `phase` without touching
    /// contents, replacement state or the RNG.
    ///
    /// This is the statistics half of the executor's prefetch-round
    /// crediting: a round's prefetches into an LLC set that missed nothing
    /// in the round before are provably hits whose only statistical effect
    /// is `hits += ops` in the round's phase — the executor accounts them
    /// analytically and settles the ledger here. Callers are responsible
    /// for the proof obligation (the credited accesses must be guaranteed
    /// hits that would change no other observable state).
    pub fn credit_repeated_hits(&mut self, phase: Phase, hits: u64) {
        self.stats.phase_mut(phase).hits += hits;
    }

    /// Marks the start of a new PREM interval: lines filled from now on are
    /// "alive" for self-eviction accounting; previously resident lines are
    /// treated as dead (evicting them is not a self-eviction).
    pub fn begin_interval(&mut self) {
        // One pass over the (small) metadata lane: at TX1 geometry this is
        // 2048 bytes once per interval, noise next to the interval's work.
        self.meta.iter_mut().for_each(|m| *m &= !meta::ALIVE);
    }

    /// Invalidates every line (no writeback accounting) — the only way a
    /// slot becomes empty again.
    pub fn invalidate_all(&mut self) {
        self.tags.iter_mut().for_each(|t| *t = EMPTY_TAG);
        self.meta.iter_mut().for_each(|m| *m = 0);
        self.empty_slots = self.tags.len();
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Clears statistics (contents are untouched).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Reseeds the victim-selection RNG (for multi-seed experiments).
    pub fn reseed(&mut self, seed: u64) {
        self.rng = Rng::seed_from_u64(seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_lru() -> Cache {
        // 4 sets × 2 ways × 64B lines = 512 B
        Cache::new(CacheConfig::new(512, 2, 64))
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small_lru();
        let l = LineAddr::new(5);
        assert!(!c.access(l, AccessKind::Read, Phase::Unphased).hit);
        assert!(c.access(l, AccessKind::Read, Phase::Unphased).hit);
        assert_eq!(c.stats().unphased.hits, 1);
        assert_eq!(c.stats().unphased.misses, 1);
    }

    #[test]
    fn set_mapping_is_modulo() {
        let c = small_lru();
        assert_eq!(c.set_of(LineAddr::new(0)), 0);
        assert_eq!(c.set_of(LineAddr::new(5)), 1);
        assert_eq!(c.set_of(LineAddr::new(7)), 3);
    }

    #[test]
    fn fills_use_invalid_ways_first() {
        let mut c = small_lru();
        // Two lines mapping to set 0: lines 0 and 4.
        let a = c.access(LineAddr::new(0), AccessKind::Read, Phase::Unphased);
        let b = c.access(LineAddr::new(4), AccessKind::Read, Phase::Unphased);
        assert!(a.evicted.is_none() && b.evicted.is_none());
        assert_ne!(a.way, b.way);
        assert!(c.contains(LineAddr::new(0)) && c.contains(LineAddr::new(4)));
    }

    #[test]
    fn lru_evicts_oldest_in_set() {
        let mut c = small_lru();
        c.access(LineAddr::new(0), AccessKind::Read, Phase::Unphased);
        c.access(LineAddr::new(4), AccessKind::Read, Phase::Unphased);
        c.access(LineAddr::new(0), AccessKind::Read, Phase::Unphased); // refresh 0
        let out = c.access(LineAddr::new(8), AccessKind::Read, Phase::Unphased);
        let ev = out.evicted.expect("full set must evict");
        assert_eq!(ev.line, LineAddr::new(4));
        assert!(c.contains(LineAddr::new(0)));
        assert!(!c.contains(LineAddr::new(4)));
    }

    #[test]
    fn write_sets_dirty_and_writeback_counted() {
        let mut c = small_lru();
        c.access(LineAddr::new(0), AccessKind::Write, Phase::Unphased);
        c.access(LineAddr::new(4), AccessKind::Read, Phase::Unphased);
        // Evict line 0 (LRU) — it is dirty, so a writeback happens.
        let out = c.access(LineAddr::new(8), AccessKind::Read, Phase::Unphased);
        assert!(out.evicted.expect("evicts").dirty);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn self_eviction_only_within_interval() {
        let mut c = small_lru();
        c.access(LineAddr::new(0), AccessKind::Read, Phase::MPhase);
        c.access(LineAddr::new(4), AccessKind::Read, Phase::MPhase);
        c.begin_interval();
        //

        // Lines 0 and 4 are now "dead"; evicting one is not a self-eviction.
        c.access(LineAddr::new(8), AccessKind::Read, Phase::MPhase);
        assert_eq!(c.stats().self_evictions, 0);
        assert_eq!(c.stats().evictions, 1);
        // Refresh dead line 4 so the alive line 8 becomes the LRU victim:
        // evicting it *is* a self-eviction.
        c.access(LineAddr::new(4), AccessKind::Read, Phase::MPhase);
        let out = c.access(LineAddr::new(12), AccessKind::Read, Phase::MPhase);
        assert_eq!(out.evicted.expect("evicts").line, LineAddr::new(8));
        assert_eq!(c.stats().evictions, 2);
        assert_eq!(c.stats().self_evictions, 1);
    }

    #[test]
    fn corunner_fill_pollutes_without_self_eviction() {
        let mut c = small_lru();
        // The GPU stages two alive lines into set 0...
        c.access(LineAddr::new(0), AccessKind::Read, Phase::MPhase);
        c.access(LineAddr::new(4), AccessKind::Read, Phase::MPhase);
        // ...and a co-runner thrashes the set: the displaced alive line is
        // pollution damage, not a self-eviction, and the co-runner's own
        // miss stays out of the GPU totals.
        c.access(LineAddr::new(8), AccessKind::Read, Phase::Corunner);
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().self_evictions, 0);
        assert_eq!(c.stats().corunner_evictions, 1);
        assert_eq!(c.stats().corunner.misses, 1);
        assert_eq!(c.stats().total_misses(), 2);
    }

    #[test]
    fn evicting_a_corunner_line_is_nobodys_loss() {
        let mut c = small_lru();
        // A co-runner owns both ways of set 0; the GPU then misses twice
        // into the set: displacing the aggressor's (alive) lines is
        // neither a self-eviction nor pollution damage.
        c.access(LineAddr::new(0), AccessKind::Read, Phase::Corunner);
        c.access(LineAddr::new(4), AccessKind::Read, Phase::Corunner);
        c.access(LineAddr::new(8), AccessKind::Read, Phase::MPhase);
        c.access(LineAddr::new(12), AccessKind::Read, Phase::MPhase);
        assert_eq!(c.stats().evictions, 2);
        assert_eq!(c.stats().self_evictions, 0);
        assert_eq!(c.stats().corunner_evictions, 0);
        // A GPU refill of a formerly foreign slot takes ownership back:
        // evicting it now counts as a self-eviction again.
        let out = c.access(LineAddr::new(16), AccessKind::Read, Phase::MPhase);
        assert!(out.evicted.expect("full set").alive);
        assert_eq!(c.stats().self_evictions, 1);
    }

    #[test]
    fn occupancy_bounded_by_capacity() {
        let mut c = small_lru();
        for i in 0..100 {
            c.access(LineAddr::new(i), AccessKind::Read, Phase::Unphased);
        }
        assert_eq!(c.occupancy(), 8); // 4 sets × 2 ways
    }

    #[test]
    fn prefetch_fills_like_read() {
        let mut c = small_lru();
        c.access(LineAddr::new(3), AccessKind::Prefetch, Phase::MPhase);
        assert!(c.contains(LineAddr::new(3)));
        assert!(
            c.access(LineAddr::new(3), AccessKind::Read, Phase::CPhase)
                .hit
        );
        assert_eq!(c.stats().cpmr(), 0.0); // the only miss was in the M-phase
    }

    #[test]
    fn invalidate_all_empties_cache() {
        let mut c = small_lru();
        c.access(LineAddr::new(1), AccessKind::Read, Phase::Unphased);
        c.invalidate_all();
        assert_eq!(c.occupancy(), 0);
        assert!(!c.contains(LineAddr::new(1)));
    }

    #[test]
    fn good_capacity_for_tegra_llc() {
        use crate::addr::KIB;
        let cfg = CacheConfig::new(256 * KIB, 4, 128).policy(Policy::nvidia_tegra());
        assert_eq!(cfg.good_capacity_bytes(), 192 * KIB);
        assert_eq!(cfg.sets(), 512);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let cfg = CacheConfig::new(512, 2, 64).policy(Policy::Random).seed(7);
        let mut a = Cache::new(cfg.clone());
        let mut b = Cache::new(cfg);
        for i in 0..200 {
            let la = a.access(LineAddr::new(i % 16), AccessKind::Read, Phase::Unphased);
            let lb = b.access(LineAddr::new(i % 16), AccessKind::Read, Phase::Unphased);
            assert_eq!(la, lb);
        }
    }

    #[test]
    #[should_panic(expected = "invalid cache config")]
    fn rejects_non_power_of_two_sets() {
        Cache::new(CacheConfig::new(3 * 64 * 2, 2, 64));
    }

    #[test]
    fn index_hash_spreads_strided_lines() {
        // 4 KiB-stride column walk (32-line stride): modulo indexing hits
        // only sets/32 distinct sets; hashing spreads over many more.
        let cfg = CacheConfig::new(256 * crate::addr::KIB, 4, 128);
        let plain = Cache::new(cfg.clone());
        let hashed = Cache::new(cfg.index_hash(true));
        let lines: Vec<LineAddr> = (0..1024u64).map(|k| LineAddr::new(k * 32)).collect();
        let distinct = |c: &Cache| {
            lines
                .iter()
                .map(|&l| c.set_of(l))
                .collect::<std::collections::HashSet<_>>()
                .len()
        };
        assert_eq!(distinct(&plain), 16);
        assert!(distinct(&hashed) > 200, "hashed: {}", distinct(&hashed));
    }

    #[test]
    fn index_hash_is_consistent_for_lookups() {
        let cfg = CacheConfig::new(1024, 2, 64).index_hash(true);
        let mut c = Cache::new(cfg);
        for i in 0..100u64 {
            c.access(LineAddr::new(i * 7), AccessKind::Read, Phase::Unphased);
            assert!(c.contains(LineAddr::new(i * 7)));
        }
    }

    #[test]
    fn set_of_matches_config_set_index() {
        for hash in [false, true] {
            for (size, ways) in [(512, 2), (1024, 2), (256 * crate::addr::KIB, 4), (128, 2)] {
                let cfg = CacheConfig::new(size, ways, 64).index_hash(hash);
                let c = Cache::new(cfg.clone());
                let mut x = 0x9E37_79B9_7F4A_7C15u64;
                for _ in 0..1000 {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let line = LineAddr::new(x >> 8);
                    assert_eq!(c.set_of(line), cfg.set_index(line), "{cfg:?}");
                }
            }
        }
    }

    #[test]
    fn way_of_reports_resident_way() {
        let mut c = small_lru();
        let out = c.access(LineAddr::new(9), AccessKind::Read, Phase::Unphased);
        assert_eq!(c.way_of(LineAddr::new(9)), Some(out.way));
        assert_eq!(c.way_of(LineAddr::new(13)), None);
    }
}
