//! Packed-layout equivalence: the sentinel-tagged `Cache` against a
//! reference model of the pre-change semantics.
//!
//! The packed hot path (one flat `u64` tag lane + one metadata byte per
//! slot) replaced the original five side arrays (`tags`/`valid`/`dirty`/
//! `foreign`/`fill_epoch`). This suite pins that the representation
//! change is *observationally invisible*: the reference below is the old
//! layout rebuilt verbatim from the public `Replacer`/`Rng` machinery,
//! and arbitrary access streams — every policy, random kinds, phases and
//! interval boundaries — must produce identical outcomes, identical
//! eviction attribution and identical `CacheStats`, access by access.

use proptest::prelude::*;
use proptest::strategy::ValueTree;

use prem_memsim::rng::Rng;
use prem_memsim::{
    AccessKind, AccessOutcome, Cache, CacheConfig, CacheStats, Evicted, LineAddr, Phase, Policy,
    Replacer,
};

/// The pre-change cache: separate `valid`/`dirty`/`foreign` side arrays
/// and an epoch counter for aliveness, with the exact `Replacer`/`Rng`
/// call sequence and stats-update order of the original implementation.
struct ReferenceCache {
    cfg: CacheConfig,
    tags: Vec<LineAddr>,
    valid: Vec<bool>,
    dirty: Vec<bool>,
    foreign: Vec<bool>,
    fill_epoch: Vec<u64>,
    epoch: u64,
    replacer: Replacer,
    rng: Rng,
    stats: CacheStats,
}

impl ReferenceCache {
    fn new(cfg: CacheConfig) -> Self {
        let slots = cfg.sets() * cfg.ways();
        let replacer = Replacer::new(cfg.policy_ref().clone(), cfg.sets(), cfg.ways());
        let rng = Rng::seed_from_u64(cfg.seed_value());
        ReferenceCache {
            tags: vec![LineAddr::new(0); slots],
            valid: vec![false; slots],
            dirty: vec![false; slots],
            foreign: vec![false; slots],
            fill_epoch: vec![0; slots],
            epoch: 1,
            replacer,
            rng,
            stats: CacheStats::default(),
            cfg,
        }
    }

    fn counts(&mut self, phase: Phase) -> &mut prem_memsim::AccessCounts {
        match phase {
            Phase::MPhase => &mut self.stats.m_phase,
            Phase::CPhase => &mut self.stats.c_phase,
            Phase::Unphased => &mut self.stats.unphased,
            Phase::Corunner => &mut self.stats.corunner,
        }
    }

    fn access(&mut self, line: LineAddr, kind: AccessKind, phase: Phase) -> AccessOutcome {
        let set = self.cfg.set_index(line);
        let base = set * self.cfg.ways();
        let ways = self.cfg.ways();

        if let Some(way) = (0..ways).find(|&w| self.valid[base + w] && self.tags[base + w] == line)
        {
            self.counts(phase).hits += 1;
            if kind == AccessKind::Write {
                self.dirty[base + way] = true;
            }
            self.replacer.on_access(set, way);
            return AccessOutcome {
                hit: true,
                evicted: None,
                way,
            };
        }

        self.counts(phase).misses += 1;
        let (way, evicted) = match (0..ways).find(|&w| !self.valid[base + w]) {
            Some(w) => (w, None),
            None => {
                // The biased draw straight from the weighted scan, so the
                // packed cache's tabulated draw is checked against it.
                let w = match self.cfg.policy_ref() {
                    Policy::BiasedRandom { weights } => self.rng.pick_weighted(weights),
                    _ => self.replacer.victim(set, &mut self.rng),
                };
                let ev = Evicted {
                    line: self.tags[base + w],
                    alive: self.fill_epoch[base + w] == self.epoch,
                    dirty: self.dirty[base + w],
                    foreign: self.foreign[base + w],
                };
                self.stats.evictions += 1;
                if ev.alive && !ev.foreign {
                    if phase == Phase::Corunner {
                        self.stats.corunner_evictions += 1;
                    } else {
                        self.stats.self_evictions += 1;
                    }
                }
                if ev.dirty {
                    self.stats.writebacks += 1;
                }
                (w, Some(ev))
            }
        };

        self.tags[base + way] = line;
        self.valid[base + way] = true;
        self.dirty[base + way] = kind == AccessKind::Write;
        self.foreign[base + way] = phase == Phase::Corunner;
        self.fill_epoch[base + way] = self.epoch;
        self.replacer.on_fill(set, way);

        AccessOutcome {
            hit: false,
            evicted,
            way,
        }
    }

    fn begin_interval(&mut self) {
        self.epoch += 1;
    }

    fn way_of(&self, line: LineAddr) -> Option<usize> {
        let base = self.cfg.set_index(line) * self.cfg.ways();
        (0..self.cfg.ways()).find(|&w| self.valid[base + w] && self.tags[base + w] == line)
    }

    fn occupancy(&self) -> usize {
        self.valid.iter().filter(|&&v| v).count()
    }
}

/// All seven policies, sized for `ways`.
fn every_policy(ways: usize) -> Vec<Policy> {
    let mut policies = vec![
        Policy::Lru,
        Policy::Fifo,
        Policy::Random,
        Policy::Nmru,
        Policy::Srrip,
        Policy::BiasedRandom {
            weights: (0..ways)
                .map(|i| if i == ways / 2 { 3 } else { 1 })
                .collect(),
        },
    ];
    if ways.is_power_of_two() {
        policies.push(Policy::PseudoLru);
    }
    policies
}

/// One stream event: an access or an interval boundary.
#[derive(Clone, Debug)]
enum Event {
    Access(u64, AccessKind, Phase),
    BeginInterval,
    InvalidateAll,
}

fn event_strategy() -> impl Strategy<Value = Event> {
    let kinds = prop::sample::select(vec![
        AccessKind::Read,
        AccessKind::Write,
        AccessKind::Prefetch,
    ]);
    let phases = prop::sample::select(vec![
        Phase::MPhase,
        Phase::CPhase,
        Phase::Unphased,
        Phase::Corunner,
    ]);
    // ~1/22 interval boundaries, ~1/22 flushes, the rest accesses.
    (0u8..22, 0u64..2048, kinds, phases).prop_map(|(pick, l, k, p)| match pick {
        0 => Event::BeginInterval,
        1 => Event::InvalidateAll,
        _ => Event::Access(l, k, p),
    })
}

fn cache_geometry() -> impl Strategy<Value = (usize, usize, usize)> {
    (
        1u32..=5,
        // Every shape of the chunked way scan: remainder only (1-3), whole
        // 4-wide chunks (4, 8, 16, the widest preset) and chunks plus a
        // remainder (6).
        prop::sample::select(vec![1usize, 2, 3, 4, 6, 8, 16]),
        prop::sample::select(vec![32usize, 64, 128]),
    )
        .prop_map(|(s, w, l)| ((1usize << s) * w * l, w, l))
}

proptest! {
    /// The packed cache and the reference agree on every observable, for
    /// every policy, after every event of an arbitrary stream.
    #[test]
    fn packed_matches_reference_semantics(
        (size, ways, line) in cache_geometry(),
        seed in any::<u64>(),
        hash in any::<bool>(),
        events in prop::collection::vec(event_strategy(), 1..300),
    ) {
        for policy in every_policy(ways) {
            let cfg = CacheConfig::new(size, ways, line)
                .policy(policy)
                .seed(seed)
                .index_hash(hash && (size / (ways * line)) > 1);
            let mut packed = Cache::new(cfg.clone());
            let mut reference = ReferenceCache::new(cfg);
            for event in &events {
                match *event {
                    Event::Access(l, kind, phase) => {
                        let line = LineAddr::new(l);
                        let a = packed.access(line, kind, phase);
                        let b = reference.access(line, kind, phase);
                        prop_assert_eq!(a, b);
                        prop_assert_eq!(packed.way_of(line), reference.way_of(line));
                    }
                    Event::BeginInterval => {
                        packed.begin_interval();
                        reference.begin_interval();
                    }
                    Event::InvalidateAll => {
                        packed.invalidate_all();
                        reference.valid.iter_mut().for_each(|v| *v = false);
                        reference.dirty.iter_mut().for_each(|d| *d = false);
                        reference.foreign.iter_mut().for_each(|f| *f = false);
                    }
                }
                prop_assert_eq!(packed.occupancy(), reference.occupancy());
            }
            prop_assert_eq!(packed.stats(), &reference.stats);
        }
    }

    /// Once no slot is empty the packed cache skips the empty-way probe,
    /// and `invalidate_all` empties every slot again: a stream that fills
    /// the cache, keeps missing into it, flushes it and fills it again
    /// agrees with the always-probing reference access by access.
    #[test]
    fn a_full_cache_skips_the_probe_like_the_reference(
        sets_log in 0u32..=2,
        ways in prop::sample::select(vec![1usize, 2, 3, 4, 6, 8, 16]),
        seed in any::<u64>(),
        random in prop::collection::vec(any::<u64>(), 60..200),
    ) {
        let slots = (1u64 << sets_log) * ways as u64;
        // Every line of a sweep over twice the capacity, then random lines
        // over that range, twice around a flush.
        let sweep = (0..2 * slots).map(|l| Some(l + 7));
        let lines = random.iter().map(|r| Some(r % (2 * slots)));
        let events: Vec<Option<u64>> = sweep
            .clone()
            .chain(lines.clone())
            .chain([None])
            .chain(lines.clone())
            .chain(sweep)
            .chain(lines)
            .collect();
        for policy in every_policy(ways) {
            let cfg = CacheConfig::new(slots as usize * 64, ways, 64)
                .policy(policy)
                .seed(seed);
            let mut packed = Cache::new(cfg.clone());
            let mut reference = ReferenceCache::new(cfg);
            let mut filled = 0;
            for (i, event) in events.iter().enumerate() {
                let Some(l) = *event else {
                    packed.invalidate_all();
                    reference.valid.iter_mut().for_each(|v| *v = false);
                    reference.dirty.iter_mut().for_each(|d| *d = false);
                    reference.foreign.iter_mut().for_each(|f| *f = false);
                    prop_assert_eq!(packed.occupancy(), 0);
                    continue;
                };
                let kind = if i % 3 == 0 { AccessKind::Write } else { AccessKind::Read };
                let line = LineAddr::new(l);
                prop_assert_eq!(
                    packed.access(line, kind, Phase::CPhase),
                    reference.access(line, kind, Phase::CPhase)
                );
                prop_assert_eq!(packed.occupancy(), reference.occupancy());
                filled += usize::from(packed.occupancy() == slots as usize);
            }
            // The probe-free path ran: both sweeps leave the cache full.
            prop_assert!(filled > 2);
            prop_assert_eq!(packed.stats(), &reference.stats);
        }
    }

    /// Reseeding mid-stream keeps the two models aligned (the executor
    /// reseeds between the profiling pass and the timed run).
    #[test]
    fn packed_matches_reference_across_reseed(
        (size, ways, line) in cache_geometry(),
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
        lines in prop::collection::vec(0u64..512, 1..200),
    ) {
        let policy_strategy = prop::sample::select(every_policy(ways));
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let policy = policy_strategy.new_tree(&mut runner).unwrap().current();
        let cfg = CacheConfig::new(size, ways, line).policy(policy).seed(seed_a);
        let mut packed = Cache::new(cfg.clone());
        let mut reference = ReferenceCache::new(cfg);
        let half = lines.len() / 2;
        for (i, &l) in lines.iter().enumerate() {
            if i == half {
                packed.reseed(seed_b);
                reference.rng = Rng::seed_from_u64(seed_b);
            }
            let a = packed.access(LineAddr::new(l), AccessKind::Read, Phase::Unphased);
            let b = reference.access(LineAddr::new(l), AccessKind::Read, Phase::Unphased);
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(packed.stats(), &reference.stats);
    }
}
