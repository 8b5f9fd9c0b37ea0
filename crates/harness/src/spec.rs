//! Declarative description of a scenario matrix.

use prem_core::NoiseModel;
use prem_gpusim::{CorunnerProfile, Scenario};
use prem_kernels::Kernel;
use prem_memsim::{Policy, KIB};

use crate::plan::PlatformSpec;
use crate::seed::{derive_seed, fingerprint};
use crate::wire::PlatformId;

/// An LLC replacement policy column, abstract over associativity.
///
/// The concrete [`Policy`] is instantiated per platform because the
/// biased-random weight vector must match the platform's way count.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MatrixPolicy {
    /// The vendor-measured biased-random policy, generalized to the
    /// platform's associativity ([`Policy::nvidia_like`]).
    VendorBiased,
    /// True LRU — the paper's "would be unproblematic" counterfactual.
    Lru,
    /// FIFO replacement (insertion-order victims).
    Fifo,
    /// Tree pseudo-LRU — the usual hardware LRU approximation.
    Plru,
    /// Not-most-recently-used: random among all but the MRU way.
    Nmru,
    /// Scan-resistant SRRIP — a "smarter vendor" counterfactual.
    Srrip,
    /// Uniform random replacement.
    Random,
}

impl MatrixPolicy {
    /// Short name used in tables and CSV.
    pub fn name(&self) -> &'static str {
        match self {
            MatrixPolicy::VendorBiased => "biased",
            MatrixPolicy::Lru => "lru",
            MatrixPolicy::Fifo => "fifo",
            MatrixPolicy::Plru => "plru",
            MatrixPolicy::Nmru => "nmru",
            MatrixPolicy::Srrip => "srrip",
            MatrixPolicy::Random => "random",
        }
    }

    /// The inverse of [`MatrixPolicy::name`]: parses the stable CSV/wire
    /// spelling back into the policy, `None` for anything unknown.
    pub fn from_name(name: &str) -> Option<MatrixPolicy> {
        MatrixPolicy::what_if_axis()
            .into_iter()
            .find(|p| p.name() == name)
    }

    /// The full seven-policy what-if axis (the `prem-trace` replay axis):
    /// vendor-biased plus every counterfactual, in stable report order.
    pub fn what_if_axis() -> [MatrixPolicy; 7] {
        [
            MatrixPolicy::VendorBiased,
            MatrixPolicy::Lru,
            MatrixPolicy::Fifo,
            MatrixPolicy::Plru,
            MatrixPolicy::Nmru,
            MatrixPolicy::Srrip,
            MatrixPolicy::Random,
        ]
    }

    /// Instantiates the concrete policy for a cache with `ways` ways.
    pub fn instantiate(&self, ways: usize) -> Policy {
        match self {
            MatrixPolicy::VendorBiased => Policy::nvidia_like(ways),
            MatrixPolicy::Lru => Policy::Lru,
            MatrixPolicy::Fifo => Policy::Fifo,
            MatrixPolicy::Plru => Policy::PseudoLru,
            MatrixPolicy::Nmru => Policy::Nmru,
            MatrixPolicy::Srrip => Policy::Srrip,
            MatrixPolicy::Random => Policy::Random,
        }
    }
}

/// Short stable name of a scenario preset, used in cell keys and CSV.
pub fn scenario_name(s: Scenario) -> &'static str {
    match s {
        Scenario::Isolation => "isolation",
        Scenario::Interference => "interference",
        Scenario::Corunners => "corunners",
    }
}

/// A named CPU co-runner mix: one entry of the matrix's scenario axis.
///
/// Immutable once built: the profile list is digested at construction,
/// once, for every canonical key of every request under the mix.
#[derive(Clone, Debug, PartialEq)]
pub struct CorunnerMix {
    name: String,
    profiles: Vec<CorunnerProfile>,
    /// [`fingerprint`] of the profile list's `Debug` spelling.
    digest: u64,
}

impl CorunnerMix {
    /// A named mix from explicit profiles.
    pub fn new(name: impl Into<String>, profiles: Vec<CorunnerProfile>) -> Self {
        let digest = fingerprint(&format!("{profiles:?}"));
        CorunnerMix {
            name: name.into(),
            profiles,
            digest,
        }
    }

    /// `n` co-runners of the same profile, named `<n>x<profile>`
    /// (`0xmembomb` is the empty mix — an isolation measurement under a
    /// sweep-friendly name).
    pub fn uniform(n: usize, profile: CorunnerProfile) -> Self {
        CorunnerMix::new(format!("{n}x{}", profile.name()), vec![profile; n])
    }

    /// Short stable name used in cell keys and CSV (`2xmembomb`, …).
    /// Part of the seed-derivation key, so renaming a mix re-seeds its
    /// cells — name mixes once.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The co-runner actors of the mix.
    pub fn profiles(&self) -> &[CorunnerProfile] {
        &self.profiles
    }

    /// The digest of the profile list that canonical keys carry next to
    /// the name, so same-named-but-different mixes cannot alias.
    pub(crate) fn digest(&self) -> u64 {
        self.digest
    }
}

/// One entry of the scenario axis: a paper preset or a co-runner mix.
///
/// Presets keep their pre-engine names (`isolation`, `interference`) in
/// cell keys, so existing matrix artifacts and their derived seeds are
/// byte-identical; mixes extend the axis without re-seeding anything.
#[derive(Clone, Debug, PartialEq)]
pub enum MatrixScenario {
    /// One of the paper's measurement scenarios.
    Preset(Scenario),
    /// A named co-runner mix, activated via [`Scenario::Corunners`].
    Mix(CorunnerMix),
}

impl MatrixScenario {
    /// Short stable name used in cell keys and CSV.
    pub fn name(&self) -> &str {
        match self {
            MatrixScenario::Preset(s) => scenario_name(*s),
            MatrixScenario::Mix(m) => m.name(),
        }
    }

    /// A co-runner count sweep `0..=max` of `profile`, as scenario-axis
    /// entries (`0xmembomb`, `1xmembomb`, …).
    pub fn count_sweep(profile: CorunnerProfile, max: usize) -> Vec<MatrixScenario> {
        (0..=max)
            .map(|n| MatrixScenario::Mix(CorunnerMix::uniform(n, profile)))
            .collect()
    }
}

/// A declarative scenario matrix: kernels × platforms × policies ×
/// scenarios × seeds, expanded into independent simulation tasks.
#[derive(Debug)]
pub struct MatrixSpec {
    /// Kernel axis.
    pub kernels: Vec<Box<dyn Kernel>>,
    /// Platform axis: named templates. Each cell's LLC policy and seed
    /// are applied per request by the policy axis and the seed
    /// derivation; cells share their template.
    pub platforms: Vec<PlatformSpec>,
    /// LLC replacement-policy axis.
    pub policies: Vec<MatrixPolicy>,
    /// Scenario axis: paper presets and/or named co-runner mixes.
    pub scenarios: Vec<MatrixScenario>,
    /// Base seeds; each cell's RNG seed is derived from these and the
    /// cell's coordinates (see [`crate::seed::derive_seed`]).
    pub seeds: Vec<u64>,
    /// Prefetch repetition factor for the LLC M-phases (paper: 8).
    pub r: u32,
    /// Interval size as a fraction of the cell's good-way LLC capacity,
    /// rounded down to a 32 KiB multiple. The paper's TX1 choice —
    /// T = 160 KiB of 192 KiB good capacity — corresponds to 5/6.
    pub t_fill: f64,
    /// Unmanaged compute-phase traffic model.
    pub noise: NoiseModel,
}

impl MatrixSpec {
    /// A matrix over `kernels` with the defaults of the paper's evaluation:
    /// platforms {tx1, tx2, xavier}, policies {biased, lru}, both
    /// scenarios, the standard three seeds, R = 8, T = 5/6 of the good-way
    /// capacity, TX1 noise.
    pub fn new(kernels: Vec<Box<dyn Kernel>>) -> Self {
        MatrixSpec {
            kernels,
            platforms: [PlatformId::Tx1, PlatformId::Tx2, PlatformId::XavierLike]
                .map(|id| id.spec(None))
                .into(),
            policies: vec![MatrixPolicy::VendorBiased, MatrixPolicy::Lru],
            scenarios: vec![
                MatrixScenario::Preset(Scenario::Isolation),
                MatrixScenario::Preset(Scenario::Interference),
            ],
            seeds: vec![11, 23, 47],
            r: 8,
            t_fill: 5.0 / 6.0,
            noise: NoiseModel::tx1(),
        }
    }

    /// Single-seed variant of [`MatrixSpec::new`] for quick runs and tests.
    pub fn quick(kernels: Vec<Box<dyn Kernel>>) -> Self {
        MatrixSpec {
            seeds: vec![11],
            ..MatrixSpec::new(kernels)
        }
    }

    /// Number of cells the spec expands to.
    pub fn len(&self) -> usize {
        self.kernels.len()
            * self.platforms.len()
            * self.policies.len()
            * self.scenarios.len()
            * self.seeds.len()
    }

    /// Whether the matrix has no cells (any empty axis).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The interval size (bytes) used for a kernel on a platform/policy
    /// combination: `t_fill` of the good-way capacity, rounded down to a
    /// 32 KiB multiple (floored at 32 KiB), then raised to the kernel's
    /// minimum tileable interval if necessary.
    pub fn t_bytes(
        &self,
        kernel: &dyn Kernel,
        platform: &PlatformSpec,
        policy: MatrixPolicy,
    ) -> usize {
        let llc = platform.config().llc.clone();
        let ways = llc.ways();
        let good = llc.policy(policy.instantiate(ways)).good_capacity_bytes();
        let quantum = 32 * KIB;
        let t = ((good as f64 * self.t_fill) as usize / quantum).max(1) * quantum;
        t.max(kernel.min_interval_bytes())
    }

    /// Expands the matrix into cell descriptors, in deterministic
    /// row-major order (kernels outermost, seeds innermost).
    pub fn expand(&self) -> Vec<CellSpec> {
        let mut cells = Vec::with_capacity(self.len());
        for (kernel, k) in self
            .kernels
            .iter()
            .enumerate()
            .map(|(i, k)| (i, k.as_ref()))
        {
            for (platform, plat) in self.platforms.iter().enumerate() {
                for (policy, &pol) in self.policies.iter().enumerate() {
                    let t_bytes = self.t_bytes(k, plat, pol);
                    for scenario in &self.scenarios {
                        for (seed_index, &base_seed) in self.seeds.iter().enumerate() {
                            // Dims disambiguate two instances of the same
                            // kernel type at different problem sizes.
                            let key = format!(
                                "{}({})|{}|{}|{}",
                                k.name(),
                                k.dims(),
                                plat.name(),
                                pol.name(),
                                scenario.name()
                            );
                            cells.push(CellSpec {
                                kernel,
                                platform,
                                policy,
                                scenario: scenario.clone(),
                                seed_index,
                                derived_seed: derive_seed(&key, base_seed),
                                t_bytes,
                            });
                        }
                    }
                }
            }
        }
        cells
    }
}

/// One fully resolved simulation task: a coordinate in the matrix plus the
/// derived parameters that make it self-contained.
#[derive(Clone, Debug, PartialEq)]
pub struct CellSpec {
    /// Index into [`MatrixSpec::kernels`].
    pub kernel: usize,
    /// Index into [`MatrixSpec::platforms`].
    pub platform: usize,
    /// Index into [`MatrixSpec::policies`].
    pub policy: usize,
    /// The contention scenario of this cell (preset or co-runner mix).
    pub scenario: MatrixScenario,
    /// Index into [`MatrixSpec::seeds`].
    pub seed_index: usize,
    /// The cell's RNG seed, derived from its coordinates.
    pub derived_seed: u64,
    /// PREM interval size for this cell (bytes).
    pub t_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use prem_kernels::Bicg;

    fn spec() -> MatrixSpec {
        MatrixSpec::quick(vec![Box::new(Bicg::new(128, 128))])
    }

    #[test]
    fn expansion_covers_the_product() {
        let s = spec();
        let cells = s.expand();
        assert_eq!(cells.len(), s.len());
        // 1 kernel × 3 platforms × 2 policies × 2 scenarios × 1 seed
        assert_eq!(cells.len(), 12);
        // All coordinates distinct.
        let mut seen = std::collections::HashSet::new();
        for c in &cells {
            assert!(seen.insert((
                c.kernel,
                c.platform,
                c.policy,
                c.scenario.name().to_string(),
                c.seed_index
            )));
        }
    }

    #[test]
    fn corunner_mix_axis_extends_without_reseeding_presets() {
        let s = spec();
        let preset_cells = s.expand();
        let mut extended = spec();
        extended
            .scenarios
            .extend(MatrixScenario::count_sweep(CorunnerProfile::Membomb, 2));
        let cells = extended.expand();
        assert_eq!(cells.len(), preset_cells.len() / 2 * 5);
        // The preset cells keep their derived seeds: the axis grew, the
        // existing coordinates did not move in seed space.
        let seeds = |cs: &[CellSpec], name: &str| -> Vec<u64> {
            cs.iter()
                .filter(|c| c.scenario.name() == name)
                .map(|c| c.derived_seed)
                .collect()
        };
        for name in ["isolation", "interference"] {
            assert_eq!(seeds(&preset_cells, name), seeds(&cells, name));
        }
        // Mix names are sweep-friendly and distinct per count.
        assert_eq!(
            CorunnerMix::uniform(3, CorunnerProfile::CacheThrash).name(),
            "3xcache_thrash"
        );
        assert_ne!(
            seeds(&cells, "1xmembomb"),
            seeds(&cells, "2xmembomb"),
            "different mixes must land on different seeds"
        );
    }

    #[test]
    fn seeds_differ_between_cells_but_not_scenarios_alone() {
        let cells = spec().expand();
        // Same coordinates → same derived seed on re-expansion.
        assert_eq!(cells, spec().expand());
        // Different platform → different seed.
        assert_ne!(cells[0].derived_seed, cells[4].derived_seed);
    }

    #[test]
    fn same_kernel_type_at_different_sizes_gets_different_seeds() {
        let mut s = spec();
        s.kernels = vec![Box::new(Bicg::new(128, 128)), Box::new(Bicg::new(192, 160))];
        let cells = s.expand();
        // Same name, same platform/policy/scenario/seed coordinates —
        // the dims in the key must still separate the two instances.
        let per_kernel = cells.len() / 2;
        assert_ne!(
            cells[0].derived_seed, cells[per_kernel].derived_seed,
            "two bicg instances share a derived seed"
        );
    }

    #[test]
    fn t_matches_the_paper_on_tx1_biased() {
        let s = spec();
        let k = Bicg::new(1024, 1024);
        let t = s.t_bytes(&k, &PlatformSpec::tx1(), MatrixPolicy::VendorBiased);
        assert_eq!(t, 160 * KIB); // 5/6 of 192 KiB good capacity, 32 KiB grid
        let t_lru = s.t_bytes(&k, &PlatformSpec::tx1(), MatrixPolicy::Lru);
        assert_eq!(t_lru, 192 * KIB); // 5/6 of the full 256 KiB
    }

    #[test]
    fn empty_axis_empties_the_matrix() {
        let mut s = spec();
        s.scenarios.clear();
        assert!(s.is_empty());
        assert!(s.expand().is_empty());
    }

    #[test]
    fn preset_names_are_stable() {
        // These strings are part of every published cell key; changing
        // them silently re-seeds all existing matrix artifacts.
        assert_eq!(
            MatrixScenario::Preset(Scenario::Isolation).name(),
            "isolation"
        );
        assert_eq!(
            MatrixScenario::Preset(Scenario::Interference).name(),
            "interference"
        );
    }
}
