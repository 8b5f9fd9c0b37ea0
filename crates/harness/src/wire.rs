//! Owned, wire-ready run requests.
//!
//! [`RunRequest`] borrows its kernel, which is
//! the right shape in-process and an impossible one across a process
//! boundary. This module provides the owned form the `prem-serve` front
//! end ships over pipes: an [`OwnedRunRequest`] names its kernel through
//! the [`prem_kernels::registry`] ([`KernelId`]) and its platform through
//! a closed [`PlatformId`] enum, so the request is pure data — two
//! codecs (a versioned varint binary form reusing [`prem_core::codec`],
//! and a human-writable line form) round-trip it byte-identically.
//!
//! The identity contract: resolving an owned request
//! ([`OwnedRunRequest::resolve`]) yields a borrowed request whose
//! [`key()`](crate::plan::RunRequest::key) and
//! [`fingerprint()`](crate::plan::RunRequest::fingerprint) equal those of
//! the borrowed request it was taken from ([`OwnedRunRequest::of`]), so
//! the plan layer's content addressing — cache slots, the persistent
//! store, replay families — is oblivious to which side of a pipe a
//! request was born on.
//!
//! All decode failures are hard `InvalidData`/`UnexpectedEof` errors,
//! never silent defaults, matching the codec and store contracts.

use std::fmt;
use std::io::{self, Read, Write};
use std::sync::OnceLock;

use prem_core::codec::{bad_data, read_f64, read_u8, read_varint, write_f64, write_varint};
use prem_core::{NoiseModel, RunWork};
use prem_gpusim::{CorunnerProfile, PlatformConfig, Scenario};
use prem_kernels::{Kernel, KernelError, KernelId};
use prem_memsim::KIB;

use crate::plan::{PlatformSpec, RunRequest};
use crate::spec::{scenario_name, CorunnerMix, MatrixPolicy, MatrixScenario};

/// Version byte leading every binary-encoded request and the `v1` tag
/// leading every request line. Bump on any layout change.
pub const WIRE_VERSION: u8 = 1;

/// Decode guard: longest accepted name (kernel, platform, mix) on the
/// wire. A length prefix beyond this is corruption, not a long name.
const MAX_NAME: u64 = 256;

/// Decode guard: most constructor dimensions a kernel identity may carry.
const MAX_DIMS: u64 = 16;

/// Decode guard: most co-runner profiles a mix may carry.
const MAX_PROFILES: u64 = 1024;

/// A platform template as pure data, and the one table that names and
/// builds templates: the closed set of named presets plus the generic
/// geometry. [`PlatformId::spec`] builds the [`PlatformSpec`] an identity
/// names; [`PlatformId::of_spec`] takes it back.
///
/// The `Display` spelling is the *wire* spelling and is self-contained
/// (`g256k8w64s` carries the scratchpad size); [`PlatformId::name`] is
/// the report/key spelling (`g256k8w`) that the built template carries,
/// so owned requests key like hand-built ones.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum PlatformId {
    /// The paper's TX1 platform ([`PlatformConfig::tx1`]).
    Tx1,
    /// The TX2-like preset ([`PlatformConfig::tx2`]).
    Tx2,
    /// The Xavier-like preset ([`PlatformConfig::xavier_like`]).
    XavierLike,
    /// A synthetic geometry ([`PlatformConfig::generic`]).
    Generic {
        /// LLC capacity in KiB.
        llc_kib: usize,
        /// LLC associativity.
        ways: usize,
        /// Scratchpad capacity in KiB.
        spm_kib: usize,
    },
}

impl PlatformId {
    /// The named presets.
    const PRESETS: [PlatformId; 3] = [PlatformId::Tx1, PlatformId::Tx2, PlatformId::XavierLike];

    /// The report/key name of the template this identity builds.
    pub fn name(&self) -> String {
        match self {
            PlatformId::Tx1 => "tx1".into(),
            PlatformId::Tx2 => "tx2".into(),
            PlatformId::XavierLike => "xavier".into(),
            PlatformId::Generic { llc_kib, ways, .. } => format!("g{llc_kib}k{ways}w"),
        }
    }

    /// The platform configuration this identity names.
    pub fn config(&self) -> PlatformConfig {
        match self {
            PlatformId::Tx1 => PlatformConfig::tx1(),
            PlatformId::Tx2 => PlatformConfig::tx2(),
            PlatformId::XavierLike => PlatformConfig::xavier_like(),
            PlatformId::Generic {
                llc_kib,
                ways,
                spm_kib,
            } => PlatformConfig::generic(*llc_kib, *ways, *spm_kib),
        }
    }

    /// The template this identity names, with the given policy override.
    /// A preset hands out one shared template per process, built and
    /// digested on first use; a generic geometry builds a new one.
    pub fn spec(&self, policy: Option<MatrixPolicy>) -> PlatformSpec {
        static SHARED: [OnceLock<PlatformSpec>; PlatformId::PRESETS.len()] =
            [const { OnceLock::new() }; PlatformId::PRESETS.len()];
        let build = || PlatformSpec::new(self.name(), self.config());
        let mut spec = match Self::PRESETS.iter().position(|p| p == self) {
            Some(preset) => SHARED[preset].get_or_init(build).clone(),
            None => build(),
        };
        spec.policy = policy;
        spec
    }

    /// The preset named `name`, if any.
    fn preset_named(name: &str) -> Option<PlatformId> {
        Self::PRESETS.into_iter().find(|p| p.name() == name)
    }

    /// The identity of an existing template, or a hard error when the
    /// template is not one of the closed constructions this enum can name.
    ///
    /// Names alone are not trusted: the candidate identity's config must
    /// compare equal to the template's, so a hand-tuned config under a
    /// preset's name is rejected rather than silently re-keyed to the
    /// preset.
    pub fn of_spec(spec: &PlatformSpec) -> io::Result<PlatformId> {
        let name = spec.name();
        let id = match PlatformId::preset_named(name) {
            Some(preset) => preset,
            None => {
                let (llc_kib, ways) = parse_generic_name(name).ok_or_else(|| {
                    bad_data(&format!("platform `{name}` is not a wire-able template"))
                })?;
                PlatformId::Generic {
                    llc_kib,
                    ways,
                    spm_kib: spec.config().spm.capacity_bytes() / KIB,
                }
            }
        };
        if id.config() != *spec.config() {
            return Err(bad_data(&format!(
                "platform `{name}` does not match its named template"
            )));
        }
        Ok(id)
    }

    /// Parses the self-contained wire spelling (see `Display`).
    pub fn parse(s: &str) -> io::Result<PlatformId> {
        if let Some(preset) = PlatformId::preset_named(s) {
            return Ok(preset);
        }
        let err = || bad_data(&format!("unknown platform `{s}`"));
        let rest = s.strip_prefix('g').ok_or_else(err)?;
        let (llc, rest) = rest.split_once('k').ok_or_else(err)?;
        let (ways, rest) = rest.split_once('w').ok_or_else(err)?;
        let spm = rest.strip_suffix('s').ok_or_else(err)?;
        Ok(PlatformId::Generic {
            llc_kib: llc.parse().map_err(|_| err())?,
            ways: ways.parse().map_err(|_| err())?,
            spm_kib: spm.parse().map_err(|_| err())?,
        })
    }
}

/// Splits a `g<llc>k<ways>w` report name into its numbers.
fn parse_generic_name(name: &str) -> Option<(usize, usize)> {
    let rest = name.strip_prefix('g')?;
    let (llc, rest) = rest.split_once('k')?;
    let ways = rest.strip_suffix('w')?;
    Some((llc.parse().ok()?, ways.parse().ok()?))
}

impl fmt::Display for PlatformId {
    /// The self-contained wire spelling: preset names, or
    /// `g<llc>k<ways>w<spm>s` for generic geometries (unlike the report
    /// name, this carries the scratchpad size, so it parses back).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformId::Generic {
                llc_kib,
                ways,
                spm_kib,
            } => write!(f, "g{llc_kib}k{ways}w{spm_kib}s"),
            _ => write!(f, "{}", self.name()),
        }
    }
}

/// An owned, codec-able run request: the same seven coordinates as a
/// borrowed [`RunRequest`], with the kernel named through the registry
/// and the platform through [`PlatformId`].
#[derive(Clone, Debug, PartialEq)]
pub struct OwnedRunRequest {
    /// The kernel, by registry identity.
    pub kernel: KernelId,
    /// The platform template, by closed identity.
    pub platform: PlatformId,
    /// Optional LLC replacement-policy override.
    pub policy: Option<MatrixPolicy>,
    /// Execution mode (LLC-PREM / SPM-PREM / baseline).
    pub work: RunWork,
    /// PREM interval size in bytes.
    pub t_bytes: usize,
    /// Seed for every randomized component of the run.
    pub seed: u64,
    /// Contention scenario: a paper preset or a named co-runner mix.
    pub scenario: MatrixScenario,
    /// Unmanaged compute-phase traffic model.
    pub noise: NoiseModel,
}

impl OwnedRunRequest {
    /// The owned form of a borrowed request, or a hard error when the
    /// request cannot round-trip: its kernel is not registered (or its
    /// registered reconstruction disagrees with the instance) or its
    /// platform is not a closed-template construction.
    pub fn of(req: &RunRequest<'_>) -> io::Result<OwnedRunRequest> {
        let kernel = KernelId::of(req.kernel);
        let back = kernel.instantiate().ok_or_else(|| {
            bad_data(&format!("kernel `{}` is not registered", req.kernel.name()))
        })?;
        if back.dims() != req.kernel.dims() {
            return Err(bad_data(&format!(
                "kernel `{kernel}` does not reconstruct its instance"
            )));
        }
        Ok(OwnedRunRequest {
            kernel,
            platform: PlatformId::of_spec(&req.platform)?,
            policy: req.platform.policy,
            work: req.work,
            t_bytes: req.t_bytes,
            seed: req.seed,
            scenario: req.scenario.clone(),
            noise: req.noise,
        })
    }

    /// Instantiates the kernel and builds the platform template (a
    /// preset's shared one), pairing both with this request in a holder
    /// that can lend out the borrowed form.
    ///
    /// Hard error when the kernel identity is not registered, or when the
    /// request breaks a kernel or platform limit that would stop its run:
    /// an interval size below the kernel's minimum (the one way a tiling
    /// fails), or SPM work whose interval size exceeds the template's
    /// scratchpad (a tiling may fill a footprint up to `T`).
    ///
    /// # Panics
    ///
    /// Propagates kernel-constructor contract panics (dimension
    /// multiples), exactly like [`prem_kernels::registry::kernel`].
    pub fn resolve(self) -> io::Result<ResolvedRunRequest> {
        let kernel = self
            .kernel
            .instantiate()
            .ok_or_else(|| bad_data(&format!("kernel `{}` is not registered", self.kernel)))?;
        let min_bytes = kernel.min_interval_bytes();
        if self.t_bytes < min_bytes {
            return Err(bad_data(
                &KernelError::IntervalTooSmall {
                    kernel: kernel.name(),
                    t_bytes: self.t_bytes,
                    min_bytes,
                }
                .to_string(),
            ));
        }
        let platform = self.platform.spec(self.policy);
        let capacity = platform.config().spm.capacity_bytes();
        if self.work == RunWork::PremSpm && self.t_bytes > capacity {
            return Err(bad_data(&format!(
                "{}: spm interval size {} B exceeds the {} scratchpad's {capacity} B",
                kernel.name(),
                self.t_bytes,
                self.platform
            )));
        }
        Ok(ResolvedRunRequest {
            kernel,
            platform,
            owned: self,
        })
    }

    /// Encodes the request in the versioned binary wire form (varint
    /// layout, [`WIRE_VERSION`] leading byte).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.write(&mut out).expect("Vec write is infallible");
        out
    }

    /// Writes the binary wire form to `w`.
    pub fn write<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&[WIRE_VERSION])?;
        write_str(w, &self.kernel.name)?;
        write_varint(w, self.kernel.dims.len() as u64)?;
        for &d in &self.kernel.dims {
            write_varint(w, d as u64)?;
        }
        match &self.platform {
            PlatformId::Tx1 => w.write_all(&[0])?,
            PlatformId::Tx2 => w.write_all(&[1])?,
            PlatformId::XavierLike => w.write_all(&[2])?,
            PlatformId::Generic {
                llc_kib,
                ways,
                spm_kib,
            } => {
                w.write_all(&[3])?;
                write_varint(w, *llc_kib as u64)?;
                write_varint(w, *ways as u64)?;
                write_varint(w, *spm_kib as u64)?;
            }
        }
        match self.policy {
            None => w.write_all(&[0])?,
            Some(p) => {
                let tag = MatrixPolicy::what_if_axis()
                    .iter()
                    .position(|q| *q == p)
                    .expect("what_if_axis covers every policy") as u8;
                w.write_all(&[tag + 1])?;
            }
        }
        match self.work {
            RunWork::PremLlc { r } => {
                w.write_all(&[0])?;
                write_varint(w, u64::from(r))?;
            }
            RunWork::PremSpm => w.write_all(&[1])?,
            RunWork::Baseline => w.write_all(&[2])?,
            RunWork::PremLlcUntilResident => w.write_all(&[3])?,
        }
        write_varint(w, self.t_bytes as u64)?;
        write_varint(w, self.seed)?;
        match &self.scenario {
            MatrixScenario::Preset(s) => {
                w.write_all(&[0])?;
                let tag = match s {
                    Scenario::Isolation => 0,
                    Scenario::Interference => 1,
                    Scenario::Corunners => 2,
                };
                w.write_all(&[tag])?;
            }
            MatrixScenario::Mix(m) => {
                w.write_all(&[1])?;
                write_str(w, m.name())?;
                write_varint(w, m.profiles().len() as u64)?;
                for p in m.profiles() {
                    write_profile(w, p)?;
                }
            }
        }
        write_varint(w, u64::from(self.noise.lines))?;
        write_varint(w, u64::from(self.noise.every))
    }

    /// Decodes the binary wire form, requiring exact consumption:
    /// trailing bytes are corruption, not padding. Inverse of
    /// [`OwnedRunRequest::encode`].
    pub fn decode(bytes: &[u8]) -> io::Result<OwnedRunRequest> {
        let mut r = bytes;
        let req = OwnedRunRequest::read(&mut r)?;
        if !r.is_empty() {
            return Err(bad_data(&format!(
                "{} trailing bytes after request",
                r.len()
            )));
        }
        Ok(req)
    }

    /// Reads one binary wire form from `r`.
    pub fn read<R: Read>(r: &mut R) -> io::Result<OwnedRunRequest> {
        let version = read_u8(r)?;
        if version != WIRE_VERSION {
            return Err(bad_data(&format!(
                "wire version {version} (expected {WIRE_VERSION})"
            )));
        }
        let name = read_string(r)?;
        let ndims = read_varint(r)?;
        if ndims > MAX_DIMS {
            return Err(bad_data(&format!("{ndims} kernel dims")));
        }
        let mut dims = Vec::with_capacity(ndims as usize);
        for _ in 0..ndims {
            dims.push(read_usize(r)?);
        }
        let platform = match read_u8(r)? {
            0 => PlatformId::Tx1,
            1 => PlatformId::Tx2,
            2 => PlatformId::XavierLike,
            3 => PlatformId::Generic {
                llc_kib: read_usize(r)?,
                ways: read_usize(r)?,
                spm_kib: read_usize(r)?,
            },
            t => return Err(bad_data(&format!("platform tag {t}"))),
        };
        let policy = match read_u8(r)? {
            0 => None,
            t if (t as usize) <= MatrixPolicy::what_if_axis().len() => {
                Some(MatrixPolicy::what_if_axis()[t as usize - 1])
            }
            t => return Err(bad_data(&format!("policy tag {t}"))),
        };
        let work = match read_u8(r)? {
            0 => {
                let r32 = read_varint(r)?;
                RunWork::PremLlc {
                    r: u32::try_from(r32).map_err(|_| bad_data("prefetch factor overflow"))?,
                }
            }
            1 => RunWork::PremSpm,
            2 => RunWork::Baseline,
            3 => RunWork::PremLlcUntilResident,
            t => return Err(bad_data(&format!("work tag {t}"))),
        };
        let t_bytes = read_usize(r)?;
        let seed = read_varint(r)?;
        let scenario = match read_u8(r)? {
            0 => MatrixScenario::Preset(match read_u8(r)? {
                0 => Scenario::Isolation,
                1 => Scenario::Interference,
                2 => Scenario::Corunners,
                t => return Err(bad_data(&format!("scenario preset tag {t}"))),
            }),
            1 => {
                let name = read_string(r)?;
                let n = read_varint(r)?;
                if n > MAX_PROFILES {
                    return Err(bad_data(&format!("{n} mix profiles")));
                }
                let mut profiles = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    profiles.push(read_profile(r)?);
                }
                MatrixScenario::Mix(CorunnerMix::new(name, profiles))
            }
            t => return Err(bad_data(&format!("scenario tag {t}"))),
        };
        let noise = NoiseModel {
            lines: read_u32(r)?,
            every: read_u32(r)?,
        };
        Ok(OwnedRunRequest {
            kernel: KernelId::new(name, dims),
            platform,
            policy,
            work,
            t_bytes,
            seed,
            scenario,
            noise,
        })
    }

    /// The human-writable line form, e.g.
    /// `v1 kernel=bicg:1024x1024 platform=tx1 policy=lru work=llc-r8
    /// t=163840 seed=11 scenario=isolation noise=64x32` — the grammar the
    /// `prem-serve` protocol carries after its `req <tag>` prefix.
    /// `policy=` is omitted for template-policy requests. Mix names must
    /// avoid whitespace, `:` and `+` (the line form's reserved
    /// separators); conventional sweep names (`2xmembomb`) always do.
    pub fn to_line(&self) -> String {
        let mut line = format!("v{WIRE_VERSION} kernel={}", self.kernel);
        line.push_str(&format!(" platform={}", self.platform));
        if let Some(p) = self.policy {
            line.push_str(&format!(" policy={}", p.name()));
        }
        line.push_str(&format!(" work={}", self.work.key()));
        line.push_str(&format!(" t={} seed={}", self.t_bytes, self.seed));
        let scenario = match &self.scenario {
            MatrixScenario::Preset(s) => scenario_name(*s).to_string(),
            MatrixScenario::Mix(m) => {
                debug_assert!(
                    !m.name().contains([' ', '\t', ':', '+']),
                    "mix name `{}` uses reserved line-format characters",
                    m.name()
                );
                let profiles: Vec<String> = m.profiles().iter().map(profile_spelling).collect();
                format!("mix:{}:{}", m.name(), profiles.join("+"))
            }
        };
        line.push_str(&format!(" scenario={scenario}"));
        line.push_str(&format!(" noise={}x{}", self.noise.lines, self.noise.every));
        line
    }

    /// Parses the line form. Inverse of [`OwnedRunRequest::to_line`]:
    /// unknown fields, duplicate fields, missing required fields and
    /// malformed values are all hard errors.
    pub fn from_line(line: &str) -> io::Result<OwnedRunRequest> {
        let mut tokens = line.split_whitespace();
        match tokens.next() {
            Some(v) if v == format!("v{WIRE_VERSION}") => {}
            Some(v) => return Err(bad_data(&format!("request line version `{v}`"))),
            None => return Err(bad_data("empty request line")),
        }
        let mut kernel = None;
        let mut platform = None;
        let mut policy = None;
        let mut work = None;
        let mut t_bytes = None;
        let mut seed = None;
        let mut scenario = None;
        let mut noise = None;
        for token in tokens {
            let (field, value) = token
                .split_once('=')
                .ok_or_else(|| bad_data(&format!("token `{token}` is not field=value")))?;
            let slot_taken = match field {
                "kernel" => kernel.replace(parse_kernel(value)?).is_some(),
                "platform" => platform.replace(PlatformId::parse(value)?).is_some(),
                "policy" => policy
                    .replace(
                        MatrixPolicy::from_name(value)
                            .ok_or_else(|| bad_data(&format!("unknown policy `{value}`")))?,
                    )
                    .is_some(),
                "work" => work.replace(parse_work(value)?).is_some(),
                "t" => t_bytes
                    .replace(
                        value
                            .parse::<usize>()
                            .map_err(|_| bad_data(&format!("interval size `{value}`")))?,
                    )
                    .is_some(),
                "seed" => seed
                    .replace(
                        value
                            .parse::<u64>()
                            .map_err(|_| bad_data(&format!("seed `{value}`")))?,
                    )
                    .is_some(),
                "scenario" => scenario.replace(parse_scenario(value)?).is_some(),
                "noise" => noise.replace(parse_noise(value)?).is_some(),
                _ => return Err(bad_data(&format!("unknown field `{field}`"))),
            };
            if slot_taken {
                return Err(bad_data(&format!("duplicate field `{field}`")));
            }
        }
        let missing = |f: &str| bad_data(&format!("missing field `{f}`"));
        Ok(OwnedRunRequest {
            kernel: kernel.ok_or_else(|| missing("kernel"))?,
            platform: platform.ok_or_else(|| missing("platform"))?,
            policy,
            work: work.ok_or_else(|| missing("work"))?,
            t_bytes: t_bytes.ok_or_else(|| missing("t"))?,
            seed: seed.ok_or_else(|| missing("seed"))?,
            scenario: scenario.ok_or_else(|| missing("scenario"))?,
            noise: noise.ok_or_else(|| missing("noise"))?,
        })
    }
}

/// An [`OwnedRunRequest`] with its kernel instantiated and its platform
/// template built: the holder that lends out the borrowed form the plan
/// layer consumes.
#[derive(Debug)]
pub struct ResolvedRunRequest {
    kernel: Box<dyn Kernel>,
    platform: PlatformSpec,
    owned: OwnedRunRequest,
}

impl ResolvedRunRequest {
    /// The borrowed request, borrowing this holder's kernel and sharing
    /// its template. Its `key()` and `fingerprint()` equal those of the
    /// request the owned form was taken from.
    pub fn request(&self) -> RunRequest<'_> {
        RunRequest {
            kernel: self.kernel.as_ref(),
            platform: self.platform.clone(),
            work: self.owned.work,
            t_bytes: self.owned.t_bytes,
            seed: self.owned.seed,
            scenario: self.owned.scenario.clone(),
            noise: self.owned.noise,
        }
    }

    /// The owned form this holder resolved.
    pub fn owned(&self) -> &OwnedRunRequest {
        &self.owned
    }
}

/// Writes a length-prefixed UTF-8 string.
fn write_str<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    write_varint(w, s.len() as u64)?;
    w.write_all(s.as_bytes())
}

/// Reads a length-prefixed UTF-8 string (bounded by [`MAX_NAME`]).
fn read_string<R: Read>(r: &mut R) -> io::Result<String> {
    let len = read_varint(r)?;
    if len > MAX_NAME {
        return Err(bad_data(&format!("{len}-byte wire name")));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| bad_data("wire name is not UTF-8"))
}

/// Reads a varint that must fit `usize`.
fn read_usize<R: Read>(r: &mut R) -> io::Result<usize> {
    usize::try_from(read_varint(r)?).map_err(|_| bad_data("value overflows usize"))
}

/// Reads a varint that must fit `u32`.
fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    u32::try_from(read_varint(r)?).map_err(|_| bad_data("value overflows u32"))
}

/// Writes one co-runner profile (tag byte plus `Bursty` parameters).
fn write_profile<W: Write>(w: &mut W, p: &CorunnerProfile) -> io::Result<()> {
    match p {
        CorunnerProfile::Membomb => w.write_all(&[0]),
        CorunnerProfile::Stream => w.write_all(&[1]),
        CorunnerProfile::CacheThrash => w.write_all(&[2]),
        CorunnerProfile::Bursty {
            duty,
            period_cycles,
        } => {
            w.write_all(&[3])?;
            write_f64(w, *duty)?;
            write_f64(w, *period_cycles)
        }
        CorunnerProfile::Idle => w.write_all(&[4]),
    }
}

/// Reads one co-runner profile.
fn read_profile<R: Read>(r: &mut R) -> io::Result<CorunnerProfile> {
    Ok(match read_u8(r)? {
        0 => CorunnerProfile::Membomb,
        1 => CorunnerProfile::Stream,
        2 => CorunnerProfile::CacheThrash,
        3 => CorunnerProfile::Bursty {
            duty: read_f64(r)?,
            period_cycles: read_f64(r)?,
        },
        4 => CorunnerProfile::Idle,
        t => return Err(bad_data(&format!("co-runner profile tag {t}"))),
    })
}

/// The line-form spelling of one profile: its stable name, with `Bursty`
/// carrying its parameters as `bursty(duty,period)`. Rust's shortest
/// round-trip float formatting keeps the text form lossless.
fn profile_spelling(p: &CorunnerProfile) -> String {
    match p {
        CorunnerProfile::Bursty {
            duty,
            period_cycles,
        } => format!("bursty({duty},{period_cycles})"),
        other => other.name().to_string(),
    }
}

/// Parses one line-form profile spelling.
fn parse_profile(s: &str) -> io::Result<CorunnerProfile> {
    match s {
        "membomb" => return Ok(CorunnerProfile::Membomb),
        "stream" => return Ok(CorunnerProfile::Stream),
        "cache_thrash" => return Ok(CorunnerProfile::CacheThrash),
        "idle" => return Ok(CorunnerProfile::Idle),
        _ => {}
    }
    let err = || bad_data(&format!("unknown co-runner profile `{s}`"));
    let args = s
        .strip_prefix("bursty(")
        .and_then(|rest| rest.strip_suffix(')'))
        .ok_or_else(err)?;
    let (duty, period) = args.split_once(',').ok_or_else(err)?;
    Ok(CorunnerProfile::Bursty {
        duty: duty.parse().map_err(|_| err())?,
        period_cycles: period.parse().map_err(|_| err())?,
    })
}

/// Parses `name:d0xd1x…` into a kernel identity (see [`KernelId`]'s
/// `Display`). Registry membership is checked at resolve time, not here.
fn parse_kernel(s: &str) -> io::Result<KernelId> {
    let err = || bad_data(&format!("kernel spelling `{s}`"));
    let (name, dims) = s.split_once(':').ok_or_else(err)?;
    if name.is_empty() || dims.is_empty() {
        return Err(err());
    }
    let dims = dims
        .split('x')
        .map(|d| d.parse::<usize>().map_err(|_| err()))
        .collect::<io::Result<Vec<_>>>()?;
    Ok(KernelId::new(name, dims))
}

/// Parses the [`RunWork::key`] spelling (`llc-r8`, `llc-until16`, `spm`,
/// `base`).
fn parse_work(s: &str) -> io::Result<RunWork> {
    match s {
        "spm" => return Ok(RunWork::PremSpm),
        "base" => return Ok(RunWork::Baseline),
        "llc-until16" => return Ok(RunWork::PremLlcUntilResident),
        _ => {}
    }
    let err = || bad_data(&format!("unknown work mode `{s}`"));
    let r = s.strip_prefix("llc-r").ok_or_else(err)?;
    Ok(RunWork::PremLlc {
        r: r.parse().map_err(|_| err())?,
    })
}

/// Parses a line-form scenario: a preset name or `mix:<name>:<p>+<p>…`
/// (an empty profile list is spelled `mix:<name>:`).
fn parse_scenario(s: &str) -> io::Result<MatrixScenario> {
    match s {
        "isolation" => return Ok(MatrixScenario::Preset(Scenario::Isolation)),
        "interference" => return Ok(MatrixScenario::Preset(Scenario::Interference)),
        "corunners" => return Ok(MatrixScenario::Preset(Scenario::Corunners)),
        _ => {}
    }
    let rest = s
        .strip_prefix("mix:")
        .ok_or_else(|| bad_data(&format!("unknown scenario `{s}`")))?;
    let (name, profiles) = rest
        .split_once(':')
        .ok_or_else(|| bad_data(&format!("mix spelling `{s}`")))?;
    if name.is_empty() {
        return Err(bad_data("empty mix name"));
    }
    let profiles = if profiles.is_empty() {
        Vec::new()
    } else {
        profiles
            .split('+')
            .map(parse_profile)
            .collect::<io::Result<Vec<_>>>()?
    };
    Ok(MatrixScenario::Mix(CorunnerMix::new(name, profiles)))
}

/// Parses `lines x every` noise spelling (`64x32`).
fn parse_noise(s: &str) -> io::Result<NoiseModel> {
    let err = || bad_data(&format!("noise spelling `{s}`"));
    let (lines, every) = s.split_once('x').ok_or_else(err)?;
    Ok(NoiseModel {
        lines: lines.parse().map_err(|_| err())?,
        every: every.parse().map_err(|_| err())?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use prem_kernels::Bicg;

    fn sample() -> OwnedRunRequest {
        OwnedRunRequest {
            kernel: KernelId::new("bicg", vec![128, 64]),
            platform: PlatformId::Tx1,
            policy: Some(MatrixPolicy::Lru),
            work: RunWork::PremLlc { r: 8 },
            t_bytes: 16 * KIB,
            seed: 11,
            scenario: MatrixScenario::Mix(CorunnerMix::new(
                "2xmembomb",
                vec![CorunnerProfile::Membomb; 2],
            )),
            noise: NoiseModel {
                lines: 64,
                every: 32,
            },
        }
    }

    #[test]
    fn binary_and_line_forms_round_trip() {
        let until = OwnedRunRequest {
            work: RunWork::PremLlcUntilResident,
            ..sample()
        };
        for req in [sample(), until] {
            assert_eq!(OwnedRunRequest::decode(&req.encode()).unwrap(), req);
            assert_eq!(OwnedRunRequest::from_line(&req.to_line()).unwrap(), req);
        }
    }

    #[test]
    fn bursty_parameters_survive_both_forms() {
        let mut req = sample();
        req.scenario = MatrixScenario::Mix(CorunnerMix::new(
            "1xbursty",
            vec![CorunnerProfile::Bursty {
                duty: 0.37,
                period_cycles: 12_500.5,
            }],
        ));
        assert_eq!(OwnedRunRequest::decode(&req.encode()).unwrap(), req);
        assert_eq!(OwnedRunRequest::from_line(&req.to_line()).unwrap(), req);
    }

    #[test]
    fn owned_form_keys_like_the_borrowed_form() {
        let kernel = Bicg::new(128, 64);
        let borrowed = RunRequest {
            kernel: &kernel,
            platform: PlatformSpec::tx1().with_policy(MatrixPolicy::Srrip),
            work: RunWork::PremSpm,
            t_bytes: 16 * KIB,
            seed: 7,
            scenario: MatrixScenario::Preset(Scenario::Isolation),
            noise: NoiseModel::off(),
        };
        let owned = OwnedRunRequest::of(&borrowed).unwrap();
        let resolved = owned.clone().resolve().unwrap();
        assert_eq!(resolved.request().key(), borrowed.key());
        assert_eq!(resolved.request().base_key(), borrowed.base_key());
        assert_eq!(resolved.request().fingerprint(), borrowed.fingerprint());
    }

    #[test]
    fn truncation_and_trailing_bytes_are_hard_errors() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(
                OwnedRunRequest::decode(&bytes[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
        let mut padded = bytes;
        padded.push(0);
        assert!(OwnedRunRequest::decode(&padded).is_err());
    }

    #[test]
    fn malformed_lines_are_hard_errors() {
        for line in [
            "",
            "v2 kernel=bicg:128x64",
            "v1 kernel=bicg:128x64 platform=tx1 work=spm t=16384 seed=1 scenario=isolation",
            "v1 kernel=bicg:128x64 platform=tx9 work=spm t=16384 seed=1 scenario=isolation noise=0x0",
            "v1 kernel=bicg:128x64 platform=tx1 work=warp t=16384 seed=1 scenario=isolation noise=0x0",
            "v1 kernel=bicg:128x64 platform=tx1 work=llc-until t=16384 seed=1 scenario=isolation noise=0x0",
            "v1 kernel=bicg:128x64 platform=tx1 work=llc-untilx t=16384 seed=1 scenario=isolation noise=0x0",
            "v1 kernel=bicg:128x64 platform=tx1 work=spm t=16384 seed=1 scenario=solitude noise=0x0",
            "v1 kernel=bicg:128x64 platform=tx1 work=spm t=16384 seed=1 seed=2 scenario=isolation noise=0x0",
            "v1 kernel=bicg:128x64 platform=tx1 work=spm t=16384 seed=1 scenario=isolation noise=0x0 color=red",
            "v1 kernel=bicg:128x64 platform=tx1 policy=mru work=spm t=16384 seed=1 scenario=isolation noise=0x0",
        ] {
            let err = OwnedRunRequest::from_line(line).expect_err(line);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{line}");
        }
    }

    #[test]
    fn generic_platform_round_trips_with_scratchpad_size() {
        let id = PlatformId::Generic {
            llc_kib: 512,
            ways: 8,
            spm_kib: 64,
        };
        assert_eq!(id.to_string(), "g512k8w64s");
        assert_eq!(PlatformId::parse("g512k8w64s").unwrap(), id);
        assert_eq!(id.name(), "g512k8w");
        let spec = id.spec(None);
        assert_eq!(PlatformId::of_spec(&spec).unwrap(), id);
    }

    #[test]
    fn hand_tuned_config_under_a_preset_name_is_rejected() {
        let spec = PlatformSpec::new("tx1", PlatformConfig::tx2());
        assert!(PlatformId::of_spec(&spec).is_err());
    }
}
