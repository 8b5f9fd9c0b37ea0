//! Physical addresses and cache-line addresses.
//!
//! The simulator works on a flat 64-bit physical address space. Data is moved
//! between memories at cache-line granularity, so most of the workspace deals
//! in [`LineAddr`] values; [`Addr`] exists for byte-accurate address
//! arithmetic when laying out data sets.

use std::collections::HashSet;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// One kibibyte in bytes.
pub const KIB: usize = 1024;
/// One mebibyte in bytes.
pub const MIB: usize = 1024 * KIB;

/// A byte address in the simulated physical address space.
///
/// ```
/// use prem_memsim::Addr;
/// let a = Addr::new(0x1000);
/// assert_eq!(a.offset(0x20).raw(), 0x1020);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address from its raw byte value.
    pub fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// The raw byte address.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The address `bytes` past `self`.
    pub fn offset(self, bytes: u64) -> Self {
        Addr(self.0 + bytes)
    }

    /// The cache line containing this address, for lines of `line_bytes`
    /// bytes.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `line_bytes` is not a power of two.
    pub fn line(self, line_bytes: usize) -> LineAddr {
        debug_assert!(line_bytes.is_power_of_two());
        LineAddr(self.0 >> line_bytes.trailing_zeros())
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

/// A cache-line address: a byte address divided by the line size.
///
/// Line addresses are what caches, scratchpads and the DRAM model operate
/// on. They are line-size-agnostic; the component that produced them defines
/// the granularity (the whole platform uses a single line size).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address from its raw line number.
    pub fn new(raw: u64) -> Self {
        LineAddr(raw)
    }

    /// The raw line number.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The first byte address of this line for the given line size.
    pub fn addr(self, line_bytes: usize) -> Addr {
        Addr(self.0 << line_bytes.trailing_zeros())
    }

    /// The line `n` lines past this one.
    pub fn offset(self, n: u64) -> Self {
        LineAddr(self.0 + n)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

impl From<u64> for LineAddr {
    fn from(raw: u64) -> Self {
        LineAddr(raw)
    }
}

/// A set of line addresses hashed by [`LineHasher`]: every line set in
/// the simulator (staged footprints, scratchpad residency, coverage
/// checks) is membership-only, so a fixed mixer over the raw line number
/// replaces SipHash without moving an output byte.
pub type LineSet = HashSet<LineAddr, BuildHasherDefault<LineHasher>>;

/// The [`LineSet`] hasher: the SplitMix64 finalizer over one raw line
/// number. Lines are dense integers, so a full avalanche mix is all a
/// hash table needs; nothing here faces adversarial keys.
#[derive(Copy, Clone, Debug, Default)]
pub struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Only reached by non-`u64` keys; folds them through the same mix.
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = splitmix64(n);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The SplitMix64 finalizer: a full avalanche mix of one `u64`, shared by
/// [`LineHasher`] and the run-plan layer's seed and key fingerprints.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Iterator over the lines covering the byte range `[start, start + len)`.
///
/// ```
/// use prem_memsim::{Addr, lines_covering};
/// let lines: Vec<_> = lines_covering(Addr::new(100), 100, 128).collect();
/// assert_eq!(lines.len(), 2); // bytes 100..200 touch lines 0 and 1
/// ```
pub fn lines_covering(start: Addr, len: u64, line_bytes: usize) -> impl Iterator<Item = LineAddr> {
    let first = start.line(line_bytes).raw();
    let last = if len == 0 {
        first
    } else {
        start.offset(len - 1).line(line_bytes).raw() + 1
    };
    (first..last.max(first)).map(LineAddr::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_line_roundtrip() {
        let a = Addr::new(0x12345);
        let l = a.line(128);
        assert_eq!(l.raw(), 0x12345 >> 7);
        assert_eq!(l.addr(128).raw(), (0x12345 >> 7) << 7);
    }

    #[test]
    fn line_offset_advances() {
        let l = LineAddr::new(10);
        assert_eq!(l.offset(5).raw(), 15);
    }

    #[test]
    fn lines_covering_exact_line() {
        let v: Vec<_> = lines_covering(Addr::new(256), 128, 128).collect();
        assert_eq!(v, vec![LineAddr::new(2)]);
    }

    #[test]
    fn lines_covering_straddles() {
        let v: Vec<_> = lines_covering(Addr::new(100), 100, 128).collect();
        assert_eq!(v, vec![LineAddr::new(0), LineAddr::new(1)]);
    }

    #[test]
    fn lines_covering_empty() {
        let v: Vec<_> = lines_covering(Addr::new(0), 0, 128).collect();
        assert!(v.is_empty());
    }

    #[test]
    fn line_set_is_a_plain_membership_set() {
        let mut set = LineSet::default();
        assert!(set.insert(LineAddr::new(7)));
        assert!(!set.insert(LineAddr::new(7)));
        assert!(set.insert(LineAddr::new(8)));
        assert!(set.contains(&LineAddr::new(8)) && !set.contains(&LineAddr::new(9)));
        // Neighboring lines land far apart.
        let hash = |n| {
            let mut h = LineHasher::default();
            h.write_u64(n);
            h.finish()
        };
        assert_ne!(hash(0) >> 57, hash(1) >> 57);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Addr::new(255).to_string(), "0xff");
        assert_eq!(LineAddr::new(255).to_string(), "L0xff");
    }
}
