//! Binary serialization of executed run results.
//!
//! The persistent run cache (`prem-harness::store`) needs [`RunOutput`]s
//! that survive the process: this module gives the result types a compact,
//! versioned, bit-exact binary encoding in the style of `prem-trace`'s
//! `PRTC` format — varint integers, fixed 8-byte little-endian IEEE-754
//! bit patterns for every `f64` (so a decoded run compares equal to the
//! executed one field-for-field, which is what makes a disk hit
//! indistinguishable from a live execution), and hard
//! [`InvalidData`](std::io::ErrorKind::InvalidData) /
//! [`UnexpectedEof`](std::io::ErrorKind::UnexpectedEof) errors on
//! corruption or truncation.
//!
//! The encoding is a pure field dump behind a one-byte variant tag; it
//! carries no magic or version of its own. Container framing — magic,
//! format version, record lengths, checksums — is the store's job, and the
//! store couples its records to [`CODEC_VERSION`]: any change to the
//! layout encoded here (field added, removed, reordered, re-typed) must
//! bump that constant so stale caches are rejected instead of misread.

use std::io::{self, Read, Write};

use prem_memsim::{AccessCounts, BusWindow, CacheStats};

use crate::budget::Budgets;
use crate::metrics::Breakdown;
use crate::plan::RunOutput;
use crate::{BaselineRun, PremRun};

/// Version of the [`RunOutput`] field layout encoded by this module.
///
/// Persisted alongside the store's own format version in every segment
/// header: a store written with a different codec version is rejected as
/// a whole (hard error) rather than decoded into garbage.
pub const CODEC_VERSION: u8 = 2;

/// The most interval work pairs a decode reserves before reading them:
/// real runs have at most a few thousand intervals, and a declared count
/// the input does not back must fail on its reads, not on the allocation.
const MAX_INTERVAL_RESERVE: u64 = 4096;

/// Variant tags (first byte of an encoded [`RunOutput`]).
const TAG_PREM: u8 = 0;
const TAG_BASELINE: u8 = 1;

/// An [`InvalidData`](io::ErrorKind::InvalidData) error with a message —
/// the hard-error constructor every decoder in the workspace shares.
pub fn bad_data(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Writes `v` as an LEB128-style varint (7 data bits per byte, high bit =
/// continuation) — the integer encoding shared by the run-output codec,
/// the persistent store's container format and the wire request codec.
pub fn write_varint<W: Write>(w: &mut W, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

/// Reads one byte, with truncation surfacing as
/// [`UnexpectedEof`](io::ErrorKind::UnexpectedEof).
pub fn read_u8<R: Read>(r: &mut R) -> io::Result<u8> {
    let mut buf = [0u8; 1];
    r.read_exact(&mut buf)?;
    Ok(buf[0])
}

/// Reads one varint written by [`write_varint`].
///
/// # Errors
///
/// [`InvalidData`](io::ErrorKind::InvalidData) when the encoding overflows
/// a `u64`, [`UnexpectedEof`](io::ErrorKind::UnexpectedEof) on truncation.
pub fn read_varint<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = read_u8(r)?;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(bad_data("varint overflows u64"));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// `f64`s are stored as their IEEE-754 bit pattern, little-endian, fixed
/// width: round trips are bit-exact by construction (varint-compressing
/// cycle counts would save nothing — they are full-precision reals).
pub fn write_f64<W: Write>(w: &mut W, v: f64) -> io::Result<()> {
    w.write_all(&v.to_bits().to_le_bytes())
}

/// Reads one `f64` written by [`write_f64`], bit-exact.
pub fn read_f64<R: Read>(r: &mut R) -> io::Result<f64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(f64::from_bits(u64::from_le_bytes(buf)))
}

fn write_counts<W: Write>(w: &mut W, c: &AccessCounts) -> io::Result<()> {
    write_varint(w, c.hits)?;
    write_varint(w, c.misses)
}

fn read_counts<R: Read>(r: &mut R) -> io::Result<AccessCounts> {
    Ok(AccessCounts {
        hits: read_varint(r)?,
        misses: read_varint(r)?,
    })
}

fn write_stats<W: Write>(w: &mut W, s: &CacheStats) -> io::Result<()> {
    write_counts(w, &s.m_phase)?;
    write_counts(w, &s.c_phase)?;
    write_counts(w, &s.unphased)?;
    write_counts(w, &s.corunner)?;
    write_varint(w, s.evictions)?;
    write_varint(w, s.self_evictions)?;
    write_varint(w, s.corunner_evictions)?;
    write_varint(w, s.writebacks)
}

fn read_stats<R: Read>(r: &mut R) -> io::Result<CacheStats> {
    Ok(CacheStats {
        m_phase: read_counts(r)?,
        c_phase: read_counts(r)?,
        unphased: read_counts(r)?,
        corunner: read_counts(r)?,
        evictions: read_varint(r)?,
        self_evictions: read_varint(r)?,
        corunner_evictions: read_varint(r)?,
        writebacks: read_varint(r)?,
    })
}

/// A PREM run: the interval count (decode sets `intervals` from it), then
/// the fields in declaration order, `interval_work` as two `f64`s per
/// interval. Slot timings are not stored: each follows from its work and
/// the MSG.
fn write_prem<W: Write>(w: &mut W, run: &PremRun) -> io::Result<()> {
    write_varint(w, run.interval_work.len() as u64)?;
    write_f64(w, run.breakdown.m_work)?;
    write_f64(w, run.breakdown.c_work)?;
    write_f64(w, run.breakdown.idle)?;
    write_f64(w, run.breakdown.sync)?;
    write_f64(w, run.makespan_cycles)?;
    write_f64(w, run.budget_envelope_cycles)?;
    write_f64(w, run.budgets.m_cycles)?;
    write_f64(w, run.budgets.c_cycles)?;
    write_stats(w, &run.llc)?;
    write_f64(w, run.cpmr)?;
    write_varint(w, run.prefetch_hits)?;
    write_varint(w, run.prefetch_misses)?;
    write_varint(w, u64::from(run.max_rounds_used))?;
    write_f64(w, run.budget_violation_cycles)?;
    for &(m, c) in &run.interval_work {
        write_f64(w, m)?;
        write_f64(w, c)?;
    }
    write_f64(w, run.bus.cycles)?;
    write_f64(w, run.bus.victim_bytes)?;
    write_f64(w, run.bus.corunner_bytes)?;
    write_varint(w, run.polluted_lines)
}

fn read_prem<R: Read>(r: &mut R) -> io::Result<PremRun> {
    let intervals = read_varint(r)?;
    // An interval is 16 encoded bytes: a declared count the input cannot
    // possibly back is corruption, not an allocation request.
    if intervals > (1 << 32) {
        return Err(bad_data("unreasonable interval count"));
    }
    let breakdown = Breakdown {
        m_work: read_f64(r)?,
        c_work: read_f64(r)?,
        idle: read_f64(r)?,
        sync: read_f64(r)?,
    };
    let makespan_cycles = read_f64(r)?;
    let budget_envelope_cycles = read_f64(r)?;
    let budgets = Budgets {
        m_cycles: read_f64(r)?,
        c_cycles: read_f64(r)?,
    };
    let llc = read_stats(r)?;
    let cpmr = read_f64(r)?;
    let prefetch_hits = read_varint(r)?;
    let prefetch_misses = read_varint(r)?;
    let max_rounds_used = u32::try_from(read_varint(r)?)
        .map_err(|_| bad_data("prefetch round count overflows u32"))?;
    let budget_violation_cycles = read_f64(r)?;
    let mut interval_work = Vec::with_capacity(intervals.min(MAX_INTERVAL_RESERVE) as usize);
    for _ in 0..intervals {
        interval_work.push((read_f64(r)?, read_f64(r)?));
    }
    let bus = BusWindow {
        cycles: read_f64(r)?,
        victim_bytes: read_f64(r)?,
        corunner_bytes: read_f64(r)?,
    };
    let polluted_lines = read_varint(r)?;
    Ok(PremRun {
        intervals: interval_work.len(),
        breakdown,
        makespan_cycles,
        budget_envelope_cycles,
        budgets,
        llc,
        cpmr,
        prefetch_hits,
        prefetch_misses,
        max_rounds_used,
        budget_violation_cycles,
        interval_work,
        bus,
        polluted_lines,
    })
}

impl RunOutput {
    /// Encodes this output into `w` (variant tag, then the fields in
    /// declaration order; see the [module docs](self) for the encoding
    /// rules).
    ///
    /// # Errors
    ///
    /// Any I/O error from the underlying writer.
    pub fn encode_into<W: Write>(&self, w: &mut W) -> io::Result<()> {
        match self {
            RunOutput::Prem(run) => {
                w.write_all(&[TAG_PREM])?;
                write_prem(w, run)
            }
            RunOutput::Baseline(run) => {
                w.write_all(&[TAG_BASELINE])?;
                write_f64(w, run.cycles)?;
                write_stats(w, &run.llc)
            }
        }
    }

    /// Encodes this output into a byte vector.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out)
            .expect("writing to a Vec cannot fail");
        out
    }

    /// Decodes one output from `r`.
    ///
    /// # Errors
    ///
    /// [`InvalidData`](io::ErrorKind::InvalidData) on an unknown variant
    /// tag or malformed varint,
    /// [`UnexpectedEof`](io::ErrorKind::UnexpectedEof) on truncation, or
    /// any I/O error from the reader.
    pub fn decode_from<R: Read>(r: &mut R) -> io::Result<RunOutput> {
        match read_u8(r)? {
            TAG_PREM => Ok(RunOutput::Prem(read_prem(r)?)),
            TAG_BASELINE => Ok(RunOutput::Baseline(BaselineRun {
                cycles: read_f64(r)?,
                llc: read_stats(r)?,
            })),
            _ => Err(bad_data("unknown run-output variant tag")),
        }
    }

    /// Decodes one output from a byte slice, requiring the slice to be
    /// consumed exactly.
    ///
    /// # Errors
    ///
    /// As for [`RunOutput::decode_from`], plus
    /// [`InvalidData`](io::ErrorKind::InvalidData) when trailing bytes
    /// follow the encoded output.
    pub fn decode(bytes: &[u8]) -> io::Result<RunOutput> {
        let mut r = bytes;
        let out = RunOutput::decode_from(&mut r)?;
        if !r.is_empty() {
            return Err(bad_data("trailing bytes after run output"));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::CAccess;
    use crate::plan::execute_run;
    use crate::RunWork;
    use prem_gpusim::{PlatformConfig, Scenario};
    use prem_memsim::LineAddr;

    fn sample(work: RunWork) -> RunOutput {
        let intervals: Vec<_> = (0..4)
            .map(|i| {
                let lines: Vec<_> = (0..64u64).map(|j| LineAddr::new(i * 64 + j)).collect();
                let accesses = lines.iter().map(|&l| CAccess::read(l)).collect();
                crate::IntervalSpec::new(lines, accesses, 128)
            })
            .collect();
        execute_run(
            &PlatformConfig::tx1(),
            &intervals,
            work,
            7,
            Scenario::Interference,
            crate::NoiseModel::tx1(),
            None,
        )
        .expect("sample run")
        .output
    }

    #[test]
    fn executed_outputs_roundtrip_bit_exactly() {
        for work in [
            RunWork::PremLlc { r: 8 },
            RunWork::PremSpm,
            RunWork::Baseline,
        ] {
            let out = sample(work);
            let bytes = out.encode();
            let back = RunOutput::decode(&bytes).expect("decode");
            assert_eq!(back, out, "decode(encode(x)) != x for {work:?}");
            assert_eq!(back.encode(), bytes, "re-encode is not canonical");
        }
    }

    #[test]
    fn nonfinite_cycles_survive_the_bit_encoding() {
        let out = RunOutput::Baseline(BaselineRun {
            cycles: f64::INFINITY,
            llc: CacheStats::default(),
        });
        let back = RunOutput::decode(&out.encode()).expect("decode");
        assert_eq!(
            back.baseline().cycles.to_bits(),
            f64::INFINITY.to_bits(),
            "f64 payloads must round-trip by bit pattern"
        );
    }

    #[test]
    fn truncation_is_a_hard_error() {
        let bytes = sample(RunWork::PremLlc { r: 1 }).encode();
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            let err = RunOutput::decode(&bytes[..cut]).expect_err("truncated");
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn huge_declared_interval_count_is_truncation_not_an_allocation() {
        let bytes = sample(RunWork::PremLlc { r: 8 }).encode();
        let mut count = Vec::new();
        write_varint(&mut count, 4).expect("vec write");
        assert_eq!(
            bytes[1..1 + count.len()],
            count,
            "the count follows the tag"
        );
        // Forge the count: the bytes after it back only four intervals.
        for (declared, kind) in [
            (1u64 << 32, io::ErrorKind::UnexpectedEof),
            ((1 << 32) + 1, io::ErrorKind::InvalidData),
        ] {
            let mut forged = vec![TAG_PREM];
            write_varint(&mut forged, declared).expect("vec write");
            forged.extend_from_slice(&bytes[1 + count.len()..]);
            assert_eq!(
                RunOutput::decode(&forged).expect_err("forged count").kind(),
                kind,
                "declared {declared} intervals"
            );
        }
    }

    /// Hex digits with all whitespace ignored, as bytes.
    fn hex(digits: &str) -> Vec<u8> {
        let digits: Vec<u8> = digits
            .bytes()
            .filter(|b| !b.is_ascii_whitespace())
            .collect();
        digits
            .chunks(2)
            .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).expect("ascii"), 16))
            .collect::<Result<_, _>>()
            .expect("hex digits")
    }

    /// The LLC statistics both hand-built runs carry, and their encoding:
    /// eleven one-byte varints, then 300 writebacks as a two-byte one.
    fn layout_stats() -> (CacheStats, &'static str) {
        let stats = CacheStats {
            m_phase: AccessCounts { hits: 3, misses: 1 },
            c_phase: AccessCounts { hits: 6, misses: 2 },
            evictions: 1,
            writebacks: 300,
            ..CacheStats::default()
        };
        (stats, "03 01  06 02  00 00  00 00  01 00 00  ac02")
    }

    #[test]
    fn v2_layout_is_pinned_byte_for_byte() {
        // Any layout change fails here: bump CODEC_VERSION with the bytes,
        // so stores in the old layout are refused instead of misread.
        assert_eq!(CODEC_VERSION, 2, "the layout below is codec version 2");
        let (llc, llc_hex) = layout_stats();
        // Two intervals at a one-cycle MSG and switch: (0.5, 1.5), (2, 0.5).
        let run = PremRun {
            intervals: 2,
            breakdown: Breakdown {
                m_work: 2.5,
                c_work: 2.0,
                idle: 1.0,
                sync: 4.0,
            },
            makespan_cycles: 9.5,
            budget_envelope_cycles: 11.0,
            budgets: Budgets {
                m_cycles: 2.0,
                c_cycles: 1.5,
            },
            llc,
            cpmr: 0.25,
            prefetch_hits: 3,
            prefetch_misses: 1,
            max_rounds_used: 1,
            budget_violation_cycles: 0.0,
            interval_work: vec![(0.5, 1.5), (2.0, 0.5)],
            bus: BusWindow {
                cycles: 2.5,
                victim_bytes: 128.0,
                corunner_bytes: 0.0,
            },
            polluted_lines: 0,
        };
        let want = hex(&[
            "00 02",                                              // tag, intervals
            "0000000000000440 0000000000000040",                  // m_work, c_work
            "000000000000f03f 0000000000001040",                  // idle, sync
            "0000000000002340 0000000000002640",                  // makespan, envelope
            "0000000000000040 000000000000f83f",                  // budgets
            llc_hex,                                              // llc
            "000000000000d03f 03 01 01",                          // cpmr, prefetch, rounds
            "0000000000000000",                                   // budget violation
            "000000000000e03f 000000000000f83f",                  // interval 0
            "0000000000000040 000000000000e03f",                  // interval 1
            "0000000000000440 0000000000006040 0000000000000000", // bus
            "00",                                                 // polluted lines
        ]
        .concat());
        let out = RunOutput::Prem(run.clone());
        assert_eq!(out.encode(), want, "PREM layout");
        assert_eq!(RunOutput::decode(&want).expect("decode"), out);

        // Each further interval is its two work f64s and nothing else.
        let mut grown = run;
        for n in 3..6 {
            grown.interval_work.push((1.0, 1.0));
            grown.intervals = n;
            assert_eq!(
                RunOutput::Prem(grown.clone()).encode().len(),
                want.len() + 16 * (n - 2),
                "{n} intervals"
            );
        }

        let (llc, llc_hex) = layout_stats();
        let baseline = RunOutput::Baseline(BaselineRun { cycles: 3.0, llc });
        let want = hex(&["01 0000000000000840", llc_hex].concat());
        assert_eq!(baseline.encode(), want, "baseline layout");
        assert_eq!(RunOutput::decode(&want).expect("decode"), baseline);
    }
    #[test]
    fn varint_overflow_is_invalid_data() {
        let max: Vec<u8> = [0xff; 9].into_iter().chain([0x01]).collect();
        assert_eq!(
            read_varint(&mut max.as_slice()).expect("u64::MAX"),
            u64::MAX
        );
        let over: Vec<u8> = [0xff; 9].into_iter().chain([0x02]).collect();
        for bytes in [over, vec![0xff; 11]] {
            assert_eq!(
                read_varint(&mut bytes.as_slice())
                    .expect_err("overflow")
                    .kind(),
                io::ErrorKind::InvalidData
            );
        }
    }

    #[test]
    fn unknown_tag_and_trailing_bytes_are_rejected() {
        let mut bytes = sample(RunWork::Baseline).encode();
        bytes[0] = 0x7e;
        assert_eq!(
            RunOutput::decode(&bytes).expect_err("bad tag").kind(),
            io::ErrorKind::InvalidData
        );
        let mut bytes = sample(RunWork::Baseline).encode();
        bytes.push(0);
        assert_eq!(
            RunOutput::decode(&bytes).expect_err("trailing").kind(),
            io::ErrorKind::InvalidData
        );
    }
}
