//! The compact binary trace format: delta-varint events behind a
//! magic/version header, with a streamed [`TraceWriter`] and an iterator
//! [`TraceReader`].
//!
//! ## Layout
//!
//! ```text
//! header  := magic "PRTC" | version u8 | label (varint len + UTF-8 bytes)
//!          | size_bytes | ways | line_bytes | index_hash u8 | seed
//!          | policy tag u8 [| weight count | weights…]        (all varint)
//! event   := tag u8 [operands…]
//! tag     := code (low 3 bits) | payload (high 5 bits)
//! trailer := tag End | event count (varint)
//! ```
//!
//! Line addresses are zigzag-encoded deltas against the previously coded
//! line, timestamps are wrapping u64 deltas against the previously coded
//! timestamp — both chosen for the shape of real captures, where
//! consecutive events touch neighbouring lines (delta ±1 fits one byte)
//! and timestamps advance monotonically by small strides. The encoding is
//! total: arbitrary event sequences (including non-monotone timestamps
//! fed in by the property suite) round-trip exactly, they just compress
//! worse.

use std::io::{self, Read, Write};

use prem_core::codec::{bad_data, read_u8, read_varint, write_varint};
use prem_memsim::{CacheConfig, LineAddr, Policy};

use crate::event::{kind_code, kind_from_code, phase_code, phase_from_code, TraceEvent};

/// File magic: the first four bytes of every trace.
pub const MAGIC: [u8; 4] = *b"PRTC";
/// Format version this crate writes and reads.
pub const VERSION: u8 = 1;
/// Maximum encoded label length. The writer truncates longer labels at a
/// character boundary; the reader rejects anything beyond this as corrupt
/// — the two sides enforce the same cap so every written trace decodes.
pub const MAX_LABEL_BYTES: usize = 4096;

/// Event codes (low 3 bits of the tag byte).
const CODE_ACCESS: u8 = 0;
const CODE_FILL: u8 = 1;
const CODE_EVICT: u8 = 2;
const CODE_WRITEBACK: u8 = 3;
const CODE_INTERVAL: u8 = 4;
const CODE_PHASE: u8 = 5;
const CODE_DRAM: u8 = 6;
const CODE_END: u8 = 7;

/// Everything needed to rebuild the captured cache for replay: the full
/// [`CacheConfig`] (geometry, policy, index hashing and the *effective*
/// RNG seed of the timed run) plus a human-readable label naming the
/// captured workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceHeader {
    /// Workload label, e.g. `bicg(512x512)`. Labels longer than
    /// [`MAX_LABEL_BYTES`] are truncated (at a character boundary) when
    /// encoded.
    pub label: String,
    /// The captured cache configuration (policy and seed included).
    pub cache: CacheConfig,
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

fn policy_tag(policy: &Policy) -> u8 {
    match policy {
        Policy::Lru => 0,
        Policy::Fifo => 1,
        Policy::PseudoLru => 2,
        Policy::Random => 3,
        Policy::BiasedRandom { .. } => 4,
        Policy::Nmru => 5,
        Policy::Srrip => 6,
    }
}

fn write_header<W: Write>(w: &mut W, header: &TraceHeader) -> io::Result<()> {
    w.write_all(&MAGIC)?;
    w.write_all(&[VERSION])?;
    let mut label = header.label.as_str();
    if label.len() > MAX_LABEL_BYTES {
        let mut end = MAX_LABEL_BYTES;
        while !label.is_char_boundary(end) {
            end -= 1;
        }
        label = &label[..end];
    }
    write_varint(w, label.len() as u64)?;
    w.write_all(label.as_bytes())?;
    let c = &header.cache;
    write_varint(w, c.size_bytes() as u64)?;
    write_varint(w, c.ways() as u64)?;
    write_varint(w, c.line_bytes() as u64)?;
    w.write_all(&[u8::from(c.has_index_hash())])?;
    write_varint(w, c.seed_value())?;
    let policy = c.policy_ref();
    w.write_all(&[policy_tag(policy)])?;
    if let Policy::BiasedRandom { weights } = policy {
        write_varint(w, weights.len() as u64)?;
        for &weight in weights {
            write_varint(w, u64::from(weight))?;
        }
    }
    Ok(())
}

fn read_header<R: Read>(r: &mut R) -> io::Result<TraceHeader> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(bad_data("not a PREM trace (bad magic)"));
    }
    let version = read_u8(r)?;
    if version != VERSION {
        return Err(bad_data("unsupported trace version"));
    }
    let label_len = read_varint(r)? as usize;
    if label_len > MAX_LABEL_BYTES {
        return Err(bad_data("unreasonable label length"));
    }
    let mut label = vec![0u8; label_len];
    r.read_exact(&mut label)?;
    let label = String::from_utf8(label).map_err(|_| bad_data("label is not UTF-8"))?;
    let size_bytes = read_varint(r)? as usize;
    let ways = read_varint(r)? as usize;
    let line_bytes = read_varint(r)? as usize;
    let index_hash = read_u8(r)? != 0;
    let seed = read_varint(r)?;
    let policy = match read_u8(r)? {
        0 => Policy::Lru,
        1 => Policy::Fifo,
        2 => Policy::PseudoLru,
        3 => Policy::Random,
        4 => {
            let n = read_varint(r)? as usize;
            if n == 0 || n > 1024 {
                return Err(bad_data("unreasonable weight count"));
            }
            let mut weights = Vec::with_capacity(n);
            for _ in 0..n {
                let weight = read_varint(r)?;
                let weight = u32::try_from(weight).map_err(|_| bad_data("weight overflows u32"))?;
                weights.push(weight);
            }
            Policy::BiasedRandom { weights }
        }
        5 => Policy::Nmru,
        6 => Policy::Srrip,
        _ => return Err(bad_data("unknown policy tag")),
    };
    let cache = CacheConfig::new(size_bytes, ways, line_bytes)
        .policy(policy)
        .seed(seed)
        .index_hash(index_hash);
    // Reject corrupt geometry here, at the untrusted boundary, instead
    // of letting Cache::new panic (or set_index mis-mask) downstream.
    cache
        .validate()
        .map_err(|e| bad_data(&format!("invalid cache geometry in header: {e}")))?;
    Ok(TraceHeader { label, cache })
}

/// Streamed trace encoder over any [`Write`].
///
/// Events are encoded incrementally ([`TraceWriter::emit`]); the stream is
/// only complete once [`TraceWriter::finish`] has appended the end marker
/// and event count.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    w: W,
    prev_line: u64,
    prev_ts: u64,
    count: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Starts a trace on `w`, writing the header immediately.
    ///
    /// # Errors
    ///
    /// Any I/O error from the underlying writer.
    pub fn new(mut w: W, header: &TraceHeader) -> io::Result<Self> {
        write_header(&mut w, header)?;
        Ok(TraceWriter {
            w,
            prev_line: 0,
            prev_ts: 0,
            count: 0,
        })
    }

    fn line_delta(&mut self, line: LineAddr) -> u64 {
        let delta = zigzag(line.raw().wrapping_sub(self.prev_line) as i64);
        self.prev_line = line.raw();
        delta
    }

    fn ts_delta(&mut self, ts: u64) -> u64 {
        let delta = ts.wrapping_sub(self.prev_ts);
        self.prev_ts = ts;
        delta
    }

    /// Appends one event.
    ///
    /// # Errors
    ///
    /// Any I/O error from the underlying writer.
    pub fn emit(&mut self, event: &TraceEvent) -> io::Result<()> {
        self.count += 1;
        match *event {
            TraceEvent::Access {
                ts,
                line,
                kind,
                phase,
                hit,
            } => {
                let payload = kind_code(kind) | (phase_code(phase) << 2) | (u8::from(hit) << 4);
                self.w.write_all(&[CODE_ACCESS | (payload << 3)])?;
                let line = self.line_delta(line);
                write_varint(&mut self.w, line)?;
                let ts = self.ts_delta(ts);
                write_varint(&mut self.w, ts)
            }
            TraceEvent::Fill { line, way } => {
                self.w.write_all(&[CODE_FILL])?;
                let line = self.line_delta(line);
                write_varint(&mut self.w, line)?;
                write_varint(&mut self.w, u64::from(way))
            }
            TraceEvent::Evict {
                line,
                alive,
                dirty,
                foreign,
                by,
            } => {
                let payload = u8::from(alive)
                    | (u8::from(dirty) << 1)
                    | (u8::from(foreign) << 2)
                    | (phase_code(by) << 3);
                self.w.write_all(&[CODE_EVICT | (payload << 3)])?;
                let line = self.line_delta(line);
                write_varint(&mut self.w, line)
            }
            TraceEvent::Writeback { line } => {
                self.w.write_all(&[CODE_WRITEBACK])?;
                let line = self.line_delta(line);
                write_varint(&mut self.w, line)
            }
            TraceEvent::IntervalBegin => self.w.write_all(&[CODE_INTERVAL]),
            TraceEvent::PhaseBegin { ts, phase } => {
                self.w.write_all(&[CODE_PHASE | (phase_code(phase) << 3)])?;
                let ts = self.ts_delta(ts);
                write_varint(&mut self.w, ts)
            }
            TraceEvent::DramTransfer { ts, line, write } => {
                self.w.write_all(&[CODE_DRAM | (u8::from(write) << 3)])?;
                let line = self.line_delta(line);
                write_varint(&mut self.w, line)?;
                let ts = self.ts_delta(ts);
                write_varint(&mut self.w, ts)
            }
        }
    }

    /// Writes the end marker + event count and returns the inner writer.
    ///
    /// # Errors
    ///
    /// Any I/O error from the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.w.write_all(&[CODE_END])?;
        write_varint(&mut self.w, self.count)?;
        Ok(self.w)
    }
}

/// Streamed trace decoder over any [`Read`], yielding events as an
/// iterator.
///
/// The iterator ends (`None`) only after a valid end marker whose event
/// count matches; truncated or corrupt input yields an `Err` item instead.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    r: R,
    header: TraceHeader,
    prev_line: u64,
    prev_ts: u64,
    count: u64,
    state: ReaderState,
}

#[derive(Debug, PartialEq, Eq)]
enum ReaderState {
    Streaming,
    Done,
    Failed,
}

impl<R: Read> TraceReader<R> {
    /// Opens a trace, reading and validating the header.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] on bad magic/version/header fields,
    /// or any I/O error from the underlying reader.
    pub fn new(mut r: R) -> io::Result<Self> {
        let header = read_header(&mut r)?;
        Ok(TraceReader {
            r,
            header,
            prev_line: 0,
            prev_ts: 0,
            count: 0,
            state: ReaderState::Streaming,
        })
    }

    /// The decoded header.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    fn read_line(&mut self) -> io::Result<LineAddr> {
        let delta = unzigzag(read_varint(&mut self.r)?);
        self.prev_line = self.prev_line.wrapping_add(delta as u64);
        Ok(LineAddr::new(self.prev_line))
    }

    fn read_ts(&mut self) -> io::Result<u64> {
        let delta = read_varint(&mut self.r)?;
        self.prev_ts = self.prev_ts.wrapping_add(delta);
        Ok(self.prev_ts)
    }

    fn next_event(&mut self) -> io::Result<Option<TraceEvent>> {
        let tag = read_u8(&mut self.r)?;
        let payload = tag >> 3;
        let event = match tag & 0x07 {
            CODE_ACCESS => {
                let kind = kind_from_code(payload & 3)
                    .ok_or_else(|| bad_data("unassigned access kind"))?;
                let phase = phase_from_code((payload >> 2) & 3);
                let hit = payload & 0x10 != 0;
                let line = self.read_line()?;
                let ts = self.read_ts()?;
                TraceEvent::Access {
                    ts,
                    line,
                    kind,
                    phase,
                    hit,
                }
            }
            CODE_FILL => {
                let line = self.read_line()?;
                let way = read_varint(&mut self.r)?;
                let way = u32::try_from(way).map_err(|_| bad_data("way overflows u32"))?;
                TraceEvent::Fill { line, way }
            }
            CODE_EVICT => {
                let line = self.read_line()?;
                TraceEvent::Evict {
                    line,
                    alive: payload & 1 != 0,
                    dirty: payload & 2 != 0,
                    foreign: payload & 4 != 0,
                    by: phase_from_code((payload >> 3) & 3),
                }
            }
            CODE_WRITEBACK => {
                let line = self.read_line()?;
                TraceEvent::Writeback { line }
            }
            CODE_INTERVAL => TraceEvent::IntervalBegin,
            CODE_PHASE => {
                let ts = self.read_ts()?;
                TraceEvent::PhaseBegin {
                    ts,
                    phase: phase_from_code(payload & 3),
                }
            }
            CODE_DRAM => {
                let line = self.read_line()?;
                let ts = self.read_ts()?;
                TraceEvent::DramTransfer {
                    ts,
                    line,
                    write: payload & 1 != 0,
                }
            }
            _ => {
                // CODE_END: validate the trailer and stop.
                let declared = read_varint(&mut self.r)?;
                if declared != self.count {
                    return Err(bad_data("event count mismatch at end marker"));
                }
                return Ok(None);
            }
        };
        self.count += 1;
        Ok(Some(event))
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = io::Result<TraceEvent>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.state != ReaderState::Streaming {
            return None;
        }
        match self.next_event() {
            Ok(Some(event)) => Some(Ok(event)),
            Ok(None) => {
                self.state = ReaderState::Done;
                None
            }
            Err(e) => {
                self.state = ReaderState::Failed;
                Some(Err(e))
            }
        }
    }
}

/// An in-memory trace: header + decoded events.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// The capture header.
    pub header: TraceHeader,
    /// All events, in capture order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Encodes the whole trace into a byte vector.
    pub fn encode(&self) -> Vec<u8> {
        let mut writer =
            TraceWriter::new(Vec::new(), &self.header).expect("writing to a Vec cannot fail");
        for event in &self.events {
            writer.emit(event).expect("writing to a Vec cannot fail");
        }
        writer.finish().expect("writing to a Vec cannot fail")
    }

    /// Decodes a trace from any reader.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] on corrupt input,
    /// [`io::ErrorKind::UnexpectedEof`] on truncation, or any I/O error
    /// from the underlying reader.
    pub fn read_from<R: Read>(r: R) -> io::Result<Trace> {
        let mut reader = TraceReader::new(r)?;
        let mut events = Vec::new();
        for event in &mut reader {
            events.push(event?);
        }
        Ok(Trace {
            header: reader.header.clone(),
            events,
        })
    }

    /// Decodes a trace from a byte slice.
    ///
    /// # Errors
    ///
    /// As for [`Trace::read_from`].
    pub fn decode(bytes: &[u8]) -> io::Result<Trace> {
        Trace::read_from(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prem_memsim::{AccessKind, Phase, KIB};

    fn header() -> TraceHeader {
        TraceHeader {
            label: "unit".into(),
            cache: CacheConfig::new(256 * KIB, 4, 128)
                .policy(Policy::nvidia_tegra())
                .seed(11)
                .index_hash(true),
        }
    }

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::IntervalBegin,
            TraceEvent::PhaseBegin {
                ts: 40,
                phase: Phase::MPhase,
            },
            TraceEvent::Access {
                ts: 41,
                line: LineAddr::new(100),
                kind: AccessKind::Prefetch,
                phase: Phase::MPhase,
                hit: false,
            },
            TraceEvent::Evict {
                line: LineAddr::new(36),
                alive: true,
                dirty: true,
                foreign: false,
                by: Phase::MPhase,
            },
            TraceEvent::Writeback {
                line: LineAddr::new(36),
            },
            TraceEvent::Fill {
                line: LineAddr::new(100),
                way: 2,
            },
            TraceEvent::DramTransfer {
                ts: 50,
                line: LineAddr::new(7),
                write: true,
            },
            TraceEvent::Access {
                ts: 60,
                line: LineAddr::new(101),
                kind: AccessKind::Read,
                phase: Phase::CPhase,
                hit: true,
            },
        ]
    }

    #[test]
    fn roundtrip_preserves_header_and_events() {
        let trace = Trace {
            header: header(),
            events: sample_events(),
        };
        let bytes = trace.encode();
        let back = Trace::decode(&bytes).expect("decode");
        assert_eq!(back, trace);
    }

    #[test]
    fn sequential_lines_encode_compactly() {
        // 1000 sequential prefetches at a constant stride: tag + 1-byte
        // line delta + 1-byte ts delta = 3 bytes per event, plus
        // header/trailer slack.
        let events: Vec<TraceEvent> = (0..1000u64)
            .map(|i| TraceEvent::Access {
                ts: 40 + 30 * i,
                line: LineAddr::new(512 + i),
                kind: AccessKind::Prefetch,
                phase: Phase::MPhase,
                hit: false,
            })
            .collect();
        let trace = Trace {
            header: header(),
            events,
        };
        let bytes = trace.encode();
        assert!(bytes.len() < 3 * 1000 + 64, "encoded {} bytes", bytes.len());
        assert_eq!(Trace::decode(&bytes).expect("decode"), trace);
    }

    #[test]
    fn truncation_is_an_error_not_a_short_trace() {
        let trace = Trace {
            header: header(),
            events: sample_events(),
        };
        let bytes = trace.encode();
        let err = Trace::decode(&bytes[..bytes.len() - 1]).expect_err("truncated");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn overlong_labels_are_truncated_not_unreadable() {
        let trace = Trace {
            header: TraceHeader {
                label: "€".repeat(2000), // 6000 bytes; 4096 falls mid-char
                cache: CacheConfig::new(1024, 2, 64),
            },
            events: sample_events(),
        };
        let back = Trace::decode(&trace.encode()).expect("truncated label must decode");
        assert!(back.header.label.len() <= MAX_LABEL_BYTES);
        assert!(trace.header.label.starts_with(&back.header.label));
        assert_eq!(back.events, trace.events);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = Trace {
            header: header(),
            events: vec![],
        }
        .encode();
        bytes[0] = b'X';
        let err = Trace::decode(&bytes).expect_err("bad magic");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn miscounted_trailer_is_rejected() {
        let header = header();
        let mut w = TraceWriter::new(Vec::new(), &header).unwrap();
        w.emit(&TraceEvent::IntervalBegin).unwrap();
        // Forge a trailer declaring two events.
        let mut bytes = w.w;
        bytes.push(CODE_END);
        bytes.push(2);
        let err = Trace::decode(&bytes).expect_err("count mismatch");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn all_policies_roundtrip_in_header() {
        for policy in [
            Policy::Lru,
            Policy::Fifo,
            Policy::PseudoLru,
            Policy::Random,
            Policy::nvidia_like(8),
            Policy::Nmru,
            Policy::Srrip,
        ] {
            let trace = Trace {
                header: TraceHeader {
                    label: format!("p-{}", policy.name()),
                    cache: CacheConfig::new(64 * KIB, 8, 128).policy(policy).seed(3),
                },
                events: vec![],
            };
            assert_eq!(Trace::decode(&trace.encode()).expect("decode"), trace);
        }
    }

    #[test]
    fn streamed_reader_yields_header_first() {
        let trace = Trace {
            header: header(),
            events: sample_events(),
        };
        let bytes = trace.encode();
        let reader = TraceReader::new(&bytes[..]).expect("open");
        assert_eq!(reader.header(), &trace.header);
        let events: Vec<TraceEvent> = reader.map(|e| e.expect("event")).collect();
        assert_eq!(events, trace.events);
    }
}
