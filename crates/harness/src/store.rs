//! The persistent, shareable on-disk run cache.
//!
//! [`PlanExecutor`](crate::PlanExecutor) memoizes run outputs in memory
//! and forgets them at process exit; a [`RunStore`] makes the
//! content-addressed cache durable, so consecutive `figures` / `matrix`
//! invocations are incremental: a warm regeneration is served entirely
//! from disk, and an experiment tweak re-executes only the requests whose
//! canonical keys actually changed (the platform-config digest inside
//! every key invalidates exactly the touched frontier).
//!
//! ## On-disk layout
//!
//! A store is a directory of up to [`STORE_SHARDS`] **segment files**,
//! `seg-0.prst` … `seg-f.prst`, one per low nibble of the request
//! fingerprint ([`crate::seed::fingerprint`]), in the style of
//! `prem-trace`'s `PRTC` container:
//!
//! ```text
//! segment := magic "PRST" | store version u8 | codec version u8
//!          | shard index u8 | reserved u8 (0) | record count u32 LE
//!          | record*
//! record  := fingerprint u64 LE
//!          | key length varint | canonical key (UTF-8)
//!          | payload length varint | payload (RunOutput, prem-core codec)
//!          | payload checksum u64 LE (FNV-1a + SplitMix64)
//! ```
//!
//! Records are sorted by canonical key when a segment is written, so two
//! stores holding the same entries are byte-identical regardless of
//! insertion history.
//!
//! ## Integrity: corruption is a hard error
//!
//! A cache that silently drops or invents results would corrupt published
//! artifacts, so every load re-validates everything and **fails loudly**:
//! bad magic, unknown store/codec version, a segment filed under the
//! wrong shard, truncation (mid-record EOF or a record count the bytes
//! cannot back), trailing bytes, a stored fingerprint that does not match
//! the record's key, a payload failing its checksum or decode, two
//! records with equal fingerprints but different keys (fingerprint
//! collision), and two records for one key with different outputs all
//! surface as [`io::ErrorKind::InvalidData`] /
//! [`io::ErrorKind::UnexpectedEof`]. Recovery is deletion: remove the
//! cache directory (or the one poisoned segment) and re-run — the store
//! is a cache of deterministic executions, never the only copy of
//! anything.
//!
//! ## Multi-process sharing
//!
//! Worker processes share one store through per-shard **advisory file
//! locks** (`seg-x.lock`, never renamed): readers take the lock shared,
//! writers exclusive. An append re-reads the segment under the exclusive
//! lock, merges (a raced duplicate of the same key must carry a
//! bit-identical output — determinism makes that a checkable invariant,
//! not an assumption), writes the merged segment to a temp file in the
//! same directory and atomically renames it into place. A concurrent
//! reader therefore sees either the old or the new segment, never a
//! partial write.

use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use prem_core::codec::{read_varint, write_varint};
use prem_core::{RunOutput, CODEC_VERSION};
use prem_obs::{MetricsSink, NullMetrics, Span};

use crate::seed::{fingerprint, fingerprint_bytes};

/// File magic: the first four bytes of every segment file.
pub const STORE_MAGIC: [u8; 4] = *b"PRST";
/// Store container format version this crate writes and reads.
pub const STORE_VERSION: u8 = 1;
/// Number of segment files a store shards its records over. A power of
/// two so the fingerprint selects a segment by masking — the same scheme
/// (and count) as the in-memory `PlanExecutor` shards.
pub const STORE_SHARDS: usize = 16;

/// Segments larger than this many records are rejected as corrupt: at
/// ≥ 25 encoded bytes per record the byte count alone could never back
/// such a claim, so the cap bounds allocation on hostile headers without
/// constraining any real cache.
const MAX_SEGMENT_RECORDS: u64 = 1 << 28;

fn bad_data(path: &Path, msg: impl fmt::Display) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("run store {}: {msg}", path.display()),
    )
}

/// Reads one length varint ([`read_varint`]), naming the segment in an
/// overflow error; truncation stays [`io::ErrorKind::UnexpectedEof`].
fn read_len(r: &mut &[u8], path: &Path) -> io::Result<usize> {
    match read_varint(r) {
        Err(e) if e.kind() == io::ErrorKind::InvalidData => Err(bad_data(path, e)),
        len => len.map(|v| v as usize),
    }
}

/// One shard's decoded records: canonical key → output, plus the
/// fingerprint → key index that makes fingerprint collisions detectable
/// at load and append time.
#[derive(Debug, Default, Clone)]
struct ShardMap {
    by_key: HashMap<String, RunOutput>,
    by_fp: HashMap<u64, String>,
}

impl ShardMap {
    /// Inserts one record, enforcing the collision and conflict
    /// invariants. Returns `true` when the record was new.
    fn insert(&mut self, fp: u64, key: String, output: RunOutput, path: &Path) -> io::Result<bool> {
        if let Some(prev) = self.by_fp.get(&fp) {
            if *prev != key {
                return Err(bad_data(
                    path,
                    format!("fingerprint collision: {fp:#018x} maps to both {prev:?} and {key:?}"),
                ));
            }
        }
        match self.by_key.get(&key) {
            Some(existing) if *existing == output => Ok(false),
            Some(_) => Err(bad_data(
                path,
                format!("conflicting outputs recorded for key {key:?}"),
            )),
            None => {
                self.by_fp.insert(fp, key.clone());
                self.by_key.insert(key, output);
                Ok(true)
            }
        }
    }
}

/// Aggregate shape of a store, as reported by [`RunStore::stats`] and
/// [`RunStore::verify`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Segment files present on disk.
    pub segments: usize,
    /// Total records across all segments.
    pub records: usize,
    /// Total segment bytes on disk.
    pub bytes: u64,
    /// Records per shard (index = fingerprint low nibble).
    pub shard_records: [usize; STORE_SHARDS],
}

impl fmt::Display for StoreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "run store: {} records in {} segment file(s), {} bytes",
            self.records, self.segments, self.bytes
        )?;
        for (idx, count) in self.shard_records.iter().enumerate() {
            if *count > 0 {
                writeln!(f, "  seg-{idx:x}.prst: {count} record(s)")?;
            }
        }
        Ok(())
    }
}

/// Outcome of a [`RunStore::gc`] sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Records retained.
    pub kept: usize,
    /// Records dropped.
    pub removed: usize,
    /// Segment bytes before the sweep.
    pub bytes_before: u64,
    /// Segment bytes after the sweep.
    pub bytes_after: u64,
}

impl fmt::Display for GcReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "gc: kept {} record(s), removed {}, {} -> {} bytes",
            self.kept, self.removed, self.bytes_before, self.bytes_after
        )
    }
}

/// The persistent run cache: fingerprint-sharded segment files of
/// (canonical key, [`RunOutput`]) records under one directory. See the
/// [module docs](self) for format, integrity and locking.
///
/// Shards are loaded lazily (first lookup touching a shard parses its
/// segment, validating every record) and cached in memory; appends merge
/// with the on-disk state under an exclusive advisory lock, so multiple
/// worker processes can share one directory.
///
/// ```
/// use prem_harness::RunStore;
/// let dir = std::env::temp_dir().join(format!("prem-store-doc-{}", std::process::id()));
/// let store = RunStore::open(&dir)?;          // creates the directory
/// assert_eq!(store.stats()?.records, 0);      // empty store: no segments yet
/// assert!(store.get("bicg(128x128)|tx1|…")?.is_none());
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct RunStore {
    dir: PathBuf,
    shards: Vec<Mutex<Option<ShardMap>>>,
}

impl RunStore {
    /// Opens (creating if necessary) the store directory at `dir`.
    /// Segments are not read here — loading is lazy and per shard.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the directory.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<RunStore> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(RunStore {
            dir,
            shards: (0..STORE_SHARDS).map(|_| Mutex::new(None)).collect(),
        })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Shard index of a canonical key: low nibble of its fingerprint.
    fn shard_of(key: &str) -> usize {
        (fingerprint(key) as usize) & (STORE_SHARDS - 1)
    }

    fn segment_path(&self, idx: usize) -> PathBuf {
        self.dir.join(format!("seg-{idx:x}.prst"))
    }

    fn lock_path(&self, idx: usize) -> PathBuf {
        self.dir.join(format!("seg-{idx:x}.lock"))
    }

    /// Opens (creating if necessary) shard `idx`'s lock file. The lock
    /// file is separate from the segment and never renamed, so a lock
    /// taken on it stays meaningful across the segment's atomic
    /// replacement.
    fn lock_file(&self, idx: usize) -> io::Result<File> {
        OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(self.lock_path(idx))
    }

    /// Parses one segment file's bytes, validating every record.
    fn parse_segment(&self, idx: usize, bytes: &[u8], path: &Path) -> io::Result<ShardMap> {
        let mut r = bytes;
        let mut header = [0u8; 12];
        r.read_exact(&mut header)?;
        if header[0..4] != STORE_MAGIC {
            return Err(bad_data(path, "not a run-store segment (bad magic)"));
        }
        if header[4] != STORE_VERSION {
            return Err(bad_data(
                path,
                format!(
                    "unsupported store version {} (expected {STORE_VERSION})",
                    header[4]
                ),
            ));
        }
        if header[5] != CODEC_VERSION {
            return Err(bad_data(
                path,
                format!(
                    "run-output codec version {} does not match this build's {CODEC_VERSION} — \
                     delete the cache directory to regenerate it",
                    header[5]
                ),
            ));
        }
        if usize::from(header[6]) != idx {
            return Err(bad_data(
                path,
                format!("segment filed under shard {idx} claims shard {}", header[6]),
            ));
        }
        if header[7] != 0 {
            return Err(bad_data(path, "nonzero reserved header byte"));
        }
        let count = u64::from(u32::from_le_bytes([
            header[8], header[9], header[10], header[11],
        ]));
        if count > MAX_SEGMENT_RECORDS {
            return Err(bad_data(path, "unreasonable record count"));
        }
        let mut map = ShardMap::default();
        for _ in 0..count {
            let mut fp_bytes = [0u8; 8];
            r.read_exact(&mut fp_bytes)?;
            let fp = u64::from_le_bytes(fp_bytes);
            let key_len = read_len(&mut r, path)?;
            if key_len > r.len() {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("run store {}: truncated key", path.display()),
                ));
            }
            let mut key_bytes = vec![0u8; key_len];
            r.read_exact(&mut key_bytes)?;
            let key = String::from_utf8(key_bytes)
                .map_err(|_| bad_data(path, "record key is not UTF-8"))?;
            if fingerprint(&key) != fp {
                return Err(bad_data(
                    path,
                    format!("stored fingerprint does not match key {key:?}"),
                ));
            }
            if fp as usize & (STORE_SHARDS - 1) != idx {
                return Err(bad_data(
                    path,
                    format!("record for key {key:?} belongs to another shard"),
                ));
            }
            let payload_len = read_len(&mut r, path)?;
            if payload_len > r.len() {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("run store {}: truncated payload", path.display()),
                ));
            }
            let (payload, rest) = r.split_at(payload_len);
            r = rest;
            let mut check = [0u8; 8];
            r.read_exact(&mut check)?;
            if u64::from_le_bytes(check) != fingerprint_bytes(payload) {
                return Err(bad_data(
                    path,
                    format!("payload checksum mismatch for key {key:?}"),
                ));
            }
            let output = RunOutput::decode(payload)
                .map_err(|e| bad_data(path, format!("undecodable payload for key {key:?}: {e}")))?;
            if !map.insert(fp, key, output, path)? {
                return Err(bad_data(path, "duplicate record within one segment"));
            }
        }
        if !r.is_empty() {
            return Err(bad_data(path, "trailing bytes after final record"));
        }
        Ok(map)
    }

    /// Reads and parses shard `idx` from disk; the caller holds the
    /// shard's advisory lock (shared or exclusive). An absent segment is
    /// an empty shard. Actual segment reads are metered: one
    /// `store.segment_loads` count, `store.bytes_read` (total and
    /// per-shard) and a `store.load_ns` latency sample.
    fn load_from_disk<M: MetricsSink>(&self, idx: usize, metrics: &M) -> io::Result<ShardMap> {
        let _load = Span::start(metrics, "store.load_ns");
        let path = self.segment_path(idx);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(ShardMap::default()),
            Err(e) => return Err(e),
        };
        metrics.add("store.segment_loads", 1);
        metrics.add("store.bytes_read", bytes.len() as u64);
        if metrics.enabled() {
            // Dynamic names allocate; keep the format off the disabled path.
            metrics.add(
                &format!("store.shard.{idx:x}.bytes_read"),
                bytes.len() as u64,
            );
        }
        self.parse_segment(idx, &bytes, &path)
    }

    /// Serializes `map` and atomically replaces shard `idx`'s segment
    /// (write to a temp file in the same directory, fsync, rename). An
    /// empty map removes the segment file instead. Metered: written
    /// bytes land in `store.bytes_written` (total and per-shard).
    fn write_segment_metered<M: MetricsSink>(
        &self,
        idx: usize,
        map: &ShardMap,
        metrics: &M,
    ) -> io::Result<()> {
        let path = self.segment_path(idx);
        if map.by_key.is_empty() {
            return match fs::remove_file(&path) {
                Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
                _ => Ok(()),
            };
        }
        let mut keys: Vec<&String> = map.by_key.keys().collect();
        keys.sort();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&STORE_MAGIC);
        bytes.extend_from_slice(&[STORE_VERSION, CODEC_VERSION, idx as u8, 0]);
        let count = u32::try_from(map.by_key.len())
            .map_err(|_| bad_data(&path, "record count overflows the segment header"))?;
        bytes.extend_from_slice(&count.to_le_bytes());
        for key in keys {
            bytes.extend_from_slice(&fingerprint(key).to_le_bytes());
            write_varint(&mut bytes, key.len() as u64).expect("writing to a Vec cannot fail");
            bytes.extend_from_slice(key.as_bytes());
            let payload = map.by_key[key].encode();
            write_varint(&mut bytes, payload.len() as u64).expect("writing to a Vec cannot fail");
            let checksum = fingerprint_bytes(&payload);
            bytes.extend_from_slice(&payload);
            bytes.extend_from_slice(&checksum.to_le_bytes());
        }
        metrics.add("store.bytes_written", bytes.len() as u64);
        if metrics.enabled() {
            metrics.add(
                &format!("store.shard.{idx:x}.bytes_written"),
                bytes.len() as u64,
            );
        }
        let tmp = self
            .dir
            .join(format!("seg-{idx:x}.tmp.{}", std::process::id()));
        let mut file = File::create(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, &path)
    }

    /// Runs `f` on shard `idx`'s in-memory map, loading it from disk
    /// first (under a shared advisory lock, its wait metered as
    /// `store.lock_wait_ns`) if this is the shard's first touch.
    fn with_shard<T, M: MetricsSink>(
        &self,
        idx: usize,
        metrics: &M,
        f: impl FnOnce(&ShardMap) -> T,
    ) -> io::Result<T> {
        let mut guard = self.shards[idx].lock().expect("store shard poisoned");
        if guard.is_none() {
            let lock = self.lock_file(idx)?;
            {
                let _wait = Span::start(metrics, "store.lock_wait_ns");
                lock.lock_shared()?;
            }
            let loaded = self.load_from_disk(idx, metrics);
            let _ = File::unlock(&lock);
            *guard = Some(loaded?);
        }
        Ok(f(guard.as_ref().expect("shard loaded above")))
    }

    /// Looks up the output recorded for `key`, loading the key's shard on
    /// first touch.
    ///
    /// The in-memory image is a snapshot: records appended by *another*
    /// process after this process first loaded the shard are not visible
    /// until a fresh [`RunStore::open`] (or [`RunStore::verify`], which
    /// re-reads). Missing a racing writer's record is safe — the re-execution
    /// it causes appends a bit-identical output, which the merge accepts.
    ///
    /// # Errors
    ///
    /// Corruption anywhere in the shard's segment is a hard error (see
    /// the [module docs](self)); so is any underlying I/O failure.
    pub fn get(&self, key: &str) -> io::Result<Option<RunOutput>> {
        self.get_metered(key, &NullMetrics)
    }

    /// [`RunStore::get`] recording segment-load and lock-wait metrics
    /// into `metrics` (the store-backed executor's metered tier).
    ///
    /// # Errors
    ///
    /// As for [`RunStore::get`].
    pub fn get_metered<M: MetricsSink>(
        &self,
        key: &str,
        metrics: &M,
    ) -> io::Result<Option<RunOutput>> {
        self.with_shard(Self::shard_of(key), metrics, |map| {
            map.by_key.get(key).cloned()
        })
    }

    /// Whether `key` has a recorded output (same loading and error
    /// behavior as [`RunStore::get`], without cloning the payload).
    ///
    /// # Errors
    ///
    /// As for [`RunStore::get`].
    pub fn contains(&self, key: &str) -> io::Result<bool> {
        self.with_shard(Self::shard_of(key), &NullMetrics, |map| {
            map.by_key.contains_key(key)
        })
    }

    /// Durably records `entries` (canonical key → output), returning how
    /// many were new. Entries are grouped by shard; each touched shard is
    /// re-read from disk under an exclusive advisory lock, merged and
    /// atomically rewritten, so concurrent appenders from other processes
    /// cannot lose records.
    ///
    /// A key already recorded with a bit-identical output is skipped (two
    /// processes raced on the same deterministic run); one recorded with
    /// a *different* output is a hard error.
    ///
    /// # Errors
    ///
    /// Corruption (including output conflicts and fingerprint collisions)
    /// and any underlying I/O failure.
    pub fn append<'e>(
        &self,
        entries: impl IntoIterator<Item = (&'e str, &'e RunOutput)>,
    ) -> io::Result<usize> {
        self.append_metered(entries, &NullMetrics)
    }

    /// [`RunStore::append`] recording per-shard merge latency
    /// (`store.append_ns`), exclusive-lock waits (`store.lock_wait_ns`),
    /// written bytes and appended-record counts into `metrics`.
    ///
    /// # Errors
    ///
    /// As for [`RunStore::append`].
    pub fn append_metered<'e, M: MetricsSink>(
        &self,
        entries: impl IntoIterator<Item = (&'e str, &'e RunOutput)>,
        metrics: &M,
    ) -> io::Result<usize> {
        let mut by_shard: Vec<Vec<(&str, &RunOutput)>> = vec![Vec::new(); STORE_SHARDS];
        for (key, output) in entries {
            by_shard[Self::shard_of(key)].push((key, output));
        }
        let mut added_total = 0;
        for (idx, batch) in by_shard.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let _append = Span::start(metrics, "store.append_ns");
            let mut guard = self.shards[idx].lock().expect("store shard poisoned");
            let lock = self.lock_file(idx)?;
            {
                let _wait = Span::start(metrics, "store.lock_wait_ns");
                lock.lock()?;
            }
            let result = (|| {
                let mut merged = self.load_from_disk(idx, metrics)?;
                let path = self.segment_path(idx);
                let mut added = 0;
                for (key, output) in batch {
                    if merged.insert(fingerprint(key), key.to_string(), output.clone(), &path)? {
                        added += 1;
                    }
                }
                if added > 0 {
                    self.write_segment_metered(idx, &merged, metrics)?;
                }
                *guard = Some(merged);
                Ok::<usize, io::Error>(added)
            })();
            let _ = File::unlock(&lock);
            added_total += result?;
        }
        metrics.add("store.appended_records", added_total as u64);
        Ok(added_total)
    }

    /// Counts records and bytes per shard, loading (and thereby
    /// validating) any shard not yet in memory.
    ///
    /// # Errors
    ///
    /// As for [`RunStore::get`].
    pub fn stats(&self) -> io::Result<StoreStats> {
        self.stats_metered(&NullMetrics)
    }

    /// [`RunStore::stats`] reporting through `metrics` as well: shape
    /// gauges (`store.records`, `store.segments`, `store.bytes`,
    /// per-shard `store.shard.<x>.records`/`.bytes`) plus the load
    /// latencies of any shard this call was first to touch — the
    /// registry-backed form behind `figures -- cache stats`.
    ///
    /// # Errors
    ///
    /// As for [`RunStore::get`].
    pub fn stats_metered<M: MetricsSink>(&self, metrics: &M) -> io::Result<StoreStats> {
        let mut stats = StoreStats::default();
        for idx in 0..STORE_SHARDS {
            stats.shard_records[idx] = self.with_shard(idx, metrics, |map| map.by_key.len())?;
            stats.records += stats.shard_records[idx];
            let mut shard_bytes = 0;
            match fs::metadata(self.segment_path(idx)) {
                Ok(meta) => {
                    stats.segments += 1;
                    stats.bytes += meta.len();
                    shard_bytes = meta.len();
                }
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
            if metrics.enabled() && (stats.shard_records[idx] > 0 || shard_bytes > 0) {
                metrics.gauge(
                    &format!("store.shard.{idx:x}.records"),
                    stats.shard_records[idx] as i64,
                );
                metrics.gauge(&format!("store.shard.{idx:x}.bytes"), shard_bytes as i64);
            }
        }
        metrics.gauge("store.records", stats.records as i64);
        metrics.gauge("store.segments", stats.segments as i64);
        metrics.gauge("store.bytes", stats.bytes as i64);
        Ok(stats)
    }

    /// Re-reads **every** segment from disk (discarding in-memory
    /// snapshots), which decodes and checksums every record — the full
    /// integrity pass behind `figures -- cache verify`. On success the
    /// refreshed snapshots replace the cached ones and the stats are
    /// returned.
    ///
    /// # Errors
    ///
    /// The first corruption or I/O failure found, as a hard error.
    pub fn verify(&self) -> io::Result<StoreStats> {
        for idx in 0..STORE_SHARDS {
            let mut guard = self.shards[idx].lock().expect("store shard poisoned");
            let lock = self.lock_file(idx)?;
            lock.lock_shared()?;
            let loaded = self.load_from_disk(idx, &NullMetrics);
            let _ = File::unlock(&lock);
            *guard = Some(loaded?);
        }
        self.stats()
    }

    /// Rewrites every segment keeping only records whose canonical key
    /// satisfies `keep`, under the same per-shard exclusive locking and
    /// atomic replacement as [`RunStore::append`]. Empty segments are
    /// deleted.
    ///
    /// # Errors
    ///
    /// As for [`RunStore::append`].
    pub fn gc(&self, keep: impl Fn(&str) -> bool) -> io::Result<GcReport> {
        let mut report = GcReport::default();
        for idx in 0..STORE_SHARDS {
            let mut guard = self.shards[idx].lock().expect("store shard poisoned");
            let lock = self.lock_file(idx)?;
            lock.lock()?;
            let result = (|| {
                let path = self.segment_path(idx);
                if let Ok(meta) = fs::metadata(&path) {
                    report.bytes_before += meta.len();
                }
                let loaded = self.load_from_disk(idx, &NullMetrics)?;
                let mut kept = ShardMap::default();
                for (key, output) in &loaded.by_key {
                    if keep(key) {
                        kept.insert(fingerprint(key), key.clone(), output.clone(), &path)?;
                    } else {
                        report.removed += 1;
                    }
                }
                report.kept += kept.by_key.len();
                if kept.by_key.len() != loaded.by_key.len() {
                    self.write_segment_metered(idx, &kept, &NullMetrics)?;
                }
                if let Ok(meta) = fs::metadata(&path) {
                    report.bytes_after += meta.len();
                }
                *guard = Some(kept);
                Ok::<(), io::Error>(())
            })();
            let _ = File::unlock(&lock);
            result?;
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prem_core::{execute_run, NoiseModel, RunWork};
    use prem_gpusim::{PlatformConfig, Scenario};
    use prem_kernels::{Bicg, Kernel};
    use prem_memsim::KIB;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A fresh per-test directory under the system temp dir.
    fn scratch_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "prem-store-test-{}-{tag}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    fn sample_output_with(work: RunWork, seed: u64) -> RunOutput {
        let bicg = Bicg::new(64, 64);
        let intervals = bicg.intervals(32 * KIB).expect("tiling");
        execute_run(
            &PlatformConfig::tx1(),
            &intervals,
            work,
            seed,
            Scenario::Isolation,
            NoiseModel::off(),
            None,
        )
        .expect("sample run")
        .output
    }

    fn sample_output(seed: u64) -> RunOutput {
        sample_output_with(RunWork::PremLlc { r: 2 }, seed)
    }

    #[test]
    fn put_get_roundtrips_across_store_handles() {
        let dir = scratch_dir("roundtrip");
        let out = sample_output(3);
        {
            let store = RunStore::open(&dir).expect("open");
            assert!(store.get("k|a").expect("get").is_none());
            assert_eq!(store.append([("k|a", &out)]).expect("append"), 1);
            assert_eq!(store.get("k|a").expect("get"), Some(out.clone()));
        }
        // A second handle (≈ a second process) sees the persisted record.
        let store = RunStore::open(&dir).expect("reopen");
        assert_eq!(store.get("k|a").expect("get"), Some(out.clone()));
        let stats = store.stats().expect("stats");
        assert_eq!((stats.records, stats.segments), (1, 1));
        // Re-appending the identical output is a no-op, not an error.
        assert_eq!(store.append([("k|a", &out)]).expect("re-append"), 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segment_bytes_are_canonical_regardless_of_insertion_order() {
        let dir_ab = scratch_dir("canon-ab");
        let dir_ba = scratch_dir("canon-ba");
        let (a, b) = (sample_output(1), sample_output(2));
        // Find two keys landing in the same shard so order could matter.
        let base = "key|";
        let mut same_shard = Vec::new();
        for i in 0.. {
            let key = format!("{base}{i}");
            if RunStore::shard_of(&key) == 0 {
                same_shard.push(key);
                if same_shard.len() == 2 {
                    break;
                }
            }
        }
        let (k1, k2) = (same_shard[0].as_str(), same_shard[1].as_str());
        let store_ab = RunStore::open(&dir_ab).expect("open");
        store_ab.append([(k1, &a)]).expect("append");
        store_ab.append([(k2, &b)]).expect("append");
        let store_ba = RunStore::open(&dir_ba).expect("open");
        store_ba.append([(k2, &b)]).expect("append");
        store_ba.append([(k1, &a)]).expect("append");
        assert_eq!(
            fs::read(store_ab.segment_path(0)).expect("read ab"),
            fs::read(store_ba.segment_path(0)).expect("read ba"),
            "same content must produce byte-identical segments"
        );
        fs::remove_dir_all(&dir_ab).ok();
        fs::remove_dir_all(&dir_ba).ok();
    }

    #[test]
    fn conflicting_outputs_for_one_key_are_a_hard_error() {
        let dir = scratch_dir("conflict");
        let store = RunStore::open(&dir).expect("open");
        store
            .append([("k|x", &sample_output_with(RunWork::PremLlc { r: 1 }, 1))])
            .expect("first");
        let err = store
            .append([("k|x", &sample_output_with(RunWork::Baseline, 1))])
            .expect_err("conflicting append must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("conflicting outputs"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncation_and_corruption_are_hard_errors() {
        let dir = scratch_dir("corrupt");
        let out = sample_output(5);
        let store = RunStore::open(&dir).expect("open");
        store.append([("k|y", &out)]).expect("append");
        let seg = store.segment_path(RunStore::shard_of("k|y"));
        let bytes = fs::read(&seg).expect("read segment");

        // Truncated mid-record: UnexpectedEof.
        fs::write(&seg, &bytes[..bytes.len() - 3]).expect("truncate");
        let err = RunStore::open(&dir)
            .expect("open")
            .get("k|y")
            .expect_err("truncated");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        // Flipped payload bit: checksum mismatch.
        let mut flipped = bytes.clone();
        let mid = flipped.len() - 12; // inside the payload, before the checksum
        flipped[mid] ^= 0x40;
        fs::write(&seg, &flipped).expect("flip");
        let err = RunStore::open(&dir)
            .expect("open")
            .get("k|y")
            .expect_err("corrupt");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        fs::write(&seg, &bad).expect("bad magic");
        let err = RunStore::open(&dir)
            .expect("open")
            .get("k|y")
            .expect_err("magic");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Wrong codec version byte.
        let mut wrong = bytes.clone();
        wrong[5] = CODEC_VERSION + 1;
        fs::write(&seg, &wrong).expect("codec bump");
        let err = RunStore::open(&dir)
            .expect("open")
            .get("k|y")
            .expect_err("codec");
        assert!(err.to_string().contains("codec version"), "{err}");

        // Trailing garbage after the declared records.
        let mut trailing = bytes.clone();
        trailing.push(0xaa);
        fs::write(&seg, &trailing).expect("trailing");
        let err = RunStore::open(&dir)
            .expect("open")
            .get("k|y")
            .expect_err("trailing");
        assert!(err.to_string().contains("trailing"), "{err}");

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_rereads_disk_and_gc_drops_dead_keys() {
        let dir = scratch_dir("gc");
        let store = RunStore::open(&dir).expect("open");
        let (a, b) = (sample_output(1), sample_output(2));
        store
            .append([("live|1", &a), ("dead|1", &b)])
            .expect("append");
        let stats = store.verify().expect("verify");
        assert_eq!(stats.records, 2);
        let report = store.gc(|key| key.starts_with("live|")).expect("gc");
        assert_eq!((report.kept, report.removed), (1, 1));
        assert!(report.bytes_after < report.bytes_before);
        assert_eq!(store.get("live|1").expect("get"), Some(a));
        assert!(store.get("dead|1").expect("get").is_none());
        // A fresh handle agrees: the sweep was durable.
        let fresh = RunStore::open(&dir).expect("reopen");
        assert!(fresh.get("dead|1").expect("get").is_none());
        assert_eq!(fresh.stats().expect("stats").records, 1);
        fs::remove_dir_all(&dir).ok();
    }
}
