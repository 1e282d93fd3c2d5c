//! # smith85-store — crash-safe persistent result store
//!
//! A content-addressed on-disk cache for the expensive artifacts of the
//! Smith (ISCA 1985) reproduction: binary trace spills and JSON result
//! records. Without it, every serve restart re-materializes and
//! re-simulates the whole workload catalog; with it, a warm start serves
//! previously-seen requests bit-identically from disk with zero new
//! materializations.
//!
//! Robustness is the design center, not an afterthought:
//!
//! - **Every record is checksummed.** A fixed header carries the payload
//!   length and a CRC32 ([`record`]), so truncation, bit rot and foreign
//!   files are all *detected*, never silently served.
//! - **Writes are atomic.** Temp file in the same directory, `fsync`,
//!   rename, directory `fsync`. A crash mid-write leaves an orphaned
//!   `.tmp`, never a half-written object.
//! - **Corruption is quarantined, not deleted.** The startup recovery
//!   scan and [`Store::verify`] move damaged files into `quarantine/`
//!   with a reason suffix — evidence is preserved for post-mortems.
//! - **Disk usage is bounded.** An LRU garbage collector
//!   ([`Store::gc`]) evicts least-recently-used objects under a byte
//!   budget; recency survives restarts by seeding from file mtimes.
//!
//! Keys are caller-composed canonical strings (catalog version, workload
//! identity, seed, trace length, experiment configuration); the store
//! addresses objects by a stable 128-bit FxHash-style digest of the key
//! ([`digest`]), so the same logical artifact always lands on the same
//! file name across processes and builds.
//!
//! ```
//! use smith85_store::Store;
//!
//! let dir = std::env::temp_dir().join(format!("s85-doc-{}", std::process::id()));
//! let store = Store::open(&dir).unwrap();
//! store.put_json("v1/result/example", "{\"miss_ratio\":0.25}").unwrap();
//! assert_eq!(store.get_json("v1/result/example").unwrap(), "{\"miss_ratio\":0.25}");
//! assert_eq!(store.stats().hits, 1);
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
pub mod record;

pub use digest::{digest_hex, KEY_SCHEMA_VERSION};
pub use record::{CorruptKind, ReadError, RecordKind, HEADER_LEN, STORE_MAGIC, STORE_VERSION};

use record::{read_record, write_record_atomic};
use smith85_trace::io as trace_io;
use smith85_trace::Trace;
use smith85_tracelog::Severity;
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::SystemTime;

/// Metric sink for store activity. The core session feeds this from its
/// metrics registry so store counters surface there without the store
/// depending on obs. All methods default to no-ops.
pub trait StoreObserver: Send + Sync {
    /// Adds `n` to the named counter.
    fn count(&self, _name: &'static str, _n: u64) {}
    /// Sets the named gauge.
    fn gauge(&self, _name: &'static str, _value: f64) {}
}

/// File extension for store objects.
const OBJECT_EXT: &str = "rec";

/// One quarantined file: where it went and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedEntry {
    /// Original object file name.
    pub name: String,
    /// Why it was pulled (a [`CorruptKind`] slug, or `badpayload` when
    /// the envelope verified but the payload would not decode).
    pub reason: String,
}

/// What the startup recovery scan found.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Files examined in `objects/` (including leftover temp files).
    pub scanned: usize,
    /// Records that validated clean and entered the index.
    pub ok: usize,
    /// Files moved to `quarantine/`.
    pub quarantined: Vec<QuarantinedEntry>,
}

impl RecoveryReport {
    /// One-line human summary, suitable for a startup log.
    pub fn summary(&self) -> String {
        format!(
            "recovery scan: {} scanned, {} ok, {} quarantined",
            self.scanned,
            self.ok,
            self.quarantined.len()
        )
    }
}

/// Point-in-time store statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Live objects in the index.
    pub entries: u64,
    /// Bytes held by live objects (headers included).
    pub total_bytes: u64,
    /// Successful reads since open.
    pub hits: u64,
    /// Failed reads since open (absent, corrupt, or I/O error).
    pub misses: u64,
    /// Records written since open.
    pub writes: u64,
    /// Files quarantined (recovery scan included).
    pub corrupt_quarantined: u64,
    /// Objects evicted by the LRU garbage collector.
    pub gc_evictions: u64,
}

/// Outcome of an LRU garbage collection pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Objects removed.
    pub evicted: u64,
    /// Bytes reclaimed.
    pub freed_bytes: u64,
}

/// Outcome of a full [`Store::verify`] pass.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Objects checked.
    pub checked: usize,
    /// Objects that validated clean.
    pub ok: usize,
    /// Objects that failed and were quarantined.
    pub quarantined: Vec<QuarantinedEntry>,
}

impl VerifyReport {
    /// True when every checked object validated clean.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty()
    }
}

/// Opening the store failed.
#[derive(Debug)]
pub struct StoreOpenError {
    /// The store root that failed to open.
    pub path: PathBuf,
    /// The underlying filesystem error.
    pub source: io::Error,
}

impl fmt::Display for StoreOpenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot open store at {}: {}", self.path.display(), self.source)
    }
}

impl std::error::Error for StoreOpenError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    bytes: u64,
    stamp: u64,
}

#[derive(Debug, Default)]
struct Index {
    entries: HashMap<String, Entry>,
    clock: u64,
    total_bytes: u64,
}

impl Index {
    fn insert(&mut self, name: String, bytes: u64) {
        self.clock += 1;
        let stamp = self.clock;
        if let Some(old) = self.entries.insert(name, Entry { bytes, stamp }) {
            self.total_bytes -= old.bytes;
        }
        self.total_bytes += bytes;
    }

    fn touch(&mut self, name: &str) {
        self.clock += 1;
        let stamp = self.clock;
        if let Some(entry) = self.entries.get_mut(name) {
            entry.stamp = stamp;
        }
    }

    fn remove(&mut self, name: &str) -> Option<Entry> {
        let entry = self.entries.remove(name)?;
        self.total_bytes -= entry.bytes;
        Some(entry)
    }

    /// Name of the least-recently-used entry (ties broken by name so the
    /// eviction order is deterministic).
    fn lru(&self) -> Option<String> {
        self.entries
            .iter()
            .min_by_key(|(name, entry)| (entry.stamp, name.as_str()))
            .map(|(name, _)| name.clone())
    }
}

/// A crash-safe persistent content-addressed store.
///
/// Open with [`Store::open`] (runs the recovery scan); share behind an
/// [`Arc`] — all methods take `&self` and are thread-safe.
pub struct Store {
    root: PathBuf,
    objects: PathBuf,
    quarantine: PathBuf,
    budget: Option<u64>,
    index: Mutex<Index>,
    observer: Mutex<Option<Arc<dyn StoreObserver>>>,
    recovery: RecoveryReport,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    corrupt_quarantined: AtomicU64,
    gc_evictions: AtomicU64,
}

impl fmt::Debug for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Store")
            .field("root", &self.root)
            .field("budget", &self.budget)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Store {
    /// Opens (creating if absent) the store rooted at `path` with no GC
    /// budget, running the recovery scan. See [`Store::open_with_budget`].
    ///
    /// # Errors
    ///
    /// [`StoreOpenError`] when the directories cannot be created or read.
    pub fn open(path: impl AsRef<Path>) -> Result<Store, StoreOpenError> {
        Store::open_with_budget(path, None)
    }

    /// Opens the store and remembers `budget` (bytes): after every write
    /// the LRU collector trims the store back under it. `None` disables
    /// automatic GC ([`Store::gc`] stays available).
    ///
    /// Opening always runs the recovery scan: leftover `.tmp` files from
    /// interrupted writes and records failing magic/version/length/CRC
    /// validation are moved to `quarantine/` (never deleted), and the
    /// index is rebuilt from the surviving objects, LRU-seeded by file
    /// mtime. The findings are kept in [`Store::recovery`].
    ///
    /// # Errors
    ///
    /// [`StoreOpenError`] when the directories cannot be created or read.
    pub fn open_with_budget(
        path: impl AsRef<Path>,
        budget: Option<u64>,
    ) -> Result<Store, StoreOpenError> {
        let root = path.as_ref().to_path_buf();
        let wrap = |source: io::Error| StoreOpenError {
            path: root.clone(),
            source,
        };
        let objects = root.join("objects");
        let quarantine = root.join("quarantine");
        fs::create_dir_all(&objects).map_err(wrap)?;
        fs::create_dir_all(&quarantine).map_err(wrap)?;

        // Gather (name, mtime, len) and scan oldest-first so the rebuilt
        // LRU order mirrors historical access as closely as mtime allows.
        let mut found: Vec<(String, SystemTime, u64)> = Vec::new();
        for dirent in fs::read_dir(&objects).map_err(wrap)? {
            let dirent = dirent.map_err(wrap)?;
            let meta = dirent.metadata().map_err(wrap)?;
            if !meta.is_file() {
                continue;
            }
            let name = dirent.file_name().to_string_lossy().into_owned();
            let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
            found.push((name, mtime, meta.len()));
        }
        found.sort_by(|a, b| (a.1, a.0.as_str()).cmp(&(b.1, b.0.as_str())));

        let mut report = RecoveryReport {
            scanned: found.len(),
            ..RecoveryReport::default()
        };
        let mut index = Index::default();
        for (name, _mtime, len) in found {
            if name.ends_with(".tmp") {
                let reason = CorruptKind::TornTemp.slug();
                quarantine_move(&objects, &quarantine, &name, reason).map_err(wrap)?;
                report.quarantined.push(QuarantinedEntry {
                    name,
                    reason: reason.to_string(),
                });
                continue;
            }
            match read_record(&objects.join(&name), None) {
                Ok(_) => {
                    index.insert(name, len);
                    report.ok += 1;
                }
                Err(ReadError::Corrupt(kind)) => {
                    quarantine_move(&objects, &quarantine, &name, kind.slug()).map_err(wrap)?;
                    report.quarantined.push(QuarantinedEntry {
                        name,
                        reason: kind.slug().to_string(),
                    });
                }
                Err(ReadError::Io(source)) => return Err(wrap(source)),
            }
        }

        let ctx = smith85_tracelog::current();
        if ctx.enabled() {
            let mut span = ctx.child("store_recover", vec![("path".to_string(), root.display().to_string().into())]);
            span.add_field("scanned", (report.scanned as u64).into());
            span.add_field("ok", (report.ok as u64).into());
            span.add_field("quarantined", (report.quarantined.len() as u64).into());
        }

        let quarantined = report.quarantined.len() as u64;
        let store = Store {
            root,
            objects,
            quarantine,
            budget,
            index: Mutex::new(index),
            observer: Mutex::new(None),
            recovery: report,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            corrupt_quarantined: AtomicU64::new(quarantined),
            gc_evictions: AtomicU64::new(0),
        };
        if let Some(budget) = store.budget {
            store.gc(budget);
        }
        Ok(store)
    }

    /// The store root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The quarantine directory (damaged files land here, never deleted).
    pub fn quarantine_dir(&self) -> &Path {
        &self.quarantine
    }

    /// The configured automatic-GC budget in bytes, if any.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// What the startup recovery scan found.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Attaches a metric sink; it is notified (and the `store_bytes`
    /// gauge refreshed) on every hit, miss, write, quarantine and
    /// eviction from now on.
    pub fn set_observer(&self, observer: Arc<dyn StoreObserver>) {
        observer.count("store_corrupt_quarantined_total", self.corrupt_quarantined.load(Ordering::Relaxed));
        observer.gauge("store_bytes", self.index.lock().unwrap().total_bytes as f64);
        *self.observer.lock().unwrap() = Some(observer);
    }

    /// Current statistics.
    pub fn stats(&self) -> StoreStats {
        let (entries, total_bytes) = {
            let index = self.index.lock().unwrap();
            (index.entries.len() as u64, index.total_bytes)
        };
        StoreStats {
            entries,
            total_bytes,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            corrupt_quarantined: self.corrupt_quarantined.load(Ordering::Relaxed),
            gc_evictions: self.gc_evictions.load(Ordering::Relaxed),
        }
    }

    /// Persists a binary trace spill under `key`.
    ///
    /// # Errors
    ///
    /// Any filesystem error; the store is left consistent (old object or
    /// none — never a torn file).
    pub fn put_trace(&self, key: &str, trace: &Trace) -> io::Result<()> {
        let mut payload = Vec::with_capacity(trace.len() * 10 + 8);
        trace_io::write_binary(&mut payload, trace)
            .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err.to_string()))?;
        self.put_record(key, RecordKind::Trace, &payload)
    }

    /// Reads the trace spill stored under `key`.
    ///
    /// Returns `None` on a clean miss, on any detected corruption (the
    /// damaged file is quarantined first — a corrupt object is **never**
    /// returned), and on filesystem errors.
    pub fn get_trace(&self, key: &str) -> Option<Trace> {
        let name = object_name(key);
        let payload = self.read_object(&name, RecordKind::Trace, key)?;
        match trace_io::read_binary(&payload[..]) {
            Ok(trace) => {
                self.note_hit(&name, key, payload.len());
                Some(trace)
            }
            Err(_) => {
                // CRC passed but the payload will not decode: a writer
                // bug or collision, still evidence worth keeping.
                self.quarantine_object(&name, "badpayload");
                self.note_miss(key);
                None
            }
        }
    }

    /// Persists a JSON result record under `key`.
    ///
    /// # Errors
    ///
    /// Any filesystem error; the store is left consistent.
    pub fn put_json(&self, key: &str, json: &str) -> io::Result<()> {
        self.put_record(key, RecordKind::Json, json.as_bytes())
    }

    /// Reads the JSON record stored under `key`. Same miss semantics as
    /// [`Store::get_trace`]: corruption is quarantined, never returned.
    pub fn get_json(&self, key: &str) -> Option<String> {
        let name = object_name(key);
        let payload = self.read_object(&name, RecordKind::Json, key)?;
        match String::from_utf8(payload) {
            Ok(json) => {
                self.note_hit(&name, key, json.len());
                Some(json)
            }
            Err(_) => {
                self.quarantine_object(&name, "badpayload");
                self.note_miss(key);
                None
            }
        }
    }

    /// Evicts least-recently-used objects until the store holds at most
    /// `budget` bytes. Eviction deletes (it is policy, not corruption —
    /// only damaged files go to quarantine).
    pub fn gc(&self, budget: u64) -> GcReport {
        let mut report = GcReport::default();
        loop {
            let victim = {
                let index = self.index.lock().unwrap();
                if index.total_bytes <= budget {
                    break;
                }
                match index.lru() {
                    Some(name) => name,
                    None => break,
                }
            };
            let removed = self.index.lock().unwrap().remove(&victim);
            if let Some(entry) = removed {
                let _ = fs::remove_file(self.objects.join(&victim));
                report.evicted += 1;
                report.freed_bytes += entry.bytes;
                self.gc_evictions.fetch_add(1, Ordering::Relaxed);
                self.observe_count("store_gc_evictions_total", 1);
            }
        }
        if report.evicted > 0 {
            self.refresh_bytes_gauge();
        }
        report
    }

    /// Removes **all** live objects (quarantine is untouched). Returns
    /// the number of objects removed.
    ///
    /// # Errors
    ///
    /// The first filesystem error encountered; already-removed objects
    /// stay removed.
    pub fn clear(&self) -> io::Result<u64> {
        let names: Vec<String> = {
            let index = self.index.lock().unwrap();
            index.entries.keys().cloned().collect()
        };
        let mut removed = 0;
        for name in names {
            fs::remove_file(self.objects.join(&name))?;
            self.index.lock().unwrap().remove(&name);
            removed += 1;
        }
        self.refresh_bytes_gauge();
        Ok(removed)
    }

    /// Re-validates every live object (magic, version, length, CRC),
    /// quarantining any that fail — corruption that arrived *after* the
    /// startup scan is caught here.
    ///
    /// # Errors
    ///
    /// Filesystem errors other than a concurrently-removed object.
    pub fn verify(&self) -> io::Result<VerifyReport> {
        let mut names: Vec<String> = {
            let index = self.index.lock().unwrap();
            index.entries.keys().cloned().collect()
        };
        names.sort();
        let mut report = VerifyReport {
            checked: names.len(),
            ..VerifyReport::default()
        };
        for name in names {
            match read_record(&self.objects.join(&name), None) {
                Ok(_) => report.ok += 1,
                Err(ReadError::Corrupt(kind)) => {
                    self.quarantine_object(&name, kind.slug());
                    report.quarantined.push(QuarantinedEntry {
                        name,
                        reason: kind.slug().to_string(),
                    });
                }
                Err(ReadError::Io(err)) if err.kind() == io::ErrorKind::NotFound => {
                    // Raced with GC/clear: not corruption.
                    self.index.lock().unwrap().remove(&name);
                }
                Err(ReadError::Io(err)) => return Err(err),
            }
        }
        Ok(report)
    }

    fn put_record(&self, key: &str, kind: RecordKind, payload: &[u8]) -> io::Result<()> {
        let ctx = smith85_tracelog::current();
        let mut span = if ctx.enabled() {
            let mut span = ctx.child("store_write", vec![("key".to_string(), key.into())]);
            span.add_field("kind", kind.to_string().into());
            span.add_field("bytes", (payload.len() as u64).into());
            Some(span)
        } else {
            None
        };
        let name = object_name(key);
        let result = write_record_atomic(&self.objects, &name, kind, payload);
        if let Some(span) = span.as_mut() {
            span.add_field("ok", u64::from(result.is_ok()).into());
        }
        result?;
        let bytes = (HEADER_LEN + payload.len()) as u64;
        self.index.lock().unwrap().insert(name, bytes);
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.observe_count("store_writes_total", 1);
        self.refresh_bytes_gauge();
        if let Some(budget) = self.budget {
            self.gc(budget);
        }
        Ok(())
    }

    /// Reads and envelope-validates an object. Returns the payload, or
    /// `None` after recording a miss (and quarantining on corruption).
    /// Hit accounting is left to the caller, which still has to decode
    /// the payload.
    fn read_object(&self, name: &str, kind: RecordKind, key: &str) -> Option<Vec<u8>> {
        match read_record(&self.objects.join(name), Some(kind)) {
            Ok(payload) => Some(payload),
            Err(ReadError::Corrupt(kind)) => {
                self.quarantine_object(name, kind.slug());
                self.note_miss(key);
                None
            }
            Err(ReadError::Io(_)) => {
                self.note_miss(key);
                None
            }
        }
    }

    fn note_hit(&self, name: &str, key: &str, bytes: usize) {
        self.index.lock().unwrap().touch(name);
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.observe_count("store_hits_total", 1);
        let ctx = smith85_tracelog::current();
        if ctx.enabled() {
            let mut span = ctx.child("store_read", vec![("key".to_string(), key.into())]);
            span.add_field("hit", 1u64.into());
            span.add_field("bytes", (bytes as u64).into());
        }
    }

    fn note_miss(&self, key: &str) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.observe_count("store_misses_total", 1);
        let ctx = smith85_tracelog::current();
        if ctx.enabled() {
            let mut span = ctx.child("store_read", vec![("key".to_string(), key.into())]);
            span.add_field("hit", 0u64.into());
        }
    }

    /// Moves a damaged object to quarantine and drops it from the index.
    /// Never deletes: if even the move fails the file is left in place
    /// (it will fail validation again next scan).
    fn quarantine_object(&self, name: &str, reason: &str) {
        self.index.lock().unwrap().remove(name);
        if quarantine_move(&self.objects, &self.quarantine, name, reason).is_ok() {
            self.corrupt_quarantined.fetch_add(1, Ordering::Relaxed);
            self.observe_count("store_corrupt_quarantined_total", 1);
            self.refresh_bytes_gauge();
            let ctx = smith85_tracelog::current();
            if ctx.enabled() {
                ctx.event(
                    Severity::Warn,
                    "store_quarantine",
                    vec![
                        ("file".to_string(), name.into()),
                        ("reason".to_string(), reason.into()),
                    ],
                );
            }
        }
    }

    fn observe_count(&self, name: &'static str, n: u64) {
        if let Some(observer) = self.observer.lock().unwrap().as_ref() {
            observer.count(name, n);
        }
    }

    fn refresh_bytes_gauge(&self) {
        if let Some(observer) = self.observer.lock().unwrap().as_ref() {
            let total = self.index.lock().unwrap().total_bytes;
            observer.gauge("store_bytes", total as f64);
        }
    }
}

/// The object file name for a key: 32 hex digest characters plus the
/// fixed extension.
fn object_name(key: &str) -> String {
    format!("{}.{}", digest_hex(key), OBJECT_EXT)
}

/// Moves `objects/name` to `quarantine/name.reason`, suffixing `-2`,
/// `-3`, … if a previous incident already parked a file there.
fn quarantine_move(objects: &Path, quarantine: &Path, name: &str, reason: &str) -> io::Result<()> {
    let src = objects.join(name);
    let mut dst = quarantine.join(format!("{name}.{reason}"));
    let mut attempt = 1u32;
    while dst.exists() {
        attempt += 1;
        dst = quarantine.join(format!("{name}.{reason}-{attempt}"));
    }
    fs::rename(&src, &dst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smith85_trace::{Addr, MemoryAccess};

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("s85-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_trace(n: u64) -> Trace {
        (0..n)
            .map(|i| MemoryAccess::read(Addr::new(0x4000 + i * 8), 4))
            .collect()
    }

    #[test]
    fn trace_and_json_roundtrip() {
        let root = tmp_root("roundtrip");
        let store = Store::open(&root).unwrap();
        let trace = sample_trace(500);
        store.put_trace("v1/trace/a", &trace).unwrap();
        store.put_json("v1/result/a", "{\"m\":0.5}").unwrap();

        assert_eq!(store.get_trace("v1/trace/a").unwrap(), trace);
        assert_eq!(store.get_json("v1/result/a").unwrap(), "{\"m\":0.5}");
        assert!(store.get_trace("v1/trace/missing").is_none());

        let stats = store.stats();
        assert_eq!((stats.entries, stats.writes), (2, 2));
        assert_eq!((stats.hits, stats.misses), (2, 1));
        assert!(stats.total_bytes > 0);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn kind_mismatch_is_never_served() {
        let root = tmp_root("kindmix");
        let store = Store::open(&root).unwrap();
        store.put_json("key", "{}").unwrap();
        // Asking for the same key as a trace must refuse (and quarantine:
        // a kind mismatch under one digest means something is wrong).
        assert!(store.get_trace("key").is_none());
        assert_eq!(store.stats().corrupt_quarantined, 1);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn reopen_rebuilds_index_and_serves() {
        let root = tmp_root("reopen");
        let trace = sample_trace(200);
        {
            let store = Store::open(&root).unwrap();
            store.put_trace("t", &trace).unwrap();
            store.put_json("r", "[1,2,3]").unwrap();
        }
        let store = Store::open(&root).unwrap();
        assert_eq!(store.recovery().scanned, 2);
        assert_eq!(store.recovery().ok, 2);
        assert!(store.recovery().quarantined.is_empty());
        assert_eq!(store.get_trace("t").unwrap(), trace);
        assert_eq!(store.get_json("r").unwrap(), "[1,2,3]");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn leftover_tmp_is_quarantined_on_open() {
        let root = tmp_root("tmpfile");
        {
            let store = Store::open(&root).unwrap();
            store.put_json("live", "{}").unwrap();
        }
        fs::write(root.join("objects/deadbeef.rec.tmp"), b"partial").unwrap();
        let store = Store::open(&root).unwrap();
        assert_eq!(store.recovery().quarantined.len(), 1);
        assert_eq!(store.recovery().quarantined[0].reason, "torntemp");
        assert_eq!(store.recovery().ok, 1);
        assert!(root.join("quarantine/deadbeef.rec.tmp.torntemp").exists());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn gc_evicts_least_recently_used_first() {
        let root = tmp_root("gc");
        let store = Store::open(&root).unwrap();
        store.put_json("a", &"a".repeat(100)).unwrap();
        store.put_json("b", &"b".repeat(100)).unwrap();
        store.put_json("c", &"c".repeat(100)).unwrap();
        // Touch "a" so "b" becomes the coldest.
        assert!(store.get_json("a").is_some());

        let before = store.stats().total_bytes;
        let report = store.gc(before - 1); // force exactly one eviction
        assert_eq!(report.evicted, 1);
        assert!(store.get_json("b").is_none(), "coldest entry must go first");
        assert!(store.get_json("a").is_some());
        assert!(store.get_json("c").is_some());
        assert_eq!(store.stats().gc_evictions, 1);

        let report = store.gc(0);
        assert_eq!(report.evicted, 2);
        assert_eq!(store.stats().entries, 0);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn budget_triggers_auto_gc_on_write() {
        let root = tmp_root("budget");
        let store = Store::open_with_budget(&root, Some(400)).unwrap();
        for i in 0..10 {
            store.put_json(&format!("k{i}"), &"x".repeat(100)).unwrap();
        }
        assert!(store.stats().total_bytes <= 400);
        assert!(store.stats().gc_evictions > 0);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn clear_removes_objects_but_not_quarantine() {
        let root = tmp_root("clear");
        let store = Store::open(&root).unwrap();
        store.put_json("a", "1").unwrap();
        store.put_json("b", "2").unwrap();
        // Manufacture quarantine evidence.
        fs::write(root.join("objects/junk.rec"), b"garbage").unwrap();
        drop(store);
        let store = Store::open(&root).unwrap();
        assert_eq!(store.recovery().quarantined.len(), 1);
        assert_eq!(store.clear().unwrap(), 2);
        assert_eq!(store.stats().entries, 0);
        let quarantined = fs::read_dir(root.join("quarantine")).unwrap().count();
        assert_eq!(quarantined, 1, "clear must preserve evidence");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn verify_catches_post_open_corruption() {
        let root = tmp_root("verify");
        let store = Store::open(&root).unwrap();
        store.put_json("good", "{\"ok\":true}").unwrap();
        store.put_json("doomed", "{\"ok\":false}").unwrap();
        assert!(store.verify().unwrap().is_clean());

        // Flip one payload bit behind the store's back.
        let victim = root.join("objects").join(object_name("doomed"));
        let mut bytes = fs::read(&victim).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&victim, &bytes).unwrap();

        let report = store.verify().unwrap();
        assert_eq!(report.checked, 2);
        assert_eq!(report.ok, 1);
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].reason, "badcrc");
        assert!(store.get_json("doomed").is_none());
        assert_eq!(store.get_json("good").unwrap(), "{\"ok\":true}");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn observer_sees_counts_and_gauge() {
        use std::sync::atomic::AtomicU64;

        #[derive(Default)]
        struct Sink {
            hits: AtomicU64,
            writes: AtomicU64,
            bytes: Mutex<f64>,
        }
        impl StoreObserver for Sink {
            fn count(&self, name: &'static str, n: u64) {
                match name {
                    "store_hits_total" => self.hits.fetch_add(n, Ordering::Relaxed),
                    "store_writes_total" => self.writes.fetch_add(n, Ordering::Relaxed),
                    _ => 0,
                };
            }
            fn gauge(&self, name: &'static str, value: f64) {
                if name == "store_bytes" {
                    *self.bytes.lock().unwrap() = value;
                }
            }
        }

        let root = tmp_root("observer");
        let store = Store::open(&root).unwrap();
        let sink = Arc::new(Sink::default());
        store.set_observer(sink.clone());
        store.put_json("k", "{}").unwrap();
        assert!(store.get_json("k").is_some());
        assert_eq!(sink.writes.load(Ordering::Relaxed), 1);
        assert_eq!(sink.hits.load(Ordering::Relaxed), 1);
        assert!(*sink.bytes.lock().unwrap() > 0.0);
        fs::remove_dir_all(&root).unwrap();
    }
}
