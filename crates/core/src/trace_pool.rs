//! Generate-once/replay-many trace sharing for the experiment suite.
//!
//! The paper's method is one fixed address trace run through many cache
//! configurations, but a naive sweep re-synthesizes the workload stream at
//! every (size, policy) point, so generator RNG — not the simulator —
//! dominates wall-clock. A [`TracePool`] materializes each workload once
//! into an [`Arc<Trace>`] and hands the same buffer to every sweep job;
//! because the generators are deterministic and a shorter run is a strict
//! prefix of a longer one, replaying a pooled prefix is bit-identical to
//! regenerating from scratch (the determinism tests assert this).
//!
//! The pool is keyed by everything that determines the stream: the full
//! profile (fractions, footprints, locality dials, seed) for singles, the
//! member profiles plus the switch interval for round-robin mixes, and a
//! separate namespace for instruction-fetch-filtered streams (the M68020
//! experiment filters before truncating, so its pooled trace is a
//! different sequence). Entries store the longest materialization
//! requested so far; shorter requests slice the shared buffer zero-copy.

use crate::experiments::Workload;
use smith85_obs::{Counter, Registry};
use smith85_synth::ProgramProfile;
use smith85_trace::{MemoryAccess, Trace};
use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};

/// Shared, thread-safe trace cache. Cloning is cheap (an `Arc` bump) and
/// every clone sees the same entries, so one pool on the
/// [`ExperimentConfig`](crate::experiments::ExperimentConfig) serves a
/// whole suite run across experiments and worker threads.
#[derive(Clone, Default)]
pub struct TracePool {
    inner: Arc<PoolShared>,
}

#[derive(Default)]
struct PoolShared {
    state: Mutex<PoolState>,
    // Signalled whenever an in-flight materialization finishes (or is
    // abandoned), so waiters can recheck the table.
    generated: Condvar,
    // Optional persistent spill store (see `set_store`): on a miss the
    // pool tries a disk read before generating, and persists whatever it
    // does generate. Its own lock keeps disk I/O off the state mutex.
    store: Mutex<Option<Arc<smith85_store::Store>>>,
}

#[derive(Default)]
struct PoolState {
    traces: HashMap<String, Arc<Trace>>,
    results: HashMap<String, Arc<dyn Any + Send + Sync>>,
    // Keys some thread is currently materializing. Concurrent requests
    // for the same workload wait on `generated` instead of duplicating
    // the (milliseconds-scale) generation work.
    inflight: HashSet<String>,
    // Handles into the registry the pool counts into (see
    // `set_registry`). Kept under the state lock, which a lookup holds
    // anyway, so counting a hit takes no lock of its own.
    counters: PoolCounters,
}

/// The pool's `pool_*_total` handles in one registry.
#[derive(Clone)]
struct PoolCounters {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    materialized_bytes: Arc<Counter>,
}

impl PoolCounters {
    fn resolve(registry: &Registry) -> PoolCounters {
        PoolCounters {
            hits: registry.counter("pool_hits_total"),
            misses: registry.counter("pool_misses_total"),
            materialized_bytes: registry.counter("pool_materialized_bytes_total"),
        }
    }
}

impl Default for PoolCounters {
    /// A new pool's counters live in a private registry.
    fn default() -> PoolCounters {
        PoolCounters::resolve(&Registry::new())
    }
}

/// A point-in-time summary of the pool's contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Distinct workload entries resident.
    pub entries: usize,
    /// Memoized experiment results resident (see [`TracePool::result`]).
    pub result_entries: usize,
    /// Total buffered references across all entries.
    pub total_refs: usize,
    /// Bytes held by the buffered references.
    pub memory_bytes: usize,
    /// Requests served from an existing entry.
    pub hits: u64,
    /// Requests that had to generate (first sight, or a longer prefix).
    pub misses: u64,
    /// Cumulative bytes materialized by generation since the pool was
    /// created. Unlike [`memory_bytes`](Self::memory_bytes) this only
    /// grows: regenerated (longer) entries and cleared entries still
    /// count what they cost to produce.
    pub materialized_bytes: u64,
}

impl PoolStats {
    /// Fraction of requests served from an existing entry, in `[0, 1]`
    /// (`0` before any request).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl TracePool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// The materialized trace for a single profile, at least `len`
    /// references long. Slice the result to `len` for exact replay:
    /// the pooled buffer may be longer than asked if another caller
    /// wanted more.
    pub fn profile(&self, profile: &ProgramProfile, len: usize) -> Arc<Trace> {
        self.entry(profile_key(profile), len, || {
            collect(profile.generator(), len)
        })
    }

    /// The materialized trace for a [`Workload`] (single or round-robin
    /// mix), at least `len` references long.
    pub fn workload(&self, workload: &Workload, len: usize) -> Arc<Trace> {
        self.entry(workload_key(workload), len, || {
            collect(workload.stream(), len)
        })
    }

    /// The first `len` *instruction fetches* of a profile's stream (the
    /// M68020 experiment's shape: filter, then truncate — not a prefix of
    /// the unfiltered trace, so it pools under its own key).
    pub fn ifetch_stream(&self, profile: &ProgramProfile, len: usize) -> Arc<Trace> {
        self.entry(format!("ifetch/{}", profile_key(profile)), len, || {
            collect(profile.generator().filter(|a| a.kind.is_ifetch()), len)
        })
    }

    /// The first `len` instruction fetches of a whole workload's stream
    /// (mixes keep their round-robin interleaving before the filter).
    pub fn ifetch_workload(&self, workload: &Workload, len: usize) -> Arc<Trace> {
        self.entry(format!("ifetch/{}", workload_key(workload)), len, || {
            collect(workload.stream().filter(|a| a.kind.is_ifetch()), len)
        })
    }

    /// A memoized deterministic computation, keyed by `key`. The first
    /// caller computes (outside the pool lock); later callers with the
    /// same key — e.g. `conclusions` and `table5` re-deriving Table 1 or
    /// the prefetch study under the suite's shared configuration — get
    /// the stored value. The key must cover every input the result
    /// depends on (experiment name, trace length, size sweep), exactly
    /// like the trace keys cover every generator dial.
    pub fn result<T, F>(&self, key: &str, compute: F) -> Arc<T>
    where
        T: Any + Send + Sync,
        F: FnOnce() -> T,
    {
        if let Some(hit) = self.lock().results.get(key).cloned() {
            if let Ok(shared) = hit.downcast::<T>() {
                return shared;
            }
        }
        let fresh = Arc::new(compute());
        let mut state = self.lock();
        // Two threads may race to compute the same key; the computations
        // are deterministic, so keeping the first insert is sound.
        if let Some(existing) = state
            .results
            .get(key)
            .cloned()
            .and_then(|a| a.downcast::<T>().ok())
        {
            return existing;
        }
        state.results.insert(key.to_string(), fresh.clone());
        fresh
    }

    /// Current contents, and the hit/miss counters of the registry the
    /// pool counts into.
    pub fn stats(&self) -> PoolStats {
        let state = self.lock();
        let total_refs: usize = state.traces.values().map(|t| t.len()).sum();
        PoolStats {
            entries: state.traces.len(),
            result_entries: state.results.len(),
            total_refs,
            memory_bytes: total_refs * std::mem::size_of::<MemoryAccess>(),
            hits: state.counters.hits.get(),
            misses: state.counters.misses.get(),
            materialized_bytes: state.counters.materialized_bytes.get(),
        }
    }

    /// Counts into `registry` from now on: hits, misses and materialized
    /// bytes go to its `pool_hits_total` / `pool_misses_total` /
    /// `pool_materialized_bytes_total`, and [`stats`](Self::stats) reads
    /// them there. A new pool counts into a private registry until one
    /// is set; the last registry set wins, and every clone of the pool
    /// shares it.
    pub fn set_registry(&self, registry: &Registry) {
        self.lock().counters = PoolCounters::resolve(registry);
    }

    /// Attaches a persistent spill store. From now on a pool miss first
    /// tries a buffered disk read (a *store hit* — no generation, no
    /// pool-miss accounting), and every fresh materialization is
    /// persisted best-effort so the next process warm-starts from disk.
    /// The last store set wins; every clone of the pool shares it.
    pub fn set_store(&self, store: Arc<smith85_store::Store>) {
        *self
            .inner
            .store
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = Some(store);
    }

    fn store(&self) -> Option<Arc<smith85_store::Store>> {
        self.inner
            .store
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Drops every entry (the counters survive).
    pub fn clear(&self) {
        let mut state = self.lock();
        state.traces.clear();
        state.results.clear();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PoolState> {
        // A panic while holding the lock can only happen inside the
        // HashMap operations below, which do not panic; recover the state
        // rather than poisoning every sibling sweep job.
        self.inner.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn entry(&self, key: String, len: usize, generate: impl FnOnce() -> Trace) -> Arc<Trace> {
        let trace_ctx = smith85_tracelog::current();
        let (counters, shorter_held) = {
            let mut state = self.lock();
            loop {
                if let Some(existing) = state.traces.get(&key) {
                    if existing.len() >= len {
                        let shared = Arc::clone(existing);
                        state.counters.hits.inc();
                        drop(state);
                        if trace_ctx.enabled() {
                            trace_ctx.event(
                                smith85_tracelog::Severity::Debug,
                                "pool_hit",
                                vec![
                                    ("key".to_string(), key.clone().into()),
                                    ("len".to_string(), (len as u64).into()),
                                ],
                            );
                        }
                        return shared;
                    }
                }
                if state.inflight.insert(key.clone()) {
                    // This thread materializes; others wait.
                    break (state.counters.clone(), state.traces.contains_key(&key));
                }
                // Someone else is generating this key. Wait for them
                // rather than duplicating the work; on wakeup, recheck —
                // their materialization may still be too short for `len`.
                state = self
                    .inner
                    .generated
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        // Generate outside the lock: materializing 250k references takes
        // milliseconds and must not serialize the other worker threads.
        // The in-flight marker (released on drop, so a panicking
        // generator cannot strand waiters) keeps concurrent requests for
        // the same key from regenerating the same stream.
        let marker = InflightMarker { pool: self, key };
        // Warm start: a previous process may have spilled this stream to
        // the persistent store. The record is CRC-validated on read (a
        // corrupt spill is quarantined and comes back as a miss), so a
        // disk hit replays bit-identically with no generation — it counts
        // as a pool hit, not a miss, and materializes nothing. When the
        // pool already holds a shorter buffer for the key, the spill is
        // no longer than it (this process wrote or read it), so reading
        // it back could only find it too short.
        let store = self.store();
        if let Some(store) = store.as_ref().filter(|_| !shorter_held) {
            if let Some(disk) = store.get_trace(&spill_key(&marker.key)) {
                if disk.len() >= len {
                    counters.hits.inc();
                    if trace_ctx.enabled() {
                        trace_ctx.event(
                            smith85_tracelog::Severity::Debug,
                            "pool_disk_hit",
                            vec![
                                ("key".to_string(), marker.key.clone().into()),
                                ("len".to_string(), (len as u64).into()),
                            ],
                        );
                    }
                    return self.install(&marker.key, Arc::new(disk));
                }
            }
        }
        let mut span = trace_ctx.enabled().then(|| {
            trace_ctx.child(
                "pool_materialize",
                vec![
                    ("key".to_string(), marker.key.clone().into()),
                    ("len".to_string(), (len as u64).into()),
                ],
            )
        });
        let fresh = Arc::new(generate());
        let fresh_bytes = (fresh.len() * std::mem::size_of::<MemoryAccess>()) as u64;
        if let Some(span) = span.as_mut() {
            span.add_field("bytes", fresh_bytes.into());
        }
        drop(span);
        counters.misses.inc();
        counters.materialized_bytes.add(fresh_bytes);
        if let Some(store) = store.as_ref() {
            // Best-effort spill: a full or read-only disk must not fail
            // the simulation, it only costs the next warm start.
            let _ = store.put_trace(&spill_key(&marker.key), &fresh);
        }
        self.install(&marker.key, fresh)
        // `marker` drops here, releasing the in-flight key and waking
        // waiters.
    }

    /// Publishes a materialized buffer into the in-memory table, keeping
    /// the longest buffer if another materialization raced us there.
    fn install(&self, key: &str, fresh: Arc<Trace>) -> Arc<Trace> {
        let mut state = self.lock();
        match state.traces.get(key) {
            // A longer materialization can slip in between our length
            // check and the insert below only via `clear()` + regrowth;
            // keep the longest buffer either way.
            Some(existing) if existing.len() >= fresh.len() => Arc::clone(existing),
            _ => {
                state.traces.insert(key.to_string(), Arc::clone(&fresh));
                fresh
            }
        }
    }
}

/// Removes an in-flight key and wakes waiters if generation unwinds.
struct InflightMarker<'a> {
    pool: &'a TracePool,
    key: String,
}

impl Drop for InflightMarker<'_> {
    fn drop(&mut self) {
        self.pool.lock().inflight.remove(&self.key);
        self.pool.inner.generated.notify_all();
    }
}

impl fmt::Debug for TracePool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("TracePool")
            .field("entries", &stats.entries)
            .field("total_refs", &stats.total_refs)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}

fn collect<I: Iterator<Item = MemoryAccess>>(stream: I, len: usize) -> Trace {
    let mut trace = Trace::with_capacity(len);
    trace.extend(stream.take(len));
    trace
}

/// The persistent-store key for a pool entry. The key-schema and catalog
/// versions are prefixed so artifacts spilled under an older digest
/// scheme or an older profile calibration miss cleanly instead of
/// replaying a stale stream.
fn spill_key(pool_key: &str) -> String {
    format!(
        "v{}/c{}/trace/{}",
        smith85_store::KEY_SCHEMA_VERSION,
        smith85_synth::catalog::CATALOG_VERSION,
        pool_key
    )
}

/// The pool's canonical identity string for a workload (every field the
/// generated stream depends on, floats as bit patterns). Also used by
/// the session layer to key whole-grid sweep memoization.
pub(crate) fn workload_key(workload: &Workload) -> String {
    match workload {
        Workload::Single(p) => profile_key(p),
        Workload::Mix { members, .. } => {
            let mut key = format!("mix/{}", workload.purge_interval());
            for m in members {
                key.push('|');
                key.push_str(&profile_key(m));
            }
            key
        }
        Workload::Family(spec) => spec.identity_key(),
    }
}

/// A key covering every field the generated stream depends on. Floats go
/// in as bit patterns so distinct dials never alias.
fn profile_key(p: &ProgramProfile) -> String {
    format!(
        "{}/{:?}/{:?}/{:x}:{:x}:{:x}:{:x}/{}:{}/{:x}:{:x}:{:x}:{:x}:{:x}:{}:{:x}/{:x}",
        p.name,
        p.arch,
        p.language,
        p.ifetch_fraction.to_bits(),
        p.read_fraction.to_bits(),
        p.branch_fraction.to_bits(),
        p.seed,
        p.code_bytes,
        p.data_bytes,
        p.locality.instr_alpha.to_bits(),
        p.locality.data_alpha.to_bits(),
        p.locality.seq_fraction.to_bits(),
        p.locality.stack_fraction.to_bits(),
        p.locality.loop_prob.to_bits(),
        p.locality.phase_interval,
        p.locality.write_concentration.to_bits(),
        p.seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::table3_workloads;
    use smith85_synth::catalog;

    fn profile(name: &str) -> ProgramProfile {
        catalog::by_name(name).unwrap().profile().clone()
    }

    #[test]
    fn replay_matches_fresh_generation() {
        let pool = TracePool::new();
        let p = profile("VCCOM");
        let pooled = pool.profile(&p, 5_000);
        assert_eq!(pooled.as_slice(), p.generate(5_000).as_slice());
    }

    #[test]
    fn shorter_requests_share_the_longer_buffer() {
        let pool = TracePool::new();
        let p = profile("ZGREP");
        let long = pool.profile(&p, 4_000);
        let short = pool.profile(&p, 1_000);
        assert!(Arc::ptr_eq(&long, &short), "prefix request must not copy");
        assert_eq!(&short.as_slice()[..1_000], p.generate(1_000).as_slice());
        let stats = pool.stats();
        assert_eq!((stats.entries, stats.hits, stats.misses), (1, 1, 1));
    }

    #[test]
    fn longer_requests_regenerate_and_replace() {
        let pool = TracePool::new();
        let p = profile("TWOD");
        let _ = pool.profile(&p, 500);
        let long = pool.profile(&p, 2_000);
        assert_eq!(long.len(), 2_000);
        assert_eq!(pool.stats().entries, 1);
        // The prefix property: the longer buffer starts with the short one.
        assert_eq!(&long.as_slice()[..500], p.generate(500).as_slice());
    }

    #[test]
    fn distinct_seeds_do_not_alias() {
        let pool = TracePool::new();
        let a = profile("VCCOM");
        let mut b = a.clone();
        b.seed ^= 1;
        let ta = pool.profile(&a, 300);
        let tb = pool.profile(&b, 300);
        assert_ne!(ta.as_slice(), tb.as_slice());
        assert_eq!(pool.stats().entries, 2);
    }

    #[test]
    fn mix_workloads_pool_and_match_stream() {
        let pool = TracePool::new();
        let mix = table3_workloads()
            .into_iter()
            .find(|w| matches!(w, Workload::Mix { .. }))
            .unwrap();
        let pooled = pool.workload(&mix, 3_000);
        let fresh: Vec<MemoryAccess> = mix.stream().take(3_000).collect();
        assert_eq!(pooled.as_slice(), &fresh[..]);
        // Same key on the second ask.
        let again = pool.workload(&mix, 3_000);
        assert!(Arc::ptr_eq(&pooled, &again));
    }

    #[test]
    fn ifetch_streams_pool_separately() {
        let pool = TracePool::new();
        let p = profile("VCCOM");
        let _full = pool.profile(&p, 2_000);
        let ifetches = pool.ifetch_stream(&p, 1_000);
        assert_eq!(ifetches.len(), 1_000);
        assert!(ifetches.iter().all(|a| a.kind.is_ifetch()));
        assert_eq!(pool.stats().entries, 2);
        let fresh: Vec<MemoryAccess> = p
            .generator()
            .filter(|a| a.kind.is_ifetch())
            .take(1_000)
            .collect();
        assert_eq!(ifetches.as_slice(), &fresh[..]);
    }

    #[test]
    fn clones_share_entries() {
        let pool = TracePool::new();
        let clone = pool.clone();
        let p = profile("PL0");
        let a = pool.profile(&p, 800);
        let b = clone.profile(&p, 800);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(clone.stats().hits, 1);
    }

    #[test]
    fn results_memoize_by_key_and_clear() {
        let pool = TracePool::new();
        let mut runs = 0;
        let a = pool.result("exp/100/[256]", || {
            runs += 1;
            vec![1.0f64, 2.0]
        });
        let b = pool.result("exp/100/[256]", || {
            runs += 1;
            vec![9.0f64]
        });
        assert!(Arc::ptr_eq(&a, &b), "same key must share the result");
        assert_eq!(runs, 1, "second ask must not recompute");
        let c = pool.result("exp/200/[256]", || vec![3.0f64]);
        assert_eq!(*c, vec![3.0]);
        assert_eq!(pool.stats().result_entries, 2);
        pool.clear();
        assert_eq!(pool.stats().result_entries, 0);
    }

    #[test]
    fn concurrent_requests_materialize_once() {
        let pool = TracePool::new();
        let p = profile("VCCOM");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| pool.profile(&p, 4_000));
            }
        });
        let stats = pool.stats();
        assert_eq!(stats.misses, 1, "in-flight dedup must generate once");
        assert_eq!(stats.hits, 7);
        assert_eq!(stats.entries, 1);
        assert!((stats.hit_ratio() - 7.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn materialized_bytes_accumulate_across_regrowth() {
        let ref_size = std::mem::size_of::<MemoryAccess>() as u64;
        let pool = TracePool::new();
        let p = profile("ZGREP");
        let _ = pool.profile(&p, 500);
        let _ = pool.profile(&p, 2_000);
        let stats = pool.stats();
        assert_eq!(stats.total_refs, 2_000, "resident buffer is the longest");
        assert_eq!(
            stats.materialized_bytes,
            2_500 * ref_size,
            "cumulative cost counts both generations"
        );
        pool.clear();
        assert_eq!(
            pool.stats().materialized_bytes,
            2_500 * ref_size,
            "clear() keeps the cumulative counter"
        );
    }

    #[test]
    fn probe_reports_hits_misses_and_bytes() {
        let registry = Registry::new();
        let pool = TracePool::new();
        pool.set_registry(&registry);
        let p = profile("VCCOM");
        let _ = pool.profile(&p, 1_000);
        let _ = pool.profile(&p, 500); // prefix: a hit
        assert_eq!(registry.counter("pool_misses_total").get(), 1);
        assert_eq!(registry.counter("pool_hits_total").get(), 1);
        let bytes = 1_000 * std::mem::size_of::<MemoryAccess>() as u64;
        assert_eq!(registry.counter("pool_materialized_bytes_total").get(), bytes);
        // `stats` reads the same handles.
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.misses, stats.materialized_bytes), (1, 1, bytes));
    }

    #[test]
    fn memory_accounting_is_exact() {
        let pool = TracePool::new();
        let _ = pool.profile(&profile("PL0"), 1_000);
        let stats = pool.stats();
        assert_eq!(stats.total_refs, 1_000);
        assert_eq!(
            stats.memory_bytes,
            1_000 * std::mem::size_of::<MemoryAccess>()
        );
        pool.clear();
        assert_eq!(pool.stats().entries, 0);
    }
}
