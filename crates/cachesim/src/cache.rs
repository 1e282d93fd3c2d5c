//! A single simulated cache: the access path tying mapping, replacement,
//! write policy, fetch policy and purging together.
//!
//! The storage core is chosen from the configuration once, when the cache
//! is built, and matched once per call of [`Cache::run`] (a whole trace
//! slice) or [`Cache::access`] (which is `run` over one reference). Both
//! drive the same loop, generic over the core, so the per-reference path
//! makes no dynamic call: the core's `touch` and `insert` are static
//! calls the compiler is free to inline. Every caller — `UnifiedCache`,
//! `SplitCache`, the experiments and the served `simulate` — runs this
//! one kernel.

use crate::config::{CacheConfig, FetchPolicy, Mapping, Replacement, WritePolicy};
use crate::core_ops::CoreOps;
use crate::error::ConfigError;
use crate::full_lru::FullLruCore;
use crate::line::Evicted;
use crate::set_assoc::SetAssocCore;
use crate::stats::CacheStats;
use smith85_trace::{AccessKind, LineAddr, MemoryAccess};

#[derive(Debug, Clone)]
enum CoreImpl {
    FullLru(FullLruCore),
    SetAssoc(SetAssocCore),
}

impl CoreImpl {
    fn contains(&self, line: LineAddr) -> bool {
        match self {
            CoreImpl::FullLru(c) => c.contains(line),
            CoreImpl::SetAssoc(c) => c.contains(line),
        }
    }

    fn len(&self) -> usize {
        match self {
            CoreImpl::FullLru(c) => c.len(),
            CoreImpl::SetAssoc(c) => c.len(),
        }
    }
}

/// One simulated cache.
///
/// Drive it with [`access`](Cache::access) or [`run`](Cache::run); read
/// results from [`stats`](Cache::stats). A `Cache` does not care whether
/// it is used unified or as one half of a split organisation — see
/// [`UnifiedCache`](crate::UnifiedCache) and
/// [`SplitCache`](crate::SplitCache) for those wrappers.
///
/// ```
/// use smith85_cachesim::{Cache, CacheConfig};
/// use smith85_trace::{Addr, MemoryAccess};
///
/// let mut cache = Cache::new(CacheConfig::paper_table1(256)?)?;
/// cache.access(MemoryAccess::read(Addr::new(0x100), 4)); // cold miss
/// cache.access(MemoryAccess::read(Addr::new(0x104), 4)); // same line: hit
/// assert_eq!(cache.stats().total_misses(), 1);
/// # Ok::<(), smith85_cachesim::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    core: CoreImpl,
    ctl: Controller,
}

/// Everything of a cache but its storage: the configuration, the
/// statistics and the purge counter, with the policy logic that drives
/// a core.
#[derive(Debug, Clone)]
struct Controller {
    config: CacheConfig,
    stats: CacheStats,
    refs_since_purge: u64,
}

impl Cache {
    /// Creates a cache from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid (this re-validates,
    /// so configurations deserialized from untrusted data are safe).
    pub fn new(config: CacheConfig) -> Result<Self, ConfigError> {
        // Re-run validation through the builder path.
        let config = CacheConfig::builder(config.size_bytes())
            .line_size(config.line_size())
            .mapping(config.mapping())
            .replacement(config.replacement())
            .write_policy(config.write_policy())
            .fetch_policy(config.fetch_policy())
            .purge_interval(config.purge_interval())
            .build()?;
        let core = match (config.mapping(), config.replacement()) {
            (Mapping::FullyAssociative, Replacement::Lru) => {
                CoreImpl::FullLru(FullLruCore::new(config.lines()))
            }
            _ => CoreImpl::SetAssoc(SetAssocCore::new(
                config.sets(),
                config.ways(),
                config.replacement(),
            )),
        };
        Ok(Cache {
            core,
            ctl: Controller {
                config,
                stats: CacheStats::new(),
                refs_since_purge: 0,
            },
        })
    }

    /// The configuration this cache was built from.
    pub fn config(&self) -> &CacheConfig {
        &self.ctl.config
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.ctl.stats
    }

    /// Number of lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.core.len()
    }

    /// Whether the line containing `access` would hit right now (no state
    /// change, no statistics).
    pub fn would_hit(&self, access: MemoryAccess) -> bool {
        self.core.contains(access.line(self.ctl.config.line_size()))
    }

    /// Processes one memory reference: [`run`](Cache::run) over a
    /// one-reference slice.
    pub fn access(&mut self, access: MemoryAccess) {
        self.run(std::slice::from_ref(&access));
    }

    /// Processes every reference of a contiguous slice.
    ///
    /// This is the pooled-replay hot path: the core is matched once per
    /// slice, and the loop over it is compiled once per core type.
    pub fn run(&mut self, trace: &[MemoryAccess]) {
        let ctl = &mut self.ctl;
        match &mut self.core {
            CoreImpl::FullLru(core) => trace.iter().for_each(|&a| ctl.step(core, a)),
            CoreImpl::SetAssoc(core) => trace.iter().for_each(|&a| ctl.step(core, a)),
        }
    }

    /// Purges every resident line, counting pushes and write-back traffic
    /// (the paper's task-switch purge). Also invoked automatically per the
    /// configured [`purge_interval`](CacheConfig::purge_interval).
    pub fn purge(&mut self) {
        match &mut self.core {
            CoreImpl::FullLru(core) => self.ctl.purge(core),
            CoreImpl::SetAssoc(core) => self.ctl.purge(core),
        }
    }
}

impl Controller {
    /// Processes one reference against `core`.
    fn step<C: CoreOps>(&mut self, core: &mut C, access: MemoryAccess) {
        if let Some(interval) = self.config.purge_interval() {
            if self.refs_since_purge >= interval {
                self.purge(core);
            }
        }
        self.refs_since_purge += 1;
        self.stats.record_ref(access.kind, access.size);

        let line = access.line(self.config.line_size());
        match access.kind {
            AccessKind::InstructionFetch | AccessKind::Read => {
                self.handle_read(core, line, access.kind)
            }
            AccessKind::Write => self.handle_write(core, line, access.size),
        }

        if self.config.fetch_policy() == FetchPolicy::PrefetchAlways {
            self.prefetch(core, line.next());
        }
    }

    fn purge<C: CoreOps>(&mut self, core: &mut C) {
        let line_size = self.config.line_size() as u64;
        let stats = &mut self.stats;
        core.purge(|evicted| {
            stats.pushes += 1;
            if evicted.dirty {
                stats.dirty_pushes += 1;
                stats.bytes_pushed += line_size;
            }
        });
        stats.purges += 1;
        self.refs_since_purge = 0;
    }

    fn handle_read<C: CoreOps>(&mut self, core: &mut C, line: LineAddr, kind: AccessKind) {
        if core.touch(line).is_some() {
            return;
        }
        self.stats.record_miss(kind);
        self.fetch_line();
        let evicted = core.insert(line, false);
        self.account_eviction(evicted);
    }

    fn handle_write<C: CoreOps>(&mut self, core: &mut C, line: LineAddr, size: u8) {
        match self.config.write_policy() {
            WritePolicy::CopyBack { fetch_on_write } => {
                if let Some(dirty) = core.touch(line) {
                    *dirty = true;
                    return;
                }
                self.stats.record_miss(AccessKind::Write);
                if fetch_on_write {
                    self.fetch_line();
                } else {
                    // Allocate without fetching: the line is created dirty
                    // and memory is only updated at push time.
                }
                let evicted = core.insert(line, true);
                self.account_eviction(evicted);
            }
            WritePolicy::WriteThrough { allocate } => {
                self.stats.bytes_written_through += size as u64;
                if core.touch(line).is_some() {
                    return;
                }
                self.stats.record_miss(AccessKind::Write);
                if allocate {
                    self.fetch_line();
                    let evicted = core.insert(line, false);
                    self.account_eviction(evicted);
                }
            }
        }
    }

    fn prefetch<C: CoreOps>(&mut self, core: &mut C, next: LineAddr) {
        if core.contains(next) {
            self.stats.prefetch_hits += 1;
            return;
        }
        self.stats.prefetch_fetches += 1;
        self.stats.bytes_fetched += self.config.line_size() as u64;
        let evicted = core.insert(next, false);
        self.account_eviction(evicted);
    }

    fn fetch_line(&mut self) {
        self.stats.demand_fetches += 1;
        self.stats.bytes_fetched += self.config.line_size() as u64;
    }

    fn account_eviction(&mut self, evicted: Option<Evicted>) {
        if let Some(ev) = evicted {
            self.stats.pushes += 1;
            if ev.dirty {
                self.stats.dirty_pushes += 1;
                self.stats.bytes_pushed += self.config.line_size() as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smith85_trace::Addr;

    fn read(addr: u64) -> MemoryAccess {
        MemoryAccess::read(Addr::new(addr), 4)
    }

    fn write(addr: u64) -> MemoryAccess {
        MemoryAccess::write(Addr::new(addr), 4)
    }

    fn ifetch(addr: u64) -> MemoryAccess {
        MemoryAccess::ifetch(Addr::new(addr), 4)
    }

    fn cache(size: usize) -> Cache {
        Cache::new(CacheConfig::paper_table1(size).unwrap()).unwrap()
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = cache(256);
        c.access(read(0x100));
        c.access(read(0x10f)); // same 16B line
        assert_eq!(c.stats().total_misses(), 1);
        assert_eq!(c.stats().total_refs(), 2);
        assert_eq!(c.stats().demand_fetches, 1);
        assert_eq!(c.stats().bytes_fetched, 16);
    }

    #[test]
    fn copy_back_write_dirties_line() {
        let mut c = cache(32); // 2 lines
        c.access(write(0x00)); // miss, fetch-on-write, dirty
        c.access(read(0x10)); // second line
        c.access(read(0x20)); // evicts line 0 (LRU) which is dirty
        let s = c.stats();
        assert_eq!(s.pushes, 1);
        assert_eq!(s.dirty_pushes, 1);
        assert_eq!(s.bytes_pushed, 16);
        // fetch-on-write counts as a fetch
        assert_eq!(s.demand_fetches, 3);
    }

    #[test]
    fn copy_back_read_then_write_then_evict() {
        let mut c = cache(16); // 1 line
        c.access(read(0x00)); // clean fill
        c.access(write(0x04)); // hit, dirties
        c.access(read(0x10)); // evict dirty
        assert_eq!(c.stats().dirty_pushes, 1);
    }

    #[test]
    fn copy_back_without_fetch_on_write_saves_fetch_traffic() {
        let cfg = CacheConfig::builder(32)
            .write_policy(WritePolicy::CopyBack {
                fetch_on_write: false,
            })
            .build()
            .unwrap();
        let mut c = Cache::new(cfg).unwrap();
        c.access(write(0x00));
        let s = c.stats();
        assert_eq!(s.total_misses(), 1);
        assert_eq!(s.demand_fetches, 0);
        assert_eq!(s.bytes_fetched, 0);
        // The line is resident and dirty.
        assert!(c.would_hit(read(0x04)));
    }

    #[test]
    fn write_through_sends_every_store_to_memory() {
        let cfg = CacheConfig::builder(64)
            .write_policy(WritePolicy::WriteThrough { allocate: false })
            .build()
            .unwrap();
        let mut c = Cache::new(cfg).unwrap();
        c.access(write(0x00)); // miss, no allocate
        c.access(write(0x04)); // still a miss (not resident)
        assert_eq!(c.stats().bytes_written_through, 8);
        assert_eq!(c.stats().total_misses(), 2);
        assert_eq!(c.stats().demand_fetches, 0);
        assert!(!c.would_hit(read(0x00)));
        // Write-through lines are never dirty.
        assert_eq!(c.stats().dirty_pushes, 0);
    }

    #[test]
    fn write_through_with_allocate_caches_the_line() {
        let cfg = CacheConfig::builder(64)
            .write_policy(WritePolicy::WriteThrough { allocate: true })
            .build()
            .unwrap();
        let mut c = Cache::new(cfg).unwrap();
        c.access(write(0x00));
        c.access(read(0x04)); // hit on the allocated line
        assert_eq!(c.stats().total_misses(), 1);
        assert_eq!(c.stats().demand_fetches, 1);
    }

    #[test]
    fn prefetch_always_fetches_next_line() {
        let cfg = CacheConfig::builder(256)
            .fetch_policy(FetchPolicy::PrefetchAlways)
            .build()
            .unwrap();
        let mut c = Cache::new(cfg).unwrap();
        c.access(read(0x00)); // miss line 0, prefetch line 1
        c.access(read(0x10)); // hit thanks to prefetch; prefetches line 2
        let s = c.stats();
        assert_eq!(s.total_misses(), 1);
        assert_eq!(s.prefetch_fetches, 2);
        assert_eq!(s.prefetch_hits, 0);
        assert_eq!(s.bytes_fetched, 16 * s.lines_fetched());
    }

    #[test]
    fn prefetch_traffic_exceeds_demand_traffic_for_same_stream() {
        let stream: Vec<MemoryAccess> = (0..200)
            .map(|i| read((i * 64) % 1024)) // strided, reuses lines
            .collect();
        let demand = {
            let mut c = cache(256);
            for a in &stream {
                c.access(*a);
            }
            c.stats().traffic_bytes()
        };
        let prefetch = {
            let cfg = CacheConfig::builder(256)
                .fetch_policy(FetchPolicy::PrefetchAlways)
                .build()
                .unwrap();
            let mut c = Cache::new(cfg).unwrap();
            for a in &stream {
                c.access(*a);
            }
            c.stats().traffic_bytes()
        };
        assert!(
            prefetch >= demand,
            "prefetch {prefetch} should not beat demand {demand} on traffic"
        );
    }

    #[test]
    fn sequential_ifetch_with_prefetch_has_tiny_miss_ratio() {
        let cfg = CacheConfig::builder(1024)
            .fetch_policy(FetchPolicy::PrefetchAlways)
            .build()
            .unwrap();
        let mut pf = Cache::new(cfg).unwrap();
        let mut dem = cache(1024);
        for i in 0..4096u64 {
            let a = ifetch(i * 4);
            pf.access(a);
            dem.access(a);
        }
        assert!(pf.stats().miss_ratio() < dem.stats().miss_ratio());
        // Purely sequential code: prefetching eliminates almost all misses.
        assert!(pf.stats().miss_ratio() < 0.002, "{}", pf.stats().miss_ratio());
    }

    #[test]
    fn purge_interval_triggers_automatically() {
        let cfg = CacheConfig::builder(256).purge_interval(Some(4)).build().unwrap();
        let mut c = Cache::new(cfg).unwrap();
        for i in 0..12 {
            c.access(read(i * 16));
        }
        assert_eq!(c.stats().purges, 2);
        assert!(c.stats().pushes >= 8);
    }

    #[test]
    fn manual_purge_empties_cache() {
        let mut c = cache(256);
        c.access(write(0x00));
        c.access(read(0x40));
        c.purge();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.stats().purges, 1);
        assert_eq!(c.stats().pushes, 2);
        assert_eq!(c.stats().dirty_pushes, 1);
        assert!(!c.would_hit(read(0x00)));
    }

    #[test]
    fn miss_ratio_monotone_in_size_for_lru() {
        // The LRU inclusion property: bigger fully-assoc LRU caches never
        // miss more.
        let stream: Vec<MemoryAccess> = (0..2000u64)
            .map(|i| read(((i * 37) % 513) * 16))
            .collect();
        let mut last = f64::INFINITY;
        for size in [64, 128, 256, 512, 1024, 2048] {
            let mut c = cache(size);
            for a in &stream {
                c.access(*a);
            }
            let mr = c.stats().miss_ratio();
            assert!(mr <= last + 1e-12, "size {size}: {mr} > {last}");
            last = mr;
        }
    }

    #[test]
    fn set_assoc_core_is_used_for_direct_mapped() {
        let cfg = CacheConfig::builder(64).mapping(Mapping::Direct).build().unwrap();
        let mut c = Cache::new(cfg).unwrap();
        // Lines 0 and 4 collide in a 4-set direct-mapped cache.
        c.access(read(0x00));
        c.access(read(0x40));
        c.access(read(0x00));
        assert_eq!(c.stats().total_misses(), 3);
    }

    #[test]
    fn resident_lines_bounded_by_capacity() {
        let mut c = cache(64); // 4 lines
        for i in 0..100 {
            c.access(read(i * 16));
        }
        assert_eq!(c.resident_lines(), 4);
    }
}
