//! Cache organisations: unified, and split instruction/data.
//!
//! The paper simulates both a unified (instructions + data) cache and a
//! split design (§3.5). For the split design the purge ("task switch") is a
//! property of the *machine*, not of either cache half, so [`SplitCache`]
//! owns the purge counter and flushes both halves together — exactly the
//! paper's "every 20,000 memory references, the cache is purged".

use crate::cache::Cache;
use crate::config::CacheConfig;
use crate::error::ConfigError;
use crate::stats::CacheStats;
use smith85_trace::MemoryAccess;

/// Anything that can consume a reference stream and report statistics.
pub trait Simulator {
    /// Processes one reference.
    fn access(&mut self, access: MemoryAccess);

    /// Aggregate statistics over the whole organisation.
    fn total_stats(&self) -> CacheStats;

    /// Drives the simulator with every access of `stream`.
    fn run<I>(&mut self, stream: I)
    where
        I: IntoIterator<Item = MemoryAccess>,
        Self: Sized,
    {
        for access in stream {
            self.access(access);
        }
    }

    /// Drives the simulator with a contiguous trace slice (the
    /// pooled-replay hot path: a monomorphized loop with no per-access
    /// iterator dispatch).
    fn run_slice(&mut self, trace: &[MemoryAccess])
    where
        Self: Sized,
    {
        for &access in trace {
            self.access(access);
        }
    }
}

/// A unified cache: one cache serving instruction fetches, reads and writes.
///
/// ```
/// use smith85_cachesim::{CacheConfig, Simulator, UnifiedCache};
/// use smith85_trace::{Addr, MemoryAccess};
///
/// let mut sys = UnifiedCache::new(CacheConfig::paper_table1(1024)?)?;
/// sys.run((0..100u64).map(|i| MemoryAccess::ifetch(Addr::new(i * 4), 4)));
/// assert!(sys.stats().miss_ratio() < 0.3);
/// # Ok::<(), smith85_cachesim::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct UnifiedCache {
    cache: Cache,
}

impl UnifiedCache {
    /// Creates a unified cache.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid.
    pub fn new(config: CacheConfig) -> Result<Self, ConfigError> {
        Ok(UnifiedCache {
            cache: Cache::new(config)?,
        })
    }

    /// The underlying cache's statistics.
    pub fn stats(&self) -> &CacheStats {
        self.cache.stats()
    }

    /// The underlying cache.
    pub fn cache(&self) -> &Cache {
        &self.cache
    }
}

impl Simulator for UnifiedCache {
    fn access(&mut self, access: MemoryAccess) {
        self.cache.access(access);
    }

    fn total_stats(&self) -> CacheStats {
        *self.cache.stats()
    }

    fn run_slice(&mut self, trace: &[MemoryAccess]) {
        self.cache.run(trace);
    }
}

/// A split organisation: separate instruction and data caches, purged
/// together on the machine's task-switch interval.
#[derive(Debug, Clone)]
pub struct SplitCache {
    icache: Cache,
    dcache: Cache,
    purge_interval: Option<u64>,
    refs_since_purge: u64,
    purges: u64,
}

impl SplitCache {
    /// Creates a split cache from per-half configurations and a shared
    /// purge interval.
    ///
    /// Per-half purge intervals are ignored in favour of the shared one
    /// (the paper purges the whole machine at once); pass configurations
    /// without purge intervals for clarity.
    ///
    /// # Errors
    ///
    /// Returns an error if either configuration is invalid, or if
    /// `purge_interval` is `Some(0)`.
    pub fn new(
        iconfig: CacheConfig,
        dconfig: CacheConfig,
        purge_interval: Option<u64>,
    ) -> Result<Self, ConfigError> {
        if purge_interval == Some(0) {
            return Err(ConfigError::ZeroPurgeInterval);
        }
        let strip = |c: CacheConfig| -> Result<CacheConfig, ConfigError> {
            CacheConfig::builder(c.size_bytes())
                .line_size(c.line_size())
                .mapping(c.mapping())
                .replacement(c.replacement())
                .write_policy(c.write_policy())
                .fetch_policy(c.fetch_policy())
                .purge_interval(None)
                .build()
        };
        Ok(SplitCache {
            icache: Cache::new(strip(iconfig)?)?,
            dcache: Cache::new(strip(dconfig)?)?,
            purge_interval,
            refs_since_purge: 0,
            purges: 0,
        })
    }

    /// The paper's Table 3 configuration: equal-size fully-associative LRU
    /// halves with 16-byte lines, purged together every `purge_interval`
    /// references.
    ///
    /// # Errors
    ///
    /// Returns an error if `half_size` is invalid.
    pub fn paper_split(half_size: usize, purge_interval: u64) -> Result<Self, ConfigError> {
        let cfg = CacheConfig::paper_table1(half_size)?;
        Self::new(cfg, cfg, Some(purge_interval))
    }

    /// Statistics of the instruction half.
    pub fn instruction_stats(&self) -> &CacheStats {
        self.icache.stats()
    }

    /// Statistics of the data half.
    pub fn data_stats(&self) -> &CacheStats {
        self.dcache.stats()
    }

    /// The instruction cache.
    pub fn icache(&self) -> &Cache {
        &self.icache
    }

    /// The data cache.
    pub fn dcache(&self) -> &Cache {
        &self.dcache
    }

    /// Number of whole-machine purges performed.
    pub fn purges(&self) -> u64 {
        self.purges
    }

    /// Purges both halves now.
    pub fn purge(&mut self) {
        self.icache.purge();
        self.dcache.purge();
        self.refs_since_purge = 0;
        self.purges += 1;
    }
}

impl Simulator for SplitCache {
    fn access(&mut self, access: MemoryAccess) {
        if let Some(interval) = self.purge_interval {
            if self.refs_since_purge >= interval {
                self.purge();
            }
        }
        self.refs_since_purge += 1;
        if access.kind.is_ifetch() {
            self.icache.access(access);
        } else {
            self.dcache.access(access);
        }
    }

    fn total_stats(&self) -> CacheStats {
        let mut total = *self.icache.stats();
        total.merge(self.dcache.stats());
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smith85_trace::{AccessKind, Addr};

    fn ifetch(addr: u64) -> MemoryAccess {
        MemoryAccess::ifetch(Addr::new(addr), 4)
    }

    fn read(addr: u64) -> MemoryAccess {
        MemoryAccess::read(Addr::new(addr), 4)
    }

    fn write(addr: u64) -> MemoryAccess {
        MemoryAccess::write(Addr::new(addr), 4)
    }

    #[test]
    fn split_routes_by_kind() {
        let mut s = SplitCache::paper_split(256, 20_000).unwrap();
        s.access(ifetch(0x00));
        s.access(read(0x00)); // same address, different cache: still a miss
        s.access(write(0x04));
        assert_eq!(s.instruction_stats().total_refs(), 1);
        assert_eq!(s.data_stats().total_refs(), 2);
        assert_eq!(s.instruction_stats().total_misses(), 1);
        assert_eq!(s.data_stats().misses(AccessKind::Read), 1);
        assert_eq!(s.data_stats().misses(AccessKind::Write), 0); // hit after read fill
    }

    #[test]
    fn split_purges_both_halves_on_shared_counter() {
        let mut s = SplitCache::paper_split(256, 4).unwrap();
        for i in 0..4 {
            s.access(if i % 2 == 0 { ifetch(i * 16) } else { read(i * 16) });
        }
        // 5th access crosses the interval: both halves purge first.
        s.access(read(0x900));
        assert_eq!(s.purges(), 1);
        assert_eq!(s.icache().resident_lines(), 0);
        assert_eq!(s.dcache().resident_lines(), 1);
    }

    #[test]
    fn per_half_purge_intervals_are_stripped() {
        let cfg = CacheConfig::paper_purged(256, 7).unwrap();
        let s = SplitCache::new(cfg, cfg, Some(20_000)).unwrap();
        assert_eq!(s.icache().config().purge_interval(), None);
        assert_eq!(s.dcache().config().purge_interval(), None);
    }

    #[test]
    fn total_stats_merges_halves() {
        let mut s = SplitCache::paper_split(256, 20_000).unwrap();
        s.access(ifetch(0));
        s.access(read(0x100));
        s.access(write(0x200));
        let t = s.total_stats();
        assert_eq!(t.total_refs(), 3);
        assert_eq!(t.total_misses(), 3);
    }

    #[test]
    fn unified_exposes_cache_stats() {
        let mut u = UnifiedCache::new(CacheConfig::paper_table1(256).unwrap()).unwrap();
        u.run(vec![ifetch(0), read(0)]); // same line: second hits
        assert_eq!(u.total_stats().total_misses(), 1);
        assert_eq!(u.stats().total_refs(), 2);
        assert_eq!(u.cache().resident_lines(), 1);
    }

    #[test]
    fn zero_shared_purge_interval_rejected() {
        let cfg = CacheConfig::paper_table1(256).unwrap();
        assert!(matches!(
            SplitCache::new(cfg, cfg, Some(0)),
            Err(ConfigError::ZeroPurgeInterval)
        ));
    }
}
