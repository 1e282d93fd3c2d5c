//! Sector (block/subblock) cache, as used by the Zilog Z80000 (§1.2, §4.1).
//!
//! A sector cache tags storage at *sector* granularity (16 bytes for the
//! Z80000) but transfers data in smaller *subblocks* (2, 4 or 16 bytes).
//! On a sector miss only the referenced subblock is fetched; further
//! references to other subblocks of a resident sector miss again ("subblock
//! misses") but do not evict anything. The paper argues Alpert's projected
//! hit ratios (0.62/0.75/0.88 for 2/4/16-byte transfers into 256 bytes) are
//! optimistic for real 32-bit workloads; the `z80000` experiment reproduces
//! that comparison with this model.

use crate::error::ConfigError;
use crate::stats::CacheStats;
use smith85_trace::MemoryAccess;

/// Configuration of a sector cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectorCacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Sector (tag granularity) size in bytes.
    pub sector_bytes: usize,
    /// Subblock (transfer unit) size in bytes.
    pub fetch_bytes: usize,
}

impl SectorCacheConfig {
    /// The Z80000's cache per \[Alpe83\]: 256 bytes of storage, 16-byte
    /// sectors, with the given transfer size.
    pub const fn z80000(fetch_bytes: usize) -> Self {
        SectorCacheConfig {
            size_bytes: 256,
            sector_bytes: 16,
            fetch_bytes,
        }
    }

    fn validate(self) -> Result<Self, ConfigError> {
        for (what, value) in [
            ("cache size", self.size_bytes),
            ("sector size", self.sector_bytes),
            ("fetch size", self.fetch_bytes),
        ] {
            if value == 0 || !value.is_power_of_two() {
                return Err(ConfigError::NotPowerOfTwo { what, value });
            }
        }
        if self.size_bytes < self.sector_bytes {
            return Err(ConfigError::CacheSmallerThanLine {
                cache: self.size_bytes,
                line: self.sector_bytes,
            });
        }
        if self.fetch_bytes > self.sector_bytes {
            return Err(ConfigError::BadSubblock {
                sector: self.sector_bytes,
                fetch: self.fetch_bytes,
            });
        }
        if self.sector_bytes / self.fetch_bytes > 64 {
            return Err(ConfigError::BadSubblock {
                sector: self.sector_bytes,
                fetch: self.fetch_bytes,
            });
        }
        Ok(self)
    }

    /// Subblocks per sector.
    pub const fn subblocks(&self) -> usize {
        self.sector_bytes / self.fetch_bytes
    }

    /// Sectors the cache holds.
    pub const fn sectors(&self) -> usize {
        self.size_bytes / self.sector_bytes
    }
}

#[derive(Debug, Clone, Copy)]
struct Sector {
    tag: u64,
    valid: u64,
    dirty: u64,
    stamp: u64,
}

/// A fully-associative LRU sector cache.
///
/// ```
/// use smith85_cachesim::{SectorCache, SectorCacheConfig};
/// use smith85_trace::{Addr, MemoryAccess};
///
/// let mut c = SectorCache::new(SectorCacheConfig::z80000(4))?;
/// c.access(MemoryAccess::ifetch(Addr::new(0x100), 4)); // sector + subblock miss
/// c.access(MemoryAccess::ifetch(Addr::new(0x104), 4)); // new subblock: miss again
/// c.access(MemoryAccess::ifetch(Addr::new(0x100), 4)); // hit
/// assert_eq!(c.stats().total_misses(), 2);
/// # Ok::<(), smith85_cachesim::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SectorCache {
    config: SectorCacheConfig,
    sectors: Vec<Sector>,
    clock: u64,
    stats: CacheStats,
}

impl SectorCache {
    /// Creates a sector cache.
    ///
    /// # Errors
    ///
    /// Returns an error if any size is not a power of two, the fetch size
    /// exceeds the sector size, or a sector has more than 64 subblocks.
    pub fn new(config: SectorCacheConfig) -> Result<Self, ConfigError> {
        let config = config.validate()?;
        Ok(SectorCache {
            config,
            sectors: Vec::with_capacity(config.sectors()),
            clock: 0,
            stats: CacheStats::new(),
        })
    }

    /// The configuration.
    pub fn config(&self) -> &SectorCacheConfig {
        &self.config
    }

    /// Statistics so far. Misses count *subblock* misses (a reference to a
    /// resident sector whose subblock is invalid is a miss), matching the
    /// hit-ratio definition in \[Alpe83\].
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Processes one reference.
    pub fn access(&mut self, access: MemoryAccess) {
        self.stats.record_ref(access.kind, access.size);
        self.clock += 1;
        let addr = access.addr.get();
        let tag = addr / self.config.sector_bytes as u64;
        let sub = (addr % self.config.sector_bytes as u64) / self.config.fetch_bytes as u64;
        let bit = 1u64 << sub;
        let clock = self.clock;

        if let Some(sector) = self.sectors.iter_mut().find(|s| s.tag == tag) {
            sector.stamp = clock;
            if sector.valid & bit != 0 {
                if access.kind.is_write() {
                    sector.dirty |= bit;
                }
                return;
            }
            // Subblock miss within a resident sector.
            self.stats.record_miss(access.kind);
            self.stats.demand_fetches += 1;
            self.stats.bytes_fetched += self.config.fetch_bytes as u64;
            sector.valid |= bit;
            if access.kind.is_write() {
                sector.dirty |= bit;
            }
            return;
        }

        // Sector miss: evict LRU if full, then install with one subblock.
        self.stats.record_miss(access.kind);
        self.stats.demand_fetches += 1;
        self.stats.bytes_fetched += self.config.fetch_bytes as u64;
        let dirty = if access.kind.is_write() { bit } else { 0 };
        let fresh = Sector {
            tag,
            valid: bit,
            dirty,
            stamp: clock,
        };
        if self.sectors.len() < self.config.sectors() {
            self.sectors.push(fresh);
        } else {
            // invariant: this branch requires sectors.len() >= the
            // configured sector count, and CacheConfig validation rejects
            // zero-sector configurations, so min_by_key is never empty.
            let victim = self
                .sectors
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.stamp)
                .map(|(i, _)| i)
                .expect("cache has at least one sector");
            let old = self.sectors[victim];
            self.stats.pushes += 1;
            if old.dirty != 0 {
                self.stats.dirty_pushes += 1;
                self.stats.bytes_pushed +=
                    old.dirty.count_ones() as u64 * self.config.fetch_bytes as u64;
            }
            self.sectors[victim] = fresh;
        }
    }

    /// Drives the cache with a whole stream.
    pub fn run<I: IntoIterator<Item = MemoryAccess>>(&mut self, stream: I) {
        for access in stream {
            self.access(access);
        }
    }

    /// Drives the cache with a contiguous trace slice (pooled replay).
    pub fn run_slice(&mut self, trace: &[MemoryAccess]) {
        for &access in trace {
            self.access(access);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smith85_trace::Addr;

    fn ifetch(addr: u64) -> MemoryAccess {
        MemoryAccess::ifetch(Addr::new(addr), 2)
    }

    #[test]
    fn z80000_geometry() {
        let c = SectorCacheConfig::z80000(2);
        assert_eq!(c.sectors(), 16);
        assert_eq!(c.subblocks(), 8);
        assert_eq!(SectorCacheConfig::z80000(16).subblocks(), 1);
    }

    #[test]
    fn subblock_miss_within_resident_sector() {
        let mut c = SectorCache::new(SectorCacheConfig::z80000(2)).unwrap();
        c.access(ifetch(0x00)); // sector miss
        c.access(ifetch(0x02)); // same sector, next subblock: miss
        c.access(ifetch(0x00)); // hit
        c.access(ifetch(0x03)); // within fetched subblock: hit
        assert_eq!(c.stats().total_misses(), 2);
        assert_eq!(c.stats().bytes_fetched, 4);
        assert_eq!(c.stats().total_refs(), 4);
    }

    #[test]
    fn whole_sector_transfer_behaves_like_plain_line() {
        let mut c = SectorCache::new(SectorCacheConfig::z80000(16)).unwrap();
        c.access(ifetch(0x00));
        c.access(ifetch(0x0e)); // anywhere in the sector hits
        assert_eq!(c.stats().total_misses(), 1);
        assert_eq!(c.stats().bytes_fetched, 16);
    }

    #[test]
    fn larger_fetch_size_has_lower_miss_ratio_on_sequential_code() {
        let run = |fetch| {
            let mut c = SectorCache::new(SectorCacheConfig::z80000(fetch)).unwrap();
            for i in 0..512u64 {
                c.access(ifetch(i * 2));
            }
            c.stats().miss_ratio()
        };
        let (m2, m4, m16) = (run(2), run(4), run(16));
        assert!(m2 > m4 && m4 > m16, "{m2} {m4} {m16}");
        // Sequential stream: miss ratio is fetch granularity limited.
        assert!((m2 - 1.0).abs() < 1e-9 || m2 <= 1.0);
    }

    #[test]
    fn lru_eviction_over_sectors() {
        let mut c = SectorCache::new(SectorCacheConfig::z80000(16)).unwrap();
        // 16 sectors: touch 17 distinct sectors, then re-touch the first.
        for i in 0..17u64 {
            c.access(ifetch(i * 16));
        }
        c.access(ifetch(0)); // evicted: miss again
        assert_eq!(c.stats().total_misses(), 18);
        assert_eq!(c.stats().pushes, 2);
    }

    #[test]
    fn dirty_subblocks_counted_on_eviction() {
        let mut c = SectorCache::new(SectorCacheConfig::z80000(4)).unwrap();
        c.access(MemoryAccess::write(Addr::new(0x00), 4));
        c.access(MemoryAccess::write(Addr::new(0x04), 4));
        for i in 1..=16u64 {
            c.access(ifetch(i * 16));
        }
        assert_eq!(c.stats().dirty_pushes, 1);
        assert_eq!(c.stats().bytes_pushed, 8); // two dirty 4-byte subblocks
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(SectorCache::new(SectorCacheConfig {
            size_bytes: 100,
            sector_bytes: 16,
            fetch_bytes: 4
        })
        .is_err());
        assert!(SectorCache::new(SectorCacheConfig {
            size_bytes: 256,
            sector_bytes: 16,
            fetch_bytes: 32
        })
        .is_err());
        assert!(SectorCache::new(SectorCacheConfig {
            size_bytes: 8,
            sector_bytes: 16,
            fetch_bytes: 4
        })
        .is_err());
    }
}
