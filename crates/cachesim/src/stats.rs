//! Cache statistics: the quantities the paper tabulates.

use smith85_trace::AccessKind;
use std::fmt;
use std::ops::{Add, AddAssign};

/// Counters accumulated by a simulated cache.
///
/// All the paper's metrics derive from these: miss ratios (overall and by
/// access kind), memory traffic in bytes (fetch + write + push), the number
/// of lines pushed and the fraction pushed dirty, and prefetch activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    refs: [u64; 3],
    misses: [u64; 3],
    /// Lines fetched from memory on demand (miss fills).
    pub demand_fetches: u64,
    /// Lines fetched from memory by the prefetcher.
    pub prefetch_fetches: u64,
    /// Prefetch lookups that found line `i + 1` already resident.
    pub prefetch_hits: u64,
    /// Lines pushed out (by replacement or purge).
    pub pushes: u64,
    /// Pushed lines that were dirty (written back to memory).
    pub dirty_pushes: u64,
    /// Bytes moved memory→cache (fills and prefetches).
    pub bytes_fetched: u64,
    /// Bytes moved cache→memory (dirty push write-backs).
    pub bytes_pushed: u64,
    /// Bytes written straight through to memory (write-through stores and
    /// no-allocate write misses).
    pub bytes_written_through: u64,
    /// Bytes the processor itself demanded (the sum of access sizes) —
    /// the traffic a cacheless machine would put on the memory bus.
    pub bytes_demanded: u64,
    /// Task-switch purges performed.
    pub purges: u64,
}

impl CacheStats {
    /// A zeroed statistics block.
    pub fn new() -> Self {
        CacheStats::default()
    }

    pub(crate) fn record_ref(&mut self, kind: AccessKind, size: u8) {
        self.refs[kind.index()] += 1;
        self.bytes_demanded += size as u64;
    }

    pub(crate) fn record_miss(&mut self, kind: AccessKind) {
        self.misses[kind.index()] += 1;
    }

    /// Adds `n` references of one kind at once (byte accounting is the
    /// caller's job). Used by the one-pass engine, which folds histograms
    /// rather than counting per access.
    pub(crate) fn add_refs(&mut self, kind: AccessKind, n: u64) {
        self.refs[kind.index()] += n;
    }

    /// Adds `n` misses of one kind at once.
    pub(crate) fn add_misses(&mut self, kind: AccessKind, n: u64) {
        self.misses[kind.index()] += n;
    }

    /// Total references seen.
    pub fn total_refs(&self) -> u64 {
        self.refs.iter().sum()
    }

    /// Total misses.
    pub fn total_misses(&self) -> u64 {
        self.misses.iter().sum()
    }

    /// References of one kind.
    pub fn refs(&self, kind: AccessKind) -> u64 {
        self.refs[kind.index()]
    }

    /// Misses of one kind.
    pub fn misses(&self, kind: AccessKind) -> u64 {
        self.misses[kind.index()]
    }

    /// Overall miss ratio (0 for an idle cache).
    pub fn miss_ratio(&self) -> f64 {
        ratio(self.total_misses(), self.total_refs())
    }

    /// Overall hit ratio.
    pub fn hit_ratio(&self) -> f64 {
        1.0 - self.miss_ratio()
    }

    /// Miss ratio for one access kind.
    pub fn miss_ratio_of(&self, kind: AccessKind) -> f64 {
        ratio(self.misses[kind.index()], self.refs[kind.index()])
    }

    /// Miss ratio over data references (reads + writes), the paper's
    /// "data miss ratio" for split caches.
    pub fn data_miss_ratio(&self) -> f64 {
        let r = self.refs(AccessKind::Read) + self.refs(AccessKind::Write);
        let m = self.misses(AccessKind::Read) + self.misses(AccessKind::Write);
        ratio(m, r)
    }

    /// Miss ratio over instruction fetches.
    pub fn instruction_miss_ratio(&self) -> f64 {
        self.miss_ratio_of(AccessKind::InstructionFetch)
    }

    /// Fraction of pushed lines that were dirty (Table 3's metric).
    pub fn dirty_push_fraction(&self) -> f64 {
        ratio(self.dirty_pushes, self.pushes)
    }

    /// Total lines fetched from memory, demand plus prefetch.
    pub fn lines_fetched(&self) -> u64 {
        self.demand_fetches + self.prefetch_fetches
    }

    /// Total bytes moved on the memory interface (the paper's "memory
    /// traffic": fetches + write-backs + write-throughs).
    pub fn traffic_bytes(&self) -> u64 {
        self.bytes_fetched + self.bytes_pushed + self.bytes_written_through
    }

    /// The traffic ratio of §5 / \[Hil84\]: bytes the cache moved on the
    /// memory bus divided by the bytes the processor demanded (what a
    /// cacheless machine would move). A cache "works" when this is below
    /// 1.0; small caches with long lines can exceed it.
    pub fn traffic_ratio(&self) -> f64 {
        if self.bytes_demanded == 0 {
            0.0
        } else {
            self.traffic_bytes() as f64 / self.bytes_demanded as f64
        }
    }

    /// Merges `other` into `self` (used to aggregate the two halves of a
    /// split cache).
    pub fn merge(&mut self, other: &CacheStats) {
        *self += *other;
    }
}

impl AddAssign for CacheStats {
    fn add_assign(&mut self, other: CacheStats) {
        for k in 0..3 {
            self.refs[k] += other.refs[k];
            self.misses[k] += other.misses[k];
        }
        self.demand_fetches += other.demand_fetches;
        self.prefetch_fetches += other.prefetch_fetches;
        self.prefetch_hits += other.prefetch_hits;
        self.pushes += other.pushes;
        self.dirty_pushes += other.dirty_pushes;
        self.bytes_fetched += other.bytes_fetched;
        self.bytes_pushed += other.bytes_pushed;
        self.bytes_written_through += other.bytes_written_through;
        self.bytes_demanded += other.bytes_demanded;
        self.purges += other.purges;
    }
}

impl Add for CacheStats {
    type Output = CacheStats;

    fn add(mut self, other: CacheStats) -> CacheStats {
        self += other;
        self
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} refs, miss ratio {:.4} (I {:.4}, D {:.4}), {} B traffic, \
             {} pushes ({:.0}% dirty)",
            self.total_refs(),
            self.miss_ratio(),
            self.instruction_miss_ratio(),
            self.data_miss_ratio(),
            self.traffic_bytes(),
            self.pushes,
            100.0 * self.dirty_push_fraction(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CacheStats {
        let mut s = CacheStats::new();
        for _ in 0..8 {
            s.record_ref(AccessKind::InstructionFetch, 4);
        }
        for _ in 0..3 {
            s.record_ref(AccessKind::Read, 4);
        }
        s.record_ref(AccessKind::Write, 4);
        s.record_miss(AccessKind::InstructionFetch);
        s.record_miss(AccessKind::Read);
        s
    }

    #[test]
    fn ratios() {
        let s = sample();
        assert_eq!(s.total_refs(), 12);
        assert_eq!(s.total_misses(), 2);
        assert!((s.miss_ratio() - 2.0 / 12.0).abs() < 1e-12);
        assert!((s.hit_ratio() - 10.0 / 12.0).abs() < 1e-12);
        assert!((s.instruction_miss_ratio() - 1.0 / 8.0).abs() < 1e-12);
        assert!((s.data_miss_ratio() - 1.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn idle_cache_has_zero_ratios() {
        let s = CacheStats::new();
        assert_eq!(s.miss_ratio(), 0.0);
        assert_eq!(s.dirty_push_fraction(), 0.0);
        assert_eq!(s.traffic_bytes(), 0);
    }

    #[test]
    fn traffic_sums_components() {
        let mut s = CacheStats::new();
        s.bytes_fetched = 160;
        s.bytes_pushed = 32;
        s.bytes_written_through = 8;
        assert_eq!(s.traffic_bytes(), 200);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.total_refs(), 24);
        assert_eq!(a.total_misses(), 4);
        let c = sample() + sample();
        assert_eq!(c, a);
    }

    #[test]
    fn dirty_fraction() {
        let mut s = CacheStats::new();
        s.pushes = 10;
        s.dirty_pushes = 5;
        assert!((s.dirty_push_fraction() - 0.5).abs() < 1e-12);
    }
}
