//! Mattson's stack algorithm: single-pass miss ratios for *every* cache
//! size at once.
//!
//! For a fully-associative LRU cache, a reference hits in a cache of `C`
//! lines exactly when its *stack distance* (1-based position in the LRU
//! stack) is at most `C` — the inclusion property. One pass over a trace
//! that histograms stack distances therefore yields the entire
//! miss-ratio-versus-size curve of the paper's Table 1 / Figure 1.
//!
//! Distances are computed in O(log n) per reference with a Fenwick tree
//! over "last access" timestamps, so a full Table 1 sweep over a 49-trace
//! workload is one pass per trace instead of one per (trace, size) pair.

use crate::fast_hash::FastHashMap;
use crate::fenwick::Fenwick;
use smith85_trace::{AccessKind, MemoryAccess, PAPER_LINE_SIZE};

/// Streaming stack-distance analyzer.
///
/// ```
/// use smith85_cachesim::StackAnalyzer;
/// use smith85_trace::{Addr, MemoryAccess};
///
/// let mut a = StackAnalyzer::new();
/// for i in 0..100u64 {
///     a.observe(MemoryAccess::read(Addr::new((i % 40) * 16), 4));
/// }
/// let profile = a.finish();
/// // 40 distinct lines: a 40-line (640 B) cache captures everything after
/// // the cold misses; a smaller one thrashes.
/// assert!(profile.miss_ratio(1024) < profile.miss_ratio(256));
/// ```
#[derive(Debug, Clone)]
pub struct StackAnalyzer {
    line_size: usize,
    last_pos: FastHashMap<u64, usize>,
    fenwick: Fenwick,
    time: usize,
    hist: Vec<[u64; 3]>,
    cold: [u64; 3],
    refs: [u64; 3],
}

impl StackAnalyzer {
    /// Creates an analyzer at the paper's 16-byte line size.
    pub fn new() -> Self {
        Self::with_line_size(PAPER_LINE_SIZE)
    }

    /// Creates an analyzer for the given line size.
    ///
    /// # Panics
    ///
    /// Panics if `line_size` is not a positive power of two.
    pub fn with_line_size(line_size: usize) -> Self {
        Self::with_line_size_and_capacity(line_size, 1024)
    }

    /// Creates an analyzer pre-sized for a trace of `expected_len`
    /// references: the Fenwick tree is allocated at full length up front
    /// (no mid-pass rebuild) and the last-access map gets a capacity hint.
    ///
    /// # Panics
    ///
    /// Panics if `line_size` is not a positive power of two.
    pub fn with_line_size_and_capacity(line_size: usize, expected_len: usize) -> Self {
        assert!(
            line_size > 0 && line_size.is_power_of_two(),
            "line size must be a positive power of two, got {line_size}"
        );
        // Footprints are far smaller than trace lengths; an eighth of the
        // references is a generous distinct-line estimate.
        let map_hint = (expected_len / 8).clamp(64, 1 << 20);
        StackAnalyzer {
            line_size,
            last_pos: FastHashMap::with_capacity_and_hasher(map_hint, Default::default()),
            fenwick: Fenwick::new(expected_len.max(1024)),
            time: 0,
            hist: Vec::new(),
            cold: [0; 3],
            refs: [0; 3],
        }
    }

    /// Records one reference.
    pub fn observe(&mut self, access: MemoryAccess) {
        self.refs[access.kind.index()] += 1;
        let line = access.line(self.line_size).get();
        self.time += 1;
        if self.time > self.fenwick.capacity() {
            self.grow();
        }
        let t = self.time;
        match self.last_pos.insert(line, t) {
            None => {
                // The Fenwick tree's i32 counts hold at most one mark
                // per distinct line.
                assert!(
                    self.last_pos.len() < i32::MAX as usize,
                    "stack analyzer: distinct-line count reached i32::MAX"
                );
                self.cold[access.kind.index()] += 1;
            }
            Some(p) => {
                // Distinct lines whose last access lies strictly between
                // p and t, plus the line itself.
                let distance = self.fenwick.range_sum(p + 1, t - 1) as usize + 1;
                if self.hist.len() <= distance {
                    self.hist.resize(distance + 1, [0; 3]);
                }
                self.hist[distance][access.kind.index()] += 1;
                self.fenwick.add(p, -1);
            }
        }
        self.fenwick.add(t, 1);
    }

    /// Records every reference of a contiguous slice (the pooled-replay
    /// hot path: no per-access iterator dispatch).
    pub fn observe_slice(&mut self, trace: &[MemoryAccess]) {
        for &access in trace {
            self.observe(access);
        }
    }

    fn grow(&mut self) {
        let mut bigger = Fenwick::new(self.fenwick.capacity() * 2);
        for &p in self.last_pos.values() {
            bigger.add(p, 1);
        }
        self.fenwick = bigger;
    }

    /// Finishes the pass and returns the distance profile.
    pub fn finish(self) -> StackProfile {
        StackProfile {
            line_size: self.line_size,
            hist: self.hist,
            cold: self.cold,
            refs: self.refs,
        }
    }
}

impl Default for StackAnalyzer {
    fn default() -> Self {
        Self::new()
    }
}

impl Extend<MemoryAccess> for StackAnalyzer {
    fn extend<I: IntoIterator<Item = MemoryAccess>>(&mut self, iter: I) {
        for access in iter {
            self.observe(access);
        }
    }
}

/// The result of a stack-analysis pass: enough to answer "what would the
/// miss ratio be for a fully-associative LRU cache of any size".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StackProfile {
    line_size: usize,
    hist: Vec<[u64; 3]>,
    cold: [u64; 3],
    refs: [u64; 3],
}

impl StackProfile {
    /// Total references analyzed.
    pub fn total_refs(&self) -> u64 {
        self.refs.iter().sum()
    }

    /// References of one kind.
    pub fn refs_of(&self, kind: AccessKind) -> u64 {
        self.refs[kind.index()]
    }

    /// Number of distinct lines seen (the cold-miss count).
    pub fn distinct_lines(&self) -> u64 {
        self.cold.iter().sum()
    }

    /// The line size of the analysis.
    pub fn line_size(&self) -> usize {
        self.line_size
    }

    /// Misses a fully-associative LRU cache of `cache_bytes` would take.
    ///
    /// # Panics
    ///
    /// Panics if `cache_bytes` holds no whole line.
    pub fn misses(&self, cache_bytes: usize) -> u64 {
        AccessKind::ALL
            .iter()
            .map(|&k| self.misses_of(cache_bytes, k))
            .sum()
    }

    /// Misses of one access kind.
    ///
    /// # Panics
    ///
    /// Panics if `cache_bytes` holds no whole line.
    pub fn misses_of(&self, cache_bytes: usize, kind: AccessKind) -> u64 {
        let lines = cache_bytes / self.line_size;
        assert!(lines > 0, "cache of {cache_bytes} bytes holds no line");
        let k = kind.index();
        let beyond: u64 = self
            .hist
            .iter()
            .skip(lines + 1)
            .map(|counts| counts[k])
            .sum();
        self.cold[k] + beyond
    }

    /// Overall miss ratio at the given cache size.
    ///
    /// # Panics
    ///
    /// Panics if `cache_bytes` holds no whole line.
    pub fn miss_ratio(&self, cache_bytes: usize) -> f64 {
        ratio(self.misses(cache_bytes), self.total_refs())
    }

    /// Miss ratio of one access kind at the given cache size.
    ///
    /// # Panics
    ///
    /// Panics if `cache_bytes` holds no whole line.
    pub fn miss_ratio_of(&self, cache_bytes: usize, kind: AccessKind) -> f64 {
        ratio(self.misses_of(cache_bytes, kind), self.refs[kind.index()])
    }

    /// Miss ratio over the usual sweep of sizes; convenience for Table 1.
    pub fn miss_ratio_curve(&self, sizes: &[usize]) -> Vec<f64> {
        sizes.iter().map(|&s| self.miss_ratio(s)).collect()
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cache, CacheConfig};
    use smith85_trace::Addr;

    fn read(addr: u64) -> MemoryAccess {
        MemoryAccess::read(Addr::new(addr), 4)
    }

    #[test]
    fn cold_misses_only_for_streaming() {
        let mut a = StackAnalyzer::new();
        for i in 0..100 {
            a.observe(read(i * 16));
        }
        let p = a.finish();
        assert_eq!(p.distinct_lines(), 100);
        // Every size misses exactly the 100 cold misses.
        assert_eq!(p.misses(16), 100);
        assert_eq!(p.misses(1 << 20), 100);
    }

    #[test]
    fn cyclic_reuse_has_knee_at_working_set() {
        // Cycle over 8 lines repeatedly: a cache of >= 8 lines hits after
        // the cold pass; anything smaller misses every time (LRU worst case).
        let mut a = StackAnalyzer::new();
        for i in 0..800u64 {
            a.observe(read((i % 8) * 16));
        }
        let p = a.finish();
        assert_eq!(p.misses(8 * 16), 8); // exactly the cold misses
        assert_eq!(p.misses(7 * 16), 800); // thrash
    }

    #[test]
    fn monotone_in_size() {
        let mut a = StackAnalyzer::new();
        let mut x = 1u64;
        for _ in 0..5000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            a.observe(read((x >> 33) % 4096));
        }
        let p = a.finish();
        let sizes = [32, 64, 128, 256, 512, 1024, 2048, 4096];
        let curve = p.miss_ratio_curve(&sizes);
        for w in curve.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }

    #[test]
    fn agrees_with_direct_simulation() {
        // Cross-check against the real fully-associative LRU cache on a
        // pseudo-random stream, for several sizes.
        let mut stream = Vec::new();
        let mut x = 7u64;
        for i in 0..3000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = (x % 600) * 16 + (i % 2) * 4;
            stream.push(read(addr));
        }
        let mut a = StackAnalyzer::new();
        for acc in &stream {
            a.observe(*acc);
        }
        let p = a.finish();
        for size in [64, 256, 1024, 4096] {
            let mut c = Cache::new(CacheConfig::paper_table1(size).unwrap()).unwrap();
            for acc in &stream {
                c.access(*acc);
            }
            assert_eq!(
                p.misses(size),
                c.stats().total_misses(),
                "divergence at size {size}"
            );
        }
    }

    #[test]
    fn per_kind_split() {
        let mut a = StackAnalyzer::new();
        a.observe(MemoryAccess::ifetch(Addr::new(0), 4));
        a.observe(read(0x100));
        a.observe(read(0x100));
        let p = a.finish();
        assert_eq!(p.refs_of(AccessKind::InstructionFetch), 1);
        assert_eq!(p.refs_of(AccessKind::Read), 2);
        assert_eq!(p.misses_of(64, AccessKind::InstructionFetch), 1);
        assert_eq!(p.misses_of(64, AccessKind::Read), 1);
        assert!((p.miss_ratio_of(64, AccessKind::Read) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn growth_beyond_initial_capacity() {
        let mut a = StackAnalyzer::new();
        for i in 0..5000u64 {
            a.observe(read((i % 3) * 16));
        }
        let p = a.finish();
        assert_eq!(p.total_refs(), 5000);
        assert_eq!(p.misses(3 * 16), 3);
    }

    #[test]
    #[should_panic(expected = "holds no line")]
    fn rejects_cache_below_line_size() {
        let mut a = StackAnalyzer::new();
        a.observe(read(0));
        let _ = a.finish().miss_ratio(8);
    }
}
