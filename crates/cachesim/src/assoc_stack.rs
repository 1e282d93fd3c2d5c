//! All-associativity stack simulation: every way-count in one pass.
//!
//! The same inclusion property Mattson's algorithm exploits for fully
//! associative LRU holds *within each set* of a set-associative LRU cache:
//! for a fixed number of sets, a reference hits in an `A`-way cache exactly
//! when its within-set stack distance is at most `A`. One pass therefore
//! yields the miss ratio for **every associativity** at that set count —
//! the technique later formalized by Hill (whose \[Hil84\] the paper cites
//! for the traffic-ratio warning). It turns the paper's "the effect of set
//! associativity should be small" aside into a measurable curve.

use crate::fast_hash::FastHashMap;
use smith85_trace::{MemoryAccess, PAPER_LINE_SIZE};

/// Streaming within-set stack-distance analyzer for a fixed set count.
///
/// ```
/// use smith85_cachesim::AssocAnalyzer;
/// use smith85_trace::{Addr, MemoryAccess};
///
/// let mut a = AssocAnalyzer::new(16); // 16 sets, 16-byte lines
/// for i in 0..1000u64 {
///     a.observe(MemoryAccess::read(Addr::new((i % 96) * 16), 4));
/// }
/// let profile = a.finish();
/// // More ways never miss more.
/// assert!(profile.miss_ratio(4) <= profile.miss_ratio(1));
/// ```
#[derive(Debug, Clone)]
pub struct AssocAnalyzer {
    sets: usize,
    line_size: usize,
    /// Per-set recency list, most recent first.
    stacks: Vec<Vec<u64>>,
    /// `hist[d]` = references with within-set stack distance `d` (1-based).
    hist: Vec<u64>,
    cold: u64,
    refs: u64,
}

impl AssocAnalyzer {
    /// Creates an analyzer for `sets` sets at the paper's 16-byte lines.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a positive power of two.
    pub fn new(sets: usize) -> Self {
        Self::with_line_size(sets, PAPER_LINE_SIZE)
    }

    /// Creates an analyzer with an explicit line size.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `line_size` is not a positive power of two.
    pub fn with_line_size(sets: usize, line_size: usize) -> Self {
        Self::with_line_size_and_capacity(sets, line_size, 0)
    }

    /// Creates an analyzer pre-sized for a trace of `expected_len`
    /// references: each per-set recency stack gets a capacity hint so the
    /// hot loop never reallocates.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `line_size` is not a positive power of two.
    pub fn with_line_size_and_capacity(sets: usize, line_size: usize, expected_len: usize) -> Self {
        assert!(sets > 0 && sets.is_power_of_two(), "bad set count {sets}");
        assert!(
            line_size > 0 && line_size.is_power_of_two(),
            "bad line size {line_size}"
        );
        // Distinct lines per set rarely exceed a small multiple of the
        // footprint over the set count; cap the hint so tiny traces with
        // many sets do not over-allocate.
        let per_set = if expected_len == 0 {
            0
        } else {
            (expected_len / 8 / sets).clamp(8, 4096)
        };
        AssocAnalyzer {
            sets,
            line_size,
            stacks: vec![Vec::with_capacity(per_set); sets],
            hist: Vec::new(),
            cold: 0,
            refs: 0,
        }
    }

    /// Records one reference.
    pub fn observe(&mut self, access: MemoryAccess) {
        self.refs += 1;
        let line = access.line(self.line_size).get();
        let set = (line as usize) & (self.sets - 1);
        let stack = &mut self.stacks[set];
        match stack.iter().position(|&l| l == line) {
            None => {
                self.cold += 1;
                stack.insert(0, line);
            }
            Some(pos) => {
                let distance = pos + 1;
                if self.hist.len() <= distance {
                    self.hist.resize(distance + 1, 0);
                }
                self.hist[distance] += 1;
                stack.remove(pos);
                stack.insert(0, line);
            }
        }
    }

    /// Records every reference of a contiguous slice (the pooled-replay
    /// hot path: no per-access iterator dispatch).
    pub fn observe_slice(&mut self, trace: &[MemoryAccess]) {
        for &access in trace {
            self.observe(access);
        }
    }

    /// Finishes the pass.
    pub fn finish(self) -> AssocProfile {
        AssocProfile {
            sets: self.sets,
            line_size: self.line_size,
            hist: self.hist,
            cold: self.cold,
            refs: self.refs,
        }
    }
}

impl Extend<MemoryAccess> for AssocAnalyzer {
    fn extend<I: IntoIterator<Item = MemoryAccess>>(&mut self, iter: I) {
        for access in iter {
            self.observe(access);
        }
    }
}

/// Result of an all-associativity pass: miss ratios for every way count
/// at the analyzed set count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssocProfile {
    sets: usize,
    line_size: usize,
    hist: Vec<u64>,
    cold: u64,
    refs: u64,
}

impl AssocProfile {
    /// The set count of the analysis.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Total references analyzed.
    pub fn total_refs(&self) -> u64 {
        self.refs
    }

    /// Misses an LRU cache with this set count and `ways` ways would take.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero.
    pub fn misses(&self, ways: usize) -> u64 {
        assert!(ways > 0, "a cache needs at least one way");
        let beyond: u64 = self.hist.iter().skip(ways + 1).sum();
        self.cold + beyond
    }

    /// Miss ratio at `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero.
    pub fn miss_ratio(&self, ways: usize) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            self.misses(ways) as f64 / self.refs as f64
        }
    }

    /// Cache size in bytes implied by `ways` ways at this geometry.
    pub fn cache_bytes(&self, ways: usize) -> usize {
        self.sets * ways * self.line_size
    }

    /// The associativity curve as (ways, miss ratio) pairs for ways
    /// `1, 2, 4, ... max_ways`.
    pub fn curve(&self, max_ways: usize) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        let mut w = 1;
        while w <= max_ways {
            out.push((w, self.miss_ratio(w)));
            w *= 2;
        }
        out
    }
}

/// A convenience map keyed by set count, for sweeping several geometries
/// in one pass over a materialized trace.
pub fn analyze_geometries(
    trace: &smith85_trace::Trace,
    set_counts: &[usize],
    line_size: usize,
) -> FastHashMap<usize, AssocProfile> {
    let mut analyzers: Vec<AssocAnalyzer> = set_counts
        .iter()
        .map(|&s| AssocAnalyzer::with_line_size_and_capacity(s, line_size, trace.len()))
        .collect();
    for access in trace.as_slice() {
        for a in &mut analyzers {
            a.observe(*access);
        }
    }
    set_counts
        .iter()
        .zip(analyzers)
        .map(|(&s, a)| (s, a.finish()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cache, CacheConfig, Mapping};
    use smith85_trace::Addr;

    fn stream(n: u64) -> Vec<MemoryAccess> {
        let mut v = Vec::new();
        let mut x = 99u64;
        for _ in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            v.push(MemoryAccess::read(Addr::new((x % 1500) * 16), 4));
        }
        v
    }

    #[test]
    fn agrees_with_direct_set_associative_simulation() {
        let trace = stream(4000);
        let sets = 16;
        let mut a = AssocAnalyzer::new(sets);
        for acc in &trace {
            a.observe(*acc);
        }
        let p = a.finish();
        for ways in [1usize, 2, 4, 8] {
            let size = sets * ways * 16;
            let mapping = if ways == 1 {
                Mapping::Direct
            } else {
                Mapping::SetAssociative(ways)
            };
            let cfg = CacheConfig::builder(size).mapping(mapping).build().unwrap();
            let mut cache = Cache::new(cfg).unwrap();
            for acc in &trace {
                cache.access(*acc);
            }
            assert_eq!(
                p.misses(ways),
                cache.stats().total_misses(),
                "{ways} ways"
            );
        }
    }

    #[test]
    fn more_ways_never_miss_more() {
        let trace = stream(3000);
        let mut a = AssocAnalyzer::new(64);
        a.extend(trace);
        let p = a.finish();
        let curve = p.curve(64);
        for w in curve.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-12, "{curve:?}");
        }
    }

    #[test]
    fn geometry_math() {
        let p = AssocAnalyzer::new(64).finish();
        assert_eq!(p.cache_bytes(4), 64 * 4 * 16);
        assert_eq!(p.sets(), 64);
        assert_eq!(p.miss_ratio(1), 0.0); // empty analysis
    }

    #[test]
    fn analyze_geometries_covers_all_set_counts() {
        let trace: smith85_trace::Trace = stream(1000).into();
        let map = analyze_geometries(&trace, &[16, 64], 16);
        assert_eq!(map.len(), 2);
        assert_eq!(map[&16].total_refs(), 1000);
        // Same total capacity: 16 sets × 8 ways vs 64 sets × 2 ways.
        let a = map[&16].miss_ratio(8);
        let b = map[&64].miss_ratio(2);
        // Both are 2 KiB caches; more associative is usually no worse.
        assert!(a <= b + 0.05, "16x8 {a} vs 64x2 {b}");
    }

    #[test]
    #[should_panic(expected = "bad set count")]
    fn rejects_non_power_of_two_sets() {
        let _ = AssocAnalyzer::new(12);
    }
}
