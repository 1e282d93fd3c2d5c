//! A Fenwick (binary indexed) tree over reference timestamps, used by the
//! stack-distance analyzer ([`crate::StackAnalyzer`]) to count distinct
//! lines in O(log n).

/// Fenwick tree over `1..=capacity` holding small signed counts.
///
/// Counts are `i32`: the stack analyzer keeps at most one mark per
/// distinct line, so no node ever holds more than the distinct-line
/// count, which it asserts stays below `i32::MAX`. Half-width nodes
/// halve the cache footprint of the walk.
#[derive(Debug, Clone)]
pub(crate) struct Fenwick {
    tree: Vec<i32>,
}

impl Fenwick {
    /// Creates a tree supporting positions `1..=capacity`.
    pub(crate) fn new(capacity: usize) -> Self {
        Fenwick {
            tree: vec![0; capacity + 1],
        }
    }

    /// Largest addressable position.
    pub(crate) fn capacity(&self) -> usize {
        self.tree.len() - 1
    }

    /// Adds `delta` at `pos` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `pos` is zero or exceeds the capacity.
    pub(crate) fn add(&mut self, pos: usize, delta: i32) {
        assert!(pos >= 1 && pos < self.tree.len(), "position {pos} out of range");
        let mut i = pos;
        while i < self.tree.len() {
            self.tree[i] += delta;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum over `1..=pos`.
    pub(crate) fn prefix_sum(&self, pos: usize) -> i32 {
        let mut i = pos.min(self.tree.len() - 1);
        let mut sum = 0;
        while i > 0 {
            sum += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        sum
    }

    /// Sum over the closed range `lo..=hi` (empty ranges sum to zero).
    pub(crate) fn range_sum(&self, lo: usize, hi: usize) -> i32 {
        if lo > hi {
            return 0;
        }
        self.prefix_sum(hi) - self.prefix_sum(lo.saturating_sub(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_updates_and_prefix_sums() {
        let mut f = Fenwick::new(10);
        f.add(3, 1);
        f.add(7, 2);
        assert_eq!(f.prefix_sum(2), 0);
        assert_eq!(f.prefix_sum(3), 1);
        assert_eq!(f.prefix_sum(10), 3);
        assert_eq!(f.range_sum(4, 7), 2);
        assert_eq!(f.range_sum(4, 6), 0);
        assert_eq!(f.range_sum(8, 4), 0); // empty
    }

    #[test]
    fn negative_deltas() {
        let mut f = Fenwick::new(4);
        f.add(2, 1);
        f.add(2, -1);
        assert_eq!(f.prefix_sum(4), 0);
    }

    #[test]
    fn capacity_reported() {
        assert_eq!(Fenwick::new(16).capacity(), 16);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_position_rejected() {
        Fenwick::new(4).add(0, 1);
    }

    #[test]
    fn matches_naive_reference() {
        let mut f = Fenwick::new(64);
        let mut naive = vec![0i32; 65];
        let mut state = 0x9e3779b97f4a7c15u64;
        for _ in 0..500 {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let pos = (state % 64 + 1) as usize;
            let delta = ((state >> 8) % 5) as i32 - 2;
            f.add(pos, delta);
            naive[pos] += delta;
            let q = (state >> 16) % 64 + 1;
            let expect: i32 = naive[1..=q as usize].iter().sum();
            assert_eq!(f.prefix_sum(q as usize), expect);
        }
    }
}
