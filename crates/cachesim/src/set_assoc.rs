//! Scanning set-associative core.
//!
//! Handles direct-mapped and set-associative caches for every replacement
//! policy, and fully-associative caches for the non-LRU policies (LRU gets
//! the O(1) core in [`full_lru`](crate::full_lru)). Ways are scanned
//! linearly, which is the right trade-off for the small associativities
//! these configurations use.
//!
//! Storage is flat: the `sets × ways` slots live in one array, set `s`
//! owning slots `s * ways ..` of which the first `fill[s]` hold lines in
//! fill order, and the tree-PLRU bits of every set live in one more
//! array. Building a cache is two or three allocations whatever its set
//! count, and no set allocates when it first fills.

use crate::config::Replacement;
use crate::core_ops::CoreOps;
use crate::line::Evicted;
use smith85_trace::LineAddr;

#[derive(Debug, Clone, Copy)]
struct Way {
    line: LineAddr,
    dirty: bool,
    /// Recency stamp for LRU, insertion stamp for FIFO; unused for Random.
    stamp: u64,
}

const EMPTY: Way = Way {
    line: LineAddr::new(0),
    dirty: false,
    stamp: 0,
};

/// Points every node on the path to `way` away from it. `bits` is one
/// set's tree (`capacity - 1` internal nodes in heap order); bit = 1
/// means "the PLRU side is the right child".
fn plru_touch(bits: &mut [bool], capacity: usize, way: usize) {
    let mut node = 1usize;
    let mut lo = 0usize;
    let mut hi = capacity;
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        let went_right = way >= mid;
        // Point the node at the *other* half.
        bits[node - 1] = !went_right;
        if went_right {
            lo = mid;
        } else {
            hi = mid;
        }
        node = 2 * node + usize::from(went_right);
    }
}

/// Follows one set's PLRU bits from the root to the victim way.
fn plru_victim(bits: &[bool], capacity: usize) -> usize {
    let mut node = 1usize;
    let mut lo = 0usize;
    let mut hi = capacity;
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        let go_right = bits[node - 1];
        if go_right {
            lo = mid;
        } else {
            hi = mid;
        }
        node = 2 * node + usize::from(go_right);
    }
    lo
}

/// Set-associative storage.
#[derive(Debug, Clone)]
pub(crate) struct SetAssocCore {
    /// `sets × ways` slots, set-major.
    slots: Vec<Way>,
    /// Lines held by each set: its first `fill[s]` slots.
    fill: Vec<u32>,
    /// `sets × (ways - 1)` tree-PLRU bits, set-major (empty for the
    /// other policies).
    plru: Vec<bool>,
    ways: usize,
    set_mask: u64,
    replacement: Replacement,
    clock: u64,
    rng_state: u64,
    len: usize,
}

impl SetAssocCore {
    pub(crate) fn new(sets: usize, ways: usize, replacement: Replacement) -> Self {
        assert!(sets.is_power_of_two() && sets > 0);
        assert!(
            ways > 0 && u32::try_from(ways).is_ok(),
            "bad way count {ways}"
        );
        assert!(
            !matches!(replacement, Replacement::TreePlru) || ways.is_power_of_two(),
            "tree PLRU needs a power-of-two way count, got {ways}"
        );
        let rng_state = match replacement {
            Replacement::Random { seed } => seed | 1,
            _ => 1,
        };
        let plru_bits = match replacement {
            Replacement::TreePlru => sets * (ways - 1),
            _ => 0,
        };
        SetAssocCore {
            slots: vec![EMPTY; sets * ways],
            fill: vec![0; sets],
            plru: vec![false; plru_bits],
            ways,
            set_mask: sets as u64 - 1,
            replacement,
            clock: 0,
            rng_state,
            len: 0,
        }
    }

    fn set_index(&self, line: LineAddr) -> usize {
        (line.get() & self.set_mask) as usize
    }

    /// The filled slots of set `idx`.
    fn resident(&self, idx: usize) -> &[Way] {
        let base = idx * self.ways;
        &self.slots[base..base + self.fill[idx] as usize]
    }

    /// Set `idx`'s PLRU tree.
    fn plru_bits(&mut self, idx: usize) -> &mut [bool] {
        let nodes = self.ways - 1;
        &mut self.plru[idx * nodes..(idx + 1) * nodes]
    }

    fn next_random(&mut self) -> u64 {
        // xorshift64*: deterministic, cheap, good enough for victim choice.
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// The way to evict from the full set `set_idx`.
    fn victim_index(&mut self, set_idx: usize) -> usize {
        match self.replacement {
            Replacement::TreePlru => {
                let ways = self.ways;
                plru_victim(self.plru_bits(set_idx), ways)
            }
            // LRU and FIFO both evict the minimal stamp; they differ in
            // whether `touch` refreshes the stamp.
            Replacement::Lru | Replacement::Fifo => {
                let set = self.resident(set_idx);
                let mut min = 0;
                for (i, way) in set.iter().enumerate() {
                    if way.stamp < set[min].stamp {
                        min = i;
                    }
                }
                min
            }
            Replacement::Random { .. } => (self.next_random() % self.ways as u64) as usize,
        }
    }
}

impl CoreOps for SetAssocCore {
    fn touch(&mut self, line: LineAddr) -> Option<&mut bool> {
        self.clock += 1;
        let idx = self.set_index(line);
        let hit = self.resident(idx).iter().position(|w| w.line == line)?;
        let slot = idx * self.ways + hit;
        match self.replacement {
            Replacement::Lru => self.slots[slot].stamp = self.clock,
            Replacement::TreePlru => {
                let ways = self.ways;
                plru_touch(self.plru_bits(idx), ways, hit);
            }
            Replacement::Fifo | Replacement::Random { .. } => {}
        }
        Some(&mut self.slots[slot].dirty)
    }

    fn contains(&self, line: LineAddr) -> bool {
        self.resident(self.set_index(line))
            .iter()
            .any(|w| w.line == line)
    }

    fn insert(&mut self, line: LineAddr, dirty: bool) -> Option<Evicted> {
        debug_assert!(!self.contains(line), "insert of resident line {line}");
        self.clock += 1;
        let stamp = self.clock;
        let set_idx = self.set_index(line);
        let filled = self.fill[set_idx] as usize;
        let (way, evicted) = if filled < self.ways {
            self.fill[set_idx] += 1;
            self.len += 1;
            (filled, None)
        } else {
            let victim = self.victim_index(set_idx);
            let old = self.slots[set_idx * self.ways + victim];
            let evicted = Evicted {
                line: old.line,
                dirty: old.dirty,
            };
            (victim, Some(evicted))
        };
        self.slots[set_idx * self.ways + way] = Way { line, dirty, stamp };
        if matches!(self.replacement, Replacement::TreePlru) {
            let ways = self.ways;
            plru_touch(self.plru_bits(set_idx), ways, way);
        }
        evicted
    }

    fn purge(&mut self, mut on_push: impl FnMut(Evicted)) {
        for set_idx in 0..self.fill.len() {
            for way in self.resident(set_idx) {
                on_push(Evicted {
                    line: way.line,
                    dirty: way.dirty,
                });
            }
        }
        self.fill.fill(0);
        self.plru.fill(false);
        self.len = 0;
    }

    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn direct_mapped_conflicts() {
        // 4 sets, 1 way: lines 0 and 4 collide.
        let mut c = SetAssocCore::new(4, 1, Replacement::Lru);
        assert!(c.insert(l(0), false).is_none());
        let ev = c.insert(l(4), false).unwrap();
        assert_eq!(ev.line, l(0));
        assert!(c.contains(l(4)));
        assert!(!c.contains(l(0)));
    }

    #[test]
    fn lru_vs_fifo_touch_behaviour() {
        // 1 set, 2 ways. Insert 1, 2; touch 1; insert 3.
        let mut lru = SetAssocCore::new(1, 2, Replacement::Lru);
        let mut fifo = SetAssocCore::new(1, 2, Replacement::Fifo);
        for c in [&mut lru, &mut fifo] {
            c.insert(l(1), false);
            c.insert(l(2), false);
            assert!(c.touch(l(1)).is_some());
        }
        // LRU: 2 is least recent. FIFO: 1 is oldest despite the touch.
        assert_eq!(lru.insert(l(3), false).unwrap().line, l(2));
        assert_eq!(fifo.insert(l(3), false).unwrap().line, l(1));
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let run = |seed| {
            let mut c = SetAssocCore::new(1, 4, Replacement::Random { seed });
            let mut evictions = Vec::new();
            for i in 0..64 {
                if c.touch(l(i % 9)).is_none() {
                    if let Some(ev) = c.insert(l(i % 9), false) {
                        evictions.push(ev.line.get());
                    }
                }
            }
            evictions
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should differ");
    }

    #[test]
    fn sets_partition_lines() {
        let mut c = SetAssocCore::new(2, 2, Replacement::Lru);
        // Even lines go to set 0, odd to set 1.
        c.insert(l(0), false);
        c.insert(l(2), false);
        c.insert(l(1), false);
        c.insert(l(3), false);
        assert_eq!(c.len(), 4);
        // A third even line only evicts from set 0.
        let ev = c.insert(l(4), false).unwrap();
        assert_eq!(ev.line.get() % 2, 0);
        assert!(c.contains(l(1)) && c.contains(l(3)));
    }

    #[test]
    fn purge_empties_all_sets() {
        let mut c = SetAssocCore::new(2, 2, Replacement::Fifo);
        for i in 0..4 {
            c.insert(l(i), true);
        }
        let mut n = 0;
        c.purge(|e| {
            assert!(e.dirty);
            n += 1;
        });
        assert_eq!(n, 4);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn plru_two_way_equals_true_lru() {
        // With two ways, tree PLRU and true LRU are identical.
        let mut plru = SetAssocCore::new(2, 2, Replacement::TreePlru);
        let mut lru = SetAssocCore::new(2, 2, Replacement::Lru);
        let mut state = 12345u64;
        for _ in 0..2000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let line = l((state >> 33) % 12);
            for c in [&mut plru, &mut lru] {
                if c.touch(line).is_none() {
                    c.insert(line, false);
                }
            }
        }
        for i in 0..12 {
            assert_eq!(plru.contains(l(i)), lru.contains(l(i)), "line {i}");
        }
    }

    #[test]
    fn plru_never_evicts_most_recent() {
        let mut c = SetAssocCore::new(1, 4, Replacement::TreePlru);
        for i in 0..4 {
            c.insert(l(i), false);
        }
        for i in 0..64u64 {
            let hot = l(i % 4);
            c.touch(hot);
            let ev = c.insert(l(100 + i), false).unwrap();
            assert_ne!(ev.line, hot, "PLRU evicted the just-touched line");
            // Re-install the hot line for the next round.
            if c.touch(hot).is_none() {
                c.insert(hot, false);
            }
        }
    }

    #[test]
    fn dirty_flag_mutable_through_touch() {
        let mut c = SetAssocCore::new(1, 1, Replacement::Lru);
        c.insert(l(5), false);
        *c.touch(l(5)).unwrap() = true;
        let ev = c.insert(l(6), false).unwrap();
        assert!(ev.dirty);
    }
}
