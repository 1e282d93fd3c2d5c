//! O(1) fully-associative LRU core.
//!
//! The paper's primary configuration (Table 1) is a fully associative LRU
//! cache; at 64 KiB with 16-byte lines that is 4096 ways, far too many for
//! a scanning implementation. This core keeps a hash map from line address
//! to slot plus an intrusive doubly-linked recency list over a slab, giving
//! O(1) touch, insert and evict.

use crate::core_ops::CoreOps;
use crate::fast_hash::FastHashMap;
use crate::line::Evicted;
use smith85_trace::LineAddr;

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node {
    line: LineAddr,
    dirty: bool,
    prev: u32,
    next: u32,
}

/// Fully-associative LRU storage for `capacity` lines.
#[derive(Debug, Clone)]
pub(crate) struct FullLruCore {
    capacity: usize,
    map: FastHashMap<u64, u32>,
    slab: Vec<Node>,
    free: Vec<u32>,
    /// Most recently used node.
    head: u32,
    /// Least recently used node.
    tail: u32,
}

impl FullLruCore {
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache must hold at least one line");
        FullLruCore {
            capacity,
            map: FastHashMap::with_capacity_and_hasher(capacity * 2, Default::default()),
            slab: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let n = &self.slab[idx as usize];
            (n.prev, n.next)
        };
        if prev != NIL {
            self.slab[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: u32) {
        let old_head = self.head;
        {
            let n = &mut self.slab[idx as usize];
            n.prev = NIL;
            n.next = old_head;
        }
        if old_head != NIL {
            self.slab[old_head as usize].prev = idx;
        } else {
            self.tail = idx;
        }
        self.head = idx;
    }

    fn alloc(&mut self, line: LineAddr, dirty: bool) -> u32 {
        if let Some(idx) = self.free.pop() {
            let n = &mut self.slab[idx as usize];
            n.line = line;
            n.dirty = dirty;
            n.prev = NIL;
            n.next = NIL;
            idx
        } else {
            let idx = self.slab.len() as u32;
            self.slab.push(Node {
                line,
                dirty,
                prev: NIL,
                next: NIL,
            });
            idx
        }
    }

    /// Evicts the least recently used line.
    fn evict_lru(&mut self) -> Evicted {
        let idx = self.tail;
        debug_assert_ne!(idx, NIL, "evict from empty cache");
        self.unlink(idx);
        let node = &self.slab[idx as usize];
        let evicted = Evicted {
            line: node.line,
            dirty: node.dirty,
        };
        self.map.remove(&node.line.get());
        self.free.push(idx);
        evicted
    }

    /// The resident lines from most to least recently used (test helper).
    #[cfg(test)]
    fn recency_order(&self) -> Vec<u64> {
        let mut out = Vec::new();
        let mut idx = self.head;
        while idx != NIL {
            let n = &self.slab[idx as usize];
            out.push(n.line.get());
            idx = n.next;
        }
        out
    }
}

impl CoreOps for FullLruCore {
    fn touch(&mut self, line: LineAddr) -> Option<&mut bool> {
        let idx = *self.map.get(&line.get())?;
        self.unlink(idx);
        self.push_front(idx);
        Some(&mut self.slab[idx as usize].dirty)
    }

    fn contains(&self, line: LineAddr) -> bool {
        self.map.contains_key(&line.get())
    }

    fn insert(&mut self, line: LineAddr, dirty: bool) -> Option<Evicted> {
        debug_assert!(!self.contains(line), "insert of resident line {line}");
        let evicted = if self.map.len() >= self.capacity {
            Some(self.evict_lru())
        } else {
            None
        };
        let idx = self.alloc(line, dirty);
        self.map.insert(line.get(), idx);
        self.push_front(idx);
        evicted
    }

    fn purge(&mut self, mut on_push: impl FnMut(Evicted)) {
        // Push in LRU-to-MRU order; the order is unobservable to stats but
        // deterministic for tests.
        while self.tail != NIL {
            let evicted = self.evict_lru();
            on_push(evicted);
        }
        debug_assert!(self.map.is_empty());
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn fills_then_evicts_lru() {
        let mut c = FullLruCore::new(2);
        assert!(c.insert(l(1), false).is_none());
        assert!(c.insert(l(2), false).is_none());
        let ev = c.insert(l(3), false).unwrap();
        assert_eq!(ev.line, l(1));
        assert_eq!(c.len(), 2);
        assert!(!c.contains(l(1)));
        assert!(c.contains(l(2)) && c.contains(l(3)));
    }

    #[test]
    fn touch_promotes() {
        let mut c = FullLruCore::new(2);
        c.insert(l(1), false);
        c.insert(l(2), false);
        assert!(c.touch(l(1)).is_some()); // 1 becomes MRU
        let ev = c.insert(l(3), false).unwrap();
        assert_eq!(ev.line, l(2));
    }

    #[test]
    fn contains_does_not_promote() {
        let mut c = FullLruCore::new(2);
        c.insert(l(1), false);
        c.insert(l(2), false);
        assert!(c.contains(l(1)));
        let ev = c.insert(l(3), false).unwrap();
        assert_eq!(ev.line, l(1)); // still LRU despite the contains check
    }

    #[test]
    fn dirty_flag_roundtrips_through_eviction() {
        let mut c = FullLruCore::new(1);
        c.insert(l(1), false);
        *c.touch(l(1)).unwrap() = true;
        let ev = c.insert(l(2), false).unwrap();
        assert!(ev.dirty);
        let ev = c.insert(l(3), true).unwrap();
        assert!(!ev.dirty); // line 2 was inserted clean and never written
    }

    #[test]
    fn purge_reports_every_line_once() {
        let mut c = FullLruCore::new(4);
        for i in 0..4 {
            c.insert(l(i), i % 2 == 0);
        }
        let mut pushed = Vec::new();
        c.purge(|e| pushed.push(e));
        assert_eq!(pushed.len(), 4);
        assert_eq!(c.len(), 0);
        assert_eq!(pushed.iter().filter(|e| e.dirty).count(), 2);
        // Reusable after purge.
        assert!(c.insert(l(9), false).is_none());
        assert!(c.contains(l(9)));
    }

    #[test]
    fn recency_order_is_mru_first() {
        let mut c = FullLruCore::new(3);
        c.insert(l(1), false);
        c.insert(l(2), false);
        c.insert(l(3), false);
        c.touch(l(2));
        assert_eq!(c.recency_order(), vec![2, 3, 1]);
    }

    #[test]
    fn slab_slots_are_reused() {
        let mut c = FullLruCore::new(2);
        for i in 0..100 {
            c.insert(l(i), false);
        }
        assert!(c.slab.len() <= 3, "slab grew to {}", c.slab.len());
    }

    #[test]
    fn lru_inclusion_property() {
        // A larger LRU cache always contains the contents of a smaller one
        // given the same reference stream.
        let mut small = FullLruCore::new(4);
        let mut big = FullLruCore::new(8);
        let stream: Vec<u64> = vec![1, 2, 3, 4, 5, 1, 2, 9, 9, 3, 7, 8, 2, 1, 6, 5, 4];
        for &x in &stream {
            for c in [&mut small, &mut big] {
                if c.touch(l(x)).is_none() {
                    c.insert(l(x), false);
                }
            }
        }
        for i in 0..16 {
            if small.contains(l(i)) {
                assert!(big.contains(l(i)), "inclusion violated for line {i}");
            }
        }
    }
}
