//! An in-memory trace buffer.

use crate::stats::{TraceCharacteristics, TraceCharacterizer};
use crate::MemoryAccess;

/// An in-memory program address trace: a growable sequence of
/// [`MemoryAccess`]es.
///
/// Most of the workspace streams accesses lazily (the synthetic generators
/// are iterators); `Trace` is the materialized form, useful for tests, for
/// file round-trips and for re-running one workload through many cache
/// configurations without regenerating it.
///
/// ```
/// use smith85_trace::{Addr, MemoryAccess, Trace};
///
/// let trace: Trace = (0..8)
///     .map(|i| MemoryAccess::ifetch(Addr::new(i * 4), 4))
///     .collect();
/// assert_eq!(trace.len(), 8);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    accesses: Vec<MemoryAccess>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Creates an empty trace with room for `capacity` accesses.
    pub fn with_capacity(capacity: usize) -> Self {
        Trace {
            accesses: Vec::with_capacity(capacity),
        }
    }

    /// Appends one access.
    pub fn push(&mut self, access: MemoryAccess) {
        self.accesses.push(access);
    }

    /// Number of accesses in the trace.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// The accesses as a slice.
    pub fn as_slice(&self) -> &[MemoryAccess] {
        &self.accesses
    }

    /// Iterates over the accesses.
    pub fn iter(&self) -> std::slice::Iter<'_, MemoryAccess> {
        self.accesses.iter()
    }

    /// Consumes the trace and returns the underlying vector.
    pub fn into_inner(self) -> Vec<MemoryAccess> {
        self.accesses
    }

    /// Truncates the trace to at most `len` accesses, mirroring the paper's
    /// practice of simulating a fixed-length prefix of each trace.
    pub fn truncate(&mut self, len: usize) {
        self.accesses.truncate(len);
    }

    /// Computes the paper's Table 2 characteristics for this trace.
    pub fn characteristics(&self) -> TraceCharacteristics {
        let mut c = TraceCharacterizer::new();
        for access in &self.accesses {
            c.observe(*access);
        }
        c.finish()
    }
}

impl FromIterator<MemoryAccess> for Trace {
    fn from_iter<I: IntoIterator<Item = MemoryAccess>>(iter: I) -> Self {
        Trace {
            accesses: iter.into_iter().collect(),
        }
    }
}

impl Extend<MemoryAccess> for Trace {
    fn extend<I: IntoIterator<Item = MemoryAccess>>(&mut self, iter: I) {
        self.accesses.extend(iter);
    }
}

impl IntoIterator for Trace {
    type Item = MemoryAccess;
    type IntoIter = std::vec::IntoIter<MemoryAccess>;

    fn into_iter(self) -> Self::IntoIter {
        self.accesses.into_iter()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a MemoryAccess;
    type IntoIter = std::slice::Iter<'a, MemoryAccess>;

    fn into_iter(self) -> Self::IntoIter {
        self.accesses.iter()
    }
}

impl From<Vec<MemoryAccess>> for Trace {
    fn from(accesses: Vec<MemoryAccess>) -> Self {
        Trace { accesses }
    }
}

impl AsRef<[MemoryAccess]> for Trace {
    fn as_ref(&self) -> &[MemoryAccess] {
        &self.accesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Addr;

    fn sample() -> Trace {
        vec![
            MemoryAccess::ifetch(Addr::new(0x0), 4),
            MemoryAccess::ifetch(Addr::new(0x4), 4),
            MemoryAccess::read(Addr::new(0x100), 4),
            MemoryAccess::write(Addr::new(0x104), 4),
        ]
        .into()
    }

    #[test]
    fn collect_and_len() {
        let t = sample();
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        assert_eq!(t.as_slice().len(), 4);
    }

    #[test]
    fn truncate_keeps_prefix() {
        let mut t = sample();
        t.truncate(2);
        assert_eq!(t.len(), 2);
        assert!(t.iter().all(|a| a.kind.is_ifetch()));
        t.truncate(100); // longer than the trace: no-op
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn extend_appends() {
        let mut t = Trace::new();
        t.extend(sample());
        t.extend(sample());
        assert_eq!(t.len(), 8);
    }

    #[test]
    fn characteristics_counts_kinds() {
        let stats = sample().characteristics();
        assert_eq!(stats.total_refs(), 4);
        assert_eq!(stats.ifetches(), 2);
        assert_eq!(stats.reads(), 1);
        assert_eq!(stats.writes(), 1);
    }
}
