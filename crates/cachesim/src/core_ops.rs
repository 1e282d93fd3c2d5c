//! The internal storage interface shared by the cache cores.

use crate::line::Evicted;
use smith85_trace::LineAddr;

/// Storage operations a cache core must provide.
///
/// This trait is crate-internal plumbing: the public [`Cache`](crate::Cache)
/// holds one of two cores chosen from the configuration (an O(1)
/// linked-list/hash core for fully-associative LRU, a scanning
/// set-associative core otherwise). It matches on which one once per
/// call of [`access`](crate::Cache::access) or [`run`](crate::Cache::run)
/// and drives a loop generic over this trait, so every method below is
/// a static call the compiler can inline into the reference loop; no
/// trait object is ever made.
pub(crate) trait CoreOps {
    /// Looks up `line`. On a hit, updates recency (for recency-based
    /// policies) and returns a mutable reference to the dirty flag.
    fn touch(&mut self, line: LineAddr) -> Option<&mut bool>;

    /// Whether `line` is resident, *without* updating recency. Used by the
    /// prefetcher's "is line i+1 in the cache?" check.
    fn contains(&self, line: LineAddr) -> bool;

    /// Inserts `line` (assumed absent), evicting a victim if the target
    /// set is full. Returns the victim, if any.
    fn insert(&mut self, line: LineAddr, dirty: bool) -> Option<Evicted>;

    /// Removes every line, invoking `on_push` for each (a task-switch
    /// purge; the paper counts these as pushes too).
    fn purge(&mut self, on_push: impl FnMut(Evicted));

    /// Number of lines currently resident.
    fn len(&self) -> usize;
}
