//! The trace characterizer: computes every column of the paper's Table 2.
//!
//! For each trace the paper tabulates the fraction of instruction fetches,
//! data reads and data writes, the fraction of instruction fetches that are
//! successful branches (detected by an address heuristic, since the traces
//! do not mark branches), the number of distinct 16-byte instruction and
//! data lines touched, and the derived address-space size.

use crate::{AccessKind, MemoryAccess, PAPER_LINE_SIZE};
use std::collections::HashSet;
use std::fmt;

/// The branch-detection window from §3.2: a successive instruction fetch
/// more than 8 bytes forward, or any distance backward, marks the previous
/// fetch as a successful branch.
pub const BRANCH_FORWARD_WINDOW: i64 = 8;

/// Streaming computation of [`TraceCharacteristics`].
///
/// Feed accesses with [`observe`](TraceCharacterizer::observe) and call
/// [`finish`](TraceCharacterizer::finish) (or take a
/// [`snapshot`](TraceCharacterizer::snapshot) mid-stream).
///
/// ```
/// use smith85_trace::stats::TraceCharacterizer;
/// use smith85_trace::{Addr, MemoryAccess};
///
/// let mut c = TraceCharacterizer::new();
/// c.observe(MemoryAccess::ifetch(Addr::new(0x00), 4));
/// c.observe(MemoryAccess::ifetch(Addr::new(0x04), 4)); // sequential
/// c.observe(MemoryAccess::ifetch(Addr::new(0x40), 4)); // jumped: 0x04 was a branch
/// let stats = c.finish();
/// assert_eq!(stats.branches(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct TraceCharacterizer {
    line_size: usize,
    counts: [u64; 3],
    branches: u64,
    last_ifetch: Option<u64>,
    last_addr: Option<u64>,
    last_delta: i64,
    sequential: u64,
    repeats: u64,
    ilines: HashSet<u64>,
    dlines: HashSet<u64>,
}

impl TraceCharacterizer {
    /// Creates a characterizer using the paper's 16-byte line size.
    pub fn new() -> Self {
        Self::with_line_size(PAPER_LINE_SIZE)
    }

    /// Creates a characterizer counting distinct lines of the given size.
    ///
    /// # Panics
    ///
    /// Panics if `line_size` is not a power of two.
    pub fn with_line_size(line_size: usize) -> Self {
        assert!(
            line_size.is_power_of_two() && line_size > 0,
            "line size must be a positive power of two, got {line_size}"
        );
        TraceCharacterizer {
            line_size,
            counts: [0; 3],
            branches: 0,
            last_ifetch: None,
            last_addr: None,
            last_delta: 0,
            sequential: 0,
            repeats: 0,
            ilines: HashSet::new(),
            dlines: HashSet::new(),
        }
    }

    /// Records one access.
    pub fn observe(&mut self, access: MemoryAccess) {
        self.counts[access.kind.index()] += 1;
        // Stride bookkeeping for the sequentiality/repeat statistics the
        // non-CPU families are characterized by: an access is
        // *sequential* when it continues the previous positive stride
        // (an instruction run, a storage scan at block stride), and a
        // *repeat* when it re-references the previous address exactly
        // (a network packet train).
        if let Some(prev) = self.last_addr {
            let delta = access.addr.get().wrapping_sub(prev) as i64;
            if delta == 0 {
                self.repeats += 1;
            } else if delta > 0 && delta == self.last_delta {
                self.sequential += 1;
            }
            self.last_delta = delta;
        }
        self.last_addr = Some(access.addr.get());
        let line = access.line(self.line_size).get();
        match access.kind {
            AccessKind::InstructionFetch => {
                self.ilines.insert(line);
                if let Some(prev) = self.last_ifetch {
                    let delta = access.addr.get().wrapping_sub(prev) as i64;
                    if !(0..=BRANCH_FORWARD_WINDOW).contains(&delta) {
                        self.branches += 1;
                    }
                }
                self.last_ifetch = Some(access.addr.get());
            }
            AccessKind::Read | AccessKind::Write => {
                self.dlines.insert(line);
            }
        }
    }

    /// The characteristics accumulated so far, without consuming the
    /// characterizer.
    pub fn snapshot(&self) -> TraceCharacteristics {
        TraceCharacteristics {
            line_size: self.line_size,
            counts: self.counts,
            branches: self.branches,
            sequential: self.sequential,
            repeats: self.repeats,
            ilines: self.ilines.len() as u64,
            dlines: self.dlines.len() as u64,
        }
    }

    /// Finishes and returns the characteristics.
    pub fn finish(self) -> TraceCharacteristics {
        self.snapshot()
    }
}

impl Default for TraceCharacterizer {
    fn default() -> Self {
        Self::new()
    }
}

impl Extend<MemoryAccess> for TraceCharacterizer {
    fn extend<I: IntoIterator<Item = MemoryAccess>>(&mut self, iter: I) {
        for access in iter {
            self.observe(access);
        }
    }
}

/// One row of the paper's Table 2: aggregate characteristics of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCharacteristics {
    line_size: usize,
    counts: [u64; 3],
    branches: u64,
    sequential: u64,
    repeats: u64,
    ilines: u64,
    dlines: u64,
}

impl TraceCharacteristics {
    /// Total number of memory references.
    pub fn total_refs(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Number of instruction fetches.
    pub fn ifetches(&self) -> u64 {
        self.counts[AccessKind::InstructionFetch.index()]
    }

    /// Number of data reads.
    pub fn reads(&self) -> u64 {
        self.counts[AccessKind::Read.index()]
    }

    /// Number of data writes.
    pub fn writes(&self) -> u64 {
        self.counts[AccessKind::Write.index()]
    }

    /// Number of references of the given kind.
    pub fn count(&self, kind: AccessKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Number of instruction fetches flagged as successful branches by the
    /// §3.2 address heuristic.
    pub fn branches(&self) -> u64 {
        self.branches
    }

    /// Fraction of all references that are instruction fetches.
    pub fn ifetch_fraction(&self) -> f64 {
        self.fraction(self.ifetches())
    }

    /// Fraction of all references that are data reads.
    pub fn read_fraction(&self) -> f64 {
        self.fraction(self.reads())
    }

    /// Fraction of all references that are data writes.
    pub fn write_fraction(&self) -> f64 {
        self.fraction(self.writes())
    }

    /// Fraction of instruction fetches that are successful branches
    /// (the "%Branch" column).
    pub fn branch_fraction(&self) -> f64 {
        if self.ifetches() == 0 {
            0.0
        } else {
            self.branches as f64 / self.ifetches() as f64
        }
    }

    /// Fraction of references that continue a constant positive address
    /// stride — instruction runs, storage scans. The first two
    /// references of a stride never count, so a run of length `n`
    /// contributes `n - 2`.
    pub fn sequential_fraction(&self) -> f64 {
        self.fraction(self.sequential)
    }

    /// Fraction of references that re-reference the immediately
    /// preceding address — packet trains, tight data loops.
    pub fn repeat_fraction(&self) -> f64 {
        self.fraction(self.repeats)
    }

    /// Number of distinct instruction lines touched ("#Ilines").
    pub fn instruction_lines(&self) -> u64 {
        self.ilines
    }

    /// Number of distinct data lines touched ("#Dlines").
    pub fn data_lines(&self) -> u64 {
        self.dlines
    }

    /// The line size the distinct-line counts were taken at.
    pub fn line_size(&self) -> usize {
        self.line_size
    }

    /// Total bytes in the lines referenced ("Aspace"):
    /// `line_size * (#Ilines + #Dlines)`.
    pub fn address_space_bytes(&self) -> u64 {
        self.line_size as u64 * (self.ilines + self.dlines)
    }

    fn fraction(&self, n: u64) -> f64 {
        let total = self.total_refs();
        if total == 0 {
            0.0
        } else {
            n as f64 / total as f64
        }
    }
}

impl fmt::Display for TraceCharacteristics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} refs ({:.1}% ifetch, {:.1}% read, {:.1}% write), \
             {:.1}% branch, {} I-lines, {} D-lines, {} byte footprint",
            self.total_refs(),
            100.0 * self.ifetch_fraction(),
            100.0 * self.read_fraction(),
            100.0 * self.write_fraction(),
            100.0 * self.branch_fraction(),
            self.ilines,
            self.dlines,
            self.address_space_bytes(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Addr;

    fn ifetch(addr: u64) -> MemoryAccess {
        MemoryAccess::ifetch(Addr::new(addr), 4)
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut c = TraceCharacterizer::new();
        for i in 0..10 {
            c.observe(ifetch(i * 4));
            c.observe(MemoryAccess::read(Addr::new(0x1000 + i * 8), 4));
        }
        c.observe(MemoryAccess::write(Addr::new(0x2000), 4));
        let s = c.finish();
        let sum = s.ifetch_fraction() + s.read_fraction() + s.write_fraction();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn branch_heuristic_forward_window() {
        let mut c = TraceCharacterizer::new();
        c.observe(ifetch(0x100));
        c.observe(ifetch(0x104)); // +4: sequential
        c.observe(ifetch(0x10c)); // +8: still within the window
        c.observe(ifetch(0x115)); // +9: branch
        c.observe(ifetch(0x0f0)); // backward: branch
        let s = c.finish();
        assert_eq!(s.branches(), 2);
        assert!((s.branch_fraction() - 2.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn branch_heuristic_ignores_interleaved_data() {
        let mut c = TraceCharacterizer::new();
        c.observe(ifetch(0x100));
        c.observe(MemoryAccess::read(Addr::new(0x9000), 4));
        c.observe(ifetch(0x104)); // sequential despite the data ref between
        let s = c.finish();
        assert_eq!(s.branches(), 0);
    }

    #[test]
    fn distinct_lines_and_aspace() {
        let mut c = TraceCharacterizer::new();
        c.observe(ifetch(0x00)); // line 0
        c.observe(ifetch(0x04)); // line 0
        c.observe(ifetch(0x10)); // line 1
        c.observe(MemoryAccess::write(Addr::new(0x100), 4)); // dline
        c.observe(MemoryAccess::read(Addr::new(0x104), 4)); // same dline
        let s = c.finish();
        assert_eq!(s.instruction_lines(), 2);
        assert_eq!(s.data_lines(), 1);
        assert_eq!(s.address_space_bytes(), 16 * 3);
    }

    #[test]
    fn empty_trace_has_zero_fractions() {
        let s = TraceCharacterizer::new().finish();
        assert_eq!(s.total_refs(), 0);
        assert_eq!(s.ifetch_fraction(), 0.0);
        assert_eq!(s.branch_fraction(), 0.0);
        assert_eq!(s.address_space_bytes(), 0);
    }

    #[test]
    fn snapshot_matches_finish() {
        let mut c = TraceCharacterizer::new();
        c.observe(ifetch(0));
        c.observe(ifetch(0x40));
        let snap = c.snapshot();
        assert_eq!(snap, c.finish());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_line_size() {
        let _ = TraceCharacterizer::with_line_size(24);
    }

    #[test]
    fn sequential_and_repeat_fractions() {
        let mut c = TraceCharacterizer::new();
        // A 5-access stride-0x10 scan: accesses 3..5 continue the stride.
        for i in 0..5 {
            c.observe(MemoryAccess::read(Addr::new(0x1000 + i * 0x10), 4));
        }
        // Three repeats of one address (a packet train).
        for _ in 0..3 {
            c.observe(MemoryAccess::read(Addr::new(0x9000), 4));
        }
        let s = c.finish();
        assert_eq!(s.total_refs(), 8);
        assert!((s.sequential_fraction() - 3.0 / 8.0).abs() < 1e-12);
        // The first train access breaks the stride; the next two repeat.
        assert!((s.repeat_fraction() - 2.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn backward_strides_are_not_sequential() {
        let mut c = TraceCharacterizer::new();
        for i in (0..5).rev() {
            c.observe(MemoryAccess::read(Addr::new(0x1000 + i * 0x10), 4));
        }
        let s = c.finish();
        assert_eq!(s.sequential_fraction(), 0.0);
        assert_eq!(s.repeat_fraction(), 0.0);
    }

    #[test]
    fn extend_observes_all() {
        let mut c = TraceCharacterizer::new();
        c.extend((0..5).map(|i| ifetch(i * 4)));
        assert_eq!(c.snapshot().total_refs(), 5);
    }
}
