//! A write-combining buffer for write-through systems.
//!
//! §3.3's aside: for write-through machines the memory write rate "is
//! usually just the frequency of stores — the exception would be an
//! implementation in which adjacent short writes are combined into a
//! longer write, as when two 2-byte writes are combined into a four byte
//! write". This model quantifies that exception: a small FIFO of
//! word-aligned entries that absorbs stores to the same unit and emits
//! one memory write per entry when it drains.

use smith85_trace::{Addr, MemoryAccess};
use std::collections::VecDeque;

/// Statistics of a write-combining buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteBufferStats {
    /// Stores presented by the processor.
    pub stores: u64,
    /// Stores absorbed by an already-buffered entry.
    pub combined: u64,
    /// Writes issued to memory (entry drains).
    pub memory_writes: u64,
}

impl WriteBufferStats {
    /// Fraction of stores that were absorbed (0 for an idle buffer).
    pub fn combining_ratio(&self) -> f64 {
        if self.stores == 0 {
            0.0
        } else {
            self.combined as f64 / self.stores as f64
        }
    }
}

/// A FIFO write-combining buffer.
///
/// ```
/// use smith85_cachesim::WriteBuffer;
/// use smith85_trace::{Addr, MemoryAccess};
///
/// let mut wb = WriteBuffer::new(4, 4);
/// // The paper's example: two adjacent 2-byte writes, one memory write.
/// wb.write(MemoryAccess::write(Addr::new(0x100), 2));
/// wb.write(MemoryAccess::write(Addr::new(0x102), 2));
/// wb.flush();
/// assert_eq!(wb.stats().memory_writes, 1);
/// assert_eq!(wb.stats().combined, 1);
/// ```
#[derive(Debug, Clone)]
pub struct WriteBuffer {
    width_bytes: u64,
    capacity: usize,
    entries: VecDeque<u64>,
    stats: WriteBufferStats,
}

impl WriteBuffer {
    /// Creates a buffer of `capacity` entries, each `width_bytes` wide.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `width_bytes` is not a positive
    /// power of two.
    pub fn new(capacity: usize, width_bytes: u64) -> Self {
        assert!(capacity > 0, "write buffer needs at least one entry");
        assert!(
            width_bytes > 0 && width_bytes.is_power_of_two(),
            "bad write-buffer width {width_bytes}"
        );
        WriteBuffer {
            width_bytes,
            capacity,
            entries: VecDeque::with_capacity(capacity),
            stats: WriteBufferStats::default(),
        }
    }

    /// Statistics so far (drained entries only; call
    /// [`flush`](Self::flush) for an end-of-run total).
    pub fn stats(&self) -> &WriteBufferStats {
        &self.stats
    }

    /// Entries currently buffered.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Presents a store. Accesses spanning multiple units occupy one
    /// entry per unit.
    pub fn write(&mut self, access: MemoryAccess) {
        debug_assert!(access.kind.is_write(), "write buffer fed a non-store");
        self.stats.stores += 1;
        let first = access.addr.get() / self.width_bytes;
        let last = (access.addr.get() + access.size.max(1) as u64 - 1) / self.width_bytes;
        for unit in first..=last {
            if self.entries.contains(&unit) {
                self.stats.combined += 1;
                continue;
            }
            if self.entries.len() == self.capacity {
                self.entries.pop_front();
                self.stats.memory_writes += 1;
            }
            self.entries.push_back(unit);
        }
    }

    /// A read to `addr` forces any matching buffered entry out to memory
    /// (simple store-ordering; no forwarding is modeled).
    pub fn read(&mut self, addr: Addr) {
        let unit = addr.get() / self.width_bytes;
        if let Some(pos) = self.entries.iter().position(|&u| u == unit) {
            self.entries.remove(pos);
            self.stats.memory_writes += 1;
        }
    }

    /// Drains every buffered entry to memory.
    pub fn flush(&mut self) {
        self.stats.memory_writes += self.entries.len() as u64;
        self.entries.clear();
    }

    /// Runs a whole access stream through the buffer (reads probe,
    /// writes buffer; instruction fetches are ignored) and flushes.
    pub fn run<I: IntoIterator<Item = MemoryAccess>>(&mut self, stream: I) {
        for access in stream {
            match access.kind {
                k if k.is_write() => self.write(access),
                smith85_trace::AccessKind::Read => self.read(access.addr),
                _ => {}
            }
        }
        self.flush();
    }

    /// Runs a contiguous trace slice through the buffer (pooled replay)
    /// and flushes.
    pub fn run_slice(&mut self, trace: &[MemoryAccess]) {
        self.run(trace.iter().copied());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(addr: u64, size: u8) -> MemoryAccess {
        MemoryAccess::write(Addr::new(addr), size)
    }

    #[test]
    fn adjacent_shorts_combine() {
        let mut wb = WriteBuffer::new(4, 8);
        wb.write(w(0x10, 2));
        wb.write(w(0x12, 2));
        wb.write(w(0x14, 4));
        wb.flush();
        assert_eq!(wb.stats().memory_writes, 1);
        assert_eq!(wb.stats().combined, 2);
        assert!((wb.stats().combining_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn distinct_units_do_not_combine() {
        let mut wb = WriteBuffer::new(4, 4);
        wb.write(w(0x00, 4));
        wb.write(w(0x10, 4));
        wb.flush();
        assert_eq!(wb.stats().memory_writes, 2);
        assert_eq!(wb.stats().combined, 0);
    }

    #[test]
    fn capacity_forces_drains_in_fifo_order() {
        let mut wb = WriteBuffer::new(2, 4);
        wb.write(w(0x00, 4));
        wb.write(w(0x04, 4));
        wb.write(w(0x08, 4)); // evicts 0x00's unit
        assert_eq!(wb.stats().memory_writes, 1);
        assert_eq!(wb.occupancy(), 2);
        // 0x00 is gone, so writing it again is not a combine.
        wb.write(w(0x00, 4));
        assert_eq!(wb.stats().combined, 0);
    }

    #[test]
    fn read_flushes_matching_entry_only() {
        let mut wb = WriteBuffer::new(4, 4);
        wb.write(w(0x00, 4));
        wb.write(w(0x10, 4));
        wb.read(Addr::new(0x02));
        assert_eq!(wb.stats().memory_writes, 1);
        assert_eq!(wb.occupancy(), 1);
        wb.read(Addr::new(0x40)); // no match, no write
        assert_eq!(wb.stats().memory_writes, 1);
    }

    #[test]
    fn straddling_store_occupies_two_units() {
        let mut wb = WriteBuffer::new(4, 4);
        wb.write(w(0x02, 4)); // crosses 0x00 and 0x04 units
        wb.flush();
        assert_eq!(wb.stats().memory_writes, 2);
    }

    #[test]
    fn run_handles_mixed_streams() {
        let stream = vec![
            MemoryAccess::ifetch(Addr::new(0x100), 4),
            w(0x00, 2),
            w(0x02, 2),
            MemoryAccess::read(Addr::new(0x00), 4),
        ];
        let mut wb = WriteBuffer::new(4, 4);
        wb.run(stream);
        // The two shorts combined into one unit; the read drained it.
        assert_eq!(wb.stats().memory_writes, 1);
        assert_eq!(wb.stats().combined, 1);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        let _ = WriteBuffer::new(0, 4);
    }
}
