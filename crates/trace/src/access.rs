//! The memory-reference model: addresses, line addresses, and accesses.

use std::fmt;

/// A virtual byte address, as recorded in a program address trace.
///
/// `Addr` is a transparent newtype over `u64`; it exists so that byte
/// addresses and [line addresses](LineAddr) cannot be confused.
///
/// ```
/// use smith85_trace::Addr;
///
/// let a = Addr::new(0x1234);
/// assert_eq!(a.get(), 0x1234);
/// assert_eq!(a.line(16).get(), 0x123);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address from a raw byte address.
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Returns the raw byte address.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Returns the address of the cache line containing this byte, for the
    /// given line size.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `line_size` is not a power of two.
    pub fn line(self, line_size: usize) -> LineAddr {
        debug_assert!(
            line_size.is_power_of_two(),
            "line size {line_size} is not a power of two"
        );
        LineAddr(self.0 >> line_size.trailing_zeros())
    }

    /// Returns the byte offset of this address within its line.
    pub fn offset(self, line_size: usize) -> u64 {
        debug_assert!(line_size.is_power_of_two());
        self.0 & (line_size as u64 - 1)
    }

    /// Returns the address advanced by `bytes`.
    #[must_use]
    pub const fn wrapping_add(self, bytes: u64) -> Self {
        Addr(self.0.wrapping_add(bytes))
    }

    /// Signed distance in bytes from `other` to `self`.
    pub const fn distance_from(self, other: Addr) -> i64 {
        self.0.wrapping_sub(other.0) as i64
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

impl From<Addr> for u64 {
    fn from(addr: Addr) -> Self {
        addr.0
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

/// The address of a cache line: a byte address divided by the line size.
///
/// A `LineAddr` is only meaningful relative to the line size it was produced
/// with; the cache simulator guarantees it never mixes line addresses from
/// different line sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address from a raw line number.
    pub const fn new(raw: u64) -> Self {
        LineAddr(raw)
    }

    /// Returns the raw line number.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Returns the line address that follows this one (line `i + 1`, the
    /// line the paper's "prefetch always" policy looks ahead to).
    #[must_use]
    pub const fn next(self) -> Self {
        LineAddr(self.0.wrapping_add(1))
    }

    /// Returns the first byte address of this line for the given line size.
    pub fn to_addr(self, line_size: usize) -> Addr {
        debug_assert!(line_size.is_power_of_two());
        Addr(self.0 << line_size.trailing_zeros())
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

/// The kind of a memory reference.
///
/// The paper distinguishes instruction fetches, data reads and data writes
/// (its M68000 traces only distinguish fetches from writes; see
/// [`MachineArch::M68000`](crate::MachineArch::M68000)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessKind {
    /// An instruction fetch.
    InstructionFetch,
    /// A data read (load).
    Read,
    /// A data write (store).
    Write,
}

impl AccessKind {
    /// All access kinds, in a fixed order convenient for indexing statistics.
    pub const ALL: [AccessKind; 3] = [
        AccessKind::InstructionFetch,
        AccessKind::Read,
        AccessKind::Write,
    ];

    /// Returns `true` for [`AccessKind::InstructionFetch`].
    pub const fn is_ifetch(self) -> bool {
        matches!(self, AccessKind::InstructionFetch)
    }

    /// Returns `true` for data reads and writes.
    pub const fn is_data(self) -> bool {
        !self.is_ifetch()
    }

    /// Returns `true` for [`AccessKind::Write`].
    pub const fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }

    /// A stable small index (0, 1, 2), used by statistics arrays.
    pub const fn index(self) -> usize {
        match self {
            AccessKind::InstructionFetch => 0,
            AccessKind::Read => 1,
            AccessKind::Write => 2,
        }
    }

    /// The single-character mnemonic used by the text trace format.
    pub const fn mnemonic(self) -> char {
        match self {
            AccessKind::InstructionFetch => 'I',
            AccessKind::Read => 'R',
            AccessKind::Write => 'W',
        }
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            AccessKind::InstructionFetch => "ifetch",
            AccessKind::Read => "read",
            AccessKind::Write => "write",
        };
        f.write_str(name)
    }
}

/// One memory reference of a program address trace.
///
/// A reference is a byte [address](Addr), a size in bytes (the width of the
/// access as seen on the memory interface), and a [kind](AccessKind).
///
/// ```
/// use smith85_trace::{AccessKind, Addr, MemoryAccess};
///
/// let acc = MemoryAccess::read(Addr::new(0x100), 8);
/// assert_eq!(acc.kind, AccessKind::Read);
/// assert_eq!(acc.size, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoryAccess {
    /// The virtual byte address referenced.
    pub addr: Addr,
    /// The number of bytes transferred by this reference (1-16 in practice).
    pub size: u8,
    /// Whether this is an instruction fetch, a read or a write.
    pub kind: AccessKind,
}

impl MemoryAccess {
    /// Creates an access of the given kind.
    pub const fn new(kind: AccessKind, addr: Addr, size: u8) -> Self {
        MemoryAccess { addr, size, kind }
    }

    /// Creates an instruction fetch.
    pub const fn ifetch(addr: Addr, size: u8) -> Self {
        Self::new(AccessKind::InstructionFetch, addr, size)
    }

    /// Creates a data read.
    pub const fn read(addr: Addr, size: u8) -> Self {
        Self::new(AccessKind::Read, addr, size)
    }

    /// Creates a data write.
    pub const fn write(addr: Addr, size: u8) -> Self {
        Self::new(AccessKind::Write, addr, size)
    }

    /// The line this access falls in, for the given line size.
    ///
    /// Accesses are assumed not to straddle line boundaries; the synthetic
    /// generators align references so this holds, matching the behaviour of
    /// the paper's trace mechanisms which record one address per reference.
    pub fn line(&self, line_size: usize) -> LineAddr {
        self.addr.line(line_size)
    }

    /// Returns a copy of this access relocated by `offset` bytes.
    ///
    /// Used by the multiprogramming mixer to place each program of a mix in
    /// a disjoint address-space slice.
    #[must_use]
    pub fn relocated(mut self, offset: u64) -> Self {
        self.addr = self.addr.wrapping_add(offset);
        self
    }
}

impl fmt::Display for MemoryAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {:#x} {}", self.kind.mnemonic(), self.addr, self.size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_line_and_offset() {
        let a = Addr::new(0x1234);
        assert_eq!(a.line(16), LineAddr::new(0x123));
        assert_eq!(a.offset(16), 4);
        assert_eq!(a.line(64), LineAddr::new(0x48));
        assert_eq!(a.offset(64), 0x34);
    }

    #[test]
    fn line_addr_roundtrip() {
        let l = Addr::new(0xabcd).line(32);
        assert_eq!(l.to_addr(32).line(32), l);
        assert_eq!(l.to_addr(32).offset(32), 0);
    }

    #[test]
    fn line_next_is_sequential() {
        let l = Addr::new(0x100).line(16);
        assert_eq!(l.next(), Addr::new(0x110).line(16));
    }

    #[test]
    fn distance_is_signed() {
        assert_eq!(Addr::new(0x10).distance_from(Addr::new(0x20)), -0x10);
        assert_eq!(Addr::new(0x20).distance_from(Addr::new(0x10)), 0x10);
    }

    #[test]
    fn kind_predicates() {
        assert!(AccessKind::InstructionFetch.is_ifetch());
        assert!(!AccessKind::InstructionFetch.is_data());
        assert!(AccessKind::Read.is_data());
        assert!(AccessKind::Write.is_data());
        assert!(AccessKind::Write.is_write());
        assert!(!AccessKind::Read.is_write());
    }

    #[test]
    fn kind_indices_are_distinct() {
        let idx: Vec<usize> = AccessKind::ALL.iter().map(|k| k.index()).collect();
        assert_eq!(idx, vec![0, 1, 2]);
    }

    #[test]
    fn relocation_moves_address() {
        let acc = MemoryAccess::write(Addr::new(0x100), 4).relocated(0x1000);
        assert_eq!(acc.addr, Addr::new(0x1100));
        assert_eq!(acc.kind, AccessKind::Write);
    }

    #[test]
    fn display_formats() {
        let acc = MemoryAccess::ifetch(Addr::new(0x40), 4);
        assert_eq!(acc.to_string(), "I 0x40 4");
        assert_eq!(Addr::new(0xff).to_string(), "0xff");
        assert_eq!(LineAddr::new(0xff).to_string(), "L0xff");
    }
}
