//! Machine-architecture descriptors for the architectures the paper traces.
//!
//! The paper stresses that a trace reflects both the *functional*
//! architecture (instruction set) and the *design* architecture (memory
//! interface width, and whether the interface "remembers" the last fetch).
//! [`MachineArch`] records both aspects so the synthetic generators can
//! emulate, per machine, the reference streams the original traces encoded.

use std::fmt;

/// The width and "memory" of a machine's path to main memory.
///
/// The paper (§1.1) notes that fetching two four-byte instructions requires
/// 4, 2 or 1 memory references depending on whether the interface is 2, 4 or
/// 8 bytes wide, and fewer still if the interface remembers the bytes it
/// already holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InterfaceSpec {
    /// Width of the memory interface in bytes.
    pub width_bytes: u8,
    /// Whether the interface remembers the previously fetched unit, so a
    /// sequential fetch within the same unit does not re-reference memory.
    pub remembers: bool,
}

impl InterfaceSpec {
    /// Creates an interface specification.
    pub const fn new(width_bytes: u8, remembers: bool) -> Self {
        InterfaceSpec {
            width_bytes,
            remembers,
        }
    }
}

impl fmt::Display for InterfaceSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-byte interface ({} memory)",
            self.width_bytes,
            if self.remembers { "with" } else { "no" }
        )
    }
}

/// One of the machine architectures the paper's 49 traces were taken from,
/// plus the (then-unreleased) Zilog Z80000 whose projections the paper
/// critiques.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MachineArch {
    /// IBM System/370 (Amdahl 470-class traces, incl. the MVS OS traces).
    Ibm370,
    /// IBM 360/91 (SLAC traces: WATEX, WATFIV, APL, FFT).
    Ibm360_91,
    /// DEC VAX 11/780 (Unix utilities, VAXIMA, LISP, SPICE, ...).
    Vax,
    /// Zilog Z8000, a 16-bit microprocessor (Unix utility traces).
    Z8000,
    /// CDC 6400 (Fortran scientific codes, 60-bit words).
    Cdc6400,
    /// Motorola 68000 (hardware-monitor traces of small Pascal programs;
    /// reads and instruction fetches are not distinguished).
    M68000,
    /// Zilog Z80000, the 32-bit successor whose cache the paper sizes up.
    Z80000,
}

impl MachineArch {
    /// All architectures with traces in the paper's workload (excludes the
    /// projected [`Z80000`](MachineArch::Z80000)).
    pub const TRACED: [MachineArch; 6] = [
        MachineArch::Ibm370,
        MachineArch::Ibm360_91,
        MachineArch::Vax,
        MachineArch::Z8000,
        MachineArch::Cdc6400,
        MachineArch::M68000,
    ];

    /// Short display name as used in the paper's tables.
    pub const fn name(self) -> &'static str {
        match self {
            MachineArch::Ibm370 => "IBM 370",
            MachineArch::Ibm360_91 => "IBM 360/91",
            MachineArch::Vax => "VAX 11/780",
            MachineArch::Z8000 => "Z8000",
            MachineArch::Cdc6400 => "CDC 6400",
            MachineArch::M68000 => "M68000",
            MachineArch::Z80000 => "Z80000",
        }
    }

    /// The natural word size of the architecture in bytes (the CDC 6400's
    /// 60-bit word is rounded up to 8).
    pub const fn word_bytes(self) -> u8 {
        match self {
            MachineArch::Ibm370 | MachineArch::Ibm360_91 => 4,
            MachineArch::Vax => 4,
            MachineArch::Z8000 => 2,
            MachineArch::Cdc6400 => 8,
            MachineArch::M68000 => 2,
            MachineArch::Z80000 => 4,
        }
    }

    /// Whether this is a 16-bit architecture (the paper's explanation for
    /// the unrepresentative Z8000 numbers).
    pub const fn is_16_bit(self) -> bool {
        matches!(self, MachineArch::Z8000 | MachineArch::M68000)
    }

    /// The memory-interface behaviour the paper says each trace set assumed.
    ///
    /// * CDC 6400: one-word (60-bit) data interface, one-instruction
    ///   interface with **no** memory.
    /// * IBM 360/91: 8-byte interface, **no** memory ("all bytes are
    ///   discarded after each individual fetch").
    /// * M68000: 2-byte bus of the real chip (hardware-monitor traces).
    /// * Others: word-wide interfaces without memory; the design
    ///   architecture is emulated by the simulator, not the trace.
    pub const fn interface(self) -> InterfaceSpec {
        match self {
            MachineArch::Ibm370 => InterfaceSpec::new(8, false),
            MachineArch::Ibm360_91 => InterfaceSpec::new(8, false),
            MachineArch::Vax => InterfaceSpec::new(4, false),
            MachineArch::Z8000 => InterfaceSpec::new(2, false),
            MachineArch::Cdc6400 => InterfaceSpec::new(8, false),
            MachineArch::M68000 => InterfaceSpec::new(2, false),
            MachineArch::Z80000 => InterfaceSpec::new(4, false),
        }
    }

    /// A representative average instruction length in bytes, used by the
    /// synthetic instruction-stream model.
    pub const fn typical_instr_bytes(self) -> u8 {
        match self {
            MachineArch::Ibm370 | MachineArch::Ibm360_91 => 4,
            // §3.4: "if the average instruction is 3 bytes long" (VAX-like).
            MachineArch::Vax => 3,
            MachineArch::Z8000 => 2,
            // One 15- or 30-bit parcel per fetch; model as 4 bytes.
            MachineArch::Cdc6400 => 4,
            MachineArch::M68000 => 2,
            MachineArch::Z80000 => 4,
        }
    }

    /// Whether traces from this machine distinguish data reads from
    /// instruction fetches (the M68000 hardware monitor could not).
    pub const fn distinguishes_reads(self) -> bool {
        !matches!(self, MachineArch::M68000)
    }

    /// A relative "architecture complexity" score in `[0, 1]` used by the
    /// §4.3 fudge-factor interpolation: 1.0 is the most complex traced
    /// instruction set (VAX), 0.0 the simplest (CDC 6400-like / RISC).
    pub const fn complexity(self) -> f64 {
        match self {
            MachineArch::Vax => 1.0,
            MachineArch::Ibm370 => 0.85,
            MachineArch::Ibm360_91 => 0.75,
            MachineArch::Z80000 => 0.7,
            MachineArch::M68000 => 0.55,
            MachineArch::Z8000 => 0.45,
            MachineArch::Cdc6400 => 0.0,
        }
    }
}

impl fmt::Display for MachineArch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_list_excludes_z80000() {
        assert!(!MachineArch::TRACED.contains(&MachineArch::Z80000));
        assert_eq!(MachineArch::TRACED.len(), 6);
    }

    #[test]
    fn word_sizes_match_generation() {
        assert_eq!(MachineArch::Z8000.word_bytes(), 2);
        assert_eq!(MachineArch::Vax.word_bytes(), 4);
        assert_eq!(MachineArch::Cdc6400.word_bytes(), 8);
        assert!(MachineArch::Z8000.is_16_bit());
        assert!(!MachineArch::Vax.is_16_bit());
    }

    #[test]
    fn m68000_cannot_distinguish_reads() {
        assert!(!MachineArch::M68000.distinguishes_reads());
        assert!(MachineArch::Vax.distinguishes_reads());
    }

    #[test]
    fn complexity_orders_vax_above_cdc() {
        assert!(MachineArch::Vax.complexity() > MachineArch::Ibm370.complexity());
        assert!(MachineArch::Ibm370.complexity() > MachineArch::Cdc6400.complexity());
        for arch in MachineArch::TRACED {
            let c = arch.complexity();
            assert!((0.0..=1.0).contains(&c), "{arch}: {c}");
        }
    }

    #[test]
    fn interface_display() {
        let spec = MachineArch::Ibm360_91.interface();
        assert_eq!(spec.to_string(), "8-byte interface (no memory)");
    }
}
