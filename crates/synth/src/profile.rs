//! Program profiles: the calibrated description of one synthetic workload.
//!
//! A [`ProgramProfile`] captures exactly the characteristics the paper's
//! Table 2 publishes for each of its 49 traces — reference-type mix, branch
//! frequency, instruction and data footprints — plus the locality knobs the
//! table only shows indirectly (through the miss-ratio curves). The profile
//! compiles down to the [`InstrModel`] and
//! [`DataModel`] parameters and yields an infinite,
//! deterministic access stream. Custom workloads are built as struct
//! literals and checked with [`ProgramProfile::validate`].

use crate::data::{DataModel, DataParams};
use crate::dist::derive_seed;
use crate::instr::{InstrModel, InstrParams};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use smith85_trace::{Addr, MachineArch, MemoryAccess, SourceLanguage, Trace};
use std::error::Error;
use std::fmt;

/// Base address of the synthetic code region.
pub const CODE_BASE: u64 = 0x0010_0000;
/// Base address of the synthetic data region.
pub const DATA_BASE: u64 = 0x0800_0000;

/// Locality knobs of a profile (the dials Table 2 cannot show directly).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Locality {
    /// Zipf skew over procedures (instruction locality).
    pub instr_alpha: f64,
    /// Zipf skew over static data lines (data locality).
    pub data_alpha: f64,
    /// Fraction of data references that are sequential array walks.
    pub seq_fraction: f64,
    /// Fraction of data references that hit the stack segment.
    pub stack_fraction: f64,
    /// Probability that a branch is a backward loop jump.
    pub loop_prob: f64,
    /// Data references between phase drifts (0 = no drift).
    pub phase_interval: u64,
    /// Fraction of static data ranks that writes draw from (Table 3's
    /// dirty-push calibration knob; see
    /// [`DataParams::write_concentration`]).
    pub write_concentration: f64,
}

impl Default for Locality {
    fn default() -> Self {
        Locality {
            instr_alpha: 0.9,
            data_alpha: 0.9,
            seq_fraction: 0.25,
            stack_fraction: 0.25,
            loop_prob: 0.35,
            phase_interval: 25_000,
            write_concentration: 0.4,
        }
    }
}

/// A complete synthetic workload description.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramProfile {
    /// Trace name (matches the paper's, e.g. `"VSPICE"`).
    pub name: String,
    /// Machine architecture the original trace came from.
    pub arch: MachineArch,
    /// Source language of the traced program.
    pub language: SourceLanguage,
    /// One-line description (mirrors §2 of the paper).
    pub description: String,
    /// Target fraction of references that are instruction fetches.
    pub ifetch_fraction: f64,
    /// Target fraction of references that are data reads.
    pub read_fraction: f64,
    /// Target fraction of instruction fetches that are successful branches.
    pub branch_fraction: f64,
    /// Instruction footprint target in bytes.
    pub code_bytes: u64,
    /// Data footprint target in bytes.
    pub data_bytes: u64,
    /// Locality dials.
    pub locality: Locality,
    /// Base RNG seed (each model component derives its own stream).
    pub seed: u64,
    /// Trace length the paper simulated for this workload.
    pub paper_length: u64,
}

/// A profile description that cannot be realized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileError {
    message: String,
}

impl ProfileError {
    /// An error carrying `message`: [`ProgramProfile::validate`]'s, or
    /// one from the non-CPU families, which validate with their own knobs
    /// but surface through the same workload error type.
    pub fn custom(message: impl Into<String>) -> Self {
        ProfileError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl Error for ProfileError {}

impl ProgramProfile {
    /// Target fraction of references that are data writes.
    pub fn write_fraction(&self) -> f64 {
        (1.0 - self.ifetch_fraction - self.read_fraction).max(0.0)
    }

    /// The instruction-model parameters this profile compiles to.
    pub fn instr_params(&self) -> InstrParams {
        // The branch heuristic sees the procedure-wrap jumps the model adds
        // on top of explicit branches, so aim slightly sparser.
        let mean_run = (1.0 / self.branch_fraction.clamp(0.02, 0.8)) * 1.15;
        let proc_bytes = (self.code_bytes / 24).clamp(128, 4096);
        InstrParams {
            code_base: CODE_BASE,
            code_bytes: self.code_bytes,
            instr_bytes: self.arch.typical_instr_bytes() as u64,
            mean_run: mean_run.max(1.0),
            proc_alpha: self.locality.instr_alpha,
            proc_bytes,
            call_prob: 0.12,
            return_prob: 0.10,
            loop_prob: self.locality.loop_prob,
        }
    }

    /// The data-model parameters this profile compiles to.
    pub fn data_params(&self) -> DataParams {
        // Line-aligned so the static and sequential segments start on a
        // line boundary (references must not straddle lines).
        let stack_bytes = (self.data_bytes / 24).clamp(128, 2048) & !15;
        DataParams {
            data_base: DATA_BASE,
            data_bytes: self.data_bytes,
            word_bytes: self.arch.word_bytes() as u64,
            stack_fraction: self.locality.stack_fraction,
            seq_fraction: self.locality.seq_fraction,
            static_alpha: self.locality.data_alpha,
            stack_bytes,
            seq_streams: 3,
            phase_interval: self.locality.phase_interval,
            write_concentration: self.locality.write_concentration,
        }
    }

    /// Checks the profile can actually generate: fractions consistent,
    /// footprints large enough, locality dials in range.
    ///
    /// # Errors
    ///
    /// Returns a [`ProfileError`] naming the first violated constraint.
    pub fn validate(&self) -> Result<(), ProfileError> {
        if !(0.0..=1.0).contains(&self.ifetch_fraction)
            || !(0.0..=1.0).contains(&self.read_fraction)
            || self.ifetch_fraction + self.read_fraction > 1.0
        {
            return Err(ProfileError::custom(
                "ifetch and read fractions must be nonnegative and sum to at most 1",
            ));
        }
        if !(0.0..1.0).contains(&self.branch_fraction) {
            return Err(ProfileError::custom("branch fraction must lie in [0, 1)"));
        }
        if self.code_bytes < 512 {
            return Err(ProfileError::custom("code footprint must be at least 512 bytes"));
        }
        if self.data_bytes < 512 {
            return Err(ProfileError::custom("data footprint must be at least 512 bytes"));
        }
        let l = &self.locality;
        if l.seq_fraction < 0.0
            || l.stack_fraction < 0.0
            || l.seq_fraction + l.stack_fraction > 1.0
        {
            return Err(ProfileError::custom(
                "seq and stack fractions must be nonnegative and sum to at most 1",
            ));
        }
        if !(0.0..=1.0).contains(&l.write_concentration) {
            return Err(ProfileError::custom("write concentration must lie in [0, 1]"));
        }
        if !(0.0..=4.0).contains(&l.instr_alpha) || !(0.0..=4.0).contains(&l.data_alpha) {
            return Err(ProfileError::custom("Zipf alphas must lie in [0, 4]"));
        }
        // Exercise the model constructors so any residual inconsistency
        // surfaces here rather than on first use.
        let _ = self.instr_params();
        let _ = self.data_params();
        Ok(())
    }

    /// An infinite, deterministic access stream for this profile, or a
    /// typed error if the profile is inconsistent. This is the
    /// non-panicking form of [`generator`](Self::generator) for
    /// user-supplied profiles.
    ///
    /// # Errors
    ///
    /// Returns the first [`validate`](Self::validate) failure.
    pub fn try_generator(&self) -> Result<ProgramGenerator, ProfileError> {
        self.validate()?;
        Ok(ProgramGenerator {
            instr: InstrModel::new(self.instr_params(), derive_seed(self.seed, 1)),
            data: DataModel::new(self.data_params(), derive_seed(self.seed, 2)),
            rng: SmallRng::seed_from_u64(derive_seed(self.seed, 3)),
            ifetch_fraction: self.ifetch_fraction,
            write_given_data: if self.ifetch_fraction < 1.0 {
                self.write_fraction() / (1.0 - self.ifetch_fraction)
            } else {
                0.0
            },
        })
    }

    /// An infinite, deterministic access stream for this profile.
    ///
    /// # Panics
    ///
    /// Panics if the profile is inconsistent (see
    /// [`validate`](Self::validate)); use
    /// [`try_generator`](Self::try_generator) for user-supplied profiles.
    pub fn generator(&self) -> ProgramGenerator {
        self.try_generator()
            .unwrap_or_else(|e| panic!("profile {}: inconsistent: {e}", self.name))
    }

    /// Materializes the first `len` references.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`generator`](Self::generator).
    pub fn generate(&self, len: usize) -> Trace {
        let mut trace = Trace::with_capacity(len);
        trace.extend(self.generator().take(len));
        trace
    }
}

/// Infinite access stream compiled from a [`ProgramProfile`].
#[derive(Debug, Clone)]
pub struct ProgramGenerator {
    instr: InstrModel,
    data: DataModel,
    rng: SmallRng,
    ifetch_fraction: f64,
    write_given_data: f64,
}

impl Iterator for ProgramGenerator {
    type Item = MemoryAccess;

    fn next(&mut self) -> Option<MemoryAccess> {
        let u: f64 = self.rng.gen_range(0.0..1.0);
        let access = if u < self.ifetch_fraction {
            MemoryAccess::ifetch(Addr::new(self.instr.next_fetch()), self.instr.fetch_bytes())
        } else {
            let w: f64 = self.rng.gen_range(0.0..1.0);
            let is_write = w < self.write_given_data;
            let addr = Addr::new(self.data.next_ref(is_write));
            let size = self.data.word_bytes();
            if is_write {
                MemoryAccess::write(addr, size)
            } else {
                MemoryAccess::read(addr, size)
            }
        };
        Some(access)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (usize::MAX, None)
    }
}

/// Returns a small general-purpose example profile (a VAX-like C program),
/// handy for documentation and tests.
pub fn example_profile() -> ProgramProfile {
    ProgramProfile {
        name: "EXAMPLE".to_string(),
        arch: MachineArch::Vax,
        language: SourceLanguage::C,
        description: "example VAX C workload".to_string(),
        ifetch_fraction: 0.50,
        read_fraction: 0.33,
        branch_fraction: 0.17,
        code_bytes: 12 * 1024,
        data_bytes: 12 * 1024,
        locality: Locality::default(),
        seed: 0x5eed,
        paper_length: 250_000,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_hit_targets() {
        let p = example_profile();
        let t = p.generate(60_000);
        let s = t.characteristics();
        assert!((s.ifetch_fraction() - 0.50).abs() < 0.02, "{}", s.ifetch_fraction());
        assert!((s.read_fraction() - 0.33).abs() < 0.02, "{}", s.read_fraction());
        assert!((s.write_fraction() - 0.17).abs() < 0.02, "{}", s.write_fraction());
    }

    #[test]
    fn branch_fraction_near_target() {
        let p = example_profile();
        let s = p.generate(60_000).characteristics();
        let b = s.branch_fraction();
        assert!((0.10..=0.26).contains(&b), "branch fraction {b}");
    }

    #[test]
    fn footprints_bounded_by_targets() {
        let p = example_profile();
        let s = p.generate(150_000).characteristics();
        assert!(s.instruction_lines() * 16 <= p.code_bytes);
        assert!(s.data_lines() * 16 <= p.data_bytes + 16);
        // And a decent share is actually touched.
        assert!(s.address_space_bytes() * 3 > (p.code_bytes + p.data_bytes));
    }

    #[test]
    fn generator_is_deterministic() {
        let p = example_profile();
        assert_eq!(p.generate(5_000), p.generate(5_000));
        let mut q = p.clone();
        q.seed += 1;
        assert_ne!(p.generate(5_000), q.generate(5_000));
    }

    #[test]
    fn code_and_data_regions_disjoint() {
        let p = example_profile();
        for a in &p.generate(20_000) {
            if a.kind.is_ifetch() {
                assert!(a.addr.get() < DATA_BASE);
            } else {
                assert!(a.addr.get() >= DATA_BASE);
            }
        }
    }

    #[test]
    fn write_fraction_never_negative() {
        let mut p = example_profile();
        p.ifetch_fraction = 0.7;
        p.read_fraction = 0.35;
        assert_eq!(p.write_fraction(), 0.0);
    }

    #[test]
    fn rejects_inconsistent_fractions() {
        let mut p = example_profile();
        p.ifetch_fraction = 0.9;
        p.read_fraction = 0.5;
        assert!(p.validate().is_err());
        let mut p = example_profile();
        p.branch_fraction = 1.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn rejects_tiny_footprints() {
        let mut p = example_profile();
        p.code_bytes = (0.1 * 1024.0) as u64;
        assert!(p.validate().is_err());
        let mut p = example_profile();
        p.data_bytes = (0.1 * 1024.0) as u64;
        assert!(p.validate().is_err());
    }

    #[test]
    fn rejects_bad_locality() {
        let mut p = example_profile();
        p.locality = Locality {
            seq_fraction: 0.8,
            stack_fraction: 0.5,
            ..Default::default()
        };
        assert!(p.validate().is_err());
        p.locality = Locality {
            instr_alpha: 9.0,
            ..Default::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "inconsistent")]
    fn generator_rejects_bad_fractions() {
        let mut p = example_profile();
        p.ifetch_fraction = 0.9;
        p.read_fraction = 0.5;
        let _ = p.generator();
    }
}
