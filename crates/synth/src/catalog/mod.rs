//! The 49-trace workload catalog.
//!
//! One [`TraceSpec`] per trace of the paper's §2 workload, grouped by the
//! machine architecture the original was captured on, with profile
//! parameters calibrated against the characteristics the paper publishes
//! (Table 2) and the qualitative descriptions in the text. The LISP
//! compiler and VAXIMA entries carry five *sections* each — the paper's
//! Table 1 treats those as five traces, giving 57 rows from 49 traces.

mod cdc6400;
mod ibm360;
mod ibm370;
mod m68000;
mod vax;
mod z8000;

use crate::profile::{Locality, ProgramGenerator, ProgramProfile};
use smith85_trace::{MachineArch, SourceLanguage, Trace};
use std::fmt;
use std::sync::OnceLock;

/// Version of the calibrated catalog data. Bump whenever any profile
/// parameter changes — or the servable catalog namespace itself grows —
/// so persisted artifacts keyed on the old calibration (trace spills,
/// cached results) miss instead of replaying a stale stream.
///
/// History: v1 was the 49 CPU profiles alone; v2 marks the catalog that
/// also serves the storage-I/O and network-address family profiles.
pub const CATALOG_VERSION: u32 = 2;

/// The workload group a trace belongs to (the paper's §3.1 clusters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceGroup {
    /// IBM MVS operating-system traces — the locality worst case.
    Mvs,
    /// IBM 370 application and compiler traces.
    Ibm370,
    /// IBM 360/91 traces (SLAC).
    Ibm360,
    /// VAX Unix utilities and application programs.
    VaxUnix,
    /// VAX LISP workloads (LISP compiler and VAXIMA).
    VaxLisp,
    /// Zilog Z8000 Unix utility traces.
    Z8000,
    /// CDC 6400 Fortran scientific codes.
    Cdc6400,
    /// Motorola 68000 hardware-monitor traces of small Pascal programs.
    M68000,
}

impl TraceGroup {
    /// All groups, in the paper's worst-to-best locality order.
    pub const ALL: [TraceGroup; 8] = [
        TraceGroup::Mvs,
        TraceGroup::Ibm370,
        TraceGroup::Ibm360,
        TraceGroup::VaxLisp,
        TraceGroup::Cdc6400,
        TraceGroup::VaxUnix,
        TraceGroup::Z8000,
        TraceGroup::M68000,
    ];

    /// Display name.
    pub const fn name(self) -> &'static str {
        match self {
            TraceGroup::Mvs => "IBM 370 MVS",
            TraceGroup::Ibm370 => "IBM 370",
            TraceGroup::Ibm360 => "IBM 360/91",
            TraceGroup::VaxUnix => "VAX",
            TraceGroup::VaxLisp => "VAX LISP",
            TraceGroup::Z8000 => "Z8000",
            TraceGroup::Cdc6400 => "CDC 6400",
            TraceGroup::M68000 => "M68000",
        }
    }
}

impl fmt::Display for TraceGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One catalog entry: a calibrated profile plus its group and section
/// count.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpec {
    profile: ProgramProfile,
    group: TraceGroup,
    sections: u32,
}

impl TraceSpec {
    /// The trace name (e.g. `"VSPICE"`).
    pub fn name(&self) -> &str {
        &self.profile.name
    }

    /// The calibrated profile.
    pub fn profile(&self) -> &ProgramProfile {
        &self.profile
    }

    /// The workload group.
    pub fn group(&self) -> TraceGroup {
        self.group
    }

    /// How many execution sections the paper simulated (5 for the LISP
    /// compiler and VAXIMA, 1 otherwise).
    pub fn sections(&self) -> u32 {
        self.sections
    }

    /// The machine architecture.
    pub fn arch(&self) -> MachineArch {
        self.profile.arch
    }

    /// An infinite access stream for section 0.
    pub fn stream(&self) -> ProgramGenerator {
        self.profile.generator()
    }

    /// Materializes `len` references of section 0.
    pub fn generate(&self, len: usize) -> Trace {
        self.profile.generate(len)
    }

    /// The profile of one execution section (sections differ in seed and,
    /// slightly, in footprint — consecutive phases of one program).
    ///
    /// # Panics
    ///
    /// Panics if `section` is out of range.
    pub fn section_profile(&self, section: u32) -> ProgramProfile {
        assert!(
            section < self.sections,
            "{} has {} sections, asked for {section}",
            self.profile.name,
            self.sections
        );
        if section == 0 {
            return self.profile.clone();
        }
        let mut p = self.profile.clone();
        p.name = format!("{}{}", p.name, section + 1);
        p.seed = p.seed.wrapping_add(0x9e37 * section as u64);
        // Later sections of a long-running program touch somewhat
        // different amounts of code and data.
        let scale = 1.0 + 0.08 * (section as f64 - 2.0);
        p.code_bytes = ((p.code_bytes as f64) * scale) as u64;
        p.data_bytes = ((p.data_bytes as f64) * scale) as u64;
        p
    }

    /// All section profiles (one for most traces, five for LISP/VAXIMA).
    pub fn section_profiles(&self) -> Vec<ProgramProfile> {
        (0..self.sections).map(|s| self.section_profile(s)).collect()
    }
}

/// Builds one spec; the seed is derived from the name so the catalog is
/// reproducible without coordination.
#[allow(clippy::too_many_arguments)]
pub(crate) fn spec(
    name: &str,
    arch: MachineArch,
    language: SourceLanguage,
    group: TraceGroup,
    description: &str,
    ifetch: f64,
    read: f64,
    branch: f64,
    code_bytes: u64,
    data_bytes: u64,
    locality: Locality,
    paper_length: u64,
    sections: u32,
) -> TraceSpec {
    TraceSpec {
        profile: ProgramProfile {
            name: name.to_string(),
            arch,
            language,
            description: description.to_string(),
            ifetch_fraction: ifetch,
            read_fraction: read,
            branch_fraction: branch,
            code_bytes,
            data_bytes,
            locality,
            seed: fnv1a(name.as_bytes()),
            paper_length,
        },
        group,
        sections,
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The catalog table, built on first use and shared for the life of the
/// process: a name lookup scans it and clones only the entry it returns,
/// instead of rebuilding all 49 specs per call.
fn specs() -> &'static [TraceSpec] {
    static SPECS: OnceLock<Vec<TraceSpec>> = OnceLock::new();
    SPECS.get_or_init(build_specs)
}

/// Every trace in the catalog (49 entries), grouped by architecture in the
/// paper's presentation order.
pub fn all() -> Vec<TraceSpec> {
    specs().to_vec()
}

fn build_specs() -> Vec<TraceSpec> {
    let mut specs = Vec::with_capacity(49);
    specs.extend(ibm370::specs());
    specs.extend(ibm360::specs());
    specs.extend(vax::specs());
    specs.extend(z8000::specs());
    specs.extend(cdc6400::specs());
    specs.extend(m68000::specs());
    specs
}

/// Looks a trace up by name (case-insensitive).
pub fn by_name(name: &str) -> Option<TraceSpec> {
    specs()
        .iter()
        .find(|s| s.name().eq_ignore_ascii_case(name))
        .cloned()
}

/// All traces of one group.
pub fn group(group: TraceGroup) -> Vec<TraceSpec> {
    specs()
        .iter()
        .filter(|s| s.group() == group)
        .cloned()
        .collect()
}

/// The 57 Table 1 rows: every section of every trace.
pub fn table1_rows() -> Vec<ProgramProfile> {
    specs().iter().flat_map(|s| s.section_profiles()).collect()
}

/// The four multiprogramming mixes of Table 3.
///
/// * "LISP Compiler - 5 Sections" and "VAXIMA - 5 Sections": the five
///   sections of those traces, round-robined;
/// * "Z8000 - Assorted": ZVI, ZGREP, ZPR, ZOD, ZSORT;
/// * "CDC 6400 - Assorted": all five CDC traces.
pub fn table3_mixes() -> Vec<(String, Vec<ProgramProfile>)> {
    mixes().to_vec()
}

/// Looks one Table 3 mix up by display name (case-insensitive), cloning
/// only that mix.
pub fn table3_mix(name: &str) -> Option<(String, Vec<ProgramProfile>)> {
    mixes()
        .iter()
        .find(|(mix_name, _)| mix_name.eq_ignore_ascii_case(name))
        .cloned()
}

/// The Table 3 mixes, built once like [`specs`].
fn mixes() -> &'static [(String, Vec<ProgramProfile>)] {
    static MIXES: OnceLock<Vec<(String, Vec<ProgramProfile>)>> = OnceLock::new();
    MIXES.get_or_init(build_mixes)
}

fn build_mixes() -> Vec<(String, Vec<ProgramProfile>)> {
    let mix_of = |name: &str| -> Vec<ProgramProfile> {
        by_name(name)
            .unwrap_or_else(|| panic!("catalog trace {name} missing"))
            .section_profiles()
    };
    let named = |names: &[&str]| -> Vec<ProgramProfile> {
        names
            .iter()
            .map(|n| {
                by_name(n)
                    .unwrap_or_else(|| panic!("catalog trace {n} missing"))
                    .profile()
                    .clone()
            })
            .collect()
    };
    vec![
        ("LISP Compiler - 5 Sections".to_string(), mix_of("LISPCOMP")),
        ("VAXIMA - 5 Sections".to_string(), mix_of("VAXIMA")),
        (
            "Z8000 - Assorted".to_string(),
            named(&["ZVI", "ZGREP", "ZPR", "ZOD", "ZSORT"]),
        ),
        (
            "CDC 6400 - Assorted".to_string(),
            named(&["TWOD", "PPAS", "PPAL", "DIPOLE", "MOTIS"]),
        ),
    ]
}

/// The single-trace rows of Table 3, in the paper's order.
pub fn table3_single_traces() -> Vec<TraceSpec> {
    ["VCCOM", "VSPICE", "VOPT", "VPUZZLE", "VTROFF", "FGO1", "FGO2", "CGO1", "FCOMP1", "CCOMP1", "MVS1", "MVS2"]
        .iter()
        .map(|n| by_name(n).unwrap_or_else(|| panic!("catalog trace {n} missing")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_forty_nine_traces() {
        assert_eq!(all().len(), 49);
    }

    #[test]
    fn table1_has_fifty_seven_rows() {
        assert_eq!(table1_rows().len(), 57);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<String> = all().iter().map(|s| s.name().to_string()).collect();
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn group_counts_match_the_paper() {
        assert_eq!(group(TraceGroup::Mvs).len(), 2);
        assert_eq!(group(TraceGroup::Ibm370).len(), 7);
        assert_eq!(group(TraceGroup::Ibm360).len(), 4);
        assert_eq!(group(TraceGroup::VaxUnix).len(), 15);
        assert_eq!(group(TraceGroup::VaxLisp).len(), 2);
        assert_eq!(group(TraceGroup::Z8000).len(), 10);
        assert_eq!(group(TraceGroup::Cdc6400).len(), 5);
        assert_eq!(group(TraceGroup::M68000).len(), 4);
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert!(by_name("vspice").is_some());
        assert!(by_name("VSPICE").is_some());
        assert!(by_name("NOPE").is_none());
    }

    #[test]
    fn sections_expand_only_lisp_and_vaxima() {
        for s in all() {
            let expected = if s.name() == "LISPCOMP" || s.name() == "VAXIMA" {
                5
            } else {
                1
            };
            assert_eq!(s.sections(), expected, "{}", s.name());
        }
    }

    #[test]
    fn section_profiles_differ() {
        let lisp = by_name("LISPCOMP").unwrap();
        let p0 = lisp.section_profile(0);
        let p3 = lisp.section_profile(3);
        assert_ne!(p0.seed, p3.seed);
        assert_eq!(p3.name, "LISPCOMP4");
    }

    #[test]
    #[should_panic(expected = "sections")]
    fn out_of_range_section_panics() {
        let _ = by_name("MVS1").unwrap().section_profile(1);
    }

    #[test]
    fn table3_mixes_are_complete() {
        let mixes = table3_mixes();
        assert_eq!(mixes.len(), 4);
        for (name, members) in &mixes {
            assert_eq!(members.len(), 5, "{name}");
        }
        assert_eq!(table3_single_traces().len(), 12);
    }

    #[test]
    fn every_profile_generates() {
        for s in all() {
            let t = s.generate(2_000);
            assert_eq!(t.len(), 2_000, "{}", s.name());
        }
    }

    #[test]
    fn every_trace_hits_its_own_reference_mix() {
        // The profile fractions are per-trace calibration targets; each
        // generated stream must land within a few percent of its own spec.
        for s in all() {
            let p = s.profile();
            let stats = s.generate(20_000).characteristics();
            assert!(
                (stats.ifetch_fraction() - p.ifetch_fraction).abs() < 0.03,
                "{}: ifetch {} vs target {}",
                s.name(),
                stats.ifetch_fraction(),
                p.ifetch_fraction
            );
            assert!(
                (stats.read_fraction() - p.read_fraction).abs() < 0.03,
                "{}: read {} vs target {}",
                s.name(),
                stats.read_fraction(),
                p.read_fraction
            );
        }
    }

    #[test]
    fn every_trace_footprint_is_bounded_by_its_spec() {
        for s in all() {
            let p = s.profile();
            let stats = s.generate(20_000).characteristics();
            assert!(
                stats.instruction_lines() * 16 <= p.code_bytes,
                "{}: I-footprint exceeds the code region",
                s.name()
            );
            assert!(
                stats.data_lines() * 16 <= p.data_bytes + 16,
                "{}: D-footprint exceeds the data region",
                s.name()
            );
        }
    }

    #[test]
    fn profiles_respect_arch_word_sizes() {
        for s in all() {
            let t = s.generate(500);
            let word = s.arch().word_bytes();
            for a in &t {
                if !a.kind.is_ifetch() {
                    assert_eq!(a.size, word, "{}", s.name());
                }
            }
        }
    }
}
