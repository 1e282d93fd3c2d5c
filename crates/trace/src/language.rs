//! Source languages of the traced programs.

use std::fmt;

/// The source language a traced program was written in.
///
/// The paper's workload covers seven languages; the language matters because
/// compiler maturity drives code density and reference mix (§1.2, §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SourceLanguage {
    /// Fortran (scientific codes, Watfiv-compiled programs).
    Fortran,
    /// IBM 370 assembler (compilers, interpreters, MVS itself).
    Assembler,
    /// APL (interpreted; the interpreter is the traced code).
    Apl,
    /// LISP (the paper's counterexample to "LISP has terrible locality").
    Lisp,
    /// AlgolW.
    AlgolW,
    /// Cobol (business codes).
    Cobol,
    /// C (the Unix utilities traced on the VAX and Z8000).
    C,
    /// Pascal (the M68000 toy programs).
    Pascal,
}

impl SourceLanguage {
    /// All languages appearing in the workload.
    pub const ALL: [SourceLanguage; 8] = [
        SourceLanguage::Fortran,
        SourceLanguage::Assembler,
        SourceLanguage::Apl,
        SourceLanguage::Lisp,
        SourceLanguage::AlgolW,
        SourceLanguage::Cobol,
        SourceLanguage::C,
        SourceLanguage::Pascal,
    ];

    /// Display name.
    pub const fn name(self) -> &'static str {
        match self {
            SourceLanguage::Fortran => "Fortran",
            SourceLanguage::Assembler => "Assembler",
            SourceLanguage::Apl => "APL",
            SourceLanguage::Lisp => "LISP",
            SourceLanguage::AlgolW => "AlgolW",
            SourceLanguage::Cobol => "Cobol",
            SourceLanguage::C => "C",
            SourceLanguage::Pascal => "Pascal",
        }
    }

    /// A rough code-quality score in `[0, 1]` (1 = mature optimizing
    /// compiler). The paper blames immature compilers (early Unix C, Watfiv,
    /// AlgolW) for inflated instruction counts; the synthetic generators use
    /// this to stretch sequential run lengths for poorly compiled code.
    pub const fn compiler_maturity(self) -> f64 {
        match self {
            SourceLanguage::Assembler => 1.0,
            SourceLanguage::Fortran => 0.9,
            SourceLanguage::Cobol => 0.8,
            SourceLanguage::Apl => 0.7,
            SourceLanguage::Lisp => 0.6,
            SourceLanguage::Pascal => 0.5,
            SourceLanguage::AlgolW => 0.4,
            SourceLanguage::C => 0.35,
        }
    }
}

impl fmt::Display for SourceLanguage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_languages_have_distinct_names() {
        let mut names: Vec<&str> = SourceLanguage::ALL.iter().map(|l| l.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SourceLanguage::ALL.len());
    }

    #[test]
    fn maturity_in_unit_interval() {
        for lang in SourceLanguage::ALL {
            let m = lang.compiler_maturity();
            assert!((0.0..=1.0).contains(&m), "{lang}: {m}");
        }
    }
}
