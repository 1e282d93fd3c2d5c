//! The paper's published numbers, as data.
//!
//! Everything the paper prints that our calibration can be checked
//! against lives here: Table 3's per-workload dirty-push fractions and
//! the per-group statistics quoted in §3.1/§3.2 (reference mixes, branch
//! fractions, address-space sizes, and the group-average miss ratios at
//! 1 KiB). The calibration-report experiment in `smith85-core` prints the
//! measured value next to each of these.

use crate::catalog::TraceGroup;

/// Table 3's published "fraction data line pushes dirty", by workload row
/// (the four mixes use their table labels).
pub const TABLE3_DIRTY: [(&str, f64); 16] = [
    ("VCCOM", 0.63),
    ("VSPICE", 0.37),
    ("VOPT", 0.49),
    ("VPUZZLE", 0.77),
    ("VTROFF", 0.27),
    ("FGO1", 0.56),
    ("FGO2", 0.43),
    ("CGO1", 0.35),
    ("FCOMP1", 0.63),
    ("CCOMP1", 0.22),
    ("MVS1", 0.48),
    ("MVS2", 0.56),
    ("LISP Compiler - 5 Sections", 0.26),
    ("VAXIMA - 5 Sections", 0.23),
    ("Z8000 - Assorted", 0.48),
    ("CDC 6400 - Assorted", 0.80),
];

/// Per-group statistics the paper quotes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupReference {
    /// The workload group.
    pub group: TraceGroup,
    /// Fraction of references that are instruction fetches (§3.2), where
    /// quoted.
    pub ifetch_fraction: Option<f64>,
    /// Fraction of instruction fetches that branch (§3.2), where quoted.
    pub branch_fraction: Option<f64>,
    /// Average address-space size in bytes (§3.2), where quoted.
    pub aspace_bytes: Option<f64>,
    /// Group-average miss ratio at 1 KiB (§3.1), where quoted.
    pub miss_ratio_1k: Option<f64>,
}

/// The quoted group references.
pub const GROUP_REFERENCES: [GroupReference; 8] = [
    GroupReference {
        group: TraceGroup::Mvs,
        ifetch_fraction: None,
        branch_fraction: None,
        aspace_bytes: None, // folded into the 370 average below
        miss_ratio_1k: None, // "worst" — qualitative
    },
    GroupReference {
        group: TraceGroup::Ibm370,
        ifetch_fraction: Some(0.58), // "58% instructions, excluding the Cobol traces"
        branch_fraction: Some(0.140),
        aspace_bytes: Some(58_439.0),
        miss_ratio_1k: Some(0.17), // 370+360 average at 1K
    },
    GroupReference {
        group: TraceGroup::Ibm360,
        ifetch_fraction: None,
        branch_fraction: Some(0.160),
        aspace_bytes: Some(28_396.0),
        miss_ratio_1k: Some(0.17),
    },
    GroupReference {
        group: TraceGroup::VaxUnix,
        ifetch_fraction: Some(0.50), // "half of the memory references"
        branch_fraction: Some(0.175),
        aspace_bytes: Some(23_032.0),
        miss_ratio_1k: Some(0.048),
    },
    GroupReference {
        group: TraceGroup::VaxLisp,
        ifetch_fraction: None,
        branch_fraction: Some(0.141),
        aspace_bytes: Some(61_598.0),
        miss_ratio_1k: Some(0.111),
    },
    GroupReference {
        group: TraceGroup::Z8000,
        ifetch_fraction: Some(0.751),
        branch_fraction: Some(0.105),
        aspace_bytes: Some(11_351.0),
        miss_ratio_1k: Some(0.031),
    },
    GroupReference {
        group: TraceGroup::Cdc6400,
        ifetch_fraction: Some(0.772),
        branch_fraction: Some(0.042),
        aspace_bytes: Some(21_305.0),
        miss_ratio_1k: None, // "near the middle of the group"
    },
    GroupReference {
        group: TraceGroup::M68000,
        ifetch_fraction: None, // monitor could not split reads from fetches
        branch_fraction: None,
        aspace_bytes: Some(2_868.0),
        miss_ratio_1k: Some(0.017),
    },
];

/// Table 3's summary statistics.
pub const TABLE3_MEAN: f64 = 0.47;
/// Standard deviation of Table 3's fractions.
pub const TABLE3_STD: f64 = 0.18;
/// Range of Table 3's fractions.
pub const TABLE3_RANGE: (f64, f64) = (0.22, 0.80);

/// Looks up the Table 3 reference for a workload row label.
pub fn table3_reference(name: &str) -> Option<f64> {
    TABLE3_DIRTY
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| *v)
}

/// Looks up the group reference.
pub fn group_reference(group: TraceGroup) -> GroupReference {
    GROUP_REFERENCES
        .iter()
        .copied()
        .find(|r| r.group == group)
        .expect("every group has a reference row")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_rows_match_catalog_labels() {
        use crate::catalog;
        let singles: Vec<String> = catalog::table3_single_traces()
            .iter()
            .map(|s| s.name().to_string())
            .collect();
        let mixes: Vec<String> = catalog::table3_mixes()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        for (name, _) in TABLE3_DIRTY {
            assert!(
                singles.iter().any(|s| s == name) || mixes.iter().any(|m| m == name),
                "{name} not a Table 3 workload"
            );
        }
    }

    #[test]
    fn table3_summary_consistent_with_rows() {
        let values: Vec<f64> = TABLE3_DIRTY.iter().map(|(_, v)| *v).collect();
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        assert!((mean - TABLE3_MEAN).abs() < 0.03, "mean {mean}");
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(0.0f64, f64::max);
        assert_eq!((lo, hi), TABLE3_RANGE);
    }

    #[test]
    fn every_group_has_a_reference() {
        for g in TraceGroup::ALL {
            let r = group_reference(g);
            assert_eq!(r.group, g);
        }
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(table3_reference("MVS1"), Some(0.48));
        assert_eq!(table3_reference("NOPE"), None);
    }
}
