//! **Table 2** — characteristics of each trace: reference-type mix, branch
//! frequency, distinct instruction/data lines, and address-space size.

use crate::experiments::ExperimentConfig;
use crate::report::TextTable;
use crate::stat_util;
use crate::sweep::parallel_map;
use smith85_synth::catalog;
use smith85_trace::stats::TraceCharacterizer;

/// One row of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Trace name.
    pub name: String,
    /// Workload group label.
    pub group: String,
    /// Machine architecture label.
    pub arch: String,
    /// Source language label.
    pub language: String,
    /// References characterized.
    pub refs: u64,
    /// Fraction of instruction fetches.
    pub ifetch: f64,
    /// Fraction of data reads.
    pub read: f64,
    /// Fraction of data writes.
    pub write: f64,
    /// Fraction of instruction fetches that branch (address heuristic).
    pub branch: f64,
    /// Distinct 16-byte instruction lines.
    pub ilines: u64,
    /// Distinct 16-byte data lines.
    pub dlines: u64,
    /// Address-space bytes: 16 × (ilines + dlines).
    pub aspace: u64,
}

/// The full Table 2 result.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2 {
    /// Per-trace rows (49).
    pub rows: Vec<Table2Row>,
    /// Per-group average address-space sizes, echoing §3.2's comparison.
    pub group_aspace: Vec<(String, f64)>,
}

/// Runs the experiment.
pub fn run(config: &ExperimentConfig) -> Table2 {
    let len = config.trace_len;
    let rows = parallel_map(config, catalog::all(), |spec| {
        let trace = config.profile_trace(spec.profile());
        let mut c = TraceCharacterizer::new();
        for &access in &trace.as_slice()[..len] {
            c.observe(access);
        }
        let s = c.finish();
        Table2Row {
            name: spec.name().to_string(),
            group: spec.group().to_string(),
            arch: spec.arch().to_string(),
            language: spec.profile().language.to_string(),
            refs: s.total_refs(),
            ifetch: s.ifetch_fraction(),
            read: s.read_fraction(),
            write: s.write_fraction(),
            branch: s.branch_fraction(),
            ilines: s.instruction_lines(),
            dlines: s.data_lines(),
            aspace: s.address_space_bytes(),
        }
    });
    let mut group_aspace = Vec::new();
    for g in smith85_synth::TraceGroup::ALL {
        let label = g.to_string();
        let sizes: Vec<f64> = rows
            .iter()
            .filter(|r| r.group == label)
            .map(|r| r.aspace as f64)
            .collect();
        if !sizes.is_empty() {
            group_aspace.push((label, stat_util::mean(&sizes)));
        }
    }
    Table2 { rows, group_aspace }
}

impl Table2 {
    /// Renders the paper-style table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "trace", "group", "lang", "refs", "%ifetch", "%read", "%write", "%branch", "#Ilines",
            "#Dlines", "Aspace",
        ]);
        let mut aligns = vec![crate::report::Align::Left; 3];
        aligns.extend(vec![crate::report::Align::Right; 8]);
        t.aligns(aligns);
        for r in &self.rows {
            t.row(vec![
                r.name.clone(),
                r.group.clone(),
                r.language.clone(),
                r.refs.to_string(),
                format!("{:.1}", 100.0 * r.ifetch),
                format!("{:.1}", 100.0 * r.read),
                format!("{:.1}", 100.0 * r.write),
                format!("{:.1}", 100.0 * r.branch),
                r.ilines.to_string(),
                r.dlines.to_string(),
                r.aspace.to_string(),
            ]);
        }
        t.rule();
        for (g, a) in &self.group_aspace {
            let mut cells = vec![format!("avg {g}"), String::new(), String::new()];
            cells.extend(std::iter::repeat_n(String::new(), 7));
            cells.push(format!("{a:.0}"));
            t.row(cells);
        }
        format!("Table 2: trace characteristics\n{}", t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ExperimentConfig;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig::builder()
            .trace_len(8_000)
            .sizes(vec![1024])
            .threads(2)
            .build()
            .unwrap()
    }

    #[test]
    fn forty_nine_rows_with_sane_fractions() {
        let t = run(&tiny());
        assert_eq!(t.rows.len(), 49);
        for r in &t.rows {
            assert!((r.ifetch + r.read + r.write - 1.0).abs() < 1e-9, "{}", r.name);
            assert!(r.branch > 0.0 && r.branch < 0.5, "{}: {}", r.name, r.branch);
            assert_eq!(r.aspace, 16 * (r.ilines + r.dlines));
        }
    }

    #[test]
    fn z8000_and_cdc_have_highest_ifetch_fraction() {
        let t = run(&tiny());
        let group_mean = |label: &str| {
            let v: Vec<f64> = t.rows.iter().filter(|r| r.group == label).map(|r| r.ifetch).collect();
            crate::stat_util::mean(&v)
        };
        let z = group_mean("Z8000");
        let cdc = group_mean("CDC 6400");
        let vax = group_mean("VAX");
        assert!(z > 0.70 && cdc > 0.70, "z {z} cdc {cdc}");
        assert!(vax < 0.60, "vax {vax}");
    }

    #[test]
    fn cdc_branches_least() {
        let t = run(&tiny());
        let group_mean = |label: &str| {
            let v: Vec<f64> = t.rows.iter().filter(|r| r.group == label).map(|r| r.branch).collect();
            crate::stat_util::mean(&v)
        };
        assert!(group_mean("CDC 6400") < group_mean("VAX"));
        assert!(group_mean("CDC 6400") < group_mean("Z8000"));
    }

    #[test]
    fn mvs_has_largest_footprint_m68000_smallest() {
        let cfg = ExperimentConfig::builder()
            .trace_len(40_000)
            .sizes(vec![1024])
            .threads(4)
            .build()
            .unwrap();
        let t = run(&cfg);
        let aspace = |label: &str| {
            t.group_aspace
                .iter()
                .find(|(g, _)| g == label)
                .map(|(_, a)| *a)
                .unwrap()
        };
        assert!(aspace("IBM 370 MVS") > aspace("VAX"));
        assert!(aspace("VAX") > aspace("M68000"));
        assert!(aspace("M68000") < 6_000.0);
    }

    #[test]
    fn render_is_complete() {
        let t = run(&tiny());
        let s = t.render();
        assert!(s.contains("Table 2"));
        assert!(s.contains("ZGREP"));
        assert!(s.contains("avg Z8000"));
    }
}
