//! **Calibration report** — every number the paper publishes, next to the
//! value our synthetic substitution measures for it.
//!
//! This is the substitution's audit trail: Table 3's sixteen dirty-push
//! fractions and the per-group reference mixes, branch fractions,
//! address-space sizes and 1 KiB miss ratios (`smith85-synth`'s
//! [`paper_data`] module), each with the
//! measured value and the relative error.

use crate::experiments::{lru_miss_ratios, table3, table3_workloads, ExperimentConfig};
use crate::report::TextTable;
use crate::stat_util::mean;
use crate::sweep::parallel_map;
use smith85_synth::{catalog, paper_data, TraceGroup};
use smith85_trace::stats::TraceCharacterizer;

/// One (metric, paper, measured) comparison line.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// What is being compared (e.g. `"Z8000 ifetch fraction"`).
    pub label: String,
    /// The paper's published value.
    pub paper: f64,
    /// Our measured value.
    pub measured: f64,
}

impl Comparison {
    /// Relative error of the measurement against the paper.
    pub fn relative_error(&self) -> f64 {
        if self.paper == 0.0 {
            0.0
        } else {
            (self.measured - self.paper) / self.paper
        }
    }
}

/// The calibration report.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationReport {
    /// Table 3 dirty-fraction comparisons (16 rows).
    pub table3: Vec<Comparison>,
    /// Per-group statistics comparisons.
    pub groups: Vec<Comparison>,
}

/// Runs the report.
pub fn run(config: &ExperimentConfig) -> CalibrationReport {
    // Table 3 side: reuse the Table 3 experiment machinery.
    let t3_rows = parallel_map(config, table3_workloads(), |w| {
        let trace = config.workload_trace(&w);
        table3::run_workload(
            &w,
            table3::HALF_SIZE,
            w.purge_interval(),
            &trace.as_slice()[..config.trace_len],
        )
    });
    let mut table3_cmp = Vec::new();
    for row in &t3_rows {
        if let Some(paper) = paper_data::table3_reference(&row.name) {
            table3_cmp.push(Comparison {
                label: format!("dirty fraction: {}", row.name),
                paper,
                measured: row.dirty_fraction,
            });
        }
    }

    // Group side: characterize every trace and sweep it at 1 KiB once.
    let len = config.trace_len;
    let per_trace = parallel_map(config, catalog::all(), |spec| {
        let trace = config.profile_trace(spec.profile());
        let replay = &trace.as_slice()[..len];
        let mut c = TraceCharacterizer::new();
        for &access in replay {
            c.observe(access);
        }
        let miss_1k = lru_miss_ratios(replay, &[1024], smith85_trace::PAPER_LINE_SIZE)[0];
        (spec.group(), spec.profile().language, c.finish(), miss_1k)
    });
    let mut groups = Vec::new();
    for g in TraceGroup::ALL {
        let rows: Vec<_> = per_trace.iter().filter(|(gg, _, _, _)| *gg == g).collect();
        if rows.is_empty() {
            continue;
        }
        let r = paper_data::group_reference(g);
        let label = |what: &str| format!("{g} {what}");
        if let Some(p) = r.ifetch_fraction {
            // §3.2 quotes the 370 figure "excluding the Cobol traces".
            let mix_rows: Vec<_> = if g == TraceGroup::Ibm370 {
                rows.iter()
                    .filter(|(_, lang, _, _)| *lang != smith85_trace::SourceLanguage::Cobol)
                    .collect()
            } else {
                rows.iter().collect()
            };
            groups.push(Comparison {
                label: label("ifetch fraction"),
                paper: p,
                measured: mean(
                    &mix_rows
                        .iter()
                        .map(|(_, _, c, _)| c.ifetch_fraction())
                        .collect::<Vec<_>>(),
                ),
            });
        }
        if let Some(p) = r.branch_fraction {
            groups.push(Comparison {
                label: label("branch fraction"),
                paper: p,
                measured: mean(&rows.iter().map(|(_, _, c, _)| c.branch_fraction()).collect::<Vec<_>>()),
            });
        }
        if let Some(p) = r.aspace_bytes {
            groups.push(Comparison {
                label: label("address space (bytes)"),
                paper: p,
                measured: mean(
                    &rows
                        .iter()
                        .map(|(_, _, c, _)| c.address_space_bytes() as f64)
                        .collect::<Vec<_>>(),
                ),
            });
        }
        if let Some(p) = r.miss_ratio_1k {
            groups.push(Comparison {
                label: label("miss ratio @ 1K"),
                paper: p,
                measured: mean(&rows.iter().map(|(_, _, _, m)| *m).collect::<Vec<_>>()),
            });
        }
    }

    CalibrationReport {
        table3: table3_cmp,
        groups,
    }
}

impl CalibrationReport {
    /// Renders both sections.
    pub fn render(&self) -> String {
        let section = |title: &str, rows: &[Comparison]| {
            let mut t = TextTable::new(vec!["metric", "paper", "measured", "rel err"]);
            for c in rows {
                t.row(vec![
                    c.label.clone(),
                    format!("{:.3}", c.paper),
                    format!("{:.3}", c.measured),
                    format!("{:+.0}%", 100.0 * c.relative_error()),
                ]);
            }
            format!("{title}\n{}", t.render())
        };
        format!(
            "{}\n{}",
            section("Calibration vs paper — Table 3 dirty-push fractions", &self.table3),
            section("Calibration vs paper — group statistics", &self.groups)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn shared() -> &'static CalibrationReport {
        static CELL: OnceLock<CalibrationReport> = OnceLock::new();
        CELL.get_or_init(|| {
            run(&ExperimentConfig::builder()
                .trace_len(60_000)
                .sizes(vec![1024])
                .threads(crate::sweep::default_threads())
                .build()
                .unwrap())
        })
    }

    #[test]
    fn report_covers_all_references() {
        let r = shared();
        assert_eq!(r.table3.len(), 16);
        assert!(r.groups.len() >= 15, "{} group comparisons", r.groups.len());
    }

    #[test]
    fn reference_mixes_are_tight() {
        // The reference-mix fractions are direct calibration targets and
        // must land within a few percent.
        let r = shared();
        for c in r.groups.iter().filter(|c| c.label.contains("ifetch")) {
            assert!(
                c.relative_error().abs() < 0.06,
                "{}: paper {} measured {}",
                c.label,
                c.paper,
                c.measured
            );
        }
    }

    #[test]
    fn dirty_fractions_track_the_paper_loosely() {
        // Most Table 3 rows land within ±0.2 absolute of the paper.
        let r = shared();
        let close = r
            .table3
            .iter()
            .filter(|c| (c.measured - c.paper).abs() <= 0.20)
            .count();
        assert!(close >= 11, "only {close} of 16 within 0.20");
    }

    #[test]
    fn render_has_both_sections() {
        let s = shared().render();
        assert!(s.contains("Table 3"));
        assert!(s.contains("group statistics"));
        assert!(s.contains("rel err"));
    }
}
