//! **Table 5** — the design-target miss ratios, with our measured
//! 85th-percentile estimates printed beside the paper's published targets.
//!
//! The paper picks each target "towards the worst of the values observed,
//! perhaps at the 85th percentile or so" (§4.1); we apply exactly that
//! rule to the reproduced Table 1 (unified) and Figures 3/4 (instruction /
//! data) distributions.

use crate::experiments::{fig3_fig4, table1, ExperimentConfig};
use crate::report::{fmt_ratio, TextTable};
use crate::stat_util::percentile;
use crate::targets::{self, CacheKind};

/// The percentile the paper aims at.
pub const TARGET_PERCENTILE: f64 = 85.0;

/// One size row: measured estimates vs the paper's targets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table5Row {
    /// Cache size (bytes).
    pub size: usize,
    /// Our 85th-percentile unified miss ratio.
    pub unified: f64,
    /// Our 85th-percentile instruction miss ratio.
    pub instruction: f64,
    /// Our 85th-percentile data miss ratio.
    pub data: f64,
    /// The paper's unified target.
    pub paper_unified: f64,
    /// The paper's instruction target.
    pub paper_instruction: f64,
    /// The paper's data target.
    pub paper_data: f64,
}

/// The full Table 5 result.
#[derive(Debug, Clone, PartialEq)]
pub struct Table5 {
    /// Rows per swept size.
    pub rows: Vec<Table5Row>,
}

/// Runs the experiment (internally runs the Table 1 and Figures 3/4
/// simulations).
pub fn run(config: &ExperimentConfig) -> Table5 {
    let t1 = table1::run(config);
    let f34 = fig3_fig4::run(config);
    Table5 {
        rows: build_rows(config, &t1, &f34),
    }
}

fn build_rows(
    config: &ExperimentConfig,
    t1: &table1::Table1,
    f34: &fig3_fig4::Fig3Fig4,
) -> Vec<Table5Row> {
    config
        .sizes
        .iter()
        .enumerate()
        .map(|(i, &size)| Table5Row {
            size,
            unified: percentile(&t1.column(size), TARGET_PERCENTILE),
            instruction: percentile(&f34.instruction_column(i), TARGET_PERCENTILE),
            data: percentile(&f34.data_column(i), TARGET_PERCENTILE),
            paper_unified: targets::design_target(size, CacheKind::Unified),
            paper_instruction: targets::design_target(size, CacheKind::Instruction),
            paper_data: targets::design_target(size, CacheKind::Data),
        })
        .collect()
}

impl Table5 {
    /// Renders the comparison table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "size",
            "unified",
            "instr",
            "data",
            "paper-unified",
            "paper-instr",
            "paper-data",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.size.to_string(),
                fmt_ratio(r.unified),
                fmt_ratio(r.instruction),
                fmt_ratio(r.data),
                fmt_ratio(r.paper_unified),
                fmt_ratio(r.paper_instruction),
                fmt_ratio(r.paper_data),
            ]);
        }
        format!(
            "Table 5: design-target miss ratios (85th percentile of the \
             workload) vs the paper's published targets\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig::builder()
            .trace_len(12_000)
            .sizes(vec![256, 4096])
            .threads(4)
            .build()
            .unwrap()
    }

    #[test]
    fn rows_follow_sizes_and_shrink() {
        let t = run(&tiny());
        assert_eq!(t.rows.len(), 2);
        assert!(t.rows[1].unified < t.rows[0].unified);
        assert!(t.rows[1].paper_unified < t.rows[0].paper_unified);
    }

    #[test]
    fn estimates_are_pessimistic_but_bounded() {
        let t = run(&tiny());
        for r in &t.rows {
            for v in [r.unified, r.instruction, r.data] {
                assert!((0.0..=1.0).contains(&v));
            }
            // The 85th percentile sits above the workload midpoint by
            // construction; sanity-check it's within 4x of the paper.
            assert!(r.unified < 4.0 * r.paper_unified + 0.25, "{r:?}");
        }
    }

    #[test]
    fn render_shows_both_sources() {
        let s = run(&tiny()).render();
        assert!(s.contains("paper-unified"));
        assert!(s.contains("Table 5"));
    }
}
