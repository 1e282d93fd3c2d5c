//! **Table 1 / Figure 1** — overall miss ratios for all 57 trace rows.
//!
//! Configuration (§3.1): fully associative, LRU replacement, demand fetch,
//! no task-switch purges, copy back with fetch on write, 16-byte lines.
//! One pass of the one-pass engine per trace yields the whole
//! miss-ratio-versus-size curve (Mattson's stack algorithm).

use crate::experiments::{lru_miss_ratios, ExperimentConfig};
use crate::report::{fmt_ratio, TextTable};
use crate::stat_util;
use crate::sweep::parallel_map;
use smith85_synth::catalog;

/// One row: a trace (or trace section) and its miss-ratio curve.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Trace name (sections are suffixed, e.g. `VAXIMA3`).
    pub name: String,
    /// Workload group label.
    pub group: String,
    /// Miss ratio at each swept size.
    pub miss_ratios: Vec<f64>,
}

/// The full Table 1 result.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    /// Cache sizes swept (bytes).
    pub sizes: Vec<usize>,
    /// Per-trace rows (57 at full scale).
    pub rows: Vec<Table1Row>,
    /// Per-group average curves, in catalog group order.
    pub group_averages: Vec<(String, Vec<f64>)>,
}

/// Runs the experiment. The result is memoized in the config's shared
/// pool: `table5` and `conclusions` re-derive Table 1 under the same
/// configuration and get the stored result instead of re-simulating.
pub fn run(config: &ExperimentConfig) -> Table1 {
    let key = format!("table1/{}/{:?}", config.trace_len, config.sizes);
    (*config.pool.result(&key, || compute(config))).clone()
}

fn compute(config: &ExperimentConfig) -> Table1 {
    let jobs: Vec<(String, String, smith85_synth::ProgramProfile)> = catalog::all()
        .iter()
        .flat_map(|spec| {
            let group = spec.group().to_string();
            spec.section_profiles()
                .into_iter()
                .map(move |p| (p.name.clone(), group.clone(), p))
        })
        .collect();
    let sizes = config.sizes.clone();
    let len = config.trace_len;
    let rows = parallel_map(config, jobs, |(name, group, profile)| {
        let trace = config.profile_trace(&profile);
        Table1Row {
            name,
            group,
            miss_ratios: lru_miss_ratios(
                &trace.as_slice()[..len],
                &sizes,
                smith85_trace::PAPER_LINE_SIZE,
            ),
        }
    });

    let mut group_averages = Vec::new();
    for g in smith85_synth::TraceGroup::ALL {
        let label = g.to_string();
        let members: Vec<&Table1Row> = rows.iter().filter(|r| r.group == label).collect();
        if members.is_empty() {
            continue;
        }
        let avg: Vec<f64> = (0..sizes.len())
            .map(|i| {
                stat_util::mean(&members.iter().map(|r| r.miss_ratios[i]).collect::<Vec<_>>())
            })
            .collect();
        group_averages.push((label, avg));
    }
    Table1 {
        sizes,
        rows,
        group_averages,
    }
}

impl Table1 {
    /// The miss-ratio values of every row at one swept size.
    ///
    /// # Panics
    ///
    /// Panics if `size` was not part of the sweep.
    pub fn column(&self, size: usize) -> Vec<f64> {
        let idx = self
            .sizes
            .iter()
            .position(|&s| s == size)
            .unwrap_or_else(|| panic!("size {size} not in sweep"));
        self.rows.iter().map(|r| r.miss_ratios[idx]).collect()
    }

    fn build_table(&self) -> TextTable {
        let mut headers = vec!["trace".to_string(), "group".to_string()];
        headers.extend(self.sizes.iter().map(|s| s.to_string()));
        let mut t = TextTable::new(headers);
        let mut aligns = vec![crate::report::Align::Left, crate::report::Align::Left];
        aligns.extend(vec![crate::report::Align::Right; self.sizes.len()]);
        t.aligns(aligns);
        for row in &self.rows {
            let mut cells = vec![row.name.clone(), row.group.clone()];
            cells.extend(row.miss_ratios.iter().map(|m| fmt_ratio(*m)));
            t.row(cells);
        }
        t
    }

    /// The 57 rows as CSV, for external plotting.
    pub fn to_csv(&self) -> String {
        self.build_table().render_csv()
    }

    /// Renders the paper-style table (rows grouped, group averages below).
    pub fn render(&self) -> String {
        let mut headers = vec!["trace".to_string(), "group".to_string()];
        headers.extend(self.sizes.iter().map(|s| s.to_string()));
        let mut t = TextTable::new(headers);
        let mut aligns = vec![crate::report::Align::Left, crate::report::Align::Left];
        aligns.extend(vec![crate::report::Align::Right; self.sizes.len()]);
        t.aligns(aligns);
        for row in &self.rows {
            let mut cells = vec![row.name.clone(), row.group.clone()];
            cells.extend(row.miss_ratios.iter().map(|m| fmt_ratio(*m)));
            t.row(cells);
        }
        t.rule();
        for (g, avg) in &self.group_averages {
            let mut cells = vec![format!("avg {g}"), String::new()];
            cells.extend(avg.iter().map(|m| fmt_ratio(*m)));
            t.row(cells);
        }
        let plot = crate::report::ascii_plot(
            "Figure 1: group-average miss ratio vs cache size (log y)",
            &self.sizes,
            &self.group_averages,
        );
        format!(
            "Table 1 / Figure 1: overall miss ratios (fully associative, LRU, \
             demand fetch, 16-byte lines, copy-back)\n{}\n{}",
            t.render(),
            plot
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig::builder()
            .trace_len(6_000)
            .sizes(vec![256, 1024, 8192])
            .threads(2)
            .build()
            .unwrap()
    }

    #[test]
    fn runs_all_57_rows() {
        let t = run(&tiny());
        assert_eq!(t.rows.len(), 57);
        assert_eq!(t.group_averages.len(), 8);
        for row in &t.rows {
            assert_eq!(row.miss_ratios.len(), 3);
            for w in row.miss_ratios.windows(2) {
                assert!(w[1] <= w[0] + 1e-12, "{} not monotone", row.name);
            }
        }
    }

    #[test]
    fn mvs_is_worst_m68000_best_at_1k() {
        let t = run(&tiny());
        let avg = |label: &str| {
            t.group_averages
                .iter()
                .find(|(g, _)| g == label)
                .map(|(_, v)| v[1])
                .unwrap()
        };
        assert!(avg("IBM 370 MVS") > avg("VAX"));
        assert!(avg("VAX") > avg("M68000"));
        assert!(avg("Z8000") < avg("IBM 370"));
    }

    #[test]
    fn render_contains_groups_and_sections() {
        let t = run(&tiny());
        let s = t.render();
        assert!(s.contains("MVS1"));
        assert!(s.contains("VAXIMA3"));
        assert!(s.contains("avg M68000"));
    }

    #[test]
    fn csv_has_all_rows() {
        let t = run(&tiny());
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 58); // header + 57 rows
        assert!(csv.lines().nth(1).unwrap().starts_with("MVS1,"));
    }

    #[test]
    fn column_extraction() {
        let t = run(&tiny());
        assert_eq!(t.column(1024).len(), 57);
    }
}
