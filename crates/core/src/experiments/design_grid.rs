//! **Design-space grid** — the paper's central claim made quantitative:
//! sweeping every workload across the whole cache-size × associativity
//! design space shows that the spread caused by *workload choice* dwarfs
//! the spread caused by associativity at any fixed geometry.
//!
//! The entire grid for each workload is produced by the one-pass
//! multi-configuration engine ([`smith85_cachesim::one_pass_grid`]) in a
//! single trace traversal — this experiment is the suite's consumer of
//! that engine (the per-cell results are bit-identical to per-config
//! simulation; `crates/cachesim/tests/one_pass_equiv.rs` pins that).
//! Grids run un-purged, copy-back with fetch-on-write, 16-byte lines.

use crate::experiments::{table3_workloads, ExperimentConfig};
use crate::report::{fmt_ratio, TextTable};
use crate::sweep::parallel_map;
use smith85_cachesim::{one_pass_grid, GridSpec};

/// The associativities crossed with every size (the fully-associative
/// point of each size rides along as a fifth column).
pub const GRID_WAYS: [usize; 4] = [1, 2, 4, 8];

/// One workload's full design-space grid.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignGridRow {
    /// Workload name.
    pub name: String,
    /// `miss_ratios[size_index][way_index]`, way order [`GRID_WAYS`]
    /// then fully-associative; `None` where the cell is unrealizable
    /// (more ways than lines).
    pub miss_ratios: Vec<Vec<Option<f64>>>,
    /// Traffic ratios on the same grid.
    pub traffic_ratios: Vec<Vec<Option<f64>>>,
    /// Miss-ratio spread (max − min) across realizable associativities
    /// at the largest swept size.
    pub assoc_spread: f64,
}

/// The design-space study: every workload × every grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignGridStudy {
    /// Sizes swept (the config's size sweep).
    pub sizes: Vec<usize>,
    /// Per-workload grids.
    pub rows: Vec<DesignGridRow>,
    /// Miss-ratio spread (max − min) across *workloads* for the
    /// direct-mapped cell at the largest swept size — the number to
    /// compare against each row's `assoc_spread`.
    pub workload_spread: f64,
}

/// Runs the study. Memoized in the config's shared pool.
pub fn run(config: &ExperimentConfig) -> DesignGridStudy {
    let key = format!("design_grid/{}/{:?}", config.trace_len, config.sizes);
    (*config.pool.result(&key, || compute(config))).clone()
}

fn compute(config: &ExperimentConfig) -> DesignGridStudy {
    let sizes = config.sizes.clone();
    let len = config.trace_len;
    let mut spec = GridSpec::new(sizes.clone(), GRID_WAYS.to_vec());
    spec.include_fully_associative = true;
    let rows = parallel_map(config, table3_workloads(), |w| {
        let trace = config.workload_trace(&w);
        let replay = &trace.as_slice()[..len];
        let grid =
            one_pass_grid(replay, &spec).expect("paper grid is inside the one-pass envelope");
        config.metrics.one_pass_refs.add(len as u64);
        config.metrics.one_pass_cells.add(grid.cells().len() as u64);
        let cell_columns = |size: usize| -> Vec<Option<usize>> {
            let lines = size / spec.line_size;
            GRID_WAYS
                .iter()
                .map(|&w| (w <= lines).then_some(w))
                .chain(std::iter::once(Some(lines)))
                .collect()
        };
        let miss_ratios: Vec<Vec<Option<f64>>> = sizes
            .iter()
            .map(|&s| {
                cell_columns(s)
                    .into_iter()
                    .map(|w| w.and_then(|w| grid.miss_ratio(s, w)))
                    .collect()
            })
            .collect();
        let traffic_ratios: Vec<Vec<Option<f64>>> = sizes
            .iter()
            .map(|&s| {
                cell_columns(s)
                    .into_iter()
                    .map(|w| {
                        w.and_then(|w| grid.cell_stats(s, w)).map(|st| st.traffic_ratio())
                    })
                    .collect()
            })
            .collect();
        let assoc_spread = spread(miss_ratios.last().expect("at least one size"));
        DesignGridRow {
            name: w.name().to_string(),
            miss_ratios,
            traffic_ratios,
            assoc_spread,
        }
    });
    let direct_at_largest: Vec<Option<f64>> = rows
        .iter()
        .map(|r| r.miss_ratios.last().and_then(|v| v[0]))
        .collect();
    let workload_spread = spread(&direct_at_largest);
    DesignGridStudy {
        sizes,
        rows,
        workload_spread,
    }
}

/// Max − min over the present values (0 when fewer than two).
fn spread(values: &[Option<f64>]) -> f64 {
    let present: Vec<f64> = values.iter().filter_map(|&v| v).collect();
    match (
        present.iter().cloned().reduce(f64::max),
        present.iter().cloned().reduce(f64::min),
    ) {
        (Some(max), Some(min)) => max - min,
        _ => 0.0,
    }
}

impl DesignGridStudy {
    /// Renders the study: per-workload associativity columns at the
    /// largest size, then the spread comparison.
    pub fn render(&self) -> String {
        let largest = *self.sizes.last().expect("at least one size");
        let mut headers = vec!["workload".to_string()];
        headers.extend(GRID_WAYS.iter().map(|w| format!("{w}-way")));
        headers.push("full".to_string());
        headers.push("assoc spread".to_string());
        let mut t = TextTable::new(headers);
        for r in &self.rows {
            let mut cells = vec![r.name.clone()];
            let row = r.miss_ratios.last().expect("at least one size");
            cells.extend(
                row.iter()
                    .map(|v| v.map(fmt_ratio).unwrap_or_else(|| "-".to_string())),
            );
            cells.push(fmt_ratio(r.assoc_spread));
            t.row(cells);
        }
        let max_assoc_spread = self
            .rows
            .iter()
            .map(|r| r.assoc_spread)
            .fold(0.0, f64::max);
        format!(
            "Design-space grid: miss ratio by associativity at {largest} B \
             (one-pass engine, copy-back, 16 B lines)\n{}\n\
             Workload spread (direct-mapped @ {largest} B): {} — vs largest \
             associativity spread {}: choosing the workload moves the answer \
             {}x more than choosing the associativity.\n",
            t.render(),
            fmt_ratio(self.workload_spread),
            fmt_ratio(max_assoc_spread),
            if max_assoc_spread > 0.0 {
                format!("{:.0}", self.workload_spread / max_assoc_spread)
            } else {
                "∞".to_string()
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig::builder()
            .trace_len(20_000)
            .sizes(vec![64, 1024, 16384])
            .threads(4)
            .build()
            .unwrap()
    }

    #[test]
    fn grid_covers_every_workload_and_size() {
        let s = run(&tiny());
        assert_eq!(s.rows.len(), table3_workloads().len());
        for r in &s.rows {
            assert_eq!(r.miss_ratios.len(), 3);
            // 4 explicit ways + the fully-associative point.
            assert!(r.miss_ratios.iter().all(|row| row.len() == 5));
        }
    }

    #[test]
    fn unrealizable_cells_are_none_realizable_are_some() {
        let s = run(&tiny());
        for r in &s.rows {
            // 64 B / 16 B lines = 4 lines: 8-way is unrealizable.
            assert!(r.miss_ratios[0][3].is_none(), "{}", r.name);
            assert!(r.miss_ratios[0][0].is_some(), "{}", r.name);
            // Full-assoc at 16 KiB exists and LRU inclusion holds vs 1-way.
            let full = r.miss_ratios[2][4].unwrap();
            let direct = r.miss_ratios[2][0].unwrap();
            assert!(full <= direct + 1e-12, "{}", r.name);
        }
    }

    #[test]
    fn workload_choice_dominates_associativity() {
        // The paper's claim, and this experiment's reason to exist.
        let s = run(&tiny());
        let max_assoc = s.rows.iter().map(|r| r.assoc_spread).fold(0.0, f64::max);
        assert!(
            s.workload_spread > max_assoc,
            "workload spread {} <= assoc spread {max_assoc}",
            s.workload_spread
        );
    }

    #[test]
    fn render_compares_the_spreads() {
        let text = run(&tiny()).render();
        assert!(text.contains("Workload spread"));
        assert!(text.contains("one-pass"));
    }
}
