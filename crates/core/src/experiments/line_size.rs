//! **The line-size study** — §5's announced future work: "the effect of
//! line size on miss ratio needs to be quantified beyond the general
//! statements made here ... research on this topic is in progress" (it
//! became Smith's 1987 line-size paper).
//!
//! For every workload and several cache sizes, sweep the line size and
//! report (a) the miss ratio, (b) the traffic ratio, and (c) the
//! miss-optimal and traffic-optimal line sizes. The qualitative law the
//! 1987 paper established shows up clearly: the miss-optimal line grows
//! with cache size, while the traffic-optimal line is much shorter.

use crate::experiments::{lru_miss_ratios, table3_workloads, ExperimentConfig, Workload};
use crate::report::{fmt_ratio, TextTable};
use crate::sweep::parallel_map;

/// Line sizes swept.
pub const LINE_SIZES: [usize; 6] = [4, 8, 16, 32, 64, 128];
/// Cache sizes examined.
pub const CACHE_SIZES: [usize; 3] = [1024, 4096, 16384];

/// One (workload, cache size) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct LineSizeCell {
    /// Cache size in bytes.
    pub cache_bytes: usize,
    /// Miss ratio at each swept line size.
    pub miss: Vec<f64>,
    /// Traffic ratio (bus bytes / demanded bytes) at each line size.
    pub traffic_ratio: Vec<f64>,
    /// Line size minimizing the miss ratio.
    pub miss_optimal: usize,
    /// Line size minimizing the traffic ratio.
    pub traffic_optimal: usize,
}

/// One workload's cells.
#[derive(Debug, Clone, PartialEq)]
pub struct LineSizeRow {
    /// Workload name.
    pub name: String,
    /// One cell per examined cache size.
    pub cells: Vec<LineSizeCell>,
}

/// The line-size study.
#[derive(Debug, Clone, PartialEq)]
pub struct LineSizeStudy {
    /// Per-workload rows.
    pub rows: Vec<LineSizeRow>,
}

fn argmin(xs: &[f64]) -> usize {
    xs.iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("no NaNs"))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// Runs the study. Fetch traffic is approximated as `miss × line_size`
/// per reference (demand fetch, no write-back term), which is the
/// standard line-size trade; one size sweep gives all cache sizes per
/// (workload, line size) pass.
pub fn run(config: &ExperimentConfig) -> LineSizeStudy {
    let len = config.trace_len;
    let rows = parallel_map(config, table3_workloads(), move |w: Workload| {
        // One size sweep per line size covers every cache size, all
        // replaying the same pooled trace.
        let trace = config.workload_trace(&w);
        let replay = &trace.as_slice()[..len];
        let demanded_bytes: u64 = replay.iter().map(|a| a.size as u64).sum();
        let curves: Vec<Vec<f64>> = LINE_SIZES
            .iter()
            .map(|&ls| lru_miss_ratios(replay, &CACHE_SIZES, ls))
            .collect();
        let per_ref_demand = demanded_bytes as f64 / len as f64;
        let cells = CACHE_SIZES
            .iter()
            .enumerate()
            .map(|(i, &cache)| {
                let miss: Vec<f64> = curves.iter().map(|curve| curve[i]).collect();
                let traffic_ratio: Vec<f64> = miss
                    .iter()
                    .zip(&LINE_SIZES)
                    .map(|(&m, &ls)| m * ls as f64 / per_ref_demand)
                    .collect();
                LineSizeCell {
                    cache_bytes: cache,
                    miss_optimal: LINE_SIZES[argmin(&miss)],
                    traffic_optimal: LINE_SIZES[argmin(&traffic_ratio)],
                    miss,
                    traffic_ratio,
                }
            })
            .collect();
        LineSizeRow {
            name: w.name().to_string(),
            cells,
        }
    });
    LineSizeStudy { rows }
}

impl LineSizeStudy {
    /// Mean miss-optimal line size at one cache size.
    pub fn mean_miss_optimal(&self, cache_bytes: usize) -> f64 {
        let v: Vec<f64> = self
            .rows
            .iter()
            .filter_map(|r| {
                r.cells
                    .iter()
                    .find(|c| c.cache_bytes == cache_bytes)
                    .map(|c| c.miss_optimal as f64)
            })
            .collect();
        crate::stat_util::mean(&v)
    }

    /// Renders the study.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for &cache in &CACHE_SIZES {
            let mut headers = vec!["workload".to_string()];
            headers.extend(LINE_SIZES.iter().map(|l| format!("m@{l}B")));
            headers.push("opt-miss".to_string());
            headers.push("opt-traffic".to_string());
            let mut t = TextTable::new(headers);
            for r in &self.rows {
                let cell = r
                    .cells
                    .iter()
                    .find(|c| c.cache_bytes == cache)
                    .expect("cell per cache size");
                let mut cells = vec![r.name.clone()];
                cells.extend(cell.miss.iter().map(|m| fmt_ratio(*m)));
                cells.push(format!("{}B", cell.miss_optimal));
                cells.push(format!("{}B", cell.traffic_optimal));
                t.row(cells);
            }
            out.push_str(&format!(
                "Line-size study at {cache} B (miss ratio per line size; §5 \
                 future work)\n{}\n",
                t.render()
            ));
        }
        out.push_str(&format!(
            "mean miss-optimal line size: {:.0} B at 1K, {:.0} B at 4K, \
             {:.0} B at 16K — the optimum grows with cache size; the \
             traffic-optimal line stays short.\n",
            self.mean_miss_optimal(1024),
            self.mean_miss_optimal(4096),
            self.mean_miss_optimal(16384),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig::builder()
            .trace_len(25_000)
            .sizes(vec![1024])
            .threads(crate::sweep::default_threads())
            .build()
            .unwrap()
    }

    #[test]
    fn covers_the_grid() {
        let s = run(&tiny());
        assert_eq!(s.rows.len(), 16);
        for r in &s.rows {
            assert_eq!(r.cells.len(), 3);
            for c in &r.cells {
                assert_eq!(c.miss.len(), LINE_SIZES.len());
                assert!(LINE_SIZES.contains(&c.miss_optimal));
            }
        }
    }

    #[test]
    fn longer_lines_help_misses_up_to_a_point() {
        let s = run(&tiny());
        for r in &s.rows {
            let c = &r.cells[1]; // 4 KiB
            // 16B always beats 4B on miss ratio for these workloads.
            assert!(c.miss[2] < c.miss[0], "{}: {:?}", r.name, c.miss);
        }
    }

    #[test]
    fn miss_optimum_grows_with_cache_size() {
        let s = run(&tiny());
        let small = s.mean_miss_optimal(1024);
        let large = s.mean_miss_optimal(16384);
        assert!(
            large >= small,
            "optimum shrank with cache size: {small} -> {large}"
        );
    }

    #[test]
    fn traffic_optimum_is_no_longer_than_miss_optimum() {
        let s = run(&tiny());
        let mut violations = 0;
        for r in &s.rows {
            for c in &r.cells {
                if c.traffic_optimal > c.miss_optimal {
                    violations += 1;
                }
            }
        }
        assert_eq!(violations, 0);
    }

    #[test]
    fn render_sections_per_cache_size() {
        let s = run(&tiny()).render();
        assert!(s.contains("1024 B"));
        assert!(s.contains("16384 B"));
        assert!(s.contains("opt-miss"));
    }
}
