//! **Figures 3 & 4** — instruction-cache and data-cache miss ratios versus
//! cache size, for the split organisation with task-switch purging.
//!
//! Same simulation setup as Table 3 (split caches, 16-byte lines, LRU,
//! purge every 20,000 references), with each half's size swept.

use crate::experiments::{table3_workloads, ExperimentConfig};
use crate::report::render_series;
use crate::sweep::parallel_map;
use smith85_cachesim::{Simulator, SplitCache};

/// One workload's curves.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitMissRow {
    /// Workload name.
    pub name: String,
    /// Instruction-cache miss ratios per size (Figure 3).
    pub instruction: Vec<f64>,
    /// Data-cache miss ratios per size (Figure 4).
    pub data: Vec<f64>,
}

/// The Figures 3 & 4 result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Fig4 {
    /// Cache sizes swept (each half's size, bytes).
    pub sizes: Vec<usize>,
    /// Per-workload rows.
    pub rows: Vec<SplitMissRow>,
}

/// Runs the experiment. Memoized in the config's shared pool — `table5`
/// re-derives the split curves under the same configuration.
pub fn run(config: &ExperimentConfig) -> Fig3Fig4 {
    let key = format!("fig3_4/{}/{:?}", config.trace_len, config.sizes);
    (*config.pool.result(&key, || compute(config))).clone()
}

fn compute(config: &ExperimentConfig) -> Fig3Fig4 {
    let sizes = config.sizes.clone();
    let len = config.trace_len;
    let jobs: Vec<_> = table3_workloads()
        .into_iter()
        .flat_map(|w| sizes.iter().map(move |&s| (w.clone(), s)).collect::<Vec<_>>())
        .collect();
    let results = parallel_map(config, jobs, |(w, size)| {
        let trace = config.workload_trace(&w);
        let mut cache =
            SplitCache::paper_split(size, w.purge_interval()).expect("valid split config");
        cache.run_slice(&trace.as_slice()[..len]);
        (
            w.name().to_string(),
            size,
            cache.instruction_stats().instruction_miss_ratio(),
            cache.data_stats().data_miss_ratio(),
        )
    });
    let mut rows: Vec<SplitMissRow> = Vec::new();
    for w in table3_workloads() {
        let name = w.name().to_string();
        let mut instruction = Vec::new();
        let mut data = Vec::new();
        for &s in &sizes {
            let r = results
                .iter()
                .find(|(n, sz, _, _)| *n == name && *sz == s)
                .expect("every job completed");
            instruction.push(r.2);
            data.push(r.3);
        }
        rows.push(SplitMissRow {
            name,
            instruction,
            data,
        });
    }
    Fig3Fig4 { sizes, rows }
}

impl Fig3Fig4 {
    /// All instruction miss ratios at one size index.
    pub fn instruction_column(&self, idx: usize) -> Vec<f64> {
        self.rows.iter().map(|r| r.instruction[idx]).collect()
    }

    /// All data miss ratios at one size index.
    pub fn data_column(&self, idx: usize) -> Vec<f64> {
        self.rows.iter().map(|r| r.data[idx]).collect()
    }

    /// Renders both figures.
    pub fn render(&self) -> String {
        let instr: Vec<(String, Vec<f64>)> = self
            .rows
            .iter()
            .map(|r| (r.name.clone(), r.instruction.clone()))
            .collect();
        let data: Vec<(String, Vec<f64>)> = self
            .rows
            .iter()
            .map(|r| (r.name.clone(), r.data.clone()))
            .collect();
        format!(
            "{}\n{}\n{}\n{}",
            render_series(
                "Figure 3: instruction-cache miss ratio vs size (split, purge 20k)",
                &self.sizes,
                &instr,
            ),
            crate::report::ascii_plot("Figure 3 (log y)", &self.sizes, &instr),
            render_series(
                "Figure 4: data-cache miss ratio vs size (split, purge 20k)",
                &self.sizes,
                &data,
            ),
            crate::report::ascii_plot("Figure 4 (log y)", &self.sizes, &data)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig::builder()
            .trace_len(25_000)
            .sizes(vec![256, 2048])
            .threads(4)
            .build()
            .unwrap()
    }

    #[test]
    fn all_workloads_and_sizes_present() {
        let f = run(&tiny());
        assert_eq!(f.rows.len(), 16);
        for r in &f.rows {
            assert_eq!(r.instruction.len(), 2);
            assert_eq!(r.data.len(), 2);
            // Bigger cache never hurts under LRU with purging.
            assert!(r.instruction[1] <= r.instruction[0] + 0.02, "{}", r.name);
            assert!(r.data[1] <= r.data[0] + 0.02, "{}", r.name);
        }
    }

    #[test]
    fn miss_ratios_are_probabilities() {
        let f = run(&tiny());
        for r in &f.rows {
            for &m in r.instruction.iter().chain(&r.data) {
                assert!((0.0..=1.0).contains(&m), "{}: {m}", r.name);
            }
        }
    }

    #[test]
    fn render_has_both_figures() {
        let s = run(&tiny()).render();
        assert!(s.contains("Figure 3"));
        assert!(s.contains("Figure 4"));
    }
}
