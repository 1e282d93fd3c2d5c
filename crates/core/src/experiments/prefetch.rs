//! **Figures 5-10 and Table 4** — the prefetching study.
//!
//! For every workload and cache size, four simulations run: unified and
//! split organisations, each with demand fetch and with "prefetch always"
//! (§3.5). From them:
//!
//! * Figures 5/6/7 — the ratio of the prefetch miss ratio to the demand
//!   miss ratio (unified / instruction / data);
//! * Figures 8/9/10 — the factor by which memory traffic grows with
//!   prefetch (unified / instruction / data);
//! * Table 4 — workload-aggregate traffic factors (sum of prefetch
//!   traffic over sum of demand traffic, the paper's averaging rule).

use crate::experiments::{table3_workloads, ExperimentConfig, Workload};
use crate::report::{fmt_factor, render_series, TextTable};
use crate::targets::{self, CacheKind};
use crate::sweep::parallel_map;
use smith85_cachesim::{
    CacheConfig, CacheStats, FetchPolicy, Simulator, SplitCache, UnifiedCache,
};

/// Miss and traffic numbers for one (workload, size, organisation) cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyPair {
    /// Miss ratio under demand fetch.
    pub demand_miss: f64,
    /// Miss ratio under prefetch-always.
    pub prefetch_miss: f64,
    /// Memory traffic (bytes) under demand fetch.
    pub demand_traffic: u64,
    /// Memory traffic (bytes) under prefetch-always.
    pub prefetch_traffic: u64,
}

impl PolicyPair {
    /// Prefetch-to-demand miss-ratio factor (1.0 when the demand run had
    /// no misses).
    pub fn miss_factor(&self) -> f64 {
        if self.demand_miss == 0.0 {
            1.0
        } else {
            self.prefetch_miss / self.demand_miss
        }
    }

    /// Prefetch-to-demand traffic factor (1.0 when the demand run moved no
    /// bytes).
    pub fn traffic_factor(&self) -> f64 {
        if self.demand_traffic == 0 {
            1.0
        } else {
            self.prefetch_traffic as f64 / self.demand_traffic as f64
        }
    }
}

/// One workload's cells across the size sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PrefetchRow {
    /// Workload name.
    pub name: String,
    /// Unified-cache cells per size.
    pub unified: Vec<PolicyPair>,
    /// Instruction-cache cells per size (split organisation).
    pub instruction: Vec<PolicyPair>,
    /// Data-cache cells per size (split organisation).
    pub data: Vec<PolicyPair>,
}

/// The full prefetch-study result.
#[derive(Debug, Clone, PartialEq)]
pub struct PrefetchStudy {
    /// Cache sizes swept (bytes).
    pub sizes: Vec<usize>,
    /// Per-workload rows.
    pub rows: Vec<PrefetchRow>,
    /// Table 4: per size, aggregate (unified, instruction, data) traffic
    /// factors.
    pub table4: Vec<(usize, f64, f64, f64)>,
}

fn miss_of(stats: &CacheStats, kind: CacheKind) -> f64 {
    match kind {
        CacheKind::Unified => stats.miss_ratio(),
        CacheKind::Instruction => stats.instruction_miss_ratio(),
        CacheKind::Data => stats.data_miss_ratio(),
    }
}

struct Cell {
    unified: PolicyPair,
    instruction: PolicyPair,
    data: PolicyPair,
}

fn simulate_cell(w: &Workload, size: usize, trace: &[smith85_trace::MemoryAccess]) -> Cell {
    let purge = w.purge_interval();
    let config_for = |fetch: FetchPolicy, purged: bool| {
        CacheConfig::builder(size)
            .fetch_policy(fetch)
            .purge_interval(if purged { Some(purge) } else { None })
            .build()
            .expect("valid sweep configuration")
    };
    let run_unified = |fetch: FetchPolicy| {
        let mut c = UnifiedCache::new(config_for(fetch, true)).expect("valid config");
        c.run_slice(trace);
        *c.stats()
    };
    let run_split = |fetch: FetchPolicy| {
        let cfg = config_for(fetch, false);
        let mut c = SplitCache::new(cfg, cfg, Some(purge)).expect("valid config");
        c.run_slice(trace);
        (*c.instruction_stats(), *c.data_stats())
    };
    let ud = run_unified(FetchPolicy::Demand);
    let up = run_unified(FetchPolicy::PrefetchAlways);
    let (id, dd) = run_split(FetchPolicy::Demand);
    let (ip, dp) = run_split(FetchPolicy::PrefetchAlways);
    let pair = |d: &CacheStats, p: &CacheStats, kind: CacheKind| PolicyPair {
        demand_miss: miss_of(d, kind),
        prefetch_miss: miss_of(p, kind),
        demand_traffic: d.traffic_bytes(),
        prefetch_traffic: p.traffic_bytes(),
    };
    Cell {
        unified: pair(&ud, &up, CacheKind::Unified),
        instruction: pair(&id, &ip, CacheKind::Instruction),
        data: pair(&dd, &dp, CacheKind::Data),
    }
}

/// Runs the study. Memoized in the config's shared pool — the heaviest
/// simulation grid in the suite, and `conclusions` re-derives it.
pub fn run(config: &ExperimentConfig) -> PrefetchStudy {
    let key = format!("prefetch/{}/{:?}", config.trace_len, config.sizes);
    (*config.pool.result(&key, || compute(config))).clone()
}

fn compute(config: &ExperimentConfig) -> PrefetchStudy {
    let sizes = config.sizes.clone();
    let len = config.trace_len;
    let jobs: Vec<_> = table3_workloads()
        .into_iter()
        .flat_map(|w| sizes.iter().map(move |&s| (w.clone(), s)).collect::<Vec<_>>())
        .collect();
    let cells = parallel_map(config, jobs, |(w, size)| {
        let trace = config.workload_trace(&w);
        let cell = simulate_cell(&w, size, &trace.as_slice()[..len]);
        (w.name().to_string(), size, cell)
    });

    let mut rows = Vec::new();
    for w in table3_workloads() {
        let name = w.name().to_string();
        let mut row = PrefetchRow {
            name: name.clone(),
            unified: Vec::new(),
            instruction: Vec::new(),
            data: Vec::new(),
        };
        for &s in &sizes {
            let cell = &cells
                .iter()
                .find(|(n, sz, _)| *n == name && *sz == s)
                .expect("every cell simulated")
                .2;
            row.unified.push(cell.unified);
            row.instruction.push(cell.instruction);
            row.data.push(cell.data);
        }
        rows.push(row);
    }

    // Table 4: the paper's averaging rule — sum prefetch traffic over sum
    // demand traffic, per organisation and size.
    let table4 = sizes
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            let agg = |get: &dyn Fn(&PrefetchRow) -> &Vec<PolicyPair>| {
                let (p, d) = rows.iter().fold((0u64, 0u64), |(p, d), r| {
                    let cell = &get(r)[i];
                    (p + cell.prefetch_traffic, d + cell.demand_traffic)
                });
                if d == 0 {
                    1.0
                } else {
                    p as f64 / d as f64
                }
            };
            (
                s,
                agg(&|r: &PrefetchRow| &r.unified),
                agg(&|r: &PrefetchRow| &r.instruction),
                agg(&|r: &PrefetchRow| &r.data),
            )
        })
        .collect();

    PrefetchStudy {
        sizes,
        rows,
        table4,
    }
}

impl PrefetchStudy {
    /// Figure 5/6/7 series: per-workload miss-ratio factors.
    pub fn miss_factor_series(&self, kind: CacheKind) -> Vec<(String, Vec<f64>)> {
        self.rows
            .iter()
            .map(|r| {
                let cells = match kind {
                    CacheKind::Unified => &r.unified,
                    CacheKind::Instruction => &r.instruction,
                    CacheKind::Data => &r.data,
                };
                (r.name.clone(), cells.iter().map(PolicyPair::miss_factor).collect())
            })
            .collect()
    }

    /// Figure 8/9/10 series: per-workload traffic factors.
    pub fn traffic_factor_series(&self, kind: CacheKind) -> Vec<(String, Vec<f64>)> {
        self.rows
            .iter()
            .map(|r| {
                let cells = match kind {
                    CacheKind::Unified => &r.unified,
                    CacheKind::Instruction => &r.instruction,
                    CacheKind::Data => &r.data,
                };
                (
                    r.name.clone(),
                    cells.iter().map(PolicyPair::traffic_factor).collect(),
                )
            })
            .collect()
    }

    /// Renders Figures 5/6/7 (miss-ratio factors).
    fn render_miss_factors(&self) -> String {
        let mut out = String::new();
        for (fig, kind) in [
            ("Figure 5: unified", CacheKind::Unified),
            ("Figure 6: instruction", CacheKind::Instruction),
            ("Figure 7: data", CacheKind::Data),
        ] {
            let series = self.miss_factor_series(kind);
            out.push_str(&render_series(
                &format!("{fig} miss-ratio factor, prefetch / demand"),
                &self.sizes,
                &series,
            ));
            out.push('\n');
            out.push_str(&crate::report::ascii_plot(
                &format!("{fig} (log y)"),
                &self.sizes,
                &series,
            ));
            out.push('\n');
        }
        out
    }

    /// Renders Figures 8/9/10 and Table 4 (traffic factors).
    fn render_traffic_factors(&self) -> String {
        let mut out = String::new();
        for (fig, kind) in [
            ("Figure 8: unified", CacheKind::Unified),
            ("Figure 9: instruction", CacheKind::Instruction),
            ("Figure 10: data", CacheKind::Data),
        ] {
            out.push_str(&render_series(
                &format!("{fig} traffic factor, prefetch / demand"),
                &self.sizes,
                &self.traffic_factor_series(kind),
            ));
            out.push('\n');
        }
        let mut t = TextTable::new(vec![
            "size", "unified", "instr", "data", "paper-unified", "paper-instr", "paper-data",
        ]);
        for &(s, u, i, d) in &self.table4 {
            t.row(vec![
                s.to_string(),
                fmt_factor(u),
                fmt_factor(i),
                fmt_factor(d),
                fmt_factor(targets::traffic_factor(s, CacheKind::Unified)),
                fmt_factor(targets::traffic_factor(s, CacheKind::Instruction)),
                fmt_factor(targets::traffic_factor(s, CacheKind::Data)),
            ]);
        }
        out.push_str(&format!(
            "Table 4: aggregate traffic factor, prefetch / demand\n{}",
            t.render()
        ));
        out
    }

    /// Renders Figures 5-10 and Table 4.
    pub fn render(&self) -> String {
        format!("{}{}", self.render_miss_factors(), self.render_traffic_factors())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig::builder()
            .trace_len(25_000)
            .sizes(vec![512, 8192])
            .threads(4)
            .build()
            .unwrap()
    }

    #[test]
    fn study_covers_grid() {
        let s = run(&tiny());
        assert_eq!(s.rows.len(), 16);
        assert_eq!(s.table4.len(), 2);
        for r in &s.rows {
            assert_eq!(r.unified.len(), 2);
        }
    }

    #[test]
    fn prefetch_never_cuts_traffic() {
        let s = run(&tiny());
        for &(size, u, i, d) in &s.table4 {
            assert!(u >= 1.0 - 1e-9, "unified factor {u} at {size}");
            assert!(i >= 1.0 - 1e-9, "instruction factor {i} at {size}");
            assert!(d >= 1.0 - 1e-9, "data factor {d} at {size}");
        }
    }

    #[test]
    fn instruction_prefetch_helps_at_large_sizes() {
        let s = run(&tiny());
        // §3.5.1: at >2K, instruction prefetching always cuts the miss
        // ratio, usually by more than half. Check the workload mean at 8K.
        let factors: Vec<f64> = s
            .miss_factor_series(CacheKind::Instruction)
            .iter()
            .map(|(_, f)| f[1])
            .collect();
        let mean = crate::stat_util::mean(&factors);
        assert!(mean < 0.75, "mean instruction prefetch factor {mean}");
    }

    #[test]
    fn render_mentions_every_figure_and_table() {
        let s = run(&tiny()).render();
        for needle in ["Figure 5", "Figure 6", "Figure 7", "Figure 8", "Figure 9", "Figure 10", "Table 4"] {
            assert!(s.contains(needle), "missing {needle}");
        }
    }
}
