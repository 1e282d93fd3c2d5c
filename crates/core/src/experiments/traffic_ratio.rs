//! **Traffic ratio** — §5's closing warning, after \[Hil84\]: "caches always
//! work ... The traffic ratio, however, may not be lower than 1.0 and that
//! parameter needs to be carefully watched."
//!
//! The traffic ratio compares the bytes a cache moves on the memory bus to
//! the bytes a cacheless machine would move. Long lines amplify every miss
//! by `line_size / access_size`, so small caches can *add* bus traffic even
//! while they remove misses. This experiment sweeps cache size for every
//! workload and reports where the ratio crosses below 1.0.

use crate::experiments::{table3_workloads, ExperimentConfig};
use crate::report::{fmt_factor, TextTable};
use crate::sweep::parallel_map;
use smith85_cachesim::{CacheConfig, Simulator, UnifiedCache, WritePolicy};

/// One workload's traffic-ratio curve.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficRatioRow {
    /// Workload name.
    pub name: String,
    /// Traffic ratio at each swept size (copy-back, 16-byte lines).
    pub copy_back: Vec<f64>,
    /// Traffic ratio at each swept size (write-through with allocate).
    pub write_through: Vec<f64>,
    /// First swept size at which the copy-back ratio drops below 1.0
    /// (`None` if it never does).
    pub crossover: Option<usize>,
}

/// The traffic-ratio study.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficRatioStudy {
    /// Sizes swept.
    pub sizes: Vec<usize>,
    /// Per-workload rows.
    pub rows: Vec<TrafficRatioRow>,
}

/// Runs the study. Memoized in the config's shared pool, so the
/// `conclusions` re-derivation is free under the suite's configuration.
pub fn run(config: &ExperimentConfig) -> TrafficRatioStudy {
    let key = format!("traffic_ratio/{}/{:?}", config.trace_len, config.sizes);
    (*config.pool.result(&key, || compute(config))).clone()
}

fn compute(config: &ExperimentConfig) -> TrafficRatioStudy {
    let sizes = config.sizes.clone();
    let len = config.trace_len;
    let rows = parallel_map(config, table3_workloads(), |w| {
        let trace = config.workload_trace(&w);
        let replay = &trace.as_slice()[..len];
        let ratio_for = |policy: WritePolicy, size: usize| {
            let cfg = CacheConfig::builder(size)
                .write_policy(policy)
                .purge_interval(Some(w.purge_interval()))
                .build()
                .expect("valid sweep configuration");
            let mut cache = UnifiedCache::new(cfg).expect("valid config");
            cache.run_slice(replay);
            cache.stats().traffic_ratio()
        };
        let copy_back: Vec<f64> = sizes
            .iter()
            .map(|&s| ratio_for(WritePolicy::PAPER, s))
            .collect();
        let write_through: Vec<f64> = sizes
            .iter()
            .map(|&s| ratio_for(WritePolicy::WriteThrough { allocate: true }, s))
            .collect();
        let crossover = sizes
            .iter()
            .zip(&copy_back)
            .find(|(_, &r)| r < 1.0)
            .map(|(&s, _)| s);
        TrafficRatioRow {
            name: w.name().to_string(),
            copy_back,
            write_through,
            crossover,
        }
    });
    TrafficRatioStudy { sizes, rows }
}

impl TrafficRatioStudy {
    /// Renders the study.
    pub fn render(&self) -> String {
        let mut headers = vec!["workload".to_string()];
        headers.extend(self.sizes.iter().map(|s| format!("cb@{s}")));
        headers.push("crossover".to_string());
        let mut t = TextTable::new(headers);
        for r in &self.rows {
            let mut cells = vec![r.name.clone()];
            cells.extend(r.copy_back.iter().map(|x| fmt_factor(*x)));
            cells.push(
                r.crossover
                    .map(|s| s.to_string())
                    .unwrap_or_else(|| "never".to_string()),
            );
            t.row(cells);
        }
        let mut wt = TextTable::new(
            std::iter::once("workload".to_string())
                .chain(self.sizes.iter().map(|s| format!("wt@{s}")))
                .collect::<Vec<_>>(),
        );
        for r in &self.rows {
            let mut cells = vec![r.name.clone()];
            cells.extend(r.write_through.iter().map(|x| fmt_factor(*x)));
            wt.row(cells);
        }
        format!(
            "Traffic ratio (cache bus bytes / cacheless bus bytes), \
             copy-back 16B lines — §5 / [Hil84]\n{}\n\
             Write-through (allocate) for comparison:\n{}",
            t.render(),
            wt.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig::builder()
            .trace_len(25_000)
            .sizes(vec![64, 1024, 16384])
            .threads(4)
            .build()
            .unwrap()
    }

    #[test]
    fn small_caches_amplify_traffic() {
        let s = run(&tiny());
        // At 64 bytes, with 16-byte lines and ≤8-byte accesses, most
        // workloads move more bus bytes with the cache than without.
        let above = s.rows.iter().filter(|r| r.copy_back[0] > 1.0).count();
        assert!(above >= s.rows.len() / 2, "only {above} above 1.0");
    }

    #[test]
    fn large_caches_cut_traffic_below_one() {
        let s = run(&tiny());
        for r in &s.rows {
            assert!(
                r.copy_back[2] < 1.0,
                "{}: ratio {} at 16K",
                r.name,
                r.copy_back[2]
            );
        }
    }

    #[test]
    fn crossover_is_reported() {
        let s = run(&tiny());
        for r in &s.rows {
            if let Some(c) = r.crossover {
                assert!(s.sizes.contains(&c));
            }
            // Ratios decline with size.
            assert!(r.copy_back[2] <= r.copy_back[0] + 1e-9, "{}", r.name);
        }
    }

    #[test]
    fn write_through_floor_is_the_store_traffic() {
        // Write-through can never go below the demanded store bytes share.
        let s = run(&tiny());
        for r in &s.rows {
            assert!(r.write_through[2] > 0.02, "{}", r.name);
        }
    }

    #[test]
    fn render_mentions_crossover() {
        assert!(run(&tiny()).render().contains("crossover"));
    }
}
