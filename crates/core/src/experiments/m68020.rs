//! **The M68020 on-chip instruction cache speculation** (§3.4).
//!
//! The paper extrapolates from Figure 3 to the Motorola 68020's 256-byte,
//! 4-byte-block instruction cache: because a 4-byte block captures almost
//! none of the ~21 bytes fetched sequentially between branches, it
//! predicts miss ratios of 0.2 - 0.6 for most workloads (and suggests 0.25
//! as a point estimate for 16-byte lines at 256 bytes). It also notes
//! instruction prefetching would help dramatically at small block sizes.
//! This experiment runs the instruction streams of the Table 3 workloads
//! through 256-byte instruction caches at 4- and 16-byte lines, with and
//! without prefetch.

use crate::experiments::{table3_workloads, ExperimentConfig};
use crate::report::{fmt_ratio, TextTable};
use crate::stat_util::{mean, min_max};
use crate::sweep::parallel_map;
use smith85_cachesim::{Cache, CacheConfig, FetchPolicy};

/// The M68020 cache size.
pub const CACHE_BYTES: usize = 256;

/// One workload's miss ratios in the four cache variants.
#[derive(Debug, Clone, PartialEq)]
pub struct M68020Row {
    /// Workload name.
    pub name: String,
    /// 4-byte lines, demand fetch (the real 68020 design).
    pub line4_demand: f64,
    /// 4-byte lines with prefetch-always.
    pub line4_prefetch: f64,
    /// 16-byte lines, demand fetch (the paper's preferred design point).
    pub line16_demand: f64,
    /// 16-byte lines with prefetch-always.
    pub line16_prefetch: f64,
}

/// The study result.
#[derive(Debug, Clone, PartialEq)]
pub struct M68020Study {
    /// Per-workload rows.
    pub rows: Vec<M68020Row>,
    /// (min, max) of the 4-byte-line demand miss ratios — the paper's
    /// "0.2 to 0.6 for most workloads" claim.
    pub line4_range: (f64, f64),
    /// Mean of the 16-byte-line demand miss ratios — the paper's 0.25
    /// point estimate.
    pub line16_mean: f64,
}

fn icache_miss(
    w: &crate::experiments::Workload,
    line: usize,
    fetch: FetchPolicy,
    ifetches: &[smith85_trace::MemoryAccess],
) -> f64 {
    let config = CacheConfig::builder(CACHE_BYTES)
        .line_size(line)
        .fetch_policy(fetch)
        .purge_interval(Some(w.purge_interval()))
        .build()
        .expect("valid M68020 configuration");
    let mut cache = Cache::new(config).expect("valid config");
    cache.run(ifetches);
    cache.stats().miss_ratio()
}

/// Runs the study.
pub fn run(config: &ExperimentConfig) -> M68020Study {
    let len = config.trace_len / 2; // instruction refs only
    let rows = parallel_map(config, table3_workloads(), |w| {
        // The filtered stream is not a prefix of the full trace, so it
        // pools under its own key and is shared by all four variants.
        let trace = config.pool.ifetch_workload(&w, len);
        let ifetches = &trace.as_slice()[..len];
        M68020Row {
            name: w.name().to_string(),
            line4_demand: icache_miss(&w, 4, FetchPolicy::Demand, ifetches),
            line4_prefetch: icache_miss(&w, 4, FetchPolicy::PrefetchAlways, ifetches),
            line16_demand: icache_miss(&w, 16, FetchPolicy::Demand, ifetches),
            line16_prefetch: icache_miss(&w, 16, FetchPolicy::PrefetchAlways, ifetches),
        }
    });
    let line4: Vec<f64> = rows.iter().map(|r| r.line4_demand).collect();
    let line16: Vec<f64> = rows.iter().map(|r| r.line16_demand).collect();
    M68020Study {
        line4_range: min_max(&line4),
        line16_mean: mean(&line16),
        rows,
    }
}

impl M68020Study {
    /// Renders the study.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "workload",
            "4B demand",
            "4B prefetch",
            "16B demand",
            "16B prefetch",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.name.clone(),
                fmt_ratio(r.line4_demand),
                fmt_ratio(r.line4_prefetch),
                fmt_ratio(r.line16_demand),
                fmt_ratio(r.line16_prefetch),
            ]);
        }
        format!(
            "M68020 256-byte instruction cache (§3.4 speculation)\n{}\n\
             4-byte-line demand miss range: {:.2} - {:.2} (paper predicts \
             0.2 - 0.6 for most workloads)\n16-byte-line demand mean: {:.2} \
             (paper's point estimate: 0.25)\n",
            t.render(),
            self.line4_range.0,
            self.line4_range.1,
            self.line16_mean,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig::builder()
            .trace_len(30_000)
            .sizes(vec![256])
            .threads(4)
            .build()
            .unwrap()
    }

    #[test]
    fn small_lines_miss_more() {
        let s = run(&tiny());
        for r in &s.rows {
            assert!(
                r.line4_demand >= r.line16_demand,
                "{}: 4B {} vs 16B {}",
                r.name,
                r.line4_demand,
                r.line16_demand
            );
        }
    }

    #[test]
    fn prefetch_helps_small_lines_dramatically() {
        // §3.4: "with its small 4 byte line size, the M68000 instruction
        // cache could expect a dramatically lower miss ratio with
        // prefetching".
        let s = run(&tiny());
        let demand = mean(&s.rows.iter().map(|r| r.line4_demand).collect::<Vec<_>>());
        let prefetch = mean(&s.rows.iter().map(|r| r.line4_prefetch).collect::<Vec<_>>());
        assert!(prefetch < 0.6 * demand, "demand {demand}, prefetch {prefetch}");
    }

    #[test]
    fn ranges_are_in_the_papers_ballpark() {
        let s = run(&tiny());
        assert!(s.line4_range.1 > 0.15, "max {:?}", s.line4_range);
        assert!(s.line16_mean > 0.05 && s.line16_mean < 0.6, "{}", s.line16_mean);
    }

    #[test]
    fn render_quotes_the_paper() {
        let s = run(&tiny()).render();
        assert!(s.contains("0.2 - 0.6"));
        assert!(s.contains("0.25"));
    }
}
