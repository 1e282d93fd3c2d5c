//! **The §3.5.2 multiprocessor trade** — prefetching on a shared bus.
//!
//! For each workload at a fixed cache size, measure miss ratio and bus
//! traffic under demand fetch and prefetch-always, convert to
//! per-processor speed (CPI model) and bus load, and ask the system-level
//! question: how many processors fit on the bus, and what is the
//! aggregate throughput? Prefetching wins per processor and frequently
//! loses per system — the paper's §3.5.2 punchline.

use crate::bus::SharedBus;
use crate::experiments::{table3_workloads, ExperimentConfig};
use crate::performance::MachineModel;
use crate::report::TextTable;
use crate::sweep::parallel_map;
use smith85_cachesim::{CacheConfig, FetchPolicy, Simulator, UnifiedCache};

/// The cache size each processor carries.
pub const CACHE_BYTES: usize = 8 * 1024;

/// One workload's system-level comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiprocessorRow {
    /// Workload name.
    pub name: String,
    /// Demand-fetch miss ratio.
    pub demand_miss: f64,
    /// Prefetch miss ratio.
    pub prefetch_miss: f64,
    /// Demand bus traffic, bytes per reference.
    pub demand_traffic: f64,
    /// Prefetch bus traffic, bytes per reference.
    pub prefetch_traffic: f64,
    /// Processors the bus carries under demand fetch.
    pub demand_cpus: u32,
    /// Processors the bus carries under prefetch.
    pub prefetch_cpus: u32,
    /// Aggregate MIPS under demand fetch.
    pub demand_system_mips: f64,
    /// Aggregate MIPS under prefetch.
    pub prefetch_system_mips: f64,
}

/// The study result.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiprocessorStudy {
    /// Per-workload rows.
    pub rows: Vec<MultiprocessorRow>,
    /// Workloads where prefetch wins per-processor but loses per-system.
    pub inversions: usize,
}

/// Runs the study.
pub fn run(config: &ExperimentConfig) -> MultiprocessorStudy {
    let len = config.trace_len;
    let bus = SharedBus::TYPICAL_1985;
    let machine = MachineModel::MICRO_32;
    let rows = parallel_map(config, table3_workloads(), move |w| {
        let trace = config.workload_trace(&w);
        let replay = &trace.as_slice()[..len];
        let measure = |fetch: FetchPolicy| {
            let cfg = CacheConfig::builder(CACHE_BYTES)
                .fetch_policy(fetch)
                .purge_interval(Some(w.purge_interval()))
                .build()
                .expect("valid configuration");
            let mut cache = UnifiedCache::new(cfg).expect("valid config");
            cache.run_slice(replay);
            let s = cache.stats();
            (
                s.miss_ratio(),
                s.traffic_bytes() as f64 / s.total_refs() as f64,
            )
        };
        let (dm, dt) = measure(FetchPolicy::Demand);
        let (pm, pt) = measure(FetchPolicy::PrefetchAlways);
        // Reference rate: MIPS × refs/instr × 1e6.
        let rate = |miss: f64| machine.mips(miss) * machine.refs_per_instr * 1.0e6;
        let demand_cpus = bus.max_processors(rate(dm), dt.max(1e-6));
        let prefetch_cpus = bus.max_processors(rate(pm), pt.max(1e-6));
        MultiprocessorRow {
            name: w.name().to_string(),
            demand_miss: dm,
            prefetch_miss: pm,
            demand_traffic: dt,
            prefetch_traffic: pt,
            demand_cpus,
            prefetch_cpus,
            demand_system_mips: demand_cpus as f64 * machine.mips(dm),
            prefetch_system_mips: prefetch_cpus as f64 * machine.mips(pm),
        }
    });
    let inversions = rows
        .iter()
        .filter(|r| r.prefetch_miss < r.demand_miss && r.prefetch_system_mips < r.demand_system_mips)
        .count();
    MultiprocessorStudy { rows, inversions }
}

impl MultiprocessorStudy {
    /// Renders the study.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "workload",
            "miss d/p",
            "B/ref d/p",
            "CPUs d/p",
            "sys MIPS d/p",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.name.clone(),
                format!("{:.3}/{:.3}", r.demand_miss, r.prefetch_miss),
                format!("{:.2}/{:.2}", r.demand_traffic, r.prefetch_traffic),
                format!("{}/{}", r.demand_cpus, r.prefetch_cpus),
                format!("{:.1}/{:.1}", r.demand_system_mips, r.prefetch_system_mips),
            ]);
        }
        format!(
            "§3.5.2 shared-bus multiprocessor trade at {CACHE_BYTES} B per \
             processor (d = demand, p = prefetch-always)\n{}\n{} of {} \
             workloads show the paper's inversion: prefetch wins the \
             processor, loses the system.\n",
            t.render(),
            self.inversions,
            self.rows.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig::builder()
            .trace_len(30_000)
            .sizes(vec![CACHE_BYTES])
            .threads(4)
            .build()
            .unwrap()
    }

    #[test]
    fn rows_cover_all_workloads() {
        let s = run(&tiny());
        assert_eq!(s.rows.len(), 16);
        for r in &s.rows {
            assert!(r.demand_cpus >= 1, "{}", r.name);
            assert!(r.prefetch_traffic >= r.demand_traffic * 0.95, "{}", r.name);
        }
    }

    #[test]
    fn prefetch_supports_fewer_or_equal_processors() {
        let s = run(&tiny());
        for r in &s.rows {
            assert!(
                r.prefetch_cpus <= r.demand_cpus + 1,
                "{}: {} vs {}",
                r.name,
                r.prefetch_cpus,
                r.demand_cpus
            );
        }
    }

    #[test]
    fn the_papers_inversion_exists() {
        let s = run(&tiny());
        assert!(
            s.inversions > 0,
            "no workload showed prefetch winning per-CPU and losing per-system"
        );
    }

    #[test]
    fn render_names_the_tradeoff() {
        assert!(run(&tiny()).render().contains("inversion"));
    }
}
