//! **Multiprogramming degree** — §3.2: large-cache miss ratios from
//! single short traces are meaningless "unless the traces are run for
//! much longer periods and also unless multiple traces are combined in a
//! realistic simulation of multiprogramming."
//!
//! This experiment varies the number of programs sharing the machine
//! (round-robin, 20,000-reference quanta, no explicit purging — the
//! address-space competition itself does the damage) and shows how the
//! effective miss ratio at larger caches rises with degree: the
//! multiprogramming effect a single-trace study never sees.

use crate::experiments::ExperimentConfig;
use crate::report::{fmt_ratio, TextTable};
use crate::sweep::parallel_map;
use smith85_cachesim::{CacheConfig, Simulator, UnifiedCache};
use smith85_synth::catalog;
use smith85_trace::PAPER_PURGE_INTERVAL;

/// Degrees of multiprogramming swept.
pub const DEGREES: [usize; 4] = [1, 2, 5, 10];
/// Cache sizes tracked.
pub const WATCH_SIZES: [usize; 3] = [4 * 1024, 16 * 1024, 64 * 1024];

/// One degree's miss ratios.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeRow {
    /// Number of programs in the mix.
    pub degree: usize,
    /// Names of the member programs.
    pub members: Vec<String>,
    /// Miss ratio at each watch size.
    pub miss: Vec<f64>,
}

/// The multiprogramming study.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiprogrammingStudy {
    /// One row per degree.
    pub rows: Vec<DegreeRow>,
}

/// The pool of programs mixes are drawn from: the VAX workloads, in
/// catalog order (a realistic timesharing population).
fn pool() -> Vec<smith85_synth::ProgramProfile> {
    catalog::group(smith85_synth::TraceGroup::VaxUnix)
        .iter()
        .map(|s| s.profile().clone())
        .collect()
}

/// Runs the study.
pub fn run(config: &ExperimentConfig) -> MultiprogrammingStudy {
    let len = config.trace_len;
    let rows = parallel_map(config, DEGREES.to_vec(), move |degree| {
        let members: Vec<_> = pool().into_iter().take(degree).collect();
        let names: Vec<String> = members.iter().map(|p| p.name.clone()).collect();
        // A Mix workload's stream is exactly this round-robin (VAX members
        // use the 20,000-reference quantum), so the pool can share the
        // materialized mix across the watch sizes.
        let mix = crate::experiments::Workload::Mix {
            name: format!("degree-{degree}"),
            members,
        };
        debug_assert_eq!(mix.purge_interval(), PAPER_PURGE_INTERVAL);
        let trace = config.pool.workload(&mix, len);
        let replay = &trace.as_slice()[..len];
        let miss = WATCH_SIZES
            .iter()
            .map(|&size| {
                let cfg = CacheConfig::builder(size).build().expect("valid");
                let mut cache = UnifiedCache::new(cfg).expect("valid");
                cache.run_slice(replay);
                cache.stats().miss_ratio()
            })
            .collect();
        DegreeRow {
            degree,
            members: names,
            miss,
        }
    });
    MultiprogrammingStudy { rows }
}

impl MultiprogrammingStudy {
    /// Renders the study.
    pub fn render(&self) -> String {
        let mut headers = vec!["degree".to_string()];
        headers.extend(WATCH_SIZES.iter().map(|s| format!("miss@{s}")));
        headers.push("members".to_string());
        let mut t = TextTable::new(headers);
        for r in &self.rows {
            let mut cells = vec![r.degree.to_string()];
            cells.extend(r.miss.iter().map(|m| fmt_ratio(*m)));
            cells.push(r.members.join(","));
            t.row(cells);
        }
        format!(
            "Multiprogramming degree (§3.2): round-robin VAX mixes, 20,000-\
             reference quanta, no explicit purging\n{}\nThe large-cache miss \
             ratio a single trace reports understates a timeshared machine's.\n",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig::builder()
            .trace_len(120_000)
            .sizes(vec![16 * 1024])
            .threads(4)
            .build()
            .unwrap()
    }

    #[test]
    fn degrees_swept_in_order() {
        let s = run(&tiny());
        assert_eq!(s.rows.len(), 4);
        assert_eq!(s.rows[0].degree, 1);
        assert_eq!(s.rows[3].degree, 10);
        assert_eq!(s.rows[3].members.len(), 10);
    }

    #[test]
    fn more_programs_more_misses_at_16k() {
        let s = run(&tiny());
        let at_16k = |d: usize| s.rows.iter().find(|r| r.degree == d).unwrap().miss[1];
        assert!(
            at_16k(10) > at_16k(1),
            "degree 10 {} vs degree 1 {}",
            at_16k(10),
            at_16k(1)
        );
        assert!(at_16k(5) >= at_16k(1) * 0.9);
    }

    #[test]
    fn render_names_degree() {
        assert!(run(&tiny()).render().contains("degree"));
    }
}
