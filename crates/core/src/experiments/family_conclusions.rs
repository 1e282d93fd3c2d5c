//! **Family conclusions** — the paper's workload-choice argument pushed
//! past CPU traces: does the spread between *workload families*
//! (CPU vs storage-I/O vs network destination streams) still dwarf the
//! spread between *replacement policies* the way it dwarfs the
//! associativity spread in the design grid?
//!
//! Six representative workloads — two CPU catalog traces, two storage
//! profiles, two network profiles — each run at one fixed geometry
//! (1 KiB, 4-way, 16 B lines, copy-back) under the full replacement
//! matrix (LRU, FIFO, seeded random, tree-PLRU), plus an LRU
//! associativity column for scale. Non-LRU grids are outside the
//! one-pass engine's envelope, so this experiment is the suite's
//! consumer of the per-configuration simulators' policy matrix.

use crate::experiments::{resolve_named_workload, ExperimentConfig, Workload};
use crate::report::{fmt_ratio, TextTable};
use crate::sweep::parallel_map;
use smith85_cachesim::{Cache, CacheConfig, Mapping, Replacement};

/// The fixed design point every policy is judged at: small enough that
/// every family actually contends for capacity.
pub const CACHE_BYTES: usize = 1024;

/// Line size (the paper's default).
pub const LINE_SIZE: usize = 16;

/// Ways at the fixed design point.
pub const WAYS: usize = 4;

/// The associativities of the LRU scale column.
pub const ASSOC_WAYS: [usize; 4] = [1, 2, 4, 8];

/// The replacement matrix, in render order. The random seed is fixed so
/// the whole study is deterministic.
pub const POLICIES: [(&str, Replacement); 4] = [
    ("LRU", Replacement::Lru),
    ("FIFO", Replacement::Fifo),
    ("random", Replacement::Random { seed: 85 }),
    ("PLRU", Replacement::TreePlru),
];

/// Two representatives per family, catalog names.
pub const WORKLOADS: [&str; 6] = [
    "VCCOM", "ZGREP", "S-KVSTORE", "S-SCAN", "N-LAN", "N-WAN",
];

/// One workload's policy matrix at the fixed design point.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyRow {
    /// Workload name.
    pub name: String,
    /// Its family: `"cpu"`, `"storage"` or `"network"`.
    pub family: String,
    /// Miss ratio per policy, [`POLICIES`] order.
    pub miss_by_policy: Vec<f64>,
    /// Miss-ratio spread (max − min) across the four policies.
    pub policy_spread: f64,
    /// Miss-ratio spread across [`ASSOC_WAYS`] under LRU at the same
    /// total size.
    pub assoc_spread: f64,
}

/// The cross-family policy study.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyConclusions {
    /// References per workload.
    pub trace_len: usize,
    /// One row per [`WORKLOADS`] entry, same order.
    pub rows: Vec<FamilyRow>,
    /// Miss-ratio spread across all workloads under LRU at the fixed
    /// design point — the number to compare against each row's
    /// `policy_spread`.
    pub workload_spread: f64,
    /// The largest per-workload `policy_spread`.
    pub max_policy_spread: f64,
}

/// Runs the study. Memoized in the config's shared pool.
pub fn run(config: &ExperimentConfig) -> FamilyConclusions {
    let key = format!("family_conclusions/{}", config.trace_len);
    (*config.pool.result(&key, || compute(config))).clone()
}

fn compute(config: &ExperimentConfig) -> FamilyConclusions {
    let len = config.trace_len;
    let workloads: Vec<Workload> = WORKLOADS
        .iter()
        .map(|name| {
            resolve_named_workload(name, None)
                .unwrap_or_else(|| panic!("{name} is in some catalog"))
        })
        .collect();
    let rows = parallel_map(config, workloads, |w| {
        let trace = config.workload_trace(&w);
        let replay = &trace.as_slice()[..len];
        let miss_at = |ways: usize, replacement: Replacement| -> f64 {
            let mapping = if ways == CACHE_BYTES / LINE_SIZE {
                Mapping::FullyAssociative
            } else if ways == 1 {
                Mapping::Direct
            } else {
                Mapping::SetAssociative(ways)
            };
            let cache_config = CacheConfig::builder(CACHE_BYTES)
                .line_size(LINE_SIZE)
                .mapping(mapping)
                .replacement(replacement)
                .build()
                .expect("fixed design point is valid");
            let mut cache = Cache::new(cache_config).expect("valid cache");
            cache.run(replay);
            config.metrics.policy_cells.inc();
            cache.stats().miss_ratio()
        };
        let miss_by_policy: Vec<f64> = POLICIES
            .iter()
            .map(|&(_, policy)| miss_at(WAYS, policy))
            .collect();
        let assoc_misses: Vec<f64> = ASSOC_WAYS
            .iter()
            .map(|&ways| miss_at(ways, Replacement::Lru))
            .collect();
        FamilyRow {
            name: w.name().to_string(),
            family: w.family_name().to_string(),
            policy_spread: spread(&miss_by_policy),
            assoc_spread: spread(&assoc_misses),
            miss_by_policy,
        }
    });
    let lru_column: Vec<f64> = rows.iter().map(|r| r.miss_by_policy[0]).collect();
    let workload_spread = spread(&lru_column);
    let max_policy_spread = rows.iter().map(|r| r.policy_spread).fold(0.0, f64::max);
    FamilyConclusions {
        trace_len: len,
        rows,
        workload_spread,
        max_policy_spread,
    }
}

/// Max − min (0 when fewer than two values).
fn spread(values: &[f64]) -> f64 {
    match (
        values.iter().cloned().reduce(f64::max),
        values.iter().cloned().reduce(f64::min),
    ) {
        (Some(max), Some(min)) => max - min,
        _ => 0.0,
    }
}

impl FamilyConclusions {
    /// Renders the policy matrix and the spread comparison.
    pub fn render(&self) -> String {
        let mut headers = vec!["workload".to_string(), "family".to_string()];
        headers.extend(POLICIES.iter().map(|&(name, _)| name.to_string()));
        headers.push("policy spread".to_string());
        headers.push("assoc spread".to_string());
        let mut t = TextTable::new(headers);
        for r in &self.rows {
            let mut cells = vec![r.name.clone(), r.family.clone()];
            cells.extend(r.miss_by_policy.iter().map(|&v| fmt_ratio(v)));
            cells.push(fmt_ratio(r.policy_spread));
            cells.push(fmt_ratio(r.assoc_spread));
            t.row(cells);
        }
        format!(
            "Workload families vs the replacement-policy matrix: miss ratio at \
             {CACHE_BYTES} B, {WAYS}-way, {LINE_SIZE} B lines (per-configuration \
             simulators; non-LRU grids are outside the one-pass envelope)\n{}\n\
             Workload spread (LRU @ {CACHE_BYTES} B): {} — vs largest policy \
             spread {}: choosing the workload family moves the answer {}x more \
             than choosing the replacement policy.\n",
            t.render(),
            fmt_ratio(self.workload_spread),
            fmt_ratio(self.max_policy_spread),
            if self.max_policy_spread > 0.0 {
                format!("{:.0}", self.workload_spread / self.max_policy_spread)
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
            .sizes(vec![1024])
            .threads(4)
            .build()
            .unwrap()
    }

    #[test]
    fn covers_two_workloads_per_family() {
        let s = run(&tiny());
        assert_eq!(s.rows.len(), 6);
        for family in ["cpu", "storage", "network"] {
            assert_eq!(
                s.rows.iter().filter(|r| r.family == family).count(),
                2,
                "{family}"
            );
        }
        for r in &s.rows {
            assert_eq!(r.miss_by_policy.len(), POLICIES.len());
            for &m in &r.miss_by_policy {
                assert!((0.0..=1.0).contains(&m), "{}: {m}", r.name);
            }
        }
    }

    #[test]
    fn workload_family_choice_dominates_policy_choice() {
        // The experiment's pinned finding: across CPU, storage and
        // network streams, picking the workload moves the miss ratio
        // more than picking any replacement policy does.
        let s = run(&tiny());
        assert!(
            s.workload_spread > s.max_policy_spread,
            "workload spread {} <= policy spread {}",
            s.workload_spread,
            s.max_policy_spread
        );
    }

    #[test]
    fn runs_are_deterministic() {
        // Two fresh configs (separate pools, no memoization between
        // them) must agree bit-for-bit: the random policy is seeded and
        // every generator is name-seeded.
        let a = run(&tiny());
        let b = run(&tiny());
        assert_eq!(a, b);
    }

    #[test]
    fn render_compares_the_spreads() {
        let text = run(&tiny()).render();
        assert!(text.contains("Workload spread"));
        assert!(text.contains("random"));
        assert!(text.contains("S-KVSTORE"));
        assert!(text.contains("N-WAN"));
    }
}
