//! **Ablations** — the design-choice sensitivities the paper calls out but
//! does not tabulate, plus its announced future work:
//!
//! * line-size effect on miss ratio (§5: "needs to be quantified");
//! * mapping/associativity (§4.1 notes 2-way vs fully associative "should
//!   be small");
//! * replacement policy;
//! * write policy memory traffic (§3.3's write-through vs copy-back
//!   discussion);
//! * purge-interval sensitivity (§3.3: the dirty-push results "are
//!   definitely sensitive to that figure", 20,000).

use crate::experiments::{lru_miss_ratios, table3_workloads, ExperimentConfig, Workload};
use crate::report::{fmt_ratio, TextTable};
use crate::sweep::parallel_map;
use smith85_cachesim::{
    Cache, CacheConfig, Mapping, Replacement, Simulator, SplitCache, UnifiedCache,
    WriteBuffer, WritePolicy,
};
use smith85_synth::catalog;

/// Representative traces for the single-trace ablations: one per locality
/// regime (OS, compiler, utility, scientific).
pub const REPRESENTATIVES: [&str; 4] = ["MVS1", "FCOMP1", "VCCOM", "TWOD"];

/// Line-size sweep result for one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct LineSizeRow {
    /// Trace name.
    pub name: String,
    /// Line sizes swept (bytes).
    pub line_sizes: Vec<usize>,
    /// Miss ratio at a fixed 4 KiB cache for each line size.
    pub miss_ratios: Vec<f64>,
    /// Fetch traffic (bytes per reference) for each line size.
    pub traffic_per_ref: Vec<f64>,
}

/// Associativity sweep result for one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct AssocRow {
    /// Trace name.
    pub name: String,
    /// Miss ratios for direct, 2-, 4-, 8-way and fully associative
    /// mappings at a fixed 4 KiB cache.
    pub miss_ratios: Vec<f64>,
}

/// Replacement-policy sweep result for one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplacementRow {
    /// Trace name.
    pub name: String,
    /// Miss ratios for LRU, tree-PLRU, FIFO and random replacement
    /// (4 KiB, 8-way).
    pub miss_ratios: Vec<f64>,
}

/// Write-policy traffic result for one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct WritePolicyRow {
    /// Trace name.
    pub name: String,
    /// Memory traffic in bytes per reference: copy-back w/ fetch-on-write.
    pub copy_back: f64,
    /// Write-through with allocation.
    pub write_through_allocate: f64,
    /// Write-through without allocation.
    pub write_through_no_allocate: f64,
}

/// Write-combining effectiveness for one trace (§3.3's exception).
#[derive(Debug, Clone, PartialEq)]
pub struct WriteCombineRow {
    /// Trace name.
    pub name: String,
    /// Stores per 1,000 references.
    pub stores_per_1000: f64,
    /// Memory writes per 1,000 references through a 4-entry combining
    /// buffer, for each width in [`COMBINE_WIDTHS`].
    pub memory_writes_per_1000: Vec<f64>,
}

/// Purge-interval sensitivity for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct PurgeRow {
    /// Workload name.
    pub name: String,
    /// Purge intervals swept (references).
    pub intervals: Vec<u64>,
    /// Dirty-push fraction at each interval.
    pub dirty_fractions: Vec<f64>,
    /// Overall miss ratio at each interval.
    pub miss_ratios: Vec<f64>,
}

/// All ablation results.
#[derive(Debug, Clone, PartialEq)]
pub struct Ablations {
    /// Line-size sweep (4 KiB cache).
    pub line_size: Vec<LineSizeRow>,
    /// Associativity sweep (4 KiB cache, 16-byte lines).
    pub associativity: Vec<AssocRow>,
    /// Replacement sweep (4 KiB, 8-way).
    pub replacement: Vec<ReplacementRow>,
    /// Write-policy traffic (4 KiB, fully associative).
    pub write_policy: Vec<WritePolicyRow>,
    /// Write-combining buffer effectiveness (§3.3's exception).
    pub write_combining: Vec<WriteCombineRow>,
    /// Purge-interval sensitivity (Table 3 configuration).
    pub purge: Vec<PurgeRow>,
}

const ABLATION_CACHE: usize = 4 * 1024;
/// Line sizes swept by the line-size ablation.
pub const LINE_SIZES: [usize; 5] = [4, 8, 16, 32, 64];
/// Purge intervals swept by the purge ablation.
pub const PURGE_INTERVALS: [u64; 4] = [5_000, 10_000, 20_000, 40_000];
/// Combining-buffer widths swept by the write-combining ablation.
pub const COMBINE_WIDTHS: [u64; 3] = [4, 8, 16];

fn representative_profiles() -> Vec<smith85_synth::ProgramProfile> {
    REPRESENTATIVES
        .iter()
        .map(|n| {
            catalog::by_name(n)
                .unwrap_or_else(|| panic!("{n} missing from catalog"))
                .profile()
                .clone()
        })
        .collect()
}

/// Runs every ablation.
pub fn run(config: &ExperimentConfig) -> Ablations {
    let len = config.trace_len;
    let profiles = representative_profiles();

    let line_size = parallel_map(config, profiles.clone(), |p| {
        let trace = config.pool.profile(&p, len);
        let replay = &trace.as_slice()[..len];
        let mut miss_ratios = Vec::new();
        let mut traffic = Vec::new();
        for &ls in &LINE_SIZES {
            let m = lru_miss_ratios(replay, &[ABLATION_CACHE], ls)[0];
            miss_ratios.push(m);
            traffic.push(m * ls as f64);
        }
        LineSizeRow {
            name: p.name.clone(),
            line_sizes: LINE_SIZES.to_vec(),
            miss_ratios,
            traffic_per_ref: traffic,
        }
    });

    let mappings = [
        Mapping::Direct,
        Mapping::SetAssociative(2),
        Mapping::SetAssociative(4),
        Mapping::SetAssociative(8),
        Mapping::FullyAssociative,
    ];
    let associativity = parallel_map(config, profiles.clone(), |p| {
        let trace = config.pool.profile(&p, len);
        let replay = &trace.as_slice()[..len];
        AssocRow {
            miss_ratios: mappings
                .iter()
                .map(|&m| {
                    let cfg = CacheConfig::builder(ABLATION_CACHE).mapping(m).build().expect("valid");
                    let mut c = Cache::new(cfg).expect("valid");
                    c.run(replay);
                    c.stats().miss_ratio()
                })
                .collect(),
            name: p.name.clone(),
        }
    });

    let policies = [
        Replacement::Lru,
        Replacement::TreePlru,
        Replacement::Fifo,
        Replacement::Random { seed: 85 },
    ];
    let replacement = parallel_map(config, profiles.clone(), |p| {
        let trace = config.pool.profile(&p, len);
        let replay = &trace.as_slice()[..len];
        ReplacementRow {
            miss_ratios: policies
                .iter()
                .map(|&r| {
                    let cfg = CacheConfig::builder(ABLATION_CACHE)
                        .mapping(Mapping::SetAssociative(8))
                        .replacement(r)
                        .build()
                        .expect("valid");
                    let mut c = Cache::new(cfg).expect("valid");
                    c.run(replay);
                    c.stats().miss_ratio()
                })
                .collect(),
            name: p.name.clone(),
        }
    });

    let write_policies = [
        WritePolicy::CopyBack {
            fetch_on_write: true,
        },
        WritePolicy::WriteThrough { allocate: true },
        WritePolicy::WriteThrough { allocate: false },
    ];
    let write_policy = parallel_map(config, profiles, |p| {
        let trace = config.pool.profile(&p, len);
        let replay = &trace.as_slice()[..len];
        let traffic: Vec<f64> = write_policies
            .iter()
            .map(|&wp| {
                let cfg = CacheConfig::builder(ABLATION_CACHE).write_policy(wp).build().expect("valid");
                let mut c = UnifiedCache::new(cfg).expect("valid");
                c.run_slice(replay);
                c.stats().traffic_bytes() as f64 / len as f64
            })
            .collect();
        WritePolicyRow {
            name: p.name.clone(),
            copy_back: traffic[0],
            write_through_allocate: traffic[1],
            write_through_no_allocate: traffic[2],
        }
    });

    let write_combining = parallel_map(config, representative_profiles(), |p| {
        let trace = config.pool.profile(&p, len);
        let replay = &trace.as_slice()[..len];
        let stores = replay.iter().filter(|a| a.kind.is_write()).count();
        let memory_writes_per_1000 = COMBINE_WIDTHS
            .iter()
            .map(|&width| {
                let mut wb = WriteBuffer::new(4, width);
                wb.run_slice(replay);
                1000.0 * wb.stats().memory_writes as f64 / len as f64
            })
            .collect();
        WriteCombineRow {
            name: p.name.clone(),
            stores_per_1000: 1000.0 * stores as f64 / len as f64,
            memory_writes_per_1000,
        }
    });

    let purge_workloads: Vec<Workload> = table3_workloads()
        .into_iter()
        .filter(|w| matches!(w, Workload::Mix { .. }))
        .collect();
    let purge = parallel_map(config, purge_workloads, |w| {
        let trace = config.workload_trace(&w);
        let replay = &trace.as_slice()[..len];
        let mut dirty = Vec::new();
        let mut miss = Vec::new();
        for &q in &PURGE_INTERVALS {
            let mut c = SplitCache::paper_split(16 * 1024, q).expect("valid");
            c.run_slice(replay);
            dirty.push(c.data_stats().dirty_push_fraction());
            miss.push(c.total_stats().miss_ratio());
        }
        PurgeRow {
            name: w.name().to_string(),
            intervals: PURGE_INTERVALS.to_vec(),
            dirty_fractions: dirty,
            miss_ratios: miss,
        }
    });

    Ablations {
        line_size,
        associativity,
        replacement,
        write_policy,
        write_combining,
        purge,
    }
}

impl Ablations {
    /// Renders every ablation table.
    pub fn render(&self) -> String {
        let mut out = String::new();

        let mut t = TextTable::new(
            std::iter::once("trace".to_string())
                .chain(LINE_SIZES.iter().map(|l| format!("{l}B miss")))
                .chain(LINE_SIZES.iter().map(|l| format!("{l}B traf")))
                .collect::<Vec<_>>(),
        );
        for r in &self.line_size {
            let mut cells = vec![r.name.clone()];
            cells.extend(r.miss_ratios.iter().map(|m| fmt_ratio(*m)));
            cells.extend(r.traffic_per_ref.iter().map(|m| format!("{m:.2}")));
            t.row(cells);
        }
        out.push_str(&format!(
            "Ablation: line size at 4 KiB (miss ratio; fetch bytes/ref)\n{}\n",
            t.render()
        ));

        let mut t = TextTable::new(vec!["trace", "direct", "2-way", "4-way", "8-way", "full"]);
        for r in &self.associativity {
            let mut cells = vec![r.name.clone()];
            cells.extend(r.miss_ratios.iter().map(|m| fmt_ratio(*m)));
            t.row(cells);
        }
        out.push_str(&format!("Ablation: mapping at 4 KiB\n{}\n", t.render()));

        let mut t = TextTable::new(vec!["trace", "LRU", "PLRU", "FIFO", "random"]);
        for r in &self.replacement {
            let mut cells = vec![r.name.clone()];
            cells.extend(r.miss_ratios.iter().map(|m| fmt_ratio(*m)));
            t.row(cells);
        }
        out.push_str(&format!(
            "Ablation: replacement at 4 KiB, 8-way\n{}\n",
            t.render()
        ));

        let mut t = TextTable::new(vec![
            "trace",
            "copy-back B/ref",
            "wt+alloc B/ref",
            "wt no-alloc B/ref",
        ]);
        for r in &self.write_policy {
            t.row(vec![
                r.name.clone(),
                format!("{:.2}", r.copy_back),
                format!("{:.2}", r.write_through_allocate),
                format!("{:.2}", r.write_through_no_allocate),
            ]);
        }
        out.push_str(&format!("Ablation: write-policy traffic\n{}\n", t.render()));

        let mut t = TextTable::new(
            std::iter::once("trace".to_string())
                .chain(std::iter::once("stores/1000".to_string()))
                .chain(COMBINE_WIDTHS.iter().map(|w| format!("wr/1000 @{w}B")))
                .collect::<Vec<_>>(),
        );
        for r in &self.write_combining {
            let mut cells = vec![r.name.clone(), format!("{:.0}", r.stores_per_1000)];
            cells.extend(r.memory_writes_per_1000.iter().map(|m| format!("{m:.0}")));
            t.row(cells);
        }
        out.push_str(&format!(
            "Ablation: write-through combining buffer (4 entries) — §3.3's exception\n{}\n",
            t.render()
        ));

        let mut t = TextTable::new(
            std::iter::once("mix".to_string())
                .chain(PURGE_INTERVALS.iter().map(|q| format!("dirty@{q}")))
                .chain(PURGE_INTERVALS.iter().map(|q| format!("miss@{q}")))
                .collect::<Vec<_>>(),
        );
        for r in &self.purge {
            let mut cells = vec![r.name.clone()];
            cells.extend(r.dirty_fractions.iter().map(|m| format!("{m:.2}")));
            cells.extend(r.miss_ratios.iter().map(|m| fmt_ratio(*m)));
            t.row(cells);
        }
        out.push_str(&format!(
            "Ablation: purge-interval sensitivity (16K+16K split)\n{}",
            t.render()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One shared run, long enough for two 40k purge cycles.
    fn shared() -> &'static Ablations {
        static CELL: OnceLock<Ablations> = OnceLock::new();
        CELL.get_or_init(|| {
            run(&ExperimentConfig::builder()
                .trace_len(90_000)
                .sizes(vec![4096])
                .threads(crate::sweep::default_threads())
                .build()
                .unwrap())
        })
    }

    #[test]
    fn all_ablations_have_representative_rows() {
        let a = shared();
        assert_eq!(a.line_size.len(), 4);
        assert_eq!(a.associativity.len(), 4);
        assert_eq!(a.replacement.len(), 4);
        assert_eq!(a.write_policy.len(), 4);
        assert_eq!(a.write_combining.len(), 4);
        assert_eq!(a.purge.len(), 4);
    }

    #[test]
    fn longer_lines_cut_misses_but_cost_traffic() {
        let a = shared();
        for r in &a.line_size {
            // Miss ratio shrinks from 4B to 16B lines for every trace.
            assert!(r.miss_ratios[2] < r.miss_ratios[0], "{}", r.name);
            // Traffic per reference grows from 16B to 64B lines.
            assert!(
                r.traffic_per_ref[4] > r.traffic_per_ref[2] * 0.9,
                "{}: {:?}",
                r.name,
                r.traffic_per_ref
            );
        }
    }

    #[test]
    fn associativity_helps_and_saturates() {
        let a = shared();
        for r in &a.associativity {
            let direct = r.miss_ratios[0];
            let full = r.miss_ratios[4];
            assert!(full <= direct + 0.01, "{}: {:?}", r.name, r.miss_ratios);
            // §4.1: 2-way vs fully associative effect "should be small".
            let two_way = r.miss_ratios[1];
            assert!((two_way - full).abs() < 0.08, "{}: {:?}", r.name, r.miss_ratios);
        }
    }

    #[test]
    fn lru_beats_or_matches_random() {
        let a = shared();
        for r in &a.replacement {
            // LRU <= random, and tree PLRU sits close to true LRU.
            assert!(
                r.miss_ratios[0] <= r.miss_ratios[3] + 0.02,
                "{}: {:?}",
                r.name,
                r.miss_ratios
            );
            assert!(
                (r.miss_ratios[1] - r.miss_ratios[0]).abs() < 0.05,
                "{}: PLRU far from LRU: {:?}",
                r.name,
                r.miss_ratios
            );
        }
    }

    #[test]
    fn combining_buffer_cuts_memory_writes() {
        let a = shared();
        for r in &a.write_combining {
            // A store of up to 8 bytes occupies at most ceil(8 / width)
            // units, so memory writes are bounded per width, and wider
            // units combine at least as well as narrow ones.
            for (i, &width) in COMBINE_WIDTHS.iter().enumerate() {
                let max_units = (8.0 / width as f64).ceil();
                assert!(
                    r.memory_writes_per_1000[i] <= r.stores_per_1000 * max_units + 1e-9,
                    "{} @{width}B: {:?}",
                    r.name,
                    r
                );
            }
            assert!(
                r.memory_writes_per_1000[2] <= r.memory_writes_per_1000[0] + 1e-9,
                "{}: {:?}",
                r.name,
                r.memory_writes_per_1000
            );
            // At 16-byte units (a full line) combining genuinely kicks in.
            assert!(
                r.memory_writes_per_1000[2] < r.stores_per_1000,
                "{}: no combining at 16B: {:?}",
                r.name,
                r
            );
        }
    }

    #[test]
    fn write_through_moves_more_bytes_for_writey_traces() {
        let a = shared();
        // Copy-back filters repeated writes; write-through pays per store.
        // This holds for the OS trace, which writes heavily.
        let mvs = a.write_policy.iter().find(|r| r.name == "MVS1").unwrap();
        assert!(mvs.write_through_allocate > mvs.copy_back * 0.8);
    }

    #[test]
    fn shorter_purge_intervals_mean_cleaner_pushes() {
        let a = shared();
        for r in &a.purge {
            // §3.3: longer residency → higher dirty probability. Allow
            // noise but demand the trend between the extremes.
            assert!(
                r.dirty_fractions[3] >= r.dirty_fractions[0] - 0.05,
                "{}: {:?}",
                r.name,
                r.dirty_fractions
            );
            // More frequent purging never lowers the miss ratio.
            assert!(r.miss_ratios[0] >= r.miss_ratios[3] - 0.02, "{}", r.name);
        }
    }

    #[test]
    fn render_contains_all_sections() {
        let s = shared().render();
        for needle in ["line size", "mapping", "replacement", "write-policy", "combining buffer", "purge-interval"] {
            assert!(s.contains(needle), "missing {needle}");
        }
    }
}
