//! **The Z80000 sector-cache study** (§1.2, §4.1) — the workload-selection
//! cautionary tale.
//!
//! Alpert et al. projected 0.62 / 0.75 / 0.88 hit ratios for the Z80000's
//! 256-byte on-chip cache (16-byte sectors, 2 / 4 / 16-byte transfers)
//! from Z8000 traces. This experiment runs the same sector cache against
//! (a) our Z8000-like workloads and (b) realistic 32-bit workloads (the
//! VAX and 370 profiles the paper says should have been used), showing how
//! workload choice flips the conclusion: the paper predicts ≈30% miss
//! (0.70 hit) at a 16-byte block.

use crate::alpert83;
use crate::experiments::ExperimentConfig;
use crate::report::TextTable;
use crate::stat_util::mean;
use crate::sweep::parallel_map;
use smith85_cachesim::{SectorCache, SectorCacheConfig};
use smith85_synth::{catalog, TraceGroup};

/// Average hit ratio of one workload family at one transfer size.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyHit {
    /// Transfer (subblock) size in bytes.
    pub fetch_bytes: usize,
    /// Mean hit ratio over the Z8000 workloads (Alpert's trace family).
    pub z8000_hit: f64,
    /// Mean hit ratio over the 32-bit workloads (VAX + IBM 370).
    pub thirty_two_bit_hit: f64,
    /// Alpert's published projection.
    pub alpert_projection: f64,
}

/// The Z80000 study result.
#[derive(Debug, Clone, PartialEq)]
pub struct Z80000Study {
    /// One row per transfer size (2, 4, 16).
    pub rows: Vec<FamilyHit>,
}

fn family_profiles(groups: &[TraceGroup]) -> Vec<smith85_synth::ProgramProfile> {
    catalog::all()
        .iter()
        .filter(|s| groups.contains(&s.group()))
        .map(|s| s.profile().clone())
        .collect()
}

/// Runs the study.
pub fn run(config: &ExperimentConfig) -> Z80000Study {
    let z_family = family_profiles(&[TraceGroup::Z8000]);
    let wide_family = family_profiles(&[TraceGroup::VaxUnix, TraceGroup::Ibm370]);
    let len = config.trace_len;
    let rows = alpert83::PROJECTIONS
        .iter()
        .map(|proj| {
            let hit_of = |profiles: &[smith85_synth::ProgramProfile]| {
                let hits = parallel_map(config, profiles.to_vec(), |p| {
                    let trace = config.profile_trace(&p);
                    let mut cache = SectorCache::new(SectorCacheConfig::z80000(proj.fetch_bytes))
                        .expect("Z80000 sector configuration is valid");
                    cache.run_slice(&trace.as_slice()[..len]);
                    cache.stats().hit_ratio()
                });
                mean(&hits)
            };
            FamilyHit {
                fetch_bytes: proj.fetch_bytes,
                z8000_hit: hit_of(&z_family),
                thirty_two_bit_hit: hit_of(&wide_family),
                alpert_projection: proj.projected_hit,
            }
        })
        .collect();
    Z80000Study { rows }
}

impl Z80000Study {
    /// Renders the comparison.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "transfer",
            "Alpert (Z8000 traces)",
            "ours: Z8000 workloads",
            "ours: 32-bit workloads",
        ]);
        for r in &self.rows {
            t.row(vec![
                format!("{} B", r.fetch_bytes),
                format!("{:.2}", r.alpert_projection),
                format!("{:.2}", r.z8000_hit),
                format!("{:.2}", r.thirty_two_bit_hit),
            ]);
        }
        format!(
            "Z80000 256-byte sector cache: projected hit ratios by workload \
             family\n{}\nSmith's prediction for a 256 B cache with 16 B blocks \
             under a realistic 32-bit workload: miss ≈ {:.2} (hit ≈ {:.2})\n",
            t.render(),
            alpert83::SMITH_MISS_PREDICTION_16B,
            1.0 - alpert83::SMITH_MISS_PREDICTION_16B,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig::builder()
            .trace_len(20_000)
            .sizes(vec![256])
            .threads(4)
            .build()
            .unwrap()
    }

    #[test]
    fn three_transfer_sizes() {
        let s = run(&tiny());
        assert_eq!(s.rows.len(), 3);
        assert_eq!(s.rows[0].fetch_bytes, 2);
        assert_eq!(s.rows[2].fetch_bytes, 16);
    }

    #[test]
    fn hit_ratio_grows_with_transfer_size() {
        let s = run(&tiny());
        assert!(s.rows[0].z8000_hit < s.rows[2].z8000_hit);
        assert!(s.rows[0].thirty_two_bit_hit < s.rows[2].thirty_two_bit_hit);
    }

    #[test]
    fn workload_choice_flips_the_conclusion() {
        // The paper's headline: Z8000 workloads look far better in this
        // cache than realistic 32-bit workloads.
        let s = run(&tiny());
        for r in &s.rows {
            // Both families thrash at 2-byte transfers; the gap is clear
            // from 4 bytes up.
            let margin = if r.fetch_bytes == 2 { 0.0 } else { 0.05 };
            assert!(
                r.z8000_hit > r.thirty_two_bit_hit + margin,
                "{} B: z8000 {:.2} vs 32-bit {:.2}",
                r.fetch_bytes,
                r.z8000_hit,
                r.thirty_two_bit_hit
            );
        }
    }

    #[test]
    fn thirty_two_bit_hit_is_near_smith_prediction() {
        let s = run(&tiny());
        let hit_16 = s.rows[2].thirty_two_bit_hit;
        // Smith says ~0.70; accept a generous band around it.
        assert!((0.5..=0.85).contains(&hit_16), "{hit_16}");
    }

    #[test]
    fn render_quotes_all_sources() {
        let s = run(&tiny()).render();
        assert!(s.contains("Alpert"));
        assert!(s.contains("Smith's prediction"));
    }
}
