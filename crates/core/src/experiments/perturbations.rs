//! **Perturbations** — quantifying the effects §1.1 says trace-driven
//! studies usually leave out: operating-system interrupts (item 4) and
//! input/output activity (item 6), plus the task-switch purging (item 3)
//! the paper does model.
//!
//! For each representative trace, the same cache is driven by the pure
//! stream, the stream with interrupt bursts, and the stream with DMA
//! traffic; the miss-ratio inflation is what a trace-only study would
//! have underestimated.

use crate::experiments::ExperimentConfig;
use crate::report::{fmt_ratio, TextTable};
use crate::sweep::parallel_map;
use smith85_cachesim::{CacheConfig, Simulator, UnifiedCache};
use smith85_synth::catalog;
use smith85_synth::perturb::{WithDma, WithInterrupts};

/// The cache used for the comparison (a mid-range 16 KiB unified cache).
pub const CACHE_BYTES: usize = 16 * 1024;
/// Mean references between interrupts (a few thousand instructions).
pub const INTERRUPT_SPACING: f64 = 5_000.0;
/// Mean handler burst length in references.
pub const INTERRUPT_BURST: f64 = 400.0;
/// Mean references between DMA bursts.
pub const DMA_SPACING: f64 = 8_000.0;
/// Mean DMA transfers per burst.
pub const DMA_BURST: f64 = 256.0;

/// One trace's miss ratios under each perturbation.
#[derive(Debug, Clone, PartialEq)]
pub struct PerturbationRow {
    /// Trace name.
    pub name: String,
    /// Pure trace, no purging (the classic trace-driven setup).
    pub pure_unpurged: f64,
    /// Pure trace with the paper's 20,000-reference purges.
    pub pure_purged: f64,
    /// With interrupt bursts (no purging; the interrupts do the damage).
    pub with_interrupts: f64,
    /// With DMA traffic (no purging).
    pub with_dma: f64,
}

/// The perturbation study.
#[derive(Debug, Clone, PartialEq)]
pub struct Perturbations {
    /// Per-trace rows.
    pub rows: Vec<PerturbationRow>,
}

/// Runs the study over the ablation representatives plus a utility pair.
pub fn run(config: &ExperimentConfig) -> Perturbations {
    let names = ["MVS1", "FCOMP1", "VCCOM", "VSPICE", "ZGREP", "TWOD"];
    let len = config.trace_len;
    let specs: Vec<_> = names
        .iter()
        .map(|n| catalog::by_name(n).unwrap_or_else(|| panic!("{n} missing")))
        .collect();
    let rows = parallel_map(config, specs, |spec| {
        let miss = |stream: Box<dyn Iterator<Item = smith85_trace::MemoryAccess>>,
                    purge: Option<u64>| {
            let cfg = CacheConfig::builder(CACHE_BYTES)
                .purge_interval(purge)
                .build()
                .expect("valid configuration");
            let mut cache = UnifiedCache::new(cfg).expect("valid config");
            cache.run(stream.take(len));
            cache.stats().miss_ratio()
        };
        let seed = spec.profile().seed;
        // The adapters only insert references (each output consumes at most
        // one input), so feeding them a pooled length-`len` prefix and taking
        // `len` outputs is bit-identical to wrapping the infinite stream.
        let trace = config.pool.profile(spec.profile(), len);
        let replay = || trace.as_slice()[..len].iter().copied();
        PerturbationRow {
            name: spec.name().to_string(),
            pure_unpurged: miss(Box::new(replay()), None),
            pure_purged: miss(Box::new(replay()), Some(20_000)),
            with_interrupts: miss(
                Box::new(WithInterrupts::new(
                    replay(),
                    INTERRUPT_SPACING,
                    INTERRUPT_BURST,
                    seed,
                )),
                None,
            ),
            with_dma: miss(
                Box::new(WithDma::new(
                    replay(),
                    DMA_SPACING,
                    DMA_BURST,
                    16 * 1024,
                    8,
                    seed,
                )),
                None,
            ),
        }
    });
    Perturbations { rows }
}

impl Perturbations {
    /// Renders the study.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "trace",
            "pure",
            "purged 20k",
            "+interrupts",
            "+DMA",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.name.clone(),
                fmt_ratio(r.pure_unpurged),
                fmt_ratio(r.pure_purged),
                fmt_ratio(r.with_interrupts),
                fmt_ratio(r.with_dma),
            ]);
        }
        format!(
            "Perturbations at a 16 KiB unified cache: what trace-only \
             studies miss (§1.1 items 3, 4, 6)\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig::builder()
            .trace_len(60_000)
            .sizes(vec![CACHE_BYTES])
            .threads(4)
            .build()
            .unwrap()
    }

    #[test]
    fn purging_and_interrupts_inflate_miss_ratios() {
        let p = run(&tiny());
        assert_eq!(p.rows.len(), 6);
        for r in &p.rows {
            assert!(
                r.pure_purged >= r.pure_unpurged - 1e-6,
                "{}: purged {} < pure {}",
                r.name,
                r.pure_purged,
                r.pure_unpurged
            );
            assert!(
                r.with_interrupts > r.pure_unpurged,
                "{}: interrupts {} vs pure {}",
                r.name,
                r.with_interrupts,
                r.pure_unpurged
            );
        }
    }

    #[test]
    fn dma_never_helps() {
        let p = run(&tiny());
        for r in &p.rows {
            assert!(
                r.with_dma >= r.pure_unpurged - 0.01,
                "{}: dma {} vs pure {}",
                r.name,
                r.with_dma,
                r.pure_unpurged
            );
        }
    }

    #[test]
    fn render_lists_all_conditions() {
        let s = run(&tiny()).render();
        for needle in ["pure", "purged", "interrupts", "DMA"] {
            assert!(s.contains(needle), "missing {needle}");
        }
    }
}
