//! **§4.1 validation against \[Clar83\]** — the paper checks its design
//! targets against Clark's hardware measurements of the VAX-11/780.
//!
//! We reproduce the chain of reasoning: take the design target at 8 KiB
//! (and 4 KiB) with 16-byte lines, convert to Clark's 8-byte-line regime
//! with the paper's halving rule, and compare with the measured miss
//! ratios — then do the same with our own simulated VAX workload.

use crate::clark83;
use crate::experiments::{lru_miss_ratios, ExperimentConfig};
use crate::report::{fmt_ratio, TextTable};
use crate::stat_util::mean;
use crate::sweep::parallel_map;
use crate::targets::{design_target, CacheKind};
use smith85_synth::{catalog, TraceGroup};

/// One comparison row.
#[derive(Debug, Clone, PartialEq)]
pub struct ClarkRow {
    /// Cache size (bytes).
    pub size: usize,
    /// Clark's measured overall miss ratio (8-byte lines).
    pub clark_overall: f64,
    /// The paper's design target (16-byte lines) converted to 8-byte
    /// lines.
    pub target_as_8b: f64,
    /// Our simulated VAX workload's mean miss ratio (16-byte lines)
    /// converted to 8-byte lines.
    pub simulated_as_8b: f64,
}

/// The validation result.
#[derive(Debug, Clone, PartialEq)]
pub struct ClarkValidation {
    /// The 8 KiB and 4 KiB rows.
    pub rows: Vec<ClarkRow>,
    /// §1.2's anecdote: the DEC trace-driven prediction vs measurement.
    pub dec_predicted_hit: f64,
}

/// Runs the validation.
pub fn run(config: &ExperimentConfig) -> ClarkValidation {
    let vax: Vec<_> = catalog::all()
        .into_iter()
        .filter(|s| s.group() == TraceGroup::VaxUnix)
        .collect();
    let len = config.trace_len;
    let caches = [clark83::FULL_CACHE, clark83::HALF_CACHE];
    let sizes = caches.map(|c| c.cache_bytes);
    let curves = parallel_map(config, vax, |spec| {
        let trace = config.profile_trace(spec.profile());
        lru_miss_ratios(&trace.as_slice()[..len], &sizes, smith85_trace::PAPER_LINE_SIZE)
    });
    let rows = caches
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let sim16 = mean(&curves.iter().map(|curve| curve[i]).collect::<Vec<_>>());
            ClarkRow {
                size: c.cache_bytes,
                clark_overall: c.overall_miss,
                target_as_8b: clark83::to_8_byte_lines(design_target(
                    c.cache_bytes,
                    CacheKind::Unified,
                )),
                simulated_as_8b: clark83::to_8_byte_lines(sim16),
            }
        })
        .collect();
    ClarkValidation {
        rows,
        dec_predicted_hit: clark83::DEC_SIMULATION_PREDICTED_HIT,
    }
}

impl ClarkValidation {
    /// Renders the comparison.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "size",
            "Clark measured",
            "paper target (as 8B lines)",
            "our VAX sims (as 8B lines)",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.size.to_string(),
                fmt_ratio(r.clark_overall),
                fmt_ratio(r.target_as_8b),
                fmt_ratio(r.simulated_as_8b),
            ]);
        }
        format!(
            "§4.1 validation against Clark's VAX-11/780 measurements\n{}\n\
             (§1.2: DEC's own trace-driven study predicted a {:.1}% hit \
             ratio vs the ~89.7% measured — traces can mislead.)\n",
            t.render(),
            100.0 * self.dec_predicted_hit,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig::builder()
            .trace_len(20_000)
            .sizes(vec![8192])
            .threads(4)
            .build()
            .unwrap()
    }

    #[test]
    fn two_rows_8k_and_4k() {
        let v = run(&tiny());
        assert_eq!(v.rows.len(), 2);
        assert_eq!(v.rows[0].size, 8192);
        assert_eq!(v.rows[1].size, 4096);
    }

    #[test]
    fn paper_target_is_not_out_of_line_with_clark() {
        // §4.1's own standard: the converted target (0.16 at 8K) is within
        // ~60% of Clark's 0.103 measurement.
        let v = run(&tiny());
        let r = &v.rows[0];
        assert!(r.target_as_8b > r.clark_overall * 0.8);
        assert!(r.target_as_8b < r.clark_overall * 2.0);
    }

    #[test]
    fn simulations_track_measurement_order_of_magnitude() {
        let v = run(&tiny());
        for r in &v.rows {
            assert!(
                r.simulated_as_8b > r.clark_overall * 0.1
                    && r.simulated_as_8b < r.clark_overall * 4.0,
                "size {}: simulated {} vs measured {}",
                r.size,
                r.simulated_as_8b,
                r.clark_overall
            );
        }
    }

    #[test]
    fn render_tells_the_dec_anecdote() {
        assert!(run(&tiny()).render().contains("DEC"));
    }
}
