//! **Trace-length sensitivity** — §3.2's methodological warning: "these
//! trace runs extend at most to 500,000 memory references ... with only a
//! few exceptions the traces reference less than 64K bytes of memory, and
//! it makes little sense to estimate miss ratios for caches over 32K with
//! this data."
//!
//! For each representative trace we compute the miss ratio at several
//! cache sizes from prefixes of increasing length. Small-cache estimates
//! stabilize quickly; large-cache estimates keep falling as the prefix
//! grows, because the cold-start transient dominates — exactly why the
//! paper refuses to trust its own ≥32 KiB numbers.

use crate::experiments::{lru_miss_ratios, ExperimentConfig};
use crate::report::{fmt_ratio, TextTable};
use crate::sweep::parallel_map;
use smith85_synth::catalog;

/// The prefix lengths swept, as fractions of the configured trace length.
pub const LENGTH_FRACTIONS: [f64; 4] = [0.125, 0.25, 0.5, 1.0];
/// Cache sizes whose estimates are tracked.
pub const WATCH_SIZES: [usize; 3] = [1024, 16 * 1024, 64 * 1024];

/// One trace's estimates at each (prefix, size).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceLengthRow {
    /// Trace name.
    pub name: String,
    /// Prefix lengths in references.
    pub lengths: Vec<usize>,
    /// `miss[i][j]` = miss ratio at `lengths[i]`, `WATCH_SIZES[j]`.
    pub miss: Vec<Vec<f64>>,
}

/// The study result.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceLengthStudy {
    /// Per-trace rows.
    pub rows: Vec<TraceLengthRow>,
}

/// Runs the study.
pub fn run(config: &ExperimentConfig) -> TraceLengthStudy {
    let names = ["MVS1", "FCOMP1", "VCCOM", "TWOD"];
    let lengths: Vec<usize> = LENGTH_FRACTIONS
        .iter()
        .map(|f| ((config.trace_len as f64) * f) as usize)
        .collect();
    let specs: Vec<_> = names
        .iter()
        .map(|n| catalog::by_name(n).unwrap_or_else(|| panic!("{n} missing")))
        .collect();
    let lens = lengths.clone();
    let rows = parallel_map(config, specs, move |spec| {
        // One pass at the longest prefix would not give prefix curves (the
        // histogram is cumulative), so sweep each prefix — every prefix is
        // a slice of the same pooled trace.
        let longest = lens.last().copied().unwrap_or(0);
        let trace = config.pool.profile(spec.profile(), longest);
        let miss = lens
            .iter()
            .map(|&len| {
                lru_miss_ratios(
                    &trace.as_slice()[..len],
                    &WATCH_SIZES,
                    smith85_trace::PAPER_LINE_SIZE,
                )
            })
            .collect();
        TraceLengthRow {
            name: spec.name().to_string(),
            lengths: lens.clone(),
            miss,
        }
    });
    TraceLengthStudy { rows }
}

impl TraceLengthStudy {
    /// Relative change of the estimate between the two longest prefixes,
    /// per watch size, for one row (how "settled" the estimate is).
    pub fn settling(&self, row: &TraceLengthRow) -> Vec<f64> {
        let n = row.lengths.len();
        (0..WATCH_SIZES.len())
            .map(|j| {
                let last = row.miss[n - 1][j];
                let prev = row.miss[n - 2][j];
                if last == 0.0 {
                    0.0
                } else {
                    (prev - last).abs() / last
                }
            })
            .collect()
    }

    /// Renders the study.
    pub fn render(&self) -> String {
        let mut headers = vec!["trace".to_string(), "prefix".to_string()];
        headers.extend(WATCH_SIZES.iter().map(|s| format!("miss@{s}")));
        let mut t = TextTable::new(headers);
        for r in &self.rows {
            for (i, &len) in r.lengths.iter().enumerate() {
                let mut cells = vec![
                    if i == 0 { r.name.clone() } else { String::new() },
                    len.to_string(),
                ];
                cells.extend(r.miss[i].iter().map(|m| fmt_ratio(*m)));
                t.row(cells);
            }
            t.rule();
        }
        format!(
            "Trace-length sensitivity (§3.2): miss-ratio estimates from \
             growing trace prefixes\n{}\nLarge-cache estimates keep moving \
             as the prefix grows — the paper's reason not to trust >32K \
             numbers from 250K-reference traces.\n",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig::builder()
            .trace_len(80_000)
            .sizes(vec![1024])
            .threads(4)
            .build()
            .unwrap()
    }

    #[test]
    fn four_traces_four_prefixes() {
        let s = run(&tiny());
        assert_eq!(s.rows.len(), 4);
        for r in &s.rows {
            assert_eq!(r.lengths.len(), 4);
            assert_eq!(r.miss.len(), 4);
        }
    }

    #[test]
    fn small_cache_estimates_settle_faster_than_large() {
        let s = run(&tiny());
        // Averaged over traces: the 1K estimate moves less between the two
        // longest prefixes than the 64K estimate does.
        let mut small = 0.0;
        let mut large = 0.0;
        for r in &s.rows {
            let settle = s.settling(r);
            small += settle[0];
            large += settle[2];
        }
        assert!(
            small < large,
            "1K settling {small} should beat 64K settling {large}"
        );
    }

    #[test]
    fn longer_prefixes_lower_large_cache_estimates() {
        let s = run(&tiny());
        for r in &s.rows {
            let first = r.miss[0][2];
            let last = r.miss[r.miss.len() - 1][2];
            assert!(
                last <= first + 0.02,
                "{}: 64K estimate rose from {first} to {last}",
                r.name
            );
        }
    }

    #[test]
    fn render_explains_the_warning() {
        assert!(run(&tiny()).render().contains("32K"));
    }
}
