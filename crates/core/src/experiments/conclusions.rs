//! **§5 conclusions, checked** — the paper's closing claims, each
//! re-derived from the reproduced experiments and reported as a pass/fail
//! checklist. This is the capstone experiment: if these hold, the
//! reproduction carries the paper's message.

use crate::experiments::{prefetch, table1, table3, traffic_ratio, ExperimentConfig};
use crate::report::TextTable;
use crate::stat_util::{mean, percentile};
use crate::targets::CacheKind;

/// One checked claim.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// Where the paper makes it.
    pub source: String,
    /// The claim, paraphrased.
    pub claim: String,
    /// What we measured.
    pub evidence: String,
    /// Whether the reproduction supports it.
    pub holds: bool,
}

/// The checked conclusions.
#[derive(Debug, Clone, PartialEq)]
pub struct Conclusions {
    /// Every checked claim.
    pub claims: Vec<Claim>,
}

/// Runs the checks (internally runs Table 1, Table 3, the prefetch study
/// and the traffic-ratio study at the given configuration).
pub fn run(config: &ExperimentConfig) -> Conclusions {
    let mut claims = Vec::new();
    let t1 = table1::run(config);
    let t3 = table3::run_with_half_size(config, 4 * 1024);
    let pf = prefetch::run(config);
    let tr = traffic_ratio::run(config);

    // §5: "caches always work; a cache of any reasonable size always has
    // a hit ratio high enough to make it work well."
    if let Some(&big) = config.sizes.iter().filter(|&&s| s >= 4096).min() {
        let worst = t1
            .column(big)
            .into_iter()
            .fold(0.0f64, f64::max);
        claims.push(Claim {
            source: "§5".to_string(),
            claim: "caches always work (reasonable sizes reach useful hit ratios)".to_string(),
            evidence: format!("worst miss ratio at {big} B: {worst:.3}"),
            holds: worst < 0.5,
        });
    }

    // §5 / [Hil84]: "the traffic ratio, however, may not be lower than
    // 1.0 and needs to be carefully watched."
    let above_one = tr
        .rows
        .iter()
        .filter(|r| r.copy_back.first().is_some_and(|&x| x > 1.0))
        .count();
    claims.push(Claim {
        source: "§5 / [Hil84]".to_string(),
        claim: "small caches can raise bus traffic above the cacheless level".to_string(),
        evidence: format!(
            "{above_one} of {} workloads exceed traffic ratio 1.0 at {} B",
            tr.rows.len(),
            tr.sizes[0]
        ),
        holds: above_one > tr.rows.len() / 2,
    });

    // §1/§3.1: workload choice dominates the conclusions.
    if let Some(&mid) = config.sizes.iter().find(|&&s| s >= 1024) {
        let col = t1.column(mid);
        let best = col.iter().cloned().fold(f64::INFINITY, f64::min);
        let worst = col.iter().cloned().fold(0.0f64, f64::max);
        claims.push(Claim {
            source: "§1, §3.1".to_string(),
            claim: "workload choice changes miss ratios by an order of magnitude".to_string(),
            evidence: format!("at {mid} B: best {best:.4}, worst {worst:.4}"),
            holds: worst > 8.0 * best.max(1e-6),
        });
    }

    // §3.3 / Table 3: half the pushed data lines are dirty, spread wide.
    claims.push(Claim {
        source: "§3.3, Table 3".to_string(),
        claim: "about half of pushed data lines are dirty, with wide variation".to_string(),
        evidence: format!(
            "mean {:.2}, range {:.2} - {:.2}",
            t3.mean, t3.range.0, t3.range.1
        ),
        holds: (0.3..=0.7).contains(&t3.mean) && (t3.range.1 - t3.range.0) > 0.2,
    });

    // §3.5.1: instruction prefetching always helps, >50% at large caches.
    let last = config.sizes.len() - 1;
    let instr_factors: Vec<f64> = pf
        .miss_factor_series(CacheKind::Instruction)
        .iter()
        .map(|(_, f)| f[last])
        .collect();
    let instr_mean = mean(&instr_factors);
    claims.push(Claim {
        source: "§3.5.1, Figure 6".to_string(),
        claim: "instruction prefetching cuts the miss ratio by more than half at large caches"
            .to_string(),
        evidence: format!(
            "mean instruction factor at {} B: {:.2}",
            config.sizes[last], instr_mean
        ),
        holds: instr_mean < 0.5,
    });

    // §3.5.2: prefetch always buys its gains with extra traffic.
    let all_factors_above_one = pf
        .table4
        .iter()
        .all(|&(_, u, i, d)| u >= 1.0 - 1e-9 && i >= 1.0 - 1e-9 && d >= 1.0 - 1e-9);
    claims.push(Claim {
        source: "§3.5.2, Table 4".to_string(),
        claim: "prefetching always increases memory traffic".to_string(),
        evidence: format!(
            "aggregate factors at {} B: {:.2}/{:.2}/{:.2} (u/i/d)",
            pf.table4[0].0, pf.table4[0].1, pf.table4[0].2, pf.table4[0].3
        ),
        holds: all_factors_above_one,
    });

    // §4.1: the design targets are pessimistic (above the median workload).
    if let Some(&mid) = config.sizes.iter().find(|&&s| s >= 1024) {
        let col = t1.column(mid);
        let median = percentile(&col, 50.0);
        let p85 = percentile(&col, 85.0);
        claims.push(Claim {
            source: "§4.1, Table 5".to_string(),
            claim: "design targets sit toward the worst of the observed values".to_string(),
            evidence: format!("at {mid} B: median {median:.3}, 85th pct {p85:.3}"),
            holds: p85 > median,
        });
    }

    // §1.2/§3.1: the 16-bit and toy traces are the unrepresentative best.
    let group_at = |label: &str, size: usize| -> f64 {
        let idx = t1.sizes.iter().position(|&s| s == size).unwrap_or(0);
        t1.group_averages
            .iter()
            .find(|(g, _)| g == label)
            .map(|(_, v)| v[idx])
            .unwrap_or(1.0)
    };
    if let Some(&mid) = config.sizes.iter().find(|&&s| s >= 1024) {
        let z8000 = group_at("Z8000", mid);
        let m68k = group_at("M68000", mid);
        let vax = group_at("VAX", mid);
        claims.push(Claim {
            source: "§1.2, §3.1".to_string(),
            claim: "the Z8000 and M68000 trace sets are suspiciously well-behaved".to_string(),
            evidence: format!("at {mid} B: M68000 {m68k:.3}, Z8000 {z8000:.3}, VAX {vax:.3}"),
            holds: m68k < vax && z8000 < vax,
        });
    }

    Conclusions { claims }
}

impl Conclusions {
    /// Whether every claim held.
    pub fn all_hold(&self) -> bool {
        self.claims.iter().all(|c| c.holds)
    }

    /// Renders the checklist.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec!["", "source", "claim", "evidence"]);
        for c in &self.claims {
            t.row(vec![
                if c.holds { "PASS".to_string() } else { "FAIL".to_string() },
                c.source.clone(),
                c.claim.clone(),
                c.evidence.clone(),
            ]);
        }
        format!(
            "§5 conclusions, re-derived from the reproduction\n{}\n{}\n",
            t.render(),
            if self.all_hold() {
                "All of the paper's checked conclusions hold."
            } else {
                "Some conclusions FAILED — see above."
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig::builder()
            .trace_len(30_000)
            .sizes(vec![256, 1024, 8192])
            .threads(crate::sweep::default_threads())
            .build()
            .unwrap()
    }

    #[test]
    fn all_claims_hold_at_test_scale() {
        let c = run(&tiny());
        assert!(c.claims.len() >= 7, "{} claims", c.claims.len());
        for claim in &c.claims {
            assert!(claim.holds, "{}: {} ({})", claim.source, claim.claim, claim.evidence);
        }
        assert!(c.all_hold());
    }

    #[test]
    fn render_is_a_checklist() {
        let s = run(&tiny()).render();
        assert!(s.contains("PASS"));
        assert!(s.contains("All of the paper's checked conclusions hold."));
    }
}
