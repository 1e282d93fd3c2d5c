//! The paper's design estimates: Table 5 (design target miss ratios) and
//! Table 4 (average prefetch-to-demand memory-traffic factors).
//!
//! Table 5 is the paper's deliverable for practitioners: pessimistic
//! (≈85th-percentile) miss ratios "for a 32-bit architecture running
//! fairly large programs and a mature (i.e. large) operating system", with
//! 16-byte lines. The unified column is carried as printed; the source
//! text's instruction/data columns are partially garbled, so they are
//! reconstructed from the paper's own anchors — 0.25 at 256 bytes for an
//! instruction cache (§3.4, §4.1) and the statement that the paper's
//! instruction and data targets are "approximately equal" (§4.1) — and
//! flagged as such here.

/// Which cache organisation a target value refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheKind {
    /// One cache for instructions and data.
    Unified,
    /// The instruction half of a split design.
    Instruction,
    /// The data half of a split design.
    Data,
}

impl CacheKind {
    /// All kinds, in table order.
    pub const ALL: [CacheKind; 3] = [CacheKind::Unified, CacheKind::Instruction, CacheKind::Data];

    /// Column label.
    pub const fn label(self) -> &'static str {
        match self {
            CacheKind::Unified => "unified",
            CacheKind::Instruction => "instruction",
            CacheKind::Data => "data",
        }
    }
}

/// Design-target miss ratios (Table 5), 16-byte lines, sizes 32 B – 64 KiB.
///
/// Row order matches [`smith85_cachesim::PAPER_SIZES`].
pub const DESIGN_TARGETS: [(usize, f64, f64, f64); 12] = [
    // (size, unified, instruction, data)
    (32, 0.50, 0.55, 0.60),
    (64, 0.40, 0.45, 0.48),
    (128, 0.35, 0.33, 0.38),
    (256, 0.30, 0.25, 0.32),
    (512, 0.27, 0.22, 0.28),
    (1024, 0.21, 0.16, 0.22),
    (2048, 0.17, 0.12, 0.16),
    (4096, 0.12, 0.10, 0.12),
    (8192, 0.08, 0.06, 0.08),
    (16384, 0.06, 0.06, 0.06),
    (32768, 0.04, 0.04, 0.04),
    (65536, 0.03, 0.03, 0.03),
];

/// Average memory-traffic factor, prefetch vs demand (Table 4): sum of
/// prefetch traffic divided by sum of demand-fetch traffic over the whole
/// workload. The unified and data columns are as printed (the unified
/// 64-byte entry, garbled to "1.139" in the source, is restored to 2.139 to
/// keep the column monotone); the instruction column is reconstructed
/// slightly below the data column, since instruction prefetches are the
/// most frequently used (§3.5).
pub const TRAFFIC_FACTORS: [(usize, f64, f64, f64); 12] = [
    // (size, unified, instruction, data)
    (32, 2.870, 1.450, 1.519),
    (64, 2.139, 1.400, 1.463),
    (128, 1.879, 1.320, 1.368),
    (256, 1.679, 1.300, 1.356),
    (512, 1.547, 1.330, 1.407),
    (1024, 1.602, 1.270, 1.313),
    (2048, 1.476, 1.260, 1.309),
    (4096, 1.537, 1.210, 1.246),
    (8192, 1.399, 1.220, 1.258),
    (16384, 1.269, 1.160, 1.194),
    (32768, 1.213, 1.150, 1.191),
    (65536, 1.209, 1.150, 1.191),
];

/// Looks up or log-interpolates the Table 5 design-target miss ratio.
///
/// Sizes between table rows interpolate linearly in `log2(size)`; sizes
/// outside the table clamp to the end rows.
///
/// # Panics
///
/// Panics if `cache_bytes` is zero.
pub fn design_target(cache_bytes: usize, kind: CacheKind) -> f64 {
    interpolate(&DESIGN_TARGETS, cache_bytes, kind)
}

/// Looks up or log-interpolates the Table 4 traffic factor.
///
/// # Panics
///
/// Panics if `cache_bytes` is zero.
pub fn traffic_factor(cache_bytes: usize, kind: CacheKind) -> f64 {
    interpolate(&TRAFFIC_FACTORS, cache_bytes, kind)
}

fn column(row: &(usize, f64, f64, f64), kind: CacheKind) -> f64 {
    match kind {
        CacheKind::Unified => row.1,
        CacheKind::Instruction => row.2,
        CacheKind::Data => row.3,
    }
}

fn interpolate(table: &[(usize, f64, f64, f64)], cache_bytes: usize, kind: CacheKind) -> f64 {
    assert!(cache_bytes > 0, "cache size must be positive");
    let first = &table[0];
    let last = &table[table.len() - 1];
    if cache_bytes <= first.0 {
        return column(first, kind);
    }
    if cache_bytes >= last.0 {
        return column(last, kind);
    }
    let x = (cache_bytes as f64).log2();
    for w in table.windows(2) {
        let (lo, hi) = (&w[0], &w[1]);
        if cache_bytes >= lo.0 && cache_bytes <= hi.0 {
            let x0 = (lo.0 as f64).log2();
            let x1 = (hi.0 as f64).log2();
            let t = (x - x0) / (x1 - x0);
            return column(lo, kind) * (1.0 - t) + column(hi, kind) * t;
        }
    }
    unreachable!("size {cache_bytes} not bracketed");
}

/// §4.1's summary of Table 5: the average factor by which doubling the
/// cache cuts the unified miss ratio, over a size range.
pub fn average_doubling_reduction(from: usize, to: usize) -> f64 {
    let rows: Vec<&(usize, f64, f64, f64)> = DESIGN_TARGETS
        .iter()
        .filter(|r| r.0 >= from && r.0 <= to)
        .collect();
    if rows.len() < 2 {
        return 0.0;
    }
    let steps = (rows.len() - 1) as f64;
    let total = rows[rows.len() - 1].1 / rows[0].1;
    1.0 - total.powf(1.0 / steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smith85_cachesim::PAPER_SIZES;

    #[test]
    fn table5_sizes_match_paper_sweep() {
        let sizes: Vec<usize> = DESIGN_TARGETS.iter().map(|r| r.0).collect();
        assert_eq!(sizes, PAPER_SIZES.to_vec());
        let sizes: Vec<usize> = TRAFFIC_FACTORS.iter().map(|r| r.0).collect();
        assert_eq!(sizes, PAPER_SIZES.to_vec());
    }

    #[test]
    fn unified_targets_monotone() {
        for w in DESIGN_TARGETS.windows(2) {
            assert!(w[1].1 <= w[0].1, "unified target not monotone at {}", w[1].0);
        }
    }

    #[test]
    fn paper_anchor_values() {
        assert_eq!(design_target(256, CacheKind::Instruction), 0.25); // §3.4/§4.1
        assert_eq!(design_target(8192, CacheKind::Unified), 0.08); // §4.1 Clark check
        assert_eq!(design_target(1024, CacheKind::Unified), 0.21);
    }

    #[test]
    fn interpolation_and_clamping() {
        // Log-midpoint between 1024 (0.21) and 2048 (0.17).
        let mid = design_target(1448, CacheKind::Unified);
        assert!(mid < 0.21 && mid > 0.17, "{mid}");
        assert_eq!(design_target(16, CacheKind::Unified), 0.50);
        assert_eq!(design_target(1 << 20, CacheKind::Unified), 0.03);
    }

    #[test]
    fn doubling_reduction_matches_paper_claims() {
        // §4.1: ~14% per doubling from 32 to 512, ~27% from 512 to 64K.
        let small = average_doubling_reduction(32, 512);
        assert!((0.08..=0.20).contains(&small), "{small}");
        let large = average_doubling_reduction(512, 65536);
        assert!((0.20..=0.32).contains(&large), "{large}");
    }

    #[test]
    fn traffic_factors_exceed_one_and_shrink() {
        for row in TRAFFIC_FACTORS {
            assert!(row.1 >= 1.0 && row.2 >= 1.0 && row.3 >= 1.0);
        }
        assert!(traffic_factor(32, CacheKind::Unified) > traffic_factor(65536, CacheKind::Unified));
    }

    #[test]
    fn kind_labels() {
        assert_eq!(CacheKind::Unified.label(), "unified");
        assert_eq!(CacheKind::ALL.len(), 3);
    }
}
