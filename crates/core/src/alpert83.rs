//! The \[Alpe83\] Zilog Z80000 cache projections the paper critiques
//! (§1.2, §4.1) — the workload-selection cautionary tale that motivated
//! the whole study.
//!
//! Alpert et al. projected hit ratios for the Z80000's 256 bytes of
//! on-chip cache (16-byte sectors) of 0.62 / 0.75 / 0.88 for effective
//! block (transfer) sizes of 2 / 4 / 16 bytes, based on Z8000 traces.
//! Smith argues those traces — 16-bit code, a PDP-11-ported Unix, an
//! immature C compiler, small utilities — make the projections far too
//! optimistic for the 32-bit Z80000, and predicts ≈30% miss (0.70 hit) for
//! a 256-byte cache with 16-byte blocks under a realistic 32-bit workload.

/// One of Alpert's projections.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Projection {
    /// Effective block (subblock transfer) size in bytes.
    pub fetch_bytes: usize,
    /// Projected hit ratio from \[Alpe83\].
    pub projected_hit: f64,
}

/// The three published projections.
pub const PROJECTIONS: [Projection; 3] = [
    Projection {
        fetch_bytes: 2,
        projected_hit: 0.62,
    },
    Projection {
        fetch_bytes: 4,
        projected_hit: 0.75,
    },
    Projection {
        fetch_bytes: 16,
        projected_hit: 0.88,
    },
];

/// The Z80000 cache storage size.
pub const CACHE_BYTES: usize = 256;
/// The Z80000 sector size.
pub const SECTOR_BYTES: usize = 16;

/// Smith's counter-prediction (§4.1): ≈30% miss for a 256-byte cache with
/// 16-byte blocks under a realistic 32-bit workload.
pub const SMITH_MISS_PREDICTION_16B: f64 = 0.30;

/// Looks up Alpert's projection for a transfer size.
pub fn projection_for(fetch_bytes: usize) -> Option<Projection> {
    PROJECTIONS.iter().copied().find(|p| p.fetch_bytes == fetch_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projections_improve_with_block_size() {
        assert!(PROJECTIONS[0].projected_hit < PROJECTIONS[1].projected_hit);
        assert!(PROJECTIONS[1].projected_hit < PROJECTIONS[2].projected_hit);
    }

    #[test]
    fn smith_contradicts_alpert_at_16_bytes() {
        let alpert_miss = 1.0 - projection_for(16).unwrap().projected_hit;
        assert!(SMITH_MISS_PREDICTION_16B > 2.0 * alpert_miss);
    }

    #[test]
    fn lookup() {
        assert!(projection_for(4).is_some());
        assert!(projection_for(8).is_none());
    }
}
