//! The \[Clar83\] VAX-11/780 hardware measurements used by §4.1 to validate
//! the design-target table.
//!
//! Clark measured the real 11/780 (8 KiB unified cache, 8-byte lines,
//! 2-way set-associative): data miss ratio 16.5%, instruction 8.6%,
//! overall read miss ratio ≈ 10.3%. Halving the cache to 4 KiB gave
//! 21.1% / 15.7% / 17.5% (the source text's "31.1" is inconsistent with
//! its own overall figure; we carry the paper's comparison values).
//! The paper also quotes the rule of thumb that, at 8 KiB, moving from
//! 8- to 16-byte lines roughly halves the miss ratio.

/// One cache-size row of Clark's measurements (8-byte lines).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Clark83Row {
    /// Cache size in bytes.
    pub cache_bytes: usize,
    /// Measured data miss ratio.
    pub data_miss: f64,
    /// Measured instruction miss ratio.
    pub instruction_miss: f64,
    /// Measured overall miss ratio.
    pub overall_miss: f64,
}

/// Clark's 8 KiB measurement (the production 11/780 configuration).
pub const FULL_CACHE: Clark83Row = Clark83Row {
    cache_bytes: 8 * 1024,
    data_miss: 0.165,
    instruction_miss: 0.086,
    overall_miss: 0.103,
};

/// Clark's half-cache experiment (4 KiB).
pub const HALF_CACHE: Clark83Row = Clark83Row {
    cache_bytes: 4 * 1024,
    data_miss: 0.211,
    instruction_miss: 0.157,
    overall_miss: 0.175,
};

/// Hit ratios reported for the 11/780 in \[Clar83\] (§1.2): 83.5% data,
/// 91.4% instruction, ≈89.7% overall — and the DEC trace-driven prediction
/// of 89.5% that §1.2 contrasts with the measurement.
pub const DEC_SIMULATION_PREDICTED_HIT: f64 = 0.895;

/// §4.1's line-size adjustment: at 8 KiB, doubling the line from 8 to 16
/// bytes roughly halves the miss ratio.
pub const LINE_8_TO_16_FACTOR: f64 = 0.5;

/// Converts a miss ratio measured with 16-byte lines (our simulations and
/// the design targets) to Clark's 8-byte-line regime.
pub fn to_8_byte_lines(miss_ratio_16b: f64) -> f64 {
    miss_ratio_16b / LINE_8_TO_16_FACTOR
}

/// Converts Clark's 8-byte-line miss ratio to the 16-byte-line regime.
pub fn to_16_byte_lines(miss_ratio_8b: f64) -> f64 {
    miss_ratio_8b * LINE_8_TO_16_FACTOR
}

#[cfg(test)]
#[allow(clippy::assertions_on_constants)] // the constants ARE the data under test
mod tests {
    use super::*;

    #[test]
    fn half_cache_is_worse_everywhere() {
        assert!(HALF_CACHE.data_miss > FULL_CACHE.data_miss);
        assert!(HALF_CACHE.instruction_miss > FULL_CACHE.instruction_miss);
        assert!(HALF_CACHE.overall_miss > FULL_CACHE.overall_miss);
    }

    #[test]
    fn overall_between_components() {
        for row in [FULL_CACHE, HALF_CACHE] {
            assert!(row.overall_miss > row.instruction_miss);
            assert!(row.overall_miss < row.data_miss);
        }
    }

    #[test]
    fn line_size_conversion_roundtrips() {
        let m = 0.08;
        assert!((to_16_byte_lines(to_8_byte_lines(m)) - m).abs() < 1e-12);
        assert!(to_8_byte_lines(m) > m);
    }

    #[test]
    fn paper_validation_story_holds() {
        // §4.1: the design target at 8K with 16B lines is 0.08; at 8B
        // lines that is 12-16%, "not out of line" with Clark's 10.3%.
        let target_16b = 0.08;
        let predicted_8b = to_8_byte_lines(target_16b);
        assert!(predicted_8b >= FULL_CACHE.overall_miss);
        assert!(predicted_8b < 2.0 * FULL_CACHE.overall_miss);
    }
}
