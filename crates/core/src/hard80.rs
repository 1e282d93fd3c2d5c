//! The \[Hard80\] analytic miss-ratio curves (the paper's Figure 2).
//!
//! Harding's hardware-monitor measurements of an IBM 370/MVS workload are
//! summarized in the paper as power-law fits for the supervisor-state and
//! problem (user)-state miss ratios. The formulas in the source text are
//! OCR-garbled ("0.5249\*(1+0.5309)"); we implement them as
//! `m(C) = a * C_KB^-b` with the published constants, which reproduces the
//! problem-state hit ratios the paper quotes (≈0.982 / 0.984 at 16K / 32K)
//! and the qualitative supervisor curve. These machines used 32-byte lines.

/// Power-law miss-ratio model `m(C) = a * (C / 1 KiB)^-b`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLawMissRatio {
    /// Coefficient (miss ratio at 1 KiB).
    pub a: f64,
    /// Exponent of decay per size.
    pub b: f64,
}

impl PowerLawMissRatio {
    /// Miss ratio at a cache of `cache_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `cache_bytes` is zero.
    pub fn miss_ratio(&self, cache_bytes: usize) -> f64 {
        assert!(cache_bytes > 0, "cache size must be positive");
        let kb = cache_bytes as f64 / 1024.0;
        (self.a * kb.powf(-self.b)).min(1.0)
    }

    /// Hit ratio at a cache of `cache_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `cache_bytes` is zero.
    pub fn hit_ratio(&self, cache_bytes: usize) -> f64 {
        1.0 - self.miss_ratio(cache_bytes)
    }

    /// Factor by which the miss ratio shrinks when the cache doubles.
    pub fn doubling_factor(&self) -> f64 {
        2f64.powf(-self.b)
    }
}

/// Supervisor-state curve from \[Hard80\]: `0.5249 * C_KB^-0.5309`.
pub const SUPERVISOR: PowerLawMissRatio = PowerLawMissRatio {
    a: 0.5249,
    b: 0.5309,
};

/// Problem (user)-state curve from \[Hard80\]: `0.03 * C_KB^-0.1982`.
pub const PROBLEM: PowerLawMissRatio = PowerLawMissRatio {
    a: 0.03,
    b: 0.1982,
};

/// Fraction of CPU cycles in supervisor state reported for MVS mainframes
/// (73% in \[Mil85\], quoted in §1.2).
pub const SUPERVISOR_CYCLE_FRACTION: f64 = 0.73;

/// Blended supervisor/problem miss ratio at the \[Mil85\] supervisor share.
pub fn blended_miss_ratio(cache_bytes: usize) -> f64 {
    SUPERVISOR_CYCLE_FRACTION * SUPERVISOR.miss_ratio(cache_bytes)
        + (1.0 - SUPERVISOR_CYCLE_FRACTION) * PROBLEM.miss_ratio(cache_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn problem_state_matches_quoted_hit_ratios() {
        // §1.2: problem-state hit ratios ≈ 0.982, 0.984 at 16K, 32K.
        assert!((PROBLEM.hit_ratio(16 * 1024) - 0.982).abs() < 0.002);
        assert!((PROBLEM.hit_ratio(32 * 1024) - 0.984).abs() < 0.002);
    }

    #[test]
    fn supervisor_is_much_worse_than_problem() {
        for kb in [16, 32, 64] {
            let c = kb * 1024;
            assert!(SUPERVISOR.miss_ratio(c) > 2.0 * PROBLEM.miss_ratio(c));
        }
    }

    #[test]
    fn curves_decay_with_size() {
        for model in [SUPERVISOR, PROBLEM] {
            assert!(model.miss_ratio(1024) > model.miss_ratio(4096));
            assert!(model.miss_ratio(4096) > model.miss_ratio(65536));
        }
    }

    #[test]
    fn miss_ratio_is_capped_at_one() {
        // Tiny caches would extrapolate above 1.0; the model clamps.
        assert!(SUPERVISOR.miss_ratio(32) <= 1.0);
    }

    #[test]
    fn doubling_factor_matches_exponent() {
        let f = SUPERVISOR.doubling_factor();
        let ratio = SUPERVISOR.miss_ratio(32 * 1024) / SUPERVISOR.miss_ratio(16 * 1024);
        assert!((f - ratio).abs() < 1e-9);
        assert!(f < 1.0);
    }

    #[test]
    fn blended_sits_between_components() {
        let c = 16 * 1024;
        let b = blended_miss_ratio(c);
        assert!(b < SUPERVISOR.miss_ratio(c));
        assert!(b > PROBLEM.miss_ratio(c));
    }
}
