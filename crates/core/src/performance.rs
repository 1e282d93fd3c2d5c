//! CPU-performance model: turning miss ratios into instruction rates.
//!
//! The paper's introduction frames cache design as a cost/performance
//! trade ("a cache which achieves a 99% hit ratio may cost 80% more than
//! one which achieves 98% ... and may only boost overall CPU performance
//! by 8%"), and §1.2 quotes Merill's measurement that a 370/168 went from
//! 2.07 to 2.34 MIPS when its hit ratio rose from 0.969 to 0.988. This
//! module is the standard CPI decomposition those statements rest on:
//!
//! ```text
//! CPI = CPI_base + refs_per_instr × miss_ratio × miss_penalty
//! MIPS = 1000 / (CPI × cycle_ns)
//! ```

/// A simple machine-performance model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineModel {
    /// Cycles per instruction with a perfect (always-hit) cache.
    pub base_cpi: f64,
    /// Memory references per instruction (the paper's rule of thumb for
    /// 370/VAX-class machines is 2).
    pub refs_per_instr: f64,
    /// Additional cycles per cache miss.
    pub miss_penalty: f64,
    /// Cycle time in nanoseconds.
    pub cycle_ns: f64,
}

impl MachineModel {
    /// A 370/168-class mainframe: the configuration that reproduces the
    /// Merill MIPS anecdote of §1.2 (≈2 MIPS at a ~0.93-hit cache era).
    pub const IBM_370_168: MachineModel = MachineModel {
        base_cpi: 5.0,
        refs_per_instr: 2.0,
        miss_penalty: 12.0,
        cycle_ns: 80.0,
    };

    /// A generic 32-bit microprocessor of the paper's era.
    pub const MICRO_32: MachineModel = MachineModel {
        base_cpi: 4.0,
        refs_per_instr: 2.0,
        miss_penalty: 8.0,
        cycle_ns: 100.0,
    };

    /// Cycles per instruction at a given miss ratio.
    ///
    /// # Panics
    ///
    /// Panics if `miss_ratio` is outside `[0, 1]`.
    pub fn cpi(&self, miss_ratio: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&miss_ratio),
            "miss ratio {miss_ratio} out of range"
        );
        self.base_cpi + self.refs_per_instr * miss_ratio * self.miss_penalty
    }

    /// Instruction rate in MIPS at a given miss ratio.
    ///
    /// # Panics
    ///
    /// Panics if `miss_ratio` is outside `[0, 1]`.
    pub fn mips(&self, miss_ratio: f64) -> f64 {
        1000.0 / (self.cpi(miss_ratio) * self.cycle_ns)
    }

    /// Relative speedup from improving the miss ratio from `worse` to
    /// `better` (> 1 means faster).
    ///
    /// # Panics
    ///
    /// Panics if either ratio is outside `[0, 1]`.
    pub fn speedup(&self, worse: f64, better: f64) -> f64 {
        self.cpi(worse) / self.cpi(better)
    }
}

/// The intro's worked example: how much performance a hit-ratio
/// improvement buys, as a percentage.
pub fn performance_gain_percent(model: &MachineModel, hit_from: f64, hit_to: f64) -> f64 {
    100.0 * (model.speedup(1.0 - hit_from, 1.0 - hit_to) - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpi_grows_linearly_with_miss_ratio() {
        let m = MachineModel::MICRO_32;
        let lo = m.cpi(0.01);
        let hi = m.cpi(0.02);
        assert!((hi - lo - m.refs_per_instr * 0.01 * m.miss_penalty).abs() < 1e-12);
    }

    #[test]
    fn intro_example_98_to_99_is_single_digit_gain() {
        // "may only boost overall CPU performance by 8%".
        let gain = performance_gain_percent(&MachineModel::MICRO_32, 0.98, 0.99);
        assert!((2.0..=10.0).contains(&gain), "{gain}%");
    }

    #[test]
    fn intro_example_80_to_90_is_large_gain() {
        // "if the same two designs yield hit ratios of 90% and 80% ... the
        // performance increase would be 50%".
        let model = MachineModel {
            base_cpi: 2.0,
            refs_per_instr: 2.0,
            miss_penalty: 10.0,
            cycle_ns: 100.0,
        };
        let gain = performance_gain_percent(&model, 0.80, 0.90);
        assert!((30.0..=70.0).contains(&gain), "{gain}%");
    }

    #[test]
    fn merill_mips_anecdote_reproduces() {
        // §1.2: 2.07 → 2.34 MIPS as the hit ratio went 0.969 → 0.988.
        let m = MachineModel::IBM_370_168;
        let slow = m.mips(1.0 - 0.969);
        let fast = m.mips(1.0 - 0.988);
        assert!((1.7..=2.4).contains(&slow), "slow {slow}");
        assert!(fast > slow);
        let ratio = fast / slow;
        let merill = 2.34 / 2.07;
        assert!((ratio - merill).abs() < 0.08, "ratio {ratio} vs Merill {merill}");
    }

    #[test]
    fn speedup_is_reciprocal_consistent() {
        let m = MachineModel::MICRO_32;
        let s = m.speedup(0.2, 0.1);
        let r = m.speedup(0.1, 0.2);
        assert!((s * r - 1.0).abs() < 1e-12);
        assert!(s > 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_miss_ratio() {
        MachineModel::MICRO_32.cpi(1.5);
    }
}
