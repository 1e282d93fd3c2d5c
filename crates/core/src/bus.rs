//! Shared-bus capacity model for §3.5.2's multiprocessor argument.
//!
//! "In a microprocessor based system with a shared bus, the traffic
//! capacity of the bus limits the number of microprocessors that can be
//! used, and thus although prefetching cuts the miss ratio of each
//! processor ... the increase in traffic can lower the maximum possible
//! system performance level."
//!
//! The model is deliberately simple — the same back-of-envelope a 1985
//! designer would run: each processor issues `refs_per_second` references
//! and its cache converts them into `traffic_bytes_per_ref` of bus
//! traffic; the bus delivers `bandwidth` bytes per second; processors fit
//! until the offered load reaches a utilization ceiling.

/// A shared memory bus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharedBus {
    /// Deliverable bandwidth in bytes per second.
    pub bandwidth: f64,
    /// Maximum sustainable utilization before queueing collapses the
    /// system (designers of the era used 0.6 – 0.8).
    pub max_utilization: f64,
}

impl SharedBus {
    /// A representative mid-1980s multiprocessor bus: 8 bytes wide at
    /// 5 MHz, run to 70 % utilization.
    pub const TYPICAL_1985: SharedBus = SharedBus {
        bandwidth: 40.0e6,
        max_utilization: 0.7,
    };

    /// Creates a bus model.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth` is not positive or `max_utilization` is not
    /// in `(0, 1]`.
    pub fn new(bandwidth: f64, max_utilization: f64) -> Self {
        assert!(bandwidth > 0.0, "bus bandwidth must be positive");
        assert!(
            max_utilization > 0.0 && max_utilization <= 1.0,
            "utilization ceiling must be in (0, 1], got {max_utilization}"
        );
        SharedBus {
            bandwidth,
            max_utilization,
        }
    }

    /// Bus bytes per second one processor offers, given its reference
    /// rate and its cache's bytes-per-reference traffic.
    pub fn offered_load(&self, refs_per_second: f64, traffic_bytes_per_ref: f64) -> f64 {
        refs_per_second * traffic_bytes_per_ref
    }

    /// How many identical processors the bus supports before hitting the
    /// utilization ceiling (at least 0; a single processor that saturates
    /// the bus alone yields 0).
    ///
    /// # Panics
    ///
    /// Panics if either argument is not positive.
    pub fn max_processors(&self, refs_per_second: f64, traffic_bytes_per_ref: f64) -> u32 {
        assert!(refs_per_second > 0.0, "reference rate must be positive");
        assert!(
            traffic_bytes_per_ref > 0.0,
            "per-reference traffic must be positive"
        );
        let per_cpu = self.offered_load(refs_per_second, traffic_bytes_per_ref);
        ((self.bandwidth * self.max_utilization) / per_cpu).floor() as u32
    }

    /// Aggregate useful work: processors × per-processor speed, where the
    /// per-processor speed is degraded by its miss ratio through `cpi`.
    /// This is the §3.5.2 trade in one number: prefetching raises each
    /// processor's speed but lowers the processor count.
    pub fn system_throughput(
        &self,
        refs_per_second: f64,
        traffic_bytes_per_ref: f64,
        per_cpu_mips: f64,
    ) -> f64 {
        self.max_processors(refs_per_second, traffic_bytes_per_ref) as f64 * per_cpu_mips
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn processor_count_scales_inversely_with_traffic() {
        let bus = SharedBus::TYPICAL_1985;
        let n_light = bus.max_processors(1.0e6, 1.0);
        let n_heavy = bus.max_processors(1.0e6, 2.0);
        assert_eq!(n_light, 28);
        assert_eq!(n_heavy, 14);
    }

    #[test]
    fn prefetch_tradeoff_can_go_either_way() {
        let bus = SharedBus::TYPICAL_1985;
        // Demand: 2.0 B/ref, each CPU 1.0 MIPS. Prefetch: +40% traffic,
        // +25% speed → system throughput drops.
        let demand = bus.system_throughput(1.0e6, 2.0, 1.0);
        let prefetch = bus.system_throughput(1.0e6, 2.8, 1.25);
        assert!(prefetch < demand, "prefetch {prefetch} vs demand {demand}");
        // But with a tiny traffic cost and a big win, prefetch can win.
        let cheap_prefetch = bus.system_throughput(1.0e6, 2.1, 1.25);
        assert!(cheap_prefetch > demand);
    }

    #[test]
    fn utilization_ceiling_respected() {
        let bus = SharedBus::new(100.0, 0.5);
        // 50 bytes/s usable; 10 bytes/s per CPU → 5 CPUs.
        assert_eq!(bus.max_processors(10.0, 1.0), 5);
    }

    #[test]
    #[should_panic(expected = "utilization")]
    fn bad_utilization_rejected() {
        SharedBus::new(1.0, 1.5);
    }
}
