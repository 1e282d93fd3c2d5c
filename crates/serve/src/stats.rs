//! Live server counters behind the `stats` endpoint.
//!
//! Everything is a relaxed atomic: the counters are monotonic tallies
//! read for observability, not for synchronization, so the cheapest
//! ordering is the right one.

use crate::protocol::{OnePassCounters, PoolCounters, RouterCounters, StatsResult, StoreCounters};
use smith85_core::SimSession;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic request/queue/worker counters, shared across threads.
#[derive(Default)]
pub struct ServerStats {
    /// `simulate` requests admitted.
    pub simulate_requests: AtomicU64,
    /// `sweep` requests admitted.
    pub sweep_requests: AtomicU64,
    /// `catalog` requests answered.
    pub catalog_requests: AtomicU64,
    /// `stats` requests answered.
    pub stats_requests: AtomicU64,
    /// Jobs completed successfully by workers.
    pub completed: AtomicU64,
    /// Jobs refused because the queue was full.
    pub rejected_overload: AtomicU64,
    /// Requests that failed to parse or validate.
    pub protocol_errors: AtomicU64,
    /// Jobs whose deadline expired.
    pub deadline_misses: AtomicU64,
    /// Worker milliseconds spent executing `simulate` jobs.
    pub busy_ms_simulate: AtomicU64,
    /// Worker milliseconds spent executing `sweep` jobs.
    pub busy_ms_sweep: AtomicU64,
}

impl ServerStats {
    /// Adds one to a counter.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `ms` to a busy-time counter.
    pub fn add_ms(counter: &AtomicU64, ms: u64) {
        counter.fetch_add(ms, Ordering::Relaxed);
    }

    /// A point-in-time snapshot joined with queue state, the session's
    /// pool, (when the server runs with `--store`) persistent-store
    /// state and one-pass counters, and (in router mode) shard-router
    /// counters. The one-pass counters come from the session registry,
    /// which only real engine traversals bump: memo and store hits add
    /// nothing.
    pub fn snapshot(
        &self,
        queue_depth: usize,
        queue_high_water: usize,
        workers: usize,
        session: &SimSession,
        router: Option<RouterCounters>,
    ) -> StatsResult {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let pool_stats = session.pool().stats();
        let registry = session.registry();
        StatsResult {
            simulate_requests: load(&self.simulate_requests),
            sweep_requests: load(&self.sweep_requests),
            catalog_requests: load(&self.catalog_requests),
            stats_requests: load(&self.stats_requests),
            completed: load(&self.completed),
            rejected_overload: load(&self.rejected_overload),
            protocol_errors: load(&self.protocol_errors),
            deadline_misses: load(&self.deadline_misses),
            queue_depth,
            queue_high_water,
            workers,
            busy_ms_simulate: load(&self.busy_ms_simulate),
            busy_ms_sweep: load(&self.busy_ms_sweep),
            pool: PoolCounters {
                entries: pool_stats.entries,
                hits: pool_stats.hits,
                misses: pool_stats.misses,
                materialized_bytes: pool_stats.materialized_bytes,
                resident_bytes: pool_stats.memory_bytes as u64,
            },
            store: session.store().map(|store| {
                let s = store.stats();
                StoreCounters {
                    entries: s.entries,
                    bytes: s.total_bytes,
                    hits: s.hits,
                    misses: s.misses,
                    writes: s.writes,
                    corrupt_quarantined: s.corrupt_quarantined,
                    gc_evictions: s.gc_evictions,
                }
            }),
            one_pass: Some(OnePassCounters {
                refs: registry.counter("one_pass_refs_total").get(),
                grid_cells: registry.counter("one_pass_grid_cells").get(),
            }),
            router,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let stats = ServerStats::default();
        ServerStats::bump(&stats.simulate_requests);
        ServerStats::bump(&stats.simulate_requests);
        ServerStats::bump(&stats.rejected_overload);
        ServerStats::add_ms(&stats.busy_ms_simulate, 37);
        let session = SimSession::builder().build().unwrap();
        session.registry().counter("one_pass_refs_total").add(5_000);
        session.registry().counter("one_pass_grid_cells").add(54);
        let snap = stats.snapshot(3, 9, 4, &session, None);
        assert_eq!(snap.simulate_requests, 2);
        assert_eq!(snap.rejected_overload, 1);
        assert_eq!(snap.busy_ms_simulate, 37);
        assert_eq!(snap.queue_depth, 3);
        assert_eq!(snap.queue_high_water, 9);
        assert_eq!(snap.workers, 4);
        assert_eq!(snap.pool.entries, 0);
        let one_pass = snap.one_pass.expect("snapshot always carries one_pass");
        assert_eq!(one_pass.refs, 5_000);
        assert_eq!(one_pass.grid_cells, 54);
    }
}
