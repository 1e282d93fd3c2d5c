//! The `stats` view. The serve layer keeps no counters of its own:
//! every tally is a registry counter, counted through handles resolved
//! once when the server binds ([`ServeMetrics`]), and [`stats_result`]
//! reads a reply out of a registry snapshot through one name table
//! (listed in EXPERIMENTS.md, "Live stats"), so `stats` and `/metrics`
//! agree by construction. Sizes still come from their owners.
//!
//! The two `kind`-labeled families also carry their unlabeled total, as
//! a router's federated view does for its `shard` label: that series
//! sorts first in its family, so a reader that takes the first series
//! of a name sees the family total, never one kind's share.

use crate::protocol::{OnePassCounters, PoolCounters, RouterCounters, StatsResult, StoreCounters};
use smith85_core::SimSession;
use smith85_obs::{Counter, Gauge, Histogram, Registry, MS_BOUNDS};
use std::sync::Arc;

/// One `kind` series of a labeled serve family, counted together with
/// the family's unlabeled total.
pub(crate) struct KindCounter {
    kind: Arc<Counter>,
    total: Arc<Counter>,
}

impl KindCounter {
    fn resolve(registry: &Registry, name: &str, kind: &str) -> KindCounter {
        KindCounter {
            kind: registry.counter_with(name, &[("kind", kind)]),
            total: registry.counter(name),
        }
    }

    pub(crate) fn add(&self, n: u64) {
        self.kind.add(n);
        self.total.add(n);
    }
}

/// Bucket bounds (microseconds) for the `serve_stage_us` waterfall:
/// single-microsecond steps where decoding a request and encoding and
/// writing a reply sit (1–10 µs), widening up to a second for slower
/// stages such as a job's wait in the queue.
const STAGE_US_BOUNDS: &[f64] = &[
    1.0,
    2.0,
    3.0,
    4.0,
    5.0,
    6.0,
    8.0,
    10.0,
    15.0,
    20.0,
    30.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1_000.0,
    2_500.0,
    10_000.0,
    100_000.0,
    1_000_000.0,
];

/// The serve layer's handles into the session registry, resolved (and
/// so registered, for the first scrape) once in
/// [`Server::bind`](crate::Server::bind). The request path counts only
/// through these.
pub(crate) struct ServeMetrics {
    pub(crate) simulate_requests: KindCounter,
    pub(crate) sweep_requests: KindCounter,
    pub(crate) catalog_requests: KindCounter,
    pub(crate) stats_requests: KindCounter,
    pub(crate) completed: Arc<Counter>,
    pub(crate) rejected_overload: Arc<Counter>,
    pub(crate) protocol_errors: Arc<Counter>,
    pub(crate) deadline_misses: Arc<Counter>,
    pub(crate) busy_ms_simulate: KindCounter,
    pub(crate) busy_ms_sweep: KindCounter,
    pub(crate) queue_depth: Arc<Gauge>,
    pub(crate) queue_wait_ms: Arc<Histogram>,
    pub(crate) exec_ms: Arc<Histogram>,
    /// `serve_stage_us{stage="decode"}`: decoding one request line
    /// (every line, answered inline or not).
    pub(crate) decode_us: Arc<Histogram>,
    /// `serve_stage_us{stage="queue"}`: a job's wait from admission to
    /// a worker's pickup, in the resolution `queue_wait_ms` lacks.
    pub(crate) queue_us: Arc<Histogram>,
    /// `serve_stage_us{stage="encode"}`: a job reply's encoding.
    pub(crate) encode_us: Arc<Histogram>,
    /// `serve_stage_us{stage="write"}`: a job reply's socket write.
    pub(crate) write_us: Arc<Histogram>,
}

impl ServeMetrics {
    pub(crate) fn resolve(registry: &Registry) -> ServeMetrics {
        let requests = |kind| KindCounter::resolve(registry, "serve_requests_total", kind);
        let busy_ms = |kind| KindCounter::resolve(registry, "serve_busy_ms_total", kind);
        let stage_us =
            |stage| registry.histogram_with("serve_stage_us", &[("stage", stage)], STAGE_US_BOUNDS);
        ServeMetrics {
            simulate_requests: requests("simulate"),
            sweep_requests: requests("sweep"),
            catalog_requests: requests("catalog"),
            stats_requests: requests("stats"),
            completed: registry.counter("serve_completed_total"),
            rejected_overload: registry.counter("serve_rejected_overload_total"),
            protocol_errors: registry.counter("serve_protocol_errors_total"),
            deadline_misses: registry.counter("serve_deadline_misses_total"),
            busy_ms_simulate: busy_ms("simulate"),
            busy_ms_sweep: busy_ms("sweep"),
            queue_depth: registry.gauge("serve_queue_depth"),
            queue_wait_ms: registry.histogram("serve_queue_wait_ms", MS_BOUNDS),
            exec_ms: registry.histogram("serve_exec_ms", MS_BOUNDS),
            decode_us: stage_us("decode"),
            queue_us: stage_us("queue"),
            encode_us: stage_us("encode"),
            write_us: stage_us("write"),
        }
    }
}

/// Builds a `stats` reply from a snapshot of `session`'s registry: the
/// node's own, so a router never reports its shards' counts. The queue
/// sizes and worker count come from the server; `router` says whether
/// the node routes.
pub(crate) fn stats_result(
    session: &SimSession,
    queue_depth: usize,
    queue_high_water: usize,
    workers: usize,
    router: bool,
) -> StatsResult {
    let snapshot = session.registry().snapshot();
    let counter = |name: &str| snapshot.counter_value(name, &[]);
    let by_kind = |name: &str, kind: &str| snapshot.counter_value(name, &[("kind", kind)]);
    let pool = session.pool().stats();
    StatsResult {
        simulate_requests: by_kind("serve_requests_total", "simulate"),
        sweep_requests: by_kind("serve_requests_total", "sweep"),
        catalog_requests: by_kind("serve_requests_total", "catalog"),
        stats_requests: by_kind("serve_requests_total", "stats"),
        completed: counter("serve_completed_total"),
        rejected_overload: counter("serve_rejected_overload_total"),
        protocol_errors: counter("serve_protocol_errors_total"),
        deadline_misses: counter("serve_deadline_misses_total"),
        queue_depth,
        queue_high_water,
        workers,
        busy_ms_simulate: by_kind("serve_busy_ms_total", "simulate"),
        busy_ms_sweep: by_kind("serve_busy_ms_total", "sweep"),
        pool: PoolCounters {
            entries: pool.entries,
            hits: counter("pool_hits_total"),
            misses: counter("pool_misses_total"),
            materialized_bytes: counter("pool_materialized_bytes_total"),
            resident_bytes: pool.memory_bytes as u64,
        },
        store: session.store().map(|store| {
            let sizes = store.stats();
            StoreCounters {
                entries: sizes.entries,
                bytes: sizes.total_bytes,
                hits: counter("store_hits_total"),
                misses: counter("store_misses_total"),
                writes: counter("store_writes_total"),
                corrupt_quarantined: counter("store_corrupt_quarantined_total"),
                gc_evictions: counter("store_gc_evictions_total"),
            }
        }),
        one_pass: Some(OnePassCounters {
            refs: counter("one_pass_refs_total"),
            grid_cells: counter("one_pass_grid_cells"),
        }),
        router: router.then(|| {
            let up = snapshot
                .gauges
                .iter()
                .filter(|g| g.name == "router_shard_up");
            let (shards, healthy) = up.fold((0, 0.0), |(n, sum), g| (n + 1, sum + g.value));
            RouterCounters {
                shards,
                healthy: healthy as u64,
                forwarded: counter("router_forwarded_total"),
                hedged: counter("router_hedged_total"),
                shard_overloads: counter("router_shard_overloads_total"),
                health_probes: counter("router_health_probes_total"),
                federated_shards: counter("router_federated_shards_total"),
                stale_shards: counter("router_stale_shards_total"),
            }
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let session = SimSession::builder().build().unwrap();
        let metrics = ServeMetrics::resolve(session.registry());
        metrics.simulate_requests.add(2);
        metrics.rejected_overload.inc();
        metrics.busy_ms_simulate.add(37);
        session.registry().counter("one_pass_refs_total").add(5_000);
        session.registry().counter("one_pass_grid_cells").add(54);
        let snap = stats_result(&session, 3, 9, 4, false);
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
