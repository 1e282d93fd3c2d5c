//! The unified configure→instrument→run entry surface.
//!
//! Before this module existed the workspace had three copies of the
//! "build a config, resolve a workload, pump a trace through a
//! simulator" dance: the CLI's `simulate`/`experiment` commands, the
//! suite runner, and the serve worker. [`SimSession`] is the one front
//! door: a builder configures the run (trace length, sizes, threads,
//! shared pool), points every hot layer (trace pool, sweep engine,
//! cachesim batch loop) at one metrics [`Registry`], and the session
//! then exposes the simulation kernels all three callers share.
//! Because the kernels are the same code paths as before — `UnifiedCache
//! ::run_slice`, `OnePassEngine::observe_slice` — results are
//! bit-identical to direct library calls; the serve loopback tests pin
//! that. One sweep method, [`SimSession::sweep_grid`], answers every
//! multi-configuration request: the one-pass engine for LRU grids and
//! size sweeps, one cache per cell for the other replacement policies.
//!
//! Instrumentation is *structural*, not optional bolted-on logging: the
//! registry rides inside [`ExperimentConfig`], so anything run under a
//! session's config (including every suite experiment) reports into the
//! same [`Registry`]. Every layer resolves its metric handles once, when
//! the session is built; counting is then a relaxed atomic add, never a
//! lookup by name.
//!
//! ```
//! use smith85_core::session::SimSession;
//! use smith85_cachesim::CacheConfig;
//!
//! let session = SimSession::builder().quick().build().unwrap();
//! let trace = session.pool().profile(
//!     &smith85_synth::catalog::by_name("VCCOM").unwrap().profile().clone(),
//!     2_000,
//! );
//! let config = CacheConfig::paper_table1(4 * 1024).unwrap();
//! let stats = session.simulate_unified(&trace.as_slice()[..2_000], config).unwrap();
//! assert_eq!(stats.total_refs(), 2_000);
//! let snapshot = session.registry().snapshot();
//! assert!(snapshot.counters.iter().any(|c| c.name == "cachesim_refs_total" && c.value == 2_000));
//! ```

use crate::experiments::{ConfigError, ExperimentConfig, Workload};
use crate::trace_pool::TracePool;
use smith85_cachesim::{
    CacheConfig, CacheStats, ConfigError as CacheConfigError, GridSpec, Mapping, OnePassEngine,
    OnePassGrid, Replacement, Simulator, SplitCache, UnifiedCache,
};
use smith85_obs::{Counter, Gauge, Registry};
use smith85_store::Store;
use smith85_trace::MemoryAccess;
use smith85_tracelog::{self as tracelog, FieldValue, SinkHandle, TraceContext};
use std::sync::Arc;
use std::time::Instant;

/// Both halves of a split-cache run (plus the merged total).
#[derive(Debug, Clone, Copy)]
pub struct SplitStats {
    /// The instruction half.
    pub instruction: CacheStats,
    /// The data half.
    pub data: CacheStats,
    /// Both halves merged.
    pub total: CacheStats,
}

/// Builder for [`SimSession`]; defaults mirror
/// [`ExperimentConfig::paper`].
#[derive(Debug, Clone, Default)]
pub struct SimSessionBuilder {
    config: crate::experiments::ExperimentConfigBuilder,
    journal: SinkHandle,
    store_path: Option<std::path::PathBuf>,
    store_budget: Option<u64>,
}

impl SimSessionBuilder {
    /// Switches to the reduced [`ExperimentConfig::quick`] scale.
    pub fn quick(mut self) -> Self {
        self.config = self.config.quick();
        self
    }

    /// References simulated per workload.
    pub fn trace_len(mut self, trace_len: usize) -> Self {
        self.config = self.config.trace_len(trace_len);
        self
    }

    /// Worker threads for the simulation grid.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config = self.config.threads(threads);
        self
    }

    /// A shared trace pool (to share materializations across sessions).
    pub fn pool(mut self, pool: TracePool) -> Self {
        self.config = self.config.pool(pool);
        self
    }

    /// The metrics registry to record into (a fresh one by default).
    pub fn registry(mut self, registry: Registry) -> Self {
        self.config = self.config.registry(registry);
        self
    }

    /// A structured-event journal. Every kernel run then opens a trace
    /// span (rooting a fresh trace id unless the caller already entered
    /// one via [`tracelog::enter`]), and the pool/sweep/runner seams
    /// record their own child spans into the same sink. The default is
    /// [`SinkHandle::disabled`], which costs nothing.
    pub fn journal(mut self, sink: SinkHandle) -> Self {
        self.journal = sink;
        self
    }

    /// A persistent store rooted at `path` (created if absent). The
    /// session then warm-starts: the trace pool reads spills from disk
    /// instead of regenerating, fresh materializations are persisted,
    /// and [`build`](Self::build) runs the store's crash-recovery scan
    /// (quarantining any corrupt records it finds).
    pub fn store(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.store_path = Some(path.into());
        self
    }

    /// A byte budget for the store: after every write the LRU collector
    /// trims the store back under it. No effect without
    /// [`store`](Self::store).
    pub fn store_budget(mut self, bytes: u64) -> Self {
        self.store_budget = Some(bytes);
        self
    }

    /// Validates the configuration and points the trace pool, the sweep
    /// engine, the store and the session kernels at one registry. Every
    /// metric handle is resolved here, which also registers the core
    /// metric families, so an exposition scrape sees them even before
    /// traffic.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the configuration is invalid (see
    /// [`ExperimentConfigBuilder::build`](crate::experiments::ExperimentConfigBuilder::build)).
    pub fn build(self) -> Result<SimSession, ConfigError> {
        let config = self.config.build()?;
        let registry = config.registry();
        config.pool.set_registry(registry);
        let store = match self.store_path {
            Some(path) => {
                let store = Store::open_with_budget(&path, self.store_budget)
                    .map_err(|err| ConfigError::Store(err.to_string()))?;
                let store = Arc::new(store);
                store.set_observer(Arc::new(RegistryStoreObserver::new(registry)));
                config.pool.set_store(Arc::clone(&store));
                Some(store)
            }
            None => None,
        };
        Ok(SimSession {
            config,
            journal: self.journal,
            store,
        })
    }
}

/// Feeds the store's observer seam from the session registry, so store
/// counters land beside everything else. The handles are resolved once;
/// an event only matches its name against this short list.
struct RegistryStoreObserver {
    counters: Vec<(&'static str, Arc<Counter>)>,
    bytes: Arc<Gauge>,
}

impl RegistryStoreObserver {
    fn new(registry: &Registry) -> RegistryStoreObserver {
        let counters = [
            "store_hits_total",
            "store_misses_total",
            "store_writes_total",
            "store_corrupt_quarantined_total",
            "store_gc_evictions_total",
        ]
        .into_iter()
        .map(|name| (name, registry.counter(name)))
        .collect();
        RegistryStoreObserver {
            counters,
            bytes: registry.gauge("store_bytes"),
        }
    }
}

impl smith85_store::StoreObserver for RegistryStoreObserver {
    fn count(&self, name: &'static str, n: u64) {
        if let Some((_, counter)) = self.counters.iter().find(|(known, _)| *known == name) {
            counter.add(n);
        }
    }

    fn gauge(&self, name: &'static str, value: f64) {
        if name == "store_bytes" {
            self.bytes.set(value);
        }
    }
}

/// One configured, instrumented simulation context: the single entry
/// surface shared by the CLI, the suite runner and the serve workers.
/// See the module docs for the full story.
#[derive(Debug, Clone)]
pub struct SimSession {
    config: ExperimentConfig,
    journal: SinkHandle,
    store: Option<Arc<Store>>,
}

impl Default for SimSession {
    fn default() -> Self {
        // invariant: the builder's defaults are valid.
        SimSession::builder()
            .build()
            .expect("default session config is valid")
    }
}

impl SimSession {
    /// A builder seeded with the paper-scale defaults.
    pub fn builder() -> SimSessionBuilder {
        SimSessionBuilder::default()
    }

    /// The session's experiment configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// The session's metrics registry.
    pub fn registry(&self) -> &Registry {
        self.config.registry()
    }

    /// The session's shared trace pool.
    pub fn pool(&self) -> &TracePool {
        &self.config.pool
    }

    /// The session's persistent store, when one was configured via
    /// [`SimSessionBuilder::store`].
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.store.as_ref()
    }

    /// The session's structured-event journal (disabled by default).
    pub fn journal(&self) -> &SinkHandle {
        &self.journal
    }

    /// Runs `f` inside a trace span named `name`: a child of the
    /// thread's current context if one is entered (e.g. a serve
    /// worker's request span), else a root span with a fresh trace id
    /// when this session journals, else uninstrumented. `fields` is
    /// only invoked when the span is actually recorded.
    fn traced<R>(
        &self,
        name: &str,
        fields: impl FnOnce() -> Vec<(String, FieldValue)>,
        f: impl FnOnce() -> R,
    ) -> R {
        let current = tracelog::current();
        let span = if current.enabled() {
            current.child(name, fields())
        } else if self.journal.enabled() {
            TraceContext::root(self.journal.clone(), name, fields())
        } else {
            return f();
        };
        let _enter = tracelog::enter(span.ctx().clone());
        f()
    }

    /// Runs `replay` through a unified cache and returns its statistics
    /// (bit-identical to a direct [`UnifiedCache`] run).
    ///
    /// # Errors
    ///
    /// Returns the cache's [`CacheConfigError`] for an invalid
    /// configuration.
    pub fn simulate_unified(
        &self,
        replay: &[MemoryAccess],
        config: CacheConfig,
    ) -> Result<CacheStats, CacheConfigError> {
        self.traced(
            "simulate_unified",
            || vec![("refs".to_string(), FieldValue::U64(replay.len() as u64))],
            || {
                let mut cache = UnifiedCache::new(config)?;
                self.timed_batch(replay.len(), || cache.run_slice(replay));
                Ok(*cache.stats())
            },
        )
    }

    /// Runs `replay` through a split instruction/data cache.
    ///
    /// # Errors
    ///
    /// Returns the cache's [`CacheConfigError`] for an invalid
    /// configuration.
    pub fn simulate_split(
        &self,
        replay: &[MemoryAccess],
        iconfig: CacheConfig,
        dconfig: CacheConfig,
        purge_interval: Option<u64>,
    ) -> Result<SplitStats, CacheConfigError> {
        self.traced(
            "simulate_split",
            || vec![("refs".to_string(), FieldValue::U64(replay.len() as u64))],
            || {
                let mut cache = SplitCache::new(iconfig, dconfig, purge_interval)?;
                self.timed_batch(replay.len(), || cache.run_slice(replay));
                Ok(SplitStats {
                    instruction: *cache.instruction_stats(),
                    data: *cache.data_stats(),
                    total: cache.total_stats(),
                })
            },
        )
    }

    /// Simulates a pooled workload prefix of `len` references through a
    /// unified cache (the serve `simulate` kernel).
    ///
    /// # Errors
    ///
    /// Returns the cache's [`CacheConfigError`] for an invalid
    /// configuration.
    pub fn simulate_workload(
        &self,
        workload: &Workload,
        len: usize,
        config: CacheConfig,
    ) -> Result<CacheStats, CacheConfigError> {
        self.traced(
            "simulate_workload",
            || workload_fields(workload, len),
            || {
                let trace = self.config.pool.workload(workload, len);
                self.count_family_refs(workload, len);
                self.simulate_unified(&trace.as_slice()[..len], config)
            },
        )
    }

    /// Sweeps every cell of `spec` over `replay`, picking the engine by
    /// replacement policy: one pass of the multi-configuration engine
    /// for LRU, where Mattson stack inclusion holds, and one
    /// [`UnifiedCache`] run per cell for every other policy. Either way
    /// each cell is bit-identical to its own [`UnifiedCache`] run.
    ///
    /// An LRU sweep emits a `one_pass_sweep` span and bumps the
    /// `one_pass_refs_total` / `one_pass_grid_cells` counters; any other
    /// policy bumps `policy_grid_cells` and runs each cell through
    /// [`simulate_unified`](Self::simulate_unified).
    ///
    /// # Errors
    ///
    /// Returns the [`GridSpec::cells`] error for a grid no sweep
    /// answers.
    pub fn sweep_grid(
        &self,
        replay: &[MemoryAccess],
        spec: &GridSpec,
    ) -> Result<OnePassGrid, CacheConfigError> {
        if spec.replacement != Replacement::Lru {
            return self.sweep_per_config(replay, spec);
        }
        self.traced(
            "one_pass_sweep",
            || {
                vec![
                    ("refs".to_string(), FieldValue::U64(replay.len() as u64)),
                    (
                        "sizes".to_string(),
                        FieldValue::U64(spec.sizes.len() as u64),
                    ),
                    ("ways".to_string(), FieldValue::U64(spec.ways.len() as u64)),
                ]
            },
            || {
                let mut engine = OnePassEngine::new(spec)?;
                let cells = engine.cells().len() as u64;
                self.timed_batch(replay.len(), || engine.observe_slice(replay));
                self.config.metrics.one_pass_refs.add(replay.len() as u64);
                self.config.metrics.one_pass_cells.add(cells);
                Ok(engine.finish())
            },
        )
    }

    /// One full [`UnifiedCache`] run per cell of `spec` under
    /// `spec.replacement`: one trace traversal per cell instead of one
    /// in total, for the policies stack inclusion does not cover.
    fn sweep_per_config(
        &self,
        replay: &[MemoryAccess],
        spec: &GridSpec,
    ) -> Result<OnePassGrid, CacheConfigError> {
        let cells = spec.cells()?;
        self.config.metrics.policy_cells.add(cells.len() as u64);
        let stats = cells
            .iter()
            .map(|cell| {
                let lines = cell.size_bytes / spec.line_size;
                let mapping = if cell.ways == lines {
                    Mapping::FullyAssociative
                } else if cell.ways == 1 {
                    Mapping::Direct
                } else {
                    Mapping::SetAssociative(cell.ways)
                };
                let config = CacheConfig::builder(cell.size_bytes)
                    .line_size(spec.line_size)
                    .mapping(mapping)
                    .write_policy(spec.write_policy)
                    .replacement(spec.replacement)
                    .build()
                    .expect("cell shapes validated by the grid");
                self.simulate_unified(replay, config)
                    .expect("cell configs are valid")
            })
            .collect();
        Ok(OnePassGrid::new(spec, cells, stats))
    }

    /// [`sweep_grid`](Self::sweep_grid) over a pooled workload prefix
    /// (the serve `sweep` kernel), memoized per (workload identity,
    /// length, grid spec): repeated identical sweeps replay the whole
    /// grid from the pool without touching the trace again.
    ///
    /// Emits a `sweep_grid_workload` span.
    ///
    /// # Errors
    ///
    /// See [`sweep_grid`](Self::sweep_grid).
    pub fn sweep_grid_workload(
        &self,
        workload: &Workload,
        len: usize,
        spec: &GridSpec,
    ) -> Result<OnePassGrid, CacheConfigError> {
        // Validate eagerly so errors are never memoized.
        spec.cells()?;
        let key = format!(
            "grid/{}/{}/sizes={:?}/ways={:?}/line={}/write={:?}/replacement={}/full={}",
            crate::trace_pool::workload_key(workload),
            len,
            spec.sizes,
            spec.ways,
            spec.line_size,
            spec.write_policy,
            spec.replacement.key_label(),
            spec.include_fully_associative,
        );
        let grid = self.config.pool.result(&key, || {
            self.traced(
                "sweep_grid_workload",
                || {
                    let mut fields = workload_fields(workload, len);
                    fields.push((
                        "replacement".to_string(),
                        FieldValue::Str(spec.replacement.key_label()),
                    ));
                    fields
                },
                || {
                    let trace = self.config.pool.workload(workload, len);
                    self.count_family_refs(workload, len);
                    self.sweep_grid(&trace.as_slice()[..len], spec)
                        .expect("grid spec validated above")
                },
            )
        });
        Ok((*grid).clone())
    }

    /// Bumps `family_refs_total` for non-CPU workloads, so dashboards
    /// can split simulation volume by workload family.
    fn count_family_refs(&self, workload: &Workload, len: usize) {
        if matches!(workload, Workload::Family(_)) {
            self.config.metrics.family_refs.add(len as u64);
        }
    }

    /// Times one batched kernel invocation and reports throughput.
    fn timed_batch(&self, refs: usize, kernel: impl FnOnce()) {
        let start = Instant::now();
        kernel();
        let elapsed = start.elapsed().as_secs_f64();
        let metrics = &self.config.metrics;
        metrics.cachesim_refs.add(refs as u64);
        metrics.cachesim_batches.inc();
        metrics.cachesim_batch_ms.observe(elapsed * 1e3);
        if elapsed > 0.0 {
            metrics.cachesim_refs_per_sec.observe(refs as f64 / elapsed);
        }
    }
}

/// Span fields identifying a workload-level kernel run.
fn workload_fields(workload: &Workload, len: usize) -> Vec<(String, FieldValue)> {
    let label = match workload {
        Workload::Single(p) => p.name.clone(),
        Workload::Mix { members, .. } => format!("mix[{}]", members.len()),
        Workload::Family(spec) => spec.name().to_string(),
    };
    vec![
        ("workload".to_string(), FieldValue::Str(label)),
        (
            "family".to_string(),
            FieldValue::Str(workload.family_name().to_string()),
        ),
        ("len".to_string(), FieldValue::U64(len as u64)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use smith85_synth::catalog;

    fn vccom() -> Workload {
        Workload::Single(catalog::by_name("VCCOM").unwrap().profile().clone())
    }

    #[test]
    fn session_results_are_bit_identical_to_direct_runs() {
        let session = SimSession::builder().quick().build().unwrap();
        const LEN: usize = 3_000;
        let config = CacheConfig::builder(4_096).line_size(16).build().unwrap();

        let served = session.simulate_workload(&vccom(), LEN, config).unwrap();

        let profile = catalog::by_name("VCCOM").unwrap().profile().clone();
        let trace = profile.generate(LEN);
        let mut direct = UnifiedCache::new(config).unwrap();
        direct.run_slice(trace.as_slice());
        assert_eq!(
            served.miss_ratio().to_bits(),
            direct.stats().miss_ratio().to_bits()
        );
        assert_eq!(served.total_misses(), direct.stats().total_misses());
    }

    #[test]
    fn size_sweep_matches_per_config_caches() {
        let session = SimSession::builder().quick().build().unwrap();
        const LEN: usize = 2_000;
        let trace = catalog::by_name("VCCOM").unwrap().profile().generate(LEN);
        for replacement in [Replacement::Lru, Replacement::Fifo] {
            let mut spec = GridSpec::fully_associative(vec![256, 1024, 4096], 16);
            spec.replacement = replacement;
            let grid = session.sweep_grid_workload(&vccom(), LEN, &spec).unwrap();
            for &size in &spec.sizes {
                let config = CacheConfig::builder(size)
                    .replacement(replacement)
                    .build()
                    .unwrap();
                let mut direct = UnifiedCache::new(config).unwrap();
                direct.run_slice(trace.as_slice());
                let swept = grid.fully_associative(size).unwrap();
                assert_eq!(swept, direct.stats(), "{size} B {replacement:?}");
            }
        }
        // Only the LRU sweep ran the one-pass engine.
        let counter = |name: &str| session.registry().snapshot().counter_value(name, &[]);
        assert_eq!(counter("one_pass_refs_total"), LEN as u64);
        assert_eq!(counter("one_pass_grid_cells"), 3);
        assert_eq!(counter("policy_grid_cells"), 3);
    }

    #[test]
    fn session_records_pool_and_cachesim_metrics() {
        let session = SimSession::builder().quick().build().unwrap();
        let config = CacheConfig::paper_table1(1_024).unwrap();
        let _ = session.simulate_workload(&vccom(), 1_000, config).unwrap();
        let _ = session.simulate_workload(&vccom(), 1_000, config).unwrap();

        let snapshot = session.registry().snapshot();
        let counter = |name: &str| snapshot.counter_value(name, &[]);
        assert_eq!(counter("pool_misses_total"), 1, "one materialization");
        assert_eq!(counter("pool_hits_total"), 1, "second run replays");
        assert!(counter("pool_materialized_bytes_total") > 0);
        assert_eq!(counter("cachesim_refs_total"), 2_000);
        assert_eq!(counter("cachesim_batches_total"), 2);
        let batch = snapshot
            .histograms
            .iter()
            .find(|h| h.name == "cachesim_batch_ms")
            .unwrap();
        assert_eq!(batch.count, 2);
    }

    #[test]
    fn sweep_grid_matches_per_cell_simulation_and_memoizes() {
        let session = SimSession::builder().quick().build().unwrap();
        const LEN: usize = 2_000;
        let spec = GridSpec::new(vec![256, 1024, 4096], vec![1, 2, 4]);
        let grid = session.sweep_grid_workload(&vccom(), LEN, &spec).unwrap();
        assert_eq!(grid.cells().len(), 9);

        // Bit-identical to the per-config session kernel.
        let trace = session.pool().workload(&vccom(), LEN);
        for (cell, stats) in grid.iter() {
            let config = CacheConfig::builder(cell.size_bytes)
                .line_size(16)
                .mapping(smith85_cachesim::Mapping::SetAssociative(cell.ways))
                .build()
                .unwrap();
            let direct = session
                .simulate_unified(&trace.as_slice()[..LEN], config)
                .unwrap();
            assert_eq!(stats, &direct, "cell {}B x {}-way", cell.size_bytes, cell.ways);
        }

        // A repeated identical sweep answers from the pool memo: the
        // one-pass counters do not move again.
        let counter = |name: &str| session.registry().snapshot().counter_value(name, &[]);
        assert_eq!(counter("one_pass_refs_total"), LEN as u64);
        assert_eq!(counter("one_pass_grid_cells"), 9);
        let again = session.sweep_grid_workload(&vccom(), LEN, &spec).unwrap();
        assert_eq!(again.stats(), grid.stats());
        assert_eq!(counter("one_pass_refs_total"), LEN as u64);
        assert_eq!(counter("one_pass_grid_cells"), 9);

        // A different spec is a different memo entry.
        let other = GridSpec::new(vec![256, 1024, 4096], vec![1, 2]);
        let smaller = session.sweep_grid_workload(&vccom(), LEN, &other).unwrap();
        assert_eq!(smaller.cells().len(), 6);
        assert_eq!(counter("one_pass_refs_total"), 2 * LEN as u64);
    }

    #[test]
    fn sweep_grid_rejects_unsupported_specs_without_memoizing() {
        let session = SimSession::builder().quick().build().unwrap();
        let mut spec = GridSpec::new(vec![256], vec![1]);
        spec.write_policy = smith85_cachesim::WritePolicy::WriteThrough { allocate: false };
        assert!(session.sweep_grid_workload(&vccom(), 500, &spec).is_err());
        assert!(session.sweep_grid(&[], &spec).is_err());
    }

    #[test]
    fn split_stats_merge_both_halves() {
        let session = SimSession::builder().quick().build().unwrap();
        let trace = session.pool().workload(&vccom(), 2_000);
        let cfg = CacheConfig::paper_table1(1_024).unwrap();
        let split = session
            .simulate_split(&trace.as_slice()[..2_000], cfg, cfg, Some(20_000))
            .unwrap();
        assert_eq!(
            split.total.total_refs(),
            split.instruction.total_refs() + split.data.total_refs()
        );
        assert_eq!(split.total.total_refs(), 2_000);
    }

    #[test]
    fn journaled_session_emits_span_tree_with_pool_child() {
        use smith85_tracelog::{EventKind, RingJournal, SinkHandle};
        let journal = Arc::new(RingJournal::new(2, 1024));
        let session = SimSession::builder()
            .quick()
            .journal(SinkHandle::new(journal.clone()))
            .build()
            .unwrap();
        let cfg = CacheConfig::paper_table1(1_024).unwrap();
        let _ = session.simulate_workload(&vccom(), 1_000, cfg).unwrap();

        let events = journal.snapshot();
        let root = events
            .iter()
            .find(|e| e.kind == EventKind::SpanStart && e.name == "simulate_workload")
            .expect("workload root span");
        assert_eq!(root.parent_span_id, 0, "fresh trace id roots the run");
        assert!(!root.trace_id.is_empty());
        let materialize = events
            .iter()
            .find(|e| e.kind == EventKind::SpanStart && e.name == "pool_materialize")
            .expect("pool materialization span");
        assert_eq!(materialize.trace_id, root.trace_id, "same trace");
        assert_eq!(materialize.parent_span_id, root.span_id);
        let unified_end = events
            .iter()
            .find(|e| e.kind == EventKind::SpanEnd && e.name == "simulate_unified")
            .expect("inner kernel span closes");
        assert!(unified_end.fields.iter().any(|(k, _)| k == "dur_us"));
    }

    #[test]
    fn unjournaled_session_records_no_trace_events() {
        // Guard for the zero-overhead claim: with no journal and no
        // entered context, kernels must not mint trace ids or spans.
        let session = SimSession::builder().quick().build().unwrap();
        assert!(!session.journal().enabled());
        let cfg = CacheConfig::paper_table1(1_024).unwrap();
        let _ = session.simulate_workload(&vccom(), 500, cfg).unwrap();
        assert!(!smith85_tracelog::current().enabled());
    }

    #[test]
    fn invalid_session_config_is_rejected() {
        assert!(matches!(
            SimSession::builder().trace_len(0).build(),
            Err(ConfigError::ZeroTraceLen)
        ));
    }
}
