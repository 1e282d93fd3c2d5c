//! One module per reproduced table or figure.
//!
//! Every experiment follows the same shape: `run(&ExperimentConfig)`
//! produces a serializable result struct, and the result's `render()`
//! returns the plain-text table/series the paper printed.
//! [`crate::runner::registry`] lists them for the suite and for
//! `smith85 experiment`.

pub mod ablations;
pub mod calibration_report;
pub mod clark_validation;
pub mod conclusions;
pub mod design_grid;
pub mod family_conclusions;
pub mod fig2;
pub mod fig3_fig4;
pub mod fudge_validation;
pub mod interface_effects;
pub mod line_size;
pub mod m68020;
pub mod multiprocessor;
pub mod multiprogramming;
pub mod perturbations;
pub mod prefetch;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table5;
pub mod trace_length;
pub mod traffic_ratio;
pub mod z80000;

use crate::sweep;
use crate::trace_pool::TracePool;
use smith85_cachesim::{one_pass_grid, GridSpec, PAPER_SIZES};
use smith85_families::FamilySpec;
use smith85_obs::{Counter, Histogram, Registry, MS_BOUNDS, REFS_PER_SEC_BOUNDS};
use smith85_synth::{catalog, ProfileError, ProgramProfile};
use smith85_trace::mix::RoundRobinMix;
use smith85_trace::{
    MachineArch, MemoryAccess, Trace, PAPER_PURGE_INTERVAL, PAPER_PURGE_INTERVAL_M68000,
};
use std::fmt;
use std::sync::Arc;

/// Common experiment parameters.
///
/// Construct via [`ExperimentConfig::builder`] (validated), or the
/// [`paper`](Self::paper)/[`quick`](Self::quick) presets.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// References simulated per workload.
    pub trace_len: usize,
    /// Cache sizes swept.
    pub sizes: Vec<usize>,
    /// Worker threads for the simulation grid.
    pub threads: usize,
    /// Shared generate-once/replay-many trace cache. Cloning the config
    /// clones the *handle*: every experiment run from the same config (the
    /// whole suite) replays the same materialized traces.
    pub pool: TracePool,
    // The metrics registry everything run under this config counts into
    // (a session's, or a private one). Crate-private so struct-literal
    // construction outside the builder is impossible, which keeps
    // validation mandatory for callers.
    pub(crate) registry: Registry,
    pub(crate) metrics: CoreMetrics,
}

/// The core layers' handles into a config's registry, resolved once when
/// the config is built: the sweep engine counts every job through them,
/// and the session kernels and experiments every traversal.
#[derive(Debug, Clone)]
pub(crate) struct CoreMetrics {
    pub(crate) sweep_jobs: Arc<Counter>,
    pub(crate) sweep_panics: Arc<Counter>,
    pub(crate) sweep_job_ms: Arc<Histogram>,
    pub(crate) cachesim_refs: Arc<Counter>,
    pub(crate) cachesim_batches: Arc<Counter>,
    pub(crate) cachesim_batch_ms: Arc<Histogram>,
    pub(crate) cachesim_refs_per_sec: Arc<Histogram>,
    pub(crate) one_pass_refs: Arc<Counter>,
    pub(crate) one_pass_cells: Arc<Counter>,
    pub(crate) policy_cells: Arc<Counter>,
    pub(crate) family_refs: Arc<Counter>,
}

impl CoreMetrics {
    fn resolve(registry: &Registry) -> CoreMetrics {
        CoreMetrics {
            sweep_jobs: registry.counter("sweep_jobs_total"),
            sweep_panics: registry.counter("sweep_panics_total"),
            sweep_job_ms: registry.histogram("sweep_job_ms", MS_BOUNDS),
            cachesim_refs: registry.counter("cachesim_refs_total"),
            cachesim_batches: registry.counter("cachesim_batches_total"),
            cachesim_batch_ms: registry.histogram("cachesim_batch_ms", MS_BOUNDS),
            cachesim_refs_per_sec: registry.histogram("cachesim_refs_per_sec", REFS_PER_SEC_BOUNDS),
            one_pass_refs: registry.counter("one_pass_refs_total"),
            one_pass_cells: registry.counter("one_pass_grid_cells"),
            policy_cells: registry.counter("policy_grid_cells"),
            family_refs: registry.counter("family_refs_total"),
        }
    }
}

/// A validation failure from [`ExperimentConfigBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `trace_len` was zero.
    ZeroTraceLen,
    /// The size sweep was empty.
    EmptySizes,
    /// A swept cache size was not a power of two.
    SizeNotPowerOfTwo(usize),
    /// `threads` was zero.
    ZeroThreads,
    /// The persistent store could not be opened (the message carries the
    /// formatted I/O error).
    Store(String),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroTraceLen => write!(f, "trace_len must be at least 1"),
            ConfigError::EmptySizes => write!(f, "the size sweep must not be empty"),
            ConfigError::SizeNotPowerOfTwo(size) => {
                write!(f, "cache size {size} is not a power of two")
            }
            ConfigError::ZeroThreads => write!(f, "threads must be at least 1"),
            ConfigError::Store(message) => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validated builder for [`ExperimentConfig`]; defaults match
/// [`ExperimentConfig::paper`].
#[derive(Debug, Clone)]
pub struct ExperimentConfigBuilder {
    trace_len: usize,
    sizes: Vec<usize>,
    threads: usize,
    pool: TracePool,
    registry: Option<Registry>,
}

impl Default for ExperimentConfigBuilder {
    fn default() -> Self {
        ExperimentConfigBuilder {
            trace_len: 250_000,
            sizes: PAPER_SIZES.to_vec(),
            threads: sweep::default_threads(),
            pool: TracePool::new(),
            registry: None,
        }
    }
}

impl ExperimentConfigBuilder {
    /// Switches every field to the [`ExperimentConfig::quick`] preset.
    pub fn quick(mut self) -> Self {
        self.trace_len = 30_000;
        self.sizes = vec![64, 256, 1024, 4096, 16384];
        self
    }

    /// References simulated per workload.
    pub fn trace_len(mut self, trace_len: usize) -> Self {
        self.trace_len = trace_len;
        self
    }

    /// Cache sizes swept.
    pub fn sizes(mut self, sizes: Vec<usize>) -> Self {
        self.sizes = sizes;
        self
    }

    /// Worker threads for the simulation grid.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The shared trace pool (to share materializations across configs).
    pub fn pool(mut self, pool: TracePool) -> Self {
        self.pool = pool;
        self
    }

    /// The metrics registry to count into (a fresh private one by
    /// default).
    pub fn registry(mut self, registry: Registry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for a zero trace length or thread
    /// count, an empty size sweep, or a non-power-of-two cache size.
    pub fn build(self) -> Result<ExperimentConfig, ConfigError> {
        if self.trace_len == 0 {
            return Err(ConfigError::ZeroTraceLen);
        }
        if self.sizes.is_empty() {
            return Err(ConfigError::EmptySizes);
        }
        if let Some(&bad) = self.sizes.iter().find(|s| !s.is_power_of_two()) {
            return Err(ConfigError::SizeNotPowerOfTwo(bad));
        }
        if self.threads == 0 {
            return Err(ConfigError::ZeroThreads);
        }
        let registry = self.registry.unwrap_or_default();
        Ok(ExperimentConfig {
            trace_len: self.trace_len,
            sizes: self.sizes,
            threads: self.threads,
            pool: self.pool,
            metrics: CoreMetrics::resolve(&registry),
            registry,
        })
    }
}

impl ExperimentConfig {
    /// A validated builder, seeded with the [`paper`](Self::paper)
    /// defaults.
    pub fn builder() -> ExperimentConfigBuilder {
        ExperimentConfigBuilder::default()
    }

    /// The paper's scale: 250,000 references, the full 32 B – 64 KiB sweep.
    pub fn paper() -> Self {
        // invariant: the builder's defaults are valid.
        Self::builder().build().expect("paper defaults are valid")
    }

    /// A reduced configuration for tests and smoke runs.
    pub fn quick() -> Self {
        // invariant: the quick preset is valid.
        Self::builder()
            .quick()
            .build()
            .expect("quick preset is valid")
    }

    /// The metrics registry this configuration counts into.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The pooled trace for `workload` at this config's
    /// [`trace_len`](Self::trace_len). Bit-identical to
    /// `workload.stream().take(trace_len)`; the buffer is shared, so treat
    /// it as read-only and slice to `trace_len`.
    pub fn workload_trace(&self, workload: &Workload) -> Arc<Trace> {
        self.pool.workload(workload, self.trace_len)
    }

    /// The pooled trace for a single `profile` at this config's
    /// [`trace_len`](Self::trace_len).
    pub fn profile_trace(&self, profile: &ProgramProfile) -> Arc<Trace> {
        self.pool.profile(profile, self.trace_len)
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// A workload for the multiprogramming experiments: a single CPU trace,
/// a round-robin mix of several (Table 3's four "assorted" rows), or a
/// non-CPU family stream (storage-I/O block addresses, network
/// destination addresses).
#[derive(Debug, Clone)]
pub enum Workload {
    /// One program.
    Single(ProgramProfile),
    /// A round-robin multiprogramming mix.
    Mix {
        /// Display name, e.g. `"Z8000 - Assorted"`.
        name: String,
        /// The member programs.
        members: Vec<ProgramProfile>,
    },
    /// A non-CPU workload family profile (storage or network).
    Family(FamilySpec),
}

impl Workload {
    /// Display name.
    pub fn name(&self) -> &str {
        match self {
            Workload::Single(p) => &p.name,
            Workload::Mix { name, .. } => name,
            Workload::Family(spec) => spec.name(),
        }
    }

    /// The workload family this stream belongs to: `"cpu"` for the
    /// paper's traces and mixes, `"storage"` / `"network"` for the
    /// non-CPU families. Used in store keys, spans and counters.
    pub fn family_name(&self) -> &'static str {
        match self {
            Workload::Single(_) | Workload::Mix { .. } => "cpu",
            Workload::Family(spec) => spec.family().name(),
        }
    }

    /// The purge / task-switch interval the paper uses for this workload
    /// (15,000 for the short M68000 traces, 20,000 otherwise; family
    /// streams have no task switches and use the default interval, which
    /// only matters if a caller opts into purging).
    pub fn purge_interval(&self) -> u64 {
        let m68k = match self {
            Workload::Single(p) => p.arch == MachineArch::M68000,
            Workload::Mix { members, .. } => {
                members.iter().all(|p| p.arch == MachineArch::M68000)
            }
            Workload::Family(_) => false,
        };
        if m68k {
            PAPER_PURGE_INTERVAL_M68000
        } else {
            PAPER_PURGE_INTERVAL
        }
    }

    /// An infinite access stream (mixes switch programs every
    /// [`purge_interval`](Self::purge_interval) references, like the
    /// paper's simulator), or a typed error if a member profile is
    /// inconsistent. Use this for user-supplied workloads; the catalog's
    /// own profiles are valid by construction.
    ///
    /// # Errors
    ///
    /// Returns the first member's [`ProfileError`], or a wrapped family
    /// validation error for an out-of-range family profile.
    pub fn try_stream(
        &self,
    ) -> Result<Box<dyn Iterator<Item = MemoryAccess> + Send>, ProfileError> {
        match self {
            Workload::Single(p) => Ok(Box::new(p.try_generator()?)),
            Workload::Mix { members, .. } => {
                let mut streams = Vec::with_capacity(members.len());
                for p in members {
                    streams.push(p.try_generator()?);
                }
                Ok(Box::new(RoundRobinMix::new(streams, self.purge_interval())))
            }
            Workload::Family(spec) => spec.try_generator().map_err(ProfileError::custom),
        }
    }

    /// An infinite access stream (panicking form of
    /// [`try_stream`](Self::try_stream)).
    ///
    /// # Panics
    ///
    /// Panics if a profile is inconsistent (see
    /// [`ProgramProfile::generator`]).
    pub fn stream(&self) -> Box<dyn Iterator<Item = MemoryAccess> + Send> {
        self.try_stream()
            .unwrap_or_else(|e| panic!("workload {}: {e}", self.name()))
    }
}

/// The miss ratio of a fully-associative LRU cache of each size in
/// `sizes` (the paper's Table 1 configuration at `line_size`-byte
/// lines), from one pass of the one-pass engine over `replay`.
///
/// # Panics
///
/// Panics if a size or the line size is not a positive power of two,
/// or a size holds no line.
pub(crate) fn lru_miss_ratios(
    replay: &[MemoryAccess],
    sizes: &[usize],
    line_size: usize,
) -> Vec<f64> {
    let grid = one_pass_grid(replay, &GridSpec::fully_associative(sizes.to_vec(), line_size))
        .unwrap_or_else(|e| panic!("size sweep at {line_size}-byte lines: {e}"));
    sizes
        .iter()
        .map(|&size| grid.fully_associative(size).expect("swept size").miss_ratio())
        .collect()
}

/// The sixteen workloads of Table 3 and Figures 3-10: twelve single traces
/// plus the four multiprogramming mixes, in the paper's row order.
pub fn table3_workloads() -> Vec<Workload> {
    let mut ws: Vec<Workload> = catalog::table3_single_traces()
        .into_iter()
        .map(|s| Workload::Single(s.profile().clone()))
        .collect();
    ws.extend(
        catalog::table3_mixes()
            .into_iter()
            .map(|(name, members)| Workload::Mix { name, members }),
    );
    ws
}

/// Every servable workload name: the 49 CPU catalog traces, the four
/// Table 3 mixes, and the non-CPU family profiles, in catalog order.
pub fn workload_names() -> Vec<String> {
    let mut names: Vec<String> = catalog::all()
        .iter()
        .map(|s| s.profile().name.clone())
        .collect();
    names.extend(catalog::table3_mixes().into_iter().map(|(name, _)| name));
    names.extend(smith85_families::names());
    names
}

/// Looks a workload up by name across all three namespaces — the CPU
/// catalog, the Table 3 mixes, and the family catalog — and applies the
/// optional seed override (mix members get `seed ^ index` so they stay
/// distinct). Mix and family lookups are case-insensitive, matching the
/// catalogs they front. The catalogs are built once per process, so a
/// lookup scans shared tables and clones only the entry it returns; the
/// seed goes on that clone, never on the shared table.
pub fn resolve_named_workload(name: &str, seed: Option<u64>) -> Option<Workload> {
    if let Some(synthetic) = catalog::by_name(name) {
        let mut profile = synthetic.profile().clone();
        if let Some(seed) = seed {
            profile.seed = seed;
        }
        return Some(Workload::Single(profile));
    }
    if let Some((mix_name, mut members)) = catalog::table3_mix(name) {
        if let Some(seed) = seed {
            for (i, member) in members.iter_mut().enumerate() {
                member.seed = seed ^ i as u64;
            }
        }
        return Some(Workload::Mix {
            name: mix_name,
            members,
        });
    }
    smith85_families::by_name(name).map(|mut spec| {
        if let Some(seed) = seed {
            spec.set_seed(seed);
        }
        Some(Workload::Family(spec))
    })?
}

/// The catalog name closest to `wanted` by case-insensitive edit
/// distance — the "did you mean" half of an unknown-workload error.
/// `None` only when the catalogs are empty (never in practice).
pub fn nearest_workload_name(wanted: &str) -> Option<String> {
    let wanted_lower = wanted.to_ascii_lowercase();
    workload_names()
        .into_iter()
        .min_by_key(|candidate| edit_distance(&wanted_lower, &candidate.to_ascii_lowercase()))
}

/// Levenshtein distance over bytes (all catalog names are ASCII), via
/// the classic two-row dynamic program.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut row = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let subst = prev[j] + usize::from(ca != cb);
            row[j + 1] = subst.min(prev[j + 1] + 1).min(row[j] + 1);
        }
        std::mem::swap(&mut prev, &mut row);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_pool::workload_key;

    #[test]
    fn builder_defaults_match_paper() {
        let built = ExperimentConfig::builder().build().unwrap();
        let paper = ExperimentConfig::paper();
        assert_eq!(built.trace_len, paper.trace_len);
        assert_eq!(built.sizes, paper.sizes);
        assert_eq!(built.threads, paper.threads);
    }

    #[test]
    fn builder_quick_preset_matches_quick() {
        let built = ExperimentConfig::builder().quick().build().unwrap();
        let quick = ExperimentConfig::quick();
        assert_eq!(built.trace_len, quick.trace_len);
        assert_eq!(built.sizes, quick.sizes);
    }

    #[test]
    fn builder_rejects_invalid_configs() {
        assert_eq!(
            ExperimentConfig::builder().trace_len(0).build().unwrap_err(),
            ConfigError::ZeroTraceLen
        );
        assert_eq!(
            ExperimentConfig::builder().sizes(vec![]).build().unwrap_err(),
            ConfigError::EmptySizes
        );
        assert_eq!(
            ExperimentConfig::builder()
                .sizes(vec![1024, 1000])
                .build()
                .unwrap_err(),
            ConfigError::SizeNotPowerOfTwo(1000)
        );
        assert_eq!(
            ExperimentConfig::builder().threads(0).build().unwrap_err(),
            ConfigError::ZeroThreads
        );
        let err = ConfigError::SizeNotPowerOfTwo(1000).to_string();
        assert!(err.contains("1000"), "{err}");
    }

    #[test]
    fn builder_shares_a_supplied_pool() {
        let pool = TracePool::new();
        let config = ExperimentConfig::builder()
            .trace_len(1_000)
            .sizes(vec![256])
            .threads(1)
            .pool(pool.clone())
            .build()
            .unwrap();
        let w = Workload::Single(catalog::by_name("VCCOM").unwrap().profile().clone());
        let _ = config.workload_trace(&w);
        assert_eq!(pool.stats().entries, 1, "builder must keep the handle");
    }

    #[test]
    fn quick_config_is_smaller() {
        let q = ExperimentConfig::quick();
        let p = ExperimentConfig::paper();
        assert!(q.trace_len < p.trace_len);
        assert!(q.sizes.len() < p.sizes.len());
        assert_eq!(p.trace_len, 250_000);
    }

    #[test]
    fn sixteen_workloads() {
        let ws = table3_workloads();
        assert_eq!(ws.len(), 16);
        assert_eq!(ws.iter().filter(|w| matches!(w, Workload::Mix { .. })).count(), 4);
    }

    #[test]
    fn purge_intervals_follow_the_paper() {
        for w in table3_workloads() {
            assert_eq!(w.purge_interval(), PAPER_PURGE_INTERVAL, "{}", w.name());
        }
        let m68k = Workload::Single(
            catalog::by_name("PL0").unwrap().profile().clone(),
        );
        assert_eq!(m68k.purge_interval(), PAPER_PURGE_INTERVAL_M68000);
    }

    #[test]
    fn mix_stream_interleaves_members() {
        let ws = table3_workloads();
        let mix = ws.iter().find(|w| w.name().starts_with("Z8000")).unwrap();
        let n = mix.stream().take(1000).count();
        assert_eq!(n, 1000);
    }

    #[test]
    fn family_workloads_stream_and_carry_their_family() {
        let w = resolve_named_workload("S-KVSTORE", None).unwrap();
        assert_eq!(w.name(), "S-KVSTORE");
        assert_eq!(w.family_name(), "storage");
        assert_eq!(w.purge_interval(), PAPER_PURGE_INTERVAL);
        assert_eq!(w.stream().take(500).count(), 500);
        let n = resolve_named_workload("n-lan", None).unwrap();
        assert_eq!(n.family_name(), "network");
        let cpu = resolve_named_workload("VCCOM", None).unwrap();
        assert_eq!(cpu.family_name(), "cpu");
    }

    #[test]
    fn resolver_applies_seed_overrides_everywhere() {
        let base = resolve_named_workload("S-KVSTORE", None).unwrap();
        let reseeded = resolve_named_workload("S-KVSTORE", Some(99)).unwrap();
        let a: Vec<_> = base.stream().take(100).collect();
        let b: Vec<_> = reseeded.stream().take(100).collect();
        assert_ne!(a, b, "the seed override must change the family stream");
        match resolve_named_workload("VCCOM", Some(7)).unwrap() {
            Workload::Single(p) => assert_eq!(p.seed, 7),
            other => panic!("expected a single trace, got {other:?}"),
        }
    }

    #[test]
    fn workload_names_cover_all_three_namespaces() {
        let names = workload_names();
        assert!(names.iter().any(|n| n == "VCCOM"));
        assert!(names.iter().any(|n| n == "S-KVSTORE"));
        assert!(names.iter().any(|n| n == "N-BACKBONE"));
        assert!(names.iter().any(|n| n.contains("Assorted")));
        for name in &names {
            assert!(
                resolve_named_workload(name, None).is_some(),
                "{name} is listed but does not resolve"
            );
        }
    }

    /// The lookup rules over freshly returned catalogs, written out
    /// independently of [`resolve_named_workload`]: the reference the
    /// shared tables must agree with.
    fn reference_resolve(name: &str, seed: Option<u64>) -> Option<Workload> {
        if let Some(spec) = catalog::all()
            .into_iter()
            .find(|s| s.name().eq_ignore_ascii_case(name))
        {
            let mut profile = spec.profile().clone();
            if let Some(seed) = seed {
                profile.seed = seed;
            }
            return Some(Workload::Single(profile));
        }
        for (mix_name, mut members) in catalog::table3_mixes() {
            if mix_name.eq_ignore_ascii_case(name) {
                if let Some(seed) = seed {
                    for (i, member) in members.iter_mut().enumerate() {
                        member.seed = seed ^ i as u64;
                    }
                }
                return Some(Workload::Mix {
                    name: mix_name,
                    members,
                });
            }
        }
        smith85_families::catalog::all()
            .into_iter()
            .find(|s| s.name().eq_ignore_ascii_case(name))
            .map(|mut spec| {
                if let Some(seed) = seed {
                    spec.set_seed(seed);
                }
                Workload::Family(spec)
            })
    }

    fn identity(workload: &Workload) -> (String, String) {
        (workload.name().to_string(), workload_key(workload))
    }

    #[test]
    fn every_name_resolves_like_the_reference_in_any_case() {
        let names = workload_names();
        assert_eq!(
            names.len(),
            63,
            "49 CPU traces + 4 mixes + 10 family profiles"
        );
        for name in &names {
            for spelling in [name.clone(), name.to_lowercase(), name.to_uppercase()] {
                for seed in [None, Some(0x5eed_u64)] {
                    let got = resolve_named_workload(&spelling, seed)
                        .unwrap_or_else(|| panic!("{spelling:?} does not resolve"));
                    let want = reference_resolve(&spelling, seed)
                        .unwrap_or_else(|| panic!("{spelling:?} has no reference"));
                    assert_eq!(
                        identity(&got),
                        identity(&want),
                        "{spelling:?} seed {seed:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_seeded_resolution_does_not_leak_into_the_next_unseeded_one() {
        fn fnv1a(name: &str) -> u64 {
            name.bytes().fold(0xcbf2_9ce4_8422_2325, |h: u64, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        }
        let single_seed = |w: Workload| match w {
            Workload::Single(p) => p.seed,
            other => panic!("expected a single trace, got {other:?}"),
        };
        let member_seeds = |w: Workload| match w {
            Workload::Mix { members, .. } => members
                .iter()
                .map(|m| (m.name.clone(), m.seed))
                .collect::<Vec<_>>(),
            other => panic!("expected a mix, got {other:?}"),
        };
        let family_seed = |w: Workload| match w {
            Workload::Family(spec) => spec.seed(),
            other => panic!("expected a family profile, got {other:?}"),
        };
        const SEED: u64 = 99;
        const MIX: &str = "Z8000 - Assorted";

        assert_eq!(
            single_seed(resolve_named_workload("VCCOM", Some(SEED)).unwrap()),
            SEED
        );
        let seeded = member_seeds(resolve_named_workload(MIX, Some(SEED)).unwrap());
        for (i, (_, seed)) in seeded.iter().enumerate() {
            assert_eq!(*seed, SEED ^ i as u64);
        }
        assert_eq!(
            family_seed(resolve_named_workload("S-OLTP", Some(SEED)).unwrap()),
            SEED
        );

        assert_eq!(
            single_seed(resolve_named_workload("VCCOM", None).unwrap()),
            fnv1a("VCCOM")
        );
        let members = member_seeds(resolve_named_workload(MIX, None).unwrap());
        assert_eq!(members.len(), 5);
        for (name, seed) in members {
            assert_eq!(seed, fnv1a(&name), "mix member {name} keeps its own seed");
        }
        assert_eq!(
            family_seed(resolve_named_workload("S-OLTP", None).unwrap()),
            fnv1a("S-OLTP")
        );
    }

    #[test]
    fn nearest_name_suggests_plausible_fixes() {
        assert_eq!(nearest_workload_name("VCOM").as_deref(), Some("VCCOM"));
        assert_eq!(nearest_workload_name("s-kvstor").as_deref(), Some("S-KVSTORE"));
        assert_eq!(nearest_workload_name("N-LAN2").as_deref(), Some("N-LAN"));
        assert!(resolve_named_workload("VCOM", None).is_none());
    }

    #[test]
    fn edit_distance_is_the_textbook_metric() {
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("same", "same"), 0);
    }
}
