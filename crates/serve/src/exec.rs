//! Request execution: workload resolution and the simulation kernels.
//!
//! Every job runs through a [`SimSession`], so trace generation goes
//! through the shared [`smith85_core::trace_pool::TracePool`] (concurrent
//! requests for the same `(workload, seed, len)` deduplicate into one
//! materialization) and every batch feeds the session's metrics registry
//! (`cachesim_refs_total`, `cachesim_batch_ms`, pool hit/miss counters…).
//! The kernels are the same ones the CLI and the experiment suite use,
//! so a served result is bit-identical to a direct library call — the
//! loopback integration tests assert exactly that.

use crate::protocol::{
    CatalogEntry, CatalogResult, ErrorBody, ErrorCode, Response, SimulateResult, SimulateSpec,
    SweepPoint, SweepResult, SweepSpec,
};
use smith85_cachesim::{CacheConfig, ConfigError, GridSpec, Mapping, Replacement, PAPER_SIZES};
use smith85_core::experiments::{nearest_workload_name, resolve_named_workload, Workload};
use smith85_core::session::SimSession;
use smith85_synth::catalog;

/// References a single request may ask for; keeps one malicious or
/// fat-fingered request from materializing gigabytes into the shared
/// pool.
pub const MAX_REQUEST_LEN: usize = 2_000_000;

/// Lines a cache named by a single request may hold (`size / line`):
/// 2^18, which is 4 MiB of 16-byte lines, 32 times the largest cache any
/// client in this repository asks for (128 KiB). Building a cache
/// allocates up front, and a failed allocation aborts the whole server
/// rather than one worker, so every size is checked before anything is
/// built. At the cap, one `simulate` cache allocates at most about
/// 23 MiB (the fully-associative LRU core: a hash map of 2^20 16-byte
/// buckets and 2^18 24-byte slab nodes; a set-associative core, about
/// 7 MiB), and each level of a grid `sweep` (one per set count) at most
/// about 22 MiB.
pub const MAX_CACHE_LINES: usize = 1 << 18;

/// A reserved diagnostic workload name that panics inside the worker's
/// `catch_unwind`. It exists so operators (and the loopback tests) can
/// exercise the panic path end to end — the `internal` response, the
/// access-log `outcome=panic` event, and the queue-depth gauge's
/// recovery — without a debug build or an environment variable.
pub const PANIC_WORKLOAD: &str = "__panic__";

/// Resolves a workload name against every servable namespace: the 49
/// single traces (case-insensitive), the Table 3 mixes by display name,
/// and the storage/network family profiles. A `seed` override replaces
/// each profile's generator seed (mix members XOR it with their index so
/// they stay decorrelated).
///
/// # Errors
///
/// Returns an `unknown_workload` error naming the failed lookup and the
/// nearest catalog name by edit distance.
pub fn resolve_workload(name: &str, seed: Option<u64>) -> Result<Workload, ErrorBody> {
    resolve_named_workload(name, seed).ok_or_else(|| {
        let suggestion = match nearest_workload_name(name) {
            Some(nearest) => format!("; nearest catalog match is {nearest:?}"),
            None => String::new(),
        };
        ErrorBody::new(
            ErrorCode::UnknownWorkload,
            format!(
                "no trace, mix or family profile named {name:?}{suggestion} \
                 (see the catalog request)"
            ),
        )
    })
}

/// Parses the optional wire `policy` string (`None` means LRU, the
/// paper's policy and the only one pre-policy servers ever ran).
///
/// # Errors
///
/// Returns a `bad_request` error listing the accepted spellings.
fn parse_policy(policy: Option<&str>) -> Result<Replacement, ErrorBody> {
    match policy {
        None => Ok(Replacement::Lru),
        Some(text) => Replacement::parse(text).ok_or_else(|| {
            ErrorBody::new(
                ErrorCode::BadRequest,
                format!(
                    "unknown replacement policy {text:?} \
                     (expected lru, fifo, random, random:<seed> or plru)"
                ),
            )
        }),
    }
}

/// Canonical store key for a `simulate` result: every field that
/// determines the answer, prefixed with the digest-scheme and catalog
/// versions so stale artifacts miss cleanly after either changes. The
/// v3 key scheme adds the workload family and replacement policy; v2
/// records (keyed before either existed) miss cleanly instead of
/// aliasing an LRU CPU result.
fn simulate_result_key(spec: &SimulateSpec, family: &str, policy: Replacement) -> String {
    format!(
        "v{}/c{}/result/simulate/{}/family={}/seed={:?}/len={}/size={}/line={}/ways={:?}/purge={:?}/policy={}",
        smith85_store::KEY_SCHEMA_VERSION,
        catalog::CATALOG_VERSION,
        spec.workload,
        family,
        spec.seed,
        spec.len,
        spec.cache.size,
        spec.cache.line,
        spec.cache.ways,
        spec.cache.purge,
        policy.key_label(),
    )
}

/// Canonical store key for a `sweep` result (keyed on the *effective*
/// size list, after the paper-sizes default is applied). Grid sweeps
/// (non-empty `ways`) key the whole grid as one record, so a warm
/// restart answers a full sweep with a single store read. Family and
/// policy components as in [`simulate_result_key`].
fn sweep_result_key(
    spec: &SweepSpec,
    sizes: &[usize],
    family: &str,
    policy: Replacement,
) -> String {
    let sizes: Vec<String> = sizes.iter().map(|s| s.to_string()).collect();
    let ways: Vec<String> = spec.ways.iter().map(|w| w.to_string()).collect();
    format!(
        "v{}/c{}/result/sweep/{}/family={}/seed={:?}/len={}/line={}/sizes={}/ways={}/policy={}",
        smith85_store::KEY_SCHEMA_VERSION,
        catalog::CATALOG_VERSION,
        spec.workload,
        family,
        spec.seed,
        spec.len,
        spec.line,
        sizes.join(","),
        ways.join(","),
        policy.key_label(),
    )
}

fn check_len(len: usize) -> Result<(), ErrorBody> {
    if len == 0 {
        return Err(ErrorBody::new(ErrorCode::BadRequest, "\"len\" must be > 0"));
    }
    if len > MAX_REQUEST_LEN {
        return Err(ErrorBody::new(
            ErrorCode::BadRequest,
            format!("\"len\" {len} exceeds the per-request cap of {MAX_REQUEST_LEN}"),
        ));
    }
    Ok(())
}

/// Rejects a cache of more than [`MAX_CACHE_LINES`] lines. A zero line
/// size is left to the line checks, which name it. The CLI applies the
/// same cap before it loads a trace.
///
/// # Errors
///
/// Returns a `bad_request` error naming the size, the line and the cap.
pub fn check_lines(size: usize, line: usize) -> Result<(), ErrorBody> {
    match size.checked_div(line) {
        Some(lines) if lines > MAX_CACHE_LINES => Err(ErrorBody::new(
            ErrorCode::BadRequest,
            format!(
                "cache of {size} bytes in {line}-byte lines holds {lines} lines, \
                 over the per-request cap of {MAX_CACHE_LINES}"
            ),
        )),
        _ => Ok(()),
    }
}

/// Runs one `simulate` job. Timing fields are left zero; the worker
/// fills them in.
///
/// # Errors
///
/// Returns a typed error for unknown workloads or invalid cache
/// configurations.
pub fn run_simulate(
    session: &SimSession,
    spec: &SimulateSpec,
) -> Result<SimulateResult, ErrorBody> {
    check_len(spec.len)?;
    check_lines(spec.cache.size, spec.cache.line)?;
    if spec.workload == PANIC_WORKLOAD {
        panic!("diagnostic {PANIC_WORKLOAD} workload: injected worker panic");
    }
    let workload = resolve_workload(&spec.workload, spec.seed)?;
    let policy = parse_policy(spec.policy.as_deref())?;
    let mapping = match spec.cache.ways {
        None => Mapping::FullyAssociative,
        Some(1) => Mapping::Direct,
        Some(n) => Mapping::SetAssociative(n),
    };
    // Validate the cache config before touching the session so invalid
    // requests never materialize traces into the shared pool.
    let config = CacheConfig::builder(spec.cache.size)
        .line_size(spec.cache.line)
        .mapping(mapping)
        .replacement(policy)
        .purge_interval(spec.cache.purge)
        .build()
        .map_err(|e| ErrorBody::new(ErrorCode::BadRequest, format!("invalid cache config: {e}")))?;
    // Only fully-validated requests consult the result cache: a stored
    // record short-circuits simulation (and pool materialization)
    // entirely. Records are CRC-checked by the store and re-parsed here,
    // so a damaged record degrades to a recompute, never a bad answer.
    let cache_key = session
        .store()
        .map(|_| simulate_result_key(spec, workload.family_name(), policy));
    if let (Some(store), Some(key)) = (session.store(), cache_key.as_deref()) {
        if let Some(json) = store.get_json(key) {
            if let Ok(Response::Simulate(cached)) = Response::decode(&json) {
                return Ok(cached);
            }
        }
    }
    let stats = session
        .simulate_workload(&workload, spec.len, config)
        .map_err(|e| ErrorBody::new(ErrorCode::BadRequest, format!("invalid cache config: {e}")))?;
    let result = SimulateResult {
        workload: spec.workload.clone(),
        len: spec.len,
        cache_bytes: spec.cache.size,
        refs: stats.total_refs(),
        misses: stats.total_misses(),
        miss_ratio: stats.miss_ratio(),
        instruction_miss_ratio: stats.instruction_miss_ratio(),
        data_miss_ratio: stats.data_miss_ratio(),
        traffic_bytes: stats.traffic_bytes(),
        queue_ms: 0,
        exec_ms: 0,
        trace_id: String::new(),
    };
    if let (Some(store), Some(key)) = (session.store(), cache_key.as_deref()) {
        // Best-effort: a persistence failure costs the next warm start,
        // never this response. Timing fields are stored as zero (the
        // worker stamps per-request values on the way out).
        let _ = store.put_json(key, &Response::Simulate(result.clone()).encode());
    }
    Ok(result)
}

/// Runs one `sweep` job through [`SimSession::sweep_grid_workload`],
/// which picks the engine by policy. An empty `ways` list is a size
/// sweep: the fully-associative cache of every requested size, one
/// point per size in request order (duplicates included), with no ways,
/// traffic ratio or dirty-push fraction. A non-empty `ways` list is a
/// grid: one point per realizable (size, ways) cell, in cell order,
/// with traffic ratio and dirty-push fraction on every point. Timing
/// fields are left zero; the worker fills them in.
///
/// # Errors
///
/// Returns a typed error for unknown workloads, a bad line size, or a
/// grid no sweep answers.
pub fn run_sweep(session: &SimSession, spec: &SweepSpec) -> Result<SweepResult, ErrorBody> {
    check_len(spec.len)?;
    if spec.line == 0 || !spec.line.is_power_of_two() {
        return Err(ErrorBody::new(
            ErrorCode::BadRequest,
            "\"line\" must be a power of two",
        ));
    }
    let sizes: &[usize] = if spec.sizes.is_empty() {
        &PAPER_SIZES
    } else {
        &spec.sizes
    };
    let bad_grid = |e: ConfigError| {
        ErrorBody::new(ErrorCode::BadRequest, format!("invalid sweep grid: {e}"))
    };
    // Named as a size that holds no line (zero included), before the
    // workload is resolved.
    if let Some(&cache) = sizes.iter().find(|&&size| size < spec.line) {
        return Err(bad_grid(ConfigError::CacheSmallerThanLine {
            cache,
            line: spec.line,
        }));
    }
    for &size in sizes {
        check_lines(size, spec.line)?;
    }
    let workload = resolve_workload(&spec.workload, spec.seed)?;
    let policy = parse_policy(spec.policy.as_deref())?;
    let grid = GridSpec {
        ways: spec.ways.clone(),
        include_fully_associative: spec.ways.is_empty(),
        replacement: policy,
        ..GridSpec::fully_associative(sizes.to_vec(), spec.line)
    };
    // Validate before the store lookup so a bad request can never be
    // served from (or written to) the result cache.
    grid.cells().map_err(bad_grid)?;
    let cache_key = session
        .store()
        .map(|_| sweep_result_key(spec, sizes, workload.family_name(), policy));
    if let (Some(store), Some(key)) = (session.store(), cache_key.as_deref()) {
        if let Some(json) = store.get_json(key) {
            if let Ok(Response::Sweep(cached)) = Response::decode(&json) {
                return Ok(cached);
            }
        }
    }
    let swept = session
        .sweep_grid_workload(&workload, spec.len, &grid)
        .map_err(bad_grid)?;
    let points = if spec.ways.is_empty() {
        sizes
            .iter()
            .map(|&size| SweepPoint {
                size,
                miss_ratio: swept
                    .fully_associative(size)
                    .expect("every requested size is swept")
                    .miss_ratio(),
                ways: None,
                traffic_ratio: None,
                dirty_push_fraction: None,
            })
            .collect()
    } else {
        swept
            .iter()
            .map(|(cell, stats)| SweepPoint {
                size: cell.size_bytes,
                miss_ratio: stats.miss_ratio(),
                ways: Some(cell.ways),
                traffic_ratio: Some(stats.traffic_ratio()),
                dirty_push_fraction: Some(stats.dirty_push_fraction()),
            })
            .collect()
    };
    let result = SweepResult {
        workload: spec.workload.clone(),
        len: spec.len,
        points,
        queue_ms: 0,
        exec_ms: 0,
        trace_id: String::new(),
    };
    if let (Some(store), Some(key)) = (session.store(), cache_key.as_deref()) {
        let _ = store.put_json(key, &Response::Sweep(result.clone()).encode());
    }
    Ok(result)
}

/// The `catalog` response: the 49 CPU profiles, the storage-I/O and
/// network-address family profiles, and the mix names.
pub fn catalog_result() -> CatalogResult {
    let mut profiles: Vec<CatalogEntry> = catalog::all()
        .iter()
        .map(|spec| {
            let p = spec.profile();
            CatalogEntry {
                name: spec.name().to_string(),
                group: spec.group().to_string(),
                arch: p.arch.to_string(),
                language: p.language.to_string(),
                family: "cpu".to_string(),
            }
        })
        .collect();
    for spec in smith85_families::catalog::all() {
        let group = match spec.family() {
            smith85_families::Family::Storage => "Storage I/O",
            smith85_families::Family::Network => "Network",
        };
        profiles.push(CatalogEntry {
            name: spec.name().to_string(),
            group: group.to_string(),
            arch: "-".to_string(),
            language: "-".to_string(),
            family: spec.family().name().to_string(),
        });
    }
    CatalogResult {
        profiles,
        mixes: catalog::table3_mixes()
            .into_iter()
            .map(|(name, _)| name)
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::CacheSpec;
    use smith85_cachesim::{Simulator, UnifiedCache};

    fn session() -> SimSession {
        SimSession::builder().quick().build().unwrap()
    }

    fn simulate_spec(workload: &str, len: usize, size: usize) -> SimulateSpec {
        SimulateSpec {
            workload: workload.to_string(),
            len,
            seed: None,
            cache: CacheSpec {
                size,
                line: 16,
                ways: None,
                purge: None,
            },
            policy: None,
            deadline_ms: None,
        }
    }

    #[test]
    fn simulate_matches_a_direct_library_run() {
        let session = session();
        let spec = simulate_spec("VCCOM", 5_000, 4_096);
        let served = run_simulate(&session, &spec).unwrap();

        let profile = catalog::by_name("VCCOM").unwrap().profile().clone();
        let trace = profile.generate(5_000);
        let config = CacheConfig::builder(4_096).line_size(16).build().unwrap();
        let mut cache = UnifiedCache::new(config).unwrap();
        cache.run_slice(trace.as_slice());
        assert_eq!(served.miss_ratio.to_bits(), cache.stats().miss_ratio().to_bits());
        assert_eq!(served.misses, cache.stats().total_misses());
        assert_eq!(served.refs, 5_000);
    }

    #[test]
    fn seed_override_changes_the_stream() {
        let session = session();
        let base = run_simulate(&session, &simulate_spec("ZGREP", 4_000, 1_024)).unwrap();
        let mut reseeded_spec = simulate_spec("ZGREP", 4_000, 1_024);
        reseeded_spec.seed = Some(12_345);
        let reseeded = run_simulate(&session, &reseeded_spec).unwrap();
        assert_ne!(base.miss_ratio.to_bits(), reseeded.miss_ratio.to_bits());
        assert_eq!(session.pool().stats().entries, 2, "distinct seeds pool separately");
    }

    #[test]
    fn mixes_resolve_by_display_name() {
        let w = resolve_workload("Z8000 - Assorted", None).unwrap();
        assert!(matches!(w, Workload::Mix { ref members, .. } if members.len() == 5));
        let session = session();
        let result = run_simulate(&session, &simulate_spec("Z8000 - Assorted", 3_000, 2_048));
        assert!(result.is_ok(), "{result:?}");
    }

    #[test]
    fn unknown_workload_is_typed() {
        let err = resolve_workload("NOPE", None).unwrap_err();
        assert_eq!(err.code, ErrorCode::UnknownWorkload);
        assert!(err.message.contains("NOPE"));
    }

    #[test]
    fn bad_lengths_and_configs_are_typed() {
        let session = session();
        let mut zero = simulate_spec("VCCOM", 0, 1_024);
        zero.len = 0;
        assert_eq!(run_simulate(&session, &zero).unwrap_err().code, ErrorCode::BadRequest);
        let huge = simulate_spec("VCCOM", MAX_REQUEST_LEN + 1, 1_024);
        assert_eq!(run_simulate(&session, &huge).unwrap_err().code, ErrorCode::BadRequest);
        let mut bad_cache = simulate_spec("VCCOM", 1_000, 1_000); // not a power of two
        bad_cache.cache.line = 16;
        assert_eq!(
            run_simulate(&session, &bad_cache).unwrap_err().code,
            ErrorCode::BadRequest
        );
        assert_eq!(
            session.pool().stats().entries,
            0,
            "invalid requests must not pool traces"
        );
    }

    #[test]
    fn size_sweep_matches_per_config_caches_and_defaults_to_paper_sizes() {
        let session = session();
        let spec = SweepSpec {
            workload: "ZGREP".to_string(),
            len: 5_000,
            seed: None,
            sizes: Vec::new(),
            ways: Vec::new(),
            line: 16,
            policy: None,
            deadline_ms: None,
        };
        let served = run_sweep(&session, &spec).unwrap();
        assert_eq!(served.points.len(), PAPER_SIZES.len());

        let profile = catalog::by_name("ZGREP").unwrap().profile().clone();
        let trace = profile.generate(5_000);
        for (point, size) in served.points.iter().zip(PAPER_SIZES) {
            assert_eq!(point.size, size);
            let mut cache = UnifiedCache::new(CacheConfig::paper_table1(size).unwrap()).unwrap();
            cache.run_slice(trace.as_slice());
            assert_eq!(
                point.miss_ratio.to_bits(),
                cache.stats().miss_ratio().to_bits(),
                "size {size}"
            );
        }
    }

    /// FNV-1a digests of encoded size-sweep replies, computed before
    /// size sweeps moved from the stack analyzer (LRU) and the
    /// fully-associative per-configuration fallback (other policies) to
    /// the one sweep method. Timing fields and the trace id are zero in
    /// `run_sweep`'s replies. The one reply that changed is the LRU
    /// sweep of a size that is not a power of two: it answered, and now
    /// gets the error every other sweep path gives.
    #[test]
    fn size_sweep_replies_are_pinned() {
        fn fnv1a(text: &str) -> u64 {
            text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
                (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        }
        let sweep = |workload: &str, len, sizes: &[usize], line, policy: Option<&str>| SweepSpec {
            workload: workload.to_string(),
            len,
            seed: None,
            sizes: sizes.to_vec(),
            ways: Vec::new(),
            line,
            policy: policy.map(str::to_string),
            deadline_ms: None,
        };
        let large_lines = [64, 256, 1_024, 4_096, 16_384, 65_536];
        let pins = [
            (sweep("VCCOM", 20_000, &[], 16, None), 0xaff8_2702_3769_7fec_u64),
            (sweep("S-OLTP", 20_000, &[], 16, None), 0x8963_ad51_38e7_3c7d),
            (sweep("N-GATEWAY", 20_000, &[], 16, None), 0x216e_017c_2b66_d711),
            (sweep("VCCOM", 20_000, &[4_096, 1_024, 1_024], 16, None), 0x14de_f167_4069_5d57),
            (sweep("VCCOM", 20_000, &[], 32, None), 0x2b48_1bb3_a6d5_0676),
            (sweep("VCCOM", 20_000, &[], 64, None), 0x6f9c_2f92_620b_fa21),
            (sweep("VCCOM", 20_000, &large_lines, 64, None), 0xba5a_e6a8_fadb_cebc),
            (sweep("VCCOM", 5_000, &[], 16, Some("fifo")), 0x4f2c_8962_76ac_2a42),
            (sweep("VCCOM", 5_000, &[1_000], 16, Some("fifo")), 0x6297_b448_2ff3_96bf),
            (sweep("VCCOM", 5_000, &[1_000], 16, None), 0x6297_b448_2ff3_96bf),
        ];
        let session = session();
        let mut moved = Vec::new();
        for (spec, pin) in &pins {
            let reply = match run_sweep(&session, spec) {
                Ok(result) => Response::Sweep(result),
                Err(error) => Response::Error(error),
            };
            let text = reply.encode();
            if fnv1a(&text) != *pin {
                moved.push(format!("{:#018x} {text}", fnv1a(&text)));
            }
        }
        assert!(moved.is_empty(), "moved pins:\n{}", moved.join("\n"));
        let lru_1000 = run_sweep(&session, &pins[9].0).unwrap_err();
        assert_eq!(
            lru_1000.message,
            "invalid sweep grid: cache size must be a positive power of two, got 1000"
        );
    }

    #[test]
    fn grid_sweep_matches_per_config_simulation() {
        let session = session();
        let spec = SweepSpec {
            workload: "VCCOM".to_string(),
            len: 5_000,
            seed: None,
            sizes: vec![1_024, 4_096],
            ways: vec![1, 2, 4],
            line: 16,
            policy: None,
            deadline_ms: None,
        };
        let served = run_sweep(&session, &spec).unwrap();
        assert_eq!(served.points.len(), 6, "2 sizes x 3 ways, all realizable");
        let profile = catalog::by_name("VCCOM").unwrap().profile().clone();
        let trace = profile.generate(5_000);
        for point in &served.points {
            let ways = point.ways.expect("grid points carry ways");
            let mapping = if ways == 1 { Mapping::Direct } else { Mapping::SetAssociative(ways) };
            let config = CacheConfig::builder(point.size)
                .line_size(16)
                .mapping(mapping)
                .build()
                .unwrap();
            let mut cache = UnifiedCache::new(config).unwrap();
            cache.run_slice(trace.as_slice());
            let direct = cache.stats();
            assert_eq!(
                point.miss_ratio.to_bits(),
                direct.miss_ratio().to_bits(),
                "{} B {}-way",
                point.size,
                ways
            );
            assert_eq!(
                point.traffic_ratio.unwrap().to_bits(),
                direct.traffic_ratio().to_bits()
            );
            assert_eq!(
                point.dirty_push_fraction.unwrap().to_bits(),
                direct.dirty_push_fraction().to_bits()
            );
        }
    }

    #[test]
    fn grid_sweep_rejects_bad_grids_with_typed_errors() {
        let session = session();
        let mut spec = SweepSpec {
            workload: "VCCOM".to_string(),
            len: 1_000,
            seed: None,
            sizes: vec![64],
            ways: vec![3],
            line: 16,
            policy: None,
            deadline_ms: None,
        };
        // Non-power-of-two associativity.
        let err = run_sweep(&session, &spec).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        // Every cell unrealizable: 64 B / 16 B lines = 4 lines < 8 ways.
        spec.ways = vec![8];
        let err = run_sweep(&session, &spec).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert_eq!(
            session.pool().stats().entries,
            0,
            "invalid grid requests must not pool traces"
        );
    }

    #[test]
    fn size_sweep_rejects_caches_smaller_than_a_line() {
        let session = session();
        for size in [8, 0] {
            let spec = SweepSpec {
                workload: "VCCOM".to_string(),
                len: 2_000,
                seed: None,
                sizes: vec![size],
                ways: Vec::new(),
                line: 16,
                policy: None,
                deadline_ms: None,
            };
            let err = run_sweep(&session, &spec).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{err:?}");
            assert!(
                err.message.contains(&format!("cache of {size} bytes")),
                "{err:?}"
            );
        }
        assert_eq!(session.pool().stats().entries, 0, "rejected before any trace is pooled");
    }

    #[test]
    fn caches_over_the_line_cap_are_rejected_before_anything_is_built() {
        let session = session();
        let huge = 1usize << 40;
        let mut simulate = simulate_spec("VCCOM", 2_000, huge);
        simulate.cache.ways = Some(1);
        let sweep = SweepSpec {
            workload: "VCCOM".to_string(),
            len: 2_000,
            seed: None,
            sizes: vec![1_024, huge],
            ways: vec![1],
            line: 16,
            policy: None,
            deadline_ms: None,
        };
        let errors = [
            run_simulate(&session, &simulate).unwrap_err(),
            run_sweep(&session, &sweep).unwrap_err(),
        ];
        for err in errors {
            assert_eq!(err.code, ErrorCode::BadRequest, "{err:?}");
            for part in [huge.to_string(), "16-byte".to_string(), MAX_CACHE_LINES.to_string()] {
                assert!(err.message.contains(&part), "{part} missing: {err:?}");
            }
        }
        assert_eq!(session.pool().stats().entries, 0, "rejected before any trace is pooled");
        assert!(check_lines(MAX_CACHE_LINES * 16, 16).is_ok());
        assert!(check_lines(MAX_CACHE_LINES * 16 + 16, 16).is_err());
        assert!(check_lines(huge, 0).is_ok(), "a zero line is the line checks' to name");
    }

    #[test]
    fn catalog_lists_all_profiles_and_mixes() {
        let c = catalog_result();
        assert_eq!(c.profiles.len(), 49 + 10, "49 CPU + 5 storage + 5 network");
        assert_eq!(c.mixes.len(), 4);
        assert!(c.profiles.iter().any(|e| e.name == "VCCOM" && e.family == "cpu"));
        assert!(c.profiles.iter().any(|e| e.name == "S-KVSTORE" && e.family == "storage"));
        assert!(c.profiles.iter().any(|e| e.name == "N-LAN" && e.family == "network"));
        assert!(c.mixes.iter().any(|m| m == "Z8000 - Assorted"));
    }

    #[test]
    fn unknown_workload_suggests_the_nearest_catalog_name() {
        let err = resolve_workload("VCOM", None).unwrap_err();
        assert_eq!(err.code, ErrorCode::UnknownWorkload);
        assert!(err.message.contains("\"VCOM\""), "{}", err.message);
        assert!(err.message.contains("\"VCCOM\""), "{}", err.message);
        let err = resolve_workload("s-kvstor", None).unwrap_err();
        assert!(err.message.contains("\"S-KVSTORE\""), "{}", err.message);
    }

    #[test]
    fn family_workloads_simulate_and_sweep() {
        let session = session();
        let sim = run_simulate(&session, &simulate_spec("S-KVSTORE", 4_000, 2_048)).unwrap();
        assert!(sim.miss_ratio > 0.0 && sim.miss_ratio <= 1.0);
        let spec = SweepSpec {
            workload: "N-LAN".to_string(),
            len: 4_000,
            seed: None,
            sizes: vec![256, 1_024],
            ways: vec![2],
            line: 64,
            policy: None,
            deadline_ms: None,
        };
        let swept = run_sweep(&session, &spec).unwrap();
        assert_eq!(swept.points.len(), 2);
        assert!(swept.points[0].miss_ratio >= swept.points[1].miss_ratio);
    }

    #[test]
    fn bad_policy_spellings_are_typed() {
        let session = session();
        let mut spec = simulate_spec("VCCOM", 1_000, 1_024);
        spec.policy = Some("lifo".to_string());
        let err = run_simulate(&session, &spec).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert!(err.message.contains("lifo"), "{}", err.message);
    }

    #[test]
    fn non_lru_grid_sweep_matches_per_config_simulation() {
        let session = session();
        let spec = SweepSpec {
            workload: "VCCOM".to_string(),
            len: 5_000,
            seed: None,
            sizes: vec![1_024, 4_096],
            ways: vec![2, 4],
            line: 16,
            policy: Some("fifo".to_string()),
            deadline_ms: None,
        };
        let served = run_sweep(&session, &spec).unwrap();
        assert_eq!(served.points.len(), 4);
        let profile = catalog::by_name("VCCOM").unwrap().profile().clone();
        let trace = profile.generate(5_000);
        for point in &served.points {
            let ways = point.ways.expect("grid points carry ways");
            let config = CacheConfig::builder(point.size)
                .line_size(16)
                .mapping(Mapping::SetAssociative(ways))
                .replacement(Replacement::Fifo)
                .build()
                .unwrap();
            let mut cache = UnifiedCache::new(config).unwrap();
            cache.run_slice(trace.as_slice());
            assert_eq!(
                point.miss_ratio.to_bits(),
                cache.stats().miss_ratio().to_bits(),
                "{} B {}-way fifo",
                point.size,
                ways
            );
        }
    }

    #[test]
    fn non_lru_size_sweep_uses_the_fully_associative_fallback() {
        let session = session();
        let spec = SweepSpec {
            workload: "ZGREP".to_string(),
            len: 4_000,
            seed: None,
            sizes: vec![512, 2_048],
            ways: Vec::new(),
            line: 16,
            policy: Some("random:7".to_string()),
            deadline_ms: None,
        };
        let served = run_sweep(&session, &spec).unwrap();
        assert_eq!(served.points.len(), 2);
        let profile = catalog::by_name("ZGREP").unwrap().profile().clone();
        let trace = profile.generate(4_000);
        for point in &served.points {
            assert!(point.ways.is_none(), "size sweeps report no ways column");
            let config = CacheConfig::builder(point.size)
                .line_size(16)
                .mapping(Mapping::FullyAssociative)
                .replacement(Replacement::Random { seed: 7 })
                .build()
                .unwrap();
            let mut cache = UnifiedCache::new(config).unwrap();
            cache.run_slice(trace.as_slice());
            assert_eq!(
                point.miss_ratio.to_bits(),
                cache.stats().miss_ratio().to_bits(),
                "{} B fully-associative random:7",
                point.size
            );
        }
    }

    #[test]
    fn v2_store_records_miss_under_the_v3_key_scheme() {
        // Regression guard for the key-schema bump: a record written
        // under the pre-policy v2 layout must never be served for a v3
        // request (it would alias an LRU CPU result onto a policy run).
        let dir = std::env::temp_dir().join(format!(
            "smith85-serve-v2-miss-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let session = SimSession::builder().quick().store(&dir).build().unwrap();
        let store = session.store().expect("store-backed session");
        let spec = simulate_spec("VCCOM", 2_000, 1_024);
        // Plant a decoy under the old v2 key layout (no family/policy
        // components, schema version 2).
        let v2_key = format!(
            "v2/c1/result/simulate/{}/seed={:?}/len={}/size={}/line={}/ways={:?}/purge={:?}",
            spec.workload,
            spec.seed,
            spec.len,
            spec.cache.size,
            spec.cache.line,
            spec.cache.ways,
            spec.cache.purge,
        );
        let decoy = Response::Simulate(SimulateResult {
            workload: spec.workload.clone(),
            len: spec.len,
            cache_bytes: spec.cache.size,
            refs: spec.len as u64,
            misses: 0,
            miss_ratio: -1.0,
            instruction_miss_ratio: 0.0,
            data_miss_ratio: 0.0,
            traffic_bytes: 0,
            queue_ms: 0,
            exec_ms: 0,
            trace_id: String::new(),
        });
        store.put_json(&v2_key, &decoy.encode()).unwrap();

        let served = run_simulate(&session, &spec).unwrap();
        assert!(
            served.miss_ratio >= 0.0,
            "v2 decoy must not be served: {}",
            served.miss_ratio
        );
        let v3_key = simulate_result_key(&spec, "cpu", Replacement::Lru);
        assert!(v3_key.starts_with("v3/c2/"), "{v3_key}");
        assert_ne!(v3_key, v2_key);
        assert!(store.get_json(&v3_key).is_some(), "fresh result cached under v3");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
