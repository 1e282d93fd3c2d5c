//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! One request object per line, one response object per line, in order.
//! Every object carries a `"type"` discriminator. The full schema is
//! documented in `EXPERIMENTS.md`; the round-trip tests below pin every
//! variant.
//!
//! Design points:
//!
//! * **Typed errors, always** — malformed input never kills a worker or
//!   a connection; it produces an `{"type":"error","code":...}` response
//!   with a stable machine-readable code ([`ErrorCode`]).
//! * **Admission control is visible** — a full work queue answers
//!   `overloaded` immediately instead of queueing unboundedly, so a
//!   load generator can count rejections.
//! * **Exact floats** — miss ratios are written with shortest
//!   round-trip formatting; a client reads back the bit-identical `f64`
//!   the simulator produced.

use crate::json::{self, Json};
use smith85_obs::{
    BucketSnapshot, CounterSnapshot, GaugeSnapshot, HistogramSnapshot, RegistrySnapshot,
};
use std::fmt;

/// The wire protocol version this build speaks. Encoded requests carry
/// it as `"v"`; the server accepts requests with no `"v"` at all
/// (pre-versioning clients) or `"v"` equal to this value, and rejects
/// anything else with `bad_request`. Unknown request fields are always
/// ignored, so the envelope can grow without breaking old servers.
pub const PROTOCOL_VERSION: u64 = 1;

/// Hard cap on one request line; longer lines get an `oversized` error.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Default reference count for `simulate`/`sweep` when `len` is absent.
pub const DEFAULT_TRACE_LEN: usize = 100_000;

/// Default line size (bytes) for simulated caches, as in the paper.
pub const DEFAULT_LINE_BYTES: usize = 16;

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run one cache configuration over one workload.
    Simulate(SimulateSpec),
    /// Miss ratio at several cache sizes, or over a size × ways grid.
    Sweep(SweepSpec),
    /// List the workload catalog (49 profiles + the 4 mixes).
    Catalog,
    /// Server counters: requests by type, queue depth, pool hit ratio…
    Stats,
    /// A snapshot of the metrics registry (counters, gauges,
    /// histograms with quantiles) — the JSON twin of the Prometheus
    /// endpoint.
    Metrics,
    /// Liveness probe.
    Ping,
    /// Begin graceful shutdown: stop accepting, drain in-flight jobs.
    Shutdown,
}

/// The cache configuration of a `simulate` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheSpec {
    /// Cache capacity in bytes.
    pub size: usize,
    /// Line size in bytes.
    pub line: usize,
    /// Associativity: `None` is fully associative, `Some(1)` direct.
    pub ways: Option<usize>,
    /// Task-switch purge interval, if any.
    pub purge: Option<u64>,
}

/// Parameters of a `simulate` request.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateSpec {
    /// Catalog trace, mix, or family-profile name.
    pub workload: String,
    /// References simulated.
    pub len: usize,
    /// Overrides the profile's generator seed (mix members are XORed).
    pub seed: Option<u64>,
    /// The cache to simulate.
    pub cache: CacheSpec,
    /// Replacement policy: `"lru"` (the default when absent), `"fifo"`,
    /// `"random"`, `"random:<seed>"` or `"plru"`. Optional in both
    /// directions: pre-policy clients never send it, pre-policy servers
    /// ignore it.
    pub policy: Option<String>,
    /// Per-request deadline, measured from admission.
    pub deadline_ms: Option<u64>,
}

/// Parameters of a `sweep` request.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Catalog trace, mix, or family-profile name.
    pub workload: String,
    /// References analyzed.
    pub len: usize,
    /// Overrides the profile's generator seed (mix members are XORed).
    pub seed: Option<u64>,
    /// Cache sizes evaluated; empty means the paper's size grid.
    pub sizes: Vec<usize>,
    /// Associativities crossed with every size. Empty is a size sweep:
    /// one fully-associative point per requested size. Non-empty is a
    /// grid, and the result carries one point per realizable (size,
    /// ways) cell.
    pub ways: Vec<usize>,
    /// Line size in bytes.
    pub line: usize,
    /// Replacement policy (same spellings as `simulate`). LRU sweeps
    /// run the one-pass engine; the other policies run one cache per
    /// point server-side. Optional in both directions.
    pub policy: Option<String>,
    /// Per-request deadline, measured from admission.
    pub deadline_ms: Option<u64>,
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Result of a `simulate` request.
    Simulate(SimulateResult),
    /// Result of a `sweep` request.
    Sweep(SweepResult),
    /// The workload catalog.
    Catalog(CatalogResult),
    /// Server counters.
    Stats(StatsResult),
    /// The metrics-registry snapshot.
    Metrics(RegistrySnapshot),
    /// Answer to `ping`.
    Pong,
    /// Shutdown acknowledged; the server drains and exits.
    Ok,
    /// Any failure, with a stable machine-readable code.
    Error(ErrorBody),
}

/// One simulated cache configuration's statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateResult {
    /// Echo of the requested workload name.
    pub workload: String,
    /// Echo of the simulated reference count.
    pub len: usize,
    /// Echo of the cache capacity.
    pub cache_bytes: usize,
    /// References observed by the cache.
    pub refs: u64,
    /// Total misses.
    pub misses: u64,
    /// Overall miss ratio.
    pub miss_ratio: f64,
    /// Instruction-fetch miss ratio.
    pub instruction_miss_ratio: f64,
    /// Data miss ratio.
    pub data_miss_ratio: f64,
    /// Bus traffic in bytes.
    pub traffic_bytes: u64,
    /// Milliseconds spent queued before a worker picked the job up.
    pub queue_ms: u64,
    /// Milliseconds of worker execution.
    pub exec_ms: u64,
    /// Request trace id, minted at admission; matches this request's
    /// records in the server's trace journal (empty from pre-tracing
    /// servers).
    pub trace_id: String,
}

/// One point of a sweep curve.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Cache capacity in bytes.
    pub size: usize,
    /// Miss ratio at that capacity (fully-associative LRU for legacy
    /// sweeps; the cell's set-associative ratio for grid sweeps).
    pub miss_ratio: f64,
    /// Associativity of a grid-sweep cell; `None` on legacy
    /// fully-associative points (and from pre-grid servers).
    pub ways: Option<usize>,
    /// Bus traffic divided by demanded bytes; grid sweeps only.
    pub traffic_ratio: Option<f64>,
    /// Fraction of misses that pushed a dirty line; grid sweeps only.
    pub dirty_push_fraction: Option<f64>,
}

/// A sweep curve.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// Echo of the requested workload name.
    pub workload: String,
    /// Echo of the analyzed reference count.
    pub len: usize,
    /// Miss ratio per size, in request order.
    pub points: Vec<SweepPoint>,
    /// Milliseconds spent queued before a worker picked the job up.
    pub queue_ms: u64,
    /// Milliseconds of worker execution.
    pub exec_ms: u64,
    /// Request trace id, minted at admission; matches this request's
    /// records in the server's trace journal (empty from pre-tracing
    /// servers).
    pub trace_id: String,
}

/// One catalog row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogEntry {
    /// Trace name (the `workload` key for `simulate`/`sweep`).
    pub name: String,
    /// Workload group (the paper's §3.1 clusters, or the family's
    /// descriptive group for non-CPU profiles).
    pub group: String,
    /// Machine architecture (`"-"` for non-CPU family profiles).
    pub arch: String,
    /// Source language (`"-"` for non-CPU family profiles).
    pub language: String,
    /// Workload family: `"cpu"`, `"storage"` or `"network"`. Decoded as
    /// `"cpu"` when absent, so pre-family servers stay readable.
    pub family: String,
}

/// The `catalog` response payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogResult {
    /// The single-trace profiles: the 49 CPU traces plus the
    /// storage-I/O and network family profiles.
    pub profiles: Vec<CatalogEntry>,
    /// The multiprogramming mix names (also valid `workload` keys).
    pub mixes: Vec<String>,
}

/// Trace-pool counters inside a `stats` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolCounters {
    /// Distinct materialized workloads resident.
    pub entries: usize,
    /// Requests served from an existing entry.
    pub hits: u64,
    /// Requests that had to generate.
    pub misses: u64,
    /// Cumulative bytes ever materialized.
    pub materialized_bytes: u64,
    /// Bytes currently resident.
    pub resident_bytes: u64,
}

/// Persistent-store counters inside a `stats` response. Absent when the
/// server runs without `--store` (and from pre-store servers — the
/// decoder treats a missing object as `None`, keeping old and new
/// clients interoperable in both directions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreCounters {
    /// Live objects in the store index.
    pub entries: u64,
    /// Bytes held by live objects.
    pub bytes: u64,
    /// Reads served from disk.
    pub hits: u64,
    /// Reads that found nothing usable.
    pub misses: u64,
    /// Records written.
    pub writes: u64,
    /// Files quarantined as corrupt (recovery scan included).
    pub corrupt_quarantined: u64,
    /// Objects evicted by the LRU collector.
    pub gc_evictions: u64,
}

/// One-pass grid-sweep counters inside a `stats` response. Absent from
/// pre-grid servers — the decoder treats a missing object as `None`,
/// keeping old and new clients interoperable in both directions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OnePassCounters {
    /// Trace references traversed by the one-pass engine.
    pub refs: u64,
    /// Grid cells (size × ways configurations) those passes produced.
    pub grid_cells: u64,
}

/// Shard-router counters inside a `stats` response. Present only when
/// the answering node runs in router mode; absent (and `None`) from
/// single-node servers and pre-router builds, in both directions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterCounters {
    /// Backend shards configured on the ring.
    pub shards: u64,
    /// Shards currently passing health checks.
    pub healthy: u64,
    /// Requests forwarded to a backend (successful or not).
    pub forwarded: u64,
    /// Forwards that hedged to a fallback shard after a refused or
    /// failed primary.
    pub hedged: u64,
    /// Requests rejected because the target shard's in-flight budget
    /// was exhausted (reported to clients as typed `overloaded`).
    pub shard_overloads: u64,
    /// Health probes issued since start.
    pub health_probes: u64,
    /// Shard snapshots merged into federated `metrics`/`/metrics`
    /// answers since start. Decoded as 0 from pre-federation routers.
    pub federated_shards: u64,
    /// Shards skipped as down during federation (their series are
    /// marked stale instead of blocking the scrape). Decoded as 0 from
    /// pre-federation routers.
    pub stale_shards: u64,
}

/// The `stats` response payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsResult {
    /// `simulate` requests admitted (including ones that later failed).
    pub simulate_requests: u64,
    /// `sweep` requests admitted.
    pub sweep_requests: u64,
    /// `catalog` requests answered.
    pub catalog_requests: u64,
    /// `stats` requests answered.
    pub stats_requests: u64,
    /// Jobs completed successfully by the worker pool.
    pub completed: u64,
    /// Jobs rejected by admission control (queue full).
    pub rejected_overload: u64,
    /// Requests that failed to parse or validate.
    pub protocol_errors: u64,
    /// Jobs whose deadline expired before or during execution.
    pub deadline_misses: u64,
    /// Jobs waiting in the queue right now.
    pub queue_depth: usize,
    /// Highest queue depth observed since start.
    pub queue_high_water: usize,
    /// Worker threads in the pool.
    pub workers: usize,
    /// Cumulative worker milliseconds spent in `simulate` jobs.
    pub busy_ms_simulate: u64,
    /// Cumulative worker milliseconds spent in `sweep` jobs.
    pub busy_ms_sweep: u64,
    /// Shared trace-pool counters.
    pub pool: PoolCounters,
    /// Persistent-store counters; `None` when no store is configured.
    pub store: Option<StoreCounters>,
    /// One-pass grid-sweep counters; `None` from pre-grid servers.
    pub one_pass: Option<OnePassCounters>,
    /// Shard-router counters; `None` from non-router nodes.
    pub router: Option<RouterCounters>,
}

/// Stable machine-readable failure codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The work queue is full; retry later (admission control).
    Overloaded,
    /// The request was syntactically or semantically invalid.
    BadRequest,
    /// The `"type"` discriminator is not a known request type.
    UnknownType,
    /// The named workload is not in the catalog.
    UnknownWorkload,
    /// The per-request deadline expired before a result was ready.
    DeadlineExceeded,
    /// A request line exceeded [`MAX_LINE_BYTES`].
    Oversized,
    /// The server is draining and no longer admits work.
    ShuttingDown,
    /// An unexpected server-side failure (e.g. a panicking job).
    Internal,
}

impl ErrorCode {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownType => "unknown_type",
            ErrorCode::UnknownWorkload => "unknown_workload",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::Oversized => "oversized",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Internal => "internal",
        }
    }

    fn parse(text: &str) -> Option<ErrorCode> {
        Some(match text {
            "overloaded" => ErrorCode::Overloaded,
            "bad_request" => ErrorCode::BadRequest,
            "unknown_type" => ErrorCode::UnknownType,
            "unknown_workload" => ErrorCode::UnknownWorkload,
            "deadline_exceeded" => ErrorCode::DeadlineExceeded,
            "oversized" => ErrorCode::Oversized,
            "shutting_down" => ErrorCode::ShuttingDown,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A typed error response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorBody {
    /// The stable failure code.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl ErrorBody {
    /// Builds an error body.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        ErrorBody {
            code,
            message: message.into(),
        }
    }
}

impl fmt::Display for ErrorBody {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

/// The optional tracing fields of the request envelope: the trace id
/// the request should be admitted under and, when a caller in another
/// process already opened a span for this hop, that span's id. Both are
/// tolerated in both directions — a v-less or pre-tracing peer simply
/// never sends or reads them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceEnvelope {
    /// Trace id (1–64 ASCII-alphanumeric bytes) or `None` to mint one.
    pub trace_id: Option<String>,
    /// Span id in the *sender's* journal that this request should hang
    /// under — the receiver roots its `request` span with this parent so
    /// a multi-journal `trace report` can stitch the hop. Only
    /// meaningful (and only decoded) together with `trace_id`.
    pub parent_span: Option<u64>,
}

impl Request {
    /// Encodes the request as one JSON line (no trailing newline),
    /// with the [`PROTOCOL_VERSION`] envelope (`"v":1`) leading.
    pub fn encode(&self) -> String {
        self.encode_with_envelope(&TraceEnvelope::default())
    }

    /// Encodes like [`Request::encode`], adding the envelope's
    /// `trace_id` field when it carries one, and then its `parent_span`
    /// field when it carries that too. A server admits the request
    /// under the trace id instead of minting one, so a router (or any
    /// caller) can correlate its own spans with the backend's journal;
    /// routers send the parent span to link the shard's `request` span
    /// under their own forward span. Pre-tracing servers ignore both
    /// fields (unknown request fields are always ignored).
    pub fn encode_with_envelope(&self, envelope: &TraceEnvelope) -> String {
        let mut value = match self {
            Request::Simulate(spec) => {
                let mut fields = vec![
                    ("type", json::s("simulate")),
                    ("workload", json::s(&spec.workload)),
                    ("len", Json::Uint(spec.len as u64)),
                    ("size", Json::Uint(spec.cache.size as u64)),
                    ("line", Json::Uint(spec.cache.line as u64)),
                ];
                if let Some(ways) = spec.cache.ways {
                    fields.push(("ways", Json::Uint(ways as u64)));
                }
                if let Some(purge) = spec.cache.purge {
                    fields.push(("purge", Json::Uint(purge)));
                }
                if let Some(seed) = spec.seed {
                    fields.push(("seed", Json::Uint(seed)));
                }
                if let Some(policy) = &spec.policy {
                    fields.push(("policy", json::s(policy)));
                }
                if let Some(ms) = spec.deadline_ms {
                    fields.push(("deadline_ms", Json::Uint(ms)));
                }
                json::obj(fields)
            }
            Request::Sweep(spec) => {
                let mut fields = vec![
                    ("type", json::s("sweep")),
                    ("workload", json::s(&spec.workload)),
                    ("len", Json::Uint(spec.len as u64)),
                    ("line", Json::Uint(spec.line as u64)),
                ];
                if !spec.sizes.is_empty() {
                    fields.push((
                        "sizes",
                        Json::Arr(spec.sizes.iter().map(|&s| Json::Uint(s as u64)).collect()),
                    ));
                }
                if !spec.ways.is_empty() {
                    fields.push((
                        "ways",
                        Json::Arr(spec.ways.iter().map(|&w| Json::Uint(w as u64)).collect()),
                    ));
                }
                if let Some(seed) = spec.seed {
                    fields.push(("seed", Json::Uint(seed)));
                }
                if let Some(policy) = &spec.policy {
                    fields.push(("policy", json::s(policy)));
                }
                if let Some(ms) = spec.deadline_ms {
                    fields.push(("deadline_ms", Json::Uint(ms)));
                }
                json::obj(fields)
            }
            Request::Catalog => json::obj(vec![("type", json::s("catalog"))]),
            Request::Stats => json::obj(vec![("type", json::s("stats"))]),
            Request::Metrics => json::obj(vec![("type", json::s("metrics"))]),
            Request::Ping => json::obj(vec![("type", json::s("ping"))]),
            Request::Shutdown => json::obj(vec![("type", json::s("shutdown"))]),
        };
        if let Json::Obj(fields) = &mut value {
            fields.insert(0, ("v".to_string(), Json::Uint(PROTOCOL_VERSION)));
            if let Some(id) = &envelope.trace_id {
                fields.insert(1, ("trace_id".to_string(), json::s(id)));
                if let Some(parent) = envelope.parent_span {
                    fields.insert(2, ("parent_span".to_string(), Json::Uint(parent)));
                }
            }
        }
        value.to_string()
    }

    /// Decodes one request line.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ErrorBody`] (`bad_request`, `unknown_type`) the
    /// server sends back verbatim.
    pub fn decode(line: &str) -> Result<Request, ErrorBody> {
        Self::decode_with_envelope(line).map(|(request, _envelope)| request)
    }

    /// Decodes one request line plus its [`TraceEnvelope`]. Servers use
    /// this to admit forwarded requests under the caller's trace id.
    /// Ids longer than 64 bytes or with non-alphanumeric characters are
    /// ignored rather than rejected — a hostile id must not break
    /// journaling. `parent_span` is only honoured alongside a valid
    /// `trace_id`, and a non-numeric or zero value is ignored rather
    /// than rejected — hostile envelopes must not break request
    /// handling.
    ///
    /// # Errors
    ///
    /// Same as [`Request::decode`].
    pub fn decode_with_envelope(line: &str) -> Result<(Request, TraceEnvelope), ErrorBody> {
        let value = Json::parse(line)
            .map_err(|e| ErrorBody::new(ErrorCode::BadRequest, format!("invalid JSON: {e}")))?;
        if !matches!(value, Json::Obj(_)) {
            return Err(ErrorBody::new(
                ErrorCode::BadRequest,
                "request must be a JSON object",
            ));
        }
        // Version envelope: absent means a pre-versioning client and is
        // accepted; present must match. Unknown fields elsewhere are
        // ignored, so only an explicit mismatch is an error.
        match value.get("v") {
            None => {}
            Some(v) if v.as_u64() == Some(PROTOCOL_VERSION) => {}
            Some(v) => {
                return Err(ErrorBody::new(
                    ErrorCode::BadRequest,
                    format!("unsupported protocol version {v} (this server speaks v{PROTOCOL_VERSION})"),
                ));
            }
        }
        let kind = value
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| ErrorBody::new(ErrorCode::BadRequest, "missing \"type\" field"))?;
        let trace = value
            .get("trace_id")
            .and_then(Json::as_str)
            .filter(|id| {
                !id.is_empty() && id.len() <= 64 && id.chars().all(|c| c.is_ascii_alphanumeric())
            })
            .map(str::to_string);
        let parent_span = if trace.is_some() {
            value
                .get("parent_span")
                .and_then(Json::as_u64)
                .filter(|&span| span != 0)
        } else {
            None
        };
        let request = match kind {
            "simulate" => Request::Simulate(SimulateSpec::from_json(&value)?),
            "sweep" => Request::Sweep(SweepSpec::from_json(&value)?),
            "catalog" => Request::Catalog,
            "stats" => Request::Stats,
            "metrics" => Request::Metrics,
            "ping" => Request::Ping,
            "shutdown" => Request::Shutdown,
            other => {
                return Err(ErrorBody::new(
                    ErrorCode::UnknownType,
                    format!("unknown request type {other:?}"),
                ))
            }
        };
        Ok((
            request,
            TraceEnvelope {
                trace_id: trace,
                parent_span,
            },
        ))
    }
}

/// An optional string field, defaulting to empty when absent (used for
/// keys newer than the peer, e.g. `trace_id` from a pre-tracing server).
fn opt_str(value: &Json, key: &str) -> String {
    value
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string()
}

fn field_usize(value: &Json, key: &str, default: usize) -> Result<usize, ErrorBody> {
    match value.get(key) {
        None => Ok(default),
        Some(v) => v.as_usize().ok_or_else(|| {
            ErrorBody::new(
                ErrorCode::BadRequest,
                format!("\"{key}\" must be a non-negative integer"),
            )
        }),
    }
}

fn field_opt_u64(value: &Json, key: &str) -> Result<Option<u64>, ErrorBody> {
    match value.get(key) {
        None => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            ErrorBody::new(
                ErrorCode::BadRequest,
                format!("\"{key}\" must be a non-negative integer"),
            )
        }),
    }
}

fn field_workload(value: &Json) -> Result<String, ErrorBody> {
    value
        .get("workload")
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| ErrorBody::new(ErrorCode::BadRequest, "missing \"workload\" string"))
}

impl SimulateSpec {
    fn from_json(value: &Json) -> Result<SimulateSpec, ErrorBody> {
        let size = field_usize(value, "size", 0)?;
        if size == 0 {
            return Err(ErrorBody::new(
                ErrorCode::BadRequest,
                "missing \"size\" (cache capacity in bytes)",
            ));
        }
        Ok(SimulateSpec {
            workload: field_workload(value)?,
            len: field_usize(value, "len", DEFAULT_TRACE_LEN)?,
            seed: field_opt_u64(value, "seed")?,
            cache: CacheSpec {
                size,
                line: field_usize(value, "line", DEFAULT_LINE_BYTES)?,
                ways: match value.get("ways") {
                    None => None,
                    Some(Json::Str(s)) if s == "full" => None,
                    Some(v) => Some(v.as_usize().ok_or_else(|| {
                        ErrorBody::new(
                            ErrorCode::BadRequest,
                            "\"ways\" must be an integer or \"full\"",
                        )
                    })?),
                },
                purge: field_opt_u64(value, "purge")?,
            },
            policy: field_opt_policy(value)?,
            deadline_ms: field_opt_u64(value, "deadline_ms")?,
        })
    }
}

/// The optional `"policy"` string; `None` from pre-policy clients.
fn field_opt_policy(value: &Json) -> Result<Option<String>, ErrorBody> {
    match value.get("policy") {
        None => Ok(None),
        Some(v) => v.as_str().map(|s| Some(s.to_string())).ok_or_else(|| {
            ErrorBody::new(ErrorCode::BadRequest, "\"policy\" must be a string")
        }),
    }
}

/// An optional array of non-negative integers, empty when absent.
fn field_usize_array(value: &Json, key: &str) -> Result<Vec<usize>, ErrorBody> {
    match value.get(key) {
        None => Ok(Vec::new()),
        Some(v) => v
            .as_arr()
            .ok_or_else(|| {
                ErrorBody::new(ErrorCode::BadRequest, format!("\"{key}\" must be an array"))
            })?
            .iter()
            .map(|item| {
                item.as_usize().ok_or_else(|| {
                    ErrorBody::new(
                        ErrorCode::BadRequest,
                        format!("\"{key}\" entries must be non-negative integers"),
                    )
                })
            })
            .collect(),
    }
}

impl SweepSpec {
    fn from_json(value: &Json) -> Result<SweepSpec, ErrorBody> {
        Ok(SweepSpec {
            workload: field_workload(value)?,
            len: field_usize(value, "len", DEFAULT_TRACE_LEN)?,
            seed: field_opt_u64(value, "seed")?,
            sizes: field_usize_array(value, "sizes")?,
            ways: field_usize_array(value, "ways")?,
            line: field_usize(value, "line", DEFAULT_LINE_BYTES)?,
            policy: field_opt_policy(value)?,
            deadline_ms: field_opt_u64(value, "deadline_ms")?,
        })
    }
}

impl Response {
    /// Encodes the response as one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let value = match self {
            Response::Simulate(r) => json::obj(vec![
                ("type", json::s("simulate_result")),
                ("workload", json::s(&r.workload)),
                ("len", Json::Uint(r.len as u64)),
                ("cache_bytes", Json::Uint(r.cache_bytes as u64)),
                ("refs", Json::Uint(r.refs)),
                ("misses", Json::Uint(r.misses)),
                ("miss_ratio", Json::Num(r.miss_ratio)),
                ("instruction_miss_ratio", Json::Num(r.instruction_miss_ratio)),
                ("data_miss_ratio", Json::Num(r.data_miss_ratio)),
                ("traffic_bytes", Json::Uint(r.traffic_bytes)),
                ("queue_ms", Json::Uint(r.queue_ms)),
                ("exec_ms", Json::Uint(r.exec_ms)),
                ("trace_id", json::s(&r.trace_id)),
            ]),
            Response::Sweep(r) => json::obj(vec![
                ("type", json::s("sweep_result")),
                ("workload", json::s(&r.workload)),
                ("len", Json::Uint(r.len as u64)),
                (
                    "points",
                    Json::Arr(
                        r.points
                            .iter()
                            .map(|p| {
                                let mut fields = vec![
                                    ("size", Json::Uint(p.size as u64)),
                                    ("miss_ratio", Json::Num(p.miss_ratio)),
                                ];
                                if let Some(w) = p.ways {
                                    fields.push(("ways", Json::Uint(w as u64)));
                                }
                                if let Some(t) = p.traffic_ratio {
                                    fields.push(("traffic_ratio", Json::Num(t)));
                                }
                                if let Some(d) = p.dirty_push_fraction {
                                    fields.push(("dirty_push_fraction", Json::Num(d)));
                                }
                                json::obj(fields)
                            })
                            .collect(),
                    ),
                ),
                ("queue_ms", Json::Uint(r.queue_ms)),
                ("exec_ms", Json::Uint(r.exec_ms)),
                ("trace_id", json::s(&r.trace_id)),
            ]),
            Response::Catalog(r) => json::obj(vec![
                ("type", json::s("catalog_result")),
                (
                    "profiles",
                    Json::Arr(
                        r.profiles
                            .iter()
                            .map(|e| {
                                json::obj(vec![
                                    ("name", json::s(&e.name)),
                                    ("group", json::s(&e.group)),
                                    ("arch", json::s(&e.arch)),
                                    ("language", json::s(&e.language)),
                                    ("family", json::s(&e.family)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "mixes",
                    Json::Arr(r.mixes.iter().map(json::s).collect()),
                ),
            ]),
            Response::Stats(r) => json::obj(vec![
                ("type", json::s("stats_result")),
                (
                    "requests",
                    json::obj(vec![
                        ("simulate", Json::Uint(r.simulate_requests)),
                        ("sweep", Json::Uint(r.sweep_requests)),
                        ("catalog", Json::Uint(r.catalog_requests)),
                        ("stats", Json::Uint(r.stats_requests)),
                    ]),
                ),
                ("completed", Json::Uint(r.completed)),
                ("rejected_overload", Json::Uint(r.rejected_overload)),
                ("protocol_errors", Json::Uint(r.protocol_errors)),
                ("deadline_misses", Json::Uint(r.deadline_misses)),
                (
                    "queue",
                    json::obj(vec![
                        ("depth", Json::Uint(r.queue_depth as u64)),
                        ("high_water", Json::Uint(r.queue_high_water as u64)),
                    ]),
                ),
                ("workers", Json::Uint(r.workers as u64)),
                (
                    "busy_ms",
                    json::obj(vec![
                        ("simulate", Json::Uint(r.busy_ms_simulate)),
                        ("sweep", Json::Uint(r.busy_ms_sweep)),
                    ]),
                ),
                (
                    "pool",
                    json::obj(vec![
                        ("entries", Json::Uint(r.pool.entries as u64)),
                        ("hits", Json::Uint(r.pool.hits)),
                        ("misses", Json::Uint(r.pool.misses)),
                        ("materialized_bytes", Json::Uint(r.pool.materialized_bytes)),
                        ("resident_bytes", Json::Uint(r.pool.resident_bytes)),
                    ]),
                ),
            ]
            .into_iter()
            .chain(r.store.as_ref().map(|s| {
                (
                    "store",
                    json::obj(vec![
                        ("entries", Json::Uint(s.entries)),
                        ("bytes", Json::Uint(s.bytes)),
                        ("hits", Json::Uint(s.hits)),
                        ("misses", Json::Uint(s.misses)),
                        ("writes", Json::Uint(s.writes)),
                        ("corrupt_quarantined", Json::Uint(s.corrupt_quarantined)),
                        ("gc_evictions", Json::Uint(s.gc_evictions)),
                    ]),
                )
            }))
            .chain(r.one_pass.as_ref().map(|o| {
                (
                    "one_pass",
                    json::obj(vec![
                        ("refs", Json::Uint(o.refs)),
                        ("grid_cells", Json::Uint(o.grid_cells)),
                    ]),
                )
            }))
            .chain(r.router.as_ref().map(|rt| {
                (
                    "router",
                    json::obj(vec![
                        ("shards", Json::Uint(rt.shards)),
                        ("healthy", Json::Uint(rt.healthy)),
                        ("forwarded", Json::Uint(rt.forwarded)),
                        ("hedged", Json::Uint(rt.hedged)),
                        ("shard_overloads", Json::Uint(rt.shard_overloads)),
                        ("health_probes", Json::Uint(rt.health_probes)),
                        ("federated_shards", Json::Uint(rt.federated_shards)),
                        ("stale_shards", Json::Uint(rt.stale_shards)),
                    ]),
                )
            }))
            .collect()),
            Response::Metrics(snapshot) => {
                // Sorted label pairs render as a `"labels"` object,
                // omitted when empty so pre-label payloads are
                // byte-identical to what old servers sent.
                let labels_field = |labels: &[(String, String)]| -> Option<(String, Json)> {
                    if labels.is_empty() {
                        return None;
                    }
                    Some((
                        "labels".to_string(),
                        Json::Obj(
                            labels
                                .iter()
                                .map(|(k, v)| (k.clone(), json::s(v)))
                                .collect(),
                        ),
                    ))
                };
                json::obj(vec![
                    ("type", json::s("metrics_result")),
                    (
                        "counters",
                        Json::Arr(
                            snapshot
                                .counters
                                .iter()
                                .map(|c| {
                                    let mut fields = vec![
                                        ("name".to_string(), json::s(&c.name)),
                                        ("value".to_string(), Json::Uint(c.value)),
                                    ];
                                    fields.extend(labels_field(&c.labels));
                                    Json::Obj(fields)
                                })
                                .collect(),
                        ),
                    ),
                    (
                        "gauges",
                        Json::Arr(
                            snapshot
                                .gauges
                                .iter()
                                .map(|g| {
                                    let mut fields = vec![
                                        ("name".to_string(), json::s(&g.name)),
                                        ("value".to_string(), Json::Num(g.value)),
                                    ];
                                    fields.extend(labels_field(&g.labels));
                                    Json::Obj(fields)
                                })
                                .collect(),
                        ),
                    ),
                    (
                        "histograms",
                        Json::Arr(
                            snapshot
                                .histograms
                                .iter()
                                .map(|h| {
                                    let mut fields = vec![
                                        ("name".to_string(), json::s(&h.name)),
                                        ("count".to_string(), Json::Uint(h.count)),
                                        ("sum".to_string(), Json::Num(h.sum)),
                                        ("overflow".to_string(), Json::Uint(h.overflow)),
                                        ("p50".to_string(), Json::Num(h.p50)),
                                        ("p95".to_string(), Json::Num(h.p95)),
                                        ("p99".to_string(), Json::Num(h.p99)),
                                        (
                                            "buckets".to_string(),
                                            Json::Arr(
                                                h.buckets
                                                    .iter()
                                                    .map(|b| {
                                                        json::obj(vec![
                                                            ("le", Json::Num(b.le)),
                                                            ("count", Json::Uint(b.count)),
                                                        ])
                                                    })
                                                    .collect(),
                                            ),
                                        ),
                                    ];
                                    fields.extend(labels_field(&h.labels));
                                    Json::Obj(fields)
                                })
                                .collect(),
                        ),
                    ),
                ])
            }
            Response::Pong => json::obj(vec![("type", json::s("pong"))]),
            Response::Ok => json::obj(vec![("type", json::s("ok"))]),
            Response::Error(e) => json::obj(vec![
                ("type", json::s("error")),
                ("code", json::s(e.code.as_str())),
                ("message", json::s(&e.message)),
            ]),
        };
        value.to_string()
    }

    /// Decodes one response line (the client side).
    ///
    /// # Errors
    ///
    /// Returns a description of what failed to parse.
    pub fn decode(line: &str) -> Result<Response, String> {
        let value = Json::parse(line).map_err(|e| format!("invalid JSON response: {e}"))?;
        let kind = value
            .get("type")
            .and_then(Json::as_str)
            .ok_or("response missing \"type\"")?;
        let need_u64 = |v: &Json, key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("response missing numeric \"{key}\""))
        };
        let need_f64 = |v: &Json, key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("response missing numeric \"{key}\""))
        };
        let need_str = |v: &Json, key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("response missing string \"{key}\""))
        };
        match kind {
            "simulate_result" => Ok(Response::Simulate(SimulateResult {
                workload: need_str(&value, "workload")?,
                len: need_u64(&value, "len")? as usize,
                cache_bytes: need_u64(&value, "cache_bytes")? as usize,
                refs: need_u64(&value, "refs")?,
                misses: need_u64(&value, "misses")?,
                miss_ratio: need_f64(&value, "miss_ratio")?,
                instruction_miss_ratio: need_f64(&value, "instruction_miss_ratio")?,
                data_miss_ratio: need_f64(&value, "data_miss_ratio")?,
                traffic_bytes: need_u64(&value, "traffic_bytes")?,
                queue_ms: need_u64(&value, "queue_ms")?,
                exec_ms: need_u64(&value, "exec_ms")?,
                // Optional for compatibility with pre-tracing servers.
                trace_id: opt_str(&value, "trace_id"),
            })),
            "sweep_result" => {
                let points = value
                    .get("points")
                    .and_then(Json::as_arr)
                    .ok_or("sweep_result missing \"points\"")?
                    .iter()
                    .map(|p| {
                        Ok(SweepPoint {
                            size: need_u64(p, "size")? as usize,
                            miss_ratio: need_f64(p, "miss_ratio")?,
                            // Optional: absent from legacy points and
                            // pre-grid servers.
                            ways: p.get("ways").and_then(Json::as_u64).map(|w| w as usize),
                            traffic_ratio: p.get("traffic_ratio").and_then(Json::as_f64),
                            dirty_push_fraction: p
                                .get("dirty_push_fraction")
                                .and_then(Json::as_f64),
                        })
                    })
                    .collect::<Result<_, String>>()?;
                Ok(Response::Sweep(SweepResult {
                    workload: need_str(&value, "workload")?,
                    len: need_u64(&value, "len")? as usize,
                    points,
                    queue_ms: need_u64(&value, "queue_ms")?,
                    exec_ms: need_u64(&value, "exec_ms")?,
                    trace_id: opt_str(&value, "trace_id"),
                }))
            }
            "catalog_result" => {
                let profiles = value
                    .get("profiles")
                    .and_then(Json::as_arr)
                    .ok_or("catalog_result missing \"profiles\"")?
                    .iter()
                    .map(|e| {
                        Ok(CatalogEntry {
                            name: need_str(e, "name")?,
                            group: need_str(e, "group")?,
                            arch: need_str(e, "arch")?,
                            language: need_str(e, "language")?,
                            // Optional: pre-family servers only list
                            // CPU profiles.
                            family: match e.get("family").and_then(Json::as_str) {
                                Some(f) => f.to_string(),
                                None => "cpu".to_string(),
                            },
                        })
                    })
                    .collect::<Result<_, String>>()?;
                let mixes = value
                    .get("mixes")
                    .and_then(Json::as_arr)
                    .ok_or("catalog_result missing \"mixes\"")?
                    .iter()
                    .map(|m| m.as_str().map(str::to_string).ok_or("mix must be a string"))
                    .collect::<Result<_, _>>()?;
                Ok(Response::Catalog(CatalogResult { profiles, mixes }))
            }
            "stats_result" => {
                let requests = value.get("requests").ok_or("stats_result missing \"requests\"")?;
                let queue = value.get("queue").ok_or("stats_result missing \"queue\"")?;
                let busy = value.get("busy_ms").ok_or("stats_result missing \"busy_ms\"")?;
                let pool = value.get("pool").ok_or("stats_result missing \"pool\"")?;
                Ok(Response::Stats(StatsResult {
                    simulate_requests: need_u64(requests, "simulate")?,
                    sweep_requests: need_u64(requests, "sweep")?,
                    catalog_requests: need_u64(requests, "catalog")?,
                    stats_requests: need_u64(requests, "stats")?,
                    completed: need_u64(&value, "completed")?,
                    rejected_overload: need_u64(&value, "rejected_overload")?,
                    protocol_errors: need_u64(&value, "protocol_errors")?,
                    deadline_misses: need_u64(&value, "deadline_misses")?,
                    queue_depth: need_u64(queue, "depth")? as usize,
                    queue_high_water: need_u64(queue, "high_water")? as usize,
                    workers: need_u64(&value, "workers")? as usize,
                    busy_ms_simulate: need_u64(busy, "simulate")?,
                    busy_ms_sweep: need_u64(busy, "sweep")?,
                    pool: PoolCounters {
                        entries: need_u64(pool, "entries")? as usize,
                        hits: need_u64(pool, "hits")?,
                        misses: need_u64(pool, "misses")?,
                        materialized_bytes: need_u64(pool, "materialized_bytes")?,
                        resident_bytes: need_u64(pool, "resident_bytes")?,
                    },
                    // Optional: absent from store-less and pre-store
                    // servers.
                    store: match value.get("store") {
                        Some(store) => Some(StoreCounters {
                            entries: need_u64(store, "entries")?,
                            bytes: need_u64(store, "bytes")?,
                            hits: need_u64(store, "hits")?,
                            misses: need_u64(store, "misses")?,
                            writes: need_u64(store, "writes")?,
                            corrupt_quarantined: need_u64(store, "corrupt_quarantined")?,
                            gc_evictions: need_u64(store, "gc_evictions")?,
                        }),
                        None => None,
                    },
                    // Optional: absent from pre-grid servers.
                    one_pass: match value.get("one_pass") {
                        Some(one_pass) => Some(OnePassCounters {
                            refs: need_u64(one_pass, "refs")?,
                            grid_cells: need_u64(one_pass, "grid_cells")?,
                        }),
                        None => None,
                    },
                    // Optional: only router nodes report this block.
                    router: match value.get("router") {
                        Some(router) => Some(RouterCounters {
                            shards: need_u64(router, "shards")?,
                            healthy: need_u64(router, "healthy")?,
                            forwarded: need_u64(router, "forwarded")?,
                            hedged: need_u64(router, "hedged")?,
                            shard_overloads: need_u64(router, "shard_overloads")?,
                            health_probes: need_u64(router, "health_probes")?,
                            // Optional: absent from pre-federation routers.
                            federated_shards: router
                                .get("federated_shards")
                                .and_then(Json::as_u64)
                                .unwrap_or(0),
                            stale_shards: router
                                .get("stale_shards")
                                .and_then(Json::as_u64)
                                .unwrap_or(0),
                        }),
                        None => None,
                    },
                }))
            }
            "metrics_result" => {
                // Optional per-series label object; absent from
                // pre-label servers and unlabeled series alike.
                let opt_labels = |entry: &Json| -> Vec<(String, String)> {
                    let mut labels: Vec<(String, String)> = match entry.get("labels") {
                        Some(Json::Obj(fields)) => fields
                            .iter()
                            .filter_map(|(k, v)| {
                                v.as_str().map(|v| (k.clone(), v.to_string()))
                            })
                            .collect(),
                        _ => Vec::new(),
                    };
                    labels.sort();
                    labels
                };
                let counters = value
                    .get("counters")
                    .and_then(Json::as_arr)
                    .ok_or("metrics_result missing \"counters\"")?
                    .iter()
                    .map(|c| {
                        Ok(CounterSnapshot {
                            name: need_str(c, "name")?,
                            labels: opt_labels(c),
                            value: need_u64(c, "value")?,
                        })
                    })
                    .collect::<Result<_, String>>()?;
                let gauges = value
                    .get("gauges")
                    .and_then(Json::as_arr)
                    .ok_or("metrics_result missing \"gauges\"")?
                    .iter()
                    .map(|g| {
                        Ok(GaugeSnapshot {
                            name: need_str(g, "name")?,
                            labels: opt_labels(g),
                            value: need_f64(g, "value")?,
                        })
                    })
                    .collect::<Result<_, String>>()?;
                let histograms = value
                    .get("histograms")
                    .and_then(Json::as_arr)
                    .ok_or("metrics_result missing \"histograms\"")?
                    .iter()
                    .map(|h| {
                        let buckets = h
                            .get("buckets")
                            .and_then(Json::as_arr)
                            .ok_or("histogram missing \"buckets\"")?
                            .iter()
                            .map(|b| {
                                Ok(BucketSnapshot {
                                    le: need_f64(b, "le")?,
                                    count: need_u64(b, "count")?,
                                })
                            })
                            .collect::<Result<_, String>>()?;
                        Ok(HistogramSnapshot {
                            name: need_str(h, "name")?,
                            labels: opt_labels(h),
                            count: need_u64(h, "count")?,
                            sum: need_f64(h, "sum")?,
                            overflow: need_u64(h, "overflow")?,
                            p50: need_f64(h, "p50")?,
                            p95: need_f64(h, "p95")?,
                            p99: need_f64(h, "p99")?,
                            buckets,
                        })
                    })
                    .collect::<Result<_, String>>()?;
                Ok(Response::Metrics(RegistrySnapshot {
                    counters,
                    gauges,
                    histograms,
                }))
            }
            "pong" => Ok(Response::Pong),
            "ok" => Ok(Response::Ok),
            "error" => {
                let code_text = need_str(&value, "code")?;
                let code = ErrorCode::parse(&code_text)
                    .ok_or_else(|| format!("unknown error code {code_text:?}"))?;
                Ok(Response::Error(ErrorBody {
                    code,
                    message: need_str(&value, "message")?,
                }))
            }
            other => Err(format!("unknown response type {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request_round_trip(request: Request) {
        let line = request.encode();
        assert!(!line.contains('\n'), "encoded request must be one line");
        assert_eq!(Request::decode(&line).unwrap(), request, "{line}");
    }

    fn response_round_trip(response: Response) {
        let line = response.encode();
        assert!(!line.contains('\n'), "encoded response must be one line");
        assert_eq!(Response::decode(&line).unwrap(), response, "{line}");
    }

    // Field values the generated messages below walk through: 0, 1 and
    // the type's maximum, absent and present options, every policy
    // spelling, and strings that need escaping.
    const USIZES: [usize; 3] = [0, 1, usize::MAX];
    const U64S: [u64; 3] = [0, 1, u64::MAX];
    const OPT_USIZES: [Option<usize>; 4] = [None, Some(0), Some(1), Some(usize::MAX)];
    const OPT_U64S: [Option<u64>; 4] = [None, Some(0), Some(1), Some(u64::MAX)];
    const SIZE_LISTS: [&[usize]; 5] = [&[], &[0], &[1], &[usize::MAX], &[1, 1024, usize::MAX]];
    const POLICIES: [Option<&str>; 6] = [
        None,
        Some("lru"),
        Some("fifo"),
        Some("random"),
        Some("random:85"),
        Some("plru"),
    ];
    const RATIOS: [f64; 6] = [0.0, 1.0, 1.0 / 3.0, 2.5e-7, f64::MIN_POSITIVE, 5e-324];
    const TEXTS: [&str; 4] = [
        "",
        "VCCOM",
        "Z8000 - Assorted",
        "quote \" slash \\ tab \t newline \n nul \u{0} é 🚀",
    ];

    /// The `i`-th value of `values`, cyclically.
    fn pick<T: Copy>(values: &[T], i: usize) -> T {
        values[i % values.len()]
    }

    /// Every request variant, with fields cycling through the values
    /// above at different offsets.
    fn generated_requests() -> Vec<Request> {
        let mut requests = vec![
            Request::Catalog,
            Request::Stats,
            Request::Metrics,
            Request::Ping,
            Request::Shutdown,
        ];
        for i in 0..12 {
            requests.push(Request::Simulate(SimulateSpec {
                workload: pick(&TEXTS, i).into(),
                len: pick(&USIZES, i),
                seed: pick(&OPT_U64S, i),
                cache: CacheSpec {
                    // A zero size decodes as a missing one.
                    size: pick(&[1, 1024, usize::MAX], i),
                    line: pick(&USIZES, i + 1),
                    ways: pick(&OPT_USIZES, i + 2),
                    purge: pick(&OPT_U64S, i + 3),
                },
                policy: pick(&POLICIES, i).map(str::to_string),
                deadline_ms: pick(&OPT_U64S, i + 1),
            }));
            requests.push(Request::Sweep(SweepSpec {
                workload: pick(&TEXTS, i + 1).into(),
                len: pick(&USIZES, i + 2),
                seed: pick(&OPT_U64S, i + 1),
                sizes: pick(&SIZE_LISTS, i).to_vec(),
                ways: pick(&SIZE_LISTS, i + 2).to_vec(),
                line: pick(&USIZES, i),
                policy: pick(&POLICIES, i + 3).map(str::to_string),
                deadline_ms: pick(&OPT_U64S, i + 2),
            }));
        }
        requests
    }

    /// Every response variant, generated the same way.
    fn generated_responses() -> Vec<Response> {
        let mut responses = vec![Response::Pong, Response::Ok];
        for (i, code) in [
            ErrorCode::Overloaded,
            ErrorCode::BadRequest,
            ErrorCode::UnknownType,
            ErrorCode::UnknownWorkload,
            ErrorCode::DeadlineExceeded,
            ErrorCode::Oversized,
            ErrorCode::ShuttingDown,
            ErrorCode::Internal,
        ]
        .into_iter()
        .enumerate()
        {
            responses.push(Response::Error(ErrorBody::new(code, pick(&TEXTS, i))));
        }
        for i in 0..12 {
            responses.push(Response::Simulate(SimulateResult {
                workload: pick(&TEXTS, i).into(),
                len: pick(&USIZES, i),
                cache_bytes: pick(&USIZES, i + 1),
                refs: pick(&U64S, i),
                misses: pick(&U64S, i + 1),
                miss_ratio: pick(&RATIOS, i),
                instruction_miss_ratio: pick(&RATIOS, i + 1),
                data_miss_ratio: pick(&RATIOS, i + 2),
                traffic_bytes: pick(&U64S, i + 2),
                queue_ms: pick(&U64S, i),
                exec_ms: pick(&U64S, i + 1),
                trace_id: pick(&["", "4f3a2b1c9d8e7f60"], i).into(),
            }));
            responses.push(Response::Sweep(SweepResult {
                workload: pick(&TEXTS, i + 1).into(),
                len: pick(&USIZES, i + 2),
                points: (0..i % 4)
                    .map(|j| SweepPoint {
                        size: pick(&USIZES, i + j),
                        miss_ratio: pick(&RATIOS, i + j),
                        ways: pick(&OPT_USIZES, i + j),
                        traffic_ratio: ((i + j) % 2 == 1).then(|| pick(&RATIOS, j)),
                        dirty_push_fraction: ((i + j) % 3 == 1).then(|| pick(&RATIOS, i)),
                    })
                    .collect(),
                queue_ms: pick(&U64S, i + 2),
                exec_ms: pick(&U64S, i),
                trace_id: pick(&["4f3a2b1c9d8e7f60", ""], i).into(),
            }));
        }
        for i in 0..3 {
            responses.push(Response::Catalog(CatalogResult {
                profiles: (0..i)
                    .map(|j| CatalogEntry {
                        name: pick(&TEXTS, i + j).into(),
                        group: pick(&TEXTS, i + j + 1).into(),
                        arch: pick(&TEXTS, j).into(),
                        language: pick(&TEXTS, j + 2).into(),
                        family: pick(&["cpu", "storage", "network"], i + j).into(),
                    })
                    .collect(),
                mixes: (0..i).map(|j| pick(&TEXTS, j + 3).into()).collect(),
            }));
        }
        for i in 0..6 {
            let n = |k: usize| pick(&U64S, i + k);
            responses.push(Response::Stats(StatsResult {
                simulate_requests: n(0),
                sweep_requests: n(1),
                catalog_requests: n(2),
                stats_requests: n(0),
                completed: n(1),
                rejected_overload: n(2),
                protocol_errors: n(0),
                deadline_misses: n(1),
                queue_depth: pick(&USIZES, i),
                queue_high_water: pick(&USIZES, i + 1),
                workers: pick(&USIZES, i + 2),
                busy_ms_simulate: n(2),
                busy_ms_sweep: n(0),
                pool: PoolCounters {
                    entries: pick(&USIZES, i + 1),
                    hits: n(1),
                    misses: n(2),
                    materialized_bytes: n(0),
                    resident_bytes: n(1),
                },
                store: (i % 2 == 1).then(|| StoreCounters {
                    entries: n(0),
                    bytes: n(1),
                    hits: n(2),
                    misses: n(0),
                    writes: n(1),
                    corrupt_quarantined: n(2),
                    gc_evictions: n(0),
                }),
                one_pass: (i % 3 != 0).then(|| OnePassCounters {
                    refs: n(1),
                    grid_cells: n(2),
                }),
                router: (i >= 3).then(|| RouterCounters {
                    shards: n(0),
                    healthy: n(1),
                    forwarded: n(2),
                    hedged: n(0),
                    shard_overloads: n(1),
                    health_probes: n(2),
                    federated_shards: n(0),
                    stale_shards: n(1),
                }),
            }));
        }
        for i in 0..3 {
            let labels: Vec<(String, String)> = (0..i)
                .map(|j| (format!("label{j}"), pick(&TEXTS, i + j).to_string()))
                .collect();
            responses.push(Response::Metrics(RegistrySnapshot {
                counters: vec![CounterSnapshot {
                    name: pick(&TEXTS, i + 1).into(),
                    labels: labels.clone(),
                    value: pick(&U64S, i),
                }],
                gauges: vec![GaugeSnapshot {
                    name: "g".into(),
                    labels: labels.clone(),
                    value: pick(&RATIOS, i),
                }],
                histograms: vec![HistogramSnapshot {
                    name: "h".into(),
                    labels,
                    count: pick(&U64S, i + 1),
                    sum: pick(&RATIOS, i + 1),
                    overflow: pick(&U64S, i + 2),
                    p50: pick(&RATIOS, i + 2),
                    p95: pick(&RATIOS, i + 3),
                    p99: pick(&RATIOS, i + 4),
                    buckets: (0..i)
                        .map(|j| BucketSnapshot {
                            le: pick(&RATIOS, j + 1),
                            count: pick(&U64S, i + j),
                        })
                        .collect(),
                }],
            }));
        }
        responses
    }

    #[test]
    fn every_request_variant_round_trips() {
        request_round_trip(Request::Catalog);
        request_round_trip(Request::Stats);
        request_round_trip(Request::Metrics);
        request_round_trip(Request::Ping);
        request_round_trip(Request::Shutdown);
        request_round_trip(Request::Simulate(SimulateSpec {
            workload: "VCCOM".into(),
            len: 25_000,
            seed: Some(u64::MAX),
            cache: CacheSpec {
                size: 16 * 1024,
                line: 32,
                ways: Some(4),
                purge: Some(20_000),
            },
            policy: Some("plru".into()),
            deadline_ms: Some(1_500),
        }));
        request_round_trip(Request::Simulate(SimulateSpec {
            workload: "Z8000 - Assorted".into(),
            len: DEFAULT_TRACE_LEN,
            seed: None,
            cache: CacheSpec {
                size: 1024,
                line: DEFAULT_LINE_BYTES,
                ways: None,
                purge: None,
            },
            policy: None,
            deadline_ms: None,
        }));
        request_round_trip(Request::Sweep(SweepSpec {
            workload: "ZGREP".into(),
            len: 5_000,
            seed: Some(7),
            sizes: vec![256, 1024, 65_536],
            ways: Vec::new(),
            line: 16,
            policy: None,
            deadline_ms: Some(100),
        }));
        request_round_trip(Request::Sweep(SweepSpec {
            workload: "MVS1".into(),
            len: DEFAULT_TRACE_LEN,
            seed: None,
            sizes: Vec::new(),
            ways: Vec::new(),
            line: DEFAULT_LINE_BYTES,
            policy: None,
            deadline_ms: None,
        }));
        // A grid sweep: ways crossed with sizes.
        request_round_trip(Request::Sweep(SweepSpec {
            workload: "VCCOM".into(),
            len: 50_000,
            seed: None,
            sizes: vec![1024, 16_384],
            ways: vec![1, 2, 4, 8],
            line: 16,
            policy: Some("random:85".into()),
            deadline_ms: None,
        }));
        for request in generated_requests() {
            // "full" is the decode-only spelling of a fully associative
            // cache: the line carrying it reads as `ways: None`.
            if let Request::Simulate(spec) = &request {
                if spec.cache.ways.is_none() {
                    let line = request.encode().replacen(
                        "\"type\":\"simulate\",",
                        "\"type\":\"simulate\",\"ways\":\"full\",",
                        1,
                    );
                    assert_eq!(Request::decode(&line).unwrap(), request, "{line}");
                }
            }
            request_round_trip(request);
        }
    }

    #[test]
    fn every_response_variant_round_trips() {
        response_round_trip(Response::Pong);
        response_round_trip(Response::Ok);
        response_round_trip(Response::Simulate(SimulateResult {
            workload: "VCCOM".into(),
            len: 25_000,
            cache_bytes: 16 * 1024,
            refs: 25_000,
            misses: 1_234,
            miss_ratio: 0.049_36,
            instruction_miss_ratio: 1.0 / 3.0,
            data_miss_ratio: 2.5e-7,
            traffic_bytes: 197_440,
            queue_ms: 3,
            exec_ms: 12,
            trace_id: "4f3a2b1c9d8e7f60".into(),
        }));
        response_round_trip(Response::Sweep(SweepResult {
            workload: "ZGREP".into(),
            len: 5_000,
            points: vec![
                SweepPoint {
                    size: 256,
                    miss_ratio: 0.25,
                    ways: None,
                    traffic_ratio: None,
                    dirty_push_fraction: None,
                },
                SweepPoint {
                    size: 65_536,
                    miss_ratio: 0.001_953_125,
                    ways: None,
                    traffic_ratio: None,
                    dirty_push_fraction: None,
                },
                // A grid-sweep cell with the extended fields.
                SweepPoint {
                    size: 65_536,
                    miss_ratio: 0.001_220_703_125,
                    ways: Some(4),
                    traffic_ratio: Some(0.312_5),
                    dirty_push_fraction: Some(1.0 / 3.0),
                },
            ],
            queue_ms: 0,
            exec_ms: 4,
            trace_id: "00ff00ff00ff00ff".into(),
        }));
        response_round_trip(Response::Catalog(CatalogResult {
            profiles: vec![
                CatalogEntry {
                    name: "VCCOM".into(),
                    group: "VAX".into(),
                    arch: "VAX".into(),
                    language: "C".into(),
                    family: "cpu".into(),
                },
                CatalogEntry {
                    name: "S-KVSTORE".into(),
                    group: "Storage I/O".into(),
                    arch: "-".into(),
                    language: "-".into(),
                    family: "storage".into(),
                },
            ],
            mixes: vec!["Z8000 - Assorted".into()],
        }));
        response_round_trip(Response::Stats(StatsResult {
            simulate_requests: 10,
            sweep_requests: 2,
            catalog_requests: 1,
            stats_requests: 5,
            completed: 11,
            rejected_overload: 3,
            protocol_errors: 4,
            deadline_misses: 1,
            queue_depth: 2,
            queue_high_water: 9,
            workers: 4,
            busy_ms_simulate: 812,
            busy_ms_sweep: 44,
            pool: PoolCounters {
                entries: 6,
                hits: 9,
                misses: 6,
                materialized_bytes: 1 << 24,
                resident_bytes: 1 << 22,
            },
            store: None,
            one_pass: None,
            router: None,
        }));
        // And again with store counters attached (the `--store` shape).
        response_round_trip(Response::Stats(StatsResult {
            simulate_requests: 1,
            sweep_requests: 0,
            catalog_requests: 0,
            stats_requests: 1,
            completed: 1,
            rejected_overload: 0,
            protocol_errors: 0,
            deadline_misses: 0,
            queue_depth: 0,
            queue_high_water: 1,
            workers: 2,
            busy_ms_simulate: 5,
            busy_ms_sweep: 0,
            pool: PoolCounters {
                entries: 1,
                hits: 0,
                misses: 1,
                materialized_bytes: 4096,
                resident_bytes: 4096,
            },
            store: Some(StoreCounters {
                entries: 3,
                bytes: 123_456,
                hits: 7,
                misses: 2,
                writes: 3,
                corrupt_quarantined: 1,
                gc_evictions: 4,
            }),
            one_pass: Some(OnePassCounters {
                refs: 250_000,
                grid_cells: 54,
            }),
            router: Some(RouterCounters {
                shards: 3,
                healthy: 2,
                forwarded: 120,
                hedged: 4,
                shard_overloads: 7,
                health_probes: 90,
                federated_shards: 6,
                stale_shards: 1,
            }),
        }));
        for code in [
            ErrorCode::Overloaded,
            ErrorCode::BadRequest,
            ErrorCode::UnknownType,
            ErrorCode::UnknownWorkload,
            ErrorCode::DeadlineExceeded,
            ErrorCode::Oversized,
            ErrorCode::ShuttingDown,
            ErrorCode::Internal,
        ] {
            response_round_trip(Response::Error(ErrorBody::new(
                code,
                format!("detail for {code}"),
            )));
        }
        for response in generated_responses() {
            response_round_trip(response);
        }
    }

    #[test]
    fn metrics_response_round_trips() {
        response_round_trip(Response::Metrics(RegistrySnapshot::default()));
        response_round_trip(Response::Metrics(RegistrySnapshot {
            counters: vec![CounterSnapshot {
                name: "pool_hits_total".into(),
                labels: Vec::new(),
                value: 42,
            }],
            gauges: vec![GaugeSnapshot {
                name: "serve_queue_depth".into(),
                labels: Vec::new(),
                value: 3.0,
            }],
            histograms: vec![HistogramSnapshot {
                name: "sweep_job_ms".into(),
                labels: Vec::new(),
                count: 7,
                sum: 123.5,
                overflow: 1,
                p50: 4.0,
                p95: 16.0,
                p99: 64.0,
                buckets: vec![
                    BucketSnapshot { le: 0.25, count: 2 },
                    BucketSnapshot { le: 1.0, count: 4 },
                ],
            }],
        }));
    }

    #[test]
    fn labeled_metrics_round_trip_and_pre_label_payloads_decode() {
        let labels = vec![("shard".to_string(), "127.0.0.1:4090".to_string())];
        response_round_trip(Response::Metrics(RegistrySnapshot {
            counters: vec![CounterSnapshot {
                name: "router_forwarded_total".into(),
                labels: labels.clone(),
                value: 9,
            }],
            gauges: vec![GaugeSnapshot {
                name: "router_shard_up".into(),
                labels: labels.clone(),
                value: 1.0,
            }],
            histograms: vec![HistogramSnapshot {
                name: "request_ms".into(),
                labels,
                count: 1,
                sum: 0.5,
                overflow: 0,
                p50: 1.0,
                p95: 1.0,
                p99: 1.0,
                buckets: vec![BucketSnapshot { le: 1.0, count: 1 }],
            }],
        }));
        // A pre-label server's payload (no "labels" keys) decodes to
        // empty label sets, and an unlabeled series encodes without the
        // key at all.
        let line = "{\"type\":\"metrics_result\",\
                    \"counters\":[{\"name\":\"c\",\"value\":1}],\
                    \"gauges\":[],\"histograms\":[]}";
        match Response::decode(line).unwrap() {
            Response::Metrics(snapshot) => {
                assert_eq!(snapshot.counters[0].labels, Vec::new());
            }
            other => panic!("wrong variant: {other:?}"),
        }
        let unlabeled = Response::Metrics(RegistrySnapshot {
            counters: vec![CounterSnapshot {
                name: "c".into(),
                labels: Vec::new(),
                value: 1,
            }],
            gauges: Vec::new(),
            histograms: Vec::new(),
        });
        assert!(!unlabeled.encode().contains("labels"));
    }

    #[test]
    fn parent_span_rides_the_envelope_and_filters_junk() {
        let line = Request::Ping.encode_with_envelope(&TraceEnvelope {
            trace_id: Some("4f3a2b1c9d8e7f60".into()),
            parent_span: Some(17),
        });
        let (request, envelope) = Request::decode_with_envelope(&line).unwrap();
        assert_eq!(request, Request::Ping);
        assert_eq!(envelope.trace_id.as_deref(), Some("4f3a2b1c9d8e7f60"));
        assert_eq!(envelope.parent_span, Some(17));
        // No trace id → the parent is meaningless and dropped.
        let (_, envelope) =
            Request::decode_with_envelope("{\"type\":\"ping\",\"parent_span\":17}").unwrap();
        assert_eq!(envelope, TraceEnvelope::default());
        // Zero and non-numeric parents are ignored, never fatal.
        for junk in ["0", "\"seventeen\"", "-3", "{}"] {
            let line = format!(
                "{{\"type\":\"ping\",\"trace_id\":\"abc\",\"parent_span\":{junk}}}"
            );
            let (request, envelope) = Request::decode_with_envelope(&line).unwrap();
            assert_eq!(request, Request::Ping);
            assert_eq!(envelope.trace_id.as_deref(), Some("abc"));
            assert_eq!(envelope.parent_span, None, "parent {junk} must be ignored");
        }
        // A parent without a trace id is never encoded.
        let line = Request::Ping.encode_with_envelope(&TraceEnvelope {
            trace_id: None,
            parent_span: Some(17),
        });
        assert!(!line.contains("parent_span"));
        // v-less clients are untouched: plain encode has neither field.
        assert!(!Request::Ping.encode().contains("trace_id"));
    }

    #[test]
    fn version_envelope_is_optional_but_checked() {
        // Every encoded request carries the envelope.
        assert!(Request::Ping.encode().starts_with("{\"v\":1,"));
        // A v-less request (pre-versioning client) still decodes.
        assert_eq!(Request::decode("{\"type\":\"ping\"}").unwrap(), Request::Ping);
        // The current version decodes.
        assert_eq!(
            Request::decode("{\"v\":1,\"type\":\"ping\"}").unwrap(),
            Request::Ping
        );
        // A future version is a typed bad_request, not a parse panic.
        let future = Request::decode("{\"v\":2,\"type\":\"ping\"}").unwrap_err();
        assert_eq!(future.code, ErrorCode::BadRequest);
        assert!(future.message.contains("protocol version"), "{future}");
        let junk = Request::decode("{\"v\":\"one\",\"type\":\"ping\"}").unwrap_err();
        assert_eq!(junk.code, ErrorCode::BadRequest);
    }

    #[test]
    fn unknown_request_fields_are_ignored() {
        let parsed = Request::decode(
            "{\"type\":\"simulate\",\"workload\":\"VCCOM\",\"size\":1024,\"future_knob\":true}",
        )
        .unwrap();
        match parsed {
            Request::Simulate(spec) => {
                assert_eq!(spec.workload, "VCCOM");
                assert_eq!(spec.cache.size, 1024);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        assert_eq!(
            Request::decode("{\"type\":\"stats\",\"extra\":[1,2,3]}").unwrap(),
            Request::Stats
        );
    }

    #[test]
    fn request_trace_envelope_round_trips_and_filters_junk() {
        let request = Request::Simulate(SimulateSpec {
            workload: "VCCOM".into(),
            len: 1_000,
            seed: None,
            cache: CacheSpec {
                size: 4_096,
                line: 16,
                ways: None,
                purge: None,
            },
            policy: None,
            deadline_ms: None,
        });
        let line = request.encode_with_envelope(&TraceEnvelope {
            trace_id: Some("4f3a2b1c9d8e7f60".into()),
            parent_span: None,
        });
        let (decoded, envelope) = Request::decode_with_envelope(&line).unwrap();
        assert_eq!(decoded, request);
        assert_eq!(envelope.trace_id.as_deref(), Some("4f3a2b1c9d8e7f60"));
        // Plain encode carries no trace and decodes to None.
        let (_, envelope) = Request::decode_with_envelope(&request.encode()).unwrap();
        assert_eq!(envelope.trace_id, None);
        // Hostile ids (too long, non-alphanumeric) are dropped, not fatal.
        let long = "a".repeat(65);
        for bad in [long.as_str(), "abc def", "x\"y", ""] {
            let line = format!(
                "{{\"type\":\"ping\",\"trace_id\":{}}}",
                crate::json::s(bad)
            );
            let (request, envelope) = Request::decode_with_envelope(&line).unwrap();
            assert_eq!(request, Request::Ping);
            assert_eq!(envelope.trace_id, None, "id {bad:?} must be ignored");
        }
    }

    #[test]
    fn result_without_trace_id_still_decodes() {
        // A pre-tracing server's result line carries no trace_id key.
        let line = "{\"type\":\"simulate_result\",\"workload\":\"W\",\"len\":1,\
                    \"cache_bytes\":1,\"refs\":1,\"misses\":0,\"miss_ratio\":0,\
                    \"instruction_miss_ratio\":0,\"data_miss_ratio\":0,\
                    \"traffic_bytes\":0,\"queue_ms\":0,\"exec_ms\":0}";
        match Response::decode(line).unwrap() {
            Response::Simulate(r) => assert_eq!(r.trace_id, ""),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn miss_ratios_survive_the_wire_bit_identically() {
        let ratio = 1.0f64 / 7.0;
        let encoded = Response::Simulate(SimulateResult {
            workload: "W".into(),
            len: 1,
            cache_bytes: 1,
            refs: 1,
            misses: 1,
            miss_ratio: ratio,
            instruction_miss_ratio: ratio / 3.0,
            data_miss_ratio: ratio / 5.0,
            traffic_bytes: 0,
            queue_ms: 0,
            exec_ms: 0,
            trace_id: String::new(),
        })
        .encode();
        match Response::decode(&encoded).unwrap() {
            Response::Simulate(r) => {
                assert_eq!(r.miss_ratio.to_bits(), ratio.to_bits());
                assert_eq!(r.instruction_miss_ratio.to_bits(), (ratio / 3.0).to_bits());
                assert_eq!(r.data_miss_ratio.to_bits(), (ratio / 5.0).to_bits());
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn decode_rejects_malformed_requests_with_typed_errors() {
        let bad = Request::decode("{\"type\":\"simulate\"").unwrap_err();
        assert_eq!(bad.code, ErrorCode::BadRequest);
        let unknown = Request::decode("{\"type\":\"frobnicate\"}").unwrap_err();
        assert_eq!(unknown.code, ErrorCode::UnknownType);
        let no_type = Request::decode("{\"workload\":\"VCCOM\"}").unwrap_err();
        assert_eq!(no_type.code, ErrorCode::BadRequest);
        let no_size = Request::decode("{\"type\":\"simulate\",\"workload\":\"VCCOM\"}")
            .unwrap_err();
        assert_eq!(no_size.code, ErrorCode::BadRequest);
        assert!(no_size.message.contains("size"), "{no_size}");
        let not_object = Request::decode("[1,2,3]").unwrap_err();
        assert_eq!(not_object.code, ErrorCode::BadRequest);
        let bad_ways =
            Request::decode("{\"type\":\"simulate\",\"workload\":\"W\",\"size\":64,\"ways\":\"half\"}")
                .unwrap_err();
        assert_eq!(bad_ways.code, ErrorCode::BadRequest);
    }

    #[test]
    fn policy_and_family_are_optional_in_both_directions() {
        // A pre-policy client's simulate line decodes to policy: None.
        let parsed = Request::decode(
            "{\"type\":\"simulate\",\"workload\":\"VCCOM\",\"size\":1024}",
        )
        .unwrap();
        match parsed {
            Request::Simulate(spec) => assert_eq!(spec.policy, None),
            other => panic!("wrong variant: {other:?}"),
        }
        // A policy-carrying line round-trips the exact spelling.
        let parsed = Request::decode(
            "{\"type\":\"sweep\",\"workload\":\"S-SCAN\",\"policy\":\"fifo\"}",
        )
        .unwrap();
        match parsed {
            Request::Sweep(spec) => assert_eq!(spec.policy.as_deref(), Some("fifo")),
            other => panic!("wrong variant: {other:?}"),
        }
        // A non-string policy is a typed error, not a panic.
        let bad = Request::decode(
            "{\"type\":\"simulate\",\"workload\":\"W\",\"size\":64,\"policy\":7}",
        )
        .unwrap_err();
        assert_eq!(bad.code, ErrorCode::BadRequest);
        // A pre-family server's catalog entry defaults to the CPU family.
        let line = "{\"type\":\"catalog_result\",\"profiles\":[{\"name\":\"VCCOM\",                    \"group\":\"VAX\",\"arch\":\"VAX\",\"language\":\"C\"}],\"mixes\":[]}";
        match Response::decode(line).unwrap() {
            Response::Catalog(r) => assert_eq!(r.profiles[0].family, "cpu"),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn ways_accepts_the_full_spelling() {
        let parsed = Request::decode(
            "{\"type\":\"simulate\",\"workload\":\"W\",\"size\":1024,\"ways\":\"full\"}",
        )
        .unwrap();
        match parsed {
            Request::Simulate(spec) => assert_eq!(spec.cache.ways, None),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    /// splitmix64: the seeded stream behind the byte mutations.
    fn next_u64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// `line` with one seeded edit: a byte replaced, deleted or
    /// inserted, or a span repeated. Bytes that stop being UTF-8 become
    /// U+FFFD, since the decoders take `&str`.
    fn mutated(line: &str, state: &mut u64) -> String {
        const BYTES: &[u8] = b"\"\\{}[]:,-+.0123456789eEtfnu \x00\x7f\xff";
        let mut bytes = line.as_bytes().to_vec();
        let at = next_u64(state) as usize % (bytes.len() + 1);
        let byte = match next_u64(state) % 2 {
            0 => BYTES[next_u64(state) as usize % BYTES.len()],
            _ => next_u64(state) as u8,
        };
        match next_u64(state) % 4 {
            0 if at < bytes.len() => bytes[at] = byte,
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            2 => {
                let end = (at + 1 + next_u64(state) as usize % 16).min(bytes.len());
                let span = bytes[at..end].to_vec();
                bytes.splice(at..at, span);
            }
            _ => bytes.insert(at, byte),
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// Garbage-input pin for both decoders: every char-boundary prefix
    /// of every generated message's line, and 64 seeded edits of each,
    /// decode to a value or a typed error without panicking.
    #[test]
    fn decoders_never_panic_on_prefixes_or_mutated_lines() {
        const MUTATIONS_PER_LINE: usize = 64;
        let envelope = TraceEnvelope {
            trace_id: Some("4f3a2b1c9d8e7f60".into()),
            parent_span: Some(u64::MAX),
        };
        let mut lines: Vec<String> = generated_requests()
            .iter()
            .flat_map(|r| [r.encode(), r.encode_with_envelope(&envelope)])
            .collect();
        lines.extend(generated_responses().iter().map(Response::encode));
        let mut inputs = 0;
        let mut decode = |input: &str| {
            let _ = Request::decode_with_envelope(input);
            let _ = Response::decode(input);
            inputs += 1;
        };
        let mut state = 0x5eed_u64;
        for line in &lines {
            for (at, _) in line.char_indices() {
                decode(&line[..at]);
            }
            decode(line);
            for _ in 0..MUTATIONS_PER_LINE {
                decode(&mutated(line, &mut state));
            }
        }
        assert!(inputs > 10_000, "only {inputs} inputs");
    }
}
