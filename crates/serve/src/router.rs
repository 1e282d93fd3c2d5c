//! Shard router: consistent-hash request fan-out across backend nodes.
//!
//! A router is a `smith85-serve` node whose workers forward instead of
//! simulate: `(workload, seed, config)` keys hash onto a ring of
//! virtual nodes, so every distinct request shape lands on a stable
//! backend — the backend's trace pool and result store see the same
//! keys every time, which is what makes sharding pay off (locality), and
//! adding a shard only remaps `1/n` of the key space.
//!
//! Resilience:
//!
//! * a health prober pings every shard on an interval and flips its
//!   up/down flag (published as `router_shard_up{shard="<addr>"}`
//!   gauges — one metric family, one labeled series per shard);
//! * per-shard in-flight budgets propagate back-pressure as typed
//!   `overloaded` errors instead of letting one hot shard absorb an
//!   unbounded backlog;
//! * a refused or failed forward marks the shard down and **hedges** to
//!   the next shard on the ring, so a killed backend degrades to
//!   slightly-colder caches, never to hung clients;
//! * the router's admission trace id — and the forward span's id as the
//!   envelope's `parent_span` — are forwarded with every request, so
//!   one id attributes the request in the router journal *and* the
//!   chosen backend's journal, and a multi-journal `trace report`
//!   stitches the shard's `request` span under the router's hop span;
//! * the router's `metrics` answer and `/metrics` exposition federate
//!   every healthy shard's snapshot (counters summed, histograms merged
//!   bucket-wise, per-shard series labeled `shard="<addr>"`); a down
//!   shard is marked stale (`router_shard_stale{shard=...} 1`) instead
//!   of blocking the scrape.

use crate::protocol::{ErrorBody, ErrorCode, Request, Response, TraceEnvelope, MAX_LINE_BYTES};
use crate::transport::Transport;
use smith85_obs::{Counter, Gauge, GaugeSnapshot, Registry, RegistrySnapshot};
use smith85_tracelog::{self as tracelog, FieldValue};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Router-mode configuration (see [`crate::ServeOptions`]).
#[derive(Debug, Clone)]
pub struct RouterOptions {
    /// Backend `smith85-serve` TCP addresses, one per shard.
    pub backends: Vec<String>,
    /// Virtual nodes per shard on the hash ring. More replicas smooth
    /// the key distribution at the cost of a larger ring.
    pub replicas: usize,
    /// Health-probe period.
    pub probe_interval_ms: u64,
    /// Per-shard in-flight forward budget; beyond it requests get a
    /// typed `overloaded` (back-pressure, deliberately not spilled onto
    /// other shards — spilling would defeat the budget).
    pub shard_inflight: usize,
}

/// Backend TCP connect timeout, for forwards, probes and metrics
/// fetches; probes and metrics fetches also wait this long for a reply.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);
/// Upper bound waiting for a backend's reply line to a forward.
const REPLY_TIMEOUT: Duration = Duration::from_secs(600);

impl Default for RouterOptions {
    fn default() -> Self {
        RouterOptions {
            backends: Vec::new(),
            replicas: 64,
            probe_interval_ms: 500,
            shard_inflight: 32,
        }
    }
}

/// One backend on the ring.
pub(crate) struct Shard {
    pub(crate) addr: String,
    /// Optimistically up at start; the prober and failed forwards flip
    /// it, the prober flips it back.
    up: AtomicBool,
    inflight: AtomicUsize,
    /// `router_shard_up{shard=addr}`, resolved once.
    up_gauge: Arc<Gauge>,
    /// `router_shard_inflight{shard=addr}`, resolved once.
    inflight_gauge: Arc<Gauge>,
}

/// Shared router state: the ring, per-shard state, and the router's
/// counters. Every counter lives in the node's registry (the `stats`
/// reply reads them there); the handles are resolved once at
/// construction, so forwarding takes no registry lock and builds no
/// metric key.
pub(crate) struct RouterState {
    shards: Vec<Arc<Shard>>,
    /// `(hash, shard index)` sorted by hash — the consistent-hash ring.
    ring: Vec<(u64, usize)>,
    opts: RouterOptions,
    registry: Registry,
    /// `router_forwarded_total`.
    forwarded: Arc<Counter>,
    /// `router_hedged_total`.
    hedged: Arc<Counter>,
    /// `router_shard_overloads_total`.
    shard_overloads: Arc<Counter>,
    /// `router_health_probes_total`.
    health_probes: Arc<Counter>,
    /// `router_federated_shards_total`.
    federated_shards: Arc<Counter>,
    /// `router_stale_shards_total`.
    stale_shards: Arc<Counter>,
}

/// 64-bit FNV-1a over a byte stream; the same cheap stable hash the
/// retry jitter seeds use.
fn fnv64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The routing key of a request: every field that identifies the work
/// (mirroring the store's result keys), so identical requests always
/// hit the same shard and its warm pool/store.
fn route_key(request: &Request) -> String {
    match request {
        Request::Simulate(spec) => format!(
            "sim|{}|{:?}|{}|{}|{:?}|{:?}|{:?}|{}",
            spec.workload,
            spec.seed,
            spec.cache.size,
            spec.cache.line,
            spec.cache.ways,
            spec.cache.purge,
            spec.policy,
            spec.len,
        ),
        Request::Sweep(spec) => format!(
            "sweep|{}|{:?}|{:?}|{:?}|{}|{:?}|{}",
            spec.workload, spec.seed, spec.sizes, spec.ways, spec.line, spec.policy, spec.len,
        ),
        // Shard-agnostic requests (catalog is identical everywhere).
        other => format!("{other:?}"),
    }
}

/// What one forward actually did, for stats and the router span.
#[derive(Debug)]
pub(crate) struct ForwardOutcome {
    pub(crate) response: Response,
    pub(crate) shard: String,
    pub(crate) hedges: u64,
}

impl RouterState {
    pub(crate) fn new(opts: RouterOptions, registry: Registry) -> RouterState {
        // The gauges are set at once so a scrape before the first probe
        // still lists every shard (optimistically up). One family with a
        // `shard` label per backend, never per-index metric names.
        let shards: Vec<Arc<Shard>> = opts
            .backends
            .iter()
            .map(|addr| {
                let up_gauge = registry.gauge_with("router_shard_up", &[("shard", addr)]);
                up_gauge.set(1.0);
                let inflight_gauge =
                    registry.gauge_with("router_shard_inflight", &[("shard", addr)]);
                inflight_gauge.set(0.0);
                Arc::new(Shard {
                    addr: addr.clone(),
                    up: AtomicBool::new(true),
                    inflight: AtomicUsize::new(0),
                    up_gauge,
                    inflight_gauge,
                })
            })
            .collect();
        let mut ring: Vec<(u64, usize)> = Vec::with_capacity(shards.len() * opts.replicas);
        for (index, shard) in shards.iter().enumerate() {
            for replica in 0..opts.replicas {
                let vnode = format!("{}#{replica}", shard.addr);
                ring.push((fnv64(vnode.bytes()), index));
            }
        }
        ring.sort_unstable();
        RouterState {
            shards,
            ring,
            opts,
            forwarded: registry.counter("router_forwarded_total"),
            hedged: registry.counter("router_hedged_total"),
            shard_overloads: registry.counter("router_shard_overloads_total"),
            health_probes: registry.counter("router_health_probes_total"),
            federated_shards: registry.counter("router_federated_shards_total"),
            stale_shards: registry.counter("router_stale_shards_total"),
            registry,
        }
    }

    pub(crate) fn probe_interval(&self) -> Duration {
        Duration::from_millis(self.opts.probe_interval_ms.max(10))
    }

    /// Shard candidates for `key`, primary first, then the ring order a
    /// hedge walks: the next *distinct* shards clockwise from the
    /// key's position.
    fn candidates(&self, key_hash: u64) -> Vec<usize> {
        let start = self
            .ring
            .partition_point(|&(hash, _)| hash < key_hash)
            .checked_rem(self.ring.len())
            .unwrap_or(0);
        let mut order = Vec::with_capacity(self.shards.len());
        for offset in 0..self.ring.len() {
            let (_, shard) = self.ring[(start + offset) % self.ring.len()];
            if !order.contains(&shard) {
                order.push(shard);
                if order.len() == self.shards.len() {
                    break;
                }
            }
        }
        order
    }

    fn mark(&self, index: usize, up: bool) {
        let shard = &self.shards[index];
        shard.up.store(up, Ordering::Relaxed);
        shard.up_gauge.set(if up { 1.0 } else { 0.0 });
    }

    /// One health-probe round: ping every shard, flip flags and gauges.
    pub(crate) fn probe_round(&self) {
        for (index, shard) in self.shards.iter().enumerate() {
            self.health_probes.inc();
            let was_up = shard.up.load(Ordering::Relaxed);
            let up = probe_shard(&shard.addr);
            if up != was_up {
                self.mark(index, up);
                eprintln!(
                    "smith85-serve: router shard {} ({}) marked {}",
                    index,
                    shard.addr,
                    if up { "up" } else { "down" }
                );
            } else {
                self.mark(index, up);
            }
        }
    }

    /// Routes and forwards one request, hedging along the ring on
    /// connection failures. Returns the backend's response verbatim, or
    /// a typed error when the budget rejects or every shard fails.
    pub(crate) fn forward(
        &self,
        request: &Request,
        trace_id: &str,
    ) -> Result<ForwardOutcome, ErrorBody> {
        let key_hash = fnv64(route_key(request).bytes());
        let candidates = self.candidates(key_hash);
        let mut hedges = 0u64;
        let mut last_failure: Option<String> = None;
        for (rank, &index) in candidates.iter().enumerate() {
            let shard = &self.shards[index];
            if !shard.up.load(Ordering::Relaxed) {
                // Known-down shards are skipped without burning a
                // connect timeout; the prober will resurrect them.
                continue;
            }
            // Per-shard budget: admission control at the router tier.
            let inflight = shard.inflight.fetch_add(1, Ordering::AcqRel);
            shard.inflight_gauge.set((inflight + 1) as f64);
            if inflight >= self.opts.shard_inflight {
                shard.inflight.fetch_sub(1, Ordering::AcqRel);
                self.shard_overloads.inc();
                return Err(ErrorBody::new(
                    ErrorCode::Overloaded,
                    format!(
                        "shard {} ({}) is at its in-flight budget ({}); retry later",
                        index, shard.addr, self.opts.shard_inflight
                    ),
                ));
            }
            let result = forward_once(&shard.addr, request, trace_id);
            shard.inflight.fetch_sub(1, Ordering::AcqRel);
            shard
                .inflight_gauge
                .set(shard.inflight.load(Ordering::Relaxed) as f64);
            match result {
                Ok(response) => {
                    self.forwarded.inc();
                    if rank > 0 || hedges > 0 {
                        self.hedged.inc();
                    }
                    return Ok(ForwardOutcome {
                        response,
                        shard: shard.addr.clone(),
                        hedges,
                    });
                }
                Err(err) => {
                    // Simulation requests are pure and idempotent, so
                    // any I/O failure — refused, reset mid-reply, timed
                    // out — is safe to hedge to the next shard.
                    self.mark(index, false);
                    hedges += 1;
                    last_failure = Some(format!("shard {} ({}): {err}", index, shard.addr));
                }
            }
        }
        Err(ErrorBody::new(
            ErrorCode::Overloaded,
            match last_failure {
                Some(failure) => format!("no backend shard reachable (last: {failure})"),
                None => "no backend shard is healthy; retry later".to_string(),
            },
        ))
    }

    /// The fleet-wide metrics view: the router's own registry plus every
    /// healthy shard's snapshot. Counters and histograms fold into the
    /// unlabeled aggregate series (exact sums / bucket-wise merges, so a
    /// scrape of the router equals the sum of its parts); each shard's
    /// snapshot is also appended verbatim under a `shard="<addr>"`
    /// label. A down or unreachable shard contributes only
    /// `router_shard_stale{shard=...} 1` — the scrape never blocks on a
    /// dead backend (known-down shards are skipped without a connect,
    /// and live fetches are bounded by the connect timeout).
    pub(crate) fn federated_snapshot(&self) -> RegistrySnapshot {
        let mut federated = self.registry.snapshot();
        for shard in &self.shards {
            let snapshot = if shard.up.load(Ordering::Relaxed) {
                fetch_shard_metrics(&shard.addr).ok()
            } else {
                None
            };
            let stale = GaugeSnapshot {
                name: "router_shard_stale".to_string(),
                labels: vec![("shard".to_string(), shard.addr.clone())],
                value: if snapshot.is_some() { 0.0 } else { 1.0 },
            };
            match snapshot {
                Some(snapshot) => {
                    self.federated_shards.inc();
                    federated.absorb_totals(&snapshot);
                    let mut labeled = snapshot.with_label("shard", &shard.addr);
                    labeled.gauges.push(stale);
                    federated.append(labeled);
                }
                None => {
                    self.stale_shards.inc();
                    federated.append(RegistrySnapshot {
                        gauges: vec![stale],
                        ..RegistrySnapshot::default()
                    });
                }
            }
        }
        federated
    }
}

/// TCP connect bounded by [`CONNECT_TIMEOUT`] (std's plain `connect`
/// has no timeout).
fn connect_timed(addr: &str) -> io::Result<TcpStream> {
    let mut last = None;
    for resolved in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&resolved, CONNECT_TIMEOUT) {
            Ok(stream) => {
                stream.set_nodelay(true).ok();
                return Ok(stream);
            }
            Err(err) => last = Some(err),
        }
    }
    Err(last.unwrap_or_else(|| {
        io::Error::new(io::ErrorKind::AddrNotAvailable, "address resolved to nothing")
    }))
}

/// One liveness probe: connect + `ping`, each bounded by
/// [`CONNECT_TIMEOUT`].
fn probe_shard(addr: &str) -> bool {
    let Ok(stream) = connect_timed(addr) else {
        return false;
    };
    let _ = stream.set_read_timeout(Some(CONNECT_TIMEOUT));
    let mut stream = stream;
    if stream.write_all(b"{\"type\":\"ping\"}\n").is_err() {
        return false;
    }
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    matches!(reader.read_line(&mut line), Ok(n) if n > 0)
        && matches!(Response::decode(line.trim_end()), Ok(Response::Pong))
}

/// One bounded metrics fetch against one shard: connect + `metrics`,
/// decode the snapshot. Any failure (connect, timeout, bad payload)
/// just reports the shard stale for this scrape. A scrape must stay
/// fast even when a shard is sick, so the reply wait is the (short)
/// [`CONNECT_TIMEOUT`], not the (long) forward [`REPLY_TIMEOUT`].
fn fetch_shard_metrics(addr: &str) -> io::Result<RegistrySnapshot> {
    let mut stream = connect_timed(addr)?;
    stream.set_read_timeout(Some(CONNECT_TIMEOUT))?;
    let mut line = Request::Metrics.encode();
    line.push('\n');
    stream.write_all(line.as_bytes())?;
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    if reader.read_line(&mut reply)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "shard closed the connection before answering metrics",
        ));
    }
    match Response::decode(reply.trim_end()) {
        Ok(Response::Metrics(snapshot)) => Ok(snapshot),
        Ok(other) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("shard answered metrics with {other:?}"),
        )),
        Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e)),
    }
}

/// One forward attempt against one backend: fresh connection, request
/// with the forwarded trace id and the hop span's id as `parent_span`
/// (so the shard roots its `request` span under this hop in a merged
/// report; hedged retries each open their own hop span and therefore
/// land as siblings), one reply line.
fn forward_once(addr: &str, request: &Request, trace_id: &str) -> io::Result<Response> {
    let span = {
        let ctx = tracelog::current();
        ctx.enabled().then(|| {
            ctx.child(
                "router_forward",
                vec![("shard".to_string(), FieldValue::from(addr))],
            )
        })
    };
    let parent_span = span.as_ref().map(|s| s.ctx().span_id()).filter(|&id| id != 0);
    let stream = connect_timed(addr)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    let mut writer: Box<dyn Transport> = Box::new(stream);
    let mut line = request.encode_with_envelope(&TraceEnvelope {
        trace_id: Some(trace_id.to_string()),
        parent_span,
    });
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()?;
    let mut reader = BufReader::new(writer.try_clone_transport()?);
    let mut reply = String::new();
    let cap = MAX_LINE_BYTES * 8;
    loop {
        let before = reply.len();
        let n = reader
            .by_ref()
            .take((cap - before) as u64)
            .read_line(&mut reply)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "backend closed the connection mid-reply",
            ));
        }
        if reply.ends_with('\n') {
            break;
        }
        if reply.len() >= cap {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "backend reply exceeds the router line cap",
            ));
        }
    }
    Response::decode(reply.trim_end())
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{CacheSpec, SimulateSpec};

    fn options(backends: &[&str]) -> RouterOptions {
        RouterOptions {
            backends: backends.iter().map(|s| s.to_string()).collect(),
            ..RouterOptions::default()
        }
    }

    fn state(backends: &[&str]) -> RouterState {
        RouterState::new(options(backends), Registry::new())
    }

    fn simulate(workload: &str, size: usize) -> Request {
        Request::Simulate(SimulateSpec {
            workload: workload.to_string(),
            len: 10_000,
            seed: None,
            cache: CacheSpec {
                size,
                line: 16,
                ways: None,
                purge: None,
            },
            policy: None,
            deadline_ms: None,
        })
    }

    #[test]
    fn identical_requests_route_to_the_same_shard() {
        let state = state(&["10.0.0.1:1", "10.0.0.2:1", "10.0.0.3:1"]);
        let request = simulate("VCCOM", 4_096);
        let first = state.candidates(fnv64(route_key(&request).bytes()));
        for _ in 0..10 {
            let again = state.candidates(fnv64(route_key(&request).bytes()));
            assert_eq!(first, again, "routing must be deterministic");
        }
        assert_eq!(first.len(), 3, "every shard appears once in hedge order");
    }

    #[test]
    fn distinct_keys_spread_across_shards() {
        let state = state(&["10.0.0.1:1", "10.0.0.2:1", "10.0.0.3:1", "10.0.0.4:1"]);
        let mut hits = vec![0usize; 4];
        for size_log in 8..16 {
            for (i, workload) in ["VCCOM", "ZGREP", "PL0", "MUL8", "S-KVSTORE"].iter().enumerate() {
                let request = simulate(workload, (1usize << size_log) + i);
                let primary = state.candidates(fnv64(route_key(&request).bytes()))[0];
                hits[primary] += 1;
            }
        }
        let populated = hits.iter().filter(|&&n| n > 0).count();
        assert!(
            populated >= 3,
            "40 distinct keys must not pile onto fewer than 3 of 4 shards: {hits:?}"
        );
    }

    #[test]
    fn config_and_seed_are_part_of_the_key() {
        let base = simulate("VCCOM", 4_096);
        let bigger = simulate("VCCOM", 65_536);
        assert_ne!(route_key(&base), route_key(&bigger));
        let mut seeded = base.clone();
        if let Request::Simulate(spec) = &mut seeded {
            spec.seed = Some(7);
        }
        assert_ne!(route_key(&base), route_key(&seeded));
    }

    #[test]
    fn down_shards_are_skipped_and_no_healthy_is_typed() {
        let state = state(&["127.0.0.1:1"]); // port 1: nothing listens
        state.mark(0, false);
        let err = state
            .forward(&simulate("VCCOM", 4_096), "0123456789abcdef")
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::Overloaded, "{err}");
        assert!(err.message.contains("healthy"), "{err}");
    }

    #[test]
    fn budget_exhaustion_is_a_typed_overloaded() {
        let mut opts = options(&["127.0.0.1:1"]);
        opts.shard_inflight = 0;
        // shard_inflight = 0 is rejected by ServeOptions validation, but
        // the router itself must still behave: every forward is over
        // budget by definition.
        let state = RouterState::new(opts, Registry::new());
        let err = state
            .forward(&simulate("VCCOM", 4_096), "0123456789abcdef")
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::Overloaded, "{err}");
        assert!(err.message.contains("budget"), "{err}");
        let snapshot = state.registry.snapshot();
        assert_eq!(
            snapshot.counter_value("router_shard_overloads_total", &[]),
            1
        );
    }

    #[test]
    fn unreachable_shard_fails_over_to_the_next() {
        // Two shards, neither listening: the forward must try both,
        // mark both down, and return a typed error naming the failure.
        let state = state(&["127.0.0.1:1", "127.0.0.1:2"]);
        let err = state
            .forward(&simulate("VCCOM", 4_096), "0123456789abcdef")
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::Overloaded, "{err}");
        let snapshot = state.registry.snapshot();
        let up = snapshot
            .gauges
            .iter()
            .filter(|g| g.name == "router_shard_up");
        assert!(
            up.map(|g| g.value).eq([0.0, 0.0]),
            "both shards must be marked down"
        );
    }
}
