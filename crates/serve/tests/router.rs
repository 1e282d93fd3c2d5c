//! End-to-end acceptance tests for the shard router.
//!
//! Pinned guarantees: a routed answer is bit-identical to asking a
//! backend directly (the router forwards, it never recomputes or
//! rewrites); stats expose the shard counters; a supplied trace id
//! survives the extra hop; and when a backend dies mid-run every
//! outstanding request resolves to a typed error or a hedged success —
//! never a hang.

use smith85_serve::{
    CacheSpec, Client, ClientError, ErrorCode, Request, Response, RouterOptions, ServeOptions,
    Server, SimulateSpec,
};
use std::time::{Duration, Instant};

fn spawn_backend() -> smith85_serve::RunningServer {
    Server::spawn(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        ..ServeOptions::default()
    })
    .expect("spawn backend")
}

fn spawn_router(backends: Vec<String>, probe_interval_ms: u64) -> smith85_serve::RunningServer {
    Server::spawn(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        router: Some(RouterOptions {
            backends,
            probe_interval_ms,
            ..RouterOptions::default()
        }),
        ..ServeOptions::default()
    })
    .expect("spawn router")
}

fn simulate_request(workload: &str, len: usize, size: usize) -> Request {
    Request::Simulate(SimulateSpec {
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
    })
}

/// A response with per-execution noise (queue/exec timing, trace id)
/// zeroed out, so two executions of the same deterministic request can
/// be compared byte for byte.
fn normalized(response: &Response) -> String {
    let mut response = response.clone();
    match &mut response {
        Response::Simulate(r) => {
            r.queue_ms = 0;
            r.exec_ms = 0;
            r.trace_id = String::new();
        }
        Response::Sweep(r) => {
            r.queue_ms = 0;
            r.exec_ms = 0;
            r.trace_id = String::new();
        }
        _ => {}
    }
    response.encode()
}

fn stats(client: &mut Client) -> smith85_serve::StatsResult {
    match client.call(&Request::Stats).expect("stats") {
        Response::Stats(s) => s,
        other => panic!("expected stats, got {}", other.encode()),
    }
}

#[test]
fn routed_answers_are_bit_identical_to_direct_backend_calls() {
    let backend_a = spawn_backend();
    let backend_b = spawn_backend();
    let router = spawn_router(
        vec![backend_a.addr().to_string(), backend_b.addr().to_string()],
        500,
    );

    let mut via_router = Client::builder()
        .addr(router.addr().to_string())
        .connect()
        .expect("connect router");
    let mut direct = Client::builder()
        .addr(backend_a.addr().to_string())
        .connect()
        .expect("connect backend");

    let workloads = ["MVS1", "VCCOM", "ZGREP", "TWOD"];
    for (i, workload) in workloads.iter().enumerate() {
        let request = simulate_request(workload, 2_000 + 500 * i, 4_096);
        let routed = via_router.call(&request).expect("routed call");
        let straight = direct.call(&request).expect("direct call");
        assert_eq!(
            normalized(&routed),
            normalized(&straight),
            "routed {workload} answer must be bit-identical to a direct call"
        );
    }

    let s = stats(&mut via_router);
    let counters = s.router.expect("router node must report shard counters");
    assert_eq!(counters.shards, 2);
    assert_eq!(counters.healthy, 2, "both backends are up");
    assert_eq!(
        counters.forwarded,
        workloads.len() as u64,
        "every simulate must have been forwarded, none answered locally"
    );
    assert_eq!(counters.shard_overloads, 0);

    // Control-plane requests are answered by the router itself and match
    // what any backend would say.
    let routed_catalog = via_router.call(&Request::Catalog).expect("catalog");
    let direct_catalog = direct.call(&Request::Catalog).expect("catalog");
    assert_eq!(routed_catalog.encode(), direct_catalog.encode());

    router.stop().unwrap();
    backend_a.stop().unwrap();
    backend_b.stop().unwrap();
}

#[test]
fn trace_ids_survive_the_router_hop() {
    let backend = spawn_backend();
    let router = spawn_router(vec![backend.addr().to_string()], 500);

    let mut client = Client::builder()
        .addr(router.addr().to_string())
        .trace_id("hop2hop77")
        .connect()
        .expect("connect");
    match client
        .call(&simulate_request("VCCOM", 2_000, 4_096))
        .expect("routed call")
    {
        Response::Simulate(r) => assert_eq!(
            r.trace_id, "hop2hop77",
            "the backend must echo the client's trace id through the router"
        ),
        other => panic!("expected simulate result, got {}", other.encode()),
    }

    router.stop().unwrap();
    backend.stop().unwrap();
}

fn fetch_metrics(client: &mut Client) -> smith85_obs::RegistrySnapshot {
    match client.call(&Request::Metrics).expect("metrics") {
        Response::Metrics(snapshot) => snapshot,
        other => panic!("expected metrics, got {}", other.encode()),
    }
}

fn stale_flag(snapshot: &smith85_obs::RegistrySnapshot, shard: &str) -> Option<f64> {
    snapshot
        .gauges
        .iter()
        .find(|g| {
            g.name == "router_shard_stale"
                && g.labels
                    .iter()
                    .any(|(k, v)| k == "shard" && v == shard)
        })
        .map(|g| g.value)
}

#[test]
fn federated_metrics_sum_shards_exactly_and_mark_dead_shards_stale() {
    let backend_a = spawn_backend();
    let backend_b = spawn_backend();
    let addr_a = backend_a.addr().to_string();
    let addr_b = backend_b.addr().to_string();
    let router = Server::spawn(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        metrics_addr: Some("127.0.0.1:0".to_string()),
        router: Some(RouterOptions {
            backends: vec![addr_a.clone(), addr_b.clone()],
            probe_interval_ms: 100,
            ..RouterOptions::default()
        }),
        ..ServeOptions::default()
    })
    .expect("spawn router");

    // Spread work across both shards, then quiesce: pool counters only
    // move on simulate traffic, so they are stable across the scrapes
    // below (health probes are pings and do not touch them).
    let mut via_router = Client::builder()
        .addr(router.addr().to_string())
        .connect()
        .expect("connect router");
    for (i, workload) in ["MVS1", "VCCOM", "ZGREP", "TWOD", "WATEX", "PL0"].iter().enumerate() {
        via_router
            .call(&simulate_request(workload, 1_500 + 100 * i, 4_096))
            .expect("routed call");
    }

    let mut direct_a = Client::builder().addr(addr_a.clone()).connect().expect("connect a");
    let mut direct_b = Client::builder().addr(addr_b.clone()).connect().expect("connect b");
    let snap_a = fetch_metrics(&mut direct_a);
    let snap_b = fetch_metrics(&mut direct_b);
    let federated = fetch_metrics(&mut via_router);

    // The unlabeled aggregate equals the exact sum of the per-shard
    // answers (the router itself runs no simulations), and the same
    // series reappear under shard labels.
    for name in ["pool_misses_total", "pool_materialized_bytes_total"] {
        let direct_sum = snap_a.counter_value(name, &[]) + snap_b.counter_value(name, &[]);
        assert!(direct_sum > 0, "{name} must have moved on the shards");
        assert_eq!(
            federated.counter_value(name, &[]),
            direct_sum,
            "aggregate {name} must be the exact shard sum"
        );
        assert_eq!(
            federated.counter_value(name, &[("shard", addr_a.as_str())])
                + federated.counter_value(name, &[("shard", addr_b.as_str())]),
            direct_sum,
            "shard-labeled {name} series must add up to the same total"
        );
    }
    // Histograms federate bucket-wise: the aggregate count is the exact
    // sum of the shard counts plus the router's own contribution (its
    // worker pool observes serve_exec_ms once per forwarded job).
    let hist_count = |snap: &smith85_obs::RegistrySnapshot, labeled: bool| -> u64 {
        snap.histograms
            .iter()
            .filter(|h| h.name == "serve_exec_ms" && h.labels.is_empty() != labeled)
            .map(|h| h.count)
            .sum()
    };
    let direct_hist = hist_count(&snap_a, false) + hist_count(&snap_b, false);
    let forwarded = stats(&mut via_router)
        .router
        .expect("router counters")
        .forwarded;
    assert_eq!(
        hist_count(&federated, false),
        direct_hist + forwarded,
        "aggregate serve_exec_ms count must be shards + router's own forwards"
    );
    assert_eq!(
        hist_count(&federated, true),
        direct_hist,
        "shard-labeled serve_exec_ms counts must match the direct answers"
    );
    assert_eq!(stale_flag(&federated, &addr_a), Some(0.0));
    assert_eq!(stale_flag(&federated, &addr_b), Some(0.0));

    // The router's Prometheus endpoint serves the same federated view:
    // shard-labeled series present, every line exposition-parseable.
    let metrics_addr = router.metrics_addr().expect("metrics endpoint bound");
    let body = scrape(metrics_addr);
    assert!(
        body.contains("shard=\""),
        "federated exposition must carry shard labels:\n{body}"
    );
    for line in body.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (_, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("bad line {line:?}"));
        assert!(value.parse::<f64>().is_ok(), "unparseable value in {line:?}");
    }

    // Kill shard B. Once the prober notices, a scrape still succeeds:
    // B contributes only a stale marker, A keeps reporting, and the
    // aggregate no longer includes the dead shard's fresh values.
    backend_b.stop().expect("stop backend b");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let s = stats(&mut via_router);
        if s.router.as_ref().expect("router counters").healthy == 1 {
            break;
        }
        assert!(Instant::now() < deadline, "prober never marked the dead shard down");
        std::thread::sleep(Duration::from_millis(50));
    }
    let after = fetch_metrics(&mut via_router);
    assert_eq!(stale_flag(&after, &addr_b), Some(1.0), "dead shard must read stale");
    assert_eq!(stale_flag(&after, &addr_a), Some(0.0), "live shard stays fresh");
    assert_eq!(
        after.counter_value("pool_misses_total", &[]),
        snap_a.counter_value("pool_misses_total", &[]),
        "aggregate must now be the live shard alone"
    );
    assert_eq!(
        after.counter_value("pool_misses_total", &[("shard", addr_b.as_str())]),
        0,
        "no fresh labeled series for a stale shard"
    );
    let s = stats(&mut via_router);
    let counters = s.router.expect("router counters");
    assert!(counters.federated_shards >= 3, "live-shard absorptions counted");
    assert!(counters.stale_shards >= 1, "stale shard counted");

    // `stats` reads the router's own registry, not the federated view
    // (the router simulates nothing). Each router row equals its series
    // in the router's metrics reply; the prober keeps counting and the
    // reply federates once more, so stats replies taken just before and
    // just after bracket each series.
    assert_eq!((s.pool.misses, s.pool.materialized_bytes), (0, 0));
    let lo = stats(&mut via_router).router.expect("router counters");
    let view = fetch_metrics(&mut via_router);
    let hi = stats(&mut via_router).router.expect("router counters");
    for (name, lo, hi) in [
        ("forwarded", lo.forwarded, hi.forwarded),
        ("hedged", lo.hedged, hi.hedged),
        ("shard_overloads", lo.shard_overloads, hi.shard_overloads),
        ("health_probes", lo.health_probes, hi.health_probes),
        ("federated_shards", lo.federated_shards, hi.federated_shards),
        ("stale_shards", lo.stale_shards, hi.stale_shards),
    ] {
        let value = view.counter_value(&format!("router_{name}_total"), &[]);
        assert!(lo <= value && value <= hi, "router.{name}: {lo} <= {value} <= {hi}");
    }
    assert_eq!((hi.forwarded, hi.hedged, hi.shard_overloads), (6, 0, 0));
    assert!(hi.health_probes >= 2, "a probe round pings both shards");
    assert_eq!(hi.federated_shards - lo.federated_shards, 1, "the reply federated A");
    assert_eq!(hi.stale_shards - lo.stale_shards, 1, "and marked B stale");
    let up = view.gauges.iter().filter(|g| g.name == "router_shard_up");
    let (shards, healthy) = up.fold((0, 0.0), |(n, sum), g| (n + 1, sum + g.value));
    assert_eq!((hi.shards, hi.healthy), (2, 1));
    assert_eq!((shards, healthy as u64), (hi.shards, hi.healthy), "count and sum shard_up");

    router.stop().unwrap();
    backend_a.stop().unwrap();
}

fn scrape(addr: std::net::SocketAddr) -> String {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).expect("scrape connect");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: loopback\r\n\r\n")
        .expect("scrape request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("scrape response");
    assert!(raw.starts_with("HTTP/1.1 200 OK\r\n"), "{raw}");
    raw.split("\r\n\r\n").nth(1).expect("response body").to_string()
}

#[test]
fn hedged_request_renders_as_one_merged_span_tree_across_journals() {
    use smith85_tracelog::report;

    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let router_journal = dir.join(format!("smith85-router-journal-{pid}.ndjson"));
    let shard_journals = ["a", "b"]
        .map(|shard| dir.join(format!("smith85-shard-{shard}-journal-{pid}.ndjson")));
    for path in shard_journals.iter().chain([&router_journal]) {
        let _ = std::fs::remove_file(path);
    }

    // Both shards journal: whichever one the ring makes primary for the
    // request below is killed, and the other one's journal is merged.
    let mut backends: Vec<_> = shard_journals
        .iter()
        .map(|journal| {
            Server::spawn(ServeOptions {
                addr: "127.0.0.1:0".to_string(),
                journal: Some(journal.clone()),
                ..ServeOptions::default()
            })
            .expect("spawn backend")
        })
        .collect();
    let router = Server::spawn(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        journal: Some(router_journal.clone()),
        router: Some(RouterOptions {
            backends: backends.iter().map(|b| b.addr().to_string()).collect(),
            // Long probe period: the hedge below, not the prober,
            // must be what discovers the killed shard.
            probe_interval_ms: 60_000,
            ..RouterOptions::default()
        }),
        ..ServeOptions::default()
    })
    .expect("spawn router");
    let router_addr = router.addr().to_string();

    // Send one key with both shards up and see which one executed it
    // (its exec count moves) — then kill that shard and replay the same
    // key: the forward to it is refused, the router hedges to the
    // survivor, and both hop spans are journaled.
    let exec_counts = |backends: &[smith85_serve::RunningServer]| -> Vec<u64> {
        backends
            .iter()
            .map(|backend| {
                let mut client = Client::builder()
                    .addr(backend.addr().to_string())
                    .connect()
                    .expect("connect backend");
                fetch_metrics(&mut client)
                    .histograms
                    .iter()
                    .find(|h| h.name == "serve_exec_ms")
                    .map(|h| h.count)
                    .unwrap_or(0)
            })
            .collect()
    };
    let request = simulate_request("VCCOM", 1_500, 4_096);
    let before = exec_counts(&backends);
    let mut client = Client::builder()
        .addr(router_addr.as_str())
        .timeout(Duration::from_secs(30))
        .connect()
        .expect("connect");
    match client.call(&request) {
        Ok(Response::Simulate(_)) => {}
        other => panic!("routed call must succeed, got {other:?}"),
    }
    drop(client);
    let after = exec_counts(&backends);
    let primary = (0..backends.len())
        .find(|&i| after[i] > before[i])
        .expect("one shard must have executed the routed request");
    backends.remove(primary).stop().expect("stop primary shard");
    let survivor = backends.pop().expect("surviving shard");
    let survivor_journal = &shard_journals[1 - primary];

    let hedged_trace = "hedgedhop1".to_string();
    let mut client = Client::builder()
        .addr(router_addr.as_str())
        .trace_id(hedged_trace.clone())
        .timeout(Duration::from_secs(30))
        .connect()
        .expect("connect");
    match client.call(&request) {
        Ok(Response::Simulate(_)) => {}
        other => panic!("hedged replay must succeed on the survivor, got {other:?}"),
    }
    assert!(
        stats(&mut client).router.expect("router counters").hedged >= 1,
        "the replayed key must have hedged off the killed shard"
    );

    router.stop().unwrap();
    survivor.stop().unwrap();

    // Merge the router's and the survivor's process-local journals: the
    // hedged request must be ONE tree — router root, hedge hops as
    // siblings, and the shard's subtree hanging under the hop that
    // reached it.
    let (_, router_events) = report::read_journal(&router_journal).expect("router journal");
    let (_, shard_events) = report::read_journal(survivor_journal).expect("shard journal");
    let merged = report::merge_journals(&[router_events, shard_events]);
    let trees = report::build_trees(&merged);
    let tree = trees
        .iter()
        .find(|t| t.trace_id == hedged_trace)
        .expect("tree for the hedged trace");
    assert_eq!(tree.roots.len(), 1, "exactly one linked root: {tree:?}");
    let root = &tree.roots[0];
    assert_eq!(root.name, "router_request");
    let hops: Vec<_> = root
        .children
        .iter()
        .filter(|c| c.name == "router_forward")
        .collect();
    assert_eq!(hops.len(), 2, "failed attempt and hedge are sibling hops: {root:?}");
    let winners: Vec<_> = hops
        .iter()
        .filter(|h| h.children.iter().any(|c| c.name == "request"))
        .collect();
    assert_eq!(winners.len(), 1, "exactly one hop reached the shard: {hops:?}");
    let shard_root = winners[0]
        .children
        .iter()
        .find(|c| c.name == "request")
        .expect("shard request span");
    assert!(
        shard_root.children.iter().any(|c| c.name == "simulate_workload"),
        "shard-side kernel span must nest under the merged tree: {shard_root:?}"
    );

    for path in shard_journals.iter().chain([&router_journal]) {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn killed_backend_means_typed_errors_or_hedged_success_never_a_hang() {
    let backend_a = spawn_backend();
    let backend_b = spawn_backend();
    let router = spawn_router(
        vec![backend_a.addr().to_string(), backend_b.addr().to_string()],
        100,
    );
    let router_addr = router.addr().to_string();

    // Warm the ring with both backends alive.
    let mut client = Client::builder()
        .addr(router_addr.as_str())
        .timeout(Duration::from_secs(30))
        .connect()
        .expect("connect");
    client
        .call(&simulate_request("VCCOM", 2_000, 4_096))
        .expect("warm-up call");

    // Kill one backend mid-run: its listener closes, in-flight work is
    // torn down, future connects are refused.
    backend_b.stop().expect("stop backend b");

    // Every request issued from now on must resolve quickly: either a
    // hedged/direct success on the surviving shard or a typed error.
    let mut successes = 0u32;
    let mut typed_errors = 0u32;
    let workloads = ["MVS1", "FCOMP1", "VCCOM", "VSPICE", "ZGREP", "TWOD", "WATEX", "PL0"];
    for (i, workload) in workloads.iter().enumerate() {
        let started = Instant::now();
        let mut client = Client::builder()
            .addr(router_addr.as_str())
            .timeout(Duration::from_secs(30))
            .connect()
            .expect("connect");
        match client.call(&simulate_request(workload, 1_500 + 100 * i, 8_192)) {
            Ok(Response::Simulate(_)) => successes += 1,
            Ok(other) => panic!("unexpected success payload: {}", other.encode()),
            Err(ClientError::Server(body)) => {
                assert!(
                    matches!(body.code, ErrorCode::Overloaded | ErrorCode::Internal),
                    "degradation must be a typed transient error, got {:?}: {}",
                    body.code,
                    body.message
                );
                typed_errors += 1;
            }
            Err(other) => panic!("request must not fail untyped: {other}"),
        }
        assert!(
            started.elapsed() < Duration::from_secs(25),
            "request {i} must not hang (took {:?})",
            started.elapsed()
        );
    }
    assert_eq!(successes + typed_errors, workloads.len() as u32);
    assert!(
        successes > 0,
        "hedging to the surviving shard must rescue at least some requests"
    );

    // Once the prober has marked the dead shard down, everything lands
    // on the survivor and succeeds outright.
    std::thread::sleep(Duration::from_millis(400));
    let mut client = Client::builder()
        .addr(router_addr.as_str())
        .timeout(Duration::from_secs(30))
        .connect()
        .expect("connect");
    for workload in &workloads {
        match client.call(&simulate_request(workload, 1_200, 4_096)) {
            Ok(Response::Simulate(_)) => {}
            other => panic!("steady-state after failover must succeed, got {other:?}"),
        }
    }
    let s = stats(&mut client);
    let counters = s.router.expect("router counters");
    assert_eq!(counters.healthy, 1, "the dead shard must be marked down");
    assert!(counters.health_probes > 0, "the prober must be running");

    router.stop().unwrap();
    backend_a.stop().unwrap();
}
