//! End-to-end tests against a real server on a loopback socket.
//!
//! These cover the acceptance criteria of the serving subsystem: served
//! results are bit-identical to direct library runs even under
//! concurrency, a full queue produces a typed `overloaded` rejection
//! (never a hang), malformed input gets typed errors without killing any
//! worker, and shutdown drains admitted work.

use smith85_cachesim::{CacheConfig, Simulator, UnifiedCache};
use smith85_serve::{
    CacheSpec, Client, ClientError, ErrorCode, Request, Response, ServeOptions, Server,
    SimulateSpec,
};
use smith85_synth::catalog;
use std::time::{Duration, Instant};

fn spawn_default() -> smith85_serve::RunningServer {
    Server::spawn(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        ..ServeOptions::default()
    })
    .expect("spawn server")
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

/// Miss ratio of a direct in-process library run, for comparison.
fn direct_miss_ratio(workload: &str, len: usize, size: usize) -> f64 {
    let profile = catalog::by_name(workload).expect("catalog name").profile().clone();
    let trace = profile.generate(len);
    let config = CacheConfig::builder(size).line_size(16).build().unwrap();
    let mut cache = UnifiedCache::new(config).unwrap();
    cache.run_slice(&trace.as_slice()[..len]);
    cache.stats().miss_ratio()
}

fn fetch_stats(addr: &str) -> smith85_serve::StatsResult {
    let mut client = Client::builder().addr(addr).connect().expect("stats client");
    match client.call(&Request::Stats).expect("stats call") {
        Response::Stats(stats) => stats,
        other => panic!("expected stats, got {other:?}"),
    }
}

#[test]
fn eight_concurrent_clients_get_bit_identical_results() {
    let server = spawn_default();
    let addr = server.addr().to_string();
    const LEN: usize = 20_000;
    let sizes = [1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14, 1 << 15, 1 << 16, 1 << 17];

    let served: Vec<(usize, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = sizes
            .iter()
            .map(|&size| {
                let addr = &addr;
                scope.spawn(move || {
                    let mut client = Client::builder().addr(addr).connect().expect("connect");
                    match client
                        .call(&simulate_request("VCCOM", LEN, size))
                        .expect("call")
                    {
                        Response::Simulate(r) => {
                            assert_eq!(r.refs, LEN as u64);
                            (size, r.miss_ratio)
                        }
                        other => panic!("expected simulate result, got {other:?}"),
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (size, served_ratio) in served {
        let direct = direct_miss_ratio("VCCOM", LEN, size);
        assert_eq!(
            served_ratio.to_bits(),
            direct.to_bits(),
            "size {size}: served {served_ratio} != direct {direct}"
        );
    }

    // All eight requests shared one workload: exactly one materialization.
    let stats = fetch_stats(&addr);
    assert_eq!(stats.pool.misses, 1, "concurrent requests must dedupe");
    assert_eq!(stats.pool.hits, 7);
    assert_eq!(stats.completed, 8);

    let final_stats = server.stop().expect("clean shutdown");
    assert_eq!(final_stats.simulate_requests, 8);
}

#[test]
fn full_queue_rejects_with_typed_overloaded_not_a_hang() {
    // One worker and a queue bound of one: a slow executing job plus one
    // queued job leaves no room for a third.
    let server = Server::spawn(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_capacity: 1,
        ..ServeOptions::default()
    })
    .expect("spawn server");
    let addr = server.addr().to_string();

    // Maximum-length jobs keep the single worker busy for seconds, so
    // the queue-full window is wide enough to probe reliably.
    let slow = simulate_request("VCCOM", 2_000_000, 1 << 14);
    let queued = simulate_request("VCCOM", 2_000_000, 1 << 15);

    std::thread::scope(|scope| {
        let slow_handle = {
            let addr = addr.clone();
            scope.spawn(move || {
                let mut client = Client::builder().addr(&addr).connect().expect("connect");
                client.call(&slow).expect("slow job")
            })
        };
        // Wait until the worker has picked the slow job up (admitted and
        // no longer queued).
        wait_until(|| {
            let s = fetch_stats(&addr);
            s.simulate_requests >= 1 && s.queue_depth == 0
        });

        let queued_handle = {
            let addr = addr.clone();
            scope.spawn(move || {
                let mut client = Client::builder().addr(&addr).connect().expect("connect");
                client.call(&queued).expect("queued job")
            })
        };
        wait_until(|| fetch_stats(&addr).queue_depth == 1);

        // Queue full: this must come back immediately and typed.
        let mut client = Client::builder().addr(&addr).connect().expect("connect");
        let start = Instant::now();
        match client.call(&simulate_request("VCCOM", 1_000, 1 << 12)) {
            Err(ClientError::Server(e)) => {
                assert_eq!(e.code, ErrorCode::Overloaded, "{e:?}");
            }
            other => panic!("expected overloaded error, got {other:?}"),
        }
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "rejection must not wait for the queue to drain"
        );

        // The admitted jobs still complete normally.
        assert!(matches!(slow_handle.join().unwrap(), Response::Simulate(_)));
        assert!(matches!(queued_handle.join().unwrap(), Response::Simulate(_)));
    });

    let stats = server.stop().expect("clean shutdown");
    assert_eq!(stats.rejected_overload, 1);
    assert_eq!(stats.queue_high_water, 1);
    assert_eq!(stats.completed, 2);
}

#[test]
fn malformed_input_gets_typed_errors_and_workers_survive() {
    let server = spawn_default();
    let addr = server.addr().to_string();

    // Truncated JSON.
    let mut client = Client::builder().addr(&addr).connect().expect("connect");
    match client.send_raw_line("{\"type\": \"sim").expect("answer") {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::BadRequest, "{e:?}"),
        other => panic!("expected bad_request, got {other:?}"),
    }

    // Unknown request type.
    match client
        .send_raw_line("{\"type\": \"frobnicate\"}")
        .expect("answer")
    {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::UnknownType, "{e:?}"),
        other => panic!("expected unknown_type, got {other:?}"),
    }

    // Not JSON at all.
    match client.send_raw_line("hello there").expect("answer") {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::BadRequest, "{e:?}"),
        other => panic!("expected bad_request, got {other:?}"),
    }

    // A structurally valid request with a bad payload type.
    match client
        .send_raw_line("{\"type\": \"simulate\", \"workload\": 7}")
        .expect("answer")
    {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::BadRequest, "{e:?}"),
        other => panic!("expected bad_request, got {other:?}"),
    }

    // Oversized line: typed error, then the server closes that
    // connection (the remainder of the line cannot be skipped safely).
    let huge = "x".repeat(smith85_serve::protocol::MAX_LINE_BYTES + 1024);
    match client.send_raw_line(&huge).expect("answer") {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::Oversized, "{e:?}"),
        other => panic!("expected oversized, got {other:?}"),
    }

    // A fresh connection still gets real work done: nothing died.
    let mut client = Client::builder().addr(&addr).connect().expect("reconnect");
    assert!(matches!(
        client.call(&Request::Ping).expect("ping"),
        Response::Pong
    ));
    match client
        .call(&simulate_request("ZGREP", 2_000, 1 << 12))
        .expect("simulate after abuse")
    {
        Response::Simulate(r) => assert!(r.miss_ratio > 0.0),
        other => panic!("expected simulate result, got {other:?}"),
    }

    let stats = server.stop().expect("clean shutdown");
    assert!(stats.protocol_errors >= 5, "{stats:?}");
    assert_eq!(stats.completed, 1);
}

#[test]
fn shutdown_request_drains_and_stops_admitting() {
    let server = spawn_default();
    let addr = server.addr().to_string();

    let mut client = Client::builder().addr(&addr).connect().expect("connect");
    match client
        .call(&simulate_request("PL0", 5_000, 1 << 12))
        .expect("job before shutdown")
    {
        Response::Simulate(_) => {}
        other => panic!("expected simulate result, got {other:?}"),
    }
    assert!(matches!(
        client.call(&Request::Shutdown).expect("shutdown"),
        Response::Ok
    ));

    // Late submissions are refused with a typed shutting_down error (the
    // connection may also already be closed, which is equally fine).
    match client.call(&simulate_request("PL0", 5_000, 1 << 13)) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::ShuttingDown, "{e:?}"),
        Err(ClientError::Io(_)) => {}
        other => panic!("expected shutting_down or a closed connection, got {other:?}"),
    }

    let stats = server.stop().expect("clean shutdown");
    assert_eq!(stats.completed, 1);
}

#[cfg(unix)]
#[test]
fn unix_socket_round_trip() {
    let path = std::env::temp_dir().join(format!("smith85-serve-{}.sock", std::process::id()));
    let server = Server::spawn(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        unix_path: Some(path.clone()),
        ..ServeOptions::default()
    })
    .expect("spawn server with unix socket");

    let mut client = Client::builder().unix(&path).connect().expect("unix connect");
    assert!(matches!(
        client.call(&Request::Ping).expect("ping"),
        Response::Pong
    ));
    match client
        .call(&simulate_request("VCCOM", 2_000, 1 << 12))
        .expect("simulate over unix socket")
    {
        Response::Simulate(r) => {
            let direct = direct_miss_ratio("VCCOM", 2_000, 1 << 12);
            assert_eq!(r.miss_ratio.to_bits(), direct.to_bits());
        }
        other => panic!("expected simulate result, got {other:?}"),
    }

    server.stop().expect("clean shutdown");
    assert!(!path.exists(), "socket file must be cleaned up");
}

#[test]
fn metrics_request_parses_and_counters_are_monotonic() {
    let server = spawn_default();
    let addr = server.addr().to_string();
    let mut client = Client::builder().addr(&addr).connect().expect("connect");

    let fetch_metrics = |client: &mut Client| match client.call(&Request::Metrics).expect("metrics")
    {
        Response::Metrics(snapshot) => snapshot,
        other => panic!("expected metrics_result, got {other:?}"),
    };

    assert!(matches!(
        client.call(&simulate_request("VCCOM", 3_000, 1 << 12)).expect("job"),
        Response::Simulate(_)
    ));
    let first = fetch_metrics(&mut client);
    let counter = |snapshot: &smith85_serve::RegistrySnapshot, name: &str| {
        snapshot
            .counters
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("counter {name} missing"))
            .value
    };
    assert_eq!(counter(&first, "cachesim_refs_total"), 3_000);
    assert_eq!(counter(&first, "pool_misses_total"), 1);
    assert!(
        first.histograms.iter().any(|h| h.name == "serve_exec_ms" && h.count == 1),
        "serve_exec_ms must record the job: {first:?}"
    );

    assert!(matches!(
        client.call(&simulate_request("VCCOM", 3_000, 1 << 13)).expect("job"),
        Response::Simulate(_)
    ));
    let second = fetch_metrics(&mut client);
    for c in &first.counters {
        assert!(
            counter(&second, &c.name) >= c.value,
            "counter {} went backwards: {} -> {}",
            c.name,
            c.value,
            counter(&second, &c.name)
        );
    }
    assert_eq!(counter(&second, "cachesim_refs_total"), 6_000);
    assert_eq!(counter(&second, "pool_hits_total"), 1, "same workload pools");

    server.stop().expect("clean shutdown");
}

#[test]
fn v_less_client_round_trips_bit_identically() {
    // A pre-versioning client sends no "v" envelope at all; the served
    // result must still be bit-identical to a direct library run.
    let server = spawn_default();
    let mut client = Client::builder().addr(server.addr().to_string()).connect().expect("connect");
    let raw = "{\"type\":\"simulate\",\"workload\":\"VCCOM\",\"len\":2000,\"size\":4096,\"line\":16}";
    match client.send_raw_line(raw).expect("answer") {
        Response::Simulate(r) => {
            let direct = direct_miss_ratio("VCCOM", 2_000, 4_096);
            assert_eq!(r.miss_ratio.to_bits(), direct.to_bits());
        }
        other => panic!("expected simulate result, got {other:?}"),
    }
    // And an explicit future version is refused without killing the
    // connection.
    match client
        .send_raw_line("{\"v\":99,\"type\":\"ping\"}")
        .expect("answer")
    {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::BadRequest, "{e:?}"),
        other => panic!("expected bad_request, got {other:?}"),
    }
    server.stop().expect("clean shutdown");
}

#[test]
fn prometheus_endpoint_serves_valid_exposition() {
    use std::io::{Read as _, Write as _};

    let server = Server::spawn(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServeOptions::default()
    })
    .expect("spawn server with metrics endpoint");
    let metrics_addr = server.metrics_addr().expect("metrics endpoint bound");

    let mut client = Client::builder().addr(server.addr().to_string()).connect().expect("connect");
    assert!(matches!(
        client.call(&simulate_request("ZGREP", 2_000, 1 << 12)).expect("job"),
        Response::Simulate(_)
    ));

    let mut stream = std::net::TcpStream::connect(metrics_addr).expect("scrape connect");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: loopback\r\n\r\n")
        .expect("scrape request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("scrape response");
    assert!(raw.starts_with("HTTP/1.1 200 OK\r\n"), "{raw}");
    let body = raw.split("\r\n\r\n").nth(1).expect("response body");

    // Every non-comment line must be `name{labels} value` with a
    // parseable float value — the exposition-format contract.
    for line in body.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("bad line {line:?}"));
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable value in line {line:?}"
        );
        assert!(
            series.starts_with("smith85_"),
            "unprefixed series in line {line:?}"
        );
    }
    for family in [
        "smith85_serve_queue_depth",
        "smith85_pool_hits_total",
        "smith85_pool_misses_total",
        "smith85_pool_materialized_bytes_total",
        "smith85_serve_exec_ms",
        "smith85_cachesim_refs_per_sec",
    ] {
        assert!(body.contains(family), "missing family {family} in:\n{body}");
    }
    assert!(
        body.contains("le=\"+Inf\""),
        "histograms must end with a +Inf bucket:\n{body}"
    );

    server.stop().expect("clean shutdown");
}

/// Concurrent scrapes while jobs run: every scrape must return a
/// complete, parseable exposition — no torn lines, no 5xx, no hang —
/// because each scrape renders one atomic registry snapshot.
#[test]
fn concurrent_prometheus_scrapes_stay_consistent_under_load() {
    use std::io::{Read as _, Write as _};

    let server = Server::spawn(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServeOptions::default()
    })
    .expect("spawn server with metrics endpoint");
    let addr = server.addr().to_string();
    let metrics_addr = server.metrics_addr().expect("metrics endpoint bound");

    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let load = {
        let addr = addr.clone();
        let stop = std::sync::Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut client = Client::builder().addr(addr).connect().expect("load client");
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                client
                    .call(&simulate_request("ZGREP", 1_000, 1 << 12))
                    .expect("load job");
            }
        })
    };

    let scrapers: Vec<_> = (0..8)
        .map(|thread| {
            std::thread::spawn(move || {
                for round in 0..5 {
                    let mut stream =
                        std::net::TcpStream::connect(metrics_addr).expect("scrape connect");
                    stream
                        .write_all(b"GET /metrics HTTP/1.1\r\nHost: loopback\r\n\r\n")
                        .expect("scrape request");
                    let mut raw = String::new();
                    stream.read_to_string(&mut raw).expect("scrape response");
                    assert!(
                        raw.starts_with("HTTP/1.1 200 OK\r\n"),
                        "scraper {thread} round {round}: {raw}"
                    );
                    let body = raw.split("\r\n\r\n").nth(1).expect("response body");
                    let mut lines = 0usize;
                    for line in body.lines() {
                        if line.is_empty() || line.starts_with('#') {
                            continue;
                        }
                        let (_, value) = line
                            .rsplit_once(' ')
                            .unwrap_or_else(|| panic!("torn line {line:?}"));
                        assert!(
                            value.parse::<f64>().is_ok(),
                            "scraper {thread} round {round}: unparseable {line:?}"
                        );
                        lines += 1;
                    }
                    assert!(lines > 0, "scraper {thread} round {round}: empty body");
                }
            })
        })
        .collect();
    for scraper in scrapers {
        scraper.join().expect("scraper thread");
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    load.join().expect("load thread");
    server.stop().expect("clean shutdown");
}

fn spawn_with_metrics() -> smith85_serve::RunningServer {
    Server::spawn(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServeOptions::default()
    })
    .expect("spawn server with metrics endpoint")
}

/// One scrape: sends `request`, reads until the server closes.
fn scrape(addr: std::net::SocketAddr, request: &[u8]) -> String {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).expect("scrape connect");
    stream.write_all(request).expect("scrape request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("scrape response");
    raw
}

/// A scraper that connects and sends nothing is one more idle
/// connection: it must not hold up the next scrape.
#[test]
fn stalled_scraper_does_not_delay_the_next_scrape() {
    let server = spawn_with_metrics();
    let metrics_addr = server.metrics_addr().expect("metrics endpoint bound");
    let _stalled = std::net::TcpStream::connect(metrics_addr).expect("stalled connect");

    let start = Instant::now();
    let raw = scrape(
        metrics_addr,
        b"GET /metrics HTTP/1.1\r\nHost: loopback\r\n\r\n",
    );
    let elapsed = start.elapsed();
    assert!(raw.starts_with("HTTP/1.1 200 OK\r\n"), "{raw}");
    assert!(
        elapsed < Duration::from_secs(1),
        "a scrape behind a silent scraper took {elapsed:?}"
    );
    server.stop().expect("clean shutdown");
}

#[test]
fn non_get_scrape_gets_405_then_eof() {
    let server = spawn_with_metrics();
    let metrics_addr = server.metrics_addr().expect("metrics endpoint bound");
    // `scrape` reads to EOF, so returning at all means the server closed.
    let raw = scrape(
        metrics_addr,
        b"POST /metrics HTTP/1.1\r\nHost: loopback\r\nContent-Length: 0\r\n\r\n",
    );
    assert!(
        raw.starts_with("HTTP/1.1 405 Method Not Allowed\r\n"),
        "{raw}"
    );
    assert!(raw.ends_with("only answers GET\n"), "{raw}");
    server.stop().expect("clean shutdown");
}

/// The request head is buffered until its blank line: a head written in
/// two pieces gets exactly one answer, after the second piece.
#[test]
fn scrape_head_split_across_writes_gets_one_answer() {
    use std::io::{Read as _, Write as _};

    let server = spawn_with_metrics();
    let metrics_addr = server.metrics_addr().expect("metrics endpoint bound");
    let mut stream = std::net::TcpStream::connect(metrics_addr).expect("scrape connect");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\n")
        .expect("first piece");
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .expect("read timeout");
    let mut byte = [0u8; 1];
    let early = stream.read(&mut byte);
    assert!(
        matches!(&early, Err(e) if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)),
        "answered before the head was complete: {early:?}"
    );

    stream
        .write_all(b"Host: loopback\r\n\r\n")
        .expect("second piece");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("scrape response");
    assert!(raw.starts_with("HTTP/1.1 200 OK\r\n"), "{raw}");
    assert_eq!(raw.matches("HTTP/1.1 ").count(), 1, "{raw}");
    server.stop().expect("clean shutdown");
}

#[test]
fn journaled_request_is_attributable_end_to_end() {
    use smith85_tracelog::report;

    let journal_path =
        std::env::temp_dir().join(format!("smith85-loopback-journal-{}.ndjson", std::process::id()));
    let _ = std::fs::remove_file(&journal_path);
    let server = Server::spawn(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        journal: Some(journal_path.clone()),
        ..ServeOptions::default()
    })
    .expect("spawn server with journal");

    let mut client = Client::builder().addr(server.addr().to_string()).connect().expect("connect");
    let trace_id = match client
        .call(&simulate_request("VCCOM", 20_000, 1 << 13))
        .expect("journaled job")
    {
        Response::Simulate(r) => r.trace_id,
        other => panic!("expected simulate result, got {other:?}"),
    };
    assert_eq!(trace_id.len(), 16, "trace id must be 16 hex chars: {trace_id:?}");
    assert!(trace_id.chars().all(|c| c.is_ascii_hexdigit()), "{trace_id:?}");
    server.stop().expect("clean shutdown");

    // The same trace id the client saw must attribute the request span,
    // the access-log event, and the pool materialization in the journal.
    let (header, events) = report::read_journal(&journal_path).expect("read journal");
    let header = header.expect("journal header line");
    assert_eq!(header.version, smith85_tracelog::JOURNAL_VERSION);
    let ours: Vec<_> = events.iter().filter(|e| &*e.trace_id == trace_id.as_str()).collect();
    assert!(
        ours.iter().any(|e| e.name == "request"),
        "request span missing for {trace_id}: {events:?}"
    );
    let access = ours
        .iter()
        .find(|e| e.name == "access_log")
        .unwrap_or_else(|| panic!("access_log missing for {trace_id}"));
    let field = |name: &str| {
        access
            .fields
            .iter()
            .find(|(k, _)| k == name)
            .unwrap_or_else(|| panic!("access_log field {name} missing"))
            .1
            .clone()
    };
    assert_eq!(field("outcome").as_str(), Some("ok"));
    assert_eq!(field("kind").as_str(), Some("simulate"));
    assert!(
        ours.iter().any(|e| e.name == "pool_materialize"),
        "pool_materialize span must share the request trace id"
    );

    // The rendered profile shows the span tree with non-zero self time.
    let trees = report::build_trees(&events);
    let tree = trees
        .iter()
        .find(|t| &*t.trace_id == trace_id.as_str())
        .expect("tree for our trace");
    assert_eq!(tree.root_name(), "request");
    let root = &tree.roots[0];
    assert!(root.closed, "request span must be closed");
    assert!(root.total_us > 0, "request span must have measured time");
    assert!(
        root.children.iter().any(|c| c.name == "simulate_workload"),
        "kernel span must nest under the request: {root:?}"
    );
    let rendered = report::render_report(&trees, 10);
    assert!(rendered.contains("request"), "{rendered}");
    assert!(rendered.contains("pool_materialize"), "{rendered}");

    let _ = std::fs::remove_file(&journal_path);
}

#[test]
fn panicking_job_gets_typed_error_and_gauge_returns_to_zero() {
    let server = Server::spawn(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServeOptions::default()
    })
    .expect("spawn server");
    let addr = server.addr().to_string();

    let mut client = Client::builder().addr(&addr).connect().expect("connect");
    match client.call(&simulate_request(smith85_serve::exec::PANIC_WORKLOAD, 1_000, 1 << 12)) {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, ErrorCode::Internal, "{e:?}");
            assert!(e.message.contains("panic"), "{e:?}");
        }
        other => panic!("expected internal error, got {other:?}"),
    }

    // The queue-depth gauge must return to zero on the panic exit path.
    wait_until(|| fetch_stats(&addr).queue_depth == 0);
    let snapshot = match client.call(&Request::Metrics).expect("metrics") {
        Response::Metrics(snapshot) => snapshot,
        other => panic!("expected metrics_result, got {other:?}"),
    };
    let depth = snapshot
        .gauges
        .iter()
        .find(|g| g.name == "serve_queue_depth")
        .expect("serve_queue_depth gauge");
    assert_eq!(depth.value, 0.0, "gauge stuck after panic: {depth:?}");

    // The worker survived: a follow-up job on the same connection works.
    match client
        .call(&simulate_request("VCCOM", 2_000, 1 << 12))
        .expect("job after panic")
    {
        Response::Simulate(r) => assert!(r.miss_ratio > 0.0),
        other => panic!("expected simulate result, got {other:?}"),
    }

    let stats = server.stop().expect("clean shutdown");
    assert_eq!(stats.simulate_requests, 2, "both jobs were admitted");
    assert_eq!(stats.completed, 1, "only the non-panicking job completed");
}

fn wait_until(mut condition: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !condition() {
        assert!(Instant::now() < deadline, "condition not reached in 30s");
        std::thread::sleep(Duration::from_millis(10));
    }
}
