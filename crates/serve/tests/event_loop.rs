//! Acceptance tests for the poll-based event loop (unix targets).
//!
//! The headline guarantee: idle connections are free. A server holding
//! hundreds of open-but-quiet connections must answer a fresh client
//! well inside a fixed bound — half the 100 ms accept cadence of the
//! thread-per-connection server the loop replaced. Also pinned here:
//! pipelined requests on one connection answer in order, and a client
//! that sends-then-half-closes still gets every answer (no data loss on
//! EOF).

#![cfg(unix)]

use smith85_serve::{
    CacheSpec, Client, Request, Response, ServeOptions, Server, SimulateSpec,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

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

fn spawn() -> smith85_serve::RunningServer {
    Server::spawn(
        ServeOptions::builder()
            .addr("127.0.0.1:0")
            .build()
            .expect("serve options"),
    )
    .expect("spawn server")
}

/// Round-trip latency of a fresh connection issuing one ping.
fn fresh_connection_rtt(addr: &str) -> Duration {
    let start = Instant::now();
    let mut client = Client::builder().addr(addr).connect().expect("connect");
    let response = client.call(&Request::Ping).expect("ping");
    assert!(matches!(response, Response::Pong), "{response:?}");
    start.elapsed()
}

fn p99(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    let rank = ((samples.len() - 1) as f64 * 0.99).round() as usize;
    samples[rank]
}

/// The bound is half the 100 ms a fresh connection could wait on the
/// thread-per-connection server, which slept that long between empty
/// accepts. With 512 idle connections open, the loop must stay under it.
#[test]
fn idle_connections_are_free() {
    const IDLE: usize = 512;
    const SAMPLES: usize = 12;
    const BOUND: Duration = Duration::from_millis(50);

    // Event-loop server saturated with idle connections.
    let server = spawn();
    let addr = server.addr().to_string();
    let idle: Vec<TcpStream> = (0..IDLE)
        .map(|i| {
            TcpStream::connect(&addr).unwrap_or_else(|e| panic!("idle connect {i}: {e}"))
        })
        .collect();
    // Give the loop a poll round to accept the whole burst.
    std::thread::sleep(Duration::from_millis(300));

    let event_rtts: Vec<Duration> = (0..SAMPLES).map(|_| fresh_connection_rtt(&addr)).collect();

    // The idle connections are still live, not silently dropped: one of
    // them can speak up and get an answer.
    let mut speak = idle.into_iter().next_back().expect("an idle connection");
    speak
        .write_all(b"{\"v\":1,\"type\":\"ping\"}\n")
        .expect("write on idle connection");
    let mut line = String::new();
    let mut reader = BufReader::new(speak.try_clone().expect("clone"));
    reader.read_line(&mut line).expect("idle connection answers");
    assert!(line.contains("pong"), "{line}");
    server.stop().expect("clean shutdown");

    let event_p99 = p99(event_rtts);
    assert!(
        event_p99 < BOUND,
        "event loop under {IDLE} idle connections: fresh-connection ping p99 \
         {event_p99:?} must stay under {BOUND:?}"
    );
}

#[test]
fn pipelined_requests_answer_in_request_order() {
    let server = spawn();
    let addr = server.addr().to_string();

    // Five requests with distinct cache sizes, written as one burst
    // before any response is read.
    let sizes = [1 << 10, 1 << 12, 1 << 14, 1 << 11, 1 << 13];
    let mut stream = TcpStream::connect(&addr).expect("connect");
    let mut burst = String::new();
    for &size in &sizes {
        burst.push_str(&simulate_request("VCCOM", 2_000, size).encode());
        burst.push('\n');
    }
    stream.write_all(burst.as_bytes()).expect("write burst");

    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    for &size in &sizes {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response");
        match Response::decode(line.trim_end()).expect("decode response") {
            Response::Simulate(r) => {
                assert_eq!(r.cache_bytes, size, "responses must come back in order")
            }
            other => panic!("expected simulate result, got {other:?}"),
        }
    }
    server.stop().expect("clean shutdown");
}

/// The loop's lifecycle instrumentation: accepted/half-close/closed
/// counters move with real connection events, the poll/dispatch
/// histograms record iterations, and the gauges are published.
#[test]
fn event_loop_lifecycle_metrics_track_connections() {
    let server = spawn();
    let addr = server.addr().to_string();

    // One full lifecycle including a half-close.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .write_all(b"{\"v\":1,\"type\":\"ping\"}\n")
        .expect("write ping");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half close");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("answer");
    assert!(line.contains("pong"), "{line}");
    let mut tail = String::new();
    assert_eq!(reader.read_line(&mut tail).expect("eof"), 0);
    // Give the loop an iteration to reclaim the slot and set gauges.
    std::thread::sleep(Duration::from_millis(200));

    let mut client = Client::builder().addr(addr).connect().expect("connect");
    let snapshot = match client.call(&Request::Metrics).expect("metrics") {
        Response::Metrics(s) => s,
        other => panic!("expected metrics, got {other:?}"),
    };
    let counter = |name: &str| snapshot.counter_value(name, &[]);
    assert!(
        counter("event_loop_conns_accepted_total") >= 2,
        "raw conn + metrics client accepted: {snapshot:?}"
    );
    assert!(counter("event_loop_half_closes_total") >= 1, "{snapshot:?}");
    assert!(counter("event_loop_conns_closed_total") >= 1, "{snapshot:?}");
    let hist_count = |name: &str| {
        snapshot
            .histograms
            .iter()
            .find(|h| h.name == name && h.labels.is_empty())
            .map(|h| h.count)
            .unwrap_or(0)
    };
    assert!(hist_count("event_loop_poll_wait_us") > 0, "{snapshot:?}");
    assert!(hist_count("event_loop_dispatch_us") > 0, "{snapshot:?}");
    let gauge = |name: &str| {
        snapshot
            .gauges
            .iter()
            .find(|g| g.name == name && g.labels.is_empty())
            .map(|g| g.value)
    };
    assert!(
        gauge("event_loop_connections").is_some_and(|v| v >= 1.0),
        "the metrics client itself is an open connection: {snapshot:?}"
    );
    assert!(gauge("event_loop_busy_jobs").is_some(), "{snapshot:?}");
    assert!(gauge("event_loop_write_buf_bytes").is_some(), "{snapshot:?}");

    server.stop().expect("clean shutdown");
}

#[test]
fn half_close_after_sending_still_gets_every_answer() {
    let server = spawn();
    let addr = server.addr().to_string();

    let mut stream = TcpStream::connect(&addr).expect("connect");
    let mut burst = String::new();
    burst.push_str(&simulate_request("ZGREP", 2_000, 1 << 12).encode());
    burst.push('\n');
    burst.push_str(&Request::Ping.encode());
    burst.push('\n');
    stream.write_all(burst.as_bytes()).expect("write burst");
    // Half-close: we are done sending, but the answers are still owed.
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half close");

    let mut reader = BufReader::new(stream);
    let mut first = String::new();
    reader.read_line(&mut first).expect("first answer");
    assert!(first.contains("simulate_result"), "{first}");
    let mut second = String::new();
    reader.read_line(&mut second).expect("second answer");
    assert!(second.contains("pong"), "{second}");
    // Then the server closes its side too.
    let mut tail = String::new();
    let n = reader.read_line(&mut tail).expect("clean EOF");
    assert_eq!(n, 0, "expected EOF after the final answer, got {tail:?}");
    server.stop().expect("clean shutdown");
}
