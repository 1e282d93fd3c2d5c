//! Acceptance tests for the poll-based event loop (unix targets).
//!
//! The headline guarantee: idle connections are free. A server holding
//! hundreds of open-but-quiet connections must answer a fresh client
//! well inside a fixed bound — half the 100 ms accept cadence of the
//! thread-per-connection server the loop replaced. Also pinned here:
//! pipelined requests on one connection answer in order, and a client
//! that sends-then-half-closes still gets every answer (no data loss on
//! EOF). A connection belongs to one thread at a time: the worker that
//! runs a job writes its reply and serves what was pipelined behind it,
//! so a pipelined burst costs the loop a bounded number of wake-ups.

#![cfg(unix)]

use smith85_serve::{
    CacheSpec, Client, RegistrySnapshot, Request, Response, ServeOptions, Server, SimulateSpec,
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
    Server::spawn(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        ..ServeOptions::default()
    })
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
/// Reads one reply line and decodes it.
fn read_response(reader: &mut impl BufRead) -> Response {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    Response::decode(line.trim_end()).expect("decode response")
}

fn metrics(client: &mut Client) -> RegistrySnapshot {
    match client.call(&Request::Metrics).expect("metrics") {
        Response::Metrics(snapshot) => snapshot,
        other => panic!("expected metrics, got {other:?}"),
    }
}

fn gauge(snapshot: &RegistrySnapshot, name: &str) -> f64 {
    snapshot
        .gauges
        .iter()
        .find(|g| g.name == name && g.labels.is_empty())
        .map_or(0.0, |g| g.value)
}

fn histogram_count(snapshot: &RegistrySnapshot, name: &str) -> u64 {
    snapshot
        .histograms
        .iter()
        .find(|h| h.name == name && h.labels.is_empty())
        .map_or(0, |h| h.count)
}

/// Polls `metrics` on `client` until `condition` holds (60 s at most).
fn wait_for_metrics(
    client: &mut Client,
    what: &str,
    mut condition: impl FnMut(&RegistrySnapshot) -> bool,
) -> RegistrySnapshot {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let snapshot = metrics(client);
        if condition(&snapshot) {
            return snapshot;
        }
        assert!(
            Instant::now() < deadline,
            "{what} not reached in 60 s: {snapshot:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A job long enough to still be running while the test acts on it.
const LONG_JOB_REFS: usize = 2_000_000;

#[test]
fn inline_answers_around_jobs_keep_request_order() {
    let server = spawn();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let burst = [
        Request::Ping,
        simulate_request("VCCOM", 2_000, 1 << 12),
        Request::Catalog,
        simulate_request("ZGREP", 2_000, 1 << 10),
        Request::Ping,
    ]
    .iter()
    .map(|request| request.encode() + "\n")
    .collect::<String>();
    stream.write_all(burst.as_bytes()).expect("write burst");

    let mut reader = BufReader::new(stream);
    assert!(matches!(read_response(&mut reader), Response::Pong));
    match read_response(&mut reader) {
        Response::Simulate(r) => {
            assert_eq!((r.workload.as_str(), r.cache_bytes), ("VCCOM", 1 << 12))
        }
        other => panic!("expected the first simulate result, got {other:?}"),
    }
    assert!(matches!(read_response(&mut reader), Response::Catalog(_)));
    match read_response(&mut reader) {
        Response::Simulate(r) => {
            assert_eq!((r.workload.as_str(), r.cache_bytes), ("ZGREP", 1 << 10))
        }
        other => panic!("expected the second simulate result, got {other:?}"),
    }
    assert!(matches!(read_response(&mut reader), Response::Pong));
    server.stop().expect("clean shutdown");
}

/// A peer that vanishes while its job runs is reclaimed when the job
/// ends: closed once, and the connection gauge (polled plus lent
/// connections) returns to where it was.
#[test]
fn peer_gone_mid_job_is_closed_once_when_the_job_ends() {
    let server = spawn();
    let mut client = Client::builder()
        .addr(server.addr().to_string())
        .connect()
        .expect("metrics client");
    let baseline = metrics(&mut client);
    let closed_before = baseline.counter_value("event_loop_conns_closed_total", &[]);
    let conns_before = gauge(&baseline, "event_loop_connections");

    let mut doomed = TcpStream::connect(server.addr()).expect("connect");
    let line = simulate_request("VCCOM", LONG_JOB_REFS, 1 << 14).encode() + "\n";
    doomed.write_all(line.as_bytes()).expect("write job");
    // Lent to its job: not polled, but still counted as a connection.
    wait_for_metrics(&mut client, "the job's connection lent", |s| {
        gauge(s, "event_loop_busy_jobs") == 1.0
            && gauge(s, "event_loop_connections") == conns_before + 1.0
    });
    drop(doomed);

    wait_for_metrics(&mut client, "the vanished peer reclaimed", |s| {
        s.counter_value("event_loop_conns_closed_total", &[]) > closed_before
            && gauge(s, "event_loop_connections") == conns_before
            && gauge(s, "event_loop_busy_jobs") == 0.0
    });
    std::thread::sleep(Duration::from_millis(200));
    let after = metrics(&mut client);
    assert_eq!(
        after.counter_value("event_loop_conns_closed_total", &[]),
        closed_before + 1,
        "the vanished peer is closed exactly once: {after:?}"
    );
    assert_eq!(gauge(&after, "event_loop_connections"), conns_before);
    assert!(matches!(
        client.call(&Request::Ping).expect("ping"),
        Response::Pong
    ));
    server.stop().expect("clean shutdown");
}

/// The shutdown drain waits for connections lent to running jobs.
#[test]
fn shutdown_mid_job_still_delivers_the_reply() {
    let server = spawn();
    let addr = server.addr().to_string();
    let mut first = TcpStream::connect(&addr).expect("connect");
    let line = simulate_request("VCCOM", LONG_JOB_REFS, 1 << 14).encode() + "\n";
    first.write_all(line.as_bytes()).expect("write job");

    let mut second = Client::builder()
        .addr(addr)
        .connect()
        .expect("second client");
    wait_for_metrics(&mut second, "the job's connection lent", |s| {
        gauge(s, "event_loop_busy_jobs") == 1.0
    });
    assert!(matches!(
        second.call(&Request::Shutdown).expect("shutdown"),
        Response::Ok
    ));

    match read_response(&mut BufReader::new(first)) {
        Response::Simulate(r) => assert_eq!(r.len, LONG_JOB_REFS),
        other => panic!("expected the in-flight job's result, got {other:?}"),
    }
    let stats = server.stop().expect("clean shutdown");
    assert_eq!(stats.completed, 1, "{stats:?}");
}

/// The mechanism, pinned by a count: 32 simulates written in one burst
/// wake the loop at most 8 times between two `metrics` replies. A loop
/// that took back every reply would read 34: one wake for the burst,
/// one per reply and one for the second `metrics`.
#[test]
fn pipelined_burst_wakes_the_loop_a_bounded_number_of_times() {
    const BURST: usize = 32;
    const MAX_WAKES: u64 = 8;
    let server = spawn();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let polls = |stream: &mut TcpStream, reader: &mut BufReader<TcpStream>| {
        stream
            .write_all((Request::Metrics.encode() + "\n").as_bytes())
            .expect("write metrics");
        match read_response(reader) {
            Response::Metrics(s) => histogram_count(&s, "event_loop_poll_wait_us"),
            other => panic!("expected metrics, got {other:?}"),
        }
    };
    // Warm the pool so the burst measures serving, not generation.
    let warm = simulate_request("VCCOM", 2_000, 1 << 10).encode() + "\n";
    stream.write_all(warm.as_bytes()).expect("write warm-up");
    assert!(matches!(read_response(&mut reader), Response::Simulate(_)));

    let before = polls(&mut stream, &mut reader);
    // Distinct lengths (shortest last, so every request is a pool hit)
    // tell the answers apart.
    let lens: Vec<usize> = (0..BURST).map(|i| 2_000 - i).collect();
    let burst: String = lens
        .iter()
        .enumerate()
        .map(|(i, &len)| simulate_request("VCCOM", len, 1 << (10 + i % 4)).encode() + "\n")
        .collect();
    stream.write_all(burst.as_bytes()).expect("write burst");
    for (i, &len) in lens.iter().enumerate() {
        match read_response(&mut reader) {
            Response::Simulate(r) => assert_eq!(
                (r.len, r.cache_bytes),
                (len, 1 << (10 + i % 4)),
                "answer {i} out of order"
            ),
            other => panic!("expected simulate result {i}, got {other:?}"),
        }
    }
    let after = polls(&mut stream, &mut reader);
    assert!(
        after - before <= MAX_WAKES,
        "{BURST} pipelined simulates woke the loop {} times (at most {MAX_WAKES})",
        after - before
    );
    server.stop().expect("clean shutdown");
}

/// The server's per-connection outbound-buffer limit
/// (`event_loop::WRITE_BUF_LIMIT`).
const WRITE_BUF_LIMIT: usize = 256 * 1024;

/// The most one side of a TCP connection may buffer: the last (maximum)
/// value of `/proc/sys/net/ipv4/<file>`, or 32 MiB if it is unreadable.
fn socket_buffer_max(file: &str) -> usize {
    std::fs::read_to_string(format!("/proc/sys/net/ipv4/{file}"))
        .ok()
        .and_then(|text| text.split_whitespace().last()?.parse().ok())
        .unwrap_or(32 << 20)
}

fn read_line(reader: &mut impl BufRead) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read reply");
    line
}

/// A client pipelines more `catalog` requests than both socket buffers
/// can hold replies for, and reads nothing. The server answers until its
/// outbound buffer reaches the limit and keeps the rest of the lines
/// unanswered, so the buffer never holds more than one reply past the
/// limit; once the client reads, every reply arrives in request order
/// (a ping after every hundredth catalog shows the order).
fn unread_burst_keeps_the_write_buffer_bounded(half_close: bool) {
    let server = spawn();
    let addr = server.addr().to_string();
    let catalog_line = Request::Catalog.encode() + "\n";
    let ping_line = Request::Ping.encode() + "\n";

    let mut probe = BufReader::new(TcpStream::connect(&addr).expect("connect probe"));
    probe
        .get_mut()
        .write_all((catalog_line.clone() + &ping_line).as_bytes())
        .expect("probe requests");
    let catalog_reply = read_line(&mut probe);
    let pong_reply = read_line(&mut probe);
    assert!(catalog_reply.contains("catalog_result"), "{catalog_reply}");

    let capacity = socket_buffer_max("tcp_rmem") + socket_buffer_max("tcp_wmem");
    let catalogs = (capacity + 2 * WRITE_BUF_LIMIT) / catalog_reply.len() + 1;
    let mut burst = String::new();
    let mut expected = Vec::new();
    for i in 1..=catalogs {
        burst.push_str(&catalog_line);
        expected.push(&catalog_reply);
        if i % 100 == 0 {
            burst.push_str(&ping_line);
            expected.push(&pong_reply);
        }
    }
    let stream = TcpStream::connect(&addr).expect("connect burst");
    let mut writer = stream.try_clone().expect("clone burst stream");
    // Written from a thread: the server stops reading once its buffer is
    // full, so the burst may not fit in the socket buffers either.
    let sender = std::thread::spawn(move || {
        writer.write_all(burst.as_bytes()).expect("write burst");
        if half_close {
            writer.shutdown(std::net::Shutdown::Write).expect("half close");
        }
    });

    let mut client = Client::builder().addr(&addr).connect().expect("connect metrics");
    let buffered = |snapshot: &RegistrySnapshot| gauge(snapshot, "event_loop_write_buf_bytes");
    let bound = (WRITE_BUF_LIMIT + catalog_reply.len()) as f64;
    let stalled = wait_for_metrics(&mut client, "a full outbound buffer", |snapshot| {
        buffered(snapshot) >= WRITE_BUF_LIMIT as f64
    });
    assert!(buffered(&stalled) <= bound, "{} > {bound}", buffered(&stalled));
    for _ in 0..5 {
        std::thread::sleep(Duration::from_millis(20));
        let now = buffered(&metrics(&mut client));
        assert!(now <= bound, "{now} > {bound}");
    }

    let mut reader = BufReader::new(stream);
    for (index, want) in expected.iter().enumerate() {
        let got = read_line(&mut reader);
        assert!(&got == *want, "reply {index} of {}: {:.80}", expected.len(), got);
    }
    sender.join().expect("burst writer");
    if half_close {
        assert_eq!(read_line(&mut reader), "", "EOF after the last reply");
    }
    server.stop().expect("clean shutdown");
}

#[test]
fn unread_burst_keeps_the_write_buffer_bounded_and_answers_in_order() {
    unread_burst_keeps_the_write_buffer_bounded(false);
}

#[test]
fn half_closed_unread_burst_still_gets_every_answer() {
    unread_burst_keeps_the_write_buffer_bounded(true);
}
