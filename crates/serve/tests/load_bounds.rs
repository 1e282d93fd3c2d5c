//! Release-mode timing bounds on the served path, measured against
//! in-process servers on loopback:
//!
//! * 64 connections × 8 `simulate` requests of 50,000 references keep
//!   the event loop's p95 latency under 102 ms, the p95 the seed's
//!   thread-per-connection server read at just 4 connections;
//! * a trace journal costs under 15% of throughput: the median overhead
//!   of 9 paired rounds (journal off, journal on, same load) whose order
//!   alternates, after a discarded warm-up pair. Pairing cancels host
//!   drift between rounds, and the median ignores a descheduled round.
//!
//! A debug build reads a p95 near 300 ms, so the test is ignored there.
//! Run it with
//! `cargo test --release -p smith85-serve --test load_bounds -- --nocapture`.
//! Both bounds share one test function, so the harness never runs two
//! load passes side by side.

#![cfg(unix)]

use smith85_serve::{
    CacheSpec, Client, Request, Response, RunningServer, ServeOptions, Server, SimulateSpec,
};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Workloads cycled through by every connection; repeats make each
/// server's trace pool serve hits after the first materialization.
const WORKLOADS: [&str; 4] = ["VCCOM", "ZGREP", "PL0", "TWOD"];
/// Cache sizes cycled through per request.
const SIZES: [usize; 3] = [1 << 12, 1 << 14, 1 << 16];
const CONNECTIONS: usize = 64;
const REQUESTS_PER_CONNECTION: usize = 8;
/// Journaling costs a fixed handful of events per request, so its
/// overhead is priced against a representative request size.
const TRACE_LEN: usize = 50_000;
const MEASURED_PAIRS: usize = 9;

/// One load pass: every request's latency, sorted, and the wall time.
struct Pass {
    latencies_ms: Vec<f64>,
    wall_secs: f64,
}

impl Pass {
    fn requests_per_sec(&self) -> f64 {
        self.latencies_ms.len() as f64 / self.wall_secs
    }

    /// Nearest-rank 95th percentile.
    fn p95_ms(&self) -> f64 {
        let rank = 0.95 * (self.latencies_ms.len() - 1) as f64;
        self.latencies_ms[rank.round() as usize]
    }
}

fn spawn(journal: Option<PathBuf>) -> RunningServer {
    Server::spawn(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        queue_capacity: CONNECTIONS * 4,
        journal,
        ..ServeOptions::default()
    })
    .expect("spawn server")
}

/// One connection's requests, each of which must succeed; returns
/// their latencies.
fn drive_connection(addr: &str, id: usize) -> Vec<f64> {
    let mut client = Client::builder()
        .addr(addr)
        .timeout(Duration::from_secs(60))
        .connect()
        .expect("connect");
    (id..id + REQUESTS_PER_CONNECTION)
        .map(|pick| {
            let request = Request::Simulate(SimulateSpec {
                workload: WORKLOADS[pick % WORKLOADS.len()].to_string(),
                len: TRACE_LEN,
                seed: None,
                cache: CacheSpec {
                    size: SIZES[pick % SIZES.len()],
                    line: 16,
                    ways: None,
                    purge: None,
                },
                policy: None,
                deadline_ms: None,
            });
            let start = Instant::now();
            // call_raw hands a server-side error back as a response, so
            // a failed request shows its typed error below.
            let response = client.call_raw(&request).expect("simulate exchange");
            let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
            assert!(
                matches!(response, Response::Simulate(_)),
                "simulate failed: {}",
                response.encode()
            );
            elapsed_ms
        })
        .collect()
}

/// Every connection at once against `addr`.
fn run_pass(addr: &str) -> Pass {
    let start = Instant::now();
    let mut latencies_ms: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|id| scope.spawn(move || drive_connection(addr, id)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("connection thread"))
            .collect()
    });
    let wall_secs = start.elapsed().as_secs_f64();
    latencies_ms.sort_by(f64::total_cmp);
    Pass {
        latencies_ms,
        wall_secs,
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release bounds: cargo test --release -p smith85-serve --test load_bounds"
)]
fn event_loop_p95_and_journal_overhead_stay_within_their_release_bounds() {
    let journal_path =
        std::env::temp_dir().join(format!("smith85-load-bounds-{}.ndjson", std::process::id()));
    let plain = spawn(None);
    let journaled = spawn(Some(journal_path.clone()));
    let plain_addr = plain.addr().to_string();
    let journaled_addr = journaled.addr().to_string();

    // Round 0 is the warm-up pair: it fills both servers' trace pools,
    // then `skip` drops it. Odd rounds run the journaled server first,
    // so a first-runner advantage cancels across pairs.
    let pairs: Vec<(Pass, Pass)> = (0..=MEASURED_PAIRS)
        .map(|round| {
            if round % 2 == 0 {
                let plain = run_pass(&plain_addr);
                (plain, run_pass(&journaled_addr))
            } else {
                let journaled = run_pass(&journaled_addr);
                (run_pass(&plain_addr), journaled)
            }
        })
        .skip(1)
        .collect();
    plain.stop().expect("clean shutdown");
    journaled.stop().expect("clean journaled shutdown");
    let _ = std::fs::remove_file(&journal_path);

    let mut overheads: Vec<f64> = pairs
        .iter()
        .map(|(plain, journaled)| {
            (1.0 - journaled.requests_per_sec() / plain.requests_per_sec()) * 100.0
        })
        .collect();
    overheads.sort_by(f64::total_cmp);
    let overhead = overheads[overheads.len() / 2];
    // The fastest plain pass is the one the host disturbed least.
    let fastest = pairs
        .iter()
        .map(|(plain, _)| plain)
        .max_by(|a, b| a.requests_per_sec().total_cmp(&b.requests_per_sec()))
        .expect("measured pairs ran");
    let p95 = fastest.p95_ms();
    println!(
        "event-loop p95 {p95:.2} ms at {:.0} req/s; journal overhead median {overhead:.1}% \
         of {overheads:.1?}",
        fastest.requests_per_sec()
    );
    assert!(
        p95 < 102.0,
        "event-loop p95 {p95:.2} ms at {CONNECTIONS} connections is over 102 ms"
    );
    assert!(
        overhead < 15.0,
        "journaling costs {overhead:.1}% of throughput, over 15% ({overheads:.1?})"
    );
}
