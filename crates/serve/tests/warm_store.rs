//! Warm-start acceptance tests for `--store`-backed servers.
//!
//! These pin the PR's headline guarantees end to end over a loopback
//! socket: a restarted server answers a previously-seen request
//! bit-identically with zero new materializations (pool misses and
//! materialized bytes both zero, store hits nonzero), and injected
//! corruption is detected, quarantined and recomputed — never served.

use smith85_core::session::SimSession;
use smith85_serve::{
    CacheSpec, Client, Request, Response, ServeOptions, Server, SimulateSpec, SimulateResult,
    SweepResult, SweepSpec,
};
use std::path::{Path, PathBuf};

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("s85-warmserve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spawn_with_store(dir: &Path) -> smith85_serve::RunningServer {
    let session = SimSession::builder()
        .store(dir)
        .build()
        .expect("session with store");
    Server::spawn(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        session,
        ..ServeOptions::default()
    })
    .expect("spawn server")
}

fn simulate_request() -> Request {
    Request::Simulate(SimulateSpec {
        workload: "VCCOM".to_string(),
        len: 3_000,
        seed: None,
        cache: CacheSpec {
            size: 4_096,
            line: 16,
            ways: None,
            purge: None,
        },
        policy: None,
        deadline_ms: None,
    })
}

fn call(addr: &str, request: &Request) -> Response {
    let mut client = Client::builder().addr(addr).connect().expect("connect");
    client.call(request).expect("call")
}

fn simulate(addr: &str) -> SimulateResult {
    match call(addr, &simulate_request()) {
        Response::Simulate(r) => r,
        other => panic!("expected simulate result, got {}", other.encode()),
    }
}

/// The deterministic payload of a result — everything except timing and
/// the per-request trace id.
fn fingerprint(r: &SimulateResult) -> (String, u64, u64, u64, String, String, String, u64) {
    (
        r.workload.clone(),
        r.refs,
        r.cache_bytes as u64,
        r.misses,
        format!("{:.12}", r.miss_ratio),
        format!("{:.12}", r.instruction_miss_ratio),
        format!("{:.12}", r.data_miss_ratio),
        r.traffic_bytes,
    )
}

fn stats(addr: &str) -> smith85_serve::StatsResult {
    match call(addr, &Request::Stats) {
        Response::Stats(s) => s,
        other => panic!("expected stats, got {}", other.encode()),
    }
}

#[test]
fn restarted_server_is_bit_identical_with_zero_new_materializations() {
    let dir = tmp_root("restart");

    // Cold server: computes, spills trace and result to the store.
    let cold = {
        let server = spawn_with_store(&dir);
        let addr = server.addr().to_string();
        let result = simulate(&addr);
        let s = stats(&addr);
        let store = s.store.expect("server runs with a store");
        assert!(store.writes >= 1, "cold run must persist");
        assert_eq!(s.pool.misses, 1, "cold run materializes once");
        server.stop().unwrap();
        result
    };

    // Warm server over the same directory: same answer, no generation.
    let server = spawn_with_store(&dir);
    let addr = server.addr().to_string();
    let warm = simulate(&addr);
    assert_eq!(
        fingerprint(&warm),
        fingerprint(&cold),
        "warm restart must be bit-identical"
    );
    let s = stats(&addr);
    assert_eq!(s.pool.misses, 0, "warm server must not materialize any trace");
    assert_eq!(
        s.pool.materialized_bytes, 0,
        "warm server must not generate a single reference"
    );
    let store = s.store.expect("store counters in stats");
    assert!(store.hits >= 1, "the answer must have come from the store");
    server.stop().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

fn grid_sweep_request() -> Request {
    Request::Sweep(SweepSpec {
        workload: "VCCOM".to_string(),
        len: 3_000,
        seed: None,
        sizes: vec![1_024, 4_096, 16_384],
        ways: vec![1, 2, 4, 8],
        line: 16,
        policy: None,
        deadline_ms: None,
    })
}

fn grid_sweep(addr: &str) -> SweepResult {
    match call(addr, &grid_sweep_request()) {
        Response::Sweep(r) => r,
        other => panic!("expected sweep result, got {}", other.encode()),
    }
}

/// The deterministic payload of a grid sweep — every cell's identity
/// and exact ratios, without timing or the trace id.
fn grid_fingerprint(r: &SweepResult) -> Vec<(usize, Option<usize>, u64, u64, u64)> {
    r.points
        .iter()
        .map(|p| {
            (
                p.size,
                p.ways,
                p.miss_ratio.to_bits(),
                p.traffic_ratio.unwrap().to_bits(),
                p.dirty_push_fraction.unwrap().to_bits(),
            )
        })
        .collect()
}

#[test]
fn restarted_server_answers_a_full_grid_sweep_from_the_store() {
    let dir = tmp_root("gridsweep");

    // Cold server: one trace traversal computes the whole 12-cell grid
    // and persists it as a single store record.
    let cold = {
        let server = spawn_with_store(&dir);
        let addr = server.addr().to_string();
        let result = grid_sweep(&addr);
        assert_eq!(result.points.len(), 12, "3 sizes x 4 ways, all realizable");
        let s = stats(&addr);
        assert_eq!(s.pool.misses, 1, "cold grid sweep materializes once");
        assert!(s.store.expect("store counters").writes >= 1);
        let one_pass = s.one_pass.expect("one_pass counters in stats");
        assert_eq!(one_pass.refs, 3_000);
        assert_eq!(one_pass.grid_cells, 12);
        server.stop().unwrap();
        result
    };

    // Warm server over the same directory: the full grid comes back
    // bit-identically from one store read — no trace is ever generated.
    let server = spawn_with_store(&dir);
    let addr = server.addr().to_string();
    let warm = grid_sweep(&addr);
    assert_eq!(
        grid_fingerprint(&warm),
        grid_fingerprint(&cold),
        "warm grid sweep must be bit-identical"
    );
    let s = stats(&addr);
    assert_eq!(s.pool.misses, 0, "warm grid sweep must not materialize any trace");
    assert_eq!(s.pool.entries, 0, "the stored grid answers before the pool");
    assert!(s.store.expect("store counters").hits >= 1);
    let one_pass = s.one_pass.expect("one_pass counters in stats");
    assert_eq!(one_pass.refs, 0, "a store-hit grid sweep traverses no trace");
    assert_eq!(one_pass.grid_cells, 0);
    server.stop().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_store_entries_are_quarantined_and_never_served() {
    let dir = tmp_root("corrupt");

    let cold = {
        let server = spawn_with_store(&dir);
        let addr = server.addr().to_string();
        let result = simulate(&addr);
        server.stop().unwrap();
        result
    };

    // Flip a bit in every persisted object: trace spill and result record.
    let mut injector = smith85_trace::fault::DiskFaultInjector::new(85);
    let mut damaged = 0;
    for entry in std::fs::read_dir(dir.join("objects")).unwrap() {
        let path = entry.unwrap().path();
        injector
            .corrupt_file(smith85_trace::fault::DiskFault::BitFlip, &path)
            .unwrap();
        damaged += 1;
    }
    assert!(damaged >= 2, "expected trace + result objects, found {damaged}");

    // The restarted server quarantines everything at open, then
    // recomputes — and the recomputed answer still matches the cold run.
    let server = spawn_with_store(&dir);
    let addr = server.addr().to_string();
    let recomputed = simulate(&addr);
    assert_eq!(
        fingerprint(&recomputed),
        fingerprint(&cold),
        "recomputation after corruption must match the cold run"
    );
    let s = stats(&addr);
    assert_eq!(
        s.pool.misses, 1,
        "with every spill quarantined the pool must re-materialize"
    );
    let store = s.store.expect("store counters");
    assert!(
        store.corrupt_quarantined >= damaged,
        "all damaged objects must be quarantined ({} < {damaged})",
        store.corrupt_quarantined
    );
    server.stop().unwrap();

    // The evidence is preserved on disk, not deleted.
    let quarantined = std::fs::read_dir(dir.join("quarantine"))
        .unwrap()
        .filter_map(Result::ok)
        .count();
    assert_eq!(quarantined as u64, damaged);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn warm_result_cache_skips_even_the_pool() {
    let dir = tmp_root("resultcache");
    {
        let server = spawn_with_store(&dir);
        let addr = server.addr().to_string();
        simulate(&addr);
        server.stop().unwrap();
    }
    let server = spawn_with_store(&dir);
    let addr = server.addr().to_string();
    let first = simulate(&addr);
    let second = simulate(&addr);
    assert_eq!(fingerprint(&first), fingerprint(&second));
    // Both warm answers come from the persisted result record: the pool
    // never even sees the workload.
    let s = stats(&addr);
    assert_eq!(s.pool.entries, 0, "result cache must answer before the pool");
    assert_eq!(s.completed, 2);
    server.stop().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
