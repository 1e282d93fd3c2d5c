//! Warm-start tests: a session built over a populated store directory
//! must answer previously-seen workloads from disk — bit-identical, with
//! zero pool misses and zero newly materialized bytes.

use smith85_core::session::SimSession;
use smith85_synth::catalog;
use std::path::PathBuf;

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("s85-warm-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn build(dir: &PathBuf) -> SimSession {
    SimSession::builder()
        .store(dir)
        .trace_len(4_000)
        .build()
        .unwrap()
}

#[test]
fn warm_session_reuses_spilled_traces_bit_identically() {
    let dir = tmp_root("reuse");
    let profile = catalog::by_name("VCCOM").unwrap().profile().clone();

    // Cold run: the pool misses, materializes, and spills to the store.
    let cold_trace = {
        let session = build(&dir);
        let trace = session.config().pool.profile(&profile, 4_000);
        let stats = session.config().pool.stats();
        assert_eq!(stats.misses, 1, "cold run must materialize");
        let store = session.store().expect("session has a store");
        assert!(store.stats().writes >= 1, "trace must be spilled to disk");
        (*trace).clone()
    };

    // Warm run in a fresh process-equivalent: new session, same dir.
    let session = build(&dir);
    let warm_trace = session.config().pool.profile(&profile, 4_000);
    let stats = session.config().pool.stats();
    assert_eq!(stats.misses, 0, "warm run must not materialize");
    assert_eq!(stats.hits, 1, "disk hit counts as a pool hit");
    assert_eq!(
        stats.materialized_bytes, 0,
        "warm run must not generate any references"
    );
    assert_eq!(*warm_trace, cold_trace, "disk round-trip must be bit-identical");
    let store = session.store().unwrap();
    assert!(store.stats().hits >= 1);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn warm_session_survives_a_corrupted_spill_by_regenerating() {
    let dir = tmp_root("regen");
    let profile = catalog::by_name("ZGREP").unwrap().profile().clone();

    let cold_trace = {
        let session = build(&dir);
        (*session.config().pool.profile(&profile, 4_000)).clone()
    };

    // Flip a bit in every stored object; recovery quarantines them all.
    let objects = dir.join("objects");
    let mut injector = smith85_trace::fault::DiskFaultInjector::new(99);
    for entry in std::fs::read_dir(&objects).unwrap() {
        let path = entry.unwrap().path();
        injector
            .corrupt_file(smith85_trace::fault::DiskFault::BitFlip, &path)
            .unwrap();
    }

    let session = build(&dir);
    let store = session.store().unwrap();
    assert!(
        !store.recovery().quarantined.is_empty(),
        "corruption must be quarantined at open: {}",
        store.recovery().summary()
    );
    // The pool regenerates rather than serving damaged data, and the
    // regenerated trace matches the cold run exactly.
    let regenerated = session.config().pool.profile(&profile, 4_000);
    let stats = session.config().pool.stats();
    assert_eq!(stats.misses, 1, "corrupt spill must force re-materialization");
    assert_eq!(*regenerated, cold_trace);
    // Evidence survives in quarantine/.
    assert!(dir.join("quarantine").read_dir().unwrap().next().is_some());

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn store_budget_caps_spill_growth() {
    let dir = tmp_root("budget");
    let session = SimSession::builder()
        .store(&dir)
        .store_budget(16 * 1024)
        .trace_len(4_000)
        .build()
        .unwrap();
    for name in ["VCCOM", "ZGREP", "PL0", "TWOD"] {
        let profile = catalog::by_name(name).unwrap().profile().clone();
        session.config().pool.profile(&profile, 4_000);
    }
    let store = session.store().unwrap();
    let stats = store.stats();
    assert!(
        stats.total_bytes <= 16 * 1024,
        "store grew past its budget: {} bytes",
        stats.total_bytes
    );
    assert!(stats.gc_evictions >= 1, "eviction must have happened");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn longer_prefix_in_one_process_skips_the_shorter_spill() {
    let dir = tmp_root("regrow");
    let session = build(&dir);
    let profile = catalog::by_name("VCCOM").unwrap().profile().clone();
    session.config().pool.profile(&profile, 20_000);
    // The pool holds the 20,000-ref buffer this process spilled, so the
    // spill cannot serve 40,000 refs: regenerate without reading it.
    let longer = session.config().pool.profile(&profile, 40_000);
    assert_eq!(longer.len(), 40_000);
    let snapshot = session.registry().snapshot();
    assert_eq!(snapshot.counter_value("store_hits_total", &[]), 0);
    assert_eq!(snapshot.counter_value("pool_misses_total", &[]), 2);
    std::fs::remove_dir_all(&dir).unwrap();
}
