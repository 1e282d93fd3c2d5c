//! The one-pass multi-configuration engine must be **bit-identical** to
//! the per-configuration simulators it replaces: every `CacheStats`
//! field of every grid cell equals a fresh [`Cache`] run of that one
//! configuration, across mappings (direct / set-associative /
//! fully-associative) and write policies, on size sweeps (every cell
//! fully associative) and fixed-set columns as well as full grids.
//!
//! The engine skips work where set refinement fixes the answer (repeats
//! of the previous line, and levels finer than one at depth 1), so the
//! cases below include traces dense in repeats, traces that overflow
//! almost every level, grids with gaps between set counts, a single-set
//! level at every bound from 1 to 4,096 lines and one with gaps between
//! its bounds, and the one-reference-at-a-time entry point.

use proptest::prelude::*;
use smith85_cachesim::{
    one_pass_grid, Cache, CacheConfig, CacheStats, ConfigError, GridSpec, Mapping, OnePassEngine,
    WritePolicy,
};
use smith85_synth::catalog;
use smith85_trace::{Addr, MemoryAccess};

/// Runs one plain `Cache` per grid cell — the N-traversal reference.
fn per_config_reference(trace: &[MemoryAccess], spec: &GridSpec) -> Vec<CacheStats> {
    spec.cells()
        .expect("valid spec")
        .iter()
        .map(|cell| {
            let lines = cell.size_bytes / spec.line_size;
            let mapping = if cell.ways == lines {
                Mapping::FullyAssociative
            } else if cell.ways == 1 {
                Mapping::Direct
            } else {
                Mapping::SetAssociative(cell.ways)
            };
            let config = CacheConfig::builder(cell.size_bytes)
                .line_size(spec.line_size)
                .mapping(mapping)
                .write_policy(spec.write_policy)
                .build()
                .expect("valid cell config");
            let mut cache = Cache::new(config).expect("valid cache");
            cache.run(trace);
            *cache.stats()
        })
        .collect()
}

fn assert_grid_identical(trace: &[MemoryAccess], spec: &GridSpec) {
    let grid = one_pass_grid(trace, spec).expect("valid spec");
    let reference = per_config_reference(trace, spec);
    for ((cell, got), want) in grid.iter().zip(&reference) {
        assert_eq!(
            got, want,
            "cell {}B x {}-way diverges under {:?}",
            cell.size_bytes, cell.ways, spec.write_policy
        );
    }
}

fn seeded_stream(seed: u64, len: usize) -> Vec<MemoryAccess> {
    // Splitmix64-driven mixture of sequential ifetches, looping reads
    // and clustered writes: enough locality to exercise hits at every
    // grid level, enough churn to force evictions.
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut pc = 0x1000u64;
    (0..len)
        .map(|_| {
            let r = next();
            match r % 10 {
                0..=4 => {
                    pc = if r % 64 == 0 { (next() % 0x4000) & !3 } else { pc + 4 };
                    MemoryAccess::ifetch(Addr::new(pc), 4)
                }
                5..=7 => MemoryAccess::read(Addr::new((next() % 0x2000) & !3, ), 4),
                _ => MemoryAccess::write(Addr::new((0x8000 + next() % 0x800) & !1), 2),
            }
        })
        .collect()
}

/// Packet-train style stream: runs of one to four references of mixed
/// kinds to one line of a small footprint, so repeats of the previous
/// line (reads and writes) and depth-1 early exits are the common case.
fn train_stream(seed: u64, len: usize) -> Vec<MemoryAccess> {
    let mut state = seed;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let line = next() % 96;
        for _ in 0..=next() % 4 {
            let addr = Addr::new(line * 16 + (next() % 4) * 4);
            out.push(match next() % 6 {
                0 | 1 => MemoryAccess::read(addr, 4),
                2 => MemoryAccess::ifetch(addr, 4),
                _ => MemoryAccess::write(addr, 4),
            });
        }
    }
    out.truncate(len);
    out
}

fn family_trace(name: &str, len: usize) -> Vec<MemoryAccess> {
    smith85_families::by_name(name)
        .expect("family catalog profile")
        .try_generator()
        .expect("catalog profiles are valid")
        .take(len)
        .collect()
}

/// Share of references to the same line as the reference before.
fn repeat_share(trace: &[MemoryAccess], line_size: usize) -> f64 {
    let repeats = trace
        .windows(2)
        .filter(|w| w[0].line(line_size) == w[1].line(line_size))
        .count();
    repeats as f64 / trace.len() as f64
}

const POLICIES: [WritePolicy; 3] = [
    WritePolicy::CopyBack {
        fetch_on_write: true,
    },
    WritePolicy::CopyBack {
        fetch_on_write: false,
    },
    WritePolicy::WriteThrough { allocate: true },
];

#[test]
fn full_paper_grid_matches_on_family_traces() {
    // N-LAN is mostly repeats of the previous line; S-OLTP overflows
    // nearly every level, so almost no walk stops early.
    let lan = family_trace("N-LAN", 20_000);
    assert!(repeat_share(&lan, 16) > 0.5, "N-LAN should be repeat-dense");
    assert_grid_identical(&lan, &GridSpec::paper_grid());
    let oltp = family_trace("S-OLTP", 20_000);
    assert_grid_identical(&oltp, &GridSpec::paper_grid());
}

#[test]
fn early_exit_crosses_gaps_between_set_counts() {
    // Set counts {4, 32, 256}: no level for 8, 16, 64 or 128 sets, so a
    // walk that stops early skips levels that are not adjacent.
    for (i, policy) in POLICIES.into_iter().enumerate() {
        let mut spec = GridSpec::new(vec![64, 4096], vec![1, 8]);
        spec.write_policy = policy;
        let sets: Vec<usize> = OnePassEngine::new(&spec)
            .expect("valid spec")
            .cells()
            .iter()
            .map(|c| c.sets)
            .collect();
        assert_eq!(sets, vec![4, 256, 32]);
        assert_grid_identical(&seeded_stream(0x9a9 + i as u64, 8_000), &spec);
        assert_grid_identical(&train_stream(0x7a11 + i as u64, 8_000), &spec);
        spec.include_fully_associative = true;
        assert_grid_identical(&train_stream(0x7a12 + i as u64, 8_000), &spec);
    }
}

#[test]
fn observe_one_at_a_time_equals_observe_slice() {
    let mut spec = GridSpec::paper_grid();
    spec.sizes.truncate(8);
    for trace in [
        train_stream(11, 6_000),
        seeded_stream(12, 6_000),
        family_trace("N-LAN", 6_000),
    ] {
        let sliced = one_pass_grid(&trace, &spec).expect("valid spec");
        let mut engine = OnePassEngine::new(&spec).expect("valid spec");
        for &access in &trace {
            engine.observe(access);
        }
        let stepped = engine.finish();
        assert_eq!(stepped.cells(), sliced.cells());
        assert_eq!(stepped.stats(), sliced.stats());
    }
}

#[test]
fn paper_grid_matches_per_config_caches_on_catalog_trace() {
    let trace = catalog::by_name("VCCOM").expect("catalog").generate(20_000);
    let mut spec = GridSpec::paper_grid();
    // Trim the largest sizes to keep the 54-cell reference sweep quick;
    // the full grid is exercised by the bench and the session layer.
    spec.sizes.truncate(9);
    assert_grid_identical(trace.as_slice(), &spec);
}

#[test]
fn every_write_policy_matches_on_seeded_streams() {
    let policies = [
        WritePolicy::CopyBack {
            fetch_on_write: true,
        },
        WritePolicy::CopyBack {
            fetch_on_write: false,
        },
        WritePolicy::WriteThrough { allocate: true },
    ];
    for (i, policy) in policies.into_iter().enumerate() {
        let trace = seeded_stream(0x5eed + i as u64, 8_000);
        let mut spec = GridSpec::new(vec![32, 64, 256, 1024, 4096], vec![1, 2, 4, 8]);
        spec.write_policy = policy;
        spec.include_fully_associative = true;
        assert_grid_identical(&trace, &spec);
    }
}

#[test]
fn full_assoc_cells_match_per_config_caches() {
    let trace = seeded_stream(42, 10_000);
    let spec = GridSpec::fully_associative(vec![64, 256, 1024, 4096], 16);
    assert_grid_identical(&trace, &spec);
}

#[test]
fn single_set_level_matches_per_config_caches_at_every_bound() {
    // Every size from one line to 4,096 lines, fully associative only:
    // one single-set level with bounds 1, 2, 4, …, 4096. S-SCAN touches
    // far more lines than the list keeps, so lines fall off its end and
    // come back.
    let sizes: Vec<usize> = (4..=16).map(|shift| 1usize << shift).collect();
    let spec = GridSpec::fully_associative(sizes.clone(), 16);
    let trace = family_trace("S-SCAN", 20_000);
    let grid = one_pass_grid(&trace, &spec).expect("valid spec");
    assert_eq!(grid.cells().len(), sizes.len());
    assert!(grid.cells().iter().all(|cell| cell.sets == 1));
    // Misses beyond the cold ones at 64 KiB: lines left the list and
    // were referenced again.
    let distinct = trace
        .iter()
        .map(|a| a.line(16).get())
        .collect::<std::collections::HashSet<_>>()
        .len() as u64;
    assert!(distinct > 4096);
    assert!(grid.fully_associative(1 << 16).expect("cell").total_misses() > distinct);
    assert_grid_identical(&trace, &spec);
}

#[test]
fn gapped_single_set_bounds_match_per_config_caches() {
    // Bounds 1, 4 and 64, with depths between them that sit on no
    // bound; the bound of 1 always holds the line just moved to MRU.
    for (i, policy) in POLICIES.into_iter().enumerate() {
        let mut spec = GridSpec::new(vec![16, 64, 1024], vec![]);
        spec.write_policy = policy;
        spec.include_fully_associative = true;
        assert_grid_identical(&seeded_stream(0x5e7 + i as u64, 8_000), &spec);
        assert_grid_identical(&train_stream(0x5e8 + i as u64, 8_000), &spec);
    }
}

#[test]
fn fixed_set_column_matches_per_config_caches() {
    // The column at a fixed set count sweeps ways: sets = 16 holds
    // (size, ways) = (256·w, w).
    let trace = seeded_stream(7, 10_000);
    let spec = GridSpec::new(vec![256, 512, 1024, 2048], vec![1, 2, 4, 8]);
    let grid = one_pass_grid(&trace, &spec).expect("valid spec");
    for ways in [1usize, 2, 4, 8] {
        let cell = grid.cells().iter().find(|c| c.sets == 16 && c.ways == ways);
        assert_eq!(cell.expect("cell in grid").size_bytes, 16 * ways * 16);
    }
    assert_grid_identical(&trace, &spec);
}

#[test]
fn write_through_without_allocate_is_rejected() {
    let mut spec = GridSpec::new(vec![256], vec![2]);
    spec.write_policy = WritePolicy::WriteThrough { allocate: false };
    assert!(matches!(
        one_pass_grid(&[], &spec),
        Err(ConfigError::OnePassUnsupported { .. })
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random streams over a small address space (dense conflicts) keep
    /// the whole grid bit-identical to per-config simulation for every
    /// supported write policy.
    #[test]
    fn random_streams_stay_bit_identical(
        seed in 0u64..1_000_000,
        policy_pick in 0usize..3,
        len in 200usize..2_000,
    ) {
        let policy = [
            WritePolicy::CopyBack { fetch_on_write: true },
            WritePolicy::CopyBack { fetch_on_write: false },
            WritePolicy::WriteThrough { allocate: true },
        ][policy_pick];
        let trace = seeded_stream(seed, len);
        let mut spec = GridSpec::new(vec![32, 64, 128, 512], vec![1, 2, 4]);
        spec.write_policy = policy;
        spec.include_fully_associative = true;
        let grid = one_pass_grid(&trace, &spec).expect("valid spec");
        let reference = per_config_reference(&trace, &spec);
        for ((cell, got), want) in grid.iter().zip(&reference) {
            prop_assert_eq!(
                got, want,
                "cell {}B x {}-way under {:?}", cell.size_bytes, cell.ways, policy
            );
        }
    }

    /// Repeat-dense streams (consecutive reads and writes to one line)
    /// stay bit-identical for every supported write policy.
    #[test]
    fn repeat_dense_streams_stay_bit_identical(
        seed in 1u64..1_000_000,
        policy_pick in 0usize..3,
        len in 200usize..2_000,
    ) {
        let trace = train_stream(seed, len);
        let mut spec = GridSpec::new(vec![32, 64, 128, 512, 2048], vec![1, 2, 4]);
        spec.write_policy = POLICIES[policy_pick];
        spec.include_fully_associative = true;
        let grid = one_pass_grid(&trace, &spec).expect("valid spec");
        let reference = per_config_reference(&trace, &spec);
        for ((cell, got), want) in grid.iter().zip(&reference) {
            prop_assert_eq!(
                got, want,
                "cell {}B x {}-way under {:?}", cell.size_bytes, cell.ways, spec.write_policy
            );
        }
    }
}
