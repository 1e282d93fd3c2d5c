//! Property-based tests over the core simulator invariants, driven by
//! proptest-generated reference streams.

use proptest::prelude::*;
use smith85::cachesim::{
    one_pass_grid, Cache, CacheConfig, GridSpec, Simulator, SplitCache, UnifiedCache,
};
use smith85::trace::io::{read_binary, read_text, write_binary, write_text};
use smith85::trace::{AccessKind, Addr, MemoryAccess, Trace};

fn arb_access() -> impl Strategy<Value = MemoryAccess> {
    (
        0u64..0x4000,
        prop_oneof![
            Just(AccessKind::InstructionFetch),
            Just(AccessKind::Read),
            Just(AccessKind::Write),
        ],
        prop_oneof![Just(1u8), Just(2), Just(4), Just(8)],
    )
        .prop_map(|(addr, kind, size)| MemoryAccess::new(kind, Addr::new(addr), size))
}

fn arb_trace(max_len: usize) -> impl Strategy<Value = Trace> {
    prop::collection::vec(arb_access(), 1..max_len).prop_map(Trace::from)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Mattson's stack algorithm (the one-pass engine's size sweep)
    /// agrees exactly with direct simulation of a fully-associative LRU
    /// cache, at every size, for any stream.
    #[test]
    fn stack_algorithm_matches_direct_simulation(trace in arb_trace(400)) {
        let sizes = vec![32usize, 128, 512, 2048];
        let grid = one_pass_grid(trace.as_slice(), &GridSpec::fully_associative(sizes.clone(), 16))
            .unwrap();
        for size in sizes {
            let mut cache = Cache::new(CacheConfig::paper_table1(size).unwrap()).unwrap();
            for a in &trace {
                cache.access(*a);
            }
            prop_assert_eq!(
                grid.fully_associative(size).unwrap(),
                cache.stats(),
                "size {}", size
            );
        }
    }

    /// The LRU inclusion property: a larger fully-associative cache never
    /// misses more, and at a fixed set count neither does one with more
    /// ways.
    #[test]
    fn lru_inclusion_monotonicity(trace in arb_trace(400)) {
        let sizes = vec![32usize, 64, 128, 256, 512, 1024, 4096];
        let mut spec = GridSpec::fully_associative(sizes.clone(), 16);
        spec.ways = vec![1, 2, 4, 8, 16, 32, 64];
        let grid = one_pass_grid(trace.as_slice(), &spec).unwrap();
        let mut last = u64::MAX;
        for size in sizes {
            let m = grid.fully_associative(size).unwrap().total_misses();
            prop_assert!(m <= last, "misses grew at size {}", size);
            last = m;
        }
        // The column at 2 sets: 32·w bytes in w ways.
        let mut last = u64::MAX;
        for (cell, stats) in grid.iter().filter(|(cell, _)| cell.sets == 2) {
            prop_assert!(stats.total_misses() <= last, "misses grew at {} ways", cell.ways);
            last = stats.total_misses();
        }
    }

    /// Traffic accounting is conserved: every byte fetched corresponds to
    /// a whole line moved; every pushed byte to a dirty push.
    #[test]
    fn traffic_conservation(trace in arb_trace(400)) {
        let config = CacheConfig::paper_table1(256).unwrap();
        let mut cache = Cache::new(config).unwrap();
        for a in &trace {
            cache.access(*a);
        }
        let s = cache.stats();
        prop_assert_eq!(s.bytes_fetched, 16 * s.lines_fetched());
        prop_assert_eq!(s.bytes_pushed, 16 * s.dirty_pushes);
        prop_assert!(s.dirty_pushes <= s.pushes);
        prop_assert!(s.total_misses() <= s.total_refs());
        // Copy-back with fetch-on-write: every miss fetches exactly one line.
        prop_assert_eq!(s.demand_fetches, s.total_misses());
    }

    /// Both on-disk formats round-trip arbitrary traces.
    #[test]
    fn trace_formats_roundtrip(trace in arb_trace(200)) {
        let mut text = Vec::new();
        write_text(&mut text, &trace).unwrap();
        prop_assert_eq!(&read_text(text.as_slice()).unwrap(), &trace);

        let mut bin = Vec::new();
        write_binary(&mut bin, &trace).unwrap();
        prop_assert_eq!(&read_binary(bin.as_slice()).unwrap(), &trace);
        prop_assert_eq!(bin.len(), 8 + 10 * trace.len());
    }

    /// The characterizer's fractions always sum to one and its footprint
    /// identity holds.
    #[test]
    fn characterizer_invariants(trace in arb_trace(400)) {
        let s = trace.characteristics();
        prop_assert!((s.ifetch_fraction() + s.read_fraction() + s.write_fraction() - 1.0).abs() < 1e-9);
        prop_assert_eq!(s.address_space_bytes(), 16 * (s.instruction_lines() + s.data_lines()));
        prop_assert!(s.branches() <= s.ifetches());
    }

    /// A split cache sees exactly the input references, partitioned by
    /// kind; a unified cache sees them all.
    #[test]
    fn organisations_conserve_references(trace in arb_trace(400)) {
        let mut split = SplitCache::paper_split(256, 64).unwrap();
        let mut unified = UnifiedCache::new(CacheConfig::paper_table1(256).unwrap()).unwrap();
        for a in &trace {
            split.access(*a);
            unified.access(*a);
        }
        let ifetches = trace.iter().filter(|a| a.kind.is_ifetch()).count() as u64;
        prop_assert_eq!(split.instruction_stats().total_refs(), ifetches);
        prop_assert_eq!(
            split.total_stats().total_refs(),
            trace.len() as u64
        );
        prop_assert_eq!(unified.stats().total_refs(), trace.len() as u64);
    }

    /// Purging is safe anywhere in a stream and leaves the cache usable
    /// and empty.
    #[test]
    fn purge_anywhere(trace in arb_trace(200), purge_at in 1usize..200) {
        let mut cache = Cache::new(CacheConfig::paper_table1(512).unwrap()).unwrap();
        for (i, a) in trace.iter().enumerate() {
            if i == purge_at {
                cache.purge();
                prop_assert_eq!(cache.resident_lines(), 0);
            }
            cache.access(*a);
        }
        prop_assert!(cache.resident_lines() <= 32);
    }
}
