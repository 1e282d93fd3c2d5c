//! Property tests of the simulator cores against each other: different
//! implementations of the same policy must agree exactly.

use proptest::prelude::*;
use smith85_cachesim::{
    one_pass_grid, Cache, CacheConfig, FetchPolicy, GridSpec, Mapping, Replacement, SectorCache,
    SectorCacheConfig, Simulator, UnifiedCache, WriteBuffer, WritePolicy,
};
use smith85_trace::{AccessKind, Addr, MemoryAccess};

fn arb_access() -> impl Strategy<Value = MemoryAccess> {
    (
        0u64..0x2000,
        prop_oneof![
            Just(AccessKind::InstructionFetch),
            Just(AccessKind::Read),
            Just(AccessKind::Write),
        ],
    )
        .prop_map(|(addr, kind)| MemoryAccess::new(kind, Addr::new(addr & !3), 4))
}

fn arb_stream(max: usize) -> impl Strategy<Value = Vec<MemoryAccess>> {
    prop::collection::vec(arb_access(), 1..max)
}

/// Any configuration of every core, policy and purge setting (a purge
/// interval of 0 means none; the others purge every few hundred
/// references, so short streams cross them).
fn arb_config() -> impl Strategy<Value = CacheConfig> {
    (
        prop_oneof![Just(128usize), Just(512), Just(2_048)],
        prop_oneof![
            Just(Mapping::Direct),
            Just(Mapping::SetAssociative(2)),
            Just(Mapping::SetAssociative(4)),
            Just(Mapping::SetAssociative(8)),
            Just(Mapping::FullyAssociative),
        ],
        prop_oneof![
            Just(Replacement::Lru),
            Just(Replacement::Fifo),
            Just(Replacement::Random { seed: 85 }),
            Just(Replacement::TreePlru),
        ],
        prop_oneof![
            Just(WritePolicy::CopyBack {
                fetch_on_write: true
            }),
            Just(WritePolicy::CopyBack {
                fetch_on_write: false
            }),
            Just(WritePolicy::WriteThrough { allocate: true }),
            Just(WritePolicy::WriteThrough { allocate: false }),
        ],
        prop_oneof![Just(FetchPolicy::Demand), Just(FetchPolicy::PrefetchAlways)],
        0u64..300,
    )
        .prop_map(
            |(size, mapping, replacement, write_policy, fetch_policy, purge)| {
                CacheConfig::builder(size)
                    .mapping(mapping)
                    .replacement(replacement)
                    .write_policy(write_policy)
                    .fetch_policy(fetch_policy)
                    .purge_interval((purge > 0).then_some(purge))
                    .build()
                    .expect("every generated config is valid")
            },
        )
}

fn run_cache(config: CacheConfig, stream: &[MemoryAccess]) -> u64 {
    let mut cache = Cache::new(config).expect("valid config");
    for a in stream {
        cache.access(*a);
    }
    cache.stats().total_misses()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The slice loop and the per-reference entry point are one kernel:
    /// `Cache::run` over a stream, even cut into two slices at any
    /// point, leaves exactly the state and statistics of calling
    /// `Cache::access` once per reference.
    #[test]
    fn run_slice_equals_per_reference_access(
        config in arb_config(),
        stream in arb_stream(600),
        cut in 0usize..600,
    ) {
        let mut one = Cache::new(config).unwrap();
        for a in &stream {
            one.access(*a);
        }
        let mut sliced = Cache::new(config).unwrap();
        let (head, tail) = stream.split_at(cut.min(stream.len()));
        sliced.run(head);
        sliced.run(tail);
        prop_assert_eq!(one.stats(), sliced.stats());
        prop_assert_eq!(one.resident_lines(), sliced.resident_lines());
        for a in &stream {
            prop_assert_eq!(one.would_hit(*a), sliced.would_hit(*a));
        }
    }

    /// `UnifiedCache::run_slice` (the pooled-replay path) and
    /// `Simulator::run` over an iterator give the same statistics.
    #[test]
    fn unified_run_slice_equals_simulator_run(
        config in arb_config(),
        stream in arb_stream(600),
    ) {
        let mut sliced = UnifiedCache::new(config).unwrap();
        sliced.run_slice(&stream);
        let mut iterated = UnifiedCache::new(config).unwrap();
        iterated.run(stream.iter().copied());
        prop_assert_eq!(sliced.total_stats(), iterated.total_stats());
        prop_assert_eq!(
            sliced.cache().resident_lines(),
            iterated.cache().resident_lines()
        );
    }

    /// The O(1) fully-associative LRU core and the scanning set-
    /// associative core (as one giant set) agree exactly. The scanning
    /// path is forced through `SetAssociative(lines)`, which builds one
    /// set holding every line.
    #[test]
    fn full_lru_equals_one_set_scan(stream in arb_stream(500)) {
        let size = 512; // 32 lines
        let fast = run_cache(CacheConfig::paper_table1(size).unwrap(), &stream);
        let slow_cfg = CacheConfig::builder(size)
            .mapping(Mapping::SetAssociative(32))
            .build()
            .unwrap();
        // Sanity: that config really is one set.
        prop_assert_eq!(slow_cfg.sets(), 1);
        prop_assert_eq!(fast, run_cache(slow_cfg, &stream));
    }

    /// A sector cache whose transfer unit equals its sector behaves
    /// exactly like a plain fully-associative LRU cache of the same
    /// geometry, on read-only streams (the plain cache's fetch-on-write
    /// matches too, since both count the same misses).
    #[test]
    fn whole_sector_cache_equals_plain_cache(stream in arb_stream(400)) {
        let mut sector = SectorCache::new(SectorCacheConfig {
            size_bytes: 256,
            sector_bytes: 16,
            fetch_bytes: 16,
        })
        .unwrap();
        let mut plain = Cache::new(CacheConfig::paper_table1(256).unwrap()).unwrap();
        for a in &stream {
            sector.access(*a);
            plain.access(*a);
        }
        prop_assert_eq!(
            sector.stats().total_misses(),
            plain.stats().total_misses()
        );
    }

    /// The one-pass grid's column at a fixed set count agrees with
    /// direct simulation at every power-of-two way count.
    #[test]
    fn one_pass_fixed_set_column_matches_direct(stream in arb_stream(400)) {
        let sets = 8usize;
        let sizes = [1usize, 2, 4].map(|ways| sets * ways * 16);
        let grid = one_pass_grid(&stream, &GridSpec::new(sizes.to_vec(), vec![1, 2, 4])).unwrap();
        for ways in [1usize, 2, 4] {
            let mapping = if ways == 1 {
                Mapping::Direct
            } else {
                Mapping::SetAssociative(ways)
            };
            let cfg = CacheConfig::builder(sets * ways * 16)
                .mapping(mapping)
                .build()
                .unwrap();
            let misses = grid.cell_stats(sets * ways * 16, ways).unwrap().total_misses();
            prop_assert_eq!(misses, run_cache(cfg, &stream), "{} ways", ways);
        }
    }

    /// Prefetch-always can change *which* lines miss but never changes
    /// the reference count, and prefetched bytes always cover the extra
    /// traffic exactly.
    #[test]
    fn prefetch_accounting(stream in arb_stream(400)) {
        let cfg = CacheConfig::builder(512)
            .fetch_policy(FetchPolicy::PrefetchAlways)
            .build()
            .unwrap();
        let mut cache = Cache::new(cfg).unwrap();
        for a in &stream {
            cache.access(*a);
        }
        let s = cache.stats();
        prop_assert_eq!(s.total_refs(), stream.len() as u64);
        prop_assert_eq!(s.bytes_fetched, 16 * (s.demand_fetches + s.prefetch_fetches));
        // Every reference performs exactly one prefetch check.
        prop_assert_eq!(
            s.prefetch_fetches + s.prefetch_hits,
            stream.len() as u64
        );
    }

    /// Replacement policies all keep the cache within capacity and count
    /// consistently.
    #[test]
    fn every_policy_is_bounded(stream in arb_stream(400), policy in 0usize..4) {
        let replacement = [
            Replacement::Lru,
            Replacement::Fifo,
            Replacement::Random { seed: 11 },
            Replacement::TreePlru,
        ][policy];
        let cfg = CacheConfig::builder(256)
            .mapping(Mapping::SetAssociative(4))
            .replacement(replacement)
            .build()
            .unwrap();
        let mut cache = Cache::new(cfg).unwrap();
        for a in &stream {
            cache.access(*a);
        }
        prop_assert!(cache.resident_lines() <= 16);
        let s = cache.stats();
        prop_assert!(s.total_misses() <= s.total_refs());
        prop_assert!(s.pushes <= s.total_misses());
    }

    /// Write-buffer conservation: every store ends up either combined or
    /// written to memory (after a flush), never both, never lost.
    #[test]
    fn write_buffer_conserves_stores(stream in arb_stream(400)) {
        let mut wb = WriteBuffer::new(4, 4);
        let stores = stream.iter().filter(|a| a.kind.is_write()).count() as u64;
        for a in &stream {
            if a.kind.is_write() {
                wb.write(*a);
            }
        }
        wb.flush();
        let s = wb.stats();
        prop_assert_eq!(s.stores, stores);
        // 4-byte aligned 4-byte stores occupy exactly one unit each.
        prop_assert_eq!(s.combined + s.memory_writes, stores);
        prop_assert_eq!(wb.occupancy(), 0);
    }
}

/// Naive LRU stack-distance reference built on `std` collections (a
/// linear recency scan): the ground truth the fast-hash one-pass
/// engine's fully-associative cells must reproduce bit-for-bit.
fn reference_lru_misses(stream: &[MemoryAccess], line_size: usize, cache_bytes: usize) -> u64 {
    let lines = cache_bytes / line_size;
    let mut stack: Vec<u64> = Vec::new(); // most recent first
    let mut misses = 0u64;
    for a in stream {
        let line = a.line(line_size).get();
        match stack.iter().position(|&l| l == line) {
            None => {
                misses += 1; // cold
                stack.insert(0, line);
            }
            Some(pos) => {
                if pos + 1 > lines {
                    misses += 1;
                }
                stack.remove(pos);
                stack.insert(0, line);
            }
        }
    }
    misses
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The one-pass engine's size sweep (FxHash interning, bounded LRU
    /// list) gives exactly the miss counts a linear-scan reference
    /// does at every size, for random streams. Hash choice must never
    /// leak into results.
    #[test]
    fn fast_hash_one_pass_matches_linear_scan_reference(stream in arb_stream(400)) {
        let line_size = 16;
        let sizes = vec![16, 64, 256, 1024, 4096];
        let grid = one_pass_grid(&stream, &GridSpec::fully_associative(sizes.clone(), line_size))
            .unwrap();
        for cache_bytes in sizes {
            prop_assert_eq!(
                grid.fully_associative(cache_bytes).unwrap().total_misses(),
                reference_lru_misses(&stream, line_size, cache_bytes),
                "divergence at {} bytes",
                cache_bytes
            );
        }
    }
}
