//! Quickstart: generate a workload from the catalog, run it through the
//! paper's Table 1 cache configuration, and print what the designer cares
//! about.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use smith85::cachesim::{one_pass_grid, CacheConfig, GridSpec, Simulator, UnifiedCache, PAPER_SIZES};
use smith85::synth::catalog;

fn main() {
    // 1. Pick a workload. The catalog carries all 49 of the paper's
    //    traces as calibrated synthetic profiles.
    let spec = catalog::by_name("VSPICE").expect("VSPICE is in the catalog");
    println!("workload: {} — {}", spec.name(), spec.profile().description);

    // 2. Characterize it (the paper's Table 2 columns).
    let trace = spec.generate(100_000);
    println!("characteristics: {}", trace.characteristics());

    // 3. Run one cache: 4 KiB, fully associative, LRU, 16-byte lines,
    //    copy-back with fetch-on-write — the paper's primary config.
    let config = CacheConfig::paper_table1(4 * 1024).expect("valid size");
    let mut cache = UnifiedCache::new(config).expect("valid config");
    cache.run(trace.iter().copied());
    println!("4 KiB unified cache: {}", cache.stats());

    // 4. Or get the whole miss-ratio-versus-size curve in one pass with
    //    the one-pass engine (Mattson's stack algorithm).
    let spec = GridSpec::fully_associative(PAPER_SIZES.to_vec(), 16);
    let curve = one_pass_grid(trace.as_slice(), &spec).expect("valid sizes");
    println!("\nmiss ratio by cache size (single pass):");
    for (cell, stats) in curve.iter() {
        println!("  {:>6} B  {:.4}", cell.size_bytes, stats.miss_ratio());
    }
}
