//! Trace-driven cache simulator for the Smith '85 reproduction.
//!
//! This crate implements every cache design choice the paper evaluates:
//!
//! * **Mapping** — direct, set-associative, fully-associative
//!   ([`Mapping`]);
//! * **Replacement** — LRU, FIFO, random ([`Replacement`]);
//! * **Write policy** — write-through (± allocate) and copy-back
//!   (± fetch-on-write) ([`WritePolicy`]);
//! * **Fetch policy** — demand and "prefetch always" with line `i + 1`
//!   lookahead ([`FetchPolicy`]);
//! * **Organisation** — [`UnifiedCache`] and [`SplitCache`] (separate
//!   instruction and data caches purged together);
//! * **Task switching** — periodic full purges
//!   ([`CacheConfig::purge_interval`]);
//! * **Sector caches** — the Z80000's block/subblock design
//!   ([`SectorCache`]);
//! * **One-pass LRU sweeps** — Mattson's stack algorithm generalised to
//!   set-associative caches: every size × associativity cell of a grid,
//!   miss ratios and write-back traffic included, in a single trace
//!   traversal ([`OnePassEngine`], [`one_pass_grid`]). A fully
//!   associative grid ([`GridSpec::fully_associative`]) is the paper's
//!   Table 1 size sweep;
//! * **Write combining** — §3.3's adjacent-short-write merging for
//!   write-through systems ([`WriteBuffer`]).
//!
//! # Example
//!
//! ```
//! use smith85_cachesim::{CacheConfig, Simulator, UnifiedCache};
//! use smith85_trace::{Addr, MemoryAccess};
//!
//! let config = CacheConfig::paper_table1(4096)?;
//! let mut cache = UnifiedCache::new(config)?;
//! cache.run((0..10_000u64).map(|i| {
//!     MemoryAccess::read(Addr::new((i * 24) % 8192), 4)
//! }));
//! println!("miss ratio: {:.3}", cache.stats().miss_ratio());
//! # Ok::<(), smith85_cachesim::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod config;
mod core_ops;
mod error;
pub mod fast_hash;
mod full_lru;
mod line;
mod one_pass;
mod sector;
mod set_assoc;
mod stats;
mod system;
mod write_buffer;

pub use cache::Cache;
pub use config::{CacheConfig, CacheConfigBuilder, FetchPolicy, Mapping, Replacement, WritePolicy};
pub use error::ConfigError;
pub use fast_hash::{FastBuildHasher, FastHashMap, FastHashSet, FxHasher};
pub use line::Evicted;
pub use one_pass::{one_pass_grid, GridCell, GridSpec, OnePassEngine, OnePassGrid};
pub use sector::{SectorCache, SectorCacheConfig};
pub use stats::CacheStats;
pub use system::{Simulator, SplitCache, UnifiedCache};
pub use write_buffer::{WriteBuffer, WriteBufferStats};

/// The cache-size sweep used throughout the paper's tables and figures:
/// 32 bytes through 64 KiB in powers of two.
pub const PAPER_SIZES: [usize; 12] = [
    32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sizes_are_doubling() {
        for w in PAPER_SIZES.windows(2) {
            assert_eq!(w[1], w[0] * 2);
        }
        assert_eq!(PAPER_SIZES[0], 32);
        assert_eq!(PAPER_SIZES[11], 65536);
    }
}
