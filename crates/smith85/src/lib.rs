//! Umbrella crate for the reproduction of Alan Jay Smith's ISCA 1985 paper
//! *"Cache Evaluation and the Impact of Workload Choice"*.
//!
//! This crate re-exports the whole workspace behind one dependency:
//!
//! * [`trace`] — the memory-reference trace substrate (access model,
//!   formats, characterizer, mixer, interface emulation),
//! * [`synth`] — the synthetic workload generator, the 49-trace catalog,
//!   the perturbation adapters and the paper's published reference data,
//! * [`cachesim`] — the trace-driven cache simulator (every policy the
//!   paper evaluates, plus stack and all-associativity analysis),
//! * [`core`] — the experiment harness reproducing every table and
//!   figure, the design targets, and the performance/bus models.
//!
//! The `smith85-cli` crate provides the `smith85` tool, whose
//! `experiment` command regenerates each reproduced table/figure, and
//! `smith85-bench` the `throughput` benchmark of the simulator kernels.
//!
//! # Quickstart
//!
//! ```
//! use smith85::cachesim::{CacheConfig, Simulator, UnifiedCache};
//! use smith85::synth::catalog;
//!
//! // Generate 50,000 references of the VAX "VSPICE"-profile workload ...
//! let spec = catalog::by_name("VSPICE").expect("catalog trace");
//! let trace = spec.generate(50_000);
//!
//! // ... and run them through a 4 KiB fully-associative LRU cache with
//! // 16-byte lines (the paper's Table 1 configuration).
//! let config = CacheConfig::paper_table1(4 * 1024).expect("valid size");
//! let mut cache = UnifiedCache::new(config).expect("valid config");
//! cache.run(trace.iter().copied());
//! let miss_ratio = cache.stats().miss_ratio();
//! assert!(miss_ratio > 0.0 && miss_ratio < 1.0);
//! ```

pub use smith85_cachesim as cachesim;
pub use smith85_core as core;
pub use smith85_synth as synth;
pub use smith85_trace as trace;
