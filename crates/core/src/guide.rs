//! # A guided tour: using this reproduction the way the paper intends
//!
//! The paper's audience is a cache designer with a decision to make.
//! This module walks through the three workflows the workspace supports,
//! with runnable examples (each compiles and runs under `cargo test`).
//!
//! ## 1. Evaluate a design against the paper's workload
//!
//! Pick workloads from the catalog, run your configuration, and compare
//! with the Table 5 design target — the paper's "design estimate" loop:
//!
//! ```
//! use smith85_cachesim::{CacheConfig, Mapping, Simulator, UnifiedCache};
//! use smith85_core::targets::{design_target, CacheKind};
//! use smith85_synth::catalog;
//!
//! # fn main() -> Result<(), smith85_cachesim::ConfigError> {
//! // A candidate design: 8 KiB, 2-way, 16-byte lines.
//! let config = CacheConfig::builder(8 * 1024)
//!     .mapping(Mapping::SetAssociative(2))
//!     .build()?;
//!
//! // Run it over a compiler workload (the paper's pessimistic middle).
//! let workload = catalog::by_name("FCOMP1").expect("in catalog");
//! let mut cache = UnifiedCache::new(config)?;
//! cache.run(workload.stream().take(60_000));
//!
//! // Compare with the paper's design target for that size.
//! let measured = cache.stats().miss_ratio();
//! let target = design_target(8 * 1024, CacheKind::Unified);
//! assert!(measured < 2.0 * target); // in the target's neighbourhood
//! # Ok(())
//! # }
//! ```
//!
//! The catch the whole paper is about: had you picked `"ZGREP"` instead
//! of `"FCOMP1"`, the measured miss ratio would be several times lower
//! and the design would look deceptively safe. Always sweep the groups
//! (`catalog::group`) before believing a number.
//!
//! ## 2. Model your own workload
//!
//! If you know your program's reference mix and footprint (the Table 2
//! columns), describe it as a profile, check it, and get its whole
//! miss-ratio curve in one pass of the one-pass engine:
//!
//! ```
//! use smith85_cachesim::{one_pass_grid, GridSpec, PAPER_SIZES};
//! use smith85_synth::{Locality, ProgramProfile};
//! use smith85_trace::{MachineArch, SourceLanguage};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let profile = ProgramProfile {
//!     name: "MYDB".to_string(),
//!     arch: MachineArch::Vax,
//!     language: SourceLanguage::C,
//!     description: "custom workload".to_string(),
//!     ifetch_fraction: 0.45,
//!     read_fraction: 0.38,
//!     branch_fraction: 0.16,
//!     code_bytes: 48 * 1024,
//!     data_bytes: 96 * 1024,
//!     locality: Locality::default(),
//!     seed: 0x5_8a17,
//!     paper_length: 250_000,
//! };
//! profile.validate()?;
//!
//! let trace: Vec<_> = profile.generator().take(60_000).collect();
//! let curve = one_pass_grid(&trace, &GridSpec::fully_associative(PAPER_SIZES.to_vec(), 16))?;
//! let miss = |size| curve.fully_associative(size).map_or(1.0, |s| s.miss_ratio());
//! // The knee of the curve is where your money goes.
//! assert!(miss(16 * 1024) < miss(1024));
//! # Ok(())
//! # }
//! ```
//!
//! ## 3. Port numbers to a machine that does not exist
//!
//! §4.3's fudge factors, programmatically — the correction that would
//! have saved the Z80000's projections:
//!
//! ```
//! use smith85_core::fudge;
//! use smith85_trace::MachineArch;
//!
//! // Measured on a 16-bit part; predicting its 32-bit successor.
//! let measured_16bit = 0.12;
//! let factor = fudge::miss_ratio_fudge(MachineArch::Z8000, MachineArch::Z80000);
//! let predicted_32bit = measured_16bit * factor;
//! assert!(predicted_32bit > 0.25); // Smith's ~0.30, not Alpert's 0.12
//!
//! // And the full reference-mix estimate for a new simple machine:
//! let mix = fudge::estimate_mix(0.3);
//! assert!(mix.ifetch > 0.6); // simple ISA → more instructions
//! ```
//!
//! ## Where to go next
//!
//! * Every table/figure: `smith85 experiment NAME` (`table1`, ...; `all`
//!   for every one), names from [`crate::runner::registry`].
//! * The experiments as a library: [`crate::experiments`].
//! * Sanity gates: `smith85 experiment conclusions` re-derives §5's
//!   claims and exits nonzero if a change breaks one.
//! * The substitution's audit trail: `smith85 experiment calibration`.
