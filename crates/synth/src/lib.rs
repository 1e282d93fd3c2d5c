//! Synthetic workload substrate for the Smith '85 reproduction.
//!
//! The paper's 49 program address traces are proprietary and lost to time;
//! this crate is the substitution documented in `DESIGN.md`: a program-
//! behaviour model whose knobs are exactly the characteristics the paper
//! publishes per trace (Table 2), plus a catalog of 49 named profiles
//! calibrated to those rows.
//!
//! * [`instr`] — the instruction-stream model (procedures, runs, branches);
//! * [`data`] — the data-reference model (stack / static-Zipf / sequential
//!   segments with phase drift);
//! * [`dist`] — the deterministic distributions underneath;
//! * [`profile`] — [`ProgramProfile`]: a workload description that compiles
//!   to an infinite, deterministic access stream, and [`ProfileError`], why
//!   a hand-built one cannot;
//! * [`catalog`] — the 49 calibrated traces, the Table 1 row expansion
//!   (57 rows) and the Table 3 multiprogramming mixes;
//! * [`perturb`] — the OS-interrupt and DMA perturbations real machines
//!   add on top of what traces capture (§1.1);
//! * [`paper_data`] — the paper's published per-workload and per-group
//!   numbers, as data, for calibration auditing.
//!
//! # Example
//!
//! ```
//! use smith85_synth::catalog;
//!
//! let mvs = catalog::by_name("MVS1").expect("in catalog");
//! let trace = mvs.generate(10_000);
//! let stats = trace.characteristics();
//! // The OS profile keeps the paper's reference mix.
//! assert!((stats.ifetch_fraction() - 0.52).abs() < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod data;
pub mod dist;
pub mod instr;
pub mod paper_data;
pub mod perturb;
pub mod profile;

pub use catalog::{TraceGroup, TraceSpec};
pub use profile::{Locality, ProfileError, ProgramGenerator, ProgramProfile};
