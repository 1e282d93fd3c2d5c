//! Evaluation harness reproducing every table and figure of Alan Jay
//! Smith's *"Cache Evaluation and the Impact of Workload Choice"*
//! (ISCA 1985).
//!
//! The crate layers the paper's contribution on top of the workspace
//! substrates (`smith85-trace`, `smith85-synth`, `smith85-cachesim`):
//!
//! * [`experiments`] — one module per table/figure; each returns a
//!   serializable result with a `render()` that prints the paper-style
//!   rows;
//! * [`targets`] — the Table 5 design-target miss ratios and Table 4
//!   traffic factors, with interpolation;
//! * [`hard80`], [`clark83`], [`alpert83`] — the external measurements
//!   the paper quotes, as analytic reference models;
//! * [`fudge`] — §4.3's architecture "fudge factors" for extrapolating a
//!   workload to an unbuilt machine;
//! * [`performance`] — the CPI/MIPS model behind the introduction's
//!   cost-effectiveness arithmetic;
//! * [`bus`] — the shared-bus capacity model behind §3.5.2's
//!   multiprocessor argument;
//! * [`report`], [`sweep`], [`stat_util`] — rendering, parallel sweeps,
//!   percentiles;
//! * [`trace_pool`] — the generate-once/replay-many trace cache every
//!   sweep draws from;
//! * [`session`] — the instrumented [`SimSession`]
//!   entry surface shared by the CLI, the suite runner and the serve
//!   workers (see also [`prelude`]);
//! * [`runner`] — the checkpointed, resumable suite runner behind
//!   `smith85 suite`;
//! * [`guide`] — a guided tour of the three designer workflows, with
//!   runnable examples.
//!
//! # Example
//!
//! ```no_run
//! use smith85_core::experiments::{table1, ExperimentConfig};
//!
//! let result = table1::run(&ExperimentConfig::paper());
//! println!("{}", result.render());
//! ```
//!
//! (Use [`ExperimentConfig::quick`](experiments::ExperimentConfig::quick)
//! for a fast smoke run.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alpert83;
pub mod bus;
pub mod clark83;
pub mod experiments;
pub mod fudge;
pub mod guide;
pub mod hard80;
pub mod performance;
pub mod prelude;
pub mod report;
pub mod runner;
pub mod session;
pub mod stat_util;
pub mod sweep;
pub mod targets;
pub mod trace_pool;

pub use session::{Probe, ProbeHandle, SimSession, SimSessionBuilder};
pub use trace_pool::{PoolStats, TracePool};
