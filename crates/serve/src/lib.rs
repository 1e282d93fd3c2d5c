//! smith85-serve: a networked simulation service for the Smith '85
//! cache-evaluation reproduction.
//!
//! The server speaks newline-delimited JSON over any [`transport`]
//! (TCP, or a Unix socket). Serving is unix-only: one poll(2) event loop
//! owns every connection, the `/metrics` endpoint included — idle
//! connections cost a pollfd entry, not a thread — and expensive
//! requests (`simulate`, `sweep`) flow through a bounded work queue
//! with explicit admission control: a full queue answers `overloaded`
//! immediately instead of building an unbounded backlog. Every job runs
//! through an instrumented [`smith85_core::session::SimSession`]: trace
//! generation goes through the shared
//! [`smith85_core::trace_pool::TracePool`] (so concurrent requests for
//! the same workload materialize it once) and every job feeds the
//! session's metrics registry, exposed both as a `metrics` request and
//! as an optional Prometheus text endpoint
//! ([`ServeOptions::metrics_addr`]).
//!
//! For scale-out, [`RouterOptions`] turns a node into a shard router: a
//! consistent hash ring spreads `(workload, seed, config)` keys across
//! backend shards, a prober marks dead shards down and resurrects them,
//! per-shard in-flight budgets answer typed `overloaded` instead of
//! queueing, and a refused shard fails over to the next distinct shard
//! on the ring.
//!
//! Quick tour:
//!
//! ```no_run
//! use smith85_serve::{Client, Request, Server, ServeOptions};
//!
//! let server = Server::spawn(ServeOptions {
//!     addr: "127.0.0.1:0".to_string(),
//!     ..ServeOptions::default()
//! })?;
//! let mut client = Client::builder()
//!     .addr(server.addr().to_string())
//!     .connect()
//!     .map_err(std::io::Error::other)?;
//! let response = client.call(&Request::Catalog).map_err(std::io::Error::other)?;
//! println!("{}", response.encode());
//! let final_stats = server.stop()?;
//! println!("completed {} jobs", final_stats.completed);
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! The wire schema lives in [`protocol`]; `EXPERIMENTS.md` documents
//! it with copy-pasteable sessions.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
#[cfg(unix)]
pub(crate) mod event_loop;
pub mod exec;
#[cfg(unix)]
pub(crate) mod poll;
pub mod protocol;
pub mod queue;
pub mod router;
pub mod server;
#[cfg(unix)]
pub mod signal;
pub(crate) mod stats;
pub mod transport;

pub use client::{Client, ClientBuilder, ClientError, RetryPolicy, MAX_BACKOFF_MS};
pub use protocol::{
    CacheSpec, CatalogResult, ErrorBody, ErrorCode, Request, Response, RouterCounters,
    SimulateResult, SimulateSpec, StatsResult, SweepResult, SweepSpec, PROTOCOL_VERSION,
};
pub use router::RouterOptions;
pub use server::{ConfigError, RunningServer, ServeOptions, Server, ShutdownHandle};
pub use smith85_obs::RegistrySnapshot;
/// The wire protocol's JSON codec: the workspace's one codec, which
/// lives in `smith85-tracelog` so the trace journal shares it.
pub use smith85_tracelog::json;
#[cfg(unix)]
pub use transport::bind_unix;
pub use transport::{Endpoint, Listener, Transport};
