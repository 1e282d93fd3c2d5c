//! One-import surface for the session API: `use smith85_core::prelude::*;`
//! brings in the session builder, the metrics registry types, the
//! validated config builder and the shared trace pool.

pub use crate::experiments::{
    ConfigError, ExperimentConfig, ExperimentConfigBuilder, Workload,
};
pub use crate::session::{SimSession, SimSessionBuilder, SplitStats};
pub use crate::trace_pool::{PoolStats, TracePool};
pub use smith85_cachesim::{CacheConfig, CacheConfigBuilder};
pub use smith85_obs::{Registry, RegistrySnapshot};
