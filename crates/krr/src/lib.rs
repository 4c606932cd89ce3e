//! # krr
//!
//! One-pass Miss Ratio Curve construction for random sampling-based LRU
//! caches — a from-scratch Rust reproduction of *Efficient Modeling of
//! Random Sampling-Based LRU* (Yang, Wang & Wang, ICPP 2021).
//!
//! This facade re-exports the workspace crates:
//!
//! * [`core`] — the KRR stack algorithm, fast updaters, spatial
//!   sampling, byte-level distances, and the [`KrrModel`] profiler.
//! * [`trace`] — synthetic MSR/YCSB/Twitter-like workloads.
//! * [`sim`] — ground-truth exact-LRU and K-LRU simulators.
//! * [`redis`] — a mini-Redis with the real eviction machinery.
//! * [`load`] — an open-loop RESP load harness with seeded arrival
//!   schedules and tail-latency reports.
//! * [`baselines`] — the Olken and SHARDS exact-LRU baselines.
//!
//! ## Example: model a Redis cache (maxmemory-samples = 5)
//!
//! ```
//! use krr::prelude::*;
//!
//! let trace = krr::trace::ycsb::WorkloadC::new(5_000, 0.99).generate(50_000, 42);
//! let mut model = KrrModel::new(KrrConfig::new(5.0));
//! for r in &trace {
//!     model.access_key(r.key);
//! }
//! let mrc = model.mrc();
//! assert!(mrc.eval(5_000.0) < mrc.eval(50.0));
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub use krr_baselines as baselines;
pub use krr_core as core;
pub use krr_load as load;
pub use krr_redis as redis;
pub use krr_sim as sim;
pub use krr_trace as trace;

pub use krr_core::{
    even_sizes, Access, KrrConfig, KrrModel, ModelStats, Mrc, SdHistogram, SizeArray, SizeMode,
    SpatialFilter, UpdaterKind,
};

/// Common imports for applications.
pub mod prelude {
    pub use krr_baselines::{OlkenLru, Shards};
    pub use krr_core::{even_sizes, KrrConfig, KrrModel, Mrc, ShardedKrr, SizeMode, UpdaterKind};
    pub use krr_redis::{MiniRedis, SamplingMode};
    pub use krr_sim::{
        even_capacities, simulate_mrc, Cache, Capacity, ExactLru, KLfuCache, KLruCache, Policy,
        Unit,
    };
    pub use krr_trace::{Op, Request, Trace};
}
