//! # krr-core
//!
//! A from-scratch Rust implementation of **KRR**, the probabilistic stack
//! algorithm of *Efficient Modeling of Random Sampling-Based LRU*
//! (Yang, Wang & Wang, ICPP 2021), which constructs Miss Ratio Curves for
//! random sampling-based LRU ("K-LRU") caches — the approximated LRU used by
//! Redis — in a single pass over a trace.
//!
//! ## Quick start
//!
//! ```
//! use krr_core::{KrrConfig, KrrModel};
//!
//! // Model a Redis-style cache with maxmemory-samples = 5.
//! let mut model = KrrModel::new(KrrConfig::new(5.0));
//! for key in (0..10_000u64).chain(0..10_000) {
//!     model.access_key(key);
//! }
//! let mrc = model.mrc();
//! assert!(mrc.eval(10_000.0) < mrc.eval(10.0));
//! ```
//!
//! ## Choosing `K` and `K'`
//!
//! [`KrrConfig::new`] takes the cache's sampling size `K` (Redis
//! `maxmemory-samples`). The stack itself runs with the corrected
//! `K' = K^1.4` (§4.2 of the paper, [`prob::k_prime`]); interior stack
//! positions swap with probability `1 − ((i-1)/i)^K'` (Eq. 4.1), which is
//! what makes one probabilistic stack model a K-LRU cache of *every* size
//! in one pass.
//!
//! ## Modules
//!
//! * [`stack`] — the array-backed KRR priority stack.
//! * [`update`] — the three swap-chain samplers: naive O(M), top-down
//!   O(log²M) (Algorithm 1), backward O(logM) (Algorithm 2).
//! * [`prob`] — eviction-probability math (Propositions 1–2, Eq. 4.2).
//! * [`sizearray`] — byte-level distances for variable object sizes.
//! * [`sampling`] — SHARDS-style spatial sampling.
//! * [`histogram`] / [`mrc`] — stack-distance histograms and MRCs.
//! * [`model`] — the assembled one-pass profiler.
//! * [`sharded`] — thread-parallel profiling over hash shards.
//! * [`fleet`] — multi-tenant arena: thousands of per-tenant models in one
//!   process, with per-tenant metrics rows and MRC exposition.
//! * [`pipeline`] — streaming route-once batched router/worker pipeline.
//! * [`metrics`] — lock-free counters/histograms observing the pipeline.
//! * [`obs`] — flight-recorder span tracing (Chrome trace export) and the
//!   windowed stats timeline.
//! * [`profiler`] — always-on self-profiler: per-thread phase-attribution
//!   totals behind the flight recorder, exported as folded flamegraph text.
//! * [`forensics`] — tail-request exemplars: a lock-free ring of p99+
//!   requests with their span join key (`krr-exemplars-v1`).
//! * [`doctor`] — the PERFORMANCE.md counter-signature playbook as
//!   machine-checked rules (`krr-doctor-v1`) plus the CI artifact
//!   schema validator.
//! * [`json`] — minimal std-only JSON parser for reading the repo's own
//!   artifacts back.
//! * [`expo`] — embedded HTTP/1.1 exposition server (`/metrics` in
//!   OpenMetrics text, `/mrc`, `/stats`, `/trace`, `/exemplars`,
//!   `/profile`, `/healthz`).
//! * [`footprint`] — deep memory accounting ([`Footprint`] trait) for the
//!   paper's §5.6–5.7 space-cost comparison.
//! * [`heap`] — opt-in counting global allocator (`alloc-stats` feature)
//!   behind the live/peak heap gauges.
//! * [`persist`] — plain-text persistence for MRCs and metrics
//!   snapshots.
//! * [`checkpoint`] — the crash-safe `krr-ckpt-v1` binary checkpoint
//!   format (CRC-guarded sections, atomic write-rename) behind
//!   [`KrrModel::checkpoint`] / [`ShardedKrr::checkpoint`].
//! * [`rng`] / [`hashing`] — deterministic RNG and key hashing substrate.

#![warn(missing_docs)]
#![warn(clippy::all)]
#![deny(unsafe_code)]

pub mod checkpoint;
pub mod doctor;
pub mod expo;
pub mod fleet;
pub mod footprint;
pub mod forensics;
pub mod hashing;
#[allow(unsafe_code)] // `GlobalAlloc` is an unsafe trait
pub mod heap;
pub mod histogram;
pub mod json;
pub mod metrics;
pub mod model;
pub mod mrc;
pub mod obs;
pub mod partition;
pub mod persist;
pub mod pipeline;
pub mod prob;
pub mod profiler;
pub mod rng;
pub mod sampling;
pub mod sharded;
pub mod sizearray;
pub mod stack;
pub mod update;

pub use checkpoint::{CheckpointReader, CheckpointWriter};
pub use doctor::{diagnose, DoctorCounters, DoctorReport, Finding};
pub use expo::{ExpoServer, ExpoSources, MrcCell, StatsRing};
pub use fleet::{FleetArena, FleetCell, FleetConfig, FleetView};
pub use footprint::{Footprint, FootprintReport};
pub use forensics::{Exemplar, ExemplarRing};
pub use histogram::SdHistogram;
pub use metrics::{MetricsRegistry, MetricsSnapshot, TenantRow};
pub use model::{KrrConfig, KrrModel, ModelStats, SizeMode};
pub use mrc::{even_sizes, Mrc};
pub use obs::{FlightRecorder, Phase, SpanEvent, StatsTimeline, ThreadRecorder};
pub use pipeline::PipelineConfig;
pub use profiler::{PhaseProfiler, ProfPhase};
pub use sampling::SpatialFilter;
pub use sharded::{shard_of_hash, ShardedKrr};
pub use sizearray::SizeArray;
pub use stack::{Access, Entry, KrrStack};
pub use update::UpdaterKind;
