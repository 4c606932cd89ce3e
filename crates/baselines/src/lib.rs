//! # krr-baselines
//!
//! Baseline MRC techniques the paper compares against or builds on:
//!
//! * [`ostree`] — order-statistic treap (the balanced-tree substrate).
//! * [`olken`] — Olken's exact LRU stack-distance algorithm, O(N·logM).
//! * [`shards`] — SHARDS fixed-rate (± adjustment) and fixed-size variants.
//! * [`aet`] — the AET reuse-time model (related-work extension, §6.1).
//! * [`counterstacks`] / [`hll`] — CounterStacks over from-scratch
//!   HyperLogLogs (related-work extension, §6.1).
//! * [`watchdog`] — online accuracy watchdog: a spatially-sampled shadow
//!   Olken profiler that tracks a live KRR model's drift. A library
//!   piece: `examples/online_profiler.rs` drives it beside a model; no
//!   server or CLI path turns it on.
//!
//! All of these model *exact* LRU; the paper's point (Fig 5.2a) is that for
//! Type A workloads and small K they misestimate a K-LRU cache badly, which
//! is what `krr-core` fixes.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod aet;
pub mod counterstacks;
pub mod hll;
pub mod olken;
pub mod ostree;
pub mod shards;
pub mod watchdog;

pub use aet::Aet;
pub use counterstacks::CounterStacks;
pub use hll::HyperLogLog;
pub use olken::OlkenLru;
pub use ostree::OsTreap;
pub use shards::{Shards, ShardsMax};
pub use watchdog::{AccuracyWatchdog, WatchdogConfig, WatchdogReport};
