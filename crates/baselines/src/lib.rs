//! # krr-baselines
//!
//! Baseline MRC techniques the paper compares against or builds on:
//!
//! * [`ostree`] — order-statistic treap (the balanced-tree substrate).
//! * [`olken`] — Olken's exact LRU stack-distance algorithm, O(N·logM).
//! * [`shards`] — fixed-rate SHARDS, with or without the SHARDS-adj
//!   count correction (Table 5.4).
//!
//! All of these model *exact* LRU; the paper's point (Fig 5.2a) is that for
//! Type A workloads and small K they misestimate a K-LRU cache badly, which
//! is what `krr-core` fixes.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod olken;
pub mod ostree;
pub mod shards;

pub use olken::OlkenLru;
pub use ostree::OsTreap;
pub use shards::Shards;
