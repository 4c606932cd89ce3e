//! # krr-sim
//!
//! Ground-truth cache simulators for the KRR reproduction: exact LRU, the
//! random sampling-based K-LRU policy the paper models, and a parallel
//! multi-size simulation harness that produces "actual" MRCs by
//! interpolation (§5.1). Around them: sampled LFU ([`klfu`], which
//! `krr simulate --policy klfu:K` runs) and Belady's OPT as a reference
//! bound ([`opt`]).
//!
//! ```
//! use krr_sim::{Cache, Capacity, KLruCache};
//! use krr_trace::Request;
//!
//! let mut cache = KLruCache::new(Capacity::Objects(100), 5, 42);
//! assert!(!cache.access(&Request::unit(1))); // cold miss
//! assert!(cache.access(&Request::unit(1))); // hit
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod klfu;
pub mod klru;
pub mod lru;
pub mod mrc_sim;
pub mod opt;

pub use klfu::KLfuCache;
pub use klru::KLruCache;
pub use lru::ExactLru;
pub use mrc_sim::{even_capacities, miss_ratio, simulate_mrc, working_set, Policy, Unit};

use krr_core::hashing::KeyMap;
use krr_trace::Request;

/// Cache capacity in objects or bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Capacity {
    /// Maximum number of resident objects.
    Objects(u64),
    /// Maximum resident bytes.
    Bytes(u64),
}

impl Capacity {
    /// The numeric limit, in whichever unit.
    #[must_use]
    pub fn limit(&self) -> u64 {
        match *self {
            Capacity::Objects(n) | Capacity::Bytes(n) => n,
        }
    }
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests that found their object resident.
    pub hits: u64,
    /// Requests that did not.
    pub misses: u64,
}

impl CacheStats {
    /// Miss ratio over all requests seen (1.0 when empty).
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// A trace-driven cache.
pub trait Cache {
    /// Processes one request; returns true on a hit.
    fn access(&mut self, req: &Request) -> bool;

    /// Hit/miss counters so far.
    fn stats(&self) -> CacheStats;
}

/// No slot or node: the index of an id that is not resident, and the end
/// of a linked list.
pub(crate) const NIL: u32 = u32::MAX;

/// A cache whose residents are found by interned id: dense `u32`s from an
/// [`Interner`], so a lookup indexes an array instead of probing a hash
/// table. [`Cache::access`] interns the key first; the multi-size sweep
/// interns the whole trace once and feeds ids directly.
pub(crate) trait IdCache: Cache {
    /// Processes one request for object `id`; returns true on a hit.
    fn access_id(&mut self, id: u32, size: u32) -> bool;
}

/// Key → dense id map, ids `0..len` in first-reference order. It holds
/// one entry per distinct key ever seen, not per resident.
#[derive(Debug, Clone, Default)]
pub(crate) struct Interner {
    ids: KeyMap<u32>,
    keys: Vec<u64>,
}

impl Interner {
    /// The id of `key`, assigning the next one on first sight.
    pub(crate) fn intern(&mut self, key: u64) -> u32 {
        let next = self.keys.len() as u32;
        let id = *self.ids.entry(key).or_insert(next);
        if id == next {
            self.keys.push(key);
        }
        id
    }

    /// The key interned as `id`.
    pub(crate) fn key(&self, id: u32) -> u64 {
        self.keys[id as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_ratio_edge_cases() {
        assert_eq!(CacheStats::default().miss_ratio(), 1.0);
        let s = CacheStats { hits: 3, misses: 1 };
        assert!((s.miss_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn capacity_limit() {
        assert_eq!(Capacity::Objects(10).limit(), 10);
        assert_eq!(Capacity::Bytes(4096).limit(), 4096);
    }
}
