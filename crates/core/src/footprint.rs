//! Deep memory-footprint accounting (§5.6–5.7 space costs).
//!
//! The paper ranks MRC techniques by *space* as much as time: KRR's stack
//! plus key index is orders of magnitude smaller than an unsampled Olken
//! tree and comparable to SHARDS at the same rate. This module turns that
//! claim into a measurable number: every profiling structure implements
//! [`Footprint`], reporting its estimated heap bytes with a per-field
//! breakdown, and the totals are published as gauges in `krr-metrics-v1`
//! (and scraped from `/metrics`, see [`crate::expo`]).
//!
//! Footprints count the dominant heap blocks (`Vec` capacities,
//! hash-table slots at hashbrown's 8/7 slack, tree slabs) and
//! deliberately ignore constant-size struct headers. The KRR model holds
//! only `Vec`s, so its footprint is exact: the `alloc_truth` test checks
//! it against the live heap of the counting allocator in [`crate::heap`]
//! (`alloc-stats` feature). Hash-map and tree footprints stay models.
//!
//! ```
//! use krr_core::footprint::Footprint;
//! use krr_core::{KrrConfig, KrrModel};
//!
//! let mut m = KrrModel::new(KrrConfig::new(5.0));
//! for key in 0..1000u64 {
//!     m.access_key(key);
//! }
//! let report = m.footprint();
//! assert_eq!(report.total(), m.deep_bytes());
//! assert!(report.get("stack_entries") > 0);
//! ```

/// A per-field breakdown of a structure's deep heap footprint.
///
/// Parts are `(label, bytes)` pairs; merging reports (e.g. summing one
/// report per shard) accumulates bytes by label, so an aggregate keeps the
/// same breakdown shape as a single instance.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FootprintReport {
    parts: Vec<(&'static str, usize)>,
}

impl FootprintReport {
    /// Creates an empty report.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `bytes` under `label`, accumulating if the label exists.
    pub fn add(&mut self, label: &'static str, bytes: usize) -> &mut Self {
        match self.parts.iter_mut().find(|(l, _)| *l == label) {
            Some((_, b)) => *b += bytes,
            None => self.parts.push((label, bytes)),
        }
        self
    }

    /// Accumulates every part of `other` into this report (label-wise).
    pub fn merge(&mut self, other: &FootprintReport) -> &mut Self {
        for &(label, bytes) in &other.parts {
            self.add(label, bytes);
        }
        self
    }

    /// The `(label, bytes)` parts in insertion order.
    #[must_use]
    pub fn parts(&self) -> &[(&'static str, usize)] {
        &self.parts
    }

    /// Bytes recorded under `label` (0 if absent).
    #[must_use]
    pub fn get(&self, label: &str) -> usize {
        self.parts
            .iter()
            .find(|(l, _)| *l == label)
            .map_or(0, |&(_, b)| b)
    }

    /// Sum of all parts.
    #[must_use]
    pub fn total(&self) -> usize {
        self.parts.iter().map(|&(_, b)| b).sum()
    }
}

/// Deep heap footprint of a profiling structure.
///
/// Implementations estimate the bytes of every owned heap block — backing
/// arrays at their *capacity*, hash tables at their slot count, tree slabs
/// including free-list slack — so the number tracks what the allocator
/// actually holds, not just live entries.
pub trait Footprint {
    /// The footprint with a per-field breakdown.
    fn footprint(&self) -> FootprintReport;

    /// Total estimated heap bytes ([`FootprintReport::total`] of
    /// [`Footprint::footprint`]).
    fn deep_bytes(&self) -> usize {
        self.footprint().total()
    }
}

/// Estimated heap bytes of a hashbrown-backed `std` hash map/set holding
/// entries of `entry_bytes` at the given capacity: one control byte per
/// slot and ~8/7 slot slack over capacity.
#[must_use]
pub fn map_bytes(capacity: usize, entry_bytes: usize) -> usize {
    capacity * (entry_bytes + 1) * 8 / 7
}

/// Heap bytes of a `Vec`'s backing buffer at its current capacity.
#[must_use]
pub fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// Makes room in `v` for `len` elements. Up to 1024 elements the capacity
/// doubles from a floor of 16, so a small model carries no more slack
/// than a plain `Vec` would. From there it grows by a fixed step of
/// `max(v.len()/8, 1024)` elements (or to `len`, if more), so a large
/// profiler's slack is at most 1/8 of its size instead of up to 1×.
/// Growth stays amortized `O(1)` throughout.
pub(crate) fn reserve_stepped<T>(v: &mut Vec<T>, len: usize) {
    if len > v.capacity() {
        let n = v.len();
        let step = (n / 8).max(n.min(1024)).max(16);
        v.reserve_exact(len.max(n + step) - n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_accumulates_by_label() {
        let mut r = FootprintReport::new();
        r.add("a", 10).add("b", 5).add("a", 3);
        assert_eq!(r.get("a"), 13);
        assert_eq!(r.get("b"), 5);
        assert_eq!(r.get("c"), 0);
        assert_eq!(r.total(), 18);
        assert_eq!(r.parts().len(), 2);
    }

    #[test]
    fn merge_sums_label_wise() {
        let mut a = FootprintReport::new();
        a.add("x", 1).add("y", 2);
        let mut b = FootprintReport::new();
        b.add("y", 10).add("z", 20);
        a.merge(&b);
        assert_eq!(a.get("x"), 1);
        assert_eq!(a.get("y"), 12);
        assert_eq!(a.get("z"), 20);
        assert_eq!(a.total(), 33);
    }

    #[test]
    fn map_model_matches_stack_seed_formula() {
        // The historical hash-map formula, kept bit-for-bit.
        let cap = 1000usize;
        let entry = std::mem::size_of::<(u64, u32)>();
        assert_eq!(map_bytes(cap, entry), cap * (entry + 1) * 8 / 7);
    }

    #[test]
    fn stepped_growth_doubles_small_and_steps_large() {
        let mut v: Vec<u32> = Vec::new();
        reserve_stepped(&mut v, 1);
        assert_eq!(v.capacity(), 16);
        // Small vectors double, so a 210-element one sits at 256.
        for n in 1..=210 {
            reserve_stepped(&mut v, n);
            v.push(0);
        }
        assert_eq!(v.capacity(), 256);
        v.resize(1024, 0);
        v.shrink_to_fit();
        reserve_stepped(&mut v, 1025);
        assert_eq!(v.capacity(), 2048);
        v.resize(16_384, 0);
        v.shrink_to_fit();
        reserve_stepped(&mut v, 16_385);
        assert_eq!(v.capacity(), 16_384 + 2048);
        // A jump past one step lands exactly on the requested length.
        reserve_stepped(&mut v, 100_000);
        assert_eq!(v.capacity(), 100_000);
        assert_eq!(vec_bytes(&v), 400_000);
    }
}
