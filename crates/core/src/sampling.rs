//! SHARDS-style uniform spatial sampling (§2.4).
//!
//! A reference with key `L` is processed iff `hash(L) mod P < T`; the
//! effective sampling rate is `R = T / P`. Sampling by key (not by request)
//! keeps every reference to a sampled object, which preserves reuse
//! structure — the property SHARDS relies on and KRR inherits.

use crate::hashing::hash_key;

/// Default modulus: 2^24, as in the SHARDS paper.
pub const DEFAULT_MODULUS: u64 = 1 << 24;

/// Spatial sampling filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpatialFilter {
    threshold: u64,
    modulus: u64,
}

impl SpatialFilter {
    /// Filter with an explicit threshold and modulus (`R = threshold/modulus`).
    #[must_use]
    pub fn new(threshold: u64, modulus: u64) -> Self {
        assert!(modulus > 0 && threshold > 0 && threshold <= modulus);
        Self { threshold, modulus }
    }

    /// Filter with sampling rate `rate` in `(0, 1]` over the default modulus.
    #[must_use]
    pub fn with_rate(rate: f64) -> Self {
        assert!(
            rate > 0.0 && rate <= 1.0,
            "rate must be in (0,1], got {rate}"
        );
        let threshold = ((rate * DEFAULT_MODULUS as f64).round() as u64).max(1);
        Self::new(threshold.min(DEFAULT_MODULUS), DEFAULT_MODULUS)
    }

    /// A filter that samples everything (rate 1.0).
    #[must_use]
    pub fn all() -> Self {
        Self::new(DEFAULT_MODULUS, DEFAULT_MODULUS)
    }

    /// True if references to `key` should be processed.
    #[inline]
    #[must_use]
    pub fn admits(&self, key: u64) -> bool {
        self.admits_hashed(hash_key(key))
    }

    /// [`SpatialFilter::admits`] for a key whose [`hash_key`] value is
    /// already in hand — the route-once path: the sharded router hashes
    /// each key exactly once and passes the hash through, so admission
    /// never re-hashes. Only the low `log2(modulus)` bits are consumed;
    /// shard routing reads disjoint high bits of the same hash.
    #[inline]
    #[must_use]
    pub fn admits_hashed(&self, key_hash: u64) -> bool {
        let low = if self.modulus.is_power_of_two() {
            key_hash & (self.modulus - 1)
        } else {
            key_hash % self.modulus
        };
        low < self.threshold
    }

    /// [`SpatialFilter::admits_hashed`] over a batch of 8 pre-hashed keys,
    /// returning a bitmask (bit `i` set ⇔ `hashes[i]` admitted). Branchless:
    /// each lane is one compare folded into the mask, so the batched
    /// pipeline hot path takes no data-dependent branches while filtering.
    /// Bit-identical to eight scalar calls by construction. A power-of-two
    /// modulus (every [`SpatialFilter::with_rate`] / [`SpatialFilter::all`]
    /// filter) reduces with a mask; any other modulus, such as one restored
    /// from a checkpoint, keeps the division.
    #[inline]
    #[must_use]
    pub fn admits_hashed8(&self, hashes: &[u64; 8]) -> u8 {
        let mut mask = 0u8;
        if self.modulus.is_power_of_two() {
            let low = self.modulus - 1;
            for (i, &h) in hashes.iter().enumerate() {
                mask |= u8::from(h & low < self.threshold) << i;
            }
        } else {
            for (i, &h) in hashes.iter().enumerate() {
                mask |= u8::from(h % self.modulus < self.threshold) << i;
            }
        }
        mask
    }

    /// True when the filter admits every key (rate 1.0) — lets batch
    /// processing skip per-reference admission entirely.
    #[inline]
    #[must_use]
    pub fn admits_all(&self) -> bool {
        self.threshold >= self.modulus
    }

    /// Admission threshold `T` (checkpointing: a filter round-trips exactly
    /// via `SpatialFilter::new(threshold(), modulus())`).
    #[must_use]
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// Hash-space modulus `P`.
    #[must_use]
    pub fn modulus(&self) -> u64 {
        self.modulus
    }

    /// Effective sampling rate `R = T/P`.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.threshold as f64 / self.modulus as f64
    }

    /// The factor by which sampled stack distances must be scaled to recover
    /// full-trace cache sizes (`1/R`).
    #[must_use]
    pub fn scale(&self) -> f64 {
        1.0 / self.rate()
    }
}

/// Picks a sampling rate that keeps the *expected* number of sampled distinct
/// objects at or above `min_objects` (§5.3's guard: "we apply a higher
/// sampling rate to those workloads with a small working set size such that
/// ... at least 8K objects are sampled").
#[must_use]
pub fn rate_for_working_set(requested_rate: f64, working_set: u64, min_objects: u64) -> f64 {
    assert!(requested_rate > 0.0 && requested_rate <= 1.0);
    if working_set == 0 {
        return 1.0;
    }
    let needed = min_objects as f64 / working_set as f64;
    requested_rate.max(needed).min(1.0)
}

/// The paper's default guard value: 8K sampled objects.
pub const DEFAULT_MIN_SAMPLED_OBJECTS: u64 = 8 * 1024;

/// The first `n` of the keys `0, 1, 2, …` that `filter` admits. Their
/// hashes all share small low bits, the worst case for a hash table that
/// picks buckets from those bits.
#[cfg(test)]
pub(crate) fn admitted_keys(filter: SpatialFilter, n: usize) -> Vec<u64> {
    (0..).filter(|&k| filter.admits(k)).take(n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_roundtrip() {
        let f = SpatialFilter::with_rate(0.001);
        assert!((f.rate() - 0.001).abs() < 1e-6);
        assert!((f.scale() - 1000.0).abs() < 1.0);
    }

    #[test]
    fn admits_is_stable_per_key() {
        let f = SpatialFilter::with_rate(0.01);
        for key in 0..1000u64 {
            assert_eq!(f.admits(key), f.admits(key));
        }
    }

    #[test]
    fn empirical_rate_matches_nominal() {
        let f = SpatialFilter::with_rate(0.01);
        let n = 1_000_000u64;
        let admitted = (0..n).filter(|&k| f.admits(k)).count() as f64;
        let got = admitted / n as f64;
        assert!((got - 0.01).abs() < 0.002, "empirical rate {got}");
    }

    #[test]
    fn rate_one_admits_everything() {
        let f = SpatialFilter::all();
        assert!((0..10_000u64).all(|k| f.admits(k)));
        assert_eq!(f.scale(), 1.0);
        assert!(f.admits_all());
        assert!(!SpatialFilter::with_rate(0.5).admits_all());
    }

    #[test]
    fn admits_hashed8_matches_scalar() {
        let f = SpatialFilter::with_rate(0.3);
        for base in 0..200u64 {
            let hashes = std::array::from_fn(|i| hash_key(base * 8 + i as u64));
            let mask = f.admits_hashed8(&hashes);
            for (i, &h) in hashes.iter().enumerate() {
                assert_eq!(mask >> i & 1 == 1, f.admits_hashed(h), "lane {i}");
            }
        }
    }

    #[test]
    fn masked_reduction_matches_division() {
        let mut rng = crate::rng::Xoshiro256::seed_from_u64(41);
        let mut hashes: Vec<u64> = (0..4096).map(|_| rng.next_u64()).collect();
        hashes.extend([0, 1, u64::MAX, u64::MAX - 1, 1 << 24, (1 << 24) - 1]);
        let filters = [
            SpatialFilter::all(),
            SpatialFilter::with_rate(0.005),
            SpatialFilter::with_rate(0.5),
            SpatialFilter::new(1, 1),
            SpatialFilter::new(5, 8),
            SpatialFilter::new(3, 1000),
            SpatialFilter::new(999, 1000),
        ];
        for f in filters {
            let by_division = |h: u64| h % f.modulus() < f.threshold();
            for &h in &hashes {
                assert_eq!(f.admits_hashed(h), by_division(h), "{f:?} {h:#x}");
            }
            for c in hashes.chunks_exact(8) {
                let lanes: [u64; 8] = c.try_into().expect("chunk of 8");
                let mask = f.admits_hashed8(&lanes);
                for (i, &h) in lanes.iter().enumerate() {
                    assert_eq!(mask >> i & 1 == 1, by_division(h), "{f:?} lane {i}");
                }
            }
        }
    }

    #[test]
    fn working_set_guard_raises_small_rates() {
        // 8K objects needed out of 16K working set -> at least rate 0.5.
        assert_eq!(rate_for_working_set(0.001, 16 * 1024, 8 * 1024), 0.5);
        // Large working set keeps the requested rate.
        assert_eq!(rate_for_working_set(0.001, 100_000_000, 8 * 1024), 0.001);
        // Tiny working set -> sample everything.
        assert_eq!(rate_for_working_set(0.001, 100, 8 * 1024), 1.0);
    }

    #[test]
    #[should_panic(expected = "rate must be in (0,1]")]
    fn zero_rate_rejected() {
        let _ = SpatialFilter::with_rate(0.0);
    }
}
