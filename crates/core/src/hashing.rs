//! Key hashing for spatial sampling, shard routing and `u64`-keyed maps.
//!
//! Spatial sampling (SHARDS, §2.4 of the paper) requires a hash whose low
//! bits are uniform regardless of key structure; sequential block numbers are
//! the common worst case. We use the `splitmix64` finalizer, which passes
//! avalanche tests and costs a handful of ALU ops.
//!
//! A sampled key set is *not* uniform in [`hash_key`]: the filter keeps
//! only keys whose low 24 bits fall below `R·2^24`, and a shard sees only
//! keys whose bits from 32 up name it. A table indexed by those bits would
//! crowd every key into a few buckets, so [`KeyMap`] hashes with an
//! independently salted mix, and the stack's id index
//! ([`crate::stack`]) takes its probe start from the top bits of a
//! multiplicative mix of [`hash_key`].

use crate::rng::mix64;
use std::hash::{BuildHasher, Hasher};

/// Hashes a 64-bit key to a 64-bit value with full avalanche.
#[inline]
#[must_use]
pub fn hash_key(key: u64) -> u64 {
    // A non-zero odd constant decouples this hash from other mix64 users
    // (e.g. RNG seeding), so sampling decisions don't correlate with
    // generator streams that hash the same keys.
    mix64(key ^ 0x9E6C_63D0_876A_3F6B)
}

/// [`hash_key`] over a batch of 8 keys.
///
/// The eight mix chains are mutually independent, so a fixed-width batch
/// lets the compiler unroll and interleave them: while one chain waits on
/// its multiply, the others issue theirs (instruction-level parallelism the
/// one-at-a-time router loop can't reach). Bit-identical to eight
/// [`hash_key`] calls — batching changes scheduling, never values.
#[inline]
#[must_use]
pub fn hash_keys8(keys: [u64; 8]) -> [u64; 8] {
    keys.map(hash_key)
}

/// Salt that makes [`KeyHasher`] independent of [`hash_key`].
const MAP_SALT: u64 = 0x5851_F42D_4C95_7F2D;

/// A `BuildHasher` for `u64` keys, used by [`KeyMap`] and [`KeySet`].
///
/// `write_u64` applies `mix64` with a salt of its own, so the bucket
/// (low bits) and tag (high bits) a hash table reads stay uniform on key
/// sets that a spatial filter or a shard router selected by [`hash_key`].
/// Other write methods fall back to a simple folding scheme (they are not
/// used on the hot path).
#[derive(Debug, Clone, Copy, Default)]
pub struct KeyHashBuilder;

impl BuildHasher for KeyHashBuilder {
    type Hasher = KeyHasher;

    #[inline]
    fn build_hasher(&self) -> KeyHasher {
        KeyHasher { state: 0 }
    }
}

/// Hasher produced by [`KeyHashBuilder`].
#[derive(Debug, Clone, Copy)]
pub struct KeyHasher {
    state: u64,
}

impl Hasher for KeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = mix64(self.state.rotate_left(8) ^ u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.state = mix64(i ^ MAP_SALT);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// `HashMap` keyed by `u64` using [`KeyHashBuilder`].
pub type KeyMap<V> = std::collections::HashMap<u64, V, KeyHashBuilder>;

/// `HashSet` of `u64` using [`KeyHashBuilder`].
pub type KeySet = std::collections::HashSet<u64, KeyHashBuilder>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::SpatialFilter;

    #[test]
    fn hash_key_is_deterministic_and_injective_on_small_sets() {
        let mut seen = std::collections::HashSet::new();
        for k in 0..100_000u64 {
            assert_eq!(hash_key(k), hash_key(k));
            assert!(seen.insert(hash_key(k)), "collision at {k}");
        }
    }

    #[test]
    fn low_bits_of_sequential_keys_are_uniform() {
        // Spatial sampling uses `hash % P < T`; check that the residues of
        // sequential keys (the block-trace worst case) are near-uniform.
        let p = 64u64;
        let mut counts = vec![0u64; p as usize];
        let n = 640_000u64;
        for k in 0..n {
            counts[(hash_key(k) % p) as usize] += 1;
        }
        let expected = n as f64 / p as f64;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "residue {i} deviates by {dev}");
        }
    }

    #[test]
    fn hash_keys8_matches_scalar() {
        for base in [0u64, 17, 1 << 40, u64::MAX - 7] {
            let keys = std::array::from_fn(|i| base.wrapping_add(i as u64));
            let batch = hash_keys8(keys);
            for (i, &k) in keys.iter().enumerate() {
                assert_eq!(batch[i], hash_key(k));
            }
        }
    }

    #[test]
    fn sampled_keys_spread_over_keymap_buckets() {
        // hashbrown picks a key's bucket from the low hash bits. Keys a
        // spatial filter admitted at R = 0.001 share the low 24 bits of
        // `hash_key`, so those bits alone would use ~6% of these buckets.
        let buckets = 1usize << 18;
        let keys = crate::sampling::admitted_keys(SpatialFilter::with_rate(0.001), 1 << 16);
        let mut hits = vec![0u32; buckets];
        for &k in &keys {
            hits[KeyHashBuilder.hash_one(k) as usize & (buckets - 1)] += 1;
        }
        // 2^16 keys in 2^18 buckets: a uniform hash leaves e^-0.25 empty.
        let empty = hits.iter().filter(|&&h| h == 0).count() as f64 / buckets as f64;
        assert!(
            (empty - (-0.25f64).exp()).abs() < 0.005,
            "empty share {empty}"
        );
        // And every 1/256 of the table gets its share of the keys.
        let expected = keys.len() as f64 / 256.0;
        for (i, part) in hits.chunks(buckets / 256).enumerate() {
            let n = part.iter().sum::<u32>() as f64;
            assert!((n - expected).abs() < 0.25 * expected, "part {i}: {n}");
        }
    }

    #[test]
    fn keymap_roundtrip() {
        let mut m: KeyMap<u32> = KeyMap::default();
        for k in 0..1000u64 {
            m.insert(k, k as u32 * 2);
        }
        for k in 0..1000u64 {
            assert_eq!(m.get(&k), Some(&(k as u32 * 2)));
        }
    }
}
