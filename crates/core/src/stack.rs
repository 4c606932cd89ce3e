//! The KRR stack: an array-backed priority stack with an id index
//! (§4.4 "Implementation").
//!
//! Every object gets a stable *id* at its first reference: the number of
//! objects seen before it. Per-object state is a struct of arrays indexed
//! by id:
//!
//! - `keys[id]`, the object's key;
//! - `sizes[id]`, its size, kept only while the stack records chain sizes
//!   (the byte-level model); a uniform-size stack stores no sizes and
//!   reports size 1 for every object;
//! - `perm[pos] = id` and its inverse `inv[id] = pos`, the stack order.
//!
//! The key index is an open-addressing table of `u32` ids with linear
//! probing. It stores no keys: a probe compares against `keys[id]`. Ids
//! are stable, so the index is written exactly once per distinct object,
//! at cold insertion. A stack *update* moves only the objects on the swap
//! chain produced by one of the [`crate::update`] strategies, and applying
//! the chain touches nothing but the two permutation arrays, which is what
//! makes KRR cheap: the expected chain length is `O(K·logM)`
//! (Corollary 1).
//!
//! Space is the other half of the paper's case (§5.6). The per-object
//! arrays double up to 1024 elements and then grow by a fixed step of
//! `max(len/8, 1024)` elements, and the index holds 4 bytes per slot at a
//! load between 7/16 and 7/8. A large uniform-size stack thus costs 16 bytes per object
//! (20 with sizes) plus at most 1/8 slack, and 4.6–9.1 bytes of index.
//! [`Footprint`] reports the real `Vec` capacities.

use crate::checkpoint::{Dec, Enc};
use crate::footprint::{reserve_stepped, vec_bytes, Footprint, FootprintReport};
use crate::hashing::hash_key;
use crate::rng::Xoshiro256;
use crate::update::{self, JumpTable, UpdaterKind};
use std::io;
use std::sync::Arc;

/// One object resident on the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// Object key.
    pub key: u64,
    /// Object size in bytes (1 for uniform-size workloads).
    pub size: u32,
}

/// Outcome of a single reference processed by [`KrrStack::access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// First reference to the key. `stack_len` is the number of distinct
    /// objects *after* the insertion (the paper's `γ_t`); the cold object is
    /// attached to the stack end before the update, so its `φ = stack_len`.
    Cold {
        /// Distinct objects on the stack after insertion.
        stack_len: u64,
    },
    /// Re-reference. `phi` is the 1-based stack position the object occupied
    /// before the update — its (object-granularity) stack distance.
    Hit {
        /// Stack distance of the reference.
        phi: u64,
    },
}

impl Access {
    /// Stack position the referenced object occupied before the update
    /// (equal to the stack length for cold misses).
    #[must_use]
    pub fn phi(&self) -> u64 {
        match *self {
            Access::Cold { stack_len } => stack_len,
            Access::Hit { phi } => phi,
        }
    }
}

/// Key → id table: linear probing over `u32` ids, compared through the
/// stack's `keys` array.
///
/// Slots are a power of two, `EMPTY` marks a free slot, and the load stays
/// at or below 7/8. Every id `0..keys.len()` is present, so growing
/// rebuilds from `keys` alone. A probe starts at the top bits of
/// `hash_key(key) · PROBE_MIX`. A multiplicative mix spreads every input
/// bit into the top bits, so a stack behind a spatial filter (whose keys
/// share the low hash bits) or behind a shard router (which fixes the
/// bits from 32 up) still probes uniformly.
#[derive(Debug, Clone, Default)]
struct IdIndex {
    slots: Vec<u32>,
    /// `64 − log2(slots.len())`: turns the mixed hash into a slot.
    shift: u32,
}

impl IdIndex {
    const EMPTY: u32 = u32::MAX;
    const MIN_SLOTS: usize = 16;
    /// Odd 64-bit constant (2^64/φ) for the multiplicative probe mix.
    const PROBE_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

    /// An index over `keys`, id `i` for `keys[i]`; `None` if a key repeats.
    fn for_keys(keys: &[u64]) -> Option<Self> {
        let mut slots = Self::MIN_SLOTS;
        while keys.len() * 8 > slots * 7 {
            slots *= 2;
        }
        let mut index = Self {
            slots: vec![Self::EMPTY; slots],
            shift: 64 - slots.trailing_zeros(),
        };
        for (id, &key) in keys.iter().enumerate() {
            let vacant = index.find(key, keys).err()?;
            index.slots[vacant] = id as u32;
        }
        Some(index)
    }

    #[inline]
    fn start(&self, key: u64) -> usize {
        (hash_key(key).wrapping_mul(Self::PROBE_MIX) >> self.shift) as usize
    }

    /// `Ok(id)` of `key`, or `Err(slot)`: the free slot that ended the probe.
    #[inline]
    fn find(&self, key: u64, keys: &[u64]) -> Result<u32, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut i = self.start(key);
        loop {
            let id = self.slots[i];
            if id == Self::EMPTY {
                return Err(i);
            }
            if keys[id as usize] == key {
                return Ok(id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Registers the last id of `keys` at `vacant`, the slot a
    /// [`IdIndex::find`] for its key returned; rebuilds at twice the slots
    /// once the load would pass 7/8.
    fn push(&mut self, vacant: usize, keys: &[u64]) {
        if keys.len() * 8 > self.slots.len() * 7 {
            *self = Self::for_keys(keys).expect("stack keys are distinct");
        } else {
            self.slots[vacant] = (keys.len() - 1) as u32;
        }
    }

    /// Slots a lookup of the present `key` examines (probe length).
    #[cfg(test)]
    fn probes(&self, key: u64, keys: &[u64]) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.start(key);
        let mut n = 1;
        while keys[self.slots[i] as usize] != key {
            i = (i + 1) & mask;
            n += 1;
        }
        n
    }
}

/// The KRR priority stack.
///
/// `k` is the *effective* sampling size used by the swap probabilities —
/// callers modeling a K-LRU cache with sampling size `K` should pass
/// `K′ = K^1.4` (see [`crate::prob::k_prime`]).
#[derive(Debug, Clone)]
pub struct KrrStack {
    /// Object keys by stable id (insertion order). `keys[id]` never moves.
    keys: Vec<u64>,
    /// Object sizes by id, parallel to `keys` while
    /// `record_chain_sizes` is on; empty otherwise (every size reads 1).
    sizes: Vec<u32>,
    /// Stack order: `perm[pos] = id` (0-based positions, top first).
    perm: Vec<u32>,
    /// Inverse permutation: `inv[id] = pos` (0-based).
    inv: Vec<u32>,
    /// Key → id. Written once per distinct object, at cold insertion —
    /// never on the swap-chain hot path.
    index: IdIndex,
    k: f64,
    updater: UpdaterKind,
    rng: Xoshiro256,
    chain: Vec<u64>,
    chain_sizes: Vec<u32>,
    /// Whether the stack keeps per-object sizes and captures
    /// [`Self::last_chain_sizes`]. Only the byte-level `sizeArray`
    /// maintenance needs them; uniform-size callers turn this off.
    record_chain_sizes: bool,
    /// Backward-jump kernel tables for `k`, shared process-wide.
    jump: Arc<JumpTable>,
    last_scanned: u64,
}

impl KrrStack {
    /// Creates an empty stack with effective sampling size `k`, the given
    /// update strategy, and a deterministic RNG seed.
    #[must_use]
    pub fn new(k: f64, updater: UpdaterKind, seed: u64) -> Self {
        assert!(k >= 1.0, "effective sampling size must be >= 1, got {k}");
        Self::from_parts(k, updater, Xoshiro256::seed_from_u64(seed))
    }

    fn from_parts(k: f64, updater: UpdaterKind, rng: Xoshiro256) -> Self {
        Self {
            keys: Vec::new(),
            sizes: Vec::new(),
            perm: Vec::new(),
            inv: Vec::new(),
            index: IdIndex::default(),
            k,
            updater,
            rng,
            chain: Vec::new(),
            chain_sizes: Vec::new(),
            record_chain_sizes: true,
            jump: JumpTable::for_k(k),
            last_scanned: 0,
        }
    }

    /// Enables or disables per-object sizes and capturing
    /// [`Self::last_chain_sizes`] on each update (on by default).
    /// Uniform-size profiling never reads them, so [`crate::KrrModel`]
    /// switches this off unless a `sizeArray` is attached. Turning it off
    /// drops the stored sizes (every object then reports size 1); turning
    /// it on starts every resident object at size 1.
    pub fn set_record_chain_sizes(&mut self, on: bool) {
        self.record_chain_sizes = on;
        if on {
            self.sizes.resize(self.keys.len(), 1);
        } else {
            self.sizes = Vec::new();
        }
    }

    /// Has no effect; kept so existing callers compile. Every update
    /// materializes [`Self::last_chain`]: sampling the whole chain and
    /// then applying it measures faster than applying each draw as it is
    /// sampled, so unobserved chains have nothing to skip.
    pub fn set_record_chain(&mut self, _on: bool) {}

    /// Number of distinct objects on the stack (the paper's `γ_t` / `M`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if no object has been referenced yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Effective sampling size `K′` in use.
    #[must_use]
    pub fn k(&self) -> f64 {
        self.k
    }

    /// Current 1-based stack position of `key`, if present.
    #[must_use]
    pub fn position_of(&self, key: u64) -> Option<u64> {
        let id = self.index.find(key, &self.keys).ok()?;
        Some(u64::from(self.inv[id as usize]) + 1)
    }

    /// The entry with stable id `id`.
    #[inline]
    fn entry(&self, id: u32) -> Entry {
        Entry {
            key: self.keys[id as usize],
            size: self.size(id),
        }
    }

    #[inline]
    fn size(&self, id: u32) -> u32 {
        self.sizes.get(id as usize).copied().unwrap_or(1)
    }

    /// Entry at 1-based stack position `pos`.
    #[must_use]
    pub fn entry_at(&self, pos: u64) -> Option<Entry> {
        let id = *self.perm.get((pos as usize).checked_sub(1)?)?;
        Some(self.entry(id))
    }

    /// The swap chain of the most recent [`KrrStack::access`]: strictly
    /// ascending 1-based positions starting at 1, excluding the implicit
    /// terminal swap at `φ`. Empty when the last access had `φ = 1` (or no
    /// access has happened).
    #[must_use]
    pub fn last_chain(&self) -> &[u64] {
        &self.chain
    }

    /// Pre-update sizes of the entries that sat at [`Self::last_chain`]
    /// positions, parallel to `last_chain()`. Needed by the byte-level
    /// `sizeArray` maintenance (§4.4.1).
    #[must_use]
    pub fn last_chain_sizes(&self) -> &[u32] {
        &self.chain_sizes
    }

    /// Stack positions the update strategy examined during the most recent
    /// [`KrrStack::access`] — the per-update work metric (chain length for
    /// the backward updater, visited tree nodes for top-down, `φ − 1` for
    /// the naive scan).
    #[must_use]
    pub fn last_scanned(&self) -> u64 {
        self.last_scanned
    }

    /// Processes one reference: finds the object's stack distance, samples a
    /// swap chain with the configured strategy, and applies the cyclic shift
    /// that moves the referenced object to the stack top.
    pub fn access(&mut self, key: u64, size: u32) -> Access {
        let (phi, result) = match self.index.find(key, &self.keys) {
            Ok(id) => {
                let phi = u64::from(self.inv[id as usize]) + 1;
                // An object's recorded size may change on re-reference
                // (e.g. an overwriting SET); keep the stack's view current.
                if self.record_chain_sizes {
                    self.sizes[id as usize] = size;
                }
                (phi, Access::Hit { phi })
            }
            Err(vacant) => {
                let pos = self.keys.len() as u64 + 1;
                assert!(pos <= u64::from(u32::MAX), "stack exceeds u32 index space");
                // A new object's id equals its initial (bottom) position.
                let id = (pos - 1) as u32;
                self.push_object(key, size, id);
                self.index.push(vacant, &self.keys);
                (pos, Access::Cold { stack_len: pos })
            }
        };
        self.update(phi);
        result
    }

    /// Appends object `id` at stack position `id + 1`, growing the
    /// per-object arrays by the fixed step.
    fn push_object(&mut self, key: u64, size: u32, id: u32) {
        let n = self.keys.len() + 1;
        reserve_stepped(&mut self.keys, n);
        reserve_stepped(&mut self.perm, n);
        reserve_stepped(&mut self.inv, n);
        self.keys.push(key);
        self.perm.push(id);
        self.inv.push(id);
        if self.record_chain_sizes {
            reserve_stepped(&mut self.sizes, n);
            self.sizes.push(size);
        }
    }

    /// Samples the swap chain for a reference at stack distance `phi` and
    /// applies it.
    fn update(&mut self, phi: u64) {
        self.chain.clear();
        self.chain_sizes.clear();
        self.last_scanned = 0;
        if phi <= 1 {
            return;
        }
        self.last_scanned = match self.updater {
            UpdaterKind::Backward => {
                update::backward_chain(phi, &self.jump, &mut self.rng, &mut self.chain)
            }
            kind => update::swap_chain(kind, phi, self.k, &mut self.rng, &mut self.chain),
        };
        debug_assert!(self.chain.first() == Some(&1));
        debug_assert!(self.chain.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(*self.chain.last().unwrap() < phi);

        // Record pre-update sizes for sizeArray maintenance (skipped in
        // uniform-size mode), then perform the cyclic shift: the entry at
        // chain[j] moves down to chain[j+1] (the last one moves to φ) and
        // the referenced object moves to the top. Only the two permutation
        // arrays are touched — ids are stable, so the key index needs no
        // updates here.
        if self.record_chain_sizes {
            self.chain_sizes.extend(
                self.chain
                    .iter()
                    .map(|&p| self.sizes[self.perm[p as usize - 1] as usize]),
            );
        }

        let id_ref = self.perm[phi as usize - 1];
        let mut dest = phi as usize;
        for &src in self.chain.iter().rev() {
            let src = src as usize;
            let id = self.perm[src - 1];
            self.perm[dest - 1] = id;
            self.inv[id as usize] = (dest - 1) as u32;
            dest = src;
        }
        debug_assert_eq!(dest, 1);
        self.perm[0] = id_ref;
        self.inv[id_ref as usize] = 0;
    }

    /// Iterates entries from stack top to bottom (test/diagnostic use).
    pub fn iter(&self) -> impl Iterator<Item = Entry> + '_ {
        self.perm.iter().map(|&id| self.entry(id))
    }

    /// Serializes the stack into a `krr-ckpt-v1` payload: `k`, updater tag,
    /// RNG state, and the entries in stack order as `(key, size)`. The
    /// id/permutation split and the key index are in-memory layout,
    /// re-derivable from stack order, and not stored — the wire bytes are
    /// identical to the pre-permutation format. Per-access scratch (the
    /// last swap chain) is transient and not stored.
    pub fn save_state(&self, enc: &mut Enc) {
        enc.put_f64(self.k).put_u8(self.updater.to_tag());
        for w in self.rng.state() {
            enc.put_u64(w);
        }
        enc.put_u64(self.perm.len() as u64);
        for e in self.iter() {
            enc.put_u64(e.key).put_u32(e.size);
        }
    }

    /// Reconstructs a stack from a [`KrrStack::save_state`] payload,
    /// rebuilding the key index from the entry array and resuming the RNG
    /// stream exactly where it left off. The restored stack records sizes;
    /// [`KrrStack::set_record_chain_sizes`] drops them again.
    pub fn load_state(dec: &mut Dec<'_>) -> io::Result<Self> {
        let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
        let k = dec.f64()?;
        let updater = UpdaterKind::from_tag(dec.u8()?)
            .ok_or_else(|| bad("unknown updater tag in checkpoint"))?;
        let rng = Xoshiro256::from_state([dec.u64()?, dec.u64()?, dec.u64()?, dec.u64()?]);
        // Each entry is 12 bytes; keep ids below the index's empty marker.
        let n = dec.count(12, "stack length")?;
        if n > u32::MAX as usize {
            return Err(bad("stack length exceeds the id space"));
        }
        // The payload lists entries in stack order; assign ids in that
        // order, so the restored permutation starts out as the identity.
        let mut s = Self::from_parts(k, updater, rng);
        s.keys = Vec::with_capacity(n);
        s.sizes = Vec::with_capacity(n);
        for _ in 0..n {
            s.keys.push(dec.u64()?);
            s.sizes.push(dec.u32()?);
        }
        s.index =
            IdIndex::for_keys(&s.keys).ok_or_else(|| bad("duplicate key in checkpointed stack"))?;
        s.perm = (0..n as u32).collect();
        s.inv = s.perm.clone();
        Ok(s)
    }

    /// Heap footprint in bytes: [`Footprint::footprint`]'s total.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.footprint().total()
    }
}

impl Footprint for KrrStack {
    /// The §5.6 space breakdown from real `Vec` capacities: the
    /// per-object arrays (keys, sizes, both permutation arrays), the id
    /// index, and the reusable swap-chain scratch buffers.
    fn footprint(&self) -> FootprintReport {
        let mut r = FootprintReport::new();
        r.add(
            "stack_entries",
            vec_bytes(&self.keys)
                + vec_bytes(&self.sizes)
                + vec_bytes(&self.perm)
                + vec_bytes(&self.inv),
        )
        .add("stack_index", vec_bytes(&self.index.slots))
        .add(
            "stack_scratch",
            vec_bytes(&self.chain) + vec_bytes(&self.chain_sizes),
        );
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::SpatialFilter;

    fn stack(k: f64, updater: UpdaterKind) -> KrrStack {
        KrrStack::new(k, updater, 0xDEAD_BEEF)
    }

    #[test]
    fn cold_misses_report_growing_stack() {
        let mut s = stack(4.0, UpdaterKind::Backward);
        for key in 0..100u64 {
            match s.access(key, 1) {
                Access::Cold { stack_len } => assert_eq!(stack_len, key + 1),
                Access::Hit { .. } => panic!("unexpected hit"),
            }
        }
        assert_eq!(s.len(), 100);
    }

    #[test]
    fn referenced_object_moves_to_top() {
        for updater in [
            UpdaterKind::Naive,
            UpdaterKind::TopDown,
            UpdaterKind::Backward,
        ] {
            let mut s = stack(4.0, updater);
            for key in 0..50u64 {
                s.access(key, 1);
                assert_eq!(s.position_of(key), Some(1), "{updater:?}");
            }
            s.access(17, 1);
            assert_eq!(s.position_of(17), Some(1));
        }
    }

    #[test]
    fn stack_remains_a_permutation() {
        for updater in [
            UpdaterKind::Naive,
            UpdaterKind::TopDown,
            UpdaterKind::Backward,
        ] {
            let mut s = stack(3.0, updater);
            let mut rng = Xoshiro256::seed_from_u64(1);
            for _ in 0..5000 {
                let key = rng.below(200);
                s.access(key, 1);
            }
            assert_eq!(s.len(), 200);
            let mut seen = std::collections::HashSet::new();
            for (i, e) in s.iter().enumerate() {
                assert!(seen.insert(e.key), "duplicate key {} ({updater:?})", e.key);
                assert_eq!(
                    s.position_of(e.key),
                    Some(i as u64 + 1),
                    "index out of sync"
                );
            }
        }
    }

    #[test]
    fn immediate_rereference_has_distance_one() {
        let mut s = stack(2.0, UpdaterKind::Backward);
        s.access(1, 1);
        assert_eq!(s.access(1, 1), Access::Hit { phi: 1 });
    }

    #[test]
    fn large_k_behaves_like_lru() {
        // With a huge effective K every interior position swaps, so the
        // stack order equals exact LRU recency order.
        let mut s = stack(1e6, UpdaterKind::Backward);
        for key in 0..20u64 {
            s.access(key, 1);
        }
        s.access(5, 1);
        // LRU order now: 5, 19, 18, ..., 6, 4, 3, 2, 1, 0
        let order: Vec<u64> = s.iter().map(|e| e.key).collect();
        let mut expect = vec![5];
        expect.extend((6..20).rev());
        expect.extend((0..5).rev());
        assert_eq!(order, expect);
    }

    #[test]
    fn hit_distance_matches_position() {
        let mut s = stack(4.0, UpdaterKind::TopDown);
        for key in 0..30u64 {
            s.access(key, 1);
        }
        let pos = s.position_of(3).unwrap();
        assert_eq!(s.access(3, 1), Access::Hit { phi: pos });
    }

    #[test]
    fn size_updates_on_rereference() {
        let mut s = stack(2.0, UpdaterKind::Backward);
        s.access(7, 100);
        s.access(7, 250);
        assert_eq!(s.entry_at(1).unwrap().size, 250);
    }

    #[test]
    fn save_load_resumes_bit_identically() {
        for updater in UpdaterKind::ALL {
            let mut a = stack(5.0, updater);
            let mut rng = Xoshiro256::seed_from_u64(2);
            for _ in 0..3000 {
                a.access(rng.below(300), 1);
            }
            let mut enc = Enc::new();
            a.save_state(&mut enc);
            let bytes = enc.into_bytes();
            let mut b = KrrStack::load_state(&mut Dec::new(&bytes)).unwrap();
            for _ in 0..3000 {
                let key = rng.below(300);
                assert_eq!(a.access(key, 1), b.access(key, 1), "{updater:?}");
            }
            let ea: Vec<_> = a.iter().collect();
            let eb: Vec<_> = b.iter().collect();
            assert_eq!(ea, eb, "{updater:?}");
        }
    }

    #[test]
    fn chain_recording_switches_keep_updates_bit_identical() {
        // Same seed, same reference sequence: turning chain recording off
        // must consume the identical RNG stream and land every object on
        // the identical position.
        let k = 5.0f64.powf(1.4);
        let mut recorded = stack(k, UpdaterKind::Backward);
        let mut unrecorded = stack(k, UpdaterKind::Backward);
        unrecorded.set_record_chain(false);
        unrecorded.set_record_chain_sizes(false);
        let mut rng = Xoshiro256::seed_from_u64(3);
        for _ in 0..20_000 {
            let key = rng.below(800);
            assert_eq!(recorded.access(key, 1), unrecorded.access(key, 1));
            assert_eq!(recorded.last_scanned(), unrecorded.last_scanned());
        }
        let a: Vec<_> = recorded.iter().collect();
        let b: Vec<_> = unrecorded.iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn chain_sizes_parallel_chain() {
        let mut s = stack(8.0, UpdaterKind::Backward);
        for key in 0..200u64 {
            s.access(key, (key % 7 + 1) as u32);
        }
        s.access(0, 1); // deep hit -> non-trivial chain
        assert_eq!(s.last_chain().len(), s.last_chain_sizes().len());
        assert!(!s.last_chain().is_empty());
    }

    /// Pushes `keys` (distinct) into a fresh index one at a time, checking
    /// it against a `HashMap` oracle after every growth, and returns the
    /// mean probe length of the final table.
    fn check_index_against_oracle(keys: &[u64]) -> f64 {
        let mut index = IdIndex::default();
        let mut oracle = std::collections::HashMap::new();
        let mut absent = Xoshiro256::seed_from_u64(9);
        let mut growths = 0;
        for (id, &key) in keys.iter().enumerate() {
            let vacant = index.find(key, &keys[..id]).expect_err("distinct keys");
            let slots = index.slots.len();
            index.push(vacant, &keys[..=id]);
            oracle.insert(key, id as u32);
            assert!((id + 1) * 8 <= index.slots.len() * 7, "load above 7/8");
            if index.slots.len() != slots {
                growths += 1;
                let present = &keys[..=id];
                for (&k, &want) in &oracle {
                    assert_eq!(index.find(k, present), Ok(want));
                }
                for _ in 0..1000 {
                    let k = absent.next_u64();
                    if !oracle.contains_key(&k) {
                        assert!(index.find(k, present).is_err());
                    }
                }
            }
        }
        assert!(growths >= 8, "only {growths} growths");
        let probes: usize = keys.iter().map(|&k| index.probes(k, keys)).sum();
        probes as f64 / keys.len() as f64
    }

    #[test]
    fn id_index_matches_hashmap_oracle_on_random_keys() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        let mut seen = std::collections::HashSet::new();
        let keys: Vec<u64> = std::iter::repeat_with(|| rng.next_u64())
            .filter(|&k| seen.insert(k))
            .take(20_000)
            .collect();
        check_index_against_oracle(&keys);
    }

    #[test]
    fn id_index_spreads_spatially_sampled_keys() {
        // Keys admitted at R = 0.001 share the low 24 bits of `hash_key`
        // (and a shard's keys share bits 32..); the probe start must not
        // cluster them. Linear probing at load α has expected successful
        // probe length (1 + 1/(1−α))/2, which is 4.5 at the 7/8 cap.
        let keys = crate::sampling::admitted_keys(SpatialFilter::with_rate(0.001), 20_000);
        let mean = check_index_against_oracle(&keys);
        assert!(mean < 2.5, "mean probe length {mean}");
        let shard: Vec<u64> = keys
            .iter()
            .copied()
            .filter(|&k| crate::sharded::shard_of_hash(hash_key(k), 8) == 3)
            .collect();
        let mean = check_index_against_oracle(&shard);
        assert!(mean < 2.5, "mean probe length in one shard {mean}");
    }

    #[test]
    fn load_state_rejects_duplicate_keys() {
        let mut s = stack(5.0, UpdaterKind::Backward);
        for key in 0..100u64 {
            s.access(key, 1);
        }
        let mut enc = Enc::new();
        s.save_state(&mut enc);
        let mut bytes = enc.into_bytes();
        // Entries are the trailing 12-byte (key, size) records; copy the
        // first entry's key over the last one's.
        let first = bytes.len() - 100 * 12;
        let last = bytes.len() - 12;
        let key: Vec<u8> = bytes[first..first + 8].to_vec();
        bytes[last..last + 8].copy_from_slice(&key);
        let err = KrrStack::load_state(&mut Dec::new(&bytes)).unwrap_err();
        assert!(err.to_string().contains("duplicate key"), "{err}");
    }

    #[test]
    fn load_state_bounds_the_length_by_the_payload() {
        let mut s = stack(5.0, UpdaterKind::Backward);
        for key in 0..10u64 {
            s.access(key, 1);
        }
        let mut enc = Enc::new();
        s.save_state(&mut enc);
        let mut bytes = enc.into_bytes();
        let len_at = bytes.len() - 10 * 12 - 8;
        for n in [11u64, 1 << 40, u64::MAX] {
            bytes[len_at..len_at + 8].copy_from_slice(&n.to_le_bytes());
            let err = KrrStack::load_state(&mut Dec::new(&bytes)).unwrap_err();
            assert!(err.to_string().contains("stack length"), "{n}: {err}");
        }
    }

    /// `sizes` is parallel to `keys` exactly while sizes are recorded.
    fn assert_sizes_in_step(s: &KrrStack) {
        let want = if s.record_chain_sizes {
            s.keys.len()
        } else {
            0
        };
        assert_eq!(s.sizes.len(), want);
        assert_eq!(s.perm.len(), s.keys.len());
        assert_eq!(s.inv.len(), s.keys.len());
    }

    #[test]
    fn switching_size_recording_keeps_sizes_in_step() {
        let mut s = stack(5.0, UpdaterKind::Backward);
        let mut rng = Xoshiro256::seed_from_u64(4);
        for round in 0..6 {
            let on = round % 2 == 0;
            s.set_record_chain_sizes(on);
            assert_sizes_in_step(&s);
            if on {
                // Objects that predate the switch start at size 1.
                assert!(s.iter().all(|e| e.size == 1));
            }
            for _ in 0..2_000 {
                let key = rng.below(1_500);
                let size = 2 + (key % 50) as u32;
                s.access(key, size);
                let got = s.entry_at(s.position_of(key).unwrap()).unwrap();
                assert_eq!(
                    got,
                    Entry {
                        key,
                        size: if on { size } else { 1 }
                    }
                );
                assert_eq!(
                    s.last_chain_sizes().len(),
                    if on { s.last_chain().len() } else { 0 }
                );
            }
            assert_sizes_in_step(&s);
            if !on {
                assert_eq!(vec_bytes(&s.sizes), 0);
            }
        }
        // A checkpoint carries the recorded sizes; the restored stack
        // records them, and dropping them reads every size as 1.
        s.set_record_chain_sizes(true);
        for key in 0..1_500u64 {
            s.access(key, 7);
        }
        let mut enc = Enc::new();
        s.save_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut r = KrrStack::load_state(&mut Dec::new(&bytes)).unwrap();
        assert_sizes_in_step(&r);
        assert!(r.iter().eq(s.iter()));
        r.set_record_chain_sizes(false);
        assert_sizes_in_step(&r);
        assert!(r.iter().all(|e| e.size == 1));
    }

    #[test]
    fn footprint_counts_capacities() {
        let mut uniform = stack(5.0, UpdaterKind::Backward);
        uniform.set_record_chain_sizes(false);
        let mut sized = stack(5.0, UpdaterKind::Backward);
        for key in 0..3_000u64 {
            uniform.access(key, 1);
            sized.access(key, 1);
        }
        for s in [&uniform, &sized] {
            let f = s.footprint();
            assert_eq!(s.memory_bytes(), f.total());
            // 3,000 objects: doubled to 1,024, then two 1,024-element steps.
            assert_eq!(s.keys.capacity(), 3_072);
            assert_eq!(f.get("stack_index"), 4 * 4_096);
        }
        let per_object = |s: &KrrStack| s.footprint().get("stack_entries") / 3_072;
        assert_eq!(per_object(&uniform), 16);
        assert_eq!(per_object(&sized), 20);
    }

    #[test]
    fn small_stacks_grow_by_doubling() {
        // A fleet tenant or a sparse shard tracks a few hundred objects; its
        // arrays must not jump to the 1,024-element step.
        let mut s = stack(5.0, UpdaterKind::Backward);
        s.set_record_chain_sizes(false);
        for key in 0..210u64 {
            s.access(key, 1);
        }
        assert_eq!(s.keys.capacity(), 256);
        let f = s.footprint();
        assert_eq!(f.get("stack_entries"), 16 * 256);
        assert_eq!(f.get("stack_index"), 4 * 256);
    }
}
