//! The KRR stack: an array-backed priority stack with a hash index
//! (§4.4 "Implementation").
//!
//! Objects live in a flat slot array indexed by a stable per-object *id*
//! (assigned at first reference, never changed), and the stack order is a
//! permutation over those ids: `perm[pos] = id` with its inverse
//! `inv[id] = pos`. A hash table maps each key to its id — and because ids
//! are stable, the hash table is written exactly once per distinct object,
//! at cold insertion. A stack *update* moves only the objects on the swap
//! chain produced by one of the [`crate::update`] strategies, and applying
//! the chain touches nothing but the two flat permutation arrays (no hash
//! writes on the hot path), which is what makes KRR cheap: the expected
//! chain length is `O(K·logM)` (Corollary 1).

use crate::checkpoint::{Dec, Enc};
use crate::hashing::KeyMap;
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

    /// True if this was the first reference to the key.
    #[must_use]
    pub fn is_cold(&self) -> bool {
        matches!(self, Access::Cold { .. })
    }
}

/// The KRR priority stack.
///
/// `k` is the *effective* sampling size used by the swap probabilities —
/// callers modeling a K-LRU cache with sampling size `K` should pass
/// `K′ = K^1.4` (see [`crate::prob::k_prime`]).
#[derive(Debug, Clone)]
pub struct KrrStack {
    /// Objects by stable id (insertion order). `slots[id]` never moves.
    slots: Vec<Entry>,
    /// Stack order: `perm[pos] = id` (0-based positions, top first).
    perm: Vec<u32>,
    /// Inverse permutation: `inv[id] = pos` (0-based).
    inv: Vec<u32>,
    /// Key → id. Written once per distinct object, at cold insertion —
    /// never on the swap-chain hot path.
    index: KeyMap<u32>,
    k: f64,
    updater: UpdaterKind,
    rng: Xoshiro256,
    chain: Vec<u64>,
    chain_sizes: Vec<u32>,
    /// Whether updates capture [`Self::last_chain_sizes`]. Only the
    /// byte-level `sizeArray` maintenance needs them; uniform-size callers
    /// turn this off to skip the per-chain-element size gather.
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
        Self {
            slots: Vec::new(),
            perm: Vec::new(),
            inv: Vec::new(),
            index: KeyMap::default(),
            k,
            updater,
            rng: Xoshiro256::seed_from_u64(seed),
            chain: Vec::new(),
            chain_sizes: Vec::new(),
            record_chain_sizes: true,
            jump: JumpTable::for_k(k),
            last_scanned: 0,
        }
    }

    /// Enables or disables capturing [`Self::last_chain_sizes`] on each
    /// update (on by default). Uniform-size profiling never reads them, so
    /// [`crate::KrrModel`] switches this off unless a `sizeArray` is
    /// attached.
    pub fn set_record_chain_sizes(&mut self, on: bool) {
        self.record_chain_sizes = on;
    }

    /// Has no effect; kept so existing callers compile. Every update
    /// materializes [`Self::last_chain`]: sampling the whole chain and
    /// then applying it measures faster than applying each draw as it is
    /// sampled, so unobserved chains have nothing to skip.
    pub fn set_record_chain(&mut self, _on: bool) {}

    /// Number of distinct objects on the stack (the paper's `γ_t` / `M`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no object has been referenced yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Effective sampling size `K′` in use.
    #[must_use]
    pub fn k(&self) -> f64 {
        self.k
    }

    /// Current 1-based stack position of `key`, if present.
    #[must_use]
    pub fn position_of(&self, key: u64) -> Option<u64> {
        self.index
            .get(&key)
            .map(|&id| u64::from(self.inv[id as usize]) + 1)
    }

    /// Entry at 1-based stack position `pos`.
    #[must_use]
    pub fn entry_at(&self, pos: u64) -> Option<&Entry> {
        self.perm
            .get(pos as usize - 1)
            .map(|&id| &self.slots[id as usize])
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
        let (phi, result) = match self.index.get(&key) {
            Some(&id) => {
                let phi = u64::from(self.inv[id as usize]) + 1;
                // An object's recorded size may change on re-reference
                // (e.g. an overwriting SET); keep the stack's view current.
                self.slots[id as usize].size = size;
                (phi, Access::Hit { phi })
            }
            None => {
                let pos = self.slots.len() as u64 + 1;
                assert!(pos <= u64::from(u32::MAX), "stack exceeds u32 index space");
                // A new object's id equals its initial (bottom) position.
                let id = (pos - 1) as u32;
                self.slots.push(Entry { key, size });
                self.perm.push(id);
                self.inv.push(id);
                self.index.insert(key, id);
                (pos, Access::Cold { stack_len: pos })
            }
        };
        self.update(phi);
        result
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
                    .map(|&p| self.slots[self.perm[p as usize - 1] as usize].size),
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
    pub fn iter(&self) -> impl Iterator<Item = &Entry> {
        self.perm.iter().map(|&id| &self.slots[id as usize])
    }

    /// Serializes the stack into a `krr-ckpt-v1` payload: `k`, updater tag,
    /// RNG state, and the entry array in stack order. The id/permutation
    /// split and the key index are in-memory layout, re-derivable from
    /// stack order, and not stored — the wire bytes are identical to the
    /// pre-permutation format. Per-access scratch (the last swap chain) is
    /// transient and not stored.
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
    /// stream exactly where it left off.
    pub fn load_state(dec: &mut Dec<'_>) -> io::Result<Self> {
        let k = dec.f64()?;
        let updater = UpdaterKind::from_tag(dec.u8()?).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "unknown updater tag in checkpoint",
            )
        })?;
        let rng = Xoshiro256::from_state([dec.u64()?, dec.u64()?, dec.u64()?, dec.u64()?]);
        let n = dec.u64()?;
        let n = usize::try_from(n)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "stack length overflow"))?;
        // The payload lists entries in stack order; assign ids in that
        // order, so the restored permutation starts out as the identity.
        let mut slots = Vec::with_capacity(n);
        let mut index = KeyMap::default();
        for i in 0..n {
            let key = dec.u64()?;
            let size = dec.u32()?;
            slots.push(Entry { key, size });
            index.insert(key, i as u32);
        }
        if index.len() != slots.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "duplicate key in checkpointed stack",
            ));
        }
        Ok(Self {
            perm: (0..n as u32).collect(),
            inv: (0..n as u32).collect(),
            slots,
            index,
            k,
            updater,
            rng,
            chain: Vec::new(),
            chain_sizes: Vec::new(),
            record_chain_sizes: true,
            jump: JumpTable::for_k(k),
            last_scanned: 0,
        })
    }

    /// Estimated heap footprint in bytes: the slot array, the two
    /// permutation arrays, and the key index (§5.6's space-cost
    /// accounting).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        let entries = self.slots.capacity() * std::mem::size_of::<Entry>()
            + self.perm.capacity() * std::mem::size_of::<u32>()
            + self.inv.capacity() * std::mem::size_of::<u32>();
        // hashbrown stores (key, value) pairs plus one control byte per
        // slot at ~8/7 slack.
        let index = self.index.capacity() * (std::mem::size_of::<(u64, u32)>() + 1) * 8 / 7;
        entries + index
    }
}

impl crate::footprint::Footprint for KrrStack {
    /// The §5.6 space breakdown: the entry storage (slots plus both
    /// permutation arrays), the key index (same model as
    /// [`KrrStack::memory_bytes`]), and the reusable swap-chain scratch
    /// buffers.
    fn footprint(&self) -> crate::footprint::FootprintReport {
        let mut r = crate::footprint::FootprintReport::new();
        r.add(
            "stack_entries",
            self.slots.capacity() * std::mem::size_of::<Entry>()
                + self.perm.capacity() * std::mem::size_of::<u32>()
                + self.inv.capacity() * std::mem::size_of::<u32>(),
        )
        .add(
            "stack_index",
            crate::footprint::map_bytes(self.index.capacity(), std::mem::size_of::<(u64, u32)>()),
        )
        .add(
            "stack_scratch",
            self.chain.capacity() * std::mem::size_of::<u64>()
                + self.chain_sizes.capacity() * std::mem::size_of::<u32>(),
        );
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
