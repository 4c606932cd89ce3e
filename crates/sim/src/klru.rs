//! The K-LRU cache simulator (§3, §5.1): random sampling-based approximated
//! LRU, the policy KRR models.
//!
//! On eviction the cache samples `K` resident objects uniformly — with
//! replacement by default, matching Redis (§3) — and evicts the least
//! recently used of the sample. Objects live in a slot vector, so uniform
//! sampling is a single `below(len)` draw and removal is a `swap_remove`,
//! both O(1).
//!
//! Residents are found by interned object id (see [`crate::mrc_sim`]): a
//! `Vec<u32>` indexed by id holds each object's slot, so a hit is one array
//! load and an eviction two array stores. [`Cache::access`] interns the key
//! through the cache's own key → id map, one hash probe per request; that
//! map and the slot index hold one entry per distinct key ever seen, not
//! per resident.

use std::sync::Arc;

use crate::{Cache, CacheStats, Capacity, IdCache, Interner, NIL};
use krr_core::metrics::MetricsRegistry;
use krr_core::rng::Xoshiro256;
use krr_trace::Request;

#[derive(Debug, Clone, Copy)]
struct Slot {
    id: u32,
    size: u32,
    last_access: u64,
}

/// Random sampling-based LRU cache.
#[derive(Debug, Clone)]
pub struct KLruCache {
    capacity: Capacity,
    k: u32,
    with_replacement: bool,
    ids: Interner,
    /// Slot of each interned id, [`NIL`] when not resident.
    slot_of: Vec<u32>,
    slots: Vec<Slot>,
    clock: u64,
    used_bytes: u64,
    rng: Xoshiro256,
    stats: CacheStats,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl KLruCache {
    /// Creates a K-LRU cache with sampling size `k`, sampling *with*
    /// replacement (the Redis convention).
    #[must_use]
    pub fn new(capacity: Capacity, k: u32, seed: u64) -> Self {
        Self::with_mode(capacity, k, true, seed)
    }

    /// Creates a K-LRU cache with an explicit sampling mode.
    #[must_use]
    pub fn with_mode(capacity: Capacity, k: u32, with_replacement: bool, seed: u64) -> Self {
        assert!(capacity.limit() > 0, "capacity must be positive");
        assert!(k >= 1, "sampling size must be >= 1");
        Self {
            capacity,
            k,
            with_replacement,
            ids: Interner::default(),
            slot_of: Vec::new(),
            slots: Vec::new(),
            clock: 0,
            used_bytes: 0,
            rng: Xoshiro256::seed_from_u64(seed),
            stats: CacheStats::default(),
            metrics: None,
        }
    }

    /// Attaches a metrics registry; eviction counts and sampled-candidate
    /// ages (in accesses, measured on the cache's logical clock) are
    /// recorded into it.
    pub fn set_metrics(&mut self, metrics: Arc<MetricsRegistry>) {
        self.metrics = Some(metrics);
    }

    /// Number of resident objects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Bytes currently resident.
    #[must_use]
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Sampling size `K`.
    #[must_use]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Changes the sampling size in place. K only parameterizes eviction
    /// sampling, so cached contents are untouched — the reconfigurability
    /// §1 credits random sampling caches with.
    pub fn set_k(&mut self, k: u32) {
        assert!(k >= 1, "sampling size must be >= 1");
        self.k = k;
    }

    /// Resident keys ordered by recency, most recent first (test use; O(n log n)).
    #[must_use]
    pub fn recency_order(&self) -> Vec<u64> {
        let mut v: Vec<&Slot> = self.slots.iter().collect();
        v.sort_by_key(|s| std::cmp::Reverse(s.last_access));
        v.into_iter().map(|s| self.ids.key(s.id)).collect()
    }

    fn used(&self) -> u64 {
        match self.capacity {
            Capacity::Objects(_) => self.slots.len() as u64,
            Capacity::Bytes(_) => self.used_bytes,
        }
    }

    /// Samples K residents and evicts the least recently used among them.
    fn evict_one(&mut self) {
        let n = self.slots.len();
        debug_assert!(n > 0);
        let mut victim = self.rng.below_usize(n);
        let mut oldest = self.sample(victim);
        if self.with_replacement {
            for _ in 1..self.k {
                let cand = self.rng.below_usize(n);
                let last = self.sample(cand);
                if last < oldest {
                    (victim, oldest) = (cand, last);
                }
            }
        } else {
            // Distinct sample of min(K, n) slots; K is small, so rejection
            // sampling over a scratch set is cheap.
            let k = (self.k as usize).min(n);
            let mut picked = Vec::with_capacity(k);
            picked.push(victim);
            while picked.len() < k {
                let cand = self.rng.below_usize(n);
                if !picked.contains(&cand) {
                    picked.push(cand);
                    let last = self.sample(cand);
                    if last < oldest {
                        (victim, oldest) = (cand, last);
                    }
                }
            }
        }
        if let Some(m) = &self.metrics {
            m.evictions.inc();
        }
        self.remove_slot(victim);
    }

    /// A sampled candidate's last access; records its age when metrics are
    /// attached.
    fn sample(&self, slot: usize) -> u64 {
        let last = self.slots[slot].last_access;
        if let Some(m) = &self.metrics {
            m.candidate_age.record(self.clock - last);
        }
        last
    }

    fn remove_slot(&mut self, i: usize) {
        let removed = self.slots.swap_remove(i);
        self.slot_of[removed.id as usize] = NIL;
        self.used_bytes -= u64::from(removed.size);
        if let Some(moved) = self.slots.get(i) {
            // Fix the index of the slot that got moved into position i.
            self.slot_of[moved.id as usize] = i as u32;
        }
    }
}

impl Cache for KLruCache {
    fn access(&mut self, req: &Request) -> bool {
        let id = self.ids.intern(req.key);
        self.access_id(id, req.size)
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }
}

impl IdCache for KLruCache {
    fn access_id(&mut self, id: u32, size: u32) -> bool {
        self.clock += 1;
        let size = size.max(1);
        if id as usize >= self.slot_of.len() {
            self.slot_of.resize(id as usize + 1, NIL);
        }
        let i = self.slot_of[id as usize];
        if i != NIL {
            self.stats.hits += 1;
            let slot = &mut self.slots[i as usize];
            slot.last_access = self.clock;
            let old = slot.size;
            slot.size = size;
            self.used_bytes = self.used_bytes - u64::from(old) + u64::from(size);
            while self.used() > self.capacity.limit() && self.slots.len() > 1 {
                self.evict_one();
            }
            if self.used() > self.capacity.limit() {
                // The resized object alone no longer fits; drop it (the
                // access itself was still a hit).
                self.remove_slot(self.slot_of[id as usize] as usize);
            }
            return true;
        }
        self.stats.misses += 1;
        if u64::from(size) > self.capacity.limit() {
            return false;
        }
        let need = match self.capacity {
            Capacity::Objects(_) => 1,
            Capacity::Bytes(_) => u64::from(size),
        };
        while self.used() + need > self.capacity.limit() {
            self.evict_one();
        }
        self.slot_of[id as usize] = self.slots.len() as u32;
        self.slots.push(Slot {
            id,
            size,
            last_access: self.clock,
        });
        self.used_bytes += u64::from(size);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use krr_core::prob::{eviction_prob_with_replacement, eviction_prob_without_replacement};

    fn get(key: u64) -> Request {
        Request::unit(key)
    }

    #[test]
    fn basic_hit_miss_accounting() {
        let mut c = KLruCache::new(Capacity::Objects(2), 5, 1);
        assert!(!c.access(&get(1)));
        assert!(c.access(&get(1)));
        assert!(!c.access(&get(2)));
        assert_eq!(c.len(), 2);
        assert!(!c.access(&get(3)));
        assert_eq!(c.len(), 2);
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 3);
        assert!((s.miss_ratio() - 0.75).abs() < 1e-12);
    }

    /// The core statistical property (Proposition 1): rank-d eviction
    /// probability is (d^K - (d-1)^K)/C^K under with-replacement sampling.
    #[test]
    fn eviction_rank_distribution_with_replacement() {
        let c_size = 20u64;
        let k = 4u32;
        let trials = 40_000;
        let mut counts = vec![0u64; c_size as usize + 1];
        let mut cache = KLruCache::new(Capacity::Objects(c_size), k, 9);
        // Fill with keys 0..C touched in order; key i has rank C-i (key 0 is
        // the least recent => rank C).
        for key in 0..c_size {
            cache.access(&get(key));
        }
        for t in 0..trials {
            let before: std::collections::HashSet<u64> =
                cache.recency_order().into_iter().collect();
            let order = cache.recency_order(); // most recent first, rank = idx+1
            let newcomer = c_size + t;
            cache.access(&get(newcomer));
            let after: std::collections::HashSet<u64> = cache.recency_order().into_iter().collect();
            let evicted: Vec<&u64> = before.difference(&after).collect();
            assert_eq!(evicted.len(), 1);
            let rank = order.iter().position(|k| k == evicted[0]).unwrap() as u64 + 1;
            counts[rank as usize] += 1;
        }
        for d in 1..=c_size {
            let expect = eviction_prob_with_replacement(d, c_size, f64::from(k));
            let got = counts[d as usize] as f64 / trials as f64;
            let tol = 3.0 * (expect * (1.0 - expect) / trials as f64).sqrt() + 2e-3;
            assert!(
                (got - expect).abs() < tol,
                "rank {d}: got {got}, expected {expect}"
            );
        }
    }

    #[test]
    fn eviction_rank_distribution_without_replacement() {
        let c_size = 15u64;
        let k = 5u32;
        let trials = 30_000;
        let mut counts = vec![0u64; c_size as usize + 1];
        let mut cache = KLruCache::with_mode(Capacity::Objects(c_size), k, false, 11);
        for key in 0..c_size {
            cache.access(&get(key));
        }
        for t in 0..trials {
            let order = cache.recency_order();
            let before: std::collections::HashSet<u64> = order.iter().copied().collect();
            cache.access(&get(c_size + t));
            let after: std::collections::HashSet<u64> = cache.recency_order().into_iter().collect();
            let evicted: Vec<&u64> = before.difference(&after).collect();
            let rank = order.iter().position(|k| k == evicted[0]).unwrap() as u64 + 1;
            counts[rank as usize] += 1;
        }
        // Ranks below K are never evictable without replacement.
        for d in 1..u64::from(k) {
            assert_eq!(counts[d as usize], 0, "rank {d} must be safe");
        }
        for d in u64::from(k)..=c_size {
            let expect = eviction_prob_without_replacement(d, c_size, u64::from(k));
            let got = counts[d as usize] as f64 / trials as f64;
            let tol = 3.0 * (expect * (1.0 - expect) / trials as f64).sqrt() + 2e-3;
            assert!(
                (got - expect).abs() < tol,
                "rank {d}: got {got}, expected {expect}"
            );
        }
    }

    #[test]
    fn k1_is_random_replacement_and_beats_lru_on_loops() {
        // Loop of 101 keys through a 100-object cache: LRU gets zero hits,
        // random replacement hits with probability ~ C/loop.
        use crate::lru::ExactLru;
        let mut rr = KLruCache::new(Capacity::Objects(100), 1, 3);
        let mut lru = ExactLru::new(Capacity::Objects(100));
        let mut rr_hits = 0u64;
        let mut lru_hits = 0u64;
        for i in 0..200_000u64 {
            let r = get(i % 101);
            if rr.access(&r) {
                rr_hits += 1;
            }
            if lru.access(&r) {
                lru_hits += 1;
            }
        }
        assert_eq!(lru_hits, 0);
        assert!(
            rr_hits > 100_000,
            "RR should hit most of the time, got {rr_hits}"
        );
    }

    #[test]
    fn large_k_approaches_exact_lru_miss_ratio() {
        use crate::lru::ExactLru;
        use krr_core::rng::Xoshiro256;
        let cap = 200u64;
        let mut klru = KLruCache::new(Capacity::Objects(cap), 64, 5);
        let mut lru = ExactLru::new(Capacity::Objects(cap));
        let mut rng = Xoshiro256::seed_from_u64(6);
        for _ in 0..200_000 {
            let u = rng.unit();
            let r = get((u * u * 2000.0) as u64);
            klru.access(&r);
            lru.access(&r);
        }
        let a = klru.stats().miss_ratio();
        let b = lru.stats().miss_ratio();
        assert!((a - b).abs() < 0.01, "K=64 miss {a} vs LRU {b}");
    }

    #[test]
    fn byte_capacity_and_oversize_bypass() {
        let mut c = KLruCache::new(Capacity::Bytes(100), 3, 1);
        c.access(&Request::get(1, 60));
        c.access(&Request::get(2, 30));
        assert_eq!(c.used_bytes(), 90);
        c.access(&Request::get(3, 500)); // bypass
        assert_eq!(c.len(), 2);
        c.access(&Request::get(4, 50)); // must evict at least one
        assert!(c.used_bytes() <= 100);
    }

    #[test]
    fn map_stays_consistent_under_churn() {
        use krr_core::rng::Xoshiro256;
        let mut c = KLruCache::new(Capacity::Objects(50), 5, 2);
        let mut rng = Xoshiro256::seed_from_u64(8);
        for _ in 0..50_000 {
            c.access(&get(rng.below(500)));
        }
        let resident = c.slot_of.iter().filter(|&&i| i != NIL).count();
        assert_eq!(resident, c.slots.len());
        for (i, s) in c.slots.iter().enumerate() {
            assert_eq!(c.slot_of[s.id as usize], i as u32);
        }
    }
}
