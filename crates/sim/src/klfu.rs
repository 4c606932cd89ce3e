//! Sampled LFU: the paper's named future-work direction ("other
//! random-sampling policies which use other metrics, such as access
//! frequency", §7) and Redis's `allkeys-lfu`.
//!
//! On eviction, sample `K` residents and evict the one with the lowest
//! frequency estimate. Frequency follows Redis's design: an 8-bit Morris
//! counter incremented with probability `1 / (counter · lfu_log_factor + 1)`
//! and decayed by one per `decay_period` accesses of idle time, so the
//! counter tracks *recent* popularity.
//!
//! Sampled LFU is not a stack policy, so no one-pass model builds its MRC:
//! `krr simulate --policy klfu:K` runs one cache per size instead.

use crate::{Cache, CacheStats, Capacity};
use krr_core::hashing::KeyMap;
use krr_core::rng::Xoshiro256;
use krr_trace::Request;

/// Initial counter value for new objects (`LFU_INIT_VAL` in Redis),
/// protecting fresh objects from immediate eviction.
pub const LFU_INIT_VAL: u8 = 5;

#[derive(Debug, Clone, Copy)]
struct Slot {
    key: u64,
    size: u32,
    counter: u8,
    last_decay: u64,
}

/// Random sampling-based LFU cache with Redis-style probabilistic counters.
#[derive(Debug, Clone)]
pub struct KLfuCache {
    capacity: Capacity,
    k: u32,
    /// Redis `lfu-log-factor`: larger values need exponentially more hits
    /// to saturate the counter.
    log_factor: f64,
    /// Accesses of idle time per counter decrement (Redis `lfu-decay-time`,
    /// measured here in logical clock ticks).
    decay_period: u64,
    map: KeyMap<u32>,
    slots: Vec<Slot>,
    clock: u64,
    used_bytes: u64,
    rng: Xoshiro256,
    stats: CacheStats,
}

impl KLfuCache {
    /// Creates a sampled-LFU cache with Redis-like defaults
    /// (`lfu-log-factor = 10`; one counter decrement per `64 × capacity`
    /// accesses of idle time — Redis decays on a wall-clock minute scale,
    /// which is slow relative to the request rate).
    #[must_use]
    pub fn new(capacity: Capacity, k: u32, seed: u64) -> Self {
        let decay = capacity.limit().saturating_mul(64).max(1);
        Self::with_params(capacity, k, 10.0, decay, seed)
    }

    /// Creates a sampled-LFU cache with explicit counter parameters.
    #[must_use]
    pub fn with_params(
        capacity: Capacity,
        k: u32,
        log_factor: f64,
        decay_period: u64,
        seed: u64,
    ) -> Self {
        assert!(capacity.limit() > 0 && k >= 1 && decay_period >= 1);
        assert!(log_factor >= 0.0);
        Self {
            capacity,
            k,
            log_factor,
            decay_period,
            map: KeyMap::default(),
            slots: Vec::new(),
            clock: 0,
            used_bytes: 0,
            rng: Xoshiro256::seed_from_u64(seed),
            stats: CacheStats::default(),
        }
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

    /// Current frequency estimate of `key` (after decay), if resident.
    #[must_use]
    pub fn frequency_of(&self, key: u64) -> Option<u8> {
        self.map
            .get(&key)
            .map(|&i| self.decayed_counter(&self.slots[i as usize]))
    }

    fn used(&self) -> u64 {
        match self.capacity {
            Capacity::Objects(_) => self.slots.len() as u64,
            Capacity::Bytes(_) => self.used_bytes,
        }
    }

    /// Counter value after applying idle-time decay (`LFUDecrAndReturn`).
    fn decayed_counter(&self, slot: &Slot) -> u8 {
        let idle_periods = (self.clock - slot.last_decay) / self.decay_period;
        slot.counter.saturating_sub(idle_periods.min(255) as u8)
    }

    /// Probabilistic logarithmic increment (`LFULogIncr`).
    fn log_incr(&mut self, counter: u8) -> u8 {
        if counter == u8::MAX {
            return counter;
        }
        let base = f64::from(counter.saturating_sub(LFU_INIT_VAL));
        let p = 1.0 / (base * self.log_factor + 1.0);
        if self.rng.chance(p) {
            counter + 1
        } else {
            counter
        }
    }

    fn touch(&mut self, i: usize) {
        let decayed = self.decayed_counter(&self.slots[i]);
        let bumped = self.log_incr(decayed);
        let slot = &mut self.slots[i];
        slot.counter = bumped;
        slot.last_decay = self.clock;
    }

    /// Samples K residents and evicts the lowest-frequency one (ties broken
    /// by sample order, like Redis's pool insertion).
    fn evict_one(&mut self) {
        let n = self.slots.len();
        debug_assert!(n > 0);
        let mut victim = self.rng.below_usize(n);
        let mut victim_freq = self.decayed_counter(&self.slots[victim]);
        for _ in 1..self.k {
            let cand = self.rng.below_usize(n);
            let freq = self.decayed_counter(&self.slots[cand]);
            if freq < victim_freq {
                victim = cand;
                victim_freq = freq;
            }
        }
        let removed = self.slots.swap_remove(victim);
        self.map.remove(&removed.key);
        self.used_bytes -= u64::from(removed.size);
        if victim < self.slots.len() {
            self.map.insert(self.slots[victim].key, victim as u32);
        }
    }
}

impl Cache for KLfuCache {
    fn access(&mut self, req: &Request) -> bool {
        self.clock += 1;
        let size = req.size.max(1);
        if let Some(&i) = self.map.get(&req.key) {
            self.stats.hits += 1;
            self.touch(i as usize);
            let slot = &mut self.slots[i as usize];
            let old = slot.size;
            slot.size = size;
            self.used_bytes = self.used_bytes - u64::from(old) + u64::from(size);
            while self.used() > self.capacity.limit() && self.slots.len() > 1 {
                self.evict_one();
            }
            if self.used() > self.capacity.limit() {
                let i = self.map[&req.key] as usize;
                let removed = self.slots.swap_remove(i);
                self.map.remove(&removed.key);
                self.used_bytes -= u64::from(removed.size);
                if i < self.slots.len() {
                    self.map.insert(self.slots[i].key, i as u32);
                }
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
        let i = self.slots.len() as u32;
        self.slots.push(Slot {
            key: req.key,
            size,
            counter: LFU_INIT_VAL,
            last_decay: self.clock,
        });
        self.map.insert(req.key, i);
        self.used_bytes += u64::from(size);
        false
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use krr_core::rng::Xoshiro256;

    fn get(key: u64) -> Request {
        Request::unit(key)
    }

    #[test]
    fn basic_caching_works() {
        let mut c = KLfuCache::new(Capacity::Objects(2), 5, 1);
        assert!(!c.access(&get(1)));
        assert!(c.access(&get(1)));
        assert!(!c.access(&get(2)));
        assert!(!c.access(&get(3)));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn counters_grow_logarithmically() {
        let mut c = KLfuCache::with_params(Capacity::Objects(10), 5, 10.0, 1 << 40, 2);
        c.access(&get(1));
        for _ in 0..100 {
            c.access(&get(1));
        }
        let f100 = c.frequency_of(1).unwrap();
        for _ in 0..10_000 {
            c.access(&get(1));
        }
        let f10k = c.frequency_of(1).unwrap();
        assert!(f100 > LFU_INIT_VAL, "counter should grow");
        assert!(f10k > f100);
        assert!(f10k < 60, "growth must be logarithmic, got {f10k}");
    }

    #[test]
    fn frequent_keys_survive_scans() {
        // LFU's defining advantage: a one-shot scan cannot displace the
        // frequently used working set.
        let mut c = KLfuCache::with_params(Capacity::Objects(100), 10, 10.0, 1 << 40, 3);
        let mut rng = Xoshiro256::seed_from_u64(4);
        // Build frequency for 50 hot keys.
        for _ in 0..200 {
            for k in 0..50u64 {
                if rng.unit() < 0.9 {
                    c.access(&get(k));
                }
            }
        }
        // One-shot scan of 1000 cold keys.
        for k in 1_000..2_000u64 {
            c.access(&get(k));
        }
        let survivors = (0..50u64).filter(|&k| c.frequency_of(k).is_some()).count();
        assert!(
            survivors >= 45,
            "only {survivors}/50 hot keys survived the scan"
        );
    }

    #[test]
    fn decay_lets_stale_keys_die() {
        let mut c = KLfuCache::with_params(Capacity::Objects(10), 10, 1.0, 10, 5);
        // Make key 0 very frequent, then go idle.
        for _ in 0..500 {
            c.access(&get(0));
        }
        let hot = c.frequency_of(0).unwrap();
        // 2000 accesses to other keys = 200 decay periods.
        for i in 0..2_000u64 {
            c.access(&get(1 + i % 9));
        }
        let decayed = c.frequency_of(0);
        // None means the key was evicted entirely, which is also fine.
        if let Some(f) = decayed {
            assert!(f < hot, "counter must decay ({f} vs {hot})");
        }
    }

    #[test]
    fn capacity_enforced_in_bytes() {
        let mut c = KLfuCache::new(Capacity::Bytes(1_000), 5, 6);
        for k in 0..100u64 {
            c.access(&Request::get(k, 99));
            assert!(c.used_bytes() <= 1_000);
        }
    }

    #[test]
    fn map_consistent_under_churn() {
        let mut c = KLfuCache::new(Capacity::Objects(50), 5, 7);
        let mut rng = Xoshiro256::seed_from_u64(8);
        for _ in 0..30_000 {
            c.access(&get(rng.below(400)));
        }
        assert_eq!(c.map.len(), c.slots.len());
        for (i, s) in c.slots.iter().enumerate() {
            assert_eq!(c.map.get(&s.key), Some(&(i as u32)));
        }
    }
}
