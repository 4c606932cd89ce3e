//! Belady's OPT (MIN): the clairvoyant replacement lower bound.
//!
//! OPT *is* a stack algorithm (Mattson's priority = next reference time),
//! but efficient one-pass OPT stack distances need the Sugumar–Abraham
//! machinery; since OPT here serves only as the reference that
//! `tests/properties.rs` checks LRU against, we simulate it directly per
//! cache size: next-use times are
//! precomputed in a backward pass, and eviction picks the resident with the
//! furthest next use via an ordered set — O(N·logC) per size. Bypass is
//! allowed (an incoming object whose next use is furthest is not inserted),
//! i.e. this is MIN with optional placement — the strongest clairvoyant
//! bound, ≤ insertion-mandatory OPT everywhere.

use crate::CacheStats;
use krr_core::hashing::KeyMap;
use krr_trace::Request;
use std::collections::BTreeSet;

/// Per-reference next-use indices (`usize::MAX` = never again).
#[must_use]
pub fn next_use_times(trace: &[Request]) -> Vec<usize> {
    let mut next = vec![usize::MAX; trace.len()];
    let mut last_seen: KeyMap<usize> = KeyMap::default();
    for (i, r) in trace.iter().enumerate().rev() {
        if let Some(&later) = last_seen.get(&r.key) {
            next[i] = later;
        }
        last_seen.insert(r.key, i);
    }
    next
}

/// Simulates Belady's OPT at one cache size (object granularity) and
/// returns the hit/miss counters.
#[must_use]
pub fn simulate_opt(trace: &[Request], next: &[usize], capacity: u64) -> CacheStats {
    assert_eq!(trace.len(), next.len());
    assert!(capacity > 0);
    let capacity = capacity as usize;
    let mut stats = CacheStats::default();
    // Residents ordered by (next use, key); resident key -> its next use.
    let mut by_next_use: BTreeSet<(usize, u64)> = BTreeSet::new();
    let mut resident: KeyMap<usize> = KeyMap::default();
    for (i, r) in trace.iter().enumerate() {
        let this_next = next[i];
        if let Some(&cur) = resident.get(&r.key) {
            stats.hits += 1;
            // Refresh the key's priority to its new next-use time.
            by_next_use.remove(&(cur, r.key));
            by_next_use.insert((this_next, r.key));
            resident.insert(r.key, this_next);
            continue;
        }
        stats.misses += 1;
        if this_next == usize::MAX {
            // Never used again: OPT would evict it immediately; bypass.
            continue;
        }
        if resident.len() >= capacity {
            // Evict the resident with the furthest next use — unless the
            // incoming object's next use is even further (then bypass).
            let &(furthest, victim) = by_next_use.iter().next_back().expect("non-empty");
            if furthest <= this_next {
                continue;
            }
            by_next_use.remove(&(furthest, victim));
            resident.remove(&victim);
        }
        by_next_use.insert((this_next, r.key));
        resident.insert(r.key, this_next);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru::ExactLru;
    use crate::mrc_sim::even_capacities;
    use crate::{Cache, Capacity};
    use krr_core::rng::Xoshiro256;
    use krr_trace::patterns;

    #[test]
    fn next_use_computation() {
        let trace = vec![
            Request::unit(1),
            Request::unit(2),
            Request::unit(1),
            Request::unit(3),
            Request::unit(1),
        ];
        assert_eq!(
            next_use_times(&trace),
            vec![2, usize::MAX, 4, usize::MAX, usize::MAX]
        );
    }

    #[test]
    fn opt_on_loop_achieves_the_theoretical_hit_ratio() {
        // Loop of L through cache C with bypass allowed: OPT pins C keys
        // and bypasses the rest, hit ratio C/L in steady state.
        let l = 100u64;
        let c = 40u64;
        let trace = patterns::loop_trace(l, 100_000);
        let next = next_use_times(&trace);
        let stats = simulate_opt(&trace, &next, c);
        let hit = 1.0 - stats.miss_ratio();
        let expect = c as f64 / l as f64;
        assert!((hit - expect).abs() < 0.01, "hit {hit} vs theory {expect}");
    }

    #[test]
    fn opt_never_loses_to_lru() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        let trace: Vec<Request> = (0..100_000)
            .map(|_| {
                let u = rng.unit();
                Request::unit((u * u * 2_000.0) as u64)
            })
            .collect();
        let next = next_use_times(&trace);
        for &c in &even_capacities(2_000, 8) {
            let opt = simulate_opt(&trace, &next, c).miss_ratio();
            let mut lru = ExactLru::new(Capacity::Objects(c));
            for r in &trace {
                lru.access(r);
            }
            let lru_miss = lru.stats().miss_ratio();
            assert!(
                opt <= lru_miss + 1e-9,
                "OPT ({opt}) must not lose to LRU ({lru_miss}) at C={c}"
            );
        }
    }

    #[test]
    fn full_capacity_only_cold_misses() {
        let trace = patterns::loop_trace(500, 5_000);
        let next = next_use_times(&trace);
        let stats = simulate_opt(&trace, &next, 500);
        assert_eq!(stats.misses, 500);
    }
}
