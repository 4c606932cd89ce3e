//! Ground-truth MRC construction by multi-size simulation (§5.1).
//!
//! "A simulator can only generate one miss ratio for a given cache size with
//! one pass of the input trace. To generate an MRC, we can run the simulator
//! multiple times for different cache sizes and using interpolation" — each
//! cache size is an independent single pass, so the sweep fans out over
//! scoped threads with a shared atomic work index (no locks, no shared
//! mutable state; per-size RNG seeds keep runs deterministic regardless of
//! scheduling).
//!
//! The trace is interned once before the sweep: one hash-map pass maps each
//! key to a dense id `0..M` in first-reference order, giving a read-only
//! `Vec<(id, size)>` that every size and thread shares. Each pass then
//! finds residents by indexing an array with the id instead of hashing the
//! key. The id map holds one entry per distinct key in the trace (not per
//! resident) and is dropped before the passes start; each pass adds one
//! `u32` slot index per distinct key.

use crate::klru::KLruCache;
use crate::lru::ExactLru;
use crate::{Capacity, IdCache, Interner};
use krr_core::mrc::Mrc;
use krr_trace::Request;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Replacement policy to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Exact LRU.
    ExactLru,
    /// Random sampling-based LRU with sampling size `k`.
    KLru {
        /// Eviction sampling size.
        k: u32,
        /// Sample with replacement (Redis convention) or without.
        with_replacement: bool,
    },
}

impl Policy {
    /// Redis-style K-LRU (with replacement).
    #[must_use]
    pub fn klru(k: u32) -> Self {
        Policy::KLru {
            k,
            with_replacement: true,
        }
    }

    /// Simulates one cache size over an interned trace; returns the miss
    /// ratio.
    fn miss_ratio(&self, refs: &[(u32, u32)], capacity: Capacity, seed: u64) -> f64 {
        fn run(mut cache: impl IdCache, refs: &[(u32, u32)]) -> f64 {
            for &(id, size) in refs {
                cache.access_id(id, size);
            }
            cache.stats().miss_ratio()
        }
        match *self {
            Policy::ExactLru => run(ExactLru::new(capacity), refs),
            Policy::KLru {
                k,
                with_replacement,
            } => run(
                KLruCache::with_mode(capacity, k, with_replacement, seed),
                refs,
            ),
        }
    }
}

/// Units of the capacity axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Capacities count objects.
    Objects,
    /// Capacities count bytes.
    Bytes,
}

impl Unit {
    fn capacity(&self, c: u64) -> Capacity {
        match self {
            Unit::Objects => Capacity::Objects(c),
            Unit::Bytes => Capacity::Bytes(c),
        }
    }
}

/// The trace as `(id, size)` pairs, ids dense in first-reference order.
fn intern(trace: &[Request]) -> Vec<(u32, u32)> {
    let mut ids = Interner::default();
    trace.iter().map(|r| (ids.intern(r.key), r.size)).collect()
}

/// Simulates one cache size over the whole trace; returns the miss ratio.
#[must_use]
pub fn miss_ratio(trace: &[Request], policy: Policy, capacity: Capacity, seed: u64) -> f64 {
    policy.miss_ratio(&intern(trace), capacity, seed)
}

/// Simulates every capacity in `capacities` (in parallel when
/// `threads > 1`) and returns the interpolated MRC, anchored at
/// `(0, 1.0)`.
#[must_use]
pub fn simulate_mrc(
    trace: &[Request],
    policy: Policy,
    unit: Unit,
    capacities: &[u64],
    seed: u64,
    threads: usize,
) -> Mrc {
    assert!(!capacities.is_empty(), "need at least one cache size");
    let refs = intern(trace);
    let threads = threads.max(1).min(capacities.len());
    let next = AtomicUsize::new(0);
    let partials: Vec<Vec<(f64, f64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= capacities.len() {
                            break;
                        }
                        let c = capacities[i];
                        // Seed varies per capacity so probabilistic policies
                        // don't reuse one random stream at every size.
                        let m =
                            policy.miss_ratio(&refs, unit.capacity(c), seed ^ ((i as u64) << 32));
                        local.push((c as f64, m));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("simulation thread panicked"))
            .collect()
    });
    let mut points = Vec::with_capacity(capacities.len() + 1);
    points.push((0.0, 1.0));
    points.extend(partials.into_iter().flatten());
    let mut mrc = Mrc::from_points(points);
    mrc.make_monotone();
    mrc
}

/// Working-set size of a trace: distinct objects and total distinct bytes
/// (first-size convention).
#[must_use]
pub fn working_set(trace: &[Request]) -> (u64, u64) {
    let s = krr_trace::stats(trace);
    (s.distinct, s.working_set_bytes)
}

/// `n` capacities evenly spread over `(0, max]`, deduplicated and nonzero —
/// the paper's evaluation grid.
#[must_use]
pub fn even_capacities(max: u64, n: usize) -> Vec<u64> {
    assert!(n >= 1 && max >= 1);
    let mut v: Vec<u64> = (1..=n as u64)
        .map(|i| (max * i / n as u64).max(1))
        .collect();
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use krr_trace::patterns;

    #[test]
    fn even_capacities_spread() {
        assert_eq!(even_capacities(100, 4), vec![25, 50, 75, 100]);
        assert_eq!(even_capacities(3, 6), vec![1, 2, 3]);
    }

    #[test]
    fn lru_mrc_of_loop_is_a_cliff() {
        let trace = patterns::loop_trace(100, 50_000);
        let caps = even_capacities(120, 12);
        let mrc = simulate_mrc(&trace, Policy::ExactLru, Unit::Objects, &caps, 1, 4);
        // Below the loop size: ~all misses. At/above: ~all hits.
        assert!(mrc.eval(90.0) > 0.95);
        assert!(mrc.eval(100.0) < 0.01);
    }

    #[test]
    fn klru_k1_mrc_of_loop_is_smooth() {
        let trace = patterns::loop_trace(100, 50_000);
        let caps = even_capacities(120, 12);
        let mrc = simulate_mrc(&trace, Policy::klru(1), Unit::Objects, &caps, 1, 4);
        // Random replacement on a loop reaches the steady state
        // 1 - m = (1 - 1/C)^(m*L): m(50) ≈ 0.80, m(90) ≈ 0.20 for L = 100 —
        // a smooth decrease where LRU is a cliff.
        let m50 = mrc.eval(50.0);
        let m90 = mrc.eval(90.0);
        assert!((m50 - 0.80).abs() < 0.07, "m(50) = {m50}");
        assert!((m90 - 0.20).abs() < 0.10, "m(90) = {m90}");
        assert!(
            mrc.eval(25.0) > m50 && m50 > mrc.eval(75.0),
            "smooth decrease"
        );
    }

    #[test]
    fn parallel_matches_sequential() {
        let trace = patterns::uniform_random(500, 20_000, 7);
        let caps = even_capacities(500, 8);
        let par = simulate_mrc(&trace, Policy::klru(4), Unit::Objects, &caps, 3, 4);
        let seq = simulate_mrc(&trace, Policy::klru(4), Unit::Objects, &caps, 3, 1);
        assert_eq!(
            par.points(),
            seq.points(),
            "determinism regardless of threading"
        );
    }

    #[test]
    fn mrc_is_monotone() {
        let trace = patterns::uniform_random(300, 30_000, 9);
        let caps = even_capacities(300, 10);
        let mrc = simulate_mrc(&trace, Policy::klru(2), Unit::Objects, &caps, 5, 4);
        let mut prev = f64::INFINITY;
        for &(_, m) in mrc.points() {
            assert!(m <= prev + 1e-12);
            prev = m;
        }
    }

    #[test]
    fn working_set_counts() {
        let trace = patterns::loop_trace(42, 1000);
        assert_eq!(working_set(&trace), (42, 42));
    }
}
