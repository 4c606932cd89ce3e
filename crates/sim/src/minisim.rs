//! Miniature cache simulation (Waldspurger et al., ATC '17; §6.2 of the
//! paper's related work).
//!
//! For policies with no one-pass stack model, an MRC can still be built
//! cheaply: emulate each target cache size `C` with a *scaled-down* cache of
//! size `C·R` fed only the spatially sampled (rate `R`) requests. One pass
//! drives all miniature caches simultaneously. This is the generic
//! alternative KRR competes with for K-LRU — and the only practical option
//! for non-stack policies like sampled LFU (see [`crate::klfu`]).

use crate::{Cache, Capacity};
use krr_core::mrc::Mrc;
use krr_core::sampling::SpatialFilter;
use krr_trace::Request;

/// One-pass multi-size miniature simulation.
pub struct MiniSim {
    filter: SpatialFilter,
    minis: Vec<(u64, Box<dyn Cache>)>,
    processed: u64,
    sampled: u64,
}

impl MiniSim {
    /// Creates miniature caches for every target capacity, scaled by
    /// `rate`. `factory` builds the policy under study at a given
    /// (scaled-down) capacity — e.g. `|c| Box::new(KLruCache::new(c, 5, 1))`.
    ///
    /// Capacities are in the same unit the factory interprets (objects or
    /// bytes); each miniature capacity is `max(1, C·R)`.
    pub fn new(
        capacities: &[u64],
        rate: f64,
        factory: impl Fn(Capacity) -> Box<dyn Cache>,
        byte_capacities: bool,
    ) -> Self {
        assert!(!capacities.is_empty());
        let filter = if rate >= 1.0 {
            SpatialFilter::all()
        } else {
            SpatialFilter::with_rate(rate)
        };
        let minis = capacities
            .iter()
            .map(|&c| {
                let scaled = ((c as f64 * filter.rate()).round() as u64).max(1);
                let cap = if byte_capacities {
                    Capacity::Bytes(scaled)
                } else {
                    Capacity::Objects(scaled)
                };
                (c, factory(cap))
            })
            .collect();
        Self {
            filter,
            minis,
            processed: 0,
            sampled: 0,
        }
    }

    /// Offers one request to every miniature cache (if its key samples in).
    pub fn access(&mut self, req: &Request) {
        self.processed += 1;
        if !self.filter.admits(req.key) {
            return;
        }
        self.sampled += 1;
        for (_, cache) in &mut self.minis {
            cache.access(req);
        }
    }

    /// Offers a uniform-size reference.
    pub fn access_key(&mut self, key: u64) {
        self.access(&Request::unit(key));
    }

    /// `(processed, sampled)` reference counts.
    #[must_use]
    pub fn counts(&self) -> (u64, u64) {
        (self.processed, self.sampled)
    }

    /// Per-capacity miss ratios of the miniature caches, with the same
    /// count correction the KRR model applies (DESIGN.md §6): sampled
    /// reference counts deviate from `N·R` when hot keys (don't) sample in,
    /// shifting every miniature miss ratio vertically; re-normalizing the
    /// denominator to `N·R` attributes the excess/shortfall to hits.
    #[must_use]
    pub fn miss_ratios(&self) -> Vec<(u64, f64)> {
        let expected = (self.processed as f64 * self.filter.rate()).max(1.0);
        self.minis
            .iter()
            .map(|(c, cache)| {
                let s = cache.stats();
                (*c, (s.misses as f64 / expected).clamp(0.0, 1.0))
            })
            .collect()
    }

    /// The interpolated MRC over the target capacities.
    #[must_use]
    pub fn mrc(&self) -> Mrc {
        let mut points = vec![(0.0, 1.0)];
        points.extend(self.miss_ratios().into_iter().map(|(c, m)| (c as f64, m)));
        let mut mrc = Mrc::from_points(points);
        mrc.make_monotone();
        mrc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::klru::KLruCache;
    use crate::lru::ExactLru;
    use crate::mrc_sim::{even_capacities, simulate_mrc, Policy, Unit};
    use krr_core::rng::Xoshiro256;

    fn skewed_trace(keys: u64, n: usize, seed: u64) -> Vec<Request> {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let u = rng.unit();
                Request::unit((u * u * keys as f64) as u64)
            })
            .collect()
    }

    #[test]
    fn rate_one_equals_full_simulation() {
        let trace = skewed_trace(2_000, 60_000, 1);
        let caps = even_capacities(2_000, 8);
        let mut ms = MiniSim::new(&caps, 1.0, |c| Box::new(ExactLru::new(c)), false);
        for r in &trace {
            ms.access(r);
        }
        let full = simulate_mrc(&trace, Policy::ExactLru, Unit::Objects, &caps, 1, 1);
        for &c in &caps {
            let a = ms.mrc().eval(c as f64);
            let b = full.eval(c as f64);
            assert!((a - b).abs() < 1e-9, "C={c}: {a} vs {b}");
        }
    }

    #[test]
    fn sampled_minisim_tracks_full_klru() {
        let keys = 100_000u64;
        let trace = skewed_trace(keys, 400_000, 2);
        let caps = even_capacities(keys, 10);
        let mut ms = MiniSim::new(&caps, 0.05, |c| Box::new(KLruCache::new(c, 5, 7)), false);
        for r in &trace {
            ms.access(r);
        }
        let (_, sampled) = ms.counts();
        assert!(sampled < trace.len() as u64 / 10);
        let full = simulate_mrc(&trace, Policy::klru(5), Unit::Objects, &caps, 3, 1);
        let sizes: Vec<f64> = caps.iter().map(|&c| c as f64).collect();
        let mae = ms.mrc().mae(&full, &sizes);
        // ~5K sampled objects at R=0.05: expect a slightly larger
        // sampling error than the paper's 8K-object guard implies.
        assert!(mae < 0.045, "miniature simulation MAE {mae}");
    }

    #[test]
    fn byte_capacities_scale_too() {
        let trace: Vec<Request> = skewed_trace(5_000, 50_000, 3)
            .into_iter()
            .map(|r| Request::get(r.key, 100))
            .collect();
        let caps = [100_000u64, 250_000, 500_000];
        let mut ms = MiniSim::new(&caps, 0.5, |c| Box::new(KLruCache::new(c, 5, 9)), true);
        for r in &trace {
            ms.access(r);
        }
        let mrc = ms.mrc();
        assert!(mrc.eval(100_000.0) > mrc.eval(500_000.0));
    }

    #[test]
    fn tiny_capacity_clamps_to_one() {
        let caps = [10u64];
        let ms = MiniSim::new(&caps, 0.001, |c| Box::new(ExactLru::new(c)), false);
        // 10 * 0.001 rounds to 0 -> clamped to 1; construction must not panic.
        assert_eq!(ms.miss_ratios()[0].0, 10);
    }
}
