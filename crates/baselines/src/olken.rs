//! Olken's exact LRU stack-distance algorithm (§5.1's "Mattson's LRU stack
//! algorithm using a balanced search tree").
//!
//! Each referenced object's last-access time lives in an order-statistic
//! tree; the LRU stack distance of a re-reference is
//! `1 + count_greater(previous_time)`. O(logM) per access — still the lower
//! bound for *exact* LRU MRCs.

use crate::ostree::OsTreap;
use krr_core::hashing::KeyMap;
use krr_core::histogram::SdHistogram;
use krr_core::mrc::Mrc;

/// One-pass exact LRU MRC profiler.
#[derive(Debug, Clone)]
pub struct OlkenLru {
    tree: OsTreap,
    last: KeyMap<u64>,
    hist: SdHistogram,
    clock: u64,
}

impl Default for OlkenLru {
    fn default() -> Self {
        Self::new()
    }
}

impl OlkenLru {
    /// Creates an empty profiler.
    #[must_use]
    pub fn new() -> Self {
        Self {
            tree: OsTreap::new(),
            last: KeyMap::default(),
            hist: SdHistogram::new(1),
            clock: 0,
        }
    }

    /// Processes one reference; returns the LRU stack distance, or `None`
    /// for a cold miss.
    pub fn access_key(&mut self, key: u64) -> Option<u64> {
        self.clock += 1;
        let now = self.clock;
        match self.last.insert(key, now) {
            Some(prev) => {
                let d = self.tree.count_greater(prev) + 1;
                self.tree.remove(prev);
                self.tree.insert(now);
                self.hist.record(d);
                Some(d)
            }
            None => {
                self.tree.insert(now);
                self.hist.record_cold();
                None
            }
        }
    }

    /// Distinct objects seen.
    #[must_use]
    pub fn distinct(&self) -> u64 {
        self.last.len() as u64
    }

    /// The exact LRU MRC over the processed references.
    #[must_use]
    pub fn mrc(&self) -> Mrc {
        Mrc::from_histogram(&self.hist, 1.0)
    }

    /// The MRC with the size axis expanded by `scale` — for a shadow
    /// profiler fed a spatial sample at rate `R`, pass `1/R` to express
    /// cache sizes at full-trace scale (the SHARDS construction).
    #[must_use]
    pub fn mrc_scaled(&self, scale: f64) -> Mrc {
        Mrc::from_histogram(&self.hist, scale)
    }

    /// The stack-distance histogram.
    #[must_use]
    pub fn histogram(&self) -> &SdHistogram {
        &self.hist
    }
}

impl krr_core::footprint::Footprint for OlkenLru {
    /// Tree slab + key→time index + histogram: the O(M) exact-profiler
    /// footprint KRR's sampled stack is compared against (§5.6).
    fn footprint(&self) -> krr_core::footprint::FootprintReport {
        let mut r = self.tree.footprint();
        r.add(
            "olken_index",
            krr_core::footprint::map_bytes(self.last.capacity(), std::mem::size_of::<(u64, u64)>()),
        );
        r.merge(&self.hist.footprint());
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances_match_hand_computation() {
        let mut o = OlkenLru::new();
        assert_eq!(o.access_key(1), None);
        assert_eq!(o.access_key(2), None);
        assert_eq!(o.access_key(3), None);
        assert_eq!(o.access_key(1), Some(3)); // stack: 3,2,1
        assert_eq!(o.access_key(1), Some(1));
        assert_eq!(o.access_key(2), Some(3)); // stack: 1,3,2
        assert_eq!(o.access_key(3), Some(3)); // stack: 2,1,3
    }

    #[test]
    fn loop_trace_has_constant_distance() {
        let mut o = OlkenLru::new();
        let m = 50u64;
        for i in 0..500u64 {
            let d = o.access_key(i % m);
            if i >= m {
                assert_eq!(d, Some(m));
            }
        }
    }

    #[test]
    fn mrc_matches_exact_lru_simulation() {
        use krr_sim::{even_capacities, simulate_mrc, Policy, Unit};
        use krr_trace::patterns;
        let trace = patterns::uniform_random(400, 50_000, 3);
        let mut o = OlkenLru::new();
        for r in &trace {
            o.access_key(r.key);
        }
        let caps = even_capacities(400, 40);
        let sim = simulate_mrc(&trace, Policy::ExactLru, Unit::Objects, &caps, 1, 4);
        let sizes: Vec<f64> = caps.iter().map(|&c| c as f64).collect();
        let mae = o.mrc().mae(&sim, &sizes);
        assert!(mae < 0.002, "Olken vs LRU simulation MAE {mae}");
    }

    #[test]
    fn distances_match_naive_list_stack() {
        // Brute-force LRU stack as the oracle.
        use krr_core::rng::Xoshiro256;
        let mut o = OlkenLru::new();
        let mut list: Vec<u64> = Vec::new();
        let mut rng = Xoshiro256::seed_from_u64(4);
        for _ in 0..5000 {
            let key = rng.below(200);
            let expect = list.iter().position(|&k| k == key).map(|p| p as u64 + 1);
            if let Some(p) = expect {
                list.remove(p as usize - 1);
            }
            list.insert(0, key);
            assert_eq!(o.access_key(key), expect);
        }
    }
}
