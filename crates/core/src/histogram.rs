//! Stack distance histogram (SDH).
//!
//! Records one distance per reference (object count for uniform-size
//! workloads, bytes for variable-size ones) plus the cold-miss count. A
//! configurable bin width keeps byte-granularity histograms compact; object
//! granularity uses width 1 by default, making the histogram exact.

use crate::footprint::{reserve_stepped, vec_bytes};

/// Stack-distance histogram with fixed-width bins.
///
/// Distance `d` (1-based) falls into bin `(d - 1) / bin_width`; bin `b`
/// therefore covers distances `(b·w, (b+1)·w]`, and a cache of capacity
/// `(b+1)·w` holds every reference recorded in bins `0..=b`.
#[derive(Debug, Clone)]
pub struct SdHistogram {
    bin_width: u64,
    bins: Vec<u64>,
    cold: u64,
    total: u64,
}

impl SdHistogram {
    /// Creates an empty histogram with the given bin width (>= 1).
    #[must_use]
    pub fn new(bin_width: u64) -> Self {
        assert!(bin_width >= 1, "bin width must be positive");
        Self {
            bin_width,
            bins: Vec::new(),
            cold: 0,
            total: 0,
        }
    }

    /// Records a reference at stack distance `d >= 1`.
    #[inline]
    pub fn record(&mut self, d: u64) {
        debug_assert!(d >= 1, "stack distances are 1-based");
        let bin = ((d - 1) / self.bin_width) as usize;
        if bin >= self.bins.len() {
            reserve_stepped(&mut self.bins, bin + 1);
            self.bins.resize(bin + 1, 0);
        }
        self.bins[bin] += 1;
        self.total += 1;
    }

    /// Records a cold miss (infinite stack distance).
    #[inline]
    pub fn record_cold(&mut self) {
        self.cold += 1;
        self.total += 1;
    }

    /// Total references recorded (finite distances + cold misses).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Cold misses recorded.
    #[must_use]
    pub fn cold(&self) -> u64 {
        self.cold
    }

    /// Bin width in distance units.
    #[must_use]
    pub fn bin_width(&self) -> u64 {
        self.bin_width
    }

    /// Number of occupied bins.
    #[must_use]
    pub fn num_bins(&self) -> usize {
        self.bins.len()
    }

    /// Count in bin `b`.
    #[must_use]
    pub fn bin(&self, b: usize) -> u64 {
        self.bins.get(b).copied().unwrap_or(0)
    }

    /// Miss ratio of a cache with the given capacity: the fraction of
    /// references whose distance exceeds `capacity` (including cold misses).
    /// Capacity is rounded down to a bin boundary.
    #[must_use]
    pub fn miss_ratio(&self, capacity: u64) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        let full_bins = (capacity / self.bin_width) as usize;
        let hits: u64 = self.bins.iter().take(full_bins).sum();
        (self.total - hits) as f64 / self.total as f64
    }

    /// Applies a SHARDS-adj-style count correction: under spatial sampling
    /// the number of sampled references should be `N·R` in expectation, but
    /// hot keys make the actual count deviate, which shifts the whole MRC
    /// vertically. `diff = expected − actual`: a positive value adds that
    /// many references at the smallest distance; a negative value removes
    /// mass from the smallest-distance bins (never from cold misses). The
    /// rationale is that over/under-represented hot objects contribute
    /// mostly tiny reuse distances.
    pub fn apply_count_adjustment(&mut self, diff: i64) {
        if diff > 0 {
            let d = diff as u64;
            if self.bins.is_empty() {
                self.bins.push(0);
            }
            self.bins[0] += d;
            self.total += d;
        } else {
            let mut remaining = (-diff) as u64;
            for b in &mut self.bins {
                if remaining == 0 {
                    break;
                }
                let take = (*b).min(remaining);
                *b -= take;
                self.total -= take;
                remaining -= take;
            }
        }
    }

    /// Heap footprint in bytes: the bin array at its capacity. Bins double
    /// up to 1024 and then grow by a fixed step of `max(len/8, 1024)`.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        vec_bytes(&self.bins)
    }

    /// Merges another histogram (must share the bin width) into this one.
    pub fn merge(&mut self, other: &SdHistogram) {
        assert_eq!(self.bin_width, other.bin_width, "bin widths must match");
        if other.bins.len() > self.bins.len() {
            reserve_stepped(&mut self.bins, other.bins.len());
            self.bins.resize(other.bins.len(), 0);
        }
        for (a, &b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.cold += other.cold;
        self.total += other.total;
    }

    /// Iterates `(bin_upper_boundary, count)` over occupied bins.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.bins
            .iter()
            .enumerate()
            .map(move |(b, &c)| ((b as u64 + 1) * self.bin_width, c))
    }

    /// Serializes the histogram into a `krr-ckpt-v1` payload (bin width,
    /// cold count, total, raw bin counts): an O(bins) direct dump, suitable
    /// for frequent checkpoints of histograms holding billions of references.
    pub fn save_state(&self, enc: &mut crate::checkpoint::Enc) {
        enc.put_u64(self.bin_width)
            .put_u64(self.cold)
            .put_u64(self.total)
            .put_u64(self.bins.len() as u64);
        for &b in &self.bins {
            enc.put_u64(b);
        }
    }

    /// Reconstructs a histogram from a [`SdHistogram::save_state`] payload.
    pub fn load_state(dec: &mut crate::checkpoint::Dec<'_>) -> std::io::Result<Self> {
        let bin_width = dec.u64()?;
        if bin_width == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "histogram bin width 0 in checkpoint",
            ));
        }
        let cold = dec.u64()?;
        let total = dec.u64()?;
        let n = dec.count(8, "histogram bin count")?;
        let mut bins = Vec::with_capacity(n);
        for _ in 0..n {
            bins.push(dec.u64()?);
        }
        Ok(Self {
            bin_width,
            bins,
            cold,
            total,
        })
    }
}

impl crate::footprint::Footprint for SdHistogram {
    fn footprint(&self) -> crate::footprint::FootprintReport {
        let mut r = crate::footprint::FootprintReport::new();
        r.add("histogram", self.memory_bytes());
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_binning_at_width_one() {
        let mut h = SdHistogram::new(1);
        h.record(1);
        h.record(1);
        h.record(3);
        h.record_cold();
        assert_eq!(h.total(), 4);
        assert_eq!(h.cold(), 1);
        assert_eq!(h.bin(0), 2);
        assert_eq!(h.bin(1), 0);
        assert_eq!(h.bin(2), 1);
        // capacity 0: everything misses
        assert_eq!(h.miss_ratio(0), 1.0);
        // capacity 1 holds the two distance-1 refs
        assert_eq!(h.miss_ratio(1), 0.5);
        // capacity 2 adds nothing
        assert_eq!(h.miss_ratio(2), 0.5);
        // capacity 3 holds distance-3 too; only the cold miss remains
        assert_eq!(h.miss_ratio(3), 0.25);
        assert_eq!(h.miss_ratio(u64::MAX / 2), 0.25);
    }

    #[test]
    fn wide_bins_round_capacity_down() {
        let mut h = SdHistogram::new(10);
        for d in 1..=10 {
            h.record(d); // all land in bin 0
        }
        h.record(11); // bin 1
        assert_eq!(h.bin(0), 10);
        assert_eq!(h.bin(1), 1);
        assert_eq!(h.miss_ratio(9), 1.0); // capacity below first boundary
        assert!((h.miss_ratio(10) - 1.0 / 11.0).abs() < 1e-12);
        assert_eq!(h.miss_ratio(20), 0.0);
    }

    #[test]
    fn count_adjustment_positive_adds_at_distance_one() {
        let mut h = SdHistogram::new(1);
        h.record(5);
        h.apply_count_adjustment(3);
        assert_eq!(h.total(), 4);
        assert_eq!(h.bin(0), 3);
        assert_eq!(h.miss_ratio(1), 0.25);
    }

    #[test]
    fn count_adjustment_negative_drains_small_bins_first() {
        let mut h = SdHistogram::new(1);
        h.record(1);
        h.record(1);
        h.record(3);
        h.record_cold();
        h.apply_count_adjustment(-3);
        // Two from bin 0, one from bin 2; cold untouched.
        assert_eq!(h.bin(0), 0);
        assert_eq!(h.bin(2), 0);
        assert_eq!(h.cold(), 1);
        assert_eq!(h.total(), 1);
    }

    #[test]
    fn count_adjustment_on_empty_histogram() {
        let mut h = SdHistogram::new(1);
        h.apply_count_adjustment(2);
        assert_eq!(h.total(), 2);
        h.apply_count_adjustment(-10);
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = SdHistogram::new(2);
        let mut b = SdHistogram::new(2);
        a.record(1);
        b.record(4);
        b.record_cold();
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.cold(), 1);
        assert_eq!(a.bin(0), 1);
        assert_eq!(a.bin(1), 1);
    }

    #[test]
    fn empty_histogram_misses_everything() {
        let h = SdHistogram::new(1);
        assert_eq!(h.miss_ratio(100), 1.0);
    }

    #[test]
    fn load_state_rejects_a_bin_count_beyond_the_payload() {
        use crate::checkpoint::{Dec, Enc};
        let mut enc = Enc::new();
        enc.put_u64(1)
            .put_u64(0)
            .put_u64(0)
            .put_u64(1 << 40)
            .put_u64(7);
        let bytes = enc.into_bytes();
        let err = SdHistogram::load_state(&mut Dec::new(&bytes)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn iter_reports_bin_boundaries() {
        let mut h = SdHistogram::new(5);
        h.record(3);
        h.record(12);
        let v: Vec<_> = h.iter().collect();
        assert_eq!(v, vec![(5, 1), (10, 0), (15, 1)]);
    }
}
