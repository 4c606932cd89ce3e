//! Byte-level stack distances for variable object sizes (§4.4.1).
//!
//! A `sizeArray` keeps the exact cumulative byte size of the top `b^j` stack
//! positions for every power `b^j` up to the stack length. Because a KRR
//! update only moves objects along the swap chain, each boundary's sum
//! changes by exactly `size(referenced) − size(object crossing the
//! boundary)`, and the crossing object is the one at the largest chain
//! position at or below the boundary — an `O(log M + |chain|)` maintenance
//! cost. Byte distances for non-boundary positions are interpolated between
//! the two enclosing boundaries (Algorithm 3).

/// Logarithmic cumulative-size index over a KRR stack.
#[derive(Debug, Clone)]
pub struct SizeArray {
    base: u64,
    /// Boundary positions `1, b, b², …` (all ≤ `len`), ascending.
    bounds: Vec<u64>,
    /// `sums[j]` = exact total bytes of stack positions `1..=bounds[j]`.
    sums: Vec<u64>,
    total: u64,
    len: u64,
}

impl SizeArray {
    /// Creates an empty index with logarithmic base `base >= 2`.
    #[must_use]
    pub fn new(base: u64) -> Self {
        assert!(base >= 2, "sizeArray base must be >= 2");
        Self {
            base,
            bounds: Vec::new(),
            sums: Vec::new(),
            total: 0,
            len: 0,
        }
    }

    /// Logarithmic base in use.
    #[must_use]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Total bytes of all objects on the stack.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.total
    }

    /// Mirrored stack length.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True before the first insertion.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Registers a cold object appended at the stack end (new position
    /// `len+1`). Must be called *before* [`SizeArray::apply`] for the same
    /// reference so newly created boundaries include the object.
    pub fn on_insert(&mut self, size: u32) {
        self.len += 1;
        self.total += u64::from(size);
        let next_bound = match self.bounds.last() {
            None => 1,
            Some(&b) => b.saturating_mul(self.base),
        };
        if self.len == next_bound {
            // The whole stack fits within this boundary right now, so its
            // cumulative sum is the current total.
            self.bounds.push(next_bound);
            self.sums.push(self.total);
        }
    }

    /// Adjusts for a referenced object at position `phi` changing size from
    /// `old` to `new` (e.g. an overwriting SET). Must be called *before*
    /// [`SizeArray::apply`] for the same reference.
    pub fn on_resize(&mut self, phi: u64, old: u32, new: u32) {
        if old == new {
            return;
        }
        let delta = i64::from(new) - i64::from(old);
        self.total = add_signed(self.total, delta);
        // The object sits at phi, so every boundary covering phi shifts.
        let start = self.bounds.partition_point(|&b| b < phi);
        for s in &mut self.sums[start..] {
            *s = add_signed(*s, delta);
        }
    }

    /// Applies a stack update: the referenced object of size `ref_size`
    /// moved from `phi` to the top, and the pre-update occupant of each
    /// swap-chain position moved to the next chain position (the last one to
    /// `phi`). `chain`/`chain_sizes` come from
    /// [`crate::stack::KrrStack::last_chain`] and `last_chain_sizes`.
    pub fn apply(&mut self, chain: &[u64], chain_sizes: &[u32], phi: u64, ref_size: u32) {
        debug_assert_eq!(chain.len(), chain_sizes.len());
        if phi <= 1 {
            return;
        }
        debug_assert!(!chain.is_empty() && chain[0] == 1);
        let mut ci = 0usize;
        for (t, &b) in self.bounds.iter().enumerate() {
            if b >= phi {
                // Boundaries at or below-the-fold of φ see no net change:
                // both the referenced object and the chain moves stay inside.
                break;
            }
            // Largest chain position <= b; boundaries ascend so ci only grows.
            while ci + 1 < chain.len() && chain[ci + 1] <= b {
                ci += 1;
            }
            debug_assert!(chain[ci] <= b);
            let out_size = i64::from(chain_sizes[ci]);
            self.sums[t] = add_signed(self.sums[t], i64::from(ref_size) - out_size);
        }
    }

    /// Estimated heap footprint in bytes (logarithmically small, §4.4.1).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        (self.bounds.capacity() + self.sums.capacity()) * std::mem::size_of::<u64>()
    }

    /// Byte-level stack distance of the object at position `phi`
    /// (Algorithm 3): the exact boundary sum when `phi` is a boundary,
    /// otherwise a linear interpolation between the enclosing boundaries
    /// (or between the last boundary and the stack end).
    #[must_use]
    pub fn distance(&self, phi: u64) -> u64 {
        assert!(phi >= 1 && phi <= self.len, "position {phi} out of range");
        let idx = self.bounds.partition_point(|&b| b <= phi) - 1;
        let lo_pos = self.bounds[idx];
        let lo_sum = self.sums[idx];
        if lo_pos == phi {
            return lo_sum;
        }
        let (hi_pos, hi_sum) = if idx + 1 < self.bounds.len() {
            (self.bounds[idx + 1], self.sums[idx + 1])
        } else {
            (self.len, self.total)
        };
        debug_assert!(hi_pos > lo_pos && hi_sum >= lo_sum);
        let frac = (phi - lo_pos) as f64 / (hi_pos - lo_pos) as f64;
        lo_sum + ((hi_sum - lo_sum) as f64 * frac).round() as u64
    }

    /// Serializes the index into a `krr-ckpt-v1` payload (base, totals, and
    /// the boundary/sum arrays).
    pub fn save_state(&self, enc: &mut crate::checkpoint::Enc) {
        enc.put_u64(self.base)
            .put_u64(self.total)
            .put_u64(self.len)
            .put_u64(self.bounds.len() as u64);
        for (&b, &s) in self.bounds.iter().zip(&self.sums) {
            enc.put_u64(b).put_u64(s);
        }
    }

    /// Reconstructs an index from a [`SizeArray::save_state`] payload.
    pub fn load_state(dec: &mut crate::checkpoint::Dec<'_>) -> std::io::Result<Self> {
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
        let base = dec.u64()?;
        if base < 2 {
            return Err(bad("sizeArray base < 2 in checkpoint"));
        }
        let total = dec.u64()?;
        let len = dec.u64()?;
        let n = dec.count(16, "sizeArray bound count")?;
        let mut bounds = Vec::with_capacity(n);
        let mut sums = Vec::with_capacity(n);
        for _ in 0..n {
            bounds.push(dec.u64()?);
            sums.push(dec.u64()?);
        }
        Ok(Self {
            base,
            bounds,
            sums,
            total,
            len,
        })
    }
}

impl crate::footprint::Footprint for SizeArray {
    fn footprint(&self) -> crate::footprint::FootprintReport {
        let mut r = crate::footprint::FootprintReport::new();
        r.add("size_array", self.memory_bytes());
        r
    }
}

#[inline]
fn add_signed(value: u64, delta: i64) -> u64 {
    let out = value as i64 + delta;
    debug_assert!(out >= 0, "cumulative size went negative");
    out as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;
    use crate::stack::KrrStack;
    use crate::update::UpdaterKind;

    /// Drives a stack + sizeArray together and verifies that every boundary
    /// sum stays *exactly* equal to the naive prefix sum over the stack.
    fn check_exactness(base: u64, updater: UpdaterKind, keys: u64, ops: usize) {
        let mut stack = KrrStack::new(4.0, updater, 99);
        let mut sa = SizeArray::new(base);
        let mut rng = Xoshiro256::seed_from_u64(7);
        for _ in 0..ops {
            let key = rng.below(keys);
            let size = (rng.below(500) + 1) as u32;
            match stack.position_of(key) {
                Some(phi) => {
                    let old = stack.entry_at(phi).unwrap().size;
                    sa.on_resize(phi, old, size);
                    let acc = stack.access(key, size);
                    sa.apply(
                        stack.last_chain(),
                        stack.last_chain_sizes(),
                        acc.phi(),
                        size,
                    );
                }
                None => {
                    let acc = stack.access(key, size);
                    sa.on_insert(size);
                    sa.apply(
                        stack.last_chain(),
                        stack.last_chain_sizes(),
                        acc.phi(),
                        size,
                    );
                }
            }
        }
        // Naive verification of every boundary.
        let sizes: Vec<u64> = stack.iter().map(|e| u64::from(e.size)).collect();
        let mut bound = 1u64;
        let mut t = 0usize;
        while bound <= sizes.len() as u64 {
            let naive: u64 = sizes[..bound as usize].iter().sum();
            assert_eq!(
                sa.distance(bound),
                naive,
                "boundary {bound} (base {base}, {updater:?})"
            );
            t += 1;
            bound = base.pow(t as u32);
        }
        let total: u64 = sizes.iter().sum();
        assert_eq!(sa.total_bytes(), total);
        assert_eq!(sa.len(), sizes.len() as u64);
    }

    #[test]
    fn boundary_sums_are_exact_base2() {
        for updater in UpdaterKind::ALL {
            check_exactness(2, updater, 300, 5_000);
        }
    }

    #[test]
    fn boundary_sums_are_exact_other_bases() {
        check_exactness(4, UpdaterKind::Backward, 500, 8_000);
        check_exactness(8, UpdaterKind::Backward, 500, 8_000);
    }

    #[test]
    fn interpolation_brackets_true_prefix_sum_for_uniform_sizes() {
        // With uniform sizes the interpolation is exact everywhere.
        let mut stack = KrrStack::new(3.0, UpdaterKind::Backward, 1);
        let mut sa = SizeArray::new(2);
        for key in 0..100u64 {
            let acc = stack.access(key, 10);
            sa.on_insert(10);
            sa.apply(stack.last_chain(), stack.last_chain_sizes(), acc.phi(), 10);
        }
        for phi in 1..=100u64 {
            assert_eq!(sa.distance(phi), phi * 10, "phi={phi}");
        }
    }

    #[test]
    fn paper_figure_4_3_example() {
        // Five objects, total size 20, D at position 4, byte distance 11 via
        // exact sums (the figure's point: uniform assumption says 16).
        // Sizes chosen to reproduce: A=2, B=4, C=1, D=4, E=9 -> A+B+C+D = 11.
        let sizes = [2u32, 4, 1, 4, 9];
        let mut sa = SizeArray::new(2);
        for &s in &sizes {
            sa.on_insert(s);
        }
        // No updates yet: stack order = insertion order only if no chain was
        // applied; sums at boundaries 1,2,4 are prefix sums of insertion.
        assert_eq!(sa.distance(1), 2);
        assert_eq!(sa.distance(2), 6);
        assert_eq!(sa.distance(4), 11);
        // Uniform-size estimate would be 4 * (20/5) = 16 ≠ 11.
        let uniform_estimate = 4 * (20 / 5);
        assert_ne!(uniform_estimate as u64, sa.distance(4));
    }

    #[test]
    fn resize_propagates_to_covering_boundaries() {
        let mut sa = SizeArray::new(2);
        for _ in 0..8 {
            sa.on_insert(100);
        }
        assert_eq!(sa.distance(4), 400);
        sa.on_resize(3, 100, 150);
        assert_eq!(sa.distance(2), 200, "boundary below phi unchanged");
        assert_eq!(sa.distance(4), 450);
        assert_eq!(sa.distance(8), 850);
        assert_eq!(sa.total_bytes(), 850);
    }

    #[test]
    fn distance_at_stack_end_is_total() {
        let mut sa = SizeArray::new(2);
        for s in [5u32, 7, 11] {
            sa.on_insert(s);
        }
        assert_eq!(sa.distance(3), 23); // interpolates between bound 2 and len 3
    }

    #[test]
    fn load_state_rejects_a_bound_count_beyond_the_payload() {
        use crate::checkpoint::{Dec, Enc};
        let mut enc = Enc::new();
        enc.put_u64(2)
            .put_u64(0)
            .put_u64(0)
            .put_u64(1 << 40)
            .put_u64(7);
        let bytes = enc.into_bytes();
        let err = SizeArray::load_state(&mut Dec::new(&bytes)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn distance_beyond_len_panics() {
        let mut sa = SizeArray::new(2);
        sa.on_insert(1);
        let _ = sa.distance(2);
    }
}
