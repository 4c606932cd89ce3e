//! The backward jump `x = ⌈r^{1/K}·c⌉` as a per-`K` table kernel.
//!
//! Every backward swap position (Algorithm 2) is one inverse-CDF draw.
//! The reference pipeline reconstructs `r = 1 − m·2⁻⁵³` from the raw
//! 53-bit draw `m` (exactly as `Xoshiro256::unit_open_low` does) and
//! evaluates `⌈powf(r, 1/K)·c⌉`, clamped to `[1, c]`. This kernel returns
//! the same position without `powf`:
//!
//! * `r = n·2⁻⁵³` exactly, with `n = 2⁵³ − m = 2ᵉ(1+f)`. Split `f` into its
//!   top 8 bits `i` and a remainder, so `1+f = (1+i/256)(1+u)` with
//!   `|u| < 2⁻⁸`.
//! * `r^{1/K} = (2^{e−53})^{1/K} · (1+i/256)^{1/K} · (1+u)^{1/K}`: two
//!   table lookups (54 + 256 entries, built with `powf` from exactly
//!   representable bases) and a degree-5 binomial series in `u`, whose
//!   truncation error is below `2⁻⁴⁸·|binom(1/K, 6)|`.
//!
//! # Bit-exactness
//!
//! The kernel's relative error against `powf` stays within a few ulps
//! (`tests/jump_kernel.rs` asserts ≤ `2⁻⁴⁸`), far inside the `GUARD` band
//! of `2⁻⁴⁰`. A kernel result is returned only when every value within
//! that band of `y = r^{1/K}·c` has the same ceiling and it lies in
//! `[1, c]`; otherwise (an integer within the band — at `c ≤ 70K` less
//! than once per 10⁶ draws) the draw falls back to the reference pipeline
//! itself. So positions, swap chains and MRC bytes equal the `powf`
//! pipeline's by construction.
//!
//! Tables depend only on `K`, so they are built once per distinct `K`
//! (~4.5 KiB) and shared process-wide; holders keep the `Arc` rather than
//! calling [`JumpTable::for_k`] per draw, which takes a global lock.

use crate::rng::Xoshiro256;
use std::sync::{Arc, Mutex};

const M_SPAN: u64 = 1 << 53;

/// Relative half-width of the band around `y` inside which the kernel
/// defers to `powf`: ~1,700× the kernel's measured worst-case error.
const GUARD: f64 = 1.0 / (1u64 << 40) as f64;

/// Inverse-CDF jump tables for one effective sampling size `K`.
#[derive(Debug)]
pub struct JumpTable {
    inv_k: f64,
    /// `exp[e] = (2^{e−53})^{1/K}` for `e = 0..=53`.
    exp: [f64; 54],
    /// `mant[i] = (1 + i/256)^{1/K}`.
    mant: [f64; 256],
    /// `recip[i] = 1 / (1 + i/256)`.
    recip: [f64; 256],
    /// Binomial series coefficients `binom(1/K, j)` for `j = 1..=5`.
    series: [f64; 5],
}

impl JumpTable {
    fn build(k: f64) -> Self {
        let inv_k = 1.0 / k;
        let mut series = [0.0; 5];
        let mut a = 1.0;
        for (j, s) in series.iter_mut().enumerate() {
            a *= (inv_k - j as f64) / (j + 1) as f64;
            *s = a;
        }
        let base = |i: usize| 1.0 + i as f64 / 256.0;
        Self {
            inv_k,
            exp: std::array::from_fn(|e| (2f64).powi(e as i32 - 53).powf(inv_k)),
            mant: std::array::from_fn(|i| base(i).powf(inv_k)),
            recip: std::array::from_fn(|i| 1.0 / base(i)),
            series,
        }
    }

    /// Shared table for sampling size `k`, built on first request and
    /// cached process-wide by `k`'s bit pattern.
    pub fn for_k(k: f64) -> Arc<Self> {
        static CACHE: Mutex<Vec<(u64, Arc<JumpTable>)>> = Mutex::new(Vec::new());
        let bits = k.to_bits();
        let mut cache = CACHE.lock().expect("jump table cache poisoned");
        if let Some((_, t)) = cache.iter().find(|(b, _)| *b == bits) {
            return Arc::clone(t);
        }
        let t = Arc::new(Self::build(k));
        cache.push((bits, Arc::clone(&t)));
        t
    }

    /// One backward jump below base `c`: consumes one 53-bit draw (the
    /// same bits `unit_open_low` would) and returns its position in
    /// `[1, c]`.
    #[inline]
    pub(crate) fn jump(&self, rng: &mut Xoshiro256, c: u64) -> u64 {
        self.position(rng.next_u64() >> 11, c)
    }

    /// The kernel's estimate of `r^{1/K}` for `r = 1 − m·2⁻⁵³`
    /// (`m < 2⁵³`), within a few ulps of `powf`.
    #[inline]
    pub fn root(&self, m: u64) -> f64 {
        debug_assert!(m < M_SPAN);
        let n = M_SPAN - m;
        let lz = n.leading_zeros();
        // Leading one at bit 63; the next 8 bits are i, the 55 below them
        // (at most 44 of them nonzero) are f − i/256 scaled by 2⁶³.
        let norm = n << lz;
        let i = (norm >> 55) as usize & 0xFF;
        let d = (norm & ((1 << 55) - 1)) as f64 * (1.0 / (1u64 << 63) as f64);
        let u = d * self.recip[i];
        let [a1, a2, a3, a4, a5] = self.series;
        // Estrin's scheme: a shorter dependency chain than Horner's.
        let u2 = u * u;
        let series = (1.0 + a1 * u) + u2 * ((a2 + a3 * u) + u2 * (a4 + a5 * u));
        self.exp[(63 - lz) as usize] * self.mant[i] * series
    }

    /// The jump position `⌈r^{1/K}·c⌉` clamped to `[1, c]` for raw draw
    /// `m`, bit-identical to the `powf` pipeline.
    #[inline]
    pub fn position(&self, m: u64, c: u64) -> u64 {
        // For c < 2⁶³ the i64 conversions equal the u64 ones; unlike those
        // they are single instructions on the jump chain's critical path.
        let y = self.root(m) * c as i64 as f64;
        let x = y as i64;
        let frac = y - x as f64;
        let tol = y * GUARD;
        // No integer within the band: every value in it has ceiling x + 1.
        if frac > tol && frac < 1.0 - tol && (x as u64) < c {
            x as u64 + 1
        } else {
            self.position_powf(m, c)
        }
    }

    /// The reference pipeline, verbatim.
    #[cold]
    #[inline(never)]
    fn position_powf(&self, m: u64, c: u64) -> u64 {
        let r = 1.0 - m as f64 * (1.0 / M_SPAN as f64);
        ((r.powf(self.inv_k) * c as f64).ceil() as u64).clamp(1, c)
    }
}
