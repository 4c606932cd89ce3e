//! Approach II: backward stack update (§4.3.2, Algorithm 2).
//!
//! Swap positions are generated from `φ` back toward the stack top. The
//! object deposited at swap position `v_j` is the evictee of a KRR cache of
//! size `v_{j-1} − 1`, whose position CDF is `P(X ≤ i) = (i/C)^K` (Eq. 4.2);
//! each jump is therefore one inverse-CDF draw `⌈r^{1/K}·(i−1)⌉`. Every loop
//! iteration produces exactly one swap position, so the expected cost equals
//! the expected chain length, O(K·logM) by Corollary 1.
//!
//! For K = 1 this degenerates to Bilardi et al.'s D-RAND sampling for the
//! random-replacement stack.

use super::JumpTable;
use crate::rng::Xoshiro256;

/// Appends the swap chain for distance `phi` by sampling backward jumps
/// with `table` (built for the stack's `K`), then reverses the buffer into
/// ascending order. Returns the number of positions examined, which for
/// this updater equals the number of inverse-CDF draws (= chain length,
/// Corollary 1's cost).
pub fn backward_chain(
    phi: u64,
    table: &JumpTable,
    rng: &mut Xoshiro256,
    out: &mut Vec<u64>,
) -> u64 {
    debug_assert!(phi >= 2);
    let start = out.len();
    let mut i = phi;
    while i > 1 {
        // x = ⌈ r^(1/K) · (i-1) ⌉, r ∈ (0, 1]
        i = table.jump(rng, i - 1);
        out.push(i);
    }
    out[start..].reverse();
    (out.len() - start) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prob::sample_eviction_position;

    #[test]
    fn kernel_matches_public_function() {
        for &c in &[1u64, 2, 9, 1000] {
            for &k in &[1.0f64, 2.0, 7.5] {
                let table = JumpTable::for_k(k);
                for i in 0..200u64 {
                    // r = (200 - i) / 200 on the raw-draw grid.
                    let m = (i << 53) / 200;
                    let r = 1.0 - m as f64 * (1.0 / (1u64 << 53) as f64);
                    assert_eq!(table.position(m, c), sample_eviction_position(r, c, k));
                }
            }
        }
    }

    #[test]
    fn chain_terminates_at_one() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        let mut out = Vec::new();
        for phi in 2..100u64 {
            out.clear();
            backward_chain(phi, &JumpTable::for_k(5.0), &mut rng, &mut out);
            assert_eq!(out[0], 1);
            assert!(*out.last().unwrap() < phi);
        }
    }

    #[test]
    fn each_iteration_strictly_descends() {
        // i = x < previous i, so the loop provably terminates; verify the
        // emitted ascending chain is strictly increasing.
        let mut rng = Xoshiro256::seed_from_u64(8);
        let mut out = Vec::new();
        let table = JumpTable::for_k(8.0);
        for _ in 0..500 {
            out.clear();
            backward_chain(10_000, &table, &mut rng, &mut out);
            assert!(out.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn cost_is_one_draw_per_swap() {
        // Chain length for phi = 2^20, K = 2 should be near Corollary 1's
        // expectation, i.e. tiny compared to phi.
        let mut rng = Xoshiro256::seed_from_u64(9);
        let mut out = Vec::new();
        let phi = 1u64 << 20;
        let k = 2.0;
        let trials = 300;
        let table = JumpTable::for_k(k);
        let mut total = 0usize;
        for _ in 0..trials {
            out.clear();
            backward_chain(phi, &table, &mut rng, &mut out);
            total += out.len();
        }
        let mean = total as f64 / trials as f64;
        let expect = crate::prob::expected_swaps_exact(phi, k);
        assert!(
            (mean - expect).abs() / expect < 0.1,
            "mean {mean} vs {expect}"
        );
    }
}
