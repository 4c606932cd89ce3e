//! Swap-chain generation strategies (§2.2, §4.3).
//!
//! A KRR stack update is fully described by its *swap chain*: the ascending
//! set of stack positions `1 = v_m < v_{m-1} < … < v_1 < φ` at which the
//! object carried down from above is deposited. Positions `1` and `φ` always
//! swap; each interior position `i ∈ [2, φ-1]` swaps independently with
//! probability `1 − ((i-1)/i)^K` (Eq. 4.1).
//!
//! The three strategies sample *identically distributed* chains:
//!
//! * `naive` — Mattson's linear scan, one Bernoulli draw per position,
//!   O(φ) per update. The paper's "Basic Stack" baseline.
//! * `topdown` — Approach I (Algorithm 1): recursive interval splitting,
//!   expected O(K·log²M) per update.
//! * `backward` — Approach II (Algorithm 2): inverse-CDF jumps from `φ`
//!   back to the top, expected O(K·logM) per update.
//!
//! Chains are emitted ascending, include position 1, and exclude the
//! implicit terminal swap at `φ`.

mod backward;
mod jump;
mod naive;
mod topdown;

pub use backward::backward_chain;
pub use jump::JumpTable;
pub use naive::naive_chain;
pub use topdown::topdown_chain;

use crate::rng::Xoshiro256;

/// Which stack-update strategy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum UpdaterKind {
    /// Linear Bernoulli scan (Mattson baseline), O(φ).
    Naive,
    /// Approach I: top-down interval splitting, O(K·log²M).
    TopDown,
    /// Approach II: backward inverse-CDF sampling, O(K·logM).
    #[default]
    Backward,
}

impl UpdaterKind {
    /// All strategies, for exhaustive testing.
    pub const ALL: [UpdaterKind; 3] = [
        UpdaterKind::Naive,
        UpdaterKind::TopDown,
        UpdaterKind::Backward,
    ];

    /// Stable one-byte tag used by the `krr-ckpt-v1` checkpoint format.
    #[must_use]
    pub fn to_tag(self) -> u8 {
        match self {
            UpdaterKind::Naive => 0,
            UpdaterKind::TopDown => 1,
            UpdaterKind::Backward => 2,
        }
    }

    /// Inverse of [`UpdaterKind::to_tag`]; `None` for unknown tags (e.g. a
    /// checkpoint written by a newer build).
    #[must_use]
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(UpdaterKind::Naive),
            1 => Some(UpdaterKind::TopDown),
            2 => Some(UpdaterKind::Backward),
            _ => None,
        }
    }
}

impl std::fmt::Display for UpdaterKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdaterKind::Naive => write!(f, "naive"),
            UpdaterKind::TopDown => write!(f, "top-down"),
            UpdaterKind::Backward => write!(f, "backward"),
        }
    }
}

/// Samples a swap chain for a reference at stack distance `phi` with
/// effective sampling size `k`, appending ascending positions to `out`.
/// Returns the number of stack positions the strategy examined (its work,
/// fed to the `positions_scanned` metric).
///
/// `out` is left empty when `phi <= 1` (a top-of-stack hit needs no update).
/// The backward strategy looks up the shared [`JumpTable`] for `k` on
/// every call; hot loops hold the table and call [`backward_chain`].
#[inline]
pub fn swap_chain(
    kind: UpdaterKind,
    phi: u64,
    k: f64,
    rng: &mut Xoshiro256,
    out: &mut Vec<u64>,
) -> u64 {
    debug_assert!(out.is_empty());
    if phi <= 1 {
        return 0;
    }
    match kind {
        UpdaterKind::Naive => naive_chain(phi, k, rng, out),
        UpdaterKind::TopDown => topdown_chain(phi, k, rng, out),
        UpdaterKind::Backward => backward_chain(phi, &JumpTable::for_k(k), rng, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prob::stay_prob;

    fn chains_for(kind: UpdaterKind, phi: u64, k: f64, trials: usize) -> Vec<Vec<u64>> {
        let mut rng = Xoshiro256::seed_from_u64(kind as u64 + 1000);
        let mut out = Vec::new();
        (0..trials)
            .map(|_| {
                out.clear();
                swap_chain(kind, phi, k, &mut rng, &mut out);
                out.clone()
            })
            .collect()
    }

    #[test]
    fn chain_shape_invariants() {
        for kind in UpdaterKind::ALL {
            for &phi in &[2u64, 3, 4, 17, 100] {
                for chain in chains_for(kind, phi, 4.0, 200) {
                    assert_eq!(chain[0], 1, "{kind}: chain must start at 1");
                    assert!(chain.windows(2).all(|w| w[0] < w[1]), "{kind}: ascending");
                    assert!(*chain.last().unwrap() < phi, "{kind}: below phi");
                }
            }
        }
    }

    #[test]
    fn phi_one_yields_empty_chain() {
        for kind in UpdaterKind::ALL {
            let mut rng = Xoshiro256::seed_from_u64(5);
            let mut out = Vec::new();
            swap_chain(kind, 1, 4.0, &mut rng, &mut out);
            assert!(out.is_empty());
        }
    }

    #[test]
    fn phi_two_chain_is_always_just_position_one() {
        for kind in UpdaterKind::ALL {
            for chain in chains_for(kind, 2, 3.0, 100) {
                assert_eq!(chain, vec![1]);
            }
        }
    }

    /// The three strategies must produce identical per-position marginal swap
    /// probabilities: `P(i in chain) = 1 − ((i−1)/i)^K` for interior `i`.
    #[test]
    fn marginal_swap_probabilities_agree_with_theory() {
        let phi = 30u64;
        let trials = 60_000;
        for kind in UpdaterKind::ALL {
            for &k in &[1.0f64, 2.0, 5.0, 16.0] {
                let mut counts = vec![0u64; phi as usize];
                for chain in chains_for(kind, phi, k, trials) {
                    for &p in &chain {
                        counts[p as usize - 1] += 1;
                    }
                }
                assert_eq!(counts[0], trials as u64, "{kind}: position 1 always swaps");
                for i in 2..phi {
                    let expect = 1.0 - stay_prob(i, k);
                    let got = counts[i as usize - 1] as f64 / trials as f64;
                    let tol = 3.0 * (expect * (1.0 - expect) / trials as f64).sqrt() + 1e-3;
                    assert!(
                        (got - expect).abs() < tol,
                        "{kind} K={k} i={i}: got {got}, expected {expect}"
                    );
                }
            }
        }
    }

    /// Chains from different strategies must agree on the *joint* structure
    /// too; compare mean chain length with Corollary 1's exact expectation.
    #[test]
    fn mean_chain_length_matches_corollary_1() {
        let phi = 200u64;
        let trials = 30_000;
        for kind in UpdaterKind::ALL {
            for &k in &[1.0f64, 4.0, 8.0] {
                let total: usize = chains_for(kind, phi, k, trials).iter().map(Vec::len).sum();
                let got = total as f64 / trials as f64;
                // Chain includes forced position 1; interior expectation is
                // E[β] over [2, φ-1]: expected_swaps_exact counts x=1..φ-1
                // where the x=1 term is 1-0^K = 1, i.e. exactly our forced 1.
                let expect = crate::prob::expected_swaps_exact(phi, k);
                assert!(
                    (got - expect).abs() / expect < 0.03,
                    "{kind} K={k}: got {got}, expected {expect}"
                );
            }
        }
    }

    /// Pairwise-joint check: distribution of the *largest* interior swap
    /// position (which fully determines where the evictee of cache size φ−1
    /// comes from) must match `P(v ≤ j) = (j/(φ−1))^K` for all strategies.
    #[test]
    fn largest_swap_position_cdf_matches() {
        let phi = 40u64;
        let k = 6.0;
        let trials = 40_000;
        for kind in UpdaterKind::ALL {
            let mut hist = vec![0u64; phi as usize];
            for chain in chains_for(kind, phi, k, trials) {
                hist[*chain.last().unwrap() as usize - 1] += 1;
            }
            let mut cum = 0.0;
            for j in 1..phi {
                cum += hist[j as usize - 1] as f64 / trials as f64;
                let expect = crate::prob::eviction_position_cdf(j, phi - 1, k);
                assert!(
                    (cum - expect).abs() < 0.02,
                    "{kind} j={j}: cdf {cum} vs {expect}"
                );
            }
        }
    }
}
