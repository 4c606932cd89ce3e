//! The backward-jump table kernel (`update::JumpTable`) against the
//! reference float pipeline `⌈powf(r, 1/K)·c⌉` of
//! `prob::sample_eviction_position`, with `r = 1 − m·2⁻⁵³` reconstructed
//! from the raw draw `m` exactly as `Xoshiro256::unit_open_low` does.
//!
//! Positions must be equal on every draw tried: random draws over
//! log-spaced bases up to 2³², the grid's edges and the kernel's table
//! transitions, and the neighbourhood of every small-base cutoff, where
//! the ceiling changes value. The kernel's own error against `powf` must
//! also stay ≤ 2⁻⁴⁸, so the 2⁻⁴⁰ guard band keeps its margin.

use krr::core::prob::sample_eviction_position;
use krr::core::rng::Xoshiro256;
use krr::core::update::JumpTable;
use std::sync::Arc;

const M_SPAN: u64 = 1 << 53;
const MAX_REL_ERR: f64 = 1.0 / (1u64 << 48) as f64;

fn ks() -> [f64; 6] {
    [1.0, 2.0, 5f64.powf(1.4), 3.7, 25.0, 100.0]
}

fn r_of(m: u64) -> f64 {
    1.0 - m as f64 * (1.0 / M_SPAN as f64)
}

fn reference(m: u64, c: u64, k: f64) -> u64 {
    sample_eviction_position(r_of(m), c, k)
}

/// Checks one draw: equal position, and the kernel's root within
/// [`MAX_REL_ERR`] of `powf`.
fn check(t: &JumpTable, k: f64, m: u64, c: u64) {
    assert_eq!(t.position(m, c), reference(m, c, k), "K={k} c={c} m={m}");
    let want = r_of(m).powf(1.0 / k);
    let err = (t.root(m) - want).abs() / want;
    assert!(err <= MAX_REL_ERR, "K={k} m={m}: relative error {err:e}");
}

#[test]
fn random_draws_match_over_log_spaced_bases() {
    let mut rng = Xoshiro256::seed_from_u64(0x1E4F);
    for k in ks() {
        let t = JumpTable::for_k(k);
        for step in 0..=62 {
            // c = 2^(1 + step/2), 2 through 2^32.
            let c = 2f64.powf(1.0 + f64::from(step) / 2.0).round() as u64;
            for _ in 0..4_000 {
                check(&t, k, rng.next_u64() >> 11, c);
            }
        }
    }
}

#[test]
fn edge_draws_and_table_transitions_match() {
    // n = 2⁵³ − m: powers of two switch the exponent table, multiples of
    // 2^(e−8) switch the 1/256 mantissa table.
    let mut ns = vec![1u64, 2, M_SPAN];
    for e in 0..=53u32 {
        let base = 1u64 << e;
        ns.extend([base - 1, base, base + 1]);
        if e >= 8 {
            for i in 1..256u64 {
                let n = base + (i << (e - 8));
                ns.extend([n - 1, n, n + 1]);
            }
        }
    }
    let ms: Vec<u64> = ns
        .into_iter()
        .filter(|n| (1..=M_SPAN).contains(n))
        .map(|n| M_SPAN - n)
        .collect();
    for k in ks() {
        let t = JumpTable::for_k(k);
        for c in [1u64, 2, 3, 64, 65, 1_000, 70_000, u64::from(u32::MAX)] {
            for &m in &ms {
                check(&t, k, m, c);
            }
        }
    }
}

/// Smallest draw `m` whose reference position is `≤ j`; the position is
/// nonincreasing in `m` (`r` falls as `m` rises).
fn cutoff(c: u64, j: u64, k: f64) -> u64 {
    let (mut lo, mut hi) = (0u64, M_SPAN);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if reference(mid, c, k) <= j {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

#[test]
fn small_base_cutoff_neighbourhoods_match() {
    for k in ks() {
        let t = JumpTable::for_k(k);
        for c in 2..=64u64 {
            for j in 1..c {
                let cut = cutoff(c, j, k);
                for m in cut.saturating_sub(4)..=(cut + 4).min(M_SPAN - 1) {
                    check(&t, k, m, c);
                }
            }
        }
    }
}

#[test]
fn tables_are_shared_per_k() {
    let a = JumpTable::for_k(7.25);
    let b = JumpTable::for_k(7.25);
    assert!(Arc::ptr_eq(&a, &b));
}
