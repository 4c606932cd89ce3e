//! Exact-bits goldens for the ground-truth simulators: `simulate_mrc`
//! point digests for K-LRU (K ∈ {1, 5, 16}, with and without replacement)
//! and exact LRU, in objects and in bytes, at 1 and 4 threads; and the
//! per-request hit/miss sequences of `KLruCache` and `ExactLru` over the
//! same trace. Each test first checks that it computed as many digests as
//! it pins, so a cache or policy dropped from the list fails too.
//!
//! The trace is variable-size: an object's size changes on re-reference,
//! and every 500th request is larger than the smallest byte cache (and
//! than every object-count cache), so resize-on-hit, eviction until the
//! newcomer fits and the oversize bypass all run. Every victim choice
//! feeds the miss counts, so a change to draw order, slot order or
//! `swap_remove` semantics fails here. Regenerate (only when a simulator's
//! output is meant to change) with:
//!
//! ```text
//! cargo test --test golden_sim -- --ignored --nocapture
//! ```

use krr::core::rng::Xoshiro256;
use krr::sim::{
    even_capacities, simulate_mrc, working_set, Cache, Capacity, ExactLru, KLruCache, Policy, Unit,
};
use krr::trace::Request;

/// 20k skewed requests over ~3k keys; sizes 1..=256 drawn per request,
/// and 100,000 bytes on every 500th.
fn trace() -> Vec<Request> {
    let mut rng = Xoshiro256::seed_from_u64(0x51A7);
    (0..20_000u64)
        .map(|i| {
            let u = rng.unit();
            let key = (u * u * 3_000.0) as u64;
            let size = if i % 500 == 499 {
                100_000
            } else {
                1 + rng.below(256) as u32
            };
            Request::get(key, size)
        })
        .collect()
}

/// FNV-1a over a stream of 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}

fn sim_digest(trace: &[Request], policy: Policy, unit: Unit, threads: usize) -> u64 {
    let (objects, bytes) = working_set(trace);
    let max = match unit {
        Unit::Objects => objects,
        Unit::Bytes => bytes,
    };
    let caps = even_capacities(max, 10);
    let mrc = simulate_mrc(trace, policy, unit, &caps, 7, threads);
    fnv(mrc
        .points()
        .iter()
        .flat_map(|&(x, y)| [x.to_bits(), y.to_bits()]))
}

/// Digest of a cache's per-request hit bits, then its total misses.
fn run(cache: &mut dyn Cache, trace: &[Request]) -> (u64, u64) {
    let hits = fnv(trace.iter().map(|r| u64::from(cache.access(r))));
    (hits, cache.stats().misses)
}

fn policies() -> Vec<(&'static str, Policy)> {
    let mut v = Vec::new();
    for (with, without, k) in [
        ("klru1", "klru1-norepl", 1),
        ("klru5", "klru5-norepl", 5),
        ("klru16", "klru16-norepl", 16),
    ] {
        v.push((with, Policy::klru(k)));
        v.push((
            without,
            Policy::KLru {
                k,
                with_replacement: false,
            },
        ));
    }
    v.push(("lru", Policy::ExactLru));
    v
}

fn sim_digests(threads: usize) -> Vec<(u64, u64)> {
    let trace = trace();
    policies()
        .into_iter()
        .map(|(_, p)| {
            (
                sim_digest(&trace, p, Unit::Objects, threads),
                sim_digest(&trace, p, Unit::Bytes, threads),
            )
        })
        .collect()
}

/// `(hit-bit digest, misses)` of each per-request cache, in the order of
/// [`PER_REQUEST`].
fn per_request() -> Vec<(u64, u64)> {
    let trace = trace();
    let (_, bytes) = working_set(&trace);
    let cap = Capacity::Bytes(bytes / 4);
    vec![
        run(&mut KLruCache::new(cap, 5, 3), &trace),
        run(&mut KLruCache::with_mode(cap, 5, false, 3), &trace),
        run(&mut KLruCache::new(Capacity::Objects(400), 16, 3), &trace),
        run(&mut ExactLru::new(cap), &trace),
        run(&mut ExactLru::new(Capacity::Objects(400)), &trace),
    ]
}

/// `(objects, bytes)` MRC digests per policy, in the order of [`policies`]:
/// K = 1, 5, 16, each with then without replacement, then exact LRU.
const SIM: [(u64, u64); 7] = [
    (0xa67d_32f2_5a6f_eb09, 0x8335_b64a_759a_8630),
    (0xa67d_32f2_5a6f_eb09, 0x8335_b64a_759a_8630),
    (0x64d4_790b_1f06_152b, 0xcc17_87f5_50a7_4a1e),
    (0xa723_f2d8_5014_aa2a, 0xb693_5663_9f6e_6c64),
    (0x77f1_ecc9_9627_f26e, 0x791a_bfb1_2693_9829),
    (0xa7da_f1ea_cbb0_4c66, 0xc162_64b1_c061_c386),
    (0x4cb4_d411_41bb_b42e, 0x97ce_ffcf_76c8_7c13),
];

/// Per-request caches: K-LRU K=5 in bytes with and without replacement,
/// K-LRU K=16 in objects, exact LRU in bytes and in objects.
const PER_REQUEST: [(u64, u64); 5] = [
    (0xecaf_00ec_0005_e004, 13671),
    (0xabf8_84b5_d87d_5725, 13388),
    (0xe9d7_4314_ce3d_7504, 15413),
    (0x4bd9_3ee7_d675_d044, 13491),
    (0xcc21_50c6_e6e6_ad25, 15416),
];

fn check_sim_digests(threads: usize) {
    let (policies, digests) = (policies(), sim_digests(threads));
    assert_eq!(digests.len(), SIM.len(), "computed vs pinned SIM digests");
    for ((name, _), (got, want)) in policies.iter().zip(digests.iter().zip(&SIM)) {
        assert_eq!(got, want, "{name}: (objects, bytes) digests");
    }
}

#[test]
fn simulated_mrcs_match_exact_bits_at_one_thread() {
    check_sim_digests(1);
}

#[test]
fn simulated_mrcs_match_exact_bits_at_four_threads() {
    check_sim_digests(4);
}

#[test]
fn per_request_caches_match_exact_bits() {
    let got = per_request();
    assert_eq!(got.len(), PER_REQUEST.len(), "computed vs pinned caches");
    for (i, (got, want)) in got.iter().zip(&PER_REQUEST).enumerate() {
        assert_eq!(got, want, "cache {i}: (hit digest, misses)");
    }
}

/// Prints the golden constants above (run with `--ignored`).
#[test]
#[ignore = "golden regeneration helper, not a check"]
fn print_goldens() {
    println!("const SIM: [(u64, u64); 7] = [");
    for (o, b) in sim_digests(1) {
        println!("    (0x{o:016x}, 0x{b:016x}),");
    }
    println!("];");
    println!("const PER_REQUEST: [(u64, u64); 5] = [");
    for (d, m) in per_request() {
        println!("    (0x{d:016x}, {m}),");
    }
    println!("];");
}
