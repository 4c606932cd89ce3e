//! Exact-bits goldens: a digest of `f64::to_bits` of every MRC point for
//! the uniform model with and without metrics attached (observers must not
//! perturb the update), the byte-level model (`sizeArray` reads every
//! chain), and the 8-shard sampled pipeline.
//!
//! `golden_trace.rs` compares miss ratios within a tolerance, and the
//! bit-identity tests elsewhere compare two runs of the same code. These
//! digests pin the bits themselves, so any change to how an inverse-CDF
//! draw becomes a stack position — even on one rare draw — fails here.
//! The traces use only IEEE add/mul and integer arithmetic. Regenerate
//! (only when the model's output is meant to change) with:
//!
//! ```text
//! cargo test --test golden_bits -- --ignored --nocapture
//! ```

use krr::core::metrics::MetricsRegistry;
use krr::core::mrc::Mrc;
use krr::core::rng::Xoshiro256;
use krr::core::sharded::ShardedKrr;
use krr::core::{KrrConfig, KrrModel};
use std::sync::Arc;

/// 60k skewed accesses over ~20k keys; deep enough that walks start far
/// above the small-jump range.
fn trace() -> Vec<u64> {
    let mut rng = Xoshiro256::seed_from_u64(0xB175);
    (0..60_000)
        .map(|_| {
            let u = rng.unit();
            (u * u * 20_000.0) as u64
        })
        .collect()
}

/// Object size in bytes, 1..=4096, from integer arithmetic only.
fn size_of(key: u64) -> u32 {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 52) as u32 + 1
}

/// FNV-1a over the bit patterns of every `(size, miss ratio)` point.
fn digest(mrc: &Mrc) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &(x, y) in mrc.points() {
        for b in x
            .to_bits()
            .to_le_bytes()
            .into_iter()
            .chain(y.to_bits().to_le_bytes())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}

fn uniform(k: f64, with_metrics: bool) -> u64 {
    let mut m = KrrModel::new(KrrConfig::new(k).seed(1));
    if with_metrics {
        m.set_metrics(Arc::new(MetricsRegistry::new()));
    }
    for key in trace() {
        m.access_key(key);
    }
    digest(&m.mrc())
}

fn byte_level() -> u64 {
    let mut m = KrrModel::new(KrrConfig::new(5.0).byte_level(2, 1024).seed(1));
    for key in trace() {
        m.access(key, size_of(key));
    }
    digest(&m.mrc())
}

/// 2M references over 400k keys through the route-once pipeline at
/// R = 0.005 (~2k sampled keys spread over 8 shards).
fn sharded_sampled() -> u64 {
    let mut rng = Xoshiro256::seed_from_u64(0x5A4D);
    let refs = (0..2_000_000).map(move |_| {
        let u = rng.unit();
        ((u * u * 400_000.0) as u64, 1)
    });
    let mut s = ShardedKrr::new(&KrrConfig::new(5.0).sampling(0.005).seed(1), 8);
    s.process_stream(refs, 2);
    digest(&s.mrc())
}

const KS: [f64; 3] = [1.0, 5.0, 10.0];

/// Uniform model digests per K in [`KS`], with or without metrics.
const UNIFORM: [u64; 3] = [
    0xb5a4_7b68_5c89_323f,
    0x3c4e_964b_43fa_3882,
    0x183a_f873_7375_acd1,
];
const BYTE_LEVEL: u64 = 0xa431_b8dc_33fb_a6c9;
const SHARDED_SAMPLED: u64 = 0x853b_87ad_e6ed_9385;

#[test]
fn uniform_model_matches_exact_bits() {
    for (&k, &want) in KS.iter().zip(&UNIFORM) {
        assert_eq!(uniform(k, false), want, "K={k}: digest");
    }
}

#[test]
fn metrics_attached_model_matches_exact_bits() {
    for (&k, &want) in KS.iter().zip(&UNIFORM) {
        assert_eq!(uniform(k, true), want, "K={k}: digest with metrics");
    }
}

#[test]
fn byte_level_model_matches_exact_bits() {
    assert_eq!(byte_level(), BYTE_LEVEL);
}

#[test]
fn sharded_sampled_pipeline_matches_exact_bits() {
    assert_eq!(sharded_sampled(), SHARDED_SAMPLED);
}

/// Prints the golden constants above (run with `--ignored`).
#[test]
#[ignore = "golden regeneration helper, not a check"]
fn print_goldens() {
    let uniform: Vec<String> = KS
        .iter()
        .map(|&k| format!("0x{:016x}", uniform(k, false)))
        .collect();
    println!("const UNIFORM: [u64; 3] = [{}];", uniform.join(", "));
    println!("const BYTE_LEVEL: u64 = 0x{:016x};", byte_level());
    println!("const SHARDED_SAMPLED: u64 = 0x{:016x};", sharded_sampled());
}
