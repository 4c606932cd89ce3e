//! Integration: the beyond-the-paper extensions — sampled LFU, the
//! sharded bank, trace characterization — behave correctly against ground
//! truth and against the plain model.

use krr::prelude::*;
use krr::trace::{msr, ycsb};

#[test]
fn klfu_resists_scans_better_than_klru() {
    // The qualitative reason sampled LFU exists.
    let zipf = ycsb::WorkloadC::new(5_000, 1.0).generate(200_000, 3);
    let mut rng = krr::core::rng::Xoshiro256::seed_from_u64(4);
    let trace: Vec<Request> = zipf
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            if rng.unit() < 0.3 {
                Request::unit(1_000_000 + i as u64)
            } else {
                r
            }
        })
        .collect();
    let cap = Capacity::Objects(2_500);
    let mut lfu = KLfuCache::new(cap, 5, 7);
    let mut lru = KLruCache::new(cap, 5, 7);
    for r in &trace {
        lfu.access(r);
        lru.access(r);
    }
    let a = lfu.stats().miss_ratio();
    let b = lru.stats().miss_ratio();
    assert!(
        a < b - 0.02,
        "K-LFU {a} should beat K-LRU {b} under scan pollution"
    );
}

#[test]
fn sharded_krr_matches_plain_krr_cross_crate() {
    let trace = msr::profile(msr::MsrTrace::Web).generate(300_000, 10, 0.05);
    let (objects, _) = krr::sim::working_set(&trace);
    let refs: Vec<(u64, u32)> = trace.iter().map(|r| (r.key, 1)).collect();
    let cfg = KrrConfig::new(5.0).seed(11);
    let mut sharded = ShardedKrr::new(&cfg, 8);
    sharded.process_parallel(&refs, 4);
    let mut plain = KrrModel::new(cfg);
    for r in &trace {
        plain.access_key(r.key);
    }
    let sizes = even_sizes(objects as f64, 20);
    let mae = sharded.mrc().mae(&plain.mrc(), &sizes);
    assert!(mae < 0.03, "sharded vs plain MAE {mae}");
}

#[test]
fn trace_characterization_guides_modeling_choice() {
    // The workflow §5.3 implies: classify, then pick the model.
    let type_a = msr::profile(msr::MsrTrace::Src2).generate(150_000, 14, 0.05);
    let type_b = msr::profile(msr::MsrTrace::Usr).generate(150_000, 15, 0.05);
    let ca = krr::trace::analyze::characterize(&type_a);
    let cb = krr::trace::analyze::characterize(&type_b);
    assert!(ca.is_type_a() && !cb.is_type_a());
    assert!(
        cb.zipf_exponent > 0.7,
        "usr is Zipf-dominated: {}",
        cb.zipf_exponent
    );
}
