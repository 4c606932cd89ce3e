//! Integration: the beyond-the-paper extensions — miniature simulation,
//! sampled LFU, CounterStacks — behave correctly against ground truth and
//! against each other.

use krr::prelude::*;
use krr::sim::{KLfuCache, MiniSim};
use krr::trace::{msr, patterns, ycsb};

#[test]
fn minisim_matches_krr_on_klru() {
    // Two completely different techniques must agree on the same policy.
    let trace = ycsb::WorkloadC::new(30_000, 0.99).generate(300_000, 1);
    let caps = even_capacities(30_000, 12);
    let k = 5u32;

    let mut ms = MiniSim::new(&caps, 0.2, |c| Box::new(KLruCache::new(c, k, 3)), false);
    let mut model = KrrModel::new(KrrConfig::new(f64::from(k)).seed(4));
    for r in &trace {
        ms.access(r);
        model.access_key(r.key);
    }
    let sizes: Vec<f64> = caps.iter().map(|&c| c as f64).collect();
    let mae = ms.mrc().mae(&model.mrc(), &sizes);
    assert!(mae < 0.03, "MiniSim vs KRR MAE {mae}");
}

#[test]
fn minisim_handles_non_stack_policy() {
    // K-LFU has no stack model; miniature simulation must still predict it.
    let trace = ycsb::WorkloadC::new(10_000, 0.6).generate(200_000, 2);
    let caps = [1_000u64, 3_000, 6_000];
    let mut ms = MiniSim::new(&caps, 0.3, |c| Box::new(KLfuCache::new(c, 5, 5)), false);
    for r in &trace {
        ms.access(r);
    }
    for (i, &c) in caps.iter().enumerate() {
        let mut actual = KLfuCache::new(Capacity::Objects(c), 5, 6);
        for r in &trace {
            actual.access(r);
        }
        let predicted = ms.mrc().eval(c as f64);
        let truth = actual.stats().miss_ratio();
        assert!(
            (predicted - truth).abs() < 0.05,
            "C={c} (#{i}): predicted {predicted} vs actual {truth}"
        );
    }
}

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
fn counterstacks_tracks_olken_loosely() {
    let trace = ycsb::WorkloadC::new(20_000, 0.99).generate(250_000, 5);
    let mut cs = CounterStacks::with_defaults();
    let mut o = OlkenLru::new();
    for r in &trace {
        cs.access_key(r.key);
        o.access_key(r.key);
    }
    let sizes = even_sizes(20_000.0, 20);
    let mae = cs.mrc().mae(&o.mrc(), &sizes);
    assert!(mae < 0.06, "CounterStacks MAE {mae}");
    // Space bound: far fewer counters than chunks processed.
    assert!(cs.num_counters() < 80, "{} counters", cs.num_counters());
}

#[test]
fn counterstacks_and_krr_agree_where_both_are_valid() {
    // On a Type B trace, K-LRU ≈ LRU, so CounterStacks (LRU) and KRR (K=8)
    // should land on the same curve.
    let trace = msr::profile(msr::MsrTrace::Prxy).generate(250_000, 6, 0.1);
    let (objects, _) = krr::sim::working_set(&trace);
    let mut cs = CounterStacks::with_defaults();
    let mut model = KrrModel::new(KrrConfig::new(8.0).seed(7));
    for r in &trace {
        cs.access_key(r.key);
        model.access_key(r.key);
    }
    let sizes = even_sizes(objects as f64, 15);
    let mae = cs.mrc().mae(&model.mrc(), &sizes);
    assert!(mae < 0.06, "CounterStacks vs KRR on Type B: MAE {mae}");
}

#[test]
fn hll_cardinalities_power_counterstacks_cold_counts() {
    // Cold misses recovered by CounterStacks ≈ true distinct count.
    let m = 30_000u64;
    let trace = patterns::loop_trace(m, 150_000);
    let mut cs = CounterStacks::with_defaults();
    for r in &trace {
        cs.access_key(r.key);
    }
    let mrc = cs.mrc();
    // Miss ratio at infinite size = colds/total = m / 150_000 = 0.2.
    let tail = mrc.eval(1e12);
    assert!((tail - 0.2).abs() < 0.03, "cold fraction {tail}");
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
