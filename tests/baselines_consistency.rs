//! Integration: the exact-LRU baselines agree with each other and with
//! simulation, and they *disagree* with K-LRU on Type A traces for small K
//! — the motivation of the whole paper (Fig 5.2a).

use krr::prelude::*;
use krr::trace::{msr, ycsb};

fn olken_mrc(trace: &[Request]) -> Mrc {
    let mut o = OlkenLru::new();
    for r in trace {
        o.access_key(r.key);
    }
    o.mrc()
}

#[test]
fn olken_equals_lru_simulation() {
    let trace = ycsb::WorkloadC::new(10_000, 0.99).generate(200_000, 1);
    let caps = even_capacities(10_000, 25);
    let sim = simulate_mrc(&trace, Policy::ExactLru, Unit::Objects, &caps, 1, 8);
    let sizes: Vec<f64> = caps.iter().map(|&c| c as f64).collect();
    let mae = sim.mae(&olken_mrc(&trace), &sizes);
    assert!(mae < 0.003, "Olken vs simulation MAE {mae}");
}

#[test]
fn shards_tracks_olken() {
    let objects = 150_000u64;
    let trace = ycsb::WorkloadC::new(objects, 0.99).generate(500_000, 2);
    let mut s = Shards::new(0.06);
    for r in &trace {
        s.access_key(r.key);
    }
    let sizes = even_sizes(objects as f64, 25);
    let mae = s.mrc().mae(&olken_mrc(&trace), &sizes);
    assert!(mae < 0.035, "SHARDS vs Olken MAE {mae}");
}

#[test]
fn lru_baselines_mispredict_klru_on_type_a() {
    // The punchline: on a loop-heavy Type A trace, exact-LRU techniques
    // (SHARDS and Olken both produce the same LRU curve) are far from the
    // true K-LRU miss ratio at small K, while KRR is close.
    let trace = msr::profile(msr::MsrTrace::Src2).generate(300_000, 4, 0.1);
    let (objects, _) = krr::sim::working_set(&trace);
    let caps = even_capacities(objects, 15);
    let sizes: Vec<f64> = caps.iter().map(|&c| c as f64).collect();
    let k = 2u32;
    let truth = simulate_mrc(&trace, Policy::klru(k), Unit::Objects, &caps, 1, 8);

    let lru_mae = truth.mae(&olken_mrc(&trace), &sizes);
    let mut model = KrrModel::new(KrrConfig::new(f64::from(k)).seed(5));
    for r in &trace {
        model.access_key(r.key);
    }
    let krr_mae = truth.mae(&model.mrc(), &sizes);

    assert!(
        lru_mae > 5.0 * krr_mae && lru_mae > 0.03,
        "expected LRU baseline to mispredict K-LRU: LRU MAE {lru_mae}, KRR MAE {krr_mae}"
    );
}

#[test]
fn type_b_traces_are_k_insensitive() {
    // On Type B traces all K (and LRU) produce nearly the same MRC
    // (Fig 5.2b), so even an LRU baseline is fine there.
    let trace = msr::profile(msr::MsrTrace::Usr).generate(300_000, 5, 0.05);
    let (objects, _) = krr::sim::working_set(&trace);
    let caps = even_capacities(objects, 15);
    let sizes: Vec<f64> = caps.iter().map(|&c| c as f64).collect();
    let k1 = simulate_mrc(&trace, Policy::klru(1), Unit::Objects, &caps, 1, 8);
    let lru = simulate_mrc(&trace, Policy::ExactLru, Unit::Objects, &caps, 1, 8);
    let gap = k1.mae(&lru, &sizes);
    assert!(gap < 0.02, "Type B K=1 vs LRU gap {gap}");
}

#[test]
fn type_a_traces_have_large_k_gap() {
    // And the same gap is *large* on Type A traces — this is Fig 1.1.
    let trace = msr::profile(msr::MsrTrace::Web).generate(300_000, 6, 0.1);
    let (objects, _) = krr::sim::working_set(&trace);
    let caps = even_capacities(objects, 15);
    let sizes: Vec<f64> = caps.iter().map(|&c| c as f64).collect();
    let k1 = simulate_mrc(&trace, Policy::klru(1), Unit::Objects, &caps, 1, 8);
    let lru = simulate_mrc(&trace, Policy::ExactLru, Unit::Objects, &caps, 1, 8);
    let gap = k1.mae(&lru, &sizes);
    assert!(gap > 0.04, "Type A K=1 vs LRU gap only {gap}");
}
