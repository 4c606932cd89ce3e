//! Extension experiment: the replacement-policy zoo on one workload —
//! Belady's OPT (lower bound), exact LRU, K-LRU, sampled LFU and
//! hyperbolic caching — with MRCs from direct simulation.
//!
//! Run: `cargo run --release -p krr-bench --bin ext_policy_zoo`

use krr_bench::{report, requests, scale, threads};
use krr_sim::opt::opt_mrc;
use krr_sim::sampled::{HyperbolicScore, SampledCache};
use krr_sim::{even_capacities, simulate_mrc, Cache, Capacity, KLfuCache, Policy, Unit};
use krr_trace::{msr, Request};

fn curve_of(
    trace: &[Request],
    caps: &[u64],
    build: impl Fn(Capacity) -> Box<dyn Cache>,
) -> krr_core::Mrc {
    let mut points = vec![(0.0, 1.0)];
    for &c in caps {
        let mut cache = build(Capacity::Objects(c));
        for r in trace {
            cache.access(r);
        }
        points.push((c as f64, cache.stats().miss_ratio()));
    }
    let mut mrc = krr_core::Mrc::from_points(points);
    mrc.make_monotone();
    mrc
}

fn main() {
    let n = requests();
    let sc = scale();
    let trace = msr::profile(msr::MsrTrace::Web).generate(n, 0x200, sc);
    let (objects, _) = krr_sim::working_set(&trace);
    let caps = even_capacities(objects, 12);
    println!(
        "ext_policy_zoo: msr_web, {} requests, {objects} objects",
        trace.len()
    );

    let opt = opt_mrc(&trace, &caps);
    let lru = simulate_mrc(&trace, Policy::ExactLru, Unit::Objects, &caps, 1, threads());
    let klru = simulate_mrc(&trace, Policy::klru(5), Unit::Objects, &caps, 2, threads());
    let klfu = curve_of(&trace, &caps, |c| Box::new(KLfuCache::new(c, 5, 3)));
    let hyper = curve_of(&trace, &caps, |c| {
        Box::new(SampledCache::new(c, 5, HyperbolicScore::default(), 4))
    });

    let columns: Vec<(&str, &krr_core::Mrc)> = vec![
        ("OPT", &opt),
        ("LRU", &lru),
        ("K-LRU(5)", &klru),
        ("K-LFU(5)", &klfu),
        ("Hyper(5)", &hyper),
    ];
    let header: Vec<String> = std::iter::once("cache".to_string())
        .chain(columns.iter().map(|(n, _)| (*n).to_string()))
        .collect();
    let rows: Vec<Vec<String>> = caps
        .iter()
        .map(|&c| {
            std::iter::once(format!("{c}"))
                .chain(
                    columns
                        .iter()
                        .map(|(_, m)| format!("{:.3}", m.eval(c as f64))),
                )
                .collect()
        })
        .collect();
    report::print_table(
        "policy zoo — miss ratios by cache size",
        &header.iter().map(String::as_str).collect::<Vec<_>>(),
        &rows,
    );

    // Sanity relations the zoo must respect.
    let sizes: Vec<f64> = caps.iter().map(|&c| c as f64).collect();
    let mut violations = 0;
    for &s in &sizes {
        if opt.eval(s) > lru.eval(s) + 0.01 {
            violations += 1;
        }
    }
    println!("\nOPT <= LRU violations: {violations} (expect 0)");

    let csv: Vec<String> = caps
        .iter()
        .map(|&c| {
            let vals: Vec<String> = columns
                .iter()
                .map(|(_, m)| format!("{:.5}", m.eval(c as f64)))
                .collect();
            format!("{c},{}", vals.join(","))
        })
        .collect();
    report::write_csv(
        "ext_policy_zoo",
        "cache_size,opt,lru,klru5,klfu5,hyper5",
        &csv,
    );
}
