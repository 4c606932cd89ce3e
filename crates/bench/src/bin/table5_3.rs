//! Table 5.3: running-time comparison for processing one million MSR src1
//! requests at K = 5 (the Redis default):
//!
//! * Simulation — 25 cache sizes, sequential, with interpolation
//! * Basic Stack — naive O(M)-per-update Mattson scan
//! * Top Down Stack Update — Algorithm 1
//! * Backward Stack Update — Algorithm 2
//! * Top Down + Spatial (R = 0.01) and Backward + Spatial (R = 0.01)
//!
//! Absolute times differ from the paper's testbed; the *ordering and
//! ratios* (basic ≫ simulation ≫ top-down ≫ backward ≫ +spatial) are the
//! reproduced result.
//!
//! Run: `cargo run --release -p krr-bench --bin table5_3`

use krr_bench::{report, scale, timed};
use krr_core::{KrrConfig, KrrModel, UpdaterKind};
use krr_sim::{even_capacities, simulate_mrc, Policy, Unit};
use krr_trace::msr;

fn model_time(
    trace: &[krr_trace::Request],
    updater: UpdaterKind,
    rate: f64,
) -> std::time::Duration {
    let mut cfg = KrrConfig::new(5.0).updater(updater).seed(0xBEEF);
    if rate < 1.0 {
        cfg = cfg.sampling(rate);
    }
    let (_, t) = timed(|| {
        let mut m = KrrModel::new(cfg);
        for r in trace {
            m.access_key(r.key);
        }
        std::hint::black_box(m.histogram().total())
    });
    t
}

fn main() {
    let n = 1_000_000usize;
    let sc = scale();
    let trace = msr::profile(msr::MsrTrace::Src1).generate(n, 0x531, sc);
    let (objects, _) = krr_sim::working_set(&trace);
    println!("table5_3: {n} msr_src1 requests, {objects} distinct objects, K=5");

    // Simulation row: 25 evenly spaced sizes, run sequentially (the paper's
    // simulator is single-threaded), then interpolated.
    let caps = even_capacities(objects, 25);
    let (_, sim_time) = timed(|| {
        std::hint::black_box(simulate_mrc(
            &trace,
            Policy::klru(5),
            Unit::Objects,
            &caps,
            0,
            1,
        ))
    });

    let basic = model_time(&trace, UpdaterKind::Naive, 1.0);
    let topdown = model_time(&trace, UpdaterKind::TopDown, 1.0);
    let backward = model_time(&trace, UpdaterKind::Backward, 1.0);
    // The paper uses R=0.01 here to keep >= 8K sampled objects over 1M
    // requests.
    let topdown_sp = model_time(&trace, UpdaterKind::TopDown, 0.01);
    let backward_sp = model_time(&trace, UpdaterKind::Backward, 0.01);

    let rows: Vec<(&str, std::time::Duration)> = vec![
        ("Simulation (25 sizes)", sim_time),
        ("Basic Stack", basic),
        ("Top Down Stack Update", topdown),
        ("Backward Stack Update", backward),
        ("Top Down + Spatial (R=0.01)", topdown_sp),
        ("Backward + Spatial (R=0.01)", backward_sp),
    ];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(name, t)| {
            vec![
                name.to_string(),
                format!("{:.3}", t.as_secs_f64()),
                format!("x{:.0}", basic.as_secs_f64() / t.as_secs_f64()),
            ]
        })
        .collect();
    report::print_table(
        "Table 5.3 — time to process 1M msr_src1 requests (speedup vs Basic Stack)",
        &["method", "time (s)", "speedup"],
        &table,
    );
    println!(
        "\npaper (full-size trace): simulation 26s, basic 53606s, top-down 97s (x552), \
         backward 6.5s (x8247), +spatial 0.39s / 0.07s"
    );

    let csv: Vec<String> = rows
        .iter()
        .map(|(n, t)| format!("{n},{:.6}", t.as_secs_f64()))
        .collect();
    report::write_csv("table5_3", "method,seconds", &csv);
}
