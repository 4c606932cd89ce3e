//! Tail-latency gate for the observability stack under real RESP load:
//! the same seeded schedule is replayed against a mini-Redis with MRC
//! profiling + live `/metrics` scraping off and on, in several off/on
//! passes that alternate which side runs first, and the median p99 and
//! median p999 of the two sides must each stay inside the budget. Writes
//! `BENCH_load.json` (the `krr-load-v1` document of the profiled pass
//! with the median p99, its A/B section holding the medians) at the repo
//! root for CI perf tracking (`KRR_CI_BENCH=1` in scripts/ci.sh).

use krr_load::{run_pass, AbConfig, AbReport, Arrival, LoadConfig, LoadReport, Schedule};
use krr_trace::ycsb;

const P99_LIMIT_PCT: f64 = 10.0;
/// Absolute slack: loopback p99s jitter by tens of microseconds from
/// scheduling noise alone, so a tiny absolute delta passes even when a
/// sub-millisecond baseline makes its relative form look large.
const P99_SLACK_NS: f64 = 250_000.0;
/// The p999 budget: the same relative limit as p99, with its own
/// absolute slack. A 40,000-request run's p999 rests on its 40 slowest
/// requests, so one descheduling moves it by milliseconds: on a shared
/// 2-vCPU host the off side alone read from 0.7 to 16 ms across runs.
const P999_LIMIT_PCT: f64 = P99_LIMIT_PCT;
const P999_SLACK_NS: f64 = 2_000_000.0;
/// Off/on passes; odd passes run the profiled side first. On a shared
/// 2-vCPU host one pass's p99 ranged from 0.3 to over 10 ms for one
/// binary, so a single pair gates host noise; the median of five pairs
/// does not move with one or two bad stretches.
const PASSES: usize = 5;

/// Whether the on-side tail stays within `limit_pct` of the off side, or
/// within `slack_ns` of it in absolute terms.
fn within(off_ns: f64, on_ns: f64, limit_pct: f64, slack_ns: f64) -> bool {
    on_ns < off_ns * (1.0 + limit_pct / 100.0) || on_ns - off_ns < slack_ns
}

fn p99(r: &LoadReport) -> f64 {
    r.latency_ns.p99_ns
}

fn p999(r: &LoadReport) -> f64 {
    r.latency_ns.p999_ns
}

/// The median of an odd number of values.
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn main() {
    // Read-heavy zipfian keys: GETs exercise the profiled sampling path,
    // the working set overflows maxmemory enough to keep eviction live.
    let trace = ycsb::WorkloadC::new(2_000, 0.9).generate(40_000, 11);
    let schedule = Schedule::generate(Arrival::Poisson, 20_000.0, trace.len(), 42);
    let load = LoadConfig {
        connections: 4,
        pipeline_depth: 32,
        ..LoadConfig::default()
    };
    let ab = AbConfig {
        limit_pct: P99_LIMIT_PCT,
        ..AbConfig::default()
    };

    // Discarded warm-up: the process's first server+client pair pays
    // one-time costs (page faults, lazy init, TCP stack warm-up) that
    // would otherwise land entirely on the profiling-off side.
    let warm = Schedule::generate(Arrival::Constant, 20_000.0, 4_000, 7);
    for profiled in [false, true] {
        run_pass(profiled, &warm, &trace[..4_000], &load, &ab).expect("warm-up run");
    }

    let (mut off, mut on): (Vec<LoadReport>, Vec<LoadReport>) = (Vec::new(), Vec::new());
    for pass in 0..PASSES {
        let order = if pass % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for profiled in order {
            let r = run_pass(profiled, &schedule, &trace, &load, &ab).expect("load pass");
            eprintln!(
                "pass {pass} {}: p99 {:.0}µs p999 {:.0}µs errors {}",
                if profiled { "on " } else { "off" },
                r.latency_ns.p99_ns / 1e3,
                r.latency_ns.p999_ns / 1e3,
                r.errors,
            );
            if profiled { &mut on } else { &mut off }.push(r);
        }
    }
    let med =
        |side: &[LoadReport], tail: fn(&LoadReport) -> f64| median(side.iter().map(tail).collect());
    let (off_p99, on_p99) = (med(&off, p99), med(&on, p99));
    let (off_p999, on_p999) = (med(&off, p999), med(&on, p999));
    let errors: u64 = off.iter().chain(&on).map(|r| r.errors).sum();
    let at = on
        .iter()
        .position(|r| p99(r) == on_p99)
        .expect("the median is one of the passes");
    let mut report = on.swap_remove(at);
    report.ab = AbReport::compare(off_p99, on_p99, P99_LIMIT_PCT).with_p999(off_p999, on_p999);
    let p99_ok = within(off_p99, on_p99, P99_LIMIT_PCT, P99_SLACK_NS);
    let p999_ok = within(off_p999, on_p999, P999_LIMIT_PCT, P999_SLACK_NS);

    print!("{}", report.render_text());
    println!(
        "observability tail cost: p99 {:+.2}% (off {:.0}µs -> on {:.0}µs, \
         budget {P99_LIMIT_PCT}% or {:.0}µs absolute)",
        report.ab.delta_pct,
        off_p99 / 1e3,
        on_p99 / 1e3,
        P99_SLACK_NS / 1e3,
    );
    println!(
        "observability p999 cost: off {:.0}µs -> on {:.0}µs \
         (budget {P999_LIMIT_PCT}% or {:.0}µs absolute)",
        off_p999 / 1e3,
        on_p999 / 1e3,
        P999_SLACK_NS / 1e3,
    );
    let verdict = if p99_ok && p999_ok && errors == 0 {
        "pass"
    } else {
        "FAIL"
    };
    println!(
        "load gate: {verdict} (median of {PASSES} off/on passes: p99 {}, p999 {}, errors {errors})",
        if p99_ok { "within" } else { "over" },
        if p999_ok { "within" } else { "over" },
    );

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_load.json");
    std::fs::write(out, report.to_json()).expect("write BENCH_load.json");
    println!("wrote {out}\n");

    assert_eq!(errors, 0, "load passes saw errors");
    assert!(
        p99_ok,
        "observability p99 cost {:+.2}% exceeds the {P99_LIMIT_PCT}% budget \
         (median off {off_p99:.0}ns -> on {on_p99:.0}ns, absolute slack {P99_SLACK_NS}ns)",
        report.ab.delta_pct,
    );
    assert!(
        p999_ok,
        "observability p999 cost exceeds the {P999_LIMIT_PCT}% budget \
         (median off {off_p999:.0}ns -> on {on_p999:.0}ns, absolute slack {P999_SLACK_NS}ns)",
    );
}
