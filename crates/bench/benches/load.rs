//! Tail-latency gate for the observability stack under real RESP load:
//! the same seeded schedule is replayed against a mini-Redis with MRC
//! profiling + live `/metrics` scraping off and then on, and the p99 and
//! p999 deltas must each stay inside the budget. Writes `BENCH_load.json`
//! (the full `krr-load-v1` document of the profiled side, A/B section
//! included) at the repo root for CI perf tracking (`KRR_CI_BENCH=1` in
//! scripts/ci.sh).

use krr_load::{run_ab, AbConfig, Arrival, LoadConfig, Schedule};
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

/// Whether the on-side tail stays within `limit_pct` of the off side, or
/// within `slack_ns` of it in absolute terms.
fn within(off_ns: f64, on_ns: f64, limit_pct: f64, slack_ns: f64) -> bool {
    on_ns < off_ns * (1.0 + limit_pct / 100.0) || on_ns - off_ns < slack_ns
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
    run_ab(&warm, &trace[..4_000], &load, &ab).expect("warm-up run");

    // One retry: a single descheduling hiccup on a loaded CI box can blow
    // one side's p99; a genuine regression reproduces on the second pass.
    let mut report = run_ab(&schedule, &trace, &load, &ab).expect("A/B load run");
    let p99_ok = |r: &krr_load::LoadReport| {
        within(r.ab.off_p99_ns, r.ab.on_p99_ns, P99_LIMIT_PCT, P99_SLACK_NS)
    };
    let p999_ok = |r: &krr_load::LoadReport| {
        within(
            r.ab.off_p999_ns,
            r.ab.on_p999_ns,
            P999_LIMIT_PCT,
            P999_SLACK_NS,
        )
    };
    let passes = |r: &krr_load::LoadReport| p99_ok(r) && p999_ok(r);
    if !passes(&report) {
        eprintln!(
            "first pass over budget (p99 {:+.2}%, p999 off {:.0}µs -> on {:.0}µs), retrying once",
            report.ab.delta_pct,
            report.ab.off_p999_ns / 1e3,
            report.ab.on_p999_ns / 1e3,
        );
        report = run_ab(&schedule, &trace, &load, &ab).expect("A/B load run (retry)");
    }

    print!("{}", report.render_text());
    println!(
        "observability tail cost: p99 {:+.2}% (off {:.0}µs -> on {:.0}µs, \
         budget {P99_LIMIT_PCT}% or {:.0}µs absolute)",
        report.ab.delta_pct,
        report.ab.off_p99_ns / 1e3,
        report.ab.on_p99_ns / 1e3,
        P99_SLACK_NS / 1e3,
    );
    println!(
        "observability p999 cost: off {:.0}µs -> on {:.0}µs \
         (budget {P999_LIMIT_PCT}% or {:.0}µs absolute)",
        report.ab.off_p999_ns / 1e3,
        report.ab.on_p999_ns / 1e3,
        P999_SLACK_NS / 1e3,
    );

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_load.json");
    std::fs::write(out, report.to_json()).expect("write BENCH_load.json");
    println!("wrote {out}\n");

    assert_eq!(report.errors, 0, "profiled side saw errors: {report:?}");
    assert!(
        p99_ok(&report),
        "observability p99 cost {:+.2}% exceeds the {P99_LIMIT_PCT}% budget \
         (off {:.0}ns -> on {:.0}ns, absolute slack {P99_SLACK_NS}ns)",
        report.ab.delta_pct,
        report.ab.off_p99_ns,
        report.ab.on_p99_ns,
    );
    assert!(
        p999_ok(&report),
        "observability p999 cost exceeds the {P999_LIMIT_PCT}% budget \
         (off {:.0}ns -> on {:.0}ns, absolute slack {P999_SLACK_NS}ns)",
        report.ab.off_p999_ns,
        report.ab.on_p999_ns,
    );
}
