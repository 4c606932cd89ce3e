//! Golden-shape test for the `krr-load-v1` JSON document.
//!
//! `krr load --json`, `benches/load.rs`, and the flash-crowd example all
//! emit this schema. The contract mirrors `krr-metrics-v1`: the schema
//! may only *grow*. A key that disappears or changes type must fail
//! here; new keys are fine and should be appended to [`GOLDEN`] (kept
//! sorted) in the same change that adds them.

mod support;

use krr::load::{run, AbReport, Arrival, LoadConfig, Schedule};
use krr::redis::{MiniRedis, Server};
use krr::trace::ycsb;
use support::json::{parse, Json};

/// Sorted `(dotted.path, type)` pairs of every field in krr-load-v1.
/// Arrays are recorded as `"arr"` without element descent.
const GOLDEN: &[(&str, &str)] = &[
    ("ab", "obj"),
    ("ab.delta_pct", "num"),
    ("ab.enabled", "bool"),
    ("ab.limit_pct", "num"),
    ("ab.off_p999_ns", "num"),
    ("ab.off_p99_ns", "num"),
    ("ab.on_p999_ns", "num"),
    ("ab.on_p99_ns", "num"),
    ("achieved_qps", "num"),
    ("arrival", "str"),
    ("connections", "num"),
    ("duration_ns", "num"),
    ("errors", "num"),
    ("latency_ns", "obj"),
    ("latency_ns.count", "num"),
    ("latency_ns.max", "num"),
    ("latency_ns.mean", "num"),
    ("latency_ns.p50", "num"),
    ("latency_ns.p99", "num"),
    ("latency_ns.p999", "num"),
    ("phases", "arr"),
    ("pipeline_depth", "num"),
    ("requests", "num"),
    ("schema", "str"),
    ("target_qps", "num"),
];

/// Phase-element fields, locked separately since [`walk`] does not
/// descend into arrays.
const GOLDEN_PHASE: &[(&str, &str)] = &[
    ("achieved_qps", "num"),
    ("errors", "num"),
    ("latency_ns", "obj"),
    ("latency_ns.count", "num"),
    ("latency_ns.max", "num"),
    ("latency_ns.mean", "num"),
    ("latency_ns.p50", "num"),
    ("latency_ns.p99", "num"),
    ("latency_ns.p999", "num"),
    ("name", "str"),
    ("requests", "num"),
    ("target_qps", "num"),
];

/// A representative report from a real (tiny) loopback run: a burst
/// schedule so the phases array is populated, with the A/B section
/// filled in the way `run_ab_forensics` fills it.
fn representative_load_json() -> String {
    let trace = ycsb::WorkloadC::new(200, 0.9).generate(2_000, 13);
    let mut server = Server::start(MiniRedis::new(8 << 20, 5, 29)).unwrap();
    krr::load::prefill(server.addr(), &trace).unwrap();
    let schedule = Schedule::generate(Arrival::Burst, 20_000.0, trace.len(), 7);
    let cfg = LoadConfig {
        connections: 2,
        pipeline_depth: 8,
        ..LoadConfig::default()
    };
    let mut report = run(server.addr(), &schedule, &trace, &cfg).unwrap();
    server.shutdown();
    report.ab = AbReport::compare(1_000.0, 1_020.0, 10.0);
    report.to_json()
}

fn walk(v: &Json, path: String, out: &mut Vec<(String, &'static str)>) {
    if !path.is_empty() {
        out.push((path.clone(), v.kind()));
    }
    if let Some(fields) = v.as_obj() {
        for (k, child) in fields {
            let p = if path.is_empty() {
                k.clone()
            } else {
                format!("{path}.{k}")
            };
            walk(child, p, out);
        }
    }
}

fn assert_covers(actual: &[(String, &'static str)], golden: &[(&str, &str)], what: &str) {
    for (path, kind) in golden {
        match actual.iter().find(|(p, _)| p == path) {
            None => panic!("schema regression: key {path:?} disappeared from {what}"),
            Some((_, k)) if k != kind => {
                panic!("schema regression: key {path:?} changed type {kind:?} -> {k:?} in {what}")
            }
            Some(_) => {}
        }
    }
    for (path, kind) in actual {
        assert!(
            golden.iter().any(|(p, _)| p == path),
            "new key {path:?} ({kind}) is not in the {what} golden list — append it (sorted)"
        );
    }
}

#[test]
fn golden_lists_are_sorted_and_duplicate_free() {
    for golden in [GOLDEN, GOLDEN_PHASE] {
        for w in golden.windows(2) {
            assert!(
                w[0].0 < w[1].0,
                "golden list out of order near {:?} / {:?}",
                w[0].0,
                w[1].0
            );
        }
    }
}

#[test]
fn load_schema_only_grows() {
    let json = representative_load_json();
    let doc = parse(&json).expect("load report must be valid JSON");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("krr-load-v1")
    );

    let mut actual = Vec::new();
    walk(&doc, String::new(), &mut actual);
    assert_covers(&actual, GOLDEN, "krr-load-v1");

    // The burst schedule guarantees a non-empty phases array; lock the
    // element shape too.
    let phases = doc.get("phases").and_then(Json::as_arr).unwrap();
    assert_eq!(phases.len(), 3, "burst must report base/burst/recover");
    for phase in phases {
        let mut actual = Vec::new();
        walk(phase, String::new(), &mut actual);
        assert_covers(&actual, GOLDEN_PHASE, "krr-load-v1 phase");
    }
}
