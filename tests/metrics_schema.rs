//! Golden-shape test for the `krr-metrics-v1` JSON document.
//!
//! The METRICS wire command, `--metrics-out`, and the persisted snapshot
//! all emit this schema, and downstream dashboards key on its field
//! paths. The contract: the schema may only *grow*. A key that
//! disappears or changes type breaks consumers and must fail here; new
//! keys are fine and should be appended to [`GOLDEN`] (keep it sorted)
//! in the same change that adds them.

mod support;

use krr::core::sharded::ShardedKrr;
use krr::core::{KrrConfig, MetricsRegistry};
use krr::trace::ycsb;
use std::sync::Arc;
use support::json::{parse, Json};

/// Sorted `(dotted.path, type)` pairs of every field in krr-metrics-v1.
/// Arrays are recorded as `"arr"` without element descent (histogram
/// bucket arrays may legitimately be empty).
const GOLDEN: &[(&str, &str)] = &[
    ("eviction", "obj"),
    ("eviction.candidate_age", "obj"),
    ("eviction.candidate_age.buckets", "arr"),
    ("eviction.candidate_age.count", "num"),
    ("eviction.candidate_age.max", "num"),
    ("eviction.candidate_age.mean", "num"),
    ("eviction.candidate_age.p99", "num"),
    ("eviction.candidate_age.sum", "num"),
    ("eviction.evictions", "num"),
    ("expo", "obj"),
    ("expo.request_timeouts", "num"),
    ("latency", "obj"),
    ("latency.access_ns", "obj"),
    ("latency.access_ns.buckets", "arr"),
    ("latency.access_ns.count", "num"),
    ("latency.access_ns.max", "num"),
    ("latency.access_ns.mean", "num"),
    ("latency.access_ns.p99", "num"),
    ("latency.access_ns.sum", "num"),
    ("memory", "obj"),
    ("memory.heap_live_bytes", "num"),
    ("memory.heap_peak_bytes", "num"),
    ("memory.hist_bytes", "num"),
    ("memory.pipeline_bytes", "num"),
    ("memory.shadow_bytes", "num"),
    ("memory.sizes_bytes", "num"),
    ("memory.stack_bytes", "num"),
    ("memory.tenant", "obj"),
    ("memory.tenant.count", "num"),
    ("memory.tenant.max_bytes", "num"),
    ("memory.tenant.mean_bytes", "num"),
    ("memory.tenant.total_bytes", "num"),
    ("memory.total_bytes", "num"),
    ("model", "obj"),
    ("model.accesses", "num"),
    ("model.cold_misses", "num"),
    ("model.hits", "num"),
    ("model.spatial_rejected", "num"),
    ("pipeline", "obj"),
    ("pipeline.batches", "num"),
    ("pipeline.keys_hashed", "num"),
    ("pipeline.queue_depth_hwm", "arr"),
    ("pipeline.ring", "obj"),
    ("pipeline.ring.depth_hwm", "arr"),
    ("pipeline.ring.router_parks", "num"),
    ("pipeline.ring.worker_parks", "num"),
    ("pipeline.ring.wraps", "num"),
    ("pipeline.router_busy_ns", "num"),
    ("pipeline.stalls", "num"),
    ("pipeline.worker_busy_ns", "num"),
    ("schema", "str"),
    ("server", "obj"),
    ("server.commands", "num"),
    ("server.profile_drains", "num"),
    ("server.reply_flushes", "num"),
    ("shards", "obj"),
    ("shards.accesses", "arr"),
    ("shards.depth_hwm", "arr"),
    ("shards.merge_ns", "num"),
    ("shards.merges", "num"),
    ("shards.resident", "arr"),
    ("tenant", "obj"),
    ("tenant.count", "num"),
    ("tenant.drifted", "num"),
    ("tenant.refs", "num"),
    ("tenant.rows", "arr"),
    ("tenant.shadowed", "num"),
    ("updater", "obj"),
    ("updater.chain_len", "obj"),
    ("updater.chain_len.buckets", "arr"),
    ("updater.chain_len.count", "num"),
    ("updater.chain_len.max", "num"),
    ("updater.chain_len.mean", "num"),
    ("updater.chain_len.p99", "num"),
    ("updater.chain_len.sum", "num"),
    ("updater.positions_scanned", "obj"),
    ("updater.positions_scanned.buckets", "arr"),
    ("updater.positions_scanned.count", "num"),
    ("updater.positions_scanned.max", "num"),
    ("updater.positions_scanned.mean", "num"),
    ("updater.positions_scanned.p99", "num"),
    ("updater.positions_scanned.sum", "num"),
    ("watchdog", "obj"),
    ("watchdog.checks", "num"),
    ("watchdog.drift_events", "num"),
    ("watchdog.mae_ppm", "num"),
    ("watchdog.shadow_refs", "num"),
];

/// A representative snapshot: sharded model with the full metrics
/// plumbing attached, so every section of the document is populated.
fn representative_metrics_json() -> String {
    let reg = Arc::new(MetricsRegistry::new());
    let mut bank = ShardedKrr::new(&KrrConfig::new(5.0).seed(3), 4);
    bank.set_metrics(Arc::clone(&reg));
    let trace = ycsb::WorkloadC::new(500, 0.9).generate(5_000, 3);
    bank.process_stream(trace.iter().map(|r| (r.key, r.size)), 2);
    let _ = bank.mrc();
    // A small fleet on the same registry populates the tenant sections
    // (which are emitted even when empty, but should be exercised live).
    let mut fleet =
        krr::core::fleet::FleetArena::new(krr::core::fleet::FleetConfig::new(KrrConfig::new(4.0)));
    fleet.set_metrics(Arc::clone(&reg));
    for r in trace.iter().take(2_000) {
        fleet.access(r.key % 3, r.key, r.size);
    }
    fleet.publish_metrics();
    let mut buf = Vec::new();
    krr::core::persist::write_metrics_json(&mut buf, &reg.snapshot()).unwrap();
    String::from_utf8(buf).unwrap()
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

#[test]
fn golden_list_is_sorted_and_duplicate_free() {
    for w in GOLDEN.windows(2) {
        assert!(
            w[0].0 < w[1].0,
            "GOLDEN out of order near {:?} / {:?}",
            w[0].0,
            w[1].0
        );
    }
}

#[test]
fn metrics_schema_only_grows() {
    let json = representative_metrics_json();
    let doc = parse(&json).expect("metrics snapshot must be valid JSON");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("krr-metrics-v1")
    );
    let mut actual = Vec::new();
    walk(&doc, String::new(), &mut actual);
    for (path, kind) in GOLDEN {
        match actual.iter().find(|(p, _)| p == path) {
            None => panic!("schema regression: key {path:?} disappeared from krr-metrics-v1"),
            Some((_, k)) if k != kind => panic!(
                "schema regression: key {path:?} changed type {kind:?} -> {k:?} in krr-metrics-v1"
            ),
            Some(_) => {}
        }
    }
    // Growth is allowed, but any new key must be added to GOLDEN so it is
    // covered by the only-grows contract from then on.
    for (path, kind) in &actual {
        assert!(
            GOLDEN.iter().any(|(p, _)| p == path),
            "new key {path:?} ({kind}) is not in GOLDEN — append it (sorted) to lock it in"
        );
    }
}
