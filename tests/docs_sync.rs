//! Doc-sync: the architecture document must name every metric.
//!
//! `docs/ARCHITECTURE.md` carries the "Metric names → emitting code"
//! tables operators navigate by; a metric that exists in the registry but
//! not in the docs is invisible at 3am. This test walks the metrics
//! catalog — every row, every exported tenant column and every fleet
//! rollup — and asserts each OpenMetrics family and `krr-metrics-v1` JSON
//! path appears verbatim in the document. Histogram internals
//! (`buckets`/`count`/`sum`/…) are the generic `HistogramSnapshot` shape
//! documented once, so only the histogram's own path is required.

use krr::core::metrics::{
    memory_rollups, tenant_rollups, ColumnKind, Kind, CATALOG, TENANT_COLUMNS,
};

#[test]
fn architecture_doc_names_every_metrics_key() {
    let doc_text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../docs/ARCHITECTURE.md"
    ))
    .expect("docs/ARCHITECTURE.md exists");
    let mut required = Vec::new();
    for m in CATALOG {
        required.push(m.json.to_string());
        if m.kind == Kind::Tenants {
            for c in TENANT_COLUMNS
                .iter()
                .filter(|c| c.kind != ColumnKind::Label)
            {
                required.push(format!("krr_{}_{}", m.family, c.key));
            }
        } else {
            required.push(format!("krr_{}", m.family));
        }
    }
    for r in tenant_rollups(&[]) {
        required.push(format!("tenant.{}", r.key));
        required.push(format!("krr_tenant_{}", r.key));
    }
    for r in memory_rollups(&[]) {
        required.push(format!("memory.tenant.{}", r.key));
    }
    for r in &memory_rollups(&[])[1..] {
        required.push(format!("krr_footprint_tenant_{}", r.key));
    }
    let missing: Vec<&String> = required
        .iter()
        .filter(|p| !doc_text.contains(p.as_str()))
        .collect();
    assert!(
        missing.is_empty(),
        "metrics missing from docs/ARCHITECTURE.md (add them to the metric \
         tables): {missing:?}"
    );
}

#[test]
fn observability_doc_names_every_http_endpoint() {
    let doc_text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../docs/OBSERVABILITY.md"
    ))
    .expect("docs/OBSERVABILITY.md exists");
    for endpoint in [
        "/metrics",
        "/mrc",
        "/stats",
        "/trace",
        "/tenants",
        "/exemplars",
        "/profile",
        "/healthz",
    ] {
        assert!(
            doc_text.contains(endpoint),
            "endpoint {endpoint} missing from docs/OBSERVABILITY.md"
        );
    }
    for artifact in [
        "krr-metrics-v1",
        "krr-exemplars-v1",
        "krr-doctor-v1",
        "krr-trace-v1",
        "krr-stats-v1",
    ] {
        assert!(
            doc_text.contains(artifact),
            "artifact schema {artifact} missing from docs/OBSERVABILITY.md"
        );
    }
}
