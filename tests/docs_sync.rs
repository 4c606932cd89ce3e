//! Doc-sync: the architecture document must name every metric and exactly
//! the checkpoint section tags the code defines, and the design document's
//! module table must name only modules that exist.
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

#[test]
fn design_module_table_names_only_existing_modules() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let doc_text = std::fs::read_to_string(format!("{root}/DESIGN.md")).expect("DESIGN.md exists");
    let table = doc_text
        .split("\n## ")
        .find(|s| s.starts_with("3. System inventory"))
        .expect("DESIGN.md has the system inventory section");
    let mut checked = 0;
    let mut missing = Vec::new();
    for row in table.lines().filter(|l| l.starts_with("| S")) {
        if row.contains("deleted") {
            continue;
        }
        // Code spans are the odd pieces between backticks.
        for span in row.split('`').skip(1).step_by(2) {
            let Some((krate, rest)) = span.strip_prefix("krr_").and_then(|s| s.split_once("::"))
            else {
                continue;
            };
            let paths: Vec<&str> = match rest.strip_prefix('{') {
                Some(list) => list
                    .trim_end_matches('}')
                    .split(',')
                    .map(str::trim)
                    .collect(),
                None => vec![rest],
            };
            for path in paths {
                // Descend through module segments; a capitalised segment
                // names an item inside the module reached so far.
                let mut dir = format!("{root}/crates/{krate}/src");
                for seg in path
                    .split("::")
                    .take_while(|s| !s.starts_with(char::is_uppercase))
                {
                    let file = format!("{dir}/{seg}.rs");
                    dir = format!("{dir}/{seg}");
                    let found = std::path::Path::new(&file).is_file()
                        || std::path::Path::new(&format!("{dir}/mod.rs")).is_file();
                    if !found {
                        missing.push(format!("krr_{krate}::{path}"));
                        break;
                    }
                    checked += 1;
                }
            }
        }
    }
    assert!(
        missing.is_empty(),
        "DESIGN.md's module table names modules with no source file (mark \
         the row \"deleted (was ...)\" or fix the path): {missing:?}"
    );
    assert!(
        checked >= 30,
        "only {checked} module paths found in DESIGN.md"
    );
}

#[test]
fn architecture_checkpoint_tags_match_the_section_constants() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let doc_text = std::fs::read_to_string(format!("{root}/docs/ARCHITECTURE.md"))
        .expect("docs/ARCHITECTURE.md exists");
    let layout = doc_text
        .split("### `krr-ckpt-v1`")
        .nth(1)
        .expect("docs/ARCHITECTURE.md has the krr-ckpt-v1 layout");
    let tag_line = layout
        .lines()
        .find(|l| l.trim_start().starts_with("tag "))
        .expect("the krr-ckpt-v1 layout has a tag line");
    let mut documented: Vec<&str> = tag_line
        .split_whitespace()
        .filter(|t| t.len() == 4 && t.bytes().all(|b| b.is_ascii_uppercase()))
        .collect();
    let source = std::fs::read_to_string(format!("{root}/crates/core/src/checkpoint.rs"))
        .expect("checkpoint.rs exists");
    let mut defined: Vec<&str> = source
        .lines()
        .filter_map(|l| l.strip_prefix("pub const SECTION_"))
        .filter(|l| !l.starts_with("END"))
        .filter_map(|l| l.split("*b\"").nth(1)?.split('"').next())
        .collect();
    documented.sort_unstable();
    defined.sort_unstable();
    assert!(
        defined.len() >= 5,
        "found only {defined:?} in checkpoint.rs"
    );
    assert_eq!(
        documented, defined,
        "docs/ARCHITECTURE.md's krr-ckpt-v1 tag line must list exactly the \
         SECTION_* tags of crates/core/src/checkpoint.rs"
    );
}
