//! `krr doctor`: the PERFORMANCE.md counter-signature playbook as
//! machine-checked rules.
//!
//! docs/PERFORMANCE.md §"Reading the counters" tabulates how an operator
//! reads a `krr-metrics-v1` snapshot — *stalls growing + router parks
//! growing ⇒ model-bound ⇒ more threads*, and so on. This module executes
//! that table: [`DoctorCounters`] carries the counters the playbook keys
//! on (extracted from a live `/metrics?format=json` scrape or an offline
//! `--metrics-out` file), [`diagnose`] runs the rules, and the result
//! renders as text or as a `krr-doctor-v1` JSON report — each
//! [`Finding`] names the signature, the evidence counters, and the knob
//! to turn. Exemplar-ring statistics ([`ExemplarStats`]) extend the
//! playbook with tail-attribution rules the counters alone can't express
//! (e.g. most tail requests overlapped a `/metrics` scrape).
//!
//! The same module backs the CI artifact gate: [`validate_artifact`]
//! checks any committed `BENCH_*.json` / `krr-*-v1` document against the
//! required keys of its (grow-only) schema, catching hand-edited or stale
//! files.
//!
//! ```
//! use krr_core::doctor::{diagnose, DoctorCounters};
//!
//! let healthy = DoctorCounters::default();
//! let report = diagnose(&healthy);
//! assert_eq!(report.findings.len(), 1);
//! assert_eq!(report.findings[0].id, "healthy");
//! ```

use crate::json::Json;
use crate::metrics::CATALOG;

/// Exemplar-ring statistics joined into a diagnosis (from a live
/// `/exemplars` scrape or an offline `krr-exemplars-v1` dump).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExemplarStats {
    /// Exemplars inspected.
    pub total: u64,
    /// How many carried `scrape_in_progress = true`.
    pub scrape_flagged: u64,
    /// Exemplars lost to ring overwrite.
    pub dropped: u64,
}

/// The counters the playbook rules key on. Every field defaults to the
/// healthy value, so fixtures only set what a rule should see.
#[derive(Debug, Clone, Default)]
pub struct DoctorCounters {
    /// `pipeline.stalls` — router sends that found the worker's queue full.
    pub stalls: u64,
    /// `pipeline.batches`.
    pub batches: u64,
    /// `pipeline.ring.router_parks`.
    pub router_parks: u64,
    /// `pipeline.ring.worker_parks`.
    pub worker_parks: u64,
    /// `pipeline.ring.depth_hwm` — per-worker queue high-water marks.
    pub ring_depth_hwm: Vec<u64>,
    /// `shards.accesses` — per-shard access counts.
    pub shard_accesses: Vec<u64>,
    /// `watchdog.drift_events`.
    pub drift_events: u64,
    /// `watchdog.mae_ppm`.
    pub mae_ppm: u64,
    /// Exemplar-ring statistics, when an exemplar source is joined.
    pub exemplars: Option<ExemplarStats>,
}

impl DoctorCounters {
    /// Extracts the playbook counters from a parsed `krr-metrics-v1`
    /// document, each at the JSON path its [`CATALOG`] row renders it
    /// under. A counter absent from the document reads 0.
    ///
    /// # Panics
    ///
    /// If a playbook counter is no longer a catalog row.
    #[must_use]
    pub fn from_metrics_json(doc: &Json) -> DoctorCounters {
        let at = |field: &str| {
            let row = CATALOG
                .iter()
                .find(|m| m.field == field)
                .expect("playbook counter is a catalog row");
            doc.path(&row.json.split('.').collect::<Vec<_>>())
        };
        let num = |field: &str| at(field).and_then(Json::as_num).unwrap_or(0.0) as u64;
        let arr = |field: &str| {
            at(field)
                .and_then(Json::as_arr)
                .map(|a| {
                    a.iter()
                        .filter_map(Json::as_num)
                        .map(|n| n as u64)
                        .collect()
                })
                .unwrap_or_default()
        };
        DoctorCounters {
            stalls: num("pipeline_stalls"),
            batches: num("pipeline_batches"),
            router_parks: num("pipeline_router_parks"),
            worker_parks: num("pipeline_worker_parks"),
            ring_depth_hwm: arr("pipeline_ring_hwm"),
            shard_accesses: arr("shard_accesses"),
            drift_events: num("watchdog_drift_events"),
            mae_ppm: num("watchdog_mae_ppm"),
            exemplars: None,
        }
    }

    /// Joins exemplar statistics from a parsed `krr-exemplars-v1` dump.
    pub fn join_exemplars(&mut self, doc: &Json) {
        let flagged = doc
            .get("exemplars")
            .and_then(Json::as_arr)
            .map(|a| {
                a.iter()
                    .filter(|e| e.get("scrape_in_progress") == Some(&Json::Bool(true)))
                    .count() as u64
            })
            .unwrap_or(0);
        let total = doc
            .get("exemplars")
            .and_then(Json::as_arr)
            .map_or(0, |a| a.len() as u64);
        self.exemplars = Some(ExemplarStats {
            total,
            scrape_flagged: flagged,
            dropped: doc.get("dropped").and_then(Json::as_num).unwrap_or(0.0) as u64,
        });
    }
}

/// One diagnosis: a playbook signature that matched.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Stable rule id (`healthy`, `model_bound`, `router_bound`,
    /// `queue_saturated`, `key_skew`, `watchdog_drift`, `scrape_tail`,
    /// `forensics_loss`).
    pub id: &'static str,
    /// `ok` / `warn`.
    pub severity: &'static str,
    /// The matched signature, in the playbook's words.
    pub finding: String,
    /// The counters that triggered the rule, name → value.
    pub evidence: Vec<(String, u64)>,
    /// The knob to turn (the playbook's "response" column).
    pub suggestion: String,
}

/// A full diagnosis report (`krr-doctor-v1`).
#[derive(Debug, Clone, Default)]
pub struct DoctorReport {
    /// Findings in rule order; never empty after [`diagnose`] (a run with
    /// no matched warning signature yields the `healthy` finding).
    pub findings: Vec<Finding>,
}

impl DoctorReport {
    /// Renders the report as a `krr-doctor-v1` JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("{\"schema\":\"krr-doctor-v1\",\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"id\":\"{}\",\"severity\":\"{}\",\"finding\":{},\"evidence\":{{",
                f.id,
                f.severity,
                crate::obs::json_string(&f.finding),
            );
            for (j, (k, v)) in f.evidence.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{}:{v}", crate::obs::json_string(k));
            }
            let _ = write!(
                s,
                "}},\"suggestion\":{}}}",
                crate::obs::json_string(&f.suggestion)
            );
        }
        s.push_str("]}");
        s
    }

    /// Renders the report as operator-facing text.
    #[must_use]
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for f in &self.findings {
            let _ = writeln!(s, "[{}] {}: {}", f.severity, f.id, f.finding);
            let ev: Vec<String> = f.evidence.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let _ = writeln!(s, "  evidence: {}", ev.join(", "));
            let _ = writeln!(s, "  suggestion: {}", f.suggestion);
        }
        s
    }

    /// Whether any warning-level finding matched.
    #[must_use]
    pub fn has_warnings(&self) -> bool {
        self.findings.iter().any(|f| f.severity == "warn")
    }
}

fn ev(pairs: &[(&str, u64)]) -> Vec<(String, u64)> {
    pairs.iter().map(|(k, v)| ((*k).to_string(), *v)).collect()
}

/// Runs the playbook rules over the counters. Deterministic: same
/// counters, same findings, in the same order.
#[must_use]
pub fn diagnose(c: &DoctorCounters) -> DoctorReport {
    let mut findings = Vec::new();
    let depth_max = c.ring_depth_hwm.iter().copied().max().unwrap_or(0);
    let depth_min = c.ring_depth_hwm.iter().copied().min().unwrap_or(0);

    // Playbook row 2: stalls growing, router_parks growing — workers
    // can't drain their queues.
    if c.stalls > 0 && c.router_parks > 0 {
        findings.push(Finding {
            id: "model_bound",
            severity: "warn",
            finding: "workers can't drain their queues — the model is the bottleneck".into(),
            evidence: ev(&[("stalls", c.stalls), ("router_parks", c.router_parks)]),
            suggestion:
                "more threads (until ≈ shards), or accept: throughput is already model-bound"
                    .into(),
        });
    }

    // Playbook row 3: worker_parks huge, depth_hwm ≈ 1 — router-bound.
    if c.worker_parks > c.batches.max(1) && depth_max <= 1 {
        findings.push(Finding {
            id: "router_bound",
            severity: "warn",
            finding: "router-bound: workers starve (parks exceed batches, queues never fill)"
                .into(),
            evidence: ev(&[
                ("worker_parks", c.worker_parks),
                ("batches", c.batches),
                ("depth_hwm_max", depth_max),
            ]),
            suggestion: "raise batch_size; check the trace source (slow decompression? cold NFS?)"
                .into(),
        });
    }

    // Playbook row 4: depth_hwm pinned at queue_depth with stalls —
    // credit limit actually reached. The metrics carry no queue depth, so
    // "pinned" means every worker's mark is equal and at least the
    // default depth of 4.
    let pinned = !c.ring_depth_hwm.is_empty() && depth_min == depth_max && depth_max >= 4;
    if pinned && c.stalls > 0 {
        findings.push(Finding {
            id: "queue_saturated",
            severity: "warn",
            finding: "queue high-water mark pinned at the credit limit with router stalls".into(),
            evidence: ev(&[("depth_hwm_max", depth_max), ("stalls", c.stalls)]),
            suggestion: "raise queue_depth".into(),
        });
    }

    // Playbook row 5: one shard's accesses ≫ others — key skew. The hot
    // shard is compared against the mean of the *other* shards (a mean
    // including the hot shard itself would mask extreme skew).
    let total: u64 = c.shard_accesses.iter().sum();
    let hot = c.shard_accesses.iter().copied().max().unwrap_or(0);
    if c.shard_accesses.len() >= 2 && total > 0 {
        let mean = (total - hot) / (c.shard_accesses.len() as u64 - 1);
        if hot >= mean.saturating_mul(4) && hot >= 16 {
            findings.push(Finding {
                id: "key_skew",
                severity: "warn",
                finding: "key skew concentrates work in one shard's worker".into(),
                evidence: ev(&[("hot_shard_accesses", hot), ("mean_shard_accesses", mean)]),
                suggestion:
                    "more shards spreads the hot keys; threads beyond the hot shard's owner won't help"
                        .into(),
            });
        }
    }

    // Drift counted in `watchdog.drift_events`. Nothing in this workspace
    // increments it; the rule stays as long as the schema carries it.
    if c.drift_events > 0 {
        findings.push(Finding {
            id: "watchdog_drift",
            severity: "warn",
            finding: "accuracy watchdog reported drift against the Olken shadow".into(),
            evidence: ev(&[("drift_events", c.drift_events), ("mae_ppm", c.mae_ppm)]),
            suggestion: "check for workload shift; consider a larger K or re-seeding the model"
                .into(),
        });
    }

    // Exemplar-derived: most tail requests overlapped a /metrics scrape.
    if let Some(ex) = c.exemplars {
        if ex.total >= 4 && ex.scrape_flagged * 2 > ex.total {
            findings.push(Finding {
                id: "scrape_tail",
                severity: "warn",
                finding: "most tail exemplars overlapped an in-flight /metrics scrape".into(),
                evidence: ev(&[
                    ("exemplars", ex.total),
                    ("scrape_flagged", ex.scrape_flagged),
                ]),
                suggestion: "lower the scrape rate or scrape a replica; see BENCH_load ab gate"
                    .into(),
            });
        }
    }

    // Forensics self-check: overwrite-oldest loss in the exemplar ring
    // (informational — data is sampled, not wrong).
    let ex_dropped = c.exemplars.map_or(0, |e| e.dropped);
    if ex_dropped > 0 {
        findings.push(Finding {
            id: "forensics_loss",
            severity: "ok",
            finding: "the exemplar ring overwrote old entries (bounded-memory loss)".into(),
            evidence: ev(&[("exemplar_dropped", ex_dropped)]),
            suggestion: "raise the ring capacity if forensic history matters more than memory"
                .into(),
        });
    }

    // Playbook row 1: nothing matched and the router never waited.
    if !findings.iter().any(|f| f.severity == "warn") {
        findings.insert(
            0,
            Finding {
                id: "healthy",
                severity: "ok",
                finding: "router never waits, workers nap while the router reads the trace".into(),
                evidence: ev(&[
                    ("stalls", c.stalls),
                    ("router_parks", c.router_parks),
                    ("worker_parks", c.worker_parks),
                ]),
                suggestion: "nothing to do".into(),
            },
        );
    }

    DoctorReport { findings }
}

/// Required top-level keys per known grow-only schema tag. Grow-only
/// means committed artifacts may add keys but never lose these; a tag
/// leaves the table with the last artifact that carried it.
const ARTIFACT_SCHEMAS: &[(&str, &[&str])] = &[
    (
        "krr-metrics-v1",
        &["model", "pipeline", "shards", "updater"],
    ),
    ("krr-stats-v1", &["row", "refs", "delta"]),
    (
        "krr-exemplars-v1",
        &[
            "capacity",
            "captured",
            "dropped",
            "threshold_ns",
            "exemplars",
        ],
    ),
    ("krr-doctor-v1", &["findings"]),
    (
        "krr-load-v1",
        &["requests", "latency_ns", "phases", "arrival"],
    ),
    (
        "krr-bench-pipeline-v3",
        &["results", "gate", "host_cores", "keys_hashed"],
    ),
    (
        "krr-bench-obs-v1",
        &["refs", "overhead_pct", "overhead_limit_pct"],
    ),
    (
        "krr-bench-space-v1",
        &["krr_bytes", "olken_bytes", "scrape_overhead_pct"],
    ),
    (
        "krr-bench-fleet-v1",
        &["tenants", "scrape_overhead_pct", "footprint_worst_ratio"],
    ),
];

/// Validates a parsed artifact against its declared grow-only schema.
/// Accepts a top-level `"schema"` tag or a Chrome-trace
/// `otherData.schema` tag. Returns the schema name on success.
///
/// # Errors
///
/// Rejects documents with no schema tag, an unknown tag, or a missing
/// required key — the CI signal for a hand-edited or stale artifact.
pub fn validate_artifact(doc: &Json) -> Result<String, String> {
    let (tag, body) = if let Some(Json::Str(s)) = doc.get("schema") {
        (s.clone(), doc)
    } else if let Some(Json::Str(s)) = doc.path(&["otherData", "schema"]) {
        // Chrome traces carry their tag in the trailer; the required
        // shape is the traceEvents array itself.
        return if s == "krr-trace-v1" {
            if doc.get("traceEvents").and_then(Json::as_arr).is_some() {
                Ok(s.clone())
            } else {
                Err("krr-trace-v1: missing traceEvents array".into())
            }
        } else {
            Err(format!("unknown trace schema tag {s:?}"))
        };
    } else {
        return Err("no schema tag (expected top-level \"schema\")".into());
    };
    let Some((_, required)) = ARTIFACT_SCHEMAS.iter().find(|(name, _)| *name == tag) else {
        return Err(format!("unknown schema tag {tag:?}"));
    };
    for key in *required {
        if body.get(key).is_none() {
            return Err(format!("{tag}: missing required key {key:?}"));
        }
    }
    Ok(tag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn healthy_counters_yield_the_healthy_finding() {
        let report = diagnose(&DoctorCounters {
            batches: 100,
            worker_parks: 12,
            ring_depth_hwm: vec![2, 3],
            shard_accesses: vec![100, 120, 110, 90],
            ..DoctorCounters::default()
        });
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].id, "healthy");
        assert!(!report.has_warnings());
    }

    #[test]
    fn model_bound_signature_matches_playbook_row() {
        let report = diagnose(&DoctorCounters {
            stalls: 500,
            router_parks: 300,
            batches: 100,
            ..DoctorCounters::default()
        });
        assert!(report.findings.iter().any(|f| f.id == "model_bound"));
        assert!(report.has_warnings());
    }

    #[test]
    fn router_bound_needs_starving_workers_and_empty_rings() {
        let report = diagnose(&DoctorCounters {
            batches: 10,
            worker_parks: 5_000,
            ring_depth_hwm: vec![1, 1, 0, 1],
            ..DoctorCounters::default()
        });
        let f = report
            .findings
            .iter()
            .find(|f| f.id == "router_bound")
            .unwrap();
        assert!(f.suggestion.contains("batch_size"));
        // Same parks with deep rings is NOT router-bound.
        let report = diagnose(&DoctorCounters {
            batches: 10,
            worker_parks: 5_000,
            ring_depth_hwm: vec![4, 4],
            ..DoctorCounters::default()
        });
        assert!(report.findings.iter().all(|f| f.id != "router_bound"));
    }

    #[test]
    fn queue_saturation_fires_when_every_hwm_is_pinned() {
        let report = diagnose(&DoctorCounters {
            stalls: 7,
            ring_depth_hwm: vec![4, 4, 4],
            ..DoctorCounters::default()
        });
        let f = report
            .findings
            .iter()
            .find(|f| f.id == "queue_saturated")
            .unwrap();
        assert_eq!(f.suggestion, "raise queue_depth");
    }

    #[test]
    fn key_skew_fires_on_a_hot_shard() {
        let report = diagnose(&DoctorCounters {
            shard_accesses: vec![10_000, 100, 120, 90],
            ..DoctorCounters::default()
        });
        assert!(report.findings.iter().any(|f| f.id == "key_skew"));
    }

    #[test]
    fn scrape_tail_fires_when_most_exemplars_overlap_a_scrape() {
        let c = DoctorCounters {
            exemplars: Some(ExemplarStats {
                total: 10,
                scrape_flagged: 8,
                dropped: 0,
            }),
            ..DoctorCounters::default()
        };
        let report = diagnose(&c);
        assert!(report.findings.iter().any(|f| f.id == "scrape_tail"));
    }

    #[test]
    fn counters_parse_from_metrics_json_paths() {
        let doc = parse(
            r#"{"schema":"krr-metrics-v1",
                "pipeline":{"stalls":3,"batches":9,"ring":{"router_parks":2,"worker_parks":5,"depth_hwm":[1,2]}},
                "shards":{"accesses":[7,8]},
                "watchdog":{"drift_events":1,"mae_ppm":250}}"#,
        )
        .unwrap();
        let c = DoctorCounters::from_metrics_json(&doc);
        assert_eq!(c.stalls, 3);
        assert_eq!(c.batches, 9);
        assert_eq!(c.router_parks, 2);
        assert_eq!(c.worker_parks, 5);
        assert_eq!(c.ring_depth_hwm, vec![1, 2]);
        assert_eq!(c.shard_accesses, vec![7, 8]);
        assert_eq!(c.drift_events, 1);
        assert_eq!(c.mae_ppm, 250);
    }

    #[test]
    fn counters_read_back_what_the_metrics_renderer_writes() {
        use crate::metrics::{MetricsRegistry, Scope};
        let reg = MetricsRegistry::new();
        reg.init_slots(Scope::Shard, 3);
        reg.init_slots(Scope::Worker, 2);
        reg.pipeline_stalls.add(3);
        reg.pipeline_batches.add(40);
        reg.pipeline_router_parks.add(5);
        reg.pipeline_worker_parks.add(7);
        reg.pipeline_ring_hwm.record(0, 2);
        reg.pipeline_ring_hwm.record(1, 4);
        for (s, n) in [11, 12, 13].into_iter().enumerate() {
            reg.shard_accesses.record(s, n);
        }
        reg.watchdog_drift_events.add(6);
        reg.watchdog_mae_ppm.set(12_300);
        let doc = parse(&reg.snapshot().to_json()).unwrap();
        let c = DoctorCounters::from_metrics_json(&doc);
        assert_eq!(c.stalls, 3);
        assert_eq!(c.batches, 40);
        assert_eq!(c.router_parks, 5);
        assert_eq!(c.worker_parks, 7);
        assert_eq!(c.ring_depth_hwm, vec![2, 4]);
        assert_eq!(c.shard_accesses, vec![11, 12, 13]);
        assert_eq!(c.drift_events, 6);
        assert_eq!(c.mae_ppm, 12_300);
    }

    #[test]
    fn report_json_is_parseable_and_tagged() {
        let report = diagnose(&DoctorCounters {
            stalls: 1,
            router_parks: 1,
            ..DoctorCounters::default()
        });
        let doc = parse(&report.to_json()).unwrap();
        assert_eq!(validate_artifact(&doc).unwrap(), "krr-doctor-v1");
        let findings = doc.get("findings").and_then(Json::as_arr).unwrap();
        assert_eq!(
            findings[0].get("id").and_then(Json::as_str),
            Some("model_bound")
        );
        assert!(findings[0].path(&["evidence", "stalls"]).is_some());
    }

    #[test]
    fn artifact_validator_accepts_known_and_rejects_edited() {
        let ok = parse(
            r#"{"schema":"krr-bench-obs-v1","refs":1,"overhead_pct":0.1,"overhead_limit_pct":5}"#,
        )
        .unwrap();
        assert_eq!(validate_artifact(&ok).unwrap(), "krr-bench-obs-v1");
        let missing = parse(r#"{"schema":"krr-bench-obs-v1","refs":1}"#).unwrap();
        assert!(validate_artifact(&missing)
            .unwrap_err()
            .contains("overhead_pct"));
        let unknown = parse(r#"{"schema":"krr-bench-nope-v9"}"#).unwrap();
        assert!(validate_artifact(&unknown).is_err());
        let untagged = parse(r#"{"refs":1}"#).unwrap();
        assert!(validate_artifact(&untagged).is_err());
        let trace =
            parse(r#"{"traceEvents":[],"otherData":{"schema":"krr-trace-v1","dropped_events":0}}"#)
                .unwrap();
        assert_eq!(validate_artifact(&trace).unwrap(), "krr-trace-v1");
    }
}
