//! Integration: tail-latency forensics end to end.
//!
//! Covers the three legs of the forensics stack working together:
//!
//! * `krr doctor`'s counter-signature rules reproduce the
//!   `docs/PERFORMANCE.md` playbook diagnoses from fixture
//!   `krr-metrics-v1` documents (parsed by the real JSON parser, so the
//!   whole offline path is exercised, not just the rule engine),
//! * the phase profiler attributes real work during a multi-threaded
//!   pipeline run and `/profile` serves non-empty collapsed-stack text,
//! * and — the hard invariant — the MRC an observed mini-Redis (exemplar
//!   capture, phase profiler and flight recorder all running) reports
//!   over RESP equals that of an in-process store fed the same accesses:
//!   observability must never touch the model.

mod support;

use krr::core::doctor::{diagnose, DoctorCounters};
use krr::core::expo::{http_get, ExpoServer, ExpoSources};
use krr::core::obs::FlightRecorder;
use krr::core::sharded::ShardedKrr;
use krr::core::{KrrConfig, Mrc};
use krr::redis::{Client, MiniRedis, Server};
use krr::trace::{ycsb, Request};
use std::sync::Arc;
use support::json;

/// Parses a fixture document and runs the doctor over it, returning the
/// finding ids in order.
fn diagnose_fixture(metrics_json: &str) -> Vec<String> {
    let doc = json::parse(metrics_json).expect("fixture must be valid JSON");
    let report = diagnose(&DoctorCounters::from_metrics_json(&doc));
    report.findings.iter().map(|f| f.id.to_string()).collect()
}

#[test]
fn doctor_reproduces_playbook_diagnoses_from_fixtures() {
    // Playbook row: stalls with the router parking on full rings —
    // workers can't keep up, throughput is model-bound.
    let model_bound = r#"{
        "schema": "krr-metrics-v1",
        "pipeline": {"stalls": 120, "batches": 1000,
                     "ring": {"router_parks": 90, "worker_parks": 3,
                              "depth_hwm": [8, 8, 7, 8]}},
        "shards": {"accesses": [1000, 1010, 990, 1005]},
        "watchdog": {"drift_events": 0, "mae_ppm": 900}
    }"#;
    assert!(
        diagnose_fixture(model_bound).contains(&"model_bound".to_string()),
        "model-bound fixture missed"
    );

    // Playbook row: workers park far more often than batches arrive and
    // the rings never fill — the router (trace source) is the bottleneck.
    let router_bound = r#"{
        "schema": "krr-metrics-v1",
        "pipeline": {"stalls": 0, "batches": 500,
                     "ring": {"router_parks": 0, "worker_parks": 4000,
                              "depth_hwm": [1, 1, 0, 1]}},
        "shards": {"accesses": [1000, 1010, 990, 1005]},
        "watchdog": {"drift_events": 0, "mae_ppm": 900}
    }"#;
    assert!(
        diagnose_fixture(router_bound).contains(&"router_bound".to_string()),
        "router-bound fixture missed"
    );

    // Playbook row: one shard owns a hot key and everything queues there.
    let key_skew = r#"{
        "schema": "krr-metrics-v1",
        "pipeline": {"stalls": 0, "batches": 1000,
                     "ring": {"router_parks": 0, "worker_parks": 10,
                              "depth_hwm": [2, 2, 2, 2]}},
        "shards": {"accesses": [90000, 1000, 1100, 950]},
        "watchdog": {"drift_events": 0, "mae_ppm": 900}
    }"#;
    assert!(
        diagnose_fixture(key_skew).contains(&"key_skew".to_string()),
        "key-skew fixture missed"
    );

    // Accuracy, not throughput: the shadow watchdog flagged drift.
    let drift = r#"{
        "schema": "krr-metrics-v1",
        "pipeline": {"stalls": 0, "batches": 10,
                     "ring": {"router_parks": 0, "worker_parks": 1,
                              "depth_hwm": [1]}},
        "shards": {"accesses": [100]},
        "watchdog": {"drift_events": 3, "mae_ppm": 140000}
    }"#;
    assert!(
        diagnose_fixture(drift).contains(&"watchdog_drift".to_string()),
        "watchdog-drift fixture missed"
    );

    // And the quiet case reports exactly one healthy finding up front.
    let healthy = r#"{
        "schema": "krr-metrics-v1",
        "pipeline": {"stalls": 0, "batches": 1000,
                     "ring": {"router_parks": 0, "worker_parks": 40,
                              "depth_hwm": [2, 3, 2, 2]}},
        "shards": {"accesses": [1000, 1010, 990, 1005]},
        "watchdog": {"drift_events": 0, "mae_ppm": 900}
    }"#;
    assert_eq!(diagnose_fixture(healthy)[0], "healthy");
}

#[test]
fn doctor_flags_scrape_coincident_tails_from_exemplar_dump() {
    let metrics = r#"{
        "schema": "krr-metrics-v1",
        "pipeline": {"stalls": 0, "batches": 100,
                     "ring": {"router_parks": 0, "worker_parks": 5,
                              "depth_hwm": [1, 1]}},
        "shards": {"accesses": [500, 510]},
        "watchdog": {"drift_events": 0, "mae_ppm": 900}
    }"#;
    // 4 of 5 captured tail requests overlapped a /metrics scrape: the
    // exposition path itself is the tail amplifier.
    let exemplars = r#"{
        "schema": "krr-exemplars-v1",
        "capacity": 256, "captured": 5, "dropped": 0, "threshold_ns": 4096,
        "exemplars": [
            {"request_id": 1, "scrape_in_progress": true},
            {"request_id": 2, "scrape_in_progress": true},
            {"request_id": 3, "scrape_in_progress": true},
            {"request_id": 4, "scrape_in_progress": true},
            {"request_id": 5, "scrape_in_progress": false}
        ]
    }"#;
    let mut counters =
        DoctorCounters::from_metrics_json(&json::parse(metrics).expect("metrics fixture"));
    counters.join_exemplars(&json::parse(exemplars).expect("exemplars fixture"));
    let report = diagnose(&counters);
    assert!(
        report.findings.iter().any(|f| f.id == "scrape_tail"),
        "scrape-tail fixture missed: {:?}",
        report.findings.iter().map(|f| f.id).collect::<Vec<_>>()
    );
}

#[test]
fn profile_endpoint_is_nonempty_after_an_8_thread_run() {
    let trace = ycsb::WorkloadC::new(2_000, 0.9).generate(120_000, 5);
    let recorder = Arc::new(FlightRecorder::new());
    let mut bank = ShardedKrr::new(&KrrConfig::new(5.0).seed(3), 8);
    bank.set_recorder(Arc::clone(&recorder));
    bank.process_stream(trace.iter().map(|r| (r.key, r.size)), 8);

    // The profiler piggybacks on flight-recorder spans: a run that
    // recorded spans has per-thread phase attributions.
    let profiler = recorder.profiler();
    assert!(profiler.samples_total() > 0, "profiler saw no samples");

    let sources = ExpoSources {
        profiler: Some(Arc::clone(profiler)),
        ..ExpoSources::default()
    };
    let server = ExpoServer::start("127.0.0.1:0", sources).unwrap();
    let (status, ctype, body) = http_get(server.addr(), "/profile").unwrap();
    assert_eq!(status, 200);
    assert_eq!(ctype, "text/plain");
    assert!(!body.is_empty(), "folded profile is empty");
    // Collapsed-stack shape: `krr;<thread>;<phase> <ns>` lines, with the
    // pipeline's signature phases attributed somewhere.
    for line in body.lines() {
        let (stack, ns) = line.rsplit_once(' ').expect("folded line shape");
        assert!(stack.starts_with("krr;"), "bad stack {line:?}");
        assert_eq!(stack.split(';').count(), 3, "bad stack depth {line:?}");
        ns.parse::<u64>().expect("folded value is integer ns");
    }
    assert!(body.contains(";update "), "no update attribution: {body}");
    assert!(
        body.contains(";ring_wait ") || body.contains(";filter "),
        "no router/ring attribution: {body}"
    );
}

/// The `MRC` reply body for `mrc`, as the server renders it.
fn render(mrc: &Mrc) -> String {
    let mut body = String::from("cache_size,miss_ratio\n");
    for &(x, y) in mrc.points().iter().filter(|&&(x, _)| x > 0.0) {
        body.push_str(&format!("{x:.0},{y:.5}\n"));
    }
    body
}

#[test]
fn observed_server_mrc_equals_the_in_process_model() {
    let profiled_store = || {
        let mut store = MiniRedis::new(1_000_000, 5, 11);
        store.enable_mrc_profiling(&KrrConfig::new(5.0).seed(7), 2);
        store
    };
    let trace = ycsb::WorkloadC::new(800, 0.9).generate(30_000, 13);

    let mut server = Server::start(profiled_store()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for r in &trace {
        let _ = client.access(r.key, r.size.max(1)).unwrap();
    }
    let observed = client.mrc().unwrap();
    server.shutdown();

    // The same cache-aside sequence: GET, then SET on a miss.
    let mut plain = profiled_store();
    for r in &trace {
        plain.access(&Request::get(r.key, r.size.max(1)));
    }
    let expected = render(&plain.mrc_profile().expect("profiling on"));
    assert!(expected.lines().count() > 1, "curve has data: {expected}");
    assert_eq!(observed, expected, "observing the server changed its MRC");
}
