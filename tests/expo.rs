//! Wire tests for the embedded exposition server.
//!
//! Covers the HTTP surface end to end: status codes and content types per
//! endpoint, method/parse rejection, the `/healthz` drift path, shutdown
//! and same-address rebind, and — the load-bearing one — scraping
//! `/metrics` concurrently with a multi-threaded pipeline run, asserting
//! every scrape is valid OpenMetrics and that being scraped does not
//! perturb the resulting MRC by a single bit.

mod support;

use krr::core::expo::{http_get, ExpoServer, ExpoSources, MrcCell, StatsRing};
use krr::core::fleet::{FleetArena, FleetCell, FleetConfig};
use krr::core::forensics::{Exemplar, ExemplarRing};
use krr::core::obs::FlightRecorder;
use krr::core::sharded::ShardedKrr;
use krr::core::{KrrConfig, MetricsRegistry, Mrc, TenantRow};
use krr::trace::ycsb;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use support::json;
use support::openmetrics;

/// A server with every source wired, plus handles to feed them.
#[allow(clippy::type_complexity)]
fn full_server() -> (
    ExpoServer,
    Arc<MetricsRegistry>,
    Arc<MrcCell>,
    Arc<StatsRing>,
    Arc<FleetCell>,
    Arc<ExemplarRing>,
) {
    let reg = Arc::new(MetricsRegistry::new());
    let mrc = Arc::new(MrcCell::new());
    let stats = Arc::new(StatsRing::new());
    let fleet = Arc::new(FleetCell::new());
    let exemplars = Arc::new(ExemplarRing::new());
    let recorder = Arc::new(FlightRecorder::new());
    let sources = ExpoSources {
        metrics: Some(Arc::clone(&reg)),
        mrc: Some(Arc::clone(&mrc)),
        stats: Some(Arc::clone(&stats)),
        trace: Some(Arc::clone(&recorder)),
        tenants: Some(Arc::clone(&fleet)),
        exemplars: Some(Arc::clone(&exemplars)),
        profiler: Some(Arc::clone(recorder.profiler())),
    };
    let server = ExpoServer::start("127.0.0.1:0", sources).unwrap();
    (server, reg, mrc, stats, fleet, exemplars)
}

/// Sends a raw request (caller includes the blank line) and returns the
/// response status code — for the malformed-request paths `http_get`
/// cannot produce.
fn raw_request(addr: SocketAddr, request: &str) -> u16 {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    stream.flush().unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw).into_owned();
    text.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line")
}

#[test]
fn endpoints_report_expected_statuses_and_content_types() {
    let (server, reg, mrc, stats, _fleet, _ex) = full_server();
    let addr = server.addr();
    reg.accesses.add(42);

    let (status, ctype, body) = http_get(addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    assert_eq!(ctype, krr::core::expo::OPENMETRICS_CONTENT_TYPE);
    openmetrics::validate(&body).expect("/metrics must be valid OpenMetrics");

    // /mrc: 503 until the first publish, then 200 with krr-mrc-v1 JSON.
    let (status, _, _) = http_get(addr, "/mrc").unwrap();
    assert_eq!(status, 503);
    mrc.publish(Mrc::from_points(vec![(0.0, 1.0), (100.0, 0.25)]));
    let (status, ctype, body) = http_get(addr, "/mrc").unwrap();
    assert_eq!(status, 200);
    assert_eq!(ctype, "application/json");
    let doc = json::parse(&body).unwrap();
    assert_eq!(
        doc.get("schema").and_then(json::Json::as_str),
        Some("krr-mrc-v1")
    );

    stats.push("{\"requests\":10}".into());
    stats.push("{\"requests\":20}".into());
    let (status, ctype, body) = http_get(addr, "/stats").unwrap();
    assert_eq!(status, 200);
    assert_eq!(ctype, "application/json");
    assert_eq!(body, "[{\"requests\":10},{\"requests\":20}]");
    json::parse(&body).expect("/stats must be valid JSON");

    let (status, ctype, body) = http_get(addr, "/trace").unwrap();
    assert_eq!(status, 200);
    assert_eq!(ctype, "application/json");
    json::parse(&body).expect("/trace must be valid JSON");

    let (status, ctype, body) = http_get(addr, "/healthz").unwrap();
    assert_eq!(status, 200);
    assert_eq!(ctype, "application/json");
    assert!(body.contains("\"status\":\"ok\""));

    let (status, _, _) = http_get(addr, "/no-such-endpoint").unwrap();
    assert_eq!(status, 404);
    // Query strings are ignored, not 404ed.
    let (status, _, _) = http_get(addr, "/metrics?format=openmetrics").unwrap();
    assert_eq!(status, 200);
}

#[test]
fn non_get_and_malformed_requests_are_rejected() {
    let (server, _reg, _mrc, _stats, _fleet, _ex) = full_server();
    let addr = server.addr();
    let status = raw_request(addr, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, 405);
    let status = raw_request(addr, "NONSENSE\r\n\r\n");
    assert_eq!(status, 400);
    // The server survives malformed traffic: a normal scrape still works.
    let (status, _, _) = http_get(addr, "/healthz").unwrap();
    assert_eq!(status, 200);
}

#[test]
fn healthz_reports_drift_as_503() {
    let (server, reg, _mrc, _stats, _fleet, _ex) = full_server();
    reg.watchdog_drift_events.add(1);
    let (status, _, body) = http_get(server.addr(), "/healthz").unwrap();
    assert_eq!(status, 503);
    assert!(body.contains("\"status\":\"drift\""));
    assert!(body.contains("\"drift_events\":1"));
}

#[test]
fn healthz_details_which_subsystem_is_unhealthy() {
    let (server, reg, _mrc, _stats, _fleet, _ex) = full_server();
    let addr = server.addr();

    // Pipeline stalls are back-pressure, not ill health: surfaced in the
    // body but the status code stays 200.
    reg.pipeline_stalls.add(7);
    let (status, _, body) = http_get(addr, "/healthz").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "body: {body}");
    assert!(body.contains("\"pipeline_stalls\":7"), "body: {body}");
    assert!(body.contains("\"pipeline\":\"stalls\""), "body: {body}");
    assert!(body.contains("\"watchdog\":\"ok\""), "body: {body}");
    assert!(body.contains("\"tenants\":\"ok\""), "body: {body}");
    json::parse(&body).expect("/healthz must be valid JSON");

    // A single drifted tenant row flips health to 503 even with zero
    // aggregate watchdog drift — and the body names the subsystem.
    reg.tenant_rows.set(vec![TenantRow {
        id: 4,
        refs: 10,
        resident: 5,
        resident_bytes: 512,
        miss_ratio_ppm: 250_000,
        drift_events: 2,
        mae_ppm: 90_000,
        shadowed: true,
    }]);
    let (status, _, body) = http_get(addr, "/healthz").unwrap();
    assert_eq!(status, 503);
    assert!(body.contains("\"status\":\"drift\""), "body: {body}");
    assert!(body.contains("\"tenants_drifted\":1"), "body: {body}");
    assert!(body.contains("\"tenants\":\"drift\""), "body: {body}");
    assert!(body.contains("\"watchdog\":\"ok\""), "body: {body}");
}

#[test]
fn trickling_client_is_cut_off_at_the_request_deadline() {
    use krr::core::expo::REQUEST_DEADLINE;
    use std::time::Instant;
    let (server, reg, _mrc, _stats, _fleet, _ex) = full_server();
    let addr = server.addr();
    // One byte per 300 ms: every read lands inside the 500 ms per-read
    // timeout, so only the whole-request deadline can end the request.
    let mut slow = TcpStream::connect(addr).unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let start = Instant::now();
    let trickle = {
        let mut w = slow.try_clone().unwrap();
        std::thread::spawn(move || {
            for &b in b"GET /healthz HTTP/1.1\r\nHost: x\r\n".iter() {
                if w.write_all(&[b]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(300));
            }
        })
    };
    // A scrape queued behind the trickler: connected after it, so the
    // single server thread accepts it second.
    let queued = std::thread::spawn(move || http_get(addr, "/healthz").unwrap());
    let mut reply = Vec::new();
    let _ = slow.read_to_end(&mut reply);
    let cut_after = start.elapsed();
    let reply = String::from_utf8_lossy(&reply);
    assert!(reply.starts_with("HTTP/1.1 408 "), "trickler got {reply:?}");
    assert!(
        cut_after < REQUEST_DEADLINE + Duration::from_secs(1),
        "cut off after {cut_after:?}"
    );
    let (status, _, body) = queued.join().unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"request_timeouts\":1"), "body: {body}");
    assert_eq!(reg.expo_request_timeouts.get(), 1);
    trickle.join().unwrap();
}

#[test]
fn tenant_endpoints_serve_published_fleet_views() {
    let (server, _reg, _mrc, _stats, fleet, _ex) = full_server();
    let addr = server.addr();

    // Both tenant endpoints answer 503 until the first published view.
    let (status, _, _) = http_get(addr, "/tenants").unwrap();
    assert_eq!(status, 503);
    let (status, _, _) = http_get(addr, "/mrc?tenant=0").unwrap();
    assert_eq!(status, 503);

    let mut arena = FleetArena::new(FleetConfig::new(KrrConfig::new(64.0).seed(9)));
    for i in 0..30_000u64 {
        arena.access(i % 3, i.wrapping_mul(0x9E37_79B9_7F4A_7C15), 1);
    }
    fleet.publish(arena.view());

    let (status, ctype, body) = http_get(addr, "/tenants").unwrap();
    assert_eq!(status, 200);
    assert_eq!(ctype, "application/json");
    let doc = json::parse(&body).unwrap();
    assert_eq!(
        doc.get("schema").and_then(json::Json::as_str),
        Some("krr-tenants-v1")
    );
    assert_eq!(doc.get("count").and_then(json::Json::as_num), Some(3.0));

    // CSV: fixed header, one row per tenant; ?top=1 keeps only the
    // hottest.
    let (status, ctype, csv) = http_get(addr, "/tenants?format=csv").unwrap();
    assert_eq!(status, 200);
    assert_eq!(ctype, "text/csv");
    let mut lines = csv.lines();
    assert_eq!(
        lines.next(),
        Some("id,refs,resident,resident_bytes,miss_ratio_ppm,drift_events,mae_ppm,shadowed")
    );
    assert_eq!(lines.count(), 3, "one CSV row per tenant");
    let (_, _, top1) = http_get(addr, "/tenants?format=csv&top=1").unwrap();
    assert_eq!(
        top1.lines().count(),
        2,
        "header plus the single hottest row"
    );

    // Per-tenant MRC as JSON…
    let (status, ctype, body) = http_get(addr, "/mrc?tenant=1").unwrap();
    assert_eq!(status, 200);
    assert_eq!(ctype, "application/json");
    let doc = json::parse(&body).unwrap();
    assert_eq!(
        doc.get("schema").and_then(json::Json::as_str),
        Some("krr-mrc-v1")
    );

    // …and as CSV that is byte-identical to `persist::write_mrc` output,
    // so `krr partition --live` parses it with the existing reader.
    let (status, ctype, csv) = http_get(addr, "/mrc?tenant=1&format=csv").unwrap();
    assert_eq!(status, 200);
    assert_eq!(ctype, "text/csv");
    let direct = arena.tenant_mrc(1).expect("tenant 1 exists");
    let mut expected = Vec::new();
    krr::core::persist::write_mrc(&mut expected, &direct).unwrap();
    assert_eq!(
        csv.as_bytes(),
        &expected[..],
        "served CSV must match persist::write_mrc bytes exactly"
    );
    let served = krr::core::persist::read_mrc(csv.as_bytes()).expect("round-trip");
    assert_eq!(served.points().len(), direct.points().len());

    // Unknown tenants 404; junk ids 400.
    let (status, _, _) = http_get(addr, "/mrc?tenant=999").unwrap();
    assert_eq!(status, 404);
    let (status, _, _) = http_get(addr, "/mrc?tenant=bogus").unwrap();
    assert_eq!(status, 400);
}

#[test]
fn endpoints_without_sources_answer_404() {
    let server = ExpoServer::start("127.0.0.1:0", ExpoSources::default()).unwrap();
    for path in [
        "/metrics",
        "/mrc",
        "/stats",
        "/trace",
        "/tenants",
        "/exemplars",
        "/profile",
    ] {
        let (status, _, _) = http_get(server.addr(), path).unwrap();
        assert_eq!(status, 404, "{path} without a source");
    }
    // /healthz always answers, even with nothing wired.
    let (status, _, _) = http_get(server.addr(), "/healthz").unwrap();
    assert_eq!(status, 200);
}

#[test]
fn forensics_endpoints_serve_exemplars_and_profile() {
    let (server, _reg, _mrc, _stats, _fleet, exemplars) = full_server();
    let addr = server.addr();

    // The profiler source is wired but empty: /profile answers 200 with
    // an empty folded document until a registered thread samples.
    let (status, ctype, body) = http_get(addr, "/profile").unwrap();
    assert_eq!(status, 200);
    assert_eq!(ctype, "text/plain");
    assert!(body.is_empty(), "unexpected folded lines: {body:?}");

    // Feed the exemplar ring the way the RESP server does: observe every
    // latency, capture the ones the threshold flags.
    for i in 0..200u64 {
        let id = exemplars.next_request_id();
        let latency = if i % 50 == 49 { 900_000 } else { 700 };
        if exemplars.observe(latency) {
            exemplars.capture(&Exemplar {
                request_id: id,
                tenant: Some(i % 3),
                latency_ns: latency,
                start_ns: i,
                command_tag: 2,
                ..Exemplar::default()
            });
        }
    }
    assert!(exemplars.captured() > 0, "no exemplars captured");

    // /metrics carries the latency histogram with exemplar suffixes that
    // the extended validator both accepts and bound-checks.
    let (status, _, body) = http_get(addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    let doc = openmetrics::validate(&body).expect("exemplars must validate");
    let with_exemplar: Vec<_> = doc
        .series("krr_command_latency_ns_bucket")
        .into_iter()
        .filter(|s| s.exemplar.is_some())
        .collect();
    assert!(!with_exemplar.is_empty(), "no exemplar suffix rendered");
    let (labels, value) = with_exemplar[0].exemplar.as_ref().unwrap();
    assert!(labels.iter().any(|(k, _)| k == "request_id"));
    assert!(*value > 0.0);

    // /exemplars: the krr-exemplars-v1 dump, newest state of the ring.
    let (status, ctype, body) = http_get(addr, "/exemplars").unwrap();
    assert_eq!(status, 200);
    assert_eq!(ctype, "application/json");
    let doc = json::parse(&body).unwrap();
    assert_eq!(
        doc.get("schema").and_then(json::Json::as_str),
        Some("krr-exemplars-v1")
    );
    assert!(
        doc.get("exemplars")
            .and_then(json::Json::as_arr)
            .is_some_and(|a| !a.is_empty()),
        "{body}"
    );

    // /metrics?format=json serves the krr-metrics-v1 snapshot (the
    // `krr doctor --live` input).
    let (status, ctype, body) = http_get(addr, "/metrics?format=json").unwrap();
    assert_eq!(status, 200);
    assert_eq!(ctype, "application/json");
    let doc = json::parse(&body).unwrap();
    assert_eq!(
        doc.get("schema").and_then(json::Json::as_str),
        Some("krr-metrics-v1")
    );

    // /healthz surfaces forensic ring losses without flipping health.
    let (status, _, body) = http_get(addr, "/healthz").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"exemplar_drops\":"), "body: {body}");
    assert!(body.contains("\"profiler_drops\":"), "body: {body}");
    assert!(body.contains("\"forensics\":\"ok\""), "body: {body}");
}

#[test]
fn shutdown_releases_port_for_rebind() {
    // Checkpoint/restore composition: a restored run must be able to
    // rebind the address its predecessor served on. Cycle several times
    // to also catch leaked listener threads holding the port.
    let mut server = ExpoServer::start("127.0.0.1:0", ExpoSources::default()).unwrap();
    let addr = server.addr();
    for round in 0..4 {
        server.shutdown();
        server = ExpoServer::start(addr, ExpoSources::default())
            .unwrap_or_else(|e| panic!("rebind round {round}: {e}"));
        assert_eq!(server.addr(), addr);
        let (status, _, _) = http_get(addr, "/healthz").unwrap();
        assert_eq!(status, 200, "round {round}");
    }
}

/// One sharded run over a fixed trace; scraped == whether an ExpoServer
/// is attached and hammered during the run.
fn pipeline_run(scraped: bool) -> Mrc {
    let trace = ycsb::WorkloadC::new(2_000, 0.9).generate(150_000, 7);
    let reg = Arc::new(MetricsRegistry::new());
    let mut bank = ShardedKrr::new(&KrrConfig::new(5.0).seed(11), 4);
    bank.set_metrics(Arc::clone(&reg));

    let mut server_and_scraper = None;
    if scraped {
        let sources = ExpoSources {
            metrics: Some(Arc::clone(&reg)),
            ..ExpoSources::default()
        };
        let server = ExpoServer::start("127.0.0.1:0", sources).unwrap();
        let addr = server.addr();
        let done = Arc::new(AtomicBool::new(false));
        let scraper_done = Arc::clone(&done);
        let scraper = std::thread::spawn(move || {
            let mut scrapes = 0u32;
            loop {
                let (status, ctype, body) = http_get(addr, "/metrics").expect("scrape");
                assert_eq!(status, 200);
                assert!(ctype.starts_with("application/openmetrics-text"));
                if let Err(e) = openmetrics::validate(&body) {
                    panic!("scrape {scrapes} produced invalid OpenMetrics: {e}");
                }
                scrapes += 1;
                if scraper_done.load(Ordering::Acquire) {
                    return scrapes;
                }
            }
        });
        server_and_scraper = Some((server, done, scraper));
    }

    bank.process_stream(trace.iter().map(|r| (r.key, r.size)), 3);

    if let Some((mut server, done, scraper)) = server_and_scraper {
        done.store(true, Ordering::Release);
        let scrapes = scraper.join().expect("scraper thread");
        assert!(scrapes >= 2, "expected repeated scrapes, got {scrapes}");
        server.shutdown();
    }
    bank.mrc()
}

#[test]
fn concurrent_scraping_is_valid_and_preserves_bit_identity() {
    let quiet = pipeline_run(false);
    let scraped = pipeline_run(true);
    assert_eq!(
        quiet.points().len(),
        scraped.points().len(),
        "scraping changed the MRC point count"
    );
    for (i, (a, b)) in quiet.points().iter().zip(scraped.points()).enumerate() {
        assert_eq!(a.0.to_bits(), b.0.to_bits(), "x diverged at point {i}");
        assert_eq!(a.1.to_bits(), b.1.to_bits(), "y diverged at point {i}");
    }
}

#[test]
fn openmetrics_validator_rejects_malformed_documents() {
    let cases: &[(&str, &str)] = &[
        ("# TYPE a counter\na_total 1\n", "missing # EOF"),
        ("orphan 1\n# EOF\n", "sample without TYPE"),
        ("# TYPE a counter\na_total -1\n# EOF\n", "negative counter"),
        ("# TYPE a counter\na_total nope\n# EOF\n", "non-numeric value"),
        (
            "# TYPE a gauge\na{le=unquoted} 1\n# EOF\n",
            "unquoted label value",
        ),
        (
            "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_count 3\nh_sum 9\n# EOF\n",
            "non-cumulative buckets",
        ),
        (
            "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_count 4\nh_sum 9\n# EOF\n",
            "+Inf bucket != _count",
        ),
        ("# TYPE a counter\n# EOF\nafter 1\n", "content after EOF"),
    ];
    for (doc, why) in cases {
        assert!(
            openmetrics::validate(doc).is_err(),
            "validator accepted a bad document ({why}): {doc:?}"
        );
    }
    // HELP/UNIT repeated, after the family's samples or unescaped, and a
    // UNIT that is not a `_<unit>` suffix of its family name.
    for doc in [
        "# TYPE a gauge\n# HELP a x\n# HELP a y\na 1\n# EOF\n",
        "# TYPE a gauge\na 1\n# HELP a x\n# EOF\n",
        "# TYPE a gauge\n# HELP a say \"hi\"\na 1\n# EOF\n",
        "# TYPE a_s gauge\n# UNIT a_s s\n# UNIT a_s s\na_s 1\n# EOF\n",
        "# TYPE a_s gauge\na_s 1\n# UNIT a_s s\n# EOF\n",
        "# TYPE as gauge\n# UNIT as s\nas 1\n# EOF\n",
    ] {
        assert!(openmetrics::validate(doc).is_err(), "accepted {doc:?}");
    }
    // And the shape it must accept: the real renderer output.
    let reg = MetricsRegistry::new();
    reg.accesses.add(3);
    reg.chain_len.record(2);
    reg.chain_len.record(9);
    reg.init_slots(krr::core::metrics::Scope::Shard, 2);
    reg.shard_accesses.record(0, 2);
    let text = krr::core::expo::render_openmetrics(&reg.snapshot());
    let doc = openmetrics::validate(&text).expect("renderer output must validate");
    assert_eq!(doc.value("krr_accesses_total"), Some(3.0));
    assert_eq!(doc.series("krr_shard_accesses_total").len(), 2);
    // Every family carries one HELP; UNIT only where its name ends in it.
    assert_eq!(doc.helps.len(), doc.families.len());
    assert!(doc
        .units
        .iter()
        .any(|(f, u)| f == "krr_merge_ns" && u == "ns"));
}
