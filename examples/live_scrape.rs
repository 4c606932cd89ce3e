//! Live scraping + space accounting, end to end.
//!
//! Profiles a drifting-Zipf workload (the hot set shifts every phase, so
//! the MRC keeps moving) with the exposition server attached, scrapes its
//! *own* `/metrics`, `/mrc`, and `/healthz` endpoints between phases the
//! way a Prometheus agent would, and finishes with the paper's §5.7 space
//! comparison: KRR's deep footprint next to the reference profilers run
//! over the same trace.
//!
//! Run with: `cargo run --release -p krr --example live_scrape`

use krr::baselines::{OlkenLru, Shards};
use krr::core::expo::{http_get, ExpoServer, ExpoSources, MrcCell};
use krr::core::rng::Xoshiro256;
use krr::core::sharded::ShardedKrr;
use krr::core::{Footprint, KrrConfig, MetricsRegistry};
use krr::trace::Zipf;
use std::sync::Arc;

/// Pulls the value of an unlabeled gauge out of an OpenMetrics body.
fn gauge_value(body: &str, name: &str) -> Option<u64> {
    body.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .and_then(|v| v.parse().ok())
}

fn main() {
    const PHASES: usize = 8;
    const PER_PHASE: usize = 50_000;
    const KEYSPACE: u64 = 30_000;
    const DRIFT: u64 = 4_000;

    // Drifting Zipf: within a phase keys are Zipf(0.9)-popular; each phase
    // shifts the whole hot set by DRIFT keys, forcing real eviction churn.
    let zipf = Zipf::new(KEYSPACE, 0.9);
    let mut rng = Xoshiro256::seed_from_u64(42);
    let trace: Vec<u64> = (0..PHASES * PER_PHASE)
        .map(|i| {
            let phase = (i / PER_PHASE) as u64;
            zipf.sample(&mut rng) + phase * DRIFT
        })
        .collect();

    let registry = Arc::new(MetricsRegistry::new());
    let mrc_cell = Arc::new(MrcCell::new());
    let mut bank = ShardedKrr::new(&KrrConfig::new(5.0).seed(9), 4);
    bank.set_metrics(Arc::clone(&registry));

    let sources = ExpoSources {
        metrics: Some(Arc::clone(&registry)),
        mrc: Some(Arc::clone(&mrc_cell)),
        ..ExpoSources::default()
    };
    let server = ExpoServer::start("127.0.0.1:0", sources).expect("bind exposition server");
    let addr = server.addr();
    println!("serving live metrics on http://{addr}/metrics\n");

    println!("phase  accesses  resident  footprint_total  mrc_points  health");
    for (phase, chunk) in trace.chunks(PER_PHASE).enumerate() {
        bank.process_stream(chunk.iter().map(|&k| (k, 1)), 2);
        bank.publish_footprint();
        mrc_cell.publish(bank.mrc());

        // Scrape our own endpoints, exactly as an external agent would.
        let (status, ctype, metrics) = http_get(addr, "/metrics").expect("scrape /metrics");
        assert_eq!(status, 200);
        assert!(ctype.starts_with("application/openmetrics-text"));
        assert!(metrics.ends_with("# EOF\n"), "scrape must be terminated");
        let accesses = gauge_value(&metrics, "krr_accesses_total").unwrap_or(0);
        let footprint = gauge_value(&metrics, "krr_footprint_total_bytes").unwrap_or(0);
        assert!(footprint > 0, "footprint gauges must be published");

        let (status, _, mrc_body) = http_get(addr, "/mrc").expect("scrape /mrc");
        assert_eq!(status, 200);
        let points = mrc_body.matches('[').count().saturating_sub(1);

        let (h_status, _, _) = http_get(addr, "/healthz").expect("scrape /healthz");
        println!(
            "{phase:>5}  {accesses:>8}  {resident:>8}  {footprint:>15}  {points:>10}  {health}",
            resident = bank.stats().distinct,
            health = if h_status == 200 { "ok" } else { "degraded" },
        );
    }

    // §5.7 space comparison: reference profilers over the same trace.
    let mut olken = OlkenLru::new();
    let mut shards = Shards::new(0.01);
    for &k in &trace {
        olken.access_key(k);
        shards.access_key(k);
    }

    println!(
        "\nspace (deep heap bytes, same {}-request trace):",
        trace.len()
    );
    let rows: &[(&str, usize)] = &[
        ("krr (4 shards, K'=K^1.4)", bank.deep_bytes()),
        ("olken (unsampled)", olken.deep_bytes()),
        ("shards (rate 0.01)", shards.deep_bytes()),
    ];
    for (name, bytes) in rows {
        println!("  {name:<26} {bytes:>12}");
    }
    assert!(
        bank.deep_bytes() < olken.deep_bytes(),
        "KRR must be smaller than the unsampled Olken tree"
    );
    println!(
        "\nkrr / olken space ratio: {:.4}",
        bank.deep_bytes() as f64 / olken.deep_bytes() as f64
    );
}
