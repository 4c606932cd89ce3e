//! Paired A/B load experiments: observability off vs on.
//!
//! Both sides replay the *same* seeded schedule and request stream over
//! fresh mini-Redis servers, so the only variable is the observability
//! stack: the "on" side enables in-band MRC profiling on the GET path and
//! runs a live `/metrics` scraper against the embedded exposition server
//! for the whole run. The resulting report is the "on" side's, with its
//! [`AbReport`] section carrying both p99s, both p999s and the p99's
//! relative delta — the number the tail-latency gate in
//! `benches/load.rs` checks against its budget.

use crate::report::{AbReport, LoadReport};
use crate::runner::{self, LoadConfig};
use crate::schedule::Schedule;
use krr_core::KrrConfig;
use krr_redis::resp::Value;
use krr_redis::{Client, MiniRedis, Server};
use krr_trace::Request;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Server and experiment knobs shared by both sides of an A/B run.
#[derive(Debug, Clone)]
pub struct AbConfig {
    /// `maxmemory` of each fresh store, in bytes.
    pub maxmemory: u64,
    /// `maxmemory-samples` of each store.
    pub samples: usize,
    /// Store RNG seed (shared so eviction behaves identically).
    pub seed: u64,
    /// KRR model configuration for the profiled side.
    pub krr: KrrConfig,
    /// Shards of the profiled side's KRR bank.
    pub shards: usize,
    /// Gap between `/metrics` scrapes on the profiled side.
    pub scrape_every: Duration,
    /// Warm the store with one `SET` per distinct key before measuring.
    pub prefill: bool,
    /// p99 regression budget recorded in the report, percent.
    pub limit_pct: f64,
}

impl Default for AbConfig {
    fn default() -> Self {
        Self {
            maxmemory: 64 << 20,
            samples: 5,
            seed: 42,
            krr: KrrConfig::new(5.0),
            shards: 2,
            scrape_every: Duration::from_millis(20),
            prefill: true,
            limit_pct: 10.0,
        }
    }
}

/// Runs one side of the experiment against a fresh server and returns its
/// report, plus the profiled side's end-of-run `/metrics?format=json`
/// snapshot (the input `krr doctor` wants).
fn run_side(
    profiled: bool,
    schedule: &Schedule,
    reqs: &[Request],
    load: &LoadConfig,
    ab: &AbConfig,
) -> io::Result<(LoadReport, Option<String>)> {
    let mut store = MiniRedis::new(ab.maxmemory, ab.samples, ab.seed);
    if profiled {
        store.enable_mrc_profiling(&ab.krr, ab.shards.max(1));
        if load.tenants > 0 {
            // Multi-tenant mode: the runner TENANT-selects each
            // connection, so the profiled side also pays per-tenant fleet
            // accounting — the honest worst case again.
            store.enable_fleet_profiling(krr_core::fleet::FleetConfig::new(ab.krr.clone()));
        }
    }
    let mut server = Server::start(store)?;
    let stop = Arc::new(AtomicBool::new(false));
    let mut scraper = None;
    if profiled {
        // Find a free port, hand it to CONFIG SET expo-port, then scrape
        // it continuously so exposition cost lands inside the measured
        // window — the honest worst case for the "on" side.
        let probe = std::net::TcpListener::bind(("127.0.0.1", 0))?;
        let port = probe.local_addr()?.port();
        drop(probe);
        let mut client = Client::connect(server.addr())?;
        let reply = client.raw(&[b"CONFIG", b"SET", b"expo-port", port.to_string().as_bytes()])?;
        if !matches!(&reply, Value::Simple(s) if s == "OK") {
            return Err(io::Error::other(format!("expo-port setup: {reply:?}")));
        }
        let addr = server
            .expo_addr()
            .ok_or_else(|| io::Error::other("expo server did not start"))?;
        let stop = Arc::clone(&stop);
        let every = ab.scrape_every;
        scraper = Some(std::thread::spawn(move || {
            let mut scrapes = 0u64;
            while !stop.load(Ordering::Relaxed) {
                if krr_core::expo::http_get(addr, "/metrics").is_ok() {
                    scrapes += 1;
                }
                std::thread::sleep(every);
            }
            scrapes
        }));
    }
    if ab.prefill {
        runner::prefill(server.addr(), reqs)?;
    }
    let result = runner::run(server.addr(), schedule, reqs, load);
    stop.store(true, Ordering::Relaxed);
    if let Some(t) = scraper {
        let _ = t.join();
    }
    // Grab the final counter snapshot before the server goes away so the
    // caller can run post-mortem diagnosis on the exact run it measured.
    let metrics_json = match (result.is_ok(), server.expo_addr()) {
        (true, Some(addr)) => krr_core::expo::http_get(addr, "/metrics?format=json")
            .ok()
            .filter(|(status, _, _)| *status == 200)
            .map(|(_, _, body)| body),
        _ => None,
    };
    server.shutdown();
    result.map(|r| (r, metrics_json))
}

/// Replays `schedule` once against a fresh server: one side of an A/B
/// experiment, profiling + scraping on when `profiled` is set. Several
/// passes with alternating order give a paired comparison less exposed to
/// one noisy stretch of a shared host than [`run_ab_forensics`]'s single
/// pair.
pub fn run_pass(
    profiled: bool,
    schedule: &Schedule,
    reqs: &[Request],
    load: &LoadConfig,
    ab: &AbConfig,
) -> io::Result<LoadReport> {
    run_side(profiled, schedule, reqs, load, ab).map(|(report, _)| report)
}

/// Replays `schedule` twice — profiling + scraping off, then on — and
/// returns the profiled side's report with the A/B comparison filled in,
/// plus that side's end-of-run `krr-metrics-v1` JSON snapshot so
/// `krr doctor` can diagnose the run without a second experiment.
pub fn run_ab_forensics(
    schedule: &Schedule,
    reqs: &[Request],
    load: &LoadConfig,
    ab: &AbConfig,
) -> io::Result<(LoadReport, Option<String>)> {
    let (off, _) = run_side(false, schedule, reqs, load, ab)?;
    let (mut on, metrics_json) = run_side(true, schedule, reqs, load, ab)?;
    on.ab = AbReport::compare(off.latency_ns.p99_ns, on.latency_ns.p99_ns, ab.limit_pct)
        .with_p999(off.latency_ns.p999_ns, on.latency_ns.p999_ns);
    Ok((on, metrics_json))
}
