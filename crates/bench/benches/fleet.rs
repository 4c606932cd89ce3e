//! Fleet gate: 1000+ tenants hosted in one process, per-tenant `/mrc`
//! and labeled aggregate `/metrics` served live, with three budgets held:
//! scraping the labeled aggregate at ~25 Hz during a fleet run must cost
//! < 5% (the same budget the single-model space gate enforces); each
//! tenant's deep-accounted resident bytes must match the heap its model
//! really allocates, counted by this bench's global allocator, within
//! [`FOOTPRINT_LIMIT_X`]; and the mean resident bytes per tenant must not
//! exceed [`RESIDENT_MEAN_LIMIT`]. Writes `BENCH_fleet.json` at the repo
//! root for CI perf tracking (`KRR_CI_BENCH=1` in scripts/ci.sh).

use krr_core::expo::{http_get, ExpoServer, ExpoSources};
use krr_core::fleet::{FleetArena, FleetCell, FleetConfig};
use krr_core::footprint::Footprint;
use krr_core::rng::Xoshiro256;
use krr_core::{KrrConfig, KrrModel, MetricsRegistry};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

const TENANTS: u64 = 1_200;
const KEYS: u64 = 600_000;
const REQUESTS: usize = 1_000_000;
const OVERHEAD_LIMIT_PCT: f64 = 5.0;
/// Worst per-tenant disagreement, either way, between deep-accounted and
/// allocator-counted bytes.
const FOOTPRINT_LIMIT_X: f64 = 1.1;
/// Mean resident bytes per tenant measured before the struct-of-arrays
/// stack (12,216 B with padded 16-byte entries and a `HashMap` index); a
/// layout or growth change that costs more per tenant fails here.
const RESIDENT_MEAN_LIMIT: u64 = 12_216;

/// Counts live heap bytes while [`COUNTING`] is set, so the timed runs
/// below pay for no shared counter. A local twin of
/// `krr_core::heap::CountingAlloc`: turning on `alloc-stats` from this
/// crate would turn it on for every crate built alongside.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates every operation to `System`; the bookkeeping touches
// only atomics and never the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && COUNTING.load(Ordering::Relaxed) {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Ordering::Relaxed) {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && COUNTING.load(Ordering::Relaxed) {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            LIVE.fetch_add(new_size, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Rebuilds every hosted tenant's model on its own, from the tenant's
/// seed and references, and returns the worst ratio (either way) between
/// the arena model's deep-accounted bytes and the live-heap growth the
/// rebuild caused.
fn worst_footprint_ratio(arena: &FleetArena, refs: &[(u64, u64, u32)]) -> f64 {
    let mut by_tenant: BTreeMap<u64, Vec<(u64, u32)>> = BTreeMap::new();
    for &(tenant, key, size) in refs {
        by_tenant.entry(tenant).or_default().push((key, size));
    }
    let config = arena.config();
    let mut worst = 0f64;
    for (&tenant, tenant_refs) in &by_tenant {
        let mut cfg = config.template.clone();
        cfg.seed = config.tenant_seed(tenant);
        // Per-K tables are cached process-wide on first use.
        drop(KrrModel::new(cfg.clone()));
        COUNTING.store(true, Ordering::SeqCst);
        let before = LIVE.load(Ordering::SeqCst);
        let mut model = KrrModel::new(cfg);
        for &(key, size) in tenant_refs {
            model.access(key, size);
        }
        let measured = LIVE.load(Ordering::SeqCst).wrapping_sub(before) as f64;
        COUNTING.store(false, Ordering::SeqCst);
        let modeled = arena
            .tenant_model(tenant)
            .expect("hosted tenant")
            .deep_bytes() as f64;
        assert_eq!(
            model.deep_bytes() as f64,
            modeled,
            "tenant {tenant}: the rebuild must match the arena's model"
        );
        worst = worst.max((measured / modeled).max(modeled / measured));
    }
    worst
}

/// One fleet pass over the shared trace: fresh arena (deterministic
/// per-tenant seeds), parallel route-once processing, rows published so
/// the concurrent scraper renders live labeled series.
fn run_fleet(refs: &[(u64, u64, u32)], reg: &Arc<MetricsRegistry>) -> FleetArena {
    let mut arena = FleetArena::new(FleetConfig::new(KrrConfig::new(5.0).seed(4)));
    arena.set_metrics(Arc::clone(reg));
    arena.process_parallel(refs, 2);
    arena.publish_metrics();
    arena
}

fn main() {
    let zipf = krr_trace::Zipf::new(KEYS, 0.9);
    let mut rng = Xoshiro256::seed_from_u64(11);
    let refs: Vec<(u64, u64, u32)> = (0..REQUESTS)
        .map(|_| {
            let k = zipf.sample(&mut rng);
            (k % TENANTS, k, 1)
        })
        .collect();

    let reg = Arc::new(MetricsRegistry::new());
    let cell = Arc::new(FleetCell::new());
    let server = ExpoServer::start(
        "127.0.0.1:0",
        ExpoSources {
            metrics: Some(Arc::clone(&reg)),
            tenants: Some(Arc::clone(&cell)),
            ..ExpoSources::default()
        },
    )
    .expect("bind exposition server");
    let addr = server.addr();

    // Warm-up pass (not timed) — kept alive as the footprint specimen and
    // the served fleet view.
    let arena = run_fleet(&refs, &reg);
    cell.publish(arena.view());
    let hosted = arena.len() as u64;

    // The full serving surface, live: labeled aggregate scrape plus one
    // tenant curve, before any timing starts.
    let (status, _, metrics) = http_get(addr, "/metrics").expect("scrape /metrics");
    assert_eq!(status, 200);
    let labeled_series = metrics.matches("krr_tenant_refs_total{tenant=\"").count() as u64;
    let (status, _, _) = http_get(addr, "/tenants").expect("scrape /tenants");
    assert_eq!(status, 200);
    let (status, _, _) = http_get(addr, "/mrc?tenant=0&format=csv").expect("tenant curve");
    assert_eq!(status, 200);

    // ---- space: deep-accounted resident bytes vs the allocator --------
    let rows = arena.summary();
    let total_bytes: u64 = rows.iter().map(|r| r.resident_bytes).sum();
    let mean_bytes = total_bytes / hosted.max(1);
    let worst_ratio = worst_footprint_ratio(&arena, &refs);

    println!("\n== fleet ({TENANTS} tenants, {REQUESTS} requests, Zipf 0.9) ==");
    println!("  hosted tenants            {hosted}");
    println!("  labeled /metrics series   {labeled_series}");
    println!("  resident bytes (total)    {total_bytes}");
    println!("  resident bytes (mean)     {mean_bytes} (limit {RESIDENT_MEAN_LIMIT})");
    println!("  worst allocator/deep      {worst_ratio:.3}x (limit {FOOTPRINT_LIMIT_X}x)");

    // ---- time: aggregate /metrics scraping during fleet runs ------------
    //
    // Same interleaved A/B discipline as the space gate: quiet and scraped
    // iterations alternate so run-to-run machine drift cancels; medians
    // over each alternating set isolate the labeled-render scrape tax.
    let stop = Arc::new(AtomicBool::new(false));
    let active = Arc::new(AtomicBool::new(false));
    let (scraper_stop, scraper_active) = (Arc::clone(&stop), Arc::clone(&active));
    let scraper = std::thread::spawn(move || {
        let mut scrapes = 0u64;
        while !scraper_stop.load(Ordering::Acquire) {
            if scraper_active.load(Ordering::Acquire) {
                let (status, _, body) = http_get(addr, "/metrics").expect("scrape");
                assert_eq!(status, 200);
                assert!(body.ends_with("# EOF\n"));
                scrapes += 1;
            }
            // ~25 Hz. The labeled document is ~6 series per tenant —
            // three orders of magnitude more bytes per scrape than the
            // single-model gate's — so this moves comparable render
            // bytes/sec to that gate's 100 Hz while still scraping ~375x
            // faster than Prometheus' default 1/15 Hz cadence.
            std::thread::sleep(std::time::Duration::from_millis(40));
        }
        scrapes
    });

    let rounds = if std::env::var("KRR_BENCH_FAST").is_ok() {
        3
    } else {
        7
    };
    let mut quiet_ns = Vec::new();
    let mut scraped_ns = Vec::new();
    for _ in 0..rounds {
        for scraping in [false, true] {
            active.store(scraping, Ordering::Release);
            let t0 = std::time::Instant::now();
            run_fleet(&refs, &reg);
            let ns = t0.elapsed().as_nanos() as f64;
            if scraping {
                &mut scraped_ns
            } else {
                &mut quiet_ns
            }
            .push(ns);
        }
    }
    active.store(false, Ordering::Release);
    stop.store(true, Ordering::Release);
    let scrapes = scraper.join().expect("scraper thread");
    drop(server);

    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let (quiet, scraped) = (median(&mut quiet_ns), median(&mut scraped_ns));
    let overhead = (scraped / quiet - 1.0) * 100.0;
    println!(
        "\n== fleet: scrape overhead ==\n\
         fleet/scrape=off    {quiet:>14.0} ns/iter (median of {rounds})\n\
         fleet/scrape=25Hz   {scraped:>14.0} ns/iter (median of {rounds})\n\
         scrape overhead: {overhead:+.2}% over {scrapes} scrapes (limit {OVERHEAD_LIMIT_PCT}%)"
    );

    let mut json = String::from("{\"schema\":\"krr-bench-fleet-v1\",");
    let _ = write!(
        json,
        "\"tenants\":{hosted},\"requests\":{REQUESTS},\"keys\":{KEYS},\
         \"labeled_series\":{labeled_series},\
         \"resident_bytes_total\":{total_bytes},\"resident_bytes_mean\":{mean_bytes},\
         \"resident_bytes_mean_limit\":{RESIDENT_MEAN_LIMIT},\
         \"footprint_worst_ratio\":{worst_ratio:.4},\"footprint_limit_x\":{FOOTPRINT_LIMIT_X},\
         \"scrape_off_ns\":{quiet:.1},\"scrape_on_ns\":{scraped:.1},\
         \"scrape_overhead_pct\":{overhead:.3},\"overhead_limit_pct\":{OVERHEAD_LIMIT_PCT}}}"
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json");
    std::fs::write(out, &json).expect("write BENCH_fleet.json");
    println!("wrote {out}\n");

    assert!(
        hosted >= 1_000,
        "fleet gate needs 1000+ tenants in one process, hosted {hosted}"
    );
    assert_eq!(
        labeled_series, hosted,
        "every hosted tenant must render a labeled /metrics series"
    );
    assert!(
        worst_ratio <= FOOTPRINT_LIMIT_X,
        "per-tenant resident bytes drifted {worst_ratio:.2}x from the \
         allocator's count (limit {FOOTPRINT_LIMIT_X}x)"
    );
    assert!(
        mean_bytes <= RESIDENT_MEAN_LIMIT,
        "mean resident bytes per tenant {mean_bytes} exceed {RESIDENT_MEAN_LIMIT}"
    );
    assert!(
        overhead < OVERHEAD_LIMIT_PCT,
        "scrape overhead {overhead:.2}% exceeds the {OVERHEAD_LIMIT_PCT}% budget"
    );
}
