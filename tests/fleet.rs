//! Integration: the multi-tenant fleet arena — per-tenant bit-identity
//! across thread counts, tenant-labeled OpenMetrics series, and the
//! `krr partition --live` scrape path producing the exact allocation the
//! offline trace path produces.

mod support;

use std::process::Command;
use std::sync::Arc;

use krr::core::expo::{render_openmetrics, ExpoServer, ExpoSources};
use krr::core::fleet::{FleetArena, FleetCell, FleetConfig};
use krr::core::{KrrConfig, MetricsRegistry};
use krr::trace::{io as trace_io, Request};
use support::openmetrics;

/// A skewed multi-tenant reference stream: (tenant, key, size), tenant
/// assigned by key residue so hot keys concentrate on a few tenants.
fn fleet_refs(keys: u64, tenants: u64, n: usize, seed: u64) -> Vec<(u64, u64, u32)> {
    use krr::core::rng::Xoshiro256;
    let mut rng = Xoshiro256::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let u = rng.unit();
            let key = (u * u * keys as f64) as u64;
            (key % tenants, key, 1 + (u * 100.0) as u32)
        })
        .collect()
}

/// Per-tenant MRCs (sorted by tenant id) after one parallel run.
fn mrcs_at(refs: &[(u64, u64, u32)], threads: usize) -> Vec<(u64, krr::core::Mrc)> {
    let mut arena = FleetArena::new(FleetConfig::new(KrrConfig::new(16.0).seed(5)));
    arena.process_parallel(refs, threads);
    let mut ids = arena.tenant_ids();
    ids.sort_unstable();
    ids.iter()
        .map(|&id| (id, arena.tenant_mrc(id).expect("registered tenant")))
        .collect()
}

#[test]
fn per_tenant_mrcs_are_bit_identical_across_thread_counts() {
    let refs = fleet_refs(6_000, 12, 150_000, 21);

    // Sequential arrival-order baseline through the single-access entry
    // point: what every thread count must reproduce exactly.
    let mut seq = FleetArena::new(FleetConfig::new(KrrConfig::new(16.0).seed(5)));
    for &(t, k, s) in &refs {
        seq.access(t, k, s);
    }

    let base = mrcs_at(&refs, 1);
    assert_eq!(base.len(), 12, "every tenant id residue must register");
    for (id, mrc) in &base {
        let s = seq.tenant_mrc(*id).unwrap();
        assert_eq!(
            mrc.points(),
            s.points(),
            "tenant {id}: pipeline vs sequential"
        );
    }

    for threads in [2, 4, 8] {
        let got = mrcs_at(&refs, threads);
        assert_eq!(base.len(), got.len(), "{threads} threads lost a tenant");
        for ((id_a, a), (id_b, b)) in base.iter().zip(&got) {
            assert_eq!(id_a, id_b);
            assert_eq!(
                a.points().len(),
                b.points().len(),
                "tenant {id_a} point count at {threads} threads"
            );
            for (i, (pa, pb)) in a.points().iter().zip(b.points()).enumerate() {
                assert_eq!(
                    pa.0.to_bits(),
                    pb.0.to_bits(),
                    "tenant {id_a} x diverged at point {i} with {threads} threads"
                );
                assert_eq!(
                    pa.1.to_bits(),
                    pb.1.to_bits(),
                    "tenant {id_a} y diverged at point {i} with {threads} threads"
                );
            }
        }
    }
}

#[test]
fn sampled_fleet_parallel_matches_sequential_state_and_counters() {
    // Under spatial sampling the router admits with each tenant's own
    // filter and credits the rejected references to that tenant; models
    // and counters must match the sequential loop exactly.
    let refs = fleet_refs(40_000, 12, 120_000, 23);
    let template = KrrConfig::new(5.0).seed(6).sampling(0.05);
    let seq_reg = Arc::new(MetricsRegistry::new());
    let mut seq = FleetArena::new(FleetConfig::new(template.clone()));
    seq.set_metrics(Arc::clone(&seq_reg));
    for &(t, k, s) in &refs {
        seq.access(t, k, s);
    }
    let seq_snap = seq_reg.snapshot();
    assert!(seq_snap.spatial_rejected > 0);
    for threads in [1, 2, 8] {
        let reg = Arc::new(MetricsRegistry::new());
        let mut par = FleetArena::new(FleetConfig::new(template.clone()));
        par.set_metrics(Arc::clone(&reg));
        par.process_parallel(&refs, threads);
        assert_eq!(par.stats(), seq.stats(), "{threads} threads");
        for id in seq.tenant_ids() {
            let (a, b) = (par.tenant_model(id).unwrap(), seq.tenant_model(id).unwrap());
            assert_eq!(a.stats(), b.stats(), "tenant {id}, {threads} threads");
            assert_eq!(
                a.mrc().points(),
                b.mrc().points(),
                "tenant {id}, {threads} threads"
            );
        }
        let snap = reg.snapshot();
        assert_eq!(
            (
                snap.accesses,
                snap.spatial_rejected,
                snap.hits,
                snap.cold_misses
            ),
            (
                seq_snap.accesses,
                seq_snap.spatial_rejected,
                seq_snap.hits,
                seq_snap.cold_misses
            ),
            "{threads} threads"
        );
    }
}

#[test]
fn tenant_labeled_series_render_as_valid_openmetrics() {
    let refs = fleet_refs(2_000, 5, 40_000, 3);
    let reg = Arc::new(MetricsRegistry::new());
    let mut arena = FleetArena::new(FleetConfig::new(KrrConfig::new(8.0).seed(2)));
    arena.set_metrics(Arc::clone(&reg));
    arena.process_parallel(&refs, 4);
    arena.publish_metrics();

    let text = render_openmetrics(&reg.snapshot());
    let doc = openmetrics::validate(&text).expect("labeled fleet render must validate");
    assert_eq!(doc.value("krr_tenant_count"), Some(5.0));
    assert_eq!(
        doc.series("krr_tenant_refs_total").len(),
        5,
        "one labeled refs series per tenant"
    );
    assert_eq!(doc.series("krr_tenant_resident_bytes").len(), 5);
    assert!(
        text.contains("krr_tenant_refs_total{tenant=\"0\"}"),
        "{text}"
    );
    // Fleet refs across labels must account for the whole stream.
    let total: f64 = doc
        .series("krr_tenant_refs_total")
        .iter()
        .map(|s| s.value)
        .sum();
    assert_eq!(total, refs.len() as f64);
    // Rolled-up tenant footprint gauges ride along.
    assert!(doc.value("krr_footprint_tenant_total_bytes").unwrap() > 0.0);
    assert!(doc.value("krr_footprint_tenant_max_bytes").unwrap() > 0.0);
}

/// Strips the tenant-name column: rows become `(greedy, optimal)` pairs,
/// so offline (named by file path) and live (named by tenant id) output
/// can be compared allocation-for-allocation.
fn allocations(stdout: &str) -> (Vec<(String, String)>, String) {
    let mut rows = Vec::new();
    let mut total = String::new();
    for line in stdout.lines() {
        if line.starts_with("total weighted miss:") {
            total = line.to_string();
        } else if !line.trim_start().starts_with("tenant") {
            let cols: Vec<&str> = line.split_whitespace().collect();
            let [.., greedy, optimal] = cols[..] else {
                panic!("unexpected partition row: {line:?}");
            };
            rows.push((greedy.to_string(), optimal.to_string()));
        }
    }
    assert!(!rows.is_empty(), "no allocation rows in: {stdout}");
    assert!(!total.is_empty(), "no total line in: {stdout}");
    (rows, total)
}

#[test]
fn live_partition_matches_offline_trace_path_bit_for_bit() {
    const TENANTS: u64 = 8;
    let bin = env!("CARGO_BIN_EXE_krr");
    let dir = std::env::temp_dir().join(format!("krr-fleet-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // One trace, written to CSV for the CLI and kept in memory for the
    // live arena — both sides see identical (tenant, key, size) streams.
    let refs = fleet_refs(4_000, TENANTS, 120_000, 7);
    let trace: Vec<Request> = refs.iter().map(|&(_, k, s)| Request::get(k, s)).collect();
    let trace_path = dir.join("trace.csv");
    trace_io::write_csv(std::fs::File::create(&trace_path).unwrap(), &trace).unwrap();

    // Offline path: `krr model --tenants --mrc-out`, then `krr partition`
    // over the written per-tenant curves.
    let mrc_dir = dir.join("mrcs");
    let out = Command::new(bin)
        .args([
            "model",
            trace_path.to_str().unwrap(),
            "--tenants",
            "8",
            "--k",
            "16",
            "--seed",
            "5",
            "--mrc-out",
            mrc_dir.to_str().unwrap(),
        ])
        .output()
        .expect("krr model --tenants");
    assert!(
        out.status.success(),
        "model failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut args = vec![
        "partition".to_string(),
        "--budget".to_string(),
        "20000".to_string(),
        "--quantum".to_string(),
        "100".to_string(),
    ];
    args.extend((0..TENANTS).map(|id| {
        let p = mrc_dir.join(format!("tenant-{id}.csv"));
        assert!(p.exists(), "model --mrc-out missed {}", p.display());
        p.to_str().unwrap().to_string()
    }));
    let offline = Command::new(bin)
        .args(&args)
        .output()
        .expect("offline partition");
    assert!(
        offline.status.success(),
        "offline partition failed: {}",
        String::from_utf8_lossy(&offline.stderr)
    );

    // Live path: the same fleet served over HTTP, scraped by
    // `krr partition --live`. The thread count differs from whatever the
    // CLI used — bit-identity across threads is what makes this fair.
    let mut arena = FleetArena::new(FleetConfig::new(KrrConfig::new(16.0).seed(5)).budget(4096.0));
    arena.process_parallel(&refs, 3);
    let cell = Arc::new(FleetCell::new());
    cell.publish(arena.view());
    let server = ExpoServer::start(
        "127.0.0.1:0",
        ExpoSources {
            tenants: Some(Arc::clone(&cell)),
            ..ExpoSources::default()
        },
    )
    .unwrap();
    let live = Command::new(bin)
        .args([
            "partition",
            "--budget",
            "20000",
            "--quantum",
            "100",
            "--live",
            &server.addr().to_string(),
        ])
        .output()
        .expect("live partition");
    assert!(
        live.status.success(),
        "live partition failed: {}",
        String::from_utf8_lossy(&live.stderr)
    );

    let (offline_rows, offline_total) = allocations(&String::from_utf8_lossy(&offline.stdout));
    let (live_rows, live_total) = allocations(&String::from_utf8_lossy(&live.stdout));
    assert_eq!(offline_rows.len(), TENANTS as usize);
    assert_eq!(
        offline_rows, live_rows,
        "live allocation diverged from the offline trace path"
    );
    assert_eq!(offline_total, live_total, "total weighted miss diverged");

    let _ = std::fs::remove_dir_all(&dir);
}
