//! Online MRC profiling with the observability layer attached (§2.4, §5.5).
//!
//! Streams a *drifting* Zipf workload through KRR + spatial sampling the
//! way a sidecar profiler would, with two observability tools running
//! beside it:
//!
//! * a [`StatsTimeline`] emitting one `krr-stats-v1` JSON-Lines row per
//!   window (windowed deltas of the shared metrics registry — the same
//!   rows `krr model --stats-every N --stats-out f.jsonl` writes), and
//! * an [`AccuracyWatchdog`]: a spatially-sampled shadow Olken profiler
//!   whose KRR-vs-exact-LRU MAE is stable while the workload is
//!   stationary, so a jump past the threshold flags the drift.
//!
//! The workload shifts twice — the hot-key skew flattens, then the key
//! space moves entirely. Watch the MAE *trajectory*: it decays through
//! the stationary warm-up, bumps back over the threshold when the skew
//! flips (drift events), then falls when the key-space move floods both
//! profilers with cold misses (K-LRU and LRU agree when everything
//! misses — the watchdog gauge makes that regime change visible too).
//!
//! Run with: `cargo run --release -p krr --example online_profiler`

use krr::baselines::{AccuracyWatchdog, WatchdogConfig};
use krr::core::rng::Xoshiro256;
use krr::core::{MetricsRegistry, StatsTimeline};
use krr::prelude::*;
use std::sync::Arc;

/// Three workload phases: same generator, drifting parameters.
fn phases() -> Vec<(&'static str, krr::trace::Zipf, u64)> {
    vec![
        // Hot skewed working set.
        (
            "zipf(0.9) keys 0..100k",
            krr::trace::Zipf::new(100_000, 0.9),
            0,
        ),
        // Drift 1: the skew flattens — more of the tail is hot.
        (
            "zipf(0.5) keys 0..100k",
            krr::trace::Zipf::new(100_000, 0.5),
            0,
        ),
        // Drift 2: the key space moves wholesale.
        (
            "zipf(0.9) keys 300k..400k",
            krr::trace::Zipf::new(100_000, 0.9),
            300_000,
        ),
    ]
}

fn main() {
    let reg = Arc::new(MetricsRegistry::new());
    let mut model = KrrModel::new(
        KrrConfig::new(24.0)
            .updater(UpdaterKind::Backward)
            .sampling(0.1)
            .seed(3),
    );
    model.set_metrics(Arc::clone(&reg));

    // Shadow profiler over ~5% of references; compare every 200k. The
    // threshold sits just above this workload's stationary K-LRU-vs-LRU
    // plateau (~0.119), so only warm-up and genuine shifts cross it.
    let mut dog = AccuracyWatchdog::new(WatchdogConfig {
        rate: 0.05,
        check_every: 200_000,
        mae_threshold: 0.12,
        ..WatchdogConfig::default()
    });
    dog.set_metrics(Arc::clone(&reg));

    // One stats row per 500k references, straight to stdout so the
    // krr-stats-v1 shape is visible between the narrative lines.
    let mut timeline = StatsTimeline::new(Arc::clone(&reg), std::io::stdout(), 500_000);

    let per_phase = 1_000_000u64;
    let mut rng = Xoshiro256::seed_from_u64(11);
    let mut refs = 0u64;
    let mut drift_events = 0u64;
    for (name, zipf, offset) in phases() {
        println!("--- phase: {name} ---");
        for _ in 0..per_phase {
            let key = zipf.sample(&mut rng) + offset;
            model.access_key(key);
            dog.observe(key);
            refs += 1;
            timeline.offer(refs).expect("stdout");
            if dog.check_due() {
                let report = dog.check(&model.mrc());
                if report.drifted {
                    drift_events += 1;
                }
                println!(
                    "watchdog @{refs}: MAE vs shadow LRU = {:.4} ({} shadow refs){}",
                    report.mae,
                    report.shadow_refs,
                    if report.drifted { "  <-- DRIFT" } else { "" }
                );
            }
        }
    }
    timeline.finish(refs).expect("stdout");

    let snap = reg.snapshot();
    println!(
        "\n{} refs, {} watchdog checks over {} shadow refs, {} drift events (live gauge {} ppm)",
        refs,
        snap.watchdog_checks,
        snap.watchdog_shadow_refs,
        snap.watchdog_drift_events,
        snap.watchdog_mae_ppm,
    );
    assert_eq!(drift_events, snap.watchdog_drift_events);
    println!(
        "the same stats timeline runs inside `krr model --stats-every N`; the watchdog \
         is a library piece that a caller feeds beside its model, as above"
    );
}
