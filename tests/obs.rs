//! Integration: the observability layer end-to-end — flight-recorder
//! Chrome traces (via the library and the `krr` binary), the windowed
//! stats timeline. The load-bearing invariant
//! throughout: observability must never perturb the model, so MRCs are
//! bit-identical with tracing on or off at every thread count.

mod support;

use krr::core::sharded::ShardedKrr;
use krr::core::{FlightRecorder, KrrConfig, KrrModel, MetricsRegistry, StatsTimeline};
use krr::prelude::*;
use krr::trace::ycsb;
use std::process::Command;
use std::sync::Arc;
use support::json::{parse, Json};

fn workload(refs: usize, seed: u64) -> Trace {
    ycsb::WorkloadC::new(2_000, 0.9).generate(refs, seed)
}

/// Every trace event must carry the Chrome trace-event required fields:
/// metadata rows (`ph:"M"`) name threads, complete spans (`ph:"X"`) have
/// numeric `ts`/`dur`/`tid`.
fn assert_valid_chrome_trace(json: &str) -> usize {
    let doc = parse(json).expect("trace output must be valid JSON");
    assert_eq!(
        doc.get("otherData")
            .and_then(|d| d.get("schema"))
            .and_then(Json::as_str),
        Some("krr-trace-v1"),
        "schema marker missing"
    );
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "trace has no events");
    let mut spans = 0;
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("ph field");
        let tid = ev.get("tid").and_then(Json::as_num).expect("tid field");
        assert!(tid >= 0.0);
        assert_eq!(ev.get("pid").and_then(Json::as_num), Some(1.0));
        match ph {
            "M" => {
                assert_eq!(ev.get("name").and_then(Json::as_str), Some("thread_name"));
                assert!(
                    ev.get("args").and_then(|a| a.get("name")).is_some(),
                    "metadata event without a thread name"
                );
            }
            "X" => {
                spans += 1;
                let ts = ev.get("ts").and_then(Json::as_num).expect("ts field");
                let dur = ev.get("dur").and_then(Json::as_num).expect("dur field");
                assert!(ts >= 0.0, "negative ts {ts}");
                assert!(dur >= 0.0, "negative dur {dur}");
                assert!(ev.get("name").and_then(Json::as_str).is_some());
            }
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    assert!(spans > 0, "no complete (ph:X) spans recorded");
    spans
}

#[test]
fn sharded_run_emits_valid_chrome_trace() {
    let trace = workload(30_000, 1);
    let recorder = Arc::new(FlightRecorder::new());
    let mut bank = ShardedKrr::new(&KrrConfig::new(5.0).seed(1), 4);
    bank.set_recorder(Arc::clone(&recorder));
    bank.process_stream(trace.iter().map(|r| (r.key, r.size)), 2);
    let _ = bank.mrc(); // records the merge span
    let json = recorder.chrome_trace_json();
    assert_valid_chrome_trace(&json);
    // Thread names from every layer: shard rings, the pipeline's router
    // and workers, and the merge ring.
    for label in ["shard-0", "shard-3", "router", "worker-0", "merge"] {
        assert!(json.contains(label), "{label} ring missing from trace");
    }
}

#[test]
fn mrc_bit_identical_with_tracing_on_and_off_at_every_thread_count() {
    let trace = workload(40_000, 2);
    let refs: Vec<(u64, u32)> = trace.iter().map(|r| (r.key, r.size)).collect();
    for threads in [1usize, 2, 4, 8] {
        let mut plain = ShardedKrr::new(&KrrConfig::new(5.0).seed(7), 4);
        plain.process_stream(refs.iter().copied(), threads);

        let mut traced = ShardedKrr::new(&KrrConfig::new(5.0).seed(7), 4);
        traced.set_recorder(Arc::new(FlightRecorder::new()));
        traced.process_stream(refs.iter().copied(), threads);

        assert_eq!(
            plain.mrc().points(),
            traced.mrc().points(),
            "MRC diverged with tracing on at {threads} threads"
        );
    }
}

#[test]
fn single_model_mrc_unchanged_by_recorder() {
    let trace = workload(30_000, 3);
    let mut plain = KrrModel::new(KrrConfig::new(5.0).seed(9));
    let mut traced = KrrModel::new(KrrConfig::new(5.0).seed(9));
    let recorder = FlightRecorder::new();
    traced.set_recorder(recorder.register("model"));
    for r in &trace {
        plain.access(r.key, r.size);
        traced.access(r.key, r.size);
    }
    assert_eq!(plain.mrc().points(), traced.mrc().points());
    let (events, _) = recorder.collect_events();
    assert!(!events.is_empty(), "recorder saw no stack-update spans");
}

#[test]
fn ring_overflow_counts_dropped_events() {
    let recorder = FlightRecorder::with_capacity(16);
    let rec = recorder.register("writer");
    for i in 0..100u64 {
        rec.mark(krr::core::Phase::Command, i);
    }
    let (events, dropped) = recorder.collect_events();
    assert_eq!(events.len(), 16, "ring should retain exactly its capacity");
    assert_eq!(dropped, 84);
    // Overwrite-oldest: the survivors are the newest 16 marks.
    let args: Vec<u64> = events.iter().map(|e| e.arg).collect();
    assert_eq!(args, (84..100).collect::<Vec<u64>>());
}

#[test]
fn stats_timeline_rows_are_windowed_and_parse() {
    let reg = Arc::new(MetricsRegistry::new());
    let mut model = KrrModel::new(KrrConfig::new(5.0).seed(4));
    model.set_metrics(Arc::clone(&reg));
    let mut timeline = StatsTimeline::new(Arc::clone(&reg), Vec::new(), 10_000);
    let trace = workload(35_000, 4);
    let mut seen = 0u64;
    for r in &trace {
        model.access(r.key, r.size);
        seen += 1;
        timeline.offer(seen).unwrap();
    }
    timeline.finish(seen).unwrap();
    assert_eq!(timeline.rows(), 4, "3 full windows + 1 partial tail");
    let body = String::from_utf8(timeline.into_inner().unwrap()).unwrap();
    let mut total_delta_refs = 0.0;
    for (i, line) in body.lines().enumerate() {
        let row = parse(line).unwrap_or_else(|e| panic!("row {i} is not JSON: {e}\n{line}"));
        assert_eq!(
            row.get("schema").and_then(Json::as_str),
            Some("krr-stats-v1")
        );
        assert_eq!(row.get("row").and_then(Json::as_num), Some(i as f64));
        let delta = row.get("delta").expect("delta object");
        total_delta_refs += delta.get("refs").and_then(Json::as_num).unwrap();
        assert!(row.get("watchdog").is_some(), "watchdog block missing");
        assert!(row.get("wall_ms").and_then(Json::as_num).unwrap() >= 0.0);
    }
    // Windows are deltas, so they partition the reference stream exactly.
    assert_eq!(total_delta_refs, 35_000.0);
}

/// The acceptance-criteria test: `krr model --trace-out` must emit a
/// Chrome trace-event file that a JSON parser accepts and that carries
/// the required `ph`/`ts`/`dur`/`tid` fields; `--stats-out` must emit
/// parseable `krr-stats-v1` JSONL.
#[test]
fn cli_trace_out_and_stats_out_emit_valid_artifacts() {
    let dir = std::env::temp_dir().join(format!("krr-obs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("trace.json");
    let stats_path = dir.join("stats.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_krr"))
        .args([
            "model",
            "--workload",
            "zipf:0.9:2000",
            "--requests",
            "40000",
            "--shards",
            "2",
            "--threads",
            "2",
            "--trace-out",
            trace_path.to_str().unwrap(),
            "--stats-every",
            "10000",
            "--stats-out",
            stats_path.to_str().unwrap(),
        ])
        .output()
        .expect("failed to run the krr binary");
    assert!(
        out.status.success(),
        "krr model failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let trace_json = std::fs::read_to_string(&trace_path).unwrap();
    assert_valid_chrome_trace(&trace_json);
    let stats = std::fs::read_to_string(&stats_path).unwrap();
    assert_eq!(stats.lines().count(), 4);
    for line in stats.lines() {
        let row = parse(line).expect("stats row must be valid JSON");
        assert_eq!(
            row.get("schema").and_then(Json::as_str),
            Some("krr-stats-v1")
        );
        assert!(row.get("throughput_rps").and_then(Json::as_num).is_some());
    }
    std::fs::remove_dir_all(&dir).ok();
}
