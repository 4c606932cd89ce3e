//! Benchmark for the parallel profiling path: the sequential sharded
//! access loop vs the route-once batched `process_stream` pipeline over a
//! 1/2/4/8 worker curve, timed in the same run on the same trace.
//!
//! Writes machine-readable results to `BENCH_pipeline.json` at the repo
//! root (schema `krr-bench-pipeline-v3`), with the host's core count, so
//! the perf trajectory is tracked across changes. `KRR_BENCH_FAST=1`
//! shrinks the trace for smoke runs.
//!
//! Besides timing, the run asserts the claims the numbers rest on:
//! bit-identical MRCs against the sequential loop at 1/2/4/8/16 workers,
//! route-once hashing (the pipeline hashes each of the N keys once), and
//! — in full mode — a pipeline that at every worker count keeps at least
//! `MIN_RATIO_VS_SEQUENTIAL` of the sequential loop's throughput.

use krr_core::metrics::MetricsRegistry;
use krr_core::rng::Xoshiro256;
use krr_core::sharded::ShardedKrr;
use krr_core::KrrConfig;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

const SHARDS: usize = 16;
const THREADS: [usize; 4] = [1, 2, 4, 8];
const REPS: usize = 3;

/// Floor on pipeline throughput over the sequential loop's, at every
/// worker count. The pipeline adds a router thread and a queue hop per
/// batch; even on one core, where the workers cannot run in parallel,
/// that overhead must stay within 20% of the work it distributes.
const MIN_RATIO_VS_SEQUENTIAL: f64 = 0.8;

fn trace(n: usize) -> Vec<(u64, u32)> {
    let z = krr_trace::Zipf::new(100_000, 0.9);
    let mut rng = Xoshiro256::seed_from_u64(3);
    (0..n).map(|_| (z.sample(&mut rng), 1)).collect()
}

/// Best-of-REPS wall time for one full profiling run.
fn time_best(mut run: impl FnMut() -> ShardedKrr) -> (f64, ShardedKrr) {
    let mut best = f64::INFINITY;
    let mut bank = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let b = run();
        best = best.min(t0.elapsed().as_secs_f64());
        bank = Some(b);
    }
    (best, bank.expect("at least one rep"))
}

struct Row {
    path: &'static str,
    threads: usize,
    secs: f64,
}

fn main() {
    let fast = std::env::var("KRR_BENCH_FAST").is_ok();
    let n = if fast { 40_000 } else { 400_000 };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let refs = trace(n);
    let cfg = KrrConfig::new(5.0).seed(7);
    println!("\n== pipeline ==  ({n} refs, {SHARDS} shards, best of {REPS}, {cores} cores)");

    let mut rows: Vec<Row> = Vec::new();
    let mut record = |path: &'static str, threads: usize, secs: f64| {
        println!(
            "{path:<12} threads={threads}  {secs:>8.4} s  {:>10.2} Mref/s  {:>7.1} ns/ref",
            n as f64 / secs / 1e6,
            secs * 1e9 / n as f64
        );
        rows.push(Row {
            path,
            threads,
            secs,
        });
    };

    // Golden: the sequential sharded loop.
    let (t_seq, seq) = time_best(|| {
        let mut bank = ShardedKrr::new(&cfg, SHARDS);
        for &(k, s) in &refs {
            bank.access(k, s);
        }
        bank
    });
    record("sequential", 1, t_seq);
    let golden = seq.mrc();

    for threads in THREADS {
        let (t, bank) = time_best(|| {
            let mut bank = ShardedKrr::new(&cfg, SHARDS);
            bank.process_stream(refs.iter().copied(), threads);
            bank
        });
        assert_eq!(
            bank.mrc().points(),
            golden.points(),
            "pipeline diverged at threads={threads}"
        );
        record("pipeline", threads, t);
    }

    // Bit-identity holds past the timing curve: 16 workers, more threads
    // than a 1-per-shard assignment can use.
    let mut t16 = ShardedKrr::new(&cfg, SHARDS);
    t16.process_stream(refs.iter().copied(), 16);
    assert_eq!(
        t16.mrc().points(),
        golden.points(),
        "pipeline diverged at threads=16"
    );

    // Route-once accounting (N hashes) and the transport counters.
    let counted = |threads: usize| {
        let reg = Arc::new(MetricsRegistry::new());
        let mut bank = ShardedKrr::new(&cfg, SHARDS);
        bank.set_metrics(Arc::clone(&reg));
        bank.process_stream(refs.iter().copied(), threads);
        reg.snapshot()
    };
    let pipeline_hashes = counted(4).pipeline_keys_hashed;
    assert_eq!(
        pipeline_hashes, n as u64,
        "pipeline must hash each key once"
    );
    println!("keys hashed @4 threads: {pipeline_hashes}");
    let snap = counted(8);
    println!(
        "queues @8 threads: batches {}, stalls {}, wraps {}, router parks {}, worker parks {}, depth_hwm {:?}",
        snap.pipeline_batches,
        snap.pipeline_stalls,
        snap.pipeline_ring_wraps,
        snap.pipeline_router_parks,
        snap.pipeline_worker_parks,
        snap.pipeline_ring_hwm
    );

    // Gate: every worker count against the sequential loop of this run.
    // Fast mode reports the ratios but does not gate on them (the
    // 40K-ref trace is noise-dominated).
    let ratio = |threads: usize| {
        let row = rows
            .iter()
            .find(|r| r.path == "pipeline" && r.threads == threads)
            .expect("row recorded");
        t_seq / row.secs
    };
    let worst = THREADS
        .iter()
        .map(|&t| ratio(t))
        .fold(f64::INFINITY, f64::min);
    for threads in THREADS {
        println!(
            "pipeline vs sequential @{threads} threads: {:.2}x",
            ratio(threads)
        );
    }
    if !fast {
        assert!(
            worst >= MIN_RATIO_VS_SEQUENTIAL,
            "pipeline gate failed: worst {worst:.2}x < {MIN_RATIO_VS_SEQUENTIAL}x the sequential loop"
        );
    }

    let mut json = String::from("{\"schema\":\"krr-bench-pipeline-v3\",");
    let _ = write!(
        json,
        "\"refs\":{n},\"shards\":{SHARDS},\"reps\":{REPS},\"host_cores\":{cores},\"keys_hashed\":{{\"pipeline_t4\":{pipeline_hashes}}},"
    );
    let _ = write!(
        json,
        "\"queues_t8\":{{\"batches\":{},\"stalls\":{},\"wraps\":{},\"router_parks\":{},\"worker_parks\":{},\"depth_hwm\":{:?}}},",
        snap.pipeline_batches,
        snap.pipeline_stalls,
        snap.pipeline_ring_wraps,
        snap.pipeline_router_parks,
        snap.pipeline_worker_parks,
        snap.pipeline_ring_hwm
    );
    let _ = write!(
        json,
        "\"gate\":{{\"min_ratio_vs_sequential\":{MIN_RATIO_VS_SEQUENTIAL},\"worst_ratio\":{worst:.3},\"enforced\":{}}},\"results\":[",
        !fast
    );
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "{{\"path\":\"{}\",\"threads\":{},\"seconds\":{:.6},\"refs_per_sec\":{:.0},\"ns_per_ref\":{:.1}}}",
            r.path,
            r.threads,
            r.secs,
            n as f64 / r.secs,
            r.secs * 1e9 / n as f64
        );
    }
    let _ = write!(json, "],\"ratio_vs_sequential\":{{");
    for (i, threads) in THREADS.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(json, "\"t{threads}\":{:.3}", ratio(*threads));
    }
    json.push_str("}}");
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
    std::fs::write(out, &json).expect("write BENCH_pipeline.json");
    println!("wrote {out}\n");
}
