//! Integration: the streaming route-once profiling pipeline — edge cases,
//! bit-identity across entry points, and the route-once hashing guarantee
//! (total key hashes = N, not T×N).

use std::sync::Arc;

use krr::core::metrics::MetricsRegistry;
use krr::core::pipeline::PipelineConfig;
use krr::core::sharded::ShardedKrr;
use krr::prelude::*;
use krr::trace::io::CsvStream;
use krr::trace::{io as trace_io, Request};

fn skewed(keys: u64, n: usize, seed: u64) -> Vec<(u64, u32)> {
    use krr::core::rng::Xoshiro256;
    let mut rng = Xoshiro256::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let u = rng.unit();
            ((u * u * keys as f64) as u64, 1 + (u * 100.0) as u32)
        })
        .collect()
}

fn sequential(cfg: &KrrConfig, shards: usize, refs: &[(u64, u32)]) -> ShardedKrr {
    let mut bank = ShardedKrr::new(cfg, shards);
    for &(k, s) in refs {
        bank.access(k, s);
    }
    bank
}

#[test]
fn threads_exceed_shards() {
    let refs = skewed(3_000, 50_000, 1);
    let cfg = KrrConfig::new(5.0).seed(1);
    let seq = sequential(&cfg, 2, &refs);
    for threads in [3, 8, 64] {
        let mut par = ShardedKrr::new(&cfg, 2);
        par.process_stream(refs.iter().copied(), threads);
        assert_eq!(par.mrc().points(), seq.mrc().points(), "threads={threads}");
        assert_eq!(par.stats(), seq.stats());
    }
}

#[test]
fn single_shard_bank() {
    let refs = skewed(2_000, 30_000, 2);
    let cfg = KrrConfig::new(4.0).seed(2);
    let seq = sequential(&cfg, 1, &refs);
    let mut par = ShardedKrr::new(&cfg, 1);
    par.process_stream(refs.iter().copied(), 4);
    assert_eq!(par.mrc().points(), seq.mrc().points());
}

#[test]
fn empty_trace() {
    let cfg = KrrConfig::new(5.0).seed(3);
    let mut bank = ShardedKrr::new(&cfg, 4);
    bank.process_stream(std::iter::empty(), 4);
    assert_eq!(bank.stats().processed, 0);
    let seq = sequential(&cfg, 4, &[]);
    assert_eq!(bank.mrc().points(), seq.mrc().points());
}

#[test]
fn one_reference_trace() {
    let cfg = KrrConfig::new(5.0).seed(4);
    let refs = [(77u64, 3u32)];
    let seq = sequential(&cfg, 4, &refs);
    let mut par = ShardedKrr::new(&cfg, 4);
    par.process_stream(refs.iter().copied(), 4);
    assert_eq!(par.stats().processed, 1);
    assert_eq!(par.mrc().points(), seq.mrc().points());
}

#[test]
fn stream_slice_and_sequential_agree() {
    let refs = skewed(8_000, 120_000, 5);
    let cfg = KrrConfig::new(5.0).seed(5);
    let seq = sequential(&cfg, 6, &refs);

    let mut slice = ShardedKrr::new(&cfg, 6);
    slice.process_parallel(&refs, 4);
    assert_eq!(slice.mrc().points(), seq.mrc().points());

    // Stream from actual CSV bytes, exercising the full file path.
    let trace: Vec<Request> = refs.iter().map(|&(k, s)| Request::get(k, s)).collect();
    let mut csv = Vec::new();
    trace_io::write_csv(&mut csv, &trace).unwrap();
    let mut streamed = ShardedKrr::new(&cfg, 6);
    streamed.process_stream(
        CsvStream::new(csv.as_slice()).map(|r| {
            let r = r.expect("well-formed CSV");
            (r.key, r.size)
        }),
        4,
    );
    assert_eq!(streamed.mrc().points(), seq.mrc().points());
    assert_eq!(streamed.stats(), seq.stats());
}

#[test]
fn route_once_hashes_each_key_exactly_once() {
    let refs = skewed(4_000, 40_000, 7);
    let n = refs.len() as u64;
    let cfg = KrrConfig::new(5.0).seed(7);

    let reg = Arc::new(MetricsRegistry::new());
    let mut bank = ShardedKrr::new(&cfg, 8);
    bank.set_metrics(Arc::clone(&reg));
    bank.process_stream(refs.iter().copied(), 4);
    assert_eq!(reg.snapshot().pipeline_keys_hashed, n, "pipeline is N");
}

#[test]
fn pipeline_metrics_flow_to_renderings() {
    let refs = skewed(4_000, 50_000, 8);
    let cfg = KrrConfig::new(5.0).seed(8);
    let reg = Arc::new(MetricsRegistry::new());
    let mut bank = ShardedKrr::new(&cfg, 4);
    bank.set_metrics(Arc::clone(&reg));
    // Small batches so multiple batches (and likely stalls) occur.
    bank.process_stream_with(
        refs.iter().copied(),
        2,
        &PipelineConfig {
            batch_size: 256,
            queue_depth: 1,
        },
    );
    let snap = reg.snapshot();
    assert!(
        snap.pipeline_batches >= 4,
        "batches: {}",
        snap.pipeline_batches
    );
    assert_eq!(snap.pipeline_keys_hashed, refs.len() as u64);
    assert_eq!(snap.pipeline_queue_hwm.len(), 4);
    assert!(snap.pipeline_queue_hwm.iter().all(|&d| d >= 1));
    assert!(snap.pipeline_router_busy_ns > 0);
    assert!(snap.pipeline_worker_busy_ns > 0);
    // Queue statistics: one depth high-water mark per worker, and with
    // ~100 batches per worker pushed through one-batch queues each queue
    // must have cycled many times.
    assert_eq!(snap.pipeline_ring_hwm.len(), 2);
    assert!(snap.pipeline_ring_hwm.iter().all(|&d| d >= 1));
    assert!(snap.pipeline_ring_wraps > 0, "tiny queues must wrap");
    // Per-shard access counters cover the whole trace.
    assert_eq!(snap.shard_accesses.iter().sum::<u64>(), refs.len() as u64);
    let info = snap.render_info();
    assert!(info.contains("# pipeline"), "{info}");
    assert!(
        info.contains(&format!("keys_hashed:{}", refs.len())),
        "{info}"
    );
    let json = snap.to_json();
    assert!(json.contains("\"pipeline\":{\"batches\":"), "{json}");
    assert!(json.contains("\"ring\":{\"wraps\":"), "{json}");
    assert!(info.contains("ring_wraps:"), "{info}");
}

#[test]
fn park_storm_keeps_ring_stats_consistent_across_thread_counts() {
    // A deliberately starved tuning (tiny batches, one-batch queues) turns
    // every run into a park storm: the router blocks on full queues and
    // the workers wait on empty ones. The post-join queue statistics must
    // stay internally consistent at every thread count, and none of the
    // parking may leak into the model's results.
    let refs = skewed(8_000, 120_000, 21);
    let cfg = KrrConfig::new(5.0).seed(21);
    let seq = sequential(&cfg, 8, &refs);
    let storm = PipelineConfig {
        batch_size: 16,
        queue_depth: 1,
    };
    let mut prev_batches = 0u64;
    for threads in [1usize, 2, 8] {
        let reg = Arc::new(MetricsRegistry::new());
        let mut bank = ShardedKrr::new(&cfg, 8);
        bank.set_metrics(Arc::clone(&reg));
        bank.process_stream_with(refs.iter().copied(), threads, &storm);
        let snap = reg.snapshot();
        // One depth high-water mark per worker, each within the one-batch
        // queue's capacity and touched at least once.
        assert_eq!(snap.pipeline_ring_hwm.len(), threads, "t={threads}");
        // Under a storm the router keeps each queue pinned at capacity.
        assert!(
            snap.pipeline_ring_hwm.iter().all(|&d| d == 1),
            "t={threads}: starved queues must pin depth_hwm at capacity, got {:?}",
            snap.pipeline_ring_hwm
        );
        // 16-key batches over 120k refs: thousands of batches, so the
        // one-batch queues cycled constantly and blocking happened on
        // both sides (a single worker still waits: it drains faster than
        // the router refills).
        assert!(
            snap.pipeline_batches >= (refs.len() / storm.batch_size) as u64,
            "t={threads}: batches {}",
            snap.pipeline_batches
        );
        // Wraps count full cycles of each queue (sends ÷ capacity), so
        // with capacity 1 they sum to the batch count.
        assert_eq!(
            snap.pipeline_ring_wraps, snap.pipeline_batches,
            "t={threads}: wraps vs batches"
        );
        assert!(
            snap.pipeline_worker_parks > 0,
            "t={threads}: starved workers never parked"
        );
        // The router parks exactly when a send blocks on a full queue.
        assert_eq!(
            snap.pipeline_router_parks, snap.pipeline_stalls,
            "t={threads}: router parks vs stalls"
        );
        // Batch count is a pure function of the trace and batch size —
        // identical across thread counts.
        if prev_batches > 0 {
            assert_eq!(snap.pipeline_batches, prev_batches, "t={threads}");
        }
        prev_batches = snap.pipeline_batches;
        // And the storm is scheduling-only: bits match the sequential run.
        assert_eq!(bank.mrc().points(), seq.mrc().points(), "t={threads}");
        assert_eq!(bank.stats(), seq.stats(), "t={threads}");
    }
}

/// Counters a pipeline run must leave exactly where the sequential path
/// leaves them: `(accesses, spatial_rejected, hits, cold_misses,
/// shard_accesses)`.
fn counters(reg: &MetricsRegistry) -> (u64, u64, u64, u64, Vec<u64>) {
    let s = reg.snapshot();
    (
        s.accesses,
        s.spatial_rejected,
        s.hits,
        s.cold_misses,
        s.shard_accesses,
    )
}

#[test]
fn router_admission_matches_sequential_state_and_counters() {
    // The router drops unsampled references before they are buffered and
    // credits them per shard; the result must be indistinguishable from
    // offering every reference to `ShardedKrr::access`: MRC, per-shard
    // stats, checkpoint bytes and every counter, per-shard slots included.
    let refs = skewed(200_000, 120_000, 31);
    for rate in [0.005, 0.05, 1.0] {
        let cfg = KrrConfig::new(5.0).seed(31).sampling(rate);
        let seq_reg = Arc::new(MetricsRegistry::new());
        let mut seq = ShardedKrr::new(&cfg, 8);
        seq.set_metrics(Arc::clone(&seq_reg));
        for &(k, s) in &refs {
            seq.access(k, s);
        }
        let mut seq_bytes = Vec::new();
        seq.checkpoint(&mut seq_bytes).unwrap();
        let seq_stats: Vec<_> = seq.shards().iter().map(KrrModel::stats).collect();
        assert!(seq_reg.snapshot().spatial_rejected > 0 || rate == 1.0);

        for threads in [1, 2, 8] {
            let at = format!("rate {rate}, {threads} threads");
            let reg = Arc::new(MetricsRegistry::new());
            let mut par = ShardedKrr::new(&cfg, 8);
            par.set_metrics(Arc::clone(&reg));
            // Two calls, so per-shard rejected counts also carry across a
            // call boundary.
            let (a, b) = refs.split_at(refs.len() / 3);
            par.process_stream(a.iter().copied(), threads);
            par.process_stream(b.iter().copied(), threads);
            assert_eq!(par.mrc().points(), seq.mrc().points(), "{at}");
            let stats: Vec<_> = par.shards().iter().map(KrrModel::stats).collect();
            assert_eq!(stats, seq_stats, "{at}");
            let mut bytes = Vec::new();
            par.checkpoint(&mut bytes).unwrap();
            assert!(bytes == seq_bytes, "{at}: checkpoint bytes differ");
            assert_eq!(counters(&reg), counters(&seq_reg), "{at}");
            assert_eq!(
                reg.snapshot().pipeline_keys_hashed,
                refs.len() as u64,
                "{at}"
            );

            // Detached models take the uncounted fast path; it must land
            // in the same state.
            let mut bare = ShardedKrr::new(&cfg, 8);
            bare.process_stream(refs.iter().copied(), threads);
            let mut bare_bytes = Vec::new();
            bare.checkpoint(&mut bare_bytes).unwrap();
            assert!(bare_bytes == seq_bytes, "{at}: detached bytes differ");
        }
    }
}

#[test]
fn rejected_references_reach_the_counters_before_the_call_returns() {
    // A live scrape during one long `process_stream` call must see the
    // rejected references of batches already dispatched, not 0 until the
    // end. The stream itself pauses halfway until the worker has credited
    // some.
    let refs = skewed(100_000, 100_000, 32);
    let cfg = KrrConfig::new(5.0).seed(32).sampling(0.05);
    let reg = Arc::new(MetricsRegistry::new());
    let mut bank = ShardedKrr::new(&cfg, 4);
    bank.set_metrics(Arc::clone(&reg));
    let live = Arc::clone(&reg);
    let half = refs.len() / 2;
    let mut seen_mid_call = (0, 0);
    let stream = refs.iter().enumerate().map(|(i, &r)| {
        if i == half {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
            while live.snapshot().spatial_rejected == 0 && std::time::Instant::now() < deadline {
                std::thread::yield_now();
            }
            let s = live.snapshot();
            seen_mid_call = (s.spatial_rejected, s.shard_accesses.iter().sum::<u64>());
        }
        r
    });
    bank.process_stream_with(
        stream,
        1,
        &PipelineConfig {
            batch_size: 64,
            queue_depth: 4,
        },
    );
    let (rejected, routed) = seen_mid_call;
    assert!(rejected > 0, "no rejected reference counted mid-call");
    assert!(routed > rejected, "per-shard slots lag the rejected count");
    assert!(routed <= half as u64);
    let end = reg.snapshot();
    assert_eq!(end.accesses, refs.len() as u64);
    assert_eq!(end.shard_accesses.iter().sum::<u64>(), refs.len() as u64);
    assert_eq!(
        end.spatial_rejected,
        bank.stats().processed - bank.stats().sampled
    );
}
