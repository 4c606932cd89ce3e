//! Streaming, route-once, batched profiling pipeline over bounded
//! channels.
//!
//! The naive way to parallelize sharded profiling — every worker scans the
//! whole trace and keeps its shards' keys — does `T·N` routing work for `T`
//! threads over `N` references and needs the entire trace resident in
//! memory. This module replaces it with a router/worker topology:
//!
//! ```text
//!             ┌──────────┐  bounded batch queues ┌──────────┐
//!  refs ────► │  router  │ ══ Batch(s=0,3) ════►│ worker 0 │ shards {0,3}
//!  (any       │ hash 8,  │ ══ Batch(s=1,4) ════►│ worker 1 │ shards {1,4}
//!  iterator)  │ route,   │ ══ Batch(s=2,5) ════►│ worker 2 │ shards {2,5}
//!             │ admit,   │ ◄═ freelist ═════════╡ (apply   │
//!             │ batch    │    (recycled Vecs)   │  sampled │
//!             └────┬─────┘                      │  refs)   │
//!                  ▼ rejected: counted per      └────┬─────┘
//!                    shard, never buffered           │
//!                                      sharded merge ▼ (ShardedKrr::mrc,
//!                                       per-shard histograms — the router
//!                                       never participates or blocks)
//! ```
//!
//! * **Route once.** The router computes `hash_key(key)` exactly once per
//!   reference — eight at a time via [`crate::hashing::hash_keys8`] so the
//!   independent mix chains overlap in the pipeline; the shard index comes
//!   from the hash's high bits and the spatial filter consumes its low
//!   bits, so the hash rides along in the batch and no stage ever
//!   re-hashes. Total hash work is `N`, not `T·N`.
//! * **Admit at the router.** Spatial sampling is applied exactly once,
//!   in the router, before a reference is buffered: the 8 hashes of a
//!   block are tested with [`SpatialFilter::admits_hashed8`] (each slot's
//!   own filter for pre-routed fleet items). A rejected reference costs
//!   its hash, its shard index, one compare and one per-shard counter
//!   increment; it is never copied, batched, transported or re-read. Each
//!   batch carries its shard's rejected count since the previous batch,
//!   which the worker credits to the model's `processed` count and to the
//!   `model.accesses`, `model.spatial_rejected` and `shards.accesses`
//!   counters — so counters advance with every batch, and match the
//!   sequential path exactly when the call returns.
//! * **Batching.** Admitted references are accumulated into per-shard
//!   buffers of [`PipelineConfig::batch_size`] entries (default 4096),
//!   amortizing transport synchronization over thousands of references —
//!   the lever Inoue's multi-step LRU exploits for batched cache
//!   replacement. Workers only ever see sampled references and apply them
//!   in order without a second admission test.
//! * **Bounded transport + recycling.** Each worker is fed by its own
//!   [`sync_channel`] of [`PipelineConfig::queue_depth`] batches. A full
//!   queue blocks the router (counted as a stall) instead of ballooning
//!   memory. Drained buffers return over a per-worker bounded freelist
//!   that the worker only `try_send`s to and the router only `try_recv`s
//!   from, so recycling never blocks either side — at worst a buffer is
//!   dropped and reallocated. Because a batch carries thousands of
//!   references, a pass sends only a few hundred batches, so the channel's
//!   per-send cost does not show per reference (docs/PERFORMANCE.md
//!   measures it against the lock-free ring it replaced).
//! * **Failure.** A worker that panics drops its queue's receiver; the
//!   router's next send to it fails, the router stops routing, closes the
//!   other queues, and re-raises the worker's panic from the call.
//! * **Streaming.** The input is any `Iterator<Item = (u64, u32)>`; traces
//!   never need to be materialized as a slice, so multi-GB files profile in
//!   constant memory.
//!
//! # Invariant: bit-identical MRCs at any thread count
//!
//! Shard `s` is owned by exactly worker `s % threads`, the router emits a
//! shard's batches in trace order, and the owning worker drains its queue
//! in FIFO order — so every shard model observes exactly the subsequence
//! it would see on the sequential path, in the same order, and consumes
//! its RNG stream identically. Admission drops only references the shard's
//! own filter would reject, and batching never reorders admitted
//! references.
//! Results are therefore bit-identical to [`crate::ShardedKrr::access`]
//! loops at **any** thread count — not approximately equal: the same
//! histogram bins, the same MRC bytes. Enforced by the `sharded`,
//! `pipeline`, and `fleet` suites at 1/2/4/8/16 threads and by the
//! `benches/pipeline.rs` golden comparison.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::Arc;
use std::time::Instant;

use crate::hashing::{hash_key, hash_keys8};
use crate::metrics::{MetricsRegistry, Scope};
use crate::model::KrrModel;
use crate::obs::{FlightRecorder, Phase};
use crate::profiler::ProfPhase;
use crate::sampling::SpatialFilter;
use crate::sharded::shard_of_hash;

/// Tuning knobs for the streaming pipeline.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Admitted references per batch (default 4096). Larger batches amortize
    /// transport overhead further but add latency before a shard sees its
    /// keys and grow resident buffer memory (`shards × batch_size × 24 B`
    /// plus whatever is in flight).
    pub batch_size: usize,
    /// Bound of each worker's batch queue, in batches (default 4, minimum
    /// 1). When a queue is full the router blocks until the worker takes a
    /// batch — back-pressure instead of unbounded buffering; each such
    /// event is recorded as a pipeline stall.
    pub queue_depth: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            batch_size: 4096,
            queue_depth: 4,
        }
    }
}

impl PipelineConfig {
    /// Resident bytes of the router's per-shard accumulation buffers for
    /// `n_shards` shards: one `(key, size, hash)` entry is 24 bytes and
    /// every shard keeps one `batch_size` buffer. In-flight batches (up to
    /// `queue_depth` per worker) recycle from the same pool, so this is
    /// the steady-state floor the `footprint_pipeline_bytes` gauge
    /// reports.
    #[must_use]
    pub fn buffer_bytes(&self, n_shards: usize) -> usize {
        n_shards * self.batch_size.max(1) * std::mem::size_of::<(u64, u32, u64)>()
    }
}

/// One `(key, size, hash)` reference as carried between router and
/// workers.
type RoutedRef = (u64, u32, u64);

/// One admitted reference as the router sees it: destination slot, key,
/// size, and the key's [`hash_key`] value.
type Admitted = (usize, u64, u32, u64);

/// One routed batch for `shard`: the references the router admitted (with
/// their precomputed key hashes), plus how many references to the same
/// shard it rejected since the shard's previous batch.
struct Batch {
    shard: usize,
    refs: Vec<RoutedRef>,
    rejected: u64,
}

/// Hashes, routes and admits in blocks of 8: pulls up to 8 `(key, size)`
/// pairs, runs [`hash_keys8`] over the full blocks (scalar [`hash_key`] on
/// the final partial block — same values either way), tests the hashes
/// with [`SpatialFilter::admits_hashed8`], and yields only admitted
/// `(shard, key, size, hash)` items in input order. A rejected reference
/// costs its hash, its shard index and one counter increment.
struct Route8<I> {
    inner: I,
    n_shards: usize,
    filter: SpatialFilter,
    buf: [Admitted; 8],
    len: usize,
    pos: usize,
}

impl<I: Iterator<Item = (u64, u32)>> Route8<I> {
    /// The next admitted item; every reference skipped on the way is
    /// counted in `rejected[shard]`.
    #[inline]
    fn next_admitted(&mut self, rejected: &mut [u64]) -> Option<Admitted> {
        while self.pos == self.len {
            let mut keys = [0u64; 8];
            let mut sizes = [0u32; 8];
            let mut n = 0;
            while n < 8 {
                match self.inner.next() {
                    Some((k, s)) => {
                        keys[n] = k;
                        sizes[n] = s;
                        n += 1;
                    }
                    None => break,
                }
            }
            if n == 0 {
                return None;
            }
            let hashes = if n == 8 {
                hash_keys8(keys)
            } else {
                std::array::from_fn(|i| hash_key(keys[i]))
            };
            let mask = self.filter.admits_hashed8(&hashes);
            self.len = 0;
            self.pos = 0;
            for i in 0..n {
                let s = shard_of_hash(hashes[i], self.n_shards);
                if mask >> i & 1 == 1 {
                    self.buf[self.len] = (s, keys[i], sizes[i], hashes[i]);
                    self.len += 1;
                } else {
                    rejected[s] += 1;
                }
            }
        }
        let item = self.buf[self.pos];
        self.pos += 1;
        Some(item)
    }
}

/// Drives `refs` through `models` with `threads` workers plus the calling
/// thread as router. Returns the models with every reference applied;
/// per-shard reference order (and therefore every model's state) is
/// identical to a sequential [`crate::ShardedKrr::access`] loop. Every
/// shard of a bank shares one spatial filter, so the router admits with
/// the first model's.
pub(crate) fn run<I>(
    models: Vec<KrrModel>,
    refs: I,
    threads: usize,
    cfg: &PipelineConfig,
    metrics: Option<&Arc<MetricsRegistry>>,
    recorder: Option<&Arc<FlightRecorder>>,
) -> Vec<KrrModel>
where
    I: Iterator<Item = (u64, u32)>,
{
    let mut route = Route8 {
        inner: refs,
        n_shards: models.len(),
        filter: models[0].filter(),
        buf: [(0, 0, 0, 0); 8],
        len: 0,
        pos: 0,
    };
    drive(
        models,
        |rejected| route.next_admitted(rejected),
        threads,
        cfg,
        metrics,
        recorder,
    )
}

/// The router/worker topology over **pre-routed** items: each item carries
/// its destination slot, key, size, and the key's already-computed
/// [`hash_key`] value. [`run`] resolves slots by [`shard_of_hash`];
/// [`crate::fleet::FleetArena`] resolves them by tenant id. The contract
/// is the same either way — the hash MUST be `hash_key(key)` (computed
/// exactly once per reference, counted as `pipeline.keys_hashed`), each
/// item is admitted by its own slot's spatial filter before it is
/// buffered, slot `s` is owned by worker `s % threads`, and per-slot FIFO
/// order makes results bit-identical to a sequential loop at any thread
/// count (the module-level invariant).
pub(crate) fn run_routed<I>(
    models: Vec<KrrModel>,
    mut items: I,
    threads: usize,
    cfg: &PipelineConfig,
    metrics: Option<&Arc<MetricsRegistry>>,
    recorder: Option<&Arc<FlightRecorder>>,
) -> Vec<KrrModel>
where
    I: Iterator<Item = Admitted>,
{
    let filters: Vec<SpatialFilter> = models.iter().map(KrrModel::filter).collect();
    drive(
        models,
        |rejected| loop {
            let item = items.next()?;
            if filters[item.0].admits_hashed(item.3) {
                return Some(item);
            }
            rejected[item.0] += 1;
        },
        threads,
        cfg,
        metrics,
        recorder,
    )
}

/// The shared router/worker loop. `next` yields the next admitted item and
/// counts each reference it skips in `rejected[slot]`; the router carries
/// those counts to the slot's worker in the slot's next batch, where they
/// are credited to the model ([`KrrModel::credit_rejected`]) and to the
/// metrics registry — at every batch, not only at join.
fn drive<F>(
    models: Vec<KrrModel>,
    mut next: F,
    threads: usize,
    cfg: &PipelineConfig,
    metrics: Option<&Arc<MetricsRegistry>>,
    recorder: Option<&Arc<FlightRecorder>>,
) -> Vec<KrrModel>
where
    F: FnMut(&mut [u64]) -> Option<Admitted>,
{
    let n_shards = models.len();
    let threads = threads.clamp(1, n_shards);
    let batch_size = cfg.batch_size.max(1);
    let capacity = cfg.queue_depth.max(1);
    if let Some(reg) = metrics {
        reg.footprint_pipeline_bytes
            .set(cfg.buffer_bytes(n_shards) as u64);
        reg.init_slots(Scope::Worker, threads);
    }

    // Worker w owns shards {s | s % threads == w}; shard s sits at local
    // slot s / threads in its group, so workers route batches to models in
    // O(1) without a scan.
    let mut groups: Vec<Vec<KrrModel>> = (0..threads).map(|_| Vec::new()).collect();
    for (s, m) in models.into_iter().enumerate() {
        groups[s % threads].push(m);
    }

    // Batches in flight per shard, for the queue-depth high-water metric.
    let depth: Vec<AtomicU64> = (0..n_shards).map(|_| AtomicU64::new(0)).collect();
    let depth = &depth;
    // Batches each worker has taken off its queue, for the per-worker
    // queue high-water mark the router records.
    let taken: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
    let taken = &taken;

    let groups = std::thread::scope(|scope| {
        // Per worker: a batch queue (router → worker) and a freelist
        // carrying drained buffers back (worker → router). The freelist
        // holds 2× the batch queue so a worker can return every in-flight
        // buffer plus a margin without dropping any.
        let mut batch_txs: Vec<SyncSender<Batch>> = Vec::with_capacity(threads);
        let mut free_rxs: Vec<Receiver<Vec<RoutedRef>>> = Vec::with_capacity(threads);
        let handles: Vec<_> = groups
            .into_iter()
            .enumerate()
            .map(|(w, mut group)| {
                let (tx, rx) = sync_channel::<Batch>(capacity);
                let (ftx, frx) = sync_channel::<Vec<RoutedRef>>(2 * capacity);
                batch_txs.push(tx);
                free_rxs.push(frx);
                let metrics = metrics.cloned();
                let rec = recorder.map(|r| r.register(&format!("worker-{w}")));
                scope.spawn(move || {
                    let mut busy_ns = 0u64;
                    let mut parks = 0u64;
                    loop {
                        let w0 = rec.as_ref().map(|r| r.now_ns());
                        let batch = match rx.try_recv() {
                            Ok(b) => b,
                            Err(TryRecvError::Disconnected) => break,
                            Err(TryRecvError::Empty) => {
                                parks += 1;
                                let Ok(b) = rx.recv() else { break };
                                b
                            }
                        };
                        taken[w].fetch_add(1, Ordering::Relaxed);
                        // Attribute the time spent waiting for the batch to
                        // ring-wait: long waits become trace spans, short
                        // ones only profiler samples, so the timeline stays
                        // readable.
                        if let (Some(r), Some(w0)) = (&rec, w0) {
                            let wait = r.now_ns().saturating_sub(w0);
                            if wait >= 1_000 {
                                r.record(Phase::RingWait, w0, wait, w as u64);
                            } else {
                                r.profile(ProfPhase::RingWait, wait);
                            }
                        }
                        let t0 = Instant::now();
                        let r0 = rec.as_ref().map(|r| r.now_ns());
                        let model = &mut group[batch.shard / threads];
                        model.access_admitted(&batch.refs);
                        model.credit_rejected(batch.rejected);
                        if let (Some(r), Some(r0)) = (&rec, r0) {
                            r.record_since(Phase::WorkerBatch, r0, batch.refs.len() as u64);
                        }
                        depth[batch.shard].fetch_sub(1, Ordering::Relaxed);
                        if let Some(reg) = &metrics {
                            reg.shard_accesses
                                .record(batch.shard, batch.refs.len() as u64 + batch.rejected);
                            reg.shard_resident
                                .record(batch.shard, model.stats().distinct);
                            reg.shard_depth_hwm.record(batch.shard, model.deepest_hit());
                        }
                        busy_ns += t0.elapsed().as_nanos() as u64;
                        let mut buf = batch.refs;
                        buf.clear();
                        // Non-blocking recycle: a full freelist just drops
                        // the buffer (the router allocates a fresh one).
                        let _ = ftx.try_send(buf);
                    }
                    if let Some(reg) = &metrics {
                        reg.pipeline_worker_busy_ns.add(busy_ns);
                        reg.pipeline_worker_parks.add(parks);
                    }
                    group
                })
            })
            .collect();

        // ---- Router (this thread) ----
        let t_router = Instant::now();
        let router_rec = recorder.map(|r| r.register("router"));
        // Buffers start empty and grow on demand: a fleet arena routes over
        // thousands of slots, most of which may never see traffic, so
        // reserving `batch_size` entries per slot up front would waste
        // memory. Hot slots amortize to full capacity via recycling.
        let mut buffers: Vec<Vec<RoutedRef>> = (0..n_shards).map(|_| Vec::new()).collect();
        // References skipped by admission since each slot's last batch.
        let mut rejected = vec![0u64; n_shards];
        let mut keys_hashed = 0u64;
        let mut batches = 0u64;
        let mut stalls = 0u64;
        let mut sent = vec![0u64; threads];
        let mut queue_hwm = vec![0u64; threads];
        // Self-profiler hash attribution: the stretch between dispatches
        // is hashing, admission and buffering, which no span covers.
        let mut hash_mark = router_rec.as_ref().map(|r| r.now_ns());
        // Sends one batch; false when the worker is gone (it panicked).
        let mut dispatch = |s: usize, refs: Vec<RoutedRef>, rejected: u64| {
            keys_hashed += refs.len() as u64 + rejected;
            let d = depth[s].fetch_add(1, Ordering::Relaxed) + 1;
            if let Some(reg) = metrics {
                reg.pipeline_queue_hwm.record(s, d);
            }
            batches += 1;
            let b0 = router_rec.as_ref().map(|r| r.now_ns());
            if let (Some(r), Some(m), Some(b0)) = (&router_rec, hash_mark, b0) {
                r.profile(ProfPhase::Hash, b0.saturating_sub(m));
            }
            let w = s % threads;
            // Queue occupancy after this send, counted against the batches
            // the worker had taken before it: an upper bound, so capped at
            // the queue's capacity.
            sent[w] += 1;
            let queued = sent[w] - taken[w].load(Ordering::Relaxed);
            queue_hwm[w] = queue_hwm[w].max(queued.min(capacity as u64));
            let batch = Batch {
                shard: s,
                refs,
                rejected,
            };
            let delivered = match batch_txs[w].try_send(batch) {
                Ok(()) => true,
                Err(TrySendError::Full(b)) => {
                    // The worker is behind: block until it takes a batch.
                    stalls += 1;
                    let s0 = router_rec.as_ref().map(|r| r.now_ns());
                    let delivered = batch_txs[w].send(b).is_ok();
                    if let (Some(r), Some(s0)) = (&router_rec, s0) {
                        r.record_since(Phase::RouterStall, s0, s as u64);
                    }
                    delivered
                }
                Err(TrySendError::Disconnected(_)) => false,
            };
            if let (Some(r), Some(b0)) = (&router_rec, b0) {
                r.record_since(Phase::RouterBatch, b0, s as u64);
                hash_mark = Some(r.now_ns());
            }
            delivered
        };
        let mut live = true;
        while live {
            let Some((s, key, size, h)) = next(&mut rejected) else {
                break;
            };
            buffers[s].push((key, size, h));
            if buffers[s].len() >= batch_size {
                let fresh = free_rxs[s % threads]
                    .try_recv()
                    .unwrap_or_else(|_| Vec::with_capacity(batch_size));
                let full = std::mem::replace(&mut buffers[s], fresh);
                live = dispatch(s, full, std::mem::take(&mut rejected[s]));
            }
        }
        for (s, (buf, r)) in buffers.into_iter().zip(rejected).enumerate() {
            if live && (!buf.is_empty() || r > 0) {
                live = dispatch(s, buf, r);
            }
        }
        // Closing the queues lets the workers drain what is left and exit.
        drop(batch_txs);
        if let Some(reg) = metrics {
            reg.pipeline_keys_hashed.add(keys_hashed);
            reg.pipeline_batches.add(batches);
            reg.pipeline_stalls.add(stalls);
            reg.pipeline_router_parks.add(stalls);
            reg.pipeline_router_busy_ns
                .add(t_router.elapsed().as_nanos() as u64);
            for (w, (&n, &hwm)) in sent.iter().zip(&queue_hwm).enumerate() {
                reg.pipeline_ring_wraps.add(n / capacity as u64);
                reg.pipeline_ring_hwm.record(w, hwm);
            }
        }

        // A worker's panic is re-raised here, after the router stopped.
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect::<Vec<_>>()
    });

    // Undo the round-robin grouping: worker w's slot i is shard w + i·T.
    let mut out: Vec<Option<KrrModel>> = (0..n_shards).map(|_| None).collect();
    for (w, group) in groups.into_iter().enumerate() {
        for (i, m) in group.into_iter().enumerate() {
            out[w + i * threads] = Some(m);
        }
    }
    out.into_iter()
        .map(|m| m.expect("every shard returned"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::KrrConfig;
    use crate::sharded::ShardedKrr;

    fn refs(n: usize, keys: u64, seed: u64) -> Vec<(u64, u32)> {
        let mut rng = crate::rng::Xoshiro256::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let u = rng.unit();
                ((u * u * keys as f64) as u64, 1)
            })
            .collect()
    }

    #[test]
    fn tiny_batches_force_recycling_and_stalls_still_exact() {
        let refs = refs(60_000, 4_000, 11);
        let cfg = KrrConfig::new(4.0).seed(3);
        let mut seq = ShardedKrr::new(&cfg, 5);
        for &(k, s) in &refs {
            seq.access(k, s);
        }
        // 16-entry batches over 60K refs exercise buffer recycling and
        // queue back-pressure heavily (one-batch queues).
        let pcfg = PipelineConfig {
            batch_size: 16,
            queue_depth: 1,
        };
        let mut par = ShardedKrr::new(&cfg, 5);
        par.process_stream_with(refs.iter().copied(), 3, &pcfg);
        assert_eq!(par.mrc().points(), seq.mrc().points());
        assert_eq!(par.stats(), seq.stats());
    }

    #[test]
    fn degenerate_config_values_are_clamped() {
        let refs = refs(5_000, 500, 12);
        let cfg = KrrConfig::new(2.0).seed(4);
        let mut seq = ShardedKrr::new(&cfg, 3);
        for &(k, s) in &refs {
            seq.access(k, s);
        }
        let pcfg = PipelineConfig {
            batch_size: 0,
            queue_depth: 0,
        };
        let mut par = ShardedKrr::new(&cfg, 3);
        par.process_stream_with(refs.iter().copied(), 99, &pcfg);
        assert_eq!(par.mrc().points(), seq.mrc().points());
    }

    // Overflow checks are what make the worker panic here, so the test
    // needs them on.
    #[cfg(debug_assertions)]
    #[test]
    fn worker_panic_reaches_the_caller_instead_of_hanging_the_router() {
        // Worker 0's first batch overflows its model's reference count and
        // panics while the router keeps feeding a one-batch queue. The
        // router's next send to it must fail and the panic must come back
        // out of the call, not leave the router blocked forever.
        let cfg = KrrConfig::new(4.0).seed(9);
        let mut models: Vec<KrrModel> = (0..2).map(|_| KrrModel::new(cfg.clone())).collect();
        models[0].credit_rejected(u64::MAX);
        let pcfg = PipelineConfig {
            batch_size: 4,
            queue_depth: 1,
        };
        let refs = refs(20_000, 1_000, 14);
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run(models, refs.into_iter(), 2, &pcfg, None, None)
        }));
        assert!(out.is_err(), "the worker's panic was swallowed");
    }
}
