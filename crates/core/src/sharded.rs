//! Sharded, thread-parallel KRR profiling.
//!
//! KRR is a sequential stack algorithm, but spatial sampling makes it
//! embarrassingly parallel: partition the key space into `S` hash shards
//! and give each shard its own independent KRR model. Each shard is a
//! spatial sample at rate `1/S` — except the shards are *complementary*,
//! so their union covers every reference in the trace. Merging the shard
//! histograms therefore keeps the full reference mass (cold fraction is
//! exact) while each distance estimate carries only the usual SHARDS-style
//! scaling approximation.
//!
//! Every key is hashed exactly **once**: shard routing consumes the high
//! 32 bits of [`hash_key`] and the spatial filter consumes the low 24
//! bits, disjoint slices of the same fully-avalanched hash (see
//! [`shard_of_hash`]). The hash is computed at the entry point — the
//! sequential [`ShardedKrr::access`] or the [`pipeline`] router — and
//! passed through, so neither routing nor sampling ever re-hashes.
//!
//! The parallel path ([`ShardedKrr::process_stream`]) is a streaming,
//! route-once, batched pipeline: a router thread hashes, routes and
//! admits references — unsampled ones are only counted per shard — and
//! batches the sampled ones per shard; per-shard workers drain batches
//! from bounded per-worker queues. Total routing work is O(N) regardless
//! of thread count, and per-shard RNG seeds plus deterministic per-shard
//! order keep results bit-identical at any thread count.

use std::sync::Arc;

use crate::checkpoint::{CheckpointReader, CheckpointWriter, Dec, Enc, SECTION_SHARDED};
use crate::hashing::hash_key;
use crate::histogram::SdHistogram;
use crate::metrics::{MetricsRegistry, Scope};
use crate::model::{KrrConfig, KrrModel, ModelStats};
use crate::mrc::Mrc;
use crate::obs::{FlightRecorder, Phase, ThreadRecorder};
use crate::pipeline::{self, PipelineConfig};

/// Maps an already-computed [`hash_key`] value to its owning shard.
///
/// Uses the hash's **high 32 bits** so the result is independent of the low
/// 24 bits that [`crate::SpatialFilter`] consumes for spatial sampling —
/// one hash serves both decisions without correlating them.
///
/// Equals `(key_hash >> 32) % n_shards`; a power-of-two shard count takes
/// a mask instead of the division.
#[inline]
#[must_use]
pub fn shard_of_hash(key_hash: u64, n_shards: usize) -> usize {
    let high = key_hash >> 32;
    let n = n_shards as u64;
    (if n.is_power_of_two() {
        high & (n - 1)
    } else {
        high % n
    }) as usize
}

/// A bank of per-shard KRR models covering the whole key space.
#[derive(Debug)]
pub struct ShardedKrr {
    shards: Vec<KrrModel>,
    config: KrrConfig,
    metrics: Option<Arc<MetricsRegistry>>,
    recorder: Option<Arc<FlightRecorder>>,
    merge_recorder: Option<ThreadRecorder>,
}

impl Clone for ShardedKrr {
    /// Clones the bank's model state. Flight-recorder handles are NOT
    /// cloned (each ring has one writer); the clone starts detached —
    /// call [`ShardedKrr::set_recorder`] again to re-attach.
    fn clone(&self) -> Self {
        Self {
            shards: self.shards.clone(),
            config: self.config.clone(),
            metrics: self.metrics.clone(),
            recorder: None,
            merge_recorder: None,
        }
    }
}

impl ShardedKrr {
    /// Creates `n_shards >= 1` shard models from a template configuration
    /// (per-shard seeds are derived from the template's).
    #[must_use]
    pub fn new(config: &KrrConfig, n_shards: usize) -> Self {
        assert!(n_shards >= 1);
        let shards = (0..n_shards)
            .map(|i| {
                let mut cfg = config.clone();
                cfg.seed = config.seed ^ ((i as u64 + 1) << 48);
                KrrModel::new(cfg)
            })
            .collect();
        Self {
            shards,
            config: config.clone(),
            metrics: None,
            recorder: None,
            merge_recorder: None,
        }
    }

    /// Attaches a metrics registry to every shard model and claims its
    /// per-shard access counters (sized to this bank's shard count).
    pub fn set_metrics(&mut self, metrics: Arc<MetricsRegistry>) {
        metrics.init_slots(Scope::Shard, self.shards.len());
        for s in &mut self.shards {
            s.set_metrics(Arc::clone(&metrics));
        }
        self.metrics = Some(metrics);
    }

    /// Attaches a flight recorder: each shard model gets its own
    /// `shard-<i>` ring (stack-update spans), histogram merges record
    /// [`Phase::Merge`] spans on a `merge` ring, and pipeline runs
    /// register `router`/`worker-<w>` rings. Tracing is strictly
    /// observational — MRCs stay bit-identical with or without it.
    pub fn set_recorder(&mut self, recorder: Arc<FlightRecorder>) {
        for (i, s) in self.shards.iter_mut().enumerate() {
            s.set_recorder(recorder.register(&format!("shard-{i}")));
        }
        self.merge_recorder = Some(recorder.register("merge"));
        self.recorder = Some(recorder);
    }

    /// Number of shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard models, indexed by shard.
    #[must_use]
    pub fn shards(&self) -> &[KrrModel] {
        &self.shards
    }

    /// The shard responsible for `key`.
    #[must_use]
    pub fn shard_for(&self, key: u64) -> usize {
        shard_of_hash(hash_key(key), self.shards.len())
    }

    /// Offers one reference (sequential path). The key is hashed once;
    /// routing and the shard model's spatial filter share the hash.
    pub fn access(&mut self, key: u64, size: u32) {
        let h = hash_key(key);
        let s = shard_of_hash(h, self.shards.len());
        if let Some(m) = &self.metrics {
            m.shard_accesses.record(s, 1);
        }
        self.shards[s].access_hashed(key, size, h);
        if let Some(m) = &self.metrics {
            m.shard_resident.record(s, self.shards[s].stats().distinct);
            m.shard_depth_hwm.record(s, self.shards[s].deepest_hit());
        }
    }

    /// Offers a uniform-size reference (sequential path).
    pub fn access_key(&mut self, key: u64) {
        self.access(key, 1);
    }

    /// Processes a whole in-memory trace of `(key, size)` pairs with
    /// `threads` worker threads. Delegates to [`ShardedKrr::process_stream`];
    /// kept for callers that already hold the trace as a slice.
    pub fn process_parallel(&mut self, refs: &[(u64, u32)], threads: usize) {
        self.process_stream(refs.iter().copied(), threads);
    }

    /// Streams `refs` through the route-once batched pipeline with
    /// `threads` worker threads (plus the calling thread as router). The
    /// trace never needs to be materialized; results — MRC, per-shard
    /// stats, checkpoint bytes and metrics counters — are identical to the
    /// sequential [`ShardedKrr::access`] loop at any thread count. The
    /// router applies spatial sampling, so workers only see sampled
    /// references.
    pub fn process_stream<I>(&mut self, refs: I, threads: usize)
    where
        I: Iterator<Item = (u64, u32)>,
    {
        self.process_stream_with(refs, threads, &PipelineConfig::default());
    }

    /// [`ShardedKrr::process_stream`] with explicit pipeline tuning.
    pub fn process_stream_with<I>(&mut self, refs: I, threads: usize, cfg: &PipelineConfig)
    where
        I: Iterator<Item = (u64, u32)>,
    {
        let shards = std::mem::take(&mut self.shards);
        self.shards = pipeline::run(
            shards,
            refs,
            threads,
            cfg,
            self.metrics.as_ref(),
            self.recorder.as_ref(),
        );
        self.publish_footprint();
    }

    /// Aggregate counters over all shards.
    #[must_use]
    pub fn stats(&self) -> ModelStats {
        let mut total = ModelStats {
            processed: 0,
            sampled: 0,
            distinct: 0,
        };
        for s in &self.shards {
            let st = s.stats();
            total.processed += st.processed;
            total.sampled += st.sampled;
            total.distinct += st.distinct;
        }
        total
    }

    /// The merged MRC: shard histograms are summed (they share a bin
    /// width), the count correction is applied at the merged level, and the
    /// size axis is expanded by `S/R`.
    #[must_use]
    pub fn mrc(&self) -> Mrc {
        let t0 = self.metrics.as_ref().map(|_| std::time::Instant::now());
        let r0 = self.merge_recorder.as_ref().map(ThreadRecorder::now_ns);
        let mut merged = SdHistogram::new(self.config.bin_width);
        for s in &self.shards {
            merged.merge(s.histogram());
        }
        if let (Some(m), Some(t0)) = (&self.metrics, t0) {
            m.merges.inc();
            m.merge_ns.add(t0.elapsed().as_nanos() as u64);
        }
        if let (Some(r), Some(r0)) = (&self.merge_recorder, r0) {
            r.record_since(Phase::Merge, r0, self.shards.len() as u64);
        }
        let st = self.stats();
        let rate = self.shards.first().map_or(1.0, KrrModel::sampling_rate);
        if self.config.spatial_adjustment {
            // Union-of-shards coverage: expected sampled = processed · R
            // (R = the per-shard spatial rate; shard routing itself keeps
            // every key).
            let expected = (st.processed as f64 * rate).round() as i64;
            merged.apply_count_adjustment(expected - st.sampled as i64);
        }
        let scale = self.shards.len() as f64 / rate;
        let mut mrc = Mrc::from_histogram(&merged, scale);
        mrc.make_monotone();
        mrc
    }

    /// Serializes the whole bank — template config plus every shard
    /// model's full state (see [`KrrModel::save_state`]) — into a
    /// `krr-ckpt-v1` payload.
    pub fn save_state(&self, enc: &mut Enc) {
        self.config.save_state(enc);
        enc.put_u64(self.shards.len() as u64);
        for s in &self.shards {
            s.save_state(enc);
        }
    }

    /// Reconstructs a bank from a [`ShardedKrr::save_state`] payload. Like
    /// [`KrrModel::load_state`], the restored bank starts with metrics and
    /// recorders detached; re-attach via [`ShardedKrr::set_metrics`] /
    /// [`ShardedKrr::set_recorder`].
    pub fn load_state(dec: &mut Dec<'_>) -> std::io::Result<Self> {
        let config = KrrConfig::load_state(dec)?;
        // A shard's payload is far longer than one byte; the bank grows
        // only as shards decode, never from the stored count alone.
        let n = dec.count(1, "shard count")?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "checkpoint has zero shards",
            ));
        }
        let mut shards = Vec::new();
        for _ in 0..n {
            shards.push(KrrModel::load_state(dec)?);
        }
        // The merged MRC and the pipeline router both assume one spatial
        // filter for the whole bank, as `ShardedKrr::new` builds it.
        if shards.iter().any(|m| m.filter() != shards[0].filter()) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "checkpoint shards disagree on the spatial filter",
            ));
        }
        Ok(Self {
            shards,
            config,
            metrics: None,
            recorder: None,
            merge_recorder: None,
        })
    }

    /// Writes a standalone `krr-ckpt-v1` checkpoint (one `SHRD` section)
    /// to `w`. Restoring and finishing the trace is bit-identical to an
    /// uninterrupted run at any thread count — the invariant
    /// `tests/checkpoint.rs` asserts at every batch boundary.
    pub fn checkpoint<W: std::io::Write>(&self, w: W) -> std::io::Result<()> {
        let mut ckpt = CheckpointWriter::new();
        self.save_state(ckpt.section(SECTION_SHARDED));
        ckpt.write_to(w)
    }

    /// Restores a bank from a checkpoint written by
    /// [`ShardedKrr::checkpoint`], validating magic, version, and section
    /// CRCs.
    pub fn restore<R: std::io::Read>(r: R) -> std::io::Result<Self> {
        let ckpt = CheckpointReader::read_from(r)?;
        Self::load_state(&mut ckpt.require(SECTION_SHARDED)?)
    }

    /// Pushes the current footprint breakdown and every shard's
    /// resident/depth gauges into the attached registry (no-op when
    /// detached). Called automatically after a pipeline run; long
    /// sequential loops may call it at their own cadence.
    pub fn publish_footprint(&self) {
        use crate::footprint::Footprint as _;
        let Some(m) = &self.metrics else { return };
        for (i, s) in self.shards.iter().enumerate() {
            m.shard_resident.record(i, s.stats().distinct);
            m.shard_depth_hwm.record(i, s.deepest_hit());
        }
        m.publish_footprint(&self.footprint());
    }
}

impl crate::footprint::Footprint for ShardedKrr {
    /// Label-wise sum of every shard model's footprint, so the breakdown
    /// (`stack_entries`, `stack_index`, `histogram`, ...) stays per-field
    /// while covering the whole bank.
    fn footprint(&self) -> crate::footprint::FootprintReport {
        let mut r = crate::footprint::FootprintReport::new();
        for s in &self.shards {
            r.merge(&s.footprint());
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    fn skewed(keys: u64, n: usize, seed: u64) -> Vec<(u64, u32)> {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let u = rng.unit();
                ((u * u * keys as f64) as u64, 1)
            })
            .collect()
    }

    #[test]
    fn single_shard_equals_plain_model() {
        let refs = skewed(5_000, 100_000, 1);
        let cfg = KrrConfig::new(4.0).seed(9);
        let mut sharded = ShardedKrr::new(&cfg, 1);
        let mut plain = KrrModel::new(cfg);
        for &(k, s) in &refs {
            sharded.access(k, s);
            plain.access(k, s);
        }
        // Identical config and seed derivation differs, so compare curves
        // statistically rather than bit-for-bit.
        let sizes = crate::even_sizes(5_000.0, 20);
        assert!(sharded.mrc().mae(&plain.mrc(), &sizes) < 0.01);
        assert_eq!(sharded.stats().processed, plain.stats().processed);
    }

    #[test]
    fn sharded_matches_full_model() {
        let keys = 50_000u64;
        let refs = skewed(keys, 400_000, 2);
        let cfg = KrrConfig::new(5.0).seed(3);
        let mut sharded = ShardedKrr::new(&cfg, 8);
        for &(k, s) in &refs {
            sharded.access(k, s);
        }
        let mut plain = KrrModel::new(cfg);
        for &(k, _) in &refs {
            plain.access_key(k);
        }
        let sizes = crate::even_sizes(keys as f64, 25);
        let mae = sharded.mrc().mae(&plain.mrc(), &sizes);
        assert!(mae < 0.02, "8-shard vs full MAE {mae}");
        // Union coverage: every reference lands in some shard.
        assert_eq!(sharded.stats().sampled, refs.len() as u64);
    }

    #[test]
    fn parallel_equals_sequential() {
        let refs = skewed(10_000, 150_000, 4);
        let cfg = KrrConfig::new(4.0).seed(5);
        let mut seq = ShardedKrr::new(&cfg, 6);
        for &(k, s) in &refs {
            seq.access(k, s);
        }
        for threads in [1usize, 3, 6, 16] {
            let mut par = ShardedKrr::new(&cfg, 6);
            par.process_parallel(&refs, threads);
            assert_eq!(par.mrc().points(), seq.mrc().points(), "threads={threads}");
        }
    }

    #[test]
    fn stream_equals_slice_path() {
        let refs = skewed(8_000, 120_000, 10);
        let cfg = KrrConfig::new(4.0).seed(6);
        let mut slice = ShardedKrr::new(&cfg, 4);
        slice.process_parallel(&refs, 4);
        let mut stream = ShardedKrr::new(&cfg, 4);
        stream.process_stream(refs.iter().copied(), 4);
        assert_eq!(stream.mrc().points(), slice.mrc().points());
        assert_eq!(stream.stats(), slice.stats());
    }

    #[test]
    fn composes_with_spatial_sampling() {
        let keys = 100_000u64;
        let refs = skewed(keys, 400_000, 6);
        let cfg = KrrConfig::new(4.0).seed(7).sampling(0.5);
        let mut sharded = ShardedKrr::new(&cfg, 4);
        sharded.process_parallel(&refs, 4);
        let st = sharded.stats();
        assert!(
            st.sampled < st.processed * 6 / 10,
            "sampling must still filter"
        );
        let mut plain = KrrModel::new(KrrConfig::new(4.0).seed(8));
        for &(k, _) in &refs {
            plain.access_key(k);
        }
        let sizes = crate::even_sizes(keys as f64, 20);
        let mae = sharded.mrc().mae(&plain.mrc(), &sizes);
        assert!(mae < 0.03, "sharded+sampled MAE {mae}");
    }

    #[test]
    fn checkpoint_restore_resumes_bit_identically() {
        let refs = skewed(6_000, 60_000, 13);
        let cfg = KrrConfig::new(4.0).seed(14).sampling(0.5);
        let mut uninterrupted = ShardedKrr::new(&cfg, 4);
        uninterrupted.process_stream(refs.iter().copied(), 3);

        let mut a = ShardedKrr::new(&cfg, 4);
        a.process_stream(refs[..30_000].iter().copied(), 3);
        let mut bytes = Vec::new();
        a.checkpoint(&mut bytes).unwrap();
        let mut b = ShardedKrr::restore(&bytes[..]).unwrap();
        b.process_stream(refs[30_000..].iter().copied(), 5);
        assert_eq!(b.stats(), uninterrupted.stats());
        assert_eq!(b.mrc().points(), uninterrupted.mrc().points());
    }

    #[test]
    fn restore_rejects_shards_with_different_filters() {
        use crate::checkpoint::{Dec, Enc};
        let cfg = KrrConfig::new(4.0).sampling(0.5);
        let mut enc = Enc::new();
        cfg.save_state(&mut enc);
        enc.put_u64(2);
        KrrModel::new(cfg.clone()).save_state(&mut enc);
        KrrModel::new(cfg.clone().sampling(0.25)).save_state(&mut enc);
        let bytes = enc.into_bytes();
        let err = ShardedKrr::load_state(&mut Dec::new(&bytes)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn load_state_rejects_a_shard_count_beyond_the_payload() {
        use crate::checkpoint::{Dec, Enc};
        let mut enc = Enc::new();
        KrrConfig::new(4.0).save_state(&mut enc);
        enc.put_u64(1 << 40).put_u64(7);
        let bytes = enc.into_bytes();
        let err = ShardedKrr::load_state(&mut Dec::new(&bytes)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn shard_routing_is_stable_and_balanced() {
        let cfg = KrrConfig::new(2.0);
        let sharded = ShardedKrr::new(&cfg, 8);
        let mut counts = [0u32; 8];
        for key in 0..80_000u64 {
            let s = sharded.shard_for(key);
            assert_eq!(s, sharded.shard_for(key));
            counts[s] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let dev = (f64::from(c) - 10_000.0).abs() / 10_000.0;
            assert!(dev < 0.05, "shard {i} holds {c}");
        }
    }

    #[test]
    fn repeated_pipeline_runs_reuse_their_recorder_rings() {
        let refs = skewed(2_000, 4_000, 41);
        let cfg = KrrConfig::new(5.0).seed(8);
        let rec = Arc::new(FlightRecorder::with_capacity(64));
        let mut traced = ShardedKrr::new(&cfg, 4);
        traced.set_recorder(Arc::clone(&rec));
        let mut plain = ShardedKrr::new(&cfg, 4);
        let mut rows_after_first = 0;
        for run in 0..20 {
            traced.process_stream(refs.iter().copied(), 2);
            plain.process_stream(refs.iter().copied(), 2);
            if run == 0 {
                rows_after_first = rec.profiler().thread_totals().len();
            }
        }
        // shard-0..3, merge, router, worker-0, worker-1.
        assert_eq!(rows_after_first, 8);
        assert_eq!(rec.profiler().thread_totals().len(), rows_after_first);
        assert_eq!(traced.mrc().points(), plain.mrc().points());
    }

    #[test]
    fn masked_shard_routing_matches_division() {
        let mut rng = Xoshiro256::seed_from_u64(40);
        let mut hashes: Vec<u64> = (0..2048).map(|_| rng.next_u64()).collect();
        hashes.extend([0, 1, u64::MAX, u64::MAX << 32, u64::MAX >> 32]);
        for n in 1..=64usize {
            for &h in &hashes {
                let expected = ((h >> 32) % n as u64) as usize;
                assert_eq!(shard_of_hash(h, n), expected, "n={n} h={h:#x}");
            }
        }
    }

    #[test]
    fn routing_and_sampling_bits_are_disjoint() {
        // shard_of_hash must ignore the low 24 bits the SpatialFilter
        // consumes: perturbing them never changes the shard.
        for h in [0u64, 0xDEAD_BEEF_0000_0000, u64::MAX << 32] {
            for low in [0u64, 1, 0xFF_FFFF] {
                assert_eq!(shard_of_hash(h, 8), shard_of_hash(h | low, 8));
            }
        }
    }
}
