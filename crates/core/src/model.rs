//! The end-to-end KRR profiler: one-pass MRC construction for K-LRU caches.
//!
//! [`KrrModel`] wires together the pieces of §4: the KRR stack with a
//! configurable update strategy, the `K′ = K^1.4` recency correction, the
//! SHARDS-style spatial sampling front-end, the optional byte-level
//! `sizeArray`, and the stack-distance histogram from which the MRC is read.

use crate::checkpoint::{CheckpointReader, CheckpointWriter, Dec, Enc, SECTION_MODEL};
use crate::footprint::Footprint;
use crate::histogram::SdHistogram;
use crate::metrics::MetricsRegistry;
use crate::mrc::Mrc;
use crate::obs::{Phase, ThreadRecorder, DEEP_CHAIN_THRESHOLD};
use crate::prob::k_prime;
use crate::sampling::SpatialFilter;
use crate::sizearray::SizeArray;
use crate::stack::KrrStack;
use crate::update::UpdaterKind;
use std::sync::Arc;

/// Granularity of stack distances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeMode {
    /// Every object counts as one unit; MRC x-axis is object count.
    Uniform,
    /// Byte-level distances via a `sizeArray` with the given logarithmic
    /// base (§4.4.1); MRC x-axis is bytes.
    ByteLevel {
        /// Logarithmic base of the sizeArray (paper uses 2).
        base: u64,
    },
}

/// Configuration for a [`KrrModel`].
#[derive(Debug, Clone)]
pub struct KrrConfig {
    /// Sampling size `K` of the K-LRU cache being modeled.
    pub k: f64,
    /// Exponent of the K′ correction (§4.2); the model updates the stack
    /// with `K′ = K^kprime_exponent`. The paper found 1.4 accurate.
    pub kprime_exponent: f64,
    /// Disable to run the stack with raw `K` (used by the ablation bench).
    pub apply_kprime: bool,
    /// Stack update strategy.
    pub updater: UpdaterKind,
    /// Spatial sampling rate `R ∈ (0, 1]`; 1.0 disables sampling.
    pub sampling_rate: f64,
    /// Apply the SHARDS-adj count correction under spatial sampling
    /// (compensates hot-key sampling bias; default true).
    pub spatial_adjustment: bool,
    /// RNG seed for the stack updates.
    pub seed: u64,
    /// Distance granularity.
    pub size_mode: SizeMode,
    /// Histogram bin width in distance units (1 for exact object
    /// histograms; larger for byte histograms).
    pub bin_width: u64,
}

impl KrrConfig {
    /// Configuration modeling a K-LRU cache with sampling size `k`, with the
    /// paper's defaults: backward update, K′ correction on, no spatial
    /// sampling, uniform sizes.
    #[must_use]
    pub fn new(k: f64) -> Self {
        assert!(k >= 1.0, "sampling size must be >= 1");
        Self {
            k,
            kprime_exponent: 1.4,
            apply_kprime: true,
            updater: UpdaterKind::Backward,
            sampling_rate: 1.0,
            spatial_adjustment: true,
            seed: 0x5EED,
            size_mode: SizeMode::Uniform,
            bin_width: 1,
        }
    }

    /// Sets the stack update strategy.
    #[must_use]
    pub fn updater(mut self, updater: UpdaterKind) -> Self {
        self.updater = updater;
        self
    }

    /// Enables spatial sampling at rate `r`.
    #[must_use]
    pub fn sampling(mut self, r: f64) -> Self {
        self.sampling_rate = r;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Switches to byte-level distances with sizeArray base `base` and the
    /// given histogram bin width in bytes.
    #[must_use]
    pub fn byte_level(mut self, base: u64, bin_width: u64) -> Self {
        self.size_mode = SizeMode::ByteLevel { base };
        self.bin_width = bin_width;
        self
    }

    /// Disables the K′ correction (stack runs with raw `K`).
    #[must_use]
    pub fn raw_k(mut self) -> Self {
        self.apply_kprime = false;
        self
    }

    /// Overrides the K′ exponent.
    #[must_use]
    pub fn kprime_exponent(mut self, e: f64) -> Self {
        self.kprime_exponent = e;
        self
    }

    /// The effective sampling size the stack will use.
    #[must_use]
    pub fn effective_k(&self) -> f64 {
        if self.apply_kprime {
            k_prime(self.k, self.kprime_exponent)
        } else {
            self.k
        }
    }

    /// Serializes the configuration into a `krr-ckpt-v1` payload.
    pub fn save_state(&self, enc: &mut Enc) {
        enc.put_f64(self.k)
            .put_f64(self.kprime_exponent)
            .put_u8(u8::from(self.apply_kprime))
            .put_u8(self.updater.to_tag())
            .put_f64(self.sampling_rate)
            .put_u8(u8::from(self.spatial_adjustment))
            .put_u64(self.seed);
        match self.size_mode {
            SizeMode::Uniform => enc.put_u8(0).put_u64(0),
            SizeMode::ByteLevel { base } => enc.put_u8(1).put_u64(base),
        };
        enc.put_u64(self.bin_width);
    }

    /// Reconstructs a configuration from a [`KrrConfig::save_state`]
    /// payload.
    pub fn load_state(dec: &mut Dec<'_>) -> std::io::Result<Self> {
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
        let k = dec.f64()?;
        let kprime_exponent = dec.f64()?;
        let apply_kprime = dec.u8()? != 0;
        let updater = UpdaterKind::from_tag(dec.u8()?).ok_or_else(|| bad("unknown updater tag"))?;
        let sampling_rate = dec.f64()?;
        let spatial_adjustment = dec.u8()? != 0;
        let seed = dec.u64()?;
        let mode_tag = dec.u8()?;
        let base = dec.u64()?;
        let size_mode = match mode_tag {
            0 => SizeMode::Uniform,
            1 => SizeMode::ByteLevel { base },
            _ => return Err(bad("unknown size-mode tag")),
        };
        let bin_width = dec.u64()?;
        Ok(Self {
            k,
            kprime_exponent,
            apply_kprime,
            updater,
            sampling_rate,
            spatial_adjustment,
            seed,
            size_mode,
            bin_width,
        })
    }
}

/// Counters describing a completed (or in-progress) profiling run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelStats {
    /// References offered to the model.
    pub processed: u64,
    /// References admitted by the spatial filter.
    pub sampled: u64,
    /// Distinct sampled objects (stack length).
    pub distinct: u64,
}

/// One-pass K-LRU MRC profiler.
#[derive(Debug)]
pub struct KrrModel {
    config: KrrConfig,
    filter: SpatialFilter,
    stack: KrrStack,
    sizes: Option<SizeArray>,
    hist: SdHistogram,
    processed: u64,
    sampled: u64,
    // Deepest stack position any re-reference has hit — a transient
    // observability gauge (per-shard depth high-water mark), deliberately
    // not checkpointed.
    deepest_phi: u64,
    metrics: Option<Arc<MetricsRegistry>>,
    recorder: Option<ThreadRecorder>,
}

impl Clone for KrrModel {
    /// Clones the model state. The flight-recorder handle is NOT cloned
    /// (a ring has exactly one writer); the clone starts detached.
    fn clone(&self) -> Self {
        Self {
            config: self.config.clone(),
            filter: self.filter,
            stack: self.stack.clone(),
            sizes: self.sizes.clone(),
            hist: self.hist.clone(),
            processed: self.processed,
            sampled: self.sampled,
            deepest_phi: self.deepest_phi,
            metrics: self.metrics.clone(),
            recorder: None,
        }
    }
}

/// What an admitted reference did to the stack; feeds the metrics layer
/// without re-deriving state from the stack.
enum Outcome {
    Hit,
    Cold,
}

impl KrrModel {
    /// Creates a profiler from a configuration.
    #[must_use]
    pub fn new(config: KrrConfig) -> Self {
        let filter = if config.sampling_rate >= 1.0 {
            SpatialFilter::all()
        } else {
            SpatialFilter::with_rate(config.sampling_rate)
        };
        let mut stack = KrrStack::new(config.effective_k(), config.updater, config.seed);
        let sizes = match config.size_mode {
            SizeMode::Uniform => None,
            SizeMode::ByteLevel { base } => Some(SizeArray::new(base)),
        };
        // Only the sizeArray reads per-chain pre-update sizes; skip
        // gathering them in uniform mode.
        stack.set_record_chain_sizes(sizes.is_some());
        let hist = SdHistogram::new(config.bin_width);
        Self {
            config,
            filter,
            stack,
            sizes,
            hist,
            processed: 0,
            sampled: 0,
            deepest_phi: 0,
            metrics: None,
            recorder: None,
        }
    }

    /// Attaches a metrics registry; subsequent accesses record into it.
    /// The default (detached) hot path costs one branch.
    pub fn set_metrics(&mut self, metrics: Arc<MetricsRegistry>) {
        self.metrics = Some(metrics);
    }

    /// The attached metrics registry, if any.
    #[must_use]
    pub fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.metrics.as_ref()
    }

    /// Attaches a flight-recorder handle; subsequent stack updates record
    /// sampled [`Phase::StackUpdate`] spans (1 in 16) and unconditional
    /// [`Phase::DeepUpdate`] markers for swap chains reaching
    /// [`DEEP_CHAIN_THRESHOLD`]. Tracing observes the model without
    /// touching its state, RNG, or reference order — the MRC is
    /// bit-identical with or without a recorder. The default (detached)
    /// hot path costs one branch.
    pub fn set_recorder(&mut self, recorder: ThreadRecorder) {
        self.recorder = Some(recorder);
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &KrrConfig {
        &self.config
    }

    /// Offers one reference to the model. `size` is the object size in
    /// bytes; pass 1 (or use [`KrrModel::access_key`]) for uniform-size
    /// workloads. Zero sizes are clamped to 1 byte.
    pub fn access(&mut self, key: u64, size: u32) {
        self.access_hashed(key, size, crate::hashing::hash_key(key));
    }

    /// [`KrrModel::access`] for a key whose [`crate::hashing::hash_key`]
    /// value is already known. The sharded router hashes each key once for
    /// routing and passes the hash through here, so the spatial filter does
    /// not hash a second time. `key_hash` MUST equal `hash_key(key)` —
    /// anything else silently corrupts the spatial sample.
    pub fn access_hashed(&mut self, key: u64, size: u32, key_hash: u64) {
        if self.filter.admits_hashed(key_hash) {
            self.access_sampled(key, size);
        } else {
            self.credit_rejected(1);
        }
    }

    /// Counts `n` references the spatial filter rejected: they advance
    /// `processed` and the `accesses`/`spatial_rejected` counters but never
    /// reach the stack. The pipeline router admits references itself and
    /// credits each shard's rejections here in bulk, once per batch, so a
    /// model's counters do not depend on which path fed it.
    pub(crate) fn credit_rejected(&mut self, n: u64) {
        self.processed += n;
        if let Some(m) = self.metrics.as_ref() {
            m.accesses.add(n);
            m.spatial_rejected.add(n);
        }
    }

    /// One admitted reference, with its metrics and trace span when
    /// attached.
    fn access_sampled(&mut self, key: u64, size: u32) {
        if self.metrics.is_none() && self.recorder.is_none() {
            self.touch(key, size);
            return;
        }
        // Timing is sampled 1-in-64 admitted references: the clock read
        // costs about as much as a shallow update itself, so timing every
        // access would violate the <=5% overhead budget the metrics layer
        // is held to. Traced stack updates are sampled 1-in-16 for the same
        // reason — a span costs two clock reads — with deep chains always
        // marked (clock read only on the rare deep path). Keying both on
        // the admitted count makes them independent of where rejected
        // references were filtered.
        let timed = self.metrics.is_some() && self.sampled & 63 == 0;
        let t0 = timed.then(std::time::Instant::now);
        let traced = self.sampled & 15 == 0;
        let r0 = if traced {
            self.recorder.as_ref().map(ThreadRecorder::now_ns)
        } else {
            None
        };
        let outcome = self.touch(key, size);
        if let Some(m) = self.metrics.as_ref() {
            m.accesses.inc();
            match outcome {
                Outcome::Hit => m.hits.inc(),
                Outcome::Cold => m.cold_misses.inc(),
            }
            m.chain_len.record(self.stack.last_chain().len() as u64);
            m.positions_scanned.record(self.stack.last_scanned());
            if let Some(t0) = t0 {
                m.access_ns.record(t0.elapsed().as_nanos() as u64);
            }
        }
        if let Some(rec) = self.recorder.as_ref() {
            let chain = self.stack.last_chain().len() as u64;
            if let Some(r0) = r0 {
                rec.record_since(Phase::StackUpdate, r0, chain);
            } else if chain >= DEEP_CHAIN_THRESHOLD {
                rec.mark(Phase::DeepUpdate, chain);
            }
        }
    }

    /// Offers a batch of `(key, size, key_hash)` references. Bit-identical
    /// to calling [`KrrModel::access_hashed`] per element in order:
    /// batching only restructures admission (8-wide branchless masks via
    /// [`SpatialFilter::admits_hashed8`], skipped entirely at rate 1.0),
    /// while stack accesses — the only RNG consumers — still happen one at
    /// a time in reference order.
    ///
    /// The sharded pipeline does not filter here: its router admits each
    /// reference before buffering it, so workers only ever receive sampled
    /// references and apply them without a second test, crediting the
    /// router's per-shard rejected counts in bulk.
    pub fn access_batch(&mut self, refs: &[(u64, u32, u64)]) {
        if self.filter.admits_all() {
            self.access_admitted(refs);
            return;
        }
        let mut chunks = refs.chunks_exact(8);
        for chunk in &mut chunks {
            let hashes: [u64; 8] = std::array::from_fn(|i| chunk[i].2);
            let mut mask = self.filter.admits_hashed8(&hashes);
            self.credit_rejected(u64::from(mask.count_zeros()));
            // Drain set bits lowest-first: admitted references hit the
            // stack in their original order, preserving the RNG stream.
            while mask != 0 {
                let i = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                self.access_sampled(chunk[i].0, chunk[i].1);
            }
        }
        for &(key, size, key_hash) in chunks.remainder() {
            self.access_hashed(key, size, key_hash);
        }
    }

    /// Applies references the spatial filter already admitted, in order —
    /// the pipeline worker's entry point.
    pub(crate) fn access_admitted(&mut self, refs: &[(u64, u32, u64)]) {
        if self.metrics.is_some() || self.recorder.is_some() || self.sizes.is_some() {
            for &(key, size, _) in refs {
                self.access_sampled(key, size);
            }
            return;
        }
        self.processed += refs.len() as u64;
        self.sampled += refs.len() as u64;
        for &(key, _, _) in refs {
            self.touch_uniform(key);
        }
    }

    /// One admitted uniform-size stack access: the shared tail of the
    /// scalar and batched paths.
    #[inline]
    fn touch_uniform(&mut self, key: u64) -> Outcome {
        match self.stack.access(key, 1) {
            crate::stack::Access::Hit { phi } => {
                self.deepest_phi = self.deepest_phi.max(phi);
                self.hist.record(phi);
                Outcome::Hit
            }
            crate::stack::Access::Cold { .. } => {
                self.hist.record_cold();
                Outcome::Cold
            }
        }
    }

    /// Counts and applies one admitted reference.
    fn touch(&mut self, key: u64, size: u32) -> Outcome {
        self.processed += 1;
        self.sampled += 1;
        let size = size.max(1);
        match self.sizes {
            None => self.touch_uniform(key),
            Some(ref mut sa) => {
                match self.stack.position_of(key) {
                    Some(phi) => {
                        self.deepest_phi = self.deepest_phi.max(phi);
                        // Byte distance reflects the cache state before this
                        // access, so compute it before any resize.
                        let d = sa.distance(phi).max(1);
                        let old = self.stack.entry_at(phi).expect("indexed entry").size;
                        sa.on_resize(phi, old, size);
                        self.stack.access(key, size);
                        sa.apply(
                            self.stack.last_chain(),
                            self.stack.last_chain_sizes(),
                            phi,
                            size,
                        );
                        self.hist.record(d);
                        Outcome::Hit
                    }
                    None => {
                        let acc = self.stack.access(key, size);
                        sa.on_insert(size);
                        sa.apply(
                            self.stack.last_chain(),
                            self.stack.last_chain_sizes(),
                            acc.phi(),
                            size,
                        );
                        self.hist.record_cold();
                        Outcome::Cold
                    }
                }
            }
        }
    }

    /// Offers a uniform-size reference.
    pub fn access_key(&mut self, key: u64) {
        self.access(key, 1);
    }

    /// The miss ratio curve observed so far. Cache sizes are objects (or
    /// bytes in byte-level mode); under spatial sampling the x-axis is
    /// already expanded by `1/R` to full-trace scale and the SHARDS-adj
    /// count correction is applied (unless disabled in the config).
    #[must_use]
    pub fn mrc(&self) -> Mrc {
        let rate = self.filter.rate();
        let mut mrc = if rate < 1.0 && self.config.spatial_adjustment {
            let mut hist = self.hist.clone();
            let expected = (self.processed as f64 * rate).round() as i64;
            hist.apply_count_adjustment(expected - self.sampled as i64);
            Mrc::from_histogram(&hist, self.filter.scale())
        } else {
            Mrc::from_histogram(&self.hist, self.filter.scale())
        };
        mrc.make_monotone();
        mrc
    }

    /// The raw stack-distance histogram (sampled space).
    #[must_use]
    pub fn histogram(&self) -> &SdHistogram {
        &self.hist
    }

    /// Run counters.
    #[must_use]
    pub fn stats(&self) -> ModelStats {
        ModelStats {
            processed: self.processed,
            sampled: self.sampled,
            distinct: self.stack.len() as u64,
        }
    }

    /// The spatial filter (the pipeline router admits with it).
    pub(crate) fn filter(&self) -> SpatialFilter {
        self.filter
    }

    /// Effective sampling rate of the spatial filter.
    #[must_use]
    pub fn sampling_rate(&self) -> f64 {
        self.filter.rate()
    }

    /// Deepest stack position any re-reference has hit so far (0 before
    /// the first hit). Feeds the per-shard stack-depth high-water gauge;
    /// transient — not part of checkpoints, resets to 0 on restore.
    #[must_use]
    pub fn deepest_hit(&self) -> u64 {
        self.deepest_phi
    }

    /// Heap footprint of the whole profiler in bytes (§5.6):
    /// [`Footprint::footprint`]'s total.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.footprint().total()
    }

    /// Serializes the full model state — config, spatial filter, stack
    /// (entries + RNG stream), optional sizeArray, histogram, and the
    /// processed/sampled counters — into a `krr-ckpt-v1` payload. Everything
    /// that influences future outputs is captured, so a restored model
    /// continues *bit-identically*: feeding it the remaining trace yields
    /// the same MRC as an uninterrupted run.
    pub fn save_state(&self, enc: &mut Enc) {
        self.config.save_state(enc);
        enc.put_u64(self.filter.threshold())
            .put_u64(self.filter.modulus());
        self.stack.save_state(enc);
        match &self.sizes {
            None => {
                enc.put_u8(0);
            }
            Some(sa) => {
                enc.put_u8(1);
                sa.save_state(enc);
            }
        }
        self.hist.save_state(enc);
        enc.put_u64(self.processed).put_u64(self.sampled);
    }

    /// Reconstructs a model from a [`KrrModel::save_state`] payload. The
    /// restored model starts with no metrics registry or flight recorder
    /// attached — re-attach them with [`KrrModel::set_metrics`] /
    /// [`KrrModel::set_recorder`] if observability should continue.
    pub fn load_state(dec: &mut Dec<'_>) -> std::io::Result<Self> {
        let config = KrrConfig::load_state(dec)?;
        let filter = SpatialFilter::new(dec.u64()?, dec.u64()?);
        let mut stack = KrrStack::load_state(dec)?;
        let sizes = match dec.u8()? {
            0 => None,
            _ => Some(SizeArray::load_state(dec)?),
        };
        stack.set_record_chain_sizes(sizes.is_some());
        let hist = SdHistogram::load_state(dec)?;
        let processed = dec.u64()?;
        let sampled = dec.u64()?;
        Ok(Self {
            config,
            filter,
            stack,
            sizes,
            hist,
            processed,
            sampled,
            deepest_phi: 0,
            metrics: None,
            recorder: None,
        })
    }

    /// Writes a standalone `krr-ckpt-v1` checkpoint (one `MODL` section) to
    /// `w`. See [`crate::checkpoint`] for the container format and
    /// [`KrrModel::save_state`] for what is captured.
    pub fn checkpoint<W: std::io::Write>(&self, w: W) -> std::io::Result<()> {
        let mut ckpt = CheckpointWriter::new();
        self.save_state(ckpt.section(SECTION_MODEL));
        ckpt.write_to(w)
    }

    /// Restores a model from a checkpoint written by
    /// [`KrrModel::checkpoint`], validating magic, version, and section
    /// CRCs.
    pub fn restore<R: std::io::Read>(r: R) -> std::io::Result<Self> {
        let ckpt = CheckpointReader::read_from(r)?;
        Self::load_state(&mut ckpt.require(SECTION_MODEL)?)
    }
}

impl Footprint for KrrModel {
    /// Stack + key index + histogram + optional sizeArray, with the
    /// per-field breakdown the footprint gauges publish.
    fn footprint(&self) -> crate::footprint::FootprintReport {
        let mut r = self.stack.footprint();
        r.merge(&self.hist.footprint());
        if let Some(sa) = &self.sizes {
            r.merge(&sa.footprint());
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    #[test]
    fn effective_k_applies_correction() {
        let cfg = KrrConfig::new(4.0);
        assert!((cfg.effective_k() - 4f64.powf(1.4)).abs() < 1e-12);
        assert_eq!(KrrConfig::new(4.0).raw_k().effective_k(), 4.0);
        assert_eq!(KrrConfig::new(1.0).effective_k(), 1.0);
    }

    #[test]
    fn cyclic_scan_is_all_cold_then_all_hits_at_full_size() {
        let mut m = KrrModel::new(KrrConfig::new(4.0));
        for _ in 0..3 {
            for key in 0..500u64 {
                m.access_key(key);
            }
        }
        let stats = m.stats();
        assert_eq!(stats.processed, 1500);
        assert_eq!(stats.distinct, 500);
        let mrc = m.mrc();
        // A cache holding the whole working set misses only the 500 colds.
        let expect = 500.0 / 1500.0;
        assert!((mrc.eval(500.0) - expect).abs() < 1e-9);
        assert_eq!(mrc.eval(0.0), 1.0);
    }

    #[test]
    fn zipf_like_reuse_produces_decreasing_mrc() {
        let mut m = KrrModel::new(KrrConfig::new(8.0));
        let mut rng = Xoshiro256::seed_from_u64(4);
        for _ in 0..50_000 {
            // Squared-uniform skews toward small keys.
            let u = rng.unit();
            let key = (u * u * 1000.0) as u64;
            m.access_key(key);
        }
        let mrc = m.mrc();
        assert!(mrc.eval(10.0) > mrc.eval(100.0));
        assert!(mrc.eval(100.0) > mrc.eval(1000.0));
    }

    #[test]
    fn sampled_model_tracks_full_model() {
        let mut full = KrrModel::new(KrrConfig::new(4.0));
        let mut sampled = KrrModel::new(KrrConfig::new(4.0).sampling(0.05));
        let mut rng = Xoshiro256::seed_from_u64(77);
        let keys = 200_000u64;
        for _ in 0..400_000 {
            let u = rng.unit();
            let key = (u * u * keys as f64) as u64;
            full.access_key(key);
            sampled.access_key(key);
        }
        assert!(sampled.stats().sampled < full.stats().sampled / 10);
        let sizes = crate::mrc::even_sizes(keys as f64, 20);
        // ~7.5K sampled objects here; SHARDS error scales as 1/sqrt(n_s),
        // so allow a little more than the paper's 8K-object guard implies.
        let mae = full.mrc().mae(&sampled.mrc(), &sizes);
        assert!(mae < 0.04, "spatially sampled MRC deviates by {mae}");
    }

    #[test]
    fn byte_level_mode_records_byte_distances() {
        let mut m = KrrModel::new(KrrConfig::new(4.0).byte_level(2, 64));
        for key in 0..100u64 {
            m.access(key, 128);
        }
        for key in 0..100u64 {
            m.access(key, 128);
        }
        let mrc = m.mrc();
        // 100 cold + 100 hits at byte distance <= 12800.
        assert!((mrc.eval(12800.0) - 0.5).abs() < 1e-9);
        assert_eq!(mrc.eval(63.0), 1.0);
    }

    #[test]
    fn zero_size_clamped() {
        let mut m = KrrModel::new(KrrConfig::new(2.0).byte_level(2, 1));
        m.access(1, 0);
        m.access(1, 0);
        assert_eq!(m.histogram().total(), 2);
    }

    #[test]
    fn checkpoint_restore_is_bit_identical() {
        for cfg in [
            KrrConfig::new(4.0).sampling(0.5).seed(11),
            KrrConfig::new(8.0).byte_level(2, 64).seed(12),
        ] {
            let mut a = KrrModel::new(cfg);
            let mut rng = Xoshiro256::seed_from_u64(21);
            for _ in 0..20_000 {
                a.access(rng.below(2000), (rng.below(100) + 1) as u32);
            }
            let mut bytes = Vec::new();
            a.checkpoint(&mut bytes).unwrap();
            let mut b = KrrModel::restore(&bytes[..]).unwrap();
            for _ in 0..20_000 {
                let key = rng.below(2000);
                let size = (rng.below(100) + 1) as u32;
                a.access(key, size);
                b.access(key, size);
            }
            assert_eq!(a.stats(), b.stats());
            assert_eq!(a.mrc().points(), b.mrc().points());
        }
    }

    #[test]
    fn access_batch_matches_scalar_path() {
        // Both with and without spatial sampling, through ragged chunk
        // sizes (so the 8-wide body and the scalar remainder both run).
        for rate in [1.0, 0.3, 0.01] {
            let cfg = KrrConfig::new(5.0).sampling(rate).seed(9);
            let mut a = KrrModel::new(cfg.clone());
            let mut b = KrrModel::new(cfg);
            let mut rng = Xoshiro256::seed_from_u64(8);
            let refs: Vec<(u64, u32, u64)> = (0..10_013)
                .map(|_| {
                    let key = rng.below(700);
                    (key, 1u32, crate::hashing::hash_key(key))
                })
                .collect();
            for &(key, size, hash) in &refs {
                a.access_hashed(key, size, hash);
            }
            for chunk in refs.chunks(97) {
                b.access_batch(chunk);
            }
            assert_eq!(a.stats(), b.stats(), "rate {rate}");
            assert_eq!(a.mrc().points(), b.mrc().points(), "rate {rate}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut m = KrrModel::new(KrrConfig::new(3.0).seed(seed));
            let mut rng = Xoshiro256::seed_from_u64(5);
            for _ in 0..20_000 {
                m.access_key(rng.below(1000));
            }
            m.mrc()
        };
        assert_eq!(run(1).points(), run(1).points());
    }
}
