//! Multi-tenant fleet profiling: thousands of KRR instances in one
//! process, one curve per tenant.
//!
//! The paper's pitch is that KRR is cheap enough to run *everywhere*; a
//! production fleet runs it per tenant, not per process (the motivating
//! scenario of Byrne et al.'s MRC survey). BENCH_space.json puts one KRR
//! instance at R=0.01 around a few hundred kilobytes, so a
//! [`FleetArena`] can host 1000+ tenants in a single process and still fit
//! in tens of megabytes.
//!
//! Design:
//!
//! * **Route once.** An access is `(tenant, key, size)`. The key is hashed
//!   exactly once ([`hash_key`]) and the hash is handed to the tenant's
//!   model ([`KrrModel::access_hashed`]), whose spatial filter consumes its
//!   low bits — the same contract as [`crate::sharded`]. Tenant routing is
//!   an id → slot table lookup, never a second key hash.
//! * **Deterministic seeds.** A tenant's RNG seed is derived from the
//!   *tenant id* (splitmix-mixed into the template seed), not from its
//!   arrival order, so a fleet run is reproducible regardless of which
//!   tenant shows up first — and bit-identical at any thread count.
//! * **Pipeline reuse.** [`FleetArena::process_parallel`] routes
//!   pre-resolved `(slot, key, size, hash)` items through the same
//!   router/worker topology as [`crate::ShardedKrr`]
//!   (`pipeline::run_routed`): slot `s` is owned by worker `s % threads`
//!   and per-slot FIFO order makes results bit-identical to the sequential
//!   [`FleetArena::access`] loop. The router admits each item with its
//!   tenant's own spatial filter and only counts the rejected ones, which
//!   the tenant's model is credited with batch by batch.
//! * **Observability rollup.** [`FleetArena::publish_metrics`] pushes one
//!   [`TenantRow`] per tenant into the attached [`MetricsRegistry`]
//!   (rendered as `tenant.*` JSON, `# tenant` INFO lines, and
//!   `{tenant="..."}`-labeled OpenMetrics series) and rolls per-tenant
//!   [`Footprint`] accounting into the `memory.tenant.*` gauges. A row's
//!   `drift_events`, `mae_ppm` and `shadowed` columns read 0/`false`:
//!   nothing produces them.
//!   [`FleetArena::view`] builds per-tenant MRCs for a [`FleetCell`], the
//!   expo server's `/tenants` and `/mrc?tenant=ID` source; with a cell
//!   attached ([`FleetArena::set_cell`]), `publish_metrics` builds one view
//!   per call and publishes its rows and its MRCs from that one build.
//!
//! ```
//! use krr_core::fleet::{FleetArena, FleetConfig};
//! use krr_core::KrrConfig;
//!
//! let mut fleet = FleetArena::new(FleetConfig::new(KrrConfig::new(5.0).seed(7)));
//! for round in 0..3u64 {
//!     for tenant in 0..16u64 {
//!         for key in 0..200u64 {
//!             fleet.access(tenant, key * (round + 1), 1);
//!         }
//!     }
//! }
//! assert_eq!(fleet.len(), 16);
//! assert!(fleet.tenant_mrc(0).is_some());
//! ```

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::footprint::{map_bytes, Footprint, FootprintReport};
use crate::hashing::hash_key;
use crate::metrics::{MetricsRegistry, TenantRow};
use crate::model::{KrrConfig, KrrModel, ModelStats};
use crate::mrc::Mrc;
use crate::obs::FlightRecorder;
use crate::pipeline::{self, PipelineConfig};
use crate::rng::mix64;

/// Configuration for a [`FleetArena`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Template model configuration; every tenant gets a copy with a seed
    /// derived from its tenant id (see [`FleetConfig::tenant_seed`]).
    pub template: KrrConfig,
    /// Cache-size budget (in objects, or bytes under byte-level sizing) at
    /// which each tenant's summarized miss ratio is evaluated — the
    /// `miss_ratio_ppm` column of [`TenantRow`]. Defaults to 4096.
    pub budget: f64,
}

impl FleetConfig {
    /// Fleet configuration from a template model config.
    #[must_use]
    pub fn new(template: KrrConfig) -> Self {
        Self {
            template,
            budget: 4096.0,
        }
    }

    /// Sets the miss-ratio evaluation budget.
    #[must_use]
    pub fn budget(mut self, budget: f64) -> Self {
        self.budget = budget;
        self
    }

    /// The RNG seed for `tenant`: the template seed XOR a
    /// splitmix64-mixed function of the tenant id. Stable under arrival
    /// order — tenant 42 gets the same seed whether it is the first or the
    /// thousandth to register.
    #[must_use]
    pub fn tenant_seed(&self, tenant: u64) -> u64 {
        self.template.seed ^ mix64(tenant ^ 0xA076_1D64_78BD_642F)
    }
}

/// Per-tenant bookkeeping kept alongside the model (slot-indexed,
/// parallel to `FleetArena::models`).
#[derive(Debug, Clone)]
struct TenantMeta {
    id: u64,
    refs: u64,
}

/// A tenant arena: one lightweight [`KrrModel`] per tenant id, with
/// deterministic routing, per-tenant metrics rows, and fleet-level
/// footprint rollups. See the [module docs](self) for the design.
#[derive(Debug)]
pub struct FleetArena {
    models: Vec<KrrModel>,
    meta: Vec<TenantMeta>,
    index: HashMap<u64, usize>,
    config: FleetConfig,
    metrics: Option<Arc<MetricsRegistry>>,
    recorder: Option<Arc<FlightRecorder>>,
    cell: Option<Arc<FleetCell>>,
}

impl FleetArena {
    /// Creates an empty arena; tenants register on first access.
    #[must_use]
    pub fn new(config: FleetConfig) -> Self {
        Self {
            models: Vec::new(),
            meta: Vec::new(),
            index: HashMap::new(),
            config,
            metrics: None,
            recorder: None,
            cell: None,
        }
    }

    /// The arena's configuration.
    #[must_use]
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Number of registered tenants.
    #[must_use]
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// True when no tenant has registered yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// Registered tenant ids in registration order.
    #[must_use]
    pub fn tenant_ids(&self) -> Vec<u64> {
        self.meta.iter().map(|t| t.id).collect()
    }

    /// True if `tenant` has registered.
    #[must_use]
    pub fn contains(&self, tenant: u64) -> bool {
        self.index.contains_key(&tenant)
    }

    /// Attaches a metrics registry: every tenant model (current and
    /// future) records into it, so the `model`/`updater`/`latency`
    /// sections aggregate the whole fleet, and
    /// [`FleetArena::publish_metrics`] fills the `tenant.*` rows.
    pub fn set_metrics(&mut self, metrics: Arc<MetricsRegistry>) {
        for m in &mut self.models {
            m.set_metrics(Arc::clone(&metrics));
        }
        self.metrics = Some(metrics);
    }

    /// Attaches a flight recorder for pipeline runs (`router` /
    /// `worker-<w>` rings). Tenant models do not get per-model rings — a
    /// thousand rings would observe nothing useful.
    pub fn set_recorder(&mut self, recorder: Arc<FlightRecorder>) {
        self.recorder = Some(recorder);
    }

    /// Attaches the exposition cell: the current view is published into it
    /// now, and [`FleetArena::publish_metrics`] refreshes it.
    pub fn set_cell(&mut self, cell: Arc<FleetCell>) {
        cell.publish(self.view());
        self.cell = Some(cell);
    }

    /// Returns `tenant`'s slot, registering a fresh model (seeded by
    /// [`FleetConfig::tenant_seed`]) on first sight.
    pub fn register(&mut self, tenant: u64) -> usize {
        if let Some(&s) = self.index.get(&tenant) {
            return s;
        }
        let mut cfg = self.config.template.clone();
        cfg.seed = self.config.tenant_seed(tenant);
        let mut model = KrrModel::new(cfg);
        if let Some(reg) = &self.metrics {
            model.set_metrics(Arc::clone(reg));
        }
        let slot = self.models.len();
        self.models.push(model);
        self.meta.push(TenantMeta {
            id: tenant,
            refs: 0,
        });
        self.index.insert(tenant, slot);
        slot
    }

    /// Offers one reference (sequential path): the key is hashed once and
    /// routed to `tenant`'s model.
    pub fn access(&mut self, tenant: u64, key: u64, size: u32) {
        let slot = self.register(tenant);
        self.meta[slot].refs += 1;
        self.models[slot].access_hashed(key, size, hash_key(key));
    }

    /// Processes an in-memory multi-tenant trace of `(tenant, key, size)`
    /// triples with `threads` worker threads, reusing the route-once
    /// batched pipeline: tenants register up front (slot = first-appearance
    /// order; seeds depend only on tenant id), then pre-routed items stream
    /// through the router/worker topology. Bit-identical to the sequential
    /// [`FleetArena::access`] loop at any thread count.
    pub fn process_parallel(&mut self, refs: &[(u64, u64, u32)], threads: usize) {
        for &(tenant, _, _) in refs {
            let s = self.register(tenant);
            self.meta[s].refs += 1;
        }
        if self.models.is_empty() {
            return;
        }
        let cfg = Self::pipeline_config(self.models.len());
        let models = std::mem::take(&mut self.models);
        let index = &self.index;
        self.models = pipeline::run_routed(
            models,
            // Hash 8 keys per call (same ILP lever as the sharded router);
            // hash_keys8 is bit-identical to scalar hash_key per lane.
            refs.chunks(8).flat_map(move |chunk| {
                let n = chunk.len();
                let hashes: [u64; 8] = if n == 8 {
                    crate::hashing::hash_keys8(std::array::from_fn(|i| chunk[i].1))
                } else {
                    std::array::from_fn(|i| hash_key(chunk[i % n].1))
                };
                chunk
                    .iter()
                    .enumerate()
                    .map(move |(i, &(tenant, key, size))| (index[&tenant], key, size, hashes[i]))
            }),
            threads,
            &cfg,
            self.metrics.as_ref(),
            self.recorder.as_ref(),
        );
        self.publish_metrics();
    }

    /// Pipeline tuning for fleet runs: thousands of mostly-cool slots want
    /// much smaller batches than a handful of always-hot shards, or a
    /// skewed tenant mix leaves most references stranded in half-empty
    /// buffers until the end-of-stream flush.
    fn pipeline_config(n_slots: usize) -> PipelineConfig {
        let base = PipelineConfig::default();
        PipelineConfig {
            batch_size: base.batch_size.min(512.max(65_536 / n_slots.max(1))),
            queue_depth: base.queue_depth.max(8),
        }
    }

    /// Aggregate model counters over the whole fleet.
    #[must_use]
    pub fn stats(&self) -> ModelStats {
        let mut total = ModelStats {
            processed: 0,
            sampled: 0,
            distinct: 0,
        };
        for m in &self.models {
            let st = m.stats();
            total.processed += st.processed;
            total.sampled += st.sampled;
            total.distinct += st.distinct;
        }
        total
    }

    /// References routed to `tenant` so far (`None` if unregistered).
    #[must_use]
    pub fn tenant_refs(&self, tenant: u64) -> Option<u64> {
        self.index.get(&tenant).map(|&s| self.meta[s].refs)
    }

    /// `tenant`'s model (`None` if unregistered).
    #[must_use]
    pub fn tenant_model(&self, tenant: u64) -> Option<&KrrModel> {
        self.index.get(&tenant).map(|&s| &self.models[s])
    }

    /// `tenant`'s miss ratio curve (`None` if unregistered).
    #[must_use]
    pub fn tenant_mrc(&self, tenant: u64) -> Option<Mrc> {
        self.tenant_model(tenant).map(KrrModel::mrc)
    }

    fn row(&self, slot: usize, mrc: &Mrc) -> TenantRow {
        let t = &self.meta[slot];
        let m = &self.models[slot];
        TenantRow {
            id: t.id,
            refs: t.refs,
            resident: m.stats().distinct,
            resident_bytes: m.deep_bytes() as u64,
            miss_ratio_ppm: (mrc.eval(self.config.budget) * 1e6).round() as u64,
            // Nothing produces these; the columns stay because the
            // krr-metrics-v1 schema only grows.
            drift_events: 0,
            mae_ppm: 0,
            shadowed: false,
        }
    }

    /// One [`TenantRow`] per tenant, in registration order.
    #[must_use]
    pub fn summary(&self) -> Vec<TenantRow> {
        (0..self.meta.len())
            .map(|s| {
                let mrc = self.models[s].mrc();
                self.row(s, &mrc)
            })
            .collect()
    }

    /// Builds the full exposition view: every tenant's summary row plus
    /// its MRC, ready to publish into a [`FleetCell`].
    #[must_use]
    pub fn view(&self) -> FleetView {
        let mut rows = Vec::with_capacity(self.meta.len());
        let mut mrcs = Vec::with_capacity(self.meta.len());
        for s in 0..self.meta.len() {
            let mrc = self.models[s].mrc();
            rows.push(self.row(s, &mrc));
            mrcs.push((self.meta[s].id, mrc));
        }
        FleetView {
            budget: self.config.budget,
            rows,
            mrcs,
        }
    }

    /// Pushes the per-tenant rows and the fleet footprint rollup into the
    /// attached registry, and a fresh view into the attached cell (each a
    /// no-op when detached). With both attached, each tenant's MRC is built
    /// once for the rows and the view. Called automatically after a
    /// pipeline run; sequential loops call it at their own cadence.
    pub fn publish_metrics(&self) {
        let view = self.cell.as_ref().map(|_| self.view());
        if let Some(reg) = &self.metrics {
            let rows = view.as_ref().map(|v| v.rows.clone());
            reg.tenant_rows.set(rows.unwrap_or_else(|| self.summary()));
            reg.publish_footprint(&self.footprint());
        }
        if let (Some(cell), Some(view)) = (&self.cell, view) {
            cell.publish(view);
        }
    }
}

impl Footprint for FleetArena {
    /// Label-wise sum of every tenant model's footprint plus the tenant
    /// routing index (`tenant_index`).
    fn footprint(&self) -> FootprintReport {
        let mut r = FootprintReport::new();
        for m in &self.models {
            r.merge(&m.footprint());
        }
        r.add(
            "tenant_index",
            map_bytes(self.index.len(), std::mem::size_of::<(u64, usize)>()),
        );
        r
    }
}

/// The fleet view published for exposition: summary rows plus per-tenant
/// MRCs, a point-in-time copy the expo server can serve without touching
/// the (single-writer) arena.
#[derive(Debug, Clone)]
pub struct FleetView {
    /// The budget the rows' miss ratios were evaluated at.
    pub budget: f64,
    /// One summary row per tenant, registration order.
    pub rows: Vec<TenantRow>,
    /// `(tenant id, MRC)` per tenant, registration order.
    pub mrcs: Vec<(u64, Mrc)>,
}

impl FleetView {
    /// The MRC for `tenant`, if present.
    #[must_use]
    pub fn mrc_for(&self, tenant: u64) -> Option<&Mrc> {
        self.mrcs
            .iter()
            .find(|(id, _)| *id == tenant)
            .map(|(_, m)| m)
    }
}

/// Shared slot the profiling side publishes [`FleetView`]s into and the
/// expo server reads from — the fleet analogue of [`crate::expo::MrcCell`].
#[derive(Debug, Default)]
pub struct FleetCell {
    inner: Mutex<Option<FleetView>>,
}

impl FleetCell {
    /// Creates an empty cell (readers see `None` until first publish).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the published view.
    pub fn publish(&self, view: FleetView) {
        *self.inner.lock().expect("fleet cell poisoned") = Some(view);
    }

    /// A copy of the latest view, if any.
    #[must_use]
    pub fn get(&self) -> Option<FleetView> {
        self.inner.lock().expect("fleet cell poisoned").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{memory_rollups, tenant_rollups};
    use crate::rng::Xoshiro256;

    /// Skewed multi-tenant trace: tenant popularity and per-tenant key
    /// popularity both quadratically skewed.
    fn fleet_trace(tenants: u64, keys: u64, n: usize, seed: u64) -> Vec<(u64, u64, u32)> {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let t = rng.unit();
                let u = rng.unit();
                (
                    (t * t * tenants as f64) as u64,
                    (u * u * keys as f64) as u64,
                    1 + (u * 64.0) as u32,
                )
            })
            .collect()
    }

    #[test]
    fn seeds_are_arrival_order_independent() {
        let cfg = FleetConfig::new(KrrConfig::new(5.0).seed(42));
        let mut a = FleetArena::new(cfg.clone());
        let mut b = FleetArena::new(cfg);
        // Same accesses, different first-sight order.
        let refs = [(7u64, 1u64), (3, 1), (7, 2), (3, 2), (9, 1)];
        for &(t, k) in &refs {
            a.access(t, k, 1);
        }
        for &(t, k) in refs.iter().rev() {
            b.access(t, k, 1);
        }
        for t in [3u64, 7, 9] {
            assert_eq!(
                a.tenant_mrc(t).unwrap().points(),
                b.tenant_mrc(t).unwrap().points(),
                "tenant {t}"
            );
        }
    }

    #[test]
    fn parallel_matches_sequential_per_tenant() {
        let refs = fleet_trace(40, 2_000, 60_000, 5);
        let cfg = FleetConfig::new(KrrConfig::new(4.0).seed(9));
        let mut seq = FleetArena::new(cfg.clone());
        for &(t, k, s) in &refs {
            seq.access(t, k, s);
        }
        for threads in [1usize, 2, 4, 8, 16] {
            let mut par = FleetArena::new(cfg.clone());
            par.process_parallel(&refs, threads);
            assert_eq!(par.len(), seq.len());
            for id in seq.tenant_ids() {
                assert_eq!(
                    par.tenant_mrc(id).unwrap().points(),
                    seq.tenant_mrc(id).unwrap().points(),
                    "tenant {id} at {threads} threads"
                );
                assert_eq!(par.tenant_refs(id), seq.tenant_refs(id));
            }
            assert_eq!(par.stats(), seq.stats());
        }
    }

    #[test]
    fn rows_flow_into_registry_and_renderings() {
        let reg = Arc::new(MetricsRegistry::new());
        let mut fleet = FleetArena::new(FleetConfig::new(KrrConfig::new(5.0).seed(3)));
        fleet.set_metrics(Arc::clone(&reg));
        let refs = fleet_trace(12, 500, 8_000, 7);
        fleet.process_parallel(&refs, 2);
        let snap = reg.snapshot();
        assert_eq!(snap.tenant_rows.len(), fleet.len());
        let [_, tenant_refs, ..] = tenant_rollups(&snap.tenant_rows);
        assert_eq!(tenant_refs.value, refs.len() as u64);
        let [_, total, mean, max] = memory_rollups(&snap.tenant_rows).map(|r| r.value);
        assert!(total > 0 && mean > 0 && max >= mean);
        let json = snap.to_json();
        assert!(json.contains("\"tenant\":{\"count\":"), "{json}");
        assert!(json.contains("\"rows\":[{\"id\":"), "{json}");
        assert!(json.contains("\"memory\":{"), "{json}");
        let info = snap.render_info();
        assert!(info.contains("# tenant"), "{info}");
        assert!(info.contains("tenant_total_bytes:"), "{info}");
    }

    #[test]
    fn footprint_covers_models_and_index() {
        let mut fleet = FleetArena::new(FleetConfig::new(KrrConfig::new(5.0).seed(2)));
        for t in 0..8u64 {
            for k in 0..300u64 {
                fleet.access(t, k, 1);
            }
        }
        let r = fleet.footprint();
        assert!(r.get("stack_entries") > 0);
        assert!(r.get("tenant_index") > 0);
        let per_model: usize = (0..8u64)
            .map(|t| fleet.tenant_model(t).unwrap().deep_bytes())
            .sum();
        assert_eq!(r.total(), per_model + r.get("tenant_index"));
    }

    #[test]
    fn fleet_cell_round_trips_views() {
        let mut fleet = FleetArena::new(FleetConfig::new(KrrConfig::new(5.0).seed(4)));
        for t in 0..5u64 {
            for k in 0..100u64 {
                fleet.access(t, k + t, 1);
            }
        }
        let cell = FleetCell::new();
        assert!(cell.get().is_none());
        cell.publish(fleet.view());
        let view = cell.get().unwrap();
        assert_eq!(view.rows.len(), 5);
        assert!(view.mrc_for(3).is_some());
        assert!(view.mrc_for(99).is_none());
        assert_eq!(
            view.mrc_for(3).unwrap().points(),
            fleet.tenant_mrc(3).unwrap().points()
        );
    }

    #[test]
    fn pipeline_runs_refresh_an_attached_cell_with_the_registry_rows() {
        let reg = Arc::new(MetricsRegistry::new());
        let mut fleet = FleetArena::new(FleetConfig::new(KrrConfig::new(5.0).seed(3)));
        fleet.set_metrics(Arc::clone(&reg));
        let cell = Arc::new(FleetCell::new());
        fleet.set_cell(Arc::clone(&cell));
        assert!(cell.get().unwrap().rows.is_empty(), "attaching publishes");
        fleet.process_parallel(&fleet_trace(6, 200, 4_000, 5), 2);
        let view = cell.get().unwrap();
        assert_eq!(view.rows, reg.snapshot().tenant_rows);
        assert_eq!(view.rows, fleet.summary());
        assert_eq!(
            view.mrc_for(2).unwrap().points(),
            fleet.tenant_mrc(2).unwrap().points()
        );
    }

    #[test]
    fn empty_fleet_is_harmless() {
        let mut fleet = FleetArena::new(FleetConfig::new(KrrConfig::new(5.0)));
        fleet.process_parallel(&[], 4);
        assert!(fleet.is_empty());
        assert_eq!(fleet.summary().len(), 0);
        assert!(fleet.tenant_mrc(0).is_none());
    }
}
