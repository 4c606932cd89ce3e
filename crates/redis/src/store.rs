//! MiniRedis: an in-memory KV store reproducing Redis's approximated-LRU
//! eviction machinery (§5.7's validation target).
//!
//! Faithful pieces:
//!
//! * `maxmemory` accounting in bytes with a per-entry overhead,
//! * a 24-bit LRU clock with configurable resolution and wraparound
//!   (`estimateObjectIdleTime` semantics),
//! * the 16-entry **eviction pool** of `evict.c`: on each eviction cycle,
//!   `maxmemory-samples` keys are sampled and merged into a pool kept
//!   sorted by idle time; the best (most idle) live candidate is evicted.
//!   The pool persists across evictions, which is what lets a small sample
//!   size approximate LRU well,
//! * two sampling backends: the default *clustered* bucket walk
//!   (`dictGetSomeKeys`) and the fair `dictGetRandomKey` loop the paper's
//!   footnote 3 discusses.
//!
//! Online profiling runs one step behind the GETs it observes. A GET does
//! the lookup and the hit/miss counters, then, if the store has a profiler
//! or a fleet arena, appends `(tenant, key, size)` to a FIFO;
//! [`MiniRedis::apply_profile_queue`] later feeds each
//! queued GET, in order, to the KRR profiler and the fleet arena, and runs
//! the exposition refresh on every [`EXPO_REFRESH_EVERY`]th GET — exactly
//! what a GET did inline before. The server applies the queue after
//! writing a burst's replies; every reader of profiler state
//! (`mrc_profile`, `publish_footprint`, `fleet`, `save_checkpoint`)
//! applies it first, and a GET applies it inline once it holds
//! [`PROFILE_QUEUE_CAP`] entries. So every curve, view and checkpoint
//! equals the inline profile's; only registry counters the profiler
//! writes (`model`/`shards`/`updater` rows) advance at each drain instead
//! of at each GET.
//!
//! Each `model.accesses`/`hits`/`cold_misses` row has one writer: the KRR
//! profiler's shard models when profiling is on, otherwise the GET path.
//! The fleet arena's tenant models never write into the store registry;
//! the store publishes only their `tenant.*` rows.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::dict::Dict;
use krr_core::checkpoint::{
    CheckpointReader, CheckpointWriter, Dec, Enc, SECTION_METRICS, SECTION_SHARDED, SECTION_STORE,
};
use krr_core::fleet::{FleetArena, FleetCell, FleetConfig};
use krr_core::metrics::{MetricsRegistry, MetricsSnapshot, TenantRow};
use krr_core::model::KrrConfig;
use krr_core::mrc::Mrc;
use krr_core::obs::FlightRecorder;
use krr_core::sharded::ShardedKrr;
use krr_trace::{Op, Request};

/// How eviction candidates are sampled from the keyspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingMode {
    /// `dictGetSomeKeys`: fast clustered bucket walk (Redis default).
    ClusteredWalk,
    /// Repeated `dictGetRandomKey`: slower, near-uniform sampling.
    UniformRandom,
}

/// Size of Redis's eviction pool (`EVPOOL_SIZE`).
pub const EVICTION_POOL_SIZE: usize = 16;
/// GETs between periodic exposition refreshes (MRC cell + footprint
/// gauges) while an expo consumer is attached.
pub const EXPO_REFRESH_EVERY: u64 = 10_000;
/// Queued GETs at which a GET applies the profile queue inline, so an
/// in-process replay or a flood that never reaches a drain point stays
/// bounded: about the GETs in one 8 KiB read buffer.
pub const PROFILE_QUEUE_CAP: usize = 256;
/// Width of the LRU clock in bits (`LRU_BITS`).
pub const LRU_BITS: u32 = 24;
const LRU_CLOCK_MAX: u64 = (1 << LRU_BITS) - 1;

#[derive(Debug, Clone, Copy)]
struct Entry {
    size: u32,
    /// Truncated 24-bit LRU timestamp.
    lru: u32,
}

/// A GET waiting for the profiler: 24 bytes.
#[derive(Debug, Clone, Copy)]
struct QueuedGet {
    key: u64,
    /// Meaningful only when `has_tenant` is set.
    tenant: u64,
    /// Size fed to the profiler: the stored size on a hit, 1 on a miss.
    size: u32,
    has_tenant: bool,
}

#[derive(Debug, Clone, Copy)]
struct PoolSlot {
    key: u64,
    idle: u64,
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// GETs that found the key.
    pub hits: u64,
    /// GETs that did not.
    pub misses: u64,
    /// Keys evicted to stay under `maxmemory`.
    pub evictions: u64,
}

impl StoreStats {
    /// Miss ratio over GETs.
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// A miniature Redis with `maxmemory-policy allkeys-lru`.
#[derive(Debug)]
pub struct MiniRedis {
    dict: Dict<Entry>,
    maxmemory: u64,
    used_memory: u64,
    samples: usize,
    mode: SamplingMode,
    pool: Vec<PoolSlot>,
    /// Logical request counter driving the LRU clock: one request is one
    /// clock unit (Redis uses wall-clock seconds; a trace-driven store
    /// uses request counts).
    ticks: u64,
    stats: StoreStats,
    scratch: Vec<(u64, Entry)>,
    /// Dict hash seed, remembered so a BGSAVE checkpoint can rebuild the
    /// keyspace with the same bucket layout family.
    seed: u64,
    /// Where `BGSAVE` writes its checkpoint, if configured.
    checkpoint_path: Option<PathBuf>,
    metrics: Arc<MetricsRegistry>,
    /// Optional online MRC profiler fed by the GET stream.
    profiler: Option<ShardedKrr>,
    /// Optional flight recorder shared with the profiler.
    recorder: Option<Arc<FlightRecorder>>,
    /// Live-MRC cell for the exposition server; refreshed every
    /// [`EXPO_REFRESH_EVERY`] GETs while profiling is enabled.
    mrc_cell: Option<Arc<krr_core::expo::MrcCell>>,
    /// Optional multi-tenant profiling arena, fed by GETs on connections
    /// that selected a tenant (`TENANT` command).
    fleet: Option<FleetArena>,
    /// Published fleet view for the exposition server's `/tenants` and
    /// `/mrc?tenant=` endpoints; refreshed with the MRC cell.
    fleet_cell: Option<Arc<FleetCell>>,
    /// GETs not yet applied to the profilers, oldest first (at most
    /// [`PROFILE_QUEUE_CAP`]). Store plumbing, outside the profiler's
    /// footprint.
    profile_queue: Vec<QueuedGet>,
}

impl MiniRedis {
    /// Creates a store with `maxmemory` bytes, `maxmemory-samples = samples`
    /// (Redis defaults to 5), and the default clustered sampling.
    #[must_use]
    pub fn new(maxmemory: u64, samples: usize, seed: u64) -> Self {
        Self::with_mode(maxmemory, samples, SamplingMode::ClusteredWalk, seed)
    }

    /// Creates a store with an explicit sampling backend.
    #[must_use]
    pub fn with_mode(maxmemory: u64, samples: usize, mode: SamplingMode, seed: u64) -> Self {
        assert!(maxmemory > 0 && samples >= 1);
        Self {
            dict: Dict::new(seed),
            maxmemory,
            used_memory: 0,
            samples,
            mode,
            pool: Vec::with_capacity(EVICTION_POOL_SIZE),
            ticks: 0,
            stats: StoreStats::default(),
            scratch: Vec::new(),
            seed,
            checkpoint_path: None,
            metrics: Arc::new(MetricsRegistry::new()),
            profiler: None,
            recorder: None,
            mrc_cell: None,
            fleet: None,
            fleet_cell: None,
            profile_queue: Vec::new(),
        }
    }

    /// Turns on online MRC profiling: a sharded KRR bank observes every GET
    /// (the read stream a cache's miss ratio is defined over) and shares the
    /// store's metrics registry, so INFO/METRICS expose the profiler's
    /// shard and pipeline counters. `shards` >= 1.
    pub fn enable_mrc_profiling(&mut self, config: &KrrConfig, shards: usize) {
        self.apply_profile_queue();
        let mut bank = ShardedKrr::new(config, shards);
        bank.set_metrics(Arc::clone(&self.metrics));
        if let Some(rec) = &self.recorder {
            bank.set_recorder(Arc::clone(rec));
        }
        self.profiler = Some(bank);
    }

    /// Turns on multi-tenant fleet profiling: a per-tenant KRR arena
    /// observes GETs issued on connections that selected a tenant with the
    /// `TENANT` command, alongside (not instead of) the aggregate profiler.
    /// Tenants materialize lazily at their first reference. The tenant
    /// models keep their counters to themselves (see the module docs); the
    /// per-tenant rows land in the store registry (`# tenant` INFO section,
    /// `krr_tenant_*` series) at each exposition refresh and, once a
    /// [`FleetCell`] is attached, in the exposition server's `/tenants` and
    /// `/mrc?tenant=` endpoints.
    pub fn enable_fleet_profiling(&mut self, config: FleetConfig) {
        self.apply_profile_queue();
        self.fleet = Some(FleetArena::new(config));
    }

    /// The fleet arena, if fleet profiling is enabled, with every queued
    /// GET applied.
    pub fn fleet(&mut self) -> Option<&FleetArena> {
        self.apply_profile_queue();
        self.fleet.as_ref()
    }

    /// Attaches a fleet-view cell (the `/tenants` + `/mrc?tenant=` source
    /// of an exposition server). Republished on the same
    /// [`EXPO_REFRESH_EVERY`] cadence as the aggregate MRC cell, plus
    /// immediately if the arena already has tenants.
    pub fn set_fleet_cell(&mut self, cell: Arc<FleetCell>) {
        self.apply_profile_queue();
        if let Some(f) = &self.fleet {
            cell.publish(f.view());
        }
        self.fleet_cell = Some(cell);
    }

    /// Attaches a flight recorder. The profiler bank (shard/router/worker
    /// rings) picks it up immediately if already enabled; enabling it later
    /// inherits it too.
    pub fn set_recorder(&mut self, recorder: Arc<FlightRecorder>) {
        if let Some(p) = &mut self.profiler {
            p.set_recorder(Arc::clone(&recorder));
        }
        self.recorder = Some(recorder);
    }

    /// The current MRC estimate over every GET so far, or `None` if
    /// profiling was never enabled.
    pub fn mrc_profile(&mut self) -> Option<Mrc> {
        self.apply_profile_queue();
        self.profiler.as_ref().map(ShardedKrr::mrc)
    }

    /// Attaches a live-MRC cell (the `/mrc` source of an exposition
    /// server). The store republishes the profiler's curve into it every
    /// [`EXPO_REFRESH_EVERY`] GETs, plus immediately if a curve exists.
    pub fn set_mrc_cell(&mut self, cell: Arc<krr_core::expo::MrcCell>) {
        self.apply_profile_queue();
        if let Some(p) = &self.profiler {
            cell.publish(p.mrc());
        }
        self.mrc_cell = Some(cell);
    }

    /// Applies the queued GETs, then pushes the profiler's current
    /// memory-footprint breakdown and the fleet's tenant rows into the
    /// metrics registry so `INFO`'s `# memory` and `# tenant` sections and
    /// a scrape of `/metrics` see fresh gauges and counters.
    pub fn publish_footprint(&mut self) {
        self.apply_profile_queue();
        self.publish_profile_rows(None);
    }

    /// The one writer of the profile gauges and tenant rows in the store
    /// registry; `rows` are the fleet's tenant rows when the caller has
    /// already built them.
    fn publish_profile_rows(&self, rows: Option<Vec<TenantRow>>) {
        if let Some(p) = &self.profiler {
            p.publish_footprint();
        }
        if let Some(f) = &self.fleet {
            self.metrics
                .tenant_rows
                .set(rows.unwrap_or_else(|| f.summary()));
        }
    }

    /// Periodic exposition refresh driven by the GET stream. With a fleet
    /// cell attached, one view builds each tenant's MRC once for both the
    /// cell and the registry's tenant rows.
    fn refresh_expo(&self) {
        let view = self
            .fleet_cell
            .as_ref()
            .and(self.fleet.as_ref())
            .map(FleetArena::view);
        self.publish_profile_rows(view.as_ref().map(|v| v.rows.clone()));
        if let (Some(p), Some(cell)) = (&self.profiler, &self.mrc_cell) {
            cell.publish(p.mrc());
        }
        if let (Some(view), Some(cell)) = (view, &self.fleet_cell) {
            cell.publish(view);
        }
    }

    /// The store's always-on metrics registry: GET outcomes, evictions,
    /// and sampled-candidate idle ages (in LRU clock units).
    #[must_use]
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Current truncated LRU clock.
    fn lru_clock(&self) -> u32 {
        (self.ticks & LRU_CLOCK_MAX) as u32
    }

    /// Idle time of an entry, handling 24-bit wraparound as
    /// `estimateObjectIdleTime` does.
    fn idle_time(&self, lru: u32) -> u64 {
        let now = u64::from(self.lru_clock());
        let then = u64::from(lru);
        if now >= then {
            now - then
        } else {
            now + (LRU_CLOCK_MAX + 1) - then
        }
    }

    /// Number of resident keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.dict.len()
    }

    /// True if no key is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.dict.is_empty()
    }

    /// Bytes accounted against `maxmemory`.
    #[must_use]
    pub fn used_memory(&self) -> u64 {
        self.used_memory
    }

    /// Counters.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// GET: returns true on hit and refreshes the key's LRU stamp.
    pub fn get(&mut self, key: u64) -> bool {
        self.get_for(None, key)
    }

    /// GET attributed to a tenant: the store lookup and aggregate profiler
    /// behave exactly like [`MiniRedis::get`]; additionally, when fleet
    /// profiling is enabled and `tenant` is `Some`, the reference feeds
    /// that tenant's KRR instance (materializing it on first touch). The
    /// profiling is queued, not done here: see
    /// [`MiniRedis::apply_profile_queue`].
    pub fn get_for(&mut self, tenant: Option<u64>, key: u64) -> bool {
        self.ticks += 1;
        let clock = self.lru_clock();
        let (hit, size) = match self.dict.get_mut(key) {
            Some(e) => {
                e.lru = clock;
                self.stats.hits += 1;
                (true, e.size)
            }
            None => {
                self.stats.misses += 1;
                (false, 1)
            }
        };
        // One writer per `model.*` row: the profiler's shard models when
        // profiling is on, otherwise this GET path.
        if self.profiler.is_none() {
            self.metrics.accesses.inc();
            if hit {
                self.metrics.hits.inc();
            } else {
                self.metrics.cold_misses.inc();
            }
        }
        if self.queues_gets() {
            self.profile_queue.push(QueuedGet {
                key,
                tenant: tenant.unwrap_or(0),
                size,
                has_tenant: tenant.is_some(),
            });
            if self.profile_queue.len() >= PROFILE_QUEUE_CAP {
                self.apply_profile_queue();
            }
        }
        hit
    }

    /// Whether a GET queues its profile: only a store with a profiler or
    /// a fleet arena has one. Attached cells alone publish nothing.
    #[must_use]
    pub fn queues_gets(&self) -> bool {
        self.profiler.is_some() || self.fleet.is_some()
    }

    /// Applies the queued GETs in order, each exactly as an unqueued GET
    /// would have been profiled: the KRR profiler access, the fleet arena
    /// access, and the exposition refresh on every [`EXPO_REFRESH_EVERY`]th
    /// GET. Returns the number applied; a drain that applies any counts in
    /// `server.profile_drains`.
    pub fn apply_profile_queue(&mut self) -> u64 {
        if self.profile_queue.is_empty() {
            return 0;
        }
        let mut queue = std::mem::take(&mut self.profile_queue);
        // Every GET since the oldest queued one is queued, so the GET
        // count at queued GET `i` is this plus `i + 1`.
        let done = self.stats.hits + self.stats.misses - queue.len() as u64;
        for (i, g) in queue.iter().enumerate() {
            if let Some(p) = &mut self.profiler {
                p.access(g.key, g.size);
            }
            if let (true, Some(fleet)) = (g.has_tenant, &mut self.fleet) {
                fleet.access(g.tenant, g.key, g.size);
            }
            // Keyed on the GET count, not `ticks`: SETs advance the LRU
            // clock too, and a refresh due on a SET's tick would be
            // skipped.
            if (done + i as u64 + 1) % EXPO_REFRESH_EVERY == 0
                && (self.mrc_cell.is_some() || self.fleet_cell.is_some())
            {
                self.refresh_expo();
            }
        }
        let applied = queue.len() as u64;
        queue.clear();
        self.profile_queue = queue;
        self.metrics.server_profile_drains.inc();
        applied
    }

    /// SET: installs/updates `key` with `size` bytes, evicting under
    /// `maxmemory` pressure first (as `freeMemoryIfNeeded` runs before the
    /// write command executes).
    pub fn set(&mut self, key: u64, size: u32) {
        self.ticks += 1;
        let size = u64::from(size.max(1));
        if size > self.maxmemory {
            // Object can never fit; Redis would OOM-error the write.
            return;
        }
        let existing = self.dict.get(key).map(|e| u64::from(e.size));
        let incoming = match existing {
            Some(old) => self.used_memory - old + size,
            None => self.used_memory + size,
        };
        let mut needed = incoming;
        while needed > self.maxmemory {
            if !self.evict_one(key) {
                break;
            }
            needed = match self.dict.get(key).map(|e| u64::from(e.size)) {
                Some(old) => self.used_memory - old + size,
                None => self.used_memory + size,
            };
        }
        let clock = self.lru_clock();
        let stored = Entry {
            size: size as u32,
            lru: clock,
        };
        match self.dict.insert(key, stored) {
            Some(old) => self.used_memory = self.used_memory - u64::from(old.size) + size,
            None => self.used_memory += size,
        }
    }

    /// Cache-aside access used by trace replay: GET, and on miss (or on an
    /// explicit SET request) install the object. Returns true on hit.
    pub fn access(&mut self, req: &Request) -> bool {
        let hit = self.get(req.key);
        if req.op == Op::Set || !hit {
            self.set(req.key, req.size);
        }
        hit
    }

    /// One `performEvictions` cycle: sample, merge into the pool, evict the
    /// best candidate. Returns false if nothing could be evicted.
    /// `protect` is the key currently being written and must survive.
    fn evict_one(&mut self, protect: u64) -> bool {
        if self.dict.is_empty() {
            return false;
        }
        // Fill the pool from a fresh sample.
        let mut scratch = std::mem::take(&mut self.scratch);
        match self.mode {
            SamplingMode::ClusteredWalk => {
                self.dict.get_some_keys(self.samples, &mut scratch);
            }
            SamplingMode::UniformRandom => {
                scratch.clear();
                for _ in 0..self.samples {
                    if let Some(kv) = self.dict.random_key() {
                        scratch.push(kv);
                    }
                }
            }
        }
        for &(key, entry) in scratch.iter() {
            if key == protect {
                continue;
            }
            let idle = self.idle_time(entry.lru);
            self.metrics.candidate_age.record(idle);
            self.pool_insert(key, idle);
        }
        self.scratch = scratch;

        // Evict the most idle live pool entry (pool is sorted ascending).
        while let Some(slot) = self.pool.pop() {
            if let Some(entry) = self.dict.peek(slot.key).copied() {
                // Stale idle values are fine (Redis re-checks existence but
                // not idleness); evict it.
                let _ = entry;
                let removed = self.dict.remove(slot.key).expect("peeked key vanished");
                self.used_memory -= u64::from(removed.size);
                self.stats.evictions += 1;
                self.metrics.evictions.inc();
                return true;
            }
            // Key no longer exists; drop the stale slot and continue.
        }
        // Pool exhausted without a live candidate (can happen early);
        // fall back to evicting any sampled key, then any key at all.
        let fallback = self
            .scratch
            .iter()
            .map(|&(k, _)| k)
            .find(|&k| k != protect)
            .or_else(|| self.dict.iter().map(|(k, _)| k).find(|&k| k != protect));
        if let Some(key) = fallback {
            if let Some(removed) = self.dict.remove(key) {
                self.used_memory -= u64::from(removed.size);
                self.stats.evictions += 1;
                self.metrics.evictions.inc();
                return true;
            }
        }
        false
    }

    /// Inserts a candidate into the idle-sorted pool, mirroring
    /// `evictionPoolPopulate`: better (more idle) candidates displace worse
    /// ones when the pool is full; duplicates keep the larger idle time.
    fn pool_insert(&mut self, key: u64, idle: u64) {
        if let Some(existing) = self.pool.iter_mut().find(|s| s.key == key) {
            existing.idle = existing.idle.max(idle);
            self.pool.sort_by_key(|s| s.idle);
            return;
        }
        if self.pool.len() < EVICTION_POOL_SIZE {
            let pos = self.pool.partition_point(|s| s.idle < idle);
            self.pool.insert(pos, PoolSlot { key, idle });
        } else if idle > self.pool[0].idle {
            self.pool.remove(0);
            let pos = self.pool.partition_point(|s| s.idle < idle);
            self.pool.insert(pos, PoolSlot { key, idle });
        }
    }

    /// Configures where [`MiniRedis::bgsave`] writes its checkpoint.
    pub fn set_checkpoint_path<P: Into<PathBuf>>(&mut self, path: P) {
        self.checkpoint_path = Some(path.into());
    }

    /// The configured `BGSAVE` target, if any.
    #[must_use]
    pub fn checkpoint_path(&self) -> Option<&Path> {
        self.checkpoint_path.as_deref()
    }

    /// Serializes the store proper into a `krr-ckpt-v1` `STOR` payload:
    /// configuration, memory accounting, hit/miss counters, the eviction
    /// pool, and every resident `(key, size, lru)` entry sorted by key so
    /// identical state always produces identical bytes.
    pub fn save_state(&self, enc: &mut Enc) {
        enc.put_u64(self.maxmemory)
            .put_u64(self.samples as u64)
            .put_u8(match self.mode {
                SamplingMode::ClusteredWalk => 0,
                SamplingMode::UniformRandom => 1,
            })
            .put_u64(self.seed)
            // The retired clock-resolution and per-key-overhead settings,
            // kept at their only values so the `STOR` layout is unchanged.
            .put_u64(1)
            .put_u64(0)
            .put_u64(self.used_memory)
            .put_u64(self.ticks)
            .put_u64(self.stats.hits)
            .put_u64(self.stats.misses)
            .put_u64(self.stats.evictions);
        enc.put_u64(self.pool.len() as u64);
        for slot in &self.pool {
            enc.put_u64(slot.key).put_u64(slot.idle);
        }
        let mut entries: Vec<(u64, Entry)> = self.dict.iter().map(|(k, e)| (k, *e)).collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        enc.put_u64(entries.len() as u64);
        for (k, e) in entries {
            enc.put_u64(k).put_u32(e.size).put_u32(e.lru);
        }
    }

    /// Rebuilds a store from a [`MiniRedis::save_state`] payload. Resident
    /// data, memory accounting, counters, the LRU clock, and the eviction
    /// pool are restored exactly; the dict is re-seeded like the original
    /// but re-inserted key-ascending, so bucket-chain order (and therefore
    /// future eviction *sampling* walks) is statistically, not bitwise,
    /// identical to the pre-crash process.
    pub fn load_state(dec: &mut Dec<'_>) -> std::io::Result<Self> {
        let invalid = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        let maxmemory = dec.u64()?;
        let samples = dec.u64()? as usize;
        let mode = match dec.u8()? {
            0 => SamplingMode::ClusteredWalk,
            1 => SamplingMode::UniformRandom,
            _ => return Err(invalid("unknown sampling mode tag in checkpoint")),
        };
        let seed = dec.u64()?;
        if maxmemory == 0 || samples == 0 {
            return Err(invalid("checkpoint has zero maxmemory or samples"));
        }
        if dec.u64()? != 1 || dec.u64()? != 0 {
            return Err(invalid(
                "checkpoint has a clock resolution other than 1 or a per-key overhead",
            ));
        }
        let mut store = Self::with_mode(maxmemory, samples, mode, seed);
        let used_memory = dec.u64()?;
        store.ticks = dec.u64()?;
        store.stats = StoreStats {
            hits: dec.u64()?,
            misses: dec.u64()?,
            evictions: dec.u64()?,
        };
        let pool_len = dec.u64()?;
        for _ in 0..pool_len {
            let key = dec.u64()?;
            let idle = dec.u64()?;
            store.pool.push(PoolSlot { key, idle });
        }
        let n = dec.u64()?;
        for _ in 0..n {
            let key = dec.u64()?;
            let size = dec.u32()?;
            let lru = dec.u32()?;
            if store.dict.insert(key, Entry { size, lru }).is_some() {
                return Err(invalid("duplicate key in store checkpoint"));
            }
        }
        store.used_memory = used_memory;
        Ok(store)
    }

    /// Writes a full `krr-ckpt-v1` checkpoint of the store — keyspace and
    /// counters (`STOR`), metrics registry (`METR`), plus the profiler
    /// (`SHRD`) when enabled — atomically to `path`, after applying every
    /// queued GET.
    pub fn save_checkpoint<P: AsRef<Path>>(&mut self, path: P) -> std::io::Result<()> {
        self.apply_profile_queue();
        let mut w = CheckpointWriter::new();
        self.save_state(w.section(SECTION_STORE));
        self.metrics
            .snapshot()
            .save_state(w.section(SECTION_METRICS));
        if let Some(p) = &self.profiler {
            p.save_state(w.section(SECTION_SHARDED));
        }
        w.write_atomic(path)
    }

    /// `BGSAVE`: writes [`MiniRedis::save_checkpoint`] to the path set with
    /// [`MiniRedis::set_checkpoint_path`], or fails with `InvalidInput` if
    /// none was configured.
    pub fn bgsave(&mut self) -> std::io::Result<()> {
        match self.checkpoint_path.clone() {
            Some(path) => self.save_checkpoint(path),
            None => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "no checkpoint path configured",
            )),
        }
    }

    /// Restore-on-start: rebuilds a store from a
    /// [`MiniRedis::save_checkpoint`] file. The profiler and metrics
    /// counters come back when their sections are present, and the
    /// checkpoint path is set to `path` so later `BGSAVE`s overwrite it.
    pub fn restore_from<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        let ckpt = CheckpointReader::open(&path)?;
        let mut store = Self::load_state(&mut ckpt.require(SECTION_STORE)?)?;
        if let Some(mut dec) = ckpt.section(SECTION_METRICS) {
            store
                .metrics
                .absorb(&MetricsSnapshot::load_state(&mut dec)?);
        }
        if let Some(mut dec) = ckpt.section(SECTION_SHARDED) {
            let mut bank = ShardedKrr::load_state(&mut dec)?;
            bank.set_metrics(Arc::clone(&store.metrics));
            store.profiler = Some(bank);
        }
        store.checkpoint_path = Some(path.as_ref().to_path_buf());
        Ok(store)
    }
}

impl krr_core::footprint::Footprint for MiniRedis {
    /// Keyspace (dict slab + buckets), eviction scratch state, and — when
    /// enabled — the profiler bank.
    fn footprint(&self) -> krr_core::footprint::FootprintReport {
        let mut r = self.dict.footprint();
        r.add(
            "evict_pool",
            self.pool.capacity() * std::mem::size_of::<PoolSlot>(),
        )
        .add(
            "evict_scratch",
            self.scratch.capacity() * std::mem::size_of::<(u64, Entry)>(),
        );
        if let Some(p) = &self.profiler {
            r.merge(&p.footprint());
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expo_refresh_lands_on_every_10_000th_get_even_between_sets() {
        let mut r = MiniRedis::new(1 << 30, 5, 3);
        // Attached before profiling starts, so the cell stays empty until
        // the first periodic refresh publishes into it.
        let cell = Arc::new(krr_core::expo::MrcCell::new());
        r.set_mrc_cell(Arc::clone(&cell));
        r.enable_mrc_profiling(&KrrConfig::new(5.0).seed(1), 2);
        // GET, SET, GET, SET, ...: every even tick — so every 10,000th
        // tick — is a SET.
        for i in 0..EXPO_REFRESH_EVERY {
            assert!(cell.get().is_none(), "published before GET {}", i + 1);
            let _ = r.get(i % 700);
            r.set(i % 700, 64);
            r.apply_profile_queue();
        }
        assert_eq!(r.stats().hits + r.stats().misses, EXPO_REFRESH_EVERY);
        assert_eq!(r.ticks, 2 * EXPO_REFRESH_EVERY);
        assert!(cell.get().is_some(), "not published at GET 10,000");
    }

    #[test]
    fn set_get_roundtrip() {
        let mut r = MiniRedis::new(10_000, 5, 1);
        r.set(1, 100);
        assert!(r.get(1));
        assert!(!r.get(2));
        assert_eq!(r.used_memory(), 100);
        let s = r.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn overwrite_adjusts_memory() {
        let mut r = MiniRedis::new(10_000, 5, 1);
        r.set(1, 100);
        r.set(1, 250);
        assert_eq!(r.used_memory(), 250);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn maxmemory_is_enforced() {
        let mut r = MiniRedis::new(1_000, 5, 2);
        for k in 0..100u64 {
            r.set(k, 100);
            assert!(r.used_memory() <= 1_000, "over budget at key {k}");
        }
        assert_eq!(r.len(), 10);
        assert!(r.stats().evictions >= 90);
    }

    #[test]
    fn eviction_prefers_idle_keys() {
        let mut r = MiniRedis::new(1_000, 10, 3);
        for k in 0..10u64 {
            r.set(k, 100);
        }
        // Touch keys 1..10 repeatedly; key 0 goes stale.
        for _ in 0..50 {
            for k in 1..10u64 {
                r.get(k);
            }
        }
        // Insert new keys, forcing evictions; key 0 should die early.
        for k in 100..105u64 {
            r.set(k, 100);
        }
        let zero_alive = r.get(0);
        let hot_alive = (1..10u64).filter(|&k| r.get(k)).count();
        assert!(!zero_alive, "stale key should have been evicted");
        assert!(hot_alive >= 5, "hot keys mostly survive, {hot_alive} alive");
    }

    #[test]
    fn oversized_value_rejected() {
        let mut r = MiniRedis::new(100, 5, 4);
        r.set(1, 1_000);
        assert!(!r.get(1));
        assert_eq!(r.used_memory(), 0);
    }

    #[test]
    fn checkpoint_rejects_other_clock_resolutions_and_key_overheads() {
        let mut enc = Enc::new();
        MiniRedis::new(1_000, 5, 5).save_state(&mut enc);
        let good = enc.into_bytes();
        assert!(MiniRedis::load_state(&mut Dec::new(&good)).is_ok());
        // After maxmemory, samples, the mode tag and the seed: the clock
        // resolution (always 1) and the per-key overhead (always 0).
        for (at, v) in [(25, 2u64), (33, 50)] {
            let mut bad = good.clone();
            bad[at..at + 8].copy_from_slice(&v.to_le_bytes());
            let err = MiniRedis::load_state(&mut Dec::new(&bad)).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        }
    }

    #[test]
    fn lru_clock_wraparound_idle() {
        let mut r = MiniRedis::new(1_000, 5, 6);
        // Force the clock near the 24-bit boundary.
        r.ticks = LRU_CLOCK_MAX - 1;
        r.set(1, 10);
        let lru_at_set = r.dict.peek(1).unwrap().lru;
        r.ticks += 10; // wraps past 2^24
        let idle = r.idle_time(lru_at_set);
        assert_eq!(idle, 10);
    }

    #[test]
    fn both_sampling_modes_enforce_memory() {
        for mode in [SamplingMode::ClusteredWalk, SamplingMode::UniformRandom] {
            let mut r = MiniRedis::with_mode(5_000, 5, mode, 7);
            for i in 0..20_000u64 {
                r.access(&Request::get(i % 200, 100));
            }
            assert!(r.used_memory() <= 5_000);
            assert_eq!(r.len(), 50);
            // With a loop of 200 keys and room for 50, most GETs miss.
            assert!(r.stats().miss_ratio() > 0.5);
        }
    }

    #[test]
    fn mrc_profiling_observes_the_get_stream() {
        let mut r = MiniRedis::new(1_000_000, 5, 10);
        assert!(r.mrc_profile().is_none());
        r.enable_mrc_profiling(&KrrConfig::new(5.0).seed(1), 2);
        for _ in 0..3 {
            for k in 0..2_000u64 {
                r.access(&Request::get(k, 100));
            }
        }
        let mrc = r.mrc_profile().expect("profiling enabled");
        // The trace has reuse, so a large cache must miss less than a
        // tiny one.
        assert!(mrc.eval(2_000.0) < mrc.eval(1.0));
        // The profiler shares the store registry: every GET shows up in
        // the per-shard counters.
        let snap = r.metrics().snapshot();
        assert_eq!(snap.shard_accesses.iter().sum::<u64>(), 6_000);
    }

    #[test]
    fn profiled_gets_are_counted_once() {
        let mut r = MiniRedis::new(1_000_000, 5, 13);
        r.enable_mrc_profiling(&KrrConfig::new(5.0).seed(4), 2);
        for k in 0..250u64 {
            r.set(k, 100);
        }
        // 1,000 GETs: keys 0..500 twice, of which 500 find a stored key.
        for _ in 0..2 {
            for k in 0..500u64 {
                r.get(k);
            }
        }
        assert_eq!(r.stats().hits, 500);
        r.apply_profile_queue();
        let snap = r.metrics().snapshot();
        assert_eq!(snap.accesses, 1_000);
        assert_eq!(snap.shard_accesses.iter().sum::<u64>(), 1_000);
        assert_eq!(snap.hits + snap.cold_misses, 1_000);
        // The model rows are the profiler's: 500 first sights, 500 reuses.
        assert_eq!((snap.hits, snap.cold_misses), (500, 500));
    }

    #[test]
    fn tenant_gets_are_counted_once_with_profiler_and_fleet() {
        for profiler_first in [true, false] {
            let mut r = MiniRedis::new(1_000_000, 5, 14);
            let fleet = FleetConfig::new(KrrConfig::new(5.0).seed(6));
            if profiler_first {
                r.enable_mrc_profiling(&KrrConfig::new(5.0).seed(4), 2);
                r.enable_fleet_profiling(fleet);
            } else {
                r.enable_fleet_profiling(fleet);
                r.enable_mrc_profiling(&KrrConfig::new(5.0).seed(4), 2);
            }
            for i in 0..1_000u64 {
                r.get_for(Some(i % 4), i % 300);
            }
            r.apply_profile_queue();
            let snap = r.metrics().snapshot();
            assert_eq!(snap.accesses, 1_000, "profiler first: {profiler_first}");
            assert_eq!(snap.shard_accesses.iter().sum::<u64>(), 1_000);
            assert_eq!(snap.hits + snap.cold_misses, 1_000);
            assert_eq!(r.fleet().map(FleetArena::len), Some(4));
        }
    }

    #[test]
    fn unscoped_gets_are_counted_with_only_the_fleet_on() {
        let mut r = MiniRedis::new(1_000_000, 5, 15);
        r.enable_fleet_profiling(FleetConfig::new(KrrConfig::new(5.0).seed(6)));
        r.set(3, 100);
        for k in 0..10u64 {
            r.get(k);
        }
        r.apply_profile_queue();
        let snap = r.metrics().snapshot();
        assert_eq!(snap.accesses, 10);
        assert_eq!(snap.hits + snap.cold_misses, 10);
        assert_eq!(snap.hits, 1);
    }

    #[test]
    fn publish_footprint_publishes_tenant_rows_without_a_cell() {
        let mut r = MiniRedis::new(1_000_000, 5, 16);
        r.enable_fleet_profiling(FleetConfig::new(KrrConfig::new(5.0).seed(6)));
        for i in 0..25_000u64 {
            r.get_for(Some(i % 4), i % 500);
        }
        r.publish_footprint();
        let snap = r.metrics().snapshot();
        assert_eq!(snap.tenant_rows.len(), 4);
        assert!(snap.render_info().contains("tenant_count:4"));
    }

    #[test]
    fn expo_refresh_publishes_the_cell_view_rows_as_tenant_rows() {
        let mut r = MiniRedis::new(1_000_000, 5, 17);
        r.enable_fleet_profiling(FleetConfig::new(KrrConfig::new(5.0).seed(6)));
        let cell = Arc::new(FleetCell::new());
        r.set_fleet_cell(Arc::clone(&cell));
        for i in 0..EXPO_REFRESH_EVERY {
            r.get_for(Some(i % 4), i % 500);
        }
        r.apply_profile_queue();
        let view = cell.get().expect("the refresh published a fleet view");
        assert_eq!(view.rows.len(), 4);
        assert_eq!(r.metrics().snapshot().tenant_rows, view.rows);
        assert_eq!(r.fleet().map(FleetArena::summary), Some(view.rows));
    }

    #[test]
    fn recorder_traces_profiler_without_changing_the_mrc() {
        let run = |with_recorder: bool| {
            let mut r = MiniRedis::new(1_000_000, 5, 12);
            let rec = Arc::new(FlightRecorder::with_capacity(1024));
            if with_recorder {
                r.set_recorder(Arc::clone(&rec));
            }
            r.enable_mrc_profiling(&KrrConfig::new(5.0).seed(3), 2);
            for _ in 0..3 {
                for k in 0..1_000u64 {
                    r.access(&Request::get(k, 100));
                }
            }
            (r.mrc_profile().expect("profiling on"), rec)
        };
        let (plain, _) = run(false);
        let (traced, rec) = run(true);
        assert_eq!(plain.points(), traced.points(), "tracing changed the MRC");
        let (events, _) = rec.collect_events();
        assert!(!events.is_empty(), "shard rings should hold stack updates");
    }

    #[test]
    fn bgsave_restore_roundtrip() {
        let dir = std::env::temp_dir().join(format!("krr-bgsave-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dump.ckpt");
        let mut r = MiniRedis::new(10_000, 5, 21);
        r.enable_mrc_profiling(&KrrConfig::new(5.0).seed(4), 2);
        for i in 0..5_000u64 {
            r.access(&Request::get(i % 300, 100));
        }
        assert!(r.bgsave().is_err(), "no path configured yet");
        r.set_checkpoint_path(&path);
        r.bgsave().unwrap();
        let mut b = MiniRedis::restore_from(&path).unwrap();
        assert_eq!(b.len(), r.len());
        assert_eq!(b.used_memory(), r.used_memory());
        assert_eq!(b.stats(), r.stats());
        assert_eq!(b.checkpoint_path(), Some(path.as_path()));
        assert_eq!(
            b.mrc_profile().unwrap().points(),
            r.mrc_profile().unwrap().points(),
            "restored profiler carries the same curve"
        );
        // Restored metrics counters match the saved snapshot.
        assert_eq!(
            b.metrics().snapshot().hits,
            r.metrics().snapshot().hits,
            "metrics counters survive restore"
        );
        // The restored keyspace answers GETs exactly like the original.
        for k in 0..300u64 {
            assert_eq!(b.get(k), r.get(k), "key {k}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn approximates_lru_with_default_samples() {
        // Skewed workload: the miss ratio with samples=10 should be close
        // to exact LRU's (the Redis design claim the paper quotes).
        use krr_core::rng::Xoshiro256;
        use krr_sim::{Cache, Capacity, ExactLru};
        let mut redis = MiniRedis::new(50_000, 10, 8);
        let mut lru = ExactLru::new(Capacity::Bytes(50_000));
        let mut rng = Xoshiro256::seed_from_u64(9);
        let mut redis_hits = 0u64;
        let mut lru_hits = 0u64;
        let n = 200_000;
        for _ in 0..n {
            let u = rng.unit();
            let key = (u * u * 5_000.0) as u64;
            let req = Request::get(key, 100);
            if redis.access(&req) {
                redis_hits += 1;
            }
            if lru.access(&req) {
                lru_hits += 1;
            }
        }
        let a = redis_hits as f64 / n as f64;
        let b = lru_hits as f64 / n as f64;
        assert!((a - b).abs() < 0.03, "mini-redis hit {a} vs LRU {b}");
    }
}
