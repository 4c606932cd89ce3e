//! Lock-free metrics for the KRR pipeline: atomic counters, gauges,
//! log-bucketed histograms and per-shard/per-worker slot arrays, aggregated
//! in a [`MetricsRegistry`] that every stage (model, updaters, shards,
//! simulators, mini-Redis) can share through an `Arc`.
//!
//! Design constraints, in order:
//!
//! 1. **Hot-path cost.** A production MRC profiler is judged by its
//!    per-access overhead (Byrne's MRC survey; Inoue's multi-step LRU), so
//!    every record is a handful of `Relaxed` atomic RMWs — no locks, no
//!    allocation, no branching beyond one `Option` check in the caller.
//!    Latency timing is *sampled* (callers time ~1/64 of accesses) because
//!    reading the clock costs more than the work being measured.
//! 2. **Concurrency.** Shard workers and server connection threads record
//!    into the same registry concurrently; `AtomicU64` everywhere makes
//!    that safe. Snapshots are *not* atomic across fields — they are
//!    monotone-consistent, which is what monitoring needs.
//! 3. **No dependencies.** Snapshots export to Redis-`INFO`-style text,
//!    hand-rolled JSON and OpenMetrics, and checkpoint as a `METR`
//!    section; the formats are documented in DESIGN.md and
//!    docs/ARCHITECTURE.md.
//!
//! # The catalog
//!
//! Every stored metric is one row of the `catalog!` table below: field,
//! [`Kind`], frozen `METR` checkpoint slot, `krr-metrics-v1` JSON path
//! (whose first segment is the `INFO` section), `INFO` key, OpenMetrics
//! family and unit, and a doc comment that is both the field's rustdoc
//! and its OpenMetrics help. The row generates both structs' fields, the
//! snapshot read, [`MetricsRegistry::absorb`] and its [`CATALOG`] entry,
//! which every renderer and the `METR` codec loop over; adding a metric
//! means adding one row, with the next free slot. Only derived values are
//! hand-written: the `INFO` shard count and imbalance, the fleet rollups
//! ([`tenant_rollups`], [`memory_rollups`]) and the footprint total
//! (max of stored and sum of parts, in [`MetricsRegistry::snapshot`]).
//! [`TenantRow`]'s columns are declared once, in [`TENANT_COLUMNS`].
//!
//! ```
//! use krr_core::metrics::MetricsRegistry;
//! use std::sync::Arc;
//!
//! let reg = Arc::new(MetricsRegistry::new());
//! reg.accesses.inc();
//! reg.chain_len.record(17);
//! let snap = reg.snapshot();
//! assert_eq!(snap.accesses, 1);
//! assert_eq!(snap.chain_len.count, 1);
//! ```

use std::fmt::Write as _;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::checkpoint::{Dec, Enc};

/// Number of buckets in a [`LogHistogram`]: bucket 0 holds value 0, bucket
/// `b >= 1` holds values with `ilog2(v) == b - 1`, i.e. `[2^(b-1), 2^b)`.
pub const LOG_BUCKETS: usize = 65;

/// A monotone event counter (`Relaxed` atomics; ~1 ns per increment).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a zeroed counter.
    #[must_use]
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge (`Relaxed` store/load). Unlike a [`Counter`] it
/// can move both ways — used for live readings such as footprint bytes.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Creates a zeroed gauge.
    #[must_use]
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Overwrites the current value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log2-bucketed histogram of `u64` values (chain lengths, scan counts,
/// nanosecond latencies, candidate ages). Recording is 4 `Relaxed` RMWs.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; LOG_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Index of the bucket holding `v`.
#[inline]
#[must_use]
pub fn bucket_of(v: u64) -> usize {
    match v.checked_ilog2() {
        None => 0,
        Some(b) => b as usize + 1,
    }
}

/// Inclusive upper bound of bucket `b` (the value reported for percentile
/// estimates).
#[inline]
#[must_use]
pub fn bucket_bound(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Values recorded so far.
    #[inline]
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the histogram.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Adds a snapshot's contents into this histogram (bucket counts,
    /// count and sum accumulate; max raises the running maximum). Used to
    /// carry metrics across a checkpoint/restore: restoring into a fresh
    /// registry makes the counters continue where the crashed run left
    /// off.
    pub fn absorb(&self, snap: &HistogramSnapshot) {
        for (b, &c) in self.buckets.iter().zip(&snap.buckets) {
            if c > 0 {
                b.fetch_add(c, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(snap.count, Ordering::Relaxed);
        self.sum.fetch_add(snap.sum, Ordering::Relaxed);
        self.max.fetch_max(snap.max, Ordering::Relaxed);
    }
}

/// Non-atomic copy of a [`LogHistogram`].
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (see [`bucket_of`]).
    pub buckets: [u64; LOG_BUCKETS],
    /// Total values recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean recorded value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Bucket-resolution percentile estimate: the upper bound of the first
    /// bucket whose cumulative count reaches `p` (0 < p <= 1) of the total.
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut cum = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target.max(1) {
                return bucket_bound(b).min(self.max);
            }
        }
        self.max
    }

    /// Percentile estimate with linear interpolation inside the winning
    /// log2 bucket. [`HistogramSnapshot::percentile`] quantizes to bucket
    /// upper bounds, so adjacent runs of the same workload can disagree by
    /// a full power of two; interpolating by rank position within the
    /// bucket smooths that out, which matters when two runs are *compared*
    /// (the load harness gates A/B p99 deltas on this). Still a bucket
    /// estimate — not more accurate, just continuous.
    #[must_use]
    pub fn percentile_interp(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (p.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum + c >= target {
                let lower = if b == 0 { 0 } else { bucket_bound(b - 1) + 1 };
                let upper = bucket_bound(b).min(self.max);
                let frac = (target - cum) as f64 / c as f64;
                return lower as f64 + frac * (upper.saturating_sub(lower)) as f64;
            }
            cum += c;
        }
        self.max as f64
    }

    /// Windowed difference `self - earlier` for two snapshots of the same
    /// histogram: bucket counts, count and sum subtract (saturating, so a
    /// mismatched pair degrades to zeros instead of wrapping); `max` stays
    /// the absolute maximum, since a windowed max is not recoverable from
    /// two cumulative snapshots. Used by the stats timeline.
    #[must_use]
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i])),
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            max: self.max,
        }
    }

    /// `(bucket_upper_bound, count)` for occupied buckets.
    #[must_use]
    pub fn occupied(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(b, &c)| (bucket_bound(b), c))
            .collect()
    }

    /// Serializes the snapshot into a `krr-ckpt-v1` payload.
    pub fn save_state(&self, enc: &mut Enc) {
        enc.put_u64(self.count).put_u64(self.sum).put_u64(self.max);
        for &b in &self.buckets {
            enc.put_u64(b);
        }
    }

    /// Reconstructs a snapshot from a [`HistogramSnapshot::save_state`]
    /// payload.
    pub fn load_state(dec: &mut Dec<'_>) -> io::Result<Self> {
        let count = dec.u64()?;
        let sum = dec.u64()?;
        let max = dec.u64()?;
        let mut buckets = [0u64; LOG_BUCKETS];
        for b in &mut buckets {
            *b = dec.u64()?;
        }
        Ok(Self {
            buckets,
            count,
            sum,
            max,
        })
    }
}

/// Declares [`TenantRow`] and [`TENANT_COLUMNS`] from one list of
/// columns: each column's doc comment is its field documentation, its
/// kind decides the field type (`Flag` → `bool`, else `u64`) and how the
/// column exports, and list order is the JSON and checkpoint order.
macro_rules! tenant_columns {
    ($( $(#[doc = $doc:literal])+ $field:ident: $kind:ident $(, unit $unit:literal)?; )*) => {
        /// One tenant's observability row, published by a
        /// [`crate::fleet::FleetArena`] at its publish cadence and carried
        /// through every export format (JSON `tenant.rows`, OpenMetrics
        /// `{tenant="..."}` series, the `METR` checkpoint).
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct TenantRow {
            $( $(#[doc = $doc])+ pub $field: tenant_columns!(@ty $kind), )*
        }

        /// Every [`TenantRow`] column in JSON and checkpoint order.
        pub static TENANT_COLUMNS: &[TenantColumn] = &[$(
            TenantColumn {
                key: stringify!($field),
                kind: ColumnKind::$kind,
                unit: concat!("" $(, $unit)?),
                doc: concat!($($doc),+),
                get: |t| u64::from(t.$field),
                set: |t, v| t.$field = tenant_columns!(@from $kind v),
            },
        )*];
    };
    (@ty Flag) => { bool };
    (@ty $kind:ident) => { u64 };
    (@from Flag $v:ident) => { $v != 0 };
    (@from $kind:ident $v:ident) => { $v };
}

/// How a [`TenantRow`] column is exported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnKind {
    /// The tenant id: the `{tenant="id"}` label rather than a family.
    Label,
    /// A per-tenant counter, family `krr_tenant_<key>` (`_total` samples).
    Counter,
    /// A per-tenant gauge, family `krr_tenant_<key>`.
    Gauge,
    /// A yes/no column: a JSON bool, 0/1 in the checkpoint, and a gauge
    /// family whose unlabeled sample counts the flagged tenants.
    Flag,
}

/// One [`TenantRow`] column (see [`TENANT_COLUMNS`]).
#[derive(Debug)]
pub struct TenantColumn {
    /// Field name, JSON key and OpenMetrics family suffix.
    pub key: &'static str,
    /// How the column exports.
    pub kind: ColumnKind,
    /// Unit suffix of the column's family (`""` for plain counts).
    pub unit: &'static str,
    doc: &'static str,
    /// Reads the column as a `u64` (flags as 0/1).
    pub(crate) get: fn(&TenantRow) -> u64,
    set: fn(&mut TenantRow, u64),
}

impl TenantColumn {
    /// Help text: the field's documentation.
    #[must_use]
    pub fn help(&self) -> &'static str {
        self.doc.trim()
    }
}

tenant_columns! {
    /// Tenant id.
    id: Label;
    /// References routed to this tenant's model.
    refs: Counter;
    /// Distinct sampled objects resident in the tenant's model.
    resident: Gauge;
    /// Deep bytes of the tenant's model (footprint accounting).
    resident_bytes: Gauge, unit "bytes";
    /// Modeled miss ratio at the fleet's budget, in parts per million.
    miss_ratio_ppm: Gauge, unit "ppm";
    /// Watchdog drift events recorded against this tenant.
    drift_events: Counter;
    /// Latest watchdog MAE for this tenant, in parts per million (0 when
    /// the tenant is not shadowed).
    mae_ppm: Gauge, unit "ppm";
    /// Whether the accuracy watchdog currently shadows this tenant (only
    /// the top-K tenants by traffic are).
    shadowed: Flag;
}

impl TenantRow {
    /// The row as one JSON object — the element shape of the snapshot's
    /// `tenant.rows` array and of `/tenants`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, c) in TENANT_COLUMNS.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let v = (c.get)(self);
            let _ = match c.kind {
                ColumnKind::Flag => write!(s, "{sep}\"{}\":{}", c.key, v != 0),
                _ => write!(s, "{sep}\"{}\":{v}", c.key),
            };
        }
        s.push('}');
        s
    }
}

/// The per-tenant rows, replaced wholesale by a fleet arena at its
/// publish cadence — a `Mutex`, not atomics, because this is never on the
/// access hot path.
#[derive(Debug, Default)]
pub struct TenantRows(Mutex<Vec<TenantRow>>);

impl TenantRows {
    /// Replaces the rows. Called by a [`crate::fleet::FleetArena`] when it
    /// publishes (batch boundaries / refresh cadence), never per access.
    pub fn set(&self, rows: Vec<TenantRow>) {
        *self.0.lock().expect("tenant rows poisoned") = rows;
    }

    /// Copy of the current rows (empty without a fleet arena).
    #[must_use]
    pub fn get(&self) -> Vec<TenantRow> {
        self.0.lock().expect("tenant rows poisoned").clone()
    }

    /// Takes restored rows, unless there are none.
    fn absorb(&self, rows: &[TenantRow]) {
        if !rows.is_empty() {
            self.set(rows.to_vec());
        }
    }
}

/// How a [`Slots`] array folds a recorded value into its slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Merge {
    /// Accumulate: a per-slot counter.
    Add,
    /// Keep the largest value: a high-water mark.
    Max,
    /// Last value wins: a per-slot gauge.
    Set,
}

/// What a [`Slots`] array is indexed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// One slot per shard.
    Shard,
    /// One slot per pipeline worker (one batch queue each).
    Worker,
}

impl Scope {
    /// The OpenMetrics label naming a slot (`{shard="i"}`, `{worker="w"}`).
    #[must_use]
    pub(crate) fn label(self) -> &'static str {
        match self {
            Self::Shard => "shard",
            Self::Worker => "worker",
        }
    }
}

/// A per-shard or per-worker array of `u64` slots with one [`Merge`]
/// rule. Sized by [`MetricsRegistry::init_slots`]; recording before that,
/// or out of range, is a no-op.
#[derive(Debug)]
pub struct Slots {
    scope: Scope,
    merge: Merge,
    slots: OnceLock<Box<[AtomicU64]>>,
}

impl Slots {
    /// An unsized array.
    const fn new(scope: Scope, merge: Merge) -> Self {
        Self {
            scope,
            merge,
            slots: OnceLock::new(),
        }
    }

    /// Folds `v` into slot `i` by the array's merge rule.
    #[inline]
    pub fn record(&self, i: usize, v: u64) {
        let Some(a) = self.slots.get().and_then(|s| s.get(i)) else {
            return;
        };
        match self.merge {
            Merge::Add => {
                a.fetch_add(v, Ordering::Relaxed);
            }
            Merge::Max => {
                a.fetch_max(v, Ordering::Relaxed);
            }
            Merge::Set => a.store(v, Ordering::Relaxed),
        }
    }

    /// Current slot values (empty before the array is sized).
    #[must_use]
    pub fn values(&self) -> Vec<u64> {
        self.slots
            .get()
            .map(|s| s.iter().map(|a| a.load(Ordering::Relaxed)).collect())
            .unwrap_or_default()
    }

    /// Sizes the array to `n` zeroed slots if it indexes `scope`; the
    /// first call wins.
    fn init(&self, scope: Scope, n: usize) {
        if scope == self.scope {
            let _ = self.slots.set((0..n).map(|_| AtomicU64::new(0)).collect());
        }
    }

    /// Claims a restored reading's length, then merges it in.
    fn absorb(&self, values: &[u64]) {
        if !values.is_empty() {
            self.init(self.scope, values.len());
            for (i, &v) in values.iter().enumerate() {
                self.record(i, v);
            }
        }
    }
}

/// How a catalog row is stored, merged and exported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A monotone [`Counter`]; OpenMetrics `counter` with a `_total` sample.
    Counter,
    /// A last-value [`Gauge`].
    Gauge,
    /// A [`LogHistogram`]; OpenMetrics cumulative `le` buckets.
    Histogram,
    /// A [`Slots`] array; an OpenMetrics counter when it merges by
    /// [`Merge::Add`], else a gauge, one sample per slot.
    Slots(Scope, Merge),
    /// The [`TenantRows`]; one OpenMetrics family per exported
    /// [`TenantColumn`], one sample per tenant.
    Tenants,
}

/// A catalog row's reading in a [`MetricsSnapshot`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Value<'a> {
    /// A counter or gauge.
    Scalar(u64),
    /// A histogram.
    Histogram(&'a HistogramSnapshot),
    /// A slot array.
    List(&'a [u64]),
    /// The per-tenant rows.
    Tenants(&'a [TenantRow]),
}

/// A snapshot field type: its [`Value`] view and its `METR` decoding
/// (the encoding is [`Value`]'s).
trait Field: Sized {
    fn value(&self) -> Value<'_>;
    fn decode(dec: &mut Dec<'_>) -> io::Result<Self>;
}

impl Field for u64 {
    fn value(&self) -> Value<'_> {
        Value::Scalar(*self)
    }
    fn decode(dec: &mut Dec<'_>) -> io::Result<Self> {
        dec.u64()
    }
}

impl Field for HistogramSnapshot {
    fn value(&self) -> Value<'_> {
        Value::Histogram(self)
    }
    fn decode(dec: &mut Dec<'_>) -> io::Result<Self> {
        HistogramSnapshot::load_state(dec)
    }
}

impl Field for Vec<u64> {
    fn value(&self) -> Value<'_> {
        Value::List(self)
    }
    fn decode(dec: &mut Dec<'_>) -> io::Result<Self> {
        (0..dec.u64()?).map(|_| dec.u64()).collect()
    }
}

impl Field for Vec<TenantRow> {
    fn value(&self) -> Value<'_> {
        Value::Tenants(self)
    }
    fn decode(dec: &mut Dec<'_>) -> io::Result<Self> {
        (0..dec.u64()?)
            .map(|_| {
                let mut t = TenantRow::default();
                for c in TENANT_COLUMNS {
                    (c.set)(&mut t, dec.u64()?);
                }
                Ok(t)
            })
            .collect()
    }
}

/// Writes `items` separated by commas.
fn join<T: std::fmt::Display>(s: &mut String, items: impl IntoIterator<Item = T>) {
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{x}");
    }
}

impl Value<'_> {
    /// Appends this reading's `INFO` lines under `key`.
    fn write_info(self, s: &mut String, key: &str) {
        match self {
            Value::Scalar(v) => {
                let _ = write!(s, "{key}:{v}\r\n");
            }
            Value::Histogram(h) => {
                let _ = write!(
                    s,
                    "{key}_count:{}\r\n{key}_mean:{:.2}\r\n{key}_p99:{}\r\n{key}_max:{}\r\n{key}_buckets:",
                    h.count,
                    h.mean(),
                    h.percentile(0.99),
                    h.max
                );
                join(s, h.occupied().iter().map(|(b, c)| format!("{b}={c}")));
                s.push_str("\r\n");
            }
            Value::List(vals) => {
                let _ = write!(s, "{key}:");
                join(s, vals);
                s.push_str("\r\n");
            }
            Value::Tenants(_) => {}
        }
    }

    /// Appends this reading as a JSON value.
    fn write_json(self, s: &mut String) {
        match self {
            Value::Scalar(v) => {
                let _ = write!(s, "{v}");
            }
            Value::Histogram(h) => {
                let _ = write!(
                    s,
                    "{{\"count\":{},\"sum\":{},\"max\":{},\"mean\":{:.3},\"p99\":{},\"buckets\":[",
                    h.count,
                    h.sum,
                    h.max,
                    h.mean(),
                    h.percentile(0.99)
                );
                join(s, h.occupied().iter().map(|(b, c)| format!("[{b},{c}]")));
                s.push_str("]}");
            }
            Value::List(vals) => {
                s.push('[');
                join(s, vals);
                s.push(']');
            }
            Value::Tenants(rows) => {
                s.push('[');
                join(s, rows.iter().map(TenantRow::to_json));
                s.push(']');
            }
        }
    }

    /// Appends this reading to a `METR` payload: one word per scalar,
    /// the histogram's own layout, and length-prefixed lists and rows.
    fn save(self, enc: &mut Enc) {
        match self {
            Value::Scalar(v) => {
                enc.put_u64(v);
            }
            Value::Histogram(h) => h.save_state(enc),
            Value::List(vals) => {
                enc.put_u64(vals.len() as u64);
                for &v in vals {
                    enc.put_u64(v);
                }
            }
            Value::Tenants(rows) => {
                enc.put_u64(rows.len() as u64);
                for t in rows {
                    for c in TENANT_COLUMNS {
                        enc.put_u64((c.get)(t));
                    }
                }
            }
        }
    }
}

/// One catalog row: a stored metric and its name on every surface.
#[derive(Debug)]
pub struct Metric {
    /// Field name in [`MetricsRegistry`] and [`MetricsSnapshot`].
    pub field: &'static str,
    /// Storage, merge and export kind.
    pub kind: Kind,
    /// Dotted `krr-metrics-v1` JSON path, `section[.group].key`; the
    /// section is also the `INFO` section.
    pub json: &'static str,
    /// `INFO` key (`None`: not in `INFO`).
    pub info: Option<&'static str>,
    /// OpenMetrics family without the `krr_` prefix (for
    /// [`Kind::Tenants`], the prefix of the per-column families).
    pub family: &'static str,
    /// Unit suffix of the family (`""` for plain counts).
    pub unit: &'static str,
    /// Frozen position in the `METR` checkpoint payload.
    pub slot: usize,
    /// Reads this row from a snapshot.
    pub(crate) get: fn(&MetricsSnapshot) -> Value<'_>,
    doc: &'static str,
    load: fn(&mut MetricsSnapshot, &mut Dec<'_>) -> io::Result<()>,
}

impl Metric {
    /// The `INFO` section and top-level JSON object.
    #[must_use]
    pub fn section(&self) -> &'static str {
        self.json.split('.').next().unwrap_or_default()
    }

    /// The JSON sub-object between section and key (`ring` in
    /// `pipeline.ring.wraps`), if any.
    #[must_use]
    pub fn group(&self) -> Option<&'static str> {
        let parts: Vec<&'static str> = self.json.split('.').collect();
        (parts.len() == 3).then(|| parts[1])
    }

    /// The JSON key inside its section or group.
    #[must_use]
    pub fn key(&self) -> &'static str {
        self.json.rsplit('.').next().unwrap_or_default()
    }

    /// Help text: the field's documentation.
    #[must_use]
    pub fn help(&self) -> &'static str {
        self.doc.trim()
    }
}

/// `Some(literal)`, or `None` when the optional literal is absent.
macro_rules! opt {
    () => {
        None
    };
    ($x:literal) => {
        Some($x)
    };
}

/// Maps a row kind onto its registry cell type, snapshot value type,
/// [`Kind`] and constructor, and onto how its cell is read into a
/// snapshot, restored from one (counters add, gauges overwrite, the rest
/// absorb) and sized (slot arrays only).
macro_rules! kind {
    (read $c:expr; Histogram) => { $c.snapshot() };
    (read $c:expr; Slots($s:ident, $m:ident)) => { $c.values() };
    (read $c:expr; $k:ident) => { $c.get() };
    (restore $c:expr, $v:expr; Counter) => { $c.add(*$v) };
    (restore $c:expr, $v:expr; Gauge) => { $c.set(*$v) };
    (restore $c:expr, $v:expr; $k:ident $($p:tt)?) => { $c.absorb($v) };
    (init $c:expr, $scope:expr, $n:expr; Slots($s:ident, $m:ident)) => { $c.init($scope, $n) };
    (init $c:expr, $scope:expr, $n:expr; $k:ident) => { () };
    (cell Histogram) => { LogHistogram };
    (cell Tenants) => { TenantRows };
    (cell Slots($s:ident, $m:ident)) => { Slots };
    (cell $k:ident) => { $k };
    (value Histogram) => { HistogramSnapshot };
    (value Tenants) => { Vec<TenantRow> };
    (value Slots($s:ident, $m:ident)) => { Vec<u64> };
    (value $k:ident) => { u64 };
    (kind Slots($s:ident, $m:ident)) => { Kind::Slots(Scope::$s, Merge::$m) };
    (kind $k:ident) => { Kind::$k };
    (new Slots($s:ident, $m:ident)) => { Slots::new(Scope::$s, Merge::$m) };
    (new $k:ident) => { Default::default() };
}

/// Declares every stored metric once. Each row's doc comment is the
/// field documentation on both structs and the OpenMetrics help text;
/// the row generates the [`MetricsRegistry`] and [`MetricsSnapshot`]
/// fields, the snapshot read, [`MetricsRegistry::absorb`],
/// [`MetricsRegistry::init_slots`] and its [`CATALOG`] entry.
macro_rules! catalog {
    ($(
        $(#[doc = $doc:literal])+
        $field:ident: $kind:ident $(($s:ident, $m:ident))? = $slot:literal, $json:literal
            $(, info $info:literal)?, om $family:literal $(, unit $unit:literal)?;
    )*) => {
        /// The shared registry: one instance observes a whole pipeline.
        /// Its fields, their sections and their export names are the rows
        /// of [`CATALOG`].
        #[derive(Debug)]
        pub struct MetricsRegistry {
            $( $(#[doc = $doc])+ pub $field: kind!(cell $kind $(($s, $m))?), )*
        }

        impl Default for MetricsRegistry {
            fn default() -> Self {
                Self { $( $field: kind!(new $kind $(($s, $m))?), )* }
            }
        }

        /// Non-atomic copy of a [`MetricsRegistry`], exportable as `INFO`
        /// text, JSON, OpenMetrics and a `METR` checkpoint section.
        #[derive(Debug, Clone)]
        pub struct MetricsSnapshot {
            $( $(#[doc = $doc])+ pub $field: kind!(value $kind $(($s, $m))?), )*
        }

        impl MetricsRegistry {
            fn read_cells(&self) -> MetricsSnapshot {
                MetricsSnapshot { $( $field: kind!(read self.$field; $kind $(($s, $m))?), )* }
            }

            /// Adds a snapshot's contents into this registry: counters and
            /// histograms accumulate, gauges take the snapshot value, slot
            /// arrays claim the snapshot's length and then merge by their
            /// rule, and non-empty tenant rows replace the current ones.
            /// Restoring a checkpointed [`MetricsSnapshot`] into a fresh
            /// registry this way makes every counter continue from where
            /// the interrupted run stopped.
            pub fn absorb(&self, snap: &MetricsSnapshot) {
                $( kind!(restore self.$field, &snap.$field; $kind $(($s, $m))?); )*
            }

            /// Sizes every slot array of `scope` to `n` slots. The first
            /// call wins; later calls with another count are ignored (a
            /// registry observes one sharded pipeline).
            pub fn init_slots(&self, scope: Scope, n: usize) {
                $( kind!(init self.$field, scope, n; $kind $(($s, $m))?); )*
            }
        }

        /// Every stored metric, in `INFO` and JSON order.
        pub static CATALOG: &[Metric] = &[$(
            Metric {
                field: stringify!($field),
                kind: kind!(kind $kind $(($s, $m))?),
                json: $json,
                info: opt!($($info)?),
                family: $family,
                unit: concat!("" $(, $unit)?),
                slot: $slot,
                get: |s| s.$field.value(),
                doc: concat!($($doc),+),
                load: |s, dec| {
                    s.$field = Field::decode(dec)?;
                    Ok(())
                },
            },
        )*];
    };
}

catalog! {
    /// References offered to the model (`KrrModel::access` calls).
    accesses: Counter = 0, "model.accesses", info "accesses", om "accesses";
    /// References rejected by the spatial filter.
    spatial_rejected: Counter = 1, "model.spatial_rejected", info "spatial_rejected", om "spatial_rejected";
    /// Re-references (finite stack distance).
    hits: Counter = 2, "model.hits", info "hits", om "hits";
    /// First references (cold misses).
    cold_misses: Counter = 3, "model.cold_misses", info "cold_misses", om "cold_misses";
    /// Swap-chain length per stack update.
    chain_len: Histogram = 4, "updater.chain_len", info "chain_len", om "chain_len";
    /// Stack positions examined per update (the updater's work).
    positions_scanned: Histogram = 5, "updater.positions_scanned", info "positions_scanned", om "positions_scanned";
    /// Sampled per-access latency in nanoseconds (~1/64 of accesses).
    access_ns: Histogram = 6, "latency.access_ns", info "access_ns", om "access_ns", unit "ns";
    /// Histogram merges performed by `ShardedKrr::mrc`.
    merges: Counter = 7, "shards.merges", info "merges", om "merges";
    /// Total nanoseconds spent merging shard histograms.
    merge_ns: Counter = 8, "shards.merge_ns", info "merge_ns", om "merge_ns", unit "ns";
    /// References routed to each shard.
    shard_accesses: Slots(Shard, Add) = 11, "shards.accesses", info "shard_accesses", om "shard_accesses";
    /// Distinct objects each shard's KRR stack tracks, published at batch
    /// boundaries (after every access on the sequential path).
    shard_resident: Slots(Shard, Set) = 22, "shards.resident", info "shard_resident", om "shard_resident";
    /// Deepest 1-based stack position a re-reference has hit on each shard.
    shard_depth_hwm: Slots(Shard, Max) = 23, "shards.depth_hwm", info "shard_depth_hwm", om "shard_depth_hwm";
    /// Batches handed to shard workers by the pipeline router.
    pipeline_batches: Counter = 12, "pipeline.batches", info "batches", om "pipeline_batches";
    /// Times the router found a worker's ring full and had to block until
    /// the worker drained a batch (back-pressure).
    pipeline_stalls: Counter = 13, "pipeline.stalls", info "stalls", om "pipeline_stalls";
    /// Keys hashed while routing: the route-once pipeline hashes each
    /// reference exactly once, so after a run this equals the reference count.
    pipeline_keys_hashed: Counter = 14, "pipeline.keys_hashed", info "keys_hashed", om "pipeline_keys_hashed";
    /// Nanoseconds the router thread spent hashing, batching and sending.
    pipeline_router_busy_ns: Counter = 15, "pipeline.router_busy_ns", info "router_busy_ns", om "pipeline_router_busy_ns", unit "ns";
    /// Nanoseconds workers spent draining batches into shard models, summed.
    pipeline_worker_busy_ns: Counter = 16, "pipeline.worker_busy_ns", info "worker_busy_ns", om "pipeline_worker_busy_ns", unit "ns";
    /// Batches in flight for each shard after a router send, high-water mark.
    pipeline_queue_hwm: Slots(Shard, Max) = 17, "pipeline.queue_depth_hwm", info "queue_depth_hwm", om "shard_queue_depth_hwm";
    /// Completed queue cycles summed over the router→worker batch queues
    /// (sends / capacity per queue).
    pipeline_ring_wraps: Counter = 35, "pipeline.ring.wraps", info "ring_wraps", om "pipeline_ring_wraps";
    /// Router sends that blocked on a full worker queue (equals
    /// `pipeline.stalls`; near zero when healthy).
    pipeline_router_parks: Counter = 33, "pipeline.ring.router_parks", info "ring_router_parks", om "pipeline_router_parks";
    /// Times a worker blocked on an empty batch queue (the router could
    /// not keep it fed).
    pipeline_worker_parks: Counter = 34, "pipeline.ring.worker_parks", info "ring_worker_parks", om "pipeline_worker_parks";
    /// Deepest occupancy each worker's batch queue reached, recorded when
    /// a pipeline run finishes.
    pipeline_ring_hwm: Slots(Worker, Max) = 36, "pipeline.ring.depth_hwm", info "ring_depth_hwm", om "ring_depth_hwm";
    /// Shadow-vs-KRR comparisons performed by the accuracy watchdog.
    watchdog_checks: Counter = 18, "watchdog.checks", info "checks", om "watchdog_checks";
    /// References admitted into the watchdog's shadow Olken profiler.
    watchdog_shadow_refs: Counter = 19, "watchdog.shadow_refs", info "shadow_refs", om "watchdog_shadow_refs";
    /// Checks whose MAE exceeded the configured drift threshold.
    watchdog_drift_events: Counter = 20, "watchdog.drift_events", info "drift_events", om "watchdog_drift_events";
    /// Latest MAE between the KRR MRC and the shadow Olken MRC, in parts
    /// per million of miss ratio (MAE 0.0123 → 12300).
    watchdog_mae_ppm: Gauge = 21, "watchdog.mae_ppm", info "mae_ppm", om "watchdog_mae_ppm", unit "ppm";
    /// Per-tenant observability rows (empty without a fleet arena).
    tenant_rows: Tenants = 32, "tenant.rows", om "tenant";
    /// Deep bytes of every KRR stack (entries + key index), summed across
    /// shards and refreshed at footprint publish points.
    footprint_stack_bytes: Gauge = 24, "memory.stack_bytes", info "stack_bytes", om "footprint_stack_bytes", unit "bytes";
    /// Deep bytes of the stack-distance histograms, summed across shards.
    footprint_hist_bytes: Gauge = 25, "memory.hist_bytes", info "hist_bytes", om "footprint_hist_bytes", unit "bytes";
    /// Deep bytes of the byte-level size arrays (0 in uniform-size mode).
    footprint_sizes_bytes: Gauge = 26, "memory.sizes_bytes", info "sizes_bytes", om "footprint_sizes_bytes", unit "bytes";
    /// Resident bytes of the streaming pipeline's routing buffers, set when
    /// a pipeline run starts and kept from the most recent run.
    footprint_pipeline_bytes: Gauge = 27, "memory.pipeline_bytes", info "pipeline_bytes", om "footprint_pipeline_bytes", unit "bytes";
    /// Deep bytes of the accuracy watchdog's shadow Olken profiler.
    footprint_shadow_bytes: Gauge = 28, "memory.shadow_bytes", info "shadow_bytes", om "footprint_shadow_bytes", unit "bytes";
    /// The profiler's modeled space cost: the larger of the last published
    /// total and the sum of the five component gauges.
    footprint_total_bytes: Gauge = 29, "memory.total_bytes", info "total_bytes", om "footprint_total_bytes", unit "bytes";
    /// Live heap bytes from the counting allocator (0 unless the
    /// `alloc-stats` feature is on and its allocator is installed).
    heap_live_bytes: Gauge = 30, "memory.heap_live_bytes", info "heap_live_bytes", om "heap_live_bytes", unit "bytes";
    /// Peak heap bytes from the counting allocator (same caveat).
    heap_peak_bytes: Gauge = 31, "memory.heap_peak_bytes", info "heap_peak_bytes", om "heap_peak_bytes", unit "bytes";
    /// Evictions performed by a simulator or store.
    evictions: Counter = 9, "eviction.evictions", info "evictions", om "evictions";
    /// Idle time (age) of sampled eviction candidates.
    candidate_age: Histogram = 10, "eviction.candidate_age", info "candidate_age", om "candidate_age";
    /// Commands the mini-Redis server has answered.
    server_commands: Counter = 37, "server.commands", info "commands", om "server_commands";
    /// Socket writes of buffered mini-Redis replies: one per command for
    /// request/reply traffic, one per drained input buffer under
    /// pipelining (commands / flushes is replies per write).
    server_reply_flushes: Counter = 38, "server.reply_flushes", info "reply_flushes", om "server_reply_flushes";
    /// Drains of the mini-Redis profile queue that applied at least one
    /// GET to the profiler (profiled GETs / drains is GETs per drain).
    server_profile_drains: Counter = 40, "server.profile_drains", info "profile_drains", om "server_profile_drains";
    /// Exposition HTTP requests cut off at the whole-request deadline
    /// (answered 408).
    expo_request_timeouts: Counter = 39, "expo.request_timeouts", info "request_timeouts", om "expo_request_timeouts";
}

/// Slots at which an older `METR` layout ends: the payload written before
/// the ring-transport rows (slots 33–36) existed stops after the tenant
/// rows, the one written before the server and exposition rows
/// (slots 37–39) stops after the ring rows, and the one written before
/// `server.profile_drains` (slot 40) stops after those. Every such layout
/// is still checkpoint format version 1.
const METR_LAYOUT_ENDS: &[usize] = &[33, 37, 40];

/// Catalog rows in `METR` payload order.
fn metr_order() -> Vec<&'static Metric> {
    let mut rows: Vec<&'static Metric> = CATALOG.iter().collect();
    rows.sort_by_key(|m| m.slot);
    rows
}

/// Catalog rows grouped by section, in render order.
fn sections() -> impl Iterator<Item = &'static [Metric]> {
    CATALOG.chunk_by(|a, b| a.section() == b.section())
}

/// A value computed from stored metrics rather than stored itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rollup {
    /// JSON key inside its object.
    pub key: &'static str,
    /// Help text.
    pub help: &'static str,
    /// The computed value.
    pub value: u64,
}

/// Keys and help texts of [`tenant_rollups`].
const TENANT_ROLLUPS: [(&str, &str); 4] = [
    ("count", "Tenants hosted by the fleet arena."),
    ("refs", "References routed to all tenants."),
    ("drifted", "Tenants with at least one drift event."),
    ("shadowed", "Tenants the accuracy watchdog shadows."),
];

/// Keys and help texts of [`memory_rollups`].
const MEMORY_ROLLUPS: [(&str, &str); 4] = [
    ("count", "Tenants hosted by the fleet arena."),
    ("total_bytes", "Resident bytes of all tenant models."),
    ("mean_bytes", "Mean resident bytes of a tenant model."),
    ("max_bytes", "Resident bytes of the largest tenant model."),
];

fn rollups(defs: &[(&'static str, &'static str); 4], values: [u64; 4]) -> [Rollup; 4] {
    std::array::from_fn(|i| Rollup {
        key: defs[i].0,
        help: defs[i].1,
        value: values[i],
    })
}

/// Fleet rollups of tenant rows, the `tenant.*` keys ahead of
/// `tenant.rows`: tenants, their summed references, tenants with drift
/// events, tenants the watchdog shadows.
#[must_use]
pub fn tenant_rollups(rows: &[TenantRow]) -> [Rollup; 4] {
    let refs = rows.iter().map(|t| t.refs).sum();
    let drifted = rows.iter().filter(|t| t.drift_events > 0).count() as u64;
    let shadowed = rows.iter().filter(|t| t.shadowed).count() as u64;
    rollups(
        &TENANT_ROLLUPS,
        [rows.len() as u64, refs, drifted, shadowed],
    )
}

/// Per-tenant resident-byte rollups, the `memory.tenant.*` gauges: tenants
/// and the total, mean and max of their resident bytes.
#[must_use]
pub fn memory_rollups(rows: &[TenantRow]) -> [Rollup; 4] {
    let n = rows.len() as u64;
    let total: u64 = rows.iter().map(|t| t.resident_bytes).sum();
    let max = rows.iter().map(|t| t.resident_bytes).max().unwrap_or(0);
    rollups(
        &MEMORY_ROLLUPS,
        [n, total, total.checked_div(n).unwrap_or(0), max],
    )
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sum of the five footprint component gauges.
    fn footprint_parts(&self) -> u64 {
        self.footprint_stack_bytes.get()
            + self.footprint_hist_bytes.get()
            + self.footprint_sizes_bytes.get()
            + self.footprint_shadow_bytes.get()
            + self.footprint_pipeline_bytes.get()
    }

    /// Publishes a footprint breakdown (see [`crate::footprint`]) into the
    /// memory gauges. Recognized part labels map onto the dedicated gauges
    /// (`stack_entries`/`stack_index`/`stack_scratch` → stack,
    /// `histogram` → hist, `size_array` → sizes, `shadow_*` → shadow); a
    /// gauge is only overwritten when its labels appear in the report, so
    /// independent publishers don't stomp each other. The total gauge is
    /// recomputed as the sum of the five component gauges after the
    /// update, and the heap gauges are refreshed from [`crate::heap`] on
    /// every publish.
    pub fn publish_footprint(&self, report: &crate::footprint::FootprintReport) {
        let has = |label: &str| report.parts().iter().any(|&(l, _)| l == label);
        if has("stack_entries") || has("stack_index") || has("stack_scratch") {
            let stack = report.get("stack_entries")
                + report.get("stack_index")
                + report.get("stack_scratch");
            self.footprint_stack_bytes.set(stack as u64);
        }
        if has("histogram") {
            self.footprint_hist_bytes
                .set(report.get("histogram") as u64);
        }
        if has("size_array") {
            self.footprint_sizes_bytes
                .set(report.get("size_array") as u64);
        }
        let shadow_parts: Vec<_> = report
            .parts()
            .iter()
            .filter(|(l, _)| l.starts_with("shadow_"))
            .collect();
        if !shadow_parts.is_empty() {
            let shadow: usize = shadow_parts.iter().map(|&&(_, b)| b).sum();
            self.footprint_shadow_bytes.set(shadow as u64);
        }
        self.footprint_total_bytes.set(self.footprint_parts());
        self.heap_live_bytes.set(crate::heap::live_bytes());
        self.heap_peak_bytes.set(crate::heap::peak_bytes());
    }

    /// Point-in-time copy of every metric.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.read_cells();
        // The pipeline sets its component gauge directly between
        // publish_footprint calls, so the stored total can lag; a scrape
        // must never read total < the live parts.
        snap.footprint_total_bytes = snap.footprint_total_bytes.max(self.footprint_parts());
        snap
    }
}

impl MetricsSnapshot {
    /// Largest relative deviation of any shard's access count from the
    /// per-shard mean (0 = perfectly balanced; `None` when unsharded or
    /// idle).
    #[must_use]
    pub fn shard_imbalance(&self) -> Option<f64> {
        if self.shard_accesses.len() < 2 {
            return None;
        }
        let total: u64 = self.shard_accesses.iter().sum();
        if total == 0 {
            return None;
        }
        let mean = total as f64 / self.shard_accesses.len() as f64;
        self.shard_accesses
            .iter()
            .map(|&c| (c as f64 - mean).abs() / mean)
            .fold(None, |acc: Option<f64>, d| {
                Some(acc.map_or(d, |a| a.max(d)))
            })
    }

    /// Renders Redis-`INFO`-style sections (`# section` headers,
    /// `key:value` lines, CRLF terminators) — the wire format of the
    /// mini-Redis `INFO`/`METRICS` command.
    #[must_use]
    pub fn render_info(&self) -> String {
        let mut s = String::new();
        for rows in sections() {
            let section = rows[0].section();
            let _ = write!(s, "# {section}\r\n");
            // Derived lines: the shard count heads its section, the fleet
            // rollups head theirs, the imbalance follows the access counts
            // and the tenant footprint rollups close the memory section.
            if section == "shards" {
                let _ = write!(s, "shard_count:{}\r\n", self.shard_accesses.len());
            }
            if section == "tenant" {
                for r in tenant_rollups(&self.tenant_rows) {
                    let _ = write!(s, "{}:{}\r\n", r.key, r.value);
                }
            }
            for m in rows {
                if let Some(key) = m.info {
                    (m.get)(self).write_info(&mut s, key);
                }
                if m.field == "shard_accesses" {
                    if let Some(im) = self.shard_imbalance() {
                        let _ = write!(s, "shard_imbalance:{im:.4}\r\n");
                    }
                }
            }
            if section == "memory" {
                for r in memory_rollups(&self.tenant_rows) {
                    let _ = write!(s, "tenant_{}:{}\r\n", r.key, r.value);
                }
            }
        }
        s
    }

    /// Renders the snapshot as a single `krr-metrics-v1` JSON object: one
    /// object per section, keys in catalog order.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"schema\":\"krr-metrics-v1\"");
        for rows in sections() {
            let section = rows[0].section();
            let _ = write!(s, ",\"{section}\":{{");
            let mut sep = "";
            // Derived keys, as in render_info: fleet rollups ahead of the
            // rows, tenant footprint rollups after the memory gauges.
            if section == "tenant" {
                for r in tenant_rollups(&self.tenant_rows) {
                    let _ = write!(s, "{sep}\"{}\":{}", r.key, r.value);
                    sep = ",";
                }
            }
            let mut group = None;
            for m in rows {
                if m.group() != group {
                    if group.is_some() {
                        s.push('}');
                    }
                    if let Some(g) = m.group() {
                        let _ = write!(s, "{sep}\"{g}\":{{");
                        sep = "";
                    }
                    group = m.group();
                }
                let _ = write!(s, "{sep}\"{}\":", m.key());
                (m.get)(self).write_json(&mut s);
                sep = ",";
            }
            if group.is_some() {
                s.push('}');
            }
            if section == "memory" {
                let _ = write!(s, "{sep}\"tenant\":{{");
                join(
                    &mut s,
                    memory_rollups(&self.tenant_rows)
                        .iter()
                        .map(|r| format!("\"{}\":{}", r.key, r.value)),
                );
                s.push('}');
            }
            s.push('}');
        }
        s.push('}');
        s
    }

    /// Serializes the snapshot into a `krr-ckpt-v1` payload (the `METR`
    /// checkpoint section): every catalog row in slot order. New rows take
    /// the next slot, so the payload only ever grows at its end.
    pub fn save_state(&self, enc: &mut Enc) {
        for m in metr_order() {
            (m.get)(self).save(enc);
        }
    }

    /// Reconstructs a snapshot from a [`MetricsSnapshot::save_state`]
    /// payload. A payload in an older version-1 layout (ending after the
    /// tenant rows, the ring-transport rows, or the server and exposition
    /// rows) loads with the rows added since at their defaults; a payload
    /// that ends anywhere else is truncated and rejected.
    pub fn load_state(dec: &mut Dec<'_>) -> io::Result<Self> {
        let mut snap = MetricsRegistry::new().snapshot();
        for m in metr_order() {
            if dec.is_empty() && METR_LAYOUT_ENDS.contains(&m.slot) {
                break;
            }
            (m.load)(&mut snap, dec)?;
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn catalog_rows_are_consistent() {
        // METR slots are a permutation: every row has one frozen position.
        let mut slots: Vec<usize> = CATALOG.iter().map(|m| m.slot).collect();
        slots.sort_unstable();
        assert_eq!(slots, (0..CATALOG.len()).collect::<Vec<_>>());
        // Each section is one contiguous run, so it renders as one block.
        let mut runs: Vec<&str> = sections().map(|rows| rows[0].section()).collect();
        let sections = runs.len();
        runs.sort_unstable();
        runs.dedup();
        assert_eq!(runs.len(), sections, "a section is split");
        for (i, m) in CATALOG.iter().enumerate() {
            // OpenMetrics HELP text would need `"` and `\` escaped.
            assert!(!m.help().is_empty() && !m.help().contains(['"', '\\']));
            let unit_ok = m.unit.is_empty() || m.family.ends_with(&format!("_{}", m.unit));
            assert!(unit_ok, "{}: unit is not a suffix of its family", m.field);
            for other in &CATALOG[i + 1..] {
                assert_ne!(m.json, other.json);
                assert_ne!(m.family, other.family);
            }
        }
        for c in TENANT_COLUMNS {
            assert!(c.unit.is_empty() || c.key.ends_with(&format!("_{}", c.unit)));
        }
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(1), 1);
        assert_eq!(bucket_bound(2), 3);
        assert_eq!(bucket_bound(64), u64::MAX);
        // Every value lands in a bucket whose bound is >= the value.
        for v in [0u64, 1, 2, 5, 63, 64, 1_000_000] {
            assert!(bucket_bound(bucket_of(v)) >= v, "v={v}");
        }
    }

    #[test]
    fn histogram_mean_and_percentile() {
        let h = LogHistogram::new();
        for v in [1u64, 1, 2, 4, 100] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 108);
        assert_eq!(s.max, 100);
        assert!((s.mean() - 21.6).abs() < 1e-9);
        // p50 lands in the bucket of the 3rd value (2 -> bound 3).
        assert_eq!(s.percentile(0.5), 3);
        // p100 caps at the observed max, not the bucket bound.
        assert_eq!(s.percentile(1.0), 100);
        assert_eq!(
            HistogramSnapshot {
                buckets: [0; LOG_BUCKETS],
                count: 0,
                sum: 0,
                max: 0
            }
            .percentile(0.5),
            0
        );
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let reg = Arc::new(MetricsRegistry::new());
        let threads = 8;
        let per = 10_000u64;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let reg = Arc::clone(&reg);
                scope.spawn(move || {
                    for i in 0..per {
                        reg.accesses.inc();
                        reg.chain_len.record(i % 37);
                    }
                });
            }
        });
        let s = reg.snapshot();
        assert_eq!(s.accesses, threads * per);
        assert_eq!(s.chain_len.count, threads * per);
        assert_eq!(s.chain_len.buckets.iter().sum::<u64>(), threads * per);
    }

    #[test]
    fn shard_counters_and_imbalance() {
        let reg = MetricsRegistry::new();
        assert!(reg.shard_accesses.values().is_empty());
        reg.shard_accesses.record(0, 1); // no-op before init
        reg.init_slots(Scope::Shard, 4);
        reg.init_slots(Scope::Shard, 9); // ignored
        for i in 0..4 {
            for _ in 0..=(i * 10) {
                reg.shard_accesses.record(i, 1);
            }
        }
        reg.shard_accesses.record(99, 1); // out of range: ignored
        let s = reg.snapshot();
        assert_eq!(s.shard_accesses, vec![1, 11, 21, 31]);
        let im = s.shard_imbalance().unwrap();
        assert!(im > 0.5, "imbalance {im}");
        let balanced = MetricsSnapshot {
            shard_accesses: vec![10, 10],
            ..s
        };
        assert_eq!(balanced.shard_imbalance(), Some(0.0));
    }

    #[test]
    fn queue_depth_high_water_marks() {
        let reg = MetricsRegistry::new();
        reg.pipeline_queue_hwm.record(0, 5); // no-op before init
        assert!(reg.pipeline_queue_hwm.values().is_empty());
        reg.init_slots(Scope::Shard, 3);
        reg.pipeline_queue_hwm.record(0, 2);
        reg.pipeline_queue_hwm.record(0, 7);
        reg.pipeline_queue_hwm.record(0, 4); // below the mark: ignored
        reg.pipeline_queue_hwm.record(2, 1);
        reg.pipeline_queue_hwm.record(9, 3); // out of range: ignored
        assert_eq!(reg.pipeline_queue_hwm.values(), vec![7, 0, 1]);
        reg.shard_accesses.record(1, 40);
        assert_eq!(reg.shard_accesses.values(), vec![0, 40, 0]);
        let snap = reg.snapshot();
        assert_eq!(snap.pipeline_queue_hwm, vec![7, 0, 1]);
    }

    #[test]
    fn gauge_overwrites_both_ways() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0);
        g.set(500);
        assert_eq!(g.get(), 500);
        g.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn histogram_delta_is_windowed() {
        let h = LogHistogram::new();
        h.record(4);
        h.record(100);
        let early = h.snapshot();
        h.record(2);
        h.record(2);
        let late = h.snapshot();
        let d = late.delta(&early);
        assert_eq!(d.count, 2);
        assert_eq!(d.sum, 4);
        assert_eq!(d.buckets[bucket_of(2)], 2);
        assert_eq!(d.buckets[bucket_of(100)], 0);
        // max stays absolute — the window's own max is unrecoverable.
        assert_eq!(d.max, 100);
        // Degenerate (swapped) pair saturates to zero instead of wrapping.
        let swapped = early.delta(&late);
        assert_eq!(swapped.count, 0);
        assert_eq!(swapped.sum, 0);
    }

    #[test]
    fn watchdog_fields_flow_to_renderings() {
        let reg = MetricsRegistry::new();
        reg.watchdog_checks.add(4);
        reg.watchdog_shadow_refs.add(123);
        reg.watchdog_drift_events.inc();
        reg.watchdog_mae_ppm.set(7700);
        let snap = reg.snapshot();
        assert_eq!(snap.watchdog_checks, 4);
        assert_eq!(snap.watchdog_mae_ppm, 7700);
        let info = snap.render_info();
        assert!(info.contains("# watchdog"));
        assert!(info.contains("mae_ppm:7700"));
        assert!(info.contains("drift_events:1"));
        let json = snap.to_json();
        assert!(json.contains(
            "\"watchdog\":{\"checks\":4,\"shadow_refs\":123,\"drift_events\":1,\"mae_ppm\":7700}"
        ));
    }

    #[test]
    fn snapshot_save_load_absorb_roundtrip() {
        let reg = MetricsRegistry::new();
        reg.accesses.add(42);
        reg.hits.add(30);
        reg.chain_len.record(9);
        reg.chain_len.record(100);
        reg.watchdog_mae_ppm.set(1234);
        reg.init_slots(Scope::Shard, 3);
        reg.shard_accesses.record(1, 17);
        reg.pipeline_queue_hwm.record(2, 5);
        reg.shard_resident.record(1, 9);
        reg.shard_depth_hwm.record(1, 33);
        reg.footprint_total_bytes.set(4096);
        reg.pipeline_router_parks.add(2);
        reg.pipeline_worker_parks.add(6);
        reg.pipeline_ring_wraps.add(11);
        reg.init_slots(Scope::Worker, 2);
        reg.pipeline_ring_hwm.record(1, 8);
        let snap = reg.snapshot();

        let mut enc = crate::checkpoint::Enc::new();
        snap.save_state(&mut enc);
        let bytes = enc.into_bytes();
        let loaded = MetricsSnapshot::load_state(&mut crate::checkpoint::Dec::new(&bytes)).unwrap();

        // Absorb into a fresh registry: counters continue where they were.
        let fresh = MetricsRegistry::new();
        fresh.absorb(&loaded);
        fresh.accesses.inc();
        let after = fresh.snapshot();
        assert_eq!(after.accesses, 43);
        assert_eq!(after.hits, 30);
        assert_eq!(after.chain_len.count, 2);
        assert_eq!(after.chain_len.sum, 109);
        assert_eq!(after.chain_len.max, 100);
        assert_eq!(after.watchdog_mae_ppm, 1234);
        assert_eq!(after.shard_accesses, vec![0, 17, 0]);
        assert_eq!(after.pipeline_queue_hwm, vec![0, 0, 5]);
        assert_eq!(after.shard_resident, vec![0, 9, 0]);
        assert_eq!(after.shard_depth_hwm, vec![0, 33, 0]);
        assert_eq!(after.footprint_total_bytes, 4096);
        assert_eq!(after.pipeline_router_parks, 2);
        assert_eq!(after.pipeline_worker_parks, 6);
        assert_eq!(after.pipeline_ring_wraps, 11);
        assert_eq!(after.pipeline_ring_hwm, vec![0, 8]);
    }

    #[test]
    fn ring_depth_high_water_marks() {
        let reg = MetricsRegistry::new();
        reg.pipeline_ring_hwm.record(0, 5); // no-op before init
        assert!(reg.pipeline_ring_hwm.values().is_empty());
        reg.init_slots(Scope::Worker, 2);
        reg.init_slots(Scope::Worker, 7); // ignored: first caller wins
        reg.pipeline_ring_hwm.record(0, 3);
        reg.pipeline_ring_hwm.record(0, 9);
        reg.pipeline_ring_hwm.record(0, 4); // below the mark: ignored
        reg.pipeline_ring_hwm.record(5, 1); // out of range: ignored
        assert_eq!(reg.pipeline_ring_hwm.values(), vec![9, 0]);
        let snap = reg.snapshot();
        assert_eq!(snap.pipeline_ring_hwm, vec![9, 0]);
        let info = snap.render_info();
        assert!(info.contains("ring_depth_hwm:9,0"));
        let json = snap.to_json();
        assert!(json.contains(
            "\"ring\":{\"wraps\":0,\"router_parks\":0,\"worker_parks\":0,\"depth_hwm\":[9,0]}"
        ));
    }

    #[test]
    fn footprint_publish_maps_labels_onto_gauges() {
        let reg = MetricsRegistry::new();
        reg.footprint_pipeline_bytes.set(100);
        let mut r = crate::footprint::FootprintReport::new();
        r.add("stack_entries", 10)
            .add("stack_index", 20)
            .add("stack_scratch", 5)
            .add("histogram", 7)
            .add("size_array", 3)
            .add("shadow_tree", 40)
            .add("shadow_index", 2);
        reg.publish_footprint(&r);
        assert_eq!(reg.footprint_stack_bytes.get(), 35);
        assert_eq!(reg.footprint_hist_bytes.get(), 7);
        assert_eq!(reg.footprint_sizes_bytes.get(), 3);
        assert_eq!(reg.footprint_shadow_bytes.get(), 42);
        assert_eq!(reg.footprint_total_bytes.get(), 87 + 100);
        // A partial publish (shadow only) must not stomp the other gauges.
        let mut shadow_only = crate::footprint::FootprintReport::new();
        shadow_only.add("shadow_olken", 50);
        reg.publish_footprint(&shadow_only);
        assert_eq!(reg.footprint_stack_bytes.get(), 35);
        assert_eq!(reg.footprint_shadow_bytes.get(), 50);
        assert_eq!(reg.footprint_total_bytes.get(), 95 + 100);
        let snap = reg.snapshot();
        let info = snap.render_info();
        assert!(info.contains("# memory"));
        assert!(info.contains("total_bytes:195"));
        let json = snap.to_json();
        assert!(json.contains("\"memory\":{\"stack_bytes\":35"));
        assert!(json.contains("\"total_bytes\":195"));
        assert!(json.contains("\"resident\":[]"));
    }

    #[test]
    fn info_and_json_renderings_contain_sections() {
        let reg = MetricsRegistry::new();
        reg.accesses.add(3);
        reg.hits.inc();
        reg.chain_len.record(5);
        reg.init_slots(Scope::Shard, 2);
        reg.shard_accesses.record(0, 1);
        let snap = reg.snapshot();
        let info = snap.render_info();
        for section in [
            "# model",
            "# updater",
            "# latency",
            "# shards",
            "# pipeline",
            "# watchdog",
            "# eviction",
        ] {
            assert!(info.contains(section), "{section} missing from\n{info}");
        }
        assert!(info.contains("accesses:3"));
        assert!(info.contains("chain_len_count:1"));
        assert!(info.contains("keys_hashed:0"));
        assert!(info.contains("queue_depth_hwm:0,0"));
        let json = snap.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"schema\":\"krr-metrics-v1\""));
        assert!(json.contains("\"accesses\":3"));
        assert!(json.contains("\"pipeline\":{\"batches\":0"));
        assert!(json.contains("\"queue_depth_hwm\":[0,0]"));
        // Brace balance as a cheap well-formedness check.
        let open = json.matches(['{', '[']).count();
        let close = json.matches(['}', ']']).count();
        assert_eq!(open, close);
    }

    #[test]
    fn percentile_interp_is_continuous_within_a_bucket() {
        let h = LogHistogram::new();
        // 100 values spread through the [64, 127] bucket.
        for i in 0..100u64 {
            h.record(64 + (i * 63) / 99);
        }
        let snap = h.snapshot();
        // The quantized estimate can only report the bucket bound...
        assert_eq!(snap.percentile(0.5), 127);
        // ...while the interpolated one moves with the rank.
        let p10 = snap.percentile_interp(0.10);
        let p50 = snap.percentile_interp(0.50);
        let p90 = snap.percentile_interp(0.90);
        assert!(p10 < p50 && p50 < p90, "{p10} {p50} {p90}");
        assert!((64.0..=127.0).contains(&p10));
        assert!((64.0..=127.0).contains(&p90));
        // Extremes behave.
        assert_eq!(LogHistogram::new().snapshot().percentile_interp(0.99), 0.0);
        assert!(snap.percentile_interp(1.0) <= snap.max as f64);
    }

    #[test]
    fn percentile_interp_caps_at_observed_max() {
        let h = LogHistogram::new();
        h.record(1000); // bucket [512, 1023], max 1000
        let snap = h.snapshot();
        assert!(snap.percentile_interp(0.99) <= 1000.0);
        assert!(snap.percentile_interp(0.01) >= 512.0);
    }
}
