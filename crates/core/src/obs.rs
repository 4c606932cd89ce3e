//! Flight-recorder observability: lock-free span tracing and a windowed
//! stats timeline.
//!
//! PR 1's [`crate::metrics`] registry answers "how many / how long in
//! aggregate"; this module makes the pipeline's behaviour visible *in
//! time*. Three pieces:
//!
//! * **[`FlightRecorder`]** — per-thread lock-free ring buffers of
//!   fixed-size span events (phase id, start ns, duration ns, one argument
//!   word). Producers write into their own ring with plain `Relaxed`
//!   atomic stores (single-writer, no RMW on the hot path beyond a cursor
//!   bump); the recorder drains all rings on demand into Chrome
//!   trace-event JSON, loadable in Perfetto or `chrome://tracing`.
//! * **[`ThreadRecorder`]** — one thread's handle into the recorder. A
//!   detached recorder is an `Option` in the instrumented struct, so the
//!   disabled hot path compiles to one branch-on-`None` with zero
//!   allocation and zero clock reads.
//! * **[`StatsTimeline`]** — a windowed emitter that turns the one-shot
//!   `krr-metrics-v1` snapshot into a time series: every N references it
//!   takes a delta snapshot of a [`MetricsRegistry`] and appends one
//!   JSON-Lines row (`krr-stats-v1`) with throughput, busy time, queue
//!   high-water marks and histogram deltas.
//!
//! Tracing never touches model state, RNG, or reference order, so MRCs
//! are bit-identical with tracing on or off at any thread count (covered
//! by the `obs` integration suite).
//!
//! ```
//! use krr_core::obs::{FlightRecorder, Phase};
//!
//! let rec = FlightRecorder::new();
//! let t = rec.register("worker-0");
//! let t0 = t.now_ns();
//! // ... do work ...
//! t.record(Phase::WorkerBatch, t0, t.now_ns() - t0, 4096);
//! let mut out = Vec::new();
//! rec.write_chrome_trace(&mut out).unwrap();
//! assert!(String::from_utf8(out).unwrap().contains("\"traceEvents\""));
//! ```

use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::metrics::{HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
use crate::profiler::{PhaseProfiler, ProfPhase, ProfilerHandle};

/// Default ring capacity in events per registered thread.
pub const DEFAULT_RING_CAPACITY: usize = 8192;

/// Swap-chain length at or above which an un-sampled stack update is still
/// recorded as a zero-duration "deep update" marker. Chains this long are
/// the `O(K·logM)` tail the paper's update strategies exist to bound, so
/// every one of them is worth a dot on the timeline.
pub const DEEP_CHAIN_THRESHOLD: u64 = 32;

/// What a span measured. Each phase becomes a named slice on the Chrome
/// trace timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// Pipeline router handing one batch to a worker (arg = shard index).
    RouterBatch = 0,
    /// Router blocked on a full worker queue (arg = shard index).
    RouterStall = 1,
    /// Worker draining one batch into a shard model (arg = batch length).
    WorkerBatch = 2,
    /// Merging shard histograms into one MRC (arg = shard count).
    Merge = 3,
    /// One sampled KRR stack update (arg = swap-chain length).
    StackUpdate = 4,
    /// Zero-duration marker for a deep swap chain (arg = chain length).
    DeepUpdate = 5,
    /// CSV reader stalled on input (arg = bytes read by the slow call).
    CsvRead = 6,
    /// Mini-Redis command handling (arg = command tag).
    Command = 7,
    /// Stats-timeline row emission (arg = row index).
    StatsTick = 8,
    /// Accuracy-watchdog shadow comparison (arg = MAE in ppm). Nothing
    /// records it; id 9 stays part of `krr-trace-v1`.
    WatchdogCheck = 9,
    /// Worker blocked waiting on an empty ring (arg = worker index).
    RingWait = 10,
    /// Mini-Redis connection applying the store's queued GETs to the
    /// profiler after writing its replies (arg = GETs applied).
    ProfileDrain = 11,
}

impl Phase {
    /// Stable name shown in trace viewers.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::RouterBatch => "router_batch",
            Phase::RouterStall => "router_stall",
            Phase::WorkerBatch => "worker_batch",
            Phase::Merge => "merge",
            Phase::StackUpdate => "stack_update",
            Phase::DeepUpdate => "deep_update",
            Phase::CsvRead => "csv_read",
            Phase::Command => "command",
            Phase::StatsTick => "stats_tick",
            Phase::WatchdogCheck => "watchdog_check",
            Phase::RingWait => "ring_wait",
            Phase::ProfileDrain => "profile_drain",
        }
    }

    fn from_id(id: u64) -> Option<Phase> {
        Some(match id {
            0 => Phase::RouterBatch,
            1 => Phase::RouterStall,
            2 => Phase::WorkerBatch,
            3 => Phase::Merge,
            4 => Phase::StackUpdate,
            5 => Phase::DeepUpdate,
            6 => Phase::CsvRead,
            7 => Phase::Command,
            8 => Phase::StatsTick,
            9 => Phase::WatchdogCheck,
            10 => Phase::RingWait,
            11 => Phase::ProfileDrain,
            _ => return None,
        })
    }
}

/// One drained span: `[start_ns, start_ns + dur_ns)` on logical thread
/// `tid`, with one argument word whose meaning depends on the phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// What was measured.
    pub phase: Phase,
    /// Logical thread id (registration order).
    pub tid: u32,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for marker events).
    pub dur_ns: u64,
    /// Phase-specific argument word.
    pub arg: u64,
}

const WORDS_PER_EVENT: usize = 4;

/// One thread's ring. Only the owning [`ThreadRecorder`] writes; drains
/// read concurrently with `Relaxed` loads. A drain racing an in-flight
/// write can observe one torn event; the drain validates the phase id and
/// drops garbage, which is the usual flight-recorder trade for a
/// zero-coordination hot path.
#[derive(Debug)]
struct Ring {
    tid: u32,
    label: String,
    /// Events ever written (monotone; slot = cursor % capacity).
    cursor: AtomicU64,
    words: Box<[AtomicU64]>,
    /// The thread's row in the recorder's profiler: every span recorded
    /// here is also a profile sample there.
    prof: ProfilerHandle,
}

impl Ring {
    fn capacity(&self) -> usize {
        self.words.len() / WORDS_PER_EVENT
    }
}

/// The shared flight recorder: a registry of per-thread rings plus the
/// common clock epoch.
#[derive(Debug)]
pub struct FlightRecorder {
    epoch: Instant,
    capacity: usize,
    rings: Mutex<Vec<Arc<Ring>>>,
    /// Embedded self-profiler: every recorded span is also attributed to
    /// a [`ProfPhase`] bucket on the recording thread, so instrumented
    /// code gets phase attribution for free (see [`crate::profiler`]).
    profiler: Arc<PhaseProfiler>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_RING_CAPACITY)
    }
}

impl FlightRecorder {
    /// Recorder with the default per-thread ring capacity.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Recorder whose per-thread rings hold `capacity` events (rounded up
    /// to a power of two, minimum 16). Older events are overwritten once a
    /// ring is full — a flight recorder keeps the recent past, not
    /// everything.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            capacity: capacity.max(16).next_power_of_two(),
            rings: Mutex::new(Vec::new()),
            profiler: Arc::new(PhaseProfiler::new()),
        }
    }

    /// The embedded phase-attribution profiler (source of `/profile`).
    #[must_use]
    pub fn profiler(&self) -> &Arc<PhaseProfiler> {
        &self.profiler
    }

    /// Registers a logical thread and returns its recording handle.
    /// A ring whose handle was dropped goes to the next registration under
    /// its label, with its tid, its events and its profiler row, so a
    /// caller that re-registers the same labels on every run (the
    /// pipeline's `router` and `worker-<w>`) holds one ring per label, not
    /// one per run. Registration takes a lock (it is rare); recording
    /// never does.
    #[must_use]
    pub fn register(&self, label: &str) -> ThreadRecorder {
        let mut rings = self.rings.lock().expect("recorder poisoned");
        // Only handles and this list hold a ring, and handles are made
        // here under the lock: a count of 1 means no handle is left.
        let free = rings
            .iter()
            .find(|r| r.label == label && Arc::strong_count(r) == 1);
        let ring = match free {
            Some(ring) => {
                // Pairs with the last handle's release on drop, so the
                // new writer starts from the old one's cursor.
                std::sync::atomic::fence(Ordering::Acquire);
                Arc::clone(ring)
            }
            None => {
                let ring = Arc::new(Ring {
                    tid: rings.len() as u32,
                    label: label.to_string(),
                    cursor: AtomicU64::new(0),
                    words: (0..self.capacity * WORDS_PER_EVENT)
                        .map(|_| AtomicU64::new(0))
                        .collect(),
                    prof: self.profiler.register(label),
                });
                rings.push(Arc::clone(&ring));
                ring
            }
        };
        ThreadRecorder {
            ring,
            epoch: self.epoch,
        }
    }

    /// Nanoseconds since the recorder's epoch.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Drains every ring: returns all currently-held events sorted by
    /// start time, plus the number of events lost to ring overwrite.
    #[must_use]
    pub fn collect_events(&self) -> (Vec<SpanEvent>, u64) {
        let rings = self.rings.lock().expect("recorder poisoned");
        let mut events = Vec::new();
        let mut dropped = 0u64;
        for ring in rings.iter() {
            let cap = ring.capacity() as u64;
            let end = ring.cursor.load(Ordering::Acquire);
            let start = end.saturating_sub(cap);
            dropped += start;
            for i in start..end {
                let base = (i % cap) as usize * WORDS_PER_EVENT;
                let w0 = ring.words[base].load(Ordering::Relaxed);
                // A torn or not-yet-written slot shows an invalid phase id
                // (word 0 also carries a validity tag in the high bits).
                let Some(phase) = Phase::from_id(w0 & 0xFF) else {
                    continue;
                };
                if w0 >> 8 != VALID_TAG {
                    continue;
                }
                events.push(SpanEvent {
                    phase,
                    tid: ring.tid,
                    start_ns: ring.words[base + 1].load(Ordering::Relaxed),
                    dur_ns: ring.words[base + 2].load(Ordering::Relaxed),
                    arg: ring.words[base + 3].load(Ordering::Relaxed),
                });
            }
        }
        events.sort_by_key(|e| (e.start_ns, e.tid));
        (events, dropped)
    }

    /// Writes the drained events as Chrome trace-event JSON (the
    /// `{"traceEvents": [...]}` object format): one `ph:"M"` thread-name
    /// metadata record per registered thread, then one `ph:"X"` complete
    /// event per span with microsecond `ts`/`dur`. Open the file in
    /// Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
    pub fn write_chrome_trace<W: Write>(&self, mut w: W) -> io::Result<()> {
        let (events, dropped) = self.collect_events();
        let rings = self.rings.lock().expect("recorder poisoned");
        w.write_all(b"{\"traceEvents\":[")?;
        let mut first = true;
        let sep = |w: &mut W, first: &mut bool| -> io::Result<()> {
            if !*first {
                w.write_all(b",")?;
            }
            *first = false;
            Ok(())
        };
        for ring in rings.iter() {
            sep(&mut w, &mut first)?;
            write!(
                w,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                 \"args\":{{\"name\":{}}}}}",
                ring.tid,
                json_string(&ring.label)
            )?;
        }
        drop(rings);
        for e in &events {
            sep(&mut w, &mut first)?;
            // Command spans pack `tag | (tenant_id + 1) << 8` so fleet-mode
            // slow commands stay attributable; decode the tenant back out.
            let args = if e.phase == Phase::Command && e.arg >> 8 != 0 {
                format!(
                    "{{\"arg\":{},\"tenant\":{}}}",
                    e.arg & 0xFF,
                    (e.arg >> 8) - 1
                )
            } else {
                format!("{{\"arg\":{}}}", e.arg)
            };
            // ts/dur are microseconds with ns precision kept as decimals.
            write!(
                w,
                "{{\"name\":\"{}\",\"cat\":\"krr\",\"ph\":\"X\",\"ts\":{}.{:03},\
                 \"dur\":{}.{:03},\"pid\":1,\"tid\":{},\"args\":{}}}",
                e.phase.name(),
                e.start_ns / 1_000,
                e.start_ns % 1_000,
                e.dur_ns / 1_000,
                e.dur_ns % 1_000,
                e.tid,
                args
            )?;
        }
        write!(
            w,
            "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"schema\":\"krr-trace-v1\",\
             \"dropped_events\":{dropped}}}}}"
        )
    }

    /// [`FlightRecorder::write_chrome_trace`] into a `String`.
    #[must_use]
    pub fn chrome_trace_json(&self) -> String {
        let mut buf = Vec::new();
        self.write_chrome_trace(&mut buf)
            .expect("in-memory write cannot fail");
        String::from_utf8(buf).expect("trace JSON is UTF-8")
    }
}

/// Validity tag stored in word 0's high bits so a drain can reject slots
/// that were never written (all-zero word 0 would otherwise decode as a
/// `RouterBatch` at t=0).
const VALID_TAG: u64 = 0x000B_5E55;

/// One thread's handle into a [`FlightRecorder`]. Recording is two
/// `Relaxed` stores per word plus a cursor bump — no locks, no allocation.
/// The handle is `Send` but deliberately not `Clone`: one ring has one
/// writer.
#[derive(Debug)]
pub struct ThreadRecorder {
    ring: Arc<Ring>,
    epoch: Instant,
}

impl ThreadRecorder {
    /// Nanoseconds since the owning recorder's epoch.
    #[inline]
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records one span event. `start_ns` must come from
    /// [`ThreadRecorder::now_ns`] (same epoch).
    #[inline]
    pub fn record(&self, phase: Phase, start_ns: u64, dur_ns: u64, arg: u64) {
        let cap = self.ring.capacity() as u64;
        let i = self.ring.cursor.load(Ordering::Relaxed);
        let base = (i % cap) as usize * WORDS_PER_EVENT;
        let words = &self.ring.words;
        words[base + 1].store(start_ns, Ordering::Relaxed);
        words[base + 2].store(dur_ns, Ordering::Relaxed);
        words[base + 3].store(arg, Ordering::Relaxed);
        words[base].store((VALID_TAG << 8) | phase as u64, Ordering::Relaxed);
        // Release-publish the slot before advancing the cursor so a drain
        // that sees the new cursor sees the completed words.
        self.ring.cursor.store(i + 1, Ordering::Release);
        // Piggyback phase attribution for the self-profiler: every span
        // is also a profile sample on this thread.
        self.ring.prof.sample(ProfPhase::from_span(phase), dur_ns);
    }

    /// Records a span that started at `start_ns` and ends now.
    #[inline]
    pub fn record_since(&self, phase: Phase, start_ns: u64, arg: u64) {
        self.record(phase, start_ns, self.now_ns() - start_ns, arg);
    }

    /// Records a zero-duration marker event at the current time.
    #[inline]
    pub fn mark(&self, phase: Phase, arg: u64) {
        self.record(phase, self.now_ns(), 0, arg);
    }

    /// Logical thread id of this handle's ring.
    #[must_use]
    pub fn tid(&self) -> u32 {
        self.ring.tid
    }

    /// Attributes `ns` to a profiler bucket without recording a span —
    /// for stretches no span covers (the router's hashing time between
    /// dispatches samples [`ProfPhase::Hash`] this way).
    #[inline]
    pub fn profile(&self, phase: ProfPhase, ns: u64) {
        self.ring.prof.sample(phase, ns);
    }
}

pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Windowed stats emitter: every `every` references it snapshots a
/// [`MetricsRegistry`], subtracts the previous snapshot, and appends one
/// `krr-stats-v1` JSON-Lines row to `out`. The one-shot `krr-metrics-v1`
/// snapshot becomes a time series — throughput, stall and busy-time deltas,
/// histogram deltas, and queue-depth high-water marks per window.
#[derive(Debug)]
pub struct StatsTimeline<W: Write> {
    reg: Arc<MetricsRegistry>,
    out: W,
    every: u64,
    next_at: u64,
    rows: u64,
    epoch: Instant,
    prev: MetricsSnapshot,
    prev_wall_ns: u64,
    prev_refs: u64,
}

impl<W: Write> StatsTimeline<W> {
    /// Timeline over `reg` writing to `out`, emitting every `every >= 1`
    /// references.
    #[must_use]
    pub fn new(reg: Arc<MetricsRegistry>, out: W, every: u64) -> Self {
        let every = every.max(1);
        let prev = reg.snapshot();
        Self {
            reg,
            out,
            every,
            next_at: every,
            rows: 0,
            epoch: Instant::now(),
            prev,
            prev_wall_ns: 0,
            prev_refs: 0,
        }
    }

    /// Number of rows written so far.
    #[must_use]
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Continues a timeline across a checkpoint/restore: the interrupted
    /// run already processed `refs` references and wrote `rows` rows, so
    /// row numbering resumes at `rows`, deltas are taken against the
    /// registry's *current* (restored) state, and the next window boundary
    /// lands where the uninterrupted schedule would have put it. Call
    /// after [`crate::MetricsRegistry::absorb`]-ing the checkpointed
    /// snapshot and before the first [`StatsTimeline::offer`].
    pub fn resume_at(&mut self, refs: u64, rows: u64) {
        self.rows = rows;
        self.prev_refs = refs;
        self.next_at = (refs / self.every + 1) * self.every;
        self.prev = self.reg.snapshot();
    }

    /// Flushes and returns the underlying writer (e.g. to inspect rows
    /// written to an in-memory buffer).
    pub fn into_inner(mut self) -> io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }

    /// Emits a row iff `refs` (references processed so far) has crossed
    /// the next window boundary. Returns whether a row was written.
    pub fn offer(&mut self, refs: u64) -> io::Result<bool> {
        if refs < self.next_at {
            return Ok(false);
        }
        self.emit(refs)?;
        self.next_at = (refs / self.every + 1) * self.every;
        Ok(true)
    }

    /// Emits one final row if any references arrived since the last row.
    pub fn finish(&mut self, refs: u64) -> io::Result<()> {
        if refs > self.prev_refs {
            self.emit(refs)?;
        }
        self.out.flush()
    }

    /// Unconditionally writes one delta row for the window ending at
    /// `refs` references.
    pub fn emit(&mut self, refs: u64) -> io::Result<()> {
        use std::fmt::Write as _;
        let snap = self.reg.snapshot();
        let wall_ns = self.epoch.elapsed().as_nanos() as u64;
        let d_refs = refs.saturating_sub(self.prev_refs);
        let d_wall = wall_ns.saturating_sub(self.prev_wall_ns);
        let throughput = if d_wall == 0 {
            0.0
        } else {
            d_refs as f64 * 1e9 / d_wall as f64
        };
        let d = |cur: u64, prev: u64| cur.saturating_sub(prev);
        let hist_delta = |s: &mut String, name: &str, cur: &HistogramSnapshot, prev| {
            let h = cur.delta(prev);
            let _ = write!(
                s,
                "\"{name}\":{{\"count\":{},\"sum\":{},\"mean\":{:.3},\"p99\":{},\"max\":{}}}",
                h.count,
                h.sum,
                h.mean(),
                h.percentile(0.99),
                h.max
            );
        };
        let mut row = String::with_capacity(512);
        let _ = write!(
            row,
            "{{\"schema\":\"krr-stats-v1\",\"row\":{},\"refs\":{refs},\"wall_ms\":{:.3},\
             \"throughput_rps\":{throughput:.1},\"delta\":{{\"refs\":{d_refs},",
            self.rows,
            wall_ns as f64 / 1e6,
        );
        let _ = write!(
            row,
            "\"accesses\":{},\"hits\":{},\"cold_misses\":{},\"spatial_rejected\":{},\
             \"batches\":{},\"stalls\":{},\"keys_hashed\":{},\"router_busy_ns\":{},\
             \"worker_busy_ns\":{},\"merges\":{},\"evictions\":{},",
            d(snap.accesses, self.prev.accesses),
            d(snap.hits, self.prev.hits),
            d(snap.cold_misses, self.prev.cold_misses),
            d(snap.spatial_rejected, self.prev.spatial_rejected),
            d(snap.pipeline_batches, self.prev.pipeline_batches),
            d(snap.pipeline_stalls, self.prev.pipeline_stalls),
            d(snap.pipeline_keys_hashed, self.prev.pipeline_keys_hashed),
            d(
                snap.pipeline_router_busy_ns,
                self.prev.pipeline_router_busy_ns
            ),
            d(
                snap.pipeline_worker_busy_ns,
                self.prev.pipeline_worker_busy_ns
            ),
            d(snap.merges, self.prev.merges),
            d(snap.evictions, self.prev.evictions),
        );
        hist_delta(&mut row, "chain_len", &snap.chain_len, &self.prev.chain_len);
        row.push(',');
        hist_delta(&mut row, "access_ns", &snap.access_ns, &self.prev.access_ns);
        row.push_str("},\"queue_depth_hwm\":[");
        for (i, q) in snap.pipeline_queue_hwm.iter().enumerate() {
            if i > 0 {
                row.push(',');
            }
            let _ = write!(row, "{q}");
        }
        let _ = write!(
            row,
            "],\"watchdog\":{{\"mae_ppm\":{},\"drift_events\":{}}}}}",
            snap.watchdog_mae_ppm, snap.watchdog_drift_events
        );
        self.out.write_all(row.as_bytes())?;
        self.out.write_all(b"\n")?;
        self.rows += 1;
        self.prev = snap;
        self.prev_wall_ns = wall_ns;
        self.prev_refs = refs;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_drain_roundtrip() {
        let rec = FlightRecorder::with_capacity(64);
        let t = rec.register("main");
        t.record(Phase::WorkerBatch, 100, 50, 7);
        t.record(Phase::Merge, 200, 10, 3);
        t.mark(Phase::DeepUpdate, 99);
        let (events, dropped) = rec.collect_events();
        assert_eq!(dropped, 0);
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].phase, Phase::WorkerBatch);
        assert_eq!(events[0].start_ns, 100);
        assert_eq!(events[0].dur_ns, 50);
        assert_eq!(events[0].arg, 7);
        assert_eq!(events[1].phase, Phase::Merge);
        assert_eq!(events[2].phase, Phase::DeepUpdate);
        assert_eq!(events[2].dur_ns, 0);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let rec = FlightRecorder::with_capacity(16);
        let t = rec.register("main");
        for i in 0..40u64 {
            t.record(Phase::StackUpdate, i, 1, i);
        }
        let (events, dropped) = rec.collect_events();
        assert_eq!(events.len(), 16);
        assert_eq!(dropped, 24);
        // The survivors are the most recent 16.
        assert_eq!(events.first().unwrap().arg, 24);
        assert_eq!(events.last().unwrap().arg, 39);
    }

    #[test]
    fn chrome_trace_has_metadata_and_complete_events() {
        let rec = FlightRecorder::with_capacity(16);
        let a = rec.register("router");
        let b = rec.register("worker-0");
        a.record(Phase::RouterBatch, 1_500, 2_750, 4);
        b.record(Phase::WorkerBatch, 3_000, 1_000, 4096);
        let json = rec.chrome_trace_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"M\""), "{json}");
        assert!(json.contains("\"name\":\"router\""), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        // 1500 ns -> 1.500 us.
        assert!(json.contains("\"ts\":1.500"), "{json}");
        assert!(json.contains("\"dur\":2.750"), "{json}");
        assert!(json.contains("\"dropped_events\":0"), "{json}");
        let open = json.matches(['{', '[']).count();
        let close = json.matches(['}', ']']).count();
        assert_eq!(open, close);
    }

    #[test]
    fn concurrent_writers_never_corrupt_each_other() {
        let rec = Arc::new(FlightRecorder::with_capacity(4096));
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                let rec = Arc::clone(&rec);
                scope.spawn(move || {
                    let t = rec.register(&format!("w{w}"));
                    for i in 0..1000u64 {
                        t.record(Phase::WorkerBatch, i, 1, w);
                    }
                });
            }
        });
        let (events, dropped) = rec.collect_events();
        assert_eq!(dropped, 0);
        assert_eq!(events.len(), 4000);
        for w in 0..4u64 {
            assert_eq!(events.iter().filter(|e| e.arg == w).count(), 1000);
        }
    }

    #[test]
    fn timeline_emits_windowed_delta_rows() {
        let reg = Arc::new(MetricsRegistry::new());
        reg.init_slots(crate::metrics::Scope::Shard, 2);
        let mut out = Vec::new();
        {
            let mut tl = StatsTimeline::new(Arc::clone(&reg), &mut out, 100);
            assert!(!tl.offer(50).unwrap());
            reg.accesses.add(100);
            reg.chain_len.record(5);
            assert!(tl.offer(100).unwrap());
            reg.accesses.add(40);
            assert!(!tl.offer(140).unwrap());
            tl.finish(140).unwrap();
            assert_eq!(tl.rows(), 2);
        }
        let text = String::from_utf8(out).unwrap();
        let rows: Vec<&str> = text.lines().collect();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].contains("\"schema\":\"krr-stats-v1\""));
        assert!(rows[0].contains("\"refs\":100"));
        assert!(rows[0].contains("\"accesses\":100"));
        // Second row is a delta, not a running total.
        assert!(rows[1].contains("\"refs\":140"), "{}", rows[1]);
        assert!(rows[1].contains("\"accesses\":40"), "{}", rows[1]);
        for r in rows {
            let open = r.matches(['{', '[']).count();
            let close = r.matches(['}', ']']).count();
            assert_eq!(open, close, "unbalanced row {r}");
        }
    }

    #[test]
    fn timeline_window_boundaries_do_not_double_fire() {
        let reg = Arc::new(MetricsRegistry::new());
        let mut tl = StatsTimeline::new(reg, Vec::new(), 10);
        assert!(tl.offer(10).unwrap());
        assert!(!tl.offer(10).unwrap());
        assert!(!tl.offer(19).unwrap());
        assert!(tl.offer(25).unwrap());
        assert!(tl.offer(30).unwrap());
        assert_eq!(tl.rows(), 3);
    }
}
