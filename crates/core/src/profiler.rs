//! Always-on self-profiler: per-thread phase-attribution rings.
//!
//! A conventional sampling profiler interrupts threads from the outside;
//! that needs signals or OS timers and is never dependency-free. This
//! profiler inverts the direction: the pipeline's router and workers, and
//! the mini-Redis connection threads, already reach natural *batch
//! boundaries* thousands of times per second — so each thread samples
//! **itself** there, attributing the nanoseconds since the previous
//! boundary to one of a fixed set of phase buckets
//! ([`ProfPhase`]: `hash` / `filter` / `update` / `ring_wait` / `serve` /
//! `other`). Most samples arrive for free, piggybacked on the flight
//! recorder's span tags ([`crate::obs::ThreadRecorder::record`] forwards
//! every span to its thread's profile); the router additionally
//! self-samples its hashing stretch explicitly, which no span covers.
//!
//! Each registered thread owns:
//!
//! * cumulative per-bucket totals (`ns` + sample counts, `Relaxed`
//!   atomics — readable at any time without stopping the thread), and
//! * a bounded ring of recent samples (single writer, overwrite-oldest;
//!   losses are counted, never silent — `/healthz` surfaces them).
//!
//! [`PhaseProfiler::folded`] renders the totals as collapsed-stack folded
//! text (`krr;<thread>;<bucket> <ns>`), the line format every flamegraph
//! tool ingests directly; the expo server serves it at `/profile`.
//! Sampling is gated by one `Relaxed` flag so a recorder-only baseline
//! (profiling off) costs a single branch — the `BENCH_doctor.json` gate
//! holds the enabled path under 3 % tail overhead.
//!
//! ```
//! use std::sync::Arc;
//! use krr_core::profiler::{PhaseProfiler, ProfPhase};
//!
//! let prof = Arc::new(PhaseProfiler::new());
//! let t = prof.register("worker-0");
//! t.sample(ProfPhase::Update, 1_200);
//! t.sample(ProfPhase::RingWait, 300);
//! let folded = prof.folded();
//! assert!(folded.contains("krr;worker-0;update 1200"));
//! assert!(folded.contains("krr;worker-0;ring_wait 300"));
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::obs::Phase;

/// Number of attribution buckets (the [`ProfPhase`] variants).
pub const PROF_BUCKETS: usize = 6;

/// Default per-thread sample-ring capacity.
pub const PROFILE_RING_CAPACITY: usize = 1024;

/// One phase-attribution bucket. Coarser than [`Phase`] on purpose: a
/// flamegraph wants "where do the cycles go" in a handful of stable
/// categories, not one lane per instrumentation site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ProfPhase {
    /// Key hashing, routing and spatial admission in the router (the
    /// `hash_keys8` stretches between dispatches).
    Hash = 0,
    /// Router dispatch/filter work: batch hand-off, shard bookkeeping.
    Filter = 1,
    /// Model work: stack updates + merge (pipeline workers receive only
    /// references the router already admitted).
    Update = 2,
    /// Waiting on a ring: router blocked on a full ring, worker on empty.
    RingWait = 3,
    /// Mini-Redis command handling on a connection thread.
    Serve = 4,
    /// Everything else (stats ticks, watchdog checks, CSV input).
    Other = 5,
}

impl ProfPhase {
    /// Stable bucket name used in folded output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ProfPhase::Hash => "hash",
            ProfPhase::Filter => "filter",
            ProfPhase::Update => "update",
            ProfPhase::RingWait => "ring_wait",
            ProfPhase::Serve => "serve",
            ProfPhase::Other => "other",
        }
    }

    /// The bucket a flight-recorder span tag attributes to.
    #[must_use]
    pub fn from_span(phase: Phase) -> ProfPhase {
        match phase {
            Phase::RouterBatch => ProfPhase::Filter,
            Phase::RouterStall | Phase::RingWait => ProfPhase::RingWait,
            Phase::WorkerBatch
            | Phase::Merge
            | Phase::StackUpdate
            | Phase::DeepUpdate
            | Phase::ProfileDrain => ProfPhase::Update,
            Phase::Command => ProfPhase::Serve,
            Phase::CsvRead | Phase::StatsTick | Phase::WatchdogCheck => ProfPhase::Other,
        }
    }

    fn from_id(id: u64) -> Option<ProfPhase> {
        Some(match id {
            0 => ProfPhase::Hash,
            1 => ProfPhase::Filter,
            2 => ProfPhase::Update,
            3 => ProfPhase::RingWait,
            4 => ProfPhase::Serve,
            5 => ProfPhase::Other,
            _ => return None,
        })
    }

    /// All buckets, in id order.
    #[must_use]
    pub fn all() -> [ProfPhase; PROF_BUCKETS] {
        [
            ProfPhase::Hash,
            ProfPhase::Filter,
            ProfPhase::Update,
            ProfPhase::RingWait,
            ProfPhase::Serve,
            ProfPhase::Other,
        ]
    }
}

/// One thread's profile state: totals plus a recent-sample ring.
#[derive(Debug)]
struct ThreadProf {
    label: String,
    ns: [AtomicU64; PROF_BUCKETS],
    samples: [AtomicU64; PROF_BUCKETS],
    /// Samples ever written (monotone; slot = cursor % capacity).
    cursor: AtomicU64,
    /// Packed samples: `(ns << 3) | bucket_id` (ns saturates at 2^61-1,
    /// ~73 years — durations never get there).
    slots: Box<[AtomicU64]>,
}

/// Read-only totals for one registered thread, as returned by
/// [`PhaseProfiler::thread_totals`].
#[derive(Debug, Clone)]
pub struct ThreadProfile {
    /// Registration label (thread name).
    pub label: String,
    /// Cumulative nanoseconds per bucket, indexed by `ProfPhase as usize`.
    pub ns: [u64; PROF_BUCKETS],
    /// Sample counts per bucket.
    pub samples: [u64; PROF_BUCKETS],
    /// Samples lost to ring overwrite on this thread.
    pub dropped: u64,
}

/// The shared profiler: a registry of per-thread profiles plus the global
/// enable flag.
#[derive(Debug)]
pub struct PhaseProfiler {
    enabled: AtomicBool,
    capacity: usize,
    threads: Mutex<Vec<Arc<ThreadProf>>>,
}

impl Default for PhaseProfiler {
    fn default() -> Self {
        Self::with_capacity(PROFILE_RING_CAPACITY)
    }
}

impl PhaseProfiler {
    /// Profiler with the default per-thread sample-ring capacity, enabled.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Profiler whose per-thread rings hold `capacity` samples (rounded up
    /// to a power of two, minimum 16), enabled.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            enabled: AtomicBool::new(true),
            capacity: capacity.max(16).next_power_of_two(),
            threads: Mutex::new(Vec::new()),
        }
    }

    /// Turns sampling on or off. Off, [`ProfilerHandle::sample`] is one
    /// `Relaxed` load and a branch — the recorder-only baseline the
    /// overhead gate compares against.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether sampling is currently enabled.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Registers a thread and returns its sampling handle. Registration
    /// takes a lock (rare); sampling never does.
    #[must_use]
    pub fn register(self: &Arc<Self>, label: &str) -> ProfilerHandle {
        let prof = Arc::new(ThreadProf {
            label: label.to_string(),
            ns: std::array::from_fn(|_| AtomicU64::new(0)),
            samples: std::array::from_fn(|_| AtomicU64::new(0)),
            cursor: AtomicU64::new(0),
            slots: (0..self.capacity).map(|_| AtomicU64::new(0)).collect(),
        });
        self.threads
            .lock()
            .expect("profiler poisoned")
            .push(Arc::clone(&prof));
        ProfilerHandle {
            profiler: Arc::clone(self),
            prof,
        }
    }

    /// Per-thread totals, in registration order.
    #[must_use]
    pub fn thread_totals(&self) -> Vec<ThreadProfile> {
        let threads = self.threads.lock().expect("profiler poisoned");
        threads
            .iter()
            .map(|t| ThreadProfile {
                label: t.label.clone(),
                ns: std::array::from_fn(|i| t.ns[i].load(Ordering::Relaxed)),
                samples: std::array::from_fn(|i| t.samples[i].load(Ordering::Relaxed)),
                dropped: t
                    .cursor
                    .load(Ordering::Relaxed)
                    .saturating_sub(t.slots.len() as u64),
            })
            .collect()
    }

    /// Total samples lost to ring overwrite across all threads (the
    /// `/healthz` loss counter).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.thread_totals().iter().map(|t| t.dropped).sum()
    }

    /// Total samples recorded across all threads and buckets.
    #[must_use]
    pub fn samples_total(&self) -> u64 {
        self.thread_totals()
            .iter()
            .map(|t| t.samples.iter().sum::<u64>())
            .sum()
    }

    /// Collapsed-stack folded text: one `krr;<thread>;<bucket> <ns>` line
    /// per (thread label, bucket) with at least one sample, repeat
    /// registrations of the same label merged. Feed straight into
    /// `flamegraph.pl` / speedscope / inferno.
    #[must_use]
    pub fn folded(&self) -> String {
        use std::collections::BTreeMap;
        use std::fmt::Write as _;
        let mut merged: BTreeMap<(String, usize), u64> = BTreeMap::new();
        for t in self.thread_totals() {
            for (i, &ns) in t.ns.iter().enumerate() {
                if t.samples[i] > 0 {
                    *merged.entry((t.label.clone(), i)).or_insert(0) += ns;
                }
            }
        }
        let mut s = String::new();
        for ((label, bucket), ns) in merged {
            let name = ProfPhase::from_id(bucket as u64).expect("bucket id in range");
            let _ = writeln!(s, "krr;{label};{} {ns}", name.name());
        }
        s
    }

    /// Most recent ring samples of every thread, oldest first per thread:
    /// `(label, bucket, ns)` triples. Mainly for tests and ad-hoc
    /// inspection; the folded view is the primary export.
    #[must_use]
    pub fn recent_samples(&self) -> Vec<(String, ProfPhase, u64)> {
        let threads = self.threads.lock().expect("profiler poisoned");
        let mut out = Vec::new();
        for t in threads.iter() {
            let cap = t.slots.len() as u64;
            let end = t.cursor.load(Ordering::Acquire);
            let start = end.saturating_sub(cap);
            for i in start..end {
                let w = t.slots[(i % cap) as usize].load(Ordering::Relaxed);
                if let Some(p) = ProfPhase::from_id(w & 0x7) {
                    out.push((t.label.clone(), p, w >> 3));
                }
            }
        }
        out
    }
}

/// One thread's handle into a [`PhaseProfiler`]. Sampling is a handful of
/// `Relaxed` atomic adds — no locks, no allocation. `Send` but not
/// `Clone`: one sample ring has one writer.
#[derive(Debug)]
pub struct ProfilerHandle {
    profiler: Arc<PhaseProfiler>,
    prof: Arc<ThreadProf>,
}

impl ProfilerHandle {
    /// Attributes `ns` nanoseconds to `phase` on this thread. A no-op
    /// (one flag load) while the profiler is disabled.
    #[inline]
    pub fn sample(&self, phase: ProfPhase, ns: u64) {
        if !self.profiler.enabled.load(Ordering::Relaxed) {
            return;
        }
        let b = phase as usize;
        self.prof.ns[b].fetch_add(ns, Ordering::Relaxed);
        self.prof.samples[b].fetch_add(1, Ordering::Relaxed);
        let cap = self.prof.slots.len() as u64;
        let i = self.prof.cursor.load(Ordering::Relaxed);
        let packed = (ns.min((1 << 61) - 1) << 3) | phase as u64;
        self.prof.slots[(i % cap) as usize].store(packed, Ordering::Relaxed);
        self.prof.cursor.store(i + 1, Ordering::Release);
    }

    /// The profiler this handle samples into.
    #[must_use]
    pub fn profiler(&self) -> &Arc<PhaseProfiler> {
        &self.profiler
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_folded_accumulate() {
        let prof = Arc::new(PhaseProfiler::new());
        let a = prof.register("router");
        let b = prof.register("worker-0");
        a.sample(ProfPhase::Hash, 100);
        a.sample(ProfPhase::Hash, 50);
        a.sample(ProfPhase::RingWait, 10);
        b.sample(ProfPhase::Update, 400);
        let folded = prof.folded();
        assert!(folded.contains("krr;router;hash 150\n"), "{folded}");
        assert!(folded.contains("krr;router;ring_wait 10\n"), "{folded}");
        assert!(folded.contains("krr;worker-0;update 400\n"), "{folded}");
        assert!(!folded.contains("serve"), "unsampled buckets are omitted");
        assert_eq!(prof.samples_total(), 4);
        assert_eq!(prof.dropped(), 0);
    }

    #[test]
    fn same_label_registrations_merge_in_folded() {
        let prof = Arc::new(PhaseProfiler::new());
        let a = prof.register("router");
        a.sample(ProfPhase::Hash, 5);
        drop(a);
        let b = prof.register("router");
        b.sample(ProfPhase::Hash, 7);
        assert!(prof.folded().contains("krr;router;hash 12\n"));
        // thread_totals keeps them separate (per-registration rows).
        assert_eq!(prof.thread_totals().len(), 2);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let prof = Arc::new(PhaseProfiler::with_capacity(16));
        let t = prof.register("w");
        for i in 0..40 {
            t.sample(ProfPhase::Update, i);
        }
        assert_eq!(prof.dropped(), 24);
        let recent = prof.recent_samples();
        assert_eq!(recent.len(), 16);
        assert_eq!(recent.first().unwrap().2, 24);
        assert_eq!(recent.last().unwrap().2, 39);
        // Totals are unaffected by ring loss.
        assert_eq!(
            prof.thread_totals()[0].samples[ProfPhase::Update as usize],
            40
        );
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let prof = Arc::new(PhaseProfiler::new());
        let t = prof.register("w");
        prof.set_enabled(false);
        t.sample(ProfPhase::Serve, 99);
        assert_eq!(prof.samples_total(), 0);
        assert!(prof.folded().is_empty());
        prof.set_enabled(true);
        t.sample(ProfPhase::Serve, 99);
        assert_eq!(prof.samples_total(), 1);
    }

    #[test]
    fn span_phase_mapping_covers_every_phase() {
        for p in [
            Phase::RouterBatch,
            Phase::RouterStall,
            Phase::WorkerBatch,
            Phase::Merge,
            Phase::StackUpdate,
            Phase::DeepUpdate,
            Phase::CsvRead,
            Phase::Command,
            Phase::StatsTick,
            Phase::WatchdogCheck,
            Phase::RingWait,
            Phase::ProfileDrain,
        ] {
            // Every span phase maps to some bucket without panicking.
            let _ = ProfPhase::from_span(p);
        }
        assert_eq!(ProfPhase::from_span(Phase::Command), ProfPhase::Serve);
        assert_eq!(ProfPhase::from_span(Phase::RingWait), ProfPhase::RingWait);
        assert_eq!(ProfPhase::from_span(Phase::ProfileDrain), ProfPhase::Update);
    }
}
