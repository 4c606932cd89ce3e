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
//! Each registered thread owns one row of cumulative per-bucket totals
//! (`ns` + sample counts, `Relaxed` atomics — readable at any time without
//! stopping the thread); a sample is two atomic adds and nothing is ever
//! lost or overwritten.
//!
//! [`PhaseProfiler::folded`] renders the totals as collapsed-stack folded
//! text (`krr;<thread>;<bucket> <ns>`), the line format every flamegraph
//! tool ingests directly; the expo server serves it at `/profile`.
//! Sampling is always on; its measured tail cost is in
//! `docs/PERFORMANCE.md` ("Forensics cost").
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

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::obs::Phase;

/// Number of attribution buckets (the [`ProfPhase`] variants).
pub const PROF_BUCKETS: usize = 6;

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
    /// Everything else (stats ticks, CSV input).
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

/// One thread's profile row: cumulative totals per bucket.
#[derive(Debug)]
struct ThreadProf {
    label: String,
    ns: [AtomicU64; PROF_BUCKETS],
    samples: [AtomicU64; PROF_BUCKETS],
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
}

/// The shared profiler: a registry of per-thread profile rows.
#[derive(Debug, Default)]
pub struct PhaseProfiler {
    threads: Mutex<Vec<Arc<ThreadProf>>>,
}

impl PhaseProfiler {
    /// An empty profiler.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a thread and returns its sampling handle: a new row,
    /// even when another row already carries `label`. Registration takes
    /// a lock (rare); sampling never does.
    #[must_use]
    pub fn register(&self, label: &str) -> ProfilerHandle {
        let prof = Arc::new(ThreadProf {
            label: label.to_string(),
            ns: std::array::from_fn(|_| AtomicU64::new(0)),
            samples: std::array::from_fn(|_| AtomicU64::new(0)),
        });
        self.threads
            .lock()
            .expect("profiler poisoned")
            .push(Arc::clone(&prof));
        ProfilerHandle { prof }
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
            })
            .collect()
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
            let _ = writeln!(s, "krr;{label};{} {ns}", ProfPhase::all()[bucket].name());
        }
        s
    }
}

/// One thread's handle into a [`PhaseProfiler`]: its profile row.
/// Sampling is two `Relaxed` atomic adds — no locks, no allocation.
#[derive(Debug)]
pub struct ProfilerHandle {
    prof: Arc<ThreadProf>,
}

impl ProfilerHandle {
    /// Attributes `ns` nanoseconds to `phase` on this thread.
    #[inline]
    pub fn sample(&self, phase: ProfPhase, ns: u64) {
        let b = phase as usize;
        self.prof.ns[b].fetch_add(ns, Ordering::Relaxed);
        self.prof.samples[b].fetch_add(1, Ordering::Relaxed);
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
