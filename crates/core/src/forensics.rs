//! Request exemplars: which requests pay the tail, and why.
//!
//! The mini-Redis server assigns every RESP command a u64 request id and
//! times it. When a command's latency lands in the top of the latency
//! distribution (its log2 bucket at or above the live p99 bucket — the
//! threshold re-derives itself from the ring's own [`LogHistogram`] every
//! 64 observations), the connection thread captures an **exemplar**: the
//! request id, tenant, latency, the span join key (`start_ns`, matching
//! the Chrome-trace span timestamps in `/trace`), and whether a
//! `/metrics` scrape was in flight. Exemplars land
//! in a bounded multi-writer lock-free ring (overwrite-oldest, losses
//! counted); the expo server renders the most recent one per bucket as
//! OpenMetrics exemplar syntax on `/metrics` and dumps the whole ring as
//! `krr-exemplars-v1` JSON on `/exemplars`.
//!
//! Concurrency: connection threads capture concurrently, so slots are
//! claimed with one `fetch_add` and sealed with a per-slot sequence word
//! (seqlock). Once the ring wraps, two writers can claim the same slot,
//! so a writer first takes the slot by swapping its sequence to `WRITING`
//! (and leaves a slot that already holds a newer exemplar alone), fences
//! (`Release`), fills the payload (`Relaxed`), then stores `claim + 1`
//! (`Release`); the reader loads the sequence (`Acquire`), copies the
//! payload, fences, and re-checks — a torn slot reads as in-progress and
//! is skipped, never emitted half-written. The
//! whole structure is independent of the model: capture touches no KRR
//! state, so observing a server leaves its MRC unchanged.
//!
//! ```
//! use krr_core::forensics::{Exemplar, ExemplarRing};
//!
//! let ring = ExemplarRing::new();
//! let id = ring.next_request_id();
//! // With no history yet every observation is "the tail":
//! if ring.observe(5_000_000) {
//!     ring.capture(&Exemplar { request_id: id, latency_ns: 5_000_000, ..Exemplar::default() });
//! }
//! let dump = ring.snapshot();
//! assert_eq!(dump.exemplars.len(), 1);
//! assert_eq!(dump.exemplars[0].request_id, id);
//! ```

use std::sync::atomic::{fence, AtomicU64, Ordering};

use crate::metrics::{bucket_bound, bucket_of, HistogramSnapshot, LogHistogram};

/// Default exemplar-ring capacity (slots, power of two).
pub const EXEMPLAR_RING_CAPACITY: usize = 256;

/// How many observations between threshold-bucket refreshes.
const THRESHOLD_REFRESH: u64 = 64;

/// One captured tail request with its span join key.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Exemplar {
    /// Per-server monotone request id (from [`ExemplarRing::next_request_id`]).
    pub request_id: u64,
    /// Tenant selected on the connection, if any.
    pub tenant: Option<u64>,
    /// End-to-end command latency.
    pub latency_ns: u64,
    /// Recorder-epoch start timestamp — the join key to the `/trace`
    /// Chrome dump: the command's `Phase::Command` span has `ts =
    /// start_ns / 1000`.
    pub start_ns: u64,
    /// RESP command tag (same map as `Phase::Command` span args).
    pub command_tag: u8,
    /// Whether a `/metrics` scrape was in flight during the request.
    pub scrape_in_progress: bool,
}

const WORDS: usize = 5;

fn pack_flags(ex: &Exemplar) -> u64 {
    u64::from(ex.command_tag) | (u64::from(ex.scrape_in_progress) << 8)
}

/// [`Slot::seq`] while one writer owns the slot.
const WRITING: u64 = u64::MAX;

#[derive(Debug)]
struct Slot {
    /// 0 = empty, [`WRITING`] = owned by a writer; otherwise `claim + 1`
    /// of the writer that sealed it.
    seq: AtomicU64,
    words: [AtomicU64; WORDS],
}

/// A dump of the ring's current contents plus its loss accounting,
/// ordered oldest-first by `start_ns`.
#[derive(Debug, Clone)]
pub struct ExemplarDump {
    /// Ring capacity in slots.
    pub capacity: usize,
    /// Exemplars ever captured (monotone).
    pub captured: u64,
    /// Exemplars lost to overwrite-oldest (`captured - capacity`, floored
    /// at zero).
    pub dropped: u64,
    /// Current capture threshold as a latency bound: commands at or above
    /// this land in the ring.
    pub threshold_ns: u64,
    /// The surviving exemplars.
    pub exemplars: Vec<Exemplar>,
}

/// Bounded lock-free multi-writer exemplar ring with its own command
/// latency histogram and self-adjusting p99 capture threshold.
#[derive(Debug)]
pub struct ExemplarRing {
    request_ids: AtomicU64,
    /// Depth of in-flight `/metrics` scrapes (guards may nest).
    scrapes: AtomicU64,
    hist: LogHistogram,
    /// Log2 bucket index at/above which a command is captured.
    threshold_bucket: AtomicU64,
    cursor: AtomicU64,
    slots: Box<[Slot]>,
}

impl Default for ExemplarRing {
    fn default() -> Self {
        Self::with_capacity(EXEMPLAR_RING_CAPACITY)
    }
}

impl ExemplarRing {
    /// Ring with the default capacity.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Ring holding `capacity` exemplars (rounded up to a power of two,
    /// minimum 16).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(16).next_power_of_two();
        Self {
            request_ids: AtomicU64::new(0),
            scrapes: AtomicU64::new(0),
            hist: LogHistogram::new(),
            threshold_bucket: AtomicU64::new(0),
            cursor: AtomicU64::new(0),
            slots: (0..capacity)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    words: std::array::from_fn(|_| AtomicU64::new(0)),
                })
                .collect(),
        }
    }

    /// Issues the next request id (1-based, monotone per ring).
    #[must_use]
    pub fn next_request_id(&self) -> u64 {
        self.request_ids.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Records a command latency and reports whether it lands at or above
    /// the capture threshold (the live p99 bucket). The very first
    /// observations all qualify (threshold starts at bucket 0) until 64
    /// samples establish a distribution.
    #[must_use]
    pub fn observe(&self, latency_ns: u64) -> bool {
        self.hist.record(latency_ns);
        if self.hist.count() % THRESHOLD_REFRESH == 0 {
            self.refresh_threshold();
        }
        bucket_of(latency_ns) as u64 >= self.threshold_bucket.load(Ordering::Relaxed)
    }

    fn refresh_threshold(&self) {
        let snap = self.hist.snapshot();
        if snap.count == 0 {
            return;
        }
        // The threshold is the lowest bucket whose suffix count (requests
        // at or above it) stays within the 1% tail budget — so captures
        // are the top ~1% of requests, never the bulk bucket, even when
        // the distribution sits exactly on the 99th-percentile boundary.
        let tail_budget = (snap.count / 100).max(1);
        let mut suffix = 0u64;
        let mut threshold = snap.buckets.len() as u64;
        for (b, &c) in snap.buckets.iter().enumerate().rev() {
            suffix += c;
            if suffix > tail_budget {
                break;
            }
            threshold = b as u64;
        }
        self.threshold_bucket.store(threshold, Ordering::Relaxed);
    }

    /// Captures an exemplar into the ring (overwrite-oldest). Safe to
    /// call from any number of threads concurrently.
    pub fn capture(&self, ex: &Exemplar) {
        let claim = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(claim % self.slots.len() as u64) as usize];
        // Own the slot before writing: writers whose claims share it would
        // otherwise interleave their payload words.
        let mut seq = slot.seq.load(Ordering::Relaxed);
        loop {
            if seq == WRITING {
                std::thread::yield_now();
                seq = slot.seq.load(Ordering::Relaxed);
            } else if seq > claim + 1 {
                return; // a newer exemplar already took this slot
            } else {
                match slot.seq.compare_exchange_weak(
                    seq,
                    WRITING,
                    Ordering::Acquire,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(now) => seq = now,
                }
            }
        }
        // Readers that see any payload word below must also see WRITING.
        fence(Ordering::Release);
        let words = [
            ex.request_id,
            ex.tenant.map_or(u64::MAX, |t| t),
            ex.latency_ns,
            ex.start_ns,
            pack_flags(ex),
        ];
        for (w, v) in slot.words.iter().zip(words) {
            w.store(v, Ordering::Relaxed);
        }
        slot.seq.store(claim + 1, Ordering::Release);
    }

    /// Exemplars ever captured.
    #[must_use]
    pub fn captured(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Exemplars lost to overwrite-oldest (the `/healthz` loss counter).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.captured().saturating_sub(self.slots.len() as u64)
    }

    /// Current capture threshold as a latency bound in nanoseconds:
    /// commands at or above this latency land in the ring.
    #[must_use]
    pub fn threshold_ns(&self) -> u64 {
        let b = self.threshold_bucket.load(Ordering::Relaxed) as usize;
        if b == 0 {
            0
        } else {
            bucket_bound(b - 1).saturating_add(1)
        }
    }

    /// Snapshot of the ring's command latency histogram (the source of
    /// the `/metrics` `krr_command_latency_ns` family).
    #[must_use]
    pub fn latency_histogram(&self) -> HistogramSnapshot {
        self.hist.snapshot()
    }

    /// Marks a `/metrics` scrape as in flight for the guard's lifetime;
    /// exemplars captured meanwhile carry `scrape_in_progress = true`.
    #[must_use]
    pub fn scrape_guard(&self) -> ScrapeGuard<'_> {
        self.scrapes.fetch_add(1, Ordering::Relaxed);
        ScrapeGuard { ring: self }
    }

    /// Whether any scrape is currently in flight.
    #[must_use]
    pub fn scrape_in_progress(&self) -> bool {
        self.scrapes.load(Ordering::Relaxed) > 0
    }

    /// Reads the ring's surviving exemplars, skipping slots concurrently
    /// being rewritten, ordered by `start_ns` then request id.
    #[must_use]
    pub fn snapshot(&self) -> ExemplarDump {
        let mut exemplars = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == 0 || seq == WRITING {
                continue;
            }
            let words: [u64; WORDS] =
                std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != seq {
                continue; // torn: a writer re-claimed this slot mid-read
            }
            exemplars.push(Exemplar {
                request_id: words[0],
                tenant: (words[1] != u64::MAX).then_some(words[1]),
                latency_ns: words[2],
                start_ns: words[3],
                command_tag: (words[4] & 0xFF) as u8,
                scrape_in_progress: words[4] & 0x100 != 0,
            });
        }
        exemplars.sort_by_key(|e| (e.start_ns, e.request_id));
        ExemplarDump {
            capacity: self.slots.len(),
            captured: self.captured(),
            dropped: self.dropped(),
            threshold_ns: self.threshold_ns(),
            exemplars,
        }
    }

    /// Renders the ring as a `krr-exemplars-v1` JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let dump = self.snapshot();
        let mut s = String::with_capacity(256 + dump.exemplars.len() * 160);
        let _ = write!(
            s,
            "{{\"schema\":\"krr-exemplars-v1\",\"capacity\":{},\"captured\":{},\"dropped\":{},\"threshold_ns\":{},\"exemplars\":[",
            dump.capacity, dump.captured, dump.dropped, dump.threshold_ns
        );
        for (i, e) in dump.exemplars.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"request_id\":{},\"tenant\":{},\"latency_ns\":{},\"start_ns\":{},\"command_tag\":{},\"scrape_in_progress\":{}}}",
                e.request_id,
                e.tenant.map_or_else(|| "null".to_string(), |t| t.to_string()),
                e.latency_ns,
                e.start_ns,
                e.command_tag,
                e.scrape_in_progress,
            );
        }
        s.push_str("]}");
        s
    }
}

/// RAII marker for an in-flight `/metrics` scrape (see
/// [`ExemplarRing::scrape_guard`]).
#[derive(Debug)]
pub struct ScrapeGuard<'a> {
    ring: &'a ExemplarRing,
}

impl Drop for ScrapeGuard<'_> {
    fn drop(&mut self) {
        self.ring.scrapes.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn capture_roundtrips_every_field() {
        let ring = ExemplarRing::new();
        let ex = Exemplar {
            request_id: 42,
            tenant: Some(7),
            latency_ns: 1_234_567,
            start_ns: 99,
            command_tag: 3,
            scrape_in_progress: true,
        };
        ring.capture(&ex);
        let dump = ring.snapshot();
        assert_eq!(dump.exemplars, vec![ex]);
        assert_eq!(dump.captured, 1);
        assert_eq!(dump.dropped, 0);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let ring = ExemplarRing::with_capacity(16);
        for i in 0..40u64 {
            ring.capture(&Exemplar {
                request_id: i,
                start_ns: i,
                ..Exemplar::default()
            });
        }
        let dump = ring.snapshot();
        assert_eq!(dump.captured, 40);
        assert_eq!(dump.dropped, 24);
        assert_eq!(dump.exemplars.len(), 16);
        assert_eq!(dump.exemplars.first().unwrap().request_id, 24);
        assert_eq!(dump.exemplars.last().unwrap().request_id, 39);
    }

    #[test]
    fn threshold_tracks_p99_bucket() {
        let ring = ExemplarRing::new();
        // 127 fast requests + 1 slow one = 128 observations, two refreshes.
        for _ in 0..127 {
            let _ = ring.observe(1_000);
        }
        assert!(ring.observe(8_000_000));
        // Threshold now sits at the p99 bucket: fast requests no longer
        // qualify, slow ones still do.
        assert!(!ring.observe(1_000));
        assert!(ring.observe(8_000_000));
        assert!(ring.threshold_ns() > 1_000);
    }

    #[test]
    fn scrape_guard_nests_and_releases() {
        let ring = ExemplarRing::new();
        assert!(!ring.scrape_in_progress());
        {
            let _a = ring.scrape_guard();
            let _b = ring.scrape_guard();
            assert!(ring.scrape_in_progress());
        }
        assert!(!ring.scrape_in_progress());
    }

    #[test]
    fn request_ids_are_monotone_from_one() {
        let ring = ExemplarRing::new();
        assert_eq!(ring.next_request_id(), 1);
        assert_eq!(ring.next_request_id(), 2);
    }

    #[test]
    fn concurrent_capture_never_yields_torn_exemplars() {
        let ring = Arc::new(ExemplarRing::with_capacity(32));
        let writers: Vec<_> = (0..4u64)
            .map(|t| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        // Every field derives from request_id so a torn
                        // read is detectable.
                        let id = t * 1_000_000 + i;
                        ring.capture(&Exemplar {
                            request_id: id,
                            tenant: Some(id),
                            latency_ns: id,
                            start_ns: id,
                            command_tag: (id % 14) as u8,
                            scrape_in_progress: false,
                        });
                        if i % 64 == 0 {
                            for e in ring.snapshot().exemplars {
                                assert_eq!(e.tenant, Some(e.request_id));
                                assert_eq!(e.latency_ns, e.request_id);
                                assert_eq!(e.start_ns, e.request_id);
                            }
                        }
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(ring.captured(), 8_000);
        assert_eq!(ring.dropped(), 8_000 - 32);
    }

    #[test]
    fn json_dump_has_schema_and_fields() {
        let ring = ExemplarRing::new();
        ring.capture(&Exemplar {
            request_id: 1,
            tenant: None,
            latency_ns: 9,
            ..Exemplar::default()
        });
        let json = ring.to_json();
        assert!(
            json.starts_with("{\"schema\":\"krr-exemplars-v1\""),
            "{json}"
        );
        assert!(json.contains("\"tenant\":null"), "{json}");
        assert!(json.contains("\"latency_ns\":9"), "{json}");
        let doc = crate::json::parse(&json).unwrap();
        assert_eq!(
            doc.get("exemplars")
                .and_then(crate::json::Json::as_arr)
                .map(<[_]>::len),
            Some(1)
        );
    }
}
