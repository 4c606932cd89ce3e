//! Embedded HTTP/1.1 exposition server: point a scraper (or `curl`) at a
//! running profiler.
//!
//! Everything the repo's observability layers produce — the
//! `krr-metrics-v1` registry, the live MRC, the windowed stats timeline,
//! the flight-recorder trace — was push/file-based until now.
//! [`ExpoServer`] exposes the same data over plain HTTP with no
//! dependencies: a blocking [`TcpListener`] in one background thread (the
//! same style as the mini-Redis server), handling one request per
//! connection.
//!
//! | Endpoint          | Content                                                |
//! |-------------------|--------------------------------------------------------|
//! | `/metrics`        | [`MetricsRegistry`] as OpenMetrics/Prometheus text     |
//! |                   | (`?format=json` for the `krr-metrics-v1` snapshot;     |
//! |                   | with an exemplar source, the command-latency histogram |
//! |                   | carries OpenMetrics exemplars on its bucket lines)     |
//! | `/mrc`            | latest published MRC as `krr-mrc-v1` JSON              |
//! | `/mrc?tenant=ID`  | one tenant's MRC from the published [`FleetCell`] view |
//! |                   | (both accept `&format=csv` for `persist::write_mrc`    |
//! |                   | bytes, round-tripping through `persist::read_mrc`)     |
//! | `/tenants`        | fleet summary as `krr-tenants-v1` JSON (`?format=csv`  |
//! |                   | for CSV rows, `?top=K` to keep only the K hottest)     |
//! | `/stats`          | recent `krr-stats-v1` timeline rows as a JSON array    |
//! | `/trace`          | flight-recorder drain as Chrome trace-event JSON       |
//! | `/exemplars`      | tail-request exemplar ring as `krr-exemplars-v1` JSON  |
//! | `/profile`        | self-profiler totals as collapsed-stack folded text    |
//! |                   | (pipe into `flamegraph.pl` / speedscope)               |
//! | `/healthz`        | JSON health detail: drift counters, pipeline stalls,   |
//! |                   | exemplar/profiler ring losses, per-tenant drift count, |
//! |                   | requests cut off at the deadline                       |
//! |                   | (200, or 503 on any drift; nothing in this workspace   |
//! |                   | increments a drift counter)                            |
//!
//! Endpoints whose source was not wired into [`ExpoSources`] answer 404;
//! `/mrc` answers 503 until the first MRC is published (and
//! `/mrc?tenant=ID` 404s for an unknown tenant); `/healthz` always
//! answers. Requests are handled inline on the accept thread, so shutting
//! the server down ([`ExpoServer::shutdown`], also run on [`Drop`]) joins
//! exactly one thread and can never leak per-connection threads. A client
//! gets [`REQUEST_DEADLINE`] to send its request header, then a 408, so a
//! slow one cannot hold that thread from the scrapes queued behind it.
//!
//! ```
//! use krr_core::expo::{http_get, ExpoServer, ExpoSources};
//! use krr_core::metrics::MetricsRegistry;
//! use std::sync::Arc;
//!
//! let reg = Arc::new(MetricsRegistry::new());
//! reg.accesses.add(3);
//! let sources = ExpoSources {
//!     metrics: Some(Arc::clone(&reg)),
//!     ..ExpoSources::default()
//! };
//! let server = ExpoServer::start("127.0.0.1:0", sources).unwrap();
//! let (status, ctype, body) = http_get(server.addr(), "/metrics").unwrap();
//! assert_eq!(status, 200);
//! assert!(ctype.starts_with("application/openmetrics-text"));
//! assert!(body.contains("krr_accesses_total 3"));
//! assert!(body.trim_end().ends_with("# EOF"));
//! ```

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::fleet::{FleetCell, FleetView};
use crate::forensics::ExemplarRing;
use crate::metrics::{
    bucket_bound, bucket_of, memory_rollups, tenant_rollups, ColumnKind, Kind, Merge,
    MetricsRegistry, MetricsSnapshot, Rollup, TenantColumn, TenantRow, Value, CATALOG,
    TENANT_COLUMNS,
};
use crate::mrc::Mrc;
use crate::obs::FlightRecorder;
use crate::profiler::PhaseProfiler;

/// Content type of the `/metrics` endpoint.
pub const OPENMETRICS_CONTENT_TYPE: &str =
    "application/openmetrics-text; version=1.0.0; charset=utf-8";

/// A shared slot holding the most recently published MRC, read by the
/// `/mrc` endpoint. The profiling loop publishes at natural barriers
/// (chunk boundaries, end of run); scrapes never block profiling for more
/// than the copy under the mutex.
#[derive(Debug, Default)]
pub struct MrcCell(Mutex<Option<Mrc>>);

impl MrcCell {
    /// Creates an empty cell (readers see "not yet published").
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes a new MRC, replacing any previous one.
    pub fn publish(&self, mrc: Mrc) {
        *self.0.lock().expect("mrc cell poisoned") = Some(mrc);
    }

    /// The latest published MRC, if any.
    #[must_use]
    pub fn get(&self) -> Option<Mrc> {
        self.0.lock().expect("mrc cell poisoned").clone()
    }
}

/// Capacity of a [`StatsRing`]: scrapes see at most this many recent rows.
pub const STATS_RING_ROWS: usize = 64;

/// A bounded ring of recent `krr-stats-v1` timeline rows (JSON objects,
/// one per window), served by `/stats`. Push via [`StatsRing::push`] or by
/// teeing a `StatsTimeline` writer through [`RingWriter`].
#[derive(Debug, Default)]
pub struct StatsRing(Mutex<VecDeque<String>>);

impl StatsRing {
    /// Creates an empty ring.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a row, dropping the oldest once [`STATS_RING_ROWS`] is
    /// reached.
    pub fn push(&self, row: String) {
        let mut q = self.0.lock().expect("stats ring poisoned");
        if q.len() == STATS_RING_ROWS {
            q.pop_front();
        }
        q.push_back(row);
    }

    /// The retained rows, oldest first.
    #[must_use]
    pub fn rows(&self) -> Vec<String> {
        self.0
            .lock()
            .expect("stats ring poisoned")
            .iter()
            .cloned()
            .collect()
    }
}

/// A [`Write`] tee that forwards bytes to an optional inner writer while
/// splitting the stream on `\n` into complete lines pushed to a
/// [`StatsRing`]. Wrap a `StatsTimeline` output with this to make the
/// JSONL rows scrapeable from `/stats` while still landing in the file.
#[derive(Debug)]
pub struct RingWriter<W: Write> {
    inner: Option<W>,
    ring: Arc<StatsRing>,
    buf: Vec<u8>,
}

impl<W: Write> RingWriter<W> {
    /// Tees into `ring`, forwarding to `inner` when present.
    #[must_use]
    pub fn new(inner: Option<W>, ring: Arc<StatsRing>) -> Self {
        Self {
            inner,
            ring,
            buf: Vec::new(),
        }
    }
}

impl<W: Write> Write for RingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if let Some(w) = &mut self.inner {
            w.write_all(buf)?;
        }
        for &b in buf {
            if b == b'\n' {
                let line = String::from_utf8_lossy(&self.buf).into_owned();
                if !line.is_empty() {
                    self.ring.push(line);
                }
                self.buf.clear();
            } else {
                self.buf.push(b);
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        match &mut self.inner {
            Some(w) => w.flush(),
            None => Ok(()),
        }
    }
}

/// What an [`ExpoServer`] serves. Every source is optional; endpoints
/// without a source answer 404 so a scraper can tell "not wired" from
/// "not yet ready" (503).
#[derive(Debug, Default, Clone)]
pub struct ExpoSources {
    /// Registry behind `/metrics` (and the drift/stall half of `/healthz`).
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Cell behind `/mrc`.
    pub mrc: Option<Arc<MrcCell>>,
    /// Ring behind `/stats`.
    pub stats: Option<Arc<StatsRing>>,
    /// Recorder behind `/trace`.
    pub trace: Option<Arc<FlightRecorder>>,
    /// Fleet view behind `/tenants` and `/mrc?tenant=ID`.
    pub tenants: Option<Arc<FleetCell>>,
    /// Exemplar ring behind `/exemplars` and the `/metrics` exemplar
    /// suffixes (also flagged as "scrape in progress" during `/metrics`).
    pub exemplars: Option<Arc<ExemplarRing>>,
    /// Self-profiler behind `/profile`.
    pub profiler: Option<Arc<PhaseProfiler>>,
}

/// Renders a metrics snapshot as OpenMetrics text (the format scraped by
/// Prometheus): one family per [`CATALOG`] row — `# TYPE`, `# UNIT` (where
/// the family name ends in `_<unit>`) and `# HELP` lines, `_total`-suffixed
/// counters, cumulative `_bucket{le="..."}` histogram series ending at
/// `+Inf`, `{shard="i"}`/`{worker="w"}` labels for slot arrays, one
/// `{tenant="id"}` family per exported [`TENANT_COLUMNS`] column — then the
/// fleet rollups and a final `# EOF` terminator.
#[must_use]
pub fn render_openmetrics(snap: &MetricsSnapshot) -> String {
    use std::fmt::Write as _;
    // Labeled fleets dominate the document (~7 series per tenant at
    // ~50 B each); reserving up front avoids repeated growth copies of a
    // multi-hundred-KB string on every scrape.
    let mut s = String::with_capacity(8192 + snap.tenant_rows.len() * 360);
    let family = |s: &mut String, name: &str, kind: &str, unit: &str, help: &str| {
        let _ = writeln!(s, "# TYPE krr_{name} {kind}");
        if name.strip_suffix(unit).is_some_and(|n| n.ends_with('_')) {
            let _ = writeln!(s, "# UNIT krr_{name} {unit}");
        }
        let _ = writeln!(s, "# HELP krr_{name} {help}");
    };
    for m in CATALOG {
        let (name, unit, help) = (m.family, m.unit, m.help());
        match (m.kind, (m.get)(snap)) {
            (Kind::Counter, Value::Scalar(v)) => {
                family(&mut s, name, "counter", unit, help);
                let _ = writeln!(s, "krr_{name}_total {v}");
            }
            (Kind::Gauge, Value::Scalar(v)) => {
                family(&mut s, name, "gauge", unit, help);
                let _ = writeln!(s, "krr_{name} {v}");
            }
            (Kind::Histogram, Value::Histogram(h)) => {
                family(&mut s, name, "histogram", unit, help);
                let mut cum = 0u64;
                for (b, &c) in h.buckets.iter().enumerate() {
                    if c == 0 {
                        continue;
                    }
                    cum += c;
                    let _ = writeln!(s, "krr_{name}_bucket{{le=\"{}\"}} {cum}", bucket_bound(b));
                }
                // A scrape can race `Histogram::record`, whose bucket
                // increment lands before its count increment — a snapshot
                // may briefly hold more bucketed values than `count`.
                // Clamp so the exposed series stays cumulative (`+Inf` >=
                // every finite bucket == `_count`).
                let total = h.count.max(cum);
                let _ = writeln!(s, "krr_{name}_bucket{{le=\"+Inf\"}} {total}");
                let _ = write!(s, "krr_{name}_count {total}\nkrr_{name}_sum {}\n", h.sum);
            }
            (Kind::Slots(scope, merge), Value::List(vals)) if !vals.is_empty() => {
                let (kind, suffix) = if merge == Merge::Add {
                    ("counter", "_total")
                } else {
                    ("gauge", "")
                };
                family(&mut s, name, kind, unit, help);
                let label = scope.label();
                for (i, v) in vals.iter().enumerate() {
                    let _ = writeln!(s, "krr_{name}{suffix}{{{label}=\"{i}\"}} {v}");
                }
            }
            (Kind::Tenants, Value::Tenants(rows)) if !rows.is_empty() => {
                for c in TENANT_COLUMNS {
                    let (kind, suffix) = match c.kind {
                        ColumnKind::Counter => ("counter", "_total"),
                        ColumnKind::Gauge | ColumnKind::Flag => ("gauge", ""),
                        ColumnKind::Label => continue,
                    };
                    let col = format!("{name}_{}", c.key);
                    family(&mut s, &col, kind, c.unit, c.help());
                    if c.kind == ColumnKind::Flag {
                        let flagged = rows.iter().filter(|t| (c.get)(t) != 0).count();
                        let _ = writeln!(s, "krr_{col} {flagged}");
                    }
                    for t in rows {
                        let _ =
                            writeln!(s, "krr_{col}{suffix}{{tenant=\"{}\"}} {}", t.id, (c.get)(t));
                    }
                }
            }
            // Empty slot arrays and a fleet-less registry export nothing.
            _ => {}
        }
    }
    // Fleet rollups, once a fleet has published rows. A rollup named
    // after a tenant column (refs, shadowed) is carried by that column's
    // family instead.
    if !snap.tenant_rows.is_empty() {
        let mut rollup = |name: String, unit: &str, r: Rollup| {
            family(&mut s, &name, "gauge", unit, r.help);
            let _ = writeln!(s, "krr_{name} {}", r.value);
        };
        for r in tenant_rollups(&snap.tenant_rows) {
            if TENANT_COLUMNS.iter().all(|c| c.key != r.key) {
                rollup(format!("tenant_{}", r.key), "", r);
            }
        }
        for r in memory_rollups(&snap.tenant_rows).into_iter().skip(1) {
            rollup(format!("footprint_tenant_{}", r.key), "bytes", r);
        }
    }
    s.push_str("# EOF\n");
    s
}

/// Renders the forensics families appended to `/metrics` when an
/// exemplar ring (and optionally a profiler) is wired: the
/// `krr_command_latency_ns` histogram with OpenMetrics exemplar suffixes
/// (`<sample> # {request_id="..",tenant=".."} <latency>`) on its bucket
/// lines — each finite bucket carries the most recent tail request that
/// landed in it — plus the exemplar capture/loss counters and the
/// profiler's sample count. Returned *without* a
/// trailing `# EOF` (the caller splices it into the main document).
#[must_use]
pub fn render_forensics_block(
    exemplars: &ExemplarRing,
    profiler: Option<&PhaseProfiler>,
) -> String {
    use std::fmt::Write as _;
    let dump = exemplars.snapshot();
    // Most recent exemplar per finite bucket (dump is oldest-first).
    let mut by_bucket: std::collections::BTreeMap<usize, &crate::forensics::Exemplar> =
        std::collections::BTreeMap::new();
    for e in &dump.exemplars {
        by_bucket.insert(bucket_of(e.latency_ns), e);
    }
    let h = exemplars.latency_histogram();
    let mut s = String::with_capacity(1024);
    let _ = write!(
        s,
        "# TYPE krr_command_latency_ns histogram\n# UNIT krr_command_latency_ns ns\n\
         # HELP krr_command_latency_ns RESP command latency in nanoseconds; finite buckets \
         carry the newest tail exemplar.\n"
    );
    let mut cum = 0u64;
    for (b, &c) in h.buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        cum += c;
        let _ = write!(
            s,
            "krr_command_latency_ns_bucket{{le=\"{}\"}} {cum}",
            bucket_bound(b)
        );
        if let Some(e) = by_bucket.get(&b) {
            // OpenMetrics exemplar: the exemplar value (the request's
            // latency) is always <= the bucket's le bound by construction.
            let _ = write!(s, " # {{request_id=\"{}\"", e.request_id);
            if let Some(t) = e.tenant {
                let _ = write!(s, ",tenant=\"{t}\"");
            }
            let _ = write!(s, "}} {}", e.latency_ns);
        }
        s.push('\n');
    }
    let total = h.count.max(cum);
    let _ = writeln!(s, "krr_command_latency_ns_bucket{{le=\"+Inf\"}} {total}");
    let _ = write!(
        s,
        "krr_command_latency_ns_count {total}\nkrr_command_latency_ns_sum {}\n",
        h.sum
    );
    let _ = write!(
        s,
        "# TYPE krr_exemplars_captured counter\n\
         # HELP krr_exemplars_captured Tail requests captured into the exemplar ring.\n\
         krr_exemplars_captured_total {}\n\
         # TYPE krr_exemplars_dropped counter\n\
         # HELP krr_exemplars_dropped Exemplars overwritten in the ring before a dump.\n\
         krr_exemplars_dropped_total {}\n",
        dump.captured, dump.dropped
    );
    if let Some(p) = profiler {
        let _ = write!(
            s,
            "# TYPE krr_profiler_samples counter\n\
             # HELP krr_profiler_samples Phase-profiler samples recorded.\n\
             krr_profiler_samples_total {}\n",
            p.samples_total()
        );
    }
    s
}

/// Renders a [`FleetView`] as `krr-tenants-v1` JSON: fleet rollups, one
/// row per tenant (optionally capped to the `top` hottest by refs), and
/// top-10 `hottest` / `most_drifted` tenant-id views.
#[must_use]
pub fn tenants_json(view: &FleetView, top: Option<usize>) -> String {
    use std::fmt::Write as _;
    let [count, refs, drifted, shadowed] = tenant_rollups(&view.rows).map(|r| r.value);
    let mut hottest: Vec<&TenantRow> = view.rows.iter().collect();
    hottest.sort_by_key(|t| (std::cmp::Reverse(t.refs), t.id));
    let mut most_drifted: Vec<&TenantRow> = view.rows.iter().collect();
    most_drifted.sort_by_key(|t| {
        (
            std::cmp::Reverse(t.drift_events),
            std::cmp::Reverse(t.mae_ppm),
            t.id,
        )
    });
    let mut s = String::from("{\"schema\":\"krr-tenants-v1\"");
    let _ = write!(
        s,
        ",\"count\":{count},\"budget\":{},\"refs\":{refs},\"drifted\":{drifted},\"shadowed\":{shadowed}",
        view.budget
    );
    s.push_str(",\"hottest\":[");
    for (i, t) in hottest.iter().take(10).enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{}", t.id);
    }
    s.push_str("],\"most_drifted\":[");
    for (i, t) in most_drifted.iter().take(10).enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{}", t.id);
    }
    s.push_str("],\"tenants\":[");
    let rows: Vec<&TenantRow> = match top {
        Some(k) => hottest.iter().take(k).copied().collect(),
        None => view.rows.iter().collect(),
    };
    for (i, t) in rows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&t.to_json());
    }
    s.push_str("]}");
    s
}

/// Renders a [`FleetView`] as CSV — the machine-simple form `krr
/// partition --live` scrapes. One header line, then one row per tenant
/// (optionally capped to the `top` hottest by refs).
#[must_use]
pub fn tenants_csv(view: &FleetView, top: Option<usize>) -> String {
    let mut rows: Vec<&TenantRow> = view.rows.iter().collect();
    if let Some(k) = top {
        rows.sort_by_key(|t| (std::cmp::Reverse(t.refs), t.id));
        rows.truncate(k);
    }
    let line = |cell: &dyn Fn(&TenantColumn) -> String| {
        let cells: Vec<String> = TENANT_COLUMNS.iter().map(cell).collect();
        cells.join(",") + "\n"
    };
    let mut s = line(&|c| c.key.to_string());
    for t in rows {
        s.push_str(&line(&|c| (c.get)(t).to_string()));
    }
    s
}

/// Renders an MRC as `krr-mrc-v1` JSON:
/// `{"schema":"krr-mrc-v1","points":[[cache_size,miss_ratio],...]}`.
#[must_use]
pub fn mrc_json(mrc: &Mrc) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("{\"schema\":\"krr-mrc-v1\",\"points\":[");
    for (i, &(x, y)) in mrc.points().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "[{x},{y}]");
    }
    s.push_str("]}");
    s
}

/// The exposition server: one listener, one background thread, requests
/// handled inline. Dropping (or calling [`ExpoServer::shutdown`]) stops
/// the thread and releases the port, so a later server — e.g. after a
/// checkpoint restore — can rebind the same address.
#[derive(Debug)]
pub struct ExpoServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ExpoServer {
    /// Binds `addr` (e.g. `"127.0.0.1:9090"`; port 0 picks a free port —
    /// read it back from [`ExpoServer::addr`]) and starts serving
    /// `sources` on a background thread.
    pub fn start<A: ToSocketAddrs>(addr: A, sources: ExpoSources) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("krr-expo".into())
            .spawn(move || serve_loop(&listener, &sources, &thread_stop))?;
        Ok(Self {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread. Idempotent;
    /// also run by [`Drop`], so tests and the CLI can never leak the
    /// listener thread.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ExpoServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve_loop(listener: &TcpListener, sources: &ExpoSources, stop: &AtomicBool) {
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Inline handling: a request is a snapshot + a render, so
                // a dedicated thread per connection buys nothing and would
                // complicate shutdown.
                let _ = handle_conn(stream, sources);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// First value of `key` in an `a=1&b=2` query string (no percent
/// decoding — tenant ids and knob values are plain integers/words).
fn query_param<'q>(query: &'q str, key: &str) -> Option<&'q str> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == key).then_some(v)
    })
}

fn respond(
    mut stream: TcpStream,
    status: u16,
    reason: &str,
    ctype: &str,
    body: &str,
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Longest wait for any single read of a request.
const READ_TIMEOUT: Duration = Duration::from_millis(500);
/// Longest a client may take to send its whole request header. Requests
/// are served inline on the one server thread, so without it a client
/// trickling one byte per `READ_TIMEOUT` (500 ms) would hold every scrape off
/// for as long as it likes.
pub const REQUEST_DEADLINE: Duration = Duration::from_secs(2);

fn handle_conn(mut stream: TcpStream, sources: &ExpoSources) -> io::Result<()> {
    stream.set_write_timeout(Some(READ_TIMEOUT))?;
    let deadline = Instant::now() + REQUEST_DEADLINE;
    let mut req = Vec::new();
    let mut chunk = [0u8; 1024];
    // Read until the end of the header block (we never accept bodies).
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            if let Some(reg) = &sources.metrics {
                reg.expo_request_timeouts.inc();
            }
            return respond(
                stream,
                408,
                "Request Timeout",
                "text/plain",
                "request not received in time\n",
            );
        }
        stream.set_read_timeout(Some(left.min(READ_TIMEOUT)))?;
        let n = match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            // A read cut short by the deadline is answered at the top of
            // the loop; any other failure ends the request as it stands.
            Err(_) if Instant::now() >= deadline => continue,
            Err(_) => break,
        };
        req.extend_from_slice(&chunk[..n]);
        if req.windows(4).any(|w| w == b"\r\n\r\n") || req.len() > 8192 {
            break;
        }
    }
    let text = String::from_utf8_lossy(&req);
    let mut parts = text.lines().next().unwrap_or("").split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m, t),
        _ => return respond(stream, 400, "Bad Request", "text/plain", "bad request\n"),
    };
    if method != "GET" {
        return respond(
            stream,
            405,
            "Method Not Allowed",
            "text/plain",
            "only GET is supported\n",
        );
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    match path {
        "/metrics" => match &sources.metrics {
            Some(reg) => {
                // Mark the scrape for the exemplar ring: tail requests
                // captured while we render carry scrape_in_progress.
                let _guard = sources.exemplars.as_ref().map(|e| e.scrape_guard());
                if query_param(query, "format") == Some("json") {
                    // The krr-metrics-v1 snapshot (what `--metrics-out`
                    // writes) — the machine-readable side `krr doctor
                    // --live` scrapes.
                    let body = reg.snapshot().to_json();
                    return respond(stream, 200, "OK", "application/json", &body);
                }
                let mut body = render_openmetrics(&reg.snapshot());
                if let Some(ring) = &sources.exemplars {
                    body.truncate(body.len() - "# EOF\n".len());
                    body.push_str(&render_forensics_block(ring, sources.profiler.as_deref()));
                    body.push_str("# EOF\n");
                }
                respond(stream, 200, "OK", OPENMETRICS_CONTENT_TYPE, &body)
            }
            None => respond(
                stream,
                404,
                "Not Found",
                "text/plain",
                "no metrics source\n",
            ),
        },
        "/exemplars" => match &sources.exemplars {
            Some(ring) => respond(stream, 200, "OK", "application/json", &ring.to_json()),
            None => respond(
                stream,
                404,
                "Not Found",
                "text/plain",
                "no exemplar source\n",
            ),
        },
        "/profile" => match &sources.profiler {
            Some(p) => respond(stream, 200, "OK", "text/plain", &p.folded()),
            None => respond(
                stream,
                404,
                "Not Found",
                "text/plain",
                "no profiler source\n",
            ),
        },
        "/mrc" => {
            // `format=csv` serves the exact bytes `persist::write_mrc`
            // produces, so a scraper round-trips curves bit-for-bit
            // through `persist::read_mrc` (the `krr partition --live`
            // contract).
            let as_csv = query_param(query, "format") == Some("csv");
            let render = |stream: TcpStream, mrc: &crate::mrc::Mrc| {
                if as_csv {
                    let mut buf = Vec::new();
                    crate::persist::write_mrc(&mut buf, mrc).expect("vec write");
                    let body = String::from_utf8(buf).expect("mrc csv is utf-8");
                    respond(stream, 200, "OK", "text/csv", &body)
                } else {
                    respond(stream, 200, "OK", "application/json", &mrc_json(mrc))
                }
            };
            if let Some(tenant) = query_param(query, "tenant") {
                let Ok(id) = tenant.parse::<u64>() else {
                    return respond(stream, 400, "Bad Request", "text/plain", "bad tenant id\n");
                };
                let Some(cell) = &sources.tenants else {
                    return respond(stream, 404, "Not Found", "text/plain", "no tenant source\n");
                };
                return match cell.get() {
                    Some(view) => match view.mrc_for(id) {
                        Some(mrc) => render(stream, mrc),
                        None => respond(stream, 404, "Not Found", "text/plain", "unknown tenant\n"),
                    },
                    None => respond(
                        stream,
                        503,
                        "Service Unavailable",
                        "text/plain",
                        "fleet view not yet published\n",
                    ),
                };
            }
            match &sources.mrc {
                Some(cell) => match cell.get() {
                    Some(mrc) => render(stream, &mrc),
                    None => respond(
                        stream,
                        503,
                        "Service Unavailable",
                        "text/plain",
                        "mrc not yet published\n",
                    ),
                },
                None => respond(stream, 404, "Not Found", "text/plain", "no mrc source\n"),
            }
        }
        "/tenants" => match &sources.tenants {
            Some(cell) => match cell.get() {
                Some(view) => {
                    let top = query_param(query, "top").and_then(|v| v.parse::<usize>().ok());
                    if query_param(query, "format") == Some("csv") {
                        respond(stream, 200, "OK", "text/csv", &tenants_csv(&view, top))
                    } else {
                        respond(
                            stream,
                            200,
                            "OK",
                            "application/json",
                            &tenants_json(&view, top),
                        )
                    }
                }
                None => respond(
                    stream,
                    503,
                    "Service Unavailable",
                    "text/plain",
                    "fleet view not yet published\n",
                ),
            },
            None => respond(stream, 404, "Not Found", "text/plain", "no tenant source\n"),
        },
        "/stats" => match &sources.stats {
            Some(ring) => {
                let rows = ring.rows();
                let mut body = String::from("[");
                for (i, r) in rows.iter().enumerate() {
                    if i > 0 {
                        body.push(',');
                    }
                    body.push_str(r);
                }
                body.push(']');
                respond(stream, 200, "OK", "application/json", &body)
            }
            None => respond(stream, 404, "Not Found", "text/plain", "no stats source\n"),
        },
        "/trace" => match &sources.trace {
            Some(rec) => respond(
                stream,
                200,
                "OK",
                "application/json",
                &rec.chrome_trace_json(),
            ),
            None => respond(stream, 404, "Not Found", "text/plain", "no trace source\n"),
        },
        "/healthz" => {
            let (drift, mae, stalls, tenants_drifted, timeouts) = match &sources.metrics {
                Some(reg) => (
                    reg.watchdog_drift_events.get(),
                    reg.watchdog_mae_ppm.get(),
                    reg.pipeline_stalls.get(),
                    // Tenants with drift events: the `drifted` rollup.
                    tenant_rollups(&reg.tenant_rows.get())[2].value,
                    reg.expo_request_timeouts.get(),
                ),
                None => (0, 0, 0, 0, 0),
            };
            let unhealthy = drift > 0 || tenants_drifted > 0;
            let status = if unhealthy { "drift" } else { "ok" };
            // Subsystem detail: *which* part is unhealthy. Stalls are
            // back-pressure (expected under load), so they are surfaced
            // but never flip the health code.
            let watchdog = if drift > 0 { "drift" } else { "ok" };
            let pipeline = if stalls > 0 { "stalls" } else { "ok" };
            let tenants = if tenants_drifted > 0 { "drift" } else { "ok" };
            // Exemplar ring losses: overwrite-oldest is by design
            // (bounded memory), so loss is surfaced but never flips the
            // health code either — silent loss is the failure mode this
            // guards against. The profiler keeps only totals and cannot
            // lose a sample; `profiler_drops` stays in the document as 0.
            let exemplar_drops = sources.exemplars.as_ref().map_or(0, |e| e.dropped());
            let forensics = if exemplar_drops > 0 { "lossy" } else { "ok" };
            let body = format!(
                "{{\"status\":\"{status}\",\"drift_events\":{drift},\"mae_ppm\":{mae},\"pipeline_stalls\":{stalls},\"tenants_drifted\":{tenants_drifted},\"exemplar_drops\":{exemplar_drops},\"profiler_drops\":0,\"request_timeouts\":{timeouts},\"subsystems\":{{\"watchdog\":\"{watchdog}\",\"pipeline\":\"{pipeline}\",\"tenants\":\"{tenants}\",\"forensics\":\"{forensics}\"}}}}"
            );
            if unhealthy {
                respond(
                    stream,
                    503,
                    "Service Unavailable",
                    "application/json",
                    &body,
                )
            } else {
                respond(stream, 200, "OK", "application/json", &body)
            }
        }
        _ => respond(stream, 404, "Not Found", "text/plain", "unknown endpoint\n"),
    }
}

/// Minimal HTTP/1.1 GET client for tests and examples: returns
/// `(status, content_type, body)`. Not a general client — it assumes the
/// `Connection: close` responses [`ExpoServer`] sends.
pub fn http_get(addr: SocketAddr, path: &str) -> io::Result<(u16, String, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw).into_owned();
    let header_end = text
        .find("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no header terminator"))?;
    let head = &text[..header_end];
    let body = text[header_end + 4..].to_string();
    let status: u16 = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let ctype = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-type")
                .then(|| v.trim().to_string())
        })
        .unwrap_or_default();
    Ok((status, ctype, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mrc_cell_publishes_latest() {
        let cell = MrcCell::new();
        assert!(cell.get().is_none());
        cell.publish(Mrc::from_points(vec![(0.0, 1.0), (10.0, 0.5)]));
        cell.publish(Mrc::from_points(vec![(0.0, 1.0), (10.0, 0.25)]));
        let got = cell.get().unwrap();
        assert_eq!(got.points().len(), 2);
        assert!((got.eval(10.0) - 0.25).abs() < 1e-12);
        assert!(mrc_json(&got).starts_with("{\"schema\":\"krr-mrc-v1\""));
    }

    #[test]
    fn ring_writer_splits_lines_and_forwards() {
        let ring = Arc::new(StatsRing::new());
        let mut file = Vec::new();
        {
            let mut w = RingWriter::new(Some(&mut file), Arc::clone(&ring));
            w.write_all(b"{\"a\":1}").unwrap();
            w.write_all(b"\n{\"b\":2}\n{\"c\"").unwrap();
            w.write_all(b":3}\n").unwrap();
            w.flush().unwrap();
        }
        assert_eq!(ring.rows(), vec!["{\"a\":1}", "{\"b\":2}", "{\"c\":3}"]);
        assert_eq!(file, b"{\"a\":1}\n{\"b\":2}\n{\"c\":3}\n");
    }

    #[test]
    fn stats_ring_is_bounded() {
        let ring = StatsRing::new();
        for i in 0..(STATS_RING_ROWS + 10) {
            ring.push(format!("{{\"i\":{i}}}"));
        }
        let rows = ring.rows();
        assert_eq!(rows.len(), STATS_RING_ROWS);
        assert_eq!(rows[0], "{\"i\":10}");
    }

    #[test]
    fn openmetrics_render_shapes() {
        let reg = MetricsRegistry::new();
        reg.accesses.add(7);
        reg.chain_len.record(0);
        reg.chain_len.record(5);
        reg.init_slots(crate::metrics::Scope::Shard, 2);
        reg.shard_accesses.record(1, 3);
        reg.shard_resident.record(0, 11);
        let text = render_openmetrics(&reg.snapshot());
        let help = CATALOG[0].help();
        assert!(text.contains(&format!(
            "# TYPE krr_accesses counter\n# HELP krr_accesses {help}\nkrr_accesses_total 7\n"
        )));
        assert!(text.contains("# TYPE krr_merge_ns counter\n# UNIT krr_merge_ns ns\n"));
        assert!(text.contains("# TYPE krr_chain_len histogram\n"));
        // Cumulative: bucket 0 (le="0") holds 1, le=+Inf holds all 2.
        assert!(text.contains("krr_chain_len_bucket{le=\"0\"} 1\n"));
        assert!(text.contains("krr_chain_len_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("krr_chain_len_sum 5\n"));
        assert!(text.contains("krr_shard_accesses_total{shard=\"1\"} 3\n"));
        assert!(text.contains("krr_shard_resident{shard=\"0\"} 11\n"));
        assert!(text.ends_with("# EOF\n"));
    }

    #[test]
    fn forensics_block_renders_exemplars_and_losses() {
        use crate::forensics::Exemplar;
        let ring = ExemplarRing::new();
        assert!(ring.observe(900));
        ring.capture(&Exemplar {
            request_id: 12,
            tenant: Some(3),
            latency_ns: 900,
            ..Exemplar::default()
        });
        let block = render_forensics_block(&ring, None);
        assert!(
            block.contains("krr_command_latency_ns_bucket{le=\"1023\"} 1 # {request_id=\"12\",tenant=\"3\"} 900\n"),
            "{block}"
        );
        assert!(block.contains("krr_command_latency_ns_bucket{le=\"+Inf\"} 1\n"));
        assert!(block.contains("krr_exemplars_dropped_total 0\n"));

        // Wired into /metrics: the scrape carries the exemplar suffix and
        // still terminates with # EOF.
        let reg = Arc::new(MetricsRegistry::new());
        let sources = ExpoSources {
            metrics: Some(Arc::clone(&reg)),
            exemplars: Some(Arc::new(ExemplarRing::new())),
            profiler: Some(Arc::new(PhaseProfiler::new())),
            ..ExpoSources::default()
        };
        sources.exemplars.as_ref().unwrap().capture(&Exemplar {
            request_id: 1,
            latency_ns: 5,
            ..Exemplar::default()
        });
        let server = ExpoServer::start("127.0.0.1:0", sources).unwrap();
        let (status, _, body) = http_get(server.addr(), "/metrics").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("krr_profiler_samples_total 0\n"), "{body}");
        assert!(!body.contains("krr_profiler_dropped"), "{body}");
        assert!(body.trim_end().ends_with("# EOF"));
        let (status, ctype, body) = http_get(server.addr(), "/metrics?format=json").unwrap();
        assert_eq!(status, 200);
        assert!(ctype.starts_with("application/json"));
        assert!(body.starts_with("{\"schema\":\"krr-metrics-v1\""));
        let (status, _, body) = http_get(server.addr(), "/exemplars").unwrap();
        assert_eq!(status, 200);
        assert!(body.starts_with("{\"schema\":\"krr-exemplars-v1\""));
        let (status, _, body) = http_get(server.addr(), "/healthz").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"exemplar_drops\":0"), "{body}");
        assert!(body.contains("\"forensics\":\"ok\""), "{body}");
    }

    #[test]
    fn server_serves_and_shuts_down_cleanly() {
        let reg = Arc::new(MetricsRegistry::new());
        reg.hits.add(5);
        let sources = ExpoSources {
            metrics: Some(Arc::clone(&reg)),
            ..ExpoSources::default()
        };
        let mut server = ExpoServer::start("127.0.0.1:0", sources.clone()).unwrap();
        let addr = server.addr();
        let (status, ctype, body) = http_get(addr, "/metrics").unwrap();
        assert_eq!(status, 200);
        assert!(ctype.starts_with("application/openmetrics-text"));
        assert!(body.contains("krr_hits_total 5"));
        let (status, _, _) = http_get(addr, "/nope").unwrap();
        assert_eq!(status, 404);
        server.shutdown();
        // The port is released: a new server can rebind the same address.
        let server2 = ExpoServer::start(addr, sources).unwrap();
        let (status, _, body) = http_get(server2.addr(), "/healthz").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""));
    }

    #[test]
    fn unwired_sources_answer_404_and_empty_mrc_503() {
        let sources = ExpoSources {
            mrc: Some(Arc::new(MrcCell::new())),
            ..ExpoSources::default()
        };
        let server = ExpoServer::start("127.0.0.1:0", sources).unwrap();
        for path in ["/metrics", "/stats", "/trace", "/exemplars", "/profile"] {
            let (status, _, _) = http_get(server.addr(), path).unwrap();
            assert_eq!(status, 404, "{path}");
        }
        let (status, _, _) = http_get(server.addr(), "/mrc").unwrap();
        assert_eq!(status, 503);
    }
}
