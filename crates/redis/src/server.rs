//! A TCP server exposing [`crate::MiniRedis`] over RESP2.
//!
//! Thread-per-connection with the store behind a mutex — the concurrency
//! model real Redis avoids, but sufficient to validate KRR against a cache
//! reached through an actual wire protocol (§5.7 ran against a live Redis
//! instance). Replies are written as Redis writes them: a reply goes out
//! at once when no further command is buffered, and a pipelined burst's
//! replies go out together, one write per drained read buffer. Every
//! socket read first writes what is buffered, so no reply waits while the
//! connection blocks; `server.commands` and `server.reply_flushes` count
//! commands and writes.
//!
//! A GET's profiling runs behind its reply: a store with a profiler or a
//! fleet arena queues the GET (see [`MiniRedis::apply_profile_queue`]),
//! and a connection that queued one applies the store's queue right after
//! each reply write — after the last
//! reply of a burst and before every blocking socket read — so a lone
//! GET's reply is on the wire before the KRR update, fleet access and
//! exposition refresh run. `MRC`, `INFO`, `METRICS` and `BGSAVE` apply the
//! queue before they read. Each drain that applies GETs is one
//! [`Phase::ProfileDrain`] span on the connection's ring (arg = GETs
//! applied) and one `server.profile_drains` count. A store without
//! profiling queues nothing, so its GETs take the store lock once and
//! never drain.
//!
//! Supported commands: `GET`, `SET`, `DEL`, `DBSIZE`, `INFO`,
//! `METRICS`, `MRC`, `PING`, `SHUTDOWN`, `BGSAVE`, `TRACE DUMP`,
//! `SLOWLOG GET|LEN|RESET`, and `CONFIG GET|SET` for
//! `slowlog-log-slower-than` and `expo-port`.
//!
//! `CONFIG SET expo-port <port>` starts an embedded
//! [`krr_core::expo::ExpoServer`] on `127.0.0.1:<port>` serving the store's
//! metrics registry as OpenMetrics text (`/metrics`, with tail-latency
//! exemplars), the live profiler curve (`/mrc`, refreshed every
//! [`crate::store::EXPO_REFRESH_EVERY`] GETs), the flight recorder
//! (`/trace`), the exemplar ring (`/exemplars`), the phase profiler
//! (`/profile`), and `/healthz`; `CONFIG SET expo-port 0` stops it. The
//! same data also lands in `INFO`'s `# memory` section via the shared
//! registry.
//!
//! Tail-latency forensics: every command draws a request id from an
//! [`krr_core::forensics::ExemplarRing`]; commands whose latency lands in
//! the top histogram bucket (≈p99+) are captured with their tenant,
//! command tag, and whether a `/metrics` scrape was in flight. Exemplar
//! capture and the phase profiler are always on; `docs/PERFORMANCE.md`
//! records their measured tail cost.
//! Slow-log entries and `Command` trace spans carry the connection's
//! tenant so fleet-mode tails are attributable.
//!
//! `BGSAVE` writes an atomic `krr-ckpt-v1` checkpoint of the whole store
//! (keyspace, counters, profiler) to the path configured with
//! [`MiniRedis::set_checkpoint_path`]; start a server from
//! [`MiniRedis::restore_from`] to resume from one.
//!
//! `MRC` returns the online KRR profiler's current miss-ratio curve as a
//! `cache_size,miss_ratio` CSV bulk string (an error if the store was built
//! without [`MiniRedis::enable_mrc_profiling`]).
//!
//! `INFO` renders the store's counters plus the full metrics snapshot in
//! Redis's `# section` / `key:value` text form; `METRICS` returns the same
//! snapshot as one JSON document (`krr-metrics-v1`).
//!
//! Every server carries an always-on [`FlightRecorder`]: each connection
//! thread records a [`Phase::Command`] span per command into its own
//! lock-free ring (a closed connection's ring passes to the next
//! connection), and the store's profiler rings are attached at
//! startup. `TRACE DUMP` drains everything as Chrome trace-event JSON.
//! Commands slower than a configurable threshold (default 10 000 µs, the
//! Redis default) also land in the slow log, queryable with `SLOWLOG GET`
//! in Redis's reply shape: `[id, start_µs, duration_µs, argv]`, where
//! `start_µs` is measured from server start rather than the unix epoch
//! (the hermetic test suite forbids wall-clock timestamps).

use crate::resp::{read_value, write_value, Value};
use crate::store::MiniRedis;
use krr_core::expo::{ExpoServer, ExpoSources, MrcCell};
use krr_core::forensics::{Exemplar, ExemplarRing};
use krr_core::metrics::Counter;
use krr_core::obs::{FlightRecorder, Phase, ThreadRecorder};
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Maximum retained slow-log entries (Redis's `slowlog-max-len` default).
pub const SLOWLOG_MAX_LEN: usize = 128;
/// Default `slowlog-log-slower-than` threshold in microseconds.
pub const SLOWLOG_DEFAULT_THRESHOLD_US: u64 = 10_000;

/// One slow command.
#[derive(Debug, Clone)]
struct SlowEntry {
    id: u64,
    /// Microseconds since server start when the command began.
    start_us: u64,
    dur_us: u64,
    argv: Vec<Vec<u8>>,
    /// Tenant selected on the connection when the command ran, so
    /// fleet-mode slow queries are attributable.
    tenant: Option<u64>,
}

/// The server's slow log: commands whose handling exceeded the threshold.
#[derive(Debug)]
struct SlowLog {
    entries: Mutex<VecDeque<SlowEntry>>,
    next_id: AtomicU64,
    /// Threshold in microseconds; commands strictly slower are logged.
    threshold_us: AtomicU64,
}

impl SlowLog {
    fn new() -> Self {
        Self {
            entries: Mutex::new(VecDeque::new()),
            next_id: AtomicU64::new(0),
            threshold_us: AtomicU64::new(SLOWLOG_DEFAULT_THRESHOLD_US),
        }
    }

    fn offer(&self, start_ns: u64, dur_ns: u64, argv: &[&[u8]], tenant: Option<u64>) {
        if dur_ns <= self.threshold_us.load(Ordering::Relaxed) * 1_000 {
            return;
        }
        let entry = SlowEntry {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            start_us: start_ns / 1_000,
            dur_us: dur_ns / 1_000,
            argv: argv.iter().map(|a| a.to_vec()).collect(),
            tenant,
        };
        let mut entries = self.entries.lock().expect("slowlog poisoned");
        if entries.len() == SLOWLOG_MAX_LEN {
            entries.pop_front();
        }
        entries.push_back(entry);
    }
}

/// Observability state shared by all connection threads.
struct ServerObs {
    recorder: Arc<FlightRecorder>,
    slowlog: SlowLog,
    /// Tail-request exemplar ring: every command gets a request id, p99+
    /// commands are captured with their span join key.
    exemplars: Arc<ExemplarRing>,
    /// Sources handed to the exposition server when `expo-port` is set.
    expo_sources: ExpoSources,
    /// The running exposition server, if `CONFIG SET expo-port` started one.
    expo: Mutex<Option<ExpoServer>>,
}

/// Handle to a running server.
pub struct Server {
    addr: std::net::SocketAddr,
    store: Arc<Mutex<MiniRedis>>,
    stop: Arc<AtomicBool>,
    recorder: Arc<FlightRecorder>,
    obs: Arc<ServerObs>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Starts a server on an ephemeral localhost port. The server's flight
    /// recorder is attached to the store, so profiler activity
    /// shows up in `TRACE DUMP` alongside per-command spans.
    pub fn start(mut store: MiniRedis) -> io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let recorder = Arc::new(FlightRecorder::new());
        store.set_recorder(Arc::clone(&recorder));
        let mrc_cell = Arc::new(MrcCell::new());
        store.set_mrc_cell(Arc::clone(&mrc_cell));
        let fleet_cell = Arc::new(krr_core::fleet::FleetCell::new());
        store.set_fleet_cell(Arc::clone(&fleet_cell));
        let exemplars = Arc::new(ExemplarRing::new());
        let expo_sources = ExpoSources {
            metrics: Some(Arc::clone(store.metrics())),
            mrc: Some(mrc_cell),
            stats: None,
            trace: Some(Arc::clone(&recorder)),
            tenants: Some(fleet_cell),
            exemplars: Some(Arc::clone(&exemplars)),
            profiler: Some(Arc::clone(recorder.profiler())),
        };
        let store = Arc::new(Mutex::new(store));
        let stop = Arc::new(AtomicBool::new(false));
        let obs = Arc::new(ServerObs {
            recorder: Arc::clone(&recorder),
            slowlog: SlowLog::new(),
            exemplars,
            expo_sources,
            expo: Mutex::new(None),
        });
        let accept_store = Arc::clone(&store);
        let accept_stop = Arc::clone(&stop);
        let accept_obs = Arc::clone(&obs);
        let accept_thread = std::thread::spawn(move || {
            // Non-blocking accept loop so SHUTDOWN can terminate us.
            listener.set_nonblocking(true).expect("set_nonblocking");
            let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
            while !accept_stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((conn, _)) => {
                        let store = Arc::clone(&accept_store);
                        let stop = Arc::clone(&accept_stop);
                        let obs = Arc::clone(&accept_obs);
                        // An exited thread keeps its stack mapped until it
                        // is joined or detached, so drop finished handles
                        // rather than holding every one until shutdown.
                        workers.retain(|h| !h.is_finished());
                        workers.push(std::thread::spawn(move || {
                            let _ = serve_connection(conn, &store, &stop, &obs);
                        }));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    }
                    Err(_) => break,
                }
            }
            for w in workers {
                let _ = w.join();
            }
        });
        Ok(Server {
            addr,
            store,
            stop,
            recorder,
            obs,
            accept_thread: Some(accept_thread),
        })
    }

    /// The exposition server's address, if `CONFIG SET expo-port` started
    /// one.
    #[must_use]
    pub fn expo_addr(&self) -> Option<std::net::SocketAddr> {
        self.obs
            .expo
            .lock()
            .expect("expo poisoned")
            .as_ref()
            .map(ExpoServer::addr)
    }

    /// The server's flight recorder (drained by `TRACE DUMP`, or directly
    /// by an embedding test/benchmark).
    #[must_use]
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// The server's socket address.
    #[must_use]
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Snapshot of the store's counters.
    #[must_use]
    pub fn stats(&self) -> crate::store::StoreStats {
        self.store.lock().expect("store poisoned").stats()
    }

    /// Stops the accept loop, waits for workers, and shuts down the
    /// exposition server if one is running (releasing its port).
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(mut expo) = self.obs.expo.lock().expect("expo poisoned").take() {
            expo.shutdown();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn parse_key(data: &[u8]) -> Option<u64> {
    std::str::from_utf8(data).ok()?.parse().ok()
}

/// Bytes of buffered replies at which [`Wire`] writes them out even
/// though more buffered input is waiting, so a pipeline of large replies
/// (`INFO`, `TRACE DUMP`) holds a bounded amount of memory.
const REPLY_SPILL: usize = 8 * 1024;

/// Flight-recorder label of every connection's ring. Connections open at
/// the same time hold separate rings; a closed one's ring is reused.
const CONN_RING: &str = "conn-worker";

/// A connection's socket with its reply buffer. Replies are appended to
/// `out` and written out by [`Wire::flush_replies`]; as the `Read` side
/// of the connection's `BufReader`, it flushes before every socket read,
/// so no reply waits while the connection thread blocks on the socket —
/// for a partial next frame, the stop-flag poll or a slow client.
struct Wire<'a> {
    sock: TcpStream,
    out: Vec<u8>,
    flushes: &'a Counter,
    store: &'a Mutex<MiniRedis>,
    rec: &'a ThreadRecorder,
    /// Whether this connection has queued a GET since its last drain.
    queued_get: bool,
}

impl Wire<'_> {
    /// Writes every buffered reply in one socket write, then applies the
    /// store's profile queue if this connection queued a GET.
    fn flush_replies(&mut self) -> io::Result<()> {
        let sent = if self.out.is_empty() {
            Ok(())
        } else {
            self.flushes.inc();
            let sent = self.sock.write_all(&self.out);
            self.out.clear();
            // Give back the memory of a one-off large reply.
            self.out.shrink_to(REPLY_SPILL * 8);
            sent
        };
        if self.queued_get {
            self.queued_get = false;
            let mut store = self.store.lock().expect("store poisoned");
            let t0 = self.rec.now_ns();
            let applied = store.apply_profile_queue();
            if applied > 0 {
                self.rec.record_since(Phase::ProfileDrain, t0, applied);
            }
        }
        sent
    }
}

impl Read for Wire<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.flush_replies()?;
        self.sock.read(buf)
    }
}

fn serve_connection(
    conn: TcpStream,
    store: &Mutex<MiniRedis>,
    stop: &AtomicBool,
    obs: &ServerObs,
) -> io::Result<()> {
    // One label for every connection: `register` hands a closed
    // connection's ring to the next one, so churn cannot grow the recorder.
    let rec = obs.recorder.register(CONN_RING);
    // Grabbed once so counting commands and reply writes never takes the
    // store lock. Whether GETs queue a profile is fixed before the server
    // starts.
    let (metrics, queues_gets) = {
        let s = store.lock().expect("store poisoned");
        (Arc::clone(s.metrics()), s.queues_gets())
    };
    conn.set_nodelay(true)?;
    // A read timeout lets idle workers notice the stop flag instead of
    // blocking forever in `read` (which would deadlock `shutdown` while a
    // client holds its connection open).
    conn.set_read_timeout(Some(std::time::Duration::from_millis(50)))?;
    let mut reader = BufReader::new(Wire {
        sock: conn,
        out: Vec::new(),
        flushes: &metrics.server_reply_flushes,
        store,
        rec: &rec,
        queued_get: false,
    });
    // Per-connection tenant selection (`TENANT` command), like a Redis
    // `SELECT`ed database: it scopes this connection's GETs for fleet
    // profiling and resets when the connection closes.
    let mut tenant: Option<u64> = None;
    loop {
        if stop.load(Ordering::Relaxed) {
            // SHUTDOWN may have arrived mid-pipeline: its reply and those
            // before it are still buffered.
            return reader.get_mut().flush_replies();
        }
        // Probe for data without committing to a full-message read; a
        // timeout mid-probe keeps the buffered stream consistent.
        match reader.fill_buf() {
            Ok([]) => return Ok(()), // clean EOF
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) => return Err(e),
        }
        let request = match read_value(&mut reader) {
            Ok(v) => v,
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Protocol violation (oversized claim, bad tag, broken
                // framing): report it like redis does, then hang up —
                // the byte stream cannot be resynchronized.
                let wire = reader.get_mut();
                let _ = write_value(
                    &mut wire.out,
                    &Value::Error(format!("ERR Protocol error: {e}")),
                );
                let _ = wire.flush_replies();
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        let request_id = obs.exemplars.next_request_id();
        let argv = Argv::of(&request);
        let cmd = argv
            .as_deref()
            .ok()
            .and_then(|a| a.first())
            .and_then(|c| Cmd::parse(c));
        let t0 = rec.now_ns();
        let reply = match &argv {
            Ok(argv) => handle(argv, store, stop, obs, &mut tenant),
            Err(e) => Value::Error((*e).into()),
        };
        let dur = rec.now_ns() - t0;
        metrics.server_commands.inc();
        let wire = reader.get_mut();
        wire.queued_get |= queues_gets && matches!(cmd, Some(Cmd::Get));
        write_value(&mut wire.out, &reply)?;
        // Replies are written the way Redis writes them: at once when no
        // further command is buffered, otherwise together with the
        // replies of the buffered commands — the socket read that drains
        // the buffer flushes them first (`Wire::read`). Queued GETs are
        // profiled right after each write.
        if reader.buffer().is_empty() || reader.get_ref().out.len() >= REPLY_SPILL {
            reader.get_mut().flush_replies()?;
        }
        // Forensics run after the reply is written: for a lone request
        // it is on the wire, so the capture cost (it lands on exactly the
        // tail requests) does not inflate the latency the client
        // observes. `dur` was taken before the write, so it remains pure
        // service time.
        let argv = argv.as_deref().unwrap_or_default();
        let tag = cmd.map_or(0, |c| c as u64);
        // Pack the tenant into the span arg (0 = none) so trace spans are
        // attributable in fleet mode; the trace writer unpacks it.
        let span_arg = match tenant {
            Some(t) => tag | ((t + 1) << 8),
            None => tag,
        };
        rec.record(Phase::Command, t0, dur, span_arg);
        obs.slowlog.offer(t0, dur, argv, tenant);
        if obs.exemplars.observe(dur) {
            // Tail request: keep the span join key and the scrape flag a
            // post-mortem needs. All reads are lock-free.
            obs.exemplars.capture(&Exemplar {
                request_id,
                tenant,
                latency_ns: dur,
                start_ns: t0,
                command_tag: tag as u8,
                scrape_in_progress: obs.exemplars.scrape_in_progress(),
            });
        }
    }
}

/// Arguments a command array carries inline; every command this server
/// knows takes at most this many, so dispatching one allocates nothing.
const INLINE_ARGS: usize = 4;

/// A request's arguments, borrowed from the parsed request: the command
/// name first. Shared by dispatch and forensics.
enum Argv<'a> {
    Inline([&'a [u8]; INLINE_ARGS], usize),
    Heap(Vec<&'a [u8]>),
}

impl<'a> Argv<'a> {
    /// The arguments of `request`, or the error reply for a request that
    /// is not an array of bulk strings.
    fn of(request: &'a Value) -> Result<Self, &'static str> {
        let Value::Array(parts) = request else {
            return Err("ERR expected command array");
        };
        let bulk = |p: &'a Value| match p {
            Value::Bulk(Some(data)) => Ok(data.as_slice()),
            _ => Err("ERR expected bulk-string arguments"),
        };
        if parts.len() > INLINE_ARGS {
            return parts
                .iter()
                .map(bulk)
                .collect::<Result<_, _>>()
                .map(Argv::Heap);
        }
        let mut inline: [&[u8]; INLINE_ARGS] = [&[]; INLINE_ARGS];
        for (slot, p) in inline.iter_mut().zip(parts) {
            *slot = bulk(p)?;
        }
        Ok(Argv::Inline(inline, parts.len()))
    }
}

impl<'a> std::ops::Deref for Argv<'a> {
    type Target = [&'a [u8]];

    fn deref(&self) -> &Self::Target {
        match self {
            Argv::Inline(args, n) => &args[..*n],
            Argv::Heap(args) => args,
        }
    }
}

/// The commands the server answers. The discriminant is the stable
/// numeric tag identifying a command in trace-event args and exemplars
/// (0 = unknown).
#[derive(Debug, Clone, Copy)]
enum Cmd {
    Ping = 1,
    Get,
    Set,
    Del,
    Dbsize,
    Info,
    Metrics,
    Mrc,
    Shutdown,
    Trace,
    Slowlog,
    Config,
    Bgsave,
    Tenant,
}

impl Cmd {
    const ALL: [(&'static [u8], Cmd); 14] = [
        (b"PING", Cmd::Ping),
        (b"GET", Cmd::Get),
        (b"SET", Cmd::Set),
        (b"DEL", Cmd::Del),
        (b"DBSIZE", Cmd::Dbsize),
        (b"INFO", Cmd::Info),
        (b"METRICS", Cmd::Metrics),
        (b"MRC", Cmd::Mrc),
        (b"SHUTDOWN", Cmd::Shutdown),
        (b"TRACE", Cmd::Trace),
        (b"SLOWLOG", Cmd::Slowlog),
        (b"CONFIG", Cmd::Config),
        (b"BGSAVE", Cmd::Bgsave),
        (b"TENANT", Cmd::Tenant),
    ];

    /// Case-insensitive lookup of a command name.
    fn parse(name: &[u8]) -> Option<Cmd> {
        Self::ALL
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|&(_, c)| c)
    }
}

fn handle(
    argv: &[&[u8]],
    store: &Mutex<MiniRedis>,
    stop: &AtomicBool,
    obs: &ServerObs,
    tenant: &mut Option<u64>,
) -> Value {
    let Some((cmd, rest)) = argv.split_first() else {
        return Value::Error("ERR empty command".into());
    };
    let Some(known) = Cmd::parse(cmd) else {
        return Value::Error(format!(
            "ERR unknown command {:?}",
            String::from_utf8_lossy(&cmd.to_ascii_uppercase())
        ));
    };
    match known {
        Cmd::Ping => Value::Simple("PONG".into()),
        Cmd::Get => {
            let [key] = rest else {
                return Value::Error("ERR wrong arity for GET".into());
            };
            let Some(key) = parse_key(key) else {
                return Value::Error("ERR keys are u64 in mini-redis".into());
            };
            let hit = store.lock().expect("store poisoned").get_for(*tenant, key);
            if hit {
                // The store tracks sizes, not payloads; return a marker.
                Value::bulk(b"1".to_vec())
            } else {
                Value::null()
            }
        }
        Cmd::Set => {
            let [key, value] = rest else {
                return Value::Error("ERR wrong arity for SET".into());
            };
            let Some(key) = parse_key(key) else {
                return Value::Error("ERR keys are u64 in mini-redis".into());
            };
            store
                .lock()
                .expect("store poisoned")
                .set(key, value.len() as u32);
            Value::Simple("OK".into())
        }
        Cmd::Del => {
            // Mini-redis has no user-facing delete; report 0 like a miss.
            Value::Integer(0)
        }
        Cmd::Dbsize => Value::Integer(store.lock().expect("store poisoned").len() as i64),
        Cmd::Info => {
            let mut s = store.lock().expect("store poisoned");
            s.publish_footprint();
            let stats = s.stats();
            let mut body = format!(
                "# mini-redis\r\nkeys:{}\r\nused_memory:{}\r\nhits:{}\r\nmisses:{}\r\nevictions:{}\r\n",
                s.len(),
                s.used_memory(),
                stats.hits,
                stats.misses,
                stats.evictions
            );
            body.push_str("\r\n");
            body.push_str(&s.metrics().snapshot().render_info());
            Value::bulk(body.into_bytes())
        }
        Cmd::Metrics => {
            let mut s = store.lock().expect("store poisoned");
            s.publish_footprint();
            let snap = s.metrics().snapshot();
            Value::bulk(snap.to_json().into_bytes())
        }
        Cmd::Mrc => match store.lock().expect("store poisoned").mrc_profile() {
            Some(mrc) => {
                let mut body = String::from("cache_size,miss_ratio\n");
                for &(x, y) in mrc.points().iter().filter(|&&(x, _)| x > 0.0) {
                    body.push_str(&format!("{x:.0},{y:.5}\n"));
                }
                Value::bulk(body.into_bytes())
            }
            None => Value::Error("ERR MRC profiling not enabled".into()),
        },
        Cmd::Tenant => match rest {
            // TENANT        -> current selection (nil if none)
            // TENANT <id>   -> scope this connection's GETs to tenant <id>
            // TENANT NONE   -> back to unscoped (aggregate-only) profiling
            [] => match tenant {
                Some(id) => Value::bulk(id.to_string().into_bytes()),
                None => Value::null(),
            },
            [arg] if arg.eq_ignore_ascii_case(b"NONE") => {
                *tenant = None;
                Value::Simple("OK".into())
            }
            [arg] => match parse_key(arg) {
                Some(id) => {
                    *tenant = Some(id);
                    Value::Simple("OK".into())
                }
                None => Value::Error("ERR tenant ids are u64 in mini-redis".into()),
            },
            _ => Value::Error("ERR usage: TENANT [id|NONE]".into()),
        },
        Cmd::Shutdown => {
            stop.store(true, Ordering::Relaxed);
            Value::Simple("OK".into())
        }
        Cmd::Bgsave => {
            // Synchronous under the store lock: mini-redis has no fork, so
            // "background" saving is a consistent foreground snapshot.
            match store.lock().expect("store poisoned").bgsave() {
                Ok(()) => Value::Simple("OK".into()),
                Err(e) => Value::Error(format!("ERR BGSAVE: {e}")),
            }
        }
        Cmd::Trace => match rest {
            [sub] if sub.eq_ignore_ascii_case(b"DUMP") => {
                Value::bulk(obs.recorder.chrome_trace_json().into_bytes())
            }
            _ => Value::Error("ERR usage: TRACE DUMP".into()),
        },
        Cmd::Slowlog => {
            let Some((sub, sub_rest)) = rest.split_first() else {
                return Value::Error("ERR usage: SLOWLOG GET|LEN|RESET".into());
            };
            if sub.eq_ignore_ascii_case(b"GET") {
                let count = match sub_rest {
                    [] => SLOWLOG_MAX_LEN,
                    [n] => match std::str::from_utf8(n).ok().and_then(|s| s.parse().ok()) {
                        Some(n) => n,
                        None => return Value::Error("ERR invalid SLOWLOG GET count".into()),
                    },
                    _ => return Value::Error("ERR usage: SLOWLOG GET [count]".into()),
                };
                let entries = obs.slowlog.entries.lock().expect("slowlog poisoned");
                // Newest first, like Redis.
                let items = entries
                    .iter()
                    .rev()
                    .take(count)
                    .map(|e| {
                        Value::Array(vec![
                            Value::Integer(e.id as i64),
                            Value::Integer(e.start_us as i64),
                            Value::Integer(e.dur_us as i64),
                            Value::Array(e.argv.iter().map(|a| Value::bulk(a.clone())).collect()),
                            match e.tenant {
                                Some(t) => Value::Integer(t as i64),
                                None => Value::Bulk(None),
                            },
                        ])
                    })
                    .collect();
                Value::Array(items)
            } else if sub.eq_ignore_ascii_case(b"LEN") {
                Value::Integer(obs.slowlog.entries.lock().expect("slowlog poisoned").len() as i64)
            } else if sub.eq_ignore_ascii_case(b"RESET") {
                obs.slowlog
                    .entries
                    .lock()
                    .expect("slowlog poisoned")
                    .clear();
                Value::Simple("OK".into())
            } else {
                Value::Error("ERR usage: SLOWLOG GET|LEN|RESET".into())
            }
        }
        Cmd::Config => match rest {
            [sub, param] if sub.eq_ignore_ascii_case(b"GET") => {
                if param.eq_ignore_ascii_case(b"slowlog-log-slower-than") {
                    let v = obs.slowlog.threshold_us.load(Ordering::Relaxed);
                    Value::Array(vec![
                        Value::bulk(b"slowlog-log-slower-than".to_vec()),
                        Value::bulk(v.to_string().into_bytes()),
                    ])
                } else if param.eq_ignore_ascii_case(b"expo-port") {
                    let port = obs
                        .expo
                        .lock()
                        .expect("expo poisoned")
                        .as_ref()
                        .map_or(0, |e| e.addr().port());
                    Value::Array(vec![
                        Value::bulk(b"expo-port".to_vec()),
                        Value::bulk(port.to_string().into_bytes()),
                    ])
                } else {
                    Value::Array(Vec::new())
                }
            }
            [sub, param, value] if sub.eq_ignore_ascii_case(b"SET") => {
                if param.eq_ignore_ascii_case(b"slowlog-log-slower-than") {
                    return match std::str::from_utf8(value).ok().and_then(|s| s.parse().ok()) {
                        Some(us) => {
                            obs.slowlog.threshold_us.store(us, Ordering::Relaxed);
                            Value::Simple("OK".into())
                        }
                        None => Value::Error("ERR value must be microseconds (u64)".into()),
                    };
                }
                if param.eq_ignore_ascii_case(b"expo-port") {
                    let Some(port) = std::str::from_utf8(value)
                        .ok()
                        .and_then(|s| s.parse::<u16>().ok())
                    else {
                        return Value::Error("ERR expo-port must be a u16 (0 stops)".into());
                    };
                    // Stop any running server first so the old port is
                    // released before a new bind (and so port 0 = stop).
                    let mut slot = obs.expo.lock().expect("expo poisoned");
                    if let Some(mut running) = slot.take() {
                        running.shutdown();
                    }
                    if port == 0 {
                        return Value::Simple("OK".into());
                    }
                    // Refresh the gauges so the first scrape has data.
                    store.lock().expect("store poisoned").publish_footprint();
                    match ExpoServer::start(("127.0.0.1", port), obs.expo_sources.clone()) {
                        Ok(server) => {
                            *slot = Some(server);
                            Value::Simple("OK".into())
                        }
                        Err(e) => Value::Error(format!("ERR expo-port bind: {e}")),
                    }
                } else {
                    Value::Error("ERR unknown CONFIG parameter".into())
                }
            }
            _ => Value::Error(
                "ERR usage: CONFIG GET|SET slowlog-log-slower-than|expo-port [value]".into(),
            ),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;

    #[test]
    fn get_set_over_the_wire() {
        let mut server = Server::start(MiniRedis::new(100_000, 5, 1)).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        assert!(client.ping().unwrap());
        assert!(!client.get(42).unwrap());
        client.set(42, 200).unwrap();
        assert!(client.get(42).unwrap());
        assert_eq!(client.dbsize().unwrap(), 1);
        let info = client.info().unwrap();
        assert!(info.contains("keys:1"), "{info}");
        server.shutdown();
    }

    #[test]
    fn closed_connections_hand_their_rings_on() {
        let mut server = Server::start(MiniRedis::new(10_000, 5, 1)).unwrap();
        for _ in 0..200 {
            assert!(Client::connect(server.addr()).unwrap().ping().unwrap());
        }
        let conn_rows = server
            .recorder()
            .profiler()
            .thread_totals()
            .iter()
            .filter(|t| t.label.starts_with("conn-"))
            .count();
        server.shutdown();
        // One connection is open at a time; a ring only stays taken while
        // its closed connection's thread is still winding down.
        assert!(
            (1..=8).contains(&conn_rows),
            "{conn_rows} conn- rings after 200 sequential connections"
        );
    }

    #[test]
    fn eviction_happens_over_the_wire() {
        let mut server = Server::start(MiniRedis::new(2_000, 5, 2)).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        for key in 0..100u64 {
            client.set(key, 100).unwrap();
        }
        let n = client.dbsize().unwrap();
        assert!(n <= 20, "dbsize {n} exceeds memory budget");
        server.shutdown();
    }

    #[test]
    fn multiple_clients() {
        let mut server = Server::start(MiniRedis::new(1_000_000, 5, 3)).unwrap();
        let addr = server.addr();
        let handles: Vec<_> = (0..4u64)
            .map(|c| {
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    for i in 0..200u64 {
                        client.set(c * 1_000 + i, 50).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut client = Client::connect(addr).unwrap();
        assert_eq!(client.dbsize().unwrap(), 800);
        server.shutdown();
    }

    #[test]
    fn mrc_command_over_the_wire() {
        let mut store = MiniRedis::new(1_000_000, 5, 9);
        store.enable_mrc_profiling(&krr_core::KrrConfig::new(5.0).seed(7), 2);
        let mut server = Server::start(store).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        for _ in 0..3 {
            for key in 0..500u64 {
                let _ = client.access(key, 50).unwrap();
            }
        }
        let csv = client.mrc().unwrap();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("cache_size,miss_ratio"));
        assert!(lines.next().is_some(), "curve has data points: {csv}");
        server.shutdown();
    }

    #[test]
    fn mrc_without_profiling_is_an_error() {
        let mut server = Server::start(MiniRedis::new(10_000, 5, 5)).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        assert!(client.mrc().is_err());
        assert!(client.ping().unwrap(), "connection survives the error");
        server.shutdown();
    }

    #[test]
    fn bgsave_then_restore_on_start_resumes_the_dataset() {
        let dir = std::env::temp_dir().join(format!("krr-srv-bgsave-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dump.ckpt");
        let mut store = MiniRedis::new(1_000_000, 5, 31);
        store.set_checkpoint_path(&path);
        let mut server = Server::start(store).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        for key in 0..50u64 {
            client.set(key, 100).unwrap();
        }
        client.bgsave().unwrap();
        server.shutdown();

        let restored = MiniRedis::restore_from(&path).unwrap();
        let mut server = Server::start(restored).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        assert_eq!(client.dbsize().unwrap(), 50);
        assert!(client.get(7).unwrap());
        server.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bgsave_without_path_is_an_error() {
        let mut server = Server::start(MiniRedis::new(10_000, 5, 32)).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        assert!(client.bgsave().is_err());
        assert!(client.ping().unwrap(), "connection survives the error");
        server.shutdown();
    }

    #[test]
    fn expo_port_serves_openmetrics_and_stops_cleanly() {
        let mut store = MiniRedis::new(1_000_000, 5, 40);
        store.enable_mrc_profiling(&krr_core::KrrConfig::new(5.0).seed(7), 2);
        let mut server = Server::start(store).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        for key in 0..500u64 {
            let _ = client.access(key, 50).unwrap();
        }
        // Find a free port, then ask the server to bind it.
        let probe = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let port = probe.local_addr().unwrap().port();
        drop(probe);
        let reply = client
            .raw(&[b"CONFIG", b"SET", b"expo-port", port.to_string().as_bytes()])
            .unwrap();
        assert!(
            matches!(&reply, Value::Simple(s) if s == "OK"),
            "CONFIG SET expo-port failed: {reply:?}"
        );
        let addr = server.expo_addr().expect("expo server running");
        assert_eq!(addr.port(), port);
        let (status, ctype, body) = krr_core::expo::http_get(addr, "/metrics").unwrap();
        assert_eq!(status, 200);
        assert!(ctype.starts_with("application/openmetrics-text"));
        assert!(body.contains("krr_accesses_total"), "{body}");
        assert!(body.contains("krr_footprint_total_bytes"), "{body}");
        assert!(body.ends_with("# EOF\n"));
        // INFO shares the same registry, so the gauges show up there too.
        let info = client.info().unwrap();
        assert!(info.contains("# memory"), "{info}");
        // Port 0 stops the server and releases the port.
        let reply = client
            .raw(&[b"CONFIG", b"SET", b"expo-port", b"0"])
            .unwrap();
        assert!(matches!(&reply, Value::Simple(s) if s == "OK"));
        assert!(server.expo_addr().is_none());
        assert!(
            std::net::TcpStream::connect_timeout(&addr, std::time::Duration::from_millis(200))
                .is_err(),
            "expo port should be closed after expo-port 0"
        );
        server.shutdown();
    }

    #[test]
    fn slowlog_entries_carry_the_connection_tenant() {
        let mut store = MiniRedis::new(1_000_000, 5, 8);
        store.enable_fleet_profiling(krr_core::fleet::FleetConfig::new(
            krr_core::KrrConfig::new(5.0).seed(7),
        ));
        let mut server = Server::start(store).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        client.set_slowlog_threshold_us(0).unwrap();
        client.tenant(3).unwrap();
        let _ = client.get(42).unwrap();
        client.tenant_none().unwrap();
        let _ = client.get(42).unwrap();
        let entries = client.slowlog_get().unwrap();
        let gets: Vec<Option<i64>> = entries
            .iter()
            .filter(|e| e.3.first().map(Vec::as_slice) == Some(b"GET"))
            .map(|e| e.4)
            .collect();
        // Newest first: the tenant-less GET, then the tenant-3 GET.
        assert_eq!(gets, [None, Some(3)], "slowlog tenants: {entries:?}");
        server.shutdown();
    }

    #[test]
    fn forensics_toggle_and_exemplar_capture() {
        let mut server = Server::start(MiniRedis::new(1_000_000, 5, 6)).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        // The threshold starts at 0 (everything is "tail" until the
        // histogram warms up), so early commands capture exemplars.
        for key in 0..50u64 {
            let _ = client.access(key, 50).unwrap();
        }
        assert!(server.obs.exemplars.captured() > 0, "no exemplar captured");
        // Capture is always on: there is no switch to read or flip.
        let reply = client
            .raw(&[b"CONFIG", b"SET", b"forensics", b"off"])
            .unwrap();
        assert!(
            matches!(&reply, Value::Error(e) if e == "ERR unknown CONFIG parameter"),
            "{reply:?}"
        );
        let reply = client.raw(&[b"CONFIG", b"GET", b"forensics"]).unwrap();
        assert!(
            matches!(&reply, Value::Array(kv) if kv.is_empty()),
            "{reply:?}"
        );
        let before = server.obs.exemplars.latency_histogram().count;
        assert!(client.ping().unwrap());
        assert!(server.obs.exemplars.latency_histogram().count > before);
        server.shutdown();
    }

    #[test]
    fn unprofiled_server_never_drains() {
        let store = MiniRedis::new(1_000_000, 5, 7);
        let metrics = Arc::clone(store.metrics());
        let mut server = Server::start(store).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        for key in 0..1_000u64 {
            let _ = client.get(key % 100).unwrap();
        }
        assert!(client.ping().unwrap());
        assert_eq!(metrics.server_profile_drains.get(), 0);
        let reply = client.raw(&[b"TRACE", b"DUMP"]).unwrap();
        let Value::Bulk(Some(trace)) = &reply else {
            panic!("TRACE DUMP: {reply:?}")
        };
        let trace = String::from_utf8_lossy(trace);
        assert!(trace.contains("\"command\""), "no command spans: {trace}");
        assert!(!trace.contains("profile_drain"), "drained: {trace}");
        server.shutdown();
    }

    #[test]
    fn unknown_command_is_an_error_not_a_hangup() {
        let mut server = Server::start(MiniRedis::new(10_000, 5, 4)).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let err = client.raw(&[b"FLUBBER"]).unwrap();
        assert!(matches!(err, crate::resp::Value::Error(_)));
        assert!(client.ping().unwrap(), "connection must survive errors");
        server.shutdown();
    }
}
