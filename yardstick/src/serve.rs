//! `serve-rw`: an in-process `krr_redis::Server` with in-band KRR
//! profiling, driven open-loop over one RESP connection.

use crate::report::Spans;
use crate::workload::Workload;
use krr_core::expo::MrcCell;
use krr_core::obs::{FlightRecorder, Phase, SpanEvent};
use krr_core::{Mrc, ShardedKrr};
use krr_redis::resp::{read_value, write_value, Value};
use krr_redis::{Client, MiniRedis, Server};
use krr_trace::{Op, Request};
use std::collections::HashSet;
use std::io::{self, BufReader, BufWriter, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `maxmemory-samples`, the Redis default.
const SAMPLES: usize = 5;
/// Commands the sender buffers before it must flush.
const PIPELINE: usize = 32;
/// A drive gives up when no reply arrives for this long.
const STALL_LIMIT: Duration = Duration::from_secs(10);
/// How often [`service_times`] drains the server's flight recorder. A
/// connection's ring holds its last 8,192 commands, under a second of
/// `serve-rw`, so nothing is overwritten between drains.
const DRAIN_EVERY: Duration = Duration::from_millis(200);

/// `maxmemory` for `ops`: half the bytes of its distinct keys, so a
/// prefilled store is full and SETs evict throughout.
fn maxmemory(ops: &[Request]) -> u64 {
    let mut seen = HashSet::new();
    let bytes: u64 = ops
        .iter()
        .filter(|r| seen.insert(r.key))
        .map(|r| u64::from(r.size.max(1)))
        .sum();
    (bytes / 2).max(1)
}

/// A store configured like every server of the benchmark, MRC profiling
/// on when `profile` is set.
pub fn store(w: &Workload, ops: &[Request], seed: u64, profile: bool) -> MiniRedis {
    let mut s = MiniRedis::new(maxmemory(ops), SAMPLES, seed);
    if profile {
        s.enable_mrc_profiling(&w.krr(), w.shards);
    }
    s
}

/// Writes one `SET` per distinct key of `ops`, in first-seen order, as
/// `krr_load::prefill` does over the wire.
pub fn prefill_local(s: &mut MiniRedis, ops: &[Request]) {
    let mut seen = HashSet::new();
    for r in ops.iter().filter(|r| seen.insert(r.key)) {
        s.set(r.key, r.size.max(1));
    }
}

/// Starts a profiled server and prefills it with every key of `ops`.
pub fn start(w: &Workload, ops: &[Request], seed: u64) -> io::Result<Server> {
    let server = Server::start(store(w, ops, seed, true))?;
    krr_load::prefill(server.addr(), ops)?;
    Ok(server)
}

/// Expands a GET-only trace into the cache-aside command stream a client
/// sends: each GET that misses is followed by a SET of the object. Misses
/// come from a replica store that sees exactly what the server will see,
/// so the stream needs no round trip to decide.
pub fn cache_aside(w: &Workload, trace: &[Request], seed: u64) -> Vec<Request> {
    let mut replica = store(w, trace, seed, false);
    prefill_local(&mut replica, trace);
    let mut ops = Vec::with_capacity(trace.len() * 2);
    for r in trace {
        match r.op {
            Op::Get => {
                ops.push(*r);
                if !replica.get(r.key) {
                    replica.set(r.key, r.size.max(1));
                    ops.push(Request::set(r.key, r.size.max(1)));
                }
            }
            Op::Set => {
                replica.set(r.key, r.size.max(1));
                ops.push(*r);
            }
        }
    }
    ops
}

/// What the receiver saw for one request.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    Hit,
    Miss,
    Stored,
    Error,
    Missing,
}

/// One open-loop drive.
pub struct Drive {
    /// Reply time minus scheduled send time, per answered request.
    pub lat_ns: Vec<u64>,
    /// Whether each answered request was a GET, parallel to `lat_ns`.
    pub is_get: Vec<bool>,
    /// Actual minus scheduled send time, per sent request.
    pub late_ns: Vec<u64>,
    pub replies: Vec<Reply>,
    /// From the first scheduled send to the last reply.
    pub span_ns: u64,
}

impl Drive {
    pub fn answered(&self) -> u64 {
        self.lat_ns.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.replies
            .iter()
            .filter(|r| matches!(r, Reply::Error | Reply::Missing))
            .count() as u64
    }

    /// Answered requests per second.
    pub fn rate(&self) -> f64 {
        self.answered() as f64 / (self.span_ns.max(1) as f64 / 1e9)
    }

    /// Latencies of GETs (`true`) or SETs (`false`), ascending.
    pub fn sorted(&self, gets: bool) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .lat_ns
            .iter()
            .zip(&self.is_get)
            .filter(|&(_, &g)| g == gets)
            .map(|(&l, _)| l)
            .collect();
        v.sort_unstable();
        v
    }
}

fn command(r: &Request, payload: &[u8]) -> Value {
    let key = r.key.to_string();
    match r.op {
        Op::Get => Value::command(&[b"GET", key.as_bytes()]),
        Op::Set => Value::command(&[b"SET", key.as_bytes(), &payload[..r.size.max(1) as usize]]),
    }
}

/// The RESP command for every request of `ops`.
pub fn commands(ops: &[Request]) -> Vec<Value> {
    let payload = vec![
        b'x';
        ops.iter()
            .map(|r| r.size.max(1) as usize)
            .max()
            .unwrap_or(1)
    ];
    ops.iter().map(|r| command(r, &payload)).collect()
}

/// Sleeps, then yields, then spins until `target_ns` after `t0`.
fn wait_until(t0: Instant, target_ns: u64) {
    loop {
        let now = t0.elapsed().as_nanos() as u64;
        if now >= target_ns {
            return;
        }
        let rem = target_ns - now;
        if rem > 1_500_000 {
            std::thread::sleep(Duration::from_nanos(rem - 500_000));
        } else if rem > 100_000 {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Sends `ops[i]` at `arrivals[i]` ns after the start without waiting for
/// replies, and times each reply from its scheduled send. A sender thread
/// writes on schedule; this thread blocks on the replies. With `spans`,
/// every request becomes a span under `parent`.
pub fn drive(
    addr: SocketAddr,
    ops: &[Request],
    arrivals: &[u64],
    spans: Option<(&mut Spans, u64)>,
) -> io::Result<Drive> {
    let n = ops.len();
    let cmds = commands(ops);
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(STALL_LIMIT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let t0 = Instant::now();
    let (sent_ns, replies, reply_ns) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut sent = Vec::with_capacity(n);
            let mut pending = 0;
            for (i, cmd) in cmds.iter().enumerate() {
                wait_until(t0, arrivals[i]);
                if write_value(&mut writer, cmd).is_err() {
                    break;
                }
                let now = t0.elapsed().as_nanos() as u64;
                sent.push(now);
                pending += 1;
                // Flush on a full pipeline, at the end, or whenever the
                // wire would otherwise sit idle.
                if pending >= PIPELINE || i + 1 == n || arrivals[i + 1] > now {
                    if writer.flush().is_err() {
                        break;
                    }
                    pending = 0;
                }
            }
            let _ = writer.flush();
            sent
        });
        let mut replies = vec![Reply::Missing; n];
        let mut reply_ns = vec![0u64; n];
        for i in 0..n {
            let Ok(v) = read_value(&mut reader) else {
                break;
            };
            reply_ns[i] = t0.elapsed().as_nanos() as u64;
            replies[i] = match (ops[i].op, v) {
                (Op::Get, Value::Bulk(Some(_))) => Reply::Hit,
                (Op::Get, Value::Bulk(None)) => Reply::Miss,
                (Op::Set, Value::Simple(ref s)) if s == "OK" => Reply::Stored,
                _ => Reply::Error,
            };
        }
        let sent = sender.join().expect("sender thread panicked");
        (sent, replies, reply_ns)
    });
    let mut d = Drive {
        lat_ns: Vec::with_capacity(n),
        is_get: Vec::with_capacity(n),
        late_ns: sent_ns
            .iter()
            .zip(arrivals)
            .map(|(&s, &a)| s.saturating_sub(a))
            .collect(),
        replies,
        span_ns: 0,
    };
    let mut spans = spans;
    for i in 0..n {
        if d.replies[i] == Reply::Missing {
            continue;
        }
        d.lat_ns.push(reply_ns[i].saturating_sub(arrivals[i]));
        d.is_get.push(ops[i].op == Op::Get);
        d.span_ns = d.span_ns.max(reply_ns[i].saturating_sub(arrivals[0]));
        if let Some((s, parent)) = spans.as_mut() {
            let name = if ops[i].op == Op::Get { "GET" } else { "SET" };
            let at = |ns: u64| t0 + Duration::from_nanos(ns);
            s.record(name, *parent, at(arrivals[i]), at(reply_ns[i]));
        }
    }
    Ok(d)
}

/// Runs `f` while another thread drains the server's flight recorder every
/// [`DRAIN_EVERY`]. Returns `f`'s result and the duration of every
/// `Command` span that started meanwhile: each command's service time as
/// the server itself records it, from parsed request to built reply (store
/// lock, store and in-band profiler included), as Redis's latency stats do.
pub fn service_times<T>(rec: &FlightRecorder, f: impl FnOnce() -> T) -> (T, Vec<u64>) {
    let newest = |ev: &[SpanEvent]| {
        ev.iter()
            .filter(|e| e.phase == Phase::Command)
            .map(|e| e.start_ns)
            .max()
    };
    let mut last = newest(&rec.collect_events().0).unwrap_or(0);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let drain = scope.spawn(|| {
            let mut durs = Vec::new();
            loop {
                let done = stop.load(Ordering::Acquire);
                let (ev, _) = rec.collect_events();
                durs.extend(
                    ev.iter()
                        .filter(|e| e.phase == Phase::Command && e.start_ns > last)
                        .map(|e| e.dur_ns),
                );
                last = newest(&ev).unwrap_or(last).max(last);
                if done {
                    return durs;
                }
                std::thread::sleep(DRAIN_EVERY);
            }
        });
        let out = f();
        stop.store(true, Ordering::Release);
        (out, drain.join().expect("recorder drain thread panicked"))
    })
}

/// The `MRC` reply body the server renders for `mrc`.
pub fn render_mrc(mrc: &Mrc) -> String {
    let mut body = String::from("cache_size,miss_ratio\n");
    for &(x, y) in mrc.points().iter().filter(|&&(x, _)| x > 0.0) {
        body.push_str(&format!("{x:.0},{y:.5}\n"));
    }
    body
}

/// An offline `ShardedKrr` over the GET stream the server profiled: a hit
/// carries the object's stored size, a miss size 1, as the store feeds it.
pub fn offline_profile(w: &Workload, ops: &[Request], replies: &[Reply]) -> ShardedKrr {
    let mut bank = ShardedKrr::new(&w.krr(), w.shards);
    for (r, reply) in ops.iter().zip(replies) {
        match reply {
            Reply::Hit => bank.access(r.key, r.size.max(1)),
            Reply::Miss => bank.access(r.key, 1),
            _ => {}
        }
    }
    bank
}

/// Server-side results fetched over RESP after a drive.
pub struct ServerView {
    pub mrc_csv: String,
    /// `memory.total_bytes` of the server's `METRICS` snapshot.
    pub model_bytes: f64,
    pub hits: u64,
    pub misses: u64,
}

pub fn view(server: &Server) -> io::Result<ServerView> {
    let mut c = Client::connect(server.addr())?;
    let mrc_csv = c.mrc()?;
    let json = krr_core::json::parse(&c.metrics()?).map_err(io::Error::other)?;
    let model_bytes = json
        .path(&["memory", "total_bytes"])
        .and_then(krr_core::json::Json::as_num)
        .ok_or_else(|| io::Error::other("METRICS has no memory.total_bytes"))?;
    let stats = server.stats();
    Ok(ServerView {
        mrc_csv,
        model_bytes,
        hits: stats.hits,
        misses: stats.misses,
    })
}

/// A store whose expo refresh runs every `EXPO_REFRESH_EVERY` GETs, as in
/// a server.
pub fn with_refresh(mut s: MiniRedis) -> MiniRedis {
    s.set_mrc_cell(Arc::new(MrcCell::new()));
    s
}
