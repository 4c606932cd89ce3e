//! The traced run (`--trace 1`): per-layer metrics.
//!
//! Half of `--seconds` repeats the untraced measurement, the other half
//! runs it with the program's own instrumentation attached (a
//! `MetricsRegistry` and a `FlightRecorder`) and a harness span around
//! every call into a layer. Then each layer's public functions are timed
//! over this workload's inputs, so every workload reports every layer.
//! Spans and the program's flight-recorder trace are written out at the
//! end.

use crate::model::{self, Instr};
use crate::report::{median, pct, Report, Spans};
use crate::serve::{self, Drive};
use crate::workload::{Kind, Workload, BYTE_BIN, SERVE_QPS};
use crate::{model_passes, serve_checks, serve_setup, Args};
use krr_core::hashing::hash_keys8;
use krr_core::metrics::MetricsSnapshot;
use krr_core::profiler::ProfPhase;
use krr_core::sharded::shard_of_hash;
use krr_core::{
    Access, FlightRecorder, KrrConfig, KrrModel, KrrStack, MetricsRegistry, ShardedKrr,
    SpatialFilter,
};
use krr_redis::resp::{read_value, write_value};
use krr_trace::{Op, Request};
use std::hint::black_box;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

const GEN: &str = "setup_s, every workload";
const FILTER: &str = "refs_per_s on model-sampled; none on model-deep";
const PIPE: &str = "refs_per_s on model-sampled";
const STACK: &str = "refs_per_s on model-deep; p50_us on serve-rw";
const MODEL: &str = "refs_per_s on model-deep and model-sampled";
const BYTES: &str = "model_bytes, every workload";
const SERVE: &str = "p50_us on serve-rw";
const CLIENT: &str = "client-side latency on serve-rw; not gated";
const STORE: &str = "p50_us on serve-rw; none on model-*";
const STORE_TAIL: &str = "p90_us on serve-rw; none on model-*";
const LOAD: &str = "validity of serve-rw, not a target";
const OVERHEAD: &str = "cost of tracing: traced vs untraced, same run";
const COVERAGE: &str = "layer self times over the untraced time";

/// Every per-layer metric: name, unit, and the end-to-end metric it should
/// move, on which workload.
pub const LAYERS: &[(&str, &str, &str)] = &[
    ("trace.gen_s", "s", GEN),
    ("hashing.ns_per_key", "ns", FILTER),
    ("sampling.ns_per_ref", "ns", FILTER),
    ("sampling.admit_ratio", "ratio", FILTER),
    ("pipeline.router_busy_ns", "ns", PIPE),
    ("pipeline.worker_busy_ns", "ns", PIPE),
    ("pipeline.batches", "count", PIPE),
    ("pipeline.router_stalls", "count", PIPE),
    ("pipeline.router_parks", "count", PIPE),
    ("pipeline.worker_parks", "count", PIPE),
    ("pipeline.ring_wait_share", "ratio", PIPE),
    ("stack.ns_per_access", "ns", STACK),
    ("stack.chain_len_mean", "count", STACK),
    ("stack.positions_scanned_mean", "count", STACK),
    ("stack.hit_ratio", "ratio", STACK),
    ("stack.depth_p99", "count", STACK),
    ("sizearray.ns_per_ref", "ns", SERVE),
    ("mrc.build_ms", "ms", MODEL),
    ("footprint.total_bytes", "B", BYTES),
    ("resp.parse_ns", "ns", CLIENT),
    ("resp.encode_ns", "ns", CLIENT),
    ("store.get_ns_p50", "ns", STORE),
    ("store.get_ns_p999", "ns", STORE_TAIL),
    ("store.set_ns_p50", "ns", STORE),
    ("store.set_ns_p99", "ns", STORE_TAIL),
    ("store.profile_ns_per_get", "ns", STORE),
    ("store.refresh_ns", "ns", STORE_TAIL),
    ("store.evictions_per_set", "ratio", STORE_TAIL),
    ("store.hit_ratio", "ratio", STORE_TAIL),
    ("serve.get_p50_us", "us", CLIENT),
    ("serve.get_p99_us", "us", CLIENT),
    ("serve.set_p50_us", "us", CLIENT),
    ("serve.set_p99_us", "us", CLIENT),
    ("server.overhead_us_p50", "us", CLIENT),
    ("load.late_p99_us", "us", LOAD),
    ("trace.overhead_pct", "%", OVERHEAD),
    ("accounting.coverage", "ratio", COVERAGE),
];

/// Most admitted references the stack and sizeArray probes replay.
const STACK_PROBE_REFS: usize = 1 << 19;
/// Most references the pipeline probe streams.
const PIPE_PROBE_REFS: usize = 1 << 18;
/// Trace references the serve and store probes of a model workload replay.
const SERVE_PROBE_REFS: usize = 10_000;
/// Least time a repeated micro-probe runs.
const PROBE_MIN: Duration = Duration::from_millis(100);
/// Ring capacity of the flight recorders the harness attaches.
const RING_EVENTS: usize = 4096;

/// Per-layer values collected so far, by name.
#[derive(Default)]
struct Values(Vec<(&'static str, f64)>);

impl Values {
    fn put(&mut self, name: &'static str, v: f64) {
        self.0.push((name, v));
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("layer metric {name} was not measured"))
    }
}

pub fn traced(w: &Workload, args: &Args, rep: &mut Report) -> io::Result<()> {
    let mut spans = Spans::new();
    let mut v = Values::default();
    let program_trace = match w.kind {
        Kind::Serve => traced_serve(w, args, rep, &mut spans, &mut v)?,
        _ => traced_model(w, args, rep, &mut spans, &mut v)?,
    };
    std::fs::create_dir_all(&args.out)?;
    let stem = format!("{}-seed{}", w.name, args.seed);
    let harness_path = args.out.join(format!("{stem}.harness.json"));
    let program_path = args.out.join(format!("{stem}.program.json"));
    std::fs::write(&harness_path, spans.chrome_json())?;
    std::fs::write(&program_path, program_trace)?;
    println!("harness spans: {}", harness_path.display());
    println!("program trace: {}", program_path.display());
    println!("{:<30} {:>14} {:<6} moves", "layer metric", "value", "unit");
    for &(name, unit, target) in LAYERS {
        let x = v.get(name);
        println!("{name:<30} {x:>14.4} {unit:<6} {target}");
        rep.metric(name, x, unit);
    }
    println!("harness span self times:");
    for (name, ns) in spans.self_ns() {
        println!("  {name:<16} {:>12.3} ms", ns as f64 / 1e6);
    }
    Ok(())
}

/// Model workloads: untraced passes, instrumented passes, then probes.
fn traced_model(
    w: &Workload,
    args: &Args,
    rep: &mut Report,
    spans: &mut Spans,
    v: &mut Values,
) -> io::Result<String> {
    let half = args.seconds / 2.0;
    let id = spans.begin("setup", 0);
    let inputs = model::setup(w, args.seed);
    spans.end(id);
    v.put("trace.gen_s", inputs.gen_s);

    let id = spans.begin("untraced", 0);
    let base = model_passes(w, &inputs, half, rep);
    spans.end(id);

    let traced = spans.begin("traced", 0);
    let reg = Arc::new(MetricsRegistry::new());
    let deadline = Instant::now() + Duration::from_secs_f64(half);
    let (mut timings, mut bad) = (Vec::new(), 0);
    let mut ring = RingWait::default();
    let (bytes, program_trace) = loop {
        let instr = Instr {
            reg: Arc::clone(&reg),
            rec: Arc::new(FlightRecorder::with_capacity(RING_EVENTS)),
        };
        let id = spans.begin("pass", traced);
        let p = model::pass(w, &inputs.refs, Some(&instr), Some((&mut *spans, id)));
        spans.end(id);
        timings.push(p.timing);
        bad += u64::from(p.digest != base.digest);
        ring.add(&instr.rec);
        if Instant::now() >= deadline {
            break (p.bytes, instr.rec.chrome_trace_json());
        }
    };
    spans.end(traced);
    let passes = timings.len();
    rep.ops(passes as u64, bad);
    let traced_med = model::Timing::median(&timings);
    rep.check(
        bad == 0,
        format!("traced MRC digest == untraced in all {passes} traced passes"),
    );
    let snap = reg.snapshot();
    v.put("stack.chain_len_mean", snap.chain_len.mean());
    v.put(
        "stack.positions_scanned_mean",
        snap.positions_scanned.mean(),
    );
    v.put("mrc.build_ms", traced_med.mrc_ns as f64 / 1e6);
    v.put("footprint.total_bytes", bytes as f64);
    if w.kind == Kind::Sampled {
        pipeline_values(v, &snap, &ring, passes as f64);
    } else {
        pipeline_probe(w, &inputs.refs, spans, v);
    }

    // The trace's keys replayed cache-aside through a store and a server.
    let probe: Vec<Request> = inputs.refs[..inputs.refs.len().min(SERVE_PROBE_REFS)]
        .iter()
        .map(|&(k, s, _)| Request::get(k, s))
        .collect();
    let ops = serve::cache_aside(w, &probe, args.seed);
    let server = serve::start(w, &ops, args.seed)?;
    let sched =
        krr_load::Schedule::generate(krr_load::Arrival::Poisson, SERVE_QPS, ops.len(), args.seed);
    let id = spans.begin("serve_probe", 0);
    let d = serve::drive(
        server.addr(),
        &ops,
        &sched.arrivals,
        Some((&mut *spans, id)),
    )?;
    spans.end(id);
    rep.ops(ops.len() as u64, d.failed());

    let admitted = common_probes(w, &inputs.refs, &ops, args.seed, spans, v);
    serve_values(v, &d);
    v.put(
        "trace.overhead_pct",
        (traced_med.total_ns() as f64 / 1e9 / base.pass_s - 1.0) * 100.0,
    );
    // On the untraced path a pass is stack work on every admitted
    // reference, the final mrc() and, when sampling, hash + filter on all.
    let n = inputs.refs.len() as f64;
    let mut accounted = v.get("stack.ns_per_access") * admitted + v.get("mrc.build_ms") * 1e6;
    if w.kind == Kind::Sampled {
        accounted += (v.get("hashing.ns_per_key") + v.get("sampling.ns_per_ref")) * n;
    }
    v.put("accounting.coverage", accounted / (base.pass_s * 1e9));
    Ok(program_trace)
}

/// `serve-rw`: the first half of the schedule untraced, the second half
/// with a span per request, then the probes over the same commands.
fn traced_serve(
    w: &Workload,
    args: &Args,
    rep: &mut Report,
    spans: &mut Spans,
    v: &mut Values,
) -> io::Result<String> {
    let id = spans.begin("setup", 0);
    let s = serve_setup(w, args.seed)?;
    spans.end(id);
    v.put("trace.gen_s", s.gen_s);
    let mid = s.ops.len() / 2;
    let id = spans.begin("untraced", 0);
    let a = serve::drive(s.server.addr(), &s.ops[..mid], &s.arrivals[..mid], None)?;
    spans.end(id);
    let shifted: Vec<u64> = s.arrivals[mid..]
        .iter()
        .map(|&t| t - s.arrivals[mid])
        .collect();
    let id = spans.begin("traced", 0);
    let b = serve::drive(
        s.server.addr(),
        &s.ops[mid..],
        &shifted,
        Some((&mut *spans, id)),
    )?;
    spans.end(id);
    let replies: Vec<serve::Reply> = a.replies.iter().chain(&b.replies).copied().collect();
    rep.ops(s.ops.len() as u64, a.failed() + b.failed());
    let view = serve_checks(w, &s, &replies, rep)?;
    let program_trace = s.server.recorder().chrome_trace_json();

    let bank = serve::offline_profile(w, &s.ops, &replies);
    let build: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            black_box(bank.mrc());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    v.put("mrc.build_ms", median(&build) / 1e6);
    v.put("footprint.total_bytes", view.model_bytes);

    let gets: Vec<(u64, u32, u64)> = s
        .ops
        .iter()
        .filter(|r| r.op == Op::Get)
        .map(|r| (r.key, r.size.max(1), krr_core::hashing::hash_key(r.key)))
        .collect();
    pipeline_probe(w, &gets, spans, v);
    common_probes(w, &gets, &s.ops, args.seed, spans, v);
    serve_values(v, &b);
    let (ga, gb) = (a.sorted(true), b.sorted(true));
    v.put(
        "trace.overhead_pct",
        (pct(&gb, 0.5) as f64 / pct(&ga, 0.5).max(1) as f64 - 1.0) * 100.0,
    );
    // What the store and the codec explain of the untraced GET p50; the
    // rest is the network, the server thread and the client.
    let inside = v.get("store.get_ns_p50") + v.get("resp.parse_ns") + v.get("resp.encode_ns");
    v.put("accounting.coverage", inside / pct(&ga, 0.5).max(1) as f64);
    Ok(program_trace)
}

/// Probes every workload runs: hashing, sampling, stack, sizeArray, RESP
/// and store, the last two over `ops`. Returns how many of `refs` the
/// workload's spatial filter admits.
fn common_probes(
    w: &Workload,
    refs: &[(u64, u32, u64)],
    ops: &[Request],
    seed: u64,
    spans: &mut Spans,
    v: &mut Values,
) -> f64 {
    let id = spans.begin("hashing", 0);
    let keys: Vec<u64> = refs.iter().map(|r| r.0).collect();
    let ns = repeat_ns(|| {
        let mut acc = 0u64;
        for c in keys.chunks_exact(8) {
            let h = hash_keys8(c.try_into().expect("chunk of 8"));
            acc ^= h.iter().fold(0, |a, x| a ^ x);
        }
        black_box(acc);
        keys.len() / 8 * 8
    });
    v.put("hashing.ns_per_key", ns);
    spans.end(id);

    let id = spans.begin("sampling", 0);
    let filter = filter(w);
    let hashes: Vec<u64> = refs.iter().map(|r| r.2).collect();
    let mut admitted = 0;
    let ns = repeat_ns(|| {
        admitted = 0;
        for c in hashes.chunks_exact(8) {
            admitted += filter
                .admits_hashed8(c.try_into().expect("chunk of 8"))
                .count_ones() as usize;
        }
        hashes.len() / 8 * 8
    });
    v.put("sampling.ns_per_ref", ns);
    let ratio = admitted as f64 / (hashes.len() / 8 * 8).max(1) as f64;
    v.put("sampling.admit_ratio", ratio);
    spans.end(id);

    let id = spans.begin("stack", 0);
    stack_probe(w, refs, &filter, v);
    spans.end(id);
    let id = spans.begin("sizearray", 0);
    sizearray_probe(w, refs, &filter, v);
    spans.end(id);
    let id = spans.begin("resp", 0);
    resp_probe(ops, v);
    spans.end(id);
    let id = spans.begin("store", 0);
    store_probe(w, ops, seed, v);
    spans.end(id);
    ratio * refs.len() as f64
}

fn filter(w: &Workload) -> SpatialFilter {
    if w.rate >= 1.0 {
        SpatialFilter::all()
    } else {
        SpatialFilter::with_rate(w.rate)
    }
}

/// Runs `f` until [`PROBE_MIN`] has passed (at least three times) and
/// returns the median nanoseconds per unit; `f` returns its unit count.
fn repeat_ns(mut f: impl FnMut() -> usize) -> f64 {
    let start = Instant::now();
    let mut per = Vec::new();
    while per.len() < 3 || start.elapsed() < PROBE_MIN {
        let t = Instant::now();
        let units = f();
        per.push(t.elapsed().as_nanos() as f64 / units.max(1) as f64);
    }
    median(&per)
}

/// `KrrStack::access` over the admitted references, one stack per shard,
/// on the fused update an untraced model uses.
fn stack_probe(w: &Workload, refs: &[(u64, u32, u64)], filter: &SpatialFilter, v: &mut Values) {
    let cfg = w.krr();
    let admitted: Vec<(u64, usize)> = refs
        .iter()
        .filter(|r| filter.admits_hashed(r.2))
        .take(STACK_PROBE_REFS)
        .map(|r| (r.0, shard_of_hash(r.2, w.shards)))
        .collect();
    let mut stacks: Vec<KrrStack> = (0..w.shards as u64)
        .map(|i| {
            let mut s = KrrStack::new(cfg.effective_k(), cfg.updater, cfg.seed ^ i);
            s.set_record_chain(false);
            s.set_record_chain_sizes(false);
            s
        })
        .collect();
    let mut depths = Vec::with_capacity(admitted.len());
    let t = Instant::now();
    for &(key, shard) in &admitted {
        if let Access::Hit { phi } = stacks[shard].access(key, 1) {
            depths.push(phi);
        }
    }
    let ns = t.elapsed().as_nanos() as f64;
    let n = admitted.len().max(1) as f64;
    v.put("stack.ns_per_access", ns / n);
    v.put("stack.hit_ratio", depths.len() as f64 / n);
    depths.sort_unstable();
    v.put("stack.depth_p99", pct(&depths, 0.99) as f64);
}

/// Byte-level minus uniform `KrrModel::access` over the same admitted
/// references. The byte-level model also leaves the fused update, so this
/// is what switching to byte-level costs per reference.
fn sizearray_probe(w: &Workload, refs: &[(u64, u32, u64)], filter: &SpatialFilter, v: &mut Values) {
    let admitted: Vec<(u64, u32)> = refs
        .iter()
        .filter(|r| filter.admits_hashed(r.2))
        .take(STACK_PROBE_REFS)
        .map(|r| (r.0, r.1))
        .collect();
    let time = |cfg: KrrConfig| {
        let mut m = KrrModel::new(cfg);
        let t = Instant::now();
        for &(k, s) in &admitted {
            m.access(k, s);
        }
        black_box(m.stats());
        t.elapsed().as_nanos() as f64
    };
    let uniform = time(KrrConfig::new(w.k));
    let bytes = time(KrrConfig::new(w.k).byte_level(2, BYTE_BIN));
    v.put(
        "sizearray.ns_per_ref",
        (bytes - uniform) / admitted.len().max(1) as f64,
    );
}

/// `write_value` and `read_value` over the RESP commands of `ops`.
fn resp_probe(ops: &[Request], v: &mut Values) {
    let cmds = serve::commands(ops);
    let mut buf = Vec::new();
    let encode = repeat_ns(|| {
        buf.clear();
        for c in &cmds {
            write_value(&mut buf, c).expect("writing to a Vec cannot fail");
        }
        cmds.len()
    });
    let parse = repeat_ns(|| {
        let mut rd: &[u8] = &buf;
        for _ in &cmds {
            black_box(read_value(&mut rd).expect("reads back what was written"));
        }
        cmds.len()
    });
    v.put("resp.encode_ns", encode);
    v.put("resp.parse_ns", parse);
}

/// One in-process replay of `ops` against a prefilled store.
struct StoreRun {
    /// Per-call times, ascending.
    get_ns: Vec<u64>,
    set_ns: Vec<u64>,
    hits: u64,
    evictions: u64,
    /// Median time of the work an expo refresh does (footprint publish
    /// plus a full MRC build), called directly after the replay.
    refresh_ns: f64,
    snapshot: MetricsSnapshot,
}

fn store_run(w: &Workload, ops: &[Request], seed: u64, profile: bool) -> StoreRun {
    let mut s = serve::with_refresh(serve::store(w, ops, seed, profile));
    serve::prefill_local(&mut s, ops);
    let ev0 = s.stats().evictions;
    let (mut get_ns, mut set_ns) = (Vec::with_capacity(ops.len()), Vec::new());
    let mut hits = 0;
    for op in ops {
        let t = Instant::now();
        match op.op {
            Op::Get => {
                hits += u64::from(s.get(op.key));
                get_ns.push(t.elapsed().as_nanos() as u64);
            }
            Op::Set => {
                s.set(op.key, op.size.max(1));
                set_ns.push(t.elapsed().as_nanos() as u64);
            }
        }
    }
    get_ns.sort_unstable();
    set_ns.sort_unstable();
    let refresh: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            s.publish_footprint();
            black_box(s.mrc_profile());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    StoreRun {
        get_ns,
        set_ns,
        hits,
        evictions: s.stats().evictions - ev0,
        refresh_ns: median(&refresh),
        snapshot: s.metrics().snapshot(),
    }
}

fn mean(v: &[u64]) -> f64 {
    v.iter().sum::<u64>() as f64 / v.len().max(1) as f64
}

/// The store's GET and SET paths, timed per call in-process, profiling on
/// and off. A GET whose tick is a multiple of `EXPO_REFRESH_EVERY` also
/// pays the expo refresh; `store.refresh_ns` times that work directly.
fn store_probe(w: &Workload, ops: &[Request], seed: u64, v: &mut Values) {
    let on = store_run(w, ops, seed, true);
    let off = store_run(w, ops, seed, false);
    let (gets, sets) = (on.get_ns.len() as f64, on.set_ns.len() as f64);
    v.put("store.get_ns_p50", pct(&on.get_ns, 0.5) as f64);
    v.put("store.get_ns_p999", pct(&on.get_ns, 0.999) as f64);
    v.put("store.set_ns_p50", pct(&on.set_ns, 0.5) as f64);
    v.put("store.set_ns_p99", pct(&on.set_ns, 0.99) as f64);
    v.put(
        "store.profile_ns_per_get",
        mean(&on.get_ns) - mean(&off.get_ns),
    );
    v.put("store.refresh_ns", on.refresh_ns);
    v.put(
        "store.evictions_per_set",
        on.evictions as f64 / sets.max(1.0),
    );
    v.put("store.hit_ratio", on.hits as f64 / gets.max(1.0));
    if w.kind == Kind::Serve {
        // The in-band profiler is the only writer of these histograms.
        v.put("stack.chain_len_mean", on.snapshot.chain_len.mean());
        v.put(
            "stack.positions_scanned_mean",
            on.snapshot.positions_scanned.mean(),
        );
    }
}

/// `ProfPhase::RingWait` time over all router and worker phase time.
#[derive(Default)]
struct RingWait {
    wait_ns: u64,
    total_ns: u64,
}

impl RingWait {
    fn add(&mut self, rec: &FlightRecorder) {
        for t in rec.profiler().thread_totals() {
            if t.label.starts_with("router") || t.label.starts_with("worker") {
                self.wait_ns += t.ns[ProfPhase::RingWait as usize];
                self.total_ns += t.ns.iter().sum::<u64>();
            }
        }
    }

    fn share(&self) -> f64 {
        self.wait_ns as f64 / self.total_ns.max(1) as f64
    }
}

/// Pipeline counters per `process_stream` pass.
fn pipeline_values(v: &mut Values, s: &MetricsSnapshot, ring: &RingWait, passes: f64) {
    v.put(
        "pipeline.router_busy_ns",
        s.pipeline_router_busy_ns as f64 / passes,
    );
    v.put(
        "pipeline.worker_busy_ns",
        s.pipeline_worker_busy_ns as f64 / passes,
    );
    v.put("pipeline.batches", s.pipeline_batches as f64 / passes);
    v.put("pipeline.router_stalls", s.pipeline_stalls as f64 / passes);
    v.put(
        "pipeline.router_parks",
        s.pipeline_router_parks as f64 / passes,
    );
    v.put(
        "pipeline.worker_parks",
        s.pipeline_worker_parks as f64 / passes,
    );
    v.put("pipeline.ring_wait_share", ring.share());
}

/// For workloads whose path has no pipeline: one instrumented
/// `process_stream` over the first references with the workload's model.
fn pipeline_probe(w: &Workload, refs: &[(u64, u32, u64)], spans: &mut Spans, v: &mut Values) {
    let id = spans.begin("pipeline", 0);
    let reg = Arc::new(MetricsRegistry::new());
    let rec = Arc::new(FlightRecorder::with_capacity(RING_EVENTS));
    let mut bank = ShardedKrr::new(&w.krr(), w.shards);
    bank.set_metrics(Arc::clone(&reg));
    bank.set_recorder(Arc::clone(&rec));
    let n = refs.len().min(PIPE_PROBE_REFS);
    bank.process_stream(refs[..n].iter().map(|&(k, s, _)| (k, s)), 1);
    let mut ring = RingWait::default();
    ring.add(&rec);
    pipeline_values(v, &reg.snapshot(), &ring, 1.0);
    spans.end(id);
}

/// Server-side figures of a traced drive: what the server adds to a GET
/// beyond store and codec time, and how late the generator sent.
fn serve_values(v: &mut Values, d: &Drive) {
    let (gets, sets) = (d.sorted(true), d.sorted(false));
    v.put("serve.get_p50_us", pct(&gets, 0.5) as f64 / 1e3);
    v.put("serve.get_p99_us", pct(&gets, 0.99) as f64 / 1e3);
    v.put("serve.set_p50_us", pct(&sets, 0.5) as f64 / 1e3);
    v.put("serve.set_p99_us", pct(&sets, 0.99) as f64 / 1e3);
    let inside = v.get("store.get_ns_p50") + v.get("resp.parse_ns") + v.get("resp.encode_ns");
    v.put(
        "server.overhead_us_p50",
        (pct(&gets, 0.5) as f64 - inside) / 1e3,
    );
    let mut late = d.late_ns.clone();
    late.sort_unstable();
    v.put("load.late_p99_us", pct(&late, 0.99) as f64 / 1e3);
}
