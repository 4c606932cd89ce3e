//! `krr` — command-line front end for the KRR toolkit.
//!
//! ```text
//! krr generate --workload msr:web --requests 1000000 --out trace.csv
//! krr stats trace.csv
//! krr model --k 5 --rate 0.01 trace.csv        # one-pass KRR MRC
//! krr simulate --policy klru:5 --sizes 25 trace.csv
//! krr compare --k 5 trace.csv                  # KRR vs ground truth
//! ```
//!
//! Workload specs: `msr:<name>` (web, src1, …), `ycsb-c:<alpha>`,
//! `ycsb-e:<alpha>`, `twitter:<cluster>` (26.0, 34.1, 45.0, 52.7),
//! `zipf:<alpha>:<keys>`, `loop:<len>`.

use krr::prelude::*;
use krr::trace::{io as trace_io, msr, patterns, twitter, ycsb};
use std::io::{BufReader, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "generate" => cmd_generate(rest),
        "stats" => cmd_stats(rest),
        "model" => cmd_model(rest),
        "simulate" => cmd_simulate(rest),
        "compare" => cmd_compare(rest),
        "analyze" => cmd_analyze(rest),
        "plot" => cmd_plot(rest),
        "partition" => cmd_partition(rest),
        "load" => cmd_load(rest),
        "doctor" => cmd_doctor(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
krr — miss ratio curves for random sampling-based LRU caches

USAGE:
  krr generate --workload <spec> [--requests N] [--scale S] [--seed X]
               [--var-size] [--out FILE]
  krr stats <trace.csv>
  krr model [--k K] [--rate R] [--updater backward|topdown|naive]
            [--bytes] [--seed X] [--shards S] [--threads T] [--metrics]
            [--metrics-out FILE] [--trace-out FILE]
            [--stats-every N] [--stats-out FILE]
            [--checkpoint-every N] [--checkpoint-out FILE]
            [--resume FILE] [--serve ADDR] [--serve-hold SECS]
            [--tenants N] [--budget B] [--mrc-out DIR]
            (<trace.csv> | --workload <spec> ...)
            (--trace-out dumps a Chrome trace for ui.perfetto.dev,
             --stats-every/--stats-out emit a krr-stats-v1 JSONL
             timeline of windowed metric deltas;
             --checkpoint-out writes an atomic krr-ckpt-v1 checkpoint
             every --checkpoint-every refs (default 1000000), and
             --resume restores one and finishes the same trace file
             with bit-identical results;
             --serve binds a live exposition HTTP server, e.g.
             127.0.0.1:9184, answering /metrics /mrc /stats /trace
             /healthz while the run is in flight; --serve-hold keeps
             it up SECS seconds after the run so short traces can
             still be scraped (default 0: shut down immediately);
             --tenants N switches to fleet mode: the trace splits into
             N tenants by key % N, each profiled by its own KRR model;
             stdout becomes a per-tenant summary (miss ratio at
             --budget, default 4096 objects), --mrc-out writes one
             tenant-<id>.csv per tenant, and --serve additionally
             answers /tenants and /mrc?tenant=ID)
  krr simulate [--policy lru|klru:K|klfu:K] [--sizes N] [--bytes]
               (<trace.csv> | --workload <spec> ...)
  krr compare [--k K] [--sizes N] (<trace.csv> | --workload <spec> ...)
  krr analyze (<trace.csv> | --workload <spec> ...)
  krr plot [--width W] [--height H] <mrc.csv> [<mrc.csv> ...]
  krr partition --budget B [--quantum Q]
                (<mrc.csv> [<mrc.csv> ...] | --live HOST:PORT)
                (--live scrapes a running exposition server's
                 /tenants?format=csv and each /mrc?tenant=ID&format=csv
                 and partitions the live fleet instead of trace files)
  krr load [--qps Q] [--arrival constant|poisson|ramp|burst] [--seed X]
           [--connections C] [--pipeline D] [--addr HOST:PORT] [--ab]
           [--maxmemory BYTES] [--samples S] [--no-prefill] [--json FILE]
           [--tenants N]
           (<trace.csv> | --workload <spec> [--requests N] ...)
           (open-loop RESP load run against mini-Redis: every arrival
            time is fixed up front from --qps/--arrival/--seed, so a
            slow server inflates the measured tail instead of thinning
            the load; without --addr an embedded server is started;
            --tenants N makes connection c TENANT-select tenant c%N
            during setup, and an embedded server profiles each tenant
            in a fleet arena;
            --ab replays the identical schedule twice — MRC profiling
            plus live /metrics scraping off, then on — and reports the
            p99 delta and a krr doctor diagnosis of the profiled side;
            --json writes the krr-load-v1 report)
  krr doctor (--live HOST:PORT | --offline [DIR]
              | --metrics-in FILE [--exemplars FILE])
             [--json FILE]
             (counter-signature diagnosis from docs/PERFORMANCE.md as
              machine-checked rules; --live scrapes a running exposition
              server's /metrics?format=json and /exemplars, --offline
              validates every BENCH_*.json and krr-*-v1 artifact under
              DIR (default .) against its schema, --metrics-in/--exemplars
              read dumped artifacts; --json writes the krr-doctor-v1 report;
              exit status is nonzero when an --offline artifact fails
              schema validation — diagnoses themselves are advisory)

WORKLOAD SPECS:
  msr:<web|src1|src2|proj|usr|hm|rsrch|mds|prn|prxy|stg|ts|wdev>
  ycsb-c:<alpha>   ycsb-e:<alpha>   twitter:<26.0|34.1|45.0|52.7>
  zipf:<alpha>:<keys>   loop:<len>";

/// Minimal flag parser: `--name value` pairs plus positional arguments.
struct Flags {
    pairs: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if name == "var-size"
                    || name == "bytes"
                    || name == "metrics"
                    || name == "ab"
                    || name == "no-prefill"
                    || name == "offline"
                {
                    pairs.push((name.to_string(), "true".to_string()));
                } else {
                    let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    pairs.push((name.to_string(), v.clone()));
                }
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Self { pairs, positional })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse {v:?}")),
        }
    }

    fn flag(&self, name: &str) -> bool {
        self.get(name).is_some()
    }
}

fn build_workload(
    spec: &str,
    n: usize,
    seed: u64,
    scale: f64,
    var_size: bool,
) -> Result<Trace, String> {
    let (kind, arg) = spec
        .split_once(':')
        .ok_or_else(|| format!("bad workload spec {spec:?}"))?;
    match kind {
        "msr" => {
            let t = msr::MsrTrace::ALL
                .iter()
                .find(|t| t.name() == arg)
                .ok_or_else(|| format!("unknown MSR trace {arg:?}"))?;
            let p = msr::profile(*t);
            Ok(if var_size {
                p.generate_var_size(n, seed, scale)
            } else {
                p.generate(n, seed, scale)
            })
        }
        "ycsb-c" => {
            let alpha: f64 = arg.parse().map_err(|_| format!("bad alpha {arg:?}"))?;
            let records = ((1_000_000.0 * scale) as u64).max(1_000);
            Ok(ycsb::WorkloadC::new(records, alpha).generate(n, seed))
        }
        "ycsb-e" => {
            let alpha: f64 = arg.parse().map_err(|_| format!("bad alpha {arg:?}"))?;
            let records = ((100_000.0 * scale) as u64).max(500);
            let mut t = ycsb::WorkloadE::new(records, alpha).generate(n, seed);
            t.truncate(n);
            Ok(t)
        }
        "twitter" => {
            let c = twitter::TwitterCluster::ALL
                .iter()
                .find(|c| c.name().trim_start_matches("cluster") == arg)
                .ok_or_else(|| format!("unknown Twitter cluster {arg:?}"))?;
            Ok(twitter::profile(*c).generate(n, seed, scale, var_size))
        }
        "zipf" => {
            let (alpha, keys) = arg
                .split_once(':')
                .ok_or_else(|| "zipf spec is zipf:<alpha>:<keys>".to_string())?;
            let alpha: f64 = alpha.parse().map_err(|_| format!("bad alpha {alpha:?}"))?;
            let keys: u64 = keys
                .parse()
                .map_err(|_| format!("bad key count {keys:?}"))?;
            Ok(ycsb::WorkloadC::new(keys, alpha).generate(n, seed))
        }
        "loop" => {
            let len: u64 = arg
                .parse()
                .map_err(|_| format!("bad loop length {arg:?}"))?;
            Ok(patterns::loop_trace(len, n))
        }
        other => Err(format!("unknown workload kind {other:?}")),
    }
}

/// Loads the trace from a positional CSV path or synthesizes from flags.
fn load_trace(f: &Flags) -> Result<Trace, String> {
    if let Some(path) = f.positional.first() {
        let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
        return trace_io::read_csv(BufReader::new(file)).map_err(|e| e.to_string());
    }
    let spec = f
        .get("workload")
        .ok_or("need a trace file or --workload <spec>")?;
    build_workload(
        spec,
        f.num("requests", 400_000usize)?,
        f.num("seed", 42u64)?,
        f.num("scale", 0.1f64)?,
        f.flag("var-size"),
    )
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(args)?;
    let spec = f.get("workload").ok_or("--workload <spec> is required")?;
    let trace = build_workload(
        spec,
        f.num("requests", 400_000usize)?,
        f.num("seed", 42u64)?,
        f.num("scale", 0.1f64)?,
        f.flag("var-size"),
    )?;
    match f.get("out") {
        Some(path) => {
            let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
            trace_io::write_csv(std::io::BufWriter::new(file), &trace)
                .map_err(|e| e.to_string())?;
            eprintln!("wrote {} requests to {path}", trace.len());
        }
        None => {
            trace_io::write_csv(std::io::stdout().lock(), &trace).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(args)?;
    let trace = load_trace(&f)?;
    let s = krr::trace::stats(&trace);
    println!("requests:           {}", s.requests);
    println!("distinct objects:   {}", s.distinct);
    println!("working set bytes:  {}", s.working_set_bytes);
    println!("set fraction:       {:.4}", s.set_fraction);
    Ok(())
}

fn cmd_model(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(args)?;
    let k: f64 = f.num("k", 5.0)?;
    let rate: f64 = f.num("rate", 1.0)?;
    let updater = match f.get("updater").unwrap_or("backward") {
        "backward" => UpdaterKind::Backward,
        "topdown" | "top-down" => UpdaterKind::TopDown,
        "naive" => UpdaterKind::Naive,
        other => return Err(format!("unknown updater {other:?}")),
    };
    let mut cfg = KrrConfig::new(k)
        .updater(updater)
        .seed(f.num("seed", 1u64)?);
    if rate < 1.0 {
        cfg = cfg.sampling(rate);
    }
    if f.flag("bytes") {
        cfg = cfg.byte_level(2, 4096);
    }
    let tenants: u64 = f.num("tenants", 0u64)?;
    if tenants > 0 {
        return cmd_model_fleet(&f, cfg, tenants);
    }
    let shards: usize = f.num("shards", 1usize)?;
    if shards == 0 {
        return Err("--shards must be >= 1".into());
    }
    let threads = threads_flag(&f)?;
    let ckpt_out = f.get("checkpoint-out").map(str::to_string);
    let mut ckpt_every: u64 = f.num("checkpoint-every", 0u64)?;
    if ckpt_out.is_some() && ckpt_every == 0 {
        ckpt_every = 1_000_000;
    }
    if ckpt_every > 0 && ckpt_out.is_none() {
        return Err("--checkpoint-every needs --checkpoint-out <file>".into());
    }
    let resume_path = f.get("resume").map(str::to_string);
    if (ckpt_every > 0 || resume_path.is_some()) && f.positional.is_empty() {
        return Err(
            "checkpointing needs a positional trace file (resume offsets refer to it)".into(),
        );
    }
    // Open the checkpoint before any observability is wired up: restored
    // metrics must land in the registry before the stats timeline takes
    // its first snapshot.
    let ckpt = match &resume_path {
        Some(path) => {
            Some(krr::core::CheckpointReader::open(path).map_err(|e| format!("{path}: {e}"))?)
        }
        None => None,
    };
    let trace_out = f.get("trace-out").map(str::to_string);
    let stats_out = f.get("stats-out").map(str::to_string);
    let mut stats_every: u64 = f.num("stats-every", 0u64)?;
    if stats_out.is_some() && stats_every == 0 {
        stats_every = 100_000;
    }
    let serve_addr = f.get("serve").map(str::to_string);
    let want_metrics = f.flag("metrics")
        || f.get("metrics-out").is_some()
        || stats_every > 0
        || serve_addr.is_some();
    let registry = want_metrics.then(|| std::sync::Arc::new(krr::core::MetricsRegistry::new()));
    let mrc_cell = serve_addr
        .as_ref()
        .map(|_| std::sync::Arc::new(krr::core::MrcCell::new()));
    let stats_ring = serve_addr
        .as_ref()
        .map(|_| std::sync::Arc::new(krr::core::StatsRing::new()));
    let recorder = trace_out
        .as_ref()
        .map(|_| std::sync::Arc::new(krr::core::FlightRecorder::new()));
    if let (Some(ckpt), Some(reg)) = (&ckpt, &registry) {
        if let Some(mut dec) = ckpt.section(krr::core::checkpoint::SECTION_METRICS) {
            let snap = krr::core::MetricsSnapshot::load_state(&mut dec)
                .map_err(|e| format!("resume metrics: {e}"))?;
            reg.absorb(&snap);
        }
    }
    // (seen refs, trace byte offset, trace line number, stats rows written).
    let resume_state = match &ckpt {
        Some(ckpt) => {
            let mut dec = ckpt
                .require(krr::core::checkpoint::SECTION_STREAM)
                .map_err(|e| format!("resume: {e}"))?;
            Some(read_stream_state(&mut dec).map_err(|e| format!("resume stream state: {e}"))?)
        }
        None => None,
    };
    let mut timeline: Option<krr::core::StatsTimeline<Box<dyn Write>>> = if stats_every > 0 {
        let reg = registry.as_ref().expect("stats imply a registry");
        let out: Box<dyn Write> = match &stats_out {
            Some(path) => {
                // On resume, append: the previous run's rows stay and the
                // timeline continues where the checkpoint left off.
                let file = if resume_path.is_some() {
                    std::fs::OpenOptions::new()
                        .append(true)
                        .create(true)
                        .open(path)
                } else {
                    std::fs::File::create(path)
                }
                .map_err(|e| format!("{path}: {e}"))?;
                Box::new(std::io::BufWriter::new(file))
            }
            None => Box::new(std::io::stderr()),
        };
        // Tee the JSONL rows into the /stats ring when serving.
        let out: Box<dyn Write> = match &stats_ring {
            Some(ring) => Box::new(krr::core::expo::RingWriter::new(
                Some(out),
                std::sync::Arc::clone(ring),
            )),
            None => out,
        };
        Some(krr::core::StatsTimeline::new(
            std::sync::Arc::clone(reg),
            out,
            stats_every,
        ))
    } else {
        None
    };
    if let (Some((seen0, _, _, rows)), Some(t)) = (resume_state, timeline.as_mut()) {
        t.resume_at(seen0, rows);
    }
    // Start serving only after any checkpoint restore has been absorbed, so
    // the first scrape of a resumed run already sees the restored counters
    // (and a fresh process after a crash simply rebinds the address).
    let expo = match &serve_addr {
        Some(addr) => {
            let sources = krr::core::ExpoSources {
                metrics: registry.clone(),
                mrc: mrc_cell.clone(),
                stats: stats_ring.clone(),
                trace: recorder.clone(),
                tenants: None,
                exemplars: None,
                profiler: recorder
                    .as_ref()
                    .map(|r| std::sync::Arc::clone(r.profiler())),
            };
            let srv = krr::core::ExpoServer::start(addr.as_str(), sources)
                .map_err(|e| format!("--serve {addr}: {e}"))?;
            eprintln!("serving live metrics on http://{}/metrics", srv.addr());
            Some(srv)
        }
        None => None,
    };
    // References seen so far; drives the stats timeline windows.
    let mut seen: u64 = resume_state.map_or(0, |(s, _, _, _)| s);
    let mut stats_err: Option<std::io::Error> = None;
    let t0 = std::time::Instant::now();
    let mut bank = match &ckpt {
        Some(ckpt) => {
            let mut dec = ckpt
                .require(krr::core::checkpoint::SECTION_SHARDED)
                .map_err(|e| format!("resume: {e}"))?;
            let bank = krr::core::sharded::ShardedKrr::load_state(&mut dec)
                .map_err(|e| format!("resume: {e}"))?;
            eprintln!(
                "resumed at {seen} refs ({} shards; model flags come from the checkpoint)",
                bank.num_shards()
            );
            bank
        }
        None => krr::core::sharded::ShardedKrr::new(&cfg, shards),
    };
    if let Some(reg) = &registry {
        bank.set_metrics(std::sync::Arc::clone(reg));
    }
    if let Some(rec) = &recorder {
        bank.set_recorder(std::sync::Arc::clone(rec));
    }
    // The trace is never materialized from a file, so file size doesn't
    // bound memory. On resume, seek past the prefix the checkpoint covers.
    let mut refs = Refs::open(
        &f,
        resume_state.map(|(_, off, lineno, _)| (off, lineno)),
        recorder.as_deref(),
    )?;
    // Drain --checkpoint-every refs per pipeline run (all of them when not
    // checkpointing), then write an atomic checkpoint at the batch
    // boundary. Chunk boundaries don't change results: per-shard order is
    // global arrival order either way.
    let chunk = if ckpt_every > 0 { ckpt_every } else { u64::MAX };
    loop {
        let before = seen;
        let mut read_err = None;
        let batch = (&mut refs)
            .map_while(|res| match res {
                Ok(r) => Some((r.key, r.size)),
                Err(e) => {
                    read_err = Some(e);
                    None
                }
            })
            .inspect(|_| {
                seen += 1;
                if let Some(t) = timeline.as_mut() {
                    if let Err(e) = t.offer(seen) {
                        stats_err.get_or_insert(e);
                    }
                }
            })
            .take(usize::try_from(chunk).unwrap_or(usize::MAX));
        bank.process_stream(batch, threads);
        if let Some(e) = read_err {
            return Err(e.to_string());
        }
        // Chunk boundary: refresh the live /mrc view.
        if let Some(cell) = &mrc_cell {
            cell.publish(bank.mrc());
        }
        let advanced = seen - before;
        if let (Some(out), Refs::File(stream)) = (&ckpt_out, &refs) {
            if advanced > 0 {
                write_model_checkpoint(
                    out,
                    &bank,
                    registry.as_deref(),
                    seen,
                    stream.byte_offset(),
                    stream.lineno() as u64,
                    timeline.as_ref().map_or(0, |t| t.rows()),
                )?;
            }
        }
        if advanced < chunk {
            break;
        }
    }
    let (mrc, st) = (bank.mrc(), bank.stats());
    if let Some(t) = timeline.as_mut() {
        if let Err(e) = t.finish(seen) {
            stats_err.get_or_insert(e);
        }
    }
    if let Some(e) = stats_err {
        return Err(format!("stats timeline: {e}"));
    }
    let elapsed = t0.elapsed();
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    let _ = writeln!(out, "cache_size,miss_ratio");
    // Downsample evenly to at most 2000 points so huge histograms stay
    // plottable without chopping the tail off the curve.
    let pts: Vec<(f64, f64)> = mrc
        .points()
        .iter()
        .copied()
        .filter(|&(x, _)| x > 0.0)
        .collect();
    let step = (pts.len() / 2_000).max(1);
    for (i, &(x, y)) in pts.iter().enumerate() {
        if i % step != 0 && i != pts.len() - 1 {
            continue;
        }
        // Ignore EPIPE so `krr model ... | head` exits cleanly.
        if writeln!(out, "{x:.0},{y:.5}").is_err() {
            break;
        }
    }
    drop(out);
    eprintln!(
        "processed {} refs ({} sampled, {} distinct) in {elapsed:?}",
        st.processed, st.sampled, st.distinct
    );
    if let Some(t) = &timeline {
        if let Some(path) = &stats_out {
            eprintln!("wrote {} stats rows to {path}", t.rows());
        }
    }
    if let (Some(path), Some(rec)) = (&trace_out, &recorder) {
        let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
        rec.write_chrome_trace(std::io::BufWriter::new(file))
            .map_err(|e| e.to_string())?;
        eprintln!("wrote Chrome trace to {path} (open it in ui.perfetto.dev)");
    }
    finish_run(&f, registry.as_deref(), expo)
}

/// Where `krr model` reads references from: the positional trace file,
/// streamed line by line, or a `--workload` generated in memory.
enum Refs {
    File(trace_io::CsvStream<BufReader<std::fs::File>>),
    Generated(std::vec::IntoIter<Request>),
}

impl Refs {
    /// Opens the trace file (at `resume`'s byte offset and line number,
    /// when given), or else generates the `--workload`. A recorder gets
    /// the file reader's stalls on a `csv-reader` ring.
    fn open(
        f: &Flags,
        resume: Option<(u64, u64)>,
        recorder: Option<&krr::core::FlightRecorder>,
    ) -> Result<Self, String> {
        let Some(path) = f.positional.first() else {
            return Ok(Refs::Generated(load_trace(f)?.into_iter()));
        };
        let mut stream = match resume {
            Some((off, lineno)) => trace_io::CsvStream::open_at(path, off, lineno as usize),
            None => trace_io::CsvStream::open(path),
        }
        .map_err(|e| format!("{path}: {e}"))?;
        if let Some(rec) = recorder {
            stream = stream.with_recorder(rec.register("csv-reader"), 0);
        }
        Ok(Refs::File(stream))
    }
}

impl Iterator for Refs {
    type Item = std::io::Result<Request>;

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            Refs::File(stream) => stream.next(),
            Refs::Generated(trace) => trace.next().map(Ok),
        }
    }
}

/// `--threads T`: pipeline workers, by default one per available core.
fn threads_flag(f: &Flags) -> Result<usize, String> {
    let default_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let threads: usize = f.num("threads", default_threads)?;
    if threads == 0 {
        return Err("--threads must be >= 1".into());
    }
    Ok(threads)
}

/// The tail of every `krr model` run: the `--metrics` / `--metrics-out`
/// snapshot, `--serve-hold`, then the exposition server's shutdown.
fn finish_run(
    f: &Flags,
    registry: Option<&krr::core::MetricsRegistry>,
    expo: Option<krr::core::ExpoServer>,
) -> Result<(), String> {
    if let Some(reg) = registry {
        let snap = reg.snapshot();
        if f.flag("metrics") {
            eprintln!("{}", snap.render_info());
        }
        if let Some(path) = f.get("metrics-out") {
            let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
            krr::core::persist::write_metrics_json(std::io::BufWriter::new(file), &snap)
                .map_err(|e| e.to_string())?;
            eprintln!("wrote metrics snapshot to {path}");
        }
    }
    // A fast run tears the server down before anything can scrape it, so
    // `--serve-hold SECS` optionally keeps it up after the trace ends.
    if let Some(raw) = f.get("serve-hold") {
        let secs: u64 = raw
            .parse()
            .map_err(|_| format!("--serve-hold {raw}: expected seconds"))?;
        if expo.is_none() {
            return Err("--serve-hold needs --serve".into());
        }
        if secs > 0 {
            eprintln!("holding the exposition server for {secs}s");
            std::thread::sleep(std::time::Duration::from_secs(secs));
        }
    }
    // Explicit shutdown (Drop would too) so the listener thread is joined
    // and the port released before the process reports success.
    if let Some(mut srv) = expo {
        srv.shutdown();
    }
    Ok(())
}

/// References per fleet-mode pipeline run: a live scraper watches the
/// fleet converge at this cadence, and it bounds the buffered chunk.
const FLEET_CHUNK: usize = 1_000_000;

/// `krr model --tenants N`: fleet mode. The trace is split into `N`
/// synthetic tenants by `key % N` (a stand-in for real tenant tags) and
/// profiled by a [`krr::core::FleetArena`] — one KRR model per tenant,
/// routed through the shared pipeline in one pass. Stdout is a per-tenant
/// summary CSV; `--mrc-out DIR` writes each tenant's MRC as
/// `tenant-<id>.csv` (the files `krr partition` consumes), and `--serve`
/// exposes `/tenants` + `/mrc?tenant=ID` live while the run is in flight
/// (`--serve-hold SECS` keeps the server up after it).
fn cmd_model_fleet(f: &Flags, cfg: KrrConfig, tenants: u64) -> Result<(), String> {
    use krr::core::fleet::{FleetArena, FleetCell, FleetConfig};
    let mut refs = Refs::open(f, None, None)?;
    let threads = threads_flag(f)?;
    let budget: f64 = f.num("budget", 4096.0f64)?;
    if budget <= 0.0 || budget.is_nan() {
        return Err("--budget must be positive".into());
    }
    let serve_addr = f.get("serve").map(str::to_string);
    let want_metrics = f.flag("metrics") || f.get("metrics-out").is_some() || serve_addr.is_some();
    let registry = want_metrics.then(|| std::sync::Arc::new(krr::core::MetricsRegistry::new()));
    let mut arena = FleetArena::new(FleetConfig::new(cfg).budget(budget));
    if let Some(reg) = &registry {
        arena.set_metrics(std::sync::Arc::clone(reg));
    }
    let cell = serve_addr
        .as_ref()
        .map(|_| std::sync::Arc::new(FleetCell::new()));
    let expo = match &serve_addr {
        Some(addr) => {
            let sources = krr::core::ExpoSources {
                metrics: registry.clone(),
                tenants: cell.clone(),
                ..krr::core::ExpoSources::default()
            };
            let srv = krr::core::ExpoServer::start(addr.as_str(), sources)
                .map_err(|e| format!("--serve {addr}: {e}"))?;
            eprintln!("serving the fleet on http://{}/tenants", srv.addr());
            Some(srv)
        }
        None => None,
    };
    let t0 = std::time::Instant::now();
    let mut chunk: Vec<(u64, u64, u32)> = Vec::with_capacity(FLEET_CHUNK);
    loop {
        chunk.clear();
        for r in (&mut refs).take(FLEET_CHUNK) {
            let r = r.map_err(|e| e.to_string())?;
            chunk.push((r.key % tenants, r.key, r.size));
        }
        arena.process_parallel(&chunk, threads);
        if let Some(cell) = &cell {
            cell.publish(arena.view());
        }
        if chunk.len() < FLEET_CHUNK {
            break;
        }
    }
    let elapsed = t0.elapsed();
    if let Some(dir) = f.get("mrc-out") {
        std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
        let mut ids = arena.tenant_ids();
        ids.sort_unstable();
        for &id in &ids {
            let mrc = arena.tenant_mrc(id).expect("registered tenant has an MRC");
            let path = format!("{dir}/tenant-{id}.csv");
            let file = std::fs::File::create(&path).map_err(|e| format!("{path}: {e}"))?;
            krr::core::persist::write_mrc(std::io::BufWriter::new(file), &mrc)
                .map_err(|e| format!("{path}: {e}"))?;
        }
        eprintln!("wrote {} per-tenant MRCs to {dir}/", ids.len());
    }
    let mut rows = arena.summary();
    rows.sort_unstable_by_key(|r| r.id);
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    let _ = writeln!(
        out,
        "tenant,refs,resident,resident_bytes,miss_ratio_at_budget"
    );
    for r in &rows {
        if writeln!(
            out,
            "{},{},{},{},{:.5}",
            r.id,
            r.refs,
            r.resident,
            r.resident_bytes,
            r.miss_ratio_ppm as f64 / 1e6
        )
        .is_err()
        {
            break;
        }
    }
    drop(out);
    let st = arena.stats();
    eprintln!(
        "processed {} refs across {} tenants ({} sampled, {} distinct) in {elapsed:?}",
        st.processed,
        arena.len(),
        st.sampled,
        st.distinct
    );
    finish_run(f, registry.as_deref(), expo)
}

/// Decodes the `STRM` section: (seen refs, byte offset, line number,
/// stats rows written).
fn read_stream_state(
    dec: &mut krr::core::checkpoint::Dec<'_>,
) -> std::io::Result<(u64, u64, u64, u64)> {
    Ok((dec.u64()?, dec.u64()?, dec.u64()?, dec.u64()?))
}

/// Writes one atomic `krr model` checkpoint: profiler bank (`SHRD`),
/// metrics snapshot (`METR`, when metrics are on) and stream position
/// (`STRM`).
fn write_model_checkpoint(
    path: &str,
    bank: &krr::core::sharded::ShardedKrr,
    registry: Option<&krr::core::MetricsRegistry>,
    seen: u64,
    byte_offset: u64,
    lineno: u64,
    stats_rows: u64,
) -> Result<(), String> {
    use krr::core::checkpoint::{SECTION_METRICS, SECTION_SHARDED, SECTION_STREAM};
    let mut w = krr::core::CheckpointWriter::new();
    bank.save_state(w.section(SECTION_SHARDED));
    if let Some(reg) = registry {
        reg.snapshot().save_state(w.section(SECTION_METRICS));
    }
    w.section(SECTION_STREAM)
        .put_u64(seen)
        .put_u64(byte_offset)
        .put_u64(lineno)
        .put_u64(stats_rows);
    w.write_atomic(path).map_err(|e| format!("{path}: {e}"))
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(args)?;
    let trace = load_trace(&f)?;
    let n_sizes: usize = f.num("sizes", 25)?;
    let bytes = f.flag("bytes");
    let (objects, ws_bytes) = krr::sim::working_set(&trace);
    let max = if bytes { ws_bytes } else { objects };
    let caps = even_capacities(max, n_sizes);
    let unit = if bytes { Unit::Bytes } else { Unit::Objects };
    let policy_spec = f.get("policy").unwrap_or("klru:5");
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mrc = match policy_spec {
        "lru" => simulate_mrc(&trace, Policy::ExactLru, unit, &caps, 1, threads),
        spec if spec.starts_with("klru:") => {
            let k: u32 = spec[5..]
                .parse()
                .map_err(|_| format!("bad policy {spec:?}"))?;
            simulate_mrc(&trace, Policy::klru(k), unit, &caps, 1, threads)
        }
        spec if spec.starts_with("klfu:") => {
            let k: u32 = spec[5..]
                .parse()
                .map_err(|_| format!("bad policy {spec:?}"))?;
            // No Policy variant for LFU: run each size directly.
            let mut points = vec![(0.0, 1.0)];
            for &c in &caps {
                let cap = if bytes {
                    Capacity::Bytes(c)
                } else {
                    Capacity::Objects(c)
                };
                let mut cache = KLfuCache::new(cap, k, 1);
                for r in &trace {
                    cache.access(r);
                }
                points.push((c as f64, cache.stats().miss_ratio()));
            }
            Mrc::from_points(points)
        }
        other => return Err(format!("unknown policy {other:?}")),
    };
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    let _ = writeln!(out, "cache_size,miss_ratio");
    for &(x, y) in mrc.points().iter().filter(|&&(x, _)| x > 0.0) {
        if writeln!(out, "{x:.0},{y:.5}").is_err() {
            break;
        }
    }
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(args)?;
    let trace = load_trace(&f)?;
    let k: u32 = f.num("k", 5)?;
    let n_sizes: usize = f.num("sizes", 25)?;
    let (objects, _) = krr::sim::working_set(&trace);
    let caps = even_capacities(objects, n_sizes);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let sim = simulate_mrc(&trace, Policy::klru(k), Unit::Objects, &caps, 1, threads);
    let mut model = KrrModel::new(KrrConfig::new(f64::from(k)).seed(2));
    for r in &trace {
        model.access_key(r.key);
    }
    let krr_mrc = model.mrc();
    println!("cache_size,simulated,krr,abs_err");
    let mut sum = 0.0;
    for &c in &caps {
        let a = sim.eval(c as f64);
        let b = krr_mrc.eval(c as f64);
        sum += (a - b).abs();
        println!("{c},{a:.5},{b:.5},{:.5}", (a - b).abs());
    }
    eprintln!(
        "MAE over {} sizes: {:.5}",
        caps.len(),
        sum / caps.len() as f64
    );
    Ok(())
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(args)?;
    let trace = load_trace(&f)?;
    let c = krr::trace::analyze::characterize(&trace);
    println!("requests:        {}", c.requests);
    println!("distinct keys:   {}", c.distinct);
    println!("cold fraction:   {:.4}", c.cold_fraction);
    match (c.median_reuse, c.p90_reuse) {
        (Some(m), Some(p)) => println!("reuse time:      median {m}, p90 {p}"),
        _ => println!("reuse time:      (no re-references)"),
    }
    println!("zipf exponent:   {:.2}", c.zipf_exponent);
    println!("loop signature:  {:.3}", c.loop_signature);
    println!(
        "classification:  Type {} ({})",
        if c.is_type_a() { "A" } else { "B" },
        if c.is_type_a() {
            "K-LRU sampling size matters; model it with KRR"
        } else {
            "K-insensitive; any K (or an LRU model) will do"
        }
    );
    Ok(())
}

fn cmd_plot(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(args)?;
    if f.positional.is_empty() {
        return Err("plot needs one or more cache_size,miss_ratio CSV files".into());
    }
    let mut curves = Vec::new();
    for path in &f.positional {
        let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
        let mrc = krr::core::persist::read_mrc(BufReader::new(file))
            .map_err(|e| format!("{path}: {e}"))?;
        curves.push((path.clone(), mrc));
    }
    let width: usize = f.num("width", 64)?;
    let height: usize = f.num("height", 16)?;
    print!("{}", render_ascii_mrc(&curves, width, height));
    Ok(())
}

/// Renders MRCs as an ASCII chart: x = cache size (linear), y = miss ratio.
fn render_ascii_mrc(curves: &[(String, krr::Mrc)], width: usize, height: usize) -> String {
    let max_x = curves
        .iter()
        .map(|(_, m)| m.max_size())
        .fold(0.0f64, f64::max)
        .max(1.0);
    let marks = ['*', 'o', '+', 'x', '#', '@'];
    let mut grid = vec![vec![' '; width]; height];
    for (ci, (_, mrc)) in curves.iter().enumerate() {
        let mark = marks[ci % marks.len()];
        for (col, x) in (0..width).map(|c| (c, max_x * (c as f64 + 0.5) / width as f64)) {
            let y = mrc.eval(x).clamp(0.0, 1.0);
            let row = ((1.0 - y) * (height as f64 - 1.0)).round() as usize;
            grid[row][col] = mark;
        }
    }
    let mut out = String::new();
    for (r, row) in grid.iter().enumerate() {
        let label = 1.0 - r as f64 / (height as f64 - 1.0);
        out.push_str(&format!("{label:5.2} |"));
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!("      +{}\n", "-".repeat(width)));
    out.push_str(&format!("       0{:>w$.0}\n", max_x, w = width - 1));
    for (ci, (name, _)) in curves.iter().enumerate() {
        out.push_str(&format!("       {} = {}\n", marks[ci % marks.len()], name));
    }
    out
}

fn cmd_partition(args: &[String]) -> Result<(), String> {
    use krr::core::partition::{allocate_greedy, allocate_optimal, Tenant};
    let f = Flags::parse(args)?;
    let live = f.get("live").map(str::to_string);
    if f.positional.is_empty() && live.is_none() {
        return Err(
            "partition needs one or more cache_size,miss_ratio CSV files or --live HOST:PORT"
                .into(),
        );
    }
    if !f.positional.is_empty() && live.is_some() {
        return Err("--live and MRC files are mutually exclusive".into());
    }
    let budget: u64 = f.num("budget", 0)?;
    if budget == 0 {
        return Err("--budget is required and must be positive".into());
    }
    let quantum: u64 = f.num("quantum", (budget / 100).max(1))?;
    let mut tenants = Vec::new();
    if let Some(live) = &live {
        // Scrape the live fleet: tenant ids from /tenants?format=csv, then
        // each curve as the exact persist::write_mrc bytes, so a live
        // allocation is bit-for-bit the offline allocation over the same
        // curves.
        let addr: std::net::SocketAddr = live
            .parse()
            .map_err(|_| format!("--live: cannot parse {live:?}"))?;
        let (status, _, body) = krr::core::expo::http_get(addr, "/tenants?format=csv")
            .map_err(|e| format!("--live {live}: {e}"))?;
        if status != 200 {
            return Err(format!(
                "--live {live}/tenants: HTTP {status}: {}",
                body.trim()
            ));
        }
        let mut ids = Vec::new();
        for line in body.lines().skip(1).filter(|l| !l.trim().is_empty()) {
            let id = line.split(',').next().unwrap_or("");
            ids.push(
                id.parse::<u64>()
                    .map_err(|_| format!("/tenants row with bad id: {line:?}"))?,
            );
        }
        ids.sort_unstable();
        for id in ids {
            let path = format!("/mrc?tenant={id}&format=csv");
            let (status, _, body) = krr::core::expo::http_get(addr, &path)
                .map_err(|e| format!("--live {live}{path}: {e}"))?;
            if status != 200 {
                return Err(format!(
                    "--live {live}{path}: HTTP {status}: {}",
                    body.trim()
                ));
            }
            let mrc = krr::core::persist::read_mrc(body.as_bytes())
                .map_err(|e| format!("{path}: {e}"))?;
            tenants.push(Tenant::new(id.to_string(), mrc, 1.0));
        }
        if tenants.is_empty() {
            return Err(format!("--live {live}: fleet has no tenants yet"));
        }
    }
    for path in &f.positional {
        let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
        let mrc = krr::core::persist::read_mrc(BufReader::new(file))
            .map_err(|e| format!("{path}: {e}"))?;
        tenants.push(Tenant::new(path.clone(), mrc, 1.0));
    }
    let greedy = allocate_greedy(&tenants, budget, quantum);
    let optimal = allocate_optimal(&tenants, budget, quantum);
    println!("{:>32} {:>12} {:>12}", "tenant", "greedy", "optimal");
    for (i, t) in tenants.iter().enumerate() {
        println!(
            "{:>32} {:>12} {:>12}",
            t.name, greedy.per_tenant[i], optimal.per_tenant[i]
        );
    }
    println!(
        "total weighted miss:  greedy {:.4}   optimal {:.4}",
        greedy.total_miss_rate, optimal.total_miss_rate
    );
    Ok(())
}

fn cmd_load(args: &[String]) -> Result<(), String> {
    use krr::load::{AbConfig, Arrival, LoadConfig, Schedule};
    let f = Flags::parse(args)?;
    let trace = load_trace(&f)?;
    if trace.is_empty() {
        return Err("trace is empty".into());
    }
    let qps: f64 = f.num("qps", 20_000.0)?;
    if !(qps > 0.0 && qps.is_finite()) {
        return Err("--qps must be positive".into());
    }
    let arrival = Arrival::parse(f.get("arrival").unwrap_or("poisson"))?;
    let seed: u64 = f.num("seed", 42)?;
    let load_cfg = LoadConfig {
        connections: f.num("connections", 4usize)?.max(1),
        pipeline_depth: f.num("pipeline", 32usize)?.max(1),
        tenants: f.num("tenants", 0usize)?,
    };
    let schedule = Schedule::generate(arrival, qps, trace.len(), seed);
    let prefill = !f.flag("no-prefill");

    let report = if let Some(addr) = f.get("addr") {
        // External server: plain one-sided run.
        if f.flag("ab") {
            return Err("--ab needs embedded servers; drop --addr".into());
        }
        let addr: std::net::SocketAddr = addr
            .parse()
            .map_err(|_| format!("--addr: cannot parse {addr:?}"))?;
        if prefill {
            let keys = krr::load::prefill(addr, &trace).map_err(|e| e.to_string())?;
            eprintln!("prefilled {keys} keys");
        }
        krr::load::run(addr, &schedule, &trace, &load_cfg).map_err(|e| e.to_string())?
    } else {
        let maxmemory: u64 = f.num("maxmemory", 64u64 << 20)?;
        let samples: usize = f.num("samples", 5usize)?;
        let ab_cfg = AbConfig {
            maxmemory,
            samples,
            seed,
            prefill,
            ..AbConfig::default()
        };
        if f.flag("ab") {
            let (report, metrics_json) =
                krr::load::run_ab_forensics(&schedule, &trace, &load_cfg, &ab_cfg)
                    .map_err(|e| e.to_string())?;
            // Post-mortem the profiled side: the same counter-signature
            // rules `krr doctor` runs, on the run we just measured.
            if let Some(doc) = metrics_json
                .as_deref()
                .and_then(|s| krr::core::json::parse(s).ok())
            {
                let counters = krr::core::doctor::DoctorCounters::from_metrics_json(&doc);
                eprint!("{}", krr::core::doctor::diagnose(&counters).render_text());
            }
            report
        } else {
            let mut store = krr::redis::MiniRedis::new(maxmemory, samples, seed);
            if load_cfg.tenants > 0 {
                // Tenant-selected connections should land somewhere: give
                // the embedded server a fleet arena keyed by samples-as-K.
                store.enable_fleet_profiling(krr::core::fleet::FleetConfig::new(KrrConfig::new(
                    samples as f64,
                )));
            }
            let mut server = krr::redis::Server::start(store).map_err(|e| e.to_string())?;
            if prefill {
                let keys = krr::load::prefill(server.addr(), &trace).map_err(|e| e.to_string())?;
                eprintln!("prefilled {keys} keys");
            }
            let report = krr::load::run(server.addr(), &schedule, &trace, &load_cfg)
                .map_err(|e| e.to_string())?;
            server.shutdown();
            report
        }
    };

    print!("{}", report.render_text());
    if let Some(path) = f.get("json") {
        std::fs::write(path, report.to_json()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote krr-load-v1 report to {path}");
    }
    Ok(())
}

fn cmd_doctor(args: &[String]) -> Result<(), String> {
    use krr::core::doctor::{diagnose, validate_artifact, DoctorCounters};
    use krr::core::json;
    let f = Flags::parse(args)?;

    let read_json = |path: &str| -> Result<json::Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };

    let report = if let Some(live) = f.get("live") {
        // Live mode: the exposition server's JSON snapshot is the exact
        // krr-metrics-v1 document the offline path reads from a file.
        let addr: std::net::SocketAddr = live
            .parse()
            .map_err(|_| format!("--live: cannot parse {live:?}"))?;
        let (status, _, body) = krr::core::expo::http_get(addr, "/metrics?format=json")
            .map_err(|e| format!("--live {live}: {e}"))?;
        if status != 200 {
            return Err(format!("--live {live}/metrics: HTTP {status}"));
        }
        let doc = json::parse(&body).map_err(|e| format!("--live {live}/metrics: {e}"))?;
        let mut counters = DoctorCounters::from_metrics_json(&doc);
        // Exemplars are optional: a model-only server has no ring.
        if let Ok((200, _, body)) = krr::core::expo::http_get(addr, "/exemplars") {
            if let Ok(doc) = json::parse(&body) {
                counters.join_exemplars(&doc);
            }
        }
        diagnose(&counters)
    } else if f.flag("offline") {
        // Offline mode: sweep the artifact directory and hold every
        // committed krr-*-v1 document to its grow-only schema.
        let dir = f.positional.first().map_or(".", String::as_str);
        let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| format!("{dir}: {e}"))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
                name.ends_with(".json") && (name.starts_with("BENCH_") || name.contains("krr-"))
            })
            .collect();
        paths.sort();
        if paths.is_empty() {
            return Err(format!("{dir}: no BENCH_*.json artifacts to validate"));
        }
        let mut invalid = 0usize;
        for path in &paths {
            let shown = path.display();
            match std::fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|text| json::parse(&text))
                .and_then(|doc| validate_artifact(&doc))
            {
                Ok(schema) => println!("valid   {shown} ({schema})"),
                Err(e) => {
                    println!("INVALID {shown}: {e}");
                    invalid += 1;
                }
            }
        }
        if invalid > 0 {
            return Err(format!("{invalid} artifact(s) failed schema validation"));
        }
        println!("all artifacts valid");
        return Ok(());
    } else {
        let Some(path) = f.get("metrics-in") else {
            return Err("need --live, --offline, or --metrics-in".into());
        };
        let mut counters = DoctorCounters::from_metrics_json(&read_json(path)?);
        if let Some(path) = f.get("exemplars") {
            counters.join_exemplars(&read_json(path)?);
        }
        diagnose(&counters)
    };

    print!("{}", report.render_text());
    if let Some(path) = f.get("json") {
        std::fs::write(path, report.to_json()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote krr-doctor-v1 report to {path}");
    }
    Ok(())
}
