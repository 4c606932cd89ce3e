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

use krr::core::checkpoint::{SECTION_METRICS, SECTION_SHARDED, SECTION_STREAM};
use krr::core::expo::RingWriter;
use krr::core::fleet::{FleetArena, FleetCell, FleetConfig};
use krr::core::{CheckpointReader, ExpoServer, ExpoSources, FlightRecorder, MetricsRegistry};
use krr::core::{MetricsSnapshot, MrcCell, StatsRing, StatsTimeline};
use krr::prelude::*;
use krr::trace::{io as trace_io, msr, patterns, twitter, ycsb};
use std::io::{BufReader, Write};
use std::process::ExitCode;
use std::sync::Arc;

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
            [--bytes] [--seed X] [--threads T] [--metrics]
            [--metrics-out FILE] [--trace-out FILE]
            [--serve ADDR [--serve-hold SECS]]
            ( [--shards S] [--stats-every N] [--stats-out FILE]
              [--checkpoint-every N] [--checkpoint-out FILE] [--resume FILE]
            | --tenants N [--budget B] [--mrc-out DIR] )
            (<trace.csv> | --workload <spec> ...)
            (--trace-out dumps a Chrome trace for ui.perfetto.dev,
             --stats-every/--stats-out emit a krr-stats-v1 JSONL
             timeline of windowed metric deltas;
             --checkpoint-out writes an atomic krr-ckpt-v1 checkpoint
             every --checkpoint-every refs (default 1000000), and
             --resume restores one (model flags come from it) and
             finishes the same trace file with bit-identical results;
             --serve binds a live exposition HTTP server, e.g.
             127.0.0.1:9184, answering /metrics /mrc /stats /trace
             /healthz while the run is in flight (refreshed every
             1000000 refs, or every --checkpoint-every); --serve-hold
             keeps it up SECS seconds after the run so short traces can
             still be scraped (default 0: shut down immediately);
             --tenants N switches to fleet mode: the trace splits into
             N tenants by key % N, each profiled by its own KRR model;
             stdout becomes a per-tenant summary (miss ratio at
             --budget, default 4096 objects), --mrc-out writes one
             tenant-<id>.csv per tenant, and --serve answers /tenants
             and /mrc?tenant=ID in place of /mrc;
             a flag of the other mode, or any flag not listed, is an
             error)
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
    cmd: String,
    pairs: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Flags {
    /// Parses the arguments of `krr <cmd>`, which reads the `--name value`
    /// options named in `values` and the bare `--name` switches named in
    /// `switches` (each a list of space-separated names). Any other
    /// `--name` is an error naming it and the subcommand.
    fn parse(cmd: &str, args: &[String], values: &[&str], switches: &str) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut positional = Vec::new();
        let listed = |names: &str, name: &str| names.split_whitespace().any(|n| n == name);
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if listed(switches, name) {
                    pairs.push((name.to_string(), "true".to_string()));
                } else if values.iter().any(|names| listed(names, name)) {
                    let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    pairs.push((name.to_string(), v.clone()));
                } else {
                    return Err(format!("krr {cmd} has no flag --{name} (see krr help)"));
                }
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Self {
            cmd: cmd.to_string(),
            pairs,
            positional,
        })
    }

    /// The positional arguments, when there are at most `max`; otherwise
    /// an error naming the first one the subcommand would not read.
    fn positional(&self, max: usize) -> Result<&[String], String> {
        match self.positional.get(max) {
            Some(extra) => Err(format!(
                "krr {} does not read the extra argument {extra:?}",
                self.cmd
            )),
            None => Ok(&self.positional),
        }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The parsed value of `--name`, if given.
    fn opt<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let parse = |v: &str| {
            v.parse()
                .map_err(|_| format!("--{name}: cannot parse {v:?}"))
        };
        self.get(name).map(parse).transpose()
    }

    /// `--name N` for a count that must be at least 1, if given.
    fn count(&self, name: &str) -> Result<Option<u64>, String> {
        match self.opt(name)? {
            Some(0) => Err(format!("--{name} must be >= 1")),
            n => Ok(n),
        }
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.opt(name)?.unwrap_or(default))
    }

    fn flag(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// The first of the space-separated `names` given on the command line.
    fn any_of<'n>(&self, names: &'n str) -> Option<&'n str> {
        names.split_whitespace().find(|n| self.flag(n))
    }
}

/// The options [`load_trace`] reads, for every subcommand that takes a
/// trace file or a `--workload`; `--var-size` is its one switch.
const TRACE_OPTS: &str = "workload requests seed scale";

/// The trace flags that only shape a generated `--workload` (`--seed` may
/// also seed the subcommand itself).
const WORKLOAD_ONLY: &str = "workload requests scale var-size";

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
    if !scale.is_finite() || scale <= 0.0 {
        return Err(format!("--scale must be a finite number > 0, got {scale}"));
    }
    // A Zipf exponent: finite and >= 0.
    let alpha = |a: &str| match a.parse::<f64>() {
        Ok(v) if v.is_finite() && v >= 0.0 => Ok(v),
        _ => Err(format!("--workload {spec}: bad alpha {a:?}")),
    };
    // A key count or loop length: at least 1.
    let count = |c: &str| match c.parse::<u64>() {
        Ok(v) if v >= 1 => Ok(v),
        _ => Err(format!("--workload {spec}: {c:?} must be a count >= 1")),
    };
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
            let alpha = alpha(arg)?;
            let records = ((1_000_000.0 * scale) as u64).max(1_000);
            Ok(ycsb::WorkloadC::new(records, alpha).generate(n, seed))
        }
        "ycsb-e" => {
            let alpha = alpha(arg)?;
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
            let (a, keys) = arg
                .split_once(':')
                .ok_or_else(|| "zipf spec is zipf:<alpha>:<keys>".to_string())?;
            Ok(ycsb::WorkloadC::new(count(keys)?, alpha(a)?).generate(n, seed))
        }
        "loop" => Ok(patterns::loop_trace(count(arg)?, n)),
        other => Err(format!("unknown workload kind {other:?}")),
    }
}

/// The positional trace file, if given. Beside a file the flags that shape
/// a generated workload would do nothing, so they are errors, as is a
/// second file.
fn trace_file(f: &Flags) -> Result<Option<&str>, String> {
    match f.positional(1)? {
        [] => Ok(None),
        [path, ..] => match f.any_of(WORKLOAD_ONLY) {
            Some(name) => Err(format!("--{name} cannot be combined with a trace file")),
            None => Ok(Some(path)),
        },
    }
}

/// Loads the trace from a positional CSV path or synthesizes from flags.
fn load_trace(f: &Flags) -> Result<Trace, String> {
    if let Some(path) = trace_file(f)? {
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
    let f = Flags::parse("generate", args, &[TRACE_OPTS, "out"], "var-size")?;
    f.positional(0)?;
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
    let f = Flags::parse("stats", args, &[TRACE_OPTS], "var-size")?;
    let trace = load_trace(&f)?;
    let s = krr::trace::stats(&trace);
    println!("requests:           {}", s.requests);
    println!("distinct objects:   {}", s.distinct);
    println!("working set bytes:  {}", s.working_set_bytes);
    println!("set fraction:       {:.4}", s.set_fraction);
    Ok(())
}

/// `krr model` options beyond [`TRACE_OPTS`]; its switches are
/// `--var-size`, `--bytes` and `--metrics`.
const MODEL_OPTS: &str = "k rate updater shards threads metrics-out trace-out stats-every \
    stats-out checkpoint-every checkpoint-out resume serve serve-hold tenants budget mrc-out";

/// Flags a fleet run (`--tenants`) cannot honour: a fleet arena has no
/// shards and no checkpoint format, and a buffered fleet chunk would close
/// stats windows before their references are applied.
const BANK_ONLY: &str = "shards checkpoint-out checkpoint-every resume stats-every stats-out";

/// Flags only a fleet run reads.
const FLEET_ONLY: &str = "budget mrc-out";

/// Model flags a `--resume` run takes from its checkpoint instead.
const CHECKPOINTED: &str = "k rate updater bytes seed";

/// References per chunk of the `krr model` loop when not checkpointing: a
/// live scraper sees `/mrc` or `/tenants` refresh at this cadence, and it
/// bounds a fleet run's buffered chunk.
const MODEL_CHUNK: u64 = 1_000_000;

fn cmd_model(args: &[String]) -> Result<(), String> {
    let switches = "var-size bytes metrics";
    let f = Flags::parse("model", args, &[TRACE_OPTS, MODEL_OPTS], switches)?;
    let tenants = f.count("tenants")?;
    let (foreign, why) = match tenants {
        Some(_) => (BANK_ONLY, "cannot be combined with --tenants"),
        None => (FLEET_ONLY, "needs --tenants"),
    };
    if let Some(name) = f.any_of(foreign) {
        return Err(format!("--{name} {why}"));
    }
    let resume_path = f.get("resume");
    if let (Some(_), Some(name)) = (resume_path, f.any_of(CHECKPOINTED)) {
        return Err(format!(
            "--{name} cannot be combined with --resume: model flags come from the checkpoint"
        ));
    }
    let k: f64 = f.num("k", 5.0)?;
    if k.is_nan() || k < 1.0 {
        return Err(format!("--k must be >= 1, got {k}"));
    }
    let rate: f64 = f.num("rate", 1.0)?;
    if rate.is_nan() || rate <= 0.0 || rate > 1.0 {
        return Err(format!("--rate must be in (0, 1], got {rate}"));
    }
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
    let shards = f.count("shards")?;
    // Pipeline workers, by default one per available core.
    let threads = match f.count("threads")? {
        Some(t) => t as usize,
        None => std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let ckpt_out = f.get("checkpoint-out");
    if f.flag("checkpoint-every") && ckpt_out.is_none() {
        return Err("--checkpoint-every needs --checkpoint-out <file>".into());
    }
    // Drain `chunk` refs per pipeline run, then publish the live view and
    // write any checkpoint at the batch boundary. Chunk boundaries don't
    // change results: per-model order is global arrival order either way.
    let chunk = f.count("checkpoint-every")?.unwrap_or(MODEL_CHUNK);
    if (ckpt_out.is_some() || resume_path.is_some()) && f.positional.is_empty() {
        return Err("checkpointing needs a trace file (resume offsets refer to it)".into());
    }
    let serve_addr = f.get("serve");
    let serve_hold: Option<u64> = f.opt("serve-hold")?;
    if serve_hold.is_some() && serve_addr.is_none() {
        return Err("--serve-hold needs --serve".into());
    }
    // Open the checkpoint before any observability is wired up: restored
    // metrics must land in the registry before the stats timeline takes
    // its first snapshot.
    let ckpt = resume_path
        .map(|path| CheckpointReader::open(path).map_err(|e| format!("{path}: {e}")))
        .transpose()?;
    let trace_out = f.get("trace-out");
    let stats_out = f.get("stats-out");
    let stats_every = f.count("stats-every")?.or(stats_out.map(|_| 100_000));
    let want_metrics =
        f.flag("metrics") || f.flag("metrics-out") || stats_every.is_some() || serve_addr.is_some();
    let registry = want_metrics.then(|| Arc::new(MetricsRegistry::new()));
    let stats_ring = serve_addr.map(|_| Arc::new(StatsRing::new()));
    let recorder = trace_out.map(|_| Arc::new(FlightRecorder::new()));
    if let (Some(ckpt), Some(reg)) = (&ckpt, &registry) {
        if let Some(mut dec) = ckpt.section(SECTION_METRICS) {
            let snap = MetricsSnapshot::load_state(&mut dec)
                .map_err(|e| format!("resume metrics: {e}"))?;
            reg.absorb(&snap);
        }
    }
    // (seen refs, trace byte offset, trace line number, stats rows written).
    let resume_state = match &ckpt {
        Some(ckpt) => {
            let mut dec = ckpt
                .require(SECTION_STREAM)
                .map_err(|e| format!("resume: {e}"))?;
            let mut next = || dec.u64().map_err(|e| format!("resume stream state: {e}"));
            Some((next()?, next()?, next()?, next()?))
        }
        None => None,
    };
    let mut timeline = match (stats_every, &registry) {
        (Some(every), Some(reg)) => {
            let out: Box<dyn Write> = match stats_out {
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
                Some(ring) => Box::new(RingWriter::new(Some(out), Arc::clone(ring))),
                None => out,
            };
            Some(StatsTimeline::new(Arc::clone(reg), out, every))
        }
        _ => None,
    };
    if let (Some((seen0, _, _, rows)), Some(t)) = (resume_state, timeline.as_mut()) {
        t.resume_at(seen0, rows);
    }
    // References seen so far; drives the stats timeline windows.
    let mut seen: u64 = resume_state.map_or(0, |(s, _, _, _)| s);
    let mut stats_err: Option<std::io::Error> = None;
    let t0 = std::time::Instant::now();
    // The trace is never materialized from a file, so file size doesn't
    // bound memory. On resume, seek past the prefix the checkpoint covers.
    let mut refs = Refs::open(
        &f,
        resume_state.map(|(_, off, lineno, _)| (off, lineno)),
        recorder.as_deref(),
    )?;
    let mut profile = match tenants {
        Some(n) => {
            let budget: f64 = f.num("budget", 4096.0)?;
            if budget <= 0.0 || budget.is_nan() {
                return Err("--budget must be positive".into());
            }
            let mut arena = FleetArena::new(FleetConfig::new(cfg).budget(budget));
            if let Some(reg) = &registry {
                arena.set_metrics(Arc::clone(reg));
            }
            if let Some(rec) = &recorder {
                arena.set_recorder(Arc::clone(rec));
            }
            let cell = serve_addr.map(|_| Arc::new(FleetCell::new()));
            if let Some(cell) = &cell {
                arena.set_cell(Arc::clone(cell));
            }
            Profile::Fleet(arena, n, cell)
        }
        None => {
            let mut bank = match &ckpt {
                Some(ckpt) => {
                    let mut dec = ckpt
                        .require(SECTION_SHARDED)
                        .map_err(|e| format!("resume: {e}"))?;
                    let bank =
                        ShardedKrr::load_state(&mut dec).map_err(|e| format!("resume: {e}"))?;
                    let n = bank.num_shards();
                    if shards.is_some_and(|s| s != n as u64) {
                        return Err(format!("--shards: the checkpoint has {n} shards"));
                    }
                    eprintln!(
                        "resumed at {seen} refs ({n} shards; model flags come from the checkpoint)"
                    );
                    bank
                }
                None => ShardedKrr::new(&cfg, shards.unwrap_or(1) as usize),
            };
            if let Some(reg) = &registry {
                bank.set_metrics(Arc::clone(reg));
            }
            if let Some(rec) = &recorder {
                bank.set_recorder(Arc::clone(rec));
            }
            let cell = serve_addr.map(|_| Arc::new(MrcCell::new()));
            Profile::Bank(bank, cell)
        }
    };
    // Start serving only after any checkpoint restore has been absorbed, so
    // the first scrape of a resumed run already sees the restored counters
    // (and a fresh process after a crash simply rebinds the address).
    let expo = match serve_addr {
        Some(addr) => {
            let (mrc, tenants) = match &profile {
                Profile::Bank(_, cell) => (cell.clone(), None),
                Profile::Fleet(.., cell) => (None, cell.clone()),
            };
            let sources = ExpoSources {
                metrics: registry.clone(),
                mrc,
                stats: stats_ring.clone(),
                trace: recorder.clone(),
                tenants,
                exemplars: None,
                profiler: recorder.as_ref().map(|r| Arc::clone(r.profiler())),
            };
            let srv =
                ExpoServer::start(addr, sources).map_err(|e| format!("--serve {addr}: {e}"))?;
            eprintln!("serving live metrics on http://{}/metrics", srv.addr());
            Some(srv)
        }
        None => None,
    };
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
        profile.process(batch, threads);
        if let Some(e) = read_err {
            return Err(e.to_string());
        }
        profile.publish();
        let advanced = seen - before;
        if let (Some(out), Refs::File(stream), Profile::Bank(bank, _)) = (ckpt_out, &refs, &profile)
        {
            // One atomic checkpoint: the bank (`SHRD`), the metrics (`METR`,
            // when on) and the stream position (`STRM`, read back on resume).
            if advanced > 0 {
                let mut w = krr::core::CheckpointWriter::new();
                bank.save_state(w.section(SECTION_SHARDED));
                if let Some(reg) = &registry {
                    reg.snapshot().save_state(w.section(SECTION_METRICS));
                }
                w.section(SECTION_STREAM)
                    .put_u64(seen)
                    .put_u64(stream.byte_offset())
                    .put_u64(stream.lineno() as u64)
                    .put_u64(timeline.as_ref().map_or(0, |t| t.rows()));
                w.write_atomic(out).map_err(|e| format!("{out}: {e}"))?;
            }
        }
        if advanced < chunk {
            break;
        }
    }
    if let Some(t) = timeline.as_mut() {
        if let Err(e) = t.finish(seen) {
            stats_err.get_or_insert(e);
        }
    }
    if let Some(e) = stats_err {
        return Err(format!("stats timeline: {e}"));
    }
    let elapsed = t0.elapsed();
    profile.report(f.get("mrc-out"))?;
    let st = profile.stats();
    eprintln!(
        "processed {} refs ({} sampled, {} distinct) in {elapsed:?}",
        st.processed, st.sampled, st.distinct
    );
    if let (Some(t), Some(path)) = (&timeline, stats_out) {
        eprintln!("wrote {} stats rows to {path}", t.rows());
    }
    if let (Some(path), Some(rec)) = (trace_out, &recorder) {
        let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
        rec.write_chrome_trace(std::io::BufWriter::new(file))
            .map_err(|e| e.to_string())?;
        eprintln!("wrote Chrome trace to {path} (open it in ui.perfetto.dev)");
    }
    if let Some(reg) = &registry {
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
    if let Some(secs) = serve_hold.filter(|&s| s > 0) {
        eprintln!("holding the exposition server for {secs}s");
        std::thread::sleep(std::time::Duration::from_secs(secs));
    }
    // Explicit shutdown (Drop would too) so the listener thread is joined
    // and the port released before the process reports success.
    if let Some(mut srv) = expo {
        srv.shutdown();
    }
    Ok(())
}

/// What one `krr model` run profiles, with the cell it publishes into at
/// each chunk boundary when serving: one curve over a sharded bank, or
/// with `--tenants N` one curve per tenant in a fleet arena. The trace
/// splits into the `N` tenants by `key % N`, a stand-in for tenant tags.
enum Profile {
    Bank(ShardedKrr, Option<Arc<MrcCell>>),
    Fleet(FleetArena, u64, Option<Arc<FleetCell>>),
}

impl Profile {
    /// Feeds one chunk of `(key, size)` references through the pipeline.
    fn process(&mut self, refs: impl Iterator<Item = (u64, u32)>, threads: usize) {
        match self {
            Profile::Bank(bank, _) => bank.process_stream(refs, threads),
            Profile::Fleet(arena, n, _) => {
                let chunk: Vec<_> = refs.map(|(key, size)| (key % *n, key, size)).collect();
                arena.process_parallel(&chunk, threads);
            }
        }
    }

    /// Refreshes the live `/mrc` view, when serving. A fleet arena
    /// refreshes its `/tenants` cell itself after each pipeline run.
    fn publish(&self) {
        if let Profile::Bank(bank, Some(cell)) = self {
            cell.publish(bank.mrc());
        }
    }

    fn stats(&self) -> krr::ModelStats {
        match self {
            Profile::Bank(bank, _) => bank.stats(),
            Profile::Fleet(arena, ..) => arena.stats(),
        }
    }

    /// Prints the run's stdout: the MRC CSV, or the per-tenant summary CSV
    /// after writing each tenant's MRC as `<mrc_out>/tenant-<id>.csv`.
    fn report(&self, mrc_out: Option<&str>) -> Result<(), String> {
        let mut out = std::io::BufWriter::new(std::io::stdout().lock());
        // Write errors are ignored so `krr model ... | head` exits cleanly.
        match self {
            Profile::Bank(bank, _) => {
                let _ = writeln!(out, "cache_size,miss_ratio");
                // Downsample evenly to at most 2000 points so huge
                // histograms stay plottable without chopping the tail off
                // the curve.
                let mrc = bank.mrc();
                let pts: Vec<_> = mrc.points().iter().filter(|p| p.0 > 0.0).collect();
                let step = (pts.len() / 2_000).max(1);
                let last = pts.len().saturating_sub(1);
                for (i, (x, y)) in pts.into_iter().enumerate() {
                    if (i % step == 0 || i == last) && writeln!(out, "{x:.0},{y:.5}").is_err() {
                        break;
                    }
                }
            }
            Profile::Fleet(arena, ..) => {
                // One view builds each tenant's MRC once for its file and
                // its summary row.
                let mut view = arena.view();
                view.rows.sort_unstable_by_key(|r| r.id);
                view.mrcs.sort_unstable_by_key(|&(id, _)| id);
                if let Some(dir) = mrc_out {
                    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
                    for (id, mrc) in &view.mrcs {
                        let path = format!("{dir}/tenant-{id}.csv");
                        let file =
                            std::fs::File::create(&path).map_err(|e| format!("{path}: {e}"))?;
                        krr::core::persist::write_mrc(std::io::BufWriter::new(file), mrc)
                            .map_err(|e| format!("{path}: {e}"))?;
                    }
                    eprintln!("wrote {} per-tenant MRCs to {dir}/", view.mrcs.len());
                }
                let _ = writeln!(
                    out,
                    "tenant,refs,resident,resident_bytes,miss_ratio_at_budget"
                );
                for r in &view.rows {
                    let (id, refs, resident, bytes) = (r.id, r.refs, r.resident, r.resident_bytes);
                    let ratio = r.miss_ratio_ppm as f64 / 1e6;
                    if writeln!(out, "{id},{refs},{resident},{bytes},{ratio:.5}").is_err() {
                        break;
                    }
                }
            }
        }
        Ok(())
    }
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
        recorder: Option<&FlightRecorder>,
    ) -> Result<Self, String> {
        let Some(path) = trace_file(f)? else {
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

/// `trace`, unless it has no requests: a simulated MRC needs at least
/// one object to size its caches against.
fn nonempty(trace: Trace) -> Result<Trace, String> {
    if trace.is_empty() {
        return Err("the trace has no requests".into());
    }
    Ok(trace)
}

/// A `krr simulate --policy` spec.
enum SimPolicy {
    /// `lru` or `klru:K`, swept by [`simulate_mrc`].
    Stack(Policy),
    /// `klfu:K`, which has no [`Policy`] variant: one cache per size.
    KLfu(u32),
}

impl SimPolicy {
    fn parse(spec: &str) -> Result<Self, String> {
        if spec == "lru" {
            return Ok(SimPolicy::Stack(Policy::ExactLru));
        }
        let (kind, k) = match spec.split_once(':') {
            Some((kind @ ("klru" | "klfu"), k)) => (kind, k),
            _ => return Err(format!("unknown policy {spec:?}")),
        };
        match k.parse::<u32>() {
            Ok(0) => Err(format!("--policy {spec}: K must be >= 1")),
            Ok(k) if kind == "klru" => Ok(SimPolicy::Stack(Policy::klru(k))),
            Ok(k) => Ok(SimPolicy::KLfu(k)),
            Err(_) => Err(format!("bad policy {spec:?}")),
        }
    }
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let switches = "var-size bytes";
    let f = Flags::parse("simulate", args, &[TRACE_OPTS, "policy sizes"], switches)?;
    let n_sizes = f.count("sizes")?.unwrap_or(25) as usize;
    let policy = SimPolicy::parse(f.get("policy").unwrap_or("klru:5"))?;
    let trace = nonempty(load_trace(&f)?)?;
    let bytes = f.flag("bytes");
    let (objects, ws_bytes) = krr::sim::working_set(&trace);
    let max = if bytes { ws_bytes } else { objects };
    let caps = even_capacities(max, n_sizes);
    let unit = if bytes { Unit::Bytes } else { Unit::Objects };
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mrc = match policy {
        SimPolicy::Stack(p) => simulate_mrc(&trace, p, unit, &caps, 1, threads),
        SimPolicy::KLfu(k) => {
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
    let f = Flags::parse("compare", args, &[TRACE_OPTS, "k sizes"], "var-size")?;
    let k = u32::try_from(f.count("k")?.unwrap_or(5)).map_err(|_| "--k is too large")?;
    let n_sizes = f.count("sizes")?.unwrap_or(25) as usize;
    let trace = nonempty(load_trace(&f)?)?;
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
    let f = Flags::parse("analyze", args, &[TRACE_OPTS], "var-size")?;
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
    let f = Flags::parse("plot", args, &["width height"], "")?;
    if f.positional.is_empty() {
        return Err("plot needs one or more cache_size,miss_ratio CSV files".into());
    }
    let width = f.count("width")?.unwrap_or(64) as usize;
    let height = f.count("height")?.unwrap_or(16) as usize;
    let mut curves = Vec::new();
    for path in &f.positional {
        let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
        let mrc = krr::core::persist::read_mrc(BufReader::new(file))
            .map_err(|e| format!("{path}: {e}"))?;
        curves.push((path.clone(), mrc));
    }
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
    let f = Flags::parse("partition", args, &["budget quantum live"], "")?;
    let live = f.get("live");
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
    if let Some(live) = live {
        // Scrape the live fleet: tenant ids from /tenants?format=csv, then
        // each curve as the exact persist::write_mrc bytes, so a live
        // allocation is bit-for-bit the offline allocation over the same
        // curves.
        let body = scrape(live, "/tenants?format=csv")?;
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
            let body = scrape(live, &path)?;
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

/// GETs `path` from the exposition server at `live` (`HOST:PORT`, from
/// `--live`); anything but a 200 answer is an error.
fn scrape(live: &str, path: &str) -> Result<String, String> {
    let addr: std::net::SocketAddr = live
        .parse()
        .map_err(|_| format!("--live: cannot parse {live:?}"))?;
    let (status, _, body) =
        krr::core::expo::http_get(addr, path).map_err(|e| format!("--live {live}{path}: {e}"))?;
    if status != 200 {
        return Err(format!(
            "--live {live}{path}: HTTP {status}: {}",
            body.trim()
        ));
    }
    Ok(body)
}

fn cmd_load(args: &[String]) -> Result<(), String> {
    use krr::load::{AbConfig, Arrival, LoadConfig, Schedule};
    let opts = "qps arrival connections pipeline tenants addr maxmemory samples json";
    let f = Flags::parse("load", args, &[TRACE_OPTS, opts], "var-size ab no-prefill")?;
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
        connections: f.count("connections")?.map_or(4, |n| n as usize),
        pipeline_depth: f.count("pipeline")?.map_or(32, |n| n as usize),
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
                store.enable_fleet_profiling(FleetConfig::new(KrrConfig::new(samples as f64)));
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
    let f = Flags::parse(
        "doctor",
        args,
        &["live metrics-in exemplars json"],
        "offline",
    )?;
    // Only an --offline sweep reads a positional: its directory.
    let offline = f.get("live").is_none() && f.flag("offline");
    let dir = f.positional(usize::from(offline))?.first();

    let read_json = |path: &str| -> Result<json::Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };

    let report = if let Some(live) = f.get("live") {
        // Live mode: the exposition server's JSON snapshot is the exact
        // krr-metrics-v1 document the offline path reads from a file.
        let body = scrape(live, "/metrics?format=json")?;
        let doc = json::parse(&body).map_err(|e| format!("--live {live}/metrics: {e}"))?;
        let mut counters = DoctorCounters::from_metrics_json(&doc);
        // Exemplars are optional: a model-only server has no ring.
        if let Ok(body) = scrape(live, "/exemplars") {
            if let Ok(doc) = json::parse(&body) {
                counters.join_exemplars(&doc);
            }
        }
        diagnose(&counters)
    } else if f.flag("offline") {
        // Offline mode: sweep the artifact directory and hold every
        // committed krr-*-v1 document to its grow-only schema.
        let dir = dir.map_or(".", String::as_str);
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
