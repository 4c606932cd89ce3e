//! The repository benchmark.
//!
//! ```text
//! yardstick --workload <model-deep|model-sampled|serve-rw> --seed <n>
//!           --seconds <s> --trace <0|1> [--smoke] [--out <dir>]
//! ```
//!
//! Generates the workload from `--seed`, measures for about `--seconds`,
//! checks the program's outputs, prints every metric by name and unit, and
//! ends with one JSON line. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` runs the layer probes and reports the per-layer metrics,
//! writing the harness's spans and the program's flight-recorder trace to
//! `--out` (default: `out/` beside this package's manifest). `--smoke`
//! shrinks every input so a run takes about a second.

mod clock;
mod layers;
mod model;
mod report;
mod serve;
mod workload;

use model::Reference;
use report::{median, pct, Report};
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workload::{Kind, Workload};

/// Least set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Set-up repeats until it has also run this long in total.
const SETUP_MIN: Duration = Duration::from_secs(1);

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {val:?} for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = val.parse().map_err(|_| bad())?,
            "--trace" => a.trace = val.parse::<u8>().map_err(|_| bad())? == 1,
            "--out" => a.out = PathBuf::from(&val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(a)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("yardstick: {e}");
            std::process::exit(2);
        }
    };
    let Some(w) = Workload::by_name(&args.workload, args.smoke, args.seconds) else {
        eprintln!(
            "yardstick: unknown workload {:?} (model-deep|model-sampled|serve-rw)",
            args.workload
        );
        std::process::exit(2);
    };
    let mut rep = Report::default();
    let res = if args.trace {
        layers::traced(&w, &args, &mut rep)
    } else {
        match w.kind {
            Kind::Serve => run_serve(&w, &args, &mut rep),
            _ => {
                run_model(&w, &args, &mut rep);
                Ok(())
            }
        }
    };
    if let Err(e) = res {
        eprintln!("yardstick: {}: {e}", w.name);
        std::process::exit(1);
    }
    for c in &rep.checks {
        println!("{c}");
    }
    if !args.trace {
        for m in &rep.metrics {
            println!("{:<16} {:>18.4} {}", m.name, m.value, m.unit);
        }
    }
    println!("{}", rep.json());
}

/// Runs `f` at least [`SETUP_REPS`] times and for [`SETUP_MIN`] of wall
/// time, keeping the last result and the median time by `clock` (ns).
fn setup<T>(clock: fn() -> u64, mut f: impl FnMut() -> io::Result<T>) -> io::Result<(T, f64)> {
    let mut times = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while times.len() < SETUP_REPS || start.elapsed() < SETUP_MIN {
        drop(last.take());
        let t = clock();
        last = Some(f()?);
        times.push((clock() - t) as f64 / 1e9);
    }
    Ok((last.expect("at least one set-up"), median(&times)))
}

/// What a model workload's untraced passes measured. Times are process
/// CPU time (see [`clock`]). Every pass does bit-identical work, so each
/// ingest call is taken at the median of its times over the passes: a
/// stall from another tenant of the machine moves that far less than a
/// mean, and the figure stays steady from run to run.
pub struct ModelRun {
    /// References over the pass's CPU time.
    pub refs_per_s: f64,
    /// Sum of the per-call medians and the `mrc()` one, in seconds.
    pub pass_s: f64,
    /// The median time of each ingest call, ascending.
    pub call_ns: Vec<u64>,
    pub bytes: usize,
    pub digest: u64,
}

/// Runs untraced passes for `seconds` (at least one), checking each one's
/// MRC against the set-up reference.
pub fn model_passes(
    w: &Workload,
    inputs: &model::Inputs,
    seconds: f64,
    rep: &mut Report,
) -> ModelRun {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut all: Vec<model::Timing> = Vec::new();
    let mut first: Option<(u64, f64)> = None;
    let mut bad = 0;
    let bytes = loop {
        let p = model::pass(w, &inputs.refs, None, None);
        let ok = match (&inputs.reference, first) {
            (Reference::Klru { mrc, sizes }, None) => {
                let mae = p.mrc.mae(mrc, sizes);
                first = Some((p.digest, mae));
                mae < model::MAE_LIMIT
            }
            (Reference::Klru { .. }, Some((d, mae))) => p.digest == d && mae < model::MAE_LIMIT,
            (Reference::Sequential { digest }, _) => {
                first.get_or_insert((p.digest, 0.0));
                p.digest == *digest
            }
        };
        if !ok {
            bad += 1;
        }
        all.push(p.timing);
        if Instant::now() >= deadline {
            break p.bytes;
        }
    };
    let passes = all.len();
    rep.ops(passes as u64, bad);
    let (digest, mae) = first.expect("one pass ran");
    match &inputs.reference {
        Reference::Klru { .. } => {
            rep.check(
                mae < model::MAE_LIMIT,
                format!("mrc_mae {mae:.5} vs K-LRU at {} sizes (limit {})", model::MAE_SIZES, model::MAE_LIMIT),
            );
            rep.check(bad == 0, format!("MRC digest {digest:016x} identical in all {passes} passes"));
        }
        Reference::Sequential { digest: want } => rep.check(
            bad == 0,
            format!("pipeline MRC digest {digest:016x} == sequential ShardedKrr::access {want:016x} in all {passes} passes"),
        ),
    }
    let typical = model::Timing::median(&all);
    let pass_s = typical.total_ns() as f64 / 1e9;
    let mut call_ns = typical.call_ns;
    call_ns.sort_unstable();
    ModelRun {
        refs_per_s: inputs.refs.len() as f64 / pass_s,
        pass_s,
        call_ns,
        bytes,
        digest,
    }
}

fn run_model(w: &Workload, args: &Args, rep: &mut Report) {
    let (inputs, setup_s) =
        setup(clock::cpu_ns, || Ok(model::setup(w, args.seed))).expect("model set-up cannot fail");
    let run = model_passes(w, &inputs, args.seconds, rep);
    rep.metric("refs_per_s", run.refs_per_s, "1/s");
    rep.metric("p50_us", pct(&run.call_ns, 0.50) as f64 / 1e3, "us");
    rep.metric("p90_us", pct(&run.call_ns, 0.90) as f64 / 1e3, "us");
    rep.metric("model_bytes", run.bytes as f64, "B");
    rep.metric("setup_s", setup_s, "s");
}

/// A started `serve-rw` server with its command stream and schedule.
pub struct ServeSetup {
    pub server: krr_redis::Server,
    pub ops: Vec<krr_trace::Request>,
    pub arrivals: Vec<u64>,
    pub gen_s: f64,
}

pub fn serve_setup(w: &Workload, seed: u64) -> io::Result<ServeSetup> {
    let t = Instant::now();
    let ops = w.generate(seed);
    let gen_s = t.elapsed().as_secs_f64();
    let sched = krr_load::Schedule::generate(
        krr_load::Arrival::Poisson,
        workload::SERVE_QPS,
        ops.len(),
        seed,
    );
    let server = serve::start(w, &ops, seed)?;
    Ok(ServeSetup {
        server,
        ops,
        arrivals: sched.arrivals,
        gen_s,
    })
}

/// The `serve-rw` checks: no failed request, GET outcomes reconcile with
/// the server's counters, and the server's `MRC` reply equals an offline
/// `ShardedKrr` over the same GET stream. Returns the server's view.
pub fn serve_checks(
    w: &Workload,
    s: &ServeSetup,
    replies: &[serve::Reply],
    rep: &mut Report,
) -> io::Result<serve::ServerView> {
    let failed = replies
        .iter()
        .filter(|r| matches!(r, serve::Reply::Error | serve::Reply::Missing))
        .count();
    rep.check(
        failed == 0,
        format!(
            "{failed} protocol errors or missing replies of {}",
            replies.len()
        ),
    );
    let v = serve::view(&s.server)?;
    let hits = replies.iter().filter(|r| **r == serve::Reply::Hit).count() as u64;
    let misses = replies.iter().filter(|r| **r == serve::Reply::Miss).count() as u64;
    rep.check(
        hits == v.hits && misses == v.misses,
        format!(
            "GET hits/misses {hits}/{misses} == server stats {}/{}",
            v.hits, v.misses
        ),
    );
    let offline = serve::render_mrc(&serve::offline_profile(w, &s.ops, replies).mrc());
    rep.check(
        offline == v.mrc_csv,
        format!(
            "server MRC reply ({} bytes) == offline ShardedKrr over the GET stream",
            v.mrc_csv.len()
        ),
    );
    Ok(v)
}

fn run_serve(w: &Workload, args: &Args, rep: &mut Report) -> io::Result<()> {
    let (s, setup_s) = setup(clock::wall_ns, || serve_setup(w, args.seed))?;
    let (d, mut service_ns) = serve::service_times(s.server.recorder(), || {
        serve::drive(s.server.addr(), &s.ops, &s.arrivals, None)
    });
    let d = d?;
    rep.ops(s.ops.len() as u64, d.failed());
    let v = serve_checks(w, &s, &d.replies, rep)?;
    service_ns.sort_unstable();
    println!("command spans read from the server: {}", service_ns.len());
    rep.metric("refs_per_s", d.rate(), "1/s");
    rep.metric("p50_us", pct(&service_ns, 0.50) as f64 / 1e3, "us");
    rep.metric("p90_us", pct(&service_ns, 0.90) as f64 / 1e3, "us");
    rep.metric("model_bytes", v.model_bytes, "B");
    rep.metric("setup_s", setup_s, "s");
    Ok(())
}
