//! `model-deep` and `model-sampled`: one pass feeds the whole trace to a
//! fresh model through its public ingest call and reads the final MRC.

use crate::clock;
use crate::report::{mrc_digest, Spans};
use crate::workload::{Kind, Workload};
use krr_core::hashing::hash_key;
use krr_core::{FlightRecorder, Footprint, KrrModel, MetricsRegistry, Mrc, ShardedKrr};
use krr_sim::mrc_sim::{even_capacities, simulate_mrc, Policy, Unit};
use std::sync::Arc;
use std::time::Instant;

/// Cache sizes at which `model-deep`'s MRC is compared with K-LRU.
pub const MAE_SIZES: usize = 20;
/// Largest accepted MAE against the simulated K-LRU curve.
pub const MAE_LIMIT: f64 = 0.03;

/// What a pass's MRC is checked against.
pub enum Reference {
    /// A `krr-sim` K-LRU simulation at [`MAE_SIZES`] cache sizes.
    Klru { mrc: Mrc, sizes: Vec<f64> },
    /// Digest of a sequential `ShardedKrr::access` run over the trace.
    Sequential { digest: u64 },
}

/// Set-up output: the trace as `(key, size, key_hash)` plus the reference.
pub struct Inputs {
    pub refs: Vec<(u64, u32, u64)>,
    pub reference: Reference,
    pub gen_s: f64,
}

pub fn setup(w: &Workload, seed: u64) -> Inputs {
    let t = Instant::now();
    let trace = w.generate(seed);
    let gen_s = t.elapsed().as_secs_f64();
    let refs = trace
        .iter()
        .map(|r| (r.key, r.size, hash_key(r.key)))
        .collect();
    let reference = match w.kind {
        Kind::Deep => {
            let distinct = krr_trace::stats(&trace).distinct;
            let caps = even_capacities(distinct, MAE_SIZES);
            let mrc = simulate_mrc(
                &trace,
                Policy::klru(w.k as u32),
                Unit::Objects,
                &caps,
                seed,
                1,
            );
            Reference::Klru {
                mrc,
                sizes: caps.iter().map(|&c| c as f64).collect(),
            }
        }
        _ => {
            let mut bank = ShardedKrr::new(&w.krr(), w.shards);
            for r in &trace {
                bank.access(r.key, r.size);
            }
            Reference::Sequential {
                digest: mrc_digest(bank.mrc().points()),
            }
        }
    };
    Inputs {
        refs,
        reference,
        gen_s,
    }
}

/// Program instrumentation attached for a traced pass.
pub struct Instr {
    pub reg: Arc<MetricsRegistry>,
    pub rec: Arc<FlightRecorder>,
}

/// CPU times (see [`crate::clock`]) of one pass's calls.
pub struct Timing {
    /// Every ingest call, in call order.
    pub call_ns: Vec<u64>,
    /// The final `mrc()`.
    pub mrc_ns: u64,
}

impl Timing {
    pub fn total_ns(&self) -> u64 {
        self.call_ns.iter().sum::<u64>() + self.mrc_ns
    }

    /// Each call's median time over `passes`, which made the same calls on
    /// the same inputs.
    pub fn median(passes: &[Timing]) -> Timing {
        let q = |mut v: Vec<u64>| {
            v.sort_unstable();
            v[(v.len() - 1) / 2]
        };
        Timing {
            call_ns: (0..passes[0].call_ns.len())
                .map(|i| q(passes.iter().map(|p| p.call_ns[i]).collect()))
                .collect(),
            mrc_ns: q(passes.iter().map(|p| p.mrc_ns).collect()),
        }
    }
}

/// One pass's results.
pub struct Pass {
    pub timing: Timing,
    pub mrc: Mrc,
    pub digest: u64,
    pub bytes: usize,
}

/// Feeds every reference to a fresh model, `w.chunk` per ingest call, then
/// builds the MRC, timing each call in process CPU time (the pipeline's
/// worker thread included). With `spans`, each call is also recorded, in
/// wall time, under `parent`.
pub fn pass(
    w: &Workload,
    refs: &[(u64, u32, u64)],
    instr: Option<&Instr>,
    mut spans: Option<(&mut Spans, u64)>,
) -> Pass {
    let mut call_ns = Vec::with_capacity(refs.len() / w.chunk + 1);
    let mut timed = |name: &'static str, f: &mut dyn FnMut()| {
        let (t, c) = (Instant::now(), clock::cpu_ns());
        f();
        let (e, cpu) = (Instant::now(), clock::cpu_ns() - c);
        if let Some((s, parent)) = spans.as_mut() {
            s.record(name, *parent, t, e);
        }
        cpu
    };
    let (mrc, mrc_ns, bytes) = match w.kind {
        Kind::Deep => {
            let mut m = KrrModel::new(w.krr());
            if let Some(i) = instr {
                m.set_metrics(Arc::clone(&i.reg));
                m.set_recorder(i.rec.register("model"));
            }
            for chunk in refs.chunks(w.chunk) {
                call_ns.push(timed("access_batch", &mut || m.access_batch(chunk)));
            }
            let mut mrc = None;
            let ns = timed("mrc", &mut || mrc = Some(m.mrc()));
            (mrc.expect("mrc built"), ns, m.deep_bytes())
        }
        _ => {
            let mut bank = ShardedKrr::new(&w.krr(), w.shards);
            if let Some(i) = instr {
                bank.set_metrics(Arc::clone(&i.reg));
                bank.set_recorder(Arc::clone(&i.rec));
            }
            for chunk in refs.chunks(w.chunk) {
                let it = chunk.iter().map(|&(k, s, _)| (k, s));
                call_ns.push(timed("process_stream", &mut || {
                    bank.process_stream(it.clone(), 1)
                }));
            }
            let mut mrc = None;
            let ns = timed("mrc", &mut || mrc = Some(bank.mrc()));
            (mrc.expect("mrc built"), ns, bank.deep_bytes())
        }
    };
    let digest = mrc_digest(mrc.points());
    Pass {
        timing: Timing { call_ns, mrc_ns },
        mrc,
        digest,
        bytes,
    }
}
