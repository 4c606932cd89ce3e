//! The three workloads: generator spec, sizes and model configuration.
//! Every input is generated in-process from the `--seed` argument.

use krr_core::KrrConfig;
use krr_trace::{msr, twitter, Trace};

/// Which entry point a workload drives.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One `KrrModel` fed through `access_batch`.
    Deep,
    /// An 8-shard `ShardedKrr` fed through `process_stream`.
    Sampled,
    /// An in-process `krr_redis::Server` driven open-loop over RESP.
    Serve,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// `family:variant`, as the `krr` CLI's `--workload` spells it.
    pub spec: &'static str,
    pub scale: f64,
    /// Trace length in references.
    pub refs: usize,
    /// Per-key log-normal value sizes (otherwise every object is 1 byte).
    pub var_size: bool,
    pub k: f64,
    pub rate: f64,
    pub shards: usize,
    /// Byte-level distances (the in-band profiler's mode).
    pub byte_level: bool,
    /// Ingest call size: refs per `access_batch` / `process_stream` call.
    pub chunk: usize,
}

/// Open-loop offered rate of `serve-rw`, requests per second.
pub const SERVE_QPS: f64 = 10_000.0;
/// Histogram bin width of the byte-level profiler, in bytes.
pub const BYTE_BIN: u64 = 4096;

impl Workload {
    /// The workload called `name`. `smoke` shrinks every size so the whole
    /// run, checks included, takes about a second.
    pub fn by_name(name: &str, smoke: bool, seconds: f64) -> Option<Workload> {
        let w = match name {
            "model-deep" => Workload {
                name: "model-deep",
                kind: Kind::Deep,
                spec: "msr:web",
                scale: if smoke { 0.01 } else { 0.1 },
                refs: if smoke { 60_000 } else { 500_000 },
                var_size: false,
                k: 5.0,
                rate: 1.0,
                shards: 1,
                byte_level: false,
                chunk: 4096,
            },
            "model-sampled" => Workload {
                name: "model-sampled",
                kind: Kind::Sampled,
                spec: "twitter:26.0",
                scale: if smoke { 0.5 } else { 10.0 },
                refs: if smoke { 400_000 } else { 10_000_000 },
                var_size: false,
                k: 5.0,
                rate: 0.005,
                shards: 8,
                byte_level: false,
                chunk: if smoke { 1 << 16 } else { 1 << 19 },
            },
            "serve-rw" => Workload {
                name: "serve-rw",
                kind: Kind::Serve,
                spec: "twitter:45.0",
                scale: if smoke { 0.02 } else { 0.25 },
                refs: (SERVE_QPS * seconds).round().max(1_000.0) as usize,
                var_size: true,
                k: 5.0,
                rate: 1.0,
                shards: 2,
                byte_level: true,
                chunk: 1,
            },
            _ => return None,
        };
        Some(w)
    }

    /// The KRR configuration the workload's model runs with.
    pub fn krr(&self) -> KrrConfig {
        let cfg = KrrConfig::new(self.k).sampling(self.rate);
        if self.byte_level {
            cfg.byte_level(2, BYTE_BIN)
        } else {
            cfg
        }
    }

    /// Generates the trace for `seed`.
    pub fn generate(&self, seed: u64) -> Trace {
        let (family, variant) = self.spec.split_once(':').expect("spec is family:variant");
        match family {
            "msr" => {
                let t = msr::MsrTrace::ALL
                    .into_iter()
                    .find(|t| t.name() == variant)
                    .expect("known MSR trace");
                let p = msr::profile(t);
                if self.var_size {
                    p.generate_var_size(self.refs, seed, self.scale)
                } else {
                    p.generate(self.refs, seed, self.scale)
                }
            }
            "twitter" => {
                let c = twitter::TwitterCluster::ALL
                    .into_iter()
                    .find(|c| c.name().trim_start_matches("cluster") == variant)
                    .expect("known Twitter cluster");
                twitter::profile(c).generate(self.refs, seed, self.scale, self.var_size)
            }
            _ => unreachable!("workload specs are msr or twitter"),
        }
    }
}
