//! End-to-end one-pass profiler throughput — KRR (±spatial) vs the
//! exact-LRU baselines (Olken, SHARDS) — the comparison behind
//! Table 5.4. Gated behind the `bench-ext` feature (long-running).
//!
//! Pass `--metrics` to also dump the KRR run's metrics snapshot.

use krr_baselines::{OlkenLru, Shards};
use krr_bench::microbench::Suite;
use krr_core::metrics::MetricsRegistry;
use krr_core::{KrrConfig, KrrModel};
use std::sync::Arc;

fn trace() -> Vec<u64> {
    let z = krr_trace::Zipf::new(200_000, 0.99);
    let mut rng = krr_core::rng::Xoshiro256::seed_from_u64(7);
    (0..300_000).map(|_| z.sample(&mut rng)).collect()
}

fn main() {
    let dump_metrics = std::env::args().any(|a| a == "--metrics");
    let registry = dump_metrics.then(|| Arc::new(MetricsRegistry::new()));
    let trace = trace();
    let mut suite = Suite::new("profilers");
    suite.throughput(trace.len() as u64);

    suite.bench("krr_backward_k5", || {
        let mut m = KrrModel::new(KrrConfig::new(5.0).seed(1));
        if let Some(reg) = &registry {
            m.set_metrics(Arc::clone(reg));
        }
        for &k in &trace {
            m.access_key(k);
        }
        m.histogram().total()
    });
    suite.bench("krr_backward_k5_spatial_0.05", || {
        let mut m = KrrModel::new(KrrConfig::new(5.0).sampling(0.05).seed(2));
        for &k in &trace {
            m.access_key(k);
        }
        m.histogram().total()
    });
    suite.bench("olken", || {
        let mut o = OlkenLru::new();
        for &k in &trace {
            o.access_key(k);
        }
        o.distinct()
    });
    suite.bench("shards_0.05", || {
        let mut s = Shards::new(0.05);
        for &k in &trace {
            s.access_key(k);
        }
        s.counts().0
    });
    suite.finish();
    if let Some(reg) = &registry {
        println!("{}", reg.snapshot().render_info());
    }
}
