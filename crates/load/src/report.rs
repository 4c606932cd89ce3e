//! The `krr-load-v1` result document.
//!
//! One load run produces one [`LoadReport`]: achieved vs target QPS,
//! latency percentiles from the harness's log2 histograms, error counts,
//! and a per-phase breakdown (one row per schedule phase, so ramp and
//! flash-crowd runs expose how each rate segment fared). The A/B section
//! carries the profiling-on vs profiling-off tail-latency comparison when
//! the run was a paired experiment.
//!
//! Like `krr-metrics-v1`, the JSON schema may only grow: the golden key
//! set is locked in `tests/load_schema.rs`.

use krr_core::metrics::HistogramSnapshot;
use std::fmt::Write as _;

/// Latency summary of one histogram, in nanoseconds. Percentiles are
/// bucket estimates with in-bucket interpolation
/// ([`HistogramSnapshot::percentile_interp`]).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySummary {
    /// Mean latency.
    pub mean_ns: f64,
    /// Median.
    pub p50_ns: f64,
    /// 99th percentile.
    pub p99_ns: f64,
    /// 99.9th percentile.
    pub p999_ns: f64,
    /// Largest observed latency (exact, not a bucket bound).
    pub max_ns: u64,
    /// Number of recorded latencies.
    pub count: u64,
}

impl LatencySummary {
    /// Summarizes a histogram snapshot.
    #[must_use]
    pub fn from_snapshot(s: &HistogramSnapshot) -> Self {
        Self {
            mean_ns: s.mean(),
            p50_ns: s.percentile_interp(0.50),
            p99_ns: s.percentile_interp(0.99),
            p999_ns: s.percentile_interp(0.999),
            max_ns: s.max,
            count: s.count,
        }
    }

    fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"mean\":{:.1},\"p50\":{:.1},\"p99\":{:.1},\"p999\":{:.1},\"max\":{},\"count\":{}}}",
            self.mean_ns, self.p50_ns, self.p99_ns, self.p999_ns, self.max_ns, self.count
        );
    }
}

/// Per-phase slice of a load run.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseReport {
    /// Phase label from the schedule (`steady`, `burst`, `ramp-1.3x`, ...).
    pub name: String,
    /// The rate this phase aimed for.
    pub target_qps: f64,
    /// The rate the dispatcher achieved inside the phase.
    pub achieved_qps: f64,
    /// Requests dispatched in this phase.
    pub requests: u64,
    /// RESP-level error replies plus I/O failures in this phase.
    pub errors: u64,
    /// Latency summary of this phase.
    pub latency_ns: LatencySummary,
}

/// The A/B tail-latency comparison: the same seeded schedule driven
/// against a server with MRC profiling + live scraping off vs on.
#[derive(Debug, Clone, PartialEq)]
pub struct AbReport {
    /// False when the run was not an A/B experiment (all other fields 0).
    pub enabled: bool,
    /// p99 with profiling and scraping off.
    pub off_p99_ns: f64,
    /// p99 with profiling and scraping on.
    pub on_p99_ns: f64,
    /// p999 with profiling and scraping off.
    pub off_p999_ns: f64,
    /// p999 with profiling and scraping on.
    pub on_p999_ns: f64,
    /// `(on/off - 1) · 100`.
    pub delta_pct: f64,
    /// The regression budget the benchmark gates on.
    pub limit_pct: f64,
}

impl AbReport {
    /// An empty section for single-sided runs.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            off_p99_ns: 0.0,
            on_p99_ns: 0.0,
            off_p999_ns: 0.0,
            on_p999_ns: 0.0,
            delta_pct: 0.0,
            limit_pct: 0.0,
        }
    }

    /// Builds the comparison from the two runs' overall p99s (p999s
    /// zero until [`AbReport::with_p999`] sets them).
    #[must_use]
    pub fn compare(off_p99_ns: f64, on_p99_ns: f64, limit_pct: f64) -> Self {
        let delta_pct = if off_p99_ns > 0.0 {
            (on_p99_ns / off_p99_ns - 1.0) * 100.0
        } else {
            0.0
        };
        Self {
            enabled: true,
            off_p99_ns,
            on_p99_ns,
            off_p999_ns: 0.0,
            on_p999_ns: 0.0,
            delta_pct,
            limit_pct,
        }
    }

    /// Records the two runs' overall p999s.
    #[must_use]
    pub fn with_p999(self, off_p999_ns: f64, on_p999_ns: f64) -> Self {
        Self {
            off_p999_ns,
            on_p999_ns,
            ..self
        }
    }
}

/// The full `krr-load-v1` document for one load run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Arrival process name (`constant|poisson|ramp|burst`).
    pub arrival: String,
    /// Overall target rate.
    pub target_qps: f64,
    /// Overall dispatch rate actually achieved (requests over the span
    /// from first to last send).
    pub achieved_qps: f64,
    /// Requests dispatched.
    pub requests: u64,
    /// RESP connections used.
    pub connections: u64,
    /// Pipelining depth (writes per flush ceiling; 1 = none).
    pub pipeline_depth: u64,
    /// Wall time from first dispatch to last reply, ns.
    pub duration_ns: u64,
    /// Error replies plus I/O failures across the run.
    pub errors: u64,
    /// Overall latency summary (scheduled-dispatch to reply, so queueing
    /// delay from a lagging sender is included — no coordinated omission).
    pub latency_ns: LatencySummary,
    /// One row per schedule phase.
    pub phases: Vec<PhaseReport>,
    /// A/B comparison section ([`AbReport::disabled`] for plain runs).
    pub ab: AbReport,
}

impl LoadReport {
    /// Renders the document as one-line `krr-load-v1` JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        let _ = write!(
            out,
            "{{\"schema\":\"krr-load-v1\",\"arrival\":\"{}\",\
             \"target_qps\":{:.1},\"achieved_qps\":{:.1},\"requests\":{},\
             \"connections\":{},\"pipeline_depth\":{},\"duration_ns\":{},\
             \"errors\":{},\"latency_ns\":",
            self.arrival,
            self.target_qps,
            self.achieved_qps,
            self.requests,
            self.connections,
            self.pipeline_depth,
            self.duration_ns,
            self.errors,
        );
        self.latency_ns.write_json(&mut out);
        out.push_str(",\"phases\":[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"target_qps\":{:.1},\"achieved_qps\":{:.1},\
                 \"requests\":{},\"errors\":{},\"latency_ns\":",
                p.name, p.target_qps, p.achieved_qps, p.requests, p.errors
            );
            p.latency_ns.write_json(&mut out);
            out.push('}');
        }
        let _ = write!(
            out,
            "],\"ab\":{{\"enabled\":{},\"off_p99_ns\":{:.1},\"on_p99_ns\":{:.1},\
             \"delta_pct\":{:.3},\"limit_pct\":{:.1},\"off_p999_ns\":{:.1},\
             \"on_p999_ns\":{:.1}}}}}",
            self.ab.enabled,
            self.ab.off_p99_ns,
            self.ab.on_p99_ns,
            self.ab.delta_pct,
            self.ab.limit_pct,
            self.ab.off_p999_ns,
            self.ab.on_p999_ns
        );
        out
    }

    /// Human-readable multi-line summary for terminals.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} arrivals: {} requests over {} connections (pipeline {})",
            self.arrival, self.requests, self.connections, self.pipeline_depth
        );
        let _ = writeln!(
            out,
            "qps: target {:.0}, achieved {:.0} ({:+.1}%)",
            self.target_qps,
            self.achieved_qps,
            (self.achieved_qps / self.target_qps - 1.0) * 100.0
        );
        let _ = writeln!(
            out,
            "latency: p50 {:.0}µs  p99 {:.0}µs  p999 {:.0}µs  max {:.0}µs  errors {}",
            self.latency_ns.p50_ns / 1e3,
            self.latency_ns.p99_ns / 1e3,
            self.latency_ns.p999_ns / 1e3,
            self.latency_ns.max_ns as f64 / 1e3,
            self.errors
        );
        if self.phases.len() > 1 {
            for p in &self.phases {
                let _ = writeln!(
                    out,
                    "  phase {:<10} target {:>8.0} qps, achieved {:>8.0}, p99 {:>7.0}µs, {} reqs",
                    p.name,
                    p.target_qps,
                    p.achieved_qps,
                    p.latency_ns.p99_ns / 1e3,
                    p.requests
                );
            }
        }
        if self.ab.enabled {
            let _ = writeln!(
                out,
                "A/B: p99 off {:.0}µs -> on {:.0}µs ({:+.2}%, budget {:.0}%); \
                 p999 off {:.0}µs -> on {:.0}µs",
                self.ab.off_p99_ns / 1e3,
                self.ab.on_p99_ns / 1e3,
                self.ab.delta_pct,
                self.ab.limit_pct,
                self.ab.off_p999_ns / 1e3,
                self.ab.on_p999_ns / 1e3
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use krr_core::metrics::LogHistogram;

    fn sample_report() -> LoadReport {
        let h = LogHistogram::new();
        for v in [100, 200, 400, 800, 100_000] {
            h.record(v);
        }
        let lat = LatencySummary::from_snapshot(&h.snapshot());
        LoadReport {
            arrival: "burst".into(),
            target_qps: 10_000.0,
            achieved_qps: 9_900.0,
            requests: 5,
            connections: 2,
            pipeline_depth: 8,
            duration_ns: 500_000,
            errors: 0,
            latency_ns: lat.clone(),
            phases: vec![
                PhaseReport {
                    name: "base".into(),
                    target_qps: 5_000.0,
                    achieved_qps: 5_100.0,
                    requests: 3,
                    errors: 0,
                    latency_ns: lat.clone(),
                },
                PhaseReport {
                    name: "burst".into(),
                    target_qps: 55_000.0,
                    achieved_qps: 54_000.0,
                    requests: 2,
                    errors: 0,
                    latency_ns: lat,
                },
            ],
            ab: AbReport::compare(1000.0, 1050.0, 10.0),
        }
    }

    #[test]
    fn json_is_balanced_and_tagged() {
        let json = sample_report().to_json();
        assert!(json.starts_with("{\"schema\":\"krr-load-v1\""));
        assert_eq!(
            json.matches(['{', '[']).count(),
            json.matches(['}', ']']).count()
        );
        assert!(json.contains("\"ab\":{\"enabled\":true"));
    }

    #[test]
    fn ab_delta_math() {
        let ab = AbReport::compare(1000.0, 1100.0, 10.0);
        assert!((ab.delta_pct - 10.0).abs() < 1e-9);
        let ab = AbReport::compare(0.0, 1.0, 10.0);
        assert_eq!(ab.delta_pct, 0.0);
        assert!(!AbReport::disabled().enabled);
    }

    #[test]
    fn text_render_mentions_phases_and_ab() {
        let text = sample_report().render_text();
        assert!(text.contains("phase base"));
        assert!(text.contains("A/B: p99"));
    }
}
