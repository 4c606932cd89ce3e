//! Result reporting: the metric table, the one-line JSON result, and the
//! harness's own layer spans written out as Chrome trace-event JSON.

use std::fmt::Write as _;
use std::time::Instant;

/// One printed metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Operations attempted, run-level checks included.
    pub attempted: u64,
    /// Operations or checks that failed.
    pub failed: u64,
    /// Human-readable check lines, printed before the metric table.
    pub checks: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records one run-level correctness check.
    pub fn check(&mut self, ok: bool, what: String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.checks.push(format!(
            "check {}: {what}",
            if ok { "ok  " } else { "FAIL" }
        ));
    }

    /// Counts `n` operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// The last stdout line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// One harness span: a call into a layer, timed from outside it.
struct Span {
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
    id: u64,
    parent: u64,
}

/// The harness's span log. Spans stay in memory and are written out when
/// the run ends; ids start at 1 so 0 means "no parent".
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a span from `start` to `end` under `parent` and returns its id.
    pub fn record(&mut self, name: &'static str, parent: u64, start: Instant, end: Instant) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            name,
            start_ns: start.saturating_duration_since(self.t0).as_nanos() as u64,
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
            id,
            parent,
        });
        id
    }

    /// Opens a span that [`Spans::end`] closes; children may name it as
    /// their parent in between.
    pub fn begin(&mut self, name: &'static str, parent: u64) -> u64 {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    pub fn end(&mut self, id: u64) {
        let s = &mut self.spans[id as usize - 1];
        s.dur_ns = (self.t0.elapsed().as_nanos() as u64).saturating_sub(s.start_ns);
    }

    /// Self time of every span name: its duration minus what its child
    /// spans cover, summed per name, in nanoseconds.
    pub fn self_ns(&self) -> Vec<(&'static str, u64)> {
        let mut child = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            if s.parent != 0 {
                child[s.parent as usize] += s.dur_ns;
            }
        }
        let mut out: Vec<(&'static str, u64)> = Vec::new();
        for s in &self.spans {
            let own = s.dur_ns.saturating_sub(child[s.id as usize]);
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, ns)) => *ns += own,
                None => out.push((s.name, own)),
            }
        }
        out
    }

    /// Chrome trace-event JSON (loadable in Perfetto).
    pub fn chrome_json(&self) -> String {
        let mut s = String::from("{\"traceEvents\":[");
        for (i, sp) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                sp.name,
                sp.start_ns as f64 / 1e3,
                sp.dur_ns as f64 / 1e3,
                sp.id,
                sp.parent
            );
        }
        s.push_str("]}");
        s
    }
}

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 1]`).
pub fn pct(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a set of measurements.
pub fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// 64-bit FNV-1a over the exact bits of an MRC's points.
pub fn mrc_digest(points: &[(f64, f64)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &(x, y) in points {
        for b in x
            .to_bits()
            .to_le_bytes()
            .into_iter()
            .chain(y.to_bits().to_le_bytes())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}
