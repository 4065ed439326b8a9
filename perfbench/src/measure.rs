//! Measurement plumbing shared by the workloads: the benchmark's own span
//! recorder, the workload interface, order statistics, peak memory and
//! the JSON rendering of metrics.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call into a layer, recorded by the benchmark around a public
/// function of the program. Spans of one item share `item`; `parent` names
/// the span that encloses this one (`None` for a top-level span).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub item: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// The benchmark-side tracer. When off it never reads the clock, so an
/// untraced round pays nothing for the instrumentation points.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Exact counts and simulated quantities gathered at the same
    /// boundaries, summed over every traced round.
    counts: BTreeMap<String, f64>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, origin: Instant::now(), spans: Vec::new(), counts: BTreeMap::new() }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name` (a no-op wrapper when off).
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        item: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let dur_ns = start.elapsed().as_nanos() as u64;
        let start_ns = start.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span { name, parent, item, start_ns, dur_ns });
        out
    }

    /// Records a span measured elsewhere (e.g. on a fleet worker thread).
    pub fn push(&mut self, span: Span) {
        if self.on {
            self.spans.push(span);
        }
    }

    /// Adds `v` to the named count.
    pub fn count(&mut self, name: &str, v: f64) {
        if self.on {
            *self.counts.entry(name.to_owned()).or_insert(0.0) += v;
        }
    }

    pub fn counts(&self) -> &BTreeMap<String, f64> {
        &self.counts
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total milliseconds spent in spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns as f64).sum::<f64>() / 1e6
    }
}

/// What one round of a workload produced.
#[derive(Debug, Default)]
pub struct Round {
    /// Host time of every item, milliseconds.
    pub item_ms: Vec<f64>,
    /// Every violated correctness property, as a message.
    pub violations: Vec<String>,
}

/// A workload as the round loop drives it. Its inputs were generated and
/// its VMs constructed during set-up.
pub trait Workload {
    /// Runs every item of one round once, checking each output.
    fn round(&mut self, tracer: &mut Tracer) -> Round;

    /// Turns the traced rounds' spans and counts into per-layer metrics:
    /// `(name, value, unit)`, times per item unless the name says
    /// otherwise, exact counts per round.
    fn layers(&self, tracer: &Tracer, rounds: usize) -> Vec<(String, f64, &'static str)>;

    /// Span names whose time is attributed to a layer, for the
    /// unattributed remainder. Only top-level spans: children are already
    /// inside their parent.
    fn attributed(&self) -> &'static [&'static str];
}

/// The `q`-quantile (0..=1) of `v` by linear interpolation; `0.0` when
/// empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Renders a metric map as a JSON object body.
pub fn metrics_json(metrics: &[(String, f64, &'static str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { format!("{value}") } else { "0".to_owned() };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}
