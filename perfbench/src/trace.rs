//! The benchmark's own span recorder.
//!
//! Spans are recorded around the calls the benchmark makes into each
//! layer; a span's name is the per-layer metric it feeds (`sim.launch_s`,
//! `bench.exp_s.fig2`, ...) and its layer is the name up to the first
//! dot. Self time is a span's duration minus the time its direct
//! children cover. Spans stay in memory and are written out as Chrome
//! `trace_event` objects once the run ends. A disabled recorder only
//! calls the closure.

use std::collections::BTreeMap;
use std::time::Instant;

/// One finished span.
struct SpanRec {
    name: String,
    /// Seconds since the recorder's epoch.
    start: f64,
    dur: f64,
    /// Time covered by direct children.
    child: f64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    stack: Vec<usize>,
    spans: Vec<SpanRec>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(SpanRec {
            name: name.to_string(),
            start: self.epoch.elapsed().as_secs_f64(),
            dur: 0.0,
            child: 0.0,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        let dur = self.epoch.elapsed().as_secs_f64() - self.spans[idx].start;
        self.spans[idx].dur = dur;
        if let Some(&parent) = self.stack.last() {
            self.spans[parent].child += dur;
        }
        out
    }

    /// Self time summed per span name.
    pub fn self_times(&self) -> BTreeMap<&str, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name.as_str()).or_insert(0.0) += s.dur - s.child;
        }
        out
    }

    /// Share of the summed duration of spans called `name` that their
    /// children cover (1.0 when there is none).
    pub fn coverage(&self, name: &str) -> f64 {
        let (mut dur, mut child) = (0.0, 0.0);
        for s in self.spans.iter().filter(|s| s.name == name) {
            dur += s.dur;
            child += s.child;
        }
        if dur > 0.0 {
            child / dur
        } else {
            1.0
        }
    }

    /// Spans called `name` whose children leave more than
    /// `max(eps * duration, floor_s)` of them uncovered.
    pub fn gaps(&self, name: &str, eps: f64, floor_s: f64) -> usize {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.dur - s.child > (eps * s.dur).max(floor_s))
            .count()
    }

    /// The spans as comma-joined Chrome `trace_event` objects (pid 2,
    /// beside the program's own campaign spans under pid 1).
    pub fn chrome_events(&self) -> String {
        self.spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":2,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3}}}",
                    s.name,
                    s.start * 1e6,
                    s.dur * 1e6
                )
            })
            .collect::<Vec<_>>()
            .join(",")
    }
}
