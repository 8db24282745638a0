//! The benchmark's own span recorder.
//!
//! Spans wrap the benchmark's calls into each layer's public function; they
//! are kept in memory and written out only after the run. The recorder is
//! local to the benchmark (the program's own `obs` instrumentation stays
//! disabled), so a disabled tracer costs one branch per call.

use std::collections::BTreeMap;
use std::time::Instant;

/// One completed (or still open) span.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    parent: Option<usize>,
    /// Request the span belongs to.
    request: u64,
}

/// Records spans and summed counters for one phase of a run.
pub struct Tracer {
    spans_on: bool,
    counts_on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    fn new(spans_on: bool, counts_on: bool) -> Self {
        Tracer {
            spans_on,
            counts_on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
            counters: BTreeMap::new(),
        }
    }

    /// Records nothing: the untraced timed loop.
    pub fn off() -> Self {
        Self::new(false, false)
    }

    /// Sums counters but records no spans: the warmup pass that collects
    /// exact counts.
    pub fn counting() -> Self {
        Self::new(false, true)
    }

    /// Records spans and counters: the traced run.
    pub fn recording() -> Self {
        Self::new(true, true)
    }

    /// Tag subsequent spans with request `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.spans_on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Add `v` to counter `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        if self.counts_on {
            *self.counters.entry(name).or_default() += v;
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Self time per span name, in nanoseconds: each span's duration minus
    /// the part of it its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_default() += (s.end_ns - s.start_ns).saturating_sub(c);
        }
        out
    }

    /// Total duration of the root spans named `name`, in nanoseconds.
    pub fn root_total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// The spans as a Chrome trace-event document (one track; nesting is by
    /// time, and each event carries its request id and parent index).
    pub fn chrome_trace(&self, track: &str) -> String {
        let records: Vec<obs::SpanRecord> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut depth = 0;
                let mut p = s.parent;
                while let Some(q) = p {
                    depth += 1;
                    p = self.spans[q].parent;
                }
                let mut args = vec![
                    ("request".to_string(), s.request.to_string()),
                    ("id".to_string(), i.to_string()),
                ];
                if let Some(p) = s.parent {
                    args.push(("parent".to_string(), p.to_string()));
                }
                obs::SpanRecord {
                    track: track.to_string(),
                    name: s.name.to_string(),
                    start_ns: s.start_ns,
                    dur_ns: s.end_ns - s.start_ns,
                    depth,
                    args,
                    pid_tid: None,
                }
            })
            .collect();
        obs::trace::chrome_trace(&records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children_and_sums_to_the_root() {
        let mut tr = Tracer::recording();
        tr.set_request(7);
        tr.span("request", |tr| {
            tr.span("a", |_| spin(200_000));
            tr.span("b", |tr| tr.span("c", |_| spin(100_000)));
        });
        let self_ns = tr.self_times();
        let total: u64 = self_ns.values().sum();
        assert_eq!(total, tr.root_total_ns("request"));
        assert!(self_ns["a"] >= 200_000);
        assert!(self_ns["c"] >= 100_000);
        assert!(self_ns["b"] < self_ns["c"]);
        assert!(tr.spans.iter().all(|s| s.request == 7));
        let doc = tr.chrome_trace("t");
        obs::json::parse(&doc).expect("chrome trace is valid JSON");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::off();
        let v = tr.span("x", |tr| {
            tr.add("n", 1.0);
            3
        });
        assert_eq!(v, 3);
        assert!(tr.spans.is_empty());
        assert_eq!(tr.counter("n"), 0.0);
    }
}
