//! # `obs` — toolchain-wide observability
//!
//! A zero-external-dependency structured tracing/metrics facade shared by
//! every crate in the HIR toolchain:
//!
//! * **spans** — RAII-timed scopes ([`span`] / [`span_in`]) recorded with
//!   nanosecond start/duration against a process-global epoch, organized
//!   into named *tracks* (one per pipeline stage); nested spans inherit the
//!   enclosing span's track, so a pass timed inside the `opt` stage lands on
//!   the `opt` track without threading context through the pass manager;
//! * **counters** — monotonic, `(scope, name)`-keyed integers
//!   ([`counter_add`]) for quantities like folds applied, simulated cycles,
//!   or memory-port events;
//! * **stats** — per-scope key/value annotations ([`set_stat`]) for
//!   non-monotonic facts (final op counts, configuration echoes);
//! * a **thread-safe global sink** behind a mutex, with snapshot accessors,
//!   an aligned [`stats_table`] renderer, and a [`chrome_trace`] exporter
//!   producing trace-event JSON loadable in `chrome://tracing` / Perfetto.
//!
//! Recording is **off by default** (so library consumers pay one relaxed
//! atomic load per call site); drivers that want measurements call
//! [`set_enabled`]`(true)` and usually [`reset`] first. The paper's Table 6
//! experiment (code-generation time vs. the HLS baseline) and every
//! subsequent performance PR report against the numbers this crate emits.

pub mod hist;
pub mod json;
pub mod remark;
pub mod rex;
pub mod trace;

pub use hist::Histogram;

pub use remark::{
    emit_remark, remarks_enabled, set_remarks_enabled, take_thread as take_thread_remarks, Remark,
    RemarkKind, RemarkValue,
};

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{LazyLock, Mutex};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: LazyLock<Instant> = LazyLock::new(Instant::now);
static SINK: LazyLock<Mutex<Sink>> = LazyLock::new(|| Mutex::new(Sink::default()));

thread_local! {
    /// Stack of (track, depth) for the spans currently open on this thread.
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// One completed span, as stored in the sink.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Track (pipeline stage) this span belongs to.
    pub track: String,
    /// Span name (e.g. `pass canonicalize`).
    pub name: String,
    /// Start time in nanoseconds since the process epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Nesting depth at record time (0 = top level on its thread).
    pub depth: u32,
    /// Free-form key/value annotations (shown in the trace viewer).
    pub args: Vec<(String, String)>,
    /// Explicit Chrome-trace `(pid, tid)` for this span's track, set by
    /// worker threads so each worker renders as its own named track. `None`
    /// keeps the default one-track-per-stage numbering.
    pub pid_tid: Option<(u32, u32)>,
}

/// One counter, as returned by [`counters`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterRecord {
    pub scope: String,
    pub name: String,
    pub value: u64,
}

#[derive(Default)]
struct Sink {
    spans: Vec<SpanRecord>,
    counters: BTreeMap<(String, String), u64>,
    stats: BTreeMap<(String, String), String>,
}

/// Turn recording on or off (off by default). Returns the previous state.
pub fn set_enabled(on: bool) -> bool {
    ENABLED.swap(on, Ordering::SeqCst)
}

/// Whether the sink is currently recording.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clear all recorded spans, counters, and stats (the enabled flag and the
/// time epoch are untouched).
pub fn reset() {
    let mut sink = SINK.lock().unwrap();
    sink.spans.clear();
    sink.counters.clear();
    sink.stats.clear();
}

/// Nanoseconds since the process-global observability epoch.
pub fn now_ns() -> u64 {
    EPOCH.elapsed().as_nanos() as u64
}

/// RAII guard: records a span from construction to drop.
///
/// A disabled sink yields inert guards, so `span(..)` is safe to leave in
/// hot paths.
#[must_use = "a span measures the scope it is bound to; binding it to _ drops it immediately"]
pub struct SpanGuard {
    track: String,
    name: String,
    start_ns: u64,
    depth: u32,
    args: Vec<(String, String)>,
    pid_tid: Option<(u32, u32)>,
    live: bool,
}

impl SpanGuard {
    fn inert() -> Self {
        SpanGuard {
            track: String::new(),
            name: String::new(),
            start_ns: 0,
            depth: 0,
            args: Vec::new(),
            pid_tid: None,
            live: false,
        }
    }

    /// Attach a key/value annotation shown in the trace viewer.
    pub fn arg(&mut self, key: impl Into<String>, value: impl ToString) -> &mut Self {
        if self.live {
            self.args.push((key.into(), value.to_string()));
        }
        self
    }

    /// Pin this span's track to an explicit Chrome-trace `(pid, tid)`.
    /// [`trace::chrome_trace`] gives the whole track that id (taking it from
    /// the first pinned span it sees), so a worker pool can render one named
    /// track per worker instead of the default per-stage numbering.
    pub fn pid_tid(&mut self, pid: u32, tid: u32) -> &mut Self {
        if self.live {
            self.pid_tid = Some((pid, tid));
        }
        self
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        let end = now_ns();
        SPAN_STACK.with(|s| {
            s.borrow_mut().pop();
        });
        let record = SpanRecord {
            track: std::mem::take(&mut self.track),
            name: std::mem::take(&mut self.name),
            start_ns: self.start_ns,
            dur_ns: end.saturating_sub(self.start_ns),
            depth: self.depth,
            args: std::mem::take(&mut self.args),
            pid_tid: self.pid_tid,
        };
        if let Ok(mut sink) = SINK.lock() {
            sink.spans.push(record);
        }
    }
}

/// Open a span on the current track (the innermost enclosing span's track,
/// or `"main"` at top level).
pub fn span(name: impl Into<String>) -> SpanGuard {
    let track = SPAN_STACK.with(|s| s.borrow().last().cloned().unwrap_or_else(|| "main".into()));
    span_in(track, name)
}

/// Open a span on an explicit track (use one track per pipeline stage).
pub fn span_in(track: impl Into<String>, name: impl Into<String>) -> SpanGuard {
    if !enabled() {
        return SpanGuard::inert();
    }
    let track = track.into();
    let depth = SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        stack.push(track.clone());
        (stack.len() - 1) as u32
    });
    SpanGuard {
        track,
        name: name.into(),
        start_ns: now_ns(),
        depth,
        args: Vec::new(),
        pid_tid: None,
        live: true,
    }
}

/// Add `delta` to the monotonic counter `scope.name`.
pub fn counter_add(scope: &str, name: &str, delta: u64) {
    if !enabled() || delta == 0 {
        return;
    }
    let mut sink = SINK.lock().unwrap();
    *sink
        .counters
        .entry((scope.to_string(), name.to_string()))
        .or_insert(0) += delta;
}

/// Current value of counter `scope.name` (0 when never touched).
pub fn counter_value(scope: &str, name: &str) -> u64 {
    let sink = SINK.lock().unwrap();
    sink.counters
        .get(&(scope.to_string(), name.to_string()))
        .copied()
        .unwrap_or(0)
}

/// Record (or overwrite) the per-scope key/value stat `scope.key`.
pub fn set_stat(scope: &str, key: &str, value: impl ToString) {
    if !enabled() {
        return;
    }
    let mut sink = SINK.lock().unwrap();
    sink.stats
        .insert((scope.to_string(), key.to_string()), value.to_string());
}

/// Snapshot of all counters, sorted by (scope, name).
pub fn counters() -> Vec<CounterRecord> {
    let sink = SINK.lock().unwrap();
    sink.counters
        .iter()
        .map(|((scope, name), &value)| CounterRecord {
            scope: scope.clone(),
            name: name.clone(),
            value,
        })
        .collect()
}

/// Snapshot of all per-scope stats, sorted by (scope, key).
pub fn stats() -> Vec<(String, String, String)> {
    let sink = SINK.lock().unwrap();
    sink.stats
        .iter()
        .map(|((s, k), v)| (s.clone(), k.clone(), v.clone()))
        .collect()
}

/// Snapshot of all completed spans, in completion order.
pub fn spans() -> Vec<SpanRecord> {
    SINK.lock().unwrap().spans.clone()
}

/// Human-readable duration (`950ns`, `12.3µs`, `4.56ms`, `1.23s`).
pub fn format_duration_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

/// Render every counter (and per-scope stat) as an aligned summary table.
pub fn stats_table() -> String {
    let counters = counters();
    let stats = stats();
    let mut out = String::new();
    if counters.is_empty() && stats.is_empty() {
        out.push_str("(no observability data recorded)\n");
        return out;
    }
    if !counters.is_empty() {
        let sw = counters
            .iter()
            .map(|c| c.scope.len())
            .max()
            .unwrap_or(5)
            .max("scope".len());
        let nw = counters
            .iter()
            .map(|c| c.name.len())
            .max()
            .unwrap_or(7)
            .max("counter".len());
        let vw = counters
            .iter()
            .map(|c| c.value.to_string().len())
            .max()
            .unwrap_or(5)
            .max("value".len());
        out.push_str(&format!(
            "{:<sw$}  {:<nw$}  {:>vw$}\n",
            "scope", "counter", "value"
        ));
        out.push_str(&format!("{}\n", "-".repeat(sw + nw + vw + 4)));
        for c in &counters {
            out.push_str(&format!(
                "{:<sw$}  {:<nw$}  {:>vw$}\n",
                c.scope, c.name, c.value
            ));
        }
    }
    if !stats.is_empty() {
        if !counters.is_empty() {
            out.push('\n');
        }
        let sw = stats
            .iter()
            .map(|(s, _, _)| s.len())
            .max()
            .unwrap_or(5)
            .max("scope".len());
        let kw = stats
            .iter()
            .map(|(_, k, _)| k.len())
            .max()
            .unwrap_or(4)
            .max("stat".len());
        out.push_str(&format!("{:<sw$}  {:<kw$}  value\n", "scope", "stat"));
        out.push_str(&format!("{}\n", "-".repeat(sw + kw + 9)));
        for (s, k, v) in &stats {
            out.push_str(&format!("{s:<sw$}  {k:<kw$}  {v}\n"));
        }
    }
    out
}

/// Serialize all recorded spans as Chrome trace-event JSON (see [`trace`]).
pub fn chrome_trace() -> String {
    trace::chrome_trace(&spans())
}

/// Machine-readable counterpart of [`stats_table`]: every counter and stat
/// as one JSON object, keys sorted, parseable by the strict [`json`] parser.
///
/// ```json
/// {"counters":{"codegen.modules":3},"stats":{"ir.ops":"42"}}
/// ```
pub fn stats_json() -> String {
    json_object!({
        "counters": {for c in counters() => (format!("{}.{}", c.scope, c.name)): c.value},
        "stats": {for (s, k, v) in stats() => (format!("{s}.{k}")): v},
    }) + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sink and enabled flag are global: serialize tests on one lock and
    /// use unique scope names so asserts only see their own keys.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn with_recording<R>(f: impl FnOnce() -> R) -> R {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        f()
    }

    #[test]
    fn counters_accumulate_and_snapshot() {
        with_recording(|| {
            counter_add("t_counters", "alpha", 2);
            counter_add("t_counters", "alpha", 3);
            counter_add("t_counters", "beta", 1);
            assert_eq!(counter_value("t_counters", "alpha"), 5);
            assert_eq!(counter_value("t_counters", "beta"), 1);
            assert_eq!(counter_value("t_counters", "never"), 0);
            let mine: Vec<_> = counters()
                .into_iter()
                .filter(|c| c.scope == "t_counters")
                .collect();
            assert_eq!(mine.len(), 2);
            assert_eq!(mine[0].name, "alpha"); // sorted
        });
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        counter_add("t_disabled", "x", 7);
        {
            let _s = span_in("t_disabled", "ignored");
        }
        set_enabled(true);
        assert_eq!(counter_value("t_disabled", "x"), 0);
        assert!(spans().iter().all(|s| s.track != "t_disabled"));
    }

    #[test]
    fn spans_nest_and_inherit_track() {
        with_recording(|| {
            {
                let _outer = span_in("t_nest", "outer");
                let _inner = span("inner"); // inherits "t_nest"
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let mine: Vec<_> = spans()
                .into_iter()
                .filter(|s| s.track == "t_nest")
                .collect();
            assert_eq!(mine.len(), 2, "{mine:?}");
            // Inner completes first.
            let inner = &mine[0];
            let outer = &mine[1];
            assert_eq!(inner.name, "inner");
            assert_eq!(inner.track, "t_nest");
            assert_eq!(inner.depth, outer.depth + 1);
            assert!(outer.dur_ns >= inner.dur_ns);
            assert!(inner.start_ns >= outer.start_ns);
            assert!(
                inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns,
                "inner span must be contained in outer"
            );
        });
    }

    #[test]
    fn span_args_are_recorded() {
        with_recording(|| {
            {
                let mut s = span_in("t_args", "with-args");
                s.arg("ops", 42).arg("result", "changed");
            }
            let mine: Vec<_> = spans()
                .into_iter()
                .filter(|s| s.track == "t_args")
                .collect();
            assert_eq!(mine[0].args.len(), 2);
            assert_eq!(mine[0].args[0], ("ops".into(), "42".into()));
        });
    }

    #[test]
    fn stats_table_is_aligned() {
        with_recording(|| {
            counter_add("t_table_scope_long", "counter_name", 12345);
            counter_add("t", "c", 1);
            set_stat("t_table_scope_long", "note", "hello");
            let table = stats_table();
            assert!(table.contains("t_table_scope_long"));
            // Every counter row has the value right-aligned in one column:
            // find the two rows and check the value column end-aligns.
            let rows: Vec<&str> = table
                .lines()
                .filter(|l| {
                    l.starts_with("t_table_scope_long  counter_name")
                        || (l.starts_with("t ") && l.contains("  c  "))
                })
                .collect();
            assert_eq!(rows.len(), 2, "{table}");
            assert_eq!(rows[0].len(), rows[1].len(), "rows end-aligned:\n{table}");
            assert!(table.contains("hello"));
        });
    }

    #[test]
    fn format_duration_scales() {
        assert_eq!(format_duration_ns(950), "950ns");
        assert_eq!(format_duration_ns(12_300), "12.3µs");
        assert_eq!(format_duration_ns(4_560_000), "4.56ms");
        assert_eq!(format_duration_ns(1_230_000_000), "1.23s");
    }
}
