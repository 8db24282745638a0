//! Chrome trace-event serialization.
//!
//! Emits the JSON Object Format of the Trace Event spec: a `traceEvents`
//! array of complete (`"ph":"X"`) events plus `thread_name` metadata, one
//! *thread* (track) per pipeline stage, so `chrome://tracing` and Perfetto
//! render each stage as its own row with passes nested inside it by time.
//! Counter tracks (`"ph":"C"`) can ride along via
//! [`chrome_trace_with_counters`], rendering as stacked area charts.

use crate::json::{Fixed, Writer};
use crate::{json_object, SpanRecord};

/// One sample on a Chrome counter track (`"ph":"C"`): the values of one or
/// more named series at a point in time. Consecutive points on the same
/// track draw as a step chart in the viewer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterPoint {
    /// Counter track name (the `name` of the `"C"` event).
    pub track: String,
    /// Sample time in nanoseconds since the process epoch.
    pub ts_ns: u64,
    /// `(series, value)` pairs plotted together on this track.
    pub series: Vec<(String, u64)>,
    /// Explicit `(pid, tid)`; `None` places the counter on pid 1, tid 0
    /// (counters are process-scoped in the viewer, the tid is cosmetic).
    pub pid_tid: Option<(u32, u32)>,
}

/// Serialize spans as a Chrome trace-event JSON document.
///
/// By default tracks are assigned `pid` 1 and thread ids in order of first
/// appearance. A track whose spans carry an explicit
/// [`SpanRecord::pid_tid`] (see [`crate::SpanGuard::pid_tid`]) uses that id
/// instead — the first pinned span seen wins for the whole track — which is
/// how pass-pipeline worker threads each get their own named row. Each
/// distinct `(pid, tid)` gets exactly one `thread_name` metadata record (the
/// first track claiming the id names it), so viewers show stage/worker
/// names instead of numeric tids without duplicate metadata when several
/// tracks share an id. Timestamps are microseconds with nanosecond
/// precision kept in the fraction.
pub fn chrome_trace(spans: &[SpanRecord]) -> String {
    chrome_trace_with_counters(spans, &[])
}

/// [`chrome_trace`] plus counter (`"ph":"C"`) events appended after the
/// span events, sorted by timestamp then input order. Series values are
/// emitted in the order given on each [`CounterPoint`].
pub fn chrome_trace_with_counters(spans: &[SpanRecord], counters: &[CounterPoint]) -> String {
    let mut tracks: Vec<&str> = Vec::new();
    for s in spans {
        if !tracks.iter().any(|t| *t == s.track) {
            tracks.push(&s.track);
        }
    }
    let ids: Vec<(u32, u32)> = tracks
        .iter()
        .enumerate()
        .map(|(i, t)| {
            spans
                .iter()
                .find_map(|s| (s.track == **t).then_some(s.pid_tid).flatten())
                .unwrap_or((1, i as u32 + 1))
        })
        .collect();
    let id_of = |track: &str| ids[tracks.iter().position(|t| *t == track).unwrap()];

    let mut w = Writer::default();
    w.begin_object();
    w.key("traceEvents");
    w.begin_array_per_line();
    // One thread_name record per (pid, tid): the first track claiming an id
    // names it; later tracks resolving to the same id emit no duplicate.
    let mut named: Vec<(u32, u32)> = Vec::new();
    for (t, &(pid, tid)) in tracks.iter().zip(&ids) {
        if named.contains(&(pid, tid)) {
            continue;
        }
        named.push((pid, tid));
        json_object!(&mut w, {
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid, "args": {"name": t},
        });
    }

    // Sort by start time so viewers that expect ordered input are happy.
    let mut ordered: Vec<&SpanRecord> = spans.iter().collect();
    ordered.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.dur_ns)));
    for s in ordered {
        let (pid, tid) = id_of(&s.track);
        json_object!(&mut w, {
            "name": s.name, "cat": s.track, "ph": "X", "ts": micros(s.start_ns),
            "dur": micros(s.dur_ns), "pid": pid, "tid": tid, "args": {for (k, v) in &s.args => k: v},
        });
    }

    let mut ordered_counters: Vec<&CounterPoint> = counters.iter().collect();
    ordered_counters.sort_by_key(|c| c.ts_ns);
    for c in ordered_counters {
        let (pid, tid) = c.pid_tid.unwrap_or((1, 0));
        json_object!(&mut w, {
            "name": c.track, "ph": "C", "ts": micros(c.ts_ns), "pid": pid, "tid": tid,
            "args": {for (k, v) in &c.series => k: v},
        });
    }
    w.end();
    w.key("displayTimeUnit");
    w.string("ms");
    w.end();
    w.finish() + "\n"
}

/// Nanoseconds as microseconds, with nanosecond precision in the fraction.
fn micros(ns: u64) -> Fixed<3> {
    Fixed(ns as f64 / 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn record(track: &str, name: &str, start_ns: u64, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            track: track.into(),
            name: name.into(),
            start_ns,
            dur_ns,
            depth: 0,
            args: vec![("k".into(), "v\"1".into())],
            pid_tid: None,
        }
    }

    #[test]
    fn trace_parses_and_has_one_track_per_stage() {
        let spans = vec![
            record("parse", "parse file", 0, 1_000),
            record("opt", "pass cse", 2_000, 500),
            record("opt", "pass fold", 2_600, 400),
        ];
        let text = chrome_trace(&spans);
        let doc = json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        // 2 thread_name metadata + 3 spans.
        assert_eq!(events.len(), 5);
        let metas: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M"))
            .collect();
        assert_eq!(metas.len(), 2);
        let span_events: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .collect();
        assert_eq!(span_events.len(), 3);
        // Both opt spans share a tid, distinct from parse's.
        let tid_of = |name: &str| {
            span_events
                .iter()
                .find(|e| e.get("name").unwrap().as_str() == Some(name))
                .unwrap()
                .get("tid")
                .unwrap()
                .as_f64()
                .unwrap()
        };
        assert_eq!(tid_of("pass cse"), tid_of("pass fold"));
        assert_ne!(tid_of("parse file"), tid_of("pass cse"));
        // Microsecond timestamps preserve sub-µs precision.
        let cse = span_events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("pass cse"))
            .unwrap();
        assert_eq!(cse.get("ts").unwrap().as_f64(), Some(2.0));
        assert_eq!(cse.get("dur").unwrap().as_f64(), Some(0.5));
    }

    #[test]
    fn empty_trace_is_valid_json() {
        let doc = json::parse(&chrome_trace(&[])).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_array().unwrap().len(), 0);
    }

    #[test]
    fn default_tracks_keep_sequential_tids() {
        // Regression: with no explicit ids the old one-track-per-stage
        // numbering (pid 1, tids 1..) must be preserved exactly.
        let spans = vec![
            record("parse", "parse file", 0, 1_000),
            record("opt", "pass cse", 2_000, 500),
        ];
        let text = chrome_trace(&spans);
        let doc = json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        for e in events {
            assert_eq!(e.get("pid").unwrap().as_f64(), Some(1.0));
        }
        let tid_of = |name: &str| {
            events
                .iter()
                .find(|e| {
                    e.get("ph").and_then(|p| p.as_str()) == Some("X")
                        && e.get("name").unwrap().as_str() == Some(name)
                })
                .unwrap()
                .get("tid")
                .unwrap()
                .as_f64()
                .unwrap()
        };
        assert_eq!(tid_of("parse file"), 1.0);
        assert_eq!(tid_of("pass cse"), 2.0);
    }

    #[test]
    fn explicit_pid_tid_pins_the_whole_track() {
        let mut w0 = record("worker 0", "@gemm pipeline", 0, 900);
        w0.pid_tid = Some((1, 1001));
        // A nested pass span on the same track without an explicit id still
        // inherits the worker's pinned tid.
        let inner = record("worker 0", "pass hir-cse", 100, 200);
        let auto = record("opt", "pass fold", 2_000, 100);
        let text = chrome_trace(&[w0, inner, auto]);
        let doc = json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let span_events: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .collect();
        let tid_of = |name: &str| {
            span_events
                .iter()
                .find(|e| e.get("name").unwrap().as_str() == Some(name))
                .unwrap()
                .get("tid")
                .unwrap()
                .as_f64()
                .unwrap()
        };
        assert_eq!(tid_of("@gemm pipeline"), 1001.0);
        assert_eq!(tid_of("pass hir-cse"), 1001.0);
        assert_eq!(tid_of("pass fold"), 2.0, "auto track keeps its position");
        // The worker track's thread_name metadata carries the pinned tid.
        let meta = events
            .iter()
            .find(|e| {
                e.get("ph").and_then(|p| p.as_str()) == Some("M")
                    && e.get("args").and_then(|a| a.get("name")).unwrap().as_str()
                        == Some("worker 0")
            })
            .unwrap();
        assert_eq!(meta.get("tid").unwrap().as_f64(), Some(1001.0));
    }

    #[test]
    fn shared_pid_tid_emits_metadata_once() {
        // Two distinct tracks pinned to the same (pid, tid): only the first
        // names the thread; no duplicate thread_name records.
        let mut a = record("worker 0", "@a pipeline", 0, 100);
        a.pid_tid = Some((1, 7));
        let mut b = record("worker 0 (retry)", "@b pipeline", 200, 100);
        b.pid_tid = Some((1, 7));
        let text = chrome_trace(&[a, b]);
        let doc = json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let metas: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M"))
            .collect();
        assert_eq!(metas.len(), 1, "one metadata record per (pid,tid)");
        assert_eq!(
            metas[0].get("args").unwrap().get("name").unwrap().as_str(),
            Some("worker 0")
        );
    }

    #[test]
    fn counter_events_parse_and_sort_by_time() {
        let spans = vec![record("sim", "run", 0, 10_000)];
        let counters = vec![
            CounterPoint {
                track: "sched/dirty".into(),
                ts_ns: 4_000,
                series: vec![("cones".into(), 3)],
                pid_tid: None,
            },
            CounterPoint {
                track: "sched/dirty".into(),
                ts_ns: 1_000,
                series: vec![("cones".into(), 5)],
                pid_tid: None,
            },
        ];
        let text = chrome_trace_with_counters(&spans, &counters);
        let doc = json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let cs: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("C"))
            .collect();
        assert_eq!(cs.len(), 2);
        assert_eq!(cs[0].get("ts").unwrap().as_f64(), Some(1.0));
        assert_eq!(cs[1].get("ts").unwrap().as_f64(), Some(4.0));
        assert_eq!(
            cs[0].get("args").unwrap().get("cones").unwrap().as_f64(),
            Some(5.0)
        );
        assert_eq!(cs[0].get("name").unwrap().as_str(), Some("sched/dirty"));
    }

    #[test]
    fn counter_trace_bytes_are_pinned() {
        let mut pinned = record("worker 0", "@f pipeline", 1_500, 250);
        pinned.pid_tid = Some((1, 7));
        let spans = vec![record("sim", "run", 0, 10_000), pinned];
        let counters = vec![
            CounterPoint {
                track: "sched/dirty".into(),
                ts_ns: 4_000,
                series: vec![("cones".into(), 3), ("nets".into(), 12)],
                pid_tid: Some((2, 9)),
            },
            CounterPoint {
                track: "sched/dirty".into(),
                ts_ns: 1_000,
                series: vec![("cones".into(), 5)],
                pid_tid: None,
            },
        ];
        let want = concat!(
            "{\"traceEvents\":[\n",
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"sim"}},"#,
            "\n",
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":7,"args":{"name":"worker 0"}},"#,
            "\n",
            r#"{"name":"run","cat":"sim","ph":"X","ts":0.000,"dur":10.000,"pid":1,"tid":1,"args":{"k":"v\"1"}},"#,
            "\n",
            r#"{"name":"@f pipeline","cat":"worker 0","ph":"X","ts":1.500,"dur":0.250,"pid":1,"tid":7,"args":{"k":"v\"1"}},"#,
            "\n",
            r#"{"name":"sched/dirty","ph":"C","ts":1.000,"pid":1,"tid":0,"args":{"cones":5}},"#,
            "\n",
            r#"{"name":"sched/dirty","ph":"C","ts":4.000,"pid":2,"tid":9,"args":{"cones":3,"nets":12}}"#,
            "\n],\"displayTimeUnit\":\"ms\"}\n"
        );
        assert_eq!(chrome_trace_with_counters(&spans, &counters), want);
        assert_eq!(
            chrome_trace(&[]),
            "{\"traceEvents\":[\n\n],\"displayTimeUnit\":\"ms\"}\n"
        );
    }
}
