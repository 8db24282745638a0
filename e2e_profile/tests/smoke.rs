//! Runs every workload in `--quick` mode, untraced and traced, and checks
//! the output against `BENCHMARK.json`: every metric it names is emitted
//! with its unit, every answer was right, and every file parses.

use obs::json::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

fn read_json(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    obs::json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `name -> unit` of one metric list of `BENCHMARK.json`.
fn declared(bench: &Value, list: &str) -> BTreeMap<String, String> {
    bench
        .get(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Value::as_str).unwrap().to_string(),
                m.get("unit").and_then(Value::as_str).unwrap().to_string(),
            )
        })
        .collect()
}

#[test]
fn quick_run_emits_every_declared_metric() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("e2e_smoke");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("e2e.json");
    let traces = dir.join("traces");
    let status = Command::new(env!("CARGO_BIN_EXE_e2e_profile"))
        .args(["--quick", "--seed", "2"])
        .arg("--out")
        .arg(&out)
        .arg("--trace-dir")
        .arg(&traces)
        .status()
        .expect("run e2e_profile");
    assert!(status.success(), "e2e_profile --quick failed: {status}");

    let bench = read_json(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"));
    let end_to_end = declared(&bench, "end_to_end");
    let per_layer = declared(&bench, "per_layer");
    let workloads: Vec<String> = bench
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect();

    let doc = read_json(&out);
    let runs = doc.get("runs").and_then(Value::as_array).unwrap();
    for traced in [false, true] {
        let want = if traced { &per_layer } else { &end_to_end };
        let mut seen: Vec<String> = Vec::new();
        for run in runs
            .iter()
            .filter(|r| matches!(r.get("trace"), Some(Value::Bool(t)) if *t == traced))
        {
            let w = run.get("workload").and_then(Value::as_str).unwrap();
            seen.push(w.to_string());
            assert!(
                matches!(run.get("correct"), Some(Value::Bool(true))),
                "{w}: not correct"
            );
            assert_eq!(run.get("failed").and_then(Value::as_f64), Some(0.0), "{w}");
            let metrics = run.get("metrics").and_then(Value::as_object).unwrap();
            let got: BTreeMap<String, String> = metrics
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        v.get("unit").and_then(Value::as_str).unwrap().to_string(),
                    )
                })
                .collect();
            assert_eq!(
                &got, want,
                "{w} (traced: {traced}): metrics or units differ"
            );
        }
        seen.sort();
        let mut expected = workloads.clone();
        expected.sort();
        assert_eq!(seen, expected, "traced: {traced}");
    }

    for w in &workloads {
        let trace = read_json(&traces.join(format!("{w}.trace.json")));
        let events = trace.get("traceEvents").and_then(Value::as_array).unwrap();
        assert!(
            events
                .iter()
                .any(|e| e.get("name").and_then(Value::as_str) == Some("request")),
            "{w}: trace has no request spans"
        );
    }
}
