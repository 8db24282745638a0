//! `e2e_profile compare PARENT.json CHANGE.json`: the verdict for every
//! (end-to-end metric, workload) pair of two `--out` files, using the bounds
//! in `BENCHMARK.json`.

use crate::stats::{self, Better, Verdict};
use obs::json::Value;

struct Bound {
    name: String,
    better: Better,
    bound: f64,
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    obs::json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn bounds(bench: &Value) -> Result<Vec<Bound>, String> {
    let list = bench
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without name")?;
            let better = match m.get("better").and_then(Value::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                _ => return Err(format!("{name}: better must be lower or higher")),
            };
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{name}: missing bound"))?;
            Ok(Bound {
                name: name.to_string(),
                better,
                bound,
            })
        })
        .collect()
}

/// Untraced values of `metric` on `workload`, in run order.
fn values(doc: &Value, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("runs")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
        .filter(|r| !matches!(r.get("trace"), Some(Value::Bool(true))))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn workloads(doc: &Value) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for r in doc.get("runs").and_then(Value::as_array).unwrap_or(&[]) {
        if let Some(w) = r.get("workload").and_then(Value::as_str) {
            if !out.iter().any(|x| x == w) {
                out.push(w.to_string());
            }
        }
    }
    out
}

/// Returns `Ok(true)` when no pair regressed or stayed unresolved.
///
/// # Errors
/// Unreadable inputs or a malformed `BENCHMARK.json`.
pub fn main(args: &[String]) -> Result<bool, String> {
    let [parent_path, change_path] = args else {
        return Err("compare needs PARENT.json and CHANGE.json".into());
    };
    let bench_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let bounds = bounds(&load(bench_path)?)?;
    let (parent, change) = (load(parent_path)?, load(change_path)?);

    println!(
        "{:<14} {:<16} {:>30} {:>30} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    let mut tally = [0usize; 4];
    for w in workloads(&parent) {
        for b in &bounds {
            let (p, c) = (values(&parent, &w, &b.name), values(&change, &w, &b.name));
            if p.is_empty() || c.is_empty() {
                println!("{w:<14} {:<16} missing from one side", b.name);
                tally[3] += 1;
                continue;
            }
            let v = stats::verdict(&p, &c, b.better, b.bound);
            let (wins, pairs) = stats::pair_wins(&p, &c, b.better);
            let (pq1, pm, pq3) = stats::quartiles(&p);
            let (cq1, cm, cq3) = stats::quartiles(&c);
            println!(
                "{w:<14} {:<16} {:>30} {:>30} {:>6}  {}",
                b.name,
                format!("{pm:.4} [{pq1:.4}, {pq3:.4}]"),
                format!("{cm:.4} [{cq1:.4}, {cq3:.4}]"),
                format!("{wins}/{pairs}"),
                v.label()
            );
            tally[match v {
                Verdict::Improved => 0,
                Verdict::Unchanged => 1,
                Verdict::Regressed => 2,
                Verdict::Unresolved => 3,
            }] += 1;
        }
    }
    println!(
        "\n{} improved, {} unchanged, {} regressed, {} unresolved",
        tally[0], tally[1], tally[2], tally[3]
    );
    Ok(tally[2] == 0 && tally[3] == 0)
}
