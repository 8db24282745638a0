//! `e2e_profile` — the HIR toolchain's end-to-end benchmark.
//!
//! Five seeded, closed-loop, single-client workloads replay `hirc`'s
//! in-process path through each layer's public functions (compile,
//! simulate, prove), check every answer against an independent reference,
//! and print every metric by name with its unit. See `README.md`.
//!
//! ```text
//! e2e_profile --workload NAME --seed N --seconds S --trace 0|1 [--trace-dir DIR] [--quick]
//! e2e_profile [--workload all] [--seed N] [--seconds S] [--repeat N] [--trace-dir DIR]
//!             [--out FILE] [--quick]
//! e2e_profile compare PARENT.json CHANGE.json
//! ```
//!
//! One workload runs in this process and prints one JSON object as its last
//! line of output. `all` runs every workload, each in its own child process
//! of this binary, one at a time (so memory peaks are per workload), `--repeat`
//! times with alternating workload order, and writes every run plus
//! per-metric medians and quartiles to `--out`.

mod calib;
mod compare;
mod heap;
mod metrics;
mod run;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

const USAGE: &str = "usage:
  e2e_profile --workload NAME --seed N --seconds S --trace 0|1 [--trace-dir DIR] [--quick]
  e2e_profile [--workload all] [--seed N] [--seconds S] [--repeat N] [--trace-dir DIR] [--out FILE] [--quick]
  e2e_profile compare PARENT.json CHANGE.json
workloads: compile_suite compile_multi sim_gemm sim_stream equiv_mix";

/// Run length when `--seconds` is not given (matches `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;
/// Run length under `--quick`.
const QUICK_SECONDS: f64 = 0.3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    trace_dir: Option<String>,
    repeat: usize,
    out: Option<String>,
    quick: bool,
}

/// Accepts `--flag value` and `--flag=value`.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        trace_dir: None,
        repeat: 1,
        out: None,
        quick: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if arg == "--quick" {
            a.quick = true;
            continue;
        }
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        let mut value = || {
            inline
                .clone()
                .or_else(|| it.next().cloned())
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let bad = |v: &str| format!("bad value for {flag}: '{v}'");
        match flag {
            "--workload" => a.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                a.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| bad(&v))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad(&v));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                let v = value()?;
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            "--trace-dir" => a.trace_dir = Some(value()?),
            "--repeat" => {
                let v = value()?;
                a.repeat = v.parse().ok().filter(|&n| n >= 1).ok_or_else(|| bad(&v))?;
            }
            "--out" => a.out = Some(value()?),
            _ => return Err(format!("unknown argument '{arg}'")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let result = if argv.first().map(String::as_str) == Some("compare") {
        compare::main(&argv[1..])
    } else {
        parse_args(&argv).and_then(|a| match a.workload.as_deref() {
            None | Some("all") => run_all(&a),
            Some(name) => run_one(&a, name),
        })
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("e2e_profile: {e}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn seconds(a: &Args) -> f64 {
    a.seconds.unwrap_or(if a.quick {
        QUICK_SECONDS
    } else {
        DEFAULT_SECONDS
    })
}

/// Strict JSON for a finite number, with all its digits.
fn num(v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v}"))
    } else {
        Err(format!("metric value {v} is not a finite number"))
    }
}

/// One workload, in this process. The last line of output is the result
/// object; every line before it is for people.
fn run_one(a: &Args, name: &str) -> Result<bool, String> {
    let workload =
        workloads::Workload::from_name(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let trace_file = match (&a.trace_dir, a.trace) {
        (Some(dir), true) => {
            std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
            Some(std::path::Path::new(dir).join(format!("{name}.trace.json")))
        }
        _ => None,
    };
    let opts = run::Options {
        workload,
        seed: a.seed,
        seconds: seconds(a),
        traced: a.trace,
        quick: a.quick,
        trace_file,
    };
    let out = run::run(&opts)?;
    println!(
        "e2e_profile {name} seed={} seconds={} trace={}",
        opts.seed,
        opts.seconds,
        u8::from(opts.traced)
    );
    let mut metrics = String::new();
    for (i, (metric, value, unit)) in out.metrics.iter().enumerate() {
        println!("  {metric:<40} {value:>16.6} {unit}");
        if i > 0 {
            metrics.push(',');
        }
        let _ = write!(
            metrics,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            obs::json::escape(metric),
            num(*value)?,
            obs::json::escape(unit)
        );
    }
    for (label, err) in &out.failures {
        println!("failed request {label}: {err}");
    }
    let correct = out.failures.is_empty();
    let line = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        out.attempted,
        out.failures.len()
    );
    obs::json::parse(&line).map_err(|e| format!("result line is not valid JSON: {e}"))?;
    println!("{line}");
    Ok(true)
}

/// One child run's parsed result.
struct ChildRun {
    workload: &'static str,
    repeat: usize,
    traced: bool,
    result: obs::json::Value,
    failures: Vec<String>,
}

fn spawn_child(
    a: &Args,
    workload: &str,
    traced: bool,
) -> Result<(obs::json::Value, Vec<String>), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &seconds(a).to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if a.quick {
        cmd.arg("--quick");
    }
    if let (true, Some(dir)) = (traced, &a.trace_dir) {
        cmd.args(["--trace-dir", dir]);
    }
    let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    if !out.status.success() {
        return Err(format!("{workload}: child exited with {}", out.status));
    }
    let last = stdout.lines().last().unwrap_or("");
    let result = obs::json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let failures = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("failed request "))
        .map(String::from)
        .collect();
    Ok((result, failures))
}

/// The revision being measured, when run inside a git checkout.
fn git_rev() -> String {
    let Ok(root) = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .canonicalize()
    else {
        return "unknown".into();
    };
    // The ceiling keeps git from finding an enclosing repository when the
    // benchmark runs from an exported tree.
    let git = |args: &[&str]| {
        Command::new("git")
            .arg("-C")
            .arg(&root)
            .args(args)
            .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(&root))
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match git(&["rev-parse", "HEAD"]) {
        Some(rev) if !rev.is_empty() => {
            // Only the measured code counts: edits to notes do not.
            let measured = ["crates", "e2e_profile", "examples", "designs"];
            let dirty = git(&[&["status", "--porcelain", "--"][..], &measured].concat())
                .is_some_and(|s| !s.is_empty());
            if dirty {
                format!("{rev}+dirty")
            } else {
                rev
            }
        }
        _ => "unknown".into(),
    }
}

fn run_all(a: &Args) -> Result<bool, String> {
    let mut runs: Vec<ChildRun> = Vec::new();
    for r in 0..a.repeat {
        // Alternate the order so no workload always runs first or last.
        let mut order: Vec<_> = workloads::ALL.to_vec();
        if r % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let (result, failures) = spawn_child(a, w.name(), false)?;
            runs.push(ChildRun {
                workload: w.name(),
                repeat: r,
                traced: false,
                result,
                failures,
            });
        }
    }
    if a.trace_dir.is_some() {
        for w in workloads::ALL {
            let (result, failures) = spawn_child(a, w.name(), true)?;
            runs.push(ChildRun {
                workload: w.name(),
                repeat: 0,
                traced: true,
                result,
                failures,
            });
        }
    }

    let all_correct = runs.iter().all(|r| is_correct(&r.result));
    let doc = all_json(a, &runs)?;
    print_summary(&runs);
    if let Some(path) = &a.out {
        std::fs::write(path, &doc).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(all_correct)
}

fn is_correct(result: &obs::json::Value) -> bool {
    matches!(result.get("correct"), Some(obs::json::Value::Bool(true)))
}

/// `(value, unit)` of `metric` in one run's result.
fn metric_of(result: &obs::json::Value, metric: &str) -> Option<(f64, String)> {
    let m = result.get("metrics")?.get(metric)?;
    Some((
        m.get("value")?.as_f64()?,
        m.get("unit")?.as_str()?.to_string(),
    ))
}

/// Untraced values of `metric` on `workload`, in run order.
fn series(runs: &[ChildRun], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| !r.traced && r.workload == workload)
        .filter_map(|r| metric_of(&r.result, metric).map(|(v, _)| v))
        .collect()
}

fn all_json(a: &Args, runs: &[ChildRun]) -> Result<String, String> {
    let esc = obs::json::escape;
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\n  \"benchmark\": \"e2e_profile\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"repeat\": {},\n  \"quick\": {},\n  \"available_parallelism\": {},\n  \"git_rev\": \"{}\",\n  \"runs\": [",
        a.seed,
        num(seconds(a))?,
        a.repeat,
        a.quick,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        esc(&git_rev()),
    );
    for (i, r) in runs.iter().enumerate() {
        let failures: Vec<String> = r
            .failures
            .iter()
            .map(|f| format!("\"{}\"", esc(f)))
            .collect();
        let metrics = r
            .result
            .get("metrics")
            .and_then(|m| m.as_object())
            .ok_or("result without metrics")?;
        let mut body = Vec::new();
        for (name, m) in metrics {
            let v = m.get("value").and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(|u| u.as_str()).unwrap_or("");
            body.push(format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                esc(name),
                num(v)?,
                esc(unit)
            ));
        }
        let field = |k: &str| r.result.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
        let _ = write!(
            s,
            "{}\n    {{\"workload\":\"{}\",\"repeat\":{},\"trace\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"failures\":[{}],\"metrics\":{{{}}}}}",
            if i > 0 { "," } else { "" },
            r.workload,
            r.repeat,
            r.traced,
            is_correct(&r.result),
            field("attempted"),
            field("failed"),
            failures.join(","),
            body.join(","),
        );
    }
    s.push_str("\n  ],\n  \"summary\": {");
    for (wi, w) in workloads::ALL.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n    \"{}\": {{",
            if wi > 0 { "," } else { "" },
            w.name()
        );
        let mut first = true;
        for m in metrics::END_TO_END {
            let v = series(runs, w.name(), m.name);
            if v.is_empty() {
                continue;
            }
            let (q1, med, q3) = stats::quartiles(&v);
            let _ = write!(
                s,
                "{}\n      \"{}\": {{\"unit\":\"{}\",\"n\":{},\"median\":{},\"q1\":{},\"q3\":{}}}",
                if first { "" } else { "," },
                m.name,
                m.unit,
                v.len(),
                num(med)?,
                num(q1)?,
                num(q3)?
            );
            first = false;
        }
        s.push_str("\n    }");
    }
    s.push_str("\n  }\n}\n");
    obs::json::parse(&s).map_err(|e| format!("output is not valid JSON: {e}"))?;
    Ok(s)
}

fn print_summary(runs: &[ChildRun]) {
    println!(
        "\n{:<14} {:<16} {:>14} {:>14} {:>14}  n",
        "workload", "metric", "median", "q1", "q3"
    );
    for w in workloads::ALL {
        for m in metrics::END_TO_END {
            let v = series(runs, w.name(), m.name);
            if v.is_empty() {
                continue;
            }
            let (q1, med, q3) = stats::quartiles(&v);
            println!(
                "{:<14} {:<16} {med:>14.4} {q1:>14.4} {q3:>14.4}  {} {}",
                w.name(),
                m.name,
                v.len(),
                m.unit
            );
        }
    }
    for r in runs.iter().filter(|r| !r.failures.is_empty()) {
        for f in &r.failures {
            println!("FAILED {} (repeat {}): {f}", r.workload, r.repeat);
        }
    }
}
