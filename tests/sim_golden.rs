//! Byte-level pins of the simulator's observability outputs.
//!
//! Every `examples/*.mlir` input, and the register-argument regression
//! `tests/corpus/regressions/reg_read_arg.hir`, has a checked-in telemetry
//! JSON under `tests/golden/sim/`, which every engine must reproduce byte
//! for byte, and one sched-stats JSON per (input, engine). All engines share the
//! interpreter cores, so a counting change would move every engine at
//! once; the cross-engine agreement tests cannot see that, these pins can.
//!
//! After an intentional output change, regenerate the goldens with
//! `cargo test --release --test sim_golden -- --ignored`.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

const ENGINES: [&str; 4] = ["bytecode", "treewalk", "event", "batched"];

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn golden_dir() -> PathBuf {
    repo().join("tests/golden/sim")
}

/// Stems of every `examples/*.mlir`, sorted.
fn examples() -> Vec<String> {
    let mut stems: Vec<String> = std::fs::read_dir(repo().join("examples"))
        .expect("examples dir")
        .filter_map(|e| {
            let path = e.ok()?.path();
            (path.extension()? == "mlir").then(|| path.file_stem()?.to_str().map(str::to_string))?
        })
        .collect();
    stems.sort();
    assert!(!stems.is_empty(), "no examples/*.mlir found");
    stems
}

/// The register-argument read regression: the only pinned input whose
/// harness serves read data combinationally. Its bytecode and treewalk
/// sched-stats pin one full settle per cycle (plus one in cycle 0, whose
/// pokes change the read data from the reset 0) however many banks it
/// serves.
const REG_READ_ARG: &str = "tests/corpus/regressions/reg_read_arg.hir";

/// `(stem, path)` of every input with goldens: the examples, then
/// [`REG_READ_ARG`].
fn pinned_inputs() -> Vec<(String, PathBuf)> {
    let mut inputs: Vec<(String, PathBuf)> = examples()
        .into_iter()
        .map(|e| {
            let path = repo().join("examples").join(format!("{e}.mlir"));
            (e, path)
        })
        .collect();
    inputs.push(("reg_read_arg".into(), repo().join(REG_READ_ARG)));
    inputs
}

fn telemetry_golden(example: &str) -> PathBuf {
    golden_dir().join(format!("{example}.telemetry.json"))
}

fn sched_golden(example: &str, engine: &str) -> PathBuf {
    golden_dir().join(format!("{example}.{engine}.sched.json"))
}

/// `hirc examples/<example>.mlir --emit=sim --sim-engine=<engine>` with the
/// given report flags (`--sim-telemetry`, `--sched-stats`, `--stats`),
/// returning the reports in flag order.
fn simulate(example: &str, engine: &str, reports: &[&str]) -> Vec<String> {
    simulate_input(
        &repo().join("examples").join(format!("{example}.mlir")),
        engine,
        reports,
    )
}

/// [`simulate`] on any input file.
fn simulate_input(input: &Path, engine: &str, reports: &[&str]) -> Vec<String> {
    // One directory per call: the tests run concurrently.
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "hirc_sim_golden_{}_{}",
        std::process::id(),
        CALLS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_hirc"));
    cmd.arg(input)
        .arg("--emit=sim")
        .arg(format!("--sim-engine={engine}"));
    let paths: Vec<PathBuf> = reports
        .iter()
        .map(|flag| {
            let path = dir.join(format!("{engine}.{}.json", flag.trim_start_matches('-')));
            cmd.arg(format!("{flag}={}", path.display()));
            path
        })
        .collect();
    let out = cmd.output().expect("run hirc");
    assert!(
        out.status.success(),
        "{} --sim-engine={engine}: {}",
        input.display(),
        String::from_utf8_lossy(&out.stderr)
    );
    let reports = paths
        .iter()
        .map(|p| std::fs::read_to_string(p).expect("report written"))
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    reports
}

fn read_golden(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}; bless with `cargo test --release --test sim_golden -- --ignored`",
            path.display()
        )
    })
}

#[test]
fn every_engine_reproduces_the_golden_telemetry_and_sched_stats() {
    for (example, input) in pinned_inputs() {
        let telemetry = read_golden(&telemetry_golden(&example));
        for engine in ENGINES {
            let got = simulate_input(&input, engine, &["--sim-telemetry"]);
            assert_eq!(
                got[0], telemetry,
                "{example} --sim-engine={engine}: telemetry differs from its golden"
            );
            let got = simulate_input(&input, engine, &["--sched-stats"]);
            assert_eq!(
                got[0],
                read_golden(&sched_golden(&example, engine)),
                "{example} --sim-engine={engine}: sched-stats differ from their golden"
            );
        }
    }
}

/// Telemetry observes the event engine; it must not change what the
/// engine dispatches, so the sched-stats (run-length histograms included)
/// are the same with and without it.
#[test]
fn telemetry_does_not_change_the_event_schedule() {
    for example in examples() {
        let alone = simulate(&example, "event", &["--sched-stats"]);
        let both = simulate(&example, "event", &["--sched-stats", "--sim-telemetry"]);
        assert_eq!(
            alone[0], both[0],
            "{example}: --sim-telemetry changed the event engine's sched-stats"
        );
    }
}

/// Sched-stats observe the engine; turning them on must not add a settle
/// that telemetry counts, so the telemetry is the same with and without
/// them under every scalar engine.
#[test]
fn sched_stats_do_not_change_telemetry() {
    for example in examples() {
        for engine in ["bytecode", "treewalk", "event"] {
            let alone = simulate(&example, engine, &["--sim-telemetry"]);
            let both = simulate(&example, engine, &["--sim-telemetry", "--sched-stats"]);
            assert_eq!(
                alone[0], both[0],
                "{example} --sim-engine={engine}: --sched-stats changed the telemetry"
            );
        }
    }
}

/// The full-tape engines settle only when a settled value is read after
/// something changed: the harness's first read of each cycle. The read
/// data it pokes after an edge is settled by that same read, so every
/// cycle costs exactly one full settle.
#[test]
fn full_tape_engines_settle_once_per_harness_cycle() {
    for example in examples() {
        for engine in ["bytecode", "treewalk"] {
            let sched = simulate(&example, engine, &["--sched-stats"]);
            let v = obs::json::parse(&sched[0]).expect("sched-stats are strict JSON");
            let field = |v: &obs::json::Value, k: &str| {
                v.get(k).and_then(obs::json::Value::as_f64).unwrap_or(-1.0)
            };
            let settles = field(v.get("settle_run_len").expect("settle_run_len"), "count");
            assert_eq!(
                settles,
                field(&v, "cycles"),
                "{example} --sim-engine={engine}: full settles differ from cycles"
            );
        }
    }
}

/// The edge-commit counters of a `--stats=PATH` report: `sim.net_updates`
/// and `sim.mem_write_events` (0 when absent).
fn commit_counters(stats: &str) -> [u64; 2] {
    let v = obs::json::parse(stats).expect("stats report is strict JSON");
    ["sim.net_updates", "sim.mem_write_events"].map(|k| {
        v.get("counters")
            .and_then(|c| c.get(k))
            .and_then(obs::json::Value::as_f64)
            .map_or(0, |n| n as u64)
    })
}

/// Designs that read register-kind memref arguments: the harness serves
/// their read data combinationally each cycle, in `reg_read_indirect` at an
/// address computed from another bank's read data, which takes it a second
/// round. The batched engine must settle exactly as often as the scalar
/// engines, so its telemetry and its commit counters equal theirs.
#[test]
fn reg_argument_reads_keep_telemetry_engine_independent() {
    for name in ["reg_read_arg", "reg_read_indirect"] {
        let input = repo().join(format!("tests/corpus/regressions/{name}.hir"));
        let runs: Vec<Vec<String>> = ["bytecode", "event", "batched"]
            .iter()
            .map(|engine| simulate_input(&input, engine, &["--sim-telemetry", "--stats"]))
            .collect();
        for (engine, run) in ["event", "batched"].iter().zip(&runs[1..]) {
            assert_eq!(
                run[0], runs[0][0],
                "{name} --sim-engine={engine}: telemetry differs from bytecode"
            );
            assert_eq!(
                commit_counters(&run[1]),
                commit_counters(&runs[0][1]),
                "{name} --sim-engine={engine}: commit counters differ from bytecode"
            );
        }
    }
}

/// A bram read gated by `hir.if` on an input bit happens in the odd lanes
/// only, so the harness drives read data into lanes without lane 0. The
/// batched engine settles those lanes but counts only the settles that
/// lane 0's scalar run makes, so its telemetry equals the scalar engines'.
#[test]
fn lane_only_reads_keep_telemetry_engine_independent() {
    let input = repo().join("tests/corpus/regressions/gated_bram_read.hir");
    let runs: Vec<String> = ["bytecode", "event", "batched"]
        .iter()
        .map(|engine| simulate_input(&input, engine, &["--sim-telemetry"]).remove(0))
        .collect();
    for (engine, run) in ["event", "batched"].iter().zip(&runs[1..]) {
        assert_eq!(
            run, &runs[0],
            "gated_bram_read --sim-engine={engine}: telemetry differs from bytecode"
        );
    }
}

/// The batched engine counts lane 0's commit rows, which are the rows the
/// event engine (the same scheduler, one lane) commits.
#[test]
fn batched_commit_counters_are_lane_zeros() {
    for example in examples() {
        let event = simulate(&example, "event", &["--stats"]);
        let batched = simulate(&example, "batched", &["--stats"]);
        assert_eq!(
            commit_counters(&batched[0]),
            commit_counters(&event[0]),
            "{example}: batched sim.net_updates/sim.mem_write_events differ from event"
        );
    }
}

/// Rewrites the goldens from the bytecode engine's telemetry and every
/// engine's sched-stats.
#[test]
#[ignore = "regenerates tests/golden/sim; run only after an intentional output change"]
fn bless_sim_goldens() {
    std::fs::create_dir_all(golden_dir()).unwrap();
    for (example, input) in pinned_inputs() {
        let telemetry = simulate_input(&input, "bytecode", &["--sim-telemetry"]);
        std::fs::write(telemetry_golden(&example), &telemetry[0]).unwrap();
        for engine in ENGINES {
            let sched = simulate_input(&input, engine, &["--sched-stats"]);
            std::fs::write(sched_golden(&example, engine), &sched[0]).unwrap();
        }
    }
}
