//! Byte-level pins of the simulator's observability outputs.
//!
//! Every `examples/*.mlir` input has a checked-in telemetry JSON under
//! `tests/golden/sim/`, which every engine must reproduce byte for byte,
//! and one sched-stats JSON per (example, engine). All engines share the
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

fn telemetry_golden(example: &str) -> PathBuf {
    golden_dir().join(format!("{example}.telemetry.json"))
}

fn sched_golden(example: &str, engine: &str) -> PathBuf {
    golden_dir().join(format!("{example}.{engine}.sched.json"))
}

/// `hirc examples/<example>.mlir --emit=sim --sim-engine=<engine>` with the
/// given report flags (`--sim-telemetry`, `--sched-stats`), returning the
/// reports in flag order.
fn simulate(example: &str, engine: &str, reports: &[&str]) -> Vec<String> {
    // One directory per call: the tests run concurrently.
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "hirc_sim_golden_{}_{}",
        std::process::id(),
        CALLS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_hirc"));
    cmd.arg(repo().join("examples").join(format!("{example}.mlir")))
        .arg("--emit=sim")
        .arg(format!("--sim-engine={engine}"));
    let paths: Vec<PathBuf> = reports
        .iter()
        .map(|flag| {
            let path = dir.join(format!(
                "{example}.{engine}.{}.json",
                flag.trim_start_matches('-')
            ));
            cmd.arg(format!("{flag}={}", path.display()));
            path
        })
        .collect();
    let out = cmd.output().expect("run hirc");
    assert!(
        out.status.success(),
        "{example} --sim-engine={engine}: {}",
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
    for example in examples() {
        let telemetry = read_golden(&telemetry_golden(&example));
        for engine in ENGINES {
            let got = simulate(&example, engine, &["--sim-telemetry"]);
            assert_eq!(
                got[0], telemetry,
                "{example} --sim-engine={engine}: telemetry differs from its golden"
            );
            let got = simulate(&example, engine, &["--sched-stats"]);
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

/// Rewrites the goldens from the bytecode engine's telemetry and every
/// engine's sched-stats.
#[test]
#[ignore = "regenerates tests/golden/sim; run only after an intentional output change"]
fn bless_sim_goldens() {
    std::fs::create_dir_all(golden_dir()).unwrap();
    for example in examples() {
        let telemetry = simulate(&example, "bytecode", &["--sim-telemetry"]);
        std::fs::write(telemetry_golden(&example), &telemetry[0]).unwrap();
        for engine in ENGINES {
            let sched = simulate(&example, engine, &["--sched-stats"]);
            std::fs::write(sched_golden(&example, engine), &sched[0]).unwrap();
        }
    }
}
