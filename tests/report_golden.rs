//! Byte-level pins of `hirc`'s JSON reports.
//!
//! Every `examples/*.mlir` input under `--opt` has checked-in goldens under
//! `tests/golden/reports/` for `--schedule-report`, `--resource-report`,
//! `--remarks`, `--stats=PATH` and `--verify-equiv-report`. The equivalence
//! report carries wall-clock fields (`time_ms`, `phase_ms`); their values
//! are zeroed before the compare, every other byte must match.
//!
//! The refutation path is pinned too: for each of [`REFUTED`], hirc runs
//! the deliberately wrong `test-miscompile` pipeline under
//! `--verify-equiv=16`, must exit 1, and its report (`refute.json`, times
//! zeroed) and stderr (`refute.stderr`, which names the counterexample
//! stimulus) must match their goldens byte for byte.
//!
//! After an intentional output change, regenerate the goldens with
//! `cargo test --release --test report_golden -- --ignored`.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Cycle bound of the pinned equivalence proofs: small keeps the test fast.
const EQUIV_K: u32 = 4;

/// Cycle bound of the pinned refutations, as in CI's negative control.
const REFUTE_K: u32 = 16;

/// Examples that `test-miscompile` changes, so their equivalence check
/// must be refuted. `transpose` is left out: the miscompile does not touch
/// it, and it is still proved.
const REFUTED: [&str; 3] = ["mac", "multi_kernel", "stencil"];

/// `(golden suffix, hirc flag)` of the reports written by the compile run.
const REPORTS: [(&str, &str); 4] = [
    ("schedule.json", "--schedule-report"),
    ("resources.json", "--resource-report"),
    ("remarks.jsonl", "--remarks"),
    ("stats.json", "--stats"),
];

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn golden(example: &str, suffix: &str) -> PathBuf {
    repo()
        .join("tests/golden/reports")
        .join(format!("{example}.{suffix}"))
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

/// Runs `hirc examples/<example>.mlir <args>` with each `flag=PATH` in
/// `reports`, returning the exit code, stderr and `(suffix, contents)` per
/// report.
fn hirc(
    example: &str,
    args: &[String],
    reports: &[(&str, &str)],
) -> (Option<i32>, String, Vec<(String, String)>) {
    // One directory per call: the tests run concurrently.
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "hirc_report_golden_{}_{}",
        std::process::id(),
        CALLS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_hirc"));
    cmd.arg(repo().join("examples").join(format!("{example}.mlir")))
        .args(args)
        .arg("-o")
        .arg(dir.join("out.v"));
    for (suffix, flag) in reports {
        cmd.arg(format!("{flag}={}", dir.join(suffix).display()));
    }
    let out = cmd.output().expect("run hirc");
    let got = reports
        .iter()
        .map(|(suffix, _)| {
            let text = std::fs::read_to_string(dir.join(suffix))
                .unwrap_or_else(|e| panic!("{example}: {suffix} not written: {e}"));
            (suffix.to_string(), text)
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        got,
    )
}

/// Runs `hirc examples/<example>.mlir --opt <extra>`, which must succeed,
/// returning `(suffix, contents)` per report.
fn run(example: &str, extra: &[String], reports: &[(&str, &str)]) -> Vec<(String, String)> {
    let args: Vec<String> = std::iter::once("--opt".to_string())
        .chain(extra.iter().cloned())
        .collect();
    let (code, stderr, got) = hirc(example, &args, reports);
    assert_eq!(code, Some(0), "{example}: {stderr}");
    got
}

/// The refutation of one example's miscompile: its equivalence report with
/// wall-clock values zeroed, then hirc's stderr.
fn refutation(example: &str) -> Vec<(String, String)> {
    let args = [
        "--pipeline=test-miscompile".to_string(),
        format!("--verify-equiv={REFUTE_K}"),
    ];
    let (code, stderr, got) = hirc(example, &args, &[("refute.json", "--verify-equiv-report")]);
    assert_eq!(
        code,
        Some(1),
        "{example}: the miscompile was not refuted\n{stderr}"
    );
    assert!(stderr.contains("replay-confirmed"), "{example}: {stderr}");
    let mut out: Vec<(String, String)> = got
        .into_iter()
        .map(|(suffix, text)| (suffix, zero_wall_clock(&text)))
        .collect();
    out.push(("refute.stderr".to_string(), stderr));
    out
}

/// Every report of one example: the compile run's reports, then the
/// equivalence report with its wall-clock values zeroed.
fn reports(example: &str) -> Vec<(String, String)> {
    let mut got = run(example, &[], &REPORTS);
    let equiv = run(
        example,
        &[format!("--verify-equiv={EQUIV_K}")],
        &[("equiv.json", "--verify-equiv-report")],
    );
    got.extend(
        equiv
            .into_iter()
            .map(|(suffix, text)| (suffix, zero_wall_clock(&text))),
    );
    got
}

/// Replaces the digits of every `"time_ms"` value and of every number
/// inside a `"phase_ms"` object with `0`.
fn zero_wall_clock(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    loop {
        let next = ["\"time_ms\":", "\"phase_ms\":"]
            .iter()
            .filter_map(|key| rest.find(key).map(|at| (at, *key)))
            .min();
        let Some((at, key)) = next else {
            out.push_str(rest);
            return out;
        };
        out.push_str(&rest[..at + key.len()]);
        rest = &rest[at + key.len()..];
        // `time_ms` is one number; `phase_ms` is a flat object of numbers.
        let end = if key == "\"time_ms\":" {
            rest.find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len())
        } else {
            rest.find('}').map_or(rest.len(), |i| i + 1)
        };
        let mut digits = false;
        for c in rest[..end].chars() {
            if c.is_ascii_digit() {
                if !digits {
                    out.push('0');
                }
                digits = true;
            } else {
                out.push(c);
                digits = false;
            }
        }
        rest = &rest[end..];
    }
}

#[test]
fn zero_wall_clock_masks_only_timing_values() {
    assert_eq!(
        zero_wall_clock(r#"{"k":4,"time_ms":17,"x":{"phase_ms":{"lower":3,"solve":120}},"n":9}"#),
        r#"{"k":4,"time_ms":0,"x":{"phase_ms":{"lower":0,"solve":0}},"n":9}"#
    );
}

/// Compares each `(suffix, text)` of `example` with its golden.
fn check(example: &str, got: Vec<(String, String)>) {
    for (suffix, got) in got {
        let path = golden(example, &suffix);
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{}: {e}; bless with `cargo test --release --test report_golden -- --ignored`",
                path.display()
            )
        });
        assert_eq!(got, want, "{example}: {suffix} differs from its golden");
    }
}

#[test]
fn every_report_matches_its_golden() {
    for example in examples() {
        check(&example, reports(&example));
    }
}

#[test]
fn every_refutation_matches_its_golden() {
    for example in REFUTED {
        check(example, refutation(example));
    }
}

#[test]
#[ignore = "regenerates tests/golden/reports; run only after an intentional output change"]
fn bless_report_goldens() {
    std::fs::create_dir_all(repo().join("tests/golden/reports")).unwrap();
    let bless = |example: &str, got: Vec<(String, String)>| {
        for (suffix, text) in got {
            std::fs::write(golden(example, &suffix), text).unwrap();
        }
    };
    for example in examples() {
        bless(&example, reports(&example));
    }
    for example in REFUTED {
        bless(example, refutation(example));
    }
}
