//! Pins what the generic-IR parser makes of a fixed set of inputs.
//!
//! One line per input in `tests/golden/parse/outcomes.txt`: accepted inputs
//! record a hash of their printed IR, rejected inputs record every
//! recovered error as `line:col: message`. The inputs are every
//! `examples/*.mlir`, the printed IR of every compiled benchmark kernel,
//! every `tests/corpus/malformed/*.mlir`, and a few hundred seeded fuzz
//! mutants of the examples, so a change to the parser that moves an error,
//! drops one, or builds a different module shows up as a line diff.
//!
//! After an intentional change, regenerate the golden with
//! `cargo test --release --test parse_golden -- --ignored`.

use rand::{rngs::StdRng, SeedableRng};
use std::path::{Path, PathBuf};

const MUTANTS: u64 = 300;

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn golden() -> PathBuf {
    repo().join("tests/golden/parse/outcomes.txt")
}

/// `(name, contents)` of every `dir/*.mlir`, sorted by name.
fn mlir_files(dir: &str) -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = std::fs::read_dir(repo().join(dir))
        .expect("input dir")
        .filter_map(|e| {
            let path = e.ok()?.path();
            (path.extension()? == "mlir").then(|| {
                let name = format!("{dir}/{}", path.file_name().unwrap().to_str().unwrap());
                (name, std::fs::read_to_string(&path).unwrap())
            })
        })
        .collect();
    files.sort();
    files
}

/// FNV-1a: stable across toolchains, unlike `DefaultHasher`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn outcome(name: &str, src: &str) -> String {
    let r = ir::parse_module_recover(src, 0);
    if r.errors.is_empty() {
        let printed = ir::print_module(&r.module);
        return format!("{name}: ok {:016x}\n", fnv1a(printed.as_bytes()));
    }
    let errors: Vec<String> = r
        .errors
        .iter()
        .map(|e| {
            e.to_string()
                .chars()
                .map(|c| {
                    if c.is_control() {
                        c.escape_default().to_string()
                    } else {
                        c.to_string()
                    }
                })
                .collect::<String>()
        })
        .collect();
    format!("{name}: err {}\n", errors.join(" | "))
}

fn outcomes() -> String {
    let mut out = String::new();
    let examples = mlir_files("examples");
    for (name, src) in &examples {
        out.push_str(&outcome(name, src));
    }
    for b in kernels::compiled_benchmarks() {
        let printed = ir::print_module(&(b.build_hir)());
        out.push_str(&outcome(&format!("kernel/{}", b.name), &printed));
    }
    for (name, src) in &mlir_files("tests/corpus/malformed") {
        out.push_str(&outcome(name, src));
    }
    for i in 0..MUTANTS {
        let (base, src) = &examples[i as usize % examples.len()];
        let mut rng = StdRng::seed_from_u64(i);
        let m = hir_fuzz::mutant(src.as_bytes(), 4, &mut rng);
        out.push_str(&outcome(&format!("mutant/{i} of {base}"), &m));
    }
    out
}

#[test]
fn parse_outcomes_match_golden() {
    let want = std::fs::read_to_string(golden()).unwrap_or_else(|e| {
        panic!(
            "{}: {e}; bless with `cargo test --release --test parse_golden -- --ignored`",
            golden().display()
        )
    });
    let got = outcomes();
    for (w, g) in want.lines().zip(got.lines()) {
        assert_eq!(w, g, "parse outcome changed");
    }
    assert_eq!(
        want.lines().count(),
        got.lines().count(),
        "input count changed"
    );
}

#[test]
#[ignore = "regenerates tests/golden/parse; run only after an intentional parser change"]
fn bless_parse_golden() {
    std::fs::create_dir_all(golden().parent().unwrap()).unwrap();
    std::fs::write(golden(), outcomes()).unwrap();
}
