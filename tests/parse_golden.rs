//! Pins what the generic-IR parser and the paper-style (pretty) parser make
//! of a fixed set of inputs, and what the pretty printer prints.
//!
//! One line per input in `tests/golden/parse/outcomes.txt`: accepted inputs
//! record a hash of their printed IR, rejected inputs record every
//! recovered error as `line:col: message`, and a parser panic is recorded
//! as `panic: <message>`. The generic section's inputs are every
//! `examples/*.mlir`, the printed IR of every compiled benchmark kernel,
//! every `tests/corpus/malformed/*.mlir`, and a few hundred seeded fuzz
//! mutants of the examples. The pretty section's inputs are every
//! `designs/*.hir`, every `tests/corpus/**/*.hir` and a few hundred seeded
//! mutants of the designs; an accepted input also records the hash of its
//! pretty reprint. A change to either parser that moves an error, drops
//! one, or builds a different module shows up as a line diff.
//!
//! `tests/golden/pretty/` holds the bytes `pretty_module` prints for every
//! example, design and round-trip kernel, and for ops that do not conform
//! to their declaration (printed in the generic fallback form).
//!
//! After an intentional change, regenerate the goldens with
//! `cargo test --release --test parse_golden -- --ignored`.

use rand::{rngs::StdRng, SeedableRng};
use std::path::{Path, PathBuf};

const MUTANTS: u64 = 300;
/// Seed and mutation rounds of the pretty-syntax mutants.
const PRETTY_SEED: u64 = 20260806;
const PRETTY_ROUNDS: usize = 3;

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn golden() -> PathBuf {
    repo().join("tests/golden/parse/outcomes.txt")
}

fn pretty_golden_dir() -> PathBuf {
    repo().join("tests/golden/pretty")
}

/// `(name, contents)` of every `dir/*.<ext>`, sorted by name.
fn files_with_ext(dir: &str, ext: &str) -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = std::fs::read_dir(repo().join(dir))
        .expect("input dir")
        .filter_map(|e| {
            let path = e.ok()?.path();
            (path.extension()? == ext).then(|| {
                let name = format!("{dir}/{}", path.file_name().unwrap().to_str().unwrap());
                (name, std::fs::read_to_string(&path).unwrap())
            })
        })
        .collect();
    files.sort();
    files
}

fn mlir_files(dir: &str) -> Vec<(String, String)> {
    files_with_ext(dir, "mlir")
}

/// FNV-1a: stable across toolchains, unlike `DefaultHasher`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn escape_controls(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_control() {
                c.escape_default().to_string()
            } else {
                c.to_string()
            }
        })
        .collect()
}

fn err_line(name: &str, errors: &[String]) -> String {
    let errors: Vec<String> = errors.iter().map(|e| escape_controls(e)).collect();
    format!("{name}: err {}\n", errors.join(" | "))
}

fn outcome(name: &str, src: &str) -> String {
    let r = ir::parse_module_recover(src, 0);
    if r.errors.is_empty() {
        let printed = ir::print_module(&r.module);
        return format!("{name}: ok {:016x}\n", fnv1a(printed.as_bytes()));
    }
    let errors: Vec<String> = r.errors.iter().map(|e| e.to_string()).collect();
    err_line(name, &errors)
}

/// The pretty parser's outcome on `src`: the hashes of the generic print
/// and of the pretty reprint if accepted, every recovered error if
/// rejected, and the message of a panic in the parser or printer.
fn pretty_outcome(name: &str, src: &str) -> String {
    let run = std::panic::catch_unwind(|| {
        let r = hir::parse_pretty_recover(src, 0);
        if r.errors.is_empty() {
            let printed = ir::print_module(&r.module);
            let pretty = hir::pretty_module(&r.module);
            format!(
                "{name}: ok {:016x} {:016x}\n",
                fnv1a(printed.as_bytes()),
                fnv1a(pretty.as_bytes())
            )
        } else {
            let errors: Vec<String> = r.errors.iter().map(|e| e.to_string()).collect();
            err_line(name, &errors)
        }
    });
    run.unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("<non-string payload>");
        format!("{name}: panic: {}\n", escape_controls(msg))
    })
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
    let designs = files_with_ext("designs", "hir");
    for (name, src) in &designs {
        out.push_str(&pretty_outcome(name, src));
    }
    for dir in ["tests/corpus/malformed", "tests/corpus/regressions"] {
        for (name, src) in &files_with_ext(dir, "hir") {
            out.push_str(&pretty_outcome(name, src));
        }
    }
    let mut rng = StdRng::seed_from_u64(PRETTY_SEED);
    for i in 0..MUTANTS {
        let (base, src) = &designs[i as usize % designs.len()];
        let m = hir_fuzz::mutant(src.as_bytes(), PRETTY_ROUNDS, &mut rng);
        out.push_str(&pretty_outcome(&format!("pretty-mutant/{i} of {base}"), &m));
    }
    out
}

/// Generic IR whose ops do not conform to their declarations (a missing
/// required attribute, a wrong operand count, a body-less loop, an
/// unnamed function): the pretty printer must fall back to the generic
/// one-line form for each of them.
const NONCONFORMING: &str = r#""hir.func"() ({
^bb(%0: i32, %1: !hir.time):
  %2 = "hir.delay"(%0, %1) {offset = 0 : index} : (i32, !hir.time) -> (i32)
  %3 = "hir.constant"() : () -> (i32)
  %4 = "hir.call"(%0, %1) {offset = 0 : index} : (i32, !hir.time) -> (i32)
  %5 = "hir.unroll_for"(%1) ({
  ^bb(%6: !hir.const, %7: !hir.time):
    "hir.yield"(%7) {offset = 0 : index} : (!hir.time) -> ()
  }) {offset = 0 : index, step = 1 : index, ub = 4 : index} : (!hir.time) -> (!hir.time)
  %8 = "hir.for"(%0, %0, %1) ({
  ^bb(%9: i32, %10: !hir.time):
    "hir.yield"(%10) {offset = 1 : index} : (!hir.time) -> ()
  }) {offset = 0 : index} : (i32, i32, !hir.time) -> (!hir.time)
  %11 = "hir.cmp"(%0, %2) : (i32, i32) -> (i1)
  %12 = "hir.slice"(%0) {hi = 3 : index} : (i32) -> (i4)
  "hir.if"(%11, %1) ({
  ^bb():
    "hir.mem_write"(%0, %1) {offset = 0 : index} : (i32, !hir.time) -> ()
  }) {offset = 0 : index} : (i1, !hir.time) -> ()
  "hir.return"(%2, %3, %4) : (i32, i32, i32) -> ()
}) {arg_names = ["x"], sym_name = "f"} : () -> ()
"hir.func"() ({
^bb(%0: !hir.time):
  "hir.return"() : () -> ()
}) {arg_names = []} : () -> ()
"hir.func"() ({
^bb():
  "hir.return"() : () -> ()
}) {sym_name = "no_time"} : () -> ()
"#;

/// `(file name, printed text)` of every pretty-printer golden. The
/// non-conforming module's golden also holds `pretty_op` of each op.
fn pretty_goldens() -> Vec<(String, String)> {
    let file = |name: &str| name.replace(['/', '.', ' ', '-'], "_").to_lowercase() + ".hir";
    let mut out = Vec::new();
    for (name, src) in &mlir_files("examples") {
        let m = ir::parse_module(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        out.push((file(name), hir::pretty_module(&m)));
    }
    for (name, src) in &files_with_ext("designs", "hir") {
        let m = hir::parse_pretty(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        out.push((file(name), hir::pretty_module(&m)));
    }
    // The kernel set of tests/textual_roundtrip.rs.
    let mut kernels: Vec<(String, ir::Module)> = kernels::compiled_benchmarks()
        .into_iter()
        .map(|b| (b.name.to_string(), (b.build_hir)()))
        .collect();
    kernels.push(("FIFO".into(), kernels::fifo::hir_fifo(16, 24, 32)));
    kernels.push(("FIR".into(), kernels::fir::hir_fir(16, &[1, 2, 1], 32)));
    kernels.push((
        "task-parallel stencil".into(),
        kernels::stencil::hir_stencil_task_parallel(32, 32),
    ));
    for (name, m) in &kernels {
        out.push((file(&format!("kernel/{name}")), hir::pretty_module(m)));
    }
    let m = ir::parse_module(NONCONFORMING).expect("nonconforming module parses");
    let mut text = hir::pretty_module(&m);
    text.push_str("// pretty_op of every op:\n");
    for op in m.collect_all_ops() {
        text.push_str(&hir::pretty_op(&m, op));
        text.push('\n');
    }
    out.push(("nonconforming.hir".into(), text));
    out
}

#[test]
fn pretty_print_matches_golden() {
    for (file, got) in pretty_goldens() {
        let path = pretty_golden_dir().join(&file);
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{}: {e}; bless with `cargo test --release --test parse_golden -- --ignored`",
                path.display()
            )
        });
        assert_eq!(want, got, "{file}: pretty output changed");
    }
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
    std::fs::create_dir_all(pretty_golden_dir()).unwrap();
    for (file, text) in pretty_goldens() {
        std::fs::write(pretty_golden_dir().join(file), text).unwrap();
    }
}
