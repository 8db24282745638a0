//! Parser error recovery and crash-reproducer round-trip tests.
//!
//! The corpus under `tests/corpus/malformed/` holds inputs that are wrong in
//! more than one place; the recovering parsers must surface every problem in
//! a single run (the classic fix-one-error-recompile-repeat loop breaker)
//! and never panic on any of them.

use std::path::{Path, PathBuf};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/malformed")
}

#[test]
fn every_malformed_corpus_file_yields_diagnostics_without_panic() {
    let mut seen = 0;
    for entry in std::fs::read_dir(corpus_dir()).expect("corpus dir") {
        let path = entry.unwrap().path();
        let src = std::fs::read_to_string(&path).unwrap();
        let n_errors = hir::parse_recover(&src, 0).errors.len();
        assert!(
            n_errors >= 1,
            "{}: a malformed corpus file must produce diagnostics",
            path.display()
        );
        seen += 1;
    }
    assert!(seen >= 3, "corpus should hold several malformed files");
}

#[test]
fn multi_error_file_reports_every_error_in_one_run() {
    let src = std::fs::read_to_string(corpus_dir().join("multi_errors.mlir")).unwrap();
    let r = ir::parse_module_recover(&src, 0);
    assert!(
        r.errors.len() >= 3,
        "expected at least 3 diagnostics, got {}: {:?}",
        r.errors.len(),
        r.errors
    );
    assert!(!r.hit_error_limit);
    // Every error carries a usable position inside the file.
    for e in &r.errors {
        assert!(e.line >= 1, "{e}");
        assert!(e.col >= 1, "{e}");
    }
    let positions: Vec<(u32, u32)> = r.errors.iter().map(|e| (e.line, e.col)).collect();
    assert_eq!(positions, [(4, 1), (5, 16), (7, 1)]);
    // The recovered module keeps the parseable ops and still prints.
    assert!(r.module.op_count() >= 3);
    let _ = ir::print_module(&r.module);
}

#[test]
fn nested_errors_point_at_the_offending_token_once_per_function() {
    // Three functions, each broken inside a region: an undefined value in a
    // loop body, an unclosed operand list, and junk after a nested op.
    let src = std::fs::read_to_string(corpus_dir().join("nested_errors.mlir")).unwrap();
    let r = ir::parse_module_recover(&src, 0);
    let got: Vec<String> = r.errors.iter().map(ToString::to_string).collect();
    assert_eq!(
        got,
        [
            "6:5: use of undefined value %77 in op 'hir.add'",
            "16:25: expected RParen, found Colon",
            "21:47: expected quoted op name",
        ]
    );
}

#[test]
fn pretty_recovery_reports_each_broken_function() {
    let src = std::fs::read_to_string(corpus_dir().join("broken_funcs.hir")).unwrap();
    let r = hir::parse_pretty_recover(&src, 0);
    assert!(
        r.errors.len() >= 2,
        "one error per broken function, got {:?}",
        r.errors
    );
    // The good function in the middle survives recovery.
    let printed = ir::print_module(&r.module);
    assert!(printed.contains("good"), "{printed}");
}

#[test]
fn error_limit_truncates_the_flood() {
    let src: String = (0..40)
        .map(|i| format!("%{i} = \"t.op\"(%{}) : (i32) -> (i32)\n", i + 100))
        .collect();
    let r = ir::parse_module_recover(&src, 5);
    assert_eq!(r.errors.len(), 5);
    assert!(r.hit_error_limit);
}

#[test]
fn reproducer_round_trips_through_the_parser() {
    let m = kernels::transpose::hir_transpose(4, 32);
    let ir_text = ir::print_module(&m);
    let repro = ir::format_reproducer(
        "pass 'hir-retime' panicked: boom",
        &["hir-retime".to_string(), "hir-cse".to_string()],
        &ir_text,
    );
    // The header parses back...
    let parsed = ir::parse_reproducer(&repro).expect("reproducer header detected");
    assert_eq!(parsed.pipeline, vec!["hir-retime", "hir-cse"]);
    assert!(parsed.error.contains("boom"));
    // ...and the whole file is an ordinary module (comments are skipped).
    let m2 = ir::parse_module(&parsed.ir).expect("reproducer body must re-parse");
    assert_eq!(m2.op_count(), m.op_count());
    // Ordinary modules are not mistaken for reproducers.
    assert!(ir::parse_reproducer(&ir_text).is_none());
}

#[test]
fn recovered_modules_are_safe_to_print_in_both_forms() {
    for entry in std::fs::read_dir(corpus_dir()).expect("corpus dir") {
        let path = entry.unwrap().path();
        let src = std::fs::read_to_string(&path).unwrap();
        let module = hir::parse_recover(&src, 0).module;
        // Partially recovered IR must not break either printer.
        let _ = ir::print_module(&module);
        let _ = hir::pretty_module(&module);
    }
}
