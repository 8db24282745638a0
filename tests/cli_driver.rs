//! End-to-end tests of the `hirc` compiler driver binary.

use std::process::Command;

fn hirc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hirc"))
}

/// A valid design in the generic textual format, produced by printing the
/// transpose kernel.
fn transpose_source() -> String {
    let m = kernels::transpose::hir_transpose(4, 32);
    ir::print_module(&m)
}

#[test]
fn compiles_textual_ir_to_verilog() {
    let dir = std::env::temp_dir().join("hirc_test_ok");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("transpose.mlir");
    std::fs::write(&input, transpose_source()).unwrap();
    let out = hirc().arg(&input).output().expect("run hirc");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let verilog = String::from_utf8_lossy(&out.stdout);
    assert!(verilog.contains("module hir_transpose"), "{verilog}");
    assert!(verilog.contains("always @(posedge clk)"));
}

#[test]
fn emit_pretty_and_ir_modes() {
    let dir = std::env::temp_dir().join("hirc_test_modes");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("t.mlir");
    std::fs::write(&input, transpose_source()).unwrap();

    let out = hirc().arg(&input).arg("--emit=pretty").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("hir.for"));

    let out = hirc().arg(&input).arg("--emit=ir").output().unwrap();
    assert!(out.status.success());
    // Canonical output must itself be parseable.
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(ir::parse_module(&text).is_ok());
}

#[test]
fn verify_only_rejects_schedule_errors() {
    let dir = std::env::temp_dir().join("hirc_test_bad");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("bad.mlir");
    let bad = kernels::errors::figure1_array_add(false);
    std::fs::write(&input, ir::print_module(&bad)).unwrap();
    let out = hirc().arg(&input).arg("--verify-only").output().unwrap();
    assert!(!out.status.success(), "schedule error must fail the build");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("mismatched delay (0 vs 1)"), "{err}");
}

#[test]
fn call_arity_mismatch_is_a_schedule_diagnostic() {
    // A 2-argument call to a callee declaring three data arguments must be
    // rejected by schedule verification at the call site, before codegen.
    let dir = std::env::temp_dir().join("hirc_test_arity");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("arity.mlir");
    std::fs::write(
        &input,
        r#""hir.func"() {arg_types = [i32, i32, i32], external = unit, result_delays = [1 : index], result_types = [i32], sym_name = "f0"} : () -> ()
"hir.func"() ({
^bb(%0: i32, %1: i32, %2: !hir.time):
  %3 = "hir.call"(%0, %1, %2) {callee = @f0, offset = 0 : index} : (i32, i32, !hir.time) -> (i32)
  "hir.return"(%3) : (i32) -> ()
}) {arg_names = ["a", "b"], result_delays = [1 : index], sym_name = "f1"} : () -> ()
"#,
    )
    .unwrap();
    for extra in [&["--verify-only"][..], &[]] {
        let out = hirc().arg(&input).args(extra).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{extra:?}: {err}");
        assert!(
            err.contains("error:\nSchedule error: call to @f0 passes 2 argument(s) but the callee declares 3!")
                && err.contains("hir.call @f0(%0, %1) at %2"),
            "{extra:?}: {err}"
        );
    }
}

#[test]
fn pretty_calls_to_undefined_or_later_functions() {
    // An unknown callee is a positioned parse error (exit 1), not a panic.
    let out = hirc()
        .arg("tests/corpus/malformed/undefined_callee.hir")
        .arg("--verify-only")
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(
        err.contains("undefined_callee.hir:4:17: error: call to undefined function '@nope'"),
        "{err}"
    );

    // A caller may precede its callee, and its pretty print reads back.
    let out = hirc()
        .arg("tests/corpus/regressions/forward_call.hir")
        .arg("--emit=pretty")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let dir = std::env::temp_dir().join("hirc_test_forward_call");
    std::fs::create_dir_all(&dir).unwrap();
    let printed = dir.join("forward_call.hir");
    std::fs::write(&printed, &out.stdout).unwrap();
    let again = hirc().arg(&printed).arg("--emit=pretty").output().unwrap();
    assert!(again.status.success());
    assert_eq!(again.stdout, out.stdout, "pretty fixpoint");
}

#[test]
fn alloc_ports_keep_their_written_types() {
    // Each port is typed as written, so the verifier sees the second
    // port's kind, shape and element type (exit 1).
    let out = hirc()
        .arg("tests/corpus/regressions/alloc_mixed_ports.hir")
        .arg("--emit=pretty")
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(
        err.contains("hir.alloc kind 'reg' does not match port kind 'bram'")
            && err.contains("hir.alloc ports must agree on shape and element type"),
        "{err}"
    );
}

#[test]
fn call_results_must_match_the_callee_signature() {
    // examples/multi_kernel.mlir with @mac0's call to @mult binding two
    // results (codegen would wire a `.result1` port that `mult` lacks) or
    // an i8 result: both are schedule diagnostics, exit 1.
    let src = std::fs::read_to_string("examples/multi_kernel.mlir").unwrap();
    let call = r#"%4 = "hir.call"(%0, %1, %3) {callee = @mult, offset = 0 : index} : (i32, i32, !hir.time) -> (i32)"#;
    assert!(src.contains(call));
    let dir = std::env::temp_dir().join("hirc_test_call_results");
    std::fs::create_dir_all(&dir).unwrap();
    for (name, bad, want) in [
        (
            "two.mlir",
            call.replace("%4 =", "%4, %9 =")
                .replace("-> (i32)", "-> (i32, i32)"),
            "call to @mult binds 2 result(s) but the callee returns 1",
        ),
        (
            "i8.mlir",
            call.replace("-> (i32)", "-> (i8)"),
            "result 0 of the call to @mult is i8 but the callee returns i32",
        ),
    ] {
        let input = dir.join(name);
        std::fs::write(&input, src.replacen(call, &bad, 1)).unwrap();
        let out = hirc().arg(&input).arg("--opt").output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {err}");
        assert!(err.contains(want), "{name}: {err}");
    }
}

#[test]
fn short_arg_names_are_a_verifier_diagnostic() {
    // Reduced from `hirc-fuzz --iters=1400 --check-sim=8` at seeds 2 and 7:
    // an hir.func naming fewer arguments than it has used to panic codegen.
    let root = env!("CARGO_MANIFEST_DIR");
    for (name, want) in [
        (
            "arg_names_short_call",
            "hir.func @f1 has 2 'arg_names' but 3 arguments",
        ),
        (
            "arg_names_short_transpose",
            "hir.func @transpose has 1 'arg_names' but 2 arguments",
        ),
    ] {
        let out = hirc()
            .arg(format!("{root}/tests/corpus/regressions/{name}.mlir"))
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {err}");
        assert!(err.contains(want), "{name}: {err}");
    }
}

#[test]
fn delay_share_chains_three_delays_at_their_original_lengths() {
    // `delay(a, 2)`, `delay(a, 5)` and `delay(a, 7)` at one offset: the
    // third used to chain off the second's rewritten length (`by 4` at
    // offset 3), which post-opt verification rejected with exit 3.
    let input = format!(
        "{}/tests/corpus/regressions/delay_share_three.mlir",
        env!("CARGO_MANIFEST_DIR")
    );
    let out = hirc()
        .arg(&input)
        .args(["--opt", "--emit=pretty"])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for link in [
        "%2 = hir.delay %1 by 2 at %0 offset 0 : i32",
        "%3 = hir.delay %2 by 3 at %0 offset 2 : i32",
        "%4 = hir.delay %3 by 2 at %0 offset 5 : i32",
    ] {
        assert!(text.contains(link), "missing `{link}` in:\n{text}");
    }
    let out = hirc()
        .arg(&input)
        .args(["--opt", "--verify-equiv=8", "-o"])
        .arg(std::env::temp_dir().join("hirc_test_delay_share.v"))
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{err}");
    assert!(err.contains("proved equivalent for K=8 cycles"), "{err}");
}

#[test]
fn optimize_flag_runs_pipeline_and_output_still_compiles() {
    let dir = std::env::temp_dir().join("hirc_test_opt");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("t.mlir");
    std::fs::write(&input, transpose_source()).unwrap();
    let outfile = dir.join("t.v");
    let out = hirc()
        .arg(&input)
        .arg("--opt")
        .arg("--timing")
        .arg("-o")
        .arg(&outfile)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("hirc timing"));
    let v = std::fs::read_to_string(&outfile).unwrap();
    assert!(v.contains("module hir_transpose"));
}

#[test]
fn parse_errors_have_positions() {
    let dir = std::env::temp_dir().join("hirc_test_parse");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("garbage.mlir");
    std::fs::write(&input, "not an ir module $$$").unwrap();
    let out = hirc().arg(&input).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn compiles_checked_in_pretty_designs() {
    // The .hir design files in designs/ are first-class inputs.
    let root = env!("CARGO_MANIFEST_DIR");
    let out = hirc()
        .arg(format!("{root}/designs/transpose.hir"))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("module hir_transpose"));

    let out = hirc()
        .arg(format!("{root}/designs/mac.hir"))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The deliberate Figure 1a error file must FAIL verification with the
    // paper's diagnostic.
    let out = hirc()
        .arg(format!("{root}/designs/err_add.hir"))
        .arg("--verify-only")
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("mismatched delay (0 vs 1) in address 0"),
        "{err}"
    );
}

#[test]
fn help_prints_usage_to_stdout_and_exits_zero() {
    let out = hirc().arg("--help").output().unwrap();
    assert!(out.status.success(), "--help must exit 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("usage: hirc"), "{stdout}");
    assert!(stdout.contains("--stats"), "{stdout}");
    assert!(out.stderr.is_empty(), "usage must go to stdout");

    let out = hirc().arg("-h").output().unwrap();
    assert!(out.status.success(), "-h must exit 0");
}

#[test]
fn stats_flag_reports_counters_from_all_stages() {
    let dir = std::env::temp_dir().join("hirc_test_stats");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("t.mlir");
    std::fs::write(&input, transpose_source()).unwrap();
    let out = hirc()
        .arg(&input)
        .arg("--opt")
        .arg("--stats")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    for scope in ["parse", "verify", "passes", "codegen", "sim"] {
        assert!(err.contains(scope), "missing scope '{scope}' in:\n{err}");
    }
    assert!(err.contains("cycles"), "{err}");
    assert!(err.contains("values_analyzed"), "{err}");
}

#[test]
fn print_ir_after_all_dumps_round_trip() {
    let dir = std::env::temp_dir().join("hirc_test_dumps");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("t.mlir");
    std::fs::write(&input, transpose_source()).unwrap();
    let out = hirc()
        .arg(&input)
        .arg("--opt")
        .arg("--print-ir-after-all")
        .arg("--emit=ir")
        .output()
        .unwrap();
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    // One banner per pass in the standard pipeline.
    assert_eq!(err.matches("// ----- IR dump after ").count(), 8, "{err}");
    // Stripping banner lines leaves a sequence of parseable modules.
    for chunk in err.split("// ----- IR dump after ").skip(1) {
        let body: String = chunk
            .lines()
            .skip(1) // the rest of the banner line
            .map(|l| format!("{l}\n"))
            .collect();
        // Each dump runs until the next banner, which split removed.
        ir::parse_module(&body).unwrap_or_else(|e| panic!("dump not parseable: {e}\n{body}"));
    }
}

/// `--print-ir-after-all` on a multi-function module runs on the per-function
/// pipeline: one dump per function per pass, grouped by function in module
/// order, each banner naming its function, and the same bytes at any thread
/// count.
#[test]
fn print_ir_after_all_dumps_each_function_in_module_order() {
    let input = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/multi_kernel.mlir");
    let run = |threads: &str| {
        let out = hirc()
            .arg(&input)
            .arg("--opt")
            .arg("--print-ir-after-all")
            .arg("--emit=ir")
            .arg(format!("--threads={threads}"))
            .output()
            .unwrap();
        assert!(out.status.success());
        String::from_utf8(out.stderr).unwrap()
    };
    let err = run("1");
    assert_eq!(err, run("2"), "dumps must not depend on --threads");

    let module = ir::parse_module(&std::fs::read_to_string(&input).unwrap()).unwrap();
    let funcs: Vec<String> = module
        .top_ops()
        .iter()
        .map(|&t| {
            module
                .op(t)
                .attr(ir::SYM_NAME)
                .unwrap()
                .as_str()
                .unwrap()
                .to_string()
        })
        .collect();
    assert!(funcs.len() >= 3, "{funcs:?}");
    let passes = hir_opt::STANDARD_PASS_NAMES;
    let mut want = Vec::new();
    for f in &funcs {
        for p in passes {
            want.push((p.to_string(), f.clone()));
        }
    }
    let mut got = Vec::new();
    for chunk in err.split("// ----- IR dump after ").skip(1) {
        let (banner, body) = chunk.split_once('\n').unwrap();
        // `<pass> (<result>) on @<func> -----`
        let (pass, rest) = banner.split_once(' ').unwrap();
        let func = rest
            .split_once(" on @")
            .and_then(|(_, f)| f.strip_suffix(" -----"))
            .unwrap_or_else(|| panic!("banner names no function: {banner}"));
        let dumped = ir::parse_module(body).unwrap_or_else(|e| panic!("{banner}: {e}\n{body}"));
        assert_eq!(dumped.top_ops().len(), 1, "{banner}: one function per dump");
        let name = dumped.op(dumped.top_ops()[0]).attr(ir::SYM_NAME).unwrap();
        assert_eq!(name.as_str(), Some(func), "{banner}");
        got.push((pass.to_string(), func.to_string()));
    }
    assert_eq!(got, want);
}

#[test]
fn profile_emits_valid_chrome_trace_with_one_span_per_pass() {
    let dir = std::env::temp_dir().join("hirc_test_profile");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("t.mlir");
    std::fs::write(&input, transpose_source()).unwrap();
    let profile = dir.join("trace.json");
    let out = hirc()
        .arg(&input)
        .arg("--opt")
        .arg(format!("--profile={}", profile.display()))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&profile).unwrap();
    let doc = obs::json::parse(&text).expect("profile must be valid JSON");
    let events = doc.get("traceEvents").unwrap().as_array().unwrap();
    let pass_spans: Vec<_> = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(|p| p.as_str()) == Some("X")
                && e.get("name")
                    .and_then(|n| n.as_str())
                    .is_some_and(|n| n.starts_with("pass "))
        })
        .collect();
    assert_eq!(pass_spans.len(), 8, "one span per executed pipeline pass");
    // All pass spans live on the same (opt) track, and stage tracks exist.
    let tids: std::collections::BTreeSet<String> = pass_spans
        .iter()
        .map(|e| format!("{:?}", e.get("tid").unwrap()))
        .collect();
    assert_eq!(tids.len(), 1, "pass spans share the opt track");
    // The function pipeline's time outside the passes is attributed too.
    let span_names: std::collections::BTreeSet<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
        .collect();
    for name in ["function-pipeline", "split", "workers", "splice", "merge"] {
        assert!(span_names.contains(name), "missing span '{name}'");
    }
    let track_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M"))
        .filter_map(|e| {
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(|n| n.as_str())
        })
        .collect();
    for stage in ["parse", "verify", "opt", "codegen", "sim"] {
        assert!(
            track_names.contains(&stage),
            "missing track '{stage}': {track_names:?}"
        );
    }
}

#[test]
fn checked_in_example_mlir_files_compile() {
    let root = env!("CARGO_MANIFEST_DIR");
    for name in ["transpose", "mac", "stencil", "multi_kernel"] {
        let out = hirc()
            .arg(format!("{root}/examples/{name}.mlir"))
            .arg("--opt")
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "examples/{name}.mlir: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn threads_flag_is_byte_identical_across_counts() {
    // The multi-kernel example has four functions; compiling it at any
    // worker count must produce byte-identical output on both streams.
    let root = env!("CARGO_MANIFEST_DIR");
    let input = format!("{root}/examples/multi_kernel.mlir");
    let run = |threads: &str| {
        let out = hirc()
            .arg(&input)
            .arg("--opt")
            .arg("--verify-each")
            .arg("--emit=ir")
            .arg(format!("--threads={threads}"))
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "--threads={threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        (out.stdout, out.stderr)
    };
    let base = run("1");
    for threads in ["2", "4", "max"] {
        assert_eq!(run(threads), base, "--threads={threads} diverged");
    }

    // Bad values are usage errors.
    let out = hirc().arg(&input).arg("--threads=0").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = hirc().arg(&input).arg("--threads=lots").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn exit_codes_distinguish_usage_diagnostics_and_internal_errors() {
    let dir = std::env::temp_dir().join("hirc_test_exit_codes");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("t.mlir");
    std::fs::write(&input, transpose_source()).unwrap();

    // 2: bad flag.
    let out = hirc().arg("--definitely-not-a-flag").output().unwrap();
    assert_eq!(out.status.code(), Some(2), "unknown flag is a usage error");

    // 2: unknown pass name.
    let out = hirc()
        .arg(&input)
        .arg("--pipeline=no-such-pass")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "unknown pass is a usage error");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown pass 'no-such-pass'"), "{err}");
    assert!(err.contains("known passes"), "{err}");

    // 1: input diagnostics (schedule error).
    let bad = dir.join("bad.mlir");
    std::fs::write(
        &bad,
        ir::print_module(&kernels::errors::figure1_array_add(false)),
    )
    .unwrap();
    let out = hirc().arg(&bad).arg("--verify-only").output().unwrap();
    assert_eq!(out.status.code(), Some(1), "diagnostics exit with 1");

    // 3: internal error (deliberately panicking pass).
    let out = hirc()
        .arg(&input)
        .arg("--pipeline=test-panic")
        .arg("--emit=ir")
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(3),
        "a pass panic is an internal error"
    );

    // 0: clean compile.
    let out = hirc().arg(&input).arg("--verify-only").output().unwrap();
    assert_eq!(out.status.code(), Some(0));

    // The exit-code contract is documented in --help.
    let out = hirc().arg("--help").output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("exit codes"), "{stdout}");
}

#[test]
fn panicking_pass_writes_reproducer_that_retriggers_the_crash() {
    let dir = std::env::temp_dir().join("hirc_test_reproducer");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("t.mlir");
    std::fs::write(&input, transpose_source()).unwrap();
    let repro = dir.join("repro.mlir");
    let _ = std::fs::remove_file(&repro);

    let out = hirc()
        .arg(&input)
        .arg("--pipeline=hir-cse,test-panic,hir-canonicalize")
        .arg(format!("--crash-reproducer={}", repro.display()))
        .arg("--emit=ir")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
    let err = String::from_utf8_lossy(&out.stderr);
    // The diagnostic names the crashing pass...
    assert!(err.contains("pass 'test-panic' panicked"), "{err}");
    assert!(err.contains("crash reproducer written"), "{err}");

    // ...and the reproducer file records the failing function's
    // pre-pipeline IR plus the full pipeline (the snapshot is taken before
    // any pass runs on that function, so the whole pipeline replays).
    let text = std::fs::read_to_string(&repro).unwrap();
    let parsed = ir::parse_reproducer(&text).expect("reproducer header");
    assert_eq!(
        parsed.pipeline,
        vec!["hir-cse", "test-panic", "hir-canonicalize"]
    );
    assert!(
        parsed.error.contains("function '@transpose'"),
        "reproducer must name the failing function: {}",
        parsed.error
    );

    // Feeding the reproducer back re-triggers the recorded crash (exit 3).
    let out = hirc().arg(&repro).arg("--emit=ir").output().unwrap();
    assert_eq!(out.status.code(), Some(3), "reproducer must re-trigger");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("input is a crash reproducer"), "{err}");
    assert!(err.contains("pass 'test-panic' panicked"), "{err}");
}

/// `--print-ir-after-all` does not change which pipeline runs, so the crash
/// reproducer is still the failing function's pre-pipeline IR plus the full
/// pipeline.
#[test]
fn print_ir_does_not_change_the_crash_reproducer() {
    let dir = std::env::temp_dir().join("hirc_test_reproducer_print_ir");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("t.mlir");
    std::fs::write(&input, transpose_source()).unwrap();
    let repro = dir.join("repro.mlir");
    let _ = std::fs::remove_file(&repro);

    let out = hirc()
        .arg(&input)
        .arg("--pipeline=hir-cse,test-panic,hir-canonicalize")
        .arg(format!("--crash-reproducer={}", repro.display()))
        .arg("--print-ir-after-all")
        .arg("--emit=ir")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
    let err = String::from_utf8_lossy(&out.stderr);
    // The pass before the panic dumped its function.
    assert!(
        err.contains("// ----- IR dump after hir-cse (unchanged) on @transpose -----"),
        "{err}"
    );
    let parsed =
        ir::parse_reproducer(&std::fs::read_to_string(&repro).unwrap()).expect("reproducer header");
    assert_eq!(
        parsed.pipeline,
        vec!["hir-cse", "test-panic", "hir-canonicalize"]
    );
    assert!(
        parsed.error.contains("function '@transpose'"),
        "{}",
        parsed.error
    );
}

#[test]
fn recovering_parser_reports_every_error_through_the_cli() {
    let root = env!("CARGO_MANIFEST_DIR");
    let out = hirc()
        .arg(format!("{root}/tests/corpus/malformed/multi_errors.mlir"))
        .arg("--verify-only")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    let n = err.matches(": error: ").count();
    assert!(
        n >= 3,
        "expected >= 3 positioned diagnostics, got {n}:\n{err}"
    );
    // file:line:col prefixes make the errors clickable.
    assert!(err.contains("multi_errors.mlir:"), "{err}");
}

#[test]
fn error_limit_flag_caps_cli_diagnostics() {
    let root = env!("CARGO_MANIFEST_DIR");
    let out = hirc()
        .arg(format!("{root}/tests/corpus/malformed/multi_errors.mlir"))
        .arg("--error-limit=1")
        .arg("--verify-only")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(err.matches(": error: ").count(), 1, "{err}");
    assert!(err.contains("--error-limit"), "{err}");
}

#[test]
fn verify_each_localizes_and_sim_budget_flag_is_accepted() {
    let dir = std::env::temp_dir().join("hirc_test_veach");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("t.mlir");
    std::fs::write(&input, transpose_source()).unwrap();

    // --verify-each on a healthy pipeline is a no-op.
    let out = hirc()
        .arg(&input)
        .arg("--opt")
        .arg("--verify-each")
        .arg("--emit=ir")
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // --sim-max-cycles bounds the smoke simulation under --stats.
    let out = hirc()
        .arg(&input)
        .arg("--stats")
        .arg("--sim-max-cycles=16")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("sim"), "{err}");
}

#[test]
fn stencil_and_unrolled_designs_compile_and_run() {
    use hir_suite::hir::interp::{ArgValue, Interpreter};
    let root = env!("CARGO_MANIFEST_DIR");

    // The stencil design file: parse, verify, simulate against the kernels
    // crate's reference.
    let src = std::fs::read_to_string(format!("{root}/designs/stencil.hir")).unwrap();
    let m = hir_suite::hir::parse_pretty(&src).expect("parse stencil.hir");
    let mut diags = ir::DiagnosticEngine::new();
    hir_suite::hir_verify::verify_schedule(&m, &mut diags)
        .unwrap_or_else(|_| panic!("{}", diags.render()));
    let input: Vec<i128> = (0..64).map(|x| x * 5 % 37).collect();
    let r = Interpreter::new(&m)
        .run(
            "stencil_1d",
            &[ArgValue::tensor_from(&input), ArgValue::uninit_tensor(64)],
        )
        .expect("simulate");
    let expect = kernels::stencil::reference(64, &input);
    for (i, &want) in expect.iter().enumerate().take(64) {
        assert_eq!(r.tensors[&1][i], Some(want), "B[{i}]");
    }

    // Listing 4: all four lanes write in the same cycle.
    let src = std::fs::read_to_string(format!("{root}/designs/unrolled.hir")).unwrap();
    let m = hir_suite::hir::parse_pretty(&src).expect("parse unrolled.hir");
    let r = Interpreter::new(&m)
        .run("lanes", &[ArgValue::uninit_tensor(4)])
        .expect("simulate");
    assert_eq!(r.tensors[&0], vec![Some(0), Some(7), Some(14), Some(21)]);
    assert!(
        r.cycles <= 1,
        "lanes must run in parallel, took {}",
        r.cycles
    );
}

// ------------------------------------------------- translation validation

fn example(name: &str) -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("examples")
        .join(name)
}

#[test]
fn verify_equiv_flag_validation() {
    let dir = std::env::temp_dir().join("hirc_test_equiv_flags");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("t.mlir");
    std::fs::write(&input, transpose_source()).unwrap();

    // --verify-equiv compares against the *optimized* module, so it needs
    // --opt or --pipeline.
    let out = hirc().arg(&input).arg("--verify-equiv").output().unwrap();
    assert_eq!(out.status.code(), Some(2), "verify-equiv without passes");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--verify-equiv"), "{err}");

    // K = 0 proves nothing.
    let out = hirc()
        .arg(&input)
        .arg("--opt")
        .arg("--verify-equiv=0")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "K=0 is a usage error");

    // Report and corpus flags are meaningless without the check itself.
    for flag in ["--verify-equiv-report=r.json", "--equiv-corpus-dir=corpus"] {
        let out = hirc().arg(&input).arg("--opt").arg(flag).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag} without --verify-equiv");
    }
}

#[test]
fn verify_equiv_proves_optimized_example_and_writes_report() {
    let dir = std::env::temp_dir().join("hirc_test_equiv_prove");
    std::fs::create_dir_all(&dir).unwrap();
    let report = dir.join("equiv.json");
    let out = hirc()
        .arg(example("transpose.mlir"))
        .arg("--opt")
        .arg("--verify-equiv=8")
        .arg(format!("--verify-equiv-report={}", report.display()))
        .arg("-o")
        .arg(dir.join("t.v"))
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("proved equivalent for K=8 cycles"),
        "proof must be reported: {err}"
    );
    let json = std::fs::read_to_string(&report).unwrap();
    assert!(json.contains("\"k\":8"), "{json}");
    assert!(json.contains("\"proved\":1"), "{json}");
    assert!(json.contains("\"counterexamples\":0"), "{json}");
    assert!(json.contains("\"status\":\"proved\""), "{json}");
}

#[test]
fn verify_equiv_refutes_miscompile_and_harvests_regression() {
    let dir = std::env::temp_dir().join("hirc_test_equiv_cex");
    let corpus = dir.join("harvest");
    let _ = std::fs::remove_dir_all(&corpus);
    std::fs::create_dir_all(&dir).unwrap();
    let report = dir.join("equiv.json");
    let out = hirc()
        .arg(example("mac.mlir"))
        .arg("--pipeline=test-miscompile")
        .arg("--verify-equiv")
        .arg(format!("--verify-equiv-report={}", report.display()))
        .arg(format!("--equiv-corpus-dir={}", corpus.display()))
        .arg("-o")
        .arg(dir.join("t.v"))
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "a confirmed miscompile is a diagnostic, stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("replay-confirmed"), "{err}");
    assert!(err.contains("counterexample stimulus for @mac"), "{err}");
    let json = std::fs::read_to_string(&report).unwrap();
    assert!(json.contains("\"counterexamples\":1"), "{json}");
    assert!(json.contains("\"status\":\"counterexample\""), "{json}");

    // The counterexample was ddmin-reduced into a fuzz regression, and the
    // reduced input still parses.
    let files: Vec<_> = std::fs::read_dir(&corpus)
        .expect("harvest dir created")
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(
        files.len(),
        1,
        "exactly one harvested regression: {files:?}"
    );
    let name = files[0].file_name().unwrap().to_string_lossy().to_string();
    assert!(name.starts_with("equiv_miscompile_"), "{name}");
    let reduced = std::fs::read_to_string(&files[0]).unwrap();
    assert!(
        ir::parse_module(&reduced).is_ok(),
        "reduced case must parse"
    );
}

#[test]
fn verify_equiv_budget_exhaustion_degrades_loudly() {
    let dir = std::env::temp_dir().join("hirc_test_equiv_budget");
    std::fs::create_dir_all(&dir).unwrap();
    let report = dir.join("equiv.json");
    // A 1 ms wall-clock budget cannot complete a K=16384 proof of the
    // transpose design (about 17 ms unbounded, where K=16 ends within the
    // millisecond). Every cycle folds at word level and never reaches the
    // solver, so this also checks the per-cycle deadline. The driver must
    // say so out loud, fall back to the sampled differential, and still
    // exit 0 (no divergence observed).
    let out = hirc()
        .arg(example("transpose.mlir"))
        .arg("--opt")
        .arg("--verify-equiv=16384")
        .arg("--equiv-time-ms=1")
        .arg(format!("--verify-equiv-report={}", report.display()))
        .arg("-o")
        .arg(dir.join("t.v"))
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("hirc: remark:"), "degradation is loud: {err}");
    assert!(err.contains("NOT proved"), "{err}");
    let json = std::fs::read_to_string(&report).unwrap();
    assert!(json.contains("\"sampled\":1"), "{json}");
}

#[test]
fn verify_equiv_sim_budget_exhaustion_is_a_diagnostic_not_a_pass() {
    // The bugfix satellite: when --sim-max-cycles starves the replay of a
    // counterexample, the driver must exit 1 with a structured diagnostic —
    // never panic, and never silently report success.
    let out = hirc()
        .arg(example("mac.mlir"))
        .arg("--pipeline=test-miscompile")
        .arg("--verify-equiv")
        .arg("--sim-max-cycles=2")
        .arg("-o")
        .arg(std::env::temp_dir().join("hirc_test_equiv_simbudget.v"))
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("simulation budget exhausted"), "{err}");
}

#[test]
fn emit_btor2_matches_golden_across_thread_counts() {
    let golden = include_str!("golden/mac.btor2");
    let run = |threads: &str| {
        let out = hirc()
            .arg(example("mac.mlir"))
            .arg("--emit=btor2")
            .arg(format!("--threads={threads}"))
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let t1 = run("1");
    assert_eq!(t1, golden, "BTOR2 drifted from tests/golden/mac.btor2");
    assert_eq!(t1, run("4"), "BTOR2 must not depend on --threads");
    assert_eq!(t1, run("1"), "BTOR2 must be byte-identical across runs");
}

#[test]
fn sim_engine_flag_accepts_all_engines_and_rejects_unknown_names() {
    // Every engine produces the same run summary on the same input.
    let run = |engine: &str| {
        let out = hirc()
            .arg(example("mac.mlir"))
            .arg("--emit=sim")
            .arg(format!("--sim-engine={engine}"))
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "--sim-engine={engine} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let base = run("bytecode");
    assert!(base.contains("result0 ="), "{base}");
    for engine in ["treewalk", "event"] {
        assert_eq!(run(engine), base, "--sim-engine={engine} diverged");
    }
    // The batched engine's lane 0 reproduces the scalar run; later lanes
    // append their own summaries.
    let batched = run("batched");
    assert!(batched.starts_with(&base), "{batched}");
    assert!(batched.contains("lane 1:"), "{batched}");

    // Unknown engine names are usage errors listing the accepted values.
    let out = hirc()
        .arg(example("mac.mlir"))
        .arg("--emit=sim")
        .arg("--sim-engine=verilator")
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "unknown engine is a usage error"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    for accepted in ["bytecode", "treewalk", "event", "batched"] {
        assert!(err.contains(accepted), "{err}");
    }
}

#[test]
fn sim_batch_flag_validation() {
    // --sim-batch without --emit=sim is a usage error.
    let out = hirc()
        .arg(example("mac.mlir"))
        .arg("--sim-batch=4")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--sim-batch requires --emit=sim"), "{err}");

    // --sim-batch with a non-batched engine is a usage error.
    let out = hirc()
        .arg(example("mac.mlir"))
        .arg("--emit=sim")
        .arg("--sim-batch=4")
        .arg("--sim-engine=event")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--sim-engine=batched"), "{err}");

    // Lane counts outside 1..=64 are usage errors.
    for bad in ["0", "65", "lots"] {
        let out = hirc()
            .arg(example("mac.mlir"))
            .arg("--emit=sim")
            .arg(format!("--sim-batch={bad}"))
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "--sim-batch={bad} must be rejected"
        );
    }

    // A valid lane count prints one summary block per lane.
    let out = hirc()
        .arg(example("mac.mlir"))
        .arg("--emit=sim")
        .arg("--sim-batch=3")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("lane 1:") && text.contains("lane 2:"),
        "{text}"
    );
    assert!(!text.contains("lane 3:"), "{text}");
}

/// The first VCD timestep at which each named net holds a non-zero value.
fn first_nonzero_timesteps(vcd: &str, names: &[&str]) -> Vec<Option<u64>> {
    let mut code_of = std::collections::HashMap::new();
    let mut first = vec![None; names.len()];
    let mut now = 0u64;
    for line in vcd.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        let (code, value) = match words.as_slice() {
            ["$var", "wire", _, code, name, "$end"] => {
                if let Some(i) = names.iter().position(|n| n == name) {
                    code_of.insert(code.to_string(), i);
                }
                continue;
            }
            [t] if t.starts_with('#') => {
                now = t[1..].parse().expect("timestep");
                continue;
            }
            [bits, code] => (*code, bits.trim_start_matches('b')),
            [bit] if !bit.starts_with('$') => (&bit[1..], &bit[..1]),
            _ => continue,
        };
        if let Some(&i) = code_of.get(code) {
            if first[i].is_none() && value.contains('1') {
                first[i] = Some(now);
            }
        }
    }
    first
}

/// VCD timestep `#n` is the state edge `n` samples, read data the harness
/// served after the previous edge included: transpose's latency-1 bram
/// read requested at `#n` shows its data at `#n+1`, together with the
/// write it feeds.
#[test]
fn vcd_shows_bram_read_data_in_the_cycle_after_the_request() {
    let dir = std::env::temp_dir().join(format!("hirc_test_vcd_read_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let vcd = dir.join("transpose.vcd");
    let out = hirc()
        .arg(example("transpose.mlir"))
        .arg("--emit=sim")
        .arg(format!("--sim-vcd={}", vcd.display()))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&vcd).expect("vcd written");
    let _ = std::fs::remove_dir_all(&dir);
    let names = ["Ai_rd_en", "Ai_rd_data", "Co_wr_en", "Co_wr_data"];
    let first = first_nonzero_timesteps(&text, &names);
    let [Some(rd_en), Some(rd_data), Some(wr_en), Some(wr_data)] = first[..] else {
        panic!("{names:?} never non-zero: {first:?}");
    };
    // Every word of the stimulus memory is non-zero, so the first read's
    // data is too.
    assert_eq!(rd_data, rd_en + 1, "Ai_rd_data timestep");
    assert_eq!(
        wr_data, rd_data,
        "Co_wr_data follows Ai_rd_data combinationally"
    );
    assert_eq!(
        wr_en, rd_data,
        "the write is issued in the cycle its data arrives"
    );
}

#[test]
fn sim_engines_agree_on_vcd_and_telemetry_through_the_cli() {
    let dir = std::env::temp_dir().join("hirc_test_engine_matrix");
    std::fs::create_dir_all(&dir).unwrap();
    let run = |engine: &str| {
        let vcd = dir.join(format!("{engine}.vcd"));
        let telem = dir.join(format!("{engine}.json"));
        let out = hirc()
            .arg(example("multi_kernel.mlir"))
            .arg("--emit=sim")
            .arg(format!("--sim-engine={engine}"))
            .arg(format!("--sim-vcd={}", vcd.display()))
            .arg(format!("--sim-telemetry={}", telem.display()))
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "--sim-engine={engine} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            String::from_utf8_lossy(&out.stdout).to_string(),
            std::fs::read(&vcd).expect("vcd written"),
            std::fs::read_to_string(&telem).expect("telemetry written"),
        )
    };
    let (base_out, base_vcd, base_telem) = run("bytecode");
    for engine in ["event", "batched"] {
        let (o, v, t) = run(engine);
        // Batched appends per-lane blocks after the (identical) lane-0 lines.
        assert!(
            o.starts_with(&base_out),
            "--sim-engine={engine}: summary diverged"
        );
        assert_eq!(v, base_vcd, "--sim-engine={engine}: VCD bytes diverged");
        assert_eq!(t, base_telem, "--sim-engine={engine}: telemetry diverged");
    }
}
