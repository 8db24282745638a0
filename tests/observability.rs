//! End-to-end tests of the observability surface: optimization remarks,
//! schedule/resource reports, machine-readable stats, and simulator VCD
//! waveforms, all driven through the `hirc` binary.

use std::path::PathBuf;
use std::process::Command;

fn hirc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hirc"))
}

fn example(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("examples")
        .join(name)
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hirc_obs_{name}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Satellite (c): golden VCD for `examples/mac.mlir`. The simulated design
/// is fully deterministic, so two runs must produce byte-identical
/// waveforms with the expected structure and the known result value.
#[test]
fn mac_example_dumps_golden_vcd() {
    let dir = tmp("vcd");
    let run = |path: &PathBuf| {
        let out = hirc()
            .arg(example("mac.mlir"))
            .arg("--emit=sim")
            .arg(format!("--sim-vcd={}", path.display()))
            .output()
            .expect("run hirc");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let (w1, w2) = (dir.join("w1.vcd"), dir.join("w2.vcd"));
    let stdout = run(&w1);
    // mac(3, 6, 0): call @mult(3, 6) -> 18, + c delayed = 18.
    assert!(stdout.contains("sim @mac"), "{stdout}");
    assert!(stdout.contains("result0 = 18"), "{stdout}");

    let vcd = std::fs::read_to_string(&w1).unwrap();
    assert!(vcd.contains("$timescale 1ns $end"), "missing timescale");
    assert!(vcd.contains("$var wire 1"), "missing 1-bit vars (clk)");
    assert!(vcd.contains(" clk "), "clk not declared:\n{vcd}");
    assert!(
        vcd.contains("$enddefinitions $end"),
        "missing enddefinitions"
    );
    assert!(vcd.contains("\n#0\n"), "missing time-zero marker");
    // 18 = 0b10010 must appear as a bus value change once the result lands.
    assert!(
        vcd.contains("b10010 "),
        "result value 18 never appears:\n{vcd}"
    );

    run(&w2);
    let a = std::fs::read(&w1).unwrap();
    let b = std::fs::read(&w2).unwrap();
    assert_eq!(a, b, "VCD dumps must be byte-identical across runs");
}

/// Satellite (c): `--remarks` JSONL is byte-identical whether the pass
/// pipeline runs serially or across four worker threads, every line is
/// strict JSON, and the multi_kernel example produces at least one applied
/// remark from each of CSE, constant folding, and strength reduction.
#[test]
fn remarks_jsonl_is_deterministic_across_threads() {
    let dir = tmp("remarks");
    let run = |threads: u32, path: &PathBuf| {
        let out = hirc()
            .arg(example("multi_kernel.mlir"))
            .arg("--opt")
            .arg(format!("--threads={threads}"))
            .arg(format!("--remarks={}", path.display()))
            .arg("--emit=ir")
            .output()
            .expect("run hirc");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    let (r1, r4) = (dir.join("t1.jsonl"), dir.join("t4.jsonl"));
    run(1, &r1);
    run(4, &r4);
    let t1 = std::fs::read_to_string(&r1).unwrap();
    let t4 = std::fs::read_to_string(&r4).unwrap();
    assert_eq!(t1, t4, "remark stream must not depend on --threads");

    let mut applied_cse = 0;
    let mut applied_fold = 0;
    let mut applied_strength = 0;
    let mut missed = 0;
    for line in t1.lines() {
        let v = obs::json::parse(line).unwrap_or_else(|e| panic!("bad JSONL: {e}\n{line}"));
        let o = v.as_object().expect("remark is an object");
        let pass = o.get("pass").and_then(|p| p.as_str()).expect("pass field");
        let status = o
            .get("status")
            .and_then(|s| s.as_str())
            .expect("status field");
        assert!(
            status == "applied" || status == "missed",
            "unknown status {status}"
        );
        match (pass, status) {
            ("hir-cse", "applied") => applied_cse += 1,
            ("hir-fold-constants", "applied") => applied_fold += 1,
            ("hir-strength-reduce", "applied") => applied_strength += 1,
            _ => {}
        }
        if status == "missed" {
            missed += 1;
        }
    }
    assert!(applied_cse >= 1, "no applied CSE remark:\n{t1}");
    assert!(applied_fold >= 1, "no applied fold remark:\n{t1}");
    assert!(applied_strength >= 1, "no applied strength remark:\n{t1}");
    assert!(missed >= 1, "no missed remark:\n{t1}");
}

/// The full acceptance invocation: all three report artifacts in one run,
/// each strict-JSON-parseable, with the expected shape.
#[test]
fn report_flags_write_strict_json_artifacts() {
    let dir = tmp("reports");
    let (r, s, u, st, v) = (
        dir.join("r.jsonl"),
        dir.join("s.json"),
        dir.join("u.json"),
        dir.join("stats.json"),
        dir.join("out.v"),
    );
    let out = hirc()
        .arg(example("multi_kernel.mlir"))
        .arg("--opt")
        .arg(format!("--remarks={}", r.display()))
        .arg(format!("--schedule-report={}", s.display()))
        .arg(format!("--resource-report={}", u.display()))
        .arg(format!("--stats={}", st.display()))
        .arg("--emit=verilog")
        .arg("-o")
        .arg(&v)
        .output()
        .expect("run hirc");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(std::fs::read_to_string(&v).unwrap().contains("module "));

    // Schedule report: one entry per non-external function, each op row
    // carrying root/offset/latency.
    let sched = obs::json::parse(&std::fs::read_to_string(&s).unwrap()).expect("schedule JSON");
    let funcs = sched
        .as_object()
        .unwrap()
        .get("functions")
        .unwrap()
        .as_array()
        .unwrap();
    assert_eq!(funcs.len(), 4, "mac0..mac2 + alu (extern mult excluded)");
    for f in funcs {
        let f = f.as_object().unwrap();
        assert!(f.get("pipeline_depth").unwrap().as_f64().is_some());
        for op in f.get("ops").unwrap().as_array().unwrap() {
            let op = op.as_object().unwrap();
            for key in ["op", "root"] {
                assert!(op.get(key).unwrap().as_str().is_some(), "missing {key}");
            }
            for key in ["offset", "latency"] {
                assert!(op.get(key).unwrap().as_f64().is_some(), "missing {key}");
            }
        }
    }

    // Resource report: same function set, with register and arithmetic
    // counts; the alu function keeps at least one adder after CSE.
    let res = obs::json::parse(&std::fs::read_to_string(&u).unwrap()).expect("resource JSON");
    let rfuncs = res
        .as_object()
        .unwrap()
        .get("functions")
        .unwrap()
        .as_array()
        .unwrap();
    assert_eq!(rfuncs.len(), 4);
    let alu = rfuncs
        .iter()
        .find(|f| {
            f.as_object()
                .and_then(|o| o.get("function"))
                .and_then(|n| n.as_str())
                == Some("alu")
        })
        .expect("alu in resource report");
    let alu = alu.as_object().unwrap();
    let arith = alu.get("arith").unwrap().as_object().unwrap();
    assert!(arith.get("add").unwrap().as_f64().unwrap() >= 1.0);
    // x*12 strength-reduces to shift-adds, visible as shifter units.
    assert!(arith.get("shl").unwrap().as_f64().unwrap() >= 1.0);
    // The mac functions register their delayed operands and call results.
    let mac0 = rfuncs[0].as_object().unwrap();
    assert!(mac0.get("registers").unwrap().as_f64().unwrap() >= 1.0);
    assert!(mac0.get("delay_lines").unwrap().as_f64().unwrap() >= 1.0);

    // Stats file: strict JSON from the obs layer, with the smoke
    // simulation's counter as in the `--stats` table.
    let stats = obs::json::parse(&std::fs::read_to_string(&st).unwrap()).expect("stats JSON");
    let counters = stats.get("counters").expect("counters object");
    assert!(counters.get("sim.cycles").is_some(), "no sim.cycles");

    // Remarks: at least one line, all parseable (detail covered above).
    let remarks = std::fs::read_to_string(&r).unwrap();
    assert!(remarks.lines().count() >= 3, "{remarks}");
    for line in remarks.lines() {
        obs::json::parse(line).expect("remark line");
    }
}

/// Satellite (a): `--rpass=REGEX` echoes matching remarks through the
/// diagnostic engine with `remark:` severity.
#[test]
fn rpass_echoes_matching_remarks_as_diagnostics() {
    let out = hirc()
        .arg(example("multi_kernel.mlir"))
        .arg("--opt")
        .arg("--rpass=strength")
        .arg("--emit=ir")
        .output()
        .expect("run hirc");
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("remark:"), "no remark diagnostics:\n{err}");
    assert!(err.contains("hir-strength-reduce"), "{err}");
    assert!(
        !err.contains("hir-cse"),
        "--rpass=strength must filter out CSE remarks:\n{err}"
    );

    // Without --rpass (and without --remarks) nothing is echoed.
    let out = hirc()
        .arg(example("multi_kernel.mlir"))
        .arg("--opt")
        .arg("--emit=ir")
        .output()
        .expect("run hirc");
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("remark:"), "{err}");
}

/// Acceptance: the schedule report's per-op offsets agree with the validity
/// analysis on the `examples/schedule_errors.rs` fixtures (the valid
/// variants of the paper's Figure 1 and Figure 2 designs).
#[test]
fn schedule_report_agrees_with_validity_on_figure_fixtures() {
    for m in [
        kernels::errors::figure1_array_add(true),
        kernels::errors::figure2_mac(2),
    ] {
        let report = hir_verify::schedule_report(&m);
        let symbols = ir::SymbolTable::build(&m);
        for &top in m.top_ops() {
            let Some(func) = hir::ops::FuncOp::wrap(&m, top) else {
                continue;
            };
            if func.is_external(&m) {
                continue;
            }
            let mut diags = ir::DiagnosticEngine::new();
            let info = hir_verify::analyze_function(&m, func, &symbols, &mut diags);
            assert!(!diags.has_errors(), "{}", diags.render());
            let fr = report
                .functions
                .iter()
                .find(|f| f.name == func.name(&m))
                .expect("function in report");
            assert!(!fr.ops.is_empty(), "no rows for {}", fr.name);
            for row in &fr.ops {
                // Only ops that produce a value whose validity the analysis
                // tracks at a known latency.
                if row.op != hir::opname::DELAY
                    && row.op != hir::opname::MEM_READ
                    && row.op != hir::opname::CALL
                {
                    continue;
                }
                let op = m
                    .collect_all_ops()
                    .into_iter()
                    .find(|&o| {
                        m.is_live(o)
                            && m.op(o).name().as_str() == row.op
                            && m.op(o).loc().to_string() == row.loc
                            && hir::ops::time_operand(&m, o) == Some(row.root_value)
                            && hir::ops::time_offset(&m, o) == row.offset
                    })
                    .expect("report row corresponds to a live op");
                let result = m.op(op).results()[0];
                match info.validity.get(&result) {
                    Some(hir_verify::Validity::At { root, offset }) => {
                        assert_eq!(*root, row.root_value, "root mismatch on {}", row.op);
                        assert_eq!(
                            *offset,
                            row.offset + row.latency,
                            "offset mismatch on {} at {}",
                            row.op,
                            row.loc
                        );
                    }
                    other => panic!("unexpected validity {other:?} for {}", row.op),
                }
            }
        }
    }
}

/// Flag validation: `--sim-vcd` is meaningless without the simulator
/// backend and must be rejected as a usage error (exit code 2).
#[test]
fn sim_vcd_requires_sim_emit() {
    let out = hirc()
        .arg(example("mac.mlir"))
        .arg("--sim-vcd=/tmp/never.vcd")
        .output()
        .expect("run hirc");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--sim-vcd requires --emit=sim"), "{err}");
}

/// Golden telemetry counts for the mac example: the design and stimulus are
/// fully deterministic, so the counter values are exact, and two runs must
/// produce byte-identical JSON.
#[test]
fn mac_example_emits_golden_telemetry() {
    let dir = tmp("telemetry");
    let run = |path: &PathBuf| {
        let out = hirc()
            .arg(example("mac.mlir"))
            .arg("--emit=sim")
            .arg(format!("--sim-telemetry={}", path.display()))
            .output()
            .expect("run hirc");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    let (t1, t2) = (dir.join("t1.json"), dir.join("t2.json"));
    run(&t1);
    run(&t2);
    assert_eq!(
        std::fs::read(&t1).unwrap(),
        std::fs::read(&t2).unwrap(),
        "telemetry JSON must be byte-identical across runs"
    );

    let text = std::fs::read_to_string(&t1).unwrap();
    let doc = obs::json::parse(&text).expect("strict telemetry JSON");
    let num = |key: &str| doc.get(key).and_then(|v| v.as_f64()).expect(key);
    // mac latency is 2, the harness runs 8 drain cycles past quiescence.
    assert_eq!(num("cycles"), 11.0, "{text}");
    // Every net except the two clocks toggles during the mult(3,6)+9 run.
    assert!(num("toggle_coverage") >= 0.9, "{text}");
    let insns = |key: &str, field: &str| {
        doc.get(key)
            .and_then(|v| v.get(field))
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("{key}.{field}"))
    };
    // Golden instruction counters: 23 settle insns × 11 cycles (+ 3 warm-up
    // evaluations at t=0), 15 step insns × 11 cycles.
    assert_eq!(insns("settle_insns", "len"), 23.0, "{text}");
    assert_eq!(insns("settle_insns", "executed"), 299.0, "{text}");
    assert_eq!(insns("settle_insns", "changed"), 29.0, "{text}");
    assert_eq!(insns("step_insns", "len"), 15.0, "{text}");
    assert_eq!(insns("step_insns", "executed"), 165.0, "{text}");
    assert_eq!(insns("step_insns", "changed"), 19.0, "{text}");

    // Dynamic utilization joins the resource report's units to nets: the
    // mac adder produces exactly one new sum in the whole run.
    let units = doc.get("units").and_then(|u| u.as_array()).expect("units");
    let adder = units
        .iter()
        .find(|u| u.get("unit").and_then(|v| v.as_str()) == Some("arith.add"))
        .unwrap_or_else(|| panic!("no arith.add unit: {text}"));
    assert_eq!(adder.get("mode").and_then(|v| v.as_str()), Some("toggle"));
    assert_eq!(
        adder.get("active_cycles").and_then(|v| v.as_f64()),
        Some(1.0),
        "{text}"
    );
    // The result lands once: result0 toggles in exactly one cycle.
    let nets = doc.get("nets").and_then(|n| n.as_array()).expect("nets");
    let result0 = nets
        .iter()
        .find(|n| n.get("name").and_then(|v| v.as_str()) == Some("result0"))
        .expect("result0 net");
    assert_eq!(
        result0.get("toggle_cycles").and_then(|v| v.as_f64()),
        Some(1.0),
        "{text}"
    );
    // Per-cone quiescence fractions are present and sane.
    let cones = doc
        .get("settle_cones")
        .and_then(|c| c.as_array())
        .expect("settle_cones");
    assert!(!cones.is_empty(), "{text}");
    for c in cones {
        let f = c
            .get("quiescent_fraction")
            .and_then(|v| v.as_f64())
            .expect("fraction");
        assert!((0.0..=1.0).contains(&f), "{text}");
    }
}

/// The differential check behind the telemetry plane: the bytecode
/// interpreter and the tree-walk oracle must report identical counters and
/// identical traces on the paper's Figure 1 and Figure 2 designs.
#[test]
fn engines_report_identical_telemetry_on_figure_fixtures() {
    use hir_codegen::testbench::{Harness, HarnessArg};
    let a: Vec<i128> = (0..128).map(|x| x % 23 - 11).collect();
    let b: Vec<i128> = (0..128).map(|x| 3 * x % 17 - 8).collect();
    let fixtures: Vec<(ir::Module, &str, Vec<HarnessArg>)> = vec![
        (
            kernels::errors::figure1_array_add(true),
            "Array_Add",
            vec![
                HarnessArg::mem_from(&a),
                HarnessArg::mem_from(&b),
                HarnessArg::zero_mem(128),
            ],
        ),
        (
            kernels::errors::figure2_mac(2),
            "mac",
            vec![HarnessArg::Int(3), HarnessArg::Int(6), HarnessArg::Int(9)],
        ),
    ];
    for (mut m, name, args) in fixtures {
        let (mut design, _) = kernels::compile_hir(&mut m, true).expect("compile");
        for stub in hir_codegen::extern_stubs(&m).expect("stubs") {
            design.add(stub);
        }
        let run = |engine: verilog::Engine| {
            let func = kernels::find_func(&m, name);
            let mut h = Harness::new(&design, &m, func, &args).expect("harness");
            h.set_engine(engine);
            h.enable_telemetry(true);
            let rep = h.run(100_000).expect("run");
            (
                rep,
                h.telemetry_report(None).expect("report"),
                h.telemetry_trace().expect("trace"),
            )
        };
        let (rep_b, telem_b, trace_b) = run(verilog::Engine::Bytecode);
        let (rep_t, telem_t, trace_t) = run(verilog::Engine::TreeWalk);
        assert_eq!(rep_b.results, rep_t.results, "{name}: results differ");
        assert_eq!(telem_b, telem_t, "{name}: engines must count identically");
        assert_eq!(trace_b, trace_t, "{name}: traces must be identical");
        assert_eq!(
            obs::json::document(&telem_b),
            obs::json::document(&telem_t),
            "{name}: JSON must match"
        );
    }
}

/// Telemetry is a pure observer: a combined telemetry+VCD run must produce
/// a waveform byte-identical to a VCD-only run.
#[test]
fn telemetry_does_not_perturb_vcd_waveforms() {
    let dir = tmp("telem_vcd");
    let (plain, combined, telem, trace) = (
        dir.join("plain.vcd"),
        dir.join("combined.vcd"),
        dir.join("telem.json"),
        dir.join("trace.json"),
    );
    let out = hirc()
        .arg(example("mac.mlir"))
        .arg("--emit=sim")
        .arg(format!("--sim-vcd={}", plain.display()))
        .output()
        .expect("run hirc");
    assert!(out.status.success());
    let out = hirc()
        .arg(example("mac.mlir"))
        .arg("--emit=sim")
        .arg(format!("--sim-vcd={}", combined.display()))
        .arg(format!("--sim-telemetry={}", telem.display()))
        .arg(format!("--sim-trace={}", trace.display()))
        .output()
        .expect("run hirc");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read(&plain).unwrap(),
        std::fs::read(&combined).unwrap(),
        "telemetry must not change the waveform"
    );
    obs::json::parse(&std::fs::read_to_string(&telem).unwrap()).expect("telemetry JSON");
    let trace_text = std::fs::read_to_string(&trace).unwrap();
    let doc = obs::json::parse(&trace_text).expect("trace JSON");
    assert!(doc.get("traceEvents").is_some(), "{trace_text}");
    assert!(trace_text.contains("\"busy\""), "{trace_text}");
    assert!(trace_text.contains("\"quiescent\""), "{trace_text}");
}

/// Flag validation: the telemetry flags are meaningless without the
/// simulator backend and must be rejected as usage errors (exit code 2).
#[test]
fn sim_telemetry_flags_require_sim_emit() {
    for flag in ["--sim-telemetry", "--sim-telemetry=/tmp/never.json"] {
        let out = hirc()
            .arg(example("mac.mlir"))
            .arg(flag)
            .output()
            .expect("run hirc");
        assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--sim-telemetry requires --emit=sim"), "{err}");
    }
    let out = hirc()
        .arg(example("mac.mlir"))
        .arg("--sim-trace=/tmp/never.json")
        .output()
        .expect("run hirc");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--sim-trace requires --emit=sim"), "{err}");
}

/// Flag validation: scheduler statistics ride the simulator, so both forms
/// of `--sched-stats` are usage errors (exit 2) without `--emit=sim`.
#[test]
fn sched_stats_requires_sim_emit() {
    for flag in ["--sched-stats", "--sched-stats=/tmp/never.json"] {
        let out = hirc()
            .arg(example("mac.mlir"))
            .arg(flag)
            .output()
            .expect("run hirc");
        assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--sched-stats requires --emit=sim"), "{err}");
    }
}

/// Golden scheduler statistics for the mac example: the report is derived
/// purely from deterministic event counts, so for each engine two runs must
/// be byte-identical; the bytecode engine must report the trivially-full
/// dirty set (every cone runs every cycle, no wake walks); and the event
/// engine's dirty set must be bounded by it.
#[test]
fn mac_example_emits_golden_sched_stats() {
    let dir = tmp("sched_stats");
    let run = |engine: &str, threads: u32, path: &PathBuf| {
        let out = hirc()
            .arg(example("mac.mlir"))
            .arg("--emit=sim")
            .arg(format!("--sim-engine={engine}"))
            .arg(format!("--threads={threads}"))
            .arg(format!("--sched-stats={}", path.display()))
            .output()
            .expect("run hirc");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    let mut docs = Vec::new();
    for engine in ["bytecode", "event"] {
        let (p1, p2, p4) = (
            dir.join(format!("{engine}_1.json")),
            dir.join(format!("{engine}_2.json")),
            dir.join(format!("{engine}_t4.json")),
        );
        run(engine, 1, &p1);
        run(engine, 1, &p2);
        run(engine, 4, &p4);
        let text = std::fs::read_to_string(&p1).unwrap();
        assert_eq!(
            text,
            std::fs::read_to_string(&p2).unwrap(),
            "{engine}: sched stats must be byte-identical across runs"
        );
        assert_eq!(
            text,
            std::fs::read_to_string(&p4).unwrap(),
            "{engine}: sched stats must not depend on --threads"
        );
        let doc = obs::json::parse(&text).expect("strict sched-stats JSON");
        assert_eq!(
            doc.get("engine").and_then(|v| v.as_str()),
            Some(engine),
            "{text}"
        );
        // Same deterministic run the telemetry test pins: 11 cycles.
        assert_eq!(doc.get("cycles").and_then(|v| v.as_f64()), Some(11.0));
        let num = |path: &[&str]| {
            let mut v = &doc;
            for key in path {
                v = v.get(key).unwrap_or_else(|| panic!("{}: {text}", key));
            }
            v.as_f64()
                .unwrap_or_else(|| panic!("{}: {text}", path.join(".")))
        };
        // The 2ns/event cost model must account for all engine work.
        let share = num(&["cycle_share", "interpreter", "share"])
            + num(&["cycle_share", "wake_walks", "share"])
            + num(&["cycle_share", "commit_compares", "share"]);
        assert!((share - 1.0).abs() < 1e-4, "shares must sum to 1: {text}");
        // Wake attribution covers both planes of the design.
        for plane in ["settle", "step"] {
            let cones = doc
                .get("wakes")
                .and_then(|w| w.get(plane))
                .and_then(|v| v.as_array())
                .unwrap_or_else(|| panic!("wakes.{plane}: {text}"));
            assert!(!cones.is_empty(), "wakes.{plane} empty: {text}");
        }
        docs.push((engine, doc, text));
    }
    let (_, bc, bc_text) = &docs[0];
    let (_, ev, ev_text) = &docs[1];
    let hist = |doc: &obs::json::Value, text: &str, field: &str| {
        let h = doc.get("dirty_cones").unwrap_or_else(|| panic!("{text}"));
        h.get(field)
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("dirty_cones.{field}: {text}"))
    };
    // Full-tape engines re-run every step cone every cycle: the per-cycle
    // dirty-set occupancy histogram is a spike at the total cone count.
    let total = bc
        .get("step_cones")
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| panic!("{bc_text}"));
    assert!(total > 0.0, "{bc_text}");
    assert_eq!(hist(bc, bc_text, "min"), total, "{bc_text}");
    assert_eq!(hist(bc, bc_text, "max"), total, "{bc_text}");
    // ... and perform no wake-list walks at all.
    assert_eq!(
        bc.get("net_wake_walk")
            .and_then(|v| v.get("count"))
            .and_then(|v| v.as_f64()),
        Some(0.0),
        "{bc_text}"
    );
    // The event scheduler only ever wakes a subset of that.
    assert!(hist(ev, ev_text, "max") <= total, "{ev_text}");
    assert_eq!(
        ev.get("step_cones").and_then(|v| v.as_f64()),
        Some(total),
        "same design, same cone partition: {ev_text}"
    );
}

/// Scheduler statistics are a pure observer: a combined stats+VCD run must
/// produce a waveform byte-identical to a VCD-only run, and the Chrome
/// trace gains a dirty-cone counter track.
#[test]
fn sched_stats_do_not_perturb_waveforms() {
    let dir = tmp("sched_vcd");
    let (plain, combined, stats, trace) = (
        dir.join("plain.vcd"),
        dir.join("combined.vcd"),
        dir.join("stats.json"),
        dir.join("trace.json"),
    );
    let out = hirc()
        .arg(example("mac.mlir"))
        .arg("--emit=sim")
        .arg("--sim-engine=event")
        .arg(format!("--sim-vcd={}", plain.display()))
        .output()
        .expect("run hirc");
    assert!(out.status.success());
    let out = hirc()
        .arg(example("mac.mlir"))
        .arg("--emit=sim")
        .arg("--sim-engine=event")
        .arg(format!("--sim-vcd={}", combined.display()))
        .arg(format!("--sched-stats={}", stats.display()))
        .arg(format!("--sim-trace={}", trace.display()))
        .output()
        .expect("run hirc");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read(&plain).unwrap(),
        std::fs::read(&combined).unwrap(),
        "sched stats must not change the waveform"
    );
    obs::json::parse(&std::fs::read_to_string(&stats).unwrap()).expect("sched stats JSON");
    let trace_text = std::fs::read_to_string(&trace).unwrap();
    obs::json::parse(&trace_text).expect("trace JSON");
    assert!(
        trace_text.contains("sched/dirty_cones"),
        "missing dirty-cone counter track: {trace_text}"
    );
}

/// A bad `--rpass` pattern is a usage error, not a crash.
#[test]
fn rpass_rejects_bad_regex() {
    let out = hirc()
        .arg(example("mac.mlir"))
        .arg("--rpass=[unclosed")
        .output()
        .expect("run hirc");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--rpass"));
}
