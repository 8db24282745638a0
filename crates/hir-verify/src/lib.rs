//! # `hir-verify` — schedule verification for HIR (paper §6.1)
//!
//! HIR's SSA values carry *validity* information: the exact clock cycle
//! (relative to a time variable) at which they hold valid data. This crate
//! exploits that, plus the explicitly specified schedule, to detect at
//! compile time errors that an HDL cannot express:
//!
//! * **mismatched delays** — an operand consumed at a cycle where it no
//!   longer (or does not yet) hold its value, e.g. the paper's Figure 1
//!   (a loop with II=1 using the induction variable one cycle late);
//! * **pipeline imbalance** — Figure 2's multiply-accumulate where swapping
//!   a 2-stage multiplier for a 3-stage one desynchronizes the adder inputs;
//! * **memory-port conflicts** — two accesses through one port in the same
//!   cycle that are not provably same-address or different-bank.
//!
//! Run it as a [`SchedulePass`] in an [`ir::PassManager`], or call
//! [`verify_schedule`] directly.

pub mod conflict;
pub mod report;
pub mod validity;

pub use conflict::check_port_conflicts;
pub use report::{schedule_report, FunctionSchedule, LoopSchedule, OpSchedule, ScheduleReport};
pub use validity::{analyze_function, ScheduleInfo, Validity};

use hir::ops::FuncOp;
use ir::{DiagnosticEngine, Module, Pass, PassContext, PassResult, SymbolTable};

/// Verify the schedules of every function in the module.
///
/// # Errors
/// Emits diagnostics and returns `Err(error_count)` when schedule errors are
/// found.
pub fn verify_schedule(m: &Module, diags: &mut DiagnosticEngine) -> Result<(), usize> {
    verify_schedule_with_threads(m, diags, 1)
}

/// [`verify_schedule`] fanned out over a worker pool: functions are
/// distributed across `threads` scoped threads (0 = auto via
/// [`ir::resolve_thread_count`]). Every worker borrows the one module and
/// one symbol table, built once per call: schedule analysis resolves callee
/// signatures through it. With one worker the same per-function check runs
/// inline. Per-function diagnostics are merged in module order, so output
/// is byte-identical at any thread count.
///
/// # Errors
/// Emits diagnostics and returns `Err(error_count)` when schedule errors
/// are found.
pub fn verify_schedule_with_threads(
    m: &Module,
    diags: &mut DiagnosticEngine,
    threads: usize,
) -> Result<(), usize> {
    let _span = obs::span("verify_schedule");
    let before = diags.error_count();
    let funcs: Vec<FuncOp> = m
        .top_ops()
        .iter()
        .filter_map(|&t| FuncOp::wrap(m, t))
        .collect();
    let symbols = SymbolTable::build(m);
    let verify_one = |func: FuncOp| {
        obs::counter_add("verify", "functions", 1);
        let mut local = DiagnosticEngine::new();
        let info = validity::analyze_function(m, func, &symbols, &mut local);
        obs::counter_add("verify", "values_analyzed", info.validity.len() as u64);
        conflict::check_port_conflicts(m, func, &info, &mut local);
        local.take()
    };
    let n = funcs.len();
    let workers = ir::resolve_thread_count(threads).min(n).max(1);
    let per_func: Vec<Vec<ir::Diagnostic>> = if workers <= 1 {
        funcs.iter().map(|&func| verify_one(func)).collect()
    } else {
        let slots: Vec<std::sync::Mutex<Vec<ir::Diagnostic>>> =
            (0..n).map(|_| std::sync::Mutex::new(Vec::new())).collect();
        let next = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for w in 0..workers {
                let (funcs, slots, next, verify_one) = (&funcs, &slots, &next, &verify_one);
                scope.spawn(move || {
                    let mut span = obs::span_in(format!("worker {w}"), "verify_schedule worker");
                    span.pid_tid(1, ir::WORKER_TID_BASE + w as u32);
                    loop {
                        let idx = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if idx >= n {
                            break;
                        }
                        *slots[idx].lock().unwrap() = verify_one(funcs[idx]);
                    }
                });
            }
        });
        slots.into_iter().map(|s| s.into_inner().unwrap()).collect()
    };
    for d in per_func.into_iter().flatten() {
        diags.emit(d);
    }
    let found = diags.error_count() - before;
    obs::counter_add("verify", "schedule_errors", found as u64);
    if found == 0 {
        Ok(())
    } else {
        Err(found)
    }
}

/// Compute the schedule analysis for a single function without verifying the
/// whole module (used by optimization passes that need validity facts).
pub fn schedule_info(m: &Module, func: FuncOp) -> (ScheduleInfo, DiagnosticEngine) {
    let symbols = SymbolTable::build(m);
    let mut diags = DiagnosticEngine::new();
    let info = validity::analyze_function(m, func, &symbols, &mut diags);
    (info, diags)
}

/// Schedule verification as a pipeline pass.
#[derive(Debug, Default)]
pub struct SchedulePass;

impl Pass for SchedulePass {
    fn name(&self) -> &str {
        "hir-schedule-verify"
    }

    fn run(&mut self, module: &mut Module, cx: &mut PassContext<'_>) -> PassResult {
        match verify_schedule(module, cx.diags) {
            Ok(()) => PassResult::Unchanged,
            Err(_) => PassResult::Failed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hir::types::{MemKind, MemrefInfo, Port};
    use hir::HirBuilder;
    use ir::{Location, Type};

    /// Paper Figure 1a: array add whose mem_write consumes `%i` one cycle
    /// after the loop (II=1) has already incremented it.
    fn figure1_module(fix: bool) -> Module {
        let mut hb = HirBuilder::new();
        hb.set_loc(Location::file_line_col("test/HIR/err_add.mlir", 3, 1));
        let a = MemrefInfo::packed(&[128], Type::int(32), Port::Read, MemKind::BlockRam);
        let b = a.clone();
        let c = a.with_port(Port::Write);
        let f = hb.func(
            "Array_Add",
            &[("A", a.to_type()), ("B", b.to_type()), ("C", c.to_type())],
            &[],
        );
        let t = f.time_var(hb.module());
        let args = f.args(hb.module());
        let (c0, c128, c1) = (hb.const_val(0), hb.const_val(128), hb.const_val(1));
        hb.set_loc(Location::file_line_col("test/HIR/err_add.mlir", 8, 3));
        // The paper's listing counts `%i : i8` to 128; the loop's exit value
        // 128 needs a ninth bit in the generated counter.
        let lp = hb.for_loop(c0, c128, c1, t, 1, Type::int(9));
        hb.in_loop(lp, |hb, i, ti| {
            hb.set_loc(Location::file_line_col("test/HIR/err_add.mlir", 10, 5));
            let va = hb.mem_read(args[0], &[i], ti, 0);
            let vb = hb.mem_read(args[1], &[i], ti, 0);
            let sum = hb.add(va, vb);
            let addr = if fix { hb.delay(i, 1, ti, 0) } else { i };
            hb.set_loc(Location::file_line_col("test/HIR/err_add.mlir", 13, 5));
            hb.mem_write(sum, args[2], &[addr], ti, 1);
            hb.yield_at(ti, 1);
        });
        hb.return_(&[]);
        hb.finish()
    }

    #[test]
    fn figure1_schedule_error_detected() {
        let m = figure1_module(false);
        let mut diags = DiagnosticEngine::new();
        let err = verify_schedule(&m, &mut diags).unwrap_err();
        assert!(err >= 1);
        let text = diags.render();
        assert!(
            text.contains("Schedule error: mismatched delay (0 vs 1) in address 0!"),
            "expected the paper's Figure 1b message, got:\n{text}"
        );
        assert!(
            text.contains("test/HIR/err_add.mlir:13:5: error:"),
            "{text}"
        );
        assert!(text.contains("note: Prior definition here."), "{text}");
    }

    #[test]
    fn parallel_verify_is_byte_identical_to_serial() {
        // Four functions, two of them broken: the fan-out must report the
        // same diagnostics in the same (module) order at any thread count.
        let mut combined = Module::splice_top(&[
            figure1_module(false),
            figure1_module(true),
            figure1_module(false),
            figure1_module(true),
        ]);
        for (i, t) in combined.top_ops().to_vec().into_iter().enumerate() {
            combined.set_attr(t, ir::SYM_NAME, ir::Attribute::string(format!("f{i}")));
        }
        let mut serial = DiagnosticEngine::new();
        let serial_err = verify_schedule(&combined, &mut serial).unwrap_err();
        for threads in [2, 4, 8] {
            let mut par = DiagnosticEngine::new();
            let par_err = verify_schedule_with_threads(&combined, &mut par, threads).unwrap_err();
            assert_eq!(serial_err, par_err);
            assert_eq!(
                serial.render(),
                par.render(),
                "threads={threads} diagnostic order diverged"
            );
        }
    }

    #[test]
    fn figure1_fixed_design_verifies() {
        let m = figure1_module(true);
        let mut diags = DiagnosticEngine::new();
        assert!(
            verify_schedule(&m, &mut diags).is_ok(),
            "{}",
            diags.render()
        );
    }

    #[test]
    fn figure1_would_be_legal_at_ii_2() {
        // The paper explains the error exists *because* II = 1. Widening the
        // initiation interval to 2 makes the late use legal.
        let mut hb = HirBuilder::new();
        let a = MemrefInfo::packed(&[128], Type::int(32), Port::Read, MemKind::BlockRam);
        let c = a.with_port(Port::Write);
        let f = hb.func("AA", &[("A", a.to_type()), ("C", c.to_type())], &[]);
        let t = f.time_var(hb.module());
        let args = f.args(hb.module());
        let (c0, c128, c1) = (hb.const_val(0), hb.const_val(128), hb.const_val(1));
        // The paper's listing counts `%i : i8` to 128; the loop's exit value
        // 128 needs a ninth bit in the generated counter.
        let lp = hb.for_loop(c0, c128, c1, t, 1, Type::int(9));
        hb.in_loop(lp, |hb, i, ti| {
            let v = hb.mem_read(args[0], &[i], ti, 0);
            hb.mem_write(v, args[1], &[i], ti, 1); // i used at ti+1
            hb.yield_at(ti, 2); // II = 2: i is stable for two cycles
        });
        hb.return_(&[]);
        let m = hb.finish();
        let mut diags = DiagnosticEngine::new();
        assert!(
            verify_schedule(&m, &mut diags).is_ok(),
            "{}",
            diags.render()
        );
    }

    #[test]
    fn loop_counters_must_fit_the_induction_variable() {
        let verify = |iv: &str, lb: i64, ub: i64, step: i64| {
            let m = hir::parse_pretty(&format!(
                "hir.func @f at %t() {{
  %lb = hir.constant {lb} : index
  %ub = hir.constant {ub} : index
  %s = hir.constant {step} : index
  %tf = hir.for %i : {iv} = %lb to %ub step %s iter_time(%ti = %t offset 1) {{
    hir.yield at %ti offset 1
  }}
  hir.return
}}"
            ))
            .unwrap();
            let mut diags = DiagnosticEngine::new();
            let _ = verify_schedule(&m, &mut diags);
            diags.render()
        };
        // The widest accepted loops, a zero-trip one and one whose bounds
        // the interpreter rejects at run time are all accepted.
        for (iv, lb, ub, step) in [
            ("i8", 0, 127, 1),
            ("i8", -128, 127, 1),
            ("i8", 0, 126, 2),
            ("i8", 0, 0, 1),
            ("i8", 100, 0, 1),
            ("i32", 0, 200, 1),
            ("i1", -1, 0, 1),
        ] {
            assert_eq!(
                verify(iv, lb, ub, step),
                "",
                "{iv}: {lb} to {ub} step {step}"
            );
        }
        for (iv, lb, ub, step, want) in [
            ("i8", 0, 200, 1, "counter 0 to 200 step 1 reaches 200"),
            // 126 + 2 = 128 is -128 at i8, so the loop would never exit.
            ("i8", 0, 127, 2, "counter 0 to 127 step 2 reaches 128"),
            ("i8", -129, 0, 1, "lower bound -129 is outside"),
            ("i1", -1, 0, 2, "step 2 reaches 1 before"),
        ] {
            let text = verify(iv, lb, ub, step);
            assert!(text.contains(want), "{want}: {text}");
        }
    }

    /// Paper Figure 2a: a MAC built from an external pipelined multiplier.
    fn figure2_module(mult_stages: i64) -> Module {
        let mut hb = HirBuilder::new();
        hb.set_loc(Location::file_line_col("test/HIR/mac.mlir", 1, 1));
        hb.extern_func(
            "mult",
            &[Type::int(32), Type::int(32)],
            &[Type::int(32)],
            &[mult_stages],
        );
        let f = hb.func(
            "mac",
            &[
                ("a", Type::int(32)),
                ("b", Type::int(32)),
                ("c", Type::int(32)),
            ],
            &[mult_stages.max(2)],
        );
        let t = f.time_var(hb.module());
        let args = f.args(hb.module());
        hb.set_loc(Location::file_line_col("test/HIR/mac.mlir", 7, 8));
        let m_val = hb.call("mult", &[args[0], args[1]], t, 0)[0];
        hb.set_loc(Location::file_line_col("test/HIR/mac.mlir", 8, 8));
        let c2 = hb.delay(args[2], 2, t, 0);
        hb.set_loc(Location::file_line_col("test/HIR/mac.mlir", 9, 10));
        let res = hb.add(m_val, c2);
        hb.return_(&[res]);
        hb.finish()
    }

    #[test]
    fn figure2_pipeline_imbalance_detected() {
        // 3-stage multiplier against a 2-cycle delay on the addend.
        let m = figure2_module(3);
        let mut diags = DiagnosticEngine::new();
        assert!(verify_schedule(&m, &mut diags).is_err());
        let text = diags.render();
        assert!(
            text.contains("Schedule error: mismatched delay (2 vs 3) in right operand!"),
            "expected the paper's Figure 2b message, got:\n{text}"
        );
        assert!(text.contains("test/HIR/mac.mlir:9:10: error:"), "{text}");
    }

    #[test]
    fn figure2_balanced_design_verifies() {
        let m = figure2_module(2);
        let mut diags = DiagnosticEngine::new();
        assert!(
            verify_schedule(&m, &mut diags).is_ok(),
            "{}",
            diags.render()
        );
    }

    #[test]
    fn port_conflict_in_pipelined_loop_detected() {
        // Two writes through ONE port at congruent offsets (mod II).
        let mut hb = HirBuilder::new();
        let f = hb.func("pc", &[], &[]);
        let t = f.time_var(hb.module());
        let (_r, w) = hb.alloc_rw(&[16], Type::int(32), MemKind::BlockRam);
        let (c0, c8, c1) = (hb.const_val(0), hb.const_val(8), hb.const_val(1));
        let lp = hb.for_loop(c0, c8, c1, t, 1, Type::int(8));
        hb.in_loop(lp, |hb, i, ti| {
            let v = hb.typed_const(1, Type::int(32));
            hb.mem_write(v, w, &[i], ti, 0);
            let i1 = hb.delay(i, 1, ti, 0);
            hb.mem_write(v, w, &[i1], ti, 1); // collides with next iteration's write
            hb.yield_at(ti, 1);
        });
        hb.return_(&[]);
        let m = hb.finish();
        let mut diags = DiagnosticEngine::new();
        assert!(verify_schedule(&m, &mut diags).is_err());
        assert!(
            diags.render().contains("same memory port"),
            "{}",
            diags.render()
        );
    }

    #[test]
    fn banked_writes_do_not_conflict() {
        use hir::types::Dim;
        // The paper's stencil window: packing=[] distributes all dims, so two
        // same-cycle writes at distinct constant indices go to distinct banks.
        let mut hb = HirBuilder::new();
        let f = hb.func("banked", &[], &[]);
        let t = f.time_var(hb.module());
        let ports = hb.alloc(
            &[Dim::Distributed(2)],
            Type::int(32),
            MemKind::Reg,
            &[Port::Read, Port::Write],
        );
        let (c0, c1) = (hb.const_val(0), hb.const_val(1));
        let v = hb.typed_const(9, Type::int(32));
        hb.mem_write(v, ports[1], &[c0], t, 2);
        hb.mem_write(v, ports[1], &[c1], t, 2);
        hb.return_(&[]);
        let m = hb.finish();
        let mut diags = DiagnosticEngine::new();
        assert!(
            verify_schedule(&m, &mut diags).is_ok(),
            "{}",
            diags.render()
        );
    }

    #[test]
    fn same_address_parallel_reads_allowed() {
        let mut hb = HirBuilder::new();
        let a = MemrefInfo::packed(&[8], Type::int(32), Port::Read, MemKind::BlockRam);
        let f = hb.func("sar", &[("A", a.to_type())], &[]);
        let t = f.time_var(hb.module());
        let args = f.args(hb.module());
        let c3 = hb.const_val(3);
        hb.mem_read(args[0], &[c3], t, 0);
        hb.mem_read(args[0], &[c3], t, 0);
        hb.return_(&[]);
        let m = hb.finish();
        let mut diags = DiagnosticEngine::new();
        assert!(
            verify_schedule(&m, &mut diags).is_ok(),
            "{}",
            diags.render()
        );
    }

    #[test]
    fn cross_scope_ancestor_use_is_legal() {
        // The transpose pattern: outer %i used inside the inner j-loop.
        let mut hb = HirBuilder::new();
        let a = MemrefInfo::packed(&[4, 4], Type::int(32), Port::Read, MemKind::BlockRam);
        let f = hb.func("x", &[("A", a.to_type())], &[]);
        let t = f.time_var(hb.module());
        let args = f.args(hb.module());
        let (c0, c4, c1) = (hb.const_val(0), hb.const_val(4), hb.const_val(1));
        let outer = hb.for_loop(c0, c4, c1, t, 1, Type::int(8));
        hb.in_loop(outer, |hb, i, ti| {
            let inner = hb.for_loop(c0, c4, c1, ti, 1, Type::int(8));
            hb.in_loop(inner, |hb, j, tj| {
                hb.mem_read(args[0], &[i, j], tj, 0);
                hb.yield_at(tj, 1);
            });
            let tf = inner.result_time(hb.module());
            hb.yield_at(tf, 1);
        });
        hb.return_(&[]);
        let m = hb.finish();
        let mut diags = DiagnosticEngine::new();
        assert!(
            verify_schedule(&m, &mut diags).is_ok(),
            "{}",
            diags.render()
        );
    }

    #[test]
    fn return_delay_mismatch_detected() {
        let mut hb = HirBuilder::new();
        let a = MemrefInfo::packed(&[4], Type::int(32), Port::Read, MemKind::BlockRam);
        let f = hb.func("r", &[("A", a.to_type())], &[5]); // declares delay 5
        let t = f.time_var(hb.module());
        let args = f.args(hb.module());
        let c0 = hb.const_val(0);
        let v = hb.mem_read(args[0], &[c0], t, 0); // valid at t+1
        hb.return_(&[v]);
        let m = hb.finish();
        let mut diags = DiagnosticEngine::new();
        assert!(verify_schedule(&m, &mut diags).is_err());
        assert!(
            diags
                .render()
                .contains("mismatched delay (1 vs 5) in return value 0"),
            "{}",
            diags.render()
        );
    }

    #[test]
    fn zero_ii_for_loop_rejected() {
        let mut hb = HirBuilder::new();
        let f = hb.func("z", &[], &[]);
        let t = f.time_var(hb.module());
        let (c0, c4, c1) = (hb.const_val(0), hb.const_val(4), hb.const_val(1));
        let lp = hb.for_loop(c0, c4, c1, t, 1, Type::int(8));
        hb.in_loop(lp, |hb, _i, ti| hb.yield_at(ti, 0));
        hb.return_(&[]);
        let m = hb.finish();
        let mut diags = DiagnosticEngine::new();
        assert!(verify_schedule(&m, &mut diags).is_err());
        assert!(
            diags.render().contains("initiation interval"),
            "{}",
            diags.render()
        );
    }

    #[test]
    fn pass_integrates_with_pass_manager() {
        let m = figure1_module(false);
        let mut pm = ir::PassManager::new();
        pm.add(SchedulePass);
        let reg = hir::hir_registry();
        let mut diags = DiagnosticEngine::new();
        let mut module = m;
        let err = pm.run(&mut module, &reg, &mut diags).unwrap_err();
        assert_eq!(err.pass_name(), "hir-schedule-verify");
        assert!(!err.is_internal(), "diagnosed failure, not a crash");
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use hir::types::{MemKind, MemrefInfo, Port};
    use hir::HirBuilder;
    use ir::{DiagnosticEngine, Type};

    #[test]
    fn same_scope_cross_root_use_is_rejected() {
        // A value produced at %t+1 consumed by an op scheduled on the loop's
        // completion time %tf: different roots in the same scope, which the
        // analysis cannot prove stable.
        let mut hb = HirBuilder::new();
        let a = MemrefInfo::packed(&[8], Type::int(32), Port::Read, MemKind::BlockRam);
        let c = a.with_port(Port::Write);
        let f = hb.func("x", &[("A", a.to_type()), ("C", c.to_type())], &[]);
        let t = f.time_var(hb.module());
        let args = f.args(hb.module());
        let (c0, c4, c1) = (hb.const_val(0), hb.const_val(4), hb.const_val(1));
        let early = hb.mem_read(args[0], &[c0], t, 0); // valid at t+1
        let lp = hb.for_loop(c0, c4, c1, t, 2, Type::int(8));
        hb.in_loop(lp, |hb, _i, ti| hb.yield_at(ti, 1));
        let tf = lp.result_time(hb.module());
        hb.mem_write(early, args[1], &[c0], tf, 0); // stale wire at %tf
        hb.return_(&[]);
        let m = hb.finish();
        let mut diags = DiagnosticEngine::new();
        assert!(verify_schedule(&m, &mut diags).is_err());
        assert!(
            diags.render().contains("different time scope"),
            "{}",
            diags.render()
        );
    }

    #[test]
    fn memref_and_time_values_cannot_be_data() {
        let mut hb = HirBuilder::new();
        let a = MemrefInfo::packed(&[8], Type::int(32), Port::Write, MemKind::BlockRam);
        let f = hb.func("y", &[("C", a.to_type())], &[]);
        let t = f.time_var(hb.module());
        let args = f.args(hb.module());
        let c0 = hb.const_val(0);
        // Write the TIME VARIABLE as data: nonsense the verifier flags.
        hb.mem_write(t, args[0], &[c0], t, 0);
        hb.return_(&[]);
        let m = hb.finish();
        let mut diags = DiagnosticEngine::new();
        assert!(verify_schedule(&m, &mut diags).is_err());
        assert!(
            diags.render().contains("time variable used as data"),
            "{}",
            diags.render()
        );
    }

    #[test]
    fn call_argument_delays_are_checked() {
        // A callee declaring arg_delays=[1] must receive its argument valid
        // one cycle after the call pulse.
        let mut hb = HirBuilder::new();
        let callee = hb.extern_func("consumer", &[Type::int(32)], &[], &[]);
        let _ = callee;
        // Patch in an arg_delays attribute on the declaration.
        let m_tmp = hb.module();
        let ext = m_tmp.top_ops()[0];
        let _ = ext;
        let f = hb.func("caller", &[("x", Type::int(32))], &[]);
        let t = f.time_var(hb.module());
        let x = f.args(hb.module())[0];
        // x is valid at t+0; a call at offset 0 passing it is fine with
        // delay 0.
        hb.call("consumer", &[x], t, 0);
        hb.return_(&[]);
        let m = hb.finish();
        let mut diags = DiagnosticEngine::new();
        assert!(
            verify_schedule(&m, &mut diags).is_ok(),
            "{}",
            diags.render()
        );
    }

    #[test]
    fn call_arity_mismatch_is_rejected_at_the_call() {
        let mut hb = HirBuilder::new();
        let i32t = || Type::int(32);
        hb.extern_func("f0", &[i32t(), i32t(), i32t()], &[i32t()], &[1]);
        let f = hb.func("caller", &[("a", i32t()), ("b", i32t())], &[1]);
        let t = f.time_var(hb.module());
        let args = f.args(hb.module());
        let r = hb.call("f0", &args, t, 0);
        hb.return_(&r);
        let m = hb.finish();
        let mut diags = DiagnosticEngine::new();
        assert!(verify_schedule(&m, &mut diags).is_err());
        let text = diags.render();
        assert!(
            text.contains("call to @f0 passes 2 argument(s) but the callee declares 3"),
            "{text}"
        );
        assert!(text.contains("hir.call"), "snippet names the call: {text}");
    }

    /// A caller of the external `mult(i32, i32) -> (i32)` whose call binds
    /// `results` typed `types`.
    fn call_binding(results: &str, types: &str) -> ir::Module {
        let text = format!(
            r#""hir.func"() {{arg_types = [i32, i32], external = unit, result_delays = [2 : index], result_types = [i32], sym_name = "mult"}} : () -> ()
"hir.func"() ({{
^bb(%0: i32, %1: i32, %2: !hir.time):
  {results} = "hir.call"(%0, %1, %2) {{callee = @mult, offset = 0 : index}} : (i32, i32, !hir.time) -> ({types})
  "hir.return"(%4) : (i32) -> ()
}}) {{arg_names = ["a", "b"], result_delays = [2 : index], sym_name = "f"}} : () -> ()
"#
        );
        ir::parse_module(&text).unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    fn call_result_count_must_match_the_callee() {
        let mut diags = DiagnosticEngine::new();
        assert!(verify_schedule(&call_binding("%4", "i32"), &mut diags).is_ok());
        let m = call_binding("%4, %5", "i32, i32");
        assert!(verify_schedule(&m, &mut diags).is_err());
        let text = diags.render();
        assert!(
            text.contains("call to @mult binds 2 result(s) but the callee returns 1"),
            "{text}"
        );
    }

    #[test]
    fn call_result_types_must_match_the_callee() {
        let m = call_binding("%4", "i8");
        let mut diags = DiagnosticEngine::new();
        assert!(verify_schedule(&m, &mut diags).is_err());
        let text = diags.render();
        assert!(
            text.contains("result 0 of the call to @mult is i8 but the callee returns i32"),
            "{text}"
        );
    }

    #[test]
    fn dynamic_ii_loops_get_conservative_windows() {
        // Outer loop yields on the inner %tf (dynamic II): an outer value
        // used one cycle later than defined must be rejected (window 1).
        let mut hb = HirBuilder::new();
        let a = MemrefInfo::packed(&[8], Type::int(32), Port::ReadWrite, MemKind::BlockRam);
        let f = hb.func("dynii", &[("A", a.to_type())], &[]);
        let t = f.time_var(hb.module());
        let args = f.args(hb.module());
        let (c0, c4, c1) = (hb.const_val(0), hb.const_val(4), hb.const_val(1));
        let outer = hb.for_loop(c0, c4, c1, t, 1, Type::int(8));
        hb.in_loop(outer, |hb, i, ti| {
            let inner = hb.for_loop(c0, c4, c1, ti, 1, Type::int(8));
            hb.in_loop(inner, |hb, _j, tj| hb.yield_at(tj, 1));
            let tf = inner.result_time(hb.module());
            // i is rooted in the outer scope: fine at any inner instant.
            // But an outer-scope COMPUTED value at ti+1 used at ti+2 is
            // outside the window (dynamic II -> window 1).
            let v = hb.mem_read(args[0], &[i], ti, 0); // valid ti+1
            hb.mem_write(v, args[0], &[i], ti, 2); // consumed at ti+2: stale
            hb.yield_at(tf, 1);
        });
        hb.return_(&[]);
        let m = hb.finish();
        let mut diags = DiagnosticEngine::new();
        assert!(verify_schedule(&m, &mut diags).is_err());
        assert!(
            diags.render().contains("mismatched delay (1 vs 2)"),
            "{}",
            diags.render()
        );
    }
}
