//! # `hir-opt` — optimization passes for HIR (paper §6.2–§6.4)
//!
//! * [`fold`]: constant propagation/folding, algebraic identities, CSE and
//!   DCE (§6.2);
//! * [`strength`]: strength reduction of constant multiplies (§6.2);
//! * [`precision`]: bit-width narrowing from constant loop bounds (§6.3,
//!   responsible for the Table 4 flip-flop savings);
//! * [`delay_elim`]: shift-register sharing across `hir.delay` ops (§6.4);
//! * [`port_demote`]: dual-port → single-port RAM demotion when the explicit
//!   schedule proves reads and writes never collide (§2).
//!
//! [`STANDARD_PASS_NAMES`] lists them in the order the HIR compiler runs,
//! and [`standard_function_pipeline`] runs that list per function.

pub mod delay_elim;
pub mod fold;
pub mod port_demote;
pub mod precision;
pub mod retime;
pub mod strength;

pub use delay_elim::DelaySharePass;
pub use fold::{AlgebraicSimplify, CanonicalizePass, CsePass, Dce, FoldConstants};
pub use port_demote::PortDemotePass;
pub use precision::{signed_width_for, PrecisionPass};
pub use retime::{RetimeAcrossOps, RetimePass};
pub use strength::StrengthReduce;

/// Run the standard pipeline over a module on the calling thread
/// (convenience wrapper around [`standard_function_pipeline`]).
///
/// # Errors
/// Returns the rendered [`ir::PipelineError`] of the first failed pass.
pub fn optimize(module: &mut ir::Module) -> Result<(), String> {
    let registry = hir::hir_registry();
    let mut diags = ir::DiagnosticEngine::new();
    standard_function_pipeline(1)
        .run(module, &registry, &mut diags)
        .map_err(|e| e.to_string())
}

/// Always-panicking pass, registered as `test-panic`: the test hook for the
/// crash-containment machinery (`--crash-reproducer`, exit code 3). Kept in
/// the real registry so end-to-end driver tests can trigger a genuine
/// mid-pipeline panic with `--pipeline=hir-canonicalize,test-panic,...`.
pub struct PanicTestPass;

impl ir::Pass for PanicTestPass {
    fn name(&self) -> &str {
        "test-panic"
    }
    fn run(&mut self, _m: &mut ir::Module, _cx: &mut ir::PassContext<'_>) -> ir::PassResult {
        panic!("deliberate panic from the test-panic pass")
    }
}

/// Deliberately-miscompiling pass, registered as `test-miscompile`: rewrites
/// the first live `hir.add` into an `hir.sub` — schedule-preserving but
/// semantics-changing. This is the test hook for the translation-validation
/// machinery (`--verify-equiv` must catch it with a replay-confirmed
/// counterexample), mirroring what `test-panic` is for crash containment.
pub struct MiscompileTestPass;

impl ir::Pass for MiscompileTestPass {
    fn name(&self) -> &str {
        "test-miscompile"
    }
    fn run(&mut self, m: &mut ir::Module, _cx: &mut ir::PassContext<'_>) -> ir::PassResult {
        for op in m.collect_all_ops() {
            if !m.is_live(op) || m.op(op).name().as_str() != hir::opname::ADD {
                continue;
            }
            let operands = m.op(op).operands().to_vec();
            let rty = m.value_type(m.op(op).results()[0]);
            let attrs = m.op(op).attrs().clone();
            let loc = m.op(op).loc().clone();
            let sub = m.create_op(hir::opname::SUB, operands, vec![rty], attrs, loc);
            m.insert_op_before(op, sub);
            let new_res = m.op(sub).results()[0];
            let old_res = m.op(op).results()[0];
            m.replace_all_uses(old_res, new_res);
            m.erase_op(op);
            return ir::PassResult::Changed;
        }
        ir::PassResult::Unchanged
    }
}

/// Look up a pass by its stable name (the name each pass reports via
/// [`ir::Pass::name`]). This is the registry behind `--pipeline=` and crash
/// reproducer re-execution.
pub fn pass_by_name(name: &str) -> Option<Box<dyn ir::Pass>> {
    Some(match name {
        "hir-canonicalize" => Box::new(CanonicalizePass),
        "hir-cse" => Box::new(CsePass),
        "hir-retime" => Box::new(RetimePass),
        "hir-delay-share" => Box::new(DelaySharePass::new()),
        "hir-precision-opt" => Box::new(PrecisionPass::new()),
        "hir-port-demote" => Box::new(PortDemotePass::new()),
        "test-panic" => Box::new(PanicTestPass),
        "test-miscompile" => Box::new(MiscompileTestPass),
        _ => return None,
    })
}

/// Names accepted by [`pass_by_name`], for "did you mean" help text.
/// (The fold/strength/DCE rewrites are patterns inside `hir-canonicalize`,
/// not standalone passes, so they are not listed here.)
pub fn registered_pass_names() -> &'static [&'static str] {
    &[
        "hir-canonicalize",
        "hir-cse",
        "hir-retime",
        "hir-delay-share",
        "hir-precision-opt",
        "hir-port-demote",
        "test-panic",
        "test-miscompile",
    ]
}

/// Translation validation of the standard pipeline: clone `m`, optimize the
/// clone, and bounded-model-check that every function's generated design is
/// observably equivalent before and after (see the `bmc` crate). Returns one
/// proof report per function.
///
/// # Errors
/// Only for failures to pose or replay the question; a real divergence or a
/// budget-degraded proof is reported inside the [`bmc::FuncReport`]s.
pub fn verify_equivalence(
    m: &ir::Module,
    opts: &bmc::EquivOptions,
) -> Result<Vec<bmc::FuncReport>, bmc::EquivError> {
    let mut optimized = m.clone();
    optimize(&mut optimized).map_err(bmc::EquivError::Codegen)?;
    bmc::check_module_equivalence(m, &optimized, opts)
}

/// The standard `-O2`-style pipeline used for the paper's "HIR (auto opt)"
/// configurations, as a parallel [`ir::FunctionPipeline`]: the passes of
/// [`STANDARD_PASS_NAMES`], replicated per function and run on `threads`
/// workers (0 = auto; see [`ir::resolve_thread_count`]).
pub fn standard_function_pipeline(threads: usize) -> ir::FunctionPipeline {
    function_pipeline_from_names(STANDARD_PASS_NAMES, threads)
        .expect("standard pass names are registered")
}

/// Pass names of the standard pipeline, in order: the one list every
/// standard-pipeline run (`hirc --opt`, [`optimize`], the benches) is built
/// from.
pub const STANDARD_PASS_NAMES: &[&str] = &[
    "hir-canonicalize",
    "hir-cse",
    "hir-retime",
    "hir-delay-share",
    "hir-precision-opt",
    "hir-port-demote",
    "hir-canonicalize",
    "hir-cse",
];

/// Build a parallel [`ir::FunctionPipeline`] from pass names (comma-split
/// `--pipeline=` values or a reproducer's embedded pipeline): each worker
/// constructs its own pass instances through [`pass_by_name`].
///
/// # Errors
/// Returns a "did you mean" message for an unknown name.
pub fn function_pipeline_from_names<S: AsRef<str>>(
    names: &[S],
    threads: usize,
) -> Result<ir::FunctionPipeline, String> {
    let mut fp = ir::FunctionPipeline::new();
    for name in names {
        let name = name.as_ref().to_string();
        if pass_by_name(&name).is_none() {
            return Err(format!(
                "unknown pass '{name}' (known passes: {})",
                registered_pass_names().join(", ")
            ));
        }
        fp.add_factory(move || pass_by_name(&name).expect("name checked at registration"));
    }
    fp.threads = threads;
    Ok(fp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hir::interp::{ArgValue, Interpreter};
    use hir::ops::{DelayOp, ForOp};
    use hir::types::{MemKind, MemrefInfo, Port};
    use hir::HirBuilder;
    use ir::{DiagnosticEngine, Module, Type};

    fn run_pipeline(m: &mut Module) {
        optimize(m).expect("pipeline");
        // Optimized IR must still verify.
        let mut diags = DiagnosticEngine::new();
        ir::verify_module(m, &hir::hir_registry(), &mut diags)
            .unwrap_or_else(|_| panic!("post-opt verification failed:\n{}", diags.render()));
        hir_verify::verify_schedule(m, &mut diags)
            .unwrap_or_else(|_| panic!("post-opt schedule failed:\n{}", diags.render()));
    }

    fn count_ops(m: &Module, name: &str) -> usize {
        m.collect_all_ops()
            .into_iter()
            .filter(|&o| m.is_live(o) && m.op(o).name().as_str() == name)
            .count()
    }

    #[test]
    fn registry_covers_every_standard_pipeline_pass() {
        for name in STANDARD_PASS_NAMES {
            assert!(pass_by_name(name).is_some(), "unregistered pass {name}");
        }
        for name in registered_pass_names() {
            let pass = pass_by_name(name).unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(pass.name(), *name, "registry name must match Pass::name");
        }
        assert!(pass_by_name("no-such-pass").is_none());
    }

    #[test]
    fn function_pipeline_from_names_builds_and_rejects() {
        let fp = function_pipeline_from_names(&["hir-cse", "hir-canonicalize"], 1).unwrap();
        assert_eq!(fp.pass_names(), vec!["hir-cse", "hir-canonicalize"]);
        let err = function_pipeline_from_names(&["hir-cse", "bogus"], 1).unwrap_err();
        assert!(err.contains("unknown pass 'bogus'"), "{err}");
        assert!(
            err.contains("hir-canonicalize"),
            "lists known passes: {err}"
        );
    }

    #[test]
    fn folds_constants_and_removes_dead_code() {
        let mut hb = HirBuilder::new();
        let f = hb.func("k", &[("x", Type::int(32))], &[0]);
        let x = f.args(hb.module())[0];
        let a = hb.typed_const(3, Type::int(32));
        let b = hb.typed_const(4, Type::int(32));
        let ab = hb.mult(a, b); // folds to 12
        let y = hb.add(x, ab);
        let dead = hb.add(a, b); // unused
        let _ = dead;
        hb.return_(&[y]);
        let mut m = hb.finish();
        run_pipeline(&mut m);
        assert_eq!(
            count_ops(&m, hir::opname::MULT),
            0,
            "constant multiply folded"
        );
        // The dead add disappears; one live add remains.
        assert_eq!(count_ops(&m, hir::opname::ADD), 1);
    }

    /// With recording on, the standard pipeline reports applied remarks from
    /// folding, strength reduction and CSE, and a missed remark explaining
    /// the value×value multiply it left alone. Constant folding wraps at the
    /// result width and reports the wrapped value, and a `!hir.const`
    /// product past `i128` stays unfolded with a missed remark.
    #[test]
    fn passes_emit_applied_and_missed_remarks() {
        let mut hb = HirBuilder::new();
        let f = hb.func("k", &[("x", Type::int(32)), ("y", Type::int(32))], &[0]);
        let args = f.args(hb.module());
        let (x, y) = (args[0], args[1]);
        let a = hb.typed_const(3, Type::int(32));
        let b = hb.typed_const(4, Type::int(32));
        let ab = hb.mult(a, b); // folds to 12
        let c8 = hb.typed_const(8, Type::int(32));
        let s = hb.mult(x, c8); // strength-reduces to x << 3
        let vv = hb.mult(x, y); // stride unknown: stays a multiplier
        let d1 = hb.add(x, x);
        let d2 = hb.add(x, x); // CSE fodder
        let t1 = hb.xor(d1, d2);
        let t2 = hb.add(t1, ab);
        let t3 = hb.add(t2, s);
        let t4 = hb.add(t3, vv);
        hb.return_(&[t4]);
        let mut m = hb.finish();

        let mut hb = HirBuilder::new();
        hb.func("w", &[], &[0, 0, 0]);
        let hundred = hb.typed_const(100, Type::int(8));
        let sum = hb.add(hundred, hundred); // 200 is the i8 pattern of -56
        let eight = hb.typed_const(8, Type::int(8));
        let shifted = hb.shl(hundred, eight); // every bit shifted out
        let big = hb.const_val(i64::MAX);
        let square = hb.mult(big, big); // fits in i128
        let cube = hb.mult(square, big); // !hir.const: overflows i128
        hb.return_(&[sum, shifted, cube]);
        let mut wrapping = hb.finish();

        let registry = hir::hir_registry();
        let mut diags = DiagnosticEngine::new();
        let mut fp = standard_function_pipeline(1);
        let fold: Vec<Box<dyn ir::RewritePattern>> = vec![Box::new(fold::FoldConstants)];
        let was = obs::set_remarks_enabled(true);
        let run = fp.run(&mut m, &registry, &mut diags);
        ir::apply_patterns_greedily(&mut wrapping, &registry, &fold);
        obs::set_remarks_enabled(was);
        run.unwrap();
        let remarks = fp.take_remarks();
        let fold_remarks = obs::remark::take_thread();

        let f = hir::ops::FuncOp::wrap(&wrapping, wrapping.top_ops()[0]).unwrap();
        let returned = wrapping.op(f.return_op(&wrapping).unwrap()).operands();
        let folded: Vec<Option<i128>> = returned
            .iter()
            .map(|&v| hir::semantics::const_value(&wrapping, v))
            .collect();
        assert_eq!(folded, vec![Some(-56), Some(0), None]);
        assert!(
            fold_remarks
                .iter()
                .any(|r| r.kind == obs::RemarkKind::Applied
                    && r.message == "folded hir.add to constant -56"
                    && r.args == [("value".into(), obs::RemarkValue::Int(-56))]),
            "no applied remark carrying -56 in {fold_remarks:?}"
        );
        assert!(
            fold_remarks
                .iter()
                .any(|r| r.kind == obs::RemarkKind::Missed
                    && r.message == "hir.mult not folded: evaluation overflows"),
            "no overflow remark in {fold_remarks:?}"
        );

        let has = |pass: &str, kind: obs::RemarkKind| {
            remarks.iter().any(|r| r.pass == pass && r.kind == kind)
        };
        assert!(
            has("hir-fold-constants", obs::RemarkKind::Applied),
            "no fold remark in {remarks:?}"
        );
        assert!(
            has("hir-strength-reduce", obs::RemarkKind::Applied),
            "no strength remark in {remarks:?}"
        );
        assert!(
            has("hir-cse", obs::RemarkKind::Applied),
            "no cse remark in {remarks:?}"
        );
        assert!(
            remarks.iter().any(|r| {
                r.pass == "hir-strength-reduce"
                    && r.kind == obs::RemarkKind::Missed
                    && r.message.contains("stride unknown")
            }),
            "no stride-unknown missed remark in {remarks:?}"
        );
    }

    #[test]
    fn standard_pass_names_match_standard_pipeline() {
        assert_eq!(
            standard_function_pipeline(1).pass_names(),
            STANDARD_PASS_NAMES
        );
    }

    #[test]
    fn function_pipeline_unknown_pass_is_rejected() {
        let err = function_pipeline_from_names(&["hir-cse", "no-such-pass"], 1).unwrap_err();
        assert!(err.contains("no-such-pass"), "{err}");
    }

    /// Splitting a module into functions must not change what the passes
    /// do: at every thread count the function pipeline leaves the printed
    /// IR and op count that one pass manager running the same passes over
    /// the whole module leaves.
    #[test]
    fn function_pipeline_matches_serial_pipeline() {
        let build = || {
            let mut hb = HirBuilder::new();
            for i in 0..4 {
                let f = hb.func(&format!("k{i}"), &[("x", Type::int(32))], &[0]);
                let x = f.args(hb.module())[0];
                let a = hb.typed_const(3, Type::int(32));
                let b = hb.typed_const(4, Type::int(32));
                let ab = hb.mult(a, b);
                let y = hb.add(x, ab);
                let z = hb.add(x, ab); // CSE fodder
                let s = hb.xor(y, z);
                hb.return_(&[s]);
            }
            hb.finish()
        };
        let registry = hir::hir_registry();

        let mut serial = build();
        let mut diags = DiagnosticEngine::new();
        let mut pm = ir::PassManager::new();
        for name in STANDARD_PASS_NAMES {
            pm.add_boxed(pass_by_name(name).unwrap());
        }
        pm.run(&mut serial, &registry, &mut diags).unwrap();
        let serial_text = ir::print_module(&serial);

        for threads in [1, 2, 8] {
            let mut m = build();
            let mut diags = DiagnosticEngine::new();
            let mut fp = standard_function_pipeline(threads);
            fp.run(&mut m, &registry, &mut diags).unwrap();
            assert_eq!(
                ir::print_module(&m),
                serial_text,
                "threads={threads} diverged from serial"
            );
            assert_eq!(m.op_count(), serial.op_count());
        }
    }

    #[test]
    fn cse_merges_identical_pure_ops() {
        let mut hb = HirBuilder::new();
        let f = hb.func("k", &[("x", Type::int(32))], &[0]);
        let x = f.args(hb.module())[0];
        let a = hb.add(x, x);
        let b = hb.add(x, x); // identical
        let s = hb.xor(a, b);
        hb.return_(&[s]);
        let mut m = hb.finish();
        let registry = hir::hir_registry();
        let mut diags = DiagnosticEngine::new();
        let mut pm = ir::PassManager::new();
        pm.add(CsePass);
        pm.run(&mut m, &registry, &mut diags).unwrap();
        assert_eq!(count_ops(&m, hir::opname::ADD), 1, "identical adds merged");
    }

    #[test]
    fn strength_reduction_replaces_mult_by_shift() {
        let mut hb = HirBuilder::new();
        let f = hb.func("k", &[("x", Type::int(32))], &[0]);
        let x = f.args(hb.module())[0];
        let c8 = hb.typed_const(8, Type::int(32));
        let y = hb.mult(x, c8); // -> x << 3
        let c10 = hb.typed_const(10, Type::int(32));
        let z = hb.mult(x, c10); // -> (x<<3) + (x<<1)
        let out = hb.add(y, z);
        hb.return_(&[out]);
        let mut m = hb.finish();
        run_pipeline(&mut m);
        assert_eq!(count_ops(&m, hir::opname::MULT), 0, "multiplies eliminated");
        assert!(count_ops(&m, hir::opname::SHL) >= 2);

        // Semantics preserved.
        let interp = Interpreter::new(&m);
        let r = interp.run("k", &[ArgValue::Int(7)]).unwrap();
        assert_eq!(r.results, vec![7 * 8 + 7 * 10]);
    }

    #[test]
    fn precision_narrows_loop_counters_and_delays() {
        let mut hb = HirBuilder::new();
        let a = MemrefInfo::packed(&[16], Type::int(32), Port::Read, MemKind::BlockRam);
        let c = a.with_port(Port::Write);
        let f = hb.func("copy", &[("A", a.to_type()), ("C", c.to_type())], &[]);
        let t = f.time_var(hb.module());
        let args = f.args(hb.module());
        let (c0, c16, c1) = (hb.const_val(0), hb.const_val(16), hb.const_val(1));
        let lp = hb.for_loop(c0, c16, c1, t, 1, Type::int(32)); // oversized iv
        hb.in_loop(lp, |hb, i, ti| {
            let v = hb.mem_read(args[0], &[i], ti, 0);
            let i1 = hb.delay(i, 1, ti, 0);
            hb.mem_write(v, args[1], &[i1], ti, 1);
            hb.yield_at(ti, 1);
        });
        hb.return_(&[]);
        let mut m = hb.finish();
        run_pipeline(&mut m);

        let lp_op = m
            .collect_all_ops()
            .into_iter()
            .find(|&o| m.is_live(o) && m.op(o).name().as_str() == hir::opname::FOR)
            .unwrap();
        let lp = ForOp(lp_op);
        assert_eq!(
            m.value_type(lp.induction_var(&m)).int_width(),
            Some(6),
            "iv narrowed to 6 bits (counts to 16)"
        );
        // The delayed copy of the iv narrowed too.
        let delay_op = m
            .collect_all_ops()
            .into_iter()
            .find(|&o| m.is_live(o) && m.op(o).name().as_str() == hir::opname::DELAY)
            .unwrap();
        assert_eq!(
            m.value_type(DelayOp(delay_op).result(&m)).int_width(),
            Some(6)
        );

        // Still functionally correct.
        let interp = Interpreter::new(&m);
        let data: Vec<i128> = (0..16).map(|x| x * 11).collect();
        let r = interp
            .run(
                "copy",
                &[ArgValue::tensor_from(&data), ArgValue::uninit_tensor(16)],
            )
            .unwrap();
        let out: Vec<i128> = r.tensors[&1].iter().map(|v| v.unwrap()).collect();
        assert_eq!(out, data);
    }

    #[test]
    fn delay_share_chains_shift_registers() {
        let mut hb = HirBuilder::new();
        let f = hb.func("k", &[("x", Type::int(32))], &[5]);
        let t = f.time_var(hb.module());
        let x = f.args(hb.module())[0];
        let d2 = hb.delay(x, 2, t, 0);
        let d5 = hb.delay(x, 5, t, 0);
        // Keep both alive: re-delay d2 to t+5 and add.
        let d2b = hb.delay(d2, 3, t, 2);
        let s = hb.add(d5, d2b);
        hb.return_(&[s]);
        let mut m = hb.finish();
        let registry = hir::hir_registry();
        let mut diags = DiagnosticEngine::new();
        let mut pm = ir::PassManager::new();
        pm.add(DelaySharePass::new());
        pm.run(&mut m, &registry, &mut diags).unwrap();
        // The 5-delay now rides on the 2-delay: total registers 2+3+3=8
        // instead of 2+5+3=10.
        let total: i64 = m
            .collect_all_ops()
            .into_iter()
            .filter(|&o| m.is_live(o))
            .filter_map(|o| DelayOp::wrap(&m, o))
            .map(|d| d.by(&m))
            .sum();
        assert!(
            total <= 8,
            "expected sharing to cut total registers, got {total}"
        );

        // Schedule still consistent.
        let mut diags = DiagnosticEngine::new();
        hir_verify::verify_schedule(&m, &mut diags)
            .unwrap_or_else(|_| panic!("{}", diags.render()));
    }

    #[test]
    fn port_demotion_merges_disjoint_ports() {
        // Writes at even instants, reads at odd instants (II=2 loop):
        // provably conflict-free, so r+w collapse to one rw port.
        let mut hb = HirBuilder::new();
        let f = hb.func("pd", &[], &[]);
        let t = f.time_var(hb.module());
        let (r, w) = hb.alloc_rw(&[16], Type::int(32), MemKind::BlockRam);
        let (c0, c8, c1) = (hb.const_val(0), hb.const_val(8), hb.const_val(1));
        let lp = hb.for_loop(c0, c8, c1, t, 1, Type::int(8));
        hb.in_loop(lp, |hb, i, ti| {
            let v = hb.typed_const(7, Type::int(32));
            hb.mem_write(v, w, &[i], ti, 0); // offsets 0 mod 2
            let i1 = hb.delay(i, 1, ti, 0);
            hb.mem_read(r, &[i1], ti, 1); // offsets 1 mod 2
            hb.yield_at(ti, 2);
        });
        hb.return_(&[]);
        let mut m = hb.finish();
        let registry = hir::hir_registry();
        let mut diags = DiagnosticEngine::new();
        let mut pm = ir::PassManager::new();
        pm.add(PortDemotePass::new());
        pm.run(&mut m, &registry, &mut diags).unwrap();

        let alloc = m
            .collect_all_ops()
            .into_iter()
            .find(|&o| m.is_live(o) && m.op(o).name().as_str() == hir::opname::ALLOC)
            .unwrap();
        assert_eq!(m.op(alloc).results().len(), 1, "single port remains");
        let info = MemrefInfo::from_type(&m.value_type(m.op(alloc).results()[0])).unwrap();
        assert_eq!(info.port, Port::ReadWrite);
        assert!(m.op(alloc).attr("demoted_single_port").is_some());
    }

    #[test]
    fn port_demotion_keeps_conflicting_ports() {
        // Read and write in the SAME cycle: must keep two ports.
        let mut hb = HirBuilder::new();
        let f = hb.func("pd2", &[], &[]);
        let t = f.time_var(hb.module());
        let (r, w) = hb.alloc_rw(&[16], Type::int(32), MemKind::BlockRam);
        let (c0, c8, c1) = (hb.const_val(0), hb.const_val(8), hb.const_val(1));
        let c9 = hb.const_val(9);
        let lp = hb.for_loop(c0, c8, c1, t, 1, Type::int(8));
        hb.in_loop(lp, |hb, i, ti| {
            let v = hb.mem_read(r, &[i], ti, 0);
            let _ = v;
            let k = hb.typed_const(1, Type::int(32));
            hb.mem_write(k, w, &[c9], ti, 0); // same instant as the read
            hb.yield_at(ti, 1);
        });
        hb.return_(&[]);
        let mut m = hb.finish();
        let registry = hir::hir_registry();
        let mut diags = DiagnosticEngine::new();
        let mut pm = ir::PassManager::new();
        pm.add(PortDemotePass::new());
        pm.run(&mut m, &registry, &mut diags).unwrap();
        let alloc = m
            .collect_all_ops()
            .into_iter()
            .find(|&o| m.is_live(o) && m.op(o).name().as_str() == hir::opname::ALLOC)
            .unwrap();
        assert_eq!(m.op(alloc).results().len(), 2, "ports must be preserved");
    }

    /// End-to-end translation validation on a scalar kernel: the standard
    /// pipeline must be *proved* equivalent, and the deliberate
    /// `test-miscompile` pass must be caught with a replay-confirmed
    /// counterexample.
    #[test]
    fn equivalence_proved_for_pipeline_and_refuted_for_miscompile() {
        let build = || {
            let mut hb = HirBuilder::new();
            let f = hb.func("k", &[("x", Type::int(8)), ("y", Type::int(8))], &[0]);
            let args = f.args(hb.module());
            let (x, y) = (args[0], args[1]);
            let c3 = hb.typed_const(3, Type::int(8));
            let s = hb.mult(x, c3); // strength-reduced by the pipeline
            let out = hb.add(s, y);
            hb.return_(&[out]);
            hb.finish()
        };
        let opts = bmc::EquivOptions {
            k_cycles: 8,
            ..Default::default()
        };

        let m = build();
        let reports = verify_equivalence(&m, &opts).expect("check runs");
        assert_eq!(reports.len(), 1);
        assert!(
            matches!(reports[0].status, bmc::EquivStatus::Proved),
            "pipeline must prove equivalent, got {:?}",
            reports[0].status
        );
        // Every proof carries nonzero statistics. Strength reduction's
        // `(x << 1) + x` does not meet `x * 3` at word level, so this proof
        // blasts its miter into gates beyond the constant; the two sides
        // then share every gate and the query encodes nothing more.
        let st = &reports[0].solver;
        assert!(st.terms > 0 && st.gates > 1);
        assert!(st.propagations > 0 && st.vars > 0);
        assert_eq!(st.frames.len(), opts.k_cycles as usize);
        assert!(st.blast_cache_misses > 0);

        // Now inject the miscompile and demand a confirmed counterexample.
        let m = build();
        let mut bad = m.clone();
        let registry = hir::hir_registry();
        let mut diags = DiagnosticEngine::new();
        let mut fp = function_pipeline_from_names(&["test-miscompile"], 1).unwrap();
        fp.run(&mut bad, &registry, &mut diags).unwrap();
        let reports = bmc::check_module_equivalence(&m, &bad, &opts).expect("check runs");
        match &reports[0].status {
            bmc::EquivStatus::Counterexample(cex) => {
                assert_eq!(cex.stimulus.len(), 2, "one stimulus per argument");
                assert!(!cex.detail.is_empty());
            }
            other => panic!("miscompile must be refuted, got {other:?}"),
        }
    }

    #[test]
    fn optimized_transpose_still_simulates_correctly() {
        // The Table 4 configuration: transpose, full pipeline, then check
        // functional equivalence through the interpreter.
        let n = 8u64;
        let mut hb = HirBuilder::new();
        let a = MemrefInfo::packed(&[n, n], Type::int(32), Port::Read, MemKind::BlockRam);
        let c = a.with_port(Port::Write);
        let f = hb.func(
            "transpose",
            &[("Ai", a.to_type()), ("Co", c.to_type())],
            &[],
        );
        let t = f.time_var(hb.module());
        let args = f.args(hb.module());
        let (c0, cn, c1) = (hb.const_val(0), hb.const_val(n as i64), hb.const_val(1));
        let i_loop = hb.for_loop(c0, cn, c1, t, 1, Type::int(32));
        hb.in_loop(i_loop, |hb, i, ti| {
            let j_loop = hb.for_loop(c0, cn, c1, ti, 1, Type::int(32));
            hb.in_loop(j_loop, |hb, j, tj| {
                let v = hb.mem_read(args[0], &[i, j], tj, 0);
                let j1 = hb.delay(j, 1, tj, 0);
                hb.mem_write(v, args[1], &[j1, i], tj, 1);
                hb.yield_at(tj, 1);
            });
            let tf = j_loop.result_time(hb.module());
            hb.yield_at(tf, 1);
        });
        hb.return_(&[]);
        let mut m = hb.finish();
        run_pipeline(&mut m);

        let input: Vec<i128> = (0..(n * n) as i128).collect();
        let interp = Interpreter::new(&m);
        let r = interp
            .run(
                "transpose",
                &[
                    ArgValue::tensor_from(&input),
                    ArgValue::uninit_tensor((n * n) as usize),
                ],
            )
            .unwrap();
        for i in 0..n as usize {
            for j in 0..n as usize {
                assert_eq!(
                    r.tensors[&1][j * n as usize + i],
                    Some(input[i * n as usize + j])
                );
            }
        }
    }
}
