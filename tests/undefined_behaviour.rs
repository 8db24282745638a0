//! Failure injection for every undefined behaviour of paper §4.5. Each
//! rule is violated deliberately and must be caught — by the interpreter at
//! runtime and, where stated, by the assertions the code generator emits
//! into the RTL.
//!
//! §4.5's list:
//! 1. memory accesses remain within bounds;
//! 2. a loop's lower bound never exceeds its upper bound;
//! 3. no two same-cycle accesses to one memref port (unless same address /
//!    different bank);
//! 4. a loop instance is not re-scheduled before the previous completes;
//! 5. reads only touch initialized memory.

use hir_suite::hir::interp::{ArgValue, Interpreter};
use hir_suite::hir::types::{MemKind, MemrefInfo, Port};
use hir_suite::hir::HirBuilder;
use hir_suite::hir_codegen::testbench::{Harness, HarnessArg};
use hir_suite::hir_codegen::{self, CodegenOptions};
use hir_suite::ir::Type;
use hir_suite::kernels;

/// Rule 1 — out-of-bounds access: interpreter error AND RTL assertion.
#[test]
fn rule1_out_of_bounds() {
    let mut hb = HirBuilder::new();
    let a = MemrefInfo::packed(&[4], Type::int(32), Port::Read, MemKind::BlockRam);
    let f = hb.func("oob", &[("A", a.to_type())], &[]);
    let t = f.time_var(hb.module());
    let args = f.args(hb.module());
    let (c0, c9, c1) = (hb.const_val(0), hb.const_val(9), hb.const_val(1));
    let lp = hb.for_loop(c0, c9, c1, t, 1, Type::int(8));
    hb.in_loop(lp, |hb, i, ti| {
        hb.mem_read(args[0], &[i], ti, 0);
        hb.yield_at(ti, 1);
    });
    hb.return_(&[]);
    let mut m = hb.finish();

    let data = vec![1i128, 2, 3, 4];
    let err = Interpreter::new(&m)
        .run("oob", &[ArgValue::tensor_from(&data)])
        .unwrap_err();
    assert!(err.message.contains("out of bounds"), "{err}");

    let (design, _) = kernels::compile_hir(&mut m, false).expect("compile");
    let func = kernels::find_func(&m, "oob");
    let mut h = Harness::new(&design, &m, func, &[HarnessArg::mem_from(&data)]).unwrap();
    let err = h.run(1000).unwrap_err();
    assert!(err.0.contains("out of bounds"), "{err}");
}

/// Rule 2 — reversed loop bounds.
#[test]
fn rule2_reversed_bounds() {
    let mut hb = HirBuilder::new();
    let f = hb.func("rev", &[("n", Type::int(32))], &[]);
    let t = f.time_var(hb.module());
    let n = f.args(hb.module())[0];
    let (c0, c1) = (hb.const_val(0), hb.const_val(1));
    // lb = n (dynamic), ub = 0: reversed whenever n > 0.
    let lp = hb.for_loop(n, c0, c1, t, 1, Type::int(32));
    hb.in_loop(lp, |hb, _i, ti| hb.yield_at(ti, 1));
    hb.return_(&[]);
    let m = hb.finish();
    let err = Interpreter::new(&m)
        .run("rev", &[ArgValue::Int(5)])
        .unwrap_err();
    assert!(err.message.contains("lower bound"), "{err}");
    // Equal bounds (zero-trip) are fine.
    Interpreter::new(&m)
        .run("rev", &[ArgValue::Int(0)])
        .expect("zero-trip loop is defined");
}

/// Rule 3 — same-port same-cycle conflict: caught statically when provable,
/// at runtime otherwise (data-dependent addresses), and by RTL assertions.
#[test]
fn rule3_port_conflicts() {
    // Statically provable: rejected by the verifier (covered extensively in
    // hir-verify's tests). Here: the data-dependent case the verifier must
    // NOT reject, caught at runtime instead.
    let mut hb = HirBuilder::new();
    let idx_t = MemrefInfo::packed(&[2], Type::int(32), Port::Read, MemKind::BlockRam);
    let f = hb.func("dyn", &[("I", idx_t.to_type())], &[]);
    let t = f.time_var(hb.module());
    let args = f.args(hb.module());
    let (buf_r, buf_w) = hb.alloc_rw(&[8], Type::int(32), MemKind::BlockRam);
    let _ = buf_w;
    let (c0, c1) = (hb.const_val(0), hb.const_val(1));
    let i0 = hb.mem_read(args[0], &[c0], t, 0); // valid t+1
    let i1 = hb.mem_read(args[0], &[c1], t, 0); // same port, same cycle...
    let _ = (i0, i1);
    hb.mem_read(buf_r, &[c0], t, 2);
    hb.return_(&[]);
    let m = hb.finish();
    // The two reads of I at t+0 hit DIFFERENT addresses of one port.
    let mut diags = ir::DiagnosticEngine::new();
    assert!(
        hir_suite::hir_verify::verify_schedule(&m, &mut diags).is_err(),
        "statically-known conflicting addresses are rejected at compile time"
    );

    // Same design with equal addresses passes the verifier AND runs.
    let mut hb = HirBuilder::new();
    let f = hb.func("dyn2", &[("I", idx_t.to_type())], &[]);
    let t = f.time_var(hb.module());
    let args = f.args(hb.module());
    let c0 = hb.const_val(0);
    hb.mem_read(args[0], &[c0], t, 0);
    hb.mem_read(args[0], &[c0], t, 0);
    hb.return_(&[]);
    let m2 = hb.finish();
    let mut diags = ir::DiagnosticEngine::new();
    hir_suite::hir_verify::verify_schedule(&m2, &mut diags).expect("same address is allowed");
    Interpreter::new(&m2)
        .run("dyn2", &[ArgValue::tensor_from(&[7, 8])])
        .expect("same-address parallel reads are defined");
}

/// Builds `@acc(A, i, j)`, which reads `A[i]` twice and `A[j]` once, all
/// in the start cycle, through one read port of `depth` words. Indices
/// are `idx_bits` wide.
fn same_cycle_reads(depth: u64, idx_bits: u32) -> ir::Module {
    let mut hb = HirBuilder::new();
    let a = MemrefInfo::packed(&[depth], Type::int(32), Port::Read, MemKind::BlockRam);
    let idx = Type::int(idx_bits);
    let f = hb.func(
        "acc",
        &[("A", a.to_type()), ("i", idx.clone()), ("j", idx)],
        &[],
    );
    let t = f.time_var(hb.module());
    let args = f.args(hb.module());
    hb.mem_read(args[0], &[args[1]], t, 0);
    hb.mem_read(args[0], &[args[1]], t, 0);
    hb.mem_read(args[0], &[args[2]], t, 0);
    hb.return_(&[]);
    hb.finish()
}

/// Runs `@acc` in RTL with assertions on; `Err` holds the fired message.
/// The schedule verifier rejects `A[i]` against `A[j]` conservatively, so
/// the design goes straight to codegen, as a design that slipped past it
/// would.
fn run_acc(m: ir::Module, depth: usize, i: i128, j: i128) -> Result<(), String> {
    let design = hir_codegen::generate_design(&m, &CodegenOptions::default()).expect("codegen");
    let func = kernels::find_func(&m, "acc");
    let data: Vec<i128> = (0..depth as i128).collect();
    let args = [
        HarnessArg::mem_from(&data),
        HarnessArg::Int(i),
        HarnessArg::Int(j),
    ];
    let mut h = Harness::new(&design, &m, func, &args).unwrap();
    h.run(100).map(|_| ()).map_err(|e| e.0)
}

/// Rule 3 in RTL: the repeated read of `A[i]` is one access, but two
/// accesses enabled together at different data-dependent addresses keep
/// their assert, and the simulator stops on it.
#[test]
fn rule3_same_cycle_reads_at_different_addresses_fire_in_rtl() {
    let err = run_acc(same_cycle_reads(8, 8), 8, 1, 2).unwrap_err();
    assert!(err.contains("memory port conflict"), "{err}");
    run_acc(same_cycle_reads(8, 8), 8, 3, 3).expect("same address is defined");
}

/// Rule 1 in RTL: a dynamic index whose width can reach past the bound
/// keeps its guard (`2^3 > 5`), and an out-of-range value trips it.
#[test]
fn rule1_narrow_index_that_can_overflow_still_trips_in_rtl() {
    let err = run_acc(same_cycle_reads(5, 3), 5, 6, 6).unwrap_err();
    assert!(err.contains("index out of bounds"), "{err}");
    run_acc(same_cycle_reads(5, 3), 5, 4, 4).expect("in range");
}

/// Rule 4 — loop re-entry (also covered by tests/table1_properties.rs).
#[test]
fn rule4_loop_reentry() {
    let mut hb = HirBuilder::new();
    let f = hb.func("re", &[], &[]);
    let t = f.time_var(hb.module());
    let (c0, c2, c1, c5) = (
        hb.const_val(0),
        hb.const_val(2),
        hb.const_val(1),
        hb.const_val(5),
    );
    let outer = hb.for_loop(c0, c2, c1, t, 1, Type::int(8));
    hb.in_loop(outer, |hb, _i, ti| {
        let inner = hb.for_loop(c0, c5, c1, ti, 0, Type::int(8));
        hb.in_loop(inner, |hb, _j, tj| hb.yield_at(tj, 1));
        hb.yield_at(ti, 1); // re-arms while the 5-cycle inner loop runs
    });
    hb.return_(&[]);
    let m = hb.finish();
    let err = Interpreter::new(&m).run("re", &[]).unwrap_err();
    assert!(err.message.contains("re-entered"), "{err}");
}

/// Rule 5 — uninitialized reads: "each call resets all memory elements to
/// uninitialized state" (no persistent state across calls).
#[test]
fn rule5_uninitialized_reads() {
    let mut hb = HirBuilder::new();
    let f = hb.func("ui", &[], &[0]);
    let t = f.time_var(hb.module());
    let (r, w) = hb.alloc_rw(&[4], Type::int(32), MemKind::BlockRam);
    let _ = w;
    let c2 = hb.const_val(2);
    let v = hb.mem_read(r, &[c2], t, 0); // never written
    hb.return_(&[v]);
    let m = hb.finish();
    let err = Interpreter::new(&m).run("ui", &[]).unwrap_err();
    assert!(err.message.contains("uninitialized"), "{err}");
}

/// And the positive control: a design violating no rule runs clean through
/// interpreter AND RTL with assertions enabled.
#[test]
fn clean_design_triggers_no_checks() {
    let n = 16u64;
    let mut m = kernels::transpose::hir_transpose(n, 32);
    let input: Vec<i128> = (0..(n * n) as i128).collect();
    Interpreter::new(&m)
        .run(
            kernels::transpose::FUNC,
            &[
                ArgValue::tensor_from(&input),
                ArgValue::uninit_tensor((n * n) as usize),
            ],
        )
        .expect("no UB");
    let (design, _) = kernels::compile_hir(&mut m, true).expect("compile");
    let func = kernels::find_func(&m, kernels::transpose::FUNC);
    let mut h = Harness::new(
        &design,
        &m,
        func,
        &[
            HarnessArg::mem_from(&input),
            HarnessArg::zero_mem((n * n) as usize),
        ],
    )
    .unwrap();
    h.run(10_000).expect("no assertion fires");
}
