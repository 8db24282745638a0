//! One-dimensional 3-tap stencil (paper Listing 2 and §7.2's Listing 3).
//!
//! `B[i] = (A[i-1] + 2*A[i] + A[i+1])` over a sliding window held in a
//! fully-distributed (register) buffer, with the main loop pipelined at
//! II=1. The task-parallel variant chains two stencil stages through an
//! intermediate buffer with overlapped execution (deterministic,
//! synchronization-free task parallelism — paper §5.3).

use hir::types::{Dim, MemKind, MemrefInfo, Port};
use hir::HirBuilder;
use hls::{KExpr, KStmt, Kernel, LoopPragmas};
use ir::{Location, Module, Type, ValueId};

/// HIR function name.
pub const FUNC: &str = "stencil_1d";

/// Weights of the 3-tap kernel (powers of two: strength-reducible).
pub const W: [i128; 3] = [1, 2, 1];

/// Emit the stencil body into an open function. `a` readable, `b` writable,
/// both length `n`. Returns the completion time variable.
fn emit_stencil_body(
    hb: &mut HirBuilder,
    n: u64,
    iv_width: u32,
    a: ValueId,
    b: ValueId,
    t: ValueId,
) -> ValueId {
    // Sliding window of the two previous elements in distributed registers
    // (the paper's `packing=[]` buffer).
    let w_ports = hb.alloc(
        &[Dim::Distributed(2)],
        Type::int(32),
        MemKind::Reg,
        &[Port::Read, Port::Write],
    );
    let (wr, ww) = (w_ports[0], w_ports[1]);
    let (c0, c1, cn, c_one) = (
        hb.const_val(0),
        hb.const_val(1),
        hb.const_val(n as i64 - 1),
        hb.const_val(1),
    );
    let _ = c_one;

    // Prologue: W[0] = A[0], W[1] = A[1] (reads at t and t+1, both written
    // by t+2 so the pipelined loop can start at t+3 — as in Listing 2).
    let val_a = hb.mem_read(a, &[c0], t, 0);
    let val_a1 = hb.delay(val_a, 1, t, 1);
    let val_b = hb.mem_read(a, &[c1], t, 1);
    hb.mem_write(val_a1, ww, &[c0], t, 2);
    hb.mem_write(val_b, ww, &[c1], t, 2);

    // Edge passthrough: B[0] = A[0] (written alongside the window fill).
    hb.mem_write(val_a1, b, &[c0], t, 2);

    // Pipelined main loop: i from 1 to n-1, producing B[i].
    let lp = hb.for_loop(c1, cn, c1, t, 3, Type::int(iv_width));
    hb.in_loop(lp, |hb, i, ti| {
        hb.yield_at(ti, 1); // II = 1 (the yield may appear anywhere)
        let v0 = hb.mem_read(wr, &[c0], ti, 1);
        let v1 = hb.mem_read(wr, &[c1], ti, 1);
        let i_plus_1 = hb.add(i, c1);
        let v = hb.mem_read(a, &[i_plus_1], ti, 0);
        // Shift the window: W[0] <- W[1], W[1] <- A[i+1].
        hb.mem_write(v1, ww, &[c0], ti, 1);
        hb.mem_write(v, ww, &[c1], ti, 1);
        // 3-tap weighted sum: v0 + 2*v1 + v (all valid at ti+1).
        let two = hb.typed_const(W[1] as i64, Type::int(32));
        let mid = hb.mult(v1, two);
        let s1 = hb.add(v0, mid);
        let s2 = hb.add(s1, v);
        let i2 = hb.delay(i, 1, ti, 0);
        hb.mem_write(s2, b, &[i2], ti, 1);
    });

    // Edge passthrough: B[n-1] = A[n-1], after the loop completes.
    let tf = lp.result_time(hb.module());
    let cn1 = hb.const_val(n as i64 - 1);
    let last = hb.mem_read(a, &[cn1], tf, 0);
    hb.mem_write(last, b, &[cn1], tf, 1);
    tf
}

/// Build the single-stage HIR stencil (paper Listing 2 shape).
pub fn hir_stencil(n: u64, iv_width: u32) -> Module {
    let mut hb = HirBuilder::new();
    hb.set_loc(Location::file_line_col("kernels/stencil.hir", 1, 1));
    let a = MemrefInfo::packed(&[n], Type::int(32), Port::Read, MemKind::BlockRam);
    let b = a.with_port(Port::Write);
    let f = hb.func(FUNC, &[("Ai", a.to_type()), ("Bw", b.to_type())], &[]);
    let t = f.time_var(hb.module());
    let args = f.args(hb.module());
    emit_stencil_body(&mut hb, n, iv_width, args[0], args[1], t);
    hb.return_(&[]);
    hb.finish()
}

/// Task-parallel two-stage stencil (paper Listing 3): stage B starts before
/// stage A finishes; they run in lock-step through an intermediate buffer.
pub fn hir_stencil_task_parallel(n: u64, iv_width: u32) -> Module {
    let mut hb = HirBuilder::new();
    hb.set_loc(Location::file_line_col("kernels/stencil_tp.hir", 1, 1));
    let a = MemrefInfo::packed(&[n], Type::int(32), Port::Read, MemKind::BlockRam);
    let b = a.with_port(Port::Write);

    // Stage function, reused for both tasks.
    let stage = hb.func(
        "stencil_stage",
        &[("Ai", a.to_type()), ("Bw", b.to_type())],
        &[],
    );
    let t = stage.time_var(hb.module());
    let sargs = stage.args(hb.module());
    emit_stencil_body(&mut hb, n, iv_width, sargs[0], sargs[1], t);
    hb.return_(&[]);

    // Top: A -> mid -> B with the second call offset by a small fixed lag
    // (stage latency to first output + margin) rather than full completion.
    let top = hb.func(
        "task_parallel",
        &[("Ai", a.to_type()), ("Bw", b.to_type())],
        &[],
    );
    let tt = top.time_var(hb.module());
    let targs = top.args(hb.module());
    let mid = hb.alloc(
        &[Dim::Packed(n)],
        Type::int(32),
        MemKind::BlockRam,
        &[Port::Read, Port::Write],
    );
    hb.call("stencil_stage", &[targs[0], mid[1]], tt, 0);
    // Stage A writes B[i] at its cycle ~ (3 + (i-1) + 1); stage B reads
    // A[i+1] at iteration i. A lag of 8 keeps stage B strictly behind.
    hb.call("stencil_stage", &[mid[0], targs[1]], tt, 8);
    hb.return_(&[]);
    hb.finish()
}

/// The HLS form of the single stage.
pub fn hls_stencil(n: u64, manual_opt: bool) -> Kernel {
    let mut k = Kernel::new(FUNC);
    k.in_array("Ai", 32, &[n]).out_array("Bw", 32, &[n]);
    if manual_opt {
        k.loop_var_width = hir_opt::signed_width_for(0, n as i128);
    }
    // B[i] = A[i-1] + 2*A[i] + A[i+1]; reads resolved through a window
    // buffer in registers (complete partition), like the HIR version.
    k.local_array("w", 32, &[2], &[0]);
    k.body = vec![
        KStmt::Store {
            array: "w".into(),
            indices: vec![KExpr::c(0, 1)],
            value: KExpr::read("Ai", vec![KExpr::c(0, 32)]),
        },
        KStmt::Store {
            array: "w".into(),
            indices: vec![KExpr::c(1, 1)],
            value: KExpr::read("Ai", vec![KExpr::c(1, 32)]),
        },
        KStmt::For {
            var: "i".into(),
            lb: 1,
            ub: n as i64 - 1,
            step: 1,
            pragmas: LoopPragmas {
                pipeline_ii: Some(1),
                unroll: false,
            },
            body: vec![
                KStmt::Assign {
                    var: "v0".into(),
                    expr: KExpr::read("w", vec![KExpr::c(0, 1)]),
                },
                KStmt::Assign {
                    var: "v1".into(),
                    expr: KExpr::read("w", vec![KExpr::c(1, 1)]),
                },
                KStmt::Assign {
                    var: "vnew".into(),
                    expr: KExpr::read("Ai", vec![KExpr::add(KExpr::var("i"), KExpr::c(1, 32))]),
                },
                KStmt::Store {
                    array: "w".into(),
                    indices: vec![KExpr::c(0, 1)],
                    value: KExpr::var("v1"),
                },
                KStmt::Store {
                    array: "w".into(),
                    indices: vec![KExpr::c(1, 1)],
                    value: KExpr::var("vnew"),
                },
                KStmt::Store {
                    array: "Bw".into(),
                    indices: vec![KExpr::var("i")],
                    value: KExpr::add(
                        KExpr::add(
                            KExpr::var("v0"),
                            KExpr::mul(KExpr::var("v1"), KExpr::c(2, 32)),
                        ),
                        KExpr::var("vnew"),
                    ),
                },
            ],
        },
    ];
    k
}

/// Software reference for one stage (edges pass through).
pub fn reference(n: u64, input: &[i128]) -> Vec<i128> {
    let n = n as usize;
    let mut out = vec![0; n];
    out[0] = input[0];
    out[n - 1] = input[n - 1];
    for i in 1..n - 1 {
        out[i] = W[0] * input[i - 1] + W[1] * input[i] + W[2] * input[i + 1];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hir::interp::{ArgValue, Interpreter};

    #[test]
    fn hir_matches_reference() {
        let n = 64;
        let m = hir_stencil(n, 32);
        let mut diags = ir::DiagnosticEngine::new();
        hir_verify::verify_schedule(&m, &mut diags)
            .unwrap_or_else(|_| panic!("{}", diags.render()));
        let input: Vec<i128> = (0..n as i128).map(|x| x * x % 97).collect();
        let r = Interpreter::new(&m)
            .run(
                FUNC,
                &[
                    ArgValue::tensor_from(&input),
                    ArgValue::uninit_tensor(n as usize),
                ],
            )
            .expect("simulate");
        let expect = reference(n, &input);
        for (i, &want) in expect.iter().enumerate().take(n as usize) {
            assert_eq!(r.tensors[&1][i], Some(want), "B[{i}]");
        }
        // Pipelined at II=1: latency ~ n + constant.
        assert!(r.cycles <= n + 8, "not pipelined: {} cycles", r.cycles);
    }

    #[test]
    fn task_parallel_overlaps_and_matches() {
        let n = 64;
        let m = hir_stencil_task_parallel(n, 32);
        let mut diags = ir::DiagnosticEngine::new();
        hir_verify::verify_schedule(&m, &mut diags)
            .unwrap_or_else(|_| panic!("{}", diags.render()));
        let input: Vec<i128> = (0..n as i128).map(|x| (x * 13) % 51).collect();
        let r = Interpreter::new(&m)
            .run(
                "task_parallel",
                &[
                    ArgValue::tensor_from(&input),
                    ArgValue::uninit_tensor(n as usize),
                ],
            )
            .expect("simulate");
        let expect = reference(n, &reference(n, &input));
        for (i, &want) in expect.iter().enumerate().take((n - 2) as usize).skip(2) {
            assert_eq!(r.tensors[&1][i], Some(want), "B[{i}]");
        }
        // Overlap: far less than 2x the single-stage latency.
        assert!(
            r.cycles <= n + 24,
            "tasks did not overlap: {} cycles",
            r.cycles
        );
    }

    #[test]
    fn hls_matches_reference() {
        let n = 32;
        let k = hls_stencil(n, false);
        let c = hls::compile(&k, &hls::SchedOptions::default()).expect("compile");
        let input: Vec<i128> = (0..n as i128).map(|x| x + 5).collect();
        let r = Interpreter::new(&c.hir_module)
            .run(
                "hls_stencil_1d",
                &[
                    ArgValue::tensor_from(&input),
                    ArgValue::uninit_tensor(n as usize),
                ],
            )
            .expect("simulate");
        let expect = reference(n, &input);
        for (i, &want) in expect.iter().enumerate().take((n - 1) as usize).skip(1) {
            assert_eq!(r.tensors[&1][i], Some(want), "B[{i}]");
        }
    }
}
