//! FIFO (paper Table 5's "FIFO (Verilog)" row): a synchronous FIFO written
//! directly in Verilog as the hand-coded baseline, and an HIR design with
//! the same functionality — a command processor that executes a sequence of
//! push/pop operations against an internal circular buffer.

use hir::types::{MemKind, MemrefInfo, Port};
use hir::HirBuilder;
use ir::{Location, Module, Type};
use verilog::{BinOp, Dir, Expr, LValue, Stmt, VModule};

/// HIR function name.
pub const FUNC: &str = "fifo";

/// Command encoding in the input stream.
pub const CMD_NOP: i128 = 0;
pub const CMD_PUSH: i128 = 1;
pub const CMD_POP: i128 = 2;

/// Build the hand-written Verilog FIFO (depth × width), the baseline row.
pub fn verilog_fifo(depth: u64, width: u32) -> VModule {
    let addr_w = hir::types::bits_for(depth - 1);
    let mut m = VModule::new("fifo_verilog");
    m.comments
        .push("hand-written synchronous FIFO baseline".into());
    m.port("clk", Dir::Input, 1);
    m.port("push", Dir::Input, 1);
    m.port("pop", Dir::Input, 1);
    m.port("din", Dir::Input, width);
    m.port("dout", Dir::Output, width);
    m.port("full", Dir::Output, 1);
    m.port("empty", Dir::Output, 1);
    m.memory("mem", width, depth, Some("bram"));
    m.reg("head", addr_w);
    m.reg("tail", addr_w);
    m.reg("count", addr_w + 1);
    m.reg("dout_r", width);
    m.assign("dout", Expr::r("dout_r"));
    m.assign(
        "full",
        Expr::eq(Expr::r("count"), Expr::c(depth, addr_w + 1)),
    );
    m.assign("empty", Expr::eq(Expr::r("count"), Expr::c(0, addr_w + 1)));
    let do_push = Expr::and(Expr::r("push"), Expr::not(Expr::r("full")));
    let do_pop = Expr::and(Expr::r("pop"), Expr::not(Expr::r("empty")));
    let always = m.main_always();
    always.stmts.push(Stmt::If {
        cond: do_push.clone(),
        then: vec![
            Stmt::NonBlocking {
                lhs: LValue::MemElem {
                    mem: "mem".into(),
                    addr: Expr::r("tail"),
                },
                rhs: Expr::r("din"),
            },
            Stmt::NonBlocking {
                lhs: LValue::Net("tail".into()),
                rhs: Expr::add(Expr::r("tail"), Expr::c(1, addr_w)),
            },
        ],
        els: vec![],
    });
    always.stmts.push(Stmt::If {
        cond: do_pop.clone(),
        then: vec![
            Stmt::NonBlocking {
                lhs: LValue::Net("dout_r".into()),
                rhs: Expr::MemRead {
                    mem: "mem".into(),
                    addr: Box::new(Expr::r("head")),
                },
            },
            Stmt::NonBlocking {
                lhs: LValue::Net("head".into()),
                rhs: Expr::add(Expr::r("head"), Expr::c(1, addr_w)),
            },
        ],
        els: vec![],
    });
    // Count bookkeeping: +1 on push-only, -1 on pop-only.
    always.stmts.push(Stmt::If {
        cond: Expr::and(do_push.clone(), Expr::not(do_pop.clone())),
        then: vec![Stmt::NonBlocking {
            lhs: LValue::Net("count".into()),
            rhs: Expr::add(Expr::r("count"), Expr::c(1, addr_w + 1)),
        }],
        els: vec![Stmt::If {
            cond: Expr::and(do_pop, Expr::not(do_push)),
            then: vec![Stmt::NonBlocking {
                lhs: LValue::Net("count".into()),
                rhs: Expr::bin(BinOp::Sub, Expr::r("count"), Expr::c(1, addr_w + 1)),
            }],
            els: vec![],
        }],
    });
    m
}

/// Build the HIR FIFO: processes `n_cmds` commands (push/pop/nop) against a
/// `depth`-deep internal buffer at one command per two cycles.
pub fn hir_fifo(depth: u64, n_cmds: u64, iv_width: u32) -> Module {
    let mut hb = HirBuilder::new();
    hb.set_loc(Location::file_line_col("kernels/fifo.hir", 1, 1));
    let cmds = MemrefInfo::packed(&[n_cmds], Type::int(2), Port::Read, MemKind::BlockRam);
    let din = MemrefInfo::packed(&[n_cmds], Type::int(32), Port::Read, MemKind::BlockRam);
    let dout = MemrefInfo::packed(&[n_cmds], Type::int(32), Port::Write, MemKind::BlockRam);
    let f = hb.func(
        FUNC,
        &[
            ("cmds", cmds.to_type()),
            ("din", din.to_type()),
            ("dout", dout.to_type()),
        ],
        &[],
    );
    let t = f.time_var(hb.module());
    let args = f.args(hb.module());

    let addr_w = hir::types::bits_for(depth - 1);
    let (buf_r, buf_w) = hb.alloc_rw(&[depth], Type::int(32), MemKind::BlockRam);
    let (head_r, head_w) = hb.alloc_rw(&[1], Type::int(addr_w), MemKind::Reg);
    let (tail_r, tail_w) = hb.alloc_rw(&[1], Type::int(addr_w), MemKind::Reg);
    let (c0, c1, cn) = (
        hb.const_val(0),
        hb.const_val(1),
        hb.const_val(n_cmds as i64),
    );

    // Reset the pointers.
    let zero_ptr = hb.typed_const(0, Type::int(addr_w));
    hb.mem_write(zero_ptr, head_w, &[c0], t, 0);
    hb.mem_write(zero_ptr, tail_w, &[c0], t, 0);

    // One command per two cycles (the pop's buffer read needs a cycle).
    let lp = hb.for_loop(c0, cn, c1, t, 1, Type::int(iv_width));
    hb.in_loop(lp, |hb, i, ti| {
        let cmd = hb.mem_read(args[0], &[i], ti, 0); // valid ti+1
        let data = hb.mem_read(args[1], &[i], ti, 0);
        let is_push = hb.slice(cmd, 0, 0);
        let is_pop = hb.slice(cmd, 1, 1);
        let head = hb.mem_read(head_r, &[c0], ti, 1); // regs: valid ti+1
        let tail = hb.mem_read(tail_r, &[c0], ti, 1);
        let one_ptr = hb.typed_const(1, Type::int(addr_w));

        let push_if = hb.if_op(is_push, ti, 1, false);
        hb.in_then(push_if, |hb| {
            hb.mem_write(data, buf_w, &[tail], ti, 1);
            let t2 = hb.add(tail, one_ptr);
            hb.mem_write(t2, tail_w, &[c0], ti, 1);
        });
        let pop_if = hb.if_op(is_pop, ti, 1, false);
        hb.in_then(pop_if, |hb| {
            let v = hb.mem_read(buf_r, &[head], ti, 1); // valid ti+2
            let i2 = hb.delay(i, 2, ti, 0);
            hb.mem_write(v, args[2], &[i2], ti, 2);
            let h2 = hb.add(head, one_ptr);
            hb.mem_write(h2, head_w, &[c0], ti, 1);
        });
        hb.yield_at(ti, 2);
    });
    hb.return_(&[]);
    hb.finish()
}

/// Software reference: returns the dout array (one slot per command; only
/// pop commands write their slot).
pub fn reference(n_cmds: u64, cmds: &[i128], din: &[i128]) -> Vec<Option<i128>> {
    let mut q = std::collections::VecDeque::new();
    let mut out = vec![None; n_cmds as usize];
    for i in 0..n_cmds as usize {
        if cmds[i] & CMD_PUSH != 0 {
            q.push_back(din[i]);
        }
        if cmds[i] & CMD_POP != 0 {
            out[i] = q.pop_front();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hir::interp::{ArgValue, Interpreter};
    use verilog::{Design, Simulator};

    #[test]
    fn verilog_fifo_behaves() {
        let mut d = Design::new();
        d.add(verilog_fifo(16, 32));
        let mut sim = Simulator::new(&d, "fifo_verilog").expect("build");
        assert_eq!(sim.get("empty"), 1);
        // Push 3 values.
        for v in [10u64, 20, 30] {
            sim.set("push", 1);
            sim.set("din", v);
            sim.step().unwrap();
        }
        sim.set("push", 0);
        assert_eq!(sim.get("empty"), 0);
        // Pop them back in order.
        for v in [10u64, 20, 30] {
            sim.set("pop", 1);
            sim.step().unwrap();
            assert_eq!(sim.get("dout"), v);
        }
        sim.set("pop", 0);
        assert_eq!(sim.get("empty"), 1);
    }

    #[test]
    fn verilog_fifo_full_blocks_push() {
        let mut d = Design::new();
        d.add(verilog_fifo(4, 8));
        let mut sim = Simulator::new(&d, "fifo_verilog").expect("build");
        sim.set("push", 1);
        for v in 0..6u64 {
            sim.set("din", 100 + v);
            sim.step().unwrap();
        }
        sim.set("push", 0);
        assert_eq!(sim.get("full"), 1);
        // Only the first 4 made it.
        sim.set("pop", 1);
        for v in 0..4u64 {
            sim.step().unwrap();
            assert_eq!(sim.get("dout"), 100 + v);
        }
        sim.set("pop", 0);
        assert_eq!(sim.get("empty"), 1);
    }

    #[test]
    fn hir_fifo_matches_reference() {
        let (depth, n) = (16u64, 24u64);
        let m = hir_fifo(depth, n, 32);
        let mut diags = ir::DiagnosticEngine::new();
        hir_verify::verify_schedule(&m, &mut diags)
            .unwrap_or_else(|_| panic!("{}", diags.render()));
        // Interleaved pushes and pops, never underflowing.
        let cmds: Vec<i128> = (0..n as i128)
            .map(|i| if i % 3 == 2 { CMD_POP } else { CMD_PUSH })
            .collect();
        let din: Vec<i128> = (0..n as i128).map(|i| 1000 + i).collect();
        let r = Interpreter::new(&m)
            .run(
                FUNC,
                &[
                    ArgValue::tensor_from(&cmds),
                    ArgValue::tensor_from(&din),
                    ArgValue::uninit_tensor(n as usize),
                ],
            )
            .expect("simulate");
        let expect = reference(n, &cmds, &din);
        for (i, &want) in expect.iter().enumerate().take(n as usize) {
            if let Some(v) = want {
                assert_eq!(r.tensors[&2][i], Some(v), "dout[{i}]");
            }
        }
    }
}
