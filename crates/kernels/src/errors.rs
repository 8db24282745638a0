//! The paper's Figures 1 and 2: designs containing deliberate schedule
//! errors, used to demonstrate (and regenerate) the verifier diagnostics.

use hir::types::{MemKind, MemrefInfo, Port};
use hir::HirBuilder;
use ir::{Location, Module, Type};

/// Figure 1a: array add whose `mem_write` consumes `%i` one cycle after the
/// II=1 loop has already incremented it. With `fixed`, the address is
/// delayed to match (the correct design).
pub fn figure1_array_add(fixed: bool) -> Module {
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
    // The paper's listing counts `%i : i8` to 128; the loop's exit value 128
    // needs a ninth bit in the generated counter.
    let lp = hb.for_loop(c0, c128, c1, t, 1, Type::int(9));
    hb.in_loop(lp, |hb, i, ti| {
        hb.set_loc(Location::file_line_col("test/HIR/err_add.mlir", 10, 5));
        let va = hb.mem_read(args[0], &[i], ti, 0);
        let vb = hb.mem_read(args[1], &[i], ti, 0);
        let sum = hb.add(va, vb);
        let addr = if fixed { hb.delay(i, 1, ti, 0) } else { i };
        hb.set_loc(Location::file_line_col("test/HIR/err_add.mlir", 13, 5));
        hb.mem_write(sum, args[2], &[addr], ti, 1);
        hb.yield_at(ti, 1);
    });
    hb.return_(&[]);
    hb.finish()
}

/// Figure 2a: a multiply-accumulate built around an external pipelined
/// multiplier. With `mult_stages == 3` the adder inputs are desynchronized
/// (the paper's pipeline-imbalance error); with 2 the design is balanced.
pub fn figure2_mac(mult_stages: i64) -> Module {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figures_reproduce_their_diagnostics() {
        let mut diags = ir::DiagnosticEngine::new();
        assert!(hir_verify::verify_schedule(&figure1_array_add(false), &mut diags).is_err());
        assert!(diags
            .render()
            .contains("mismatched delay (0 vs 1) in address 0"));
        let mut diags = ir::DiagnosticEngine::new();
        assert!(hir_verify::verify_schedule(&figure2_mac(3), &mut diags).is_err());
        assert!(diags
            .render()
            .contains("mismatched delay (2 vs 3) in right operand"));
        let mut diags = ir::DiagnosticEngine::new();
        assert!(hir_verify::verify_schedule(&figure1_array_add(true), &mut diags).is_ok());
        let mut diags = ir::DiagnosticEngine::new();
        assert!(hir_verify::verify_schedule(&figure2_mac(2), &mut diags).is_ok());
    }
}
