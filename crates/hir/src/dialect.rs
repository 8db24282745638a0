//! HIR dialect registration: op names, attribute keys, op specs and
//! structural verifiers (paper Table 2).

use crate::decl::{self, operand};
use crate::ops::{DelayOp, ForOp, FuncOp, IfOp, MemReadOp, MemWriteOp};
use crate::types::{self, MemKind, MemrefInfo};
use ir::types::{Signedness, TypeKind};
use ir::{
    Attribute, Diagnostic, DiagnosticEngine, Dialect, DialectRegistry, Module, OpId, ValueId,
};

/// Fully-qualified HIR operation names.
pub mod opname {
    pub const FUNC: &str = "hir.func";
    pub const FOR: &str = "hir.for";
    pub const UNROLL_FOR: &str = "hir.unroll_for";
    pub const YIELD: &str = "hir.yield";
    pub const RETURN: &str = "hir.return";
    pub const CALL: &str = "hir.call";
    pub const IF: &str = "hir.if";
    pub const CONSTANT: &str = "hir.constant";
    pub const DELAY: &str = "hir.delay";
    pub const ALLOC: &str = "hir.alloc";
    pub const MEM_READ: &str = "hir.mem_read";
    pub const MEM_WRITE: &str = "hir.mem_write";
    pub const ADD: &str = "hir.add";
    pub const SUB: &str = "hir.sub";
    pub const MULT: &str = "hir.mult";
    pub const AND: &str = "hir.and";
    pub const OR: &str = "hir.or";
    pub const XOR: &str = "hir.xor";
    pub const NOT: &str = "hir.not";
    pub const SHL: &str = "hir.shl";
    pub const SHR: &str = "hir.shr";
    pub const CMP: &str = "hir.cmp";
    pub const SELECT: &str = "hir.select";
    pub const TRUNC: &str = "hir.trunc";
    pub const ZEXT: &str = "hir.zext";
    pub const SEXT: &str = "hir.sext";
    pub const SLICE: &str = "hir.slice";
}

/// Attribute keys used by HIR ops.
pub mod attrkey {
    /// Static cycle offset from the op's time operand.
    pub const OFFSET: &str = "offset";
    /// Delay amount of `hir.delay`.
    pub const BY: &str = "by";
    /// Callee symbol of `hir.call`.
    pub const CALLEE: &str = "callee";
    /// Constant payload of `hir.constant`.
    pub const VALUE: &str = "value";
    /// Unroll-loop static bounds.
    pub const LB: &str = "lb";
    pub const UB: &str = "ub";
    pub const STEP: &str = "step";
    /// Memory kind of `hir.alloc` (`reg`/`lutram`/`bram`).
    pub const KIND: &str = "kind";
    /// Comparison predicate of `hir.cmp` (`eq`,`ne`,`lt`,`le`,`gt`,`ge`).
    pub const PREDICATE: &str = "predicate";
    /// Bit-slice bounds of `hir.slice`.
    pub const HI: &str = "hi";
    pub const LO: &str = "lo";
    /// Function metadata.
    pub const RESULT_DELAYS: &str = "result_delays";
    pub const ARG_DELAYS: &str = "arg_delays";
    pub const ARG_NAMES: &str = "arg_names";
    /// Marks an external (blackbox Verilog) function.
    pub const EXTERNAL: &str = "external";
    /// Signature attrs for external functions (which have no region).
    pub const ARG_TYPES: &str = "arg_types";
    pub const RESULT_TYPES: &str = "result_types";
}

/// Comparison predicates for `hir.cmp`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpPredicate {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpPredicate {
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpPredicate::Eq => "eq",
            CmpPredicate::Ne => "ne",
            CmpPredicate::Lt => "lt",
            CmpPredicate::Le => "le",
            CmpPredicate::Gt => "gt",
            CmpPredicate::Ge => "ge",
        }
    }

    pub fn from_mnemonic(s: &str) -> Option<Self> {
        match s {
            "eq" => Some(CmpPredicate::Eq),
            "ne" => Some(CmpPredicate::Ne),
            "lt" => Some(CmpPredicate::Lt),
            "le" => Some(CmpPredicate::Le),
            "gt" => Some(CmpPredicate::Gt),
            "ge" => Some(CmpPredicate::Ge),
            _ => None,
        }
    }

    /// Evaluate on signed integers.
    pub fn eval(self, a: i128, b: i128) -> bool {
        match self {
            CmpPredicate::Eq => a == b,
            CmpPredicate::Ne => a != b,
            CmpPredicate::Lt => a < b,
            CmpPredicate::Le => a <= b,
            CmpPredicate::Gt => a > b,
            CmpPredicate::Ge => a >= b,
        }
    }
}

/// Build the HIR dialect: one `OpSpec` per declaration in [`crate::decl`].
pub fn hir_dialect() -> Dialect {
    let mut d = Dialect::new("hir");
    for decl in crate::decl::DECLS {
        d.add_op(decl.spec());
    }
    d
}

/// Build a registry with the HIR dialect loaded.
pub fn hir_registry() -> DialectRegistry {
    let mut reg = DialectRegistry::new();
    reg.register(hir_dialect());
    reg
}

// ------------------------------------------------------------ verifier impls

fn is_int_like(ty: &ir::Type) -> bool {
    ty.is_integer() || types::is_const(ty)
}

/// The type of `v`, borrowed: the checks only inspect it.
fn ty(m: &Module, v: ValueId) -> &ir::Type {
    m.value(v).ty()
}

fn is_i1(t: &ir::Type) -> bool {
    matches!(
        t.kind(),
        TypeKind::Integer {
            width: 1,
            signedness: Signedness::Signless
        }
    )
}

/// The verifier of every HIR op. It checks the declared attributes; when the
/// operand, result and region counts match the declaration (the structural
/// verifier reports them otherwise), it checks a scheduled op's time operand
/// and runs the op's own checks. Each finding is reported at the op with its
/// pretty form as the snippet.
pub(crate) fn verify_declared(m: &Module, op: OpId, diags: &mut DiagnosticEngine) {
    let data = m.op(op);
    let Some(d) = decl::lookup(data.name().as_str()) else {
        return;
    };
    let mut errs: Vec<String> = d
        .bad_attrs(data)
        .map(|(key, kind)| format!("{} requires {} '{key}' attribute", d.name, kind.phrase()))
        .collect();
    if d.counts_match(data) {
        let t = d.scheduled.then(|| ty(m, decl::time(m, op)));
        if let Some(t) = t.filter(|t| !types::is_time(t)) {
            errs.push(format!(
                "{} time operand must be !hir.time, got {t}",
                d.name
            ));
        }
        if let Some(check) = d.check {
            check(m, op, &mut errs);
        }
    }
    for msg in errs {
        diags.emit(
            Diagnostic::error(data.loc().clone(), msg)
                .with_snippet(crate::pretty::pretty_op(m, op)),
        );
    }
}

pub(crate) fn verify_func(m: &Module, op: OpId, errs: &mut Vec<String>) {
    let data = m.op(op);
    if data.attr(ir::SYM_NAME).and_then(|a| a.as_str()).is_none() {
        return; // reported with the declared attributes
    }
    let args = if data.attr(attrkey::EXTERNAL).is_some() {
        if !data.regions().is_empty() {
            errs.push("external hir.func must not have a body".into());
        }
        let array = |key| data.attr(key).and_then(|a| a.as_array()).is_some();
        if !array(attrkey::ARG_TYPES) || !array(attrkey::RESULT_TYPES) {
            errs.push("external hir.func requires 'arg_types' and 'result_types'".into());
        }
        FuncOp(op).arg_types(m).len()
    } else {
        let [region] = data.regions() else {
            errs.push("hir.func requires exactly one region".into());
            return;
        };
        let &[entry] = m.region(*region).blocks() else {
            errs.push("hir.func body must be a single block".into());
            return;
        };
        match m.block(entry).args().last() {
            Some(&last) if types::is_time(ty(m, last)) => {}
            _ => errs.push("hir.func entry block's last argument must be !hir.time".into()),
        }
        match m.block(entry).ops().last() {
            Some(&last) if m.op(last).name().as_str() == opname::RETURN => {}
            _ => errs.push("hir.func body must end with hir.return".into()),
        }
        m.block(entry).args().len().saturating_sub(1)
    };
    // `arg_names`, when present, must name every argument: codegen indexes
    // it by argument position.
    if let Some(names) = FuncOp(op).arg_names(m).filter(|n| n.len() != args) {
        let (f, n) = (FuncOp(op).name(m), names.len());
        errs.push(format!(
            "hir.func @{f} has {n} 'arg_names' but {args} arguments"
        ));
    }
}

pub(crate) fn verify_for(m: &Module, op: OpId, errs: &mut Vec<String>) {
    let lp = ForOp(op);
    for (label, v) in [
        ("lower bound", lp.lower_bound(m)),
        ("upper bound", lp.upper_bound(m)),
        ("step", lp.step(m)),
    ] {
        let t = ty(m, v);
        if !is_int_like(t) {
            errs.push(format!(
                "hir.for {label} must be integer or !hir.const, got {t}"
            ));
        }
    }
    if !types::is_time(ty(m, lp.result_time(m))) {
        errs.push("hir.for result must be !hir.time (loop completion time)".into());
    }
    verify_loop_body(m, op, errs, false);
}

pub(crate) fn verify_unroll_for(m: &Module, op: OpId, errs: &mut Vec<String>) {
    if matches!(m.op(op).attr(attrkey::STEP).and_then(|a| a.as_int()), Some(s) if s <= 0) {
        errs.push("hir.unroll_for step must be positive".into());
    }
    verify_loop_body(m, op, errs, true);
}

fn verify_loop_body(m: &Module, op: OpId, errs: &mut Vec<String>, unroll: bool) {
    let name = m.op(op).name();
    let &[entry] = m.region(m.op(op).regions()[0]).blocks() else {
        errs.push(format!("{name} body must be a single block"));
        return;
    };
    let &[iv, ti] = m.block(entry).args() else {
        errs.push(format!(
            "{name} body must take (induction variable, !hir.time) arguments"
        ));
        return;
    };
    let iv_ty = ty(m, iv);
    let (iv_ok, want) = if unroll {
        (types::is_const(iv_ty), "!hir.const")
    } else {
        (iv_ty.is_integer(), "an integer type")
    };
    if !iv_ok {
        errs.push(format!(
            "{name} induction variable must be {want}, got {iv_ty}"
        ));
    }
    if !types::is_time(ty(m, ti)) {
        errs.push(format!("{name} iteration time must be !hir.time"));
    }
    let ops = m.block(entry).ops();
    let yields = ops
        .iter()
        .filter(|&&o| m.op(o).name().as_str() == opname::YIELD);
    let yields = yields.count();
    if yields != 1 {
        errs.push(format!(
            "{name} body must contain exactly one hir.yield, found {yields}"
        ));
    }
}

pub(crate) fn verify_if(m: &Module, op: OpId, errs: &mut Vec<String>) {
    if !is_i1(ty(m, IfOp(op).condition(m))) {
        errs.push("hir.if condition must be i1".into());
    }
    if m.op(op).regions().len() > 2 {
        errs.push("hir.if takes a then region and an optional else region".into());
    }
}

pub(crate) fn verify_constant(m: &Module, op: OpId, errs: &mut Vec<String>) {
    let data = m.op(op);
    let Some(value) = data.attr(attrkey::VALUE) else {
        return; // reported with the declared attributes
    };
    let ty = ty(m, data.results()[0]);
    let ok = match value {
        Attribute::Int(..) => is_int_like(ty),
        Attribute::Float(..) => ty.is_float(),
        _ => false,
    };
    if !ok {
        errs.push(format!(
            "hir.constant value does not match result type {ty}"
        ));
    }
}

pub(crate) fn verify_delay(m: &Module, op: OpId, errs: &mut Vec<String>) {
    let d = DelayOp(op);
    if matches!(m.op(op).attr(attrkey::BY).and_then(|a| a.as_int()), Some(by) if by < 0) {
        errs.push("hir.delay 'by' must be non-negative".into());
    }
    let (in_ty, out_ty) = (ty(m, d.input(m)), ty(m, d.result(m)));
    if in_ty != out_ty {
        errs.push(format!(
            "hir.delay result type {out_ty} must match input {in_ty}"
        ));
    }
}

pub(crate) fn verify_alloc(m: &Module, op: OpId, errs: &mut Vec<String>) {
    let data = m.op(op);
    let Some(kind) = data
        .attr(attrkey::KIND)
        .and_then(|a| a.as_str())
        .and_then(MemKind::from_mnemonic)
    else {
        return; // reported with the declared attributes
    };
    let mut infos = Vec::new();
    for &r in data.results() {
        let ty = ty(m, r);
        match MemrefInfo::from_type(ty) {
            Some(info) => infos.push(info),
            None => {
                errs.push(format!("hir.alloc results must be memrefs, got {ty}"));
                return;
            }
        }
    }
    for info in &infos {
        if info.kind != kind {
            let port = info.kind;
            errs.push(format!(
                "hir.alloc kind '{kind}' does not match port kind '{port}'"
            ));
        }
        if info.dims != infos[0].dims || info.elem != infos[0].elem {
            errs.push("hir.alloc ports must agree on shape and element type".into());
        }
    }
    // Port-count limits (paper §4.4: e.g. block RAMs are dual ported).
    let max_ports = match kind {
        MemKind::Reg => usize::MAX,
        MemKind::LutRam | MemKind::BlockRam => 2,
    };
    if infos.len() > max_ports {
        let n = infos.len();
        errs.push(format!(
            "hir.alloc of kind '{kind}' supports at most {max_ports} ports, got {n}"
        ));
    }
}

fn verify_mem_access(
    m: &Module,
    op: OpId,
    errs: &mut Vec<String>,
    (mem, indices): (ValueId, &[ValueId]),
    write: bool,
) -> Option<MemrefInfo> {
    let name = m.op(op).name();
    let mem_ty = ty(m, mem);
    let Some(info) = MemrefInfo::from_type(mem_ty) else {
        errs.push(format!(
            "{name} memory operand must be a memref, got {mem_ty}"
        ));
        return None;
    };
    let port = info.port;
    if write && !port.can_write() {
        errs.push(format!("{name} requires a writable port, got '{port}'"));
    }
    if !write && !port.can_read() {
        errs.push(format!("{name} requires a readable port, got '{port}'"));
    }
    let rank = info.dims.len();
    if indices.len() != rank {
        errs.push(format!(
            "{name} expects {rank} indices, got {}",
            indices.len()
        ));
        return Some(info);
    }
    for (d, &idx) in info.dims.iter().zip(indices) {
        let ty = ty(m, idx);
        if d.is_distributed() {
            if !types::is_const(ty) {
                errs.push(format!(
                    "distributed dimensions must be indexed by !hir.const, got {ty}"
                ));
            }
        } else if !is_int_like(ty) {
            errs.push(format!(
                "{name} index must be integer or !hir.const, got {ty}"
            ));
        }
    }
    Some(info)
}

pub(crate) fn verify_mem_read(m: &Module, op: OpId, errs: &mut Vec<String>) {
    let r = MemReadOp(op);
    if let Some(info) = verify_mem_access(m, op, errs, (r.memref(m), &r.indices(m)), false) {
        let res_ty = ty(m, r.result(m));
        if *res_ty != info.elem {
            let elem = info.elem;
            errs.push(format!(
                "hir.mem_read result type {res_ty} must match element type {elem}"
            ));
        }
    }
}

pub(crate) fn verify_mem_write(m: &Module, op: OpId, errs: &mut Vec<String>) {
    let w = MemWriteOp(op);
    if let Some(info) = verify_mem_access(m, op, errs, (w.memref(m), &w.indices(m)), true) {
        let val_ty = ty(m, w.value(m));
        if *val_ty != info.elem && !types::is_const(val_ty) {
            let elem = info.elem;
            errs.push(format!(
                "hir.mem_write value type {val_ty} must match element type {elem}"
            ));
        }
    }
}

pub(crate) fn verify_binary(m: &Module, op: OpId, errs: &mut Vec<String>) {
    let data = m.op(op);
    let lhs = ty(m, operand(m, op, const { decl::ADD.slot("lhs") }));
    let rhs = ty(m, operand(m, op, const { decl::ADD.slot("rhs") }));
    let res = ty(m, data.results()[0]);
    let name = data.name();
    if res.is_float() {
        if !lhs.is_float() || !rhs.is_float() {
            errs.push(format!("{name} float result requires float operands"));
        }
        return;
    }
    for t in [&lhs, &rhs] {
        if !is_int_like(t) {
            errs.push(format!(
                "{name} operand must be integer or !hir.const, got {t}"
            ));
        }
    }
    if !is_int_like(res) {
        errs.push(format!("{name} result must be integer, got {res}"));
    }
}

pub(crate) fn verify_cmp(m: &Module, op: OpId, errs: &mut Vec<String>) {
    if !is_i1(ty(m, m.op(op).results()[0])) {
        errs.push("hir.cmp result must be i1".into());
    }
}

pub(crate) fn verify_select(m: &Module, op: OpId, errs: &mut Vec<String>) {
    if !is_i1(ty(m, operand(m, op, const { decl::SELECT.slot("cond") }))) {
        errs.push("hir.select condition must be i1".into());
    }
    let a = ty(m, operand(m, op, const { decl::SELECT.slot("then") }));
    let b = ty(m, operand(m, op, const { decl::SELECT.slot("else") }));
    if a != b {
        errs.push(format!(
            "hir.select branches must have equal types, got {a} vs {b}"
        ));
    }
}

pub(crate) fn verify_cast(m: &Module, op: OpId, errs: &mut Vec<String>) {
    let data = m.op(op);
    let name = data.name();
    let in_ty = ty(m, operand(m, op, const { decl::TRUNC.slot("input") }));
    let out_ty = ty(m, data.results()[0]);
    let (Some(in_w), Some(out_w)) = (in_ty.int_width(), out_ty.int_width()) else {
        if !(is_int_like(in_ty) && out_ty.is_integer()) {
            errs.push(format!("{name} requires integer input and output"));
        }
        return;
    };
    match name.as_str() {
        opname::TRUNC if out_w >= in_w => {
            errs.push(format!("hir.trunc must narrow: {in_w} -> {out_w}"));
        }
        opname::ZEXT | opname::SEXT if out_w <= in_w => {
            errs.push(format!("{name} must widen: {in_w} -> {out_w}"));
        }
        _ => {}
    }
}

pub(crate) fn verify_slice(m: &Module, op: OpId, errs: &mut Vec<String>) {
    let data = m.op(op);
    let int = |key| data.attr(key).and_then(|a| a.as_int());
    let (Some(hi), Some(lo)) = (int(attrkey::HI), int(attrkey::LO)) else {
        return; // reported with the declared attributes
    };
    if lo < 0 || hi < lo {
        errs.push(format!("hir.slice invalid range [{hi}:{lo}]"));
        return;
    }
    if ty(m, data.results()[0]).int_width() != Some((hi - lo + 1) as u32) {
        errs.push(format!("hir.slice result width must be {}", hi - lo + 1));
    }
    let input = operand(m, op, const { decl::SLICE.slot("input") });
    if let Some(in_w) = ty(m, input).int_width() {
        if hi as u32 >= in_w {
            errs.push(format!("hir.slice bit {hi} out of range for width {in_w}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper Table 2: the dialect provides the listed data types and the
    /// three op categories (control flow, compute, memory access).
    #[test]
    fn table2_inventory_is_complete() {
        let reg = hir_registry();
        // Control flow ops.
        for op in [
            opname::FUNC,
            opname::FOR,
            opname::UNROLL_FOR,
            opname::RETURN,
            opname::YIELD,
            opname::CALL,
            opname::IF,
        ] {
            assert!(reg.spec(op).is_some(), "missing control-flow op {op}");
        }
        // Compute ops (the paper names hir.add and hir.mult; we provide the
        // full complement).
        for op in [
            opname::ADD,
            opname::SUB,
            opname::MULT,
            opname::AND,
            opname::OR,
            opname::XOR,
            opname::NOT,
            opname::SHL,
            opname::SHR,
            opname::CMP,
            opname::SELECT,
            opname::TRUNC,
            opname::ZEXT,
            opname::SEXT,
            opname::SLICE,
        ] {
            assert!(reg.spec(op).is_some(), "missing compute op {op}");
            assert!(
                reg.op_has_trait(op, ir::traits::PURE),
                "compute ops are pure: {op}"
            );
        }
        // Memory access ops.
        for op in [opname::ALLOC, opname::MEM_READ, opname::MEM_WRITE] {
            assert!(reg.spec(op).is_some(), "missing memory op {op}");
        }
        // Data types: i32, i1, f32, hir.memref (+ time and const).
        assert!(crate::types::is_memref(
            &crate::types::MemrefInfo::packed(
                &[4],
                ir::Type::int(32),
                crate::types::Port::Read,
                MemKind::BlockRam
            )
            .to_type()
        ));
        assert!(crate::types::is_time(&crate::types::time_type()));
        assert!(crate::types::is_const(&crate::types::const_type()));
        assert_eq!(ir::Type::i1().int_width(), Some(1));
        assert_eq!(ir::Type::f32().bit_width(), Some(32));
        // Every registered op documents itself.
        for spec in reg.all_specs() {
            assert!(
                !spec.summary().is_empty(),
                "{} lacks a summary",
                spec.name()
            );
        }
    }

    #[test]
    fn cmp_predicates_roundtrip() {
        for p in [
            CmpPredicate::Eq,
            CmpPredicate::Ne,
            CmpPredicate::Lt,
            CmpPredicate::Le,
            CmpPredicate::Gt,
            CmpPredicate::Ge,
        ] {
            assert_eq!(CmpPredicate::from_mnemonic(p.mnemonic()), Some(p));
        }
        assert!(CmpPredicate::Lt.eval(-5, 3));
        assert!(!CmpPredicate::Gt.eval(-5, 3));
        assert!(CmpPredicate::Le.eval(3, 3));
    }

    #[test]
    fn own_checks_wait_for_the_declared_operand_count() {
        // An operand-less yield and a one-operand delay get their arity and
        // attribute diagnostics; the checks that read their operands do not
        // run (they indexed past the end before).
        let m = ir::parse_module(
            r#""hir.func"() ({
^bb(%0: i32, %1: !hir.time):
  "hir.yield"() {offset = 0 : index} : () -> ()
  %2 = "hir.delay"(%0) {by = 1 : index} : (i32) -> (i32)
  "hir.return"() : () -> ()
}) {arg_names = ["a"], sym_name = "f"} : () -> ()
"#,
        )
        .unwrap();
        let mut diags = DiagnosticEngine::new();
        assert!(ir::verify_module(&m, &hir_registry(), &mut diags).is_err());
        let text = diags.render();
        for want in [
            "'hir.yield' expects exactly 1 operands but has 0",
            "'hir.delay' expects exactly 2 operands but has 1",
            "hir.delay requires an integer 'offset' attribute",
        ] {
            assert!(text.contains(want), "{want}: {text}");
        }
    }

    #[test]
    fn arg_names_must_name_every_argument() {
        let verify = |text: &str| {
            let m = ir::parse_module(text).unwrap();
            let mut diags = DiagnosticEngine::new();
            let _ = ir::verify_module(&m, &hir_registry(), &mut diags);
            diags.render()
        };
        let external = |names: &str| {
            format!(
                "\"hir.func\"() {{arg_names = [{names}], arg_types = [i32, i32], external = unit, \
                 result_delays = [], result_types = [], sym_name = \"ext\"}} : () -> ()\n"
            )
        };
        assert!(verify(&external("\"a\", \"b\"")).is_empty());
        assert!(
            verify(&external("\"a\"")).contains("hir.func @ext has 1 'arg_names' but 2 arguments")
        );
    }
}
