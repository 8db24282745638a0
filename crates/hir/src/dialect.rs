//! HIR dialect registration: op names, attribute keys, op specs and
//! structural verifiers (paper Table 2).

use crate::types::{self, MemKind, MemrefInfo};
use ir::{
    traits, Arity, Attribute, Diagnostic, DiagnosticEngine, Dialect, DialectRegistry, Module, OpId,
    OpSpec,
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

/// Build the HIR dialect with all op specs and verifiers.
pub fn hir_dialect() -> Dialect {
    let mut d = Dialect::new("hir");
    d.add_op(
        OpSpec::new(opname::FUNC)
            .with_traits(traits::SYMBOL | traits::TIME_SCOPE)
            .with_operands(Arity::Exact(0))
            .with_results(Arity::Exact(0))
            .with_regions(Arity::Any)
            .with_verifier(verify_func)
            .with_summary("hardware function; entry block args are (args..., %t: !hir.time)"),
    );
    d.add_op(
        OpSpec::new(opname::FOR)
            .with_traits(traits::TIME_SCOPE)
            .with_operands(Arity::Exact(4))
            .with_results(Arity::Exact(1))
            .with_regions(Arity::Exact(1))
            .with_verifier(verify_for)
            .with_summary("sequential/pipelined loop with explicit iteration schedule"),
    );
    d.add_op(
        OpSpec::new(opname::UNROLL_FOR)
            .with_traits(traits::TIME_SCOPE)
            .with_operands(Arity::Exact(1))
            .with_results(Arity::Exact(1))
            .with_regions(Arity::Exact(1))
            .with_verifier(verify_unroll_for)
            .with_summary("fully unrolled loop; body replicated in hardware"),
    );
    d.add_op(
        OpSpec::new(opname::YIELD)
            .with_operands(Arity::Exact(1))
            .with_results(Arity::Exact(0))
            .with_verifier(verify_yield)
            .with_summary("schedules the start of the next loop iteration"),
    );
    d.add_op(
        OpSpec::new(opname::RETURN)
            .with_traits(traits::TERMINATOR)
            .with_summary("terminates a function body"),
    );
    d.add_op(
        OpSpec::new(opname::CALL)
            .with_traits(traits::MEMORY_EFFECT)
            .with_operands(Arity::AtLeast(1))
            .with_verifier(verify_call)
            .with_summary("invoke an HIR function or external Verilog module"),
    );
    d.add_op(
        OpSpec::new(opname::IF)
            .with_operands(Arity::Exact(2))
            .with_results(Arity::Exact(0))
            .with_regions(Arity::AtLeast(1))
            .with_verifier(verify_if)
            .with_summary("conditional execution; branches share the schedule"),
    );
    d.add_op(
        OpSpec::new(opname::CONSTANT)
            .with_traits(traits::PURE | traits::CONSTANT_LIKE)
            .with_operands(Arity::Exact(0))
            .with_results(Arity::Exact(1))
            .with_verifier(verify_constant)
            .with_summary("compile-time constant"),
    );
    d.add_op(
        OpSpec::new(opname::DELAY)
            .with_operands(Arity::Exact(2))
            .with_results(Arity::Exact(1))
            .with_verifier(verify_delay)
            .with_summary("delay a value by a fixed number of cycles (shift register)"),
    );
    d.add_op(
        OpSpec::new(opname::ALLOC)
            .with_operands(Arity::Exact(0))
            .with_results(Arity::AtLeast(1))
            .with_verifier(verify_alloc)
            .with_summary("allocate an on-chip tensor; each result is one port"),
    );
    d.add_op(
        OpSpec::new(opname::MEM_READ)
            .with_traits(traits::MEMORY_EFFECT)
            .with_operands(Arity::AtLeast(2))
            .with_results(Arity::Exact(1))
            .with_verifier(verify_mem_read)
            .with_summary("scheduled read through a memref port"),
    );
    d.add_op(
        OpSpec::new(opname::MEM_WRITE)
            .with_traits(traits::MEMORY_EFFECT)
            .with_operands(Arity::AtLeast(3))
            .with_results(Arity::Exact(0))
            .with_verifier(verify_mem_write)
            .with_summary("scheduled write through a memref port (1 cycle)"),
    );

    for (name, commutative) in [
        (opname::ADD, true),
        (opname::SUB, false),
        (opname::MULT, true),
        (opname::AND, true),
        (opname::OR, true),
        (opname::XOR, true),
        (opname::SHL, false),
        (opname::SHR, false),
    ] {
        let mut t = traits::PURE;
        if commutative {
            t |= traits::COMMUTATIVE;
        }
        d.add_op(
            OpSpec::new(name)
                .with_traits(t)
                .with_operands(Arity::Exact(2))
                .with_results(Arity::Exact(1))
                .with_verifier(verify_binary)
                .with_summary("combinational arithmetic/logic"),
        );
    }
    d.add_op(
        OpSpec::new(opname::NOT)
            .with_traits(traits::PURE)
            .with_operands(Arity::Exact(1))
            .with_results(Arity::Exact(1))
            .with_summary("combinational bitwise not"),
    );
    d.add_op(
        OpSpec::new(opname::CMP)
            .with_traits(traits::PURE)
            .with_operands(Arity::Exact(2))
            .with_results(Arity::Exact(1))
            .with_verifier(verify_cmp)
            .with_summary("combinational comparison producing i1"),
    );
    d.add_op(
        OpSpec::new(opname::SELECT)
            .with_traits(traits::PURE)
            .with_operands(Arity::Exact(3))
            .with_results(Arity::Exact(1))
            .with_verifier(verify_select)
            .with_summary("2:1 multiplexer"),
    );
    for name in [opname::TRUNC, opname::ZEXT, opname::SEXT] {
        d.add_op(
            OpSpec::new(name)
                .with_traits(traits::PURE)
                .with_operands(Arity::Exact(1))
                .with_results(Arity::Exact(1))
                .with_verifier(verify_cast)
                .with_summary("combinational width cast"),
        );
    }
    d.add_op(
        OpSpec::new(opname::SLICE)
            .with_traits(traits::PURE)
            .with_operands(Arity::Exact(1))
            .with_results(Arity::Exact(1))
            .with_verifier(verify_slice)
            .with_summary("combinational bit slice [hi:lo]"),
    );
    d
}

/// Build a registry with the HIR dialect loaded.
pub fn hir_registry() -> DialectRegistry {
    let mut reg = DialectRegistry::new();
    reg.register(hir_dialect());
    reg
}

// ------------------------------------------------------------ verifier impls

fn err(m: &Module, op: OpId, diags: &mut DiagnosticEngine, msg: String) {
    diags.emit(
        Diagnostic::error(m.op(op).loc().clone(), msg)
            .with_snippet(crate::pretty::pretty_op(m, op)),
    );
}

fn is_int_like(ty: &ir::Type) -> bool {
    ty.is_integer() || types::is_const(ty)
}

fn has_int_attr(m: &Module, op: OpId, key: &str) -> bool {
    m.op(op).attr(key).and_then(|a| a.as_int()).is_some()
}

fn verify_func(m: &Module, op: OpId, diags: &mut DiagnosticEngine) {
    let data = m.op(op);
    if data.attr(ir::SYM_NAME).and_then(|a| a.as_str()).is_none() {
        err(
            m,
            op,
            diags,
            "hir.func requires a 'sym_name' string attribute".into(),
        );
        return;
    }
    let external = data.attr(attrkey::EXTERNAL).is_some();
    if external {
        if !data.regions().is_empty() {
            err(
                m,
                op,
                diags,
                "external hir.func must not have a body".into(),
            );
        }
        if data
            .attr(attrkey::ARG_TYPES)
            .and_then(|a| a.as_array())
            .is_none()
            || data
                .attr(attrkey::RESULT_TYPES)
                .and_then(|a| a.as_array())
                .is_none()
        {
            err(
                m,
                op,
                diags,
                "external hir.func requires 'arg_types' and 'result_types'".into(),
            );
        }
        verify_arg_names(m, op, crate::ops::FuncOp(op).arg_types(m).len(), diags);
        return;
    }
    if data.regions().len() != 1 {
        err(m, op, diags, "hir.func requires exactly one region".into());
        return;
    }
    let region = data.regions()[0];
    let blocks = m.region(region).blocks();
    if blocks.len() != 1 {
        err(m, op, diags, "hir.func body must be a single block".into());
        return;
    }
    let entry = blocks[0];
    match m.block(entry).args().last() {
        Some(&last) if types::is_time(&m.value_type(last)) => {}
        _ => err(
            m,
            op,
            diags,
            "hir.func entry block's last argument must be !hir.time".into(),
        ),
    }
    match m.block(entry).ops().last() {
        Some(&last) if m.op(last).name().as_str() == opname::RETURN => {}
        _ => err(
            m,
            op,
            diags,
            "hir.func body must end with hir.return".into(),
        ),
    }
    let args = m.block(entry).args().len().saturating_sub(1);
    verify_arg_names(m, op, args, diags);
}

/// `arg_names`, when present, must name every argument: codegen indexes it
/// by argument position.
fn verify_arg_names(m: &Module, op: OpId, args: usize, diags: &mut DiagnosticEngine) {
    let Some(names) = crate::ops::FuncOp(op).arg_names(m) else {
        return;
    };
    if names.len() != args {
        err(
            m,
            op,
            diags,
            format!(
                "hir.func @{} has {} 'arg_names' but {args} arguments",
                crate::ops::FuncOp(op).name(m),
                names.len()
            ),
        );
    }
}

fn verify_for(m: &Module, op: OpId, diags: &mut DiagnosticEngine) {
    let data = m.op(op);
    if data.operands().len() != 4 {
        return; // arity already reported
    }
    for (i, label) in ["lower bound", "upper bound", "step"].iter().enumerate() {
        let t = m.value_type(data.operands()[i]);
        if !is_int_like(&t) {
            err(
                m,
                op,
                diags,
                format!("hir.for {label} must be integer or !hir.const, got {t}"),
            );
        }
    }
    let t = m.value_type(data.operands()[3]);
    if !types::is_time(&t) {
        err(
            m,
            op,
            diags,
            format!("hir.for time operand must be !hir.time, got {t}"),
        );
    }
    if !has_int_attr(m, op, attrkey::OFFSET) {
        err(
            m,
            op,
            diags,
            "hir.for requires an integer 'offset' attribute".into(),
        );
    }
    if !types::is_time(&m.value_type(data.results()[0])) {
        err(
            m,
            op,
            diags,
            "hir.for result must be !hir.time (loop completion time)".into(),
        );
    }
    verify_loop_body(m, op, diags, false);
}

fn verify_unroll_for(m: &Module, op: OpId, diags: &mut DiagnosticEngine) {
    let data = m.op(op);
    for key in [attrkey::LB, attrkey::UB, attrkey::STEP] {
        if !has_int_attr(m, op, key) {
            err(
                m,
                op,
                diags,
                format!("hir.unroll_for requires integer '{key}' attribute"),
            );
        }
    }
    if let Some(step) = data.attr(attrkey::STEP).and_then(|a| a.as_int()) {
        if step <= 0 {
            err(m, op, diags, "hir.unroll_for step must be positive".into());
        }
    }
    if data.operands().len() == 1 && !types::is_time(&m.value_type(data.operands()[0])) {
        err(
            m,
            op,
            diags,
            "hir.unroll_for time operand must be !hir.time".into(),
        );
    }
    verify_loop_body(m, op, diags, true);
}

fn verify_loop_body(m: &Module, op: OpId, diags: &mut DiagnosticEngine, unroll: bool) {
    let data = m.op(op);
    let Some(&region) = data.regions().first() else {
        return;
    };
    let blocks = m.region(region).blocks();
    if blocks.len() != 1 {
        err(
            m,
            op,
            diags,
            format!("{} body must be a single block", data.name()),
        );
        return;
    }
    let entry = blocks[0];
    let args = m.block(entry).args();
    if args.len() != 2 {
        err(
            m,
            op,
            diags,
            format!(
                "{} body must take (induction variable, !hir.time) arguments",
                data.name()
            ),
        );
        return;
    }
    let iv_ty = m.value_type(args[0]);
    let iv_ok = if unroll {
        types::is_const(&iv_ty)
    } else {
        iv_ty.is_integer()
    };
    if !iv_ok {
        err(
            m,
            op,
            diags,
            format!(
                "{} induction variable must be {}, got {iv_ty}",
                data.name(),
                if unroll {
                    "!hir.const"
                } else {
                    "an integer type"
                }
            ),
        );
    }
    if !types::is_time(&m.value_type(args[1])) {
        err(
            m,
            op,
            diags,
            format!("{} iteration time must be !hir.time", data.name()),
        );
    }
    let yields = m
        .block(entry)
        .ops()
        .iter()
        .filter(|&&o| m.op(o).name().as_str() == opname::YIELD)
        .count();
    if yields != 1 {
        err(
            m,
            op,
            diags,
            format!(
                "{} body must contain exactly one hir.yield, found {yields}",
                data.name()
            ),
        );
    }
}

fn verify_yield(m: &Module, op: OpId, diags: &mut DiagnosticEngine) {
    let data = m.op(op);
    if !types::is_time(&m.value_type(data.operands()[0])) {
        err(m, op, diags, "hir.yield operand must be !hir.time".into());
    }
    if !has_int_attr(m, op, attrkey::OFFSET) {
        err(
            m,
            op,
            diags,
            "hir.yield requires an integer 'offset' attribute".into(),
        );
    }
}

fn verify_call(m: &Module, op: OpId, diags: &mut DiagnosticEngine) {
    let data = m.op(op);
    if data
        .attr(attrkey::CALLEE)
        .and_then(|a| a.as_symbol())
        .is_none()
    {
        err(
            m,
            op,
            diags,
            "hir.call requires a 'callee' symbol attribute".into(),
        );
    }
    match data.operands().last() {
        Some(&last) if types::is_time(&m.value_type(last)) => {}
        _ => err(
            m,
            op,
            diags,
            "hir.call's last operand must be the !hir.time start".into(),
        ),
    }
    if !has_int_attr(m, op, attrkey::OFFSET) {
        err(
            m,
            op,
            diags,
            "hir.call requires an integer 'offset' attribute".into(),
        );
    }
}

fn verify_if(m: &Module, op: OpId, diags: &mut DiagnosticEngine) {
    let data = m.op(op);
    if m.value_type(data.operands()[0]) != ir::Type::i1() {
        err(m, op, diags, "hir.if condition must be i1".into());
    }
    if !types::is_time(&m.value_type(data.operands()[1])) {
        err(m, op, diags, "hir.if time operand must be !hir.time".into());
    }
    if data.regions().len() > 2 {
        err(
            m,
            op,
            diags,
            "hir.if takes a then region and an optional else region".into(),
        );
    }
}

fn verify_constant(m: &Module, op: OpId, diags: &mut DiagnosticEngine) {
    let data = m.op(op);
    let Some(value) = data.attr(attrkey::VALUE) else {
        err(
            m,
            op,
            diags,
            "hir.constant requires a 'value' attribute".into(),
        );
        return;
    };
    let ty = m.value_type(data.results()[0]);
    let ok = match value {
        Attribute::Int(..) => is_int_like(&ty),
        Attribute::Float(..) => ty.is_float(),
        _ => false,
    };
    if !ok {
        err(
            m,
            op,
            diags,
            format!("hir.constant value does not match result type {ty}"),
        );
    }
}

fn verify_delay(m: &Module, op: OpId, diags: &mut DiagnosticEngine) {
    let data = m.op(op);
    if !types::is_time(&m.value_type(data.operands()[1])) {
        err(
            m,
            op,
            diags,
            "hir.delay second operand must be !hir.time".into(),
        );
    }
    match data.attr(attrkey::BY).and_then(|a| a.as_int()) {
        Some(by) if by >= 0 => {}
        Some(_) => err(m, op, diags, "hir.delay 'by' must be non-negative".into()),
        None => err(
            m,
            op,
            diags,
            "hir.delay requires an integer 'by' attribute".into(),
        ),
    }
    let in_ty = m.value_type(data.operands()[0]);
    let out_ty = m.value_type(data.results()[0]);
    if in_ty != out_ty {
        err(
            m,
            op,
            diags,
            format!("hir.delay result type {out_ty} must match input {in_ty}"),
        );
    }
}

fn verify_alloc(m: &Module, op: OpId, diags: &mut DiagnosticEngine) {
    let data = m.op(op);
    let Some(kind) = data
        .attr(attrkey::KIND)
        .and_then(|a| a.as_str())
        .and_then(MemKind::from_mnemonic)
    else {
        err(
            m,
            op,
            diags,
            "hir.alloc requires a 'kind' attribute (reg/lutram/bram)".into(),
        );
        return;
    };
    let mut infos = Vec::new();
    for &r in data.results() {
        let ty = m.value_type(r);
        match MemrefInfo::from_type(&ty) {
            Some(info) => infos.push(info),
            None => {
                err(
                    m,
                    op,
                    diags,
                    format!("hir.alloc results must be memrefs, got {ty}"),
                );
                return;
            }
        }
    }
    for info in &infos {
        if info.kind != kind {
            err(
                m,
                op,
                diags,
                format!(
                    "hir.alloc kind '{kind}' does not match port kind '{}'",
                    info.kind
                ),
            );
        }
        if info.dims != infos[0].dims || info.elem != infos[0].elem {
            err(
                m,
                op,
                diags,
                "hir.alloc ports must agree on shape and element type".into(),
            );
        }
    }
    // Port-count limits (paper §4.4: e.g. block RAMs are dual ported).
    let max_ports = match kind {
        MemKind::Reg => usize::MAX,
        MemKind::LutRam | MemKind::BlockRam => 2,
    };
    if infos.len() > max_ports {
        err(
            m,
            op,
            diags,
            format!(
                "hir.alloc of kind '{kind}' supports at most {max_ports} ports, got {}",
                infos.len()
            ),
        );
    }
}

fn verify_mem_access(
    m: &Module,
    op: OpId,
    diags: &mut DiagnosticEngine,
    mem_operand: usize,
    write: bool,
) -> Option<MemrefInfo> {
    let data = m.op(op);
    let name = data.name().clone();
    let mem_ty = m.value_type(data.operands()[mem_operand]);
    let Some(info) = MemrefInfo::from_type(&mem_ty) else {
        err(
            m,
            op,
            diags,
            format!("{name} memory operand must be a memref, got {mem_ty}"),
        );
        return None;
    };
    if write && !info.port.can_write() {
        err(
            m,
            op,
            diags,
            format!("{name} requires a writable port, got '{}'", info.port),
        );
    }
    if !write && !info.port.can_read() {
        err(
            m,
            op,
            diags,
            format!("{name} requires a readable port, got '{}'", info.port),
        );
    }
    let idx_start = mem_operand + 1;
    let idx_end = data.operands().len() - 1; // last operand is the time
    let rank = info.dims.len();
    if idx_end - idx_start != rank {
        err(
            m,
            op,
            diags,
            format!("{name} expects {rank} indices, got {}", idx_end - idx_start),
        );
        return Some(info);
    }
    for (d, &idx) in info.dims.iter().zip(&data.operands()[idx_start..idx_end]) {
        let ty = m.value_type(idx);
        if d.is_distributed() {
            if !types::is_const(&ty) {
                err(
                    m,
                    op,
                    diags,
                    format!("distributed dimensions must be indexed by !hir.const, got {ty}"),
                );
            }
        } else if !is_int_like(&ty) {
            err(
                m,
                op,
                diags,
                format!("{name} index must be integer or !hir.const, got {ty}"),
            );
        }
    }
    let t = m.value_type(*data.operands().last().unwrap());
    if !types::is_time(&t) {
        err(
            m,
            op,
            diags,
            format!("{name} last operand must be !hir.time, got {t}"),
        );
    }
    if !has_int_attr(m, op, attrkey::OFFSET) {
        err(
            m,
            op,
            diags,
            format!("{name} requires an integer 'offset' attribute"),
        );
    }
    Some(info)
}

fn verify_mem_read(m: &Module, op: OpId, diags: &mut DiagnosticEngine) {
    if let Some(info) = verify_mem_access(m, op, diags, 0, false) {
        let res_ty = m.value_type(m.op(op).results()[0]);
        if res_ty != info.elem {
            err(
                m,
                op,
                diags,
                format!(
                    "hir.mem_read result type {res_ty} must match element type {}",
                    info.elem
                ),
            );
        }
    }
}

fn verify_mem_write(m: &Module, op: OpId, diags: &mut DiagnosticEngine) {
    if let Some(info) = verify_mem_access(m, op, diags, 1, true) {
        let val_ty = m.value_type(m.op(op).operands()[0]);
        if val_ty != info.elem && !types::is_const(&val_ty) {
            err(
                m,
                op,
                diags,
                format!(
                    "hir.mem_write value type {val_ty} must match element type {}",
                    info.elem
                ),
            );
        }
    }
}

fn verify_binary(m: &Module, op: OpId, diags: &mut DiagnosticEngine) {
    let data = m.op(op);
    let lhs = m.value_type(data.operands()[0]);
    let rhs = m.value_type(data.operands()[1]);
    let res = m.value_type(data.results()[0]);
    let name = data.name().clone();
    if res.is_float() {
        if !lhs.is_float() || !rhs.is_float() {
            err(
                m,
                op,
                diags,
                format!("{name} float result requires float operands"),
            );
        }
        return;
    }
    for t in [&lhs, &rhs] {
        if !is_int_like(t) {
            err(
                m,
                op,
                diags,
                format!("{name} operand must be integer or !hir.const, got {t}"),
            );
        }
    }
    if !is_int_like(&res) {
        err(
            m,
            op,
            diags,
            format!("{name} result must be integer, got {res}"),
        );
    }
}

fn verify_cmp(m: &Module, op: OpId, diags: &mut DiagnosticEngine) {
    let data = m.op(op);
    match data.attr(attrkey::PREDICATE).and_then(|a| a.as_str()) {
        Some(p) if CmpPredicate::from_mnemonic(p).is_some() => {}
        _ => err(
            m,
            op,
            diags,
            "hir.cmp requires a valid 'predicate' attribute".into(),
        ),
    }
    if m.value_type(data.results()[0]) != ir::Type::i1() {
        err(m, op, diags, "hir.cmp result must be i1".into());
    }
}

fn verify_select(m: &Module, op: OpId, diags: &mut DiagnosticEngine) {
    let data = m.op(op);
    if m.value_type(data.operands()[0]) != ir::Type::i1() {
        err(m, op, diags, "hir.select condition must be i1".into());
    }
    let a = m.value_type(data.operands()[1]);
    let b = m.value_type(data.operands()[2]);
    if a != b {
        err(
            m,
            op,
            diags,
            format!("hir.select branches must have equal types, got {a} vs {b}"),
        );
    }
}

fn verify_cast(m: &Module, op: OpId, diags: &mut DiagnosticEngine) {
    let data = m.op(op);
    let name = data.name().clone();
    let in_ty = m.value_type(data.operands()[0]);
    let out_ty = m.value_type(data.results()[0]);
    let (Some(in_w), Some(out_w)) = (in_ty.int_width(), out_ty.int_width()) else {
        if !(is_int_like(&in_ty) && out_ty.is_integer()) {
            err(
                m,
                op,
                diags,
                format!("{name} requires integer input and output"),
            );
        }
        return;
    };
    match name.as_str() {
        opname::TRUNC if out_w >= in_w => {
            err(
                m,
                op,
                diags,
                format!("hir.trunc must narrow: {in_w} -> {out_w}"),
            );
        }
        opname::ZEXT | opname::SEXT if out_w <= in_w => {
            err(
                m,
                op,
                diags,
                format!("{name} must widen: {in_w} -> {out_w}"),
            );
        }
        _ => {}
    }
}

fn verify_slice(m: &Module, op: OpId, diags: &mut DiagnosticEngine) {
    let data = m.op(op);
    let hi = data.attr(attrkey::HI).and_then(|a| a.as_int());
    let lo = data.attr(attrkey::LO).and_then(|a| a.as_int());
    let (Some(hi), Some(lo)) = (hi, lo) else {
        err(
            m,
            op,
            diags,
            "hir.slice requires integer 'hi' and 'lo' attributes".into(),
        );
        return;
    };
    if lo < 0 || hi < lo {
        err(m, op, diags, format!("hir.slice invalid range [{hi}:{lo}]"));
        return;
    }
    let out_w = m.value_type(m.op(op).results()[0]).int_width();
    if out_w != Some((hi - lo + 1) as u32) {
        err(
            m,
            op,
            diags,
            format!("hir.slice result width must be {}", hi - lo + 1),
        );
    }
    if let Some(in_w) = m.value_type(m.op(op).operands()[0]).int_width() {
        if hi as u32 >= in_w {
            err(
                m,
                op,
                diags,
                format!("hir.slice bit {hi} out of range for width {in_w}"),
            );
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
