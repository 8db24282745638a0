//! One declaration per HIR op (paper Table 2).
//!
//! Each [`OpDecl`] names the op's operand roles, result roles, required
//! attributes, regions and pretty syntax once. Everything else reads it:
//! [`crate::hir_dialect`] builds the `OpSpec`s and their arities, the
//! structural verifier checks the declared attributes, [`crate::HirBuilder`]
//! types results and body arguments, the pretty parser and printer walk the
//! syntax pieces, and the [`crate::ops`] accessors take operand positions
//! from the roles.
//!
//! Operands are laid out as the fixed roles in order, then the variadic
//! group (if any), then — for scheduled ops — the `!hir.time` operand, which
//! goes with an integer `offset` attribute. Every syntax names the operands
//! in that order, so the parser and printer consume them front to back.

use crate::dialect::{self, attrkey, opname, CmpPredicate};
use crate::types::MemKind;
use ir::module::OpData;
use ir::{traits, Arity, Attribute, Module, OpId, OpSpec, ValueId};

/// An op's own checks: each finding is pushed as a message, which the
/// verifier reports at the op with its pretty form as the snippet.
pub type Check = fn(&Module, OpId, &mut Vec<String>);

/// What a required attribute must hold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttrKind {
    Int,
    Str,
    Symbol,
    /// Anything; the op's verifier checks it further.
    Any,
    /// A memory-kind mnemonic (`reg`, `lutram`, `bram`).
    MemKind,
    /// A comparison-predicate mnemonic (`eq`, `ne`, `lt`, `le`, `gt`, `ge`).
    Predicate,
}

impl AttrKind {
    pub fn accepts(self, a: &Attribute) -> bool {
        match self {
            AttrKind::Int => a.as_int().is_some(),
            AttrKind::Str => a.as_str().is_some(),
            AttrKind::Symbol => a.as_symbol().is_some(),
            AttrKind::Any => true,
            AttrKind::MemKind => a.as_str().and_then(MemKind::from_mnemonic).is_some(),
            AttrKind::Predicate => a.as_str().and_then(CmpPredicate::from_mnemonic).is_some(),
        }
    }

    /// How the verifier's "requires ... attribute" message names the kind.
    pub fn phrase(self) -> &'static str {
        match self {
            AttrKind::Int => "an integer",
            AttrKind::Str => "a string",
            AttrKind::Symbol => "a symbol",
            AttrKind::Any => "a",
            AttrKind::MemKind => "a reg/lutram/bram",
            AttrKind::Predicate => "a valid",
        }
    }
}

/// How the builder types a result or a body argument.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ty {
    Time,
    Const,
    /// The type written in the source (or passed to the builder).
    Written,
    /// The type of the first operand.
    OfFirstOperand,
    /// The element type of the first operand, a memref.
    MemElem,
    /// One memref port per written type, as written; the first port's kind
    /// is the `kind` attribute, and `verify_alloc` checks that the ports
    /// agree.
    Ports,
    /// The callee's result types, which the builder's caller looks up and
    /// passes as the written types.
    Callee,
}

/// One piece of an op's pretty syntax, after `results = op.name`.
///
/// Values print after a space, except right after `(` or `[`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Piece {
    /// A keyword or punctuation token printed after a space.
    Sp(&'static str),
    /// A punctuation token printed with no space before it.
    Tight(&'static str),
    /// The next fixed (or time) operand.
    Operand(&'static str),
    /// The variadic operand group, comma-separated.
    Operands(&'static str),
    /// ` offset N`: the `offset` of a scheduled op (default 0 in the source).
    Offset,
    /// An integer attribute.
    Int(&'static str),
    /// An integer attribute that the source may also write as `%c<N>`.
    Amount(&'static str),
    /// A symbol attribute, `@name`.
    Symbol(&'static str),
    /// A typed constant, `N : type`; the type is the written result type.
    Literal(&'static str),
    /// The next entry-block argument of the first region.
    Arg(&'static str),
    /// The type of the last [`Piece::Arg`], written.
    ArgType,
    /// ` : type` of the single result (optional and unchecked in the source).
    ResultType,
    /// `(type, ...)` of the results (one bare type is accepted too).
    ResultTypes,
    /// The first region, ` {` ops `}`.
    Region,
    /// An optional further region, `} kw {` ops.
    OptRegion(&'static str),
}

/// The declaration of one HIR op.
#[derive(Clone, Copy, Debug)]
pub struct OpDecl {
    pub name: &'static str,
    pub traits: u32,
    pub summary: &'static str,
    /// The op's own checks, run once its counts and time operand match the
    /// declaration.
    pub check: Option<Check>,
    /// Fixed operand roles, in operand order.
    pub operands: &'static [&'static str],
    /// The variadic operand group after the fixed operands.
    pub variadic: Option<&'static str>,
    /// A trailing `!hir.time` operand plus an integer `offset` attribute.
    pub scheduled: bool,
    /// Fixed result roles and their types.
    pub results: &'static [(&'static str, Ty)],
    /// Variadic results: role, minimum count and type.
    pub variadic_results: Option<(&'static str, usize, Ty)>,
    /// Required attributes besides a scheduled op's `offset`.
    pub attrs: &'static [(&'static str, AttrKind)],
    pub regions: Arity,
    /// Entry-block arguments of the first region.
    pub body: &'static [(&'static str, Ty)],
    /// The pretty syntax; `None` prints and parses the generic form
    /// `(operands) : (types) -> (types)`.
    pub syntax: Option<&'static [Piece]>,
}

const BASE: OpDecl = OpDecl {
    name: "",
    traits: 0,
    summary: "",
    check: None,
    operands: &[],
    variadic: None,
    scheduled: false,
    results: &[],
    variadic_results: None,
    attrs: &[],
    regions: Arity::Exact(0),
    body: &[],
    syntax: None,
};

const RESULT: &[(&str, Ty)] = &[("result", Ty::Written)];
const OFFSET: (&str, AttrKind) = (attrkey::OFFSET, AttrKind::Int);

/// A combinational op in the generic syntax.
const fn compute(
    name: &'static str,
    operands: &'static [&'static str],
    check: Option<Check>,
) -> OpDecl {
    let summary = "combinational arithmetic/logic";
    OpDecl {
        name,
        traits: traits::PURE,
        summary,
        check,
        operands,
        results: RESULT,
        ..BASE
    }
}

const fn binary(name: &'static str, commutative: bool) -> OpDecl {
    let traits = traits::PURE | if commutative { traits::COMMUTATIVE } else { 0 };
    OpDecl {
        traits,
        ..compute(name, &["lhs", "rhs"], Some(dialect::verify_binary))
    }
}

const fn cast(name: &'static str) -> OpDecl {
    let summary = "combinational width cast";
    OpDecl {
        summary,
        ..compute(name, &["input"], Some(dialect::verify_cast))
    }
}

use Piece::*;

/// `hir.func`; its signature (port labels, result delays, `extern`) has
/// hand-written parse and print hooks.
#[rustfmt::skip]
pub const FUNC: OpDecl = OpDecl {
    name: opname::FUNC, traits: traits::SYMBOL | traits::TIME_SCOPE,
    summary: "hardware function; entry block args are (args..., %t: !hir.time)",
    check: Some(dialect::verify_func),
    attrs: &[(ir::SYM_NAME, AttrKind::Str)],
    regions: Arity::Any,
    ..BASE
};

#[rustfmt::skip]
pub const FOR: OpDecl = OpDecl {
    name: opname::FOR, traits: traits::TIME_SCOPE,
    summary: "sequential/pipelined loop with explicit iteration schedule",
    check: Some(dialect::verify_for),
    operands: &["lb", "ub", "step"], scheduled: true,
    results: &[("done", Ty::Time)],
    regions: Arity::Exact(1), body: &[("iv", Ty::Written), ("iter_time", Ty::Time)],
    // %tf = hir.for %i : i32 = %lb to %ub step %s iter_time(%ti = %t offset 1) {
    syntax: Some(&[
        Arg("iv"), Sp(":"), ArgType, Sp("="), Operand("lb"), Sp("to"), Operand("ub"),
        Sp("step"), Operand("step"), Sp("iter_time"), Tight("("), Arg("iter_time"), Sp("="),
        Operand("time"), Offset, Tight(")"), Region,
    ]),
    ..BASE
};

#[rustfmt::skip]
pub const UNROLL_FOR: OpDecl = OpDecl {
    name: opname::UNROLL_FOR, traits: traits::TIME_SCOPE,
    summary: "fully unrolled loop; body replicated in hardware",
    check: Some(dialect::verify_unroll_for),
    scheduled: true,
    results: &[("done", Ty::Time)],
    attrs: &[(attrkey::LB, AttrKind::Int), (attrkey::UB, AttrKind::Int), (attrkey::STEP, AttrKind::Int)],
    regions: Arity::Exact(1), body: &[("iv", Ty::Const), ("iter_time", Ty::Time)],
    // %tf = hir.unroll_for %j = 0 to 4 step 1 iter_time(%tj = %t offset 0) {
    syntax: Some(&[
        Arg("iv"), Sp("="), Int(attrkey::LB), Sp("to"), Int(attrkey::UB), Sp("step"),
        Int(attrkey::STEP), Sp("iter_time"), Tight("("), Arg("iter_time"), Sp("="),
        Operand("time"), Offset, Tight(")"), Region,
    ]),
    ..BASE
};

#[rustfmt::skip]
pub const YIELD: OpDecl = OpDecl {
    name: opname::YIELD,
    summary: "schedules the start of the next loop iteration",
    scheduled: true,
    // hir.yield at %t offset 1
    syntax: Some(&[Sp("at"), Operand("time"), Offset]),
    ..BASE
};

#[rustfmt::skip]
pub const RETURN: OpDecl = OpDecl {
    name: opname::RETURN, traits: traits::TERMINATOR,
    summary: "terminates a function body",
    variadic: Some("values"),
    // hir.return %a, %b
    syntax: Some(&[Operands("values")]),
    ..BASE
};

#[rustfmt::skip]
pub const CALL: OpDecl = OpDecl {
    name: opname::CALL, traits: traits::MEMORY_EFFECT,
    summary: "invoke an HIR function or external Verilog module",
    variadic: Some("args"), scheduled: true,
    variadic_results: Some(("results", 0, Ty::Callee)),
    attrs: &[(attrkey::CALLEE, AttrKind::Symbol)],
    // %r = hir.call @f(%a, %b) at %t offset 0
    syntax: Some(&[
        Symbol(attrkey::CALLEE), Tight("("), Operands("args"), Tight(")"),
        Sp("at"), Operand("time"), Offset,
    ]),
    ..BASE
};

#[rustfmt::skip]
pub const IF: OpDecl = OpDecl {
    name: opname::IF,
    summary: "conditional execution; branches share the schedule",
    check: Some(dialect::verify_if),
    operands: &["cond"], scheduled: true,
    regions: Arity::AtLeast(1),
    // hir.if %c at %t offset 0 { ... } else { ... }
    syntax: Some(&[Operand("cond"), Sp("at"), Operand("time"), Offset, Region, OptRegion("else")]),
    ..BASE
};

#[rustfmt::skip]
pub const CONSTANT: OpDecl = OpDecl {
    name: opname::CONSTANT, traits: traits::PURE | traits::CONSTANT_LIKE,
    summary: "compile-time constant",
    check: Some(dialect::verify_constant),
    results: RESULT,
    attrs: &[(attrkey::VALUE, AttrKind::Any)],
    // %c0 = hir.constant 0 : index
    syntax: Some(&[Literal(attrkey::VALUE)]),
    ..BASE
};

#[rustfmt::skip]
pub const DELAY: OpDecl = OpDecl {
    name: opname::DELAY,
    summary: "delay a value by a fixed number of cycles (shift register)",
    check: Some(dialect::verify_delay),
    operands: &["input"], scheduled: true,
    results: &[("result", Ty::OfFirstOperand)],
    attrs: &[(attrkey::BY, AttrKind::Int)],
    // %d = hir.delay %x by 2 at %t offset 0 : i32
    syntax: Some(&[
        Operand("input"), Sp("by"), Amount(attrkey::BY), Sp("at"), Operand("time"), Offset,
        ResultType,
    ]),
    ..BASE
};

#[rustfmt::skip]
pub const ALLOC: OpDecl = OpDecl {
    name: opname::ALLOC,
    summary: "allocate an on-chip tensor; each result is one port",
    check: Some(dialect::verify_alloc),
    variadic_results: Some(("ports", 1, Ty::Ports)),
    attrs: &[(attrkey::KIND, AttrKind::MemKind)],
    // %r, %w = hir.alloc() : (!hir.memref<...>, !hir.memref<...>)
    syntax: Some(&[Tight("("), Tight(")"), Sp(":"), ResultTypes]),
    ..BASE
};

#[rustfmt::skip]
pub const MEM_READ: OpDecl = OpDecl {
    name: opname::MEM_READ, traits: traits::MEMORY_EFFECT,
    summary: "scheduled read through a memref port",
    check: Some(dialect::verify_mem_read),
    operands: &["memref"], variadic: Some("indices"), scheduled: true,
    results: &[("result", Ty::MemElem)],
    // %v = hir.mem_read %A[%i, %j] at %t offset 0 : i32
    syntax: Some(&[
        Operand("memref"), Tight("["), Operands("indices"), Tight("]"), Sp("at"),
        Operand("time"), Offset, ResultType,
    ]),
    ..BASE
};

#[rustfmt::skip]
pub const MEM_WRITE: OpDecl = OpDecl {
    name: opname::MEM_WRITE, traits: traits::MEMORY_EFFECT,
    summary: "scheduled write through a memref port (1 cycle)",
    check: Some(dialect::verify_mem_write),
    operands: &["value", "memref"], variadic: Some("indices"), scheduled: true,
    // hir.mem_write %v to %A[%i] at %t offset 1
    syntax: Some(&[
        Operand("value"), Sp("to"), Operand("memref"), Tight("["), Operands("indices"),
        Tight("]"), Sp("at"), Operand("time"), Offset,
    ]),
    ..BASE
};

pub const ADD: OpDecl = binary(opname::ADD, true);
pub const SUB: OpDecl = binary(opname::SUB, false);
pub const MULT: OpDecl = binary(opname::MULT, true);
pub const AND: OpDecl = binary(opname::AND, true);
pub const OR: OpDecl = binary(opname::OR, true);
pub const XOR: OpDecl = binary(opname::XOR, true);
pub const SHL: OpDecl = binary(opname::SHL, false);
pub const SHR: OpDecl = binary(opname::SHR, false);
pub const NOT: OpDecl = OpDecl {
    summary: "combinational bitwise not",
    ..compute(opname::NOT, &["input"], None)
};
pub const CMP: OpDecl = OpDecl {
    summary: "combinational comparison producing i1",
    attrs: &[(attrkey::PREDICATE, AttrKind::Predicate)],
    ..compute(opname::CMP, &["lhs", "rhs"], Some(dialect::verify_cmp))
};
pub const SELECT: OpDecl = OpDecl {
    summary: "2:1 multiplexer",
    ..compute(
        opname::SELECT,
        &["cond", "then", "else"],
        Some(dialect::verify_select),
    )
};
pub const TRUNC: OpDecl = cast(opname::TRUNC);
pub const ZEXT: OpDecl = cast(opname::ZEXT);
pub const SEXT: OpDecl = cast(opname::SEXT);
pub const SLICE: OpDecl = OpDecl {
    summary: "combinational bit slice [hi:lo]",
    attrs: &[(attrkey::HI, AttrKind::Int), (attrkey::LO, AttrKind::Int)],
    ..compute(opname::SLICE, &["input"], Some(dialect::verify_slice))
};

/// `DECLS` and `lookup` over the declarations, each named like its
/// `opname` constant (so `lookup` compiles to a `match` on the names).
macro_rules! decls {
    ($($op:ident),* $(,)?) => {
        /// Every HIR op.
        pub static DECLS: &[&OpDecl] = &[$(&$op),*];

        /// The declaration of the op named `name`, if it is an HIR op.
        pub fn lookup(name: &str) -> Option<&'static OpDecl> {
            match name {
                $(opname::$op => Some(&$op),)*
                _ => None,
            }
        }
    };
}

decls![
    FUNC, FOR, UNROLL_FOR, YIELD, RETURN, CALL, IF, CONSTANT, DELAY, ALLOC, MEM_READ, MEM_WRITE,
    ADD, SUB, MULT, AND, OR, XOR, SHL, SHR, NOT, CMP, SELECT, TRUNC, ZEXT, SEXT, SLICE,
];

const fn str_eq(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

/// Arity of `fixed` slots plus an optional variadic group of at least `min`.
const fn arity(fixed: usize, variadic: Option<usize>) -> Arity {
    match variadic {
        None => Arity::Exact(fixed),
        Some(min) if fixed + min == 0 => Arity::Any,
        Some(min) => Arity::AtLeast(fixed + min),
    }
}

impl OpDecl {
    /// Operand position of the fixed role `role` (evaluate in a `const`).
    ///
    /// # Panics
    /// Panics if the op declares no such role.
    pub const fn slot(&self, role: &str) -> usize {
        let mut i = 0;
        while i < self.operands.len() {
            if str_eq(self.operands[i], role) {
                return i;
            }
            i += 1;
        }
        panic!("no such operand role")
    }

    pub fn operand_arity(&self) -> Arity {
        let fixed = self.operands.len() + self.scheduled as usize;
        arity(fixed, self.variadic.map(|_| 0))
    }

    pub fn result_arity(&self) -> Arity {
        arity(
            self.results.len(),
            self.variadic_results.map(|(_, min, _)| min),
        )
    }

    /// Whether the op has exactly one result.
    pub fn single_result(&self) -> bool {
        self.result_arity() == Arity::Exact(1)
    }

    /// Whether the op requires attribute `key`.
    pub fn requires(&self, key: &str) -> bool {
        self.required_attrs().any(|(k, _)| k == key)
    }

    /// Every required attribute, a scheduled op's `offset` last.
    pub fn required_attrs(&self) -> impl Iterator<Item = (&'static str, AttrKind)> {
        self.attrs
            .iter()
            .copied()
            .chain(self.scheduled.then_some(OFFSET))
    }

    /// Required attributes that `op` lacks or holds in the wrong kind.
    pub fn bad_attrs<'a>(
        &'a self,
        data: &'a OpData,
    ) -> impl Iterator<Item = (&'static str, AttrKind)> + 'a {
        self.required_attrs()
            .filter(|&(key, kind)| !data.attr(key).is_some_and(|a| kind.accepts(a)))
    }

    /// Whether `op` has the declared operand, result and region counts.
    pub fn counts_match(&self, data: &OpData) -> bool {
        self.operand_arity().check(data.operands().len())
            && self.result_arity().check(data.results().len())
            && self.regions.check(data.regions().len())
    }

    /// Whether `op` matches this declaration closely enough to be printed in
    /// its pretty syntax: counts, attributes, a block in every region, and
    /// the declared entry-block arguments.
    pub fn conforms(&self, m: &Module, op: OpId) -> bool {
        let data = m.op(op);
        let body_args_ok = self.body.is_empty()
            || data.regions().first().is_some_and(|&r| {
                m.region(r)
                    .blocks()
                    .first()
                    .is_some_and(|&b| m.block(b).args().len() >= self.body.len())
            });
        self.counts_match(data)
            && data
                .regions()
                .iter()
                .all(|&r| !m.region(r).blocks().is_empty())
            && body_args_ok
            && self.bad_attrs(data).next().is_none()
    }

    /// The `OpSpec` registered for this op.
    pub fn spec(&self) -> OpSpec {
        OpSpec::new(self.name)
            .with_traits(self.traits)
            .with_operands(self.operand_arity())
            .with_results(self.result_arity())
            .with_regions(self.regions)
            .with_verifier(dialect::verify_declared)
            .with_summary(self.summary)
    }
}

/// Operand `slot` of `op` (a fixed role's [`OpDecl::slot`]).
pub fn operand(m: &Module, op: OpId, slot: usize) -> ValueId {
    m.op(op).operands()[slot]
}

/// The variadic operand group of `op`, declared by `decl`.
pub fn group<'m>(m: &'m Module, op: OpId, decl: &OpDecl) -> &'m [ValueId] {
    let ops = m.op(op).operands();
    &ops[decl.operands.len()..ops.len() - decl.scheduled as usize]
}

/// The time operand of a scheduled op (its last operand).
pub fn time(m: &Module, op: OpId) -> ValueId {
    *m.op(op).operands().last().expect("scheduled op")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The syntax names the fixed operands, the variadic group and the time
    /// operand in operand order, and the body arguments in block order: the
    /// parser and printer consume them front to back.
    #[test]
    fn syntax_follows_the_declared_roles() {
        for d in DECLS {
            let Some(syntax) = d.syntax else { continue };
            let mut want: Vec<&str> = d.operands.to_vec();
            want.extend(d.variadic);
            if d.scheduled {
                want.push("time");
            }
            let got: Vec<&str> = syntax
                .iter()
                .filter_map(|p| match p {
                    Operand(r) | Operands(r) => Some(*r),
                    _ => None,
                })
                .collect();
            assert_eq!(got, want, "{}: operand pieces", d.name);
            let args: Vec<&str> = syntax
                .iter()
                .filter_map(|p| match p {
                    Arg(r) => Some(*r),
                    _ => None,
                })
                .collect();
            let body: Vec<&str> = d.body.iter().map(|(r, _)| *r).collect();
            assert_eq!(args, body, "{}: body argument pieces", d.name);
            let has_region = syntax.iter().any(|p| matches!(p, Region));
            assert_eq!(has_region, d.regions != Arity::Exact(0), "{}", d.name);
        }
    }

    #[test]
    fn names_are_unique_and_looked_up() {
        for d in DECLS {
            assert_eq!(lookup(d.name).unwrap().name, d.name);
        }
        let names: std::collections::HashSet<&str> = DECLS.iter().map(|d| d.name).collect();
        assert_eq!(names.len(), 27);
        assert!(lookup("hir.bogus").is_none());
        assert_eq!(FOR.slot("step"), 2);
        assert_eq!(MEM_WRITE.slot("memref"), 1);
    }
}
