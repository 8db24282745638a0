//! Typed wrappers over raw [`ir::OpId`]s for each HIR operation.
//!
//! Wrappers are thin `Copy` handles validated at construction via
//! [`wrap`](FuncOp::wrap)-style constructors; accessors assume verified IR
//! and panic on malformed structure (the verifier reports those first).
//! Operand accessors take their positions from the op's declaration in
//! [`crate::decl`].

use crate::decl::{self, group, operand, OpDecl};
use crate::dialect::{attrkey, opname, CmpPredicate};
use crate::types::{self, MemrefInfo};
use ir::{Attribute, BlockId, Module, OpId, RegionId, Type, ValueId};

macro_rules! wrapper {
    ($(#[$doc:meta])* $name:ident, $decl:expr $(, $scheduled:ident)?) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        pub struct $name(pub OpId);

        impl $name {
            const DECL: &'static OpDecl = &$decl;

            /// Wrap `op` if it is the right kind of operation.
            pub fn wrap(m: &Module, op: OpId) -> Option<Self> {
                (m.op(op).name().as_str() == Self::DECL.name).then_some(Self(op))
            }

            /// The underlying op id.
            pub fn id(self) -> OpId {
                self.0
            }

            $(wrapper!(@$scheduled);)?
        }
    };
    (@scheduled) => {
        /// The time variable the op is scheduled against.
        pub fn time(self, m: &Module) -> ValueId {
            decl::time(m, self.0)
        }

        /// The static offset from [`Self::time`].
        pub fn offset(self, m: &Module) -> i64 {
            time_offset(m, self.0)
        }
    };
    (@result) => {
        pub fn result(self, m: &Module) -> ValueId {
            m.op(self.0).results()[0]
        }
    };
    (@body) => {
        pub fn body(self, m: &Module) -> BlockId {
            m.region(m.op(self.0).regions()[0]).blocks()[0]
        }
        /// The loop induction variable.
        pub fn induction_var(self, m: &Module) -> ValueId {
            m.block(self.body(m)).args()[0]
        }
        /// The per-iteration time variable `%ti`.
        pub fn iter_time(self, m: &Module) -> ValueId {
            m.block(self.body(m)).args()[1]
        }
        /// The loop completion time `%tf`.
        pub fn result_time(self, m: &Module) -> ValueId {
            m.op(self.0).results()[0]
        }
        /// The body's `hir.yield` (which may appear anywhere in the body —
        /// paper §4.2: textual order carries no meaning).
        pub fn yield_op(self, m: &Module) -> YieldOp {
            let ops = m.block(self.body(m)).ops();
            let y = ops.iter().copied().find(|&o| m.op(o).name().as_str() == opname::YIELD);
            YieldOp(y.expect("verified loop has a yield"))
        }
    };
}

/// The static cycle offset of a scheduled op (its `offset` attribute),
/// defaulting to 0 when absent.
pub fn time_offset(m: &Module, op: OpId) -> i64 {
    int_attr(m, op, attrkey::OFFSET).unwrap_or(0)
}

/// The time operand of a scheduled op (always the last operand), if the op
/// is scheduled at all.
pub fn time_operand(m: &Module, op: OpId) -> Option<ValueId> {
    let last = *m.op(op).operands().last()?;
    types::is_time(&m.value_type(last)).then_some(last)
}

fn int_attr(m: &Module, op: OpId, key: &str) -> Option<i64> {
    m.op(op)
        .attr(key)
        .and_then(|a| a.as_int())
        .map(|v| v as i64)
}

/// The elements of array attribute `key`, as `f` reads them.
fn array<T>(
    m: &Module,
    op: OpId,
    key: &str,
    f: impl Fn(&Attribute) -> Option<T>,
) -> Option<Vec<T>> {
    let a = m.op(op).attr(key).and_then(|a| a.as_array())?;
    Some(a.iter().filter_map(f).collect())
}

// ------------------------------------------------------------------ hir.func

wrapper!(
    /// `hir.func`: a hardware function. The entry block's arguments are the
    /// function's data/memref arguments followed by the start-time variable.
    FuncOp,
    decl::FUNC
);

impl FuncOp {
    /// The top-level function named `name`, if any.
    pub fn find(m: &Module, name: &str) -> Option<FuncOp> {
        let named = |&&f: &&OpId| m.op(f).attr(ir::SYM_NAME).and_then(|a| a.as_str()) == Some(name);
        m.top_ops().iter().find(named).map(|&f| FuncOp(f))
    }

    /// The function's symbol name.
    pub fn name(self, m: &Module) -> String {
        let name = m.op(self.0).attr(ir::SYM_NAME).and_then(|a| a.as_str());
        name.expect("verified func").to_string()
    }

    /// Whether this is an external (blackbox Verilog) declaration.
    pub fn is_external(self, m: &Module) -> bool {
        m.op(self.0).attr(attrkey::EXTERNAL).is_some()
    }

    /// The body region (panics for external functions).
    pub fn body_region(self, m: &Module) -> RegionId {
        m.op(self.0).regions()[0]
    }

    /// The single body block.
    pub fn body(self, m: &Module) -> BlockId {
        m.region(self.body_region(m)).blocks()[0]
    }

    /// The start-time variable `%t` (last entry-block argument).
    pub fn time_var(self, m: &Module) -> ValueId {
        *m.block(self.body(m)).args().last().expect("verified func")
    }

    /// Data/memref arguments (entry args minus the time variable).
    pub fn args(self, m: &Module) -> Vec<ValueId> {
        let args = m.block(self.body(m)).args();
        args[..args.len() - 1].to_vec()
    }

    /// Argument types (works for external functions too).
    pub fn arg_types(self, m: &Module) -> Vec<Type> {
        if self.is_external(m) {
            array(m, self.0, attrkey::ARG_TYPES, |a| a.as_type().cloned()).unwrap_or_default()
        } else {
            self.args(m).into_iter().map(|v| m.value_type(v)).collect()
        }
    }

    /// Result types.
    pub fn result_types(self, m: &Module) -> Vec<Type> {
        if self.is_external(m) {
            array(m, self.0, attrkey::RESULT_TYPES, |a| a.as_type().cloned()).unwrap_or_default()
        } else {
            let ret = self
                .return_op(m)
                .map(|r| m.op(r).operands())
                .unwrap_or_default();
            ret.iter().map(|&v| m.value_type(v)).collect()
        }
    }

    /// The terminating `hir.return` (non-external functions).
    pub fn return_op(self, m: &Module) -> Option<OpId> {
        m.block(self.body(m)).ops().last().copied()
    }

    /// Delay (cycles after `%t`) at which each result is valid.
    pub fn result_delays(self, m: &Module) -> Vec<i64> {
        array(m, self.0, attrkey::RESULT_DELAYS, |a| {
            a.as_int().map(|v| v as i64)
        })
        .unwrap_or_default()
    }

    /// Delay at which each argument must be provided (defaults to all-0).
    pub fn arg_delays(self, m: &Module) -> Vec<i64> {
        array(m, self.0, attrkey::ARG_DELAYS, |a| {
            a.as_int().map(|v| v as i64)
        })
        .unwrap_or_else(|| vec![0; self.arg_types(m).len()])
    }

    /// Optional human-readable argument names (used for Verilog ports).
    pub fn arg_names(self, m: &Module) -> Option<Vec<String>> {
        array(m, self.0, attrkey::ARG_NAMES, |a| {
            a.as_str().map(str::to_owned)
        })
    }
}

// ------------------------------------------------------------------- hir.for

wrapper!(
    /// `hir.for`: sequential or pipelined loop (paper §4.1).
    ForOp,
    decl::FOR,
    scheduled
);

impl ForOp {
    wrapper!(@body);
    pub fn lower_bound(self, m: &Module) -> ValueId {
        operand(m, self.0, const { decl::FOR.slot("lb") })
    }
    pub fn upper_bound(self, m: &Module) -> ValueId {
        operand(m, self.0, const { decl::FOR.slot("ub") })
    }
    pub fn step(self, m: &Module) -> ValueId {
        operand(m, self.0, const { decl::FOR.slot("step") })
    }
    /// Initiation interval when the yield is scheduled directly on the
    /// iteration time with a static offset; `None` for data-dependent II
    /// (e.g. yields on an inner loop's completion time).
    pub fn initiation_interval(self, m: &Module) -> Option<i64> {
        let y = self.yield_op(m);
        (y.time(m) == self.iter_time(m)).then(|| y.offset(m))
    }
}

wrapper!(
    /// `hir.unroll_for`: fully unrolled loop with static bounds (paper §7.3).
    UnrollForOp,
    decl::UNROLL_FOR,
    scheduled
);

impl UnrollForOp {
    wrapper!(@body);
    pub fn lb(self, m: &Module) -> i64 {
        int_attr(m, self.0, attrkey::LB).expect("verified")
    }
    pub fn ub(self, m: &Module) -> i64 {
        int_attr(m, self.0, attrkey::UB).expect("verified")
    }
    pub fn step(self, m: &Module) -> i64 {
        int_attr(m, self.0, attrkey::STEP).expect("verified")
    }
    /// The unrolled iteration values.
    pub fn iterations(self, m: &Module) -> Vec<i64> {
        let (lb, ub, step) = (self.lb(m), self.ub(m), self.step(m));
        (lb..ub).step_by(step as usize).collect()
    }
}

wrapper!(
    /// `hir.yield`: schedules the next loop iteration (paper §4.2).
    YieldOp,
    decl::YIELD,
    scheduled
);

wrapper!(
    /// `hir.return`: function terminator.
    ReturnOp,
    decl::RETURN
);

impl ReturnOp {
    pub fn values(self, m: &Module) -> Vec<ValueId> {
        group(m, self.0, Self::DECL).to_vec()
    }
}

wrapper!(
    /// `hir.call`: invoke another HIR function or external module (paper §5.4).
    CallOp,
    decl::CALL,
    scheduled
);

impl CallOp {
    pub fn callee(self, m: &Module) -> String {
        let callee = m
            .op(self.0)
            .attr(attrkey::CALLEE)
            .and_then(|a| a.as_symbol());
        callee.expect("verified").to_string()
    }
    pub fn args(self, m: &Module) -> Vec<ValueId> {
        group(m, self.0, Self::DECL).to_vec()
    }
}

wrapper!(
    /// `hir.if`: conditional region execution.
    IfOp,
    decl::IF,
    scheduled
);

impl IfOp {
    pub fn condition(self, m: &Module) -> ValueId {
        operand(m, self.0, const { decl::IF.slot("cond") })
    }
    pub fn then_block(self, m: &Module) -> BlockId {
        m.region(m.op(self.0).regions()[0]).blocks()[0]
    }
    pub fn else_block(self, m: &Module) -> Option<BlockId> {
        let r = m.op(self.0).regions().get(1)?;
        Some(m.region(*r).blocks()[0])
    }
}

// ------------------------------------------------------------- value-producing

wrapper!(
    /// `hir.constant`: compile-time constant.
    ConstantOp,
    decl::CONSTANT
);

impl ConstantOp {
    wrapper!(@result);
    pub fn value_attr(self, m: &Module) -> Attribute {
        m.op(self.0).attr(attrkey::VALUE).expect("verified").clone()
    }
    /// Integer payload (panics for float constants).
    pub fn int_value(self, m: &Module) -> i64 {
        self.value_attr(m).as_int().expect("integer constant") as i64
    }
}

wrapper!(
    /// `hir.delay`: shift-register delay (paper Table 3).
    DelayOp,
    decl::DELAY,
    scheduled
);

impl DelayOp {
    wrapper!(@result);
    pub fn input(self, m: &Module) -> ValueId {
        operand(m, self.0, const { decl::DELAY.slot("input") })
    }
    pub fn by(self, m: &Module) -> i64 {
        int_attr(m, self.0, attrkey::BY).expect("verified")
    }
}

wrapper!(
    /// `hir.alloc`: allocate an on-chip tensor; each result is one port.
    AllocOp,
    decl::ALLOC
);

impl AllocOp {
    pub fn ports(self, m: &Module) -> Vec<ValueId> {
        m.op(self.0).results().to_vec()
    }
    pub fn info(self, m: &Module) -> MemrefInfo {
        MemrefInfo::from_type(&m.value_type(m.op(self.0).results()[0])).expect("verified alloc")
    }
}

wrapper!(
    /// `hir.mem_read`: scheduled read through a memref port.
    MemReadOp,
    decl::MEM_READ,
    scheduled
);

impl MemReadOp {
    wrapper!(@result);
    pub fn memref(self, m: &Module) -> ValueId {
        operand(m, self.0, const { decl::MEM_READ.slot("memref") })
    }
    pub fn indices(self, m: &Module) -> Vec<ValueId> {
        group(m, self.0, Self::DECL).to_vec()
    }
    pub fn info(self, m: &Module) -> MemrefInfo {
        MemrefInfo::from_type(&m.value_type(self.memref(m))).expect("verified mem_read")
    }
    /// Read latency of the backing storage (0 for registers, 1 for RAM).
    pub fn latency(self, m: &Module) -> i64 {
        self.info(m).read_latency() as i64
    }
}

wrapper!(
    /// `hir.mem_write`: scheduled write through a memref port (takes 1 cycle).
    MemWriteOp,
    decl::MEM_WRITE,
    scheduled
);

impl MemWriteOp {
    pub fn value(self, m: &Module) -> ValueId {
        operand(m, self.0, const { decl::MEM_WRITE.slot("value") })
    }
    pub fn memref(self, m: &Module) -> ValueId {
        operand(m, self.0, const { decl::MEM_WRITE.slot("memref") })
    }
    pub fn indices(self, m: &Module) -> Vec<ValueId> {
        group(m, self.0, Self::DECL).to_vec()
    }
    pub fn info(self, m: &Module) -> MemrefInfo {
        MemrefInfo::from_type(&m.value_type(self.memref(m))).expect("verified mem_write")
    }
}

// ------------------------------------------------------------------- compute

/// Kind of a combinational compute op.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ComputeKind {
    Add,
    Sub,
    Mult,
    And,
    Or,
    Xor,
    Not,
    Shl,
    Shr,
    Cmp(CmpPredicate),
    Select,
    Trunc,
    Zext,
    Sext,
    Slice,
}

/// Classify an op as a combinational compute op, if it is one.
pub fn compute_kind(m: &Module, op: OpId) -> Option<ComputeKind> {
    Some(match m.op(op).name().as_str() {
        opname::ADD => ComputeKind::Add,
        opname::SUB => ComputeKind::Sub,
        opname::MULT => ComputeKind::Mult,
        opname::AND => ComputeKind::And,
        opname::OR => ComputeKind::Or,
        opname::XOR => ComputeKind::Xor,
        opname::NOT => ComputeKind::Not,
        opname::SHL => ComputeKind::Shl,
        opname::SHR => ComputeKind::Shr,
        opname::CMP => ComputeKind::Cmp(
            m.op(op)
                .attr(attrkey::PREDICATE)
                .and_then(|a| a.as_str())
                .and_then(CmpPredicate::from_mnemonic)?,
        ),
        opname::SELECT => ComputeKind::Select,
        opname::TRUNC => ComputeKind::Trunc,
        opname::ZEXT => ComputeKind::Zext,
        opname::SEXT => ComputeKind::Sext,
        opname::SLICE => ComputeKind::Slice,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HirBuilder;
    use crate::types::{MemKind, Port};

    #[test]
    fn for_op_accessors_roundtrip() {
        let mut hb = HirBuilder::new();
        let f = hb.func("f", &[], &[]);
        let c0 = hb.const_val(0);
        let c16 = hb.const_val(16);
        let c1 = hb.const_val(1);
        let t = f.time_var(hb.module());
        let lp = hb.for_loop(c0, c16, c1, t, 1, Type::int(8));
        hb.in_loop(lp, |hb, _iv, ti| {
            hb.yield_at(ti, 1);
        });
        hb.return_(&[]);
        let m = hb.finish();

        let lp = ForOp::wrap(&m, lp.id()).unwrap();
        assert_eq!(lp.offset(&m), 1);
        assert_eq!(lp.initiation_interval(&m), Some(1));
        assert!(types::is_time(&m.value_type(lp.iter_time(&m))));
        assert!(types::is_time(&m.value_type(lp.result_time(&m))));
        assert_eq!(m.value_type(lp.induction_var(&m)), Type::int(8));
        let f = FuncOp::wrap(&m, m.top_ops()[0]).unwrap();
        assert_eq!(f.name(&m), "f");
        assert!(!f.is_external(&m));
    }

    #[test]
    fn mem_ops_accessors() {
        let mut hb = HirBuilder::new();
        let mem_r = MemrefInfo::packed(&[8], Type::int(32), Port::Read, MemKind::BlockRam);
        let mem_w = mem_r.with_port(Port::Write);
        let f = hb.func("g", &[("a", mem_r.to_type()), ("b", mem_w.to_type())], &[]);
        let t = f.time_var(hb.module());
        let args = f.args(hb.module());
        let idx = hb.const_val(3);
        let v = hb.mem_read(args[0], &[idx], t, 0);
        hb.mem_write(v, args[1], &[idx], t, 1);
        hb.return_(&[]);
        let m = hb.finish();

        let body = FuncOp::wrap(&m, m.top_ops()[0]).unwrap().body(&m);
        let ops = m.block(body).ops();
        let rd = MemReadOp::wrap(&m, ops[1]).expect("read at position 1");
        assert_eq!(rd.indices(&m).len(), 1);
        assert_eq!(rd.latency(&m), 1);
        assert_eq!(rd.offset(&m), 0);
        let wr = MemWriteOp::wrap(&m, ops[2]).expect("write at position 2");
        assert_eq!(wr.offset(&m), 1);
        assert_eq!(wr.info(&m).port, Port::Write);
        assert_eq!(wr.value(&m), rd.result(&m));
    }

    #[test]
    fn compute_kind_classification() {
        let mut hb = HirBuilder::new();
        let f = hb.func("h", &[("x", Type::int(32))], &[]);
        let x = f.args(hb.module())[0];
        let s = hb.add(x, x);
        let c = hb.cmp(CmpPredicate::Lt, x, s);
        hb.return_(&[]);
        let m = hb.finish();
        let s_op = m.defining_op(s).unwrap();
        let c_op = m.defining_op(c).unwrap();
        assert_eq!(compute_kind(&m, s_op), Some(ComputeKind::Add));
        assert_eq!(
            compute_kind(&m, c_op),
            Some(ComputeKind::Cmp(CmpPredicate::Lt))
        );
        assert_eq!(compute_kind(&m, m.top_ops()[0]), None);
    }
}
