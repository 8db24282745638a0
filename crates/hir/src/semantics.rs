//! The integer meaning of HIR's combinational compute ops: one evaluator
//! for the interpreter, `hir-opt`'s constant folder and the code
//! generator's folder, computing what the generated RTL computes.
//!
//! Value model (DESIGN.md §6): a value of type `iN` is its N-bit
//! two's-complement pattern sign-wrapped into `i128` ([`wrap`]), so
//! `200 : i8` is -56 and an `i1` "true" is -1; `!hir.const` and `index`
//! values are unbounded. Two-operand ops compute at the widest of the
//! result and the typed operands, where a `!hir.const` operand is wrapped;
//! a shift amount is unsigned there, so a negative or too-large one shifts
//! everything out. `cmp` is signed at its widest typed operand. `zext`
//! reads its input as unsigned bits ([`unsigned`]).

use crate::dialect::attrkey;
use crate::ops::{ComputeKind, ConstantOp};
use ir::{Module, OpId, Type, ValueId};

/// `v`'s low `width` bits read as a two's-complement number.
pub fn wrap(v: i128, width: u32) -> i128 {
    match width {
        0 => 0,
        128.. => v,
        w => (v << (128 - w)) >> (128 - w),
    }
}

/// `v` wrapped at the width of `ty`; values of a type without a width
/// (`!hir.const`, `index`) are returned as they are.
pub fn wrap_to(v: i128, ty: &Type) -> i128 {
    ty.int_width().map_or(v, |w| wrap(v, w))
}

/// The integer `v` holds when a `hir.constant` defines it: the written
/// attribute wrapped at `v`'s type. `None` for any other value and for a
/// float constant.
pub fn const_value(m: &Module, v: ValueId) -> Option<i128> {
    let c = ConstantOp::wrap(m, m.defining_op(v)?)?;
    Some(wrap_to(c.value_attr(m).as_int()?, &m.value_type(v)))
}

/// `v`'s bits at the width of `ty` read as unsigned, as a memory index or
/// a `zext` input is; values of a type without a width are returned as
/// they are.
pub fn unsigned(v: i128, ty: &Type) -> i128 {
    match ty.int_width() {
        Some(w) if w < 128 => v & ((1i128 << w) - 1),
        _ => v,
    }
}

/// The value of the integer compute op `op`, of kind `kind`, on operand
/// values `vals` (one per operand, in order).
///
/// Returns `None` only when unbounded (`!hir.const`) arithmetic overflows
/// `i128` or shifts by a negative amount, or when a `hir.slice` lacks its
/// `lo` attribute (which the verifier rejects).
pub fn eval(m: &Module, op: OpId, kind: ComputeKind, vals: &[i128]) -> Option<i128> {
    use ComputeKind as K;
    let data = m.op(op);
    let tys: Vec<Type> = data.operands().iter().map(|&v| m.value_type(v)).collect();
    let x: Vec<i128> = vals.iter().zip(&tys).map(|(&v, t)| wrap_to(v, t)).collect();
    let typed = tys.iter().filter_map(Type::int_width).max();
    let res_ty = m.value_type(data.results()[0]);
    let fit = |v| wrap_to(v, &res_ty);
    Some(match kind {
        K::Add | K::Sub | K::Mult | K::And | K::Or | K::Xor | K::Shl | K::Shr => {
            let Some(r) = res_ty.int_width() else {
                return unbounded(kind, x[0], x[1]);
            };
            let w = typed.unwrap_or(0).max(r);
            let (a, b) = (wrap(x[0], w), wrap(x[1], w));
            fit(match kind {
                K::Add => a.wrapping_add(b),
                K::Sub => a.wrapping_sub(b),
                K::Mult => a.wrapping_mul(b),
                K::And => a & b,
                K::Or => a | b,
                K::Xor => a ^ b,
                // A negative amount is a huge unsigned one.
                K::Shl if (0..i128::from(r)).contains(&b) => a << b,
                K::Shl => 0,
                _ => a >> (b as u128).min(127),
            })
        }
        K::Cmp(pred) => {
            // Two `!hir.const` operands compare as they are.
            let w = typed.unwrap_or(128);
            fit(i128::from(pred.eval(wrap(x[0], w), wrap(x[1], w))))
        }
        K::Not => fit(!x[0]),
        K::Select => fit(if x[0] != 0 { x[1] } else { x[2] }),
        K::Trunc | K::Sext => fit(x[0]),
        K::Zext => fit(unsigned(x[0], &tys[0])),
        K::Slice => {
            let lo = data.attr(attrkey::LO)?.as_int()?;
            fit(x[0] >> lo.clamp(0, 127))
        }
    })
}

/// Two-operand `!hir.const` arithmetic: exact, or `None`.
fn unbounded(kind: ComputeKind, a: i128, b: i128) -> Option<i128> {
    use ComputeKind as K;
    match kind {
        K::Add => a.checked_add(b),
        K::Sub => a.checked_sub(b),
        K::Mult => a.checked_mul(b),
        K::And => Some(a & b),
        K::Or => Some(a | b),
        K::Xor => Some(a ^ b),
        K::Shl => a.checked_mul(1 << u32::try_from(b).ok().filter(|&b| b < 127)?),
        K::Shr => Some(a >> u32::try_from(b).ok()?.min(127)),
        _ => unreachable!("{kind:?} is not a two-operand op"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_widths() {
        assert_eq!(wrap(255, 8), -1);
        assert_eq!(wrap(127, 8), 127);
        assert_eq!(wrap(128, 8), -128);
        assert_eq!(wrap(256, 8), 0);
        assert_eq!(wrap(5, 32), 5);
        assert_eq!(wrap(1, 1), -1);
        assert_eq!(wrap(-1, 128), -1);
    }
}
