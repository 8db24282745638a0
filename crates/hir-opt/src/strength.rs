//! Strength reduction (paper §6.2): multiplications by constants become
//! shifts and adds, which cost far fewer LUTs than a full multiplier (and
//! never consume a DSP block).

use hir::dialect::{attrkey, opname};
use hir::semantics::const_value;
use ir::{AttrMap, Attribute, Module, OpId, RewritePattern, RewriteStatus, Rewriter};

/// `x * 2^k` → `x << k`; `x * (2^k + 2^j)` → `(x << k) + (x << j)`.
/// Only fires for constants with at most two set bits — beyond that a real
/// multiplier is usually the better trade.
pub struct StrengthReduce;

impl RewritePattern for StrengthReduce {
    fn name(&self) -> &str {
        "hir-strength-reduce"
    }

    fn match_and_rewrite(&self, op: OpId, rw: &mut Rewriter<'_>) -> RewriteStatus {
        let m = rw.module();
        if m.op(op).name().as_str() != opname::MULT {
            return RewriteStatus::NoMatch;
        }
        let operands = m.op(op).operands().to_vec();
        let missed = |m: &Module, message: String| {
            if obs::remarks_enabled() {
                obs::emit_remark(obs::Remark::missed(
                    "hir-strength-reduce",
                    m.op(op).loc().to_string(),
                    message,
                ));
            }
        };
        // Normalize: (value, constant).
        let (value, constant) = match (const_value(m, operands[0]), const_value(m, operands[1])) {
            (None, Some(c)) => (operands[0], c),
            (Some(c), None) => (operands[1], c),
            // Two constants fold elsewhere.
            (Some(_), Some(_)) => return RewriteStatus::NoMatch,
            // Two values are a real multiply: nothing to reduce against.
            (None, None) => {
                missed(
                    m,
                    "multiply not strength-reduced: stride unknown (no constant operand)"
                        .to_string(),
                );
                return RewriteStatus::NoMatch;
            }
        };
        if constant <= 0 {
            missed(
                m,
                format!("multiply not strength-reduced: non-positive constant {constant}"),
            );
            return RewriteStatus::NoMatch;
        }
        let ones = constant.count_ones();
        if ones > 2 {
            missed(
                m,
                format!(
                    "multiply not strength-reduced: constant {constant} has {ones} set bits \
                     (a real multiplier is the better trade)"
                ),
            );
            return RewriteStatus::NoMatch;
        }
        // The value operand must be a real (sized) integer for shifting.
        if m.value_type(value).int_width().is_none() {
            missed(
                m,
                "multiply not strength-reduced: operand has no fixed integer width".to_string(),
            );
            return RewriteStatus::NoMatch;
        }
        let result = m.op(op).results()[0];
        let res_ty = m.value_type(result);
        // `x * 1` with a width change is AlgebraicSimplify/cast territory.
        if constant == 1 && m.value_type(value) != res_ty {
            return RewriteStatus::NoMatch;
        }
        let loc = m.op(op).loc().clone();
        if obs::remarks_enabled() {
            obs::emit_remark(
                obs::Remark::applied(
                    "hir-strength-reduce",
                    loc.to_string(),
                    format!(
                        "multiply by {constant} lowered to {ones} shift(s){}",
                        if ones > 1 { " and an add" } else { "" }
                    ),
                )
                .arg_int("constant", constant)
                .arg_int("shifts", i128::from(ones)),
            );
        }

        let mut shifts: Vec<u32> = Vec::new();
        for b in 0..127 {
            if constant & (1 << b) != 0 {
                shifts.push(b);
            }
        }
        let m = rw.module_mut();
        let mut shifted_values = Vec::new();
        for s in &shifts {
            if *s == 0 {
                shifted_values.push(value);
                continue;
            }
            let mut cattrs = AttrMap::new();
            cattrs.insert(attrkey::VALUE.into(), Attribute::index(*s as i128));
            let shamt = m.create_op(
                opname::CONSTANT,
                vec![],
                vec![hir::types::const_type()],
                cattrs,
                loc.clone(),
            );
            m.insert_op_before(op, shamt);
            let shamt_v = m.op(shamt).results()[0];
            let shl = m.create_op(
                opname::SHL,
                vec![value, shamt_v],
                vec![res_ty.clone()],
                AttrMap::new(),
                loc.clone(),
            );
            m.insert_op_before(op, shl);
            shifted_values.push(m.op(shl).results()[0]);
        }
        let new_val = if shifted_values.len() == 1 {
            let v = shifted_values[0];
            if m.value_type(v) == res_ty {
                v
            } else {
                // x * 1 with differing width: extend via sext.
                let cast = m.create_op(opname::SEXT, vec![v], vec![res_ty], AttrMap::new(), loc);
                m.insert_op_before(op, cast);
                m.op(cast).results()[0]
            }
        } else {
            let add = m.create_op(
                opname::ADD,
                vec![shifted_values[0], shifted_values[1]],
                vec![res_ty],
                AttrMap::new(),
                loc,
            );
            m.insert_op_before(op, add);
            m.op(add).results()[0]
        };
        rw.replace_op(op, &[new_val]);
        RewriteStatus::Changed
    }
}
