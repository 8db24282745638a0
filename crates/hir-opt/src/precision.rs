//! Precision optimization (paper §6.3, Table 4).
//!
//! Hardware benefits from arbitrarily narrow arithmetic. Constant loop
//! bounds determine the minimum width of the induction variable: a loop
//! `for %i = 0 to 16` needs a 6-bit signed counter, not the `i32` a software
//! frontend would emit. Narrowing the induction variable shrinks the
//! counter, the guard comparator, every address computation fed by it and —
//! most visibly in the paper's Table 4 — the shift registers produced by
//! `hir.delay`, which is where the flip-flop savings come from.

use hir::dialect::opname;
use hir::ops::{DelayOp, ForOp};
use hir::semantics::const_value;
use ir::{Module, Pass, PassContext, PassResult, Type, ValueId};

/// Signed bit width needed to represent every value in `[lo, hi]`.
pub fn signed_width_for(lo: i128, hi: i128) -> u32 {
    let mut w = 1;
    loop {
        let min = -(1i128 << (w - 1));
        let max = (1i128 << (w - 1)) - 1;
        if lo >= min && hi <= max {
            return w;
        }
        w += 1;
    }
}

/// The precision-narrowing pass.
#[derive(Debug, Default)]
pub struct PrecisionPass {
    /// Number of values narrowed in the last run.
    pub narrowed: usize,
}

impl PrecisionPass {
    pub fn new() -> Self {
        Self::default()
    }
}

impl Pass for PrecisionPass {
    fn name(&self) -> &str {
        "hir-precision-opt"
    }

    fn run(&mut self, module: &mut Module, _cx: &mut PassContext<'_>) -> PassResult {
        self.narrowed = 0;
        let ops = module.collect_all_ops();
        for op in ops {
            if !module.is_live(op) || module.op(op).name().as_str() != opname::FOR {
                continue;
            }
            let lp = ForOp(op);
            let (Some(lb), Some(ub), Some(step)) = (
                const_value(module, lp.lower_bound(module)),
                const_value(module, lp.upper_bound(module)),
                const_value(module, lp.step(module)),
            ) else {
                continue;
            };
            if step <= 0 {
                continue;
            }
            // The candidate register can reach ub + step - 1 before the
            // guard rejects it; the comparison must not wrap.
            let hi = ub + step - 1;
            let lo = lb.min(0);
            let width = signed_width_for(lo, hi.max(ub));
            let iv = lp.induction_var(module);
            let Some(cur) = module.value_type(iv).int_width() else {
                continue;
            };
            if width >= cur {
                continue;
            }
            module.set_value_type(iv, Type::int(width));
            self.narrowed += 1;
            propagate_narrowing(module, iv, width, &mut self.narrowed);
        }
        obs::counter_add("opt", "values_narrowed", self.narrowed as u64);
        if self.narrowed > 0 {
            PassResult::Changed
        } else {
            PassResult::Unchanged
        }
    }
}

/// Narrow delay chains fed by a narrowed value: a `hir.delay` result has the
/// same type as its input, and its shift register shrinks accordingly.
fn propagate_narrowing(module: &mut Module, value: ValueId, width: u32, narrowed: &mut usize) {
    let users: Vec<ir::OpId> = module.value(value).uses().iter().map(|u| u.op).collect();
    for user in users {
        if let Some(d) = DelayOp::wrap(module, user) {
            if d.input(module) == value {
                let result = d.result(module);
                if module
                    .value_type(result)
                    .int_width()
                    .is_some_and(|w| w > width)
                {
                    module.set_value_type(result, Type::int(width));
                    *narrowed += 1;
                    propagate_narrowing(module, result, width, narrowed);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths() {
        assert_eq!(signed_width_for(0, 0), 1);
        assert_eq!(signed_width_for(0, 1), 2);
        assert_eq!(signed_width_for(0, 15), 5); // 15 needs 5 signed bits
        assert_eq!(signed_width_for(0, 16), 6);
        assert_eq!(signed_width_for(-8, 7), 4);
        assert_eq!(signed_width_for(-9, 0), 5);
        assert_eq!(signed_width_for(0, 127), 8);
        assert_eq!(signed_width_for(0, 128), 9);
    }
}
