//! Delay elimination (paper §6.4): shift-register sharing.
//!
//! Exact duplicates are removed by CSE. This pass handles the second case:
//! delays of the *same* input at the same time root with different lengths.
//! `delay(v, 5)` and `delay(v, 2)` need 5 + 2 = 7 registers when emitted
//! independently; chaining the longer one off the shorter
//! (`delay(delay(v, 2), 3)`) brings that down to 5.

use hir::dialect::{attrkey, opname};
use hir::ops::DelayOp;
use ir::{Attribute, Module, OpId, Pass, PassContext, PassResult};
use std::collections::HashMap;

/// The shift-register sharing pass.
#[derive(Debug, Default)]
pub struct DelaySharePass {
    /// Registers saved in the last run (sum of shortened amounts).
    pub registers_saved: i64,
}

impl DelaySharePass {
    pub fn new() -> Self {
        Self::default()
    }
}

impl Pass for DelaySharePass {
    fn name(&self) -> &str {
        "hir-delay-share"
    }

    fn run(&mut self, module: &mut Module, _cx: &mut PassContext<'_>) -> PassResult {
        self.registers_saved = 0;
        // Group delays by (block, input, time, offset), each with its index
        // in the pre-order walk: ops of one group share a block, so walk
        // order is block order.
        let mut groups: HashMap<_, Vec<(usize, OpId)>> = HashMap::new();
        for (pos, op) in module.collect_all_ops().into_iter().enumerate() {
            if !module.is_live(op) {
                continue;
            }
            let Some(d) = DelayOp::wrap(module, op) else {
                continue;
            };
            let Some(block) = module.op(op).parent() else {
                continue;
            };
            groups
                .entry((block, d.input(module), d.time(module), d.offset(module)))
                .or_default()
                .push((pos, op));
        }
        for (_, ops) in groups {
            if ops.len() < 2 {
                continue;
            }
            // Read each delay's length once, before chaining rewrites it: a
            // chained delay's result is still valid at its original length.
            let mut ops: Vec<_> = ops
                .into_iter()
                .map(|(pos, o)| (pos, DelayOp(o), DelayOp(o).by(module)))
                .collect();
            // Chain in increasing-delay order; only chain pairs whose
            // textual order already satisfies dominance.
            ops.sort_by_key(|&(_, _, by)| by);
            for w in ops.windows(2) {
                let ((prev_pos, prev, by_prev), (cur_pos, cur, by_cur)) = (w[0], w[1]);
                if by_prev == by_cur || by_prev == 0 {
                    continue; // equal delays are CSE's job
                }
                if prev_pos >= cur_pos {
                    continue;
                }
                // cur := delay(prev.result, by_cur - by_prev)
                //        at the same root, offset shifted by by_prev.
                module.set_operand(cur.id(), 0, prev.result(module));
                module.set_attr(
                    cur.id(),
                    attrkey::BY,
                    Attribute::index((by_cur - by_prev) as i128),
                );
                let new_offset = cur.offset(module) + by_prev;
                module.set_attr(
                    cur.id(),
                    attrkey::OFFSET,
                    Attribute::index(new_offset as i128),
                );
                self.registers_saved += by_prev;
            }
        }
        // Erase zero-length delays (by == 0 after rewrites elsewhere).
        for op in module.collect_all_ops() {
            if !module.is_live(op) || module.op(op).name().as_str() != opname::DELAY {
                continue;
            }
            let d = DelayOp(op);
            if d.by(module) == 0 {
                let input = d.input(module);
                let result = d.result(module);
                if module.value_type(input) == module.value_type(result) {
                    module.replace_all_uses(result, input);
                    module.erase_op(op);
                }
            }
        }
        obs::counter_add("opt", "delay_registers_saved", self.registers_saved as u64);
        if self.registers_saved > 0 {
            PassResult::Changed
        } else {
            PassResult::Unchanged
        }
    }
}
