//! Symbolic evaluation of a [`TransitionSystem`] for bounded unrolling.
//!
//! One [`eval_frame`] call computes every node of the system for one cycle
//! as bit vectors over the blaster, given the cycle's state and input
//! vectors and the side's previous frame. Only the cones whose leaves
//! changed are re-blasted: gate constructors are structurally hashed, so
//! re-evaluating a node on the same literals would return the same
//! literals and allocate nothing, and every other node moves its previous
//! vector over. The caller owns the cross-cycle plumbing (state advance,
//! environment models, observables) — see [`crate::equiv`].

use crate::blast::{Blaster, BV};
use verilog::tsys::{Node, NodeId, TOp, TransitionSystem};

/// All node values for one cycle, indexed by [`NodeId`], with the state
/// and input vectors they were computed from.
pub struct Frame {
    pub values: Vec<BV>,
    state: Vec<BV>,
    inputs: Vec<BV>,
}

impl Frame {
    pub fn get(&self, id: NodeId) -> &BV {
        &self.values[id as usize]
    }
}

/// Whether anything in `ts` reads each input: a node, a next-state
/// function, an assertion or an output port. The miter observes only
/// output ports, so an input none of these reads cannot affect a verdict.
pub fn inputs_read(ts: &TransitionSystem) -> Vec<bool> {
    let mut used = vec![false; ts.nodes.len()];
    let mut mark = |id: NodeId| used[id as usize] = true;
    for n in &ts.nodes {
        match *n {
            Node::Const { .. } | Node::Input { .. } | Node::State { .. } => {}
            Node::Not { a, .. }
            | Node::RedOr { a }
            | Node::Slice { a, .. }
            | Node::Ext { a, .. } => {
                mark(a);
            }
            Node::Binary { a, b, .. } | Node::Concat { hi: a, lo: b, .. } => {
                mark(a);
                mark(b);
            }
            Node::Ite { cond, t, e, .. } => {
                mark(cond);
                mark(t);
                mark(e);
            }
        }
    }
    for s in &ts.states {
        mark(s.next);
    }
    for &(_, id) in ts.bads.iter().chain(&ts.outputs) {
        mark(id);
    }
    ts.inputs.iter().map(|iv| used[iv.node as usize]).collect()
}

/// Evaluate every node of `ts` for one cycle. `state[i]` must be a vector
/// of the i-th state variable's width; `inputs[i]` likewise for inputs.
///
/// `prev` is the same system's previous frame. A node is recomputed only if
/// it changed: a leaf whose state or input vector differs literal for
/// literal from `prev`'s, or an interior node with a recomputed operand.
/// The others take `prev`'s vector as is. Without `prev` every node counts
/// as changed.
pub fn eval_frame(
    bl: &mut Blaster,
    ts: &TransitionSystem,
    prev: Option<Frame>,
    state: Vec<BV>,
    inputs: Vec<BV>,
) -> Frame {
    let fresh = prev.is_none();
    let (mut old, old_state, old_inputs) = match prev {
        Some(f) => (f.values, f.state, f.inputs),
        None => Default::default(),
    };
    debug_assert!(
        fresh || old.len() == ts.nodes.len(),
        "frame of another system"
    );
    let mut changed: Vec<bool> = Vec::with_capacity(ts.nodes.len());
    let mut values: Vec<BV> = Vec::with_capacity(ts.nodes.len());
    for (i, n) in ts.nodes.iter().enumerate() {
        let dirty = fresh
            || match n {
                Node::Const { .. } => false,
                Node::Input { index, .. } => inputs[*index as usize] != old_inputs[*index as usize],
                Node::State { index, .. } => state[*index as usize] != old_state[*index as usize],
                Node::Not { a, .. }
                | Node::RedOr { a }
                | Node::Slice { a, .. }
                | Node::Ext { a, .. } => changed[*a as usize],
                Node::Binary { a, b, .. } => changed[*a as usize] || changed[*b as usize],
                Node::Ite { cond, t, e, .. } => {
                    changed[*cond as usize] || changed[*t as usize] || changed[*e as usize]
                }
                Node::Concat { hi, lo, .. } => changed[*hi as usize] || changed[*lo as usize],
            };
        changed.push(dirty);
        if !dirty {
            values.push(std::mem::take(&mut old[i]));
            continue;
        }
        let v: BV = match n {
            Node::Const { value, width } => bl.bv_const(*value, *width),
            Node::Input { index, width } => {
                debug_assert_eq!(inputs[*index as usize].len(), *width as usize);
                inputs[*index as usize].clone()
            }
            Node::State { index, width } => {
                debug_assert_eq!(state[*index as usize].len(), *width as usize);
                state[*index as usize].clone()
            }
            Node::Not { a, .. } => bl.bv_not(&values[*a as usize]),
            Node::RedOr { a } => {
                let mut acc = bl.fals();
                for &l in &values[*a as usize] {
                    acc = bl.or(acc, l);
                }
                vec![acc]
            }
            Node::Binary { op, a, b, .. } => {
                let (a, b) = (&values[*a as usize], &values[*b as usize]);
                match op {
                    TOp::Add => bl.bv_add(a, b),
                    TOp::Sub => bl.bv_sub(a, b),
                    TOp::Mul => bl.bv_mul(a, b),
                    TOp::And => bl.bv_and(a, b),
                    TOp::Or => bl.bv_or(a, b),
                    TOp::Xor => bl.bv_xor(a, b),
                    TOp::Sll => bl.bv_sll(a, b),
                    TOp::Srl => bl.bv_srl(a, b),
                    TOp::Sra => bl.bv_sra(a, b),
                    TOp::Eq => vec![bl.bv_eq(a, b)],
                    TOp::Ne => vec![bl.bv_eq(a, b).flip()],
                    TOp::Ult => vec![bl.bv_ult(a, b)],
                    TOp::Ule => vec![bl.bv_ule(a, b)],
                    TOp::Slt => vec![bl.bv_slt(a, b)],
                    TOp::Sle => vec![bl.bv_sle(a, b)],
                }
            }
            Node::Ite { cond, t, e, .. } => {
                let c = values[*cond as usize][0];
                bl.bv_ite(c, &values[*t as usize], &values[*e as usize])
            }
            Node::Slice { a, hi, lo } => values[*a as usize][*lo as usize..=*hi as usize].to_vec(),
            Node::Ext { a, width, signed } => {
                if *signed {
                    bl.bv_sext(&values[*a as usize], *width)
                } else {
                    bl.bv_fit(&values[*a as usize], *width)
                }
            }
            Node::Concat { hi, lo, .. } => {
                let mut v = values[*lo as usize].clone();
                v.extend_from_slice(&values[*hi as usize]);
                v
            }
        };
        values.push(v);
        debug_assert_eq!(
            values[i].len(),
            ts.width(i as NodeId) as usize,
            "node {i} width mismatch"
        );
    }
    Frame {
        values,
        state,
        inputs,
    }
}

/// The next-state vectors implied by a frame.
pub fn next_state(ts: &TransitionSystem, frame: &Frame) -> Vec<BV> {
    ts.states
        .iter()
        .map(|s| frame.get(s.next).clone())
        .collect()
}

/// Constant initial state vectors.
pub fn initial_state(bl: &Blaster, ts: &TransitionSystem) -> Vec<BV> {
    ts.states
        .iter()
        .map(|s| bl.bv_const(s.init, s.width))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::{Budget, SatResult};
    use verilog::ast::{BinOp, Design, Dir, Expr, LValue, Stmt, VModule};

    /// Unrolled frames must agree with the transition system's own
    /// concrete evaluator on a counter design, cycle by cycle.
    #[test]
    fn unrolling_matches_concrete_eval() {
        let mut m = VModule::new("ctr");
        m.port("clk", Dir::Input, 1);
        m.port("step_by", Dir::Input, 4);
        m.port("total", Dir::Output, 12);
        m.reg("acc", 12);
        m.assign("total", Expr::r("acc"));
        m.main_always().stmts.push(Stmt::NonBlocking {
            lhs: LValue::Net("acc".into()),
            rhs: Expr::bin(BinOp::Add, Expr::r("acc"), Expr::r("step_by")),
        });
        let mut d = Design::new();
        d.add(m);
        let ts = verilog::tsys::lower(&d, "ctr").expect("lower");

        let mut bl = Blaster::new();
        let mut state = initial_state(&bl, &ts);
        let mut prev = None;
        let mut conc_state = ts.initial_state();
        for cycle in 0..8u64 {
            let stim = (cycle * 3 + 1) % 16;
            let inputs: Vec<BV> = ts
                .inputs
                .iter()
                .map(|iv| {
                    if iv.name == "step_by" {
                        bl.bv_const(stim, iv.width)
                    } else {
                        bl.bv_const(iv.init, iv.width)
                    }
                })
                .collect();
            let conc_inputs: Vec<u64> = ts
                .inputs
                .iter()
                .map(|iv| if iv.name == "step_by" { stim } else { iv.init })
                .collect();
            let frame = eval_frame(&mut bl, &ts, prev.take(), state, inputs);
            let conc = ts.eval_nodes(&conc_state, &conc_inputs);
            // With constant inputs everything folds to constants — compare
            // every node against the concrete evaluator.
            for (i, v) in frame.values.iter().enumerate() {
                assert_eq!(
                    bl.bv_value(v),
                    Some(conc[i]),
                    "cycle {cycle} node {i} did not fold"
                );
            }
            state = next_state(&ts, &frame);
            prev = Some(frame);
            conc_state = ts.next_state(&conc);
        }
    }

    /// With a *symbolic* input, asking the solver to violate the counter's
    /// adder semantics must be UNSAT.
    #[test]
    fn symbolic_unrolling_is_consistent() {
        let mut m = VModule::new("ctr2");
        m.port("clk", Dir::Input, 1);
        m.port("x", Dir::Input, 8);
        m.port("y", Dir::Output, 8);
        m.reg("acc", 8);
        m.assign("y", Expr::r("acc"));
        m.main_always().stmts.push(Stmt::NonBlocking {
            lhs: LValue::Net("acc".into()),
            rhs: Expr::bin(BinOp::Add, Expr::r("acc"), Expr::r("x")),
        });
        let mut d = Design::new();
        d.add(m);
        let ts = verilog::tsys::lower(&d, "ctr2").expect("lower");

        let mut bl = Blaster::new();
        let x = bl.bv_fresh(8);
        let mut state = initial_state(&bl, &ts);
        let mut prev = None;
        // Two cycles with the same symbolic x: acc = x + x afterwards.
        for _ in 0..2 {
            let inputs: Vec<BV> = ts
                .inputs
                .iter()
                .map(|iv| {
                    if iv.name == "x" {
                        x.clone()
                    } else {
                        bl.bv_const(iv.init, iv.width)
                    }
                })
                .collect();
            let frame = eval_frame(&mut bl, &ts, prev.take(), state, inputs);
            state = next_state(&ts, &frame);
            prev = Some(frame);
        }
        let acc = &state[0].clone();
        let two_x = {
            let xx = x.clone();
            bl.bv_add(&xx, &x)
        };
        let differs = bl.bv_eq(acc, &two_x).flip();
        assert_eq!(
            bl.solve(&[differs], Budget::UNLIMITED),
            SatResult::Unsat,
            "acc after two cycles must equal x + x for every x"
        );
    }
}
