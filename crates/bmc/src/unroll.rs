//! Symbolic evaluation of a [`TransitionSystem`] for bounded unrolling.
//!
//! One [`eval_frame`] call computes every node of the system for one cycle
//! as a word-level term, given the cycle's state and input terms and the
//! side's previous frame. Only the cones whose leaves changed are
//! evaluated again: term constructors are hash-consed, so evaluating a node
//! again on the same operand terms would return the same term and build
//! nothing, and every other node moves its previous term over. The caller
//! owns the cross-cycle plumbing (state advance, environment models,
//! observables) — see [`crate::equiv`].

use crate::term::{TermId, Terms};
use verilog::tsys::{Node, NodeId, TransitionSystem};

/// All node values for one cycle, indexed by [`NodeId`], with the state
/// and input terms they were computed from.
pub struct Frame {
    pub values: Vec<TermId>,
    state: Vec<TermId>,
    inputs: Vec<TermId>,
}

impl Frame {
    pub fn get(&self, id: NodeId) -> TermId {
        self.values[id as usize]
    }
}

/// Whether anything in `ts` reads each input: a node, a next-state
/// function, an assertion or an output port. The miter observes only
/// output ports, so an input none of these reads cannot affect a verdict.
pub fn inputs_read(ts: &TransitionSystem) -> Vec<bool> {
    let mut used = vec![false; ts.nodes.len()];
    for n in &ts.nodes {
        let (ops, k) = n.operands();
        for &o in &ops[..k] {
            used[o as usize] = true;
        }
    }
    for s in &ts.states {
        used[s.next as usize] = true;
    }
    for &(_, id) in ts.bads.iter().chain(&ts.outputs) {
        used[id as usize] = true;
    }
    ts.inputs.iter().map(|iv| used[iv.node as usize]).collect()
}

/// Evaluate every node of `ts` for one cycle. `state[i]` must be a term
/// of the i-th state variable's width; `inputs[i]` likewise for inputs.
///
/// `prev` is the same system's previous frame. A node is recomputed only if
/// it changed: a leaf whose state or input term differs from `prev`'s, or
/// an interior node with a recomputed operand. The others take `prev`'s
/// term as is. Without `prev` every node counts as changed.
pub fn eval_frame(
    terms: &mut Terms,
    ts: &TransitionSystem,
    prev: Option<Frame>,
    state: Vec<TermId>,
    inputs: Vec<TermId>,
) -> Frame {
    let fresh = prev.is_none();
    let (old, old_state, old_inputs) = match prev {
        Some(f) => (f.values, f.state, f.inputs),
        None => Default::default(),
    };
    debug_assert!(
        fresh || old.len() == ts.nodes.len(),
        "frame of another system"
    );
    let mut changed: Vec<bool> = Vec::with_capacity(ts.nodes.len());
    let mut values: Vec<TermId> = Vec::with_capacity(ts.nodes.len());
    for (i, n) in ts.nodes.iter().enumerate() {
        let dirty = fresh
            || match n {
                Node::Const { .. } => false,
                Node::Input { index, .. } => inputs[*index as usize] != old_inputs[*index as usize],
                Node::State { index, .. } => state[*index as usize] != old_state[*index as usize],
                _ => {
                    let (ops, k) = n.operands();
                    ops[..k].iter().any(|&o| changed[o as usize])
                }
            };
        changed.push(dirty);
        if !dirty {
            values.push(old[i]);
            continue;
        }
        let v = |id: &NodeId| values[*id as usize];
        let t = match n {
            Node::Const { value, width } => terms.konst(*value, *width),
            Node::Input { index, .. } => inputs[*index as usize],
            Node::State { index, .. } => state[*index as usize],
            Node::Not { a, .. } => terms.not(v(a)),
            Node::RedOr { a } => terms.red_or(v(a)),
            Node::Binary { op, a, b, .. } => terms.binary(*op, v(a), v(b)),
            Node::Ite { cond, t, e, .. } => terms.ite(v(cond), v(t), v(e)),
            Node::Slice { a, hi, lo } => terms.slice(v(a), *hi, *lo),
            Node::Ext { a, width, signed } => terms.ext(v(a), *width, *signed),
            Node::Concat { hi, lo, .. } => terms.concat(v(hi), v(lo)),
        };
        debug_assert_eq!(
            terms.width(t),
            ts.width(i as NodeId),
            "node {i} width mismatch"
        );
        values.push(t);
    }
    Frame {
        values,
        state,
        inputs,
    }
}

/// The next-state terms implied by a frame.
pub fn next_state(ts: &TransitionSystem, frame: &Frame) -> Vec<TermId> {
    ts.states.iter().map(|s| frame.get(s.next)).collect()
}

/// Constant initial state terms.
pub fn initial_state(terms: &mut Terms, ts: &TransitionSystem) -> Vec<TermId> {
    ts.states
        .iter()
        .map(|s| terms.konst(s.init, s.width))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blast::Blaster;
    use crate::sat::{Budget, SatResult};
    use verilog::ast::{BinOp, Design, Dir, Expr, LValue, Stmt, VModule};
    use verilog::tsys::TOp;

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

        let mut terms = Terms::new();
        let mut state = initial_state(&mut terms, &ts);
        let mut prev = None;
        let mut conc_state = ts.initial_state();
        for cycle in 0..8u64 {
            let stim = (cycle * 3 + 1) % 16;
            let inputs: Vec<TermId> = ts
                .inputs
                .iter()
                .map(|iv| {
                    let v = if iv.name == "step_by" { stim } else { iv.init };
                    terms.konst(v, iv.width)
                })
                .collect();
            let conc_inputs: Vec<u64> = ts
                .inputs
                .iter()
                .map(|iv| if iv.name == "step_by" { stim } else { iv.init })
                .collect();
            let frame = eval_frame(&mut terms, &ts, prev.take(), state, inputs);
            let conc = ts.eval_nodes(&conc_state, &conc_inputs);
            // With constant inputs everything folds to constants — compare
            // every node against the concrete evaluator.
            for (i, &v) in frame.values.iter().enumerate() {
                assert_eq!(
                    terms.value(v),
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

        let mut terms = Terms::new();
        let x = terms.leaf(8);
        let mut state = initial_state(&mut terms, &ts);
        let mut prev = None;
        // Two cycles with the same symbolic x: acc = x + x afterwards.
        for _ in 0..2 {
            let inputs: Vec<TermId> = ts
                .inputs
                .iter()
                .map(|iv| {
                    if iv.name == "x" {
                        x
                    } else {
                        terms.konst(iv.init, iv.width)
                    }
                })
                .collect();
            let frame = eval_frame(&mut terms, &ts, prev.take(), state, inputs);
            state = next_state(&ts, &frame);
            prev = Some(frame);
        }
        // `2 * x` becomes `x << 1`, a different term from `x + x`, so the
        // solver has to prove the two equal.
        let two = terms.konst(2, 8);
        let two_x = terms.binary(TOp::Mul, x, two);
        let differs = terms.binary(TOp::Ne, state[0], two_x);
        assert_eq!(terms.value(differs), None);
        let mut bl = Blaster::new();
        let differs = terms.blast(&mut bl, differs)[0];
        assert_eq!(
            bl.solve(&[differs], Budget::UNLIMITED),
            SatResult::Unsat,
            "acc after two cycles must equal x + x for every x"
        );
    }
}
