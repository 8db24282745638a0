//! Word-level terms: the miter's values before any gate exists.
//!
//! A [`Terms`] arena holds hash-consed word-level terms, stored as
//! [`Node`]s in a [`Builder`] (the lowering's own node builder): constants,
//! free leaves, complement, OR reduction, binary [`TOp`]s, if-then-else,
//! slices, extensions and concatenations. A term's operands always have
//! smaller ids. The builder folds constant operands with the lowering's
//! semantics ([`verilog::tsys::fold_binary`] and its siblings for slices,
//! extensions and concatenations), drops `ite` on a constant condition or
//! equal arms, `not (not x)` and whole-width slices and extensions, and
//! looks every other term up before it adds one. In front of it, [`Terms`]
//! applies one fixed rewrite set, so two sides that compute the same
//! function of the same leaves in slightly different ways still meet at
//! one term id:
//!
//! * `and`/`or`/`xor`/`add`/`sub`/`mul` with a constant 0, 1 or all-ones
//!   operand where the result is an operand, its complement or a
//!   constant; shifts by 0, and logical shifts by at least the width;
//! * operators on identical operands: `x & x`, `x | x`, `x ^ x`,
//!   `x - x` and every comparison;
//! * commutative operands in canonical order: a constant last, otherwise
//!   the smaller id first;
//! * constant shift amounts as 64-bit constants, since a shift reads its
//!   amount's value, not its width;
//! * `x * 2^k` as `x << k`;
//! * a low-bit slice `[hi:0]` pushed through `add`, `sub`, `mul`, `and`,
//!   `or`, `xor` and `shl` (the low bits of these depend only on the low
//!   bits of their operands, and `shl` keeps its full amount) and through
//!   an extension; slices of slices merge.
//!
//! The lowering does not apply these rewrites, so its systems and their
//! BTOR2 text stay as they are.
//!
//! Nothing here writes a gate. [`Terms::blast`] turns the cone of one term
//! into gates on a [`Blaster`], iteratively, once per term: a leaf gets
//! fresh literals on its first blast, so every term over it shares them.

use crate::blast::{Blaster, BV};
use crate::sat::Lit;
use verilog::sim::mask;
use verilog::tsys::{Builder, Node, TOp};

/// Index of a term in its [`Terms`] arena.
pub type TermId = u32;

fn commutative(op: TOp) -> bool {
    matches!(
        op,
        TOp::Add | TOp::Mul | TOp::And | TOp::Or | TOp::Xor | TOp::Eq | TOp::Ne
    )
}

/// The hash-consed term arena: a [`Builder`] (which folds constants and
/// hash-conses) behind the rewrites above, with the literal vector of
/// every term blasted so far. Terms are [`Node`]s; a leaf is an
/// [`Node::Input`] whose index no other leaf has, and no term is a
/// [`Node::State`].
#[derive(Default)]
pub struct Terms {
    b: Builder,
    leaves: u32,
    /// Literals per term, LSB first; empty until the term is blasted.
    bits: Vec<BV>,
    /// Work list of [`Terms::blast`], kept to reuse its allocation.
    stack: Vec<(TermId, bool)>,
}

impl Terms {
    pub fn new() -> Terms {
        Terms::default()
    }

    /// Terms built so far, leaves and constants included.
    pub fn len(&self) -> usize {
        self.b.len()
    }

    pub fn is_empty(&self) -> bool {
        self.b.is_empty()
    }

    /// Constructions answered by a term already built.
    pub fn hits(&self) -> u64 {
        self.b.hits()
    }

    pub fn get(&self, t: TermId) -> Node {
        self.b.node(t)
    }

    pub fn width(&self, t: TermId) -> u32 {
        self.b.width(t)
    }

    /// The value of a constant term.
    pub fn value(&self, t: TermId) -> Option<u64> {
        self.b.const_value(t)
    }

    pub fn konst(&mut self, value: u64, width: u32) -> TermId {
        self.b.konst(value, width)
    }

    /// A new free word of `width` bits.
    pub fn leaf(&mut self, width: u32) -> TermId {
        debug_assert!((1..=64).contains(&width));
        let index = self.leaves;
        self.leaves += 1;
        self.b.push(Node::Input { index, width })
    }

    pub fn not(&mut self, a: TermId) -> TermId {
        self.b.not(a)
    }

    /// `a != 0` as 1 bit.
    pub fn red_or(&mut self, a: TermId) -> TermId {
        self.b.redor(a)
    }

    pub fn binary(&mut self, op: TOp, a: TermId, b: TermId) -> TermId {
        let aw = self.width(a);
        let w = if op.is_comparison() { 1 } else { aw };
        let (a, b) = match (self.value(a), self.value(b)) {
            (Some(_), Some(_)) => return self.b.binary(op, a, b),
            (Some(_), None) if commutative(op) => (b, a),
            (None, None) if commutative(op) && b < a => (b, a),
            _ => (a, b),
        };
        if a == b {
            match op {
                TOp::And | TOp::Or => return a,
                TOp::Xor | TOp::Sub | TOp::Ne | TOp::Ult | TOp::Slt => return self.konst(0, w),
                TOp::Eq | TOp::Ule | TOp::Sle => return self.konst(1, w),
                _ => {}
            }
        }
        if let Some(c) = self.value(b) {
            let ones = mask(aw);
            match op {
                TOp::And if c == 0 => return b,
                TOp::And if c == ones => return a,
                TOp::Or if c == 0 => return a,
                TOp::Or if c == ones => return b,
                TOp::Xor if c == 0 => return a,
                TOp::Xor if c == ones => return self.not(a),
                TOp::Add | TOp::Sub if c == 0 => return a,
                TOp::Mul if c == 0 => return b,
                TOp::Mul if c == 1 => return a,
                TOp::Mul if c.is_power_of_two() => {
                    let k = self.konst(u64::from(c.trailing_zeros()), 64);
                    return self.binary(TOp::Sll, a, k);
                }
                TOp::Sll | TOp::Srl | TOp::Sra if c == 0 => return a,
                TOp::Sll | TOp::Srl if c >= u64::from(aw) => return self.konst(0, aw),
                TOp::Sll | TOp::Srl | TOp::Sra if self.width(b) != 64 => {
                    let b = self.konst(c, 64);
                    return self.b.binary(op, a, b);
                }
                _ => {}
            }
        }
        self.b.binary(op, a, b)
    }

    /// `cond ? t : e`; `cond` is 1 bit.
    pub fn ite(&mut self, cond: TermId, t: TermId, e: TermId) -> TermId {
        self.b.ite(cond, t, e)
    }

    /// Bits `[hi:lo]` of `a`.
    pub fn slice(&mut self, a: TermId, hi: u32, lo: u32) -> TermId {
        let whole = lo == 0 && hi + 1 == self.width(a);
        if whole || self.value(a).is_some() {
            return self.b.slice(a, hi, lo);
        }
        match self.get(a) {
            Node::Slice {
                a: inner, lo: l, ..
            } => self.slice(inner, l + hi, l + lo),
            Node::Binary {
                op: op @ (TOp::Add | TOp::Sub | TOp::Mul | TOp::And | TOp::Or | TOp::Xor),
                a: x,
                b: y,
                ..
            } if lo == 0 => {
                let x = self.slice(x, hi, 0);
                let y = self.slice(y, hi, 0);
                self.binary(op, x, y)
            }
            Node::Binary {
                op: TOp::Sll,
                a: x,
                b: amount,
                ..
            } if lo == 0 => {
                let x = self.slice(x, hi, 0);
                self.binary(TOp::Sll, x, amount)
            }
            Node::Ext { a: x, signed, .. } if lo == 0 => {
                if hi < self.width(x) {
                    self.slice(x, hi, 0)
                } else {
                    self.ext(x, hi + 1, signed)
                }
            }
            _ => self.b.slice(a, hi, lo),
        }
    }

    /// Zero or sign extension of `a` to `width >= width(a)` bits.
    pub fn ext(&mut self, a: TermId, width: u32, signed: bool) -> TermId {
        self.b.ext(a, width, signed)
    }

    /// `{hi, lo}`.
    pub fn concat(&mut self, hi: TermId, lo: TermId) -> TermId {
        self.b.concat(hi, lo)
    }

    /// Truncate or zero-extend to exactly `w` bits, through the rewriting
    /// [`Terms::slice`].
    pub fn fit(&mut self, a: TermId, w: u32) -> TermId {
        if self.width(a) > w {
            self.slice(a, w - 1, 0)
        } else {
            self.ext(a, w, false)
        }
    }

    // ----------------------------------------------------------- blasting

    /// The literals of `root`, blasting every term of its cone that has
    /// none yet: an iterative post-order walk, operands in order, that
    /// builds each term's gates once. Gates are built, not encoded; the
    /// blaster encodes what a query or an assertion reaches.
    pub fn blast(&mut self, bl: &mut Blaster, root: TermId) -> &[Lit] {
        self.bits.resize(self.len(), BV::new());
        let mut stack = std::mem::take(&mut self.stack);
        stack.push((root, false));
        while let Some((t, expanded)) = stack.pop() {
            if !self.bits[t as usize].is_empty() {
                continue;
            }
            let term = self.get(t);
            if !expanded {
                stack.push((t, true));
                let (ops, n) = term.operands();
                for &o in ops[..n].iter().rev() {
                    if self.bits[o as usize].is_empty() {
                        stack.push((o, false));
                    }
                }
                continue;
            }
            let v = gates(bl, &self.bits, term);
            debug_assert_eq!(v.len(), term.width() as usize, "term {t} width");
            self.bits[t as usize] = v;
        }
        self.stack = stack;
        &self.bits[root as usize]
    }

    /// The value of `t` in the blaster's current model. `t` must be blasted
    /// and encoded, or be a leaf: a leaf outside every blasted cone appears
    /// in no clause and reads 0, like [`Blaster::model_bv`]'s unencoded
    /// inputs.
    pub fn model(&self, bl: &Blaster, t: TermId) -> u64 {
        let bits = self.bits.get(t as usize).map_or(&[][..], |b| &b[..]);
        debug_assert!(
            !bits.is_empty() || matches!(self.get(t), Node::Input { .. }),
            "model of an unblasted term"
        );
        bl.model_bv(bits)
    }
}

/// The gates of one term whose operands are blasted.
fn gates(bl: &mut Blaster, bits: &[BV], term: Node) -> BV {
    let v = |t: TermId| &bits[t as usize];
    match term {
        Node::Const { value, width } => bl.bv_const(value, width),
        Node::Input { width, .. } => bl.bv_fresh(width),
        Node::State { .. } => unreachable!("terms have no state"),
        Node::Not { a, .. } => bl.bv_not(v(a)),
        Node::RedOr { a } => {
            let mut acc = bl.fals();
            for &l in v(a) {
                acc = bl.or(acc, l);
            }
            vec![acc]
        }
        Node::Binary { op, a, b, .. } => {
            let (a, b) = (v(a), v(b));
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
        Node::Ite { cond, t, e, .. } => bl.bv_ite(v(cond)[0], v(t), v(e)),
        Node::Slice { a, hi, lo } => v(a)[lo as usize..=hi as usize].to_vec(),
        Node::Ext { a, width, signed } => {
            if signed {
                bl.bv_sext(v(a), width)
            } else {
                bl.bv_fit(v(a), width)
            }
        }
        Node::Concat { hi, lo, .. } => {
            let mut out = v(lo).clone();
            out.extend_from_slice(v(hi));
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::{Budget, SatResult};
    use crate::unroll::eval_frame;
    use std::collections::HashMap;
    use verilog::tsys::{InputVar, Node, NodeId, TransitionSystem};

    const OPS: [TOp; 15] = [
        TOp::Add,
        TOp::Sub,
        TOp::Mul,
        TOp::And,
        TOp::Or,
        TOp::Xor,
        TOp::Sll,
        TOp::Srl,
        TOp::Sra,
        TOp::Eq,
        TOp::Ne,
        TOp::Ult,
        TOp::Ule,
        TOp::Slt,
        TOp::Sle,
    ];

    /// A transition system whose first nodes are inputs of `widths`,
    /// followed by `nodes` (which refer to the inputs by index).
    fn system(widths: &[u32], nodes: Vec<Node>) -> TransitionSystem {
        let mut all: Vec<Node> = (0..widths.len())
            .map(|i| Node::Input {
                index: i as u32,
                width: widths[i],
            })
            .collect();
        all.extend(nodes);
        let inputs = widths
            .iter()
            .enumerate()
            .map(|(i, &width)| InputVar {
                name: format!("x{i}"),
                width,
                init: 0,
                node: i as NodeId,
            })
            .collect();
        TransitionSystem {
            nodes: all,
            inputs,
            ..TransitionSystem::default()
        }
    }

    fn bin(op: TOp, a: NodeId, b: NodeId, width: u32) -> Node {
        let width = if op.is_comparison() { 1 } else { width };
        Node::Binary { op, a, b, width }
    }

    /// The value of `t` with every leaf replaced by its value in `leaves`,
    /// computed by rebuilding the term through the constructors: with
    /// constant operands each one folds.
    fn subst(terms: &mut Terms, t: TermId, leaves: &HashMap<TermId, u64>) -> u64 {
        fn go(
            terms: &mut Terms,
            t: TermId,
            leaves: &HashMap<TermId, u64>,
            memo: &mut HashMap<TermId, TermId>,
        ) -> TermId {
            if let Some(&r) = memo.get(&t) {
                return r;
            }
            let mut sub = |terms: &mut Terms, x| go(terms, x, leaves, memo);
            let r = match terms.get(t) {
                Node::Const { .. } => t,
                Node::State { .. } => unreachable!("terms have no state"),
                Node::Input { width, .. } => terms.konst(leaves[&t], width),
                Node::Not { a, .. } => {
                    let a = sub(terms, a);
                    terms.not(a)
                }
                Node::RedOr { a } => {
                    let a = sub(terms, a);
                    terms.red_or(a)
                }
                Node::Binary { op, a, b, .. } => {
                    let (a, b) = (sub(terms, a), sub(terms, b));
                    terms.binary(op, a, b)
                }
                Node::Ite { cond, t, e, .. } => {
                    let (c, t, e) = (sub(terms, cond), sub(terms, t), sub(terms, e));
                    terms.ite(c, t, e)
                }
                Node::Slice { a, hi, lo } => {
                    let a = sub(terms, a);
                    terms.slice(a, hi, lo)
                }
                Node::Ext { a, width, signed } => {
                    let a = sub(terms, a);
                    terms.ext(a, width, signed)
                }
                Node::Concat { hi, lo, .. } => {
                    let (hi, lo) = (sub(terms, hi), sub(terms, lo));
                    terms.concat(hi, lo)
                }
            };
            memo.insert(t, r);
            r
        }
        let r = go(terms, t, leaves, &mut HashMap::new());
        terms.value(r).expect("every leaf substituted")
    }

    /// Every node kind and operator, built from constant operands at widths
    /// 1 to 6 over all operand values, folds to `eval_nodes`'s value.
    #[test]
    fn constant_operands_fold_like_eval_nodes() {
        let mut checked = 0;
        for w in 1..=6u32 {
            let mut nodes: Vec<Node> = vec![Node::Not { a: 0, width: w }, Node::RedOr { a: 0 }];
            nodes.extend(OPS.iter().map(|&op| bin(op, 0, 1, w)));
            nodes.push(Node::Ite {
                cond: 2,
                t: 0,
                e: 1,
                width: w,
            });
            for hi in 0..w {
                nodes.extend((0..=hi).map(|lo| Node::Slice { a: 0, hi, lo }));
            }
            for width in (w + 1..=7).chain([64]) {
                for signed in [false, true] {
                    nodes.push(Node::Ext {
                        a: 0,
                        width,
                        signed,
                    });
                }
            }
            nodes.push(Node::Concat {
                hi: 0,
                lo: 1,
                width: 2 * w,
            });
            let ts = system(&[w, w, 1], nodes);
            let mut terms = Terms::new();
            for a in 0..1u64 << w {
                for b in 0..1u64 << w {
                    for c in 0..2 {
                        let want = ts.eval_nodes(&[], &[a, b, c]);
                        let inputs = vec![terms.konst(a, w), terms.konst(b, w), terms.konst(c, 1)];
                        let got = eval_frame(&mut terms, &ts, None, vec![], inputs).values;
                        for (i, (&t, &v)) in got.iter().zip(&want).enumerate() {
                            assert_eq!(
                                terms.value(t),
                                Some(v),
                                "{:?} of {a}, {b}, {c} at width {w}",
                                ts.nodes[i]
                            );
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert!(checked > 400_000, "{checked}");
    }

    /// The shapes the rewrites match, over symbolic inputs `x0`, `x1`
    /// (`w` bits) and `c` (1 bit) and every constant of `w` bits: each
    /// operator against a constant on either side and against itself,
    /// `ite` on constant conditions and equal arms, double complement, and
    /// every low slice of every operator, of extensions and of slices.
    fn rewrite_shapes(w: u32) -> Vec<Vec<Node>> {
        let (x0, x1, c, k) = (0, 1, 2, 3);
        let konst = |value| Node::Const { value, width: w };
        // The low slices below an operator's width; comparisons give 1 bit.
        let low_slices = |op: TOp| if op.is_comparison() { 0 } else { w - 1 };
        let mut shapes = Vec::new();
        for value in 0..1u64 << w {
            for op in OPS {
                shapes.push(vec![konst(value), bin(op, x0, k, w)]);
                shapes.push(vec![konst(value), bin(op, k, x0, w)]);
                for hi in 0..low_slices(op) {
                    let lo_op = Node::Slice { a: 4, hi, lo: 0 };
                    shapes.push(vec![konst(value), bin(op, x0, k, w), lo_op]);
                    shapes.push(vec![konst(value), bin(op, k, x0, w), lo_op]);
                }
            }
        }
        for op in OPS {
            shapes.push(vec![bin(op, x0, x0, w)]);
            shapes.push(vec![bin(op, x0, x1, w)]);
            shapes.push(vec![bin(op, x1, x0, w)]);
            for hi in 0..low_slices(op) {
                shapes.push(vec![bin(op, x0, x1, w), Node::Slice { a: 3, hi, lo: 0 }]);
            }
        }
        for value in 0..2 {
            let ite = Node::Ite {
                cond: 3,
                t: x0,
                e: x1,
                width: w,
            };
            shapes.push(vec![Node::Const { value, width: 1 }, ite]);
        }
        shapes.push(vec![Node::Ite {
            cond: c,
            t: x0,
            e: x0,
            width: w,
        }]);
        shapes.push(vec![
            Node::Not { a: x0, width: w },
            Node::Not { a: 3, width: w },
        ]);
        shapes.push(vec![Node::RedOr { a: c }]);
        for width in (w + 1..=7).chain([64]) {
            for signed in [false, true] {
                for hi in 0..width - 1 {
                    let ext = Node::Ext {
                        a: x0,
                        width,
                        signed,
                    };
                    shapes.push(vec![ext, Node::Slice { a: 3, hi, lo: 0 }]);
                }
            }
        }
        for h1 in 0..w {
            for l1 in 0..=h1 {
                for h2 in 0..=h1 - l1 {
                    for l2 in 0..=h2 {
                        let inner = Node::Slice {
                            a: x0,
                            hi: h1,
                            lo: l1,
                        };
                        shapes.push(vec![
                            inner,
                            Node::Slice {
                                a: 3,
                                hi: h2,
                                lo: l2,
                            },
                        ]);
                    }
                }
            }
        }
        shapes
    }

    /// Every rewrite keeps `eval_nodes`'s value: each shape is built over
    /// leaves, where the rewrites fire, and the resulting term is evaluated
    /// at every value of the inputs it reads.
    #[test]
    fn rewrites_agree_with_eval_nodes_on_every_value() {
        let mut checked = 0;
        let mut rewritten = 0;
        for w in 1..=6u32 {
            let mut terms = Terms::new();
            for shape in rewrite_shapes(w) {
                let ts = system(&[w, w, 1], shape);
                let root = ts.nodes.len() - 1;
                let used: Vec<bool> = (0..3)
                    .map(|i| {
                        ts.nodes[3..].iter().any(|n| {
                            let (ops, k) = n.operands();
                            ops[..k].contains(&i)
                        })
                    })
                    .collect();
                let leaves: Vec<TermId> = [w, w, 1].iter().map(|&lw| terms.leaf(lw)).collect();
                let values = eval_frame(&mut terms, &ts, None, vec![], leaves.clone()).values;
                let t = values[root];
                let same_kind = std::mem::discriminant(&ts.nodes[root])
                    == std::mem::discriminant(&terms.get(t));
                rewritten += usize::from(!same_kind);
                let range = |i: usize, n: u64| if used[i] { 0..n } else { 0..1 };
                for a in range(0, 1 << w) {
                    for b in range(1, 1 << w) {
                        for c in range(2, 2) {
                            let want = ts.eval_nodes(&[], &[a, b, c])[root];
                            let env =
                                HashMap::from([(leaves[0], a), (leaves[1], b), (leaves[2], c)]);
                            let got = subst(&mut terms, t, &env);
                            assert_eq!(
                                got,
                                want,
                                "{:?} at width {w} on {a}, {b}, {c}: {:?}",
                                &ts.nodes[3..],
                                terms.get(t)
                            );
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert!(
            checked > 1_000_000 && rewritten > 5_000,
            "{checked} {rewritten}"
        );
    }

    /// The rewrites meet where the passes leave different shapes of one
    /// function: strength reduction's `x << 1` against the unoptimized
    /// `(2 * zext64(x))[31:0]` (stencil64), precision-opt's `x` against
    /// `(1 * zext64(x))[31:0]` (conv4), and operands in either order.
    #[test]
    fn rewrites_fold_the_shapes_the_passes_leave() {
        let mut terms = Terms::new();
        let x = terms.leaf(32);
        let y = terms.leaf(32);
        let wide = terms.ext(x, 64, false);
        let two = terms.konst(2, 64);
        let one = terms.konst(1, 64);
        let doubled = terms.binary(TOp::Mul, two, wide);
        let narrow = terms.slice(doubled, 31, 0);
        let one32 = terms.konst(1, 32);
        let shifted = terms.binary(TOp::Sll, x, one32);
        assert_eq!(narrow, shifted);
        let b = terms.konst(1, 64);
        assert_eq!(
            terms.get(shifted),
            Node::Binary {
                op: TOp::Sll,
                a: x,
                b,
                width: 32
            }
        );
        let times_one = terms.binary(TOp::Mul, one, wide);
        assert_eq!(terms.slice(times_one, 31, 0), x);
        let xy = terms.binary(TOp::Add, x, y);
        assert_eq!(terms.binary(TOp::Add, y, x), xy);
        let yx = terms.binary(TOp::Add, y, x);
        let diff = terms.binary(TOp::Ne, xy, yx);
        assert_eq!(terms.value(diff), Some(0));
    }

    /// xorshift64* stream for the random systems.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) % n
        }
    }

    /// A random system over 1 to 3 inputs of 1 to 6 bits, with constants
    /// biased towards the values the rewrites match.
    fn random_system(rng: &mut Rng) -> TransitionSystem {
        let n_in = 1 + rng.below(3) as usize;
        let widths: Vec<u32> = (0..n_in).map(|_| 1 + rng.below(6) as u32).collect();
        let mut ts = system(&widths, Vec::new());
        let width = |ts: &TransitionSystem, id: NodeId| ts.width(id);
        for _ in 0..4 + rng.below(24) {
            let n = ts.nodes.len() as u64;
            let a = rng.below(n) as NodeId;
            let aw = width(&ts, a);
            let operand = |ts: &mut TransitionSystem, rng: &mut Rng, w: u32| -> NodeId {
                let same: Vec<NodeId> = (0..ts.nodes.len() as NodeId)
                    .filter(|&i| ts.width(i) == w)
                    .collect();
                if !same.is_empty() && rng.below(3) > 0 {
                    return same[rng.below(same.len() as u64) as usize];
                }
                let value = match rng.below(5) {
                    0 => 0,
                    1 => 1,
                    2 => mask(w),
                    3 => 1 << rng.below(u64::from(w)),
                    _ => rng.below(1 << w),
                };
                ts.nodes.push(Node::Const { value, width: w });
                ts.nodes.len() as NodeId - 1
            };
            let node = match rng.below(10) {
                0 => Node::Not { a, width: aw },
                1 => Node::RedOr { a },
                2..=5 => {
                    let op = OPS[rng.below(15) as usize];
                    let b = operand(&mut ts, rng, aw);
                    let (a, b) = if rng.below(2) == 0 { (a, b) } else { (b, a) };
                    bin(op, a, b, aw)
                }
                6 => {
                    let cond = operand(&mut ts, rng, 1);
                    let e = operand(&mut ts, rng, aw);
                    Node::Ite {
                        cond,
                        t: a,
                        e,
                        width: aw,
                    }
                }
                7 => {
                    let hi = rng.below(u64::from(aw)) as u32;
                    let lo = if rng.below(2) == 0 {
                        0
                    } else {
                        rng.below(u64::from(hi) + 1) as u32
                    };
                    Node::Slice { a, hi, lo }
                }
                8 if aw < 12 => Node::Ext {
                    a,
                    width: aw + 1 + rng.below(4) as u32,
                    signed: rng.below(2) == 0,
                },
                _ => {
                    let lo = rng.below(n) as NodeId;
                    let width = aw + width(&ts, lo);
                    if width > 16 {
                        continue;
                    }
                    Node::Concat { hi: a, lo, width }
                }
            };
            ts.nodes.push(node);
        }
        ts
    }

    /// About 300 random systems over fresh leaves: every node's term is
    /// blasted and encoded, and under each leaf pinned to random constants
    /// the solver's model of every node equals `eval_nodes`. A term that
    /// folded to a constant blasts to constant literals of that value.
    #[test]
    fn blasted_terms_match_eval_nodes_under_random_pins() {
        let (mut models, mut symbolic, mut folded) = (0, 0, 0);
        for seed in 1..=300u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
            let ts = random_system(&mut rng);
            let mut terms = Terms::new();
            let leaves: Vec<TermId> = ts.inputs.iter().map(|iv| terms.leaf(iv.width)).collect();
            let values = eval_frame(&mut terms, &ts, None, vec![], leaves.clone()).values;
            let mut bl = Blaster::new();
            let mut roots = Vec::new();
            for &t in &values {
                roots.extend_from_slice(terms.blast(&mut bl, t));
            }
            bl.encode(&roots);
            for &t in &values {
                if let Some(v) = terms.value(t) {
                    let want = bl.bv_const(v, terms.width(t));
                    assert_eq!(terms.bits[t as usize], want, "seed {seed}");
                }
            }
            for _ in 0..4 {
                let pins: Vec<u64> = ts
                    .inputs
                    .iter()
                    .map(|iv| rng.below(1 << iv.width))
                    .collect();
                let mut assumptions = Vec::new();
                for (&leaf, &v) in leaves.iter().zip(&pins) {
                    for (i, &l) in terms.blast(&mut bl, leaf).iter().enumerate() {
                        assumptions.push(if v >> i & 1 != 0 { l } else { l.flip() });
                    }
                }
                assert_eq!(bl.solve(&assumptions, Budget::UNLIMITED), SatResult::Sat);
                models += 1;
                let want = ts.eval_nodes(&[], &pins);
                for (i, &t) in values.iter().enumerate() {
                    assert_eq!(
                        terms.model(&bl, t),
                        want[i],
                        "seed {seed} node {i} {:?} on {pins:?}",
                        ts.nodes[i]
                    );
                    if terms.value(t).is_some() {
                        folded += 1;
                    } else {
                        symbolic += 1;
                    }
                }
            }
        }
        assert!(
            models == 1200 && symbolic > 10_000 && folded > 1_000,
            "{models} {symbolic} {folded}"
        );
    }
}
