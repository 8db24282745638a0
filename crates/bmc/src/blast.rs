//! Tseitin bit-blasting: word-level values as vectors of gate literals.
//!
//! A [`Blaster`] builds a structurally hashed gate table and owns the
//! [`Solver`] that the table is encoded into. Every gate constructor folds
//! constants and structurally identical operands before it adds a node,
//! and the caches are global across everything built on one blaster — when
//! the optimized and unoptimized sides of a miter compute the same function
//! of the same inputs, they collapse to the *same literal* and their
//! disagreement literal folds to false. This lightweight structural
//! sweeping is what keeps K-cycle miters of mostly-similar designs
//! tractable.
//!
//! Building a gate writes no CNF. [`Blaster::solve`] and
//! [`Blaster::assert_true`] first encode the cone of influence of the
//! literals they are given: each node of the cone not yet encoded gets one
//! solver variable and its full Tseitin definition. A gate outside every
//! queried cone appears in no clause, so it cannot constrain a query, and
//! a query that folds to a constant encodes nothing.
//!
//! Bit vectors ([`BV`]) are LSB-first.

use crate::sat::{Budget, Lit, SatResult, Solver};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A word value: gate literals, least significant bit first.
pub type BV = Vec<Lit>;

/// FxHash (the rustc hasher): one rotate-xor-multiply per literal. The gate
/// caches key on literals the blaster itself allocated, where SipHash's
/// collision-flood resistance buys nothing. Nothing iterates the caches, so
/// the hasher cannot change gate numbering.
#[derive(Default)]
struct FxHasher {
    hash: u64,
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        // `Lit` keys hash through `write_u32`; this only completes the trait.
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }
    fn write_u32(&mut self, i: u32) {
        self.hash =
            (self.hash.rotate_left(5) ^ u64::from(i)).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
    fn finish(&self) -> u64 {
        self.hash
    }
}

type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// One node of the gate table; a gate literal is a node index shifted left
/// once, low bit = negated. Node 0 is the constant true.
#[derive(Clone, Copy)]
enum Gate {
    Input,
    And([Lit; 2]),
    Xor([Lit; 2]),
    /// `[c, t, e]`: `c ? t : e`.
    Ite([Lit; 3]),
}

impl Gate {
    fn operands(&self) -> &[Lit] {
        match self {
            Gate::Input => &[],
            Gate::And(ops) | Gate::Xor(ops) => ops,
            Gate::Ite(ops) => ops,
        }
    }
}

/// [`Blaster::var`] of a node that has no solver variable yet.
const UNENCODED: u32 = u32::MAX;

/// Bit-blasting context: the gate table, its caches, and the solver that
/// holds the encoded part of the table.
pub struct Blaster {
    solver: Solver,
    gates: Vec<Gate>,
    /// Solver variable per node, or [`UNENCODED`].
    var: Vec<u32>,
    tru: Lit,
    and_cache: FxHashMap<(Lit, Lit), Lit>,
    xor_cache: FxHashMap<(Lit, Lit), Lit>,
    ite_cache: FxHashMap<(Lit, Lit, Lit), Lit>,
    /// Work list of [`Blaster::encode`], kept to reuse its allocation.
    stack: Vec<(u32, bool)>,
    /// Structural-hash statistics: gate lookups served from a cache vs
    /// gates that added a node.
    pub cache_hits: u64,
    pub cache_misses: u64,
}

impl Default for Blaster {
    fn default() -> Self {
        Blaster::new()
    }
}

impl Blaster {
    pub fn new() -> Blaster {
        let mut bl = Blaster {
            solver: Solver::new(),
            gates: Vec::new(),
            var: Vec::new(),
            tru: Lit::pos(0),
            and_cache: FxHashMap::default(),
            xor_cache: FxHashMap::default(),
            ite_cache: FxHashMap::default(),
            stack: Vec::new(),
            cache_hits: 0,
            cache_misses: 0,
        };
        let t = bl.node(Gate::Input);
        bl.assert_true(t);
        bl
    }

    /// The solver, for its statistics. Queries go through
    /// [`Blaster::solve`] and [`Blaster::assert_true`], which encode what
    /// they reach first.
    pub fn solver(&self) -> &Solver {
        &self.solver
    }

    /// Nodes built so far, the constant included.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// The constant-true literal.
    pub fn tru(&self) -> Lit {
        self.tru
    }

    /// The constant-false literal.
    pub fn fals(&self) -> Lit {
        self.tru.flip()
    }

    pub fn lit_const(&self, v: bool) -> Lit {
        if v {
            self.tru
        } else {
            self.tru.flip()
        }
    }

    fn is_true(&self, l: Lit) -> bool {
        l == self.tru
    }

    fn is_false(&self, l: Lit) -> bool {
        l == self.tru.flip()
    }

    fn node(&mut self, g: Gate) -> Lit {
        let n = u32::try_from(self.gates.len()).expect("gate table exceeds u32 nodes");
        self.gates.push(g);
        self.var.push(UNENCODED);
        Lit::pos(n)
    }

    /// Fresh unconstrained literal.
    pub fn fresh(&mut self) -> Lit {
        self.node(Gate::Input)
    }

    /// `a ∧ b` (cached, folded).
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        if self.is_false(a) || self.is_false(b) || a == b.flip() {
            return self.fals();
        }
        if self.is_true(a) || a == b {
            return b;
        }
        if self.is_true(b) {
            return a;
        }
        let key = if a.0 <= b.0 { (a, b) } else { (b, a) };
        if let Some(&x) = self.and_cache.get(&key) {
            self.cache_hits += 1;
            return x;
        }
        self.cache_misses += 1;
        let x = self.node(Gate::And([a, b]));
        self.and_cache.insert(key, x);
        x
    }

    /// `a ∨ b`.
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        self.and(a.flip(), b.flip()).flip()
    }

    /// `a ⊕ b` (cached, folded; complements share one gate).
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        if self.is_false(a) {
            return b;
        }
        if self.is_false(b) {
            return a;
        }
        if self.is_true(a) {
            return b.flip();
        }
        if self.is_true(b) {
            return a.flip();
        }
        if a == b {
            return self.fals();
        }
        if a == b.flip() {
            return self.tru;
        }
        // Normalize to positive inputs: ¬a⊕b = ¬(a⊕b).
        let mut flip_out = false;
        let mut a = a;
        let mut b = b;
        if a.is_neg() {
            a = a.flip();
            flip_out = !flip_out;
        }
        if b.is_neg() {
            b = b.flip();
            flip_out = !flip_out;
        }
        let key = if a.0 <= b.0 { (a, b) } else { (b, a) };
        let x = if let Some(&x) = self.xor_cache.get(&key) {
            self.cache_hits += 1;
            x
        } else {
            self.cache_misses += 1;
            let x = self.node(Gate::Xor([a, b]));
            self.xor_cache.insert(key, x);
            x
        };
        if flip_out {
            x.flip()
        } else {
            x
        }
    }

    /// `c ? t : e`.
    pub fn ite(&mut self, c: Lit, t: Lit, e: Lit) -> Lit {
        if self.is_true(c) {
            return t;
        }
        if self.is_false(c) {
            return e;
        }
        if t == e {
            return t;
        }
        if self.is_true(t) {
            return self.or(c, e);
        }
        if self.is_false(t) {
            return self.and(c.flip(), e);
        }
        if self.is_true(e) {
            return self.or(c.flip(), t);
        }
        if self.is_false(e) {
            return self.and(c, t);
        }
        if t == e.flip() {
            return self.xor(c, e);
        }
        if let Some(&x) = self.ite_cache.get(&(c, t, e)) {
            self.cache_hits += 1;
            return x;
        }
        self.cache_misses += 1;
        let x = self.node(Gate::Ite([c, t, e]));
        self.ite_cache.insert((c, t, e), x);
        x
    }

    /// `a == b` for single literals.
    pub fn lit_eq(&mut self, a: Lit, b: Lit) -> Lit {
        self.xor(a, b).flip()
    }

    // ----------------------------------------------------------- encoding

    /// The solver literal of an encoded gate literal.
    fn sat_lit(&self, l: Lit) -> Lit {
        let v = self.var[l.var() as usize];
        debug_assert_ne!(v, UNENCODED, "gate literal outside the encoded cones");
        Lit(v << 1 | l.0 & 1)
    }

    /// Encode the cone of influence of every root: an iterative post-order
    /// walk, operands in order, that gives each node not yet encoded one
    /// solver variable and writes its Tseitin clauses. An encoded gate
    /// always has its full definition, so the solver can never tell an
    /// encoded cone from the eager encoding of the whole table.
    pub(crate) fn encode(&mut self, roots: &[Lit]) {
        let mut stack = std::mem::take(&mut self.stack);
        for &root in roots {
            stack.push((root.var(), false));
            while let Some((n, expanded)) = stack.pop() {
                if self.var[n as usize] != UNENCODED {
                    continue;
                }
                let g = self.gates[n as usize];
                if !expanded {
                    stack.push((n, true));
                    for &o in g.operands().iter().rev() {
                        if self.var[o.var() as usize] == UNENCODED {
                            stack.push((o.var(), false));
                        }
                    }
                    continue;
                }
                let x = Lit::pos(self.solver.new_var());
                self.var[n as usize] = x.var();
                match g {
                    Gate::Input => {}
                    Gate::And([a, b]) => {
                        let (a, b) = (self.sat_lit(a), self.sat_lit(b));
                        self.solver.add_clause(&[a.flip(), b.flip(), x]);
                        self.solver.add_clause(&[a, x.flip()]);
                        self.solver.add_clause(&[b, x.flip()]);
                    }
                    Gate::Xor([a, b]) => {
                        let (a, b) = (self.sat_lit(a), self.sat_lit(b));
                        self.solver.add_clause(&[a.flip(), b.flip(), x.flip()]);
                        self.solver.add_clause(&[a, b, x.flip()]);
                        self.solver.add_clause(&[a.flip(), b, x]);
                        self.solver.add_clause(&[a, b.flip(), x]);
                    }
                    Gate::Ite([c, t, e]) => {
                        let (c, t, e) = (self.sat_lit(c), self.sat_lit(t), self.sat_lit(e));
                        self.solver.add_clause(&[c.flip(), t.flip(), x]);
                        self.solver.add_clause(&[c.flip(), t, x.flip()]);
                        self.solver.add_clause(&[c, e.flip(), x]);
                        self.solver.add_clause(&[c, e, x.flip()]);
                    }
                }
            }
        }
        self.stack = stack;
    }

    /// Force a literal true at the root level, after encoding its cone.
    pub fn assert_true(&mut self, l: Lit) {
        self.encode(&[l]);
        let l = self.sat_lit(l);
        self.solver.add_clause(&[l]);
    }

    /// Solve under assumptions, after encoding their cones. The model (for
    /// Sat) is readable through [`Blaster::model_bv`] until the next call
    /// that encodes or asserts.
    pub fn solve(&mut self, assumptions: &[Lit], budget: Budget) -> SatResult {
        self.encode(assumptions);
        let assumptions: Vec<Lit> = assumptions.iter().map(|&l| self.sat_lit(l)).collect();
        self.solver.solve(&assumptions, budget)
    }

    // -------------------------------------------------------------- words

    /// Constant bit vector.
    pub fn bv_const(&self, value: u64, width: u32) -> BV {
        (0..width)
            .map(|i| self.lit_const(value >> i & 1 != 0))
            .collect()
    }

    /// Fresh unconstrained bit vector.
    pub fn bv_fresh(&mut self, width: u32) -> BV {
        (0..width).map(|_| self.fresh()).collect()
    }

    /// The constant value of a vector, if fully constant.
    pub fn bv_value(&self, a: &BV) -> Option<u64> {
        let mut v = 0u64;
        for (i, &l) in a.iter().enumerate() {
            if self.is_true(l) {
                v |= 1 << i;
            } else if !self.is_false(l) {
                return None;
            }
        }
        Some(v)
    }

    pub fn bv_not(&mut self, a: &BV) -> BV {
        a.iter().map(|l| l.flip()).collect()
    }

    pub fn bv_and(&mut self, a: &BV, b: &BV) -> BV {
        debug_assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(&x, &y)| self.and(x, y)).collect()
    }

    pub fn bv_or(&mut self, a: &BV, b: &BV) -> BV {
        debug_assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(&x, &y)| self.or(x, y)).collect()
    }

    pub fn bv_xor(&mut self, a: &BV, b: &BV) -> BV {
        debug_assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(&x, &y)| self.xor(x, y)).collect()
    }

    /// Ripple-carry addition (modular).
    pub fn bv_add(&mut self, a: &BV, b: &BV) -> BV {
        debug_assert_eq!(a.len(), b.len());
        let mut out = Vec::with_capacity(a.len());
        let mut carry = self.fals();
        for (&x, &y) in a.iter().zip(b) {
            let xy = self.xor(x, y);
            out.push(self.xor(xy, carry));
            // carry' = (x ∧ y) ∨ (carry ∧ (x ⊕ y))
            let g = self.and(x, y);
            let p = self.and(carry, xy);
            carry = self.or(g, p);
        }
        out
    }

    /// Modular subtraction `a - b` (as `a + ¬b + 1`).
    pub fn bv_sub(&mut self, a: &BV, b: &BV) -> BV {
        debug_assert_eq!(a.len(), b.len());
        let mut out = Vec::with_capacity(a.len());
        let mut carry = self.tru;
        for (&x, &yr) in a.iter().zip(b) {
            let y = yr.flip();
            let xy = self.xor(x, y);
            out.push(self.xor(xy, carry));
            let g = self.and(x, y);
            let p = self.and(carry, xy);
            carry = self.or(g, p);
        }
        out
    }

    /// Shift-add multiplication (modular).
    pub fn bv_mul(&mut self, a: &BV, b: &BV) -> BV {
        debug_assert_eq!(a.len(), b.len());
        let w = a.len();
        let mut acc = self.bv_const(0, w as u32);
        for (i, &bi) in b.iter().enumerate() {
            if self.is_false(bi) {
                continue;
            }
            // (a << i) & {w × b_i}
            let shifted: BV = (0..w)
                .map(|k| if k >= i { a[k - i] } else { self.fals() })
                .collect();
            let addend: BV = shifted.iter().map(|&l| self.and(l, bi)).collect();
            acc = self.bv_add(&acc, &addend);
        }
        acc
    }

    /// `c ? t : e` per bit.
    pub fn bv_ite(&mut self, c: Lit, t: &BV, e: &BV) -> BV {
        debug_assert_eq!(t.len(), e.len());
        t.iter().zip(e).map(|(&x, &y)| self.ite(c, x, y)).collect()
    }

    /// `a == b` as one literal.
    pub fn bv_eq(&mut self, a: &BV, b: &BV) -> Lit {
        debug_assert_eq!(a.len(), b.len());
        let mut acc = self.tru;
        for (&x, &y) in a.iter().zip(b) {
            let e = self.lit_eq(x, y);
            acc = self.and(acc, e);
        }
        acc
    }

    /// Unsigned `a < b`.
    pub fn bv_ult(&mut self, a: &BV, b: &BV) -> Lit {
        debug_assert_eq!(a.len(), b.len());
        // LSB→MSB: higher bits take priority.
        let mut lt = self.fals();
        for (&x, &y) in a.iter().zip(b) {
            let xlty = self.and(x.flip(), y);
            let eq = self.lit_eq(x, y);
            let keep = self.and(eq, lt);
            lt = self.or(xlty, keep);
        }
        lt
    }

    /// Unsigned `a <= b`.
    pub fn bv_ule(&mut self, a: &BV, b: &BV) -> Lit {
        self.bv_ult(b, a).flip()
    }

    /// Signed `a < b` (flip sign bits, compare unsigned).
    pub fn bv_slt(&mut self, a: &BV, b: &BV) -> Lit {
        let (mut a2, mut b2) = (a.clone(), b.clone());
        let n = a2.len();
        debug_assert!(n > 0);
        a2[n - 1] = a2[n - 1].flip();
        b2[n - 1] = b2[n - 1].flip();
        self.bv_ult(&a2, &b2)
    }

    /// Signed `a <= b`.
    pub fn bv_sle(&mut self, a: &BV, b: &BV) -> Lit {
        self.bv_slt(b, a).flip()
    }

    /// Zero-extend or truncate to `w` bits.
    pub fn bv_fit(&self, a: &BV, w: u32) -> BV {
        let w = w as usize;
        let mut out = a.clone();
        out.truncate(w);
        while out.len() < w {
            out.push(self.fals());
        }
        out
    }

    /// Sign-extend to `w` bits (`w >= a.len()`).
    pub fn bv_sext(&self, a: &BV, w: u32) -> BV {
        let mut out = a.clone();
        let sign = *out.last().expect("sign extension of empty vector");
        while out.len() < w as usize {
            out.push(sign);
        }
        out
    }

    /// Left shift by a symbolic amount; zeros shifted in, amount ≥ width
    /// yields zero.
    pub fn bv_sll(&mut self, a: &BV, amt: &BV) -> BV {
        self.barrel(a, amt, false, false)
    }

    /// Logical right shift; amount ≥ width yields zero.
    pub fn bv_srl(&mut self, a: &BV, amt: &BV) -> BV {
        self.barrel(a, amt, true, false)
    }

    /// Arithmetic right shift; amount ≥ width yields all-sign.
    pub fn bv_sra(&mut self, a: &BV, amt: &BV) -> BV {
        self.barrel(a, amt, true, true)
    }

    fn barrel(&mut self, a: &BV, amt: &BV, right: bool, arith: bool) -> BV {
        let w = a.len();
        let fill = if arith {
            *a.last().expect("shift of empty vector")
        } else {
            self.fals()
        };
        let mut cur = a.clone();
        let mut overshoot = self.fals();
        for (b, &amt_bit) in amt.iter().enumerate() {
            if b >= 63 || (1usize << b) >= w {
                // A set bit at or beyond the width shifts everything out.
                overshoot = self.or(overshoot, amt_bit);
                continue;
            }
            let sh = 1usize << b;
            let shifted: BV = (0..w)
                .map(|k| {
                    let src = if right {
                        k.checked_add(sh).filter(|&s| s < w)
                    } else {
                        k.checked_sub(sh)
                    };
                    match src {
                        Some(s) => cur[s],
                        None => fill,
                    }
                })
                .collect();
            cur = self.bv_ite(amt_bit, &shifted, &cur);
        }
        let all_fill = vec![fill; w];
        self.bv_ite(overshoot, &all_fill, &cur)
    }

    /// Read the value of a vector of inputs ([`Blaster::fresh`] literals)
    /// from the solver's current model. An input outside every encoded cone
    /// appears in no clause, so any value extends the model; it reads false.
    pub fn model_bv(&self, a: &BV) -> u64 {
        let mut v = 0u64;
        for (i, &l) in a.iter().enumerate() {
            let n = l.var() as usize;
            debug_assert!(
                matches!(self.gates[n], Gate::Input),
                "model_bv reads inputs only"
            );
            let x = self.var[n];
            if (x != UNENCODED && self.solver.model_value(Lit::pos(x))) != l.is_neg() {
                v |= 1 << i;
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustively check a binary blasted op against a reference over all
    /// small operand values.
    fn check2(
        width: u32,
        f: impl Fn(&mut Blaster, &BV, &BV) -> BV,
        reference: impl Fn(u64, u64) -> u64,
    ) {
        let mut bl = Blaster::new();
        let a = bl.bv_fresh(width);
        let b = bl.bv_fresh(width);
        let out = f(&mut bl, &a, &b);
        let m = if width >= 64 {
            u64::MAX
        } else {
            (1 << width) - 1
        };
        for av in 0..=m.min(15) {
            for bv in 0..=m.min(15) {
                let mut assum = Vec::new();
                for (i, &l) in a.iter().enumerate() {
                    assum.push(if av >> i & 1 != 0 { l } else { l.flip() });
                }
                for (i, &l) in b.iter().enumerate() {
                    assum.push(if bv >> i & 1 != 0 { l } else { l.flip() });
                }
                // out == reference(a, b) is SAT and out != reference(a, b)
                // is UNSAT; the first query encodes `out`'s cone.
                let want = bl.bv_const(reference(av, bv) & m, out.len() as u32);
                let same = bl.bv_eq(&out, &want);
                assum.push(same);
                assert_eq!(bl.solve(&assum, Budget::UNLIMITED), SatResult::Sat);
                assert_eq!(
                    (bl.model_bv(&a), bl.model_bv(&b)),
                    (av, bv),
                    "a={av} b={bv} w={width}"
                );
                *assum.last_mut().unwrap() = same.flip();
                assert_eq!(
                    bl.solve(&assum, Budget::UNLIMITED),
                    SatResult::Unsat,
                    "a={av} b={bv} w={width}"
                );
            }
        }
    }

    #[test]
    fn adder_matches_reference() {
        check2(4, |bl, a, b| bl.bv_add(a, b), |a, b| a.wrapping_add(b));
    }

    #[test]
    fn subtractor_matches_reference() {
        check2(4, |bl, a, b| bl.bv_sub(a, b), |a, b| a.wrapping_sub(b));
    }

    #[test]
    fn multiplier_matches_reference() {
        check2(4, |bl, a, b| bl.bv_mul(a, b), |a, b| a.wrapping_mul(b));
    }

    #[test]
    fn shifts_match_reference() {
        check2(
            4,
            |bl, a, b| bl.bv_sll(a, b),
            |a, b| if b >= 4 { 0 } else { a << b },
        );
        check2(
            4,
            |bl, a, b| bl.bv_srl(a, b),
            |a, b| if b >= 4 { 0 } else { a >> b },
        );
        check2(
            4,
            |bl, a, b| bl.bv_sra(a, b),
            |a, b| {
                let sa = (a as i64) << 60 >> 60; // sign-extend 4 bits
                (sa >> b.min(63)) as u64
            },
        );
    }

    #[test]
    fn comparisons_match_reference() {
        check2(4, |bl, a, b| vec![bl.bv_ult(a, b)], |a, b| u64::from(a < b));
        check2(
            4,
            |bl, a, b| vec![bl.bv_slt(a, b)],
            |a, b| {
                let sx = |v: u64| (v as i64) << 60 >> 60;
                u64::from(sx(a) < sx(b))
            },
        );
        check2(4, |bl, a, b| vec![bl.bv_eq(a, b)], |a, b| u64::from(a == b));
    }

    #[test]
    fn structural_sharing_collapses_identical_terms() {
        let mut bl = Blaster::new();
        let a = bl.bv_fresh(8);
        let b = bl.bv_fresh(8);
        let s1 = bl.bv_add(&a, &b);
        let s2 = bl.bv_add(&a, &b);
        assert_eq!(s1, s2, "identical structure must share literals");
        let d = bl.bv_eq(&s1, &s2);
        assert_eq!(d, bl.tru(), "equality of shared terms folds to true");
    }

    /// xorshift64* stream for the random circuits.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n
        }
    }

    /// Nodes reachable from `roots` through the gate table, the constant
    /// excluded: a recursive walk over a set, independent of the encoder.
    fn cone(bl: &Blaster, roots: &[Lit], seen: &mut std::collections::BTreeSet<u32>) {
        for &r in roots {
            if r.var() != 0 && seen.insert(r.var()) {
                cone(bl, bl.gates[r.var() as usize].operands(), seen);
            }
        }
    }

    /// The solver's model value of an encoded literal, `None` outside the
    /// encoded cones.
    fn encoded_value(bl: &Blaster, l: Lit) -> Option<bool> {
        let x = bl.var[l.var() as usize];
        (x != UNENCODED).then(|| bl.solver.model_value(Lit::pos(x)) != l.is_neg())
    }

    /// Random hashed circuits over at most 10 inputs, queried under random
    /// assumptions after random assertions. The verdict of every query
    /// matches enumeration over the truth tables the test computes itself,
    /// every SAT model makes the queried literals true when the gates are
    /// evaluated (by those truth tables) at the model's inputs, every
    /// encoded literal's model value is its truth-table value there, and the
    /// solver holds exactly one variable per node of the queried cones plus
    /// the constant.
    #[test]
    fn lazy_encoding_agrees_with_enumeration() {
        let mut sat_models = 0;
        let mut partial_cones = 0;
        for seed in 1..=300u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
            let mut bl = Blaster::new();
            let n_in = 1 + rng.below(10);
            let rows = 1usize << n_in;
            // Every literal the circuit built, with its truth table.
            let mut pool: Vec<(Lit, Vec<bool>)> = vec![(bl.tru(), vec![true; rows])];
            let inputs: Vec<Lit> = (0..n_in).map(|_| bl.fresh()).collect();
            for (i, &x) in inputs.iter().enumerate() {
                pool.push((x, (0..rows).map(|r| r >> i & 1 != 0).collect()));
            }
            for _ in 0..4 + rng.below(60) {
                let pick = |rng: &mut Rng| {
                    let (l, t) = &pool[rng.below(pool.len())];
                    if rng.below(2) == 0 {
                        (*l, t.clone())
                    } else {
                        (l.flip(), t.iter().map(|v| !v).collect())
                    }
                };
                let (a, ta) = pick(&mut rng);
                let (b, tb) = pick(&mut rng);
                let (c, tc) = pick(&mut rng);
                let zip = |f: &dyn Fn(usize) -> bool| (0..rows).map(f).collect::<Vec<bool>>();
                let built = match rng.below(4) {
                    0 => (bl.and(a, b), zip(&|r| ta[r] && tb[r])),
                    1 => (bl.or(a, b), zip(&|r| ta[r] || tb[r])),
                    2 => (bl.xor(a, b), zip(&|r| ta[r] != tb[r])),
                    _ => (bl.ite(a, b, c), zip(&|r| if ta[r] { tb[r] } else { tc[r] })),
                };
                pool.push(built);
            }
            let mut roots: Vec<Lit> = Vec::new();
            let mut holds = vec![true; rows];
            for _ in 0..6 {
                let lit = |rng: &mut Rng| {
                    let (l, t) = &pool[rng.below(pool.len())];
                    (l.flip(), t.iter().map(|v| !v).collect::<Vec<bool>>())
                };
                if rng.below(4) == 0 {
                    let (l, t) = lit(&mut rng);
                    bl.assert_true(l);
                    roots.push(l);
                    holds.iter_mut().zip(&t).for_each(|(h, v)| *h &= v);
                }
                let assumed: Vec<(Lit, Vec<bool>)> =
                    (0..1 + rng.below(3)).map(|_| lit(&mut rng)).collect();
                let assumptions: Vec<Lit> = assumed.iter().map(|(l, _)| *l).collect();
                let want = (0..rows).any(|r| holds[r] && assumed.iter().all(|(_, t)| t[r]));
                let got = bl.solve(&assumptions, Budget::UNLIMITED);
                assert_eq!(
                    got,
                    if want {
                        SatResult::Sat
                    } else {
                        SatResult::Unsat
                    },
                    "seed {seed}: verdict differs from enumeration"
                );
                roots.extend(&assumptions);
                let mut seen = std::collections::BTreeSet::new();
                cone(&bl, &roots, &mut seen);
                assert_eq!(
                    bl.solver().num_vars() as usize,
                    seen.len() + 1,
                    "seed {seed}: encoded more or less than the queried cones"
                );
                partial_cones += usize::from(seen.len() + 1 < bl.num_gates());
                if got != SatResult::Sat {
                    continue;
                }
                sat_models += 1;
                let row = bl.model_bv(&inputs) as usize;
                assert!(holds[row], "seed {seed}: model violates an assertion");
                for (l, t) in &assumed {
                    assert!(t[row], "seed {seed}: model falsifies assumption {l:?}");
                }
                for (l, t) in &pool {
                    if let Some(v) = encoded_value(&bl, *l) {
                        assert_eq!(v, t[row], "seed {seed}: {l:?}");
                    }
                }
            }
        }
        // The checks had teeth: models were read, and queries left gates
        // unencoded.
        assert!(
            sat_models > 300 && partial_cones > 300,
            "{sat_models} {partial_cones}"
        );
    }
}
