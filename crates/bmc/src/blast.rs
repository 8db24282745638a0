//! Tseitin bit-blasting: word-level values as vectors of SAT literals.
//!
//! A [`Blaster`] owns the [`Solver`] plus gate caches. Every gate
//! constructor folds constants and structurally identical operands before
//! allocating a variable, and the caches are global across everything built
//! on one blaster — when the optimized and unoptimized sides of a miter
//! compute the same function of the same inputs, they collapse to the *same
//! literal* and their disagreement literal folds to false without the
//! solver ever seeing a clause. This lightweight structural sweeping is
//! what keeps K-cycle miters of mostly-similar designs tractable.
//!
//! Bit vectors ([`BV`]) are LSB-first.

use crate::sat::{Lit, Solver};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A word value: literals, least significant bit first.
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

/// Bit-blasting context. `solver` is public so callers can run queries and
/// read models directly.
pub struct Blaster {
    pub solver: Solver,
    tru: Lit,
    and_cache: FxHashMap<(Lit, Lit), Lit>,
    xor_cache: FxHashMap<(Lit, Lit), Lit>,
    ite_cache: FxHashMap<(Lit, Lit, Lit), Lit>,
    /// Structural-hash statistics: gate lookups served from a cache vs
    /// gates that allocated a fresh variable and clauses.
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
        let mut solver = Solver::new();
        let t = Lit::pos(solver.new_var());
        solver.add_clause(&[t]);
        Blaster {
            solver,
            tru: t,
            and_cache: FxHashMap::default(),
            xor_cache: FxHashMap::default(),
            ite_cache: FxHashMap::default(),
            cache_hits: 0,
            cache_misses: 0,
        }
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

    /// Fresh unconstrained literal.
    pub fn fresh(&mut self) -> Lit {
        Lit::pos(self.solver.new_var())
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
        let x = self.fresh();
        self.solver.add_clause(&[a.flip(), b.flip(), x]);
        self.solver.add_clause(&[a, x.flip()]);
        self.solver.add_clause(&[b, x.flip()]);
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
            let x = self.fresh();
            self.solver.add_clause(&[a.flip(), b.flip(), x.flip()]);
            self.solver.add_clause(&[a, b, x.flip()]);
            self.solver.add_clause(&[a.flip(), b, x]);
            self.solver.add_clause(&[a, b.flip(), x]);
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
        let x = self.fresh();
        self.solver.add_clause(&[c.flip(), t.flip(), x]);
        self.solver.add_clause(&[c.flip(), t, x.flip()]);
        self.solver.add_clause(&[c, e.flip(), x]);
        self.solver.add_clause(&[c, e, x.flip()]);
        self.ite_cache.insert((c, t, e), x);
        x
    }

    /// `a == b` for single literals.
    pub fn lit_eq(&mut self, a: Lit, b: Lit) -> Lit {
        self.xor(a, b).flip()
    }

    /// Force a literal true at the root level.
    pub fn assert_true(&mut self, l: Lit) {
        self.solver.add_clause(&[l]);
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

    /// Read the value of a vector from the solver's current model.
    pub fn model_bv(&self, a: &BV) -> u64 {
        let mut v = 0u64;
        for (i, &l) in a.iter().enumerate() {
            if self.solver.model_value(l) {
                v |= 1 << i;
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::{Budget, SatResult};

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
        // out != reference(a, b) must be UNSAT: encode by asking the solver
        // for any assignment where they differ.
        for av in 0..=m.min(15) {
            for bv in 0..=m.min(15) {
                let mut assum = Vec::new();
                for (i, &l) in a.iter().enumerate() {
                    assum.push(if av >> i & 1 != 0 { l } else { l.flip() });
                }
                for (i, &l) in b.iter().enumerate() {
                    assum.push(if bv >> i & 1 != 0 { l } else { l.flip() });
                }
                assert_eq!(bl.solver.solve(&assum, Budget::UNLIMITED), SatResult::Sat);
                assert_eq!(
                    bl.model_bv(&out),
                    reference(av, bv) & m,
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
}
