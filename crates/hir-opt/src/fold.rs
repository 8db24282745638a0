//! Constant propagation/folding, common subexpression elimination and dead
//! code elimination (paper §6.2).

use hir::dialect::{attrkey, opname};
use hir::ops;
use hir::semantics::const_value;
use ir::{
    traits, AttrMap, Attribute, Module, OpId, Pass, PassContext, PassResult, RewritePattern,
    RewriteStatus, Rewriter, ValueId,
};
use std::collections::HashMap;

/// Fold combinational ops whose operands are all constants.
pub struct FoldConstants;

impl RewritePattern for FoldConstants {
    fn name(&self) -> &str {
        "hir-fold-constants"
    }

    fn match_and_rewrite(&self, op: OpId, rw: &mut Rewriter<'_>) -> RewriteStatus {
        let m = rw.module();
        let Some(kind) = ops::compute_kind(m, op) else {
            return RewriteStatus::NoMatch;
        };
        let operands = m.op(op).operands().iter();
        let Some(ints) = operands
            .map(|&v| const_value(m, v))
            .collect::<Option<Vec<_>>>()
        else {
            return RewriteStatus::NoMatch;
        };
        let folded = match hir::semantics::eval(m, op, kind, &ints) {
            Some(v) => v,
            None => {
                if obs::remarks_enabled() {
                    obs::emit_remark(obs::Remark::missed(
                        "hir-fold-constants",
                        m.op(op).loc().to_string(),
                        format!(
                            "{} not folded: evaluation overflows",
                            m.op(op).name().as_str()
                        ),
                    ));
                }
                return RewriteStatus::NoMatch;
            }
        };
        let result = m.op(op).results()[0];
        let ty = m.value_type(result);
        let loc = m.op(op).loc().clone();
        if obs::remarks_enabled() {
            obs::emit_remark(
                obs::Remark::applied(
                    "hir-fold-constants",
                    loc.to_string(),
                    format!("folded {} to constant {folded}", m.op(op).name().as_str()),
                )
                .arg_int("value", folded),
            );
        }
        let mut attrs = AttrMap::new();
        attrs.insert(attrkey::VALUE.into(), Attribute::Int(folded, ty.clone()));
        let m = rw.module_mut();
        let new_const = m.create_op(opname::CONSTANT, vec![], vec![ty], attrs, loc);
        m.insert_op_before(op, new_const);
        let new_val = m.op(new_const).results()[0];
        rw.replace_op(op, &[new_val]);
        RewriteStatus::Changed
    }
}

/// Algebraic identities: `x + 0`, `x * 1`, `x * 0`, `x & x`, `x | x`, ...
pub struct AlgebraicSimplify;

impl RewritePattern for AlgebraicSimplify {
    fn name(&self) -> &str {
        "hir-algebraic-simplify"
    }

    fn match_and_rewrite(&self, op: OpId, rw: &mut Rewriter<'_>) -> RewriteStatus {
        let m = rw.module();
        let name = m.op(op).name().as_str();
        let operands = m.op(op).operands().to_vec();
        let result = match m.op(op).results().first() {
            Some(&r) => r,
            None => return RewriteStatus::NoMatch,
        };
        // The replacement must preserve the result's type.
        let same_type = |m: &Module, v: ValueId| m.value_type(v) == m.value_type(result);
        let replacement: Option<ValueId> = match name {
            opname::ADD => {
                if const_value(m, operands[1]) == Some(0) && same_type(m, operands[0]) {
                    Some(operands[0])
                } else if const_value(m, operands[0]) == Some(0) && same_type(m, operands[1]) {
                    Some(operands[1])
                } else {
                    None
                }
            }
            opname::SUB => (const_value(m, operands[1]) == Some(0) && same_type(m, operands[0]))
                .then_some(operands[0]),
            opname::MULT => {
                if const_value(m, operands[1]) == Some(1) && same_type(m, operands[0]) {
                    Some(operands[0])
                } else if const_value(m, operands[0]) == Some(1) && same_type(m, operands[1]) {
                    Some(operands[1])
                } else {
                    None
                }
            }
            opname::AND | opname::OR => {
                (operands[0] == operands[1] && same_type(m, operands[0])).then_some(operands[0])
            }
            opname::SHL | opname::SHR => (const_value(m, operands[1]) == Some(0)
                && same_type(m, operands[0]))
            .then_some(operands[0]),
            _ => None,
        };
        match replacement {
            Some(v) => {
                if obs::remarks_enabled() {
                    obs::emit_remark(obs::Remark::applied(
                        "hir-algebraic-simplify",
                        m.op(op).loc().to_string(),
                        format!("{name} simplified away by an algebraic identity"),
                    ));
                }
                rw.replace_op(op, &[v]);
                RewriteStatus::Changed
            }
            None => RewriteStatus::NoMatch,
        }
    }
}

/// Erase pure ops (and unused constants) whose results are all unused.
pub struct Dce;

impl RewritePattern for Dce {
    fn name(&self) -> &str {
        "hir-dce"
    }

    fn match_and_rewrite(&self, op: OpId, rw: &mut Rewriter<'_>) -> RewriteStatus {
        let m = rw.module();
        let name = m.op(op).name().as_str().to_string();
        let erasable = rw.registry().op_has_trait(&name, traits::PURE)
            || name == opname::DELAY
            || name == opname::ALLOC;
        if !erasable {
            return RewriteStatus::NoMatch;
        }
        if m.op(op)
            .results()
            .iter()
            .any(|&r| !m.value(r).uses().is_empty())
        {
            return RewriteStatus::NoMatch;
        }
        if obs::remarks_enabled() {
            obs::emit_remark(obs::Remark::applied(
                "hir-dce",
                m.op(op).loc().to_string(),
                format!("erased dead {name}"),
            ));
        }
        rw.erase_op(op);
        RewriteStatus::Changed
    }
}

/// CSE as a standalone pass: pure ops with identical (name, operands, attrs)
/// in the same visibility scope are merged. Delays sharing (input, time,
/// offset, by) are also merged — the de-duplication step of §6.4.
///
/// Implemented as scoped value numbering (the MLIR CSE strategy): one scope
/// per block, keyed by an allocation-free structural hash of
/// `(name, operand ids, attrs, result type)`. An op is recorded into its
/// block's scope only *after* its regions are visited, so its own result is
/// never visible inside those regions; a lookup that walks the scope chain
/// therefore only ever finds candidates whose results dominate the current
/// op, and no per-candidate visibility query is needed. Hash hits are
/// confirmed by exact structural comparison, so collisions cannot merge
/// distinct ops.
pub struct CsePass;

/// Scoped value-numbering table: hash -> candidates tagged with the scope
/// depth they were recorded at. Leaving a scope pops its insertions.
#[derive(Default)]
struct ValueNumbering {
    table: HashMap<u64, Vec<(usize, OpId, ValueId)>>,
    /// Per-scope undo log of inserted hashes.
    scopes: Vec<Vec<u64>>,
}

impl ValueNumbering {
    fn push_scope(&mut self) {
        self.scopes.push(Vec::new());
    }

    fn pop_scope(&mut self) {
        let inserted = self.scopes.pop().expect("scope underflow");
        let depth = self.scopes.len();
        for h in inserted {
            if let Some(cands) = self.table.get_mut(&h) {
                cands.retain(|&(d, _, _)| d < depth);
                if cands.is_empty() {
                    self.table.remove(&h);
                }
            }
        }
    }

    /// Find a recorded op structurally identical to `op` in any live scope.
    fn lookup(&self, module: &Module, hash: u64, op: OpId) -> Option<ValueId> {
        for &(_, cand, result) in self.table.get(&hash)?.iter() {
            if structurally_equal(module, cand, op) {
                return Some(result);
            }
        }
        None
    }

    fn record(&mut self, hash: u64, op: OpId, result: ValueId) {
        let depth = self.scopes.len() - 1;
        self.table
            .entry(hash)
            .or_default()
            .push((depth, op, result));
        self.scopes.last_mut().expect("no open scope").push(hash);
    }
}

/// Structural CSE key hash: name, operand ids, attributes, result type.
fn structural_hash(module: &Module, op: OpId) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    let data = module.op(op);
    data.name().as_str().hash(&mut h);
    data.operands().hash(&mut h);
    data.attrs().hash(&mut h);
    module.value(data.results()[0]).ty().hash(&mut h);
    h.finish()
}

/// Exact equality on the CSE key, guarding against hash collisions.
fn structurally_equal(module: &Module, a: OpId, b: OpId) -> bool {
    let da = module.op(a);
    let db = module.op(b);
    da.name() == db.name()
        && da.operands() == db.operands()
        && da.attrs() == db.attrs()
        && module.value(da.results()[0]).ty() == module.value(db.results()[0]).ty()
}

/// Record an applied CSE remark for the doomed duplicate `op`.
fn emit_cse_remark(module: &Module, op: OpId) {
    if obs::remarks_enabled() {
        obs::emit_remark(obs::Remark::applied(
            "hir-cse",
            module.op(op).loc().to_string(),
            format!(
                "merged duplicate {} with an identical earlier value",
                module.op(op).name().as_str()
            ),
        ));
    }
}

/// Whether `op` is eligible for CSE: a pure single-result op, or a delay
/// (identical delays on the same input are interchangeable, §6.4).
fn cse_key(module: &Module, registry: &ir::DialectRegistry, op: OpId) -> Option<(u64, ValueId)> {
    let data = module.op(op);
    let name = data.name().as_str();
    if !registry.op_has_trait(name, traits::PURE) && name != opname::DELAY {
        return None;
    }
    if data.results().len() != 1 {
        return None;
    }
    let result = data.results()[0];
    Some((structural_hash(module, op), result))
}

impl CsePass {
    fn visit_block(
        &mut self,
        module: &mut Module,
        registry: &ir::DialectRegistry,
        vn: &mut ValueNumbering,
        block: ir::BlockId,
        doomed: &mut Vec<OpId>,
    ) {
        vn.push_scope();
        for op in module.block(block).ops().to_vec() {
            if let Some((hash, result)) = cse_key(module, registry, op) {
                if let Some(prev_result) = vn.lookup(module, hash, op) {
                    emit_cse_remark(module, op);
                    module.replace_all_uses(result, prev_result);
                    // Erasure is deferred to one batch sweep at the end of
                    // the pass: per-op removal from a block's op list is
                    // linear in the block and would make the pass quadratic.
                    doomed.push(op);
                    continue;
                }
                // Recurse first: the op's own result is not visible inside
                // its own regions. (Pure ops and delays are region-less
                // today, but keep the ordering correct regardless.)
                self.visit_regions(module, registry, vn, op, doomed);
                vn.record(hash, op, result);
            } else {
                self.visit_regions(module, registry, vn, op, doomed);
            }
        }
        vn.pop_scope();
    }

    fn visit_regions(
        &mut self,
        module: &mut Module,
        registry: &ir::DialectRegistry,
        vn: &mut ValueNumbering,
        op: OpId,
        doomed: &mut Vec<OpId>,
    ) {
        for region in module.op(op).regions().to_vec() {
            for block in module.region(region).blocks().to_vec() {
                self.visit_block(module, registry, vn, block, doomed);
            }
        }
    }
}

impl Pass for CsePass {
    fn name(&self) -> &str {
        "hir-cse"
    }

    fn run(&mut self, module: &mut Module, cx: &mut PassContext<'_>) -> PassResult {
        let mut doomed: Vec<OpId> = Vec::new();
        let mut vn = ValueNumbering::default();
        // The global scope holds top-level op results, which are visible
        // everywhere — including inside their own regions — so top-level
        // ops are recorded *before* their regions are visited.
        vn.push_scope();
        for op in module.top_ops().to_vec() {
            if !module.is_live(op) {
                continue;
            }
            if let Some((hash, result)) = cse_key(module, cx.registry, op) {
                if let Some(prev_result) = vn.lookup(module, hash, op) {
                    emit_cse_remark(module, op);
                    module.replace_all_uses(result, prev_result);
                    doomed.push(op);
                    continue;
                }
                vn.record(hash, op, result);
            }
            self.visit_regions(module, cx.registry, &mut vn, op, &mut doomed);
        }
        vn.pop_scope();
        let merges = doomed.len() as u64;
        module.erase_ops(&doomed);
        obs::counter_add("opt", "cse_merges", merges);
        if merges > 0 {
            PassResult::Changed
        } else {
            PassResult::Unchanged
        }
    }
}

/// Greedy canonicalization pass: folding + algebraic identities + DCE.
pub struct CanonicalizePass;

impl Pass for CanonicalizePass {
    fn name(&self) -> &str {
        "hir-canonicalize"
    }

    fn run(&mut self, module: &mut Module, cx: &mut PassContext<'_>) -> PassResult {
        let patterns: Vec<Box<dyn RewritePattern>> = vec![
            Box::new(FoldConstants),
            Box::new(AlgebraicSimplify),
            Box::new(crate::strength::StrengthReduce),
            Box::new(Dce),
        ];
        let stats = ir::apply_patterns_greedily(module, cx.registry, &patterns);
        obs::counter_add("opt", "canonicalize_rewrites", stats.applications as u64);
        if stats.applications > 0 {
            PassResult::Changed
        } else {
            PassResult::Unchanged
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hir::HirBuilder;
    use ir::{DiagnosticEngine, PassManager, Type};

    fn run_cse(m: &mut Module) {
        let registry = hir::hir_registry();
        let mut diags = DiagnosticEngine::new();
        let mut pm = PassManager::new();
        pm.add(CsePass);
        pm.run(m, &registry, &mut diags)
            .unwrap_or_else(|e| panic!("cse failed: {e}\n{}", diags.render()));
    }

    fn count_ops(m: &Module, name: &str) -> usize {
        m.collect_all_ops()
            .into_iter()
            .filter(|&o| m.is_live(o) && m.op(o).name().as_str() == name)
            .count()
    }

    #[test]
    fn cse_does_not_merge_across_sibling_if_branches() {
        let mut hb = HirBuilder::new();
        let f = hb.func("k", &[("x", Type::int(32))], &[]);
        let x = f.args(hb.module())[0];
        let t = f.time_var(hb.module());
        let c = hb.typed_const(1, Type::int(1));
        let i = hb.if_op(c, t, 0, true);
        hb.in_then(i, |hb| {
            hb.add(x, x);
        });
        hb.in_else(i, |hb| {
            hb.add(x, x);
        });
        let mut m = hb.finish();
        assert_eq!(count_ops(&m, hir::opname::ADD), 2);
        run_cse(&mut m);
        // Neither branch's result dominates the other: both must survive.
        assert_eq!(
            count_ops(&m, hir::opname::ADD),
            2,
            "CSE merged values across sibling if branches"
        );
    }

    #[test]
    fn cse_does_not_merge_across_sibling_loops() {
        let mut hb = HirBuilder::new();
        let f = hb.func("k", &[("x", Type::int(32))], &[]);
        let x = f.args(hb.module())[0];
        let t = f.time_var(hb.module());
        let l1 = hb.unroll_for(0, 2, 1, t, 0);
        hb.in_unroll(l1, |hb, _iv, ti| {
            hb.add(x, x);
            hb.yield_at(ti, 1);
        });
        let l2 = hb.unroll_for(0, 2, 1, t, 0);
        hb.in_unroll(l2, |hb, _iv, ti| {
            hb.add(x, x);
            hb.yield_at(ti, 1);
        });
        let mut m = hb.finish();
        run_cse(&mut m);
        assert_eq!(
            count_ops(&m, hir::opname::ADD),
            2,
            "CSE merged values across sibling loop bodies"
        );
    }

    #[test]
    fn cse_merges_loop_body_value_into_ancestor() {
        let mut hb = HirBuilder::new();
        let f = hb.func("k", &[("x", Type::int(32))], &[]);
        let x = f.args(hb.module())[0];
        let t = f.time_var(hb.module());
        let outer = hb.add(x, x); // defined before the loop
        let _ = outer;
        let lp = hb.unroll_for(0, 2, 1, t, 0);
        hb.in_unroll(lp, |hb, _iv, ti| {
            hb.add(x, x); // identical: must merge into the outer def
            hb.yield_at(ti, 1);
        });
        let mut m = hb.finish();
        assert_eq!(count_ops(&m, hir::opname::ADD), 2);
        run_cse(&mut m);
        assert_eq!(
            count_ops(&m, hir::opname::ADD),
            1,
            "cross-region merge into a dominating ancestor must fire"
        );
    }

    #[test]
    fn cse_does_not_merge_later_sibling_into_loop() {
        // A value defined inside a region is not visible after the region.
        let mut hb = HirBuilder::new();
        let f = hb.func("k", &[("x", Type::int(32))], &[]);
        let x = f.args(hb.module())[0];
        let t = f.time_var(hb.module());
        let lp = hb.unroll_for(0, 2, 1, t, 0);
        hb.in_unroll(lp, |hb, _iv, ti| {
            hb.add(x, x);
            hb.yield_at(ti, 1);
        });
        hb.add(x, x); // after the loop: the body def does not dominate it
        let mut m = hb.finish();
        run_cse(&mut m);
        assert_eq!(
            count_ops(&m, hir::opname::ADD),
            2,
            "CSE leaked a region-local value into the enclosing block"
        );
    }
}
