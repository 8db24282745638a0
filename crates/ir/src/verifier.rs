//! Structural IR verification: arities, terminators, SSA visibility.
//!
//! Dialect-specific semantic checks (e.g. HIR's schedule verification) are
//! layered on top: first via per-op [`crate::dialect::OpSpec`] verifiers run
//! here, then via whole-module analyses such as `hir-verify`.

use crate::diagnostics::{Diagnostic, DiagnosticEngine};
use crate::dialect::{traits, DialectRegistry};
use crate::module::{BlockId, Module, OpId, ValueDef, ValueId};

/// Verify the whole module. Returns `Ok(())` when no errors were emitted.
///
/// # Errors
/// Emits diagnostics into `diags` and returns `Err(count)` with the number of
/// errors found.
pub fn verify_module(
    module: &Module,
    registry: &DialectRegistry,
    diags: &mut DiagnosticEngine,
) -> Result<(), usize> {
    let before = diags.error_count();
    // Every op's index in its block, numbered once for the dominance test.
    let mut positions = vec![0u32; module.op_slot_bound()];
    for &top in module.top_ops() {
        module.walk(top, &mut |op| {
            for &r in module.op(op).regions() {
                for &b in module.region(r).blocks() {
                    for (i, &o) in module.block(b).ops().iter().enumerate() {
                        positions[o.index()] = i as u32;
                    }
                }
            }
        });
    }
    for &top in module.top_ops() {
        module.walk(top, &mut |op| {
            verify_single_op(module, registry, &positions, op, diags);
        });
    }
    let found = diags.error_count() - before;
    if found == 0 {
        Ok(())
    } else {
        Err(found)
    }
}

fn verify_single_op(
    module: &Module,
    registry: &DialectRegistry,
    positions: &[u32],
    op: OpId,
    diags: &mut DiagnosticEngine,
) {
    let data = module.op(op);
    let name = data.name().clone();

    let spec = registry.spec(name.as_str());
    if let Some(spec) = spec {
        if !spec.operand_arity().check(data.operands().len()) {
            diags.emit(Diagnostic::error(
                data.loc().clone(),
                format!(
                    "'{name}' expects {} operands but has {}",
                    spec.operand_arity(),
                    data.operands().len()
                ),
            ));
        }
        if !spec.result_arity().check(data.results().len()) {
            diags.emit(Diagnostic::error(
                data.loc().clone(),
                format!(
                    "'{name}' expects {} results but has {}",
                    spec.result_arity(),
                    data.results().len()
                ),
            ));
        }
        if !spec.region_arity().check(data.regions().len()) {
            diags.emit(Diagnostic::error(
                data.loc().clone(),
                format!(
                    "'{name}' expects {} regions but has {}",
                    spec.region_arity(),
                    data.regions().len()
                ),
            ));
        }
        // Terminator placement: a TERMINATOR op must be last in its block.
        if spec.has_trait(traits::TERMINATOR) {
            if let Some(parent) = data.parent() {
                let ops = module.block(parent).ops();
                if ops.last() != Some(&op) {
                    diags.emit(Diagnostic::error(
                        data.loc().clone(),
                        format!("'{name}' must terminate its block"),
                    ));
                }
            }
        }
    } else if !name.dialect().is_empty() && registry.dialects().iter().any(|d| d == name.dialect())
    {
        diags.emit(Diagnostic::error(
            data.loc().clone(),
            format!(
                "unregistered operation '{name}' in loaded dialect '{}'",
                name.dialect()
            ),
        ));
    }

    // SSA visibility for each operand.
    for (i, &operand) in data.operands().iter().enumerate() {
        if !value_visible_at(module, positions, operand, op) {
            diags.emit(Diagnostic::error(
                data.loc().clone(),
                format!("operand #{i} of '{name}' does not dominate its use"),
            ));
        }
    }

    // Semantic per-op verifier.
    if let Some(v) = spec.and_then(|s| s.verifier()) {
        v(module, op, diags);
    }
}

/// Whether `value` is visible (dominates) at op `user`.
///
/// Rules for our single-block-per-region IR:
/// * an op result is visible to later ops in the same block, and to anything
///   nested in regions of those later ops;
/// * a block argument is visible to all ops in that block and anything nested
///   within them.
///
/// `positions` holds each op's index in its block (see [`verify_module`]).
fn value_visible_at(module: &Module, positions: &[u32], value: ValueId, user: OpId) -> bool {
    match module.value(value).def() {
        ValueDef::OpResult { op: def_op, .. } => {
            let Some(def_block) = module.op(def_op).parent() else {
                // Top-level op results are visible everywhere below top level.
                return true;
            };
            // Climb ancestors of `user` until one lives in `def_block`.
            let mut cur = user;
            loop {
                match module.op(cur).parent() {
                    Some(b) if b == def_block => {
                        return positions[def_op.index()] < positions[cur.index()];
                    }
                    Some(b) => cur = module.block_parent_op(b),
                    None => return false,
                }
            }
        }
        ValueDef::BlockArg { block, .. } => block_encloses(module, block, user),
    }
}

/// Whether `block` contains `op` directly or transitively.
fn block_encloses(module: &Module, block: BlockId, op: OpId) -> bool {
    let mut cur = op;
    loop {
        match module.op(cur).parent() {
            Some(b) if b == block => return true,
            Some(b) => cur = module.block_parent_op(b),
            None => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::AttrMap;
    use crate::dialect::{Arity, Dialect, OpSpec};
    use crate::location::Location;
    use crate::types::Type;

    fn registry() -> DialectRegistry {
        let mut d = Dialect::new("t");
        d.add_op(OpSpec::new("t.func").with_regions(Arity::Exact(1)));
        d.add_op(
            OpSpec::new("t.add")
                .with_operands(Arity::Exact(2))
                .with_results(Arity::Exact(1)),
        );
        d.add_op(OpSpec::new("t.ret").with_traits(traits::TERMINATOR));
        d.add_op(OpSpec::new("t.const").with_results(Arity::Exact(1)));
        d.add_op(OpSpec::new("t.loop").with_regions(Arity::Exact(1)));
        let mut reg = DialectRegistry::new();
        reg.register(d);
        reg
    }

    #[test]
    fn well_formed_module_verifies() {
        let mut m = Module::new();
        let f = m.create_op(
            "t.func",
            vec![],
            vec![],
            AttrMap::new(),
            Location::unknown(),
        );
        let r = m.add_region(f);
        let b = m.add_block(r, vec![Type::int(32)]);
        let arg = m.block(b).args()[0];
        let add = m.create_op(
            "t.add",
            vec![arg, arg],
            vec![Type::int(32)],
            AttrMap::new(),
            Location::unknown(),
        );
        m.append_op(b, add);
        let ret = m.create_op("t.ret", vec![], vec![], AttrMap::new(), Location::unknown());
        m.append_op(b, ret);
        m.push_top(f);
        let mut diags = DiagnosticEngine::new();
        assert!(
            verify_module(&m, &registry(), &mut diags).is_ok(),
            "{}",
            diags.render()
        );
    }

    #[test]
    fn wrong_operand_count_reported() {
        let mut m = Module::new();
        let f = m.create_op(
            "t.func",
            vec![],
            vec![],
            AttrMap::new(),
            Location::unknown(),
        );
        let r = m.add_region(f);
        let b = m.add_block(r, vec![Type::int(32)]);
        let arg = m.block(b).args()[0];
        let add = m.create_op(
            "t.add",
            vec![arg],
            vec![Type::int(32)],
            AttrMap::new(),
            Location::unknown(),
        );
        m.append_op(b, add);
        m.push_top(f);
        let mut diags = DiagnosticEngine::new();
        assert!(verify_module(&m, &registry(), &mut diags).is_err());
        assert!(diags
            .render()
            .contains("expects exactly 2 operands but has 1"));
    }

    #[test]
    fn terminator_must_be_last() {
        let mut m = Module::new();
        let f = m.create_op(
            "t.func",
            vec![],
            vec![],
            AttrMap::new(),
            Location::unknown(),
        );
        let r = m.add_region(f);
        let b = m.add_block(r, vec![]);
        let ret = m.create_op("t.ret", vec![], vec![], AttrMap::new(), Location::unknown());
        m.append_op(b, ret);
        let c = m.create_op(
            "t.const",
            vec![],
            vec![Type::int(1)],
            AttrMap::new(),
            Location::unknown(),
        );
        m.append_op(b, c);
        m.push_top(f);
        let mut diags = DiagnosticEngine::new();
        assert!(verify_module(&m, &registry(), &mut diags).is_err());
        assert!(diags.render().contains("must terminate its block"));
    }

    #[test]
    fn use_before_def_reported() {
        let mut m = Module::new();
        let f = m.create_op(
            "t.func",
            vec![],
            vec![],
            AttrMap::new(),
            Location::unknown(),
        );
        let r = m.add_region(f);
        let b = m.add_block(r, vec![]);
        let c = m.create_op(
            "t.const",
            vec![],
            vec![Type::int(32)],
            AttrMap::new(),
            Location::unknown(),
        );
        let v = m.op(c).results()[0];
        let add = m.create_op(
            "t.add",
            vec![v, v],
            vec![Type::int(32)],
            AttrMap::new(),
            Location::unknown(),
        );
        // Insert the use BEFORE the def.
        m.append_op(b, add);
        m.append_op(b, c);
        m.push_top(f);
        let mut diags = DiagnosticEngine::new();
        assert!(verify_module(&m, &registry(), &mut diags).is_err());
        assert!(diags.render().contains("does not dominate its use"));
    }

    #[test]
    fn value_from_enclosing_scope_is_visible() {
        let mut m = Module::new();
        let f = m.create_op(
            "t.func",
            vec![],
            vec![],
            AttrMap::new(),
            Location::unknown(),
        );
        let r = m.add_region(f);
        let b = m.add_block(r, vec![Type::int(32)]);
        let arg = m.block(b).args()[0];
        let c = m.create_op(
            "t.const",
            vec![],
            vec![Type::int(32)],
            AttrMap::new(),
            Location::unknown(),
        );
        m.append_op(b, c);
        let cv = m.op(c).results()[0];
        let lp = m.create_op(
            "t.loop",
            vec![],
            vec![],
            AttrMap::new(),
            Location::unknown(),
        );
        m.append_op(b, lp);
        let lr = m.add_region(lp);
        let lb = m.add_block(lr, vec![]);
        // Inner op uses outer block arg and an outer const defined before the loop.
        let add = m.create_op(
            "t.add",
            vec![arg, cv],
            vec![Type::int(32)],
            AttrMap::new(),
            Location::unknown(),
        );
        m.append_op(lb, add);
        m.push_top(f);
        let mut diags = DiagnosticEngine::new();
        assert!(
            verify_module(&m, &registry(), &mut diags).is_ok(),
            "{}",
            diags.render()
        );
    }

    #[test]
    fn value_defined_after_loop_not_visible_inside() {
        let mut m = Module::new();
        let f = m.create_op(
            "t.func",
            vec![],
            vec![],
            AttrMap::new(),
            Location::unknown(),
        );
        let r = m.add_region(f);
        let b = m.add_block(r, vec![]);
        let lp = m.create_op(
            "t.loop",
            vec![],
            vec![],
            AttrMap::new(),
            Location::unknown(),
        );
        m.append_op(b, lp);
        let c = m.create_op(
            "t.const",
            vec![],
            vec![Type::int(32)],
            AttrMap::new(),
            Location::unknown(),
        );
        m.append_op(b, c); // defined after the loop
        let cv = m.op(c).results()[0];
        let lr = m.add_region(lp);
        let lb = m.add_block(lr, vec![]);
        let add = m.create_op(
            "t.add",
            vec![cv, cv],
            vec![Type::int(32)],
            AttrMap::new(),
            Location::unknown(),
        );
        m.append_op(lb, add);
        m.push_top(f);
        let mut diags = DiagnosticEngine::new();
        assert!(verify_module(&m, &registry(), &mut diags).is_err());
    }
}
