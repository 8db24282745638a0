//! `HirBuilder`: an ergonomic API for constructing HIR designs, used by the
//! paper-listing kernels, the examples and the tests.
//!
//! The builder owns the [`ir::Module`] while building and hands it back via
//! [`HirBuilder::finish`].
//!
//! # Examples
//!
//! The paper's Listing 1 (matrix transpose) reduces to:
//!
//! ```
//! use hir::{HirBuilder, types::{MemrefInfo, Port, MemKind}};
//! use ir::Type;
//!
//! let mut hb = HirBuilder::new();
//! let a = MemrefInfo::packed(&[16, 16], Type::int(32), Port::Read, MemKind::BlockRam);
//! let c = a.with_port(Port::Write);
//! let f = hb.func("transpose", &[("Ai", a.to_type()), ("Co", c.to_type())], &[]);
//! let t = f.time_var(hb.module());
//! let args = f.args(hb.module());
//! let (c0, c16, c1) = (hb.const_val(0), hb.const_val(16), hb.const_val(1));
//! let i_loop = hb.for_loop(c0, c16, c1, t, 1, Type::int(32));
//! hb.in_loop(i_loop, |hb, i, ti| {
//!     let j_loop = hb.for_loop(c0, c16, c1, ti, 1, Type::int(32));
//!     hb.in_loop(j_loop, |hb, j, tj| {
//!         let v = hb.mem_read(args[0], &[i, j], tj, 0);
//!         let j1 = hb.delay(j, 1, tj, 0);
//!         hb.mem_write(v, args[1], &[j1, i], tj, 1);
//!         hb.yield_at(tj, 1);
//!     });
//!     let tf = hir::ops::ForOp::wrap(hb.module(), j_loop.id()).unwrap().result_time(hb.module());
//!     hb.yield_at(tf, 1);
//! });
//! hb.return_(&[]);
//! let module = hb.finish();
//! assert_eq!(module.top_ops().len(), 1);
//! ```

use crate::decl::{self, OpDecl, Ty};
use crate::dialect::{attrkey, opname, CmpPredicate};
use crate::ops::{ForOp, FuncOp, IfOp, UnrollForOp};
use crate::types::{const_type, is_const, time_type, Dim, MemKind, MemrefInfo, Port};
use ir::{AttrMap, Attribute, BlockId, Location, Module, OpId, Type, ValueId};
use std::collections::HashMap;
use std::mem::take;

fn index_array(vals: &[i64]) -> Attribute {
    Attribute::Array(vals.iter().map(|&v| Attribute::index(v as i128)).collect())
}

/// The attributes of a scheduled op at `offset`.
fn at(offset: i64) -> AttrMap {
    let mut attrs = AttrMap::new();
    attrs.insert(attrkey::OFFSET.into(), Attribute::index(offset as i128));
    attrs
}

/// Builder for HIR modules. See module docs for an example.
#[derive(Debug)]
pub struct HirBuilder {
    module: Module,
    /// Insertion stack: innermost block last.
    stack: Vec<BlockId>,
    /// Cached `hir.constant` values for the current function.
    const_cache: HashMap<i128, ValueId>,
    /// Entry block of the current function: constants are hoisted here so
    /// they dominate every use in nested regions.
    entry: Option<BlockId>,
    /// Insertion index for the next hoisted constant.
    const_pos: usize,
    /// Location applied to subsequently created ops.
    loc: Location,
}

impl HirBuilder {
    /// Start a fresh module.
    pub fn new() -> Self {
        HirBuilder {
            module: Module::new(),
            stack: Vec::new(),
            const_cache: HashMap::new(),
            entry: None,
            const_pos: 0,
            loc: Location::unknown(),
        }
    }

    /// Continue building into an existing module.
    pub fn from_module(module: Module) -> Self {
        HirBuilder {
            module,
            stack: Vec::new(),
            const_cache: HashMap::new(),
            entry: None,
            const_pos: 0,
            loc: Location::unknown(),
        }
    }

    /// Read access to the module under construction.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// Finish building and take the module.
    pub fn finish(self) -> Module {
        self.module
    }

    /// Set the source location applied to subsequently created ops.
    pub fn set_loc(&mut self, loc: Location) {
        self.loc = loc;
    }

    fn block(&self) -> BlockId {
        *self
            .stack
            .last()
            .expect("no insertion block: call func() first")
    }

    fn push_op(
        &mut self,
        name: &str,
        operands: Vec<ValueId>,
        results: Vec<Type>,
        attrs: AttrMap,
    ) -> OpId {
        let op = self
            .module
            .create_op(name, operands, results, attrs, self.loc.clone());
        self.module.append_op(self.block(), op);
        op
    }

    /// Create `decl`'s op at the insertion point. Result and body-argument
    /// types follow the declaration; each [`Ty::Written`] slot takes the next
    /// of `written`, and [`Ty::Ports`] takes the rest. Every required region
    /// gets one block, the first with the declared body arguments.
    pub(crate) fn create(
        &mut self,
        decl: &OpDecl,
        operands: Vec<ValueId>,
        mut attrs: AttrMap,
        written: impl IntoIterator<Item = Type>,
    ) -> Result<OpId, String> {
        let mut written = written.into_iter();
        let (mut results, mut body) = (Vec::new(), Vec::new());
        let slots = decl.results.iter().map(|&(_, ty)| ty);
        for ty in slots.chain(decl.variadic_results.map(|(_, _, ty)| ty)) {
            self.push_types(decl, ty, &operands, &mut written, &mut attrs, &mut results)?;
        }
        for &(_, ty) in decl.body {
            self.push_types(decl, ty, &operands, &mut written, &mut attrs, &mut body)?;
        }
        let op = self.push_op(decl.name, operands, results, attrs);
        let regions = match decl.regions {
            ir::Arity::Exact(n) | ir::Arity::AtLeast(n) => n,
            ir::Arity::Any => 0,
        };
        for i in 0..regions {
            let region = self.module.add_region(op);
            self.module
                .add_block(region, if i == 0 { take(&mut body) } else { Vec::new() });
        }
        Ok(op)
    }

    /// Push the types of one result or body-argument slot of `decl` to `out`.
    fn push_types(
        &self,
        decl: &OpDecl,
        ty: Ty,
        operands: &[ValueId],
        written: &mut impl Iterator<Item = Type>,
        attrs: &mut AttrMap,
        out: &mut Vec<Type>,
    ) -> Result<(), String> {
        let m = &self.module;
        match ty {
            Ty::Time => out.push(time_type()),
            Ty::Const => out.push(const_type()),
            Ty::Written => out.extend(written.next()),
            Ty::OfFirstOperand => out.push(m.value_type(operands[0])),
            Ty::MemElem => {
                let ty = m.value_type(operands[0]);
                let info = MemrefInfo::from_type(&ty).ok_or_else(|| {
                    format!("{} memory operand must be a memref, got {ty}", decl.name)
                })?;
                out.push(info.elem);
            }
            Ty::Ports => {
                let ports: Vec<Type> = written.collect();
                let infos: Option<Vec<_>> = ports.iter().map(MemrefInfo::from_type).collect();
                let infos = infos
                    .filter(|i| !i.is_empty())
                    .ok_or("alloc types must be memrefs")?;
                attrs.insert(
                    attrkey::KIND.into(),
                    Attribute::string(infos[0].kind.mnemonic()),
                );
                out.extend(ports);
            }
            // The caller resolves the callee's result types.
            Ty::Callee => out.extend(written.by_ref()),
        }
        Ok(())
    }

    /// [`HirBuilder::create`] for well-typed API calls.
    fn build(
        &mut self,
        decl: &OpDecl,
        operands: Vec<ValueId>,
        attrs: AttrMap,
        written: impl IntoIterator<Item = Type>,
    ) -> OpId {
        self.create(decl, operands, attrs, written)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The first result of a freshly built op.
    fn result(&self, op: OpId) -> ValueId {
        self.module.op(op).results()[0]
    }

    // ------------------------------------------------------------- functions

    /// Begin a function; subsequent ops go into its body until the next
    /// `func`/`extern_func` call. Returns the function handle.
    pub fn func(&mut self, name: &str, args: &[(&str, Type)], result_delays: &[i64]) -> FuncOp {
        let names = args.iter().map(|(n, _)| Attribute::string(*n)).collect();
        let mut attrs = AttrMap::from([(attrkey::ARG_NAMES.into(), Attribute::Array(names))]);
        if !result_delays.is_empty() {
            attrs.insert(attrkey::RESULT_DELAYS.into(), index_array(result_delays));
        }
        let f = self.top_func(name, attrs);
        let region = self.module.add_region(f);
        let mut arg_types: Vec<Type> = args.iter().map(|(_, t)| t.clone()).collect();
        arg_types.push(time_type());
        let entry = self.module.add_block(region, arg_types);
        self.stack.clear();
        self.stack.push(entry);
        self.const_cache.clear();
        self.entry = Some(entry);
        self.const_pos = 0;
        FuncOp(f)
    }

    /// Declare an external (blackbox Verilog) function.
    pub fn extern_func(
        &mut self,
        name: &str,
        arg_types: &[Type],
        result_types: &[Type],
        result_delays: &[i64],
    ) -> FuncOp {
        assert_eq!(
            result_types.len(),
            result_delays.len(),
            "one delay per result"
        );
        let types =
            |ts: &[Type]| Attribute::Array(ts.iter().cloned().map(Attribute::Type).collect());
        let attrs = AttrMap::from([
            (attrkey::EXTERNAL.into(), Attribute::Unit),
            (attrkey::ARG_TYPES.into(), types(arg_types)),
            (attrkey::RESULT_TYPES.into(), types(result_types)),
            (attrkey::RESULT_DELAYS.into(), index_array(result_delays)),
        ]);
        FuncOp(self.top_func(name, attrs))
    }

    /// A new top-level `hir.func` named `name`.
    fn top_func(&mut self, name: &str, mut attrs: AttrMap) -> OpId {
        attrs.insert(ir::SYM_NAME.into(), Attribute::string(name));
        let loc = self.loc.clone();
        let f = self
            .module
            .create_op(opname::FUNC, vec![], vec![], attrs, loc);
        self.module.push_top(f);
        f
    }

    /// Terminate the current function body.
    pub fn return_(&mut self, values: &[ValueId]) {
        self.build(&decl::RETURN, values.to_vec(), AttrMap::new(), []);
    }

    // ------------------------------------------------------------- constants

    /// A `!hir.const` constant (cached per function and hoisted to the
    /// entry block so it dominates uses in every nested region).
    pub fn const_val(&mut self, v: i64) -> ValueId {
        if let Some(&cached) = self.const_cache.get(&(v as i128)) {
            return cached;
        }
        let mut attrs = AttrMap::new();
        attrs.insert(attrkey::VALUE.into(), Attribute::index(v as i128));
        let op = self.module.create_op(
            opname::CONSTANT,
            vec![],
            vec![const_type()],
            attrs,
            self.loc.clone(),
        );
        let entry = self.entry.expect("no function open: call func() first");
        self.module.insert_op(entry, self.const_pos, op);
        self.const_pos += 1;
        let val = self.module.op(op).results()[0];
        self.const_cache.insert(v as i128, val);
        val
    }

    /// A typed integer constant (e.g. an `i32` literal for the datapath).
    pub fn typed_const(&mut self, v: i64, ty: Type) -> ValueId {
        let attrs = AttrMap::from([(attrkey::VALUE.into(), Attribute::Int(v as i128, ty.clone()))]);
        let op = self.build(&decl::CONSTANT, vec![], attrs, [ty]);
        self.result(op)
    }

    // --------------------------------------------------------------- compute

    fn binary_result_type(&self, a: ValueId, b: ValueId) -> Type {
        let ta = self.module.value_type(a);
        let tb = self.module.value_type(b);
        match (is_const(&ta), is_const(&tb)) {
            (true, true) => const_type(),
            (true, false) => tb,
            (false, true) => ta,
            (false, false) => {
                if ta.is_float() {
                    assert_eq!(ta, tb, "float binary op operands must match");
                    return ta;
                }
                let wa = ta.int_width().expect("binary op on non-integer");
                let wb = tb.int_width().expect("binary op on non-integer");
                if wa >= wb {
                    ta
                } else {
                    tb
                }
            }
        }
    }

    /// A combinational op with one result of type `ty`.
    fn compute(
        &mut self,
        decl: &OpDecl,
        operands: Vec<ValueId>,
        attrs: AttrMap,
        ty: Type,
    ) -> ValueId {
        let op = self.build(decl, operands, attrs, [ty]);
        self.result(op)
    }

    fn binary(&mut self, decl: &OpDecl, a: ValueId, b: ValueId) -> ValueId {
        let ty = self.binary_result_type(a, b);
        self.compute(decl, vec![a, b], AttrMap::new(), ty)
    }

    pub fn add(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.binary(&decl::ADD, a, b)
    }
    pub fn sub(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.binary(&decl::SUB, a, b)
    }
    pub fn mult(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.binary(&decl::MULT, a, b)
    }
    pub fn and(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.binary(&decl::AND, a, b)
    }
    pub fn or(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.binary(&decl::OR, a, b)
    }
    pub fn xor(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.binary(&decl::XOR, a, b)
    }
    pub fn shl(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.binary(&decl::SHL, a, b)
    }
    pub fn shr(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.binary(&decl::SHR, a, b)
    }

    pub fn not(&mut self, a: ValueId) -> ValueId {
        let ty = self.module.value_type(a);
        self.compute(&decl::NOT, vec![a], AttrMap::new(), ty)
    }

    pub fn cmp(&mut self, pred: CmpPredicate, a: ValueId, b: ValueId) -> ValueId {
        let attrs = AttrMap::from([(
            attrkey::PREDICATE.into(),
            Attribute::string(pred.mnemonic()),
        )]);
        self.compute(&decl::CMP, vec![a, b], attrs, Type::i1())
    }

    pub fn select(&mut self, cond: ValueId, a: ValueId, b: ValueId) -> ValueId {
        let ty = self.module.value_type(a);
        self.compute(&decl::SELECT, vec![cond, a, b], AttrMap::new(), ty)
    }

    pub fn trunc(&mut self, v: ValueId, ty: Type) -> ValueId {
        self.compute(&decl::TRUNC, vec![v], AttrMap::new(), ty)
    }

    pub fn zext(&mut self, v: ValueId, ty: Type) -> ValueId {
        self.compute(&decl::ZEXT, vec![v], AttrMap::new(), ty)
    }

    pub fn sext(&mut self, v: ValueId, ty: Type) -> ValueId {
        self.compute(&decl::SEXT, vec![v], AttrMap::new(), ty)
    }

    pub fn slice(&mut self, v: ValueId, hi: u32, lo: u32) -> ValueId {
        let attrs = AttrMap::from([
            (attrkey::HI.into(), Attribute::index(hi as i128)),
            (attrkey::LO.into(), Attribute::index(lo as i128)),
        ]);
        self.compute(&decl::SLICE, vec![v], attrs, Type::int(hi - lo + 1))
    }

    // -------------------------------------------------------------- schedule

    /// `hir.delay %v by <by> at %t offset <offset>`.
    pub fn delay(&mut self, v: ValueId, by: i64, t: ValueId, offset: i64) -> ValueId {
        let mut attrs = at(offset);
        attrs.insert(attrkey::BY.into(), Attribute::index(by as i128));
        let op = self.build(&decl::DELAY, vec![v, t], attrs, []);
        self.result(op)
    }

    // ---------------------------------------------------------------- memory

    /// Allocate a tensor with the given dims/elem/kind, one result per port.
    pub fn alloc(
        &mut self,
        dims: &[Dim],
        elem: Type,
        kind: MemKind,
        ports: &[Port],
    ) -> Vec<ValueId> {
        let types: Vec<Type> = ports
            .iter()
            .map(|&p| MemrefInfo::new(dims.to_vec(), elem.clone(), p, kind).to_type())
            .collect();
        let op = self.build(&decl::ALLOC, vec![], AttrMap::new(), types);
        self.module.op(op).results().to_vec()
    }

    /// Convenience: a 1-d or n-d fully packed read+write pair.
    pub fn alloc_rw(&mut self, shape: &[u64], elem: Type, kind: MemKind) -> (ValueId, ValueId) {
        let dims: Vec<Dim> = shape.iter().map(|&n| Dim::Packed(n)).collect();
        let ports = self.alloc(&dims, elem, kind, &[Port::Read, Port::Write]);
        (ports[0], ports[1])
    }

    /// `hir.mem_read %mem[indices] at %t offset <offset>`.
    pub fn mem_read(
        &mut self,
        mem: ValueId,
        indices: &[ValueId],
        t: ValueId,
        offset: i64,
    ) -> ValueId {
        let operands = [&[mem], indices, &[t]].concat();
        let op = self.build(&decl::MEM_READ, operands, at(offset), []);
        self.result(op)
    }

    /// `hir.mem_write %v to %mem[indices] at %t offset <offset>`.
    pub fn mem_write(
        &mut self,
        v: ValueId,
        mem: ValueId,
        indices: &[ValueId],
        t: ValueId,
        offset: i64,
    ) {
        let operands = [&[v, mem], indices, &[t]].concat();
        self.build(&decl::MEM_WRITE, operands, at(offset), []);
    }

    // --------------------------------------------------------------- control

    /// Create a `hir.for` loop. Populate the body with [`HirBuilder::in_loop`].
    pub fn for_loop(
        &mut self,
        lb: ValueId,
        ub: ValueId,
        step: ValueId,
        t: ValueId,
        offset: i64,
        iv_type: Type,
    ) -> ForOp {
        ForOp(self.build(&decl::FOR, vec![lb, ub, step, t], at(offset), [iv_type]))
    }

    /// Build the body of a `hir.for`: the closure receives `(builder,
    /// induction var, iteration time)` and must call
    /// [`HirBuilder::yield_at`] exactly once (anywhere in the body — the
    /// paper's §4.2: textual order carries no meaning).
    pub fn in_loop(&mut self, lp: ForOp, f: impl FnOnce(&mut Self, ValueId, ValueId)) {
        let body = lp.body(&self.module);
        let iv = lp.induction_var(&self.module);
        let ti = lp.iter_time(&self.module);
        self.stack.push(body);
        f(self, iv, ti);
        self.stack.pop();
    }

    /// Create a `hir.unroll_for` loop with static bounds.
    pub fn unroll_for(
        &mut self,
        lb: i64,
        ub: i64,
        step: i64,
        t: ValueId,
        offset: i64,
    ) -> UnrollForOp {
        let mut attrs = at(offset);
        for (key, v) in [(attrkey::LB, lb), (attrkey::UB, ub), (attrkey::STEP, step)] {
            attrs.insert(key.into(), Attribute::index(v as i128));
        }
        UnrollForOp(self.build(&decl::UNROLL_FOR, vec![t], attrs, []))
    }

    /// Build the body of a `hir.unroll_for`.
    pub fn in_unroll(&mut self, lp: UnrollForOp, f: impl FnOnce(&mut Self, ValueId, ValueId)) {
        let body = lp.body(&self.module);
        let iv = lp.induction_var(&self.module);
        let ti = lp.iter_time(&self.module);
        self.stack.push(body);
        f(self, iv, ti);
        self.stack.pop();
    }

    /// `hir.yield at %t offset <offset>`: schedule the next iteration.
    pub fn yield_at(&mut self, t: ValueId, offset: i64) {
        self.build(&decl::YIELD, vec![t], at(offset), []);
    }

    /// `hir.call @callee(args) at %t offset <offset>`. Result types are
    /// resolved from the callee's signature (which must already be defined).
    ///
    /// # Panics
    /// Panics if no function `callee` is defined.
    pub fn call(
        &mut self,
        callee: &str,
        args: &[ValueId],
        t: ValueId,
        offset: i64,
    ) -> Vec<ValueId> {
        let f = FuncOp::find(&self.module, callee)
            .unwrap_or_else(|| panic!("call to undefined function '@{callee}'"));
        let types = f.result_types(&self.module);
        let operands = [args, &[t]].concat();
        let mut attrs = at(offset);
        attrs.insert(attrkey::CALLEE.into(), Attribute::symbol(callee));
        let op = self.build(&decl::CALL, operands, attrs, types);
        self.module.op(op).results().to_vec()
    }

    /// Create a `hir.if`; populate branches with [`HirBuilder::in_then`] /
    /// [`HirBuilder::in_else`].
    pub fn if_op(&mut self, cond: ValueId, t: ValueId, offset: i64, with_else: bool) -> IfOp {
        let ifop = IfOp(self.build(&decl::IF, vec![cond, t], at(offset), []));
        if with_else {
            self.add_else_block(ifop);
        }
        ifop
    }

    /// Build the then-branch of an `hir.if`.
    pub fn in_then(&mut self, ifop: IfOp, f: impl FnOnce(&mut Self)) {
        let block = ifop.then_block(&self.module);
        self.stack.push(block);
        f(self);
        self.stack.pop();
    }

    /// Build the else-branch of an `hir.if`.
    ///
    /// # Panics
    /// Panics if the op was created without an else region.
    pub fn in_else(&mut self, ifop: IfOp, f: impl FnOnce(&mut Self)) {
        let block = ifop
            .else_block(&self.module)
            .expect("if has no else region");
        self.stack.push(block);
        f(self);
        self.stack.pop();
    }

    /// Add an else region to an `hir.if` created without one.
    ///
    /// # Panics
    /// Panics if the op already has an else region.
    pub fn add_else_block(&mut self, ifop: IfOp) -> BlockId {
        assert!(
            ifop.else_block(&self.module).is_none(),
            "hir.if already has an else region"
        );
        self.add_region_block(ifop.id())
    }

    /// Add a region holding one argument-less block to `op`.
    pub(crate) fn add_region_block(&mut self, op: OpId) -> BlockId {
        let region = self.module.add_region(op);
        self.module.add_block(region, vec![])
    }

    // ------------------------------------------------------------ low level

    /// Push an explicit insertion block (parser/tooling use; pair with
    /// [`HirBuilder::pop_block`]).
    pub fn push_block(&mut self, block: BlockId) {
        self.stack.push(block);
    }

    /// Pop the innermost insertion block.
    ///
    /// # Panics
    /// Panics when the stack would become unbalanced (no function open).
    pub fn pop_block(&mut self) {
        assert!(self.stack.len() > 1, "cannot pop the function body block");
        self.stack.pop();
    }

    /// Create an arbitrary HIR op at the insertion point and return its
    /// first result. Escape hatch for parsers and generic tooling.
    ///
    /// # Panics
    /// Panics if the op produces no results.
    pub fn raw_op(
        &mut self,
        name: &str,
        operands: Vec<ValueId>,
        results: Vec<Type>,
        attrs: AttrMap,
    ) -> ValueId {
        let op = self.push_op(name, operands, results, attrs);
        self.module.op(op).results()[0]
    }
}

impl Default for HirBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dialect::hir_registry;
    use ir::DiagnosticEngine;

    #[test]
    fn constants_are_cached_per_function() {
        let mut hb = HirBuilder::new();
        hb.func("a", &[], &[]);
        let c1 = hb.const_val(5);
        let c2 = hb.const_val(5);
        assert_eq!(c1, c2);
        hb.return_(&[]);
        hb.func("b", &[], &[]);
        let c3 = hb.const_val(5);
        assert_ne!(c1, c3, "cache must reset per function");
        hb.return_(&[]);
    }

    #[test]
    fn built_transpose_verifies() {
        // The doc-test example, checked against the structural verifier.
        let mut hb = HirBuilder::new();
        let a = MemrefInfo::packed(&[16, 16], Type::int(32), Port::Read, MemKind::BlockRam);
        let c = a.with_port(Port::Write);
        let f = hb.func(
            "transpose",
            &[("Ai", a.to_type()), ("Co", c.to_type())],
            &[],
        );
        let t = f.time_var(hb.module());
        let args = f.args(hb.module());
        let (c0, c16, c1) = (hb.const_val(0), hb.const_val(16), hb.const_val(1));
        let i_loop = hb.for_loop(c0, c16, c1, t, 1, Type::int(32));
        hb.in_loop(i_loop, |hb, i, ti| {
            let j_loop = hb.for_loop(c0, c16, c1, ti, 1, Type::int(32));
            hb.in_loop(j_loop, |hb, j, tj| {
                let v = hb.mem_read(args[0], &[i, j], tj, 0);
                let j1 = hb.delay(j, 1, tj, 0);
                hb.mem_write(v, args[1], &[j1, i], tj, 1);
                hb.yield_at(tj, 1);
            });
            let tf = j_loop.result_time(hb.module());
            hb.yield_at(tf, 1);
        });
        hb.return_(&[]);
        let module = hb.finish();

        let reg = hir_registry();
        let mut diags = DiagnosticEngine::new();
        assert!(
            ir::verify_module(&module, &reg, &mut diags).is_ok(),
            "verifier errors:\n{}",
            diags.render()
        );
    }

    #[test]
    fn call_resolves_result_types() {
        let mut hb = HirBuilder::new();
        hb.extern_func(
            "mult2stage",
            &[Type::int(32), Type::int(32)],
            &[Type::int(32)],
            &[2],
        );
        let f = hb.func("mac", &[("a", Type::int(32)), ("b", Type::int(32))], &[]);
        let t = f.time_var(hb.module());
        let args = f.args(hb.module());
        let results = hb.call("mult2stage", &[args[0], args[1]], t, 0);
        assert_eq!(results.len(), 1);
        assert_eq!(hb.module().value_type(results[0]), Type::int(32));
        hb.return_(&[]);
    }

    #[test]
    #[should_panic(expected = "undefined function")]
    fn call_to_unknown_function_panics() {
        let mut hb = HirBuilder::new();
        let f = hb.func("f", &[], &[]);
        let t = f.time_var(hb.module());
        hb.call("nope", &[], t, 0);
    }

    #[test]
    fn unroll_for_iterations() {
        let mut hb = HirBuilder::new();
        let f = hb.func("u", &[], &[]);
        let t = f.time_var(hb.module());
        let lp = hb.unroll_for(0, 8, 2, t, 0);
        hb.in_unroll(lp, |hb, _iv, ti| hb.yield_at(ti, 0));
        hb.return_(&[]);
        let m = hb.finish();
        let lp = UnrollForOp::wrap(&m, m.collect_all_ops()[1]).unwrap();
        assert_eq!(lp.iterations(&m), vec![0, 2, 4, 6]);
    }
}
