//! The IR object graph: operations, SSA values, blocks and regions, all owned
//! by a [`Module`].
//!
//! The design follows MLIR: an *operation* has operands, typed results, named
//! attributes, nested *regions*; a region holds *blocks*; a block holds block
//! arguments and an ordered list of operations. A [`Module`] owns the arenas
//! for all four entity kinds plus an ordered list of top-level operations
//! (HIR functions).
//!
//! All mutation goes through `Module` methods so that use-def chains stay
//! consistent.

use crate::arena::{Arena, Id};
use crate::attributes::{AttrMap, Attribute};
use crate::location::Location;
use crate::types::Type;
use std::fmt;
use std::sync::Arc;

/// Id of an operation.
pub type OpId = Id<OpData>;
/// Id of an SSA value (operation result or block argument).
pub type ValueId = Id<ValueData>;
/// Id of a block.
pub type BlockId = Id<BlockData>;
/// Id of a region.
pub type RegionId = Id<RegionData>;

/// Fully-qualified operation name, e.g. `hir.for`.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpName(Arc<str>);

impl OpName {
    pub fn new(full: impl AsRef<str>) -> Self {
        OpName(Arc::from(full.as_ref()))
    }

    /// The full `dialect.op` string.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The dialect prefix (`hir` in `hir.for`); empty if unqualified.
    pub fn dialect(&self) -> &str {
        self.0.split_once('.').map_or("", |(d, _)| d)
    }

    /// The op suffix (`for` in `hir.for`).
    pub fn op(&self) -> &str {
        self.0.split_once('.').map_or(&self.0, |(_, o)| o)
    }
}

impl fmt::Display for OpName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}
impl fmt::Debug for OpName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}
impl From<&str> for OpName {
    fn from(s: &str) -> Self {
        OpName::new(s)
    }
}

/// How a value came to exist.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValueDef {
    /// The `index`-th result of an operation.
    OpResult { op: OpId, index: usize },
    /// The `index`-th argument of a block.
    BlockArg { block: BlockId, index: usize },
}

/// One use of a value: operand `operand_index` of `op`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Use {
    pub op: OpId,
    pub operand_index: usize,
}

/// Payload of an SSA value.
#[derive(Clone, Debug)]
pub struct ValueData {
    ty: Type,
    def: ValueDef,
    uses: Vec<Use>,
}

impl ValueData {
    pub fn ty(&self) -> &Type {
        &self.ty
    }
    pub fn def(&self) -> ValueDef {
        self.def
    }
    pub fn uses(&self) -> &[Use] {
        &self.uses
    }
}

/// Payload of an operation.
#[derive(Clone, Debug)]
pub struct OpData {
    name: OpName,
    operands: Vec<ValueId>,
    results: Vec<ValueId>,
    attrs: AttrMap,
    regions: Vec<RegionId>,
    loc: Location,
    parent: Option<BlockId>,
}

impl OpData {
    pub fn name(&self) -> &OpName {
        &self.name
    }
    pub fn operands(&self) -> &[ValueId] {
        &self.operands
    }
    pub fn results(&self) -> &[ValueId] {
        &self.results
    }
    pub fn attrs(&self) -> &AttrMap {
        &self.attrs
    }
    pub fn attr(&self, key: &str) -> Option<&Attribute> {
        self.attrs.get(key)
    }
    pub fn regions(&self) -> &[RegionId] {
        &self.regions
    }
    pub fn loc(&self) -> &Location {
        &self.loc
    }
    /// The block containing this op, or `None` for top-level ops.
    pub fn parent(&self) -> Option<BlockId> {
        self.parent
    }
}

/// Payload of a block.
#[derive(Clone, Debug)]
pub struct BlockData {
    args: Vec<ValueId>,
    ops: Vec<OpId>,
    parent: RegionId,
}

impl BlockData {
    pub fn args(&self) -> &[ValueId] {
        &self.args
    }
    pub fn ops(&self) -> &[OpId] {
        &self.ops
    }
    pub fn parent(&self) -> RegionId {
        self.parent
    }
}

/// Payload of a region.
#[derive(Clone, Debug)]
pub struct RegionData {
    blocks: Vec<BlockId>,
    parent: OpId,
}

impl RegionData {
    pub fn blocks(&self) -> &[BlockId] {
        &self.blocks
    }
    pub fn parent(&self) -> OpId {
        self.parent
    }
}

/// Owner of the whole IR graph.
///
/// # Examples
///
/// ```
/// use ir::{Module, Type, Attribute, Location};
///
/// let mut m = Module::new();
/// let c = m.create_op(
///     "hir.constant",
///     vec![],
///     vec![Type::index()],
///     [("value".to_string(), Attribute::index(7))].into_iter().collect(),
///     Location::unknown(),
/// );
/// m.push_top(c);
/// assert_eq!(m.op(c).results().len(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Module {
    ops: Arena<OpData>,
    values: Arena<ValueData>,
    blocks: Arena<BlockData>,
    regions: Arena<RegionData>,
    top: Vec<OpId>,
}

impl Module {
    pub fn new() -> Self {
        Self::default()
    }

    // ---------------------------------------------------------------- reads

    pub fn op(&self, id: OpId) -> &OpData {
        self.ops.get(id)
    }
    pub fn value(&self, id: ValueId) -> &ValueData {
        self.values.get(id)
    }
    pub fn block(&self, id: BlockId) -> &BlockData {
        self.blocks.get(id)
    }
    pub fn region(&self, id: RegionId) -> &RegionData {
        self.regions.get(id)
    }

    /// Whether `id` still refers to a live operation.
    pub fn is_live(&self, id: OpId) -> bool {
        self.ops.contains(id)
    }

    /// Top-level operations in order (e.g. HIR functions).
    pub fn top_ops(&self) -> &[OpId] {
        &self.top
    }

    /// Type of a value.
    pub fn value_type(&self, v: ValueId) -> Type {
        self.values.get(v).ty.clone()
    }

    /// Number of live operations in the module.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// The operation defining `v`, if it is an op result.
    pub fn defining_op(&self, v: ValueId) -> Option<OpId> {
        match self.value(v).def {
            ValueDef::OpResult { op, .. } => Some(op),
            ValueDef::BlockArg { .. } => None,
        }
    }

    /// The region's parent operation, walking up from a block.
    pub fn block_parent_op(&self, b: BlockId) -> OpId {
        let r = self.block(b).parent;
        self.region(r).parent
    }

    /// Exclusive upper bound on op slot indices ([`crate::arena::Id::index`]),
    /// for side tables indexed by op.
    pub(crate) fn op_slot_bound(&self) -> usize {
        self.ops.slot_bound()
    }

    /// Iterate over every live op id (unordered).
    pub fn all_ops(&self) -> impl Iterator<Item = OpId> + '_ {
        self.ops.iter().map(|(id, _)| id)
    }

    // ------------------------------------------------------------- creation

    /// Create a detached operation with fresh result values.
    ///
    /// The op must subsequently be placed with [`Module::push_top`],
    /// [`Module::append_op`] or [`Module::insert_op`].
    pub fn create_op(
        &mut self,
        name: impl Into<OpName>,
        operands: Vec<ValueId>,
        result_types: Vec<Type>,
        attrs: AttrMap,
        loc: Location,
    ) -> OpId {
        let id = self.ops.alloc(OpData {
            name: name.into(),
            operands: operands.clone(),
            results: Vec::new(),
            attrs,
            regions: Vec::new(),
            loc,
            parent: None,
        });
        for (i, &v) in operands.iter().enumerate() {
            self.values.get_mut(v).uses.push(Use {
                op: id,
                operand_index: i,
            });
        }
        let results: Vec<ValueId> = result_types
            .into_iter()
            .enumerate()
            .map(|(index, ty)| {
                self.values.alloc(ValueData {
                    ty,
                    def: ValueDef::OpResult { op: id, index },
                    uses: Vec::new(),
                })
            })
            .collect();
        self.ops.get_mut(id).results = results;
        id
    }

    /// Add an empty region to `op`, returning its id.
    pub fn add_region(&mut self, op: OpId) -> RegionId {
        let r = self.regions.alloc(RegionData {
            blocks: Vec::new(),
            parent: op,
        });
        self.ops.get_mut(op).regions.push(r);
        r
    }

    /// Append a block with the given argument types to a region.
    pub fn add_block(&mut self, region: RegionId, arg_types: Vec<Type>) -> BlockId {
        let b = self.blocks.alloc(BlockData {
            args: Vec::new(),
            ops: Vec::new(),
            parent: region,
        });
        let args: Vec<ValueId> = arg_types
            .into_iter()
            .enumerate()
            .map(|(index, ty)| {
                self.values.alloc(ValueData {
                    ty,
                    def: ValueDef::BlockArg { block: b, index },
                    uses: Vec::new(),
                })
            })
            .collect();
        self.blocks.get_mut(b).args = args;
        self.regions.get_mut(region).blocks.push(b);
        b
    }

    /// Place a detached op at module top level.
    ///
    /// # Panics
    /// Panics if the op is already placed.
    pub fn push_top(&mut self, op: OpId) {
        assert!(self.op(op).parent.is_none(), "op is already inside a block");
        self.top.push(op);
    }

    /// Append a detached op to the end of `block`.
    pub fn append_op(&mut self, block: BlockId, op: OpId) {
        assert!(self.op(op).parent.is_none(), "op is already inside a block");
        self.ops.get_mut(op).parent = Some(block);
        self.blocks.get_mut(block).ops.push(op);
    }

    /// Insert a detached op into `block` at position `index`.
    pub fn insert_op(&mut self, block: BlockId, index: usize, op: OpId) {
        assert!(self.op(op).parent.is_none(), "op is already inside a block");
        self.ops.get_mut(op).parent = Some(block);
        self.blocks.get_mut(block).ops.insert(index, op);
    }

    /// Insert a detached op immediately before `before` in its block.
    ///
    /// # Panics
    /// Panics if `before` is not inside a block.
    pub fn insert_op_before(&mut self, before: OpId, op: OpId) {
        let block = self
            .op(before)
            .parent
            .expect("anchor op has no parent block");
        let index = self.position_in_block(before);
        self.insert_op(block, index, op);
    }

    /// Position of an op inside its parent block: a scan of that block.
    pub fn position_in_block(&self, op: OpId) -> usize {
        let block = self.op(op).parent.expect("op has no parent block");
        self.block(block)
            .ops
            .iter()
            .position(|&o| o == op)
            .expect("op missing from its parent block list")
    }

    // ------------------------------------------------------------- mutation

    /// Replace operand `index` of `op` with `value`, updating use lists.
    pub fn set_operand(&mut self, op: OpId, index: usize, value: ValueId) {
        let old = self.ops.get(op).operands[index];
        if old == value {
            return;
        }
        self.values
            .get_mut(old)
            .uses
            .retain(|u| !(u.op == op && u.operand_index == index));
        self.values.get_mut(value).uses.push(Use {
            op,
            operand_index: index,
        });
        self.ops.get_mut(op).operands[index] = value;
    }

    /// Replace every use of `old` with `new`.
    pub fn replace_all_uses(&mut self, old: ValueId, new: ValueId) {
        assert_ne!(old, new, "replacing a value with itself");
        let uses = std::mem::take(&mut self.values.get_mut(old).uses);
        for u in &uses {
            self.ops.get_mut(u.op).operands[u.operand_index] = new;
        }
        self.values.get_mut(new).uses.extend(uses);
    }

    /// Set (or overwrite) a named attribute on an op.
    pub fn set_attr(&mut self, op: OpId, key: impl Into<String>, value: Attribute) {
        self.ops.get_mut(op).attrs.insert(key.into(), value);
    }

    /// Remove a named attribute from an op.
    pub fn remove_attr(&mut self, op: OpId, key: &str) -> Option<Attribute> {
        self.ops.get_mut(op).attrs.remove(key)
    }

    /// Set an op's location (the parser reads it after the op's regions).
    pub(crate) fn set_loc(&mut self, op: OpId, loc: Location) {
        self.ops.get_mut(op).loc = loc;
    }

    /// Change the type of a value in place (used by precision optimization).
    pub fn set_value_type(&mut self, v: ValueId, ty: Type) {
        self.values.get_mut(v).ty = ty;
    }

    /// Detach `op` from its parent block (or the top level) without erasing.
    pub fn detach_op(&mut self, op: OpId) {
        match self.op(op).parent {
            Some(block) => {
                self.blocks.get_mut(block).ops.retain(|&o| o != op);
                self.ops.get_mut(op).parent = None;
            }
            None => self.top.retain(|&o| o != op),
        }
    }

    /// Erase an op, its regions, and its results.
    ///
    /// # Panics
    /// Panics if any result still has uses.
    pub fn erase_op(&mut self, op: OpId) {
        for &r in &self.op(op).results.clone() {
            assert!(
                self.value(r).uses.is_empty(),
                "erasing op {} whose result still has uses",
                self.op(op).name()
            );
        }
        self.detach_op(op);
        self.erase_op_inner(op);
    }

    /// Erase a batch of ops (each with use-free results) in one sweep.
    ///
    /// Equivalent to [`Module::erase_op`] on each, but every affected block
    /// list is compacted exactly once, so erasing `k` ops out of a block of
    /// `n` costs O(n + k) instead of the O(n·k) that per-op removal pays.
    /// Bulk-erasing passes (CSE, DCE) depend on this for linear hot paths.
    ///
    /// # Panics
    /// Panics if any result of a listed op still has uses after the whole
    /// batch is accounted for (uses *between* listed ops are fine only when
    /// the user is also erasing the user, which `erase_op` would reject too).
    pub fn erase_ops(&mut self, ops: &[OpId]) {
        if ops.is_empty() {
            return;
        }
        let doomed: std::collections::HashSet<OpId> = ops.iter().copied().collect();
        for &op in &doomed {
            for &r in self.op(op).results() {
                assert!(
                    self.value(r).uses.iter().all(|u| doomed.contains(&u.op)),
                    "erasing op {} whose result still has uses",
                    self.op(op).name()
                );
            }
        }
        let parents: std::collections::HashSet<Option<BlockId>> =
            doomed.iter().map(|&op| self.op(op).parent).collect();
        for parent in parents {
            match parent {
                Some(block) => self
                    .blocks
                    .get_mut(block)
                    .ops
                    .retain(|o| !doomed.contains(o)),
                None => self.top.retain(|o| !doomed.contains(o)),
            }
        }
        // Remove all doomed uses from each operand value in ONE retain per
        // value: per-op removal would rescan a shared operand's use list
        // (think a constant feeding thousands of ops) once per erased op.
        let operand_values: std::collections::HashSet<ValueId> = doomed
            .iter()
            .flat_map(|&op| self.op(op).operands().iter().copied())
            .collect();
        for v in operand_values {
            self.values
                .get_mut(v)
                .uses
                .retain(|u| !doomed.contains(&u.op));
        }
        for &op in &doomed {
            // An op nested in another doomed op's region is erased by the
            // recursive sweep before we reach it here.
            if !self.ops.contains(op) {
                continue;
            }
            let data = self.ops.get(op);
            let results = data.results.clone();
            let regions = data.regions.clone();
            for r in regions {
                self.erase_region_inner(r);
            }
            for v in results {
                self.values.erase(v);
            }
            self.ops.erase(op);
        }
    }

    fn erase_op_inner(&mut self, op: OpId) {
        let data = self.ops.get(op);
        let operands = data.operands.clone();
        let results = data.results.clone();
        let regions = data.regions.clone();
        for (i, v) in operands.into_iter().enumerate() {
            // A batch erase may have already dropped the defining op (and its
            // result values) of an operand that only doomed ops consumed.
            if !self.values.contains(v) {
                continue;
            }
            self.values
                .get_mut(v)
                .uses
                .retain(|u| !(u.op == op && u.operand_index == i));
        }
        for r in regions {
            self.erase_region_inner(r);
        }
        for v in results {
            self.values.erase(v);
        }
        self.ops.erase(op);
    }

    fn erase_region_inner(&mut self, region: RegionId) {
        for b in self.regions.get(region).blocks.clone() {
            // Erase ops in reverse so later uses disappear before defs.
            for o in self.blocks.get(b).ops.clone().into_iter().rev() {
                self.erase_op_inner(o);
            }
            for a in self.blocks.get(b).args.clone() {
                self.values.erase(a);
            }
            self.blocks.erase(b);
        }
        self.regions.erase(region);
    }

    // ------------------------------------------------------- extract/splice

    /// Move the op tree rooted at `root` out of `src` into this module,
    /// returning the new (detached) root op id. `src` keeps only emptied
    /// shells of the moved entities, so callers drop it afterwards.
    ///
    /// The tree must be *isolated from above*: every operand must be defined
    /// by an op or block argument inside the tree (HIR functions satisfy
    /// this; cross-function references go through symbol attributes).
    ///
    /// Ops, values, regions and blocks are allocated in pre-order, and every
    /// use list is rebuilt in pre-order of its users. Codegen names memories
    /// after arena indices, so this order is part of the emitted Verilog.
    ///
    /// # Panics
    /// Panics if an operand of a moved op is defined outside the tree.
    fn move_op_from(&mut self, src: &mut Module, root: OpId) -> OpId {
        let mut value_map = vec![None; src.values.slot_bound()];
        let mut operands = Vec::new();
        let new_root = self.move_structure(src, root, None, &mut value_map, &mut operands);
        // Second pass: operands may reference results of ops moved later in
        // the same region (use-before-def across blocks), so the whole tree's
        // values must exist before any operand list is resolved.
        for (op, mut list) in operands {
            for (operand_index, v) in list.iter_mut().enumerate() {
                *v = value_map[v.index()].expect("moved op tree is not isolated from above");
                self.values.get_mut(*v).uses.push(Use { op, operand_index });
            }
            self.ops.get_mut(op).operands = list;
        }
        new_root
    }

    /// First move pass: ops, results, regions, blocks and block arguments,
    /// recording old→new value mappings. Each new op's source operand list
    /// is queued, in pre-order, for pass two.
    fn move_structure(
        &mut self,
        src: &mut Module,
        op: OpId,
        parent: Option<BlockId>,
        value_map: &mut [Option<ValueId>],
        operands: &mut Vec<(OpId, Vec<ValueId>)>,
    ) -> OpId {
        let sd = src.ops.get_mut(op);
        let mut results = std::mem::take(&mut sd.results);
        let regions = std::mem::take(&mut sd.regions);
        let id = self.ops.alloc(OpData {
            name: sd.name.clone(),
            operands: Vec::new(),
            results: Vec::new(),
            attrs: std::mem::take(&mut sd.attrs),
            regions: Vec::new(),
            loc: std::mem::take(&mut sd.loc),
            parent,
        });
        operands.push((id, std::mem::take(&mut sd.operands)));
        self.move_values(src, &mut results, value_map, |index| ValueDef::OpResult {
            op: id,
            index,
        });
        self.ops.get_mut(id).results = results;
        for r in regions {
            let nr = self.add_region(id);
            for b in std::mem::take(&mut src.regions.get_mut(r).blocks) {
                let sb = src.blocks.get_mut(b);
                let mut args = std::mem::take(&mut sb.args);
                let mut ops = std::mem::take(&mut sb.ops);
                let nb = self.blocks.alloc(BlockData {
                    args: Vec::new(),
                    ops: Vec::new(),
                    parent: nr,
                });
                self.move_values(src, &mut args, value_map, |index| ValueDef::BlockArg {
                    block: nb,
                    index,
                });
                self.regions.get_mut(nr).blocks.push(nb);
                for o in &mut ops {
                    *o = self.move_structure(src, *o, Some(nb), value_map, operands);
                }
                let nbd = self.blocks.get_mut(nb);
                nbd.args = args;
                nbd.ops = ops;
            }
        }
        id
    }

    /// Allocate a fresh value for each of `values` in order, record the
    /// mapping, and rewrite `values` to the new ids.
    fn move_values(
        &mut self,
        src: &Module,
        values: &mut [ValueId],
        value_map: &mut [Option<ValueId>],
        def: impl Fn(usize) -> ValueDef,
    ) {
        for (index, v) in values.iter_mut().enumerate() {
            let nv = self.values.alloc(ValueData {
                ty: src.value(*v).ty.clone(),
                def: def(index),
                uses: Vec::new(),
            });
            value_map[v.index()] = Some(nv);
            *v = nv;
        }
    }

    /// Split each top-level op into its own freshly-arena'd module, in
    /// module order. Sub-modules own all their storage, so a worker pool can
    /// run pass pipelines over them concurrently with no shared state.
    pub fn split_top(&self) -> Vec<Module> {
        self.clone().split_top_owned()
    }

    /// [`Module::split_top`] that moves the ops instead of copying them.
    pub(crate) fn split_top_owned(mut self) -> Vec<Module> {
        std::mem::take(&mut self.top)
            .into_iter()
            .map(|t| {
                let mut sub = Module::new();
                let op = sub.move_op_from(&mut self, t);
                sub.top.push(op);
                sub
            })
            .collect()
    }

    /// Rebuild a module from per-function sub-modules, splicing every
    /// sub-module's top-level ops back in slice order. Inverse of
    /// [`Module::split_top`] (up to arena ids; the printed form is
    /// identical because value names are assigned positionally).
    pub fn splice_top(subs: &[Module]) -> Module {
        Self::splice_top_owned(subs.to_vec())
    }

    /// [`Module::splice_top`] that moves the ops instead of copying them.
    pub(crate) fn splice_top_owned(subs: Vec<Module>) -> Module {
        let mut m = Module::new();
        for mut sub in subs {
            for t in std::mem::take(&mut sub.top) {
                let op = m.move_op_from(&mut sub, t);
                m.top.push(op);
            }
        }
        m
    }

    // ----------------------------------------------------------------- walk

    /// Pre-order walk of `root` and every op nested in its regions.
    pub fn walk(&self, root: OpId, f: &mut dyn FnMut(OpId)) {
        f(root);
        for &r in self.op(root).regions() {
            for &b in self.region(r).blocks() {
                for &o in self.block(b).ops() {
                    self.walk(o, f);
                }
            }
        }
    }

    /// Post-order walk (children before parents).
    pub fn walk_post(&self, root: OpId, f: &mut dyn FnMut(OpId)) {
        for &r in self.op(root).regions() {
            for &b in self.region(r).blocks() {
                for &o in self.block(b).ops() {
                    self.walk_post(o, f);
                }
            }
        }
        f(root);
    }

    /// Collect, in pre-order, `root` and all nested ops. Useful when the
    /// visitor needs `&mut Module`.
    pub fn collect_ops(&self, root: OpId) -> Vec<OpId> {
        let mut out = Vec::new();
        self.walk(root, &mut |op| out.push(op));
        out
    }

    /// Collect every op in the module, walking all top-level ops.
    pub fn collect_all_ops(&self) -> Vec<OpId> {
        let mut out = Vec::new();
        for &t in &self.top {
            self.walk(t, &mut |op| out.push(op));
        }
        out
    }

    /// Whether `maybe_ancestor` is `op` itself or encloses it via regions.
    pub fn is_ancestor(&self, maybe_ancestor: OpId, op: OpId) -> bool {
        let mut cur = op;
        loop {
            if cur == maybe_ancestor {
                return true;
            }
            match self.op(cur).parent {
                Some(b) => cur = self.block_parent_op(b),
                None => return false,
            }
        }
    }

    /// Find the enclosing op with the given name, starting from `op`'s parent.
    pub fn enclosing_op(&self, op: OpId, name: &str) -> Option<OpId> {
        let mut cur = self.op(op).parent?;
        loop {
            let parent = self.block_parent_op(cur);
            if self.op(parent).name().as_str() == name {
                return Some(parent);
            }
            cur = self.op(parent).parent?;
        }
    }
}

/// Compile-time proof that modules (and thus per-function sub-modules) can
/// move to pass-pipeline worker threads.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Module>()
};

#[cfg(test)]
mod tests {
    use super::*;

    fn mk() -> Module {
        Module::new()
    }

    #[test]
    fn op_name_parsing() {
        let n = OpName::new("hir.mem_read");
        assert_eq!(n.dialect(), "hir");
        assert_eq!(n.op(), "mem_read");
        assert_eq!(n.to_string(), "hir.mem_read");
    }

    #[test]
    fn create_and_use_values() {
        let mut m = mk();
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
        assert_eq!(m.value(v).uses().len(), 2);
        assert_eq!(m.op(add).operands(), &[v, v]);
        assert_eq!(m.defining_op(v), Some(c));
    }

    #[test]
    fn regions_blocks_and_args() {
        let mut m = mk();
        let f = m.create_op(
            "t.func",
            vec![],
            vec![],
            AttrMap::new(),
            Location::unknown(),
        );
        let r = m.add_region(f);
        let b = m.add_block(r, vec![Type::int(8), Type::index()]);
        assert_eq!(m.block(b).args().len(), 2);
        let arg0 = m.block(b).args()[0];
        assert_eq!(m.value_type(arg0), Type::int(8));
        assert_eq!(m.block_parent_op(b), f);
    }

    #[test]
    fn replace_all_uses_moves_use_list() {
        let mut m = mk();
        let a = m.create_op(
            "t.a",
            vec![],
            vec![Type::int(32)],
            AttrMap::new(),
            Location::unknown(),
        );
        let b = m.create_op(
            "t.b",
            vec![],
            vec![Type::int(32)],
            AttrMap::new(),
            Location::unknown(),
        );
        let va = m.op(a).results()[0];
        let vb = m.op(b).results()[0];
        let user = m.create_op(
            "t.use",
            vec![va, va],
            vec![],
            AttrMap::new(),
            Location::unknown(),
        );
        m.replace_all_uses(va, vb);
        assert!(m.value(va).uses().is_empty());
        assert_eq!(m.value(vb).uses().len(), 2);
        assert_eq!(m.op(user).operands(), &[vb, vb]);
    }

    #[test]
    fn erase_op_recursively_erases_region_contents() {
        let mut m = mk();
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
        m.append_op(b, c);
        let v = m.op(c).results()[0];
        let u = m.create_op(
            "t.use",
            vec![v],
            vec![],
            AttrMap::new(),
            Location::unknown(),
        );
        m.append_op(b, u);
        m.push_top(f);
        assert_eq!(m.op_count(), 3);
        m.erase_op(f);
        assert_eq!(m.op_count(), 0);
        assert!(m.top_ops().is_empty());
    }

    #[test]
    #[should_panic(expected = "still has uses")]
    fn erase_used_op_panics() {
        let mut m = mk();
        let c = m.create_op(
            "t.const",
            vec![],
            vec![Type::int(32)],
            AttrMap::new(),
            Location::unknown(),
        );
        let v = m.op(c).results()[0];
        let _u = m.create_op(
            "t.use",
            vec![v],
            vec![],
            AttrMap::new(),
            Location::unknown(),
        );
        m.erase_op(c);
    }

    #[test]
    fn insertion_order_and_position() {
        let mut m = mk();
        let f = m.create_op(
            "t.func",
            vec![],
            vec![],
            AttrMap::new(),
            Location::unknown(),
        );
        let r = m.add_region(f);
        let b = m.add_block(r, vec![]);
        let o1 = m.create_op("t.one", vec![], vec![], AttrMap::new(), Location::unknown());
        let o2 = m.create_op("t.two", vec![], vec![], AttrMap::new(), Location::unknown());
        let o3 = m.create_op(
            "t.three",
            vec![],
            vec![],
            AttrMap::new(),
            Location::unknown(),
        );
        m.append_op(b, o1);
        m.append_op(b, o3);
        m.insert_op_before(o3, o2);
        let names: Vec<_> = m
            .block(b)
            .ops()
            .iter()
            .map(|&o| m.op(o).name().to_string())
            .collect();
        assert_eq!(names, vec!["t.one", "t.two", "t.three"]);
        assert_eq!(m.position_in_block(o2), 1);
    }

    #[test]
    fn position_cache_invalidated_on_layout_change() {
        let mut m = mk();
        let f = m.create_op(
            "t.func",
            vec![],
            vec![],
            AttrMap::new(),
            Location::unknown(),
        );
        let r = m.add_region(f);
        let b = m.add_block(r, vec![]);
        let o1 = m.create_op("t.one", vec![], vec![], AttrMap::new(), Location::unknown());
        let o2 = m.create_op("t.two", vec![], vec![], AttrMap::new(), Location::unknown());
        m.append_op(b, o1);
        m.append_op(b, o2);
        // Prime the cache.
        assert_eq!(m.position_in_block(o1), 0);
        assert_eq!(m.position_in_block(o2), 1);
        // Insert in front: cached positions must shift.
        let o0 = m.create_op(
            "t.zero",
            vec![],
            vec![],
            AttrMap::new(),
            Location::unknown(),
        );
        m.insert_op(b, 0, o0);
        assert_eq!(m.position_in_block(o0), 0);
        assert_eq!(m.position_in_block(o1), 1);
        assert_eq!(m.position_in_block(o2), 2);
        // Detach and re-append: position moves to the end.
        m.detach_op(o0);
        m.append_op(b, o0);
        assert_eq!(m.position_in_block(o1), 0);
        assert_eq!(m.position_in_block(o0), 2);
        // Slot reuse: erase an op, allocate a new one into (possibly) the
        // same slot, place it elsewhere — must not see the stale position.
        m.detach_op(o0);
        m.erase_op(o0);
        let o4 = m.create_op(
            "t.four",
            vec![],
            vec![],
            AttrMap::new(),
            Location::unknown(),
        );
        m.insert_op(b, 0, o4);
        assert_eq!(m.position_in_block(o4), 0);
    }

    #[test]
    fn walk_orders() {
        let mut m = mk();
        let f = m.create_op(
            "t.func",
            vec![],
            vec![],
            AttrMap::new(),
            Location::unknown(),
        );
        let r = m.add_region(f);
        let b = m.add_block(r, vec![]);
        let inner = m.create_op(
            "t.loop",
            vec![],
            vec![],
            AttrMap::new(),
            Location::unknown(),
        );
        let r2 = m.add_region(inner);
        let b2 = m.add_block(r2, vec![]);
        let leaf = m.create_op(
            "t.leaf",
            vec![],
            vec![],
            AttrMap::new(),
            Location::unknown(),
        );
        m.append_op(b2, leaf);
        m.append_op(b, inner);
        m.push_top(f);

        let mut pre = Vec::new();
        m.walk(f, &mut |o| pre.push(m.op(o).name().to_string()));
        assert_eq!(pre, vec!["t.func", "t.loop", "t.leaf"]);

        let mut post = Vec::new();
        m.walk_post(f, &mut |o| post.push(m.op(o).name().to_string()));
        assert_eq!(post, vec!["t.leaf", "t.loop", "t.func"]);
    }

    #[test]
    fn ancestor_queries() {
        let mut m = mk();
        let f = m.create_op(
            "t.func",
            vec![],
            vec![],
            AttrMap::new(),
            Location::unknown(),
        );
        let r = m.add_region(f);
        let b = m.add_block(r, vec![]);
        let leaf = m.create_op(
            "t.leaf",
            vec![],
            vec![],
            AttrMap::new(),
            Location::unknown(),
        );
        m.append_op(b, leaf);
        assert!(m.is_ancestor(f, leaf));
        assert!(!m.is_ancestor(leaf, f));
        assert_eq!(m.enclosing_op(leaf, "t.func"), Some(f));
        assert_eq!(m.enclosing_op(leaf, "t.other"), None);
    }

    /// A two-function module with bodies, block args, nested regions and
    /// operand chains, for clone/split/splice tests.
    fn two_func_module() -> Module {
        let mut m = mk();
        for fname in ["alpha", "beta"] {
            let f = m.create_op(
                "t.func",
                vec![],
                vec![],
                [(
                    crate::symbol::SYM_NAME.to_string(),
                    Attribute::string(fname),
                )]
                .into_iter()
                .collect(),
                Location::file_line_col("split.mlir", 1, 1),
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
            let add = m.create_op(
                "t.add",
                vec![arg, cv],
                vec![Type::int(32)],
                AttrMap::new(),
                Location::unknown(),
            );
            m.append_op(b, add);
            let loop_op = m.create_op(
                "t.loop",
                vec![m.op(add).results()[0]],
                vec![],
                AttrMap::new(),
                Location::unknown(),
            );
            let lr = m.add_region(loop_op);
            let lb = m.add_block(lr, vec![Type::index()]);
            let use_outer = m.create_op(
                "t.use",
                vec![cv, m.block(lb).args()[0]],
                vec![],
                AttrMap::new(),
                Location::unknown(),
            );
            m.append_op(lb, use_outer);
            m.append_op(b, loop_op);
            m.push_top(f);
        }
        m
    }

    #[test]
    fn split_splice_roundtrips_printed_form() {
        let mut m = two_func_module();
        // Leave `alpha`'s constant with a use list out of pre-order
        // (`t.use` before `t.add`), which the rebuild must put back in order.
        let add = m
            .collect_all_ops()
            .into_iter()
            .find(|&o| m.op(o).name().as_str() == "t.add")
            .unwrap();
        let (arg, cv) = (m.op(add).operands()[0], m.op(add).operands()[1]);
        m.set_operand(add, 1, arg);
        m.set_operand(add, 1, cv);
        assert!(m.value(cv).uses()[0].op != add);

        let subs = m.split_top();
        assert_eq!(subs.len(), 2);
        for sub in &subs {
            assert_eq!(sub.top_ops().len(), 1);
        }
        let merged = Module::splice_top(&subs);
        assert_eq!(
            crate::printer::print_module(&m),
            crate::printer::print_module(&merged)
        );
        assert_eq!(m.op_count(), merged.op_count());
        // Rebuilt op ids follow pre-order exactly: codegen names memories
        // after op indices.
        let pre = merged.collect_all_ops();
        assert_eq!(
            pre.iter().map(|o| o.index()).collect::<Vec<_>>(),
            (0..merged.op_count()).collect::<Vec<_>>()
        );
        // Every use list names its users in pre-order.
        for &op in &pre {
            let data = merged.op(op);
            let block_args = data
                .regions()
                .iter()
                .flat_map(|&r| merged.region(r).blocks())
                .flat_map(|&b| merged.block(b).args());
            for &v in data.results().iter().chain(block_args) {
                let users: Vec<_> = merged
                    .value(v)
                    .uses()
                    .iter()
                    .map(|u| (u.op.index(), u.operand_index))
                    .collect();
                assert!(users.windows(2).all(|w| w[0] < w[1]), "{users:?}");
            }
        }
    }

    #[test]
    fn move_op_from_rebuilds_use_def_chains() {
        let m = two_func_module();
        let mut src = m.clone();
        let mut dst = mk();
        let root = dst.move_op_from(&mut src, m.top_ops()[0]);
        dst.push_top(root);
        // Every operand in the moved tree must be a live value whose use
        // list points back at the using op.
        for op in dst.collect_ops(root) {
            for (i, &v) in dst.op(op).operands().iter().enumerate() {
                assert!(dst
                    .value(v)
                    .uses()
                    .iter()
                    .any(|u| u.op == op && u.operand_index == i));
            }
        }
        let mut alone = m.clone();
        alone.erase_op(m.top_ops()[1]);
        assert_eq!(
            crate::printer::print_module(&dst),
            crate::printer::print_module(&alone)
        );
        // The moved tree is fully owned by its new module.
        let ops = dst.collect_ops(root);
        let last = *ops.last().unwrap();
        dst.detach_op(last);
        dst.erase_op(last);
        assert_eq!(dst.op_count(), 4);
    }

    #[test]
    #[should_panic(expected = "isolated from above")]
    fn move_non_isolated_tree_panics() {
        let mut m = mk();
        let c = m.create_op(
            "t.const",
            vec![],
            vec![Type::int(32)],
            AttrMap::new(),
            Location::unknown(),
        );
        m.push_top(c);
        let v = m.op(c).results()[0];
        let user = m.create_op(
            "t.use",
            vec![v],
            vec![],
            AttrMap::new(),
            Location::unknown(),
        );
        m.push_top(user);
        let mut dst = mk();
        // `user` references a value defined outside its own tree.
        dst.move_op_from(&mut m, user);
    }

    #[test]
    fn set_operand_updates_uses() {
        let mut m = mk();
        let a = m.create_op(
            "t.a",
            vec![],
            vec![Type::int(32)],
            AttrMap::new(),
            Location::unknown(),
        );
        let b = m.create_op(
            "t.b",
            vec![],
            vec![Type::int(32)],
            AttrMap::new(),
            Location::unknown(),
        );
        let va = m.op(a).results()[0];
        let vb = m.op(b).results()[0];
        let u = m.create_op(
            "t.use",
            vec![va],
            vec![],
            AttrMap::new(),
            Location::unknown(),
        );
        m.set_operand(u, 0, vb);
        assert!(m.value(va).uses().is_empty());
        assert_eq!(
            m.value(vb).uses(),
            &[Use {
                op: u,
                operand_index: 0
            }]
        );
    }
}
