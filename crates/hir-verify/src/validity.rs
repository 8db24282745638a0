//! Value-validity analysis (paper §6.1).
//!
//! Every SSA value of primitive type in HIR is valid at a *specific time
//! instant*: a root time variable plus a static offset. This module computes
//! that validity for every value in a function and reports *schedule errors*
//! — operands consumed at a cycle where they do not hold valid data — in the
//! style of the paper's Figures 1b and 2b:
//!
//! ```text
//! test/HIR/err_add.mlir:13:5: error:
//! Schedule error: mismatched delay (0 vs 1) in address 0!
//! ```
//!
//! ## The model
//!
//! * A value defined at `(root, d)` inside a loop with static initiation
//!   interval `II` stays valid for the window `[d, d + II)` — the datapath
//!   registers are rewritten every `II` cycles (this is exactly why Figure 1
//!   is an error at `II = 1` but would be legal at `II = 2`).
//! * At function scope and for dynamic-II loops the window is 1 cycle: the
//!   conservative assumption that the scope may be re-entered every cycle.
//! * A value whose root belongs to a *strictly enclosing* scope is valid
//!   anywhere in the inner scope: paper §4.5 makes re-entry of an active
//!   loop undefined behaviour, so enclosing-scope registers are stable for
//!   the whole inner execution (e.g. the outer `%i` used inside the `j`-loop
//!   of the matrix transpose).
//! * Any other cross-root use is a schedule error.

use hir::dialect::opname;
use hir::ops::{
    self, CallOp, DelayOp, ForOp, FuncOp, IfOp, MemReadOp, MemWriteOp, UnrollForOp, YieldOp,
};
use hir::types;
use ir::{Diagnostic, DiagnosticEngine, Module, OpId, SymbolTable, ValueId};
use std::collections::HashMap;

/// When a value carries valid data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Validity {
    /// Valid at every instant (constants).
    Always,
    /// A memref port (not a timed data value).
    Memref,
    /// A time variable usable as a scheduling root.
    TimeRoot,
    /// Valid at `root + offset` (for one scope window).
    At { root: ValueId, offset: i64 },
    /// Analysis gave up after a reported error.
    Unknown,
}

/// Per-function schedule facts, reusable by optimization passes.
#[derive(Debug, Default)]
pub struct ScheduleInfo {
    /// Validity of each SSA value.
    pub validity: HashMap<ValueId, Validity>,
    /// Scope id owning each root time variable's *instants*.
    pub root_scope: HashMap<ValueId, usize>,
    /// Parent scope of each scope (`scope 0` = function body).
    pub scope_parent: Vec<Option<usize>>,
    /// Validity window length of each root (static II, or 1).
    pub root_window: HashMap<ValueId, i64>,
    /// Static initiation interval of each loop op, when known.
    pub loop_ii: HashMap<OpId, Option<i64>>,
    /// For loop iteration-time roots with a *static* II: that II. Conflict
    /// analysis uses congruence modulo this value.
    pub root_ii: HashMap<ValueId, i64>,
}

impl ScheduleInfo {
    /// Whether scope `a` strictly encloses scope `b`.
    pub fn strictly_encloses(&self, a: usize, b: usize) -> bool {
        let mut cur = self.scope_parent.get(b).copied().flatten();
        while let Some(s) = cur {
            if s == a {
                return true;
            }
            cur = self.scope_parent.get(s).copied().flatten();
        }
        false
    }

    fn window(&self, root: ValueId) -> i64 {
        self.root_window.get(&root).copied().unwrap_or(1)
    }
}

/// Analyze one function, emitting schedule-error diagnostics.
pub fn analyze_function(
    m: &Module,
    func: FuncOp,
    symbols: &SymbolTable,
    diags: &mut DiagnosticEngine,
) -> ScheduleInfo {
    let mut a = Analyzer {
        m,
        symbols,
        info: ScheduleInfo::default(),
        diags,
    };
    a.run(func);
    a.info
}

struct Analyzer<'a> {
    m: &'a Module,
    symbols: &'a SymbolTable,
    info: ScheduleInfo,
    diags: &'a mut DiagnosticEngine,
}

impl Analyzer<'_> {
    fn run(&mut self, func: FuncOp) {
        let m = self.m;
        if func.is_external(m) {
            return;
        }
        // Scope 0: the function body, rooted at %t.
        self.info.scope_parent.push(None);
        let t = func.time_var(m);
        self.info.validity.insert(t, Validity::TimeRoot);
        self.info.root_scope.insert(t, 0);
        self.info.root_window.insert(t, 1);
        for arg in func.args(m) {
            let ty = m.value_type(arg);
            let v = if types::is_memref(&ty) {
                Validity::Memref
            } else if types::is_const(&ty) {
                Validity::Always
            } else {
                // Scalar arguments arrive at %t plus their declared delay.
                Validity::At { root: t, offset: 0 }
            };
            self.info.validity.insert(arg, v);
        }
        // Honour declared argument delays.
        let delays = func.arg_delays(m);
        for (arg, d) in func.args(m).into_iter().zip(delays) {
            if let Some(Validity::At { offset, .. }) = self.info.validity.get_mut(&arg) {
                *offset = d;
            }
        }
        self.analyze_block(func.body(m), 0);
        self.check_return(func);
    }

    fn analyze_block(&mut self, block: ir::BlockId, scope: usize) {
        for &op in self.m.block(block).ops() {
            self.analyze_op(op, scope);
        }
    }

    fn error(&mut self, op: OpId, message: String) -> Validity {
        self.diags.emit(
            Diagnostic::error(self.m.op(op).loc().clone(), message)
                .with_snippet(hir::pretty_op(self.m, op)),
        );
        Validity::Unknown
    }

    fn error_with_def(&mut self, op: OpId, message: String, operand: ValueId) {
        let mut d = Diagnostic::error(self.m.op(op).loc().clone(), message)
            .with_snippet(hir::pretty_op(self.m, op));
        // Block arguments (loop induction variables) are "defined" by the op
        // that owns their block — the paper's Figure 1b points the note at
        // the hir.for line.
        let def = match self.m.value(operand).def() {
            ir::ValueDef::OpResult { op: d, .. } => Some(d),
            ir::ValueDef::BlockArg { block, .. } => Some(self.m.block_parent_op(block)),
        };
        if let Some(def) = def {
            d = d.with_note_snippet(
                self.m.op(def).loc().clone(),
                "Prior definition here.",
                hir::pretty_op(self.m, def),
            );
        }
        self.diags.emit(d);
    }

    fn validity(&self, v: ValueId) -> Validity {
        self.info
            .validity
            .get(&v)
            .cloned()
            .unwrap_or(Validity::Unknown)
    }

    /// Check that `operand` holds valid data when consumed at `(root, at)`.
    /// `what` names the operand in the diagnostic ("address 0", "right
    /// operand", "data"...).
    fn check_use(&mut self, op: OpId, operand: ValueId, root: ValueId, at: i64, what: &str) {
        match self.validity(operand) {
            Validity::Always | Validity::Unknown => {}
            Validity::Memref => {
                self.error(
                    op,
                    format!("Schedule error: memref used as data in {what}!"),
                );
            }
            Validity::TimeRoot => {
                self.error(
                    op,
                    format!("Schedule error: time variable used as data in {what}!"),
                );
            }
            Validity::At { root: dr, offset } => {
                if dr == root {
                    let window = self.info.window(dr);
                    if !(offset <= at && at < offset + window) {
                        self.error_with_def(
                            op,
                            format!(
                                "Schedule error: mismatched delay ({offset} vs {at}) in {what}!"
                            ),
                            operand,
                        );
                    }
                } else {
                    let def_scope = self.info.root_scope.get(&dr).copied();
                    let use_scope = self.info.root_scope.get(&root).copied();
                    let ok = match (def_scope, use_scope) {
                        (Some(d), Some(u)) => self.info.strictly_encloses(d, u),
                        _ => false,
                    };
                    if !ok {
                        self.error_with_def(
                            op,
                            format!(
                                "Schedule error: {what} was defined in a different time scope \
                                 and is not provably stable here!"
                            ),
                            operand,
                        );
                    }
                }
            }
        }
    }

    /// The `(root, offset)` instant at which a scheduled op executes.
    fn op_instant(&mut self, op: OpId) -> Option<(ValueId, i64)> {
        let time = ops::time_operand(self.m, op)?;
        match self.validity(time) {
            Validity::TimeRoot => Some((time, ops::time_offset(self.m, op))),
            Validity::Unknown => None,
            _ => {
                self.error(
                    op,
                    "Schedule error: 'at' operand is not a time variable!".to_string(),
                );
                None
            }
        }
    }

    fn analyze_op(&mut self, op: OpId, scope: usize) {
        let m = self.m;
        match m.op(op).name().as_str() {
            opname::CONSTANT => {
                let res = m.op(op).results()[0];
                self.info.validity.insert(res, Validity::Always);
            }
            opname::ALLOC => {
                for &r in m.op(op).results() {
                    self.info.validity.insert(r, Validity::Memref);
                }
            }
            opname::DELAY => {
                let d = DelayOp(op);
                if let Some((root, at)) = self.op_instant(op) {
                    self.check_use(op, d.input(m), root, at, "input");
                    self.info.validity.insert(
                        d.result(m),
                        Validity::At {
                            root,
                            offset: at + d.by(m),
                        },
                    );
                } else {
                    self.info.validity.insert(d.result(m), Validity::Unknown);
                }
            }
            opname::MEM_READ => {
                let r = MemReadOp(op);
                if let Some((root, at)) = self.op_instant(op) {
                    for (i, idx) in r.indices(m).into_iter().enumerate() {
                        self.check_use(op, idx, root, at, &format!("address {i}"));
                    }
                    self.info.validity.insert(
                        r.result(m),
                        Validity::At {
                            root,
                            offset: at + r.latency(m),
                        },
                    );
                } else {
                    self.info.validity.insert(r.result(m), Validity::Unknown);
                }
            }
            opname::MEM_WRITE => {
                let w = MemWriteOp(op);
                if let Some((root, at)) = self.op_instant(op) {
                    for (i, idx) in w.indices(m).into_iter().enumerate() {
                        self.check_use(op, idx, root, at, &format!("address {i}"));
                    }
                    self.check_use(op, w.value(m), root, at, "data");
                }
            }
            opname::CALL => self.analyze_call(op),
            opname::FOR => self.analyze_for(op, scope),
            opname::UNROLL_FOR => self.analyze_unroll_for(op, scope),
            opname::IF => {
                let i = IfOp(op);
                if let Some((root, at)) = self.op_instant(op) {
                    self.check_use(op, i.condition(m), root, at, "condition");
                }
                self.analyze_block(i.then_block(m), scope);
                if let Some(e) = i.else_block(m) {
                    self.analyze_block(e, scope);
                }
            }
            opname::YIELD | opname::RETURN => {
                // Checked by the enclosing construct.
            }
            _ => self.analyze_compute(op),
        }
    }

    fn analyze_compute(&mut self, op: OpId) {
        let m = self.m;
        let operands = m.op(op).operands().to_vec();
        // Find the governing root: the operand root with the deepest scope.
        let mut best: Option<(ValueId, i64, usize)> = None;
        for &o in &operands {
            if let Validity::At { root, offset } = self.validity(o) {
                let depth = self.scope_depth(root);
                match &mut best {
                    Some((br, boff, bd)) => {
                        if depth > *bd || (depth == *bd && *br == root && offset > *boff) {
                            *br = root;
                            *boff = offset;
                            *bd = depth;
                        }
                    }
                    None => best = Some((root, offset, depth)),
                }
            }
        }
        let result_validity = match best {
            None => Validity::Always, // all-constant inputs
            Some((root, offset, _)) => {
                let names = operand_names(operands.len());
                for (i, &o) in operands.iter().enumerate() {
                    self.check_use(op, o, root, offset, names[i.min(names.len() - 1)]);
                }
                Validity::At { root, offset }
            }
        };
        for &r in m.op(op).results() {
            self.info.validity.insert(r, result_validity.clone());
        }
    }

    fn scope_depth(&self, root: ValueId) -> usize {
        let Some(&scope) = self.info.root_scope.get(&root) else {
            return 0;
        };
        let mut depth = 0;
        let mut cur = self.info.scope_parent.get(scope).copied().flatten();
        while let Some(s) = cur {
            depth += 1;
            cur = self.info.scope_parent.get(s).copied().flatten();
        }
        depth
    }

    fn analyze_call(&mut self, op: OpId) {
        let m = self.m;
        let call = CallOp(op);
        let Some((root, at)) = self.op_instant(op) else {
            for &r in m.op(op).results() {
                self.info.validity.insert(r, Validity::Unknown);
            }
            return;
        };
        let callee = self
            .symbols
            .lookup(&call.callee(m))
            .and_then(|c| FuncOp::wrap(m, c));
        let Some(callee) = callee else {
            self.error(
                op,
                format!("Schedule error: unknown callee @{}!", call.callee(m)),
            );
            return;
        };
        let args = call.args(m);
        let declared = callee.arg_types(m).len();
        if args.len() != declared {
            self.error(
                op,
                format!(
                    "Schedule error: call to @{} passes {} argument(s) but the callee declares {declared}!",
                    call.callee(m),
                    args.len()
                ),
            );
            return;
        }
        // Codegen instantiates the callee's ports from its signature, so the
        // call's results must match it in number and type.
        let results = m.op(op).results();
        let returned = callee.result_types(m);
        if results.len() != returned.len() {
            self.error(
                op,
                format!(
                    "Schedule error: call to @{} binds {} result(s) but the callee returns {}!",
                    call.callee(m),
                    results.len(),
                    returned.len()
                ),
            );
            return;
        }
        for (i, (&r, want)) in results.iter().zip(&returned).enumerate() {
            let got = m.value_type(r);
            if got != *want {
                self.error(
                    op,
                    format!(
                        "Schedule error: result {i} of the call to @{} is {got} but the callee returns {want}!",
                        call.callee(m)
                    ),
                );
            }
        }
        let arg_delays = callee.arg_delays(m);
        for (i, arg) in args.into_iter().enumerate() {
            if matches!(self.validity(arg), Validity::Memref) {
                continue;
            }
            let d = arg_delays.get(i).copied().unwrap_or(0);
            self.check_use(op, arg, root, at + d, &format!("argument {i}"));
        }
        let result_delays = callee.result_delays(m);
        for (i, &r) in m.op(op).results().iter().enumerate() {
            let d = result_delays.get(i).copied().unwrap_or(0);
            self.info.validity.insert(
                r,
                Validity::At {
                    root,
                    offset: at + d,
                },
            );
        }
    }

    fn analyze_for(&mut self, op: OpId, scope: usize) {
        let m = self.m;
        let lp = ForOp(op);
        let instant = self.op_instant(op);
        if let Some((root, at)) = instant {
            for (operand, what) in [
                (lp.lower_bound(m), "lower bound"),
                (lp.upper_bound(m), "upper bound"),
                (lp.step(m), "step"),
            ] {
                self.check_use(op, operand, root, at, what);
            }
        }
        // New scope for the body.
        let body_scope = self.info.scope_parent.len();
        self.info.scope_parent.push(Some(scope));
        let ti = lp.iter_time(m);
        let iv = lp.induction_var(m);
        self.info.validity.insert(ti, Validity::TimeRoot);
        self.info.root_scope.insert(ti, body_scope);

        // Static II from the yield (when it targets %ti directly).
        let ii = lp.initiation_interval(m);
        self.info.loop_ii.insert(op, ii);
        self.info.root_window.insert(ti, ii.unwrap_or(1).max(1));
        if let Some(ii) = ii {
            self.info.root_ii.insert(ti, ii.max(1));
            if ii < 1 {
                self.error(
                    lp.yield_op(m).id(),
                    format!("Schedule error: hir.for initiation interval must be >= 1, got {ii}!"),
                );
            }
        }
        self.info.validity.insert(
            iv,
            Validity::At {
                root: ti,
                offset: 0,
            },
        );
        self.analyze_block(lp.body(m), body_scope);
        self.check_counter_range(lp);

        // The yield must target a root in scope.
        let y = lp.yield_op(m);
        let yt = YieldOp(y.id()).time(m);
        if !matches!(self.validity(yt), Validity::TimeRoot | Validity::Unknown) {
            self.error(
                y.id(),
                "Schedule error: hir.yield must target a time variable!".into(),
            );
        }

        // %tf is a new root whose instants live in the parent scope.
        let tf = lp.result_time(m);
        self.info.validity.insert(tf, Validity::TimeRoot);
        self.info.root_scope.insert(tf, scope);
        self.info.root_window.insert(tf, 1);
    }

    /// The generated controller counts at the induction variable's width and
    /// compares `iv + step` with `ub` signed there, while the interpreter
    /// counts unbounded. On constant bounds the two agree only when every
    /// counter value, the first one past the loop included, lies in the
    /// variable's signed range.
    fn check_counter_range(&mut self, lp: ForOp) {
        let m = self.m;
        let iv_ty = m.value_type(lp.induction_var(m));
        let Some(w) = iv_ty.int_width().filter(|w| (1..128).contains(w)) else {
            return;
        };
        let value = |v| hir::semantics::const_value(m, v);
        let (Some(lb), Some(ub), Some(step)) = (
            value(lp.lower_bound(m)),
            value(lp.upper_bound(m)),
            value(lp.step(m)),
        ) else {
            return;
        };
        if step <= 0 || lb >= ub {
            return;
        }
        let (min, max) = (-(1i128 << (w - 1)), (1i128 << (w - 1)) - 1);
        let range =
            format!("outside the range of induction variable type {iv_ty} ({min} to {max})");
        // The first counter value at or past `ub`, where the loop exits
        // (saturating: an unbounded `!hir.const` bound may not fit `i128`).
        let trips = (ub.saturating_sub(lb) - 1) / step + 1;
        let past = lb.saturating_add(trips.saturating_mul(step));
        let message = if !(min..=max).contains(&lb) {
            format!("hir.for lower bound {lb} is {range}!")
        } else if !(min..=max).contains(&past) {
            format!("hir.for counter {lb} to {ub} step {step} reaches {past} before the loop exits, {range}!")
        } else {
            return;
        };
        self.error(lp.id(), message);
    }

    fn analyze_unroll_for(&mut self, op: OpId, scope: usize) {
        let m = self.m;
        let lp = UnrollForOp(op);
        let _ = self.op_instant(op);
        let body_scope = self.info.scope_parent.len();
        self.info.scope_parent.push(Some(scope));
        let ti = lp.iter_time(m);
        self.info.validity.insert(ti, Validity::TimeRoot);
        self.info.root_scope.insert(ti, body_scope);
        let ii = (lp.yield_op(m).time(m) == ti).then(|| lp.yield_op(m).offset(m));
        self.info.loop_ii.insert(op, ii);
        self.info.root_window.insert(ti, ii.unwrap_or(1).max(1));
        if let Some(ii) = ii {
            // II = 0 (all iterations at once) has no re-execution cadence.
            if ii >= 1 {
                self.info.root_ii.insert(ti, ii);
            }
        }
        self.info
            .validity
            .insert(lp.induction_var(m), Validity::Always);
        self.analyze_block(lp.body(m), body_scope);
        let tf = lp.result_time(m);
        self.info.validity.insert(tf, Validity::TimeRoot);
        self.info.root_scope.insert(tf, scope);
        self.info.root_window.insert(tf, 1);
    }

    fn check_return(&mut self, func: FuncOp) {
        let m = self.m;
        let Some(ret) = func.return_op(m) else { return };
        let declared = func.result_delays(m);
        let t = func.time_var(m);
        let operands = m.op(ret).operands().to_vec();
        if !operands.is_empty() && declared.len() != operands.len() {
            self.error(
                ret,
                format!(
                    "Schedule error: function returns {} values but declares {} result delays!",
                    operands.len(),
                    declared.len()
                ),
            );
            return;
        }
        for (i, (&v, &d)) in operands.iter().zip(&declared).enumerate() {
            match self.validity(v) {
                Validity::At { root, offset } if root == t && offset == d => {}
                Validity::Always | Validity::Unknown => {}
                Validity::At { root, offset } if root == t => {
                    self.error_with_def(
                        ret,
                        format!(
                            "Schedule error: mismatched delay ({offset} vs {d}) in return value {i}!"
                        ),
                        v,
                    );
                }
                _ => {
                    self.error_with_def(
                        ret,
                        format!(
                            "Schedule error: return value {i} is not scheduled on the function's \
                             time variable!"
                        ),
                        v,
                    );
                }
            }
        }
    }
}

fn operand_names(n: usize) -> &'static [&'static str] {
    match n {
        1 => &["operand"],
        2 => &["left operand", "right operand"],
        3 => &["condition", "left operand", "right operand"],
        _ => &["operand"],
    }
}
