//! # `hir-codegen` — HIR to synthesizable Verilog (paper §4.6, Table 3)
//!
//! The code generator realizes the paper's hardware mapping:
//!
//! | HIR construct       | Hardware                                         |
//! |---------------------|--------------------------------------------------|
//! | functions           | Verilog modules (with a `start` pulse input)     |
//! | primitive values    | wires                                            |
//! | memrefs             | block RAM / distributed RAM / register banks     |
//! | integer arithmetic  | combinational operators                          |
//! | `hir.delay`         | shift registers                                  |
//! | `for` loops         | generated counter/guard state machines           |
//! | schedules           | one-cycle *pulse chains* derived from `start`    |
//! | `unroll_for`        | static replication of the body                   |
//!
//! The *schedule* is implemented by pulse chains: for every time-variable
//! root (function start, loop iteration, loop completion) a 1-bit pulse
//! signal exists, and static offsets become taps on a shift register fed by
//! that pulse. Every scheduled operation is enabled by its tap. The
//! controller for a `hir.for` is the small FSM of paper Table 3: an
//! induction-variable register, a guard comparator, and `iter`/`done`
//! pulses; `hir.yield`'s offset re-arms it, giving pipelining for free.
//!
//! Undefined behaviours of §4.5 are guarded by generated assertions
//! (out-of-bounds indices, same-port conflicts), which [`verilog::Simulator`]
//! enforces during RTL simulation.

pub mod resources;
pub mod testbench;

pub use resources::{ActivityMode, FuncResources, ResourceReport, UnitNet};

use hir::dialect::opname;
use hir::ops::{
    self, AllocOp, CallOp, ConstantOp, DelayOp, ForOp, FuncOp, IfOp, MemReadOp, MemWriteOp,
    UnrollForOp,
};
use hir::semantics;
use hir::types::{Dim, MemKind, MemrefInfo};
use hir::CmpPredicate;
use ir::{Module, OpId, SymbolTable, ValueId};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::Hash;
use verilog::{BinOp, Design, Dir, Expr, Instance, LValue, Stmt, VModule};

/// Code generation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodegenError(pub String);

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codegen error: {}", self.0)
    }
}
impl std::error::Error for CodegenError {}

type Result<T> = std::result::Result<T, CodegenError>;

/// Options controlling generation.
#[derive(Clone, Debug)]
pub struct CodegenOptions {
    /// Emit §4.5 assertion guards into the RTL.
    pub assertions: bool,
    /// Emit HIR source locations as comments (paper §5.5).
    pub location_comments: bool,
}

impl Default for CodegenOptions {
    fn default() -> Self {
        CodegenOptions {
            assertions: true,
            location_comments: true,
        }
    }
}

/// Verilog module name for an HIR function.
pub fn module_name(func: &str) -> String {
    format!("hir_{func}")
}

/// Generate a Verilog design containing one module per (non-external)
/// function in the HIR module.
///
/// # Errors
/// Fails on constructs the generator cannot lower (e.g. dynamic distributed
/// indices), which the verifier rejects first in normal pipelines.
pub fn generate_design(m: &Module, options: &CodegenOptions) -> Result<Design> {
    generate_design_with_report(m, options).map(|(design, _)| design)
}

/// Like [`generate_design`], but also returns the hardware resource report
/// tallied during emission (`hirc --resource-report`).
///
/// # Errors
/// Same failure modes as [`generate_design`].
pub fn generate_design_with_report(
    m: &Module,
    options: &CodegenOptions,
) -> Result<(Design, ResourceReport)> {
    let _span = obs::span("generate_design");
    let mut design = Design::new();
    let mut report = ResourceReport::default();
    for &top in m.top_ops() {
        let Some(func) = FuncOp::wrap(m, top) else {
            continue;
        };
        if func.is_external(m) {
            continue; // provided as a blackbox by the environment
        }
        let (vm, res) = generate_func_with_resources(m, func, options)?;
        obs::counter_add("codegen", "modules", 1);
        obs::counter_add("codegen", "nets", vm.nets.len() as u64);
        obs::counter_add("codegen", "memories", vm.memories.len() as u64);
        obs::counter_add("codegen", "instances", vm.instances.len() as u64);
        obs::counter_add("codegen", "assigns", vm.assigns.len() as u64);
        design.add(vm);
        report.functions.push(res);
    }
    Ok((design, report))
}

/// Behavioral placeholder modules for the external (blackbox) functions of
/// `m`, named exactly as [`FuncCodegen`] instantiates them, so a design that
/// calls external IP can still be elaborated and simulated (`--emit=sim`).
///
/// A stub registers the sum of its scalar arguments through `result_delays`
/// stages — deterministic waveform activity with the declared latency, *not*
/// the real IP's function. Memref bus outputs are tied low.
///
/// # Errors
/// Fails when an external argument or result type has no bit width.
pub fn extern_stubs(m: &Module) -> Result<Vec<VModule>> {
    let mut out = Vec::new();
    for &top in m.top_ops() {
        let Some(func) = FuncOp::wrap(m, top) else {
            continue;
        };
        if !func.is_external(m) {
            continue;
        }
        let name = func.name(m);
        let mut vm = VModule::new(sanitize(&name));
        vm.comments.push(format!(
            "behavioral placeholder for external @{name}: results are the sum \
             of the scalar arguments, delayed by the declared result delay"
        ));
        vm.port("clk", Dir::Input, 1);
        vm.port("start", Dir::Input, 1);

        let arg_types = func.arg_types(m);
        let mut arg_names: Vec<String> = func
            .arg_names(m)
            .unwrap_or_default()
            .iter()
            .map(|n| sanitize(n))
            .collect();
        while arg_names.len() < arg_types.len() {
            arg_names.push(format!("arg{}", arg_names.len()));
        }
        let mut scalars: Vec<(String, u32)> = Vec::new();
        for (ty, pname) in arg_types.iter().zip(&arg_names) {
            if let Some(info) = MemrefInfo::from_type(ty) {
                let banks = info.num_banks();
                let width = info.elem.bit_width().unwrap_or(32);
                let addr_w = info.addr_bits().max(1);
                for b in 0..banks {
                    let mk = |sig: &str| bus(pname, b, banks, sig);
                    if info.port.can_read() {
                        vm.port(mk("addr"), Dir::Output, addr_w);
                        vm.port(mk("rd_en"), Dir::Output, 1);
                        vm.port(mk("rd_data"), Dir::Input, width);
                        vm.assign(mk("addr"), Expr::c(0, addr_w));
                        vm.assign(mk("rd_en"), Expr::c(0, 1));
                    }
                    if info.port.can_write() {
                        vm.port(mk("waddr"), Dir::Output, addr_w);
                        vm.port(mk("wr_en"), Dir::Output, 1);
                        vm.port(mk("wr_data"), Dir::Output, width);
                        vm.assign(mk("waddr"), Expr::c(0, addr_w));
                        vm.assign(mk("wr_en"), Expr::c(0, 1));
                        vm.assign(mk("wr_data"), Expr::c(0, width));
                    }
                }
            } else {
                let w = ty.bit_width().ok_or_else(|| {
                    CodegenError(format!("external @{name}: argument {pname} has no width"))
                })?;
                vm.port(pname, Dir::Input, w);
                scalars.push((pname.clone(), w));
            }
        }

        let delays = func.result_delays(m);
        for (i, rty) in func.result_types(m).iter().enumerate() {
            let w = rty.bit_width().ok_or_else(|| {
                CodegenError(format!("external @{name}: result {i} has no width"))
            })?;
            let mut value = Expr::c(0, w);
            for (sname, sw) in &scalars {
                let s = if *sw == w {
                    Expr::r(sname)
                } else if *sw > w {
                    Expr::Slice {
                        base: Box::new(Expr::r(sname)),
                        hi: w - 1,
                        lo: 0,
                    }
                } else {
                    Expr::SignExtend {
                        arg: Box::new(Expr::r(sname)),
                        from: *sw,
                        to: w,
                    }
                };
                value = Expr::add(value, s);
            }
            let d = delays.get(i).copied().unwrap_or(0).max(0) as u64;
            for k in 0..d {
                let reg = vm.reg(format!("r{i}_d{k}"), w);
                vm.main_always().stmts.push(Stmt::NonBlocking {
                    lhs: LValue::Net(reg.clone()),
                    rhs: value,
                });
                value = Expr::r(&reg);
            }
            let port = format!("result{i}");
            vm.port(&port, Dir::Output, w);
            vm.assign(&port, value);
        }
        out.push(vm);
    }
    Ok(out)
}

// ----------------------------------------------------------------- codegen

/// A compile-time or runtime value in the generated datapath.
#[derive(Clone, Debug)]
enum CgVal {
    /// Statically known integer (from `!hir.const` arithmetic or unrolling).
    Const(i128),
    /// A named wire of the given width.
    Wire(String, u32),
}

/// A time reference: pulses `extra` cycles after the `root` pulse signal.
#[derive(Clone, Debug)]
struct TimeRef {
    root: String,
    extra: i64,
}

/// A predication context from enclosing `hir.if` ops. Each condition was
/// captured on a wire at a specific instant; ops scheduled `d` cycles later
/// (on the same root) are gated by the condition delayed `d` cycles through
/// a shift register — so pipelined loops with II smaller than the branch
/// span stay correct.
#[derive(Clone, Debug, Default)]
struct Gate {
    conds: Vec<CondRef>,
}

#[derive(Clone, Debug)]
struct CondRef {
    /// 1-bit signal holding the (possibly inverted) condition, valid at the
    /// capture instant.
    signal: String,
    /// Root pulse signal of the capture instant.
    root: String,
    /// Total offset of the capture instant from `root`.
    at: i64,
}

impl Gate {
    fn always() -> Self {
        Gate::default()
    }

    fn with(&self, c: CondRef) -> Self {
        let mut g = self.clone();
        g.conds.push(c);
        g
    }
}

/// One access to a memory port bank, to be muxed.
#[derive(Debug)]
struct PortAccess {
    /// Enable expression (the op's pulse, possibly gated by `hir.if`).
    enable: Expr,
    /// In-bank linear address.
    addr: Expr,
    /// Write data (None for reads).
    wdata: Option<Expr>,
    /// Static bank index.
    bank: u64,
    /// Source location for comments/diagnostics.
    loc: String,
}

/// Where the buses of a memref port live.
#[derive(Clone, Debug)]
enum PortKind {
    /// Module-level argument: buses are module ports named after the arg.
    External { base: String },
    /// Internal alloc: buses connect to an inlined memory.
    Internal { alloc: OpId, port_index: usize },
}

#[derive(Debug)]
struct PortInfo {
    kind: PortKind,
    info: MemrefInfo,
    reads: Vec<PortAccess>,
    writes: Vec<PortAccess>,
}

struct FuncCodegen<'m> {
    m: &'m Module,
    symbols: SymbolTable,
    options: CodegenOptions,
    module: VModule,
    /// Pulse shift-register chains: root signal -> taps (index = delay-1).
    chains: HashMap<String, Vec<String>>,
    /// Memory ports by memref ValueId.
    ports: HashMap<ValueId, PortInfo>,
    /// Fresh-name counter.
    next_id: usize,
    instance_count: usize,
    /// Signals contributing to the module's `busy` output (pulse chains,
    /// loop controllers, callee busy outputs).
    busy: Vec<Expr>,
    /// Roots whose chains carry condition VALUES, not activity pulses —
    /// excluded from `busy`.
    condition_roots: HashSet<String>,
    /// Read-data nets of internal memories declared so far.
    rdata_nets: HashSet<String>,
    /// Memory arrays of internal allocs declared so far.
    memory_names: HashSet<String>,
    /// Resource tally filled in as hardware is emitted.
    res: FuncResources,
}

/// Generate the module for one function.
pub fn generate_func(m: &Module, func: FuncOp, options: &CodegenOptions) -> Result<VModule> {
    generate_func_with_resources(m, func, options).map(|(vm, _)| vm)
}

/// Like [`generate_func`], but also returns the function's resource tally.
///
/// # Errors
/// Same failure modes as [`generate_func`].
pub fn generate_func_with_resources(
    m: &Module,
    func: FuncOp,
    options: &CodegenOptions,
) -> Result<(VModule, FuncResources)> {
    let mut cg = FuncCodegen {
        m,
        symbols: SymbolTable::build(m),
        options: options.clone(),
        module: VModule::new(module_name(&func.name(m))),
        chains: HashMap::new(),
        ports: HashMap::new(),
        next_id: 0,
        instance_count: 0,
        busy: Vec::new(),
        condition_roots: HashSet::new(),
        rdata_nets: HashSet::new(),
        memory_names: HashSet::new(),
        res: FuncResources {
            function: func.name(m),
            ..FuncResources::default()
        },
    };
    cg.run(func)?;
    cg.res.pulse_regs = cg.chains.values().map(|c| c.len() as u64).sum();
    cg.res.finalize(&cg.module);
    Ok((cg.module, cg.res))
}

impl<'m> FuncCodegen<'m> {
    fn fresh(&mut self, stem: &str) -> String {
        let n = self.next_id;
        self.next_id += 1;
        format!("{stem}_{n}")
    }

    fn err(&self, msg: impl Into<String>) -> CodegenError {
        CodegenError(msg.into())
    }

    fn loc_comment(&self, op: OpId) -> String {
        match self.m.op(op).loc().file_line() {
            Some((f, l, c)) => format!("{f}:{l}:{c}"),
            None => format!("hir.{}", self.m.op(op).name().op()),
        }
    }

    fn run(&mut self, func: FuncOp) -> Result<()> {
        let m = self.m;
        self.module.comments.push(format!(
            "generated by hir-codegen from hir.func @{}",
            func.name(m)
        ));
        self.module.port("clk", Dir::Input, 1);
        self.module.port("start", Dir::Input, 1);

        // Arguments.
        let mut env: HashMap<ValueId, CgVal> = HashMap::new();
        let mut times: HashMap<ValueId, TimeRef> = HashMap::new();
        let arg_names = func
            .arg_names(m)
            .unwrap_or_else(|| (0..func.args(m).len()).map(|i| format!("arg{i}")).collect());
        for (i, arg) in func.args(m).iter().enumerate() {
            let name = sanitize(&arg_names[i]);
            let ty = m.value_type(*arg);
            if let Some(info) = MemrefInfo::from_type(&ty) {
                self.declare_external_port(&name, &info);
                self.ports.insert(
                    *arg,
                    PortInfo {
                        kind: PortKind::External { base: name },
                        info,
                        reads: Vec::new(),
                        writes: Vec::new(),
                    },
                );
            } else {
                let width = ty.bit_width().ok_or_else(|| {
                    self.err(format!("unsupported argument type {ty} for '{name}'"))
                })?;
                self.module.port(&name, Dir::Input, width);
                env.insert(*arg, CgVal::Wire(name, width));
            }
        }
        times.insert(
            func.time_var(m),
            TimeRef {
                root: "start".into(),
                extra: 0,
            },
        );

        // Body.
        let body = func.body(m);
        self.emit_block(body, &mut env, &mut times, &Gate::always())?;

        // Results.
        if let Some(ret) = func.return_op(m) {
            let delays = func.result_delays(m);
            let operands = m.op(ret).operands().to_vec();
            for (i, v) in operands.iter().enumerate() {
                let val = self.value(*v, &env)?;
                let width = m.value_type(*v).bit_width().unwrap_or(32);
                let port = format!("result{i}");
                self.module.port(&port, Dir::Output, width);
                let e = self.to_expr(&val, width);
                self.module.assign(&port, e);
                let vport = format!("result{i}_valid");
                self.module.port(&vport, Dir::Output, 1);
                let d = delays.get(i).copied().unwrap_or(0);
                let pulse = self.pulse(
                    &TimeRef {
                        root: "start".into(),
                        extra: 0,
                    },
                    d,
                );
                self.module.assign(&vport, pulse);
            }
        }

        // Memories and port muxes. Each port is emitted once, so its
        // accesses move out of the map rather than being copied.
        let mut ports: Vec<(ValueId, PortInfo)> =
            std::mem::take(&mut self.ports).into_iter().collect();
        ports.sort_by_key(|(id, _)| *id);
        for (_, port) in ports {
            self.emit_port(port)?;
        }
        if self.options.assertions {
            self.drop_repeated_asserts();
        }

        // The `busy` output (an `ap_idle`-style indicator): high while any
        // pulse is in flight anywhere in the design.
        self.module.port("busy", Dir::Output, 1);
        let mut acc = Expr::r("start");
        for b in std::mem::take(&mut self.busy) {
            acc = Expr::or(acc, b);
        }
        self.module.assign("busy", acc);
        Ok(())
    }

    // --------------------------------------------------------------- pulses

    /// The 1-bit signal pulsing `offset` cycles after `t`.
    fn pulse(&mut self, t: &TimeRef, offset: i64) -> Expr {
        let total = t.extra + offset;
        assert!(total >= 0, "negative schedule offset");
        if total == 0 {
            return Expr::r(&t.root);
        }
        let total = total as usize;
        let existing = self.chains.get(&t.root).map_or(0, Vec::len);
        for k in existing..total {
            let prev = if k == 0 {
                Expr::r(&t.root)
            } else {
                Expr::r(&self.chains[&t.root][k - 1])
            };
            let name = format!("{}_p{}", sanitize(&t.root), k + 1);
            self.module.reg(&name, 1);
            self.module.main_always().stmts.push(Stmt::NonBlocking {
                lhs: LValue::Net(name.clone()),
                rhs: prev,
            });
            if !self.condition_roots.contains(&t.root) {
                self.busy.push(Expr::r(&name));
            }
            self.chains.entry(t.root.clone()).or_default().push(name);
        }
        Expr::r(&self.chains[&t.root][total - 1])
    }

    /// AND a pulse with every enclosing condition, each delayed to the
    /// op's instant. Conditions whose capture root differs from the op's
    /// root fall back to the raw captured signal (sound only for loops
    /// started under the gate, which consume it at their start pulse).
    fn gated(&mut self, pulse: Expr, gate: &Gate, op_root: &str, op_total: i64) -> Expr {
        let mut acc = pulse;
        for c in gate.conds.clone() {
            let cond_expr = if c.root == op_root && op_total >= c.at {
                self.pulse(
                    &TimeRef {
                        root: c.signal.clone(),
                        extra: 0,
                    },
                    op_total - c.at,
                )
            } else {
                Expr::r(&c.signal)
            };
            acc = Expr::and(acc, cond_expr);
        }
        acc
    }

    // --------------------------------------------------------------- values

    fn value(&self, v: ValueId, env: &HashMap<ValueId, CgVal>) -> Result<CgVal> {
        env.get(&v)
            .cloned()
            .ok_or_else(|| self.err("use of value before its generator was emitted"))
    }

    fn to_expr(&self, val: &CgVal, width: u32) -> Expr {
        match val {
            CgVal::Const(c) => Expr::c((*c as u64) & mask64(width), width),
            CgVal::Wire(name, w) => {
                if *w == width {
                    Expr::r(name)
                } else if *w > width {
                    Expr::Slice {
                        base: Box::new(Expr::r(name)),
                        hi: width - 1,
                        lo: 0,
                    }
                } else {
                    Expr::SignExtend {
                        arg: Box::new(Expr::r(name)),
                        from: *w,
                        to: width,
                    }
                }
            }
        }
    }

    /// Like [`Self::to_expr`] but widening with ZERO extension — addresses
    /// and bank selects carry raw unsigned bits.
    fn to_expr_unsigned(&self, val: &CgVal, width: u32) -> Expr {
        match val {
            CgVal::Const(c) => Expr::c((*c as u64) & mask64(width), width),
            CgVal::Wire(name, w) => {
                if *w == width {
                    Expr::r(name)
                } else if *w > width {
                    Expr::Slice {
                        base: Box::new(Expr::r(name)),
                        hi: width - 1,
                        lo: 0,
                    }
                } else {
                    Expr::Concat(vec![Expr::c(0, width - w), Expr::r(name)])
                }
            }
        }
    }

    /// Index operands: a constant index is its type's unsigned bits, as the
    /// interpreter reads it.
    fn indices(&self, indices: &[ValueId], env: &HashMap<ValueId, CgVal>) -> Result<Vec<CgVal>> {
        let index = |v: ValueId| match self.value(v, env)? {
            CgVal::Const(c) => Ok(CgVal::Const(semantics::unsigned(c, &self.m.value_type(v)))),
            wire => Ok(wire),
        };
        indices.iter().map(|&v| index(v)).collect()
    }

    /// Width of an HIR value in the datapath (consts get context width).
    fn width_of(&self, v: ValueId) -> u32 {
        self.m.value_type(v).bit_width().unwrap_or(32)
    }

    // ---------------------------------------------------------------- block

    fn emit_block(
        &mut self,
        block: ir::BlockId,
        env: &mut HashMap<ValueId, CgVal>,
        times: &mut HashMap<ValueId, TimeRef>,
        gate: &Gate,
    ) -> Result<()> {
        let m = self.m;
        for &op in m.block(block).ops() {
            self.emit_op(op, env, times, gate)?;
        }
        Ok(())
    }

    fn timeref(&self, t: ValueId, times: &HashMap<ValueId, TimeRef>) -> Result<TimeRef> {
        times
            .get(&t)
            .cloned()
            .ok_or_else(|| self.err("time variable not mapped (unsupported schedule)"))
    }

    fn emit_op(
        &mut self,
        op: OpId,
        env: &mut HashMap<ValueId, CgVal>,
        times: &mut HashMap<ValueId, TimeRef>,
        gate: &Gate,
    ) -> Result<()> {
        let m = self.m;
        match m.op(op).name().as_str() {
            opname::CONSTANT => {
                let result = ConstantOp(op).result(m);
                let v = semantics::const_value(m, result)
                    .ok_or_else(|| self.err("float constants are not synthesizable yet"))?;
                env.insert(result, CgVal::Const(v));
                Ok(())
            }
            opname::ALLOC => {
                let alloc = AllocOp(op);
                for (i, port) in alloc.ports(m).into_iter().enumerate() {
                    let info = MemrefInfo::from_type(&m.value_type(port))
                        .ok_or_else(|| self.err("hir.alloc result is not a memref type"))?;
                    self.ports.insert(
                        port,
                        PortInfo {
                            kind: PortKind::Internal {
                                alloc: op,
                                port_index: i,
                            },
                            info,
                            reads: Vec::new(),
                            writes: Vec::new(),
                        },
                    );
                }
                Ok(())
            }
            opname::DELAY => self.emit_delay(DelayOp(op), env),
            opname::MEM_READ => self.emit_mem_read(MemReadOp(op), env, times, gate),
            opname::MEM_WRITE => self.emit_mem_write(MemWriteOp(op), env, times, gate),
            opname::FOR => self.emit_for(ForOp(op), env, times, gate),
            opname::UNROLL_FOR => self.emit_unroll(UnrollForOp(op), env, times, gate),
            opname::CALL => self.emit_call(CallOp(op), env, times, gate),
            opname::IF => self.emit_if(IfOp(op), env, times, gate),
            opname::YIELD | opname::RETURN => Ok(()), // handled by parents
            _ => self.emit_compute(op, env),
        }
    }

    // -------------------------------------------------------------- compute

    fn emit_compute(&mut self, op: OpId, env: &mut HashMap<ValueId, CgVal>) -> Result<()> {
        let m = self.m;
        let kind = ops::compute_kind(m, op)
            .ok_or_else(|| self.err(format!("cannot lower op '{}'", m.op(op).name())))?;
        let operands = m.op(op).operands().to_vec();
        let vals: Vec<CgVal> = operands
            .iter()
            .map(|&v| self.value(v, env))
            .collect::<Result<_>>()?;
        let result = m.op(op).results()[0];
        let res_ty = m.value_type(result);

        // Pure constant arithmetic folds at generation time.
        let consts: Option<Vec<i128>> = vals
            .iter()
            .map(|v| match v {
                CgVal::Const(c) => Some(*c),
                CgVal::Wire(..) => None,
            })
            .collect();
        if let Some(ints) = consts {
            let folded = semantics::eval(m, op, kind, &ints).ok_or_else(|| {
                self.err(format!("cannot evaluate {} on {ints:?}", m.op(op).name()))
            })?;
            env.insert(result, CgVal::Const(folded));
            return Ok(());
        }
        *self
            .res
            .arith
            .entry(resources::kind_label(kind).to_string())
            .or_insert(0) += 1;

        let width = res_ty
            .bit_width()
            .ok_or_else(|| self.err(format!("compute result of type {res_ty} has no width")))?;
        use hir::ops::ComputeKind as K;
        // A `!hir.const` constant takes the result's width.
        let in_width = |i: usize| -> u32 {
            match &vals[i] {
                CgVal::Wire(_, w) => *w,
                CgVal::Const(_) => m.value_type(operands[i]).int_width().unwrap_or(width),
            }
        };
        let expr = match kind {
            K::Add | K::Sub | K::Mult | K::And | K::Or | K::Xor | K::Shl | K::Shr => {
                let w = width.max(in_width(0)).max(in_width(1));
                let a = self.to_expr(&vals[0], w);
                let b = self.to_expr(&vals[1], w);
                let vop = match kind {
                    K::Add => BinOp::Add,
                    K::Sub => BinOp::Sub,
                    K::Mult => BinOp::Mul,
                    K::And => BinOp::And,
                    K::Or => BinOp::Or,
                    K::Xor => BinOp::Xor,
                    K::Shl => BinOp::Shl,
                    K::Shr => BinOp::AShr,
                    _ => unreachable!(),
                };
                let full = Expr::bin(vop, a, b);
                if w > width {
                    Expr::Slice {
                        base: Box::new(full),
                        hi: width - 1,
                        lo: 0,
                    }
                } else {
                    full
                }
            }
            K::Not => Expr::not(self.to_expr(&vals[0], width)),
            K::Cmp(pred) => {
                let w = in_width(0).max(in_width(1));
                let a = self.to_expr(&vals[0], w);
                let b = self.to_expr(&vals[1], w);
                let vop = match pred {
                    CmpPredicate::Eq => BinOp::Eq,
                    CmpPredicate::Ne => BinOp::Ne,
                    CmpPredicate::Lt => BinOp::SLt,
                    CmpPredicate::Le => BinOp::SLe,
                    CmpPredicate::Gt => BinOp::SGt,
                    CmpPredicate::Ge => BinOp::SGe,
                };
                Expr::bin(vop, a, b)
            }
            K::Select => {
                let cond = self.to_expr(&vals[0], 1);
                Expr::mux(
                    cond,
                    self.to_expr(&vals[1], width),
                    self.to_expr(&vals[2], width),
                )
            }
            K::Trunc => {
                let a = self.to_expr(&vals[0], in_width(0));
                Expr::Slice {
                    base: Box::new(a),
                    hi: width - 1,
                    lo: 0,
                }
            }
            K::Zext => {
                let from = in_width(0);
                let a = self.to_expr(&vals[0], from);
                if width > from {
                    Expr::Concat(vec![Expr::c(0, width - from), a])
                } else {
                    a
                }
            }
            K::Sext => {
                let from = in_width(0);
                let a = self.to_expr(&vals[0], from);
                Expr::SignExtend {
                    arg: Box::new(a),
                    from,
                    to: width,
                }
            }
            K::Slice => {
                let hi = m
                    .op(op)
                    .attr(hir::attrkey::HI)
                    .and_then(|a| a.as_int())
                    .ok_or_else(|| self.err("hir.slice is missing its integer 'hi' attribute"))?
                    as u32;
                let lo = m
                    .op(op)
                    .attr(hir::attrkey::LO)
                    .and_then(|a| a.as_int())
                    .ok_or_else(|| self.err("hir.slice is missing its integer 'lo' attribute"))?
                    as u32;
                Expr::Slice {
                    base: Box::new(self.to_expr(&vals[0], in_width(0))),
                    hi,
                    lo,
                }
            }
        };
        let wire = self.fresh("v");
        self.module.wire(&wire, width);
        self.res.unit_nets.push(resources::UnitNet {
            unit: format!("arith.{}", resources::kind_label(kind)),
            net: wire.clone(),
            mode: resources::ActivityMode::Toggle,
        });
        if self.options.location_comments {
            let c = self.loc_comment(op);
            self.module.assign_with_comment(&wire, expr, c);
        } else {
            self.module.assign(&wire, expr);
        }
        env.insert(result, CgVal::Wire(wire, width));
        Ok(())
    }

    fn emit_delay(&mut self, d: DelayOp, env: &mut HashMap<ValueId, CgVal>) -> Result<()> {
        let m = self.m;
        let input = self.value(d.input(m), env)?;
        let by = d.by(m);
        let result = d.result(m);
        if by == 0 || matches!(input, CgVal::Const(_)) {
            env.insert(result, input);
            return Ok(());
        }
        let width = self.width_of(result);
        self.res.delay_lines += 1;
        self.res.delay_line_bits += by as u64 * u64::from(width);
        let mut prev = self.to_expr(&input, width);
        let stem = self.fresh("dly");
        let mut last = String::new();
        for k in 0..by {
            let reg = format!("{stem}_{k}");
            self.module.reg(&reg, width);
            self.module.main_always().stmts.push(Stmt::NonBlocking {
                lhs: LValue::Net(reg.clone()),
                rhs: prev,
            });
            prev = Expr::r(&reg);
            last = reg;
        }
        self.res.unit_nets.push(resources::UnitNet {
            unit: "delay".into(),
            net: last.clone(),
            mode: resources::ActivityMode::Toggle,
        });
        env.insert(result, CgVal::Wire(last, width));
        Ok(())
    }

    // --------------------------------------------------------------- memory

    /// Compute (bank, in-bank address expr), emitting bound assertions.
    fn linearize(
        &mut self,
        info: &MemrefInfo,
        indices: &[CgVal],
        enable: &Expr,
        loc: &str,
    ) -> Result<(u64, Expr)> {
        let mut bank = 0u64;
        let mut addr: Option<Expr> = None;
        let addr_w = info.addr_bits().max(1);
        for (dim, idx) in info.dims.iter().zip(indices) {
            match dim {
                Dim::Distributed(n) => match idx {
                    CgVal::Const(c) => {
                        if *c < 0 || *c as u64 >= *n {
                            return Err(self.err(format!(
                                "static distributed index {c} out of bounds ({loc})"
                            )));
                        }
                        bank = bank * n + *c as u64;
                    }
                    CgVal::Wire(..) => {
                        return Err(self.err(format!(
                            "distributed dimension indexed by a dynamic value ({loc}); \
                             the verifier requires !hir.const indices"
                        )));
                    }
                },
                Dim::Packed(n) => {
                    let idx_expr = self.to_expr_unsigned(idx, addr_w);
                    if self.options.assertions {
                        // Compare at full width: the truncated in-bank
                        // address always looks in range, the raw index
                        // does not (paper §4.5 bounds guard). An index too
                        // narrow to reach the bound (`2^w <= n`) needs no
                        // guard.
                        let can_reach = |w: u32| 1u64.checked_shl(w).is_none_or(|r| r > *n);
                        if let CgVal::Wire(_, natural_w) = idx {
                            if can_reach(*natural_w) {
                                let w_assert = (*natural_w).max(hir::types::bits_for(*n) + 1);
                                let full_idx = self.to_expr_unsigned(idx, w_assert);
                                self.module.main_always().stmts.push(Stmt::Assert {
                                    guard: enable.clone(),
                                    cond: Expr::bin(BinOp::ULt, full_idx, Expr::c(*n, w_assert)),
                                    message: format!("index out of bounds at {loc}"),
                                });
                            }
                        }
                    }
                    addr = Some(match addr {
                        None => idx_expr,
                        Some(prev) => {
                            Expr::add(Expr::bin(BinOp::Mul, prev, Expr::c(*n, addr_w)), idx_expr)
                        }
                    });
                }
            }
        }
        Ok((bank, addr.unwrap_or(Expr::c(0, 1))))
    }

    fn emit_mem_read(
        &mut self,
        r: MemReadOp,
        env: &mut HashMap<ValueId, CgVal>,
        times: &mut HashMap<ValueId, TimeRef>,
        gate: &Gate,
    ) -> Result<()> {
        let m = self.m;
        let t = self.timeref(r.time(m), times)?;
        let pulse = self.pulse(&t, r.offset(m));
        let enable = self.gated(pulse, gate, &t.root, t.extra + r.offset(m));
        let indices = self.indices(&r.indices(m), env)?;
        let loc = self.loc_comment(r.id());
        let port_id = r.memref(m);
        let info = self
            .ports
            .get(&port_id)
            .ok_or_else(|| self.err("read through unmapped memref"))?
            .info
            .clone();
        let (bank, addr) = self.linearize(&info, &indices, &enable, &loc)?;
        let width = info.elem.bit_width().unwrap_or(32);
        let wire = self.read_data_wire(port_id, bank, width);
        match self.ports.get_mut(&port_id) {
            Some(port) => port.reads.push(PortAccess {
                enable,
                addr,
                wdata: None,
                bank,
                loc,
            }),
            None => return Err(self.err("read through unmapped memref")),
        }
        env.insert(r.result(m), CgVal::Wire(wire, width));
        Ok(())
    }

    /// Name of the read-data net of `port`/`bank`, declared on first use.
    fn read_data_wire(&mut self, port_id: ValueId, bank: u64, width: u32) -> String {
        let (kind, banks, mem_kind) = {
            let port = &self.ports[&port_id];
            (port.kind.clone(), port.info.num_banks(), port.info.kind)
        };
        match kind {
            PortKind::External { base } => bus(&base, bank, banks, "rd_data"),
            PortKind::Internal { alloc, port_index } => {
                let name = format!("m{}_{}_b{bank}_rdata", alloc.index(), port_index);
                if self.rdata_nets.insert(name.clone()) {
                    match mem_kind {
                        MemKind::Reg => {
                            self.module.wire(&name, width);
                        }
                        MemKind::LutRam | MemKind::BlockRam => {
                            self.module.reg(&name, width);
                        }
                    }
                }
                name
            }
        }
    }

    fn emit_mem_write(
        &mut self,
        w: MemWriteOp,
        env: &mut HashMap<ValueId, CgVal>,
        times: &mut HashMap<ValueId, TimeRef>,
        gate: &Gate,
    ) -> Result<()> {
        let m = self.m;
        let t = self.timeref(w.time(m), times)?;
        let pulse = self.pulse(&t, w.offset(m));
        let enable = self.gated(pulse, gate, &t.root, t.extra + w.offset(m));
        let indices = self.indices(&w.indices(m), env)?;
        let loc = self.loc_comment(w.id());
        let port_id = w.memref(m);
        let info = self
            .ports
            .get(&port_id)
            .ok_or_else(|| self.err("write through unmapped memref"))?
            .info
            .clone();
        let (bank, addr) = self.linearize(&info, &indices, &enable, &loc)?;
        let width = info.elem.bit_width().unwrap_or(32);
        let data = self.value(w.value(m), env)?;
        let data = self.to_expr(&data, width);
        match self.ports.get_mut(&port_id) {
            Some(port) => port.writes.push(PortAccess {
                enable,
                addr,
                wdata: Some(data),
                bank,
                loc,
            }),
            None => return Err(self.err("write through unmapped memref")),
        }
        Ok(())
    }

    // -------------------------------------------------------------- control

    fn emit_for(
        &mut self,
        lp: ForOp,
        env: &mut HashMap<ValueId, CgVal>,
        times: &mut HashMap<ValueId, TimeRef>,
        gate: &Gate,
    ) -> Result<()> {
        let m = self.m;
        let t = self.timeref(lp.time(m), times)?;
        let start_pulse = self.pulse(&t, lp.offset(m));
        let start_pulse = self.gated(start_pulse, gate, &t.root, t.extra + lp.offset(m));
        let start_sig = self.materialize(start_pulse);
        self.res.loops += 1;
        let iv_width = self.width_of(lp.induction_var(m));

        let lb = self.value(lp.lower_bound(m), env)?;
        let ub = self.value(lp.upper_bound(m), env)?;
        let step = self.value(lp.step(m), env)?;
        let lb = self.to_expr(&lb, iv_width);
        let ub = self.to_expr(&ub, iv_width);
        let step = self.to_expr(&step, iv_width);

        let stem = self.fresh("loop");
        let iv_reg = self.module.reg(format!("{stem}_iv"), iv_width);
        let again = self.module.wire(format!("{stem}_again"), 1);
        let cand = self.module.wire(format!("{stem}_cand"), iv_width);
        let guard = self.module.wire(format!("{stem}_guard"), 1);
        let iter = self.module.wire(format!("{stem}_iter"), 1);
        let done = self.module.wire(format!("{stem}_done"), 1);
        let iv_sig = self.module.wire(format!("{stem}_i"), iv_width);
        self.res.unit_nets.push(resources::UnitNet {
            unit: "loop".into(),
            net: iter.clone(),
            mode: resources::ActivityMode::High,
        });

        let try_ = Expr::or(Expr::r(&start_sig), Expr::r(&again));
        self.module.assign(
            &cand,
            Expr::mux(Expr::r(&start_sig), lb, Expr::add(Expr::r(&iv_reg), step)),
        );
        self.module
            .assign(&guard, Expr::bin(BinOp::SLt, Expr::r(&cand), ub));
        let c = self.loc_comment(lp.id());
        self.module.assign_with_comment(
            &iter,
            Expr::and(try_.clone(), Expr::r(&guard)),
            format!("loop iteration pulse for {c}"),
        );
        self.module
            .assign(&done, Expr::and(try_, Expr::not(Expr::r(&guard))));
        self.module.assign(
            &iv_sig,
            Expr::mux(Expr::r(&iter), Expr::r(&cand), Expr::r(&iv_reg)),
        );
        self.busy.push(Expr::r(&iter));
        self.busy.push(Expr::r(&done));
        self.module.main_always().stmts.push(Stmt::If {
            cond: Expr::r(&iter),
            then: vec![Stmt::NonBlocking {
                lhs: LValue::Net(iv_reg),
                rhs: Expr::r(&cand),
            }],
            els: vec![],
        });

        // Body: iv and %ti map to the controller's signals.
        env.insert(lp.induction_var(m), CgVal::Wire(iv_sig, iv_width));
        times.insert(
            lp.iter_time(m),
            TimeRef {
                root: iter.clone(),
                extra: 0,
            },
        );
        // The gate was consumed by the start pulse; the body runs ungated.
        self.emit_block(lp.body(m), env, times, &Gate::always())?;

        // The yield re-arms the controller.
        let y = lp.yield_op(m);
        let yt = self.timeref(y.time(m), times)?;
        let ypulse = self.pulse(&yt, y.offset(m));
        self.module.assign(&again, ypulse);

        // %tf root.
        times.insert(
            lp.result_time(m),
            TimeRef {
                root: done,
                extra: 0,
            },
        );
        Ok(())
    }

    fn emit_unroll(
        &mut self,
        lp: UnrollForOp,
        env: &mut HashMap<ValueId, CgVal>,
        times: &mut HashMap<ValueId, TimeRef>,
        gate: &Gate,
    ) -> Result<()> {
        let m = self.m;
        let t = self.timeref(lp.time(m), times)?;
        let base = lp.offset(m);
        let y = lp.yield_op(m);
        if y.time(m) != lp.iter_time(m) {
            return Err(
                self.err("hir.unroll_for requires a static yield (on the iteration time variable)")
            );
        }
        let d = y.offset(m);
        let iters = lp.iterations(m);
        // Each replica binds the body's values in the caller's maps, and
        // unbinds them afterwards: the next replica and the code after the
        // loop see exactly the bindings from before it.
        let scoped = body_values(m, lp.id());
        for (k, iv) in iters.iter().enumerate() {
            env.insert(lp.induction_var(m), CgVal::Const(*iv as i128));
            times.insert(
                lp.iter_time(m),
                TimeRef {
                    root: t.root.clone(),
                    extra: t.extra + base + k as i64 * d,
                },
            );
            self.emit_block(lp.body(m), env, times, gate)?;
            for v in &scoped {
                env.remove(v);
                times.remove(v);
            }
        }
        // Completion time: after the last iteration starts.
        times.insert(
            lp.result_time(m),
            TimeRef {
                root: t.root.clone(),
                extra: t.extra + base + iters.len() as i64 * d,
            },
        );
        Ok(())
    }

    fn emit_call(
        &mut self,
        call: CallOp,
        env: &mut HashMap<ValueId, CgVal>,
        times: &mut HashMap<ValueId, TimeRef>,
        gate: &Gate,
    ) -> Result<()> {
        let m = self.m;
        let callee_op = self
            .symbols
            .lookup(&call.callee(m))
            .ok_or_else(|| self.err(format!("call to unknown function @{}", call.callee(m))))?;
        let callee = FuncOp::wrap(m, callee_op).ok_or_else(|| self.err("callee is not a func"))?;
        let t = self.timeref(call.time(m), times)?;
        let pulse = self.pulse(&t, call.offset(m));
        let pulse = self.gated(pulse, gate, &t.root, t.extra + call.offset(m));

        let inst_name = format!("u{}_{}", self.instance_count, sanitize(&call.callee(m)));
        self.instance_count += 1;
        let mut connections: Vec<(String, Expr)> =
            vec![("clk".into(), Expr::r("clk")), ("start".into(), pulse)];

        let callee_args = callee.arg_types(m);
        let mut callee_arg_names: Vec<String> = callee
            .arg_names(m)
            .unwrap_or_default()
            .iter()
            .map(|n| sanitize(n))
            .collect();
        // An arg_names attribute may be shorter than the signature; pad with
        // positional names rather than indexing past it.
        while callee_arg_names.len() < callee_args.len() {
            callee_arg_names.push(format!("arg{}", callee_arg_names.len()));
        }
        if call.args(m).len() != callee_args.len() {
            return Err(self.err(format!(
                "call to @{} passes {} argument(s) but the callee declares {}",
                call.callee(m),
                call.args(m).len(),
                callee_args.len()
            )));
        }
        for (i, actual) in call.args(m).iter().enumerate() {
            let formal_ty = &callee_args[i];
            let pname = &callee_arg_names[i];
            if let Some(info) = MemrefInfo::from_type(formal_ty) {
                self.connect_callee_memref(&inst_name, pname, &info, *actual, &mut connections)?;
            } else {
                let w = formal_ty.bit_width().unwrap_or(32);
                let v = self.value(*actual, env)?;
                let e = self.to_expr(&v, w);
                connections.push((pname.clone(), e));
            }
        }
        // Results.
        let mut first_result = None;
        for (i, &res) in m.op(call.id()).results().iter().enumerate() {
            let w = self.width_of(res);
            let wire = self.module.wire(format!("{inst_name}_r{i}"), w);
            connections.push((format!("result{i}"), Expr::r(&wire)));
            if i == 0 {
                first_result = Some(wire.clone());
            }
            env.insert(res, CgVal::Wire(wire, w));
        }
        if !callee.is_external(m) {
            let b = self.module.wire(format!("{inst_name}_busy"), 1);
            connections.push(("busy".into(), Expr::r(&b)));
            self.res.unit_nets.push(resources::UnitNet {
                unit: "instance".into(),
                net: b.clone(),
                mode: resources::ActivityMode::High,
            });
            self.busy.push(Expr::r(&b));
        } else if let Some(r0) = first_result {
            // External IP exposes no busy signal: its first result wire
            // stands in (toggle-counted).
            self.res.unit_nets.push(resources::UnitNet {
                unit: "instance".into(),
                net: r0,
                mode: resources::ActivityMode::Toggle,
            });
        }
        let target_module = if callee.is_external(m) {
            sanitize(&call.callee(m))
        } else {
            module_name(&call.callee(m))
        };
        self.module.instances.push(Instance {
            module: target_module,
            name: inst_name,
            connections,
        });
        Ok(())
    }

    /// Connect a callee's memref argument buses to a caller-side port.
    fn connect_callee_memref(
        &mut self,
        inst: &str,
        pname: &str,
        info: &MemrefInfo,
        actual: ValueId,
        connections: &mut Vec<(String, Expr)>,
    ) -> Result<()> {
        let banks = info.num_banks();
        let width = info.elem.bit_width().unwrap_or(32);
        let addr_w = info.addr_bits().max(1);
        for b in 0..banks {
            let mk = |sig: &str| bus(pname, b, banks, sig);
            if info.port.can_read() {
                let en = self.module.wire(format!("{inst}_{}", mk("rd_en")), 1);
                let addr = self.module.wire(format!("{inst}_{}", mk("addr")), addr_w);
                connections.push((mk("rd_en"), Expr::r(&en)));
                connections.push((mk("addr"), Expr::r(&addr)));
                let rdata = self.read_data_wire(actual, b, width);
                connections.push((mk("rd_data"), Expr::r(&rdata)));
                let port = self.ports.get_mut(&actual).ok_or_else(|| {
                    CodegenError("memref passed to call is not a known port".into())
                })?;
                port.reads.push(PortAccess {
                    enable: Expr::r(&en),
                    addr: Expr::r(&addr),
                    wdata: None,
                    bank: b,
                    loc: format!("call via {inst}"),
                });
            }
            if info.port.can_write() {
                let en = self.module.wire(format!("{inst}_{}", mk("wr_en")), 1);
                let addr = self.module.wire(format!("{inst}_{}", mk("waddr")), addr_w);
                let data = self.module.wire(format!("{inst}_{}", mk("wr_data")), width);
                connections.push((mk("wr_en"), Expr::r(&en)));
                connections.push((mk("waddr"), Expr::r(&addr)));
                connections.push((mk("wr_data"), Expr::r(&data)));
                let port = self.ports.get_mut(&actual).ok_or_else(|| {
                    CodegenError("memref passed to call is not a known port".into())
                })?;
                port.writes.push(PortAccess {
                    enable: Expr::r(&en),
                    addr: Expr::r(&addr),
                    wdata: Some(Expr::r(&data)),
                    bank: b,
                    loc: format!("call via {inst}"),
                });
            }
        }
        Ok(())
    }

    fn emit_if(
        &mut self,
        i: IfOp,
        env: &mut HashMap<ValueId, CgVal>,
        times: &mut HashMap<ValueId, TimeRef>,
        gate: &Gate,
    ) -> Result<()> {
        let m = self.m;
        let t = self.timeref(i.time(m), times)?;
        let at = t.extra + i.offset(m);
        let cond = self.value(i.condition(m), env)?;
        let cond = self.to_expr(&cond, 1);
        // Capture the live condition on a wire; gated ops at later offsets
        // receive it through a shift register built on demand (so pipelined
        // activations each see their own condition).
        let cond_sig = self.materialize(cond);
        let ncond_sig = {
            let w = self.fresh("ifn");
            self.module.wire(&w, 1);
            self.module.assign(&w, Expr::not(Expr::r(&cond_sig)));
            w
        };
        self.condition_roots.insert(cond_sig.clone());
        self.condition_roots.insert(ncond_sig.clone());
        let then_gate = gate.with(CondRef {
            signal: cond_sig,
            root: t.root.clone(),
            at,
        });
        self.emit_block(i.then_block(m), env, times, &then_gate)?;
        if let Some(e) = i.else_block(m) {
            let else_gate = gate.with(CondRef {
                signal: ncond_sig,
                root: t.root.clone(),
                at,
            });
            self.emit_block(e, env, times, &else_gate)?;
        }
        Ok(())
    }

    /// Ensure a pulse expression has a net name (materializing if compound).
    fn materialize(&mut self, e: Expr) -> String {
        match e {
            Expr::Ref(n) => n,
            other => {
                let w = self.fresh("pulse");
                self.module.wire(&w, 1);
                self.module.assign(&w, other);
                w
            }
        }
    }

    // ----------------------------------------------------- ports & memories

    fn declare_external_port(&mut self, base: &str, info: &MemrefInfo) {
        let banks = info.num_banks();
        let width = info.elem.bit_width().unwrap_or(32);
        let addr_w = info.addr_bits().max(1);
        for b in 0..banks {
            let mk = |sig: &str| bus(base, b, banks, sig);
            if info.port.can_read() {
                self.module.port(mk("addr"), Dir::Output, addr_w);
                self.module.port(mk("rd_en"), Dir::Output, 1);
                self.module.port(mk("rd_data"), Dir::Input, width);
            }
            if info.port.can_write() {
                self.module.port(mk("waddr"), Dir::Output, addr_w);
                self.module.port(mk("wr_en"), Dir::Output, 1);
                self.module.port(mk("wr_data"), Dir::Output, width);
            }
        }
    }

    /// Emit the address/enable muxes, conflict assertions, and (for internal
    /// allocs) the memory itself for one memref port.
    fn emit_port(&mut self, port: PortInfo) -> Result<()> {
        let banks = port.info.num_banks();
        let dir = match port.info.port {
            hir::types::Port::Read => "read",
            hir::types::Port::Write => "write",
            hir::types::Port::ReadWrite => "rw",
        };
        *self
            .res
            .mem_ports
            .entry(format!("{}.{dir}", port.info.kind.mnemonic()))
            .or_insert(0) += banks;
        let width = port.info.elem.bit_width().unwrap_or(32);
        let addr_w = port.info.addr_bits().max(1);
        let depth = port.info.bank_size();

        let banked = by_bank(port.reads, banks)
            .into_iter()
            .zip(by_bank(port.writes, banks));
        for (b, (reads, writes)) in (0..banks).zip(banked) {
            if self.options.assertions {
                self.conflict_asserts(&reads);
                self.conflict_asserts(&writes);
            }
            let has_reads = !reads.is_empty();
            let has_writes = !writes.is_empty();
            let rd_en = or_all(reads.iter().map(|a| a.enable.clone()));
            let rd_addr = mux_chain(reads.into_iter().map(|a| (a.enable, a.addr)), addr_w);
            let wr_en = or_all(writes.iter().map(|a| a.enable.clone()));
            // Every write access carries data by construction; fall back to
            // zero rather than panic if that invariant ever breaks.
            let (wr_addr, wr_data): (Vec<_>, Vec<_>) = writes
                .into_iter()
                .map(|a| {
                    let data = a.wdata.unwrap_or_else(|| Expr::c(0, width));
                    ((a.enable.clone(), a.addr), (a.enable, data))
                })
                .unzip();
            let wr_addr = mux_chain(wr_addr.into_iter(), addr_w);
            let wr_data = mux_chain(wr_data.into_iter(), width);

            match &port.kind {
                PortKind::External { base } => {
                    let mk = |sig: &str| bus(base, b, banks, sig);
                    let unit = format!("port.{}.{dir}", port.info.kind.mnemonic());
                    if port.info.port.can_read() {
                        self.module.assign(mk("addr"), rd_addr);
                        self.module.assign(mk("rd_en"), rd_en);
                        self.res.unit_nets.push(resources::UnitNet {
                            unit: unit.clone(),
                            net: mk("rd_en"),
                            mode: resources::ActivityMode::High,
                        });
                    }
                    if port.info.port.can_write() {
                        self.module.assign(mk("waddr"), wr_addr);
                        self.module.assign(mk("wr_en"), wr_en.clone());
                        self.module.assign(mk("wr_data"), wr_data);
                        self.res.unit_nets.push(resources::UnitNet {
                            unit: unit.clone(),
                            net: mk("wr_en"),
                            mode: resources::ActivityMode::High,
                        });
                    }
                }
                PortKind::Internal { alloc, port_index } => {
                    let mem = self.internal_memory(*alloc, b, width, depth, port.info.kind);
                    if port.info.port.can_read() && has_reads {
                        let rdata = format!("m{}_{}_b{b}_rdata", alloc.index(), port_index);
                        self.res.unit_nets.push(resources::UnitNet {
                            unit: format!("port.{}.{dir}", port.info.kind.mnemonic()),
                            net: rdata.clone(),
                            mode: resources::ActivityMode::Toggle,
                        });
                        match port.info.kind {
                            MemKind::Reg => {
                                // Asynchronous (zero-latency) read.
                                self.module.assign(
                                    &rdata,
                                    Expr::MemRead {
                                        mem: mem.clone(),
                                        addr: Box::new(rd_addr),
                                    },
                                );
                            }
                            MemKind::LutRam | MemKind::BlockRam => {
                                // Synchronous read register.
                                self.module.main_always().stmts.push(Stmt::If {
                                    cond: rd_en,
                                    then: vec![Stmt::NonBlocking {
                                        lhs: LValue::Net(rdata.clone()),
                                        rhs: Expr::MemRead {
                                            mem: mem.clone(),
                                            addr: Box::new(rd_addr),
                                        },
                                    }],
                                    els: vec![],
                                });
                            }
                        }
                    }
                    if port.info.port.can_write() && has_writes {
                        self.module.main_always().stmts.push(Stmt::If {
                            cond: wr_en,
                            then: vec![Stmt::NonBlocking {
                                lhs: LValue::MemElem { mem, addr: wr_addr },
                                rhs: wr_data,
                            }],
                            els: vec![],
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// The (bank's) memory array of an internal alloc, shared across ports.
    fn internal_memory(
        &mut self,
        alloc: OpId,
        bank: u64,
        width: u32,
        depth: u64,
        kind: MemKind,
    ) -> String {
        let name = format!("m{}_b{bank}", alloc.index());
        if self.memory_names.insert(name.clone()) {
            self.module
                .memory(&name, width, depth.max(1), Some(kind.mnemonic()));
        }
        name
    }

    /// One assert per pair of accesses that may address the port
    /// differently in the same cycle. Structurally equal addresses never
    /// conflict, so they get none.
    fn conflict_asserts(&mut self, accesses: &[PortAccess]) {
        for (i, a) in accesses.iter().enumerate() {
            for b in accesses[i + 1..].iter().filter(|b| b.addr != a.addr) {
                self.module.main_always().stmts.push(Stmt::Assert {
                    guard: Expr::and(a.enable.clone(), b.enable.clone()),
                    cond: Expr::eq(a.addr.clone(), b.addr.clone()),
                    message: format!("memory port conflict between {} and {}", a.loc, b.loc),
                });
            }
        }
    }

    /// Drop every assertion that repeats the guard, condition and message
    /// of an earlier one. The simulator reports the first failing assert,
    /// and the first of equal ones is the one kept.
    fn drop_repeated_asserts(&mut self) {
        for block in &mut self.module.always {
            let keep = first_occurrences(
                block
                    .stmts
                    .iter()
                    .map(|s| matches!(s, Stmt::Assert { .. }).then_some(s)),
            );
            let mut keep = keep.into_iter();
            block.stmts.retain(|_| keep.next().unwrap_or(true));
        }
    }
}

// ------------------------------------------------------------------ helpers

/// Every value bound while emitting `root`'s body: the block arguments of
/// each region under `root` and the results of each op nested in it.
fn body_values(m: &Module, root: OpId) -> Vec<ValueId> {
    let mut out = Vec::new();
    m.walk(root, &mut |op| {
        if op != root {
            out.extend_from_slice(m.op(op).results());
        }
        for &r in m.op(op).regions() {
            for &b in m.region(r).blocks() {
                out.extend_from_slice(m.block(b).args());
            }
        }
    });
    out
}

fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Name of one signal of a memref argument bus as emitted by codegen
/// (`{base}_{sig}` for single-bank, `{base}_b{bank}_{sig}` for multi-bank).
/// Public so formal backends can locate the bus nets of a generated module.
pub fn bus(base: &str, bank: u64, banks: u64, sig: &str) -> String {
    if banks <= 1 {
        format!("{base}_{sig}")
    } else {
        format!("{base}_b{bank}_{sig}")
    }
}

fn mask64(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Split a port's accesses by bank, keeping program order within each bank.
/// Accesses to banks the port does not have are dropped, and so is every
/// access equal in enable, address and write data to an earlier one in its
/// bank: it drives the same bus values in the same cycles.
fn by_bank(accesses: Vec<PortAccess>, banks: u64) -> Vec<Vec<PortAccess>> {
    let mut out: Vec<Vec<PortAccess>> = (0..banks).map(|_| Vec::new()).collect();
    for a in accesses {
        if let Some(bank) = out.get_mut(a.bank as usize) {
            bank.push(a);
        }
    }
    for bank in out.iter_mut().filter(|b| b.len() > 1) {
        let keep = first_occurrences(
            bank.iter()
                .map(|a| Some((&a.enable, &a.addr, a.wdata.as_ref()))),
        );
        let mut keep = keep.into_iter();
        bank.retain(|_| keep.next().unwrap_or(true));
    }
    out
}

/// For each key in order, whether it is the first occurrence of its value.
/// `None` keys are never deduplicated. The keys are borrowed, not cloned.
fn first_occurrences<K: Eq + Hash>(keys: impl Iterator<Item = Option<K>>) -> Vec<bool> {
    let mut seen = HashSet::new();
    keys.map(|k| k.is_none_or(|k| seen.insert(k))).collect()
}

fn or_all(exprs: impl Iterator<Item = Expr>) -> Expr {
    let mut acc: Option<Expr> = None;
    for e in exprs {
        acc = Some(match acc {
            None => e,
            Some(prev) => Expr::or(prev, e),
        });
    }
    acc.unwrap_or(Expr::c(0, 1))
}

fn mux_chain(items: impl DoubleEndedIterator<Item = (Expr, Expr)>, width: u32) -> Expr {
    let mut acc = Expr::c(0, width);
    for (en, val) in items.rev() {
        acc = Expr::mux(en, val, acc);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use hir::types::{MemrefInfo, Port as MPort};
    use hir::HirBuilder;

    #[test]
    fn helper_functions() {
        assert_eq!(module_name("foo"), "hir_foo");
        assert_eq!(sanitize("a-b.c"), "a_b_c");
        assert_eq!(bus("A", 0, 1, "rd_en"), "A_rd_en");
        assert_eq!(bus("A", 2, 4, "rd_en"), "A_b2_rd_en");
        assert_eq!(mask64(8), 0xFF);
        assert_eq!(mask64(64), u64::MAX);
    }

    #[test]
    fn or_all_and_mux_chain() {
        assert_eq!(or_all(std::iter::empty()), Expr::c(0, 1));
        let one = or_all([Expr::r("a")].into_iter());
        assert_eq!(one, Expr::r("a"));
        let chain = mux_chain([(Expr::r("e1"), Expr::r("v1"))].into_iter(), 8);
        assert_eq!(
            chain,
            Expr::mux(Expr::r("e1"), Expr::r("v1"), Expr::c(0, 8))
        );
    }

    /// Shared pulse chains: two ops at the same (root, offset) reuse one
    /// shift register tap; a later offset only extends the chain.
    #[test]
    fn pulse_chains_are_shared_and_extended() {
        let mut hb = HirBuilder::new();
        let a = MemrefInfo::packed(
            &[8],
            ir::Type::int(32),
            MPort::Write,
            hir::MemKind::BlockRam,
        );
        let f = hb.func("p", &[("C", a.to_type())], &[]);
        let t = f.time_var(hb.module());
        let args = f.args(hb.module());
        let c0 = hb.const_val(0);
        let c1 = hb.const_val(1);
        let v = hb.typed_const(9, ir::Type::int(32));
        // Three ops at t+3, t+3 and t+5: the chain should have 5 regs, not 11.
        hb.mem_write(v, args[0], &[c0], t, 3);
        hb.mem_write(v, args[0], &[c1], t, 3);
        let c2 = hb.const_val(2);
        hb.mem_write(v, args[0], &[c2], t, 5);
        hb.return_(&[]);
        let m = hb.finish();
        let func = hir::ops::FuncOp::wrap(&m, m.top_ops()[0]).unwrap();
        let module = generate_func(&m, func, &CodegenOptions::default()).unwrap();
        let chain_regs = module
            .nets
            .iter()
            .filter(|n| n.name.starts_with("start_p"))
            .count();
        assert_eq!(chain_regs, 5, "one shared chain of depth 5");
    }

    #[test]
    fn generated_module_has_busy_and_location_comments() {
        let mut hb = HirBuilder::new();
        hb.set_loc(ir::Location::file_line_col("demo.mlir", 9, 1));
        let f = hb.func("g", &[("x", ir::Type::int(8))], &[0]);
        let x = f.args(hb.module())[0];
        let y = hb.add(x, x);
        hb.return_(&[y]);
        let m = hb.finish();
        let func = hir::ops::FuncOp::wrap(&m, m.top_ops()[0]).unwrap();
        let module = generate_func(&m, func, &CodegenOptions::default()).unwrap();
        assert!(module.find_port("busy").is_some());
        assert!(module.find_port("result0").is_some());
        assert!(module.find_port("result0_valid").is_some());
        let text = verilog::print_module(&module);
        assert!(
            text.contains("demo.mlir:9:1"),
            "location comments (§5.5): {text}"
        );
    }

    /// The resource report's semantic tallies line up with the hardware the
    /// generator actually emitted.
    #[test]
    fn resource_report_counts_emitted_hardware() {
        let mut hb = HirBuilder::new();
        let f = hb.func("r", &[("x", ir::Type::int(16))], &[2]);
        let t = f.time_var(hb.module());
        let x = f.args(hb.module())[0];
        let y = hb.add(x, x);
        let d = hb.delay(y, 2, t, 0);
        hb.return_(&[d]);
        let m = hb.finish();
        let func = hir::ops::FuncOp::wrap(&m, m.top_ops()[0]).unwrap();
        let (vm, res) = generate_func_with_resources(&m, func, &CodegenOptions::default()).unwrap();
        assert_eq!(res.function, "r");
        assert_eq!(res.module, "hir_r");
        assert_eq!(res.arith.get("add"), Some(&1));
        assert_eq!(res.delay_lines, 1);
        assert_eq!(res.delay_line_bits, 32, "2 stages x 16 bits");
        assert_eq!(
            res.pulse_regs, 2,
            "result_valid pulses 2 cycles after start"
        );
        let regs = vm
            .nets
            .iter()
            .filter(|n| n.kind == verilog::NetKind::Reg)
            .count() as u64;
        assert_eq!(res.registers, regs);
    }

    /// Extern stubs carry the instantiated name and the declared latency, so
    /// designs with blackbox calls elaborate and simulate.
    #[test]
    fn extern_stubs_make_blackbox_designs_simulable() {
        let mut hb = HirBuilder::new();
        hb.extern_func(
            "mult",
            &[ir::Type::int(32), ir::Type::int(32)],
            &[ir::Type::int(32)],
            &[2],
        );
        let f = hb.func("use_mult", &[("a", ir::Type::int(32))], &[2]);
        let t = f.time_var(hb.module());
        let a = f.args(hb.module())[0];
        let r = hb.call("mult", &[a, a], t, 0);
        hb.return_(&[r[0]]);
        let m = hb.finish();
        let mut design = generate_design(&m, &CodegenOptions::default()).unwrap();
        for stub in extern_stubs(&m).unwrap() {
            design.add(stub);
        }
        if let Err(e) = verilog::Simulator::new(&design, "hir_use_mult") {
            panic!("stubbed design must elaborate: {e}");
        }
    }

    /// Nested `unroll_for`: every replica binds its own copy of the body's
    /// values, and the bindings end with the loop, exactly as if each
    /// replica had started from a copy of the enclosing scope.
    #[test]
    fn unroll_bindings_are_per_replica_and_end_with_the_loop() {
        let build = |use_after_loop: bool| {
            let mut hb = HirBuilder::new();
            let o = MemrefInfo::new(
                vec![Dim::Distributed(2), Dim::Distributed(3)],
                ir::Type::int(32),
                MPort::Write,
                hir::MemKind::Reg,
            );
            let f = hb.func("u", &[("a", ir::Type::int(32)), ("O", o.to_type())], &[0]);
            let t = f.time_var(hb.module());
            let args = f.args(hb.module());
            let mut inner_value = None;
            let outer = hb.unroll_for(0, 2, 1, t, 0);
            hb.in_unroll(outer, |hb, i, ti| {
                let x = hb.add(args[0], i);
                let inner = hb.unroll_for(0, 3, 1, ti, 0);
                hb.in_unroll(inner, |hb, j, tj| {
                    let y = hb.add(x, j);
                    hb.mem_write(y, args[1], &[i, j], tj, 0);
                    inner_value = Some(y);
                    hb.yield_at(tj, 0);
                });
                hb.yield_at(ti, 0);
            });
            let result = if use_after_loop {
                inner_value.unwrap()
            } else {
                args[0]
            };
            hb.return_(&[result]);
            let m = hb.finish();
            let func = hir::ops::FuncOp::wrap(&m, m.top_ops()[0]).unwrap();
            generate_func(&m, func, &CodegenOptions::default())
        };

        let vm = build(false).unwrap();
        // One `x` per outer replica and one `y` per inner replica, each on
        // its own wire.
        let adds: Vec<&verilog::Assign> = vm
            .assigns
            .iter()
            .filter(|a| matches!(a.rhs, Expr::Binary { op: BinOp::Add, .. }))
            .collect();
        assert_eq!(adds.len(), 2 + 2 * 3);
        let data: Vec<String> = (0..6)
            .map(|b| {
                let net = bus("O", b, 6, "wr_data");
                let a = vm.assigns.iter().find(|a| a.lhs == net).unwrap();
                verilog::print_expr(&a.rhs)
            })
            .collect();
        for (b, d) in data.iter().enumerate() {
            assert!(
                data[b + 1..].iter().all(|other| other != d),
                "bank {b} shares its data wire: {data:?}"
            );
        }

        // A body value used after the loop is unbound, with the same error
        // as any use before definition.
        assert_eq!(
            build(true).unwrap_err(),
            CodegenError("use of value before its generator was emitted".into())
        );
    }

    /// File names reach the RTL through location comments and assertion
    /// messages; quotes, backslashes and line breaks in them must not
    /// break out of the Verilog string literal or comment.
    #[test]
    fn locations_with_quotes_and_newlines_print_valid_verilog() {
        let mut hb = HirBuilder::new();
        hb.set_loc(ir::Location::file_line_col("odd\"dir\\x\ny.mlir", 4, 2));
        let a = MemrefInfo::packed(&[8], ir::Type::int(32), MPort::Read, hir::MemKind::BlockRam);
        let f = hb.func("q", &[("A", a.to_type()), ("i", ir::Type::int(8))], &[1]);
        let t = f.time_var(hb.module());
        let args = f.args(hb.module());
        let v = hb.mem_read(args[0], &[args[1]], t, 0);
        let w = hb.add(v, v);
        hb.return_(&[w]);
        let m = hb.finish();
        let func = hir::ops::FuncOp::wrap(&m, m.top_ops()[0]).unwrap();
        let text =
            verilog::print_module(&generate_func(&m, func, &CodegenOptions::default()).unwrap());
        assert!(
            text.contains(r#"$error("index out of bounds at odd\"dir\\x\012y.mlir:4:2");"#),
            "{text}"
        );
        assert!(text.contains(r#"  // odd"dir\x\ny.mlir:4:2"#), "{text}");
        assert!(
            !text.lines().any(|l| l.starts_with("y.mlir")),
            "no comment or message spills onto a new line: {text}"
        );
    }

    /// A one-function module reading or writing memref `A` through `body`,
    /// which gets the builder, `A`, the scalar arguments and the time var.
    fn port_module(
        port: MPort,
        depth: u64,
        scalars: &[(&str, ir::Type)],
        body: impl FnOnce(&mut HirBuilder, ValueId, &[ValueId], ValueId),
    ) -> VModule {
        let mut hb = HirBuilder::new();
        let a = MemrefInfo::packed(&[depth], ir::Type::int(32), port, hir::MemKind::BlockRam);
        let mut args = vec![("A", a.to_type())];
        args.extend(scalars.iter().cloned());
        let f = hb.func("pm", &args, &[]);
        let t = f.time_var(hb.module());
        let vals = f.args(hb.module());
        body(&mut hb, vals[0], &vals[1..], t);
        hb.return_(&[]);
        let m = hb.finish();
        let func = hir::ops::FuncOp::wrap(&m, m.top_ops()[0]).unwrap();
        generate_func(&m, func, &CodegenOptions::default()).unwrap()
    }

    fn asserts(vm: &VModule) -> Vec<(&Expr, &str)> {
        vm.always
            .iter()
            .flat_map(|b| &b.stmts)
            .filter_map(|s| match s {
                Stmt::Assert { cond, message, .. } => Some((cond, message.as_str())),
                _ => None,
            })
            .collect()
    }

    /// `name[2:0]`: an 8-bit index truncated to an 8-deep port's address.
    fn low3(name: &str) -> Expr {
        Expr::Slice {
            base: Box::new(Expr::r(name)),
            hi: 2,
            lo: 0,
        }
    }

    fn assign<'a>(vm: &'a VModule, lhs: &str) -> &'a Expr {
        &vm.assigns.iter().find(|a| a.lhs == lhs).unwrap().rhs
    }

    /// Two reads enabled together at different addresses keep their
    /// conflict assert; two at the same address get none.
    #[test]
    fn conflict_assert_only_for_different_addresses() {
        let i8 = ir::Type::int(8);
        let differ = port_module(
            MPort::Read,
            8,
            &[("i", i8.clone()), ("j", i8.clone())],
            |hb, a, s, t| {
                hb.mem_read(a, &[s[0]], t, 0);
                hb.mem_read(a, &[s[1]], t, 0);
            },
        );
        let conflicts: Vec<&Expr> = asserts(&differ)
            .into_iter()
            .filter(|(_, msg)| msg.starts_with("memory port conflict"))
            .map(|(cond, _)| cond)
            .collect();
        assert_eq!(conflicts, [&Expr::eq(low3("i"), low3("j"))]);

        let same = port_module(MPort::Read, 8, &[("i", i8)], |hb, a, s, t| {
            hb.mem_read(a, &[s[0]], t, 0);
            let one = hb.const_val(1);
            hb.mem_read(a, &[s[0]], t, 0);
            hb.mem_read(a, &[one], t, 0);
            hb.mem_read(a, &[one], t, 0);
        });
        let msgs: Vec<&str> = asserts(&same).into_iter().map(|(_, m)| m).collect();
        assert_eq!(
            msgs.iter()
                .filter(|m| m.starts_with("memory port conflict"))
                .count(),
            1,
            "only the i-vs-1 pair can conflict: {msgs:?}"
        );
    }

    /// The bounds guard is written only when the index's natural width can
    /// reach the bound, and never twice for the same access.
    #[test]
    fn bounds_assert_only_when_the_index_can_reach_the_bound() {
        let count = |w: u32, depth: u64| {
            let vm = port_module(
                MPort::Read,
                depth,
                &[("i", ir::Type::int(w))],
                |hb, a, s, t| {
                    hb.mem_read(a, &[s[0]], t, 0);
                    hb.mem_read(a, &[s[0]], t, 0);
                },
            );
            asserts(&vm)
                .iter()
                .filter(|(_, m)| m.starts_with("index out of bounds"))
                .count()
        };
        assert_eq!(count(2, 4), 0, "2^2 <= 4: every value is in range");
        assert_eq!(count(2, 5), 0);
        assert_eq!(count(3, 5), 1, "2^3 > 5: 5..=7 are out of range");
        assert_eq!(count(8, 4), 1);
    }

    /// Two writes with the same enable and address but different data are
    /// different accesses: both stay in the data mux chain.
    #[test]
    fn writes_with_different_data_both_stay_in_the_mux_chain() {
        let i32t = ir::Type::int(32);
        let vm = port_module(
            MPort::Write,
            8,
            &[("i", ir::Type::int(8)), ("x", i32t.clone()), ("y", i32t)],
            |hb, a, s, t| {
                hb.mem_write(s[1], a, &[s[0]], t, 0);
                hb.mem_write(s[2], a, &[s[0]], t, 0);
                hb.mem_write(s[1], a, &[s[0]], t, 0);
            },
        );
        assert_eq!(
            assign(&vm, "A_wr_data"),
            &Expr::mux(
                Expr::r("start"),
                Expr::r("x"),
                Expr::mux(Expr::r("start"), Expr::r("y"), Expr::c(0, 32))
            )
        );
    }

    /// A read repeated with the same enable and address is one access: one
    /// mux arm and one enable term.
    #[test]
    fn duplicated_read_gives_one_arm_and_one_enable_term() {
        let vm = port_module(MPort::Read, 8, &[("i", ir::Type::int(8))], |hb, a, s, t| {
            hb.mem_read(a, &[s[0]], t, 0);
            hb.mem_read(a, &[s[0]], t, 0);
        });
        assert_eq!(assign(&vm, "A_rd_en"), &Expr::r("start"));
        assert_eq!(
            assign(&vm, "A_addr"),
            &Expr::mux(Expr::r("start"), low3("i"), Expr::c(0, 3))
        );
        let bounds = asserts(&vm);
        assert_eq!(bounds.len(), 1, "one bounds guard, no conflict: {bounds:?}");
    }

    #[test]
    fn assertions_can_be_disabled() {
        let mut hb = HirBuilder::new();
        let a = MemrefInfo::packed(&[8], ir::Type::int(32), MPort::Read, hir::MemKind::BlockRam);
        let f = hb.func("na", &[("A", a.to_type())], &[]);
        let t = f.time_var(hb.module());
        let args = f.args(hb.module());
        let (c0, c8, c1) = (hb.const_val(0), hb.const_val(8), hb.const_val(1));
        let lp = hb.for_loop(c0, c8, c1, t, 1, ir::Type::int(8));
        hb.in_loop(lp, |hb, i, ti| {
            hb.mem_read(args[0], &[i], ti, 0);
            hb.yield_at(ti, 1);
        });
        hb.return_(&[]);
        let m = hb.finish();
        let func = hir::ops::FuncOp::wrap(&m, m.top_ops()[0]).unwrap();

        let with = generate_func(&m, func, &CodegenOptions::default()).unwrap();
        let without = generate_func(
            &m,
            func,
            &CodegenOptions {
                assertions: false,
                location_comments: false,
            },
        )
        .unwrap();
        let has_assert = |md: &VModule| {
            md.always
                .iter()
                .flat_map(|b| &b.stmts)
                .any(|s| matches!(s, Stmt::Assert { .. }))
        };
        assert!(has_assert(&with));
        assert!(!has_assert(&without));
    }
}
