//! Cycle-accurate interpreter for HIR designs.
//!
//! The interpreter executes a top-level `hir.func` the way the generated
//! hardware would: loop iterations are launched by `hir.yield` at their
//! scheduled cycles (so pipelined loops genuinely overlap), memory writes
//! become visible at the end of their cycle, and the undefined behaviours of
//! paper §4.5 (out-of-bounds access, reads of uninitialized memory, port
//! conflicts) are detected and reported as [`SimError`]s — playing the role
//! of the assertions the code generator emits into Verilog.
//!
//! Functional results from this interpreter are cross-checked in the test
//! suite against both software references and the Verilog simulator running
//! the generated RTL.

use crate::dialect::opname;
use crate::ops::{
    self, AllocOp, CallOp, ComputeKind, ConstantOp, DelayOp, ForOp, FuncOp, IfOp, MemReadOp,
    MemWriteOp, UnrollForOp, YieldOp,
};
use crate::semantics::{self, wrap_to};
use crate::types::MemrefInfo;
use ir::{Module, OpId, SymbolTable, ValueId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::rc::Rc;

/// A runtime value.
#[derive(Clone, Debug, PartialEq)]
pub enum Val {
    /// Integer in the value model of [`crate::semantics`]: an `iN` value is
    /// its N-bit pattern sign-wrapped into `i128` (constants, scalar
    /// arguments, memory words and external results are wrapped where they
    /// are read), a `!hir.const` value is unbounded, and a loop induction
    /// variable holds the unwrapped loop counter.
    Int(i128),
    /// Float.
    Float(f64),
    /// A time instant (absolute cycle).
    Time(u64),
}

impl Val {
    /// Integer payload.
    ///
    /// # Panics
    /// Panics if the value is not an integer.
    pub fn as_int(&self) -> i128 {
        match self {
            Val::Int(v) => *v,
            other => panic!("expected integer value, got {other:?}"),
        }
    }

    /// Time payload.
    ///
    /// # Panics
    /// Panics if the value is not a time instant.
    pub fn as_time(&self) -> u64 {
        match self {
            Val::Time(t) => *t,
            other => panic!("expected time value, got {other:?}"),
        }
    }
}

/// Simulation failure: a detected undefined behaviour or an engine limit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimError {
    pub cycle: u64,
    pub message: String,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}: {}", self.cycle, self.message)
    }
}

impl std::error::Error for SimError {}

type SimResult<T> = Result<T, SimError>;

/// An argument passed to the simulated top-level function.
#[derive(Clone, Debug)]
pub enum ArgValue {
    /// Scalar integer argument.
    Int(i128),
    /// A fresh tensor backing a memref argument; `None` = uninitialized.
    Tensor(Vec<Option<i128>>),
    /// Alias the tensor of an earlier argument (another port onto it).
    SharedWith(usize),
}

impl ArgValue {
    /// An initialized tensor from plain data.
    pub fn tensor_from(data: &[i128]) -> Self {
        ArgValue::Tensor(data.iter().map(|&v| Some(v)).collect())
    }

    /// An uninitialized tensor of the given size.
    pub fn uninit_tensor(len: usize) -> Self {
        ArgValue::Tensor(vec![None; len])
    }
}

/// Result of a simulation run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Cycle of the last activity (the design's latency).
    pub cycles: u64,
    /// Values returned by the function's `hir.return`.
    pub results: Vec<i128>,
    /// Final contents of each tensor-backed argument, by argument index.
    pub tensors: HashMap<usize, Vec<Option<i128>>>,
    /// Total number of scheduled-op executions (activity measure).
    pub ops_executed: u64,
}

/// Behavioural function type of an [`ExternalModel`].
pub type ExternalFn = dyn Fn(&[Val]) -> Vec<Val>;

/// Model of an external (blackbox Verilog) function.
pub struct ExternalModel {
    /// Combinational function from arguments to results; timing is taken
    /// from the declaration's `result_delays`.
    pub eval: Rc<ExternalFn>,
}

impl ExternalModel {
    pub fn new(eval: impl Fn(&[Val]) -> Vec<Val> + 'static) -> Self {
        ExternalModel {
            eval: Rc::new(eval),
        }
    }
}

impl fmt::Debug for ExternalModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ExternalModel(..)")
    }
}

/// Interpreter options.
#[derive(Clone, Debug)]
pub struct InterpOptions {
    /// Abort if simulation exceeds this many cycles (hang protection).
    pub max_cycles: u64,
}

impl Default for InterpOptions {
    fn default() -> Self {
        InterpOptions {
            max_cycles: 10_000_000,
        }
    }
}

/// The interpreter. Holds the module, external models and options.
pub struct Interpreter<'m> {
    module: &'m Module,
    symbols: SymbolTable,
    externals: HashMap<String, ExternalModel>,
    options: InterpOptions,
}

impl<'m> Interpreter<'m> {
    pub fn new(module: &'m Module) -> Self {
        Interpreter {
            module,
            symbols: SymbolTable::build(module),
            externals: HashMap::new(),
            options: InterpOptions::default(),
        }
    }

    /// Register a behavioural model for an external function.
    pub fn with_external(mut self, name: impl Into<String>, model: ExternalModel) -> Self {
        self.externals.insert(name.into(), model);
        self
    }

    /// Override engine options.
    pub fn with_options(mut self, options: InterpOptions) -> Self {
        self.options = options;
        self
    }

    /// Simulate calling `func_name` at cycle 0 with the given arguments.
    ///
    /// # Errors
    /// Returns a [`SimError`] on detected undefined behaviour (§4.5) or when
    /// `max_cycles` is exceeded.
    pub fn run(&self, func_name: &str, args: &[ArgValue]) -> SimResult<SimReport> {
        let func_op = self.symbols.lookup(func_name).ok_or_else(|| SimError {
            cycle: 0,
            message: format!("no function named '@{func_name}'"),
        })?;
        let func = FuncOp::wrap(self.module, func_op).ok_or_else(|| SimError {
            cycle: 0,
            message: format!("'@{func_name}' is not a hir.func"),
        })?;
        let mut engine = Engine::new(self);
        engine.start(func, args)?;
        engine.run_to_completion()?;
        engine.report(func, args)
    }
}

// ------------------------------------------------------------------- engine

type FrameId = usize;
type TensorId = usize;
type PortId = usize;

#[derive(Clone, Debug)]
enum Slot {
    Val(Val),
    Mem {
        tensor: TensorId,
        port: PortId,
    },
    /// Value bound in another frame (call results aliasing return operands).
    Alias {
        frame: FrameId,
        value: ValueId,
    },
}

#[derive(Debug, Default)]
struct Frame {
    bindings: HashMap<ValueId, Slot>,
    parent: Option<FrameId>,
}

#[derive(Debug)]
struct Tensor {
    data: Vec<Option<i128>>,
    info: MemrefInfo,
}

#[derive(Clone, Debug)]
enum Event {
    /// Try to start iteration `iv` of a loop whose body runs in a child of
    /// `frame`.
    StartIter { op: OpId, frame: FrameId, iv: i128 },
    /// Execute a scheduled op in `frame`.
    Exec { op: OpId, frame: FrameId },
}

struct PendingWrite {
    tensor: TensorId,
    flat: u64,
    value: i128,
}

struct Engine<'m, 'i> {
    interp: &'i Interpreter<'m>,
    frames: Vec<Frame>,
    tensors: Vec<Tensor>,
    next_port: PortId,
    queue: BinaryHeap<Reverse<(u64, u64, usize)>>,
    events: Vec<Event>,
    seq: u64,
    now: u64,
    pending_writes: Vec<PendingWrite>,
    /// (port, bank) -> address accessed this cycle.
    port_usage: HashMap<(PortId, u64), u64>,
    /// Ops waiting on a time value to be bound: (frame, value) -> events.
    waiters: HashMap<(FrameId, ValueId), Vec<Event>>,
    /// Loop instances currently executing, per (loop op, function-instance
    /// frame): re-entering an active instance is undefined behaviour
    /// (§4.5). Keying on the call's root frame lets concurrent calls to
    /// the same function (task parallelism) each run their own instance.
    active_loops: HashMap<(OpId, FrameId), bool>,
    /// Frame of the top-level call, to read back results.
    top_frame: FrameId,
    ops_executed: u64,
    last_activity: u64,
}

impl<'m, 'i> Engine<'m, 'i> {
    fn new(interp: &'i Interpreter<'m>) -> Self {
        Engine {
            interp,
            frames: Vec::new(),
            tensors: Vec::new(),
            next_port: 0,
            queue: BinaryHeap::new(),
            events: Vec::new(),
            seq: 0,
            now: 0,
            pending_writes: Vec::new(),
            port_usage: HashMap::new(),
            waiters: HashMap::new(),
            active_loops: HashMap::new(),
            top_frame: 0,
            ops_executed: 0,
            last_activity: 0,
        }
    }

    fn m(&self) -> &'m Module {
        self.interp.module
    }

    fn err(&self, message: impl Into<String>) -> SimError {
        SimError {
            cycle: self.now,
            message: message.into(),
        }
    }

    fn new_frame(&mut self, parent: Option<FrameId>) -> FrameId {
        self.frames.push(Frame {
            bindings: HashMap::new(),
            parent,
        });
        self.frames.len() - 1
    }

    fn bind(&mut self, frame: FrameId, value: ValueId, slot: Slot) {
        self.frames[frame].bindings.insert(value, slot);
        // Release any ops waiting on this time value.
        if let Some(waiting) = self.waiters.remove(&(frame, value)) {
            for ev in waiting {
                self.requeue_waiter(ev);
            }
        }
    }

    fn requeue_waiter(&mut self, ev: Event) {
        // Re-dispatch through scheduling so the (now known) time resolves.
        match ev {
            Event::Exec { op, frame } => {
                // Scheduling logic recomputes the cycle.
                self.schedule_op(op, frame);
            }
            Event::StartIter { .. } => unreachable!("iterations never wait on time values"),
        }
    }

    fn push_event(&mut self, cycle: u64, ev: Event) {
        let idx = self.events.len();
        self.events.push(ev);
        self.queue.push(Reverse((cycle, self.seq, idx)));
        self.seq += 1;
    }

    // ------------------------------------------------------------ start/run

    fn start(&mut self, func: FuncOp, args: &[ArgValue]) -> SimResult<()> {
        let m = self.m();
        let frame = self.new_frame(None);
        self.top_frame = frame;
        let formal_args = func.args(m);
        if formal_args.len() != args.len() {
            return Err(self.err(format!(
                "function takes {} arguments, got {}",
                formal_args.len(),
                args.len()
            )));
        }
        let mut arg_tensors: Vec<Option<TensorId>> = Vec::new();
        for (i, (formal, actual)) in formal_args.iter().zip(args).enumerate() {
            let ty = m.value_type(*formal);
            match (MemrefInfo::from_type(&ty), actual) {
                (Some(info), ArgValue::Tensor(data)) => {
                    if data.len() as u64 != info.num_elements() {
                        return Err(self.err(format!(
                            "argument {i}: tensor has {} elements, memref expects {}",
                            data.len(),
                            info.num_elements()
                        )));
                    }
                    let tensor = self.tensors.len();
                    self.tensors.push(Tensor {
                        data: data.clone(),
                        info,
                    });
                    arg_tensors.push(Some(tensor));
                    let port = self.next_port;
                    self.next_port += 1;
                    self.bind(frame, *formal, Slot::Mem { tensor, port });
                }
                (Some(_), ArgValue::SharedWith(j)) => {
                    let tensor = arg_tensors.get(*j).copied().flatten().ok_or_else(|| {
                        self.err(format!("argument {i}: SharedWith({j}) is not a tensor"))
                    })?;
                    arg_tensors.push(Some(tensor));
                    let port = self.next_port;
                    self.next_port += 1;
                    self.bind(frame, *formal, Slot::Mem { tensor, port });
                }
                (None, ArgValue::Int(v)) => {
                    arg_tensors.push(None);
                    self.bind(frame, *formal, Slot::Val(Val::Int(wrap_to(*v, &ty))));
                }
                _ => {
                    return Err(self.err(format!(
                        "argument {i}: kind mismatch between {ty} and {actual:?}"
                    )))
                }
            }
        }
        self.bind(frame, func.time_var(m), Slot::Val(Val::Time(0)));
        self.enter_block(func.body(m), frame)?;
        Ok(())
    }

    fn run_to_completion(&mut self) -> SimResult<()> {
        while let Some(&Reverse((cycle, _, _))) = self.queue.peek() {
            if cycle > self.now {
                self.advance_to(cycle)?;
            }
            let Reverse((_, _, idx)) = self.queue.pop().unwrap();
            let ev = self.events[idx].clone();
            self.dispatch(ev)?;
        }
        // Apply writes of the final cycle.
        self.apply_pending_writes();
        if !self.waiters.is_empty() {
            return Err(self.err(format!(
                "{} scheduled op(s) never executed: their time variables were never bound \
                 (dead schedule)",
                self.waiters.values().map(Vec::len).sum::<usize>()
            )));
        }
        Ok(())
    }

    fn advance_to(&mut self, cycle: u64) -> SimResult<()> {
        self.apply_pending_writes();
        self.port_usage.clear();
        self.now = cycle;
        if cycle > self.interp.options.max_cycles {
            return Err(self.err(format!(
                "simulation exceeded {} cycles (design may not terminate)",
                self.interp.options.max_cycles
            )));
        }
        Ok(())
    }

    fn apply_pending_writes(&mut self) {
        for w in self.pending_writes.drain(..) {
            self.tensors[w.tensor].data[w.flat as usize] = Some(w.value);
        }
    }

    fn report(&mut self, func: FuncOp, args: &[ArgValue]) -> SimResult<SimReport> {
        let m = self.m();
        let ret = func
            .return_op(m)
            .ok_or_else(|| self.err("function has no return"))?;
        let mut results = Vec::new();
        for &v in m.op(ret).operands() {
            results.push(self.eval(self.top_frame, v)?.as_int());
        }
        let mut tensors = HashMap::new();
        for (i, (formal, actual)) in func.args(m).iter().zip(args).enumerate() {
            if matches!(actual, ArgValue::Tensor(_)) {
                if let Some(Slot::Mem { tensor, .. }) =
                    self.frames[self.top_frame].bindings.get(formal)
                {
                    tensors.insert(i, self.tensors[*tensor].data.clone());
                }
            }
        }
        Ok(SimReport {
            cycles: self.last_activity,
            results,
            tensors,
            ops_executed: self.ops_executed,
        })
    }

    // ----------------------------------------------------------- scheduling

    /// Schedule every schedulable op of a block into `frame`. Allocs are
    /// materialized immediately so every port is bound in the right scope.
    fn enter_block(&mut self, block: ir::BlockId, frame: FrameId) -> SimResult<()> {
        for &op in self.m().block(block).ops() {
            if let Some(alloc) = AllocOp::wrap(self.m(), op) {
                self.materialize_alloc(alloc, frame);
                continue;
            }
            self.schedule_op(op, frame);
        }
        Ok(())
    }

    fn materialize_alloc(&mut self, alloc: AllocOp, frame: FrameId) {
        let m = self.m();
        let info = alloc.info(m);
        let tensor = self.tensors.len();
        self.tensors.push(Tensor {
            data: vec![None; info.num_elements() as usize],
            info,
        });
        for port_val in alloc.ports(m) {
            let port = self.next_port;
            self.next_port += 1;
            self.bind(frame, port_val, Slot::Mem { tensor, port });
        }
    }

    /// Compute the absolute cycle of a scheduled op and queue it; ops whose
    /// time operand is not yet bound are parked in the waiter table.
    fn schedule_op(&mut self, op: OpId, frame: FrameId) {
        let m = self.m();
        let name = m.op(op).name().as_str();
        match name {
            opname::CONSTANT | opname::RETURN => return, // unscheduled
            _ => {}
        }
        let Some(time) = ops::time_operand(m, op) else {
            return; // combinational op: evaluated lazily
        };
        let offset = ops::time_offset(m, op);
        match self.resolve_time(frame, time) {
            Some(base) => {
                let cycle = base + offset as u64;
                self.push_event(cycle, Event::Exec { op, frame });
            }
            None => {
                // Park until the time value is bound in its owning frame.
                let owner = self.owning_frame(frame, time);
                self.waiters
                    .entry((owner, time))
                    .or_default()
                    .push(Event::Exec { op, frame });
            }
        }
    }

    /// The frame in whose scope `value` will be bound (walks parents).
    fn owning_frame(&self, frame: FrameId, value: ValueId) -> FrameId {
        // A value is bound in the innermost frame that already contains it,
        // or — for not-yet-bound loop results — in the frame where the loop
        // op itself was scheduled. Since loop results are bound into the
        // *same* frame that scheduled the waiting op's sibling loop op, the
        // current frame chain's innermost frame that will receive it is
        // `frame` itself unless a parent already binds it.
        let mut cur = Some(frame);
        while let Some(f) = cur {
            if self.frames[f].bindings.contains_key(&value) {
                return f;
            }
            cur = self.frames[f].parent;
        }
        frame
    }

    /// The function-instance (root) frame enclosing `frame`.
    fn root_frame(&self, frame: FrameId) -> FrameId {
        let mut cur = frame;
        while let Some(p) = self.frames[cur].parent {
            cur = p;
        }
        cur
    }

    fn resolve_time(&self, frame: FrameId, time: ValueId) -> Option<u64> {
        let mut cur = Some(frame);
        while let Some(f) = cur {
            if let Some(slot) = self.frames[f].bindings.get(&time) {
                return match slot {
                    Slot::Val(Val::Time(t)) => Some(*t),
                    Slot::Alias { frame, value } => self.resolve_time(*frame, *value),
                    _ => None,
                };
            }
            cur = self.frames[f].parent;
        }
        None
    }

    // ------------------------------------------------------------- dispatch

    fn dispatch(&mut self, ev: Event) -> SimResult<()> {
        self.last_activity = self.last_activity.max(self.now);
        match ev {
            Event::StartIter { op, frame, iv } => self.start_iteration(op, frame, iv),
            Event::Exec { op, frame } => self.exec(op, frame),
        }
    }

    fn exec(&mut self, op: OpId, frame: FrameId) -> SimResult<()> {
        self.ops_executed += 1;
        let m = self.m();
        match m.op(op).name().as_str() {
            opname::FOR => {
                let lp = ForOp(op);
                let lb = self.eval(frame, lp.lower_bound(m))?.as_int();
                let ub = self.eval(frame, lp.upper_bound(m))?.as_int();
                if lb > ub {
                    return Err(self.err(format!(
                        "undefined behaviour: loop lower bound {lb} exceeds upper bound {ub}"
                    )));
                }
                // §4.5: a new instance must not start while one is active.
                let root = self.root_frame(frame);
                if self.active_loops.insert((op, root), true).is_some() {
                    return Err(self.err(
                        "undefined behaviour: loop instance re-entered before the previous                          instance completed"
                            .to_string(),
                    ));
                }
                self.start_iteration(op, frame, lb)
            }
            opname::UNROLL_FOR => {
                let lp = UnrollForOp(op);
                self.start_iteration(op, frame, lp.lb(m) as i128)
            }
            opname::YIELD => self.exec_yield(op, frame),
            opname::MEM_READ => self.exec_mem_read(op, frame),
            opname::MEM_WRITE => self.exec_mem_write(op, frame),
            opname::CALL => self.exec_call(op, frame),
            opname::IF => self.exec_if(op, frame),
            opname::DELAY => {
                // Functionally the identity; eagerly evaluate so downstream
                // mem ops see it even across if-branch frames.
                let d = DelayOp(op);
                let v = self.eval(frame, d.input(m))?;
                self.bind(frame, d.result(m), Slot::Val(v));
                Ok(())
            }
            opname::ALLOC => unreachable!("alloc is handled at block entry"),
            other => Err(self.err(format!("cannot execute op '{other}'"))),
        }
    }

    fn loop_parts(&self, op: OpId) -> (ValueId, ValueId, ValueId, ir::BlockId) {
        let m = self.m();
        if let Some(lp) = ForOp::wrap(m, op) {
            (
                lp.induction_var(m),
                lp.iter_time(m),
                lp.result_time(m),
                lp.body(m),
            )
        } else {
            let lp = UnrollForOp(op);
            (
                lp.induction_var(m),
                lp.iter_time(m),
                lp.result_time(m),
                lp.body(m),
            )
        }
    }

    fn start_iteration(&mut self, op: OpId, frame: FrameId, iv: i128) -> SimResult<()> {
        let m = self.m();
        let (iv_val, iter_time, result_time, body) = self.loop_parts(op);
        let ub = if let Some(lp) = ForOp::wrap(m, op) {
            self.eval(frame, lp.upper_bound(m))?.as_int()
        } else {
            UnrollForOp(op).ub(m) as i128
        };
        if iv >= ub {
            // Loop complete: bind %tf to the current cycle in the parent.
            let root = self.root_frame(frame);
            self.active_loops.remove(&(op, root));
            self.bind(frame, result_time, Slot::Val(Val::Time(self.now)));
            return Ok(());
        }
        let iter_frame = self.new_frame(Some(frame));
        self.bind(iter_frame, iv_val, Slot::Val(Val::Int(iv)));
        self.bind(iter_frame, iter_time, Slot::Val(Val::Time(self.now)));
        self.enter_block(body, iter_frame)
    }

    fn exec_yield(&mut self, op: OpId, frame: FrameId) -> SimResult<()> {
        let m = self.m();
        let _ = YieldOp(op);
        // The yield's frame is a loop iteration frame; find the loop op.
        let loop_op = m.block_parent_op(m.op(op).parent().expect("yield inside a block"));
        let (iv_val, _, _, _) = self.loop_parts(loop_op);
        let iv = self.eval(frame, iv_val)?.as_int();
        let step = if let Some(lp) = ForOp::wrap(m, loop_op) {
            self.eval(frame, lp.step(m))?.as_int()
        } else {
            UnrollForOp(loop_op).step(m) as i128
        };
        let parent = self.frames[frame]
            .parent
            .expect("iteration frame has a parent");
        // The next iteration starts now (the yield's scheduled time).
        self.push_event(
            self.now,
            Event::StartIter {
                op: loop_op,
                frame: parent,
                iv: iv + step,
            },
        );
        Ok(())
    }

    fn memref_slot(&mut self, frame: FrameId, mem: ValueId) -> SimResult<(TensorId, PortId)> {
        // Walk frames; if unbound, the memref must come from an alloc that
        // has not been materialized yet (allocs materialize on first touch).
        let mut cur = Some(frame);
        while let Some(f) = cur {
            if let Some(slot) = self.frames[f].bindings.get(&mem) {
                return match slot {
                    Slot::Mem { tensor, port } => Ok((*tensor, *port)),
                    Slot::Alias { frame, value } => {
                        let (frame, value) = (*frame, *value);
                        self.memref_slot(frame, value)
                    }
                    other => Err(self.err(format!("value bound to non-memref slot {other:?}"))),
                };
            }
            cur = self.frames[f].parent;
        }
        Err(self.err("memref value has no binding (alloc outside the executed scope?)"))
    }

    fn eval_indices(
        &mut self,
        frame: FrameId,
        indices: &[ValueId],
        info: &MemrefInfo,
    ) -> SimResult<Vec<u64>> {
        let mut out = Vec::with_capacity(indices.len());
        for (dim, &idx) in info.dims.iter().zip(indices) {
            // Addresses are unsigned: address buses carry raw bits.
            let v = semantics::unsigned(self.eval(frame, idx)?.as_int(), &self.m().value_type(idx));
            if v < 0 || v as u64 >= dim.size() {
                return Err(self.err(format!(
                    "undefined behaviour: index {v} out of bounds for dimension of size {}",
                    dim.size()
                )));
            }
            out.push(v as u64);
        }
        Ok(out)
    }

    fn check_port(&mut self, port: PortId, bank: u64, addr: u64) -> SimResult<()> {
        match self.port_usage.get(&(port, bank)) {
            Some(&prev) if prev != addr => Err(self.err(format!(
                "undefined behaviour: port conflict — two accesses at addresses {prev} and \
                 {addr} on the same memory port in the same cycle"
            ))),
            _ => {
                self.port_usage.insert((port, bank), addr);
                Ok(())
            }
        }
    }

    fn exec_mem_read(&mut self, op: OpId, frame: FrameId) -> SimResult<()> {
        let m = self.m();
        let rd = MemReadOp(op);
        let (tensor, port) = self.memref_slot(frame, rd.memref(m))?;
        let info = self.tensors[tensor].info.clone();
        let index = self.eval_indices(frame, &rd.indices(m), &info)?;
        let bank = info.bank_index(&index);
        let addr = info.linear_index(&index);
        self.check_port(port, bank, addr)?;
        let flat = info.flat_index(&index);
        let value = self.tensors[tensor].data[flat as usize].ok_or_else(|| {
            self.err(format!(
                "undefined behaviour: read of uninitialized memory at index {index:?}"
            ))
        })?;
        let value = wrap_to(value, &info.elem);
        self.bind(frame, rd.result(m), Slot::Val(Val::Int(value)));
        Ok(())
    }

    fn exec_mem_write(&mut self, op: OpId, frame: FrameId) -> SimResult<()> {
        let m = self.m();
        let wr = MemWriteOp(op);
        let (tensor, port) = self.memref_slot(frame, wr.memref(m))?;
        let info = self.tensors[tensor].info.clone();
        let index = self.eval_indices(frame, &wr.indices(m), &info)?;
        let bank = info.bank_index(&index);
        let addr = info.linear_index(&index);
        self.check_port(port, bank, addr)?;
        let flat = info.flat_index(&index);
        let value = wrap_to(self.eval(frame, wr.value(m))?.as_int(), &info.elem);
        self.pending_writes.push(PendingWrite {
            tensor,
            flat,
            value,
        });
        Ok(())
    }

    fn exec_call(&mut self, op: OpId, frame: FrameId) -> SimResult<()> {
        let m = self.m();
        let call = CallOp(op);
        let callee_name = call.callee(m);
        let callee_op = self
            .interp
            .symbols
            .lookup(&callee_name)
            .ok_or_else(|| self.err(format!("call to unknown function '@{callee_name}'")))?;
        let callee = FuncOp::wrap(m, callee_op)
            .ok_or_else(|| self.err(format!("'@{callee_name}' is not a function")))?;

        if callee.is_external(m) {
            let model = self.interp.externals.get(&callee_name).ok_or_else(|| {
                self.err(format!(
                    "no behavioural model registered for external '@{callee_name}'"
                ))
            })?;
            let mut args = Vec::new();
            for a in call.args(m) {
                args.push(self.eval(frame, a)?);
            }
            let results = (model.eval)(&args);
            let call_results = m.op(op).results().to_vec();
            if results.len() != call_results.len() {
                return Err(self.err(format!(
                    "external model for '@{callee_name}' returned {} values, expected {}",
                    results.len(),
                    call_results.len()
                )));
            }
            for (res_val, v) in call_results.into_iter().zip(results) {
                let v = match v {
                    Val::Int(i) => Val::Int(wrap_to(i, &m.value_type(res_val))),
                    other => other,
                };
                self.bind(frame, res_val, Slot::Val(v));
            }
            return Ok(());
        }

        let callee_frame = self.new_frame(None);
        let formals = callee.args(m);
        let actuals = call.args(m);
        if formals.len() != actuals.len() {
            return Err(self.err(format!(
                "call to '@{callee_name}' passes {} arguments, function takes {}",
                actuals.len(),
                formals.len()
            )));
        }
        for (formal, actual) in formals.iter().zip(&actuals) {
            let ty = m.value_type(*formal);
            if MemrefInfo::from_type(&ty).is_some() {
                let (tensor, port) = self.memref_slot(frame, *actual)?;
                self.bind(callee_frame, *formal, Slot::Mem { tensor, port });
            } else {
                // Bind lazily: scalars are sampled per the callee's schedule.
                self.bind(
                    callee_frame,
                    *formal,
                    Slot::Alias {
                        frame,
                        value: *actual,
                    },
                );
            }
        }
        self.bind(
            callee_frame,
            callee.time_var(m),
            Slot::Val(Val::Time(self.now)),
        );
        self.enter_block(callee.body(m), callee_frame)?;
        // Alias the call's results to the callee's return operands.
        if let Some(ret) = callee.return_op(m) {
            let ret_operands = m.op(ret).operands().to_vec();
            for (res, ret_val) in m.op(op).results().to_vec().into_iter().zip(ret_operands) {
                self.bind(
                    frame,
                    res,
                    Slot::Alias {
                        frame: callee_frame,
                        value: ret_val,
                    },
                );
            }
        }
        Ok(())
    }

    fn exec_if(&mut self, op: OpId, frame: FrameId) -> SimResult<()> {
        let m = self.m();
        let i = IfOp(op);
        let cond = self.eval(frame, i.condition(m))?.as_int() != 0;
        let block = if cond {
            Some(i.then_block(m))
        } else {
            i.else_block(m)
        };
        if let Some(b) = block {
            let child = self.new_frame(Some(frame));
            self.enter_block(b, child)?;
        }
        Ok(())
    }

    // ----------------------------------------------------------- evaluation

    fn eval(&mut self, frame: FrameId, value: ValueId) -> SimResult<Val> {
        // Bound already?
        let mut cur = Some(frame);
        while let Some(f) = cur {
            if let Some(slot) = self.frames[f].bindings.get(&value) {
                return match slot {
                    Slot::Val(v) => Ok(v.clone()),
                    Slot::Alias { frame, value } => {
                        let (frame, value) = (*frame, *value);
                        self.eval(frame, value)
                    }
                    Slot::Mem { .. } => {
                        Err(self.err("memref used where a data value was expected"))
                    }
                };
            }
            cur = self.frames[f].parent;
        }
        // Otherwise compute from the defining op.
        let m = self.m();
        let def = m.defining_op(value).ok_or_else(|| {
            self.err("block argument has no binding (value used outside its scope?)")
        })?;
        if let Some(c) = ConstantOp::wrap(m, def) {
            let v = match (semantics::const_value(m, value), c.value_attr(m)) {
                (Some(v), _) => Val::Int(v),
                (None, ir::Attribute::Float(v, _)) => Val::Float(v),
                (None, other) => return Err(self.err(format!("bad constant payload {other}"))),
            };
            self.bind(frame, value, Slot::Val(v.clone()));
            return Ok(v);
        }
        if let Some(d) = DelayOp::wrap(m, def) {
            let v = self.eval(frame, d.input(m))?;
            self.bind(frame, value, Slot::Val(v.clone()));
            return Ok(v);
        }
        let Some(kind) = ops::compute_kind(m, def) else {
            return Err(self.err(format!(
                "value of '{}' requested before its scheduled execution",
                m.op(def).name()
            )));
        };
        let operands = m.op(def).operands().to_vec();
        let mut vals = Vec::with_capacity(operands.len());
        for o in &operands {
            vals.push(self.eval(frame, *o)?);
        }
        let v = if m.value_type(value).is_float() || vals.iter().any(|v| matches!(v, Val::Float(_)))
        {
            eval_float(kind, &vals).map_err(|message| self.err(message))?
        } else {
            let ints: Vec<i128> = vals.iter().map(Val::as_int).collect();
            let v = semantics::eval(m, def, kind, &ints).ok_or_else(|| {
                self.err(format!("cannot evaluate {} on {ints:?}", m.op(def).name()))
            })?;
            Val::Int(v)
        };
        self.bind(frame, value, Slot::Val(v.clone()));
        Ok(v)
    }
}

/// A float compute op (integer operands convert); integer compute ops are
/// [`semantics::eval`]'s.
fn eval_float(kind: ComputeKind, vals: &[Val]) -> Result<Val, String> {
    let f = |v: &Val| match v {
        Val::Float(x) => *x,
        Val::Int(x) => *x as f64,
        Val::Time(_) => f64::NAN,
    };
    Ok(match kind {
        ComputeKind::Add => Val::Float(f(&vals[0]) + f(&vals[1])),
        ComputeKind::Sub => Val::Float(f(&vals[0]) - f(&vals[1])),
        ComputeKind::Mult => Val::Float(f(&vals[0]) * f(&vals[1])),
        ComputeKind::Select => {
            if vals[0].as_int() != 0 {
                vals[1].clone()
            } else {
                vals[2].clone()
            }
        }
        other => return Err(format!("unsupported float op {other:?}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HirBuilder;
    use crate::types::{MemKind, MemrefInfo, Port};
    use ir::Type;

    /// An `i8` argument passed as 200 is the pattern of -56, so `sext` gives
    /// -56 as the RTL does; bits 7..4 of -16 read as the `i4` -1, as the
    /// harness reports them.
    #[test]
    fn arguments_and_slices_follow_the_value_model() {
        let mut hb = HirBuilder::new();
        let f = hb.func("f", &[("x", Type::int(8))], &[0, 0]);
        let x = f.args(hb.module())[0];
        let wide = hb.sext(x, Type::int(16));
        let high = hb.slice(x, 7, 4);
        hb.return_(&[wide, high]);
        let m = hb.finish();
        let run = |v| {
            let report = Interpreter::new(&m).run("f", &[ArgValue::Int(v)]);
            report.expect("simulation").results
        };
        assert_eq!(run(200), vec![-56, -4]);
        assert_eq!(run(-16), vec![-16, -1]);
    }

    #[test]
    fn tensor_words_are_read_at_their_element_width() {
        let mut hb = HirBuilder::new();
        let a = MemrefInfo::packed(&[1], Type::int(8), Port::Read, MemKind::BlockRam);
        let f = hb.func("f", &[("A", a.to_type())], &[1]);
        let t = f.time_var(hb.module());
        let args = f.args(hb.module());
        let c0 = hb.const_val(0);
        let v = hb.mem_read(args[0], &[c0], t, 0);
        hb.return_(&[v]);
        let m = hb.finish();
        let report = Interpreter::new(&m)
            .run("f", &[ArgValue::tensor_from(&[200])])
            .expect("simulation");
        assert_eq!(report.results, vec![-56]);
    }

    /// Array add (paper Figure 1a, with a *correct* schedule): C[i] = A[i]+B[i].
    fn array_add_module(ii: i64) -> Module {
        let mut hb = HirBuilder::new();
        let a = MemrefInfo::packed(&[128], Type::int(32), Port::Read, MemKind::BlockRam);
        let b = a.clone();
        let c = a.with_port(Port::Write);
        let f = hb.func(
            "array_add",
            &[("A", a.to_type()), ("B", b.to_type()), ("C", c.to_type())],
            &[],
        );
        let t = f.time_var(hb.module());
        let args = f.args(hb.module());
        let (c0, c128, c1) = (hb.const_val(0), hb.const_val(128), hb.const_val(1));
        let lp = hb.for_loop(c0, c128, c1, t, 1, Type::int(8));
        hb.in_loop(lp, |hb, i, ti| {
            let va = hb.mem_read(args[0], &[i], ti, 0);
            let vb = hb.mem_read(args[1], &[i], ti, 0);
            let sum = hb.add(va, vb);
            // Correct schedule: delay the address so it matches the data.
            let i1 = hb.delay(i, 1, ti, 0);
            hb.mem_write(sum, args[2], &[i1], ti, 1);
            hb.yield_at(ti, ii);
        });
        hb.return_(&[]);
        hb.finish()
    }

    #[test]
    fn array_add_computes_and_pipelines() {
        let m = array_add_module(1);
        let interp = Interpreter::new(&m);
        let a: Vec<i128> = (0..128).collect();
        let b: Vec<i128> = (0..128).map(|x| 1000 - x).collect();
        let report = interp
            .run(
                "array_add",
                &[
                    ArgValue::tensor_from(&a),
                    ArgValue::tensor_from(&b),
                    ArgValue::uninit_tensor(128),
                ],
            )
            .expect("simulation");
        let c = &report.tensors[&2];
        for (i, &v) in c.iter().enumerate().take(128) {
            assert_eq!(v, Some(1000), "C[{i}]");
        }
        // II=1 pipelined: ~128 iterations + small constant.
        assert!(
            report.cycles <= 128 + 5,
            "latency {} too high",
            report.cycles
        );

        // II=2 takes roughly twice as long.
        let m2 = array_add_module(2);
        let interp2 = Interpreter::new(&m2);
        let report2 = interp2
            .run(
                "array_add",
                &[
                    ArgValue::tensor_from(&a),
                    ArgValue::tensor_from(&b),
                    ArgValue::uninit_tensor(128),
                ],
            )
            .expect("simulation");
        assert!(
            report2.cycles >= 2 * 128 - 2,
            "II=2 latency {}",
            report2.cycles
        );
    }

    #[test]
    fn uninitialized_read_is_detected() {
        let m = array_add_module(1);
        let interp = Interpreter::new(&m);
        let err = interp
            .run(
                "array_add",
                &[
                    ArgValue::uninit_tensor(128),
                    ArgValue::uninit_tensor(128),
                    ArgValue::uninit_tensor(128),
                ],
            )
            .unwrap_err();
        assert!(err.message.contains("uninitialized"), "{err}");
    }

    #[test]
    fn out_of_bounds_detected() {
        // Loop bound exceeds the memref size.
        let mut hb = HirBuilder::new();
        let a = MemrefInfo::packed(&[4], Type::int(32), Port::Read, MemKind::BlockRam);
        let f = hb.func("oob", &[("A", a.to_type())], &[]);
        let t = f.time_var(hb.module());
        let args = f.args(hb.module());
        let (c0, c8, c1) = (hb.const_val(0), hb.const_val(8), hb.const_val(1));
        let lp = hb.for_loop(c0, c8, c1, t, 1, Type::int(8));
        hb.in_loop(lp, |hb, i, ti| {
            hb.mem_read(args[0], &[i], ti, 0);
            hb.yield_at(ti, 1);
        });
        hb.return_(&[]);
        let m = hb.finish();
        let interp = Interpreter::new(&m);
        let err = interp
            .run("oob", &[ArgValue::tensor_from(&[1, 2, 3, 4])])
            .unwrap_err();
        assert!(err.message.contains("out of bounds"), "{err}");
    }

    #[test]
    fn external_call_model() {
        let mut hb = HirBuilder::new();
        hb.extern_func(
            "mult2",
            &[Type::int(32), Type::int(32)],
            &[Type::int(32)],
            &[2],
        );
        let f = hb.func(
            "mac",
            &[
                ("a", Type::int(32)),
                ("b", Type::int(32)),
                ("c", Type::int(32)),
            ],
            &[3],
        );
        let t = f.time_var(hb.module());
        let args = f.args(hb.module());
        let prod = hb.call("mult2", &[args[0], args[1]], t, 0);
        let c2 = hb.delay(args[2], 2, t, 0);
        let sum = hb.add(prod[0], c2);
        hb.return_(&[sum]);
        let m = hb.finish();
        let interp = Interpreter::new(&m).with_external(
            "mult2",
            ExternalModel::new(|args| vec![Val::Int(args[0].as_int() * args[1].as_int())]),
        );
        let report = interp
            .run(
                "mac",
                &[ArgValue::Int(6), ArgValue::Int(7), ArgValue::Int(100)],
            )
            .expect("simulation");
        assert_eq!(report.results, vec![142]);
    }

    #[test]
    fn banked_memref_parallel_access_allowed() {
        use crate::types::Dim;
        // Two writes in the same cycle to different banks must be legal.
        let mut hb = HirBuilder::new();
        let f = hb.func("banked", &[], &[0]);
        let t = f.time_var(hb.module());
        let ports = hb.alloc(
            &[Dim::Distributed(2), Dim::Packed(4)],
            Type::int(32),
            MemKind::LutRam,
            &[Port::Read, Port::Write],
        );
        let (c0, c1) = (hb.const_val(0), hb.const_val(1));
        let v = hb.typed_const(42, Type::int(32));
        hb.mem_write(v, ports[1], &[c0, c0], t, 0);
        hb.mem_write(v, ports[1], &[c1, c0], t, 0); // different bank, same cycle
        let rd = hb.mem_read(ports[0], &[c1, c0], t, 2);
        hb.return_(&[rd]);
        let m = hb.finish();
        let report = Interpreter::new(&m).run("banked", &[]).expect("simulation");
        assert_eq!(report.results, vec![42]);
    }

    #[test]
    fn port_conflict_detected() {
        let mut hb = HirBuilder::new();
        let f = hb.func("conflict", &[], &[]);
        let t = f.time_var(hb.module());
        let (r, w) = hb.alloc_rw(&[8], Type::int(32), MemKind::BlockRam);
        let _ = r;
        let (c0, c1) = (hb.const_val(0), hb.const_val(1));
        let v = hb.typed_const(1, Type::int(32));
        hb.mem_write(v, w, &[c0], t, 0);
        hb.mem_write(v, w, &[c1], t, 0); // same port, same cycle, different addr
        hb.return_(&[]);
        let m = hb.finish();
        let err = Interpreter::new(&m).run("conflict", &[]).unwrap_err();
        assert!(err.message.contains("port conflict"), "{err}");
    }

    #[test]
    fn nested_sequential_loops_iterate_fully() {
        // Sum of i*j over 4x4 via accumulator in a register memref.
        let mut hb = HirBuilder::new();
        let f = hb.func("nested", &[], &[0]);
        let t = f.time_var(hb.module());
        let (acc_r, acc_w) = hb.alloc_rw(&[1], Type::int(32), MemKind::Reg);
        let (c0, c4, c1) = (hb.const_val(0), hb.const_val(4), hb.const_val(1));
        let zero = hb.typed_const(0, Type::int(32));
        hb.mem_write(zero, acc_w, &[c0], t, 0);
        let outer = hb.for_loop(c0, c4, c1, t, 1, Type::int(8));
        hb.in_loop(outer, |hb, i, ti| {
            let inner = hb.for_loop(c0, c4, c1, ti, 1, Type::int(8));
            hb.in_loop(inner, |hb, j, tj| {
                let prod = hb.mult(i, j);
                let prod32 = hb.sext(prod, Type::int(32));
                let cur = hb.mem_read(acc_r, &[c0], tj, 0);
                let next = hb.add(cur, prod32);
                hb.mem_write(next, acc_w, &[c0], tj, 0);
                hb.yield_at(tj, 1); // reg read latency 0: II=1 accumulate
            });
            let tf = inner.result_time(hb.module());
            hb.yield_at(tf, 1);
        });
        let t_outer_done = outer.result_time(hb.module());
        let result = hb.mem_read(acc_r, &[c0], t_outer_done, 1);
        hb.return_(&[result]);
        let m = hb.finish();
        let report = Interpreter::new(&m).run("nested", &[]).expect("simulation");
        let expect: i128 = (0..4).flat_map(|i| (0..4).map(move |j| i * j)).sum();
        assert_eq!(report.results, vec![expect]);
    }

    #[test]
    fn unroll_for_runs_iterations_in_parallel() {
        use crate::types::Dim;
        let mut hb = HirBuilder::new();
        let f = hb.func("unrolled", &[], &[]);
        let t = f.time_var(hb.module());
        let ports = hb.alloc(
            &[Dim::Distributed(4)],
            Type::int(32),
            MemKind::Reg,
            &[Port::Read, Port::Write],
        );
        let lp = hb.unroll_for(0, 4, 1, t, 0);
        hb.in_unroll(lp, |hb, iv, ti| {
            let v = hb.typed_const(7, Type::int(32));
            let scaled = hb.mult(v, iv);
            hb.mem_write(scaled, ports[1], &[iv], ti, 0);
            hb.yield_at(ti, 0); // all iterations at the same instant
        });
        let done = lp.result_time(hb.module());
        let c2 = hb.const_val(2);
        let rd = hb.mem_read(ports[0], &[c2], done, 1);
        hb.return_(&[rd]);
        let m = hb.finish();
        let report = Interpreter::new(&m)
            .run("unrolled", &[])
            .expect("simulation");
        assert_eq!(report.results, vec![14]);
        // All four writes in cycle 0, read in cycle 1.
        assert!(
            report.cycles <= 2,
            "unrolled loop should finish immediately, took {}",
            report.cycles
        );
    }

    #[test]
    fn if_op_gates_writes() {
        let mut hb = HirBuilder::new();
        let f = hb.func("cond", &[("x", Type::int(32))], &[0]);
        let t = f.time_var(hb.module());
        let x = f.args(hb.module())[0];
        let (r, w) = hb.alloc_rw(&[1], Type::int(32), MemKind::Reg);
        let c0 = hb.const_val(0);
        let ten = hb.typed_const(10, Type::int(32));
        let cond = hb.cmp(crate::dialect::CmpPredicate::Lt, x, ten);
        let small = hb.typed_const(1, Type::int(32));
        let big = hb.typed_const(2, Type::int(32));
        let ifop = hb.if_op(cond, t, 0, true);
        hb.in_then(ifop, |hb| hb.mem_write(small, w, &[c0], t, 0));
        hb.in_else(ifop, |hb| hb.mem_write(big, w, &[c0], t, 0));
        let rd = hb.mem_read(r, &[c0], t, 1);
        hb.return_(&[rd]);
        let m = hb.finish();
        let r1 = Interpreter::new(&m)
            .run("cond", &[ArgValue::Int(5)])
            .unwrap();
        assert_eq!(r1.results, vec![1]);
        let r2 = Interpreter::new(&m)
            .run("cond", &[ArgValue::Int(50)])
            .unwrap();
        assert_eq!(r2.results, vec![2]);
    }

    #[test]
    fn hang_protection() {
        // A loop with a huge bound exceeds a tiny max_cycles budget.
        let m = array_add_module(1);
        let interp = Interpreter::new(&m).with_options(InterpOptions { max_cycles: 10 });
        let a: Vec<i128> = (0..128).collect();
        let err = interp
            .run(
                "array_add",
                &[
                    ArgValue::tensor_from(&a),
                    ArgValue::tensor_from(&a),
                    ArgValue::uninit_tensor(128),
                ],
            )
            .unwrap_err();
        assert!(err.message.contains("exceeded"), "{err}");
    }
}
