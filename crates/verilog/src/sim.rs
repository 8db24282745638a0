//! Cycle-accurate two-state simulator for the synthesizable subset.
//!
//! The simulator flattens the design, compiles expressions to an index-based
//! form, topologically orders the continuous assigns (rejecting
//! combinational loops), and then alternates *settle* (combinational
//! evaluation) and *step* (one `posedge clk`, non-blocking semantics).
//! Immediate assertions — the automatic UB guards the HIR code generator
//! inserts (paper §4.5) — abort the simulation with a message.

use crate::ast::*;
use crate::elaborate::{flatten, ElabError};
use obs::json::{Fixed, Json, Writer};
use obs::json_object;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::ops::Range;

/// A runtime simulation failure (a fired assertion or an engine limit).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VSimError {
    pub cycle: u64,
    pub message: String,
}

impl fmt::Display for VSimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}: {}", self.cycle, self.message)
    }
}
impl std::error::Error for VSimError {}

/// Construction failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    Elab(ElabError),
    UnknownNet(String),
    CombinationalLoop(Vec<String>),
    /// The design is valid for simulation but outside the fragment the
    /// transition-system lowering ([`crate::tsys`]) supports.
    Unsupported(String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Elab(e) => write!(f, "{e}"),
            BuildError::UnknownNet(n) => write!(f, "reference to undeclared net '{n}'"),
            BuildError::CombinationalLoop(nets) => {
                write!(f, "combinational loop through: {}", nets.join(" -> "))
            }
            BuildError::Unsupported(what) => {
                write!(f, "unsupported for transition-system lowering: {what}")
            }
        }
    }
}
impl std::error::Error for BuildError {}

impl From<ElabError> for BuildError {
    fn from(e: ElabError) -> Self {
        BuildError::Elab(e)
    }
}

// Compiled expression: net/memory references resolved to indices, result
// widths precomputed.
#[derive(Clone, Debug)]
enum CExpr {
    Const {
        value: u64,
        width: u32,
    },
    Net {
        index: usize,
        width: u32,
    },
    MemRead {
        mem: usize,
        addr: Box<CExpr>,
        width: u32,
    },
    Slice {
        base: Box<CExpr>,
        hi: u32,
        lo: u32,
    },
    Unary {
        op: UnOp,
        arg: Box<CExpr>,
        width: u32,
    },
    Binary {
        op: BinOp,
        lhs: Box<CExpr>,
        rhs: Box<CExpr>,
        width: u32,
    },
    Ternary {
        cond: Box<CExpr>,
        then: Box<CExpr>,
        els: Box<CExpr>,
        width: u32,
    },
    Concat {
        parts: Vec<CExpr>,
        width: u32,
    },
    SignExtend {
        arg: Box<CExpr>,
        from: u32,
        to: u32,
    },
}

impl CExpr {
    fn width(&self) -> u32 {
        match self {
            CExpr::Const { width, .. }
            | CExpr::Net { width, .. }
            | CExpr::MemRead { width, .. }
            | CExpr::Unary { width, .. }
            | CExpr::Binary { width, .. }
            | CExpr::Ternary { width, .. }
            | CExpr::Concat { width, .. } => *width,
            CExpr::Slice { hi, lo, .. } => hi - lo + 1,
            CExpr::SignExtend { to, .. } => *to,
        }
    }
}

#[derive(Clone, Debug)]
enum CStmt {
    AssignNet {
        net: usize,
        rhs: CExpr,
    },
    AssignMem {
        mem: usize,
        addr: CExpr,
        rhs: CExpr,
    },
    If {
        cond: CExpr,
        then: Vec<CStmt>,
        els: Vec<CStmt>,
    },
    Assert {
        guard: CExpr,
        cond: CExpr,
        message: String,
    },
}

/// Which execution engine drives `settle`/`step`.
///
/// `Bytecode` is the default: the design is lowered once into flat
/// register-machine tapes and each cycle is a linear sweep with no
/// allocation and no recursion. `TreeWalk` is the original recursive
/// evaluator, kept as a differential-testing oracle; building with the
/// `treewalk-sim` feature makes it the default instead.
///
/// `Event` turns the static union-find cone partition into the scheduler:
/// each settle/step cone executes as a slice of the same tapes, activated
/// by a dirty-set of nets changed this cycle; quiescent cones are skipped
/// entirely. `Batched` layers N independent stimulus lanes on top of the
/// same cone scheduling (see [`Simulator::set_batch_lanes`]); lane 0 is
/// bit-identical to a scalar run. All engines produce byte-identical
/// results, VCD, telemetry reports, and watchdog behavior.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    Bytecode,
    TreeWalk,
    Event,
    Batched,
}

impl Default for Engine {
    fn default() -> Self {
        if cfg!(feature = "treewalk-sim") {
            Engine::TreeWalk
        } else {
            Engine::Bytecode
        }
    }
}

// One bytecode instruction. Operands name registers in a flat `u64` file;
// every compiled expression node writes its own dedicated register before
// any reader, so registers never need clearing between cycles. Constants
// live in registers preloaded at build time.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Insn {
    /// regs[dst] = values[net]
    LoadNet { dst: u32, net: u32 },
    /// regs[dst] = memories[mem][regs[addr]] (0 when out of range) & m
    MemRead {
        dst: u32,
        mem: u32,
        addr: u32,
        m: u64,
    },
    /// regs[dst] = (regs[src] >> lo) & m
    Slice { dst: u32, src: u32, lo: u32, m: u64 },
    /// regs[dst] = !regs[src] & m
    Not { dst: u32, src: u32, m: u64 },
    /// regs[dst] = (regs[src] == 0) as u64
    LNot { dst: u32, src: u32 },
    /// regs[dst] = (regs[src] != 0) as u64
    RedOr { dst: u32, src: u32 },
    /// regs[dst] = eval_binary(op, regs[a], regs[b], aw, bw) & m
    Binary {
        op: BinOp,
        dst: u32,
        a: u32,
        b: u32,
        aw: u32,
        bw: u32,
        m: u64,
    },
    /// regs[dst] = (if regs[cond] != 0 { regs[then] } else { regs[els] }) & m
    /// Eager select: both arms are pure, so evaluating both is sound.
    Select {
        dst: u32,
        cond: u32,
        then: u32,
        els: u32,
        m: u64,
    },
    /// regs[dst] = regs[src] & m (first concat part)
    ConcatFirst { dst: u32, src: u32, m: u64 },
    /// regs[dst] = (regs[dst] << shift) | (regs[src] & m)
    ConcatPush {
        dst: u32,
        src: u32,
        shift: u32,
        m: u64,
    },
    /// regs[dst] &= m (final concat width clamp)
    MaskReg { dst: u32, m: u64 },
    /// regs[dst] = sign_extend(regs[src] & fm, from) & m
    SignExtend {
        dst: u32,
        src: u32,
        from: u32,
        fm: u64,
        m: u64,
    },
    /// values[net] = regs[src] & m (settle tape: continuous assign)
    StoreNet { net: u32, src: u32, m: u64 },
    /// pend_nets.push((net, regs[src])) (step tape: non-blocking assign)
    EmitNet { net: u32, src: u32 },
    /// pend_mems.push((mem, regs[addr], regs[src]))
    EmitMem { mem: u32, addr: u32, src: u32 },
    /// if regs[guard] != 0 && regs[cond] == 0 { fail with msgs[msg] }
    Assert { guard: u32, cond: u32, msg: u32 },
    /// pc = target
    Jump { target: u32 },
    /// if regs[src] == 0 { pc = target }
    JumpIfZero { src: u32, target: u32 },
}

impl Insn {
    /// Visit every register operand and destination, in field order.
    fn for_each_reg(&mut self, mut f: impl FnMut(&mut u32)) {
        use Insn::*;
        match self {
            LoadNet { dst, .. } | MaskReg { dst, .. } => f(dst),
            MemRead { dst, addr, .. } => {
                f(dst);
                f(addr);
            }
            Slice { dst, src, .. }
            | Not { dst, src, .. }
            | LNot { dst, src }
            | RedOr { dst, src }
            | ConcatFirst { dst, src, .. }
            | ConcatPush { dst, src, .. }
            | SignExtend { dst, src, .. } => {
                f(dst);
                f(src);
            }
            Binary { dst, a, b, .. } => {
                f(dst);
                f(a);
                f(b);
            }
            Select {
                dst,
                cond,
                then,
                els,
                ..
            } => {
                f(dst);
                f(cond);
                f(then);
                f(els);
            }
            StoreNet { src, .. } | EmitNet { src, .. } | JumpIfZero { src, .. } => f(src),
            EmitMem { addr, src, .. } => {
                f(addr);
                f(src);
            }
            Assert { guard, cond, .. } => {
                f(guard);
                f(cond);
            }
            Jump { .. } => {}
        }
    }
}

/// FxHash (the rustc hasher): one rotate-xor-multiply per word. The build
/// tables key on tape instructions and on the net and memory names of the
/// design being compiled, where SipHash's collision-flood resistance buys
/// nothing and its per-key cost dominated the simulator build.
#[derive(Default)]
struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl std::hash::Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
    fn finish(&self) -> u64 {
        self.hash
    }
}

type FxHashMap<K, V> = HashMap<K, V, std::hash::BuildHasherDefault<FxHasher>>;

/// Lowers compiled expression trees into [`Insn`] tapes. One builder is
/// shared by the settle and step tapes so they share the register file and
/// constant pool.
#[derive(Default)]
struct TapeBuilder {
    insns: Vec<Insn>,
    next_reg: u32,
    /// Masked constant value -> preloaded register.
    consts: FxHashMap<u64, u32>,
    const_init: Vec<(u32, u64)>,
    msgs: Vec<String>,
}

impl TapeBuilder {
    fn reg(&mut self) -> u32 {
        let r = self.next_reg;
        self.next_reg += 1;
        r
    }

    /// Register preloaded with `value` (already masked).
    fn konst(&mut self, value: u64) -> u32 {
        if let Some(&r) = self.consts.get(&value) {
            return r;
        }
        let r = self.reg();
        self.consts.insert(value, r);
        self.const_init.push((r, value));
        r
    }

    /// Lower `e`, returning the register holding its (masked) value.
    fn expr(&mut self, e: &CExpr) -> u32 {
        match e {
            CExpr::Const { value, width } => self.konst(value & mask(*width)),
            CExpr::Net { index, .. } => {
                let dst = self.reg();
                self.insns.push(Insn::LoadNet {
                    dst,
                    net: *index as u32,
                });
                dst
            }
            CExpr::MemRead { mem, addr, width } => {
                let addr = self.expr(addr);
                let dst = self.reg();
                self.insns.push(Insn::MemRead {
                    dst,
                    mem: *mem as u32,
                    addr,
                    m: mask(*width),
                });
                dst
            }
            CExpr::Slice { base, hi, lo } => {
                let src = self.expr(base);
                let dst = self.reg();
                self.insns.push(Insn::Slice {
                    dst,
                    src,
                    lo: *lo,
                    m: mask(hi - lo + 1),
                });
                dst
            }
            CExpr::Unary { op, arg, width } => {
                let src = self.expr(arg);
                let dst = self.reg();
                self.insns.push(match op {
                    UnOp::Not => Insn::Not {
                        dst,
                        src,
                        m: mask(*width),
                    },
                    UnOp::LNot => Insn::LNot { dst, src },
                    UnOp::RedOr => Insn::RedOr { dst, src },
                });
                dst
            }
            CExpr::Binary {
                op,
                lhs,
                rhs,
                width,
            } => {
                let (aw, bw) = (lhs.width(), rhs.width());
                let a = self.expr(lhs);
                let b = self.expr(rhs);
                let dst = self.reg();
                self.insns.push(Insn::Binary {
                    op: *op,
                    dst,
                    a,
                    b,
                    aw,
                    bw,
                    m: mask(*width),
                });
                dst
            }
            CExpr::Ternary {
                cond,
                then,
                els,
                width,
            } => {
                let cond = self.expr(cond);
                let then = self.expr(then);
                let els = self.expr(els);
                let dst = self.reg();
                self.insns.push(Insn::Select {
                    dst,
                    cond,
                    then,
                    els,
                    m: mask(*width),
                });
                dst
            }
            CExpr::Concat { parts, width } => {
                let dst = self.reg();
                if parts.is_empty() {
                    return self.konst(0);
                }
                for (i, p) in parts.iter().enumerate() {
                    let w = p.width().min(63);
                    let src = self.expr(p);
                    if i == 0 {
                        self.insns.push(Insn::ConcatFirst {
                            dst,
                            src,
                            m: mask(w),
                        });
                    } else {
                        self.insns.push(Insn::ConcatPush {
                            dst,
                            src,
                            shift: w,
                            m: mask(w),
                        });
                    }
                }
                self.insns.push(Insn::MaskReg {
                    dst,
                    m: mask(*width),
                });
                dst
            }
            CExpr::SignExtend { arg, from, to } => {
                let src = self.expr(arg);
                let dst = self.reg();
                self.insns.push(Insn::SignExtend {
                    dst,
                    src,
                    from: *from,
                    fm: mask(*from),
                    m: mask(*to),
                });
                dst
            }
        }
    }

    fn stmt(&mut self, s: &CStmt) {
        match s {
            CStmt::AssignNet { net, rhs } => {
                let src = self.expr(rhs);
                self.insns.push(Insn::EmitNet {
                    net: *net as u32,
                    src,
                });
            }
            CStmt::AssignMem { mem, addr, rhs } => {
                let addr = self.expr(addr);
                let src = self.expr(rhs);
                self.insns.push(Insn::EmitMem {
                    mem: *mem as u32,
                    addr,
                    src,
                });
            }
            CStmt::If { cond, then, els } => {
                let cond = self.expr(cond);
                let to_else = self.insns.len();
                self.insns.push(Insn::JumpIfZero {
                    src: cond,
                    target: 0, // patched below
                });
                for t in then {
                    self.stmt(t);
                }
                if els.is_empty() {
                    let end = self.insns.len() as u32;
                    self.patch_jump(to_else, end);
                } else {
                    let to_end = self.insns.len();
                    self.insns.push(Insn::Jump { target: 0 });
                    let else_start = self.insns.len() as u32;
                    self.patch_jump(to_else, else_start);
                    for t in els {
                        self.stmt(t);
                    }
                    let end = self.insns.len() as u32;
                    self.patch_jump(to_end, end);
                }
            }
            CStmt::Assert {
                guard,
                cond,
                message,
            } => {
                let guard = self.expr(guard);
                let cond = self.expr(cond);
                let msg = self.msgs.len() as u32;
                self.msgs.push(message.clone());
                self.insns.push(Insn::Assert { guard, cond, msg });
            }
        }
    }

    fn patch_jump(&mut self, at: usize, to: u32) {
        match &mut self.insns[at] {
            Insn::Jump { target } | Insn::JumpIfZero { target, .. } => *target = to,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    /// Take the instructions lowered so far as one finished tape.
    fn take_tape(&mut self) -> Vec<Insn> {
        std::mem::take(&mut self.insns)
    }
}

/// Compile-time common-subexpression elimination over one tape.
///
/// Generated RTL recomputes the same guard and index expressions once per
/// process (one per processing element in an unrolled design); on the flat
/// tape those become literally identical pure instructions. Every register
/// has a single static writer except concat accumulators, so a pure insn is
/// fully described by its opcode + canonicalized operand registers, and a
/// duplicate's destination can simply be renamed to the first occurrence.
///
/// Soundness:
/// - Only *unconditionally executed* insns (outside every jump-delimited
///   region) publish into the table, so a reuse always reads a register
///   that was recomputed earlier in the same run of the tape.
/// - Effects (`StoreNet`/`EmitNet`/`EmitMem`/`Assert`/jumps) are never
///   removed; their operands are just renamed.
/// - `LoadNet` entries are invalidated when the settle tape stores to that
///   net (blocking-assign order matters there); the step tape reads a
///   stable pre-edge snapshot, so loads and memory reads dedupe globally.
/// - Concat accumulators mutate their destination across several insns, so
///   `ConcatFirst`/`ConcatPush`/`MaskReg` never publish (their consumers
///   may: the accumulator is stable once the chain is done).
/// - Store-to-load forwarding: after an unconditional `StoreNet` whose
///   source register provably fits the net's mask (the store is a plain
///   copy), later loads of that net rename to the source register instead
///   of re-reading the net. Mask confinement holds even for conditionally
///   executed defs: a skipped insn leaves the register at a value a prior
///   run of the same insn produced (or the 0 it was initialised with),
///   which is confined to the same mask.
///
/// `consts` carries the preloaded constant registers so their (exact)
/// values participate in the mask analysis; `n_regs` bounds every register
/// the tape names.
///
/// Returns the optimized tape plus the old-pc -> new-pc map (length
/// `tape.len() + 1`; dropped insns map to the position of their successor),
/// so callers can remap chain boundaries recorded before CSE.
fn cse_tape(tape: Vec<Insn>, consts: &[(u32, u64)], n_regs: u32) -> (Vec<Insn>, Vec<u32>) {
    use Insn::*;
    // Register -> the register its value is renamed to (itself if kept).
    let mut rep: Vec<u32> = (0..n_regs).collect();
    let resolve = |rep: &[u32], r: u32| -> u32 { rep[r as usize] };
    let mut table: FxHashMap<Insn, u32> = FxHashMap::default();
    // Net index -> register known to hold exactly the net's current value.
    let mut net_fwd: FxHashMap<u32, u32> = FxHashMap::default();
    // Register -> mask its value is always confined to (reg & !mask == 0).
    let mut known: Vec<Option<u64>> = vec![None; n_regs as usize];
    for &(r, v) in consts {
        known[r as usize] = Some(v);
    }
    let mut out: Vec<Insn> = Vec::with_capacity(tape.len());
    // old pc -> new pc, for patching forward jump targets afterward.
    let mut pc_map: Vec<u32> = Vec::with_capacity(tape.len() + 1);
    // Ends (old pcs) of the conditional regions currently open.
    let mut region_ends: Vec<u32> = Vec::new();

    for (pc, insn) in tape.into_iter().enumerate() {
        let pc = pc as u32;
        region_ends.retain(|&e| e > pc);
        pc_map.push(out.len() as u32);
        // Canonicalize operands through the representative map; dst fields
        // stay untouched (they are defs, not uses).
        let mut insn = insn;
        match &mut insn {
            LoadNet { .. } => {}
            MemRead { addr, .. } => *addr = resolve(&rep, *addr),
            Slice { src, .. }
            | Not { src, .. }
            | LNot { src, .. }
            | RedOr { src, .. }
            | SignExtend { src, .. }
            | ConcatFirst { src, .. }
            | ConcatPush { src, .. } => *src = resolve(&rep, *src),
            Binary { a, b, .. } => {
                *a = resolve(&rep, *a);
                *b = resolve(&rep, *b);
            }
            Select {
                cond, then, els, ..
            } => {
                *cond = resolve(&rep, *cond);
                *then = resolve(&rep, *then);
                *els = resolve(&rep, *els);
            }
            MaskReg { .. } => {}
            StoreNet { src, .. } | EmitNet { src, .. } => *src = resolve(&rep, *src),
            EmitMem { addr, src, .. } => {
                *addr = resolve(&rep, *addr);
                *src = resolve(&rep, *src);
            }
            Assert { guard, cond, .. } => {
                *guard = resolve(&rep, *guard);
                *cond = resolve(&rep, *cond);
            }
            Jump { .. } => {}
            JumpIfZero { src, .. } => *src = resolve(&rep, *src),
        }
        // Store-to-load forwarding: the net provably holds `src` verbatim.
        if let LoadNet { dst, net } = insn {
            if let Some(&src) = net_fwd.get(&net) {
                rep[dst as usize] = src;
                continue;
            }
        }
        // Pure single-def insns: key = insn with dst zeroed, plus the mask
        // the result is confined to.
        let keyed: Option<(Insn, u32, u64)> = match insn.clone() {
            LoadNet { dst, net } => Some((LoadNet { dst: 0, net }, dst, u64::MAX)),
            MemRead { dst, mem, addr, m } => Some((
                MemRead {
                    dst: 0,
                    mem,
                    addr,
                    m,
                },
                dst,
                m,
            )),
            Slice { dst, src, lo, m } => Some((Slice { dst: 0, src, lo, m }, dst, m)),
            Not { dst, src, m } => Some((Not { dst: 0, src, m }, dst, m)),
            LNot { dst, src } => Some((LNot { dst: 0, src }, dst, 1)),
            RedOr { dst, src } => Some((RedOr { dst: 0, src }, dst, 1)),
            Binary {
                op,
                dst,
                a,
                b,
                aw,
                bw,
                m,
            } => Some((
                Binary {
                    op,
                    dst: 0,
                    a,
                    b,
                    aw,
                    bw,
                    m,
                },
                dst,
                m,
            )),
            Select {
                dst,
                cond,
                then,
                els,
                m,
            } => Some((
                Select {
                    dst: 0,
                    cond,
                    then,
                    els,
                    m,
                },
                dst,
                m,
            )),
            SignExtend {
                dst,
                src,
                from,
                fm,
                m,
            } => Some((
                SignExtend {
                    dst: 0,
                    src,
                    from,
                    fm,
                    m,
                },
                dst,
                m,
            )),
            _ => None,
        };
        match keyed {
            Some((key, dst, result_mask)) => {
                if let Some(&prev) = table.get(&key) {
                    rep[dst as usize] = prev;
                    continue; // drop the duplicate
                }
                if region_ends.is_empty() {
                    table.insert(key, dst);
                }
                if result_mask != u64::MAX {
                    known[dst as usize] = Some(result_mask);
                }
                out.push(insn);
            }
            None => {
                match insn {
                    StoreNet { net, src, m } => {
                        // Blocking assign: later loads of this net see the
                        // new value, so the cached load (if any) is stale.
                        table.remove(&LoadNet { dst: 0, net });
                        if region_ends.is_empty()
                            && known[src as usize].is_some_and(|km| km & !m == 0)
                        {
                            net_fwd.insert(net, src);
                        } else {
                            net_fwd.remove(&net);
                        }
                    }
                    ConcatFirst { dst, m, .. } | MaskReg { dst, m } => {
                        known[dst as usize] = Some(m);
                    }
                    ConcatPush { dst, .. } => {
                        // Accumulator grows past its own push mask.
                        known[dst as usize] = None;
                    }
                    Jump { target } | JumpIfZero { target, .. } => {
                        region_ends.push(target);
                    }
                    _ => {}
                }
                out.push(insn);
            }
        }
    }
    pc_map.push(out.len() as u32);

    for insn in &mut out {
        if let Jump { target } | JumpIfZero { target, .. } = insn {
            *target = pc_map[*target as usize];
        }
    }
    (out, pc_map)
}

/// Read-only view of the compiled tapes and name tables, consumed by the
/// transition-system lowering in [`crate::tsys`]. `values`, `memories` and
/// `regs` carry the *reset-state* contents (initial net values, zeroed
/// memories, preloaded constant registers) — the view must be taken from a
/// freshly built simulator, before any `step`.
pub(crate) struct TapeView<'a> {
    pub net_names: &'a [String],
    pub net_width: &'a [u32],
    pub values: &'a [u64],
    pub mem_names: &'a [String],
    pub mem_width: &'a [u32],
    pub memories: &'a [Vec<u64>],
    pub settle_tape: &'a [Insn],
    pub step_tape: &'a [Insn],
    pub regs: &'a [u64],
    pub msgs: &'a [String],
}

impl Simulator {
    pub(crate) fn tape_view(&self) -> TapeView<'_> {
        TapeView {
            net_names: &self.net_names,
            net_width: &self.net_width,
            values: &self.values,
            mem_names: &self.mem_names,
            mem_width: &self.mem_width,
            memories: &self.memories,
            settle_tape: &self.settle_tape,
            step_tape: &self.step_tape,
            regs: &self.regs,
            msgs: &self.msgs,
        }
    }
}

impl Simulator {
    /// (assigns, settle-tape insns, always stmts, step-tape insns, regs).
    pub fn tape_stats(&self) -> (usize, usize, usize, usize, usize) {
        (
            self.assigns.len(),
            self.settle_tape.len(),
            self.always.len(),
            self.step_tape.len(),
            self.regs.len(),
        )
    }

    /// Event-scheduler activity since the engine was (last) enabled:
    /// `(settle cone runs, step cone runs, settle cones, step cones,
    /// settle insns dispatched, step insns dispatched)`.
    /// `None` unless the event or batched engine has been selected.
    #[allow(clippy::type_complexity)]
    pub fn event_activity(&self) -> Option<(u64, u64, usize, usize, u64, u64)> {
        self.ev.as_deref().map(|ev| {
            (
                ev.stat_settle_runs,
                ev.stat_step_runs,
                ev.settle_chains.len(),
                ev.step_members_off.len() - 1,
                ev.stat_settle_insns,
                ev.stat_step_insns,
            )
        })
    }
}

/// VCD (value-change-dump) waveform recording state.
struct Vcd {
    out: Box<dyn std::io::Write>,
    /// (net index, identifier code) pairs being traced.
    traced: Vec<(usize, String)>,
    last: Vec<Option<u64>>,
}

/// The simulator. See module docs.
pub struct Simulator {
    net_names: Vec<String>,
    net_index: FxHashMap<String, usize>,
    net_width: Vec<u32>,
    values: Vec<u64>,
    mem_names: Vec<String>,
    mem_index: FxHashMap<String, usize>,
    mem_width: Vec<u32>,
    memories: Vec<Vec<u64>>,
    /// Continuous assigns in topological order: (net, expr).
    assigns: Vec<(usize, CExpr)>,
    always: Vec<CStmt>,
    /// Bytecode lowering of `assigns` (StoreNet per assign, in topo order).
    settle_tape: Vec<Insn>,
    /// Bytecode lowering of `always` (EmitNet/EmitMem/Assert + jumps).
    step_tape: Vec<Insn>,
    /// Register file shared by both tapes; constants preloaded at build.
    /// Dense: every register is named by some tape instruction.
    regs: Vec<u64>,
    /// Assertion messages referenced by `Insn::Assert`.
    msgs: Vec<String>,
    /// Reusable non-blocking update buffers (allocation-free stepping).
    pending_nets: Vec<(u32, u64)>,
    pending_mems: Vec<(u32, u64, u64)>,
    engine: Engine,
    /// Memory read ports appearing in the assign network: each is sampled
    /// once per settled cycle (reported as `sim.mem_read_events`).
    mem_read_ports: u64,
    cycle: u64,
    /// Watchdog: total cycles the simulation may run before `step` refuses
    /// with a clean error instead of looping forever on a hung design.
    cycle_budget: Option<u64>,
    dirty: bool,
    /// Lane 0 was driven since the last settle (implies `dirty`). A scalar
    /// run of lane 0 settles only then, so only then does the batched
    /// engine count a shadow settle in telemetry.
    lane0_dirty: bool,
    vcd: Option<Vcd>,
    /// Opt-in telemetry plane (toggle counters, cone quiescence,
    /// instruction counts). `None` (the default) runs the interpreters with
    /// the zero-sized observers: the only cost is this Option check in
    /// `settle`/`step`.
    telemetry: Option<Box<Telemetry>>,
    /// Opt-in scheduler-statistics plane (self-profiling of the *engine*:
    /// dirty-set occupancy, commit-compare outcomes). Same zero-cost-when-
    /// off discipline as `telemetry`; the event-engine share (wake walks,
    /// run lengths) lives in `EventState::sched`.
    sched: Option<Box<SchedStats>>,
    /// Per-assign chain start pcs in the (CSE'd) settle tape, in tape order.
    settle_chain_starts: Vec<u32>,
    /// Per-statement chain start pcs in the (CSE'd) step tape.
    step_chain_starts: Vec<u32>,
    /// Event-driven scheduler state; `Some` iff `engine` is `Event` or
    /// `Batched`. Rebuilt (all cones pending) on every switch into those
    /// engines, so stale register files from other engines never leak in.
    ev: Option<Box<EventState>>,
    /// Per-lane state for `Engine::Batched`; `Some` iff that engine is
    /// active. Lane 0 mirrors `values`/`memories` exactly.
    batch: Option<Box<BatchState>>,
    /// Requested lane count for `Engine::Batched` (1..=64).
    batch_lanes: usize,
}

/// Lists the compiled program: net and memory tables, the compiled assigns
/// and statements, both tapes with their chain starts, the register file
/// and the assertion messages. Two simulators built from equivalent
/// modules print identically until they run.
impl fmt::Debug for Simulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mem_depths: Vec<usize> = self.memories.iter().map(Vec::len).collect();
        f.debug_struct("Simulator")
            .field("net_names", &self.net_names)
            .field("net_width", &self.net_width)
            .field("values", &self.values)
            .field("mem_names", &self.mem_names)
            .field("mem_width", &self.mem_width)
            .field("mem_depths", &mem_depths)
            .field("assigns", &self.assigns)
            .field("always", &self.always)
            .field("settle_tape", &self.settle_tape)
            .field("settle_chain_starts", &self.settle_chain_starts)
            .field("step_tape", &self.step_tape)
            .field("step_chain_starts", &self.step_chain_starts)
            .field("regs", &self.regs)
            .field("msgs", &self.msgs)
            .finish_non_exhaustive()
    }
}

impl Simulator {
    /// Flatten `top` within `design` and compile it for simulation. A top
    /// module without instances is already flat and is compiled in place.
    ///
    /// # Errors
    /// Fails on elaboration errors, undeclared nets, or combinational loops.
    pub fn new(design: &Design, top: &str) -> Result<Self, BuildError> {
        match design.find(top) {
            Some(m) if m.instances.is_empty() => Self::from_flat(m),
            _ => Self::from_flat(&flatten(design, top)?),
        }
    }

    /// Build from an already-flat module (no instances).
    pub fn from_flat(flat: &VModule) -> Result<Self, BuildError> {
        let mut sim = Simulator {
            net_names: Vec::new(),
            net_index: FxHashMap::default(),
            net_width: Vec::new(),
            values: Vec::new(),
            mem_names: Vec::new(),
            mem_index: FxHashMap::default(),
            mem_width: Vec::new(),
            memories: Vec::new(),
            assigns: Vec::new(),
            always: Vec::new(),
            settle_tape: Vec::new(),
            step_tape: Vec::new(),
            regs: Vec::new(),
            msgs: Vec::new(),
            pending_nets: Vec::new(),
            pending_mems: Vec::new(),
            engine: Engine::default(),
            mem_read_ports: 0,
            cycle: 0,
            cycle_budget: None,
            dirty: true,
            lane0_dirty: true,
            vcd: None,
            telemetry: None,
            sched: None,
            settle_chain_starts: Vec::new(),
            step_chain_starts: Vec::new(),
            ev: None,
            batch: None,
            batch_lanes: 8,
        };
        for p in &flat.ports {
            sim.add_net(&p.name, p.width, 0);
        }
        for n in &flat.nets {
            sim.add_net(&n.name, n.width, n.init.unwrap_or(0));
        }
        for m in &flat.memories {
            sim.mem_index.insert(m.name.clone(), sim.memories.len());
            sim.mem_names.push(m.name.clone());
            sim.mem_width.push(m.width);
            sim.memories.push(vec![0; m.depth as usize]);
        }

        // Compile assigns and order them topologically.
        let mut compiled: Vec<(usize, CExpr, Vec<usize>)> = Vec::new();
        for a in &flat.assigns {
            let net = sim.net(&a.lhs)?;
            let rhs = sim.compile(&a.rhs)?;
            let mut deps = Vec::new();
            collect_deps(&rhs, &mut deps);
            compiled.push((net, rhs, deps));
        }
        sim.assigns = topo_sort(&sim.net_names, compiled)?;
        sim.mem_read_ports = sim.assigns.iter().map(|(_, e)| count_mem_reads(e)).sum();

        for blk in &flat.always {
            for s in &blk.stmts {
                let c = sim.compile_stmt(s)?;
                sim.always.push(c);
            }
        }

        // Lower both phases to bytecode. The tapes share one register file
        // and constant pool.
        let mut tb = TapeBuilder::default();
        let mut settle_starts: Vec<u32> = Vec::with_capacity(sim.assigns.len());
        for (net, expr) in &sim.assigns {
            settle_starts.push(tb.insns.len() as u32);
            let src = tb.expr(expr);
            tb.insns.push(Insn::StoreNet {
                net: *net as u32,
                src,
                m: mask(sim.net_width[*net]),
            });
        }
        let settle = tb.take_tape();
        let (settle_tape, settle_map) = cse_tape(settle, &tb.const_init, tb.next_reg);
        sim.settle_tape = settle_tape;
        sim.settle_chain_starts = settle_starts
            .iter()
            .map(|&s| settle_map[s as usize])
            .collect();
        let mut step_starts: Vec<u32> = Vec::with_capacity(sim.always.len());
        for s in &sim.always {
            step_starts.push(tb.insns.len() as u32);
            tb.stmt(s);
        }
        let step = tb.take_tape();
        let (step_tape, step_map) = cse_tape(step, &tb.const_init, tb.next_reg);
        sim.step_tape = step_tape;
        sim.step_chain_starts = step_starts.iter().map(|&s| step_map[s as usize]).collect();
        // CSE leaves most of the lowered registers unnamed. Renumber the
        // survivors densely, in order of first use, so the register file
        // (copied once per lane by the batched engine) holds only live ones.
        let mut renamed = vec![u32::MAX; tb.next_reg as usize];
        let mut live = 0u32;
        for insn in sim.settle_tape.iter_mut().chain(sim.step_tape.iter_mut()) {
            insn.for_each_reg(|r| {
                let slot = &mut renamed[*r as usize];
                if *slot == u32::MAX {
                    *slot = live;
                    live += 1;
                }
                *r = *slot;
            });
        }
        sim.regs = vec![0; live as usize];
        for &(r, v) in &tb.const_init {
            let nr = renamed[r as usize];
            if nr != u32::MAX {
                sim.regs[nr as usize] = v;
            }
        }
        sim.msgs = tb.msgs;
        Ok(sim)
    }

    /// Select the execution engine (defaults to [`Engine::Bytecode`], or
    /// [`Engine::TreeWalk`] when built with the `treewalk-sim` feature).
    /// All engines produce bit-identical results, VCD, and telemetry; the
    /// tree-walk evaluator exists as a differential-testing oracle.
    ///
    /// Switching to [`Engine::Event`] or [`Engine::Batched`] (re)builds the
    /// scheduler tables with every cone pending, so the first settle runs
    /// everything and the register file is consistent regardless of the
    /// previous engine.
    pub fn set_engine(&mut self, engine: Engine) {
        self.engine = engine;
        match engine {
            Engine::Event => {
                self.batch = None;
                let mut ev = EventState::build(self);
                ev.track = self.telemetry.is_some();
                self.ev = Some(ev);
                self.dirty = true;
                self.lane0_dirty = true;
            }
            Engine::Batched => {
                let mut ev = EventState::build(self);
                ev.track = false;
                self.ev = Some(ev);
                self.batch = Some(BatchState::build(self, self.batch_lanes));
                self.dirty = true;
                self.lane0_dirty = true;
            }
            Engine::Bytecode | Engine::TreeWalk => {
                self.ev = None;
                self.batch = None;
            }
        }
    }

    /// The currently selected execution engine.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Number of stimulus lanes evaluated per step (1 unless
    /// [`Engine::Batched`] is active).
    pub fn lanes(&self) -> usize {
        match self.engine {
            Engine::Batched => self.batch_lanes,
            _ => 1,
        }
    }

    /// Set the batched-stimulus lane count (1..=64). Rebuilds the lane
    /// state when [`Engine::Batched`] is active: every lane restarts from
    /// the current scalar state.
    ///
    /// # Panics
    /// Panics when `lanes` is 0 or exceeds 64 (lane dirty masks are packed
    /// into one 64-bit word).
    pub fn set_batch_lanes(&mut self, lanes: usize) {
        assert!(
            (1..=64).contains(&lanes),
            "batch lanes must be in 1..=64, got {lanes}"
        );
        self.batch_lanes = lanes;
        if self.engine == Engine::Batched {
            self.batch = Some(BatchState::build(self, lanes));
            if let Some(ev) = self.ev.as_deref_mut() {
                ev.mark_all_pending();
            }
            self.dirty = true;
            self.lane0_dirty = true;
        }
    }

    fn add_net(&mut self, name: &str, width: u32, init: u64) {
        let idx = self.values.len();
        self.net_index.insert(name.to_string(), idx);
        self.net_names.push(name.to_string());
        self.net_width.push(width.max(1));
        self.values.push(init & mask(width.max(1)));
    }

    fn net(&self, name: &str) -> Result<usize, BuildError> {
        self.net_index
            .get(name)
            .copied()
            .ok_or_else(|| BuildError::UnknownNet(name.to_string()))
    }

    fn compile(&self, e: &Expr) -> Result<CExpr, BuildError> {
        Ok(match e {
            Expr::Const { value, width } => CExpr::Const {
                value: *value,
                width: *width,
            },
            Expr::Ref(n) => {
                let index = self.net(n)?;
                CExpr::Net {
                    index,
                    width: self.net_width[index],
                }
            }
            Expr::MemRead { mem, addr } => {
                let m = *self
                    .mem_index
                    .get(mem)
                    .ok_or_else(|| BuildError::UnknownNet(mem.clone()))?;
                CExpr::MemRead {
                    mem: m,
                    addr: Box::new(self.compile(addr)?),
                    width: self.mem_width[m],
                }
            }
            Expr::Slice { base, hi, lo } => CExpr::Slice {
                base: Box::new(self.compile(base)?),
                hi: *hi,
                lo: *lo,
            },
            Expr::Unary { op, arg } => {
                let arg = self.compile(arg)?;
                let width = match op {
                    UnOp::Not => arg.width(),
                    UnOp::LNot | UnOp::RedOr => 1,
                };
                CExpr::Unary {
                    op: *op,
                    arg: Box::new(arg),
                    width,
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                let lhs = self.compile(lhs)?;
                let rhs = self.compile(rhs)?;
                let width = if op.is_comparison() {
                    1
                } else if *op == BinOp::Mul {
                    (lhs.width() + rhs.width()).min(64)
                } else {
                    lhs.width().max(rhs.width())
                };
                CExpr::Binary {
                    op: *op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                    width,
                }
            }
            Expr::Ternary { cond, then, els } => {
                let then = self.compile(then)?;
                let els = self.compile(els)?;
                let width = then.width().max(els.width());
                CExpr::Ternary {
                    cond: Box::new(self.compile(cond)?),
                    then: Box::new(then),
                    els: Box::new(els),
                    width,
                }
            }
            Expr::Concat(parts) => {
                let parts: Vec<CExpr> = parts
                    .iter()
                    .map(|p| self.compile(p))
                    .collect::<Result<_, _>>()?;
                let width = parts.iter().map(CExpr::width).sum::<u32>().min(64);
                CExpr::Concat { parts, width }
            }
            Expr::SignExtend { arg, from, to } => CExpr::SignExtend {
                arg: Box::new(self.compile(arg)?),
                from: *from,
                to: *to,
            },
        })
    }

    fn compile_stmt(&self, s: &Stmt) -> Result<CStmt, BuildError> {
        Ok(match s {
            Stmt::NonBlocking { lhs, rhs } => match lhs {
                LValue::Net(n) => CStmt::AssignNet {
                    net: self.net(n)?,
                    rhs: self.compile(rhs)?,
                },
                LValue::MemElem { mem, addr } => CStmt::AssignMem {
                    mem: *self
                        .mem_index
                        .get(mem)
                        .ok_or_else(|| BuildError::UnknownNet(mem.clone()))?,
                    addr: self.compile(addr)?,
                    rhs: self.compile(rhs)?,
                },
            },
            Stmt::If { cond, then, els } => CStmt::If {
                cond: self.compile(cond)?,
                then: then
                    .iter()
                    .map(|t| self.compile_stmt(t))
                    .collect::<Result<_, _>>()?,
                els: els
                    .iter()
                    .map(|t| self.compile_stmt(t))
                    .collect::<Result<_, _>>()?,
            },
            Stmt::Assert {
                guard,
                cond,
                message,
            } => CStmt::Assert {
                guard: self.compile(guard)?,
                cond: self.compile(cond)?,
                message: message.clone(),
            },
        })
    }

    // ------------------------------------------------------------------ API

    /// Drive an input port (every lane under [`Engine::Batched`]). Takes
    /// effect at the next settle.
    ///
    /// # Panics
    /// Panics on an unknown net name.
    pub fn set(&mut self, name: &str, value: u64) {
        let idx = self.net_index[name];
        self.set_id(idx, value);
    }

    /// Read a net's current value (settling combinational logic first).
    ///
    /// # Panics
    /// Panics on an unknown net name.
    pub fn get(&mut self, name: &str) -> u64 {
        self.settle_if_dirty();
        self.values[self.net_index[name]]
    }

    /// Read a net as a sign-extended integer.
    pub fn get_signed(&mut self, name: &str) -> i64 {
        let idx = self.net_index[name];
        let w = self.net_width[idx];
        let v = self.get(name);
        sign_extend(v, w) as i64
    }

    /// Preload a memory word (every lane under [`Engine::Batched`]).
    ///
    /// # Panics
    /// Panics on unknown memory or out-of-range address.
    pub fn write_mem(&mut self, name: &str, addr: u64, value: u64) {
        let m = self.mem_index[name];
        let v = value & mask(self.mem_width[m]);
        if let Some(b) = self.batch.as_deref_mut() {
            let l = b.lanes;
            let slot = addr as usize * l;
            let mut changed = 0u64;
            for k in 0..l {
                if b.mems[m][slot + k] != v {
                    b.mems[m][slot + k] = v;
                    changed |= 1u64 << k;
                }
            }
            self.memories[m][addr as usize] = v;
            if changed != 0 {
                if let Some(ev) = self.ev.as_deref_mut() {
                    ev.note_mem_poked(m, changed);
                }
            }
        } else if self.memories[m][addr as usize] != v {
            self.memories[m][addr as usize] = v;
            if let Some(ev) = self.ev.as_deref_mut() {
                ev.note_mem_poked(m, ALL_LANES);
            }
        }
    }

    /// Read one lane's copy of a memory word ([`Engine::Batched`] only).
    ///
    /// # Panics
    /// Panics on unknown memory, out-of-range address or lane, or when the
    /// batched engine is not active.
    pub fn read_mem_lane(&self, name: &str, lane: usize, addr: u64) -> u64 {
        let m = self.mem_index[name];
        let b = self.batch.as_deref().expect("batched engine not active");
        assert!(
            lane < b.lanes,
            "lane {lane} out of range (lanes = {})",
            b.lanes
        );
        b.mems[m][addr as usize * b.lanes + lane]
    }

    /// Read a memory word.
    ///
    /// # Panics
    /// Panics on unknown memory or out-of-range address.
    pub fn read_mem(&self, name: &str, addr: u64) -> u64 {
        self.memories[self.mem_index[name]][addr as usize]
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Cap the total number of cycles this simulator may execute. Once the
    /// budget is reached, [`step`](Self::step) fails with a clean watchdog
    /// error rather than letting a hung design spin forever. `None` (the
    /// default) removes the cap.
    pub fn set_cycle_budget(&mut self, budget: Option<u64>) {
        self.cycle_budget = budget;
    }

    /// Start dumping a VCD waveform of every net to `out` (e.g. a file).
    /// One VCD timestep per clock cycle; values are sampled after each
    /// settle.
    ///
    /// # Errors
    /// Propagates write errors from emitting the header.
    pub fn start_vcd(&mut self, mut out: Box<dyn std::io::Write>) -> std::io::Result<()> {
        use std::io::Write;
        writeln!(out, "$timescale 1ns $end")?;
        writeln!(out, "$scope module top $end")?;
        let mut traced = Vec::new();
        for (i, name) in self.net_names.iter().enumerate() {
            let code = vcd_code(i);
            writeln!(
                out,
                "$var wire {} {} {} $end",
                self.net_width[i], code, name
            )?;
            traced.push((i, code));
        }
        writeln!(out, "$upscope $end")?;
        writeln!(out, "$enddefinitions $end")?;
        let last = vec![None; self.values.len()];
        self.vcd = Some(Vcd { out, traced, last });
        self.emit_vcd();
        Ok(())
    }

    fn emit_vcd(&mut self) {
        self.settle_if_dirty();
        let Some(vcd) = &mut self.vcd else { return };
        use std::io::Write;
        let _ = writeln!(vcd.out, "#{}", self.cycle);
        for (i, code) in &vcd.traced {
            let v = self.values[*i];
            if vcd.last[*i] != Some(v) {
                vcd.last[*i] = Some(v);
                if self.net_width[*i] == 1 {
                    let _ = writeln!(vcd.out, "{v}{code}");
                } else {
                    let _ = writeln!(vcd.out, "b{:b} {code}", v);
                }
            }
        }
    }

    /// Evaluate all continuous assigns (in topological order).
    pub fn settle(&mut self) {
        self.lane0_dirty = true;
        self.run_settle();
    }

    /// Settle when a net was driven since the last settle.
    fn settle_if_dirty(&mut self) {
        if self.dirty {
            self.run_settle();
        }
    }

    fn run_settle(&mut self) {
        // Two iterations would be needed only for stale memory reads; assigns
        // are topologically ordered so one pass suffices.
        let tape = &self.settle_tape;
        let mut failure = None;
        let mut st = Scalar {
            regs: &mut self.regs,
            values: &mut self.values,
            memories: &self.memories,
            msgs: &self.msgs,
            pend_nets: &mut self.pending_nets,
            pend_mems: &mut self.pending_mems,
            failure: &mut failure,
        };
        match self.engine {
            Engine::Bytecode => match self.telemetry.as_deref_mut() {
                None => exec(tape, 0..tape.len(), &mut st, &mut Plain),
                Some(t) => {
                    let mut count = Count::new(Plain, &t.masks);
                    exec(tape, 0..tape.len(), &mut st, &mut count);
                    t.settle += count.n;
                }
            },
            Engine::TreeWalk => {
                if let Some(t) = self.telemetry.as_deref_mut() {
                    let n = t.shadow_count(tape, st.values, st.memories, st.msgs);
                    t.settle += n;
                }
                for (net, expr) in &self.assigns {
                    let v = eval(expr, st.values, st.memories);
                    st.values[*net] = v & mask(self.net_width[*net]);
                }
            }
            Engine::Event => {
                let mut ev = self.ev.take().expect("event state built on engine switch");
                let mut changed = std::mem::take(&mut ev.store_changed);
                match self.telemetry.as_deref_mut() {
                    None => settle_sweep(&mut ev, |_, pcs, ev| {
                        exec(tape, pcs, &mut st, &mut Dirty(&mut changed));
                        ev.note_changed_nets(&mut changed);
                    }),
                    Some(t) => {
                        settle_sweep(&mut ev, |units, pcs, ev| {
                            let mut count = Count::new(Dirty(&mut changed), &t.masks);
                            exec(tape, pcs, &mut st, &mut count);
                            t.settle += count.n;
                            ev.settle_ran[units].fill(true);
                            ev.note_changed_nets(&mut changed);
                        });
                        settle_steady_counts(&mut ev, t, tape, &mut st);
                    }
                }
                ev.store_changed = changed;
                self.ev = Some(ev);
            }
            Engine::Batched => {
                if let Some(t) = self.telemetry.as_deref_mut().filter(|_| self.lane0_dirty) {
                    // Counts from a shadow full-tape run mirroring lane 0,
                    // exactly as under the tree-walk oracle.
                    let n = t.shadow_count(tape, st.values, st.memories, st.msgs);
                    t.settle += n;
                }
                let mut ev = self.ev.take().expect("event state built on engine switch");
                let mut b = self
                    .batch
                    .take()
                    .expect("batch state built on engine switch");
                // Same run-coalesced sweep as the scalar event engine: every
                // lane of a merged range sees its in-range producers' final
                // values (tape order), so in-range re-wakes are cleared.
                let values = &mut *st.values;
                settle_sweep(&mut ev, |_, pcs, ev| {
                    run_lanes::<true>(tape, pcs, ALL_LANES, &mut b, st.msgs);
                    let l = b.lanes;
                    for &(net, lanes) in &b.changed {
                        if lanes & 1 != 0 {
                            // Lane 0 mirrors into the scalar values.
                            values[net as usize] = b.values[net as usize * l];
                        }
                        ev.note_net_change(net as usize, lanes);
                    }
                    b.changed.clear();
                });
                self.ev = Some(ev);
                self.batch = Some(b);
            }
        }
        if self.ev.is_none() {
            // Full-tape engines: every settle re-evaluates every assign, so
            // the sched-stats plane records one maximal "run".
            if let Some(sc) = self.sched.as_deref_mut() {
                sc.full_settles += 1;
            }
        }
        self.dirty = false;
        self.lane0_dirty = false;
    }

    /// Advance one clock edge with non-blocking semantics.
    ///
    /// # Errors
    /// Returns an error when an assertion fires or the cycle budget set via
    /// [`set_cycle_budget`](Self::set_cycle_budget) is exhausted.
    pub fn step(&mut self) -> Result<(), VSimError> {
        if let Some(budget) = self.cycle_budget {
            if self.cycle >= budget {
                return Err(VSimError {
                    cycle: self.cycle,
                    message: format!(
                        "cycle budget of {budget} cycles exhausted (watchdog; \
                         raise with set_cycle_budget or --sim-max-cycles)"
                    ),
                });
            }
        }
        self.settle_if_dirty();
        if self.sched.is_some() {
            // Sample the dirty set before dispatch consumes it.
            self.sched_sample_step_entry();
        }
        // Reuse the pending-update buffers across steps: stepping allocates
        // nothing in any engine.
        let mut net_updates = std::mem::take(&mut self.pending_nets);
        let mut mem_updates = std::mem::take(&mut self.pending_mems);
        net_updates.clear();
        mem_updates.clear();
        let mut failure: Option<String> = None;
        let tape = &self.step_tape;
        let mut st = Scalar {
            regs: &mut self.regs,
            values: &mut self.values,
            memories: &self.memories,
            msgs: &self.msgs,
            pend_nets: &mut net_updates,
            pend_mems: &mut mem_updates,
            failure: &mut failure,
        };
        match self.engine {
            Engine::Bytecode => match self.telemetry.as_deref_mut() {
                None => exec(tape, 0..tape.len(), &mut st, &mut Plain),
                Some(t) => {
                    let mut count = Count::new(Plain, &t.masks);
                    exec(tape, 0..tape.len(), &mut st, &mut count);
                    t.step += count.n;
                }
            },
            Engine::TreeWalk => {
                if let Some(t) = self.telemetry.as_deref_mut() {
                    let n = t.shadow_count(tape, st.values, st.memories, st.msgs);
                    t.step += n;
                }
                for s in &self.always {
                    self.exec(s, &mut net_updates, &mut mem_updates, &mut failure);
                }
            }
            Engine::Event => {
                let mut ev = self.ev.take().expect("event state built on engine switch");
                match self.telemetry.as_deref_mut() {
                    None => step_sweep(&mut ev, |pcs, _| exec(tape, pcs, &mut st, &mut Plain)),
                    Some(t) => {
                        step_steady_counts(&mut ev, t, tape, &mut st);
                        step_sweep(&mut ev, |pcs, _| {
                            let mut count = Count::new(Plain, &t.masks);
                            exec(tape, pcs, &mut st, &mut count);
                            t.step += count.n;
                        });
                    }
                }
                self.ev = Some(ev);
            }
            Engine::Batched => {
                if let Some(t) = self.telemetry.as_deref_mut() {
                    let n = t.shadow_count(tape, st.values, st.memories, st.msgs);
                    t.step += n;
                }
                let mut ev = self.ev.take().expect("event state built on engine switch");
                let mut b = self
                    .batch
                    .take()
                    .expect("batch state built on engine switch");
                b.pend_rows.clear();
                b.pend_vals.clear();
                b.failures.fill(None);
                step_sweep(&mut ev, |pcs, lanes| {
                    run_lanes::<false>(tape, pcs, lanes, &mut b, st.msgs)
                });
                // Report the lowest failing lane: lane 0 keeps the scalar
                // message verbatim, other lanes are suffixed with their index.
                *st.failure = b.failures.iter_mut().enumerate().find_map(|(k, f)| {
                    let msg = f.take()?;
                    Some(if k == 0 {
                        msg
                    } else {
                        format!("{msg} [lane {k}]")
                    })
                });
                self.ev = Some(ev);
                self.batch = Some(b);
            }
        }
        if let Some(message) = failure {
            // A failed step does not complete the cycle; re-arm every cone
            // so a retry re-executes like the full-tape engines would.
            if let Some(ev) = self.ev.as_deref_mut() {
                ev.mark_all_pending();
            }
            self.pending_nets = net_updates;
            self.pending_mems = mem_updates;
            return Err(VSimError {
                cycle: self.cycle,
                message,
            });
        }
        obs::counter_add("sim", "cycles", 1);
        obs::counter_add("sim", "mem_read_events", self.mem_read_ports);
        if self.engine == Engine::Batched {
            self.commit_rows();
        } else {
            obs::counter_add("sim", "net_updates", net_updates.len() as u64);
            obs::counter_add("sim", "mem_write_events", mem_updates.len() as u64);
            let mut net_changes = 0u64;
            let mut mem_changes = 0u64;
            for &(net, v) in &net_updates {
                let net = net as usize;
                let nv = v & mask(self.net_width[net]);
                if self.values[net] != nv {
                    self.values[net] = nv;
                    net_changes += 1;
                    if let Some(ev) = self.ev.as_deref_mut() {
                        ev.note_net_change(net, ALL_LANES);
                    }
                }
            }
            for &(mem, addr, v) in &mem_updates {
                let mem = mem as usize;
                let depth = self.memories[mem].len() as u64;
                if addr < depth {
                    let nv = v & mask(self.mem_width[mem]);
                    // `mems_written` records writes that change the stored
                    // word — identical under every engine, including the
                    // event scheduler, which never re-executes a cone whose
                    // memory writes rewrite the same values.
                    if self.memories[mem][addr as usize] != nv {
                        self.memories[mem][addr as usize] = nv;
                        mem_changes += 1;
                        if let Some(t) = self.telemetry.as_deref_mut() {
                            t.mems_written[mem] = true;
                        }
                        if let Some(ev) = self.ev.as_deref_mut() {
                            ev.note_mem_change(mem, ALL_LANES);
                        }
                    }
                }
                // Out-of-range writes are dropped; assertions catch them first.
            }
            if let Some(sc) = self.sched.as_deref_mut() {
                sc.commit_net_compares += net_updates.len() as u64;
                sc.commit_net_changes += net_changes;
                sc.commit_mem_compares += mem_updates.len() as u64;
                sc.commit_mem_changes += mem_changes;
            }
        }
        self.pending_nets = net_updates;
        self.pending_mems = mem_updates;
        self.cycle += 1;
        self.settle();
        if self.telemetry.is_some() {
            self.telemetry_account();
        }
        if self.vcd.is_some() {
            self.emit_vcd();
        }
        Ok(())
    }

    /// The batched engine's edge commit: one pass over this step's pending
    /// rows in emission order. A row compares and stores the lanes in its
    /// mask. Lane 0 mirrors into `values`/`memories` and alone drives
    /// `mems_written` and the `sim.net_updates`/`sim.mem_write_events`
    /// counters, so those read as the scalar run's. Each changed net or
    /// memory then wakes its readers once, with the mask of every lane that
    /// changed it (the reader walk is the expensive part).
    fn commit_rows(&mut self) {
        let b = self
            .batch
            .as_deref_mut()
            .expect("batch state built on engine switch");
        let l = b.lanes;
        let full = lane_mask(l);
        let (mut net_compares, mut net_changes, mut net_rows0) = (0u64, 0u64, 0u64);
        let (mut mem_compares, mut mem_changes, mut mem_rows0) = (0u64, 0u64, 0u64);
        let mut at = 0;
        for &row in &b.pend_rows {
            let mut changed = 0u64;
            match row {
                PendRow::Net { net, lanes } => {
                    let n = net as usize;
                    let m = mask(self.net_width[n]);
                    let vals = &b.pend_vals[at..at + l];
                    at += l;
                    let cur = &mut b.values[n * l..(n + 1) * l];
                    for_lanes(lanes, l, full, |k| {
                        let nv = vals[k] & m;
                        if cur[k] != nv {
                            cur[k] = nv;
                            changed |= 1u64 << k;
                        }
                    });
                    net_compares += u64::from(lanes.count_ones());
                    net_rows0 += lanes & 1;
                    if changed != 0 {
                        net_changes += u64::from(changed.count_ones());
                        self.values[n] = cur[0];
                        if b.note_net_mask[n] == 0 {
                            b.note_nets.push(net);
                        }
                        b.note_net_mask[n] |= changed;
                    }
                }
                PendRow::Mem { mem, lanes } => {
                    let mi = mem as usize;
                    let m = mask(self.mem_width[mi]);
                    let depth = self.memories[mi].len() as u64;
                    let (addrs, vals) = b.pend_vals[at..at + 2 * l].split_at(l);
                    at += 2 * l;
                    let words = &mut b.mems[mi];
                    for_lanes(lanes, l, full, |k| {
                        // Out-of-range writes are dropped; assertions catch
                        // them first.
                        if addrs[k] < depth {
                            let nv = vals[k] & m;
                            let slot = addrs[k] as usize * l + k;
                            if words[slot] != nv {
                                words[slot] = nv;
                                changed |= 1u64 << k;
                            }
                        }
                    });
                    mem_compares += u64::from(lanes.count_ones());
                    mem_rows0 += lanes & 1;
                    if changed != 0 {
                        mem_changes += u64::from(changed.count_ones());
                        if changed & 1 != 0 {
                            self.memories[mi][addrs[0] as usize] = words[addrs[0] as usize * l];
                            if let Some(t) = self.telemetry.as_deref_mut() {
                                t.mems_written[mi] = true;
                            }
                        }
                        if b.note_mem_mask[mi] == 0 {
                            b.note_mems.push(mem);
                        }
                        b.note_mem_mask[mi] |= changed;
                    }
                }
            }
        }
        obs::counter_add("sim", "net_updates", net_rows0);
        obs::counter_add("sim", "mem_write_events", mem_rows0);
        if let Some(sc) = self.sched.as_deref_mut() {
            sc.commit_net_compares += net_compares;
            sc.commit_net_changes += net_changes;
            sc.commit_mem_compares += mem_compares;
            sc.commit_mem_changes += mem_changes;
        }
        let ev = self
            .ev
            .as_deref_mut()
            .expect("event state built on engine switch");
        for &net in &b.note_nets {
            let n = net as usize;
            ev.note_net_change(n, b.note_net_mask[n]);
            b.note_net_mask[n] = 0;
        }
        b.note_nets.clear();
        for &mem in &b.note_mems {
            let m = mem as usize;
            ev.note_mem_change(m, b.note_mem_mask[m]);
            b.note_mem_mask[m] = 0;
        }
        b.note_mems.clear();
    }

    /// One telemetry accounting point: called at the end of each `step`,
    /// after the post-edge settle, comparing the newly settled values
    /// against the previous accounting point's snapshot.
    fn telemetry_account(&mut self) {
        if self.engine == Engine::Event && self.ev.is_some() {
            self.telemetry_account_dirty();
            return;
        }
        let Some(t) = self.telemetry.as_deref_mut() else {
            return;
        };
        t.cycles += 1;
        let cyc = t.cycles - 1; // 0-based index of the cycle just completed
        for i in 0..self.values.len() {
            let new = self.values[i];
            let old = t.prev[i];
            if new != old {
                t.toggle_cycles[i] += 1;
                t.bit_toggles[i] += u64::from((new ^ old).count_ones());
                // Lazy high accounting: credit the run of unchanged cycles
                // the old value was held for, then this point's new value;
                // [`telemetry_report`](Self::telemetry_report) credits the
                // still-open run. Identical totals to eager per-cycle
                // accounting, but change-driven, so the event engine's
                // dirty-set covers it.
                if old != 0 {
                    t.high_cycles[i] += (t.cycles - 1) - t.high_since[i];
                }
                if new != 0 {
                    t.high_cycles[i] += 1;
                }
                t.high_since[i] = t.cycles;
            }
        }
        for cone in t.settle_cones.iter_mut().chain(t.step_cones.iter_mut()) {
            let mut quiet = cone
                .inputs
                .iter()
                .all(|&n| self.values[n as usize] == t.prev[n as usize]);
            if quiet {
                quiet = cone.mem_inputs.iter().all(|&m| !t.mems_written[m as usize]);
            }
            if quiet {
                cone.quiescent_cycles += 1;
                if t.record_trace {
                    if let Some(start) = cone.busy_since.take() {
                        cone.busy_intervals.push((start, cyc));
                    }
                }
            } else if t.record_trace && cone.busy_since.is_none() {
                cone.busy_since = Some(cyc);
            }
        }
        t.prev.copy_from_slice(&self.values);
        for w in &mut t.mems_written {
            *w = false;
        }
    }

    /// Dirty-set accounting for [`Engine::Event`]: instead of re-deriving
    /// per-net change detection with a full scan, visit only the nets the
    /// scheduler recorded as possibly-changed (a sound superset, filtered
    /// here by an exact compare against the previous snapshot) and mark
    /// reader cones busy through the same sensitivity lists that drive
    /// scheduling. Counter totals are byte-identical to the eager path.
    fn telemetry_account_dirty(&mut self) {
        let Some(t) = self.telemetry.as_deref_mut() else {
            return;
        };
        let mut ev = self.ev.take().expect("event state built on engine switch");
        t.cycles += 1;
        let cyc = t.cycles - 1;
        for idx in 0..ev.changed_nets.len() {
            let i = ev.changed_nets[idx] as usize;
            ev.changed_flag[i] = false;
            let new = self.values[i];
            let old = t.prev[i];
            if new != old {
                t.toggle_cycles[i] += 1;
                t.bit_toggles[i] += u64::from((new ^ old).count_ones());
                if old != 0 {
                    t.high_cycles[i] += (t.cycles - 1) - t.high_since[i];
                }
                if new != 0 {
                    t.high_cycles[i] += 1;
                }
                t.high_since[i] = t.cycles;
                t.prev[i] = new;
                let (a, b) = (
                    ev.settle_readers.off[i] as usize,
                    ev.settle_readers.off[i + 1] as usize,
                );
                for j in a..b {
                    let c = ev.settle_readers.flat[j];
                    ev.settle_busy[ev.settle_unit_cone[c as usize] as usize] = true;
                }
                let (a, b) = (
                    ev.step_readers.off[i] as usize,
                    ev.step_readers.off[i + 1] as usize,
                );
                for j in a..b {
                    let c = ev.step_readers.flat[j];
                    ev.step_busy[c as usize] = true;
                }
            }
        }
        ev.changed_nets.clear();
        for m in 0..t.mems_written.len() {
            if t.mems_written[m] {
                t.mems_written[m] = false;
                let (a, b) = (
                    ev.settle_mem_readers.off[m] as usize,
                    ev.settle_mem_readers.off[m + 1] as usize,
                );
                for j in a..b {
                    let c = ev.settle_mem_readers.flat[j];
                    ev.settle_busy[ev.settle_unit_cone[c as usize] as usize] = true;
                }
                let (a, b) = (
                    ev.step_mem_readers.off[m] as usize,
                    ev.step_mem_readers.off[m + 1] as usize,
                );
                for j in a..b {
                    let c = ev.step_mem_readers.flat[j];
                    ev.step_busy[c as usize] = true;
                }
            }
        }
        for (cones, busy) in [
            (&mut t.settle_cones, &mut ev.settle_busy),
            (&mut t.step_cones, &mut ev.step_busy),
        ] {
            for (c, cone) in cones.iter_mut().enumerate() {
                if busy[c] {
                    busy[c] = false;
                    if t.record_trace && cone.busy_since.is_none() {
                        cone.busy_since = Some(cyc);
                    }
                } else {
                    cone.quiescent_cycles += 1;
                    if t.record_trace {
                        if let Some(start) = cone.busy_since.take() {
                            cone.busy_intervals.push((start, cyc));
                        }
                    }
                }
            }
        }
        self.ev = Some(ev);
    }

    /// Run `n` clock cycles.
    ///
    /// # Errors
    /// Propagates the first assertion failure.
    pub fn run(&mut self, n: u64) -> Result<(), VSimError> {
        for _ in 0..n {
            self.step()?;
        }
        Ok(())
    }

    /// Step until `net` becomes non-zero, up to `max_cycles`.
    ///
    /// # Errors
    /// Fails on assertion or timeout.
    pub fn step_until(&mut self, net: &str, max_cycles: u64) -> Result<u64, VSimError> {
        let start = self.cycle;
        loop {
            if self.get(net) != 0 {
                return Ok(self.cycle - start);
            }
            if self.cycle - start >= max_cycles {
                return Err(VSimError {
                    cycle: self.cycle,
                    message: format!("'{net}' did not assert within {max_cycles} cycles"),
                });
            }
            self.step()?;
        }
    }

    fn exec(
        &self,
        stmt: &CStmt,
        net_updates: &mut Vec<(u32, u64)>,
        mem_updates: &mut Vec<(u32, u64, u64)>,
        failure: &mut Option<String>,
    ) {
        match stmt {
            CStmt::AssignNet { net, rhs } => {
                net_updates.push((*net as u32, eval(rhs, &self.values, &self.memories)));
            }
            CStmt::AssignMem { mem, addr, rhs } => {
                let a = eval(addr, &self.values, &self.memories);
                let v = eval(rhs, &self.values, &self.memories);
                mem_updates.push((*mem as u32, a, v));
            }
            CStmt::If { cond, then, els } => {
                let branch = if eval(cond, &self.values, &self.memories) != 0 {
                    then
                } else {
                    els
                };
                for s in branch {
                    self.exec(s, net_updates, mem_updates, failure);
                }
            }
            CStmt::Assert {
                guard,
                cond,
                message,
            } => {
                if failure.is_none()
                    && eval(guard, &self.values, &self.memories) != 0
                    && eval(cond, &self.values, &self.memories) == 0
                {
                    *failure = Some(message.clone());
                }
            }
        }
    }
}

/// Short printable VCD identifier for signal `i`.
fn vcd_code(mut i: usize) -> String {
    let mut s = String::new();
    loop {
        s.push((b'!' + (i % 94) as u8) as char);
        i /= 94;
        if i == 0 {
            break;
        }
    }
    s
}

pub(crate) fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

fn sign_extend(v: u64, width: u32) -> i128 {
    if width >= 64 {
        return v as i64 as i128;
    }
    let sign = 1u64 << (width - 1);
    if v & sign != 0 {
        v as i128 - (1i128 << width)
    } else {
        v as i128
    }
}

fn eval(e: &CExpr, values: &[u64], memories: &[Vec<u64>]) -> u64 {
    match e {
        CExpr::Const { value, width } => value & mask(*width),
        CExpr::Net { index, .. } => values[*index],
        CExpr::MemRead { mem, addr, width } => {
            let a = eval(addr, values, memories) as usize;
            memories[*mem].get(a).copied().unwrap_or(0) & mask(*width)
        }
        CExpr::Slice { base, hi, lo } => {
            let v = eval(base, values, memories);
            (v >> lo) & mask(hi - lo + 1)
        }
        CExpr::Unary { op, arg, width } => {
            let a = eval(arg, values, memories);
            let r = match op {
                UnOp::Not => !a,
                UnOp::LNot => u64::from(a == 0),
                UnOp::RedOr => u64::from(a != 0),
            };
            r & mask(*width)
        }
        CExpr::Binary {
            op,
            lhs,
            rhs,
            width,
        } => {
            let a = eval(lhs, values, memories);
            let b = eval(rhs, values, memories);
            eval_binary(*op, a, b, lhs.width(), rhs.width()) & mask(*width)
        }
        CExpr::Ternary {
            cond,
            then,
            els,
            width,
        } => {
            let r = if eval(cond, values, memories) != 0 {
                eval(then, values, memories)
            } else {
                eval(els, values, memories)
            };
            r & mask(*width)
        }
        CExpr::Concat { parts, width } => {
            let mut acc: u64 = 0;
            for p in parts {
                let w = p.width().min(63);
                acc = (acc << w) | (eval(p, values, memories) & mask(w));
            }
            acc & mask(*width)
        }
        CExpr::SignExtend { arg, from, to } => {
            let v = eval(arg, values, memories);
            (sign_extend(v & mask(*from), *from) as u64) & mask(*to)
        }
    }
}

/// Unmasked binary-op semantics, shared by the tree-walk evaluator and the
/// bytecode executor so the two engines agree bit for bit by construction.
#[inline]
fn eval_binary(op: BinOp, a: u64, b: u64, aw: u32, bw: u32) -> u64 {
    match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => {
            if b >= 64 {
                0
            } else {
                a.wrapping_shl(b as u32)
            }
        }
        BinOp::LShr => {
            if b >= 64 {
                0
            } else {
                a.wrapping_shr(b as u32)
            }
        }
        BinOp::AShr => {
            let sa = sign_extend(a, aw);
            (sa >> b.min(127) as i32) as u64
        }
        BinOp::Eq => u64::from(a == b),
        BinOp::Ne => u64::from(a != b),
        BinOp::SLt => u64::from(sign_extend(a, aw) < sign_extend(b, bw)),
        BinOp::SLe => u64::from(sign_extend(a, aw) <= sign_extend(b, bw)),
        BinOp::SGt => u64::from(sign_extend(a, aw) > sign_extend(b, bw)),
        BinOp::SGe => u64::from(sign_extend(a, aw) >= sign_extend(b, bw)),
        BinOp::ULt => u64::from(a < b),
        BinOp::ULe => u64::from(a <= b),
    }
}

/// The scalar engines' state, borrowed for one interpreter call: the
/// register file, net values and memories, the non-blocking update buffers
/// and the first assertion failure of the step.
struct Scalar<'a> {
    regs: &'a mut [u64],
    values: &'a mut [u64],
    memories: &'a [Vec<u64>],
    msgs: &'a [String],
    pend_nets: &'a mut Vec<(u32, u64)>,
    pend_mems: &'a mut Vec<(u32, u64, u64)>,
    failure: &'a mut Option<String>,
}

/// What [`exec`] reports besides executing: one hook per executed
/// instruction, register write, net store and non-blocking emission. The
/// defaults observe nothing, so a zero-sized observer compiles to the bare
/// interpreter. Only `store` has an effect on the state it is handed.
trait Observer {
    #[inline(always)]
    fn insn(&mut self) {}
    /// A register is overwritten: `old` is its value before the write.
    #[inline(always)]
    fn reg(&mut self, _old: u64, _new: u64) {}
    /// Continuous assign: `values[net] = v`.
    #[inline(always)]
    fn store(&mut self, values: &mut [u64], net: u32, v: u64) {
        values[net as usize] = v;
    }
    #[inline(always)]
    fn emit_net(&mut self, _values: &[u64], _net: u32, _v: u64) {}
    #[inline(always)]
    fn emit_mem(&mut self, _memories: &[Vec<u64>], _mem: u32, _addr: u64, _v: u64) {}
}

/// Observes nothing: the bytecode engine and the event engine's step.
struct Plain;

impl Observer for Plain {}

/// The event engine's settle: a store compares and sets, recording the
/// nets whose value actually changed. That dirty set drives the scheduler.
struct Dirty<'a>(&'a mut Vec<u32>);

impl Observer for Dirty<'_> {
    #[inline(always)]
    fn store(&mut self, values: &mut [u64], net: u32, v: u64) {
        let n = net as usize;
        if values[n] != v {
            values[n] = v;
            self.0.push(net);
        }
    }
}

/// Executed and changed instruction totals for the telemetry plane.
#[derive(Clone, Copy, Debug, Default)]
struct Counts {
    executed: u64,
    changed: u64,
}

impl std::ops::AddAssign for Counts {
    fn add_assign(&mut self, o: Counts) {
        self.executed += o.executed;
        self.changed += o.changed;
    }
}

/// Telemetry: counts every executed instruction, and every one whose
/// destination changes (a register, a net, or the net or memory word a
/// non-blocking emission will commit to), on top of `inner`'s store
/// semantics.
struct Count<'a, I> {
    inner: I,
    n: Counts,
    masks: &'a Masks,
}

/// Per-net and per-memory width masks, for comparing an emitted value
/// with the word it will overwrite.
struct Masks {
    net: Vec<u64>,
    mem: Vec<u64>,
}

impl<'a, I> Count<'a, I> {
    fn new(inner: I, masks: &'a Masks) -> Self {
        Count {
            inner,
            n: Counts::default(),
            masks,
        }
    }
}

impl<I: Observer> Observer for Count<'_, I> {
    #[inline(always)]
    fn insn(&mut self) {
        self.n.executed += 1;
    }
    #[inline(always)]
    fn reg(&mut self, old: u64, new: u64) {
        self.n.changed += u64::from(old != new);
    }
    #[inline(always)]
    fn store(&mut self, values: &mut [u64], net: u32, v: u64) {
        self.n.changed += u64::from(values[net as usize] != v);
        self.inner.store(values, net, v);
    }
    #[inline(always)]
    fn emit_net(&mut self, values: &[u64], net: u32, v: u64) {
        let n = net as usize;
        self.n.changed += u64::from(v & self.masks.net[n] != values[n]);
    }
    #[inline(always)]
    fn emit_mem(&mut self, memories: &[Vec<u64>], mem: u32, addr: u64, v: u64) {
        let m = mem as usize;
        if let Some(&cur) = memories[m].get(addr as usize) {
            self.n.changed += u64::from(v & self.masks.mem[m] != cur);
        }
    }
}

/// The scalar interpreter: execute tape pcs `pcs` over the borrowed state,
/// reporting to `obs`. A linear sweep over preallocated buffers with no
/// recursion and no allocation (assertion failure aside). Jump targets are
/// absolute pcs and never leave the range (ranges follow statement
/// boundaries).
fn exec<O: Observer>(tape: &[Insn], pcs: Range<usize>, st: &mut Scalar<'_>, obs: &mut O) {
    // Locals, not `st.field`: the optimizer keeps them in registers across
    // the stores into the register file.
    let regs = &mut *st.regs;
    let values = &mut *st.values;
    let memories = st.memories;
    let (pend_nets, pend_mems) = (&mut *st.pend_nets, &mut *st.pend_mems);
    macro_rules! put {
        ($dst:expr, $v:expr) => {{
            let v = $v;
            let r = &mut regs[$dst as usize];
            obs.reg(*r, v);
            *r = v;
        }};
    }
    // Cut at the range end so the loop bound also bounds `tape[pc]`.
    let tape = &tape[..pcs.end];
    let mut pc = pcs.start;
    while pc < tape.len() {
        obs.insn();
        match tape[pc] {
            Insn::LoadNet { dst, net } => put!(dst, values[net as usize]),
            Insn::MemRead { dst, mem, addr, m } => {
                let a = regs[addr as usize] as usize;
                put!(dst, memories[mem as usize].get(a).copied().unwrap_or(0) & m);
            }
            Insn::Slice { dst, src, lo, m } => put!(dst, (regs[src as usize] >> lo) & m),
            Insn::Not { dst, src, m } => put!(dst, !regs[src as usize] & m),
            Insn::LNot { dst, src } => put!(dst, u64::from(regs[src as usize] == 0)),
            Insn::RedOr { dst, src } => put!(dst, u64::from(regs[src as usize] != 0)),
            Insn::Binary {
                op,
                dst,
                a,
                b,
                aw,
                bw,
                m,
            } => put!(
                dst,
                eval_binary(op, regs[a as usize], regs[b as usize], aw, bw) & m
            ),
            Insn::Select {
                dst,
                cond,
                then,
                els,
                m,
            } => {
                let v = if regs[cond as usize] != 0 {
                    regs[then as usize]
                } else {
                    regs[els as usize]
                };
                put!(dst, v & m);
            }
            Insn::ConcatFirst { dst, src, m } => put!(dst, regs[src as usize] & m),
            Insn::ConcatPush { dst, src, shift, m } => {
                put!(
                    dst,
                    (regs[dst as usize] << shift) | (regs[src as usize] & m)
                );
            }
            Insn::MaskReg { dst, m } => put!(dst, regs[dst as usize] & m),
            Insn::SignExtend {
                dst,
                src,
                from,
                fm,
                m,
            } => put!(dst, (sign_extend(regs[src as usize] & fm, from) as u64) & m),
            Insn::StoreNet { net, src, m } => obs.store(values, net, regs[src as usize] & m),
            Insn::EmitNet { net, src } => {
                let v = regs[src as usize];
                obs.emit_net(values, net, v);
                pend_nets.push((net, v));
            }
            Insn::EmitMem { mem, addr, src } => {
                let (a, v) = (regs[addr as usize], regs[src as usize]);
                obs.emit_mem(memories, mem, a, v);
                pend_mems.push((mem, a, v));
            }
            Insn::Assert { guard, cond, msg } => {
                if st.failure.is_none() && regs[guard as usize] != 0 && regs[cond as usize] == 0 {
                    *st.failure = Some(st.msgs[msg as usize].clone());
                }
            }
            Insn::Jump { target } => {
                pc = target as usize;
                continue;
            }
            Insn::JumpIfZero { src, target } => {
                if regs[src as usize] == 0 {
                    pc = target as usize;
                    continue;
                }
            }
        }
        pc += 1;
    }
}

fn count_mem_reads(e: &CExpr) -> u64 {
    match e {
        CExpr::Const { .. } | CExpr::Net { .. } => 0,
        CExpr::MemRead { addr, .. } => 1 + count_mem_reads(addr),
        CExpr::Slice { base, .. } => count_mem_reads(base),
        CExpr::Unary { arg, .. } => count_mem_reads(arg),
        CExpr::Binary { lhs, rhs, .. } => count_mem_reads(lhs) + count_mem_reads(rhs),
        CExpr::Ternary {
            cond, then, els, ..
        } => count_mem_reads(cond) + count_mem_reads(then) + count_mem_reads(els),
        CExpr::Concat { parts, .. } => parts.iter().map(count_mem_reads).sum(),
        CExpr::SignExtend { arg, .. } => count_mem_reads(arg),
    }
}

fn collect_deps(e: &CExpr, out: &mut Vec<usize>) {
    match e {
        CExpr::Const { .. } => {}
        CExpr::Net { index, .. } => out.push(*index),
        CExpr::MemRead { addr, .. } => collect_deps(addr, out),
        CExpr::Slice { base, .. } => collect_deps(base, out),
        CExpr::Unary { arg, .. } => collect_deps(arg, out),
        CExpr::Binary { lhs, rhs, .. } => {
            collect_deps(lhs, out);
            collect_deps(rhs, out);
        }
        CExpr::Ternary {
            cond, then, els, ..
        } => {
            collect_deps(cond, out);
            collect_deps(then, out);
            collect_deps(els, out);
        }
        CExpr::Concat { parts, .. } => {
            for p in parts {
                collect_deps(p, out);
            }
        }
        CExpr::SignExtend { arg, .. } => collect_deps(arg, out),
    }
}

/// Order assigns so every net is computed after the nets it reads. Nets that
/// are not assign targets (ports, regs) are sources.
fn topo_sort(
    net_names: &[String],
    compiled: Vec<(usize, CExpr, Vec<usize>)>,
) -> Result<Vec<(usize, CExpr)>, BuildError> {
    let mut producer = vec![usize::MAX; net_names.len()]; // net -> assign idx
    for (i, (net, _, _)) in compiled.iter().enumerate() {
        producer[*net] = i;
    }
    let n = compiled.len();
    let mut indegree = vec![0usize; n];
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, (_, _, deps)) in compiled.iter().enumerate() {
        for &d in deps {
            let p = producer[d];
            if p != usize::MAX {
                dependents[p].push(i);
                indegree[i] += 1;
            }
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(i) = queue.pop() {
        order.push(i);
        for &j in &dependents[i] {
            indegree[j] -= 1;
            if indegree[j] == 0 {
                queue.push(j);
            }
        }
    }
    if order.len() != n {
        let cyclic: Vec<String> = (0..n)
            .filter(|&i| indegree[i] > 0)
            .map(|i| net_names[compiled[i].0].clone())
            .collect();
        return Err(BuildError::CombinationalLoop(cyclic));
    }
    let mut result = Vec::with_capacity(n);
    let mut items: Vec<Option<(usize, CExpr)>> = compiled
        .into_iter()
        .map(|(net, e, _)| Some((net, e)))
        .collect();
    for i in order {
        result.push(items[i].take().expect("each assign emitted once"));
    }
    Ok(result)
}

// ------------------------------------------------- event-driven scheduler

/// Lane mask covering every possible stimulus lane (the scalar event
/// engine passes this; the batched engine masks individual lanes).
const ALL_LANES: u64 = u64::MAX;

/// The mask with one bit per lane of an `l`-lane batch.
fn lane_mask(l: usize) -> u64 {
    if l >= 64 {
        u64::MAX
    } else {
        (1u64 << l) - 1
    }
}

/// Scheduling tables for [`Engine::Event`] and [`Engine::Batched`]: the
/// static union-find cone partition turned into the scheduler. Each cone
/// executes as a set of pc ranges (chains) of the *unchanged* settle/step
/// tapes; a dirty-set of nets changed this cycle activates exactly the
/// cones whose sensitivity lists intersect it, and quiescent cones are
/// skipped entirely.
///
/// Soundness invariants (see DESIGN.md §11):
/// - a cone's sensitivity list is a sound over-approximation of its true
///   dependence set;
/// - the dirty-set is a superset of the nets whose settled value changed;
/// - a skipped chain's registers hold exactly the values a re-execution
///   would produce (its inputs are unchanged), so shared-CSE registers
///   read across chain boundaries are never stale;
/// - external pokes additionally wake the *writers* of the poked net or
///   memory, which the full-tape engines would rerun to overwrite it.
struct EventState {
    /// Per-assign chain bounds `[start, end)` in the settle tape.
    settle_chains: Vec<(u32, u32)>,
    /// Per-statement chain bounds `[start, end)` in the step tape.
    step_chains: Vec<(u32, u32)>,
    /// Chain indices per step cone in tape order, CSR layout: cone `c`
    /// owns `step_members_flat[off[c]..off[c+1]]`. (Settle needs no such
    /// table — settle scheduler unit `c` is exactly settle chain `c`.)
    step_members_off: Vec<u32>,
    step_members_flat: Vec<u32>,
    /// net -> settle scheduler units with the net in their sensitivity list.
    settle_readers: Csr,
    /// net -> settle scheduler unit producing it (`u32::MAX` when none).
    settle_writer: Vec<u32>,
    /// mem -> settle scheduler units reading it (latency-0 read ports).
    settle_mem_readers: Csr,
    /// settle scheduler unit -> coarse union-find cone (telemetry index).
    settle_unit_cone: Vec<u32>,
    /// net -> step cones reading it.
    step_readers: Csr,
    /// net -> step cones writing it (woken on external pokes only).
    step_writers: Csr,
    step_mem_readers: Csr,
    step_mem_writers: Csr,
    /// Pending settle units as a bitset (bit c of word c/64): the dispatch
    /// loop scans words and pops bits in ascending order, which is tape
    /// order, so skipping costs ~n/64 loads per sweep instead of n.
    settle_pending: Vec<u64>,
    /// Per-cone dirty lane mask (bit i = lane i). The scalar event engine
    /// treats any non-zero mask as pending; the batched engine
    /// re-evaluates only the dirty lanes (per-lane divergence masks).
    step_pending: Vec<u64>,
    /// Summary bitset over `step_pending` (bit c set iff the cone's lane
    /// mask is non-zero), giving the step dispatch the same ~n/64 scan.
    step_dirty: Vec<u64>,
    /// Whether to record changed nets for the telemetry piggyback (set iff
    /// telemetry is enabled): `changed_nets` then holds a deduplicated
    /// superset of the nets whose settled value differs from the previous
    /// accounting point's snapshot.
    track: bool,
    changed_nets: Vec<u32>,
    changed_flag: Vec<bool>,
    /// Scratch: nets changed by the settle cone currently being drained.
    store_changed: Vec<u32>,
    /// Scratch: per-cone busy marks for telemetry accounting.
    settle_busy: Vec<bool>,
    step_busy: Vec<bool>,
    /// Scratch: units executed during the current settle call.
    settle_ran: Vec<bool>,
    /// Per-unit (settle) and per-cone (step) steady-state instruction
    /// counts: what a full-tape run would count for a quiescent one.
    /// Exact for skipped cones — with unchanged inputs a re-execution
    /// repeats the same path and register trajectory — so summing cache
    /// entries for skipped cones plus live counts for executed ones equals
    /// the bytecode engine's totals. A cache entry is stale after the cone
    /// executes (its next steady counts may differ) and is refreshed by
    /// one idempotent re-run on the live state.
    settle_cache: Vec<Counts>,
    settle_stale: Vec<bool>,
    step_cache: Vec<Counts>,
    step_stale: Vec<bool>,
    /// Scheduler activity counters: cone executions (settle, step) since
    /// construction. Cheap enough to keep unconditionally; surfaced through
    /// [`Simulator::event_activity`] for profiling and reports.
    stat_settle_runs: u64,
    stat_step_runs: u64,
    /// Tape instructions dispatched by those runs (chain lengths summed).
    stat_settle_insns: u64,
    stat_step_insns: u64,
    /// Event-engine share of the sched-stats plane (`Some` iff the
    /// simulator's plane is on): wake-walk and dispatch distributions,
    /// recorded here because the wake methods run while the event state is
    /// detached from the simulator.
    sched: Option<Box<EvSchedStats>>,
}

/// Event-scheduler distributions for the sched-stats plane. Every field is
/// a pure observation of work the scheduler already did — recording never
/// changes which units run or what the tapes compute.
struct EvSchedStats {
    /// Reader-list entries walked per `note_net_change`/`note_net_poked`
    /// wake (settle-reader + step-reader CSR rows; poked nets add their
    /// writer rows as a separate sample).
    net_wake_walk: obs::Histogram,
    /// Reader-list entries walked per `note_mem_change`/`note_mem_poked`.
    mem_wake_walk: obs::Histogram,
    /// Units per coalesced settle dispatch (`pop_pending_run` run length).
    settle_run_len: obs::Histogram,
    /// Back-to-back chains merged per step-tape interpreter call.
    step_run_len: obs::Histogram,
    /// Wake deliveries per settle scheduler unit (may exceed activations:
    /// several inputs of one unit can change in the same sweep).
    settle_unit_wakes: Vec<u64>,
    /// Wake deliveries per step cone.
    step_cone_wakes: Vec<u64>,
}

impl EvSchedStats {
    fn new(n_settle_units: usize, n_step_cones: usize) -> Box<EvSchedStats> {
        Box::new(EvSchedStats {
            net_wake_walk: obs::Histogram::new(),
            mem_wake_walk: obs::Histogram::new(),
            settle_run_len: obs::Histogram::new(),
            step_run_len: obs::Histogram::new(),
            settle_unit_wakes: vec![0; n_settle_units],
            step_cone_wakes: vec![0; n_step_cones],
        })
    }
}

/// A bitset of `n` bits, all set (tail bits beyond `n` stay clear so a
/// word scan never dispatches a nonexistent unit).
fn full_bitset(n: usize) -> Vec<u64> {
    let mut words = vec![u64::MAX; n.div_ceil(64)];
    if !n.is_multiple_of(64) {
        if let Some(last) = words.last_mut() {
            *last = (1u64 << (n % 64)) - 1;
        }
    }
    words
}

/// `net/mem -> unit` adjacency lists in CSR layout: row `i` is
/// `flat[off[i]..off[i+1]]`. One contiguous allocation instead of a
/// `Vec<Vec<_>>` — the wake walks in `note_net_change` run once per changed
/// net per cycle, so the two dependent loads of the nested layout were a
/// measurable share of the event engine's settle time.
struct Csr {
    off: Vec<u32>,
    flat: Vec<u32>,
}

impl Csr {
    fn from_lists(lists: &[Vec<u32>]) -> Csr {
        let mut off = Vec::with_capacity(lists.len() + 1);
        let mut flat = Vec::new();
        off.push(0);
        for l in lists {
            flat.extend_from_slice(l);
            off.push(flat.len() as u32);
        }
        Csr { off, flat }
    }
}

/// The event engines' settle worklist sweep: dispatch maximal runs of
/// consecutive pending units as single contiguous tape ranges (settle
/// chains are laid out back-to-back), calling `run(units, pcs, ev)` once
/// per run. `run` executes the range and notes the nets it changed on
/// `ev`. A range executes in tape order, so every unit inside it has
/// already seen its in-range producers' final values; wakes the drain
/// re-raises inside the range are therefore satisfied and cleared again.
fn settle_sweep(
    ev: &mut EventState,
    mut run: impl FnMut(Range<usize>, Range<usize>, &mut EventState),
) {
    loop {
        let mut any = false;
        let mut w = 0;
        while w < ev.settle_pending.len() {
            if ev.settle_pending[w] == 0 {
                w += 1;
                continue;
            }
            let (c0, c1) = pop_pending_run(&mut ev.settle_pending, w);
            any = true;
            ev.stat_settle_runs += (c1 - c0 + 1) as u64;
            if let Some(sc) = ev.sched.as_deref_mut() {
                sc.settle_run_len.record((c1 - c0 + 1) as u64);
            }
            let s = ev.settle_chains[c0].0 as usize;
            let e = ev.settle_chains[c1].1 as usize;
            ev.stat_settle_insns += (e - s) as u64;
            run(c0..c1 + 1, s..e, ev);
            clear_bit_range(&mut ev.settle_pending, c0, c1);
        }
        if !any {
            break;
        }
    }
}

/// The event engines' step dispatch: pop pending cones off the summary
/// bitset in tape order (quiescent cones cost ~1/64 load each) and call
/// `run(pcs, lane_mask)` on their member chains, merging chains that sit
/// back-to-back in the tape under the same dirty-lane mask into one call.
/// Step chains are independent (non-blocking semantics: every write lands
/// in the pending-update buffers, not the live state), so the merge never
/// reorders an observable read after a write.
fn step_sweep(ev: &mut EventState, mut run: impl FnMut(Range<usize>, u64)) {
    let mut pcs = 0..0;
    let mut rmask = 0u64;
    let mut run_chains = 0u64;
    for w in 0..ev.step_dirty.len() {
        while ev.step_dirty[w] != 0 {
            let c = (w << 6) | ev.step_dirty[w].trailing_zeros() as usize;
            ev.step_dirty[w] &= ev.step_dirty[w] - 1;
            let pend = ev.step_pending[c];
            ev.step_pending[c] = 0;
            ev.stat_step_runs += 1;
            let (ms, me) = (
                ev.step_members_off[c] as usize,
                ev.step_members_off[c + 1] as usize,
            );
            for mi in ms..me {
                let chain = ev.step_members_flat[mi] as usize;
                let (s, e) = ev.step_chains[chain];
                let (s, e) = (s as usize, e as usize);
                ev.stat_step_insns += (e - s) as u64;
                if run_chains > 0 && s == pcs.end && pend == rmask {
                    pcs.end = e;
                    run_chains += 1;
                    continue;
                }
                if run_chains > 0 {
                    run(pcs, rmask);
                    if let Some(sc) = ev.sched.as_deref_mut() {
                        sc.step_run_len.record(run_chains);
                    }
                }
                (pcs, rmask, run_chains) = (s..e, pend, 1);
            }
        }
    }
    if run_chains > 0 {
        run(pcs, rmask);
        if let Some(sc) = ev.sched.as_deref_mut() {
            sc.step_run_len.record(run_chains);
        }
    }
}

/// Telemetry under the event engine, after a settle sweep: every unit the
/// sweep skipped contributes the counts a full-tape run would record.
/// Those steady-state counts are cached per unit and refreshed by one
/// idempotent live re-run the first time the unit is skipped after it ran.
fn settle_steady_counts(
    ev: &mut EventState,
    t: &mut Telemetry,
    tape: &[Insn],
    st: &mut Scalar<'_>,
) {
    for c in 0..ev.settle_chains.len() {
        if std::mem::take(&mut ev.settle_ran[c]) {
            ev.settle_stale[c] = true;
            continue;
        }
        if ev.settle_stale[c] {
            let (s, e) = ev.settle_chains[c];
            let mut count = Count::new(Plain, &t.masks);
            exec(tape, s as usize..e as usize, st, &mut count);
            ev.settle_cache[c] = count.n;
            ev.settle_stale[c] = false;
        }
        t.settle += ev.settle_cache[c];
    }
}

/// The step counterpart of [`settle_steady_counts`], run before the
/// dispatch: the cones it will skip are those not pending. The refresh
/// re-runs on the live state with emissions going to scratch buffers;
/// register effects are idempotent because the cone's inputs are
/// unchanged.
fn step_steady_counts(ev: &mut EventState, t: &mut Telemetry, tape: &[Insn], st: &mut Scalar<'_>) {
    let mut failure = None;
    for c in 0..ev.step_stale.len() {
        if ev.step_pending[c] != 0 {
            ev.step_stale[c] = true;
            continue;
        }
        if ev.step_stale[c] {
            t.shadow_nets.clear();
            t.shadow_mems.clear();
            let mut quiet = Scalar {
                regs: &mut *st.regs,
                values: &mut *st.values,
                memories: st.memories,
                msgs: st.msgs,
                pend_nets: &mut t.shadow_nets,
                pend_mems: &mut t.shadow_mems,
                failure: &mut failure,
            };
            let mut count = Count::new(Plain, &t.masks);
            let members = ev.step_members_off[c] as usize..ev.step_members_off[c + 1] as usize;
            for &chain in &ev.step_members_flat[members] {
                let (s, e) = ev.step_chains[chain as usize];
                exec(tape, s as usize..e as usize, &mut quiet, &mut count);
            }
            ev.step_cache[c] = count.n;
            ev.step_stale[c] = false;
        }
        t.step += ev.step_cache[c];
    }
}

/// Pop the lowest run of consecutive set bits from `words`, starting the
/// scan inside word `w` (which must be non-zero). Returns the inclusive
/// bit-index range of the run and clears its bits. Runs may span words.
///
/// Settle chains are laid out back-to-back in the tape, so a run of
/// consecutive pending units is a single contiguous pc range — one
/// interpreter call instead of one per unit.
fn pop_pending_run(words: &mut [u64], w: usize) -> (usize, usize) {
    let b0 = words[w].trailing_zeros() as usize;
    let first = (w << 6) + b0;
    let mut wi = w;
    let mut b = b0;
    loop {
        let shifted = words[wi] >> b;
        let r = (!shifted).trailing_zeros() as usize; // consecutive ones at b
        let r = r.min(64 - b);
        let mask = if r == 64 {
            u64::MAX
        } else {
            ((1u64 << r) - 1) << b
        };
        words[wi] &= !mask;
        if b + r == 64 && wi + 1 < words.len() && words[wi + 1] & 1 != 0 {
            wi += 1;
            b = 0;
            continue;
        }
        return (first, (wi << 6) + b + r - 1);
    }
}

/// Clear bits `[a, b]` (inclusive) of the bitset.
fn clear_bit_range(words: &mut [u64], a: usize, b: usize) {
    for c in a..=b {
        words[c >> 6] &= !(1u64 << (c & 63));
    }
}

impl EventState {
    fn build(sim: &Simulator) -> Box<EventState> {
        let n_nets = sim.values.len();
        let n_mems = sim.memories.len();
        let chain_bounds = |starts: &[u32], len: usize| -> Vec<(u32, u32)> {
            (0..starts.len())
                .map(|i| {
                    let end = starts.get(i + 1).copied().unwrap_or(len as u32);
                    (starts[i], end)
                })
                .collect()
        };
        // Settle is scheduled at per-assign granularity: the tape is
        // topologically ordered, so an in-order worklist sweep converges
        // without merging producer-consumer pairs, and fine units mean a
        // changed net re-evaluates only its actual readers instead of the
        // whole connected netlist (the union-find cone, which on HLS output
        // typically spans nearly every assign through the shared FSM). The
        // coarse cones remain the telemetry reporting unit;
        // `settle_unit_cone` maps scheduler units onto them.
        let n_assigns = sim.assigns.len();
        let settle_cones = partition_settle(&sim.assigns, n_nets);
        let step_effects = sim.step_effects();
        let step_cones = partition_step(&step_effects, n_nets, n_mems);
        let mut ev = EventState {
            settle_chains: chain_bounds(&sim.settle_chain_starts, sim.settle_tape.len()),
            step_chains: chain_bounds(&sim.step_chain_starts, sim.step_tape.len()),
            step_members_off: Vec::new(),
            step_members_flat: Vec::new(),
            settle_readers: Csr::from_lists(&[]),
            settle_writer: vec![u32::MAX; n_nets],
            settle_mem_readers: Csr::from_lists(&[]),
            step_readers: Csr::from_lists(&[]),
            step_writers: Csr::from_lists(&[]),
            step_mem_readers: Csr::from_lists(&[]),
            step_mem_writers: Csr::from_lists(&[]),
            settle_unit_cone: vec![0; n_assigns],
            settle_pending: full_bitset(n_assigns),
            step_pending: vec![ALL_LANES; step_cones.len()],
            step_dirty: full_bitset(step_cones.len()),
            track: sim.telemetry.is_some(),
            changed_nets: Vec::new(),
            changed_flag: vec![false; n_nets],
            store_changed: Vec::new(),
            settle_busy: vec![false; settle_cones.len()],
            step_busy: vec![false; step_cones.len()],
            settle_ran: vec![false; n_assigns],
            settle_cache: vec![Counts::default(); n_assigns],
            settle_stale: vec![true; n_assigns],
            step_cache: vec![Counts::default(); step_cones.len()],
            step_stale: vec![true; step_cones.len()],
            stat_settle_runs: 0,
            stat_step_runs: 0,
            stat_settle_insns: 0,
            stat_step_insns: 0,
            sched: sim
                .sched
                .as_ref()
                .map(|_| EvSchedStats::new(n_assigns, step_cones.len())),
        };
        let mut settle_readers = vec![Vec::new(); n_nets];
        let mut settle_mem_readers = vec![Vec::new(); n_mems];
        let mut step_readers = vec![Vec::new(); n_nets];
        let mut step_writers: Vec<Vec<u32>> = vec![Vec::new(); n_nets];
        let mut step_mem_readers = vec![Vec::new(); n_mems];
        let mut step_mem_writers: Vec<Vec<u32>> = vec![Vec::new(); n_mems];
        for (i, (net, e)) in sim.assigns.iter().enumerate() {
            let mut deps = Vec::new();
            collect_deps(e, &mut deps);
            for d in id_set(deps) {
                settle_readers[d as usize].push(i as u32);
            }
            let mut mems = Vec::new();
            collect_mem_reads(e, &mut mems);
            for m in id_set(mems) {
                settle_mem_readers[m as usize].push(i as u32);
            }
            ev.settle_writer[*net] = i as u32;
        }
        for (c, cone) in settle_cones.iter().enumerate() {
            for &a in &cone.members {
                ev.settle_unit_cone[a as usize] = c as u32;
            }
        }
        for (c, cone) in step_cones.iter().enumerate() {
            for &net in &cone.inputs {
                step_readers[net as usize].push(c as u32);
            }
            for &m in &cone.mem_inputs {
                step_mem_readers[m as usize].push(c as u32);
            }
            for &i in &cone.members {
                let fx = &step_effects[i as usize];
                for &w in &fx.writes {
                    if step_writers[w as usize].last() != Some(&(c as u32)) {
                        step_writers[w as usize].push(c as u32);
                    }
                }
                for &m in &fx.mwrites {
                    if step_mem_writers[m as usize].last() != Some(&(c as u32)) {
                        step_mem_writers[m as usize].push(c as u32);
                    }
                }
            }
        }
        ev.step_members_off.push(0);
        for cone in &step_cones {
            ev.step_members_flat.extend_from_slice(&cone.members);
            ev.step_members_off.push(ev.step_members_flat.len() as u32);
        }
        ev.settle_readers = Csr::from_lists(&settle_readers);
        ev.settle_mem_readers = Csr::from_lists(&settle_mem_readers);
        ev.step_readers = Csr::from_lists(&step_readers);
        ev.step_writers = Csr::from_lists(&step_writers);
        ev.step_mem_readers = Csr::from_lists(&step_mem_readers);
        ev.step_mem_writers = Csr::from_lists(&step_mem_writers);
        Box::new(ev)
    }

    /// A net's settled value changed (settle store, edge update): wake
    /// every cone that reads it. `lane_mask` limits which batched lanes
    /// re-evaluate.
    fn note_net_change(&mut self, net: usize, lane_mask: u64) {
        if self.track && !self.changed_flag[net] {
            self.changed_flag[net] = true;
            self.changed_nets.push(net as u32);
        }
        let (a, b) = (
            self.settle_readers.off[net] as usize,
            self.settle_readers.off[net + 1] as usize,
        );
        for i in a..b {
            let c = self.settle_readers.flat[i];
            self.wake_settle(c);
        }
        let (a, b) = (
            self.step_readers.off[net] as usize,
            self.step_readers.off[net + 1] as usize,
        );
        for i in a..b {
            let c = self.step_readers.flat[i];
            self.wake_step(c, lane_mask);
        }
        if let Some(sc) = self.sched.as_deref_mut() {
            let (s0, s1) = (
                self.settle_readers.off[net] as usize,
                self.settle_readers.off[net + 1] as usize,
            );
            let (t0, t1) = (
                self.step_readers.off[net] as usize,
                self.step_readers.off[net + 1] as usize,
            );
            sc.net_wake_walk.record((s1 - s0 + t1 - t0) as u64);
            for i in s0..s1 {
                sc.settle_unit_wakes[self.settle_readers.flat[i] as usize] += 1;
            }
            for i in t0..t1 {
                sc.step_cone_wakes[self.step_readers.flat[i] as usize] += 1;
            }
        }
    }

    /// Wake the readers of every net in `nets` (changed in every lane) and
    /// empty it.
    fn note_changed_nets(&mut self, nets: &mut Vec<u32>) {
        for &net in nets.iter() {
            self.note_net_change(net as usize, ALL_LANES);
        }
        nets.clear();
    }

    /// A net was driven externally (`set`/`set_id`): additionally wake its
    /// producers, which the full-tape engines would rerun to overwrite it.
    fn note_net_poked(&mut self, net: usize, lane_mask: u64) {
        self.note_net_change(net, lane_mask);
        let w = self.settle_writer[net];
        if w != u32::MAX {
            self.wake_settle(w);
        }
        let (a, b) = (
            self.step_writers.off[net] as usize,
            self.step_writers.off[net + 1] as usize,
        );
        for i in a..b {
            let c = self.step_writers.flat[i];
            self.wake_step(c, lane_mask);
        }
        if let Some(sc) = self.sched.as_deref_mut() {
            let extra = u64::from(self.settle_writer[net] != u32::MAX) + (b - a) as u64;
            sc.net_wake_walk.record(extra);
        }
    }

    /// A memory word changed at the clock edge: wake readers.
    fn note_mem_change(&mut self, mem: usize, lane_mask: u64) {
        let (a, b) = (
            self.settle_mem_readers.off[mem] as usize,
            self.settle_mem_readers.off[mem + 1] as usize,
        );
        for i in a..b {
            let c = self.settle_mem_readers.flat[i];
            self.wake_settle(c);
        }
        let (a, b) = (
            self.step_mem_readers.off[mem] as usize,
            self.step_mem_readers.off[mem + 1] as usize,
        );
        for i in a..b {
            let c = self.step_mem_readers.flat[i];
            self.wake_step(c, lane_mask);
        }
        if let Some(sc) = self.sched.as_deref_mut() {
            let (s0, s1) = (
                self.settle_mem_readers.off[mem] as usize,
                self.settle_mem_readers.off[mem + 1] as usize,
            );
            let (t0, t1) = (
                self.step_mem_readers.off[mem] as usize,
                self.step_mem_readers.off[mem + 1] as usize,
            );
            sc.mem_wake_walk.record((s1 - s0 + t1 - t0) as u64);
            for i in s0..s1 {
                sc.settle_unit_wakes[self.settle_mem_readers.flat[i] as usize] += 1;
            }
            for i in t0..t1 {
                sc.step_cone_wakes[self.step_mem_readers.flat[i] as usize] += 1;
            }
        }
    }

    /// A memory word was written externally (`write_mem`): wake readers
    /// and writers.
    fn note_mem_poked(&mut self, mem: usize, lane_mask: u64) {
        self.note_mem_change(mem, lane_mask);
        let (a, b) = (
            self.step_mem_writers.off[mem] as usize,
            self.step_mem_writers.off[mem + 1] as usize,
        );
        for i in a..b {
            let c = self.step_mem_writers.flat[i];
            self.wake_step(c, lane_mask);
        }
        if let Some(sc) = self.sched.as_deref_mut() {
            sc.mem_wake_walk.record((b - a) as u64);
        }
    }

    #[inline]
    fn wake_settle(&mut self, c: u32) {
        self.settle_pending[(c >> 6) as usize] |= 1u64 << (c & 63);
    }

    #[inline]
    fn wake_step(&mut self, c: u32, lane_mask: u64) {
        self.step_pending[c as usize] |= lane_mask;
        self.step_dirty[(c >> 6) as usize] |= 1u64 << (c & 63);
    }

    /// Force a full re-evaluation (engine switch, lane rebuild).
    fn mark_all_pending(&mut self) {
        let n = self.settle_chains.len();
        self.settle_pending.copy_from_slice(&full_bitset(n));
        for p in &mut self.step_pending {
            *p = ALL_LANES;
        }
        let n = self.step_members_off.len() - 1;
        self.step_dirty.copy_from_slice(&full_bitset(n));
    }
}

// ----------------------------------------------- batched stimulus lanes

/// Per-lane state for [`Engine::Batched`]: N independent 2-state stimulus
/// lanes evaluated in one pass over the cone tapes. Storage is lane-major
/// (`slot = index * lanes + lane`) so each instruction's inner lane loop
/// is one contiguous sweep the compiler auto-vectorizes — logic ops
/// evaluate bit-parallel across lanes in SIMD words, while step-tape
/// control flow runs per lane under the cone's dirty-lane divergence mask.
/// Lane 0 mirrors the scalar `values`/`memories` arrays exactly, so VCD,
/// telemetry, and the scalar accessors observe a bit-identical scalar run.
struct BatchState {
    lanes: usize,
    /// Lane-major net values (`net * lanes + lane`).
    values: Vec<u64>,
    /// Lane-major registers (`reg * lanes + lane`).
    regs: Vec<u64>,
    /// Lane-major memory words (`addr * lanes + lane`).
    mems: Vec<Vec<u64>>,
    /// This step's non-blocking updates, one row per step-tape emission in
    /// execution order (each lane's rows therefore keep that lane's own
    /// order). A net row owns the next `lanes` words of `pend_vals`, one
    /// value per lane; a memory row owns the next `2 * lanes`, addresses
    /// then values. Words of lanes outside a row's mask are ignored.
    pend_rows: Vec<PendRow>,
    pend_vals: Vec<u64>,
    /// First assertion failure per lane this step.
    failures: Vec<Option<String>>,
    /// Scratch worklist of `(pc, lane-mask)` segments for the SIMT step
    /// interpreter (empty between steps).
    work: Vec<(u32, u64)>,
    /// Scratch: `(net, changed-lane-mask)` pairs from a settle range.
    changed: Vec<(u32, u64)>,
    /// Commit scratch: per-net changed-lane mask plus the list of nets
    /// touched this cycle, so each changed net wakes its readers with
    /// one combined mask instead of one walk per lane (zeroed between
    /// cycles).
    note_net_mask: Vec<u64>,
    note_nets: Vec<u32>,
    note_mem_mask: Vec<u64>,
    note_mems: Vec<u32>,
}

/// One step-tape emission of the batched engine: the target and the lanes
/// that emitted it (see [`BatchState::pend_rows`]).
#[derive(Clone, Copy)]
enum PendRow {
    Net { net: u32, lanes: u64 },
    Mem { mem: u32, lanes: u64 },
}

impl BatchState {
    fn build(sim: &Simulator, lanes: usize) -> Box<BatchState> {
        let rep = |xs: &[u64]| -> Vec<u64> {
            let mut out = Vec::with_capacity(xs.len() * lanes);
            for &x in xs {
                out.extend(std::iter::repeat_n(x, lanes));
            }
            out
        };
        Box::new(BatchState {
            lanes,
            values: rep(&sim.values),
            regs: rep(&sim.regs),
            mems: sim.memories.iter().map(|m| rep(m)).collect(),
            pend_rows: Vec::new(),
            pend_vals: Vec::new(),
            failures: vec![None; lanes],
            work: Vec::new(),
            changed: Vec::new(),
            note_net_mask: vec![0; sim.values.len()],
            note_nets: Vec::new(),
            note_mem_mask: vec![0; sim.memories.len()],
            note_mems: Vec::new(),
        })
    }
}

/// Dense-lane binary op: the operator match is hoisted out of the lane
/// loop so each arm is a flat, auto-vectorizable sweep over the
/// lane-major rows. Semantics are exactly [`eval_binary`] per lane.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn binary_lanes_dense(
    op: BinOp,
    regs: &mut [u64],
    d: usize,
    ra: usize,
    rb: usize,
    l: usize,
    aw: u32,
    bw: u32,
    m: u64,
) {
    macro_rules! lane_op {
        (|$a:ident, $b:ident| $e:expr) => {{
            assert!(d + l <= regs.len() && ra + l <= regs.len() && rb + l <= regs.len());
            for k in 0..l {
                let $a = regs[ra + k];
                let $b = regs[rb + k];
                regs[d + k] = ($e) & m;
            }
        }};
    }
    match op {
        BinOp::Add => lane_op!(|a, b| a.wrapping_add(b)),
        BinOp::Sub => lane_op!(|a, b| a.wrapping_sub(b)),
        BinOp::Mul => lane_op!(|a, b| a.wrapping_mul(b)),
        BinOp::And => lane_op!(|a, b| a & b),
        BinOp::Or => lane_op!(|a, b| a | b),
        BinOp::Xor => lane_op!(|a, b| a ^ b),
        BinOp::Shl => lane_op!(|a, b| if b >= 64 { 0 } else { a.wrapping_shl(b as u32) }),
        BinOp::LShr => lane_op!(|a, b| if b >= 64 { 0 } else { a.wrapping_shr(b as u32) }),
        BinOp::AShr => lane_op!(|a, b| (sign_extend(a, aw) >> b.min(127) as i32) as u64),
        BinOp::Eq => lane_op!(|a, b| u64::from(a == b)),
        BinOp::Ne => lane_op!(|a, b| u64::from(a != b)),
        BinOp::SLt => lane_op!(|a, b| u64::from(sign_extend(a, aw) < sign_extend(b, bw))),
        BinOp::SLe => lane_op!(|a, b| u64::from(sign_extend(a, aw) <= sign_extend(b, bw))),
        BinOp::SGt => lane_op!(|a, b| u64::from(sign_extend(a, aw) > sign_extend(b, bw))),
        BinOp::SGe => lane_op!(|a, b| u64::from(sign_extend(a, aw) >= sign_extend(b, bw))),
        BinOp::ULt => lane_op!(|a, b| u64::from(a < b)),
        BinOp::ULe => lane_op!(|a, b| u64::from(a <= b)),
    }
}

/// Iterate the active lanes of `mask`: a dense loop when every lane is
/// active (the auto-vectorizable common case) and a set-bit walk otherwise.
#[inline(always)]
fn for_lanes(mask: u64, lanes: usize, full: u64, mut f: impl FnMut(usize)) {
    if mask == full {
        for k in 0..lanes {
            f(k);
        }
    } else {
        let mut m = mask;
        while m != 0 {
            let k = m.trailing_zeros() as usize;
            m &= m - 1;
            f(k);
        }
    }
}

/// The lane interpreter: executes tape pcs `pcs` for every lane in `mask0`
/// at once over the lane-major state of `b`. Control flow is SIMT-style —
/// when a `JumpIfZero` condition differs across active lanes, the taken
/// subset is parked on the `work` list and the fall-through subset
/// continues; each lane still traverses its own path in tape order, so
/// per-lane emission order and first-failure semantics match the scalar
/// interpreter exactly. Stores compare per lane and report
/// `(net, changed-lane-mask)` pairs in `b.changed`.
///
/// `SETTLE` fixes the instruction set at compile time: a settle range
/// holds pure ops and `StoreNet` and runs every lane; a step range holds
/// everything else under `mask0`. Each instantiation carries only its own
/// arms, so neither pays for the other's: carrying both cost 5–7% of
/// batched GEMM N=16 throughput on a 2-vCPU x86-64 machine.
#[inline(always)]
fn exec_lanes<const L: usize, const SETTLE: bool>(
    tape: &[Insn],
    pcs: Range<usize>,
    mask0: u64,
    b: &mut BatchState,
    msgs: &[String],
) {
    let l = if L == 0 { b.lanes } else { L };
    let full = lane_mask(l);
    let (regs, values, mems) = (&mut b.regs[..], &mut b.values[..], &b.mems[..]);
    let (pend_rows, pend_vals, failures) = (&mut b.pend_rows, &mut b.pend_vals, &mut b.failures);
    let (work, changed) = (&mut b.work, &mut b.changed);
    debug_assert!(work.is_empty());
    let mut mask = if SETTLE { full } else { mask0 & full };
    if mask == 0 {
        return;
    }
    // Cut at the range end so the loop bound also bounds `tape[pc]`. The
    // active mask never empties inside: a divergent branch parks a
    // non-empty taken subset and keeps a non-empty fall-through subset.
    let tape = &tape[..pcs.end];
    let mut pc = pcs.start;
    loop {
        if pc >= tape.len() {
            match if SETTLE { None } else { work.pop() } {
                Some((p, m)) => {
                    pc = p as usize;
                    mask = m;
                    continue;
                }
                None => break,
            }
        }
        match tape[pc] {
            Insn::LoadNet { dst, net } => {
                let (d, n) = (dst as usize * l, net as usize * l);
                if mask == full {
                    // A memcpy: unlike the lane loop, it needs no overlap
                    // check between the two state arrays.
                    regs[d..d + l].copy_from_slice(&values[n..n + l]);
                } else {
                    assert!(d + l <= regs.len() && n + l <= values.len());
                    for_lanes(mask, l, full, |k| regs[d + k] = values[n + k]);
                }
            }
            Insn::MemRead { dst, mem, addr, m } => {
                let (d, a) = (dst as usize * l, addr as usize * l);
                let mm = &mems[mem as usize];
                let depth = mm.len() / l;
                assert!(d + l <= regs.len() && a + l <= regs.len());
                for_lanes(mask, l, full, |k| {
                    let idx = regs[a + k] as usize;
                    regs[d + k] = if idx < depth { mm[idx * l + k] & m } else { 0 };
                });
            }
            Insn::Slice { dst, src, lo, m } => {
                let (d, sr) = (dst as usize * l, src as usize * l);
                assert!(d + l <= regs.len() && sr + l <= regs.len());
                for_lanes(mask, l, full, |k| regs[d + k] = (regs[sr + k] >> lo) & m);
            }
            Insn::Not { dst, src, m } => {
                let (d, sr) = (dst as usize * l, src as usize * l);
                assert!(d + l <= regs.len() && sr + l <= regs.len());
                for_lanes(mask, l, full, |k| regs[d + k] = !regs[sr + k] & m);
            }
            Insn::LNot { dst, src } => {
                let (d, sr) = (dst as usize * l, src as usize * l);
                assert!(d + l <= regs.len() && sr + l <= regs.len());
                for_lanes(mask, l, full, |k| {
                    regs[d + k] = u64::from(regs[sr + k] == 0);
                });
            }
            Insn::RedOr { dst, src } => {
                let (d, sr) = (dst as usize * l, src as usize * l);
                assert!(d + l <= regs.len() && sr + l <= regs.len());
                for_lanes(mask, l, full, |k| {
                    regs[d + k] = u64::from(regs[sr + k] != 0);
                });
            }
            Insn::Binary {
                op,
                dst,
                a,
                b,
                aw,
                bw,
                m,
            } => {
                let (d, ra, rb) = (dst as usize * l, a as usize * l, b as usize * l);
                if mask == full {
                    binary_lanes_dense(op, regs, d, ra, rb, l, aw, bw, m);
                } else {
                    let mut mm = mask;
                    while mm != 0 {
                        let k = mm.trailing_zeros() as usize;
                        mm &= mm - 1;
                        regs[d + k] = eval_binary(op, regs[ra + k], regs[rb + k], aw, bw) & m;
                    }
                }
            }
            Insn::Select {
                dst,
                cond,
                then,
                els,
                m,
            } => {
                let (d, c, t, e) = (
                    dst as usize * l,
                    cond as usize * l,
                    then as usize * l,
                    els as usize * l,
                );
                assert!(
                    d + l <= regs.len()
                        && c + l <= regs.len()
                        && t + l <= regs.len()
                        && e + l <= regs.len()
                );
                for_lanes(mask, l, full, |k| {
                    let v = if regs[c + k] != 0 {
                        regs[t + k]
                    } else {
                        regs[e + k]
                    };
                    regs[d + k] = v & m;
                });
            }
            Insn::ConcatFirst { dst, src, m } => {
                let (d, sr) = (dst as usize * l, src as usize * l);
                assert!(d + l <= regs.len() && sr + l <= regs.len());
                for_lanes(mask, l, full, |k| regs[d + k] = regs[sr + k] & m);
            }
            Insn::ConcatPush { dst, src, shift, m } => {
                let (d, sr) = (dst as usize * l, src as usize * l);
                assert!(d + l <= regs.len() && sr + l <= regs.len());
                for_lanes(mask, l, full, |k| {
                    regs[d + k] = (regs[d + k] << shift) | (regs[sr + k] & m);
                });
            }
            Insn::MaskReg { dst, m } => {
                let d = dst as usize * l;
                assert!(d + l <= regs.len());
                for_lanes(mask, l, full, |k| regs[d + k] &= m);
            }
            Insn::SignExtend {
                dst,
                src,
                from,
                fm,
                m,
            } => {
                let (d, sr) = (dst as usize * l, src as usize * l);
                assert!(d + l <= regs.len() && sr + l <= regs.len());
                for_lanes(mask, l, full, |k| {
                    regs[d + k] = (sign_extend(regs[sr + k] & fm, from) as u64) & m;
                });
            }
            Insn::StoreNet { net, src, m } if SETTLE => {
                let (n, sr) = (net as usize * l, src as usize * l);
                assert!(n + l <= values.len() && sr + l <= regs.len());
                let mut lanes_changed = 0u64;
                for_lanes(mask, l, full, |k| {
                    let v = regs[sr + k] & m;
                    if values[n + k] != v {
                        values[n + k] = v;
                        lanes_changed |= 1u64 << k;
                    }
                });
                if lanes_changed != 0 {
                    changed.push((net, lanes_changed));
                }
            }
            Insn::EmitNet { net, src } if !SETTLE => {
                let sr = src as usize * l;
                pend_rows.push(PendRow::Net { net, lanes: mask });
                pend_vals.extend_from_slice(&regs[sr..sr + l]);
            }
            Insn::EmitMem { mem, addr, src } if !SETTLE => {
                let (a, sr) = (addr as usize * l, src as usize * l);
                pend_rows.push(PendRow::Mem { mem, lanes: mask });
                pend_vals.extend_from_slice(&regs[a..a + l]);
                pend_vals.extend_from_slice(&regs[sr..sr + l]);
            }
            Insn::Assert { guard, cond, msg } if !SETTLE => {
                let (g, c) = (guard as usize * l, cond as usize * l);
                let mut m = mask;
                while m != 0 {
                    let k = m.trailing_zeros() as usize;
                    m &= m - 1;
                    if regs[g + k] != 0 && regs[c + k] == 0 && failures[k].is_none() {
                        failures[k] = Some(msgs[msg as usize].clone());
                    }
                }
            }
            Insn::Jump { target } if !SETTLE => {
                pc = target as usize;
                continue;
            }
            Insn::JumpIfZero { src, target } if !SETTLE => {
                let sr = src as usize * l;
                assert!(sr + l <= regs.len());
                let mut taken = 0u64;
                for_lanes(mask, l, full, |k| {
                    taken |= u64::from(regs[sr + k] == 0) << k;
                });
                if taken == mask {
                    pc = target as usize;
                    continue;
                }
                if taken != 0 {
                    work.push((target, taken));
                    mask &= !taken;
                }
            }
            _ => debug_assert!(false, "instruction outside the tape's set"),
        }
        pc += 1;
    }
}

/// [`exec_lanes`] compiled with AVX2 enabled: the dense lane loops
/// auto-vectorize to 256-bit ops. Safety: caller checked the CPU feature
/// at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn exec_lanes_avx2<const L: usize, const SETTLE: bool>(
    tape: &[Insn],
    pcs: Range<usize>,
    mask: u64,
    b: &mut BatchState,
    msgs: &[String],
) {
    exec_lanes::<L, SETTLE>(tape, pcs, mask, b, msgs)
}

/// Runtime-dispatching front end for the lane interpreter. Dispatches on
/// the CPU's vector features and specializes the common lane counts so
/// the per-lane loops get compile-time trip counts.
fn run_lanes<const SETTLE: bool>(
    tape: &[Insn],
    pcs: Range<usize>,
    mask: u64,
    b: &mut BatchState,
    msgs: &[String],
) {
    macro_rules! go {
        ($l:literal) => {{
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: feature checked above.
                unsafe {
                    return exec_lanes_avx2::<$l, SETTLE>(tape, pcs, mask, b, msgs);
                }
            }
            exec_lanes::<$l, SETTLE>(tape, pcs, mask, b, msgs)
        }};
    }
    match b.lanes {
        64 => go!(64),
        32 => go!(32),
        16 => go!(16),
        8 => go!(8),
        _ => go!(0),
    }
}

// ------------------------------------------------------------- telemetry

/// Opt-in runtime telemetry state. Lives behind an `Option<Box<_>>` on the
/// simulator so the disabled path costs one pointer check per phase. The
/// instruction counts come from the [`Count`] observer on the engine's own
/// interpreter calls; the tapes are never copied or modified.
struct Telemetry {
    /// Settled values at the previous accounting point (end of each step).
    prev: Vec<u64>,
    /// Per-net: cycles in which the net's value changed.
    toggle_cycles: Vec<u64>,
    /// Per-net: total bit flips across all cycles.
    bit_toggles: Vec<u64>,
    /// Per-net: cycles in which the net was non-zero. Maintained lazily:
    /// exact only through the accounting point recorded in `high_since`;
    /// the still-open run of unchanged cycles is credited at report time.
    high_cycles: Vec<u64>,
    /// Per-net: accounting point (1-based `cycles` value) up to which
    /// `high_cycles` has been credited; `prev` has held its value since.
    high_since: Vec<u64>,
    /// Accounting points seen (== steps since telemetry was enabled).
    cycles: u64,
    settle_cones: Vec<Cone>,
    step_cones: Vec<Cone>,
    /// Memories written during the current cycle (cleared each accounting).
    mems_written: Vec<bool>,
    /// Instruction totals over the settle and step tapes: what the
    /// full-tape bytecode engine executes, under every engine.
    settle: Counts,
    step: Counts,
    masks: Masks,
    /// Shadow scalar state for the engines that do not run the scalar
    /// tapes (tree-walk, batched): the tapes run here for their counts
    /// while the engine drives the real state, so every engine reports
    /// identical numbers.
    shadow_regs: Vec<u64>,
    shadow_values: Vec<u64>,
    shadow_nets: Vec<(u32, u64)>,
    shadow_mems: Vec<(u32, u64, u64)>,
    record_trace: bool,
}

impl Telemetry {
    /// Count one full run of `tape` on the shadow state, starting from the
    /// live `values`.
    fn shadow_count(
        &mut self,
        tape: &[Insn],
        values: &[u64],
        memories: &[Vec<u64>],
        msgs: &[String],
    ) -> Counts {
        self.shadow_values.copy_from_slice(values);
        self.shadow_nets.clear();
        self.shadow_mems.clear();
        let mut failure = None;
        let mut st = Scalar {
            regs: &mut self.shadow_regs,
            values: &mut self.shadow_values,
            memories,
            msgs,
            pend_nets: &mut self.shadow_nets,
            pend_mems: &mut self.shadow_mems,
            failure: &mut failure,
        };
        let mut count = Count::new(Plain, &self.masks);
        exec(tape, 0..tape.len(), &mut st, &mut count);
        count.n
    }
}

/// Simulator-level share of the sched-stats plane: per-cycle dirty-set
/// occupancy and commit-phase compare outcomes (both engine-independent
/// observation points). The event-engine distributions live in
/// [`EvSchedStats`] because the wake methods run on a detached
/// `EventState`.
struct SchedStats {
    /// Steps observed since the plane was enabled.
    cycles: u64,
    /// Step-cone dirty-set occupancy, sampled once per step before
    /// dispatch (full-tape engines sample the trivially-full count).
    dirty_cones: obs::Histogram,
    /// The same occupancy as a per-cycle series, for `--sim-trace` counter
    /// tracks (4 bytes/cycle).
    dirty_series: Vec<u32>,
    /// Non-blocking commit outcomes: every pending update is compared
    /// against the live state; only actual changes wake readers. A high
    /// compare-to-change ratio is scheduling overhead (spurious wakes).
    commit_net_compares: u64,
    commit_net_changes: u64,
    commit_mem_compares: u64,
    commit_mem_changes: u64,
    /// Full-tape settles observed (bytecode/tree-walk engines only).
    full_settles: u64,
    /// Step-cone count, cached for the trivially-full occupancy sample.
    n_step_cones: usize,
}

/// Wake attribution for one telemetry cone in a [`SchedStatsReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchedConeWakes {
    /// Cone name (same partition as [`ConeTelemetry`], so callers can join
    /// wake counts with quiescence/utilization).
    pub cone: String,
    /// Assigns (settle) or always-statements (step) in the cone.
    pub units: u64,
    /// Wake deliveries to the cone's scheduler units (event engines) or
    /// unconditional activations (full-tape engines).
    pub wakes: u64,
}

/// Everything the scheduler-statistics plane measured. All counts are
/// deterministic functions of the stimulus — serialization is
/// byte-identical across runs and thread counts.
#[derive(Clone, Debug, PartialEq)]
pub struct SchedStatsReport {
    /// Engine the stats were collected under (`"bytecode"`, `"treewalk"`,
    /// `"event"`, `"batched"`).
    pub engine: String,
    /// Steps observed since the plane was enabled.
    pub cycles: u64,
    /// Settle scheduler units (assigns) in the design.
    pub settle_units: u64,
    /// Step cones in the design.
    pub step_cone_count: u64,
    /// Settle unit executions (full-tape: units × settles).
    pub settle_runs: u64,
    /// Step cone activations (full-tape: cones × cycles).
    pub step_runs: u64,
    /// Tape instructions dispatched by settle runs.
    pub settle_insns: u64,
    /// Tape instructions dispatched by step runs.
    pub step_insns: u64,
    /// Per-cycle step-cone dirty-set occupancy.
    pub dirty_cones: obs::Histogram,
    /// Reader-list entries walked per net wake.
    pub net_wake_walk: obs::Histogram,
    /// Reader-list entries walked per memory wake.
    pub mem_wake_walk: obs::Histogram,
    /// Units per coalesced settle dispatch.
    pub settle_run_len: obs::Histogram,
    /// Back-to-back chains merged per step-tape interpreter call.
    pub step_run_len: obs::Histogram,
    pub commit_net_compares: u64,
    pub commit_net_changes: u64,
    pub commit_mem_compares: u64,
    pub commit_mem_changes: u64,
    /// Per-cone wake attribution, same partition as the telemetry report.
    pub settle_cones: Vec<SchedConeWakes>,
    pub step_cones: Vec<SchedConeWakes>,
}

impl SchedStatsReport {
    /// Fraction of commit compares that did **not** change the committed
    /// value: pure scheduling overhead (the wake that produced the update
    /// was spurious). 0.0 when nothing was committed.
    pub fn spurious_wake_rate(&self) -> f64 {
        let compares = self.commit_net_compares + self.commit_mem_compares;
        if compares == 0 {
            return 0.0;
        }
        let changes = self.commit_net_changes + self.commit_mem_changes;
        (compares - changes) as f64 / compares as f64
    }

    /// Deterministic cycle-share breakdown of where the engine's time goes,
    /// in fixed per-event cost units: one unit ≈ one dispatched tape
    /// instruction ≈ one reader-list entry walked ≈ one commit compare
    /// (each ~2 ns on the ROADMAP reference machine — this is the model
    /// behind the 16×-instruction-skip vs 5×-wall-clock gap). Returns
    /// `(label, cost units, share)` rows; shares sum to 1. Computed purely
    /// from event counts, never wall clock, so the breakdown is
    /// byte-identical across runs.
    pub fn cycle_share(&self) -> [(&'static str, u64, f64); 3] {
        let interp = self.settle_insns + self.step_insns;
        let walks = self.net_wake_walk.sum() + self.mem_wake_walk.sum();
        let commits = self.commit_net_compares + self.commit_mem_compares;
        let total = (interp + walks + commits).max(1);
        let f = |x: u64| x as f64 / total as f64;
        [
            ("interpreter", interp, f(interp)),
            ("wake_walks", walks, f(walks)),
            ("commit_compares", commits, f(commits)),
        ]
    }

    /// Human-readable multi-line summary for `--sched-stats` without a
    /// file argument.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "scheduler stats: engine={} cycles={}\n",
            self.engine, self.cycles
        ));
        out.push_str(&format!(
            "  settle: {} units, {} runs, {} insns (run-len mean {} max {})\n",
            self.settle_units,
            self.settle_runs,
            self.settle_insns,
            self.settle_run_len.mean(),
            self.settle_run_len.max()
        ));
        out.push_str(&format!(
            "  step:   {} cones, {} runs, {} insns (merged chains/call mean {} max {})\n",
            self.step_cone_count,
            self.step_runs,
            self.step_insns,
            self.step_run_len.mean(),
            self.step_run_len.max()
        ));
        out.push_str(&format!(
            "  dirty cones/cycle: mean {} max {} (of {})\n",
            self.dirty_cones.mean(),
            self.dirty_cones.max(),
            self.step_cone_count
        ));
        out.push_str(&format!(
            "  wake walks: {} net wakes ({} entries), {} mem wakes ({} entries)\n",
            self.net_wake_walk.count(),
            self.net_wake_walk.sum(),
            self.mem_wake_walk.count(),
            self.mem_wake_walk.sum()
        ));
        out.push_str(&format!(
            "  commits: {} compares, {} changes (spurious wake rate {:.1}%)\n",
            self.commit_net_compares + self.commit_mem_compares,
            self.commit_net_changes + self.commit_mem_changes,
            self.spurious_wake_rate() * 100.0
        ));
        let share = self.cycle_share();
        out.push_str(&format!(
            "  cycle share (2ns/event model): interpreter {:.1}% | wake walks {:.1}% | commit compares {:.1}%\n",
            share[0].2 * 100.0,
            share[1].2 * 100.0,
            share[2].2 * 100.0
        ));
        let mut top: Vec<&SchedConeWakes> = self
            .settle_cones
            .iter()
            .chain(self.step_cones.iter())
            .collect();
        top.sort_by(|a, b| b.wakes.cmp(&a.wakes).then(a.cone.cmp(&b.cone)));
        for c in top.iter().take(4).filter(|c| c.wakes > 0) {
            out.push_str(&format!("  wakes: {:>8}  {}\n", c.wakes, c.cone));
        }
        out
    }
}

/// Strict single-line JSON (newline-terminated as a report file),
/// parseable by `obs::json` / `jsonv`. Byte-identical across runs and
/// `--threads`.
impl Json for SchedStatsReport {
    fn write_json(&self, w: &mut Writer) {
        json_object!(w, {
            "engine": self.engine, "cycles": self.cycles,
            "settle_units": self.settle_units, "step_cones": self.step_cone_count,
            "interp": {
                "settle_runs": self.settle_runs, "step_runs": self.step_runs,
                "settle_insns": self.settle_insns, "step_insns": self.step_insns,
            },
            "dirty_cones": self.dirty_cones,
            "net_wake_walk": self.net_wake_walk, "mem_wake_walk": self.mem_wake_walk,
            "settle_run_len": self.settle_run_len, "step_run_len": self.step_run_len,
            "commit": {
                "net_compares": self.commit_net_compares, "net_changes": self.commit_net_changes,
                "mem_compares": self.commit_mem_compares, "mem_changes": self.commit_mem_changes,
                "spurious_wake_rate": Fixed::<6>(self.spurious_wake_rate()),
            },
            "cycle_share": {for (label, units, share) in self.cycle_share() => label: {
                "cost_units": units, "share": Fixed::<6>(share),
            }},
            "wakes": {"settle": self.settle_cones, "step": self.step_cones},
        });
    }
}

impl Json for SchedConeWakes {
    fn write_json(&self, w: &mut Writer) {
        json_object!(w, {"cone": self.cone, "units": self.units, "wakes": self.wakes});
    }
}

/// One static fanin cone: a connected group of settle assigns (or step
/// statements) together with the external inputs whose stability implies
/// the whole group would recompute to its previous result. Cones carry no
/// names: only the report paths build them
/// ([`Simulator::settle_cone_names`], [`Simulator::step_cone_names`]).
struct Cone {
    /// Assign indices (settle) or always-statement indices (step) grouped
    /// into this cone, in tape order. The event scheduler executes exactly
    /// these chains when the cone is activated.
    members: Vec<u32>,
    /// Net ids read by the cone (for settle cones: minus its own outputs).
    inputs: Vec<u32>,
    /// Memory ids whose contents the cone reads.
    mem_inputs: Vec<u32>,
    quiescent_cycles: u64,
    /// Open busy interval start (0-based cycle), when trace recording.
    busy_since: Option<u64>,
    /// Closed busy intervals, half-open `[start, end)` in cycles.
    busy_intervals: Vec<(u64, u64)>,
}

impl Cone {
    fn new(members: Vec<usize>, inputs: Vec<u32>, mem_inputs: Vec<u32>) -> Cone {
        Cone {
            members: members.into_iter().map(|i| i as u32).collect(),
            inputs,
            mem_inputs,
            quiescent_cycles: 0,
            busy_since: None,
            busy_intervals: Vec::new(),
        }
    }

    /// Number of assigns / always-statements grouped into this cone.
    fn units(&self) -> u64 {
        self.members.len() as u64
    }
}

/// Per-net counters in a [`TelemetryReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetTelemetry {
    pub name: String,
    pub width: u32,
    /// Cycles in which the value changed.
    pub toggle_cycles: u64,
    /// Total bit flips.
    pub bit_toggles: u64,
    /// Cycles in which the value was non-zero.
    pub high_cycles: u64,
}

/// Per-cone quiescence statistics in a [`TelemetryReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConeTelemetry {
    pub name: String,
    /// Assigns (settle) or always-statements (step) in the cone.
    pub units: u64,
    /// Distinct external inputs (nets + memories).
    pub inputs: u64,
    /// Cycles in which every input was unchanged.
    pub quiescent_cycles: u64,
}

impl ConeTelemetry {
    /// Fraction of observed cycles this cone was quiescent.
    pub fn quiescent_fraction(&self, cycles: u64) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            self.quiescent_cycles as f64 / cycles as f64
        }
    }
}

/// Aggregate per-instruction counters for one bytecode tape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InsnTelemetry {
    /// Tape length in instructions.
    pub len: u64,
    /// Total instructions executed.
    pub executed: u64,
    /// Executions that produced a different value than the previous one at
    /// the same destination (register, net, pending slot, or memory word).
    pub changed: u64,
}

/// Measured activity of one scheduled resource unit, joined with the static
/// resource report via its representative net.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnitActivity {
    /// Unit label as reported by the resource estimator (e.g. `arith.mult`).
    pub unit: String,
    /// The net whose activity stands in for the unit.
    pub net: String,
    /// `"toggle"` (datapath: counted when the value changes) or `"high"`
    /// (control: counted when the net is non-zero).
    pub mode: String,
    /// Cycles the unit was active under its mode.
    pub active_cycles: u64,
}

/// Everything the telemetry plane measured, ready for serialization.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetryReport {
    /// Accounting points observed (steps since telemetry was enabled).
    pub cycles: u64,
    pub nets: Vec<NetTelemetry>,
    pub settle_cones: Vec<ConeTelemetry>,
    pub step_cones: Vec<ConeTelemetry>,
    pub settle_insns: InsnTelemetry,
    pub step_insns: InsnTelemetry,
    /// Filled by callers that hold a resource report (see
    /// `hir_codegen::testbench::Harness::telemetry_report`).
    pub units: Vec<UnitActivity>,
}

impl TelemetryReport {
    /// Fraction of nets (excluding the clock) that toggled at least once.
    pub fn toggle_coverage(&self) -> f64 {
        let eligible: Vec<&NetTelemetry> = self.nets.iter().filter(|n| n.name != "clk").collect();
        if eligible.is_empty() {
            return 1.0;
        }
        let toggled = eligible.iter().filter(|n| n.toggle_cycles > 0).count();
        toggled as f64 / eligible.len() as f64
    }

    /// Mean quiescent fraction across all cones (settle + step).
    pub fn overall_quiescence(&self) -> f64 {
        let cones = self.settle_cones.len() + self.step_cones.len();
        if cones == 0 || self.cycles == 0 {
            return 0.0;
        }
        let quiet: u64 = self
            .settle_cones
            .iter()
            .chain(self.step_cones.iter())
            .map(|c| c.quiescent_cycles)
            .sum();
        quiet as f64 / (cones as u64 * self.cycles) as f64
    }

    /// The least-quiescent cone: `(name, quiescent fraction)`.
    pub fn worst_cone(&self) -> Option<(&str, f64)> {
        self.settle_cones
            .iter()
            .chain(self.step_cones.iter())
            .map(|c| (c.name.as_str(), c.quiescent_fraction(self.cycles)))
            .min_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(b.0)))
    }

    /// Short human-readable summary (for `--sim-telemetry` without a file).
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "telemetry: {} cycles, toggle coverage {:.1}%, overall quiescence {:.1}%",
            self.cycles,
            self.toggle_coverage() * 100.0,
            self.overall_quiescence() * 100.0
        );
        if let Some((name, frac)) = self.worst_cone() {
            let _ = writeln!(s, "  busiest cone: {name} ({:.1}% quiescent)", frac * 100.0);
        }
        let _ = writeln!(
            s,
            "  settle tape: {} insns, {} executed, {} changed ({:.1}%)",
            self.settle_insns.len,
            self.settle_insns.executed,
            self.settle_insns.changed,
            pct(self.settle_insns.changed, self.settle_insns.executed)
        );
        let _ = writeln!(
            s,
            "  step tape:   {} insns, {} executed, {} changed ({:.1}%)",
            self.step_insns.len,
            self.step_insns.executed,
            self.step_insns.changed,
            pct(self.step_insns.changed, self.step_insns.executed)
        );
        for u in &self.units {
            let frac = if self.cycles == 0 {
                0.0
            } else {
                u.active_cycles as f64 / self.cycles as f64
            };
            let _ = writeln!(
                s,
                "  unit {:<16} {:>6.1}% active  ({} via {})",
                u.unit,
                frac * 100.0,
                u.mode,
                u.net
            );
        }
        s
    }
}

/// Strict JSON (newline-terminated as a report file), parseable by
/// `obs::json`.
impl Json for TelemetryReport {
    fn write_json(&self, w: &mut Writer) {
        json_object!(w, {
            "cycles": self.cycles, "toggle_coverage": Fixed::<6>(self.toggle_coverage()),
            "overall_quiescence": Fixed::<6>(self.overall_quiescence()),
            "settle_cones": [for c in &self.settle_cones => ConeRow(c, self.cycles)],
            "step_cones": [for c in &self.step_cones => ConeRow(c, self.cycles)],
            "settle_insns": self.settle_insns, "step_insns": self.step_insns,
            "units": [for u in &self.units => {
                "unit": u.unit, "net": u.net, "mode": u.mode, "active_cycles": u.active_cycles,
                "active_fraction": Fixed::<6>(ratio(u.active_cycles, self.cycles)),
            }],
            "nets": [for n in &self.nets => {
                "name": n.name, "width": n.width, "toggle_cycles": n.toggle_cycles,
                "bit_toggles": n.bit_toggles, "high_cycles": n.high_cycles,
            }],
        });
    }
}

/// A [`TelemetryReport`] cone with its quiescent fraction of the report's cycles.
struct ConeRow<'a>(&'a ConeTelemetry, u64);

impl Json for ConeRow<'_> {
    fn write_json(&self, w: &mut Writer) {
        let ConeRow(c, cycles) = *self;
        json_object!(w, {
            "name": c.name, "units": c.units, "inputs": c.inputs,
            "quiescent_cycles": c.quiescent_cycles,
            "quiescent_fraction": Fixed::<6>(c.quiescent_fraction(cycles)),
        });
    }
}

impl Json for InsnTelemetry {
    fn write_json(&self, w: &mut Writer) {
        json_object!(w, {"len": self.len, "executed": self.executed, "changed": self.changed});
    }
}

/// `part / whole`, or 0 when `whole` is 0.
fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    ratio(part, whole) * 100.0
}

struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, i: usize) -> usize {
        if self.parent[i] != i {
            let r = self.find(self.parent[i]);
            self.parent[i] = r;
        }
        self.parent[i]
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Lower root wins so group order follows first appearance.
            self.parent[ra.max(rb)] = ra.min(rb);
        }
    }

    /// Groups of member indices, ordered by each group's first member.
    fn groups(&mut self, n: usize) -> Vec<Vec<usize>> {
        let mut group_of_root = vec![usize::MAX; n];
        let mut out: Vec<Vec<usize>> = Vec::new();
        for i in 0..n {
            let r = self.find(i);
            if group_of_root[r] == usize::MAX {
                group_of_root[r] = out.len();
                out.push(Vec::new());
            }
            out[group_of_root[r]].push(i);
        }
        out
    }
}

/// Push every memory `e` reads (with repeats).
fn collect_mem_reads(e: &CExpr, out: &mut Vec<usize>) {
    match e {
        CExpr::Const { .. } | CExpr::Net { .. } => {}
        CExpr::MemRead { mem, addr, .. } => {
            out.push(*mem);
            collect_mem_reads(addr, out);
        }
        CExpr::Slice { base, .. } => collect_mem_reads(base, out),
        CExpr::Unary { arg, .. } => collect_mem_reads(arg, out),
        CExpr::Binary { lhs, rhs, .. } => {
            collect_mem_reads(lhs, out);
            collect_mem_reads(rhs, out);
        }
        CExpr::Ternary {
            cond, then, els, ..
        } => {
            collect_mem_reads(cond, out);
            collect_mem_reads(then, out);
            collect_mem_reads(els, out);
        }
        CExpr::Concat { parts, .. } => {
            for p in parts {
                collect_mem_reads(p, out);
            }
        }
        CExpr::SignExtend { arg, .. } => collect_mem_reads(arg, out),
    }
}

/// `ids` sorted and deduplicated, as `u32`.
fn id_set(ids: impl IntoIterator<Item = usize>) -> Vec<u32> {
    let mut v: Vec<u32> = ids.into_iter().map(|i| i as u32).collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// Partition the topo-ordered assigns into connected fanin cones: two
/// assigns share a cone when one reads the other's target. A cone's inputs
/// are the nets it reads but does not produce, plus every memory it reads;
/// if none of those changed over a cycle, re-running the cone would
/// reproduce its previous outputs.
fn partition_settle(assigns: &[(usize, CExpr)], n_nets: usize) -> Vec<Cone> {
    let n = assigns.len();
    let mut uf = UnionFind::new(n);
    let mut producer = vec![usize::MAX; n_nets];
    for (i, (net, _)) in assigns.iter().enumerate() {
        producer[*net] = i;
    }
    let mut deps_per: Vec<Vec<usize>> = Vec::with_capacity(n);
    for (i, (_, e)) in assigns.iter().enumerate() {
        let mut deps = Vec::new();
        collect_deps(e, &mut deps);
        for &d in &deps {
            if producer[d] != usize::MAX {
                uf.union(i, producer[d]);
            }
        }
        deps_per.push(deps);
    }
    let mut written = vec![false; n_nets];
    let mut cones = Vec::new();
    for members in uf.groups(n) {
        for &i in &members {
            written[assigns[i].0] = true;
        }
        let mut inputs = Vec::new();
        let mut mem_inputs = Vec::new();
        for &i in &members {
            inputs.extend(deps_per[i].iter().copied().filter(|&d| !written[d]));
            collect_mem_reads(&assigns[i].1, &mut mem_inputs);
        }
        for &i in &members {
            written[assigns[i].0] = false;
        }
        cones.push(Cone::new(members, id_set(inputs), id_set(mem_inputs)));
    }
    cones
}

/// The nets and memories one always-statement reads and writes, each
/// sorted and deduplicated.
#[derive(Default)]
struct StmtEffects {
    reads: Vec<u32>,
    writes: Vec<u32>,
    mreads: Vec<u32>,
    mwrites: Vec<u32>,
}

impl StmtEffects {
    fn of(s: &CStmt) -> StmtEffects {
        let mut fx: [Vec<usize>; 4] = Default::default();
        let [reads, writes, mreads, mwrites] = &mut fx;
        stmt_effects(s, reads, writes, mreads, mwrites);
        let [reads, writes, mreads, mwrites] = fx.map(id_set);
        StmtEffects {
            reads,
            writes,
            mreads,
            mwrites,
        }
    }
}

fn stmt_effects(
    s: &CStmt,
    reads: &mut Vec<usize>,
    writes: &mut Vec<usize>,
    mreads: &mut Vec<usize>,
    mwrites: &mut Vec<usize>,
) {
    let expr = |e: &CExpr, reads: &mut Vec<usize>, mreads: &mut Vec<usize>| {
        collect_deps(e, reads);
        collect_mem_reads(e, mreads);
    };
    match s {
        CStmt::AssignNet { net, rhs } => {
            writes.push(*net);
            expr(rhs, reads, mreads);
        }
        CStmt::AssignMem { mem, addr, rhs } => {
            mwrites.push(*mem);
            expr(addr, reads, mreads);
            expr(rhs, reads, mreads);
        }
        CStmt::If { cond, then, els } => {
            expr(cond, reads, mreads);
            for t in then.iter().chain(els.iter()) {
                stmt_effects(t, reads, writes, mreads, mwrites);
            }
        }
        CStmt::Assert { guard, cond, .. } => {
            expr(guard, reads, mreads);
            expr(cond, reads, mreads);
        }
    }
}

/// Partition the always-statements into cones: two statements share a cone
/// when they write the same register or the same memory (so their combined
/// next-state is a function of the union of their reads). A step cone's
/// inputs are everything it reads; registers it updates from their own old
/// value count as inputs too, keeping self-incrementing state "busy".
fn partition_step(effects: &[StmtEffects], n_nets: usize, n_mems: usize) -> Vec<Cone> {
    let n = effects.len();
    let mut uf = UnionFind::new(n);
    let mut net_writer = vec![usize::MAX; n_nets];
    let mut mem_writer = vec![usize::MAX; n_mems];
    for (i, fx) in effects.iter().enumerate() {
        for (writer, targets) in [
            (&mut net_writer, &fx.writes),
            (&mut mem_writer, &fx.mwrites),
        ] {
            for &w in targets {
                match writer[w as usize] {
                    usize::MAX => writer[w as usize] = i,
                    j => uf.union(i, j),
                }
            }
        }
    }
    uf.groups(n)
        .into_iter()
        .map(|members| {
            let mut inputs = Vec::new();
            let mut mem_inputs = Vec::new();
            for &i in &members {
                inputs.extend(effects[i].reads.iter().map(|&r| r as usize));
                mem_inputs.extend(effects[i].mreads.iter().map(|&m| m as usize));
            }
            Cone::new(members, id_set(inputs), id_set(mem_inputs))
        })
        .collect()
}

/// Per-cone wake rows of a [`SchedStatsReport`].
fn cone_wakes_report(cones: &[Cone], names: Vec<String>, wakes: &[u64]) -> Vec<SchedConeWakes> {
    cones
        .iter()
        .zip(names)
        .zip(wakes)
        .map(|((c, cone), &wakes)| SchedConeWakes {
            cone,
            units: c.units(),
            wakes,
        })
        .collect()
}

impl Simulator {
    fn step_effects(&self) -> Vec<StmtEffects> {
        self.always.iter().map(StmtEffects::of).collect()
    }

    fn settle_cones(&self) -> Vec<Cone> {
        partition_settle(&self.assigns, self.values.len())
    }

    fn step_cones(&self) -> Vec<Cone> {
        partition_step(&self.step_effects(), self.values.len(), self.memories.len())
    }

    /// Report names of the settle cones: each cone's first target net.
    fn settle_cone_names(&self, cones: &[Cone]) -> Vec<String> {
        cones
            .iter()
            .map(|c| self.net_names[self.assigns[c.members[0] as usize].0].clone())
            .collect()
    }

    /// Report names of the step cones: the first member's lowest written
    /// net, else its lowest written memory, else `assert@` its lowest read
    /// net; a repeated name gets `#<first member>` appended.
    fn step_cone_names(&self, cones: &[Cone]) -> Vec<String> {
        let net = |i: u32| self.net_names[i as usize].clone();
        let mut used: HashSet<String> = HashSet::new();
        cones
            .iter()
            .map(|c| {
                let first = StmtEffects::of(&self.always[c.members[0] as usize]);
                let mut name = first
                    .writes
                    .first()
                    .map(|&w| net(w))
                    .or_else(|| {
                        first
                            .mwrites
                            .first()
                            .map(|&m| self.mem_names[m as usize].clone())
                    })
                    .or_else(|| first.reads.first().map(|&r| format!("assert@{}", net(r))))
                    .unwrap_or_else(|| "cone".to_string());
                if !used.insert(name.clone()) {
                    name = format!("{name}#{}", c.members[0]);
                    used.insert(name.clone());
                }
                name
            })
            .collect()
    }

    /// Turn on the telemetry plane. Idempotent; settles first so counting
    /// starts from a consistent baseline. With `record_trace`, per-cone
    /// busy/quiescent intervals are kept for [`telemetry_trace`].
    ///
    /// Counting is an observer on the engine's own interpreter calls: the
    /// tapes are never copied or modified, and with telemetry off the
    /// interpreter carries no counting code. When telemetry is enabled
    /// before the first `step`, every engine reports identical counts.
    ///
    /// [`telemetry_trace`]: Self::telemetry_trace
    pub fn enable_telemetry(&mut self, record_trace: bool) {
        if self.telemetry.is_some() {
            return;
        }
        self.settle();
        let n_nets = self.values.len();
        let mut t = Box::new(Telemetry {
            prev: self.values.clone(),
            toggle_cycles: vec![0; n_nets],
            bit_toggles: vec![0; n_nets],
            high_cycles: vec![0; n_nets],
            high_since: vec![0; n_nets],
            cycles: 0,
            settle_cones: self.settle_cones(),
            step_cones: self.step_cones(),
            mems_written: vec![false; self.memories.len()],
            settle: Counts::default(),
            step: Counts::default(),
            masks: Masks {
                net: self.net_width.iter().map(|&w| mask(w)).collect(),
                mem: self.mem_width.iter().map(|&w| mask(w)).collect(),
            },
            shadow_regs: self.regs.clone(),
            shadow_values: vec![0; n_nets],
            shadow_nets: Vec::new(),
            shadow_mems: Vec::new(),
            record_trace,
        });
        // Warm the shadow register file: one uncounted run of the settle
        // tape brings it to the state the bytecode engine's file holds
        // after the settle above (a no-op under `Engine::Bytecode`), so
        // `changed` counters start from the same baseline under every
        // engine.
        t.shadow_count(&self.settle_tape, &self.values, &self.memories, &self.msgs);
        self.telemetry = Some(t);
        if let Some(ev) = self.ev.as_deref_mut() {
            ev.track = self.engine == Engine::Event;
            for s in &mut ev.settle_stale {
                *s = true;
            }
            for s in &mut ev.step_stale {
                *s = true;
            }
        }
    }

    /// Snapshot the telemetry counters (`None` when telemetry is off). The
    /// `units` field is left empty; callers holding a resource report join
    /// it themselves.
    pub fn telemetry_report(&self) -> Option<TelemetryReport> {
        let t = self.telemetry.as_deref()?;
        let nets = (0..self.net_names.len())
            .map(|i| NetTelemetry {
                name: self.net_names[i].clone(),
                width: self.net_width[i],
                toggle_cycles: t.toggle_cycles[i],
                bit_toggles: t.bit_toggles[i],
                // Credit the still-open run of unchanged cycles (lazy high
                // accounting; see `Telemetry::high_since`).
                high_cycles: t.high_cycles[i]
                    + if t.prev[i] != 0 {
                        t.cycles - t.high_since[i]
                    } else {
                        0
                    },
            })
            .collect();
        let cone_report = |cones: &[Cone], names: Vec<String>| {
            cones
                .iter()
                .zip(names)
                .map(|(c, name)| ConeTelemetry {
                    name,
                    units: c.units(),
                    inputs: (c.inputs.len() + c.mem_inputs.len()) as u64,
                    quiescent_cycles: c.quiescent_cycles,
                })
                .collect()
        };
        let insn_report = |tape: &[Insn], n: Counts| InsnTelemetry {
            len: tape.len() as u64,
            executed: n.executed,
            changed: n.changed,
        };
        Some(TelemetryReport {
            cycles: t.cycles,
            nets,
            settle_cones: cone_report(&t.settle_cones, self.settle_cone_names(&t.settle_cones)),
            step_cones: cone_report(&t.step_cones, self.step_cone_names(&t.step_cones)),
            settle_insns: insn_report(&self.settle_tape, t.settle),
            step_insns: insn_report(&self.step_tape, t.step),
            units: Vec::new(),
        })
    }

    /// Chrome-trace JSON of per-cone busy/quiescent periods, one track per
    /// cone, 1 µs per cycle. `None` unless telemetry was enabled with
    /// `record_trace`.
    pub fn telemetry_trace(&self) -> Option<String> {
        let t = self.telemetry.as_deref()?;
        if !t.record_trace {
            return None;
        }
        let mut spans = Vec::new();
        let mut emit = |phase: &str, cones: &[Cone], names: Vec<String>| {
            for (c, name) in cones.iter().zip(names) {
                let track = format!("{phase}/{name}");
                let mut cursor = 0u64;
                let mut intervals = c.busy_intervals.clone();
                if let Some(start) = c.busy_since {
                    intervals.push((start, t.cycles));
                }
                let mut push = |name: &str, s: u64, e: u64| {
                    spans.push(obs::SpanRecord {
                        track: track.clone(),
                        name: name.to_string(),
                        start_ns: s * 1000,
                        dur_ns: (e - s) * 1000,
                        depth: 0,
                        args: vec![
                            ("start_cycle".to_string(), s.to_string()),
                            ("cycles".to_string(), (e - s).to_string()),
                        ],
                        pid_tid: None,
                    });
                };
                for (s, e) in intervals {
                    if s > cursor {
                        push("quiescent", cursor, s);
                    }
                    push("busy", s, e);
                    cursor = e;
                }
                if cursor < t.cycles {
                    push("quiescent", cursor, t.cycles);
                }
            }
        };
        emit(
            "settle",
            &t.settle_cones,
            self.settle_cone_names(&t.settle_cones),
        );
        emit("step", &t.step_cones, self.step_cone_names(&t.step_cones));
        // When the sched-stats plane is also on, ride its per-cycle dirty-
        // set occupancy along as a Chrome counter track ("ph":"C").
        let counters: Vec<obs::trace::CounterPoint> = match self.sched.as_deref() {
            Some(sc) => sc
                .dirty_series
                .iter()
                .enumerate()
                .map(|(i, &v)| obs::trace::CounterPoint {
                    track: "sched/dirty_cones".to_string(),
                    ts_ns: i as u64 * 1000,
                    series: vec![("dirty".to_string(), u64::from(v))],
                    pid_tid: None,
                })
                .collect(),
            None => Vec::new(),
        };
        Some(obs::trace::chrome_trace_with_counters(&spans, &counters))
    }

    /// Turn on the scheduler-statistics plane. Idempotent; settles first
    /// when anything is pending, so counting starts from a quiescent
    /// baseline (the initial full evaluation is not attributed to any
    /// cycle). An already-settled simulator is not settled again: with
    /// telemetry on, that extra settle would be counted.
    ///
    /// The plane is a pure observer of the *engine*: with it off, every hot
    /// path pays exactly one `Option` check and the tapes are untouched;
    /// with it on, simulation results, VCD output, and telemetry counters
    /// are unchanged. Works under every engine — the full-tape engines
    /// (bytecode, tree-walk) report a trivially-full dirty set and empty
    /// wake-walk histograms, which is exactly what their schedule does.
    pub fn enable_sched_stats(&mut self) {
        if self.sched.is_some() {
            return;
        }
        self.settle_if_dirty();
        let n_step_cones = self.step_cones().len();
        self.sched = Some(Box::new(SchedStats {
            cycles: 0,
            dirty_cones: obs::Histogram::new(),
            dirty_series: Vec::new(),
            commit_net_compares: 0,
            commit_net_changes: 0,
            commit_mem_compares: 0,
            commit_mem_changes: 0,
            full_settles: 0,
            n_step_cones,
        }));
        if let Some(ev) = self.ev.as_deref_mut() {
            ev.sched = Some(EvSchedStats::new(
                ev.settle_chains.len(),
                ev.step_members_off.len() - 1,
            ));
        }
    }

    /// Per-step sample for the sched-stats plane: dirty-set occupancy
    /// before dispatch consumes the bitset. Callers check `sched.is_some()`
    /// first, keeping the off path at one branch.
    fn sched_sample_step_entry(&mut self) {
        let occ = match self.ev.as_deref() {
            Some(ev) => ev
                .step_dirty
                .iter()
                .map(|w| u64::from(w.count_ones()))
                .sum::<u64>(),
            // Full-tape engines re-execute every statement each cycle: the
            // dirty set is trivially full.
            None => self.sched.as_deref().map_or(0, |s| s.n_step_cones as u64),
        };
        let sc = self.sched.as_deref_mut().expect("sched checked by caller");
        sc.cycles += 1;
        sc.dirty_cones.record(occ);
        sc.dirty_series.push(occ as u32);
    }

    /// Snapshot the scheduler statistics (`None` when the plane is off).
    ///
    /// Every field is derived from deterministic event counts — never wall
    /// clock — so serializing the report is byte-identical across runs and
    /// `--threads` values for the same stimulus.
    pub fn sched_stats_report(&self) -> Option<SchedStatsReport> {
        let sc = self.sched.as_deref()?;
        let engine = match self.engine {
            Engine::Bytecode => "bytecode",
            Engine::TreeWalk => "treewalk",
            Engine::Event => "event",
            Engine::Batched => "batched",
        };
        let settle_cones = self.settle_cones();
        let step_cones = self.step_cones();
        let settle_names = self.settle_cone_names(&settle_cones);
        let step_names = self.step_cone_names(&step_cones);
        let n_settle_units = self.assigns.len() as u64;
        let n_step_cones = step_cones.len() as u64;
        let mut rep = SchedStatsReport {
            engine: engine.to_string(),
            cycles: sc.cycles,
            settle_units: n_settle_units,
            step_cone_count: n_step_cones,
            settle_runs: 0,
            step_runs: 0,
            settle_insns: 0,
            step_insns: 0,
            dirty_cones: sc.dirty_cones.clone(),
            net_wake_walk: obs::Histogram::new(),
            mem_wake_walk: obs::Histogram::new(),
            settle_run_len: obs::Histogram::new(),
            step_run_len: obs::Histogram::new(),
            commit_net_compares: sc.commit_net_compares,
            commit_net_changes: sc.commit_net_changes,
            commit_mem_compares: sc.commit_mem_compares,
            commit_mem_changes: sc.commit_mem_changes,
            settle_cones: Vec::new(),
            step_cones: Vec::new(),
        };
        if let Some(ev) = self.ev.as_deref() {
            rep.settle_runs = ev.stat_settle_runs;
            rep.step_runs = ev.stat_step_runs;
            rep.settle_insns = ev.stat_settle_insns;
            rep.step_insns = ev.stat_step_insns;
            if let Some(es) = ev.sched.as_deref() {
                rep.net_wake_walk = es.net_wake_walk.clone();
                rep.mem_wake_walk = es.mem_wake_walk.clone();
                rep.settle_run_len = es.settle_run_len.clone();
                rep.step_run_len = es.step_run_len.clone();
                // Attribute scheduler-unit wakes to the coarse telemetry
                // cones so the report joins with `telemetry_report`.
                let mut cone_wakes = vec![0u64; settle_cones.len()];
                for (u, &w) in es.settle_unit_wakes.iter().enumerate() {
                    cone_wakes[ev.settle_unit_cone[u] as usize] += w;
                }
                rep.settle_cones = cone_wakes_report(&settle_cones, settle_names, &cone_wakes);
                rep.step_cones = cone_wakes_report(&step_cones, step_names, &es.step_cone_wakes);
            }
        } else {
            // Full-tape engines: synthesize the trivially-full schedule —
            // every unit runs every settle, every cone every cycle, and no
            // wake walks happen at all.
            rep.settle_runs = sc.full_settles * n_settle_units;
            rep.settle_insns = sc.full_settles * self.settle_tape.len() as u64;
            rep.step_runs = sc.cycles * n_step_cones;
            rep.step_insns = sc.cycles * self.step_tape.len() as u64;
            rep.settle_run_len.record_n(n_settle_units, sc.full_settles);
            rep.step_run_len
                .record_n(self.step_chain_starts.len() as u64, sc.cycles);
            rep.settle_cones = cone_wakes_report(
                &settle_cones,
                settle_names,
                &vec![sc.full_settles; settle_cones.len()],
            );
            rep.step_cones =
                cone_wakes_report(&step_cones, step_names, &vec![sc.cycles; step_cones.len()]);
        }
        Some(rep)
    }

    /// Resolve a net name to its index, for allocation-free hot-loop access
    /// via [`get_id`](Self::get_id) / [`set_id`](Self::set_id).
    pub fn net_id(&self, name: &str) -> Option<usize> {
        self.net_index.get(name).copied()
    }

    /// Read a net by pre-resolved id (settling first when needed).
    pub fn get_id(&mut self, id: usize) -> u64 {
        self.settle_if_dirty();
        self.values[id]
    }

    /// Drive a net by pre-resolved id (every lane under
    /// [`Engine::Batched`]). Takes effect at the next settle.
    pub fn set_id(&mut self, id: usize, value: u64) {
        self.poke_lanes(id, ALL_LANES, |_| value);
    }

    /// A net's settled value in every lane, by pre-resolved id (settling
    /// first when needed): lane `k` at index `k` under [`Engine::Batched`],
    /// a one-element slice under the scalar engines.
    pub fn lane_row(&mut self, id: usize) -> &[u64] {
        self.settle_if_dirty();
        match self.batch.as_deref() {
            Some(b) => &b.values[id * b.lanes..(id + 1) * b.lanes],
            None => std::slice::from_ref(&self.values[id]),
        }
    }

    /// Drive the lanes of a net set in `lanes` (bit `k` = lane `k`), lane
    /// `k` taking `row[k]`: one poke for a whole lane row, waking the
    /// net's readers and writers once with the mask of the lanes whose
    /// value changed. The scalar engines have one lane and read `row[0]`
    /// when bit 0 is set. Takes effect at the next settle.
    ///
    /// # Panics
    /// Panics when `row` has no entry for a lane in `lanes`.
    pub fn poke_row(&mut self, id: usize, lanes: u64, row: &[u64]) {
        self.poke_lanes(id, lanes, |k| row[k]);
    }

    fn poke_lanes(&mut self, id: usize, lanes: u64, value: impl Fn(usize) -> u64) {
        let m = mask(self.net_width[id]);
        if let Some(b) = self.batch.as_deref_mut() {
            let l = b.lanes;
            let full = lane_mask(l);
            let row = &mut b.values[id * l..(id + 1) * l];
            let mut changed = 0u64;
            for_lanes(lanes & full, l, full, |k| {
                let v = value(k) & m;
                if row[k] != v {
                    row[k] = v;
                    changed |= 1u64 << k;
                }
            });
            self.values[id] = row[0];
            if changed != 0 {
                if let Some(ev) = self.ev.as_deref_mut() {
                    ev.note_net_poked(id, changed);
                }
            }
        } else if lanes & 1 != 0 {
            let v = value(0) & m;
            if self.values[id] != v {
                self.values[id] = v;
                if let Some(ev) = self.ev.as_deref_mut() {
                    ev.note_net_poked(id, ALL_LANES);
                }
            }
        }
        self.dirty = true;
        self.lane0_dirty |= lanes & 1 != 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter() -> Design {
        let mut m = VModule::new("counter");
        m.port("clk", Dir::Input, 1);
        m.port("en", Dir::Input, 1);
        m.port("count", Dir::Output, 8);
        m.reg("value", 8);
        m.assign("count", Expr::r("value"));
        m.main_always().stmts.push(Stmt::If {
            cond: Expr::r("en"),
            then: vec![Stmt::NonBlocking {
                lhs: LValue::Net("value".into()),
                rhs: Expr::add(Expr::r("value"), Expr::c(1, 8)),
            }],
            els: vec![],
        });
        let mut d = Design::new();
        d.add(m);
        d
    }

    #[test]
    fn counter_counts() {
        let d = counter();
        let mut sim = Simulator::new(&d, "counter").expect("build");
        sim.set("en", 1);
        sim.run(5).unwrap();
        assert_eq!(sim.get("count"), 5);
        sim.set("en", 0);
        sim.run(3).unwrap();
        assert_eq!(sim.get("count"), 5);
        assert_eq!(sim.cycle(), 8);
    }

    #[test]
    fn counter_wraps_at_width() {
        let d = counter();
        let mut sim = Simulator::new(&d, "counter").expect("build");
        sim.set("en", 1);
        sim.run(256).unwrap();
        assert_eq!(sim.get("count"), 0, "8-bit counter wraps");
    }

    #[test]
    fn chained_comb_assigns_settle_in_order() {
        let mut m = VModule::new("chain");
        m.port("clk", Dir::Input, 1);
        m.port("x", Dir::Input, 8);
        m.port("y", Dir::Output, 8);
        m.wire("a", 8);
        m.wire("b", 8);
        // Declared out of dependency order on purpose.
        m.assign("y", Expr::add(Expr::r("b"), Expr::c(1, 8)));
        m.assign("b", Expr::add(Expr::r("a"), Expr::c(1, 8)));
        m.assign("a", Expr::add(Expr::r("x"), Expr::c(1, 8)));
        let mut d = Design::new();
        d.add(m);
        let mut sim = Simulator::new(&d, "chain").expect("build");
        sim.set("x", 10);
        assert_eq!(sim.get("y"), 13);
    }

    #[test]
    fn combinational_loop_rejected() {
        let mut m = VModule::new("loopy");
        m.port("clk", Dir::Input, 1);
        m.wire("a", 1);
        m.wire("b", 1);
        m.assign("a", Expr::r("b"));
        m.assign("b", Expr::r("a"));
        let mut d = Design::new();
        d.add(m);
        match Simulator::new(&d, "loopy") {
            Err(BuildError::CombinationalLoop(nets)) => {
                assert_eq!(nets.len(), 2);
            }
            Err(other) => panic!("expected loop error, got {other:?}"),
            Ok(_) => panic!("expected loop error, build succeeded"),
        }
    }

    #[test]
    fn memory_write_then_read() {
        let mut m = VModule::new("memtest");
        m.port("clk", Dir::Input, 1);
        m.port("we", Dir::Input, 1);
        m.port("waddr", Dir::Input, 4);
        m.port("wdata", Dir::Input, 32);
        m.port("raddr", Dir::Input, 4);
        m.port("rdata", Dir::Output, 32);
        m.memory("ram", 32, 16, None);
        // Synchronous read register.
        m.reg("rdata_r", 32);
        m.assign("rdata", Expr::r("rdata_r"));
        m.main_always().stmts.push(Stmt::If {
            cond: Expr::r("we"),
            then: vec![Stmt::NonBlocking {
                lhs: LValue::MemElem {
                    mem: "ram".into(),
                    addr: Expr::r("waddr"),
                },
                rhs: Expr::r("wdata"),
            }],
            els: vec![],
        });
        m.main_always().stmts.push(Stmt::NonBlocking {
            lhs: LValue::Net("rdata_r".into()),
            rhs: Expr::MemRead {
                mem: "ram".into(),
                addr: Box::new(Expr::r("raddr")),
            },
        });
        let mut d = Design::new();
        d.add(m);
        let mut sim = Simulator::new(&d, "memtest").expect("build");
        sim.set("we", 1);
        sim.set("waddr", 3);
        sim.set("wdata", 12345);
        sim.step().unwrap();
        sim.set("we", 0);
        sim.set("raddr", 3);
        sim.step().unwrap();
        assert_eq!(sim.get("rdata"), 12345);
        // Read BEFORE the write lands sees the old value (non-blocking).
        assert_eq!(sim.read_mem("ram", 3), 12345);
    }

    #[test]
    fn assertion_fires() {
        let mut m = VModule::new("guarded");
        m.port("clk", Dir::Input, 1);
        m.port("en", Dir::Input, 1);
        m.port("addr", Dir::Input, 8);
        m.main_always().stmts.push(Stmt::Assert {
            guard: Expr::r("en"),
            cond: Expr::bin(BinOp::ULt, Expr::r("addr"), Expr::c(16, 8)),
            message: "address out of bounds".into(),
        });
        let mut d = Design::new();
        d.add(m);
        let mut sim = Simulator::new(&d, "guarded").expect("build");
        sim.set("en", 0);
        sim.set("addr", 200);
        sim.step().expect("guard off: no failure");
        sim.set("en", 1);
        let err = sim.step().unwrap_err();
        assert!(err.message.contains("address out of bounds"), "{err}");
    }

    /// Two chained incrementers instantiated by `top` (the elaborate test
    /// structure).
    fn chained_incrementers() -> Design {
        let mut inc = VModule::new("inc");
        inc.port("clk", Dir::Input, 1);
        inc.port("x", Dir::Input, 8);
        inc.port("y", Dir::Output, 8);
        inc.assign("y", Expr::add(Expr::r("x"), Expr::c(1, 8)));
        let mut top = VModule::new("top");
        top.port("clk", Dir::Input, 1);
        top.port("a", Dir::Input, 8);
        top.port("b", Dir::Output, 8);
        top.wire("mid", 8);
        top.instances.push(Instance {
            module: "inc".into(),
            name: "u0".into(),
            connections: vec![
                ("clk".into(), Expr::r("clk")),
                ("x".into(), Expr::r("a")),
                ("y".into(), Expr::r("mid")),
            ],
        });
        top.instances.push(Instance {
            module: "inc".into(),
            name: "u1".into(),
            connections: vec![
                ("clk".into(), Expr::r("clk")),
                ("x".into(), Expr::r("mid")),
                ("y".into(), Expr::r("b")),
            ],
        });
        let mut d = Design::new();
        d.add(inc);
        d.add(top);
        d
    }

    #[test]
    fn hierarchical_design_simulates() {
        let d = chained_incrementers();
        let mut sim = Simulator::new(&d, "top").expect("build");
        sim.set("a", 7);
        assert_eq!(sim.get("b"), 9);
    }

    #[test]
    fn instance_free_top_builds_like_its_flat_copy() {
        for (d, top) in [(counter(), "counter"), (mx_design(), "mx")] {
            assert!(d.find(top).expect("top").instances.is_empty());
            let direct = Simulator::new(&d, top).expect("build");
            let flat = flatten(&d, top).expect("flatten");
            let via_flat = Simulator::from_flat(&flat).expect("build");
            assert_eq!(format!("{direct:?}"), format!("{via_flat:?}"), "{top}");
        }
    }

    #[test]
    fn top_with_instances_still_takes_the_flatten_path() {
        let d = chained_incrementers();
        let direct = Simulator::new(&d, "top").expect("build");
        let flat = flatten(&d, "top").expect("flatten");
        let via_flat = Simulator::from_flat(&flat).expect("build");
        assert_eq!(format!("{direct:?}"), format!("{via_flat:?}"));
        // Compiled in place, the top alone would leave `b` undriven.
        let mut unflattened = Simulator::from_flat(d.find("top").expect("top")).expect("build");
        unflattened.set("a", 7);
        assert_eq!(unflattened.get("b"), 0);
    }

    #[test]
    fn register_file_is_dense_in_order_of_first_use() {
        for (d, top) in [
            (counter(), "counter"),
            (mx_design(), "mx"),
            (chained_incrementers(), "top"),
        ] {
            let sim = Simulator::new(&d, top).expect("build");
            let mut seen = 0u32;
            for insn in sim.settle_tape.iter().chain(&sim.step_tape) {
                insn.clone().for_each_reg(|r| {
                    assert!(*r <= seen, "{top}: register {r} named before {seen}");
                    seen = seen.max(*r + 1);
                });
            }
            assert_eq!(seen as usize, sim.regs.len(), "{top}: unused registers");
        }
    }

    #[test]
    fn signed_arithmetic() {
        let mut m = VModule::new("s");
        m.port("clk", Dir::Input, 1);
        m.port("a", Dir::Input, 8);
        m.port("b", Dir::Input, 8);
        m.port("lt", Dir::Output, 1);
        m.port("ext", Dir::Output, 16);
        m.assign("lt", Expr::bin(BinOp::SLt, Expr::r("a"), Expr::r("b")));
        m.assign(
            "ext",
            Expr::SignExtend {
                arg: Box::new(Expr::r("a")),
                from: 8,
                to: 16,
            },
        );
        let mut d = Design::new();
        d.add(m);
        let mut sim = Simulator::new(&d, "s").expect("build");
        sim.set("a", 0xFF); // -1
        sim.set("b", 1);
        assert_eq!(sim.get("lt"), 1, "-1 < 1 signed");
        assert_eq!(sim.get("ext"), 0xFFFF, "sign extension");
        assert_eq!(sim.get_signed("ext"), -1);
    }

    #[test]
    fn vcd_dump_records_changes() {
        let d = counter();
        let mut sim = Simulator::new(&d, "counter").expect("build");
        let buf: Vec<u8> = Vec::new();
        let shared = std::rc::Rc::new(std::cell::RefCell::new(buf));
        struct W(std::rc::Rc<std::cell::RefCell<Vec<u8>>>);
        impl std::io::Write for W {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.borrow_mut().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        sim.start_vcd(Box::new(W(shared.clone()))).unwrap();
        sim.set("en", 1);
        sim.run(3).unwrap();
        let text = String::from_utf8(shared.borrow().clone()).unwrap();
        assert!(text.contains("$var wire 8"), "{text}");
        assert!(text.contains("$enddefinitions"), "{text}");
        assert!(text.contains("#3"), "timestep markers: {text}");
        assert!(text.contains("b11 "), "count=3 change: {text}");
    }

    #[test]
    fn step_until_timeout() {
        let d = counter();
        let mut sim = Simulator::new(&d, "counter").expect("build");
        sim.set("en", 0);
        let err = sim.step_until("count", 10).unwrap_err();
        assert!(err.message.contains("did not assert"), "{err}");
    }

    #[test]
    fn engines_agree_on_counter() {
        let d = counter();
        let mut a = Simulator::new(&d, "counter").expect("build");
        let mut b = Simulator::new(&d, "counter").expect("build");
        a.set_engine(Engine::Bytecode);
        b.set_engine(Engine::TreeWalk);
        for cyc in 0..300u64 {
            let en = u64::from(cyc % 3 != 0);
            a.set("en", en);
            b.set("en", en);
            assert_eq!(a.get("count"), b.get("count"), "cycle {cyc}");
            a.step().unwrap();
            b.step().unwrap();
        }
    }

    fn mx_design() -> Design {
        let mut m = VModule::new("mx");
        m.port("clk", Dir::Input, 1);
        m.port("we", Dir::Input, 1);
        m.port("waddr", Dir::Input, 4);
        m.port("wdata", Dir::Input, 16);
        m.port("raddr", Dir::Input, 4);
        m.port("rdata", Dir::Output, 16);
        m.port("sum", Dir::Output, 16);
        m.memory("ram", 16, 16, None);
        m.reg("rdata_r", 16);
        m.assign("rdata", Expr::r("rdata_r"));
        // Exercise ternary, concat, slice, sign-extend in the comb network.
        m.wire("sx", 16);
        m.assign(
            "sx",
            Expr::SignExtend {
                arg: Box::new(Expr::Slice {
                    base: Box::new(Expr::r("wdata")),
                    hi: 7,
                    lo: 0,
                }),
                from: 8,
                to: 16,
            },
        );
        m.assign(
            "sum",
            Expr::Ternary {
                cond: Box::new(Expr::r("we")),
                then: Box::new(Expr::add(Expr::r("sx"), Expr::r("rdata_r"))),
                els: Box::new(Expr::Concat(vec![
                    Expr::Slice {
                        base: Box::new(Expr::r("rdata_r")),
                        hi: 7,
                        lo: 0,
                    },
                    Expr::Slice {
                        base: Box::new(Expr::r("wdata")),
                        hi: 7,
                        lo: 0,
                    },
                ])),
            },
        );
        m.main_always().stmts.push(Stmt::If {
            cond: Expr::r("we"),
            then: vec![Stmt::NonBlocking {
                lhs: LValue::MemElem {
                    mem: "ram".into(),
                    addr: Expr::r("waddr"),
                },
                rhs: Expr::r("wdata"),
            }],
            els: vec![Stmt::NonBlocking {
                lhs: LValue::Net("rdata_r".into()),
                rhs: Expr::MemRead {
                    mem: "ram".into(),
                    addr: Box::new(Expr::r("raddr")),
                },
            }],
        });
        let mut d = Design::new();
        d.add(m);
        d
    }

    #[test]
    fn engines_agree_on_memory_and_assert_design() {
        let d = mx_design();
        let mut a = Simulator::new(&d, "mx").expect("build");
        let mut b = Simulator::new(&d, "mx").expect("build");
        a.set_engine(Engine::Bytecode);
        b.set_engine(Engine::TreeWalk);
        // Deterministic LCG stimulus.
        let mut state = 0x2545F4914F6CDD1Du64;
        for cyc in 0..500u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            for (port, width) in [("we", 1), ("waddr", 4), ("wdata", 16), ("raddr", 4)] {
                let v = (state >> 24) & mask(width);
                a.set(port, v);
                b.set(port, v);
                state = state.rotate_left(17);
            }
            for out in ["rdata", "sum"] {
                assert_eq!(a.get(out), b.get(out), "net {out} at cycle {cyc}");
            }
            a.step().unwrap();
            b.step().unwrap();
        }
        for addr in 0..16 {
            assert_eq!(a.read_mem("ram", addr), b.read_mem("ram", addr));
        }
    }

    #[test]
    fn bytecode_assertion_fires_like_treewalk() {
        let mut m = VModule::new("guarded");
        m.port("clk", Dir::Input, 1);
        m.port("en", Dir::Input, 1);
        m.port("addr", Dir::Input, 8);
        m.main_always().stmts.push(Stmt::Assert {
            guard: Expr::r("en"),
            cond: Expr::bin(BinOp::ULt, Expr::r("addr"), Expr::c(16, 8)),
            message: "address out of bounds".into(),
        });
        let mut d = Design::new();
        d.add(m);
        for engine in [Engine::Bytecode, Engine::TreeWalk] {
            let mut sim = Simulator::new(&d, "guarded").expect("build");
            sim.set_engine(engine);
            sim.set("en", 0);
            sim.set("addr", 200);
            sim.step().expect("guard off: no failure");
            sim.set("en", 1);
            let err = sim.step().unwrap_err();
            assert!(err.message.contains("address out of bounds"), "{err}");
            assert_eq!(err.cycle, 1);
        }
    }

    #[test]
    fn cycle_budget_watchdog_stops_runaway_runs() {
        let d = counter();
        let mut sim = Simulator::new(&d, "counter").expect("build");
        sim.set_cycle_budget(Some(10));
        sim.run(10).unwrap(); // exactly the budget is fine
        let err = sim.step().unwrap_err();
        assert_eq!(err.cycle, 10);
        assert!(err.message.contains("cycle budget"), "{err}");
        // Raising the budget lets the run continue where it stopped.
        sim.set_cycle_budget(Some(12));
        sim.run(2).unwrap();
        assert_eq!(sim.cycle(), 12);
        sim.set_cycle_budget(None);
        sim.run(5).unwrap();
        assert_eq!(sim.cycle(), 17);
    }

    #[test]
    fn telemetry_leaves_tapes_and_results_untouched() {
        let d = counter();
        let mut plain = Simulator::new(&d, "counter").expect("build");
        let mut telem = Simulator::new(&d, "counter").expect("build");
        telem.enable_telemetry(true);
        for cyc in 0..50u64 {
            let en = u64::from(cyc % 3 != 0);
            plain.set("en", en);
            telem.set("en", en);
            assert_eq!(plain.get("count"), telem.get("count"), "cycle {cyc}");
            plain.step().unwrap();
            telem.step().unwrap();
        }
        // The executable tapes are byte-identical: counting is an observer.
        assert_eq!(plain.settle_tape, telem.settle_tape);
        assert_eq!(plain.step_tape, telem.step_tape);
        assert_eq!(plain.get("count"), telem.get("count"));
    }

    #[test]
    fn sched_stats_is_a_pure_observer() {
        let d = counter();
        let mut plain = Simulator::new(&d, "counter").expect("build");
        let mut stats = Simulator::new(&d, "counter").expect("build");
        plain.set_engine(Engine::Event);
        stats.set_engine(Engine::Event);
        stats.enable_sched_stats();
        for cyc in 0..50u64 {
            let en = u64::from(cyc % 3 != 0);
            plain.set("en", en);
            stats.set("en", en);
            assert_eq!(plain.get("count"), stats.get("count"), "cycle {cyc}");
            plain.step().unwrap();
            stats.step().unwrap();
        }
        assert_eq!(plain.get("count"), stats.get("count"));
        assert_eq!(plain.settle_tape, stats.settle_tape);
        assert_eq!(plain.step_tape, stats.step_tape);
        let r = stats.sched_stats_report().expect("enabled");
        assert_eq!(r.engine, "event");
        assert_eq!(r.cycles, 50);
        assert!(r.commit_net_compares > 0);
        assert!(r.commit_net_changes <= r.commit_net_compares);
        assert!(r.net_wake_walk.count() > 0, "wakes were walked");
        let rate = r.spurious_wake_rate();
        assert!((0.0..=1.0).contains(&rate));
        let shares: f64 = r.cycle_share().iter().map(|s| s.2).sum();
        assert!((shares - 1.0).abs() < 1e-9);
        obs::json::parse(&obs::json::document(&r)).expect("strict JSON");
    }

    #[test]
    fn sched_stats_full_tape_reports_trivially_full_dirty_set() {
        let d = counter();
        let mut sim = Simulator::new(&d, "counter").expect("build");
        sim.enable_sched_stats();
        sim.set("en", 1);
        sim.run(10).unwrap();
        let r = sim.sched_stats_report().expect("enabled");
        assert_eq!(r.engine, "bytecode");
        assert_eq!(r.cycles, 10);
        // Full-tape schedule: every cone dirty every cycle, no wake walks.
        assert_eq!(r.dirty_cones.min(), r.step_cone_count);
        assert_eq!(r.dirty_cones.max(), r.step_cone_count);
        assert_eq!(r.dirty_cones.count(), 10);
        assert_eq!(r.net_wake_walk.count(), 0);
        assert_eq!(r.mem_wake_walk.count(), 0);
        assert_eq!(r.step_runs, 10 * r.step_cone_count);
        assert!(r.step_cones.iter().all(|c| c.wakes == 10));
        obs::json::parse(&obs::json::document(&r)).expect("strict JSON");
    }

    #[test]
    fn sched_stats_json_is_deterministic_across_runs() {
        let run = |engine: Engine| {
            let d = mx_design();
            let mut sim = Simulator::new(&d, "mx").expect("build");
            sim.set_engine(engine);
            sim.enable_sched_stats();
            for cyc in 0..32u64 {
                sim.set("we", cyc % 2);
                sim.set("waddr", cyc % 16);
                sim.set("wdata", cyc * 3 & 0xffff);
                sim.set("raddr", (cyc + 1) % 16);
                sim.step().unwrap();
            }
            obs::json::document(&sim.sched_stats_report().expect("enabled"))
        };
        for engine in [Engine::Bytecode, Engine::Event, Engine::Batched] {
            assert_eq!(run(engine), run(engine), "{engine:?}");
        }
        // The event engine's commit plane compares exactly what the
        // full-tape engine commits (same pending updates), so the
        // spurious-wake accounting is engine-comparable.
        let parse = |j: String| obs::json::parse(&j).expect("strict JSON");
        let (b, e) = (parse(run(Engine::Bytecode)), parse(run(Engine::Event)));
        assert_eq!(
            b.get("commit")
                .unwrap()
                .get("net_changes")
                .unwrap()
                .as_f64(),
            e.get("commit")
                .unwrap()
                .get("net_changes")
                .unwrap()
                .as_f64()
        );
    }

    #[test]
    fn telemetry_counts_on_counter_are_exact() {
        let d = counter();
        let mut sim = Simulator::new(&d, "counter").expect("build");
        sim.set("en", 1);
        sim.enable_telemetry(false);
        sim.run(10).unwrap();
        let r = sim.telemetry_report().expect("enabled");
        assert_eq!(r.cycles, 10);
        let net = |name: &str| r.nets.iter().find(|n| n.name == name).unwrap();
        // value increments every cycle, so value and count toggle each cycle.
        assert_eq!(net("value").toggle_cycles, 10);
        assert_eq!(net("count").toggle_cycles, 10);
        // en was driven high before enabling and never changed.
        assert_eq!(net("en").toggle_cycles, 0);
        assert_eq!(net("en").high_cycles, 10);
        assert_eq!(net("clk").toggle_cycles, 0);
        // Coverage excludes clk: en never toggled -> 2 of 3 nets.
        assert!((r.toggle_coverage() - 2.0 / 3.0).abs() < 1e-9);
        // Everything depends on the always-changing value: never quiescent.
        assert!(r
            .settle_cones
            .iter()
            .chain(r.step_cones.iter())
            .all(|c| c.quiescent_cycles == 0));
        // Disabling en freezes the design: every later cycle is quiescent.
        sim.set("en", 0);
        sim.step().unwrap(); // en toggles this cycle
        sim.run(9).unwrap();
        let r2 = sim.telemetry_report().expect("enabled");
        assert_eq!(r2.cycles, 20);
        // Settle cones read only `value`, frozen from the en-toggle cycle on;
        // step cones also read `en`, which changed on that one cycle.
        assert!(r2.settle_cones.iter().all(|c| c.quiescent_cycles == 10));
        assert!(r2.step_cones.iter().all(|c| c.quiescent_cycles == 9));
    }

    #[test]
    fn engines_report_identical_telemetry() {
        let d = mx_design();
        let mut a = Simulator::new(&d, "mx").expect("build");
        let mut b = Simulator::new(&d, "mx").expect("build");
        a.set_engine(Engine::Bytecode);
        b.set_engine(Engine::TreeWalk);
        a.enable_telemetry(true);
        b.enable_telemetry(true);
        let mut state = 0x2545F4914F6CDD1Du64;
        for _ in 0..200u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            for (port, width) in [("we", 1), ("waddr", 4), ("wdata", 16), ("raddr", 4)] {
                let v = (state >> 24) & mask(width);
                a.set(port, v);
                b.set(port, v);
                state = state.rotate_left(17);
            }
            a.step().unwrap();
            b.step().unwrap();
        }
        let ra = a.telemetry_report().expect("enabled");
        let rb = b.telemetry_report().expect("enabled");
        assert_eq!(ra, rb);
        assert_eq!(obs::json::document(&ra), obs::json::document(&rb));
        assert_eq!(a.telemetry_trace(), b.telemetry_trace());
        obs::json::parse(&obs::json::document(&ra)).expect("telemetry JSON is strict");
    }

    const ALL_ENGINES: [Engine; 4] = [
        Engine::Bytecode,
        Engine::TreeWalk,
        Engine::Event,
        Engine::Batched,
    ];

    #[test]
    fn all_engines_agree_on_counter() {
        let d = counter();
        let mut sims: Vec<Simulator> = ALL_ENGINES
            .iter()
            .map(|&e| {
                let mut s = Simulator::new(&d, "counter").expect("build");
                s.set_engine(e);
                s
            })
            .collect();
        for cyc in 0..300u64 {
            let en = u64::from(cyc % 3 != 0);
            let expect = sims[0].get("count");
            for s in &mut sims {
                s.set("en", en);
                assert_eq!(
                    s.get("count"),
                    expect,
                    "engine {:?} cycle {cyc}",
                    s.engine()
                );
                s.step().unwrap();
            }
        }
    }

    #[test]
    fn all_engines_agree_on_memory_and_assert_design() {
        let d = mx_design();
        let mut sims: Vec<Simulator> = ALL_ENGINES
            .iter()
            .map(|&e| {
                let mut s = Simulator::new(&d, "mx").expect("build");
                s.set_engine(e);
                s
            })
            .collect();
        let mut state = 0x2545F4914F6CDD1Du64;
        for cyc in 0..500u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let mut drive = state;
            for s in &mut sims {
                let mut st = drive;
                for (port, width) in [("we", 1), ("waddr", 4), ("wdata", 16), ("raddr", 4)] {
                    s.set(port, (st >> 24) & mask(width));
                    st = st.rotate_left(17);
                }
                drive = state; // same stimulus for every engine
            }
            state = {
                let mut st = state;
                for _ in 0..4 {
                    st = st.rotate_left(17);
                }
                st
            };
            for out in ["rdata", "sum"] {
                let expect = sims[0].get(out);
                for s in &mut sims {
                    assert_eq!(
                        s.get(out),
                        expect,
                        "{out} engine {:?} cycle {cyc}",
                        s.engine()
                    );
                }
            }
            for s in &mut sims {
                s.step().unwrap();
            }
        }
        for addr in 0..16 {
            let expect = sims[0].read_mem("ram", addr);
            for s in &sims {
                assert_eq!(s.read_mem("ram", addr), expect, "engine {:?}", s.engine());
            }
        }
    }

    #[test]
    fn all_engines_emit_identical_vcd_bytes() {
        let d = mx_design();
        let mut dumps: Vec<String> = Vec::new();
        for &engine in &ALL_ENGINES {
            let mut sim = Simulator::new(&d, "mx").expect("build");
            sim.set_engine(engine);
            let shared = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
            struct W(std::rc::Rc<std::cell::RefCell<Vec<u8>>>);
            impl std::io::Write for W {
                fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                    self.0.borrow_mut().extend_from_slice(b);
                    Ok(b.len())
                }
                fn flush(&mut self) -> std::io::Result<()> {
                    Ok(())
                }
            }
            sim.start_vcd(Box::new(W(shared.clone()))).unwrap();
            let mut state = 0x9E3779B97F4A7C15u64;
            for _ in 0..100u64 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let mut st = state;
                for (port, width) in [("we", 1), ("waddr", 4), ("wdata", 16), ("raddr", 4)] {
                    sim.set(port, (st >> 24) & mask(width));
                    st = st.rotate_left(17);
                }
                sim.step().unwrap();
            }
            drop(sim);
            dumps.push(String::from_utf8(shared.borrow().clone()).unwrap());
        }
        for (i, d) in dumps.iter().enumerate().skip(1) {
            assert_eq!(d, &dumps[0], "VCD of {:?} differs", ALL_ENGINES[i]);
        }
    }

    #[test]
    fn event_and_batched_report_identical_telemetry() {
        let d = mx_design();
        let mut sims: Vec<Simulator> = ALL_ENGINES
            .iter()
            .map(|&e| {
                let mut s = Simulator::new(&d, "mx").expect("build");
                s.set_engine(e);
                s.enable_telemetry(true);
                s
            })
            .collect();
        let mut state = 0x2545F4914F6CDD1Du64;
        for _ in 0..200u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            for s in &mut sims {
                let mut st = state;
                for (port, width) in [("we", 1), ("waddr", 4), ("wdata", 16), ("raddr", 4)] {
                    s.set(port, (st >> 24) & mask(width));
                    st = st.rotate_left(17);
                }
                s.step().unwrap();
            }
        }
        let base = sims[0].telemetry_report().expect("enabled");
        let base_trace = sims[0].telemetry_trace();
        for s in &sims[1..] {
            let r = s.telemetry_report().expect("enabled");
            assert_eq!(r, base, "telemetry of {:?} differs", s.engine());
            assert_eq!(obs::json::document(&r), obs::json::document(&base));
            assert_eq!(s.telemetry_trace(), base_trace);
        }
    }

    #[test]
    fn watchdog_fires_identically_in_every_engine() {
        let d = counter();
        for &engine in &ALL_ENGINES {
            let mut sim = Simulator::new(&d, "counter").expect("build");
            sim.set_engine(engine);
            // en = 0: every cone is quiescent, yet skipped cycles still
            // count against the budget.
            sim.set("en", 0);
            sim.set_cycle_budget(Some(10));
            sim.run(10).unwrap();
            let err = sim.step().unwrap_err();
            assert_eq!(err.cycle, 10, "engine {engine:?}");
            assert!(err.message.contains("cycle budget"), "{engine:?}: {err}");
            sim.set_cycle_budget(Some(12));
            sim.run(2).unwrap();
            assert_eq!(sim.cycle(), 12, "engine {engine:?}");
        }
    }

    #[test]
    fn assertion_fires_identically_in_every_engine() {
        let mut m = VModule::new("guarded");
        m.port("clk", Dir::Input, 1);
        m.port("en", Dir::Input, 1);
        m.port("addr", Dir::Input, 8);
        m.main_always().stmts.push(Stmt::Assert {
            guard: Expr::r("en"),
            cond: Expr::bin(BinOp::ULt, Expr::r("addr"), Expr::c(16, 8)),
            message: "address out of bounds".into(),
        });
        let mut d = Design::new();
        d.add(m);
        for &engine in &ALL_ENGINES {
            let mut sim = Simulator::new(&d, "guarded").expect("build");
            sim.set_engine(engine);
            sim.set("en", 0);
            sim.set("addr", 200);
            sim.step().expect("guard off: no failure");
            sim.set("en", 1);
            let err = sim.step().unwrap_err();
            assert!(err.message.contains("address out of bounds"), "{err}");
            assert_eq!(err.cycle, 1, "engine {engine:?}");
            // A failed step does not complete; retrying fails again.
            let err2 = sim.step().unwrap_err();
            assert_eq!(err2.cycle, 1, "engine {engine:?}");
        }
    }

    #[test]
    fn external_pokes_wake_event_cones() {
        let d = counter();
        for engine in [Engine::Bytecode, Engine::Event] {
            let mut sim = Simulator::new(&d, "counter").expect("build");
            sim.set_engine(engine);
            sim.set("en", 1);
            sim.run(3).unwrap();
            assert_eq!(sim.get("count"), 3, "engine {engine:?}");
            // Poke the register net directly: the settle cone producing
            // `count` must recompute, and the next step must increment
            // from the poked value.
            sim.set("value", 40);
            assert_eq!(sim.get("count"), 40, "engine {engine:?}");
            sim.step().unwrap();
            assert_eq!(sim.get("count"), 41, "engine {engine:?}");
            // Memoryless quiescence after freezing still works.
            sim.set("en", 0);
            sim.run(5).unwrap();
            assert_eq!(sim.get("count"), 41, "engine {engine:?}");
        }
    }

    #[test]
    fn write_mem_wakes_event_readers() {
        let d = mx_design();
        for engine in [Engine::Bytecode, Engine::Event, Engine::Batched] {
            let mut sim = Simulator::new(&d, "mx").expect("build");
            sim.set_engine(engine);
            sim.set("we", 0);
            sim.set("raddr", 5);
            sim.run(2).unwrap();
            assert_eq!(sim.get("rdata"), 0, "engine {engine:?}");
            sim.write_mem("ram", 5, 0x1234);
            sim.step().unwrap(); // rdata_r latches the poked word
            assert_eq!(sim.get("rdata"), 0x1234, "engine {engine:?}");
        }
    }

    #[test]
    fn batched_lanes_run_independent_stimuli() {
        let d = counter();
        let mut batched = Simulator::new(&d, "counter").expect("build");
        batched.set_batch_lanes(4);
        batched.set_engine(Engine::Batched);
        assert_eq!(batched.lanes(), 4);
        let mut scalars: Vec<Simulator> = (0..4)
            .map(|_| Simulator::new(&d, "counter").expect("build"))
            .collect();
        let (en, count) = (
            batched.net_id("en").unwrap(),
            batched.net_id("count").unwrap(),
        );
        let mut row = [0u64; 4];
        for cyc in 0..200u64 {
            // Divergent per-lane enables; lane k is re-driven only every
            // (k + 1)-th cycle, so most pokes cover a subset of the lanes.
            let mut lanes = 0u64;
            for (lane, s) in scalars.iter_mut().enumerate() {
                if cyc % (lane as u64 + 1) == 0 {
                    row[lane] = u64::from(cyc % (lane as u64 + 2) != 0);
                    s.set("en", row[lane]);
                    lanes |= 1 << lane;
                }
            }
            batched.poke_row(en, lanes, &row);
            let counts = batched.lane_row(count).to_vec();
            for (lane, s) in scalars.iter_mut().enumerate() {
                assert_eq!(counts[lane], s.get("count"), "lane {lane} cycle {cyc}");
            }
            // Lane 0 mirrors the scalar accessors exactly.
            assert_eq!(batched.get("count"), counts[0]);
            batched.step().unwrap();
            for s in &mut scalars {
                s.step().unwrap();
            }
        }
    }

    #[test]
    fn batched_lanes_run_independent_memory_stimuli() {
        let d = mx_design();
        const L: usize = 3;
        let mut batched = Simulator::new(&d, "mx").expect("build");
        batched.set_batch_lanes(L);
        batched.set_engine(Engine::Batched);
        let mut scalars: Vec<Simulator> = (0..L)
            .map(|_| Simulator::new(&d, "mx").expect("build"))
            .collect();
        let ports = [("we", 1), ("waddr", 4), ("wdata", 16), ("raddr", 4)];
        let mut rows = [[0u64; L]; 4];
        let mut state = 0x0123456789ABCDEFu64;
        for cyc in 0..300u64 {
            for (lane, s) in scalars.iter_mut().enumerate() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let mut st = state;
                for (row, (port, width)) in rows.iter_mut().zip(ports) {
                    row[lane] = (st >> 24) & mask(width);
                    s.set(port, row[lane]);
                    st = st.rotate_left(17);
                }
            }
            for (row, (port, _)) in rows.iter().zip(ports) {
                let id = batched.net_id(port).unwrap();
                batched.poke_row(id, lane_mask(L), row);
            }
            for out in ["rdata", "sum"] {
                let got = batched.lane_row(batched.net_id(out).unwrap()).to_vec();
                for (lane, s) in scalars.iter_mut().enumerate() {
                    assert_eq!(got[lane], s.get(out), "{out} lane {lane} cycle {cyc}");
                }
            }
            batched.step().unwrap();
            for s in &mut scalars {
                s.step().unwrap();
            }
        }
        for addr in 0..16u64 {
            for (lane, s) in scalars.iter().enumerate() {
                assert_eq!(
                    batched.read_mem_lane("ram", lane, addr),
                    s.read_mem("ram", addr),
                    "ram[{addr}] lane {lane}"
                );
            }
        }
    }

    #[test]
    fn batched_assertion_reports_lowest_failing_lane() {
        let mut m = VModule::new("guarded");
        m.port("clk", Dir::Input, 1);
        m.port("en", Dir::Input, 1);
        m.port("addr", Dir::Input, 8);
        m.main_always().stmts.push(Stmt::Assert {
            guard: Expr::r("en"),
            cond: Expr::bin(BinOp::ULt, Expr::r("addr"), Expr::c(16, 8)),
            message: "address out of bounds".into(),
        });
        let mut d = Design::new();
        d.add(m);
        let mut sim = Simulator::new(&d, "guarded").expect("build");
        sim.set_batch_lanes(4);
        sim.set_engine(Engine::Batched);
        sim.set("en", 1);
        let addr = sim.net_id("addr").unwrap();
        sim.poke_row(addr, 0b1111, &[3, 3, 200, 200]);
        let err = sim.step().unwrap_err();
        assert!(err.message.contains("[lane 2]"), "{err}");
        // Lane-0 failures keep the scalar message verbatim.
        let mut sim0 = Simulator::new(&d, "guarded").expect("build");
        sim0.set_batch_lanes(2);
        sim0.set_engine(Engine::Batched);
        sim0.set("en", 1);
        sim0.set("addr", 77);
        let err0 = sim0.step().unwrap_err();
        assert_eq!(err0.message, "address out of bounds");
    }

    #[test]
    fn engine_switch_mid_run_stays_consistent() {
        let d = mx_design();
        let mut a = Simulator::new(&d, "mx").expect("build");
        let mut b = Simulator::new(&d, "mx").expect("build");
        let mut state = 0xDEADBEEFCAFEF00Du64;
        let drive = |s: &mut Simulator, st: u64| {
            let mut st = st;
            for (port, width) in [("we", 1), ("waddr", 4), ("wdata", 16), ("raddr", 4)] {
                s.set(port, (st >> 24) & mask(width));
                st = st.rotate_left(17);
            }
        };
        for cyc in 0..240u64 {
            // b hops engines every 40 cycles; a stays on bytecode.
            if cyc % 40 == 0 {
                let e = ALL_ENGINES[(cyc / 40) as usize % ALL_ENGINES.len()];
                b.set_engine(e);
            }
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            drive(&mut a, state);
            drive(&mut b, state);
            assert_eq!(a.get("sum"), b.get("sum"), "cycle {cyc}");
            assert_eq!(a.get("rdata"), b.get("rdata"), "cycle {cyc}");
            a.step().unwrap();
            b.step().unwrap();
        }
        for addr in 0..16 {
            assert_eq!(a.read_mem("ram", addr), b.read_mem("ram", addr));
        }
    }

    #[test]
    fn telemetry_counts_exact_under_event_engine() {
        // The golden-count scenario from telemetry_counts_on_counter_are_exact,
        // replayed on the event engine: identical numbers while most cones
        // are skipped.
        let d = counter();
        let mut sim = Simulator::new(&d, "counter").expect("build");
        sim.set_engine(Engine::Event);
        sim.set("en", 1);
        sim.enable_telemetry(false);
        sim.run(10).unwrap();
        let r = sim.telemetry_report().expect("enabled");
        let net = |r: &TelemetryReport, name: &str| {
            r.nets.iter().find(|n| n.name == name).cloned().unwrap()
        };
        assert_eq!(net(&r, "value").toggle_cycles, 10);
        assert_eq!(net(&r, "en").high_cycles, 10);
        sim.set("en", 0);
        sim.step().unwrap();
        sim.run(9).unwrap();
        let r2 = sim.telemetry_report().expect("enabled");
        assert_eq!(r2.cycles, 20);
        assert!(r2.settle_cones.iter().all(|c| c.quiescent_cycles == 10));
        assert!(r2.step_cones.iter().all(|c| c.quiescent_cycles == 9));
    }

    #[test]
    fn telemetry_trace_is_chrome_trace_json() {
        let d = counter();
        let mut sim = Simulator::new(&d, "counter").expect("build");
        sim.enable_telemetry(true);
        sim.set("en", 1);
        sim.run(5).unwrap();
        sim.set("en", 0);
        sim.step().unwrap();
        sim.run(4).unwrap();
        let trace = sim.telemetry_trace().expect("trace recording on");
        let doc = obs::json::parse(&trace).expect("trace is strict JSON");
        assert!(doc.get("traceEvents").is_some());
        assert!(trace.contains("\"busy\""));
        assert!(trace.contains("\"quiescent\""));
        // Without record_trace there is no trace, but reports still work.
        let mut plain = Simulator::new(&d, "counter").expect("build");
        plain.enable_telemetry(false);
        plain.run(3).unwrap();
        assert!(plain.telemetry_trace().is_none());
        assert!(plain.telemetry_report().is_some());
    }
}
