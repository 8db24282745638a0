//! Bounded equivalence checking of two HIR modules' generated designs.
//!
//! For one function, both modules are lowered through the regular codegen
//! path to Verilog, then to word-level transition systems
//! ([`verilog::tsys`]), and unrolled K cycles over one shared word-level
//! [`Terms`] arena under a symbolic copy of the simulation harness's environment
//! ([`hir_codegen::testbench::Harness`]): `start` pulses at cycle 0, scalar
//! arguments are free symbolic words held stable, and every memref argument
//! bus talks to a symbolic read-first memory — the same word, same cycle,
//! on both sides. The *miter* asks, cycle by cycle, for any input valuation
//! where the two sides' observables diverge: `result{i}_valid` streams,
//! result words at valid pulses, or external memory contents. A cycle
//! whose disagreement term folds to the constant 0 is proved on the spot;
//! any other cycle blasts that term's cone onto one shared [`Blaster`] and
//! asks its SAT solver.
//!
//! Robustness invariants (see DESIGN.md):
//!
//! * **Counterexamples are replay-confirmed.** A SAT answer is only a
//!   *candidate*: the model's stimulus is extracted into concrete harness
//!   arguments and replayed through both designs in both simulator engines.
//!   Only a reproduced divergence is reported as a counterexample; an
//!   unconfirmed one degrades to sampling (and is reported as such).
//! * **Degradation is loud.** Budget exhaustion (conflicts or wall clock)
//!   never silently passes: the result downgrades to an N-sample
//!   differential simulation and says so in the status, the remark, and the
//!   machine-readable report.

use crate::blast::Blaster;
use crate::sat::{Budget, SatResult};
use crate::term::{TermId, Terms};
use crate::unroll::{eval_frame, initial_state, inputs_read, next_state, Frame};
use hir::ops::FuncOp;
use hir::types::MemrefInfo;
use hir_codegen::testbench::{Harness, HarnessArg, HarnessReport};
use hir_codegen::{bus, extern_stubs, generate_design, module_name, CodegenOptions};
use ir::Module;
use obs::json::{Json, Writer};
use obs::json_object;
use std::time::{Duration, Instant};
use verilog::tsys::{lower, NodeId, TOp, TransitionSystem};
use verilog::Design;

/// Options for one equivalence check.
#[derive(Clone, Debug)]
pub struct EquivOptions {
    /// Cycles to unroll (the bound K).
    pub k_cycles: u32,
    /// SAT conflict budget per function, across all K queries.
    pub conflict_budget: u64,
    /// Wall-clock budget per function. `None` = conflict budget only
    /// (required for deterministic runs, e.g. under the fuzzer).
    pub time_budget_ms: Option<u64>,
    /// Stimulus vectors for the sampled fallback.
    pub samples: u32,
    /// Simulation cycle bound for replays and sampling.
    pub replay_max_cycles: u64,
}

impl Default for EquivOptions {
    fn default() -> Self {
        EquivOptions {
            k_cycles: 16,
            conflict_budget: 500_000,
            time_budget_ms: Some(60_000),
            samples: 8,
            replay_max_cycles: hir_codegen::testbench::DEFAULT_SIM_MAX_CYCLES,
        }
    }
}

/// One concrete stimulus argument of a counterexample.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StimulusArg {
    Int(i128),
    Mem(Vec<i128>),
}

impl StimulusArg {
    pub fn to_harness_arg(&self) -> HarnessArg {
        match self {
            StimulusArg::Int(v) => HarnessArg::Int(*v),
            StimulusArg::Mem(d) => HarnessArg::Mem(d.clone()),
        }
    }
}

/// A replay-confirmed divergence between the two designs.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// Cycle at which the miter first diverged (SAT query index).
    pub cycle: u32,
    /// Concrete stimulus, one entry per function argument.
    pub stimulus: Vec<StimulusArg>,
    /// Human-readable description of the observed divergence.
    pub detail: String,
}

/// Outcome of one function's check.
#[derive(Clone, Debug)]
pub enum EquivStatus {
    /// UNSAT at every cycle ≤ K: the designs agree on all observables for
    /// K cycles, for every input.
    Proved,
    /// A replay-confirmed miscompile.
    Counterexample(Counterexample),
    /// Proof did not complete; equivalence was checked on `samples`
    /// concrete stimulus vectors instead. `reason` says why the proof
    /// degraded. This is weaker evidence and is never reported as a pass
    /// without the degradation being visible.
    Sampled { samples: u32, reason: String },
}

impl EquivStatus {
    pub fn label(&self) -> &'static str {
        match self {
            EquivStatus::Proved => "proved",
            EquivStatus::Counterexample(_) => "counterexample",
            EquivStatus::Sampled { .. } => "sampled",
        }
    }
}

/// Per-function proof report.
#[derive(Clone, Debug)]
pub struct FuncReport {
    pub func: String,
    /// The bound that was requested.
    pub k: u32,
    pub status: EquivStatus,
    /// SAT conflicts spent on this function.
    pub conflicts: u64,
    /// SAT variables the miter's queries encoded.
    pub vars: u32,
    /// Wall-clock time spent, in milliseconds.
    pub time_ms: u64,
    /// Solver, blaster, and per-phase statistics for this proof.
    pub solver: SolverStats,
}

/// What one cycle of the miter built and what its query encoded.
#[derive(Clone, Copy, Debug)]
pub struct FrameStats {
    /// Unroll cycle this frame corresponds to.
    pub cycle: u32,
    /// Word-level terms this cycle built.
    pub terms_added: u64,
    /// Gate-table nodes the blaster built for this cycle's query and its
    /// assertions: 0 when the query folded at word level.
    pub gates_added: u64,
    /// Clauses encoded for this cycle's query and its assertions, counted
    /// before the search, so learnt clauses stay out.
    pub clauses_added: u64,
    /// SAT variables encoded for this cycle's query and its assertions.
    pub vars_added: u64,
}

/// Solver/blaster counters and per-phase wall-clock times for one proof.
/// Everything except the `*_ms` fields is deterministic for a fixed input.
#[derive(Clone, Debug, Default)]
pub struct SolverStats {
    pub conflicts: u64,
    pub decisions: u64,
    pub propagations: u64,
    pub restarts: u64,
    /// Length distribution of learnt clauses.
    pub learnt_len: obs::Histogram,
    /// Decision-level distribution at each decision.
    pub decision_depth: obs::Histogram,
    /// Structural-hash gate cache hits/misses in the blaster.
    pub blast_cache_hits: u64,
    pub blast_cache_misses: u64,
    /// Word-level terms built, leaves and constants included.
    pub terms: u64,
    /// Gate-table nodes the blaster built, the constant included.
    pub gates: u64,
    /// Final clause-database size: the encoded cones plus surviving
    /// learnts.
    pub clauses: u64,
    /// Final variable count: nodes of the encoded cones.
    pub vars: u64,
    /// Per-unroll-frame growth of the term arena, the gate table and the
    /// CNF.
    pub frames: Vec<FrameStats>,
    /// Wall-clock per phase, in milliseconds.
    pub lower_ms: u64,
    pub blast_ms: u64,
    pub solve_ms: u64,
    pub replay_ms: u64,
}

/// Strict single-line JSON object, embedded in the equivalence report.
/// `*_ms` fields are wall clock and vary run to run; every other field is
/// deterministic.
impl Json for SolverStats {
    fn write_json(&self, w: &mut Writer) {
        json_object!(w, {
            "conflicts": self.conflicts, "decisions": self.decisions,
            "propagations": self.propagations, "restarts": self.restarts,
            "terms": self.terms, "gates": self.gates, "clauses": self.clauses,
            "vars": self.vars,
            "blast_cache": {"hits": self.blast_cache_hits, "misses": self.blast_cache_misses},
            "learnt_len": self.learnt_len, "decision_depth": self.decision_depth,
            "frames": [for f in &self.frames => {
                "cycle": f.cycle, "terms_added": f.terms_added, "gates_added": f.gates_added,
                "clauses_added": f.clauses_added, "vars_added": f.vars_added,
            }],
            "phase_ms": {
                "lower": self.lower_ms, "blast": self.blast_ms,
                "solve": self.solve_ms, "replay": self.replay_ms,
            },
        });
    }
}

/// Failure to even *pose* the equivalence question (distinct from a
/// negative or inconclusive answer, which is an [`EquivStatus`]).
#[derive(Clone, Debug)]
pub enum EquivError {
    /// Code generation or elaboration failed on either side.
    Codegen(String),
    /// The design uses a construct outside the transition-system fragment.
    Lower(String),
    /// The two modules disagree about the function's interface.
    Signature(String),
    /// A replay or sampling simulation exceeded its cycle budget. This maps
    /// to a structured diagnostic (exit code 1), never a panic or a pass.
    SimBudget { func: String, detail: String },
}

impl std::fmt::Display for EquivError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EquivError::Codegen(e) => write!(f, "codegen: {e}"),
            EquivError::Lower(e) => write!(f, "transition-system lowering: {e}"),
            EquivError::Signature(e) => write!(f, "signature mismatch: {e}"),
            EquivError::SimBudget { func, detail } => {
                write!(
                    f,
                    "simulation budget exhausted while verifying @{func}: {detail}"
                )
            }
        }
    }
}

impl std::error::Error for EquivError {}

// ------------------------------------------------------ environment model

/// One memref argument's bus geometry (mirrors `Harness`'s `MemModel`).
struct EnvMem {
    arg_index: usize,
    base: String,
    banks: u64,
    bank_size: u64,
    elem_width: u32,
    /// Zero-latency (register-kind) reads are served combinationally.
    latency0: bool,
    can_read: bool,
    can_write: bool,
    total_words: u64,
}

/// The function's environment interface.
struct EnvSpec {
    /// (arg index, port name, width) per scalar argument.
    scalars: Vec<(usize, String, u32)>,
    mems: Vec<EnvMem>,
    result_count: usize,
}

fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

fn build_env_spec(m: &Module, func: FuncOp) -> Result<EnvSpec, EquivError> {
    let formal = func.args(m);
    let arg_names = func
        .arg_names(m)
        .unwrap_or_else(|| (0..formal.len()).map(|i| format!("arg{i}")).collect());
    let mut scalars = Vec::new();
    let mut mems = Vec::new();
    for (i, &v) in formal.iter().enumerate() {
        let ty = m.value_type(v);
        let base = sanitize(&arg_names[i]);
        match MemrefInfo::from_type(&ty) {
            Some(info) => mems.push(EnvMem {
                arg_index: i,
                base,
                banks: info.num_banks(),
                bank_size: info.bank_size(),
                elem_width: info.elem.bit_width().unwrap_or(32),
                latency0: info.kind.read_latency() == 0,
                can_read: info.port.can_read(),
                can_write: info.port.can_write(),
                total_words: info.num_elements(),
            }),
            None => scalars.push((i, base, ty.bit_width().unwrap_or(32))),
        }
    }
    Ok(EnvSpec {
        scalars,
        mems,
        result_count: func.result_types(m).len(),
    })
}

// ------------------------------------------------------------- the miter

/// What drives one input of a side's transition system, resolved once.
#[derive(Clone, Copy)]
enum Drive {
    /// The same term on every cycle: a scalar argument, or the reset value
    /// of an input the environment does not drive.
    Fixed(TermId),
    /// `start`: `first` at cycle 0, `rest` after.
    Start { first: TermId, rest: TermId },
    /// Latched read data (latency ≥ 1) of memref `mem`'s bank `bank`.
    Latched { mem: usize, bank: usize },
    /// Zero-latency read data the design reads: a fresh leaf per cycle,
    /// tied to the word at the bank's address net `addr` by a queued
    /// equality.
    Served {
        mem: usize,
        bank: usize,
        addr: NodeId,
    },
}

/// A latched read bus: enable and address nets.
struct ReadBus {
    mem: usize,
    bank: usize,
    en: NodeId,
    addr: NodeId,
}

/// A write bus: enable, address and data nets.
struct WriteBus {
    mem: usize,
    bank: usize,
    en: NodeId,
    addr: NodeId,
    data: NodeId,
}

/// One side of the miter: a design's transition system plus its symbolic
/// state (registers, environment memories, in-flight read data), and the
/// nets and input drives the environment uses, looked up once.
struct Side<'a> {
    ts: &'a TransitionSystem,
    state: Vec<TermId>,
    /// The last evaluated cycle; the next one re-evaluates only its changes.
    frame: Option<Frame>,
    /// Environment memory words per memref argument (bank-major).
    mem_words: Vec<Vec<TermId>>,
    /// Carried read data per memref per bank (latency ≥ 1 buses).
    rd_data: Vec<Vec<TermId>>,
    /// Per input of `ts`.
    drives: Vec<Drive>,
    reads: Vec<ReadBus>,
    writes: Vec<WriteBus>,
    /// `(result{i}_valid, result{i})` per result.
    results: Vec<(NodeId, NodeId)>,
}

impl<'a> Side<'a> {
    /// The frame of the last [`step_side`].
    fn frame(&self) -> &Frame {
        self.frame
            .as_ref()
            .expect("side stepped before observation")
    }
}

fn net(ts: &TransitionSystem, name: &str) -> Result<NodeId, EquivError> {
    ts.nets
        .get(name)
        .copied()
        .ok_or_else(|| EquivError::Signature(format!("net '{name}' missing from design")))
}

/// Addressable word offsets of `addr_width` bits within a bank of
/// `bank_words` words.
fn reachable(bank_words: u64, addr_width: u32) -> u64 {
    if addr_width >= 63 {
        bank_words
    } else {
        bank_words.min(1u64 << addr_width)
    }
}

/// The words `lo..hi` of `store` that bank `bank` can address with
/// `addr_width` bits.
fn bank_span(em: &EnvMem, bank: usize, addr_width: u32) -> (u64, u64) {
    let lo = bank as u64 * em.bank_size;
    let hi = (lo + reachable(em.total_words.saturating_sub(lo), addr_width)).min(em.total_words);
    (lo, hi)
}

/// Read-first lookup of `store[bank*bank_size + addr]`, out-of-range = 0 —
/// exactly `Harness::serve_reads_pre` / `apply_requests`. A constant
/// address takes its word directly: every select of the mux chain folds
/// to a constant, so the chain would return that word (or the zero word).
fn read_word(
    terms: &mut Terms,
    store: &[TermId],
    em: &EnvMem,
    bank: usize,
    addr: TermId,
) -> TermId {
    let (lo, hi) = bank_span(em, bank, terms.width(addr));
    match terms.value(addr) {
        Some(a) if a < hi.saturating_sub(lo) => store[(lo + a) as usize],
        Some(_) => terms.konst(0, em.elem_width),
        None => read_mux(terms, store, em, bank, addr),
    }
}

/// [`read_word`] as a mux chain over every addressable word.
fn read_mux(terms: &mut Terms, store: &[TermId], em: &EnvMem, bank: usize, addr: TermId) -> TermId {
    let aw = terms.width(addr);
    let (lo, hi) = bank_span(em, bank, aw);
    let mut acc = terms.konst(0, em.elem_width);
    for j in (lo..hi).rev() {
        let off = terms.konst(j - lo, aw);
        let sel = terms.binary(TOp::Eq, addr, off);
        acc = terms.ite(sel, store[j as usize], acc);
    }
    acc
}

/// `store[bank*bank_size + addr] = data` when `en` holds; out-of-range
/// writes are dropped. A constant address updates only its word, and a
/// constant-false enable none: every other word's select folds to false.
fn write_word(
    terms: &mut Terms,
    store: &mut [TermId],
    em: &EnvMem,
    bank: usize,
    en: TermId,
    addr: TermId,
    data: TermId,
) {
    let (lo, hi) = bank_span(em, bank, terms.width(addr));
    match terms.value(addr) {
        Some(_) if terms.value(en) == Some(0) => {}
        Some(a) => {
            if a < hi.saturating_sub(lo) {
                let j = (lo + a) as usize;
                store[j] = terms.ite(en, data, store[j]);
            }
        }
        None => write_mux(terms, store, em, bank, en, addr, data),
    }
}

/// [`write_word`] as a mux per addressable word.
fn write_mux(
    terms: &mut Terms,
    store: &mut [TermId],
    em: &EnvMem,
    bank: usize,
    en: TermId,
    addr: TermId,
    data: TermId,
) {
    let aw = terms.width(addr);
    let (lo, hi) = bank_span(em, bank, aw);
    for j in lo..hi {
        let off = terms.konst(j - lo, aw);
        let hit = terms.binary(TOp::Eq, addr, off);
        let hit = terms.binary(TOp::And, en, hit);
        store[j as usize] = terms.ite(hit, data, store[j as usize]);
    }
}

/// `diff ∨ (a ≠ b)` over corresponding words. Equal terms compare equal
/// without a new term, so they are skipped.
fn words_differ(terms: &mut Terms, mut diff: TermId, a: &[TermId], b: &[TermId]) -> TermId {
    for (&wa, &wb) in a.iter().zip(b) {
        if wa == wb {
            continue;
        }
        let ne = terms.binary(TOp::Ne, wa, wb);
        diff = terms.binary(TOp::Or, diff, ne);
    }
    diff
}

/// Advance one side by one cycle, leaving the frame in `side.frame` for
/// observable extraction. The equalities that serve this cycle's
/// zero-latency reads go to `served`, to be asserted before the next query.
fn step_side(
    terms: &mut Terms,
    side: &mut Side<'_>,
    env: &EnvSpec,
    cycle: u32,
    served: &mut Vec<TermId>,
) {
    // 1. This cycle's inputs.
    let mut inputs: Vec<TermId> = Vec::with_capacity(side.drives.len());
    let mut leaves: Vec<(TermId, usize, usize, NodeId)> = Vec::new();
    for (iv, drive) in side.ts.inputs.iter().zip(&side.drives) {
        inputs.push(match *drive {
            Drive::Fixed(t) => t,
            Drive::Start { first, rest } => {
                if cycle == 0 {
                    first
                } else {
                    rest
                }
            }
            Drive::Latched { mem, bank } => terms.fit(side.rd_data[mem][bank], iv.width),
            Drive::Served { mem, bank, addr } => {
                let leaf = terms.leaf(iv.width);
                leaves.push((leaf, mem, bank, addr));
                leaf
            }
        });
    }

    // 2. Evaluate the design's combinational cone.
    let state = std::mem::take(&mut side.state);
    let frame = eval_frame(terms, side.ts, side.frame.take(), state, inputs);

    // 3. Zero-latency reads: the read data the design consumed this cycle
    //    must equal the current memory word at the bus address (the harness
    //    serves these before the edge; addresses come from registers, so
    //    the fixpoint is unique).
    for (leaf, mem, bank, addr) in leaves {
        let store = &side.mem_words[mem];
        let word = read_word(terms, store, &env.mems[mem], bank, frame.get(addr));
        let word = terms.fit(word, terms.width(leaf));
        served.push(terms.binary(TOp::Eq, leaf, word));
    }

    // 4. Latched reads (latency ≥ 1): data arrives next cycle, held when
    //    the enable is low — the harness's post-edge `apply_requests`.
    for r in &side.reads {
        let en = terms.slice(frame.get(r.en), 0, 0);
        let store = &side.mem_words[r.mem];
        let word = read_word(terms, store, &env.mems[r.mem], r.bank, frame.get(r.addr));
        let cur = side.rd_data[r.mem][r.bank];
        let word = terms.fit(word, terms.width(cur));
        side.rd_data[r.mem][r.bank] = terms.ite(en, word, cur);
    }

    // 5. Writes land after the edge, reads-first (they saw the old words
    //    above), in (mem, bank) order — later writes win.
    for w in &side.writes {
        let em = &env.mems[w.mem];
        let en = terms.slice(frame.get(w.en), 0, 0);
        let data = terms.fit(frame.get(w.data), em.elem_width);
        let store = &mut side.mem_words[w.mem];
        write_word(terms, store, em, w.bank, en, frame.get(w.addr), data);
    }

    // 6. Register update.
    side.state = next_state(side.ts, &frame);
    side.frame = Some(frame);
}

/// Per-cycle observables: result valid/value streams and memory contents,
/// as one 1-bit disagreement term.
fn observe_diff(terms: &mut Terms, a: &Side<'_>, b: &Side<'_>) -> TermId {
    let (fa, fb) = (a.frame(), b.frame());
    let mut diff = terms.konst(0, 1);
    for (&(valid_a, ra), &(valid_b, rb)) in a.results.iter().zip(&b.results) {
        let va = terms.slice(fa.get(valid_a), 0, 0);
        let vb = terms.slice(fb.get(valid_b), 0, 0);
        let (ra, rb) = (fa.get(ra), fb.get(rb));
        let valid_mismatch = terms.binary(TOp::Xor, va, vb);
        diff = terms.binary(TOp::Or, diff, valid_mismatch);
        let w = terms.width(ra).max(terms.width(rb));
        let ra = terms.fit(ra, w);
        let rb = terms.fit(rb, w);
        let value_mismatch = terms.binary(TOp::Ne, ra, rb);
        let observed_mismatch = terms.binary(TOp::And, va, value_mismatch);
        diff = terms.binary(TOp::Or, diff, observed_mismatch);
    }
    // Memory contents after this cycle's writes. Untouched words are the
    // same terms on both sides and fold away for free.
    for (wa, wb) in a.mem_words.iter().zip(&b.mem_words) {
        diff = words_differ(terms, diff, wa, wb);
    }
    diff
}

// ----------------------------------------------------------- entry point

/// Check that `func_name`'s generated design is observably equivalent in
/// `unopt` and `opt` for `opts.k_cycles` cycles.
///
/// # Errors
/// Only for failures to pose or replay the question (codegen, lowering,
/// simulation budget); a divergence or an inconclusive proof is a normal
/// [`EquivStatus`].
pub fn check_func_equivalence(
    unopt: &Module,
    opt: &Module,
    func_name: &str,
    opts: &EquivOptions,
) -> Result<FuncReport, EquivError> {
    let started = Instant::now();
    let _span = obs::span("verify_equiv");

    let func_a = find_func(unopt, func_name)?;
    let func_b = find_func(opt, func_name)?;
    let env = build_env_spec(unopt, func_a)?;
    let env_b = build_env_spec(opt, func_b)?;
    if env.scalars.len() != env_b.scalars.len() || env.mems.len() != env_b.mems.len() {
        return Err(EquivError::Signature(format!(
            "@{func_name}: argument shape changed across optimization"
        )));
    }

    let lower_started = Instant::now();
    let (ts_a, ts_b) = {
        let _sp = obs::span("equiv_lower");
        let design_a = build_design(unopt)?;
        let design_b = build_design(opt)?;
        let top = module_name(func_name);
        let ts_a = lower(&design_a, &top).map_err(|e| EquivError::Lower(e.to_string()))?;
        let ts_b = lower(&design_b, &top).map_err(|e| EquivError::Lower(e.to_string()))?;
        (ts_a, ts_b)
    };
    let mut phases = Phases {
        lower: lower_started.elapsed(),
        ..Phases::default()
    };

    let mut terms = Terms::new();
    let mut bl = Blaster::new();
    let start_conflicts = bl.solver().conflicts;
    let deadline = opts
        .time_budget_ms
        .map(|ms| started + std::time::Duration::from_millis(ms));

    // Shared symbolic stimulus: scalars and initial memory words.
    let scalars: Vec<TermId> = env.scalars.iter().map(|&(_, _, w)| terms.leaf(w)).collect();
    let init_words: Vec<Vec<TermId>> = env
        .mems
        .iter()
        .map(|em| {
            (0..em.total_words)
                .map(|_| terms.leaf(em.elem_width))
                .collect()
        })
        .collect();

    let mut side_a = make_side(&mut terms, &ts_a, &env, &scalars, &init_words)?;
    let mut side_b = make_side(&mut terms, &ts_b, &env, &scalars, &init_words)?;

    let report = |status: EquivStatus,
                  terms: &Terms,
                  bl: &Blaster,
                  phases: &Phases,
                  frames: &[FrameStats]| {
        let solver = bl.solver();
        FuncReport {
            func: func_name.to_string(),
            k: opts.k_cycles,
            status,
            conflicts: solver.conflicts - start_conflicts,
            vars: solver.num_vars(),
            time_ms: started.elapsed().as_millis() as u64,
            solver: SolverStats {
                conflicts: solver.conflicts - start_conflicts,
                decisions: solver.decisions,
                propagations: solver.propagations,
                restarts: solver.restarts,
                learnt_len: solver.learnt_len.clone(),
                decision_depth: solver.decision_depth.clone(),
                blast_cache_hits: bl.cache_hits,
                blast_cache_misses: bl.cache_misses,
                terms: terms.len() as u64,
                gates: bl.num_gates() as u64,
                clauses: solver.num_clauses() as u64,
                vars: u64::from(solver.num_vars()),
                frames: frames.to_vec(),
                lower_ms: phases.lower.as_millis() as u64,
                blast_ms: phases.blast.as_millis() as u64,
                solve_ms: phases.solve.as_millis() as u64,
                replay_ms: phases.replay.as_millis() as u64,
            },
        }
    };
    // The loud degradation when a budget runs out at `cycle`.
    let exhausted = |cycle: u32, bl: &Blaster, phases: &mut Phases| {
        let reason = format!(
            "proof budget exhausted at cycle {cycle}/{} ({} conflicts)",
            opts.k_cycles,
            bl.solver().conflicts - start_conflicts,
        );
        let replay_started = Instant::now();
        let st = {
            let _sp = obs::span("equiv_replay");
            sampled_fallback(unopt, opt, func_name, opts, reason)
        };
        phases.replay += replay_started.elapsed();
        st
    };

    let mut frames: Vec<FrameStats> = Vec::new();
    // Size baseline per frame, re-snapshotted after each frame and each
    // solve so the deltas attribute encoded clauses (not learnts) to each
    // unroll cycle.
    let sizes = |terms: &Terms, bl: &Blaster| {
        let solver = bl.solver();
        (
            terms.len() as u64,
            bl.num_gates() as u64,
            solver.num_clauses() as u64,
            u64::from(solver.num_vars()),
        )
    };
    let mut last = sizes(&terms, &bl);
    // Zero-latency read-serving equalities not yet asserted.
    let mut served: Vec<TermId> = Vec::new();

    for cycle in 0..opts.k_cycles {
        // A cycle that folds never reaches the solver's own deadline check.
        if deadline.is_some_and(|d| Instant::now() >= d) {
            let st = exhausted(cycle, &bl, &mut phases)?;
            return Ok(report(st, &terms, &bl, &phases, &frames));
        }
        let blast_started = Instant::now();
        let query = {
            let _sp = obs::span("equiv_blast");
            step_side(&mut terms, &mut side_a, &env, cycle, &mut served);
            step_side(&mut terms, &mut side_b, &env, cycle, &mut served);
            let diff = observe_diff(&mut terms, &side_a, &side_b);
            // A diff that folds to 0 is false for every input: this cycle
            // is proved without a gate.
            (terms.value(diff) != Some(0)).then(|| {
                for eq in served.drain(..) {
                    let l = terms.blast(&mut bl, eq)[0];
                    bl.assert_true(l);
                }
                let d = terms.blast(&mut bl, diff)[0];
                bl.encode(&[d]);
                d
            })
        };
        phases.blast += blast_started.elapsed();
        let now = sizes(&terms, &bl);
        frames.push(FrameStats {
            cycle,
            terms_added: now.0 - last.0,
            gates_added: now.1 - last.1,
            clauses_added: now.2 - last.2,
            vars_added: now.3 - last.3,
        });
        last = now;
        let Some(diff) = query else {
            continue;
        };

        let spent = bl.solver().conflicts - start_conflicts;
        let budget = Budget {
            max_conflicts: opts.conflict_budget.saturating_sub(spent).max(1),
            deadline,
        };
        let solve_started = Instant::now();
        let res = {
            let _sp = obs::span("equiv_solve");
            bl.solve(&[diff], budget)
        };
        phases.solve += solve_started.elapsed();
        match res {
            SatResult::Unsat => {
                // Proven no divergence at this cycle; pin it for the rest
                // of the unrolling.
                bl.assert_true(diff.flip());
                last = sizes(&terms, &bl);
            }
            SatResult::Sat => {
                let stimulus = extract_stimulus(&terms, &bl, &env, &scalars, &init_words);
                let replay_started = Instant::now();
                let _rsp = obs::span("equiv_replay");
                let status = match replay(unopt, opt, func_name, &stimulus, opts)? {
                    Some(detail) => EquivStatus::Counterexample(Counterexample {
                        cycle,
                        stimulus,
                        detail,
                    }),
                    None => {
                        // The model did not reproduce: the abstraction is
                        // off somewhere. Never report an unconfirmed
                        // counterexample — and never a silent pass either.
                        let reason = format!(
                            "candidate counterexample at cycle {cycle} did not reproduce in replay"
                        );
                        sampled_fallback(unopt, opt, func_name, opts, reason)?
                    }
                };
                drop(_rsp);
                phases.replay += replay_started.elapsed();
                return Ok(report(status, &terms, &bl, &phases, &frames));
            }
            SatResult::Unknown => {
                let st = exhausted(cycle, &bl, &mut phases)?;
                return Ok(report(st, &terms, &bl, &phases, &frames));
            }
        }
    }
    Ok(report(EquivStatus::Proved, &terms, &bl, &phases, &frames))
}

/// Wall-clock accumulators per proof phase. Blast and solve run once per
/// unrolled cycle, often for well under a millisecond each, so the phases
/// are summed exactly and rounded to whole milliseconds only in the report.
#[derive(Default)]
struct Phases {
    lower: Duration,
    blast: Duration,
    solve: Duration,
    replay: Duration,
}

/// Check every non-external function the two modules share.
///
/// # Errors
/// See [`check_func_equivalence`].
pub fn check_module_equivalence(
    unopt: &Module,
    opt: &Module,
    opts: &EquivOptions,
) -> Result<Vec<FuncReport>, EquivError> {
    let mut out = Vec::new();
    for &top in unopt.top_ops() {
        let Some(func) = FuncOp::wrap(unopt, top) else {
            continue;
        };
        if func.is_external(unopt) {
            continue;
        }
        out.push(check_func_equivalence(unopt, opt, &func.name(unopt), opts)?);
    }
    Ok(out)
}

/// Lower one function's generated design to textual BTOR2
/// (`hirc --emit=btor2`). Assertions become `bad` properties.
///
/// # Errors
/// Codegen or lowering failure.
pub fn export_btor2(m: &Module, func_name: &str) -> Result<String, EquivError> {
    let design = build_design(m)?;
    let ts =
        lower(&design, &module_name(func_name)).map_err(|e| EquivError::Lower(e.to_string()))?;
    Ok(verilog::tsys::to_btor2(&ts))
}

// -------------------------------------------------------------- plumbing

fn find_func(m: &Module, name: &str) -> Result<FuncOp, EquivError> {
    for &top in m.top_ops() {
        if let Some(f) = FuncOp::wrap(m, top) {
            if f.name(m) == name {
                return Ok(f);
            }
        }
    }
    Err(EquivError::Signature(format!("no function @{name}")))
}

fn build_design(m: &Module) -> Result<Design, EquivError> {
    let mut design = generate_design(m, &CodegenOptions::default())
        .map_err(|e| EquivError::Codegen(e.to_string()))?;
    for stub in extern_stubs(m).map_err(|e| EquivError::Codegen(e.to_string()))? {
        design.add(stub);
    }
    Ok(design)
}

/// One side of the miter over the shared stimulus, with every net and
/// input drive the environment uses resolved once.
fn make_side<'a>(
    terms: &mut Terms,
    ts: &'a TransitionSystem,
    env: &EnvSpec,
    scalars: &[TermId],
    init_words: &[Vec<TermId>],
) -> Result<Side<'a>, EquivError> {
    let input_read = inputs_read(ts);
    let mut drives = Vec::with_capacity(ts.inputs.len());
    for (i, iv) in ts.inputs.iter().enumerate() {
        let drive = if iv.name == "start" {
            Drive::Start {
                first: terms.konst(1, iv.width),
                rest: terms.konst(0, iv.width),
            }
        } else if let Some(pos) = env.scalars.iter().position(|(_, b, _)| *b == iv.name) {
            Drive::Fixed(terms.fit(scalars[pos], iv.width))
        } else if let Some((mem, bank)) = find_rd_data(env, &iv.name) {
            let em = &env.mems[mem];
            if !em.latency0 {
                Drive::Latched { mem, bank }
            } else if input_read[i] {
                let addr = net(ts, &bus(&em.base, bank as u64, em.banks, "addr"))?;
                Drive::Served { mem, bank, addr }
            } else {
                // Nothing reads this bank's data, so it needs no serving.
                Drive::Fixed(terms.konst(iv.init, iv.width))
            }
        } else {
            Drive::Fixed(terms.konst(iv.init, iv.width))
        };
        drives.push(drive);
    }
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    for (mem, em) in env.mems.iter().enumerate() {
        for bank in 0..em.banks {
            let name = |signal: &str| net(ts, &bus(&em.base, bank, em.banks, signal));
            let bank = bank as usize;
            if em.can_read && !em.latency0 {
                let en = name("rd_en")?;
                let addr = name("addr")?;
                reads.push(ReadBus {
                    mem,
                    bank,
                    en,
                    addr,
                });
            }
            if em.can_write {
                let en = name("wr_en")?;
                let addr = name("waddr")?;
                let data = name("wr_data")?;
                writes.push(WriteBus {
                    mem,
                    bank,
                    en,
                    addr,
                    data,
                });
            }
        }
    }
    let results = (0..env.result_count)
        .map(|i| {
            Ok((
                net(ts, &format!("result{i}_valid"))?,
                net(ts, &format!("result{i}"))?,
            ))
        })
        .collect::<Result<_, EquivError>>()?;
    Ok(Side {
        ts,
        state: initial_state(terms, ts),
        frame: None,
        mem_words: init_words.to_vec(),
        rd_data: env
            .mems
            .iter()
            .map(|em| vec![terms.konst(0, em.elem_width); em.banks as usize])
            .collect(),
        drives,
        reads,
        writes,
        results,
    })
}

/// The (memref, bank) whose read-data bus is the input `input_name`.
fn find_rd_data(env: &EnvSpec, input_name: &str) -> Option<(usize, usize)> {
    for (mi, em) in env.mems.iter().enumerate() {
        if !em.can_read {
            continue;
        }
        for b in 0..em.banks {
            if bus(&em.base, b, em.banks, "rd_data") == input_name {
                return Some((mi, b as usize));
            }
        }
    }
    None
}

fn sign(v: u64, width: u32) -> i128 {
    if width >= 64 {
        return v as i64 as i128;
    }
    if v & (1u64 << (width - 1)) != 0 {
        v as i128 - (1i128 << width)
    } else {
        v as i128
    }
}

/// Read the satisfying model back as concrete harness arguments, in
/// function-argument order.
fn extract_stimulus(
    terms: &Terms,
    bl: &Blaster,
    env: &EnvSpec,
    scalars: &[TermId],
    init_words: &[Vec<TermId>],
) -> Vec<StimulusArg> {
    let mut by_index: Vec<(usize, StimulusArg)> = Vec::new();
    for (pos, &(arg_index, _, width)) in env.scalars.iter().enumerate() {
        by_index.push((
            arg_index,
            StimulusArg::Int(sign(terms.model(bl, scalars[pos]), width)),
        ));
    }
    for (mi, em) in env.mems.iter().enumerate() {
        let words = init_words[mi]
            .iter()
            .map(|&w| sign(terms.model(bl, w), em.elem_width))
            .collect();
        by_index.push((em.arg_index, StimulusArg::Mem(words)));
    }
    by_index.sort_by_key(|&(i, _)| i);
    by_index.into_iter().map(|(_, a)| a).collect()
}

/// Outcome of simulating one design on one stimulus.
enum RunOutcome {
    Report(HarnessReport),
    /// RTL assertion fired (message).
    Assertion(String),
}

fn run_once(
    m: &Module,
    func_name: &str,
    stimulus: &[StimulusArg],
    engine: verilog::Engine,
    max_cycles: u64,
) -> Result<RunOutcome, EquivError> {
    let design = build_design(m)?;
    let func = find_func(m, func_name)?;
    let args: Vec<HarnessArg> = stimulus.iter().map(StimulusArg::to_harness_arg).collect();
    let mut h =
        Harness::new(&design, m, func, &args).map_err(|e| EquivError::Codegen(e.to_string()))?;
    h.set_engine(engine);
    match h.run(max_cycles) {
        Ok(r) => Ok(RunOutcome::Report(r)),
        Err(e) => {
            let msg = e.to_string();
            if msg.contains("did not quiesce") {
                Err(EquivError::SimBudget {
                    func: func_name.to_string(),
                    detail: msg,
                })
            } else {
                Ok(RunOutcome::Assertion(msg))
            }
        }
    }
}

/// Replay a candidate stimulus through both designs in both engines.
/// Returns `Some(detail)` when the divergence reproduces.
fn replay(
    unopt: &Module,
    opt: &Module,
    func_name: &str,
    stimulus: &[StimulusArg],
    opts: &EquivOptions,
) -> Result<Option<String>, EquivError> {
    for engine in [verilog::Engine::Bytecode, verilog::Engine::TreeWalk] {
        let a = run_once(unopt, func_name, stimulus, engine, opts.replay_max_cycles)?;
        let b = run_once(opt, func_name, stimulus, engine, opts.replay_max_cycles)?;
        match (a, b) {
            (RunOutcome::Report(ra), RunOutcome::Report(rb)) => {
                if ra.results != rb.results {
                    return Ok(Some(format!(
                        "results diverged ({engine:?}): unoptimized {:?} vs optimized {:?}",
                        ra.results, rb.results
                    )));
                }
                if ra.mems != rb.mems {
                    return Ok(Some(format!("memory contents diverged ({engine:?})")));
                }
            }
            (RunOutcome::Assertion(ea), RunOutcome::Assertion(eb)) => {
                if ea != eb {
                    return Ok(Some(format!(
                        "assertion behavior diverged ({engine:?}): '{ea}' vs '{eb}'"
                    )));
                }
            }
            (RunOutcome::Report(_), RunOutcome::Assertion(e)) => {
                return Ok(Some(format!(
                    "optimized design fails an assertion the unoptimized one passes ({engine:?}): {e}"
                )));
            }
            (RunOutcome::Assertion(e), RunOutcome::Report(_)) => {
                return Ok(Some(format!(
                    "unoptimized design fails an assertion the optimized one passes ({engine:?}): {e}"
                )));
            }
        }
    }
    Ok(None)
}

/// Deterministic stimulus for sample `s`, mirroring the shapes used by
/// `opt_soundness` and `hirc --emit=sim` but varied per sample.
fn sample_stimulus(m: &Module, func: FuncOp, s: u32) -> Vec<StimulusArg> {
    let s = s as i128;
    func.args(m)
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            let ty = m.value_type(v);
            match MemrefInfo::from_type(&ty) {
                Some(info) => {
                    let n = info.num_elements() as usize;
                    if info.port.can_read() {
                        StimulusArg::Mem(
                            (0..n)
                                .map(|j| (j as i128 * 7 + i as i128 * 13 + s * 29 + 1) % 23)
                                .collect(),
                        )
                    } else {
                        StimulusArg::Mem(vec![0; n])
                    }
                }
                None => StimulusArg::Int((i as i128 + 3) * (s + 1) % 97),
            }
        })
        .collect()
}

/// Differential simulation of both designs on `opts.samples` deterministic
/// stimulus vectors, compared on the same observables as the miter (results
/// and final memories). Returns the first diverging stimulus with a
/// description, or `None` when all samples agree. This is also the
/// reduction oracle used when shrinking confirmed counterexamples.
///
/// # Errors
/// Codegen failure or simulation budget exhaustion.
pub fn sampled_divergence(
    unopt: &Module,
    opt: &Module,
    func_name: &str,
    opts: &EquivOptions,
) -> Result<Option<(Vec<StimulusArg>, String)>, EquivError> {
    let func = find_func(unopt, func_name)?;
    for s in 0..opts.samples {
        let stimulus = sample_stimulus(unopt, func, s);
        if let Some(detail) = replay(unopt, opt, func_name, &stimulus, opts)? {
            return Ok(Some((stimulus, detail)));
        }
    }
    Ok(None)
}

/// The loud-degradation path: equivalence on N concrete stimulus vectors
/// through RTL simulation of both designs.
fn sampled_fallback(
    unopt: &Module,
    opt: &Module,
    func_name: &str,
    opts: &EquivOptions,
    reason: String,
) -> Result<EquivStatus, EquivError> {
    match sampled_divergence(unopt, opt, func_name, opts)? {
        // Sampling found a real, already-replayed divergence: report it as
        // a counterexample, not a sampling pass.
        Some((stimulus, detail)) => Ok(EquivStatus::Counterexample(Counterexample {
            cycle: 0,
            stimulus,
            detail: format!("{detail} (found by sampled differential after: {reason})"),
        })),
        None => Ok(EquivStatus::Sampled {
            samples: opts.samples,
            reason,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A loop with state, a latched (latency-1) memory read, a latency-0
    /// read from a register memref, a symbolic scalar and a memory write.
    const ACC: &str = "
hir.func @acc at %t(
    %A : !hir.memref<8*i32, r, bram>,
    %R : !hir.memref<[2]*i32, r, reg>,
    %B : !hir.memref<8*i32, w, bram>,
    %x : i32) {
  %c0 = hir.constant 0 : index
  %c1 = hir.constant 1 : index
  %c8 = hir.constant 8 : index
  %r0 = hir.mem_read %R[%c0] at %t offset 0 : i32
  %tf = hir.for %i : i32 = %c0 to %c8 step %c1 iter_time(%ti = %t offset 1) {
    hir.yield at %ti offset 1
    %v = hir.mem_read %A[%i] at %ti offset 0 : i32
    %i1 = hir.delay %i by 1 at %ti offset 0 : i32
    %s = hir.add (%v, %x) : (i32, i32) -> (i32)
    %w = hir.add (%s, %r0) : (i32, i32) -> (i32)
    hir.mem_write %w to %B[%i1] at %ti offset 1
  }
  hir.return
}
";

    /// Per cycle: both sides' node values, the miter term, and the arena
    /// size after the cycle.
    type Unrolled = Vec<(Vec<TermId>, Vec<TermId>, TermId, usize)>;

    /// Unrolls `src`'s function against itself for `k` cycles. Without
    /// `reuse`, every frame is evaluated with no predecessor.
    fn unroll(src: &str, k: u32, reuse: bool) -> (Unrolled, Terms) {
        let m = hir::parse_pretty(src).expect("parse");
        let func = find_func(&m, "acc").unwrap();
        let env = build_env_spec(&m, func).unwrap();
        assert!(env.mems.iter().any(|em| em.latency0 && em.can_read));
        assert!(env.mems.iter().any(|em| !em.latency0 && em.can_read));
        let ts = lower(&build_design(&m).unwrap(), &module_name("acc")).unwrap();
        assert!(!ts.states.is_empty());
        let mut terms = Terms::new();
        let scalars: Vec<TermId> = env.scalars.iter().map(|s| terms.leaf(s.2)).collect();
        let init_words: Vec<Vec<TermId>> = env
            .mems
            .iter()
            .map(|em| {
                (0..em.total_words)
                    .map(|_| terms.leaf(em.elem_width))
                    .collect()
            })
            .collect();
        let mut a = make_side(&mut terms, &ts, &env, &scalars, &init_words).unwrap();
        let mut b = make_side(&mut terms, &ts, &env, &scalars, &init_words).unwrap();
        let mut served = Vec::new();
        let mut cycles = Vec::new();
        for cycle in 0..k {
            if !reuse {
                a.frame = None;
                b.frame = None;
            }
            step_side(&mut terms, &mut a, &env, cycle, &mut served);
            step_side(&mut terms, &mut b, &env, cycle, &mut served);
            let diff = observe_diff(&mut terms, &a, &b);
            cycles.push((
                a.frame().values.clone(),
                b.frame().values.clone(),
                diff,
                terms.len(),
            ));
        }
        assert!(!served.is_empty(), "the latency-0 bank was served");
        (cycles, terms)
    }

    /// Reusing the previous frame builds, node for node, the terms a
    /// from-scratch evaluation builds, in the same arena order; it only
    /// skips constructions that would have found an existing term, so it
    /// makes fewer of those.
    #[test]
    fn incremental_frames_match_frames_built_from_scratch() {
        let (inc, inc_terms) = unroll(ACC, 12, true);
        let (full, full_terms) = unroll(ACC, 12, false);
        for (cycle, (i, f)) in inc.iter().zip(&full).enumerate() {
            for (node, (x, y)) in i.0.iter().zip(&f.0).enumerate() {
                assert_eq!(x, y, "cycle {cycle}: node {node} differs");
            }
            assert_eq!(i, f, "cycle {cycle} differs");
        }
        assert_eq!(inc_terms.len(), full_terms.len());
        for t in 0..inc_terms.len() as TermId {
            assert_eq!(inc_terms.get(t), full_terms.get(t), "term {t}");
        }
        assert!(inc_terms.hits() < full_terms.hits(), "no node was reused");
        // The design is symbolic and its state moves, so the check has teeth.
        let last = &inc.last().unwrap().0;
        assert!(last.iter().any(|&v| inc_terms.value(v).is_none()));
        assert_ne!(inc[2].0, inc[3].0, "frames must change between cycles");
    }

    /// Ten symbolic 4-bit words, an enable and a data word.
    fn store() -> (Terms, Vec<TermId>, TermId, TermId) {
        let mut terms = Terms::new();
        let store: Vec<TermId> = (0..10).map(|_| terms.leaf(4)).collect();
        let en = terms.leaf(1);
        let data = terms.leaf(4);
        (terms, store, en, data)
    }

    /// Two banks of five 4-bit words behind a 3-bit address: bank 0
    /// reaches into bank 1's words and bank 1's offsets 5..8 fall off the
    /// end, as in the harness's flat indexing.
    fn banked() -> EnvMem {
        EnvMem {
            arg_index: 0,
            base: "m".into(),
            banks: 2,
            bank_size: 5,
            elem_width: 4,
            latency0: false,
            can_read: true,
            can_write: true,
            total_words: 10,
        }
    }

    /// Constant-address reads and writes return the terms the mux chain
    /// folds to, in range and out of it, and build none of the chain's
    /// offset constants.
    #[test]
    fn constant_address_access_matches_the_mux_chain() {
        let em = banked();
        let (mut terms, store, en, data) = store();
        let (one, zero) = (terms.konst(1, 1), terms.konst(0, 1));
        let mut changed = 0;
        for bank in 0..em.banks as usize {
            for a in 0..8 {
                let addr = terms.konst(a, 3);
                let before = terms.len();
                let got = read_word(&mut terms, &store, &em, bank, addr);
                let mut written = Vec::new();
                for e in [en, one, zero] {
                    let mut got = store.clone();
                    write_word(&mut terms, &mut got, &em, bank, e, addr, data);
                    written.push(got);
                }
                // At most the zero word and one `ite` per enable are new.
                assert!(terms.len() - before <= 2, "bank {bank} addr {a}");
                let want = read_mux(&mut terms, &store, &em, bank, addr);
                assert_eq!(got, want, "read bank {bank} addr {a}");
                for (e, got) in [en, one, zero].into_iter().zip(written) {
                    let mut want = store.clone();
                    write_mux(&mut terms, &mut want, &em, bank, e, addr, data);
                    assert_eq!(got, want, "write bank {bank} addr {a} en {e}");
                    changed += usize::from(got != store);
                }
            }
        }
        // In-range writes with a live enable moved a word (bank 0 reaches
        // 8 words, bank 1 5): the check has teeth.
        assert_eq!(changed, 2 * (8 + 5));
    }

    /// Skipping equal word pairs leaves the memory disagreement term as
    /// comparing every pair does.
    #[test]
    fn observing_memories_skips_only_equal_words() {
        let (mut terms, store, en, data) = store();
        let mut other = store.clone();
        other[3] = data;
        other[7] = terms.ite(en, data, store[7]);
        let fals = terms.konst(0, 1);
        let got = words_differ(&mut terms, fals, &store, &other);
        let before = terms.len();
        let mut want = fals;
        for (&x, &y) in store.iter().zip(&other) {
            let ne = terms.binary(TOp::Ne, x, y);
            want = terms.binary(TOp::Or, want, ne);
        }
        assert_eq!(got, want);
        assert_eq!(
            terms.len(),
            before,
            "comparing every pair built nothing new"
        );
        assert_eq!(terms.value(got), None);
    }

    /// A loop over an 8-word bram; `{R}` is replaced by an extra argument.
    const UNREAD_BANK: &str = "
hir.func @loop at %t(
    %A : !hir.memref<8*i32, r, bram>,{R}
    %B : !hir.memref<8*i32, w, bram>,
    %x : i32) {
  %c0 = hir.constant 0 : index
  %c1 = hir.constant 1 : index
  %c8 = hir.constant 8 : index
  %tf = hir.for %i : i32 = %c0 to %c8 step %c1 iter_time(%ti = %t offset 1) {
    hir.yield at %ti offset 1
    %v = hir.mem_read %A[%i] at %ti offset 0 : i32
    %i1 = hir.delay %i by 1 at %ti offset 0 : i32
    %s = hir.add (%v, %x) : (i32, i32) -> (i32)
    hir.mem_write %s to %B[%i1] at %ti offset 1
  }
  hir.return
}
";

    /// A register-kind memref argument the design never reads costs the
    /// miter nothing. Against the loop with its one `hir.add` turned into
    /// `hir.sub` (what `test-miscompile` does), every frame builds and
    /// encodes what the same refutation without the argument does, and the
    /// counterexample comes at the same cycle.
    #[test]
    fn unread_zero_latency_bank_adds_no_cnf() {
        let frames = |extra: &str| {
            let src = UNREAD_BANK.replace("{R}", extra);
            let m = hir::parse_pretty(&src).expect("parse");
            let bad = hir::parse_pretty(&src.replace("hir.add", "hir.sub")).expect("parse");
            let opts = EquivOptions {
                k_cycles: 8,
                ..EquivOptions::default()
            };
            let r = check_func_equivalence(&m, &bad, "loop", &opts).unwrap();
            let EquivStatus::Counterexample(cex) = r.status else {
                panic!("{}", r.status.label());
            };
            let sizes: Vec<_> = r
                .solver
                .frames
                .iter()
                .map(|f| (f.terms_added, f.gates_added, f.vars_added, f.clauses_added))
                .collect();
            (cex.cycle, sizes)
        };
        let without = frames("");
        assert_eq!(without.0, 2);
        assert_eq!(without.1, [(7, 0, 0, 0), (0, 0, 0, 0), (4, 408, 402, 1139)]);
        assert_eq!(frames("\n    %R : !hir.memref<[2]*i32, r, reg>,"), without);
    }
}
