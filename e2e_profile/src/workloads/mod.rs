//! The five workloads: what each builds in setup, and the request each
//! timed iteration sends.

pub mod compile;
pub mod equiv;
pub mod multi_gen;
pub mod sim;

use compile::{CompileInput, Compiled};
use equiv::{EquivInput, Expect};
use hir_codegen::testbench::HarnessArg;
use kernels::{conv, fifo, gemm, histogram, stencil, transpose, workload};
use sim::{SimDesign, SimInput, Stimulus, ENGINES};
use std::rc::Rc;

use crate::trace::Tracer;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    CompileSuite,
    CompileMulti,
    SimGemm,
    SimStream,
    EquivMix,
}

pub const ALL: [Workload; 5] = [
    Workload::CompileSuite,
    Workload::CompileMulti,
    Workload::SimGemm,
    Workload::SimStream,
    Workload::EquivMix,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::CompileSuite => "compile_suite",
            Workload::CompileMulti => "compile_multi",
            Workload::SimGemm => "sim_gemm",
            Workload::SimStream => "sim_stream",
            Workload::EquivMix => "equiv_mix",
        }
    }

    pub fn from_name(s: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == s)
    }

    /// Cores the workload's requests keep busy. Only `compile_multi` has
    /// more than one function per module for the pipeline to spread.
    pub fn busy_threads(self) -> usize {
        match self {
            Workload::CompileMulti => compile_threads(),
            _ => 1,
        }
    }
}

/// One request shape; the timed loop sends these in a seeded order.
pub enum Request {
    Compile(CompileInput),
    Sim(SimInput),
    Equiv(Box<EquivInput>),
}

impl Request {
    pub fn label(&self) -> String {
        match self {
            Request::Compile(c) => c.label.clone(),
            Request::Sim(s) => {
                let engine = ENGINES
                    .iter()
                    .find(|(e, _)| *e == s.engine)
                    .map_or("?", |(_, n)| n);
                format!("{}/{engine}", s.design.label)
            }
            Request::Equiv(e) => {
                let verb = match e.expect {
                    Expect::Proved => "prove",
                    Expect::Refuted => "refute",
                };
                format!("{verb} {} K={}", e.design, e.k)
            }
        }
    }

    /// Send the request. `iter` counts requests sent so far, so simulation
    /// requests draw a fresh stimulus each time.
    ///
    /// # Errors
    /// Any failure or wrong answer, described for the failure list.
    pub fn run(
        &self,
        registry: &ir::DialectRegistry,
        iter: usize,
        tr: &mut Tracer,
    ) -> Result<(), String> {
        match self {
            Request::Compile(c) => {
                let out = compile::compile(c, registry, tr)?;
                tr.span("teardown", |_| drop(out));
                Ok(())
            }
            Request::Sim(s) => sim::simulate(s, iter, tr),
            Request::Equiv(e) => equiv::check(e, tr),
        }
    }
}

/// Everything a workload builds before its first timed request.
pub struct Fixture {
    pub requests: Vec<Request>,
    pub registry: ir::DialectRegistry,
}

impl Fixture {
    fn new(requests: Vec<Request>) -> Self {
        Fixture {
            requests,
            registry: hir::hir_registry(),
        }
    }

    /// Distinct simulated designs (sim requests share them across engines).
    pub fn sim_designs(&self) -> Vec<Rc<SimDesign>> {
        let mut out: Vec<Rc<SimDesign>> = Vec::new();
        for r in &self.requests {
            if let Request::Sim(s) = r {
                if !out.iter().any(|d| Rc::ptr_eq(d, &s.design)) {
                    out.push(Rc::clone(&s.design));
                }
            }
        }
        out
    }
}

/// `hirc`'s default worker count: all cores, capped at two.
pub fn compile_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Repository root, for the checked-in inputs under `examples/` and
/// `designs/`.
fn repo_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Checked-in inputs of one directory with one extension, sorted by name.
fn read_inputs(dir: &str, ext: &str) -> Result<Vec<(String, String)>, String> {
    let path = repo_root().join(dir);
    let entries = std::fs::read_dir(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = Vec::new();
    for entry in entries {
        let p = entry.map_err(|e| e.to_string())?.path();
        if p.extension().and_then(|x| x.to_str()) == Some(ext) {
            let text = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("?");
            out.push((format!("{dir}/{name}"), text));
        }
    }
    out.sort();
    if out.is_empty() {
        return Err(format!("no *.{ext} inputs under {}", path.display()));
    }
    Ok(out)
}

/// The hand-written diagnostic `designs/err_add.hir` must produce
/// (paper Figure 1b).
pub const ERR_ADD_DIAGNOSTIC: &str = "Schedule error: mismatched delay (0 vs 1) in address 0!";

fn compile_input(label: impl Into<String>, text: String, seed_independent: bool) -> CompileInput {
    CompileInput {
        label: label.into(),
        text,
        pretty: false,
        expect_error: None,
        threads: compile_threads(),
        seed_independent,
    }
}

fn checked_in_input(label: String, text: String) -> CompileInput {
    let pretty = label.ends_with(".hir");
    let expect_error = label.ends_with("err_add.hir").then_some(ERR_ADD_DIAGNOSTIC);
    CompileInput {
        pretty,
        expect_error,
        ..compile_input(label, text, true)
    }
}

/// A kernel module printed to generic IR, as a file `hirc` would read.
fn printed(m: &ir::Module) -> String {
    ir::print_module(m)
}

/// FIR taps: a symmetric low-pass with one tap that is not a power of two,
/// so strength reduction has both cases to handle.
const FIR_TAPS: [i64; 5] = [1, 2, 3, 2, 1];

fn compile_suite(quick: bool) -> Result<Vec<Request>, String> {
    let mut inputs: Vec<CompileInput> = Vec::new();
    for (label, text) in read_inputs("examples", "mlir")? {
        // The one multi-function example belongs to compile_multi.
        if !label.ends_with("multi_kernel.mlir") {
            inputs.push(checked_in_input(label, text));
        }
    }
    for (label, text) in read_inputs("designs", "hir")? {
        inputs.push(checked_in_input(label, text));
    }
    let kernels: Vec<(String, ir::Module)> = if quick {
        vec![("gemm4".into(), gemm::hir_gemm(4, 32))]
    } else {
        vec![
            ("transpose16".into(), transpose::hir_transpose(16, 32)),
            ("stencil64".into(), stencil::hir_stencil(64, 32)),
            (
                "histogram256".into(),
                histogram::hir_histogram(256, 256, 32),
            ),
            ("conv16".into(), conv::hir_conv(16, 16, 32)),
            ("fir64".into(), kernels::fir::hir_fir(64, &FIR_TAPS, 32)),
            ("gemm8".into(), gemm::hir_gemm(8, 32)),
            ("gemm16".into(), gemm::hir_gemm(16, 32)),
            ("gemm32".into(), gemm::hir_gemm(32, 32)),
        ]
    };
    for (label, m) in kernels {
        inputs.push(compile_input(label, printed(&m), true));
    }
    Ok(inputs.into_iter().map(Request::Compile).collect())
}

/// Eight renamed GEMM16 replicas: uniform per-function cost.
fn gemm_replicas() -> ir::Module {
    let mods: Vec<ir::Module> = (0..8).map(|_| gemm::hir_gemm(16, 32)).collect();
    let mut m = ir::Module::splice_top(&mods);
    let tops: Vec<ir::OpId> = m.top_ops().to_vec();
    for (i, t) in tops.into_iter().enumerate() {
        m.set_attr(t, ir::SYM_NAME, ir::Attribute::string(format!("gemm_r{i}")));
    }
    m
}

/// Seeded modules per `compile_multi` run: two of each function count.
const GENERATED_MODULES: usize = 14;

fn compile_multi(seed: u64, quick: bool) -> Result<Vec<Request>, String> {
    let multi = read_inputs("examples", "mlir")?
        .into_iter()
        .find(|(l, _)| l.ends_with("multi_kernel.mlir"))
        .ok_or("examples/multi_kernel.mlir is missing")?;
    let mut inputs = vec![compile_input(multi.0, multi.1, true)];
    let generated = if quick { 1 } else { GENERATED_MODULES };
    if !quick {
        let suite: Vec<ir::Module> = kernels::compiled_benchmarks()
            .iter()
            .map(|b| (b.build_hir)())
            .collect();
        inputs.push(compile_input(
            "suite",
            printed(&ir::Module::splice_top(&suite)),
            true,
        ));
        inputs.push(compile_input("gemm_x8", printed(&gemm_replicas()), true));
    }
    for g in 0..generated {
        inputs.push(compile_input(
            format!("generated#{g}"),
            multi_gen::multi_module(mix(seed, g as u64), g),
            false,
        ));
    }
    Ok(inputs.into_iter().map(Request::Compile).collect())
}

/// Derive an independent stream seed from the run seed and a tag.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stimuli per simulated design: enough for three distinct 16-lane batches.
const STIMULI: usize = 48;

/// Compile `m` through the request path, for a design built in setup.
fn compile_in_setup(label: &str, m: &ir::Module) -> Result<Compiled, String> {
    let input = compile_input(label, printed(m), true);
    compile::compile(&input, &hir::hir_registry(), &mut Tracer::off())?
        .ok_or_else(|| format!("{label}: rejected"))
}

/// A simulated design: compile `m`, then draw `STIMULI` stimulus sets.
fn sim_design(
    label: &str,
    m: ir::Module,
    func: &str,
    out_arg: usize,
    seed: u64,
    stimulus: impl Fn(u64) -> Stimulus,
) -> Result<Rc<SimDesign>, String> {
    let c = compile_in_setup(label, &m)?;
    let stimuli = (0..STIMULI as u64)
        .map(|i| stimulus(mix(seed, i)))
        .collect();
    Ok(Rc::new(SimDesign::new(
        label.to_string(),
        c.module,
        func,
        c.design,
        out_arg,
        stimuli,
    )))
}

fn all_some(v: Vec<i128>) -> Vec<Option<i128>> {
    v.into_iter().map(Some).collect()
}

fn gemm_design(n: u64, seed: u64) -> Result<Rc<SimDesign>, String> {
    let nn = (n * n) as usize;
    sim_design(
        &format!("gemm{n}"),
        gemm::hir_gemm(n, 32),
        gemm::FUNC,
        2,
        seed,
        |s| {
            let a = workload::random_i32s(s, nn);
            let b = workload::random_i32s(s ^ 1, nn);
            Stimulus {
                expect: all_some(gemm::reference(n, &a, &b)),
                args: vec![
                    HarnessArg::mem_from(&a),
                    HarnessArg::mem_from(&b),
                    HarnessArg::zero_mem(nn),
                ],
            }
        },
    )
}

fn transpose_design(n: u64, seed: u64) -> Result<Rc<SimDesign>, String> {
    let nn = (n * n) as usize;
    sim_design(
        &format!("transpose{n}"),
        transpose::hir_transpose(n, 32),
        transpose::FUNC,
        1,
        seed,
        |s| {
            let input = workload::random_i32s(s, nn);
            Stimulus {
                expect: all_some(transpose::reference(n, &input)),
                args: vec![HarnessArg::mem_from(&input), HarnessArg::zero_mem(nn)],
            }
        },
    )
}

fn stream_designs(seed: u64, quick: bool) -> Result<Vec<Rc<SimDesign>>, String> {
    if quick {
        return Ok(vec![transpose_design(4, seed)?]);
    }
    let (depth, cmds) = (512u64, 1024u64);
    let fifo = sim_design(
        "fifo512",
        fifo::hir_fifo(depth, cmds, 32),
        fifo::FUNC,
        2,
        seed,
        |s| {
            let c = workload::random_fifo_commands(s, cmds as usize, depth as usize);
            let din = workload::random_i32s(s ^ 1, cmds as usize);
            Stimulus {
                expect: fifo::reference(cmds, &c, &din),
                args: vec![
                    HarnessArg::mem_from(&c),
                    HarnessArg::mem_from(&din),
                    HarnessArg::zero_mem(cmds as usize),
                ],
            }
        },
    )?;
    let (h, w) = (32u64, 32u64);
    let conv = sim_design(
        "conv32",
        conv::hir_conv(h, w, 32),
        conv::FUNC,
        1,
        seed,
        |s| {
            let img = workload::random_bounded(s, (h * w) as usize, 256);
            Stimulus {
                expect: all_some(conv::reference(h, w, &img)),
                args: vec![
                    HarnessArg::mem_from(&img),
                    HarnessArg::zero_mem((h * w) as usize),
                ],
            }
        },
    )?;
    let (pixels, bins) = (1024u64, 256u64);
    let hist = sim_design(
        "histogram1024",
        histogram::hir_histogram(pixels, bins, 32),
        histogram::FUNC,
        1,
        seed,
        |s| {
            let img = workload::random_bounded(s, pixels as usize, bins as i128);
            Stimulus {
                expect: all_some(histogram::reference(bins, &img)),
                args: vec![
                    HarnessArg::mem_from(&img),
                    HarnessArg::zero_mem(bins as usize),
                ],
            }
        },
    )?;
    let n = 256u64;
    let sten = sim_design(
        "stencil256",
        stencil::hir_stencil(n, 32),
        stencil::FUNC,
        1,
        seed,
        |s| {
            let input = workload::random_bounded(s, n as usize, 1 << 20);
            Stimulus {
                expect: all_some(stencil::reference(n, &input)),
                args: vec![
                    HarnessArg::mem_from(&input),
                    HarnessArg::zero_mem(n as usize),
                ],
            }
        },
    )?;
    Ok(vec![fifo, conv, hist, sten, transpose_design(16, seed)?])
}

fn sim_requests(designs: Vec<Rc<SimDesign>>) -> Vec<Request> {
    let mut out = Vec::new();
    for d in designs {
        for (engine, _) in ENGINES {
            out.push(Request::Sim(SimInput {
                design: Rc::clone(&d),
                engine,
            }));
        }
    }
    out
}

fn equiv_input(label: &str, m: ir::Module, k: u32, expect: Expect) -> Result<Request, String> {
    let passes: &[&str] = match expect {
        Expect::Proved => hir_opt::STANDARD_PASS_NAMES,
        Expect::Refuted => &["test-miscompile"],
    };
    let other = equiv::transformed(&m, passes).map_err(|e| format!("{label}: {e}"))?;
    Ok(Request::Equiv(Box::new(EquivInput {
        design: label.to_string(),
        unopt: m,
        other,
        k,
        expect,
    })))
}

/// Builds a kernel module.
type Build = fn() -> ir::Module;

/// The checks of `equiv_mix`, each with its hand-written expected verdict:
/// proofs of the standard pipeline's output at K=16 and K=32, refutations of
/// `test-miscompile`'s output. GEMM N=4 is proved at K=16 only: at K=32 its
/// proof alone takes half a pass, which would leave too few passes in a run
/// for steady percentiles.
fn equiv_mix(quick: bool) -> Result<Vec<Request>, String> {
    use Expect::{Proved, Refuted};
    if quick {
        return Ok(vec![
            equiv_input("gemm2", gemm::hir_gemm(2, 32), 16, Proved)?,
            equiv_input("gemm2", gemm::hir_gemm(2, 32), 16, Refuted)?,
        ]);
    }
    let proved: [(&str, Build); 6] = [
        ("transpose16", || transpose::hir_transpose(16, 32)),
        ("stencil64", || stencil::hir_stencil(64, 32)),
        ("histogram16", || histogram::hir_histogram(16, 16, 32)),
        ("conv4", || conv::hir_conv(4, 4, 32)),
        ("gemm2", || gemm::hir_gemm(2, 32)),
        ("gemm4", || gemm::hir_gemm(4, 32)),
    ];
    let refuted: [(&str, Build, u32); 5] = [
        ("stencil16", || stencil::hir_stencil(16, 32), 16),
        ("stencil64", || stencil::hir_stencil(64, 32), 16),
        ("gemm2", || gemm::hir_gemm(2, 32), 16),
        ("conv4", || conv::hir_conv(4, 4, 32), 32),
        ("conv8", || conv::hir_conv(8, 8, 32), 32),
    ];
    let mut out = Vec::new();
    for k in [16, 32] {
        for (label, build) in proved {
            if !(label == "gemm4" && k == 32) {
                out.push(equiv_input(label, build(), k, Proved)?);
            }
        }
    }
    for (label, build, k) in refuted {
        out.push(equiv_input(label, build(), k, Refuted)?);
    }
    Ok(out)
}

/// Build `w`'s fixture for `seed`.
///
/// # Errors
/// A setup input that fails to read or compile.
pub fn setup(w: Workload, seed: u64, quick: bool) -> Result<Fixture, String> {
    let requests = match w {
        Workload::CompileSuite => compile_suite(quick)?,
        Workload::CompileMulti => compile_multi(seed, quick)?,
        Workload::SimGemm => sim_requests(vec![gemm_design(if quick { 4 } else { 16 }, seed)?]),
        Workload::SimStream => sim_requests(stream_designs(seed, quick)?),
        Workload::EquivMix => equiv_mix(quick)?,
    };
    Ok(Fixture::new(requests))
}

/// One small request through every layer (pretty and generic parse, the
/// compile path, all three engines, a proof and a refutation), run before
/// timing so a broken toolchain fails in setup rather than mid-run.
///
/// # Errors
/// A setup input that fails to read or compile.
pub fn self_check(seed: u64) -> Result<Fixture, String> {
    let (label, text) = read_inputs("designs", "hir")?
        .into_iter()
        .find(|(l, _)| l.ends_with("transpose.hir"))
        .ok_or("designs/transpose.hir is missing")?;
    let mut requests = vec![
        Request::Compile(checked_in_input(label, text)),
        Request::Compile(compile_input(
            "gemm2",
            printed(&gemm::hir_gemm(2, 32)),
            true,
        )),
    ];
    requests.extend(sim_requests(vec![gemm_design(2, seed)?]));
    for expect in [Expect::Proved, Expect::Refuted] {
        requests.push(equiv_input(
            "stencil16",
            stencil::hir_stencil(16, 32),
            16,
            expect,
        )?);
    }
    Ok(Fixture::new(requests))
}

/// Area of the workload's seed-independent designs: every generated
/// Verilog module estimated on its own and summed, so the number compares
/// exactly across seeds and commits. `(LUT, FF)`.
///
/// # Errors
/// A design that fails to compile.
pub fn area(f: &Fixture) -> Result<(u64, u64), String> {
    let model = synth::CostModel::default();
    let mut designs: Vec<verilog::Design> = Vec::new();
    let mut proved: Vec<&str> = Vec::new();
    for r in &f.requests {
        match r {
            Request::Compile(c) if c.seed_independent => {
                if let Some(out) = compile::compile(c, &f.registry, &mut Tracer::off())? {
                    designs.push(out.design);
                }
            }
            // Each design once, though it is proved at two bounds.
            Request::Equiv(e) if e.expect == Expect::Proved && !proved.contains(&&*e.design) => {
                proved.push(&e.design);
                let d = hir_codegen::generate_design(&e.other, &Default::default())
                    .map_err(|err| format!("{}: {err}", e.design))?;
                designs.push(d);
            }
            _ => {}
        }
    }
    let (mut lut, mut ff) = (0, 0);
    for d in f.sim_designs().iter().map(|d| &d.design).chain(&designs) {
        for m in &d.modules {
            let r = synth::estimate_module(m, &model);
            lut += r.lut;
            ff += r.ff;
        }
    }
    Ok((lut, ff))
}
