//! Optimization-soundness differential tests: the standard pass pipeline
//! must preserve interpreted semantics bit for bit on every benchmark, and
//! the simulator's bytecode engine must agree cycle for cycle with the
//! tree-walk oracle on a generated design.

use hir::interp::{ArgValue, Interpreter};
use hir::ops::FuncOp;
use hir::types::MemrefInfo;
use hir_codegen::testbench::{Harness, HarnessArg};
use ir::Module;

/// Deterministic arguments derived from the function signature: readable
/// memrefs get a small-value pattern, write-only memrefs start
/// uninitialized, scalars get distinct small integers.
fn args_for(m: &Module, func: FuncOp) -> Vec<ArgValue> {
    func.args(m)
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            let ty = m.value_type(v);
            match MemrefInfo::from_type(&ty) {
                Some(info) => {
                    let n = info.num_elements() as usize;
                    if info.port.can_read() {
                        // Non-negative: some kernels (histogram) index
                        // memory with data values.
                        ArgValue::Tensor(
                            (0..n)
                                .map(|j| Some((j as i128 * 7 + i as i128 * 13) % 23))
                                .collect(),
                        )
                    } else {
                        ArgValue::uninit_tensor(n)
                    }
                }
                None => ArgValue::Int(i as i128 + 3),
            }
        })
        .collect()
}

#[test]
fn standard_pipeline_preserves_interpreted_semantics() {
    for b in kernels::compiled_benchmarks() {
        let base = (b.build_hir)();
        let mut opt = (b.build_hir)();
        hir_opt::optimize(&mut opt)
            .unwrap_or_else(|e| panic!("{}: standard pipeline failed: {e}", b.name));

        let func = kernels::find_func(&base, b.hir_func);
        let args = args_for(&base, func);

        let r_base = Interpreter::new(&base)
            .run(b.hir_func, &args)
            .unwrap_or_else(|e| panic!("{}: unoptimized interpretation failed: {e}", b.name));
        let r_opt = Interpreter::new(&opt)
            .run(b.hir_func, &args)
            .unwrap_or_else(|e| panic!("{}: optimized interpretation failed: {e}", b.name));

        assert_eq!(r_base.results, r_opt.results, "{}: scalar results", b.name);
        // Bit-for-bit tensor equality, including which words stay
        // uninitialized: optimization must not add or remove writes.
        assert_eq!(
            r_base.tensors, r_opt.tensors,
            "{}: memory contents diverged after optimization",
            b.name
        );
    }
}

#[test]
fn sim_engines_agree_on_generated_gemm() {
    let n = 4u64;
    let nn = (n * n) as usize;
    let mut m = kernels::gemm::hir_gemm(n, 32);
    let (design, _) = kernels::compile_hir(&mut m, true).expect("compile");
    let func = kernels::find_func(&m, kernels::gemm::FUNC);

    let a: Vec<i128> = (0..nn as i128).map(|x| x % 9 - 4).collect();
    let b: Vec<i128> = (0..nn as i128).map(|x| 2 * x % 7 - 3).collect();
    let args = [
        HarnessArg::mem_from(&a),
        HarnessArg::mem_from(&b),
        HarnessArg::zero_mem(nn),
    ];

    let run = |engine: verilog::Engine| {
        let mut h = Harness::new(&design, &m, func, &args).expect("harness");
        h.set_engine(engine);
        h.run(20_000).expect("run")
    };
    let r_bc = run(verilog::Engine::Bytecode);
    for engine in [
        verilog::Engine::TreeWalk,
        verilog::Engine::Event,
        verilog::Engine::Batched,
    ] {
        let r = run(engine);
        // Identical per-cycle behavior implies identical latency and memories.
        assert_eq!(r_bc.cycles, r.cycles, "{engine:?}: latency diverged");
        assert_eq!(r_bc.results, r.results, "{engine:?}: results diverged");
        assert_eq!(r_bc.mems, r.mems, "{engine:?}: memory contents diverged");
    }
    let expect = kernels::gemm::reference(n, &a, &b);
    assert_eq!(r_bc.mems[&2], expect, "bytecode result is wrong");
}

/// N random seeds in ONE batched pass: every lane of a batched GEMM run
/// must reproduce its scalar bytecode run bit for bit — this is the
/// multi-stimulus differential harness the batched engine exists for.
#[test]
fn batched_lanes_agree_with_scalar_runs_on_gemm() {
    let n = 4u64;
    let nn = (n * n) as usize;
    let mut m = kernels::gemm::hir_gemm(n, 32);
    let (design, _) = kernels::compile_hir(&mut m, true).expect("compile");
    let func = kernels::find_func(&m, kernels::gemm::FUNC);

    // Deterministic LCG-seeded stimulus per lane.
    let mut state = 0x2545F4914F6CDD1Du64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % 17) as i128 - 8
    };
    const LANES: usize = 6;
    let lane_args: Vec<Vec<HarnessArg>> = (0..LANES)
        .map(|_| {
            let a: Vec<i128> = (0..nn).map(|_| next()).collect();
            let b: Vec<i128> = (0..nn).map(|_| next()).collect();
            vec![
                HarnessArg::mem_from(&a),
                HarnessArg::mem_from(&b),
                HarnessArg::zero_mem(nn),
            ]
        })
        .collect();

    let mut bh = Harness::new_batched(&design, &m, func, &lane_args).expect("batched harness");
    assert_eq!(bh.lanes(), LANES);
    let batched = bh.run_batched(20_000).expect("batched run");

    for (lane, args) in lane_args.iter().enumerate() {
        let mut h = Harness::new(&design, &m, func, args).expect("scalar harness");
        let scalar = h.run(20_000).expect("scalar run");
        assert_eq!(batched[lane].cycles, scalar.cycles, "lane {lane} latency");
        assert_eq!(batched[lane].results, scalar.results, "lane {lane} results");
        assert_eq!(batched[lane].mems, scalar.mems, "lane {lane} memories");
        // And both must match the software reference.
        let (a, b) = match (&args[0], &args[1]) {
            (HarnessArg::Mem(a), HarnessArg::Mem(b)) => (a, b),
            _ => unreachable!(),
        };
        assert_eq!(
            batched[lane].mems[&2],
            kernels::gemm::reference(n, a, b),
            "lane {lane} GEMM result is wrong"
        );
    }
}

// ------------------------------------------------- translation validation

/// Deterministic conflict-only budget: no wall clock, so the verdict is the
/// same on every machine.
fn bmc_opts(k: u32) -> bmc::EquivOptions {
    bmc::EquivOptions {
        k_cycles: k,
        conflict_budget: 5_000_000,
        time_budget_ms: None,
        samples: 4,
        replay_max_cycles: 100_000,
    }
}

/// Prove a function equivalent across an optimization and insist on a full
/// proof — a budget degradation here is a test failure, not a pass.
fn assert_proved(base: &Module, opt: &Module, func: &str, k: u32, what: &str) {
    let report = bmc::check_func_equivalence(base, opt, func, &bmc_opts(k))
        .unwrap_or_else(|e| panic!("{what}: equivalence check failed to run: {e}"));
    match report.status {
        bmc::EquivStatus::Proved => {}
        other => panic!(
            "{what}: expected a K={k} proof, got {:?} ({} conflicts)",
            other, report.conflicts
        ),
    }
}

/// Reduced-size instances of every benchmark, sized so bounded proofs stay
/// fast while still exercising banked memories, accumulators and delays.
fn small_benchmarks() -> Vec<(&'static str, Module, &'static str)> {
    vec![
        (
            "transpose",
            kernels::transpose::hir_transpose(4, 8),
            kernels::transpose::FUNC,
        ),
        (
            "stencil",
            kernels::stencil::hir_stencil(8, 8),
            kernels::stencil::FUNC,
        ),
        (
            "histogram",
            kernels::histogram::hir_histogram(8, 8, 8),
            kernels::histogram::FUNC,
        ),
        ("gemm", kernels::gemm::hir_gemm(2, 8), kernels::gemm::FUNC),
        (
            "conv",
            kernels::conv::hir_conv(4, 4, 8),
            kernels::conv::FUNC,
        ),
    ]
}

/// The tentpole guarantee, at benchmark level: the whole standard pipeline
/// is *proved* (not sampled, not assumed) equivalent on every kernel.
#[test]
fn bmc_proves_standard_pipeline_on_every_benchmark() {
    for (name, base, func) in small_benchmarks() {
        let mut opt = base.clone();
        hir_opt::optimize(&mut opt)
            .unwrap_or_else(|e| panic!("{name}: standard pipeline failed: {e}"));
        assert_proved(&base, &opt, func, 12, name);
    }
}

/// Per-pass bisection coverage: every cumulative prefix of the standard
/// pipeline must also be proved equivalent, so a future miscompile is
/// attributable to the exact pass that introduced it.
#[test]
fn bmc_proves_every_standard_pipeline_prefix() {
    let registry = hir::hir_registry();
    for end in 1..=hir_opt::STANDARD_PASS_NAMES.len() {
        let subset = &hir_opt::STANDARD_PASS_NAMES[..end];
        let base = kernels::gemm::hir_gemm(2, 8);
        let mut opt = base.clone();
        let mut diags = ir::DiagnosticEngine::new();
        hir_opt::function_pipeline_from_names(subset, 1)
            .unwrap()
            .run(&mut opt, &registry, &mut diags)
            .unwrap_or_else(|e| panic!("prefix {subset:?} failed: {e}"));
        assert_proved(
            &base,
            &opt,
            kernels::gemm::FUNC,
            10,
            &format!("pipeline prefix {subset:?}"),
        );
    }
}

/// The negative control: a deliberately miscompiled kernel must be refuted
/// with a replay-confirmed counterexample, never "proved".
#[test]
fn bmc_refutes_miscompiled_benchmark() {
    let registry = hir::hir_registry();
    let base = kernels::gemm::hir_gemm(2, 8);
    let mut bad = base.clone();
    let mut diags = ir::DiagnosticEngine::new();
    hir_opt::function_pipeline_from_names(&["test-miscompile"], 1)
        .unwrap()
        .run(&mut bad, &registry, &mut diags)
        .unwrap();
    let report =
        bmc::check_func_equivalence(&base, &bad, kernels::gemm::FUNC, &bmc_opts(24)).unwrap();
    match report.status {
        bmc::EquivStatus::Counterexample(cex) => {
            assert!(!cex.stimulus.is_empty());
            assert!(!cex.detail.is_empty());
        }
        other => panic!("miscompiled gemm must be refuted, got {other:?}"),
    }
    // The proof attempt must export nonzero solver stats as strict JSON.
    let st = &report.solver;
    assert!(st.propagations > 0, "solver ran, propagations must be > 0");
    assert!(st.blast_cache_misses > 0, "blasting allocated gates");
    assert!(st.clauses > 0 && st.vars > 0);
    assert!(!st.frames.is_empty(), "at least one frame was unrolled");
    // A frame may reuse the previous frame's gates wholesale, or ask a
    // query that folds (clauses_added == 0); at least one frame's query
    // must encode CNF.
    assert!(st.frames.iter().any(|f| f.clauses_added > 0));
    obs::json::parse(&obs::json::to_string(st)).expect("strict solver-stats JSON");
}
