//! Pins the SAT search of the equivalence checks the `equiv_mix` benchmark
//! runs. Each check must report exactly the recorded conflict, decision,
//! propagation, restart, variable and clause counts: a change to the
//! solver's data structures (decision heap, conflict scratch, clause arena,
//! gate-cache hashing) must leave the search itself untouched, and these
//! tuples show it did.

use kernels::{conv, gemm, stencil};

/// `(conflicts, decisions, propagations, restarts, vars, clauses)`.
type Trace = (u64, u64, u64, u64, u64, u64);

/// `unopt` run through the named function passes on one thread, as
/// `hirc --opt` and the benchmark build the optimized side.
fn transformed(unopt: &ir::Module, passes: &[&str]) -> ir::Module {
    let registry = hir::hir_registry();
    let mut diags = ir::DiagnosticEngine::new();
    let mut m = unopt.clone();
    hir_opt::function_pipeline_from_names(passes, 1)
        .unwrap()
        .run(&mut m, &registry, &mut diags)
        .unwrap_or_else(|e| panic!("{passes:?}: {e}"));
    m
}

/// Runs one module-level check with the benchmark's conflict-only budget and
/// returns its single function report.
fn check(unopt: &ir::Module, passes: &[&str], k: u32) -> bmc::FuncReport {
    let other = transformed(unopt, passes);
    let opts = bmc::EquivOptions {
        k_cycles: k,
        conflict_budget: 200_000,
        time_budget_ms: None,
        samples: 8,
        replay_max_cycles: hir_codegen::testbench::DEFAULT_SIM_MAX_CYCLES,
    };
    let mut reports = bmc::check_module_equivalence(unopt, &other, &opts).unwrap();
    assert_eq!(reports.len(), 1, "one function per kernel");
    reports.pop().unwrap()
}

fn trace(r: &bmc::FuncReport) -> Trace {
    let s = &r.solver;
    (
        s.conflicts,
        s.decisions,
        s.propagations,
        s.restarts,
        s.vars,
        s.clauses,
    )
}

#[test]
fn equiv_mix_refutations_keep_their_exact_search() {
    let cases: [(&str, ir::Module, u32, Trace); 5] = [
        (
            "stencil16",
            stencil::hir_stencil(16, 32),
            16,
            (0, 1023, 1708, 0, 1708, 2329),
        ),
        (
            "stencil64",
            stencil::hir_stencil(64, 32),
            16,
            (0, 4095, 4780, 0, 4780, 2329),
        ),
        (
            "gemm2",
            gemm::hir_gemm(2, 32),
            16,
            (2, 384, 53020, 0, 50310, 166548),
        ),
        (
            "conv4",
            conv::hir_conv(4, 4, 32),
            32,
            (2386, 11980, 209675, 6, 6639, 19883),
        ),
        (
            "conv8",
            conv::hir_conv(8, 8, 32),
            32,
            (2386, 16717, 237459, 6, 12791, 30359),
        ),
    ];
    for (name, unopt, k, want) in cases {
        let r = check(&unopt, &["test-miscompile"], k);
        assert!(
            matches!(r.status, bmc::EquivStatus::Counterexample(_)),
            "{name}: expected a refutation, got {}",
            r.status.label()
        );
        assert_eq!(trace(&r), want, "{name} K={k}: search changed");
    }
}

#[test]
fn gemm2_proof_keeps_its_exact_search() {
    let r = check(&gemm::hir_gemm(2, 32), hir_opt::STANDARD_PASS_NAMES, 16);
    assert!(
        matches!(r.status, bmc::EquivStatus::Proved),
        "gemm2: expected a proof, got {}",
        r.status.label()
    );
    assert_eq!(trace(&r), (0, 0, 1, 0, 48745, 161200));
}

/// Phase timers add up sub-millisecond frames before rounding, so a proof
/// whose every frame blasts in under a millisecond still reports its blast
/// time, and the phases never add up to more than the whole check.
#[test]
fn phase_times_accumulate_below_one_millisecond_per_frame() {
    let r = check(
        &stencil::hir_stencil(64, 32),
        hir_opt::STANDARD_PASS_NAMES,
        32,
    );
    assert!(matches!(r.status, bmc::EquivStatus::Proved));
    let s = &r.solver;
    assert!(s.blast_ms >= 1, "blast time lost to per-frame rounding");
    assert!(
        s.lower_ms + s.blast_ms + s.solve_ms + s.replay_ms <= r.time_ms,
        "phases {} + {} + {} + {} exceed the check's {} ms",
        s.lower_ms,
        s.blast_ms,
        s.solve_ms,
        s.replay_ms,
        r.time_ms
    );
}
