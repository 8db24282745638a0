//! Pins the work of the equivalence checks the `equiv_mix` benchmark runs.
//! Each refutation must report exactly the recorded conflict, decision,
//! propagation, restart, variable, clause, gate and term counts, and each
//! proof its term, gate, variable and clause counts: a change to the
//! solver's data structures (decision heap, conflict scratch, clause arena,
//! gate-cache hashing) must leave the search itself untouched, and a change
//! to the word-level rewrites or the blaster shows here as moved work.
//! Terms count the word-level nodes the miter built; gates count the nodes
//! the blaster built for the queries that did not fold; variables and
//! clauses count the CNF those queries encoded.

use kernels::{conv, gemm, histogram, stencil, transpose};

/// `(conflicts, decisions, propagations, restarts, vars, clauses, gates,
/// terms)`.
type Trace = (u64, u64, u64, u64, u64, u64, u64, u64);

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
        s.gates,
        s.terms,
    )
}

/// Every refutation of `equiv_mix` keeps its counterexample cycle and its
/// exact search and work.
#[test]
fn equiv_mix_refutations_keep_their_exact_search() {
    let cases: [(&str, ir::Module, u32, u32, Trace); 5] = [
        (
            "stencil16",
            stencil::hir_stencil(16, 32),
            16,
            4,
            (2, 96, 625, 0, 613, 1770, 623, 59),
        ),
        (
            "stencil64",
            stencil::hir_stencil(64, 32),
            16,
            4,
            (2, 96, 625, 0, 613, 1770, 623, 155),
        ),
        (
            "gemm2",
            gemm::hir_gemm(2, 32),
            16,
            10,
            (2, 128, 6293, 0, 6207, 20345, 6396, 76),
        ),
        (
            "conv4",
            conv::hir_conv(4, 4, 32),
            32,
            17,
            (136, 395, 6086, 0, 2441, 7612, 2492, 148),
        ),
        (
            "conv8",
            conv::hir_conv(8, 8, 32),
            32,
            29,
            (136, 395, 6086, 0, 2441, 7612, 2492, 344),
        ),
    ];
    for (name, unopt, k, cycle, want) in cases {
        let r = check(&unopt, &["test-miscompile"], k);
        match &r.status {
            bmc::EquivStatus::Counterexample(cex) => assert_eq!(cex.cycle, cycle, "{name}"),
            other => panic!("{name}: expected a refutation, got {}", other.label()),
        }
        assert_eq!(trace(&r), want, "{name} K={k}: search changed");
    }
}

/// Builds a kernel module.
type Build = fn() -> ir::Module;

/// Every proof of `equiv_mix`: the six kernels at K=16 and all but gemm4 at
/// K=32. Each folds every cycle's miter to the constant 0 at word level, so
/// it builds no gate beyond the constant and encodes nothing but it, and
/// its `(terms, gates, vars, clauses)` are pinned.
#[test]
fn equiv_mix_proofs_fold_at_word_level() {
    let proofs: [(&str, Build, u32, u64); 11] = [
        ("transpose16", || transpose::hir_transpose(16, 32), 16, 600),
        ("stencil64", || stencil::hir_stencil(64, 32), 16, 258),
        (
            "histogram16",
            || histogram::hir_histogram(16, 16, 32),
            16,
            85,
        ),
        ("conv4", || conv::hir_conv(4, 4, 32), 16, 125),
        ("gemm2", || gemm::hir_gemm(2, 32), 16, 67),
        ("gemm4", || gemm::hir_gemm(4, 32), 16, 122),
        ("transpose16", || transpose::hir_transpose(16, 32), 32, 656),
        ("stencil64", || stencil::hir_stencil(64, 32), 32, 402),
        (
            "histogram16",
            || histogram::hir_histogram(16, 16, 32),
            32,
            430,
        ),
        ("conv4", || conv::hir_conv(4, 4, 32), 32, 254),
        ("gemm2", || gemm::hir_gemm(2, 32), 32, 67),
    ];
    for (name, build, k, want) in proofs {
        let r = check(&build(), hir_opt::STANDARD_PASS_NAMES, k);
        assert!(
            matches!(r.status, bmc::EquivStatus::Proved),
            "{name} K={k}: expected a proof, got {}",
            r.status.label()
        );
        let s = &r.solver;
        assert_eq!(s.frames.len(), k as usize, "{name} K={k}");
        assert_eq!(
            (s.terms, s.gates, s.vars, s.clauses),
            (want, 1, 1, 0),
            "{name} K={k}: work changed"
        );
        assert_eq!((s.conflicts, s.decisions), (0, 0), "{name} K={k}");
    }
}

/// Phase timers add up sub-millisecond frames before rounding, so a proof
/// whose every frame blasts in under a millisecond still reports its blast
/// time, and the phases never add up to more than the whole check. Every
/// `equiv_mix` proof folds at word level and builds its miter in about a
/// millisecond in all, so this runs the transpose proof to K=4096: its
/// frames each evaluate only what changed, in microseconds.
#[test]
fn phase_times_accumulate_below_one_millisecond_per_frame() {
    let r = check(
        &transpose::hir_transpose(16, 32),
        hir_opt::STANDARD_PASS_NAMES,
        4096,
    );
    assert!(matches!(r.status, bmc::EquivStatus::Proved));
    let s = &r.solver;
    assert_eq!(s.frames.len(), 4096);
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
