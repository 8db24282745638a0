//! Equivalence requests: `bmc::check_module_equivalence` between a module
//! and a transformed copy, with a hand-written expected verdict.

use crate::trace::Tracer;

/// Conflict-only budget: no wall-clock budget, so verdicts are the same on
/// every machine and every run.
pub const CONFLICT_BUDGET: u64 = 200_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// The standard pipeline's output is proved equivalent for K cycles.
    Proved,
    /// `test-miscompile`'s output is refuted by a replay-confirmed
    /// counterexample.
    Refuted,
}

pub struct EquivInput {
    /// The kernel both sides are built from.
    pub design: String,
    pub unopt: ir::Module,
    pub other: ir::Module,
    pub k: u32,
    pub expect: Expect,
}

/// Build the `other` side of a check: `unopt` run through the named passes.
///
/// # Errors
/// Verification or pipeline failure.
pub fn transformed(unopt: &ir::Module, passes: &[&str]) -> Result<ir::Module, String> {
    let registry = hir::hir_registry();
    let mut diags = ir::DiagnosticEngine::new();
    ir::verify_module(unopt, &registry, &mut diags).map_err(|_| diags.render())?;
    hir_verify::verify_schedule(unopt, &mut diags).map_err(|_| diags.render())?;
    let mut m = unopt.clone();
    let mut fp = hir_opt::function_pipeline_from_names(passes, 1)?;
    fp.run(&mut m, &registry, &mut diags)
        .map_err(|e| e.to_string())?;
    Ok(m)
}

/// Run one check and compare its verdict with the expected one.
///
/// # Errors
/// A failure to pose the question, a `Sampled` verdict (the budget ran out),
/// or a verdict other than the expected one.
pub fn check(input: &EquivInput, tr: &mut Tracer) -> Result<(), String> {
    let opts = bmc::EquivOptions {
        k_cycles: input.k,
        conflict_budget: CONFLICT_BUDGET,
        time_budget_ms: None,
        samples: 8,
        replay_max_cycles: hir_codegen::testbench::DEFAULT_SIM_MAX_CYCLES,
    };
    let span = match input.expect {
        Expect::Proved => "bmc.prove",
        Expect::Refuted => "bmc.refute",
    };
    let reports = tr
        .span(span, |_| {
            bmc::check_module_equivalence(&input.unopt, &input.other, &opts)
        })
        .map_err(|e| e.to_string())?;
    if reports.is_empty() {
        return Err("no function was checked".into());
    }
    for r in &reports {
        let s = &r.solver;
        tr.add("bmc.lower_ms", s.lower_ms as f64);
        tr.add("bmc.blast_ms", s.blast_ms as f64);
        tr.add("bmc.solve_ms", s.solve_ms as f64);
        tr.add("bmc.replay_ms", s.replay_ms as f64);
        tr.add("bmc.conflicts", s.conflicts as f64);
        tr.add("bmc.propagations", s.propagations as f64);
        tr.add("bmc.clauses", s.clauses as f64);
        tr.add("bmc.vars", s.vars as f64);
        tr.add("bmc.blast_hits", s.blast_cache_hits as f64);
        tr.add(
            "bmc.blast_lookups",
            (s.blast_cache_hits + s.blast_cache_misses) as f64,
        );
        let ok = matches!(
            (&r.status, input.expect),
            (bmc::EquivStatus::Proved, Expect::Proved)
                | (bmc::EquivStatus::Counterexample(_), Expect::Refuted)
        );
        if !ok {
            return Err(format!(
                "@{}: verdict {} at K={}, expected {:?}",
                r.func,
                r.status.label(),
                input.k,
                input.expect
            ));
        }
    }
    Ok(())
}
