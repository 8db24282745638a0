//! Ablation study: what each HIR optimization pass contributes.
//!
//! For every benchmark, compiles five configurations — no optimization,
//! the standard pipeline, and the standard pipeline with one pass knocked
//! out — and reports the resource deltas attributable to each pass (the
//! design choices DESIGN.md calls out).

use hir_opt::STANDARD_PASS_NAMES;
use ir::{DiagnosticEngine, Module};
use synth::Resources;

/// The knocked-out passes, one column each after "full".
const KNOCKOUTS: [&str; 3] = ["hir-precision-opt", "hir-delay-share", "hir-port-demote"];

/// Verify, run `passes` (when given), generate and estimate the design.
fn compile_with(m: &mut Module, passes: Option<&[&str]>) -> Resources {
    let registry = hir::hir_registry();
    let mut diags = DiagnosticEngine::new();
    ir::verify_module(m, &registry, &mut diags).expect("structural");
    hir_verify::verify_schedule(m, &mut diags).expect("schedule");
    if let Some(passes) = passes {
        hir_opt::function_pipeline_from_names(passes, 1)
            .expect("standard passes are registered")
            .run(m, &registry, &mut diags)
            .expect("passes");
    }
    let design =
        hir_codegen::generate_design(m, &hir_codegen::CodegenOptions::default()).expect("codegen");
    let top = design.modules.last().expect("module").name.clone();
    synth::estimate_design(&design, &top, &synth::CostModel::default())
}

fn main() {
    println!("## Ablation: per-pass resource contributions\n");
    println!(
        "{:<18} {:>12} {:>12} {:>14} {:>14} {:>14}",
        "Benchmark", "no-opt", "full", "-precision", "-delay-share", "-port-demote"
    );
    println!("{}", "-".repeat(90));
    for b in kernels::compiled_benchmarks() {
        let cell = |passes: Option<&[&str]>| {
            let r = compile_with(&mut (b.build_hir)(), passes);
            format!("{}/{}", r.lut, r.ff)
        };
        let mut cells = vec![cell(None), cell(Some(STANDARD_PASS_NAMES))];
        for skip in KNOCKOUTS {
            let without: Vec<&str> = STANDARD_PASS_NAMES
                .iter()
                .copied()
                .filter(|&n| n != skip)
                .collect();
            cells.push(cell(Some(&without)));
        }
        println!(
            "{:<18} {:>12} {:>12} {:>14} {:>14} {:>14}",
            b.name, cells[0], cells[1], cells[2], cells[3], cells[4]
        );
    }
    println!("\ncells are LUT/FF; a column above 'full' shows what that pass was saving.");
}
