//! Compile requests: `hirc --opt`'s in-process path, one public call per
//! layer.

use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;

/// One input file's worth of compile work.
pub struct CompileInput {
    pub label: String,
    pub text: String,
    /// Paper-style pretty syntax (`hir.func ...`) instead of generic IR.
    pub pretty: bool,
    /// The input must be rejected with a diagnostic containing this text.
    pub expect_error: Option<&'static str>,
    /// Worker threads for the per-function pipeline and verifier.
    pub threads: usize,
    /// Same text at every seed, so its area compares exactly across seeds.
    pub seed_independent: bool,
}

/// What a successful compile produced.
pub struct Compiled {
    pub module: ir::Module,
    pub design: verilog::Design,
}

/// Per-layer counter name of each standard-pipeline pass (its summed CPU
/// time in ms, from `PassTiming`).
pub const PASS_METRICS: [(&str, &str); 6] = [
    ("hir-canonicalize", "hir_opt.hir-canonicalize.ms"),
    ("hir-cse", "hir_opt.hir-cse.ms"),
    ("hir-retime", "hir_opt.hir-retime.ms"),
    ("hir-delay-share", "hir_opt.hir-delay-share.ms"),
    ("hir-precision-opt", "hir_opt.hir-precision-opt.ms"),
    ("hir-port-demote", "hir_opt.hir-port-demote.ms"),
];

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Compile `input` the way `hirc --opt` does: parse → verify → standard
/// per-function pipeline → re-verify → codegen → print. Returns `Ok(None)`
/// when the input was rejected with its expected diagnostic.
///
/// # Errors
/// Any unexpected diagnostic, or a missing expected one.
pub fn compile(
    input: &CompileInput,
    registry: &ir::DialectRegistry,
    tr: &mut Tracer,
) -> Result<Option<Compiled>, String> {
    let threads = input.threads;
    let (module, errors) = if input.pretty {
        let r = tr.span("hir.parse_pretty", |_| {
            hir::parse_pretty_recover(&input.text, 0)
        });
        let errs: Vec<String> = r.errors.iter().map(|e| e.message.clone()).collect();
        (r.module, errs)
    } else {
        let r = tr.span("ir.parse", |_| ir::parse_module_recover(&input.text, 0));
        let errs: Vec<String> = r.errors.iter().map(|e| e.message.clone()).collect();
        (r.module, errs)
    };
    if let Some(first) = errors.first() {
        return Err(format!("{} parse error(s), first: {first}", errors.len()));
    }
    let mut module = module;
    tr.add("ir.ops_parsed", module.op_count() as f64);

    let mut diags = ir::DiagnosticEngine::new();
    let verified = tr
        .span("ir.verify", |_| {
            ir::verify_module(&module, registry, &mut diags)
        })
        .is_ok()
        && tr
            .span("hir_verify.schedule", |_| {
                hir_verify::verify_schedule_with_threads(&module, &mut diags, threads)
            })
            .is_ok();
    match (verified, input.expect_error) {
        (false, Some(want)) if diags.render().contains(want) => return Ok(None),
        (false, _) => {
            let text = diags.render();
            let first = text.lines().find(|l| !l.trim().is_empty()).unwrap_or("");
            return Err(format!("verification failed: {first}"));
        }
        (true, Some(want)) => return Err(format!("expected diagnostic '{want}' was not produced")),
        (true, None) => {}
    }

    let mut fp = hir_opt::standard_function_pipeline(threads);
    let mut opt_diags = ir::DiagnosticEngine::new();
    let t0 = Instant::now();
    let run = tr.span("hir_opt.pipeline", |_| {
        fp.run(&mut module, registry, &mut opt_diags)
    });
    let wall = t0.elapsed();
    run.map_err(|e| format!("pipeline: {e}"))?;
    record_pipeline(&fp, wall, tr);

    let mut rediags = ir::DiagnosticEngine::new();
    tr.span("hir_verify.reverify", |_| {
        hir_verify::verify_schedule_with_threads(&module, &mut rediags, threads)
    })
    .map_err(|_| format!("optimized module fails verification: {}", rediags.render()))?;

    let (design, report) = tr
        .span("hir_codegen.generate", |_| {
            hir_codegen::generate_design_with_report(
                &module,
                &hir_codegen::CodegenOptions::default(),
            )
        })
        .map_err(|e| format!("codegen: {e}"))?;
    let reg_bits: u64 = report.functions.iter().map(|f| f.register_bits).sum();
    tr.add("hir_codegen.reg_bits", reg_bits as f64);
    let text = tr.span("verilog.print", |_| verilog::print_design(&design));
    tr.add("verilog.print.bytes", text.len() as f64);
    tr.span("teardown", |_| drop(text));
    Ok(Some(Compiled { module, design }))
}

/// Pass times, ops removed, and the split between the parallel pipeline's
/// busiest worker and everything else (split, pool, splice).
fn record_pipeline(fp: &ir::FunctionPipeline, wall: std::time::Duration, tr: &mut Tracer) {
    let timings = fp.timings();
    for t in timings {
        if let Some((_, metric)) = PASS_METRICS.iter().find(|(p, _)| *p == t.name) {
            tr.add(metric, ms(t.duration));
        }
    }
    if let (Some(first), Some(last)) = (timings.first(), timings.last()) {
        tr.add(
            "hir_opt.ops_removed",
            first.ops_before as f64 - last.ops_after as f64,
        );
    }
    let mut per_worker: BTreeMap<usize, f64> = BTreeMap::new();
    for r in fp.function_reports() {
        *per_worker.entry(r.worker).or_default() +=
            r.timings.iter().map(|t| ms(t.duration)).sum::<f64>();
    }
    let busiest = per_worker.values().copied().fold(0.0, f64::max);
    let mean = per_worker.values().sum::<f64>() / per_worker.len().max(1) as f64;
    tr.add("ir.parallel.overhead_ms", (ms(wall) - busiest).max(0.0));
    tr.add("ir.parallel.runs", 1.0);
    tr.add(
        "ir.parallel.imbalance",
        if mean > 0.0 { busiest / mean } else { 1.0 },
    );
}
