//! Every metric the benchmark prints, with its unit. `BENCHMARK.json` lists
//! the same names and units (the smoke test checks that they agree); the
//! bounds live only there.

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Reported by an untraced run (`--trace 0`), for every workload.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("request_p50_ms", "ms"),
    m("request_p90_ms", "ms"),
    m("requests_per_s", "1/s"),
    m("peak_heap_mb", "MB"),
    m("hw_lut", "count"),
    m("hw_ff", "count"),
];

/// Reported by a traced run (`--trace 1`), for every workload. Times are
/// self time per request; counts are exact, from the warmup pass.
pub const PER_LAYER: &[Metric] = &[
    m("trace_overhead_pct", "%"),
    m("trace.coverage", "fraction"),
    m("bench.glue.ms", "ms"),
    m("bench.calibration.ms", "ms"),
    m("ir.parse.ms", "ms"),
    m("hir.parse_pretty.ms", "ms"),
    m("ir.verify.ms", "ms"),
    m("hir_verify.schedule.ms", "ms"),
    m("hir_opt.pipeline.ms", "ms"),
    m("hir_verify.reverify.ms", "ms"),
    m("hir_codegen.generate.ms", "ms"),
    m("verilog.print.ms", "ms"),
    m("hir_codegen.harness.ms", "ms"),
    m("verilog.sim.set_engine.ms", "ms"),
    m("verilog.sim.run.bytecode.ms", "ms"),
    m("verilog.sim.run.event.ms", "ms"),
    m("verilog.sim.run.batched.ms", "ms"),
    m("bmc.prove.ms", "ms"),
    m("bmc.refute.ms", "ms"),
    m("verilog.elaborate.ms", "ms"),
    m("verilog.sim.tape_build.ms", "ms"),
    m("teardown.ms", "ms"),
    m("hir_opt.hir-canonicalize.ms", "ms"),
    m("hir_opt.hir-cse.ms", "ms"),
    m("hir_opt.hir-retime.ms", "ms"),
    m("hir_opt.hir-delay-share.ms", "ms"),
    m("hir_opt.hir-precision-opt.ms", "ms"),
    m("hir_opt.hir-port-demote.ms", "ms"),
    m("ir.parallel.overhead_ms", "ms"),
    m("ir.parallel.imbalance", "ratio"),
    m("bmc.lower_share", "fraction"),
    m("bmc.blast_share", "fraction"),
    m("bmc.solve_share", "fraction"),
    m("bmc.replay_share", "fraction"),
    m("verilog.sim.bytecode.cycles_per_s", "cycles/s"),
    m("verilog.sim.event.cycles_per_s", "cycles/s"),
    m("verilog.sim.batched.lane_cycles_per_s", "lane-cycles/s"),
    m("ir.ops_parsed", "count"),
    m("hir_opt.ops_removed", "count"),
    m("hir_codegen.reg_bits", "count"),
    m("verilog.print.bytes", "bytes"),
    m("verilog.sim.latency_cycles", "cycles"),
    m("bmc.conflicts", "count"),
    m("bmc.propagations", "count"),
    m("bmc.clauses", "count"),
    m("bmc.vars", "count"),
    m("bmc.blast_hit_rate", "fraction"),
    m("verilog.sim.settle_tape_insns", "count"),
    m("verilog.sim.step_tape_insns", "count"),
    m("verilog.sim.regs", "count"),
    m("verilog.sim.event.insns_per_cycle", "ratio"),
    m("verilog.sim.event.cones_per_cycle", "ratio"),
    m("verilog.sim.event.spurious_wake_rate", "fraction"),
    m("verilog.sim.event.wake_walk_mean", "ratio"),
];
