//! # `hls` — a baseline high-level synthesis compiler (Vivado HLS stand-in)
//!
//! The paper evaluates HIR against Xilinx Vivado HLS 2019.1, which is
//! proprietary and unavailable here. This crate substitutes a from-scratch
//! HLS compiler that performs the same *kind* of work:
//!
//! 1. a C-like kernel IR with `pipeline`/`unroll`/`array_partition`
//!    pragmas ([`ast`]);
//! 2. frontend cleanup: full unrolling and constant folding ([`frontend`]);
//! 3. **automatic scheduling**: data-flow graph construction, operator
//!    chaining under a target clock period, and iterative modulo
//!    scheduling with memory-port reservation tables and loop-carried
//!    dependence checks ([`schedule`]) — the searches that dominate HLS
//!    compile time (paper Table 6);
//! 4. emission of the found schedule as explicitly-scheduled HIR
//!    ([`emit`]), then RTL through `hir-codegen` — realizing the paper's
//!    §9.2 vision of HLS compilers using HIR as their backend IR.
//!
//! Characteristic HLS resource overheads appear naturally in the output:
//! 32-bit default loop counters, per-stage registering of every value, and
//! conservative chaining — which is what the paper's Tables 4 and 5 measure
//! against hand-scheduled HIR.

pub mod ast;
pub mod emit;
pub mod frontend;
pub mod schedule;

pub use ast::{ArrayDecl, ArrayDir, KExpr, KOp, KStmt, Kernel, LoopPragmas, ScalarDecl};
pub use emit::{array_memkind, emit_kernel, CompileStats};
pub use frontend::run_frontend;
pub use hir_codegen::testbench::{HarnessArg, HarnessReport};
pub use schedule::{SchedOptions, ScheduleError};

use std::time::{Duration, Instant};

/// Run a generated design under the RTL testbench harness, optionally
/// dumping a VCD waveform of the entire run (this is the crate's doorway to
/// [`verilog::Simulator::start_vcd`] for examples and evaluation scripts).
///
/// `func` is the HIR function name (not the Verilog module name).
///
/// # Errors
/// Fails when the function is missing, the design does not elaborate, the
/// VCD file cannot be created, or the run does not quiesce in `max_cycles`.
pub fn simulate_with_vcd(
    module: &ir::Module,
    design: &verilog::Design,
    func: &str,
    args: &[HarnessArg],
    max_cycles: u64,
    vcd: Option<&std::path::Path>,
) -> Result<HarnessReport, ScheduleError> {
    let table = ir::SymbolTable::build(module);
    let op = table
        .lookup(func)
        .ok_or_else(|| ScheduleError(format!("no function @{func} in module")))?;
    let f = hir::ops::FuncOp::wrap(module, op)
        .ok_or_else(|| ScheduleError(format!("@{func} is not a hir.func")))?;
    let mut h = hir_codegen::testbench::Harness::new(design, module, f, args)
        .map_err(|e| ScheduleError(e.to_string()))?;
    if let Some(path) = vcd {
        h.dump_vcd(path).map_err(|e| ScheduleError(e.to_string()))?;
    }
    h.run(max_cycles).map_err(|e| ScheduleError(e.to_string()))
}

/// Run N independent stimulus sets through one batched (bit-parallel) RTL
/// simulation — one lane per stimulus set, all lanes sharing the clock —
/// and return one report per lane. Lane 0 is bit-identical to a scalar
/// [`simulate_with_vcd`] run with the same arguments.
///
/// # Errors
/// Same failure modes as [`simulate_with_vcd`], plus lane-shape mismatches;
/// an RTL assertion failure in any lane aborts the whole batch.
pub fn simulate_batched(
    module: &ir::Module,
    design: &verilog::Design,
    func: &str,
    lane_args: &[Vec<HarnessArg>],
    max_cycles: u64,
) -> Result<Vec<HarnessReport>, ScheduleError> {
    let table = ir::SymbolTable::build(module);
    let op = table
        .lookup(func)
        .ok_or_else(|| ScheduleError(format!("no function @{func} in module")))?;
    let f = hir::ops::FuncOp::wrap(module, op)
        .ok_or_else(|| ScheduleError(format!("@{func} is not a hir.func")))?;
    let mut h = hir_codegen::testbench::Harness::new_batched(design, module, f, lane_args)
        .map_err(|e| ScheduleError(e.to_string()))?;
    h.run_batched(max_cycles)
        .map_err(|e| ScheduleError(e.to_string()))
}

/// Everything a telemetry-instrumented RTL run produces.
#[derive(Debug)]
pub struct TelemetryRun {
    /// Functional results of the run (same as [`simulate_with_vcd`]).
    pub report: HarnessReport,
    /// Runtime counters: toggles, cone quiescence, per-unit utilization.
    pub telemetry: verilog::TelemetryReport,
    /// Chrome-trace JSON of per-cone busy/quiescent periods, when requested.
    pub trace: Option<String>,
    /// Scheduler statistics (dirty-set occupancy, wake walks, commit
    /// compares), when requested.
    pub sched: Option<verilog::SchedStatsReport>,
}

/// Like [`simulate_with_vcd`], but with the simulator's telemetry plane
/// enabled: the returned [`verilog::TelemetryReport`] carries toggle and
/// activity counters, per-cone quiescence, and — joined through the
/// function's static resource tally — dynamic utilization per scheduled
/// unit. With `record_trace`, a Chrome-trace JSON of busy/quiescent periods
/// per cone is also produced. With `sched_stats`, the simulator's
/// scheduler-statistics plane is enabled too and its report returned.
///
/// # Errors
/// Same failure modes as [`simulate_with_vcd`].
pub fn simulate_with_telemetry(
    module: &ir::Module,
    design: &verilog::Design,
    func: &str,
    args: &[HarnessArg],
    max_cycles: u64,
    record_trace: bool,
    sched_stats: bool,
) -> Result<TelemetryRun, ScheduleError> {
    let table = ir::SymbolTable::build(module);
    let op = table
        .lookup(func)
        .ok_or_else(|| ScheduleError(format!("no function @{func} in module")))?;
    let f = hir::ops::FuncOp::wrap(module, op)
        .ok_or_else(|| ScheduleError(format!("@{func} is not a hir.func")))?;
    let resources = hir_codegen::generate_func_with_resources(
        module,
        f,
        &hir_codegen::CodegenOptions::default(),
    )
    .map(|(_, r)| r)
    .map_err(|e| ScheduleError(e.to_string()))?;
    let mut h = hir_codegen::testbench::Harness::new(design, module, f, args)
        .map_err(|e| ScheduleError(e.to_string()))?;
    h.enable_telemetry(record_trace);
    if sched_stats {
        h.enable_sched_stats();
    }
    let report = h
        .run(max_cycles)
        .map_err(|e| ScheduleError(e.to_string()))?;
    let telemetry = h
        .telemetry_report(Some(&resources))
        .expect("telemetry was enabled");
    let trace = h.telemetry_trace();
    let sched = h.sched_stats_report();
    Ok(TelemetryRun {
        report,
        telemetry,
        trace,
        sched,
    })
}

/// A compiled kernel: the scheduled HIR, the generated RTL, and statistics.
#[derive(Debug)]
pub struct Compiled {
    /// The kernel lowered to explicitly-scheduled HIR.
    pub hir_module: ir::Module,
    /// The generated Verilog design.
    pub design: verilog::Design,
    /// Name of the top Verilog module.
    pub top: String,
    /// Scheduling/binding statistics.
    pub stats: CompileStats,
    /// Wall-clock compile time (frontend + scheduling + RTL).
    pub elapsed: Duration,
}

/// Compile a kernel end to end.
///
/// # Errors
/// Fails on unsupported constructs, infeasible schedules, or codegen errors.
pub fn compile(kernel: &Kernel, opts: &SchedOptions) -> Result<Compiled, ScheduleError> {
    let start = Instant::now();
    let expanded = frontend::run_frontend(kernel);
    let (hir_module, stats) = emit::emit_kernel(&expanded, opts)?;
    // The emitted schedule must be sound by construction; verifying it here
    // is the equivalent of an HLS tool validating its own scheduler.
    let mut diags = ir::DiagnosticEngine::new();
    hir_verify::verify_schedule(&hir_module, &mut diags).map_err(|_| {
        ScheduleError(format!(
            "internal: emitted schedule is invalid:\n{}",
            diags.render()
        ))
    })?;
    let design = hir_codegen::generate_design(&hir_module, &hir_codegen::CodegenOptions::default())
        .map_err(|e| ScheduleError(format!("RTL generation failed: {e}")))?;
    let top = hir_codegen::module_name(&format!("hls_{}", kernel.name));
    Ok(Compiled {
        hir_module,
        design,
        top,
        stats,
        elapsed: start.elapsed(),
    })
}

impl Compiled {
    /// RTL-simulate this compiled kernel, optionally dumping a VCD waveform.
    ///
    /// # Errors
    /// Same failure modes as [`simulate_with_vcd`].
    pub fn simulate_with_vcd(
        &self,
        args: &[HarnessArg],
        max_cycles: u64,
        vcd: Option<&std::path::Path>,
    ) -> Result<HarnessReport, ScheduleError> {
        let func = self.top.strip_prefix("hir_").unwrap_or(&self.top);
        simulate_with_vcd(&self.hir_module, &self.design, func, args, max_cycles, vcd)
    }

    /// RTL-simulate N independent stimulus sets in one batched pass (one
    /// bit-parallel lane per set).
    ///
    /// # Errors
    /// Same failure modes as [`simulate_batched`].
    pub fn simulate_batched(
        &self,
        lane_args: &[Vec<HarnessArg>],
        max_cycles: u64,
    ) -> Result<Vec<HarnessReport>, ScheduleError> {
        let func = self.top.strip_prefix("hir_").unwrap_or(&self.top);
        simulate_batched(&self.hir_module, &self.design, func, lane_args, max_cycles)
    }

    /// RTL-simulate this compiled kernel with runtime telemetry enabled.
    ///
    /// # Errors
    /// Same failure modes as [`simulate_with_telemetry`].
    pub fn simulate_with_telemetry(
        &self,
        args: &[HarnessArg],
        max_cycles: u64,
        record_trace: bool,
        sched_stats: bool,
    ) -> Result<TelemetryRun, ScheduleError> {
        let func = self.top.strip_prefix("hir_").unwrap_or(&self.top);
        simulate_with_telemetry(
            &self.hir_module,
            &self.design,
            func,
            args,
            max_cycles,
            record_trace,
            sched_stats,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hir::interp::{ArgValue, Interpreter};

    /// C-style vector add with a pipeline pragma.
    fn vadd_kernel(n: u64) -> Kernel {
        let mut k = Kernel::new("vadd");
        k.in_array("a", 32, &[n])
            .in_array("b", 32, &[n])
            .out_array("c", 32, &[n]);
        k.body = vec![KStmt::For {
            var: "i".into(),
            lb: 0,
            ub: n as i64,
            step: 1,
            pragmas: LoopPragmas {
                pipeline_ii: Some(1),
                unroll: false,
            },
            body: vec![KStmt::Store {
                array: "c".into(),
                indices: vec![KExpr::var("i")],
                value: KExpr::add(
                    KExpr::read("a", vec![KExpr::var("i")]),
                    KExpr::read("b", vec![KExpr::var("i")]),
                ),
            }],
        }];
        k
    }

    #[test]
    fn vadd_compiles_and_is_functionally_correct() {
        let k = vadd_kernel(16);
        let c = compile(&k, &SchedOptions::default()).expect("compile");
        assert_eq!(c.stats.loops, 1);
        assert_eq!(c.stats.achieved_iis, vec![1]);

        // Run the emitted HIR through the interpreter.
        let interp = Interpreter::new(&c.hir_module);
        let a: Vec<i128> = (0..16).collect();
        let b: Vec<i128> = (0..16).map(|x| 100 - x).collect();
        let r = interp
            .run(
                "hls_vadd",
                &[
                    ArgValue::tensor_from(&a),
                    ArgValue::tensor_from(&b),
                    ArgValue::uninit_tensor(16),
                ],
            )
            .expect("simulate");
        assert!(r.tensors[&2].iter().all(|&v| v == Some(100)));
    }

    #[test]
    fn nested_loops_compile() {
        // 2-d copy with pipelined inner loop.
        let mut k = Kernel::new("copy2d");
        k.in_array("a", 32, &[4, 4]).out_array("c", 32, &[4, 4]);
        k.body = vec![KStmt::For {
            var: "i".into(),
            lb: 0,
            ub: 4,
            step: 1,
            pragmas: LoopPragmas::default(),
            body: vec![KStmt::For {
                var: "j".into(),
                lb: 0,
                ub: 4,
                step: 1,
                pragmas: LoopPragmas {
                    pipeline_ii: Some(1),
                    unroll: false,
                },
                body: vec![KStmt::Store {
                    array: "c".into(),
                    indices: vec![KExpr::var("i"), KExpr::var("j")],
                    value: KExpr::read("a", vec![KExpr::var("i"), KExpr::var("j")]),
                }],
            }],
        }];
        let c = compile(&k, &SchedOptions::default()).expect("compile");
        let interp = Interpreter::new(&c.hir_module);
        let data: Vec<i128> = (0..16).collect();
        let r = interp
            .run(
                "hls_copy2d",
                &[ArgValue::tensor_from(&data), ArgValue::uninit_tensor(16)],
            )
            .expect("simulate");
        let out: Vec<i128> = r.tensors[&1].iter().map(|v| v.unwrap()).collect();
        assert_eq!(out, data);
    }

    #[test]
    fn histogram_style_rmw_gets_conservative_ii() {
        let mut k = Kernel::new("hist");
        k.in_array("x", 8, &[32]);
        k.out_array("histo", 32, &[16]);
        k.local_array("acc", 32, &[16], &[]);
        k.body = vec![
            // Zero the accumulator.
            KStmt::For {
                var: "z".into(),
                lb: 0,
                ub: 16,
                step: 1,
                pragmas: LoopPragmas {
                    pipeline_ii: Some(1),
                    unroll: false,
                },
                body: vec![KStmt::Store {
                    array: "acc".into(),
                    indices: vec![KExpr::var("z")],
                    value: KExpr::c(0, 32),
                }],
            },
            // acc[x[i]]++.
            KStmt::For {
                var: "i".into(),
                lb: 0,
                ub: 32,
                step: 1,
                pragmas: LoopPragmas {
                    pipeline_ii: Some(1),
                    unroll: false,
                },
                body: vec![KStmt::Store {
                    array: "acc".into(),
                    indices: vec![KExpr::read("x", vec![KExpr::var("i")])],
                    value: KExpr::add(
                        KExpr::read("acc", vec![KExpr::read("x", vec![KExpr::var("i")])]),
                        KExpr::c(1, 32),
                    ),
                }],
            },
            // Copy out.
            KStmt::For {
                var: "o".into(),
                lb: 0,
                ub: 16,
                step: 1,
                pragmas: LoopPragmas {
                    pipeline_ii: Some(1),
                    unroll: false,
                },
                body: vec![KStmt::Store {
                    array: "histo".into(),
                    indices: vec![KExpr::var("o")],
                    value: KExpr::read("acc", vec![KExpr::var("o")]),
                }],
            },
        ];
        let c = compile(&k, &SchedOptions::default()).expect("compile");
        // The RMW loop cannot reach II=1 with a 1-cycle-latency RAM.
        assert!(
            c.stats.achieved_iis.iter().any(|&ii| ii >= 2),
            "{:?}",
            c.stats.achieved_iis
        );

        // Functional check: all-same input.
        let interp = Interpreter::new(&c.hir_module);
        let x: Vec<i128> = (0..32).map(|i| i % 4).collect();
        let r = interp
            .run(
                "hls_hist",
                &[ArgValue::tensor_from(&x), ArgValue::uninit_tensor(16)],
            )
            .expect("simulate");
        let out: Vec<i128> = r.tensors[&1].iter().map(|v| v.unwrap()).collect();
        assert_eq!(&out[..4], &[8, 8, 8, 8]);
        assert!(out[4..].iter().all(|&v| v == 0));
    }

    #[test]
    fn hls_uses_wide_counters_by_default() {
        // The Table 4 effect: the default counter width is 32 bits, so the
        // HLS design carries more FFs than a width-optimized one.
        let k = vadd_kernel(16);
        let c_default = compile(&k, &SchedOptions::default()).expect("compile");
        let mut k_manual = vadd_kernel(16);
        k_manual.loop_var_width = 5; // the paper's "manual opt"
        let c_manual = compile(&k_manual, &SchedOptions::default()).expect("compile");

        let model = synth::CostModel::default();
        let r_default = synth::estimate_design(&c_default.design, &c_default.top, &model);
        let r_manual = synth::estimate_design(&c_manual.design, &c_manual.top, &model);
        assert!(
            r_default.ff > r_manual.ff,
            "default {} FF should exceed manual {} FF",
            r_default.ff,
            r_manual.ff
        );
    }

    #[test]
    fn rtl_of_compiled_kernel_simulates() {
        use hir::ops::FuncOp;
        use hir_codegen::testbench::{Harness, HarnessArg};
        let k = vadd_kernel(8);
        let c = compile(&k, &SchedOptions::default()).expect("compile");
        let func = FuncOp::wrap(&c.hir_module, c.hir_module.top_ops()[0]).unwrap();
        let a: Vec<i128> = (0..8).collect();
        let b: Vec<i128> = (0..8).map(|x| 50 - x).collect();
        let mut h = Harness::new(
            &c.design,
            &c.hir_module,
            func,
            &[
                HarnessArg::mem_from(&a),
                HarnessArg::mem_from(&b),
                HarnessArg::zero_mem(8),
            ],
        )
        .expect("harness");
        let r = h.run(10_000).expect("RTL sim");
        assert!(r.mems[&2].iter().all(|&v| v == 50), "{:?}", r.mems[&2]);
    }

    #[test]
    fn batched_lanes_match_scalar_runs() {
        let k = vadd_kernel(8);
        let c = compile(&k, &SchedOptions::default()).expect("compile");
        // Three stimulus sets, one lane each.
        let lane_args: Vec<Vec<HarnessArg>> = (0..3)
            .map(|lane| {
                let a: Vec<i128> = (0..8).map(|x| x + lane as i128 * 10).collect();
                let b: Vec<i128> = (0..8).map(|x| 50 - x * (lane as i128 + 1)).collect();
                vec![
                    HarnessArg::mem_from(&a),
                    HarnessArg::mem_from(&b),
                    HarnessArg::zero_mem(8),
                ]
            })
            .collect();
        let batched = c.simulate_batched(&lane_args, 10_000).expect("batched sim");
        assert_eq!(batched.len(), 3);
        for (lane, args) in lane_args.iter().enumerate() {
            let scalar = c.simulate_with_vcd(args, 10_000, None).expect("scalar sim");
            assert_eq!(batched[lane].cycles, scalar.cycles, "lane {lane} latency");
            assert_eq!(batched[lane].results, scalar.results, "lane {lane}");
            assert_eq!(batched[lane].mems, scalar.mems, "lane {lane} memories");
        }
    }

    #[test]
    fn telemetry_run_reports_unit_utilization() {
        let k = vadd_kernel(8);
        let c = compile(&k, &SchedOptions::default()).expect("compile");
        let a: Vec<i128> = (0..8).collect();
        let b: Vec<i128> = (0..8).map(|x| 50 - x).collect();
        let run = c
            .simulate_with_telemetry(
                &[
                    HarnessArg::mem_from(&a),
                    HarnessArg::mem_from(&b),
                    HarnessArg::zero_mem(8),
                ],
                10_000,
                true,
                true,
            )
            .expect("telemetry sim");
        // Telemetry must not disturb the functional result.
        assert!(run.report.mems[&2].iter().all(|&v| v == 50));
        assert!(run.telemetry.cycles > 0);
        let sched = run.sched.expect("sched stats were requested");
        assert!(sched.cycles > 0);
        obs::json::parse(&obs::json::document(&sched)).expect("strict sched-stats JSON");
        assert!(
            run.telemetry
                .units
                .iter()
                .any(|u| u.unit.starts_with("arith.")),
            "unit utilization should include the adder: {:?}",
            run.telemetry.units
        );
        obs::json::parse(&obs::json::document(&run.telemetry)).expect("strict telemetry JSON");
        let trace = run.trace.expect("trace was requested");
        obs::json::parse(&trace).expect("strict trace JSON");
    }
}
