//! Simulation requests: build a harness around a compiled design, select an
//! engine, run to quiescence, and check every lane against the kernel's
//! software reference.

use crate::trace::Tracer;
use hir_codegen::testbench::{Harness, HarnessArg, HarnessReport, DEFAULT_SIM_MAX_CYCLES};
use std::rc::Rc;
use std::time::Instant;
use verilog::Engine;

/// Stimulus lanes per batched request.
pub const LANES: usize = 16;

/// One seeded stimulus set and the reference answer for it.
pub struct Stimulus {
    pub args: Vec<HarnessArg>,
    /// Expected contents of the output memory; `None` slots are unchecked
    /// (a FIFO writes only the slots of its pop commands).
    pub expect: Vec<Option<i128>>,
}

/// A design compiled in setup, with its pool of stimuli.
pub struct SimDesign {
    pub label: String,
    pub module: ir::Module,
    pub func: hir::ops::FuncOp,
    pub design: verilog::Design,
    /// Argument index of the output memory.
    pub out_arg: usize,
    pub stimuli: Vec<Stimulus>,
    /// `LANES`-wide batches drawn from `stimuli`, built once in setup.
    pub batches: Vec<Vec<Vec<HarnessArg>>>,
}

impl SimDesign {
    pub fn new(
        label: String,
        module: ir::Module,
        func_name: &str,
        design: verilog::Design,
        out_arg: usize,
        stimuli: Vec<Stimulus>,
    ) -> Self {
        let func = kernels::find_func(&module, func_name);
        let batches = (0..stimuli.len())
            .map(|b| {
                (0..LANES)
                    .map(|l| stimuli[(b * LANES + l) % stimuli.len()].args.clone())
                    .collect()
            })
            .collect();
        SimDesign {
            label,
            module,
            func,
            design,
            out_arg,
            stimuli,
            batches,
        }
    }
}

/// One (design, engine) request shape.
pub struct SimInput {
    pub design: Rc<SimDesign>,
    pub engine: Engine,
}

/// Engines a sim workload rotates through, with their metric stems.
pub const ENGINES: [(Engine, &str); 3] = [
    (Engine::Bytecode, "bytecode"),
    (Engine::Event, "event"),
    (Engine::Batched, "batched"),
];

fn check(
    d: &SimDesign,
    stim: &Stimulus,
    report: &HarnessReport,
    lane: usize,
) -> Result<(), String> {
    let got = report
        .mems
        .get(&d.out_arg)
        .ok_or_else(|| format!("lane {lane}: output memory missing"))?;
    for (i, want) in stim.expect.iter().enumerate() {
        if let Some(w) = want {
            if got.get(i) != Some(w) {
                return Err(format!(
                    "lane {lane}: output[{i}] = {:?}, reference {w}",
                    got.get(i)
                ));
            }
        }
    }
    Ok(())
}

/// Run one request; `iter` picks the stimulus (or batch) from the pool.
///
/// # Errors
/// Harness build or simulation failure, or a lane that disagrees with the
/// reference.
pub fn simulate(input: &SimInput, iter: usize, tr: &mut Tracer) -> Result<(), String> {
    let d = &*input.design;
    let (stem_ns, stem_cycles, run_span) = match input.engine {
        Engine::Bytecode => (
            "sim.bytecode.ns",
            "sim.bytecode.cycles",
            "verilog.sim.run.bytecode",
        ),
        Engine::Event => ("sim.event.ns", "sim.event.cycles", "verilog.sim.run.event"),
        _ => (
            "sim.batched.ns",
            "sim.batched.lane_cycles",
            "verilog.sim.run.batched",
        ),
    };
    if input.engine == Engine::Batched {
        let b = iter % d.batches.len();
        // `new_batched` selects the batched engine itself.
        let mut h = tr
            .span("hir_codegen.harness", |_| {
                Harness::new_batched(&d.design, &d.module, d.func, &d.batches[b])
            })
            .map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let reports = tr
            .span(run_span, |_| h.run_batched(DEFAULT_SIM_MAX_CYCLES))
            .map_err(|e| e.to_string())?;
        tr.add(stem_ns, t0.elapsed().as_nanos() as f64);
        tr.add(stem_cycles, (reports[0].cycles * LANES as u64) as f64);
        for (lane, rep) in reports.iter().enumerate() {
            tr.add("verilog.sim.latency_cycles", rep.cycles as f64);
            let stim = &d.stimuli[(b * LANES + lane) % d.stimuli.len()];
            check(d, stim, rep, lane)?;
        }
        tr.span("teardown", |_| drop(h));
        return Ok(());
    }
    let stim = &d.stimuli[iter % d.stimuli.len()];
    let mut h = tr
        .span("hir_codegen.harness", |_| {
            Harness::new(&d.design, &d.module, d.func, &stim.args)
        })
        .map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    tr.span("verilog.sim.set_engine", |_| h.set_engine(input.engine));
    let report = tr
        .span(run_span, |_| h.run(DEFAULT_SIM_MAX_CYCLES))
        .map_err(|e| e.to_string())?;
    tr.add(stem_ns, t0.elapsed().as_nanos() as f64);
    tr.add(stem_cycles, report.cycles as f64);
    tr.add("verilog.sim.latency_cycles", report.cycles as f64);
    if input.engine == Engine::Event {
        if let Some((sruns, pruns, _, _, sinsns, pinsns)) = h.sim().event_activity() {
            tr.add("sim.event.cones", (sruns + pruns) as f64);
            tr.add("sim.event.insns", (sinsns + pinsns) as f64);
        }
    }
    check(d, stim, &report, 0)?;
    tr.span("teardown", |_| drop(h));
    Ok(())
}

/// Tape sizes of `d`'s simulator: `(settle insns, step insns, regs)`.
///
/// # Errors
/// Harness build failure.
pub fn tape_stats(d: &SimDesign) -> Result<(usize, usize, usize), String> {
    let h = Harness::new(&d.design, &d.module, d.func, &d.stimuli[0].args)
        .map_err(|e| e.to_string())?;
    let (_, settle, _, step, regs) = h.sim().tape_stats();
    Ok((settle, step, regs))
}

/// The harness build split into its two halves, each called directly:
/// elaboration (`verilog::flatten`) and tape construction
/// (`Simulator::from_flat`). Traced runs only; not part of any request.
///
/// # Errors
/// Elaboration or tape build failure.
pub fn split_harness_build(d: &SimDesign, tr: &mut Tracer) -> Result<(), String> {
    let top = hir_codegen::module_name(&d.func.name(&d.module));
    let flat = tr
        .span("verilog.elaborate", |_| verilog::flatten(&d.design, &top))
        .map_err(|e| e.to_string())?;
    let sim = tr
        .span("verilog.sim.tape_build", |_| {
            verilog::Simulator::from_flat(&flat)
        })
        .map_err(|e| e.to_string())?;
    std::hint::black_box(&sim);
    Ok(())
}

/// One extra event-engine run with the scheduler-statistics plane on:
/// `(spurious wake rate, mean reader-list walk length)`.
///
/// # Errors
/// Harness or simulation failure.
pub fn sched_stats(d: &SimDesign) -> Result<(f64, f64), String> {
    let mut h = Harness::new(&d.design, &d.module, d.func, &d.stimuli[0].args)
        .map_err(|e| e.to_string())?;
    h.set_engine(Engine::Event);
    h.enable_sched_stats();
    h.run(DEFAULT_SIM_MAX_CYCLES).map_err(|e| e.to_string())?;
    let rep = h
        .sched_stats_report()
        .ok_or("scheduler statistics were not recorded")?;
    let walks = rep.net_wake_walk.count() + rep.mem_wake_walk.count();
    let walked = rep.net_wake_walk.sum() + rep.mem_wake_walk.sum();
    let mean = if walks == 0 {
        0.0
    } else {
        walked as f64 / walks as f64
    };
    Ok((rep.spurious_wake_rate(), mean))
}
