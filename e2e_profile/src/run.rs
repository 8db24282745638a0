//! One workload in one process: set up, warm up, time a closed loop for a
//! fixed number of seconds, then report.

use crate::calib;
use crate::heap;
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{self, sim, Fixture, Request, Workload};
use std::time::Instant;

/// Setups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
    /// Write the traced run's spans here as a Chrome trace.
    pub trace_file: Option<std::path::PathBuf>,
}

/// What one run reports.
pub struct Outcome {
    pub attempted: usize,
    pub failures: Vec<(String, String)>,
    /// `(name, value, unit)`, in the order of the metric tables.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Requests sent, and the failures among them.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failures: Vec<(String, String)>,
}

impl Tally {
    fn send(&mut self, f: &Fixture, i: usize, iter: usize, tr: &mut Tracer) {
        self.attempted += 1;
        if let Err(e) = f.requests[i].run(&f.registry, iter, tr) {
            self.failures.push((f.requests[i].label(), e));
        }
    }

    /// Send a request inside a root span named `root`.
    fn send_traced(
        &mut self,
        root: &'static str,
        f: &Fixture,
        i: usize,
        iter: usize,
        tr: &mut Tracer,
    ) {
        tr.set_request(iter as u64);
        tr.span(root, |tr| self.send(f, i, iter, tr));
    }

    /// After a traced simulation request, outside its span: the harness
    /// build split into the two halves `Harness::new` hides, elaboration and
    /// tape construction, each called directly.
    fn probe(&mut self, f: &Fixture, i: usize, tr: &mut Tracer) {
        if let Request::Sim(s) = &f.requests[i] {
            if let Err(e) = tr.span("probe", |tr| sim::split_harness_build(&s.design, tr)) {
                self.failures.push((f.requests[i].label(), e));
            }
        }
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates over a seeded stream).
fn order(seed: u64, n: usize) -> Vec<usize> {
    let draws = kernels::workload::random_bounded(seed, n, 1 << 30);
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, draws[i] as usize % (i + 1));
    }
    v
}

/// Run one workload.
///
/// # Errors
/// Setup failure (an input that does not build); request failures are
/// counted, not errors.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut rec = Tracer::recording();
    let epoch = Instant::now();
    let now_s = || epoch.elapsed().as_secs_f64();
    // Setup runs on one thread whatever the workload, so it has its own
    // one-thread calibration.
    let mut setup_cal = calib::Samples::new(1);

    // Setup, several times; the last fixture is kept. The self-check runs
    // as part of setup, traced (as request 0) on the last repetition.
    let reps = if opts.quick { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut fixture = None;
    for rep in 0..reps {
        drop(fixture.take()); // free the previous fixture first: the heap peak holds one
        setup_cal.take(now_s());
        let t0 = now_s();
        let check = workloads::self_check(opts.seed)?;
        let f = workloads::setup(opts.workload, opts.seed, opts.quick)?;
        let last = rep + 1 == reps;
        for i in 0..check.requests.len() {
            if last && opts.traced {
                tally.send_traced("self_check", &check, i, i, &mut rec);
                tally.probe(&check, i, &mut rec);
            } else {
                tally.send(&check, i, i, &mut Tracer::off());
            }
        }
        let t1 = now_s();
        setup_cal.take(t1);
        setup_s.push((t1 - t0) * setup_cal.scale(t0, t1));
        fixture = Some(f);
    }
    let f = fixture.expect("at least one setup");
    let n = f.requests.len();

    // Warmup: one untimed pass over the distinct requests. Its counters are
    // the run's exact counts (a function of the seed only).
    let mut exact = Tracer::counting();
    for i in 0..n {
        tally.send(&f, i, i, &mut exact);
    }

    // The timed closed loop: one client, next request when the last one
    // returns, in whole passes over the requests (each in a fresh seeded
    // order) until the budget is spent, so every run times the same mix. A
    // traced run alternates untraced and traced passes, so the difference
    // between them is the tracing cost.
    let mut cal = calib::Samples::new(opts.workload.busy_threads());
    let mut requests: Vec<(f64, f64)> = Vec::new(); // (start, end) in s since epoch
    let mut pass_ms: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut traced_requests = 0usize;
    let mut off = Tracer::off();
    let start = now_s();
    let mut iter = n;
    let mut pass = 0;
    while now_s() - start < opts.seconds || (opts.traced && pass_ms[1].is_empty()) {
        let traced_pass = opts.traced && pass % 2 == 1;
        let mut pass_total = 0.0;
        for i in order(workloads::mix(opts.seed, pass), n) {
            if cal
                .last_s()
                .is_none_or(|t| now_s() - t >= calib::EVERY.as_secs_f64())
            {
                cal.take(now_s());
            }
            let t0 = now_s();
            if traced_pass {
                traced_requests += 1;
                tally.send_traced("request", &f, i, iter, &mut rec);
            } else {
                tally.send(&f, i, iter, &mut off);
            }
            let t1 = now_s();
            if traced_pass {
                tally.probe(&f, i, &mut rec);
            }
            requests.push((t0, t1));
            pass_total += (t1 - t0) * 1e3;
            iter += 1;
        }
        pass_ms[usize::from(traced_pass)].push(pass_total);
        pass += 1;
    }
    cal.take(now_s());
    let peak_heap = heap::peak_mb();
    // Request latencies at the reference machine speed.
    let latencies: Vec<f64> = requests
        .iter()
        .map(|&(t0, t1)| (t1 - t0) * 1e3 * cal.scale(t0, t1))
        .collect();

    let metrics = if opts.traced {
        per_layer(
            &f,
            &exact,
            &mut rec,
            traced_requests,
            &pass_ms,
            cal.median_ms(),
        )?
    } else {
        end_to_end(&f, &setup_s, &latencies, peak_heap)?
    };
    if let Some(path) = &opts.trace_file {
        std::fs::write(path, rec.chrome_trace(opts.workload.name()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(Outcome {
        attempted: tally.attempted,
        failures: tally.failures,
        metrics,
    })
}

/// Look up `name`'s unit in `table`.
fn with_unit(
    table: &[Metric],
    name: &'static str,
    value: f64,
) -> (&'static str, f64, &'static str) {
    let m = table
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the table"));
    (name, value, m.unit)
}

fn end_to_end(
    f: &Fixture,
    setup_s: &[f64],
    latencies: &[f64],
    peak_heap: f64,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let mut sorted = latencies.to_vec();
    sorted.sort_by(f64::total_cmp);
    if stats::beyond(&sorted, 90.0) < 10 {
        eprintln!(
            "warning: only {} of {} samples lie beyond p90 (want at least 10)",
            stats::beyond(&sorted, 90.0),
            sorted.len()
        );
    }
    let pct = |p| stats::nearest_rank(&sorted, p).unwrap_or(f64::NAN);
    let (lut, ff) = workloads::area(f)?;
    let values = [
        ("setup_s", stats::median(setup_s)),
        ("request_p50_ms", pct(50.0)),
        ("request_p90_ms", pct(90.0)),
        (
            "requests_per_s",
            1e3 * latencies.len() as f64 / latencies.iter().sum::<f64>(),
        ),
        ("peak_heap_mb", peak_heap),
        ("hw_lut", lut as f64),
        ("hw_ff", ff as f64),
    ];
    Ok(values
        .into_iter()
        .map(|(name, v)| with_unit(END_TO_END, name, v))
        .collect())
}

fn per_layer(
    f: &Fixture,
    exact: &Tracer,
    rec: &mut Tracer,
    traced_requests: usize,
    pass_ms: &[Vec<f64>; 2],
    calibration_ms: f64,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    // Tape sizes and one scheduler-statistics run per simulated design,
    // outside every request.
    let designs = f.sim_designs();
    let mut tape = (0.0, 0.0, 0.0);
    let (mut spurious, mut walk) = (0.0, 0.0);
    for d in &designs {
        let (settle, step, regs) = sim::tape_stats(d)?;
        tape.0 += settle as f64;
        tape.1 += step as f64;
        tape.2 += regs as f64;
        let (s, w) = sim::sched_stats(d)?;
        spurious += s / designs.len() as f64;
        walk += w / designs.len() as f64;
    }

    let self_ms = rec.self_times();
    // Requests in the per-request averages: the timed traced requests plus
    // the traced self-check.
    let requests = (traced_requests + 1) as f64;
    let per_req = |span: &str| {
        self_ms
            .get(span)
            .map_or(0.0, |&ns| ns as f64 / 1e6 / requests)
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let rate = |cycles: &str, ns: &str| ratio(rec.counter(cycles), rec.counter(ns) / 1e9);
    let request_ns = rec.root_total_ns("request") + rec.root_total_ns("self_check");
    let glue_ns = self_ms.get("request").copied().unwrap_or(0)
        + self_ms.get("self_check").copied().unwrap_or(0);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let [untraced, traced] = pass_ms;

    let mut values: Vec<(&'static str, f64)> = vec![
        (
            "trace_overhead_pct",
            100.0 * (ratio(mean(traced), mean(untraced)) - 1.0),
        ),
        (
            "trace.coverage",
            ratio((request_ns - glue_ns) as f64, request_ns as f64),
        ),
        ("bench.glue.ms", glue_ns as f64 / 1e6 / requests),
        ("bench.calibration.ms", calibration_ms),
    ];
    for span in [
        "ir.parse",
        "hir.parse_pretty",
        "ir.verify",
        "hir_verify.schedule",
        "hir_opt.pipeline",
        "hir_verify.reverify",
        "hir_codegen.generate",
        "verilog.print",
        "hir_codegen.harness",
        "verilog.sim.set_engine",
        "verilog.sim.run.bytecode",
        "verilog.sim.run.event",
        "verilog.sim.run.batched",
        "bmc.prove",
        "bmc.refute",
        "verilog.elaborate",
        "verilog.sim.tape_build",
        "teardown",
    ] {
        values.push((leak_ms(span), per_req(span)));
    }
    for (_, metric) in workloads::compile::PASS_METRICS {
        values.push((metric, rec.counter(metric) / requests));
    }
    values.push((
        "ir.parallel.imbalance",
        ratio(
            rec.counter("ir.parallel.imbalance"),
            rec.counter("ir.parallel.runs"),
        ),
    ));
    values.push((
        "ir.parallel.overhead_ms",
        rec.counter("ir.parallel.overhead_ms") / requests,
    ));
    // `SolverStats` times whole milliseconds per check, too coarse to
    // average per request; their split of the checks' time is exact enough.
    let phases = [
        "bmc.lower_ms",
        "bmc.blast_ms",
        "bmc.solve_ms",
        "bmc.replay_ms",
    ];
    let phase_total: f64 = phases.iter().map(|p| rec.counter(p)).sum();
    for (phase, share) in phases.into_iter().zip([
        "bmc.lower_share",
        "bmc.blast_share",
        "bmc.solve_share",
        "bmc.replay_share",
    ]) {
        values.push((share, ratio(rec.counter(phase), phase_total)));
    }
    values.extend([
        (
            "verilog.sim.bytecode.cycles_per_s",
            rate("sim.bytecode.cycles", "sim.bytecode.ns"),
        ),
        (
            "verilog.sim.event.cycles_per_s",
            rate("sim.event.cycles", "sim.event.ns"),
        ),
        (
            "verilog.sim.batched.lane_cycles_per_s",
            rate("sim.batched.lane_cycles", "sim.batched.ns"),
        ),
    ]);
    // Exact counts, from the warmup pass over the distinct requests.
    for c in [
        "ir.ops_parsed",
        "hir_opt.ops_removed",
        "hir_codegen.reg_bits",
        "verilog.print.bytes",
        "verilog.sim.latency_cycles",
        "bmc.conflicts",
        "bmc.propagations",
        "bmc.clauses",
        "bmc.vars",
    ] {
        values.push((c, exact.counter(c)));
    }
    let event_cycles = exact.counter("sim.event.cycles");
    values.extend([
        (
            "bmc.blast_hit_rate",
            ratio(
                exact.counter("bmc.blast_hits"),
                exact.counter("bmc.blast_lookups"),
            ),
        ),
        ("verilog.sim.settle_tape_insns", tape.0),
        ("verilog.sim.step_tape_insns", tape.1),
        ("verilog.sim.regs", tape.2),
        (
            "verilog.sim.event.insns_per_cycle",
            ratio(exact.counter("sim.event.insns"), event_cycles),
        ),
        (
            "verilog.sim.event.cones_per_cycle",
            ratio(exact.counter("sim.event.cones"), event_cycles),
        ),
        ("verilog.sim.event.spurious_wake_rate", spurious),
        ("verilog.sim.event.wake_walk_mean", walk),
    ]);
    Ok(values
        .into_iter()
        .map(|(name, v)| with_unit(PER_LAYER, name, v))
        .collect())
}

/// `<span>.ms`, the per-layer metric name of a span.
fn leak_ms(span: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|m| m.name.strip_suffix(".ms") == Some(span))
        .unwrap_or_else(|| panic!("no per-layer metric for span {span}"))
        .name
}
