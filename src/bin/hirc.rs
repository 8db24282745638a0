//! `hirc` — the HIR compiler driver.
//!
//! Reads a module in the generic textual IR format, verifies it
//! (structure + schedule), optionally runs the optimization pipeline, and
//! emits Verilog (default), pretty-printed HIR, or canonical IR.
//!
//! ```text
//! hirc design.mlir                      # verify + emit Verilog to stdout
//! hirc design.mlir --opt -o out.v       # optimize first
//! hirc design.mlir --emit=pretty        # paper-style HIR syntax
//! hirc design.mlir --verify-only        # exit 0/1 with diagnostics
//! hirc design.mlir --timing             # report per-pass wall time
//! hirc design.mlir --opt --stats        # counter table from all stages
//! hirc design.mlir --profile=t.json     # Chrome trace-event profile
//! hirc design.mlir --print-ir-after-all # dump IR between passes
//! hirc repro.mlir                       # crash reproducers re-run themselves
//! ```
//!
//! All diagnostics go to stderr; only the requested artifact goes to stdout.
//! Exit codes distinguish *user* errors (1) from *compiler* bugs (3) so that
//! scripts and the fuzz harness can triage failures mechanically.

use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "usage: hirc <input.mlir> [options]

options:
  --opt                    run the standard optimization pipeline
  --pipeline=a,b,c         run an explicit comma-separated pass pipeline
  --threads=N              worker threads for the per-function pass pipeline
                           and schedule verification: a positive integer or
                           'max' (all cores). Default: HIRC_THREADS if set
                           to a positive integer, else all available cores.
                           Output is byte-identical at every thread count.
  --verify-only            stop after verification
  --verify-each            re-verify the module after every pass
  --crash-reproducer=PATH  on pass panic or verifier failure, write an
                           MLIR-style reproducer (pre-pass IR + remaining
                           pipeline) to PATH
  --error-limit=N          stop reporting parse errors after N (default 20)
  --emit=KIND              output kind: verilog (default), pretty, ir,
                           sim (generate the design, run it in the RTL
                           harness, and print a deterministic run summary),
                           or btor2 (word-level transition system of the
                           last function's generated design, BTOR2 format)
  -o PATH                  write output to PATH instead of stdout
  --sim-vcd=PATH           with --emit=sim, dump a VCD waveform of the whole
                           harness run to PATH
  --sim-max-cycles=N       cycle watchdog for simulation runs: the smoke run
                           under --stats/--profile (default 64) and the
                           harness run under --emit=sim (default 100000)
  --sim-engine=ENGINE      simulator engine: bytecode (default; flat
                           compiled tapes), treewalk (the reference
                           expression-tree evaluator), event (event-driven:
                           only cones whose inputs changed re-execute), or
                           batched (event-driven with N independent stimulus
                           lanes evaluated bit-parallel; see --sim-batch)
  --sim-batch=N            with --emit=sim, simulate N independent stimulus
                           lanes (1..=64) in one batched run; implies
                           --sim-engine=batched (default lanes: 8)
  --sim-telemetry[=PATH]   with --emit=sim, run with the simulator's
                           telemetry plane on: per-net toggle/activity
                           counters, per-cone quiescence, and per-unit
                           dynamic utilization. Human summary on stderr, or
                           strict JSON to PATH
  --sim-trace=PATH         with --emit=sim, write a Chrome trace-event JSON
                           of per-cone busy/quiescent periods to PATH
                           (open in a trace viewer; 1 µs = 1 cycle). With
                           --sched-stats also on, a per-cycle dirty-cone
                           counter track rides along
  --sched-stats[=FILE]     with --emit=sim, run with the simulator's
                           scheduler-statistics plane on: per-cycle dirty-set
                           occupancy, reader-list walk lengths, coalesced run
                           lengths, commit-compare outcomes (spurious-wake
                           rate), per-unit wake attribution, and a cycle-share
                           breakdown (interpreter vs wake walks vs commit
                           compares). Human summary on stderr, or strict JSON
                           to FILE. A pure observer: results, VCD, and
                           telemetry are unchanged, and the JSON is
                           byte-identical across runs and --threads values
  --verify-equiv[=K]       translation validation: bounded-model-check that
                           the optimized module is observably equivalent to
                           the pre-optimization module for K cycles
                           (default 16) on every function, via the in-house
                           SAT backend. Counterexamples are replay-confirmed
                           in the RTL simulator before being reported (exit
                           1); proof-budget exhaustion loudly degrades to a
                           sampled differential (remark on stderr), never a
                           silent pass. Requires --opt or --pipeline.
  --verify-equiv-report=F  write a strict-JSON proof report (per-function
                           status, conflicts, time, and solver statistics:
                           restarts, learnt-clause/decision-depth histograms,
                           blast-cache hit rate, per-frame CNF sizes,
                           per-phase timing) to F
  --equiv-conflicts=N      SAT conflict budget per function (default 500000)
  --equiv-time-ms=N        wall-clock budget per function in ms (default
                           60000; 0 disables the clock for deterministic
                           verdicts)
  --equiv-samples=N        stimulus vectors for the degraded differential
                           (default 8)
  --equiv-corpus-dir=DIR   on a confirmed counterexample, ddmin-reduce the
                           input to the smallest program that still
                           miscompiles and save it under DIR as a fuzz
                           regression
  --remarks=PATH           stream optimization remarks (applied AND missed)
                           from the pass pipeline as JSON lines to PATH
  --rpass=REGEX            echo remarks whose pass name matches REGEX as
                           `remark:` diagnostics on stderr
  --schedule-report[=PATH] per-function schedule timeline (each op's time
                           root, offset, latency, loop IIs, pipeline depth):
                           ASCII Gantt chart on stderr, or JSON to PATH
  --resource-report[=PATH] hardware resources tallied during Verilog
                           emission (registers, memory ports by kind,
                           arithmetic units, delay-line bits): table on
                           stderr, or JSON to PATH
  --timing                 per-pass wall time and op-count deltas (stderr)
  --stats                  counter/statistic table from every stage (stderr)
  --stats=PATH             machine-readable JSON counters/statistics to PATH
  --profile=PATH           write a Chrome trace-event JSON profile to PATH
  --print-ir-before-all    dump IR to stderr before each pass
  --print-ir-after-all     dump IR to stderr after each pass
  --help, -h               show this help

Inputs beginning with `// HIR crash reproducer` are detected automatically:
the pipeline recorded in the file is re-run on the embedded IR (an explicit
--pipeline= overrides it).

exit codes:
  0  success
  1  diagnostics reported (parse, verify, pass, or codegen errors)
  2  usage error (bad flags, unknown pass names)
  3  internal error (pass panic, or the module fails verification after a
     pass) -- always a compiler bug; please attach the crash reproducer
";

const EXIT_DIAGNOSTICS: u8 = 1;
const EXIT_USAGE: u8 = 2;
const EXIT_INTERNAL: u8 = 3;

struct Options {
    input: String,
    output: Option<String>,
    emit: String,
    optimize: bool,
    pipeline: Option<Vec<String>>,
    threads: usize,
    verify_only: bool,
    verify_each: bool,
    crash_reproducer: Option<String>,
    error_limit: usize,
    sim_max_cycles: Option<u64>,
    /// `None` = unset: bytecode, or batched when `--sim-batch` is given.
    sim_engine: Option<verilog::Engine>,
    /// Stimulus lanes for the batched engine (implies `--sim-engine=batched`).
    sim_batch: Option<usize>,
    sim_vcd: Option<String>,
    /// `Some(None)` = summary to stderr, `Some(Some(path))` = JSON to file.
    sim_telemetry: Option<Option<String>>,
    sim_trace: Option<String>,
    /// `Some(None)` = summary to stderr, `Some(Some(path))` = JSON to file.
    sched_stats: Option<Option<String>>,
    remarks: Option<String>,
    rpass: Option<obs::rex::Regex>,
    /// `Some(None)` = report to stderr, `Some(Some(path))` = JSON to file.
    schedule_report: Option<Option<String>>,
    resource_report: Option<Option<String>>,
    timing: bool,
    stats: bool,
    stats_file: Option<String>,
    profile: Option<String>,
    print_ir_before_all: bool,
    print_ir_after_all: bool,
    /// `Some(K)` = prove optimized ≡ unoptimized for K cycles.
    verify_equiv: Option<u32>,
    verify_equiv_report: Option<String>,
    equiv_conflicts: u64,
    /// `None` = no wall clock (deterministic verdicts).
    equiv_time_ms: Option<u64>,
    equiv_samples: u32,
    equiv_corpus_dir: Option<String>,
}

impl Options {
    /// The engine the simulator should run: `--sim-engine` when given,
    /// otherwise batched if `--sim-batch` was requested, otherwise bytecode.
    fn resolved_sim_engine(&self) -> verilog::Engine {
        self.sim_engine.unwrap_or(if self.sim_batch.is_some() {
            verilog::Engine::Batched
        } else {
            verilog::Engine::default()
        })
    }
}

/// `Ok(None)` means `--help`: usage has been printed to stdout, exit 0.
fn parse_args() -> Result<Option<Options>, String> {
    let mut opts = Options {
        input: String::new(),
        output: None,
        emit: "verilog".into(),
        optimize: false,
        pipeline: None,
        threads: 0, // 0 = auto (HIRC_THREADS, then available cores)
        verify_only: false,
        verify_each: false,
        crash_reproducer: None,
        error_limit: 0, // 0 = parser default
        sim_max_cycles: None,
        sim_engine: None,
        sim_batch: None,
        sim_vcd: None,
        sim_telemetry: None,
        sim_trace: None,
        sched_stats: None,
        remarks: None,
        rpass: None,
        schedule_report: None,
        resource_report: None,
        timing: false,
        stats: false,
        stats_file: None,
        profile: None,
        print_ir_before_all: false,
        print_ir_after_all: false,
        verify_equiv: None,
        verify_equiv_report: None,
        equiv_conflicts: 500_000,
        equiv_time_ms: Some(60_000),
        equiv_samples: 8,
        equiv_corpus_dir: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--opt" => opts.optimize = true,
            "--verify-equiv" => opts.verify_equiv = Some(16),
            "--verify-only" => opts.verify_only = true,
            "--verify-each" => opts.verify_each = true,
            "--timing" => opts.timing = true,
            "--stats" => opts.stats = true,
            "--schedule-report" => opts.schedule_report = Some(None),
            "--sim-telemetry" => opts.sim_telemetry = Some(None),
            "--sched-stats" => opts.sched_stats = Some(None),
            "--resource-report" => opts.resource_report = Some(None),
            "--print-ir-before-all" => opts.print_ir_before_all = true,
            "--print-ir-after-all" => opts.print_ir_after_all = true,
            "-o" => opts.output = Some(args.next().ok_or("-o needs a path")?),
            _ if a.starts_with("--pipeline=") => {
                let spec = &a["--pipeline=".len()..];
                let names: Vec<String> = spec
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from)
                    .collect();
                if names.is_empty() {
                    return Err("--pipeline needs at least one pass name".into());
                }
                opts.pipeline = Some(names);
            }
            _ if a.starts_with("--threads=") => {
                let n = &a["--threads=".len()..];
                opts.threads = if n == "max" {
                    std::thread::available_parallelism()
                        .map(std::num::NonZeroUsize::get)
                        .unwrap_or(1)
                } else {
                    let v = n.parse::<usize>().map_err(|_| {
                        format!("--threads needs a positive integer or 'max', got '{n}'")
                    })?;
                    if v == 0 {
                        return Err("--threads must be at least 1 (or 'max')".into());
                    }
                    v
                };
            }
            _ if a.starts_with("--crash-reproducer=") => {
                let path = &a["--crash-reproducer=".len()..];
                if path.is_empty() {
                    return Err("--crash-reproducer needs a path".into());
                }
                opts.crash_reproducer = Some(path.to_string());
            }
            _ if a.starts_with("--error-limit=") => {
                let n = &a["--error-limit=".len()..];
                opts.error_limit = n
                    .parse::<usize>()
                    .map_err(|_| format!("--error-limit needs a number, got '{n}'"))?;
                if opts.error_limit == 0 {
                    return Err("--error-limit must be at least 1".into());
                }
            }
            _ if a.starts_with("--verify-equiv=") => {
                let n = &a["--verify-equiv=".len()..];
                let k = n
                    .parse::<u32>()
                    .map_err(|_| format!("--verify-equiv needs a cycle count, got '{n}'"))?;
                if k == 0 {
                    return Err("--verify-equiv needs at least 1 cycle".into());
                }
                opts.verify_equiv = Some(k);
            }
            _ if a.starts_with("--verify-equiv-report=") => {
                let path = &a["--verify-equiv-report=".len()..];
                if path.is_empty() {
                    return Err("--verify-equiv-report needs a path".into());
                }
                opts.verify_equiv_report = Some(path.to_string());
            }
            _ if a.starts_with("--equiv-conflicts=") => {
                let n = &a["--equiv-conflicts=".len()..];
                opts.equiv_conflicts = n
                    .parse::<u64>()
                    .map_err(|_| format!("--equiv-conflicts needs a number, got '{n}'"))?;
                if opts.equiv_conflicts == 0 {
                    return Err("--equiv-conflicts must be at least 1".into());
                }
            }
            _ if a.starts_with("--equiv-time-ms=") => {
                let n = &a["--equiv-time-ms=".len()..];
                let ms = n
                    .parse::<u64>()
                    .map_err(|_| format!("--equiv-time-ms needs a number, got '{n}'"))?;
                opts.equiv_time_ms = if ms == 0 { None } else { Some(ms) };
            }
            _ if a.starts_with("--equiv-samples=") => {
                let n = &a["--equiv-samples=".len()..];
                opts.equiv_samples = n
                    .parse::<u32>()
                    .map_err(|_| format!("--equiv-samples needs a number, got '{n}'"))?;
                if opts.equiv_samples == 0 {
                    return Err("--equiv-samples must be at least 1".into());
                }
            }
            _ if a.starts_with("--equiv-corpus-dir=") => {
                let dir = &a["--equiv-corpus-dir=".len()..];
                if dir.is_empty() {
                    return Err("--equiv-corpus-dir needs a path".into());
                }
                opts.equiv_corpus_dir = Some(dir.to_string());
            }
            _ if a.starts_with("--sim-max-cycles=") => {
                let n = &a["--sim-max-cycles=".len()..];
                opts.sim_max_cycles = Some(
                    n.parse::<u64>()
                        .map_err(|_| format!("--sim-max-cycles needs a number, got '{n}'"))?,
                );
            }
            _ if a.starts_with("--sim-engine=") => {
                let name = &a["--sim-engine=".len()..];
                opts.sim_engine = Some(match name {
                    "bytecode" => verilog::Engine::Bytecode,
                    "treewalk" => verilog::Engine::TreeWalk,
                    "event" => verilog::Engine::Event,
                    "batched" => verilog::Engine::Batched,
                    _ => {
                        return Err(format!(
                            "unknown --sim-engine '{name}' (expected bytecode, treewalk, \
                             event, or batched)"
                        ))
                    }
                });
            }
            _ if a.starts_with("--sim-batch=") => {
                let n = &a["--sim-batch=".len()..];
                let lanes = n
                    .parse::<usize>()
                    .map_err(|_| format!("--sim-batch needs a lane count, got '{n}'"))?;
                if lanes == 0 || lanes > 64 {
                    return Err(format!("--sim-batch accepts 1..=64 lanes, got {lanes}"));
                }
                opts.sim_batch = Some(lanes);
            }
            _ if a.starts_with("--profile=") => {
                opts.profile = Some(a["--profile=".len()..].to_string());
                if opts.profile.as_deref() == Some("") {
                    return Err("--profile needs a path".into());
                }
            }
            _ if a.starts_with("--stats=") => {
                let path = &a["--stats=".len()..];
                if path.is_empty() {
                    return Err("--stats= needs a path (or use bare --stats)".into());
                }
                opts.stats_file = Some(path.to_string());
            }
            _ if a.starts_with("--remarks=") => {
                let path = &a["--remarks=".len()..];
                if path.is_empty() {
                    return Err("--remarks needs a path".into());
                }
                opts.remarks = Some(path.to_string());
            }
            _ if a.starts_with("--rpass=") => {
                let pattern = &a["--rpass=".len()..];
                opts.rpass = Some(
                    obs::rex::Regex::new(pattern)
                        .map_err(|e| format!("--rpass: bad regex '{pattern}': {e}"))?,
                );
            }
            _ if a.starts_with("--schedule-report=") => {
                let path = &a["--schedule-report=".len()..];
                if path.is_empty() {
                    return Err("--schedule-report= needs a path".into());
                }
                opts.schedule_report = Some(Some(path.to_string()));
            }
            _ if a.starts_with("--resource-report=") => {
                let path = &a["--resource-report=".len()..];
                if path.is_empty() {
                    return Err("--resource-report= needs a path".into());
                }
                opts.resource_report = Some(Some(path.to_string()));
            }
            _ if a.starts_with("--sim-telemetry=") => {
                let path = &a["--sim-telemetry=".len()..];
                if path.is_empty() {
                    return Err(
                        "--sim-telemetry= needs a path (or use bare --sim-telemetry)".into(),
                    );
                }
                opts.sim_telemetry = Some(Some(path.to_string()));
            }
            _ if a.starts_with("--sim-trace=") => {
                let path = &a["--sim-trace=".len()..];
                if path.is_empty() {
                    return Err("--sim-trace needs a path".into());
                }
                opts.sim_trace = Some(path.to_string());
            }
            _ if a.starts_with("--sched-stats=") => {
                let path = &a["--sched-stats=".len()..];
                if path.is_empty() {
                    return Err("--sched-stats= needs a path (or use bare --sched-stats)".into());
                }
                opts.sched_stats = Some(Some(path.to_string()));
            }
            _ if a.starts_with("--sim-vcd=") => {
                let path = &a["--sim-vcd=".len()..];
                if path.is_empty() {
                    return Err("--sim-vcd needs a path".into());
                }
                opts.sim_vcd = Some(path.to_string());
            }
            _ if a.starts_with("--emit=") => {
                opts.emit = a["--emit=".len()..].to_string();
                if !["verilog", "pretty", "ir", "sim", "btor2"].contains(&opts.emit.as_str()) {
                    return Err(format!("unknown --emit kind '{}'", opts.emit));
                }
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return Ok(None);
            }
            _ if !a.starts_with('-') && opts.input.is_empty() => opts.input = a,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if opts.input.is_empty() {
        return Err("no input file (try --help)".into());
    }
    // Every flag that only makes sense for a simulation run is validated
    // through one helper so the exit-2 usage errors stay uniform.
    let sim_only: [(&str, bool); 5] = [
        ("--sim-vcd", opts.sim_vcd.is_some()),
        ("--sim-telemetry", opts.sim_telemetry.is_some()),
        ("--sim-trace", opts.sim_trace.is_some()),
        ("--sched-stats", opts.sched_stats.is_some()),
        ("--sim-batch", opts.sim_batch.is_some()),
    ];
    for (flag, given) in sim_only {
        if given && opts.emit != "sim" {
            return Err(format!("{flag} requires --emit=sim"));
        }
    }
    if opts.sim_batch.is_some()
        && opts
            .sim_engine
            .is_some_and(|e| e != verilog::Engine::Batched)
    {
        return Err(
            "--sim-batch requires --sim-engine=batched (or leave --sim-engine unset)".into(),
        );
    }
    if opts.verify_equiv.is_some() && !(opts.optimize || opts.pipeline.is_some()) {
        return Err("--verify-equiv requires --opt or --pipeline (nothing to validate)".into());
    }
    if opts.verify_equiv.is_none() {
        if opts.verify_equiv_report.is_some() {
            return Err("--verify-equiv-report requires --verify-equiv".into());
        }
        if opts.equiv_corpus_dir.is_some() {
            return Err("--equiv-corpus-dir requires --verify-equiv".into());
        }
    }
    Ok(Some(opts))
}

/// Bound on the smoke simulation run under `--stats`/`--profile`: long enough
/// to exercise the datapath, short enough to stay negligible next to codegen.
const SMOKE_CYCLES: u64 = 64;

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(Some(o)) => o,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hirc: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    // Recording costs nothing unless a reporting flag asks for it.
    let observing =
        opts.stats || opts.stats_file.is_some() || opts.profile.is_some() || opts.timing;
    obs::set_enabled(observing);
    // Remark recording is gated separately so --remarks/--rpass work without
    // paying for span/counter instrumentation (and vice versa).
    obs::set_remarks_enabled(opts.remarks.is_some() || opts.rpass.is_some());

    let source = match std::fs::read_to_string(&opts.input) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("hirc: cannot read '{}': {e}", opts.input);
            return ExitCode::from(EXIT_DIAGNOSTICS);
        }
    };

    // A crash reproducer carries its own pipeline; re-run it faithfully so a
    // bare `hirc repro.mlir` re-triggers the recorded crash.
    let reproducer_pipeline: Option<Vec<String>> = ir::parse_reproducer(&source).map(|r| {
        eprintln!(
            "hirc: input is a crash reproducer (error: {}); re-running pipeline [{}]",
            r.error,
            r.pipeline.join(",")
        );
        r.pipeline
    });

    let start = std::time::Instant::now();
    // Two surface syntaxes: the paper-style pretty form (starts with
    // `hir.func`) and the generic MLIR-like form (quoted op names).
    let pretty_input = source
        .lines()
        .map(str::trim)
        .find(|l| !l.is_empty() && !l.starts_with("//"))
        .is_some_and(|l| l.starts_with("hir.func"));
    // Recovering parse: collect every syntax error in one run instead of
    // stopping at the first.
    let (module, parse_errors, hit_limit) = {
        let mut s = obs::span_in("parse", "parse input");
        s.arg("file", &opts.input);
        if pretty_input {
            let r = hir::parse_pretty_recover(&source, opts.error_limit);
            let errs: Vec<(u32, u32, String)> = r
                .errors
                .into_iter()
                .map(|e| (e.line, e.col, e.message))
                .collect();
            (r.module, errs, r.hit_error_limit)
        } else {
            let r = ir::parse_module_recover(&source, opts.error_limit);
            let errs: Vec<(u32, u32, String)> = r
                .errors
                .into_iter()
                .map(|e| (e.line, e.col, e.message))
                .collect();
            (r.module, errs, r.hit_error_limit)
        }
    };
    if !parse_errors.is_empty() {
        for (line, col, message) in &parse_errors {
            eprintln!("{}:{line}:{col}: error: {message}", opts.input);
        }
        if hit_limit {
            eprintln!(
                "hirc: stopped after {} errors (raise with --error-limit=N)",
                parse_errors.len()
            );
        }
        eprintln!("hirc: {} parse error(s)", parse_errors.len());
        return ExitCode::from(EXIT_DIAGNOSTICS);
    }
    let mut module = module;
    obs::counter_add("parse", "ops_parsed", module.op_count() as u64);
    let t_parse = start.elapsed();

    let registry = hir::hir_registry();
    let mut diags = ir::DiagnosticEngine::new();
    let t0 = std::time::Instant::now();
    let verify_failed = {
        let _s = obs::span_in("verify", "verify module");
        ir::verify_module(&module, &registry, &mut diags).is_err()
            || hir_verify::verify_schedule_with_threads(&module, &mut diags, opts.threads).is_err()
    };
    if verify_failed {
        eprintln!("{}", diags.render());
        return ExitCode::from(EXIT_DIAGNOSTICS);
    }
    let t_verify = t0.elapsed();

    // Pipeline selection: an explicit --pipeline wins, then a reproducer's
    // recorded pipeline, then the standard pipeline under --opt. The passes
    // run through the per-function parallel pipeline unless --print-ir-*-all
    // asks for the serial pass manager's instrumentation hooks.
    let explicit = opts.pipeline.clone().or(reproducer_pipeline);
    let run_passes = opts.optimize || explicit.is_some();
    let serial = opts.print_ir_before_all || opts.print_ir_after_all;
    let t0 = std::time::Instant::now();
    let mut pipeline = if serial {
        let mut pm = match &explicit {
            Some(names) => match hir_opt::pipeline_from_names(names) {
                Ok(pm) => pm,
                Err(e) => {
                    eprintln!("hirc: {e}");
                    return ExitCode::from(EXIT_USAGE);
                }
            },
            None => hir_opt::standard_pipeline(),
        };
        pm.verify_each = opts.verify_each;
        pm.crash_reproducer = opts.crash_reproducer.clone().map(Into::into);
        pm.add_instrumentation(ir::IrPrintInstrumentation::to_stderr(
            opts.print_ir_before_all,
            opts.print_ir_after_all,
        ));
        Pipeline::Serial(pm)
    } else {
        let mut fp = match &explicit {
            Some(names) => match hir_opt::function_pipeline_from_names(names, opts.threads) {
                Ok(fp) => fp,
                Err(e) => {
                    eprintln!("hirc: {e}");
                    return ExitCode::from(EXIT_USAGE);
                }
            },
            None => hir_opt::standard_function_pipeline(opts.threads),
        };
        fp.verify_each = opts.verify_each;
        fp.crash_reproducer = opts.crash_reproducer.clone().map(Into::into);
        Pipeline::PerFunction(fp)
    };
    // Snapshot for translation validation: the proof must compare the exact
    // pre-pipeline module against the exact artifact being emitted.
    let pre_opt = opts.verify_equiv.map(|_| module.clone());
    if run_passes {
        let mut opt_diags = ir::DiagnosticEngine::new();
        let run = {
            let _s = obs::span_in("opt", "optimization pipeline");
            pipeline.run(&mut module, &registry, &mut opt_diags)
        };
        if !opt_diags.diagnostics().is_empty() {
            eprintln!("{}", opt_diags.render());
        }
        if let Err(err) = run {
            eprintln!("hirc: {err}");
            if let Some(path) = pipeline.reproducer_path() {
                eprintln!("hirc: crash reproducer written to {}", path.display());
            }
            let code = if err.is_internal() {
                EXIT_INTERNAL
            } else {
                EXIT_DIAGNOSTICS
            };
            return ExitCode::from(code);
        }
        // Re-verify: passes must preserve schedule validity.
        let mut diags = ir::DiagnosticEngine::new();
        if hir_verify::verify_schedule_with_threads(&module, &mut diags, opts.threads).is_err() {
            eprintln!("hirc: internal error — optimized module fails verification:");
            eprintln!("{}", diags.render());
            return ExitCode::from(EXIT_INTERNAL);
        }
    }
    let t_opt = t0.elapsed();

    // Translation validation: prove the optimized module equivalent to the
    // snapshot. A confirmed counterexample is a diagnostic (exit 1); an
    // exhausted proof budget degrades loudly to sampling but still exits 0.
    if let Some(k) = opts.verify_equiv {
        let pre = pre_opt
            .as_ref()
            .expect("snapshot exists under --verify-equiv");
        match run_verify_equiv(&opts, pre, &module, k, &source, explicit.as_deref()) {
            Ok(true) => {}
            Ok(false) => return ExitCode::from(EXIT_DIAGNOSTICS),
            Err(e) => {
                eprintln!("hirc: error: {e}");
                return ExitCode::from(EXIT_DIAGNOSTICS);
            }
        }
    }

    // Optimization remarks: stream as JSONL and/or echo the passes the user
    // asked about. The pipeline merged per-function remarks in module order,
    // so both outputs are byte-identical at every --threads value.
    if opts.remarks.is_some() || opts.rpass.is_some() {
        let remarks = pipeline.take_remarks();
        if let Some(path) = &opts.remarks {
            let out: String = remarks.iter().map(obs::json::document).collect();
            if let Err(e) = std::fs::write(path, out) {
                eprintln!("hirc: cannot write remarks '{path}': {e}");
                return ExitCode::from(EXIT_DIAGNOSTICS);
            }
        }
        if let Some(re) = &opts.rpass {
            let mut engine = ir::DiagnosticEngine::new();
            for r in remarks.iter().filter(|r| re.is_match(&r.pass)) {
                let mut msg = format!("[{}] {}", r.pass, r.message);
                if !r.args.is_empty() {
                    let rendered: Vec<String> = r
                        .args
                        .iter()
                        .map(|(k, v)| match v {
                            obs::RemarkValue::Int(i) => format!("{k}={i}"),
                            obs::RemarkValue::Str(s) => format!("{k}={s}"),
                        })
                        .collect();
                    msg.push_str(&format!(" ({})", rendered.join(", ")));
                }
                engine.emit(ir::Diagnostic::remark(parse_loc(&r.loc), msg));
            }
            if !engine.diagnostics().is_empty() {
                eprintln!("{}", engine.render());
            }
        }
    }

    if opts.verify_only {
        eprintln!("hirc: ok");
        return finish(
            &opts,
            t_parse,
            t_verify,
            t_opt,
            std::time::Duration::ZERO,
            &pipeline,
        );
    }

    // Schedule report: recomputed from the (verified, possibly optimized)
    // module, so offsets agree with what codegen will implement.
    if let Some(dest) = &opts.schedule_report {
        let report = hir_verify::schedule_report(&module);
        match dest {
            Some(path) => {
                if let Err(e) = std::fs::write(path, obs::json::document(&report)) {
                    eprintln!("hirc: cannot write schedule report '{path}': {e}");
                    return ExitCode::from(EXIT_DIAGNOSTICS);
                }
            }
            None => eprint!("{}", report.gantt()),
        }
    }

    let t0 = std::time::Instant::now();
    let mut design = None;
    let mut resources: Option<hir_codegen::ResourceReport> = None;
    let text = match opts.emit.as_str() {
        "pretty" => hir::pretty_module(&module),
        "ir" => ir::print_module(&module),
        "btor2" => {
            let func = module
                .top_ops()
                .iter()
                .filter_map(|&t| hir::ops::FuncOp::wrap(&module, t))
                .rfind(|f| !f.is_external(&module));
            let Some(func) = func else {
                eprintln!("hirc: nothing to export: module has no non-external functions");
                return ExitCode::from(EXIT_DIAGNOSTICS);
            };
            let _s = obs::span_in("emit", "export btor2");
            match bmc::export_btor2(&module, &func.name(&module)) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("hirc: {e}");
                    return ExitCode::from(EXIT_DIAGNOSTICS);
                }
            }
        }
        "sim" => match run_sim(&opts, &module) {
            Ok((summary, report)) => {
                resources = Some(report);
                summary
            }
            Err(e) => {
                eprintln!("hirc: {e}");
                return ExitCode::from(EXIT_DIAGNOSTICS);
            }
        },
        _ => {
            let generated = {
                let _s = obs::span_in("codegen", "generate design");
                hir_codegen::generate_design_with_report(
                    &module,
                    &hir_codegen::CodegenOptions::default(),
                )
            };
            match generated {
                Ok((d, report)) => {
                    let _s = obs::span_in("emit", "print verilog");
                    let text = verilog::print_design(&d);
                    design = Some(d);
                    resources = Some(report);
                    text
                }
                Err(e) => {
                    eprintln!("hirc: {e}");
                    return ExitCode::from(EXIT_DIAGNOSTICS);
                }
            }
        }
    };
    let t_emit = t0.elapsed();

    // Resource report: reuse the tallies from the emission above, or run
    // codegen just for the report when emitting pretty/ir.
    if let Some(dest) = &opts.resource_report {
        let report = match resources.take() {
            Some(r) => r,
            None => match hir_codegen::generate_design_with_report(
                &module,
                &hir_codegen::CodegenOptions::default(),
            ) {
                Ok((_, r)) => r,
                Err(e) => {
                    eprintln!("hirc: {e}");
                    return ExitCode::from(EXIT_DIAGNOSTICS);
                }
            },
        };
        match dest {
            Some(path) => {
                if let Err(e) = std::fs::write(path, obs::json::document(&report)) {
                    eprintln!("hirc: cannot write resource report '{path}': {e}");
                    return ExitCode::from(EXIT_DIAGNOSTICS);
                }
            }
            None => eprint!("{}", report.table()),
        }
    }

    // Under --stats[=PATH]/--profile, exercise the emitted design in the
    // simulator for a bounded number of cycles so the report covers the sim
    // stage too.
    if let Some(design) = design
        .as_ref()
        .filter(|_| opts.stats || opts.stats_file.is_some() || opts.profile.is_some())
    {
        if let Some(top) = design.modules.last() {
            let cycles = opts.sim_max_cycles.unwrap_or(SMOKE_CYCLES);
            let mut s = obs::span_in("sim", "smoke simulation");
            s.arg("top", &top.name).arg("cycles", cycles);
            match verilog::sim::Simulator::new(design, &top.name) {
                Ok(mut sim) => {
                    sim.set_engine(opts.resolved_sim_engine());
                    // The watchdog guards the run even if the step loop is
                    // ever replaced by an open-ended one.
                    sim.set_cycle_budget(Some(cycles));
                    // An assertion firing on an undriven design is not a
                    // compile error; the smoke run is best-effort.
                    let _ = sim.run(cycles);
                }
                Err(e) => eprintln!("hirc: smoke simulation skipped: {e}"),
            }
        }
    }

    let ok = match &opts.output {
        Some(path) => std::fs::write(path, &text).map_err(|e| format!("{path}: {e}")),
        None => std::io::stdout()
            .write_all(text.as_bytes())
            .map_err(|e| e.to_string()),
    };
    if let Err(e) = ok {
        eprintln!("hirc: {e}");
        return ExitCode::from(EXIT_DIAGNOSTICS);
    }
    finish(&opts, t_parse, t_verify, t_opt, t_emit, &pipeline)
}

/// The driver's pass-running strategy: the serial [`ir::PassManager`] when
/// `--print-ir-*-all` instrumentation is requested, otherwise the parallel
/// per-function [`ir::FunctionPipeline`].
enum Pipeline {
    Serial(ir::PassManager),
    PerFunction(ir::FunctionPipeline),
}

impl Pipeline {
    fn run(
        &mut self,
        module: &mut ir::Module,
        registry: &ir::DialectRegistry,
        diags: &mut ir::DiagnosticEngine,
    ) -> Result<(), ir::PipelineError> {
        match self {
            Pipeline::Serial(pm) => pm.run(module, registry, diags),
            Pipeline::PerFunction(fp) => fp.run(module, registry, diags),
        }
    }

    fn reproducer_path(&self) -> Option<&std::path::Path> {
        match self {
            Pipeline::Serial(pm) => pm.reproducer_path(),
            Pipeline::PerFunction(fp) => fp.reproducer_path(),
        }
    }

    fn timings_empty(&self) -> bool {
        match self {
            Pipeline::Serial(pm) => pm.timings().is_empty(),
            Pipeline::PerFunction(fp) => fp.timings().is_empty(),
        }
    }

    fn timing_report(&self) -> String {
        match self {
            Pipeline::Serial(pm) => pm.timing_report(),
            Pipeline::PerFunction(fp) => fp.timing_report(),
        }
    }

    fn take_remarks(&mut self) -> Vec<obs::Remark> {
        match self {
            Pipeline::Serial(pm) => pm.take_remarks(),
            Pipeline::PerFunction(fp) => fp.take_remarks(),
        }
    }
}

/// Recover an [`ir::Location`] from a remark's rendered `file:line:col`
/// string (remarks store locations as text so `obs` stays IR-agnostic).
fn parse_loc(s: &str) -> ir::Location {
    let mut parts = s.rsplitn(3, ':');
    if let (Some(col), Some(line), Some(file)) = (parts.next(), parts.next(), parts.next()) {
        if let (Ok(line), Ok(col)) = (line.parse(), col.parse()) {
            return ir::Location::file_line_col(file, line, col);
        }
    }
    ir::Location::unknown()
}

/// `--verify-equiv`: prove `optimized` observably equivalent to `pre` for
/// `k` cycles per function. Prints per-function verdicts to stderr, writes
/// the machine-readable report if requested, harvests reduced regressions
/// on confirmed counterexamples. Returns `Ok(false)` when a counterexample
/// was confirmed (caller exits 1).
fn run_verify_equiv(
    opts: &Options,
    pre: &ir::Module,
    optimized: &ir::Module,
    k: u32,
    source: &str,
    explicit_pipeline: Option<&[String]>,
) -> Result<bool, String> {
    let eopts = bmc::EquivOptions {
        k_cycles: k,
        conflict_budget: opts.equiv_conflicts,
        time_budget_ms: opts.equiv_time_ms,
        samples: opts.equiv_samples,
        replay_max_cycles: opts
            .sim_max_cycles
            .unwrap_or(hir_codegen::testbench::DEFAULT_SIM_MAX_CYCLES),
    };
    let reports = {
        let _s = obs::span_in("equiv", "verify equivalence");
        hir_opt::verify_equivalence_with(pre, optimized, &eopts).map_err(|e| e.to_string())?
    };

    let mut all_equivalent = true;
    for r in &reports {
        match &r.status {
            bmc::EquivStatus::Proved => {
                obs::counter_add("equiv", "functions_proved", 1);
                eprintln!(
                    "hirc: verify-equiv @{}: proved equivalent for K={} cycles \
                     ({} conflicts, {} ms)",
                    r.func, r.k, r.conflicts, r.time_ms
                );
            }
            bmc::EquivStatus::Sampled { samples, reason } => {
                obs::counter_add("equiv", "functions_sampled", 1);
                eprintln!(
                    "hirc: remark: verify-equiv @{}: {reason}; degraded to a \
                     {samples}-sample differential (all samples agree, but \
                     equivalence is NOT proved)",
                    r.func
                );
            }
            bmc::EquivStatus::Counterexample(cex) => {
                obs::counter_add("equiv", "counterexamples_confirmed", 1);
                all_equivalent = false;
                eprintln!(
                    "hirc: error: verify-equiv @{}: optimized design diverges \
                     from the unoptimized design (replay-confirmed): {}",
                    r.func, cex.detail
                );
                eprintln!(
                    "hirc: counterexample stimulus for @{}: {}",
                    r.func,
                    render_stimulus(&cex.stimulus)
                );
                if let Some(dir) = &opts.equiv_corpus_dir {
                    match harvest_regression(source, explicit_pipeline, &eopts, dir) {
                        Ok(path) => {
                            eprintln!("hirc: reduced miscompile regression written to {path}");
                        }
                        Err(e) => eprintln!("hirc: regression harvesting failed: {e}"),
                    }
                }
            }
        }
    }

    if let Some(path) = &opts.verify_equiv_report {
        std::fs::write(path, equiv_report_json(k, &reports))
            .map_err(|e| format!("cannot write equivalence report '{path}': {e}"))?;
    }
    Ok(all_equivalent)
}

fn render_stimulus(stimulus: &[bmc::StimulusArg]) -> String {
    let parts: Vec<String> = stimulus
        .iter()
        .map(|s| match s {
            bmc::StimulusArg::Int(v) => v.to_string(),
            bmc::StimulusArg::Mem(words) => format!(
                "[{}]",
                words
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        })
        .collect();
    parts.join(", ")
}

/// Strict-JSON proof report for `--verify-equiv-report` (validated by the
/// `jsonv` parser in CI).
fn equiv_report_json(k: u32, reports: &[bmc::FuncReport]) -> String {
    let count = |label| reports.iter().filter(|r| r.status.label() == label).count();
    obs::json_object!({
        "k": k, "proved": count("proved"), "sampled": count("sampled"),
        "counterexamples": count("counterexample"),
        "functions": [for r in reports => {
            "func": r.func, "status": r.status.label(), "k": r.k, "conflicts": r.conflicts,
            "vars": r.vars, "time_ms": r.time_ms,
            "detail": match &r.status {
                bmc::EquivStatus::Proved => "",
                bmc::EquivStatus::Sampled { reason, .. } => reason,
                bmc::EquivStatus::Counterexample(cex) => &cex.detail,
            },
            "solver": r.solver,
        }],
    }) + "\n"
}

/// Shrink a confirmed-miscompiling input with ddmin (reusing the fuzzer's
/// reducer) and save it as a fuzz regression. The oracle re-runs the same
/// pipeline and BMC check on every candidate, so the reduced program still
/// miscompiles by construction.
fn harvest_regression(
    source: &str,
    explicit_pipeline: Option<&[String]>,
    eopts: &bmc::EquivOptions,
    dir: &str,
) -> Result<String, String> {
    // Cheaper per-candidate budget: reduction runs the check many times.
    let oracle_opts = bmc::EquivOptions {
        conflict_budget: eopts.conflict_budget.min(50_000),
        time_budget_ms: eopts.time_budget_ms.map(|ms| ms.min(5_000)),
        ..eopts.clone()
    };
    let still = |candidate: &str| candidate_miscompiles(candidate, explicit_pipeline, &oracle_opts);
    if !still(source) {
        return Err("original input no longer reproduces under the reduction oracle".into());
    }
    let reduced = hir_fuzz::reduce_lines(source, still);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create '{dir}': {e}"))?;
    let path = format!(
        "{dir}/equiv_miscompile_{:016x}.mlir",
        fnv1a(reduced.as_bytes())
    );
    let mut text = reduced;
    if !text.ends_with('\n') {
        text.push('\n');
    }
    std::fs::write(&path, text).map_err(|e| format!("cannot write '{path}': {e}"))?;
    Ok(path)
}

/// Reduction oracle: does the pipeline still miscompile this candidate?
/// Any failure along the way (parse, verify, pass, check) means "no".
fn candidate_miscompiles(
    source: &str,
    explicit_pipeline: Option<&[String]>,
    eopts: &bmc::EquivOptions,
) -> bool {
    let pretty = source
        .lines()
        .map(str::trim)
        .find(|l| !l.is_empty() && !l.starts_with("//"))
        .is_some_and(|l| l.starts_with("hir.func"));
    let module = if pretty {
        let r = hir::parse_pretty_recover(source, 1);
        if !r.errors.is_empty() {
            return false;
        }
        r.module
    } else {
        let r = ir::parse_module_recover(source, 1);
        if !r.errors.is_empty() {
            return false;
        }
        r.module
    };
    let registry = hir::hir_registry();
    let mut diags = ir::DiagnosticEngine::new();
    if ir::verify_module(&module, &registry, &mut diags).is_err()
        || hir_verify::verify_schedule(&module, &mut diags).is_err()
    {
        return false;
    }
    let mut optimized = module.clone();
    let mut pm = match explicit_pipeline {
        Some(names) => match hir_opt::pipeline_from_names(names) {
            Ok(pm) => pm,
            Err(_) => return false,
        },
        None => hir_opt::standard_pipeline(),
    };
    let mut diags = ir::DiagnosticEngine::new();
    if pm.run(&mut optimized, &registry, &mut diags).is_err() {
        return false;
    }
    matches!(
        hir_opt::verify_equivalence_with(&module, &optimized, eopts),
        Ok(reports) if reports
            .iter()
            .any(|r| matches!(r.status, bmc::EquivStatus::Counterexample(_)))
    )
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `--emit=sim`: generate the design, add behavioral stubs for external
/// functions, and run the last non-external function under the RTL harness
/// with deterministic arguments. Returns the run summary (the stdout
/// artifact) and the resource report tallied during generation.
fn run_sim(
    opts: &Options,
    module: &ir::Module,
) -> Result<(String, hir_codegen::ResourceReport), String> {
    use hir_codegen::testbench::{Harness, HarnessArg, DEFAULT_SIM_MAX_CYCLES};
    let (mut design, report) = {
        let _s = obs::span_in("codegen", "generate design");
        hir_codegen::generate_design_with_report(module, &hir_codegen::CodegenOptions::default())
            .map_err(|e| e.to_string())?
    };
    for stub in hir_codegen::extern_stubs(module).map_err(|e| e.to_string())? {
        design.add(stub);
    }
    let func = module
        .top_ops()
        .iter()
        .filter_map(|&t| hir::ops::FuncOp::wrap(module, t))
        .rfind(|f| !f.is_external(module))
        .ok_or("nothing to simulate: module has no non-external functions")?;
    let name = func.name(module);
    // Deterministic stimulus: scalars count up from 3 in steps of 3, and
    // memories hold a small repeating ramp, so waveforms and results are
    // byte-identical across runs and thread counts.
    let mut args = Vec::new();
    for (i, v) in func.args(module).iter().enumerate() {
        let ty = module.value_type(*v);
        if let Some(info) = hir::types::MemrefInfo::from_type(&ty) {
            let n = info.num_elements() as usize;
            args.push(HarnessArg::Mem(
                (0..n).map(|k| (k % 17) as i128 + 1).collect(),
            ));
        } else {
            args.push(HarnessArg::Int(3 * (i as i128 + 1)));
        }
    }
    let engine = opts.resolved_sim_engine();
    let mut harness = if engine == verilog::Engine::Batched {
        // Deterministic per-lane stimulus: lane 0 carries exactly the scalar
        // stimulus above (so its results match a non-batched run bit for
        // bit), later lanes offset every scalar and memory word by the lane
        // index.
        let lanes = opts.sim_batch.unwrap_or(8);
        let lane_args: Vec<Vec<HarnessArg>> = (0..lanes)
            .map(|lane| {
                args.iter()
                    .map(|a| match a {
                        HarnessArg::Mem(d) => {
                            HarnessArg::Mem(d.iter().map(|v| v + lane as i128).collect())
                        }
                        HarnessArg::Int(v) => HarnessArg::Int(v + lane as i128),
                        other => other.clone(),
                    })
                    .collect()
            })
            .collect();
        Harness::new_batched(&design, module, func, &lane_args).map_err(|e| e.to_string())?
    } else {
        let mut h = Harness::new(&design, module, func, &args).map_err(|e| e.to_string())?;
        h.set_engine(engine);
        h
    };
    // Enable telemetry before any cycle runs so counters cover the whole run
    // and both engines report identical counts.
    let telemetry_on = opts.sim_telemetry.is_some() || opts.sim_trace.is_some();
    if telemetry_on {
        harness.enable_telemetry(opts.sim_trace.is_some());
    }
    // Scheduler stats are a pure observer: enabled before any cycle runs so
    // histograms cover the whole run; results/VCD/telemetry are unchanged.
    if opts.sched_stats.is_some() {
        harness.enable_sched_stats();
    }
    if let Some(path) = &opts.sim_vcd {
        harness
            .dump_vcd(std::path::Path::new(path))
            .map_err(|e| e.to_string())?;
    }
    let max = opts.sim_max_cycles.unwrap_or(DEFAULT_SIM_MAX_CYCLES);
    let reps = {
        // The cycle-stamped span lands on the same Chrome-trace timeline as
        // the compiler passes, correlating sim activity with compile stages.
        let mut s = obs::span_in("sim", "harness run");
        s.arg("top", hir_codegen::module_name(&name))
            .arg("max_cycles", max)
            .arg("lanes", harness.lanes() as u64);
        harness.run_batched(max).map_err(|e| e.to_string())?
    };
    let rep = &reps[0];
    obs::counter_add("sim", "cycles", rep.cycles);
    obs::set_stat("sim", "top", hir_codegen::module_name(&name));
    if telemetry_on {
        // Join the static unit→net map of the simulated function into the
        // counters so the report carries per-unit dynamic utilization.
        let func_resources = report.functions.iter().find(|f| f.function == name);
        let t = harness
            .telemetry_report(func_resources)
            .ok_or("internal: telemetry enabled but no report produced")?;
        match &opts.sim_telemetry {
            Some(Some(path)) => std::fs::write(path, obs::json::document(&t))
                .map_err(|e| format!("cannot write telemetry '{path}': {e}"))?,
            Some(None) => eprint!("{}", t.summary()),
            None => {}
        }
        if let Some(path) = &opts.sim_trace {
            let trace = harness
                .telemetry_trace()
                .ok_or("internal: trace requested but not recorded")?;
            std::fs::write(path, trace)
                .map_err(|e| format!("cannot write sim trace '{path}': {e}"))?;
        }
    }
    if opts.sched_stats.is_some() {
        let s = harness
            .sched_stats_report()
            .ok_or("internal: sched stats enabled but no report produced")?;
        obs::counter_add(
            "sim",
            "sched_commit_compares",
            s.commit_net_compares + s.commit_mem_compares,
        );
        match &opts.sched_stats {
            Some(Some(path)) => std::fs::write(path, obs::json::document(&s))
                .map_err(|e| format!("cannot write sched stats '{path}': {e}"))?,
            Some(None) => eprint!("{}", s.summary()),
            None => {}
        }
    }
    let mut summary = format!("sim @{name}: quiescent after cycle {}\n", rep.cycles);
    for (i, r) in rep.results.iter().enumerate() {
        summary.push_str(&format!("result{i} = {r}\n"));
    }
    // Further batched lanes, each a full independent stimulus set.
    for (lane, lrep) in reps.iter().enumerate().skip(1) {
        summary.push_str(&format!(
            "lane {lane}: quiescent after cycle {}\n",
            lrep.cycles
        ));
        for (i, r) in lrep.results.iter().enumerate() {
            summary.push_str(&format!("lane {lane} result{i} = {r}\n"));
        }
    }
    Ok((summary, report))
}

/// Render the requested reports (timing, stats, profile) and exit.
fn finish(
    opts: &Options,
    t_parse: std::time::Duration,
    t_verify: std::time::Duration,
    t_opt: std::time::Duration,
    t_emit: std::time::Duration,
    pipeline: &Pipeline,
) -> ExitCode {
    if opts.timing {
        eprintln!(
            "hirc timing: parse {t_parse:?}, verify {t_verify:?}, optimize {t_opt:?}, emit {t_emit:?}"
        );
        if !pipeline.timings_empty() {
            eprint!("{}", pipeline.timing_report());
        }
    }
    if opts.stats {
        eprint!("{}", obs::stats_table());
    }
    if let Some(path) = &opts.stats_file {
        if let Err(e) = std::fs::write(path, obs::stats_json()) {
            eprintln!("hirc: cannot write stats '{path}': {e}");
            return ExitCode::from(EXIT_DIAGNOSTICS);
        }
    }
    if let Some(path) = &opts.profile {
        if let Err(e) = std::fs::write(path, obs::chrome_trace()) {
            eprintln!("hirc: cannot write profile '{path}': {e}");
            return ExitCode::from(EXIT_DIAGNOSTICS);
        }
    }
    ExitCode::SUCCESS
}
