//! MLIR-style parallel function pipelines.
//!
//! HIR functions are *isolated from above* — they reference each other only
//! through symbol attributes, never through SSA values — which is exactly
//! the property MLIR's pass manager exploits to run per-function pipelines
//! concurrently. [`FunctionPipeline`] does the same with nothing but the
//! standard library: it moves a module's top-level ops into owned
//! per-function sub-modules ([`Module::split_top`]), runs a pass pipeline
//! over them on a `std::thread::scope` worker pool, and moves the results
//! back in original order ([`Module::splice_top`]).
//!
//! ## Determinism
//!
//! Output is bit-identical at any thread count:
//!
//! * functions are claimed from an atomic work queue, but every result is
//!   stored in a slot indexed by the function's *module position*, and the
//!   merge walks those slots in order — worker interleaving never leaks
//!   into the merged module, diagnostics, timings, or the returned error;
//! * each worker runs the whole pipeline over its function with a private
//!   [`DiagnosticEngine`], so the merged diagnostic order is "all of
//!   function 0's pipeline, then all of function 1's, …" — the same order
//!   the single-threaded path produces, because the single-threaded path is
//!   the same code with one inline worker. Remarks and the IR dumps of
//!   [`FunctionPipeline::print_ir_before`] / [`FunctionPipeline::print_ir_after`]
//!   are kept per function the same way and written out in module order;
//! * sub-modules print identically to the functions they were moved from
//!   (value names are assigned positionally), so the spliced module prints
//!   identically to what serial execution would leave behind.
//!
//! ## Containment
//!
//! Each function's pipeline runs in an inner [`PassManager`], so a
//! panicking pass is contained per function: sibling workers finish their
//! functions normally, every function's diagnostics are still merged, and
//! the error reported is the one from the *first failing function in module
//! order* — again independent of thread interleaving. So is the optional
//! crash reproducer ([`FunctionPipeline::crash_reproducer`]): that
//! function's IR from before its pipeline ran, plus the full pipeline, under
//! an error line that names the function. It is the only reproducer format;
//! `hirc` runs every pipeline through here.

use crate::diagnostics::{Diagnostic, DiagnosticEngine};
use crate::dialect::DialectRegistry;
use crate::module::Module;
use crate::pass::{
    IrPrintInstrumentation, Pass, PassManager, PassResult, PassTiming, PipelineError,
};
use crate::symbol::SYM_NAME;
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Builds one fresh pass instance per worker invocation. Factories (not
/// `Box<dyn Pass>`) are what the pipeline stores, because passes are neither
/// `Send` nor `Clone` in general — each function gets its own instances.
pub type PassFactory = Box<dyn Fn() -> Box<dyn Pass> + Send + Sync>;

/// Chrome-trace thread-id base for worker tracks: worker `w` renders as
/// `(pid 1, tid WORKER_TID_BASE + w)`, clear of the small sequential tids
/// auto-assigned to stage tracks.
pub const WORKER_TID_BASE: u32 = 1000;

/// Outcome of one function's pipeline run, reported by
/// [`FunctionPipeline::function_reports`] in module order.
#[derive(Debug)]
pub struct FunctionReport {
    /// `sym_name` of the function, or `top#<i>` for unnamed top-level ops.
    pub func: String,
    /// Worker that ran this function (0 for the single-threaded path).
    pub worker: usize,
    /// Per-pass timings, in pipeline order (shorter if the pipeline
    /// aborted on this function).
    pub timings: Vec<PassTiming>,
    /// The error this function's pipeline stopped at, if any.
    pub error: Option<PipelineError>,
}

/// What one worker hands back for one function.
struct FuncOutcome {
    /// Function label captured before the pipeline ran (`sym_name` or
    /// `top#<i>`), so renames/failures can't lose it.
    func: String,
    sub: Module,
    diags: Vec<Diagnostic>,
    /// Remarks the function's pipeline emitted, drained from the worker's
    /// thread-local buffer right after its `PassManager::run` returned.
    remarks: Vec<obs::Remark>,
    timings: Vec<PassTiming>,
    error: Option<PipelineError>,
    /// Pre-pipeline IR of the function, captured only when a crash
    /// reproducer was requested.
    snapshot: Option<String>,
    /// The function's `--print-ir-*` dumps, in pass order.
    ir_dumps: String,
    worker: usize,
}

/// A pass pipeline replicated over every top-level function, executed on a
/// scoped worker pool. See the module docs for the determinism and
/// containment contract.
///
/// # Examples
///
/// ```
/// use ir::{FunctionPipeline, Module, Pass, PassContext, PassResult};
///
/// struct Nop;
/// impl Pass for Nop {
///     fn name(&self) -> &str { "nop" }
///     fn run(&mut self, _m: &mut Module, _cx: &mut PassContext<'_>) -> PassResult {
///         PassResult::Unchanged
///     }
/// }
///
/// let mut fp = FunctionPipeline::new();
/// fp.add_factory(|| Box::new(Nop));
/// fp.threads = 2;
/// let mut m = Module::new();
/// let reg = ir::DialectRegistry::new();
/// let mut diags = ir::DiagnosticEngine::new();
/// assert!(fp.run(&mut m, &reg, &mut diags).is_ok());
/// ```
#[derive(Default)]
pub struct FunctionPipeline {
    factories: Vec<(String, PassFactory)>,
    /// Worker threads to use; `0` resolves via [`default_thread_count`]
    /// (`HIRC_THREADS`, then `std::thread::available_parallelism`).
    pub threads: usize,
    /// Forwarded to each function's inner [`PassManager::verify_each`].
    pub verify_each: bool,
    /// Write a crash reproducer (pre-pipeline function IR + the full
    /// pipeline) here when a function's pipeline hits an internal error.
    /// Only the first failing function in module order writes one.
    pub crash_reproducer: Option<PathBuf>,
    /// Dump each function's IR before / after every pass (`hirc
    /// --print-ir-before-all` / `--print-ir-after-all`) through an
    /// [`IrPrintInstrumentation`] whose banners name the function. `run`
    /// writes the dumps to stderr in module order, function by function, so
    /// the output is byte-identical at any thread count.
    pub print_ir_before: bool,
    pub print_ir_after: bool,
    timings: Vec<PassTiming>,
    reports: Vec<FunctionReport>,
    reproducer_written: Option<PathBuf>,
    /// Remarks from every function, merged in module order (same
    /// determinism scheme as diagnostics: per-function slots, merged by
    /// module position — byte-identical at any thread count).
    remarks: Vec<obs::Remark>,
}

impl FunctionPipeline {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a pass to the pipeline via its factory. The factory is called
    /// once immediately to learn the pass name, then once per function run.
    pub fn add_factory(
        &mut self,
        factory: impl Fn() -> Box<dyn Pass> + Send + Sync + 'static,
    ) -> &mut Self {
        let name = factory().name().to_string();
        self.factories.push((name, Box::new(factory)));
        self
    }

    /// Names of the registered passes, in pipeline order.
    pub fn pass_names(&self) -> Vec<String> {
        self.factories.iter().map(|(n, _)| n.clone()).collect()
    }

    /// Aggregated per-pass timings of the last `run`: one row per pipeline
    /// position, durations/op-counts/diagnostics summed across functions.
    pub fn timings(&self) -> &[PassTiming] {
        &self.timings
    }

    /// Per-function outcomes of the last `run`, in module order.
    pub fn function_reports(&self) -> &[FunctionReport] {
        &self.reports
    }

    /// Optimization remarks of the last `run`, merged in module order
    /// (independent of worker interleaving).
    pub fn remarks(&self) -> &[obs::Remark] {
        &self.remarks
    }

    /// Take ownership of the last run's remarks (module order).
    pub fn take_remarks(&mut self) -> Vec<obs::Remark> {
        std::mem::take(&mut self.remarks)
    }

    /// Path of the reproducer written by the last `run`, if any.
    pub fn reproducer_path(&self) -> Option<&Path> {
        self.reproducer_written.as_deref()
    }

    /// Run the pipeline over every top-level op of `module`.
    ///
    /// # Errors
    /// Returns the [`PipelineError`] of the first failing function in
    /// module order (diagnostics from *all* functions are still merged).
    pub fn run(
        &mut self,
        module: &mut Module,
        registry: &DialectRegistry,
        diags: &mut DiagnosticEngine,
    ) -> Result<(), PipelineError> {
        self.timings.clear();
        self.reports.clear();
        self.reproducer_written = None;
        self.remarks.clear();

        let n = module.top_ops().len();
        let workers = resolve_thread_count(self.threads).min(n.max(1));
        let mut outer = obs::span("function-pipeline");
        outer.arg("functions", n).arg("workers", workers);
        let subs = {
            let _span = obs::span("split");
            std::mem::take(module).split_top_owned()
        };

        let pool = obs::span("workers");
        let mut outcomes: Vec<FuncOutcome> = Vec::with_capacity(n);
        if workers <= 1 {
            for (idx, sub) in subs.into_iter().enumerate() {
                outcomes.push(self.run_one(sub, idx, 0, registry));
            }
        } else {
            let slots: Vec<Mutex<Option<Module>>> =
                subs.into_iter().map(|s| Mutex::new(Some(s))).collect();
            let done: Vec<Mutex<Option<FuncOutcome>>> = (0..n).map(|_| Mutex::new(None)).collect();
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for w in 0..workers {
                    let slots = &slots;
                    let done = &done;
                    let next = &next;
                    let this = &*self;
                    scope.spawn(move || loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= n {
                            break;
                        }
                        let sub = slots[idx].lock().unwrap().take().expect("unclaimed slot");
                        *done[idx].lock().unwrap() = Some(this.run_one(sub, idx, w, registry));
                    });
                }
            });
            outcomes.extend(
                done.into_iter()
                    .map(|m| m.into_inner().unwrap().expect("worker completed slot")),
            );
        }
        drop(pool);

        // Deterministic merge: everything below iterates in module order.
        {
            let _span = obs::span("splice");
            let processed: Vec<Module> = outcomes
                .iter_mut()
                .map(|o| std::mem::take(&mut o.sub))
                .collect();
            *module = Module::splice_top_owned(processed);
        }

        let merge = obs::span("merge");
        let mut first_error: Option<(usize, PipelineError, Option<String>)> = None;
        let mut ir_dumps = String::new();
        for (idx, outcome) in outcomes.into_iter().enumerate() {
            for d in outcome.diags {
                diags.emit(d);
            }
            self.remarks.extend(outcome.remarks);
            ir_dumps.push_str(&outcome.ir_dumps);
            self.fold_timings(&outcome.timings);
            if outcome.error.is_some() && first_error.is_none() {
                first_error = Some((
                    idx,
                    outcome.error.clone().unwrap(),
                    outcome.snapshot.clone(),
                ));
            }
            self.reports.push(FunctionReport {
                func: outcome.func,
                worker: outcome.worker,
                timings: outcome.timings,
                error: outcome.error,
            });
        }
        drop(merge);
        drop(outer);
        if !ir_dumps.is_empty() {
            eprint!("{ir_dumps}");
        }

        match first_error {
            None => Ok(()),
            Some((idx, err, snapshot)) => {
                self.write_reproducer(idx, &err, snapshot, diags);
                Err(err)
            }
        }
    }

    /// Run the whole pipeline over one function's sub-module. Shared by the
    /// inline (single-threaded) and pooled paths so both produce identical
    /// outcomes.
    fn run_one(
        &self,
        mut sub: Module,
        idx: usize,
        worker: usize,
        registry: &DialectRegistry,
    ) -> FuncOutcome {
        let func = sub
            .top_ops()
            .first()
            .and_then(|&t| sub.op(t).attr(SYM_NAME))
            .and_then(|a| a.as_str().map(str::to_owned))
            .unwrap_or_else(|| format!("top#{idx}"));
        let mut span = obs::span_in(format!("worker {worker}"), format!("@{func} pipeline"));
        span.pid_tid(1, WORKER_TID_BASE + worker as u32)
            .arg("function", &func)
            .arg("index", idx);
        let snapshot = self
            .crash_reproducer
            .is_some()
            .then(|| crate::printer::print_module(&sub));
        let mut pm = PassManager::new();
        for (_, factory) in &self.factories {
            pm.add_boxed(factory());
        }
        pm.verify_each = self.verify_each;
        let ir_dumps = Rc::new(RefCell::new(String::new()));
        if self.print_ir_before || self.print_ir_after {
            let sink = Rc::clone(&ir_dumps);
            pm.add_instrumentation(
                IrPrintInstrumentation::new(self.print_ir_before, self.print_ir_after, move |t| {
                    sink.borrow_mut().push_str(t)
                })
                .for_function(&func),
            );
        }
        let mut local = DiagnosticEngine::new();
        let error = pm.run(&mut sub, registry, &mut local).err();
        FuncOutcome {
            func,
            sub,
            diags: local.take(),
            remarks: pm.take_remarks(),
            timings: pm.timings().to_vec(),
            error,
            snapshot,
            ir_dumps: ir_dumps.take(),
            worker,
        }
    }

    /// Fold one function's pass timings into the aggregated per-position
    /// rows (durations, op counts and diagnostics sum; the "worst" result
    /// wins so a single failure is visible in the aggregate).
    fn fold_timings(&mut self, timings: &[PassTiming]) {
        for (pos, t) in timings.iter().enumerate() {
            if pos == self.timings.len() {
                self.timings.push(t.clone());
                continue;
            }
            let agg = &mut self.timings[pos];
            agg.duration += t.duration;
            agg.ops_before += t.ops_before;
            agg.ops_after += t.ops_after;
            agg.diagnostics += t.diagnostics;
            agg.result = match (agg.result, t.result) {
                (PassResult::Failed, _) | (_, PassResult::Failed) => PassResult::Failed,
                (PassResult::Changed, _) | (_, PassResult::Changed) => PassResult::Changed,
                _ => PassResult::Unchanged,
            };
        }
    }

    /// Write a crash reproducer for the first failing function: its
    /// pre-pipeline IR plus the *full* pipeline, so re-running the file
    /// re-triggers the failure. Only internal errors (panic / verify-each)
    /// produce reproducers.
    fn write_reproducer(
        &mut self,
        idx: usize,
        err: &PipelineError,
        snapshot: Option<String>,
        diags: &mut DiagnosticEngine,
    ) {
        if !err.is_internal() {
            return;
        }
        let (Some(path), Some(ir_text)) = (self.crash_reproducer.clone(), snapshot) else {
            return;
        };
        let func = self
            .reports
            .get(idx)
            .map(|r| r.func.clone())
            .unwrap_or_else(|| format!("top#{idx}"));
        let error = format!("function '@{func}': {err}");
        let pipeline = self.pass_names();
        let text = crate::reproducer::format_reproducer(&error, &pipeline, &ir_text);
        match std::fs::write(&path, text) {
            Ok(()) => self.reproducer_written = Some(path),
            Err(e) => diags.emit(Diagnostic::warning(
                crate::location::Location::unknown(),
                format!("could not write crash reproducer '{}': {e}", path.display()),
            )),
        }
    }

    /// Total wall time across all functions of the last `run` (CPU time,
    /// not wall clock, when running multi-threaded).
    pub fn total_time(&self) -> Duration {
        self.timings.iter().map(|t| t.duration).sum()
    }

    /// Render the aggregated per-pass timings of the last `run` as the same
    /// aligned table [`PassManager::timing_report`] produces. Durations sum
    /// CPU time across workers, so rows can exceed wall-clock time.
    pub fn timing_report(&self) -> String {
        crate::pass::render_timing_report(&self.timings)
    }
}

/// Resolve a requested thread count: `0` means "auto" — `HIRC_THREADS` if
/// set to a positive integer, else [`std::thread::available_parallelism`].
pub fn resolve_thread_count(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    default_thread_count()
}

/// The "auto" thread count: `HIRC_THREADS` (positive integer) if set, else
/// [`std::thread::available_parallelism`], else 1.
pub fn default_thread_count() -> usize {
    if let Ok(v) = std::env::var("HIRC_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

impl std::fmt::Debug for FunctionPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FunctionPipeline")
            .field("passes", &self.pass_names())
            .field("threads", &self.threads)
            .field("verify_each", &self.verify_each)
            .finish()
    }
}

/// `&DialectRegistry` is shared across the worker pool, and `&Module` across
/// the schedule verifier's.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<DialectRegistry>();
    assert_sync::<Module>()
};

impl PassManager {
    /// Nest a [`FunctionPipeline`] into this pass manager as a single pass
    /// (MLIR's `OpPassManager` nesting): the outer manager times and
    /// instruments the whole parallel fan-out as one unit.
    pub fn nest_function_pipeline(&mut self, fp: FunctionPipeline) -> &mut Self {
        self.add(fp);
        self
    }
}

impl Pass for FunctionPipeline {
    fn name(&self) -> &str {
        "function-pipeline"
    }

    fn run(&mut self, module: &mut Module, cx: &mut crate::pass::PassContext<'_>) -> PassResult {
        match FunctionPipeline::run(self, module, cx.registry, cx.diags) {
            // Splicing rebuilds the module even when no pass changed
            // anything; report Changed only when a pass did.
            Ok(()) => {
                if self.timings.iter().any(|t| t.result == PassResult::Changed) {
                    PassResult::Changed
                } else {
                    PassResult::Unchanged
                }
            }
            Err(_) => PassResult::Failed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::{AttrMap, Attribute};
    use crate::location::Location;
    use crate::pass::PassContext;
    use crate::types::Type;

    /// Emits one diagnostic naming the function, tagged with the pass run.
    struct Announce;
    impl Pass for Announce {
        fn name(&self) -> &str {
            "announce"
        }
        fn run(&mut self, m: &mut Module, cx: &mut PassContext<'_>) -> PassResult {
            let func = m
                .top_ops()
                .first()
                .and_then(|&t| m.op(t).attr(SYM_NAME))
                .and_then(|a| a.as_str())
                .unwrap_or("?")
                .to_string();
            cx.diags.emit(Diagnostic::warning(
                Location::unknown(),
                format!("announce: visiting @{func}"),
            ));
            PassResult::Unchanged
        }
    }

    /// Panics on the function whose `sym_name` matches.
    struct PanicOn(&'static str);
    impl Pass for PanicOn {
        fn name(&self) -> &str {
            "panic-on"
        }
        fn run(&mut self, m: &mut Module, _cx: &mut PassContext<'_>) -> PassResult {
            let func = m
                .top_ops()
                .first()
                .and_then(|&t| m.op(t).attr(SYM_NAME))
                .and_then(|a| a.as_str())
                .unwrap_or("?")
                .to_string();
            assert!(func != self.0, "intentional panic in @{func}");
            PassResult::Unchanged
        }
    }

    fn funcs_module(names: &[&str]) -> Module {
        let mut m = Module::new();
        for name in names {
            let f = m.create_op(
                "t.func",
                vec![],
                vec![],
                [(SYM_NAME.to_string(), Attribute::string(*name))]
                    .into_iter()
                    .collect(),
                Location::unknown(),
            );
            let r = m.add_region(f);
            let b = m.add_block(r, vec![]);
            let c = m.create_op(
                "t.const",
                vec![],
                vec![Type::int(32)],
                AttrMap::new(),
                Location::unknown(),
            );
            m.append_op(b, c);
            m.push_top(f);
        }
        m
    }

    fn run_at(threads: usize, names: &[&str]) -> (Module, Vec<String>, Vec<String>) {
        let mut m = funcs_module(names);
        let reg = DialectRegistry::new();
        let mut diags = DiagnosticEngine::new();
        let mut fp = FunctionPipeline::new();
        fp.add_factory(|| Box::new(Announce));
        fp.threads = threads;
        fp.run(&mut m, &reg, &mut diags).unwrap();
        let msgs = diags
            .take()
            .into_iter()
            .map(|d| d.message)
            .collect::<Vec<_>>();
        let workers = fp
            .function_reports()
            .iter()
            .map(|r| r.func.clone())
            .collect();
        (m, msgs, workers)
    }

    #[test]
    fn diagnostics_merge_in_module_order_at_any_thread_count() {
        let names = ["f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7"];
        let (m1, d1, r1) = run_at(1, &names);
        let (m8, d8, r8) = run_at(8, &names);
        assert_eq!(
            d1,
            names
                .iter()
                .map(|n| format!("announce: visiting @{n}"))
                .collect::<Vec<_>>()
        );
        assert_eq!(d1, d8, "diagnostic order must not depend on threads");
        assert_eq!(r1, r8, "report order must not depend on threads");
        assert_eq!(
            crate::printer::print_module(&m1),
            crate::printer::print_module(&m8),
        );
    }

    /// Emits one applied remark naming the function.
    struct Remarker;
    impl Pass for Remarker {
        fn name(&self) -> &str {
            "remarker"
        }
        fn run(&mut self, m: &mut Module, _cx: &mut PassContext<'_>) -> PassResult {
            let func = m
                .top_ops()
                .first()
                .and_then(|&t| m.op(t).attr(SYM_NAME))
                .and_then(|a| a.as_str())
                .unwrap_or("?")
                .to_string();
            obs::emit_remark(obs::Remark::applied(
                "remarker",
                "test:1:1",
                format!("visited @{func}"),
            ));
            PassResult::Unchanged
        }
    }

    #[test]
    fn remarks_merge_in_module_order_at_any_thread_count() {
        let names = ["f0", "f1", "f2", "f3", "f4", "f5"];
        let prev = obs::set_remarks_enabled(true);
        let run = |threads: usize| {
            let mut m = funcs_module(&names);
            let reg = DialectRegistry::new();
            let mut diags = DiagnosticEngine::new();
            let mut fp = FunctionPipeline::new();
            fp.add_factory(|| Box::new(Remarker));
            fp.threads = threads;
            fp.run(&mut m, &reg, &mut diags).unwrap();
            fp.remarks().to_vec()
        };
        let r1 = run(1);
        let r8 = run(8);
        obs::set_remarks_enabled(prev);
        assert_eq!(
            r1.iter().map(|r| r.message.as_str()).collect::<Vec<_>>(),
            names
                .iter()
                .map(|n| format!("visited @{n}"))
                .collect::<Vec<_>>()
        );
        assert_eq!(r1, r8, "remark order must not depend on threads");
    }

    #[test]
    fn panicking_function_does_not_poison_siblings() {
        let names = ["ok0", "boom", "ok1", "ok2"];
        let mut m = funcs_module(&names);
        let reg = DialectRegistry::new();
        let mut diags = DiagnosticEngine::new();
        let mut fp = FunctionPipeline::new();
        fp.add_factory(|| Box::new(PanicOn("boom")));
        fp.add_factory(|| Box::new(Announce));
        fp.threads = 4;
        let err = fp.run(&mut m, &reg, &mut diags).unwrap_err();
        assert!(matches!(err, PipelineError::PassPanicked { .. }));
        // Every sibling still ran its whole pipeline and announced itself;
        // the panicking function's announce never ran.
        let msgs: Vec<String> = diags.take().into_iter().map(|d| d.message).collect();
        for ok in ["ok0", "ok1", "ok2"] {
            assert!(
                msgs.iter()
                    .any(|m| m == &format!("announce: visiting @{ok}")),
                "{msgs:?}"
            );
        }
        assert!(!msgs.iter().any(|m| m == "announce: visiting @boom"));
        // All four functions are still present after splice-back.
        assert_eq!(m.top_ops().len(), 4);
        let failing: Vec<_> = fp
            .function_reports()
            .iter()
            .filter(|r| r.error.is_some())
            .map(|r| r.func.as_str())
            .collect();
        assert_eq!(failing, ["boom"]);
    }

    #[test]
    fn reproducer_names_the_failing_function() {
        let dir = std::env::temp_dir().join(format!(
            "hir-par-repro-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("repro.mlir");
        let mut m = funcs_module(&["fine", "bad"]);
        let reg = DialectRegistry::new();
        let mut diags = DiagnosticEngine::new();
        let mut fp = FunctionPipeline::new();
        fp.add_factory(|| Box::new(PanicOn("bad")));
        fp.threads = 2;
        fp.crash_reproducer = Some(path.clone());
        fp.run(&mut m, &reg, &mut diags).unwrap_err();
        assert_eq!(fp.reproducer_path(), Some(path.as_path()));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("function '@bad'"), "{text}");
        assert!(text.contains("panic-on"), "{text}");
        assert!(
            !text.contains("@fine"),
            "reproducer holds only the failing function: {text}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn nested_in_outer_pass_manager() {
        let mut m = funcs_module(&["x", "y"]);
        let reg = DialectRegistry::new();
        let mut diags = DiagnosticEngine::new();
        let mut fp = FunctionPipeline::new();
        fp.add_factory(|| Box::new(Announce));
        fp.threads = 2;
        let mut pm = PassManager::new();
        pm.nest_function_pipeline(fp);
        pm.run(&mut m, &reg, &mut diags).unwrap();
        assert_eq!(pm.timings().len(), 1);
        assert_eq!(pm.timings()[0].name, "function-pipeline");
        assert_eq!(diags.diagnostics().len(), 2);
    }

    #[test]
    fn empty_module_is_a_no_op() {
        let mut m = Module::new();
        let reg = DialectRegistry::new();
        let mut diags = DiagnosticEngine::new();
        let mut fp = FunctionPipeline::new();
        fp.add_factory(|| Box::new(Announce));
        fp.run(&mut m, &reg, &mut diags).unwrap();
        assert!(diags.diagnostics().is_empty());
    }
}
