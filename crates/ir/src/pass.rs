//! Pass infrastructure: a [`Pass`] trait, a [`PassManager`] with MLIR-style
//! [`PassInstrumentation`] hooks, and [`PassResult`] bookkeeping.
//!
//! Every pass run is measured: wall time, live-op-count delta, and
//! diagnostics emitted are recorded in [`PassTiming`] (rendered by
//! [`PassManager::timing_report`]) and mirrored into the global [`obs`]
//! sink as a nested span per pass plus `passes.*` counters. These numbers
//! feed the paper's Table 6 experiment (HIR code-generation time vs. the
//! HLS baseline) and every performance comparison in the repo.

use crate::diagnostics::DiagnosticEngine;
use crate::dialect::DialectRegistry;
use crate::location::Location;
use crate::module::Module;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Outcome of one pass run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PassResult {
    /// Pass ran and left the module unchanged.
    Unchanged,
    /// Pass ran and modified the module.
    Changed,
    /// Pass found errors (reported through the diagnostic engine).
    Failed,
}

impl PassResult {
    fn label(self) -> &'static str {
        match self {
            PassResult::Unchanged => "unchanged",
            PassResult::Changed => "changed",
            PassResult::Failed => "FAILED",
        }
    }
}

/// Why a pipeline run stopped early.
///
/// `PassFailed` is the "expected" failure mode — the pass reported errors
/// through the diagnostic engine and returned [`PassResult::Failed`]. The
/// other two variants are *internal* errors: a panic contained by the pass
/// manager, or (under [`PassManager::verify_each`]) a module the structural
/// verifier rejects after a pass that claimed success. Drivers map
/// [`PipelineError::is_internal`] to a distinct exit code.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PipelineError {
    /// A pass reported failure through diagnostics.
    PassFailed { pass: String },
    /// A pass panicked; the unwind was contained by the pass manager.
    PassPanicked { pass: String, message: String },
    /// `verify_each` found the module invalid after this pass ran.
    VerifyFailed { pass: String },
}

impl PipelineError {
    /// Name of the pass the pipeline stopped at.
    pub fn pass_name(&self) -> &str {
        match self {
            PipelineError::PassFailed { pass }
            | PipelineError::PassPanicked { pass, .. }
            | PipelineError::VerifyFailed { pass } => pass,
        }
    }

    /// Whether this is a compiler bug (panic / broken invariant) rather than
    /// a diagnosed input problem.
    pub fn is_internal(&self) -> bool {
        !matches!(self, PipelineError::PassFailed { .. })
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::PassFailed { pass } => write!(f, "pass '{pass}' failed"),
            PipelineError::PassPanicked { pass, message } => {
                write!(f, "pass '{pass}' panicked: {message}")
            }
            PipelineError::VerifyFailed { pass } => {
                write!(f, "module fails verification after pass '{pass}'")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// Everything a pass may touch.
pub struct PassContext<'a> {
    pub registry: &'a DialectRegistry,
    pub diags: &'a mut DiagnosticEngine,
}

/// A module-level transformation or analysis.
pub trait Pass {
    /// Stable pass name (shown in statistics).
    fn name(&self) -> &str;

    /// Run on the module.
    fn run(&mut self, module: &mut Module, cx: &mut PassContext<'_>) -> PassResult;
}

/// Observes pass execution from outside the pass (MLIR's
/// `PassInstrumentation`): `run_before_pass` fires with the module exactly
/// as the pass will see it, `run_after_pass` with the module the pass left
/// behind. Instrumentations run in registration order before a pass and in
/// the same order after it.
pub trait PassInstrumentation {
    fn run_before_pass(&mut self, _pass: &dyn Pass, _module: &Module) {}
    fn run_after_pass(&mut self, _pass: &dyn Pass, _module: &Module, _result: PassResult) {}
}

/// Built-in instrumentation that prints the IR around passes (the engine
/// behind `hirc --print-ir-before-all` / `--print-ir-after-all`). Output
/// goes through a caller-supplied sink so drivers can route it to stderr
/// and tests can capture it.
pub struct IrPrintInstrumentation {
    before: bool,
    after: bool,
    /// Function named in every banner (see [`Self::for_function`]).
    func: Option<String>,
    sink: Box<dyn FnMut(&str)>,
}

impl IrPrintInstrumentation {
    pub fn new(before: bool, after: bool, sink: impl FnMut(&str) + 'static) -> Self {
        IrPrintInstrumentation {
            before,
            after,
            func: None,
            sink: Box::new(sink),
        }
    }

    /// Convenience: dump to stderr, MLIR-style.
    pub fn to_stderr(before: bool, after: bool) -> Self {
        Self::new(before, after, |text| eprint!("{text}"))
    }

    /// Name `@func` in every banner: a per-function pipeline
    /// ([`crate::FunctionPipeline`]) dumps only the function it runs on, as
    /// MLIR's nested pass managers do.
    pub fn for_function(mut self, func: &str) -> Self {
        self.func = Some(func.to_string());
        self
    }

    fn dump(&mut self, what: String, module: &Module) {
        let on = self
            .func
            .as_ref()
            .map_or(String::new(), |f| format!(" on @{f}"));
        let text = crate::printer::print_module(module);
        (self.sink)(&format!("// ----- IR dump {what}{on} -----\n{text}"));
    }
}

impl PassInstrumentation for IrPrintInstrumentation {
    fn run_before_pass(&mut self, pass: &dyn Pass, module: &Module) {
        if self.before {
            self.dump(format!("before {}", pass.name()), module);
        }
    }

    fn run_after_pass(&mut self, pass: &dyn Pass, module: &Module, result: PassResult) {
        if self.after {
            self.dump(
                format!("after {} ({})", pass.name(), result.label()),
                module,
            );
        }
    }
}

/// Execution record for one pass.
#[derive(Clone, Debug)]
pub struct PassTiming {
    pub name: String,
    pub duration: Duration,
    pub result: PassResult,
    /// Live operations in the module before the pass ran.
    pub ops_before: usize,
    /// Live operations after the pass ran.
    pub ops_after: usize,
    /// Diagnostics the pass emitted.
    pub diagnostics: usize,
}

impl PassTiming {
    /// Net change in live op count (negative = ops removed).
    pub fn op_delta(&self) -> i64 {
        self.ops_after as i64 - self.ops_before as i64
    }
}

/// Runs a pipeline of passes in order, recording per-pass wall time,
/// op-count deltas, and diagnostics, and notifying registered
/// [`PassInstrumentation`]s around every pass.
///
/// # Examples
///
/// ```
/// use ir::{Module, PassManager, Pass, PassResult, PassContext, DialectRegistry, DiagnosticEngine};
///
/// struct Nop;
/// impl Pass for Nop {
///     fn name(&self) -> &str { "nop" }
///     fn run(&mut self, _m: &mut Module, _cx: &mut PassContext<'_>) -> PassResult {
///         PassResult::Unchanged
///     }
/// }
///
/// let mut pm = PassManager::new();
/// pm.add(Nop);
/// let mut m = Module::new();
/// let reg = DialectRegistry::new();
/// let mut diags = DiagnosticEngine::new();
/// assert!(pm.run(&mut m, &reg, &mut diags).is_ok());
/// assert_eq!(pm.timings().len(), 1);
/// assert_eq!(pm.timings()[0].op_delta(), 0);
/// ```
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
    instrumentations: Vec<Box<dyn PassInstrumentation>>,
    timings: Vec<PassTiming>,
    /// Stop at the first failing pass (default true).
    pub abort_on_failure: bool,
    /// Run the structural verifier after every pass and abort (with
    /// [`PipelineError::VerifyFailed`]) on the first pass that breaks the
    /// module — MLIR's `-verify-each`. Localizes miscompiles to one pass.
    pub verify_each: bool,
    /// Optimization remarks drained from the thread-local buffer after each
    /// pass of the last `run`, in emission order (pass-major).
    remarks: Vec<obs::Remark>,
}

impl PassManager {
    pub fn new() -> Self {
        PassManager {
            passes: Vec::new(),
            instrumentations: Vec::new(),
            timings: Vec::new(),
            abort_on_failure: true,
            verify_each: false,
            remarks: Vec::new(),
        }
    }

    /// Append a pass to the pipeline.
    pub fn add(&mut self, pass: impl Pass + 'static) -> &mut Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Append an already-boxed pass (registry / pipeline-parsing use).
    pub fn add_boxed(&mut self, pass: Box<dyn Pass>) -> &mut Self {
        self.passes.push(pass);
        self
    }

    /// Names of the registered passes, in pipeline order.
    pub fn pass_names(&self) -> Vec<String> {
        self.passes.iter().map(|p| p.name().to_string()).collect()
    }

    /// Register an instrumentation observing every subsequent `run`.
    pub fn add_instrumentation(&mut self, ins: impl PassInstrumentation + 'static) -> &mut Self {
        self.instrumentations.push(Box::new(ins));
        self
    }

    /// Run all passes in order.
    ///
    /// Each pass body executes under `catch_unwind`: a panicking pass does
    /// not take the process down but is converted into a structured
    /// diagnostic naming the pass and a [`PipelineError::PassPanicked`].
    /// (Crash reproducers are written by [`crate::FunctionPipeline`], which
    /// runs one of these per function.)
    ///
    /// # Errors
    /// Returns the [`PipelineError`] describing the first failed pass.
    pub fn run(
        &mut self,
        module: &mut Module,
        registry: &DialectRegistry,
        diags: &mut DiagnosticEngine,
    ) -> Result<(), PipelineError> {
        self.timings.clear();
        self.remarks.clear();
        // Discard any stale remarks a previous (aborted) run left in this
        // thread's buffer so they cannot leak into this run's output.
        let _ = obs::take_thread_remarks();
        let n_passes = self.passes.len();
        for idx in 0..n_passes {
            let pass = &mut self.passes[idx];
            let name = pass.name().to_string();
            let ops_before = module.op_count();
            let diags_before = diags.diagnostics().len();
            for ins in &mut self.instrumentations {
                ins.run_before_pass(pass.as_ref(), module);
            }
            let mut span = obs::span(format!("pass {name}"));
            let start = Instant::now();
            let outcome = {
                let mut cx = PassContext { registry, diags };
                // The module and context are exclusively borrowed here; on
                // unwind we stop the pipeline immediately (and say so), so
                // observing their torn state is intentional, not UB.
                catch_unwind(AssertUnwindSafe(|| pass.run(module, &mut cx)))
            };
            let duration = start.elapsed();
            let (result, panic_msg) = match outcome {
                Ok(r) => (r, None),
                Err(payload) => (PassResult::Failed, Some(panic_message(payload.as_ref()))),
            };
            let ops_after = module.op_count();
            // Drain this pass's remarks (deduplicated per pass) even when it
            // panicked or failed, so partial runs still explain themselves.
            self.remarks.extend(obs::take_thread_remarks());
            if let Some(msg) = &panic_msg {
                diags.emit(
                    crate::diagnostics::Diagnostic::error(
                        Location::unknown(),
                        format!("pass '{name}' panicked: {msg}"),
                    )
                    .with_note(
                        Location::unknown(),
                        "this is a compiler bug, not an input error; \
                         rerun with --crash-reproducer=PATH to capture a test case",
                    ),
                );
            }
            let diagnostics = diags.diagnostics().len() - diags_before;
            span.arg("ops_before", ops_before)
                .arg("ops_after", ops_after)
                .arg("result", result.label());
            drop(span);
            obs::counter_add("passes", "runs", 1);
            match result {
                PassResult::Changed => obs::counter_add("passes", "changed", 1),
                PassResult::Failed => obs::counter_add("passes", "failed", 1),
                PassResult::Unchanged => {}
            }
            if panic_msg.is_some() {
                obs::counter_add("passes", "panicked", 1);
            }
            obs::counter_add("passes", "diagnostics", diagnostics as u64);
            obs::counter_add(
                "passes",
                "ops_removed",
                ops_before.saturating_sub(ops_after) as u64,
            );
            obs::counter_add(
                "passes",
                "ops_added",
                ops_after.saturating_sub(ops_before) as u64,
            );
            let pass = &mut self.passes[idx];
            for ins in &mut self.instrumentations {
                ins.run_after_pass(pass.as_ref(), module, result);
            }
            self.timings.push(PassTiming {
                name: name.clone(),
                duration,
                result,
                ops_before,
                ops_after,
                diagnostics,
            });
            if let Some(message) = panic_msg {
                return Err(PipelineError::PassPanicked {
                    pass: name,
                    message,
                });
            }
            if result == PassResult::Failed && self.abort_on_failure {
                return Err(PipelineError::PassFailed { pass: name });
            }
            if self.verify_each && crate::verifier::verify_module(module, registry, diags).is_err()
            {
                let err = PipelineError::VerifyFailed { pass: name };
                diags.emit(crate::diagnostics::Diagnostic::error(
                    Location::unknown(),
                    err.to_string(),
                ));
                return Err(err);
            }
        }
        Ok(())
    }

    /// Per-pass timings of the last `run`.
    pub fn timings(&self) -> &[PassTiming] {
        &self.timings
    }

    /// Optimization remarks recorded by the last `run`, in emission order.
    pub fn remarks(&self) -> &[obs::Remark] {
        &self.remarks
    }

    /// Take ownership of the last `run`'s remarks (the parallel function
    /// pipeline moves them into per-function outcome slots).
    pub fn take_remarks(&mut self) -> Vec<obs::Remark> {
        std::mem::take(&mut self.remarks)
    }

    /// Total wall time of the last `run`.
    pub fn total_time(&self) -> Duration {
        self.timings.iter().map(|t| t.duration).sum()
    }

    /// Render the last `run` as an aligned table: per-pass wall time, live
    /// op-count delta, and result, with a `total` footer row.
    pub fn timing_report(&self) -> String {
        render_timing_report(&self.timings)
    }
}

/// Render a timing table for any pipeline (serial [`PassManager`] or the
/// parallel function pipeline): per-pass wall time, live op-count delta, and
/// result, with a `total` footer row.
pub fn render_timing_report(timings: &[PassTiming]) -> String {
    let name_w = timings
        .iter()
        .map(|t| t.name.len())
        .max()
        .unwrap_or(4)
        .max("total".len());
    let mut rows: Vec<(String, String, String, String)> = timings
        .iter()
        .map(|t| {
            (
                t.name.clone(),
                obs::format_duration_ns(t.duration.as_nanos() as u64),
                format_delta(t.op_delta()),
                t.result.label().to_string(),
            )
        })
        .collect();
    let total_delta: i64 = timings.iter().map(PassTiming::op_delta).sum();
    let total_time: Duration = timings.iter().map(|t| t.duration).sum();
    let total = (
        "total".to_string(),
        obs::format_duration_ns(total_time.as_nanos() as u64),
        format_delta(total_delta),
        String::new(),
    );
    let time_w = rows
        .iter()
        .map(|r| r.1.len())
        .chain([total.1.len(), "time".len()])
        .max()
        .unwrap();
    let delta_w = rows
        .iter()
        .map(|r| r.2.len())
        .chain([total.2.len(), "Δops".chars().count()])
        .max()
        .unwrap();
    rows.push(total);

    let mut out = String::new();
    out.push_str(&format!(
        "{:<name_w$}  {:>time_w$}  {:>delta_w$}  result\n",
        "pass", "time", "Δops",
    ));
    let rule_len = name_w + time_w + delta_w + 12;
    out.push_str(&format!("{}\n", "-".repeat(rule_len)));
    let n = rows.len();
    for (i, (name, time, delta, result)) in rows.into_iter().enumerate() {
        if i + 1 == n {
            out.push_str(&format!("{}\n", "-".repeat(rule_len)));
        }
        let line = format!("{name:<name_w$}  {time:>time_w$}  {delta:>delta_w$}  {result}");
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

/// Extract a human-readable message from a `catch_unwind` payload.
/// `panic!("...")` yields `&'static str`; `panic!("{x}")` yields `String`;
/// anything else (custom payloads) gets a placeholder.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

fn format_delta(delta: i64) -> String {
    match delta.cmp(&0) {
        std::cmp::Ordering::Greater => format!("+{delta}"),
        std::cmp::Ordering::Equal => "0".to_string(),
        std::cmp::Ordering::Less => delta.to_string(),
    }
}

impl fmt::Debug for PassManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PassManager")
            .field(
                "passes",
                &self
                    .passes
                    .iter()
                    .map(|p| p.name().to_string())
                    .collect::<Vec<_>>(),
            )
            .field("timings", &self.timings)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::AttrMap;
    use crate::location::Location;
    use std::cell::RefCell;
    use std::rc::Rc;

    struct Adder;
    impl Pass for Adder {
        fn name(&self) -> &str {
            "adder"
        }
        fn run(&mut self, m: &mut Module, _cx: &mut PassContext<'_>) -> PassResult {
            let op = m.create_op("t.x", vec![], vec![], AttrMap::new(), Location::unknown());
            m.push_top(op);
            PassResult::Changed
        }
    }

    struct Failer;
    impl Pass for Failer {
        fn name(&self) -> &str {
            "failer"
        }
        fn run(&mut self, _m: &mut Module, cx: &mut PassContext<'_>) -> PassResult {
            cx.diags.error(Location::unknown(), "boom");
            PassResult::Failed
        }
    }

    #[test]
    fn runs_in_order_and_times() {
        let mut pm = PassManager::new();
        pm.add(Adder).add(Adder);
        let mut m = Module::new();
        let reg = DialectRegistry::new();
        let mut diags = DiagnosticEngine::new();
        pm.run(&mut m, &reg, &mut diags).unwrap();
        assert_eq!(m.top_ops().len(), 2);
        assert_eq!(pm.timings().len(), 2);
        assert!(pm.total_time() >= Duration::ZERO);
    }

    #[test]
    fn aborts_on_failure() {
        let mut pm = PassManager::new();
        pm.add(Failer).add(Adder);
        let mut m = Module::new();
        let reg = DialectRegistry::new();
        let mut diags = DiagnosticEngine::new();
        let err = pm.run(&mut m, &reg, &mut diags).unwrap_err();
        assert_eq!(
            err,
            PipelineError::PassFailed {
                pass: "failer".into()
            }
        );
        assert_eq!(err.pass_name(), "failer");
        assert!(
            !err.is_internal(),
            "diagnosed failure is not a compiler bug"
        );
        assert!(m.top_ops().is_empty(), "later passes must not run");
        assert!(diags.has_errors());
    }

    struct Panicker;
    impl Pass for Panicker {
        fn name(&self) -> &str {
            "panicker"
        }
        fn run(&mut self, _m: &mut Module, _cx: &mut PassContext<'_>) -> PassResult {
            panic!("deliberate test panic")
        }
    }

    /// Silence the default panic hook for the duration of a closure so
    /// deliberately-panicking tests do not spam stderr. The hook is global,
    /// so tests using this must not rely on other threads' panic output.
    fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    #[test]
    fn panicking_pass_is_contained_and_diagnosed() {
        with_quiet_panics(|| {
            let mut pm = PassManager::new();
            pm.add(Panicker).add(Adder);
            let mut m = Module::new();
            let reg = DialectRegistry::new();
            let mut diags = DiagnosticEngine::new();
            let err = pm.run(&mut m, &reg, &mut diags).unwrap_err();
            assert_eq!(
                err,
                PipelineError::PassPanicked {
                    pass: "panicker".into(),
                    message: "deliberate test panic".into()
                }
            );
            assert!(err.is_internal());
            assert!(m.top_ops().is_empty(), "later passes must not run");
            // The panic became a diagnostic naming the pass.
            let rendered = diags.render();
            assert!(
                rendered.contains("pass 'panicker' panicked: deliberate test panic"),
                "{rendered}"
            );
            // Timings still record the aborted pass.
            assert_eq!(pm.timings().len(), 1);
            assert_eq!(pm.timings()[0].result, PassResult::Failed);
        });
    }

    /// Emits an op unknown to the loaded `t` dialect, which the structural
    /// verifier rejects — simulating a pass that corrupts the module while
    /// still returning success.
    struct Breaker;
    impl Pass for Breaker {
        fn name(&self) -> &str {
            "breaker"
        }
        fn run(&mut self, m: &mut Module, _cx: &mut PassContext<'_>) -> PassResult {
            let op = m.create_op(
                "t.not_a_registered_op",
                vec![],
                vec![],
                AttrMap::new(),
                Location::unknown(),
            );
            m.push_top(op);
            PassResult::Changed
        }
    }

    #[test]
    fn verify_each_localizes_module_breaking_pass() {
        let mut d = crate::dialect::Dialect::new("t");
        d.add_op(crate::dialect::OpSpec::new("t.x"));
        let mut reg = DialectRegistry::new();
        reg.register(d);
        let mut pm = PassManager::new();
        pm.verify_each = true;
        pm.add(Adder).add(Breaker).add(Adder);
        let mut m = Module::new();
        let mut diags = DiagnosticEngine::new();
        let err = pm.run(&mut m, &reg, &mut diags).unwrap_err();
        assert_eq!(
            err,
            PipelineError::VerifyFailed {
                pass: "breaker".into()
            }
        );
        assert!(err.is_internal());
        assert!(diags.has_errors());
        // Only the adder+breaker ran; the final adder did not.
        assert_eq!(pm.timings().len(), 2);
    }

    #[test]
    fn timings_record_op_deltas_and_diagnostics() {
        let mut pm = PassManager::new();
        pm.abort_on_failure = false;
        pm.add(Adder).add(Failer);
        let mut m = Module::new();
        let reg = DialectRegistry::new();
        let mut diags = DiagnosticEngine::new();
        pm.run(&mut m, &reg, &mut diags).unwrap();
        let t = pm.timings();
        assert_eq!(t[0].ops_before, 0);
        assert_eq!(t[0].ops_after, 1);
        assert_eq!(t[0].op_delta(), 1);
        assert_eq!(t[0].diagnostics, 0);
        assert_eq!(t[1].op_delta(), 0);
        assert_eq!(t[1].diagnostics, 1);
    }

    /// Logs every instrumentation callback into a shared vector.
    struct Logger {
        log: Rc<RefCell<Vec<String>>>,
    }
    impl PassInstrumentation for Logger {
        fn run_before_pass(&mut self, pass: &dyn Pass, module: &Module) {
            self.log
                .borrow_mut()
                .push(format!("before:{}:{}", pass.name(), module.op_count()));
        }
        fn run_after_pass(&mut self, pass: &dyn Pass, module: &Module, result: PassResult) {
            self.log.borrow_mut().push(format!(
                "after:{}:{}:{:?}",
                pass.name(),
                module.op_count(),
                result
            ));
        }
    }

    #[test]
    fn instrumentation_ordering_and_module_visibility() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut pm = PassManager::new();
        pm.add(Adder).add(Adder);
        pm.add_instrumentation(Logger { log: log.clone() });
        let mut m = Module::new();
        let reg = DialectRegistry::new();
        let mut diags = DiagnosticEngine::new();
        pm.run(&mut m, &reg, &mut diags).unwrap();
        assert_eq!(
            *log.borrow(),
            vec![
                // before sees the pre-pass module, after the post-pass one.
                "before:adder:0",
                "after:adder:1:Changed",
                "before:adder:1",
                "after:adder:2:Changed",
            ]
        );
    }

    #[test]
    fn multiple_instrumentations_run_in_registration_order() {
        struct Tag {
            tag: &'static str,
            log: Rc<RefCell<Vec<String>>>,
        }
        impl PassInstrumentation for Tag {
            fn run_before_pass(&mut self, _pass: &dyn Pass, _m: &Module) {
                self.log.borrow_mut().push(format!("{}:before", self.tag));
            }
            fn run_after_pass(&mut self, _pass: &dyn Pass, _m: &Module, _r: PassResult) {
                self.log.borrow_mut().push(format!("{}:after", self.tag));
            }
        }
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut pm = PassManager::new();
        pm.add(Adder);
        pm.add_instrumentation(Tag {
            tag: "first",
            log: log.clone(),
        });
        pm.add_instrumentation(Tag {
            tag: "second",
            log: log.clone(),
        });
        let mut m = Module::new();
        let reg = DialectRegistry::new();
        let mut diags = DiagnosticEngine::new();
        pm.run(&mut m, &reg, &mut diags).unwrap();
        assert_eq!(
            *log.borrow(),
            vec![
                "first:before",
                "second:before",
                "first:after",
                "second:after"
            ]
        );
    }

    #[test]
    fn ir_print_instrumentation_dumps_parseable_ir() {
        let dumps = Rc::new(RefCell::new(Vec::<String>::new()));
        let sink = {
            let dumps = dumps.clone();
            move |text: &str| dumps.borrow_mut().push(text.to_string())
        };
        let mut pm = PassManager::new();
        pm.add(Adder);
        pm.add_instrumentation(IrPrintInstrumentation::new(true, true, sink));
        let mut m = Module::new();
        let reg = DialectRegistry::new();
        let mut diags = DiagnosticEngine::new();
        pm.run(&mut m, &reg, &mut diags).unwrap();
        let dumps = dumps.borrow();
        assert_eq!(dumps.len(), 2);
        assert!(dumps[0].starts_with("// ----- IR dump before adder -----\n"));
        assert!(dumps[1].starts_with("// ----- IR dump after adder (changed) -----\n"));
        // Each dump body round-trips through the parser.
        for d in dumps.iter() {
            let body: String = d
                .lines()
                .filter(|l| !l.starts_with("// -----"))
                .collect::<Vec<_>>()
                .join("\n");
            crate::parser::parse_module(&body)
                .unwrap_or_else(|e| panic!("dump must reparse: {e}\n{body}"));
        }
    }

    #[test]
    fn timing_report_has_delta_column_and_total_footer() {
        let mut pm = PassManager::new();
        pm.add(Adder).add(Adder);
        let mut m = Module::new();
        let reg = DialectRegistry::new();
        let mut diags = DiagnosticEngine::new();
        pm.run(&mut m, &reg, &mut diags).unwrap();
        let report = pm.timing_report();
        assert!(report.contains("pass"), "{report}");
        assert!(report.contains("Δops"), "{report}");
        assert!(report.contains("adder"), "{report}");
        assert!(report.contains("+1"), "{report}");
        let total_line = report.lines().last().unwrap();
        assert!(total_line.starts_with("total"), "{report}");
        assert!(total_line.contains("+2"), "{report}");
    }
}
