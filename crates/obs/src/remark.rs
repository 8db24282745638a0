//! Structured optimization remarks (LLVM `-Rpass` style).
//!
//! Passes record what they *did* ([`RemarkKind::Applied`]) and what they
//! *could not do and why* ([`RemarkKind::Missed`]) as [`Remark`] records:
//! pass name, op location, human-readable message, and typed key/value
//! arguments. Drivers stream them as JSONL (`hirc --remarks=FILE`) or echo
//! a filtered subset as `remark:` diagnostics (`hirc --rpass=REGEX`).
//!
//! ## Recording model
//!
//! Remarks are buffered in a **thread-local** vector, independent of the
//! global span/counter sink: a parallel pass pipeline drains each worker's
//! buffer right after it finishes one function ([`take_thread`]) and merges
//! the per-function batches in module order, so remark output is
//! byte-identical at every thread count (the same scheme the function
//! pipeline uses for diagnostics). Recording is off by default; emission is
//! one relaxed atomic load when disabled.
//!
//! The greedy rewrite driver revisits ops until fixpoint, so a pattern that
//! keeps not matching would emit the same missed remark once per sweep;
//! [`take_thread`] deduplicates identical records while preserving first-seen
//! order.

use crate::json::{Json, Writer};
use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};

static REMARKS_ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    static BUFFER: RefCell<Vec<Remark>> = const { RefCell::new(Vec::new()) };
}

/// Did the optimization apply, or was it missed?
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RemarkKind {
    /// The pass performed the rewrite it is reporting.
    Applied,
    /// The pass considered a rewrite and explains why it did not happen.
    Missed,
}

impl RemarkKind {
    pub fn as_str(self) -> &'static str {
        match self {
            RemarkKind::Applied => "applied",
            RemarkKind::Missed => "missed",
        }
    }
}

/// A typed remark argument value.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum RemarkValue {
    Int(i128),
    Str(String),
}

impl fmt::Display for RemarkValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RemarkValue::Int(v) => write!(f, "{v}"),
            RemarkValue::Str(s) => write!(f, "{s}"),
        }
    }
}

/// One structured optimization remark.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Remark {
    /// Emitting pass (e.g. `hir-strength-reduce`).
    pub pass: String,
    /// Applied or missed.
    pub kind: RemarkKind,
    /// Rendered source location of the op (`file:line:col`, or
    /// `loc(unknown)` for synthesized IR).
    pub loc: String,
    /// Human-readable one-line explanation.
    pub message: String,
    /// Typed key/value arguments, in emission order.
    pub args: Vec<(String, RemarkValue)>,
}

impl Remark {
    pub fn applied(
        pass: impl Into<String>,
        loc: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Remark {
            pass: pass.into(),
            kind: RemarkKind::Applied,
            loc: loc.into(),
            message: message.into(),
            args: Vec::new(),
        }
    }

    pub fn missed(
        pass: impl Into<String>,
        loc: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Remark {
            kind: RemarkKind::Missed,
            ..Remark::applied(pass, loc, message)
        }
    }

    /// Attach an integer argument.
    pub fn arg_int(mut self, key: impl Into<String>, value: i128) -> Self {
        self.args.push((key.into(), RemarkValue::Int(value)));
        self
    }

    /// Attach a string argument.
    pub fn arg_str(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.args.push((key.into(), RemarkValue::Str(value.into())));
        self
    }
}

/// One JSON object (a single JSONL line, without the trailing newline),
/// parseable by the strict [`crate::json`] parser.
impl Json for Remark {
    fn write_json(&self, w: &mut Writer) {
        crate::json_object!(w, {
            "pass": self.pass, "status": self.kind.as_str(), "loc": self.loc,
            "message": self.message, "args": {for (k, v) in &self.args => k: v},
        });
    }
}

impl Json for RemarkValue {
    fn write_json(&self, w: &mut Writer) {
        match self {
            RemarkValue::Int(n) => n.write_json(w),
            RemarkValue::Str(s) => s.write_json(w),
        }
    }
}

impl fmt::Display for Remark {
    /// `<loc>: remark: [<pass>] <message> (k=v, ...)` — the `--rpass` echo
    /// format.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: remark: [{}] {}", self.loc, self.pass, self.message)?;
        if !self.args.is_empty() {
            write!(f, " (")?;
            for (i, (k, v)) in self.args.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{k}={v}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// Turn remark recording on or off (off by default; independent of the
/// span/counter sink). Returns the previous state.
pub fn set_remarks_enabled(on: bool) -> bool {
    REMARKS_ENABLED.swap(on, Ordering::SeqCst)
}

/// Whether remark recording is currently on. Passes should guard remark
/// construction with this so disabled runs pay no formatting cost.
pub fn remarks_enabled() -> bool {
    REMARKS_ENABLED.load(Ordering::Relaxed)
}

/// Record a remark into the current thread's buffer (no-op when disabled).
pub fn emit_remark(r: Remark) {
    if !remarks_enabled() {
        return;
    }
    BUFFER.with(|b| b.borrow_mut().push(r));
}

/// Drain the current thread's remark buffer, deduplicating identical
/// records while preserving first-seen order (the greedy rewrite driver
/// revisits ops, so missed remarks repeat verbatim across sweeps).
pub fn take_thread() -> Vec<Remark> {
    let raw = BUFFER.with(|b| std::mem::take(&mut *b.borrow_mut()));
    if raw.is_empty() {
        return raw;
    }
    let mut seen = std::collections::HashSet::with_capacity(raw.len());
    let mut out = Vec::with_capacity(raw.len());
    for r in raw {
        if seen.insert(r.clone()) {
            out.push(r);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_emission_is_dropped() {
        set_remarks_enabled(false);
        emit_remark(Remark::applied("p", "l", "m"));
        assert!(take_thread().is_empty());
    }

    #[test]
    fn take_dedups_preserving_order() {
        set_remarks_enabled(true);
        let a = Remark::applied("p", "f:1:1", "did it").arg_int("n", 2);
        let b = Remark::missed("p", "f:2:1", "could not");
        emit_remark(a.clone());
        emit_remark(b.clone());
        emit_remark(a.clone()); // fixpoint revisit
        let got = take_thread();
        set_remarks_enabled(false);
        assert_eq!(got, vec![a, b]);
        assert!(take_thread().is_empty(), "buffer drained");
    }

    #[test]
    fn json_roundtrips_through_strict_parser() {
        let r = Remark::missed("hir-strength-reduce", "k.mlir:3:7", "stride unknown")
            .arg_int("set_bits", 5)
            .arg_str("why", "needs \"const\" operand");
        let line = crate::json::to_string(&r);
        let v = crate::json::parse(&line).expect("strict parse");
        let obj = v.as_object().unwrap();
        assert_eq!(
            obj.get("pass").unwrap().as_str(),
            Some("hir-strength-reduce")
        );
        assert_eq!(obj.get("status").unwrap().as_str(), Some("missed"));
        let args = obj.get("args").unwrap().as_object().unwrap();
        assert_eq!(args.get("set_bits").unwrap().as_f64(), Some(5.0));
    }

    #[test]
    fn display_is_the_rpass_echo_format() {
        let r = Remark::applied("hir-cse", "a.mlir:4:3", "merged duplicate").arg_int("uses", 2);
        assert_eq!(
            r.to_string(),
            "a.mlir:4:3: remark: [hir-cse] merged duplicate (uses=2)"
        );
    }
}
