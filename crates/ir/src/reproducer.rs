//! MLIR-style crash reproducers.
//!
//! When a pass panics (or, under `--verify-each`, leaves the module in a
//! state the verifier rejects), [`crate::FunctionPipeline`] writes the
//! failing function's IR from *before* its pipeline ran to a reproducer
//! file, together with the full pipeline. The file is an ordinary `.mlir`
//! input — the header is line comments the parser skips — so
//! `hirc reproducer.mlir` re-parses it, detects the embedded pipeline, and
//! re-triggers the failure with no other flags.
//!
//! ```text
//! // HIR crash reproducer
//! // error: function '@gemm': pass 'hir-cse' panicked: index out of bounds
//! // pipeline: hir-canonicalize,hir-cse,hir-retime
//! "hir.func"() ({ ... }) : () -> ()
//! ```

use std::fmt::Write as _;

/// Marker on the first line of every reproducer file.
pub const REPRODUCER_HEADER: &str = "// HIR crash reproducer";

/// A parsed reproducer file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reproducer {
    /// The failure description recorded when the reproducer was written.
    pub error: String,
    /// Pass names of the pipeline to re-run on the embedded IR.
    pub pipeline: Vec<String>,
    /// The full file text (header included): feed it straight to
    /// [`crate::parse_module`], which skips the comment header.
    pub ir: String,
}

/// Render a reproducer file: header comments followed by the IR.
pub fn format_reproducer(error: &str, pipeline: &[String], ir_text: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{REPRODUCER_HEADER}");
    // Keep the error on one comment line so the file stays parseable even
    // when the panic message contains newlines.
    let one_line = error.replace('\n', " \\n ");
    let _ = writeln!(out, "// error: {one_line}");
    let _ = writeln!(out, "// pipeline: {}", pipeline.join(","));
    out.push_str(ir_text);
    if !ir_text.ends_with('\n') {
        out.push('\n');
    }
    out
}

/// Recognize and decode a reproducer file. Returns `None` when `text` is not
/// a reproducer (no header within the leading comment block).
pub fn parse_reproducer(text: &str) -> Option<Reproducer> {
    let mut error = String::new();
    let mut pipeline: Option<Vec<String>> = None;
    let mut saw_header = false;
    for line in text.lines() {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if !trimmed.starts_with("//") {
            break; // end of the leading comment block
        }
        if trimmed == REPRODUCER_HEADER {
            saw_header = true;
        } else if let Some(rest) = trimmed.strip_prefix("// error:") {
            error = rest.trim().to_string();
        } else if let Some(rest) = trimmed.strip_prefix("// pipeline:") {
            pipeline = Some(
                rest.split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect(),
            );
        }
    }
    if !saw_header {
        return None;
    }
    Some(Reproducer {
        error,
        pipeline: pipeline.unwrap_or_default(),
        ir: text.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_header_and_pipeline() {
        let ir = "\"t.x\"() : () -> ()\n";
        let text = format_reproducer(
            "pass 'a' panicked: boom",
            &["a".to_string(), "b".to_string()],
            ir,
        );
        let r = parse_reproducer(&text).expect("is a reproducer");
        assert_eq!(r.error, "pass 'a' panicked: boom");
        assert_eq!(r.pipeline, vec!["a", "b"]);
        // The whole file re-parses as a module (comments skipped).
        let m = crate::parser::parse_module(&r.ir).expect("reproducer IR parses");
        assert_eq!(m.top_ops().len(), 1);
    }

    #[test]
    fn multiline_panic_messages_stay_on_one_comment_line() {
        let text = format_reproducer("a\nb", &[], "");
        assert!(parse_reproducer(&text).unwrap().error.contains("a \\n b"));
        assert_eq!(
            text.lines().filter(|l| l.starts_with("// error:")).count(),
            1
        );
    }

    #[test]
    fn ordinary_files_are_not_reproducers() {
        assert!(parse_reproducer("// a comment\n\"t.x\"() : () -> ()\n").is_none());
        assert!(parse_reproducer("").is_none());
    }
}
