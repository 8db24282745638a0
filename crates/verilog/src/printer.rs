//! Verilog-2001 pretty printer for the [`crate::ast`] subset.
//!
//! Everything streams into one `&mut String`: expressions are written in
//! place rather than built as per-node strings, so printing costs time in
//! proportion to the bytes emitted.

use crate::ast::*;
use std::fmt::Write;

/// Print a whole design.
pub fn print_design(design: &Design) -> String {
    let mut out = String::new();
    for (i, m) in design.modules.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        print_module_into(&mut out, m);
    }
    out
}

/// Print one module.
pub fn print_module(m: &VModule) -> String {
    let mut out = String::new();
    print_module_into(&mut out, m);
    out
}

/// Append one module's text to `out`.
fn print_module_into(out: &mut String, m: &VModule) {
    for c in &m.comments {
        out.push_str("// ");
        write_comment(out, c);
        out.push('\n');
    }
    let _ = write!(out, "module {}(", m.name);
    for (i, p) in m.ports.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&p.name);
    }
    out.push_str(");\n");

    for p in &m.ports {
        out.push_str(match p.dir {
            Dir::Input => "  input",
            Dir::Output => "  output",
        });
        if p.is_reg {
            out.push_str(" reg");
        }
        out.push(' ');
        write_range(out, p.width);
        out.push_str(&p.name);
        out.push_str(";\n");
    }
    for n in &m.nets {
        out.push_str(match n.kind {
            NetKind::Wire => "  wire ",
            NetKind::Reg => "  reg ",
        });
        write_range(out, n.width);
        out.push_str(&n.name);
        if let (NetKind::Reg, Some(v)) = (n.kind, n.init) {
            out.push_str(" = ");
            write_u64(out, u64::from(n.width));
            out.push_str("'d");
            write_u64(out, v);
        }
        out.push_str(";\n");
    }
    for mem in &m.memories {
        if let Some(style) = &mem.style {
            let _ = writeln!(out, "  (* ram_style = \"{style}\" *)");
        }
        out.push_str("  reg ");
        write_range(out, mem.width);
        out.push_str(&mem.name);
        out.push_str(" [0:");
        write_u64(out, mem.depth.saturating_sub(1));
        out.push_str("];\n");
    }

    for a in &m.assigns {
        if let Some(c) = &a.comment {
            out.push_str("  // ");
            write_comment(out, c);
            out.push('\n');
        }
        out.push_str("  assign ");
        out.push_str(&a.lhs);
        out.push_str(" = ");
        write_expr(out, &a.rhs);
        out.push_str(";\n");
    }

    for inst in &m.instances {
        let _ = writeln!(out, "  {} {}(", inst.module, inst.name);
        for (i, (port, expr)) in inst.connections.iter().enumerate() {
            out.push_str("    .");
            out.push_str(port);
            out.push('(');
            write_expr(out, expr);
            out.push(')');
            if i + 1 != inst.connections.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  );\n");
    }

    for blk in &m.always {
        if blk.stmts.is_empty() {
            continue;
        }
        out.push_str("  always @(posedge clk) begin\n");
        for s in &blk.stmts {
            write_stmt(out, s, 2);
        }
        out.push_str("  end\n");
    }

    out.push_str("endmodule\n");
}

/// Decimal digits of `v`, without going through `fmt` (constants are the
/// most frequent token in generated RTL).
fn write_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend(buf[i..].iter().map(|&d| char::from(d)));
}

/// `[width-1:0] ` for multi-bit declarations, nothing for single bits.
fn write_range(out: &mut String, width: u32) {
    if width > 1 {
        out.push('[');
        write_u64(out, u64::from(width - 1));
        out.push_str(":0] ");
    }
}

fn write_pad(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// A `//` comment body, kept on one line: line breaks are written as the
/// escapes `\n` and `\r`.
fn write_comment(out: &mut String, text: &str) {
    for ch in text.chars() {
        match ch {
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            _ => out.push(ch),
        }
    }
}

/// The body of a Verilog string literal, which must stay on one line: `"`
/// and `\` are backslash-escaped, control characters become three-digit
/// octal escapes.
fn write_string_body(out: &mut String, text: &str) {
    for ch in text.chars() {
        match ch {
            '"' | '\\' => {
                out.push('\\');
                out.push(ch);
            }
            c if c.is_ascii_control() => {
                let _ = write!(out, "\\{:03o}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn write_stmt(out: &mut String, s: &Stmt, depth: usize) {
    write_pad(out, depth);
    match s {
        Stmt::NonBlocking { lhs, rhs } => {
            match lhs {
                LValue::Net(n) => out.push_str(n),
                LValue::MemElem { mem, addr } => {
                    out.push_str(mem);
                    out.push('[');
                    write_expr(out, addr);
                    out.push(']');
                }
            }
            out.push_str(" <= ");
            write_expr(out, rhs);
            out.push_str(";\n");
        }
        Stmt::If { cond, then, els } => {
            out.push_str("if (");
            write_expr(out, cond);
            out.push_str(") begin\n");
            for t in then {
                write_stmt(out, t, depth + 1);
            }
            write_pad(out, depth);
            if els.is_empty() {
                out.push_str("end\n");
            } else {
                out.push_str("end else begin\n");
                for e in els {
                    write_stmt(out, e, depth + 1);
                }
                write_pad(out, depth);
                out.push_str("end\n");
            }
        }
        Stmt::Assert {
            guard,
            cond,
            message,
        } => {
            out.push_str("// synthesis translate_off\n");
            write_pad(out, depth);
            out.push_str("if ((");
            write_expr(out, guard);
            out.push_str(") && !(");
            write_expr(out, cond);
            out.push_str(")) $error(\"");
            write_string_body(out, message);
            out.push_str("\");\n");
            write_pad(out, depth);
            out.push_str("// synthesis translate_on\n");
        }
    }
}

/// Print an expression with full parenthesization (safe and simple).
pub fn print_expr(e: &Expr) -> String {
    let mut out = String::new();
    write_expr(&mut out, e);
    out
}

/// Append an expression's text to `out` (the streaming form of
/// [`print_expr`]).
fn write_expr(out: &mut String, e: &Expr) {
    match e {
        Expr::Const { value, width } => {
            write_u64(out, u64::from(*width));
            out.push_str("'d");
            write_u64(out, *value);
        }
        Expr::Ref(n) => out.push_str(n),
        Expr::MemRead { mem, addr } => {
            out.push_str(mem);
            out.push('[');
            write_expr(out, addr);
            out.push(']');
        }
        Expr::Slice { base, hi, lo } => {
            write_expr(out, base);
            out.push('[');
            write_u64(out, u64::from(*hi));
            if hi != lo {
                out.push(':');
                write_u64(out, u64::from(*lo));
            }
            out.push(']');
        }
        Expr::Unary { op, arg } => {
            out.push_str(match op {
                UnOp::Not => "~(",
                UnOp::LNot => "!(",
                UnOp::RedOr => "|(",
            });
            write_expr(out, arg);
            out.push(')');
        }
        Expr::Binary { op, lhs, rhs } => {
            let (open, close) = if op.is_signed() {
                ("$signed(", ")")
            } else {
                ("", "")
            };
            out.push('(');
            out.push_str(open);
            write_expr(out, lhs);
            out.push_str(close);
            out.push(' ');
            out.push_str(op.token());
            out.push(' ');
            out.push_str(open);
            write_expr(out, rhs);
            out.push_str(close);
            out.push(')');
        }
        Expr::Ternary { cond, then, els } => {
            out.push('(');
            write_expr(out, cond);
            out.push_str(" ? ");
            write_expr(out, then);
            out.push_str(" : ");
            write_expr(out, els);
            out.push(')');
        }
        Expr::Concat(parts) => {
            out.push('{');
            for (i, p) in parts.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, p);
            }
            out.push('}');
        }
        Expr::SignExtend { arg, from, to } => {
            if to <= from {
                write_expr(out, arg);
            } else {
                // `{{n{a[from-1]}}, a}`: the argument is written twice.
                out.push_str("{{");
                write_u64(out, u64::from(to - from));
                out.push('{');
                write_expr(out, arg);
                out.push('[');
                write_u64(out, u64::from(from - 1));
                out.push_str("]}}, ");
                write_expr(out, arg);
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prints_a_complete_module() {
        let mut m = VModule::new("counter");
        m.port("clk", Dir::Input, 1);
        m.port("en", Dir::Input, 1);
        m.port("count", Dir::Output, 8);
        m.reg("value", 8);
        m.assign("count", Expr::r("value"));
        m.main_always().stmts.push(Stmt::If {
            cond: Expr::r("en"),
            then: vec![Stmt::NonBlocking {
                lhs: LValue::Net("value".into()),
                rhs: Expr::add(Expr::r("value"), Expr::c(1, 8)),
            }],
            els: vec![],
        });
        let text = print_module(&m);
        assert!(text.contains("module counter(clk, en, count);"), "{text}");
        assert!(text.contains("input clk;"), "{text}");
        assert!(text.contains("output [7:0] count;"), "{text}");
        assert!(text.contains("reg [7:0] value = 8'd0;"), "{text}");
        assert!(text.contains("assign count = value;"), "{text}");
        assert!(text.contains("always @(posedge clk) begin"), "{text}");
        assert!(text.contains("value <= (value + 8'd1);"), "{text}");
        assert!(text.ends_with("endmodule\n"), "{text}");
    }

    #[test]
    fn prints_signed_comparison_and_memory() {
        let mut m = VModule::new("x");
        m.port("clk", Dir::Input, 1);
        m.memory("buf", 32, 16, Some("lutram"));
        m.wire("lt", 1);
        m.assign("lt", Expr::bin(BinOp::SLt, Expr::r("a"), Expr::r("b")));
        let text = print_module(&m);
        assert!(text.contains("(* ram_style = \"lutram\" *)"), "{text}");
        assert!(text.contains("reg [31:0] buf [0:15];"), "{text}");
        assert!(text.contains("($signed(a) < $signed(b))"), "{text}");
    }

    #[test]
    fn sign_extend_prints_replication() {
        let e = Expr::SignExtend {
            arg: Box::new(Expr::r("x")),
            from: 8,
            to: 12,
        };
        assert_eq!(print_expr(&e), "{{4{x[7]}}, x}");
    }

    #[test]
    fn assertion_prints_translate_off_guard() {
        let mut m = VModule::new("a");
        m.port("clk", Dir::Input, 1);
        m.main_always().stmts.push(Stmt::Assert {
            guard: Expr::r("en"),
            cond: Expr::bin(BinOp::ULt, Expr::r("addr"), Expr::c(16, 8)),
            message: "address out of bounds".into(),
        });
        let text = print_module(&m);
        assert!(text.contains("translate_off"), "{text}");
        assert!(text.contains("$error(\"address out of bounds\")"), "{text}");
    }

    fn b(e: Expr) -> Box<Expr> {
        Box::new(e)
    }

    /// One expression of every variant (both `Slice` and both
    /// `SignExtend` forms), with its expected text.
    fn every_expr() -> Vec<(Expr, &'static str)> {
        let (x, y) = (Expr::r("x"), Expr::r("y"));
        vec![
            (Expr::c(5, 8), "8'd5"),
            (Expr::c(u64::MAX, 64), "64'd18446744073709551615"),
            (x.clone(), "x"),
            (
                Expr::MemRead {
                    mem: "m".into(),
                    addr: b(Expr::c(3, 4)),
                },
                "m[4'd3]",
            ),
            (
                Expr::Slice {
                    base: b(x.clone()),
                    hi: 7,
                    lo: 7,
                },
                "x[7]",
            ),
            (
                Expr::Slice {
                    base: b(x.clone()),
                    hi: 7,
                    lo: 0,
                },
                "x[7:0]",
            ),
            (Expr::not(x.clone()), "~(x)"),
            (
                Expr::Unary {
                    op: UnOp::LNot,
                    arg: b(x.clone()),
                },
                "!(x)",
            ),
            (
                Expr::Unary {
                    op: UnOp::RedOr,
                    arg: b(x.clone()),
                },
                "|(x)",
            ),
            (Expr::add(x.clone(), y.clone()), "(x + y)"),
            (Expr::bin(BinOp::ULe, x.clone(), y.clone()), "(x <= y)"),
            (
                Expr::mux(x.clone(), y.clone(), Expr::c(0, 2)),
                "(x ? y : 2'd0)",
            ),
            (
                Expr::Concat(vec![Expr::c(0, 3), x.clone(), y.clone()]),
                "{3'd0, x, y}",
            ),
            (
                Expr::SignExtend {
                    arg: b(Expr::add(x.clone(), y.clone())),
                    from: 4,
                    to: 6,
                },
                "{{2{(x + y)[3]}}, (x + y)}",
            ),
            (
                Expr::SignExtend {
                    arg: b(x.clone()),
                    from: 8,
                    to: 8,
                },
                "x",
            ),
            (
                Expr::SignExtend {
                    arg: b(x),
                    from: 8,
                    to: 4,
                },
                "x",
            ),
        ]
    }

    #[test]
    fn every_expr_variant_prints_and_streams_identically() {
        for (e, want) in every_expr() {
            assert_eq!(print_expr(&e), want);
            let mut out = String::from("prefix ");
            write_expr(&mut out, &e);
            assert_eq!(out, format!("prefix {want}"));
        }
        // A deep expression built from all of them streams the same way.
        let all = Expr::Concat(every_expr().into_iter().map(|(e, _)| e).collect());
        let mut out = String::new();
        write_expr(&mut out, &all);
        assert_eq!(out, print_expr(&all));
    }

    #[test]
    fn signed_operators_wrap_both_operands() {
        for (op, tok) in [
            (BinOp::SLt, "<"),
            (BinOp::SLe, "<="),
            (BinOp::SGt, ">"),
            (BinOp::SGe, ">="),
            (BinOp::AShr, ">>>"),
        ] {
            let e = Expr::bin(op, Expr::r("a"), Expr::add(Expr::r("b"), Expr::c(1, 4)));
            assert_eq!(
                print_expr(&e),
                format!("($signed(a) {tok} $signed((b + 4'd1)))")
            );
        }
        assert_eq!(
            print_expr(&Expr::bin(BinOp::ULt, Expr::r("a"), Expr::r("b"))),
            "(a < b)"
        );
    }

    #[test]
    fn nested_if_else_and_memory_lvalues_indent_by_depth() {
        let assign = |lhs: &str, v: u64| Stmt::NonBlocking {
            lhs: LValue::Net(lhs.into()),
            rhs: Expr::c(v, 4),
        };
        let innermost = Stmt::If {
            cond: Expr::r("c3"),
            then: vec![Stmt::NonBlocking {
                lhs: LValue::MemElem {
                    mem: "mem".into(),
                    addr: Expr::add(Expr::r("i"), Expr::c(1, 3)),
                },
                rhs: Expr::Concat(vec![Expr::r("hi"), Expr::r("lo")]),
            }],
            els: vec![assign("r", 3)],
        };
        let middle = Stmt::If {
            cond: Expr::r("c2"),
            then: vec![innermost],
            els: vec![],
        };
        let outer = Stmt::If {
            cond: Expr::r("c1"),
            then: vec![middle],
            els: vec![assign("r", 1)],
        };
        let mut m = VModule::new("n");
        m.port("clk", Dir::Input, 1);
        m.main_always().stmts.push(outer);
        let want = "\
module n(clk);
  input clk;
  always @(posedge clk) begin
    if (c1) begin
      if (c2) begin
        if (c3) begin
          mem[(i + 3'd1)] <= {hi, lo};
        end else begin
          r <= 4'd3;
        end
      end
    end else begin
      r <= 4'd1;
    end
  end
endmodule
";
        assert_eq!(print_module(&m), want);
    }

    #[test]
    fn assert_messages_and_comments_are_escaped() {
        let mut m = VModule::new("e");
        m.port("clk", Dir::Input, 1);
        m.comments.push("header\nspills".into());
        m.wire("w", 1);
        m.assign_with_comment("w", Expr::c(1, 1), "at \"a\\b\".mlir\r\n:1:2");
        m.main_always().stmts.push(Stmt::Assert {
            guard: Expr::r("en"),
            cond: Expr::r("ok"),
            message: "bad \"x\\y\"\n\tz\u{7}".into(),
        });
        let text = print_module(&m);
        assert!(
            text.starts_with("// header\\nspills\nmodule e(clk);\n"),
            "{text}"
        );
        assert!(text.contains("  // at \"a\\b\".mlir\\r\\n:1:2\n"), "{text}");
        assert!(
            text.contains(r#"if ((en) && !(ok)) $error("bad \"x\\y\"\012\011z\007");"#),
            "{text}"
        );
        assert_eq!(text.lines().filter(|l| l.contains("//")).count(), 4);
    }

    #[test]
    fn design_display_and_print_design_agree() {
        let mut d = Design::new();
        for name in ["a", "b", "c"] {
            let mut m = VModule::new(name);
            m.port("clk", Dir::Input, 1);
            m.port("q", Dir::Output, 4);
            m.reg("r", 4);
            m.assign("q", Expr::r("r"));
            m.instances.push(Instance {
                module: "sub".into(),
                name: "u0".into(),
                connections: vec![("clk".into(), Expr::r("clk")), ("d".into(), Expr::c(2, 4))],
            });
            d.add(m);
        }
        let text = print_design(&d);
        assert_eq!(d.to_string(), text);
        assert_eq!(
            text,
            d.modules
                .iter()
                .map(print_module)
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(
            text.contains("  sub u0(\n    .clk(clk),\n    .d(4'd2)\n  );\n"),
            "{text}"
        );
    }
}
