//! Paper-style pretty printer for HIR.
//!
//! Produces the human-readable syntax used throughout the paper's listings
//! (e.g. `hir.mem_write %v to %C[%i] at %ti offset 1`), used for examples and
//! for diagnostic snippets. The canonical, round-trippable form remains
//! [`ir::print_module`].

use crate::decl::{self, OpDecl, Piece};
use crate::dialect::{attrkey, opname};
use crate::ops;
use crate::types::{self, MemrefInfo};
use ir::{BlockId, Module, OpId, ValueId};
use std::collections::HashMap;
use std::fmt::Write;

/// Pretty-print every function in the module.
pub fn pretty_module(m: &Module) -> String {
    let mut out = String::new();
    for &top in m.top_ops() {
        out.push_str(&pretty_func(m, top));
        out.push('\n');
    }
    out
}

/// Pretty-print one `hir.func` (or any op tree).
pub fn pretty_func(m: &Module, func: OpId) -> String {
    let mut p = Pretty::new(m);
    p.print_tree(func, 0);
    p.out
}

/// Pretty-print a single op line (without its region bodies), used for
/// diagnostics like the paper's Figure 1b.
pub fn pretty_op(m: &Module, op: OpId) -> String {
    let mut p = Pretty::new(m);
    // Pre-name every value in the enclosing function so operand names are
    // stable regardless of which op we print.
    let mut root = op;
    while let Some(parent) = m.op(root).parent() {
        root = m.block_parent_op(parent);
    }
    p.assign_names(root);
    p.print_op_line(op)
}

struct Pretty<'m> {
    m: &'m Module,
    names: HashMap<ValueId, String>,
    next: usize,
    out: String,
}

impl<'m> Pretty<'m> {
    fn new(m: &'m Module) -> Self {
        Pretty {
            m,
            names: HashMap::new(),
            next: 0,
            out: String::new(),
        }
    }

    /// The declaration of `op` if `op` conforms to it; `Err` if it does not
    /// (print it in the generic form), `Ok(None)` for ops HIR does not
    /// declare (also generic). The pretty syntax indexes operands, results,
    /// regions, block arguments and attributes as declared, which
    /// partially recovered modules from the error-tolerant parsers can
    /// violate.
    fn conforming(&self, op: OpId) -> Result<Option<&'static OpDecl>, ()> {
        let m = self.m;
        match decl::lookup(m.op(op).name().as_str()) {
            None => Ok(None),
            Some(d) if d.conforms(m, op) && (d.name != opname::FUNC || func_conforms(m, op)) => {
                Ok(Some(d))
            }
            Some(_) => Err(()),
        }
    }

    fn assign_names(&mut self, root: OpId) {
        // Walk in print order: block args then results.
        let m = self.m;
        m.walk(root, &mut |op| {
            for &r in m.op(op).regions() {
                for &b in m.region(r).blocks() {
                    for &a in m.block(b).args() {
                        self.name(a);
                    }
                }
            }
            for &res in m.op(op).results() {
                self.name(res);
            }
        });
    }

    fn name(&mut self, v: ValueId) -> String {
        if let Some(n) = self.names.get(&v) {
            return n.clone();
        }
        // Constants get their literal value as name, like the paper (%16);
        // a typed constant with the same value gets a disambiguated name so
        // the printed text stays parseable. Read the attribute leniently:
        // this runs inside diagnostic rendering, where the constant may be
        // the malformed op (e.g. a missing 'value' attribute) being reported.
        let m = self.m;
        let literal = m
            .defining_op(v)
            .filter(|&def| ops::ConstantOp::wrap(m, def).is_some())
            .and_then(|def| m.op(def).attr(attrkey::VALUE)?.as_int())
            .map(|i| format!("%c{i}"))
            .filter(|base| !self.names.values().any(|n| n == base));
        let n = literal.unwrap_or_else(|| self.fresh());
        self.names.insert(v, n.clone());
        n
    }

    fn fresh(&mut self) -> String {
        let n = format!("%{}", self.next);
        self.next += 1;
        n
    }

    fn indent(&mut self, depth: usize) {
        for _ in 0..depth {
            self.out.push_str("  ");
        }
    }

    fn print_block(&mut self, block: BlockId, depth: usize) {
        for &o in self.m.block(block).ops().to_vec().iter() {
            self.print_tree(o, depth);
        }
    }

    fn print_tree(&mut self, op: OpId, depth: usize) {
        let m = self.m;
        self.indent(depth);
        let conforming = self.conforming(op);
        if let Ok(Some(d)) = conforming {
            if d.name == opname::FUNC {
                return self.print_func(op, depth);
            }
            if let Some(syntax) = d.syntax {
                return self.print_syntax(op, d, syntax, depth);
            }
        }
        let line = self.generic_op_line(op);
        self.out.push_str(&line);
        self.out.push('\n');
        // A non-conforming op's regions print nested, without braces.
        if conforming.is_err() {
            for &r in m.op(op).regions() {
                for &b in m.region(r).blocks() {
                    self.print_block(b, depth + 1);
                }
            }
        }
    }

    /// `d`'s pretty syntax and region bodies.
    fn print_syntax(&mut self, op: OpId, d: &OpDecl, syntax: &[Piece], depth: usize) {
        let m = self.m;
        let line = self.syntax_line(op, d, syntax);
        self.out.push_str(&line);
        let mut regions = m.op(op).regions().iter();
        let mut open = false;
        for piece in syntax {
            let keyword = match piece {
                Piece::Region => None,
                Piece::OptRegion(kw) => Some(*kw),
                _ => continue,
            };
            let Some(&r) = regions.next() else { break };
            match keyword {
                None => self.out.push_str(" {\n"),
                Some(kw) => {
                    self.indent(depth);
                    let _ = writeln!(self.out, "}} {kw} {{");
                }
            }
            self.print_block(m.region(r).blocks()[0], depth + 1);
            open = true;
        }
        if open {
            self.indent(depth);
            self.out.push('}');
        }
        self.out.push('\n');
    }

    /// `hir.func`'s signature: port labels, result delays, `extern`.
    fn print_func(&mut self, op: OpId, depth: usize) {
        let m = self.m;
        let f = ops::FuncOp(op);
        // Result signature: types with their declared delays.
        let delays = f.result_delays(m);
        let results: Vec<String> = (f.result_types(m).iter().enumerate())
            .map(|(i, t)| format!("{} delay {}", type_str(t), delays.get(i).unwrap_or(&0)))
            .collect();
        let results = results.join(", ");
        if f.is_external(m) {
            let args: Vec<String> = f.arg_types(m).iter().map(type_str).collect();
            let (name, args) = (f.name(m), args.join(", "));
            let _ = writeln!(self.out, "hir.func extern @{name}({args}) -> ({results})");
            return;
        }
        let t = self.name(f.time_var(m));
        let mut header = format!("hir.func @{} at {t}(", f.name(m));
        let arg_names = f.arg_names(m);
        for (i, a) in f.args(m).iter().enumerate() {
            if i > 0 {
                header.push_str(", ");
            }
            let n = self.name(*a);
            let label = arg_names.as_ref().and_then(|ns| ns.get(i)).unwrap_or(&n);
            let _ = write!(header, "{n} /*{label}*/ : {}", type_str(&m.value_type(*a)));
        }
        header.push(')');
        if !results.is_empty() {
            let _ = write!(header, " -> ({results})");
        }
        header.push_str(" {\n");
        self.out.push_str(&header);
        self.print_block(f.body(m), depth + 1);
        self.indent(depth);
        self.out.push_str("}\n");
    }

    /// One-line pretty form of an op, without region bodies: ops with
    /// regions (and ops without a declared syntax) print generically.
    fn print_op_line(&mut self, op: OpId) -> String {
        match self.conforming(op) {
            Ok(Some(d)) if d.regions == ir::Arity::Exact(0) => match d.syntax {
                Some(syntax) => self.syntax_line(op, d, syntax),
                None => self.generic_op_line(op),
            },
            _ => self.generic_op_line(op),
        }
    }

    /// `results = name` and the pieces of `syntax` up to the first region.
    /// Body arguments are named before results, results before operands
    /// (the order [`Pretty::assign_names`] uses).
    fn syntax_line(&mut self, op: OpId, d: &OpDecl, syntax: &[Piece]) -> String {
        let m = self.m;
        let data = m.op(op);
        let args: &[ValueId] = match data.regions().first() {
            Some(&r) if !d.body.is_empty() => {
                &m.block(m.region(r).blocks()[0]).args()[..d.body.len()]
            }
            _ => &[],
        };
        for &a in args {
            self.name(a);
        }
        let results: Vec<String> = data.results().iter().map(|&v| self.name(v)).collect();
        let mut line = String::new();
        if !results.is_empty() {
            let _ = write!(line, "{} = ", results.join(", "));
        }
        line.push_str(d.name);
        let operands = data.operands();
        let (mut next_operand, mut next_arg) = (0, 0);
        for piece in syntax {
            // Values follow a space, except right after an opening bracket.
            let sep = if line.ends_with(['(', '[']) { "" } else { " " };
            match *piece {
                Piece::Sp(tok) => {
                    line.push(' ');
                    line.push_str(tok);
                }
                Piece::Tight(tok) => line.push_str(tok),
                Piece::Operand(_) => {
                    let v = self.name(operands[next_operand]);
                    next_operand += 1;
                    let _ = write!(line, "{sep}{v}");
                }
                Piece::Operands(_) => {
                    let group = decl::group(m, op, d);
                    next_operand += group.len();
                    if !group.is_empty() {
                        let names: Vec<String> = group.iter().map(|&v| self.name(v)).collect();
                        let _ = write!(line, "{sep}{}", names.join(", "));
                    }
                }
                Piece::Offset => {
                    let _ = write!(line, " offset {}", ops::time_offset(m, op));
                }
                Piece::Int(key) | Piece::Amount(key) => {
                    let v = data.attr(key).and_then(|a| a.as_int()).expect("declared");
                    let _ = write!(line, " {v}");
                }
                Piece::Symbol(key) => {
                    let s = data
                        .attr(key)
                        .and_then(|a| a.as_symbol())
                        .expect("declared");
                    let _ = write!(line, " @{s}");
                }
                Piece::Literal(key) => {
                    let _ = write!(line, " {}", data.attr(key).expect("declared"));
                }
                Piece::Arg(_) => {
                    let v = self.name(args[next_arg]);
                    next_arg += 1;
                    let _ = write!(line, "{sep}{v}");
                }
                Piece::ArgType => {
                    let _ = write!(line, " {}", m.value_type(args[next_arg - 1]));
                }
                Piece::ResultType => {
                    let _ = write!(line, " : {}", m.value_type(data.results()[0]));
                }
                Piece::ResultTypes => {
                    let types: Vec<String> = data
                        .results()
                        .iter()
                        .map(|&v| type_str(&m.value_type(v)))
                        .collect();
                    let _ = write!(line, " ({})", types.join(", "));
                }
                Piece::Region | Piece::OptRegion(_) => break,
            }
        }
        line
    }

    /// Generic one-line form, safe for any op regardless of shape:
    /// `%r = hir.add (%a, %b) : (i32, i32) -> (i32)`.
    fn generic_op_line(&mut self, op: OpId) -> String {
        let m = self.m;
        let data = m.op(op);
        let name = data.name().as_str().to_string();
        let results: Vec<String> = data.results().iter().map(|&v| self.name(v)).collect();
        let operands: Vec<String> = data.operands().iter().map(|&v| self.name(v)).collect();
        let in_tys: Vec<String> = data
            .operands()
            .iter()
            .map(|&v| type_str(&m.value_type(v)))
            .collect();
        let out_tys: Vec<String> = data
            .results()
            .iter()
            .map(|&v| type_str(&m.value_type(v)))
            .collect();
        let prefix = if results.is_empty() {
            String::new()
        } else {
            format!("{} = ", results.join(", "))
        };
        let mut line = format!("{prefix}{name} ({})", operands.join(", "));
        let _ = write!(
            line,
            " : ({}) -> ({})",
            in_tys.join(", "),
            out_tys.join(", ")
        );
        if let Some(p) = data.attr(attrkey::PREDICATE).and_then(|a| a.as_str()) {
            let _ = write!(line, " {{{p}}}");
        }
        if let (Some(hi), Some(lo)) = (
            data.attr(attrkey::HI).and_then(|a| a.as_int()),
            data.attr(attrkey::LO).and_then(|a| a.as_int()),
        ) {
            let _ = write!(line, " {{{hi}:{lo}}}");
        }
        line
    }
}

/// Whether a `hir.func` has what its signature prints: a body with at least
/// the start-time argument, unless it is external.
fn func_conforms(m: &Module, op: OpId) -> bool {
    ops::FuncOp(op).is_external(m)
        || m.op(op).regions().first().is_some_and(|&r| {
            m.region(r)
                .blocks()
                .first()
                .is_some_and(|&b| !m.block(b).args().is_empty())
        })
}

fn type_str(ty: &ir::Type) -> String {
    if let Some(info) = MemrefInfo::from_type(ty) {
        info.to_string()
    } else if types::is_time(ty) {
        "!hir.time".to_string()
    } else if types::is_const(ty) {
        "!hir.const".to_string()
    } else {
        ty.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HirBuilder;
    use crate::types::{MemKind, MemrefInfo, Port};
    use ir::Type;

    #[test]
    fn pretty_prints_paper_like_syntax() {
        let mut hb = HirBuilder::new();
        let a = MemrefInfo::packed(&[128], Type::int(32), Port::Read, MemKind::BlockRam);
        let c = a.with_port(Port::Write);
        let f = hb.func("array_add", &[("A", a.to_type()), ("C", c.to_type())], &[]);
        let t = f.time_var(hb.module());
        let args = f.args(hb.module());
        let (c0, c128, c1) = (hb.const_val(0), hb.const_val(128), hb.const_val(1));
        let lp = hb.for_loop(c0, c128, c1, t, 1, Type::int(8));
        hb.in_loop(lp, |hb, i, ti| {
            let v = hb.mem_read(args[0], &[i], ti, 0);
            let s = hb.add(v, v);
            hb.mem_write(s, args[1], &[i], ti, 1);
            hb.yield_at(ti, 1);
        });
        hb.return_(&[]);
        let m = hb.finish();
        let text = pretty_module(&m);
        assert!(text.contains("hir.func @array_add at"), "{text}");
        assert!(text.contains("hir.for"), "{text}");
        assert!(text.contains("hir.mem_read"), "{text}");
        assert!(text.contains("offset 1"), "{text}");
        assert!(text.contains("hir.yield at"), "{text}");
        assert!(
            text.contains("%c128"),
            "constants should print with literal names: {text}"
        );
    }

    #[test]
    fn pretty_op_single_line() {
        let mut hb = HirBuilder::new();
        let f = hb.func("f", &[("x", Type::int(32))], &[]);
        let x = f.args(hb.module())[0];
        let s = hb.add(x, x);
        hb.return_(&[s]);
        let m = hb.finish();
        let add_op = m.defining_op(s).unwrap();
        let line = pretty_op(&m, add_op);
        assert!(line.contains("hir.add"), "{line}");
        assert!(line.contains("(i32, i32) -> (i32)"), "{line}");
    }
}
