//! Human- and machine-readable schedule reports (`hirc --schedule-report`).
//!
//! Reuses the facts the validity analysis ([`crate::validity`]) computes —
//! each scheduled op's root time variable, static offset and latency, each
//! loop's initiation interval, each function's pipeline depth — and renders
//! them as a JSON document (strict [`obs::json`]-parseable) plus an ASCII
//! Gantt view of the per-function timeline.
//!
//! Root naming is positional and deterministic: the function's own time
//! variable is `%t`; the k-th loop in walk order owns `%t<k>` (its iteration
//! time) and `%tf<k>` (its completion time).

use hir::ops::{self, CallOp, DelayOp, ForOp, FuncOp, MemReadOp, UnrollForOp};
use ir::{Module, OpId, SymbolTable, ValueId};
use obs::json::{Json, Writer};
use obs::json_object;
use std::collections::HashMap;
use std::fmt::Write as _;

/// One scheduled op: where it sits on its root's timeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpSchedule {
    /// Op name (`hir.mem_read`, `hir.call`, ...).
    pub op: String,
    /// Rendered source location.
    pub loc: String,
    /// Positional name of the root time variable (`%t`, `%t0`, `%tf1`, ...).
    pub root: String,
    /// The root time variable itself, for cross-checking against
    /// [`crate::validity::analyze_function`].
    pub root_value: ValueId,
    /// Static offset from the root at which the op executes.
    pub offset: i64,
    /// Cycles until the op's result is valid (delay amount, memory read
    /// latency, or the callee's declared result delay; 0 for combinational
    /// ops).
    pub latency: i64,
}

/// One loop: its iteration-time root and initiation interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoopSchedule {
    /// Rendered source location of the loop op.
    pub loc: String,
    /// Positional name of the loop's iteration-time root.
    pub root: String,
    /// Static initiation interval, when the yield targets the iteration
    /// time directly (`None` for dynamic-II loops).
    pub ii: Option<i64>,
}

/// Per-function timeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FunctionSchedule {
    pub name: String,
    /// Declared result delays (the function's pipeline contract).
    pub result_delays: Vec<i64>,
    /// Max of the declared result delays and every root-`%t` op's
    /// `offset + latency`: the depth of the function's pipeline.
    pub pipeline_depth: i64,
    pub loops: Vec<LoopSchedule>,
    pub ops: Vec<OpSchedule>,
}

/// The whole module's schedule report.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScheduleReport {
    pub functions: Vec<FunctionSchedule>,
}

/// Build the report for every non-external function, in module order.
pub fn schedule_report(m: &Module) -> ScheduleReport {
    let symbols = SymbolTable::build(m);
    let mut functions = Vec::new();
    for &top in m.top_ops() {
        let Some(func) = FuncOp::wrap(m, top) else {
            continue;
        };
        if func.is_external(m) {
            continue;
        }
        functions.push(function_schedule(m, func, &symbols));
    }
    ScheduleReport { functions }
}

fn function_schedule(m: &Module, func: FuncOp, symbols: &SymbolTable) -> FunctionSchedule {
    let mut roots: HashMap<ValueId, String> = HashMap::new();
    let t = func.time_var(m);
    roots.insert(t, "%t".to_string());
    let mut loops = Vec::new();
    let mut rows = Vec::new();
    let mut loop_ix = 0usize;
    for &op in m.block(func.body(m)).ops() {
        walk(
            m,
            op,
            symbols,
            &mut roots,
            &mut loops,
            &mut rows,
            &mut loop_ix,
        );
    }
    let result_delays = func.result_delays(m);
    let pipeline_depth = rows
        .iter()
        .filter(|r: &&OpSchedule| r.root_value == t)
        .map(|r| r.offset + r.latency)
        .chain(result_delays.iter().copied())
        .max()
        .unwrap_or(0);
    FunctionSchedule {
        name: func.name(m),
        result_delays,
        pipeline_depth,
        loops,
        ops: rows,
    }
}

fn walk(
    m: &Module,
    op: OpId,
    symbols: &SymbolTable,
    roots: &mut HashMap<ValueId, String>,
    loops: &mut Vec<LoopSchedule>,
    rows: &mut Vec<OpSchedule>,
    loop_ix: &mut usize,
) {
    // Loops mint two new roots; name them before the body is walked.
    if let Some(lp) = ForOp::wrap(m, op) {
        let k = *loop_ix;
        *loop_ix += 1;
        let root = format!("%t{k}");
        roots.insert(lp.iter_time(m), root.clone());
        roots.insert(lp.result_time(m), format!("%tf{k}"));
        loops.push(LoopSchedule {
            loc: m.op(op).loc().to_string(),
            root,
            ii: lp.initiation_interval(m),
        });
    } else if let Some(lp) = UnrollForOp::wrap(m, op) {
        let k = *loop_ix;
        *loop_ix += 1;
        let root = format!("%t{k}");
        let ti = lp.iter_time(m);
        roots.insert(ti, root.clone());
        roots.insert(lp.result_time(m), format!("%tf{k}"));
        let ii = (lp.yield_op(m).time(m) == ti).then(|| lp.yield_op(m).offset(m));
        loops.push(LoopSchedule {
            loc: m.op(op).loc().to_string(),
            root,
            ii,
        });
    }
    if let Some(time) = ops::time_operand(m, op) {
        rows.push(OpSchedule {
            op: m.op(op).name().as_str().to_string(),
            loc: m.op(op).loc().to_string(),
            root: roots.get(&time).cloned().unwrap_or_else(|| "?".to_string()),
            root_value: time,
            offset: ops::time_offset(m, op),
            latency: latency_of(m, op, symbols),
        });
    }
    for region in m.op(op).regions().to_vec() {
        for block in m.region(region).blocks().to_vec() {
            for o in m.block(block).ops().to_vec() {
                walk(m, o, symbols, roots, loops, rows, loop_ix);
            }
        }
    }
}

/// Cycles until the op's result is valid (0 when unknown or combinational).
fn latency_of(m: &Module, op: OpId, symbols: &SymbolTable) -> i64 {
    if let Some(d) = DelayOp::wrap(m, op) {
        return d.by(m);
    }
    if let Some(r) = MemReadOp::wrap(m, op) {
        return r.latency(m);
    }
    if let Some(c) = CallOp::wrap(m, op) {
        if let Some(callee) = symbols
            .lookup(&c.callee(m))
            .and_then(|x| FuncOp::wrap(m, x))
        {
            return callee.result_delays(m).into_iter().max().unwrap_or(0);
        }
    }
    0
}

/// Strict-parser-compatible JSON (newline-terminated as a report file).
impl Json for ScheduleReport {
    fn write_json(&self, w: &mut Writer) {
        json_object!(w, {
            "functions": [for f in &self.functions => {
                "name": f.name, "pipeline_depth": f.pipeline_depth, "result_delays": f.result_delays,
                "loops": [for l in &f.loops => {"root": l.root, "loc": l.loc, "ii": l.ii}],
                "ops": [for o in &f.ops => {
                    "op": o.op, "loc": o.loc, "root": o.root, "offset": o.offset, "latency": o.latency,
                }],
            }],
        });
    }
}

impl ScheduleReport {
    /// ASCII Gantt view: one row per scheduled op, bars positioned at the
    /// op's offset on its root's timeline.
    pub fn gantt(&self) -> String {
        const MAX_BAR: i64 = 48;
        let mut out = String::new();
        for f in &self.functions {
            let _ = writeln!(
                out,
                "fn @{}  (pipeline depth {}, result delays {:?})",
                f.name, f.pipeline_depth, f.result_delays
            );
            for l in &f.loops {
                let ii = match l.ii {
                    Some(ii) => format!("II={ii}"),
                    None => "dynamic II".to_string(),
                };
                let _ = writeln!(out, "  loop {:<5} {}  [{}]", l.root, ii, l.loc);
            }
            let wop = f.ops.iter().map(|o| o.op.len()).max().unwrap_or(0).max(2);
            let wroot = f.ops.iter().map(|o| o.root.len()).max().unwrap_or(0).max(4);
            for o in &f.ops {
                let start = o.offset.clamp(0, MAX_BAR);
                let len = o.latency.max(1).min(MAX_BAR - start + 1);
                let bar: String = std::iter::repeat_n(' ', start as usize)
                    .chain(std::iter::repeat_n('#', len as usize))
                    .collect();
                let _ = writeln!(
                    out,
                    "  {:<wroot$} +{:<3} ~{:<3} {:<wop$} |{}|  {}",
                    o.root, o.offset, o.latency, o.op, bar, o.loc
                );
            }
            out.push('\n');
        }
        if self.functions.is_empty() {
            out.push_str("(no functions)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validity;
    use hir::types::{MemKind, MemrefInfo, Port};
    use hir::HirBuilder;
    use ir::{DiagnosticEngine, Type};

    fn mac_module() -> Module {
        let mut hb = HirBuilder::new();
        hb.extern_func(
            "mult",
            &[Type::int(32), Type::int(32)],
            &[Type::int(32)],
            &[2],
        );
        let f = hb.func(
            "mac",
            &[
                ("a", Type::int(32)),
                ("b", Type::int(32)),
                ("c", Type::int(32)),
            ],
            &[2],
        );
        let t = f.time_var(hb.module());
        let args = f.args(hb.module());
        let mv = hb.call("mult", &[args[0], args[1]], t, 0)[0];
        let c2 = hb.delay(args[2], 2, t, 0);
        let res = hb.add(mv, c2);
        hb.return_(&[res]);
        hb.finish()
    }

    #[test]
    fn mac_report_has_call_delay_and_depth() {
        let m = mac_module();
        let report = schedule_report(&m);
        assert_eq!(report.functions.len(), 1, "external mult excluded");
        let f = &report.functions[0];
        assert_eq!(f.name, "mac");
        assert_eq!(f.pipeline_depth, 2);
        assert_eq!(f.result_delays, vec![2]);
        let call = f.ops.iter().find(|o| o.op == hir::opname::CALL).unwrap();
        assert_eq!(
            (call.root.as_str(), call.offset, call.latency),
            ("%t", 0, 2)
        );
        let delay = f.ops.iter().find(|o| o.op == hir::opname::DELAY).unwrap();
        assert_eq!((delay.offset, delay.latency), (0, 2));
    }

    #[test]
    fn loop_report_names_roots_and_ii() {
        let mut hb = HirBuilder::new();
        let a = MemrefInfo::packed(&[16], Type::int(32), Port::Read, MemKind::BlockRam);
        let c = a.with_port(Port::Write);
        let f = hb.func("copy", &[("A", a.to_type()), ("C", c.to_type())], &[]);
        let t = f.time_var(hb.module());
        let args = f.args(hb.module());
        let (c0, c16, c1) = (hb.const_val(0), hb.const_val(16), hb.const_val(1));
        let lp = hb.for_loop(c0, c16, c1, t, 1, Type::int(8));
        hb.in_loop(lp, |hb, i, ti| {
            let v = hb.mem_read(args[0], &[i], ti, 0);
            let i1 = hb.delay(i, 1, ti, 0);
            hb.mem_write(v, args[1], &[i1], ti, 1);
            hb.yield_at(ti, 1);
        });
        hb.return_(&[]);
        let m = hb.finish();
        let report = schedule_report(&m);
        let f = &report.functions[0];
        assert_eq!(f.loops.len(), 1);
        assert_eq!(f.loops[0].root, "%t0");
        assert_eq!(f.loops[0].ii, Some(1));
        let write = f
            .ops
            .iter()
            .find(|o| o.op == hir::opname::MEM_WRITE)
            .unwrap();
        assert_eq!((write.root.as_str(), write.offset), ("%t0", 1));
        let read = f
            .ops
            .iter()
            .find(|o| o.op == hir::opname::MEM_READ)
            .unwrap();
        assert_eq!(read.latency, 1);
    }

    /// Every reported row must agree with the validity analysis: a row's
    /// `(root_value, offset + latency)` is exactly the analysis's validity
    /// for the op's first timed result.
    #[test]
    fn report_offsets_agree_with_validity_analysis() {
        for m in [mac_module()] {
            let report = schedule_report(&m);
            let symbols = ir::SymbolTable::build(&m);
            for &top in m.top_ops() {
                let Some(func) = hir::ops::FuncOp::wrap(&m, top) else {
                    continue;
                };
                if func.is_external(&m) {
                    continue;
                }
                let mut diags = DiagnosticEngine::new();
                let info = validity::analyze_function(&m, func, &symbols, &mut diags);
                assert!(!diags.has_errors(), "{}", diags.render());
                let fr = report
                    .functions
                    .iter()
                    .find(|f| f.name == func.name(&m))
                    .unwrap();
                for row in &fr.ops {
                    if row.op != hir::opname::DELAY
                        && row.op != hir::opname::MEM_READ
                        && row.op != hir::opname::CALL
                    {
                        continue;
                    }
                    // Find the op by location + name to get its result.
                    let op = m
                        .collect_all_ops()
                        .into_iter()
                        .find(|&o| {
                            m.is_live(o)
                                && m.op(o).name().as_str() == row.op
                                && m.op(o).loc().to_string() == row.loc
                        })
                        .unwrap();
                    let result = m.op(op).results()[0];
                    match info.validity.get(&result) {
                        Some(validity::Validity::At { root, offset }) => {
                            assert_eq!(*root, row.root_value, "root mismatch on {}", row.op);
                            assert_eq!(
                                *offset,
                                row.offset + row.latency,
                                "offset mismatch on {}",
                                row.op
                            );
                        }
                        other => panic!("unexpected validity {other:?} for {}", row.op),
                    }
                }
            }
        }
    }

    #[test]
    fn json_parses_strictly_and_gantt_renders() {
        let m = mac_module();
        let report = schedule_report(&m);
        let json = obs::json::document(&report);
        let v = obs::json::parse(&json).expect("strict parse");
        let funcs = v
            .as_object()
            .unwrap()
            .get("functions")
            .unwrap()
            .as_array()
            .unwrap();
        assert_eq!(funcs.len(), 1);
        let f0 = funcs[0].as_object().unwrap();
        assert_eq!(f0.get("name").unwrap().as_str(), Some("mac"));
        assert_eq!(f0.get("pipeline_depth").unwrap().as_f64(), Some(2.0));
        let gantt = report.gantt();
        assert!(gantt.contains("fn @mac"), "{gantt}");
        assert!(gantt.contains("hir.call"), "{gantt}");
    }
}
