//! One integer meaning for every compute op, checked three ways.
//!
//! For every `ComputeKind` and every `cmp` predicate, at widths 1 to 6 and
//! over all operand values, the shared evaluator (`hir::semantics::eval`),
//! the generated RTL under the batched simulator (64 stimulus lanes per
//! harness run) and `bmc`'s bit-blaster on the same generated design (its
//! inputs fixed to constants) must give the same result. Casts and slices
//! go from every width to every other, and a few two-operand designs mix
//! their operand and result widths.
//!
//! The regression files `tests/corpus/regressions/{zext_const,
//! shl_neg_amount,const_wrap,mult_narrow_const,reg_read_indirect}.hir` hold
//! five programs on which the interpreter, the RTL and the optimizer once
//! disagreed. Each must give one result under the interpreter and under
//! `hirc --emit=sim`, with and without `--opt`.

use bmc::blast::Blaster;
use bmc::unroll::{eval_frame, initial_state};
use hir::dialect::{attrkey, opname};
use hir::interp::{ArgValue, Interpreter};
use hir::ops::{self, FuncOp};
use hir::semantics::{self, wrap};
use hir::types::MemrefInfo;
use hir::{CmpPredicate, HirBuilder};
use hir_codegen::testbench::{Harness, HarnessArg};
use ir::{AttrMap, Attribute, Module, Type};
use std::path::Path;
use std::process::Command;

const LANES: usize = 64;

/// One result of the design under test: op `name` on the arguments at
/// `args`, of result width `width`.
struct Spec {
    name: &'static str,
    args: Vec<usize>,
    width: u32,
    attrs: AttrMap,
}

fn spec(name: &'static str, args: &[usize], width: u32) -> Spec {
    Spec {
        name,
        args: args.to_vec(),
        width,
        attrs: AttrMap::new(),
    }
}

/// `hir.func @f` with scalar arguments of `arg_widths` and one result, at
/// delay 0, per spec.
fn build(arg_widths: &[u32], specs: &[Spec]) -> Module {
    let mut hb = HirBuilder::new();
    let names: Vec<String> = (0..arg_widths.len()).map(|i| format!("x{i}")).collect();
    let formals: Vec<(&str, Type)> = names
        .iter()
        .zip(arg_widths)
        .map(|(n, &w)| (n.as_str(), Type::int(w)))
        .collect();
    let f = hb.func("f", &formals, &vec![0; specs.len()]);
    let args = f.args(hb.module());
    let results: Vec<_> = specs
        .iter()
        .map(|s| {
            let operands = s.args.iter().map(|&i| args[i]).collect();
            hb.raw_op(s.name, operands, vec![Type::int(s.width)], s.attrs.clone())
        })
        .collect();
    hb.return_(&results);
    hb.finish()
}

/// Every two-operand op and `cmp` predicate on `x0 : i<wa>` and
/// `x1 : i<wb>`, with arithmetic results of width `wr`. When all three
/// widths agree, `not` and a `select` on `x2 : i1` ride along.
fn two_operand(wa: u32, wb: u32, wr: u32) -> (Vec<u32>, Vec<Spec>) {
    let mut specs: Vec<Spec> = [
        opname::ADD,
        opname::SUB,
        opname::MULT,
        opname::AND,
        opname::OR,
        opname::XOR,
        opname::SHL,
        opname::SHR,
    ]
    .into_iter()
    .map(|name| spec(name, &[0, 1], wr))
    .collect();
    for pred in [
        CmpPredicate::Eq,
        CmpPredicate::Ne,
        CmpPredicate::Lt,
        CmpPredicate::Le,
        CmpPredicate::Gt,
        CmpPredicate::Ge,
    ] {
        let mut s = spec(opname::CMP, &[0, 1], 1);
        s.attrs.insert(
            attrkey::PREDICATE.into(),
            Attribute::string(pred.mnemonic()),
        );
        specs.push(s);
    }
    if wa == wb && wb == wr {
        specs.push(spec(opname::NOT, &[0], wr));
        specs.push(spec(opname::SELECT, &[2, 0, 1], wr));
        return (vec![wa, wb, 1], specs);
    }
    (vec![wa, wb], specs)
}

/// Every cast and slice of `x0 : i<w>`: `trunc` to each narrower width,
/// `zext` and `sext` to each wider width up to 7, `slice` of each range.
fn casts(w: u32) -> (Vec<u32>, Vec<Spec>) {
    let mut specs: Vec<Spec> = (1..w).map(|to| spec(opname::TRUNC, &[0], to)).collect();
    for to in w + 1..=7 {
        specs.push(spec(opname::ZEXT, &[0], to));
        specs.push(spec(opname::SEXT, &[0], to));
    }
    for hi in 0..w {
        for lo in 0..=hi {
            let mut s = spec(opname::SLICE, &[0], hi - lo + 1);
            s.attrs
                .insert(attrkey::HI.into(), Attribute::index(i128::from(hi)));
            s.attrs
                .insert(attrkey::LO.into(), Attribute::index(i128::from(lo)));
            specs.push(s);
        }
    }
    (vec![w], specs)
}

/// Every assignment of values to arguments of the given widths.
fn stimuli(arg_widths: &[u32]) -> Vec<Vec<i128>> {
    let mut out = vec![Vec::new()];
    for &w in arg_widths {
        let half = 1i128 << (w - 1);
        out = out
            .into_iter()
            .flat_map(|s| {
                (-half..half).map(move |v| {
                    let mut s = s.clone();
                    s.push(v);
                    s
                })
            })
            .collect();
    }
    out
}

/// Check the evaluator, the batched RTL simulation and the bit-blaster
/// against each other on every stimulus of `f`. Returns the number of
/// (op, stimulus) pairs checked.
fn check(arg_widths: &[u32], specs: &[Spec]) -> usize {
    let m = build(arg_widths, specs);
    let func = FuncOp::find(&m, "f").unwrap();
    let ops: Vec<_> = m
        .op(func.return_op(&m).unwrap())
        .operands()
        .iter()
        .map(|&v| {
            let op = m.defining_op(v).unwrap();
            (op, ops::compute_kind(&m, op).unwrap())
        })
        .collect();
    let all = stimuli(arg_widths);
    let expected: Vec<Vec<i128>> = all
        .iter()
        .map(|s| {
            ops.iter()
                .zip(specs)
                .map(|(&(op, kind), spec)| {
                    let vals: Vec<i128> = spec.args.iter().map(|&i| s[i]).collect();
                    semantics::eval(&m, op, kind, &vals).unwrap()
                })
                .collect()
        })
        .collect();
    let describe = |i: usize, s: &[i128]| {
        let spec = &specs[i];
        let vals: Vec<i128> = spec.args.iter().map(|&a| s[a]).collect();
        let widths: Vec<u32> = spec.args.iter().map(|&a| arg_widths[a]).collect();
        format!(
            "{} {:?} of {vals:?} at widths {widths:?} -> i{}",
            spec.name, spec.attrs, spec.width
        )
    };

    let design = hir_codegen::generate_design(&m, &Default::default()).unwrap();
    for (lanes, want) in all.chunks(LANES).zip(expected.chunks(LANES)) {
        let lane_args: Vec<Vec<HarnessArg>> = lanes
            .iter()
            .map(|s| s.iter().map(|&v| HarnessArg::Int(v)).collect())
            .collect();
        let mut h = Harness::new_batched(&design, &m, func, &lane_args).unwrap();
        let reports = h.run_batched(100).unwrap();
        for ((rep, s), want) in reports.iter().zip(lanes).zip(want) {
            for (i, (got, want)) in rep.results.iter().zip(want).enumerate() {
                assert_eq!(got, want, "RTL vs evaluator: {}", describe(i, s));
            }
        }
    }

    let ts = verilog::tsys::lower(&design, &hir_codegen::module_name("f")).unwrap();
    let results: Vec<_> = (0..specs.len())
        .map(|i| {
            let port = format!("result{i}");
            ts.outputs.iter().find(|(name, _)| *name == port).unwrap().1
        })
        .collect();
    let mut bl = Blaster::new();
    for (s, want) in all.iter().zip(&expected) {
        let inputs = ts
            .inputs
            .iter()
            .map(|iv| {
                let v = match iv.name.strip_prefix('x') {
                    Some(i) => s[i.parse::<usize>().unwrap()],
                    None => 1, // start
                };
                bl.bv_const(v as u64, iv.width)
            })
            .collect();
        let state = initial_state(&bl, &ts);
        let frame = eval_frame(&mut bl, &ts, None, state, inputs);
        for (i, (&node, want)) in results.iter().zip(want).enumerate() {
            let bits = bl.bv_value(frame.get(node)).expect("constant inputs");
            let got = wrap(i128::from(bits), specs[i].width);
            assert_eq!(got, *want, "bit-blaster vs evaluator: {}", describe(i, s));
        }
    }
    all.len() * specs.len()
}

#[test]
fn every_compute_op_agrees_with_rtl_and_bit_blaster_at_small_widths() {
    let mut designs: Vec<(Vec<u32>, Vec<Spec>)> = Vec::new();
    for w in 1..=6 {
        designs.push(two_operand(w, w, w));
        designs.push(casts(w));
    }
    for (wa, wb, wr) in [(1, 3, 2), (3, 1, 4), (2, 5, 3), (5, 2, 6)] {
        designs.push(two_operand(wa, wb, wr));
    }
    let checked: usize = designs.iter().map(|(args, specs)| check(args, specs)).sum();
    assert!(checked > 100_000, "only {checked} cases checked");
}

// ------------------------------------------------------------- regressions

fn hirc(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_hirc"))
        .args(args)
        .output()
        .expect("run hirc");
    assert!(
        out.status.success(),
        "hirc {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// `result0` of the last function under the interpreter, with hirc's
/// `--emit=sim` stimulus (scalar argument `i` is `3 * (i + 1)`, memory word
/// `k` is `k % 17 + 1`).
fn interp_result(m: &Module) -> i128 {
    let func = m
        .top_ops()
        .iter()
        .filter_map(|&t| FuncOp::wrap(m, t))
        .next_back()
        .unwrap();
    let args: Vec<ArgValue> = func
        .args(m)
        .iter()
        .enumerate()
        .map(|(i, &v)| match MemrefInfo::from_type(&m.value_type(v)) {
            Some(info) => ArgValue::tensor_from(
                &(0..info.num_elements() as i128)
                    .map(|k| k % 17 + 1)
                    .collect::<Vec<_>>(),
            ),
            None => ArgValue::Int(3 * (i as i128 + 1)),
        })
        .collect();
    let report = Interpreter::new(m).run(&func.name(m), &args).unwrap();
    report.results[0]
}

/// `result0` of `hirc --emit=sim`'s run summary.
fn rtl_result(summary: &str) -> i128 {
    let line = summary
        .lines()
        .find_map(|l| l.strip_prefix("result0 = "))
        .unwrap_or_else(|| panic!("no result0 in {summary}"));
    line.parse().unwrap()
}

#[test]
fn regressions_agree_under_interpreter_and_rtl_with_and_without_opt() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/regressions");
    for (name, want) in [
        ("zext_const", 255),
        ("shl_neg_amount", 0),
        ("const_wrap", -53),
        ("mult_narrow_const", -9),
        ("reg_read_indirect", 3),
    ] {
        let path = dir.join(format!("{name}.hir"));
        let file = path.to_str().unwrap();
        let source = std::fs::read_to_string(&path).unwrap();
        let optimized = hirc(&[file, "--opt", "--emit=pretty"]);
        let results = [
            (
                "interpreter",
                interp_result(&hir::parse_pretty(&source).unwrap()),
            ),
            (
                "interpreter after --opt",
                interp_result(&hir::parse_pretty(&optimized).unwrap()),
            ),
            ("RTL", rtl_result(&hirc(&[file, "--emit=sim"]))),
            (
                "RTL after --opt",
                rtl_result(&hirc(&[file, "--opt", "--emit=sim"])),
            ),
        ];
        for (what, got) in results {
            assert_eq!(got, want, "{name}: {what}");
        }
        match name {
            "zext_const" => {
                let verilog = hirc(&[file]);
                assert!(verilog.contains("assign result0 = 16'd255;"), "{verilog}");
            }
            "const_wrap" => assert!(optimized.contains("hir.constant -53 : i8"), "{optimized}"),
            "reg_read_indirect" => {
                // Batched lane k adds k to every memory word: %B[1] = 2 + k
                // and %A[2 + k] = 3 + 2k.
                let summary = hirc(&[file, "--emit=sim", "--sim-engine=batched"]);
                for k in 1..8 {
                    let line = format!("lane {k} result0 = {}", 3 + 2 * k);
                    assert!(summary.lines().any(|l| l == line), "{line}: {summary}");
                }
            }
            _ => {}
        }
    }
}
