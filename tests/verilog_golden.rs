//! Byte-level pins of the emitted Verilog.
//!
//! Every `examples/*.mlir` and `designs/*.hir` input that compiles under
//! `hirc --opt` has a checked-in golden under `tests/golden/verilog/`; the
//! larger kernels are pinned by (byte length, FNV-1a 64) so the repository
//! does not carry megabytes of RTL. Both are checked under the default
//! codegen options and with assertions and location comments turned off.
//!
//! After an intentional output change, regenerate the goldens and print a
//! fresh pin table with
//! `cargo test --release --test verilog_golden -- --ignored --nocapture`.

use hir_codegen::CodegenOptions;
use kernels::{conv, fir, gemm, histogram, stencil, transpose};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use verilog::{BinOp, Expr, LValue, Stmt, VModule};

/// The two option sets every input is printed under, with the suffix of
/// their golden files.
const OPTION_SETS: [(&str, CodegenOptions); 2] = [
    (
        "v",
        CodegenOptions {
            assertions: true,
            location_comments: true,
        },
    ),
    (
        "bare.v",
        CodegenOptions {
            assertions: false,
            location_comments: false,
        },
    ),
];

/// Checked-in inputs that must be rejected (paper Figure 1a).
const EXPECTED_REJECTS: [&str; 1] = ["designs/err_add.hir"];

/// (label, [(bytes, fnv1a64)] per entry of [`OPTION_SETS`]).
const KERNEL_PINS: [(&str, [(usize, u64); 2]); 8] = [
    (
        "transpose16",
        [(3063, 0x808e22ea4ddc10ce), (2432, 0x4ba7128837d666dd)],
    ),
    (
        "stencil64",
        [(5014, 0x783b0de0f7c706db), (2906, 0xd3462df63880d4b2)],
    ),
    (
        "histogram256",
        [(5310, 0xf047f332b8b19b1c), (3908, 0x8009ca2e0d8511f6)],
    ),
    (
        "conv16",
        [(7640, 0x9611c05363ddf3f8), (7076, 0xdbe789ee56c3622a)],
    ),
    (
        "fir64",
        [(4028, 0x6b7466f367e3ad41), (3609, 0xea30229a402eef91)],
    ),
    (
        "gemm8",
        [(56132, 0x80e1279b859953e6), (51944, 0x085065c5fa8e4ff4)],
    ),
    (
        "gemm16",
        [(198853, 0x211f35c260488a96), (183496, 0xec9dc7e942a38b92)],
    ),
    (
        "gemm32",
        [(769523, 0x216ba8e997cc7c81), (710324, 0x6a278ea6bd9c8f78)],
    ),
];

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn golden_dir() -> PathBuf {
    repo().join("tests/golden/verilog")
}

/// Sorted `dir/*.ext` inputs as (label, text).
fn inputs(dir: &str, ext: &str) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = std::fs::read_dir(repo().join(dir))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().and_then(|x| x.to_str()) == Some(ext))
        .map(|p| {
            let name = p.file_name().unwrap().to_str().unwrap().to_string();
            (
                format!("{dir}/{name}"),
                std::fs::read_to_string(&p).unwrap(),
            )
        })
        .collect();
    out.sort();
    out
}

/// `hirc --opt`'s path up to codegen: parse, verify, standard pipeline,
/// re-verify. `None` when verification rejects the input.
fn optimized(text: &str, pretty: bool) -> Option<ir::Module> {
    let (mut module, parse_errors) = if pretty {
        let r = hir::parse_pretty_recover(text, 0);
        (r.module, r.errors.len())
    } else {
        let r = ir::parse_module_recover(text, 0);
        (r.module, r.errors.len())
    };
    assert_eq!(parse_errors, 0, "checked-in inputs parse");
    let registry = hir::hir_registry();
    let mut diags = ir::DiagnosticEngine::new();
    if ir::verify_module(&module, &registry, &mut diags).is_err()
        || hir_verify::verify_schedule(&module, &mut diags).is_err()
    {
        return None;
    }
    hir_opt::standard_function_pipeline(1)
        .run(&mut module, &registry, &mut diags)
        .expect("standard pipeline");
    hir_verify::verify_schedule(&module, &mut diags).expect("optimized module verifies");
    Some(module)
}

fn verilog(module: &ir::Module, options: &CodegenOptions) -> String {
    let design = hir_codegen::generate_design(module, options).expect("codegen");
    verilog::print_design(&design)
}

/// Every checked-in input that compiles, as (golden file stem, module).
fn checked_in() -> Vec<(String, ir::Module)> {
    let mut out = Vec::new();
    let all = inputs("examples", "mlir")
        .into_iter()
        .chain(inputs("designs", "hir"));
    for (label, text) in all {
        match optimized(&text, label.ends_with(".hir")) {
            Some(m) => out.push((label.replace(['/', '.'], "_"), m)),
            None => assert!(
                EXPECTED_REJECTS.contains(&label.as_str()),
                "{label} no longer compiles"
            ),
        }
    }
    out
}

/// The compile_suite kernels, printed to generic IR and parsed back the
/// way `hirc` reads them.
fn kernels() -> Vec<(&'static str, ir::Module)> {
    let built = [
        ("transpose16", transpose::hir_transpose(16, 32)),
        ("stencil64", stencil::hir_stencil(64, 32)),
        ("histogram256", histogram::hir_histogram(256, 256, 32)),
        ("conv16", conv::hir_conv(16, 16, 32)),
        ("fir64", fir::hir_fir(64, &[1, 2, 3, 2, 1], 32)),
        ("gemm8", gemm::hir_gemm(8, 32)),
        ("gemm16", gemm::hir_gemm(16, 32)),
        ("gemm32", gemm::hir_gemm(32, 32)),
    ];
    built
        .into_iter()
        .map(|(label, m)| {
            let m = optimized(&ir::print_module(&m), false).expect("kernel compiles");
            (label, m)
        })
        .collect()
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn checked_in_inputs_match_golden_verilog() {
    let dir = golden_dir();
    let compiled = checked_in();
    assert!(compiled.len() >= 8, "examples and designs are all present");
    for (stem, module) in &compiled {
        for (suffix, options) in &OPTION_SETS {
            let path = dir.join(format!("{stem}.{suffix}"));
            let want = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let got = verilog(module, options);
            assert!(
                got == want,
                "Verilog drifted from {}; first differing line: {:?}",
                path.display(),
                got.lines()
                    .zip(want.lines())
                    .find(|(g, w)| g != w)
                    .map_or_else(
                        || format!("lengths {} vs {}", got.len(), want.len()),
                        |(g, w)| format!("{g} != {w}")
                    )
            );
        }
    }
}

#[test]
fn kernel_verilog_matches_pinned_length_and_hash() {
    for ((label, module), (pin_label, pins)) in kernels().iter().zip(KERNEL_PINS) {
        assert_eq!(*label, pin_label);
        for ((suffix, options), (bytes, hash)) in OPTION_SETS.iter().zip(pins) {
            let text = verilog(module, options);
            assert_eq!(
                (text.len(), fnv1a64(text.as_bytes())),
                (bytes, hash),
                "{label} ({suffix}) Verilog drifted"
            );
        }
    }
}

/// The arms `(enable, value)` of a port mux chain, outermost first.
fn mux_arms(mut e: &Expr) -> Vec<(&Expr, &Expr)> {
    let mut arms = Vec::new();
    while let Expr::Ternary { cond, then, els } = e {
        arms.push((&**cond, &**then));
        e = els;
    }
    arms
}

/// The terms of a left-nested enable OR, `((a | b) | c)`.
fn or_terms(mut e: &Expr) -> Vec<&Expr> {
    let mut terms = Vec::new();
    while let Expr::Binary {
        op: BinOp::Or,
        lhs,
        rhs,
    } = e
    {
        terms.push(&**rhs);
        e = lhs;
    }
    terms.push(e);
    terms
}

fn repeats<T: PartialEq>(items: &[T]) -> usize {
    (0..items.len())
        .filter(|&i| items[..i].contains(&items[i]))
        .count()
}

/// Violations of the port/assertion invariants in one module, as
/// (identical asserts, self-address conflict asserts, repeated mux arms or
/// OR terms).
fn port_invariant_violations(vm: &VModule) -> (usize, usize, usize) {
    let mut asserts = HashSet::new();
    let (mut identical, mut self_addr) = (0, 0);
    let (mut muxes, mut ors): (Vec<&Expr>, Vec<&Expr>) = (Vec::new(), Vec::new());
    // External buses: the port's address/data muxes and enable ORs.
    for a in &vm.assigns {
        if ["_addr", "_waddr", "_wr_data"]
            .iter()
            .any(|s| a.lhs.ends_with(s))
        {
            muxes.push(&a.rhs);
        } else if ["_rd_en", "_wr_en"].iter().any(|s| a.lhs.ends_with(s)) {
            ors.push(&a.rhs);
        } else if let Expr::MemRead { addr, .. } = &a.rhs {
            muxes.push(addr);
        }
    }
    for stmt in vm.always.iter().flat_map(|b| &b.stmts) {
        match stmt {
            Stmt::Assert { cond, message, .. } => {
                if !asserts.insert(stmt) {
                    identical += 1;
                }
                let self_eq =
                    matches!(cond, Expr::Binary { op: BinOp::Eq, lhs, rhs } if lhs == rhs);
                if message.starts_with("memory port conflict") && self_eq {
                    self_addr += 1;
                }
            }
            // Internal memories: `if (en) rdata <= mem[addr]` and
            // `if (en) mem[addr] <= data`.
            Stmt::If { cond, then, .. } => match then.as_slice() {
                [Stmt::NonBlocking {
                    rhs: Expr::MemRead { addr, .. },
                    ..
                }] => {
                    muxes.push(addr);
                    ors.push(cond);
                }
                [Stmt::NonBlocking {
                    lhs: LValue::MemElem { addr, .. },
                    rhs,
                }] => {
                    muxes.extend([addr, rhs]);
                    ors.push(cond);
                }
                _ => {}
            },
            Stmt::NonBlocking { .. } => {}
        }
    }
    let repeated = muxes.iter().map(|e| repeats(&mux_arms(e))).sum::<usize>()
        + ors.iter().map(|e| repeats(&or_terms(e))).sum::<usize>();
    (identical, self_addr, repeated)
}

/// Codegen emits each distinct port access once and only assertions that
/// can fire: in every module of every checked-in input and benchmark
/// kernel there are no two identical asserts, no conflict assert
/// comparing an address with itself, and no port mux chain or enable OR
/// with a repeated arm.
#[test]
fn each_port_access_is_emitted_once_with_only_live_asserts() {
    let all = checked_in()
        .into_iter()
        .chain(kernels().into_iter().map(|(l, m)| (l.to_string(), m)));
    for (label, module) in all {
        let design =
            hir_codegen::generate_design(&module, &CodegenOptions::default()).expect("codegen");
        for vm in &design.modules {
            assert_eq!(
                port_invariant_violations(vm),
                (0, 0, 0),
                "{label} {}: (identical asserts, self-address conflict asserts, \
                 repeated port arms)",
                vm.name
            );
        }
    }
}

#[test]
fn fnv1a64_matches_reference_vectors() {
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
}

/// Rewrites the goldens and prints the kernel pin table.
#[test]
#[ignore = "regenerates tests/golden/verilog; run only after an intentional output change"]
fn bless_verilog_goldens() {
    let dir = golden_dir();
    std::fs::create_dir_all(&dir).unwrap();
    for (stem, module) in checked_in() {
        for (suffix, options) in &OPTION_SETS {
            std::fs::write(
                dir.join(format!("{stem}.{suffix}")),
                verilog(&module, options),
            )
            .unwrap();
        }
    }
    for (label, module) in kernels() {
        let pins: Vec<String> = OPTION_SETS
            .iter()
            .map(|(_, o)| {
                let text = verilog(&module, o);
                format!("({}, {:#018x})", text.len(), fnv1a64(text.as_bytes()))
            })
            .collect();
        println!("(\"{label}\", [{}]),", pins.join(", "));
    }
}
