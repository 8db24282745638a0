//! Full-stack validation of every paper benchmark: the hand-scheduled HIR
//! design is verified, optimized, compiled to Verilog, simulated as RTL,
//! and compared against both the cycle-accurate interpreter and a software
//! reference. The HLS-baseline form is compiled and checked the same way.

use hir_suite::hir::interp::{ArgValue, Interpreter};
use hir_suite::hir_codegen::testbench::{Harness, HarnessArg};
use hir_suite::kernels::{self, conv, fifo, gemm, histogram, stencil, transpose, workload};

/// Compile an HIR module (optimized) and run its RTL with the harness.
fn run_rtl(
    module: &mut ir::Module,
    func: &str,
    args: &[HarnessArg],
    max_cycles: u64,
) -> hir_suite::hir_codegen::testbench::HarnessReport {
    let (design, _) = kernels::compile_hir(module, true).expect("HIR compile");
    let f = kernels::find_func(module, func);
    let mut h = Harness::new(&design, module, f, args).expect("harness");
    h.run(max_cycles).expect("RTL simulation")
}

#[test]
fn transpose_full_stack() {
    let n = 8u64;
    let nn = (n * n) as usize;
    let input = workload::random_i32s(11, nn);
    let expect = transpose::reference(n, &input);

    let m = transpose::hir_transpose(n, 32);
    let interp = Interpreter::new(&m)
        .run(
            transpose::FUNC,
            &[ArgValue::tensor_from(&input), ArgValue::uninit_tensor(nn)],
        )
        .expect("interp");
    let got: Vec<i128> = interp.tensors[&1].iter().map(|v| v.unwrap()).collect();
    assert_eq!(got, expect, "interpreter");

    let mut m = transpose::hir_transpose(n, 32);
    let rtl = run_rtl(
        &mut m,
        transpose::FUNC,
        &[HarnessArg::mem_from(&input), HarnessArg::zero_mem(nn)],
        50_000,
    );
    assert_eq!(rtl.mems[&1], expect, "RTL after optimization");
}

#[test]
fn stencil_full_stack() {
    let n = 32u64;
    let input = workload::random_bounded(12, n as usize, 1 << 20);
    let expect = stencil::reference(n, &input);

    let m = stencil::hir_stencil(n, 32);
    let interp = Interpreter::new(&m)
        .run(
            stencil::FUNC,
            &[
                ArgValue::tensor_from(&input),
                ArgValue::uninit_tensor(n as usize),
            ],
        )
        .expect("interp");
    let got: Vec<i128> = interp.tensors[&1].iter().map(|v| v.unwrap()).collect();
    assert_eq!(got, expect, "interpreter");

    let mut m = stencil::hir_stencil(n, 32);
    let rtl = run_rtl(
        &mut m,
        stencil::FUNC,
        &[
            HarnessArg::mem_from(&input),
            HarnessArg::zero_mem(n as usize),
        ],
        50_000,
    );
    assert_eq!(rtl.mems[&1], expect, "RTL after optimization");
}

#[test]
fn histogram_full_stack() {
    let (pixels, bins) = (64u64, 16u64);
    let img = workload::random_bounded(13, pixels as usize, bins as i128);
    let expect = histogram::reference(bins, &img);

    let mut m = histogram::hir_histogram(pixels, bins, 32);
    let rtl = run_rtl(
        &mut m,
        histogram::FUNC,
        &[
            HarnessArg::mem_from(&img),
            HarnessArg::zero_mem(bins as usize),
        ],
        50_000,
    );
    assert_eq!(rtl.mems[&1], expect, "RTL");
}

#[test]
fn gemm_full_stack() {
    let n = 4u64;
    let nn = (n * n) as usize;
    let a = workload::random_bounded(14, nn, 50);
    let b = workload::random_bounded(15, nn, 50);
    let expect = gemm::reference(n, &a, &b);

    let mut m = gemm::hir_gemm(n, 32);
    let rtl = run_rtl(
        &mut m,
        gemm::FUNC,
        &[
            HarnessArg::mem_from(&a),
            HarnessArg::mem_from(&b),
            HarnessArg::zero_mem(nn),
        ],
        50_000,
    );
    assert_eq!(rtl.mems[&2], expect, "RTL");
}

#[test]
fn conv_full_stack() {
    let (h, w) = (8u64, 8u64);
    let img = workload::random_bounded(16, (h * w) as usize, 256);
    let expect = conv::reference(h, w, &img);

    let mut m = conv::hir_conv(h, w, 32);
    let rtl = run_rtl(
        &mut m,
        conv::FUNC,
        &[
            HarnessArg::mem_from(&img),
            HarnessArg::zero_mem((h * w) as usize),
        ],
        50_000,
    );
    assert_eq!(rtl.mems[&1], expect, "RTL");
}

#[test]
fn fifo_full_stack() {
    let (depth, n) = (16u64, 32u64);
    let cmds = workload::random_fifo_commands(17, n as usize, depth as usize);
    let din: Vec<i128> = (0..n as i128).map(|x| x * 3 + 1).collect();
    let expect = fifo::reference(n, &cmds, &din);

    let mut m = fifo::hir_fifo(depth, n, 32);
    let rtl = run_rtl(
        &mut m,
        fifo::FUNC,
        &[
            HarnessArg::mem_from(&cmds),
            HarnessArg::mem_from(&din),
            HarnessArg::zero_mem(n as usize),
        ],
        50_000,
    );
    for (i, &want) in expect.iter().enumerate().take(n as usize) {
        if let Some(v) = want {
            assert_eq!(rtl.mems[&2][i], v, "dout[{i}]");
        }
    }
}

#[test]
fn hls_compiled_benchmarks_match_references_in_rtl() {
    // The HLS baseline's output is real RTL too: simulate the transpose.
    let n = 8u64;
    let nn = (n * n) as usize;
    let k = transpose::hls_transpose(n, false);
    let c = hir_suite::hls::compile(&k, &hir_suite::hls::SchedOptions::default()).expect("hls");
    let input = workload::random_i32s(18, nn);
    let expect = transpose::reference(n, &input);
    let f = kernels::find_func(&c.hir_module, "hls_transpose");
    let mut h = Harness::new(
        &c.design,
        &c.hir_module,
        f,
        &[HarnessArg::mem_from(&input), HarnessArg::zero_mem(nn)],
    )
    .expect("harness");
    let rtl = h.run(50_000).expect("RTL simulation");
    assert_eq!(rtl.mems[&1], expect);
}

#[test]
fn interpreter_and_rtl_latencies_agree_when_unoptimized() {
    // Latency agreement (within a small constant) across substrates.
    for (name, mut m, args) in [
        (
            "transpose",
            transpose::hir_transpose(8, 32),
            vec![
                HarnessArg::mem_from(&[1; 64].map(i128::from)),
                HarnessArg::zero_mem(64),
            ],
        ),
        (
            "stencil_1d",
            stencil::hir_stencil(32, 32),
            vec![
                HarnessArg::mem_from(&[2; 32].map(i128::from)),
                HarnessArg::zero_mem(32),
            ],
        ),
    ] {
        let interp_args: Vec<ArgValue> = args
            .iter()
            .map(|a| match a {
                HarnessArg::Mem(d) => ArgValue::Tensor(d.iter().map(|&v| Some(v)).collect()),
                HarnessArg::Int(v) => ArgValue::Int(*v),
                HarnessArg::SharedWith(i) => ArgValue::SharedWith(*i),
            })
            .collect();
        let i_report = Interpreter::new(&m)
            .run(name, &interp_args)
            .expect("interp");
        let (design, _) = kernels::compile_hir(&mut m, false).expect("compile");
        let f = kernels::find_func(&m, name);
        let mut h = Harness::new(&design, &m, f, &args).expect("harness");
        let rtl = h.run(50_000).expect("RTL");
        let diff = (rtl.cycles as i64 - i_report.cycles as i64).abs();
        assert!(
            diff <= 4,
            "{name}: RTL {} vs interp {}",
            rtl.cycles,
            i_report.cycles
        );
    }
}
