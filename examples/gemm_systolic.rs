//! The GEMM multiplier grid (paper §7.3 and Table 5): nested `unroll_for`
//! builds an N×N array of processing elements, each multiplying and
//! accumulating every cycle, fed from banked buffers.
//!
//! Run with: `cargo run --release --example gemm_systolic`
//!
//! Pass `--vcd=PATH` to additionally run the generated RTL in the simulator
//! and dump a VCD waveform of the whole run (viewable in GTKWave).

use hir_suite::hir::interp::{ArgValue, Interpreter};
use hir_suite::kernels::gemm;

fn main() {
    let n = 8u64;
    let nn = (n * n) as usize;
    let a = hir_suite::kernels::workload::random_bounded(1, nn, 100);
    let b = hir_suite::kernels::workload::random_bounded(2, nn, 100);

    let module = gemm::hir_gemm(n, 32);
    let mut diags = hir_suite::ir::DiagnosticEngine::new();
    hir_suite::hir_verify::verify_schedule(&module, &mut diags).expect("verified");

    let r = Interpreter::new(&module)
        .run(
            gemm::FUNC,
            &[
                ArgValue::tensor_from(&a),
                ArgValue::tensor_from(&b),
                ArgValue::uninit_tensor(nn),
            ],
        )
        .expect("simulate");

    let expect = gemm::reference(n, &a, &b);
    for (i, &want) in expect.iter().enumerate().take(nn) {
        assert_eq!(r.tensors[&2][i], Some(want), "C[{i}]");
    }

    println!("{n}x{n} GEMM:");
    println!("  latency        : {} cycles", r.cycles);
    println!(
        "  load phase     : {} cycles (one element of A and B per cycle)",
        n * n
    );
    println!(
        "  compute phase  : {} cycles ({}x{} PEs run every cycle)",
        n, n, n
    );
    println!("  writeback      : {} cycles", n * n);
    let ideal = n * n + n + n * n;
    println!("  (ideal {ideal}; overhead is loop start/drain)");

    // Resource shape: one multiplier per PE; DSP count scales as N^2.
    let mut m2 = gemm::hir_gemm(n, 32);
    let (design, _) = hir_suite::kernels::compile_hir(&mut m2, true).expect("compile");
    let r = hir_suite::synth::estimate_design(
        &design,
        &hir_suite::kernels::hir_top(gemm::FUNC),
        &hir_suite::synth::CostModel::default(),
    );
    println!("\nestimated resources: {r}");
    println!(
        "(32x32-bit multiplies cost 3 DSP blocks each: {} PEs -> {} DSPs)",
        n * n,
        r.dsp
    );

    // Waveform dump: re-run the same workload through the RTL simulator.
    if let Some(path) =
        std::env::args().find_map(|arg| arg.strip_prefix("--vcd=").map(std::path::PathBuf::from))
    {
        use hir_suite::hir::types::MemrefInfo;
        use hir_suite::hir_codegen::testbench::to_bank_major;
        use hir_suite::hls::HarnessArg;
        let func = hir_suite::kernels::find_func(&m2, gemm::FUNC);
        let tys = func.arg_types(&m2);
        let mem = |data: &[i128], ty: &hir_suite::ir::Type| {
            let info = MemrefInfo::from_type(ty).expect("gemm args are memrefs");
            HarnessArg::Mem(to_bank_major(&info, data))
        };
        let sim = hir_suite::hls::simulate_with_vcd(
            &m2,
            &design,
            gemm::FUNC,
            &[
                mem(&a, &tys[0]),
                mem(&b, &tys[1]),
                mem(&vec![0; nn], &tys[2]),
            ],
            100_000,
            Some(&path),
        )
        .expect("RTL simulation");
        println!(
            "\nVCD waveform of the RTL run written to {} ({} cycles)",
            path.display(),
            sim.cycles
        );
    }
}
