//! `Simulator::new` compiles an instance-free top module in place instead
//! of through a flattened copy. These tests pin that it builds exactly what
//! `Simulator::from_flat(&flatten(..))` builds, on every kernel design and
//! every checked-in example, and that the compacted register file stays
//! small.

use verilog::{flatten, to_btor2, tsys, Design, Simulator};

/// Every kernel design, compiled the way the benchmarks compile them.
fn kernel_designs() -> Vec<(String, Design)> {
    let mut hir: Vec<(ir::Module, &str)> = kernels::compiled_benchmarks()
        .into_iter()
        .map(|b| ((b.build_hir)(), b.hir_func))
        .collect();
    hir.push((kernels::fifo::hir_fifo(16, 8, 32), kernels::fifo::FUNC));
    hir.push((
        kernels::fir::hir_fir(16, &[1, -2, 3], 32),
        kernels::fir::FUNC,
    ));
    let mut out: Vec<(String, Design)> = hir
        .into_iter()
        .map(|(mut m, func)| {
            let (design, _) = kernels::compile_hir(&mut m, true).expect("kernel compiles");
            (kernels::hir_top(func), design)
        })
        .collect();
    let mut fifo = Design::new();
    let baseline = kernels::fifo::verilog_fifo(16, 32);
    let top = baseline.name.clone();
    fifo.add(baseline);
    out.push((top, fifo));
    out
}

/// Every `examples/*.mlir`, with behavioral stubs for external callees as
/// `hirc --emit=sim` adds them; every module of the result is a top.
fn example_designs() -> Vec<(String, Design)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("examples/")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "mlir"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no examples found");
    let mut out = Vec::new();
    for path in paths {
        let src = std::fs::read_to_string(&path).expect("read example");
        let module = ir::parse_module(&src).expect("example parses");
        let mut design =
            hir_codegen::generate_design(&module, &hir_codegen::CodegenOptions::default())
                .expect("example compiles");
        for stub in hir_codegen::extern_stubs(&module).expect("stubs") {
            design.add(stub);
        }
        for m in &design.modules {
            out.push((m.name.clone(), design.clone()));
        }
    }
    out
}

fn assert_builds_like_flat_copy(top: &str, design: &Design) {
    let direct = Simulator::new(design, top).expect("build");
    let flat = flatten(design, top).expect("flatten");
    let via_flat = Simulator::from_flat(&flat).expect("build from flat copy");
    assert_eq!(
        format!("{direct:?}"),
        format!("{via_flat:?}"),
        "{top}: compiled program differs"
    );
    // BTOR2 of the design against BTOR2 of a design holding only the flat
    // copy (an instance-free top, so lowered from the copy itself).
    let mut flat_only = Design::new();
    flat_only.add(flat);
    match (tsys::lower(design, top), tsys::lower(&flat_only, top)) {
        (Ok(a), Ok(b)) => assert_eq!(to_btor2(&a), to_btor2(&b), "{top}: BTOR2 differs"),
        (Err(a), Err(b)) => assert_eq!(a, b, "{top}: lowering errors differ"),
        (a, b) => panic!(
            "{top}: lowering outcome differs: {:?} vs {:?}",
            a.err(),
            b.err()
        ),
    }
}

#[test]
fn simulator_new_builds_what_the_flatten_path_builds() {
    let mut with_instances = 0;
    for (top, design) in kernel_designs().into_iter().chain(example_designs()) {
        if !design.find(&top).expect("top").instances.is_empty() {
            with_instances += 1;
        }
        assert_builds_like_flat_copy(&top, &design);
    }
    // The mac example calls an external multiplier: its top keeps taking
    // the flatten path.
    assert!(with_instances > 0, "no design with instances was checked");
}

#[test]
fn gemm16_register_file_is_compacted() {
    let mut m = kernels::gemm::hir_gemm(16, 32);
    let (design, _) = kernels::compile_hir(&mut m, true).expect("gemm compiles");
    let sim = Simulator::new(&design, &kernels::hir_top(kernels::gemm::FUNC)).expect("build");
    let (_, settle, _, step, regs) = sim.tape_stats();
    assert_eq!((settle, step), (3153, 7735), "tape sizes moved");
    assert!(regs <= 4000, "GEMM N=16 uses {regs} registers");
}
