//! Per-lane agreement of the batched harness: with 16 lanes of different
//! stimuli, every lane of `Harness::new_batched` must reproduce its own
//! scalar `Harness::new` run bit for bit — scalar results, latency and
//! final memories. The designs make the lanes diverge: per-lane FIFO
//! commands enable different bus requests in different lanes, histogram
//! addresses depend on the data, a shared tensor port, a register-kind
//! argument and a per-lane scalar argument go through every harness path,
//! and a blackbox sends lanes down different guarded writers of one
//! register and one memory word in the same cycle.

use hir_codegen::testbench::{Harness, HarnessArg, HarnessReport};
use kernels::{fifo, histogram, workload};
use verilog::{Dir, Expr, LValue, Stmt, VModule};

const LANES: usize = 16;
const MAX_CYCLES: u64 = 50_000;

/// Compile `m` (plus the hand-written `blackboxes`), run `lane_args`
/// batched and each lane alone, and require equal reports. Returns the
/// batched reports.
fn assert_lanes_match_scalar_runs(
    what: &str,
    mut m: ir::Module,
    func: &str,
    blackboxes: Vec<VModule>,
    lane_args: &[Vec<HarnessArg>],
) -> Vec<HarnessReport> {
    let (mut design, _) = kernels::compile_hir(&mut m, true).expect("compile");
    for bb in blackboxes {
        design.add(bb);
    }
    let f = kernels::find_func(&m, func);
    let mut bh = Harness::new_batched(&design, &m, f, lane_args).expect("batched harness");
    assert_eq!(bh.lanes(), lane_args.len());
    let batched = bh.run_batched(MAX_CYCLES).expect("batched run");
    assert_eq!(batched.len(), lane_args.len());
    for (lane, args) in lane_args.iter().enumerate() {
        let mut h = Harness::new(&design, &m, f, args).expect("scalar harness");
        let scalar = h.run(MAX_CYCLES).expect("scalar run");
        assert_eq!(
            batched[lane].cycles, scalar.cycles,
            "{what} lane {lane}: latency"
        );
        assert_eq!(
            batched[lane].results, scalar.results,
            "{what} lane {lane}: results"
        );
        assert_eq!(
            batched[lane].mems, scalar.mems,
            "{what} lane {lane}: memories"
        );
    }
    batched
}

/// At least two lanes ended with different memories: the lanes really ran
/// different stimuli.
fn assert_lanes_differ(what: &str, reports: &[HarnessReport]) {
    assert!(
        reports.iter().any(|r| r.mems != reports[0].mems),
        "{what}: every lane ended identically; the stimuli do not diverge"
    );
}

#[test]
fn fifo_lanes_with_divergent_commands_match_scalar_runs() {
    let (depth, cmds) = (8u64, 24u64);
    let lane_args: Vec<Vec<HarnessArg>> = (0..LANES as u64)
        .map(|lane| {
            let c = workload::random_fifo_commands(100 + lane, cmds as usize, depth as usize);
            let din = workload::random_i32s(200 + lane, cmds as usize);
            vec![
                HarnessArg::Mem(c),
                HarnessArg::Mem(din),
                HarnessArg::zero_mem(cmds as usize),
            ]
        })
        .collect();
    let reports = assert_lanes_match_scalar_runs(
        "fifo",
        fifo::hir_fifo(depth, cmds, 32),
        fifo::FUNC,
        vec![],
        &lane_args,
    );
    assert_lanes_differ("fifo", &reports);
    for (lane, (rep, args)) in reports.iter().zip(&lane_args).enumerate() {
        let (HarnessArg::Mem(c), HarnessArg::Mem(din)) = (&args[0], &args[1]) else {
            unreachable!()
        };
        for (i, want) in fifo::reference(cmds, c, din).into_iter().enumerate() {
            if let Some(w) = want {
                assert_eq!(rep.mems[&2][i], w, "fifo lane {lane}: dout[{i}]");
            }
        }
    }
}

#[test]
fn histogram_lanes_with_data_dependent_addresses_match_scalar_runs() {
    let (pixels, bins) = (48u64, 8u64);
    let lane_args: Vec<Vec<HarnessArg>> = (0..LANES as u64)
        .map(|lane| {
            let img = workload::random_bounded(300 + lane, pixels as usize, bins as i128);
            vec![HarnessArg::Mem(img), HarnessArg::zero_mem(bins as usize)]
        })
        .collect();
    let reports = assert_lanes_match_scalar_runs(
        "histogram",
        histogram::hir_histogram(pixels, bins, 32),
        histogram::FUNC,
        vec![],
        &lane_args,
    );
    assert_lanes_differ("histogram", &reports);
    for (lane, (rep, args)) in reports.iter().zip(&lane_args).enumerate() {
        let HarnessArg::Mem(img) = &args[0] else {
            unreachable!()
        };
        assert_eq!(
            rep.mems[&1],
            histogram::reference(bins, img),
            "histogram lane {lane}"
        );
    }
}

/// Doubles a tensor in place through a read port and a write port onto it,
/// and returns a register-kind word plus a scalar argument.
const SHARED_SCALE: &str = r#"
hir.func @shared_scale at %t(
    %Ar : !hir.memref<8*i32, r, bram>,
    %Aw : !hir.memref<8*i32, w, bram>,
    %R : !hir.memref<[2]*i32, r, reg>,
    %k : i32) -> (i32 delay 1) {
  %c0 = hir.constant 0 : index
  %c1 = hir.constant 1 : index
  %c8 = hir.constant 8 : index
  %r0 = hir.mem_read %R[%c0] at %t offset 0 : i32
  %s = hir.add (%r0, %k) : (i32, i32) -> (i32)
  %res = hir.delay %s by 1 at %t offset 0 : i32
  %tf = hir.for %i : i32 = %c0 to %c8 step %c1 iter_time(%ti = %t offset 1) {
    hir.yield at %ti offset 2
    %v = hir.mem_read %Ar[%i] at %ti offset 0 : i32
    %v2 = hir.add (%v, %v) : (i32, i32) -> (i32)
    %i1 = hir.delay %i by 1 at %ti offset 0 : i32
    hir.mem_write %v2 to %Aw[%i1] at %ti offset 1
  }
  hir.return %res
}
"#;

#[test]
fn shared_port_reg_argument_and_scalar_lanes_match_scalar_runs() {
    let lane_args: Vec<Vec<HarnessArg>> = (0..LANES as u64)
        .map(|lane| {
            vec![
                HarnessArg::Mem(workload::random_bounded(400 + lane, 8, 1000)),
                HarnessArg::SharedWith(0),
                HarnessArg::Mem(workload::random_bounded(500 + lane, 2, 1000)),
                HarnessArg::Int(7 * lane as i128 - 50),
            ]
        })
        .collect();
    let m = hir::parse_pretty(SHARED_SCALE).expect("parse");
    let reports =
        assert_lanes_match_scalar_runs("shared_scale", m, "shared_scale", vec![], &lane_args);
    assert_lanes_differ("shared_scale", &reports);
    for (lane, (rep, args)) in reports.iter().zip(&lane_args).enumerate() {
        let (HarnessArg::Mem(a), HarnessArg::Mem(r), HarnessArg::Int(k)) =
            (&args[0], &args[2], &args[3])
        else {
            unreachable!()
        };
        assert_eq!(
            rep.results,
            vec![r[0] + k],
            "shared_scale lane {lane}: result"
        );
        let doubled: Vec<i128> = a.iter().map(|v| 2 * v).collect();
        assert_eq!(rep.mems[&0], doubled, "shared_scale lane {lane}: tensor");
    }
}

const PARITY_TOP: &str = r#"
hir.func extern @parity(i32) -> (i32 delay 1)

hir.func @parity_top at %t(%x : i32) -> (i32 delay 1) {
  %r = hir.call @parity(%x) at %t offset 0
  hir.return %r
}
"#;

/// The blackbox behind `@parity`: a register and a memory word that each
/// have two guarded writers. An odd input stores itself in both, an even
/// input stores the constants 7 and 5; the result is their sum.
fn parity_blackbox() -> VModule {
    let mut m = VModule::new("parity");
    m.port("clk", Dir::Input, 1);
    m.port("start", Dir::Input, 1);
    m.port("arg0", Dir::Input, 32);
    m.port("result0", Dir::Output, 32);
    m.reg("r", 32);
    m.memory("w", 32, 2, None);
    let word = || Expr::MemRead {
        mem: "w".into(),
        addr: Box::new(Expr::c(1, 1)),
    };
    m.assign("result0", Expr::add(Expr::r("r"), word()));
    let odd = Expr::Slice {
        base: Box::new(Expr::r("arg0")),
        hi: 0,
        lo: 0,
    };
    let set_r = |rhs| Stmt::NonBlocking {
        lhs: LValue::Net("r".into()),
        rhs,
    };
    let set_w = |rhs| Stmt::NonBlocking {
        lhs: LValue::MemElem {
            mem: "w".into(),
            addr: Expr::c(1, 1),
        },
        rhs,
    };
    let always = m.main_always();
    always.stmts.push(Stmt::If {
        cond: odd.clone(),
        then: vec![set_r(Expr::r("arg0"))],
        els: vec![set_r(Expr::c(7, 32))],
    });
    always.stmts.push(Stmt::If {
        cond: odd.clone(),
        then: vec![set_w(Expr::r("arg0"))],
        els: vec![],
    });
    always.stmts.push(Stmt::If {
        cond: Expr::not(odd),
        then: vec![set_w(Expr::c(5, 32))],
        els: vec![],
    });
    m
}

#[test]
fn blackbox_lanes_taking_different_writers_match_scalar_runs() {
    let lane_args: Vec<Vec<HarnessArg>> = (0..LANES as i128)
        .map(|lane| vec![HarnessArg::Int(3 * lane + 1)])
        .collect();
    let m = hir::parse_pretty(PARITY_TOP).expect("parse");
    let reports = assert_lanes_match_scalar_runs(
        "parity",
        m,
        "parity_top",
        vec![parity_blackbox()],
        &lane_args,
    );
    for (lane, rep) in reports.iter().enumerate() {
        let x = 3 * lane as i128 + 1;
        let want = if x % 2 == 1 { 2 * x } else { 7 + 5 };
        assert_eq!(rep.results, vec![want], "parity lane {lane}");
    }
}

#[test]
#[should_panic(expected = "runs only on the batched engine")]
fn multi_lane_harness_rejects_a_scalar_engine() {
    let mut m = histogram::hir_histogram(4, 4, 32);
    let (design, _) = kernels::compile_hir(&mut m, true).expect("compile");
    let f = kernels::find_func(&m, histogram::FUNC);
    let lane = vec![HarnessArg::Mem(vec![0, 1, 2, 3]), HarnessArg::zero_mem(4)];
    let mut h = Harness::new_batched(&design, &m, f, &[lane.clone(), lane]).expect("harness");
    h.set_engine(verilog::Engine::Bytecode);
}
