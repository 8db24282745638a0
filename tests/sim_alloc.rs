//! Heap work of building, scheduling and dropping a GEMM N=16 simulator.
//!
//! A counting global allocator tallies allocations and frees per thread
//! (test threads share the process), so each count covers exactly the call
//! under test. The bounds pin the flat compiled program: expressions and
//! statements live in one arena, assign reads are collected once into CSR
//! tables, and each net or memory name is one allocation. The figures
//! before that layout are quoted in each message.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use verilog::{Design, Engine, Simulator};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
}

fn bump(c: &'static std::thread::LocalKey<Cell<u64>>) {
    let _ = c.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counters are
// const-initialised thread-locals without destructors.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&ALLOCS);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREES);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `(allocations, frees)` made by this thread so far.
fn counts() -> (u64, u64) {
    (ALLOCS.with(Cell::get), FREES.with(Cell::get))
}

fn gemm16() -> (Design, String) {
    let mut m = kernels::gemm::hir_gemm(16, 32);
    let (design, _) = kernels::compile_hir(&mut m, true).expect("gemm compiles");
    (design, kernels::hir_top(kernels::gemm::FUNC))
}

#[test]
fn gemm16_simulator_build_schedule_and_drop_stay_within_allocation_bounds() {
    let (design, top) = gemm16();

    let (a0, _) = counts();
    let mut sim = Simulator::new(&design, &top).expect("build");
    let (a1, _) = counts();
    sim.set_engine(Engine::Event);
    let (a2, f2) = counts();
    drop(sim);
    let (_, f3) = counts();

    let (build, schedule, frees) = (a1 - a0, a2 - a1, f3 - f2);
    assert!(
        build <= 3_000,
        "Simulator::new made {build} allocations (bound 3,000; \
         15,361 with a heap node per expression)"
    );
    assert!(
        schedule <= 5_000,
        "set_engine(Event) made {schedule} allocations (bound 5,000; \
         10,349 with per-net dependency lists)"
    );
    assert!(
        frees <= 3_000,
        "dropping the simulator made {frees} frees (bound 3,000; \
         12,637 with a heap node per expression)"
    );
}
