//! Formal equivalence backend: translation validation for the HIR
//! optimization pipeline.
//!
//! The crate stacks five layers:
//!
//! 1. [`verilog::tsys`] (lives in the `verilog` crate) lowers a simulator
//!    bytecode tape into a word-level transition system with BTOR2 export.
//! 2. [`sat`] — a small in-house CDCL SAT solver (two watched literals,
//!    VSIDS-style activities, Luby restarts, assumptions, budgets).
//! 3. [`blast`] — Tseitin bit-blasting of bit-vector operations onto the
//!    solver, with global structural hashing, encoding only the cones that
//!    queries reach.
//! 4. [`term`] — hash-consed word-level terms with constant folding and a
//!    fixed rewrite set, so identical subterms across the two miter sides
//!    collapse to one term; only a queried term's cone is blasted.
//! 5. [`equiv`] — the miter: both designs unrolled K cycles ([`unroll`])
//!    under one shared symbolic environment, divergence queried per cycle
//!    unless it folds, SAT models replay-confirmed, budget exhaustion
//!    loudly degraded to a sampled differential.

pub mod blast;
pub mod equiv;
pub mod sat;
pub mod term;
pub mod unroll;

pub use equiv::{
    check_func_equivalence, check_module_equivalence, export_btor2, sampled_divergence,
    Counterexample, EquivError, EquivOptions, EquivStatus, FrameStats, FuncReport, SolverStats,
    StimulusArg,
};
pub use sat::{Budget, Lit, SatResult, Solver};
