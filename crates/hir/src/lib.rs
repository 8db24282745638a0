//! # `hir` — an explicitly scheduled hardware IR (the paper's contribution)
//!
//! HIR (Majumder & Bondhugula, ASPLOS 2023) is an MLIR dialect for describing
//! FPGA accelerators at a level between HDLs and HLS: the *algorithm* is
//! written with high-level constructs (loops, multidimensional memrefs,
//! function calls) while the *schedule* — the clock cycle at which every
//! operation executes — is explicit, expressed through **time variables** and
//! static offsets. The compiler generates the controllers; the programmer
//! (or DSL frontend) keeps full control of pipelining, initiation intervals
//! and resource binding.
//!
//! This crate provides:
//!
//! * the dialect definition ([`dialect`]) over the [`ir`] infrastructure,
//! * the HIR type system ([`types`]): `!hir.time`, `!hir.const` and banked
//!   `!hir.memref`s,
//! * typed op wrappers ([`ops`]) and an ergonomic construction API
//!   ([`HirBuilder`]),
//! * a paper-style pretty printer ([`pretty`]),
//! * the integer meaning of every compute op ([`semantics`]), shared by the
//!   interpreter, the constant folder and the code generator,
//! * and a **cycle-accurate interpreter** ([`interp`]) that executes designs
//!   with pipelined loop overlap and detects the undefined behaviours of
//!   paper §4.5 at runtime.
//!
//! Schedule *verification* (paper §6.1) lives in the `hir-verify` crate,
//! optimizations (§6.2–6.4) in `hir-opt`, and Verilog code generation (§4.6)
//! in `hir-codegen`.

pub mod builder;
pub mod decl;
pub mod dialect;
pub mod interp;
pub mod ops;
pub mod parse;
pub mod pretty;
pub mod semantics;
pub mod types;

pub use builder::HirBuilder;
pub use dialect::{attrkey, hir_dialect, hir_registry, opname, CmpPredicate};
pub use interp::{ArgValue, ExternalModel, InterpOptions, Interpreter, SimError, SimReport, Val};
pub use parse::{parse_pretty, parse_pretty_recover, PrettyParseError, RecoveredPretty};
pub use pretty::{pretty_func, pretty_module, pretty_op};
pub use types::{Dim, MemKind, MemrefInfo, Port};
