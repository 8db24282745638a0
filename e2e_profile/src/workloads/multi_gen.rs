//! Seeded multi-function modules for `compile_multi`.
//!
//! Module `index` holds `2 + index % 7` functions (2–8). A third of them
//! (rounded down) are paper kernels, renamed so names stay unique; the rest
//! are small scalar functions, each calling an earlier scalar function with
//! exactly as many arguments as that callee declares and adding a delayed
//! argument so the schedule balances. The first scalar callee is an external
//! `mult` blackbox.
//!
//! The seed picks where the kernels sit in the module, each scalar
//! function's arity and callee, and the blackbox latency. The function count
//! and which kernels appear depend only on the index, so the compile work
//! per module, and with it the request-latency percentiles, are the same at
//! every seed while the module's structure is not.

use ir::{Attribute, Module, SYM_NAME};

/// A scalar function the generator can call: name, arity, result delay.
struct Callee {
    name: String,
    arity: usize,
    delay: u64,
}

fn scalar_func(name: &str, arity: usize, callee: &Callee) -> String {
    let args: Vec<String> = (0..arity).map(|i| format!("%{i}: i32")).collect();
    let t = arity;
    let call_args: Vec<String> = (0..callee.arity)
        .map(|i| format!("%{}", i % arity))
        .collect();
    let call_types = vec!["i32"; callee.arity].join(", ");
    let names: Vec<String> = (0..arity).map(|i| format!("\"a{i}\"")).collect();
    let d = callee.delay;
    format!(
        "\"hir.func\"() ({{\n\
         ^bb({args}, %{t}: !hir.time):\n\
         \x20 %{c} = \"hir.call\"({call_args}, %{t}) {{callee = @{callee}, offset = 0 : index}} : ({call_types}, !hir.time) -> (i32)\n\
         \x20 %{dl} = \"hir.delay\"(%{last}, %{t}) {{by = {d} : index, offset = 0 : index}} : (i32, !hir.time) -> (i32)\n\
         \x20 %{s} = \"hir.add\"(%{c}, %{dl}) : (i32, i32) -> (i32)\n\
         \x20 \"hir.return\"(%{s}) : (i32) -> ()\n\
         }}) {{arg_names = [{names}], result_delays = [{d} : index], sym_name = \"{name}\"}} : () -> ()\n",
        args = args.join(", "),
        c = t + 1,
        dl = t + 2,
        s = t + 3,
        last = arity - 1,
        call_args = call_args.join(", "),
        callee = callee.name,
        names = names.join(", "),
    )
}

/// Module `index` for `seed`, as generic IR text.
///
/// # Panics
/// If the generated scalar functions fail to parse (a generator bug).
pub fn multi_module(seed: u64, index: usize) -> String {
    let n = 2 + index % 7;
    let draws = kernels::workload::random_bounded(seed, 1 + 3 * n, 1 << 20);
    let benches = kernels::compiled_benchmarks();

    // Kernel slots: the first n/3 entries of a seeded shuffle of 0..n.
    let mut slots: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        slots.swap(i, draws[1 + i] as usize % (i + 1));
    }
    let kernel_slots = &slots[..n / 3];

    let ext_delay = 1 + (draws[0] % 3) as u64;
    let mut callees = vec![Callee {
        name: "mult".into(),
        arity: 2,
        delay: ext_delay,
    }];
    let mut scalar = format!(
        "\"hir.func\"() {{arg_types = [i32, i32], external = unit, result_delays = [{ext_delay} : index], result_types = [i32], sym_name = \"mult\"}} : () -> ()\n"
    );
    let mut parts: Vec<Module> = Vec::new();
    let mut kernels_used = 0;
    for k in 0..n {
        if kernel_slots.contains(&k) {
            let b = &benches[(index + kernels_used) % benches.len()];
            kernels_used += 1;
            let mut m = (b.build_hir)();
            let top = m.top_ops()[0];
            m.set_attr(
                top,
                SYM_NAME,
                Attribute::string(format!("k{k}_{}", b.hir_func)),
            );
            parts.push(m);
        } else {
            let shape = draws[1 + n + 2 * k] as usize;
            let callee = &callees[shape % callees.len()];
            let arity = 2 + draws[2 + n + 2 * k] as usize % 2;
            let name = format!("s{k}");
            scalar.push_str(&scalar_func(&name, arity, callee));
            let delay = callee.delay;
            callees.push(Callee { name, arity, delay });
        }
    }
    let parsed = ir::parse_module_recover(&scalar, 0);
    assert!(
        parsed.errors.is_empty(),
        "generated scalar functions must parse: {}",
        parsed.errors[0].message
    );
    parts.push(parsed.module);
    ir::print_module(&Module::splice_top(&parts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;
    use crate::workloads::compile::{compile, CompileInput};

    #[test]
    fn same_seed_same_module() {
        assert_eq!(multi_module(5, 3), multi_module(5, 3));
        assert_ne!(multi_module(5, 3), multi_module(6, 3));
    }

    #[test]
    fn every_module_shape_compiles_end_to_end() {
        let registry = hir::hir_registry();
        for (seed, index) in (0..14u64).zip(0..14usize) {
            let input = CompileInput {
                label: format!("generated#{index}"),
                text: multi_module(seed, index),
                pretty: false,
                expect_error: None,
                threads: 2,
                seed_independent: false,
            };
            let out = compile(&input, &registry, &mut Tracer::off())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", input.text));
            assert!(out.is_some());
        }
    }
}
