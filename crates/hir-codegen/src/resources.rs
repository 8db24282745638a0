//! Hardware resource report (the observability counterpart of paper §6's
//! LUT/FF/BRAM evaluation tables): while Verilog is being generated, the
//! code generator tallies what the design will cost — registers, memory
//! ports by kind, arithmetic units, delay-line bits — and this module turns
//! the tallies into a machine-readable JSON report plus a human table for
//! `hirc --resource-report`.

use obs::json::{Json, Writer};
use obs::json_object;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How a unit's representative net translates to "the unit was active".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ActivityMode {
    /// Datapath unit: active in cycles where the net's value changed.
    Toggle,
    /// Control signal: active in cycles where the net was non-zero.
    High,
}

impl ActivityMode {
    /// Stable lower-case label (used in JSON and telemetry reports).
    pub fn label(self) -> &'static str {
        match self {
            ActivityMode::Toggle => "toggle",
            ActivityMode::High => "high",
        }
    }
}

/// A scheduled resource unit joined to the generated net that witnesses its
/// activity, so a simulation's telemetry counters can report dynamic
/// utilization per unit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnitNet {
    /// Unit label, matching the tally keys (`arith.add`, `delay`, `loop`,
    /// `instance`, `port.bram.read`, …).
    pub unit: String,
    /// Net name inside the generated module. Nets of the *top* simulated
    /// module keep their names through flattening, so these resolve
    /// directly in the simulator.
    pub net: String,
    pub mode: ActivityMode,
}

/// Resource tally for one generated function module.
///
/// Semantic counts (`arith`, `delay_lines`, `mem_ports`, …) are recorded at
/// the emission site that decides the hardware exists; structural counts
/// (`registers`, `memories`, `instances`) are read back from the finished
/// [`verilog::VModule`], so the two views cross-check each other.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FuncResources {
    /// HIR function name.
    pub function: String,
    /// Generated Verilog module name.
    pub module: String,
    /// Flip-flop nets (every `reg` declaration, including pulse chains).
    pub registers: u64,
    /// Total flip-flop bits.
    pub register_bits: u64,
    /// `hir.delay` shift registers actually emitted (constant and zero-cycle
    /// delays cost nothing and are not counted).
    pub delay_lines: u64,
    /// Total bits across all delay-line stages (`by × width` each).
    pub delay_line_bits: u64,
    /// 1-bit schedule pulse registers (the paper's pulse chains).
    pub pulse_regs: u64,
    /// `hir.for` loop controllers (counter + guard FSMs).
    pub loops: u64,
    /// Combinational arithmetic units by operator (`add`, `mult`, `cmp`, …).
    /// Constant-folded ops never reach hardware and are not counted.
    pub arith: BTreeMap<String, u64>,
    /// Memory port banks by `<mem-kind>.<direction>` (e.g. `bram.read`,
    /// `bram.rw` after port demotion). Counts banks, the unit a RAM
    /// primitive's port budget is spent in.
    pub mem_ports: BTreeMap<String, u64>,
    /// Inferred on-chip memory arrays (internal allocs × banks).
    pub memories: u64,
    /// Total bits across inferred memories.
    pub memory_bits: u64,
    /// Module instances (calls to other functions / external IP).
    pub instances: u64,
    /// Units joined to representative nets for dynamic utilization (one
    /// entry per emitted unit, in emission order).
    pub unit_nets: Vec<UnitNet>,
}

impl FuncResources {
    /// Fill the structural counts by scanning the finished module.
    pub(crate) fn finalize(&mut self, vm: &verilog::VModule) {
        self.module = vm.name.clone();
        self.registers = 0;
        self.register_bits = 0;
        for n in &vm.nets {
            if n.kind == verilog::NetKind::Reg {
                self.registers += 1;
                self.register_bits += u64::from(n.width);
            }
        }
        self.memories = vm.memories.len() as u64;
        self.memory_bits = vm
            .memories
            .iter()
            .map(|m| u64::from(m.width) * m.depth)
            .sum();
        self.instances = vm.instances.len() as u64;
    }
}

impl Json for FuncResources {
    fn write_json(&self, w: &mut Writer) {
        json_object!(w, {
            "function": self.function, "module": self.module,
            "registers": self.registers, "register_bits": self.register_bits,
            "delay_lines": self.delay_lines, "delay_line_bits": self.delay_line_bits,
            "pulse_regs": self.pulse_regs, "loops": self.loops,
            "memories": self.memories, "memory_bits": self.memory_bits,
            "instances": self.instances,
            "arith": {for (k, n) in &self.arith => k: n},
            "mem_ports": {for (k, n) in &self.mem_ports => k: n},
            "unit_nets": [for u in &self.unit_nets => {
                "unit": u.unit, "net": u.net, "mode": u.mode.label(),
            }],
        });
    }
}

/// Resource report for a whole design (one entry per generated module, in
/// module order — deterministic at any `--threads` value because codegen
/// walks `top_ops` serially).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResourceReport {
    pub functions: Vec<FuncResources>,
}

/// Strict JSON (newline-terminated as a report file), accepted by
/// `obs::json::parse`.
impl Json for ResourceReport {
    fn write_json(&self, w: &mut Writer) {
        json_object!(w, {"functions": self.functions});
    }
}

impl ResourceReport {
    /// Human-readable table for terminal output.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for f in &self.functions {
            let _ = writeln!(out, "fn @{}  (module {})", f.function, f.module);
            let _ = writeln!(
                out,
                "  registers    {:>8}  ({} bits, {} pulse regs)",
                f.registers, f.register_bits, f.pulse_regs
            );
            let _ = writeln!(
                out,
                "  delay lines  {:>8}  ({} bits)",
                f.delay_lines, f.delay_line_bits
            );
            let _ = writeln!(
                out,
                "  memories     {:>8}  ({} bits)",
                f.memories, f.memory_bits
            );
            let _ = writeln!(out, "  loops        {:>8}", f.loops);
            let _ = writeln!(out, "  instances    {:>8}", f.instances);
            for (k, v) in &f.arith {
                let _ = writeln!(out, "  arith.{k:<12} {v:>3}");
            }
            for (k, v) in &f.mem_ports {
                let _ = writeln!(out, "  port.{k:<13} {v:>3}");
            }
        }
        out
    }
}

/// Stable label for an arithmetic unit of the given compute kind.
pub(crate) fn kind_label(kind: hir::ops::ComputeKind) -> &'static str {
    use hir::ops::ComputeKind as K;
    match kind {
        K::Add => "add",
        K::Sub => "sub",
        K::Mult => "mult",
        K::And => "and",
        K::Or => "or",
        K::Xor => "xor",
        K::Not => "not",
        K::Shl => "shl",
        K::Shr => "shr",
        K::Cmp(_) => "cmp",
        K::Select => "select",
        // Pure wiring (no LUTs), but counted so the report is total.
        K::Trunc | K::Zext | K::Sext | K::Slice => "cast",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_strict_and_table_renders() {
        let mut f = FuncResources {
            function: "mac".into(),
            module: "hir_mac".into(),
            ..Default::default()
        };
        f.arith.insert("add".into(), 2);
        f.mem_ports.insert("bram.read".into(), 1);
        f.registers = 7;
        f.register_bits = 35;
        let report = ResourceReport { functions: vec![f] };
        let json = obs::json::document(&report);
        let v = obs::json::parse(&json).expect("strict parse");
        let funcs = v
            .get("functions")
            .and_then(|f| f.as_array())
            .expect("functions array");
        assert_eq!(funcs.len(), 1);
        assert_eq!(
            funcs[0].get("module").and_then(|m| m.as_str()),
            Some("hir_mac")
        );
        assert_eq!(
            funcs[0]
                .get("arith")
                .and_then(|a| a.get("add"))
                .and_then(|n| n.as_f64()),
            Some(2.0)
        );
        let table = report.table();
        assert!(table.contains("fn @mac"), "{table}");
        assert!(table.contains("port.bram.read"), "{table}");
    }
}
