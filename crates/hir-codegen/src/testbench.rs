//! Simulation harness for generated designs.
//!
//! Drives a generated function module in the [`verilog::Simulator`]: pulses
//! `start`, applies scalar arguments, and models the memories behind the
//! module's memref argument buses (the role the testbench RAMs played in the
//! paper's evaluation flow). Functional results are compared elsewhere
//! against the HIR interpreter and software references.

use crate::resources::{ActivityMode, FuncResources};
use crate::{bus, module_name, CodegenError};
use hir::ops::FuncOp;
use hir::types::MemrefInfo;
use ir::Module;
use std::collections::HashMap;
use verilog::{Design, Simulator};

/// Default cycle bound for harness runs and for `hirc`'s `--sim-max-cycles`
/// flag: generous enough for every design in `examples/`, small enough that a
/// hung controller fails in well under a second of wall time.
pub const DEFAULT_SIM_MAX_CYCLES: u64 = 100_000;

/// An argument supplied to [`Harness::run`].
#[derive(Clone, Debug)]
pub enum HarnessArg {
    /// Scalar value driven on the argument port.
    Int(i128),
    /// Backing data for a memref argument (length = number of elements).
    Mem(Vec<i128>),
    /// Another port onto the tensor of a previous argument.
    SharedWith(usize),
}

impl HarnessArg {
    /// Convenience constructor from plain data.
    pub fn mem_from(data: &[i128]) -> Self {
        HarnessArg::Mem(data.to_vec())
    }

    /// A zero-initialized memory of the given size.
    pub fn zero_mem(len: usize) -> Self {
        HarnessArg::Mem(vec![0; len])
    }
}

/// Results of a harness run.
#[derive(Clone, Debug)]
pub struct HarnessReport {
    /// Cycle index of the last observed activity (≈ design latency).
    pub cycles: u64,
    /// Captured scalar results (at their `result{i}_valid` pulses).
    pub results: Vec<i128>,
    /// Final contents of each memref argument's backing memory.
    pub mems: HashMap<usize, Vec<i128>>,
}

/// Pre-resolved simulator net ids for one bank of a memref bus. `None`
/// where the bus direction does not exist.
#[derive(Clone, Copy, Default)]
struct BankNets {
    addr: Option<usize>,
    rd_en: Option<usize>,
    rd_data: Option<usize>,
    waddr: Option<usize>,
    wr_en: Option<usize>,
    wr_data: Option<usize>,
}

struct MemModel {
    arg_index: usize,
    /// Flat storage, one buffer per stimulus lane (a single entry for
    /// scalar harnesses): bank-major (`bank * bank_size + addr`).
    data: Vec<Vec<i128>>,
    shared_with: Option<usize>,
    /// Cached memref geometry so the per-cycle loops touch no `MemrefInfo`.
    bank_size: u64,
    elem_width: u32,
    read_latency: u32,
    can_read: bool,
    can_write: bool,
    /// One entry per bank, nets resolved to simulator ids at build time.
    bank_nets: Vec<BankNets>,
}

/// Runs a generated HIR function module under RTL simulation.
pub struct Harness {
    sim: Simulator,
    mems: Vec<MemModel>,
    /// (net id, per-lane values, width) per scalar argument port.
    scalar_ports: Vec<(usize, Vec<i128>, u32)>,
    /// (result net id, valid net id, width) per function result.
    result_ports: Vec<(usize, usize, u32)>,
    /// Pre-resolved activity-indicator net ids (no per-cycle name lookups).
    activity_ids: Vec<usize>,
    /// Number of batched stimulus lanes (1 for a scalar harness).
    lanes: usize,
    /// Bus requests of the current cycle (buffers reused across cycles).
    requests: Requests,
    /// Scratch lane row for pokes.
    row: Vec<u64>,
}

impl Harness {
    /// Build a harness for function `func` of the HIR module `m`, simulating
    /// `design` (which must contain the generated module plus any external
    /// blackbox implementations).
    ///
    /// # Errors
    /// Fails when the design does not elaborate or arguments mismatch.
    pub fn new(
        design: &Design,
        m: &Module,
        func: FuncOp,
        args: &[HarnessArg],
    ) -> Result<Self, CodegenError> {
        Self::build(design, m, func, std::slice::from_ref(&args))
    }

    /// Build a harness that simulates one stimulus set *per lane* in a single
    /// batched pass (`verilog::Engine::Batched`). Every lane must supply the
    /// same argument shapes (scalar vs memory, memory sizes, sharing); only
    /// the values differ. Lane 0's run is bit-identical to a scalar
    /// [`Harness::new`] run with the same arguments.
    ///
    /// # Errors
    /// Fails on elaboration errors, shape mismatches between lanes, or a
    /// lane count outside `1..=64`.
    pub fn new_batched(
        design: &Design,
        m: &Module,
        func: FuncOp,
        lane_args: &[Vec<HarnessArg>],
    ) -> Result<Self, CodegenError> {
        if lane_args.is_empty() || lane_args.len() > 64 {
            return Err(CodegenError(format!(
                "batched harness needs 1..=64 lanes, got {}",
                lane_args.len()
            )));
        }
        let views: Vec<&[HarnessArg]> = lane_args.iter().map(Vec::as_slice).collect();
        Self::build(design, m, func, &views)
    }

    fn build(
        design: &Design,
        m: &Module,
        func: FuncOp,
        lane_args: &[&[HarnessArg]],
    ) -> Result<Self, CodegenError> {
        let lanes = lane_args.len();
        let args = lane_args[0];
        let top = module_name(&func.name(m));
        let mut sim = Simulator::new(design, &top)
            .map_err(|e| CodegenError(format!("failed to build simulator: {e}")))?;
        let formal = func.args(m);
        if formal.len() != args.len() {
            return Err(CodegenError(format!(
                "function takes {} arguments, harness got {}",
                formal.len(),
                args.len()
            )));
        }
        let arg_names = func
            .arg_names(m)
            .unwrap_or_else(|| (0..formal.len()).map(|i| format!("arg{i}")).collect());

        // All net names are resolved to simulator ids here, once; the
        // per-cycle loops in `run` never format a name or clone a string.
        let nid = |name: &str| -> Result<usize, CodegenError> {
            sim.net_id(name)
                .ok_or_else(|| CodegenError(format!("net '{name}' not found in module {top}")))
        };

        let mut mems: Vec<MemModel> = Vec::new();
        let mut scalar_ports: Vec<(usize, Vec<i128>, u32)> = Vec::new();
        let mut scalar_arg_idx: Vec<usize> = Vec::new();
        let mut mem_index_by_arg: HashMap<usize, usize> = HashMap::new();
        for (i, (formal_v, actual)) in formal.iter().zip(args).enumerate() {
            let ty = m.value_type(*formal_v);
            let base: String = arg_names[i]
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect();
            // Empty (no data, unshared) model with the geometry cached and
            // every bus net resolved; the match arms below fill in storage.
            let build = |info: &MemrefInfo| -> Result<MemModel, CodegenError> {
                let banks = info.num_banks();
                let mut bank_nets = Vec::with_capacity(banks as usize);
                for b in 0..banks {
                    let mut bn = BankNets::default();
                    if info.port.can_read() {
                        bn.addr = Some(nid(&bus(&base, b, banks, "addr"))?);
                        bn.rd_en = Some(nid(&bus(&base, b, banks, "rd_en"))?);
                        bn.rd_data = Some(nid(&bus(&base, b, banks, "rd_data"))?);
                    }
                    if info.port.can_write() {
                        bn.waddr = Some(nid(&bus(&base, b, banks, "waddr"))?);
                        bn.wr_en = Some(nid(&bus(&base, b, banks, "wr_en"))?);
                        bn.wr_data = Some(nid(&bus(&base, b, banks, "wr_data"))?);
                    }
                    bank_nets.push(bn);
                }
                Ok(MemModel {
                    arg_index: i,
                    data: Vec::new(),
                    shared_with: None,
                    bank_size: info.bank_size(),
                    elem_width: info.elem.bit_width().unwrap_or(32),
                    read_latency: info.kind.read_latency(),
                    can_read: info.port.can_read(),
                    can_write: info.port.can_write(),
                    bank_nets,
                })
            };
            match (MemrefInfo::from_type(&ty), actual) {
                (Some(info), HarnessArg::Mem(data)) => {
                    if data.len() as u64 != info.num_elements() {
                        return Err(CodegenError(format!(
                            "argument {i}: memory has {} words, memref needs {}",
                            data.len(),
                            info.num_elements()
                        )));
                    }
                    let mut mm = build(&info)?;
                    mm.data = vec![data.clone()];
                    mem_index_by_arg.insert(i, mems.len());
                    mems.push(mm);
                }
                (Some(info), HarnessArg::SharedWith(j)) => {
                    let &target = mem_index_by_arg
                        .get(j)
                        .ok_or_else(|| CodegenError(format!("SharedWith({j}) is not a memory")))?;
                    let mut mm = build(&info)?;
                    mm.shared_with = Some(target);
                    mems.push(mm);
                }
                (None, HarnessArg::Int(v)) => {
                    let width = ty.bit_width().unwrap_or(32);
                    scalar_ports.push((nid(&base)?, vec![*v], width));
                    scalar_arg_idx.push(i);
                }
                _ => {
                    return Err(CodegenError(format!(
                        "argument {i}: kind mismatch between {ty} and {actual:?}"
                    )))
                }
            }
        }

        // Fold lanes 1.. into the lane-major storage, checking that every
        // lane drives the same argument shapes as lane 0.
        for (lane, &largs) in lane_args.iter().enumerate().skip(1) {
            if largs.len() != args.len() {
                return Err(CodegenError(format!(
                    "lane {lane} has {} arguments, lane 0 has {}",
                    largs.len(),
                    args.len()
                )));
            }
            for (i, (a0, al)) in args.iter().zip(largs).enumerate() {
                match (a0, al) {
                    (HarnessArg::Mem(d0), HarnessArg::Mem(dl)) => {
                        if dl.len() != d0.len() {
                            return Err(CodegenError(format!(
                                "lane {lane} argument {i}: memory has {} words, lane 0 has {}",
                                dl.len(),
                                d0.len()
                            )));
                        }
                        mems[mem_index_by_arg[&i]].data.push(dl.clone());
                    }
                    (HarnessArg::SharedWith(j0), HarnessArg::SharedWith(jl)) if j0 == jl => {}
                    (HarnessArg::Int(_), HarnessArg::Int(vl)) => {
                        let slot = scalar_arg_idx.iter().position(|&k| k == i).unwrap();
                        scalar_ports[slot].1.push(*vl);
                    }
                    _ => {
                        return Err(CodegenError(format!(
                            "lane {lane} argument {i}: kind differs from lane 0"
                        )))
                    }
                }
            }
        }
        let mut result_ports = Vec::new();
        for (i, rty) in func.result_types(m).iter().enumerate() {
            result_ports.push((
                nid(&format!("result{i}"))?,
                nid(&format!("result{i}_valid"))?,
                rty.bit_width().unwrap_or(32),
            ));
        }

        // Activity: every memref bus enable in either direction.
        let mut activity_ids = Vec::new();
        for mm in &mems {
            for bn in &mm.bank_nets {
                if let Some(id) = bn.rd_en {
                    activity_ids.push(id);
                }
                if let Some(id) = bn.wr_en {
                    activity_ids.push(id);
                }
            }
        }
        for &(_, valid, _) in &result_ports {
            activity_ids.push(valid);
        }
        // The design's own busy indicator covers internal-only phases.
        activity_ids.push(nid("busy")?);

        if lanes > 1 {
            sim.set_batch_lanes(lanes);
            sim.set_engine(verilog::Engine::Batched);
        }

        Ok(Harness {
            sim,
            mems,
            scalar_ports,
            result_ports,
            activity_ids,
            lanes,
            requests: Requests::default(),
            row: Vec::with_capacity(lanes),
        })
    }

    /// Number of batched stimulus lanes (1 for a scalar harness).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Select the simulator execution engine (bytecode by default; the
    /// tree-walk oracle is used for differential testing). The batched
    /// engine runs exactly the harness's stimulus lanes.
    ///
    /// # Panics
    /// Panics when a harness with more than one lane is given a scalar
    /// engine.
    pub fn set_engine(&mut self, engine: verilog::Engine) {
        assert!(
            self.lanes == 1 || engine == verilog::Engine::Batched,
            "a {}-lane harness runs only on the batched engine",
            self.lanes
        );
        if engine == verilog::Engine::Batched {
            self.sim.set_batch_lanes(self.lanes);
        }
        self.sim.set_engine(engine);
    }

    /// Borrow the underlying simulator (engine selection, tape statistics).
    pub fn sim(&self) -> &Simulator {
        &self.sim
    }

    /// Mutably borrow the underlying simulator (manual stepping, pokes).
    pub fn sim_mut(&mut self) -> &mut Simulator {
        &mut self.sim
    }

    /// Dump a VCD waveform of the whole run to `path`.
    ///
    /// # Errors
    /// Fails if the file cannot be created.
    pub fn dump_vcd(&mut self, path: &std::path::Path) -> Result<(), CodegenError> {
        let file = std::fs::File::create(path)
            .map_err(|e| CodegenError(format!("{}: {e}", path.display())))?;
        self.sim
            .start_vcd(Box::new(std::io::BufWriter::new(file)))
            .map_err(|e| CodegenError(format!("vcd: {e}")))
    }

    /// Run the design: one `start` pulse at cycle 0, then clock until the
    /// design is quiescent (no activity for a grace period) or `max_cycles`.
    /// On a batched harness this runs every lane and reports lane 0.
    ///
    /// # Errors
    /// Propagates RTL assertion failures; times out after `max_cycles`.
    pub fn run(&mut self, max_cycles: u64) -> Result<HarnessReport, CodegenError> {
        Ok(self.run_lanes(max_cycles)?.swap_remove(0))
    }

    /// Run every stimulus lane of a batched harness (see
    /// [`Harness::new_batched`]) in one bit-parallel pass and return one
    /// report per lane. All lanes share the clock; the run ends when *every*
    /// lane has been quiescent for the grace period. On a scalar harness
    /// this returns a single report, identical to [`Harness::run`].
    ///
    /// # Errors
    /// Same failure modes as [`Harness::run`]; an assertion failure in any
    /// lane aborts the whole batch.
    pub fn run_batched(&mut self, max_cycles: u64) -> Result<Vec<HarnessReport>, CodegenError> {
        self.run_lanes(max_cycles)
    }

    fn run_lanes(&mut self, max_cycles: u64) -> Result<Vec<HarnessReport>, CodegenError> {
        const QUIESCENT_GRACE: u64 = 8;
        let lanes = self.lanes;
        let all = mask(lanes as u32);
        // Belt and braces: arm the simulator's own watchdog too, so even a
        // future loop in this harness cannot spin past the caller's bound.
        self.sim.set_cycle_budget(Some(
            self.sim
                .cycle()
                .saturating_add(max_cycles)
                .saturating_add(1),
        ));
        for (id, vs, w) in &self.scalar_ports {
            self.row.clear();
            self.row.extend(vs.iter().map(|&v| (v as u64) & mask(*w)));
            self.sim.poke_row(*id, all, &self.row);
        }
        self.sim.set("start", 1);

        let mut results: Vec<Vec<Option<i128>>> = vec![vec![None; self.result_ports.len()]; lanes];
        let mut last_activity: Vec<u64> = vec![0; lanes];
        let mut last_any: u64 = 0;
        let mut cycle: u64 = 0;
        loop {
            // Serve memories combinationally-visible state for this cycle.
            self.serve_reads_pre();
            // Observe activity + capture results before the edge.
            let mut active = 0u64;
            for &id in &self.activity_ids {
                active |= nonzero_lanes(self.sim.lane_row(id));
            }
            for (i, &(port, valid, w)) in self.result_ports.iter().enumerate() {
                let valid = nonzero_lanes(self.sim.lane_row(valid));
                let row = self.sim.lane_row(port);
                for lane in lanes_of(valid) {
                    results[lane][i] = Some(sign(row[lane], w));
                }
                active |= valid;
            }
            if active != 0 {
                for lane in lanes_of(active) {
                    last_activity[lane] = cycle;
                }
                last_any = cycle;
            }
            // Sample bus requests, clock, then apply them (sync RAM).
            self.sample_requests();
            self.sim
                .step()
                .map_err(|e| CodegenError(format!("RTL assertion failed: {e}")))?;
            self.apply_requests();
            if cycle == 0 {
                self.sim.set("start", 0);
            }
            cycle += 1;
            if cycle > max_cycles {
                return Err(CodegenError(format!(
                    "simulation did not quiesce within {max_cycles} cycles"
                )));
            }
            if cycle > last_any + QUIESCENT_GRACE && cycle > 2 {
                break;
            }
        }

        let mut reports = Vec::with_capacity(lanes);
        for (lane, res) in results.into_iter().enumerate() {
            let mut mems_out = HashMap::new();
            for mm in &self.mems {
                if mm.shared_with.is_none() {
                    mems_out.insert(mm.arg_index, mm.data[lane].clone());
                }
            }
            reports.push(HarnessReport {
                cycles: last_activity[lane],
                results: res.into_iter().map(|r| r.unwrap_or(0)).collect(),
                mems: mems_out,
            });
        }
        Ok(reports)
    }

    /// For zero-latency (register-kind) argument memories, the read data must
    /// be visible combinationally in the same cycle. One poke per bank
    /// serves every lane; banks are served in order, each seeing the design
    /// settled after the previous one's read data.
    fn serve_reads_pre(&mut self) {
        let all = mask(self.lanes as u32);
        for (i, mm) in self.mems.iter().enumerate() {
            if mm.read_latency != 0 || !mm.can_read {
                continue;
            }
            let store = &self.mems[mm.shared_with.unwrap_or(i)].data;
            for (b, bn) in mm.bank_nets.iter().enumerate() {
                let (Some(addr_id), Some(rd_data_id)) = (bn.addr, bn.rd_data) else {
                    continue;
                };
                let base = b as u64 * mm.bank_size;
                let addrs = self.sim.lane_row(addr_id);
                self.row.clear();
                for (&addr, data) in addrs.iter().zip(store) {
                    let v = data.get((base + addr) as usize).copied().unwrap_or(0);
                    self.row.push(v as u64);
                }
                self.sim.poke_row(rd_data_id, all, &self.row);
            }
        }
    }

    /// Capture all bus requests during the current cycle: one request per
    /// enabled bank, carrying the mask of the lanes that enable it.
    fn sample_requests(&mut self) {
        let rq = &mut self.requests;
        rq.reads.clear();
        rq.writes.clear();
        rq.vals.clear();
        for (mem, mm) in self.mems.iter().enumerate() {
            for (bank, bn) in mm.bank_nets.iter().enumerate() {
                if mm.can_read && mm.read_latency > 0 {
                    if let (Some(en_id), Some(addr_id)) = (bn.rd_en, bn.addr) {
                        let lanes = nonzero_lanes(self.sim.lane_row(en_id));
                        if lanes != 0 {
                            let at = rq.vals.len();
                            rq.reads.push(Request {
                                mem,
                                bank,
                                lanes,
                                at,
                            });
                            rq.vals.extend_from_slice(self.sim.lane_row(addr_id));
                        }
                    }
                }
                if mm.can_write {
                    if let (Some(en_id), Some(waddr_id), Some(data_id)) =
                        (bn.wr_en, bn.waddr, bn.wr_data)
                    {
                        let lanes = nonzero_lanes(self.sim.lane_row(en_id));
                        if lanes != 0 {
                            let at = rq.vals.len();
                            rq.writes.push(Request {
                                mem,
                                bank,
                                lanes,
                                at,
                            });
                            rq.vals.extend_from_slice(self.sim.lane_row(waddr_id));
                            rq.vals.extend_from_slice(self.sim.lane_row(data_id));
                        }
                    }
                }
            }
        }
    }

    /// Apply the requests after the clock edge (synchronous RAM semantics).
    /// Reads are served before writes land, so a same-cycle read at a
    /// written address returns the old value (read-first RAM).
    fn apply_requests(&mut self) {
        let l = self.lanes;
        let rq = &self.requests;
        for r in &rq.reads {
            let mm = &self.mems[r.mem];
            let Some(rd_data_id) = mm.bank_nets[r.bank].rd_data else {
                continue;
            };
            let store = &self.mems[mm.shared_with.unwrap_or(r.mem)].data;
            let addrs = &rq.vals[r.at..r.at + l];
            let base = r.bank as u64 * mm.bank_size;
            self.row.resize(l, 0);
            for lane in lanes_of(r.lanes) {
                let v = store[lane]
                    .get((base + addrs[lane]) as usize)
                    .copied()
                    .unwrap_or(0);
                self.row[lane] = (v as u64) & mask(mm.elem_width);
            }
            self.sim.poke_row(rd_data_id, r.lanes, &self.row);
        }
        for r in &rq.writes {
            let mm = &self.mems[r.mem];
            let (base, w) = (r.bank as u64 * mm.bank_size, mm.elem_width);
            let store = mm.shared_with.unwrap_or(r.mem);
            let (addrs, data) = rq.vals[r.at..r.at + 2 * l].split_at(l);
            for lane in lanes_of(r.lanes) {
                let idx = (base + addrs[lane]) as usize;
                if let Some(slot) = self.mems[store].data[lane].get_mut(idx) {
                    *slot = sign(data[lane] & mask(w), w);
                }
            }
        }
    }

    // ---------------------------------------------------------- telemetry

    /// Turn on the simulator's telemetry plane (call before [`run`]). With
    /// `record_trace`, per-cone busy/quiescent intervals are kept for
    /// [`telemetry_trace`].
    ///
    /// [`run`]: Self::run
    /// [`telemetry_trace`]: Self::telemetry_trace
    pub fn enable_telemetry(&mut self, record_trace: bool) {
        self.sim.enable_telemetry(record_trace);
    }

    /// Snapshot the telemetry counters. When the function's static
    /// [`FuncResources`] are given, its unit→net map is joined with the
    /// measured counters into per-unit dynamic utilization (`units`).
    pub fn telemetry_report(
        &self,
        resources: Option<&FuncResources>,
    ) -> Option<verilog::TelemetryReport> {
        let mut report = self.sim.telemetry_report()?;
        if let Some(res) = resources {
            let by_name: HashMap<&str, (u64, u64)> = report
                .nets
                .iter()
                .map(|n| (n.name.as_str(), (n.toggle_cycles, n.high_cycles)))
                .collect();
            let mut units = Vec::new();
            for un in &res.unit_nets {
                // Units whose nets were optimized away (or belong to a
                // different module) are skipped, not zero-filled.
                if let Some(&(toggles, highs)) = by_name.get(un.net.as_str()) {
                    units.push(verilog::UnitActivity {
                        unit: un.unit.clone(),
                        net: un.net.clone(),
                        mode: un.mode.label().to_string(),
                        active_cycles: match un.mode {
                            ActivityMode::Toggle => toggles,
                            ActivityMode::High => highs,
                        },
                    });
                }
            }
            report.units = units;
        }
        Some(report)
    }

    /// Chrome-trace JSON of per-cone busy/quiescent periods (see
    /// [`verilog::Simulator::telemetry_trace`]).
    pub fn telemetry_trace(&self) -> Option<String> {
        self.sim.telemetry_trace()
    }

    /// Turn on the simulator's scheduler-statistics plane (call before
    /// [`run`]). A pure observer: results, VCD, and telemetry are unchanged.
    ///
    /// [`run`]: Self::run
    pub fn enable_sched_stats(&mut self) {
        self.sim.enable_sched_stats();
    }

    /// Snapshot the scheduler statistics (see
    /// [`verilog::Simulator::sched_stats_report`]).
    pub fn sched_stats_report(&self) -> Option<verilog::SchedStatsReport> {
        self.sim.sched_stats_report()
    }
}

/// Bus requests sampled before a clock edge and applied after it.
#[derive(Default)]
struct Requests {
    reads: Vec<Request>,
    writes: Vec<Request>,
    /// Lane rows of the requests' operands: a read owns `lanes` addresses
    /// at its `at`, a write `lanes` addresses then `lanes` data words.
    vals: Vec<u64>,
}

/// One bank's request: the lanes that enabled it and where its operand
/// rows start in [`Requests::vals`].
struct Request {
    mem: usize,
    bank: usize,
    lanes: u64,
    at: usize,
}

/// The lanes of a lane row holding a non-zero value.
fn nonzero_lanes(row: &[u64]) -> u64 {
    row.iter()
        .enumerate()
        .fold(0, |m, (k, &v)| m | (u64::from(v != 0) << k))
}

/// The lanes set in `lanes`, lowest first.
fn lanes_of(mut lanes: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (lanes != 0).then(|| {
            let k = lanes.trailing_zeros() as usize;
            lanes &= lanes - 1;
            k
        })
    })
}

fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

fn sign(v: u64, width: u32) -> i128 {
    if width >= 64 {
        return v as i64 as i128;
    }
    let s = 1u64 << (width - 1);
    if v & s != 0 {
        v as i128 - (1i128 << width)
    } else {
        v as i128
    }
}

/// Flat storage helper: convert a row-major tensor into the bank-major
/// layout the harness memories use, given the memref description.
pub fn to_bank_major(info: &MemrefInfo, row_major: &[i128]) -> Vec<i128> {
    let mut out = vec![0; row_major.len()];
    let dims: Vec<u64> = info.dims.iter().map(|d| d.size()).collect();
    for (flat_rm, &v) in row_major.iter().enumerate() {
        // Decompose row-major index into coordinates.
        let mut rem = flat_rm as u64;
        let mut coords = vec![0u64; dims.len()];
        for (k, &d) in dims.iter().enumerate().rev() {
            coords[k] = rem % d;
            rem /= d;
        }
        out[info.flat_index(&coords) as usize] = v;
    }
    out
}

/// Inverse of [`to_bank_major`].
pub fn from_bank_major(info: &MemrefInfo, bank_major: &[i128]) -> Vec<i128> {
    let mut out = vec![0; bank_major.len()];
    let dims: Vec<u64> = info.dims.iter().map(|d| d.size()).collect();
    for (flat_rm, slot) in out.iter_mut().enumerate() {
        let mut rem = flat_rm as u64;
        let mut coords = vec![0u64; dims.len()];
        for (k, &d) in dims.iter().enumerate().rev() {
            coords[k] = rem % d;
            rem /= d;
        }
        *slot = bank_major[info.flat_index(&coords) as usize];
    }
    out
}
