//! RT generation: signal-flow graph → register transfers on a datapath.
//!
//! # Delay-line model
//!
//! All tapped signals live in one data RAM as circular regions of a common
//! power-of-two length `M` (the deepest tap + 1, rounded up), each aligned
//! to a multiple of `M`. A single *frame pointer* `fp` (register 0 of the
//! ACU's base register file) decrements once per frame:
//! `fp ← (fp + M−1) mod M` — itself an ordinary `addmod`.
//!
//! An access to signal `s` uses a combined immediate `V = base(s) + k`
//! (`k` = tap depth, `0` for the frame's write); the ACU computes
//!
//! ```text
//! addr = (V & !(M−1)) | ((fp + V) & (M−1))
//! ```
//!
//! so the value written at frame `t` is found at tap depth `k` in frame
//! `t+k` — no per-signal pointers, one ACU operation per RAM access plus
//! one per frame, matching the resource mix of the paper's audio core
//! (ACU one busier than RAM, figure 9).

use std::collections::BTreeMap;
use std::fmt;

use dspcc_arch::{Datapath, OpuKind};
use dspcc_dfg::{Dfg, DfgOp, NodeId};
use dspcc_ir::{Program, RegRef, Resource, Rt, RtId, Usage, UsageId, ValueId};

/// Virtual register indices start here; smaller indices are pre-colored
/// physical registers (the frame pointer). Register allocation (in
/// `dspcc-encode`) maps virtual indices to physical ones after scheduling.
pub const VIRTUAL_BASE: u32 = 1 << 20;

/// Options for [`lower`].
#[derive(Debug, Clone)]
pub struct LowerOptions {
    /// Merge constant fetches (ROM and program constants) with identical
    /// values into one RT with multiple destinations. Keeps the
    /// program-constant unit occupation at (not above) the ACU's.
    pub cse_constants: bool,
}

impl Default for LowerOptions {
    fn default() -> Self {
        LowerOptions {
            cse_constants: true,
        }
    }
}

/// An immediate carried by a constant-producing RT, resolved to bits at
/// encode time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Immediate {
    /// Raw integer word (ACU address offsets).
    Raw(i64),
    /// Fixed-point value, converted via the core's word format.
    Fixed(f64),
    /// Address into the coefficient ROM.
    RomAddr(u32),
}

/// Placement of the tapped signals in data RAM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RamLayout {
    /// Common circular-region length `M` (power of two).
    pub region_size: u32,
    /// Base address per signal index (`u32::MAX` for untapped signals).
    pub bases: Vec<u32>,
    /// Words used.
    pub total_words: u32,
}

/// The result of RT generation.
#[derive(Debug, Clone)]
pub struct Lowering {
    /// The RT program.
    pub program: Program,
    /// Ordering constraints invisible to value flow:
    /// `(from, to, min_separation)`.
    pub sequence_edges: Vec<(RtId, RtId, u32)>,
    /// Loop-carried dependences `(from, to, distance)` for loop folding.
    pub loop_edges: Vec<(RtId, RtId, u32)>,
    /// RAM placement of the delay lines.
    pub ram_layout: RamLayout,
    /// Coefficient ROM image (values by address), to be fixed-point
    /// converted at encode time.
    pub rom_image: Vec<f64>,
    /// Immediates per constant-producing RT.
    pub immediates: BTreeMap<RtId, Immediate>,
    /// Output writes in emission order: `(output OPU name, DFG port)` —
    /// the contract between the simulator's output stream and the
    /// reference interpreter's port order.
    pub output_order: Vec<(String, usize)>,
    /// Input reads per input OPU in issue order: `(input OPU name, DFG
    /// port)` — tells the simulator which sample each read consumes.
    pub input_order: Vec<(String, usize)>,
    /// The pinned frame-pointer register `(register file, index)`.
    pub fp_reg: (String, u32),
}

/// An IO order: `(OPU name, DFG port)` pairs in issue order.
pub type IoOrder = Vec<(String, usize)>;

impl Lowering {
    /// Clones the IO orders — the microcode's contract with the simulator.
    ///
    /// The staged pipeline shares one immutable `Lowering` across many
    /// schedule/encode variants (`Arc`-held stage artifacts), so the
    /// encoder copies these two small vectors instead of `mem::take`ing
    /// them out of a uniquely-owned lowering.
    pub fn io_orders(&self) -> (IoOrder, IoOrder) {
        (self.output_order.clone(), self.input_order.clone())
    }
}

/// RT-generation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum LowerError {
    /// No OPU supports the operation.
    NoOpuFor(String),
    /// The datapath lacks a unit kind the program needs (e.g. taps without
    /// an ACU or RAM), or a unit lacks the output bus or input register
    /// file the program uses (e.g. a RAM with no address input).
    MissingUnit(&'static str),
    /// A value cannot be routed into any input register file of the
    /// operation's OPU, even via one pass-through.
    NoRoute {
        /// The value's diagnostic name.
        value: String,
        /// The operation needing it.
        op: String,
        /// The register file it must reach.
        rf: String,
    },
    /// The delay lines do not fit the RAM.
    RamOverflow {
        /// Words required.
        needed: u32,
        /// Words available.
        available: u32,
    },
    /// A coefficient address lies beyond the ROM image.
    ///
    /// Caught at RT generation rather than encode time: the address field
    /// is `ceil(log2(size))` bits wide, so an address can fit the *field*
    /// while still lying past the *image* — executing it would read
    /// outside the ROM (found by the conformance fleet on generated cores
    /// with small ROMs).
    RomOverflow {
        /// Words required (highest fetched address + 1).
        needed: u32,
        /// Words available.
        available: u32,
    },
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::NoOpuFor(op) => write!(f, "no OPU supports operation `{op}`"),
            LowerError::MissingUnit(kind) => write!(f, "datapath has no {kind} unit"),
            LowerError::NoRoute { value, op, rf } => write!(
                f,
                "value `{value}` cannot be routed into `{rf}` for `{op}` \
                 (no bus path, and no pass-through found)"
            ),
            LowerError::RamOverflow { needed, available } => {
                write!(
                    f,
                    "delay lines need {needed} RAM words, only {available} available"
                )
            }
            LowerError::RomOverflow { needed, available } => {
                write!(
                    f,
                    "coefficients need {needed} ROM words, only {available} available"
                )
            }
        }
    }
}

impl std::error::Error for LowerError {}

/// Lowers a signal-flow graph onto a datapath.
///
/// # Errors
///
/// Returns [`LowerError`] when the datapath cannot host the program; the
/// error is the feedback that drives the source/architecture iteration of
/// figure 1.
pub fn lower(dfg: &Dfg, dp: &Datapath, opts: &LowerOptions) -> Result<Lowering, LowerError> {
    Ctx::new(dfg, dp, opts)?.run()
}

/// One planned RT, recorded before destinations are known. Units and
/// register files are positions in `Datapath::opus()` and
/// `Datapath::register_files()`; the name is the only string a plan
/// carries, because the RT keeps it.
#[derive(Debug)]
struct Plan {
    name: String,
    opu: usize,
    op: &'static str,
    /// Value operands with the register file each is read from; a `None`
    /// value is the pinned fp register.
    operands: Vec<(Option<ValueId>, usize)>,
    def: Option<ValueId>,
    immediate: Option<Immediate>,
    /// For output writes: the DFG port.
    output_port: Option<usize>,
    /// Pre-colored destination `(register file, index)`: the fp update
    /// writes a physical register.
    physical_dest: Option<(usize, u32)>,
}

/// Interned symbols of one OPU: resource, buffer, output bus, the
/// positions of its input register files, and its `pass(<bus>)`
/// multiplexer usage once an RT needs it.
struct OpuSyms {
    res: Resource,
    buf: Resource,
    bus: Option<Resource>,
    inputs: Vec<usize>,
    pass_usage: Option<UsageId>,
}

/// Interned symbols of one register file.
struct RfSyms {
    res: Resource,
    wp: Resource,
    mux: Option<Resource>,
    write_buses: Vec<Resource>,
}

/// The per-datapath symbol tables, indexed by position in the datapath:
/// every resource name is interned once at the lowering boundary, and the
/// usages that depend on the program (operation tokens, multiplexer
/// inputs) are interned on first use.
struct SymCache {
    write_token: UsageId,
    opus: Vec<OpuSyms>,
    rfs: Vec<RfSyms>,
    /// `Usage::Token(op)` per operation emitted so far.
    tokens: Vec<(&'static str, UsageId)>,
    /// Units by kind, in declaration order.
    input_opus: Vec<usize>,
    output_opus: Vec<usize>,
    /// The first ROM and program-constant unit that supports `const`.
    rom: Option<usize>,
    prog_const: Option<usize>,
}

impl SymCache {
    fn build(dp: &Datapath) -> SymCache {
        let rf_position = |name: &str| {
            dp.register_files()
                .iter()
                .position(|rf| rf.name() == name)
                .expect("the builder checks that every input register file exists")
        };
        let const_unit = |kind: OpuKind| {
            dp.opus()
                .iter()
                .position(|o| o.kind() == kind && o.supports("const"))
        };
        let of_kind = |kind: OpuKind| -> Vec<usize> {
            (0..dp.opus().len())
                .filter(|&i| dp.opus()[i].kind() == kind)
                .collect()
        };
        SymCache {
            write_token: UsageId::of(&Usage::token("write")),
            opus: dp
                .opus()
                .iter()
                .map(|opu| OpuSyms {
                    res: Resource::new(opu.name()),
                    buf: Resource::new(&Datapath::buffer_name(opu.name())),
                    bus: opu.output_bus().map(Resource::new),
                    inputs: opu.inputs().iter().map(|rf| rf_position(rf)).collect(),
                    pass_usage: None,
                })
                .collect(),
            rfs: dp
                .register_files()
                .iter()
                .map(|rf| RfSyms {
                    res: Resource::new(rf.name()),
                    wp: Resource::new(&Datapath::wp_name(rf.name())),
                    mux: rf
                        .has_mux()
                        .then(|| Resource::new(&Datapath::mux_name(rf.name()))),
                    write_buses: rf.write_buses().iter().map(|b| Resource::new(b)).collect(),
                })
                .collect(),
            tokens: Vec::new(),
            input_opus: of_kind(OpuKind::Input),
            output_opus: of_kind(OpuKind::Output),
            rom: const_unit(OpuKind::Rom),
            prog_const: const_unit(OpuKind::ProgConst),
        }
    }

    fn token(&mut self, op: &'static str) -> UsageId {
        if let Some(&(_, id)) = self.tokens.iter().find(|(o, _)| *o == op) {
            return id;
        }
        let id = UsageId::of(&Usage::token(op));
        self.tokens.push((op, id));
        id
    }

    /// Claims the write port of `rf`, and its multiplexer input for the
    /// bus of `opu` when the file has a multiplexer.
    fn dest_usage(&mut self, rt: &mut Rt, rf: usize, opu: usize, tag: &str) {
        let RfSyms { wp, mux, .. } = self.rfs[rf];
        if let Some(mux) = mux {
            let syms = &mut self.opus[opu];
            let bus = syms.bus.expect("mux write implies a bus");
            let pass = *syms
                .pass_usage
                .get_or_insert_with(|| UsageId::of(&Usage::apply("pass", [bus.name()])));
            rt.add_usage_id(mux, pass);
        }
        rt.add_usage_id(wp, UsageId::of_apply1("write", tag));
    }
}

/// The delay-line units, resolved when the program taps a signal: the
/// ACU and RAM, and the ACU's base (frame pointer) and offset register
/// files.
#[derive(Clone, Copy)]
struct DelayUnits {
    acu: usize,
    ram: usize,
    fp_rf: usize,
    off_rf: usize,
}

struct Ctx<'a> {
    dfg: &'a Dfg,
    dp: &'a Datapath,
    opts: &'a LowerOptions,
    syms: SymCache,
    program: Program,
    plans: Vec<Plan>,
    /// value → producing bus (dense by value id; None: not yet produced /
    /// no bus).
    value_bus: Vec<Option<Resource>>,
    /// value → register files it must be written into (dense by value id).
    demand: Vec<Vec<usize>>,
    /// Writes routed into each register file so far — balanced across
    /// alternative operand ports, since every write port is a 1-per-cycle
    /// resource.
    wp_load: Vec<usize>,
    /// RTs planned per OPU so far (the load-balancing key of
    /// `compute_node`), maintained incrementally instead of recounting
    /// all plans per node.
    opu_load: Vec<usize>,
    /// DFG node → value carrying its result.
    node_value: Vec<Option<ValueId>>,
    layout: RamLayout,
    rom_image: Vec<f64>,
    /// CSE tables.
    const_cache: BTreeMap<u64, usize>,
    coeff_cache: BTreeMap<u32, usize>,
    /// plan index → rt id is the identity; bookkeeping for edges, per
    /// unit name (name order sequences the edges and the input order).
    input_reads: BTreeMap<&'a str, Vec<usize>>,
    output_writes: BTreeMap<&'a str, Vec<usize>>,
    fp_readers: Vec<usize>,
    /// per signal: (write plan index, Vec<(tap read plan, depth)>).
    signal_writes: BTreeMap<usize, usize>,
    signal_taps: BTreeMap<usize, Vec<(usize, u32)>>,
    output_order: Vec<(String, usize)>,
    delay: Option<DelayUnits>,
}

impl<'a> Ctx<'a> {
    fn new(dfg: &'a Dfg, dp: &'a Datapath, opts: &'a LowerOptions) -> Result<Self, LowerError> {
        let syms = SymCache::build(dp);
        let needs_ram = dfg.signals().iter().any(|s| s.max_tap_depth > 0);
        let (delay, layout) = if needs_ram {
            let acu = dp
                .opus()
                .iter()
                .position(|o| o.kind() == OpuKind::Acu && o.supports("addmod"))
                .ok_or(LowerError::MissingUnit("ACU (addmod)"))?;
            let ram = dp
                .opus()
                .iter()
                .position(|o| o.kind() == OpuKind::Ram)
                .ok_or(LowerError::MissingUnit("RAM"))?;
            let acu_inputs = &syms.opus[acu].inputs;
            if acu_inputs.len() < 2 {
                return Err(LowerError::MissingUnit("ACU with base+offset inputs"));
            }
            let max_depth = dfg
                .signals()
                .iter()
                .map(|s| s.max_tap_depth)
                .max()
                .unwrap_or(0);
            let region = (max_depth + 1).next_power_of_two();
            let mut bases = Vec::new();
            let mut next = 0u32;
            for s in dfg.signals() {
                if s.max_tap_depth > 0 {
                    bases.push(next);
                    next += region;
                } else {
                    bases.push(u32::MAX);
                }
            }
            let ram_size = dp.opus()[ram].memory_size();
            if next > ram_size {
                return Err(LowerError::RamOverflow {
                    needed: next,
                    available: ram_size,
                });
            }
            (
                Some(DelayUnits {
                    acu,
                    ram,
                    fp_rf: acu_inputs[0],
                    off_rf: acu_inputs[1],
                }),
                RamLayout {
                    region_size: region,
                    bases,
                    total_words: next,
                },
            )
        } else {
            (
                None,
                RamLayout {
                    region_size: 1,
                    bases: vec![u32::MAX; dfg.signals().len()],
                    total_words: 0,
                },
            )
        };
        Ok(Ctx {
            dfg,
            dp,
            opts,
            program: Program::new(),
            plans: Vec::new(),
            value_bus: Vec::new(),
            demand: Vec::new(),
            wp_load: vec![0; syms.rfs.len()],
            opu_load: vec![0; syms.opus.len()],
            syms,
            node_value: vec![None; dfg.nodes().len()],
            layout,
            rom_image: dfg.coeffs().iter().map(|(_, v)| *v).collect(),
            const_cache: BTreeMap::new(),
            coeff_cache: BTreeMap::new(),
            input_reads: BTreeMap::new(),
            output_writes: BTreeMap::new(),
            fp_readers: Vec::new(),
            signal_writes: BTreeMap::new(),
            signal_taps: BTreeMap::new(),
            output_order: Vec::new(),
            delay,
        })
    }

    /// The delay-line units; only RAM accesses ask, and those exist only
    /// for tapped signals, which resolved the units in [`Ctx::new`].
    fn delay_units(&self) -> DelayUnits {
        self.delay
            .expect("tapped signals resolve the delay-line units")
    }

    fn run(mut self) -> Result<Lowering, LowerError> {
        let dfg = self.dfg;
        for id in dfg.node_ids() {
            self.node(id)?;
        }
        // Inputs referenced only through taps (`u@2` with no bare `u`)
        // still consume one sample per frame into their delay line.
        for (port, name) in dfg.input_ports().iter().enumerate() {
            let signal = dfg
                .signals()
                .iter()
                .position(|s| &s.name == name)
                .expect("inputs are signals");
            if dfg.signals()[signal].max_tap_depth > 0 && !self.signal_writes.contains_key(&signal)
            {
                let inputs = &self.syms.input_opus;
                if inputs.is_empty() {
                    return Err(LowerError::MissingUnit("input port (IPB)"));
                }
                let opu = inputs[port % inputs.len()];
                let value = self.program.add_value(name.as_str());
                let bus = self.syms.opus[opu]
                    .bus
                    .ok_or(LowerError::MissingUnit("input port with an output bus"))?;
                self.set_bus(value, bus);
                let idx = self.plan(Plan {
                    name: format!("in_{name}"),
                    opu,
                    op: "read",
                    operands: Vec::new(),
                    def: Some(value),
                    immediate: None,
                    output_port: Some(port),
                    physical_dest: None,
                });
                self.input_reads
                    .entry(self.dp.opus()[opu].name())
                    .or_default()
                    .push(idx);
                let write = self.ram_access(signal, 0, Some(value), None)?;
                self.signal_writes.insert(signal, write);
            }
        }
        // Reads on one physical input port happen in port order (samples
        // interleave on the wire); sort before chaining sequence edges.
        for reads in self.input_reads.values_mut() {
            let plans = &self.plans;
            reads.sort_by_key(|&i| plans[i].output_port.unwrap_or(0));
        }
        // Frame-pointer update, once per frame, after all address
        // computations of the frame (enforced by zero-separation edges).
        let fp_update = if !self.fp_readers.is_empty() {
            let units = self.delay_units();
            let m = self.layout.region_size as i64;
            let off = self.constant(Immediate::Raw(m - 1), "fp_step")?;
            self.route(off, units.off_rf, "addmod")?;
            Some(self.plan(Plan {
                name: "fp_update".to_owned(),
                opu: units.acu,
                op: "addmod",
                operands: vec![(None, units.fp_rf), (Some(off), units.off_rf)],
                def: None,
                immediate: None,
                output_port: None,
                physical_dest: Some((units.fp_rf, 0)),
            }))
        } else {
            None
        };

        // Edges.
        let mut sequence_edges = Vec::new();
        for reads in self.input_reads.values() {
            for w in reads.windows(2) {
                sequence_edges.push((RtId(w[0] as u32), RtId(w[1] as u32), 1));
            }
        }
        for writes in self.output_writes.values() {
            for w in writes.windows(2) {
                sequence_edges.push((RtId(w[0] as u32), RtId(w[1] as u32), 1));
            }
        }
        let mut loop_edges = Vec::new();
        if let Some(fp) = fp_update {
            for &reader in &self.fp_readers {
                if reader != fp {
                    sequence_edges.push((RtId(reader as u32), RtId(fp as u32), 0));
                    loop_edges.push((RtId(fp as u32), RtId(reader as u32), 1));
                }
            }
        }
        for (&signal, &write) in &self.signal_writes {
            if let Some(taps) = self.signal_taps.get(&signal) {
                for &(read, depth) in taps {
                    loop_edges.push((RtId(write as u32), RtId(read as u32), depth));
                }
            }
        }

        let fp_reg = match self.delay {
            Some(units) => (self.dp.register_files()[units.fp_rf].name().to_owned(), 0),
            None => (String::new(), 0),
        };
        let input_order: Vec<(String, usize)> = self
            .input_reads
            .iter()
            .flat_map(|(opu, reads)| {
                reads
                    .iter()
                    .map(|&i| ((*opu).to_owned(), self.plans[i].output_port.unwrap_or(0)))
                    .collect::<Vec<_>>()
            })
            .collect();
        let immediates = self
            .plans
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.immediate.map(|imm| (RtId(i as u32), imm)))
            .collect();

        // Materialise the RTs.
        for plan in std::mem::take(&mut self.plans) {
            let rt = self.emit(plan);
            self.program.add_rt(rt);
        }
        Ok(Lowering {
            program: self.program,
            sequence_edges,
            loop_edges,
            ram_layout: self.layout,
            rom_image: self.rom_image,
            immediates,
            output_order: self.output_order,
            input_order,
            fp_reg,
        })
    }

    fn plan(&mut self, plan: Plan) -> usize {
        self.opu_load[plan.opu] += 1;
        self.plans.push(plan);
        self.plans.len() - 1
    }

    /// Records the bus that produces `value` (dense by value id).
    fn set_bus(&mut self, value: ValueId, bus: Resource) {
        let i = value.0 as usize;
        if self.value_bus.len() <= i {
            self.value_bus.resize(i + 1, None);
        }
        self.value_bus[i] = Some(bus);
    }

    /// The bus producing `value`, if recorded.
    fn bus_of(&self, value: ValueId) -> Option<Resource> {
        self.value_bus.get(value.0 as usize).copied().flatten()
    }

    /// The register files `value` must be written into (dense by value id).
    fn demand_mut(&mut self, value: ValueId) -> &mut Vec<usize> {
        let i = value.0 as usize;
        if self.demand.len() <= i {
            self.demand.resize_with(i + 1, Vec::new);
        }
        &mut self.demand[i]
    }

    fn value_for(&mut self, node: NodeId) -> ValueId {
        match self.node_value[node.0 as usize] {
            Some(v) => v,
            None => {
                let dfg = self.dfg;
                let v = self.program.add_value(dfg.node(node).name.as_str());
                self.node_value[node.0 as usize] = Some(v);
                v
            }
        }
    }

    /// Whether `value` can be written into `rf` (a bus path exists), with
    /// no side effects.
    fn can_route(&self, value: ValueId, rf: usize) -> bool {
        match self.bus_of(value) {
            Some(bus) => self.syms.rfs[rf].write_buses.contains(&bus),
            None => false,
        }
    }

    /// Whether `value` is already demanded into `rf` (a free re-read).
    fn already_routed(&self, value: ValueId, rf: usize) -> bool {
        self.demand
            .get(value.0 as usize)
            .is_some_and(|rfs| rfs.contains(&rf))
    }

    fn no_route(&self, value: ValueId, rf: usize, op: &str) -> LowerError {
        LowerError::NoRoute {
            value: self.program.value(value).name().to_owned(),
            op: op.to_owned(),
            rf: self.dp.register_files()[rf].name().to_owned(),
        }
    }

    /// Records that `value` must be written into `rf`; checks the bus
    /// path exists.
    fn route(&mut self, value: ValueId, rf: usize, op: &str) -> Result<(), LowerError> {
        if !self.can_route(value, rf) {
            return Err(self.no_route(value, rf, op));
        }
        let rfs = self.demand_mut(value);
        if !rfs.contains(&rf) {
            rfs.push(rf);
            self.wp_load[rf] += 1;
        }
        Ok(())
    }

    /// Routes `value` into `rf`, inserting a single pass-through RT when
    /// there is no direct bus path.
    fn route_or_pass(
        &mut self,
        value: ValueId,
        rf: usize,
        op: &str,
    ) -> Result<ValueId, LowerError> {
        if self.route(value, rf, op).is_ok() {
            return Ok(value);
        }
        // Find a pass-capable OPU bridging the producer's bus to `rf`.
        let bus = self.bus_of(value);
        for (opu, spec) in self.dp.opus().iter().enumerate() {
            let syms = &self.syms.opus[opu];
            let (Some(&in_rf), Some(out_bus)) = (syms.inputs.first(), syms.bus) else {
                continue;
            };
            if !spec.supports("pass") {
                continue;
            }
            if bus.is_some_and(|b| self.syms.rfs[in_rf].write_buses.contains(&b))
                && self.syms.rfs[rf].write_buses.contains(&out_bus)
            {
                // value → (pass) → bridged.
                self.route(value, in_rf, "pass")?;
                let name = format!("route_{}", self.program.value(value).name());
                let bridged = self.program.add_value(name.as_str());
                self.plan(Plan {
                    name,
                    opu,
                    op: "pass",
                    operands: vec![(Some(value), in_rf)],
                    def: Some(bridged),
                    immediate: None,
                    output_port: None,
                    physical_dest: None,
                });
                self.set_bus(bridged, out_bus);
                self.route(bridged, rf, op)?;
                return Ok(bridged);
            }
        }
        Err(self.no_route(value, rf, op))
    }

    /// Emits (or reuses, under CSE) a constant-producing RT and returns
    /// its value.
    fn constant(&mut self, imm: Immediate, name: &str) -> Result<ValueId, LowerError> {
        let cache_key: Option<u64> = match imm {
            Immediate::Raw(v) => Some(v as u64),
            Immediate::Fixed(v) => Some(v.to_bits() ^ 0x8000_0000_0000_0000),
            Immediate::RomAddr(_) => None,
        };
        if self.opts.cse_constants {
            if let Some(key) = cache_key {
                if let Some(&plan_idx) = self.const_cache.get(&key) {
                    return Ok(self.plans[plan_idx].def.expect("const defines"));
                }
            }
            if let Immediate::RomAddr(a) = imm {
                if let Some(&plan_idx) = self.coeff_cache.get(&a) {
                    return Ok(self.plans[plan_idx].def.expect("const defines"));
                }
            }
        }
        let (unit, missing, missing_bus) = match imm {
            Immediate::RomAddr(_) => (
                self.syms.rom,
                "coefficient ROM",
                "coefficient ROM with an output bus",
            ),
            _ => (
                self.syms.prog_const,
                "program-constant unit",
                "program-constant unit with an output bus",
            ),
        };
        let opu = unit.ok_or(LowerError::MissingUnit(missing))?;
        if let Immediate::RomAddr(a) = imm {
            let available = self.dp.opus()[opu].memory_size();
            if a >= available {
                return Err(LowerError::RomOverflow {
                    needed: a + 1,
                    available,
                });
            }
        }
        let value = self.program.add_value(name);
        let bus = self.syms.opus[opu]
            .bus
            .ok_or(LowerError::MissingUnit(missing_bus))?;
        self.set_bus(value, bus);
        let idx = self.plan(Plan {
            name: name.to_owned(),
            opu,
            op: "const",
            operands: Vec::new(),
            def: Some(value),
            immediate: Some(imm),
            output_port: None,
            physical_dest: None,
        });
        if self.opts.cse_constants {
            if let Some(key) = cache_key {
                self.const_cache.insert(key, idx);
            }
            if let Immediate::RomAddr(a) = imm {
                self.coeff_cache.insert(a, idx);
            }
        }
        Ok(value)
    }

    /// Emits the ACU addmod + RAM access pair for signal `signal` at tap
    /// `depth` (0 = this frame's write). Returns the RAM-access plan index
    /// (a read defines `read_value`).
    fn ram_access(
        &mut self,
        signal: usize,
        depth: u32,
        write_data: Option<ValueId>,
        read_value: Option<ValueId>,
    ) -> Result<usize, LowerError> {
        let units = self.delay_units();
        let base = self.layout.bases[signal];
        debug_assert_ne!(base, u32::MAX, "untapped signal has no RAM region");
        let v = base as i64 + depth as i64;
        let dfg = self.dfg;
        let sig_name = &dfg.signals()[signal].name;
        let off = self.constant(Immediate::Raw(v), &format!("addr_{sig_name}_{depth}"))?;
        self.route(off, units.off_rf, "addmod")?;
        let addr = self.program.add_value(format!("a_{sig_name}_{depth}"));
        let acu_bus = self.syms.opus[units.acu]
            .bus
            .ok_or(LowerError::MissingUnit("ACU with an output bus"))?;
        self.set_bus(addr, acu_bus);
        let addmod = self.plan(Plan {
            name: format!("addmod_{sig_name}@{depth}"),
            opu: units.acu,
            op: "addmod",
            operands: vec![(None, units.fp_rf), (Some(off), units.off_rf)],
            def: Some(addr),
            immediate: None,
            output_port: None,
            physical_dest: None,
        });
        self.fp_readers.push(addmod);
        // Address into the RAM's address register file (port 0).
        let ram_inputs = &self.syms.opus[units.ram].inputs;
        let addr_rf = *ram_inputs
            .first()
            .ok_or(LowerError::MissingUnit("RAM with an address input"))?;
        let data_rf = ram_inputs.get(1).copied();
        self.route(addr, addr_rf, "ram address")?;
        let access = if let Some(data) = write_data {
            let data_rf = data_rf.ok_or(LowerError::MissingUnit("RAM with a write-data input"))?;
            let data = self.route_or_pass(data, data_rf, "ram write")?;
            self.plan(Plan {
                name: format!("st_{sig_name}"),
                opu: units.ram,
                op: "write",
                operands: vec![(Some(addr), addr_rf), (Some(data), data_rf)],
                def: None,
                immediate: None,
                output_port: None,
                physical_dest: None,
            })
        } else {
            let value = read_value.expect("read access defines a value");
            let bus = self.syms.opus[units.ram]
                .bus
                .ok_or(LowerError::MissingUnit("RAM with an output bus"))?;
            self.set_bus(value, bus);
            self.plan(Plan {
                name: format!("ld_{sig_name}@{depth}"),
                opu: units.ram,
                op: "read",
                operands: vec![(Some(addr), addr_rf)],
                def: Some(value),
                immediate: None,
                output_port: None,
                physical_dest: None,
            })
        };
        Ok(access)
    }

    fn node(&mut self, id: NodeId) -> Result<(), LowerError> {
        let dfg = self.dfg;
        let node = dfg.node(id);
        match node.op {
            DfgOp::Input { port } => {
                let inputs = &self.syms.input_opus;
                if inputs.is_empty() {
                    return Err(LowerError::MissingUnit("input port (IPB)"));
                }
                let opu = inputs[port % inputs.len()];
                let value = self.value_for(id);
                let bus = self.syms.opus[opu]
                    .bus
                    .ok_or(LowerError::MissingUnit("input port with an output bus"))?;
                self.set_bus(value, bus);
                let idx = self.plan(Plan {
                    name: format!("in_{}", node.name),
                    opu,
                    op: "read",
                    operands: Vec::new(),
                    def: Some(value),
                    immediate: None,
                    output_port: Some(port),
                    physical_dest: None,
                });
                self.input_reads
                    .entry(self.dp.opus()[opu].name())
                    .or_default()
                    .push(idx);
                // Tapped inputs are also stored into their delay line.
                self.store_signal_if_tapped_by_port(port, value)?;
            }
            DfgOp::Tap { signal, depth } => {
                let value = self.value_for(id);
                let read = self.ram_access(signal, depth, None, Some(value))?;
                self.signal_taps
                    .entry(signal)
                    .or_default()
                    .push((read, depth));
            }
            DfgOp::Coeff { index } => {
                let v = self.constant(Immediate::RomAddr(index as u32), &node.name)?;
                self.node_value[id.0 as usize] = Some(v);
            }
            DfgOp::ProgConst { value } => {
                let v = self.constant(Immediate::Fixed(value), &node.name)?;
                self.node_value[id.0 as usize] = Some(v);
            }
            DfgOp::Mlt
            | DfgOp::Add
            | DfgOp::AddClip
            | DfgOp::Sub
            | DfgOp::Pass
            | DfgOp::PassClip => {
                self.compute_node(id, node)?;
            }
            DfgOp::Output { port } => {
                let outputs = &self.syms.output_opus;
                if outputs.is_empty() {
                    return Err(LowerError::MissingUnit("output port (OPB)"));
                }
                let opu = outputs[port % outputs.len()];
                let rf = *self.syms.opus[opu]
                    .inputs
                    .first()
                    .ok_or(LowerError::MissingUnit("output port with an input RF"))?;
                let src = self.node_value[node.inputs[0].0 as usize].expect("operand lowered");
                let src = self.route_or_pass(src, rf, "output")?;
                let idx = self.plan(Plan {
                    name: format!("out_{}", node.name),
                    opu,
                    op: "write",
                    operands: vec![(Some(src), rf)],
                    def: None,
                    immediate: None,
                    output_port: Some(port),
                    physical_dest: None,
                });
                let opu_name = self.dp.opus()[opu].name();
                self.output_writes.entry(opu_name).or_default().push(idx);
                self.output_order.push((opu_name.to_owned(), port));
            }
            DfgOp::SignalWrite { signal } => {
                if dfg.signals()[signal].max_tap_depth == 0 {
                    return Ok(()); // dead state: nothing ever reads it
                }
                let data = self.node_value[node.inputs[0].0 as usize].expect("operand lowered");
                let write = self.ram_access(signal, 0, Some(data), None)?;
                self.signal_writes.insert(signal, write);
            }
        }
        Ok(())
    }

    /// Stores an input sample into its delay line when the input is
    /// tapped.
    fn store_signal_if_tapped_by_port(
        &mut self,
        port: usize,
        value: ValueId,
    ) -> Result<(), LowerError> {
        let dfg = self.dfg;
        let name = &dfg.input_ports()[port];
        let signal = dfg
            .signals()
            .iter()
            .position(|s| &s.name == name)
            .expect("inputs are signals");
        if dfg.signals()[signal].max_tap_depth > 0 {
            let write = self.ram_access(signal, 0, Some(value), None)?;
            self.signal_writes.insert(signal, write);
        }
        Ok(())
    }

    fn compute_node(&mut self, id: NodeId, node: &dspcc_dfg::DfgNode) -> Result<(), LowerError> {
        let op = match node.op {
            DfgOp::Mlt => "mult",
            DfgOp::Add => "add",
            DfgOp::AddClip => "add_clip",
            DfgOp::Sub => "sub",
            DfgOp::Pass => "pass",
            DfgOp::PassClip => "pass_clip",
            _ => unreachable!("compute_node called on non-compute op"),
        };
        let commutative = matches!(node.op, DfgOp::Mlt | DfgOp::Add);
        let operand_values: Vec<ValueId> = node
            .inputs
            .iter()
            .map(|n| self.node_value[n.0 as usize].expect("operand lowered first"))
            .collect();

        let candidates: Vec<usize> = (0..self.dp.opus().len())
            .filter(|&i| {
                let syms = &self.syms.opus[i];
                self.dp.opus()[i].supports(op)
                    && syms.inputs.len() >= operand_values.len()
                    && syms.bus.is_some()
            })
            .collect();
        if candidates.is_empty() {
            return Err(LowerError::NoOpuFor(op.to_owned()));
        }
        // Prefer the least-loaded feasible candidate (the per-OPU load is
        // maintained incrementally as plans are created; the stable sort
        // keeps declaration order among equals).
        let mut ordered = candidates.clone();
        ordered.sort_by_key(|&i| self.opu_load[i]);

        let orders: Vec<Vec<usize>> = if operand_values.len() == 2 && commutative {
            vec![vec![0, 1], vec![1, 0]]
        } else {
            vec![(0..operand_values.len()).collect()]
        };
        for opu in ordered {
            let inputs = &self.syms.opus[opu].inputs;
            // Among routable port assignments, prefer the one that adds
            // the least load to the busiest write port it touches:
            // write ports are 1-per-cycle resources, so imbalance turns
            // directly into schedule length.
            let mut best: Option<(usize, &Vec<usize>)> = None;
            for order in &orders {
                let mut routable = true;
                let mut cost = 0usize;
                for (port_idx, &operand_idx) in order.iter().enumerate() {
                    let v = operand_values[operand_idx];
                    let rf = inputs[port_idx];
                    if !self.can_route(v, rf) {
                        routable = false;
                        break;
                    }
                    if !self.already_routed(v, rf) {
                        cost = cost.max(self.wp_load[rf] + 1);
                    }
                }
                if routable && best.map(|(c, _)| cost < c).unwrap_or(true) {
                    best = Some((cost, order));
                }
            }
            if let Some((_, order)) = best {
                let mut by_source: Vec<(Option<ValueId>, usize)> = vec![(None, 0); order.len()];
                for (port_idx, &operand_idx) in order.iter().enumerate() {
                    let v = operand_values[operand_idx];
                    let rf = self.syms.opus[opu].inputs[port_idx];
                    self.route(v, rf, op).expect("checked routable");
                    by_source[operand_idx] = (Some(v), rf);
                }
                self.plan_compute(id, node, opu, op, by_source);
                return Ok(());
            }
        }
        // Direct routing failed everywhere: retry first candidate with
        // pass-insertion per operand.
        let opu = candidates[0];
        let mut operands: Vec<(Option<ValueId>, usize)> = Vec::new();
        for (port_idx, &v) in operand_values.iter().enumerate() {
            let rf = self.syms.opus[opu].inputs[port_idx];
            let routed = self.route_or_pass(v, rf, op)?;
            operands.push((Some(routed), rf));
        }
        self.plan_compute(id, node, opu, op, operands);
        Ok(())
    }

    /// Plans the RT of compute node `id` on `opu`, whose bus carries the
    /// result.
    fn plan_compute(
        &mut self,
        id: NodeId,
        node: &dspcc_dfg::DfgNode,
        opu: usize,
        op: &'static str,
        operands: Vec<(Option<ValueId>, usize)>,
    ) {
        let value = self.value_for(id);
        let bus = self.syms.opus[opu]
            .bus
            .expect("compute candidates drive a bus");
        self.set_bus(value, bus);
        self.plan(Plan {
            name: format!("{op}_{}", node.name),
            opu,
            op,
            operands,
            def: Some(value),
            immediate: None,
            output_port: None,
            physical_dest: None,
        });
    }

    /// Materialises a plan into an [`Rt`] with full usage specification.
    fn emit(&mut self, plan: Plan) -> Rt {
        let mut rt = Rt::new(plan.name);
        rt.set_latency(self.dp.opus()[plan.opu].latency_of(plan.op).unwrap_or(1));
        let (opu_res, opu_buf, opu_bus) = {
            let opu = &self.syms.opus[plan.opu];
            (opu.res, opu.buf, opu.bus)
        };
        // Operands.
        for &(value, rf) in &plan.operands {
            let rf_res = self.syms.rfs[rf].res;
            match value {
                Some(v) => {
                    rt.add_operand(RegRef::new(rf_res, VIRTUAL_BASE + v.0));
                    rt.add_use(v);
                }
                None => rt.add_operand(RegRef::new(rf_res, 0)), // pinned fp
            }
        }
        // OPU, buffer and bus usage. An RT that produces a result drives
        // the unit's buffer and bus, whose usage (tagged with the produced
        // value) disambiguates different transfers. Result-less operations
        // (RAM writes, output-port writes) leave the bus free — their OPU
        // usage carries the operand values instead, so two *different*
        // writes can never share the unit while identical ones still may.
        // All fixed symbols come from the per-datapath tables; only the
        // value tags are constructed here.
        let def_tag = plan.def.map(|v| format!("v{}", v.0));
        let result_tag = match (&def_tag, plan.physical_dest) {
            (Some(tag), _) => Some(tag.as_str()),
            (None, Some(_)) => Some("fp"),
            (None, None) => None,
        };
        match result_tag {
            Some(tag) => {
                rt.add_usage_id(opu_res, self.syms.token(plan.op));
                let bus = opu_bus.expect("result-producing unit drives a bus");
                rt.add_usage_id(opu_buf, self.syms.write_token);
                rt.add_usage_id(bus, UsageId::of_apply1(plan.op, tag));
            }
            None => {
                let args: Vec<String> = plan
                    .operands
                    .iter()
                    .map(|(v, _)| match v {
                        Some(v) => format!("v{}", v.0),
                        None => "fp".to_owned(),
                    })
                    .collect();
                rt.add_usage_id(opu_res, UsageId::of(&Usage::apply(plan.op, args)));
            }
        }
        // Destinations.
        if let Some((def, tag)) = plan.def.zip(def_tag.as_deref()) {
            rt.add_def(def);
            let rfs = self
                .demand
                .get(def.0 as usize)
                .map_or(&[][..], Vec::as_slice);
            for &rf in rfs {
                rt.add_dest(RegRef::new(self.syms.rfs[rf].res, VIRTUAL_BASE + def.0));
                self.syms.dest_usage(&mut rt, rf, plan.opu, tag);
            }
        }
        if let Some((rf, index)) = plan.physical_dest {
            rt.add_dest(RegRef::new(self.syms.rfs[rf].res, index));
            self.syms.dest_usage(&mut rt, rf, plan.opu, "fp");
        }
        rt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspcc_arch::DatapathBuilder;
    use dspcc_dfg::parse;

    /// A small audio-style core: IPB, OPB, ACU+RAM, ROM, PRG_C, MULT, ALU.
    pub(crate) fn test_core() -> Datapath {
        test_core_without("")
    }

    /// [`test_core`] with one part left out, a shape the builder accepts:
    /// the output bus of the unit named `missing` (dropped from every
    /// write port too), or the RAM's input register files when `missing`
    /// is `"ram inputs"`.
    fn test_core_without(missing: &str) -> Datapath {
        let mut b = DatapathBuilder::new()
            .register_file("rf_acu_base", 2)
            .register_file("rf_acu_off", 8)
            .register_file("rf_ram_addr", 8)
            .register_file("rf_ram_data", 8)
            .register_file("rf_mult_c", 8)
            .register_file("rf_mult_x", 8)
            .register_file("rf_alu_a", 8)
            .register_file("rf_alu_b", 8)
            .register_file("rf_opb_1", 4)
            .register_file("rf_opb_2", 4)
            .opu(OpuKind::Input, "ipb", &[("read", 1)])
            .opu(OpuKind::Output, "opb_1", &[("write", 1)])
            .inputs("opb_1", &["rf_opb_1"])
            .opu(OpuKind::Output, "opb_2", &[("write", 1)])
            .inputs("opb_2", &["rf_opb_2"])
            .opu(OpuKind::Acu, "acu", &[("addmod", 1)])
            .inputs("acu", &["rf_acu_base", "rf_acu_off"])
            .opu(OpuKind::Ram, "ram", &[("read", 1), ("write", 1)])
            .memory("ram", 64)
            .opu(OpuKind::Rom, "rom", &[("const", 1)])
            .memory("rom", 64)
            .opu(OpuKind::ProgConst, "prgc", &[("const", 1)])
            .opu(OpuKind::Mult, "mult", &[("mult", 1)])
            .inputs("mult", &["rf_mult_c", "rf_mult_x"])
            .opu(
                OpuKind::Alu,
                "alu",
                &[
                    ("add", 1),
                    ("add_clip", 1),
                    ("sub", 1),
                    ("pass", 1),
                    ("pass_clip", 1),
                ],
            )
            .inputs("alu", &["rf_alu_a", "rf_alu_b"]);
        if missing != "ram inputs" {
            b = b.inputs("ram", &["rf_ram_addr", "rf_ram_data"]);
        }
        let mut dropped = None;
        for (unit, bus) in [
            ("ipb", "bus_ipb"),
            ("acu", "bus_acu"),
            ("ram", "bus_ram"),
            ("rom", "bus_rom"),
            ("prgc", "bus_prgc"),
            ("mult", "bus_mult"),
            ("alu", "bus_alu"),
        ] {
            if unit == missing {
                dropped = Some(bus);
            } else {
                b = b.output(unit, bus);
            }
        }
        let write_ports: [(&str, &[&str]); 10] = [
            ("rf_acu_base", &["bus_acu"]),
            ("rf_acu_off", &["bus_prgc"]),
            ("rf_ram_addr", &["bus_acu"]),
            ("rf_ram_data", &["bus_alu", "bus_ipb"]),
            ("rf_mult_c", &["bus_rom", "bus_prgc"]),
            ("rf_mult_x", &["bus_ram", "bus_ipb", "bus_alu"]),
            (
                "rf_alu_a",
                &["bus_mult", "bus_ram", "bus_ipb", "bus_prgc", "bus_alu"],
            ),
            ("rf_alu_b", &["bus_alu", "bus_mult", "bus_ram"]),
            ("rf_opb_1", &["bus_alu"]),
            ("rf_opb_2", &["bus_alu"]),
        ];
        for (rf, buses) in write_ports {
            let kept: Vec<&str> = buses
                .iter()
                .copied()
                .filter(|&bus| Some(bus) != dropped)
                .collect();
            b = b.write_port(rf, &kept);
        }
        b.build().unwrap()
    }

    fn lower_src(src: &str) -> Lowering {
        let dfg = Dfg::build(&parse(src).unwrap()).unwrap();
        lower(&dfg, &test_core(), &LowerOptions::default()).unwrap()
    }

    #[test]
    fn passthrough_lowers_to_three_rts() {
        let l = lower_src("input u; output y; y = pass(u);");
        // in → pass → out.
        assert_eq!(l.program.rt_count(), 3);
        l.program.validate().unwrap();
        let names: Vec<&str> = l.program.rts().map(|(_, rt)| rt.name()).collect();
        assert!(names[0].starts_with("in_"));
        assert!(names[1].starts_with("pass_"));
        assert!(names[2].starts_with("out_"));
    }

    #[test]
    fn usage_specification_matches_figure_2_shape() {
        let l = lower_src("input u; output y; y = pass(u);");
        let pass_rt = l.program.rt(RtId(1));
        assert_eq!(pass_rt.usage_of("alu"), Some(&Usage::token("pass")));
        assert_eq!(pass_rt.usage_of("buf_alu"), Some(&Usage::token("write")));
        assert!(pass_rt.usage_of("bus_alu").is_some());
        // Dest rf_opb_1 has a single write bus → no mux, only a write port.
        assert!(pass_rt.usage_of("wp_rf_opb_1").is_some());
        assert!(pass_rt.usage_of("mux_rf_opb_1").is_none());
    }

    #[test]
    fn tap_generates_const_addmod_read() {
        let l = lower_src("input u; output y; y = pass(u@1);");
        // in, store chain (const+addmod+write), tap chain (const+addmod+read),
        // pass, out; fp update + its const.
        let names: Vec<&str> = l.program.rts().map(|(_, rt)| rt.name()).collect();
        assert!(names.iter().any(|n| n.starts_with("addmod_u")), "{names:?}");
        assert!(names.iter().any(|n| n.starts_with("st_u")), "{names:?}");
        assert!(names.iter().any(|n| n.starts_with("ld_u@1")), "{names:?}");
        assert!(names.contains(&"fp_update"), "{names:?}");
        l.program.validate().unwrap();
    }

    #[test]
    fn fp_update_is_ordered_after_address_computations() {
        let l = lower_src("input u; output y; y = pass(u@1);");
        let fp = l
            .program
            .rts()
            .find(|(_, rt)| rt.name() == "fp_update")
            .map(|(id, _)| id)
            .unwrap();
        let zero_edges: Vec<_> = l
            .sequence_edges
            .iter()
            .filter(|&&(_, to, sep)| to == fp && sep == 0)
            .collect();
        assert_eq!(zero_edges.len(), 2, "2 addmods must precede fp_update");
        // fp_update writes the pinned physical register.
        let rt = l.program.rt(fp);
        assert_eq!(rt.dests()[0].rf().name(), "rf_acu_base");
        assert_eq!(rt.dests()[0].index(), 0);
        assert_eq!(l.fp_reg, ("rf_acu_base".to_owned(), 0));
    }

    #[test]
    fn ram_layout_uses_power_of_two_regions() {
        let l = lower_src(
            "input u; signal v; output y;
             v = add(u, v@1); y = pass(u@3);",
        );
        // max depth 3 → region 4; two tapped signals (u and v).
        assert_eq!(l.ram_layout.region_size, 4);
        assert_eq!(l.ram_layout.total_words, 8);
        let bases: Vec<u32> = l
            .ram_layout
            .bases
            .iter()
            .filter(|&&b| b != u32::MAX)
            .copied()
            .collect();
        assert_eq!(bases, vec![0, 4]);
    }

    #[test]
    fn immediates_encode_base_plus_depth() {
        let l = lower_src("input u; output y; y = pass(u@2);");
        // Region size 4 (depth 2 → next pow2 = 4), base 0: store offset 0,
        // tap offset 2, fp step 3.
        let imms: Vec<Immediate> = l.immediates.values().copied().collect();
        assert!(imms.contains(&Immediate::Raw(0)));
        assert!(imms.contains(&Immediate::Raw(2)));
        assert!(imms.contains(&Immediate::Raw(3)));
    }

    #[test]
    fn coefficients_become_rom_fetches() {
        let l = lower_src("input u; coeff k = 0.5; output y; y = mlt(k, u);");
        assert_eq!(l.rom_image, vec![0.5]);
        let rom_rts: Vec<_> = l
            .program
            .rts()
            .filter(|(_, rt)| rt.usage_of("rom").is_some())
            .collect();
        assert_eq!(rom_rts.len(), 1);
        let (id, _) = rom_rts[0];
        assert_eq!(l.immediates.get(&id), Some(&Immediate::RomAddr(0)));
    }

    #[test]
    fn cse_merges_identical_constants() {
        let src = "input u; output y; output z;
                   y = mlt(0.5, u); z = mlt(0.5, u);";
        let with = lower_src(src);
        let dfg = Dfg::build(&parse(src).unwrap()).unwrap();
        let without = lower(
            &dfg,
            &test_core(),
            &LowerOptions {
                cse_constants: false,
            },
        )
        .unwrap();
        let count = |l: &Lowering| {
            l.program
                .rts()
                .filter(|(_, rt)| rt.usage_of("prgc").is_some())
                .count()
        };
        assert_eq!(count(&with), 1);
        assert_eq!(count(&without), 2);
        with.program.validate().unwrap();
        without.program.validate().unwrap();
    }

    #[test]
    fn multi_consumer_value_gets_multiple_dests() {
        // u feeds both mult (rf_mult_x) and alu (rf_alu_a).
        let l = lower_src("input u; coeff k = 0.5; output y; y = add(mlt(k, u), u);");
        let in_rt = l
            .program
            .rts()
            .find(|(_, rt)| rt.name().starts_with("in_"))
            .map(|(_, rt)| rt)
            .unwrap();
        let dest_rfs: Vec<&str> = in_rt.dests().iter().map(|d| d.rf().name()).collect();
        assert!(dest_rfs.contains(&"rf_mult_x"), "{dest_rfs:?}");
        assert!(dest_rfs.contains(&"rf_alu_a") || dest_rfs.contains(&"rf_alu_b"));
        // Multi-dest RTs use one write port per destination.
        assert!(in_rt.usage_of("wp_rf_mult_x").is_some());
    }

    #[test]
    fn mux_usage_emitted_for_multi_bus_rfs() {
        let l = lower_src("input u; coeff k = 0.5; output y; y = mlt(k, u);");
        // rf_mult_x has 3 write buses → mux; the IPB read writing it must
        // claim the mux input for bus_ipb.
        let in_rt = l
            .program
            .rts()
            .find(|(_, rt)| rt.name().starts_with("in_"))
            .map(|(_, rt)| rt)
            .unwrap();
        assert_eq!(
            in_rt.usage_of("mux_rf_mult_x"),
            Some(&Usage::apply("pass", ["bus_ipb"]))
        );
    }

    #[test]
    fn input_reads_are_sequenced() {
        let l = lower_src("input l; input r; output y; y = add(l, r);");
        assert!(
            l.sequence_edges
                .iter()
                .any(|&(a, b, sep)| sep == 1 && a.0 < b.0),
            "two IPB reads must be ordered: {:?}",
            l.sequence_edges
        );
    }

    #[test]
    fn outputs_round_robin_over_opbs_and_record_order() {
        let l = lower_src(
            "input u; output a; output b; output c;
             a = pass(u); b = pass(u); c = pass(u);",
        );
        let opbs: Vec<&str> = l.output_order.iter().map(|(o, _)| o.as_str()).collect();
        assert_eq!(opbs, vec!["opb_1", "opb_2", "opb_1"]);
        let ports: Vec<usize> = l.output_order.iter().map(|(_, p)| *p).collect();
        assert_eq!(ports, vec![0, 1, 2]);
    }

    #[test]
    fn loop_edges_connect_writes_to_taps() {
        let l = lower_src("input u; signal v; output y; v = add(u, v@2); y = v;");
        // Write of v → tap v@2 at distance 2.
        let has = l.loop_edges.iter().any(|&(from, to, d)| {
            d == 2
                && l.program.rt(from).name().starts_with("st_v")
                && l.program.rt(to).name().starts_with("ld_v@2")
        });
        assert!(has, "{:?}", l.loop_edges);
        // fp update → every fp reader at distance 1.
        assert!(l
            .loop_edges
            .iter()
            .any(|&(from, _, d)| { d == 1 && l.program.rt(from).name() == "fp_update" }));
    }

    #[test]
    fn commutative_swap_routes_mult_operands() {
        // mlt(u, k): u (bus_ipb) cannot reach rf_mult_c, but swapping
        // puts k (bus_rom) there and u in rf_mult_x.
        let l = lower_src("input u; coeff k = 0.5; output y; y = mlt(u, k);");
        let mult_rt = l
            .program
            .rts()
            .find(|(_, rt)| rt.usage_of("mult").is_some())
            .map(|(_, rt)| rt)
            .unwrap();
        let rfs: Vec<&str> = mult_rt.operands().iter().map(|o| o.rf().name()).collect();
        assert_eq!(rfs.len(), 2);
        assert!(rfs.contains(&"rf_mult_c"));
        assert!(rfs.contains(&"rf_mult_x"));
    }

    #[test]
    fn pass_inserted_for_unroutable_path() {
        // mult result → RAM data needs a pass through the ALU
        // (rf_ram_data accepts only bus_alu and bus_ipb).
        let l = lower_src(
            "input u; coeff k = 0.5; signal v; output y;
             v = mlt(k, u); y = pass(v@1);",
        );
        let names: Vec<&str> = l.program.rts().map(|(_, rt)| rt.name()).collect();
        assert!(
            names.iter().any(|n| n.starts_with("route_")),
            "expected a routing pass: {names:?}"
        );
        l.program.validate().unwrap();
    }

    #[test]
    fn ram_overflow_detected() {
        let src = "input u; output y; y = pass(u@60);"; // region 64 > 64? 64 fits exactly
        let dfg = Dfg::build(&parse(src).unwrap()).unwrap();
        let result = lower(&dfg, &test_core(), &LowerOptions::default());
        assert!(result.is_ok()); // 64-word region fits the 64-word RAM
        let src = "input u; signal v; output y; v = pass(u@60); y = v@33;";
        let dfg = Dfg::build(&parse(src).unwrap()).unwrap();
        let err = lower(&dfg, &test_core(), &LowerOptions::default()).unwrap_err();
        assert!(
            matches!(
                err,
                LowerError::RamOverflow {
                    needed: 128,
                    available: 64
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn rom_overflow_detected() {
        // 65 distinct coefficients on a 64-word ROM: address 64 fits the
        // 7-bit field width_for(64) derives but lies past the image, so
        // the lowering must reject it (the simulator would otherwise trap
        // at runtime — the conformance-fleet bug this check pins).
        let mut src = String::from("input u; output y;\n");
        for i in 0..65 {
            src.push_str(&format!("coeff k{i} = 0.{:03};\n", i + 1));
        }
        src.push_str("acc0 := mlt(k0, u);\n");
        for i in 1..65 {
            src.push_str(&format!("acc{i} := add(acc{}, mlt(k{i}, u));\n", i - 1));
        }
        src.push_str("y = pass_clip(acc64);\n");
        let dfg = Dfg::build(&parse(&src).unwrap()).unwrap();
        let err = lower(&dfg, &test_core(), &LowerOptions::default()).unwrap_err();
        assert_eq!(
            err,
            LowerError::RomOverflow {
                needed: 65,
                available: 64
            },
            "{err}"
        );
        assert!(err.to_string().contains("ROM words"));
    }

    #[test]
    fn missing_unit_reported() {
        let tiny = DatapathBuilder::new()
            .register_file("rf_alu_a", 4)
            .register_file("rf_alu_b", 4)
            .opu(OpuKind::Alu, "alu", &[("add", 1), ("pass", 1)])
            .inputs("alu", &["rf_alu_a", "rf_alu_b"])
            .output("alu", "bus_alu")
            .opu(OpuKind::Input, "ipb", &[("read", 1)])
            .output("ipb", "bus_ipb")
            .write_port("rf_alu_a", &["bus_alu", "bus_ipb"])
            .write_port("rf_alu_b", &["bus_alu", "bus_ipb"])
            .build()
            .unwrap();
        let dfg = Dfg::build(&parse("input u; output y; y = pass(u@1);").unwrap()).unwrap();
        let err = lower(&dfg, &tiny, &LowerOptions::default()).unwrap_err();
        assert!(matches!(err, LowerError::MissingUnit(_)), "{err}");
        // And without outputs hardware:
        let dfg2 = Dfg::build(&parse("input u; output y; y = pass(u);").unwrap()).unwrap();
        let err2 = lower(&dfg2, &tiny, &LowerOptions::default()).unwrap_err();
        assert_eq!(err2, LowerError::MissingUnit("output port (OPB)"));
    }

    #[test]
    fn units_without_their_bus_or_ram_inputs_are_typed_errors() {
        let tap = "input u; output y; y = pass(u@1);";
        for (missing, src, unit) in [
            (
                "ipb",
                "input u; output y; y = pass(u);",
                "input port with an output bus",
            ),
            (
                "rom",
                "input u; coeff k = 0.5; output y; y = mlt(k, u);",
                "coefficient ROM with an output bus",
            ),
            (
                "prgc",
                "input u; output y; y = mlt(0.5, u);",
                "program-constant unit with an output bus",
            ),
            ("acu", tap, "ACU with an output bus"),
            ("ram", tap, "RAM with an output bus"),
            ("ram inputs", tap, "RAM with an address input"),
        ] {
            let dfg = Dfg::build(&parse(src).unwrap()).unwrap();
            let result = lower(&dfg, &test_core_without(missing), &LowerOptions::default());
            assert_eq!(
                result.unwrap_err(),
                LowerError::MissingUnit(unit),
                "{missing}"
            );
        }
    }

    #[test]
    fn operand_order_preserved_for_sub() {
        let l = lower_src("input u; output y; y = sub(u, 0.25);");
        let sub_rt = l
            .program
            .rts()
            .find(|(_, rt)| rt.usage_of("alu") == Some(&Usage::token("sub")))
            .map(|(_, rt)| rt)
            .unwrap();
        // Operand 0 must be u (minuend), operand 1 the constant.
        assert_eq!(sub_rt.operands().len(), 2);
        let uses = sub_rt.uses();
        let u_name = l.program.value(uses[0]).name().to_owned();
        assert_eq!(u_name, "u");
    }

    #[test]
    fn virtual_register_indices_above_base() {
        let l = lower_src("input u; output y; y = pass(u);");
        for (_, rt) in l.program.rts() {
            for reg in rt.dests().iter().chain(rt.operands()) {
                assert!(
                    reg.index() >= VIRTUAL_BASE || reg.rf().name() == "rf_acu_base",
                    "unexpected physical register {reg}"
                );
            }
        }
    }

    #[test]
    fn error_display() {
        let e = LowerError::NoRoute {
            value: "v".into(),
            op: "mult".into(),
            rf: "rf_x".into(),
        };
        assert!(e.to_string().contains("cannot be routed"));
        assert!(LowerError::NoOpuFor("fft".into())
            .to_string()
            .contains("fft"));
    }
}
