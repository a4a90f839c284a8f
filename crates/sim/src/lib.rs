//! Cycle-accurate simulator for `dspcc` in-house DSP cores.
//!
//! Executes **encoded microcode** ([`dspcc_encode::Microcode`]) on the
//! datapath model: register files are read at issue, results land at
//! issue + latency (the buffered paths of figure 2), RAM and ROM behave as
//! synchronous memories, the ACU implements the circular-buffer address
//! arithmetic, and the controller loops the program once per sample frame
//! (the hardware time-loop of figure 4).
//!
//! The paper could only *claim* code quality via occupation statistics;
//! running the generated code against the bit-exact reference interpreter
//! (`dspcc_dfg::Interpreter`) is the verification the original flow
//! lacked, and it is the backbone of this reproduction's test suite.
//!
//! # Performance notes
//!
//! The verifier runs once per compiled frame in every differential test
//! and design-space sweep, so its inner loop is a hot path of the whole
//! flow. [`CoreSim`] therefore **pre-decodes** the microcode at
//! construction into a dense [`MicroOp`] table: every OPU, operation,
//! operand register, destination register, immediate, and latency is
//! resolved to a flat index or value exactly once. Per cycle the executor
//! walks a `&[MicroOp]` slice, reads operands out of one flat `Vec<i64>`
//! register array, and retires pending writebacks from a fixed-capacity
//! ring indexed by `cycle % (max_latency + 1)` — no string hashing, no
//! `BTreeMap` walks, no per-cycle allocation. The original
//! interpret-every-cycle implementation is retained in [`reference`] as
//! the differential oracle; a property test pins the two bit-identical,
//! cycle for cycle.
//!
//! # The decoded program
//!
//! The pre-decoded table is the one model of what an instruction word
//! does. [`CoreSim::actions`] exposes it word by word as [`Action`]s:
//! the executor [`Op`], the flat registers the action reads (only the
//! ports [`Op::reads`] says the executor reads — the same rule
//! [`CoreSim::new`] resolves operands by) and writes, its latency,
//! immediate and the size of the memory it accesses, and the constant a
//! program-constant or ROM read loads. [`CoreSim::register_name`] and
//! [`Action::opu_name`] name registers and units back. Static analyses
//! of compiled microcode, such as the fault audit's benignity witnesses,
//! read this view instead of copying the execution rules.

pub mod reference;

use std::fmt;

use dspcc_arch::{Datapath, OpuKind};
use dspcc_encode::{decode, Microcode};

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Wrong number of input samples for a frame.
    InputCount {
        /// Samples provided.
        got: usize,
        /// Samples expected (one per DFG input port).
        expected: usize,
    },
    /// An input unit read with no sample left in its stream.
    InputUnderflow {
        /// The input OPU.
        opu: String,
    },
    /// A RAM or ROM access out of range.
    AddressOutOfRange {
        /// The memory unit.
        opu: String,
        /// The offending address.
        addr: i64,
    },
    /// The frame produced fewer output writes than the port map expects.
    MissingOutputs {
        /// Writes expected.
        expected: usize,
        /// Writes seen.
        got: usize,
    },
    /// An OPU kind the simulator cannot execute (application-specific
    /// units need user-provided semantics).
    Unsupported {
        /// The OPU.
        opu: String,
    },
    /// The microcode references a register outside the datapath's files
    /// — a word no encoder produced (corrupted or hand-forged
    /// microcode), caught at construction.
    RegisterOutOfRange {
        /// The register file (or the unknown name the word referenced).
        rf: String,
        /// The offending register index.
        index: u32,
    },
    /// An instruction word failed to decode (corrupted or hand-forged
    /// microcode), caught at construction.
    BadWord {
        /// The program-memory address of the word.
        cycle: usize,
        /// The decoder's diagnostic.
        detail: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InputCount { got, expected } => {
                write!(f, "frame got {got} input samples, expected {expected}")
            }
            SimError::InputUnderflow { opu } => {
                write!(f, "input unit `{opu}` read past the end of its stream")
            }
            SimError::AddressOutOfRange { opu, addr } => {
                write!(f, "`{opu}` access out of range at address {addr}")
            }
            SimError::MissingOutputs { expected, got } => {
                write!(f, "frame produced {got} output writes, expected {expected}")
            }
            SimError::Unsupported { opu } => {
                write!(f, "simulator has no semantics for `{opu}`")
            }
            SimError::RegisterOutOfRange { rf, index } => {
                write!(f, "register {index} out of range for `{rf}`")
            }
            SimError::BadWord { cycle, detail } => {
                write!(f, "instruction word {cycle} does not decode: {detail}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// What the executor does for one action: the decoded operation name
/// resolved, per OPU kind, to the branch the executor runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Pops the unit's input stream.
    InputRead,
    /// Pushes operand 0 onto the unit's output stream.
    OutputWrite,
    /// Loads the immediate.
    ProgConst,
    /// Loads ROM word `imm`.
    RomConst,
    /// Circular-buffer address arithmetic over base (operand 0) and
    /// offset (operand 1).
    AcuAddMod,
    /// Loads the RAM word operand 0 addresses.
    RamRead,
    /// Stores operand 1 at the RAM word operand 0 addresses.
    RamWrite,
    /// Fixed-point multiply.
    Mult,
    /// Wrapping add.
    Add,
    /// Saturating add.
    AddClip,
    /// Wrapping subtract.
    Sub,
    /// Copies operand 0.
    Pass,
    /// Saturates operand 0.
    PassClip,
    /// ASUs, unknown OPUs, unknown ALU ops: reported as
    /// [`SimError::Unsupported`] when (and only when) executed, exactly
    /// like the decode-per-cycle path.
    Unsupported,
}

impl Op {
    /// How many operand ports the executor reads, counted from port 0:
    /// the one rule for which operands of an action are live.
    pub fn reads(self) -> usize {
        match self {
            Op::InputRead | Op::ProgConst | Op::RomConst | Op::Unsupported => 0,
            Op::OutputWrite | Op::RamRead | Op::Pass | Op::PassClip => 1,
            Op::AcuAddMod | Op::RamWrite | Op::Mult | Op::Add | Op::AddClip | Op::Sub => 2,
        }
    }
}

/// One pre-decoded OPU action: every name resolved to a flat index at
/// construction.
#[derive(Debug, Clone)]
struct MicroOp {
    op: Op,
    /// Index into the OPU name table (errors, stream indexing).
    opu: u32,
    /// Flat register indices of the operand ports the operation reads.
    /// Unused ports stay 0: the executor loads them unconditionally (the
    /// branchless hot path) and ignores the value, which is why the flat
    /// register array is never allocated empty.
    src: [u32; 2],
    /// RAM/ROM slot or input/output stream slot, depending on `op`.
    mem: u32,
    /// Decoded immediate (program constant or ROM address).
    imm: i64,
    /// Writeback delay in cycles (≥ 1).
    latency: u32,
    /// Range of flat destination registers in the dest arena.
    dests: (u32, u32),
}

/// One action of the pre-decoded program, as the executor runs it:
/// registers are flat indices into one register array (see
/// [`CoreSim::register_name`]). Two actions are equal when the executor
/// runs them identically, so actions of two simulators on the same
/// datapath compare directly.
#[derive(Clone, Copy)]
pub struct Action<'a> {
    micro: &'a MicroOp,
    sim: &'a CoreSim,
}

impl<'a> Action<'a> {
    /// The executor branch.
    pub fn op(&self) -> Op {
        self.micro.op
    }

    /// The OPU, as an index into the simulator's OPU table.
    pub fn opu(&self) -> u32 {
        self.micro.opu
    }

    /// The OPU's name.
    pub fn opu_name(&self) -> &'a str {
        &self.sim.opu_names[self.micro.opu as usize]
    }

    /// Flat registers of the operand ports the executor reads, by port.
    pub fn reads(&self) -> &'a [u32] {
        &self.micro.src[..self.micro.op.reads()]
    }

    /// Flat registers the result is written to.
    pub fn writes(&self) -> &'a [u32] {
        let (start, end) = self.micro.dests;
        &self.sim.dest_regs[start as usize..end as usize]
    }

    /// Writeback delay in cycles (≥ 1).
    pub fn latency(&self) -> u32 {
        self.micro.latency
    }

    /// The immediate: the program constant or ROM address, 0 otherwise.
    pub fn imm(&self) -> i64 {
        self.micro.imm
    }

    /// Words of the RAM or ROM the action accesses, 0 for other units.
    pub fn memory_size(&self) -> usize {
        let memory = match self.micro.op {
            Op::RamRead | Op::RamWrite => &self.sim.ram,
            Op::RomConst => &self.sim.rom,
            _ => return 0,
        };
        memory[self.micro.mem as usize].len()
    }

    /// The value a constant action loads: the program constant, or the
    /// ROM word it reads. `None` for every other action and for a ROM
    /// read past the memory, which faults when executed.
    pub fn constant(&self) -> Option<i64> {
        match self.micro.op {
            Op::ProgConst => Some(self.micro.imm),
            Op::RomConst => usize::try_from(self.micro.imm)
                .ok()
                .and_then(|addr| self.sim.rom[self.micro.mem as usize].get(addr).copied()),
            _ => None,
        }
    }
}

impl fmt::Debug for Action<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Action")
            .field("opu", &self.opu_name())
            .field("op", &self.micro.op)
            .field("reads", &self.reads())
            .field("writes", &self.writes())
            .field("imm", &self.micro.imm)
            .finish()
    }
}

impl PartialEq for Action<'_> {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.micro, other.micro);
        (a.op, a.opu, a.mem, a.imm, a.latency) == (b.op, b.opu, b.mem, b.imm, b.latency)
            && self.reads() == other.reads()
            && self.writes() == other.writes()
    }
}

/// The core simulator. One instance holds the pre-decoded program tables
/// and the full architectural state: register files, data RAM, the
/// input/output streams, and the cycle counter. State persists across
/// frames (delay lines!).
///
/// # Example
///
/// See the crate tests: the canonical use is
/// `dfg → rtgen → schedule → regalloc → encode → CoreSim`, then
/// comparing [`CoreSim::step_frame`] with
/// `dspcc_dfg::Interpreter::step` frame by frame.
#[derive(Debug, Clone)]
pub struct CoreSim {
    // Pre-decoded program: one range into `micro` per instruction word.
    instr: Vec<(u32, u32)>,
    micro: Vec<MicroOp>,
    dest_regs: Vec<u32>,
    // Name tables for errors and the debug accessors.
    opu_names: Vec<String>,
    rf_layout: Vec<(String, u32, u32)>,
    ram_names: Vec<String>,
    // Frame I/O plans: `(stream slot, DFG port)` in issue order.
    input_plan: Vec<(u32, usize)>,
    output_plan: Vec<(u32, usize)>,
    input_port_count: usize,
    output_port_count: usize,
    region_mask: i64,
    format: dspcc_num::WordFormat,
    // Architectural state.
    regs: Vec<i64>,
    ram: Vec<Vec<i64>>,
    rom: Vec<Vec<i64>>,
    /// Writeback ring: slot `due % ring.len()` holds the `(flat register,
    /// value)` pairs landing at cycle `due`. The ring has
    /// `max_latency + 1` slots, so a slot is always drained before any
    /// write could wrap onto it.
    ring: Vec<Vec<(u32, i64)>>,
    // Per-frame stream scratch, reused across frames.
    in_data: Vec<Vec<i64>>,
    in_cursor: Vec<usize>,
    out_data: Vec<Vec<i64>>,
    out_cursor: Vec<usize>,
    ram_writes: Vec<(u32, u32, i64)>,
    /// Register writebacks `(ring slot, flat reg, value)` of the cycle in
    /// flight: committed to `ring` only when the whole cycle executed —
    /// a mid-cycle [`SimError`] discards them, exactly like the
    /// reference's per-cycle write buffer.
    rf_writes: Vec<(u32, u32, i64)>,
    cycle: u64,
    frames: u64,
}

impl CoreSim {
    /// Builds a simulator for `microcode` on `dp`, pre-decoding the whole
    /// program, with all state zeroed (hardware reset).
    ///
    /// # Errors
    ///
    /// [`SimError::BadWord`] when an instruction word does not decode and
    /// [`SimError::RegisterOutOfRange`] when the microcode references a
    /// register outside the datapath's files — both describe corrupted or
    /// hand-forged microcode (no encoder produces such words; these used
    /// to panic, and typed errors are what lets the fault-injection audit
    /// count them as *detected*). Other malformed actions become
    /// [`SimError::Unsupported`] at execution, matching the
    /// decode-per-cycle path.
    pub fn new(dp: &Datapath, microcode: &Microcode) -> Result<Self, SimError> {
        let format = microcode.word_format;
        // Flat register-file layout: (name, base, size) in datapath order.
        let mut rf_layout = Vec::new();
        let mut total_regs = 0u32;
        for r in dp.register_files() {
            rf_layout.push((r.name().to_owned(), total_regs, r.size()));
            total_regs += r.size();
        }
        let flat_reg = |rf: &str, reg: u32| -> Result<u32, SimError> {
            let &(_, base, size) = rf_layout
                .iter()
                .find(|(name, _, _)| name == rf)
                .ok_or_else(|| SimError::RegisterOutOfRange {
                    rf: rf.to_owned(),
                    index: reg,
                })?;
            if reg >= size {
                return Err(SimError::RegisterOutOfRange {
                    rf: rf.to_owned(),
                    index: reg,
                });
            }
            Ok(base + reg)
        };
        // OPU tables and memory slots.
        let mut opu_names: Vec<String> = Vec::new();
        let mut ram_names = Vec::new();
        let mut ram = Vec::new();
        let mut rom_slots = Vec::new();
        let mut rom = Vec::new();
        let mut in_slots: Vec<(String, u32)> = Vec::new();
        let mut out_slots: Vec<(String, u32)> = Vec::new();
        for o in dp.opus() {
            opu_names.push(o.name().to_owned());
            match o.kind() {
                OpuKind::Ram => {
                    ram_names.push(o.name().to_owned());
                    ram.push(vec![0i64; o.memory_size() as usize]);
                }
                OpuKind::Rom => {
                    let mut image = microcode.rom_image.clone();
                    image.resize(o.memory_size() as usize, 0);
                    rom_slots.push(o.name().to_owned());
                    rom.push(image);
                }
                OpuKind::Input => {
                    in_slots.push((o.name().to_owned(), in_slots.len() as u32));
                }
                OpuKind::Output => {
                    out_slots.push((o.name().to_owned(), out_slots.len() as u32));
                }
                _ => {}
            }
        }
        // Stream slots for I/O-order names that name no datapath unit:
        // the sample is queued and never read (input) or read and never
        // produced (output) — faithful to the name-keyed maps.
        let slot_of = |slots: &mut Vec<(String, u32)>, name: &str| -> u32 {
            if let Some(&(_, s)) = slots.iter().find(|(n, _)| n == name) {
                return s;
            }
            let s = slots.len() as u32;
            slots.push((name.to_owned(), s));
            s
        };
        let input_plan: Vec<(u32, usize)> = microcode
            .input_order
            .iter()
            .map(|(opu, port)| (slot_of(&mut in_slots, opu), *port))
            .collect();
        let output_plan: Vec<(u32, usize)> = microcode
            .output_order
            .iter()
            .map(|(opu, port)| (slot_of(&mut out_slots, opu), *port))
            .collect();
        // Pre-decode every instruction word into the dense tables.
        let mut instr = Vec::with_capacity(microcode.words.len());
        let mut micro = Vec::new();
        let mut dest_regs = Vec::new();
        let mut max_latency = 1u32;
        for (cycle, word) in microcode.words.iter().enumerate() {
            let start = micro.len() as u32;
            let decoded =
                decode(word, &microcode.layout, format).map_err(|e| SimError::BadWord {
                    cycle,
                    detail: e.to_string(),
                })?;
            for action in decoded.actions {
                let spec = dp.opu(&action.opu);
                let opu = match opu_names.iter().position(|n| n == &action.opu) {
                    Some(i) => i as u32,
                    None => {
                        opu_names.push(action.opu.clone());
                        opu_names.len() as u32 - 1
                    }
                };
                let (op, mem, imm) = match spec.map(|s| s.kind()) {
                    Some(OpuKind::Input) => (Op::InputRead, slot_of(&mut in_slots, &action.opu), 0),
                    Some(OpuKind::Output) => {
                        (Op::OutputWrite, slot_of(&mut out_slots, &action.opu), 0)
                    }
                    Some(OpuKind::ProgConst) => {
                        (Op::ProgConst, 0, action.imm.expect("prgc imm decoded"))
                    }
                    Some(OpuKind::Rom) => {
                        let slot = rom_slots
                            .iter()
                            .position(|n| n == &action.opu)
                            .expect("rom opu has an image")
                            as u32;
                        (Op::RomConst, slot, action.imm.expect("rom imm decoded"))
                    }
                    Some(OpuKind::Acu) => (Op::AcuAddMod, 0, 0),
                    Some(OpuKind::Ram) => {
                        let slot = ram_names
                            .iter()
                            .position(|n| n == &action.opu)
                            .expect("ram opu has a memory")
                            as u32;
                        let op = if action.op == "write" {
                            Op::RamWrite
                        } else {
                            Op::RamRead
                        };
                        (op, slot, 0)
                    }
                    Some(OpuKind::Mult) => (Op::Mult, 0, 0),
                    Some(OpuKind::Alu) => match action.op.as_str() {
                        "add" => (Op::Add, 0, 0),
                        "add_clip" => (Op::AddClip, 0, 0),
                        "sub" => (Op::Sub, 0, 0),
                        "pass" => (Op::Pass, 0, 0),
                        "pass_clip" => (Op::PassClip, 0, 0),
                        _ => (Op::Unsupported, 0, 0),
                    },
                    Some(OpuKind::Asu) | None => (Op::Unsupported, 0, 0),
                };
                // Only the ports the executor reads are resolved: an
                // unread port may hold any index.
                let inputs = spec.map_or(&[][..], |s| s.inputs());
                let mut src = [0u32; 2];
                for (port, flat) in src.iter_mut().enumerate().take(op.reads()) {
                    *flat = flat_reg(&inputs[port], action.operand_regs[port])?;
                }
                let latency = spec
                    .and_then(|s| s.latency_of(&action.op))
                    .unwrap_or(1)
                    .max(1);
                max_latency = max_latency.max(latency);
                let dest_start = dest_regs.len() as u32;
                for (rf, reg) in &action.dests {
                    dest_regs.push(flat_reg(rf, *reg)?);
                }
                micro.push(MicroOp {
                    op,
                    opu,
                    src,
                    mem,
                    imm,
                    latency,
                    dests: (dest_start, dest_regs.len() as u32),
                });
            }
            instr.push((start, micro.len() as u32));
        }
        let input_port_count = microcode
            .input_order
            .iter()
            .map(|&(_, p)| p + 1)
            .max()
            .unwrap_or(0);
        let output_port_count = microcode
            .output_order
            .iter()
            .map(|&(_, p)| p + 1)
            .max()
            .unwrap_or(0);
        Ok(CoreSim {
            instr,
            micro,
            dest_regs,
            opu_names,
            ram_names,
            input_plan,
            output_plan,
            input_port_count,
            output_port_count,
            region_mask: microcode.region_size as i64 - 1,
            format,
            // At least one slot: the executor reads `src` ports
            // unconditionally, and index 0 is the harmless default for
            // ports an operation ignores (even on a register-file-less
            // datapath).
            regs: vec![0; (total_regs as usize).max(1)],
            ram,
            rom,
            ring: vec![Vec::new(); max_latency as usize + 1],
            in_data: vec![Vec::new(); in_slots.len()],
            in_cursor: vec![0; in_slots.len()],
            out_data: vec![Vec::new(); out_slots.len()],
            out_cursor: vec![0; out_slots.len()],
            ram_writes: Vec::new(),
            rf_writes: Vec::new(),
            rf_layout,
            cycle: 0,
            frames: 0,
        })
    }

    /// Frames executed so far.
    pub fn frames_run(&self) -> u64 {
        self.frames
    }

    /// Total cycles executed so far.
    pub fn cycles_run(&self) -> u64 {
        self.cycle
    }

    /// Instruction words in the program.
    pub fn words(&self) -> usize {
        self.instr.len()
    }

    /// The actions of instruction word `word`, in field-layout order:
    /// the program exactly as [`CoreSim::step_frame`] runs it.
    ///
    /// # Panics
    ///
    /// Panics if `word` is not below [`CoreSim::words`].
    pub fn actions(&self, word: usize) -> impl ExactSizeIterator<Item = Action<'_>> {
        let (start, end) = self.instr[word];
        self.micro[start as usize..end as usize]
            .iter()
            .map(move |micro| Action { micro, sim: self })
    }

    /// The register file and index behind flat register `reg`.
    ///
    /// # Panics
    ///
    /// Panics if `reg` is not a register of the datapath.
    pub fn register_name(&self, reg: u32) -> (&str, u32) {
        let (name, base, _) = self
            .rf_layout
            .iter()
            .find(|&&(_, base, size)| reg >= base && reg - base < size)
            .expect("flat register of the datapath");
        (name, reg - base)
    }

    /// Current value of a register, for debugging.
    pub fn register(&self, rf: &str, index: u32) -> Option<i64> {
        let &(_, base, size) = self.rf_layout.iter().find(|(name, _, _)| name == rf)?;
        if index < size {
            Some(self.regs[(base + index) as usize])
        } else {
            None
        }
    }

    /// Contents of a data RAM, for debugging.
    pub fn memory(&self, opu: &str) -> Option<&[i64]> {
        let i = self.ram_names.iter().position(|n| n == opu)?;
        Some(&self.ram[i])
    }

    /// Executes one time-loop iteration (one sample frame).
    ///
    /// `inputs` are indexed by DFG input port; the returned vector by DFG
    /// output port — the same convention as the reference interpreter.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on malformed input or microcode that walks out
    /// of memory bounds.
    pub fn step_frame(&mut self, inputs: &[i64]) -> Result<Vec<i64>, SimError> {
        if inputs.len() != self.input_port_count {
            return Err(SimError::InputCount {
                got: inputs.len(),
                expected: self.input_port_count,
            });
        }
        // Queue this frame's samples per input stream, in read order.
        for q in &mut self.in_data {
            q.clear();
        }
        for c in &mut self.in_cursor {
            *c = 0;
        }
        for &(slot, port) in &self.input_plan {
            self.in_data[slot as usize].push(inputs[port]);
        }
        for q in &mut self.out_data {
            q.clear();
        }
        let ring_size = self.ring.len() as u64;
        for &(start, end) in &self.instr {
            // Writes due this cycle land before the cycle executes.
            let slot = (self.cycle % ring_size) as usize;
            for (reg, value) in self.ring[slot].drain(..) {
                self.regs[reg as usize] = value;
            }
            self.ram_writes.clear();
            self.rf_writes.clear();
            for m in &self.micro[start as usize..end as usize] {
                let a = self.regs[m.src[0] as usize];
                let b = self.regs[m.src[1] as usize];
                let result: Option<i64> = match m.op {
                    Op::InputRead => {
                        let q = &self.in_data[m.mem as usize];
                        let c = &mut self.in_cursor[m.mem as usize];
                        if *c < q.len() {
                            *c += 1;
                            Some(q[*c - 1])
                        } else {
                            return Err(SimError::InputUnderflow {
                                opu: self.opu_names[m.opu as usize].clone(),
                            });
                        }
                    }
                    Op::OutputWrite => {
                        self.out_data[m.mem as usize].push(a);
                        None
                    }
                    Op::ProgConst => Some(m.imm),
                    Op::RomConst => {
                        let image = &self.rom[m.mem as usize];
                        match image.get(m.imm as usize) {
                            Some(&v) => Some(v),
                            None => {
                                return Err(SimError::AddressOutOfRange {
                                    opu: self.opu_names[m.opu as usize].clone(),
                                    addr: m.imm,
                                })
                            }
                        }
                    }
                    Op::AcuAddMod => {
                        // addr = (V & !(M−1)) | ((fp + V) & (M−1))
                        let mask = self.region_mask;
                        Some((b & !mask) | ((a + b) & mask))
                    }
                    Op::RamRead | Op::RamWrite => {
                        let memory = &self.ram[m.mem as usize];
                        if a < 0 || a >= memory.len() as i64 {
                            return Err(SimError::AddressOutOfRange {
                                opu: self.opu_names[m.opu as usize].clone(),
                                addr: a,
                            });
                        }
                        if m.op == Op::RamWrite {
                            self.ram_writes.push((m.mem, a as u32, b));
                            None
                        } else {
                            Some(memory[a as usize])
                        }
                    }
                    Op::Mult => Some(self.format.mult(a, b)),
                    Op::Add => Some(self.format.add(a, b)),
                    Op::AddClip => Some(self.format.add_clip(a, b)),
                    Op::Sub => Some(self.format.sub(a, b)),
                    Op::Pass => Some(a),
                    Op::PassClip => Some(self.format.saturate(a)),
                    Op::Unsupported => {
                        return Err(SimError::Unsupported {
                            opu: self.opu_names[m.opu as usize].clone(),
                        })
                    }
                };
                if let Some(value) = result {
                    let due = ((self.cycle + m.latency as u64) % ring_size) as u32;
                    for &reg in &self.dest_regs[m.dests.0 as usize..m.dests.1 as usize] {
                        self.rf_writes.push((due, reg, value));
                    }
                }
            }
            // Memory and register writes land at end of cycle (same-cycle
            // reads see the old contents; a mid-cycle error above discards
            // both buffers, matching the reference).
            for &(mem, addr, data) in &self.ram_writes {
                self.ram[mem as usize][addr as usize] = data;
            }
            for &(slot, reg, value) in &self.rf_writes {
                self.ring[slot as usize].push((reg, value));
            }
            self.cycle += 1;
        }
        // Frame drain: let outstanding writes land before the next frame
        // reuses the registers? No — the time-loop re-enters immediately;
        // values crossing the frame boundary live in RAM, and in-flight
        // register writes land naturally in the next frame's early cycles.
        // Collect outputs by port.
        let mut outputs = vec![0i64; self.output_port_count];
        for c in &mut self.out_cursor {
            *c = 0;
        }
        let mut seen = 0usize;
        for &(slot, port) in &self.output_plan {
            let q = &self.out_data[slot as usize];
            let c = &mut self.out_cursor[slot as usize];
            if *c < q.len() {
                outputs[port] = q[*c];
                *c += 1;
                seen += 1;
            } else {
                return Err(SimError::MissingOutputs {
                    expected: self.output_plan.len(),
                    got: seen,
                });
            }
        }
        self.frames += 1;
        Ok(outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use dspcc_arch::DatapathBuilder;
    use dspcc_dfg::{parse, Dfg, Interpreter};
    use dspcc_encode::{allocate_registers, encode, FieldLayout, Microcode};
    use dspcc_num::WordFormat;
    use dspcc_rtgen::{lower, LowerOptions};
    use dspcc_sched::deps::DependenceGraph;
    use dspcc_sched::{list::Priority, schedule, ConflictMatrix, Fuel, Scheduler};

    /// The same small audio-style core as rtgen's tests.
    fn test_core() -> Datapath {
        DatapathBuilder::new()
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
            .output("ipb", "bus_ipb")
            .opu(OpuKind::Output, "opb_1", &[("write", 1)])
            .inputs("opb_1", &["rf_opb_1"])
            .opu(OpuKind::Output, "opb_2", &[("write", 1)])
            .inputs("opb_2", &["rf_opb_2"])
            .opu(OpuKind::Acu, "acu", &[("addmod", 1)])
            .inputs("acu", &["rf_acu_base", "rf_acu_off"])
            .output("acu", "bus_acu")
            .opu(OpuKind::Ram, "ram", &[("read", 1), ("write", 1)])
            .memory("ram", 64)
            .inputs("ram", &["rf_ram_addr", "rf_ram_data"])
            .output("ram", "bus_ram")
            .opu(OpuKind::Rom, "rom", &[("const", 1)])
            .memory("rom", 64)
            .output("rom", "bus_rom")
            .opu(OpuKind::ProgConst, "prgc", &[("const", 1)])
            .output("prgc", "bus_prgc")
            .opu(OpuKind::Mult, "mult", &[("mult", 1)])
            .inputs("mult", &["rf_mult_c", "rf_mult_x"])
            .output("mult", "bus_mult")
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
            .inputs("alu", &["rf_alu_a", "rf_alu_b"])
            .output("alu", "bus_alu")
            .write_port("rf_acu_base", &["bus_acu"])
            .write_port("rf_acu_off", &["bus_prgc"])
            .write_port("rf_ram_addr", &["bus_acu"])
            .write_port("rf_ram_data", &["bus_alu", "bus_ipb"])
            .write_port("rf_mult_c", &["bus_rom", "bus_prgc"])
            .write_port("rf_mult_x", &["bus_ram", "bus_ipb", "bus_alu"])
            .write_port(
                "rf_alu_a",
                &["bus_mult", "bus_ram", "bus_ipb", "bus_prgc", "bus_alu"],
            )
            .write_port("rf_alu_b", &["bus_alu", "bus_mult", "bus_ram"])
            .write_port("rf_opb_1", &["bus_alu"])
            .write_port("rf_opb_2", &["bus_alu"])
            .build()
            .unwrap()
    }

    /// Full pipeline: source → microcode + simulator.
    fn compile(src: &str) -> (Datapath, Dfg, Microcode) {
        let dp = test_core();
        let dfg = Dfg::build(&parse(src).unwrap()).unwrap();
        let lowering = lower(&dfg, &dp, &LowerOptions::default()).unwrap();
        let deps =
            DependenceGraph::build_with_edges(&lowering.program, &lowering.sequence_edges).unwrap();
        let matrix = ConflictMatrix::build(&lowering.program);
        let list = Scheduler::List {
            priority: Priority::Slack,
        };
        let mut fuel = Fuel::unlimited();
        let schedule = schedule(
            &lowering.program,
            &deps,
            &matrix,
            list,
            None,
            &mut fuel,
            None,
        )
        .unwrap()
        .schedule;
        schedule.verify(&lowering.program, &deps).unwrap();
        let format = WordFormat::q15();
        let pinned = vec![lowering.fp_reg.clone()];
        let assignment = allocate_registers(&lowering.program, &schedule, &dp, &pinned).unwrap();
        let layout = FieldLayout::derive(&dp, format);
        let words = encode(
            &lowering.program,
            &assignment.registers,
            &schedule,
            &layout,
            &lowering.immediates,
            format,
        )
        .unwrap();
        let microcode = Microcode {
            words,
            layout: Arc::new(layout),
            rom_image: lowering
                .rom_image
                .iter()
                .map(|&v| format.from_f64(v))
                .collect(),
            region_size: lowering.ram_layout.region_size,
            output_order: lowering.output_order.clone(),
            input_order: lowering.input_order.clone(),
            word_format: format,
        };
        (dp, dfg, microcode)
    }

    fn differential(src: &str, frames: &[Vec<i64>]) {
        let (dp, dfg, microcode) = compile(src);
        let mut sim = CoreSim::new(&dp, &microcode).unwrap();
        let mut interp = Interpreter::new(&dfg, WordFormat::q15());
        for (i, frame) in frames.iter().enumerate() {
            let expected = interp.step(frame);
            let got = sim.step_frame(frame).unwrap();
            assert_eq!(got, expected, "frame {i} diverged for source:\n{src}");
        }
    }

    #[test]
    fn passthrough_matches_interpreter() {
        differential(
            "input u; output y; y = pass(u);",
            &[vec![123], vec![-456], vec![0], vec![32767]],
        );
    }

    #[test]
    fn arithmetic_matches_interpreter() {
        differential(
            "input u; coeff k = 0.5; output y; y = add_clip(mlt(k, u), u);",
            &[vec![1000], vec![-2000], vec![32767], vec![-32768]],
        );
    }

    #[test]
    fn unit_delay_matches_interpreter() {
        differential(
            "input u; output y; y = pass(u@1);",
            &[vec![11], vec![22], vec![33], vec![44], vec![55]],
        );
    }

    #[test]
    fn deep_delay_matches_interpreter() {
        differential(
            "input u; output y; y = pass(u@3);",
            &(0..10).map(|i| vec![i * 100]).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn feedback_signal_matches_interpreter() {
        // First-order IIR: s = u/2 + s@1/2.
        differential(
            "input u; signal s; coeff a = 0.5; coeff b = 0.5; output y;
             s = add(mlt(a, u), mlt(b, s@1));
             y = pass_clip(s);",
            &(0..12)
                .map(|i| vec![(i % 5) * 1000 - 2000])
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn treble_section_matches_interpreter() {
        let src = "
            input u; signal v; output y;
            coeff d1 = 0.25; coeff d2 = 0.125; coeff e1 = -0.5;
            x0 := u@2;
            m  := mlt(d2, x0);
            a  := pass(m);
            x2 := v@1;
            m  := mlt(e1, x2);
            a  := add(m, a);
            x1 := u@1;
            m  := mlt(d1, x1);
            rd := add_clip(m, a);
            v  = rd;
            y  = rd;";
        differential(
            src,
            &(0..16)
                .map(|i| vec![if i == 0 { 20000 } else { 0 }])
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn two_inputs_two_outputs_match() {
        differential(
            "input l; input r; output yl; output yr;
             yl = add(l, r); yr = sub(l, r);",
            &[vec![100, 30], vec![-5, 7], vec![32000, 32000]],
        );
    }

    #[test]
    fn multiple_frames_accumulate_state() {
        // Running average keeps internal RAM state across many frames.
        differential(
            "input u; signal s; coeff h = 0.5; output y;
             s = add(mlt(h, s@1), mlt(h, u)); y = s;",
            &(0..32)
                .map(|i| vec![(i * 37 % 101) * 10])
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn input_arity_surface_matches_interpreter() {
        // The golden model (Interpreter::try_step) and the microcode
        // executor (CoreSim::step_frame) must agree on *which* frames are
        // malformed, not only on outputs: for every arity, both error or
        // both succeed, with identical got/expected counts.
        let (dp, dfg, microcode) = compile(
            "input l; input r; output y; y = add(l, r);
             /* two ports so arity 0,1,3,4 are all wrong */",
        );
        let mut sim = CoreSim::new(&dp, &microcode).unwrap();
        let mut interp = Interpreter::new(&dfg, WordFormat::q15());
        for arity in 0..5usize {
            let frame = vec![7i64; arity];
            let golden = interp.try_step(&frame);
            let micro = sim.step_frame(&frame);
            match (golden, micro) {
                (Ok(expected), Ok(got)) => {
                    assert_eq!(arity, 2);
                    assert_eq!(got, expected);
                }
                (
                    Err(dspcc_dfg::StepError::InputCount {
                        got: g0,
                        expected: e0,
                    }),
                    Err(SimError::InputCount {
                        got: g1,
                        expected: e1,
                    }),
                ) => {
                    assert_eq!((g0, e0), (g1, e1), "arity {arity}");
                    assert_eq!(g0, arity);
                }
                (g, m) => panic!("arity {arity}: surfaces disagree: {g:?} vs {m:?}"),
            }
        }
        // Neither side consumed state on the malformed frames: the counts
        // advanced once (the single well-formed frame).
        assert_eq!(sim.frames_run(), 1);
        assert_eq!(interp.frames_run(), 1);
    }

    #[test]
    fn input_underflow_reported() {
        // Tampered IO plan: the program reads two samples from the IPB but
        // the input order claims only one — the second read underflows.
        let (dp, _, mut microcode) = compile(
            "input l; input r; output y; y = add(l, r);
             /* both inputs arrive through the single ipb */",
        );
        assert_eq!(microcode.input_order.len(), 2);
        microcode.input_order.truncate(1);
        let mut sim = CoreSim::new(&dp, &microcode).unwrap();
        let err = sim.step_frame(&[5]).unwrap_err();
        assert_eq!(
            err,
            SimError::InputUnderflow {
                opu: "ipb".to_owned()
            }
        );
        assert!(err.to_string().contains("past the end"));
    }

    #[test]
    fn missing_outputs_reported() {
        // Tampered IO plan: the output order expects one more write than
        // the program performs.
        let (dp, _, mut microcode) = compile("input u; output y; y = pass(u);");
        microcode.output_order.push(("opb_1".to_owned(), 1));
        let mut sim = CoreSim::new(&dp, &microcode).unwrap();
        let err = sim.step_frame(&[5]).unwrap_err();
        assert_eq!(
            err,
            SimError::MissingOutputs {
                expected: 2,
                got: 1
            }
        );
        assert!(err.to_string().contains("expected 2"));
    }

    #[test]
    fn ram_address_out_of_range_reported() {
        // Valid microcode for a 64-word RAM executed on a datapath whose
        // RAM shrank to 2 words: the delay-line region walks out of
        // bounds. Both the fast path and the reference report it (and
        // agree), leaving the frame uncommitted.
        let (_, _, microcode) = compile("input u; output y; y = pass(u@3);");
        let small = {
            let mut b = DatapathBuilder::new();
            b = b
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
                .opu(OpuKind::Output, "opb_2", &[("write", 1)])
                .opu(OpuKind::Acu, "acu", &[("addmod", 1)])
                .opu(OpuKind::Ram, "ram", &[("read", 1), ("write", 1)])
                .opu(OpuKind::Rom, "rom", &[("const", 1)])
                .opu(OpuKind::ProgConst, "prgc", &[("const", 1)])
                .opu(OpuKind::Mult, "mult", &[("mult", 1)])
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
                );
            b = b
                .output("ipb", "bus_ipb")
                .inputs("opb_1", &["rf_opb_1"])
                .inputs("opb_2", &["rf_opb_2"])
                .inputs("acu", &["rf_acu_base", "rf_acu_off"])
                .output("acu", "bus_acu")
                .memory("ram", 2)
                .inputs("ram", &["rf_ram_addr", "rf_ram_data"])
                .output("ram", "bus_ram")
                .memory("rom", 64)
                .output("rom", "bus_rom")
                .output("prgc", "bus_prgc")
                .inputs("mult", &["rf_mult_c", "rf_mult_x"])
                .output("mult", "bus_mult")
                .inputs("alu", &["rf_alu_a", "rf_alu_b"])
                .output("alu", "bus_alu")
                .write_port("rf_acu_base", &["bus_acu"])
                .write_port("rf_acu_off", &["bus_prgc"])
                .write_port("rf_ram_addr", &["bus_acu"])
                .write_port("rf_ram_data", &["bus_alu", "bus_ipb"])
                .write_port("rf_mult_c", &["bus_rom", "bus_prgc"])
                .write_port("rf_mult_x", &["bus_ram", "bus_ipb", "bus_alu"])
                .write_port(
                    "rf_alu_a",
                    &["bus_mult", "bus_ram", "bus_ipb", "bus_prgc", "bus_alu"],
                )
                .write_port("rf_alu_b", &["bus_alu", "bus_mult", "bus_ram"])
                .write_port("rf_opb_1", &["bus_alu"])
                .write_port("rf_opb_2", &["bus_alu"]);
            b.build().unwrap()
        };
        let mut fast = CoreSim::new(&small, &microcode).unwrap();
        let mut oracle = reference::ReferenceSim::new(&small, &microcode).unwrap();
        let fe = fast.step_frame(&[1]).unwrap_err();
        let oe = oracle.step_frame(&[1]).unwrap_err();
        assert!(
            matches!(fe, SimError::AddressOutOfRange { ref opu, .. } if opu == "ram"),
            "{fe}"
        );
        assert_eq!(fe, oe, "fast path and reference disagree on the error");
        assert!(fe.to_string().contains("out of range"));
    }

    #[test]
    fn unsupported_unit_reported() {
        // The same microcode executed on a datapath whose ALU became an
        // application-specific unit: decode still resolves the action but
        // execution has no semantics for it.
        let (dp, _, microcode) = compile("input u; output y; y = pass(u);");
        let mut b = DatapathBuilder::new();
        for rf in dp.register_files() {
            b = b.register_file(rf.name(), rf.size());
        }
        for opu in dp.opus() {
            let ops: Vec<(&str, u32)> = opu.ops().collect();
            let kind = if opu.name() == "alu" {
                OpuKind::Asu
            } else {
                opu.kind()
            };
            b = b.opu(kind, opu.name(), &ops);
            let inputs: Vec<&str> = opu.inputs().iter().map(String::as_str).collect();
            if !inputs.is_empty() {
                b = b.inputs(opu.name(), &inputs);
            }
            if let Some(bus) = opu.output_bus() {
                b = b.output(opu.name(), bus);
            }
            if opu.memory_size() > 0 {
                b = b.memory(opu.name(), opu.memory_size());
            }
        }
        for rf in dp.register_files() {
            let buses: Vec<&str> = rf.write_buses().iter().map(String::as_str).collect();
            if !buses.is_empty() {
                b = b.write_port(rf.name(), &buses);
            }
        }
        let asu_dp = b.build().unwrap();
        let mut sim = CoreSim::new(&asu_dp, &microcode).unwrap();
        let err = sim.step_frame(&[5]).unwrap_err();
        assert_eq!(
            err,
            SimError::Unsupported {
                opu: "alu".to_owned()
            }
        );
        assert!(err.to_string().contains("no semantics"));
    }

    #[test]
    fn wrong_input_count_errors() {
        let (dp, _, microcode) = compile("input u; output y; y = pass(u);");
        let mut sim = CoreSim::new(&dp, &microcode).unwrap();
        let err = sim.step_frame(&[1, 2]).unwrap_err();
        assert!(matches!(
            err,
            SimError::InputCount {
                got: 2,
                expected: 1
            }
        ));
        assert!(err.to_string().contains("expected 1"));
    }

    #[test]
    fn frames_and_cycles_counted() {
        let (dp, _, microcode) = compile("input u; output y; y = pass(u);");
        let len = microcode.len() as u64;
        let mut sim = CoreSim::new(&dp, &microcode).unwrap();
        sim.step_frame(&[1]).unwrap();
        sim.step_frame(&[2]).unwrap();
        assert_eq!(sim.frames_run(), 2);
        assert_eq!(sim.cycles_run(), 2 * len);
    }

    #[test]
    fn decoded_view_matches_the_encoded_words() {
        let (dp, _, microcode) = compile(
            "input u; signal s; coeff a = 0.5; coeff b = 0.5; output y;
             s = add(mlt(a, u), mlt(b, s@1));
             y = pass_clip(s);",
        );
        let sim = CoreSim::new(&dp, &microcode).unwrap();
        assert_eq!(sim.words(), microcode.words.len());
        let mut ops = Vec::new();
        for (w, word) in microcode.words.iter().enumerate() {
            let decoded = decode(word, &microcode.layout, microcode.word_format).unwrap();
            assert_eq!(sim.actions(w).len(), decoded.actions.len());
            for (action, d) in sim.actions(w).zip(&decoded.actions) {
                let spec = dp.opu(&d.opu).unwrap();
                assert_eq!(action.opu_name(), d.opu);
                let names = |regs: &[u32]| -> Vec<(String, u32)> {
                    regs.iter()
                        .map(|&r| sim.register_name(r))
                        .map(|(rf, i)| (rf.to_owned(), i))
                        .collect()
                };
                // Only the ports the executor reads, by port.
                let read = match action.op() {
                    Op::InputRead | Op::ProgConst | Op::RomConst => 0,
                    Op::OutputWrite | Op::RamRead | Op::Pass | Op::PassClip => 1,
                    _ => 2,
                };
                let ports: Vec<(String, u32)> = spec
                    .inputs()
                    .iter()
                    .cloned()
                    .zip(d.operand_regs.iter().copied())
                    .take(read)
                    .collect();
                assert_eq!(names(action.reads()), ports);
                assert_eq!(names(action.writes()), d.dests);
                assert_eq!(action.latency(), spec.latency_of(&d.op).unwrap().max(1));
                let expected = match action.op() {
                    Op::ProgConst => d.imm,
                    Op::RomConst => Some(microcode.rom_image[d.imm.unwrap() as usize]),
                    _ => None,
                };
                assert_eq!(action.constant(), expected);
                ops.push(action.op());
            }
        }
        for op in [
            Op::InputRead,
            Op::OutputWrite,
            Op::AcuAddMod,
            Op::RamRead,
            Op::RamWrite,
            Op::Mult,
            Op::Add,
            Op::PassClip,
        ] {
            assert!(ops.contains(&op), "{op:?} missing from the program");
        }
    }

    #[test]
    fn register_inspection() {
        let (dp, _, microcode) = compile("input u; output y; y = pass(u@1);");
        let mut sim = CoreSim::new(&dp, &microcode).unwrap();
        sim.step_frame(&[5]).unwrap();
        // The frame pointer lives in rf_acu_base register 0 and stepped
        // once: (0 + M-1) mod M = region_size - 1.
        let fp = sim.register("rf_acu_base", 0).unwrap();
        assert_eq!(fp, microcode.region_size as i64 - 1);
        assert_eq!(sim.register("rf_ghost", 0), None);
    }

    #[test]
    fn predecoded_matches_reference_cycle_for_cycle() {
        // The fast path and the decode-per-cycle oracle agree on outputs,
        // every register file, and every RAM word after every frame.
        let (dp, _, microcode) = compile(
            "input u; signal s; coeff a = 0.5; coeff b = 0.25; output y;
             s = add(mlt(a, u), mlt(b, s@1));
             y = pass_clip(s);",
        );
        let mut fast = CoreSim::new(&dp, &microcode).unwrap();
        let mut oracle = reference::ReferenceSim::new(&dp, &microcode).unwrap();
        for i in 0..24i64 {
            let frame = vec![(i * 997) % 30000 - 15000];
            assert_eq!(
                fast.step_frame(&frame).unwrap(),
                oracle.step_frame(&frame).unwrap(),
                "outputs diverged at frame {i}"
            );
            assert_eq!(fast.cycles_run(), oracle.cycles_run());
            for rf in dp.register_files() {
                for r in 0..rf.size() {
                    assert_eq!(
                        fast.register(rf.name(), r),
                        oracle.register(rf.name(), r),
                        "register {}[{r}] diverged at frame {i}",
                        rf.name()
                    );
                }
            }
            assert_eq!(fast.memory("ram"), oracle.memory("ram"));
        }
    }
}
