//! Derivation of the VLIW word format from the datapath.
//!
//! Every OPU owns one field of the instruction word:
//!
//! ```text
//! | opcode | operand reg addr per input port | per writable RF: en + reg addr | imm |
//! ```
//!
//! Opcode 0 is reserved for "no operation on this unit", so the all-zero
//! word is the NOP instruction (construction rule 1 for free). The
//! destination sub-fields cover every register file reachable from the
//! unit's output bus; the write-enable bit doubles as the multiplexer
//! select at the register file (only one unit may assert a write per file
//! per cycle — guaranteed by the write-port resource conflicts).
//!
//! Unit and register-file names are interned when the layout is derived
//! (`opu_id`, `rf_id`), so the encoder matches RTs to fields and registers
//! to sub-fields by integer compare.

use std::fmt;

use dspcc_arch::{Datapath, OpuKind};
use dspcc_ir::Resource;
use dspcc_num::WordFormat;

/// What an OPU's immediate field holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImmKind {
    /// A program constant: a full datapath word inside the instruction.
    ProgConst,
    /// An address into the coefficient ROM.
    RomAddr,
}

/// An operand sub-field: the register address read from one input port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperandSpec {
    /// Register file feeding the port.
    pub rf: String,
    /// `rf`, interned.
    pub rf_id: Resource,
    /// Bit offset within the word.
    pub offset: u32,
    /// Field width.
    pub bits: u32,
}

/// A destination sub-field: write-enable plus register address for one
/// reachable register file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DestSpec {
    /// The destination register file.
    pub rf: String,
    /// `rf`, interned.
    pub rf_id: Resource,
    /// Bit offset of the write-enable bit.
    pub enable_offset: u32,
    /// Bit offset of the register address.
    pub addr_offset: u32,
    /// Register-address width.
    pub addr_bits: u32,
}

/// One OPU's field in the instruction word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpuField {
    /// The OPU.
    pub opu: String,
    /// `opu`, interned: the resource an RT must use to claim this field.
    pub opu_id: Resource,
    /// Its kind (fixes simulation semantics).
    pub kind: OpuKind,
    /// Operation names; opcode `i+1` encodes `ops[i]`, opcode 0 is NOP.
    pub ops: Vec<String>,
    /// Offset of the opcode sub-field.
    pub opcode_offset: u32,
    /// Width of the opcode sub-field.
    pub opcode_bits: u32,
    /// Operand sub-fields in input-port order.
    pub operands: Vec<OperandSpec>,
    /// Destination sub-fields for every register file on the output bus.
    pub dests: Vec<DestSpec>,
    /// Immediate sub-field `(offset, bits, kind)` for constant units.
    pub imm: Option<(u32, u32, ImmKind)>,
}

impl OpuField {
    /// Index of `op` in the opcode encoding (1-based; 0 is NOP).
    pub fn opcode_of(&self, op: &str) -> Option<u64> {
        self.ops.iter().position(|o| o == op).map(|i| i as u64 + 1)
    }
}

/// The complete word format: one field per OPU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldLayout {
    fields: Vec<OpuField>,
    width: u32,
}

impl FieldLayout {
    /// Derives the word format for `dp` with datapath word width taken
    /// from `format` (for program-constant immediates).
    pub fn derive(dp: &Datapath, format: WordFormat) -> FieldLayout {
        let mut fields = Vec::new();
        let mut cursor = 0u32;
        for opu in dp.opus() {
            let ops: Vec<String> = opu.ops().map(|(o, _)| o.to_owned()).collect();
            let opcode_bits = width_for(ops.len() as u32 + 1);
            let opcode_offset = cursor;
            cursor += opcode_bits;
            let mut operands = Vec::new();
            for rf in opu.inputs() {
                let size = dp.register_file(rf).expect("validated rf").size();
                let bits = width_for(size);
                operands.push(OperandSpec {
                    rf: rf.clone(),
                    rf_id: Resource::new(rf),
                    offset: cursor,
                    bits,
                });
                cursor += bits;
            }
            let mut dests = Vec::new();
            if let Some(bus) = opu.output_bus() {
                for rf in dp.rfs_written_from(bus) {
                    let addr_bits = width_for(rf.size());
                    dests.push(DestSpec {
                        rf: rf.name().to_owned(),
                        rf_id: Resource::new(rf.name()),
                        enable_offset: cursor,
                        addr_offset: cursor + 1,
                        addr_bits,
                    });
                    cursor += 1 + addr_bits;
                }
            }
            let imm = match opu.kind() {
                OpuKind::ProgConst => {
                    let bits = format.width();
                    let spec = (cursor, bits, ImmKind::ProgConst);
                    cursor += bits;
                    Some(spec)
                }
                OpuKind::Rom => {
                    let bits = width_for(opu.memory_size());
                    let spec = (cursor, bits, ImmKind::RomAddr);
                    cursor += bits;
                    Some(spec)
                }
                _ => None,
            };
            fields.push(OpuField {
                opu: opu.name().to_owned(),
                opu_id: Resource::new(opu.name()),
                kind: opu.kind(),
                ops,
                opcode_offset,
                opcode_bits,
                operands,
                dests,
                imm,
            });
        }
        FieldLayout {
            fields,
            width: cursor,
        }
    }

    /// Total word width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// All fields in OPU declaration order.
    pub fn fields(&self) -> &[OpuField] {
        &self.fields
    }

    /// The field of a given OPU.
    pub fn field(&self, opu: &str) -> Option<&OpuField> {
        self.fields.iter().find(|f| f.opu == opu)
    }
}

impl fmt::Display for FieldLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "word format: {} bits", self.width)?;
        for field in &self.fields {
            let end = field
                .imm
                .map(|(o, b, _)| o + b)
                .or_else(|| field.dests.last().map(|d| d.addr_offset + d.addr_bits))
                .or_else(|| field.operands.last().map(|o| o.offset + o.bits))
                .unwrap_or(field.opcode_offset + field.opcode_bits);
            writeln!(
                f,
                "  {:<10} bits {:>3}..{:<3} opcode({}) operands({}) dests({}){}",
                field.opu,
                field.opcode_offset,
                end,
                field.ops.len(),
                field.operands.len(),
                field.dests.len(),
                if field.imm.is_some() { " imm" } else { "" }
            )?;
        }
        Ok(())
    }
}

fn width_for(n: u32) -> u32 {
    if n <= 1 {
        0
    } else {
        32 - (n - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspcc_arch::DatapathBuilder;

    fn dp() -> Datapath {
        DatapathBuilder::new()
            .register_file("rf_a", 8)
            .register_file("rf_b", 4)
            .opu(OpuKind::Alu, "alu", &[("add", 1), ("sub", 1), ("pass", 1)])
            .inputs("alu", &["rf_a", "rf_b"])
            .output("alu", "bus_alu")
            .opu(OpuKind::ProgConst, "prgc", &[("const", 1)])
            .output("prgc", "bus_prgc")
            .opu(OpuKind::Rom, "rom", &[("const", 1)])
            .memory("rom", 32)
            .output("rom", "bus_rom")
            .write_port("rf_a", &["bus_alu", "bus_prgc", "bus_rom"])
            .write_port("rf_b", &["bus_alu"])
            .build()
            .unwrap()
    }

    #[test]
    fn field_sizes() {
        let layout = FieldLayout::derive(&dp(), WordFormat::q15());
        let alu = layout.field("alu").unwrap();
        assert_eq!(alu.opcode_bits, 2); // 3 ops + nop
        assert_eq!(alu.operands[0].bits, 3); // 8 registers
        assert_eq!(alu.operands[1].bits, 2); // 4 registers
        assert_eq!(alu.dests.len(), 2); // rf_a and rf_b on bus_alu
        let prgc = layout.field("prgc").unwrap();
        assert_eq!(prgc.opcode_bits, 1);
        let (_, bits, kind) = prgc.imm.unwrap();
        assert_eq!(bits, 16);
        assert_eq!(kind, ImmKind::ProgConst);
        let rom = layout.field("rom").unwrap();
        let (_, bits, kind) = rom.imm.unwrap();
        assert_eq!(bits, 5); // 32 words
        assert_eq!(kind, ImmKind::RomAddr);
    }

    #[test]
    fn fields_do_not_overlap() {
        let layout = FieldLayout::derive(&dp(), WordFormat::q15());
        let mut intervals: Vec<(u32, u32)> = Vec::new();
        for f in layout.fields() {
            intervals.push((f.opcode_offset, f.opcode_bits));
            for o in &f.operands {
                intervals.push((o.offset, o.bits));
            }
            for d in &f.dests {
                intervals.push((d.enable_offset, 1));
                intervals.push((d.addr_offset, d.addr_bits));
            }
            if let Some((o, b, _)) = f.imm {
                intervals.push((o, b));
            }
        }
        intervals.retain(|&(_, b)| b > 0);
        intervals.sort();
        for w in intervals.windows(2) {
            assert!(
                w[0].0 + w[0].1 <= w[1].0,
                "fields overlap: {:?} and {:?}",
                w[0],
                w[1]
            );
        }
        let (last_off, last_bits) = *intervals.last().unwrap();
        assert!(last_off + last_bits <= layout.width());
    }

    #[test]
    fn opcode_of_is_one_based() {
        let layout = FieldLayout::derive(&dp(), WordFormat::q15());
        let alu = layout.field("alu").unwrap();
        // Ops are stored sorted: add, pass, sub.
        assert_eq!(alu.opcode_of("add"), Some(1));
        assert_eq!(alu.opcode_of("pass"), Some(2));
        assert_eq!(alu.opcode_of("sub"), Some(3));
        assert_eq!(alu.opcode_of("mult"), None);
    }

    #[test]
    fn display_mentions_width_and_fields() {
        let layout = FieldLayout::derive(&dp(), WordFormat::q15());
        let s = layout.to_string();
        assert!(s.contains("word format"));
        assert!(s.contains("alu"));
        assert!(s.contains("imm"));
    }

    #[test]
    fn width_for_edge_cases() {
        assert_eq!(width_for(0), 0);
        assert_eq!(width_for(1), 0);
        assert_eq!(width_for(2), 1);
        assert_eq!(width_for(3), 2);
        assert_eq!(width_for(8), 3);
        assert_eq!(width_for(9), 4);
    }
}
