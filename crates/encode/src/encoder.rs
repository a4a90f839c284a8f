//! Encoding schedules into instruction words and decoding them back.

use std::collections::BTreeMap;
use std::fmt;

use dspcc_arch::OpuKind;
use dspcc_ir::{Program, RegRef, Rt, RtId};
use dspcc_num::WordFormat;
use dspcc_rtgen::Immediate;
use dspcc_sched::Schedule;

use crate::layout::{FieldLayout, ImmKind, OpuField};
use crate::regalloc::RegisterMap;
use crate::word::Word;

/// Encoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// An RT uses no OPU known to the word format.
    UnknownOpu {
        /// The RT's diagnostic name.
        rt: String,
    },
    /// An RT reads or writes a virtual register the register map does
    /// not assign.
    Unallocated {
        /// The RT's diagnostic name.
        rt: String,
        /// The register file.
        rf: String,
        /// The virtual index.
        index: u32,
    },
    /// An RT's operation is not in its OPU's opcode table.
    UnknownOp {
        /// The OPU.
        opu: String,
        /// The operation.
        op: String,
    },
    /// Two non-identical RTs target the same OPU field in one cycle.
    FieldClash {
        /// The OPU.
        opu: String,
        /// The cycle.
        cycle: u32,
    },
    /// A destination register file is not reachable from the OPU's bus.
    BadDest {
        /// The OPU.
        opu: String,
        /// The register file.
        rf: String,
    },
    /// A constant RT has no recorded immediate.
    MissingImmediate {
        /// The RT's diagnostic name.
        rt: String,
    },
    /// An immediate does not fit its field.
    ImmediateOverflow {
        /// The OPU.
        opu: String,
        /// The value.
        value: i64,
        /// Field width.
        bits: u32,
    },
    /// [`decode`] met an opcode past the field's operation table — a
    /// word no encoder produced (corrupted or hand-forged microcode).
    BadOpcode {
        /// The OPU whose field held the opcode.
        opu: String,
        /// The out-of-table opcode value.
        opcode: u64,
    },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::UnknownOpu { rt } => write!(f, "RT `{rt}` uses no known OPU"),
            EncodeError::Unallocated { rt, rf, index } => {
                write!(
                    f,
                    "RT `{rt}` uses virtual register {index} of `{rf}`, which the \
                     register map does not assign"
                )
            }
            EncodeError::UnknownOp { opu, op } => {
                write!(f, "`{op}` is not an opcode of `{opu}`")
            }
            EncodeError::FieldClash { opu, cycle } => {
                write!(f, "two RTs fight over `{opu}`'s field in cycle {cycle}")
            }
            EncodeError::BadDest { opu, rf } => {
                write!(f, "`{opu}` cannot write register file `{rf}`")
            }
            EncodeError::MissingImmediate { rt } => {
                write!(f, "constant RT `{rt}` has no immediate")
            }
            EncodeError::ImmediateOverflow { opu, value, bits } => {
                write!(f, "immediate {value} of `{opu}` overflows {bits} bits")
            }
            EncodeError::BadOpcode { opu, opcode } => {
                write!(f, "opcode {opcode} of `{opu}` is past its operation table")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// Encodes a scheduled program into instruction words (one per cycle,
/// including NOP cycles), reading each register through `registers`: the
/// program may be virtual, and the map says where its registers live. The
/// empty map encodes a program that is physical throughout.
///
/// # Errors
///
/// Returns [`EncodeError`] on any mismatch between RTs and the word
/// format — all of which indicate earlier pipeline bugs, not user errors.
pub fn encode(
    program: &Program,
    registers: &RegisterMap,
    schedule: &Schedule,
    layout: &FieldLayout,
    immediates: &BTreeMap<RtId, Immediate>,
    format: WordFormat,
) -> Result<Vec<Word>, EncodeError> {
    let fields = layout.fields();
    let mut words = Vec::with_capacity(schedule.length() as usize);
    // Per cycle, which fields an RT already wrote into the word. A later
    // RT on a claimed field is encoded into `scratch` and must match the
    // field's bits in the word (identical RTs may share a cycle).
    let mut claimed = vec![false; fields.len()];
    let mut scratch = Word::new(layout.width());
    for (cycle, instr) in schedule.instructions() {
        let mut word = Word::new(layout.width());
        claimed.fill(false);
        for &rt_id in instr {
            let rt = program.rt(rt_id);
            let (fidx, usage) = fields
                .iter()
                .enumerate()
                .find_map(|(i, f)| rt.usage_id_of(f.opu_id).map(|u| (i, u)))
                .ok_or_else(|| EncodeError::UnknownOpu {
                    rt: rt.name().to_owned(),
                })?;
            let field = &fields[fidx];
            let op = usage.get().op();
            let imm = immediates.get(&rt_id);
            if !claimed[fidx] {
                encode_rt(rt, registers, field, op, imm, format, &mut word)?;
                claimed[fidx] = true;
                continue;
            }
            encode_rt(rt, registers, field, op, imm, format, &mut scratch)?;
            let mut same = true;
            for_each_subfield(field, |offset, bits| {
                same &= scratch.bits(offset, bits) == word.bits(offset, bits);
                scratch.set_bits(offset, bits, 0);
            });
            if !same {
                return Err(EncodeError::FieldClash {
                    opu: field.opu.clone(),
                    cycle,
                });
            }
        }
        words.push(word);
    }
    Ok(words)
}

/// Visits every sub-field of `field` that has bits, as `(offset, bits)`.
fn for_each_subfield(field: &OpuField, mut visit: impl FnMut(u32, u32)) {
    let mut sub = |offset: u32, bits: u32| {
        if bits > 0 {
            visit(offset, bits);
        }
    };
    sub(field.opcode_offset, field.opcode_bits);
    for o in &field.operands {
        sub(o.offset, o.bits);
    }
    for d in &field.dests {
        sub(d.enable_offset, 1);
        sub(d.addr_offset, d.addr_bits);
    }
    if let Some((offset, bits, _)) = field.imm {
        sub(offset, bits);
    }
}

pub(crate) fn merge_field(word: &mut Word, scratch: &Word, field: &OpuField) {
    for_each_subfield(field, |offset, bits| {
        word.set_bits(offset, bits, scratch.bits(offset, bits));
    });
}

/// Writes one RT's opcode `op`, its registers and its immediate `imm`
/// into `field` of `word`, whose bits in that field must be zero.
fn encode_rt(
    rt: &Rt,
    registers: &RegisterMap,
    field: &OpuField,
    op: &str,
    imm: Option<&Immediate>,
    format: WordFormat,
    word: &mut Word,
) -> Result<(), EncodeError> {
    let opcode = field.opcode_of(op).ok_or_else(|| EncodeError::UnknownOp {
        opu: field.opu.clone(),
        op: op.to_owned(),
    })?;
    if field.opcode_bits > 0 {
        word.set_bits(field.opcode_offset, field.opcode_bits, opcode);
    }
    let physical = |reg: &RegRef| {
        registers
            .physical(reg)
            .ok_or_else(|| EncodeError::Unallocated {
                rt: rt.name().to_owned(),
                rf: reg.rf().name().to_owned(),
                index: reg.index(),
            })
    };
    // Operands: each input port reads the first operand from its register
    // file that an earlier port has not taken, so the k-th port on a file
    // reads the k-th operand from it (source order == port order when
    // files coincide).
    for (port, spec) in field.operands.iter().enumerate() {
        let rank = field.operands[..port]
            .iter()
            .filter(|earlier| earlier.rf_id == spec.rf_id)
            .count();
        let operand = rt
            .operands()
            .iter()
            .filter(|o| *o.rf() == spec.rf_id)
            .nth(rank);
        if let Some(reg) = operand {
            let index = physical(reg)?;
            if spec.bits > 0 {
                word.set_bits(spec.offset, spec.bits, u64::from(index));
            }
        }
    }
    // Destinations.
    for dest in rt.dests() {
        let spec = field
            .dests
            .iter()
            .find(|d| d.rf_id == *dest.rf())
            .ok_or_else(|| EncodeError::BadDest {
                opu: field.opu.clone(),
                rf: dest.rf().name().to_owned(),
            })?;
        let index = physical(dest)?;
        word.set_bits(spec.enable_offset, 1, 1);
        if spec.addr_bits > 0 {
            word.set_bits(spec.addr_offset, spec.addr_bits, u64::from(index));
        }
    }
    // Immediate.
    if let Some((offset, bits, kind)) = field.imm {
        let imm = imm.ok_or_else(|| EncodeError::MissingImmediate {
            rt: rt.name().to_owned(),
        })?;
        let raw: i64 = match (imm, kind) {
            (Immediate::Fixed(v), ImmKind::ProgConst) => format.from_f64(*v),
            (Immediate::Raw(v), ImmKind::ProgConst) => *v,
            (Immediate::RomAddr(a), ImmKind::RomAddr) => *a as i64,
            (other, k) => {
                unreachable!("immediate {other:?} in {k:?} field of `{}`", field.opu)
            }
        };
        let mask = if bits >= 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        };
        let encoded = (raw as u64) & mask;
        // Reject true overflow (sign-extension round trip must hold).
        let back = decode_imm(encoded, bits, kind, format);
        if back != raw {
            return Err(EncodeError::ImmediateOverflow {
                opu: field.opu.clone(),
                value: raw,
                bits,
            });
        }
        word.set_bits(offset, bits, encoded);
    }
    Ok(())
}

pub(crate) fn decode_imm_raw(encoded: u64, bits: u32, kind: ImmKind, format: WordFormat) -> i64 {
    decode_imm(encoded, bits, kind, format)
}

fn decode_imm(encoded: u64, bits: u32, kind: ImmKind, format: WordFormat) -> i64 {
    match kind {
        ImmKind::RomAddr => encoded as i64,
        ImmKind::ProgConst => {
            // Two's complement sign extension at the datapath word width.
            let _ = format;
            let sign = 1u64 << (bits - 1);
            if encoded & sign != 0 {
                (encoded as i64) - (1i64 << bits)
            } else {
                encoded as i64
            }
        }
    }
}

/// One OPU's decoded activity in a cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpuAction {
    /// The OPU.
    pub opu: String,
    /// Its kind.
    pub kind: OpuKind,
    /// Decoded operation name.
    pub op: String,
    /// Operand register index per input port (0 for unused ports).
    pub operand_regs: Vec<u32>,
    /// Enabled destinations `(register file, register)`.
    pub dests: Vec<(String, u32)>,
    /// Decoded immediate (sign-extended for program constants).
    pub imm: Option<i64>,
}

/// A fully decoded instruction word.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DecodedInstruction {
    /// Active OPUs this cycle (NOP units omitted).
    pub actions: Vec<OpuAction>,
}

/// Decodes one instruction word.
///
/// # Errors
///
/// [`EncodeError::BadOpcode`] when a field holds an opcode past its
/// operation table — a word that no encoder produced (corrupted or
/// hand-forged microcode). Well-formed words always decode: the opcode
/// field is `ceil(log2(ops+1))` bits, so only the unused tail encodings
/// of a non-power-of-two table can trigger this.
pub fn decode(
    word: &Word,
    layout: &FieldLayout,
    format: WordFormat,
) -> Result<DecodedInstruction, EncodeError> {
    let mut actions = Vec::new();
    for field in layout.fields() {
        let opcode = if field.opcode_bits == 0 {
            // Single-op unit: active iff anything in its field is set —
            // conservatively decode via dest enables / operands below.
            // (Derived layouts always have ≥1 opcode bit because NOP is
            // encoding 0 of at least {nop, op}.)
            0
        } else {
            word.bits(field.opcode_offset, field.opcode_bits)
        };
        if opcode == 0 {
            continue;
        }
        let op = field
            .ops
            .get((opcode - 1) as usize)
            .ok_or_else(|| EncodeError::BadOpcode {
                opu: field.opu.clone(),
                opcode,
            })?
            .clone();
        let operand_regs: Vec<u32> = field
            .operands
            .iter()
            .map(|o| {
                if o.bits == 0 {
                    0
                } else {
                    word.bits(o.offset, o.bits) as u32
                }
            })
            .collect();
        let dests: Vec<(String, u32)> = field
            .dests
            .iter()
            .filter(|d| word.bits(d.enable_offset, 1) == 1)
            .map(|d| {
                let addr = if d.addr_bits == 0 {
                    0
                } else {
                    word.bits(d.addr_offset, d.addr_bits) as u32
                };
                (d.rf.clone(), addr)
            })
            .collect();
        let imm = field
            .imm
            .map(|(offset, bits, kind)| decode_imm(word.bits(offset, bits), bits, kind, format));
        actions.push(OpuAction {
            opu: field.opu.clone(),
            kind: field.kind,
            op,
            operand_regs,
            dests,
            imm,
        });
    }
    Ok(DecodedInstruction { actions })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspcc_arch::{Datapath, DatapathBuilder};
    use dspcc_ir::{RegRef, Rt, Usage};

    fn dp() -> Datapath {
        DatapathBuilder::new()
            .register_file("rf_a", 8)
            .register_file("rf_b", 8)
            .opu(OpuKind::Alu, "alu", &[("add", 1), ("pass", 1)])
            .inputs("alu", &["rf_a", "rf_b"])
            .output("alu", "bus_alu")
            .opu(OpuKind::ProgConst, "prgc", &[("const", 1)])
            .output("prgc", "bus_prgc")
            .write_port("rf_a", &["bus_alu", "bus_prgc"])
            .write_port("rf_b", &["bus_alu"])
            .build()
            .unwrap()
    }

    fn add_rt() -> Rt {
        let mut rt = Rt::new("add");
        rt.add_operand(RegRef::new("rf_a", 3));
        rt.add_operand(RegRef::new("rf_b", 5));
        rt.add_dest(RegRef::new("rf_b", 2));
        rt.add_usage("alu", Usage::token("add"));
        rt.add_usage("bus_alu", Usage::apply("add", ["v0"]));
        rt
    }

    #[test]
    fn encode_decode_round_trip() {
        let dp = dp();
        let layout = FieldLayout::derive(&dp, WordFormat::q15());
        let mut p = Program::new();
        let id = p.add_rt(add_rt());
        let mut s = Schedule::new();
        s.place(id, 0);
        let words = encode(
            &p,
            &RegisterMap::default(),
            &s,
            &layout,
            &BTreeMap::new(),
            WordFormat::q15(),
        )
        .unwrap();
        assert_eq!(words.len(), 1);
        let d = decode(&words[0], &layout, WordFormat::q15()).unwrap();
        assert_eq!(d.actions.len(), 1);
        let a = &d.actions[0];
        assert_eq!(a.opu, "alu");
        assert_eq!(a.op, "add");
        assert_eq!(a.operand_regs, vec![3, 5]);
        assert_eq!(a.dests, vec![("rf_b".to_owned(), 2)]);
        assert_eq!(a.imm, None);
    }

    #[test]
    fn nop_cycles_decode_empty() {
        let dp = dp();
        let layout = FieldLayout::derive(&dp, WordFormat::q15());
        let mut p = Program::new();
        let id = p.add_rt(add_rt());
        let mut s = Schedule::new();
        s.place(id, 2); // cycles 0,1 empty
        let words = encode(
            &p,
            &RegisterMap::default(),
            &s,
            &layout,
            &BTreeMap::new(),
            WordFormat::q15(),
        )
        .unwrap();
        assert_eq!(words.len(), 3);
        assert!(words[0].is_zero());
        assert!(decode(&words[1], &layout, WordFormat::q15())
            .unwrap()
            .actions
            .is_empty());
        assert!(!decode(&words[2], &layout, WordFormat::q15())
            .unwrap()
            .actions
            .is_empty());
    }

    #[test]
    fn immediates_round_trip_signed() {
        let dp = dp();
        let layout = FieldLayout::derive(&dp, WordFormat::q15());
        let mut p = Program::new();
        let mut rt = Rt::new("const");
        rt.add_dest(RegRef::new("rf_a", 1));
        rt.add_usage("prgc", Usage::token("const"));
        let id = p.add_rt(rt);
        let mut s = Schedule::new();
        s.place(id, 0);
        for value in [-0.5f64, 0.25, -1.0, 0.999] {
            let imms: BTreeMap<RtId, Immediate> =
                [(id, Immediate::Fixed(value))].into_iter().collect();
            let words = encode(
                &p,
                &RegisterMap::default(),
                &s,
                &layout,
                &imms,
                WordFormat::q15(),
            )
            .unwrap();
            let d = decode(&words[0], &layout, WordFormat::q15()).unwrap();
            let expected = WordFormat::q15().from_f64(value);
            assert_eq!(d.actions[0].imm, Some(expected), "value {value}");
        }
    }

    #[test]
    fn raw_immediates_round_trip() {
        let dp = dp();
        let layout = FieldLayout::derive(&dp, WordFormat::q15());
        let mut p = Program::new();
        let mut rt = Rt::new("addr");
        rt.add_dest(RegRef::new("rf_a", 0));
        rt.add_usage("prgc", Usage::token("const"));
        let id = p.add_rt(rt);
        let mut s = Schedule::new();
        s.place(id, 0);
        let imms: BTreeMap<RtId, Immediate> = [(id, Immediate::Raw(37))].into_iter().collect();
        let words = encode(
            &p,
            &RegisterMap::default(),
            &s,
            &layout,
            &imms,
            WordFormat::q15(),
        )
        .unwrap();
        let d = decode(&words[0], &layout, WordFormat::q15()).unwrap();
        assert_eq!(d.actions[0].imm, Some(37));
    }

    #[test]
    fn missing_immediate_reported() {
        let dp = dp();
        let layout = FieldLayout::derive(&dp, WordFormat::q15());
        let mut p = Program::new();
        let mut rt = Rt::new("const");
        rt.add_usage("prgc", Usage::token("const"));
        let id = p.add_rt(rt);
        let mut s = Schedule::new();
        s.place(id, 0);
        let err = encode(
            &p,
            &RegisterMap::default(),
            &s,
            &layout,
            &BTreeMap::new(),
            WordFormat::q15(),
        )
        .unwrap_err();
        assert!(matches!(err, EncodeError::MissingImmediate { .. }));
    }

    #[test]
    fn field_clash_detected() {
        let dp = dp();
        let layout = FieldLayout::derive(&dp, WordFormat::q15());
        let mut p = Program::new();
        let a = p.add_rt(add_rt());
        let mut other = add_rt();
        other.add_usage("alu", Usage::token("pass"));
        let b = p.add_rt(other);
        let mut s = Schedule::new();
        s.place(a, 0);
        s.place(b, 0);
        let err = encode(
            &p,
            &RegisterMap::default(),
            &s,
            &layout,
            &BTreeMap::new(),
            WordFormat::q15(),
        )
        .unwrap_err();
        assert!(
            matches!(err, EncodeError::FieldClash { cycle: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn identical_rts_share_field() {
        let dp = dp();
        let layout = FieldLayout::derive(&dp, WordFormat::q15());
        let mut p = Program::new();
        let a = p.add_rt(add_rt());
        let b = p.add_rt(add_rt());
        let mut s = Schedule::new();
        s.place(a, 0);
        s.place(b, 0);
        let words = encode(
            &p,
            &RegisterMap::default(),
            &s,
            &layout,
            &BTreeMap::new(),
            WordFormat::q15(),
        )
        .unwrap();
        let d = decode(&words[0], &layout, WordFormat::q15()).unwrap();
        assert_eq!(d.actions.len(), 1);
    }

    #[test]
    fn bad_dest_reported() {
        let dp = dp();
        let layout = FieldLayout::derive(&dp, WordFormat::q15());
        let mut p = Program::new();
        let mut rt = Rt::new("bad");
        rt.add_dest(RegRef::new("rf_nowhere", 0));
        rt.add_usage("alu", Usage::token("add"));
        let id = p.add_rt(rt);
        let mut s = Schedule::new();
        s.place(id, 0);
        let err = encode(
            &p,
            &RegisterMap::default(),
            &s,
            &layout,
            &BTreeMap::new(),
            WordFormat::q15(),
        )
        .unwrap_err();
        assert!(matches!(err, EncodeError::BadDest { .. }));
        assert!(err.to_string().contains("rf_nowhere"));
    }

    #[test]
    fn immediate_overflow_reported() {
        // A raw immediate wider than the program-constant field (the
        // datapath word width): the sign-extension round trip fails and
        // the encoder reports the field overflow instead of silently
        // truncating bits into the ROM.
        let dp = dp();
        let layout = FieldLayout::derive(&dp, WordFormat::q15());
        let mut p = Program::new();
        let mut rt = Rt::new("huge");
        rt.add_dest(RegRef::new("rf_a", 0));
        rt.add_usage("prgc", Usage::token("const"));
        let id = p.add_rt(rt);
        let mut s = Schedule::new();
        s.place(id, 0);
        let imms: BTreeMap<RtId, Immediate> = [(id, Immediate::Raw(1 << 40))].into_iter().collect();
        let err = encode(
            &p,
            &RegisterMap::default(),
            &s,
            &layout,
            &imms,
            WordFormat::q15(),
        )
        .unwrap_err();
        match err {
            EncodeError::ImmediateOverflow {
                ref opu,
                value,
                bits,
            } => {
                assert_eq!(opu, "prgc");
                assert_eq!(value, 1 << 40);
                assert!(bits < 40);
            }
            other => panic!("expected overflow, got {other:?}"),
        }
        assert!(err.to_string().contains("overflows"));
        // The largest representable value still encodes.
        let max = WordFormat::q15().max_value();
        let ok: BTreeMap<RtId, Immediate> = [(id, Immediate::Raw(max))].into_iter().collect();
        let words = encode(
            &p,
            &RegisterMap::default(),
            &s,
            &layout,
            &ok,
            WordFormat::q15(),
        )
        .unwrap();
        let d = decode(&words[0], &layout, WordFormat::q15()).unwrap();
        assert_eq!(d.actions[0].imm, Some(max));
    }

    #[test]
    fn unknown_op_reported() {
        // An RT whose operation is absent from its OPU's opcode table:
        // `mult` is not an ALU opcode.
        let dp = dp();
        let layout = FieldLayout::derive(&dp, WordFormat::q15());
        let mut p = Program::new();
        let mut rt = Rt::new("misop");
        rt.add_usage("alu", Usage::token("mult"));
        let id = p.add_rt(rt);
        let mut s = Schedule::new();
        s.place(id, 0);
        let err = encode(
            &p,
            &RegisterMap::default(),
            &s,
            &layout,
            &BTreeMap::new(),
            WordFormat::q15(),
        )
        .unwrap_err();
        assert!(
            matches!(err, EncodeError::UnknownOp { ref opu, ref op } if opu == "alu" && op == "mult"),
            "{err}"
        );
        assert!(err.to_string().contains("not an opcode"));
    }

    #[test]
    fn unallocated_virtual_register_reported() {
        // A virtual register is encoded only through a map that assigns
        // it; the empty map assigns none.
        let dp = dp();
        let layout = FieldLayout::derive(&dp, WordFormat::q15());
        let mut p = Program::new();
        let mut rt = add_rt();
        rt.add_dest(RegRef::new("rf_a", dspcc_rtgen::VIRTUAL_BASE + 4));
        let id = p.add_rt(rt);
        let mut s = Schedule::new();
        s.place(id, 0);
        let err = encode(
            &p,
            &RegisterMap::default(),
            &s,
            &layout,
            &BTreeMap::new(),
            WordFormat::q15(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            EncodeError::Unallocated {
                rt: "add".to_owned(),
                rf: "rf_a".to_owned(),
                index: dspcc_rtgen::VIRTUAL_BASE + 4,
            }
        );
        assert!(err.to_string().contains("does not assign"));
    }

    #[test]
    fn unknown_opu_reported() {
        let dp = dp();
        let layout = FieldLayout::derive(&dp, WordFormat::q15());
        let mut p = Program::new();
        let mut rt = Rt::new("mystery");
        rt.add_usage("fpga", Usage::token("bitstream"));
        let id = p.add_rt(rt);
        let mut s = Schedule::new();
        s.place(id, 0);
        let err = encode(
            &p,
            &RegisterMap::default(),
            &s,
            &layout,
            &BTreeMap::new(),
            WordFormat::q15(),
        )
        .unwrap_err();
        assert!(matches!(err, EncodeError::UnknownOpu { .. }));
    }

    #[test]
    fn two_compatible_units_encode_in_one_word() {
        let dp = dp();
        let layout = FieldLayout::derive(&dp, WordFormat::q15());
        let mut p = Program::new();
        let a = p.add_rt(add_rt());
        let mut c = Rt::new("const");
        c.add_dest(RegRef::new("rf_a", 7));
        c.add_usage("prgc", Usage::token("const"));
        let b = p.add_rt(c);
        let mut s = Schedule::new();
        s.place(a, 0);
        s.place(b, 0);
        let imms: BTreeMap<RtId, Immediate> = [(b, Immediate::Fixed(0.5))].into_iter().collect();
        let words = encode(
            &p,
            &RegisterMap::default(),
            &s,
            &layout,
            &imms,
            WordFormat::q15(),
        )
        .unwrap();
        let d = decode(&words[0], &layout, WordFormat::q15()).unwrap();
        assert_eq!(d.actions.len(), 2);
        let names: Vec<&str> = d.actions.iter().map(|a| a.opu.as_str()).collect();
        assert!(names.contains(&"alu") && names.contains(&"prgc"));
    }
}
