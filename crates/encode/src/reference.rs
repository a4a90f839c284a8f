//! Retained string-keyed reference implementations.
//!
//! These are the seed implementations of register allocation and
//! instruction encoding, exactly as they ran before the interned-symbol
//! rewrite: live ranges and assignments keyed by `(register-file name,
//! virtual index)` string pairs in `BTreeMap`s, RTs rebuilt through the
//! name-based `add_usage` path, and the encoder matching fields by string
//! comparison. They exist so the differential property test
//! (`tests/prop_intern.rs`) can pin the id-based production paths
//! **bit-identical** to the string semantics on random programs — the
//! same role `dspcc_graph::naive` and `dspcc_sim::reference` play for
//! their substrates. Never call these from production code.

use std::collections::BTreeMap;

use dspcc_arch::Datapath;
use dspcc_ir::{Program, RegRef, RtId};
use dspcc_num::WordFormat;
use dspcc_rtgen::{Immediate, VIRTUAL_BASE};
use dspcc_sched::Schedule;

use crate::encoder::{decode_imm_raw, merge_field, EncodeError};
use crate::layout::{FieldLayout, ImmKind};
use crate::regalloc::RegAllocError;
use crate::word::Word;

/// What the seed's register allocator returned: the maps, plus the
/// program rewritten to physical registers.
#[derive(Debug, Clone)]
pub struct ReferenceAssignment {
    /// `(rf, virtual) → physical`.
    pub mapping: BTreeMap<(String, u32), u32>,
    /// Peak register usage per file.
    pub peak_usage: BTreeMap<String, u32>,
    /// The program with all register references physical.
    pub program: Program,
}

/// The seed's string-keyed register allocator (see module docs).
///
/// # Errors
///
/// As [`crate::allocate_registers`].
pub fn allocate_registers_reference(
    program: &Program,
    schedule: &Schedule,
    dp: &Datapath,
    pinned: &[(String, u32)],
) -> Result<ReferenceAssignment, RegAllocError> {
    let issue = schedule.issue_cycles(program.rt_count());
    let issue_of = |id: RtId, name: &str| {
        issue[id.0 as usize].ok_or_else(|| RegAllocError::Unscheduled {
            rt: name.to_owned(),
        })
    };
    // Live ranges per (rf, virtual index): (write_cycle, last_read_cycle).
    let mut ranges: BTreeMap<(String, u32), (u32, u32)> = BTreeMap::new();
    for (id, rt) in program.rts() {
        let write_time = issue_of(id, rt.name())? + rt.latency();
        for dest in rt.dests() {
            if dest.index() < VIRTUAL_BASE {
                continue; // pre-colored
            }
            let key = (dest.rf().name().to_owned(), dest.index());
            let e = ranges.entry(key).or_insert((write_time, write_time));
            e.0 = e.0.min(write_time);
        }
    }
    for (id, rt) in program.rts() {
        let t = issue_of(id, rt.name())?;
        for opr in rt.operands() {
            if opr.index() < VIRTUAL_BASE {
                continue;
            }
            let key = (opr.rf().name().to_owned(), opr.index());
            match ranges.get_mut(&key) {
                Some(e) => e.1 = e.1.max(t),
                None => {
                    return Err(RegAllocError::NeverWritten {
                        rf: key.0,
                        virtual_index: key.1,
                    })
                }
            }
        }
    }
    // Group ranges per register file and linear-scan each.
    let mut per_rf: BTreeMap<String, Vec<(u32, u32, u32)>> = BTreeMap::new();
    for (&(ref rf, virt), &(w, r)) in &ranges {
        per_rf.entry(rf.clone()).or_default().push((w, r, virt));
    }
    let mut mapping: BTreeMap<(String, u32), u32> = BTreeMap::new();
    let mut peak_usage: BTreeMap<String, u32> = BTreeMap::new();
    for (rf, mut items) in per_rf {
        let size = dp
            .register_file(&rf)
            .ok_or_else(|| RegAllocError::UnknownRegisterFile { rf: rf.clone() })?
            .size();
        let pinned_here: Vec<u32> = pinned
            .iter()
            .filter(|(p, _)| *p == rf)
            .map(|&(_, i)| i)
            .collect();
        let pool: Vec<u32> = (0..size).filter(|i| !pinned_here.contains(i)).collect();
        items.sort_by_key(|&(w, r, v)| (w, r, v));
        // Active: (last_read, physical).
        let mut active: Vec<(u32, u32)> = Vec::new();
        let mut free: Vec<u32> = pool.clone();
        free.reverse(); // pop from the low end
        let mut peak = 0u32;
        for (w, r, virt) in items {
            active.retain(|&(last_read, phys)| {
                if last_read < w {
                    free.push(phys);
                    false
                } else {
                    true
                }
            });
            let phys = match free.pop() {
                Some(p) => p,
                None => {
                    return Err(RegAllocError::Pressure {
                        rf,
                        needed: active.len() as u32 + 1 + pinned_here.len() as u32,
                        available: size,
                    })
                }
            };
            active.push((r, phys));
            peak = peak.max(active.len() as u32 + pinned_here.len() as u32);
            mapping.insert((rf.clone(), virt), phys);
        }
        peak_usage.insert(rf, peak);
    }
    // Rewrite the program with physical indices by rebuilding every RT
    // through the name-based API (the seed behaviour).
    let mut rewritten = program.clone();
    for id in rewritten.rt_ids().collect::<Vec<RtId>>() {
        let rt = rewritten.rt_mut(id);
        let remap = |reg: &RegRef| -> RegRef {
            if reg.index() < VIRTUAL_BASE {
                *reg
            } else {
                let phys = mapping[&(reg.rf().name().to_owned(), reg.index())];
                RegRef::new(reg.rf().name(), phys)
            }
        };
        let mut fresh = dspcc_ir::Rt::new(rt.name());
        fresh.set_latency(rt.latency());
        for d in rt.dests() {
            fresh.add_dest(remap(d));
        }
        for o in rt.operands() {
            fresh.add_operand(remap(o));
        }
        for &d in rt.defs() {
            fresh.add_def(d);
        }
        for &u in rt.uses() {
            fresh.add_use(u);
        }
        for (res, usage) in rt.usages() {
            fresh.add_usage(res.name(), usage.clone());
        }
        *rt = fresh;
    }
    Ok(ReferenceAssignment {
        mapping,
        peak_usage,
        program: rewritten,
    })
}

/// The seed's string-matching encoder (see module docs).
///
/// # Errors
///
/// As [`crate::encode`].
pub fn encode_reference(
    program: &Program,
    schedule: &Schedule,
    layout: &FieldLayout,
    immediates: &BTreeMap<RtId, Immediate>,
    format: WordFormat,
) -> Result<Vec<Word>, EncodeError> {
    let mut words = Vec::new();
    for (cycle, instr) in schedule.instructions() {
        let mut word = Word::new(layout.width());
        let mut claimed: BTreeMap<String, Word> = BTreeMap::new();
        for &rt_id in instr {
            let rt = program.rt(rt_id);
            let field = layout
                .fields()
                .iter()
                .find(|f| rt.usage_of(&f.opu).is_some())
                .ok_or_else(|| EncodeError::UnknownOpu {
                    rt: rt.name().to_owned(),
                })?;
            let mut scratch = Word::new(layout.width());
            encode_rt_reference(program, rt_id, field, immediates, format, &mut scratch)?;
            if let Some(prev) = claimed.get(&field.opu) {
                if *prev != scratch {
                    return Err(EncodeError::FieldClash {
                        opu: field.opu.clone(),
                        cycle,
                    });
                }
                continue;
            }
            merge_field(&mut word, &scratch, field);
            claimed.insert(field.opu.clone(), scratch);
        }
        words.push(word);
    }
    Ok(words)
}

fn encode_rt_reference(
    program: &Program,
    rt_id: RtId,
    field: &crate::layout::OpuField,
    immediates: &BTreeMap<RtId, Immediate>,
    format: WordFormat,
    word: &mut Word,
) -> Result<(), EncodeError> {
    let rt = program.rt(rt_id);
    let op = rt
        .usage_of(&field.opu)
        .expect("field matched this RT")
        .op()
        .to_owned();
    let opcode = field.opcode_of(&op).ok_or_else(|| EncodeError::UnknownOp {
        opu: field.opu.clone(),
        op: op.clone(),
    })?;
    if field.opcode_bits > 0 {
        word.set_bits(field.opcode_offset, field.opcode_bits, opcode);
    }
    let mut used = vec![false; rt.operands().len()];
    for spec in &field.operands {
        if let Some(i) = rt
            .operands()
            .iter()
            .enumerate()
            .position(|(i, o)| !used[i] && o.rf().name() == spec.rf)
        {
            used[i] = true;
            if spec.bits > 0 {
                word.set_bits(spec.offset, spec.bits, rt.operands()[i].index() as u64);
            }
        }
    }
    for dest in rt.dests() {
        let spec = field
            .dests
            .iter()
            .find(|d| d.rf == dest.rf().name())
            .ok_or_else(|| EncodeError::BadDest {
                opu: field.opu.clone(),
                rf: dest.rf().name().to_owned(),
            })?;
        word.set_bits(spec.enable_offset, 1, 1);
        if spec.addr_bits > 0 {
            word.set_bits(spec.addr_offset, spec.addr_bits, dest.index() as u64);
        }
    }
    if let Some((offset, bits, kind)) = field.imm {
        let imm = immediates
            .get(&rt_id)
            .ok_or_else(|| EncodeError::MissingImmediate {
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
        let back = decode_imm_raw(encoded, bits, kind, format);
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
