//! Post-schedule register allocation.
//!
//! RT generation uses one virtual register per value (indices ≥
//! [`dspcc_rtgen::VIRTUAL_BASE`]); after scheduling, the live range of
//! each `(value, register file)` pair is known exactly — from the cycle
//! the value lands in the file until its last read from that file — and a
//! linear scan maps it to a physical register. A register may be re-read
//! and re-written in the same cycle (register files read before write,
//! figure 2's buffered paths), so ranges touching end-to-start may share.
//!
//! Running out of registers is a *feasibility* failure reported back to
//! the designer, exactly like a missed cycle budget (paper section 4:
//! "If this does not result in a feasible solution an iteration cycle is
//! required in which the source must be improved").

use std::collections::BTreeMap;
use std::fmt;

use dspcc_arch::Datapath;
use dspcc_ir::{Program, RegRef, Resource, RtId};
use dspcc_rtgen::VIRTUAL_BASE;
use dspcc_sched::Schedule;

/// The physical register assignment of a scheduled program. The program
/// itself is not rewritten: the encoder reads [`RegAssignment::registers`]
/// as it encodes, and [`RegisterMap::rewrite`] builds a physical copy for
/// the callers that need one.
#[derive(Debug, Clone)]
pub struct RegAssignment {
    /// Mapping used, for reports: `(rf, virtual) → physical`.
    pub mapping: BTreeMap<(String, u32), u32>,
    /// Peak register usage per file, for the feasibility report.
    pub peak_usage: BTreeMap<String, u32>,
    /// The same mapping as a dense table, for the encoder.
    pub registers: RegisterMap,
}

/// A dense `(register file, virtual register) → physical register` table.
///
/// Registers below [`VIRTUAL_BASE`] are physical already and map to
/// themselves, so the empty map is the identity on a program that is
/// physical throughout.
#[derive(Debug, Clone, Default)]
pub struct RegisterMap {
    /// Register files holding virtual registers, in first-write order.
    rfs: Vec<Resource>,
    /// `physical[slot][value]`: the register of virtual register
    /// `VIRTUAL_BASE + value` in `rfs[slot]`.
    physical: Vec<Vec<Option<u32>>>,
}

impl RegisterMap {
    /// The physical index of `reg`: its own index when it is physical,
    /// `None` for a virtual register the map does not assign.
    pub fn physical(&self, reg: &RegRef) -> Option<u32> {
        let Some(value) = reg.index().checked_sub(VIRTUAL_BASE) else {
            return Some(reg.index());
        };
        let slot = self.rfs.iter().position(|rf| rf == reg.rf())?;
        self.physical[slot].get(value as usize).copied().flatten()
    }

    /// A copy of `program` with every register this map assigns
    /// rewritten to its physical index. Registers it does not assign are
    /// left as they are, so encoding the copy under the empty map reports
    /// them ([`crate::EncodeError::Unallocated`]).
    pub fn rewrite(&self, program: &Program) -> Program {
        let mut rewritten = program.clone();
        for id in 0..rewritten.rt_count() {
            rewritten
                .rt_mut(RtId(id as u32))
                .remap_registers(|reg| match self.physical(reg) {
                    Some(index) => reg.with_index(index),
                    None => *reg,
                });
        }
        rewritten
    }
}

/// Register-allocation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegAllocError {
    /// A register file cannot hold its simultaneously-live values.
    Pressure {
        /// The register file.
        rf: String,
        /// Registers needed at the worst cycle.
        needed: u32,
        /// Registers available (after pinned ones).
        available: u32,
    },
    /// A virtual register is read but never written in its file.
    NeverWritten {
        /// The register file.
        rf: String,
        /// The virtual index.
        virtual_index: u32,
    },
    /// The schedule places no cycle for an RT of the program.
    Unscheduled {
        /// The RT's diagnostic name.
        rt: String,
    },
    /// A virtual register lives in a register file the datapath lacks.
    UnknownRegisterFile {
        /// The register file.
        rf: String,
    },
}

impl fmt::Display for RegAllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegAllocError::Pressure {
                rf,
                needed,
                available,
            } => write!(
                f,
                "register file `{rf}` needs {needed} registers, has {available}; \
                 rewrite the source or enlarge the file"
            ),
            RegAllocError::NeverWritten { rf, virtual_index } => write!(
                f,
                "virtual register {virtual_index} of `{rf}` is read but never written"
            ),
            RegAllocError::Unscheduled { rt } => {
                write!(f, "RT `{rt}` is not placed by the schedule")
            }
            RegAllocError::UnknownRegisterFile { rf } => {
                write!(f, "register file `{rf}` is not in the datapath")
            }
        }
    }
}

impl std::error::Error for RegAllocError {}

/// Allocates physical registers for a scheduled program.
///
/// `pinned` registers (e.g. the frame pointer) are never handed out.
///
/// # Errors
///
/// Returns [`RegAllocError`] on capacity overflow, dangling reads, RTs the
/// schedule leaves unplaced, or register files the datapath lacks.
pub fn allocate_registers(
    program: &Program,
    schedule: &Schedule,
    dp: &Datapath,
    pinned: &[(String, u32)],
) -> Result<RegAssignment, RegAllocError> {
    let issue = schedule.issue_cycles(program.rt_count());
    let issue_of = |id: RtId, name: &str| {
        issue[id.0 as usize].ok_or_else(|| RegAllocError::Unscheduled {
            rt: name.to_owned(),
        })
    };
    // Live ranges in dense per-register-file tables: register files are
    // identified by interned `Resource`, virtual indices are dense value
    // ids (`VIRTUAL_BASE + value`), so range recording and the final
    // table are array indexing — no string-keyed map on the hot path.
    let mut rfs: Vec<Resource> = Vec::new();
    // ranges[rf slot][value] = (write_cycle, last_read_cycle).
    let mut ranges: Vec<Vec<Option<(u32, u32)>>> = Vec::new();
    let slot_of = |rfs: &[Resource], rf: Resource| rfs.iter().position(|&x| x == rf);
    for (id, rt) in program.rts() {
        let write_time = issue_of(id, rt.name())? + rt.latency();
        for dest in rt.dests() {
            if dest.index() < VIRTUAL_BASE {
                continue; // pre-colored
            }
            let slot = match slot_of(&rfs, *dest.rf()) {
                Some(s) => s,
                None => {
                    rfs.push(*dest.rf());
                    ranges.push(Vec::new());
                    rfs.len() - 1
                }
            };
            let v = (dest.index() - VIRTUAL_BASE) as usize;
            if ranges[slot].len() <= v {
                ranges[slot].resize(v + 1, None);
            }
            let e = ranges[slot][v].get_or_insert((write_time, write_time));
            e.0 = e.0.min(write_time);
        }
    }
    for (id, rt) in program.rts() {
        let t = issue_of(id, rt.name())?;
        for opr in rt.operands() {
            if opr.index() < VIRTUAL_BASE {
                continue;
            }
            let v = (opr.index() - VIRTUAL_BASE) as usize;
            let range = slot_of(&rfs, *opr.rf())
                .and_then(|slot| ranges[slot].get_mut(v))
                .and_then(|r| r.as_mut());
            match range {
                Some(e) => e.1 = e.1.max(t),
                None => {
                    return Err(RegAllocError::NeverWritten {
                        rf: opr.rf().name().to_owned(),
                        virtual_index: opr.index(),
                    })
                }
            }
        }
    }
    // Linear-scan each register file. Files are processed in name order so
    // the reported maps read deterministically; assignments within a file
    // depend only on that file's ranges, never on interning order.
    let names: Vec<&str> = rfs.iter().map(|rf| rf.name()).collect();
    let mut order: Vec<usize> = (0..rfs.len()).collect();
    order.sort_by_key(|&s| names[s]);
    // physical[rf slot][value] = allocated physical index.
    let mut physical: Vec<Vec<Option<u32>>> = ranges.iter().map(|r| vec![None; r.len()]).collect();
    let mut mapping: BTreeMap<(String, u32), u32> = BTreeMap::new();
    let mut peak_usage: BTreeMap<String, u32> = BTreeMap::new();
    // Per-file scratch, reused across files.
    let mut pinned_here: Vec<u32> = Vec::new();
    let mut items: Vec<(u32, u32, u32)> = Vec::new();
    // Active: (last_read, physical).
    let mut active: Vec<(u32, u32)> = Vec::new();
    let mut free: Vec<u32> = Vec::new();
    for slot in order {
        let rf = names[slot];
        let size = dp
            .register_file(rf)
            .ok_or_else(|| RegAllocError::UnknownRegisterFile { rf: rf.to_owned() })?
            .size();
        pinned_here.clear();
        pinned_here.extend(pinned.iter().filter(|(p, _)| p == rf).map(|&(_, i)| i));
        items.clear();
        items.extend(
            ranges[slot]
                .iter()
                .enumerate()
                .filter_map(|(v, r)| r.map(|(w, rd)| (w, rd, VIRTUAL_BASE + v as u32))),
        );
        items.sort_unstable_by_key(|&(w, r, v)| (w, r, v));
        active.clear();
        free.clear();
        free.extend(
            (0..size)
                .rev() // pop from the low end
                .filter(|i| !pinned_here.contains(i)),
        );
        let mut peak = 0u32;
        for &(w, r, virt) in &items {
            // Expire ranges read strictly before this value becomes
            // visible: a write landing at cycle `w` replaces the register
            // content *for* cycle `w` (the commit happens at the end of
            // `w − 1`), so a last read at `w` itself would see the new
            // value.
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
                        rf: rf.to_owned(),
                        needed: active.len() as u32 + 1 + pinned_here.len() as u32,
                        available: size,
                    })
                }
            };
            active.push((r, phys));
            peak = peak.max(active.len() as u32 + pinned_here.len() as u32);
            physical[slot][(virt - VIRTUAL_BASE) as usize] = Some(phys);
            mapping.insert((rf.to_owned(), virt), phys);
        }
        peak_usage.insert(rf.to_owned(), peak);
    }
    Ok(RegAssignment {
        mapping,
        peak_usage,
        registers: RegisterMap { rfs, physical },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspcc_arch::{DatapathBuilder, OpuKind};
    use dspcc_ir::{RegRef, Rt, Usage, ValueId};

    fn small_dp(rf_size: u32) -> Datapath {
        DatapathBuilder::new()
            .register_file("rf_a", rf_size)
            .register_file("rf_b", rf_size)
            .opu(OpuKind::Alu, "alu", &[("add", 1), ("pass", 1)])
            .inputs("alu", &["rf_a", "rf_b"])
            .output("alu", "bus_alu")
            .write_port("rf_a", &["bus_alu"])
            .write_port("rf_b", &["bus_alu"])
            .build()
            .unwrap()
    }

    /// producer(v0) → consumer chain of `n` values through rf_a.
    fn chain(n: u32) -> (Program, Schedule) {
        let mut p = Program::new();
        let mut s = Schedule::new();
        let mut prev: Option<ValueId> = None;
        for i in 0..n {
            let v = p.add_value(format!("v{i}"));
            let mut rt = Rt::new(format!("op{i}"));
            rt.add_dest(RegRef::new("rf_a", VIRTUAL_BASE + v.0));
            rt.add_def(v);
            if let Some(pv) = prev {
                rt.add_operand(RegRef::new("rf_a", VIRTUAL_BASE + pv.0));
                rt.add_use(pv);
            }
            rt.add_usage("alu", Usage::apply("pass", [format!("v{i}")]));
            let id = p.add_rt(rt);
            s.place(id, i);
            prev = Some(v);
        }
        (p, s)
    }

    #[test]
    fn chain_reuses_registers() {
        let (p, s) = chain(6);
        let dp = small_dp(2);
        // Each value dies right as the next is written → 2 registers do.
        let a = allocate_registers(&p, &s, &dp, &[]).unwrap();
        assert!(a.peak_usage["rf_a"] <= 2, "{:?}", a.peak_usage);
        // All references of the rewritten program are physical.
        for (_, rt) in a.registers.rewrite(&p).rts() {
            for r in rt.dests().iter().chain(rt.operands()) {
                assert!(r.index() < VIRTUAL_BASE);
                assert!(r.index() < 2);
            }
        }
    }

    #[test]
    fn parallel_lives_need_distinct_registers() {
        // Two values written in cycles 0,1 both read at cycle 5.
        let mut p = Program::new();
        let mut s = Schedule::new();
        let v0 = p.add_value("v0");
        let v1 = p.add_value("v1");
        for (i, v) in [v0, v1].into_iter().enumerate() {
            let mut rt = Rt::new(format!("w{i}"));
            rt.add_dest(RegRef::new("rf_a", VIRTUAL_BASE + v.0));
            rt.add_def(v);
            rt.add_usage("alu", Usage::apply("pass", [format!("v{i}")]));
            let id = p.add_rt(rt);
            s.place(id, i as u32);
        }
        let mut reader = Rt::new("r");
        reader.add_operand(RegRef::new("rf_a", VIRTUAL_BASE + v0.0));
        reader.add_operand(RegRef::new("rf_a", VIRTUAL_BASE + v1.0));
        reader.add_use(v0);
        reader.add_use(v1);
        // v1 also lands in rf_a to force two live registers there.
        let mut w2 = Rt::new("w2");
        w2.add_operand(RegRef::new("rf_a", VIRTUAL_BASE + v1.0));
        w2.add_use(v1);
        // v1 must be written into rf_a too: emulate multi-dest.
        p.rt_mut(dspcc_ir::RtId(1))
            .add_dest(RegRef::new("rf_a", VIRTUAL_BASE + v1.0));
        let rid = p.add_rt(reader);
        let wid = p.add_rt(w2);
        s.place(rid, 5);
        s.place(wid, 5);
        let dp = small_dp(2);
        let a = allocate_registers(&p, &s, &dp, &[]).unwrap();
        let r0 = a.mapping[&("rf_a".to_owned(), VIRTUAL_BASE + v0.0)];
        let r1 = a.mapping[&("rf_a".to_owned(), VIRTUAL_BASE + v1.0)];
        assert_ne!(r0, r1);
        assert_eq!(a.peak_usage["rf_a"], 2);
    }

    #[test]
    fn pressure_error_when_file_too_small() {
        // 3 values all live to the end, file of 2.
        let mut p = Program::new();
        let mut s = Schedule::new();
        let mut reader = Rt::new("r");
        for i in 0..3 {
            let v = p.add_value(format!("v{i}"));
            let mut rt = Rt::new(format!("w{i}"));
            rt.add_dest(RegRef::new("rf_a", VIRTUAL_BASE + v.0));
            rt.add_def(v);
            rt.add_usage("alu", Usage::apply("pass", [format!("v{i}")]));
            let id = p.add_rt(rt);
            s.place(id, i);
            reader.add_operand(RegRef::new("rf_a", VIRTUAL_BASE + v.0));
            reader.add_use(v);
        }
        let rid = p.add_rt(reader);
        s.place(rid, 9);
        let dp = small_dp(2);
        let err = allocate_registers(&p, &s, &dp, &[]).unwrap_err();
        match err {
            RegAllocError::Pressure {
                rf,
                needed,
                available,
            } => {
                assert_eq!(rf, "rf_a");
                assert_eq!(available, 2);
                assert!(needed >= 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pinned_registers_not_allocated() {
        let (p, s) = chain(2);
        let dp = small_dp(2);
        let a = allocate_registers(&p, &s, &dp, &[("rf_a".to_owned(), 0)]).unwrap();
        for &phys in a.mapping.values() {
            assert_ne!(phys, 0, "pinned register handed out");
        }
    }

    #[test]
    fn never_written_detected() {
        let mut p = Program::new();
        let v = p.add_value("ghost");
        let mut rt = Rt::new("r");
        rt.add_operand(RegRef::new("rf_a", VIRTUAL_BASE + v.0));
        rt.add_usage("alu", Usage::token("pass"));
        let id = p.add_rt(rt);
        let mut s = Schedule::new();
        s.place(id, 0);
        let dp = small_dp(2);
        let err = allocate_registers(&p, &s, &dp, &[]).unwrap_err();
        assert!(matches!(err, RegAllocError::NeverWritten { .. }));
        assert!(err.to_string().contains("never written"));
    }

    #[test]
    fn same_cycle_read_write_shares_register() {
        // v0 last read at cycle 2; v1 written (lands) at cycle 2 → same reg OK.
        let mut p = Program::new();
        let mut s = Schedule::new();
        let v0 = p.add_value("v0");
        let v1 = p.add_value("v1");
        let mut w0 = Rt::new("w0");
        w0.add_dest(RegRef::new("rf_a", VIRTUAL_BASE + v0.0));
        w0.add_def(v0);
        w0.add_usage("alu", Usage::apply("pass", ["v0"]));
        let id0 = p.add_rt(w0);
        s.place(id0, 0);
        let mut rw = Rt::new("rw"); // reads v0, defines v1 (lands at 2)
        rw.add_operand(RegRef::new("rf_a", VIRTUAL_BASE + v0.0));
        rw.add_use(v0);
        rw.add_dest(RegRef::new("rf_a", VIRTUAL_BASE + v1.0));
        rw.add_def(v1);
        rw.add_usage("alu", Usage::apply("pass", ["v1"]));
        let id1 = p.add_rt(rw);
        s.place(id1, 2);
        let mut r1 = Rt::new("r1");
        r1.add_operand(RegRef::new("rf_a", VIRTUAL_BASE + v1.0));
        r1.add_use(v1);
        r1.add_usage("alu", Usage::apply("pass", ["x"]));
        let id2 = p.add_rt(r1);
        s.place(id2, 4);
        let dp = small_dp(1); // only one register!
        let a = allocate_registers(&p, &s, &dp, &[]).unwrap();
        assert_eq!(a.peak_usage["rf_a"], 1);
    }
    #[test]
    fn register_map_agrees_with_the_mapping() {
        let (p, s) = chain(4);
        let dp = small_dp(2);
        let a = allocate_registers(&p, &s, &dp, &[]).unwrap();
        for (&(ref rf, virt), &phys) in &a.mapping {
            let reg = RegRef::new(rf.as_str(), virt);
            assert_eq!(a.registers.physical(&reg), Some(phys));
        }
        // Physical registers map to themselves, in any map.
        let physical = RegRef::new("rf_b", 1);
        assert_eq!(a.registers.physical(&physical), Some(1));
        assert_eq!(RegisterMap::default().physical(&physical), Some(1));
        // A virtual register the map does not assign has no image, and
        // the rewrite leaves it as it is.
        let stray = RegRef::new("rf_b", VIRTUAL_BASE);
        assert_eq!(a.registers.physical(&stray), None);
        let mut q = p.clone();
        q.rt_mut(dspcc_ir::RtId(0)).add_operand(stray);
        let rewritten = a.registers.rewrite(&q);
        assert_eq!(rewritten.rt(dspcc_ir::RtId(0)).operands(), &[stray]);
    }

    #[test]
    fn unplaced_rt_is_a_typed_error() {
        let (p, _) = chain(3);
        let mut s = Schedule::new();
        s.place(dspcc_ir::RtId(0), 0);
        s.place(dspcc_ir::RtId(2), 2);
        let err = allocate_registers(&p, &s, &small_dp(2), &[]).unwrap_err();
        assert_eq!(
            err,
            RegAllocError::Unscheduled {
                rt: "op1".to_owned()
            }
        );
        assert!(err.to_string().contains("not placed"));
    }

    #[test]
    fn register_file_outside_the_datapath_is_a_typed_error() {
        let mut p = Program::new();
        let v = p.add_value("v0");
        let mut rt = Rt::new("w");
        rt.add_dest(RegRef::new("rf_elsewhere", VIRTUAL_BASE + v.0));
        rt.add_def(v);
        rt.add_usage("alu", Usage::apply("pass", ["v0"]));
        let id = p.add_rt(rt);
        let mut s = Schedule::new();
        s.place(id, 0);
        let err = allocate_registers(&p, &s, &small_dp(2), &[]).unwrap_err();
        assert_eq!(
            err,
            RegAllocError::UnknownRegisterFile {
                rf: "rf_elsewhere".to_owned()
            }
        );
        assert!(err.to_string().contains("not in the datapath"));
    }
}
