//! Baseline schedulers for the evaluation.
//!
//! The paper's quality claim ("existing compilers generate code of which
//! the efficiency is not sufficient", section 2) is made against manual
//! code via the occupation metric; these baselines make the comparison
//! explicit:
//!
//! * [`sequential_schedule`] — one RT per cycle, the code a non-packing
//!   compiler would emit;
//! * [`strip_artificial_resources`] — undo the ISA modelling, yielding the
//!   "ISA-unaware" scheduler whose output can violate the instruction set
//!   (counted in experiment E10).

use dspcc_ir::Program;

use crate::deps::DependenceGraph;
use crate::schedule::Schedule;

/// Schedules exactly one RT per instruction in topological order,
/// respecting latencies — the fully vertical (sequential) baseline.
pub fn sequential_schedule(program: &Program, deps: &DependenceGraph) -> Schedule {
    let order = deps.topological_order();
    let mut issue = vec![0u32; program.rt_count()];
    let mut schedule = Schedule::new();
    let mut next_free = 0u32;
    for &rt in order {
        let i = rt.0 as usize;
        let mut t = next_free;
        for (pred, lat) in deps.predecessors(rt) {
            t = t.max(issue[pred.0 as usize] + lat);
        }
        issue[i] = t;
        schedule.place(rt, t);
        next_free = t + 1;
    }
    schedule
}

/// Returns a copy of `program` with the named artificial resources removed
/// from every RT — what the scheduler would see if the instruction set
/// were not modelled.
pub fn strip_artificial_resources(program: &Program, artificial: &[&str]) -> Program {
    let mut stripped = program.clone();
    for id in stripped.rt_ids().collect::<Vec<_>>() {
        for name in artificial {
            stripped.rt_mut(id).remove_usage(name);
        }
    }
    stripped
}

/// Counts, per cycle, instruction contents that pairwise-conflict in the
/// *reference* program (e.g. via artificial resources) even though they
/// were packed together by a schedule computed for another (stripped)
/// program. Returns the number of offending instructions.
pub fn count_illegal_instructions(reference: &Program, schedule: &Schedule) -> usize {
    schedule
        .instructions()
        .filter(|(_, instr)| {
            instr.iter().enumerate().any(|(i, &a)| {
                instr[i + 1..]
                    .iter()
                    .any(|&b| !reference.rt(a).compatible_with(reference.rt(b)))
            })
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::{list_pass, Priority};
    use crate::schedule::ConflictMatrix;
    use dspcc_ir::{Rt, RtId, Usage};

    fn program_with_artificial() -> Program {
        // Two RTs on different OPUs, forbidden to pair by artificial ABC.
        let mut p = Program::new();
        let mut a = Rt::new("a");
        a.add_usage("opu_a", Usage::token("op"));
        a.add_usage("ABC", Usage::token("A"));
        let mut b = Rt::new("b");
        b.add_usage("opu_b", Usage::token("op"));
        b.add_usage("ABC", Usage::token("B"));
        p.add_rt(a);
        p.add_rt(b);
        p
    }

    #[test]
    fn sequential_is_one_rt_per_cycle() {
        let p = program_with_artificial();
        let deps = DependenceGraph::build(&p).unwrap();
        let s = sequential_schedule(&p, &deps);
        s.verify(&p, &deps).unwrap();
        assert_eq!(s.length(), 2);
        assert!((s.parallelism() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sequential_respects_latency_gaps() {
        let mut p = Program::new();
        let v = p.add_value("v");
        let mut producer = Rt::new("m");
        producer.set_latency(3);
        producer.add_def(v);
        producer.add_usage("mult", Usage::token("mult"));
        let mut consumer = Rt::new("a");
        consumer.add_use(v);
        consumer.add_usage("alu", Usage::token("add"));
        p.add_rt(producer);
        p.add_rt(consumer);
        let deps = DependenceGraph::build(&p).unwrap();
        let s = sequential_schedule(&p, &deps);
        s.verify(&p, &deps).unwrap();
        assert_eq!(s.length(), 4);
    }

    #[test]
    fn strip_removes_only_named_resources() {
        let p = program_with_artificial();
        let stripped = strip_artificial_resources(&p, &["ABC"]);
        assert!(stripped.rt(RtId(0)).usage_of("ABC").is_none());
        assert!(stripped.rt(RtId(0)).usage_of("opu_a").is_some());
        // Original untouched.
        assert!(p.rt(RtId(0)).usage_of("ABC").is_some());
    }

    #[test]
    fn isa_unaware_schedule_violates_reference() {
        let p = program_with_artificial();
        let stripped = strip_artificial_resources(&p, &["ABC"]);
        let deps = DependenceGraph::build(&stripped).unwrap();
        let matrix = ConflictMatrix::build(&stripped);
        let s = list_pass(&stripped, &deps, &matrix, None, Priority::Slack).unwrap();
        // Without ABC the two RTs pack into one cycle…
        assert_eq!(s.length(), 1);
        // …which the reference program calls illegal.
        assert_eq!(count_illegal_instructions(&p, &s), 1);
        // A legal schedule has no illegal instructions.
        let legal_deps = DependenceGraph::build(&p).unwrap();
        let matrix = ConflictMatrix::build(&p);
        let legal = list_pass(&p, &legal_deps, &matrix, None, Priority::Slack).unwrap();
        assert_eq!(count_illegal_instructions(&p, &legal), 0);
    }
}
