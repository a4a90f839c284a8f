//! Property-based tests for the bound-aware scheduling engine.
//!
//! * The provable length lower bound (`dspcc_sched::bounds`) never
//!   exceeds the length of *any* verified schedule — soundness is what
//!   lets the restart loops stop at the bound.
//! * The compacted production schedule stays verified on random
//!   programs.

use dspcc_ir::{Program, Rt, Usage};
use dspcc_sched::bounds::length_lower_bound;
use dspcc_sched::compact::schedule_and_compact;
use dspcc_sched::deps::DependenceGraph;
use dspcc_sched::list::{insertion_schedule, list_schedule, ListConfig};
use dspcc_sched::ConflictMatrix;
use proptest::prelude::*;

/// Per-RT shape: (unit id, usage id, carries a private bus usage, latency).
type RtShape = (usize, usize, bool, u32);

/// Builds a program from random RT shapes and lower→higher value edges.
fn build_program(shapes: &[RtShape], edges: &[(usize, usize)]) -> Program {
    const UNITS: [&str; 4] = ["alu", "mult", "ram", "rom"];
    const MODES: [&str; 3] = ["a", "b", "c"];
    let n = shapes.len();
    let mut p = Program::new();
    let values: Vec<_> = (0..n).map(|i| p.add_value(format!("v{i}"))).collect();
    let mut uses: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(a, b) in edges {
        if a < b && !uses[b].contains(&a) {
            uses[b].push(a);
        }
    }
    for (i, &(unit, mode, bus, latency)) in shapes.iter().enumerate() {
        let mut rt = Rt::new(format!("rt{i}"));
        rt.add_def(values[i]);
        rt.set_latency(latency);
        rt.add_usage(UNITS[unit], Usage::token(MODES[mode]));
        if bus {
            // A per-RT-distinct bus usage: conflicts with every other bus
            // carrier, the "distinct data ⇒ distinct transfer" case.
            rt.add_usage("bus", Usage::apply("xfer", [format!("v{i}")]));
        }
        for &u in &uses[i] {
            rt.add_use(values[u]);
        }
        p.add_rt(rt);
    }
    p
}

/// Strategy: a random program of up to `max_n` RTs.
fn arb_program(max_n: usize) -> impl Strategy<Value = Program> {
    (2..=max_n).prop_flat_map(|n| {
        let shape = (0..4usize, 0..3usize, any::<bool>(), 1u32..4);
        (
            proptest::collection::vec(shape, n..=n),
            proptest::collection::vec((0..n, 0..n), 0..n * 2),
        )
            .prop_map(|(shapes, edges)| build_program(&shapes, &edges))
    })
}

proptest! {
    /// The lower bound never exceeds any verified schedule's length.
    #[test]
    fn lower_bound_is_sound(p in arb_program(24)) {
        let deps = DependenceGraph::build(&p).unwrap();
        let matrix = ConflictMatrix::build(&p);
        let bound = length_lower_bound(&p, &deps, &matrix);
        let list = list_schedule(&p, &deps, &ListConfig::default()).unwrap();
        list.verify(&p, &deps).unwrap();
        prop_assert!(bound <= list.length(), "bound {bound} > list {}", list.length());
        let ins = insertion_schedule(&p, &deps, &matrix, &ListConfig::default()).unwrap();
        ins.verify(&p, &deps).unwrap();
        prop_assert!(bound <= ins.length(), "bound {bound} > insertion {}", ins.length());
        let best = schedule_and_compact(&p, &deps, None, 2).unwrap();
        best.verify(&p, &deps).unwrap();
        prop_assert!(bound <= best.length(), "bound {bound} > compacted {}", best.length());
    }

    /// The compacted production schedule stays verified on random
    /// programs (the engine rework changed every loop around it).
    #[test]
    fn compacted_schedules_verify(p in arb_program(20)) {
        let deps = DependenceGraph::build(&p).unwrap();
        let s = schedule_and_compact(&p, &deps, None, 1).unwrap();
        s.verify(&p, &deps).unwrap();
    }
}
