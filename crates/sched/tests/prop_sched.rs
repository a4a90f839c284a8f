//! Property-based tests for the bound-aware scheduling engine.
//!
//! * The provable length lower bound (`dspcc_sched::bounds`) never
//!   exceeds the length of *any* verified schedule — soundness is what
//!   lets the restart loops stop at the bound.
//! * The compacted production schedule stays verified on random
//!   programs, also with separation-0 sequence edges, whose RTs may
//!   share a cycle.
//! * What the dependence graph and the conflict matrix store at build
//!   equals a from-scratch derivation.
//! * One kept `Search` answers budgets in any order exactly like a
//!   one-shot `schedule` call per budget, under any fuel.

use dspcc_graph::dag::Dag;
use dspcc_ir::{Program, Rt, RtId, Usage};
use dspcc_sched::bounds::{distinct_usage_bound, length_lower_bound};
use dspcc_sched::deps::DependenceGraph;
use dspcc_sched::list::Priority;
use dspcc_sched::{schedule, ConflictMatrix, Fuel, SchedError, Scheduled, Scheduler, Search};
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

/// Strategy: a random program of up to `max_n` RTs plus sequence edges
/// of separation 0 or 1, each from a lower to a higher RT id like the
/// value flow, so the graph stays acyclic.
fn arb_sequenced(max_n: usize) -> impl Strategy<Value = (Program, Vec<(RtId, RtId, u32)>)> {
    arb_program(max_n).prop_flat_map(|p| {
        let n = p.rt_count() as u32;
        let edge =
            (0..n, 0..n, 0u32..2).prop_map(|(a, b, sep)| (RtId(a.min(b)), RtId(a.max(b)), sep));
        (Just(p), proptest::collection::vec(edge, 0..n as usize * 2))
    })
}

/// Runs `scheduler` without a budget on unlimited fuel.
fn run(p: &Program, deps: &DependenceGraph, scheduler: Scheduler) -> Result<Scheduled, SchedError> {
    let (matrix, mut fuel) = (ConflictMatrix::build(p), Fuel::unlimited());
    schedule(p, deps, &matrix, scheduler, None, &mut fuel, None)
}

const LIST: Scheduler = Scheduler::List {
    priority: Priority::Slack,
};

/// Every edge of `deps` as `(from, to, weight)`, sorted.
fn edges(deps: &DependenceGraph) -> Vec<(u32, u32, u32)> {
    let mut out: Vec<_> = (0..deps.rt_count() as u32)
        .flat_map(|v| deps.successors(RtId(v)).map(move |(s, w)| (v, s.0, w)))
        .collect();
    out.sort_unstable();
    out
}

/// Whether `order` lists every RT of `deps` once, each after its
/// predecessors.
fn is_topological(deps: &DependenceGraph, order: &[RtId]) -> bool {
    let mut pos = vec![usize::MAX; deps.rt_count()];
    for (k, rt) in order.iter().enumerate() {
        pos[rt.0 as usize] = k;
    }
    order.len() == deps.rt_count()
        && pos.iter().all(|&k| k != usize::MAX)
        && edges(deps)
            .iter()
            .all(|&(a, b, _)| pos[a as usize] < pos[b as usize])
}

proptest! {
    /// The stored order, ASAP times, successor depths, critical path and
    /// ALAP windows, and the stored distinct-usage count all equal what a
    /// fresh derivation computes.
    #[test]
    fn stored_analysis_matches_a_fresh_derivation((p, seq) in arb_sequenced(24)) {
        let deps = DependenceGraph::build_with_edges(&p, &seq).unwrap();
        let n = deps.rt_count();
        let mut dag = Dag::new(n);
        let mut mirror = Dag::new(n);
        for (a, b, w) in edges(&deps) {
            dag.add_edge(a as usize, b as usize, w as i64);
            mirror.add_edge(b as usize, a as usize, w as i64);
        }
        let to_u32 = |v: Vec<i64>| v.into_iter().map(|t| t as u32).collect::<Vec<_>>();
        prop_assert_eq!(deps.asap(), &to_u32(dag.asap())[..]);
        prop_assert_eq!(deps.depths(), &to_u32(mirror.longest_path_lengths())[..]);
        let cp = dag.critical_path_length() as u32;
        prop_assert_eq!(deps.critical_path(), cp);
        for b in [0, cp, cp + 1, cp + 7] {
            let alap: Vec<u32> = dag
                .alap(b as i64 - 1)
                .into_iter()
                .map(|t| t.max(0) as u32)
                .collect();
            prop_assert_eq!(deps.alap(b), alap, "budget {}", b);
        }
        prop_assert!(is_topological(&deps, deps.topological_order()));

        let distinct = distinct_usage_bound(&p);
        prop_assert_eq!(ConflictMatrix::build(&p).distinct_usages(), distinct);
        prop_assert_eq!(ConflictMatrix::build_reference(&p).distinct_usages(), distinct);
    }

    /// The lower bound never exceeds any verified schedule's length.
    #[test]
    fn lower_bound_is_sound(p in arb_program(24)) {
        let deps = DependenceGraph::build(&p).unwrap();
        let matrix = ConflictMatrix::build(&p);
        let bound = length_lower_bound(&p, &deps, &matrix);
        let list = run(&p, &deps, LIST).unwrap();
        list.schedule.verify(&p, &deps).unwrap();
        prop_assert_eq!(list.bound, bound);
        prop_assert!(bound <= list.schedule.length(), "bound {bound} > list {}", list.schedule.length());
        let best = run(&p, &deps, Scheduler::Compacting { restarts: 2 }).unwrap();
        best.schedule.verify(&p, &deps).unwrap();
        prop_assert_eq!(best.bound, bound);
        prop_assert!(bound <= best.schedule.length(), "bound {bound} > compacted {}", best.schedule.length());
    }

    /// The compacted production schedule stays verified on random
    /// programs (the engine rework changed every loop around it).
    #[test]
    fn compacted_schedules_verify(p in arb_program(20)) {
        let deps = DependenceGraph::build(&p).unwrap();
        let s = run(&p, &deps, Scheduler::Compacting { restarts: 1 }).unwrap();
        s.schedule.verify(&p, &deps).unwrap();
    }

    /// Every scheduler verifies its result on programs with sequence
    /// edges of separation 0, which let a predecessor and its successor
    /// share a cycle: the compacting one under full and starved fuel,
    /// the list pass, and the exact one within the compacted length.
    #[test]
    fn schedules_verify_with_separation_zero_edges((p, seq) in arb_sequenced(17)) {
        let deps = DependenceGraph::build_with_edges(&p, &seq).unwrap();
        let matrix = ConflictMatrix::build(&p);
        let compacted = run(&p, &deps, Scheduler::Compacting { restarts: 2 }).unwrap();
        let budget = compacted.schedule.length();
        let mut results = vec![compacted, run(&p, &deps, LIST).unwrap()];
        for (scheduler, fuel) in [
            (Scheduler::Compacting { restarts: 2 }, 3),
            (Scheduler::Exact { max_nodes: 2_000 }, u64::MAX),
            (Scheduler::Exact { max_nodes: 2_000 }, 5),
        ] {
            let mut fuel = Fuel::limited(fuel);
            match schedule(&p, &deps, &matrix, scheduler, Some(budget), &mut fuel, None) {
                Ok(s) => results.push(s),
                // A capped exact search or a starved one may miss the
                // budget; that is a typed outcome, not a wrong schedule.
                Err(SchedError::BudgetExceeded { .. } | SchedError::FuelExhausted { .. }) => {}
                Err(e) => prop_assert!(false, "{scheduler:?}: {e}"),
            }
        }
        for s in &results {
            s.schedule.verify(&p, &deps).unwrap();
            prop_assert!(s.bound <= s.schedule.length());
        }
    }

    /// One search answers a random order of budgets — every budget from
    /// two below the bound to two above the compacted length, and none —
    /// exactly like a one-shot compacting run per budget: the schedule,
    /// the bound and the degradation, or the error. Fuel unlimited, 1, 3
    /// and 8: a limited search must report the fuel and skipped count of
    /// the point it answers from, not where it has advanced to.
    #[test]
    fn one_search_answers_budgets_like_one_shot_runs(
        (p, restarts, keys) in (arb_program(20), 0u32..4, proptest::collection::vec(any::<u64>(), 32))
    ) {
        let deps = DependenceGraph::build(&p).unwrap();
        let matrix = ConflictMatrix::build(&p);
        let scheduler = Scheduler::Compacting { restarts };
        for fuel in [Fuel::unlimited(), Fuel::limited(1), Fuel::limited(3), Fuel::limited(8)] {
            let one_shot = |budget: Option<u32>| {
                let mut fuel = fuel;
                schedule(&p, &deps, &matrix, scheduler, budget, &mut fuel, None)
                    .map(|s| (s.schedule, s.bound, s.degradation))
            };
            // A budget no schedule misses stops the search at its
            // compacted construction.
            let (compacted, bound, _) = one_shot(Some(u32::MAX)).unwrap();
            let mut budgets: Vec<Option<u32>> = (bound.saturating_sub(2)..=compacted.length() + 2)
                .map(Some)
                .chain([None])
                .collect();
            let mut keyed: Vec<_> = budgets.drain(..).zip(keys.iter().cycle()).collect();
            keyed.sort_by_key(|&(_, key)| *key);
            let mut search = Search::new(&p, &deps, &matrix, restarts, fuel, None).unwrap();
            for (budget, _) in keyed {
                let shared = search
                    .answer(&p, &deps, &matrix, budget, None)
                    .map(|s| ((*s.schedule).clone(), s.bound, s.degradation));
                prop_assert_eq!(shared, one_shot(budget), "budget {:?}, fuel {:?}", budget, fuel);
            }
        }
    }
}
