//! Property-based tests for instruction-set modelling: the construction
//! rules, the closure, and the artificial-resource machinery on random
//! instruction sets.

use dspcc_ir::{Program, Rt, Usage};
use dspcc_isa::classes::RtClass;
use dspcc_isa::{
    apply_artificial_resources, artificial_resources, ClassId, Classification, CoverStrategy,
    InstructionSet,
};
use proptest::prelude::*;

fn arb_desired(class_count: usize) -> impl Strategy<Value = Vec<Vec<usize>>> {
    proptest::collection::vec(
        proptest::collection::btree_set(0..class_count, 1..=class_count.min(5)),
        0..5,
    )
    .prop_map(|sets| sets.into_iter().map(|s| s.into_iter().collect()).collect())
}

fn classification_for(n: usize) -> Classification {
    let mut c = Classification::new();
    for i in 0..n {
        c.add(RtClass::new(
            &format!("C{i}"),
            format!("opu_{i}").as_str(),
            &["op"],
        ));
    }
    c
}

fn one_rt_per_class(n: usize) -> Program {
    let mut p = Program::new();
    for i in 0..n {
        let mut rt = Rt::new(format!("rt_{i}"));
        rt.add_usage(format!("opu_{i}").as_str(), Usage::token("op"));
        p.add_rt(rt);
    }
    p
}

proptest! {
    /// The closure of any desired types satisfies construction rules 1–4.
    #[test]
    fn closure_always_validates((n, desired) in (2usize..8).prop_flat_map(|n| (Just(n), arb_desired(n)))) {
        let iset = InstructionSet::closure(n, &desired);
        prop_assert!(iset.validate().is_ok());
        // Every desired type is allowed.
        for t in &desired {
            let ids: Vec<ClassId> = t.iter().map(|&c| ClassId(c)).collect();
            prop_assert!(iset.allows(&ids), "{t:?} lost in closure");
        }
    }

    /// `allows` is exactly "independent set of the conflict graph".
    #[test]
    fn allows_iff_conflict_free((n, desired) in (2usize..7).prop_flat_map(|n| (Just(n), arb_desired(n)))) {
        let iset = InstructionSet::closure(n, &desired);
        let g = iset.conflict_graph();
        // Enumerate all subsets (n ≤ 6 ⇒ ≤ 64).
        for mask in 0u32..(1 << n) {
            let set: Vec<usize> = (0..n).filter(|&i| mask & (1 << i) != 0).collect();
            let independent = set.iter().enumerate().all(|(k, &a)| {
                set[k + 1..].iter().all(|&b| !g.has_edge(a, b))
            });
            let ids: Vec<ClassId> = set.iter().map(|&c| ClassId(c)).collect();
            prop_assert_eq!(
                iset.allows(&ids),
                independent,
                "subset {:?} mismatch", set
            );
        }
    }

    /// The closure's types are exactly the independent sets of its
    /// conflict graph, found by brute force over every class subset.
    #[test]
    fn closure_types_are_the_independent_sets((n, desired) in (1usize..=10).prop_flat_map(|n| (Just(n), arb_desired(n)))) {
        let iset = InstructionSet::closure(n, &desired);
        let g = iset.conflict_graph();
        let mut independent: Vec<Vec<ClassId>> = Vec::new();
        for mask in 0u32..(1 << n) {
            let set: Vec<usize> = (0..n).filter(|&i| mask & (1 << i) != 0).collect();
            let free = set.iter().enumerate().all(|(k, &a)| {
                set[k + 1..].iter().all(|&b| !g.has_edge(a, b))
            });
            if free {
                independent.push(set.into_iter().map(ClassId).collect());
            }
        }
        independent.sort_by_key(|t| (t.len(), t.clone()));
        prop_assert_eq!(iset.types(), independent, "desired {:?}", desired);
    }

    /// After installing artificial resources, RT-pair compatibility equals
    /// conflict-graph non-adjacency — for every cover strategy.
    #[test]
    fn artificial_resources_realise_the_conflict_graph(
        (n, desired) in (2usize..7).prop_flat_map(|n| (Just(n), arb_desired(n))),
        strategy_idx in 0usize..3,
    ) {
        let strategy = [
            CoverStrategy::PerEdge,
            CoverStrategy::GreedyMaximal,
            CoverStrategy::ExactMinimum,
        ][strategy_idx];
        let iset = InstructionSet::closure(n, &desired);
        let g = iset.conflict_graph();
        let classification = classification_for(n);
        let ars = artificial_resources(&iset, &classification, strategy);
        let mut program = one_rt_per_class(n);
        apply_artificial_resources(&mut program, &classification, &ars);
        for a in 0..n {
            for b in (a + 1)..n {
                let compatible = program
                    .rt(dspcc_ir::RtId(a as u32))
                    .compatible_with(program.rt(dspcc_ir::RtId(b as u32)));
                prop_assert_eq!(compatible, !g.has_edge(a, b),
                    "classes {}/{} with {:?}", a, b, strategy);
            }
        }
    }

    /// Merging classes on the same OPU never changes an RT's class lookup
    /// result's OPU.
    #[test]
    fn class_of_stable_under_identification(n in 2usize..10) {
        let c = classification_for(n);
        let p = one_rt_per_class(n);
        for (i, (_, rt)) in p.rts().enumerate() {
            let id = c.class_of(rt).expect("each RT has a class");
            prop_assert_eq!(c.class(id).opu().name(), format!("opu_{i}"));
        }
    }
}
