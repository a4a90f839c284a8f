//! Generating instruction-set conflicts (paper section 6.3).
//!
//! "For allowed instruction sets it is possible to generate extra conflicts
//! before scheduling such that the RT combinations after scheduling will
//! not violate the instruction set. … In this graph we find a set of
//! cliques such that all edges in the conflict graph are covered. … For
//! RTs from a class which is also present in a clique a conflict must be
//! added with the clique as artificial resource. The clique as artificial
//! resource is added with as usage the RT class."
//!
//! Any clique cover yields a *valid* schedule; larger (maximal) cliques
//! merely reduce the number of artificial resources and hence scheduler
//! run-time — which is exactly what experiment E8 measures.
//!
//! The whole chain here runs on the word-packed bitset path: the conflict
//! graph arrives with packed adjacency rows (the instruction set derives
//! it once, when it is built — see [`InstructionSet::conflict_graph`]),
//! and all three cover strategies enumerate and grow cliques by
//! word-parallel neighbourhood intersection (see
//! [`dspcc_graph::cliques`] / [`dspcc_graph::cover`]).

use std::fmt;

use dspcc_graph::cover::{
    greedy_edge_clique_cover, minimum_edge_clique_cover, per_edge_clique_cover,
};
use dspcc_graph::UndirectedGraph;
use dspcc_ir::{Program, Usage};

use crate::classes::{ClassId, Classification};
use crate::iset::InstructionSet;

/// Which edge-clique-cover algorithm to use when generating artificial
/// resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoverStrategy {
    /// One 2-clique per conflict edge — most artificial resources, the
    /// ablation baseline.
    PerEdge,
    /// Greedy maximal cliques (the paper's suggestion); near-minimal.
    #[default]
    GreedyMaximal,
    /// Exact minimum cover (branch and bound); smallest possible.
    ExactMinimum,
}

impl CoverStrategy {
    /// Stable fingerprint tag for cache keys (the compile session keys
    /// RT-modification artifacts on the strategy, since the artificial
    /// resources it yields differ).
    pub fn fingerprint(self) -> u64 {
        match self {
            CoverStrategy::PerEdge => 1,
            CoverStrategy::GreedyMaximal => 2,
            CoverStrategy::ExactMinimum => 3,
        }
    }
}

impl fmt::Display for CoverStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CoverStrategy::PerEdge => "per-edge",
            CoverStrategy::GreedyMaximal => "greedy",
            CoverStrategy::ExactMinimum => "exact",
        })
    }
}

/// One artificial resource: a clique of the conflict graph, named after
/// its member classes (`SX`, `TUY`, `ABC`, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtificialResource {
    name: String,
    members: Vec<ClassId>,
}

impl ArtificialResource {
    /// Resource name used in RT usage maps.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The classes forming the clique.
    pub fn members(&self) -> &[ClassId] {
        &self.members
    }

    /// Whether `class` participates in this clique.
    pub fn contains(&self, class: ClassId) -> bool {
        self.members.contains(&class)
    }
}

impl fmt::Display for ArtificialResource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = {:?}", self.name, self.members)
    }
}

/// Computes the artificial resources for an instruction set: covers the
/// conflict graph's edges with cliques per `strategy` and names each
/// clique by concatenating the member class names.
///
/// Returns an empty list when the instruction set imposes no restrictions
/// beyond the datapath (conflict graph with no edges).
pub fn artificial_resources(
    iset: &InstructionSet,
    classification: &Classification,
    strategy: CoverStrategy,
) -> Vec<ArtificialResource> {
    artificial_resources_for_graph(iset.conflict_graph(), classification, strategy)
}

/// As [`artificial_resources`], but from an explicit conflict graph
/// (useful when the instruction set is only known via its graph).
pub fn artificial_resources_for_graph(
    graph: &UndirectedGraph,
    classification: &Classification,
    strategy: CoverStrategy,
) -> Vec<ArtificialResource> {
    let cover = match strategy {
        CoverStrategy::PerEdge => per_edge_clique_cover(graph),
        CoverStrategy::GreedyMaximal => greedy_edge_clique_cover(graph),
        CoverStrategy::ExactMinimum => minimum_edge_clique_cover(graph),
    };
    cover
        .into_iter()
        .map(|clique| {
            let name: String = clique
                .iter()
                .map(|&c| classification.class(ClassId(c)).name())
                .collect::<Vec<_>>()
                .join("");
            ArtificialResource {
                name,
                members: clique.into_iter().map(ClassId).collect(),
            }
        })
        .collect()
}

/// Installs the artificial resources into every RT of `program`:
///
/// for each RT of class `C` and each artificial resource (clique) whose
/// members include `C`, the RT gains usage `<clique> = <C's name>`.
///
/// RTs that belong to no class (none of the classified OPUs) are left
/// untouched. Returns the number of usages added.
pub fn apply_artificial_resources(
    program: &mut Program,
    classification: &Classification,
    resources: &[ArtificialResource],
) -> usize {
    // Intern each artificial resource name and each class's token usage
    // once; the per-RT install is then id-based.
    let ar_res: Vec<dspcc_ir::Resource> = resources
        .iter()
        .map(|ar| dspcc_ir::Resource::new(ar.name()))
        .collect();
    let class_token: Vec<dspcc_ir::UsageId> = classification
        .classes()
        .iter()
        .map(|c| dspcc_ir::UsageId::of(&Usage::token(c.name())))
        .collect();
    let mut added = 0;
    for id in program.rt_ids().collect::<Vec<_>>() {
        let class = match classification.class_of(program.rt(id)) {
            Some(c) => c,
            None => continue,
        };
        for (ar, &res) in resources.iter().zip(&ar_res) {
            if ar.contains(class) {
                program.rt_mut(id).add_usage_id(res, class_token[class.0]);
                added += 1;
            }
        }
    }
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::RtClass;
    use dspcc_ir::Rt;

    /// Classification with classes S,T,U,V,X,Y on distinct OPUs.
    fn paper_classification() -> Classification {
        let mut c = Classification::new();
        for (name, opu) in [
            ("S", "opu_s"),
            ("T", "opu_t"),
            ("U", "opu_u"),
            ("V", "opu_v"),
            ("X", "opu_x"),
            ("Y", "opu_y"),
        ] {
            c.add(RtClass::new(name, opu, &["op"]));
        }
        c
    }

    fn paper_iset() -> InstructionSet {
        InstructionSet::closure(6, &[vec![0, 1], vec![0, 2, 3], vec![4, 5]])
    }

    fn rt_of_class(opu: &str) -> Rt {
        let mut rt = Rt::new(opu);
        rt.add_usage(opu, Usage::token("op"));
        rt
    }

    #[test]
    fn cover_resources_cover_all_conflict_edges() {
        let classification = paper_classification();
        let iset = paper_iset();
        for strategy in [
            CoverStrategy::PerEdge,
            CoverStrategy::GreedyMaximal,
            CoverStrategy::ExactMinimum,
        ] {
            let ars = artificial_resources(&iset, &classification, strategy);
            let g = iset.conflict_graph();
            for (a, b) in g.edges() {
                assert!(
                    ars.iter()
                        .any(|ar| ar.contains(ClassId(a)) && ar.contains(ClassId(b))),
                    "{strategy:?}: edge {a}-{b} uncovered"
                );
            }
        }
    }

    #[test]
    fn per_edge_cover_has_ten_resources() {
        let ars = artificial_resources(
            &paper_iset(),
            &paper_classification(),
            CoverStrategy::PerEdge,
        );
        assert_eq!(ars.len(), 10); // one per figure-6 edge
    }

    #[test]
    fn minimum_cover_no_larger_than_papers_six() {
        let ars = artificial_resources(
            &paper_iset(),
            &paper_classification(),
            CoverStrategy::ExactMinimum,
        );
        assert!(
            ars.len() <= 6,
            "paper's cover has 6 cliques, got {}",
            ars.len()
        );
    }

    #[test]
    fn resource_names_concatenate_class_names() {
        let ars = artificial_resources(
            &paper_iset(),
            &paper_classification(),
            CoverStrategy::GreedyMaximal,
        );
        // The maximal clique {T,U,Y} must appear with name "TUY".
        assert!(
            ars.iter()
                .any(|ar| ar.name() == "TUY" || ar.name() == "TVX"),
            "expected a paper-style maximal clique name, got {:?}",
            ars.iter().map(ArtificialResource::name).collect::<Vec<_>>()
        );
    }

    #[test]
    fn apply_adds_class_usage_to_member_rts() {
        // Section 6.3's worked example: RT_1 ∈ S gains SX = S and SY = S.
        let classification = paper_classification();
        let iset = paper_iset();
        let ars = artificial_resources(&iset, &classification, CoverStrategy::PerEdge);
        let mut program = Program::new();
        let rt1 = program.add_rt(rt_of_class("opu_s"));
        let rt3 = program.add_rt(rt_of_class("opu_x"));
        let added = apply_artificial_resources(&mut program, &classification, &ars);
        assert!(added > 0);
        // S conflicts with X and Y ⇒ RT_1 carries SX and SY.
        assert_eq!(program.rt(rt1).usage_of("SX"), Some(&Usage::token("S")));
        assert_eq!(program.rt(rt1).usage_of("SY"), Some(&Usage::token("S")));
        // X's RT carries SX = X: the pair now conflicts for the scheduler.
        assert_eq!(program.rt(rt3).usage_of("SX"), Some(&Usage::token("X")));
        assert!(!program.rt(rt1).compatible_with(program.rt(rt3)));
    }

    #[test]
    fn compatible_classes_stay_compatible_after_apply() {
        let classification = paper_classification();
        let iset = paper_iset();
        let ars = artificial_resources(&iset, &classification, CoverStrategy::GreedyMaximal);
        let mut program = Program::new();
        let s = program.add_rt(rt_of_class("opu_s"));
        let u = program.add_rt(rt_of_class("opu_u"));
        let v = program.add_rt(rt_of_class("opu_v"));
        apply_artificial_resources(&mut program, &classification, &ars);
        // {S,U,V} is an allowed type: all pairs stay compatible.
        assert!(program.rt(s).compatible_with(program.rt(u)));
        assert!(program.rt(s).compatible_with(program.rt(v)));
        assert!(program.rt(u).compatible_with(program.rt(v)));
    }

    #[test]
    fn forbidden_pairs_conflict_for_every_strategy() {
        let classification = paper_classification();
        let iset = paper_iset();
        let g = iset.conflict_graph();
        for strategy in [
            CoverStrategy::PerEdge,
            CoverStrategy::GreedyMaximal,
            CoverStrategy::ExactMinimum,
        ] {
            let ars = artificial_resources(&iset, &classification, strategy);
            let opus = ["opu_s", "opu_t", "opu_u", "opu_v", "opu_x", "opu_y"];
            let mut program = Program::new();
            let ids: Vec<_> = opus
                .iter()
                .map(|o| program.add_rt(rt_of_class(o)))
                .collect();
            apply_artificial_resources(&mut program, &classification, &ars);
            for a in 0..6 {
                for b in (a + 1)..6 {
                    let compatible = program.rt(ids[a]).compatible_with(program.rt(ids[b]));
                    assert_eq!(
                        compatible,
                        !g.has_edge(a, b),
                        "{strategy:?}: classes {a},{b} compatibility mismatch"
                    );
                }
            }
        }
    }

    #[test]
    fn unclassified_rts_untouched() {
        let classification = paper_classification();
        let ars =
            artificial_resources(&paper_iset(), &classification, CoverStrategy::GreedyMaximal);
        let mut program = Program::new();
        let mut rt = Rt::new("other");
        rt.add_usage("unrelated_opu", Usage::token("op"));
        let id = program.add_rt(rt);
        let before = program.rt(id).resource_count();
        apply_artificial_resources(&mut program, &classification, &ars);
        assert_eq!(program.rt(id).resource_count(), before);
    }

    #[test]
    fn unrestricted_iset_yields_no_resources() {
        let mut c = Classification::new();
        c.add(RtClass::new("A", "opu_a", &["op"]));
        c.add(RtClass::new("B", "opu_b", &["op"]));
        let iset = InstructionSet::closure(2, &[vec![0, 1]]);
        let ars = artificial_resources(&iset, &c, CoverStrategy::GreedyMaximal);
        assert!(ars.is_empty());
    }

    #[test]
    fn display_artificial_resource() {
        let ar = ArtificialResource {
            name: "SX".into(),
            members: vec![ClassId(0), ClassId(4)],
        };
        assert!(ar.to_string().contains("SX"));
    }
}
