//! Instruction types, instruction sets, construction rules, conflict
//! graphs (paper section 6.2).
//!
//! ```text
//! instruction type = {class1, class2, ...}
//! instruction set  = {instr_type1, instr_type2, ...}
//! ```
//!
//! Construction rules for *allowed* instruction sets:
//!
//! 1. the NOP (empty type) is included;
//! 2. every individual RT class is a valid type;
//! 3. every subset of a valid type is a valid type;
//! 4. if all 2-subsets of a set are valid types, the set itself is a valid
//!    type (the paper states the 3-class case; the general form follows by
//!    induction and is what makes "conflict" a *binary* relation).
//!
//! Rules 3+4 make the set of valid types exactly the set of independent
//! sets of the **conflict graph**: classes are nodes, and an edge joins two
//! classes that never occur together in any type.

use std::fmt;

use dspcc_graph::cliques::maximal_cliques;
use dspcc_graph::UndirectedGraph;

use crate::classes::ClassId;

/// An instruction set over classes `0..class_count`.
///
/// See the [module docs](self) for the construction rules; use
/// [`InstructionSet::closure`] to build a rule-conforming set from desired
/// types, or [`InstructionSet::from_types`] + [`InstructionSet::validate`]
/// to check a hand-written one.
///
/// The conflict graph is derived once, when the set is built: every
/// compile that imposes the set reads it, and the types never change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstructionSet {
    class_count: usize,
    /// Every type as an ascending class list, the lists in lexicographic
    /// order without duplicates: the order a set of sets of classes
    /// iterates in, so lookups are binary searches.
    types: Vec<Vec<ClassId>>,
    /// The conflict graph of `types`.
    conflict: UndirectedGraph,
}

/// Violation of the instruction-set construction rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IsaError {
    /// Rule 1: the NOP is missing.
    MissingNop,
    /// Rule 2: a singleton type is missing.
    MissingSingleton(ClassId),
    /// Rule 3: a subset of a valid type is missing.
    NotDownwardClosed {
        /// The valid type whose subset is missing.
        of: Vec<ClassId>,
        /// The missing subset.
        missing: Vec<ClassId>,
    },
    /// Rule 4: all pairs of these classes are valid but the set is not.
    PairwiseButNotJoint(Vec<ClassId>),
    /// A type references a class id ≥ `class_count`.
    UnknownClass(ClassId),
}

impl fmt::Display for IsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IsaError::MissingNop => write!(f, "rule 1 violated: NOP type missing"),
            IsaError::MissingSingleton(c) => {
                write!(f, "rule 2 violated: singleton type {{{c}}} missing")
            }
            IsaError::NotDownwardClosed { of, missing } => write!(
                f,
                "rule 3 violated: {missing:?} (subset of valid type {of:?}) is not a valid type"
            ),
            IsaError::PairwiseButNotJoint(t) => write!(
                f,
                "rule 4 violated: all pairs of {t:?} are valid types but the set is not"
            ),
            IsaError::UnknownClass(c) => write!(f, "type references unknown {c}"),
        }
    }
}

impl std::error::Error for IsaError {}

impl InstructionSet {
    /// Builds an instruction set from an explicit list of types (each a
    /// list of class ids). Duplicates are merged; no rules are enforced —
    /// call [`InstructionSet::validate`], which also reports class ids
    /// out of range (the conflict graph ignores them).
    pub fn from_types(class_count: usize, types: &[Vec<usize>]) -> Self {
        let mut canonical: Vec<Vec<ClassId>> = types
            .iter()
            .map(|t| canonical_type(t.iter().map(|&c| ClassId(c))))
            .collect();
        canonical.sort_unstable();
        canonical.dedup();
        InstructionSet {
            class_count,
            types: canonical,
            conflict: compat_of(class_count, types).complement(),
        }
    }

    /// Builds the smallest allowed instruction set containing the
    /// `desired` types, by applying the construction rules: NOP and
    /// singletons are added, subsets are added (rule 3), and
    /// pairwise-compatible sets are completed (rule 4).
    ///
    /// This reproduces the paper's example: desired
    /// `{S,T}, {S,U,V}, {X,Y}` closes to the 13-type set `I`.
    ///
    /// # Panics
    ///
    /// Panics if `class_count > 24` (the closure is exponential in the
    /// number of classes — real instruction sets have few classes; use the
    /// conflict graph directly for bigger experiments) or if a desired
    /// type references an out-of-range class.
    pub fn closure(class_count: usize, desired: &[Vec<usize>]) -> Self {
        assert!(
            class_count <= 24,
            "closure enumerates up to 2^n types; {class_count} classes is too many"
        );
        for t in desired {
            for &c in t {
                assert!(c < class_count, "class {c} out of range");
            }
        }
        // Compatible pairs: those inside some desired type.
        let compat = compat_of(class_count, desired);
        // Valid types = independent sets of the conflict graph = cliques of
        // the compatibility graph, plus NOP and singletons. Each type is a
        // class bitmask while the subsets are enumerated.
        let mut masks: Vec<u32> = vec![0];
        masks.extend((0..class_count).map(|c| 1u32 << c));
        for maximal in maximal_cliques(&compat) {
            // All non-empty subsets of each maximal clique: the submasks
            // of its mask, walked downwards.
            let clique = maximal.iter().fold(0u32, |mask, &c| mask | 1 << c);
            let mut subset = clique;
            while subset != 0 {
                masks.push(subset);
                subset = (subset - 1) & clique;
            }
        }
        masks.sort_unstable();
        masks.dedup();
        let mut types: Vec<Vec<ClassId>> = masks
            .into_iter()
            .map(|mut mask| {
                let mut t = Vec::with_capacity(mask.count_ones() as usize);
                while mask != 0 {
                    t.push(ClassId(mask.trailing_zeros() as usize));
                    mask &= mask - 1;
                }
                t
            })
            .collect();
        types.sort_unstable();
        // Two classes share a type iff they share a maximal clique, that
        // is iff they are compatible: the conflict graph is the
        // complement.
        InstructionSet {
            class_count,
            types,
            conflict: compat.complement(),
        }
    }

    /// Number of RT classes this set ranges over.
    pub fn class_count(&self) -> usize {
        self.class_count
    }

    /// All types, smallest first (NOP, singletons, pairs, …).
    pub fn types(&self) -> Vec<Vec<ClassId>> {
        let mut out = self.types.clone();
        out.sort_by_key(|t: &Vec<ClassId>| (t.len(), t.clone()));
        out
    }

    /// Whether the given set of classes is an allowed instruction type.
    pub fn allows(&self, classes: &[ClassId]) -> bool {
        self.contains(&canonical_type(classes.iter().copied()))
    }

    /// Whether the ascending, duplicate-free class list `t` is a type.
    fn contains(&self, t: &[ClassId]) -> bool {
        self.types
            .binary_search_by(|probe| probe.as_slice().cmp(t))
            .is_ok()
    }

    /// Checks construction rules 1–4.
    ///
    /// # Errors
    ///
    /// Returns the first violated rule with a witness.
    pub fn validate(&self) -> Result<(), IsaError> {
        for t in &self.types {
            for &c in t {
                if c.0 >= self.class_count {
                    return Err(IsaError::UnknownClass(c));
                }
            }
        }
        // Rule 1.
        if !self.contains(&[]) {
            return Err(IsaError::MissingNop);
        }
        // Rule 2.
        for c in 0..self.class_count {
            if !self.contains(&[ClassId(c)]) {
                return Err(IsaError::MissingSingleton(ClassId(c)));
            }
        }
        // Rule 3: removing any one element of a type yields a type
        // (sufficient for full downward closure by induction).
        let mut sub = Vec::new();
        for t in &self.types {
            for i in 0..t.len() {
                sub.clear();
                sub.extend_from_slice(&t[..i]);
                sub.extend_from_slice(&t[i + 1..]);
                if !self.contains(&sub) {
                    return Err(IsaError::NotDownwardClosed {
                        of: t.clone(),
                        missing: sub,
                    });
                }
            }
        }
        // Rule 4: every maximal independent set of the conflict graph must
        // be a type (with rule 3 this makes types = independent sets).
        let conflict = self.conflict_graph();
        let compat = conflict.complement();
        for clique in maximal_cliques(&compat) {
            let t = canonical_type(clique.iter().map(|&c| ClassId(c)));
            if !self.contains(&t) {
                return Err(IsaError::PairwiseButNotJoint(t));
            }
        }
        Ok(())
    }

    /// Content fingerprint: the class count and every type, in the
    /// canonical order the set stores them (ascending class lists in
    /// lexicographic order), so the value is independent of construction
    /// order. Used by the compile session to key cached RT-modification
    /// artifacts against the instruction set actually imposed.
    pub fn fingerprint(&self) -> u64 {
        dspcc_arch::Fnv64::of_parts(|h| {
            h.write_u64(self.class_count as u64);
            h.write_u64(self.types.len() as u64);
            for ty in &self.types {
                h.write_u64(ty.len() as u64);
                for class in ty {
                    h.write_u64(class.0 as u64);
                }
            }
        })
    }

    /// The conflict graph (paper figure 6): nodes are classes, and an edge
    /// joins two classes that occur together in **no** instruction type.
    /// Neighbour lists are ascending.
    ///
    /// Derived when the set is built, so this walks no types.
    pub fn conflict_graph(&self) -> &UndirectedGraph {
        &self.conflict
    }
}

/// `classes` as a type: ascending, without duplicates.
fn canonical_type(classes: impl IntoIterator<Item = ClassId>) -> Vec<ClassId> {
    let mut t: Vec<ClassId> = classes.into_iter().collect();
    t.sort_unstable();
    t.dedup();
    t
}

/// The compatibility graph of `types` over classes `0..class_count`: an
/// edge joins two classes that occur together in some type. Class ids out
/// of range are skipped ([`InstructionSet::validate`] reports them).
fn compat_of(class_count: usize, types: &[Vec<usize>]) -> UndirectedGraph {
    let mut compat = UndirectedGraph::new(class_count);
    for t in types {
        for (i, &a) in t.iter().enumerate() {
            for &b in &t[i + 1..] {
                if a < class_count && b < class_count {
                    compat.add_edge(a, b);
                }
            }
        }
    }
    compat
}

impl fmt::Display for InstructionSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.types().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            if t.is_empty() {
                write!(f, "NOP")?;
            } else {
                write!(f, "{{")?;
                for (j, c) in t.iter().enumerate() {
                    if j > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}", c.0)?;
                }
                write!(f, "}}")?;
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Class indices for the paper's example: S=0,T=1,U=2,V=3,X=4,Y=5.
    const S: usize = 0;
    const T: usize = 1;
    const U: usize = 2;
    const V: usize = 3;
    const X: usize = 4;
    const Y: usize = 5;

    fn paper_set() -> InstructionSet {
        InstructionSet::closure(6, &[vec![S, T], vec![S, U, V], vec![X, Y]])
    }

    #[test]
    fn paper_closure_has_13_types() {
        // I = {NOP, {S},{T},{U},{V},{X},{Y}, {S,U},{S,V},{U,V},{S,U,V},
        //      {S,T},{X,Y}}
        let iset = paper_set();
        assert_eq!(iset.types().len(), 13);
        assert!(iset.allows(&[]));
        for c in 0..6 {
            assert!(iset.allows(&[ClassId(c)]));
        }
        let yes: &[&[usize]] = &[&[S, U], &[S, V], &[U, V], &[S, U, V], &[S, T], &[X, Y]];
        for t in yes {
            let ids: Vec<ClassId> = t.iter().map(|&c| ClassId(c)).collect();
            assert!(iset.allows(&ids), "{t:?} should be allowed");
        }
        let no: &[&[usize]] = &[&[S, X], &[T, U], &[S, T, U], &[X, Y, S], &[T, V]];
        for t in no {
            let ids: Vec<ClassId> = t.iter().map(|&c| ClassId(c)).collect();
            assert!(!iset.allows(&ids), "{t:?} should be forbidden");
        }
    }

    #[test]
    fn paper_closure_validates() {
        paper_set().validate().unwrap();
    }

    #[test]
    fn paper_conflict_graph_matches_figure_6() {
        let iset = paper_set();
        let g = iset.conflict_graph();
        // Compatible pairs: S-T, S-U, S-V, U-V, X-Y. All 10 others conflict.
        assert_eq!(g.edge_count(), 10);
        for (a, b) in [(S, T), (S, U), (S, V), (U, V), (X, Y)] {
            assert!(!g.has_edge(a, b), "{a}-{b} must be compatible");
        }
        for (a, b) in [
            (S, X),
            (S, Y),
            (T, U),
            (T, V),
            (T, X),
            (T, Y),
            (U, X),
            (U, Y),
            (V, X),
            (V, Y),
        ] {
            assert!(g.has_edge(a, b), "{a}-{b} must conflict");
        }
    }

    #[test]
    fn missing_nop_detected() {
        let iset = InstructionSet::from_types(2, &[vec![0], vec![1]]);
        assert_eq!(iset.validate(), Err(IsaError::MissingNop));
    }

    #[test]
    fn missing_singleton_detected() {
        let iset = InstructionSet::from_types(2, &[vec![], vec![0]]);
        assert_eq!(iset.validate(), Err(IsaError::MissingSingleton(ClassId(1))));
    }

    #[test]
    fn not_downward_closed_detected() {
        // {0,1} valid but {1} missing… include singletons 0 and 1 but not
        // the pair {0,1}'s subset {1}? Build: NOP, {0}, {0,1} — missing {1}
        // trips rule 2 first; to isolate rule 3 use a triple.
        let iset =
            InstructionSet::from_types(3, &[vec![], vec![0], vec![1], vec![2], vec![0, 1, 2]]);
        match iset.validate() {
            Err(IsaError::NotDownwardClosed { .. }) => {}
            other => panic!("expected rule-3 violation, got {other:?}"),
        }
    }

    #[test]
    fn pairwise_but_not_joint_detected() {
        // Rule 4's own example: {S,U},{S,V},{U,V} valid ⇒ {S,U,V} required.
        let iset = InstructionSet::from_types(
            3,
            &[
                vec![],
                vec![0],
                vec![1],
                vec![2],
                vec![0, 1],
                vec![0, 2],
                vec![1, 2],
            ],
        );
        assert_eq!(
            iset.validate(),
            Err(IsaError::PairwiseButNotJoint(vec![
                ClassId(0),
                ClassId(1),
                ClassId(2)
            ]))
        );
    }

    #[test]
    fn unknown_class_detected() {
        let iset = InstructionSet::from_types(1, &[vec![], vec![0], vec![5]]);
        assert_eq!(iset.validate(), Err(IsaError::UnknownClass(ClassId(5))));
    }

    #[test]
    fn closure_of_nothing_is_nop_plus_singletons() {
        let iset = InstructionSet::closure(3, &[]);
        assert_eq!(iset.types().len(), 4);
        iset.validate().unwrap();
        // Fully serial: conflict graph is complete.
        assert_eq!(iset.conflict_graph().edge_count(), 3);
    }

    #[test]
    fn closure_of_everything_is_powerset() {
        let iset = InstructionSet::closure(4, &[vec![0, 1, 2, 3]]);
        assert_eq!(iset.types().len(), 16);
        iset.validate().unwrap();
        assert_eq!(iset.conflict_graph().edge_count(), 0);
    }

    #[test]
    fn closure_applies_rule_4_transitively() {
        // Desired pairs {0,1},{0,2},{1,2} — closure must add {0,1,2}.
        let iset = InstructionSet::closure(3, &[vec![0, 1], vec![0, 2], vec![1, 2]]);
        assert!(iset.allows(&[ClassId(0), ClassId(1), ClassId(2)]));
        iset.validate().unwrap();
    }

    #[test]
    fn display_lists_nop_first() {
        let iset = InstructionSet::closure(2, &[vec![0, 1]]);
        let s = iset.to_string();
        assert!(s.starts_with("{NOP, {0}, {1}, {0,1}}"), "{s}");
    }

    #[test]
    fn error_display() {
        assert!(IsaError::MissingNop.to_string().contains("rule 1"));
        assert!(IsaError::MissingSingleton(ClassId(2))
            .to_string()
            .contains("rule 2"));
        assert!(IsaError::PairwiseButNotJoint(vec![])
            .to_string()
            .contains("rule 4"));
    }

    #[test]
    fn from_types_is_canonical() {
        // Order, repeats and duplicate classes inside a type do not matter.
        let a = InstructionSet::from_types(3, &[vec![1, 0], vec![], vec![2], vec![0, 1, 0]]);
        let b = InstructionSet::from_types(3, &[vec![], vec![0, 1], vec![2]]);
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(a.allows(&[ClassId(1), ClassId(0), ClassId(1)]));
    }

    #[test]
    #[should_panic(expected = "too many")]
    fn closure_guards_class_count() {
        InstructionSet::closure(25, &[]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn closure_guards_class_range() {
        InstructionSet::closure(2, &[vec![0, 7]]);
    }
}
