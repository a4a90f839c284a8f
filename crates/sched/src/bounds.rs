//! Provable lower bounds on schedule length.
//!
//! Every bound here is **sound**: no verified schedule of the program can
//! be shorter. That turns the bounds into stopping rules — the moment a
//! restart loop produces a schedule whose length equals the bound, the
//! schedule is provably optimal and every remaining restart is wasted
//! work. [`length_lower_bound`] is the conjunction [`crate::schedule()`]
//! computes once per call and threads through the restart engine, the
//! justification rounds and the iterated local search;
//! [`crate::folding::fold_schedule_with_restarts`] starts its initiation
//! interval search from the same bounds.
//!
//! Three independent arguments contribute:
//!
//! * **Critical path** — a chain of flow dependences of latency-weighted
//!   length `L` needs `L + 1` cycles ([`critical_path_bound`]).
//! * **Distinct usages** — two RTs with *different* usages of one resource
//!   can never share an instruction, so a resource carrying `k` distinct
//!   usage values forces `k` distinct cycles ([`distinct_usage_bound`]).
//!   This is the per-resource "bin" bound: ops per conflict class over a
//!   per-cycle capacity of one.
//! * **Conflict clique** — a set of pairwise-conflicting RTs needs
//!   pairwise-distinct cycles, whatever mix of resources causes the
//!   conflicts; a greedy clique on the packed
//!   [`ConflictMatrix`](crate::schedule::ConflictMatrix) rows generalises
//!   the per-resource argument across resources
//!   ([`conflict_clique_bound`]).
//!
//! The first two are stored when the analysis is built: the critical path
//! by [`DependenceGraph`] construction, the distinct-usage count by
//! [`ConflictMatrix::build`]. The greedy clique runs per call — it is
//! cheap on small programs, and kept out of the analysis so that
//! rebuilding an analysis (a service restart re-derives it for schedules
//! read from disk) pays nothing for a bound no scheduling run needs then.
//!
//! [`crate::list::resource_lower_bound`] (usage *occurrence* counting) is
//! no bound and no scheduler reads it: identical usages may legally share
//! a cycle, so occurrence counts can exceed the true optimum. It remains
//! only as the resource-pressure figure the experiment binaries print.

use dspcc_ir::{Program, RtId};

use crate::deps::DependenceGraph;
use crate::schedule::ConflictMatrix;

/// The latency-weighted critical path of the dependence graph, as a
/// schedule-length bound: the last RT of the longest chain issues no
/// earlier than the chain length, so the schedule has at least
/// `critical_path + 1` cycles (0 for an empty program).
pub fn critical_path_bound(deps: &DependenceGraph) -> u32 {
    if deps.rt_count() == 0 {
        0
    } else {
        deps.critical_path() + 1
    }
}

/// The busiest resource's distinct-usage count. RTs whose usages of a
/// shared resource differ conflict pairwise, so each distinct usage value
/// of one resource claims a cycle of its own.
///
/// A built [`ConflictMatrix`] stores the same count
/// ([`ConflictMatrix::distinct_usages`]); this derivation from the
/// program alone is its reference.
pub fn distinct_usage_bound(program: &Program) -> u32 {
    // Interned ids: one integer sort, distinct usages per resource are
    // runs — no string hashing or tree maps.
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for (_, rt) in program.rts() {
        for &(res, usage) in rt.usage_ids() {
            pairs.push((res.id().0, usage.0));
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    let mut best = 0u32;
    let mut i = 0;
    while i < pairs.len() {
        let res = pairs[i].0;
        let mut j = i;
        while j < pairs.len() && pairs[j].0 == res {
            j += 1;
        }
        best = best.max((j - i) as u32);
        i = j;
    }
    best
}

/// A greedy clique in the conflict graph: every member pairwise conflicts
/// with every other, so the clique size bounds the schedule length (and a
/// modulo schedule's initiation interval) from below.
///
/// Greedy construction on the packed conflict rows: repeatedly take the
/// candidate with the most conflicts *inside* the remaining candidate set
/// (lowest RT id on ties, so the bound is deterministic), then intersect
/// the candidates with its row. One word-parallel AND per step; the found
/// clique may be smaller than the maximum one, which only weakens — never
/// unsounds — the bound.
pub fn conflict_clique_bound(matrix: &ConflictMatrix) -> u32 {
    let n = matrix.rt_count();
    if n == 0 {
        return 0;
    }
    let words = matrix.words_per_row();
    let mut candidates = vec![u64::MAX; words];
    // Mask tail bits past n so popcounts only see real RTs.
    let tail = n % 64;
    if tail != 0 {
        candidates[words - 1] = (1u64 << tail) - 1;
    }
    let mut size = 0u32;
    loop {
        // Candidate with the most conflicts among the remaining candidates.
        let mut pick: Option<(u32, usize)> = None;
        for i in 0..n {
            if candidates[i / 64] & (1 << (i % 64)) == 0 {
                continue;
            }
            let degree: u32 = matrix
                .row(RtId(i as u32))
                .iter()
                .zip(&candidates)
                .map(|(&r, &c)| (r & c).count_ones())
                .sum();
            if pick.map(|(d, _)| degree > d).unwrap_or(true) {
                pick = Some((degree, i));
            }
        }
        let Some((_, i)) = pick else { break };
        size += 1;
        // Keep only candidates conflicting with the new member; the member
        // itself drops out (no RT conflicts with itself).
        for (c, &r) in candidates.iter_mut().zip(matrix.row(RtId(i as u32))) {
            *c &= r;
        }
    }
    size
}

/// The combined schedule-length lower bound: the strongest of the critical
/// path, distinct-usage, and conflict-clique arguments.
///
/// `deps` and `matrix` must be built from `program`; the critical path and
/// the distinct-usage count are read from them as stored, and only the
/// clique is computed here.
pub fn length_lower_bound(
    program: &Program,
    deps: &DependenceGraph,
    matrix: &ConflictMatrix,
) -> u32 {
    debug_assert_eq!(program.rt_count(), matrix.rt_count());
    critical_path_bound(deps)
        .max(matrix.distinct_usages())
        .max(conflict_clique_bound(matrix))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspcc_ir::{Rt, Usage};

    /// k chains const→mult→add over shared rom/mult/alu.
    fn chains(k: usize) -> Program {
        let mut p = Program::new();
        for i in 0..k {
            let vc = p.add_value(format!("c{i}"));
            let vm = p.add_value(format!("m{i}"));
            let mut c = Rt::new(format!("const{i}"));
            c.add_def(vc);
            c.add_usage("rom", Usage::apply("const", [format!("{i}")]));
            let mut m = Rt::new(format!("mult{i}"));
            m.add_use(vc);
            m.add_def(vm);
            m.add_usage("mult", Usage::apply("mult", [format!("m{i}")]));
            let mut a = Rt::new(format!("add{i}"));
            a.add_use(vm);
            a.add_usage("alu", Usage::apply("add", [format!("a{i}")]));
            p.add_rt(c);
            p.add_rt(m);
            p.add_rt(a);
        }
        p
    }

    #[test]
    fn empty_program_has_zero_bound() {
        let p = Program::new();
        let deps = DependenceGraph::build(&p).unwrap();
        let matrix = ConflictMatrix::build(&p);
        assert_eq!(length_lower_bound(&p, &deps, &matrix), 0);
        assert_eq!(conflict_clique_bound(&matrix), 0);
        assert_eq!(distinct_usage_bound(&p), 0);
    }

    #[test]
    fn chain_bound_is_critical_path() {
        // One chain: critical path 2 (+1) dominates the resource bounds.
        let p = chains(1);
        let deps = DependenceGraph::build(&p).unwrap();
        let matrix = ConflictMatrix::build(&p);
        assert_eq!(critical_path_bound(&deps), 3);
        assert_eq!(length_lower_bound(&p, &deps, &matrix), 3);
    }

    #[test]
    fn wide_program_bound_is_resource_pressure() {
        // 6 chains: resource pressure (6 distinct mults on one MULT)
        // exceeds the 3-cycle chain.
        let p = chains(6);
        let deps = DependenceGraph::build(&p).unwrap();
        let matrix = ConflictMatrix::build(&p);
        assert_eq!(distinct_usage_bound(&p), 6);
        assert!(conflict_clique_bound(&matrix) >= 6);
        assert_eq!(length_lower_bound(&p, &deps, &matrix), 6);
    }

    #[test]
    fn identical_usages_do_not_inflate_the_bound() {
        // Two RTs with the *same* token usage are compatible: they can
        // share one cycle, so the bound must stay 1 (occurrence counting
        // would claim 2 — why resource_lower_bound is no bound).
        let mut p = Program::new();
        for name in ["a", "b"] {
            let mut rt = Rt::new(name);
            rt.add_usage("alu", Usage::token("add"));
            p.add_rt(rt);
        }
        let deps = DependenceGraph::build(&p).unwrap();
        let matrix = ConflictMatrix::build(&p);
        assert_eq!(length_lower_bound(&p, &deps, &matrix), 1);
        assert_eq!(crate::list::resource_lower_bound(&p), 2);
    }

    #[test]
    fn clique_bound_crosses_resources() {
        // a/b conflict on R1, b/c on R2, a/c on R3: a 3-clique with no
        // single resource carrying 3 distinct usages.
        let mut p = Program::new();
        let mut a = Rt::new("a");
        a.add_usage("r1", Usage::token("x"));
        a.add_usage("r3", Usage::token("x"));
        let mut b = Rt::new("b");
        b.add_usage("r1", Usage::token("y"));
        b.add_usage("r2", Usage::token("x"));
        let mut c = Rt::new("c");
        c.add_usage("r2", Usage::token("y"));
        c.add_usage("r3", Usage::token("y"));
        p.add_rt(a);
        p.add_rt(b);
        p.add_rt(c);
        let matrix = ConflictMatrix::build(&p);
        assert_eq!(distinct_usage_bound(&p), 2);
        assert_eq!(matrix.distinct_usages(), 2);
        assert_eq!(conflict_clique_bound(&matrix), 3);
    }

    #[test]
    fn bound_never_exceeds_a_verified_schedule() {
        use crate::list::{list_pass, Priority};
        for k in 1..=5 {
            let p = chains(k);
            let deps = DependenceGraph::build(&p).unwrap();
            let matrix = ConflictMatrix::build(&p);
            let s = list_pass(&p, &deps, &matrix, None, Priority::Slack).unwrap();
            s.verify(&p, &deps).unwrap();
            assert!(
                length_lower_bound(&p, &deps, &matrix) <= s.length(),
                "bound exceeds schedule for k={k}"
            );
        }
    }
}
