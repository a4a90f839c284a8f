//! Exact branch-and-bound scheduling with execution-interval analysis.
//!
//! The paper's future work (section 8) points at "execution interval
//! analysis to prune the search space of the scheduler", citing Timmer &
//! Jess, *Exact Scheduling Strategies based on Bipartite Graph Matching*
//! (EDAC'95). The idea: at every search node each unscheduled RT has an
//! execution interval `[asap, alap]`; for each resource, the RTs competing
//! for it must be injectively assignable to cycles of their intervals — a
//! bipartite-matching feasibility question. If no perfect matching exists
//! the subtree is dead and is cut without enumeration.
//!
//! [`ExactConfig::prune`] switches the matching cut on and off, which is
//! exactly the ablation of experiment E6.

use std::collections::BTreeMap;

use dspcc_graph::matching::BipartiteGraph;
use dspcc_ir::{Program, RtId};

use crate::deps::DependenceGraph;
use crate::fuel::CancelToken;
use crate::schedule::{ConflictMatrix, Schedule};

/// Configuration of the exact scheduler.
#[derive(Debug, Clone)]
pub struct ExactConfig {
    /// Cycle budget (the schedule must fit in `budget` cycles).
    pub budget: u32,
    /// Enable bipartite-matching interval pruning.
    pub prune: bool,
    /// Abort after this many search nodes (`complete = false` in the
    /// result).
    pub max_nodes: u64,
    /// Cooperative cancellation, polled every few hundred search nodes
    /// (`cancelled = true` in the result).
    pub cancel: Option<CancelToken>,
}

impl ExactConfig {
    /// Pruned search within `budget`, with a generous node limit.
    pub fn new(budget: u32) -> Self {
        ExactConfig {
            budget,
            prune: true,
            max_nodes: 10_000_000,
            cancel: None,
        }
    }
}

/// Result of an exact-scheduling run.
#[derive(Debug, Clone)]
pub struct ExactResult {
    /// A feasible schedule within the budget, if one was found.
    pub schedule: Option<Schedule>,
    /// Search nodes visited (placements tried).
    pub nodes_explored: u64,
    /// `true` if the search ran to completion (found a schedule or proved
    /// infeasibility); `false` if the node limit or cancellation stopped
    /// it.
    pub complete: bool,
    /// `true` if the caller's [`CancelToken`] stopped the search.
    pub cancelled: bool,
}

/// Runs exact branch-and-bound scheduling: finds *a* schedule within
/// `config.budget` cycles or proves none exists. `matrix` is the conflict
/// matrix of `program`.
pub fn exact_schedule(
    program: &Program,
    deps: &DependenceGraph,
    matrix: &ConflictMatrix,
    config: &ExactConfig,
) -> ExactResult {
    let n = program.rt_count();
    if n == 0 {
        return ExactResult {
            schedule: Some(Schedule::new()),
            nodes_explored: 0,
            complete: true,
            cancelled: false,
        };
    }
    let asap = deps.asap();
    let alap = deps.alap(config.budget);
    if asap.iter().zip(&alap).any(|(a, l)| a > l) {
        // Critical path alone exceeds the budget.
        return ExactResult {
            schedule: None,
            nodes_explored: 0,
            complete: true,
            cancelled: false,
        };
    }
    // Resource census: resource name → RT ids using it.
    let mut by_resource: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (id, rt) in program.rts() {
        for (res, _) in rt.usages() {
            by_resource
                .entry(res.name().to_owned())
                .or_default()
                .push(id.0 as usize);
        }
    }

    let mut search = Search {
        program,
        deps,
        matrix,
        budget: config.budget,
        prune: config.prune,
        max_nodes: config.max_nodes,
        cancel: config.cancel.as_ref(),
        by_resource,
        issue: vec![None; n],
        nodes: 0,
        hit_limit: false,
        cancelled: false,
    };
    let mut lo = asap.to_vec();
    let mut hi = alap;
    let found = search.solve(&mut lo, &mut hi);
    let schedule = found.then(|| {
        let mut s = Schedule::new();
        for (i, t) in search.issue.iter().enumerate() {
            s.place(RtId(i as u32), t.expect("complete assignment"));
        }
        s
    });
    ExactResult {
        schedule,
        nodes_explored: search.nodes,
        complete: !search.hit_limit && !search.cancelled,
        cancelled: search.cancelled,
    }
}

struct Search<'a> {
    program: &'a Program,
    deps: &'a DependenceGraph,
    matrix: &'a ConflictMatrix,
    budget: u32,
    prune: bool,
    max_nodes: u64,
    cancel: Option<&'a CancelToken>,
    by_resource: BTreeMap<String, Vec<usize>>,
    issue: Vec<Option<u32>>,
    nodes: u64,
    hit_limit: bool,
    cancelled: bool,
}

/// How many search nodes pass between cancellation polls: cheap enough
/// to land promptly, coarse enough that the atomic load never shows up
/// in a profile. (Fuel, by contrast, is accounted *outside* the search —
/// the caller caps `max_nodes` to its remaining fuel and charges
/// `nodes_explored` afterwards — so the search itself stays free of
/// budget bookkeeping.)
const CANCEL_POLL_INTERVAL: u64 = 256;

impl Search<'_> {
    fn solve(&mut self, lo: &mut [u32], hi: &mut [u32]) -> bool {
        if self.nodes >= self.max_nodes {
            self.hit_limit = true;
            return false;
        }
        if self.nodes.is_multiple_of(CANCEL_POLL_INTERVAL)
            && self.cancel.map(CancelToken::is_cancelled).unwrap_or(false)
        {
            self.cancelled = true;
            return false;
        }
        // Pick the unscheduled RT with the smallest interval (fail first).
        let pick = (0..self.issue.len())
            .filter(|&i| self.issue[i].is_none())
            .min_by_key(|&i| (hi[i] - lo[i], std::cmp::Reverse(i)));
        let rt = match pick {
            None => return true, // everything scheduled
            Some(rt) => rt,
        };
        let id = RtId(rt as u32);
        for t in lo[rt]..=hi[rt] {
            if !self.placement_compatible(id, t) {
                continue;
            }
            self.nodes += 1;
            self.issue[rt] = Some(t);
            // Propagate the placement into neighbours' intervals.
            let mut new_lo = lo.to_vec();
            let mut new_hi = hi.to_vec();
            new_lo[rt] = t;
            new_hi[rt] = t;
            if self.propagate(&mut new_lo, &mut new_hi)
                && (!self.prune || self.intervals_feasible(&new_lo, &new_hi))
                && self.solve(&mut new_lo, &mut new_hi)
            {
                return true;
            }
            self.issue[rt] = None;
            if self.hit_limit || self.cancelled {
                return false;
            }
        }
        false
    }

    /// Whether issuing `rt` at `t` conflicts with already-placed RTs.
    fn placement_compatible(&self, rt: RtId, t: u32) -> bool {
        self.issue
            .iter()
            .enumerate()
            .all(|(j, &tj)| tj != Some(t) || !self.matrix.conflicts(rt, RtId(j as u32)))
    }

    /// Tightens intervals along dependence edges to a fixpoint. Returns
    /// `false` if some interval becomes empty.
    fn propagate(&self, lo: &mut [u32], hi: &mut [u32]) -> bool {
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..lo.len() {
                let id = RtId(i as u32);
                for (succ, lat) in self.deps.successors(id) {
                    let s = succ.0 as usize;
                    if lo[i] + lat > lo[s] {
                        lo[s] = lo[i] + lat;
                        changed = true;
                    }
                    if hi[s] < lat || hi[s] - lat < hi[i] {
                        if hi[s] < lat {
                            return false;
                        }
                        hi[i] = hi[s] - lat;
                        changed = true;
                    }
                }
            }
            for i in 0..lo.len() {
                if lo[i] > hi[i] {
                    return false;
                }
            }
        }
        true
    }

    /// Execution-interval analysis: per resource, unscheduled RTs with
    /// pairwise-distinct usages must injectively match to cycles of their
    /// intervals that are not blocked by a scheduled conflicting RT.
    fn intervals_feasible(&self, lo: &[u32], hi: &[u32]) -> bool {
        for users in self.by_resource.values() {
            if users.len() < 2 {
                continue;
            }
            // Deduplicate by usage: identical usages may share a cycle, so
            // keeping one of each usage under-constrains (stays sound).
            let mut kept: Vec<usize> = Vec::new();
            {
                let mut seen_usages: Vec<&dspcc_ir::Usage> = Vec::new();
                for &u in users {
                    if self.issue[u].is_some() {
                        continue;
                    }
                    let rt = self.program.rt(RtId(u as u32));
                    // All users share the resource; find this RT's usage of it.
                    let usage = rt
                        .usages()
                        .find(|(r, _)| {
                            self.by_resource
                                .get(r.name())
                                .map(|v| std::ptr::eq(v, users))
                                .unwrap_or(false)
                        })
                        .map(|(_, u)| u)
                        .expect("rt listed under resource");
                    if !seen_usages.contains(&usage) {
                        seen_usages.push(usage);
                        kept.push(u);
                    }
                }
            }
            if kept.len() < 2 {
                continue;
            }
            let mut g = BipartiteGraph::new(kept.len(), self.budget as usize);
            for (li, &u) in kept.iter().enumerate() {
                let id = RtId(u as u32);
                for t in lo[u]..=hi[u] {
                    if self.placement_compatible(id, t) {
                        g.add_edge(li, t as usize);
                    }
                }
            }
            if !g.has_left_perfect_matching() {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::{list_pass, Priority};
    use dspcc_ir::{Rt, Usage};

    fn exact(p: &Program, deps: &DependenceGraph, config: &ExactConfig) -> ExactResult {
        exact_schedule(p, deps, &ConflictMatrix::build(p), config)
    }

    /// k independent RTs all fighting for one ALU (distinct usages).
    fn serial_program(k: usize) -> Program {
        let mut p = Program::new();
        for i in 0..k {
            let mut rt = Rt::new(format!("op{i}"));
            rt.add_usage("alu", Usage::token(format!("op{i}").as_str()));
            p.add_rt(rt);
        }
        p
    }

    #[test]
    fn finds_schedule_at_exact_resource_bound() {
        let p = serial_program(4);
        let deps = DependenceGraph::build(&p).unwrap();
        let r = exact(&p, &deps, &ExactConfig::new(4));
        assert!(r.complete);
        let s = r.schedule.expect("4 serial RTs fit in 4 cycles");
        s.verify(&p, &deps).unwrap();
        assert_eq!(s.length(), 4);
    }

    #[test]
    fn proves_infeasibility_below_resource_bound() {
        let p = serial_program(4);
        let deps = DependenceGraph::build(&p).unwrap();
        let r = exact(&p, &deps, &ExactConfig::new(3));
        assert!(r.complete);
        assert!(r.schedule.is_none());
    }

    #[test]
    fn pruning_reduces_explored_nodes_on_infeasible_instance() {
        // 6 RTs on one ALU, budget 5: infeasible. The matching cut sees it
        // immediately; plain backtracking enumerates permutations.
        let p = serial_program(6);
        let deps = DependenceGraph::build(&p).unwrap();
        let mut pruned_cfg = ExactConfig::new(5);
        pruned_cfg.prune = true;
        let pruned = exact(&p, &deps, &pruned_cfg);
        let mut blind_cfg = ExactConfig::new(5);
        blind_cfg.prune = false;
        let blind = exact(&p, &deps, &blind_cfg);
        assert!(pruned.complete && blind.complete);
        assert!(pruned.schedule.is_none() && blind.schedule.is_none());
        assert!(
            pruned.nodes_explored < blind.nodes_explored,
            "pruned {} !< blind {}",
            pruned.nodes_explored,
            blind.nodes_explored
        );
    }

    #[test]
    fn budget_below_critical_path_is_immediately_infeasible() {
        let mut p = Program::new();
        let v1 = p.add_value("v1");
        let v2 = p.add_value("v2");
        let mut a = Rt::new("a");
        a.add_def(v1);
        a.add_usage("alu", Usage::token("a"));
        let mut b = Rt::new("b");
        b.add_use(v1);
        b.add_def(v2);
        b.add_usage("alu", Usage::token("b"));
        let mut c = Rt::new("c");
        c.add_use(v2);
        c.add_usage("alu", Usage::token("c"));
        p.add_rt(a);
        p.add_rt(b);
        p.add_rt(c);
        let deps = DependenceGraph::build(&p).unwrap();
        let r = exact(&p, &deps, &ExactConfig::new(2));
        assert!(r.complete);
        assert!(r.schedule.is_none());
        assert_eq!(r.nodes_explored, 0); // cut before any placement
    }

    #[test]
    fn exact_matches_or_beats_list_on_small_programs() {
        let p = serial_program(3);
        let deps = DependenceGraph::build(&p).unwrap();
        let list = list_pass(&p, &deps, &ConflictMatrix::build(&p), None, Priority::Slack).unwrap();
        let r = exact(&p, &deps, &ExactConfig::new(list.length()));
        assert!(r.schedule.is_some());
    }

    #[test]
    fn node_limit_reported() {
        let p = serial_program(8);
        let deps = DependenceGraph::build(&p).unwrap();
        let cfg = ExactConfig {
            budget: 7, // infeasible
            prune: false,
            max_nodes: 10,
            cancel: None,
        };
        let r = exact(&p, &deps, &cfg);
        assert!(!r.complete);
        assert!(r.schedule.is_none());
    }

    #[test]
    fn empty_program_is_trivially_schedulable() {
        let p = Program::new();
        let deps = DependenceGraph::build(&p).unwrap();
        let r = exact(&p, &deps, &ExactConfig::new(0));
        assert!(r.complete);
        assert_eq!(r.schedule.unwrap().length(), 0);
    }

    #[test]
    fn identical_rts_may_share_a_cycle() {
        // Two *identical* transfers (same usage everywhere) can share, so
        // budget 1 is feasible — the usage-dedup in the matching must not
        // forbid it.
        let mut p = Program::new();
        for _ in 0..2 {
            let mut rt = Rt::new("same");
            rt.add_usage("alu", Usage::token("add"));
            rt.add_usage("bus", Usage::apply("add", ["v0"]));
            p.add_rt(rt);
        }
        let deps = DependenceGraph::build(&p).unwrap();
        let r = exact(&p, &deps, &ExactConfig::new(1));
        assert!(r.complete);
        let s = r.schedule.expect("identical RTs share one instruction");
        assert_eq!(s.length(), 1);
    }
}
