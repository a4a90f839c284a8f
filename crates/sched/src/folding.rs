//! Loop folding (modulo scheduling) of the time-loop.
//!
//! The paper: "The total application is scheduled in 63 cycles. This could
//! be reduced a few cycles if the time-loop could be folded which is not
//! supported by the current system." Folding overlaps the tail of frame
//! *t* with the head of frame *t+1*: the kernel repeats every *II*
//! (initiation interval) cycles, bounded below by resource pressure, no
//! longer by the pipeline fill/drain of the dependence chains.
//!
//! This module implements iterative modulo scheduling: resources are
//! modelled modulo II; loop-carried dependences (signal write → next
//! frames' taps) carry an iteration *distance*.

use std::fmt;

use dspcc_ir::{Program, RtId};

use crate::deps::DependenceGraph;
use crate::list::jitter;
use crate::schedule::ConflictMatrix;

/// A loop-carried dependence: `to` of iteration `i + distance` must issue
/// at least `latency(from)` cycles after `from` of iteration `i`:
/// `t_to + distance·II ≥ t_from + latency`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopEdge {
    /// Producer RT (e.g. the signal's RAM write).
    pub from: RtId,
    /// Consumer RT in a later iteration (e.g. a tap of the signal).
    pub to: RtId,
    /// Iteration distance (the tap depth), ≥ 1: a distance-0 edge would
    /// be an intra-iteration dependence, which
    /// [`fold_schedule_with_restarts`] rejects.
    pub distance: u32,
}

/// A folded schedule: flat issue cycles plus the initiation interval.
///
/// The kernel instruction at phase `p` contains every RT with
/// `issue mod II == p`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldedSchedule {
    issue: Vec<u32>,
    ii: u32,
}

/// Folding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FoldError {
    /// No schedule found for any II up to the given limit.
    NoIiFound {
        /// Smallest II tried (the resource/recurrence bound).
        min_ii: u32,
        /// Largest II tried.
        max_ii: u32,
    },
    /// A loop edge has iteration distance 0.
    ZeroDistance {
        /// Producer RT of the edge.
        from: RtId,
        /// Consumer RT of the edge.
        to: RtId,
    },
}

impl fmt::Display for FoldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FoldError::NoIiFound { min_ii, max_ii } => {
                write!(f, "no modulo schedule found for II in {min_ii}..={max_ii}")
            }
            FoldError::ZeroDistance { from, to } => {
                write!(f, "loop edge {from} → {to} has iteration distance 0")
            }
        }
    }
}

impl std::error::Error for FoldError {}

impl FoldedSchedule {
    /// The initiation interval: cycles between successive frame starts —
    /// the folded "cycle count" of the time-loop.
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// Flat issue cycle of each RT (within one iteration's unrolled view).
    pub fn issue_cycles(&self) -> &[u32] {
        &self.issue
    }

    /// Kernel phase (issue mod II) of each RT.
    pub fn phase(&self, rt: RtId) -> u32 {
        self.issue[rt.0 as usize] % self.ii
    }

    /// Number of overlapped iterations (pipeline stages) in the kernel.
    pub fn stage_count(&self) -> u32 {
        self.issue.iter().map(|&t| t / self.ii).max().unwrap_or(0) + 1
    }

    /// Verifies modulo-resource legality and all dependences.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn verify(
        &self,
        program: &Program,
        deps: &DependenceGraph,
        loop_edges: &[LoopEdge],
    ) -> Result<(), String> {
        for id in program.rt_ids() {
            for (succ, lat) in deps.successors(id) {
                let t = self.issue[id.0 as usize];
                let ts = self.issue[succ.0 as usize];
                if ts < t + lat {
                    return Err(format!("{id}→{succ}: {ts} < {t}+{lat}"));
                }
            }
        }
        for e in loop_edges {
            let t = self.issue[e.from.0 as usize];
            let ts = self.issue[e.to.0 as usize];
            let lat = program.rt(e.from).latency();
            if ts + e.distance * self.ii < t + lat {
                return Err(format!(
                    "loop edge {}→{} distance {} violated at II={}",
                    e.from, e.to, e.distance, self.ii
                ));
            }
        }
        for i in 0..program.rt_count() {
            for j in (i + 1)..program.rt_count() {
                let (a, b) = (RtId(i as u32), RtId(j as u32));
                if self.issue[i] % self.ii == self.issue[j] % self.ii
                    && !program.rt(a).compatible_with(program.rt(b))
                {
                    return Err(format!("{a} and {b} collide in kernel phase"));
                }
            }
        }
        Ok(())
    }
}

/// Attempts modulo scheduling for increasing II until success, trying
/// several placement orders per candidate II (deadline-ordered,
/// depth-ordered, and jittered variants) — iterative modulo scheduling.
/// No kernel may overlap more than `max_stages` iterations.
///
/// # Errors
///
/// Returns [`FoldError::ZeroDistance`] for a loop edge of distance 0, and
/// [`FoldError::NoIiFound`] when no attempted order fits any
/// II ≤ `max_ii`.
pub fn fold_schedule_with_restarts(
    program: &Program,
    deps: &DependenceGraph,
    loop_edges: &[LoopEdge],
    max_ii: u32,
    restarts: u32,
    max_stages: u32,
) -> Result<FoldedSchedule, FoldError> {
    if let Some(e) = loop_edges.iter().find(|e| e.distance == 0) {
        return Err(FoldError::ZeroDistance {
            from: e.from,
            to: e.to,
        });
    }
    let matrix = ConflictMatrix::build(program);
    // Candidate IIs ascend from the provable bound, so the first feasible
    // II found is optimal and the search stops there — the folding
    // counterpart of the list scheduler's bound cutoff.
    let min_ii = min_ii_with(program, deps, loop_edges, &matrix).max(1);
    let alap = deps.alap(deps.critical_path() + 1);
    let depth = deps.depths();
    for ii in min_ii..=max_ii {
        // Rau's iterative modulo scheduling (placement with eviction)
        // first — it converges at or near the minimum II.
        for seed in 0..=(restarts / 4) as u64 {
            if let Some(issue) =
                ims_schedule(program, deps, loop_edges, &matrix, ii, seed, max_stages)
            {
                let folded = FoldedSchedule { issue, ii };
                if folded.stage_count() <= max_stages
                    && folded.verify(program, deps, loop_edges).is_ok()
                {
                    return Ok(folded);
                }
            }
        }
        for seed in 0..=restarts as u64 {
            let key = |i: usize| -> (i64, i64) {
                let j = if seed == 0 {
                    i as i64
                } else {
                    (jitter(i, seed) & 0xFF) as i64
                };
                if seed % 2 == 0 {
                    (alap[i] as i64, j)
                } else {
                    (-(depth[i] as i64), j)
                }
            };
            let order = priority_topo_order(deps, &key);
            if let Some(issue) =
                try_modulo_schedule_ordered(program, deps, loop_edges, &matrix, ii, &order)
            {
                let folded = FoldedSchedule { issue, ii };
                if folded.stage_count() <= max_stages {
                    return Ok(folded);
                }
            }
        }
    }
    Err(FoldError::NoIiFound { min_ii, max_ii })
}

/// Rau's iterative modulo scheduling: operations are placed highest
/// priority first into their earliest feasible slot; when no slot in the
/// II-wide window fits, the operation is *force-placed* and conflicting
/// operations are evicted and rescheduled, within an operation budget.
fn ims_schedule(
    program: &Program,
    deps: &DependenceGraph,
    loop_edges: &[LoopEdge],
    matrix: &ConflictMatrix,
    ii: u32,
    seed: u64,
    max_stages: u32,
) -> Option<Vec<u32>> {
    let n = program.rt_count();
    if n == 0 {
        return Some(Vec::new());
    }
    // Height-based priority (successor chains, loop edges discounted by
    // distance·II).
    let mut height: Vec<i64> = deps.depths().iter().map(|&d| d as i64).collect();
    for e in loop_edges {
        let h = height[e.to.0 as usize] + program.rt(e.from).latency() as i64
            - (e.distance * ii) as i64;
        let i = e.from.0 as usize;
        if h > height[i] {
            height[i] = h;
        }
    }

    let mut issue: Vec<Option<u32>> = vec![None; n];
    let mut last_try: Vec<u32> = vec![0; n];
    let mut budget: i64 = n as i64 * 12;
    // Worklist, highest priority (greatest height) first.
    let mut work: Vec<usize> = (0..n).collect();
    work.sort_by_key(|&i| {
        (
            -(height[i]),
            if seed == 0 {
                i as i64
            } else {
                (jitter(i, seed) & 0xFF) as i64
            },
        )
    });
    let mut queue: std::collections::VecDeque<usize> = work.into_iter().collect();
    while let Some(i) = queue.pop_front() {
        if budget <= 0 {
            return None;
        }
        budget -= 1;
        let id = RtId(i as u32);
        // Earliest start from scheduled predecessors (intra + loop-carried).
        let mut estart: i64 = 0;
        for (pred, lat) in deps.predecessors(id) {
            if let Some(tp) = issue[pred.0 as usize] {
                estart = estart.max(tp as i64 + lat as i64);
            }
        }
        for e in loop_edges.iter().filter(|e| e.to == id) {
            if let Some(tf) = issue[e.from.0 as usize] {
                let lat = program.rt(e.from).latency() as i64;
                estart = estart.max(tf as i64 + lat - (e.distance * ii) as i64);
            }
        }
        let estart = estart.max(0) as u32;
        // Find a conflict-free slot in [estart, estart+II).
        let mut placed_at: Option<u32> = None;
        for t in estart..estart + ii {
            let phase = t % ii;
            let conflict = (0..n).any(|j| {
                issue[j]
                    .map(|tj| tj % ii == phase && matrix.conflicts(id, RtId(j as u32)))
                    .unwrap_or(false)
            });
            if !conflict {
                placed_at = Some(t);
                break;
            }
        }
        let t = match placed_at {
            Some(t) => t,
            None => {
                // Force placement: past estart, but always past the last
                // attempt to avoid cycling.
                estart.max(last_try[i] + 1)
            }
        };
        if t >= max_stages * ii {
            return None; // would stretch register lifetimes past the cap
        }
        last_try[i] = t;
        // Evict anything conflicting at this phase.
        let phase = t % ii;
        #[allow(clippy::needless_range_loop)] // j is also an RT id, not just an index
        for j in 0..n {
            if j != i
                && issue[j].map(|tj| tj % ii == phase).unwrap_or(false)
                && matrix.conflicts(id, RtId(j as u32))
            {
                issue[j] = None;
                queue.push_back(j);
            }
        }
        issue[i] = Some(t);
        // Evict dependents whose constraints the new placement violates.
        for (succ, lat) in deps.successors(id) {
            let s = succ.0 as usize;
            if let Some(ts) = issue[s] {
                if (ts as i64) < t as i64 + lat as i64 {
                    issue[s] = None;
                    queue.push_back(s);
                }
            }
        }
        for e in loop_edges.iter().filter(|e| e.from == id) {
            let s = e.to.0 as usize;
            if let Some(ts) = issue[s] {
                let lat = program.rt(id).latency() as i64;
                if (ts as i64 + (e.distance * ii) as i64) < t as i64 + lat {
                    issue[s] = None;
                    queue.push_back(s);
                }
            }
        }
    }
    Some(
        issue
            .into_iter()
            .map(|t| t.expect("queue drained"))
            .collect(),
    )
}

/// Kahn topological order choosing the minimum-key ready node each step.
fn priority_topo_order(deps: &DependenceGraph, key: &dyn Fn(usize) -> (i64, i64)) -> Vec<RtId> {
    let n = deps.rt_count();
    let mut remaining: Vec<usize> = (0..n)
        .map(|i| deps.predecessors(RtId(i as u32)).count())
        .collect();
    let mut ready: Vec<usize> = (0..n).filter(|&i| remaining[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while !ready.is_empty() {
        let (pos, &i) = ready
            .iter()
            .enumerate()
            .min_by_key(|&(_, &i)| key(i))
            .expect("nonempty");
        ready.swap_remove(pos);
        order.push(RtId(i as u32));
        for (succ, _) in deps.successors(RtId(i as u32)) {
            let s = succ.0 as usize;
            remaining[s] -= 1;
            if remaining[s] == 0 {
                ready.push(s);
            }
        }
    }
    order
}

/// Lower bound on II: resource pressure (distinct usages of the busiest
/// resource and the conflict-clique bound — a clique needs pairwise
/// distinct kernel phases, so II is at least its size) and recurrence
/// bound (latency/distance over loop-carried cycles, approximated per
/// edge; an edge of distance 0 carries no recurrence and is skipped).
pub fn min_initiation_interval(
    program: &Program,
    deps: &DependenceGraph,
    loop_edges: &[LoopEdge],
) -> u32 {
    let matrix = ConflictMatrix::build(program);
    min_ii_with(program, deps, loop_edges, &matrix)
}

/// As [`min_initiation_interval`], with a caller-provided conflict matrix.
fn min_ii_with(
    program: &Program,
    deps: &DependenceGraph,
    loop_edges: &[LoopEdge],
    matrix: &ConflictMatrix,
) -> u32 {
    let res_mii = matrix
        .distinct_usages()
        .max(crate::bounds::conflict_clique_bound(matrix));
    // Per-edge recurrence bound: a chain from `to …→ from` of length L plus
    // the back edge needs II ≥ (L + latency) / distance. Approximate L with
    // the ASAP distance.
    let asap = deps.asap();
    let rec_mii = loop_edges
        .iter()
        .filter(|e| e.distance > 0)
        .map(|e| {
            let l_from = asap[e.from.0 as usize] as i64;
            let l_to = asap[e.to.0 as usize] as i64;
            let lat = program.rt(e.from).latency() as i64;
            let need = l_from - l_to + lat;
            if need <= 0 {
                0
            } else {
                ((need + e.distance as i64 - 1) / e.distance as i64) as u32
            }
        })
        .max()
        .unwrap_or(0);
    res_mii.max(rec_mii)
}

fn try_modulo_schedule_ordered(
    program: &Program,
    deps: &DependenceGraph,
    loop_edges: &[LoopEdge],
    matrix: &ConflictMatrix,
    ii: u32,
    order: &[RtId],
) -> Option<Vec<u32>> {
    let n = program.rt_count();
    if n == 0 {
        return Some(Vec::new());
    }
    let order = order.to_vec();
    let mut issue: Vec<Option<u32>> = vec![None; n];
    // Modulo resource table: phase → RTs already issued at that phase.
    let mut table: Vec<Vec<RtId>> = vec![Vec::new(); ii as usize];
    for &rt in order.iter() {
        let i = rt.0 as usize;
        // Earliest from intra-iteration preds.
        let mut earliest = 0u32;
        for (pred, lat) in deps.predecessors(rt) {
            if let Some(tp) = issue[pred.0 as usize] {
                earliest = earliest.max(tp + lat);
            }
        }
        // Loop-carried in-edges: to-side constraint.
        for e in loop_edges.iter().filter(|e| e.to == rt) {
            if let Some(tf) = issue[e.from.0 as usize] {
                let lat = program.rt(e.from).latency();
                let bound = (tf + lat).saturating_sub(e.distance * ii);
                earliest = earliest.max(bound);
            }
        }
        // Scan up to II placements (all phases) from earliest.
        let mut placed = false;
        for t in earliest..earliest + ii {
            let phase = (t % ii) as usize;
            if matrix.fits(rt, &table[phase]) {
                issue[i] = Some(t);
                table[phase].push(rt);
                placed = true;
                break;
            }
        }
        if !placed {
            return None;
        }
    }
    // Loop-carried out-edges may still be violated for consumers placed
    // before producers in topological order; verify and reject.
    let issue: Vec<u32> = issue
        .into_iter()
        .map(|t| t.expect("every RT was placed by the loop above"))
        .collect();
    for e in loop_edges {
        let lat = program.rt(e.from).latency();
        if issue[e.to.0 as usize] + e.distance * ii < issue[e.from.0 as usize] + lat {
            return None;
        }
    }
    Some(issue)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::{list_pass, Priority};
    use dspcc_ir::{Rt, Usage};

    /// k chains const→mult→add over shared rom/mult/alu: unfolded length
    /// is k+2, folded II should approach k.
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
    fn folding_beats_unfolded_length() {
        let p = chains(4);
        let deps = DependenceGraph::build(&p).unwrap();
        let matrix = ConflictMatrix::build(&p);
        let unfolded = list_pass(&p, &deps, &matrix, None, Priority::Slack).unwrap();
        let folded = fold_schedule_with_restarts(&p, &deps, &[], unfolded.length(), 8, 8).unwrap();
        folded.verify(&p, &deps, &[]).unwrap();
        assert!(
            folded.ii() < unfolded.length(),
            "II {} should beat unfolded {}",
            folded.ii(),
            unfolded.length()
        );
        assert_eq!(folded.ii(), 4); // resource bound: 4 mults on one MULT
    }

    #[test]
    fn min_ii_resource_bound() {
        let p = chains(5);
        let deps = DependenceGraph::build(&p).unwrap();
        assert_eq!(min_initiation_interval(&p, &deps, &[]), 5);
    }

    #[test]
    fn recurrence_bound_limits_ii() {
        // a→b→c chain with a loop edge c→a at distance 1: II ≥ chain length.
        let mut p = Program::new();
        let v1 = p.add_value("v1");
        let v2 = p.add_value("v2");
        let mut a = Rt::new("a");
        a.add_def(v1);
        a.add_usage("alu", Usage::apply("add", ["v1"]));
        let mut b = Rt::new("b");
        b.add_use(v1);
        b.add_def(v2);
        b.add_usage("mult", Usage::apply("mult", ["v2"]));
        let mut c = Rt::new("c");
        c.add_use(v2);
        c.add_usage("ram", Usage::apply("write", ["v2"]));
        p.add_rt(a);
        p.add_rt(b);
        p.add_rt(c);
        let deps = DependenceGraph::build(&p).unwrap();
        let edges = [LoopEdge {
            from: RtId(2),
            to: RtId(0),
            distance: 1,
        }];
        // c issues at 2, latency 1 ⇒ a of next iteration ≥ 3 ⇒ II ≥ 3.
        assert_eq!(min_initiation_interval(&p, &deps, &edges), 3);
        let folded = fold_schedule_with_restarts(&p, &deps, &edges, 10, 8, 8).unwrap();
        folded.verify(&p, &deps, &edges).unwrap();
        assert_eq!(folded.ii(), 3);
    }

    #[test]
    fn stage_count_reflects_overlap() {
        let p = chains(2);
        let deps = DependenceGraph::build(&p).unwrap();
        let folded = fold_schedule_with_restarts(&p, &deps, &[], 10, 8, 8).unwrap();
        assert!(folded.stage_count() >= 2, "chains must overlap iterations");
    }

    #[test]
    fn impossible_ii_reports_error() {
        // max_ii below the resource bound: no II can work.
        let p = chains(4);
        let deps = DependenceGraph::build(&p).unwrap();
        let err = fold_schedule_with_restarts(&p, &deps, &[], 3, 8, 8).unwrap_err();
        assert_eq!(
            err,
            FoldError::NoIiFound {
                min_ii: 4,
                max_ii: 3
            }
        );
        assert!(err.to_string().contains("no modulo schedule"));
    }

    #[test]
    fn loop_edge_raises_ii() {
        // Loop edge add0 → const0 at distance 1: next frame's const0 must
        // wait for this frame's add0 (+1 latency), so II ≥ 3 even for a
        // single chain.
        let p = chains(1);
        let deps = DependenceGraph::build(&p).unwrap();
        let edges = [LoopEdge {
            from: RtId(2),
            to: RtId(0),
            distance: 1,
        }];
        assert_eq!(min_initiation_interval(&p, &deps, &edges), 3);
        let folded = fold_schedule_with_restarts(&p, &deps, &edges, 10, 8, 8).unwrap();
        folded.verify(&p, &deps, &edges).unwrap();
        assert_eq!(folded.ii(), 3);
    }

    #[test]
    fn zero_distance_loop_edge_is_rejected() {
        // c → a at distance 0: c issues at 2 (+1 latency) after a at 0, so
        // the recurrence term would divide by the distance.
        let p = chains(1);
        let deps = DependenceGraph::build(&p).unwrap();
        let edges = [LoopEdge {
            from: RtId(2),
            to: RtId(0),
            distance: 0,
        }];
        assert_eq!(min_initiation_interval(&p, &deps, &edges), 1);
        let err = fold_schedule_with_restarts(&p, &deps, &edges, 10, 8, 8).unwrap_err();
        assert_eq!(
            err,
            FoldError::ZeroDistance {
                from: RtId(2),
                to: RtId(0)
            }
        );
        assert!(err.to_string().contains("distance 0"));
    }

    #[test]
    fn phase_and_issue_consistency() {
        let p = chains(3);
        let deps = DependenceGraph::build(&p).unwrap();
        let folded = fold_schedule_with_restarts(&p, &deps, &[], 10, 8, 8).unwrap();
        for id in p.rt_ids() {
            assert_eq!(
                folded.phase(id),
                folded.issue_cycles()[id.0 as usize] % folded.ii()
            );
        }
    }

    #[test]
    fn empty_program_folds_trivially() {
        let p = Program::new();
        let deps = DependenceGraph::build(&p).unwrap();
        let folded = fold_schedule_with_restarts(&p, &deps, &[], 4, 8, 8).unwrap();
        assert!(folded.issue_cycles().is_empty());
    }
}
