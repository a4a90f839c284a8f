//! Dependence-graph construction over RTs.
//!
//! Within one iteration of the time-loop the only ordering constraints are
//! *flow dependences*: an RT consuming a value can issue no earlier than
//! the producer's issue cycle plus the producer's pipeline latency.
//!
//! Delay-line taps read values of **previous** frames out of RAM; with
//! circular buffers of sufficient depth the intra-frame read and write
//! slots never collide, so taps and signal writes of the same signal are
//! unordered inside a frame (the inter-iteration distance matters only for
//! loop folding, which handles it via [`crate::folding`]).

use std::fmt;

use dspcc_graph::dag::Dag;
use dspcc_ir::{Program, RtId};

/// Flow-dependence graph with ASAP/ALAP analysis.
///
/// Construction already needs a topological order (its acyclicity check),
/// so it keeps what follows from that order: the order itself, every RT's
/// ASAP cycle and successor depth, and the critical path. Schedulers and
/// their lower bounds read these on every call; none re-sorts the graph.
#[derive(Debug, Clone)]
pub struct DependenceGraph {
    dag: Dag,
    /// Kahn's topological order, from the acyclicity check.
    order: Vec<RtId>,
    /// Longest latency-weighted path from any source to each RT.
    asap: Vec<u32>,
    /// Longest latency-weighted path from each RT to any sink.
    depth: Vec<u32>,
    /// The longest path over the whole graph.
    critical_path: u32,
}

/// Error building the dependence graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DepError {
    /// The program failed [`Program::validate`].
    MalformedProgram(String),
    /// Value flow forms a cycle (impossible for programs lowered from a
    /// signal-flow graph, but checked for hand-built programs).
    CyclicDependences(Vec<usize>),
}

impl fmt::Display for DepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DepError::MalformedProgram(m) => write!(f, "malformed program: {m}"),
            DepError::CyclicDependences(nodes) => {
                write!(f, "cyclic dependences through RTs {nodes:?}")
            }
        }
    }
}

impl std::error::Error for DepError {}

impl DependenceGraph {
    /// Builds the flow-dependence graph of `program`.
    ///
    /// # Errors
    ///
    /// Returns [`DepError`] if the program is malformed or cyclic.
    pub fn build(program: &Program) -> Result<Self, DepError> {
        Self::build_with_edges(program, &[])
    }

    /// Builds the dependence graph with additional *sequence edges*
    /// `(from, to, min_separation)` — orderings not visible in value flow:
    /// successive reads of one input port, writes to one output port, or
    /// the frame-pointer update that must not overtake the frame's address
    /// computations (separation 0 allows the same cycle).
    ///
    /// # Errors
    ///
    /// Returns [`DepError`] if the program is malformed (a sequence edge
    /// naming an RT outside the program included) or cyclic.
    pub fn build_with_edges(
        program: &Program,
        sequence_edges: &[(RtId, RtId, u32)],
    ) -> Result<Self, DepError> {
        program.validate().map_err(DepError::MalformedProgram)?;
        let n = program.rt_count();
        let outside = |rt: RtId| rt.0 as usize >= n;
        if let Some((from, to, _)) = sequence_edges
            .iter()
            .find(|&&(from, to, _)| outside(from) || outside(to))
        {
            return Err(DepError::MalformedProgram(format!(
                "sequence edge {from} → {to} names an RT outside the program's {n} RTs"
            )));
        }
        let mut dag = Dag::new(n);
        // The program maintains the producer table as RTs are added (and
        // `validate` above just cross-checked it), so no per-build
        // producer index rebuild is needed.
        let producer = program.producer_table();
        for (id, rt) in program.rts() {
            for &u in rt.uses() {
                let p = producer[u.0 as usize].expect("validated program");
                if p != id {
                    let latency = program.rt(p).latency() as i64;
                    dag.add_edge(p.0 as usize, id.0 as usize, latency);
                }
            }
        }
        for &(from, to, sep) in sequence_edges {
            if from != to {
                dag.add_edge(from.0 as usize, to.0 as usize, sep as i64);
            }
        }
        let order = dag
            .topological_order()
            .map_err(|e| DepError::CyclicDependences(e.stuck_nodes))?;
        // Longest paths from the sources (forward over the order) and to
        // the sinks (backward over it).
        let mut asap = vec![0i64; n];
        for &v in &order {
            for &(s, w) in dag.successors(v) {
                asap[s] = asap[s].max(asap[v] + w);
            }
        }
        let mut depth = vec![0i64; n];
        for &v in order.iter().rev() {
            for &(s, w) in dag.successors(v) {
                depth[v] = depth[v].max(depth[s] + w);
            }
        }
        Ok(DependenceGraph {
            dag,
            order: order.into_iter().map(|v| RtId(v as u32)).collect(),
            critical_path: asap.iter().copied().max().unwrap_or(0) as u32,
            asap: asap.into_iter().map(|t| t as u32).collect(),
            depth: depth.into_iter().map(|t| t as u32).collect(),
        })
    }

    /// Number of RTs.
    pub fn rt_count(&self) -> usize {
        self.dag.node_count()
    }

    /// Direct successors (consumers) of `rt` with edge latencies.
    pub fn successors(&self, rt: RtId) -> impl Iterator<Item = (RtId, u32)> + '_ {
        self.dag
            .successors(rt.0 as usize)
            .iter()
            .map(|&(s, w)| (RtId(s as u32), w as u32))
    }

    /// Direct predecessors (producers) of `rt` with edge latencies.
    pub fn predecessors(&self, rt: RtId) -> impl Iterator<Item = (RtId, u32)> + '_ {
        self.dag
            .predecessors(rt.0 as usize)
            .iter()
            .map(|&(p, w)| (RtId(p as u32), w as u32))
    }

    /// ASAP issue cycle of every RT (index = RT id).
    pub fn asap(&self) -> &[u32] {
        &self.asap
    }

    /// Successor depth of every RT (index = RT id): the latency-weighted
    /// cycles of work on its longest chain to a sink — the critical-path
    /// priority.
    pub fn depths(&self) -> &[u32] {
        &self.depth
    }

    /// ALAP issue cycle of every RT when the whole schedule must fit in
    /// `budget` cycles (every RT must *finish* by `budget`, i.e. issue by
    /// `budget − latency`; latency is handled on the edges, so sinks issue
    /// at `budget − 1` at the latest, counting cycles from 0): the RT's
    /// successor depth before that, clamped at 0.
    pub fn alap(&self, budget: u32) -> Vec<u32> {
        self.forward().alap(budget)
    }

    /// Length of the critical path in cycles: a lower bound on any
    /// schedule (issue of the last RT is ≥ this, so the schedule length is
    /// ≥ this + 1).
    pub fn critical_path(&self) -> u32 {
        self.critical_path
    }

    /// A topological order of the RTs.
    pub fn topological_order(&self) -> &[RtId] {
        &self.order
    }

    /// The graph as built, as a [`View`].
    pub(crate) fn forward(&self) -> View<'_> {
        View {
            graph: self,
            mirrored: false,
        }
    }

    /// The time-mirrored graph, as a [`View`] of this one.
    pub(crate) fn mirrored(&self) -> View<'_> {
        View {
            graph: self,
            mirrored: true,
        }
    }
}

/// A dependence graph read forward, or time-mirrored: every edge
/// `a →(w) b` read as `b →(w) a`. Scheduling the mirror forward and
/// flipping the result (`t ← L−1−t`) is *backward scheduling*: every RT
/// lands at its latest feasible cycle, which packs tail-heavy programs
/// (outputs, stores at the end of the time-loop) far better than forward
/// greed.
///
/// The mirror copies nothing: its successors are the graph's
/// predecessors and the other way round, its ASAP times are the graph's
/// successor depths and the other way round, and its topological order
/// is the graph's, walked backwards.
#[derive(Debug, Clone, Copy)]
pub(crate) struct View<'a> {
    graph: &'a DependenceGraph,
    mirrored: bool,
}

impl<'a> View<'a> {
    /// Number of RTs.
    pub(crate) fn rt_count(self) -> usize {
        self.graph.rt_count()
    }

    /// Direct successors of `rt` in this view, with edge latencies.
    pub(crate) fn successors(self, rt: RtId) -> impl Iterator<Item = (RtId, u32)> + 'a {
        let (dag, v) = (&self.graph.dag, rt.0 as usize);
        let edges = if self.mirrored {
            dag.predecessors(v)
        } else {
            dag.successors(v)
        };
        edges.iter().map(|&(s, w)| (RtId(s as u32), w as u32))
    }

    /// Direct predecessors of `rt` in this view, with edge latencies.
    pub(crate) fn predecessors(self, rt: RtId) -> impl Iterator<Item = (RtId, u32)> + 'a {
        let (dag, v) = (&self.graph.dag, rt.0 as usize);
        let edges = if self.mirrored {
            dag.successors(v)
        } else {
            dag.predecessors(v)
        };
        edges.iter().map(|&(p, w)| (RtId(p as u32), w as u32))
    }

    /// ASAP issue cycle of every RT in this view.
    pub(crate) fn asap(self) -> &'a [u32] {
        if self.mirrored {
            &self.graph.depth
        } else {
            &self.graph.asap
        }
    }

    /// Successor depth of every RT in this view.
    pub(crate) fn depths(self) -> &'a [u32] {
        if self.mirrored {
            &self.graph.asap
        } else {
            &self.graph.depth
        }
    }

    /// The critical path, the same in both directions.
    pub(crate) fn critical_path(self) -> u32 {
        self.graph.critical_path
    }

    /// ALAP issue cycles under `budget` in this view, as
    /// [`DependenceGraph::alap`].
    pub(crate) fn alap(self, budget: u32) -> Vec<u32> {
        self.depths()
            .iter()
            .map(|&d| (budget as i64 - 1 - d as i64).max(0) as u32)
            .collect()
    }

    /// A topological order of this view.
    pub(crate) fn topological_order(self) -> impl DoubleEndedIterator<Item = RtId> + 'a {
        let (order, mirrored) = (&self.graph.order, self.mirrored);
        let last = order.len().saturating_sub(1);
        (0..order.len()).map(move |k| order[if mirrored { last - k } else { k }])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspcc_ir::{Rt, Usage};

    /// chain: a --(lat 2)--> b --> c ; d independent.
    fn chain_program() -> Program {
        let mut p = Program::new();
        let va = p.add_value("va");
        let vb = p.add_value("vb");
        let mut a = Rt::new("a");
        a.add_def(va);
        a.set_latency(2);
        a.add_usage("mult", Usage::token("mult"));
        let mut b = Rt::new("b");
        b.add_use(va);
        b.add_def(vb);
        b.add_usage("alu", Usage::token("add"));
        let mut c = Rt::new("c");
        c.add_use(vb);
        c.add_usage("alu", Usage::token("add"));
        let mut d = Rt::new("d");
        d.add_usage("rom", Usage::token("const"));
        p.add_rt(a);
        p.add_rt(b);
        p.add_rt(c);
        p.add_rt(d);
        p
    }

    #[test]
    fn flow_edges_with_latency() {
        let p = chain_program();
        let g = DependenceGraph::build(&p).unwrap();
        let succs: Vec<_> = g.successors(RtId(0)).collect();
        assert_eq!(succs, vec![(RtId(1), 2)]);
        let preds: Vec<_> = g.predecessors(RtId(2)).collect();
        assert_eq!(preds, vec![(RtId(1), 1)]);
    }

    #[test]
    fn asap_accounts_for_latency() {
        let g = DependenceGraph::build(&chain_program()).unwrap();
        assert_eq!(g.asap(), vec![0, 2, 3, 0]);
        assert_eq!(g.critical_path(), 3);
    }

    #[test]
    fn alap_under_budget() {
        let g = DependenceGraph::build(&chain_program()).unwrap();
        // Budget 6 cycles: c by 5, b by 4, a by 2; d anywhere up to 5.
        assert_eq!(g.alap(6), vec![2, 4, 5, 5]);
    }

    #[test]
    fn alap_equals_asap_on_critical_path_at_tight_budget() {
        let g = DependenceGraph::build(&chain_program()).unwrap();
        let budget = g.critical_path() + 1;
        let asap = g.asap();
        let alap = g.alap(budget);
        for rt in [0usize, 1, 2] {
            assert_eq!(asap[rt], alap[rt], "rt{rt} should have zero slack");
        }
    }

    #[test]
    fn malformed_program_rejected() {
        let mut p = Program::new();
        let v = p.add_value("v");
        let mut user = Rt::new("user");
        user.add_use(v);
        p.add_rt(user);
        match DependenceGraph::build(&p) {
            Err(DepError::MalformedProgram(m)) => assert!(m.contains("never defined")),
            other => panic!("expected malformed error, got {other:?}"),
        }
    }

    #[test]
    fn self_use_is_not_an_edge() {
        // An RT that defines and uses the same value (an in-place update)
        // must not create a self loop.
        let mut p = Program::new();
        let v = p.add_value("v");
        let mut init = Rt::new("init");
        init.add_def(v);
        let mut upd = Rt::new("upd");
        upd.add_use(v);
        p.add_rt(init);
        p.add_rt(upd);
        let g = DependenceGraph::build(&p).unwrap();
        assert_eq!(g.successors(RtId(1)).count(), 0);
    }

    #[test]
    fn topological_order_respects_flow() {
        let g = DependenceGraph::build(&chain_program()).unwrap();
        let order = g.topological_order();
        let pos = |id: RtId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(RtId(0)) < pos(RtId(1)));
        assert!(pos(RtId(1)) < pos(RtId(2)));
    }

    #[test]
    fn sequence_edges_add_ordering() {
        let mut p = Program::new();
        let mut a = Rt::new("read_l");
        a.add_usage("ipb", Usage::token("read"));
        let mut b = Rt::new("read_r");
        b.add_usage("ipb", Usage::token("read"));
        p.add_rt(a);
        p.add_rt(b);
        // No value flow, but the reads must stay ordered.
        let g = DependenceGraph::build_with_edges(&p, &[(RtId(0), RtId(1), 1)]).unwrap();
        assert_eq!(g.asap(), vec![0, 1]);
        // Zero-separation edges allow the same cycle but not reordering.
        let g0 = DependenceGraph::build_with_edges(&p, &[(RtId(0), RtId(1), 0)]).unwrap();
        assert_eq!(g0.asap(), vec![0, 0]);
        let order = g0.topological_order();
        assert_eq!(order, vec![RtId(0), RtId(1)]);
    }

    #[test]
    fn cyclic_sequence_edges_rejected() {
        let mut p = Program::new();
        p.add_rt(Rt::new("a"));
        p.add_rt(Rt::new("b"));
        let err =
            DependenceGraph::build_with_edges(&p, &[(RtId(0), RtId(1), 1), (RtId(1), RtId(0), 1)])
                .unwrap_err();
        assert!(matches!(err, DepError::CyclicDependences(_)));
    }

    #[test]
    fn sequence_edge_outside_the_program_rejected() {
        let mut p = Program::new();
        p.add_rt(Rt::new("a"));
        p.add_rt(Rt::new("b"));
        for edge in [(RtId(0), RtId(2), 1), (RtId(7), RtId(1), 0)] {
            match DependenceGraph::build_with_edges(&p, &[(RtId(0), RtId(1), 1), edge]) {
                Err(DepError::MalformedProgram(m)) => {
                    assert!(m.contains(&format!("{} → {}", edge.0, edge.1)), "{m}");
                }
                other => panic!("expected malformed error, got {other:?}"),
            }
        }
    }

    /// `n` RTs ordered only by `edges`, each `(from, to, separation)`.
    fn sequenced(n: usize, edges: &[(u32, u32, u32)]) -> DependenceGraph {
        let mut p = Program::new();
        for i in 0..n {
            p.add_rt(Rt::new(format!("rt{i}")));
        }
        let edges: Vec<_> = edges
            .iter()
            .map(|&(a, b, w)| (RtId(a), RtId(b), w))
            .collect();
        DependenceGraph::build_with_edges(&p, &edges).unwrap()
    }

    /// Every edge of `view` as `(from, to, weight)`, sorted.
    fn edges(view: View<'_>) -> Vec<(u32, u32, u32)> {
        let mut out: Vec<_> = (0..view.rt_count() as u32)
            .flat_map(|v| view.successors(RtId(v)).map(move |(s, w)| (v, s.0, w)))
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn mirrored_view_mirrors_every_edge() {
        // 0 → 1 → 3, 0 → 2 → 3 with weights 1 except 2 → 3 weight 3.
        let g = sequenced(4, &[(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 3)]);
        let (forward, mirror) = (g.forward(), g.mirrored());
        assert_eq!(edges(mirror).len(), edges(forward).len());
        for v in 0..4 {
            let v = RtId(v);
            let collect = |it: &mut dyn Iterator<Item = (RtId, u32)>| it.collect::<Vec<_>>();
            assert_eq!(
                collect(&mut mirror.successors(v)),
                collect(&mut g.predecessors(v))
            );
            assert_eq!(
                collect(&mut mirror.predecessors(v)),
                collect(&mut g.successors(v))
            );
        }
        // Longest paths in the mirror are the forward paths to a sink.
        assert_eq!(mirror.asap(), [4, 1, 3, 0]);
        assert_eq!(mirror.depths(), g.asap());
        assert_eq!(mirror.alap(5), [4, 3, 3, 0]);
        let order: Vec<_> = mirror.topological_order().collect();
        assert_eq!(order.first(), Some(&RtId(3)));
        assert_eq!(order.last(), Some(&RtId(0)));
    }

    proptest::proptest! {
        /// The mirror holds every edge reversed, and its order, ASAP
        /// times, successor depths, critical path and ALAP windows equal
        /// what a fresh derivation on the reversed edges computes.
        #[test]
        fn mirrored_view_matches_a_fresh_derivation(
            n in 1usize..=24,
            raw in proptest::collection::vec((0u32..24, 0u32..24, 0u32..4), 0..48),
        ) {
            let raw: Vec<_> = raw
                .into_iter()
                .map(|(a, b, w)| (a % n as u32, b % n as u32, w))
                .filter(|&(a, b, _)| a != b)
                .map(|(a, b, w)| (a.min(b), a.max(b), w))
                .collect();
            let g = sequenced(n, &raw);
            let mirror = g.mirrored();
            let mut reversed: Vec<_> =
                edges(g.forward()).into_iter().map(|(a, b, w)| (b, a, w)).collect();
            reversed.sort_unstable();
            proptest::prop_assert_eq!(&edges(mirror), &reversed);
            let mut dag = Dag::new(n);
            for &(a, b, w) in &reversed {
                dag.add_edge(a as usize, b as usize, w as i64);
            }
            let to_u32 = |v: Vec<i64>| v.into_iter().map(|t| t as u32).collect::<Vec<_>>();
            proptest::prop_assert_eq!(mirror.asap(), &to_u32(dag.asap())[..]);
            proptest::prop_assert_eq!(mirror.asap(), g.depths());
            proptest::prop_assert_eq!(mirror.depths(), g.asap());
            let cp = dag.critical_path_length() as u32;
            proptest::prop_assert_eq!(mirror.critical_path(), cp);
            proptest::prop_assert_eq!(g.critical_path(), cp);
            for b in [0, cp, cp + 1, cp + 7] {
                let alap: Vec<u32> = dag
                    .alap(b as i64 - 1)
                    .into_iter()
                    .map(|t| t.max(0) as u32)
                    .collect();
                proptest::prop_assert_eq!(mirror.alap(b), alap, "budget {}", b);
            }
            let mut pos = vec![usize::MAX; n];
            for (k, rt) in mirror.topological_order().enumerate() {
                pos[rt.0 as usize] = k;
            }
            proptest::prop_assert!(pos.iter().all(|&k| k < n));
            proptest::prop_assert!(reversed.iter().all(|&(a, b, _)| pos[a as usize] < pos[b as usize]));
        }
    }

    #[test]
    fn dep_error_display() {
        let e = DepError::CyclicDependences(vec![1, 2]);
        assert!(e.to_string().contains("cyclic"));
        let e = DepError::MalformedProgram("x".into());
        assert!(e.to_string().contains("malformed"));
    }
}
