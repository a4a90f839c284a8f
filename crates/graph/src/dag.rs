//! Directed-acyclic-graph utilities for dependence analysis.
//!
//! The scheduler builds a dependence graph over RTs with weighted edges
//! (latencies) and needs topological orders, longest paths (critical path),
//! and ASAP/ALAP times under a cycle budget. Those primitives live here so
//! they can be tested in isolation.

use std::collections::VecDeque;

/// A directed graph with `i64` edge weights, expected to be acyclic for the
/// analyses below.
///
/// Nodes are indices `0..n`. Parallel edges are merged keeping the maximum
/// weight (the binding constraint for scheduling).
///
/// # Example
///
/// ```
/// use dspcc_graph::dag::Dag;
///
/// let mut d = Dag::new(3);
/// d.add_edge(0, 1, 1);
/// d.add_edge(1, 2, 2);
/// assert_eq!(d.topological_order().unwrap(), vec![0, 1, 2]);
/// assert_eq!(d.longest_path_lengths(), vec![0, 1, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct Dag {
    n: usize,
    succ: Vec<Vec<(usize, i64)>>,
    pred: Vec<Vec<(usize, i64)>>,
}

/// Error returned when a cycle is found where a DAG was required.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleError {
    /// Nodes known to participate in (or be downstream of) a cycle.
    pub stuck_nodes: Vec<usize>,
}

impl std::fmt::Display for CycleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "graph contains a cycle through nodes {:?}",
            self.stuck_nodes
        )
    }
}

impl std::error::Error for CycleError {}

impl Dag {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        Dag {
            n,
            succ: vec![Vec::new(); n],
            pred: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of (merged) edges.
    pub fn edge_count(&self) -> usize {
        self.succ.iter().map(|s| s.len()).sum()
    }

    /// Adds edge `from → to` with `weight`. If the edge exists, keeps the
    /// larger weight.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn add_edge(&mut self, from: usize, to: usize, weight: i64) {
        assert!(from < self.n && to < self.n, "node index out of range");
        if let Some(e) = self.succ[from].iter_mut().find(|(t, _)| *t == to) {
            if weight > e.1 {
                e.1 = weight;
                let p = self.pred[to]
                    .iter_mut()
                    .find(|(f, _)| *f == from)
                    .expect("pred mirrors succ");
                p.1 = weight;
            }
            return;
        }
        self.succ[from].push((to, weight));
        self.pred[to].push((from, weight));
    }

    /// Successors of `v` as `(node, weight)` pairs.
    pub fn successors(&self, v: usize) -> &[(usize, i64)] {
        &self.succ[v]
    }

    /// Predecessors of `v` as `(node, weight)` pairs.
    pub fn predecessors(&self, v: usize) -> &[(usize, i64)] {
        &self.pred[v]
    }

    /// Kahn topological order.
    ///
    /// # Errors
    ///
    /// Returns [`CycleError`] if the graph has a cycle; the error lists the
    /// nodes that could not be ordered.
    pub fn topological_order(&self) -> Result<Vec<usize>, CycleError> {
        let mut indeg: Vec<usize> = (0..self.n).map(|v| self.pred[v].len()).collect();
        let mut queue: VecDeque<usize> = (0..self.n).filter(|&v| indeg[v] == 0).collect();
        let mut order = Vec::with_capacity(self.n);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &(s, _) in &self.succ[v] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    queue.push_back(s);
                }
            }
        }
        if order.len() == self.n {
            Ok(order)
        } else {
            Err(CycleError {
                stuck_nodes: (0..self.n).filter(|&v| indeg[v] > 0).collect(),
            })
        }
    }

    /// Longest path length from any source to each node (source nodes get
    /// 0). This is the ASAP time when edge weights are latencies.
    ///
    /// # Panics
    ///
    /// Panics if the graph has a cycle.
    pub fn longest_path_lengths(&self) -> Vec<i64> {
        let order = self.topological_order().expect("graph must be acyclic");
        let mut dist = vec![0i64; self.n];
        for &v in &order {
            for &(s, w) in &self.succ[v] {
                dist[s] = dist[s].max(dist[v] + w);
            }
        }
        dist
    }

    /// ASAP times: earliest start of each node with all sources at 0.
    ///
    /// # Panics
    ///
    /// Panics if the graph has a cycle.
    pub fn asap(&self) -> Vec<i64> {
        self.longest_path_lengths()
    }

    /// ALAP times: latest start of each node such that every node finishes
    /// within `deadline` (sinks start no later than `deadline`).
    ///
    /// # Panics
    ///
    /// Panics if the graph has a cycle.
    pub fn alap(&self, deadline: i64) -> Vec<i64> {
        let order = self.topological_order().expect("graph must be acyclic");
        let mut late = vec![deadline; self.n];
        for &v in order.iter().rev() {
            for &(s, w) in &self.succ[v] {
                late[v] = late[v].min(late[s] - w);
            }
        }
        late
    }

    /// Length of the critical (longest) path over the whole graph.
    ///
    /// # Panics
    ///
    /// Panics if the graph has a cycle.
    pub fn critical_path_length(&self) -> i64 {
        self.longest_path_lengths().into_iter().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Dag {
        // 0 → 1 → 3, 0 → 2 → 3 with weights 1 except 2→3 weight 3.
        let mut d = Dag::new(4);
        d.add_edge(0, 1, 1);
        d.add_edge(0, 2, 1);
        d.add_edge(1, 3, 1);
        d.add_edge(2, 3, 3);
        d
    }

    #[test]
    fn topo_order_respects_edges() {
        let d = diamond();
        let order = d.topological_order().unwrap();
        let pos = |v: usize| order.iter().position(|&x| x == v).unwrap();
        assert!(pos(0) < pos(1));
        assert!(pos(0) < pos(2));
        assert!(pos(1) < pos(3));
        assert!(pos(2) < pos(3));
    }

    #[test]
    fn cycle_is_detected() {
        let mut d = Dag::new(3);
        d.add_edge(0, 1, 1);
        d.add_edge(1, 2, 1);
        d.add_edge(2, 0, 1);
        let err = d.topological_order().unwrap_err();
        assert_eq!(err.stuck_nodes.len(), 3);
        assert!(err.to_string().contains("cycle"));
    }

    #[test]
    fn longest_paths_in_diamond() {
        let d = diamond();
        assert_eq!(d.longest_path_lengths(), vec![0, 1, 1, 4]);
        assert_eq!(d.critical_path_length(), 4);
    }

    #[test]
    fn asap_alap_bracket_schedule() {
        let d = diamond();
        let asap = d.asap();
        let alap = d.alap(10);
        for v in 0..4 {
            assert!(asap[v] <= alap[v], "node {v}: asap > alap");
        }
        assert_eq!(alap, vec![6, 9, 7, 10]);
    }

    #[test]
    fn alap_with_tight_deadline_equals_asap_on_critical_path() {
        let d = diamond();
        let asap = d.asap();
        let alap = d.alap(d.critical_path_length());
        // Critical path 0 → 2 → 3 has zero slack.
        assert_eq!(asap[0], alap[0]);
        assert_eq!(asap[2], alap[2]);
        assert_eq!(asap[3], alap[3]);
        // Node 1 has slack.
        assert!(alap[1] > asap[1]);
    }

    #[test]
    fn parallel_edge_keeps_max_weight() {
        let mut d = Dag::new(2);
        d.add_edge(0, 1, 1);
        d.add_edge(0, 1, 5);
        d.add_edge(0, 1, 3);
        assert_eq!(d.edge_count(), 1);
        assert_eq!(d.longest_path_lengths(), vec![0, 5]);
        assert_eq!(d.predecessors(1), &[(0, 5)]);
    }

    #[test]
    fn empty_graph() {
        let d = Dag::new(0);
        assert!(d.topological_order().unwrap().is_empty());
        assert_eq!(d.critical_path_length(), 0);
    }

    #[test]
    fn isolated_nodes_have_zero_times() {
        let d = Dag::new(3);
        assert_eq!(d.asap(), vec![0, 0, 0]);
        assert_eq!(d.alap(7), vec![7, 7, 7]);
    }
}
