//! Computational DAGs with work and communication weights.
//!
//! A node `v` carries a *work weight* `w(v)` (time needed to execute it on any
//! processor) and a *communication weight* `c(v)` (amount of data another
//! processor has to receive in order to use its output).  Edges encode
//! precedence: `(u, v)` means `v` consumes the output of `u`.
//!
//! Adjacency is stored in compressed sparse row (CSR) form: one flat offset
//! array plus one packed neighbour array per direction.  The hill-climbing
//! local searches walk `successors`/`predecessors` for every candidate move,
//! so neighbour lists being contiguous (two arrays per direction instead of
//! `n` separate heap allocations) is what keeps that hot path cache-friendly.
//!
//! Offsets and neighbour ids are `u32` — [`Dag::from_edges`] refuses more
//! than `u32::MAX` nodes or edges — so a DAG takes 24 bytes per node (two
//! `u64` weights, two offsets) plus 8 per edge.  The neighbour iterators
//! widen each id to [`NodeId`].

use crate::error::DagError;
use crate::machine::Machine;
use serde::{Deserialize, Serialize};

/// Index of a node in a [`Dag`]; nodes are always `0..n`.
pub type NodeId = usize;

/// An immutable computational DAG.
///
/// Construct one through [`Dag::from_edges`] or
/// [`Dag::from_edge_list_unit_weights`].  All accessors are `O(1)` except
/// where noted.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Dag {
    work: Vec<u64>,
    comm: Vec<u64>,
    /// CSR offsets into `succ_adj`; length `n + 1`.
    succ_off: Vec<u32>,
    /// Packed successor lists, in edge insertion order per node.
    succ_adj: Vec<u32>,
    /// CSR offsets into `pred_adj`; length `n + 1`.
    pred_off: Vec<u32>,
    /// Packed predecessor lists, in edge insertion order per node.
    pred_adj: Vec<u32>,
}

/// The error of the first edge of `edges` that is out of range, a self-loop
/// or a repeat of an earlier edge: the sequential walk [`Dag::from_edges`]
/// falls back to once its bulk checks have found that there is one.
#[cold]
fn first_edge_defect(n: usize, edges: &[(NodeId, NodeId)]) -> DagError {
    let mut seen = std::collections::HashSet::with_capacity(edges.len());
    for &(u, v) in edges {
        if u >= n {
            return DagError::NodeOutOfRange { node: u, n };
        }
        if v >= n {
            return DagError::NodeOutOfRange { node: v, n };
        }
        if u == v {
            return DagError::SelfLoop { node: u };
        }
        if !seen.insert((u, v)) {
            return DagError::DuplicateEdge { from: u, to: v };
        }
    }
    unreachable!("first_edge_defect is only called on an edge list with a defect")
}

/// The ids of one CSR row, widened to [`NodeId`].
#[inline]
fn widen(row: &[u32]) -> impl ExactSizeIterator<Item = NodeId> + '_ {
    row.iter().map(|&x| x as NodeId)
}

impl Dag {
    /// `Ok` if a DAG of `n` nodes and `m` edges fits the 32-bit layout: at
    /// most `u32::MAX` of each (schedules name nodes in 32 bits too).  Every
    /// constructor asks this before it allocates anything sized by `n` or `m`.
    fn check_size(n: usize, m: usize) -> Result<(), DagError> {
        if u32::try_from(n).is_err() {
            return Err(DagError::TooManyNodes { n });
        }
        if u32::try_from(m).is_err() {
            return Err(DagError::TooManyEdges { m });
        }
        Ok(())
    }

    /// Builds a DAG from an explicit edge list and weight vectors.  At most
    /// `u32::MAX` nodes and `u32::MAX` edges: more is refused with
    /// [`DagError::TooManyNodes`] / [`DagError::TooManyEdges`] before
    /// anything is allocated.
    ///
    /// Errors are checked in this order: sizes, weight lengths, the first
    /// edge that is out of range, a self-loop or a repeat, then a cycle.
    /// When every edge `(u, v)` has `u < v` (the ids are a topological
    /// order, as every generator of the workspace numbers them), the list
    /// cannot hold a cycle and the `O(n + m)` cycle search is skipped; any
    /// other numbering pays for it.  The result is the same either way.
    pub fn from_edges(
        n: usize,
        edges: &[(NodeId, NodeId)],
        work: Vec<u64>,
        comm: Vec<u64>,
    ) -> Result<Self, DagError> {
        Self::check_size(n, edges.len())?;
        if work.len() != n {
            return Err(DagError::WeightLengthMismatch {
                expected: n,
                got: work.len(),
            });
        }
        if comm.len() != n {
            return Err(DagError::WeightLengthMismatch {
                expected: n,
                got: comm.len(),
            });
        }
        // Two counting-sort passes build each CSR side; per-node neighbour
        // order is edge insertion order, as with the nested-Vec layout.  The
        // counting pass also checks every endpoint, and a duplicate edge
        // shows up as a repeated entry of one successor row, found with a
        // stamp per node instead of a hash set of all edges.  Which defect
        // comes *first* in the list only matters once there is one:
        // `first_edge_defect` walks the list again to name it.  The same
        // pass notes whether every edge points to a larger id.
        let num_edges = edges.len();
        let mut succ_off = vec![0u32; n + 1];
        let mut pred_off = vec![0u32; n + 1];
        let mut forward = true;
        for &(u, v) in edges {
            if u >= n || v >= n || u == v {
                return Err(first_edge_defect(n, edges));
            }
            forward &= u < v;
            succ_off[u + 1] += 1;
            pred_off[v + 1] += 1;
        }
        for i in 0..n {
            succ_off[i + 1] += succ_off[i];
            pred_off[i + 1] += pred_off[i];
        }
        // `check_size` bounds every id and offset by `u32::MAX`, so the
        // narrowing casts below are exact.
        let mut succ_adj = vec![0u32; num_edges];
        let mut pred_adj = vec![0u32; num_edges];
        let mut succ_cursor = succ_off.clone();
        let mut pred_cursor = pred_off.clone();
        for &(u, v) in edges {
            succ_adj[succ_cursor[u] as usize] = v as u32;
            succ_cursor[u] += 1;
            pred_adj[pred_cursor[v] as usize] = u as u32;
            pred_cursor[v] += 1;
        }
        let dag = Dag {
            work,
            comm,
            succ_off,
            succ_adj,
            pred_off,
            pred_adj,
        };
        // `succ_cursor` has done its job; reuse it as the stamp array
        // (`stamp[v] == u + 1` iff `v` was already seen in `u`'s row).
        let stamp = &mut succ_cursor;
        stamp.fill(0);
        for u in 0..n {
            let mark = u as u32 + 1;
            for v in dag.successors(u) {
                if stamp[v] == mark {
                    return Err(first_edge_defect(n, edges));
                }
                stamp[v] = mark;
            }
        }

        // Ids increase along every path of a forward list, so it has no cycle.
        if !forward && dag.topological_order().is_none() {
            return Err(DagError::Cycle);
        }
        Ok(dag)
    }

    /// Builds a DAG with `w(v) = c(v) = 1` for all nodes, from an edge list.
    pub fn from_edge_list_unit_weights(
        n: usize,
        edges: &[(NodeId, NodeId)],
    ) -> Result<Self, DagError> {
        Self::from_edges(n, edges, vec![1; n], vec![1; n])
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.work.len()
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.succ_adj.len()
    }

    /// Work weight `w(v)`.
    #[inline]
    pub fn work(&self, v: NodeId) -> u64 {
        self.work[v]
    }

    /// Communication weight `c(v)`.
    #[inline]
    pub fn comm(&self, v: NodeId) -> u64 {
        self.comm[v]
    }

    /// All work weights.
    pub fn work_weights(&self) -> &[u64] {
        &self.work
    }

    /// All communication weights.
    pub fn comm_weights(&self) -> &[u64] {
        &self.comm
    }

    /// Direct successors (out-neighbours) of `v`, in edge insertion order.
    #[inline]
    pub fn successors(&self, v: NodeId) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        widen(&self.succ_adj[self.succ_off[v] as usize..self.succ_off[v + 1] as usize])
    }

    /// Direct predecessors (in-neighbours) of `v`, in edge insertion order.
    #[inline]
    pub fn predecessors(&self, v: NodeId) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        widen(&self.pred_adj[self.pred_off[v] as usize..self.pred_off[v + 1] as usize])
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        (self.succ_off[v + 1] - self.succ_off[v]) as usize
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        (self.pred_off[v + 1] - self.pred_off[v]) as usize
    }

    /// Iterator over all directed edges `(u, v)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.n()).flat_map(move |u| self.successors(u).map(move |v| (u, v)))
    }

    /// Nodes without predecessors.
    pub fn sources(&self) -> Vec<NodeId> {
        (0..self.n()).filter(|&v| self.in_degree(v) == 0).collect()
    }

    /// Nodes without successors.
    pub fn sinks(&self) -> Vec<NodeId> {
        (0..self.n()).filter(|&v| self.out_degree(v) == 0).collect()
    }

    /// Sum of all work weights.
    pub fn total_work(&self) -> u64 {
        self.work.iter().sum()
    }

    /// Sum of all communication weights.
    pub fn total_comm(&self) -> u64 {
        self.comm.iter().sum()
    }

    /// Kahn topological order, or `None` if the graph has a cycle.  Node ids
    /// are 32-bit, as in the CSR: 8 bytes a node while it runs.
    ///
    /// Runs in `O(n + m)`.
    pub fn topological_order(&self) -> Option<Vec<u32>> {
        let n = self.n();
        let mut indeg: Vec<u32> = (0..n).map(|v| self.in_degree(v) as u32).collect();
        // `order` doubles as the FIFO queue: nodes before `head` are done,
        // the rest are ready and waiting.
        let mut order = Vec::with_capacity(n);
        order.extend((0..n as u32).filter(|&v| indeg[v as usize] == 0));
        let mut head = 0;
        while let Some(&v) = order.get(head) {
            head += 1;
            for w in self.successors(v as usize) {
                indeg[w] -= 1;
                if indeg[w] == 0 {
                    order.push(w as u32);
                }
            }
        }
        if order.len() == n {
            Some(order)
        } else {
            None
        }
    }

    /// Topological *level* of each node: sources have level 0, every other node
    /// has level `1 + max(level of predecessors)`.  These levels are the
    /// "wavefronts" used by the `HDagg` baseline.
    pub fn levels(&self) -> Vec<usize> {
        let order = self
            .topological_order()
            .expect("Dag invariant: always acyclic");
        let mut level = vec![0usize; self.n()];
        for v in order.into_iter().map(|v| v as usize) {
            for u in self.predecessors(v) {
                level[v] = level[v].max(level[u] + 1);
            }
        }
        level
    }

    /// Length (in work weight, including both endpoints) of the longest path
    /// ending at each node.
    pub fn top_level(&self) -> Vec<u64> {
        let order = self
            .topological_order()
            .expect("Dag invariant: always acyclic");
        let mut tl = vec![0u64; self.n()];
        for v in order.into_iter().map(|v| v as usize) {
            let best = self.predecessors(v).map(|u| tl[u]).max().unwrap_or(0);
            tl[v] = best + self.work[v];
        }
        tl
    }

    /// Length (in work weight, including the node itself) of the longest path
    /// starting at each node — the classical *bottom level* priority used by
    /// list schedulers such as `BL-EST`.
    pub fn bottom_level(&self) -> Vec<u64> {
        let order = self
            .topological_order()
            .expect("Dag invariant: always acyclic");
        let mut bl = vec![0u64; self.n()];
        for v in order.into_iter().rev().map(|v| v as usize) {
            let best = self.successors(v).map(|w| bl[w]).max().unwrap_or(0);
            bl[v] = best + self.work[v];
        }
        bl
    }

    /// Work weight of the critical path (longest path) of the DAG.
    pub fn critical_path_work(&self) -> u64 {
        self.top_level().into_iter().max().unwrap_or(0)
    }

    /// A lower bound on the cost of every valid schedule of this DAG on
    /// `machine`: `max(⌈W/P⌉, critical path) + ℓ`.  The work terms of a
    /// schedule add up to at least the fullest processor's share of the
    /// total work `W`, and to at least the critical path (nodes of a path
    /// that share a superstep share a processor); a non-empty DAG needs at
    /// least one superstep.  `O(n + m)`; communication is not bounded.
    pub fn lower_bound(&self, machine: &Machine) -> u64 {
        if self.n() == 0 {
            return 0;
        }
        let share = self.total_work().div_ceil(machine.p() as u64);
        share.max(self.critical_path_work()) + machine.latency()
    }

    /// Nodes of the largest weakly connected component (used when coarse-grained
    /// extraction leaves isolated fragments, cf. Appendix B.1).
    pub fn largest_weakly_connected_component(&self) -> Vec<NodeId> {
        let n = self.n();
        let mut comp = vec![usize::MAX; n];
        let mut best: (usize, Vec<NodeId>) = (0, Vec::new());
        let mut next_comp = 0usize;
        for start in 0..n {
            if comp[start] != usize::MAX {
                continue;
            }
            let mut nodes = Vec::new();
            let mut stack = vec![start];
            comp[start] = next_comp;
            while let Some(v) = stack.pop() {
                nodes.push(v);
                for w in self.successors(v).chain(self.predecessors(v)) {
                    if comp[w] == usize::MAX {
                        comp[w] = next_comp;
                        stack.push(w);
                    }
                }
            }
            if nodes.len() > best.1.len() {
                best = (next_comp, nodes);
            }
            next_comp += 1;
        }
        let mut nodes = best.1;
        nodes.sort_unstable();
        nodes
    }

    /// A human-readable one-line summary (useful in experiment logs).
    pub fn summary(&self) -> String {
        format!(
            "n={} m={} total_work={} total_comm={} depth={}",
            self.n(),
            self.num_edges(),
            self.total_work(),
            self.total_comm(),
            self.levels().into_iter().max().map_or(0, |d| d + 1),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Dag {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        Dag::from_edges(
            4,
            &[(0, 1), (0, 2), (1, 3), (2, 3)],
            vec![1, 2, 3, 4],
            vec![5, 6, 7, 8],
        )
        .unwrap()
    }

    #[test]
    fn builds_and_reports_basic_properties() {
        let d = diamond();
        assert_eq!(d.n(), 4);
        assert_eq!(d.num_edges(), 4);
        assert_eq!(d.work(2), 3);
        assert_eq!(d.comm(3), 8);
        assert_eq!(d.total_work(), 10);
        assert_eq!(d.total_comm(), 26);
        assert_eq!(d.sources(), vec![0]);
        assert_eq!(d.sinks(), vec![3]);
        assert_eq!(d.in_degree(3), 2);
        assert_eq!(d.out_degree(0), 2);
    }

    #[test]
    fn rejects_cycles() {
        let err = Dag::from_edge_list_unit_weights(3, &[(0, 1), (1, 2), (2, 0)]).unwrap_err();
        assert_eq!(err, DagError::Cycle);
    }

    #[test]
    fn rejects_self_loops_and_bad_indices() {
        assert_eq!(
            Dag::from_edge_list_unit_weights(2, &[(0, 0)]).unwrap_err(),
            DagError::SelfLoop { node: 0 }
        );
        assert_eq!(
            Dag::from_edge_list_unit_weights(2, &[(0, 5)]).unwrap_err(),
            DagError::NodeOutOfRange { node: 5, n: 2 }
        );
    }

    #[test]
    fn rejects_duplicate_edges_in_from_edges() {
        assert_eq!(
            Dag::from_edge_list_unit_weights(2, &[(0, 1), (0, 1)]).unwrap_err(),
            DagError::DuplicateEdge { from: 0, to: 1 }
        );
    }

    #[test]
    fn more_nodes_than_u32_can_name_are_refused_before_the_weights() {
        // The weight vectors are empty: the node count is checked first.
        let n = 1usize << 32;
        assert_eq!(
            Dag::from_edges(n, &[], Vec::new(), Vec::new()).unwrap_err(),
            DagError::TooManyNodes { n }
        );
    }

    #[test]
    fn more_edges_than_u32_can_count_are_refused() {
        // A slice of 2^32 edges cannot be built in a test; the one size
        // check every constructor runs first is called directly.
        let m = 1usize << 32;
        assert_eq!(Dag::check_size(1, m), Err(DagError::TooManyEdges { m }));
        assert_eq!(
            Dag::check_size(u32::MAX as usize, u32::MAX as usize),
            Ok(())
        );
    }

    #[test]
    fn topological_order_respects_edges() {
        let d = diamond();
        let order = d.topological_order().unwrap();
        let mut rank = vec![0; d.n()];
        for (i, &v) in order.iter().enumerate() {
            rank[v as usize] = i;
        }
        for (u, v) in d.edges() {
            assert!(rank[u] < rank[v], "edge ({u},{v}) violated in {order:?}");
        }
    }

    #[test]
    fn levels_and_bottom_levels() {
        let d = diamond();
        assert_eq!(d.levels(), vec![0, 1, 1, 2]);
        // bottom level: longest path work starting at the node, inclusive.
        let bl = d.bottom_level();
        assert_eq!(bl[3], 4);
        assert_eq!(bl[1], 2 + 4);
        assert_eq!(bl[2], 3 + 4);
        assert_eq!(bl[0], 1 + 3 + 4);
        assert_eq!(d.critical_path_work(), 8);
    }

    #[test]
    fn largest_component_of_disconnected_graph() {
        let d = Dag::from_edge_list_unit_weights(5, &[(0, 1), (1, 2)]).unwrap();
        assert_eq!(d.largest_weakly_connected_component(), vec![0, 1, 2]);
    }
}
