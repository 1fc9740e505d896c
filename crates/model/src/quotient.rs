//! A persistent, mutable quotient graph over a [`Dag`]'s node space.
//!
//! [`QuotientDag`] is the backbone of the incremental multilevel engine: the
//! coarsener contracts edges in it one by one (recording a LIFO history), and
//! the refinement loop then undoes those contractions with
//! [`QuotientDag::uncontract_one`] — an `O(deg)` *split* delta, not a rebuild.
//! Because the structure implements [`DagView`], hill climbing runs on it
//! directly; no per-phase [`Dag`] materialization, edge dedup, or
//! representative scan is ever needed.
//!
//! # Representation
//!
//! Cluster ids are original node ids: the cluster created by contracting edge
//! `(u, v)` keeps id `u`, and `v` becomes *inactive*.  Adjacency is a flat
//! sorted vec per node (neighbour ids plus parallel edge-multiplicity counts),
//! so neighbour iteration is a contiguous slice scan and updates are binary
//! searches — no `BTreeSet` pointer chasing or per-edge log factors on the
//! read side.
//!
//! # Incremental topological ranks
//!
//! The structure maintains a valid topological order of the active nodes as an
//! explicit `rank` array with *gaps*: contracting `(u, v)` moves the merged
//! cluster to `rank(v)` and vacates `rank(u)`.  This is valid exactly when `v`
//! is the successor of `u` with the smallest rank (every other successor of
//! `u` then has rank `> rank(v)`, every predecessor has rank `< rank(v)`),
//! which is also the paper's sufficient criterion for the contraction to
//! preserve acyclicity — any alternative `u → w ⇝ v` path would need
//! `rank(w) < rank(v)`.  Maintaining ranks this way replaces the full Kahn
//! sweep the previous coarsener ran per contraction with an `O(1)` update.
//!
//! # History and exact reversal
//!
//! Each contraction records the absorbed cluster's full adjacency (moved, not
//! copied) plus the surviving cluster's old rank.  Because uncontraction is
//! strictly LIFO, the graph at the moment a record is popped is exactly the
//! graph at the moment it was pushed (later contractions have already been
//! undone), so the recorded neighbour ids are valid verbatim and the split is
//! `O(deg(removed))`.

use crate::dag::{Dag, DagView, NodeId};

/// One recorded contraction, with everything needed to undo it exactly.
#[derive(Debug, Clone)]
struct SplitRecord {
    /// Surviving cluster id.
    kept: NodeId,
    /// Absorbed cluster id (inactive while the record is on the stack).
    removed: NodeId,
    /// `removed`'s adjacency at contraction time (moved back on undo).
    removed_succ: Vec<NodeId>,
    removed_succ_cnt: Vec<u32>,
    removed_pred: Vec<NodeId>,
    removed_pred_cnt: Vec<u32>,
    /// `kept`'s rank before it adopted `removed`'s.
    kept_old_rank: usize,
}

/// A mutable quotient graph with `O(deg)` edge contraction and `O(deg)`
/// uncontraction (see the module docs).
#[derive(Debug, Clone)]
pub struct QuotientDag {
    /// Sorted successor ids per node; parallel multiplicity counts.
    succ: Vec<Vec<NodeId>>,
    succ_cnt: Vec<Vec<u32>>,
    /// Sorted predecessor ids per node; parallel multiplicity counts.
    pred: Vec<Vec<NodeId>>,
    pred_cnt: Vec<Vec<u32>>,
    /// Summed work weight per active cluster.
    work: Vec<u64>,
    /// Summed communication weight per active cluster.
    comm: Vec<u64>,
    active: Vec<bool>,
    n_active: usize,
    /// Topological rank of each active node (distinct, gaps allowed).
    rank: Vec<usize>,
    history: Vec<SplitRecord>,
}

/// Adds `c` to the multiplicity of neighbour `w` in a sorted adjacency pair,
/// inserting the entry if absent.
fn add_entry(nodes: &mut Vec<NodeId>, cnts: &mut Vec<u32>, w: NodeId, c: u32) {
    match nodes.binary_search(&w) {
        Ok(i) => cnts[i] += c,
        Err(i) => {
            nodes.insert(i, w);
            cnts.insert(i, c);
        }
    }
}

/// Subtracts `c` from the multiplicity of neighbour `w`, removing the entry
/// when it reaches zero.  The entry must exist with multiplicity `>= c`.
fn sub_entry(nodes: &mut Vec<NodeId>, cnts: &mut Vec<u32>, w: NodeId, c: u32) {
    let i = nodes
        .binary_search(&w)
        .expect("quotient adjacency out of sync: missing neighbour entry");
    debug_assert!(cnts[i] >= c);
    cnts[i] -= c;
    if cnts[i] == 0 {
        nodes.remove(i);
        cnts.remove(i);
    }
}

impl QuotientDag {
    /// The discrete quotient of `dag`: every node its own cluster.
    pub fn from_dag(dag: &Dag) -> Self {
        let n = dag.n();
        let mut succ = Vec::with_capacity(n);
        let mut succ_cnt = Vec::with_capacity(n);
        let mut pred = Vec::with_capacity(n);
        let mut pred_cnt = Vec::with_capacity(n);
        for v in 0..n {
            let mut s: Vec<NodeId> = dag.successors(v).to_vec();
            s.sort_unstable();
            succ_cnt.push(vec![1u32; s.len()]);
            succ.push(s);
            let mut p: Vec<NodeId> = dag.predecessors(v).to_vec();
            p.sort_unstable();
            pred_cnt.push(vec![1u32; p.len()]);
            pred.push(p);
        }
        QuotientDag {
            succ,
            succ_cnt,
            pred,
            pred_cnt,
            work: dag.work_weights().to_vec(),
            comm: dag.comm_weights().to_vec(),
            active: vec![true; n],
            n_active: n,
            rank: dag.topological_rank(),
            history: Vec::new(),
        }
    }

    /// Number of contractions currently on the history stack.
    pub fn num_contractions(&self) -> usize {
        self.history.len()
    }

    /// Topological rank of node `v` (meaningful only while `v` is active).
    #[inline]
    pub fn rank(&self, v: NodeId) -> usize {
        self.rank[v]
    }

    /// Edge multiplicities parallel to [`DagView::successors`]: entry `i` is
    /// the number of original edges folded into the quotient edge
    /// `v -> successors(v)[i]`.
    pub fn successor_counts(&self, v: NodeId) -> &[u32] {
        &self.succ_cnt[v]
    }

    /// The successor of `u` with the smallest topological rank, i.e. the
    /// contraction partner the coarsening rule considers for `u`.  `None` for
    /// sinks (and inactive nodes).  Ties go to the first such successor.
    #[inline]
    pub fn min_rank_successor(&self, u: NodeId) -> Option<NodeId> {
        self.succ[u].iter().copied().min_by_key(|&w| self.rank[w])
    }

    /// Recomputes the topological ranks of the active nodes with a fresh Kahn
    /// sweep (`O(n + m)`).
    ///
    /// The incremental adopt-the-removed-endpoint rule keeps ranks *valid*
    /// indefinitely, but their gaps drift away from the evolving quotient's
    /// structure; the coarsener periodically re-anchors them so the
    /// minimum-rank-successor candidates stay structurally meaningful (the
    /// previous implementation paid a full sweep per contraction for this).
    ///
    /// After a refresh, ranks restored by later uncontractions mix numbering
    /// systems: treat ranks as coarsening-time data and do not rely on them
    /// once uncoarsening begins.
    pub fn recompute_ranks(&mut self) {
        let mut indeg = Vec::new();
        let mut queue = Vec::new();
        self.recompute_ranks_into(&mut indeg, &mut queue);
    }

    /// [`QuotientDag::recompute_ranks`] with caller-owned scratch buffers, so
    /// a caller that re-anchors ranks repeatedly (the batch coarsener runs
    /// one sweep per round) allocates nothing once the buffers are warm.
    /// The buffers' contents are irrelevant on entry and unspecified on exit.
    pub fn recompute_ranks_into(&mut self, indeg: &mut Vec<usize>, queue: &mut Vec<NodeId>) {
        let n = self.n();
        indeg.clear();
        indeg.resize(n, 0);
        queue.clear();
        for v in 0..n {
            if self.active[v] {
                indeg[v] = self.pred[v].len();
                if indeg[v] == 0 {
                    queue.push(v);
                }
            }
        }
        let mut next_rank = 0usize;
        let mut head = 0usize;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            self.rank[v] = next_rank;
            next_rank += 1;
            for &w in &self.succ[v] {
                indeg[w] -= 1;
                if indeg[w] == 0 {
                    queue.push(w);
                }
            }
        }
        debug_assert_eq!(next_rank, self.n_active, "quotient must stay acyclic");
    }

    /// Contracts the edge `kept -> removed`, merging `removed`'s cluster into
    /// `kept`'s.  `removed` must be the minimum-rank successor of `kept`
    /// (checked in debug builds): that is the sufficient condition for both
    /// acyclicity and the `O(1)` rank update.
    pub fn contract(&mut self, kept: NodeId, removed: NodeId) {
        debug_assert!(self.active[kept] && self.active[removed] && kept != removed);
        debug_assert_eq!(
            self.min_rank_successor(kept),
            Some(removed),
            "contract requires the minimum-rank successor"
        );
        let removed_succ = std::mem::take(&mut self.succ[removed]);
        let removed_succ_cnt = std::mem::take(&mut self.succ_cnt[removed]);
        let removed_pred = std::mem::take(&mut self.pred[removed]);
        let removed_pred_cnt = std::mem::take(&mut self.pred_cnt[removed]);

        for (&w, &c) in removed_succ.iter().zip(&removed_succ_cnt) {
            debug_assert_ne!(w, kept, "edge removed -> kept would close a cycle");
            sub_entry(&mut self.pred[w], &mut self.pred_cnt[w], removed, c);
            add_entry(&mut self.pred[w], &mut self.pred_cnt[w], kept, c);
            add_entry(&mut self.succ[kept], &mut self.succ_cnt[kept], w, c);
        }
        let mut saw_internal = false;
        for (&w, &c) in removed_pred.iter().zip(&removed_pred_cnt) {
            if w == kept {
                // The contracted edge itself becomes internal.
                sub_entry(&mut self.succ[kept], &mut self.succ_cnt[kept], removed, c);
                saw_internal = true;
                continue;
            }
            sub_entry(&mut self.succ[w], &mut self.succ_cnt[w], removed, c);
            add_entry(&mut self.succ[w], &mut self.succ_cnt[w], kept, c);
            add_entry(&mut self.pred[kept], &mut self.pred_cnt[kept], w, c);
        }
        debug_assert!(saw_internal, "contract requires the edge kept -> removed");

        self.work[kept] += self.work[removed];
        self.comm[kept] += self.comm[removed];
        self.active[removed] = false;
        self.n_active -= 1;
        let kept_old_rank = self.rank[kept];
        self.rank[kept] = self.rank[removed];
        self.history.push(SplitRecord {
            kept,
            removed,
            removed_succ,
            removed_succ_cnt,
            removed_pred,
            removed_pred_cnt,
            kept_old_rank,
        });
    }

    /// The `(kept, removed)` pair the next [`QuotientDag::uncontract_one`]
    /// will split, without performing it.
    pub fn peek_uncontract(&self) -> Option<(NodeId, NodeId)> {
        self.history.last().map(|r| (r.kept, r.removed))
    }

    /// Undoes the most recent contraction: splits `removed` back out of
    /// `kept`'s cluster in `O(deg(removed))` and returns the pair.  Returns
    /// `None` when the history is empty.
    pub fn uncontract_one(&mut self) -> Option<(NodeId, NodeId)> {
        let rec = self.history.pop()?;
        let (u, v) = (rec.kept, rec.removed);
        self.rank[u] = rec.kept_old_rank;
        self.work[u] -= self.work[v];
        self.comm[u] -= self.comm[v];
        self.active[v] = true;
        self.n_active += 1;

        for (&w, &c) in rec.removed_succ.iter().zip(&rec.removed_succ_cnt) {
            sub_entry(&mut self.succ[u], &mut self.succ_cnt[u], w, c);
            sub_entry(&mut self.pred[w], &mut self.pred_cnt[w], u, c);
            add_entry(&mut self.pred[w], &mut self.pred_cnt[w], v, c);
        }
        for (&w, &c) in rec.removed_pred.iter().zip(&rec.removed_pred_cnt) {
            if w == u {
                add_entry(&mut self.succ[u], &mut self.succ_cnt[u], v, c);
                continue;
            }
            sub_entry(&mut self.succ[w], &mut self.succ_cnt[w], u, c);
            add_entry(&mut self.succ[w], &mut self.succ_cnt[w], v, c);
            sub_entry(&mut self.pred[u], &mut self.pred_cnt[u], w, c);
        }
        self.succ[v] = rec.removed_succ;
        self.succ_cnt[v] = rec.removed_succ_cnt;
        self.pred[v] = rec.removed_pred;
        self.pred_cnt[v] = rec.removed_pred_cnt;
        Some((u, v))
    }

    /// Iterator over the active quotient edges as `(from, to, multiplicity)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, u32)> + '_ {
        (0..self.n())
            .filter(|&u| self.active[u])
            .flat_map(move |u| {
                self.succ[u]
                    .iter()
                    .zip(&self.succ_cnt[u])
                    .map(move |(&w, &c)| (u, w, c))
            })
    }
}

impl DagView for QuotientDag {
    #[inline]
    fn n(&self) -> usize {
        self.active.len()
    }

    #[inline]
    fn is_active(&self, v: NodeId) -> bool {
        self.active[v]
    }

    #[inline]
    fn num_active(&self) -> usize {
        self.n_active
    }

    #[inline]
    fn work(&self, v: NodeId) -> u64 {
        self.work[v]
    }

    #[inline]
    fn comm(&self, v: NodeId) -> u64 {
        self.comm[v]
    }

    #[inline]
    fn successors(&self, v: NodeId) -> &[NodeId] {
        &self.succ[v]
    }

    #[inline]
    fn predecessors(&self, v: NodeId) -> &[NodeId] {
        &self.pred[v]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Dag {
        Dag::from_edges(
            4,
            &[(0, 1), (0, 2), (1, 3), (2, 3)],
            vec![1, 2, 3, 4],
            vec![5, 6, 7, 8],
        )
        .unwrap()
    }

    fn snapshot(q: &QuotientDag) -> (Vec<(usize, u64, u64, usize)>, Vec<(usize, usize, u32)>) {
        let nodes = (0..q.n())
            .filter(|&v| q.is_active(v))
            .map(|v| (v, q.work(v), q.comm(v), q.rank(v)))
            .collect();
        (nodes, q.edges().collect())
    }

    #[test]
    fn discrete_quotient_matches_the_dag() {
        let dag = diamond();
        let q = QuotientDag::from_dag(&dag);
        assert_eq!(q.num_active(), 4);
        assert_eq!(q.successors(0), &[1, 2]);
        assert_eq!(q.predecessors(3), &[1, 2]);
        assert_eq!(q.work(2), 3);
        assert_eq!(q.edges().count(), 4);
    }

    #[test]
    fn contract_merges_weights_and_folds_parallel_edges() {
        let dag = diamond();
        let mut q = QuotientDag::from_dag(&dag);
        // 1 is the min-rank successor of 0 (ranks follow Kahn order).
        let v = q.min_rank_successor(0).unwrap();
        q.contract(0, v);
        assert_eq!(q.num_active(), 3);
        assert!(!q.is_active(v));
        assert_eq!(q.work(0), 1 + dag.work(v));
        // The other branch and the merged branch both reach 3.
        let to3: u32 = q
            .edges()
            .filter(|&(_, t, _)| t == 3)
            .map(|(_, _, c)| c)
            .sum();
        assert_eq!(to3, 2);
        // Contract everything down to one cluster.
        while q.num_active() > 1 {
            let u = (0..q.n())
                .find(|&u| q.is_active(u) && !q.successors(u).is_empty())
                .unwrap();
            let v = q.min_rank_successor(u).unwrap();
            q.contract(u, v);
        }
        let root = (0..q.n()).find(|&u| q.is_active(u)).unwrap();
        assert_eq!(q.work(root), dag.total_work());
        assert_eq!(q.comm(root), dag.total_comm());
        assert_eq!(q.edges().count(), 0);
    }

    #[test]
    fn uncontract_restores_every_intermediate_state_exactly() {
        let dag = Dag::from_edges(
            6,
            &[(0, 2), (1, 2), (2, 3), (2, 4), (3, 5), (4, 5)],
            vec![2, 3, 4, 5, 6, 7],
            vec![1, 2, 3, 4, 5, 6],
        )
        .unwrap();
        let mut q = QuotientDag::from_dag(&dag);
        let mut snapshots = vec![snapshot(&q)];
        while q.num_active() > 1 {
            let u = (0..q.n())
                .find(|&u| q.is_active(u) && !q.successors(u).is_empty())
                .unwrap();
            let v = q.min_rank_successor(u).unwrap();
            q.contract(u, v);
            snapshots.push(snapshot(&q));
        }
        while let Some((kept, removed)) = q.peek_uncontract() {
            snapshots.pop();
            assert_eq!(q.uncontract_one(), Some((kept, removed)));
            assert_eq!(snapshot(&q), *snapshots.last().unwrap());
        }
        assert_eq!(q.num_contractions(), 0);
        assert_eq!(q.num_active(), dag.n());
    }

    #[test]
    fn ranks_stay_a_valid_topological_order_under_contraction() {
        let dag = Dag::from_edge_list_unit_weights(
            7,
            &[
                (0, 1),
                (0, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (2, 5),
                (5, 6),
                (4, 6),
            ],
        )
        .unwrap();
        let mut q = QuotientDag::from_dag(&dag);
        while q.num_active() > 2 {
            let u = (0..q.n())
                .find(|&u| q.is_active(u) && !q.successors(u).is_empty())
                .unwrap();
            let v = q.min_rank_successor(u).unwrap();
            q.contract(u, v);
            for (a, b, _) in q.edges() {
                assert!(q.rank(a) < q.rank(b), "edge ({a},{b}) violates ranks");
            }
        }
    }

    #[test]
    fn inactive_nodes_expose_empty_adjacency() {
        let dag = Dag::from_edge_list_unit_weights(3, &[(0, 1), (1, 2)]).unwrap();
        let mut q = QuotientDag::from_dag(&dag);
        q.contract(0, 1);
        assert!(q.successors(1).is_empty());
        assert!(q.predecessors(1).is_empty());
        assert_eq!(q.successors(0), &[2]);
        assert_eq!(q.predecessors(2), &[0]);
    }
}
