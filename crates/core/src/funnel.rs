//! The funnel (in-tree) reduction: an *exact* problem reduction the pipeline
//! applies before it solves.
//!
//! `HC` moves one node at a time (§4.3).  Fine-grained DAGs are full of
//! nodes a single move cannot carry anywhere useful: in `spmv` a matrix entry
//! `a_ij` feeds one product, the product one row sum, and moving the product
//! to its sum's processor drags `a_ij` after it — one transfer gone, one
//! added, no gain.  [`Funnel::contract`] merges every node whose successors
//! all lie in one cluster into that cluster, so the coarse node *is* the
//! multi-node move, and the pipeline searches a DAG on which its moves pay.
//!
//! # Why the coarse DAG is exact
//!
//! Nodes are visited in reverse topological order; `u` joins the cluster of
//! its successors when they all lie in one cluster, otherwise it starts a
//! cluster as its **root**.  So
//!
//! * *a non-root member has no consumer outside its cluster* — with every
//!   member on its cluster's processor and superstep, its value is never
//!   sent, and the edges inside a cluster join nodes of one processor and
//!   superstep, which is valid;
//! * *every cross-cluster edge leaves from a root* — a cluster has one exit,
//!   so what it sends is its root's value, `c(root)`, to the processors of
//!   the root's successors, first needed when the earliest of them on each
//!   processor is computed: the requirements of the coarse node, one to one;
//! * *lazy and explicit `Γ` map one to one* — a [`CommStep`] of the coarse
//!   schedule names a coarse node, the same step of the projected schedule
//!   its root; nothing else is ever transferred.
//!
//! With `w` = Σ members and `c` = `c(root)` every `(π, τ, Γ)` of the coarse
//! DAG is therefore a schedule of the DAG at the identical cost
//! ([`Funnel::project`]), work, communication and latency term by term.
//! This is what sets the reduction apart from the paper's multilevel
//! coarsening (§4.5, contraction along any edge), whose clusters have many
//! exits and whose summed `c` over-states communication: the pipeline's width
//! sweep, `HC`, the relocation ([`crate::hill_climb::block_moves`]) and the
//! trivial-schedule floor all judge the funnel DAG, and are right to.  The
//! quotient is a DAG: every member reaches its root inside the cluster, so a
//! cycle through clusters would be a cycle through their roots in the DAG
//! itself.
//!
//! # The work bound
//!
//! A cluster stops growing at `total_work / (2·P)` (`MAX_CLUSTER_SHARE`).
//! It only keeps a pure in-tree from folding into one node — a DAG that *is*
//! a funnel would otherwise leave nothing to distribute.  On the benchmark's
//! families it never binds: uncapped, `/P` and `/2P` give the same
//! `cost_geomean_vs_cilk` digits on `flat_hc`, `ml_fine` and `ml_kernels`,
//! both benchmark seeds.
//!
//! # Refinement after the projection
//!
//! Exact is not the same as searched: a move on the coarse DAG carries a
//! whole cluster, so the projected schedule can still go downhill by moving
//! one member.  The pipeline ([`crate::pipeline::improve_start`]) runs one
//! `HC` descent on the DAG after the projection, seeded with the members of
//! multi-node clusters that have a neighbour on another processor (the
//! refinement generator of [`crate::hill_climb::block_moves`]), and `HCcs`
//! there once — the uncoarsening step of §4.5.  A full `HC` + `HCcs`
//! polish of every projection, certified by verification sweeps, was
//! measured on `flat_hc` at +27 % `pipeline.run_s` for −0.04 % cost, before
//! the relocation phase left the single-node moves the seeded descent finds.
//!
//! A second application contracts nothing ([`Funnel::contract`] of a funnel
//! DAG is `None`): a root that had its successors in two clusters still has,
//! and one the bound kept out meets a cluster that has only grown.

use bsp_model::{Assignment, BspSchedule, CommSchedule, CommStep, Dag, NodeId};

/// A cluster may hold at most `total_work / (MAX_CLUSTER_SHARE · P)` work:
/// half a processor's fair share, so that `P` processors can still be loaded
/// evenly with whole clusters (see the module docs — the bound exists for
/// pure in-trees and does not bind on the benchmark's families).
const MAX_CLUSTER_SHARE: u64 = 2;

/// A DAG contracted along its funnels, with the map back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Funnel {
    coarse: Dag,
    /// `cluster_of[v]` is the coarse node `v` was merged into.
    cluster_of: Vec<u32>,
    /// `roots[i]` is the one member of cluster `i` with successors outside
    /// it (or none at all), in ascending node order.
    roots: Vec<NodeId>,
}

impl Funnel {
    /// Contracts every node whose successors all lie in one cluster into
    /// that cluster, as long as the cluster's work stays within
    /// `total_work / (2·p)`.  `None` when nothing contracts.  `O(n + m)`.
    pub fn contract(dag: &Dag, p: usize) -> Option<Funnel> {
        let n = dag.n();
        let bound = dag.total_work() / (MAX_CLUSTER_SHARE * p as u64);
        let order = dag
            .topological_order()
            .expect("Dag invariant: always acyclic");
        // Both indexed by node, ids in 32 bits as in the DAG's own CSR;
        // `cluster_work` is only read at roots.
        let mut root_of: Vec<u32> = (0..n as u32).collect();
        let mut cluster_work: Vec<u64> = dag.work_weights().to_vec();
        for u in order.into_iter().rev().map(|u| u as usize) {
            let mut successors = dag.successors(u);
            let Some(first) = successors.next() else {
                continue;
            };
            let root = root_of[first];
            let (r, w) = (root as usize, dag.work(u));
            if successors.all(|v| root_of[v] == root) && cluster_work[r] + w <= bound {
                root_of[u] = root;
                cluster_work[r] += w;
            }
        }
        let roots: Vec<NodeId> = (0..n).filter(|&v| root_of[v] as usize == v).collect();
        if roots.len() == n {
            return None;
        }
        let mut index = vec![0u32; n];
        for (i, &r) in roots.iter().enumerate() {
            index[r] = i as u32;
        }
        let cluster_of: Vec<u32> = root_of.into_iter().map(|r| index[r as usize]).collect();
        drop(index);
        let work = roots.iter().map(|&r| cluster_work[r]).collect();
        drop(cluster_work);
        let comm = roots.iter().map(|&r| dag.comm(r)).collect();
        let coarse = quotient_of(dag, |v| cluster_of[v], work, comm);
        Some(Funnel {
            coarse,
            cluster_of,
            roots,
        })
    }

    /// The contracted DAG: `w` = Σ members, `c` = `c(root)`, the first
    /// occurrence of every cluster pair in `dag.edges()` order as its edges.
    pub fn dag(&self) -> &Dag {
        &self.coarse
    }

    /// The coarse node `v` was merged into.
    pub fn cluster_of(&self, v: NodeId) -> usize {
        self.cluster_of[v] as usize
    }

    /// The root of every cluster, indexed by coarse node.
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// The schedule of the DAG that `coarse_schedule` — any valid schedule of
    /// [`Funnel::dag`] — stands for: every member at its cluster's processor
    /// and superstep, every transfer re-labelled with its cluster's root.
    /// Valid on the DAG at exactly the coarse cost (see the module docs).
    pub fn project(&self, coarse_schedule: &BspSchedule) -> BspSchedule {
        let coarse = &coarse_schedule.assignment;
        let assignment = Assignment {
            proc: self
                .cluster_of
                .iter()
                .map(|&c| coarse.proc[c as usize])
                .collect(),
            superstep: (self.cluster_of.iter())
                .map(|&c| coarse.superstep[c as usize])
                .collect(),
        };
        let steps = coarse_schedule.comm.steps().iter().map(|step| CommStep {
            node: self.roots[step.node as usize] as u32,
            ..*step
        });
        BspSchedule {
            assignment,
            comm: CommSchedule::from_steps(steps.collect()),
        }
    }
}

/// The quotient of `dag` under `cluster_of` (node → cluster index): one node
/// per cluster with the given weights (`work.len()` clusters), and as edge
/// list the first occurrence of every cluster pair in `dag.edges()` order.
/// That order decides the neighbour order of the coarse [`Dag`], which the
/// initializers observe.
///
/// # Panics
///
/// Panics when the clusters do not form a DAG.
fn quotient_of(
    dag: &Dag,
    cluster_of: impl Fn(NodeId) -> u32,
    work: Vec<u64>,
    comm: Vec<u64>,
) -> Dag {
    let k = work.len();
    // A stable counting sort groups the crossing edges by source cluster
    // without disturbing their order inside a group, so one stamp per target
    // cluster finds the repeats of each group; the survivors are then
    // emitted in their original positions.  Cluster ids and positions are
    // 32-bit, as the DAG's own CSR is.
    let mut offset = vec![0u32; k + 1];
    let mut mapped: Vec<(u32, u32)> = Vec::new();
    for (a, b) in dag.edges() {
        let (ca, cb) = (cluster_of(a), cluster_of(b));
        if ca != cb {
            offset[ca as usize + 1] += 1;
            mapped.push((ca, cb));
        }
    }
    for c in 0..k {
        offset[c + 1] += offset[c];
    }
    let mut grouped = vec![0u32; mapped.len()];
    for (position, &(ca, _)) in (0u32..).zip(&mapped) {
        let slot = &mut offset[ca as usize];
        grouped[*slot as usize] = position;
        *slot += 1;
    }
    // `offset[c]` now ends group `c`; groups are walked back to back.
    let mut first = vec![false; mapped.len()];
    let mut stamp = vec![0u32; k];
    let mut begin = 0usize;
    for (ca, &end) in (1u32..).zip(&offset[..k]) {
        for &position in &grouped[begin..end as usize] {
            let cb = mapped[position as usize].1 as usize;
            if stamp[cb] != ca {
                stamp[cb] = ca;
                first[position as usize] = true;
            }
        }
        begin = end as usize;
    }
    drop((offset, grouped, stamp));
    let mut keep = first.into_iter();
    mapped.retain(|_| keep.next().expect("one flag per crossing edge"));
    let edges: Vec<(NodeId, NodeId)> = (mapped.into_iter())
        .map(|(ca, cb)| (ca as usize, cb as usize))
        .collect();
    Dag::from_edges(k, &edges, work, comm).expect("the clusters form a DAG")
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsp_model::Machine;

    /// `u_j`, `a_ij` → products → row sums, as in `spmv`: 2 columns, 2 rows.
    fn spmv_like() -> Dag {
        // 0, 1: u_j.  2..6: a_ij.  6..10: products.  10, 11: sums.
        let mut edges = Vec::new();
        for k in 0..4 {
            edges.push((k % 2, 6 + k));
            edges.push((2 + k, 6 + k));
            edges.push((6 + k, 10 + k / 2));
        }
        Dag::from_edges(12, &edges, vec![1; 12], (1..=12).collect()).unwrap()
    }

    #[test]
    fn entries_and_products_fold_into_their_row_sum() {
        let dag = spmv_like();
        let funnel = Funnel::contract(&dag, 1).unwrap();
        // The shared inputs keep their two consumers apart; everything else
        // has one exit.
        assert_eq!(funnel.roots(), &[0, 1, 10, 11]);
        let coarse = funnel.dag();
        assert_eq!(coarse.work_weights(), &[1, 1, 5, 5]);
        assert_eq!(coarse.comm_weights(), &[1, 2, 11, 12]);
        let edges: Vec<_> = coarse.edges().collect();
        assert_eq!(edges, vec![(0, 2), (0, 3), (1, 2), (1, 3)]);
        assert!(Funnel::contract(coarse, 1).is_none());
    }

    #[test]
    fn the_bound_keeps_an_in_tree_from_folding_into_one_node() {
        // A chain of 8 unit nodes: total work 8, P = 2, bound 2.
        let edges: Vec<_> = (0..7).map(|v| (v, v + 1)).collect();
        let dag = Dag::from_edge_list_unit_weights(8, &edges).unwrap();
        let funnel = Funnel::contract(&dag, 2).unwrap();
        assert_eq!(funnel.dag().work_weights(), &[2, 2, 2, 2]);
        assert_eq!(funnel.roots(), &[1, 3, 5, 7]);
    }

    #[test]
    fn nothing_to_contract_is_none() {
        // Every non-sink node feeds two sinks.
        let dag = Dag::from_edge_list_unit_weights(4, &[(0, 2), (0, 3), (1, 2), (1, 3)]).unwrap();
        assert!(Funnel::contract(&dag, 1).is_none());
        let empty = Dag::from_edge_list_unit_weights(0, &[]).unwrap();
        assert!(Funnel::contract(&empty, 4).is_none());
    }

    #[test]
    fn a_projected_schedule_costs_what_the_coarse_one_does() {
        let dag = spmv_like();
        let machine = Machine::uniform(2, 3, 5);
        let funnel = Funnel::contract(&dag, 1).unwrap();
        let coarse = BspSchedule::from_assignment_lazy(
            funnel.dag(),
            Assignment {
                proc: vec![0, 1, 0, 1],
                superstep: vec![0, 0, 1, 1],
            },
        );
        let projected = funnel.project(&coarse);
        assert!(projected.validate(&dag, &machine).is_ok());
        assert_eq!(
            projected.cost(&dag, &machine),
            coarse.cost(funnel.dag(), &machine)
        );
        assert_eq!(projected, {
            let assignment = projected.assignment.clone();
            BspSchedule::from_assignment_lazy(&dag, assignment)
        });
    }
}
