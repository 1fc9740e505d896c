//! The `Source` layer-wise initialization heuristic (§4.2, Algorithm 2).
//!
//! Each iteration takes the current source nodes of the (remaining) DAG and
//! turns them into one superstep.  The first superstep clusters sources that
//! share a direct successor and distributes the clusters round-robin; later
//! supersteps sort the sources by decreasing work weight and distribute them
//! round-robin to balance the work.  After the round-robin pass, any direct
//! successor whose predecessors all ended up on the same processor is pulled
//! into the current superstep as well (avoiding unnecessary extra supersteps).
//!
//! # The cluster bound
//!
//! A first-superstep cluster holds at most `⌈Σ w(sources) / P⌉` work — a
//! processor's share of the sources: a source joins a cluster, or is pulled
//! into a new one, only while the cluster stays within it.  "Shares a
//! successor" is transitive, so without the bound a DAG whose sources are the
//! *shared* inputs — a funnel DAG ([`crate::funnel`]: the `u_j` of `spmv`
//! once every `a_ij` has folded into its row) — puts every source in one cluster on one processor, the pull-in absorbs
//! the rest and `Source` returns the one-processor schedule; the pipeline's
//! width sweep then compares trivial with trivial and never narrows.  On the
//! fine-grained benchmark DAGs themselves a cluster is a matrix column of
//! ≈ 9 unit nodes and the bound never binds (`flat_hc` without the funnel
//! reduction keeps its cost to the digit); where a handful of sources share
//! everything it does (coarse `pagerank`: three unit sources, bound 1).

use crate::Scheduler;
use bsp_model::{Assignment, BspSchedule, Dag, Machine};

/// The `Source` layer-wise initializer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SourceScheduler;

/// The assignment so far and the "shrinking" DAG of the unassigned nodes.
struct Shrinking<'a> {
    dag: &'a Dag,
    /// `π` and `τ` so far, `u16::MAX` / `u32::MAX` while unassigned (no
    /// machine has `u16::MAX + 1` processors).
    proc: Vec<u16>,
    superstep_of: Vec<u32>,
    /// In-degree of each node counting unassigned predecessors only.
    remaining_indeg: Vec<usize>,
    /// Nodes whose remaining in-degree hit 0 and that the pull-in has not
    /// examined yet.
    freed: Vec<usize>,
}

impl Shrinking<'_> {
    /// Assigns `v` and removes it from the remaining DAG.
    fn assign(&mut self, v: usize, q: usize, superstep: usize) {
        self.proc[v] = q as u16;
        self.superstep_of[v] = superstep as u32;
        for w in self.dag.successors(v) {
            self.remaining_indeg[w] -= 1;
            if self.remaining_indeg[w] == 0 {
                self.freed.push(w);
            }
        }
    }
}

impl SourceScheduler {
    /// Computes the `(π, τ)` assignment.
    pub fn assignment(&self, dag: &Dag, machine: &Machine) -> Assignment {
        let n = dag.n();
        let p = machine.p();
        let mut st = Shrinking {
            dag,
            proc: vec![u16::MAX; n],
            superstep_of: vec![u32::MAX; n],
            remaining_indeg: (0..n).map(|v| dag.in_degree(v)).collect(),
            freed: Vec::new(),
        };
        // Sources of the remaining DAG: the next superstep's round-robin set.
        let mut sources: Vec<usize> = dag.sources();
        let mut superstep = 0usize;

        while !sources.is_empty() {
            let mut next_proc = 0usize;

            if superstep == 0 {
                // Cluster sources that share a direct successor, a cluster
                // holding at most a processor's share of the sources' work
                // (see "The cluster bound" in the module docs).
                let source_work: u64 = sources.iter().map(|&v| dag.work(v)).sum();
                let bound = source_work.div_ceil(p as u64);
                let mut cluster_of: Vec<Option<usize>> = vec![None; n];
                let mut clusters: Vec<Vec<usize>> = Vec::new();
                let mut cluster_work: Vec<u64> = Vec::new();
                // The sources v shares an out-neighbour with, in successor
                // order.
                let partners = move |v: usize| {
                    dag.successors(v)
                        .flat_map(move |succ| dag.predecessors(succ))
                        .filter(move |&u| u != v && dag.in_degree(u) == 0)
                };
                for &v in &sources {
                    if cluster_of[v].is_some() {
                        continue;
                    }
                    // The first partner's cluster with room for v.
                    let target_cluster = partners(v)
                        .filter_map(|u| cluster_of[u])
                        .find(|&c| cluster_work[c] + dag.work(v) <= bound);
                    match target_cluster {
                        Some(c) => {
                            clusters[c].push(v);
                            cluster_of[v] = Some(c);
                            cluster_work[c] += dag.work(v);
                        }
                        None => {
                            // Start a new cluster; pull in the partners that
                            // are not yet clustered and fit.
                            let c = clusters.len();
                            clusters.push(vec![v]);
                            cluster_of[v] = Some(c);
                            cluster_work.push(dag.work(v));
                            for u in partners(v) {
                                if cluster_of[u].is_none() && cluster_work[c] + dag.work(u) <= bound
                                {
                                    clusters[c].push(u);
                                    cluster_of[u] = Some(c);
                                    cluster_work[c] += dag.work(u);
                                }
                            }
                        }
                    }
                }
                for cluster in clusters {
                    for v in cluster {
                        st.assign(v, next_proc, superstep);
                    }
                    next_proc = (next_proc + 1) % p;
                }
            } else {
                // Decreasing work weight, round-robin.
                sources.sort_unstable_by_key(|&v| (std::cmp::Reverse(dag.work(v)), v));
                for &v in &sources {
                    st.assign(v, next_proc, superstep);
                    next_proc = (next_proc + 1) % p;
                }
            }
            sources.clear();

            // Pull in successors whose predecessors all live on one processor;
            // the rest are the sources of the next superstep.  (A pulled-in
            // node frees its own successors, so chains are absorbed.)
            while let Some(u) = st.freed.pop() {
                let mut preds = dag.predecessors(u);
                let target = st.proc[preds.next().expect("a freed node has a predecessor")];
                if preds.all(|w| st.proc[w] == target) {
                    st.assign(u, target as usize, superstep);
                } else {
                    sources.push(u);
                }
            }

            superstep += 1;
        }

        Assignment {
            proc: st.proc,
            superstep: st.superstep_of,
        }
    }
}

impl Scheduler for SourceScheduler {
    fn name(&self) -> &'static str {
        "Source"
    }

    fn schedule(&self, dag: &Dag, machine: &Machine) -> BspSchedule {
        let assignment = self.assignment(dag, machine);
        let mut sched = BspSchedule::from_assignment_lazy(dag, assignment);
        sched.normalize(dag);
        sched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spmv_like() -> Dag {
        // 4 vector sources, 4 matrix sources, 4 products, 2 sums.
        let mut edges = Vec::new();
        for i in 0..4 {
            edges.push((i, 8 + i)); // u_i -> t_i
            edges.push((4 + i, 8 + i)); // a_i -> t_i
        }
        edges.push((8, 12));
        edges.push((9, 12));
        edges.push((10, 13));
        edges.push((11, 13));
        let n = 14;
        Dag::from_edges(n, &edges, vec![1; n], vec![1; n]).unwrap()
    }

    #[test]
    fn produces_valid_schedules() {
        let dag = spmv_like();
        for p in [1, 2, 4] {
            let machine = Machine::uniform(p, 1, 5);
            let sched = SourceScheduler.schedule(&dag, &machine);
            assert!(sched.validate(&dag, &machine).is_ok(), "invalid for P={p}");
        }
    }

    #[test]
    fn all_nodes_assigned() {
        let dag = spmv_like();
        let machine = Machine::uniform(4, 1, 5);
        let a = SourceScheduler.assignment(&dag, &machine);
        assert!(a.proc.iter().all(|&q| q < 4));
        assert!(a.superstep.iter().all(|&s| s != u32::MAX));
    }

    #[test]
    fn first_superstep_clusters_sources_with_common_successor() {
        let dag = spmv_like();
        let machine = Machine::uniform(4, 1, 5);
        let a = SourceScheduler.assignment(&dag, &machine);
        // u_i and a_i share the product t_i, so they must land on one processor.
        for i in 0..4 {
            assert_eq!(a.proc[i], a.proc[4 + i], "sources of product {i} split");
        }
    }

    #[test]
    fn successors_with_local_predecessors_join_the_superstep() {
        // Chain 0 -> 1 -> 2: everything can be absorbed into superstep 0.
        let dag = Dag::from_edges(3, &[(0, 1), (1, 2)], vec![1; 3], vec![1; 3]).unwrap();
        let machine = Machine::uniform(2, 1, 5);
        let sched = SourceScheduler.schedule(&dag, &machine);
        assert!(sched.validate(&dag, &machine).is_ok());
        assert_eq!(sched.num_supersteps(), 1);
    }

    #[test]
    fn round_robin_balances_later_supersteps() {
        // 4 independent sources (nodes 0..4), a middle layer (4..8) absorbed
        // into superstep 0, and a heavy layer (8..16) whose nodes each depend
        // on two middle nodes living on *different* processors, so they cannot
        // be absorbed and form superstep 1.
        let mut edges = Vec::new();
        for i in 0..4 {
            edges.push((i, 4 + i));
        }
        for j in 0..8 {
            edges.push((4 + j % 4, 8 + j));
            edges.push((4 + (j + 1) % 4, 8 + j));
        }
        let mut work = vec![1u64; 16];
        for w in work.iter_mut().skip(8) {
            *w = 10;
        }
        let dag = Dag::from_edges(16, &edges, work, vec![1; 16]).unwrap();
        let machine = Machine::uniform(4, 1, 5);
        let sched = SourceScheduler.schedule(&dag, &machine);
        assert!(sched.validate(&dag, &machine).is_ok());
        // The heavy layer is round-robined over all 4 processors in a later
        // superstep.
        let heavy_procs: std::collections::HashSet<usize> =
            (8..16).map(|v| sched.proc(v)).collect();
        assert_eq!(heavy_procs.len(), 4);
        assert!((8..16).all(|v| sched.superstep(v) > 0));
    }
}
