//! The `HDagg` wavefront-aggregation baseline (§4.1 and Appendix A.1).
//!
//! HDagg sorts the nodes of the DAG into *wavefronts* (topological levels,
//! essentially supersteps), distributes the nodes of each wavefront over the
//! processors so that the work is balanced while nodes stay close to their
//! predecessors, and *aggregates* consecutive wavefronts into a single
//! superstep whenever doing so introduces no cross-processor dependency inside
//! the merged superstep.  This re-implementation follows the algorithmic idea
//! of Zarebavani et al. [46] as described in the paper; the original library
//! targets SpTRSV matrices but is, as the paper notes, a general DAG
//! scheduler.

use crate::Scheduler;
use bsp_model::{Assignment, BspSchedule, Dag, Machine};
use std::cmp::Reverse;

/// The wavefront-aggregation scheduler.
#[derive(Debug, Clone, Copy)]
pub struct HDaggScheduler {
    /// Load-balance slack: a processor may exceed the ideal per-processor work
    /// of a wavefront by this factor before locality is overridden.
    pub balance_slack: f64,
}

impl Default for HDaggScheduler {
    fn default() -> Self {
        HDaggScheduler { balance_slack: 1.1 }
    }
}

/// The nodes bucketed by wavefront (topological level, as
/// [`Dag::levels`]), in no particular order within one: what `assign` and
/// `aggregate` share.
struct Wavefronts {
    levels: Vec<usize>,
    /// Wavefront `l` is `nodes[offsets[l]..offsets[l + 1]]`.
    offsets: Vec<usize>,
    nodes: Vec<usize>,
}

impl Wavefronts {
    /// One Kahn pass, a wavefront at a time: a node becomes ready while the
    /// wavefront of its deepest predecessor is processed, so the nodes that
    /// wavefront `l` makes ready are exactly wavefront `l + 1`.
    fn new(dag: &Dag) -> Self {
        let n = dag.n();
        let mut indeg: Vec<u32> = (0..n).map(|v| dag.in_degree(v) as u32).collect();
        let mut levels = vec![0usize; n];
        let mut offsets = vec![0usize];
        let mut nodes = Vec::with_capacity(n);
        nodes.extend((0..n).filter(|&v| indeg[v] == 0));
        while offsets[offsets.len() - 1] < nodes.len() {
            let (start, end) = (offsets[offsets.len() - 1], nodes.len());
            offsets.push(end);
            let next = offsets.len() - 1;
            for i in start..end {
                for w in dag.successors(nodes[i]) {
                    indeg[w] -= 1;
                    if indeg[w] == 0 {
                        levels[w] = next;
                        nodes.push(w);
                    }
                }
            }
        }
        Wavefronts {
            levels,
            offsets,
            nodes,
        }
    }

    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    fn get(&self, l: usize) -> &[usize] {
        &self.nodes[self.offsets[l]..self.offsets[l + 1]]
    }
}

impl HDaggScheduler {
    /// Computes the processor assignment of every node, one wavefront after
    /// the other.
    fn assign(&self, dag: &Dag, machine: &Machine, wavefronts: &Wavefronts) -> Vec<u16> {
        let p = machine.p();
        let mut proc = vec![0u16; dag.n()];
        let mut load = vec![0u64; p];
        let mut affinity = vec![0u64; p];
        let mut order: Vec<(Reverse<u64>, usize)> = Vec::new();
        for l in 0..wavefronts.len() {
            let wavefront = wavefronts.get(l);
            order.clear();
            order.extend(wavefront.iter().map(|&v| (Reverse(dag.work(v)), v)));
            let total_work: u64 = order.iter().map(|&(Reverse(w), _)| w).sum();
            let ideal = (total_work as f64 / p as f64).max(1.0);
            let limit = ideal * self.balance_slack;
            // Heaviest nodes first, so load balancing has room to correct
            // (ties in id order: ids are unique).
            order.sort_unstable();
            for &(Reverse(work), v) in &order {
                // Affinity: communication weight of predecessors already
                // placed on each processor.
                for u in dag.predecessors(v) {
                    affinity[proc[u] as usize] += dag.comm(u);
                }
                // The best processor by `(affinity, Reverse(load))` that
                // stays within the balance slack, ties to the larger index;
                // failing that, the least loaded by `(load,
                // Reverse(affinity))`, ties to the smaller index.
                let mut best: Option<(usize, (u64, Reverse<u64>))> = None;
                for (q, (&a, &l)) in affinity.iter().zip(&load).enumerate() {
                    let key = (a, Reverse(l));
                    if (l + work) as f64 <= limit && best.is_none_or(|(_, b)| key >= b) {
                        best = Some((q, key));
                    }
                }
                let q = best.map_or_else(
                    || {
                        (0..p)
                            .min_by_key(|&q| (load[q], Reverse(affinity[q])))
                            .expect("at least one processor")
                    },
                    |(q, _)| q,
                );
                proc[v] = q as u16;
                load[q] += work;
                // Only the processors of `v`'s predecessors hold affinity.
                for u in dag.predecessors(v) {
                    affinity[proc[u] as usize] = 0;
                }
            }
            // Only the wavefront's processors hold load.
            for &(_, v) in &order {
                load[proc[v] as usize] = 0;
            }
        }
        proc
    }

    /// Aggregates consecutive wavefronts into supersteps: a wavefront joins the
    /// current superstep if none of its nodes has a predecessor inside the
    /// current superstep that lives on a different processor.
    fn aggregate(&self, dag: &Dag, proc: &[u16], wavefronts: &Wavefronts) -> Vec<u32> {
        let levels = &wavefronts.levels;
        let mut superstep = vec![0u32; dag.n()];
        let mut current = 0u32;
        let mut current_first_level = 0usize;
        for l in 0..wavefronts.len() {
            if l > 0 {
                // Can level l join the superstep started at current_first_level?
                let conflict = wavefronts.get(l).iter().any(|&v| {
                    dag.predecessors(v)
                        .any(|u| levels[u] >= current_first_level && proc[u] != proc[v])
                });
                if conflict {
                    current += 1;
                    current_first_level = l;
                }
            }
            for &v in wavefronts.get(l) {
                superstep[v] = current;
            }
        }
        superstep
    }
}

impl Scheduler for HDaggScheduler {
    fn name(&self) -> &'static str {
        "HDagg"
    }

    fn schedule(&self, dag: &Dag, machine: &Machine) -> BspSchedule {
        let wavefronts = Wavefronts::new(dag);
        let proc = self.assign(dag, machine, &wavefronts);
        let superstep = self.aggregate(dag, &proc, &wavefronts);
        let assignment = Assignment { proc, superstep };
        let mut sched = BspSchedule::from_assignment_lazy(dag, assignment);
        sched.normalize(dag);
        sched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wide_dag() -> Dag {
        // Three levels of 6 nodes; node i in level l depends on node i of level l-1.
        let mut edges = Vec::new();
        for l in 0..2 {
            for i in 0..6 {
                edges.push((l * 6 + i, (l + 1) * 6 + i));
            }
        }
        Dag::from_edges(18, &edges, vec![2; 18], vec![1; 18]).unwrap()
    }

    #[test]
    fn produces_valid_schedules() {
        let dag = wide_dag();
        let machine = Machine::uniform(3, 1, 2);
        let sched = HDaggScheduler::default().schedule(&dag, &machine);
        assert!(sched.validate(&dag, &machine).is_ok());
    }

    #[test]
    fn independent_columns_are_aggregated_into_one_superstep() {
        // Each column chain stays on one processor, so no communication is
        // needed and the wavefronts merge into a single superstep.
        let dag = wide_dag();
        let machine = Machine::uniform(6, 1, 2);
        let sched = HDaggScheduler::default().schedule(&dag, &machine);
        assert!(sched.validate(&dag, &machine).is_ok());
        assert_eq!(
            sched.num_supersteps(),
            1,
            "independent chains should aggregate"
        );
        assert!(sched.comm.is_empty());
    }

    #[test]
    fn work_is_balanced_across_processors() {
        let dag = wide_dag();
        let machine = Machine::uniform(3, 1, 2);
        let sched = HDaggScheduler::default().schedule(&dag, &machine);
        let mut per_proc = [0u64; 3];
        for v in 0..dag.n() {
            per_proc[sched.proc(v)] += dag.work(v);
        }
        let max = per_proc.iter().max().unwrap();
        let min = per_proc.iter().min().unwrap();
        assert!(max - min <= 4, "unbalanced loads {per_proc:?}");
    }

    #[test]
    fn cross_processor_fanin_forces_a_new_superstep() {
        // A single sink depending on many sources cannot share a superstep with
        // sources on other processors.
        let mut edges = Vec::new();
        for u in 0..8 {
            edges.push((u, 8));
        }
        let dag = Dag::from_edges(9, &edges, vec![5; 9], vec![1; 9]).unwrap();
        let machine = Machine::uniform(4, 1, 2);
        let sched = HDaggScheduler::default().schedule(&dag, &machine);
        assert!(sched.validate(&dag, &machine).is_ok());
        assert!(sched.num_supersteps() >= 2);
    }

    #[test]
    fn beats_or_matches_trivial_on_parallel_work() {
        let dag = wide_dag();
        let machine = Machine::uniform(6, 1, 1);
        let hdagg = HDaggScheduler::default().schedule(&dag, &machine);
        let trivial = BspSchedule::trivial(&dag);
        assert!(hdagg.cost(&dag, &machine) < trivial.cost(&dag, &machine));
    }
}
