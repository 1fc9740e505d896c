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

/// The nodes bucketed by wavefront (topological level), in id order within
/// one: a counting sort that `assign` and `aggregate` share.
struct Wavefronts {
    levels: Vec<usize>,
    /// Wavefront `l` is `nodes[offsets[l]..offsets[l + 1]]`.
    offsets: Vec<usize>,
    nodes: Vec<usize>,
}

impl Wavefronts {
    fn new(dag: &Dag) -> Self {
        let levels = dag.levels();
        let num_levels = levels.iter().copied().max().map_or(0, |l| l + 1);
        let mut offsets = vec![0usize; num_levels + 1];
        for &l in &levels {
            offsets[l + 1] += 1;
        }
        for l in 0..num_levels {
            offsets[l + 1] += offsets[l];
        }
        let mut next = offsets.clone();
        let mut nodes = vec![0usize; levels.len()];
        for (v, &l) in levels.iter().enumerate() {
            nodes[next[l]] = v;
            next[l] += 1;
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
    fn assign(&self, dag: &Dag, machine: &Machine, wavefronts: &Wavefronts) -> Vec<u32> {
        let p = machine.p();
        let mut proc = vec![0u32; dag.n()];
        let mut load = vec![0u64; p];
        let mut affinity = vec![0u64; p];
        let mut order = Vec::new();
        for l in 0..wavefronts.len() {
            let wavefront = wavefronts.get(l);
            let total_work: u64 = wavefront.iter().map(|&v| dag.work(v)).sum();
            let ideal = (total_work as f64 / p as f64).max(1.0);
            load.fill(0);
            // Heaviest nodes first, so load balancing has room to correct
            // (ties in id order: the wavefront is, and ids are unique).
            order.clear();
            order.extend_from_slice(wavefront);
            order.sort_unstable_by_key(|&v| (std::cmp::Reverse(dag.work(v)), v));
            for &v in &order {
                // Affinity: communication weight of predecessors already
                // placed on each processor.
                affinity.fill(0);
                for u in dag.predecessors(v) {
                    affinity[proc[u] as usize] += dag.comm(u);
                }
                let within_slack =
                    |q: usize| (load[q] + dag.work(v)) as f64 <= ideal * self.balance_slack;
                // Best-affinity processor that still respects the balance
                // slack; fall back to the least-loaded processor.
                let candidate = (0..p)
                    .filter(|&q| within_slack(q))
                    .max_by_key(|&q| (affinity[q], std::cmp::Reverse(load[q])));
                let q = candidate.unwrap_or_else(|| {
                    (0..p)
                        .min_by_key(|&q| (load[q], std::cmp::Reverse(affinity[q])))
                        .expect("at least one processor")
                });
                proc[v] = q as u32;
                load[q] += dag.work(v);
            }
        }
        proc
    }

    /// Aggregates consecutive wavefronts into supersteps: a wavefront joins the
    /// current superstep if none of its nodes has a predecessor inside the
    /// current superstep that lives on a different processor.
    fn aggregate(&self, dag: &Dag, proc: &[u32], wavefronts: &Wavefronts) -> Vec<u32> {
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
        if dag.n() == 0 {
            return BspSchedule::trivial(dag);
        }
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
        let m = sched.work_matrix(&dag, &machine);
        let per_proc: Vec<u64> = (0..3).map(|q| m.iter().map(|row| row[q]).sum()).collect();
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
