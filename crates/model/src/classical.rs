//! Classical (time-based) schedules and their conversion into BSP schedules.
//!
//! The `Cilk`, `BL-EST` and `ETF` baselines assign nodes to concrete points in
//! time on concrete processors.  Such a schedule is converted into a BSP
//! schedule with the iterative rule of Appendix A.1: repeatedly find the
//! earliest time `t` at which the classical schedule starts a node `v` that has
//! a not-yet-superstep-assigned direct predecessor on a *different* processor;
//! all nodes starting before `t` are assigned to the current superstep, and the
//! procedure continues with the next superstep.

use crate::comm::CommSchedule;
use crate::dag::Dag;
use crate::schedule::{Assignment, BspSchedule};
use serde::{Deserialize, Serialize};

/// A classical schedule: each node has a processor and a start time; its
/// duration is its work weight.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassicalSchedule {
    /// Processor executing each node.
    pub proc: Vec<usize>,
    /// Start time of each node.
    pub start: Vec<u64>,
}

impl ClassicalSchedule {
    /// Creates a classical schedule; panics if the vectors have different lengths.
    pub fn new(proc: Vec<usize>, start: Vec<u64>) -> Self {
        assert_eq!(proc.len(), start.len());
        ClassicalSchedule { proc, start }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.proc.len()
    }

    /// Finish time of node `v` (start + work weight).
    pub fn finish(&self, dag: &Dag, v: usize) -> u64 {
        self.start[v] + dag.work(v)
    }

    /// Makespan of the classical schedule (latest finish time).
    pub fn makespan(&self, dag: &Dag) -> u64 {
        (0..self.n())
            .map(|v| self.finish(dag, v))
            .max()
            .unwrap_or(0)
    }

    /// Checks that the classical schedule respects precedence constraints and
    /// never overlaps two nodes on one processor.  Communication delays are
    /// *not* checked here — baselines model them in their own EST computation.
    pub fn is_consistent(&self, dag: &Dag) -> bool {
        for v in 0..self.n() {
            for u in dag.predecessors(v) {
                if self.finish(dag, u) > self.start[v] {
                    return false;
                }
            }
        }
        // No overlap per processor.
        let mut per_proc: Vec<Vec<(u64, u64)>> = Vec::new();
        for v in 0..self.n() {
            let p = self.proc[v];
            if per_proc.len() <= p {
                per_proc.resize(p + 1, Vec::new());
            }
            per_proc[p].push((self.start[v], self.finish(dag, v)));
        }
        for intervals in &mut per_proc {
            intervals.sort_unstable();
            for w in intervals.windows(2) {
                if w[0].1 > w[1].0 {
                    return false;
                }
            }
        }
        true
    }

    /// `true` if `v` has a predecessor on a different processor that has no
    /// superstep yet.
    fn is_blocked(&self, dag: &Dag, v: usize, superstep: &[u32]) -> bool {
        dag.predecessors(v)
            .any(|u| superstep[u] == u32::MAX && self.proc[u] != self.proc[v])
    }

    /// Converts this classical schedule into a BSP assignment by cutting the
    /// timeline into supersteps (Appendix A.1), keeping the processor
    /// assignment unchanged.
    pub fn to_bsp_assignment(&self, dag: &Dag) -> Assignment {
        let n = self.n();
        // The pairs are unique, so an unstable sort gives the stable order.
        let mut order: Vec<(u64, usize)> = (0..n).map(|v| (self.start[v], v)).collect();
        order.sort_unstable();

        // `current < n ≤ u32::MAX` (one node per superstep at least), so the
        // sentinel is never a real superstep.
        let mut superstep = vec![u32::MAX; n];
        let mut current = 0u32;
        // `order[begin..]` is unassigned.  `order[begin..scan]` is known to be
        // unblocked, and stays so as more nodes get assigned, so each node is
        // examined once, plus once per cut made at it.
        let mut begin = 0usize;
        let mut scan = 0usize;
        while begin < n {
            // Earliest start time t of an unassigned node with an unassigned
            // predecessor on a different processor.
            while scan < n && !self.is_blocked(dag, order[scan].1, &superstep) {
                scan += 1;
            }
            if scan == n {
                // No more communication needed: everything left goes into
                // the current superstep.
                for &(_, v) in &order[begin..] {
                    superstep[v] = current;
                }
                break;
            }
            let t = order[scan].0;
            let mut end = begin;
            while order[end].0 < t {
                end += 1;
            }
            if end == begin {
                // Degenerate case (zero-length predecessors starting at
                // the same instant): force progress by taking the first
                // remaining node whose predecessors all have a superstep
                // (one exists: the DAG is acyclic), moved to the front.
                // Taking a node with a predecessor still to come would put
                // it before that predecessor.
                let ready = (begin..n)
                    .find(|&i| (dag.predecessors(order[i].1)).all(|u| superstep[u] != u32::MAX))
                    .expect("an acyclic DAG has a node with every predecessor placed");
                order[begin..=ready].rotate_right(1);
                end += 1;
            }
            for &(_, v) in &order[begin..end] {
                superstep[v] = current;
            }
            begin = end;
            scan = scan.max(begin);
            current += 1;
        }
        Assignment {
            proc: (self.proc.iter())
                .map(|&p| u16::try_from(p).expect("a Machine has at most u16::MAX processors"))
                .collect(),
            superstep,
        }
    }

    /// Converts into a full BSP schedule with the lazy communication schedule.
    pub fn to_bsp(&self, dag: &Dag) -> BspSchedule {
        let assignment = self.to_bsp_assignment(dag);
        let comm = CommSchedule::lazy(dag, &assignment);
        let mut sched = BspSchedule { assignment, comm };
        sched.normalize(dag);
        sched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;

    /// Two chains interleaved across two processors.
    fn cross_dag() -> Dag {
        // 0 -> 2, 1 -> 3, 2 -> 3
        Dag::from_edges(
            4,
            &[(0, 2), (1, 3), (2, 3)],
            vec![2, 2, 2, 2],
            vec![1, 1, 1, 1],
        )
        .unwrap()
    }

    #[test]
    fn consistency_checks_overlap_and_precedence() {
        let dag = cross_dag();
        let ok = ClassicalSchedule::new(vec![0, 1, 0, 1], vec![0, 0, 2, 4]);
        assert!(ok.is_consistent(&dag));
        let bad_precedence = ClassicalSchedule::new(vec![0, 1, 0, 1], vec![0, 0, 1, 4]);
        assert!(!bad_precedence.is_consistent(&dag));
        let overlap = ClassicalSchedule::new(vec![0, 0, 0, 1], vec![0, 1, 2, 4]);
        assert!(!overlap.is_consistent(&dag));
    }

    #[test]
    fn conversion_produces_valid_bsp_schedule() {
        let dag = cross_dag();
        let machine = Machine::uniform(2, 1, 1);
        let cs = ClassicalSchedule::new(vec![0, 1, 0, 1], vec![0, 0, 2, 4]);
        let bsp = cs.to_bsp(&dag);
        assert!(bsp.validate(&dag, &machine).is_ok());
        // Node 3 depends on node 2 which lives on the other processor, so they
        // must be in different supersteps.
        assert!(bsp.superstep(3) > bsp.superstep(2));
        // Processor assignment is preserved.
        assert_eq!(bsp.assignment.proc, vec![0, 1, 0, 1]);
    }

    #[test]
    fn single_processor_schedule_collapses_to_one_superstep() {
        let dag = cross_dag();
        let machine = Machine::uniform(2, 1, 1);
        let cs = ClassicalSchedule::new(vec![0; 4], vec![0, 2, 4, 6]);
        let bsp = cs.to_bsp(&dag);
        assert!(bsp.validate(&dag, &machine).is_ok());
        assert_eq!(bsp.num_supersteps(), 1);
    }

    #[test]
    fn makespan_is_latest_finish() {
        let dag = cross_dag();
        let cs = ClassicalSchedule::new(vec![0, 1, 0, 1], vec![0, 0, 2, 4]);
        assert_eq!(cs.makespan(&dag), 6);
    }

    #[test]
    fn cross_processor_chain_needs_multiple_supersteps() {
        // 0 on proc 0, 1 on proc 1, chain 0 -> 1 forces two supersteps.
        let dag = Dag::from_edges(2, &[(0, 1)], vec![1, 1], vec![1, 1]).unwrap();
        let machine = Machine::uniform(2, 1, 1);
        let cs = ClassicalSchedule::new(vec![0, 1], vec![0, 1]);
        let bsp = cs.to_bsp(&dag);
        assert!(bsp.validate(&dag, &machine).is_ok());
        assert_eq!(bsp.num_supersteps(), 2);
    }
}
