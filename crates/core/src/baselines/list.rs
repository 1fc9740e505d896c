//! The `BL-EST` and `ETF` list-scheduling baselines (§4.1 and Appendix A.1).
//!
//! Both schedulers place one ready node at a time on the processor offering
//! the earliest start time (EST), where the EST accounts for the communication
//! volume `c(u)` of predecessors residing on other processors (multiplied by
//! `g`, and — when the machine is NUMA — by the *average* NUMA coefficient, as
//! the paper prescribes for these baselines).  They differ in node selection:
//!
//! * `BL-EST` picks the ready node with the largest *bottom level* (longest
//!   outgoing path by work weight) and then its best processor;
//! * `ETF` considers every (ready node, processor) pair and picks the pair
//!   with the globally earliest start time.
//!
//! The resulting classical schedules are converted to BSP supersteps.

use crate::Scheduler;
use bsp_model::{BspSchedule, ClassicalSchedule, Dag, Machine};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Node-selection rule of a list scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Selection {
    BottomLevelFirst,
    EarliestTaskFirst,
}

fn comm_delay(dag: &Dag, machine: &Machine, u: usize) -> u64 {
    // Baselines fold NUMA into an average coefficient (Appendix A.1); in the
    // uniform case avg_lambda < 1 because of the zero diagonal, so clamp to 1.
    let factor = machine.avg_lambda().max(1.0);
    (dag.comm(u) as f64 * machine.g() as f64 * factor).round() as u64
}

/// Runs the list scheduler and returns the classical schedule.
fn list_schedule(dag: &Dag, machine: &Machine, selection: Selection) -> ClassicalSchedule {
    let n = dag.n();
    let p = machine.p();
    let bottom_level = dag.bottom_level();

    let mut remaining_preds: Vec<usize> = (0..n).map(|v| dag.in_degree(v)).collect();
    // Keyed for `BL-EST`, which pops the highest bottom level (ties: smaller
    // node id); `ETF` re-evaluates every ready node and ignores the order.
    let mut ready: BinaryHeap<(u64, Reverse<usize>)> = dag
        .sources()
        .into_iter()
        .map(|v| (bottom_level[v], Reverse(v)))
        .collect();
    let mut proc_free = vec![0u64; p];
    let mut start = vec![0u64; n];
    let mut proc = vec![usize::MAX; n];
    let mut finish = vec![0u64; n];
    let mut scheduled = 0usize;

    // Earliest start time of node v on processor q given current assignments.
    let est = |v: usize, q: usize, proc: &[usize], finish: &[u64], proc_free: &[u64]| -> u64 {
        let mut t = proc_free[q];
        for u in dag.predecessors(v) {
            let arrival = if proc[u] == q {
                finish[u]
            } else {
                finish[u] + comm_delay(dag, machine, u)
            };
            t = t.max(arrival);
        }
        t
    };

    while scheduled < n {
        // Select (node, processor).
        let (v, q, t) = match selection {
            Selection::BottomLevelFirst => {
                // Highest bottom level first (ties: smaller node id).
                let (_, Reverse(v)) = ready.pop().expect("ready list is non-empty");
                let (q, t) = (0..p)
                    .map(|q| (q, est(v, q, &proc, &finish, &proc_free)))
                    .min_by_key(|&(q, t)| (t, q))
                    .expect("at least one processor");
                (v, q, t)
            }
            Selection::EarliestTaskFirst => {
                let mut best: Option<(u64, Reverse<u64>, usize, usize)> = None;
                for &(_, Reverse(v)) in &ready {
                    for q in 0..p {
                        let t = est(v, q, &proc, &finish, &proc_free);
                        let key = (t, Reverse(bottom_level[v]), v, q);
                        if best.is_none_or(|b| key < b) {
                            best = Some(key);
                        }
                    }
                }
                let (t, _, v, q) = best.expect("ready list is non-empty");
                ready.retain(|&(_, Reverse(x))| x != v);
                (v, q, t)
            }
        };

        // Place the node.
        proc[v] = q;
        start[v] = t;
        finish[v] = t + dag.work(v);
        proc_free[q] = finish[v];
        scheduled += 1;
        for w in dag.successors(v) {
            remaining_preds[w] -= 1;
            if remaining_preds[w] == 0 {
                ready.push((bottom_level[w], Reverse(w)));
            }
        }
    }
    ClassicalSchedule::new(proc, start)
}

/// The `BL-EST` list scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlEstScheduler;

impl BlEstScheduler {
    /// The classical (time-based) schedule before BSP conversion.
    pub fn classical_schedule(&self, dag: &Dag, machine: &Machine) -> ClassicalSchedule {
        list_schedule(dag, machine, Selection::BottomLevelFirst)
    }
}

impl Scheduler for BlEstScheduler {
    fn name(&self) -> &'static str {
        "BL-EST"
    }

    fn schedule(&self, dag: &Dag, machine: &Machine) -> BspSchedule {
        if dag.n() == 0 {
            return BspSchedule::trivial(dag);
        }
        self.classical_schedule(dag, machine).to_bsp(dag)
    }
}

/// The `ETF` (earliest task first) list scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct EtfScheduler;

impl EtfScheduler {
    /// The classical (time-based) schedule before BSP conversion.
    pub fn classical_schedule(&self, dag: &Dag, machine: &Machine) -> ClassicalSchedule {
        list_schedule(dag, machine, Selection::EarliestTaskFirst)
    }
}

impl Scheduler for EtfScheduler {
    fn name(&self) -> &'static str {
        "ETF"
    }

    fn schedule(&self, dag: &Dag, machine: &Machine) -> BspSchedule {
        if dag.n() == 0 {
            return BspSchedule::trivial(dag);
        }
        self.classical_schedule(dag, machine).to_bsp(dag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fork_join() -> Dag {
        // 0 fans out to 1..=4, which join into 5.
        let mut edges = Vec::new();
        for v in 1..=4 {
            edges.push((0, v));
            edges.push((v, 5));
        }
        Dag::from_edges(6, &edges, vec![1, 4, 4, 4, 4, 1], vec![1; 6]).unwrap()
    }

    #[test]
    fn both_schedulers_produce_valid_schedules() {
        let dag = fork_join();
        let machine = Machine::uniform(4, 1, 2);
        for sched in [
            BlEstScheduler.schedule(&dag, &machine),
            EtfScheduler.schedule(&dag, &machine),
        ] {
            assert!(sched.validate(&dag, &machine).is_ok());
        }
    }

    #[test]
    fn classical_schedules_are_consistent() {
        let dag = fork_join();
        let machine = Machine::uniform(4, 1, 2);
        assert!(BlEstScheduler
            .classical_schedule(&dag, &machine)
            .is_consistent(&dag));
        assert!(EtfScheduler
            .classical_schedule(&dag, &machine)
            .is_consistent(&dag));
    }

    #[test]
    fn parallelism_is_used_when_communication_is_cheap() {
        let dag = fork_join();
        let machine = Machine::uniform(4, 1, 0);
        let cs = EtfScheduler.classical_schedule(&dag, &machine);
        let used: std::collections::HashSet<usize> = cs.proc.iter().copied().collect();
        assert!(used.len() >= 2);
        // With free communication the four middle tasks run in parallel.
        assert!(cs.makespan(&dag) < 1 + 16 + 1);
    }

    #[test]
    fn expensive_communication_discourages_spreading() {
        // If sending data costs far more than the work, EST keeps the chain
        // on one processor.
        let dag =
            Dag::from_edges(3, &[(0, 1), (1, 2)], vec![1, 1, 1], vec![100, 100, 100]).unwrap();
        let machine = Machine::uniform(4, 5, 0);
        let cs = EtfScheduler.classical_schedule(&dag, &machine);
        assert_eq!(cs.proc[0], cs.proc[1]);
        assert_eq!(cs.proc[1], cs.proc[2]);
    }

    #[test]
    fn blest_prefers_critical_path_nodes() {
        // Node 1 heads a long chain, node 2 is a leaf; BL-EST must schedule 1
        // before 2 even though both are ready.
        let dag = Dag::from_edges(
            5,
            &[(0, 1), (0, 2), (1, 3), (3, 4)],
            vec![1, 1, 1, 1, 1],
            vec![1; 5],
        )
        .unwrap();
        let machine = Machine::uniform(1, 1, 1);
        let cs = BlEstScheduler.classical_schedule(&dag, &machine);
        assert!(cs.start[1] < cs.start[2]);
    }

    #[test]
    fn numa_average_lambda_increases_est_delays() {
        let dag = fork_join();
        let uniform = Machine::uniform(8, 1, 2);
        let numa = Machine::numa_binary_tree(8, 1, 2, 4);
        let cs_uniform = EtfScheduler.classical_schedule(&dag, &uniform);
        let cs_numa = EtfScheduler.classical_schedule(&dag, &numa);
        // Higher communication penalties can only keep the makespan equal or
        // push work onto fewer processors (never finish earlier).
        assert!(cs_numa.makespan(&dag) >= cs_uniform.makespan(&dag));
    }
}
