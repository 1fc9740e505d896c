//! The `Cilk` work-stealing baseline (§4.1 and Appendix A.1).
//!
//! Every processor keeps a stack of ready tasks.  When the execution of the
//! last unfinished direct predecessor of a node `v` finishes on processor `p`,
//! `v` is pushed onto the top of `p`'s stack.  An idle processor pops from the
//! top of its own stack; if its stack is empty it *steals* from the bottom of
//! the stack of a uniformly random victim with a non-empty stack.  The
//! resulting classical schedule is converted into BSP supersteps with the
//! standard conversion ([`bsp_model::ClassicalSchedule::to_bsp`]).

use crate::Scheduler;
use bsp_model::{BspSchedule, ClassicalSchedule, Dag, Machine};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;

/// The work-stealing baseline.  Deterministic for a fixed `seed`.
#[derive(Debug, Clone, Copy)]
pub struct CilkScheduler {
    pub seed: u64,
}

impl Default for CilkScheduler {
    fn default() -> Self {
        CilkScheduler { seed: 0xC11C }
    }
}

impl CilkScheduler {
    /// Creates a work-stealing scheduler with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        CilkScheduler { seed }
    }

    /// Runs the work-stealing simulation and returns the classical schedule.
    pub fn classical_schedule(&self, dag: &Dag, machine: &Machine) -> ClassicalSchedule {
        let n = dag.n();
        let p = machine.p();
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);

        let mut remaining_preds: Vec<usize> = (0..n).map(|v| dag.in_degree(v)).collect();
        // Per-processor stack of ready tasks: own pops from the back (top),
        // steals from the front (bottom).
        let mut stacks: Vec<VecDeque<usize>> = vec![VecDeque::new(); p];
        let mut victims: Vec<usize> = Vec::with_capacity(p);
        // All sources start on processor 0's stack (in reverse topological-rank
        // order so the "oldest" task sits at the bottom, available to thieves).
        let mut sources = dag.sources();
        sources.reverse();
        stacks[0].extend(sources);
        // How many stacks hold work.  With none, a thief finds no victim,
        // and `choose` on an empty slice draws no random number, so the
        // victim scan is skipped without changing the random sequence.
        let mut nonempty = usize::from(!stacks[0].is_empty());

        // Per-processor state: what it is running and until when.
        let mut busy_until: Vec<Option<(u64, usize)>> = vec![None; p];
        let mut start = vec![0u64; n];
        let mut proc = vec![0usize; n];
        let mut finished = 0usize;
        let mut now = 0u64;

        while finished < n {
            // 1. Hand work to idle processors.
            loop {
                let mut progress = false;
                for q in 0..p {
                    if busy_until[q].is_some() || nonempty == 0 {
                        continue;
                    }
                    // Own stack first, else steal from the bottom of a
                    // random non-empty stack (there is one, and not `q`'s).
                    let from = if stacks[q].is_empty() {
                        victims.clear();
                        victims.extend((0..p).filter(|&r| r != q && !stacks[r].is_empty()));
                        *victims.choose(&mut rng).expect("a stack holds work")
                    } else {
                        q
                    };
                    let v = if from == q {
                        stacks[q].pop_back()
                    } else {
                        stacks[from].pop_front()
                    };
                    let v = v.expect("the stack holds work");
                    nonempty -= usize::from(stacks[from].is_empty());
                    start[v] = now;
                    proc[v] = q;
                    busy_until[q] = Some((now + dag.work(v), v));
                    progress = true;
                }
                if !progress {
                    break;
                }
            }

            // 2. Advance time to the next completion.
            let next = busy_until
                .iter()
                .filter_map(|b| b.map(|(t, _)| t))
                .min()
                .expect("deadlock: no processor is busy but nodes remain");
            now = next;

            // 3. Finish everything completing at `now`; newly ready successors
            //    go on top of the finishing processor's stack.
            for q in 0..p {
                if let Some((t, v)) = busy_until[q] {
                    if t == now {
                        busy_until[q] = None;
                        finished += 1;
                        for w in dag.successors(v) {
                            remaining_preds[w] -= 1;
                            if remaining_preds[w] == 0 {
                                nonempty += usize::from(stacks[q].is_empty());
                                stacks[q].push_back(w);
                            }
                        }
                    }
                }
            }
        }
        ClassicalSchedule::new(proc, start)
    }
}

impl Scheduler for CilkScheduler {
    fn name(&self) -> &'static str {
        "Cilk"
    }

    fn schedule(&self, dag: &Dag, machine: &Machine) -> BspSchedule {
        self.classical_schedule(dag, machine).to_bsp(dag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layered_dag() -> Dag {
        // Two layers of 4 independent nodes each, fully connected between layers.
        let mut edges = Vec::new();
        for u in 0..4 {
            for v in 4..8 {
                edges.push((u, v));
            }
        }
        Dag::from_edges(8, &edges, vec![3; 8], vec![1; 8]).unwrap()
    }

    #[test]
    fn produces_a_valid_schedule() {
        let dag = layered_dag();
        let machine = Machine::uniform(4, 1, 2);
        let sched = CilkScheduler::default().schedule(&dag, &machine);
        assert!(sched.validate(&dag, &machine).is_ok());
    }

    #[test]
    fn classical_schedule_is_consistent_and_work_conserving() {
        let dag = layered_dag();
        let machine = Machine::uniform(4, 1, 2);
        let cs = CilkScheduler::default().classical_schedule(&dag, &machine);
        assert!(cs.is_consistent(&dag));
        // Work stealing keeps all processors busy: 8 nodes of work 3 on 4
        // processors must finish in exactly 6 time units.
        assert_eq!(cs.makespan(&dag), 6);
    }

    #[test]
    fn uses_multiple_processors_when_parallelism_exists() {
        let dag = layered_dag();
        let machine = Machine::uniform(4, 1, 2);
        let cs = CilkScheduler::default().classical_schedule(&dag, &machine);
        let used: std::collections::HashSet<usize> = cs.proc.iter().copied().collect();
        assert!(used.len() > 1, "work stealing never spread the load");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let dag = layered_dag();
        let machine = Machine::uniform(3, 1, 2);
        let a = CilkScheduler::new(5).schedule(&dag, &machine);
        let b = CilkScheduler::new(5).schedule(&dag, &machine);
        assert_eq!(a, b);
    }

    #[test]
    fn single_processor_machine_degenerates_to_sequential() {
        let dag = layered_dag();
        let machine = Machine::uniform(1, 1, 2);
        let sched = CilkScheduler::default().schedule(&dag, &machine);
        assert!(sched.validate(&dag, &machine).is_ok());
        assert_eq!(sched.num_supersteps(), 1);
        assert_eq!(sched.cost(&dag, &machine), 24 + 2);
    }

    #[test]
    fn handles_empty_dag() {
        let dag = Dag::from_edge_list_unit_weights(0, &[]).unwrap();
        let machine = Machine::uniform(2, 1, 1);
        let sched = CilkScheduler::default().schedule(&dag, &machine);
        assert!(sched.validate(&dag, &machine).is_ok());
    }
}
