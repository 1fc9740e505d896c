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

/// The list schedulers' common state: where and when every placed node runs.
struct Timeline<'a> {
    dag: &'a Dag,
    /// `c(u)·g·max(avg λ, 1)`, rounded: what a value costs to reach another
    /// processor.  Baselines fold NUMA into an average coefficient (Appendix
    /// A.1); in the uniform case avg_lambda < 1 because of the zero diagonal,
    /// so it is clamped to 1.
    delay: Vec<u64>,
    remaining_preds: Vec<usize>,
    proc_free: Vec<u64>,
    /// `usize::MAX` until the node is placed.
    proc: Vec<usize>,
    start: Vec<u64>,
    finish: Vec<u64>,
}

impl<'a> Timeline<'a> {
    fn new(dag: &'a Dag, machine: &Machine) -> Self {
        let n = dag.n();
        let factor = machine.avg_lambda().max(1.0);
        let delay = (dag.comm_weights().iter())
            .map(|&c| (c as f64 * machine.g() as f64 * factor).round() as u64)
            .collect();
        Timeline {
            dag,
            delay,
            remaining_preds: (0..n).map(|v| dag.in_degree(v)).collect(),
            proc_free: vec![0; machine.p()],
            proc: vec![usize::MAX; n],
            start: vec![0; n],
            finish: vec![0; n],
        }
    }

    fn is_placed(&self, v: usize) -> bool {
        self.proc[v] != usize::MAX
    }

    /// When every input of `v`, all of whose predecessors are placed, is
    /// on processor `q`.
    fn data_ready(&self, v: usize, q: usize) -> u64 {
        (self.dag.predecessors(v))
            .map(|u| {
                if self.proc[u] == q {
                    self.finish[u]
                } else {
                    self.finish[u] + self.delay[u]
                }
            })
            .max()
            .unwrap_or(0)
    }

    /// Earliest start time of `v` on processor `q`.
    fn est(&self, v: usize, q: usize) -> u64 {
        self.proc_free[q].max(self.data_ready(v, q))
    }

    /// Runs `v` on `q` from `t`, and hands every successor this makes ready
    /// to `ready`.
    fn place(&mut self, v: usize, q: usize, t: u64, mut ready: impl FnMut(usize)) {
        self.proc[v] = q;
        self.start[v] = t;
        self.finish[v] = t + self.dag.work(v);
        self.proc_free[q] = self.finish[v];
        for w in self.dag.successors(v) {
            self.remaining_preds[w] -= 1;
            if self.remaining_preds[w] == 0 {
                ready(w);
            }
        }
    }

    fn into_schedule(self) -> ClassicalSchedule {
        ClassicalSchedule::new(self.proc, self.start)
    }
}

/// `BL-EST`: the ready node of highest bottom level (ties: smaller id) goes
/// to the processor of earliest start time (ties: smaller index).
fn bl_est(dag: &Dag, machine: &Machine) -> ClassicalSchedule {
    let bottom_level = dag.bottom_level();
    let mut timeline = Timeline::new(dag, machine);
    let mut ready: BinaryHeap<(u64, Reverse<usize>)> = (dag.sources().into_iter())
        .map(|v| (bottom_level[v], Reverse(v)))
        .collect();
    while let Some((_, Reverse(v))) = ready.pop() {
        let (q, t) = (0..machine.p())
            .map(|q| (q, timeline.est(v, q)))
            .min_by_key(|&(q, t)| (t, q))
            .expect("at least one processor");
        timeline.place(v, q, t, |w| ready.push((bottom_level[w], Reverse(w))));
    }
    timeline.into_schedule()
}

/// `ETF`: of every (ready node, processor) pair, the one of earliest start
/// time, ties to the higher bottom level, then the smaller node, then the
/// smaller processor.
///
/// Event-driven rather than by re-evaluating every pair per pick.  Once `v`
/// is ready its data-ready time `dr(v, q)` is fixed, and `free[q]` only
/// grows, so per processor the ready nodes split into *released* ones
/// (`dr ≤ free[q]`, start time `free[q]`, best by bottom level and id) and
/// *pending* ones (start time `dr > free[q]`, best by `dr` first), which are
/// released as `free[q]` passes them.  A released node beats every pending
/// one, so each processor's best pair is the top of one heap, and the pick
/// is the least of `P` tops.  Placed nodes leave the heaps lazily.  That is
/// `O(n·P·log n + m·P)` for the `O(n²·P)` pair scan, with the same pick.
fn etf(dag: &Dag, machine: &Machine) -> ClassicalSchedule {
    let p = machine.p();
    let bottom_level = dag.bottom_level();
    let mut timeline = Timeline::new(dag, machine);
    let mut released: Vec<BinaryHeap<(u64, Reverse<usize>)>> = vec![BinaryHeap::new(); p];
    let mut pending: Vec<BinaryHeap<Reverse<(u64, Reverse<u64>, usize)>>> =
        vec![BinaryHeap::new(); p];
    let mut newly_ready = dag.sources();
    for _ in 0..dag.n() {
        for v in newly_ready.drain(..) {
            let bl = bottom_level[v];
            for q in 0..p {
                match timeline.data_ready(v, q) {
                    dr if dr <= timeline.proc_free[q] => released[q].push((bl, Reverse(v))),
                    dr => pending[q].push(Reverse((dr, Reverse(bl), v))),
                }
            }
        }
        let mut best: Option<(u64, Reverse<u64>, usize, usize)> = None;
        for q in 0..p {
            while released[q]
                .peek()
                .is_some_and(|&(_, Reverse(v))| timeline.is_placed(v))
            {
                released[q].pop();
            }
            let key = if let Some(&(bl, Reverse(v))) = released[q].peek() {
                (timeline.proc_free[q], Reverse(bl), v, q)
            } else {
                while pending[q]
                    .peek()
                    .is_some_and(|&Reverse((_, _, v))| timeline.is_placed(v))
                {
                    pending[q].pop();
                }
                let Some(&Reverse((dr, bl, v))) = pending[q].peek() else {
                    continue;
                };
                (dr, bl, v, q)
            };
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        let (t, _, v, q) = best.expect("ready list is non-empty");
        timeline.place(v, q, t, |w| newly_ready.push(w));
        // `q` is busy for longer now: release what it waited on meanwhile.
        while let Some(&Reverse((dr, Reverse(bl), w))) = pending[q].peek() {
            if dr > timeline.proc_free[q] {
                break;
            }
            pending[q].pop();
            if !timeline.is_placed(w) {
                released[q].push((bl, Reverse(w)));
            }
        }
    }
    timeline.into_schedule()
}

/// The `BL-EST` list scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlEstScheduler;

impl BlEstScheduler {
    /// The classical (time-based) schedule before BSP conversion.
    pub fn classical_schedule(&self, dag: &Dag, machine: &Machine) -> ClassicalSchedule {
        bl_est(dag, machine)
    }
}

impl Scheduler for BlEstScheduler {
    fn name(&self) -> &'static str {
        "BL-EST"
    }

    fn schedule(&self, dag: &Dag, machine: &Machine) -> BspSchedule {
        self.classical_schedule(dag, machine).to_bsp(dag)
    }
}

/// The `ETF` (earliest task first) list scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct EtfScheduler;

impl EtfScheduler {
    /// The classical (time-based) schedule before BSP conversion.
    pub fn classical_schedule(&self, dag: &Dag, machine: &Machine) -> ClassicalSchedule {
        etf(dag, machine)
    }
}

impl Scheduler for EtfScheduler {
    fn name(&self) -> &'static str {
        "ETF"
    }

    fn schedule(&self, dag: &Dag, machine: &Machine) -> BspSchedule {
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
