//! The `BSPg` greedy initialization heuristic (§4.2, Algorithm 1).
//!
//! `BSPg` simulates concrete start/finish times inside each superstep (like a
//! classical list scheduler) but assigns nodes directly to supersteps.  A node
//! may be given to a processor only if this does not force the current
//! computation phase to end, i.e. all of its predecessors are already present
//! on that processor (computed there, or computed in an earlier superstep).
//! When at least half of the processors are idle and nothing further can be
//! assigned without communication, the superstep is closed.
//!
//! Tie-breaking among assignable nodes uses the communication-saving score of
//! the paper: for each predecessor `u` of a candidate `v` with `u` (or one of
//! `u`'s direct successors) already on the target processor, the score grows
//! by `c(u) / outdeg(u)`.

use crate::Scheduler;
use bsp_model::{Assignment, BspSchedule, Dag, Machine};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// The `BSPg` greedy initializer.
#[derive(Debug, Clone, Copy, Default)]
pub struct BspgScheduler;

/// Max-heap entry of a ready pool: highest score first, ties to the smaller
/// node id.  Scores are finite and non-negative, so their bit patterns order
/// exactly like the values.
type Entry = (u64, Reverse<usize>);

/// `pool` marker of a node that is in no ready pool.
const NO_POOL: usize = usize::MAX;

/// The assignment so far plus the ready pools of the current superstep.
///
/// A pool is a lazy-deletion max-heap: a node's score on a processor only
/// ever grows (terms join the sum, none leave), and every growth pushes a
/// fresh entry, so the topmost entry of a node that is still in the pool
/// carries its current score; entries of nodes that left are skipped.
struct Pools<'a> {
    dag: &'a Dag,
    p: usize,
    /// `π` and `τ` so far, `u16::MAX` / `u32::MAX` while unassigned (no
    /// machine has `u16::MAX + 1` processors).
    proc: Vec<u16>,
    superstep_of: Vec<u32>,
    /// Bit `u * p + q`: a direct successor of `u` is assigned to `q`.  One
    /// bit a pair, so the `n · P` flags take `n · P / 8` bytes.
    succ_on: Vec<u64>,
    /// Pool of each node: `q < p` for `ready_proc[q]` (at most one, the
    /// processor it became ready on), `p` for `ready_all`, else [`NO_POOL`].
    pool: Vec<usize>,
    /// Nodes assignable to a specific processor within the current superstep.
    ready_proc: Vec<BinaryHeap<Entry>>,
    /// Nodes assignable to every processor within the current superstep:
    /// each once in `ready_any`, which stands for its score 0, and in
    /// `ready_all[q]` once its score on `q` is positive.  A node scores 0
    /// on every processor that holds none of its predecessors and none of
    /// their successors — a source on all of them — so the pools hold no
    /// `n · P` entries.
    ready_all: Vec<BinaryHeap<Entry>>,
    ready_any: BinaryHeap<Reverse<usize>>,
    /// Live size of each `ready_proc[q]`, and of `ready_all` at index `p`.
    len: Vec<usize>,
}

impl Pools<'_> {
    /// The word of `succ_on` holding the flag of `(u, q)`, and its mask.
    fn succ_on_bit(&self, u: usize, q: usize) -> (usize, u64) {
        let bit = u * self.p + q;
        (bit / 64, 1 << (bit % 64))
    }

    /// `true` if a direct successor of `u` is assigned to `q`.
    fn succ_on(&self, u: usize, q: usize) -> bool {
        let (word, mask) = self.succ_on_bit(u, q);
        self.succ_on[word] & mask != 0
    }

    /// Score of assigning `v` to processor `q` (higher is better).
    fn entry(&self, v: usize, q: usize) -> Entry {
        let dag = self.dag;
        let mut s = 0.0;
        for u in dag.predecessors(v) {
            if self.proc[u] as usize == q || self.succ_on(u, q) {
                s += dag.comm(u) as f64 / dag.out_degree(u).max(1) as f64;
            }
        }
        (s.to_bits(), Reverse(v))
    }

    /// Pushes the current score of the pooled node `w` on processor `q`
    /// (for `ready_all`, only a positive one: `ready_any` holds the 0).
    fn push(&mut self, w: usize, q: usize) {
        let entry = self.entry(w, q);
        if self.pool[w] != self.p {
            self.ready_proc[q].push(entry);
        } else if entry.0 != 0 {
            self.ready_all[q].push(entry);
        }
    }

    /// Puts the ready node `v` into `ready_proc[q]` (`q < p`) or `ready_all`.
    fn insert(&mut self, v: usize, pool: usize) {
        self.pool[v] = pool;
        self.len[pool] += 1;
        if pool < self.p {
            self.push(v, pool);
        } else {
            self.ready_any.push(Reverse(v));
            (0..self.p).for_each(|q| self.push(v, q));
        }
    }

    /// The best node for the free processor `q`: from `ready_proc[q]` if it
    /// has any, else from `ready_all` — the better of `ready_all[q]`'s top
    /// and the smallest id in `ready_any` at score 0.
    fn pick(&mut self, q: usize) -> usize {
        if self.len[q] > 0 {
            let top = live_top(&mut self.ready_proc[q], |e| e.1 .0, &self.pool, q);
            return top.expect("pool is non-empty").1 .0;
        }
        let any = live_top(&mut self.ready_any, |e| e.0, &self.pool, self.p);
        let Reverse(any) = any.expect("pool is non-empty");
        match live_top(&mut self.ready_all[q], |e| e.1 .0, &self.pool, self.p) {
            Some((score, Reverse(v))) if (score, Reverse(v)) > (0, Reverse(any)) => v,
            _ => any,
        }
    }

    /// Assigns `v` to `(q, superstep)` and re-scores the pooled nodes whose
    /// score on `q` this changes: the ready successors of every predecessor
    /// `u` of `v` that had no successor on `q` before.
    fn assign(&mut self, v: usize, q: usize, superstep: usize) {
        let dag = self.dag;
        self.len[self.pool[v]] -= 1;
        self.pool[v] = NO_POOL;
        self.proc[v] = q as u16;
        self.superstep_of[v] = superstep as u32;
        for u in dag.predecessors(v) {
            let (word, mask) = self.succ_on_bit(u, q);
            let had = self.succ_on[word] & mask != 0;
            self.succ_on[word] |= mask;
            if had || self.proc[u] as usize == q {
                continue;
            }
            for w in dag.successors(u) {
                if self.pool[w] == q || self.pool[w] == self.p {
                    self.push(w, q);
                }
            }
        }
    }

    /// Empties the pools and moves the still unassigned nodes of `ready`
    /// into the new `ready_all`.
    fn start_superstep(&mut self, ready: &mut Vec<usize>) {
        self.ready_proc.iter_mut().for_each(BinaryHeap::clear);
        self.ready_all.iter_mut().for_each(BinaryHeap::clear);
        self.ready_any.clear();
        self.len.fill(0);
        for v in ready.drain(..) {
            if self.proc[v] == u16::MAX {
                self.insert(v, self.p);
            }
        }
    }
}

/// The topmost entry of `heap` whose node (`node_of`) is still in `pool`,
/// after dropping the entries above it of nodes that left.
fn live_top<T: Ord + Copy>(
    heap: &mut BinaryHeap<T>,
    node_of: impl Fn(T) -> usize,
    pools: &[usize],
    pool: usize,
) -> Option<T> {
    while let Some(&entry) = heap.peek() {
        if pools[node_of(entry)] == pool {
            return Some(entry);
        }
        heap.pop();
    }
    None
}

impl BspgScheduler {
    /// Computes the `(π, τ)` assignment (the communication schedule is the
    /// lazy one, added by [`Scheduler::schedule`]).
    pub fn assignment(&self, dag: &Dag, machine: &Machine) -> Assignment {
        let n = dag.n();
        let p = machine.p();
        let mut pools = Pools {
            dag,
            p,
            proc: vec![u16::MAX; n],
            superstep_of: vec![u32::MAX; n],
            succ_on: vec![0; (n * p).div_ceil(64)],
            pool: vec![NO_POOL; n],
            ready_proc: vec![BinaryHeap::new(); p],
            ready_all: vec![BinaryHeap::new(); p],
            ready_any: BinaryHeap::new(),
            len: vec![0; p + 1],
        };
        let mut unfinished_preds: Vec<usize> = (0..n).map(|v| dag.in_degree(v)).collect();
        // Nodes that became ready since the current superstep started.  Every
        // member of `ready_all` is assigned before the superstep can end, so
        // the unassigned ones among these are all the ready nodes at its end.
        let mut ready: Vec<usize> = dag.sources();
        pools.start_superstep(&mut ready);

        let mut superstep = 0usize;
        let mut end_step = false;
        let mut free = vec![true; p];
        // finish events of the current superstep: time -> nodes finishing then.
        let mut finish_events: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        finish_events.insert(0, Vec::new());
        let mut assigned = 0usize;

        while assigned < n {
            if end_step && finish_events.is_empty() {
                // Start the next superstep.
                pools.start_superstep(&mut ready);
                superstep += 1;
                end_step = false;
                finish_events.insert(0, Vec::new());
                free.iter_mut().for_each(|f| *f = true);
            }

            // Pop the earliest finish time of the current superstep.
            let (t, finishing) = finish_events
                .pop_first()
                .expect("finish event queue cannot be empty here");

            for &v in &finishing {
                let q = pools.proc[v] as usize;
                free[q] = true;
                for u in dag.successors(v) {
                    unfinished_preds[u] -= 1;
                    if unfinished_preds[u] == 0 {
                        ready.push(u);
                        let assignable_here = dag.predecessors(u).all(|u0| {
                            pools.proc[u0] as usize == q
                                || (pools.superstep_of[u0] as usize) < superstep
                        });
                        if assignable_here {
                            pools.insert(u, q);
                        }
                    }
                }
            }

            if !end_step {
                // A free processor that can still receive a node.
                while let Some(q) =
                    (0..p).find(|&q| free[q] && (pools.len[q] > 0 || pools.len[p] > 0))
                {
                    let v = pools.pick(q);
                    pools.assign(v, q, superstep);
                    assigned += 1;
                    finish_events.entry(t + dag.work(v)).or_default().push(v);
                    free[q] = false;
                }
            }

            // Close the computation phase when at least half the processors are
            // idle and no node is assignable to every processor.
            let idle = (0..p).filter(|&q| free[q]).count();
            if pools.len[p] == 0 && 2 * idle >= p {
                end_step = true;
            }
        }

        Assignment {
            proc: pools.proc,
            superstep: pools.superstep_of,
        }
    }
}

impl Scheduler for BspgScheduler {
    fn name(&self) -> &'static str {
        "BSPg"
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

    fn layered(levels: usize, width: usize) -> Dag {
        let mut edges = Vec::new();
        for l in 0..levels - 1 {
            for i in 0..width {
                for j in 0..width {
                    if i == j || (i + 1) % width == j {
                        edges.push((l * width + i, (l + 1) * width + j));
                    }
                }
            }
        }
        let n = levels * width;
        Dag::from_edges(n, &edges, vec![2; n], vec![1; n]).unwrap()
    }

    #[test]
    fn produces_valid_schedules_on_layered_dags() {
        let dag = layered(4, 6);
        for p in [1, 2, 4, 8] {
            let machine = Machine::uniform(p, 2, 5);
            let sched = BspgScheduler.schedule(&dag, &machine);
            assert!(sched.validate(&dag, &machine).is_ok(), "invalid for P={p}");
        }
    }

    #[test]
    fn all_nodes_are_assigned_exactly_once() {
        let dag = layered(3, 5);
        let machine = Machine::uniform(4, 1, 5);
        let a = BspgScheduler.assignment(&dag, &machine);
        assert_eq!(a.proc.len(), dag.n());
        assert!(a.proc.iter().all(|&q| q < 4));
        assert!(a.superstep.iter().all(|&s| s != u32::MAX));
    }

    #[test]
    fn uses_parallelism_on_wide_dags() {
        let dag = layered(2, 12);
        let machine = Machine::uniform(4, 1, 1);
        let sched = BspgScheduler.schedule(&dag, &machine);
        let used: std::collections::HashSet<u16> = sched.assignment.proc.iter().copied().collect();
        assert!(used.len() > 1, "BSPg never used a second processor");
        // It should comfortably beat the trivial sequential schedule here.
        assert!(sched.cost(&dag, &machine) < BspSchedule::trivial(&dag).cost(&dag, &machine));
    }

    #[test]
    fn chain_stays_on_one_processor_without_communication() {
        // On a pure chain the paper's superstep-ending rule (close the phase
        // once half the processors are starved) gives one superstep per node,
        // but the high communication weights must keep every node on the same
        // processor, so no communication is ever scheduled.
        let dag = Dag::from_edges(4, &[(0, 1), (1, 2), (2, 3)], vec![1; 4], vec![10; 4]).unwrap();
        let machine = Machine::uniform(4, 3, 5);
        let sched = BspgScheduler.schedule(&dag, &machine);
        assert!(sched.validate(&dag, &machine).is_ok());
        let procs: std::collections::HashSet<u16> = sched.assignment.proc.iter().copied().collect();
        assert_eq!(procs.len(), 1, "chain was split across processors");
        assert!(sched.comm.is_empty());
        assert!(sched.num_supersteps() <= dag.n());
    }

    #[test]
    fn single_processor_machine_works() {
        let dag = layered(3, 4);
        let machine = Machine::uniform(1, 1, 5);
        let sched = BspgScheduler.schedule(&dag, &machine);
        assert!(sched.validate(&dag, &machine).is_ok());
        assert_eq!(sched.num_supersteps(), 1);
    }
}
