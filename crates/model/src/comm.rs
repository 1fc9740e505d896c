//! Communication schedules `Γ`.
//!
//! A communication schedule is a set of 4-tuples `(v, p1, p2, s)` meaning
//! *"the output of node `v` is sent from processor `p1` to processor `p2` in
//! the communication phase of superstep `s`"*.  Most of the simpler algorithms
//! in the paper only produce an assignment (`π`, `τ`) and rely on the *lazy*
//! communication schedule: every required value is sent directly from the
//! processor that computed it, in the last possible communication phase
//! (immediately before it is first needed).

use crate::dag::Dag;
use crate::machine::Machine;
use crate::schedule::Assignment;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// One entry `(v, p1, p2, s)` of a communication schedule, in the widths of
/// the [`Assignment`] it is derived from: nodes and supersteps in 32 bits,
/// processors in 16.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CommStep {
    /// The node whose output value is transferred.
    pub node: u32,
    /// Sending processor `p1`.
    pub from: u16,
    /// Receiving processor `p2`.
    pub to: u16,
    /// Superstep in whose communication phase the transfer happens.
    pub step: u32,
}

// Two `u32`s and two `u16`s, no padding: a cached `Γ` costs 12 bytes a
// transfer.  The fields stay in `(node, from, to, step)` order, which the
// derived `Ord` (and so every sorted `Γ`) follows.
const _: () = assert!(std::mem::size_of::<CommStep>() == 12);

impl CommStep {
    /// The NUMA-weighted volume `c(v) · λ(p1, p2)` the transfer adds to both
    /// ends' `h`-relation.
    #[inline]
    pub fn volume(&self, dag: &Dag, machine: &Machine) -> u64 {
        dag.comm(self.node as usize) * machine.lambda(self.from as usize, self.to as usize)
    }
}

/// A communication schedule `Γ`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommSchedule {
    steps: Vec<CommStep>,
}

impl CommSchedule {
    /// An empty communication schedule.
    pub fn empty() -> Self {
        CommSchedule { steps: Vec::new() }
    }

    /// Builds a schedule from explicit steps.
    pub fn from_steps(mut steps: Vec<CommStep>) -> Self {
        steps.sort_unstable();
        steps.dedup();
        CommSchedule { steps }
    }

    /// The transfers `assignment` requires under direct sending, each where
    /// a search over `Γ` starts it, with its window beside it.  A transfer
    /// is one `(node, π(node), target)` triple such that some successor of
    /// `node` lives on `target ≠ π(node)`, and the steps come sorted by that
    /// triple.  Its window `[earliest, latest]` runs from `τ(node)` to the
    /// superstep before the first successor on `target`.  The transfer starts
    /// where `given` places it when that phase is inside the window (of
    /// several placements the latest counts), else lazily at `latest`.  Both
    /// vectors hold no growth slack; a `given` of one step per transfer, such
    /// as a lazy `Γ`, sizes them exactly from the start.
    pub fn transfers(
        dag: &Dag,
        assignment: &Assignment,
        given: &CommSchedule,
    ) -> (Vec<CommStep>, Vec<[u32; 2]>) {
        let len = given.len();
        let (mut steps, mut windows) = (Vec::with_capacity(len), Vec::with_capacity(len));
        // `given` is sorted by `(node, from, to, step)` like the transfers,
        // so one cursor over it finds every placement.
        let mut cursor = 0;
        Self::walk(dag, assignment, |mut cs| {
            let window = [assignment.superstep[cs.node as usize], cs.step];
            let key = (cs.node, cs.from, cs.to);
            while let Some(placed) = given.steps.get(cursor) {
                match (placed.node, placed.from, placed.to).cmp(&key) {
                    Ordering::Less => {}
                    Ordering::Equal => cs.step = placed.step,
                    Ordering::Greater => break,
                }
                cursor += 1;
            }
            if cs.step < window[0] || cs.step > window[1] {
                cs.step = window[1];
            }
            steps.push(cs);
            windows.push(window);
        });
        steps.shrink_to_fit();
        windows.shrink_to_fit();
        (steps, windows)
    }

    /// The *lazy* communication schedule for an assignment: every required
    /// value is sent directly from the processor that computed it, in the last
    /// possible communication phase, the `latest` of its
    /// [`transfers`](Self::transfers) window.
    pub fn lazy(dag: &Dag, assignment: &Assignment) -> Self {
        Self::collect(dag, assignment, |cs| cs)
    }

    /// An *eager* communication schedule: every required value is sent in the
    /// communication phase of the superstep in which it is computed.
    pub fn eager(dag: &Dag, assignment: &Assignment) -> Self {
        Self::collect(dag, assignment, |cs| CommStep {
            step: assignment.superstep[cs.node as usize],
            ..cs
        })
    }

    /// The lazy transfers, each placed by `place`.  They come sorted and one
    /// per `(node, from, to)`, so the steps need no sort.
    fn collect(dag: &Dag, assignment: &Assignment, place: impl Fn(CommStep) -> CommStep) -> Self {
        let mut steps = Vec::new();
        Self::walk(dag, assignment, |cs| steps.push(place(cs)));
        // Cached answers keep `Γ`: hold no growth slack.
        steps.shrink_to_fit();
        CommSchedule { steps }
    }

    /// Hands `f` the transfers `assignment` requires, each at its lazy step,
    /// sorted by `(node, from, to)`.
    fn walk(dag: &Dag, assignment: &Assignment, mut f: impl FnMut(CommStep)) {
        // One slot per processor, reused for every node: `seen[q] == u + 1`
        // while the successors of `u` are walked and one of them lives on
        // `q`, and `needed[q]` is then the earliest superstep of those.
        let p = assignment.proc.iter().max().map_or(0, |&q| q as usize + 1);
        let mut seen = vec![0usize; p];
        let mut needed = vec![0usize; p];
        let mut targets: Vec<usize> = Vec::new();
        for u in 0..dag.n() {
            let source = assignment.proc[u] as usize;
            targets.clear();
            for v in dag.successors(u) {
                let q = assignment.proc[v] as usize;
                if q == source {
                    continue;
                }
                let step = assignment.superstep[v] as usize;
                if seen[q] != u + 1 {
                    seen[q] = u + 1;
                    needed[q] = step;
                    targets.push(q);
                } else if step < needed[q] {
                    needed[q] = step;
                }
            }
            // Ascending `(node, target)`, the order every consumer relies on.
            targets.sort_unstable();
            for &target in &targets {
                // A value first needed in superstep 0 elsewhere has no phase
                // to go in; it is sent in phase 0, which validation rejects.
                f(CommStep {
                    node: u as u32,
                    from: source as u16,
                    to: target as u16,
                    step: needed[target].saturating_sub(1) as u32,
                });
            }
        }
    }

    /// All communication steps, sorted by `(node, from, to, step)`.
    pub fn steps(&self) -> &[CommStep] {
        &self.steps
    }

    /// Number of communication steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` if the schedule contains no communication at all.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Largest superstep index appearing in any communication step.
    pub fn max_step(&self) -> Option<usize> {
        self.steps.iter().map(|s| s.step as usize).max()
    }

    /// Total communicated volume `Σ c(v)` over all steps (NUMA-unweighted).
    pub fn total_volume(&self, dag: &Dag) -> u64 {
        self.steps.iter().map(|s| dag.comm(s.node as usize)).sum()
    }

    /// Re-sorts and dedups after in-place modification.
    pub fn renormalize(&mut self) {
        self.steps.sort_unstable();
        self.steps.dedup();
    }

    /// Remaps all superstep indices through `map` (used when empty supersteps
    /// are removed from a schedule).
    pub fn remap_steps(&mut self, map: &[u32]) {
        for s in &mut self.steps {
            s.step = map[s.step as usize];
        }
        self.renormalize();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::Dag;

    fn chain() -> Dag {
        // 0 -> 1 -> 2
        Dag::from_edges(3, &[(0, 1), (1, 2)], vec![1, 1, 1], vec![4, 5, 6]).unwrap()
    }

    #[test]
    fn lazy_schedule_sends_just_in_time() {
        let dag = chain();
        // node 0 on proc 0 step 0; node 1 on proc 1 step 2; node 2 on proc 1 step 3.
        let assignment = Assignment {
            proc: vec![0, 1, 1],
            superstep: vec![0, 2, 3],
        };
        let comm = CommSchedule::lazy(&dag, &assignment);
        assert_eq!(
            comm.steps(),
            &[CommStep {
                node: 0,
                from: 0,
                to: 1,
                step: 1
            }]
        );
        assert_eq!(comm.total_volume(&dag), 4);
    }

    #[test]
    fn eager_schedule_sends_at_computation_step() {
        let dag = chain();
        let assignment = Assignment {
            proc: vec![0, 1, 1],
            superstep: vec![0, 2, 3],
        };
        let comm = CommSchedule::eager(&dag, &assignment);
        assert_eq!(comm.steps()[0].step, 0);
    }

    #[test]
    fn one_send_per_target_processor_even_with_multiple_successors() {
        // 0 -> 1, 0 -> 2 with both successors on processor 1: only one transfer.
        let dag = Dag::from_edges(3, &[(0, 1), (0, 2)], vec![1, 1, 1], vec![9, 1, 1]).unwrap();
        let assignment = Assignment {
            proc: vec![0, 1, 1],
            superstep: vec![0, 1, 2],
        };
        let comm = CommSchedule::lazy(&dag, &assignment);
        assert_eq!(comm.len(), 1);
        // Sent in step 0, because the value is first needed in superstep 1.
        assert_eq!(comm.steps()[0].step, 0);
    }

    #[test]
    fn no_communication_when_on_same_processor() {
        let dag = chain();
        let assignment = Assignment {
            proc: vec![0, 0, 0],
            superstep: vec![0, 0, 1],
        };
        assert!(CommSchedule::lazy(&dag, &assignment).is_empty());
    }

    #[test]
    fn transfers_capture_their_window_and_start_where_given_places_them() {
        let dag = chain();
        let assignment = Assignment {
            proc: vec![0, 1, 0],
            superstep: vec![0, 2, 5],
        };
        let send = |node, from, to, step| CommStep {
            node,
            from,
            to,
            step,
        };
        let lazy = CommSchedule::transfers(&dag, &assignment, &CommSchedule::empty());
        assert_eq!(lazy.0, [send(0, 0, 1, 1), send(1, 1, 0, 4)]);
        assert_eq!(lazy.1, [[0, 1], [2, 4]]);
        // Node 0's latest placement (phase 0) is in its window; node 1's
        // (phase 1) is not, so it starts lazy.
        let given = CommSchedule::from_steps(vec![send(0, 0, 1, 0), send(1, 1, 0, 1)]);
        let placed = CommSchedule::transfers(&dag, &assignment, &given);
        assert_eq!(placed.0, [send(0, 0, 1, 0), send(1, 1, 0, 4)]);
        assert_eq!(placed.1, lazy.1);
        assert_eq!(CommSchedule::lazy(&dag, &assignment).steps(), lazy.0);
    }
}
