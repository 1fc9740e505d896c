//! Communication schedules `Γ`.
//!
//! A communication schedule is a set of 4-tuples `(v, p1, p2, s)` meaning
//! *"the output of node `v` is sent from processor `p1` to processor `p2` in
//! the communication phase of superstep `s`"*.  Most of the simpler algorithms
//! in the paper only produce an assignment (`π`, `τ`) and rely on the *lazy*
//! communication schedule: every required value is sent directly from the
//! processor that computed it, in the last possible communication phase
//! (immediately before it is first needed).

use crate::dag::{Dag, NodeId};
use crate::schedule::Assignment;
use serde::{Deserialize, Serialize};

/// One entry `(v, p1, p2, s)` of a communication schedule, in 32-bit fields
/// like the [`Assignment`] it is derived from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CommStep {
    /// The node whose output value is transferred.
    pub node: u32,
    /// Sending processor `p1`.
    pub from: u32,
    /// Receiving processor `p2`.
    pub to: u32,
    /// Superstep in whose communication phase the transfer happens.
    pub step: u32,
}

// Four `u32`s and no padding: a cached `Γ` costs 16 bytes a transfer.
const _: () = assert!(std::mem::size_of::<CommStep>() == 16);

/// A communication requirement implied by an assignment: the value of `node`
/// (computed on `π(node)` in superstep `computed`) must be available on
/// processor `target` strictly before superstep `needed_by`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommRequirement {
    pub node: NodeId,
    pub source: usize,
    pub target: usize,
    /// Superstep in which `node` is computed, `τ(node)` — the earliest
    /// communication phase that can carry the value.
    pub computed: usize,
    /// First superstep in which some successor of `node` on `target` is
    /// computed; the value must arrive in a communication phase `< needed_by`,
    /// i.e. at the latest in superstep `needed_by - 1`.
    pub needed_by: usize,
}

impl CommRequirement {
    /// Latest communication phase that still satisfies this requirement.
    pub fn latest_step(&self) -> usize {
        self.needed_by - 1
    }

    /// Earliest communication phase that can carry the value.
    pub fn earliest_step(&self) -> usize {
        self.computed
    }

    /// The transfer that meets this requirement directly from `source` in
    /// the communication phase of superstep `step`.
    pub fn send_at(&self, step: usize) -> CommStep {
        CommStep {
            node: self.node as u32,
            from: self.source as u32,
            to: self.target as u32,
            step: step as u32,
        }
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

    /// The communication requirements implied by an assignment under direct
    /// (source-to-target) sending: one entry per `(node, target processor)`
    /// pair such that some direct successor of `node` lives on a different
    /// processor than `node`, sorted by `(node, target)`.
    pub fn requirements(dag: &Dag, assignment: &Assignment) -> Vec<CommRequirement> {
        let mut requirements = Vec::new();
        Self::each_requirement(dag, assignment, |r| requirements.push(r));
        requirements
    }

    /// Hands `requirements`' entries to `f`, in the same order.
    fn each_requirement(dag: &Dag, assignment: &Assignment, mut f: impl FnMut(CommRequirement)) {
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
                f(CommRequirement {
                    node: u,
                    source,
                    target,
                    computed: assignment.superstep[u] as usize,
                    needed_by: needed[target],
                });
            }
        }
    }

    /// The *lazy* communication schedule for an assignment: every required
    /// value is sent directly from the processor that computed it, in the last
    /// possible communication phase (superstep `needed_by - 1`).  The
    /// requirements come in `(node, target)` order, one per pair, and the
    /// sender is the node's own processor, so the steps are already in
    /// `(node, from, to, step)` order without duplicates.
    pub fn lazy(dag: &Dag, assignment: &Assignment) -> Self {
        let mut steps = Vec::new();
        Self::each_requirement(dag, assignment, |r| steps.push(r.send_at(r.latest_step())));
        // Cached answers keep `Γ`: hold no growth slack.
        steps.shrink_to_fit();
        CommSchedule { steps }
    }

    /// An *eager* communication schedule: every required value is sent in the
    /// communication phase of the superstep in which it is computed.  Used in
    /// tests and as an alternative starting point for `HCcs`.
    pub fn eager(dag: &Dag, assignment: &Assignment) -> Self {
        let steps = Self::requirements(dag, assignment)
            .iter()
            .map(|r| r.send_at(r.earliest_step()))
            .collect();
        CommSchedule::from_steps(steps)
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
    fn requirements_capture_earliest_and_latest_step() {
        let dag = chain();
        let assignment = Assignment {
            proc: vec![0, 1, 0],
            superstep: vec![0, 2, 5],
        };
        let reqs = CommSchedule::requirements(&dag, &assignment);
        assert_eq!(reqs.len(), 2);
        let r0 = reqs.iter().find(|r| r.node == 0).unwrap();
        assert_eq!(r0.earliest_step(), 0);
        assert_eq!(r0.latest_step(), 1);
        let r1 = reqs.iter().find(|r| r.node == 1).unwrap();
        assert_eq!(r1.earliest_step(), 2);
        assert_eq!(r1.latest_step(), 4);
    }
}
