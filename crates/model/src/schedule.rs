//! BSP schedules: the assignment maps `π` (processor) and `τ` (superstep)
//! together with a communication schedule `Γ`.

use crate::comm::CommSchedule;
use crate::cost::{self, CostBreakdown};
use crate::dag::Dag;
use crate::error::ValidityError;
use crate::machine::Machine;
use crate::validity;
use serde::{Deserialize, Serialize};

/// The node-to-processor map `π` and node-to-superstep map `τ`.
///
/// `τ` holds `u32`: a DAG has at most `u32::MAX` nodes ([`Dag::from_edges`]
/// refuses more) and a schedule needs no more supersteps than nodes.  `π`
/// holds `u16`: a [`Machine`] has at most `u16::MAX` processors (its
/// constructors refuse more).  Six bytes a node.  Index arrays through
/// [`BspSchedule::proc`] / [`BspSchedule::superstep`], which widen to `usize`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Assignment {
    /// `proc[v] = π(v)`.
    pub proc: Vec<u16>,
    /// `superstep[v] = τ(v)`.
    pub superstep: Vec<u32>,
}

impl Assignment {
    /// An assignment that places every node on processor 0 in superstep 0.
    pub fn trivial(n: usize) -> Self {
        Assignment {
            proc: vec![0; n],
            superstep: vec![0; n],
        }
    }

    /// Number of nodes covered by this assignment.
    pub fn n(&self) -> usize {
        self.proc.len()
    }

    /// Number of supersteps used, i.e. `1 + max τ(v)` (0 for an empty DAG).
    pub fn num_supersteps(&self) -> usize {
        self.superstep
            .iter()
            .copied()
            .max()
            .map_or(0, |s| s as usize + 1)
    }
}

/// A complete BSP schedule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BspSchedule {
    pub assignment: Assignment,
    pub comm: CommSchedule,
}

impl BspSchedule {
    /// Wraps an assignment with its lazy communication schedule.
    pub fn from_assignment_lazy(dag: &Dag, assignment: Assignment) -> Self {
        let comm = CommSchedule::lazy(dag, &assignment);
        BspSchedule { assignment, comm }
    }

    /// The trivial schedule: every node on processor 0 in superstep 0 and no
    /// communication.  Always valid; its cost is `Σ w(v) + ℓ`.
    pub fn trivial(dag: &Dag) -> Self {
        BspSchedule {
            assignment: Assignment::trivial(dag.n()),
            comm: CommSchedule::empty(),
        }
    }

    /// Processor of node `v`.
    #[inline]
    pub fn proc(&self, v: usize) -> usize {
        self.assignment.proc[v] as usize
    }

    /// Superstep of node `v`.
    #[inline]
    pub fn superstep(&self, v: usize) -> usize {
        self.assignment.superstep[v] as usize
    }

    /// Number of supersteps spanned by the schedule (computation or communication).
    pub fn num_supersteps(&self) -> usize {
        let comp = self.assignment.num_supersteps();
        let comm = self.comm.max_step().map_or(0, |s| s + 2);
        comp.max(comm)
    }

    /// Checks all BSP validity conditions (§3.2 of the paper).
    pub fn validate(&self, dag: &Dag, machine: &Machine) -> Result<(), ValidityError> {
        validity::validate(dag, machine, self)
    }

    /// Total cost of the schedule under the BSP + NUMA cost model (§3.3–3.4).
    pub fn cost(&self, dag: &Dag, machine: &Machine) -> u64 {
        cost::total_cost(dag, machine, self)
    }

    /// Cost broken down into work, communication and latency, per superstep.
    pub fn cost_breakdown(&self, dag: &Dag, machine: &Machine) -> CostBreakdown {
        cost::cost_breakdown(dag, machine, self)
    }

    /// Removes empty supersteps (those without any computation) and renumbers
    /// the remaining ones contiguously.  Communication steps are shifted to
    /// the latest surviving superstep not after their original one, which keeps
    /// the schedule valid.  Returns the number of supersteps removed.
    pub fn normalize(&mut self, dag: &Dag) -> usize {
        let n = dag.n();
        let total = self.num_supersteps();
        if total == 0 {
            return 0;
        }
        let mut used = vec![false; total];
        for v in 0..n {
            used[self.superstep(v)] = true;
        }
        // Build old -> new index map.  Empty supersteps collapse onto the next
        // *lower* used index for communication purposes.
        let mut map = vec![0u32; total];
        let mut next = 0u32;
        for (s, item) in map.iter_mut().enumerate() {
            if used[s] {
                *item = next;
                next += 1;
            } else {
                // For an unused superstep, communications scheduled here are
                // moved to the previous used superstep (or 0).
                *item = next.saturating_sub(1);
            }
        }
        let removed = total - next as usize;
        if removed == 0 {
            return 0;
        }
        for v in 0..n {
            self.assignment.superstep[v] = map[self.superstep(v)];
        }
        self.comm.remap_steps(&map);
        removed
    }

    /// Rebuilds the communication schedule as the lazy schedule of the current
    /// assignment (dropping any bespoke communication scheduling).
    pub fn relax_to_lazy(&mut self, dag: &Dag) {
        self.comm = CommSchedule::lazy(dag, &self.assignment);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommStep;

    fn chain() -> Dag {
        Dag::from_edges(3, &[(0, 1), (1, 2)], vec![2, 3, 4], vec![1, 1, 1]).unwrap()
    }

    #[test]
    fn trivial_schedule_is_valid_and_costs_total_work_plus_latency() {
        let dag = chain();
        let machine = Machine::uniform(4, 2, 5);
        let s = BspSchedule::trivial(&dag);
        assert!(s.validate(&dag, &machine).is_ok());
        assert_eq!(s.cost(&dag, &machine), 2 + 3 + 4 + 5);
    }

    #[test]
    fn normalize_removes_empty_supersteps() {
        let dag = chain();
        let machine = Machine::uniform(2, 1, 5);
        // Use supersteps 0, 3, 5 — 1, 2 and 4 are empty.
        let assignment = Assignment {
            proc: vec![0, 1, 1],
            superstep: vec![0, 3, 5],
        };
        let mut sched = BspSchedule::from_assignment_lazy(&dag, assignment);
        assert!(sched.validate(&dag, &machine).is_ok());
        let before = sched.cost(&dag, &machine);
        let removed = sched.normalize(&dag);
        assert_eq!(removed, 3);
        assert_eq!(sched.assignment.superstep, vec![0, 1, 2]);
        assert!(sched.validate(&dag, &machine).is_ok());
        assert!(sched.cost(&dag, &machine) < before);
    }

    #[test]
    fn num_supersteps_accounts_for_trailing_communication() {
        let _dag = chain();
        let assignment = Assignment {
            proc: vec![0, 0, 0],
            superstep: vec![0, 0, 0],
        };
        let comm = CommSchedule::from_steps(vec![CommStep {
            node: 2,
            from: 0,
            to: 1,
            step: 0,
        }]);
        let sched = BspSchedule { assignment, comm };
        // Computation uses 1 superstep but communication in step 0 implies the
        // superstep structure extends past it.
        assert_eq!(sched.num_supersteps(), 2);
    }
}
