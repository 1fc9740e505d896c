//! The BSP + NUMA cost function (§3.3–3.4 of the paper).
//!
//! For a superstep `s`:
//!
//! * work cost `C_work(s) = max_p Σ_{π(v)=p, τ(v)=s} w(v)`,
//! * send cost of processor `p`: `Σ_{(v,p,p2,s) ∈ Γ} c(v) · λ_{p,p2}`,
//! * receive cost of processor `p`: `Σ_{(v,p1,p,s) ∈ Γ} c(v) · λ_{p1,p}`,
//! * communication cost `C_comm(s) = max_p max(send, receive)` (the
//!   `h`-relation metric),
//! * total `C(s) = C_work(s) + g · C_comm(s) + ℓ`.
//!
//! The total cost of a schedule is the sum over all supersteps it spans.

use crate::dag::Dag;
use crate::machine::Machine;
use crate::schedule::BspSchedule;
use serde::{Deserialize, Serialize};

/// Cost of a single superstep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SuperstepCost {
    /// `C_work(s)`.
    pub work: u64,
    /// `C_comm(s)` — the maximum `h`-relation, already NUMA-weighted but not
    /// yet multiplied by `g`.
    pub comm: u64,
    /// The latency `ℓ` charged for this superstep.
    pub latency: u64,
}

impl SuperstepCost {
    /// `C(s) = C_work(s) + g · C_comm(s) + ℓ`.
    pub fn total(&self, g: u64) -> u64 {
        self.work + g * self.comm + self.latency
    }
}

/// Full cost decomposition of a BSP schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostBreakdown {
    /// Per-superstep costs, index = superstep.
    pub supersteps: Vec<SuperstepCost>,
    /// `Σ_s C_work(s)`.
    pub total_work: u64,
    /// `g · Σ_s C_comm(s)`.
    pub total_comm: u64,
    /// `ℓ ·` number of supersteps.
    pub total_latency: u64,
}

impl CostBreakdown {
    /// Total schedule cost.
    pub fn total(&self) -> u64 {
        self.total_work + self.total_comm + self.total_latency
    }

    /// Number of supersteps the schedule spans.
    pub fn num_supersteps(&self) -> usize {
        self.supersteps.len()
    }

    /// Fraction of the total cost attributable to communication plus latency.
    pub fn comm_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            return 0.0;
        }
        (self.total_comm + self.total_latency) as f64 / t as f64
    }
}

/// Computes the per-superstep work costs `C_work(s)` of a schedule.
pub fn work_costs(dag: &Dag, machine: &Machine, sched: &BspSchedule) -> Vec<u64> {
    let p = machine.p();
    // One row of `p` cells per superstep.
    let mut per_proc = vec![0u64; sched.num_supersteps() * p];
    for v in 0..dag.n() {
        per_proc[sched.superstep(v) * p + sched.proc(v)] += dag.work(v);
    }
    per_proc
        .chunks(p)
        .map(|row| row.iter().copied().max().unwrap_or(0))
        .collect()
}

/// Computes the per-superstep communication costs `C_comm(s)` (NUMA-weighted
/// `h`-relations, not yet multiplied by `g`).
pub fn comm_costs(dag: &Dag, machine: &Machine, sched: &BspSchedule) -> Vec<u64> {
    let p = machine.p();
    // Sends in the even cells, receives in the odd ones: one row of `2p`
    // cells per superstep, whose maximum is the `h`-relation.
    let mut traffic = vec![0u64; sched.num_supersteps() * 2 * p];
    for cs in sched.comm.steps() {
        let (from, to, row) = (cs.from as usize, cs.to as usize, cs.step as usize * p);
        let weighted = dag.comm(cs.node as usize) * machine.lambda(from, to);
        traffic[2 * (row + from)] += weighted;
        traffic[2 * (row + to) + 1] += weighted;
    }
    traffic
        .chunks(2 * p)
        .map(|row| row.iter().copied().max().unwrap_or(0))
        .collect()
}

/// Full cost breakdown of a schedule.
pub fn cost_breakdown(dag: &Dag, machine: &Machine, sched: &BspSchedule) -> CostBreakdown {
    let work = work_costs(dag, machine, sched);
    let comm = comm_costs(dag, machine, sched);
    let steps = work.len().max(comm.len());
    let mut breakdown = CostBreakdown::default();
    for s in 0..steps {
        let w = work.get(s).copied().unwrap_or(0);
        let c = comm.get(s).copied().unwrap_or(0);
        let sc = SuperstepCost {
            work: w,
            comm: c,
            latency: machine.latency(),
        };
        breakdown.total_work += w;
        breakdown.total_comm += machine.g() * c;
        breakdown.total_latency += machine.latency();
        breakdown.supersteps.push(sc);
    }
    breakdown
}

/// Total cost of a schedule: `Σ_s (C_work(s) + g · C_comm(s) + ℓ)`.
pub fn total_cost(dag: &Dag, machine: &Machine, sched: &BspSchedule) -> u64 {
    let work: u64 = work_costs(dag, machine, sched).iter().sum();
    let comm: u64 = comm_costs(dag, machine, sched).iter().sum();
    work + machine.g() * comm + machine.latency() * sched.num_supersteps() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{CommSchedule, CommStep};
    use crate::schedule::Assignment;

    /// Builds the Figure-1-style example: two processors, two supersteps.
    fn two_proc_example() -> (Dag, Machine, BspSchedule) {
        // Nodes 0..3 on proc 0 in superstep 0 (work 1 each); nodes 4..8 on
        // proc 1 in superstep 0; nodes 9 and 10 in superstep 1, one per proc.
        // Node 2's value is needed by node 10 (proc 1), nodes 5, 6 needed by 9
        // (proc 0).
        let edges = vec![(2, 10), (5, 9), (6, 9)];
        let n = 11;
        let dag = Dag::from_edges(n, &edges, vec![1; n], vec![1; n]).unwrap();
        let machine = Machine::uniform(2, 2, 3);
        let mut proc = vec![0; n];
        let mut superstep = vec![0; n];
        for v in 4..9 {
            proc[v] = 1;
        }
        proc[9] = 0;
        superstep[9] = 1;
        proc[10] = 1;
        superstep[10] = 1;
        let assignment = Assignment { proc, superstep };
        let sched = BspSchedule::from_assignment_lazy(&dag, assignment);
        (dag, machine, sched)
    }

    #[test]
    fn work_cost_is_max_over_processors() {
        let (dag, machine, sched) = two_proc_example();
        let w = work_costs(&dag, &machine, &sched);
        // Superstep 0: proc 0 has 4 nodes, proc 1 has 5 nodes -> max 5.
        // Superstep 1: one node each -> 1.
        assert_eq!(w, vec![5, 1]);
    }

    #[test]
    fn comm_cost_is_h_relation() {
        let (dag, machine, sched) = two_proc_example();
        let c = comm_costs(&dag, &machine, &sched);
        // Superstep 0: proc 0 sends 1 (node 2), receives 2 (nodes 5, 6);
        // proc 1 sends 2, receives 1 -> h-relation = 2.  Superstep 1: none.
        assert_eq!(c, vec![2, 0]);
    }

    #[test]
    fn total_cost_sums_work_comm_latency() {
        let (dag, machine, sched) = two_proc_example();
        // (5 + 2*2 + 3) + (1 + 0 + 3) = 12 + 4 = 16.
        assert_eq!(total_cost(&dag, &machine, &sched), 16);
        let b = cost_breakdown(&dag, &machine, &sched);
        assert_eq!(b.total(), 16);
        assert_eq!(b.total_work, 6);
        assert_eq!(b.total_comm, 4);
        assert_eq!(b.total_latency, 6);
        assert_eq!(b.num_supersteps(), 2);
    }

    #[test]
    fn numa_lambda_scales_communication() {
        // One edge crossing between processors 0 and 2 of a binary tree with
        // Δ = 3: λ = 3.
        let dag = Dag::from_edges(2, &[(0, 1)], vec![1, 1], vec![4, 1]).unwrap();
        let machine = Machine::numa_binary_tree(4, 2, 1, 3);
        let assignment = Assignment {
            proc: vec![0, 2],
            superstep: vec![0, 1],
        };
        let sched = BspSchedule::from_assignment_lazy(&dag, assignment);
        let b = sched.cost_breakdown(&dag, &machine);
        // comm phase of superstep 0 carries c=4, λ=3 -> h = 12, times g=2 -> 24.
        assert_eq!(b.total_comm, 24);
        assert_eq!(b.total_work, 1 + 1);
        assert_eq!(b.total_latency, 2);
        assert_eq!(b.total(), 28);
    }

    #[test]
    fn send_and_receive_are_both_counted() {
        // Processor 0 sends two values to different processors in the same
        // superstep: its send cost accumulates.
        let dag =
            Dag::from_edges(4, &[(0, 2), (1, 3)], vec![1, 1, 1, 1], vec![5, 7, 1, 1]).unwrap();
        let machine = Machine::uniform(3, 1, 0);
        let assignment = Assignment {
            proc: vec![0, 0, 1, 2],
            superstep: vec![0, 0, 1, 1],
        };
        let comm = CommSchedule::from_steps(vec![
            CommStep {
                node: 0,
                from: 0,
                to: 1,
                step: 0,
            },
            CommStep {
                node: 1,
                from: 0,
                to: 2,
                step: 0,
            },
        ]);
        let sched = BspSchedule { assignment, comm };
        let c = comm_costs(&dag, &machine, &sched);
        // proc 0 sends 5 + 7 = 12; receivers get 5 and 7.
        assert_eq!(c[0], 12);
    }

    #[test]
    fn empty_dag_has_zero_cost() {
        let dag = Dag::from_edge_list_unit_weights(0, &[]).unwrap();
        let machine = Machine::uniform(2, 1, 5);
        let sched = BspSchedule::trivial(&dag);
        assert_eq!(total_cost(&dag, &machine, &sched), 0);
    }
}
