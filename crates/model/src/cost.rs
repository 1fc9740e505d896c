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

/// Full cost breakdown of a schedule.
pub fn cost_breakdown(dag: &Dag, machine: &Machine, sched: &BspSchedule) -> CostBreakdown {
    let (latency, rows) = (machine.latency(), Rows::of(dag, machine, sched));
    let mut supersteps = Vec::with_capacity(rows.steps);
    work_rows(dag, machine, sched, rows, |work| {
        supersteps.push(SuperstepCost {
            work,
            comm: 0,
            latency,
        })
    });
    let mut costs = supersteps.iter_mut();
    comm_rows(dag, machine, sched, rows, |comm| {
        costs.next().expect("one row per superstep").comm = comm
    });
    CostBreakdown {
        total_work: supersteps.iter().map(|s| s.work).sum(),
        total_comm: machine.g() * supersteps.iter().map(|s| s.comm).sum::<u64>(),
        total_latency: latency * supersteps.len() as u64,
        supersteps,
    }
}

/// Total cost of a schedule: `Σ_s (C_work(s) + g · C_comm(s) + ℓ)`.
pub fn total_cost(dag: &Dag, machine: &Machine, sched: &BspSchedule) -> u64 {
    let (rows, mut work, mut comm) = (Rows::of(dag, machine, sched), 0u64, 0u64);
    work_rows(dag, machine, sched, rows, |w| work += w);
    comm_rows(dag, machine, sched, rows, |c| comm += c);
    work + machine.g() * comm + machine.latency() * rows.steps as u64
}

// Each superstep's row of `P` tallies is summed either in one dense
// `supersteps × P` table or, when that table would outgrow the schedule,
// one superstep at a time over the entries bucketed by superstep.  Both
// report every superstep `0..num_supersteps()` in order, an empty one as 0,
// so the layout never shows in a result.  Dense is the faster of the two,
// 3.2–4.6× (2.0–3.1 ns/node against 8.9–10.9): pipeline answers to the five
// ≈10⁴-node `exp_multilevel` DAGs on `uniform_p4`, `numa_p8` and `numa_p16`,
// fastest of 6 alternating rounds of 200 `cost` calls, 2-core Xeon; all 15
// select dense.  Bucketing holds `O(n + |Γ| + S + P)` bytes whatever `S · P`
// is.

/// The supersteps of a schedule and the layout its rows are summed in.
#[derive(Clone, Copy)]
struct Rows {
    steps: usize,
    /// `true` when a `steps × P` table holds no more cells than the
    /// schedule has nodes and transfers.
    dense: bool,
}

impl Rows {
    fn of(dag: &Dag, machine: &Machine, sched: &BspSchedule) -> Self {
        let steps = sched.num_supersteps();
        let dense = steps.saturating_mul(machine.p()) <= dag.n() + sched.comm.len();
        Rows { steps, dense }
    }
}

/// Hands `C_work(s)` of every superstep to `row`, in superstep order.
fn work_rows(
    dag: &Dag,
    machine: &Machine,
    sched: &BspSchedule,
    Rows { steps, dense }: Rows,
    mut row: impl FnMut(u64),
) {
    let p = machine.p();
    if dense {
        let mut per_proc = vec![0u64; steps * p];
        for v in 0..dag.n() {
            per_proc[sched.superstep(v) * p + sched.proc(v)] += dag.work(v);
        }
        for cells in per_proc.chunks(p) {
            row(cells.iter().copied().max().unwrap_or(0));
        }
        return;
    }
    let mut load = vec![0u64; p];
    each_bucket(
        steps,
        dag.n(),
        |v| sched.superstep(v),
        |nodes| {
            for &v in nodes {
                load[sched.proc(v as usize)] += dag.work(v as usize);
            }
            let mut max = 0;
            for &v in nodes {
                max = max.max(std::mem::take(&mut load[sched.proc(v as usize)]));
            }
            row(max);
        },
    );
}

/// Calls `f` once per superstep `0..steps`, in order, with the entries `i`
/// of `0..len` for which `step_of(i)` is that superstep, ascending.  A
/// counting sort: `4 · (steps + 1 + len)` bytes.
fn each_bucket(
    steps: usize,
    len: usize,
    step_of: impl Fn(usize) -> usize,
    mut f: impl FnMut(&[u32]),
) {
    assert!(
        u32::try_from(len).is_ok(),
        "{len} entries overflow a u32 index"
    );
    // `end[s + 1]` counts superstep `s`'s entries, then the prefix sums make
    // `end[s]` where bucket `s` starts; filling the buckets advances each to
    // where it ends.
    let mut end = vec![0u32; steps + 1];
    for i in 0..len {
        end[step_of(i) + 1] += 1;
    }
    for s in 0..steps {
        end[s + 1] += end[s];
    }
    let mut order = vec![0u32; len];
    for i in 0..len {
        let slot = &mut end[step_of(i)];
        order[*slot as usize] = i as u32;
        *slot += 1;
    }
    let mut start = 0;
    for &end in &end[..steps] {
        f(&order[start..end as usize]);
        start = end as usize;
    }
}

/// Hands `C_comm(s)` of every superstep to `row`, in superstep order.
fn comm_rows(
    dag: &Dag,
    machine: &Machine,
    sched: &BspSchedule,
    Rows { steps, dense }: Rows,
    mut row: impl FnMut(u64),
) {
    let (p, gamma) = (machine.p(), sched.comm.steps());
    if dense {
        // Sends in the even cells, receives in the odd ones: one row of `2p`
        // cells per superstep, whose maximum is the `h`-relation.
        let mut traffic = vec![0u64; steps * 2 * p];
        for cs in gamma {
            let (from, to, at) = (cs.from as usize, cs.to as usize, cs.step as usize * p);
            let weighted = cs.volume(dag, machine);
            traffic[2 * (at + from)] += weighted;
            traffic[2 * (at + to) + 1] += weighted;
        }
        for cells in traffic.chunks(2 * p) {
            row(cells.iter().copied().max().unwrap_or(0));
        }
        return;
    }
    let (mut send, mut recv) = (vec![0u64; p], vec![0u64; p]);
    each_bucket(
        steps,
        gamma.len(),
        |i| gamma[i].step as usize,
        |transfers| {
            let transfers = transfers.iter().map(|&i| &gamma[i as usize]);
            for cs in transfers.clone() {
                let weighted = cs.volume(dag, machine);
                send[cs.from as usize] += weighted;
                recv[cs.to as usize] += weighted;
            }
            let mut max = 0;
            for cs in transfers {
                max = max.max(std::mem::take(&mut send[cs.from as usize]));
                max = max.max(std::mem::take(&mut recv[cs.to as usize]));
            }
            row(max);
        },
    );
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
        let w: Vec<u64> = cost_breakdown(&dag, &machine, &sched)
            .supersteps
            .iter()
            .map(|s| s.work)
            .collect();
        // Superstep 0: proc 0 has 4 nodes, proc 1 has 5 nodes -> max 5.
        // Superstep 1: one node each -> 1.
        assert_eq!(w, vec![5, 1]);
    }

    #[test]
    fn comm_cost_is_h_relation() {
        let (dag, machine, sched) = two_proc_example();
        let c: Vec<u64> = cost_breakdown(&dag, &machine, &sched)
            .supersteps
            .iter()
            .map(|s| s.comm)
            .collect();
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
        let c = cost_breakdown(&dag, &machine, &sched).supersteps[0].comm;
        // proc 0 sends 5 + 7 = 12; receivers get 5 and 7.
        assert_eq!(c, 12);
    }

    #[test]
    fn empty_dag_has_zero_cost() {
        let dag = Dag::from_edge_list_unit_weights(0, &[]).unwrap();
        let machine = Machine::uniform(2, 1, 5);
        let sched = BspSchedule::trivial(&dag);
        assert_eq!(total_cost(&dag, &machine, &sched), 0);
    }
}
