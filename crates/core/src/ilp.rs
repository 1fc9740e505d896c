//! `ILPcs`: the communication-scheduling sub-problem as an ILP (§4.4), kept
//! as the exact check on `HCcs`.
//!
//! The assignment `(π, τ)` is fixed; each required transfer (the value of `v`
//! from `π(v)` to a processor `q` that uses it) gets one binary variable per
//! admissible communication phase, and the per-superstep `h`-relation costs
//! are minimized globally.  The degrees of freedom are few, so this is the one
//! formulation of the paper the [`micro_ilp`] branch-&-bound solver closes at
//! the sizes of the test datasets.  It is not a pipeline stage: on every
//! instance it has proven optimal, `HCcs` had already returned the optimum
//! (`tests/ilp_oracle.rs` holds that; README, *ILP: a negative result*, has
//! what `ILPfull`, `ILPpart` and `ILPinit` measured before they were deleted).

use bsp_model::{BspSchedule, CommSchedule, Dag, Machine};
use micro_ilp::{MipConfig, MipStatus, Model, VarId};

/// Largest model (choice plus `h`-relation variables) handed to the solver.
/// The dense-tableau simplex of `micro_ilp` needs `O((vars + constraints)²)`
/// memory, so unlike CBC it cannot take the communication-scheduling ILP of
/// arbitrarily large instances.
const MAX_VARIABLES: usize = 2_000;

/// What [`ilp_cs_improve`] established about a schedule's `Γ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IlpCsOutcome {
    /// Cost of the schedule as the call leaves it.
    pub cost: u64,
    /// `true` when `cost` is the optimum over every communication schedule
    /// of the assignment: the search tree was exhausted, or there is nothing
    /// to send.  `false` when the solver stopped on a limit or the model was
    /// too large to build.
    pub proven: bool,
}

/// Optimizes the communication schedule of `schedule` with an ILP, warm-started
/// from the `Γ` it has; replaces it only by a strictly cheaper one.
pub fn ilp_cs_improve(
    dag: &Dag,
    machine: &Machine,
    schedule: &mut BspSchedule,
    config: &MipConfig,
) -> IlpCsOutcome {
    let outcome = |schedule: &BspSchedule, proven| IlpCsOutcome {
        cost: schedule.cost(dag, machine),
        proven,
    };
    // Each transfer with its window, at the phase the warm start puts it in:
    // the schedule's own, or lazy where that is missing or outside.
    let (mut steps, windows) = CommSchedule::transfers(dag, &schedule.assignment, &schedule.comm);
    if steps.is_empty() {
        return outcome(schedule, true);
    }
    let num_steps = schedule.num_supersteps().max(1);
    let p = machine.p();
    let g = machine.g() as f64;

    let estimated_vars: usize = windows
        .iter()
        .map(|&[earliest, latest]| (latest - earliest) as usize + 1)
        .sum::<usize>()
        + num_steps;
    if estimated_vars > MAX_VARIABLES {
        return outcome(schedule, false);
    }

    let mut model = Model::new();
    // x[r][s - earliest] = transfer r happens in phase s.
    let mut choice: Vec<Vec<VarId>> = Vec::with_capacity(steps.len());
    for (i, &[earliest, latest]) in windows.iter().enumerate() {
        let vars: Vec<VarId> = (earliest..=latest)
            .map(|s| model.add_binary(format!("x_{i}_{s}"), 0.0))
            .collect();
        model.add_eq(
            format!("place_{i}"),
            vars.iter().map(|&v| (v, 1.0)).collect(),
            1.0,
        );
        choice.push(vars);
    }
    let h: Vec<VarId> = (0..num_steps)
        .map(|s| model.add_continuous(format!("H_{s}"), 0.0, f64::INFINITY, g))
        .collect();
    for s in 0..num_steps {
        for q in 0..p {
            let mut send_terms = vec![(h[s], 1.0)];
            let mut recv_terms = vec![(h[s], 1.0)];
            for (i, (cs, &[earliest, latest])) in steps.iter().zip(&windows).enumerate() {
                if s < earliest as usize || s > latest as usize {
                    continue;
                }
                let var = choice[i][s - earliest as usize];
                let w = cs.volume(dag, machine) as f64;
                if cs.from as usize == q {
                    send_terms.push((var, -w));
                }
                if cs.to as usize == q {
                    recv_terms.push((var, -w));
                }
            }
            if send_terms.len() > 1 {
                model.add_ge(format!("send_{q}_{s}"), send_terms, 0.0);
            }
            if recv_terms.len() > 1 {
                model.add_ge(format!("recv_{q}_{s}"), recv_terms, 0.0);
            }
        }
    }

    // Warm start, with the per-superstep h-relation it implies.
    let mut warm = vec![0.0; model.num_vars()];
    let mut send = vec![vec![0u64; p]; num_steps];
    let mut recv = vec![vec![0u64; p]; num_steps];
    for (i, (cs, window)) in steps.iter().zip(&windows).enumerate() {
        let s = cs.step as usize;
        warm[choice[i][s - window[0] as usize].index()] = 1.0;
        send[s][cs.from as usize] += cs.volume(dag, machine);
        recv[s][cs.to as usize] += cs.volume(dag, machine);
    }
    for s in 0..num_steps {
        let hmax = (0..p)
            .map(|q| send[s][q].max(recv[s][q]))
            .max()
            .unwrap_or(0);
        warm[h[s].index()] = hmax as f64;
    }

    let result = micro_ilp::solve_mip(&model, config, Some(&warm));
    if !result.has_solution() {
        return outcome(schedule, false);
    }
    // Build the candidate communication schedule.
    for ((cs, window), vars) in steps.iter_mut().zip(&windows).zip(&choice) {
        let k = (0..vars.len())
            .find(|&k| result.values[vars[k].index()] > 0.5)
            .unwrap_or(vars.len() - 1);
        cs.step = window[0] + k as u32;
    }
    let mut candidate = schedule.clone();
    candidate.comm = CommSchedule::from_steps(steps);
    if candidate.validate(dag, machine).is_err() {
        return outcome(schedule, false);
    }
    if candidate.cost(dag, machine) < schedule.cost(dag, machine) {
        *schedule = candidate;
    }
    outcome(schedule, result.status == MipStatus::Optimal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsp_model::Assignment;

    #[test]
    fn overlaps_opposite_transfers_like_hccs_but_globally() {
        // Processor 0 sends the value of node 0 to processor 1 in phase 0;
        // processor 1 must send the value of node 1 to processor 0 before
        // superstep 2.  The lazy schedule uses phase 1 for the second transfer
        // and pays two h-relations; the ILP moves it into phase 0 where it
        // overlaps with the opposite-direction transfer.
        let dag = Dag::from_edges(4, &[(0, 2), (1, 3)], vec![1; 4], vec![10, 10, 1, 1]).unwrap();
        let machine = Machine::uniform(2, 2, 1);
        let assignment = Assignment {
            proc: vec![0, 1, 1, 0],
            superstep: vec![0, 0, 1, 2],
        };
        let mut sched = BspSchedule::from_assignment_lazy(&dag, assignment);
        let before = sched.cost(&dag, &machine);
        let outcome = ilp_cs_improve(&dag, &machine, &mut sched, &MipConfig::default());
        assert!(sched.validate(&dag, &machine).is_ok());
        assert!(outcome.proven);
        assert_eq!(outcome.cost, sched.cost(&dag, &machine));
        assert!(
            outcome.cost < before,
            "ILPcs should overlap the two transfers in phase 0"
        );
        assert!(sched.comm.steps().iter().all(|s| s.step == 0));
    }

    #[test]
    fn nothing_to_send_is_proven_at_the_lazy_cost() {
        let dag = Dag::from_edges(2, &[(0, 1)], vec![1, 1], vec![1, 1]).unwrap();
        let machine = Machine::uniform(2, 1, 1);
        let mut sched = BspSchedule::trivial(&dag);
        let lazy = sched.cost(&dag, &machine);
        let outcome = ilp_cs_improve(&dag, &machine, &mut sched, &MipConfig::default());
        assert_eq!((outcome.cost, outcome.proven), (lazy, true));
        assert_eq!(sched, BspSchedule::trivial(&dag));
    }

    #[test]
    fn never_worsens_the_schedule() {
        let dag = Dag::from_edges(4, &[(0, 2), (1, 3)], vec![1; 4], vec![5, 5, 1, 1]).unwrap();
        let machine = Machine::numa_binary_tree(4, 3, 2, 2);
        let assignment = Assignment {
            proc: vec![0, 1, 2, 3],
            superstep: vec![0, 0, 2, 2],
        };
        let mut sched = BspSchedule::from_assignment_lazy(&dag, assignment);
        let before = sched.cost(&dag, &machine);
        let outcome = ilp_cs_improve(&dag, &machine, &mut sched, &MipConfig::default());
        assert!(sched.validate(&dag, &machine).is_ok());
        assert_eq!(outcome.cost, sched.cost(&dag, &machine));
        assert!(outcome.cost <= before);
    }
}
