//! The `HCcs` hill climbing over communication schedules (§4.3).
//!
//! The assignment `(π, τ)` is fixed; only the superstep in which each required
//! value transfer happens is optimized.  Every requirement (value of `v` must
//! reach processor `q`) may be scheduled in any communication phase between
//! `τ(v)` and the superstep before the value is first used on `q`; the search
//! greedily moves single transfers to the phase that lowers the maximum
//! `h`-relation cost, until a local minimum or the time limit is reached.
//! Like the paper, transfers are always sent directly from `π(v)`.
//!
//! The state is kept the way [`super::HcState`] keeps its tallies: flat
//! `[phase × processor]` tallies, a cached per-phase h-relation cost patched
//! incrementally, and a dirty work-list over requirements (re-enqueue only
//! the transfers whose placement window covers a phase the last accepted move
//! touched), with a verification sweep certifying the local minimum.

use super::{HillClimbConfig, HillClimbOutcome};
use bsp_model::{BspSchedule, CommSchedule, Dag, Machine};
use std::cmp::Ordering;
use std::collections::VecDeque;
use std::time::Instant;

/// One value transfer to place: NUMA-weighted volume, endpoints, and the
/// placement window `[earliest, latest]`.
#[derive(Debug, Clone, Copy)]
struct CsReq {
    weight: u64,
    from: usize,
    to: usize,
    earliest: usize,
    latest: usize,
    current: usize,
}

struct CsState<'a> {
    machine: &'a Machine,
    reqs: Vec<CsReq>,
    /// Flat send tallies, indexed `s * P + q`.
    send: Vec<u64>,
    /// Flat receive tallies, indexed `s * P + q`.
    recv: Vec<u64>,
    /// Cached h-relation cost per communication phase.
    phase_cost: Vec<u64>,
}

impl<'a> CsState<'a> {
    /// Recomputes the h-relation cost of phase `s` from the tallies.  `O(P)`.
    fn compute_phase_cost(&self, s: usize) -> u64 {
        let p = self.machine.p();
        let row = s * p;
        (0..p)
            .map(|q| self.send[row + q].max(self.recv[row + q]))
            .max()
            .unwrap_or(0)
    }

    /// Moves requirement `i` to communication phase `s_new`, returning the
    /// change in the total h-relation cost (unscaled by `g`).
    fn apply(&mut self, i: usize, s_new: usize) -> i64 {
        let req = self.reqs[i];
        let s_old = req.current;
        if s_new == s_old {
            return 0;
        }
        let p = self.machine.p();
        let before = self.phase_cost[s_old] + self.phase_cost[s_new];
        self.send[s_old * p + req.from] -= req.weight;
        self.recv[s_old * p + req.to] -= req.weight;
        self.send[s_new * p + req.from] += req.weight;
        self.recv[s_new * p + req.to] += req.weight;
        self.reqs[i].current = s_new;
        self.phase_cost[s_old] = self.compute_phase_cost(s_old);
        self.phase_cost[s_new] = self.compute_phase_cost(s_new);
        let after = self.phase_cost[s_old] + self.phase_cost[s_new];
        after as i64 - before as i64
    }

    /// Tries all phases in requirement `i`'s window and commits the first
    /// improving one.  Returns the touched `(old, new)` phases on acceptance.
    fn try_improve_req(&mut self, i: usize) -> Option<(usize, usize)> {
        let CsReq {
            earliest,
            latest,
            current,
            ..
        } = self.reqs[i];
        for s_new in earliest..=latest {
            if s_new == current {
                continue;
            }
            if self.apply(i, s_new) < 0 {
                return Some((current, s_new));
            }
            self.apply(i, current);
        }
        None
    }
}

/// The first-improvement search: dirty work-list plus verification sweeps.
/// Returns `(steps, certified)`.
fn cs_search(
    state: &mut CsState<'_>,
    phase_reqs: &[Vec<usize>],
    config: &HillClimbConfig,
    start: Instant,
) -> (usize, bool) {
    let num_reqs = state.reqs.len();
    let mut queue: VecDeque<usize> = (0..num_reqs).collect();
    let mut in_queue = vec![true; num_reqs];
    let enqueue_phase = |s: usize, queue: &mut VecDeque<usize>, in_queue: &mut [bool]| {
        for &i in &phase_reqs[s] {
            if !in_queue[i] {
                in_queue[i] = true;
                queue.push_back(i);
            }
        }
    };

    let mut steps = 0usize;
    let mut reached_local_minimum = false;
    'outer: loop {
        while let Some(i) = queue.pop_front() {
            in_queue[i] = false;
            if steps >= config.max_steps
                || start.elapsed() > config.time_limit
                || config.cancel.is_cancelled()
            {
                break 'outer;
            }
            if let Some((a, b)) = state.try_improve_req(i) {
                steps += 1;
                enqueue_phase(a, &mut queue, &mut in_queue);
                enqueue_phase(b, &mut queue, &mut in_queue);
            }
        }
        let mut sweep_improved = false;
        for i in 0..num_reqs {
            if steps >= config.max_steps
                || start.elapsed() > config.time_limit
                || config.cancel.is_cancelled()
            {
                break 'outer;
            }
            if let Some((a, b)) = state.try_improve_req(i) {
                steps += 1;
                sweep_improved = true;
                enqueue_phase(a, &mut queue, &mut in_queue);
                enqueue_phase(b, &mut queue, &mut in_queue);
            }
        }
        if !sweep_improved {
            reached_local_minimum = true;
            break;
        }
    }
    (steps, reached_local_minimum)
}

/// Optimizes the communication schedule of `schedule` in place; `π` and `τ`
/// are left untouched.  Returns the outcome statistics (costs are full
/// schedule costs, so they are comparable with [`super::hc_improve`]).
pub fn hccs_improve(
    dag: &Dag,
    machine: &Machine,
    schedule: &mut BspSchedule,
    config: &HillClimbConfig,
) -> HillClimbOutcome {
    let start = Instant::now();
    let initial_cost = schedule.cost(dag, machine);
    let requirements = CommSchedule::requirements(dag, &schedule.assignment);
    if requirements.is_empty() {
        return HillClimbOutcome {
            steps: 0,
            initial_cost,
            final_cost: initial_cost,
            reached_local_minimum: true,
        };
    }

    // Where does the existing schedule place each requirement?  Both lists
    // are sorted by `(node, from, to)` — a requirement's `from` is `π(node)`
    // — so one cursor over the schedule's steps finds them all.
    let existing = schedule.comm.steps();
    let mut cursor = 0usize;

    let num_steps = schedule.num_supersteps().max(1);
    let p = machine.p();
    let mut state = CsState {
        machine,
        reqs: Vec::with_capacity(requirements.len()),
        send: vec![0; num_steps * p],
        recv: vec![0; num_steps * p],
        phase_cost: vec![0; num_steps],
    };
    for r in &requirements {
        let earliest = r.earliest_step();
        let latest = r.latest_step();
        let key = (r.node as u32, r.source as u32, r.target as u32);
        let mut placed = None;
        while let Some(cs) = existing.get(cursor) {
            match (cs.node, cs.from, cs.to).cmp(&key) {
                Ordering::Less => {}
                // Of several transfers of one value the latest counts.
                Ordering::Equal => placed = Some(cs.step as usize),
                Ordering::Greater => break,
            }
            cursor += 1;
        }
        // Fall back to the lazy placement if the transfer is missing or sits
        // outside its window (for a fresh lazy schedule they coincide anyway).
        let current = placed
            .filter(|&s| s >= earliest && s <= latest)
            .unwrap_or(latest);
        let w = dag.comm(r.node) * machine.lambda(r.source, r.target);
        state.send[current * p + r.source] += w;
        state.recv[current * p + r.target] += w;
        state.reqs.push(CsReq {
            weight: w,
            from: r.source,
            to: r.target,
            earliest,
            latest,
            current,
        });
    }
    for s in 0..num_steps {
        state.phase_cost[s] = state.compute_phase_cost(s);
    }

    // Static phase -> requirements index (windows never change): after a move
    // touches phases a and b, only requirements whose window covers a or b can
    // have gained an improving move.
    let mut phase_reqs: Vec<Vec<usize>> = vec![Vec::new(); num_steps];
    for (i, r) in state.reqs.iter().enumerate() {
        for s in r.earliest..=r.latest {
            phase_reqs[s].push(i);
        }
    }

    let (steps, reached_local_minimum) = cs_search(&mut state, &phase_reqs, config, start);

    // Materialize the optimized communication schedule.
    let comm_steps = requirements
        .iter()
        .zip(&state.reqs)
        .map(|(r, req)| r.send_at(req.current))
        .collect();
    schedule.comm = CommSchedule::from_steps(comm_steps);
    let final_cost = schedule.cost(dag, machine);
    HillClimbOutcome {
        steps,
        initial_cost,
        final_cost,
        reached_local_minimum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsp_model::{Assignment, CommStep};

    /// Processor 0 must send the value of node 0 to processor 1 in phase 0
    /// (it is needed in superstep 1), and processor 1 must send the value of
    /// node 1 to processor 0 before superstep 2.  The lazy schedule puts the
    /// second transfer in phase 1 and pays an h-relation in both phases;
    /// moving it into phase 0 (where it overlaps with the opposite-direction
    /// transfer) removes one h-relation entirely.
    fn spreading_example() -> (Dag, Machine, BspSchedule) {
        let dag =
            Dag::from_edges(4, &[(0, 2), (1, 3)], vec![1, 1, 1, 1], vec![10, 10, 1, 1]).unwrap();
        let machine = Machine::uniform(2, 2, 1);
        let assignment = Assignment {
            proc: vec![0, 1, 1, 0],
            superstep: vec![0, 0, 1, 2],
        };
        let sched = BspSchedule::from_assignment_lazy(&dag, assignment);
        (dag, machine, sched)
    }

    #[test]
    fn hccs_overlaps_communication_phases_when_it_pays_off() {
        let (dag, machine, mut sched) = spreading_example();
        let before = sched.cost(&dag, &machine);
        let outcome = hccs_improve(&dag, &machine, &mut sched, &HillClimbConfig::default());
        assert!(sched.validate(&dag, &machine).is_ok());
        assert!(outcome.final_cost < before, "no improvement over {before}");
        assert_eq!(outcome.final_cost, sched.cost(&dag, &machine));
        // Both transfers now share phase 0 (the second one moved forward).
        let steps: Vec<u32> = sched.comm.steps().iter().map(|s| s.step).collect();
        assert_eq!(steps, vec![0, 0]);
    }

    #[test]
    fn hccs_is_a_no_op_without_communication() {
        let dag = Dag::from_edges(2, &[(0, 1)], vec![1, 1], vec![1, 1]).unwrap();
        let machine = Machine::uniform(2, 1, 1);
        let mut sched = BspSchedule::trivial(&dag);
        let outcome = hccs_improve(&dag, &machine, &mut sched, &HillClimbConfig::default());
        assert_eq!(outcome.steps, 0);
        assert!(outcome.reached_local_minimum);
        assert_eq!(outcome.initial_cost, outcome.final_cost);
    }

    #[test]
    fn hccs_never_invalidates_or_worsens() {
        let (dag, machine, mut sched) = spreading_example();
        let before = sched.cost(&dag, &machine);
        for _ in 0..3 {
            let outcome = hccs_improve(&dag, &machine, &mut sched, &HillClimbConfig::default());
            assert!(sched.validate(&dag, &machine).is_ok());
            assert!(outcome.final_cost <= before);
        }
    }

    #[test]
    fn hccs_starts_from_the_placements_the_schedule_carries() {
        // After one run both transfers sit in phase 0, which is not where the
        // lazy schedule puts the second.  A second run that found them there
        // has nothing to do; one that fell back to the lazy placement would
        // repeat the move.
        let (dag, machine, mut sched) = spreading_example();
        let first = hccs_improve(&dag, &machine, &mut sched, &HillClimbConfig::default());
        assert_eq!(first.steps, 1);
        let placed = sched.clone();
        let second = hccs_improve(&dag, &machine, &mut sched, &HillClimbConfig::default());
        assert_eq!(second.steps, 0);
        assert!(second.reached_local_minimum);
        assert_eq!(sched, placed);

        // A transfer outside its window, and one the assignment does not
        // call for, are ignored: the requirement starts at its lazy phase.
        let mut steps = placed.comm.steps().to_vec();
        steps[1].step = 7;
        steps.push(CommStep {
            node: 3,
            from: 0,
            to: 1,
            step: 0,
        });
        sched.comm = CommSchedule::from_steps(steps);
        let third = hccs_improve(&dag, &machine, &mut sched, &HillClimbConfig::default());
        assert_eq!(third.steps, 1);
        assert_eq!(sched, placed);
    }

    #[test]
    fn numa_weights_influence_the_h_relation() {
        let (dag, _machine, _) = spreading_example();
        let machine = Machine::numa_binary_tree(4, 1, 1, 4);
        let assignment = Assignment {
            proc: vec![0, 1, 3, 3],
            superstep: vec![0, 0, 2, 2],
        };
        let mut sched = BspSchedule::from_assignment_lazy(&dag, assignment);
        let before = sched.cost(&dag, &machine);
        let outcome = hccs_improve(&dag, &machine, &mut sched, &HillClimbConfig::default());
        assert!(sched.validate(&dag, &machine).is_ok());
        assert!(outcome.final_cost <= before);
    }
}
