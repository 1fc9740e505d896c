//! The `HCcs` hill climbing over communication schedules (§4.3).
//!
//! The assignment `(π, τ)` is fixed; only the superstep in which each required
//! value transfer happens is optimized.  Every transfer (value of `v` must
//! reach processor `q`) may be scheduled in any communication phase between
//! `τ(v)` and the superstep before the value is first used on `q`; the search
//! greedily moves single transfers to the phase that lowers the maximum
//! `h`-relation cost, until a local minimum, a step limit,
//! [`super::VISITS_PER_ENTITY`] visits per transfer, or the cancel token.
//! Like the paper, transfers are always sent directly from `π(v)`.
//!
//! The state is kept the way [`super::HcState`] keeps its tallies: flat
//! `[phase × processor]` tallies and a cached per-phase h-relation cost
//! patched incrementally.  The transfers are the `CommStep`s of
//! [`CommSchedule::transfers`], searched in place and handed back as the
//! answer's `Γ`.  The search is `HC`'s work-list driver over transfers: an
//! accepted move re-enqueues the transfers whose placement window covers one
//! of the two phases it touched, and a verification sweep certifies the
//! local minimum.

use super::{
    drive, HillClimbConfig, HillClimbOutcome, Neighbourhood, SearchCounts, SearchScratch,
    VISITS_PER_ENTITY,
};
use bsp_model::{BspSchedule, CommSchedule, CommStep, Dag, Machine};

struct CsState<'a> {
    dag: &'a Dag,
    machine: &'a Machine,
    /// The transfers, each at its current phase.
    steps: Vec<CommStep>,
    /// Each transfer's placement window `[earliest, latest]`.
    windows: Vec<[u32; 2]>,
    /// Flat send tallies, indexed `s * P + q`.
    send: Vec<u64>,
    /// Flat receive tallies, indexed `s * P + q`.
    recv: Vec<u64>,
    /// Cached h-relation cost per communication phase.
    phase_cost: Vec<u64>,
    /// `covering[first[s]..first[s + 1]]` are the transfers whose window
    /// covers phase `s`, ascending (windows never change): after a move
    /// touches phases a and b, only these can have gained an improving move.
    first: Vec<u32>,
    covering: Vec<u32>,
    /// The two phases the last accepted move touched.
    touched: [usize; 2],
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

    /// Moves transfer `i`, of volume `w`, to communication phase `s_new`,
    /// returning the change in the total h-relation cost (unscaled by `g`).
    fn apply(&mut self, i: usize, w: u64, s_new: usize) -> i64 {
        let CommStep { from, to, step, .. } = self.steps[i];
        let (p, s_old, from, to) = (self.machine.p(), step as usize, from as usize, to as usize);
        let before = self.phase_cost[s_old] + self.phase_cost[s_new];
        self.send[s_old * p + from] -= w;
        self.recv[s_old * p + to] -= w;
        self.send[s_new * p + from] += w;
        self.recv[s_new * p + to] += w;
        self.steps[i].step = s_new as u32;
        self.phase_cost[s_old] = self.compute_phase_cost(s_old);
        self.phase_cost[s_new] = self.compute_phase_cost(s_new);
        let after = self.phase_cost[s_old] + self.phase_cost[s_new];
        after as i64 - before as i64
    }
}

impl Neighbourhood for CsState<'_> {
    fn entities(&self) -> usize {
        self.steps.len()
    }

    /// A transfer whose window is a single phase has nowhere to go.
    fn may_improve(&mut self, i: usize) -> bool {
        self.windows[i][0] != self.windows[i][1]
    }

    /// Tries the phases of transfer `i`'s window in order and commits the
    /// first improving one.
    fn try_improve(&mut self, i: usize, counts: &mut SearchCounts) -> bool {
        let [earliest, latest] = self.windows[i];
        let current = self.steps[i].step as usize;
        let w = self.steps[i].volume(self.dag, self.machine);
        for s_new in (earliest as usize..=latest as usize).filter(|&s| s != current) {
            counts.evaluated += 1;
            if self.apply(i, w, s_new) < 0 {
                self.touched = [current, s_new];
                return true;
            }
            self.apply(i, w, current);
        }
        false
    }

    fn enqueue_dirty(&self, _: usize, list: &mut SearchScratch) {
        for s in self.touched {
            let covering = &self.covering[self.first[s] as usize..self.first[s + 1] as usize];
            covering.iter().for_each(|&j| list.push(j as usize));
        }
    }
}

/// Optimizes the communication schedule of `schedule` in place; `π` and `τ`
/// are left untouched.  The search starts where `schedule`'s own `Γ` places
/// each transfer (see [`CommSchedule::transfers`]).  Returns the outcome
/// statistics (costs are full schedule costs, so they are comparable with
/// [`super::hc_improve`]).  The search stops after [`VISITS_PER_ENTITY`]
/// visits per required transfer.
pub fn hccs_improve(
    dag: &Dag,
    machine: &Machine,
    schedule: &mut BspSchedule,
    config: &HillClimbConfig,
) -> HillClimbOutcome {
    let initial_cost = schedule.cost(dag, machine);
    let (steps, windows) = CommSchedule::transfers(dag, &schedule.assignment, &schedule.comm);
    let num_steps = schedule.num_supersteps().max(1);
    let p = machine.p();

    // A counting sort of the windows by the phases they cover: count each
    // phase's transfers into `first[s + 1]`, sum so `first[s]` is where phase
    // `s`'s run begins, fill (which advances each `first[s]` to where its run
    // ends), and shift back.
    let mut first = vec![0u32; num_steps + 1];
    for &[earliest, latest] in &windows {
        (earliest..=latest).for_each(|s| first[s as usize + 1] += 1);
    }
    for s in 0..num_steps {
        first[s + 1] += first[s];
    }
    let mut covering = vec![0u32; first[num_steps] as usize];
    for (i, &[earliest, latest]) in windows.iter().enumerate() {
        for s in earliest..=latest {
            covering[first[s as usize] as usize] = i as u32;
            first[s as usize] += 1;
        }
    }
    first.copy_within(0..num_steps, 1);
    first[0] = 0;

    let (steps, outcome) = {
        let mut state = CsState {
            dag,
            machine,
            steps,
            windows,
            send: vec![0; num_steps * p],
            recv: vec![0; num_steps * p],
            phase_cost: vec![0; num_steps],
            first,
            covering,
            touched: [0; 2],
        };
        for cs in &state.steps {
            let (w, row) = (cs.volume(dag, machine), cs.step as usize * p);
            state.send[row + cs.from as usize] += w;
            state.recv[row + cs.to as usize] += w;
        }
        for s in 0..num_steps {
            state.phase_cost[s] = state.compute_phase_cost(s);
        }
        let (mut list, transfers) = (SearchScratch::new(), state.steps.len());
        list.push_all(transfers);
        let max_visits = VISITS_PER_ENTITY * transfers as u64;
        let outcome = drive(&mut state, config, &mut list, true, max_visits);
        (state.steps, outcome)
    };
    // The transfers are already sorted and one per `(node, from, to)`.
    schedule.comm = CommSchedule::from_steps(steps);
    HillClimbOutcome {
        initial_cost,
        final_cost: schedule.cost(dag, machine),
        ..outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hill_climb::hc_improve;
    use bsp_model::Assignment;

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
        // call for, are ignored: the transfer starts at its lazy phase.
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
    fn hc_hands_back_a_gamma_cheaper_than_lazy_unless_it_gets_below_it() {
        // After `HCcs` the example costs less than the lazy schedule of its
        // assignment.  `HC` searches that lazy schedule; whether it stops at
        // once (a fired token), after one move (which lowers the lazy cost,
        // not below the given one) or at its local minimum, it may not return
        // anything costlier than it was given.
        let (dag, machine, mut sched) = spreading_example();
        hccs_improve(&dag, &machine, &mut sched, &HillClimbConfig::default());
        let given = sched.clone();
        let given_cost = given.cost(&dag, &machine);
        let lazy = BspSchedule::from_assignment_lazy(&dag, given.assignment.clone());
        assert!(given_cost < lazy.cost(&dag, &machine));

        let cancel = crate::cancel::CancelToken::new();
        cancel.cancel();
        let stopped = HillClimbConfig {
            cancel,
            ..HillClimbConfig::default()
        };
        for (config, hands_back) in [
            (stopped, true),
            (HillClimbConfig::with_max_steps(1), true),
            (HillClimbConfig::default(), false),
        ] {
            let mut sched = given.clone();
            let outcome = hc_improve(&dag, &machine, &mut sched, &config);
            assert_eq!(outcome.initial_cost, given_cost);
            assert_eq!(outcome.final_cost, sched.cost(&dag, &machine));
            assert!(outcome.final_cost <= given_cost, "{outcome:?}");
            assert!(sched.validate(&dag, &machine).is_ok());
            assert_eq!(outcome.final_cost == given_cost, hands_back, "{outcome:?}");
            if hands_back {
                assert_eq!(sched, given);
                // The one move was made on the lazy schedule, which is gone.
                assert_eq!(outcome.steps, 0, "{outcome:?}");
            }
        }
    }

    #[test]
    fn hccs_counts_what_it_visits_and_costs() {
        let (dag, machine, mut sched) = spreading_example();
        let outcome = hccs_improve(&dag, &machine, &mut sched, &HillClimbConfig::default());
        // Two transfers: node 0's window is phase 0 alone, node 1's phases
        // 0 and 1.  The cold work-list visits both (the second moves,
        // dirtying both phases), both are revisited, and one sweep over both
        // certifies the minimum.
        let c = outcome.counts;
        assert_eq!((outcome.steps, c.sweeps, c.pruned), (1, 1, 0));
        assert_eq!(c.visits, 2 + 2 + 2);
        assert_eq!(c.gated, 3, "node 0's value has one phase to go in");
        assert_eq!(c.evaluated, 3, "node 1's has one other phase");
        // A repeat finds nothing: one sweep over both transfers after the
        // work-list's two visits.
        let again = hccs_improve(&dag, &machine, &mut sched, &HillClimbConfig::default());
        assert_eq!(
            (again.steps, again.counts.visits, again.counts.sweeps),
            (0, 4, 1)
        );
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
