//! Hill-climbing local search (§4.3 of the paper).
//!
//! * [`hc_improve`] — the `HC` search over node moves: a node is moved to a
//!   different processor in the same superstep, or to any processor in the
//!   previous/next superstep, whenever that lowers the total cost.  It works
//!   on *lazy* communication schedules and keeps incremental per-superstep
//!   work/send/receive tallies so a candidate move is evaluated without
//!   touching unaffected supersteps.
//! * [`hccs_improve`] — the `HCcs` search over the communication schedule `Γ`
//!   alone (`π`, `τ` fixed): each required transfer may happen in any
//!   communication phase between the superstep where the value is computed and
//!   the superstep before it is first needed.
//!
//! Both searches use the greedy first-improvement rule the paper selected
//! after its preliminary experiments, and stop at a local minimum, at a count
//! (accepted steps, or visits) or when the cancel token fires.  The paper
//! runs them under a wall-clock limit; here no search reads the clock for a
//! budget, so an answer depends on the DAG and the machine alone unless a
//! token fires.  Both are anytime: a stopped or cancelled search returns a
//! valid schedule no costlier than the one it was given.
//!
//! [`hc_improve`] is the entry point; [`hc_search`] runs `HC` over an existing
//! [`HcState`] and a caller-seeded work-list (what the oracle and allocation
//! tests drive directly).
//!
//! ## One work-list driver
//!
//! A naive driver rescans every entity each pass even when a pass changed
//! almost nothing, so the tail of the search — many passes, few accepted
//! moves — costs a full scan per pass.  Both searches instead run one
//! FM-style dirty work-list, `drive`, over their own neighbourhood: the
//! entities are nodes for `HC` and required transfers for `HCcs`, and after
//! an accepted move only the entities whose best move can have changed are
//! re-enqueued (for `HC`: the moved node, its DAG neighbours, and the nodes
//! of every superstep whose tallies the move touched; for `HCcs`: the
//! transfers whose placement window covers one of the two phases the move
//! touched).  Because the dirty-set rule is a sound over-approximation *per
//! move* but the body-cost `max` can hide second-order interactions, a full
//! verification sweep runs whenever the work-list drains; the search only
//! reports a local minimum when that sweep accepts nothing.
//!
//! The driver checks the step and visit limits before every visit and polls
//! the cancel token on the first visit and every 64th after it, so a token
//! fired before a search starts stops it before its first move.  It
//! counts what it does on every run ([`SearchCounts`], on the outcome):
//! visits, visits an `O(1)` gate turned away, candidate moves costed and
//! moves an `O(1)` bound pruned, and verification sweeps.

mod hccs;
mod relocate;
mod state;

pub use hccs::hccs_improve;
pub use relocate::{
    relocate_improve, RelocateOutcome, RELOCATION_CANDIDATES, RELOCATION_VISITS_PER_NODE,
};
pub use state::{HcState, MoveWindow};

use bsp_model::{BspSchedule, Dag, Machine};
use std::collections::VecDeque;
use std::time::Duration;

/// The most visits a bounded search makes per entity: the pipeline's `HC`
/// descent stops after `VISITS_PER_ENTITY · n` visits (`n` the nodes of the
/// DAG it searches), and [`hccs_improve`] after `VISITS_PER_ENTITY · t`
/// (`t` the required transfers).  Set above every count on record (at most
/// 7.36 `HC` visits per node and 3.89 `HCcs` visits per transfer), so it
/// bounds a search's work without cutting one short; [`hc_improve`] has no
/// visit bound, so that it can certify a local minimum.
pub const VISITS_PER_ENTITY: u64 = 16;

/// Configuration shared by the `HC` and `HCcs` local searches.
#[derive(Debug, Clone)]
pub struct HillClimbConfig {
    /// Read by nothing: no search reads the clock for a budget.  Kept
    /// because the frozen `benchmark/` package derives a threshold from the
    /// default (5 s) and calls [`HillClimbConfig::with_time_limit`].
    #[doc(hidden)]
    pub time_limit: Duration,
    /// Upper bound on the number of accepted improvement steps
    /// (`usize::MAX` = unlimited).
    pub max_steps: usize,
    /// Cooperative cancellation: the run's only deadline
    /// ([`crate::cancel::CancelToken::with_deadline`]), polled on a search's
    /// first visit and every 64th after it.  Both searches are anytime, so a
    /// cancelled run still returns a valid schedule no worse than its input.
    /// Inert by default.
    pub cancel: crate::cancel::CancelToken,
}

impl Default for HillClimbConfig {
    fn default() -> Self {
        HillClimbConfig {
            time_limit: Duration::from_secs(5),
            max_steps: usize::MAX,
            cancel: crate::cancel::CancelToken::inert(),
        }
    }
}

impl HillClimbConfig {
    /// The default: the time limit is read by nothing.  Kept because the
    /// frozen `benchmark/` package calls it.
    #[doc(hidden)]
    pub fn with_time_limit(time_limit: Duration) -> Self {
        HillClimbConfig {
            time_limit,
            ..Default::default()
        }
    }

    /// A configuration limited to `max_steps` accepted improvements.
    pub fn with_max_steps(max_steps: usize) -> Self {
        HillClimbConfig {
            max_steps,
            ..Default::default()
        }
    }

    /// Identity: a search has no thread knob.  Kept because the frozen
    /// `benchmark/` package calls it; goes with that package's
    /// `hc.parallel_speedup_2lanes` row.
    #[doc(hidden)]
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }
}

/// Statistics returned by a hill-climbing run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HillClimbOutcome {
    /// Number of accepted improvement steps on the schedule returned (0 when
    /// [`hc_improve`] hands back the schedule it was given).
    pub steps: usize,
    /// Cost of the schedule the search was given.
    pub initial_cost: u64,
    /// Cost of the schedule it returned; never above `initial_cost`.
    pub final_cost: u64,
    /// `true` if the search stopped because it certified a local minimum
    /// (rather than at a step or visit limit, or on the cancel token).
    pub reached_local_minimum: bool,
    /// What the search did to get there.
    pub counts: SearchCounts,
}

/// What one search did, counted by the work-list driver on every run.  An
/// entity is a node for `HC` and a required transfer for `HCcs`; the accepted
/// moves are [`HillClimbOutcome::steps`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchCounts {
    /// Entities taken off the work-list or visited by a verification sweep.
    pub visits: u64,
    /// Visits turned away before any move was costed: for `HC` by the sound
    /// [`HcState::node_can_gain`] gate, for `HCcs` because the transfer's
    /// window is a single phase.
    pub gated: u64,
    /// Candidate moves costed, pruned ones included.
    pub evaluated: u64,
    /// Of those, the moves `HC`'s `O(1)` bound
    /// ([`HcState::drop_lower_bound`]) ruled out without touching a tally;
    /// `HCcs` has no bound and prunes none.
    pub pruned: u64,
    /// Verification sweeps begun: one each time the work-list drained.
    pub sweeps: u64,
}

/// The work-list: a FIFO of entities with a membership flag per entity, so
/// that an entity is queued at most once.  Owning it outside the search lets
/// a caller run [`hc_search`] after [`hc_search`] without re-allocating it.
#[derive(Debug, Clone, Default)]
pub struct SearchScratch {
    queue: VecDeque<usize>,
    in_queue: Vec<bool>,
}

impl SearchScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-sizes the buffers for `n` entities, so later enqueues never
    /// reallocate.
    pub fn reserve(&mut self, n: usize) {
        if self.in_queue.len() < n {
            self.in_queue.resize(n, false);
        }
        self.queue.reserve(n.saturating_sub(self.queue.len()));
    }

    /// Enqueues node `v` for the next [`hc_search`] call (deduplicated).
    pub fn enqueue(&mut self, v: usize) {
        if self.in_queue.len() <= v {
            self.in_queue.resize(v + 1, false);
        }
        self.push(v);
    }

    /// Enqueues every node of `nodes` once, in ascending order whatever
    /// order they come in, onto an empty work-list of `n` entities.  `O(n)`
    /// beside the nodes, and no list of them is held.
    pub(crate) fn enqueue_in_order(&mut self, n: usize, nodes: impl IntoIterator<Item = usize>) {
        debug_assert!(self.queue.is_empty(), "the work-list is drained");
        self.reserve(n);
        nodes.into_iter().for_each(|v| self.in_queue[v] = true);
        self.queue.extend((0..n).filter(|&v| self.in_queue[v]));
    }

    /// Number of entities queued.
    pub(crate) fn len(&self) -> usize {
        self.queue.len()
    }

    /// Enqueues every node of `graph`.
    pub fn enqueue_all(&mut self, graph: &Dag) {
        self.push_all(graph.n());
    }

    /// Enqueues every entity `0..n`, reserving room for them first.
    fn push_all(&mut self, n: usize) {
        self.reserve(n);
        (0..n).for_each(|v| self.push(v));
    }

    /// Enqueues `v`, already within the reserved range, unless it is queued.
    fn push(&mut self, v: usize) {
        if !self.in_queue[v] {
            self.in_queue[v] = true;
            self.queue.push_back(v);
        }
    }

    fn pop(&mut self) -> Option<usize> {
        let v = self.queue.pop_front()?;
        self.in_queue[v] = false;
        Some(v)
    }
}

/// One search's moves as [`drive`] sees them: entities `0..entities()`, each
/// with a first-improvement move, and the dirty rule of an accepted move.
trait Neighbourhood {
    fn entities(&self) -> usize;

    /// The `O(1)` gate: `false` if entity `i` has no improving move, so the
    /// driver passes it by without costing one.
    fn may_improve(&mut self, i: usize) -> bool;

    /// Applies the first improving move of an entity past the gate, adding
    /// the moves it costed and pruned to `counts` once; `true` if a move was
    /// accepted.
    fn try_improve(&mut self, i: usize, counts: &mut SearchCounts) -> bool;

    /// Enqueues every entity whose best move the move `i` just accepted can
    /// have changed.
    fn enqueue_dirty(&self, i: usize, list: &mut SearchScratch);
}

/// The work-list driver of both searches (module docs): drains `list`, then
/// sweeps every entity, until a sweep accepts nothing or a limit stops it.
/// Without `certify` it stops when `list` first drains, and reports no local
/// minimum.  `max_visits` is a limit beside `config`'s: the search stops
/// after that many visits.  Returns the steps, the local-minimum flag and
/// the counts, the costs left to the caller; `list` is left empty.
fn drive(
    search: &mut impl Neighbourhood,
    config: &HillClimbConfig,
    list: &mut SearchScratch,
    certify: bool,
    max_visits: u64,
) -> HillClimbOutcome {
    let n = search.entities();
    list.reserve(n);
    // What every visit touches is a plain local; `counts` is written only by
    // visits past the gate and by a sweep.
    let (mut steps, mut polls, mut gated) = (0usize, 0u64, 0u64);
    let mut counts = SearchCounts::default();

    // Every visit is polled first.  Reading the cancel token (a deadline
    // reads the clock) per visit would dominate gated visits; read it on the
    // first poll and every 64th after it.
    let over_limit = |polls: &mut u64, steps: usize| {
        *polls += 1;
        *polls > max_visits
            || steps >= config.max_steps
            || (*polls & 63 == 1 && config.cancel.is_cancelled())
    };
    let mut moved = |i: usize, list: &mut SearchScratch, counts: &mut SearchCounts| {
        if !search.may_improve(i) {
            gated += 1;
            return false;
        }
        let accepted = search.try_improve(i, counts);
        if accepted {
            search.enqueue_dirty(i, list);
        }
        accepted
    };

    let limited = 'outer: loop {
        while let Some(i) = list.pop() {
            if over_limit(&mut polls, steps) {
                break 'outer true;
            }
            steps += usize::from(moved(i, list, &mut counts));
        }
        if !certify {
            break false;
        }
        counts.sweeps += 1;
        let mut sweep_improved = false;
        for i in 0..n {
            if over_limit(&mut polls, steps) {
                break 'outer true;
            }
            if moved(i, list, &mut counts) {
                steps += 1;
                sweep_improved = true;
            }
        }
        if !sweep_improved {
            break false;
        }
    };
    // Whatever a limit left queued is drained, so the next search starts
    // from the caller's seeds alone.
    while list.pop().is_some() {}
    HillClimbOutcome {
        steps,
        reached_local_minimum: certify && !limited,
        counts: SearchCounts {
            // The poll that stopped the search visited nothing.
            visits: polls - u64::from(limited),
            gated,
            ..counts
        },
        ..HillClimbOutcome::default()
    }
}

/// One node visit's costing state: whether the node is lifted out of the
/// tallies, and the destinations costed and pruned so far.  A local of the
/// visit, added to [`SearchCounts`] once when the visit ends.  The counts sit
/// beside the flag the out-of-line costing call already takes: counters in
/// the enumeration loop itself keep the compiler from specializing that
/// loop per superstep, which slows the visits that cost nothing.
#[derive(Default)]
struct Costing {
    lifted: bool,
    evaluated: u64,
    pruned: u64,
}

/// Costs one admissible destination of `v`; `true` if moving there lowers the
/// total cost.  `v` is lifted out of the tallies at its first admissible
/// destination (on chain-like DAGs most gated nodes have none) and every
/// destination is costed as a drop onto that lifted state; one whose `O(1)`
/// lower bound is already non-negative cannot improve and is not evaluated.
/// Out of line: keeps the enumeration loop of [`NodeMoves::try_improve`],
/// which most visits never leave, small.
#[inline(never)]
fn destination_improves(
    graph: &Dag,
    state: &mut HcState<'_>,
    costing: &mut Costing,
    v: usize,
    p_new: usize,
    s_new: usize,
) -> bool {
    costing.evaluated += 1;
    if !costing.lifted {
        state.lift(graph, v);
        costing.lifted = true;
    }
    let bound = state.drop_lower_bound(graph, v, p_new, s_new);
    if bound.is_some_and(|b| b >= 0) {
        costing.pruned += 1;
        return false;
    }
    state.drop_eval(graph, v, p_new, s_new) < 0
}

/// `HC`'s neighbourhood: the node moves of an [`HcState`].
struct NodeMoves<'g, 's, 'a> {
    graph: &'g Dag,
    state: &'s mut HcState<'a>,
    p: usize,
}

impl Neighbourhood for NodeMoves<'_, '_, '_> {
    fn entities(&self) -> usize {
        self.graph.n()
    }

    /// [`HcState::node_can_gain`].
    fn may_improve(&mut self, v: usize) -> bool {
        self.state.node_can_gain(self.graph, v)
    }

    /// Tries the candidate moves of node `v` in the canonical order
    /// (superstep `s−1`, `s`, `s+1`; processors ascending) and applies the
    /// first improving one.
    fn try_improve(&mut self, v: usize, counts: &mut SearchCounts) -> bool {
        let (graph, state) = (self.graph, &mut *self.state);
        let (p_old, s_old) = (state.proc_of(v), state.step_of(v));
        let window = state.move_window(graph, v);
        let mut costing = Costing::default();
        let mut found = None;
        let s_candidates = [s_old.wrapping_sub(1), s_old, s_old + 1];
        'search: for &s_new in &s_candidates {
            if s_new == usize::MAX {
                continue; // wrapped below superstep 0
            }
            for p_new in 0..self.p {
                if p_new == p_old && s_new == s_old {
                    continue;
                }
                if !window.allows(p_new, s_new) {
                    continue;
                }
                if destination_improves(graph, state, &mut costing, v, p_new, s_new) {
                    found = Some((p_new, s_new));
                    break 'search;
                }
            }
        }
        counts.evaluated += costing.evaluated;
        counts.pruned += costing.pruned;
        if costing.lifted {
            state.unlift(graph, v);
        }
        if let Some((p_new, s_new)) = found {
            state.apply_move(graph, v, p_new, s_new);
        }
        found.is_some()
    }

    /// The node itself, its DAG neighbours, and every node of the supersteps
    /// whose tallies the move touched.
    fn enqueue_dirty(&self, v: usize, list: &mut SearchScratch) {
        list.push(v);
        self.graph.predecessors(v).for_each(|u| list.push(u));
        self.graph.successors(v).for_each(|w| list.push(w));
        for &s in self.state.last_affected_steps() {
            for x in self.state.nodes_in_superstep(s) {
                list.push(x);
            }
        }
    }
}

/// Improves `schedule` in place with the `HC` node-move hill climbing.
///
/// `HC` is defined on lazy schedules (Appendix A): the search runs on the
/// lazy communication schedule of the assignment, and what it returns
/// carries that schedule's lazy `Γ` (run [`hccs_improve`] afterwards to
/// optimize it).  A schedule whose own `Γ` is cheaper than the lazy one —
/// what [`hccs_improve`] returns — is handed back unchanged unless the search
/// gets strictly below its cost.
///
/// # Panics
///
/// Panics if the schedule's assignment violates a precedence constraint (the
/// underlying [`HcState::new`] reports the offending edge); schedules produced
/// by the crate's schedulers are always feasible.
pub fn hc_improve(
    dag: &Dag,
    machine: &Machine,
    schedule: &mut BspSchedule,
    config: &HillClimbConfig,
) -> HillClimbOutcome {
    let initial_cost = schedule.cost(dag, machine);
    // Taken rather than copied: `schedule.assignment` is rewritten from the
    // state below, and the lazy `Γ` of that assignment replaces `comm`.
    let mut state = HcState::new(dag, machine, std::mem::take(&mut schedule.assignment))
        .expect("hc_improve requires a precedence-feasible assignment");
    // The search starts from the lazy cost; when the given `Γ` beats it, the
    // given schedule is kept aside, since no search returns anything costlier
    // than it was given.
    let given = (initial_cost < state.total_cost())
        .then(|| (state.assignment(), std::mem::take(&mut schedule.comm)));
    let mut scratch = SearchScratch::new();
    scratch.enqueue_all(dag);
    let outcome = hc_search(dag, machine, &mut state, config, &mut scratch);
    schedule.assignment = state.into_assignment();
    schedule.relax_to_lazy(dag);
    schedule.normalize(dag);
    let mut outcome = HillClimbOutcome {
        initial_cost,
        final_cost: schedule.cost(dag, machine),
        ..outcome
    };
    if let Some((assignment, comm)) = given.filter(|_| outcome.final_cost >= initial_cost) {
        // The given schedule goes back, and none of the search's moves are
        // on it; its counts still say what the search did.
        (schedule.assignment, schedule.comm) = (assignment, comm);
        (outcome.final_cost, outcome.steps) = (initial_cost, 0);
    }
    outcome
}

/// The work-list `HC` search itself, operating on an existing [`HcState`]:
/// the caller seeds `scratch` with the nodes whose best move may have changed
/// (or [`SearchScratch::enqueue_all`] for a cold start) and the search
/// examines those plus whatever accepted moves dirty.  A drained work-list
/// triggers verification sweeps over all nodes until one accepts nothing,
/// which certifies the local minimum.  The costs are the state's lazy ones.
pub fn hc_search(
    graph: &Dag,
    machine: &Machine,
    state: &mut HcState<'_>,
    config: &HillClimbConfig,
    scratch: &mut SearchScratch,
) -> HillClimbOutcome {
    let initial_cost = state.total_cost();
    let p = machine.p();
    let mut moves = NodeMoves { graph, state, p };
    let outcome = drive(&mut moves, config, scratch, true, u64::MAX);
    HillClimbOutcome {
        initial_cost,
        final_cost: moves.state.total_cost(),
        ..outcome
    }
}

/// [`hc_search`] without the verification sweeps: it visits the seeded
/// nodes and whatever accepted moves dirty, and stops when the work-list
/// drains or after `max_visits` visits, so it costs what the seeds reach,
/// not `n` visits per sweep.  The result is not certified a local minimum.
pub(crate) fn hc_descend(
    graph: &Dag,
    machine: &Machine,
    state: &mut HcState<'_>,
    config: &HillClimbConfig,
    scratch: &mut SearchScratch,
    max_visits: u64,
) -> HillClimbOutcome {
    let initial_cost = state.total_cost();
    let mut moves = NodeMoves {
        graph,
        state,
        p: machine.p(),
    };
    let outcome = drive(&mut moves, config, scratch, false, max_visits);
    HillClimbOutcome {
        initial_cost,
        final_cost: moves.state.total_cost(),
        ..outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::CilkScheduler;
    use crate::init::{BspgScheduler, SourceScheduler};
    use crate::Scheduler;
    use dag_gen::fine::{cg, spmv, IterConfig, SpmvConfig};

    #[test]
    fn hc_never_increases_cost_and_keeps_validity() {
        let dag = spmv(&SpmvConfig {
            n: 16,
            density: 0.25,
            seed: 3,
        });
        let machine = Machine::uniform(4, 3, 5);
        for scheduler in [
            &BspgScheduler as &dyn Scheduler,
            &SourceScheduler as &dyn Scheduler,
        ] {
            let mut sched = scheduler.schedule(&dag, &machine);
            let before = sched.cost(&dag, &machine);
            let outcome = hc_improve(&dag, &machine, &mut sched, &HillClimbConfig::default());
            assert!(sched.validate(&dag, &machine).is_ok());
            assert!(outcome.final_cost <= before);
            assert_eq!(outcome.final_cost, sched.cost(&dag, &machine));
        }
    }

    #[test]
    fn hc_improves_a_deliberately_bad_schedule() {
        // Spread a chain across processors: HC should pull it back together.
        let dag = Dag::from_edges(
            6,
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
            vec![1; 6],
            vec![20; 6],
        )
        .unwrap();
        let machine = Machine::uniform(3, 2, 3);
        let assignment = bsp_model::Assignment {
            proc: vec![0, 1, 2, 0, 1, 2],
            superstep: vec![0, 1, 2, 3, 4, 5],
        };
        let mut sched = BspSchedule::from_assignment_lazy(&dag, assignment);
        let before = sched.cost(&dag, &machine);
        let outcome = hc_improve(&dag, &machine, &mut sched, &HillClimbConfig::default());
        assert!(sched.validate(&dag, &machine).is_ok());
        assert!(
            outcome.final_cost < before,
            "expected improvement from {before}, got {}",
            outcome.final_cost
        );
        assert!(outcome.steps > 0);
    }

    #[test]
    fn hc_respects_the_step_limit() {
        let dag = cg(&IterConfig {
            n: 8,
            density: 0.3,
            iterations: 1,
            seed: 1,
        });
        let machine = Machine::uniform(4, 5, 5);
        let mut sched = CilkScheduler::default().schedule(&dag, &machine);
        let outcome = hc_improve(
            &dag,
            &machine,
            &mut sched,
            &HillClimbConfig::with_max_steps(1),
        );
        assert!(outcome.steps <= 1);
        assert!(sched.validate(&dag, &machine).is_ok());
    }

    #[test]
    fn hc_reaches_a_local_minimum_on_small_instances() {
        let dag = spmv(&SpmvConfig {
            n: 8,
            density: 0.3,
            seed: 5,
        });
        let machine = Machine::uniform(2, 1, 2);
        let mut sched = BspgScheduler.schedule(&dag, &machine);
        let outcome = hc_improve(&dag, &machine, &mut sched, &HillClimbConfig::default());
        assert!(outcome.reached_local_minimum);
    }

    #[test]
    fn hc_counts_add_up_and_repeat() {
        let dag = cg(&IterConfig {
            n: 10,
            density: 0.3,
            iterations: 2,
            seed: 4,
        });
        for machine in [
            Machine::uniform(4, 3, 5),
            Machine::numa_binary_tree(8, 1, 5, 3),
        ] {
            let start = CilkScheduler::default().schedule(&dag, &machine);
            let run = || {
                let mut sched = start.clone();
                hc_improve(&dag, &machine, &mut sched, &HillClimbConfig::default())
            };
            let outcome = run();
            assert_eq!(outcome, run(), "the counts of a search repeat exactly");
            let (c, steps, n) = (outcome.counts, outcome.steps as u64, dag.n() as u64);
            assert!(outcome.reached_local_minimum && steps > 0);
            // The cold work-list and the certifying sweep visit every node.
            assert!(c.sweeps >= 1 && c.visits >= 2 * n, "{c:?}");
            // An accepted move passed the gate, was costed and not pruned.
            assert!(c.gated + steps <= c.visits, "{c:?}");
            assert!(c.pruned + steps <= c.evaluated, "{c:?}");
            // At most `3 · P` destinations per visit past the gate.
            let past_gate = c.visits - c.gated;
            assert!(c.evaluated <= 3 * machine.p() as u64 * past_gate, "{c:?}");
        }
    }

    #[test]
    fn hc_works_under_numa_machines() {
        let dag = cg(&IterConfig {
            n: 6,
            density: 0.3,
            iterations: 1,
            seed: 2,
        });
        let machine = Machine::numa_binary_tree(8, 1, 5, 3);
        let mut sched = CilkScheduler::default().schedule(&dag, &machine);
        let before = sched.cost(&dag, &machine);
        let outcome = hc_improve(&dag, &machine, &mut sched, &HillClimbConfig::default());
        assert!(sched.validate(&dag, &machine).is_ok());
        assert!(outcome.final_cost <= before);
    }
}
