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
//! after its preliminary experiments, and stop at a local minimum or when the
//! time limit expires.
//!
//! [`hc_improve`] is the entry point; [`hc_search`] is the work-list driver
//! under it, over an existing [`HcState`] and a caller-seeded queue (what the
//! oracle and allocation tests drive directly).
//!
//! ## Work-list driving
//!
//! A naive driver rescans all `n` nodes every pass even when a pass changed
//! almost nothing, so the tail of the search — many passes, few accepted
//! moves — costs `O(n · P)` per pass.  Both searches here instead keep an
//! FM-style dirty work-list: after an accepted move only the entities whose
//! best move can actually have changed are re-enqueued (for `HC`: the moved
//! node, its DAG neighbours, and the nodes of every superstep whose tallies
//! the move touched; for `HCcs`: the transfers whose placement window covers
//! a touched communication phase).  Because the dirty-set rule is a sound
//! over-approximation *per move* but the body-cost `max` can hide
//! second-order interactions, a full verification sweep runs whenever the
//! work-list drains; the search only reports a local minimum when that sweep
//! accepts nothing.

mod hccs;
mod state;

pub use hccs::hccs_improve;
pub use state::{HcState, MoveWindow};

use bsp_model::{BspSchedule, Dag, Machine};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Configuration shared by the `HC` and `HCcs` local searches.
#[derive(Debug, Clone)]
pub struct HillClimbConfig {
    /// Wall-clock limit for the search.
    pub time_limit: Duration,
    /// Upper bound on the number of accepted improvement steps
    /// (`usize::MAX` = unlimited).
    pub max_steps: usize,
    /// Cooperative cancellation, polled at the same cadence as the clock.
    /// Both searches are anytime, so a cancelled run still returns a valid
    /// schedule no worse than its input.  Inert by default.
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
    /// A configuration with the given time limit.
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
    /// Number of accepted improvement steps.
    pub steps: usize,
    /// Cost before the search.
    pub initial_cost: u64,
    /// Cost after the search.
    pub final_cost: u64,
    /// `true` if the search stopped because it reached a local minimum (rather
    /// than the time or step limit).
    pub reached_local_minimum: bool,
}

/// Atomic instrumentation counters for perf work, compiled in only with the
/// `hc-debug-counters` feature: node visits, pruning-gate passes, lifts, and
/// candidate destinations of the `HC` driver (`EVALS` = `PRUNED` + `DROPS`).
#[cfg(feature = "hc-debug-counters")]
pub mod debug_counters {
    use std::sync::atomic::AtomicU64;
    pub static VISITS: AtomicU64 = AtomicU64::new(0);
    pub static GATE_PASS: AtomicU64 = AtomicU64::new(0);
    pub static EVALS: AtomicU64 = AtomicU64::new(0);
    pub static LIFTS: AtomicU64 = AtomicU64::new(0);
    pub static DROPS: AtomicU64 = AtomicU64::new(0);
    pub static PRUNED: AtomicU64 = AtomicU64::new(0);
}

/// Reusable work-list buffers for [`hc_search`].  Owning these outside the
/// search lets a caller run search after search without re-allocating the
/// queue each time.
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

    /// Pre-sizes the buffers for graphs of `n` nodes, so later enqueues never
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
        if !self.in_queue[v] {
            self.in_queue[v] = true;
            self.queue.push_back(v);
        }
    }

    /// Enqueues every node of `graph`.
    pub fn enqueue_all(&mut self, graph: &Dag) {
        self.reserve(graph.n());
        for v in 0..graph.n() {
            self.enqueue(v);
        }
    }
}

/// Bumps one of the [`debug_counters`]; compiles to nothing without the
/// `hc-debug-counters` feature.
macro_rules! count {
    ($counter:ident) => {
        #[cfg(feature = "hc-debug-counters")]
        debug_counters::$counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    };
}

/// Costs one admissible destination of `v`; `true` if moving there lowers the
/// total cost.  `v` is lifted out of the tallies at its first admissible
/// destination (on chain-like DAGs most gated nodes have none) and every
/// destination is costed as a drop onto that lifted state; one whose `O(1)`
/// lower bound is already non-negative cannot improve and is not evaluated.
/// Out of line: keeps the enumeration loop of [`try_improve_node`], which most
/// visits never leave, small.
#[inline(never)]
fn destination_improves(
    graph: &Dag,
    state: &mut HcState<'_>,
    lifted: &mut bool,
    v: usize,
    p_new: usize,
    s_new: usize,
) -> bool {
    count!(EVALS);
    if !*lifted {
        state.lift(graph, v);
        *lifted = true;
        count!(LIFTS);
    }
    let bound = state.drop_lower_bound(graph, v, p_new, s_new);
    if bound.is_some_and(|b| b >= 0) {
        count!(PRUNED);
        return false;
    }
    count!(DROPS);
    state.drop_eval(graph, v, p_new, s_new) < 0
}

/// Tries the candidate moves of node `v` in the canonical order (superstep
/// `s−1`, `s`, `s+1`; processors ascending) and applies the first improving
/// one.  Returns `true` if a move was accepted.
fn try_improve_node(graph: &Dag, state: &mut HcState<'_>, v: usize, p: usize) -> bool {
    count!(VISITS);
    if !state.node_can_gain(graph, v) {
        return false;
    }
    count!(GATE_PASS);
    let (p_old, s_old) = (state.proc_of(v), state.step_of(v));
    let window = state.move_window(graph, v);
    let mut lifted = false;
    let mut found = None;
    let s_candidates = [s_old.wrapping_sub(1), s_old, s_old + 1];
    'search: for &s_new in &s_candidates {
        if s_new == usize::MAX {
            continue; // wrapped below superstep 0
        }
        for p_new in 0..p {
            if p_new == p_old && s_new == s_old {
                continue;
            }
            if !window.allows(p_new, s_new) {
                continue;
            }
            if destination_improves(graph, state, &mut lifted, v, p_new, s_new) {
                found = Some((p_new, s_new));
                break 'search;
            }
        }
    }
    if lifted {
        state.unlift(graph, v);
    }
    if let Some((p_new, s_new)) = found {
        state.apply_move(graph, v, p_new, s_new);
    }
    found.is_some()
}

/// Re-enqueues everything whose best move can have changed after an accepted
/// move of `v`: the node itself, its DAG neighbours, and every node of the
/// supersteps whose tallies the move touched.
fn enqueue_dirty(
    state: &HcState<'_>,
    graph: &Dag,
    v: usize,
    queue: &mut VecDeque<usize>,
    in_queue: &mut [bool],
) {
    let push = |x: usize, queue: &mut VecDeque<usize>, in_queue: &mut [bool]| {
        if !in_queue[x] {
            in_queue[x] = true;
            queue.push_back(x);
        }
    };
    push(v, queue, in_queue);
    for u in graph.predecessors(v) {
        push(u, queue, in_queue);
    }
    for w in graph.successors(v) {
        push(w, queue, in_queue);
    }
    for &s in state.last_affected_steps() {
        for &x in state.nodes_in_superstep(s) {
            push(x, queue, in_queue);
        }
    }
}

/// Improves `schedule` in place with the `HC` node-move hill climbing.
///
/// The schedule's communication part is replaced by the lazy schedule of its
/// assignment (HC is defined on lazy schedules, Appendix A); run
/// [`hccs_improve`] afterwards to optimize the communication schedule.
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
    // Taken rather than copied: `schedule.assignment` is rewritten from the
    // state below, and the lazy `Γ` of that assignment replaces `comm`.
    let mut state = HcState::new(dag, machine, std::mem::take(&mut schedule.assignment))
        .expect("hc_improve requires a precedence-feasible assignment");
    let mut scratch = SearchScratch::new();
    scratch.enqueue_all(dag);
    let mut outcome = hc_search(dag, machine, &mut state, config, &mut scratch);
    schedule.assignment = state.into_assignment();
    schedule.relax_to_lazy(dag);
    schedule.normalize(dag);
    outcome.final_cost = schedule.cost(dag, machine);
    outcome
}

/// The work-list `HC` search itself, operating on an existing [`HcState`]:
/// the caller seeds `scratch` with the nodes whose best move may have changed
/// (or [`SearchScratch::enqueue_all`] for a cold start) and the search
/// examines those plus whatever accepted moves dirty.  A drained work-list
/// triggers verification sweeps over all nodes until one accepts nothing,
/// which certifies the local minimum.
pub fn hc_search(
    graph: &Dag,
    machine: &Machine,
    state: &mut HcState<'_>,
    config: &HillClimbConfig,
    scratch: &mut SearchScratch,
) -> HillClimbOutcome {
    let start = Instant::now();
    let initial_cost = state.total_cost();
    let n = graph.n();
    let p = machine.p();
    if scratch.in_queue.len() < n {
        scratch.in_queue.resize(n, false);
    }
    let SearchScratch { queue, in_queue } = scratch;
    let mut steps = 0usize;
    let mut reached_local_minimum = false;

    // Reading the clock (or the cancel token) per visit would dominate gated
    // visits; poll both on the first visit — a token fired before the search
    // moves nothing — and every 64th after it (the step limit stays exact).
    let mut visit = 0u32;
    let over_limit = |visit: &mut u32, steps: usize| {
        *visit = visit.wrapping_add(1);
        steps >= config.max_steps
            || (*visit & 63 == 1
                && (start.elapsed() > config.time_limit || config.cancel.is_cancelled()))
    };

    'outer: loop {
        while let Some(v) = queue.pop_front() {
            in_queue[v] = false;
            if over_limit(&mut visit, steps) {
                break 'outer;
            }
            if try_improve_node(graph, state, v, p) {
                steps += 1;
                enqueue_dirty(state, graph, v, queue, in_queue);
            }
        }
        let mut sweep_improved = false;
        for v in 0..n {
            if over_limit(&mut visit, steps) {
                break 'outer;
            }
            if try_improve_node(graph, state, v, p) {
                steps += 1;
                sweep_improved = true;
                enqueue_dirty(state, graph, v, queue, in_queue);
            }
        }
        if !sweep_improved {
            reached_local_minimum = true;
            break;
        }
    }
    // Leave the scratch clean for the next phase: whatever is still marked
    // enqueued (after a limit-triggered early exit) is drained here.
    while let Some(v) = queue.pop_front() {
        in_queue[v] = false;
    }
    #[cfg(feature = "hc-debug-counters")]
    if std::env::var_os("HC_DEBUG_TIMING").is_some() {
        use std::sync::atomic::Ordering::Relaxed;
        eprintln!("[hc] search done at {:?}, steps {steps}", start.elapsed());
        eprintln!(
            "[hc] visits {} gate-pass {} evals {} lifts {} drops {} pruned {}",
            debug_counters::VISITS.swap(0, Relaxed),
            debug_counters::GATE_PASS.swap(0, Relaxed),
            debug_counters::EVALS.swap(0, Relaxed),
            debug_counters::LIFTS.swap(0, Relaxed),
            debug_counters::DROPS.swap(0, Relaxed),
            debug_counters::PRUNED.swap(0, Relaxed),
        );
    }
    HillClimbOutcome {
        steps,
        initial_cost,
        final_cost: state.total_cost(),
        reached_local_minimum,
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
