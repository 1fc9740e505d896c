//! Differential tests for the `HC` driver's candidate loop.
//!
//! The serial driver used to cost each of a node's `3 · P` destinations with
//! a full `try_move` (patch every old and new contribution, read the delta,
//! roll everything back).  It now lifts the node out of the tallies once,
//! costs each destination as a drop onto the lifted state, and skips
//! destinations whose `O(1)` lower bound is already non-negative — under the
//! promise that the sequence of accepted moves does not change.  The
//! [`oracle`] module below keeps the replaced loop verbatim; every test
//! asserts that the library's driver ends in exactly the oracle's
//! `Assignment`, step count, cost and local-minimum flag.

use bsp_model::{Dag, Machine};
use bsp_sched::baselines::CilkScheduler;
use bsp_sched::hill_climb::{hc_search, HcState, HillClimbConfig, SearchScratch};
use bsp_sched::init::{BspgScheduler, SourceScheduler};
use bsp_sched::Scheduler;
use dag_gen::{cg, coarse_dag, exp, spmv, CoarseAlgorithm, CoarseConfig, IterConfig, SpmvConfig};

/// The work-list driver as it was before the lift/drop evaluator, moved here
/// unchanged except that the wall-clock and cancellation polls are gone (the
/// step limit, which is exact, stays).
mod oracle {
    use bsp_model::Dag;
    use bsp_sched::hill_climb::{HcState, HillClimbOutcome};
    use std::collections::VecDeque;

    fn try_improve_node(graph: &Dag, state: &mut HcState<'_>, v: usize, p: usize) -> bool {
        if !state.node_can_gain(graph, v) {
            return false;
        }
        let (p_old, s_old) = (state.proc_of(v), state.step_of(v));
        let window = state.move_window(graph, v);
        let s_candidates = [s_old.wrapping_sub(1), s_old, s_old + 1];
        for &s_new in &s_candidates {
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
                if state.try_move(graph, v, p_new, s_new) < 0 {
                    state.apply_move(graph, v, p_new, s_new);
                    return true;
                }
            }
        }
        false
    }

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

    /// `hc_search` over a work-list seeded with `seeds` (in order).
    pub fn hc_search(
        graph: &Dag,
        p: usize,
        state: &mut HcState<'_>,
        max_steps: usize,
        seeds: &[usize],
    ) -> HillClimbOutcome {
        let initial_cost = state.total_cost();
        let n = graph.n();
        let mut in_queue = vec![false; n];
        let mut queue = VecDeque::new();
        for &v in seeds {
            if !in_queue[v] {
                in_queue[v] = true;
                queue.push_back(v);
            }
        }
        let mut steps = 0usize;
        let mut reached_local_minimum = false;

        'outer: loop {
            while let Some(v) = queue.pop_front() {
                in_queue[v] = false;
                if steps >= max_steps {
                    break 'outer;
                }
                if try_improve_node(graph, state, v, p) {
                    steps += 1;
                    enqueue_dirty(state, graph, v, &mut queue, &mut in_queue);
                }
            }
            let mut sweep_improved = false;
            for v in 0..n {
                if steps >= max_steps {
                    break 'outer;
                }
                if try_improve_node(graph, state, v, p) {
                    steps += 1;
                    sweep_improved = true;
                    enqueue_dirty(state, graph, v, &mut queue, &mut in_queue);
                }
            }
            if !sweep_improved {
                reached_local_minimum = true;
                break;
            }
        }
        HillClimbOutcome {
            steps,
            initial_cost,
            final_cost: state.total_cost(),
            reached_local_minimum,
        }
    }
}

/// Runs the library driver and the oracle from clones of `state` over the
/// same seeded work-list; asserts identical outcomes and returns the
/// library's end state with its step count.
fn assert_same_trajectory<'a>(
    graph: &Dag,
    machine: &Machine,
    state: &HcState<'a>,
    max_steps: usize,
    seeds: &[usize],
    what: &str,
) -> (HcState<'a>, usize) {
    let mut ours = state.clone();
    let mut scratch = SearchScratch::new();
    for &v in seeds {
        scratch.enqueue(v);
    }
    let config = HillClimbConfig::with_max_steps(max_steps);
    let got = hc_search(graph, machine, &mut ours, &config, &mut scratch);

    let mut theirs = state.clone();
    let want = oracle::hc_search(graph, machine.p(), &mut theirs, max_steps, seeds);

    assert_eq!(got, want, "{what}: outcome");
    assert_eq!(
        ours.assignment(),
        theirs.assignment(),
        "{what}: final assignment"
    );
    (ours, got.steps)
}

/// Every family of the benchmark's workloads, at its `--smoke` sizes, on the
/// benchmark's two machines, from each kind of starting schedule, stopped
/// after one move, after seven, and at the certified local minimum.
#[test]
fn driver_matches_the_oracle_on_the_benchmark_families() {
    let fine = |n: usize, iterations: usize, seed: u64| IterConfig {
        n,
        density: 8.0 / n as f64,
        iterations,
        seed,
    };
    let coarse = |algorithm, iterations| {
        coarse_dag(&CoarseConfig {
            algorithm,
            iterations,
        })
    };
    let dags = [
        (
            "spmv",
            spmv(&SpmvConfig {
                n: 60,
                density: 8.0 / 60.0,
                seed: 1,
            }),
        ),
        ("cg", cg(&fine(30, 2, 2))),
        ("exp", exp(&fine(30, 3, 3))),
        ("pagerank", coarse(CoarseAlgorithm::PageRank, 100)),
        ("bicgstab", coarse(CoarseAlgorithm::BiCgStab, 100)),
    ];
    let mut accepted = 0usize;
    for (family, dag) in &dags {
        let all: Vec<usize> = (0..dag.n()).collect();
        for machine in [
            Machine::uniform(4, 3, 5),
            Machine::numa_binary_tree(8, 3, 5, 3),
        ] {
            let starts: [(&str, &dyn Scheduler); 3] = [
                ("BSPg", &BspgScheduler),
                ("Source", &SourceScheduler),
                ("Cilk", &CilkScheduler::default()),
            ];
            for (start, scheduler) in starts {
                let assignment = scheduler.schedule(dag, &machine).assignment;
                let state = HcState::new(dag, &machine, assignment)
                    .expect("scheduler output is lazily feasible");
                for max_steps in [1, 7, usize::MAX] {
                    let what = format!(
                        "{family} (n = {}), P = {}, {start} start, max_steps = {max_steps}",
                        dag.n(),
                        machine.p()
                    );
                    let (_, steps) =
                        assert_same_trajectory(dag, &machine, &state, max_steps, &all, &what);
                    accepted += steps;
                }
                // A seeded work-list: a third of the nodes and whatever their
                // moves dirty, then the verification sweeps.
                let what = format!("{family}, P = {}, {start} start, seeded", machine.p());
                let seeds = &all[..dag.n() / 3];
                assert_same_trajectory(dag, &machine, &state, usize::MAX, seeds, &what);
            }
        }
    }
    assert!(
        accepted > 1000,
        "only {accepted} accepted moves were compared"
    );
}
