//! Property tests for the batch-speculative parallel hill-climbing driver.
//!
//! Seeded random-case loops (the repo's offline stand-in for proptest, see
//! `tests/common`) over random DAGs, machines, and initial schedules:
//!
//! * the parallel search always returns a **valid** schedule with cost no
//!   worse than its input, and certifies a genuine local minimum (the serial
//!   driver cannot improve its result);
//! * a fixed seed + fixed batch order is **deterministic**: runs with
//!   different lane counts accept the exact same move sequence;
//! * the read-only speculative evaluation ([`HcCore::speculate_move`])
//!   agrees exactly with the mutate-and-rollback [`HcState::try_move`] on
//!   every feasible candidate — the invariant that makes "stale → re-enqueue,
//!   never mis-apply" sound.

mod common;

use bsp_model::{BspSchedule, Dag, Machine};
use bsp_sched::hill_climb::{
    hc_improve, hccs_improve, EvalScratch, HcState, HillClimbConfig, HillClimbOutcome, ParallelHc,
    SearchScratch,
};
use bsp_sched::init::SourceScheduler;
use bsp_sched::Scheduler;
use common::{random_dag, random_machine, rng_for_case};
use rand::Rng;

const CASES: u64 = 24;

/// `hc_improve` with the search handed to a [`ParallelHc`] of `threads` lanes
/// (`hc_improve` itself always runs the serial driver).
fn parallel_hc_improve(
    dag: &Dag,
    machine: &Machine,
    schedule: &mut BspSchedule,
    threads: usize,
) -> HillClimbOutcome {
    schedule.relax_to_lazy(dag);
    let mut state = HcState::new(dag, machine, std::mem::take(&mut schedule.assignment))
        .expect("Source schedules are lazily feasible");
    let mut scratch = SearchScratch::new();
    scratch.enqueue_all(dag);
    let config = HillClimbConfig::default();
    let mut outcome =
        ParallelHc::new(threads).search(dag, machine, &mut state, &config, &mut scratch, true);
    schedule.assignment = state.into_assignment();
    schedule.relax_to_lazy(dag);
    schedule.normalize(dag);
    outcome.final_cost = schedule.cost(dag, machine);
    outcome
}

#[test]
fn parallel_hc_is_valid_improving_and_certified() {
    for case in 0..CASES {
        let mut rng = rng_for_case(0x0A21, case);
        let dag = random_dag(&mut rng, 16);
        let machine = random_machine(&mut rng);
        let init = SourceScheduler.schedule(&dag, &machine);
        let before = init.cost(&dag, &machine);

        let mut sched = init.clone();
        let outcome = parallel_hc_improve(&dag, &machine, &mut sched, 3);
        assert!(
            sched.validate(&dag, &machine).is_ok(),
            "case {case}: invalid schedule"
        );
        assert!(outcome.final_cost <= before, "case {case}: cost went up");
        assert!(outcome.reached_local_minimum, "case {case}: not certified");

        // The certification is real: the serial driver finds nothing left.
        let serial_after = hc_improve(&dag, &machine, &mut sched, &HillClimbConfig::default());
        assert_eq!(
            serial_after.steps, 0,
            "case {case}: serial driver improved the parallel minimum"
        );
    }
}

#[test]
fn parallel_hc_is_deterministic_across_lane_counts() {
    for case in 0..CASES {
        let mut rng = rng_for_case(0x9A55, case);
        let dag = random_dag(&mut rng, 16);
        let machine = random_machine(&mut rng);
        let init = SourceScheduler.schedule(&dag, &machine);

        let run = |threads: usize| {
            let mut sched = init.clone();
            let outcome = parallel_hc_improve(&dag, &machine, &mut sched, threads);
            (outcome, sched.assignment)
        };
        let (out_a, asg_a) = run(2);
        let (out_b, asg_b) = run(5);
        assert_eq!(out_a, out_b, "case {case}: outcomes diverged");
        assert_eq!(asg_a, asg_b, "case {case}: assignments diverged");
    }
}

#[test]
fn speculative_gain_matches_try_move_on_random_states() {
    for case in 0..CASES {
        let mut rng = rng_for_case(0x5BEC, case);
        let dag = random_dag(&mut rng, 12);
        let machine = random_machine(&mut rng);
        let init = SourceScheduler.schedule(&dag, &machine);
        let mut state = HcState::new(&dag, &machine, init.assignment)
            .expect("Source schedules are lazily feasible");
        let mut lane_scratch = EvalScratch::new();

        for v in 0..dag.n() {
            {
                let (core, scratch) = state.parts_mut();
                core.warm_summaries(scratch, &dag, v);
            }
            lane_scratch.invalidate_prepared();
            let s_old = state.step_of(v);
            for s_new in [s_old.wrapping_sub(1), s_old, s_old + 1] {
                if s_new == usize::MAX {
                    continue;
                }
                for p_new in 0..machine.p() {
                    if !state.move_is_valid(&dag, v, p_new, s_new) {
                        continue;
                    }
                    let speculated =
                        state
                            .core()
                            .speculate_move(&mut lane_scratch, &dag, v, p_new, s_new);
                    let tried = state.try_move(&dag, v, p_new, s_new);
                    assert_eq!(
                        speculated, tried,
                        "case {case}: speculate/try disagree at v={v} p={p_new} s={s_new}"
                    );
                }
            }
        }
    }
}

#[test]
fn reused_speculative_delta_matches_fresh_try_move_across_random_walks() {
    // The commit fast path applies a lane's speculative delta directly, with
    // no second `try_move`.  Its soundness condition is that on *any*
    // reachable state — not just the initial schedule — a speculation and a
    // fresh `try_move` agree exactly.  Walk hundreds of random moves per
    // case, committing about half of the feasible ones so later probes run
    // against genuinely evolved states, and check the equality at every step.
    for case in 0..CASES {
        let mut rng = rng_for_case(0xFEE1, case);
        let dag = random_dag(&mut rng, 14);
        let machine = random_machine(&mut rng);
        let init = SourceScheduler.schedule(&dag, &machine);
        let mut state = HcState::new(&dag, &machine, init.assignment)
            .expect("Source schedules are lazily feasible");
        let mut lane_scratch = EvalScratch::new();

        let mut checked = 0usize;
        for _ in 0..400 {
            let v = rng.gen_range(0..dag.n());
            let s_old = state.step_of(v);
            let s_new = match rng.gen_range(0u32..3) {
                0 => match s_old.checked_sub(1) {
                    Some(s) => s,
                    None => continue,
                },
                1 => s_old,
                _ => s_old + 1,
            };
            let p_new = rng.gen_range(0..machine.p());
            if !state.move_is_valid(&dag, v, p_new, s_new) {
                continue;
            }
            {
                let (core, scratch) = state.parts_mut();
                core.warm_summaries(scratch, &dag, v);
            }
            lane_scratch.invalidate_prepared();
            let speculated = state
                .core()
                .speculate_move(&mut lane_scratch, &dag, v, p_new, s_new);
            let tried = state.try_move(&dag, v, p_new, s_new);
            assert_eq!(
                speculated, tried,
                "case {case}: speculate/try disagree at v={v} p={p_new} s={s_new}"
            );
            checked += 1;
            // Commit roughly half the feasible moves (improving or not) so
            // the walk explores random reachable states.
            if rng.gen::<bool>() {
                let applied = state.apply_move(&dag, v, p_new, s_new);
                assert_eq!(
                    applied, tried,
                    "case {case}: apply drifted from try at v={v} p={p_new} s={s_new}"
                );
            }
        }
        assert!(checked > 0, "case {case}: walk probed no feasible move");
    }
}

#[test]
fn parallel_driver_reuse_across_searches_stays_consistent() {
    // One ParallelHc reused across many searches (the refiner's usage
    // pattern) must behave identically to a fresh driver per search.
    let mut driver = ParallelHc::new(3);
    for case in 0..CASES {
        let mut rng = rng_for_case(0xD81F, case);
        let dag = random_dag(&mut rng, 14);
        let machine = random_machine(&mut rng);
        let init = SourceScheduler.schedule(&dag, &machine);
        let config = HillClimbConfig::default().with_threads(3);

        let mut sched_reused = init.clone();
        sched_reused.relax_to_lazy(&dag);
        let mut state =
            HcState::new(&dag, &machine, sched_reused.assignment.clone()).expect("feasible");
        let mut scratch = SearchScratch::new();
        scratch.enqueue_all(&dag);
        let reused = driver.search(&dag, &machine, &mut state, &config, &mut scratch, true);
        let reused_assignment = state.into_assignment();

        let mut sched_fresh = init.clone();
        let fresh = parallel_hc_improve(&dag, &machine, &mut sched_fresh, 3);
        assert_eq!(reused.steps, fresh.steps, "case {case}");
        assert_eq!(reused_assignment, sched_fresh.assignment, "case {case}");
    }
}

#[test]
fn serial_fallback_triggers_and_stays_lane_count_deterministic() {
    // A long chain is the adaptive controller's worst case: every candidate
    // claims the superstep cells its predecessor claimed, so batches stay
    // width-1 and the driver must fall back to the serial search after
    // `FALLBACK_PATIENCE` narrow rounds.  The fallback threshold is a
    // constant (not lane-derived), so 2 and 5 lanes must still agree move
    // for move.
    let n = 120;
    let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
    let work: Vec<u64> = (0..n as u64).map(|i| 1 + i % 7).collect();
    let comm: Vec<u64> = (0..n as u64).map(|i| i % 5).collect();
    let dag = Dag::from_edges(n, &edges, work, comm).expect("a chain is acyclic");
    let machine = Machine::uniform(4, 1, 5);
    let init = SourceScheduler.schedule(&dag, &machine);
    let before = init.cost(&dag, &machine);

    let run = |threads: usize| {
        let mut sched = init.clone();
        sched.relax_to_lazy(&dag);
        let mut state = HcState::new(&dag, &machine, sched.assignment.clone()).expect("feasible");
        let mut scratch = SearchScratch::new();
        scratch.enqueue_all(&dag);
        let mut driver = ParallelHc::new(threads);
        let config = HillClimbConfig::default().with_threads(threads);
        let outcome = driver.search(&dag, &machine, &mut state, &config, &mut scratch, true);
        (
            outcome,
            state.into_assignment(),
            driver.stats().serial_fallback,
        )
    };
    let (out_a, asg_a, fell_a) = run(2);
    let (out_b, asg_b, fell_b) = run(5);
    assert!(fell_a, "2 lanes: chain did not trigger the serial fallback");
    assert!(fell_b, "5 lanes: chain did not trigger the serial fallback");
    assert_eq!(out_a, out_b, "outcomes diverged across lane counts");
    assert_eq!(asg_a, asg_b, "assignments diverged across lane counts");
    assert!(out_a.final_cost <= before, "fallback worsened the schedule");
    assert!(out_a.reached_local_minimum, "fallback did not certify");
}

#[test]
fn parallel_hccs_is_valid_and_never_worsens() {
    for case in 0..CASES {
        let mut rng = rng_for_case(0xCC5A, case);
        let dag = random_dag(&mut rng, 14);
        let machine = random_machine(&mut rng);
        let mut sched = SourceScheduler.schedule(&dag, &machine);
        let before = sched.cost(&dag, &machine);
        let outcome = hccs_improve(
            &dag,
            &machine,
            &mut sched,
            &HillClimbConfig::default().with_threads(4),
        );
        assert!(
            sched.validate(&dag, &machine).is_ok(),
            "case {case}: invalid schedule"
        );
        assert!(outcome.final_cost <= before, "case {case}: cost went up");
        assert_eq!(outcome.final_cost, sched.cost(&dag, &machine));
    }
}
