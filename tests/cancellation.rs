//! Property tests for cancellation soundness: firing the [`CancelToken`] at
//! a random point during a pipeline run must never produce an invalid
//! schedule, and never one costing more than the best raw initializer
//! schedule — the anytime contract of every search stage.
//!
//! As everywhere in this repo's integration tests, the "random points" come
//! from seeded deterministic loops (`rng_for_case` reproduces any failure);
//! the cancellation itself fires from a second thread after a random delay,
//! so the token trips at an arbitrary poll point of whichever stage happens
//! to be running.

mod common;

use bsp_sched::cancel::CancelToken;
use bsp_sched::pipeline::{Pipeline, PipelineConfig};
use common::{random_dag, random_machine, rng_for_case};
use rand::Rng;
use std::time::{Duration, Instant};

const CASES: u64 = 12;

/// Fires `cancel` from a second thread after `delay`, runs `f`, then joins.
fn with_cancellation<R>(cancel: CancelToken, delay: Duration, f: impl FnOnce() -> R) -> R {
    let trigger = std::thread::spawn(move || {
        std::thread::sleep(delay);
        cancel.cancel();
    });
    let result = f();
    trigger.join().expect("cancel trigger thread");
    result
}

#[test]
fn cancelled_pipeline_runs_stay_valid_and_never_beat_the_initializer_bound() {
    for case in 0..CASES {
        let mut rng = rng_for_case(0xCA9C, case);
        let dag = random_dag(&mut rng, 24);
        let machine = random_machine(&mut rng);
        let cancel = CancelToken::new();
        let config = PipelineConfig::default().with_cancel(cancel.clone());
        let delay = Duration::from_micros(rng.gen_range(0..8_000));
        let report = with_cancellation(cancel, delay, || {
            Pipeline::new(config).run_report(&dag, &machine)
        });
        assert!(
            report.schedule.validate(&dag, &machine).is_ok(),
            "case {case}: cancelled pipeline returned an invalid schedule"
        );
        assert!(
            report.final_cost <= report.init_cost,
            "case {case}: cancelled pipeline cost {} exceeds initializer cost {}",
            report.final_cost,
            report.init_cost
        );
        assert_eq!(
            report.final_cost,
            report.schedule.cost(&dag, &machine),
            "case {case}: reported cost is stale"
        );
    }
}

#[test]
fn pipeline_with_an_already_expired_deadline_still_returns_a_valid_schedule() {
    for case in 0..4 {
        let mut rng = rng_for_case(0xDEAD, case);
        let dag = random_dag(&mut rng, 20);
        let machine = random_machine(&mut rng);
        let config =
            PipelineConfig::default().with_cancel(CancelToken::with_deadline(Instant::now()));
        let report = Pipeline::new(config).run_report(&dag, &machine);
        assert!(
            report.schedule.validate(&dag, &machine).is_ok(),
            "case {case}"
        );
        assert!(report.final_cost <= report.init_cost, "case {case}");
    }
}

/// The funnel reduction and the sweeps sit in front of everything a token can
/// stop, so a run cancelled before it searches still answers for the caller's
/// DAG: the cheaper of the two starts — an initializer's schedule on the
/// width its sweep kept, sources placed — on the funnel DAG (or the trivial
/// one, if the floor fires), projected.
#[test]
fn a_run_cancelled_before_the_branches_returns_the_projected_initializer_schedule() {
    use bsp_model::{BspSchedule, Machine};
    use bsp_sched::hill_climb::HillClimbConfig;
    use bsp_sched::init::{BspgScheduler, SourceScheduler};
    use bsp_sched::{Funnel, Scheduler};
    let dag = dag_gen::spmv(&dag_gen::SpmvConfig {
        n: 40,
        density: 0.2,
        seed: 3,
    });
    // Without a token the search improves at least one of the starts.
    let mut improved = false;
    for machine in [
        Machine::uniform(4, 3, 5),
        Machine::numa_binary_tree(8, 3, 5, 3),
    ] {
        let searched = Pipeline::new(PipelineConfig::default()).run_report(&dag, &machine);
        improved |= searched.local_search_cost < searched.init_cost;
        // `hill_climb.cancel` is the run's one token.
        let cancel = CancelToken::new();
        cancel.cancel();
        let config = PipelineConfig {
            hill_climb: HillClimbConfig {
                cancel,
                ..HillClimbConfig::default()
            },
            ..PipelineConfig::default()
        };
        let report = Pipeline::new(config).run_report(&dag, &machine);
        assert_eq!(report.init_cost, searched.init_cost);
        assert!(report.schedule.validate(&dag, &machine).is_ok());
        assert_eq!(report.final_cost, report.schedule.cost(&dag, &machine));

        let funnel = Funnel::contract(&dag, machine.p()).expect("spmv is all funnels");
        let coarse = funnel.dag();
        assert_eq!(report.funnel_nodes, coarse.n());
        assert!(coarse.n() * 4 < dag.n(), "{} clusters", coarse.n());
        let inits: [&dyn Scheduler; 2] = [&BspgScheduler, &SourceScheduler];
        let mut starts = Vec::new();
        let kept = report.branches.iter().filter(|b| b.kept);
        for (init, branch) in inits.into_iter().zip(kept) {
            assert_eq!(branch.init_name, init.name());
            let start = common::placed_start(init, coarse, &machine, branch.width);
            assert_eq!(branch.init_cost, start.cost(coarse, &machine));
            starts.push(start);
        }
        // No search moved anything.
        assert_eq!(report.local_search_cost, report.init_cost);
        starts.push(BspSchedule::trivial(coarse));
        // `min_by_key` keeps the first of equal minima: ties go to the
        // earlier start, and the floor wants strictly less.
        let best = starts
            .iter()
            .min_by_key(|s| s.cost(coarse, &machine))
            .unwrap();
        assert_eq!(report.schedule, funnel.project(best));
        assert_eq!(report.final_cost, best.cost(coarse, &machine));
    }
    assert!(improved, "no search moved without the token");
}

/// Larger DAGs and later tokens than the case above: the token lands in the
/// sweep, in `HC` or in `HCcs` rather than before them.
#[test]
fn cancelled_heuristics_runs_on_larger_dags_stay_valid() {
    for case in 0..CASES {
        let mut rng = rng_for_case(0x3111, case);
        let dag = random_dag(&mut rng, 48);
        if dag.n() < 32 {
            continue;
        }
        let machine = random_machine(&mut rng);
        let cancel = CancelToken::new();
        let config = PipelineConfig::default().with_cancel(cancel.clone());
        let delay = Duration::from_micros(rng.gen_range(0..12_000));
        let report = with_cancellation(cancel, delay, || {
            Pipeline::new(config).run_report(&dag, &machine)
        });
        assert!(
            report.schedule.validate(&dag, &machine).is_ok(),
            "case {case}: cancelled run returned an invalid schedule"
        );
        assert_eq!(report.final_cost, report.schedule.cost(&dag, &machine));
        assert!(report.final_cost <= report.init_cost, "case {case}");
    }
}

#[test]
fn hill_climbing_respects_a_pre_fired_token() {
    use bsp_sched::hill_climb::{hc_improve, hccs_improve, HillClimbConfig};
    use bsp_sched::init::SourceScheduler;
    use bsp_sched::Scheduler;
    for case in 0..CASES {
        let mut rng = rng_for_case(0x41C0, case);
        let dag = random_dag(&mut rng, 20);
        let machine = random_machine(&mut rng);
        let cancel = CancelToken::new();
        cancel.cancel();
        let config = HillClimbConfig {
            cancel,
            ..HillClimbConfig::default()
        };
        let mut sched = SourceScheduler.schedule(&dag, &machine);
        let given = sched.clone();
        let before = sched.cost(&dag, &machine);
        // Both searches poll the token on their first visit, so neither
        // visits anything, and the schedule's cost is left as it was.
        let hc = hc_improve(&dag, &machine, &mut sched, &config);
        assert!(sched.validate(&dag, &machine).is_ok(), "case {case}");
        assert_eq!((hc.steps, hc.counts.visits), (0, 0), "case {case}");
        assert_eq!(hc.final_cost, before, "case {case}");
        let hccs = hccs_improve(&dag, &machine, &mut sched, &config);
        assert!(sched.validate(&dag, &machine).is_ok(), "case {case}");
        assert_eq!((hccs.steps, hccs.counts.visits), (0, 0), "case {case}");
        assert_eq!(hccs.final_cost, before, "case {case}");
        assert_eq!(sched.assignment, given.assignment, "case {case}");
    }
}

/// A token fired before the run stops the relocation phase before its first
/// candidate: on `bicgstab`, where the phase keeps a relocation without the
/// token, it evaluates none and the answer is the pre-fired one — the
/// cheaper start, or the trivial schedule when strictly cheaper, projected.
#[test]
fn a_pre_fired_token_evaluates_no_relocation() {
    use bsp_model::{BspSchedule, Machine};
    use bsp_sched::Funnel;
    use dag_gen::coarse::{coarse, CoarseAlgorithm, CoarseConfig};
    let dag = coarse(&CoarseConfig {
        algorithm: CoarseAlgorithm::BiCgStab,
        iterations: 150,
    });
    let machine = Machine::uniform(4, 3, 5);
    let searched = Pipeline::new(PipelineConfig::default()).run_report(&dag, &machine);
    assert!(searched.relocation.kept > 0, "{:?}", searched.relocation);
    let cancel = CancelToken::new();
    cancel.cancel();
    let report =
        Pipeline::new(PipelineConfig::default().with_cancel(cancel)).run_report(&dag, &machine);
    assert_eq!(report.relocation.evaluated, 0, "{:?}", report.relocation);
    assert_eq!(report.local_search_cost, report.init_cost);
    assert_eq!(report.relocation.final_cost, report.init_cost);
    let funnel = Funnel::contract(&dag, machine.p()).expect("bicgstab contracts");
    let trivial = BspSchedule::trivial(funnel.dag()).cost(funnel.dag(), &machine);
    assert_eq!(report.final_cost, report.init_cost.min(trivial));
    assert!(report.schedule.validate(&dag, &machine).is_ok());
    assert_eq!(report.final_cost, report.schedule.cost(&dag, &machine));
}

/// Every search is bounded by a count and the token is the run's only
/// clock, so a deadline that does not fire changes nothing: the answer, its
/// cost and what the relocation and the refinement did are those of a run
/// under an inert token, on uniform and tree machines alike.
#[test]
fn a_deadline_that_does_not_fire_leaves_the_answer_as_an_inert_token_does() {
    let mut tree = 0;
    for case in 0..CASES {
        let mut rng = rng_for_case(0xD1CE, case);
        let dag = random_dag(&mut rng, 40);
        let machine = random_machine(&mut rng);
        tree += u64::from(machine.is_numa());
        let run = |cancel: CancelToken| {
            let config = PipelineConfig::default().with_cancel(cancel);
            Pipeline::new(config).run_report(&dag, &machine)
        };
        let inert = run(CancelToken::inert());
        let far = Instant::now() + Duration::from_secs(3600);
        let timed = run(CancelToken::with_deadline(far));
        assert_eq!(timed.schedule, inert.schedule, "case {case}");
        assert_eq!(timed.final_cost, inert.final_cost, "case {case}");
        assert_eq!(timed.relocation, inert.relocation, "case {case}");
        assert_eq!(timed.refinement, inert.refinement, "case {case}");
    }
    assert!(
        0 < tree && tree < CASES,
        "{tree} of {CASES} machines are trees"
    );
}
