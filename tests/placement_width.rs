//! The per-branch placement-width sweep and the trivial-schedule floor of
//! `Pipeline`.
//!
//! Each heuristic branch builds its initializer's schedule on the machine's
//! processor prefixes, places the sources and starts from the width that is
//! cheapest on the full machine; after `HC` the cheapest branch meets the
//! trivial schedule.  The tests here hold two rows that lost to the trivial
//! schedule before either step existed, and — over random DAGs on uniform,
//! tree and explicit machines — the properties a report stands for, whatever
//! composes it: the answer validates on the full machine, its `final_cost`
//! is a from-scratch recompute and no more than the trivial cost or any
//! branch's, every branch's width follows the stated rule for *its*
//! initializer and its `init_cost` is that start's, and the thread budget
//! shows nowhere.  All of it is judged on the DAG the pipeline solves — what
//! the funnel reduction leaves of the input.

mod common;

use bsp_model::{BspSchedule, Dag, Machine};
use bsp_sched::hill_climb::HillClimbConfig;
use bsp_sched::init::{BspgScheduler, SourceScheduler};
use bsp_sched::pipeline::{Pipeline, PipelineConfig, PipelineReport};
use bsp_sched::{Funnel, Scheduler};
use common::{placed_start, random_dag, rng_for_case};
use dag_gen::{cg, coarse_dag, CoarseAlgorithm, CoarseConfig, IterConfig};
use rand::Rng;
use std::time::Duration;

/// Heuristics only, one thread, and a local search bounded by steps rather
/// than by the clock, so a run is a function of its input.
fn config() -> PipelineConfig {
    let mut config = PipelineConfig::default().with_thread_budget(1);
    config.hill_climb = HillClimbConfig {
        time_limit: Duration::from_secs(3600),
        max_steps: 2000,
        ..HillClimbConfig::default()
    };
    config
}

fn trivial_cost(dag: &Dag, machine: &Machine) -> u64 {
    BspSchedule::trivial(dag).cost(dag, machine)
}

#[test]
fn rows_that_lost_to_one_processor_no_longer_do() {
    // Fine-grained and communication-bound on the benchmark's NUMA machine:
    // `BSPg` spreads it over all eight processors and `HC` cannot pull it
    // back together.
    let fine = cg(&IterConfig {
        n: 40,
        density: 8.0 / 40.0,
        iterations: 2,
        seed: 0,
    });
    let tree = Machine::numa_binary_tree(8, 3, 5, 3);
    // Coarse-grained: the initializers give every iteration its own
    // superstep on one processor and no single-node move merges two.
    let kernel = coarse_dag(&CoarseConfig {
        algorithm: CoarseAlgorithm::PageRank,
        iterations: 200,
    });
    let uniform = Machine::uniform(4, 3, 5);
    let pipeline = Pipeline::new(PipelineConfig::default().with_thread_budget(1));
    for (name, dag, machine) in [("cg", &fine, &tree), ("pagerank", &kernel, &uniform)] {
        let report = pipeline.run_report(dag, machine);
        assert!(report.schedule.validate(dag, machine).is_ok(), "{name}");
        assert!(
            report.final_cost <= trivial_cost(dag, machine),
            "{name}: {} above the trivial {}",
            report.final_cost,
            trivial_cost(dag, machine)
        );
    }
    // The fine-grained row gets there by placement, not by giving up.
    let report = pipeline.run_report(&fine, &tree);
    assert!(report.placement_width < tree.p());
    assert_ne!(report.selected_init, "trivial");
}

/// The machines of the property: uniform, trees of every `Δ` the paper uses,
/// and an explicit matrix that is neither.
fn machines(rng: &mut impl Rng) -> Vec<Machine> {
    let g = rng.gen_range(1u64..6);
    let l = rng.gen_range(0u64..8);
    let p = 1usize << rng.gen_range(1usize..=3);
    let mut machines = vec![Machine::uniform(p, g, l)];
    for delta in [2, 3, 4] {
        machines.push(Machine::numa_binary_tree(8, g, l, delta));
    }
    let matrix = (0..6)
        .map(|_| (0..6).map(|_| rng.gen_range(1u64..5)).collect())
        .collect();
    machines.push(Machine::with_numa_matrix(6, g, l, matrix));
    machines
}

/// Cost on the full machine of what a branch of `init` starts from at width
/// `k`.
fn start_cost(init: &dyn Scheduler, dag: &Dag, machine: &Machine, k: usize) -> u64 {
    placed_start(init, dag, machine, k).cost(dag, machine)
}

/// The width rule, restated: halve while the next prefix is strictly cheaper
/// for this initializer, and never go below two.
fn expected_width(init: &dyn Scheduler, dag: &Dag, machine: &Machine) -> usize {
    let mut width = machine.p();
    while width / 2 >= 2
        && start_cost(init, dag, machine, width / 2) < start_cost(init, dag, machine, width)
    {
        width /= 2;
    }
    width
}

/// The properties of a report for `dag` (what the reduction left of the
/// caller's DAG) that do not depend on how the branches are composed.
fn assert_branches_hold(context: &str, report: &PipelineReport, dag: &Dag, machine: &Machine) {
    let inits: [&dyn Scheduler; 2] = [&BspgScheduler, &SourceScheduler];
    assert_eq!(report.funnel_nodes, dag.n(), "{context}: funnel_nodes");
    assert_eq!(report.branches.len(), inits.len(), "{context}");
    for (init, branch) in inits.into_iter().zip(&report.branches) {
        let name = init.name();
        assert_eq!(branch.init_name, name, "{context}");
        let width = expected_width(init, dag, machine);
        assert_eq!(branch.width, width, "{context}: {name} width");
        let start = start_cost(init, dag, machine, branch.width);
        assert_eq!(branch.init_cost, start, "{context}: {name} start");
        assert!(branch.local_search_cost <= start, "{context}: {name} HC");
        assert!(
            report.final_cost <= branch.local_search_cost,
            "{context}: above {name}"
        );
    }
    let starts = report.branches.iter().map(|b| b.init_cost);
    assert_eq!(report.init_cost, starts.min().unwrap(), "{context}");

    // The cheapest branch after `HC`, ties to the earlier.
    let cheapest = report
        .branches
        .iter()
        .min_by_key(|b| b.local_search_cost)
        .unwrap();
    assert_eq!(report.placement_width, cheapest.width, "{context}");
    if report.selected_init != "trivial" {
        assert_eq!(report.selected_init, cheapest.init_name, "{context}");
    }
}

#[test]
fn every_branch_obeys_the_sweep_rule_and_the_answer_its_bounds() {
    let pipeline = Pipeline::new(config());
    let two_lanes = Pipeline::new(config().with_thread_budget(2));
    // How often each regime came up: the property must not hold vacuously.
    let (mut narrowed, mut full_width, mut floored, mut searched) = (0, 0, 0, 0);
    let (mut contracted, mut untouched, mut apart) = (0, 0, 0);
    for case in 0..24 {
        let mut rng = rng_for_case(0x91DE, case);
        // Every second DAG is sparse: dense ones are communication-bound on
        // every machine here and would all end on the floor.
        let dag = if case % 2 == 0 {
            random_dag(&mut rng, 28)
        } else {
            cg(&IterConfig {
                n: rng.gen_range(4usize..9),
                density: 0.3,
                iterations: 2,
                seed: case,
            })
        };
        for machine in machines(&mut rng) {
            let context = format!("case {case}, n = {}, {machine:?}", dag.n());
            let report = pipeline.run_report(&dag, &machine);
            assert!(
                report.schedule.validate(&dag, &machine).is_ok(),
                "{context}: invalid on the full machine"
            );
            assert_eq!(
                report.final_cost,
                report.schedule.cost(&dag, &machine),
                "{context}: final_cost"
            );
            let trivial = trivial_cost(&dag, &machine);
            assert!(
                report.final_cost <= trivial,
                "{context}: above the trivial schedule"
            );
            let funnel = Funnel::contract(&dag, machine.p());
            let solved = funnel.as_ref().map_or(&dag, Funnel::dag);
            assert_branches_hold(&context, &report, solved, &machine);
            let cheapest = report.branches.iter().map(|b| b.local_search_cost).min();
            if report.selected_init == "trivial" {
                assert!(trivial < cheapest.unwrap(), "{context}: the floor fired");
                let projected = funnel.as_ref().map_or_else(
                    || BspSchedule::trivial(&dag),
                    |f| f.project(&BspSchedule::trivial(solved)),
                );
                assert_eq!(report.schedule, projected, "{context}");
            }

            let par = two_lanes.run_report(&dag, &machine);
            assert_eq!(par.schedule, report.schedule, "{context}: par == seq");
            assert_eq!(par.branches, report.branches, "{context}: par == seq");
            assert_eq!(par.selected_init, report.selected_init, "{context}");

            let widths: Vec<usize> = report.branches.iter().map(|b| b.width).collect();
            apart += usize::from(widths[0] != widths[1]);
            if report.placement_width < machine.p() {
                narrowed += 1;
            } else {
                full_width += 1;
            }
            if report.selected_init == "trivial" {
                floored += 1;
            } else {
                searched += 1;
            }
            if funnel.is_some() {
                contracted += 1;
            } else {
                untouched += 1;
            }
        }
    }
    assert!(
        narrowed > 0 && full_width > 0 && floored > 0 && searched > 0 && apart > 0,
        "a regime never came up: narrowed {narrowed}, full width {full_width}, floored \
         {floored}, searched {searched}, branches at different widths {apart}"
    );
    assert!(
        contracted > 0 && untouched > 0,
        "the reduction contracted {contracted} inputs and left {untouched} alone"
    );
}
