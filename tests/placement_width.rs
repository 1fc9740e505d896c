//! The placement-width sweep and the trivial-schedule floor of `Pipeline`.
//!
//! Before its branches fork the pipeline runs `Source` on the machine's
//! processor prefixes and keeps the width that is cheapest on the full
//! machine; after them it keeps the trivial schedule when that is cheaper.
//! The tests here hold two rows that lost to the trivial schedule before
//! either step existed, and — over random DAGs on uniform, tree and explicit
//! machines — that the answer validates on the full machine, that the report
//! is the hand-composed `initializer on prefix(w) → HC → HCcs` of every
//! branch bit for bit (at `w = P` that is the pipeline without the sweep),
//! and that the width follows the stated rule.  All of it is composed on the
//! DAG the pipeline solves — what the funnel reduction leaves of the input —
//! and projected back.

mod common;

use bsp_model::{BspSchedule, Dag, Machine};
use bsp_sched::hill_climb::{hc_improve, hccs_improve, HillClimbConfig};
use bsp_sched::init::{BspgScheduler, SourceScheduler};
use bsp_sched::pipeline::{placement_width, Pipeline, PipelineConfig, PipelineReport};
use bsp_sched::{Funnel, Scheduler};
use common::{random_dag, rng_for_case};
use dag_gen::{cg, coarse_dag, CoarseAlgorithm, CoarseConfig, IterConfig};
use rand::Rng;
use std::time::Duration;

/// Heuristics only, one thread, and a local search bounded by steps rather
/// than by the clock, so a run is a function of its input.
fn config() -> PipelineConfig {
    let mut config = PipelineConfig::heuristics_only().with_thread_budget(1);
    config.hill_climb = search_config();
    config
}

fn search_config() -> HillClimbConfig {
    HillClimbConfig {
        time_limit: Duration::from_secs(3600),
        max_steps: 2000,
        ..HillClimbConfig::default()
    }
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
    let pipeline = Pipeline::new(PipelineConfig::heuristics_only().with_thread_budget(1));
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

/// The width rule, restated: halve while the next prefix is strictly cheaper
/// for `Source`, costed on the full machine, and never go below two.
fn expected_width(dag: &Dag, machine: &Machine) -> usize {
    let cost = |k: usize| {
        SourceScheduler
            .schedule(dag, &machine.prefix(k))
            .cost(dag, machine)
    };
    let mut width = machine.p();
    while width / 2 >= 2 && cost(width / 2) < cost(width) {
        width /= 2;
    }
    width
}

/// One branch by hand: the initializer on `placement`, then `HC` and `HCcs`
/// on the full machine.  Returns the raw cost and the searched schedule.
fn branch_by_hand(
    init: &dyn Scheduler,
    dag: &Dag,
    machine: &Machine,
    placement: &Machine,
) -> (u64, BspSchedule) {
    let mut schedule = init.schedule(dag, placement);
    let raw = schedule.cost(dag, machine);
    // No time limit binds, so the pipeline's 90/10 split of it does not show.
    hc_improve(dag, machine, &mut schedule, &search_config());
    hccs_improve(dag, machine, &mut schedule, &search_config());
    (raw, schedule)
}

/// `report` is the pipeline's answer for the DAG `funnel` was contracted
/// from, `dag` what the contraction left of it (the DAG itself when nothing
/// contracted).
fn assert_report_is_the_hand_composition(
    context: &str,
    report: &PipelineReport,
    funnel: Option<&Funnel>,
    dag: &Dag,
    machine: &Machine,
) {
    let project = |s: &BspSchedule| funnel.map_or_else(|| s.clone(), |f| f.project(s));
    assert_eq!(report.funnel_nodes, dag.n(), "{context}: funnel_nodes");
    let width = report.placement_width;
    assert_eq!(width, expected_width(dag, machine), "{context}: width");
    let placement = machine.prefix(width);
    let by_hand = [
        branch_by_hand(&BspgScheduler, dag, machine, &placement),
        branch_by_hand(&SourceScheduler, dag, machine, &placement),
    ];
    assert_eq!(report.branches.len(), by_hand.len(), "{context}");
    for (branch, (raw, searched)) in report.branches.iter().zip(&by_hand) {
        let name = &branch.init_name;
        assert_eq!(branch.init_cost, *raw, "{context}: {name} raw");
        assert_eq!(
            branch.local_search_cost,
            searched.cost(dag, machine),
            "{context}: {name} searched"
        );
    }
    // `init_cost` is the raw cost the branches started from.
    let raw_best = by_hand.iter().map(|(raw, _)| *raw).min().unwrap();
    assert_eq!(report.init_cost, raw_best, "{context}: init_cost");

    // The cheapest branch, ties to the earlier — unless the floor fired.
    let (winner, (_, searched)) = by_hand
        .iter()
        .enumerate()
        .min_by_key(|(_, (_, s))| s.cost(dag, machine))
        .unwrap();
    let searched_cost = searched.cost(dag, machine);
    if report.selected_init == "trivial" {
        assert!(trivial_cost(dag, machine) < searched_cost, "{context}");
        let trivial = project(&BspSchedule::trivial(dag));
        assert_eq!(report.schedule, trivial, "{context}");
    } else {
        assert!(searched_cost <= trivial_cost(dag, machine), "{context}");
        assert_eq!(
            report.selected_init, report.branches[winner].init_name,
            "{context}"
        );
        assert_eq!(report.schedule, project(searched), "{context}: schedule");
        assert_eq!(report.local_search_cost, searched_cost, "{context}");
    }
}

#[test]
fn the_report_is_the_hand_composed_branches_on_the_kept_prefix() {
    let pipeline = Pipeline::new(config());
    // How often each regime came up: the property must not hold vacuously.
    let (mut narrowed, mut full_width, mut floored, mut searched) = (0, 0, 0, 0);
    let (mut contracted, mut untouched) = (0, 0);
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
            assert!(
                report.final_cost <= trivial_cost(&dag, &machine),
                "{context}: above the trivial schedule"
            );
            let funnel = Funnel::contract(&dag, machine.p());
            let solved = funnel.as_ref().map_or(&dag, Funnel::dag);
            assert_report_is_the_hand_composition(
                &context,
                &report,
                funnel.as_ref(),
                solved,
                &machine,
            );

            // The entry the multilevel ratio members use is the same branch
            // search at a width handed in, with neither reduction nor floor.
            assert_eq!(
                placement_width(&dag, &machine),
                report.placement_width,
                "{context}"
            );
            let unfloored = pipeline.run_report_on_prefix(solved, &machine, report.placement_width);
            assert_eq!(unfloored.branches, report.branches, "{context}");
            assert_ne!(unfloored.selected_init, "trivial", "{context}");
            assert!(report.final_cost <= unfloored.final_cost, "{context}");

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
        narrowed > 0 && full_width > 0 && floored > 0 && searched > 0,
        "a regime never came up: narrowed {narrowed}, full width {full_width}, \
         floored {floored}, searched {searched}"
    );
    assert!(
        contracted > 0 && untouched > 0,
        "the reduction contracted {contracted} inputs and left {untouched} alone"
    );
}
