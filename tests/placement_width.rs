//! The per-initializer placement-width sweep, the one `HC` and the
//! trivial-schedule floor of `Pipeline`.
//!
//! Each initializer builds its schedule on every processor prefix, places
//! the sources, merges the supersteps no value needs and keeps the width that
//! is cheapest on the full machine; the cheaper of the two starts is
//! searched, once, and what `HC` returns, merged, meets the trivial schedule.  The tests here hold the rows on record
//! — two that lost to the trivial schedule before sweep and floor existed,
//! one where the start that is not searched is the cheaper, one the second
//! search used to win — and, over random DAGs on uniform, tree and explicit
//! machines, the properties a report stands for: the answer validates on the
//! full machine, its `final_cost` is a from-scratch recompute and no more than
//! the trivial cost or any start's, every initializer's width follows the
//! stated rule and its `init_cost` is that start's, the searched start is the
//! arg-min, `HC` runs once and after both sweeps, and the phase clock does not
//! show in the answer.  All of it is judged on the DAG the pipeline solves —
//! what the funnel reduction leaves of the input.

mod common;

use bsp_model::{BspSchedule, Dag, Machine};
use bsp_sched::cancel::CancelToken;
use bsp_sched::hill_climb::HillClimbConfig;
use bsp_sched::init::{BspgScheduler, SourceScheduler};
use bsp_sched::pipeline::{BranchReport, Pipeline, PipelineConfig, PipelineReport};
use bsp_sched::{Funnel, Scheduler};
use common::{placed_start, random_dag, rng_for_case};
use dag_gen::{cg, coarse_dag, spmv, CoarseAlgorithm, CoarseConfig, IterConfig, SpmvConfig};
use rand::Rng;

/// A local search bounded by steps.
fn config() -> PipelineConfig {
    PipelineConfig {
        hill_climb: HillClimbConfig::with_max_steps(2000),
        ..PipelineConfig::default()
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
    let pipeline = Pipeline::default();
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

#[test]
fn the_rows_on_record_for_one_search() {
    let pipeline = Pipeline::default();

    // A hub DAG: `BSPg`'s start is more than twice `Source`'s, and `HC` from
    // it used to walk past the `n/2`-successor matrix node step by step.  The
    // search runs from `Source`'s start and, merged, ends on the trivial
    // cost: the floor, strict, keeps the schedule at hand.
    let kernel = coarse_dag(&CoarseConfig {
        algorithm: CoarseAlgorithm::PageRank,
        iterations: 1500,
    });
    let uniform = Machine::uniform(4, 3, 5);
    let report = pipeline.run_report(&kernel, &uniform);
    let kept: Vec<_> = report.branches.iter().filter(|b| b.kept).collect();
    let [bspg, source] = [0, 1].map(|i| kept[i]);
    assert!(source.init_cost < bspg.init_cost, "{:?}", report.branches);
    assert_eq!(report.init_cost, source.init_cost);
    assert_eq!(report.placement_width, source.width);
    assert!(
        report.local_search_cost < report.init_cost,
        "HC ran from it"
    );
    assert_eq!(report.final_cost, trivial_cost(&kernel, &uniform));

    // The trade on record: `BSPg`'s width-2 start (206) is the cheaper and
    // already a local minimum; two searches answered 166 here, descending
    // from `Source`'s width-4 start (249).  Single-node moves do not get
    // from the one to the other (ROADMAP item 5).
    let fine = spmv(&SpmvConfig {
        n: 20,
        density: 0.25,
        seed: 0,
    });
    let tree = Machine::numa_binary_tree(8, 3, 5, 3);
    let report = pipeline.run_report(&fine, &tree);
    assert!(report.schedule.validate(&fine, &tree).is_ok());
    assert!(report.final_cost <= 206, "{}", report.final_cost);
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

/// Cost on the full machine of what `init` starts from at width `k`.
fn start_cost(init: &dyn Scheduler, dag: &Dag, machine: &Machine, k: usize) -> u64 {
    placed_start(init, dag, machine, k).cost(dag, machine)
}

/// The width rule, restated: the cheapest of `P, P/2, …` down to two for
/// this initializer, ties to the wider.
fn expected_width(init: &dyn Scheduler, dag: &Dag, machine: &Machine) -> usize {
    let widths = std::iter::successors(Some(machine.p()), |&w| (w / 2 >= 2).then_some(w / 2));
    // `min_by_key` keeps the first of equal minima.
    (widths.min_by_key(|&w| start_cost(init, dag, machine, w))).unwrap()
}

/// The properties of a report for `dag` (what the reduction left of the
/// caller's DAG): each initializer built every width `P, P/2, …` ≥ 2 in that
/// order, each candidate costs what the independent restatement of its start
/// costs, each sweep kept one start and it obeys the width rule, the searched
/// one is the kept starts' arg-min by (cost, array order), and every stage is
/// no costlier than the one before.
fn assert_starts_hold(context: &str, report: &PipelineReport, dag: &Dag, machine: &Machine) {
    let inits: [&dyn Scheduler; 2] = [&BspgScheduler, &SourceScheduler];
    assert_eq!(report.funnel_nodes, dag.n(), "{context}: funnel_nodes");
    let widths: Vec<usize> =
        std::iter::successors(Some(machine.p()), |&w| (w / 2 >= 2).then_some(w / 2)).collect();
    let sweeps = report.branches.chunks(widths.len());
    assert_eq!(report.branches.len(), 2 * widths.len(), "{context}");
    for (init, built) in inits.into_iter().zip(sweeps) {
        let name = init.name();
        for (branch, &width) in built.iter().zip(&widths) {
            let start = (name, width, start_cost(init, dag, machine, width));
            let listed = (branch.init_name, branch.width, branch.init_cost);
            assert_eq!(listed, start, "{context}: candidate");
        }
        let kept: Vec<_> = built.iter().filter(|b| b.kept).map(|b| b.width).collect();
        let width = expected_width(init, dag, machine);
        assert_eq!(kept, [width], "{context}: {name} kept");
        let start = start_cost(init, dag, machine, width);
        assert!(report.final_cost <= start, "{context}: above {name}");
    }
    // `min_by_key` keeps the first of equal minima: ties go to `BSPg`.
    let kept = report.branches.iter().filter(|b| b.kept);
    let searched = kept.min_by_key(|b| b.init_cost).unwrap();
    assert_eq!(report.init_cost, searched.init_cost, "{context}");
    assert_eq!(report.placement_width, searched.width, "{context}");
    if report.selected_init != "trivial" {
        assert_eq!(report.selected_init, searched.init_name, "{context}");
    }
    assert!(report.local_search_cost <= report.init_cost, "{context}");
    assert!(report.final_cost <= report.local_search_cost, "{context}");
    assert!(report.lower_bound <= report.final_cost, "{context}: bound");
}

/// One `hc` sample unless the searched start met the bound, and it starts
/// once both sweeps have ended: there is no second search to overlap with.
fn assert_one_search_after_both_sweeps(context: &str, report: &PipelineReport) {
    let named = |name: &str| {
        let of = report.phases.iter().filter(move |p| p.name == name);
        of.filter(|p| p.depth == 0).collect::<Vec<_>>()
    };
    let searched = usize::from(report.init_cost > report.lower_bound);
    let hc = named("hc");
    assert_eq!(hc.len(), searched, "{context}: hc samples");
    assert!(
        report.phases.iter().all(|p| p.name != "hc" || p.depth == 0),
        "{context}: an hc sample under a sweep"
    );
    for name in ["BSPg", "Source"] {
        let sweep = named(name);
        assert_eq!(sweep.len(), 1, "{context}: {name} samples");
        for hc in &hc {
            let end = sweep[0].start_us + sweep[0].dur_us;
            assert!(end <= hc.start_us, "{context}: hc began inside {name}");
        }
    }
}

/// The report's candidates without their stage times, which no two runs share.
fn untimed(report: &PipelineReport) -> Vec<BranchReport> {
    let untimed = |b: &BranchReport| BranchReport {
        stage_us: [0; 4],
        ..*b
    };
    report.branches.iter().map(untimed).collect()
}

#[test]
fn every_branch_obeys_the_sweep_rule_and_the_answer_its_bounds() {
    let pipeline = Pipeline::new(config());
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
            assert_starts_hold(&context, &report, solved, &machine);
            let floor = funnel.as_ref().map_or_else(
                || BspSchedule::trivial(&dag),
                |f| f.project(&BspSchedule::trivial(solved)),
            );
            if report.selected_init == "trivial" {
                assert!(trivial < report.local_search_cost, "{context}: floor");
                assert_eq!(report.schedule, floor, "{context}");
            }

            // The phase clock shows nowhere in the answer, and in the
            // candidates only as their stage times: a second run, read at
            // other instants, gives the same.
            let again = pipeline.run_report(&dag, &machine);
            assert_eq!(again.schedule, report.schedule, "{context}: again");
            assert_eq!(untimed(&again), untimed(&report), "{context}: again");
            assert_eq!(again.selected_init, report.selected_init, "{context}");
            assert_eq!(again.local_search_cost, report.local_search_cost);
            assert_one_search_after_both_sweeps(&context, &report);

            // A token fired before the run stops `HC` at its first visit:
            // the cheaper start comes back, or the floor under it.
            let cancel = CancelToken::new();
            cancel.cancel();
            let stopped = Pipeline::new(config().with_cancel(cancel)).run_report(&dag, &machine);
            assert_eq!(untimed(&stopped), untimed(&report), "{context}: cancelled");
            assert_eq!(stopped.local_search_cost, stopped.init_cost, "{context}");
            let kept: Vec<_> = report.branches.iter().filter(|b| b.kept).collect();
            let cheaper = (kept.iter())
                .position(|b| b.init_cost == report.init_cost)
                .expect("init_cost is a start's");
            let inits: [&dyn Scheduler; 2] = [&BspgScheduler, &SourceScheduler];
            let start = placed_start(inits[cheaper], solved, &machine, report.placement_width);
            let expected = if trivial < report.init_cost {
                floor
            } else {
                funnel.as_ref().map_or(start.clone(), |f| f.project(&start))
            };
            assert_eq!(stopped.schedule, expected, "{context}: cancelled");

            let widths: Vec<usize> = kept.iter().map(|b| b.width).collect();
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
         {floored}, searched {searched}, starts at different widths {apart}"
    );
    assert!(
        contracted > 0 && untouched > 0,
        "the reduction contracted {contracted} inputs and left {untouched} alone"
    );
}
