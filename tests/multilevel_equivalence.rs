//! The multilevel portfolio against the per-ratio run it replaced.
//!
//! One solve now coarsens once and gives every ratio its level of that one
//! contraction log, answers a trivial base schedule without walking it back
//! up, and races the flat pipeline.  None of that may change what a ratio
//! returns: [`common::reference_multilevel`] keeps the old from-scratch
//! per-ratio run, and the tests here hold the scheduler's per-ratio cost and
//! schedule to it on the benchmark's families and machines — both sides
//! taken from the funnel DAG the portfolio races on, the targets from the
//! caller's node count, a ratio whose target the funnel DAG has already
//! reached not run on either side — next to the
//! properties the three changes rest on — a shallower target's log is a
//! prefix of a deeper one's, the trivial schedule is a fixed point of the
//! uncoarsening walk, the answer is never worse than any member's, and the
//! thread budget does not show in the schedule.

mod common;

use bsp_model::{Assignment, BspSchedule, Dag, DagView, Machine};
use bsp_sched::hill_climb::HillClimbConfig;
use bsp_sched::multilevel::{
    coarsen, Coarsening, IncrementalRefiner, Member, MultilevelConfig, MultilevelScheduler,
    RatioOutcome,
};
use bsp_sched::pipeline::{Pipeline, PipelineConfig};
use bsp_sched::Funnel;
use common::reference_multilevel as reference;
use common::{random_dag, random_machine, rng_for_case};
use dag_gen::{cg, coarse_dag, exp, spmv, CoarseAlgorithm, CoarseConfig, IterConfig, SpmvConfig};
use rand::Rng;
use std::time::Duration;

/// The benchmark's two machines.
fn machines() -> [Machine; 2] {
    [
        Machine::uniform(4, 3, 5),
        Machine::numa_binary_tree(8, 3, 5, 3),
    ]
}

/// The benchmark's fine-grained families at their `ml_fine` size (≈ 660
/// nodes each).
fn fine_families() -> Vec<(&'static str, Dag)> {
    let iter = |n: usize, iterations: usize| IterConfig {
        n,
        density: 8.0 / n as f64,
        iterations,
        seed: 11,
    };
    vec![
        ("cg", cg(&iter(18, 2))),
        ("exp", exp(&iter(17, 3))),
        (
            "spmv",
            spmv(&SpmvConfig {
                n: 34,
                density: 8.0 / 34.0,
                seed: 11,
            }),
        ),
    ]
}

/// The benchmark's coarse-grained families, sized just above the coarsener's
/// tail width so the batch engine runs.
fn kernel_families() -> Vec<(&'static str, Dag)> {
    let kernel = |algorithm, iterations| {
        coarse_dag(&CoarseConfig {
            algorithm,
            iterations,
        })
    };
    vec![
        ("pagerank", kernel(CoarseAlgorithm::PageRank, 720)),
        ("bicgstab", kernel(CoarseAlgorithm::BiCgStab, 340)),
    ]
}

/// The benchmark's multilevel configuration with every wall-clock limit out
/// of reach, so the answer is a function of the input alone (step limits
/// stay: they are deterministic).
fn config() -> MultilevelConfig {
    let minute = Duration::from_secs(60);
    MultilevelConfig {
        base: PipelineConfig::heuristics_only().with_hill_climb_time(minute),
        refine_time_limit: minute,
        final_comm_time_limit: minute,
        threads: 1,
        ..MultilevelConfig::default()
    }
}

/// Per-ratio cost and schedule equal the from-scratch per-ratio run of the
/// parent, and the selected schedule is no worse than the flat pipeline's or
/// any ratio's.  Returns how many ratios walked the log back up and how many
/// took the fixed-point exit.
fn assert_matches_the_reference(name: &str, dag: &Dag, machine: &Machine) -> (usize, usize) {
    let config = config();
    let report = MultilevelScheduler::new(config.clone()).run_report(dag, machine);
    let context = format!("{name} ({} nodes) on P = {}", dag.n(), machine.p());
    assert!(report.failed.is_empty(), "{context}: {:?}", report.failed);
    let funnel = Funnel::contract(dag, machine.p());
    let solved = funnel.as_ref().map_or(dag, Funnel::dag);
    assert_eq!(report.funnel_nodes, solved.n(), "{context}");
    // The ratios that run: those whose target the funnel DAG is still above.
    let ratios = config.coarsen_ratios.iter();
    let live: Vec<(f64, usize)> = ratios
        .map(|&ratio| (ratio, reference::target(&config, dag.n(), ratio)))
        .filter(|&(_, target)| target < solved.n())
        .collect();
    assert_eq!(report.ratio_outcomes.len(), live.len(), "{context}");
    assert_eq!(report.used_base_only, live.is_empty(), "{context}");
    for (outcome, &(ratio, target)) in report.ratio_outcomes.iter().zip(&live) {
        assert_eq!(outcome.ratio, ratio);
        let expected = reference::ratio_run(&config, solved, machine, target);
        let expected = funnel
            .as_ref()
            .map_or(expected.clone(), |f| f.project(&expected));
        assert_eq!(
            outcome.cost,
            expected.cost(dag, machine),
            "{context}: cost at ratio {ratio}"
        );
        assert_eq!(
            outcome.schedule, expected,
            "{context}: schedule at ratio {ratio}"
        );
        assert!(outcome.coarse_nodes <= target);
        assert!(
            report.final_cost <= outcome.cost,
            "{context}: worse than ratio {ratio}"
        );
        if outcome.base_trivial {
            assert!(outcome.base_one_proc);
            assert_eq!(outcome.timings.refine_moves, 0, "{context}: ratio {ratio}");
        }
    }
    let flat = Pipeline::new(config.base.clone().with_thread_budget(1))
        .run(dag, machine)
        .cost(dag, machine);
    assert!(
        report.final_cost <= flat,
        "{context}: {} is worse than the flat pipeline's {flat}",
        report.final_cost
    );
    assert!(report.flat.expect("nothing cancelled the flat member").cost <= flat);
    // The flat member carries the pipeline's floor into the portfolio.
    let trivial = BspSchedule::trivial(dag).cost(dag, machine);
    assert!(
        report.final_cost <= trivial,
        "{context}: {} is worse than the trivial schedule's {trivial}",
        report.final_cost
    );
    assert_eq!(report.final_cost, report.schedule.cost(dag, machine));
    report
        .schedule
        .validate(dag, machine)
        .unwrap_or_else(|e| panic!("{context}: {e}"));
    let walked = |o: &&RatioOutcome| o.timings.refine_phases > 0;
    let walks = report.ratio_outcomes.iter().filter(walked).count();
    (walks, report.ratio_outcomes.len() - walks)
}

#[test]
fn every_ratio_answers_what_its_own_coarsening_would_have_on_the_fine_families() {
    let mut walks = 0;
    for (name, dag) in fine_families() {
        for machine in machines() {
            walks += assert_matches_the_reference(name, &dag, &machine).0;
        }
    }
    assert!(walks >= 4, "{walks} walks");
}

#[test]
fn every_ratio_answers_what_its_own_coarsening_would_have_on_the_kernels() {
    let mut exits = 0;
    for (name, dag) in kernel_families() {
        assert!(dag.n() > 4096, "{name} must start in the batch engine");
        for machine in machines() {
            exits += assert_matches_the_reference(name, &dag, &machine).1;
        }
    }
    // Both ways through a ratio member were held to the reference: the fine
    // families walk the log back up, the kernels' base solves are trivial.
    assert!(exits >= 4, "{exits} exits");
}

/// `spmv` contracts to its row sums and shared inputs, a tenth of its nodes:
/// both ratios' targets are already reached, none runs, and the report is the
/// flat member's.
#[test]
fn a_ratio_whose_target_the_funnel_has_reached_is_not_run() {
    let (name, dag) = fine_families().swap_remove(2);
    assert_eq!(name, "spmv");
    let config = config();
    for machine in machines() {
        let funnel = Funnel::contract(&dag, machine.p()).expect("spmv is all funnels");
        let deepest = reference::target(&config, dag.n(), 0.3);
        assert!(funnel.dag().n() <= deepest, "{} clusters", funnel.dag().n());
        let report = MultilevelScheduler::new(config.clone()).run_report(&dag, &machine);
        assert!(report.ratio_outcomes.is_empty() && report.failed.is_empty());
        assert!(report.used_base_only);
        assert_eq!(report.winner, Member::Flat);
        assert_eq!(report.coarsen_stats.contractions, 0);
        let flat =
            Pipeline::new(config.base.clone().with_thread_budget(1)).run_report(&dag, &machine);
        assert_eq!(report.schedule, flat.schedule);
        assert_eq!(report.final_cost, flat.final_cost);
        assert_eq!(report.flat.map(|f| f.cost), Some(flat.final_cost));
    }
}

#[test]
fn a_shallower_targets_log_is_a_prefix_of_a_deeper_targets() {
    let wide = spmv(&SpmvConfig {
        n: 260,
        density: 8.0 / 260.0,
        seed: 5,
    });
    let (_, pagerank) = kernel_families().swap_remove(0);
    let (_, fine) = fine_families().swap_remove(0);
    assert!(wide.n() > 4096 + 600 && pagerank.n() > 4096 && fine.n() < 4096);
    // (deep, shallow) targets: both inside the sequential tail, both above
    // the tail width of 4096 (batch rounds only), and one on each side.
    let cases: [(&str, &Dag, usize, usize); 5] = [
        (
            "cg, both below",
            &fine,
            fine.n() * 15 / 100,
            fine.n() * 3 / 10,
        ),
        ("pagerank, both below", &pagerank, 600, 1300),
        (
            "spmv, both below",
            &wide,
            wide.n() * 15 / 100,
            wide.n() * 3 / 10,
        ),
        ("spmv, both above", &wide, 4200, 4600),
        ("spmv, straddling", &wide, 1500, 4400),
    ];
    for (name, dag, deep_target, shallow_target) in cases {
        let mut deep = coarsen(dag, deep_target);
        let shallow = coarsen(dag, shallow_target);
        assert_eq!(shallow.num_clusters(), shallow_target, "{name}");
        assert_eq!(deep.num_clusters(), deep_target, "{name}");
        let log = shallow.clustering.history();
        assert_eq!(log.len(), dag.n() - shallow_target);
        assert_eq!(
            &deep.clustering.history()[..log.len()],
            log,
            "{name}: the shallow log is not a prefix of the deep one"
        );
        // Walking the deep coarsening back up to the shallow level gives the
        // state the shallow coarsening ended in — what each ratio is handed.
        while deep.num_clusters() < shallow_target {
            deep.uncontract_one().expect("the deep log is longer");
        }
        assert_eq!(
            deep.clustering.quotient_dag(dag),
            shallow.clustering.quotient_dag(dag),
            "{name}: coarse DAG at the shallow level"
        );
        assert_eq!(
            deep.clustering.quotient_dag(dag),
            reference::quotient_dag(&shallow.clustering, dag),
            "{name}: coarse DAG against the BTreeSet build"
        );
        let edges = |c: &Coarsening| c.quotient.edges().collect::<Vec<_>>();
        assert_eq!(edges(&deep), edges(&shallow), "{name}: quotient edges");
        for v in 0..dag.n() {
            assert_eq!(deep.quotient.is_active(v), shallow.quotient.is_active(v));
            assert_eq!(deep.quotient.work(v), shallow.quotient.work(v));
            assert_eq!(deep.quotient.comm(v), shallow.quotient.comm(v));
        }
    }
}

#[test]
fn the_trivial_schedule_is_a_fixed_point_of_the_uncoarsening_walk() {
    let refine = HillClimbConfig::with_time_limit(Duration::from_secs(60));
    let mut walked = 0;
    for case in 0..40 {
        let mut rng = rng_for_case(0x7219, case);
        let dag = random_dag(&mut rng, 40);
        let machine = random_machine(&mut rng);
        let target = rng.gen_range(2..=dag.n().max(3) - 1);
        let (_, quotient) = coarsen(&dag, target).into_parts();
        // The exit's own precondition: no cluster without an edge.
        let edge_free = (0..dag.n()).any(|v| {
            quotient.is_active(v)
                && quotient.successors(v).is_empty()
                && quotient.predecessors(v).is_empty()
        });
        if edge_free {
            continue;
        }
        walked += 1;
        let proc = rng.gen_range(0..machine.p());
        let trivial = Assignment {
            proc: vec![proc; dag.n()],
            superstep: vec![0; dag.n()],
        };
        let mut refiner = IncrementalRefiner::new(&machine, quotient, trivial.clone())
            .expect("the trivial schedule is feasible");
        let cost = refiner.cost();
        let mut splits = 0;
        while refiner.uncontract_one().is_some() {
            splits += 1;
            if splits % 3 == 0 {
                assert_eq!(refiner.refine(&refine).steps, 0, "case {case}");
            }
        }
        let sweep = refiner.refine_full(&refine);
        assert_eq!(sweep.steps, 0, "case {case}");
        assert!(sweep.reached_local_minimum, "case {case}");
        assert_eq!(refiner.cost(), cost, "case {case}");
        assert_eq!(refiner.into_assignment(), trivial, "case {case}");
    }
    assert!(
        walked >= 30,
        "only {walked} of 40 cases had no edge-free cluster"
    );
}

#[test]
fn the_thread_budget_does_not_show_in_the_schedule() {
    for (name, dag) in fine_families() {
        let machine = &machines()[1];
        let run = |threads: usize| {
            MultilevelScheduler::new(MultilevelConfig {
                threads,
                ..config()
            })
            .run_report(&dag, machine)
        };
        let serial = run(1);
        for threads in [2, 3] {
            let report = run(threads);
            assert_eq!(report.schedule, serial.schedule, "{name}, budget {threads}");
            assert_eq!(report.winner, serial.winner, "{name}, budget {threads}");
            assert_eq!(report.ratio_outcomes.len(), serial.ratio_outcomes.len());
            for (a, b) in report.ratio_outcomes.iter().zip(&serial.ratio_outcomes) {
                assert_eq!(a.schedule, b.schedule, "{name}, budget {threads}");
            }
        }
    }
}
