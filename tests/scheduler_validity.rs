//! Cross-crate integration tests: every scheduler in the framework must
//! produce a schedule that passes the BSP validity checks, on every DAG
//! family and machine topology.

mod common;

use bsp_model::{BspSchedule, Dag, Machine};
use bsp_sched::baselines::{
    BlEstScheduler, CilkScheduler, EtfScheduler, HDaggScheduler, TrivialScheduler,
};
use bsp_sched::init::{BspgScheduler, SourceScheduler};
use bsp_sched::pipeline::{Pipeline, PipelineConfig};
use bsp_sched::Scheduler;
use common::machine_grid;
use dag_gen::coarse::{coarse, CoarseAlgorithm, CoarseConfig};
use dag_gen::fine::{cg, exp, knn, spmv, IterConfig, SpmvConfig};

/// A representative collection of small DAGs covering every generator family
/// plus hand-built corner cases.
fn dag_zoo() -> Vec<(String, Dag)> {
    let mut zoo = vec![
        (
            "spmv".to_string(),
            spmv(&SpmvConfig {
                n: 14,
                density: 0.25,
                seed: 1,
            }),
        ),
        (
            "exp".to_string(),
            exp(&IterConfig {
                n: 10,
                density: 0.3,
                iterations: 2,
                seed: 2,
            }),
        ),
        (
            "cg".to_string(),
            cg(&IterConfig {
                n: 8,
                density: 0.3,
                iterations: 2,
                seed: 3,
            }),
        ),
        (
            "knn".to_string(),
            knn(&IterConfig {
                n: 10,
                density: 0.3,
                iterations: 3,
                seed: 4,
            }),
        ),
        (
            "coarse-cg".to_string(),
            coarse(&CoarseConfig {
                algorithm: CoarseAlgorithm::ConjugateGradient,
                iterations: 2,
            }),
        ),
        (
            "coarse-pagerank".to_string(),
            coarse(&CoarseConfig {
                algorithm: CoarseAlgorithm::PageRank,
                iterations: 2,
            }),
        ),
    ];
    // Corner cases: a single node, an independent antichain, a long chain,
    // and a broad fan-in.
    zoo.push((
        "single".to_string(),
        Dag::from_edge_list_unit_weights(1, &[]).unwrap(),
    ));
    zoo.push((
        "antichain".to_string(),
        Dag::from_edge_list_unit_weights(9, &[]).unwrap(),
    ));
    zoo.push((
        "chain".to_string(),
        Dag::from_edges(
            8,
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)],
            vec![3; 8],
            vec![7; 8],
        )
        .unwrap(),
    ));
    zoo.push((
        "fan-in".to_string(),
        Dag::from_edges(
            9,
            &[
                (0, 8),
                (1, 8),
                (2, 8),
                (3, 8),
                (4, 8),
                (5, 8),
                (6, 8),
                (7, 8),
            ],
            vec![2; 9],
            vec![5; 9],
        )
        .unwrap(),
    ));
    zoo
}

fn schedulers() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(TrivialScheduler),
        Box::new(CilkScheduler::default()),
        Box::new(BlEstScheduler),
        Box::new(EtfScheduler),
        Box::new(HDaggScheduler::default()),
        Box::new(BspgScheduler),
        Box::new(SourceScheduler),
    ]
}

fn assert_valid(name: &str, dag_name: &str, machine: &Machine, dag: &Dag, sched: &BspSchedule) {
    if let Err(e) = sched.validate(dag, machine) {
        panic!(
            "{name} produced an invalid schedule on {dag_name} (P={}, g={}, l={}, numa={}): {e:?}",
            machine.p(),
            machine.g(),
            machine.latency(),
            machine.is_numa()
        );
    }
    // Cost must never be below the two trivial lower bounds: the critical
    // path and the perfectly balanced work distribution.
    let cost = sched.cost(dag, machine);
    let balanced = dag.total_work().div_ceil(machine.p() as u64);
    assert!(cost >= dag.critical_path_work().max(balanced));
}

#[test]
fn all_simple_schedulers_are_valid_on_the_dag_zoo() {
    for (dag_name, dag) in dag_zoo() {
        for machine in machine_grid() {
            for scheduler in schedulers() {
                let sched = scheduler.schedule(&dag, &machine);
                assert_valid(scheduler.name(), &dag_name, &machine, &dag, &sched);
            }
        }
    }
}

#[test]
fn pipeline_is_valid_across_the_machine_grid() {
    let pipeline = Pipeline::new(PipelineConfig::fast());
    for (dag_name, dag) in dag_zoo().into_iter().take(4) {
        for machine in machine_grid().into_iter().step_by(2) {
            let sched = pipeline.schedule(&dag, &machine);
            assert_valid("Pipeline", &dag_name, &machine, &dag, &sched);
        }
    }
}

#[test]
fn pipeline_never_loses_to_its_own_initializers() {
    // The pipeline searches the cheaper of its two starts, neither of which
    // costs more than the raw BSPg or Source schedule it was placed from.
    let pipeline = Pipeline::new(PipelineConfig::fast());
    for (_, dag) in dag_zoo().into_iter().take(4) {
        for machine in machine_grid().into_iter().take(2) {
            let ours = pipeline.schedule(&dag, &machine).cost(&dag, &machine);
            let bspg = BspgScheduler.schedule(&dag, &machine).cost(&dag, &machine);
            let source = SourceScheduler
                .schedule(&dag, &machine)
                .cost(&dag, &machine);
            assert!(ours <= bspg.min(source));
        }
    }
}

#[test]
fn a_thread_budget_never_changes_the_schedule() {
    // A budget decides how many initializers sweep at once and nothing else
    // reads it.  The DAGs are small enough that no time limit binds, so
    // every run is deterministic.
    let dags = [
        spmv(&SpmvConfig {
            n: 40,
            density: 0.15,
            seed: 21,
        }),
        cg(&IterConfig {
            n: 12,
            density: 0.3,
            iterations: 2,
            seed: 22,
        }),
        coarse(&CoarseConfig {
            algorithm: CoarseAlgorithm::PageRank,
            iterations: 12,
        }),
    ];
    let machines = [
        Machine::uniform(4, 3, 5),
        Machine::numa_binary_tree(8, 3, 5, 3),
    ];
    let pipeline = |budget| Pipeline::new(PipelineConfig::default().with_thread_budget(budget));
    for dag in &dags {
        for machine in &machines {
            assert_eq!(
                pipeline(1).run(dag, machine),
                pipeline(4).run(dag, machine),
                "pipeline, n={} P={}",
                dag.n(),
                machine.p()
            );
        }
    }
}

#[test]
fn a_budget_of_one_runs_the_branches_back_to_back() {
    // One rule decides the fan-out, however the budget was set: a budget of
    // one never has two sweeps in flight, so the `BSPg` and `Source` windows
    // of the phase report cannot overlap.  The DAG is large enough for each
    // sweep to take a good part of a millisecond (an overlap would show) and
    // small enough that no time limit binds (the schedules are comparable).
    let dag = spmv(&SpmvConfig {
        n: 150,
        density: 0.05,
        seed: 33,
    });
    let machine = Machine::uniform(4, 3, 5);
    let traced = |config: PipelineConfig| {
        Pipeline::new(PipelineConfig {
            collect_phases: true,
            ..config
        })
        .run_report(&dag, &machine)
    };
    let wide = traced(PipelineConfig::default().with_thread_budget(4));
    for (how, config) in [
        (
            "field",
            PipelineConfig {
                solve_threads: 1,
                ..PipelineConfig::default()
            },
        ),
        ("builder", PipelineConfig::default().with_thread_budget(1)),
    ] {
        let report = traced(config);
        let window = |name: &str| {
            let span = report
                .phases
                .iter()
                .find(|p| p.name == name && p.depth == 0)
                .unwrap_or_else(|| panic!("{how}: no {name} span"));
            (span.start_us, span.start_us + span.dur_us)
        };
        let (bspg, source) = (window("BSPg"), window("Source"));
        assert!(bspg.1 > bspg.0 && source.1 > source.0, "{how}: empty span");
        assert!(
            bspg.1 <= source.0 || source.1 <= bspg.0,
            "{how}: sweeps overlap at budget 1: BSPg {bspg:?}, Source {source:?}"
        );
        assert_eq!(report.schedule, wide.schedule, "{how}: schedule differs");
    }
}
