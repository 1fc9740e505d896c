//! Cross-crate integration tests: every scheduler in the framework must
//! produce a schedule that passes the BSP validity checks, on every DAG
//! family and machine topology.

mod common;

use bsp_model::{BspSchedule, Dag, Machine};
use bsp_sched::baselines::{
    BlEstScheduler, CilkScheduler, EtfScheduler, HDaggScheduler, TrivialScheduler,
};
use bsp_sched::init::{BspgScheduler, SourceScheduler};
use bsp_sched::pipeline::Pipeline;
use bsp_sched::Scheduler;
use common::{machine_grid, rng_for_case, zero_work_dag};
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

/// The empty DAG takes each constructor's general path, which must return
/// the trivial schedule field for field.
#[test]
fn every_scheduler_returns_the_trivial_schedule_of_the_empty_dag() {
    let dag = Dag::from_edge_list_unit_weights(0, &[]).unwrap();
    let machines = [
        Machine::uniform(4, 3, 5),
        Machine::numa_binary_tree(8, 3, 5, 3),
    ];
    for machine in &machines {
        for scheduler in schedulers() {
            let sched = scheduler.schedule(&dag, machine);
            assert_eq!(sched, BspSchedule::trivial(&dag), "{}", scheduler.name());
        }
    }
}

/// Work-0 nodes, which no generator emits (they clamp work to ≥ 1): such a
/// node finishes the instant it starts, so a classical schedule may start
/// its consumers, on its own processor or another, at that same instant.
/// With shuffled ids a consumer can sort first, and the conversion to
/// supersteps must still put every predecessor in its consumer's superstep
/// or an earlier one (a strictly earlier one across processors, or the lazy
/// `Γ` has no phase to send in, which panics in a debug build).
#[test]
fn classical_baselines_are_valid_on_zero_work_dags() {
    let schedulers: [&dyn Scheduler; 3] =
        [&CilkScheduler::default(), &BlEstScheduler, &EtfScheduler];
    for case in 0..40 {
        let dag = zero_work_dag(&mut rng_for_case(0x2E_40, case));
        for machine in machine_grid() {
            for scheduler in schedulers {
                let sched = scheduler.schedule(&dag, &machine);
                assert_valid(
                    scheduler.name(),
                    &format!("case {case}"),
                    &machine,
                    &dag,
                    &sched,
                );
            }
        }
    }
}

#[test]
fn pipeline_is_valid_across_the_machine_grid() {
    let pipeline = Pipeline::default();
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
    let pipeline = Pipeline::default();
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
fn the_sweeps_run_back_to_back() {
    // A solve is one thread: the default configuration never has two sweeps
    // in flight, so the `BSPg` and `Source` windows of the phase report
    // cannot overlap.  The DAG is large enough for each sweep to take a good
    // part of a millisecond (an overlap would show) and small enough that no
    // time limit binds (the schedules are comparable).
    let dag = spmv(&SpmvConfig {
        n: 150,
        density: 0.05,
        seed: 33,
    });
    let machine = Machine::uniform(4, 3, 5);
    let report = Pipeline::default().run_report(&dag, &machine);
    let window = |name: &str| {
        let span = report
            .phases
            .iter()
            .find(|p| p.name == name && p.depth == 0)
            .unwrap_or_else(|| panic!("no {name} span"));
        (span.start_us, span.start_us + span.dur_us)
    };
    let (bspg, source) = (window("BSPg"), window("Source"));
    assert!(bspg.1 > bspg.0 && source.1 > source.0, "empty span");
    assert!(
        bspg.1 <= source.0,
        "sweeps overlap: BSPg {bspg:?}, Source {source:?}"
    );
    // The phase clock reads the run and changes nothing in it.
    let again = Pipeline::default().run(&dag, &machine);
    assert_eq!(report.schedule, again, "schedule differs");
}
