//! End-to-end integration tests of the combined pipeline (Figure 3) on
//! generated dataset instances.

mod common;

use bsp_model::Machine;
use bsp_sched::baselines::{CilkScheduler, HDaggScheduler};
use bsp_sched::multilevel::{MultilevelConfig, MultilevelScheduler};
use bsp_sched::pipeline::{Pipeline, PipelineConfig};
use bsp_sched::Scheduler;
use dag_gen::dataset::{Dataset, DatasetKind};
use dag_gen::fine::{exp, IterConfig};

/// A couple of real tiny-dataset instances (paper sizes, 40–80 nodes).
fn tiny_instances() -> Vec<(String, bsp_model::Dag)> {
    Dataset::generate(DatasetKind::Tiny, 99)
        .instances
        .into_iter()
        .step_by(7)
        .map(|i| (i.name, i.dag))
        .collect()
}

#[test]
fn pipeline_beats_cilk_on_tiny_dataset_instances() {
    let pipeline = Pipeline::default();
    for (name, dag) in tiny_instances() {
        for machine in [Machine::uniform(4, 3, 5), Machine::uniform(8, 5, 5)] {
            let report = pipeline.run_report(&dag, &machine);
            assert!(report.schedule.validate(&dag, &machine).is_ok());
            let cilk = CilkScheduler::default()
                .schedule(&dag, &machine)
                .cost(&dag, &machine);
            assert!(
                report.final_cost <= cilk,
                "{name}: pipeline {} worse than Cilk {cilk} (P={}, g={})",
                report.final_cost,
                machine.p(),
                machine.g()
            );
        }
    }
}

#[test]
fn pipeline_matches_or_beats_hdagg_on_most_tiny_instances() {
    // The paper reports a consistent advantage over HDagg; with the smoke
    // budgets we only require the pipeline to win on the majority of runs and
    // never lose by more than a small factor on any single one.
    let pipeline = Pipeline::default();
    let machine = Machine::uniform(8, 3, 5);
    let mut wins = 0usize;
    let mut total = 0usize;
    for (name, dag) in tiny_instances() {
        let ours = pipeline.run(&dag, &machine).cost(&dag, &machine);
        let hdagg = HDaggScheduler::default()
            .schedule(&dag, &machine)
            .cost(&dag, &machine);
        assert!(
            ours as f64 <= hdagg as f64 * 1.05,
            "{name}: pipeline {ours} much worse than HDagg {hdagg}"
        );
        total += 1;
        if ours <= hdagg {
            wins += 1;
        }
    }
    assert!(
        wins * 2 >= total,
        "pipeline beat HDagg on only {wins}/{total} tiny instances"
    );
}

#[test]
fn numa_improvement_grows_with_the_hierarchy_multiplier() {
    // Qualitative reproduction of the §7.2 trend on one instance: the ratio
    // ours/Cilk should not get worse as Δ increases.
    let dag = exp(&IterConfig {
        n: 16,
        density: 0.3,
        iterations: 3,
        seed: 21,
    });
    let pipeline = Pipeline::default();
    let mut ratios = Vec::new();
    for delta in [2u64, 4u64] {
        let machine = Machine::numa_binary_tree(8, 1, 5, delta);
        let ours = pipeline.run(&dag, &machine).cost(&dag, &machine) as f64;
        let cilk = CilkScheduler::default()
            .schedule(&dag, &machine)
            .cost(&dag, &machine) as f64;
        ratios.push(ours / cilk);
    }
    assert!(
        ratios[1] <= ratios[0] * 1.10,
        "ours/Cilk ratio degraded with larger Δ: {ratios:?}"
    );
}

/// `MultilevelScheduler` is the name the frozen benchmark's `ml_fine` /
/// `ml_kernels` workloads solve through (`crates/core/src/multilevel.rs`):
/// it must answer exactly what the pipeline answers, and the six seconds of
/// its old phase breakdown must fit inside the run they describe.
#[test]
fn multilevel_report_is_consistent_on_a_medium_instance() {
    let dag = exp(&IterConfig {
        n: 20,
        density: 0.25,
        iterations: 3,
        seed: 5,
    });
    let mut base = PipelineConfig::default();
    base.hill_climb.max_steps = 2_000;
    for machine in [
        Machine::numa_binary_tree(16, 1, 5, 4),
        Machine::uniform(4, 3, 5),
    ] {
        let ml = MultilevelScheduler::new(MultilevelConfig {
            base: base.clone(),
            ..MultilevelConfig::default()
        });
        let clock = std::time::Instant::now();
        let report = ml.run_report(&dag, &machine);
        let wall = clock.elapsed().as_secs_f64();
        let flat = Pipeline::new(base.clone()).run_report(&dag, &machine);
        assert_eq!(report.schedule, flat.schedule);
        assert_eq!(report.final_cost, flat.final_cost);
        assert!(report.schedule.validate(&dag, &machine).is_ok());
        assert_eq!(report.final_cost, report.schedule.cost(&dag, &machine));

        let t = report.total_timings();
        let seconds = [
            t.coarsen_seconds,
            t.base_solve_seconds,
            t.uncontract_seconds,
            t.refine_seconds,
            t.final_sweep_seconds,
            t.final_comm_seconds,
        ];
        assert!(seconds.iter().all(|&s| s >= 0.0), "{seconds:?}");
        assert!(seconds.iter().sum::<f64>() <= wall, "{seconds:?} > {wall}");
        assert!(t.coarsen_seconds > 0.0 && t.refine_phases == 0);
        assert_eq!(t.coarsen_stats.contractions, dag.n() - flat.funnel_nodes);
        assert_eq!(t.coarsen_stats.rounds, 1);
    }
}

#[test]
fn pipeline_scheduler_trait_and_report_agree() {
    let dag = exp(&IterConfig {
        n: 12,
        density: 0.3,
        iterations: 2,
        seed: 8,
    });
    let machine = Machine::uniform(4, 1, 5);
    let mut config = PipelineConfig::default();
    config.hill_climb.max_steps = 300;
    let pipeline = Pipeline::new(config);
    let via_trait = pipeline.schedule(&dag, &machine).cost(&dag, &machine);
    let via_report = pipeline.run_report(&dag, &machine).final_cost;
    assert_eq!(via_trait, via_report);
}

/// `bicgstab`'s `HC` answer holds heavy supersteps on one processor while
/// the others idle; moving such a superstep whole, then climbing, ends below
/// the cost the pipeline answered before it had the move (3442), and the
/// phase is the one depth-0 `relocate` sample between `hc` and `hccs`.
#[test]
fn a_heavy_serial_superstep_moves_whole_on_bicgstab() {
    use dag_gen::coarse::{coarse, CoarseAlgorithm, CoarseConfig};
    let dag = coarse(&CoarseConfig {
        algorithm: CoarseAlgorithm::BiCgStab,
        iterations: 150,
    });
    let machine = Machine::uniform(4, 3, 5);
    let report = Pipeline::default().run_report(&dag, &machine);
    assert!(report.schedule.validate(&dag, &machine).is_ok());
    assert_eq!(report.final_cost, report.schedule.cost(&dag, &machine));
    let relocation = report.relocation;
    assert!(relocation.kept >= 1, "{relocation:?}");
    assert!(
        relocation.final_cost < report.local_search_cost,
        "{relocation:?}"
    );
    assert!(report.final_cost <= relocation.final_cost);
    assert!(report.final_cost < 3442, "{}", report.final_cost);
    let depth0: Vec<&str> = (report.phases.iter())
        .filter(|p| p.depth == 0)
        .map(|p| p.name)
        .collect();
    assert_eq!(
        depth0,
        ["funnel", "BSPg", "Source", "hc", "relocate", "refine", "hccs"]
    );
}

/// On the binary tree the relocation leaves `bicgstab` where single-node
/// moves on the DAG itself go downhill, which moves of whole funnel clusters
/// cannot make: the refinement after the projection keeps a descent and
/// ends below the cost the pipeline answered before it had the phase
/// (3256), and is the one depth-0 `refine` sample between `relocate` and
/// `hccs`.
#[test]
fn bicgstab_is_refined_on_the_callers_dag() {
    use dag_gen::coarse::{coarse, CoarseAlgorithm, CoarseConfig};
    let dag = coarse(&CoarseConfig {
        algorithm: CoarseAlgorithm::BiCgStab,
        iterations: 150,
    });
    assert_eq!(dag.n(), 1958);
    let machine = Machine::numa_binary_tree(8, 3, 5, 3);
    let report = Pipeline::default().run_report(&dag, &machine);
    assert!(report.schedule.validate(&dag, &machine).is_ok());
    assert_eq!(report.final_cost, report.schedule.cost(&dag, &machine));
    assert!(report.funnel_nodes < dag.n());
    let refinement = report.refinement;
    assert!(refinement.kept && refinement.moves > 0, "{refinement:?}");
    assert!(
        refinement.final_cost < report.relocation.final_cost,
        "{refinement:?}"
    );
    assert!(report.final_cost <= refinement.final_cost);
    assert!(report.final_cost < 3256, "{}", report.final_cost);
    let depth0: Vec<&str> = (report.phases.iter())
        .filter(|p| p.depth == 0)
        .map(|p| p.name)
        .collect();
    assert_eq!(
        depth0,
        ["funnel", "BSPg", "Source", "hc", "relocate", "refine", "hccs"]
    );
}

/// `pagerank` is the family whose searched start is `Source`'s: `BSPg`'s
/// kept start costs more than twice as much, and `HC` from it would have far
/// further to climb to the same answer.  This is why both initializers are
/// swept.
#[test]
fn pagerank_is_searched_from_source() {
    use dag_gen::coarse::{coarse, CoarseAlgorithm, CoarseConfig};
    let dag = coarse(&CoarseConfig {
        algorithm: CoarseAlgorithm::PageRank,
        iterations: 100,
    });
    assert_eq!(dag.n(), 603);
    let machine = Machine::uniform(4, 3, 5);
    let report = Pipeline::default().run_report(&dag, &machine);
    assert_eq!(report.selected_init, "Source");
    let kept = |name: &str| {
        let mut of = report.branches.iter().filter(|b| b.kept);
        of.find(|b| b.init_name == name)
            .expect("one kept start each")
            .init_cost
    };
    let (bspg, source) = (kept("BSPg"), kept("Source"));
    assert!(bspg > 2 * source, "BSPg {bspg}, Source {source}");
    assert_eq!(report.final_cost, 608);
}
