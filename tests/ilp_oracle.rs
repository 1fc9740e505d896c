//! `ILPcs` as the exact reference for `HCcs`.
//!
//! Over the 36 (instance, machine) pairs behind `exp_paper --scale smoke`'s
//! Table 7 and Table 8 cells (every main dataset at g = 5, tiny at every g)
//! plus two NUMA trees: wherever the solver proves the optimal communication
//! schedule of the assignment the pipeline returned, that optimum is what
//! `HCcs` had already found.  The solve is capped by
//! branch-&-bound nodes under a wall clock that never binds, so the set of
//! proven rows repeats from run to run.

use bsp_bench::{scaled_dataset, Scale};
use bsp_model::{BspSchedule, CommSchedule, Machine};
use bsp_sched::ilp::{ilp_cs_improve, IlpCsOutcome};
use bsp_sched::pipeline::{Pipeline, PipelineConfig};
use dag_gen::dataset::DatasetKind;
use micro_ilp::MipConfig;
use std::time::Duration;

/// The seed `exp_paper` and the other `exp_*` binaries default to.
const SEED: u64 = 2024;

#[test]
fn hccs_returns_the_ilpcs_optimum_wherever_the_solver_proves_one() {
    let mut cells = Vec::new();
    for dataset in DatasetKind::MAIN {
        let gs: &[u64] = if dataset == DatasetKind::Tiny {
            &[1, 3, 5]
        } else {
            &[5]
        };
        for inst in scaled_dataset(dataset, Scale::Smoke, SEED) {
            for p in [4, 8, 16] {
                for &g in gs {
                    cells.push((inst.clone(), Machine::uniform(p, g, 5)));
                }
            }
            if dataset == DatasetKind::Tiny {
                let tree = Machine::numa_binary_tree(8, 3, 5, 3);
                cells.push((inst.clone(), tree));
            }
        }
    }
    assert_eq!(cells.len(), 38);

    // No time limit binds: `HC` and `HCcs` stop at their local minima.
    let pipeline = Pipeline::new(PipelineConfig::default());
    let solver = MipConfig {
        time_limit: Duration::from_secs(600),
        max_nodes: 200,
        ..MipConfig::default()
    };
    let (mut proven, mut nothing_to_send) = (0, 0);
    for (inst, machine) in &cells {
        let dag = &inst.dag;
        let context = format!("{} on {machine:?}", inst.name);
        let report = pipeline.run_report(dag, machine);
        let mut schedule = report.schedule.clone();
        let outcome = ilp_cs_improve(dag, machine, &mut schedule, &solver);
        assert!(schedule.validate(dag, machine).is_ok(), "{context}");
        assert_eq!(outcome.cost, schedule.cost(dag, machine), "{context}");

        if CommSchedule::lazy(dag, &report.schedule.assignment).is_empty() {
            let lazy = BspSchedule::from_assignment_lazy(dag, report.schedule.assignment.clone());
            let expected = IlpCsOutcome {
                cost: lazy.cost(dag, machine),
                proven: true,
            };
            assert_eq!(outcome, expected, "{context}");
            nothing_to_send += 1;
        } else if outcome.proven {
            assert_eq!(
                report.final_cost, outcome.cost,
                "{context}: HCcs stopped above the optimal communication schedule"
            );
            proven += 1;
        }
    }
    assert!(
        proven >= 25,
        "the oracle proved {proven} of {} rows ({nothing_to_send} had nothing to send)",
        cells.len()
    );
}
