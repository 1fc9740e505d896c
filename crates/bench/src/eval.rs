//! Per-instance evaluation of every scheduler the paper compares.

use bsp_model::{Dag, Machine};
use bsp_sched::baselines::{
    BlEstScheduler, CilkScheduler, EtfScheduler, HDaggScheduler, TrivialScheduler,
};
use bsp_sched::pipeline::{Pipeline, PipelineConfig};
use bsp_sched::Scheduler;
use dag_gen::dataset::NamedDag;
use rayon::prelude::*;
use std::cmp::Reverse;
use std::collections::BTreeMap;

/// Which schedulers to run on each instance.
#[derive(Debug, Clone)]
pub struct EvalOptions {
    /// Configuration of our pipeline (Figure 3).
    pub pipeline: PipelineConfig,
    /// Whether to also run the `BL-EST` and `ETF` list-scheduler baselines
    /// (needed only by the Table 7/8 experiments; `HDagg` dominates them
    /// elsewhere).
    pub list_baselines: bool,
}

impl EvalOptions {
    /// Options running the pipeline and the `Cilk`/`HDagg` baselines only.
    pub fn pipeline_only(pipeline: PipelineConfig) -> Self {
        EvalOptions {
            pipeline,
            list_baselines: false,
        }
    }

    /// Adds the `BL-EST` / `ETF` baselines.
    pub fn with_list_baselines(mut self) -> Self {
        self.list_baselines = true;
        self
    }
}

/// Schedule costs of every algorithm on one (DAG, machine) instance.
///
/// `init` and `ours` are the pipeline's stage costs — the `Init` and `HCcs`
/// bars of the paper's figures; `ours` is the cost of "our scheduler" used in
/// the tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlgoCosts {
    /// Everything on one processor in one superstep.
    pub trivial: u64,
    /// The `Cilk` work-stealing baseline.
    pub cilk: u64,
    /// The `BL-EST` list scheduler (`u64::MAX` when not run).
    pub bl_est: u64,
    /// The `ETF` list scheduler (`u64::MAX` when not run).
    pub etf: u64,
    /// The `HDagg` wavefront baseline.
    pub hdagg: u64,
    /// Best initialization heuristic (raw).
    pub init: u64,
    /// Final pipeline cost, after `HC` + `HCcs` — "our scheduler".
    pub ours: u64,
}

/// One evaluated instance.
#[derive(Debug, Clone)]
pub struct InstanceResult {
    /// Instance name (from the dataset).
    pub name: String,
    /// Number of DAG nodes.
    pub nodes: usize,
    /// Costs of all schedulers.
    pub costs: AlgoCosts,
    /// Per initializer, the processors it placed nodes on (the width its
    /// sweep over processor prefixes kept).
    pub branch_widths: Vec<(String, usize)>,
    /// The initializer whose start the pipeline searched, `"trivial"` when
    /// the floor replaced the result.
    pub selected_init: String,
}

/// Runs every configured scheduler on one instance and collects the costs.
pub fn evaluate_instance(
    name: &str,
    dag: &Dag,
    machine: &Machine,
    options: &EvalOptions,
) -> InstanceResult {
    let cost_of = |s: &dyn Scheduler| {
        let start = std::time::Instant::now();
        let cost = s.schedule(dag, machine).cost(dag, machine);
        if start.elapsed() > std::time::Duration::from_secs(20) {
            eprintln!(
                "    [slow] {} took {:.1}s on {name} (n={}, P={})",
                s.name(),
                start.elapsed().as_secs_f64(),
                dag.n(),
                machine.p()
            );
        }
        cost
    };

    let trivial = cost_of(&TrivialScheduler);
    let cilk = cost_of(&CilkScheduler::default());
    let hdagg = cost_of(&HDaggScheduler::default());
    let (bl_est, etf) = if options.list_baselines {
        (cost_of(&BlEstScheduler), cost_of(&EtfScheduler))
    } else {
        (u64::MAX, u64::MAX)
    };

    let pipeline_start = std::time::Instant::now();
    let report = Pipeline::new(options.pipeline.clone()).run_report(dag, machine);
    if pipeline_start.elapsed() > std::time::Duration::from_secs(30) {
        eprintln!(
            "    [slow] pipeline took {:.1}s on {name} (n={}, P={})",
            pipeline_start.elapsed().as_secs_f64(),
            dag.n(),
            machine.p()
        );
    }
    InstanceResult {
        name: name.to_string(),
        nodes: dag.n(),
        costs: AlgoCosts {
            trivial,
            cilk,
            bl_est,
            etf,
            hdagg,
            init: report.init_cost,
            ours: report.final_cost,
        },
        branch_widths: report
            .branches
            .iter()
            .map(|b| (b.init_name.clone(), b.width))
            .collect(),
        selected_init: report.selected_init,
    }
}

/// How the pipeline's initializers placed and which start it searched over
/// `results`, for the progress line of an experiment cell: `width BSPg 8×3
/// 4×5, Source 8×1 2×7, selected BSPg×6 trivial×2`.
pub fn placement_summary(results: &[InstanceResult]) -> String {
    // Per initializer, widest first — the order the sweep goes in.
    let mut widths: BTreeMap<&str, BTreeMap<Reverse<usize>, usize>> = BTreeMap::new();
    let mut selected: BTreeMap<&str, usize> = BTreeMap::new();
    for r in results {
        for (init, width) in &r.branch_widths {
            let of_branch = widths.entry(init).or_default();
            *of_branch.entry(Reverse(*width)).or_default() += 1;
        }
        *selected.entry(&r.selected_init).or_default() += 1;
    }
    let widths: Vec<String> = widths
        .iter()
        .map(|(init, counts)| {
            let cells = counts.iter().map(|(Reverse(w), n)| format!(" {w}×{n}"));
            format!("{init}{}", cells.collect::<String>())
        })
        .collect();
    let selected: Vec<String> = selected
        .iter()
        .map(|(name, count)| format!("{name}×{count}"))
        .collect();
    format!(
        "width {}, selected {}",
        widths.join(", "),
        selected.join(" ")
    )
}

/// Evaluates every instance of a dataset on the same machine, in parallel
/// over the instances.
pub fn evaluate_dataset(
    instances: &[NamedDag],
    machine: &Machine,
    options: &EvalOptions,
) -> Vec<InstanceResult> {
    instances
        .par_iter()
        .map(|inst| evaluate_instance(&inst.name, &inst.dag, machine, options))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dag_gen::fine::{spmv, SpmvConfig};

    fn fast_options() -> EvalOptions {
        EvalOptions::pipeline_only(PipelineConfig::fast())
    }

    #[test]
    fn evaluates_all_baselines_and_pipeline_stages() {
        let dag = spmv(&SpmvConfig {
            n: 12,
            density: 0.3,
            seed: 5,
        });
        let machine = Machine::uniform(4, 3, 5);
        let result = evaluate_instance("t", &dag, &machine, &fast_options());
        let c = result.costs;
        assert!(c.trivial > 0 && c.cilk > 0 && c.hdagg > 0);
        assert_eq!(c.bl_est, u64::MAX);
        assert!(c.ours <= c.init);
        assert_eq!(result.nodes, dag.n());
        let widths: Vec<usize> = result.branch_widths.iter().map(|(_, w)| *w).collect();
        assert!(widths.iter().all(|w| (2..=machine.p()).contains(w)));
        assert_eq!(
            placement_summary(&[result.clone(), result.clone()]),
            format!(
                "width BSPg {}×2, Source {}×2, selected {}×2",
                widths[0], widths[1], result.selected_init
            )
        );
    }

    #[test]
    fn list_baselines_are_opt_in() {
        let dag = spmv(&SpmvConfig {
            n: 10,
            density: 0.3,
            seed: 8,
        });
        let machine = Machine::numa_binary_tree(8, 1, 5, 2);
        let options = fast_options().with_list_baselines();
        let result = evaluate_instance("t", &dag, &machine, &options);
        assert_ne!(result.costs.bl_est, u64::MAX);
        assert_ne!(result.costs.etf, u64::MAX);
    }

    #[test]
    fn dataset_evaluation_covers_every_instance() {
        let instances = vec![
            NamedDag {
                name: "a".into(),
                dag: spmv(&SpmvConfig {
                    n: 8,
                    density: 0.3,
                    seed: 1,
                }),
            },
            NamedDag {
                name: "b".into(),
                dag: spmv(&SpmvConfig {
                    n: 10,
                    density: 0.3,
                    seed: 2,
                }),
            },
        ];
        let machine = Machine::uniform(4, 1, 5);
        let results = evaluate_dataset(&instances, &machine, &fast_options());
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].name, "a");
        assert_eq!(results[1].name, "b");
    }
}
