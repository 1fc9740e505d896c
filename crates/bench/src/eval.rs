//! Per-instance evaluation of every scheduler the paper compares.

use bsp_model::{Dag, Machine};
use bsp_sched::baselines::{BlEstScheduler, CilkScheduler, EtfScheduler, HDaggScheduler};
use bsp_sched::pipeline::Pipeline;
use bsp_sched::Scheduler;
use dag_gen::dataset::NamedDag;
use rayon::prelude::*;
use std::cmp::Reverse;
use std::collections::BTreeMap;

/// Schedule costs of every algorithm on one (DAG, machine) instance.
///
/// `init` and `ours` are the pipeline's stage costs — the `Init` and `HCcs`
/// bars of the paper's figures; `ours` is the cost of "our scheduler" used in
/// the tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlgoCosts {
    /// The `Cilk` work-stealing baseline.
    pub cilk: u64,
    /// The `BL-EST` list scheduler.
    pub bl_est: u64,
    /// The `ETF` list scheduler.
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
    /// Costs of all schedulers.
    pub costs: AlgoCosts,
    /// Per initializer, the processors it placed nodes on (the width its
    /// sweep over processor prefixes kept).
    pub branch_widths: Vec<(&'static str, usize)>,
    /// The initializer whose start the pipeline searched, `"trivial"` when
    /// the floor replaced the result.
    pub selected_init: &'static str,
}

/// Runs every baseline and the pipeline on one instance and collects the
/// costs.
pub fn evaluate_instance(name: &str, dag: &Dag, machine: &Machine) -> InstanceResult {
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

    let cilk = cost_of(&CilkScheduler::default());
    let hdagg = cost_of(&HDaggScheduler::default());
    let bl_est = cost_of(&BlEstScheduler);
    let etf = cost_of(&EtfScheduler);

    let pipeline_start = std::time::Instant::now();
    let report = Pipeline::default().run_report(dag, machine);
    if pipeline_start.elapsed() > std::time::Duration::from_secs(30) {
        eprintln!(
            "    [slow] pipeline took {:.1}s on {name} (n={}, P={})",
            pipeline_start.elapsed().as_secs_f64(),
            dag.n(),
            machine.p()
        );
    }
    InstanceResult {
        costs: AlgoCosts {
            cilk,
            bl_est,
            etf,
            hdagg,
            init: report.init_cost,
            ours: report.final_cost,
        },
        branch_widths: (report.branches.iter())
            .filter(|b| b.kept)
            .map(|b| (b.init_name, b.width))
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
        *selected.entry(r.selected_init).or_default() += 1;
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
pub fn evaluate_dataset(instances: &[NamedDag], machine: &Machine) -> Vec<InstanceResult> {
    instances
        .par_iter()
        .map(|inst| evaluate_instance(&inst.name, &inst.dag, machine))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dag_gen::fine::{spmv, SpmvConfig};

    fn dag(n: usize, seed: u64) -> Dag {
        spmv(&SpmvConfig {
            n,
            density: 0.3,
            seed,
        })
    }

    #[test]
    fn evaluates_all_baselines_and_pipeline_stages() {
        let dag = dag(12, 5);
        let machine = Machine::uniform(4, 3, 5);
        let result = evaluate_instance("t", &dag, &machine);
        let c = result.costs;
        assert!(c.cilk > 0 && c.hdagg > 0 && c.bl_est > 0 && c.etf > 0);
        assert!(c.ours <= c.init);
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
    fn dataset_evaluation_keeps_the_instance_order() {
        let instances: Vec<NamedDag> = [(8, 1), (10, 2)]
            .into_iter()
            .map(|(n, seed)| NamedDag {
                name: format!("n{n}"),
                dag: dag(n, seed),
            })
            .collect();
        let machine = Machine::numa_binary_tree(8, 1, 5, 2);
        let results = evaluate_dataset(&instances, &machine);
        assert_eq!(results.len(), 2);
        for (inst, result) in instances.iter().zip(&results) {
            let alone = evaluate_instance(&inst.name, &inst.dag, &machine);
            assert_eq!(result.costs, alone.costs);
        }
    }
}
