//! Communication-dominated scheduling: when the multilevel scheduler earns
//! its keep (§7.3 of the paper).
//!
//! With a steep NUMA hierarchy (P = 16, Δ = 4) even good schedulers struggle
//! to beat the trivial "everything on one processor" schedule, because any
//! cross-processor edge is extremely expensive.  The multilevel
//! coarsen–solve–refine approach moves whole clusters at a time and therefore
//! finds structure the node-by-node methods miss.
//!
//! Run with: `cargo run --release --example multilevel_comm_heavy`

use realistic_sched::gen::fine::{exp, IterConfig};
use realistic_sched::model::Machine;
use realistic_sched::sched::baselines::{HDaggScheduler, TrivialScheduler};
use realistic_sched::sched::multilevel::{MultilevelConfig, MultilevelScheduler};
use realistic_sched::sched::pipeline::{Pipeline, PipelineConfig};
use realistic_sched::sched::Scheduler;

fn main() {
    // An iterated sparse matrix–vector product: heavily layered, lots of
    // cross-layer data movement.
    let dag = exp(&IterConfig {
        n: 20,
        density: 0.3,
        iterations: 4,
        seed: 3,
    });
    // A machine where the communication cost between far-apart processors is
    // Δ^3 = 64 times the cost between neighbours.
    let machine = Machine::numa_binary_tree(16, 1, 5, 4);
    println!("DAG: {}", dag.summary());
    println!(
        "machine: P = {}, max NUMA coefficient = {}\n",
        machine.p(),
        machine.max_lambda()
    );

    let trivial = TrivialScheduler
        .schedule(&dag, &machine)
        .cost(&dag, &machine);
    let hdagg = HDaggScheduler::default()
        .schedule(&dag, &machine)
        .cost(&dag, &machine);
    let base = Pipeline::new(PipelineConfig::fast())
        .run(&dag, &machine)
        .cost(&dag, &machine);

    let ml = MultilevelScheduler::new(MultilevelConfig::fast());
    let report = ml.run_report(&dag, &machine);

    println!("schedule costs (lower is better):");
    println!("  trivial (1 processor)  : {trivial}");
    println!("  HDagg                  : {hdagg}");
    println!("  base pipeline          : {base}");
    for outcome in &report.ratio_outcomes {
        println!(
            "  multilevel (coarsen to {:>3.0}%): {}  ({} coarse nodes)",
            outcome.ratio * 100.0,
            outcome.cost,
            outcome.coarse_nodes
        );
    }
    println!(
        "  multilevel (best)      : {}  (won by {})",
        report.final_cost, report.winner
    );
    assert!(report.schedule.validate(&dag, &machine).is_ok());
}
