//! Quickstart: schedule a small computational DAG on a BSP machine and
//! compare the paper's pipeline against the classical baselines.
//!
//! Run with: `cargo run --release --example quickstart`

use realistic_sched::gen::fine::{spmv, SpmvConfig};
use realistic_sched::model::Machine;
use realistic_sched::sched::baselines::{CilkScheduler, HDaggScheduler};
use realistic_sched::sched::pipeline::Pipeline;
use realistic_sched::sched::Scheduler;

fn main() {
    // A fine-grained sparse matrix–vector multiplication DAG: one node per
    // scalar operation, derived from a random 32×32 pattern with 20% fill.
    let dag = spmv(&SpmvConfig {
        n: 32,
        density: 0.2,
        seed: 42,
    });
    println!("DAG: {}", dag.summary());

    // A BSP machine with 4 processors, per-unit communication cost g = 3 and
    // superstep latency l = 5 (the paper's default training parameters).
    let machine = Machine::uniform(4, 3, 5);

    // Baselines.
    let cilk = CilkScheduler::default().schedule(&dag, &machine);
    let hdagg = HDaggScheduler::default().schedule(&dag, &machine);

    // The paper's framework: initialization heuristics, then hill climbing.
    let report = Pipeline::default().run_report(&dag, &machine);
    let ours = &report.schedule;
    assert!(ours.validate(&dag, &machine).is_ok());

    println!("\nschedule costs (lower is better):");
    println!("  Cilk              : {}", cilk.cost(&dag, &machine));
    println!("  HDagg             : {}", hdagg.cost(&dag, &machine));
    println!("  ours (init)       : {}", report.init_cost);
    println!("  ours (+HC/HCcs)   : {}", report.final_cost);
    println!("  selected initializer: {}", report.selected_init);

    let breakdown = ours.cost_breakdown(&dag, &machine);
    println!(
        "\nfinal schedule: {} supersteps",
        breakdown.num_supersteps()
    );
    println!("  total cost        : {}", breakdown.total());
    println!(
        "  communication share: {:.1}%",
        100.0 * breakdown.comm_fraction()
    );
}
