//! Communication-dominated scheduling (§7.3 of the paper), and what wins it
//! in this repository.
//!
//! With a steep NUMA hierarchy (P = 16, Δ = 4) any cross-processor edge is
//! extremely expensive, and a schedule spread over all sixteen processors
//! loses to the trivial "everything on one processor" schedule.  The paper
//! answers with coarsen–solve–refine.  Here two steps of the pipeline do the
//! work: the funnel reduction contracts the DAG *exactly* (a coarse node is
//! the multi-node move single-node `HC` lacks), and each initializer sweeps
//! the processor prefix it places on, so the search starts on the
//! part of the machine that pays.  (The paper's inexact coarsening was tried
//! on top of that and lost on this instance, 764 against 488 with the trivial
//! schedule at 1259; README has the record.)
//!
//! Run with: `cargo run --release --example comm_heavy`

use realistic_sched::gen::fine::{exp, IterConfig};
use realistic_sched::model::Machine;
use realistic_sched::sched::baselines::{HDaggScheduler, TrivialScheduler};
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
    let report = Pipeline::new(PipelineConfig::fast()).run_report(&dag, &machine);

    println!("schedule costs (lower is better):");
    println!("  trivial (1 processor) : {trivial}");
    println!("  HDagg                 : {hdagg}");
    println!(
        "  pipeline              : {}  ({} of {} nodes left by the funnel reduction, \
         {} placed on {} of {} processors)",
        report.final_cost,
        report.funnel_nodes,
        dag.n(),
        report.selected_init,
        report.placement_width,
        machine.p()
    );
    assert!(report.schedule.validate(&dag, &machine).is_ok());
    assert!(report.final_cost <= trivial);
}
