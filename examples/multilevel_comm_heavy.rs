//! Communication-dominated scheduling (§7.3 of the paper), and what wins it
//! in this repository.
//!
//! With a steep NUMA hierarchy (P = 16, Δ = 4) any cross-processor edge is
//! extremely expensive, and a schedule spread over all sixteen processors
//! loses to the trivial "everything on one processor" schedule.  The paper
//! answers with coarsen–solve–refine; here the flat pipeline gets further on
//! its own — the funnel reduction contracts the DAG exactly, each branch
//! sweeps the processor prefix it starts on, and the sources are placed with
//! the nodes that read them — and the multilevel scheduler's ratio member,
//! whose coarse DAG over-states communication, loses to it (on this instance
//! flat 488, ratio member 764, trivial 1259; ROADMAP item 1 has the recorded
//! rows).  `MultilevelScheduler` races both and answers with the flat
//! member's schedule.
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
    let flat = Pipeline::new(PipelineConfig::fast()).run_report(&dag, &machine);
    let base = flat.final_cost;

    let ml = MultilevelScheduler::new(MultilevelConfig::fast());
    let report = ml.run_report(&dag, &machine);

    println!("schedule costs (lower is better):");
    println!("  trivial (1 processor)  : {trivial}");
    println!("  HDagg                  : {hdagg}");
    println!(
        "  base pipeline          : {base}  ({} funnel nodes, {} placed on {} processors)",
        flat.funnel_nodes, flat.selected_init, flat.placement_width
    );
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
