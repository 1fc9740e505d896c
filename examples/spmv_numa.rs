//! NUMA effects: the same DAG scheduled on machines with an increasingly
//! steep binary-tree communication hierarchy (Δ ∈ {1 (uniform), 2, 3, 4}).
//!
//! This reproduces, on one instance, the qualitative story of §7.2: the
//! NUMA-oblivious baselines degrade quickly as Δ grows, while the cost-driven
//! pipeline keeps adapting its schedule.
//!
//! Run with: `cargo run --release --example spmv_numa`

use realistic_sched::gen::fine::{cg, IterConfig};
use realistic_sched::model::Machine;
use realistic_sched::sched::baselines::{CilkScheduler, HDaggScheduler, TrivialScheduler};
use realistic_sched::sched::pipeline::Pipeline;
use realistic_sched::sched::Scheduler;

fn main() {
    // Two conjugate-gradient iterations on a 24×24 pattern: a DAG with both
    // wide reduction layers and long dependency chains.
    let dag = cg(&IterConfig {
        n: 24,
        density: 0.25,
        iterations: 2,
        seed: 7,
    });
    println!("DAG: {}\n", dag.summary());
    println!(
        "{:<28} {:>9} {:>9} {:>9} {:>9}",
        "machine", "Trivial", "Cilk", "HDagg", "ours"
    );

    let pipeline = Pipeline::default();
    for (label, machine) in [
        ("P=8 uniform".to_string(), Machine::uniform(8, 1, 5)),
        (
            "P=8 binary tree, delta=2".to_string(),
            Machine::numa_binary_tree(8, 1, 5, 2),
        ),
        (
            "P=8 binary tree, delta=3".to_string(),
            Machine::numa_binary_tree(8, 1, 5, 3),
        ),
        (
            "P=8 binary tree, delta=4".to_string(),
            Machine::numa_binary_tree(8, 1, 5, 4),
        ),
    ] {
        let trivial = TrivialScheduler
            .schedule(&dag, &machine)
            .cost(&dag, &machine);
        let cilk = CilkScheduler::default()
            .schedule(&dag, &machine)
            .cost(&dag, &machine);
        let hdagg = HDaggScheduler::default()
            .schedule(&dag, &machine)
            .cost(&dag, &machine);
        let ours = pipeline.run(&dag, &machine).cost(&dag, &machine);
        println!("{label:<28} {trivial:>9} {cilk:>9} {hdagg:>9} {ours:>9}");
    }

    println!(
        "\nNote how the baselines' costs explode with the NUMA multiplier while the\n\
         cost-driven scheduler degrades far more gracefully (cf. Table 2 of the paper)."
    );
}
