//! Anatomy of the scheduling framework (Figure 3 of the paper): what each
//! stage — initialization, `HC`, the relocation phase, the refinement on the
//! caller's DAG, `HCcs` — contributes on one instance, what the individual
//! algorithms do when invoked directly, and the exact `ILPcs` check on the
//! communication schedule `HCcs` returns.
//!
//! Run with: `cargo run --release --example pipeline_anatomy`

use realistic_sched::gen::fine::{cg, IterConfig};
use realistic_sched::ilp::MipConfig;
use realistic_sched::model::Machine;
use realistic_sched::sched::hill_climb::{hc_improve, hccs_improve, HillClimbConfig};
use realistic_sched::sched::ilp::ilp_cs_improve;
use realistic_sched::sched::init::{BspgScheduler, SourceScheduler};
use realistic_sched::sched::pipeline::Pipeline;
use realistic_sched::sched::Scheduler;

fn main() {
    let dag = cg(&IterConfig {
        n: 20,
        density: 0.25,
        iterations: 2,
        seed: 5,
    });
    let machine = Machine::uniform(8, 3, 5);
    println!("DAG: {}", dag.summary());
    println!("machine: P = 8, g = 3, l = 5 (uniform)\n");

    // --- Manual walk through the stages -----------------------------------
    println!("manual walk from one start (Source initializer):");
    let mut schedule = SourceScheduler.schedule(&dag, &machine);
    println!(
        "  Source initial schedule : {}",
        schedule.cost(&dag, &machine)
    );

    let hc_cfg = HillClimbConfig::default();
    let outcome = hc_improve(&dag, &machine, &mut schedule, &hc_cfg);
    println!(
        "  after HC ({} moves)     : {}",
        outcome.steps,
        schedule.cost(&dag, &machine)
    );
    hccs_improve(&dag, &machine, &mut schedule, &hc_cfg);
    println!(
        "  after HCcs              : {}",
        schedule.cost(&dag, &machine)
    );

    assert!(schedule.validate(&dag, &machine).is_ok());

    // --- The same thing through the combined pipeline ---------------------
    println!("\nthe combined pipeline (both starts, one search; Figure 3):");
    let report = Pipeline::default().run_report(&dag, &machine);
    println!(
        "  solved a DAG of {} nodes (the funnel reduction of {})",
        report.funnel_nodes,
        dag.n()
    );
    // Every candidate of both width sweeps; each sweep keeps its cheapest.
    for start in &report.branches {
        println!(
            "  start {:<8}: placed on {:>2} of {} processors, {} supersteps merged, cost {}{}",
            start.init_name,
            start.width,
            machine.p(),
            start.merged,
            start.init_cost,
            if start.kept { " (kept)" } else { "" }
        );
    }
    println!(
        "  searched {} (width {}): start {} -> after HC {}",
        report.selected_init, report.placement_width, report.init_cost, report.local_search_cost,
    );
    // The block moves after `HC`, each a larger move (or none) and a descent
    // from its seeds, kept when strictly cheaper: heavy serial supersteps
    // moved whole (none on a DAG whose `HC` answer has no superstep with all
    // its work on one processor), then single-node moves on the DAG itself
    // after the funnel projection, from the cluster members beside another
    // processor.
    for m in &report.block_moves {
        println!(
            "  {}: {} evaluated, {} kept, {} seeds, {} search visits, {} moves -> {}",
            m.generator, m.evaluated, m.kept, m.seeds, m.visits, m.moves, m.final_cost
        );
    }
    println!("  after HCcs {}", report.final_cost);
    println!(
        "  no schedule costs less than {}: gap {:.2}",
        report.lower_bound,
        report.gap()
    );

    // The run ends at HCcs.  ILPcs is the exact check on it: the cheapest
    // communication schedule the answer's assignment admits, when the solver
    // can prove it.
    let mut checked = report.schedule.clone();
    let check = ilp_cs_improve(&dag, &machine, &mut checked, &MipConfig::default());
    println!(
        "  ILPcs check on its Γ: {} ({})",
        check.cost,
        if check.proven {
            "proven optimal"
        } else {
            "not proven"
        }
    );

    // For reference: what the raw BSPg initializer alone would give.
    let bspg = BspgScheduler.schedule(&dag, &machine).cost(&dag, &machine);
    println!("\nraw BSPg for comparison: {bspg}");
}
