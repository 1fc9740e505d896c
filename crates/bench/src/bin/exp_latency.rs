//! Regenerates the latency sweep of Appendix C.3:
//!
//! * **Table 9** — reduction of our scheduler vs `Cilk` / `HDagg` on the
//!   *medium* dataset with g = 1, P = 8, for ℓ ∈ {2, 5, 10, 20}.
//!
//! Usage: `cargo run -p bsp-bench --release --bin exp_latency --
//!         [--scale smoke|reduced|full] [--seed N]`

use bsp_bench::eval::{evaluate_dataset, EvalOptions};
use bsp_bench::stats::Aggregate;
use bsp_bench::table::pct_pair;
use bsp_bench::{scaled_dataset, CliArgs, Table};
use bsp_model::Machine;
use dag_gen::dataset::DatasetKind;

const P: usize = 8;
const G: u64 = 1;
const LATENCIES: [u64; 4] = [2, 5, 10, 20];

fn main() {
    let args = CliArgs::from_env();
    let scale = args.scale();
    let seed = args.seed();
    let options = EvalOptions::pipeline_only(scale.pipeline_config());

    println!(
        "# Experiment: latency sweep (Table 9) — scale={}, seed={seed}, dataset=medium, P={P}, g={G}",
        scale.name()
    );

    let instances = scaled_dataset(DatasetKind::Medium, scale, seed);
    let mut table = Table::new(
        "\nTable 9: reduction vs Cilk / HDagg for different latencies",
        ["l = 2", "l = 5", "l = 10", "l = 20"],
    );
    let mut row = Vec::new();
    for l in LATENCIES {
        let machine = Machine::uniform(P, G, l);
        let results = evaluate_dataset(&instances, &machine, &options);
        let mut agg = Aggregate::new(["cilk", "hdagg", "ours"]);
        for r in &results {
            agg.push(&[r.costs.cilk, r.costs.hdagg, r.costs.ours]);
        }
        eprintln!("  done l={l} ({} instances)", agg.len());
        row.push(pct_pair(
            agg.reduction("ours", "cilk"),
            agg.reduction("ours", "hdagg"),
        ));
    }
    table.add_row(row);
    table.print();
}
