//! Regenerates the *huge*-dataset experiments of §7.1/§7.2 and Appendix C.5,
//! where the paper too runs only the lightweight part of its framework
//! (`BSPg`/`Source` + `HC`/`HCcs`):
//!
//! * **Table 11** — reduction of `Init+HC+HCcs` vs `Cilk` / `HDagg` without
//!   NUMA, for P ∈ {4, 8, 16} and g ∈ {1, 3, 5}.
//! * **Table 12** (`--numa`) — the same with NUMA, for P ∈ {8, 16} and
//!   Δ ∈ {2, 3, 4}.
//! * **Figure 7** (`--stages`) — cost ratios of `Init` and `HCcs` normalized
//!   to `Cilk`, per P (no NUMA).
//!
//! Usage: `cargo run -p bsp-bench --release --bin exp_huge --
//!         [--scale smoke|reduced|full] [--seed N] [--numa] [--stages]`

use bsp_bench::eval::{evaluate_dataset, EvalOptions};
use bsp_bench::stats::Aggregate;
use bsp_bench::table::pct_pair;
use bsp_bench::{scaled_dataset, CliArgs, Table};
use bsp_model::Machine;
use dag_gen::dataset::DatasetKind;

const PROCS: [usize; 3] = [4, 8, 16];
const GS: [u64; 3] = [1, 3, 5];
const NUMA_PROCS: [usize; 2] = [8, 16];
const DELTAS: [u64; 3] = [2, 3, 4];
const LATENCY: u64 = 5;
const COLUMNS: [&str; 4] = ["cilk", "hdagg", "init", "ours"];

fn main() {
    let args = CliArgs::from_env();
    let scale = args.scale();
    let seed = args.seed();
    let options = EvalOptions::pipeline_only(scale.pipeline_config());

    println!(
        "# Experiment: huge dataset (Tables 11/12, Figure 7) — scale={}, seed={seed}",
        scale.name()
    );

    let instances = scaled_dataset(DatasetKind::Huge, scale, seed);
    println!("{} instances.", instances.len());

    // --- Table 11 / Figure 7: no NUMA ------------------------------------
    let mut cells: Vec<(usize, u64, Aggregate)> = Vec::new();
    for p in PROCS {
        for g in GS {
            let machine = Machine::uniform(p, g, LATENCY);
            let results = evaluate_dataset(&instances, &machine, &options);
            let mut agg = Aggregate::new(COLUMNS);
            for r in &results {
                agg.push(&[r.costs.cilk, r.costs.hdagg, r.costs.init, r.costs.ours]);
            }
            eprintln!("  done P={p} g={g}");
            cells.push((p, g, agg));
        }
    }

    let mut table11 = Table::new(
        "\nTable 11: Init+HC+HCcs reduction vs Cilk / HDagg on the huge dataset (no NUMA)",
        ["P \\ g", "g = 1", "g = 3", "g = 5"],
    );
    for p in PROCS {
        let mut row = vec![format!("P = {p}")];
        for g in GS {
            let (_, _, agg) = cells
                .iter()
                .find(|(cp, cg, _)| *cp == p && *cg == g)
                .expect("cell computed above");
            row.push(pct_pair(
                agg.reduction("ours", "cilk"),
                agg.reduction("ours", "hdagg"),
            ));
        }
        table11.add_row(row);
    }
    table11.print();

    if args.flag("stages") {
        let mut fig7 = Table::new(
            "Figure 7: mean cost ratios normalized to Cilk on the huge dataset, by P",
            ["P", "Cilk", "HDagg", "Init", "HCcs"],
        );
        for p in PROCS {
            let mut agg = Aggregate::new(COLUMNS);
            for (_, _, cell) in cells.iter().filter(|(cp, _, _)| *cp == p) {
                agg.extend_from(cell);
            }
            fig7.add_row([
                format!("{p}"),
                "1.000".to_string(),
                format!("{:.3}", agg.ratio("hdagg", "cilk")),
                format!("{:.3}", agg.ratio("init", "cilk")),
                format!("{:.3}", agg.ratio("ours", "cilk")),
            ]);
        }
        fig7.print();
    }

    // --- Table 12: with NUMA ---------------------------------------------
    if args.flag("numa") {
        let mut table12 = Table::new(
            "Table 12: Init+HC+HCcs reduction vs Cilk / HDagg on the huge dataset (NUMA, g = 1)",
            ["P \\ Δ", "Δ = 2", "Δ = 3", "Δ = 4"],
        );
        for p in NUMA_PROCS {
            let mut row = vec![format!("P = {p}")];
            for delta in DELTAS {
                let machine = Machine::numa_binary_tree(p, 1, LATENCY, delta);
                let results = evaluate_dataset(&instances, &machine, &options);
                let mut agg = Aggregate::new(COLUMNS);
                for r in &results {
                    agg.push(&[r.costs.cilk, r.costs.hdagg, r.costs.init, r.costs.ours]);
                }
                eprintln!("  done NUMA P={p} delta={delta}");
                row.push(pct_pair(
                    agg.reduction("ours", "cilk"),
                    agg.reduction("ours", "hdagg"),
                ));
            }
            table12.add_row(row);
        }
        table12.print();
    }
}
