//! Regenerates the NUMA experiments of §7.2:
//!
//! * **Table 2** — % cost reduction of our base scheduler vs `Cilk` / `HDagg`
//!   for P ∈ {8, 16} and NUMA multipliers Δ ∈ {2, 3, 4}.
//! * **Table 10** (`--detailed`) — the same reductions per dataset.
//! * **Figure 6** (`--stages`) — per-algorithm cost ratios normalized to
//!   `Cilk` for every (P, Δ).
//!
//! Usage: `cargo run -p bsp-bench --release --bin exp_numa --
//!         [--scale smoke|reduced|full] [--seed N] [--detailed] [--stages]`

use bsp_bench::eval::{evaluate_dataset, placement_summary, EvalOptions};
use bsp_bench::stats::Aggregate;
use bsp_bench::table::pct_pair;
use bsp_bench::{scaled_dataset, CliArgs, Table};
use bsp_model::Machine;
use dag_gen::dataset::DatasetKind;

const PROCS: [usize; 2] = [8, 16];
const DELTAS: [u64; 3] = [2, 3, 4];
const G: u64 = 1;
const LATENCY: u64 = 5;
const COLUMNS: [&str; 4] = ["cilk", "hdagg", "init", "ours"];

struct Cell {
    dataset: DatasetKind,
    p: usize,
    delta: u64,
    agg: Aggregate,
}

fn main() {
    let args = CliArgs::from_env();
    let scale = args.scale();
    let seed = args.seed();
    let options = EvalOptions::pipeline_only(scale.pipeline_config());

    println!(
        "# Experiment: NUMA grid (Tables 2/10, Figure 6) — scale={}, seed={seed}, g={G}, l={LATENCY}",
        scale.name()
    );

    let mut cells = Vec::new();
    for dataset in DatasetKind::MAIN {
        let instances = scaled_dataset(dataset, scale, seed);
        for p in PROCS {
            for delta in DELTAS {
                let machine = Machine::numa_binary_tree(p, G, LATENCY, delta);
                let results = evaluate_dataset(&instances, &machine, &options);
                let mut agg = Aggregate::new(COLUMNS);
                for r in &results {
                    agg.push(&[r.costs.cilk, r.costs.hdagg, r.costs.init, r.costs.ours]);
                }
                eprintln!(
                    "  done dataset={} P={p} delta={delta} ({} instances): {}",
                    dataset.name(),
                    agg.len(),
                    placement_summary(&results)
                );
                cells.push(Cell {
                    dataset,
                    p,
                    delta,
                    agg,
                });
            }
        }
    }

    print_overall(&cells);
    print_table2(&cells);
    if args.flag("detailed") {
        print_table10(&cells);
    }
    if args.flag("stages") {
        print_figure6(&cells);
    }
}

fn merged<'a>(cells: impl Iterator<Item = &'a Cell>) -> Aggregate {
    let mut merged = Aggregate::new(COLUMNS);
    for cell in cells {
        merged.extend_from(&cell.agg);
    }
    merged
}

fn print_overall(cells: &[Cell]) {
    let all = merged(cells.iter());
    println!(
        "\nOverall (all datasets, P, Δ): {:.0}% reduction vs Cilk, {:.0}% vs HDagg (paper: 60% / 43%)",
        all.reduction("ours", "cilk"),
        all.reduction("ours", "hdagg")
    );
}

fn print_table2(cells: &[Cell]) {
    let mut table = Table::new(
        "\nTable 2: base-scheduler reduction vs Cilk / HDagg with NUMA",
        ["P \\ Δ", "Δ = 2", "Δ = 3", "Δ = 4"],
    );
    for p in PROCS {
        let mut row = vec![format!("P = {p}")];
        for delta in DELTAS {
            let agg = merged(cells.iter().filter(|c| c.p == p && c.delta == delta));
            row.push(pct_pair(
                agg.reduction("ours", "cilk"),
                agg.reduction("ours", "hdagg"),
            ));
        }
        table.add_row(row);
    }
    table.print();
}

fn print_table10(cells: &[Cell]) {
    let mut table = Table::new(
        "Table 10: reduction vs Cilk / HDagg per (P, Δ, dataset)",
        ["dataset", "P", "Δ = 2", "Δ = 3", "Δ = 4"],
    );
    for dataset in DatasetKind::MAIN {
        for p in PROCS {
            let mut row = vec![dataset.name().to_string(), format!("{p}")];
            for delta in DELTAS {
                let agg = merged(
                    cells
                        .iter()
                        .filter(|c| c.dataset == dataset && c.p == p && c.delta == delta),
                );
                row.push(pct_pair(
                    agg.reduction("ours", "cilk"),
                    agg.reduction("ours", "hdagg"),
                ));
            }
            table.add_row(row);
        }
    }
    table.print();
}

fn print_figure6(cells: &[Cell]) {
    let mut table = Table::new(
        "Figure 6: mean cost ratios normalized to Cilk, per (P, Δ)",
        ["P", "Δ", "Cilk", "HDagg", "Init", "HCcs"],
    );
    for p in PROCS {
        for delta in DELTAS {
            let agg = merged(cells.iter().filter(|c| c.p == p && c.delta == delta));
            table.add_row([
                format!("{p}"),
                format!("{delta}"),
                "1.000".to_string(),
                format!("{:.3}", agg.ratio("hdagg", "cilk")),
                format!("{:.3}", agg.ratio("init", "cilk")),
                format!("{:.3}", agg.ratio("ours", "cilk")),
            ]);
        }
    }
    table.print();
}
