//! Regenerates the NUMA-free experiments of §7.1:
//!
//! * **Table 1** — % cost reduction of our scheduler vs `Cilk` / `HDagg`,
//!   aggregated by (g, P) and by (g, dataset).
//! * **Table 6** (`--detailed`) — the same reductions for every
//!   (g, P, dataset) combination.
//! * **Figure 5** (`--stages`) — per-algorithm cost ratios (normalized to
//!   `Cilk`) for g ∈ {1, 3, 5}.
//!
//! Usage: `cargo run -p bsp-bench --release --bin exp_no_numa --
//!         [--scale smoke|reduced|full] [--seed N] [--detailed] [--stages]`

use bsp_bench::eval::{evaluate_dataset, EvalOptions};
use bsp_bench::stats::Aggregate;
use bsp_bench::table::pct_pair;
use bsp_bench::{scaled_dataset, CliArgs, Table};
use bsp_model::Machine;
use dag_gen::dataset::DatasetKind;

const PROCS: [usize; 3] = [4, 8, 16];
const GS: [u64; 3] = [1, 3, 5];
const LATENCY: u64 = 5;
const COLUMNS: [&str; 4] = ["cilk", "hdagg", "init", "ours"];

/// One experiment cell: all instances of one dataset under one (P, g).
struct Cell {
    dataset: DatasetKind,
    p: usize,
    g: u64,
    agg: Aggregate,
}

fn main() {
    let args = CliArgs::from_env();
    let scale = args.scale();
    let seed = args.seed();
    let options = EvalOptions::pipeline_only(scale.pipeline_config());

    println!(
        "# Experiment: no-NUMA grid (Tables 1/6, Figure 5) — scale={}, seed={seed}",
        scale.name()
    );

    let mut cells: Vec<Cell> = Vec::new();
    for dataset in DatasetKind::MAIN {
        let instances = scaled_dataset(dataset, scale, seed);
        for p in PROCS {
            for g in GS {
                let machine = Machine::uniform(p, g, LATENCY);
                let results = evaluate_dataset(&instances, &machine, &options);
                let mut agg = Aggregate::new(COLUMNS);
                for r in &results {
                    agg.push(&[r.costs.cilk, r.costs.hdagg, r.costs.init, r.costs.ours]);
                }
                eprintln!(
                    "  done dataset={} P={p} g={g} ({} instances)",
                    dataset.name(),
                    agg.len()
                );
                cells.push(Cell { dataset, p, g, agg });
            }
        }
    }

    print_overall(&cells);
    print_table1(&cells);
    if args.flag("detailed") {
        print_table6(&cells);
    }
    if args.flag("stages") {
        print_figure5(&cells);
    }
}

/// Merges several cells into one aggregate (the geometric mean is then taken
/// over the union of their instances).
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
        "\nOverall (all datasets, P, g): cost ratio ours/Cilk = {:.2}, ours/HDagg = {:.2}",
        all.ratio("ours", "cilk"),
        all.ratio("ours", "hdagg")
    );
    println!(
        "  i.e. {:.0}% reduction vs Cilk and {:.0}% vs HDagg (paper: 44% / 24%)",
        all.reduction("ours", "cilk"),
        all.reduction("ours", "hdagg")
    );
}

fn print_table1(cells: &[Cell]) {
    let mut left = Table::new(
        "\nTable 1 (left): reduction vs Cilk / HDagg by g and P",
        ["P \\ g", "g = 1", "g = 3", "g = 5"],
    );
    for p in PROCS {
        let mut row = vec![format!("P = {p}")];
        for g in GS {
            let agg = merged(cells.iter().filter(|c| c.p == p && c.g == g));
            row.push(pct_pair(
                agg.reduction("ours", "cilk"),
                agg.reduction("ours", "hdagg"),
            ));
        }
        left.add_row(row);
    }
    left.print();

    let mut right = Table::new(
        "Table 1 (right): reduction vs Cilk / HDagg by g and dataset",
        ["dataset \\ g", "g = 1", "g = 3", "g = 5"],
    );
    for dataset in DatasetKind::MAIN {
        let mut row = vec![dataset.name().to_string()];
        for g in GS {
            let agg = merged(cells.iter().filter(|c| c.dataset == dataset && c.g == g));
            row.push(pct_pair(
                agg.reduction("ours", "cilk"),
                agg.reduction("ours", "hdagg"),
            ));
        }
        right.add_row(row);
    }
    right.print();
}

fn print_table6(cells: &[Cell]) {
    let mut table = Table::new(
        "Table 6: reduction vs Cilk / HDagg for every (g, P, dataset)",
        ["dataset", "g", "P = 4", "P = 8", "P = 16"],
    );
    for dataset in DatasetKind::MAIN {
        for g in GS {
            let mut row = vec![dataset.name().to_string(), format!("{g}")];
            for p in PROCS {
                let agg = merged(
                    cells
                        .iter()
                        .filter(|c| c.dataset == dataset && c.g == g && c.p == p),
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

fn print_figure5(cells: &[Cell]) {
    let mut table = Table::new(
        "Figure 5: mean cost ratios normalized to Cilk, by g",
        ["g", "Cilk", "HDagg", "Init", "HCcs"],
    );
    for g in GS {
        let agg = merged(cells.iter().filter(|c| c.g == g));
        table.add_row([
            format!("{g}"),
            "1.000".to_string(),
            format!("{:.3}", agg.ratio("hdagg", "cilk")),
            format!("{:.3}", agg.ratio("init", "cilk")),
            format!("{:.3}", agg.ratio("ours", "cilk")),
        ]);
    }
    table.print();
}
