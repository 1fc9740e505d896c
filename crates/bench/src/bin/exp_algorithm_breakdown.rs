//! Regenerates the per-algorithm breakdown of Appendix C.2:
//!
//! * **Table 7** — mean cost ratios (normalized to `Cilk`) of every
//!   algorithm/stage — `BL-EST`, `ETF`, `Cilk`, `HDagg`, `Init`, `HCcs` —
//!   for g = 5, per dataset.
//! * **Table 8** — reduction of our scheduler vs `ETF` on the *tiny* dataset
//!   for every (g, P) combination.
//!
//! Exits 1 unless every Table 7 row reads `HCcs ≤ Init` and
//! `HCcs < HDagg < Cilk` (the paper's ordering; CI runs this at smoke scale).
//!
//! Usage: `cargo run -p bsp-bench --release --bin exp_algorithm_breakdown --
//!         [--scale smoke|reduced|full] [--seed N]`

use bsp_bench::eval::{evaluate_dataset, placement_summary, EvalOptions};
use bsp_bench::stats::Aggregate;
use bsp_bench::table::ratio;
use bsp_bench::{scaled_dataset, CliArgs, Table};
use bsp_model::Machine;
use dag_gen::dataset::DatasetKind;

const PROCS: [usize; 3] = [4, 8, 16];
const GS: [u64; 3] = [1, 3, 5];
const LATENCY: u64 = 5;
const COLUMNS: [&str; 6] = ["blest", "etf", "cilk", "hdagg", "init", "hccs"];

fn main() {
    let args = CliArgs::from_env();
    let scale = args.scale();
    let seed = args.seed();
    let options = EvalOptions::pipeline_only(scale.pipeline_config()).with_list_baselines();

    println!(
        "# Experiment: per-algorithm breakdown (Tables 7/8) — scale={}, seed={seed}",
        scale.name()
    );

    // Table 7: g = 5, aggregated over P, one row per dataset.
    let mut table7 = Table::new(
        "\nTable 7: mean cost ratios normalized to Cilk, g = 5",
        ["dataset", "BL-EST", "ETF", "Cilk", "HDagg", "Init", "HCcs"],
    );
    let mut out_of_order: Vec<&str> = Vec::new();
    // Keep the tiny-dataset per-(g,P) aggregates around for Table 8.
    let mut tiny_cells: Vec<(u64, usize, Aggregate)> = Vec::new();

    for dataset in DatasetKind::MAIN {
        let instances = scaled_dataset(dataset, scale, seed);
        let mut g5_agg = Aggregate::new(COLUMNS);
        for p in PROCS {
            for g in GS {
                // Table 7 only needs g = 5; Table 8 needs the whole grid but
                // only on tiny.  Skip the combinations nobody consumes.
                if g != 5 && dataset != DatasetKind::Tiny {
                    continue;
                }
                let machine = Machine::uniform(p, g, LATENCY);
                let results = evaluate_dataset(&instances, &machine, &options);
                let mut agg = Aggregate::new(COLUMNS);
                for r in &results {
                    agg.push(&[
                        r.costs.bl_est,
                        r.costs.etf,
                        r.costs.cilk,
                        r.costs.hdagg,
                        r.costs.init,
                        r.costs.ours,
                    ]);
                }
                eprintln!(
                    "  done dataset={} P={p} g={g} ({} instances): {}",
                    dataset.name(),
                    agg.len(),
                    placement_summary(&results)
                );
                if g == 5 {
                    g5_agg.extend_from(&agg);
                }
                if dataset == DatasetKind::Tiny {
                    tiny_cells.push((g, p, agg));
                }
            }
        }
        let [hdagg, init, hccs] = ["hdagg", "init", "hccs"].map(|c| g5_agg.ratio(c, "cilk"));
        if !(hccs <= init && hccs < hdagg && hdagg < 1.0) {
            out_of_order.push(dataset.name());
        }
        table7.add_row([
            dataset.name().to_string(),
            ratio(g5_agg.ratio("blest", "cilk")),
            ratio(g5_agg.ratio("etf", "cilk")),
            "1.000".to_string(),
            ratio(hdagg),
            ratio(init),
            ratio(hccs),
        ]);
    }
    table7.print();

    let mut table8 = Table::new(
        "Table 8: reduction of our scheduler vs ETF on the tiny dataset",
        ["P \\ g", "g = 1", "g = 3", "g = 5"],
    );
    for p in PROCS {
        let mut row = vec![format!("P = {p}")];
        for g in GS {
            let cell = tiny_cells
                .iter()
                .find(|(cg, cp, _)| *cg == g && *cp == p)
                .map(|(_, _, agg)| agg)
                .expect("tiny cell computed above");
            row.push(format!("{:.0}%", cell.reduction("hccs", "etf")));
        }
        table8.add_row(row);
    }
    table8.print();

    if !out_of_order.is_empty() {
        eprintln!("Table 7 is not HCcs <= Init, HCcs < HDagg < Cilk on: {out_of_order:?}");
        std::process::exit(1);
    }
}
