//! The paper's result tables (§7, Appendix C) from one grid of (dataset,
//! machine) cells, each evaluated once: Tables 1, 6 and Figure 5 (uniform BSP,
//! P × g), Tables 2, 10 and Figure 6 (NUMA trees, P × Δ), Table 9 (ℓ on
//! medium), Tables 11, 12 and Figure 7 (huge), Table 7 (every algorithm
//! normalised to `Cilk`, g = 5) and Table 8 (vs `ETF` on tiny).  Writes one
//! row per cell to `--out` (default `BENCH_paper.json`).  Exits 1 unless
//! every cell's geometric-mean `HCcs` cost is below `BL-EST`, `ETF`, `Cilk`
//! and `HDagg`, no instance ends above its `Init` cost, every NUMA (P, Δ)
//! reduction vs `Cilk` is above the uniform (P, g = 1) one, and every Table 7
//! row reads `HCcs ≤ Init`, `HCcs < HDagg < Cilk`.
//!
//! Usage: `cargo run -p bsp_bench --release --bin exp_paper --
//!         [--scale smoke|reduced|full] [--seed N] [--out PATH]`

use bsp_bench::eval::{evaluate_dataset, placement_summary, AlgoCosts};
use bsp_bench::stats::{geo_mean_ratio, host_cores, reduction_pct, BenchReport};
use bsp_bench::table::{pct_pair, ratio};
use bsp_bench::{scaled_dataset, CliArgs, Table};
use bsp_model::Machine;
use dag_gen::dataset::DatasetKind::{self, Huge, Large, Medium, Small, Tiny};
use std::cmp::Ordering::{Greater, Less};

const DATASETS: [DatasetKind; 5] = [Tiny, Small, Medium, Large, Huge];
const PROCS: [usize; 3] = [4, 8, 16];
const GS: [u64; 3] = [1, 3, 5];
const NUMA_PROCS: [usize; 2] = [8, 16];
/// The NUMA multipliers; `Δ = 1` is the uniform machine.
const DELTAS: [u64; 4] = [1, 2, 3, 4];
const LATENCY: u64 = 5;
/// Table 9's sweep on medium at P = 8, g = 1.
const LATENCIES: [u64; 4] = [2, 5, 10, 20];

type Cost = fn(&AlgoCosts) -> u64;
/// How a table cell is printed from the instances it covers.
type Fmt = fn(&[AlgoCosts]) -> String;
const CILK: Cost = |c| c.cilk;
const HDAGG: Cost = |c| c.hdagg;
/// Table 7's columns, each a name and the cost it reads; figures print the
/// last four.
const ALGOS: [(&str, Cost); 6] = [
    ("BL-EST", |c| c.bl_est),
    ("ETF", |c| c.etf),
    ("Cilk", CILK),
    ("HDagg", HDAGG),
    ("Init", |c| c.init),
    ("HCcs", |c| c.ours),
];

/// One grid point: `dataset` on `p` processors with communication cost `g`
/// and latency `l`, uniform when `delta == 1` and a NUMA binary tree with
/// multiplier `delta` otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Key {
    dataset: DatasetKind,
    p: usize,
    g: u64,
    l: u64,
    delta: u64,
}

impl Key {
    fn machine(&self) -> Machine {
        match self.delta {
            1 => Machine::uniform(self.p, self.g, self.l),
            d => Machine::numa_binary_tree(self.p, self.g, self.l, d),
        }
    }

    /// Whether some table reads this point: uniform machines at ℓ = 5, NUMA
    /// trees on 8 and 16 processors at g = 1, ℓ = 5, and Table 9's sweep.
    fn in_grid(&self) -> bool {
        let numa = NUMA_PROCS.contains(&self.p) && self.g == 1;
        let sweep = self.dataset == Medium && self.p == 8 && self.g == 1 && self.delta == 1;
        (self.l == LATENCY && (self.delta == 1 || numa)) || sweep
    }
}

/// Every grid point, dataset outermost, then P, g, ℓ and Δ: the order table
/// rows and columns come in.
fn grid() -> Vec<Key> {
    let mut keys = Vec::new();
    for dataset in DATASETS {
        for (p, g) in PROCS.iter().flat_map(|&p| GS.map(|g| (p, g))) {
            for (l, delta) in LATENCIES.iter().flat_map(|&l| DELTAS.map(|d| (l, d))) {
                keys.push(Key {
                    dataset,
                    p,
                    g,
                    l,
                    delta,
                });
            }
        }
    }
    keys.retain(Key::in_grid);
    keys
}

/// One evaluated grid point: a cost row per instance of the dataset, in
/// dataset order, and the instances' total node count.
struct Cell {
    key: Key,
    nodes: usize,
    costs: Vec<AlgoCosts>,
}

/// A [`Key`] field a table splits its rows or columns by: its header word, the
/// prefix of its label (`P = 8`; a dataset is labelled by its bare name) and
/// its bare value at a key.
type Axis = (&'static str, &'static str, fn(&Key) -> String);
const DATASET: Axis = ("dataset", "", |k| k.dataset.name().into());
const P: Axis = ("P", "P = ", |k| k.p.to_string());
const G: Axis = ("g", "g = ", |k| k.g.to_string());
const L: Axis = ("l", "l = ", |k| k.l.to_string());
const DELTA: Axis = ("Δ", "Δ = ", |k| k.delta.to_string());

fn value(axis: &Axis, key: &Key) -> String {
    (axis.2)(key)
}

fn label(axis: &Axis, key: &Key) -> String {
    axis.1.to_string() + &value(axis, key)
}

/// The part of the grid a table reads.
type Block = fn(&Key) -> bool;
const MAIN_UNIFORM: Block = |k| k.dataset != Huge && k.delta == 1 && k.l == LATENCY;
const MAIN_NUMA: Block = |k| k.dataset != Huge && k.delta > 1;
const HUGE_UNIFORM: Block = |k| k.dataset == Huge && k.delta == 1;
const HUGE_NUMA: Block = |k| k.dataset == Huge && k.delta > 1;
/// Table 7's rows.
const MAIN_G5: Block = |k| MAIN_UNIFORM(k) && k.g == 5;

/// Whether `a` and `b` share every coordinate on `axes`.
fn same(axes: &[Axis], a: &Key, b: &Key) -> bool {
    axes.iter().all(|x| value(x, a) == value(x, b))
}

/// The cost rows of every cell `pick` accepts, in grid order.  Panics when
/// there is none: a table reading a cell the grid lacks is a bug, not an
/// empty average.
fn select(cells: &[Cell], pick: impl Fn(&Key) -> bool) -> Vec<AlgoCosts> {
    let picked = cells.iter().filter(|c| pick(&c.key));
    let costs: Vec<AlgoCosts> = picked.flat_map(|c| c.costs.iter().copied()).collect();
    assert!(!costs.is_empty(), "no grid cell there");
    costs
}

/// The first of `block`'s keys with each distinct coordinate on `axes`.
fn coords(cells: &[Cell], block: Block, axes: &[Axis]) -> Vec<Key> {
    let mut firsts: Vec<Key> = Vec::new();
    for key in cells.iter().map(|c| c.key).filter(block) {
        if !firsts.iter().any(|f| same(axes, f, &key)) {
            firsts.push(key);
        }
    }
    assert!(!firsts.is_empty(), "no grid cell in the block");
    firsts
}

/// `HCcs`' reduction against `baseline`, in percent.
fn vs(costs: &[AlgoCosts], baseline: Cost) -> f64 {
    reduction_pct(geo_mean_ratio(costs, |c| c.ours, baseline))
}

/// A row per `rows` coordinate of `block`'s cells and a column per `col`
/// value; `fmt` prints the instances at each crossing.  Tables 1, 2, 6, 8–12.
fn by_cell(cells: &[Cell], title: &str, block: Block, rows: &[Axis], col: Axis, fmt: Fmt) {
    // A single row axis reads as `P \ g` over rows `P = 4`, as in the paper.
    let (mut header, text): (Vec<String>, fn(&Axis, &Key) -> String) = match rows {
        [one] => (vec![format!("{} \\ {}", one.0, col.0)], label),
        _ => (rows.iter().map(|a| a.0.into()).collect(), value),
    };
    let cols = coords(cells, block, &[col]);
    header.extend(cols.iter().map(|c| label(&col, c)));
    let mut table = Table::new(title, header);
    for row in coords(cells, block, rows) {
        let at = |c| move |k: &Key| block(k) && same(rows, k, &row) && same(&[col], k, c);
        let costs = cols.iter().map(|c| fmt(&select(cells, at(c))));
        table.add_row(rows.iter().map(|a| text(a, &row)).chain(costs));
    }
    table.print();
}

/// Each of `algos`' geometric-mean cost ratio to `Cilk`, a row per `rows`
/// coordinate of `block`'s cells: Figures 5–7 and Table 7.
fn normalised(cells: &[Cell], title: &str, block: Block, rows: &[Axis], algos: &[(&str, Cost)]) {
    let names = rows.iter().map(|a| a.0).chain(algos.iter().map(|a| a.0));
    let mut table = Table::new(title, names);
    for row in coords(cells, block, rows) {
        let costs = select(cells, |k| block(k) && same(rows, k, &row));
        let ratios = algos
            .iter()
            .map(|a| ratio(geo_mean_ratio(&costs, a.1, CILK)));
        table.add_row(rows.iter().map(|a| value(a, &row)).chain(ratios));
    }
    table.print();
}

fn print_tables(cells: &[Cell]) {
    let pair: Fmt = |c| pct_pair(vs(c, CILK), vs(c, HDAGG));
    let figure = &ALGOS[2..];

    let all = select(cells, MAIN_UNIFORM);
    let [cilk, hdagg] = [CILK, HDAGG].map(|b| geo_mean_ratio(&all, |c| c.ours, b));
    let ratios = format!("ours/Cilk = {cilk:.2}, ours/HDagg = {hdagg:.2}");
    println!("\nOverall (all datasets, P, g): cost ratio {ratios}");
    let [cilk, hdagg] = [cilk, hdagg].map(reduction_pct);
    println!("  i.e. {cilk:.0}% reduction vs Cilk and {hdagg:.0}% vs HDagg (paper: 44% / 24%)");
    let t = "\nTable 1 (left): reduction vs Cilk / HDagg by g and P";
    by_cell(cells, t, MAIN_UNIFORM, &[P], G, pair);
    let t = "Table 1 (right): reduction vs Cilk / HDagg by g and dataset";
    by_cell(cells, t, MAIN_UNIFORM, &[DATASET], G, pair);
    let t = "Table 6: reduction vs Cilk / HDagg for every (g, P, dataset)";
    by_cell(cells, t, MAIN_UNIFORM, &[DATASET, G], P, pair);
    let t = "Figure 5: mean cost ratios normalized to Cilk, by g";
    normalised(cells, t, MAIN_UNIFORM, &[G], figure);

    let all = select(cells, MAIN_NUMA);
    let [cilk, hdagg] = [vs(&all, CILK), vs(&all, HDAGG)];
    println!("Overall (all datasets, P, Δ): {cilk:.0}% reduction vs Cilk, {hdagg:.0}% vs HDagg (paper: 60% / 43%)");
    let t = "\nTable 2: base-scheduler reduction vs Cilk / HDagg with NUMA";
    by_cell(cells, t, MAIN_NUMA, &[P], DELTA, pair);
    let t = "Table 10: reduction vs Cilk / HDagg per (P, Δ, dataset)";
    by_cell(cells, t, MAIN_NUMA, &[DATASET, P], DELTA, pair);
    let t = "Figure 6: mean cost ratios normalized to Cilk, per (P, Δ)";
    normalised(cells, t, MAIN_NUMA, &[P, DELTA], figure);

    let t = "Table 9: reduction vs Cilk / HDagg by latency on medium, P = 8, g = 1";
    let sweep: Block = |k| k.dataset == Medium && k.p == 8 && k.g == 1 && k.delta == 1;
    by_cell(cells, t, sweep, &[], L, pair);
    let t = "Table 11: Init+HC+HCcs reduction vs Cilk / HDagg on the huge dataset (no NUMA)";
    by_cell(cells, t, HUGE_UNIFORM, &[P], G, pair);
    let t = "Figure 7: mean cost ratios normalized to Cilk on the huge dataset, by P";
    normalised(cells, t, HUGE_UNIFORM, &[P], figure);
    let t = "Table 12: Init+HC+HCcs reduction vs Cilk / HDagg on the huge dataset (NUMA, g = 1)";
    by_cell(cells, t, HUGE_NUMA, &[P], DELTA, pair);

    let t = "Table 7: mean cost ratios normalized to Cilk, g = 5";
    normalised(cells, t, MAIN_G5, &[DATASET], &ALGOS);
    let t = "Table 8: reduction of our scheduler vs ETF on the tiny dataset";
    let tiny: Block = |k| MAIN_UNIFORM(k) && k.dataset == Tiny;
    let vs_etf: Fmt = |c| format!("{:.0}%", vs(c, ALGOS[1].1));
    by_cell(cells, t, tiny, &[P], G, vs_etf);
}

/// Every way the cells fall short of the paper's orderings, one line each.
fn gate(cells: &[Cell]) -> Vec<String> {
    let mut failures = Vec::new();
    for Cell { key, costs, .. } in cells {
        for (name, baseline) in &ALGOS[..4] {
            let r = geo_mean_ratio(costs, |c| c.ours, baseline);
            if r.partial_cmp(&1.0) != Some(Less) {
                failures.push(format!("{key:?}: HCcs / {name} = {r:.3}"));
            }
        }
        if costs.iter().any(|c| c.ours > c.init) {
            failures.push(format!("{key:?}: an instance ends above Init"));
        }
    }
    let blocks = [
        ("main", MAIN_UNIFORM, MAIN_NUMA),
        ("huge", HUGE_UNIFORM, HUGE_NUMA),
    ];
    for (name, uniform, numa) in blocks {
        for at in coords(cells, numa, &[P, DELTA]) {
            let (p, d) = (at.p, at.delta);
            let flat = select(cells, |k| uniform(k) && k.p == p && k.g == 1);
            let tree = select(cells, |k| numa(k) && same(&[P, DELTA], k, &at));
            let (flat, tree) = (vs(&flat, CILK), vs(&tree, CILK));
            if tree.partial_cmp(&flat) != Some(Greater) {
                let what = format!("{tree:.1}% vs Cilk, uniform g = 1 {flat:.1}%");
                failures.push(format!("{name} NUMA P = {p}, Δ = {d}: {what}"));
            }
        }
    }
    for at in coords(cells, MAIN_G5, &[DATASET]) {
        let g5 = select(cells, |k| MAIN_G5(k) && k.dataset == at.dataset);
        let [hdagg, init, hccs] = [3, 4, 5].map(|i| geo_mean_ratio(&g5, ALGOS[i].1, CILK));
        if !(hccs <= init && hccs < hdagg && hdagg < 1.0) {
            let order = "HCcs <= Init, HCcs < HDagg < Cilk";
            failures.push(format!("Table 7 {}: not {order}", at.dataset.name()));
        }
    }
    failures
}

fn main() {
    let args = CliArgs::from_env(&["scale", "seed", "out"]);
    let (scale, seed) = (args.scale(), args.seed());
    let out = args.value("out").unwrap_or("BENCH_paper.json");
    let config = scale.pipeline_config();
    let name = scale.name();
    println!("# Experiment: the paper's tables, scale={name}, seed={seed}");

    let grid = grid();
    let (mut cells, mut calls) = (Vec::new(), 0);
    for dataset in DATASETS {
        let instances = scaled_dataset(dataset, scale, seed);
        let nodes = instances.iter().map(|i| i.dag.n()).sum();
        for &key in grid.iter().filter(|k| k.dataset == dataset) {
            let results = evaluate_dataset(&instances, &key.machine(), &config);
            calls += 1;
            eprintln!("  done {key:?}: {}", placement_summary(&results));
            let costs = results.iter().map(|r| r.costs).collect();
            cells.push(Cell { key, nodes, costs });
        }
    }
    print_tables(&cells);
    println!("{} cells, {calls} evaluate_dataset calls", cells.len());

    let failures = gate(&cells);
    let mut report = BenchReport::new("paper_tables");
    let run = format!("\"scale\": \"{name}\", \"seed\": {seed}");
    report.set_config_json(format!("{{{run}, \"host_cores\": {}}}", host_cores()));
    let gated = format!("\"gate_failures\": {}", failures.len());
    report.set_summary_json(format!("{{\"evaluate_dataset_calls\": {calls}, {gated}}}"));
    for Cell { key, nodes, costs } in &cells {
        let Key { p, g, l, delta, .. } = key;
        let to_cilk = |(name, of): &(&str, Cost)| {
            format!("\"{name}\": {:.6}", geo_mean_ratio(costs, of, CILK))
        };
        let ratios = ALGOS.iter().map(to_cilk).collect::<Vec<_>>().join(", ");
        let (name, n) = (key.dataset.name(), costs.len());
        report.push_result_json(format!(
            "    {{\"dataset\": \"{name}\", \"p\": {p}, \"g\": {g}, \"l\": {l}, \"delta\": {delta}, \
             \"instances\": {n}, \"nodes\": {nodes}, \"ratio_vs_cilk\": {{{ratios}}}}}"
        ));
    }
    report
        .write(out)
        .expect("failed to write the benchmark JSON");
    eprintln!("wrote {out}");
    for failure in &failures {
        eprintln!("gate: {failure}");
    }
    std::process::exit(if failures.is_empty() { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The grid with one instance per cell that passes every rule.
    fn passing() -> Vec<Cell> {
        let cell = |key: Key| {
            let costs = vec![AlgoCosts {
                cilk: if key.delta > 1 { 200 } else { 100 },
                bl_est: 90,
                etf: 90,
                hdagg: 80,
                init: 60,
                ours: 50,
            }];
            let nodes = 0;
            Cell { key, nodes, costs }
        };
        grid().into_iter().map(cell).collect()
    }

    #[test]
    fn the_grid_holds_each_cell_once_and_every_table_reads_only_grid_cells() {
        let keys = grid();
        assert_eq!(keys.len(), 78);
        for (i, key) in keys.iter().enumerate() {
            assert!(!keys[..i].contains(key), "{key:?} twice");
        }
        let cells = passing();
        let sweep = coords(
            &cells,
            |k| k.dataset == Medium && k.p == 8 && k.delta == 1,
            &[L],
        );
        let labels: Vec<String> = sweep.iter().map(|k| label(&L, k)).collect();
        assert_eq!(labels, ["l = 2", "l = 5", "l = 10", "l = 20"], "Table 9");
        assert_eq!(
            [&DATASET, &P].map(|a| label(a, &keys[0])),
            ["tiny", "P = 4"]
        );
        // `select` and `coords` panic on a table crossing no grid cell has.
        print_tables(&cells);
        assert_eq!(gate(&cells), Vec::<String>::new());
    }

    #[test]
    fn the_gate_fails_one_crafted_cell_of_each_kind() {
        let cases: [(&str, Block, fn(&mut AlgoCosts)); 4] = [
            ("HCcs / ETF = 1.000", |k| k.l == 2, |c| c.etf = c.ours),
            ("above Init", |k| k.l == 2, |c| c.init = 40),
            ("NUMA P = 16", |k| k.p == 16, |c| c.cilk = 100),
            ("Table 7 medium", |k| k.dataset == Medium, |c| c.hdagg = 100),
        ];
        for (want, pick, change) in cases {
            let mut cells = passing();
            for cell in cells.iter_mut().filter(|c| pick(&c.key)) {
                cell.costs.iter_mut().for_each(change);
            }
            let failures = gate(&cells);
            assert!(!failures.is_empty());
            assert!(failures.iter().all(|f| f.contains(want)), "{failures:?}");
        }
    }
}
