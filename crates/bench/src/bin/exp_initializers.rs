//! Regenerates the training-set initializer comparison of Appendix C.1:
//!
//! * **Table 4** — how often each initialization heuristic (`BSPg`, `Source`;
//!   the paper's third, `ILPinit`, is not reproduced) produces the best
//!   schedule on the *spmv* training DAGs, separated by P.
//! * **Table 5** — the same counts on the remaining training DAGs
//!   (`exp`/`cg`/`kNN`), separated by P and DAG size.
//!
//! A third table puts each initializer's raw schedule next to the one the
//! pipeline starts from — the same schedule after `place_sources` — as wins
//! and as a geometric-mean cost ratio.
//!
//! A fourth says what a second search would buy: the pipeline runs `HC` once,
//! from the cheaper start, and here the start it did not search goes through
//! the same `HC` → merge → relocation → floor → `HCcs` on a grid of 51 small
//! DAGs × 36 machines.
//! Printed are the rows on which that ends below the pipeline's answer, the
//! geometric mean of answer / best-of-both over all rows and the worst row;
//! the run fails when the mean passes 1.002 — one search has to stay within
//! a fifth of a percent of two.
//!
//! Usage: `cargo run -p bsp-bench --release --bin exp_initializers --
//!         [--scale smoke|reduced|full] [--seed N]`
//!
//! With `--scaling [--smoke]` it instead checks that schedule construction
//! is near-linear: `BSPg`, `Source`, the four baselines `Cilk`, `BL-EST`,
//! `ETF` (each simulation + BSP conversion) and `HDagg`, the funnel reduction
//! (`Funnel::contract` + `project`), `place_sources` (on `BSPg`'s schedule),
//! and the constructors of the DAG itself — `Dag::from_edges` (from the
//! DAG's edge list) and the hyperDAG text both ways, `write_hyperdag` and
//! `read_hyperdag` — are timed on a fine-grained `spmv` and a
//! coarse-grained `pagerank` DAG — whose matrix source has n/2 successors —
//! at size n and 4n, and the run fails if any µs/node grows by more than 2x
//! (a quadratic routine gives about 4x).  The ratio compares the host with
//! itself, so the check does not depend on how fast the host is.

use bsp_bench::stats::geo_mean;
use bsp_bench::{scaled_dataset, CliArgs, Table};
use bsp_model::{BspSchedule, Dag, Machine};
use bsp_sched::init::{place_sources, BspgScheduler, SourceScheduler};
use bsp_sched::pipeline::{improve_start, Pipeline, PipelineConfig, Start};
use bsp_sched::{BlEstScheduler, CilkScheduler, EtfScheduler, Funnel, HDaggScheduler, Scheduler};
use dag_gen::dataset::DatasetKind;
use dag_gen::{
    cg, coarse_dag, exp, knn, read_hyperdag, spmv, write_hyperdag, CoarseAlgorithm, CoarseConfig,
    IterConfig, SpmvConfig,
};
use rayon::prelude::*;
use std::time::Instant;

const PROCS: [usize; 3] = [4, 8, 16];
const GS: [u64; 3] = [1, 3, 5];
const LATENCY: u64 = 5;
const INITIALIZERS: [&str; 2] = ["BSPg", "Source"];

/// Size buckets used by Table 5 (node-count upper bounds, paper-style).
const SIZE_BUCKETS: [(usize, &str); 3] = [
    (120, "n <= 120"),
    (350, "n in (120, 350]"),
    (usize::MAX, "n > 350"),
];

#[derive(Debug, Clone)]
struct Win {
    is_spmv: bool,
    p: usize,
    nodes: usize,
    winner: &'static str,
    /// Cost per initializer, raw and after `place_sources`.
    raw: [u64; 2],
    placed: [u64; 2],
}

/// Largest allowed geometric mean of the pipeline's answer over the better of
/// it and a search from the other start (1.00027 when one search replaced two).
const MAX_SECOND_SEARCH_GAIN: f64 = 1.002;

/// Largest allowed growth of a constructor's µs/node from n to 4n.
const MAX_SCALING_RATIO: f64 = 2.0;

/// The funnel reduction's round trip as a constructor: contract, then
/// project the funnel DAG's trivial schedule back.
struct FunnelRoundTrip;

impl Scheduler for FunnelRoundTrip {
    fn name(&self) -> &'static str {
        "Funnel"
    }

    fn schedule(&self, dag: &Dag, machine: &Machine) -> BspSchedule {
        match Funnel::contract(dag, machine.p()) {
            Some(funnel) => funnel.project(&BspSchedule::trivial(funnel.dag())),
            None => BspSchedule::trivial(dag),
        }
    }
}

/// µs/node of `construct` on a DAG of `nodes` nodes: the fastest of five
/// runs, since interference from the host only ever adds time.
fn us_per_node<T>(nodes: usize, construct: impl Fn() -> T) -> f64 {
    let fastest = (0..5)
        .map(|_| {
            let clock = Instant::now();
            std::hint::black_box(construct());
            clock.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    fastest * 1e6 / nodes as f64
}

/// The `--scaling` mode; `true` if every constructor stayed near-linear.
fn scaling_holds(smoke: bool, seed: u64) -> bool {
    // Put both sizes in one allocator regime before anything is timed.
    // glibc serves a block above its mmap threshold (128 KiB at start) with
    // fresh zero pages and hands a freed heap top back to the OS, so the
    // 4n-sized vectors of a 0.03 µs/node routine would page-fault on every
    // repetition where the n-sized ones are recycled — a 1.8x step (2.5x on
    // a bad run) that says nothing about growth.  Freeing one large block
    // raises both thresholds past anything measured here (malloc's dynamic
    // threshold rule); on another allocator this is a no-op.
    drop(std::hint::black_box(vec![0u8; 16 << 20]));
    // `spmv` rows keep 8 non-zeros each, so both sizes have the same local
    // shape; a `pagerank` DAG is one short block per iteration, so `Source`
    // needs one superstep per iteration.
    let (spmv_n, pagerank_iterations) = if smoke { (300, 1000) } else { (1200, 4000) };
    let families: [(&str, [Dag; 2]); 2] = [
        (
            "spmv",
            [1, 4].map(|k| {
                spmv(&SpmvConfig {
                    n: k * spmv_n,
                    density: 8.0 / (k * spmv_n) as f64,
                    seed,
                })
            }),
        ),
        (
            "pagerank",
            [1, 4].map(|k| {
                coarse_dag(&CoarseConfig {
                    algorithm: CoarseAlgorithm::PageRank,
                    iterations: k * pagerank_iterations,
                })
            }),
        ),
    ];
    let schedulers: [&dyn Scheduler; 7] = [
        &BspgScheduler,
        &SourceScheduler,
        &CilkScheduler::default(),
        &BlEstScheduler,
        &EtfScheduler,
        &HDaggScheduler::default(),
        &FunnelRoundTrip,
    ];
    let machine = Machine::numa_binary_tree(8, 3, 5, 3);
    let mut table = Table::new(
        "Schedule construction, us/node at n and 4n (P = 8)",
        [
            "family",
            "constructor",
            "n",
            "us/node",
            "4n",
            "us/node",
            "ratio",
        ],
    );
    let mut holds = true;
    for (family, dags) in &families {
        let mut add_row = |constructor: &str, [small, large]: [f64; 2]| {
            let ratio = large / small;
            holds &= ratio <= MAX_SCALING_RATIO;
            table.add_row(vec![
                family.to_string(),
                constructor.to_string(),
                dags[0].n().to_string(),
                format!("{small:.3}"),
                dags[1].n().to_string(),
                format!("{large:.3}"),
                format!("{ratio:.2}"),
            ]);
        };
        for scheduler in schedulers {
            let time = |dag: &Dag| {
                let dag = std::hint::black_box(dag);
                us_per_node(dag.n(), || scheduler.schedule(dag, &machine))
            };
            add_row(scheduler.name(), [time(&dags[0]), time(&dags[1])]);
        }
        // The placement pass, on a schedule built outside the clock (the
        // copy it works on is inside, and linear).
        let time = |dag: &Dag| {
            let start = BspgScheduler.schedule(dag, &machine);
            us_per_node(dag.n(), || {
                let mut schedule = start.clone();
                place_sources(dag, &machine, &mut schedule);
                schedule
            })
        };
        add_row("place_sources", [time(&dags[0]), time(&dags[1])]);
        // The DAG's own constructors, each from an input built outside the
        // clock (the weight copies `from_edges` takes are inside, and linear).
        let time = |dag: &Dag| {
            let edges: Vec<(usize, usize)> = dag.edges().collect();
            let (work, comm) = (dag.work_weights(), dag.comm_weights());
            us_per_node(dag.n(), || {
                Dag::from_edges(dag.n(), &edges, work.to_vec(), comm.to_vec())
                    .expect("the edges of a DAG")
            })
        };
        add_row("from_edges", [time(&dags[0]), time(&dags[1])]);
        let time = |dag: &Dag| us_per_node(dag.n(), || write_hyperdag(dag));
        add_row("write_hyperdag", [time(&dags[0]), time(&dags[1])]);
        let time = |dag: &Dag| {
            let text = write_hyperdag(dag);
            us_per_node(dag.n(), || read_hyperdag(&text).expect("its own text"))
        };
        add_row("read_hyperdag", [time(&dags[0]), time(&dags[1])]);
    }
    table.print();
    holds
}

fn main() {
    let args = CliArgs::from_env(&["scaling", "smoke", "scale", "seed"]);
    if args.flag("scaling") {
        if !scaling_holds(args.flag("smoke"), args.seed()) {
            eprintln!(
                "FAIL: a constructor's us/node grew by more than {MAX_SCALING_RATIO}x from n to 4n"
            );
            std::process::exit(1);
        }
        return;
    }
    let scale = args.scale();
    let seed = args.seed();
    println!(
        "# Experiment: initializer comparison on the training set (Tables 4/5) — scale={}, seed={seed}",
        scale.name()
    );

    let instances = scaled_dataset(DatasetKind::Training, scale, seed);

    let runs: Vec<(String, usize, u64)> = instances
        .iter()
        .flat_map(|inst| {
            PROCS
                .iter()
                .flat_map(move |&p| GS.iter().map(move |&g| (inst.name.clone(), p, g)))
        })
        .collect();

    let wins: Vec<Win> = runs
        .par_iter()
        .map(|(name, p, g)| {
            let inst = instances
                .iter()
                .find(|i| &i.name == name)
                .expect("run built from instances");
            let machine = Machine::uniform(*p, *g, LATENCY);
            let dag = &inst.dag;
            let initializers: [&dyn Scheduler; 2] = [&BspgScheduler, &SourceScheduler];
            let (mut raw, mut placed) = ([0; 2], [0; 2]);
            for (i, init) in initializers.into_iter().enumerate() {
                let mut schedule = init.schedule(dag, &machine);
                raw[i] = schedule.cost(dag, &machine);
                place_sources(dag, &machine, &mut schedule);
                placed[i] = schedule.cost(dag, &machine);
            }
            Win {
                is_spmv: name.contains("spmv"),
                p: *p,
                nodes: dag.n(),
                winner: INITIALIZERS[best_of(&raw)],
                raw,
                placed,
            }
        })
        .collect();

    println!(
        "\n{} runs evaluated ({} instances × P × g).",
        wins.len(),
        instances.len()
    );
    let overall: Vec<String> = INITIALIZERS
        .iter()
        .map(|init| {
            format!(
                "{init}: {}",
                wins.iter().filter(|w| w.winner == *init).count()
            )
        })
        .collect();
    println!(
        "Overall best-initializer counts: {} (paper, three-way: BSPg 44, Source 20, ILPinit 26)\n",
        overall.join(", ")
    );

    print_table4(&wins);
    print_table5(&wins);
    print_placed(&wins);
    if !second_search_buys_little(&scale.pipeline_config()) {
        eprintln!(
            "FAIL: a second search is worth more than {MAX_SECOND_SEARCH_GAIN} in the geometric mean"
        );
        std::process::exit(1);
    }
}

/// Index of the cheaper of the two costs, ties to the earlier.
fn best_of(costs: &[u64; 2]) -> usize {
    usize::from(costs[1] < costs[0])
}

fn count(wins: &[Win], init: &str, filter: impl Fn(&Win) -> bool) -> usize {
    wins.iter()
        .filter(|w| w.winner == init && filter(w))
        .count()
}

fn print_table4(wins: &[Win]) {
    let mut table = Table::new(
        "Table 4: best initializer counts on spmv training DAGs",
        ["initializer", "P = 4", "P = 8", "P = 16"],
    );
    for init in INITIALIZERS {
        let mut row = vec![init.to_string()];
        for p in PROCS {
            row.push(count(wins, init, |w| w.is_spmv && w.p == p).to_string());
        }
        table.add_row(row);
    }
    table.print();
}

fn print_table5(wins: &[Win]) {
    let mut table = Table::new(
        "Table 5: best initializer counts on exp/cg/kNN training DAGs, by size bucket",
        ["size", "initializer", "P = 4", "P = 8", "P = 16"],
    );
    let mut lower = 0usize;
    for (upper, label) in SIZE_BUCKETS {
        for init in INITIALIZERS {
            let mut row = vec![label.to_string(), init.to_string()];
            for p in PROCS {
                row.push(
                    count(wins, init, |w| {
                        !w.is_spmv && w.p == p && w.nodes > lower && w.nodes <= upper
                    })
                    .to_string(),
                );
            }
            table.add_row(row);
        }
        lower = upper;
    }
    table.print();
}

/// Each initializer's raw schedule against the one the pipeline starts from.
fn print_placed(wins: &[Win]) {
    let mut table = Table::new(
        "Source placement: raw initial schedules vs the same after place_sources",
        ["initializer", "best raw", "best placed", "placed / raw"],
    );
    for (i, init) in INITIALIZERS.into_iter().enumerate() {
        let best =
            |costs: fn(&Win) -> &[u64; 2]| wins.iter().filter(|w| best_of(costs(w)) == i).count();
        let log_ratio: f64 = wins
            .iter()
            .map(|w| (w.placed[i] as f64 / w.raw[i] as f64).ln())
            .sum();
        table.add_row(vec![
            init.to_string(),
            best(|w| &w.raw).to_string(),
            best(|w| &w.placed).to_string(),
            format!("{:.3}", (log_ratio / wins.len() as f64).exp()),
        ]);
    }
    table.print();
}

/// The grid of the second-search table: `spmv` / `exp` / `cg` / `knn` at three
/// sizes × three seeds (five non-zeros a row) and the five coarse-grained
/// families at three lengths.
fn second_search_dags() -> Vec<(String, Dag)> {
    let mut dags = Vec::new();
    for n in [20, 40, 80] {
        for seed in 0..3 {
            let density = 5.0 / n as f64;
            let iter = |iterations| IterConfig {
                n,
                density,
                iterations,
                seed,
            };
            let fine = [
                ("spmv", spmv(&SpmvConfig { n, density, seed })),
                ("exp", exp(&iter(3))),
                ("cg", cg(&iter(2))),
                ("knn", knn(&iter(4))),
            ];
            for (family, dag) in fine {
                dags.push((format!("{family}(n {n}, seed {seed})"), dag));
            }
        }
    }
    for algorithm in [
        CoarseAlgorithm::ConjugateGradient,
        CoarseAlgorithm::BiCgStab,
        CoarseAlgorithm::PageRank,
        CoarseAlgorithm::LabelPropagation,
        CoarseAlgorithm::KNearestNeighbours,
    ] {
        for iterations in [4, 16, 64] {
            let dag = coarse_dag(&CoarseConfig {
                algorithm,
                iterations,
            });
            dags.push((format!("{algorithm:?}({iterations})"), dag));
        }
    }
    dags
}

/// Uniform `P ∈ {2, 4, 8, 16} × g ∈ {1, 3, 5} × ℓ ∈ {5, 20}` and binary trees
/// `P ∈ {8, 16} × Δ ∈ {2, 3, 4} × g ∈ {1, 3}` at `ℓ = 5`.
fn second_search_machines() -> Vec<(String, Machine)> {
    let mut machines = Vec::new();
    for p in [2, 4, 8, 16] {
        for g in GS {
            for l in [LATENCY, 20] {
                machines.push((format!("uniform({p},{g},{l})"), Machine::uniform(p, g, l)));
            }
        }
    }
    for p in [8, 16] {
        for delta in [2, 3, 4] {
            for g in [1, 3] {
                let tree = Machine::numa_binary_tree(p, g, LATENCY, delta);
                machines.push((format!("numa_binary_tree({p},{g},{LATENCY},{delta})"), tree));
            }
        }
    }
    machines
}

/// One row of the second-search table: the pipeline's answer and what the
/// start it did not search comes to.
struct SecondSearch<'a> {
    dag: &'a str,
    machine: &'a str,
    one: u64,
    other: u64,
}

impl SecondSearch<'_> {
    /// The pipeline's answer over the better of the two.
    fn ratio(&self) -> f64 {
        self.one as f64 / self.one.min(self.other) as f64
    }
}

/// The pipeline's answer, and what it would answer from the start it did not
/// search: [`Start::build`] of the other initializer on the width its sweep
/// kept on the funnel DAG, then the same tail: `HC` → merge → relocation →
/// floor there, projection, refinement and `HCcs` on the DAG.
fn other_start_answer(dag: &Dag, machine: &Machine, config: &PipelineConfig) -> (u64, u64) {
    let report = Pipeline::new(config.clone()).run_report(dag, machine);
    let kept: Vec<_> = report.branches.iter().filter(|b| b.kept).collect();
    let Some(searched) = kept.iter().position(|b| b.init_cost == report.init_cost) else {
        // No initializer ran: the trivial schedule met the bound.
        return (report.final_cost, report.final_cost);
    };
    let funnel = Funnel::contract(dag, machine.p());
    let solved = funnel.as_ref().map_or(dag, Funnel::dag);
    let initializers: [&dyn Scheduler; 2] = [&BspgScheduler, &SourceScheduler];
    let width = kept[1 - searched].width;
    let other = Start::build(initializers[1 - searched], solved, machine, width);
    let (bound, search, now) = (report.lower_bound, &config.hill_climb, Instant::now());
    let improved = improve_start(dag, funnel.as_ref(), machine, other, bound, search, now);
    (report.final_cost, improved.final_cost)
}

/// The second-search table; `true` if one search stays within
/// [`MAX_SECOND_SEARCH_GAIN`] of the better of two.
fn second_search_buys_little(config: &PipelineConfig) -> bool {
    let (dags, machines) = (second_search_dags(), second_search_machines());
    let pairs: Vec<_> = (dags.iter())
        .flat_map(|dag| machines.iter().map(move |machine| (dag, machine)))
        .collect();
    let rows: Vec<SecondSearch> = pairs
        .par_iter()
        .map(|((dag_name, dag), (machine_name, machine))| {
            let (one, other) = other_start_answer(dag, machine, config);
            SecondSearch {
                dag: dag_name,
                machine: machine_name,
                one,
                other,
            }
        })
        .collect();
    let mut won: Vec<&SecondSearch> = rows.iter().filter(|r| r.other < r.one).collect();
    won.sort_by(|a, b| b.ratio().total_cmp(&a.ratio()));
    let mut table = Table::new(
        "One search: what the second bought (rows a search from the other start wins)",
        ["DAG", "machine", "one search", "other start", "ratio"],
    );
    for row in &won {
        table.add_row([
            row.dag.to_string(),
            row.machine.to_string(),
            row.one.to_string(),
            row.other.to_string(),
            format!("{:.3}", row.ratio()),
        ]);
    }
    table.print();
    let gain = geo_mean(rows.iter().map(SecondSearch::ratio));
    println!(
        "{} of {} rows ({} DAGs x {} machines); geometric mean over all rows {gain:.5} (gate {MAX_SECOND_SEARCH_GAIN})\n",
        won.len(),
        rows.len(),
        dags.len(),
        machines.len()
    );
    gain <= MAX_SECOND_SEARCH_GAIN
}
