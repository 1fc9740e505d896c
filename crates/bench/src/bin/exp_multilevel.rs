//! Regenerates the multilevel-scheduling experiments of §7.3:
//!
//! * **Table 3** — multilevel (`C_opt`) reduction vs `Cilk` / `HDagg` for
//!   P ∈ {8, 16}, Δ ∈ {2, 3, 4}.
//! * **Table 13** (`--coarsening-sweep`) — the same, split into the
//!   single-ratio variants `C15`, `C30` and the best-of-both `C_opt`.
//! * **Table 14** (`--coarsening-sweep`) — the cost ratio of the multilevel
//!   variants to our base scheduler.
//! * The §7.3 count of instances where only the multilevel scheduler beats
//!   the trivial single-processor schedule.
//!
//! As in the paper, the *tiny* dataset is excluded (it cannot be meaningfully
//! coarsened).
//!
//! With `--speedup` the binary instead times the multilevel scheduler:
//! ≈10k-node `spmv` / `cg` / `exp` fine-grained instances plus the
//! `pagerank` / `bicgstab` coarse-grained GraphBLAS instances, on 4- and
//! 8-processor uniform and NUMA machines, wall-clock of `run_report` plus the
//! final cost and a per-phase timing breakdown (coarsen / base solve /
//! uncontract / refine / final sweep, with the batch coarsener's round
//! stats), written as JSON in the same schema as `BENCH_hc.json` (default
//! `BENCH_multilevel.json`; a `frozen_seed` block already in that file is
//! carried over as data).  `--huge` switches to ≈100k-node instances.
//!
//! Every row also names the portfolio member that won it (a ratio or the
//! flat pipeline) and says, per ratio, whether the base solve already sat on
//! one processor (`base_one_proc`) or on the trivial schedule
//! (`base_trivial`), and how many nodes the funnel reduction left for the
//! portfolio to race on (`funnel_nodes`).  The summary counts, per machine,
//! the rows a ratio member won outright (`ratio_wins`: strictly cheaper than
//! the flat member — ROADMAP item 1's "share of rows a ratio wins").
//!
//! `--smoke` turns the run into a CI gate: every schedule is validated (zero
//! invalid), no row costs more than the flat pipeline's answer on that row
//! (`cost_vs_flat <= 1.0`, row by row) and none more than the trivial
//! single-processor schedule (`<= 1.00`: the flat member ends on the
//! pipeline's trivial-schedule floor, so this holds by construction and a
//! violation means the floor or the portfolio's selection broke).  With
//! `--huge` the coarsen phase must additionally take < 50 % of wall-clock on
//! the `spmv`/p4-class rows.
//!
//! Usage:
//!
//! ```text
//! cargo run -p bsp_bench --release --bin exp_multilevel --
//!     [--scale smoke|reduced|full] [--seed N] [--coarsening-sweep]
//!
//! cargo run -p bsp_bench --release --bin exp_multilevel -- --speedup
//!     [--out PATH] [--target N] [--reps N] [--nnz-per-row K] [--quick]
//!     [--huge] [--refine-scale N] [--smoke]
//! ```

use bsp_bench::stats::{Aggregate, BenchReport};
use bsp_bench::table::pct_pair;
use bsp_bench::{scaled_dataset, size_to_target, CliArgs, Table};
use bsp_model::{Dag, Machine};
use bsp_sched::baselines::{CilkScheduler, HDaggScheduler, TrivialScheduler};
use bsp_sched::hill_climb::HillClimbConfig;
use bsp_sched::multilevel::{FlatOutcome, Member, MultilevelConfig, MultilevelScheduler};
use bsp_sched::pipeline::{Pipeline, PipelineConfig};
use bsp_sched::Scheduler;
use dag_gen::coarse::{coarse, CoarseAlgorithm, CoarseConfig as CoarseGenConfig};
use dag_gen::dataset::DatasetKind;
use dag_gen::fine::{cg, exp, spmv, IterConfig, SpmvConfig};
use rayon::prelude::*;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const PROCS: [usize; 2] = [8, 16];
const DELTAS: [u64; 3] = [2, 3, 4];
const G: u64 = 1;
const LATENCY: u64 = 5;
const DATASETS: [DatasetKind; 3] = [DatasetKind::Small, DatasetKind::Medium, DatasetKind::Large];
const COLUMNS: [&str; 7] = ["cilk", "hdagg", "trivial", "base", "c15", "c30", "copt"];

struct Cell {
    p: usize,
    delta: u64,
    agg: Aggregate,
}

fn main() {
    let args = CliArgs::from_env();
    if args.flag("speedup") {
        run_speedup(&args);
        return;
    }
    let scale = args.scale();
    let seed = args.seed();

    println!(
        "# Experiment: multilevel under NUMA (Tables 3/13/14) — scale={}, seed={seed}, g={G}, l={LATENCY}",
        scale.name()
    );

    let pipeline = Pipeline::new(scale.pipeline_config());
    let ml_config = scale.multilevel_config();

    let mut cells: Vec<Cell> = Vec::new();
    let mut base_not_better_than_trivial = 0usize;
    let mut ml_not_better_than_trivial = 0usize;
    let mut total_instances = 0usize;

    for p in PROCS {
        for delta in DELTAS {
            let machine = Machine::numa_binary_tree(p, G, LATENCY, delta);
            let mut agg = Aggregate::new(COLUMNS);
            for dataset in DATASETS {
                let instances = scaled_dataset(dataset, scale, seed);
                let rows: Vec<[u64; 7]> = instances
                    .par_iter()
                    .map(|inst| {
                        let dag = &inst.dag;
                        let cilk = CilkScheduler::default()
                            .schedule(dag, &machine)
                            .cost(dag, &machine);
                        let hdagg = HDaggScheduler::default()
                            .schedule(dag, &machine)
                            .cost(dag, &machine);
                        let trivial = TrivialScheduler.schedule(dag, &machine).cost(dag, &machine);
                        let base = pipeline.run(dag, &machine).cost(dag, &machine);
                        let report =
                            MultilevelScheduler::new(ml_config.clone()).run_report(dag, &machine);
                        let cost_for = |ratio: f64| {
                            report
                                .ratio_outcomes
                                .iter()
                                .find(|o| (o.ratio - ratio).abs() < 1e-9)
                                .map(|o| o.cost)
                                .unwrap_or(report.final_cost)
                        };
                        let c15 = cost_for(0.15);
                        let c30 = cost_for(0.3);
                        // The paper's `C_opt` is the better of the two
                        // ratios; `final_cost` also races the flat pipeline.
                        let copt = c15.min(c30);
                        [cilk, hdagg, trivial, base, c15, c30, copt]
                    })
                    .collect();
                for row in rows {
                    agg.push(&row);
                }
                eprintln!(
                    "  done dataset={} P={p} delta={delta} ({} instances)",
                    dataset.name(),
                    instances.len()
                );
            }
            total_instances += agg.len();
            base_not_better_than_trivial += agg.len() - agg.wins("base", "trivial");
            ml_not_better_than_trivial += agg.len() - agg.wins("copt", "trivial");
            cells.push(Cell { p, delta, agg });
        }
    }

    print_table3(&cells);
    if args.flag("coarsening-sweep") {
        print_table13(&cells);
        print_table14(&cells);
    }
    println!(
        "§7.3 trivial-schedule comparison: base scheduler fails to beat the trivial schedule on \
         {base_not_better_than_trivial}/{total_instances} runs; the multilevel scheduler fails on \
         {ml_not_better_than_trivial}/{total_instances} (paper: 114/396 vs 8/396)."
    );
}

fn print_table3(cells: &[Cell]) {
    let mut table = Table::new(
        "\nTable 3: multilevel (C_opt) reduction vs Cilk / HDagg",
        ["P \\ Δ", "Δ = 2", "Δ = 3", "Δ = 4"],
    );
    for p in PROCS {
        let mut row = vec![format!("P = {p}")];
        for delta in DELTAS {
            let cell = cells
                .iter()
                .find(|c| c.p == p && c.delta == delta)
                .expect("cell computed above");
            row.push(pct_pair(
                cell.agg.reduction("copt", "cilk"),
                cell.agg.reduction("copt", "hdagg"),
            ));
        }
        table.add_row(row);
    }
    table.print();
}

fn print_table13(cells: &[Cell]) {
    let mut table = Table::new(
        "Table 13: multilevel reduction vs Cilk / HDagg per coarsening variant",
        ["variant", "P", "Δ = 2", "Δ = 3", "Δ = 4"],
    );
    for (variant, col) in [("C15", "c15"), ("C30", "c30"), ("C_opt", "copt")] {
        for p in PROCS {
            let mut row = vec![variant.to_string(), format!("{p}")];
            for delta in DELTAS {
                let cell = cells
                    .iter()
                    .find(|c| c.p == p && c.delta == delta)
                    .expect("cell computed above");
                row.push(pct_pair(
                    cell.agg.reduction(col, "cilk"),
                    cell.agg.reduction(col, "hdagg"),
                ));
            }
            table.add_row(row);
        }
    }
    table.print();
}

fn print_table14(cells: &[Cell]) {
    let mut table = Table::new(
        "Table 14: cost ratio of the multilevel variants to the base scheduler (<1 = multilevel better)",
        ["variant", "P", "Δ = 2", "Δ = 3", "Δ = 4"],
    );
    for (variant, col) in [("C15", "c15"), ("C30", "c30"), ("C_opt", "copt")] {
        for p in PROCS {
            let mut row = vec![variant.to_string(), format!("{p}")];
            for delta in DELTAS {
                let cell = cells
                    .iter()
                    .find(|c| c.p == p && c.delta == delta)
                    .expect("cell computed above");
                row.push(format!("{:.3}", cell.agg.ratio(col, "base")));
            }
            table.add_row(row);
        }
    }
    table.print();
}

// ---------------------------------------------------------------------------
// `--speedup`: wall-clock and phase breakdown of the multilevel scheduler.
// ---------------------------------------------------------------------------

/// One measured `run_report` call.
struct RunStats {
    seconds: f64,
    final_cost: u64,
    /// Who answered (`"ratio 0.3"`, `"flat"`, `"trivial"`): [`winner_label`].
    winner: String,
    /// Node count of the DAG the portfolio raced on (after the funnel
    /// reduction).
    funnel_nodes: usize,
    /// The flat member's cost and seconds.
    flat: Option<FlatOutcome>,
    ratios: Vec<RatioRow>,
    timings: bsp_sched::multilevel::PhaseTimings,
}

/// What a row records of one ratio member.
struct RatioRow {
    ratio: f64,
    coarse_nodes: usize,
    cost: u64,
    base_one_proc: bool,
    base_trivial: bool,
}

impl RatioRow {
    /// Where the base solve left the coarse DAG.
    fn base_shape(&self) -> &'static str {
        match (self.base_one_proc, self.base_trivial) {
            (_, true) => "trivial",
            (true, false) => "one-proc",
            (false, false) => "spread",
        }
    }
}

impl RunStats {
    /// Final cost over the flat member's (`None` if that member was skipped).
    fn cost_vs_flat(&self) -> Option<f64> {
        self.flat
            .map(|flat| self.final_cost as f64 / flat.cost.max(1) as f64)
    }

    fn to_json(&self) -> String {
        let t = &self.timings;
        let c = &t.coarsen_stats;
        let coarse_nodes: Vec<usize> = self.ratios.iter().map(|r| r.coarse_nodes).collect();
        let ratios: Vec<String> = self
            .ratios
            .iter()
            .map(|r| {
                format!(
                    "{{\"ratio\": {}, \"cost\": {}, \
                     \"base_one_proc\": {}, \"base_trivial\": {}}}",
                    r.ratio, r.cost, r.base_one_proc, r.base_trivial
                )
            })
            .collect();
        let flat = match self.flat.zip(self.cost_vs_flat()) {
            Some((flat, vs_flat)) => format!(
                "{{\"cost\": {}, \"seconds\": {:.6}, \"cost_vs_flat\": {vs_flat:.6}}}",
                flat.cost, flat.seconds
            ),
            None => "null".to_string(),
        };
        format!(
            "{{\"seconds\": {:.6}, \"final_cost\": {}, \"winner\": \"{}\", \
             \"funnel_nodes\": {}, \
             \"flat\": {flat}, \"ratios\": [{}], \"coarse_nodes\": {:?}, \
             \"phases\": {{\"coarsen\": {:.6}, \"base_solve\": {:.6}, \
             \"uncontract\": {:.6}, \"refine\": {:.6}, \"refine_phases\": {}, \
             \"refine_moves\": {}, \
             \"final_sweep\": {:.6}, \"final_comm\": {:.6}}}, \
             \"coarsen_stats\": {{\"rounds\": {}, \"contractions\": {}, \
             \"max_batch\": {}, \"avg_batch\": {:.1}, \
             \"endpoint_conflicts\": {}, \"tail_contractions\": {}, \
             \"scan_seconds\": {:.6}, \"select_seconds\": {:.6}, \
             \"apply_seconds\": {:.6}}}}}",
            self.seconds,
            self.final_cost,
            self.winner,
            self.funnel_nodes,
            ratios.join(", "),
            coarse_nodes,
            t.coarsen_seconds,
            t.base_solve_seconds,
            t.uncontract_seconds,
            t.refine_seconds,
            t.refine_phases,
            t.refine_moves,
            t.final_sweep_seconds,
            t.final_comm_seconds,
            c.rounds,
            c.contractions,
            c.max_batch,
            c.avg_batch(),
            c.endpoint_conflicts,
            c.tail_contractions,
            c.scan_seconds,
            c.select_seconds,
            c.apply_seconds
        )
    }
}

/// Who answered a row.  The portfolio breaks a tie towards the earlier
/// member, a ratio, but a ratio member only *wins* a row it is strictly
/// cheaper on (what `ratio_wins` counts): a tie with the trivial schedule or
/// with the flat member is theirs.
fn winner_label(report: &bsp_sched::multilevel::MultilevelReport, trivial: u64) -> String {
    if report.final_cost == trivial {
        "trivial".to_string()
    } else if report
        .flat
        .is_some_and(|flat| flat.cost == report.final_cost)
    {
        Member::Flat.to_string()
    } else {
        report.winner.to_string()
    }
}

/// Runs `f` `reps` times and keeps the fastest wall-clock (the runs are
/// deterministic up to thread scheduling, so the minimum isolates OS noise).
/// Also returns the last repetition's report so smoke mode can validate the
/// schedule without paying for an extra run.
fn measure(
    reps: usize,
    trivial: u64,
    f: impl Fn() -> bsp_sched::multilevel::MultilevelReport,
) -> (RunStats, bsp_sched::multilevel::MultilevelReport) {
    let mut best: Option<RunStats> = None;
    let mut last_report = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let report = f();
        let seconds = start.elapsed().as_secs_f64();
        let stats = RunStats {
            seconds,
            final_cost: report.final_cost,
            winner: winner_label(&report, trivial),
            funnel_nodes: report.funnel_nodes,
            flat: report.flat,
            ratios: report
                .ratio_outcomes
                .iter()
                .map(|o| RatioRow {
                    ratio: o.ratio,
                    coarse_nodes: o.coarse_nodes,
                    cost: o.cost,
                    base_one_proc: o.base_one_proc,
                    base_trivial: o.base_trivial,
                })
                .collect(),
            timings: report.total_timings(),
        };
        if best.as_ref().is_none_or(|b| stats.seconds < b.seconds) {
            best = Some(stats);
        }
        last_report = Some(report);
    }
    (
        best.expect("at least one repetition runs"),
        last_report.expect("at least one repetition runs"),
    )
}

/// The configuration of the `--speedup` runs: the paper's `C_opt`
/// ratio portfolio with a heuristics-only base pipeline (ILP budgets would
/// swamp the outer-loop signal on 10k-node instances).
fn speedup_config() -> MultilevelConfig {
    MultilevelConfig {
        coarsen_ratios: vec![0.3, 0.15],
        min_nodes_to_coarsen: 30,
        refine_interval: 5,
        refine_max_steps: 100,
        refine_time_limit: Duration::from_millis(500),
        base: PipelineConfig {
            hill_climb: HillClimbConfig::with_time_limit(Duration::from_secs(2)),
            ..PipelineConfig::heuristics_only()
        },
        final_comm_time_limit: Duration::from_secs(1),
        refine_interval_scale: 512,
        min_coarse_nodes: 0,
        // Auto thread budget; the resolved value is recorded in the report's
        // config object.
        threads: 0,
    }
}

fn run_speedup(args: &CliArgs) {
    let quick = args.flag("quick");
    let smoke = args.flag("smoke");
    let out_path = args
        .value("out")
        .unwrap_or("BENCH_multilevel.json")
        .to_string();
    let huge = args.flag("huge");
    let target = args.u64_or(
        "target",
        if huge {
            100_000
        } else if quick {
            1_000
        } else {
            10_000
        },
    ) as usize;
    let reps = args.usize_or("reps", 1);
    let nnz_per_row = args.u64_or("nnz-per-row", 16) as f64;
    let refine_scale = args.usize_or("refine-scale", 0);

    eprintln!("exp_multilevel --speedup: target {target} nodes, reps {reps}");
    eprintln!("sizing spmv instance...");
    let spmv_dag = size_to_target(target, |n| {
        spmv(&SpmvConfig {
            n,
            density: nnz_per_row / n as f64,
            seed: 42,
        })
    });
    eprintln!("sizing cg instance...");
    let cg_dag = size_to_target(target, |n| {
        cg(&IterConfig {
            n,
            density: nnz_per_row / n as f64,
            iterations: 2,
            seed: 42,
        })
    });
    eprintln!("sizing exp instance...");
    let exp_dag = size_to_target(target, |n| {
        exp(&IterConfig {
            n,
            density: nnz_per_row / n as f64,
            iterations: 3,
            seed: 42,
        })
    });
    // The paper's coarse-grained GraphBLAS programs (Appendix B.1), sized by
    // iteration count: pagerank is the long-chain extreme (6 nodes per
    // iteration, depth ≈ n/2), bicgstab the widest of the solvers.
    eprintln!("sizing pagerank instance...");
    let pagerank_dag = size_to_target(target, |iters| {
        coarse(&CoarseGenConfig {
            algorithm: CoarseAlgorithm::PageRank,
            iterations: iters,
        })
    });
    eprintln!("sizing bicgstab instance...");
    let bicgstab_dag = size_to_target(target, |iters| {
        coarse(&CoarseGenConfig {
            algorithm: CoarseAlgorithm::BiCgStab,
            iterations: iters,
        })
    });
    let instances: Vec<(&str, &Dag)> = vec![
        ("spmv", &spmv_dag),
        ("cg", &cg_dag),
        ("exp", &exp_dag),
        ("pagerank", &pagerank_dag),
        ("bicgstab", &bicgstab_dag),
    ];

    let machines: Vec<(String, Machine)> = vec![
        ("uniform_p4_g3_l5".into(), Machine::uniform(4, 3, 5)),
        ("uniform_p8_g3_l5".into(), Machine::uniform(8, 3, 5)),
        (
            "numa_p4_g3_l5_d3".into(),
            Machine::numa_binary_tree(4, 3, 5, 3),
        ),
        (
            "numa_p8_g3_l5_d3".into(),
            Machine::numa_binary_tree(8, 3, 5, 3),
        ),
    ];

    let mut config = speedup_config();
    if refine_scale != 0 {
        config.refine_interval_scale = refine_scale;
    }
    let incremental = MultilevelScheduler::new(config.clone());

    let mut rows = Vec::new();
    let mut total_seconds = 0.0f64;
    let mut worst_vs_trivial = 0.0f64;
    let mut worst_vs_flat = (String::new(), 0.0f64);
    let mut invalid_schedules = 0usize;
    // Rows a ratio member won outright, per machine (ROADMAP item 1's
    // question).
    let mut ratio_wins = vec![0usize; machines.len()];
    for (inst_name, dag) in &instances {
        for (m, (machine_name, machine)) in machines.iter().enumerate() {
            eprintln!("== {inst_name} ({} nodes) on {machine_name}", dag.n());

            let trivial = TrivialScheduler.schedule(dag, machine).cost(dag, machine);
            let (inc, inc_report) = measure(reps, trivial, || incremental.run_report(dag, machine));
            if let Err(e) = inc_report.schedule.validate(dag, machine) {
                eprintln!("   INVALID schedule on {inst_name}/{machine_name}: {e:?}");
                invalid_schedules += 1;
            }
            total_seconds += inc.seconds;
            let vs_trivial = inc.final_cost as f64 / trivial.max(1) as f64;
            worst_vs_trivial = worst_vs_trivial.max(vs_trivial);
            // The flat member only sits out a cancelled solve; a row without
            // it counts as beaten.
            let vs_flat = inc.cost_vs_flat().unwrap_or(f64::INFINITY);
            // Only a strictly cheaper answer counts as the ratio members'
            // win (a row without the flat member counts as beaten).
            ratio_wins[m] += usize::from(vs_flat < 1.0);
            if vs_flat > worst_vs_flat.1 {
                worst_vs_flat = (format!("{inst_name}/{machine_name}"), vs_flat);
            }
            let bases: Vec<&str> = inc.ratios.iter().map(RatioRow::base_shape).collect();
            eprintln!(
                "   {:.3}s, cost {} ({vs_trivial:.3}x trivial, {vs_flat:.3}x flat), \
                 winner {}, funnel {} nodes, base solves {bases:?}",
                inc.seconds, inc.final_cost, inc.winner, inc.funnel_nodes
            );
            if smoke && huge && *inst_name == "spmv" && machine_name.contains("p4") {
                // Huge-only gate: above the tail width the batch rounds must
                // keep coarsening a minority phase.  At quick scale the whole
                // run sits inside the sequential quality tail (by design), so
                // the share there reflects the pool, not the batch engine.
                let share = inc.timings.coarsen_seconds / inc.seconds.max(1e-9);
                eprintln!("   coarsen share {share:.2} (huge smoke gate < 0.5)");
                assert!(
                    share < 0.5,
                    "coarsen phase still dominates {inst_name}/{machine_name}: \
                     {share:.2} of wall-clock"
                );
            }
            let t = &inc.timings;
            eprintln!(
                "     phases: coarsen {:.3}s, base {:.3}s, uncontract {:.3}s, \
                 refine {:.3}s ({} phases), sweep {:.3}s, comm {:.3}s",
                t.coarsen_seconds,
                t.base_solve_seconds,
                t.uncontract_seconds,
                t.refine_seconds,
                t.refine_phases,
                t.final_sweep_seconds,
                t.final_comm_seconds
            );

            let mut row = String::new();
            write!(
                row,
                "    {{\"instance\": \"{inst_name}\", \"nodes\": {}, \"edges\": {}, \
                 \"machine\": \"{machine_name}\", \"incremental\": {}",
                dag.n(),
                dag.num_edges(),
                inc.to_json(),
            )
            .unwrap();

            row.push('}');
            rows.push(row);
        }
    }

    if smoke {
        assert_eq!(
            invalid_schedules, 0,
            "{invalid_schedules} invalid schedules produced"
        );
        // The flat member ends on the pipeline's trivial-schedule floor, so
        // no row can cost more than one processor doing everything.
        assert!(
            worst_vs_trivial <= 1.0,
            "worst row costs {worst_vs_trivial:.4}x the trivial schedule (> 1.00)"
        );
        // ROADMAP item 1's gate, row by row and not in the mean: multilevel
        // never returns worse than the flat pipeline.
        assert!(
            worst_vs_flat.1 <= 1.0,
            "{} costs {:.4}x the flat pipeline's schedule (> 1.0)",
            worst_vs_flat.0,
            worst_vs_flat.1
        );
        eprintln!("smoke gates passed");
    }

    let mut report = BenchReport::new("multilevel_throughput");
    report.set_config_json(format!(
        "{{\"target_nodes\": {target}, \"coarsen_ratios\": {:?}, \
         \"refine_interval\": {}, \"refine_interval_scale\": {}, \
         \"refine_max_steps\": {}, \"base\": \"{}\", \
         \"reps\": {reps}, \"host_cores\": {}, \"threads\": {}}}",
        config.coarsen_ratios,
        config.refine_interval,
        config.refine_interval_scale,
        config.refine_max_steps,
        if config.base.use_ilp {
            "with-ilp"
        } else {
            "heuristics-only"
        },
        bsp_bench::stats::host_cores(),
        config.effective_threads(),
    ));
    let wins: Vec<String> = machines
        .iter()
        .zip(&ratio_wins)
        .map(|((name, _), wins)| format!("\"{name}\": {wins}"))
        .collect();
    report.set_summary_json(format!(
        "{{\"runs\": {}, \"total_seconds\": {total_seconds:.6}, \
         \"rows_per_machine\": {}, \"ratio_wins\": {{{}}}}}",
        rows.len(),
        instances.len(),
        wins.join(", ")
    ));
    eprintln!(
        "{} runs, {total_seconds:.3}s in total; rows a ratio member won, of {} a machine: {}",
        rows.len(),
        instances.len(),
        wins.join(", ")
    );
    for row in rows {
        report.push_result_json(row);
    }
    report
        .write(&out_path)
        .expect("failed to write the benchmark JSON");
    eprintln!("wrote {out_path}");
}
