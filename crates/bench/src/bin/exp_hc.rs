//! `exp_hc` — HC hill-climbing throughput: the allocation-free, work-list
//! search vs the pre-refactor baseline, and (with `--parallel`) the serial
//! driver vs the batch-speculative parallel driver.
//!
//! For each instance (≈10k-node `spmv`, `cg` and `exp` fine-grained DAGs,
//! plus the `cg_coarse` and `labelprop` coarse-grained GraphBLAS programs) and
//! machine (4 and 8 processors, uniform and binary-tree NUMA), the measured
//! implementations start from the same deterministic `Source` schedule and
//! run to a local minimum.  Reported per run: wall-clock seconds, accepted
//! moves, accepted moves/second, final cost.  The JSON written to `--out`
//! (default `BENCH_hc.json`) is part of the repo's benchmark history; its
//! config object records `host_cores` and the thread count, without which
//! wall-clock numbers are unreproducible.
//!
//! Flags:
//!   --out PATH        output JSON path (default BENCH_hc.json)
//!   --target N        approximate DAG size in nodes (default 10000)
//!   --time-limit SECS per-run wall-clock cap (default 600)
//!   --quick           ≈1k-node instances, 60 s cap (smoke test)
//!   --huge            ≈100k-node instances (overridable with --target)
//!   --reps N          repetitions per run, fastest kept (default 3)
//!   --nnz-per-row K   average nonzeros per matrix row (default 16)
//!   --skip-legacy     only measure the current implementation
//!   --parallel        additionally measure the batch-speculative parallel
//!                     driver against the serial work-list driver (same
//!                     initial state); adds `parallel`/`parallel_stats`
//!                     fields and a `speedup_parallel` column to every row
//!   --threads N       parallel lanes (default 0 = one per available core)
//!   --smoke           with --parallel: quick sizes plus hard assertions —
//!                     zero invalid schedules, zero mis-applied stale moves,
//!                     serial/parallel cost parity within 5%, commit reuse
//!                     and the adaptive fallback still engaging (exact
//!                     counters), wall clock within 10x of the serial driver
//!                     (no speedup is asserted, see `main`)
//!
//! Built with `--features hc-debug-counters`, every row additionally reports
//! candidate destinations per accepted move and the share of them the
//! driver's `O(1)` lower bound pruned (`evals_per_accepted_move`,
//! `prune_share`).

use bsp_bench::legacy_hc::legacy_hc_improve;
use bsp_bench::stats::{host_cores, BenchReport};
use bsp_bench::{size_to_target, CliArgs};
use bsp_model::{BspSchedule, Dag, Machine};
use bsp_sched::hill_climb::{
    hc_improve, HcState, HillClimbConfig, HillClimbOutcome, ParallelHc, ParallelStats,
    SearchScratch,
};
use bsp_sched::init::SourceScheduler;
use bsp_sched::Scheduler;
use dag_gen::coarse::{coarse, CoarseAlgorithm, CoarseConfig};
use dag_gen::fine::{cg, exp, spmv, IterConfig, SpmvConfig};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One measured hill-climbing run.
struct RunStats {
    seconds: f64,
    steps: usize,
    initial_cost: u64,
    final_cost: u64,
    reached_local_minimum: bool,
}

impl RunStats {
    fn moves_per_sec(&self) -> f64 {
        if self.seconds <= 0.0 {
            0.0
        } else {
            self.steps as f64 / self.seconds
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"seconds\": {:.6}, \"steps\": {}, \"moves_per_sec\": {:.1}, \
             \"initial_cost\": {}, \"final_cost\": {}, \"reached_local_minimum\": {}}}",
            self.seconds,
            self.steps,
            self.moves_per_sec(),
            self.initial_cost,
            self.final_cost,
            self.reached_local_minimum
        )
    }

    fn from_outcome(outcome: HillClimbOutcome, seconds: f64) -> Self {
        RunStats {
            seconds,
            steps: outcome.steps,
            initial_cost: outcome.initial_cost,
            final_cost: outcome.final_cost,
            reached_local_minimum: outcome.reached_local_minimum,
        }
    }
}

fn log_run(label: &str, stats: &RunStats) {
    eprintln!(
        "   {label}: {:.3}s, {} moves ({:.0}/s), cost {} -> {}{}",
        stats.seconds,
        stats.steps,
        stats.moves_per_sec(),
        stats.initial_cost,
        stats.final_cost,
        if stats.reached_local_minimum {
            ""
        } else {
            " [TIME LIMIT]"
        },
    );
}

/// Runs the search `reps` times from the same initial schedule and keeps the
/// fastest wall-clock (the runs are deterministic, so the minimum isolates
/// scheduler noise).
fn measure<F>(
    dag: &Dag,
    machine: &Machine,
    init: &BspSchedule,
    limit: Duration,
    reps: usize,
    f: F,
) -> RunStats
where
    F: Fn(
        &Dag,
        &Machine,
        &mut BspSchedule,
        &HillClimbConfig,
    ) -> bsp_sched::hill_climb::HillClimbOutcome,
{
    let config = HillClimbConfig {
        time_limit: limit,
        max_steps: usize::MAX,
        ..Default::default()
    };
    let mut best: Option<RunStats> = None;
    for _ in 0..reps.max(1) {
        let mut schedule = init.clone();
        let start = Instant::now();
        let outcome = f(dag, machine, &mut schedule, &config);
        let seconds = start.elapsed().as_secs_f64();
        assert!(
            schedule.validate(dag, machine).is_ok(),
            "hill climbing produced an invalid schedule"
        );
        let stats = RunStats::from_outcome(outcome, seconds);
        if best.as_ref().is_none_or(|b| stats.seconds < b.seconds) {
            best = Some(stats);
        }
    }
    best.expect("at least one repetition runs")
}

/// The parallel counterpart of [`measure`]: drives [`ParallelHc`] directly
/// (`hc_improve` never dispatches it), reused across repetitions so its
/// buffers are warm, and reports the run's [`ParallelStats`].  Panics if any repetition
/// produces an invalid schedule — the smoke gate's "zero invalid schedules".
fn measure_parallel(
    dag: &Dag,
    machine: &Machine,
    init: &BspSchedule,
    limit: Duration,
    reps: usize,
    threads: usize,
) -> (RunStats, ParallelStats) {
    let config = HillClimbConfig {
        time_limit: limit,
        max_steps: usize::MAX,
        ..Default::default()
    }
    .with_threads(threads);
    let mut driver = ParallelHc::new(threads);
    let mut best: Option<(RunStats, ParallelStats)> = None;
    for _ in 0..reps.max(1) {
        let mut schedule = init.clone();
        let start = Instant::now();
        schedule.relax_to_lazy(dag);
        let mut state = HcState::new(dag, machine, schedule.assignment.clone())
            .expect("Source schedules are lazily feasible");
        let mut scratch = SearchScratch::new();
        scratch.enqueue_all(dag);
        let mut outcome = driver.search(dag, machine, &mut state, &config, &mut scratch, true);
        schedule.assignment = state.into_assignment();
        schedule.relax_to_lazy(dag);
        schedule.normalize(dag);
        outcome.final_cost = schedule.cost(dag, machine);
        let seconds = start.elapsed().as_secs_f64();
        assert!(
            schedule.validate(dag, machine).is_ok(),
            "parallel hill climbing produced an invalid schedule"
        );
        let stats = RunStats::from_outcome(outcome, seconds);
        if best.as_ref().is_none_or(|(b, _)| stats.seconds < b.seconds) {
            best = Some((stats, *driver.stats()));
        }
    }
    best.expect("at least one repetition runs")
}

/// `--parallel --smoke` fails when the parallel driver's geomean speed falls
/// below this fraction of the serial driver's (see `main`).
const PARALLEL_OVERHEAD_FLOOR: f64 = 0.1;

/// Drains the serial driver's debug counters, accumulated over the
/// (deterministic) repetitions that accepted `steps` moves in total: candidate
/// destinations per accepted move, and the share of them the `O(1)` lower
/// bound pruned before any tally was touched.  Reads zeros under
/// `HC_DEBUG_TIMING`, which makes the search drain them itself.
#[cfg(feature = "hc-debug-counters")]
fn drain_eval_counters(steps: usize) -> (f64, f64) {
    use bsp_sched::hill_climb::debug_counters::{EVALS, PRUNED};
    use std::sync::atomic::Ordering::Relaxed;
    let evals = EVALS.swap(0, Relaxed) as f64;
    let pruned = PRUNED.swap(0, Relaxed) as f64;
    (evals / steps.max(1) as f64, pruned / evals.max(1.0))
}

fn parallel_stats_json(stats: &ParallelStats) -> String {
    format!(
        "{{\"rounds\": {}, \"evaluated\": {}, \"speculative_wins\": {}, \
         \"accepted\": {}, \"stale_applied\": {}, \"stale_rejected\": {}, \
         \"mis_applied\": {}, \"deferred\": {}, \"reused_commits\": {}, \
         \"revalidated_commits\": {}, \"serial_fallback\": {}}}",
        stats.rounds,
        stats.evaluated,
        stats.speculative_wins,
        stats.accepted,
        stats.stale_applied,
        stats.stale_rejected,
        stats.mis_applied,
        stats.deferred,
        stats.reused_commits,
        stats.revalidated_commits,
        stats.serial_fallback,
    )
}

fn main() {
    let args = CliArgs::from_env();
    let smoke = args.flag("smoke");
    let quick = args.flag("quick") || smoke;
    let parallel_mode = args.flag("parallel");
    let out_path = args.value("out").unwrap_or("BENCH_hc.json").to_string();
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
    let limit = Duration::from_secs(args.u64_or("time-limit", if quick { 60 } else { 600 }));
    // The smoke gate is about the parallel driver; the (slow) legacy
    // comparison adds nothing to it.
    let skip_legacy = args.flag("skip-legacy") || smoke;
    let reps = args.usize_or("reps", if smoke { 1 } else { 3 });
    let nnz_per_row = args.u64_or("nnz-per-row", 16) as f64;
    let threads = {
        let requested = args.usize_or("threads", 0);
        if requested == 0 {
            host_cores()
        } else {
            requested
        }
    };

    eprintln!(
        "exp_hc: target {target} nodes, time limit {}s, host cores {}{}",
        limit.as_secs(),
        host_cores(),
        if parallel_mode {
            format!(", parallel driver with {threads} lanes")
        } else {
            String::new()
        },
    );
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
    // Two of the paper's coarse-grained GraphBLAS programs (Appendix B.1),
    // sized by iteration count: cg_coarse is the per-iteration dataflow of
    // the same solver the fine-grained `cg` instance unrolls per nonzero,
    // labelprop the narrowest (4 nodes per iteration, nearly a chain).
    eprintln!("sizing cg_coarse instance...");
    let cg_coarse_dag = size_to_target(target, |iters| {
        coarse(&CoarseConfig {
            algorithm: CoarseAlgorithm::ConjugateGradient,
            iterations: iters,
        })
    });
    eprintln!("sizing labelprop instance...");
    let labelprop_dag = size_to_target(target, |iters| {
        coarse(&CoarseConfig {
            algorithm: CoarseAlgorithm::LabelPropagation,
            iterations: iters,
        })
    });
    let instances: Vec<(&str, &Dag)> = vec![
        ("spmv", &spmv_dag),
        ("cg", &cg_dag),
        ("exp", &exp_dag),
        ("cg_coarse", &cg_coarse_dag),
        ("labelprop", &labelprop_dag),
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

    let mut rows = Vec::new();
    let mut legacy_speedups = Vec::new();
    let mut parallel_speedups = Vec::new();
    let mut worst_cost_ratio = 0.0f64;
    let mut total_mis_applied = 0u64;
    // Speculative commits that reused / re-validated their evaluation, and
    // rows the adaptive controller handed to the serial driver.
    let (mut reused, mut revalidated, mut fallbacks) = (0u64, 0u64, 0usize);
    for (inst_name, dag) in &instances {
        for (machine_name, machine) in &machines {
            eprintln!("== {inst_name} ({} nodes) on {machine_name}", dag.n());
            let init = SourceScheduler.schedule(dag, machine);
            let init_cost = init.cost(dag, machine);

            let mut row = String::new();
            let current = measure(dag, machine, &init, limit, reps, hc_improve);
            log_run("worklist", &current);
            write!(
                row,
                "    {{\"instance\": \"{inst_name}\", \"nodes\": {}, \"edges\": {}, \
                 \"machine\": \"{machine_name}\", \"init_cost\": {init_cost}, \
                 \"worklist\": {}",
                dag.n(),
                dag.num_edges(),
                current.to_json(),
            )
            .unwrap();
            #[cfg(feature = "hc-debug-counters")]
            {
                let (per_move, pruned) = drain_eval_counters(current.steps * reps.max(1));
                eprintln!(
                    "   {per_move:.1} destinations per accepted move, {:.1}% pruned by the bound",
                    100.0 * pruned
                );
                write!(
                    row,
                    ", \"evals_per_accepted_move\": {per_move:.2}, \"prune_share\": {pruned:.4}"
                )
                .unwrap();
            }
            if !skip_legacy {
                let legacy = measure(dag, machine, &init, limit, reps, legacy_hc_improve);
                log_run("legacy  ", &legacy);
                let speedup = legacy.seconds / current.seconds.max(1e-9);
                eprintln!("   speedup (wall-clock to local minimum): {speedup:.1}x");
                legacy_speedups.push(speedup);
                write!(
                    row,
                    ", \"legacy\": {}, \"speedup_wall_clock\": {speedup:.2}",
                    legacy.to_json()
                )
                .unwrap();
            }
            if parallel_mode {
                // The batch-speculative driver from the same initial state;
                // `current` (the serial work-list driver) is the baseline.
                let (parallel, pstats) =
                    measure_parallel(dag, machine, &init, limit, reps, threads);
                log_run("parallel", &parallel);
                let speedup = current.seconds / parallel.seconds.max(1e-9);
                let cost_ratio = parallel.final_cost as f64 / current.final_cost.max(1) as f64;
                eprintln!(
                    "   parallel speedup {speedup:.2}x, cost ratio {cost_ratio:.4}, \
                     reused {}, revalidated {}, deferred {}, mis-applied {}{}",
                    pstats.reused_commits,
                    pstats.revalidated_commits,
                    pstats.deferred,
                    pstats.mis_applied,
                    if pstats.serial_fallback {
                        " (fell back to serial)"
                    } else {
                        ""
                    }
                );
                parallel_speedups.push(speedup);
                worst_cost_ratio = worst_cost_ratio.max(cost_ratio);
                total_mis_applied += pstats.mis_applied;
                reused += pstats.reused_commits;
                revalidated += pstats.revalidated_commits;
                fallbacks += usize::from(pstats.serial_fallback);
                if smoke {
                    assert_eq!(pstats.mis_applied, 0, "a stale move was mis-applied");
                    // Both drivers certify local minima of the same
                    // first-improvement landscape, but not the same one; the
                    // recorded full-size worst case is 1.039, so gate at 5%.
                    assert!(
                        cost_ratio <= 1.05,
                        "parallel final cost {} not at parity with serial {} on \
                         {inst_name}/{machine_name}",
                        parallel.final_cost,
                        current.final_cost
                    );
                }
                write!(
                    row,
                    ", \"parallel\": {}, \"parallel_stats\": {}, \
                     \"speedup_parallel\": {speedup:.2}, \"cost_ratio_parallel\": {cost_ratio:.4}",
                    parallel.to_json(),
                    parallel_stats_json(&pstats),
                )
                .unwrap();
            }
            row.push('}');
            rows.push(row);
        }
    }

    let mut report = BenchReport::new("hc_throughput");
    report.set_config_json(format!(
        "{{\"target_nodes\": {target}, \"time_limit_secs\": {}, \"initializer\": \"Source\", \
         \"host_cores\": {}, \"threads\": {}}}",
        limit.as_secs(),
        host_cores(),
        if parallel_mode { threads } else { 1 },
    ));
    for row in rows {
        report.push_result_json(row);
    }
    // Summary: the legacy comparison when it ran (the historical headline),
    // the parallel comparison otherwise; parallel aggregates ride along as
    // extra fields either way.
    let mut extra: Vec<(&str, String)> = Vec::new();
    if parallel_mode {
        let geomean_par = bsp_bench::geo_mean(parallel_speedups.iter().copied());
        extra.push(("parallel_geomean_speedup", format!("{geomean_par:.2}")));
        extra.push((
            "parallel_worst_cost_ratio",
            format!("{worst_cost_ratio:.4}"),
        ));
        extra.push(("invalid_schedules", "0".into())); // every run validates or panics
        extra.push(("mis_applied_stale_moves", total_mis_applied.to_string()));
        extra.push(("host_cores", host_cores().to_string()));
        extra.push(("threads", threads.to_string()));
        eprintln!(
            "parallel geomean speedup {geomean_par:.2}x over {} runs, worst cost ratio \
             {worst_cost_ratio:.4}, {total_mis_applied} mis-applied stale moves",
            parallel_speedups.len()
        );
        if smoke {
            assert_eq!(total_mis_applied, 0, "mis-applied stale moves recorded");
            // The driver's two overhead mechanisms, gated on its counters —
            // exact for a fixed input, whatever the host or the lane count.
            // Commit reuse: most speculative winners are still fresh at
            // commit time and skip the second evaluation (68% here).  The
            // adaptive fallback: chain-like rows batch below break-even and
            // must be handed to the serial driver (16 of the 20 rows here).
            eprintln!(
                "{reused} commits reused their speculation, {revalidated} re-validated; \
                 {fallbacks} of {} rows fell back to serial",
                parallel_speedups.len()
            );
            assert!(
                reused >= revalidated,
                "commit reuse regressed: {reused} reused vs {revalidated} re-validated commits"
            );
            assert!(
                2 * fallbacks >= parallel_speedups.len(),
                "adaptive fallback regressed: {fallbacks} of {} rows fell back",
                parallel_speedups.len()
            );
            // Wall clock, as a backstop only: within 10x of the serial
            // driver.  These are millisecond runs dominated by lane wake-ups,
            // and the ratio spreads over 0.15-0.36x between identical runs at
            // 2 cores, so a tighter bound flakes.  No speedup is asserted at
            // any core count: `hc_improve` and the multilevel engine do not
            // dispatch this driver, and ROADMAP item 3 keeps it only if it
            // clears 1x.
            assert!(
                geomean_par >= PARALLEL_OVERHEAD_FLOOR,
                "parallel driver more than {:.0}x slower than the serial one on a \
                 {}-core host (geomean speedup {geomean_par:.2}x)",
                1.0 / PARALLEL_OVERHEAD_FLOOR,
                host_cores()
            );
        }
    }
    let headline = if legacy_speedups.is_empty() {
        &parallel_speedups
    } else {
        &legacy_speedups
    };
    if let Some(summary) = BenchReport::speedup_summary(headline, &extra) {
        report.set_summary_json(summary);
        if !legacy_speedups.is_empty() {
            let geomean = bsp_bench::geo_mean(legacy_speedups.iter().copied());
            let min = legacy_speedups
                .iter()
                .cloned()
                .fold(f64::INFINITY, f64::min);
            eprintln!(
                "geomean speedup vs legacy {geomean:.2}x, min {min:.2}x over {} runs",
                legacy_speedups.len()
            );
        }
    }
    report
        .write(&out_path)
        .expect("failed to write the benchmark JSON");
    eprintln!("wrote {out_path}");
}
