//! The scale sweep of the one scheduler: how long the pipeline takes, what
//! it answers and where the time goes on ≈10k-node `spmv` / `cg` / `exp`
//! fine-grained instances plus the `pagerank` / `bicgstab` coarse-grained
//! GraphBLAS instances, on 4-, 8- and 16-processor uniform and NUMA
//! machines.
//!
//! The binary keeps the name it had when it timed the paper's multilevel
//! scheduler (§4.5 / §7.3).  That scheduler's ratio members — coarsener and
//! refinement walk — won 0 of these 20 rows against the funnel reduction in
//! front of the flat pipeline and were deleted (CHANGES.md keeps their last
//! recording).  What is left of "multilevel" is the funnel reduction, and
//! every row says what it did (`funnel_nodes`).
//!
//! Per row: wall-clock of `Pipeline::run_report` (fastest of `--reps`), the
//! final cost against the trivial schedule's and against the lower bound
//! (`gap`), the start that was searched and the width it placed on, the
//! seconds — on stderr also µs/node — per phase (`funnel`, the two sweeps'
//! `init_schedule`, the one `hc`, `relocate`, `refine`, `hccs`), the
//! relocation phase's candidates evaluated and kept and its cost
//! (`relocate_evaluated`, `relocate_kept`, `relocate_cost`), the refinement
//! on the DAG after the funnel projection — its seeds, accepted moves,
//! whether it was kept and its cost (`refine_seeds`, `refine_moves`,
//! `refine_kept`, `refine_cost`) — and `solve_peak_bytes_per_node`:
//! the most heap the solve held above the level it started from, per node of
//! the DAG, counted by [`bsp_bench::heap`] (the largest of `--reps`).
//! Beside them, `sweep` is the timed run's own candidate list
//! (`PipelineReport::branches`): every start either initializer built (each
//! width `P, P/2, …` ≥ 2, on the funnel DAG) with its four stages' times on
//! the run's phase clock (µs per node of the DAG), the superstep count the
//! merge removed, its cost and whether the sweep kept it;
//! `sweep_dropped_share` is the share of those stage times spent on the
//! candidates the sweeps dropped.  Heap is not split by stage (it can only be
//! counted around a separate rebuild); the solve peak covers the sweeps.  The
//! row's `pipeline` object also carries the searched start's `init_cost` and
//! the `local_search_cost` after `HC`.  `hc_from_source` is `HC` alone (§4.3)
//! from `Source`'s schedule to a local minimum: moves per second, costs,
//! search counts, destinations costed per accepted move and the share the
//! `O(1)` bound pruned.  Written as JSON (default `BENCH_pipeline.json`, at
//! ≈10k and ≈100k nodes), keeping the `frozen_…` lines of the file it
//! overwrites.  `--target N` runs the size `N` alone.
//!
//! `--smoke` turns the run into a CI gate: every schedule validates, its
//! reported cost equals a recompute, no row costs more than the trivial
//! single-processor schedule (the pipeline ends on that floor, so a violation
//! means the floor broke), no answer holds two adjacent supersteps that
//! `merge_supersteps` would merge, and every `hc_from_source` run ends valid
//! at a local minimum, no costlier than its start, with a cost equal to a
//! recompute, every candidate list passes [`sweep_gate`], every
//! relocation phase [`relocate_gate`] and every refinement [`refine_gate`];
//! the binary
//! exits 1 if one of these fails or a row's solve peak exceeds
//! [`SMOKE_MAX_SOLVE_PEAK_BYTES_PER_NODE`].
//!
//! Usage:
//!
//! ```text
//! cargo run -p bsp_bench --release --bin exp_multilevel --
//!     [--out PATH] [--target N] [--reps N] [--smoke]
//! ```

use bsp_bench::heap::{held_peak, CountingAllocator};
use bsp_bench::stats::BenchReport;
use bsp_bench::{size_to_target, CliArgs};
use bsp_model::{BspSchedule, Dag, Machine};
use bsp_sched::hill_climb::{
    hc_improve, HillClimbConfig, HillClimbOutcome, SearchCounts, RELOCATION_CANDIDATES,
    RELOCATION_VISITS_PER_NODE,
};
use bsp_sched::init::{merge_supersteps, SourceScheduler};
use bsp_sched::pipeline::{BranchReport, Pipeline, PipelineReport};
use bsp_sched::Scheduler;
use dag_gen::coarse::{coarse, CoarseAlgorithm, CoarseConfig};
use dag_gen::fine::{cg, exp, spmv, IterConfig, SpmvConfig};
use std::time::Instant;

/// The `--smoke` ceiling on a row's solve peak, in heap bytes per DAG node:
/// 147.1 measured (`bicgstab` at ~1k nodes, `P = 16`; 143.7 at 40k, `cg` on
/// `uniform_p16`) plus 25 %.  A supersteps × processors table in the cost
/// function and `place_sources`, 24- and 32-byte `HcState` records and a
/// `BSPg` ready entry per processor read 303.1 on the same rows (300.7 at
/// 40k; 184.8 and 182.6 on the machines of `P ≤ 8`), a `usize` CSR and a
/// `Vec` of consumer summaries per node 413.4 (407.4) at `P ≤ 8`.
const SMOKE_MAX_SOLVE_PEAK_BYTES_PER_NODE: f64 = 184.0;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The phases a row reports, by [`bsp_sched::PhaseSample`] name.  `funnel`,
/// `hc`, `relocate` (when it evaluated a candidate), `refine` (when it had a
/// seed) and `hccs` are depth-0 samples, one each; `init_schedule` is the
/// child of either initializer's sweep (summed over the two, which run one
/// after the other).
const PHASES: [&str; 6] = [
    "funnel",
    "init_schedule",
    "hc",
    "relocate",
    "refine",
    "hccs",
];

/// Runs the pipeline `reps` times; the fastest wall-clock (the runs repeat
/// their work exactly, so the minimum isolates OS noise) with its report,
/// and the largest heap peak of the runs.
fn measure(reps: usize, run: impl Fn() -> PipelineReport) -> (f64, PipelineReport, usize) {
    let once = || {
        let start = Instant::now();
        let (report, peak) = held_peak(&run);
        (start.elapsed().as_secs_f64(), report, peak)
    };
    let mut best = once();
    for _ in 1..reps {
        let next = once();
        let peak = best.2.max(next.2);
        if next.0 < best.0 {
            best = next;
        }
        best.2 = peak;
    }
    best
}

fn phase_seconds(report: &PipelineReport, name: &str) -> f64 {
    let of_name = report.phases.iter().filter(|p| p.name == name);
    of_name.map(|p| p.dur_us).sum::<u64>() as f64 / 1e6
}

/// The `--smoke` gate on a row's candidate list: `log₂ P` candidates per
/// initializer, widest first, exactly one of them kept, and the searched start
/// the cheapest kept one (ties to the earlier, `BSPg`).
fn sweep_gate(run: &PipelineReport, p: usize) -> bool {
    let per_init = p.ilog2() as usize;
    let widths = |name: &'static str| (0..per_init).map(move |k| (name, p >> k));
    let listed = run.branches.iter().map(|b| (b.init_name, b.width));
    let one_kept = |of_init: &[BranchReport]| of_init.iter().filter(|b| b.kept).count() == 1;
    let kept = run.branches.iter().filter(|b| b.kept);
    let searched = kept.min_by_key(|b| b.init_cost);
    listed.eq(widths("BSPg").chain(widths("Source")))
        && run.branches.chunks(per_init).all(one_kept)
        && searched.map(|b| (b.init_cost, b.width)) == Some((run.init_cost, run.placement_width))
}

/// The smallest `--target` at which [`relocate_gate`] asks every `bicgstab`
/// row to keep a relocation: its `HC` answers hold heavy serial supersteps
/// from 10⁴ nodes on (ROADMAP item 16), and at 10³ some end on the floor.
const RELOCATE_GATE_MIN_TARGET: usize = 10_000;

/// The `--smoke` gate on a row's relocation phase: no costlier than the
/// `HC` answer it was given, no more candidates than its budget, and on
/// `bicgstab` from [`RELOCATE_GATE_MIN_TARGET`] on, at least one relocation
/// kept.
fn relocate_gate(run: &PipelineReport, instance: &str, target: usize) -> bool {
    let r = run.relocation;
    let kept = instance != "bicgstab" || target < RELOCATE_GATE_MIN_TARGET || r.kept >= 1;
    r.final_cost <= run.local_search_cost && r.evaluated <= RELOCATION_CANDIDATES && kept
}

/// The `--smoke` gate on a row's refinement on the caller's DAG: no
/// costlier than the relocation phase's answer it was given, within its
/// visit budget, and on `bicgstab` at `P ≥ 8` from
/// [`RELOCATE_GATE_MIN_TARGET`] on, kept (the relocation leaves single-node
/// moves there that moves of whole funnel clusters cannot make).
fn refine_gate(run: &PipelineReport, instance: &str, p: usize, target: usize) -> bool {
    let r = run.refinement;
    let asked = instance == "bicgstab" && p >= 8 && target >= RELOCATE_GATE_MIN_TARGET;
    let budget = RELOCATION_VISITS_PER_NODE * run.schedule.assignment.n() as u64;
    r.final_cost <= run.relocation.final_cost && r.visits <= budget && (r.kept || !asked)
}

/// `HC` alone (§4.3), outside the solve's heap window: `hc_improve` from
/// `Source`'s schedule of the DAG to a local minimum, the fastest of `reps`
/// runs (they repeat their work exactly).  Logs the run, pushes each smoke
/// gate it fails onto `failures` (labelled `row`) and returns the row's
/// `hc_from_source` block.
fn hc_from_source(
    dag: &Dag,
    machine: &Machine,
    reps: usize,
    row: &str,
    failures: &mut Vec<String>,
) -> String {
    let init = SourceScheduler.schedule(dag, machine);
    let config = HillClimbConfig::default();
    let run = || {
        let mut schedule = init.clone();
        let start = Instant::now();
        let outcome = hc_improve(dag, machine, &mut schedule, &config);
        (start.elapsed().as_secs_f64(), outcome, schedule)
    };
    let fastest = |best: (f64, _, _), next: (f64, _, _)| if next.0 < best.0 { next } else { best };
    let (seconds, outcome, schedule) = (1..reps).map(|_| run()).fold(run(), fastest);
    let HillClimbOutcome {
        steps,
        initial_cost,
        final_cost,
        reached_local_minimum,
        counts:
            SearchCounts {
                visits,
                gated,
                evaluated,
                pruned,
                sweeps,
            },
    } = outcome;
    if let Err(e) = schedule.validate(dag, machine) {
        failures.push(format!("{row}: hc_from_source: invalid schedule: {e:?}"));
    }
    let recomputed = schedule.cost(dag, machine);
    if final_cost > initial_cost || final_cost != recomputed || !reached_local_minimum {
        failures.push(format!(
            "{row}: hc_from_source: cost {initial_cost} -> {final_cost}, recomputed \
             {recomputed}, local minimum {reached_local_minimum}"
        ));
    }
    let moves_per_sec = if seconds > 0.0 {
        steps as f64 / seconds
    } else {
        0.0
    };
    // Candidate destinations costed per accepted move, and the share of them
    // the `O(1)` lower bound pruned before any tally was touched.
    let per_move = evaluated as f64 / steps.max(1) as f64;
    let prune_share = pruned as f64 / evaluated.max(1) as f64;
    eprintln!(
        "     hc from Source: {seconds:.3}s, {steps} moves ({moves_per_sec:.0}/s), cost \
         {initial_cost} -> {final_cost}; {per_move:.1} destinations per accepted move, {:.1}% \
         pruned",
        100.0 * prune_share
    );
    format!(
        "{{\"init_cost\": {}, \"seconds\": {seconds:.6}, \"steps\": {steps}, \
         \"moves_per_sec\": {moves_per_sec:.1}, \"initial_cost\": {initial_cost}, \
         \"final_cost\": {final_cost}, \"reached_local_minimum\": {reached_local_minimum}, \
         \"visits\": {visits}, \"gated\": {gated}, \"evaluated\": {evaluated}, \
         \"pruned\": {pruned}, \"sweeps\": {sweeps}, \
         \"evals_per_accepted_move\": {per_move:.2}, \"prune_share\": {prune_share:.4}}}",
        init.cost(dag, machine)
    )
}

/// Non-zeros per row of the fine-grained instances' sparsity pattern.
const NNZ_PER_ROW: f64 = 16.0;

/// The five instances of a row block, each sized to about `target` nodes.
fn instances(target: usize) -> [(&'static str, Dag); 5] {
    let density = |n: usize| NNZ_PER_ROW / n as f64;
    let iterative = |iterations| {
        move |n| IterConfig {
            n,
            density: density(n),
            iterations,
            seed: 42,
        }
    };
    // The paper's coarse-grained GraphBLAS programs (Appendix B.1) are sized
    // by iteration count: pagerank is the long-chain extreme (6 nodes per
    // iteration, depth ≈ n/2), bicgstab the widest of the solvers.
    let kernel = |algorithm| {
        move |iterations| {
            coarse(&CoarseConfig {
                algorithm,
                iterations,
            })
        }
    };
    let sized = |name: &'static str, make: &dyn Fn(usize) -> Dag| {
        eprintln!("sizing {name} instance...");
        (name, size_to_target(target, make))
    };
    [
        sized("spmv", &|n| {
            spmv(&SpmvConfig {
                n,
                density: density(n),
                seed: 42,
            })
        }),
        sized("cg", &|n| cg(&iterative(2)(n))),
        sized("exp", &|n| exp(&iterative(3)(n))),
        sized("pagerank", &kernel(CoarseAlgorithm::PageRank)),
        sized("bicgstab", &kernel(CoarseAlgorithm::BiCgStab)),
    ]
}

fn main() {
    let args = CliArgs::from_env(&["smoke", "out", "target", "reps"]);
    let smoke = args.flag("smoke");
    let out_path = args.value("out").unwrap_or("BENCH_pipeline.json");
    let targets = match args.value("target") {
        Some(_) => vec![args.u64_or("target", 0) as usize],
        None => vec![10_000, 100_000],
    };
    let reps = args.usize_or("reps", 1);
    eprintln!("exp_multilevel: targets {targets:?} nodes, reps {reps}");
    let machines = [
        ("uniform_p4_g3_l5", Machine::uniform(4, 3, 5)),
        ("uniform_p8_g3_l5", Machine::uniform(8, 3, 5)),
        ("numa_p4_g3_l5_d3", Machine::numa_binary_tree(4, 3, 5, 3)),
        ("numa_p8_g3_l5_d3", Machine::numa_binary_tree(8, 3, 5, 3)),
        ("uniform_p16_g3_l5", Machine::uniform(16, 3, 5)),
        ("numa_p16_g3_l5_d3", Machine::numa_binary_tree(16, 3, 5, 3)),
    ];

    let pipeline = Pipeline::default();
    let mut report = BenchReport::new("pipeline_scale");
    let (mut runs, mut total_seconds) = (0, 0.0f64);
    let mut failures = Vec::new();
    for &target in &targets {
        for (inst_name, dag) in &instances(target) {
            for (machine_name, machine) in &machines {
                runs += 1;
                let row = format!("{inst_name}/{machine_name}");
                eprintln!("== {row} ({} nodes)", dag.n());
                let trivial = BspSchedule::trivial(dag).cost(dag, machine);
                let (seconds, run, peak) = measure(reps, || pipeline.run_report(dag, machine));
                let per_node = |s: f64| s * 1e6 / dag.n() as f64;
                let peak_per_node = peak as f64 / dag.n() as f64;
                total_seconds += seconds;
                if let Err(e) = run.schedule.validate(dag, machine) {
                    failures.push(format!("{row}: invalid schedule: {e:?}"));
                }
                let recomputed = run.schedule.cost(dag, machine);
                if recomputed != run.final_cost || run.final_cost > trivial {
                    failures.push(format!(
                        "{row}: reported cost {}, recomputed {recomputed}, trivial {trivial}",
                        run.final_cost
                    ));
                }
                let left = merge_supersteps(dag, &mut run.schedule.assignment.clone());
                if left > 0 {
                    failures.push(format!(
                        "{row}: {left} superstep(s) behind a barrier no value crosses"
                    ));
                }
                if peak_per_node > SMOKE_MAX_SOLVE_PEAK_BYTES_PER_NODE {
                    failures.push(format!(
                        "{row}: solve peak {peak_per_node:.1} heap bytes per node above \
                         {SMOKE_MAX_SOLVE_PEAK_BYTES_PER_NODE}"
                    ));
                }
                let phases = PHASES.map(|name| phase_seconds(&run, name));
                eprintln!(
                    "   {seconds:.3}s, cost {} ({:.3}x trivial, gap {:.2}), selected {} at \
                     width {}, funnel {} nodes",
                    run.final_cost,
                    run.final_cost as f64 / trivial.max(1) as f64,
                    run.gap(),
                    run.selected_init,
                    run.placement_width,
                    run.funnel_nodes
                );
                eprintln!(
                    "     phases: funnel {:.3}s, init {:.3}s, hc {:.3}s, relocate {:.3}s, \
                     refine {:.3}s, hccs {:.3}s",
                    phases[0], phases[1], phases[2], phases[3], phases[4], phases[5]
                );
                let relocation = run.relocation;
                eprintln!(
                    "     relocation: {} evaluated, {} kept, {} visits, cost {} -> {}",
                    relocation.evaluated,
                    relocation.kept,
                    relocation.visits,
                    run.local_search_cost,
                    relocation.final_cost
                );
                let refinement = run.refinement;
                eprintln!(
                    "     refinement: {} seeds, {} visits, {} moves, kept {}, cost {} -> {}",
                    refinement.seeds,
                    refinement.visits,
                    refinement.moves,
                    refinement.kept,
                    relocation.final_cost,
                    refinement.final_cost
                );
                let [funnel, init, hc, relocate, refine, hccs] = phases.map(per_node);
                eprintln!(
                    "     us/node: funnel {funnel:.3}, init {init:.3}, hc {hc:.3}, \
                     relocate {relocate:.3}, refine {refine:.3}, hccs {hccs:.3}, run {:.3}",
                    per_node(seconds)
                );
                eprintln!(
                    "     solve peak: {:.2} MB above the start, {peak_per_node:.1} bytes/node",
                    peak as f64 / 1e6
                );
                let hc = hc_from_source(dag, machine, reps, &row, &mut failures);
                if !sweep_gate(&run, machine.p()) {
                    failures.push(format!("{row}: candidate list {:?}", run.branches));
                }
                if !relocate_gate(&run, inst_name, target) {
                    failures.push(format!(
                        "{row}: relocation {:?} after HC at {}",
                        run.relocation, run.local_search_cost
                    ));
                }
                if !refine_gate(&run, inst_name, machine.p(), target) {
                    failures.push(format!(
                        "{row}: refinement {:?} after the relocation at {}",
                        run.refinement, run.relocation.final_cost
                    ));
                }
                let mut sweep = Vec::new();
                let (mut dropped_us, mut sweep_us) = (0, 0);
                for b in &run.branches {
                    let stage_us: u64 = b.stage_us.iter().sum();
                    sweep_us += stage_us;
                    dropped_us += u64::from(!b.kept) * stage_us;
                    let stages = BranchReport::STAGES.iter().zip(b.stage_us);
                    let us = stages
                        .map(|(name, t)| format!("\"{name}\": {:.4}", per_node(t as f64 / 1e6)));
                    let us = us.collect::<Vec<_>>().join(", ");
                    let candidate = format!(
                        "{{\"init\": \"{}\", \"width\": {}, \"kept\": {}, \"cost\": {}, \
                         \"merged_supersteps\": {}, \"us_per_node\": {{{us}}}}}",
                        b.init_name, b.width, b.kept, b.init_cost, b.merged,
                    );
                    eprintln!("     sweep {candidate}");
                    sweep.push(candidate);
                }
                let phases: Vec<String> = PHASES
                    .iter()
                    .zip(phases)
                    .map(|(name, s)| format!("\"{name}\": {s:.6}"))
                    .collect();
                report.push_result_json(format!(
                    "    {{\"instance\": \"{inst_name}\", \"nodes\": {}, \"edges\": {}, \
                     \"machine\": \"{machine_name}\", \"pipeline\": {{\"seconds\": {seconds:.6}, \
                     \"init_cost\": {}, \"local_search_cost\": {}, \"relocate_evaluated\": {}, \
                     \"relocate_kept\": {}, \"relocate_cost\": {}, \"refine_seeds\": {}, \
                     \"refine_moves\": {}, \"refine_kept\": {}, \"refine_cost\": {}, \"final_cost\": {}, \
                     \"trivial_cost\": {trivial}, \"lower_bound\": {}, \"gap\": {:.4}, \
                     \"selected_init\": \"{}\", \"placement_width\": {}, \"funnel_nodes\": {}, \
                     \"solve_peak_bytes_per_node\": {peak_per_node:.2}, \"phases\": {{{}}}}}, \
                     \"hc_from_source\": {}, \"sweep\": [{}], \"sweep_dropped_share\": {:.4}}}",
                    dag.n(),
                    dag.num_edges(),
                    run.init_cost,
                    run.local_search_cost,
                    relocation.evaluated,
                    relocation.kept,
                    relocation.final_cost,
                    refinement.seeds,
                    refinement.moves,
                    refinement.kept,
                    refinement.final_cost,
                    run.final_cost,
                    run.lower_bound,
                    run.gap(),
                    run.selected_init,
                    run.placement_width,
                    run.funnel_nodes,
                    phases.join(", "),
                    hc,
                    sweep.join(", "),
                    dropped_us as f64 / sweep_us.max(1) as f64
                ));
            }
        }
    }

    for failure in &failures {
        eprintln!("   FAILED {failure}");
    }

    let targets: Vec<String> = targets.iter().map(usize::to_string).collect();
    report.set_config_json(format!(
        "{{\"target_nodes\": [{}], \"base\": \"heuristics-only\", \"reps\": {reps}, \
         \"host_cores\": {}}}",
        targets.join(", "),
        bsp_bench::stats::host_cores(),
    ));
    report.set_summary_json(format!(
        "{{\"runs\": {runs}, \"total_seconds\": {total_seconds:.6}, \"failed_rows\": {}}}",
        failures.len()
    ));
    eprintln!("{runs} runs, {total_seconds:.3}s in total");
    report
        .write(out_path)
        .expect("failed to write the benchmark JSON");
    eprintln!("wrote {out_path}");
    if smoke {
        if !failures.is_empty() {
            eprintln!("smoke gates failed: {} row(s)", failures.len());
            std::process::exit(1);
        }
        eprintln!("smoke gates passed");
    }
}
