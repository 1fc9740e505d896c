//! The three solve workloads: a hyperDAG and a machine go in through the
//! library's public API, a validated schedule comes out.
//!
//! A *row* is one instance on one of the two machines.  The timed section
//! passes over every row, from hyperDAG text to a validated schedule with
//! its cost recomputed, a number of times that follows from `--seconds`; a
//! row's time is that of its fastest repetition.

use crate::common::{host_cores, peak_rss_mb, stolen_s, verdict, write_trace, Args, Outcome};
use crate::instances::{
    baseline, generate, machines, rng_for, Baseline, Family, Group, Instance, MACHINE_NAMES,
};
use crate::micro;
use crate::spans::{self, Recorder};
use crate::stats::geo_mean;
use bsp_model::{BspSchedule, Machine};
use bsp_sched::multilevel::PhaseTimings;
use bsp_sched::{MultilevelConfig, MultilevelScheduler, PhaseSample, Pipeline, PipelineConfig};
use dag_gen::read_hyperdag;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    FlatHc,
    MlFine,
    MlKernels,
}

impl Kind {
    fn multilevel(self) -> bool {
        self != Kind::FlatHc
    }

    /// What one pass over the workload's rows is sized to take on the
    /// 2-core host the benchmark was sized on.  `ml_fine`'s rows differ
    /// most from seed to seed, so it makes fewer passes over more rows.
    fn pass_seconds(self) -> f64 {
        match self {
            Kind::FlatHc | Kind::MlKernels => 4.0,
            Kind::MlFine => 8.0,
        }
    }
}

/// Instance groups per workload, sized to `pass_seconds`: see the README
/// for the measured row times.
fn groups(kind: Kind, smoke: bool) -> Vec<Group> {
    let g = |family, count, size| Group {
        family,
        count,
        size,
    };
    match (kind, smoke) {
        (Kind::FlatHc, false) => vec![
            g(Family::Spmv, 6, 350),
            g(Family::Cg, 6, 140),
            g(Family::Exp, 6, 180),
            g(Family::PageRank, 2, 1500),
            g(Family::BiCgStab, 2, 1500),
        ],
        (Kind::FlatHc, true) => vec![
            g(Family::Spmv, 2, 60),
            g(Family::Cg, 2, 30),
            g(Family::Exp, 2, 30),
            g(Family::PageRank, 2, 100),
            g(Family::BiCgStab, 2, 100),
        ],
        (Kind::MlFine, false) => vec![
            g(Family::Cg, 32, 18),
            g(Family::Exp, 32, 17),
            g(Family::Spmv, 32, 34),
        ],
        (Kind::MlFine, true) => vec![
            g(Family::Cg, 2, 14),
            g(Family::Exp, 2, 14),
            g(Family::Spmv, 2, 28),
        ],
        (Kind::MlKernels, false) => {
            vec![g(Family::PageRank, 5, 5000), g(Family::BiCgStab, 5, 2000)]
        }
        // Coarsened from above the coarsener's tail width (4096 clusters),
        // so the batch path still runs at smoke size.
        (Kind::MlKernels, true) => vec![g(Family::PageRank, 2, 1000), g(Family::BiCgStab, 2, 500)],
    }
}

pub struct Row {
    pub inst: usize,
    pub machine: usize,
    pub base: Baseline,
}

pub struct Setup {
    pub instances: Vec<Instance>,
    pub rows: Vec<Row>,
    pub machines: [Machine; 2],
}

impl Setup {
    pub fn row_name(&self, row: usize) -> String {
        let r = &self.rows[row];
        format!(
            "{}/{}",
            self.instances[r.inst].name, MACHINE_NAMES[r.machine]
        )
    }
}

/// Everything before the timed section: instance generation, hyperDAG
/// serialisation, and the two baselines on every row.
fn set_up(args: &Args, kind: Kind) -> Setup {
    let mut rng = rng_for(args.seed, &args.workload, 0);
    let instances = generate(&groups(kind, args.smoke), &mut rng);
    let machines = machines();
    // One machine per instance, alternating.  Two rows on one instance
    // rise and fall together from seed to seed; twice the instances on one
    // machine each give the same number of rows and a steadier sum.
    let rows = instances
        .iter()
        .enumerate()
        .map(|(inst, instance)| {
            let machine = inst % 2;
            Row {
                inst,
                machine,
                base: baseline(&instance.dag, &machines[machine]),
            }
        })
        .collect();
    Setup {
        instances,
        rows,
        machines,
    }
}

/// What the solver reported about where its time went.
pub enum Detail {
    Flat(Vec<PhaseSample>),
    Ml(PhaseTimings),
}

pub struct Answer {
    /// Wall seconds from hyperDAG text to the checked schedule.
    pub seconds: f64,
    /// Recomputed cost, or what the oracle found wrong.
    pub checked: Result<u64, String>,
    pub schedule: BspSchedule,
    pub detail: Detail,
}

pub struct Solver {
    flat: Pipeline,
    ml: MultilevelScheduler,
    multilevel: bool,
}

impl Solver {
    /// One solve thread everywhere.  `collect_phases` is on only in the
    /// traced run: the untraced pipeline then reads no phase clock at all.
    pub fn new(multilevel: bool, collect_phases: bool) -> Self {
        let mut flat = PipelineConfig::heuristics_only().with_thread_budget(1);
        flat.collect_phases = collect_phases;
        let ml = MultilevelConfig {
            base: PipelineConfig::heuristics_only(),
            threads: 1,
            ..MultilevelConfig::default()
        };
        Solver {
            flat: Pipeline::new(flat),
            ml: MultilevelScheduler::new(ml),
            multilevel,
        }
    }

    /// `read_hyperdag` → solve → `validate` → `cost`, spans around each.
    pub fn answer(&self, text: &str, machine: &Machine, rec: &mut Recorder, id: u64) -> Answer {
        let clock = Instant::now();
        let row = rec.begin("row", id);
        let span = rec.begin("parse", id);
        let dag = read_hyperdag(text).expect("the benchmark wrote this hyperDAG itself");
        rec.end(span);
        let span = rec.begin("solve", id);
        let (schedule, reported, detail) = if self.multilevel {
            let report = self.ml.run_report(&dag, machine);
            let timings = report.total_timings();
            (report.schedule, report.final_cost, Detail::Ml(timings))
        } else {
            let report = self.flat.run_report(&dag, machine);
            (
                report.schedule,
                report.final_cost,
                Detail::Flat(report.phases),
            )
        };
        rec.end(span);
        if rec.enabled() {
            phase_children(rec, span, &detail);
        }
        // The oracle is validate + cost, split here so each gets a span.
        let vspan = rec.begin("validate", id);
        let valid = schedule.validate(&dag, machine);
        rec.end(vspan);
        let cspan = rec.begin("cost", id);
        let cost = schedule.cost(&dag, machine);
        rec.end(cspan);
        rec.end(row);
        let seconds = clock.elapsed().as_secs_f64();
        Answer {
            seconds,
            checked: verdict(valid, cost, reported),
            schedule,
            detail,
        }
    }
}

const ML_PHASES: [&str; 6] = [
    "ml_coarsen",
    "ml_base_solve",
    "ml_uncontract",
    "ml_refine",
    "ml_final_sweep",
    "ml_final_comm",
];

fn ml_phase_seconds(t: &PhaseTimings) -> [f64; 6] {
    [
        t.coarsen_seconds,
        t.base_solve_seconds,
        t.uncontract_seconds,
        t.refine_seconds,
        t.final_sweep_seconds,
        t.final_comm_seconds,
    ]
}

/// Hangs the phases the solver reported beneath its `solve` span.
fn phase_children(rec: &mut Recorder, solve: spans::Open, detail: &Detail) {
    match detail {
        Detail::Flat(phases) => {
            // Sample offsets are relative to the run; `child` wants them
            // relative to the parent span.
            let (mut branch, mut branch_start) = (solve, 0);
            for p in phases {
                let (start, dur) = (p.start_us * 1000, p.dur_us * 1000);
                if p.depth == 0 {
                    branch = rec.child(solve, p.name, start, dur);
                    branch_start = start;
                } else {
                    rec.child(branch, p.name, start.saturating_sub(branch_start), dur);
                }
            }
        }
        Detail::Ml(timings) => {
            let mut offset = 0u64;
            for (name, seconds) in ML_PHASES.iter().zip(ml_phase_seconds(timings)) {
                let dur = (seconds * 1e9) as u64;
                rec.child(solve, name, offset, dur);
                offset += dur;
            }
        }
    }
}

pub fn run(args: &Args, kind: Kind) -> Outcome {
    let mut out = Outcome::default();

    let clock = Instant::now();
    let setup = set_up(args, kind);
    let setup_s = clock.elapsed().as_secs_f64();
    let nodes: usize = setup
        .rows
        .iter()
        .map(|r| setup.instances[r.inst].dag.n())
        .sum();
    out.notes.push(format!(
        "{} rows (one instance each, machines alternating), {nodes} nodes in total, 1 solve thread",
        setup.rows.len()
    ));

    let origin = Instant::now();
    let mut rec = Recorder::new(args.trace, origin);
    let solver = Solver::new(kind.multilevel(), args.trace);
    let n_rows = setup.rows.len();
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); n_rows];
    let mut costs: Vec<Vec<u64>> = vec![Vec::new(); n_rows];
    let mut last: Vec<Option<Answer>> = (0..n_rows).map(|_| None).collect();
    // The number of passes follows from `--seconds`, not from how fast the
    // host happens to be: a run that got fewer repetitions because it was
    // disturbed would also report slower rows.  A host so slow that the
    // passes take twice `--seconds` stops early.  Smoke and traced runs make
    // one pass.
    let wanted = if args.smoke || args.trace {
        1
    } else {
        ((args.seconds / kind.pass_seconds()).round() as usize).max(1)
    };
    let stolen_before = stolen_s();
    let clock = Instant::now();
    let mut passes = 0usize;
    loop {
        for (i, row) in setup.rows.iter().enumerate() {
            let text = &setup.instances[row.inst].text;
            let machine = &setup.machines[row.machine];
            let id = i as u64;
            let answer = solver.answer(text, machine, &mut rec, id);
            out.attempted += 1;
            match &answer.checked {
                Ok(cost) => costs[i].push(*cost),
                Err(what) => out.fail(format!("row {i} {}: {what}", setup.row_name(i))),
            }
            times[i].push(answer.seconds);
            last[i] = Some(answer);
        }
        passes += 1;
        if passes >= wanted || clock.elapsed().as_secs_f64() > 2.0 * args.seconds {
            break;
        }
    }
    let timed_s = clock.elapsed().as_secs_f64();
    let stolen = match (stolen_before, stolen_s()) {
        (Some(before), Some(after)) => after - before,
        _ => 0.0,
    };

    // Interference from the shared host only ever adds time and the solver
    // repeats its work exactly, so a row's fastest repetition is the one
    // that says most about the program.
    let row_s: Vec<f64> = times
        .iter()
        .map(|t| t.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    let solve_s: f64 = row_s.iter().sum();
    // A search that ended on its wall-clock limit gives a cost that depends
    // on machine load: repetitions then disagree, and the run has failed.
    let mut time_limited = 0usize;
    for (i, c) in costs.iter().enumerate() {
        if c.windows(2).any(|w| w[0] != w[1]) {
            time_limited += 1;
            out.fail(format!(
                "row {i} {}: time-limited, costs {c:?} differ between repetitions",
                setup.row_name(i)
            ));
        }
    }
    let vs = |pick: fn(&Baseline) -> u64| -> f64 {
        let ratios: Vec<f64> = setup
            .rows
            .iter()
            .zip(&costs)
            .filter_map(|(row, c)| c.first().map(|&c| c as f64 / pick(&row.base) as f64))
            .collect();
        geo_mean(&ratios)
    };
    out.notes.push(format!(
        "timed section {timed_s:.2} s: {passes} pass(es), solve_s {solve_s:.3} s (sum over rows of \
         the fastest of {passes} repetition(s)); the hypervisor stole {stolen:.2} s meanwhile"
    ));

    let mut values = crate::metrics::Values::new();
    let v = &mut values;
    v.insert("setup_s", setup_s);
    v.insert("throughput_rps", n_rows as f64 / solve_s);
    v.insert("answer_geomean_ms", geo_mean(&row_s) * 1e3);
    v.insert("cost_geomean_vs_cilk", vs(|b| b.cilk));
    v.insert("cost_geomean_vs_hdagg", vs(|b| b.hdagg));

    if args.trace {
        let totals = spans::totals(std::slice::from_ref(&rec));
        let total_s = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e9);
        let nodes = nodes as f64;
        v.insert("solve.total_s", solve_s);
        v.insert("solve.rows", n_rows as f64);
        v.insert("solve.nodes", nodes);
        v.insert("bench.host_cores", host_cores() as f64);
        v.insert("trace.spans", rec.len() as f64);
        // Measured directly: an A/B of traced against untraced solves cannot
        // resolve 1 % on a host whose identical solves differ by 10 %.  The
        // pipeline's own phase clock (`collect_phases`, eight reads a row)
        // is not in it.
        v.insert("trace.overhead_pct", rec.busy_s() / timed_s * 100.0);
        let gen_s: f64 = setup.instances.iter().map(|i| i.generate_s).sum();
        let write_s: f64 = setup.instances.iter().map(|i| i.write_s).sum();
        let inst_nodes: f64 = setup.instances.iter().map(|i| i.dag.n() as f64).sum();
        v.insert("dag_gen.generate_us_per_node", gen_s * 1e6 / inst_nodes);
        v.insert(
            "dag_gen.write_hyperdag_us_per_node",
            write_s * 1e6 / inst_nodes,
        );
        v.insert(
            "dag_gen.read_hyperdag_us_per_node",
            total_s("parse") * 1e6 / nodes,
        );
        v.insert(
            "model.validate_ns_per_node",
            total_s("validate") * 1e9 / nodes,
        );
        v.insert("model.cost_ns_per_node", total_s("cost") * 1e9 / nodes);
        v.insert(
            "baselines.cilk_s",
            setup.rows.iter().map(|r| r.base.cilk_s).sum(),
        );
        v.insert(
            "baselines.hdagg_s",
            setup.rows.iter().map(|r| r.base.hdagg_s).sum(),
        );
        if kind.multilevel() {
            let mut sum = PhaseTimings::default();
            for answer in last.iter().flatten() {
                if let Detail::Ml(t) = &answer.detail {
                    sum.add(t);
                }
            }
            let [coarsen, base, uncontract, refine, sweep, comm] = ml_phase_seconds(&sum);
            v.insert("ml.coarsen_s", coarsen);
            v.insert("ml.base_solve_s", base);
            v.insert("ml.uncontract_s", uncontract);
            v.insert("ml.refine_s", refine);
            v.insert("ml.final_sweep_s", sweep);
            v.insert("ml.final_comm_s", comm);
            v.insert("ml.refine_phases", sum.refine_phases as f64);
            v.insert("ml.refine_share", refine / total_s("solve"));
            let stats = sum.coarsen_stats;
            v.insert("ml.coarsen_rounds", stats.rounds as f64);
            v.insert("ml.coarsen_contractions", stats.contractions as f64);
            v.insert(
                "ml.coarsen_tail_share",
                stats.tail_contractions as f64 / stats.contractions.max(1) as f64,
            );
            // Rows whose schedule leaves every node on one processor.
            let one_proc = last
                .iter()
                .flatten()
                .filter(|a| {
                    let procs = &a.schedule.assignment.proc;
                    procs.iter().all(|&p| p == procs[0])
                })
                .count();
            v.insert("ml.one_proc_rows", one_proc as f64);
        } else {
            v.insert("pipeline.run_s", total_s("solve"));
            for (metric, span) in [
                ("pipeline.phase_s.BSPg", "BSPg"),
                ("pipeline.phase_s.Source", "Source"),
                ("pipeline.phase_s.init_schedule", "init_schedule"),
                ("pipeline.phase_s.hc", "hc"),
                ("pipeline.phase_s.hccs", "hccs"),
            ] {
                v.insert(metric, total_s(span));
            }
            // `hc` gets 90 % of the 5 s local-search budget per branch.
            let limit_ns = (PipelineConfig::heuristics_only()
                .hill_climb
                .time_limit
                .as_nanos() as f64
                * 0.9
                * 0.95) as u64;
            let at_limit = rec.count_at_least("hc", limit_ns);
            time_limited += at_limit;
            if at_limit > 0 {
                out.fail(format!(
                    "{at_limit} row(s) time-limited: an hc phase ran to its limit"
                ));
            }
        }
        micro::solve_pass(kind, &setup, &last, args.seed, v);
        write_trace(&args.workload, &[rec], &mut out.notes);
    }
    values.insert("solve.time_limited_rows", time_limited as f64);
    out.notes.push(format!("time_limited_rows {time_limited}"));
    values.insert("peak_rss_mb", peak_rss_mb());
    out.values = values;
    out
}
