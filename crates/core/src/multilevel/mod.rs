//! The multilevel (coarsen–solve–refine) scheduler of §4.5 / Figure 4,
//! implemented *incrementally* end to end.
//!
//! The DAG is first coarsened by repeated acyclic edge contractions
//! ([`coarsen`]), the base pipeline of Figure 3 (without `ILPcs`) schedules
//! the coarse DAG, and the contraction steps are then undone in reverse
//! order, running a bounded `HC` refinement after every few uncontractions.
//! Finally `HCcs` and `ILPcs` optimize the communication schedule of the
//! fully uncoarsened solution, since the coarse DAG only over-estimates
//! communication volumes.
//!
//! ## The funnel reduction comes first
//!
//! [`MultilevelScheduler::run_report`] contracts the DAG along its funnels
//! ([`crate::funnel`]) once, races the whole portfolio described below on the
//! funnel DAG and projects the winner (and every ratio's schedule) back.  The
//! reduction is exact, so "the DAG" in the rest of this page is the funnel
//! DAG and every cost on it is the cost on the caller's.  Two things still
//! refer to the caller's DAG: a ratio's target is a fraction of *its* node
//! count, and a ratio whose target the funnel DAG has already reached is not
//! run — on `spmv`, where the reduction leaves a tenth of the nodes, the flat
//! member is then the whole portfolio
//! ([`MultilevelReport::used_base_only`]).  The reduction's seconds are
//! counted into [`MultilevelReport::coarsen_seconds`];
//! [`MultilevelReport::funnel_nodes`] says what it left.
//!
//! ## One coarsening, one portfolio
//!
//! As in the paper, the scheduler is run for several coarsening ratios
//! (30 % and 15 % by default) and the cheapest resulting schedule is kept.
//! One solve does each piece of that work once:
//!
//! * **A shared contraction log.**  The DAG is coarsened once, to the deepest
//!   target, and every ratio works at its own level of that one log.  The
//!   coarsener is deterministic and reads its target only to decide when to
//!   stop — the tail pool never looks at it, and a batch round the target
//!   truncates claims a prefix of the untruncated round's canonical walk — so
//!   the log of a shallower target is a prefix of the log of a deeper one and
//!   each ratio sees exactly the coarse DAG a coarsening of its own would
//!   have produced.  A ratio's coarse [`Dag`] comes from walking one
//!   [`Clustering`] back up the log before the portfolio forks; its
//!   [`bsp_model::QuotientDag`] is derived lazily (a copy of the deepest
//!   level, uncontracted to the ratio's own) and only when the ratio
//!   refines at all.
//! * **A trivial base schedule is a fixed point.**  When the base pipeline
//!   puts every cluster on one processor in one superstep, no refinement
//!   phase of the uncoarsening walk can accept a move (see
//!   `trivial_is_a_fixed_point` for the argument), so such a ratio answers with
//!   the trivial schedule directly: no quotient, no [`IncrementalRefiner`],
//!   no walk.
//! * **The flat pipeline is a member.**  Next to the ratios the portfolio
//!   runs the base pipeline on the uncoarsened DAG ([`Member::Flat`]), so a
//!   multilevel solve never returns worse than `Pipeline` alone — outside the
//!   communication-dominated regime of §7.3 coarsening tends to lose to it.
//!   The flat member is also where the pipeline's trivial-schedule floor
//!   enters: it is [`Pipeline::run_report`] from the branch search on (the
//!   reduction is already done), so the solve never costs more than the
//!   one-processor schedule.  The ratios base-solve their coarse
//!   DAGs through [`Pipeline::run_report_on_prefix`], at the width of the
//!   cheapest swept initial schedule of the *uncoarsened* (funnel) DAG and
//!   without the floor — a coarse DAG over-states communication, so a sweep
//!   on it narrows and a floor under it ends ratios that refinement still
//!   wins.
//!   The cheapest member wins, ties going to the earlier one (the ratios in
//!   configured order, then the flat pipeline).  A ratio whose schedule turns
//!   out infeasible is dropped from the race and named in
//!   [`MultilevelReport::failed`] instead of taking the solve down.
//!
//! The members are independent once the log exists and run on
//! `min(thread budget, members)` lanes, each lane taking the next member
//! that has not started: three members at a budget of two keep two cores
//! busy.
//!
//! ## The incremental engine
//!
//! Both halves of the outer loop are incremental:
//!
//! * **Coarsening** ([`coarsen`] / [`coarsen_with`]) is *round-based batch
//!   contraction* on the persistent [`bsp_model::QuotientDag`]: each round
//!   scans every active cluster for its minimum-rank contractable out-edge,
//!   selects an endpoint-disjoint batch in the paper's canonical order, and
//!   applies the whole batch with one rank re-anchoring — flat candidate
//!   arrays, no `BTreeSet`, no per-contraction pool repair.  [`CoarsenStats`]
//!   (rounds, batch widths, conflicts, phase times) surfaces through
//!   [`MultilevelReport::coarsen_stats`] into the bench reports.
//! * **Uncoarsening** hands the same `QuotientDag` to the
//!   [`IncrementalRefiner`], which keeps one warm
//!   [`crate::hill_climb::HcState`] across all refinement phases: every
//!   uncontraction is an `O(deg)` split patch (one cluster becomes two at the
//!   same processor/superstep) and every phase is a work-list search seeded
//!   with only the nodes the splits actually disturbed.  Per-phase cost is
//!   `O(local change)`; the old implementation rebuilt the quotient DAG,
//!   re-projected the assignment, and reconstructed the search state from
//!   scratch — `O(n + m)` — for every phase.
//!
//! `exp_multilevel --speedup` times the scheduler and writes
//! `BENCH_multilevel.json`.

mod coarsen;
mod engine;

pub(crate) use coarsen::quotient_of;
pub use coarsen::{
    coarsen, coarsen_with, BatchCoarsener, Clustering, CoarsenConfig, CoarsenStats, Coarsening,
    Contraction,
};
pub use engine::IncrementalRefiner;

use crate::funnel::Funnel;
use crate::hill_climb::{hccs_improve, HillClimbConfig};
use crate::ilp::ilp_cs_improve;
use crate::pipeline::{swept_width, Pipeline, PipelineConfig};
use crate::Scheduler;
use bsp_model::{Assignment, BspSchedule, Dag, Machine, NodeId, QuotientDag, ValidityError};
use std::fmt;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Configuration of the multilevel scheduler.
#[derive(Debug, Clone)]
pub struct MultilevelConfig {
    /// Coarsening ratios to try (fraction of the original node count the
    /// coarse DAG is reduced to).  The best resulting schedule is kept —
    /// the paper's `C_opt` variant of `{0.3, 0.15}`.
    pub coarsen_ratios: Vec<f64>,
    /// DAGs with fewer nodes than this are not coarsened at all; the base
    /// pipeline runs directly (the paper excludes the *tiny* dataset for the
    /// same reason).
    pub min_nodes_to_coarsen: usize,
    /// Number of uncontraction steps between two refinement phases (paper: 5).
    pub refine_interval: usize,
    /// Adaptive widening of the refinement interval: at an uncoarsening
    /// level with `a` active nodes, a phase runs every
    /// `max(refine_interval, a / refine_interval_scale)` uncontractions
    /// (`0` disables the scaling and keeps the fixed paper interval).  Near
    /// full size a refinement phase costs `O(dirty set)` but still pays
    /// fixed per-phase costs (superstep compaction when a step drained,
    /// queue management), so running one every 5 splits of a 10^5-node DAG
    /// spends the tail of the solve on phase overhead; scaling the interval
    /// with the level size keeps the *number* of phases per doubling
    /// constant instead.  The accumulated dirty set still seeds the next
    /// phase in full, and the final full sweep is unaffected.
    ///
    /// The default (512) comes from sweeping the 10^4-node bench set:
    /// smaller scales (64–256) run fewer, larger phases and are 2–3x
    /// faster still, but let the final cost drift up to ~1.25x the
    /// non-adaptive result on the hardest cg/numa rows; 512 keeps every
    /// bench row within 1.05x while retaining most of the speedup.
    pub refine_interval_scale: usize,
    /// Coarsen-depth floor: never coarsen below this many clusters, even if
    /// `coarsen_ratios` asks for fewer (`0` disables).  Marginal analysis of
    /// the measured phase timings: one more contraction saves base-solve
    /// work proportional to the coarse size `t` (the base pipeline's sweeps
    /// are superlinear) but costs a fixed amount of uncontraction +
    /// refinement work, so below some absolute `t*` further coarsening is a
    /// net loss — an absolute floor, not a ratio.
    pub min_coarse_nodes: usize,
    /// Maximum number of accepted `HC` moves per refinement phase (paper: 100).
    pub refine_max_steps: usize,
    /// Time limit for each refinement phase.
    pub refine_time_limit: Duration,
    /// Configuration of the base pipeline used on the coarse DAG.  Its
    /// `use_ilp_cs` flag is forced off (Figure 4 runs `ILPcs` only after
    /// uncoarsening).
    pub base: PipelineConfig,
    /// Time limit of the final `HCcs` pass on the uncoarsened DAG.
    pub final_comm_time_limit: Duration,
    /// Total thread budget of one multilevel solve: the portfolio (one
    /// member per ratio plus the flat pipeline) runs on
    /// `min(threads, members)` lanes and each member gets `threads / lanes`
    /// for its base pipeline's branch fan-out, so the whole solve never uses
    /// more than `threads` cores.  Nothing below a whole solve reads it, so
    /// the schedule is the same for every budget.  `0` (the default) budgets
    /// one thread per available core; `1` runs everything — portfolio
    /// included — sequentially, which is what a serving worker with a
    /// one-core budget wants.
    pub threads: usize,
}

impl Default for MultilevelConfig {
    fn default() -> Self {
        MultilevelConfig {
            coarsen_ratios: vec![0.3, 0.15],
            min_nodes_to_coarsen: 30,
            refine_interval: 5,
            refine_interval_scale: 512,
            min_coarse_nodes: 0,
            refine_max_steps: 100,
            refine_time_limit: Duration::from_millis(500),
            base: PipelineConfig::default(),
            final_comm_time_limit: Duration::from_secs(2),
            threads: 0,
        }
    }
}

impl MultilevelConfig {
    /// A small configuration suitable for unit tests and quick experiments.
    pub fn fast() -> Self {
        MultilevelConfig {
            coarsen_ratios: vec![0.3, 0.15],
            min_nodes_to_coarsen: 30,
            refine_interval: 5,
            refine_interval_scale: 512,
            min_coarse_nodes: 0,
            refine_max_steps: 50,
            refine_time_limit: Duration::from_millis(100),
            base: PipelineConfig::fast(),
            final_comm_time_limit: Duration::from_millis(200),
            threads: 0,
        }
    }

    /// Uses a single coarsening ratio (the paper's `C15` / `C30` variants).
    pub fn with_single_ratio(mut self, ratio: f64) -> Self {
        self.coarsen_ratios = vec![ratio];
        self
    }

    /// Sets the solve-wide thread budget (see [`MultilevelConfig::threads`])
    /// and returns the configuration.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the coarsen-depth floor (see [`MultilevelConfig::min_coarse_nodes`])
    /// and returns the configuration.  Deadline-bound serving requests use
    /// this to cap how deep — and therefore how long — coarsening runs.
    pub fn with_min_coarse_nodes(mut self, min_coarse_nodes: usize) -> Self {
        self.min_coarse_nodes = min_coarse_nodes;
        self
    }

    /// The concrete thread budget: `threads`, or one per available core when
    /// `0`.
    pub fn effective_threads(&self) -> usize {
        crate::resolve_threads(self.threads)
    }
}

/// Wall-clock breakdown of one coarsening-ratio run, by phase.  This is what
/// makes a refinement-dominated tail (the regime where multilevel speedup
/// decays on large instances) diagnosable from a bench row instead of a
/// profiler session.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimings {
    /// Coarsening.  In a [`RatioOutcome`]: bringing the shared contraction
    /// log to this ratio's level (the solve's one coarsening run is
    /// [`MultilevelReport::coarsen_seconds`]).
    pub coarsen_seconds: f64,
    /// Building the coarse DAG and running the base pipeline on it.
    pub base_solve_seconds: f64,
    /// Undoing contractions (split patches), across all levels.
    pub uncontract_seconds: f64,
    /// The dirty-seeded interleaved refinement phases (excludes the final
    /// full sweep).
    pub refine_seconds: f64,
    /// Number of interleaved refinement phases that ran.
    pub refine_phases: usize,
    /// `HC` moves the refinement phases and the final sweep accepted.
    pub refine_moves: usize,
    /// The final full refinement sweep over the uncoarsened DAG.
    pub final_sweep_seconds: f64,
    /// The final communication-schedule optimization (`HCcs` + optional
    /// `ILPcs`).
    pub final_comm_seconds: f64,
    /// Round/batch counters of the batch coarsener (see [`CoarsenStats`]);
    /// zero in a [`RatioOutcome`], whose ratio shares the solve's one log.
    pub coarsen_stats: CoarsenStats,
}

impl PhaseTimings {
    /// Element-wise sum (for aggregating a portfolio's runs).
    pub fn add(&mut self, other: &PhaseTimings) {
        self.coarsen_seconds += other.coarsen_seconds;
        self.base_solve_seconds += other.base_solve_seconds;
        self.uncontract_seconds += other.uncontract_seconds;
        self.refine_seconds += other.refine_seconds;
        self.refine_phases += other.refine_phases;
        self.refine_moves += other.refine_moves;
        self.final_sweep_seconds += other.final_sweep_seconds;
        self.final_comm_seconds += other.final_comm_seconds;
        self.coarsen_stats.add(&other.coarsen_stats);
    }
}

/// A member of the portfolio one multilevel solve races.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Member {
    /// Coarsen to this ratio of the node count, solve, uncoarsen and refine.
    Ratio(f64),
    /// The base pipeline on the uncoarsened DAG.
    Flat,
}

impl fmt::Display for Member {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Member::Ratio(ratio) => write!(f, "ratio {ratio}"),
            Member::Flat => write!(f, "flat"),
        }
    }
}

/// Why a ratio member dropped out of the race.
#[derive(Debug, Clone, PartialEq)]
pub enum MemberError {
    /// The base schedule is not feasible over the coarse DAG under the lazy
    /// communication schedule, so refinement could not start from it.
    InfeasibleBase(ValidityError),
    /// The uncoarsened, refined schedule failed [`BspSchedule::validate`].
    InvalidSchedule(ValidityError),
}

impl fmt::Display for MemberError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemberError::InfeasibleBase(err) => write!(f, "infeasible base schedule: {err}"),
            MemberError::InvalidSchedule(err) => write!(f, "invalid final schedule: {err}"),
        }
    }
}

impl std::error::Error for MemberError {}

/// A member that produced no schedule, and why.
#[derive(Debug, Clone, PartialEq)]
pub struct MemberFailure {
    /// The member that was dropped.
    pub member: Member,
    /// What went wrong.
    pub error: MemberError,
}

/// Result of one coarsening-ratio run inside the multilevel scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct RatioOutcome {
    /// Coarsening ratio used.
    pub ratio: f64,
    /// Number of clusters the DAG was coarsened to.
    pub coarse_nodes: usize,
    /// Cost of the final (uncoarsened, refined) schedule of this run.
    pub cost: u64,
    /// The base pipeline left every cluster on one processor: the
    /// one-processor collapse was decided in the base solve, not by
    /// refinement draining a processor.
    pub base_one_proc: bool,
    /// The base schedule is the trivial one — one processor *and* one
    /// superstep.  Unless the coarse DAG has an edge-free cluster the run
    /// then skipped the uncoarsening walk (see the module docs).
    pub base_trivial: bool,
    /// Where this run's wall-clock went.
    pub timings: PhaseTimings,
    /// The final schedule of this run.
    pub schedule: BspSchedule,
}

/// Cost and wall-clock of the flat member.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlatOutcome {
    /// Cost of the base pipeline's schedule of the uncoarsened DAG, after the
    /// final communication-schedule optimization.
    pub cost: u64,
    /// Wall-clock of the member.
    pub seconds: f64,
}

/// Report of a multilevel run.
#[derive(Debug, Clone)]
pub struct MultilevelReport {
    /// One entry per coarsening ratio that produced a schedule, in configured
    /// order (empty when the DAG was too small to coarsen).
    pub ratio_outcomes: Vec<RatioOutcome>,
    /// `true` if no ratio ran — the DAG is too small to coarsen, or the
    /// funnel reduction had already reached every ratio's target: the flat
    /// member was the whole portfolio.
    pub used_base_only: bool,
    /// Node count of the DAG the portfolio raced on: what the funnel
    /// reduction ([`crate::funnel`]) left of the caller's DAG, `dag.n()` when
    /// nothing contracted.
    pub funnel_nodes: usize,
    /// The member whose schedule was selected.
    pub winner: Member,
    /// The flat member's result; `None` when it was skipped because the
    /// cancel token had fired by the time its turn came.
    pub flat: Option<FlatOutcome>,
    /// Ratio members that were dropped because their schedule was
    /// infeasible.
    pub failed: Vec<MemberFailure>,
    /// Wall-clock of the funnel reduction (contraction and projection) plus
    /// the one coarsening run every ratio shares.
    pub coarsen_seconds: f64,
    /// Round/batch counters of that run.
    pub coarsen_stats: CoarsenStats,
    /// Cost of the selected schedule.
    pub final_cost: u64,
    /// The selected schedule.
    pub schedule: BspSchedule,
}

impl MultilevelReport {
    /// Phase timings of the shared coarsening plus the portfolio's ratio runs
    /// (CPU-time-like: parallel ratio runs overlap on the wall clock).  The
    /// flat member's seconds are in [`MultilevelReport::flat`].
    pub fn total_timings(&self) -> PhaseTimings {
        let mut total = PhaseTimings {
            coarsen_seconds: self.coarsen_seconds,
            coarsen_stats: self.coarsen_stats,
            ..PhaseTimings::default()
        };
        for outcome in &self.ratio_outcomes {
            total.add(&outcome.timings);
        }
        total
    }
}

/// One ratio's level of the shared contraction log.
struct Level {
    ratio: f64,
    /// Length of the log prefix that leads to this level.
    contractions: usize,
    coarse_dag: Dag,
    /// `reps[i]` is the original node representing coarse node `i`.
    reps: Vec<NodeId>,
    /// What the level has cost so far: walking the clustering up to it
    /// (`coarsen_seconds`) and building `coarse_dag` (`base_solve_seconds`).
    timings: PhaseTimings,
}

/// The quotient side of the shared contraction log, positioned at the deepest
/// level, with the number of ratio members that have not yet said whether
/// they need it.  Every ratio member calls [`SharedLog::level`] exactly once;
/// the last one to ask takes the quotient instead of copying it, so a solve
/// holds at most one quotient per running member plus this one, and none at
/// all once every base schedule turned out trivial.
struct SharedLog {
    slot: Mutex<(Option<QuotientDag>, usize)>,
    /// Wall-clock and counters of the one coarsening run behind the log.
    coarsen_seconds: f64,
    coarsen_stats: CoarsenStats,
}

impl SharedLog {
    /// The quotient after the first `contractions` steps of the log, or
    /// `None` for a member that does not refine.
    fn level(&self, contractions: Option<usize>) -> Option<QuotientDag> {
        let held = {
            let mut slot = self.slot.lock().expect("no member panics inside the log");
            slot.1 = slot.1.saturating_sub(1);
            if slot.1 == 0 {
                slot.0.take()
            } else if contractions.is_some() {
                slot.0.clone()
            } else {
                None
            }
        };
        // A member that does not refine drops what it holds: nothing, or —
        // as the last one to ask — the quotient itself.
        let contractions = contractions?;
        let mut quotient = held.expect("the log keeps the quotient until its last member asked");
        while quotient.num_contractions() > contractions {
            quotient.uncontract_one();
        }
        Some(quotient)
    }
}

/// What a lane hands back for one member.
enum Ran {
    Ratio(Result<RatioOutcome, MemberFailure>),
    /// `None`: skipped, the cancel token had fired.
    Flat(Option<(BspSchedule, FlatOutcome)>),
}

/// Whether the uncoarsening walk cannot improve the *trivial* schedule of
/// `coarse_dag` — every coarse node on one processor in one superstep.  It
/// cannot, unless a coarse node has no edge.
///
/// This is exact, not a heuristic.  A split puts both halves where the merged
/// cluster was, so at every finer level the schedule is still the trivial
/// one.  A refinement phase moves a single node `v` to one of `3·P`
/// destinations and accepts only a strict gain.  If `v` has a neighbour, that
/// neighbour shares `v`'s processor and superstep, so
///
/// * another processor in the same superstep is invalid — the value crossing
///   the edge would have to be sent and received within one superstep;
/// * a new superstep, on any processor, costs one more latency `ℓ` and, off
///   the processor, the communication across every edge of `v`, and saves no
///   work: the one processor's `W − w(v)` in the old superstep plus `w(v)` in
///   the new one is the `W` paid before.
///
/// No move gains, none is accepted, and the schedule the walk ends with is
/// the trivial one it started from.  The condition on edges is what carries
/// the induction down the levels: a contraction follows an edge, so the two
/// halves of a split are neighbours and every other node keeps a neighbour in
/// one half or the other.  A coarse node *without* an edge — an edge-free
/// node of the DAG, which contraction never merges, or a whole component
/// contracted into one cluster — can move to an idle processor within the
/// superstep for a work gain, so a coarse DAG that has one takes the normal
/// walk.  So does a one-processor base schedule with several supersteps:
/// merging two of them is a gain the argument above does not rule out.
fn trivial_is_a_fixed_point(coarse_dag: &Dag) -> bool {
    (0..coarse_dag.n()).all(|v| coarse_dag.in_degree(v) + coarse_dag.out_degree(v) > 0)
}

/// The multilevel scheduler (Figure 4).
#[derive(Debug, Clone, Default)]
pub struct MultilevelScheduler {
    config: MultilevelConfig,
}

impl MultilevelScheduler {
    /// Creates a multilevel scheduler with the given configuration.
    pub fn new(config: MultilevelConfig) -> Self {
        MultilevelScheduler { config }
    }

    /// The configuration this scheduler runs with.
    pub fn config(&self) -> &MultilevelConfig {
        &self.config
    }

    /// Runs the multilevel scheduler and returns the final schedule.
    pub fn run(&self, dag: &Dag, machine: &Machine) -> BspSchedule {
        self.run_report(dag, machine).schedule
    }

    /// Runs the multilevel scheduler — funnel reduction, the portfolio on the
    /// funnel DAG, projection back onto `dag` — and returns the schedule
    /// together with per-member statistics.
    pub fn run_report(&self, dag: &Dag, machine: &Machine) -> MultilevelReport {
        let clock = Instant::now();
        let funnel = Funnel::contract(dag, machine.p());
        let contract_seconds = clock.elapsed().as_secs_f64();
        let solved = funnel.as_ref().map_or(dag, Funnel::dag);

        let targets = self.ratio_targets(dag.n(), solved.n());
        // The base pipeline inherits this solve's thread budget, split over
        // the lanes the portfolio runs on.  Without this the members would
        // fan their init branches out to available_parallelism underneath
        // whatever budget the caller set.
        let budget = self.config.effective_threads();
        let lanes = budget.min(targets.len() + 1).max(1);
        let base_pipeline = Pipeline::new(PipelineConfig {
            use_ilp_cs: false,
            ..self.config.base.clone().with_thread_budget(budget / lanes)
        });
        // A coarse DAG over-states communication: judged on it, the
        // pipeline's width sweep would narrow and its floor would win too
        // early.  So the width is worked out once, on the funnel DAG (which
        // is exact), the ratio members base-solve at that width without the
        // floor (their own fixed-point exit covers a base solve that *finds*
        // the trivial schedule), and the flat member is the pipeline as it
        // stands.  Without ratio members nobody reads it.
        let width = if targets.is_empty() {
            machine.p()
        } else {
            swept_width(solved, machine)
        };
        let mut report = self.race(
            solved,
            machine,
            &targets,
            &|coarse: &Dag| {
                base_pipeline
                    .run_report_on_prefix(coarse, machine, width)
                    .schedule
            },
            &|| base_pipeline.run_reduced(solved, machine, None).schedule,
        );

        let clock = Instant::now();
        if let Some(funnel) = &funnel {
            report.schedule = funnel.project(&report.schedule);
            for outcome in &mut report.ratio_outcomes {
                outcome.schedule = funnel.project(&outcome.schedule);
            }
        }
        // The reduction is a coarsening step, and counting it there keeps
        // the six phase names tiling the solve.
        report.coarsen_seconds += contract_seconds + clock.elapsed().as_secs_f64();
        debug_assert!(report.schedule.validate(dag, machine).is_ok());
        debug_assert_eq!(report.final_cost, report.schedule.cost(dag, machine));
        report
    }

    /// The ratio members of a solve: every configured ratio with the number
    /// of clusters it asks for — a fraction of `fine_nodes`, the node count
    /// *before* the funnel reduction, which left `funnel_nodes`.  A DAG too
    /// small to coarsen has none, and a ratio whose target the reduction has
    /// already reached is not run.  (Targets taken from the funnel DAG's own
    /// size would send the 10–16 k-cluster funnel DAGs of `ml_kernels` deep
    /// into the coarsener's sequential tail: `ml.coarsen_s` 1.4 s against
    /// 0.31 s.)
    fn ratio_targets(&self, fine_nodes: usize, funnel_nodes: usize) -> Vec<(f64, usize)> {
        if fine_nodes < self.config.min_nodes_to_coarsen {
            return Vec::new();
        }
        // Coarsen-depth policy: the ratio's target, floored by
        // `min_coarse_nodes` — past that point one more contraction costs
        // more projected uncontraction/refinement work than it saves in the
        // base solve (see the config field's docs).
        let target = |ratio: f64| {
            ((fine_nodes as f64 * ratio).round() as usize)
                .max(self.config.min_coarse_nodes)
                .clamp(2, fine_nodes.saturating_sub(1).max(2))
        };
        let ratios = self.config.coarsen_ratios.iter();
        ratios
            .map(|&ratio| (ratio, target(ratio)))
            .filter(|&(_, target)| target < funnel_nodes)
            .collect()
    }

    /// Runs the portfolio — one member per ratio, then the flat pipeline —
    /// with `base_solve` scheduling the coarse DAGs and `flat_solve` the DAG
    /// itself, and keeps the cheapest answer.  `targets` are the ratio
    /// members ([`Self::ratio_targets`]).
    fn race<B, F>(
        &self,
        dag: &Dag,
        machine: &Machine,
        targets: &[(f64, usize)],
        base_solve: &B,
        flat_solve: &F,
    ) -> MultilevelReport
    where
        B: Fn(&Dag) -> BspSchedule + Sync,
        F: Fn() -> BspSchedule + Sync,
    {
        let (log, levels) = self.shared_log(dag, targets);
        // The portfolio in the order ties are broken: the ratios' levels, then
        // `None` for the flat member.
        let members: Vec<Option<&Level>> = levels.iter().map(Some).chain([None]).collect();
        let results =
            crate::map_within_budget(self.config.effective_threads(), &members, |member| {
                match member {
                    Some(level) => {
                        Ran::Ratio(self.run_ratio(dag, machine, base_solve, &log, level))
                    }
                    None => Ran::Flat(self.run_flat(dag, machine, flat_solve, false)),
                }
            });

        let mut ratio_outcomes = Vec::new();
        let mut failed = Vec::new();
        let mut flat_run = None;
        for result in results {
            match result {
                Ran::Ratio(Ok(outcome)) => ratio_outcomes.push(outcome),
                Ran::Ratio(Err(failure)) => failed.push(failure),
                Ran::Flat(run) => flat_run = run,
            }
        }
        if ratio_outcomes.is_empty() && flat_run.is_none() {
            // A cancelled solve skips the flat member to answer sooner, but
            // not when nothing else answered.
            flat_run = self.run_flat(dag, machine, flat_solve, true);
        }
        // `min_by_key` keeps the first of equal minima and the flat member
        // has to be strictly cheaper: ties go to the earlier member.
        let best_ratio = ratio_outcomes.iter().min_by_key(|o| o.cost);
        let flat = flat_run.as_ref().map(|&(_, outcome)| outcome);
        let (winner, final_cost, schedule) = match (best_ratio, flat_run) {
            (Some(best), Some((schedule, flat))) if flat.cost < best.cost => {
                (Member::Flat, flat.cost, schedule)
            }
            (Some(best), _) => (Member::Ratio(best.ratio), best.cost, best.schedule.clone()),
            (None, Some((schedule, flat))) => (Member::Flat, flat.cost, schedule),
            (None, None) => unreachable!("the flat member ran as the last resort"),
        };
        MultilevelReport {
            ratio_outcomes,
            used_base_only: levels.is_empty(),
            funnel_nodes: dag.n(),
            winner,
            flat,
            failed,
            coarsen_seconds: log.coarsen_seconds,
            coarsen_stats: log.coarsen_stats,
            final_cost,
            schedule,
        }
    }

    /// Coarsens once, to the deepest of the ratios' targets, and derives
    /// every ratio's coarse DAG from that one log (see the module docs for
    /// why a shallower target's log is a prefix of it).
    fn shared_log(&self, dag: &Dag, targets: &[(f64, usize)]) -> (SharedLog, Vec<Level>) {
        let Some(deepest) = targets.iter().map(|&(_, target)| target).min() else {
            let log = SharedLog {
                slot: Mutex::new((None, 0)),
                coarsen_seconds: 0.0,
                coarsen_stats: CoarsenStats::default(),
            };
            return (log, Vec::new());
        };
        let clock = Instant::now();
        let coarsening = coarsen(dag, deepest);
        let coarsen_seconds = clock.elapsed().as_secs_f64();
        let coarsen_stats = coarsening.stats;
        let (mut clustering, quotient) = coarsening.into_parts();

        // The clustering walks back *up* the log, so the levels are built
        // deepest first and handed out in configured order.
        let mut order: Vec<usize> = (0..targets.len()).collect();
        order.sort_by_key(|&i| targets[i].1);
        let mut levels: Vec<Option<Level>> = targets.iter().map(|_| None).collect();
        for i in order {
            let (ratio, target) = targets[i];
            let mut timings = PhaseTimings::default();
            let clock = Instant::now();
            while clustering.num_clusters() < target && clustering.uncontract_one() {}
            timings.coarsen_seconds = clock.elapsed().as_secs_f64();
            // The one from-scratch quotient build of a ratio's run: the base
            // pipeline's schedulers want an immutable `Dag`.
            let clock = Instant::now();
            let (coarse_dag, reps) = clustering.quotient_dag(dag);
            timings.base_solve_seconds = clock.elapsed().as_secs_f64();
            levels[i] = Some(Level {
                ratio,
                contractions: clustering.num_contractions(),
                coarse_dag,
                reps,
                timings,
            });
        }
        let log = SharedLog {
            slot: Mutex::new((Some(quotient), targets.len())),
            coarsen_seconds,
            coarsen_stats,
        };
        let levels = levels
            .into_iter()
            .map(|level| level.expect("every ratio got its level"))
            .collect();
        (log, levels)
    }

    /// One ratio member: base-solve the ratio's coarse DAG, then uncoarsen
    /// and refine — or answer directly when the base schedule is a fixed
    /// point of that walk.
    fn run_ratio<B>(
        &self,
        dag: &Dag,
        machine: &Machine,
        base_solve: &B,
        log: &SharedLog,
        level: &Level,
    ) -> Result<RatioOutcome, MemberFailure>
    where
        B: Fn(&Dag) -> BspSchedule,
    {
        let failure = |error| MemberFailure {
            member: Member::Ratio(level.ratio),
            error,
        };
        let mut timings = level.timings;
        let clock = Instant::now();
        let coarse_schedule = base_solve(&level.coarse_dag);
        timings.base_solve_seconds += clock.elapsed().as_secs_f64();
        let base = &coarse_schedule.assignment;
        let all_equal = |values: &[usize]| values.iter().all(|&v| v == values[0]);
        let base_one_proc = all_equal(&base.proc);
        let base_trivial = base_one_proc && all_equal(&base.superstep);
        let walks = !(base_trivial && trivial_is_a_fixed_point(&level.coarse_dag));

        let clock = Instant::now();
        let quotient = log.level(walks.then_some(level.contractions));
        timings.coarsen_seconds += clock.elapsed().as_secs_f64();
        let assignment = match quotient {
            Some(quotient) => self
                .uncoarsen(
                    machine,
                    quotient,
                    &level.reps,
                    &coarse_schedule,
                    &mut timings,
                )
                .map_err(|err| failure(MemberError::InfeasibleBase(err)))?,
            None => Assignment {
                proc: vec![base.proc.first().copied().unwrap_or(0); dag.n()],
                superstep: vec![0; dag.n()],
            },
        };

        let mut schedule = BspSchedule::from_assignment_lazy(dag, assignment);
        schedule.normalize(dag);
        let clock = Instant::now();
        self.final_comm_optimization(dag, machine, &mut schedule);
        timings.final_comm_seconds = clock.elapsed().as_secs_f64();
        // A broken uncoarsening projection must not ship silently in release
        // builds: validate the one final schedule of this member.
        schedule
            .validate(dag, machine)
            .map_err(|err| failure(MemberError::InvalidSchedule(err)))?;
        Ok(RatioOutcome {
            ratio: level.ratio,
            coarse_nodes: level.coarse_dag.n(),
            cost: schedule.cost(dag, machine),
            base_one_proc,
            base_trivial,
            timings,
            schedule,
        })
    }

    /// Threads `coarse_schedule` onto `quotient`'s representatives and undoes
    /// the contractions one by one, refining every `refine_interval` steps.
    ///
    /// The walk is fully incremental: the [`IncrementalRefiner`] keeps one
    /// warm hill-climbing state over the persistent quotient graph, so
    /// nothing is rebuilt between refinement phases.  Because every split
    /// places both halves at the merged cluster's processor and superstep,
    /// the engine's final assignment *is* the original-node assignment once
    /// uncoarsening completes — no member projection pass is needed either.
    fn uncoarsen(
        &self,
        machine: &Machine,
        quotient: QuotientDag,
        reps: &[NodeId],
        coarse_schedule: &BspSchedule,
        timings: &mut PhaseTimings,
    ) -> Result<Assignment, ValidityError> {
        use bsp_model::DagView;
        let n = quotient.n();
        let mut active = quotient.num_active();
        let mut proc = vec![0usize; n];
        let mut step = vec![0usize; n];
        for (i, &rep) in reps.iter().enumerate() {
            proc[rep] = coarse_schedule.proc(i);
            step[rep] = coarse_schedule.superstep(i);
        }
        let mut refiner = IncrementalRefiner::new(
            machine,
            quotient,
            Assignment {
                proc,
                superstep: step,
            },
        )?;

        // Uncontractions themselves always run to completion (the assignment
        // is only meaningful over the original node space once fully
        // uncoarsened); under cancellation the refinement phases between them
        // degenerate to no-ops, so the walk stays cheap.
        let refine_config = HillClimbConfig {
            time_limit: self.config.refine_time_limit,
            max_steps: self.config.refine_max_steps,
            cancel: self.config.base.effective_cancel(),
        };
        let mut since_refine = 0usize;
        loop {
            let clock = Instant::now();
            let more = refiner.uncontract_one().is_some();
            timings.uncontract_seconds += clock.elapsed().as_secs_f64();
            since_refine += 1;
            active += 1;
            if !more {
                // One global refinement pass over the fully uncoarsened DAG.
                let clock = Instant::now();
                timings.refine_moves += refiner.refine_full(&refine_config).steps;
                timings.final_sweep_seconds = clock.elapsed().as_secs_f64();
                break;
            }
            // Adaptive interval: one phase every `max(refine_interval,
            // active / refine_interval_scale)` splits (see the config docs)
            // — the split batch a phase absorbs grows with the level,
            // keeping the number of phases per size doubling constant.
            // `checked_div` doubles as the `scale == 0` disable switch.
            let interval = match active.checked_div(self.config.refine_interval_scale) {
                Some(scaled) => self.config.refine_interval.max(scaled),
                None => self.config.refine_interval,
            };
            if since_refine >= interval {
                let clock = Instant::now();
                timings.refine_moves += refiner.refine(&refine_config).steps;
                timings.refine_seconds += clock.elapsed().as_secs_f64();
                timings.refine_phases += 1;
                since_refine = 0;
            }
        }
        Ok(refiner.into_assignment())
    }

    /// The flat member: the base pipeline on the uncoarsened DAG plus the
    /// final communication-schedule optimization.  Skipped (`None`) when the
    /// cancel token has already fired, unless `last_resort`.
    fn run_flat<F>(
        &self,
        dag: &Dag,
        machine: &Machine,
        flat_solve: &F,
        last_resort: bool,
    ) -> Option<(BspSchedule, FlatOutcome)>
    where
        F: Fn() -> BspSchedule,
    {
        if !last_resort && self.config.base.effective_cancel().is_cancelled() {
            return None;
        }
        let clock = Instant::now();
        let mut schedule = flat_solve();
        self.final_comm_optimization(dag, machine, &mut schedule);
        let outcome = FlatOutcome {
            cost: schedule.cost(dag, machine),
            seconds: clock.elapsed().as_secs_f64(),
        };
        Some((schedule, outcome))
    }

    /// The communication-schedule optimization that Figure 4 runs after
    /// uncoarsening: `HCcs` followed by `ILPcs` (when the base pipeline has
    /// its ILP stage enabled).
    fn final_comm_optimization(&self, dag: &Dag, machine: &Machine, schedule: &mut BspSchedule) {
        let cancel = self.config.base.effective_cancel();
        let hccs_cfg = HillClimbConfig {
            time_limit: self.config.final_comm_time_limit,
            max_steps: usize::MAX,
            cancel: cancel.clone(),
        };
        hccs_improve(dag, machine, schedule, &hccs_cfg);
        if self.config.base.use_ilp {
            let ilp_config = crate::ilp::IlpConfig {
                cancel,
                ..self.config.base.ilp.clone()
            };
            ilp_cs_improve(dag, machine, schedule, &ilp_config);
        }
    }
}

impl Scheduler for MultilevelScheduler {
    fn name(&self) -> &'static str {
        "Multilevel"
    }

    fn schedule(&self, dag: &Dag, machine: &Machine) -> BspSchedule {
        self.run(dag, machine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::TrivialScheduler;
    use dag_gen::fine::{cg, spmv, IterConfig, SpmvConfig};

    fn fast_ml() -> MultilevelScheduler {
        MultilevelScheduler::new(MultilevelConfig::fast())
    }

    #[test]
    fn multilevel_returns_valid_schedules() {
        let dag = cg(&IterConfig {
            n: 12,
            density: 0.25,
            iterations: 2,
            seed: 5,
        });
        for machine in [
            Machine::uniform(4, 3, 5),
            Machine::numa_binary_tree(8, 1, 5, 4),
        ] {
            let report = fast_ml().run_report(&dag, &machine);
            assert!(report.schedule.validate(&dag, &machine).is_ok());
            assert_eq!(report.final_cost, report.schedule.cost(&dag, &machine));
        }
    }

    #[test]
    fn small_dags_fall_back_to_the_base_pipeline() {
        let dag = spmv(&SpmvConfig {
            n: 4,
            density: 0.4,
            seed: 2,
        });
        let machine = Machine::uniform(4, 1, 5);
        let report = fast_ml().run_report(&dag, &machine);
        assert!(report.used_base_only);
        assert!(report.ratio_outcomes.is_empty());
        assert!(report.schedule.validate(&dag, &machine).is_ok());
    }

    #[test]
    fn multilevel_tries_every_configured_ratio_and_keeps_the_best() {
        let dag = cg(&IterConfig {
            n: 10,
            density: 0.3,
            iterations: 2,
            seed: 9,
        });
        let machine = Machine::numa_binary_tree(8, 1, 5, 4);
        let report = fast_ml().run_report(&dag, &machine);
        assert!(!report.used_base_only);
        assert_eq!(report.ratio_outcomes.len(), 2);
        assert!(report.failed.is_empty());
        let flat = report.flat.expect("nothing cancelled the flat member");
        let min_ratio_cost = report.ratio_outcomes.iter().map(|o| o.cost).min().unwrap();
        assert_eq!(report.final_cost, min_ratio_cost.min(flat.cost));
        // Ties go to the earlier member: the ratios in order, then flat.
        let expected = report
            .ratio_outcomes
            .iter()
            .find(|o| o.cost == report.final_cost)
            .map_or(Member::Flat, |o| Member::Ratio(o.ratio));
        assert_eq!(report.winner, expected);
        for outcome in &report.ratio_outcomes {
            assert!(outcome.coarse_nodes < dag.n());
            assert_eq!(outcome.cost, outcome.schedule.cost(&dag, &machine));
        }
    }

    /// A base solver that splits the nodes of every coarse DAG over two
    /// processors inside one superstep — not feasible as soon as an edge
    /// crosses.
    fn infeasible_base_solve(d: &Dag) -> BspSchedule {
        BspSchedule {
            assignment: Assignment {
                proc: (0..d.n()).map(|v| v % 2).collect(),
                superstep: vec![0; d.n()],
            },
            comm: bsp_model::CommSchedule::empty(),
        }
    }

    /// The flat member's solver of the tests that replace the base solver.
    fn fast_flat<'a>(dag: &'a Dag, machine: &'a Machine) -> impl Fn() -> BspSchedule + Sync + 'a {
        let pipeline = Pipeline::new(PipelineConfig::fast());
        move || pipeline.run(dag, machine)
    }

    #[test]
    fn an_infeasible_base_schedule_drops_the_ratio_and_the_flat_member_answers() {
        let dag = cg(&IterConfig {
            n: 10,
            density: 0.3,
            iterations: 2,
            seed: 9,
        });
        let machine = Machine::uniform(4, 3, 5);
        let ml = fast_ml();
        let flat_solve = fast_flat(&dag, &machine);
        let report = ml.race(
            &dag,
            &machine,
            &ml.ratio_targets(dag.n(), dag.n()),
            &infeasible_base_solve,
            &flat_solve,
        );
        assert!(report.ratio_outcomes.is_empty());
        assert_eq!(report.failed.len(), 2);
        for (failure, &ratio) in report.failed.iter().zip(&ml.config.coarsen_ratios) {
            assert_eq!(failure.member, Member::Ratio(ratio));
            assert!(matches!(failure.error, MemberError::InfeasibleBase(_)));
        }
        assert_eq!(report.winner, Member::Flat);
        let flat = ml.run_flat(&dag, &machine, &flat_solve, false).unwrap();
        assert_eq!(report.schedule, flat.0);
        assert_eq!(report.final_cost, flat.1.cost);
        assert!(report.schedule.validate(&dag, &machine).is_ok());
    }

    #[test]
    fn a_cancelled_solve_whose_ratios_all_fail_still_answers() {
        let dag = cg(&IterConfig {
            n: 10,
            density: 0.3,
            iterations: 2,
            seed: 9,
        });
        let machine = Machine::uniform(4, 3, 5);
        let mut config = MultilevelConfig::fast();
        config.base.cancel = crate::CancelToken::new();
        config.base.cancel.cancel();
        let ml = MultilevelScheduler::new(config);
        let report = ml.race(
            &dag,
            &machine,
            &ml.ratio_targets(dag.n(), dag.n()),
            &infeasible_base_solve,
            &fast_flat(&dag, &machine),
        );
        assert_eq!(report.failed.len(), 2);
        assert_eq!(report.winner, Member::Flat);
        assert!(report.schedule.validate(&dag, &machine).is_ok());
    }

    #[test]
    fn the_fixed_point_exit_wants_one_superstep_and_no_edge_free_cluster() {
        let chain = Dag::from_edge_list_unit_weights(3, &[(0, 1), (1, 2)]).unwrap();
        assert!(trivial_is_a_fixed_point(&chain));
        // An edge-free node could move to an idle processor for a work gain.
        let with_loner = Dag::from_edge_list_unit_weights(3, &[(0, 1)]).unwrap();
        assert!(!trivial_is_a_fixed_point(&with_loner));

        // One processor but several supersteps: the normal walk.
        let dag = cg(&IterConfig {
            n: 10,
            density: 0.3,
            iterations: 2,
            seed: 9,
        });
        let machine = Machine::uniform(4, 3, 5);
        let ml = fast_ml();
        let flat_solve = fast_flat(&dag, &machine);
        let stepped = |d: &Dag| {
            let mut schedule = BspSchedule::trivial(d);
            for v in 0..d.n() {
                schedule.assignment.superstep[v] = usize::from(d.in_degree(v) > 0);
            }
            schedule
        };
        let report = ml.race(
            &dag,
            &machine,
            &ml.ratio_targets(dag.n(), dag.n()),
            &stepped,
            &flat_solve,
        );
        assert!(report.failed.is_empty(), "{:?}", report.failed);
        for outcome in &report.ratio_outcomes {
            assert!(outcome.base_one_proc && !outcome.base_trivial);
            assert!(outcome.timings.refine_phases > 0);
        }
        // The trivial base schedule itself takes the exit.
        let report = ml.race(
            &dag,
            &machine,
            &ml.ratio_targets(dag.n(), dag.n()),
            &BspSchedule::trivial,
            &flat_solve,
        );
        let trivial_cost = BspSchedule::trivial(&dag).cost(&dag, &machine);
        for outcome in &report.ratio_outcomes {
            assert!(outcome.base_trivial);
            assert_eq!(outcome.timings.refine_phases, 0);
            assert_eq!(outcome.cost, trivial_cost);
        }
    }

    #[test]
    fn multilevel_is_competitive_with_trivial_under_heavy_numa() {
        // A communication-heavy instance under an aggressive NUMA hierarchy:
        // the regime the multilevel scheduler was designed for (§7.3).  The
        // paper reports that the multilevel scheduler beats the trivial
        // single-processor schedule in almost all (but not literally all)
        // cases, so here we only require it to stay within a small factor of
        // the trivial cost — far below what a NUMA-oblivious spread-out
        // schedule would pay.
        let dag = cg(&IterConfig {
            n: 14,
            density: 0.3,
            iterations: 3,
            seed: 11,
        });
        let machine = Machine::numa_binary_tree(16, 1, 5, 4);
        let ml_cost = fast_ml().run(&dag, &machine).cost(&dag, &machine);
        let trivial_cost = TrivialScheduler
            .schedule(&dag, &machine)
            .cost(&dag, &machine);
        assert!(
            ml_cost <= trivial_cost.saturating_mul(3) / 2,
            "multilevel {ml_cost} far worse than trivial {trivial_cost}"
        );
    }

    #[test]
    fn single_ratio_configuration_runs_one_outcome() {
        // Not `spmv`: its funnel DAG is already below the ratio's target.
        let dag = cg(&IterConfig {
            n: 10,
            density: 0.3,
            iterations: 2,
            seed: 4,
        });
        let machine = Machine::uniform(4, 5, 5);
        let ml = MultilevelScheduler::new(MultilevelConfig::fast().with_single_ratio(0.3));
        let report = ml.run_report(&dag, &machine);
        assert_eq!(report.ratio_outcomes.len(), 1);
        assert!((report.ratio_outcomes[0].ratio - 0.3).abs() < 1e-9);
    }
}
