//! The combined scheduling framework of Figure 3 of the paper.
//!
//! The pipeline runs both initialization heuristics (`BSPg`, `Source`),
//! improves each candidate independently with the `HC` local search, keeps
//! the cheapest schedule found this way and optimises its communication
//! schedule with `HCcs`.  The paper's ILP stage after it (`ILPfull` /
//! `ILPpart` / `ILPcs`) and its third initializer `ILPinit` are not here:
//! over the repository's own solver they never moved a cost and were deleted
//! (README, *ILP: a negative result*); `ILPcs` stays as the exact check on
//! `HCcs` ([`crate::ilp`]).
//!
//! The order of a run is funnel → per-branch sweep with source placement →
//! `HC` → floor → `HCcs`; everything around the paper's
//! `initializer → HC → HCcs` is this repository's own:
//!
//! * **The funnel reduction.**  [`Pipeline::run_report`] first contracts the
//!   DAG along its funnels ([`crate::funnel`]: every node whose successors
//!   all lie in one cluster joins it), runs everything below on the funnel
//!   DAG and projects the answer back.  The reduction is *exact* — every
//!   schedule of the funnel DAG is a schedule of the DAG at the identical
//!   cost — so the sweep and the floor judge the DAG that is being solved
//!   and are right to; a coarse node is the multi-node move single-node `HC`
//!   lacks.  It is a function of the DAG and `P`, not a setting: a DAG with
//!   nothing to contract is solved as it is
//!   ([`PipelineReport::funnel_nodes`] says what was left).
//! * **Source placement.**  On a funnel DAG the sources are most of the
//!   nodes, and neither `BSPg` (a source has no predecessor to score) nor
//!   `Source` (its own clustering) puts them where they are read.  Every
//!   initial schedule therefore goes through [`place_sources`], which moves
//!   each source next to its consumers without raising any superstep's work
//!   maximum and keeps the result only when it is strictly cheaper.
//! * **The placement-width sweep, per branch.**  `BSPg` and `Source` read
//!   neither `λ` nor `g`: they spread the DAG over all `P` processors, and
//!   single-node `HC` moves cannot pull such a schedule back together when
//!   communication is what it pays for.  So each heuristic branch builds its
//!   schedule on the machine's processor prefixes `P`, `P/2`, `P/4`, … ≥ 2
//!   ([`Machine::prefix`]; on a binary tree these are subtrees), places the
//!   sources and costs the result on the *full* machine, stops at the first
//!   width that does not lower the cost and starts from the cheapest, ties
//!   going to the wider — one sweep, generic over the initializer, judged on
//!   the schedule that branch's `HC` starts from.  `HC` and `HCcs` run on
//!   the full machine, free to move nodes onto the processors an initializer
//!   left idle.  The width is a result ([`BranchReport::width`],
//!   [`PipelineReport::placement_width`]), not a setting.
//! * **The trivial-schedule floor.**  The cheapest branch after `HC` meets
//!   [`BspSchedule::trivial`], which replaces it when strictly cheaper
//!   ([`trivial_floor`]), so the pipeline never answers with more than the
//!   one-processor cost.
//! * **`HCcs` once.**  Only a winner that survived the floor has its
//!   communication schedule optimised; the losing branches' would be thrown
//!   away, and the trivial schedule has none.
//!
//! Sweep and floor judge a schedule of the DAG that is being solved, and the
//! funnel DAG is exact, so there is one entry point: [`Pipeline::run_report`].
//!
//! [`Pipeline::run_report`] additionally returns the intermediate costs used
//! by the paper's Figures 5–7 (the `Init` and `HCcs` bars).

use crate::cancel::CancelToken;
use crate::funnel::Funnel;
use crate::hill_climb::{hc_improve, hccs_improve, HillClimbConfig};
use crate::init::{place_sources, BspgScheduler, SourceScheduler};
use crate::Scheduler;
use bsp_model::{BspSchedule, Dag, Machine};
use std::time::{Duration, Instant};

/// Configuration of the combined pipeline (Figure 3).
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Time/step limits of the `HC` + `HCcs` local searches (`HC` once per
    /// initialization branch with nine tenths of the time, `HCcs` once on
    /// the winner with the rest).
    pub hill_climb: HillClimbConfig,
    /// Thread budget of one pipeline run: how many initialization branches
    /// may run at once.  The branches run on `min(budget, branches)` lanes,
    /// each lane taking the next branch nobody has started, so peak
    /// concurrency never exceeds the budget; no search reads it, so the
    /// schedule is the same for every value.  `0` (the default) budgets one
    /// thread per available core.  Serving workers set this from the
    /// server-wide budget so `workers × solve-threads` never oversubscribes
    /// the host.
    pub solve_threads: usize,
    /// Collect a per-phase wall-clock breakdown ([`PipelineReport::phases`])
    /// during the run.  `false` (the default) is zero-cost: no clock is read
    /// and nothing is allocated for phase accounting.  The serving layer
    /// enables this per traced request.
    pub collect_phases: bool,
    /// Absolute wall-clock deadline for the whole run.  The pipeline is
    /// *anytime*: it clips every stage budget to the remaining time, skips
    /// stages whose budget is exhausted, and always returns the best valid
    /// schedule found so far (at minimum the raw initializer schedules, which
    /// are not deadline-gated).  `None` disables deadline awareness.
    pub deadline: Option<Instant>,
    /// Cooperative cancellation threaded through both searches (`HC`,
    /// `HCcs`).  The effective token of a run is this one tightened to
    /// [`Self::deadline`].
    pub cancel: CancelToken,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            hill_climb: HillClimbConfig::default(),
            solve_threads: 0,
            collect_phases: false,
            deadline: None,
            cancel: CancelToken::inert(),
        }
    }
}

impl PipelineConfig {
    /// A small configuration suitable for unit tests, doc tests and quick
    /// experiments: the default with a 200 ms local search.
    pub fn fast() -> Self {
        Self::default().with_hill_climb_time(Duration::from_millis(200))
    }

    /// The default: there is no other pipeline.  Kept because the frozen
    /// `benchmark/` package calls it.
    #[doc(hidden)]
    pub fn heuristics_only() -> Self {
        Self::default()
    }

    /// Sets the local-search time limit and returns the configuration.
    pub fn with_hill_climb_time(mut self, time_limit: Duration) -> Self {
        self.hill_climb.time_limit = time_limit;
        self
    }

    /// Sets the wall-clock deadline and returns the configuration.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the cancellation token and returns the configuration.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// The token a run under this configuration polls: the configured cancel
    /// token tightened to the configured deadline.
    pub fn effective_cancel(&self) -> CancelToken {
        match self.deadline {
            Some(d) => self.cancel.tightened(d),
            None => self.cancel.clone(),
        }
    }

    /// Sets the thread budget ([`Self::solve_threads`]) and returns the
    /// configuration.  This is the knob serving workers derive from the
    /// server-wide budget.
    pub fn with_thread_budget(mut self, budget: usize) -> Self {
        self.solve_threads = budget;
        self
    }

    /// The concrete solve-thread budget: `solve_threads`, or one per
    /// available core when `0`.
    pub fn effective_solve_threads(&self) -> usize {
        crate::resolve_threads(self.solve_threads)
    }
}

/// Clips `budget` to the time left on `cancel`'s deadline (unchanged when the
/// token carries no deadline).
fn clip_budget(budget: Duration, cancel: &CancelToken) -> Duration {
    match cancel.remaining() {
        Some(remaining) => budget.min(remaining),
        None => budget,
    }
}

/// One timed solver phase, as a microsecond offset + duration relative to
/// the start of the run.  Only collected when
/// [`PipelineConfig::collect_phases`] is set; names are `&'static` so the
/// serving layer can copy samples into its allocation-free span sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSample {
    /// Static phase name (`"funnel"`, an initializer name, `"hc"`, `"hccs"`, …).
    pub name: &'static str,
    /// Nesting depth below the solve (0 = direct child).
    pub depth: u8,
    /// Microseconds from the start of the run to phase start.
    pub start_us: u64,
    /// Phase duration in microseconds.
    pub dur_us: u64,
}

impl PhaseSample {
    /// A depth-0 sample from `start` to `end`, both measured from the start
    /// of the run.
    fn spanning(name: &'static str, start: Duration, end: Duration) -> Self {
        PhaseSample {
            name,
            depth: 0,
            start_us: start.as_micros() as u64,
            dur_us: end.saturating_sub(start).as_micros() as u64,
        }
    }
}

/// Cost of one initialization branch before and after local search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchReport {
    /// Name of the initialization heuristic (`"BSPg"`, `"Source"`).
    pub init_name: String,
    /// Number of processors the initializer placed nodes on: the width this
    /// branch's sweep kept (see the module docs).
    pub width: usize,
    /// Cost of the initial schedule `HC` started from: the initializer's on
    /// `prefix(width)` after [`place_sources`], on the full machine.
    pub init_cost: u64,
    /// Cost after `HC`.  (`HCcs` runs once, on the winning branch only:
    /// [`PipelineReport::final_cost`].)
    pub local_search_cost: u64,
}

/// The result of a full pipeline run, including the intermediate costs that
/// the paper's figures report.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Per-initializer costs (raw and after local search).
    pub branches: Vec<BranchReport>,
    /// Cost of the best initial schedule ([`BranchReport::init_cost`]) — the
    /// `Init` bars of Figures 5–7.
    pub init_cost: u64,
    /// Cost of the final schedule: the best branch after `HC` + `HCcs` — the
    /// `HCcs` bars — or the trivial schedule when the floor replaced it.
    pub final_cost: u64,
    /// Name of the initializer whose branch produced the selected schedule;
    /// `"trivial"` when the floor replaced it ([`trivial_floor`]).
    pub selected_init: String,
    /// The selected branch's [`BranchReport::width`] (of the cheapest branch
    /// when the floor replaced it): `P` when no narrower prefix was cheaper.
    pub placement_width: usize,
    /// Node count of the DAG that was solved: what the funnel reduction
    /// ([`crate::funnel`]) left of the caller's DAG, `dag.n()` when nothing
    /// contracted.
    pub funnel_nodes: usize,
    /// Per-phase wall-clock breakdown (empty unless
    /// [`PipelineConfig::collect_phases`] is set).  Branches that ran in
    /// parallel have overlapping spans.
    pub phases: Vec<PhaseSample>,
    /// The final schedule.
    pub schedule: BspSchedule,
}

/// Replaces `schedule` (of cost `cost`) by [`BspSchedule::trivial`] when that
/// is strictly cheaper and says whether it did.  `O(n)`.  This is the floor
/// under every schedule that leaves the solver: [`Pipeline::run_report`]
/// applies it after the branch search, the serving layer to its warm-started
/// answers.
pub fn trivial_floor(
    dag: &Dag,
    machine: &Machine,
    schedule: &mut BspSchedule,
    cost: &mut u64,
) -> bool {
    let trivial = BspSchedule::trivial(dag);
    let trivial_cost = trivial.cost(dag, machine);
    let cheaper = trivial_cost < *cost;
    if cheaper {
        *schedule = trivial;
        *cost = trivial_cost;
    }
    cheaper
}

/// The schedule a branch's `HC` starts from: an initializer's schedule on
/// the machine's first `width` processors after [`place_sources`], with its
/// cost on the full machine.
struct Start {
    width: usize,
    schedule: BspSchedule,
    cost: u64,
}

impl Start {
    fn on_prefix(init: &dyn Scheduler, dag: &Dag, machine: &Machine, width: usize) -> Self {
        let mut schedule = init.schedule(dag, &machine.prefix(width));
        debug_assert_eq!(
            schedule.normalize(dag),
            0,
            "{} must return a normalized schedule",
            init.name()
        );
        place_sources(dag, machine, &mut schedule);
        let cost = schedule.cost(dag, machine);
        Start {
            width,
            schedule,
            cost,
        }
    }
}

/// The placement-width sweep (see the module docs): `init` on the machine's
/// processor prefixes `P`, `P/2`, `P/4`, … ≥ 2, sources placed, costed on the
/// full machine, until a width does not lower the cost.  Returns the
/// cheapest start, ties to the wider.
fn width_sweep(init: &dyn Scheduler, dag: &Dag, machine: &Machine) -> Start {
    let mut best = Start::on_prefix(init, dag, machine, machine.p());
    while best.width / 2 >= 2 {
        let candidate = Start::on_prefix(init, dag, machine, best.width / 2);
        if candidate.cost >= best.cost {
            break;
        }
        best = candidate;
    }
    best
}

/// What one initialization branch hands back: its report, the schedule after
/// `HC` and, when asked for, its phase samples.
type BranchResult = (BranchReport, BspSchedule, Vec<PhaseSample>);

/// The combined scheduling framework of Figure 3.
#[derive(Debug, Clone, Default)]
pub struct Pipeline {
    config: PipelineConfig,
}

impl Pipeline {
    /// Creates a pipeline with the given configuration.
    pub fn new(config: PipelineConfig) -> Self {
        Pipeline { config }
    }

    /// The configuration this pipeline runs with.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Runs the pipeline and returns the final schedule.
    pub fn run(&self, dag: &Dag, machine: &Machine) -> BspSchedule {
        self.run_report(dag, machine).schedule
    }

    /// Runs the pipeline — funnel reduction, branch search (sweep → `HC`),
    /// trivial-schedule floor, `HCcs`, projection back onto `dag` — and
    /// returns the final schedule together with the intermediate stage
    /// costs (Figures 5–7).
    pub fn run_report(&self, dag: &Dag, machine: &Machine) -> PipelineReport {
        let origin = self.phase_clock();
        let funnel = Funnel::contract(dag, machine.p());
        let contracted = origin.map(|o| o.elapsed());
        let solved_dag = funnel.as_ref().map_or(dag, Funnel::dag);
        let mut report = self.branch_search(solved_dag, machine, origin);
        if trivial_floor(
            solved_dag,
            machine,
            &mut report.schedule,
            &mut report.final_cost,
        ) {
            report.selected_init = "trivial".to_string();
        } else {
            self.comm_search(solved_dag, machine, origin, &mut report);
        }
        // The searches can leave a superstep without computation.
        report.schedule.normalize(solved_dag);
        report.final_cost = report.schedule.cost(solved_dag, machine);
        let solved = origin.map(|o| o.elapsed());
        if let Some(funnel) = &funnel {
            report.schedule = funnel.project(&report.schedule);
        }
        if let (Some(o), Some(contracted), Some(solved)) = (origin, contracted, solved) {
            // One sample for both halves of the reduction, so that the
            // depth-0 samples still add up to the run.
            let projected = o.elapsed().saturating_sub(solved);
            let funnel = PhaseSample::spanning("funnel", Duration::ZERO, contracted + projected);
            report.phases.insert(0, funnel);
        }
        debug_assert!(report.schedule.validate(dag, machine).is_ok());
        debug_assert_eq!(report.final_cost, report.schedule.cost(dag, machine));
        report
    }

    /// The phase clock only exists when the caller opted in; `None` keeps
    /// the default path free of any `Instant::now` calls.
    fn phase_clock(&self) -> Option<Instant> {
        self.config.collect_phases.then(Instant::now)
    }

    /// The initialization branches, each `sweep → HC`: a report whose
    /// schedule and [`PipelineReport::final_cost`] are the cheapest branch's
    /// after `HC`.
    fn branch_search(
        &self,
        dag: &Dag,
        machine: &Machine,
        origin: Option<Instant>,
    ) -> PipelineReport {
        let mut report = PipelineReport {
            branches: Vec::new(),
            init_cost: 0,
            final_cost: 0,
            selected_init: "trivial".to_string(),
            placement_width: machine.p(),
            funnel_nodes: dag.n(),
            phases: Vec::new(),
            schedule: BspSchedule::trivial(dag),
        };
        if dag.n() == 0 {
            let cost = report.schedule.cost(dag, machine);
            report.init_cost = cost;
            report.final_cost = cost;
            return report;
        }

        let cancel = self.config.effective_cancel();
        let heuristics: [&(dyn Scheduler + Sync); 2] = [&BspgScheduler, &SourceScheduler];
        let results: Vec<BranchResult> = crate::map_within_budget(
            self.config.effective_solve_threads(),
            &heuristics,
            |&init| self.run_branch(dag, machine, init, &cancel, origin),
        );

        let costs = results.iter().map(|(b, _, _)| b.init_cost);
        report.init_cost = costs.min().expect("two branches always run");
        let (best_idx, _) = results
            .iter()
            .enumerate()
            .min_by_key(|(_, (b, _, _))| b.local_search_cost)
            .expect("two branches always run");
        for (i, (branch, schedule, phases)) in results.into_iter().enumerate() {
            report.phases.extend(phases);
            if i == best_idx {
                report.selected_init = branch.init_name.clone();
                report.placement_width = branch.width;
                report.final_cost = branch.local_search_cost;
                report.schedule = schedule;
            }
            report.branches.push(branch);
        }
        report
    }

    /// The local-search configuration with `share` of its time limit (the
    /// paper gives nine tenths to `HC`, one to `HCcs`), additionally clipped
    /// to the wall clock `cancel`'s deadline leaves; the search polls `cancel`.
    fn search_config(&self, share: f64, cancel: &CancelToken) -> HillClimbConfig {
        HillClimbConfig {
            time_limit: clip_budget(self.config.hill_climb.time_limit.mul_f64(share), cancel),
            cancel: cancel.clone(),
            ..self.config.hill_climb.clone()
        }
    }

    /// `HCcs` on the searched schedule, with the tenth of the local-search
    /// budget the paper gives it ([`Pipeline::run_report`] costs the result).
    fn comm_search(
        &self,
        dag: &Dag,
        machine: &Machine,
        origin: Option<Instant>,
        report: &mut PipelineReport,
    ) {
        let started = origin.map(|o| o.elapsed());
        let config = self.search_config(0.1, &self.config.effective_cancel());
        hccs_improve(dag, machine, &mut report.schedule, &config);
        if let (Some(o), Some(started)) = (origin, started) {
            let sample = PhaseSample::spanning("hccs", started, o.elapsed());
            report.phases.push(sample);
        }
    }

    /// Runs one initialization branch: the width sweep, then `HC` on the full
    /// machine with the nine tenths of the local-search budget the paper
    /// gives it.  When `origin` is set the branch reports its phase breakdown
    /// relative to that clock.
    fn run_branch(
        &self,
        dag: &Dag,
        machine: &Machine,
        init: &dyn Scheduler,
        cancel: &CancelToken,
        origin: Option<Instant>,
    ) -> BranchResult {
        let branch_start = origin.map(|o| o.elapsed());
        let Start {
            width,
            mut schedule,
            cost: init_cost,
        } = width_sweep(init, dag, machine);
        let init_done = origin.map(|o| o.elapsed());
        let config = self.search_config(0.9, cancel);
        let local_search_cost = hc_improve(dag, machine, &mut schedule, &config).final_cost;
        let mut phases = Vec::new();
        if let (Some(o), Some(start), Some(init_done)) = (origin, branch_start, init_done) {
            let end = o.elapsed();
            phases.push(PhaseSample::spanning(init.name(), start, end));
            for (name, from, to) in [("init_schedule", start, init_done), ("hc", init_done, end)] {
                phases.push(PhaseSample {
                    depth: 1,
                    ..PhaseSample::spanning(name, from, to)
                });
            }
        }
        let report = BranchReport {
            init_name: init.name().to_string(),
            width,
            init_cost,
            local_search_cost,
        };
        (report, schedule, phases)
    }
}

impl Scheduler for Pipeline {
    fn name(&self) -> &'static str {
        "Pipeline"
    }

    fn schedule(&self, dag: &Dag, machine: &Machine) -> BspSchedule {
        self.run(dag, machine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{CilkScheduler, HDaggScheduler};
    use dag_gen::fine::{cg, spmv, IterConfig, SpmvConfig};

    fn fast_pipeline() -> Pipeline {
        Pipeline::new(PipelineConfig::fast())
    }

    #[test]
    fn pipeline_returns_valid_schedules() {
        let dag = spmv(&SpmvConfig {
            n: 20,
            density: 0.2,
            seed: 11,
        });
        for machine in [
            Machine::uniform(4, 3, 5),
            Machine::uniform(8, 1, 5),
            Machine::numa_binary_tree(8, 1, 5, 3),
        ] {
            let report = fast_pipeline().run_report(&dag, &machine);
            assert!(report.schedule.validate(&dag, &machine).is_ok());
            assert_eq!(report.final_cost, report.schedule.cost(&dag, &machine));
        }
    }

    #[test]
    fn pipeline_stage_costs_are_monotone() {
        let dag = cg(&IterConfig {
            n: 10,
            density: 0.3,
            iterations: 2,
            seed: 4,
        });
        let machine = Machine::uniform(4, 3, 5);
        let report = fast_pipeline().run_report(&dag, &machine);
        assert!(report.final_cost <= report.init_cost);
        for branch in &report.branches {
            assert!(branch.local_search_cost <= branch.init_cost);
        }
    }

    #[test]
    fn pipeline_beats_or_matches_the_baselines_on_small_instances() {
        let dag = spmv(&SpmvConfig {
            n: 24,
            density: 0.25,
            seed: 9,
        });
        let machine = Machine::uniform(4, 5, 5);
        let ours = fast_pipeline().run(&dag, &machine).cost(&dag, &machine);
        let cilk = CilkScheduler::default()
            .schedule(&dag, &machine)
            .cost(&dag, &machine);
        let hdagg = HDaggScheduler::default()
            .schedule(&dag, &machine)
            .cost(&dag, &machine);
        assert!(ours <= cilk, "pipeline {ours} worse than Cilk {cilk}");
        assert!(ours <= hdagg, "pipeline {ours} worse than HDagg {hdagg}");
    }

    #[test]
    fn empty_dag_yields_the_trivial_schedule() {
        let dag = Dag::from_edge_list_unit_weights(0, &[]).unwrap();
        let machine = Machine::uniform(4, 1, 5);
        let report = fast_pipeline().run_report(&dag, &machine);
        assert_eq!(report.selected_init, "trivial");
        assert!(report.schedule.validate(&dag, &machine).is_ok());
    }

    #[test]
    fn phase_collection_is_opt_in_and_covers_the_run() {
        let dag = spmv(&SpmvConfig {
            n: 16,
            density: 0.25,
            seed: 7,
        });
        let machine = Machine::uniform(4, 3, 5);
        // Off by default: no samples.
        let silent = fast_pipeline().run_report(&dag, &machine);
        assert!(silent.phases.is_empty());
        // On: every branch reports its initializer span plus the two
        // depth-1 children, and child durations tile the branch span.
        let mut config = PipelineConfig::fast();
        config.collect_phases = true;
        config.solve_threads = 1;
        let report = Pipeline::new(config).run_report(&dag, &machine);
        assert!(!report.phases.is_empty());
        for branch in &report.branches {
            let top = report
                .phases
                .iter()
                .position(|p| p.name == branch.init_name && p.depth == 0)
                .expect("branch has a top-level span");
            // A branch's children follow it directly, sweep then search.
            let [top, init, hc] = [0, 1, 2].map(|i| report.phases[top + i]);
            assert_eq!((init.name, init.depth), ("init_schedule", 1));
            assert_eq!((hc.name, hc.depth), ("hc", 1));
            assert_eq!(init.start_us, top.start_us);
            let children = init.dur_us + hc.dur_us;
            assert!(
                children <= top.dur_us + 3,
                "children {children} exceed branch span {}",
                top.dur_us
            );
        }
        // The reduction (contraction plus projection) is timed on its own,
        // ahead of every branch; `HCcs` runs once, after all of them, and
        // is the last thing timed.
        let funnel = report.phases[0];
        assert_eq!(
            (funnel.name, funnel.depth, funnel.start_us),
            ("funnel", 0, 0)
        );
        let hccs: Vec<&PhaseSample> = report.phases.iter().filter(|p| p.name == "hccs").collect();
        assert_eq!(hccs.len(), 1);
        assert_eq!(hccs[0].depth, 0);
        let ends = |name: &str| {
            let of = |p: &&PhaseSample| p.name == name && p.depth == 0;
            let span = report.phases.iter().find(of).expect("a span by that name");
            span.start_us + span.dur_us
        };
        for branch in &report.branches {
            assert!(ends(&branch.init_name) <= hccs[0].start_us);
        }
        assert_eq!(report.phases.last(), Some(hccs[0]));
        assert!(report.funnel_nodes < dag.n());
    }

    #[test]
    fn sequential_and_parallel_branch_execution_agree() {
        let dag = spmv(&SpmvConfig {
            n: 14,
            density: 0.25,
            seed: 13,
        });
        let mut cfg = PipelineConfig::fast();
        // Remove the time dependence so both runs are deterministic.
        cfg.hill_climb = HillClimbConfig {
            time_limit: Duration::from_secs(3600),
            max_steps: 200,
            ..Default::default()
        };
        // On the tree the sweep narrows the placement, which happens before
        // the branches fork and must not depend on how they run either.
        for machine in [
            Machine::uniform(4, 3, 5),
            Machine::numa_binary_tree(8, 3, 5, 3),
        ] {
            let par = Pipeline::new(cfg.clone().with_thread_budget(2)).run_report(&dag, &machine);
            let seq = Pipeline::new(cfg.clone().with_thread_budget(1)).run_report(&dag, &machine);
            assert_eq!(par.schedule, seq.schedule);
            assert_eq!(par.final_cost, seq.final_cost);
            assert_eq!(par.selected_init, seq.selected_init);
            assert_eq!(par.placement_width, seq.placement_width);
            assert_eq!(par.branches, seq.branches);
        }
    }

    #[test]
    fn the_floor_replaces_only_a_strictly_costlier_schedule() {
        // Two independent nodes: spreading them saves work, no edge to pay.
        let dag = Dag::from_edges(2, &[], vec![10, 10], vec![1, 1]).unwrap();
        let machine = Machine::uniform(2, 1, 5);
        let trivial = BspSchedule::trivial(&dag);
        let trivial_cost = trivial.cost(&dag, &machine);

        let mut schedule = BspgScheduler.schedule(&dag, &machine);
        let spread = schedule.clone();
        let mut cost = schedule.cost(&dag, &machine);
        assert!(cost < trivial_cost);
        assert!(!trivial_floor(&dag, &machine, &mut schedule, &mut cost));
        assert_eq!(schedule, spread);

        // Equal cost is not cheaper: the schedule at hand stays.
        let mut cost = trivial_cost;
        assert!(!trivial_floor(&dag, &machine, &mut schedule, &mut cost));
        assert_eq!(schedule, spread);

        let mut cost = trivial_cost + 1;
        assert!(trivial_floor(&dag, &machine, &mut schedule, &mut cost));
        assert_eq!((schedule, cost), (trivial, trivial_cost));
    }
}
