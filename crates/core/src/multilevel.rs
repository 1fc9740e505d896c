//! Names the frozen `benchmark/` compiles against; delete with ROADMAP item 1 (benchmark v2).
//!
//! The one coarsening that pays is the exact funnel reduction, which opens
//! [`Pipeline::run_report`]: a "multilevel" solve *is* a pipeline run, told
//! here in the words of the benchmark's `ml_fine` / `ml_kernels` workloads.

use crate::funnel::Funnel;
use crate::pipeline::{Pipeline, PipelineConfig};
use bsp_model::{BspSchedule, Dag, Machine};
use std::time::Instant;

#[doc(hidden)]
#[derive(Debug, Clone, Default)]
pub struct MultilevelConfig {
    pub base: PipelineConfig,
    /// Read by nothing (a solve is one thread); delete with ROADMAP item 1 (benchmark v2).
    pub threads: usize,
}

#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoarsenStats {
    /// 1 when the funnel reduction contracted anything.
    pub rounds: usize,
    /// Nodes the funnel reduction folded away: `n − funnel_nodes`.
    pub contractions: usize,
    pub tail_contractions: usize,
}

/// `coarsen_seconds` is the pipeline's `funnel` phase, `base_solve_seconds`
/// the rest of the run; nothing fills the others.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimings {
    pub coarsen_seconds: f64,
    pub base_solve_seconds: f64,
    pub uncontract_seconds: f64,
    pub refine_seconds: f64,
    pub refine_phases: usize,
    pub final_sweep_seconds: f64,
    pub final_comm_seconds: f64,
    pub coarsen_stats: CoarsenStats,
}

impl PhaseTimings {
    pub fn add(&mut self, other: &PhaseTimings) {
        self.coarsen_seconds += other.coarsen_seconds;
        self.base_solve_seconds += other.base_solve_seconds;
        self.uncontract_seconds += other.uncontract_seconds;
        self.refine_seconds += other.refine_seconds;
        self.refine_phases += other.refine_phases;
        self.final_sweep_seconds += other.final_sweep_seconds;
        self.final_comm_seconds += other.final_comm_seconds;
        self.coarsen_stats.rounds += other.coarsen_stats.rounds;
        self.coarsen_stats.contractions += other.coarsen_stats.contractions;
        self.coarsen_stats.tail_contractions += other.coarsen_stats.tail_contractions;
    }
}

#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct MultilevelReport {
    pub schedule: BspSchedule,
    pub final_cost: u64,
    timings: PhaseTimings,
}

impl MultilevelReport {
    pub fn total_timings(&self) -> PhaseTimings {
        self.timings
    }
}

#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct MultilevelScheduler {
    pipeline: Pipeline,
}

impl MultilevelScheduler {
    /// `base` with `collect_phases` on.
    pub fn new(config: MultilevelConfig) -> Self {
        let mut base = config.base;
        base.collect_phases = true;
        let pipeline = Pipeline::new(base);
        MultilevelScheduler { pipeline }
    }

    pub fn run(&self, dag: &Dag, machine: &Machine) -> BspSchedule {
        self.run_report(dag, machine).schedule
    }

    pub fn run_report(&self, dag: &Dag, machine: &Machine) -> MultilevelReport {
        let clock = Instant::now();
        let report = self.pipeline.run_report(dag, machine);
        let seconds = clock.elapsed().as_secs_f64();
        let funnel = report.phases.iter().find(|p| p.name == "funnel");
        let coarsen_seconds = funnel.map_or(0.0, |p| p.dur_us as f64 / 1e6).min(seconds);
        let contractions = dag.n() - report.funnel_nodes;
        MultilevelReport {
            schedule: report.schedule,
            final_cost: report.final_cost,
            timings: PhaseTimings {
                coarsen_seconds,
                base_solve_seconds: seconds - coarsen_seconds,
                coarsen_stats: CoarsenStats {
                    rounds: usize::from(contractions > 0),
                    contractions,
                    ..CoarsenStats::default()
                },
                ..PhaseTimings::default()
            },
        }
    }
}

/// The one coarsening left, so that `ml.coarsen_only_s` still times one.
#[doc(hidden)]
pub fn coarsen(dag: &Dag, _target_clusters: usize) -> Option<Funnel> {
    Funnel::contract(dag, 1)
}
