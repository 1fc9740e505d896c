//! # bsp-sched
//!
//! The scheduling algorithms of the paper *"Efficient Multi-Processor
//! Scheduling in Increasingly Realistic Models"* (SPAA 2024), all operating on
//! the BSP + NUMA model of the [`bsp_model`] crate:
//!
//! * [`baselines`] — `Cilk` work stealing, the `BL-EST` and `ETF` list
//!   schedulers, the `HDagg` wavefront scheduler, and the trivial
//!   single-processor schedule.
//! * [`cancel`] — the cooperative [`CancelToken`] polled by every anytime
//!   search loop (deadline-aware requests and graceful shutdown in
//!   `bsp_serve` are built on it).
//! * [`init`] — the `BSPg` and `Source` initialization heuristics.
//! * [`hill_climb`] — the `HC` (node moves) and `HCcs` (communication
//!   schedule) hill-climbing local searches.
//! * [`ilp`] — the `ILPfull`, `ILPpart`, `ILPcs` and `ILPinit` formulations,
//!   solved with the [`micro_ilp`] branch-&-bound solver.
//! * [`multilevel`] — the coarsen–solve–refine multilevel scheduler.
//! * [`pipeline`] — the combined framework of Figure 3 (and the multilevel
//!   variant of Figure 4).

pub mod baselines;
pub mod cancel;
pub mod hill_climb;
pub mod ilp;
pub mod init;
pub mod multilevel;
pub mod pipeline;

use bsp_model::{BspSchedule, Dag, Machine};

/// A scheduling algorithm: consumes a DAG and a machine description and
/// produces a valid BSP schedule.
pub trait Scheduler {
    /// Short name used in experiment tables (e.g. `"Cilk"`, `"HDagg"`).
    fn name(&self) -> &'static str;

    /// Computes a schedule.  Implementations must return a schedule that
    /// passes [`BspSchedule::validate`] for the given inputs.
    fn schedule(&self, dag: &Dag, machine: &Machine) -> BspSchedule;
}

/// Convenience: runs a scheduler and returns `(cost, schedule)`.
pub fn evaluate(scheduler: &dyn Scheduler, dag: &Dag, machine: &Machine) -> (u64, BspSchedule) {
    let sched = scheduler.schedule(dag, machine);
    let cost = sched.cost(dag, machine);
    (cost, sched)
}

/// Resolves a thread-budget knob to a concrete count: `0` means one thread
/// per available core, anything else passes through.  The single definition
/// every budget layer shares ([`hill_climb::HillClimbConfig::threads`],
/// [`multilevel::MultilevelConfig::threads`],
/// [`pipeline::PipelineConfig::solve_threads`], and `bsp_serve`'s derived
/// per-worker budget), so a future cap — an env var, cgroup-aware counting —
/// lands everywhere at once.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Fewest lanes worth fanning a phase out over (coarsening scans, the
/// parallel `HCcs` driver); also what the batch-speculative
/// [`hill_climb::ParallelHc`] derives its fallback width from.  `hc_improve`
/// and multilevel refinement do not dispatch `ParallelHc`: it loses to the
/// serial lift/drop driver where the two were measured (ROADMAP item 3).
pub const MIN_PARALLEL_LANES: usize = 2;

/// Clamps a *derived* thread share to what is actually worth parallelizing:
/// shares below [`MIN_PARALLEL_LANES`] fall back to `1` (serial), larger
/// shares pass through.  Budget-splitting layers (multilevel's per-ratio
/// share, the pipeline's per-branch share, the server's per-worker
/// derivation) apply this so auto budgets on small hosts never dispatch the
/// parallel driver below its break-even — a budget is a cap, so using fewer
/// threads is always legal.  Explicitly requested lane counts are honored
/// verbatim and bypass this.
pub fn parallel_budget(share: usize) -> usize {
    if share >= MIN_PARALLEL_LANES {
        share
    } else {
        1
    }
}

pub use baselines::{
    BlEstScheduler, CilkScheduler, EtfScheduler, HDaggScheduler, TrivialScheduler,
};
pub use cancel::CancelToken;
pub use hill_climb::{hc_improve, hccs_improve, HillClimbConfig};
pub use init::{BspgScheduler, SourceScheduler};
pub use multilevel::{MultilevelConfig, MultilevelScheduler};
pub use pipeline::{PhaseSample, Pipeline, PipelineConfig};
