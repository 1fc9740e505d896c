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
use rayon::prelude::*;

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
/// every budget layer shares ([`multilevel::MultilevelConfig::threads`],
/// [`pipeline::PipelineConfig::solve_threads`] and `bsp_serve`'s derived
/// per-worker budget).  A budget means one thing — how many independent
/// solves (the pipeline's init branches, the multilevel ratio portfolio) may
/// run at once — and nothing below a whole solve reads it.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// The one fork rule behind both fan-out sites: maps `f` over `items` on the
/// rayon pool when a resolved `budget` covers one thread per item, and one
/// item after the other on the calling thread when it does not.  Results come
/// back in input order either way.
pub(crate) fn map_within_budget<'a, T: Sync, R: Send>(
    budget: usize,
    items: &'a [T],
    f: impl Fn(&'a T) -> R + Sync,
) -> Vec<R> {
    if budget >= items.len() {
        items.par_iter().map(f).collect()
    } else {
        items.iter().map(f).collect()
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
