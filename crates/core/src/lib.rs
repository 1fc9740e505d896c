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
//! * [`funnel`] — the exact funnel (in-tree) reduction the pipeline applies to
//!   the DAG before it solves it: the multilevel idea of §4.5 ("a coarse node
//!   is a multi-node move") in the one form that pays here.
//! * [`init`] — the `BSPg` and `Source` initialization heuristics.
//! * [`hill_climb`] — the `HC` (node moves) and `HCcs` (communication
//!   schedule) hill-climbing local searches.
//! * [`ilp`] — `ILPcs` over the [`micro_ilp`] branch-&-bound solver: the exact
//!   check on `HCcs`, the one ILP formulation of the paper that solver closes.
//! * [`pipeline`] — the combined framework of Figure 3, the one scheduler.

pub mod baselines;
pub mod cancel;
pub mod funnel;
pub mod hill_climb;
pub mod ilp;
pub mod init;
#[doc(hidden)]
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

pub use baselines::{
    BlEstScheduler, CilkScheduler, EtfScheduler, HDaggScheduler, TrivialScheduler,
};
pub use cancel::CancelToken;
pub use funnel::Funnel;
pub use hill_climb::{hc_improve, hccs_improve, HillClimbConfig};
pub use init::{BspgScheduler, SourceScheduler};
#[doc(hidden)]
pub use multilevel::{MultilevelConfig, MultilevelScheduler};
pub use pipeline::{PhaseSample, Pipeline, PipelineConfig};
