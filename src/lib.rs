//! # realistic-sched
//!
//! Umbrella crate for the Rust reproduction of *"Efficient Multi-Processor
//! Scheduling in Increasingly Realistic Models"* (Papp, Anegg, Karanasiou,
//! Yzelman — SPAA 2024).
//!
//! The workspace implements the paper's scheduling framework (its ILP stage
//! measured and then deleted — README, *ILP: a negative result*):
//!
//! * [`model`] — computational DAGs, the BSP + NUMA machine model, BSP schedules
//!   (`π`, `τ`, `Γ`), the cost function, and validity checking.
//! * [`gen`] — the computational-DAG database substrate: fine-grained generators
//!   (`spmv`, `exp`, `CG`, `kNN`), coarse-grained GraphBLAS-style DAGs, the
//!   hyperDAG text format, and seeded datasets.
//! * [`ilp`] — a small from-scratch LP/ILP solver (simplex + branch & bound),
//!   the stand-in for the CBC solver used in the paper.
//! * [`sched`] — the scheduling algorithms: baselines (`Cilk`, `BL-EST`, `ETF`,
//!   `HDagg`), initialization heuristics (`BSPg`, `Source`), hill climbing
//!   (`HC`, `HCcs`), the exact funnel reduction, the combined pipeline, and
//!   `ILPcs` as the exact check on `HCcs`.
//!
//! ## Quickstart
//!
//! ```
//! use realistic_sched::model::{Machine};
//! use realistic_sched::gen::fine::{spmv, SpmvConfig};
//! use realistic_sched::sched::pipeline::{Pipeline, PipelineConfig};
//!
//! // A fine-grained sparse matrix-vector multiplication DAG.
//! let dag = spmv(&SpmvConfig { n: 24, density: 0.2, seed: 7 });
//! // 4 processors, g = 3, l = 5, uniform communication.
//! let machine = Machine::uniform(4, 3, 5);
//! let schedule = Pipeline::new(PipelineConfig::default()).run(&dag, &machine);
//! assert!(schedule.validate(&dag, &machine).is_ok());
//! ```

pub use bsp_model as model;
pub use bsp_sched as sched;
pub use dag_gen as gen;
pub use micro_ilp as ilp;

/// Convenience prelude re-exporting the most commonly used types.
pub mod prelude {
    pub use bsp_model::{BspSchedule, CommSchedule, CommStep, CostBreakdown, Dag, Machine, NodeId};
    pub use bsp_sched::pipeline::{Pipeline, PipelineConfig};
    pub use bsp_sched::Scheduler;
    pub use dag_gen::dataset::{Dataset, DatasetKind};
}
