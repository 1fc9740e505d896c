//! # bsp-bench
//!
//! Experiment harness for the Rust reproduction of *"Efficient Multi-Processor
//! Scheduling in Increasingly Realistic Models"* (SPAA 2024).
//!
//! The library provides the shared plumbing used by the experiment binaries in
//! `src/bin/` (`exp_paper` regenerates the paper's result tables; the others
//! measure throughput, initializers and the serving stack):
//!
//! * [`args`] — a tiny command-line flag parser (`--scale`, `--seed`, …).
//! * [`instances`] — scaled versions of the paper's datasets so the
//!   experiments run anywhere from seconds (smoke) to hours (full).
//! * [`eval`] — evaluates every scheduler of the paper on one instance and
//!   returns the per-algorithm costs.
//! * [`heap`] — the counting global allocator behind the heap measurements
//!   and the allocation-free proofs.
//! * [`stats`] — geometric-mean aggregation of cost ratios and the
//!   "% reduction vs baseline" quantities the paper reports.
//! * [`table`] — plain-text table rendering for the binaries' output.

pub mod args;
pub mod eval;
pub mod heap;
pub mod instances;
pub mod stats;
pub mod table;

pub use args::CliArgs;
pub use eval::{AlgoCosts, InstanceResult};
pub use instances::{scaled_dataset, size_to_target, Scale};
pub use stats::{geo_mean, geo_mean_ratio, reduction_pct, BenchReport};
pub use table::Table;
