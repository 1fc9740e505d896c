//! # bsp-model
//!
//! The problem-definition substrate of the SPAA 2024 paper *"Efficient
//! Multi-Processor Scheduling in Increasingly Realistic Models"*:
//!
//! * [`Dag`] — a computational DAG with per-node work weights `w(v)` and
//!   communication weights `c(v)`.
//! * [`Machine`] — a BSP machine description `(P, g, ℓ)` extended with NUMA
//!   coefficients `λ_{p1,p2}` (either explicit or derived from a binary-tree
//!   hierarchy with per-level multiplier `Δ`).
//! * [`Assignment`] — the node-to-(processor, superstep) maps `π` and `τ`.
//! * [`CommSchedule`] — the communication schedule `Γ` (a set of
//!   `(v, p1, p2, s)` tuples), including the *lazy* schedule derived from an
//!   assignment.
//! * [`BspSchedule`] — an assignment plus a communication schedule, with
//!   validity checking ([`BspSchedule::validate`]) and the BSP/NUMA cost
//!   function ([`BspSchedule::cost`], [`BspSchedule::cost_breakdown`]).
//! * [`fingerprint`] — allocation-free content fingerprints of scheduling
//!   requests (DAG structure + weights + machine), the keys of the
//!   `bsp_serve` schedule cache.
//! * [`record`] — the checksummed, length-framed on-disk record codec of the
//!   `bsp_serve` durable schedule store (torn and corrupt frames decode to
//!   typed errors, never to a schedule).
//! * [`decimal`] — the byte-level decimal grammar the text codecs (hyperDAG
//!   format, wire protocol) share.
//! * [`classical`] — conversion of classical time-based schedules (as produced
//!   by `Cilk`, `BL-EST`, `ETF`) into BSP schedules.

pub mod classical;
pub mod comm;
pub mod cost;
pub mod dag;
pub mod decimal;
pub mod error;
pub mod fingerprint;
pub mod machine;
pub mod record;
pub mod schedule;
pub mod validity;

pub use classical::ClassicalSchedule;
pub use comm::{CommSchedule, CommStep};
pub use cost::{CostBreakdown, SuperstepCost};
pub use dag::{Dag, DagBuilder, NodeId};
pub use error::{DagError, ValidityError};
pub use fingerprint::{request_key, Fnv64, RequestKey};
pub use machine::{Machine, NumaTopology};
pub use record::{decode_record, encode_record, RecordError, StoreRecord};
pub use schedule::{Assignment, BspSchedule};
