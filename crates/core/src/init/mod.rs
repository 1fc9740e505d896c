//! Initialization heuristics (§4.2, Algorithms 1 and 2 of the paper).
//!
//! These produce the starting BSP schedules that the local search and ILP
//! stages of the pipeline then improve:
//!
//! * [`BspgScheduler`] — the BSP-tailored greedy `BSPg` that assigns nodes as
//!   processors become idle and closes a superstep when half of the
//!   processors can no longer be fed without communication;
//! * [`SourceScheduler`] — the layer-wise `Source` heuristic that turns each
//!   layer of source nodes into a superstep with round-robin, work-balanced
//!   processor assignment.
//!
//! [`place_sources`] is the pass the pipeline sends each of their schedules
//! through before the local search: it moves the sources next to the nodes
//! that read them.
//!
//! (The third initializer of the paper, `ILPinit`, lives in
//! [`crate::ilp::init`] because it shares the ILP machinery.)

mod bspg;
mod place;
mod source;

pub use bspg::BspgScheduler;
pub use place::place_sources;
pub use source::SourceScheduler;
