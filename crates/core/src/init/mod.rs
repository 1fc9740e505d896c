//! Initialization heuristics (§4.2, Algorithms 1 and 2 of the paper).
//!
//! These produce the starting BSP schedules that the local search of the
//! pipeline then improves:
//!
//! * [`BspgScheduler`] — the BSP-tailored greedy `BSPg` that assigns nodes as
//!   processors become idle and closes a superstep when half of the
//!   processors can no longer be fed without communication;
//! * [`SourceScheduler`] — the layer-wise `Source` heuristic that turns each
//!   layer of source nodes into a superstep with round-robin, work-balanced
//!   processor assignment.
//!
//! [`place_sources`] and [`merge_supersteps`] are the passes the pipeline
//! sends each of their schedules through before the local search: the first
//! moves the sources next to the nodes that read them, the second closes the
//! barriers that then carry no value.
//!
//! (The third initializer of the paper, `ILPinit`, was deleted with the ILP
//! stage: README, *ILP: a negative result*.)

mod bspg;
mod place;
mod source;

pub use bspg::BspgScheduler;
pub use place::{merge_supersteps, place_sources};
pub use source::SourceScheduler;
