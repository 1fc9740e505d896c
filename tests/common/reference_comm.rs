//! `CommSchedule::requirements` as it was before it walked the nodes in order
//! with a processor-sized stamp array: one `BTreeMap` keyed by
//! `(node, target)` over every edge.  Kept as the reference
//! `tests/properties.rs` holds the rewritten routine against.

use bsp_model::comm::CommRequirement;
use bsp_model::{Assignment, Dag, NodeId};
use std::collections::BTreeMap;

/// One requirement per `(node, target processor)` with a successor of `node`
/// on `target ≠ π(node)`, ascending in that key.
pub fn requirements(dag: &Dag, assignment: &Assignment) -> Vec<CommRequirement> {
    // (node, target) -> earliest superstep in which it is needed there.
    let mut needed: BTreeMap<(NodeId, usize), usize> = BTreeMap::new();
    for v in 0..dag.n() {
        let pv = assignment.proc[v] as usize;
        let sv = assignment.superstep[v] as usize;
        for u in dag.predecessors(v) {
            if assignment.proc[u] as usize != pv {
                needed
                    .entry((u, pv))
                    .and_modify(|s| *s = (*s).min(sv))
                    .or_insert(sv);
            }
        }
    }
    needed
        .into_iter()
        .map(|((node, target), needed_by)| CommRequirement {
            node,
            source: assignment.proc[node] as usize,
            target,
            computed: assignment.superstep[node] as usize,
            needed_by,
        })
        .collect()
}
