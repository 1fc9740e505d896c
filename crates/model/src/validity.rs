//! Validity checking of BSP schedules (§3.2 of the paper).
//!
//! A BSP schedule `(π, τ, Γ)` is valid iff
//!
//! 1. for every edge `(u, v)`: if `π(u) = π(v)` then `τ(u) ≤ τ(v)`, otherwise
//!    there is an entry `(u, p1, π(v), s) ∈ Γ` with `s < τ(v)` for some `p1`;
//! 2. for every `(v, p1, p2, s) ∈ Γ`: either `π(v) = p1` and `τ(v) ≤ s`, or
//!    there is another entry `(v, p', p1, s') ∈ Γ` with `s' < s` (the value was
//!    forwarded to `p1` before being sent onwards).
//!
//! ## Cost and allocation bounds
//!
//! [`validate`] runs in `O(n + m + |Γ| log d)` (`d` the largest number of
//! steps of one node) without hashing: Γ is grouped by node with a counting
//! sort and a node's arrivals live in a `P`-wide stamp array that is never
//! cleared.  It makes four allocations whatever the input — `n + 1` offsets,
//! `|Γ|` grouped steps, two `P`-wide arrays — and each is sized only after
//! every index it will be addressed with has been range-checked, so a
//! schedule decoded from the wire cannot make it panic.

use crate::dag::Dag;
use crate::error::ValidityError;
use crate::machine::Machine;
use crate::schedule::BspSchedule;

/// A node's arrivals: `at[q]` is the earliest superstep in which `q`
/// receives the value of the node `stamp[q] - 1`; slots stamped for another
/// node are empty, so moving on to the next node clears nothing.
struct Arrivals {
    stamp: Vec<usize>,
    at: Vec<usize>,
}

impl Arrivals {
    #[inline]
    fn get(&self, node: usize, q: usize) -> Option<usize> {
        (self.stamp[q] == node + 1).then(|| self.at[q])
    }

    #[inline]
    fn record(&mut self, node: usize, q: usize, step: usize) {
        if self.stamp[q] == node + 1 {
            self.at[q] = self.at[q].min(step);
        } else {
            self.stamp[q] = node + 1;
            self.at[q] = step;
        }
    }
}

/// Condition 1 for the edge `(u, v)`, given the earliest superstep in which
/// `u`'s value arrives at `π(v)`.
#[inline]
fn check_edge(
    sched: &BspSchedule,
    u: usize,
    v: usize,
    arrival: impl FnOnce(usize) -> Option<usize>,
) -> Result<(), ValidityError> {
    if sched.proc(u) == sched.proc(v) {
        if sched.superstep(u) > sched.superstep(v) {
            return Err(ValidityError::PrecedenceSameProcessor { pred: u, node: v });
        }
    } else if arrival(sched.proc(v)).is_none_or(|s| s >= sched.superstep(v)) {
        return Err(ValidityError::MissingCommunication { pred: u, node: v });
    }
    Ok(())
}

/// Validates a schedule against a DAG and machine.  Returns the first
/// violation found, deterministically: range checks first (assignment in
/// node order, then Γ in step order), then condition 2 by node and, within
/// a node, by `(superstep, from, to)`, then condition 1 by node and, within
/// a node, in predecessor order.
pub fn validate(dag: &Dag, machine: &Machine, sched: &BspSchedule) -> Result<(), ValidityError> {
    let n = dag.n();
    let p = machine.p();
    let assignment = &sched.assignment;
    let steps = sched.comm.steps();

    if assignment.proc.len() != n || assignment.superstep.len() != n {
        return Err(ValidityError::AssignmentLengthMismatch {
            expected: n,
            got: assignment.proc.len().min(assignment.superstep.len()),
        });
    }
    for v in 0..n {
        if sched.proc(v) >= p {
            return Err(ValidityError::ProcessorOutOfRange {
                node: v,
                proc: sched.proc(v),
                p,
            });
        }
    }
    // The same pass counts Γ per node for the grouping below.
    let mut offset = vec![0usize; n + 1];
    for cs in steps {
        let (node, from, to) = (cs.node as usize, cs.from as usize, cs.to as usize);
        if node >= n {
            return Err(ValidityError::CommNodeOutOfRange { node, n });
        }
        if from >= p {
            return Err(ValidityError::CommProcessorOutOfRange {
                node,
                proc: from,
                p,
            });
        }
        if to >= p {
            return Err(ValidityError::CommProcessorOutOfRange { node, proc: to, p });
        }
        if from == to {
            return Err(ValidityError::CommSelfSend { node, proc: from });
        }
        offset[node + 1] += 1;
    }

    // Group Γ by node (counting sort); `offset[v]..offset[v + 1]` is node
    // `v`'s run of `(superstep, from, to)` once the cursors have advanced.
    for v in 0..n {
        offset[v + 1] += offset[v];
    }
    let mut grouped = vec![(0u32, 0u16, 0u16); steps.len()];
    for cs in steps {
        let node = cs.node as usize;
        grouped[offset[node]] = (cs.step, cs.from, cs.to);
        offset[node] += 1;
    }
    offset.copy_within(0..n, 1);
    offset[0] = 0;

    let mut arrivals = Arrivals {
        stamp: vec![0; p],
        at: vec![0; p],
    };
    // Lowest node with an unsatisfied incoming edge, if any.
    let mut broken: Option<usize> = None;
    for v in 0..n {
        // Condition 2: every communication step sends a value that is
        // present on its source processor.  Process the node's steps in
        // increasing superstep order; a value is available for sending from
        // processor q in superstep s if it was computed there (π(v) = q,
        // τ(v) ≤ s) or received there in some strictly earlier superstep.
        let run = &mut grouped[offset[v]..offset[v + 1]];
        if !run.is_sorted() {
            run.sort_unstable();
        }
        let mut i = 0;
        while i < run.len() {
            let s = run[i].0 as usize;
            // Validate the whole group of steps with superstep == s first.
            let mut j = i;
            while j < run.len() && run[j].0 as usize == s {
                let from = run[j].1 as usize;
                let computed_here = sched.proc(v) == from && sched.superstep(v) <= s;
                let received_here = arrivals.get(v, from).is_some_and(|r| r < s);
                if !computed_here && !received_here {
                    return Err(ValidityError::SourceValueNotPresent {
                        node: v,
                        from,
                        step: s,
                    });
                }
                j += 1;
            }
            // Now record this group's receptions.
            for &(step, _, to) in &run[i..j] {
                arrivals.record(v, to as usize, step as usize);
            }
            i = j;
        }
        // Condition 1 for the edges out of `v`, while its arrivals are at
        // hand.  A failure must not pre-empt a condition-2 failure of a
        // later node, and the edge to report is the first in *consumer*
        // order, so only the lowest consumer is remembered here.
        for w in dag.successors(v) {
            if broken.is_none_or(|b| w < b)
                && check_edge(sched, v, w, |q| arrivals.get(v, q)).is_err()
            {
                broken = Some(w);
            }
        }
    }

    // Condition 1, reported as a walk over consumers would find it: the
    // first failing predecessor of the lowest failing node.  Γ is grouped
    // and sorted by now, so one edge's arrival is a scan of one run.
    if let Some(v) = broken {
        for u in dag.predecessors(v) {
            let run = &grouped[offset[u]..offset[u + 1]];
            check_edge(sched, u, v, |q| {
                run.iter()
                    .find(|&&(_, _, to)| to as usize == q)
                    .map(|&(s, _, _)| s as usize)
            })?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{CommSchedule, CommStep};
    use crate::schedule::Assignment;

    fn chain() -> Dag {
        Dag::from_edges(3, &[(0, 1), (1, 2)], vec![1, 1, 1], vec![1, 1, 1]).unwrap()
    }

    #[test]
    fn lazy_schedules_are_always_valid() {
        let dag = chain();
        let machine = Machine::uniform(3, 1, 1);
        let assignment = Assignment {
            proc: vec![0, 1, 2],
            superstep: vec![0, 1, 2],
        };
        let sched = BspSchedule::from_assignment_lazy(&dag, assignment);
        assert!(sched.validate(&dag, &machine).is_ok());
    }

    #[test]
    fn missing_communication_is_detected() {
        let dag = chain();
        let machine = Machine::uniform(2, 1, 1);
        let assignment = Assignment {
            proc: vec![0, 1, 1],
            superstep: vec![0, 1, 2],
        };
        let sched = BspSchedule {
            assignment,
            comm: CommSchedule::empty(),
        };
        assert_eq!(
            sched.validate(&dag, &machine),
            Err(ValidityError::MissingCommunication { pred: 0, node: 1 })
        );
    }

    #[test]
    fn same_processor_ordering_violation_is_detected() {
        let dag = chain();
        let machine = Machine::uniform(2, 1, 1);
        let assignment = Assignment {
            proc: vec![0, 0, 0],
            superstep: vec![1, 0, 2],
        };
        let sched = BspSchedule::from_assignment_lazy(&dag, assignment);
        assert_eq!(
            sched.validate(&dag, &machine),
            Err(ValidityError::PrecedenceSameProcessor { pred: 0, node: 1 })
        );
    }

    #[test]
    fn communication_must_not_arrive_in_same_superstep_as_use() {
        let dag = chain();
        let machine = Machine::uniform(2, 1, 1);
        let assignment = Assignment {
            proc: vec![0, 1, 1],
            superstep: vec![0, 1, 1],
        };
        // Node 0 sent in superstep 1, but node 1 is computed in superstep 1:
        // the value only becomes available for superstep 2.
        let comm = CommSchedule::from_steps(vec![CommStep {
            node: 0,
            from: 0,
            to: 1,
            step: 1,
        }]);
        let sched = BspSchedule { assignment, comm };
        assert_eq!(
            sched.validate(&dag, &machine),
            Err(ValidityError::MissingCommunication { pred: 0, node: 1 })
        );
    }

    #[test]
    fn sending_a_value_not_present_is_detected() {
        let dag = chain();
        let machine = Machine::uniform(3, 1, 1);
        let assignment = Assignment {
            proc: vec![0, 0, 0],
            superstep: vec![0, 0, 0],
        };
        // Node 1's value "sent" from processor 2, where it never was.
        let comm = CommSchedule::from_steps(vec![CommStep {
            node: 1,
            from: 2,
            to: 1,
            step: 0,
        }]);
        let sched = BspSchedule { assignment, comm };
        assert_eq!(
            sched.validate(&dag, &machine),
            Err(ValidityError::SourceValueNotPresent {
                node: 1,
                from: 2,
                step: 0
            })
        );
    }

    #[test]
    fn forwarding_chains_are_allowed() {
        // 0 (proc 0) -> 1 (proc 2); value routed 0 -> 1 -> 2 over two
        // communication phases.
        let dag = Dag::from_edges(2, &[(0, 1)], vec![1, 1], vec![1, 1]).unwrap();
        let machine = Machine::uniform(3, 1, 1);
        let assignment = Assignment {
            proc: vec![0, 2],
            superstep: vec![0, 2],
        };
        let comm = CommSchedule::from_steps(vec![
            CommStep {
                node: 0,
                from: 0,
                to: 1,
                step: 0,
            },
            CommStep {
                node: 0,
                from: 1,
                to: 2,
                step: 1,
            },
        ]);
        let sched = BspSchedule { assignment, comm };
        assert!(sched.validate(&dag, &machine).is_ok());
    }

    #[test]
    fn forwarding_in_same_superstep_is_rejected() {
        let dag = Dag::from_edges(2, &[(0, 1)], vec![1, 1], vec![1, 1]).unwrap();
        let machine = Machine::uniform(3, 1, 1);
        let assignment = Assignment {
            proc: vec![0, 2],
            superstep: vec![0, 2],
        };
        // Both hops in superstep 0: the second hop forwards a value that only
        // arrives at processor 1 at the end of that same communication phase.
        let comm = CommSchedule::from_steps(vec![
            CommStep {
                node: 0,
                from: 0,
                to: 1,
                step: 0,
            },
            CommStep {
                node: 0,
                from: 1,
                to: 2,
                step: 0,
            },
        ]);
        let sched = BspSchedule { assignment, comm };
        assert_eq!(
            sched.validate(&dag, &machine),
            Err(ValidityError::SourceValueNotPresent {
                node: 0,
                from: 1,
                step: 0
            })
        );
    }

    #[test]
    fn processor_out_of_range_is_detected() {
        let dag = chain();
        let machine = Machine::uniform(2, 1, 1);
        let assignment = Assignment {
            proc: vec![0, 5, 0],
            superstep: vec![0, 0, 0],
        };
        let sched = BspSchedule {
            assignment,
            comm: CommSchedule::empty(),
        };
        assert!(matches!(
            sched.validate(&dag, &machine),
            Err(ValidityError::ProcessorOutOfRange {
                node: 1,
                proc: 5,
                p: 2
            })
        ));
    }

    #[test]
    fn comm_step_for_a_node_out_of_range_is_a_typed_error() {
        // Wire-decoded schedules reach `validate` on the client side: a step
        // naming node 7 of a 3-node DAG used to index out of bounds.
        let dag = chain();
        let machine = Machine::uniform(2, 1, 1);
        let assignment = Assignment {
            proc: vec![0, 0, 0],
            superstep: vec![0, 0, 0],
        };
        let comm = CommSchedule::from_steps(vec![CommStep {
            node: 7,
            from: 0,
            to: 1,
            step: 0,
        }]);
        let sched = BspSchedule { assignment, comm };
        assert_eq!(
            sched.validate(&dag, &machine),
            Err(ValidityError::CommNodeOutOfRange { node: 7, n: 3 })
        );
    }

    #[test]
    fn the_first_violation_is_the_lowest_node_every_time() {
        // Two nodes each send a value from a processor that never held it.
        let n = 40;
        let edges: Vec<(usize, usize)> = (1..n).map(|v| (v - 1, v)).collect();
        let dag = Dag::from_edges(n, &edges, vec![1; n], vec![1; n]).unwrap();
        let machine = Machine::uniform(4, 1, 1);
        let assignment = Assignment {
            proc: vec![0; n],
            superstep: vec![0; n],
        };
        let bad = |node| CommStep {
            node,
            from: 2,
            to: 3,
            step: 1,
        };
        let sched = BspSchedule {
            assignment,
            comm: CommSchedule::from_steps(vec![bad(31), bad(5)]),
        };
        for _ in 0..64 {
            assert_eq!(
                sched.validate(&dag, &machine),
                Err(ValidityError::SourceValueNotPresent {
                    node: 5,
                    from: 2,
                    step: 1
                })
            );
        }
    }
}
