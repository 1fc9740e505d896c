//! The text codec and the validator as they were before they were rewritten
//! to touch each byte once, moved here unchanged (only `Dag::from_edges`'
//! edge walk is cut down to the part that was replaced): the reference
//! `tests/codec_equivalence.rs` holds the library's versions against.

use bsp_model::{BspSchedule, Dag, DagError, Machine, NodeId, ValidityError};
use dag_gen::HyperDagError;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::num::ParseIntError;

fn parse_num(tok: &str, line: usize) -> Result<u64, HyperDagError> {
    tok.parse()
        .map_err(|_: ParseIntError| HyperDagError::Number { line })
}

/// `dag_gen::write_hyperdag`, through `fmt`.
pub fn write_hyperdag(dag: &Dag) -> String {
    let n = dag.n();
    let hyperedges: Vec<NodeId> = (0..n).filter(|&v| dag.out_degree(v) > 0).collect();
    let num_pins: usize = hyperedges.iter().map(|&v| 1 + dag.out_degree(v)).sum();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "% hyperDAG export: {} nodes, {} hyperedges",
        n,
        hyperedges.len()
    );
    let _ = writeln!(out, "{} {} {}", hyperedges.len(), n, num_pins);
    for (h, &v) in hyperedges.iter().enumerate() {
        let _ = writeln!(out, "{h} {v}");
        for w in dag.successors(v) {
            let _ = writeln!(out, "{h} {w}");
        }
    }
    for v in 0..n {
        let _ = writeln!(out, "{v} {} {}", dag.work(v), dag.comm(v));
    }
    out
}

/// `dag_gen::read_hyperdag`, over `str::lines` and `split_whitespace`.
pub fn read_hyperdag(text: &str) -> Result<Dag, HyperDagError> {
    let is_data = |l: &str| !l.is_empty() && !l.starts_with('%');
    let data_line_count = text.lines().map(str::trim).filter(|l| is_data(l)).count();
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| is_data(l));

    let (header_line, header) = lines.next().ok_or(HyperDagError::Malformed {
        line: 0,
        reason: "empty file".into(),
    })?;
    let mut it = header.split_whitespace();
    let (he, nodes, pins) = match (it.next(), it.next(), it.next(), it.next()) {
        (Some(a), Some(b), Some(c), None) => (
            parse_num(a, header_line)? as usize,
            parse_num(b, header_line)? as usize,
            parse_num(c, header_line)? as usize,
        ),
        _ => {
            return Err(HyperDagError::Malformed {
                line: header_line,
                reason: "header must be `<hyperedges> <nodes> <pins>`".into(),
            })
        }
    };

    // Sanity-check the declared counts against the data that is actually
    // there: one line per pin plus one line per node must fit in the input,
    // and every hyperedge needs at least one pin.  These bounds make the
    // allocations below proportional to the input size, whatever the header
    // claims.
    let body_lines = data_line_count - 1;
    if pins.saturating_add(nodes) > body_lines {
        return Err(HyperDagError::Malformed {
            line: header_line,
            reason: format!(
                "header declares {pins} pins + {nodes} nodes but only {body_lines} data lines follow"
            ),
        });
    }
    if he > pins {
        return Err(HyperDagError::Malformed {
            line: header_line,
            reason: format!("header declares {he} hyperedges but only {pins} pins"),
        });
    }

    // Pins.
    let mut hyperedge_pins: Vec<Vec<NodeId>> = vec![Vec::new(); he];
    for _ in 0..pins {
        let (line_no, line) = lines.next().ok_or(HyperDagError::Malformed {
            line: header_line,
            reason: "fewer pin lines than declared".into(),
        })?;
        let mut it = line.split_whitespace();
        let (h, v) = match (it.next(), it.next(), it.next()) {
            (Some(a), Some(b), None) => (
                parse_num(a, line_no)? as usize,
                parse_num(b, line_no)? as usize,
            ),
            _ => {
                return Err(HyperDagError::Malformed {
                    line: line_no,
                    reason: "pin line must be `<hyperedge> <node>`".into(),
                })
            }
        };
        if h >= he || v >= nodes {
            return Err(HyperDagError::Malformed {
                line: line_no,
                reason: format!("pin ({h}, {v}) out of range"),
            });
        }
        hyperedge_pins[h].push(v);
    }

    // Node weights.
    let mut work = vec![1u64; nodes];
    let mut comm = vec![1u64; nodes];
    for _ in 0..nodes {
        let (line_no, line) = lines.next().ok_or(HyperDagError::Malformed {
            line: header_line,
            reason: "fewer node lines than declared".into(),
        })?;
        let mut it = line.split_whitespace();
        match (it.next(), it.next(), it.next(), it.next()) {
            (Some(a), Some(b), Some(c), None) => {
                let v = parse_num(a, line_no)? as usize;
                if v >= nodes {
                    return Err(HyperDagError::Malformed {
                        line: line_no,
                        reason: format!("node {v} out of range"),
                    });
                }
                work[v] = parse_num(b, line_no)?;
                comm[v] = parse_num(c, line_no)?;
            }
            _ => {
                return Err(HyperDagError::Malformed {
                    line: line_no,
                    reason: "node line must be `<node> <work> <comm>`".into(),
                })
            }
        }
    }

    // Hyperedges back to edges: the first pin of a hyperedge is the source.
    let mut edges = Vec::new();
    for pins in &hyperedge_pins {
        if let Some((&src, rest)) = pins.split_first() {
            for &dst in rest {
                if src != dst {
                    edges.push((src, dst));
                }
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();
    Ok(Dag::from_edges(nodes, &edges, work, comm)?)
}

/// The sequential edge walk of `Dag::from_edges`: the first edge that is out
/// of range, a self-loop or a repeat of an earlier one.
pub fn first_edge_defect(n: usize, edges: &[(NodeId, NodeId)]) -> Option<DagError> {
    let mut seen = HashSet::with_capacity(edges.len());
    for &(u, v) in edges {
        if u >= n {
            return Some(DagError::NodeOutOfRange { node: u, n });
        }
        if v >= n {
            return Some(DagError::NodeOutOfRange { node: v, n });
        }
        if u == v {
            return Some(DagError::SelfLoop { node: u });
        }
        if !seen.insert((u, v)) {
            return Some(DagError::DuplicateEdge { from: u, to: v });
        }
    }
    None
}

/// `bsp_model::validity::validate`, over three `HashMap`s.  Panics on a
/// communication step whose node is out of range, and reports condition-2
/// violations in hash order: callers keep to inputs with neither.
pub fn validate(dag: &Dag, machine: &Machine, sched: &BspSchedule) -> Result<(), ValidityError> {
    let n = dag.n();
    let p = machine.p();
    let assignment = &sched.assignment;

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
    // Γ's 32-bit fields as `(node, from, to, step)`.
    let gamma = || {
        sched.comm.steps().iter().map(|cs| {
            (
                cs.node as usize,
                cs.from as usize,
                cs.to as usize,
                cs.step as usize,
            )
        })
    };
    for (node, from, to, _) in gamma() {
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
    }

    // earliest_arrival[(v, q)] = earliest superstep s such that (v, *, q, s) ∈ Γ.
    let mut earliest_arrival: HashMap<(usize, usize), usize> = HashMap::new();
    for (node, _, to, step) in gamma() {
        earliest_arrival
            .entry((node, to))
            .and_modify(|s| *s = (*s).min(step))
            .or_insert(step);
    }

    // Condition 2: every communication step sends a value that is present on
    // its source processor.  Process each node's steps in increasing superstep
    // order; a value is available for sending from processor q in superstep s
    // if it was computed there (π(v) = q, τ(v) ≤ s) or received there in some
    // strictly earlier superstep.
    let mut by_node: HashMap<usize, Vec<(usize, usize, usize)>> = HashMap::new();
    for (node, from, to, step) in gamma() {
        by_node.entry(node).or_default().push((step, from, to));
    }
    for (&v, steps) in by_node.iter_mut() {
        steps.sort_unstable();
        // received_before[q] = earliest superstep at which q received v (among
        // steps already processed, i.e. strictly earlier supersteps).
        let mut received_before: HashMap<usize, usize> = HashMap::new();
        let mut i = 0;
        while i < steps.len() {
            let s = steps[i].0;
            // Validate the whole group of steps with superstep == s first.
            let mut j = i;
            while j < steps.len() && steps[j].0 == s {
                let (_, from, _) = steps[j];
                let computed_here = sched.proc(v) == from && sched.superstep(v) <= s;
                let received_here = received_before.get(&from).is_some_and(|&r| r < s);
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
            for &(step, _, to) in &steps[i..j] {
                received_before
                    .entry(to)
                    .and_modify(|r| *r = (*r).min(step))
                    .or_insert(step);
            }
            i = j;
        }
    }

    // Condition 1: precedence constraints.
    for v in 0..n {
        for u in dag.predecessors(v) {
            if sched.proc(u) == sched.proc(v) {
                if sched.superstep(u) > sched.superstep(v) {
                    return Err(ValidityError::PrecedenceSameProcessor { pred: u, node: v });
                }
            } else {
                let ok = earliest_arrival
                    .get(&(u, sched.proc(v)))
                    .is_some_and(|&s| s < sched.superstep(v));
                if !ok {
                    return Err(ValidityError::MissingCommunication { pred: u, node: v });
                }
            }
        }
    }

    Ok(())
}
