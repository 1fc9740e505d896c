//! Error types for DAG construction and schedule validation.

use std::fmt;

/// Errors raised while constructing a [`crate::Dag`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// An edge endpoint referred to a node index `>= n`.
    NodeOutOfRange { node: usize, n: usize },
    /// A self-loop `(v, v)` was added.
    SelfLoop { node: usize },
    /// The same directed edge was added twice.
    DuplicateEdge { from: usize, to: usize },
    /// The directed graph contains a cycle and is therefore not a DAG.
    Cycle,
    /// A weight vector had the wrong length.
    WeightLengthMismatch { expected: usize, got: usize },
    /// More nodes than a 32-bit schedule index can name (`n > u32::MAX`).
    TooManyNodes { n: usize },
    /// More edges than the 32-bit CSR offsets can count (`m > u32::MAX`).
    TooManyEdges { m: usize },
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::NodeOutOfRange { node, n } => {
                write!(f, "node index {node} out of range for DAG with {n} nodes")
            }
            DagError::SelfLoop { node } => write!(f, "self-loop on node {node}"),
            DagError::DuplicateEdge { from, to } => {
                write!(f, "duplicate edge ({from}, {to})")
            }
            DagError::Cycle => write!(f, "the directed graph contains a cycle"),
            DagError::WeightLengthMismatch { expected, got } => {
                write!(f, "weight vector has length {got}, expected {expected}")
            }
            DagError::TooManyNodes { n } => {
                write!(f, "{n} nodes exceed the limit of {}", u32::MAX)
            }
            DagError::TooManyEdges { m } => {
                write!(f, "{m} edges exceed the limit of {}", u32::MAX)
            }
        }
    }
}

impl std::error::Error for DagError {}

/// Reasons why a [`crate::BspSchedule`] is invalid for a given DAG and machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidityError {
    /// The assignment vectors do not have one entry per DAG node.
    AssignmentLengthMismatch { expected: usize, got: usize },
    /// A node was assigned to a processor index `>= P`.
    ProcessorOutOfRange { node: usize, proc: usize, p: usize },
    /// A communication step references a processor index `>= P`.
    CommProcessorOutOfRange { node: usize, proc: usize, p: usize },
    /// A communication step references a node index `>= n`.
    CommNodeOutOfRange { node: usize, n: usize },
    /// A communication step sends a value from a processor to itself.
    CommSelfSend { node: usize, proc: usize },
    /// A precedence constraint `(u, v)` with `π(u) = π(v)` has `τ(u) > τ(v)`.
    PrecedenceSameProcessor { pred: usize, node: usize },
    /// A precedence constraint `(u, v)` with `π(u) ≠ π(v)` is not satisfied by
    /// any communication step arriving at `π(v)` strictly before `τ(v)`.
    MissingCommunication { pred: usize, node: usize },
    /// A communication step `(v, p1, p2, s)` sends a value that is not present
    /// on `p1` by superstep `s` (neither computed there nor received earlier).
    SourceValueNotPresent {
        node: usize,
        from: usize,
        step: usize,
    },
}

impl fmt::Display for ValidityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidityError::AssignmentLengthMismatch { expected, got } => {
                write!(f, "assignment has {got} entries, expected {expected}")
            }
            ValidityError::ProcessorOutOfRange { node, proc, p } => {
                write!(f, "node {node} assigned to processor {proc} but P = {p}")
            }
            ValidityError::CommProcessorOutOfRange { node, proc, p } => {
                write!(
                    f,
                    "communication step for node {node} uses processor {proc} but P = {p}"
                )
            }
            ValidityError::CommNodeOutOfRange { node, n } => {
                write!(
                    f,
                    "communication step references node {node} but the DAG has {n} nodes"
                )
            }
            ValidityError::CommSelfSend { node, proc } => {
                write!(
                    f,
                    "communication step for node {node} sends from processor {proc} to itself"
                )
            }
            ValidityError::PrecedenceSameProcessor { pred, node } => {
                write!(
                    f,
                    "edge ({pred}, {node}) violated: same processor but τ({pred}) > τ({node})"
                )
            }
            ValidityError::MissingCommunication { pred, node } => {
                write!(
                    f,
                    "edge ({pred}, {node}) violated: value of {pred} never arrives at π({node}) \
                     before superstep τ({node})"
                )
            }
            ValidityError::SourceValueNotPresent { node, from, step } => {
                write!(
                    f,
                    "communication step sends node {node} from processor {from} in superstep \
                     {step}, but the value is not present there"
                )
            }
        }
    }
}

impl std::error::Error for ValidityError {}
