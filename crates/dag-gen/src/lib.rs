//! # dag-gen
//!
//! The computational-DAG database substrate of the paper: generators for
//! fine-grained and coarse-grained computational DAGs, the hyperDAG text
//! format, and the seeded experiment datasets.
//!
//! * [`sparse`] — random sparse matrix patterns driving the fine-grained
//!   generators.
//! * [`fine`] — fine-grained DAGs (`spmv`, `exp`, `cg`, `knn`), one node per
//!   scalar operation.
//! * [`coarse`] — coarse-grained GraphBLAS-style DAGs, one node per
//!   matrix/vector operation.
//! * [`hyperdag`] — the hypergraph text format used by the paper's database.
//! * [`dataset`] — the training / tiny / small / medium / large / huge
//!   datasets used in the experiments.

pub mod coarse;
pub mod dataset;
pub mod fine;
pub mod hyperdag;
pub mod sparse;

pub use coarse::{coarse as coarse_dag, CoarseAlgorithm, CoarseConfig};
pub use dataset::{Dataset, DatasetKind, NamedDag};
pub use fine::{cg, exp, knn, spmv, IterConfig, SpmvConfig};
pub use hyperdag::{read_hyperdag, write_hyperdag, HyperDagError};
pub use sparse::SparsePattern;

use bsp_model::{Dag, NodeId};

/// Builds a generator's DAG node by node, in creation order, with the
/// GraphBLAS weights of the paper: `w(v) = indeg(v) − 1` clamped to ≥ 1 (so a
/// source gets 1, the cost of loading its container) and `c(v) = 1`.
struct Assembler {
    edges: Vec<(NodeId, NodeId)>,
    next: NodeId,
}

impl Assembler {
    fn new() -> Self {
        Assembler {
            edges: Vec::new(),
            next: 0,
        }
    }

    /// A fresh node with an edge from each of `preds`.  An operand is listed
    /// once (a dot product of a vector with itself has one predecessor);
    /// [`Dag::from_edges`] rejects a repeated edge.
    fn node(&mut self, preds: &[NodeId]) -> NodeId {
        let id = self.next;
        self.next += 1;
        self.edges.extend(preds.iter().map(|&p| (p, id)));
        id
    }

    fn finish(self) -> Dag {
        let n = self.next;
        let mut indeg = vec![0u64; n];
        for &(_, v) in &self.edges {
            indeg[v] += 1;
        }
        let work = indeg.iter().map(|&d| d.saturating_sub(1).max(1)).collect();
        Dag::from_edges(n, &self.edges, work, vec![1; n])
            .expect("generator produced an invalid DAG")
    }
}
