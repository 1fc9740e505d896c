//! Coarse-grained computational DAGs (Appendix B.1 of the paper).
//!
//! In the coarse-grained representation every node is (the output of) a whole
//! matrix or vector operation of a GraphBLAS program.  The paper extracts these
//! DAGs by instrumenting a C++ GraphBLAS implementation; we synthesize the same
//! DAGs directly from the data flow of the algorithms (the substitution is
//! documented in `DESIGN.md`): conjugate gradient, a BiCGStab-like solver,
//! PageRank, label propagation and `k`-NN reachability, each run for a given
//! number of iterations.
//!
//! Weights follow the paper's extraction rule: `w(v) = indeg(v) − 1` clamped to
//! ≥ 1 (sources get 1, representing the cost of loading the container) and
//! `c(v) = 1` for every node.

use crate::Assembler;
use bsp_model::Dag;

/// Which GraphBLAS-style algorithm to generate a coarse-grained DAG for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoarseAlgorithm {
    /// Conjugate gradient for positive-definite systems.
    ConjugateGradient,
    /// A BiCGStab-like solver for general systems (two matrix products per iteration).
    BiCgStab,
    /// The PageRank power iteration.
    PageRank,
    /// Label propagation (one matrix product plus element-wise ops per iteration).
    LabelPropagation,
    /// `k`-hop reachability (sparse vector times matrix per iteration).
    KNearestNeighbours,
}

impl CoarseAlgorithm {
    /// All supported algorithms, in a fixed order.
    pub const ALL: [CoarseAlgorithm; 5] = [
        CoarseAlgorithm::ConjugateGradient,
        CoarseAlgorithm::BiCgStab,
        CoarseAlgorithm::PageRank,
        CoarseAlgorithm::LabelPropagation,
        CoarseAlgorithm::KNearestNeighbours,
    ];

    /// A short human-readable name used in dataset instance labels.
    pub fn name(&self) -> &'static str {
        match self {
            CoarseAlgorithm::ConjugateGradient => "cg",
            CoarseAlgorithm::BiCgStab => "bicgstab",
            CoarseAlgorithm::PageRank => "pagerank",
            CoarseAlgorithm::LabelPropagation => "labelprop",
            CoarseAlgorithm::KNearestNeighbours => "knn",
        }
    }
}

/// Parameters of the coarse-grained generator.
#[derive(Debug, Clone, Copy)]
pub struct CoarseConfig {
    pub algorithm: CoarseAlgorithm,
    /// Number of iterations of the iterative method.
    pub iterations: usize,
}

/// Generates the coarse-grained computational DAG of the configured algorithm.
pub fn coarse(config: &CoarseConfig) -> Dag {
    match config.algorithm {
        CoarseAlgorithm::ConjugateGradient => coarse_cg(config.iterations),
        CoarseAlgorithm::BiCgStab => coarse_bicgstab(config.iterations),
        CoarseAlgorithm::PageRank => coarse_pagerank(config.iterations),
        CoarseAlgorithm::LabelPropagation => coarse_labelprop(config.iterations),
        CoarseAlgorithm::KNearestNeighbours => coarse_knn(config.iterations),
    }
}

fn coarse_cg(iterations: usize) -> Dag {
    let mut asm = Assembler::new();
    let a = asm.node(&[]); // matrix A
    let b = asm.node(&[]); // right-hand side
    let mut x = asm.node(&[]); // initial guess
    let ax0 = asm.node(&[a, x]);
    let mut r = asm.node(&[b, ax0]); // r = b - A x
    let mut p = asm.node(&[r]); // p = r
    let mut rr = asm.node(&[r]); // ρ = r·r
    for _ in 0..iterations {
        let q = asm.node(&[a, p]); // q = A p
        let pq = asm.node(&[p, q]); // p·q
        let alpha = asm.node(&[rr, pq]);
        x = asm.node(&[x, p, alpha]);
        r = asm.node(&[r, q, alpha]);
        let rr_new = asm.node(&[r]); // r·r
        let beta = asm.node(&[rr_new, rr]);
        p = asm.node(&[r, p, beta]);
        rr = rr_new;
    }
    asm.finish()
}

fn coarse_bicgstab(iterations: usize) -> Dag {
    let mut asm = Assembler::new();
    let a = asm.node(&[]);
    let b = asm.node(&[]);
    let mut x = asm.node(&[]);
    let ax0 = asm.node(&[a, x]);
    let mut r = asm.node(&[b, ax0]);
    let r0 = asm.node(&[r]); // shadow residual
    let mut p = asm.node(&[r]);
    let mut rho = asm.node(&[r0, r]);
    for _ in 0..iterations {
        let v = asm.node(&[a, p]);
        let r0v = asm.node(&[r0, v]);
        let alpha = asm.node(&[rho, r0v]);
        let s = asm.node(&[r, v, alpha]);
        let t = asm.node(&[a, s]);
        let ts = asm.node(&[t, s]);
        let tt = asm.node(&[t]); // t·t
        let omega = asm.node(&[ts, tt]);
        x = asm.node(&[x, p, s, alpha, omega]);
        r = asm.node(&[s, t, omega]);
        let rho_new = asm.node(&[r0, r]);
        let beta = asm.node(&[rho_new, rho, alpha, omega]);
        p = asm.node(&[r, p, v, beta, omega]);
        rho = rho_new;
    }
    asm.finish()
}

fn coarse_pagerank(iterations: usize) -> Dag {
    let mut asm = Assembler::new();
    let a = asm.node(&[]); // column-stochastic link matrix
    let teleport = asm.node(&[]); // teleport vector
    let mut rank = asm.node(&[]); // initial rank vector
    for _ in 0..iterations {
        let spread = asm.node(&[a, rank]); // A·rank
        let damped = asm.node(&[spread]); // d · (A·rank)
        let new_rank = asm.node(&[damped, teleport]); // + (1-d)/n
        let norm = asm.node(&[new_rank]); // ‖rank‖₁
        let scaled = asm.node(&[new_rank, norm]);
        let _diff = asm.node(&[scaled, rank]); // convergence check
        rank = scaled;
    }
    asm.finish()
}

fn coarse_labelprop(iterations: usize) -> Dag {
    let mut asm = Assembler::new();
    let a = asm.node(&[]); // adjacency matrix
    let mut labels = asm.node(&[]); // initial labels
    for _ in 0..iterations {
        let votes = asm.node(&[a, labels]); // neighbour votes
        let argmax = asm.node(&[votes]); // per-vertex majority label
        let changed = asm.node(&[argmax, labels]); // convergence check
        let merged = asm.node(&[argmax, changed]);
        labels = merged;
    }
    asm.finish()
}

fn coarse_knn(iterations: usize) -> Dag {
    let mut asm = Assembler::new();
    let a = asm.node(&[]);
    let mut frontier = asm.node(&[]); // e_s
    let mut visited = asm.node(&[frontier]);
    for _ in 0..iterations {
        let next = asm.node(&[a, frontier]); // A·frontier
        let pruned = asm.node(&[next, visited]); // mask out already-visited
        visited = asm.node(&[visited, pruned]);
        frontier = pruned;
    }
    asm.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_algorithms_produce_valid_dags() {
        for alg in CoarseAlgorithm::ALL {
            let dag = coarse(&CoarseConfig {
                algorithm: alg,
                iterations: 3,
            });
            assert!(dag.topological_order().is_some(), "{alg:?}");
            assert!(dag.n() >= 10, "{alg:?} produced only {} nodes", dag.n());
            for v in 0..dag.n() {
                assert_eq!(dag.comm(v), 1);
                assert!(dag.work(v) >= 1);
            }
        }
    }

    #[test]
    fn node_count_scales_linearly_with_iterations() {
        let small = coarse(&CoarseConfig {
            algorithm: CoarseAlgorithm::ConjugateGradient,
            iterations: 3,
        });
        let big = coarse(&CoarseConfig {
            algorithm: CoarseAlgorithm::ConjugateGradient,
            iterations: 13,
        });
        // 8 nodes per CG iteration.
        assert_eq!(big.n() - small.n(), 10 * 8);
    }

    #[test]
    fn cg_iteration_structure_is_connected() {
        let dag = coarse(&CoarseConfig {
            algorithm: CoarseAlgorithm::ConjugateGradient,
            iterations: 5,
        });
        assert_eq!(dag.largest_weakly_connected_component().len(), dag.n());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(CoarseAlgorithm::PageRank.name(), "pagerank");
        assert_eq!(CoarseAlgorithm::ALL.len(), 5);
    }
}
