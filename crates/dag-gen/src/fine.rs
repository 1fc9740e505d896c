//! Fine-grained computational DAG generators (Appendix B.2 of the paper).
//!
//! Each generator synthesizes the computational DAG of a concrete algebraic
//! kernel driven by a random sparse matrix pattern: every node is a scalar
//! operation (a multiplication or a reduction of a few scalars).  Following
//! the paper, work weights are `w(v) = indeg(v) − 1` (clamped to at least 1,
//! with sources at 1) and communication weights are `c(v) = 1`.
//!
//! * [`spmv`] — one sparse matrix–vector multiplication `y = A·u` (depth 3).
//! * [`exp`] — the iterated product `A^k · u` (k chained spmv's).
//! * [`cg`] — `k` iterations of the conjugate-gradient method.
//! * [`knn`] — `k`-hop reachability from a single source (`A^k · e_s` with a
//!   sparse frontier).

use crate::sparse::SparsePattern;
use crate::Assembler;
use bsp_model::{Dag, NodeId};

/// Parameters of the [`spmv`] generator.
#[derive(Debug, Clone, Copy)]
pub struct SpmvConfig {
    /// Matrix dimension `N`.
    pub n: usize,
    /// Probability that an entry of `A` is nonzero.
    pub density: f64,
    /// RNG seed for the matrix pattern.
    pub seed: u64,
}

/// Parameters of the iterative generators ([`exp`], [`cg`], [`knn`]).
#[derive(Debug, Clone, Copy)]
pub struct IterConfig {
    /// Matrix dimension `N`.
    pub n: usize,
    /// Probability that an entry of `A` is nonzero.
    pub density: f64,
    /// Number of iterations `k`.
    pub iterations: usize,
    /// RNG seed for the matrix pattern.
    pub seed: u64,
}

/// One sparse matrix–vector multiplication `y = A·u`.
///
/// Level 0: one node per vector entry `u[j]` and one per nonzero `A[i,j]`;
/// level 1: one product node per nonzero; level 2: one reduction node per row
/// with at least one nonzero.  The longest path therefore always has exactly
/// three nodes, making these the "shallow" DAGs of the paper's training set.
pub fn spmv(config: &SpmvConfig) -> Dag {
    let pattern = SparsePattern::random_with_diagonal(config.n, config.density, config.seed);
    let mut asm = Assembler::new();
    let u: Vec<NodeId> = (0..config.n).map(|_| asm.node(&[])).collect();
    let mut a = vec![Vec::new(); config.n];
    for i in 0..config.n {
        for &j in pattern.row(i) {
            a[i].push((j, asm.node(&[])));
        }
    }
    for i in 0..config.n {
        let mut products = Vec::new();
        for &(j, a_node) in &a[i] {
            products.push(asm.node(&[a_node, u[j]]));
        }
        if !products.is_empty() {
            asm.node(&products);
        }
    }
    asm.finish()
}

/// The iterated sparse matrix–vector product `A^k · u` ("exp" in the paper):
/// `k` chained spmv operations sharing the same matrix-entry source nodes.
pub fn exp(config: &IterConfig) -> Dag {
    let pattern = SparsePattern::random_with_diagonal(config.n, config.density, config.seed);
    let mut asm = Assembler::new();
    let mut current: Vec<NodeId> = (0..config.n).map(|_| asm.node(&[])).collect();
    let mut a = vec![Vec::new(); config.n];
    for i in 0..config.n {
        for &j in pattern.row(i) {
            a[i].push((j, asm.node(&[])));
        }
    }
    for _ in 0..config.iterations {
        let mut next = Vec::with_capacity(config.n);
        for i in 0..config.n {
            let mut products = Vec::new();
            for &(j, a_node) in &a[i] {
                products.push(asm.node(&[a_node, current[j]]));
            }
            // `random_with_diagonal` guarantees at least one nonzero per row.
            next.push(asm.node(&products));
        }
        current = next;
    }
    asm.finish()
}

/// `k` iterations of the conjugate-gradient method on an `N × N` system.
///
/// Each iteration contains a fine-grained spmv (`q = A·p`), two dot products,
/// the scalar `α`, the vector updates of `x` and `r`, the dot product of the
/// new residual, the scalar `β`, and the update of the search direction `p` —
/// exactly the data flow of the textbook algorithm at scalar granularity.
pub fn cg(config: &IterConfig) -> Dag {
    let n = config.n;
    let pattern = SparsePattern::random_with_diagonal(n, config.density, config.seed);
    let mut asm = Assembler::new();
    let mut x: Vec<NodeId> = (0..n).map(|_| asm.node(&[])).collect();
    let mut r: Vec<NodeId> = (0..n).map(|_| asm.node(&[])).collect();
    let mut p: Vec<NodeId> = (0..n).map(|_| asm.node(&[])).collect();
    let mut a = vec![Vec::new(); n];
    for i in 0..n {
        for &j in pattern.row(i) {
            a[i].push((j, asm.node(&[])));
        }
    }
    // r·r of the initial residual.
    let mut rr = asm.node(&r);
    for _ in 0..config.iterations {
        // q = A p (fine-grained spmv).
        let mut q = Vec::with_capacity(n);
        for i in 0..n {
            let mut products = Vec::new();
            for &(j, a_node) in &a[i] {
                products.push(asm.node(&[a_node, p[j]]));
            }
            q.push(asm.node(&products));
        }
        // p·q and α = rr / p·q.
        let pq_preds: Vec<NodeId> = p.iter().chain(q.iter()).copied().collect();
        let pq = asm.node(&pq_preds);
        let alpha = asm.node(&[rr, pq]);
        // x ← x + α p,  r ← r − α q.
        let mut x_new = Vec::with_capacity(n);
        let mut r_new = Vec::with_capacity(n);
        for i in 0..n {
            x_new.push(asm.node(&[x[i], p[i], alpha]));
            r_new.push(asm.node(&[r[i], q[i], alpha]));
        }
        // β = (r'·r') / (r·r), p ← r' + β p.
        let rr_new = asm.node(&r_new);
        let beta = asm.node(&[rr_new, rr]);
        let mut p_new = Vec::with_capacity(n);
        for i in 0..n {
            p_new.push(asm.node(&[r_new[i], p[i], beta]));
        }
        x = x_new;
        r = r_new;
        p = p_new;
        rr = rr_new;
    }
    // The solution vector depends on everything relevant; no extra sink needed.
    let _ = (x, r, p);
    asm.finish()
}

/// `k`-hop reachability from a single source node (`kNN` in GraphBLAS
/// terminology): the multiplication of `A` with a vector that has a single
/// nonzero entry, iterated `k` times.  Only the nonzero frontier produces
/// computation, so these DAGs start narrow and widen with each iteration.
pub fn knn(config: &IterConfig) -> Dag {
    let n = config.n;
    let pattern = SparsePattern::random_with_diagonal(n, config.density, config.seed);
    let mut asm = Assembler::new();
    // Current frontier values: index -> node id of the current value of u[j].
    let source_index = (config.seed as usize) % n;
    let mut current: Vec<Option<NodeId>> = vec![None; n];
    current[source_index] = Some(asm.node(&[]));
    // Matrix entry source nodes, created lazily when first used.
    let mut a_nodes: Vec<Vec<Option<NodeId>>> =
        (0..n).map(|i| vec![None; pattern.row(i).len()]).collect();
    for _ in 0..config.iterations {
        let mut next: Vec<Option<NodeId>> = vec![None; n];
        for i in 0..n {
            let mut products = Vec::new();
            for (idx, &j) in pattern.row(i).iter().enumerate() {
                if let Some(u_node) = current[j] {
                    let a_node = *a_nodes[i][idx].get_or_insert_with(|| asm.node(&[]));
                    products.push(asm.node(&[a_node, u_node]));
                }
            }
            if !products.is_empty() {
                next[i] = Some(asm.node(&products));
            }
        }
        current = next;
    }
    asm.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spmv_depth_is_three() {
        let dag = spmv(&SpmvConfig {
            n: 10,
            density: 0.3,
            seed: 1,
        });
        let depth = dag.levels().into_iter().max().unwrap() + 1;
        assert_eq!(depth, 3);
        assert!(dag.n() > 10);
        assert!(dag.topological_order().is_some());
    }

    #[test]
    fn spmv_weights_follow_graphblas_rule() {
        let dag = spmv(&SpmvConfig {
            n: 6,
            density: 0.4,
            seed: 2,
        });
        for v in 0..dag.n() {
            assert_eq!(dag.comm(v), 1);
            let indeg = dag.in_degree(v) as u64;
            if indeg <= 1 {
                assert_eq!(dag.work(v), 1);
            } else {
                assert_eq!(dag.work(v), indeg - 1);
            }
        }
    }

    #[test]
    fn exp_depth_grows_with_iterations() {
        let d1 = exp(&IterConfig {
            n: 8,
            density: 0.25,
            iterations: 1,
            seed: 3,
        });
        let d3 = exp(&IterConfig {
            n: 8,
            density: 0.25,
            iterations: 3,
            seed: 3,
        });
        let depth = |d: &Dag| d.levels().into_iter().max().unwrap() + 1;
        assert!(depth(&d3) > depth(&d1));
        assert!(d3.n() > d1.n());
    }

    #[test]
    fn cg_produces_connected_iterative_structure() {
        let dag = cg(&IterConfig {
            n: 6,
            density: 0.3,
            iterations: 2,
            seed: 4,
        });
        assert!(dag.n() > 50);
        assert!(dag.topological_order().is_some());
        // The largest weakly connected component should cover essentially the
        // whole DAG (all vectors feed into the dot products).
        let comp = dag.largest_weakly_connected_component();
        assert_eq!(comp.len(), dag.n());
    }

    #[test]
    fn knn_frontier_widens() {
        let dag = knn(&IterConfig {
            n: 30,
            density: 0.15,
            iterations: 4,
            seed: 5,
        });
        assert!(dag.n() > 5);
        assert!(dag.topological_order().is_some());
        // Source count: matrix entries plus the single starting vector entry.
        let sources = dag.sources();
        assert!(!sources.is_empty());
    }

    #[test]
    fn generators_are_deterministic() {
        let a = cg(&IterConfig {
            n: 5,
            density: 0.3,
            iterations: 2,
            seed: 9,
        });
        let b = cg(&IterConfig {
            n: 5,
            density: 0.3,
            iterations: 2,
            seed: 9,
        });
        assert_eq!(a, b);
    }
}
