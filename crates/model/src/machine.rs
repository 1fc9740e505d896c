//! The BSP machine model extended with NUMA effects.
//!
//! A machine is described by the number of processors `P`, the per-unit
//! communication cost `g`, the per-superstep latency `ℓ`, and — in the NUMA
//! extension — a coefficient `λ_{p1,p2}` for every ordered pair of processors.
//! The default (uniform) case is `λ_{p1,p2} = 1` for `p1 ≠ p2` and `0` on the
//! diagonal.  Hierarchical (binary-tree) NUMA topologies with a per-level
//! multiplier `Δ` reproduce the setting of §6 of the paper: with `P = 8`,
//! `Δ = 3`, the cost from processor 1 is `λ_{1,2} = 1`, `λ_{1,p} = 3` for
//! `p ∈ {3,4}` and `λ_{1,p} = 9` for `p ∈ {5..8}` (1-based numbering).

use serde::{Deserialize, Serialize};

/// How the NUMA coefficients of a [`Machine`] are defined.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NumaTopology {
    /// Uniform BSP: `λ = 1` between distinct processors, `0` on the diagonal.
    Uniform,
    /// A complete binary-tree hierarchy over the processors; communicating over
    /// each additional level multiplies the cost by `delta`.
    BinaryTree { delta: u64 },
    /// Fully explicit `P × P` coefficient matrix (row = sender, column = receiver).
    Explicit(Vec<Vec<u64>>),
}

/// A BSP + NUMA machine description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Machine {
    p: usize,
    g: u64,
    latency: u64,
    topology: NumaTopology,
    /// Materialized `λ` matrix (always present so lookups are O(1)).
    lambda: Vec<Vec<u64>>,
}

impl Machine {
    /// A uniform (non-NUMA) BSP machine with `p` processors, communication
    /// gap `g` and superstep latency `l`.
    pub fn uniform(p: usize, g: u64, l: u64) -> Self {
        assert!(p >= 1, "a machine needs at least one processor");
        let lambda = Self::uniform_matrix(p);
        Machine {
            p,
            g,
            latency: l,
            topology: NumaTopology::Uniform,
            lambda,
        }
    }

    /// A NUMA machine whose processors form the leaves of a complete binary
    /// tree; the per-unit cost between two processors is `delta^(levels-1)`
    /// where `levels` is the number of tree levels one has to climb to reach a
    /// common ancestor.  `p` must be a power of two.
    pub fn numa_binary_tree(p: usize, g: u64, l: u64, delta: u64) -> Self {
        assert!(p >= 1, "a machine needs at least one processor");
        assert!(
            p.is_power_of_two(),
            "binary-tree NUMA requires P to be a power of two"
        );
        let mut lambda = vec![vec![0u64; p]; p];
        for (a, row) in lambda.iter_mut().enumerate() {
            for (b, cell) in row.iter_mut().enumerate() {
                *cell = Self::tree_lambda(a, b, delta);
            }
        }
        Machine {
            p,
            g,
            latency: l,
            topology: NumaTopology::BinaryTree { delta },
            lambda,
        }
    }

    /// A machine with a fully explicit NUMA coefficient matrix.
    ///
    /// The matrix must be `p × p`; the diagonal is forced to zero.
    pub fn with_numa_matrix(p: usize, g: u64, l: u64, matrix: Vec<Vec<u64>>) -> Self {
        assert!(p >= 1, "a machine needs at least one processor");
        assert_eq!(matrix.len(), p, "NUMA matrix must have P rows");
        for row in &matrix {
            assert_eq!(row.len(), p, "NUMA matrix must have P columns");
        }
        let mut lambda = matrix.clone();
        for (i, row) in lambda.iter_mut().enumerate() {
            row[i] = 0;
        }
        Machine {
            p,
            g,
            latency: l,
            topology: NumaTopology::Explicit(matrix),
            lambda,
        }
    }

    fn uniform_matrix(p: usize) -> Vec<Vec<u64>> {
        let mut lambda = vec![vec![1u64; p]; p];
        for (i, row) in lambda.iter_mut().enumerate() {
            row[i] = 0;
        }
        lambda
    }

    fn tree_lambda(a: usize, b: usize, delta: u64) -> u64 {
        if a == b {
            return 0;
        }
        // Number of levels to climb until a and b share a subtree.
        let mut levels = 0u32;
        let (mut x, mut y) = (a, b);
        while x != y {
            x >>= 1;
            y >>= 1;
            levels += 1;
        }
        delta.saturating_pow(levels - 1)
    }

    /// Number of processors `P`.
    #[inline]
    pub fn p(&self) -> usize {
        self.p
    }

    /// Per-unit communication cost `g`.
    #[inline]
    pub fn g(&self) -> u64 {
        self.g
    }

    /// Per-superstep latency `ℓ`.
    #[inline]
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// The NUMA topology description this machine was built from.
    pub fn topology(&self) -> &NumaTopology {
        &self.topology
    }

    /// NUMA coefficient `λ_{p1,p2}` for sending one unit of data from `p1` to `p2`.
    #[inline]
    pub fn lambda(&self, p1: usize, p2: usize) -> u64 {
        self.lambda[p1][p2]
    }

    /// `true` if this machine has non-uniform communication costs.
    pub fn is_numa(&self) -> bool {
        !matches!(self.topology, NumaTopology::Uniform)
    }

    /// Average of `λ_{p1,p2}` over all ordered pairs (including the zero
    /// diagonal), i.e. `Σ λ / P²`.  The `BL-EST`/`ETF` baselines use this value
    /// to fold NUMA effects into their earliest-start-time computation
    /// (Appendix A.1).
    pub fn avg_lambda(&self) -> f64 {
        let total: u64 = self.lambda.iter().flat_map(|r| r.iter()).sum();
        total as f64 / (self.p * self.p) as f64
    }

    /// Maximum NUMA coefficient between any pair of processors.
    pub fn max_lambda(&self) -> u64 {
        self.lambda
            .iter()
            .flat_map(|r| r.iter())
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// The machine restricted to its first `k` processors: same `g` and `ℓ`,
    /// the top-left `k × k` block of `λ`.  A processor assignment made for
    /// the prefix is a valid assignment on `self` at the same coefficients —
    /// the remaining processors simply stay idle.  On a binary tree a
    /// power-of-two prefix is a subtree and stays a [`NumaTopology::BinaryTree`];
    /// a uniform machine stays uniform; anything else becomes
    /// [`NumaTopology::Explicit`].
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= k <= P`.
    pub fn prefix(&self, k: usize) -> Self {
        assert!(
            (1..=self.p).contains(&k),
            "a prefix keeps between 1 and P processors"
        );
        let block = |matrix: &[Vec<u64>]| -> Vec<Vec<u64>> {
            matrix[..k].iter().map(|row| row[..k].to_vec()).collect()
        };
        let topology = match &self.topology {
            NumaTopology::Uniform => NumaTopology::Uniform,
            NumaTopology::BinaryTree { delta } if k.is_power_of_two() => {
                NumaTopology::BinaryTree { delta: *delta }
            }
            NumaTopology::BinaryTree { .. } => NumaTopology::Explicit(block(&self.lambda)),
            NumaTopology::Explicit(matrix) => NumaTopology::Explicit(block(matrix)),
        };
        Machine {
            p: k,
            g: self.g,
            latency: self.latency,
            topology,
            lambda: block(&self.lambda),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_machine_lambdas() {
        let m = Machine::uniform(4, 3, 5);
        assert_eq!(m.p(), 4);
        assert_eq!(m.g(), 3);
        assert_eq!(m.latency(), 5);
        assert!(!m.is_numa());
        for a in 0..4 {
            for b in 0..4 {
                assert_eq!(m.lambda(a, b), u64::from(a != b));
            }
        }
        // 12 off-diagonal ones over 16 entries.
        assert!((m.avg_lambda() - 12.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn binary_tree_matches_paper_example() {
        // Paper §6: P = 8, Δ = 3 — from the first processor: λ_{1,2} = 1,
        // λ_{1,p} = 3 for p ∈ {3,4}, λ_{1,p} = 9 for p ∈ {5..8} (1-based).
        let m = Machine::numa_binary_tree(8, 1, 5, 3);
        assert!(m.is_numa());
        assert_eq!(m.lambda(0, 0), 0);
        assert_eq!(m.lambda(0, 1), 1);
        assert_eq!(m.lambda(0, 2), 3);
        assert_eq!(m.lambda(0, 3), 3);
        for p in 4..8 {
            assert_eq!(m.lambda(0, p), 9);
        }
        assert_eq!(m.max_lambda(), 9);
    }

    #[test]
    fn binary_tree_p16_delta4_max_is_64() {
        // §C.4: with P = 16 and Δ = 4 the highest coefficient is Δ^3 = 64.
        let m = Machine::numa_binary_tree(16, 1, 5, 4);
        assert_eq!(m.max_lambda(), 64);
    }

    #[test]
    fn lambda_is_symmetric_for_tree_topologies() {
        let m = Machine::numa_binary_tree(16, 1, 5, 2);
        for a in 0..16 {
            for b in 0..16 {
                assert_eq!(m.lambda(a, b), m.lambda(b, a));
            }
        }
    }

    #[test]
    fn explicit_matrix_diagonal_forced_to_zero() {
        let m = Machine::with_numa_matrix(2, 1, 0, vec![vec![7, 2], vec![3, 7]]);
        assert_eq!(m.lambda(0, 0), 0);
        assert_eq!(m.lambda(1, 1), 0);
        assert_eq!(m.lambda(0, 1), 2);
        assert_eq!(m.lambda(1, 0), 3);
    }

    #[test]
    fn prefix_keeps_the_top_left_block_of_every_topology() {
        let explicit = Machine::with_numa_matrix(
            4,
            2,
            7,
            vec![
                vec![9, 1, 2, 3],
                vec![4, 9, 5, 6],
                vec![7, 8, 9, 1],
                vec![2, 3, 4, 9],
            ],
        );
        let machines = [
            Machine::uniform(6, 3, 5),
            Machine::numa_binary_tree(8, 3, 5, 3),
            explicit,
        ];
        for m in &machines {
            assert_eq!(&m.prefix(m.p()), m);
            for k in 1..=m.p() {
                let prefix = m.prefix(k);
                assert_eq!(prefix.p(), k);
                assert_eq!(prefix.g(), m.g());
                assert_eq!(prefix.latency(), m.latency());
                for a in 0..k {
                    for b in 0..k {
                        assert_eq!(prefix.lambda(a, b), m.lambda(a, b), "k = {k}");
                    }
                }
            }
        }
        // Uniform stays uniform; a power-of-two prefix of a tree is the tree
        // on that many processors, any other prefix an explicit matrix.
        assert_eq!(machines[0].prefix(3), Machine::uniform(3, 3, 5));
        for k in [1, 2, 4] {
            assert_eq!(
                machines[1].prefix(k),
                Machine::numa_binary_tree(k, 3, 5, 3),
                "k = {k}"
            );
        }
        assert!(matches!(
            machines[1].prefix(6).topology(),
            NumaTopology::Explicit(_)
        ));
        assert!(matches!(
            machines[2].prefix(2).topology(),
            NumaTopology::Explicit(_)
        ));
    }

    #[test]
    #[should_panic]
    fn prefix_rejects_more_processors_than_the_machine_has() {
        let _ = Machine::uniform(4, 1, 5).prefix(5);
    }

    #[test]
    #[should_panic]
    fn binary_tree_requires_power_of_two() {
        let _ = Machine::numa_binary_tree(6, 1, 5, 2);
    }
}
