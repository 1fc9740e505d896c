//! Sparse matrix *patterns* (positions of nonzeros, no numerical values).
//!
//! The fine-grained DAG generators of the paper (Appendix B.2) are driven by a
//! square matrix `A` defined by its size `N` and a density parameter `q`: each
//! entry is nonzero independently with probability `q`.  Only the pattern
//! matters for the structure of the computational DAG.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// The nonzero pattern of a square sparse matrix, stored row-wise.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SparsePattern {
    n: usize,
    /// `rows[i]` = sorted column indices of the nonzeros of row `i`.
    rows: Vec<Vec<usize>>,
}

impl SparsePattern {
    /// An Erdős–Rényi random pattern: every entry is nonzero independently
    /// with probability `density`.  Deterministic in `seed`.
    pub fn random(n: usize, density: f64, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut rows = vec![Vec::new(); n];
        for row in rows.iter_mut() {
            for j in 0..n {
                if rng.gen::<f64>() < density {
                    row.push(j);
                }
            }
        }
        SparsePattern { n, rows }
    }

    /// Like [`SparsePattern::random`] but guarantees a nonzero in every row and
    /// every column (so iterative kernels never degenerate to empty work), and
    /// a nonzero main diagonal (so the matrix can play the role of a
    /// triangular-solve / CG system matrix).
    pub fn random_with_diagonal(n: usize, density: f64, seed: u64) -> Self {
        let mut p = Self::random(n, density, seed);
        for i in 0..n {
            if !p.rows[i].contains(&i) {
                p.rows[i].push(i);
                p.rows[i].sort_unstable();
            }
        }
        p
    }

    /// Matrix dimension `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of nonzeros.
    pub fn nnz(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// Column indices of the nonzeros of row `i`.
    pub fn row(&self, i: usize) -> &[usize] {
        &self.rows[i]
    }

    /// `true` if entry `(i, j)` is nonzero.
    pub fn contains(&self, i: usize, j: usize) -> bool {
        self.rows[i].binary_search(&j).is_ok()
    }

    /// Actual density `nnz / N²`.
    pub fn density(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.n * self.n) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_is_deterministic_in_seed() {
        let a = SparsePattern::random(20, 0.3, 42);
        let b = SparsePattern::random(20, 0.3, 42);
        let c = SparsePattern::random(20, 0.3, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn random_density_is_roughly_respected() {
        let p = SparsePattern::random(100, 0.2, 1);
        let d = p.density();
        assert!(d > 0.1 && d < 0.3, "density {d} too far from 0.2");
    }

    #[test]
    fn diagonal_variant_has_full_diagonal() {
        let p = SparsePattern::random_with_diagonal(50, 0.05, 7);
        for i in 0..50 {
            assert!(p.contains(i, i));
        }
    }
}
