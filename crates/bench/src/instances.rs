//! Scaled versions of the paper's datasets.
//!
//! The paper's experiments run for days on a workstation (DAGs up to 100 000
//! nodes).  The experiment binaries therefore support three scales:
//!
//! * [`Scale::Smoke`] — surrogate instances whose node counts are capped but
//!   whose *relative* sizes (tiny < small < medium < large < huge) and the
//!   four fine-grained generator families are preserved.  Runs in seconds; this is the scale CI gates
//!   `exp_paper` at and `BENCH_paper.json` is recorded at.
//! * [`Scale::Reduced`] — the paper's real node ranges but only every third
//!   instance per dataset.
//! * [`Scale::Full`] — the complete regenerated datasets.

use dag_gen::dataset::{Dataset, DatasetKind, NamedDag};
use dag_gen::fine::{cg, exp, knn, spmv, IterConfig, SpmvConfig};

/// How large the experiment should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Capped surrogate instances (seconds).
    Smoke,
    /// Paper-sized instances, every third one (minutes–hours).
    Reduced,
    /// The complete regenerated datasets.
    Full,
}

impl Scale {
    /// Short name used in output headers.
    pub fn name(&self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Reduced => "reduced",
            Scale::Full => "full",
        }
    }

    /// Cap applied to fine-grained matrix dimensions at smoke scale, per
    /// dataset kind, so every dataset keeps its relative position.
    fn smoke_targets(kind: DatasetKind) -> &'static [usize] {
        match kind {
            DatasetKind::Training => &[15, 30, 60, 90],
            DatasetKind::Tiny => &[40, 60],
            DatasetKind::Small => &[70, 90],
            DatasetKind::Medium => &[110, 140],
            DatasetKind::Large => &[170, 210],
            DatasetKind::Huge => &[300, 420],
        }
    }
}

/// Builds the dataset of the given kind at the given scale.
///
/// At smoke scale the instances are generated directly from the fine-grained
/// generators with capped sizes (one per generator family and target size);
/// at reduced/full scale the paper's seeded datasets are used.
pub fn scaled_dataset(kind: DatasetKind, scale: Scale, seed: u64) -> Vec<NamedDag> {
    match scale {
        Scale::Full => Dataset::generate(kind, seed).instances,
        Scale::Reduced => Dataset::generate_reduced(kind, seed).instances,
        Scale::Smoke => smoke_instances(kind, seed),
    }
}

fn smoke_instances(kind: DatasetKind, seed: u64) -> Vec<NamedDag> {
    let targets = Scale::smoke_targets(kind);
    let mut instances = Vec::new();
    let mut s = seed;
    for (i, &target) in targets.iter().enumerate() {
        s = s.wrapping_add(1);
        let density = 0.25;
        // Rotate through the four fine-grained families so every dataset
        // contains all shapes the paper uses.
        let dag = match i % 4 {
            0 => spmv(&SpmvConfig {
                n: matrix_dim_for(target, density, 1),
                density,
                seed: s,
            }),
            1 => exp(&IterConfig {
                n: matrix_dim_for(target, density, 3),
                density,
                iterations: 3,
                seed: s,
            }),
            2 => cg(&IterConfig {
                n: matrix_dim_for(target, density, 2),
                density,
                iterations: 2,
                seed: s,
            }),
            _ => knn(&IterConfig {
                n: matrix_dim_for(target, density, 4),
                density,
                iterations: 4,
                seed: s,
            }),
        };
        let family = ["spmv", "exp", "cg", "knn"][i % 4];
        instances.push(NamedDag {
            name: format!("{}-{}-n{}", kind.name(), family, dag.n()),
            dag,
        });
    }
    instances
}

/// Rough matrix dimension that makes the generated DAG land near `target`
/// nodes.  The fine-grained generators emit roughly `2 · density · N²` nodes
/// per iteration (one per nonzero plus reductions), so the dimension is the
/// corresponding square root.
fn matrix_dim_for(target: usize, density: f64, iterations: usize) -> usize {
    let per_iter = (target as f64 / iterations.max(1) as f64).max(4.0);
    let dim = (per_iter / (2.2 * density)).sqrt().ceil() as usize;
    dim.clamp(4, 4000)
}

/// Picks a generator parameter so the produced DAG lands close to `target`
/// nodes (the generator's size must grow monotonically with the parameter).
/// Shared by the throughput experiments (`exp_multilevel`, `exp_serve`) that
/// size their benchmark instances by node count rather than matrix dimension.
pub fn size_to_target(target: usize, make: impl Fn(usize) -> bsp_model::Dag) -> bsp_model::Dag {
    let (mut lo, mut hi) = (8usize, 16usize);
    while make(hi).n() < target {
        lo = hi;
        hi *= 2;
        assert!(hi < 1 << 24, "generator never reached the target size");
    }
    for _ in 0..32 {
        let mid = (lo + hi) / 2;
        if mid == lo {
            break;
        }
        if make(mid).n() < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let dag = make(hi);
    eprintln!("  sized instance: parameter {} -> {} nodes", hi, dag.n());
    dag
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_datasets_preserve_relative_sizes() {
        let avg = |kind| {
            let set = scaled_dataset(kind, Scale::Smoke, 1);
            set.iter().map(|i| i.dag.n()).sum::<usize>() as f64 / set.len() as f64
        };
        let tiny = avg(DatasetKind::Tiny);
        let small = avg(DatasetKind::Small);
        let large = avg(DatasetKind::Large);
        assert!(tiny < small, "tiny {tiny} !< small {small}");
        assert!(small < large, "small {small} !< large {large}");
    }

    #[test]
    fn smoke_instances_stay_modest() {
        for kind in [DatasetKind::Tiny, DatasetKind::Large, DatasetKind::Huge] {
            for inst in scaled_dataset(kind, Scale::Smoke, 3) {
                assert!(
                    inst.dag.n() <= 2_500,
                    "{} too big: {}",
                    inst.name,
                    inst.dag.n()
                );
                assert!(inst.dag.n() >= 5);
            }
        }
    }
}
