//! Seeded inputs.  `--seed` drives every generator parameter below; the
//! program under test only ever sees what comes out of here.
//!
//! Generator parameters are explicit (no size search in any timed path).
//! A fine-grained family keeps its matrix dimension and draws its sparsity
//! pattern from the run seed, so two seeds give different DAGs of about the
//! same size; a coarse-grained family has no pattern, only an iteration
//! count, which is drawn within ±3 % of its centre.

use bsp_model::{Dag, Machine};
use bsp_sched::{CilkScheduler, HDaggScheduler, Scheduler};
use dag_gen::{
    cg, coarse_dag, exp, spmv, write_hyperdag, CoarseAlgorithm, CoarseConfig, IterConfig,
    SpmvConfig,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::Instant;

/// The two machines every workload schedules for: a uniform BSP machine
/// and a NUMA binary tree.
pub fn machines() -> [Machine; 2] {
    [
        Machine::uniform(4, 3, 5),
        Machine::numa_binary_tree(8, 3, 5, 3),
    ]
}

pub const MACHINE_NAMES: [&str; 2] = ["uniform_p4", "numa_p8"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Fine-grained sparse matrix–vector product.
    Spmv,
    /// Fine-grained conjugate gradient, 2 iterations.
    Cg,
    /// Fine-grained iterated `A^k v`, 3 iterations.
    Exp,
    /// Coarse-grained PageRank; the size knob is the iteration count.
    PageRank,
    /// Coarse-grained BiCGStab; the size knob is the iteration count.
    BiCgStab,
}

impl Family {
    pub fn name(self) -> &'static str {
        match self {
            Family::Spmv => "spmv",
            Family::Cg => "cg",
            Family::Exp => "exp",
            Family::PageRank => "pagerank",
            Family::BiCgStab => "bicgstab",
        }
    }
}

/// `count` instances of `family` with the size knob around `size`.
#[derive(Debug, Clone, Copy)]
pub struct Group {
    pub family: Family,
    pub count: usize,
    pub size: usize,
}

/// One generated DAG with its hyperDAG text and what producing them cost.
pub struct Instance {
    pub name: String,
    pub dag: Arc<Dag>,
    pub text: String,
    pub generate_s: f64,
    pub write_s: f64,
}

fn build(family: Family, size: usize, seed: u64) -> Dag {
    let density = 8.0 / size as f64;
    match family {
        Family::Spmv => spmv(&SpmvConfig {
            n: size,
            density,
            seed,
        }),
        Family::Cg => cg(&IterConfig {
            n: size,
            density,
            iterations: 2,
            seed,
        }),
        Family::Exp => exp(&IterConfig {
            n: size,
            density,
            iterations: 3,
            seed,
        }),
        Family::PageRank => coarse_dag(&CoarseConfig {
            algorithm: CoarseAlgorithm::PageRank,
            iterations: size,
        }),
        Family::BiCgStab => coarse_dag(&CoarseConfig {
            algorithm: CoarseAlgorithm::BiCgStab,
            iterations: size,
        }),
    }
}

/// Generates the instances of `groups`, in group order, from `rng`.
pub fn generate(groups: &[Group], rng: &mut ChaCha8Rng) -> Vec<Instance> {
    let mut out = Vec::new();
    for group in groups {
        for k in 0..group.count {
            let size = match group.family {
                Family::PageRank | Family::BiCgStab => {
                    let jitter = (group.size * 3 / 100).max(1);
                    rng.gen_range(group.size - jitter..=group.size + jitter)
                }
                Family::Spmv | Family::Cg | Family::Exp => group.size,
            };
            let seed = rng.gen::<u64>();
            let clock = Instant::now();
            let dag = build(group.family, size, seed);
            let generate_s = clock.elapsed().as_secs_f64();
            let clock = Instant::now();
            let text = write_hyperdag(&dag);
            let write_s = clock.elapsed().as_secs_f64();
            out.push(Instance {
                name: format!("{}{k}/{size}", group.family.name()),
                dag: Arc::new(dag),
                text,
                generate_s,
                write_s,
            });
        }
    }
    out
}

/// The run's generator, keyed by seed and workload so two workloads never
/// share a stream.
pub fn rng_for(seed: u64, workload: &str, lane: u64) -> ChaCha8Rng {
    let mut tag = 0xcbf2_9ce4_8422_2325u64;
    for b in workload.bytes() {
        tag = (tag ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    ChaCha8Rng::seed_from_u64(seed ^ tag ^ lane.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Costs of the two baselines the paper compares against, with the time
/// each took.
pub struct Baseline {
    pub cilk: u64,
    pub hdagg: u64,
    pub cilk_s: f64,
    pub hdagg_s: f64,
}

pub fn baseline(dag: &Dag, machine: &Machine) -> Baseline {
    let clock = Instant::now();
    let cilk = CilkScheduler::default()
        .schedule(dag, machine)
        .cost(dag, machine);
    let cilk_s = clock.elapsed().as_secs_f64();
    let clock = Instant::now();
    let hdagg = HDaggScheduler::default()
        .schedule(dag, machine)
        .cost(dag, machine);
    let hdagg_s = clock.elapsed().as_secs_f64();
    Baseline {
        cilk,
        hdagg,
        cilk_s,
        hdagg_s,
    }
}

/// A copy of `dag` with the same structure and node-wise perturbed work
/// weights: the service sees the same structure key and a new full key.
pub fn reweight(dag: &Dag, rng: &mut ChaCha8Rng) -> Dag {
    let edges: Vec<_> = dag.edges().collect();
    let work: Vec<u64> = dag
        .work_weights()
        .iter()
        .map(|&w| w + rng.gen_range(1u64..4))
        .collect();
    Dag::from_edges(dag.n(), &edges, work, dag.comm_weights().to_vec())
        .expect("re-weighting keeps the edge set, so the result is a DAG")
}
