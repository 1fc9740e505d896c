//! Shared helpers for the cross-crate integration tests.
//!
//! Each integration-test binary compiles this module independently and uses
//! a different subset of the helpers, so dead-code warnings are suppressed.
//!
//! The random generators are plain seeded functions (driven by `ChaCha8Rng`)
//! rather than proptest strategies: the build environment has no network
//! access for a proptest dependency, and deterministic seed loops make
//! failures trivially reproducible — rerun with the printed seed.
#![allow(dead_code)]

pub mod golden;
pub mod protocol_fuzz;
pub mod reference_codec;

use bsp_model::{BspSchedule, Dag, Machine};
use bsp_sched::init::{merge_supersteps, place_sources};
use bsp_sched::Scheduler;
use dag_gen::{cg, coarse_dag, exp, spmv, CoarseAlgorithm, CoarseConfig, IterConfig, SpmvConfig};
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A fresh deterministic generator for test case `case` of test `test_seed`.
pub fn rng_for_case(test_seed: u64, case: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(test_seed.wrapping_mul(0x9e37_79b9).wrapping_add(case))
}

/// A small random DAG with random weights.
///
/// Nodes are labelled `0..n`; every candidate edge `(u, v)` with `u < v` is
/// included independently, which guarantees acyclicity by construction.
pub fn random_dag(rng: &mut ChaCha8Rng, max_nodes: usize) -> Dag {
    let n = rng.gen_range(2usize..=max_nodes);
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen::<bool>() {
                edges.push((u, v));
            }
        }
    }
    let work: Vec<u64> = (0..n).map(|_| rng.gen_range(1u64..20)).collect();
    let comm: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..10)).collect();
    Dag::from_edges(n, &edges, work, comm).expect("construction is acyclic")
}

/// A DAG with shuffled ids whose nodes have work 0 two times in five, which
/// no generator emits (they clamp work to ≥ 1): such a node finishes the
/// instant it starts, so a classical schedule may start its consumers at
/// that same instant and a consumer can sort before it.
pub fn zero_work_dag(rng: &mut ChaCha8Rng) -> Dag {
    let n = rng.gen_range(2usize..=40);
    let mut label: Vec<usize> = (0..n).collect();
    label.shuffle(rng);
    let mut edges = Vec::new();
    for v in 1..n {
        for u in v.saturating_sub(6)..v {
            if rng.gen_bool(0.3) {
                edges.push((label[u], label[v]));
            }
        }
    }
    let work = (0..n)
        .map(|_| {
            if rng.gen_bool(0.4) {
                0
            } else {
                rng.gen_range(1u64..4)
            }
        })
        .collect();
    let comm = (0..n).map(|_| rng.gen_range(0u64..3)).collect();
    Dag::from_edges(n, &edges, work, comm).expect("edges follow one topological order")
}

/// A random machine drawn from the paper's two NUMA topology families.
pub fn random_machine(rng: &mut ChaCha8Rng) -> Machine {
    if rng.gen::<bool>() {
        let log_p = rng.gen_range(1usize..=3);
        let g = rng.gen_range(0u64..6);
        let l = rng.gen_range(0u64..8);
        Machine::uniform(1 << log_p, g, l)
    } else {
        let log_p = rng.gen_range(1usize..=4);
        let g = rng.gen_range(0u64..4);
        let l = rng.gen_range(0u64..8);
        let delta = rng.gen_range(2u64..5);
        Machine::numa_binary_tree(1 << log_p, g, l, delta)
    }
}

/// A small deterministic grid of machines covering the paper's parameter
/// space (used by the non-property integration tests).
pub fn machine_grid() -> Vec<Machine> {
    vec![
        Machine::uniform(4, 1, 5),
        Machine::uniform(8, 3, 5),
        Machine::uniform(16, 5, 5),
        Machine::uniform(8, 1, 20),
        Machine::numa_binary_tree(8, 1, 5, 2),
        Machine::numa_binary_tree(16, 1, 5, 4),
    ]
}

/// An `spmv` DAG of an `n × n` matrix with eight entries a row.
pub fn fine_spmv(n: usize, seed: u64) -> Dag {
    spmv(&SpmvConfig {
        n,
        density: 8.0 / n as f64,
        seed,
    })
}

/// The benchmark's five generator families at its `--smoke` sizes.
pub fn benchmark_families() -> Vec<(&'static str, Dag)> {
    let fine = |n: usize, iterations: usize, seed: u64| IterConfig {
        n,
        density: 8.0 / n as f64,
        iterations,
        seed,
    };
    let coarse = |algorithm, iterations| {
        coarse_dag(&CoarseConfig {
            algorithm,
            iterations,
        })
    };
    vec![
        ("spmv", fine_spmv(60, 1)),
        ("cg", cg(&fine(30, 2, 2))),
        ("exp", exp(&fine(30, 3, 3))),
        ("pagerank", coarse(CoarseAlgorithm::PageRank, 100)),
        ("bicgstab", coarse(CoarseAlgorithm::BiCgStab, 100)),
    ]
}

/// The benchmark's two machines.
pub fn benchmark_machines() -> [Machine; 2] {
    [
        Machine::uniform(4, 3, 5),
        Machine::numa_binary_tree(8, 3, 5, 3),
    ]
}

/// What a pipeline branch of `init` starts its `HC` from at `width`: the
/// initializer's schedule on the machine's first `width` processors with the
/// sources placed on the full machine and the supersteps no value needs
/// merged (lazy `Γ`).
pub fn placed_start(
    init: &dyn Scheduler,
    dag: &Dag,
    machine: &Machine,
    width: usize,
) -> BspSchedule {
    let mut schedule = init.schedule(dag, &machine.prefix(width));
    place_sources(dag, machine, &mut schedule);
    if merge_supersteps(dag, &mut schedule.assignment) > 0 {
        schedule.relax_to_lazy(dag);
    }
    schedule
}

/// The work of each group of sources that share successors, transitively:
/// two sources that feed one node are in one group.  `Source` clusters its
/// first superstep within these groups, a cluster of two or more sources
/// holding at most its bound, so a group of two or more that holds more
/// work than the bound is one the bound splits, and where no group does the
/// bound never binds.
pub fn source_groups(dag: &Dag) -> Vec<(usize, u64)> {
    let mut parent: Vec<usize> = (0..dag.n()).collect();
    fn root(parent: &mut [usize], mut v: usize) -> usize {
        while parent[v] != v {
            parent[v] = parent[parent[v]];
            v = parent[v];
        }
        v
    }
    for w in 0..dag.n() {
        let mut sources = dag.predecessors(w).filter(|&u| dag.in_degree(u) == 0);
        if let Some(first) = sources.next() {
            for u in sources {
                let (a, b) = (root(&mut parent, first), root(&mut parent, u));
                parent[a] = b;
            }
        }
    }
    let mut groups = vec![(0usize, 0u64); dag.n()];
    for v in dag.sources() {
        let group = &mut groups[root(&mut parent, v)];
        *group = (group.0 + 1, group.1 + dag.work(v));
    }
    groups.retain(|&(members, _)| members > 0);
    groups
}

/// `Source`'s first-superstep cluster bound: a processor's share of the
/// sources' work.
pub fn source_bound(dag: &Dag, p: usize) -> u64 {
    let work: u64 = dag.sources().iter().map(|&v| dag.work(v)).sum();
    work.div_ceil(p as u64)
}
