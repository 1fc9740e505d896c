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

pub mod reference_codec;
pub mod reference_comm;
pub mod reference_source;

use bsp_model::{Assignment, BspSchedule, Dag, Machine};
use bsp_sched::init::place_sources;
use bsp_sched::Scheduler;
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

/// What a pipeline branch of `init` starts its `HC` from at `width`: the
/// initializer's schedule on the machine's first `width` processors with the
/// sources placed on the full machine.
pub fn placed_start(
    init: &dyn Scheduler,
    dag: &Dag,
    machine: &Machine,
    width: usize,
) -> BspSchedule {
    let mut schedule = init.schedule(dag, &machine.prefix(width));
    place_sources(dag, machine, &mut schedule);
    schedule
}

/// The [`Assignment`] of the `usize` maps a reference routine builds.
pub fn narrow_assignment(proc: &[usize], superstep: &[usize]) -> Assignment {
    let narrow = |xs: &[usize]| xs.iter().map(|&x| u32::try_from(x).unwrap()).collect();
    Assignment {
        proc: narrow(proc),
        superstep: narrow(superstep),
    }
}
