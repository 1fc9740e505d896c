//! Criterion benches for the multilevel outer loop: incremental coarsening
//! throughput and the full coarsen–solve–refine pipeline.
//!
//! The headline numbers (≈10k-node instances, full `run_report` wall-clock,
//! JSON trajectory point) come from `exp_multilevel --speedup`; these benches
//! are the fast-feedback companions for day-to-day optimization work.

use bsp_model::Machine;
use bsp_sched::multilevel::{coarsen, MultilevelConfig, MultilevelScheduler};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dag_gen::fine::{exp, IterConfig};
use std::hint::black_box;
use std::time::Duration;

fn bench_coarsening(c: &mut Criterion) {
    let mut group = c.benchmark_group("coarsening");
    group
        .measurement_time(Duration::from_millis(1200))
        .warm_up_time(Duration::from_millis(400))
        .sample_size(10);
    for n in [20usize, 40, 60] {
        let dag = exp(&IterConfig {
            n,
            density: 0.2,
            iterations: 3,
            seed: 5,
        });
        let target = dag.n() * 3 / 10;
        group.bench_with_input(
            BenchmarkId::new("coarsen_to_30pct", dag.n()),
            &dag,
            |b, dag| b.iter(|| black_box(coarsen(dag, target))),
        );
    }
    group.finish();
}

fn bench_multilevel_pipeline(c: &mut Criterion) {
    let dag = exp(&IterConfig {
        n: 24,
        density: 0.25,
        iterations: 3,
        seed: 8,
    });
    let machine = Machine::numa_binary_tree(8, 1, 5, 4);
    let config = MultilevelConfig::fast().with_single_ratio(0.3);
    let incremental = MultilevelScheduler::new(config);
    let mut group = c.benchmark_group("multilevel");
    group
        .measurement_time(Duration::from_millis(1200))
        .warm_up_time(Duration::from_millis(400))
        .sample_size(10);
    group.bench_function("coarsen_solve_refine_c30", |b| {
        b.iter(|| black_box(incremental.run(&dag, &machine)))
    });
    group.finish();
}

criterion_group!(benches, bench_coarsening, bench_multilevel_pipeline);
criterion_main!(benches);
