//! Criterion benches: throughput of the `HC` hill-climbing hot path — single
//! candidate-move evaluation (try / apply+revert) and the full search to a
//! local minimum.
//!
//! The headline numbers (10k-node instances, wall-clock to local minimum,
//! JSON trajectory point) come from the `exp_hc` binary; these benches are
//! the fast-feedback companions for day-to-day optimization work.

use bsp_model::Machine;
use bsp_sched::hill_climb::{hc_improve, HcState, HillClimbConfig};
use bsp_sched::init::SourceScheduler;
use bsp_sched::Scheduler;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use dag_gen::fine::{spmv, SpmvConfig};

fn setup(n: usize) -> (bsp_model::Dag, Machine, bsp_model::BspSchedule) {
    let dag = spmv(&SpmvConfig {
        n,
        density: 16.0 / n as f64,
        seed: 42,
    });
    let machine = Machine::numa_binary_tree(8, 2, 5, 3);
    let sched = SourceScheduler.schedule(&dag, &machine);
    (dag, machine, sched)
}

/// First valid candidate move of the schedule, in the driver's own order.
fn first_valid_move(
    dag: &bsp_model::Dag,
    state: &HcState<'_>,
    n: usize,
    p: usize,
) -> (usize, usize, usize) {
    for v in 0..n {
        let s_old = state.step_of(v);
        for s_new in [s_old.wrapping_sub(1), s_old, s_old + 1] {
            if s_new == usize::MAX {
                continue;
            }
            for p_new in 0..p {
                if (p_new, s_new) != (state.proc_of(v), s_old)
                    && state.move_is_valid(dag, v, p_new, s_new)
                {
                    return (v, p_new, s_new);
                }
            }
        }
    }
    panic!("no valid move exists on the benchmark instance");
}

fn bench_move_evaluation(c: &mut Criterion) {
    let (dag, machine, sched) = setup(200);
    let mut group = c.benchmark_group("hc_move_evaluation");
    group
        .measurement_time(Duration::from_millis(1200))
        .warm_up_time(Duration::from_millis(400));

    group.bench_function(BenchmarkId::new("try_move", dag.n()), |b| {
        let mut state = HcState::new(&dag, &machine, sched.assignment.clone())
            .expect("scheduler output is feasible");
        let (v, p_new, s_new) = first_valid_move(&dag, &state, dag.n(), machine.p());
        b.iter(|| black_box(state.try_move(&dag, v, p_new, s_new)))
    });

    group.bench_function(BenchmarkId::new("apply_revert", dag.n()), |b| {
        let mut state = HcState::new(&dag, &machine, sched.assignment.clone())
            .expect("scheduler output is feasible");
        let (v, p_new, s_new) = first_valid_move(&dag, &state, dag.n(), machine.p());
        let (p_old, s_old) = (state.proc_of(v), state.step_of(v));
        b.iter(|| {
            let d1 = state.apply_move(&dag, v, p_new, s_new);
            let d2 = state.apply_move(&dag, v, p_old, s_old);
            black_box(d1 + d2)
        })
    });
    group.finish();
}

fn bench_search_to_local_minimum(c: &mut Criterion) {
    let (dag, machine, sched) = setup(120);
    let config = HillClimbConfig {
        time_limit: Duration::from_secs(60),
        max_steps: usize::MAX,
        ..Default::default()
    };
    let mut group = c.benchmark_group("hc_to_local_minimum");
    group
        .measurement_time(Duration::from_millis(1500))
        .warm_up_time(Duration::from_millis(400))
        .sample_size(10);

    group.bench_function(BenchmarkId::new("worklist", dag.n()), |b| {
        b.iter(|| {
            let mut s = sched.clone();
            let outcome = hc_improve(&dag, &machine, &mut s, &config);
            black_box(outcome.final_cost)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_move_evaluation,
    bench_search_to_local_minimum
);
criterion_main!(benches);
