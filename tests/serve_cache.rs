//! Integration tests for the `bsp_serve` schedule cache semantics:
//!
//! * an exact hit returns a schedule *identical* to the cold run's (the very
//!   same shared allocation);
//! * a re-weighted request (same structure, perturbed node weights) is a
//!   miss: it runs cold and costs exactly what a fresh service answers;
//! * LRU eviction respects the byte budget end to end through the service.

use bsp_model::{Dag, Machine};
use bsp_serve::{RequestOptions, ScheduleRequest, ScheduleService, ScheduleSource, ServiceConfig};
use dag_gen::fine::{spmv, SpmvConfig};
use std::sync::Arc;

/// Generous budgets so every local search reaches its local minimum and the
/// runs are deterministic (time limits never bind).
fn service(cache_bytes: usize) -> ScheduleService {
    ScheduleService::new(ServiceConfig {
        cache_bytes,
        default_deadline: None,
        ..Default::default()
    })
}

fn request(dag: Dag, machine: Machine) -> ScheduleRequest {
    ScheduleRequest {
        id: 1,
        dag,
        machine,
        options: RequestOptions::new(),
    }
}

fn base_dag(seed: u64) -> Dag {
    spmv(&SpmvConfig {
        n: 24,
        density: 0.2,
        seed,
    })
}

/// The base DAG with a small deterministic perturbation of the work weights
/// (same edges, so the structural fingerprint is unchanged).
fn perturbed(dag: &Dag, bump_seed: u64) -> Dag {
    let edges: Vec<_> = dag.edges().collect();
    let work: Vec<u64> = dag
        .work_weights()
        .iter()
        .enumerate()
        .map(|(v, &w)| w + ((v as u64 + bump_seed) % 3))
        .collect();
    Dag::from_edges(dag.n(), &edges, work, dag.comm_weights().to_vec()).unwrap()
}

#[test]
fn exact_hits_return_the_cold_runs_schedule_verbatim() {
    let service = service(64 << 20);
    let machine = Machine::uniform(4, 3, 5);
    let req = request(base_dag(5), machine.clone());
    let cold = service.handle(&req).expect("cold run");
    assert_eq!(cold.source, ScheduleSource::Cold);
    for _ in 0..3 {
        let hit = service.handle(&req).expect("exact hit");
        assert_eq!(hit.source, ScheduleSource::CacheExact);
        assert!(
            Arc::ptr_eq(&hit.schedule, &cold.schedule),
            "exact hit must hand out the cached allocation itself"
        );
        assert_eq!(hit.cost, cold.cost);
    }
    let stats = service.stats();
    assert_eq!(stats.cache.hits, 3);
    assert_eq!(stats.cache.misses, 1);
}

#[test]
fn reweighted_requests_are_solved_cold_at_a_fresh_services_cost() {
    for machine in [
        Machine::uniform(4, 3, 5),
        Machine::numa_binary_tree(8, 2, 5, 3),
    ] {
        for bump_seed in [1u64, 2, 5] {
            // Service A holds the base instance when the re-weighted one
            // arrives; service B has never seen either.
            let cached = service(64 << 20);
            let base = request(base_dag(9), machine.clone());
            assert_eq!(cached.handle(&base).unwrap().source, ScheduleSource::Cold);

            let shifted = perturbed(&base.dag, bump_seed);
            let reply = cached
                .handle(&request(shifted.clone(), machine.clone()))
                .expect("re-weighted run");
            assert_eq!(reply.source, ScheduleSource::Cold, "bump {bump_seed}");
            assert!(reply.schedule.validate(&shifted, &machine).is_ok());
            assert_eq!(reply.cost, reply.schedule.cost(&shifted, &machine));

            let fresh = service(64 << 20)
                .handle(&request(shifted, machine.clone()))
                .expect("fresh cold run");
            assert_eq!(
                reply.cost, fresh.cost,
                "bump {bump_seed}: a cached base changed the answer"
            );
            assert_eq!(cached.stats().cache.misses, 2);
        }
    }
}

#[test]
fn lru_eviction_respects_the_byte_budget_through_the_service() {
    // Room for roughly two cached schedules of this instance size.
    let probe = service(64 << 20);
    let machine = Machine::uniform(4, 1, 2);
    let first = probe
        .handle(&request(base_dag(1), machine.clone()))
        .expect("probe run");
    let entry_bytes = bsp_serve::schedule_footprint(&first.schedule);
    drop(probe);

    let budget = entry_bytes * 2 + entry_bytes / 2;
    let service = service(budget);
    for seed in 1..=3u64 {
        let reply = service
            .handle(&request(base_dag(seed), machine.clone()))
            .expect("cold run");
        assert_eq!(reply.source, ScheduleSource::Cold);
    }
    let stats = service.stats();
    assert!(
        stats.cache.bytes_used <= budget,
        "cache holds {} bytes over the {budget}-byte budget",
        stats.cache.bytes_used
    );
    assert!(stats.cache.evictions >= 1, "no eviction under pressure");
    // The first instance was evicted (LRU), so it runs cold again; the most
    // recent one is still cached.
    let evicted = service
        .handle(&request(base_dag(1), machine.clone()))
        .expect("rerun of evicted instance");
    assert_eq!(evicted.source, ScheduleSource::Cold);
    let kept = service
        .handle(&request(base_dag(3), machine))
        .expect("rerun of cached instance");
    assert_eq!(kept.source, ScheduleSource::CacheExact);
}
