//! Integration tests for the `bsp_serve` schedule cache semantics:
//!
//! * an exact hit returns a schedule *identical* to the cold run's (the very
//!   same shared allocation);
//! * a warm hit (same structure, perturbed node weights) returns a valid
//!   schedule costing no more than its seed assignment on the new weights
//!   and no more than the trivial schedule;
//! * LRU eviction respects the byte budget end to end through the service.

use bsp_model::{BspSchedule, Dag, Machine};
use bsp_serve::{
    Mode, RequestOptions, ScheduleRequest, ScheduleService, ScheduleSource, ServiceConfig,
};
use dag_gen::fine::{spmv, SpmvConfig};
use std::sync::Arc;
use std::time::Duration;

/// Generous budgets so every local search reaches its local minimum and the
/// runs are deterministic (time limits never bind).
fn service(cache_bytes: usize) -> ScheduleService {
    ScheduleService::new(ServiceConfig {
        cache_bytes,
        local_search_budget: Duration::from_secs(30),
        warm_budget: Duration::from_secs(30),
        default_deadline: None,
        ..Default::default()
    })
}

fn request(dag: Dag, machine: Machine) -> ScheduleRequest {
    ScheduleRequest {
        id: 1,
        dag,
        machine,
        options: RequestOptions::new().with_mode(Mode::HeuristicsOnly),
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
fn warm_hits_are_valid_and_cost_no_more_than_their_seed_or_the_trivial_schedule() {
    let machine = Machine::numa_binary_tree(8, 2, 5, 3);
    for bump_seed in [1u64, 2, 5] {
        // Service A: populated with the base instance, then asked for the
        // perturbed one -> warm-started from the cached assignment.
        let warm_service = service(64 << 20);
        let base = request(base_dag(9), machine.clone());
        let cold_base = warm_service.handle(&base).expect("base cold run");
        assert_eq!(cold_base.source, ScheduleSource::Cold);

        let shifted = perturbed(&base.dag, bump_seed);
        let warm_req = request(shifted.clone(), machine.clone());
        let warm = warm_service.handle(&warm_req).expect("warm run");
        assert_eq!(warm.source, ScheduleSource::CacheWarm);
        assert!(warm.schedule.validate(&shifted, &machine).is_ok());

        // What a warm start guarantees: `HC` and `HCcs` only ever lower the
        // cost of the seed assignment on the perturbed weights, and the floor
        // caps the answer at the trivial schedule.
        let seed =
            BspSchedule::from_assignment_lazy(&shifted, cold_base.schedule.assignment.clone());
        let seed_cost = seed.cost(&shifted, &machine);
        assert!(
            warm.cost <= seed_cost,
            "bump {bump_seed}: warm-started cost {} above its seed's {seed_cost}",
            warm.cost
        );
        let trivial_cost = BspSchedule::trivial(&shifted).cost(&shifted, &machine);
        assert!(
            warm.cost <= trivial_cost,
            "bump {bump_seed}: warm-started cost {} above the trivial {trivial_cost}",
            warm.cost
        );

        // Service B: a fresh cache, so the same perturbed request runs cold.
        // A local search from a neighbouring optimum and one from scratch end
        // in different local minima, so neither bounds the other — but a
        // broken warm path would land far from the cold run.
        let cold_service = service(64 << 20);
        let cold = cold_service
            .handle(&request(shifted.clone(), machine.clone()))
            .expect("perturbed cold run");
        assert_eq!(cold.source, ScheduleSource::Cold);
        assert!(
            warm.cost * 10 <= cold.cost * 11,
            "bump {bump_seed}: warm-started cost {} more than 1.10 x the cold run's {}",
            warm.cost,
            cold.cost
        );
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
