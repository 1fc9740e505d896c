//! Integration tests for the `bsp_serve` schedule cache semantics:
//!
//! * an exact hit returns a schedule *identical* to the cold run's, in
//!   process and on the wire, also after a store restart;
//! * a re-weighted request (same structure, perturbed node weights) is a
//!   miss: it runs cold and costs exactly what a fresh service answers;
//! * LRU eviction respects the byte budget end to end through the service.

mod common;

use bsp_model::{Dag, Machine};
use bsp_serve::protocol::{encode_response, encode_response_parts, ScheduleResponse};
use bsp_serve::{
    RequestOptions, ScheduleRequest, ScheduleService, ScheduleSource, ScheduleView, ServiceConfig,
    SpanSet,
};
use dag_gen::fine::{spmv, SpmvConfig};
use rand::Rng;
use std::time::Instant;

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
        assert_eq!(
            *hit.schedule, *cold.schedule,
            "an exact hit must hand out the cold run's schedule"
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

/// The store keeps `π` and `τ` but not `Γ`, and recovery rebuilds a lazy
/// `Γ`: on these fine-grained DAGs that costs more than the answer served
/// before the restart in some rows, and the restarted service finishes it
/// with `HCcs` as the solve did.  Every repeat after the restart costs
/// exactly what it cost before, and is the same schedule.
#[test]
fn a_repeat_after_a_restart_costs_its_pre_restart_answer() {
    use dag_gen::{cg, exp, IterConfig};
    let dir = std::env::temp_dir().join(format!("bsp-serve-cache-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || ServiceConfig {
        store: Some(bsp_serve::StoreConfig::at(&dir)),
        ..Default::default()
    };
    let fine = |seed: u64| IterConfig {
        n: 24,
        density: 0.2,
        iterations: 2,
        seed,
    };
    let machines = [
        Machine::uniform(4, 3, 5),
        Machine::numa_binary_tree(8, 3, 5, 3),
    ];
    let mut requests = Vec::new();
    for seed in 0..4 {
        for machine in &machines {
            for dag in [base_dag(seed), cg(&fine(seed)), exp(&fine(seed))] {
                requests.push(request(dag, machine.clone()));
            }
        }
    }
    let before: Vec<_> = {
        let service = ScheduleService::new(config());
        let replies = requests
            .iter()
            .map(|r| service.handle(r).unwrap())
            .collect();
        service.flush_store();
        replies
    };
    let lazy_costlier = requests
        .iter()
        .zip(&before)
        .filter(|(r, reply)| {
            let lazy = bsp_model::BspSchedule::from_assignment_lazy(
                &r.dag,
                reply.schedule.assignment.clone(),
            );
            lazy.cost(&r.dag, &r.machine) > reply.cost
        })
        .count();
    assert!(lazy_costlier > 0, "no row tests the re-run of HCcs");

    let restarted = ScheduleService::new(config());
    assert_eq!(restarted.stats().store.loaded, requests.len() as u64);
    for (r, first) in requests.iter().zip(&before) {
        let repeat = restarted.handle(r).unwrap();
        assert_eq!(repeat.source, ScheduleSource::CacheExact);
        assert_eq!(
            repeat.cost,
            first.cost,
            "{} nodes on {:?}",
            r.dag.n(),
            r.machine
        );
        assert_eq!(*repeat.schedule, *first.schedule);
    }
    eprintln!(
        "{lazy_costlier} of {} rows cost more with a lazy Γ",
        requests.len()
    );
    drop(restarted);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The reply to request 1 carrying `schedule` at `cost`, as an exact hit
/// untimed and untraced: what the wire sends for it.
fn wire_bytes(cost: u64, schedule: &impl ScheduleView) -> String {
    let mut out = String::new();
    encode_response_parts(
        &mut out,
        1,
        cost,
        ScheduleSource::CacheExact,
        0,
        0,
        schedule,
    );
    out
}

/// A hit is one answer however it is asked for.  `handle`'s hit, unpacked
/// and encoded with `encode_response`, is byte for byte the reply a server
/// builds from the traced lookup's packed answer with
/// `encode_response_parts`, on random DAGs on uniform and tree machines.
/// Both are the cold answer's bytes, before a store restart and after it:
/// the store keeps no `Γ`, and recovery rebuilds the one that was served.
#[test]
fn in_process_and_wire_hits_are_one_answer() {
    let dir = std::env::temp_dir().join(format!("bsp-serve-one-answer-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || ServiceConfig {
        store: Some(bsp_serve::StoreConfig::at(&dir)),
        ..Default::default()
    };
    let mut rng = common::rng_for_case(0x0ae5, 0);
    let requests: Vec<_> = (0..12)
        .map(|i| {
            let dag = common::random_dag(&mut rng, 40);
            let p = 1usize << rng.gen_range(1u32..=3);
            let (g, l) = (rng.gen_range(0u64..6), rng.gen_range(0u64..8));
            let machine = match i % 2 {
                0 => Machine::uniform(p, g, l),
                _ => Machine::numa_binary_tree(2 * p, g, l, rng.gen_range(2u64..5)),
            };
            request(dag, machine)
        })
        .collect();
    let case = |i: usize| {
        let r = &requests[i];
        format!("request {i}: {} nodes on {:?}", r.dag.n(), r.machine)
    };
    // Request `i`'s hit bytes, the same in process and on the wire.
    let hit_bytes = |service: &ScheduleService, i: usize| {
        let (r, case) = (&requests[i], case(i));
        let hit = service.handle(r).expect("in-process hit");
        assert_eq!(hit.source, ScheduleSource::CacheExact, "{case}");
        let response = ScheduleResponse {
            id: 1,
            cost: hit.cost,
            supersteps: hit.schedule.num_supersteps(),
            source: hit.source,
            micros: 0,
            trace_id: 0,
            schedule: (*hit.schedule).clone(),
        };
        let mut in_process = String::new();
        encode_response(&mut in_process, &response);
        let key = bsp_model::request_key(&r.dag, &r.machine).full;
        let wire = service
            .lookup_traced(key, Instant::now(), true, &mut SpanSet::new())
            .expect("wire hit");
        let wire = wire_bytes(wire.cost, &*wire.schedule);
        assert_eq!(in_process, wire, "{case}");
        wire
    };
    let cold: Vec<String> = {
        let service = ScheduleService::new(config());
        let cold: Vec<String> = requests
            .iter()
            .map(|r| {
                let reply = service.handle(r).expect("cold run");
                assert_eq!(reply.source, ScheduleSource::Cold);
                wire_bytes(reply.cost, &*reply.schedule)
            })
            .collect();
        for (i, cold) in cold.iter().enumerate() {
            assert_eq!(hit_bytes(&service, i), *cold, "{}", case(i));
        }
        service.flush_store();
        cold
    };
    // Recovery finishes each record's lazy `Γ` with the solve's own last
    // stage, so the whole answer survives the restart, `Γ` included.
    let restarted = ScheduleService::new(config());
    assert_eq!(restarted.stats().store.loaded, requests.len() as u64);
    for (i, cold) in cold.iter().enumerate() {
        assert_eq!(
            hit_bytes(&restarted, i),
            *cold,
            "after the restart, {}",
            case(i)
        );
    }
    drop(restarted);
    let _ = std::fs::remove_dir_all(&dir);
}
