//! Integration tests for the sharded serving deployment: a `bsp_router`
//! fronting two `bsp_serve` shard servers over loopback TCP.
//!
//! Covers the four routing guarantees:
//! * full payloads and their `FP` replays land on the shard the **placement
//!   policy** homes their structure on, so replays are exact cache hits
//!   with zero fallbacks;
//! * **pipelined** clients work through the router unchanged — many
//!   requests in flight on one connection, completions out of order;
//! * a dead shard **fails over**: its structure families degrade to the
//!   survivor (content addressing makes the re-run safe) and **re-home**
//!   once the owner rejoins;
//! * `METRICS` aggregates across shards (counters summed, per-shard and
//!   per-backend series alongside), and `Client::stats` reads it.

use bsp_model::{Dag, Machine};
use bsp_serve::{
    Client, Completion, MetricsSnapshot, PipelinedClient, Placement, RequestOptions, Router,
    RouterConfig, ScheduleSource, Server, ServerConfig, ServerHandle,
};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

fn shard_server() -> ServerHandle {
    let config = ServerConfig {
        workers: 2,
        queue_capacity: 64,
        max_connections: 16,
        idle_timeout: Duration::from_secs(5),
        ..Default::default()
    };
    Server::bind("127.0.0.1:0", config)
        .expect("bind shard")
        .spawn()
        .expect("spawn shard")
}

fn two_shard_deployment() -> (Vec<ServerHandle>, bsp_serve::RouterHandle) {
    let shards = vec![shard_server(), shard_server()];
    let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.addr()).collect();
    let router = Router::bind("127.0.0.1:0", &addrs, RouterConfig::default())
        .expect("bind router")
        .spawn()
        .expect("spawn router");
    (shards, router)
}

fn dag_with_seed(seed: u64) -> Dag {
    // A chain whose *length* varies with the seed: the placement policy
    // routes by structure key, so the seeds must produce distinct DAG
    // shapes (not just distinct weights) to spread across shards.
    let n = 4 + (seed as usize % 32);
    let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
    Dag::from_edges(n, &edges, vec![seed + 1; n], vec![2; n]).unwrap()
}

/// A re-weighted copy of `dag`: same structure key, different full key, so
/// it is routed to the shard the family is homed on and solved cold there.
fn reweighted(dag: &Dag, bump: u64) -> Dag {
    let edges: Vec<_> = dag.edges().collect();
    let work: Vec<u64> = dag.work_weights().iter().map(|&w| w + bump).collect();
    Dag::from_edges(dag.n(), &edges, work, dag.comm_weights().to_vec()).unwrap()
}

/// A seed whose request's structure the placement policy homes on `shard`
/// under a 2-way split.
fn seed_owned_by(shard: usize, machine: &Machine) -> u64 {
    let placement = Placement::new(2);
    (0u64..64)
        .find(|&seed| {
            let key = bsp_model::request_key(&dag_with_seed(seed), machine);
            placement.structure_owner(key.structure) == shard
        })
        .expect("some seed routes to every shard within 64 tries")
}

#[test]
fn requests_and_fp_replays_land_on_the_owning_shard() {
    let (shards, router) = two_shard_deployment();
    let machine = Machine::uniform(4, 1, 2);
    let options = RequestOptions::new();
    let mut client = Client::connect(router.addr()).expect("connect via router");
    client.ping().expect("ping the router");

    // One request owned by each shard.
    for shard in 0..2 {
        let seed = seed_owned_by(shard, &machine);
        let dag = dag_with_seed(seed);
        let before: Vec<u64> = shards.iter().map(|s| s.stats().cache.hits).collect();
        let cold = client.schedule(&dag, &machine, &options).expect("cold");
        assert_eq!(cold.source, ScheduleSource::Cold);
        assert!(cold.schedule.validate(&dag, &machine).is_ok());
        // The serial client now replays by fingerprint; the router must
        // route the FP frame to the same shard, where it is an exact hit.
        let replay = client.schedule(&dag, &machine, &options).expect("replay");
        assert_eq!(
            replay.source,
            ScheduleSource::CacheExact,
            "FP replay for shard {shard} missed its owning shard"
        );
        // The owning shard (and only it) served the hit.
        let after: Vec<u64> = shards.iter().map(|s| s.stats().cache.hits).collect();
        assert_eq!(
            after[shard],
            before[shard] + 1,
            "owning shard served the hit"
        );
        assert_eq!(after[1 - shard], before[1 - shard], "other shard untouched");

        // A re-weighted variant shares the structure key, so it lands on the
        // same shard, where it is a miss and runs cold.
        let misses_before: Vec<u64> = shards.iter().map(|s| s.stats().cache.misses).collect();
        let variant = reweighted(&dag, 1);
        let answer = client
            .schedule(&variant, &machine, &options)
            .expect("variant");
        assert_eq!(answer.source, ScheduleSource::Cold);
        assert!(answer.schedule.validate(&variant, &machine).is_ok());
        let misses_after: Vec<u64> = shards.iter().map(|s| s.stats().cache.misses).collect();
        assert_eq!(
            misses_after[shard],
            misses_before[shard] + 1,
            "re-weighted variant for shard {shard} missed its owning shard"
        );
        assert_eq!(
            misses_after[1 - shard],
            misses_before[1 - shard],
            "other shard untouched"
        );
    }

    // Aggregated stats sum the per-shard counters.
    let agg = client.stats().expect("aggregated stats");
    let sum_requests: u64 = shards.iter().map(|s| s.stats().requests).sum();
    assert_eq!(agg.requests, sum_requests);
    assert_eq!(agg.cache.hits, 2);
    assert_eq!(agg.cache.misses, 4);

    // Every routed request (cold, replay, variant per shard) was placed on its
    // structure owner; none failed over.
    let snap = MetricsSnapshot::parse(&client.metrics().expect("METRICS")).unwrap();
    let placed =
        |decision: &str| snap.counter(&format!("bsp_placement_total{{decision=\"{decision}\"}}"));
    assert_eq!(placed("affinity"), Some(6));
    assert_eq!(placed("failover"), Some(0));

    drop(client);
    router.shutdown();
    for shard in shards {
        shard.shutdown();
    }
}

#[test]
fn pipelined_clients_work_through_the_router() {
    let (shards, router) = two_shard_deployment();
    let machine = Machine::uniform(4, 1, 2);
    let options = RequestOptions::new();
    let mut client = PipelinedClient::connect(router.addr()).expect("connect");

    let dags: Vec<Arc<Dag>> = (0..8).map(|s| Arc::new(dag_with_seed(s))).collect();
    // Depth-4 window over 8 distinct requests, then 8 replays.
    for round in 0..2 {
        let mut submitted = 0usize;
        let mut completed = 0usize;
        while completed < dags.len() {
            while submitted < dags.len() && client.in_flight() < 4 {
                client
                    .submit(&dags[submitted], &machine, &options)
                    .expect("submit");
                submitted += 1;
            }
            match client.recv().expect("recv") {
                Completion::Ok(response) => {
                    completed += 1;
                    if round == 1 {
                        assert_eq!(
                            response.source,
                            ScheduleSource::CacheExact,
                            "second-round replays must hit their owning shard"
                        );
                    }
                }
                Completion::Failed { id, error } => panic!("request {id} failed: {error}"),
            }
        }
    }
    assert_eq!(
        client.fp_fallbacks(),
        0,
        "every FP replay landed on the shard that owns its key"
    );
    // Both shards participated (the 8 fingerprints split across the range).
    for (i, shard) in shards.iter().enumerate() {
        assert!(
            shard.stats().requests > 0,
            "shard {i} received no traffic — routing is not spreading keys"
        );
    }

    drop(client);
    router.shutdown();
    for shard in shards {
        shard.shutdown();
    }
}

#[test]
fn idle_closed_backend_connections_revive_on_next_request() {
    // A shard server closes quiet connections after its idle timeout — and
    // the router's multiplexed backend connection is exactly such a victim
    // on a quiet deployment.  The router must revive the connection on the
    // next owned request instead of treating the shard as permanently dead.
    let config = ServerConfig {
        workers: 2,
        queue_capacity: 64,
        max_connections: 16,
        idle_timeout: Duration::from_millis(150),
        ..Default::default()
    };
    let shard = Server::bind("127.0.0.1:0", config)
        .expect("bind shard")
        .spawn()
        .expect("spawn shard");
    let router = Router::bind("127.0.0.1:0", &[shard.addr()], RouterConfig::default())
        .expect("bind router")
        .spawn()
        .expect("spawn router");
    let machine = Machine::uniform(4, 1, 2);
    let options = RequestOptions::new();
    let mut client = Client::connect(router.addr()).expect("connect");

    // Let the shard's idle timeout close the quiet backend connection.
    std::thread::sleep(Duration::from_millis(600));
    assert!(
        router.live_shards().is_empty(),
        "the idle timeout should have closed the backend connection"
    );

    let dag = dag_with_seed(1);
    let response = client
        .schedule(&dag, &machine, &options)
        .expect("request after an idle period must revive the backend");
    assert!(response.schedule.validate(&dag, &machine).is_ok());
    assert_eq!(router.live_shards(), vec![0], "backend connection revived");

    // Quiet again: a METRICS scrape revives the backend too, so an idle
    // shard keeps its series and reads as up.
    std::thread::sleep(Duration::from_millis(600));
    assert!(router.live_shards().is_empty(), "closed again while idle");
    let exposition = client
        .metrics()
        .expect("router METRICS after an idle period");
    let snap = MetricsSnapshot::parse(&exposition).expect("exposition parses");
    assert_eq!(snap.gauges.get("bsp_backend_up{backend=\"0\"}"), Some(&1));
    assert_eq!(
        snap.counter("bsp_shard_store_events_total{shard=\"0\",event=\"write_error\"}"),
        Some(0)
    );
    assert_eq!(client.stats().expect("stats via router").requests, 1);
    assert_eq!(router.live_shards(), vec![0]);

    drop(client);
    router.shutdown();
    shard.shutdown();
}

#[test]
fn a_dead_shard_fails_over_to_the_survivor_and_the_family_rehomes_on_rejoin() {
    let (mut shards, router) = two_shard_deployment();
    let machine = Machine::uniform(4, 1, 2);
    let options = RequestOptions::new();
    let mut client = Client::connect(router.addr()).expect("connect");

    // Home one structure family on each shard.
    let seed0 = seed_owned_by(0, &machine);
    let seed1 = seed_owned_by(1, &machine);
    for seed in [seed0, seed1] {
        let dag = dag_with_seed(seed);
        client.schedule(&dag, &machine, &options).expect("cold");
    }

    // Kill the owner of seed0's family mid-burst.
    let dead_addr = shards[0].addr();
    shards.remove(0).shutdown();
    std::thread::sleep(Duration::from_millis(50)); // let the demux notice

    // A burst of re-weighted variants of the dead owner's family: each must
    // degrade to the survivor — valid schedules,
    // zero FP fallbacks (full payloads never pay the unknown-fp round trip).
    let base = dag_with_seed(seed0);
    for bump in 1..=3u64 {
        let variant = reweighted(&base, bump);
        let degraded = client
            .schedule(&variant, &machine, &options)
            .expect("a re-weighted request degrades to the survivor");
        assert!(degraded.schedule.validate(&variant, &machine).is_ok());
    }
    assert_eq!(client.fp_fallbacks(), 0, "degraded traffic never fell back");
    // The survivor really did the work: its own first request plus the
    // three failed-over variants.
    assert!(shards[0].stats().requests >= 4);
    assert_eq!(router.live_shards(), vec![1]);

    // Aggregated stats still answer with one live shard.
    let agg = client.stats().expect("stats with a dead shard");
    assert!(agg.requests >= 2);

    // Restart a shard on the freed address.  Placement is a pure range map
    // and failover records nothing, so the family's next variant re-homes
    // on the rejoined owner (the lazy request-path revival reconnects).
    let mut restarted = None;
    for _ in 0..50 {
        match Server::bind(dead_addr, ServerConfig::default()) {
            Ok(server) => {
                restarted = Some(server.spawn().expect("spawn restarted shard"));
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
    let restarted = restarted.expect("rebind the freed shard address");
    let variant = reweighted(&base, 9);
    let rehomed = client
        .schedule(&variant, &machine, &options)
        .expect("the family's traffic flows again after the rejoin");
    assert!(rehomed.schedule.validate(&variant, &machine).is_ok());
    assert_eq!(
        restarted.stats().requests,
        1,
        "the re-homed request ran on the rejoined owner, not the survivor"
    );

    drop(client);
    router.shutdown();
    restarted.shutdown();
    for shard in shards {
        shard.shutdown();
    }
}

#[test]
fn a_restarted_shard_rejoins_on_its_first_owned_request() {
    // A dead backend comes back one way: the next request it owns (or the
    // next METRICS) reconnects it.  While the process is down it stays dead,
    // and the router's exposition says so.
    let (mut shards, router) = two_shard_deployment();
    assert_eq!(router.live_shards(), vec![0, 1]);

    // Kill shard 1 and wait for the demux to notice the EOF.
    let dead_addr = shards[1].addr();
    shards.remove(1).shutdown();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while router.live_shards() != vec![0] {
        assert!(
            std::time::Instant::now() < deadline,
            "shard death unnoticed"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The backend is down, and the survivor's store counters are its own.
    let mut client = Client::connect(router.addr()).expect("connect via router");
    let scrape = |client: &mut Client| {
        let exposition = client.metrics().expect("router METRICS");
        let snap = MetricsSnapshot::parse(&exposition).expect("exposition parses");
        assert!(
            !snap
                .gauges
                .keys()
                .any(|key| key.starts_with("bsp_backend_probe")),
            "no probe series"
        );
        snap
    };
    let up = |snap: &MetricsSnapshot, backend: usize| {
        let key = format!("bsp_backend_up{{backend=\"{backend}\"}}");
        *snap.gauges.get(&key).unwrap_or_else(|| panic!("no {key}"))
    };
    let snap = scrape(&mut client);
    assert_eq!((up(&snap, 0), up(&snap, 1)), (1, 0));
    assert_eq!(
        snap.counter("bsp_shard_store_events_total{shard=\"0\",event=\"write_error\"}"),
        Some(0)
    );
    assert_eq!(
        snap.counter("bsp_shard_store_recovered_bytes_total{shard=\"0\"}"),
        Some(0)
    );
    assert!(
        !snap.counters.keys().any(|key| key.contains("shard=\"1\"")),
        "a dead shard has no series of its own"
    );

    // Restart a shard process on the same address.  The port was just freed,
    // but give the OS a few tries to hand it back.
    let mut restarted = None;
    for _ in 0..50 {
        match Server::bind(dead_addr, ServerConfig::default()) {
            Ok(server) => {
                restarted = Some(server.spawn().expect("spawn restarted shard"));
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
    let restarted = restarted.expect("rebind the freed shard address");
    assert_eq!(router.live_shards(), vec![0], "nothing revives it unasked");

    // One request shard 1 owns: it reconnects the backend and runs there.
    let machine = Machine::uniform(4, 1, 2);
    let options = RequestOptions::new();
    let dag = dag_with_seed(seed_owned_by(1, &machine));
    let reply = client.schedule(&dag, &machine, &options).expect("owned");
    assert!(reply.schedule.validate(&dag, &machine).is_ok());
    assert_eq!(
        restarted.stats().requests,
        1,
        "answered by the rejoined shard"
    );
    assert_eq!(router.live_shards(), vec![0, 1]);
    assert_eq!(up(&scrape(&mut client), 1), 1);

    drop(client);
    router.shutdown();
    restarted.shutdown();
    for shard in shards {
        shard.shutdown();
    }
}

#[test]
fn a_store_backed_shard_rejoins_warm_after_a_restart() {
    // Durability meets routing: a shard backed by the on-disk store is
    // restarted on the same directory, and the first fingerprint replay
    // after the rejoin is an *exact* hit — the deployment's cached keys
    // survive shard restarts instead of going cold.
    let store_dir = std::env::temp_dir().join(format!(
        "bsp-router-store-{}-rejoin-warm",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&store_dir);
    let stored_config = || ServerConfig {
        workers: 2,
        queue_capacity: 64,
        max_connections: 16,
        idle_timeout: Duration::from_secs(5),
        store_dir: Some(store_dir.clone()),
        ..Default::default()
    };
    let stored_shard = Server::bind("127.0.0.1:0", stored_config())
        .expect("bind stored shard")
        .spawn()
        .expect("spawn stored shard");
    let survivor = shard_server();
    let addrs = [stored_shard.addr(), survivor.addr()];
    let router = Router::bind("127.0.0.1:0", &addrs, RouterConfig::default())
        .expect("bind router")
        .spawn()
        .expect("spawn router");
    let machine = Machine::uniform(4, 1, 2);
    let options = RequestOptions::new();
    let seed = seed_owned_by(0, &machine);
    let dag = dag_with_seed(seed);

    let mut client = Client::connect(router.addr()).expect("connect via router");
    let cold = client.schedule(&dag, &machine, &options).expect("cold");
    assert_eq!(cold.source, ScheduleSource::Cold);

    // Graceful restart of the stored shard on the same address + directory.
    let dead_addr = addrs[0];
    stored_shard.shutdown();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while router.live_shards() != vec![1] {
        assert!(
            std::time::Instant::now() < deadline,
            "shard death unnoticed"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let mut restarted = None;
    for _ in 0..50 {
        match Server::bind(dead_addr, stored_config()) {
            Ok(server) => {
                restarted = Some(server.spawn().expect("spawn restarted stored shard"));
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
    let restarted = restarted.expect("rebind the freed shard address");
    assert_eq!(
        restarted.stats().store.loaded,
        1,
        "the restarted shard adopted its durable schedule"
    );

    // A fresh client replays by fingerprint only; the replay reconnects the
    // restarted shard, which must answer exactly, with no fallback and no
    // survivor involvement.
    let survivor_hits = survivor.stats().cache.hits;
    let mut replayer = Client::connect(router.addr()).expect("reconnect via router");
    replayer.assume_cached(&dag, &machine);
    let replay = replayer.schedule(&dag, &machine, &options).expect("replay");
    assert_eq!(
        replay.source,
        ScheduleSource::CacheExact,
        "the replay went warm off the recovered store, not cold"
    );
    assert_eq!(replay.cost, cold.cost);
    assert_eq!(replayer.fp_fallbacks(), 0);
    assert_eq!(survivor.stats().cache.hits, survivor_hits);
    assert_eq!(router.live_shards(), vec![0, 1]);

    // The aggregate carries the summed store counters.
    let agg = replayer.stats().expect("aggregated stats");
    assert_eq!(agg.store.loaded, 1);
    assert!(agg.store.recovered_bytes > 0);

    drop(client);
    drop(replayer);
    router.shutdown();
    restarted.shutdown();
    survivor.shutdown();
    let _ = std::fs::remove_dir_all(&store_dir);
}
