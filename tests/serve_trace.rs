//! End-to-end observability tests: request tracing through the service, the
//! server, and the router, plus the `METRICS` / `TRACE` / `STATS SLOW` wire
//! verbs.
//!
//! The headline scenario: a cold request sent **through the router** yields a
//! trace whose span tree shows the router dispatch, the shard's queue wait,
//! the cache miss, and every pipeline phase — also when it asks for the
//! retired `multilevel` mode, or for `default` or `fast`: the wire still
//! accepts every mode token, and every mode is the same solve.

use bsp_model::{Dag, Machine};
use bsp_serve::{
    Client, MetricsSnapshot, RequestOptions, Router, RouterConfig, RouterHandle, ScheduleRequest,
    ScheduleService, ScheduleSource, Server, ServerConfig, ServerHandle, ServiceConfig, SpanSet,
};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

fn test_dag(seed: u64) -> Dag {
    Dag::from_edges(
        8,
        &[
            (0, 1),
            (0, 2),
            (1, 3),
            (2, 3),
            (3, 4),
            (3, 5),
            (4, 6),
            (5, 7),
        ],
        vec![seed + 1; 8],
        vec![2; 8],
    )
    .unwrap()
}

/// 60 nodes in six layers, every node above the last with two successors in
/// the next.  The sinks are clusters of their own, so by induction up the
/// layers no node has all its successors in one cluster: the funnel reduction
/// leaves the DAG whole and the branches search all of it.
fn layered_dag(seed: u64) -> Dag {
    const WIDTH: usize = 10;
    const LAYERS: usize = 6;
    let stride = 1 + seed as usize % (WIDTH - 1);
    let mut edges = Vec::new();
    for v in 0..WIDTH * (LAYERS - 1) {
        let (layer, i) = (v / WIDTH, v % WIDTH);
        // Ascending, the order a hyperDAG round trip gives back: the request
        // key reads the adjacency order, and the router keys the parsed DAG.
        let mut next = [i, (i + stride) % WIDTH];
        next.sort_unstable();
        edges.extend(next.map(|j| (v, (layer + 1) * WIDTH + j)));
    }
    let n = WIDTH * LAYERS;
    let dag = Dag::from_edges(n, &edges, vec![seed % 5 + 1; n], vec![1; n]).unwrap();
    assert!(bsp_sched::Funnel::contract(&dag, 4).is_none());
    dag
}

fn service_config() -> ServiceConfig {
    ServiceConfig::default()
}

fn shard_server() -> ServerHandle {
    let config = ServerConfig {
        workers: 2,
        queue_capacity: 64,
        max_connections: 16,
        idle_timeout: Duration::from_secs(5),
        service: service_config(),
        ..Default::default()
    };
    Server::bind("127.0.0.1:0", config)
        .expect("bind shard")
        .spawn()
        .expect("spawn shard")
}

/// Two shards behind a router.
fn routed_deployment() -> (Vec<ServerHandle>, RouterHandle) {
    let shards = vec![shard_server(), shard_server()];
    let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.addr()).collect();
    let router = Router::bind("127.0.0.1:0", &addrs, RouterConfig::default())
        .expect("bind router")
        .spawn()
        .expect("spawn router");
    (shards, router)
}

/// Property: the spans a traced request records are consistent — every span fits inside the
/// measured wall-clock, and the solver's child phases sum to no more than
/// their parent `solve` span.
#[test]
fn traced_phase_durations_fit_inside_the_wall_clock() {
    let machine = Machine::uniform(4, 1, 2);
    for seed in [1u64, 2] {
        // Fresh service per DAG: each request is a cold solve on an empty
        // cache.
        let service = ScheduleService::new(service_config());
        let request = ScheduleRequest {
            id: seed,
            dag: layered_dag(seed),
            machine: machine.clone(),
            options: RequestOptions::new(),
        };
        let mut spans = SpanSet::new();
        let wall = Instant::now();
        let reply = service
            .handle_traced(&request, &mut spans)
            .expect("cold solve succeeds");
        let wall_us = wall.elapsed().as_micros() as u64;
        assert_eq!(reply.source, ScheduleSource::Cold);
        assert!(!spans.is_empty(), "a cold solve records spans");
        let solve = spans
            .spans()
            .iter()
            .find(|s| s.name == "solve")
            .copied()
            .expect("a cold solve records a solve span");
        let mut child_sum = 0u64;
        for span in spans.spans() {
            assert!(
                span.start_us.saturating_add(span.dur_us) <= wall_us,
                "span {} [{} +{}µs] overruns the measured wall clock ({wall_us}µs)",
                span.name,
                span.start_us,
                span.dur_us
            );
            if span.depth == 1 {
                child_sum += span.dur_us;
            }
        }
        assert!(
            child_sum <= solve.dur_us.max(1),
            "sequential solver phases ({child_sum}µs) exceed their parent solve span \
             ({}µs)",
            solve.dur_us
        );
    }
}

/// Sends `dag` as a cache-bypassing request with the literal mode token
/// `mode` and returns the reply's trace id and its schedule lines (`PROC`
/// through `END`) as they came off the wire.
fn raw_request(addr: SocketAddr, dag: &Dag, machine: &Machine, mode: &str) -> (u64, String) {
    let options = RequestOptions::new().with_cache(false);
    let mut wire = String::new();
    bsp_serve::protocol::encode_request(&mut wire, 1, dag, machine, &options).expect("encodes");
    let default_mode = format!("OPTION mode {}\n", options.mode.as_str());
    assert!(wire.contains(&default_mode));
    let wire = wire.replace(&default_mode, &format!("OPTION mode {mode}\n"));
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(wire.as_bytes()).expect("send");
    let reply = bsp_serve::protocol::read_raw_reply(&mut BufReader::new(stream))
        .expect("a reply frame")
        .expect("the connection stays open");
    assert!(!reply.is_err, "{mode}: {}", reply.header_rest);
    let trace = reply.header_rest.rsplit_once("trace ").expect("traced").1;
    let trace_id = u64::from_str_radix(trace, 16).expect("a hex trace id");
    (trace_id, reply.body)
}

/// Sends a raw `OPTION mode <mode>` request through a router and holds that
/// the one pipeline answered it: the schedule lines are the ones `heuristics`
/// gives, byte for byte, and the trace names every pipeline phase.  Returns
/// the trace's span names.
fn spans_of_a_request_the_pipeline_answered(mode: &str) -> Vec<String> {
    let (shards, router) = routed_deployment();
    let machine = Machine::uniform(4, 1, 2);
    let dag = layered_dag(4);

    let (trace_id, schedule) = raw_request(router.addr(), &dag, &machine, mode);
    let (_, heuristics) = raw_request(router.addr(), &dag, &machine, "heuristics");
    assert_eq!(schedule, heuristics, "mode {mode}");

    let mut client = Client::connect(router.addr()).expect("connect via router");
    let trace = client.trace(trace_id).expect("TRACE answers");
    assert_eq!(trace.source, "cold");
    let names: Vec<String> = trace.spans.into_iter().map(|s| s.name).collect();
    for expected in [
        "solve",
        "funnel",
        "BSPg",
        "Source",
        "init_schedule",
        "hc",
        "hccs",
    ] {
        assert!(
            names.iter().any(|n| n == expected),
            "mode {mode}: the trace is missing the {expected} span; got {names:?}"
        );
    }
    // One search a solve: the sweeps' `init_schedule` twice, `hc` once.
    let count = |name: &str| names.iter().filter(|n| *n == name).count();
    assert_eq!((count("init_schedule"), count("hc")), (2, 1), "{names:?}");

    drop(client);
    router.shutdown();
    for shard in shards {
        shard.shutdown();
    }
    names
}

/// `OPTION mode multilevel` is still a legal request: it is answered by the
/// pipeline, and its trace names none of the retired `ml_*` phases.
#[test]
fn a_multilevel_mode_request_is_a_heuristics_request() {
    let names = spans_of_a_request_the_pipeline_answered("multilevel");
    assert!(!names.iter().any(|n| n.starts_with("ml_")), "{names:?}");
}

/// `OPTION mode default` and `OPTION mode fast` ask for the same solve as
/// `heuristics`, byte for byte: no ILP stage after `HCcs`, no `ILPinit`
/// branch.
#[test]
fn a_default_mode_request_runs_the_same_pipeline_as_heuristics() {
    for mode in ["default", "fast"] {
        let names = spans_of_a_request_the_pipeline_answered(mode);
        assert!(
            !names.iter().any(|n| n == "ilp_stage" || n == "ILPinit"),
            "{mode}: {names:?}"
        );
    }
}

/// The acceptance scenario: a cold request through the router, traced end to
/// end, plus the `METRICS` and `STATS SLOW` verbs answered by the router from
/// pooled shard scrapes.
#[test]
fn router_trace_shows_dispatch_queue_wait_and_every_pipeline_phase() {
    let (shards, router) = routed_deployment();
    let machine = Machine::uniform(4, 1, 2);
    let options = RequestOptions::new();
    let mut client = Client::connect(router.addr()).expect("connect via router");

    let dag = layered_dag(3);
    let cold = client.schedule(&dag, &machine, &options).expect("cold");
    assert_eq!(cold.source, ScheduleSource::Cold);
    assert_ne!(cold.trace_id, 0, "the router mints a trace id");

    let trace = client.trace(cold.trace_id).expect("TRACE answers");
    assert_eq!(trace.trace_id, cold.trace_id);
    assert_eq!(trace.source, "cold");
    assert!(trace.shard >= 0, "the router journal records the shard");
    let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
    for expected in [
        "router_dispatch",
        "queue_wait",
        "cache_miss",
        "solve",
        "funnel",
        "BSPg",
        "Source",
        "init_schedule",
        "hc",
        "hccs",
        "respond",
    ] {
        assert!(
            names.contains(&expected),
            "router trace is missing the {expected} span; got {names:?}"
        );
    }
    // The shard subtree is grafted under the router dispatch span.
    let dispatch = &trace.spans[0];
    assert_eq!(dispatch.name, "router_dispatch");
    assert!(trace.spans.iter().skip(1).all(|s| s.depth >= 1));

    // An exact replay is traced too, without the solve subtree.
    let replay = client.schedule(&dag, &machine, &options).expect("replay");
    assert_eq!(replay.source, ScheduleSource::CacheExact);
    assert_ne!(replay.trace_id, 0);
    assert_ne!(
        replay.trace_id, cold.trace_id,
        "each request gets its own id"
    );
    let replay_trace = client.trace(replay.trace_id).expect("replay TRACE");
    assert_eq!(replay_trace.source, "exact");
    assert!(replay_trace
        .spans
        .iter()
        .any(|s| s.name == "cache_exact_hit"));

    // METRICS through the router: pooled shard series plus router-side ones.
    let exposition = client.metrics().expect("router METRICS");
    let snap = MetricsSnapshot::parse(&exposition).expect("exposition parses");
    assert!(snap.counter_sum("bsp_requests_total") >= 2);
    assert!(snap.counter_sum("bsp_solve_phase_micros_total") > 0);
    assert_eq!(snap.counter("bsp_cache_ops_total{op=\"hit\"}"), Some(1));
    assert!(
        snap.histograms
            .contains_key("bsp_request_latency_micros{source=\"cold\"}"),
        "pooled latency histogram is present"
    );
    assert_eq!(
        snap.counter_sum("bsp_router_requests_total"),
        2,
        "the router counts both admitted requests (full + fp replay)"
    );
    assert_eq!(snap.gauges.get("bsp_backend_up{backend=\"0\"}"), Some(&1));
    assert_eq!(snap.gauges.get("bsp_backend_up{backend=\"1\"}"), Some(&1));
    // Nothing was discarded: the fallback series is present, at 0.
    let key = "bsp_solver_fallbacks_total{kind=\"invalid_schedule\"}";
    assert_eq!(snap.counter(key), Some(0), "{key}");

    // The router's slow log knows both requests.
    let slow = client.slow_stats().expect("STATS SLOW");
    assert!(slow.iter().any(|e| e.trace_id == cold.trace_id));
    assert!(
        slow.windows(2).all(|w| w[0].total_us >= w[1].total_us),
        "slow log is sorted worst-first"
    );

    // `Client::stats` reads the same exposition: pooled quantiles.
    let agg = client.stats().expect("aggregated stats");
    assert!(agg.requests >= 2);
    assert_eq!(agg.cache.hits, 1);
    assert!(agg.cold_us.0 > 0, "pooled cold p50 is non-zero");

    drop(client);
    router.shutdown();
    for shard in shards {
        shard.shutdown();
    }
}

/// Unsharded deployments answer the same verbs directly: the server mints
/// trace ids, `TRACE` returns the span tree, and `METRICS` exposes the
/// phase-timing counters.
#[test]
fn single_server_metrics_and_trace_verbs_work_without_a_router() {
    let server = shard_server();
    let machine = Machine::uniform(4, 1, 2);
    let options = RequestOptions::new();
    let mut client = Client::connect(server.addr()).expect("connect");

    let dag = test_dag(9);
    let cold = client.schedule(&dag, &machine, &options).expect("cold");
    assert_ne!(
        cold.trace_id, 0,
        "the server mints a trace id when unrouted"
    );
    let trace = client.trace(cold.trace_id).expect("TRACE answers");
    let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
    for expected in ["queue_wait", "cache_miss", "solve", "respond"] {
        assert!(
            names.contains(&expected),
            "server trace is missing the {expected} span; got {names:?}"
        );
    }
    assert!(
        client.trace(0xdead_beef).is_err(),
        "an unknown trace id is an error, not an empty tree"
    );

    let exposition = client.metrics().expect("METRICS");
    let snap = MetricsSnapshot::parse(&exposition).expect("exposition parses");
    assert_eq!(snap.counter("bsp_requests_total{source=\"cold\"}"), Some(1));
    assert!(snap.counter_sum("bsp_solve_phase_micros_total") > 0);
    assert!(
        snap.histograms.contains_key("bsp_queue_wait_micros"),
        "queue-wait histogram is registered"
    );
    assert_eq!(snap.counter_sum("bsp_solver_fallbacks_total"), 0);
    assert_eq!(
        snap.counter("bsp_solver_fallbacks_total{kind=\"invalid_schedule\"}"),
        Some(0),
        "the fallback series is exported before anything falls back"
    );

    drop(client);
    server.shutdown();
}
