//! End-to-end observability tests: request tracing through the service, the
//! server, and the router, plus the `METRICS` / `TRACE` / `STATS SLOW` wire
//! verbs.
//!
//! The headline scenario: a cold request sent **through the router** yields a
//! trace whose span tree shows the router dispatch, the shard's queue wait,
//! the cache miss, and every pipeline phase — also when it asks for the
//! retired `multilevel` mode, or for `default` or `fast`: the wire still
//! accepts every mode token, and every mode is the same solve.

mod common;

use bsp_model::{Dag, Machine};
use bsp_sched::pipeline::{Pipeline, PHASE_NAMES};
use bsp_serve::{
    Client, MetricsSnapshot, RequestOptions, Router, RouterConfig, RouterHandle, ScheduleRequest,
    ScheduleService, ScheduleSource, Server, ServerConfig, ServerHandle, ServiceConfig, SpanSet,
    WireTrace,
};
use dag_gen::fine::{spmv, SpmvConfig};
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
        // The server's two halves: the lookup on the connection reader, the
        // solve on a worker.
        let mut spans = SpanSet::new();
        let wall = Instant::now();
        let key = bsp_model::request_key(&request.dag, &request.machine);
        assert!(service
            .lookup_traced(key.full, wall, true, &mut spans)
            .is_none());
        let reply = service
            .solve_traced(&request, key, wall, &mut spans)
            .expect("cold solve succeeds");
        let wall_us = wall.elapsed().as_micros() as u64;
        assert_eq!(reply.source, ScheduleSource::Cold);
        assert!(!spans.is_empty(), "a cold solve records spans");
        let solve = spans
            .spans()
            .iter()
            .find(|s| s.name() == "solve")
            .copied()
            .expect("a cold solve records a solve span");
        let mut child_sum = 0u64;
        for span in spans.spans() {
            let (start_us, dur_us) = (u64::from(span.start_us), u64::from(span.dur_us));
            assert!(
                start_us + dur_us <= wall_us,
                "span {} [{start_us} +{dur_us}µs] overruns the measured wall clock ({wall_us}µs)",
                span.name(),
            );
            if span.depth == 1 {
                child_sum += dur_us;
            }
        }
        assert!(
            child_sum <= u64::from(solve.dur_us).max(1),
            "sequential solver phases ({child_sum}µs) exceed their parent solve span \
             ({}µs)",
            solve.dur_us
        );
    }
}

/// Sends `dag` with the literal mode token `mode` through a deployment of
/// its own, so that the answer is a cold solve and not a cache echo, and
/// returns the reply's schedule lines (`PROC` through `END`) as they came
/// off the wire, with the request's trace.
fn cold_answer(dag: &Dag, machine: &Machine, mode: &str) -> (String, WireTrace) {
    let (shards, router) = routed_deployment();
    let options = RequestOptions::new();
    let mut wire = String::new();
    bsp_serve::protocol::encode_request(&mut wire, 1, dag, machine, &options).expect("encodes");
    let default_mode = format!("OPTION mode {}\n", options.mode.as_str());
    assert!(wire.contains(&default_mode));
    let wire = wire.replace(&default_mode, &format!("OPTION mode {mode}\n"));
    let mut stream = TcpStream::connect(router.addr()).expect("connect");
    stream.write_all(wire.as_bytes()).expect("send");
    let reply = bsp_serve::protocol::read_raw_reply(&mut BufReader::new(stream))
        .expect("a reply frame")
        .expect("the connection stays open");
    assert!(!reply.is_err, "{mode}: {}", reply.header_rest);
    let trace = reply.header_rest.rsplit_once("trace ").expect("traced").1;
    let trace_id = u64::from_str_radix(trace, 16).expect("a hex trace id");
    let mut client = Client::connect(router.addr()).expect("connect via router");
    let trace = client.trace(trace_id).expect("TRACE answers");
    assert_eq!(trace.source, "cold", "{mode}");
    drop(client);
    router.shutdown();
    for shard in shards {
        shard.shutdown();
    }
    (reply.body, trace)
}

/// Sends a raw `OPTION mode <mode>` request through a router and holds that
/// the one pipeline answered it: the schedule lines are the ones `heuristics`
/// gives, byte for byte, and the trace names every pipeline phase.  Returns
/// the trace's span names.
fn spans_of_a_request_the_pipeline_answered(mode: &str) -> Vec<String> {
    let machine = Machine::uniform(4, 1, 2);
    let dag = layered_dag(4);

    let (schedule, trace) = cold_answer(&dag, &machine, mode);
    let (heuristics, _) = cold_answer(&dag, &machine, "heuristics");
    assert_eq!(schedule, heuristics, "mode {mode}");

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

/// A trace starts when the request's frame arrives, before the server parses
/// and keys it.  On a full-payload hit of an `spmv` DAG of about 20k nodes
/// that work takes a while, so the hit's span starts after it, and the
/// trace's total covers the span.
#[test]
fn a_full_payload_hits_trace_starts_when_its_frame_arrives() {
    let server = shard_server();
    let machine = Machine::uniform(4, 1, 2);
    let dag = spmv(&SpmvConfig {
        n: 200,
        density: 0.24,
        seed: 3,
    });
    assert!((18_000..22_000).contains(&dag.n()), "{} nodes", dag.n());
    // The deadline only bounds the cold solve that fills the cache.
    let options = RequestOptions::new().with_deadline(Duration::from_millis(50));
    let mut first = Client::connect(server.addr()).expect("connect");
    let cold = first.schedule(&dag, &machine, &options).expect("cold");
    assert_eq!(cold.source, ScheduleSource::Cold);
    // A fresh client sends the full payload.
    let mut client = Client::connect(server.addr()).expect("connect");
    let hit = client.schedule(&dag, &machine, &options).expect("full hit");
    assert_eq!(hit.source, ScheduleSource::CacheExact);
    assert_eq!(client.fp_fallbacks(), 0);
    let trace = client.trace(hit.trace_id).expect("TRACE answers");
    let span = &trace.spans[0];
    assert_eq!(span.name, "cache_exact_hit", "{trace:?}");
    assert!(span.start_us > 0, "the lookup starts at 0 µs: {trace:?}");
    assert!(
        trace.total_us >= span.start_us + span.dur_us,
        "the total ends before the lookup: {trace:?}"
    );
    drop((first, client));
    server.shutdown();
}

/// Unsharded deployments answer the same verbs directly: the server mints
/// trace ids, `TRACE` returns the span tree, and `METRICS` exposes the
/// phase-timing counters.  A cold request waits in the queue and counts one
/// miss; a cache answer (an `FP` replay or a full-payload repeat) is made on
/// the connection reader and never queues.
#[test]
fn single_server_metrics_and_trace_verbs_work_without_a_router() {
    let server = shard_server();
    let machine = Machine::uniform(4, 1, 2);
    let options = RequestOptions::new();
    let mut client = Client::connect(server.addr()).expect("connect");
    let span_names =
        |trace: WireTrace| -> Vec<String> { trace.spans.into_iter().map(|s| s.name).collect() };
    // Each request's trace holds exactly one cache outcome.
    let cache_outcomes = |names: &[String]| -> Vec<String> {
        let outcome = |n: &&String| n.as_str() == "cache_miss" || n.as_str() == "cache_exact_hit";
        names.iter().filter(outcome).cloned().collect()
    };

    let dags = [test_dag(9), test_dag(10)];
    for dag in &dags {
        let cold = client.schedule(dag, &machine, &options).expect("cold");
        assert_eq!(cold.source, ScheduleSource::Cold);
        assert_ne!(
            cold.trace_id, 0,
            "the server mints a trace id when unrouted"
        );
        let names = span_names(client.trace(cold.trace_id).expect("TRACE answers"));
        for expected in ["queue_wait", "cache_miss", "solve", "respond"] {
            assert!(
                names.iter().any(|n| n == expected),
                "server trace is missing the {expected} span; got {names:?}"
            );
        }
        assert_eq!(cache_outcomes(&names), ["cache_miss"], "{names:?}");
    }
    assert!(
        client.trace(0xdead_beef).is_err(),
        "an unknown trace id is an error, not an empty tree"
    );

    // This client replays by fingerprint; a fresh one sends the full payload.
    let mut fresh = Client::connect(server.addr()).expect("connect");
    let hits = [
        client
            .schedule(&dags[0], &machine, &options)
            .expect("FP hit"),
        fresh
            .schedule(&dags[0], &machine, &options)
            .expect("full hit"),
    ];
    assert_eq!(client.fp_fallbacks(), 0, "the replay went out as `FP`");
    for hit in hits {
        assert_eq!(hit.source, ScheduleSource::CacheExact);
        let names = span_names(client.trace(hit.trace_id).expect("TRACE answers"));
        assert_eq!(cache_outcomes(&names), ["cache_exact_hit"], "{names:?}");
        assert!(!names.iter().any(|n| n == "queue_wait"), "{names:?}");
    }

    let exposition = client.metrics().expect("METRICS");
    let snap = MetricsSnapshot::parse(&exposition).expect("exposition parses");
    assert_eq!(snap.counter("bsp_requests_total{source=\"cold\"}"), Some(2));
    assert_eq!(
        snap.counter("bsp_requests_total{source=\"exact\"}"),
        Some(2)
    );
    assert!(snap.counter_sum("bsp_solve_phase_micros_total") > 0);
    let queue_wait = snap.histograms.get("bsp_queue_wait_micros");
    assert_eq!(
        queue_wait.map(|h| h.count),
        Some(2),
        "one queue wait per cold request, none per hit"
    );
    // A cold request's miss is counted once, by the worker's look before it
    // solves; the reader leaves it open.
    assert_eq!(snap.counter("bsp_cache_ops_total{op=\"miss\"}"), Some(2));
    assert_eq!(snap.counter("bsp_cache_ops_total{op=\"hit\"}"), Some(2));
    assert_eq!(snap.counter_sum("bsp_solver_fallbacks_total"), 0);
    assert_eq!(
        snap.counter("bsp_solver_fallbacks_total{kind=\"invalid_schedule\"}"),
        Some(0),
        "the fallback series is exported before anything falls back"
    );

    drop((client, fresh));
    server.shutdown();
}

/// Every phase the pipeline reports on the golden table's families, on the
/// benchmark's machines and the machine grid, is a name of the span table:
/// a trace stores it as an index and reads the same name back.
#[test]
fn every_pipeline_phase_maps_into_the_span_table_and_back() {
    let machines: Vec<Machine> = (common::benchmark_machines().into_iter())
        .chain(common::machine_grid())
        .collect();
    let mut seen = Vec::new();
    for (family, dag) in common::benchmark_families() {
        for machine in &machines {
            let report = Pipeline::default().run_report(&dag, machine);
            let mut spans = SpanSet::new();
            for &sample in &report.phases {
                assert!(PHASE_NAMES.contains(&sample.name), "{family}: {sample:?}");
                assert!(bsp_serve::obs::SPAN_NAMES.contains(&sample.name));
                spans.push_shifted(sample, 1, 0);
            }
            let back: Vec<(&str, u8)> = spans.spans().iter().map(|s| (s.name(), s.depth)).collect();
            let sent: Vec<(&str, u8)> = report
                .phases
                .iter()
                .map(|p| (p.name, p.depth + 1))
                .collect();
            assert_eq!(back, sent, "{family}");
            seen.extend(sent.into_iter().map(|(name, _)| name));
        }
    }
    seen.sort_unstable();
    seen.dedup();
    let mut all = PHASE_NAMES.to_vec();
    all.sort_unstable();
    assert_eq!(seen, all, "every phase name is exercised");
}

/// The `TRACE` and `STATS SLOW` replies of fixed journal records, byte for
/// byte: every span name a trace can carry, at depths 0-2, with offsets
/// and durations up to `u32::MAX` µs.  The literals are what the encoders
/// wrote when a span held its name as a `&'static str` and its clock as
/// `u64`s; the 12-byte span must not change one byte of them.
#[test]
fn trace_and_slow_replies_keep_their_bytes() {
    use bsp_serve::protocol::{encode_slow_reply, encode_trace_reply};
    use bsp_serve::TraceRecord;
    let names = [
        "router_dispatch",
        "queue_wait",
        "cache_miss",
        "cache_exact_hit",
        "solve",
        "funnel",
        "BSPg",
        "init_schedule",
        "Source",
        "hc",
        "relocate",
        "refine",
        "hccs",
        "cache_insert",
        "respond",
    ];
    let mut spans = SpanSet::new();
    for (i, name) in names.into_iter().enumerate() {
        let i = i as u64;
        spans.push(name, (i % 3) as u8, i * 1_000_003, i * i * 7_919);
    }
    spans.push("hccs", 2, u64::from(u32::MAX), u64::from(u32::MAX));
    let cold = TraceRecord {
        trace_id: 0x9e37_79b9_7f4a_7c15,
        source: "cold",
        shard: 1,
        total_us: 4_294_967_295,
        spans,
    };
    let mut exact_spans = SpanSet::new();
    exact_spans.push("cache_exact_hit", 0, 0, 3);
    exact_spans.push("respond", 0, 4, 11);
    let exact = TraceRecord {
        trace_id: 0x1,
        source: "exact",
        shard: -1,
        total_us: 15,
        spans: exact_spans,
    };
    let mut trace = String::new();
    encode_trace_reply(&mut trace, &WireTrace::from_record(&cold));
    encode_trace_reply(&mut trace, &WireTrace::from_record(&exact));
    let mut slow = String::new();
    encode_slow_reply(&mut slow, &[cold, exact]);
    assert_eq!(trace, TRACE_BYTES);
    assert_eq!(slow, SLOW_BYTES);
}

const TRACE_BYTES: &str = concat!(
    "TRACE 9e3779b97f4a7c15 source cold shard 1 total_us 4294967295 spans 16\n",
    "SPAN 0 0 0 router_dispatch\n",
    "SPAN 1 1000003 7919 queue_wait\n",
    "SPAN 2 2000006 31676 cache_miss\n",
    "SPAN 0 3000009 71271 cache_exact_hit\n",
    "SPAN 1 4000012 126704 solve\n",
    "SPAN 2 5000015 197975 funnel\n",
    "SPAN 0 6000018 285084 BSPg\n",
    "SPAN 1 7000021 388031 init_schedule\n",
    "SPAN 2 8000024 506816 Source\n",
    "SPAN 0 9000027 641439 hc\n",
    "SPAN 1 10000030 791900 relocate\n",
    "SPAN 2 11000033 958199 refine\n",
    "SPAN 0 12000036 1140336 hccs\n",
    "SPAN 1 13000039 1338311 cache_insert\n",
    "SPAN 2 14000042 1552124 respond\n",
    "SPAN 2 4294967295 4294967295 hccs\n",
    "END\n",
    "TRACE 1 source exact shard -1 total_us 15 spans 2\n",
    "SPAN 0 0 3 cache_exact_hit\n",
    "SPAN 0 4 11 respond\n",
    "END\n",
);

const SLOW_BYTES: &str = concat!(
    "SLOW 2\n",
    "TRACESUM 9e3779b97f4a7c15 cold 1 4294967295\n",
    "TRACESUM 1 exact -1 15\n",
    "END\n",
);
