//! `exp_serve` — throughput and latency of the `bsp_serve` deployment under
//! a mixed open-loop workload, comparing the **serial single-process
//! baseline** against the **pipelined, fingerprint-sharded front end**.
//!
//! The harness drives the same deterministic mixed instance stream (`spmv`,
//! `cg` and `knn` DAGs on uniform and NUMA machines; a configurable
//! fraction repeats earlier requests verbatim — exact cache hits / `FP`
//! replays — and another re-sends re-weighted variants — warm starts)
//! through two deployments:
//!
//! 1. **serial**: one server, blocking clients, one request in flight per
//!    connection (the PR 3 shape);
//! 2. **sharded**: `--shards` servers behind a `bsp_router`, pipelined
//!    clients with `--depth` requests in flight per connection.
//!
//! Every response is validated client-side; per-source latency and the
//! throughput ratio land in the JSON written to `--out`, and
//! `summary.warm_locality` sets the sharded warm hits beside the serial
//! ones with `placement_decisions`, the router's `bsp_placement_total`
//! count per decision label (`affinity`, `fp_legacy`, `failover`).
//!
//! A third **restart** phase measures the durable store: a store-backed
//! server is populated, shut down, and restarted on the same directory;
//! every request then replays by fingerprint (`FP <hex>`) against the
//! recovered cache.  The JSON gains pre- vs post-restart exact-hit
//! latencies and the `store_*` counters.
//!
//! A fourth **huge** phase (skipped under `--smoke`) submits one ~10⁵-node
//! `spmv` request in `heuristics` mode (the one solver: the pipeline) under
//! a realistic deadline, reads the request's trace back over the wire, and
//! records the per-phase solve breakdown (`funnel`, the two sweeps with their
//! `init_schedule`, `hc`, `hccs`) as a `huge` row plus a `huge` summary
//! object.
//!
//! Flags:
//!   --out PATH         output JSON path (default BENCH_serve.json)
//!   --target N         approximate DAG size in nodes (default 4000)
//!   --requests N       total requests across all clients (default 240)
//!   --clients N        concurrent client connections (default: cores, 2..4)
//!   --workers N        worker threads per server (default: cores, 2..4)
//!   --repeat-pct P     % of requests repeating an earlier one (default 40)
//!   --warm-pct P       % of requests re-weighting an earlier one (default 15)
//!   --deadline-ms MS   per-request deadline (default 1000)
//!   --cache-mb MB      schedule-cache byte budget per shard (default 64)
//!   --depth N          pipeline depth per client, sharded phase (default 8)
//!   --shards N         shard servers behind the router (default 2)
//!   --reps N           repetitions of the serial, sharded and restart phases
//!                      (default 1); the rows are those of the repetition
//!                      with the median sharded throughput, every
//!                      repetition's headline numbers go to `summary.reps`
//!   --huge-target N    huge-phase DAG size in nodes (default 100000)
//!   --huge-deadline-ms huge-phase request deadline (default 15000)
//!   --smoke            tiny workload + hard assertions (CI gate: 2-shard
//!                      router, depth-4 pipelined clients, zero invalid
//!                      schedules, every FP replay on its owning shard,
//!                      live placement counters in the mid-workload scrape,
//!                      sharded warm hits >= 0.9x the serial baseline,
//!                      cached bytes per node within 25% of the 32-bit
//!                      schedule's; exit 1 above it)

use bsp_bench::stats::BenchReport;
use bsp_bench::{size_to_target, CliArgs};
use bsp_model::{Dag, Machine};
use bsp_serve::{
    Client, Completion, Decision, LatencyHistogram, MetricsSnapshot, Mode, PipelinedClient,
    PlacementScope, RequestOptions, Router, RouterConfig, RouterHandle, ScheduleSource, Server,
    ServerConfig, ServerHandle, ServiceConfig, ServiceStats,
};
use dag_gen::fine::{cg, knn, spmv, IterConfig, SpmvConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The `--smoke` ceiling on cached bytes per node: 12.54 measured at the
/// default seed with 32-bit `π`, `τ` and `Γ` (12.2–12.7 on seeds 1–3), plus
/// 25 %.  `usize` maps and transfers read ~24.8.
const SMOKE_MAX_CACHE_BYTES_PER_NODE: f64 = 15.7;

/// One schedulable instance of the workload.
struct WorkItem {
    dag: Arc<Dag>,
    machine: Machine,
}

/// Builds the base instance pool: three generator families, two machines.
fn base_pool(target: usize) -> Vec<WorkItem> {
    let machines = [
        Machine::uniform(4, 3, 5),
        Machine::numa_binary_tree(8, 1, 5, 3),
    ];
    let mut dags: Vec<Arc<Dag>> = Vec::new();
    for seed in [11u64, 12, 13] {
        dags.push(Arc::new(size_to_target(target, |n| {
            spmv(&SpmvConfig {
                n,
                density: 8.0 / n as f64,
                seed,
            })
        })));
        dags.push(Arc::new(size_to_target(target, |n| {
            cg(&IterConfig {
                n,
                density: 8.0 / n as f64,
                iterations: 2,
                seed,
            })
        })));
        // `knn` grows a frontier from a single source, so with an `O(1/n)`
        // density its size plateaus at ~degree² nodes whatever `n` is; a
        // denser pattern (and a capped target) keeps the sizing search
        // convergent while still producing the narrow-then-wide shape.
        let knn_target = target.min(800);
        dags.push(Arc::new(size_to_target(knn_target, |n| {
            knn(&IterConfig {
                n,
                density: 24.0 / n as f64,
                iterations: 2,
                seed,
            })
        })));
    }
    let mut pool = Vec::new();
    for dag in &dags {
        for machine in &machines {
            pool.push(WorkItem {
                dag: Arc::clone(dag),
                machine: machine.clone(),
            });
        }
    }
    pool
}

/// A re-weighted copy of `dag`: same structure (so the service sees the same
/// structural fingerprint), work weights scaled node-wise.
fn reweight(dag: &Dag, rng: &mut ChaCha8Rng) -> Dag {
    let edges: Vec<_> = dag.edges().collect();
    let work: Vec<u64> = dag
        .work_weights()
        .iter()
        .map(|&w| (w + rng.gen_range(1u64..4)).max(1))
        .collect();
    let comm = dag.comm_weights().to_vec();
    Dag::from_edges(dag.n(), &edges, work, comm).expect("reweighting preserves the DAG")
}

/// The deterministic request stream: indices into a pool that mixes base
/// instances (cold on first use, exact hits on repeats) and re-weighted
/// variants (warm hits when their base is cached).
///
/// A warm variant only re-weights an entry its *own* client finished at
/// least `depth` share positions earlier.  The pipelining window guarantees
/// that entry's request completed — and was cached — before the variant is
/// submitted, so the phases' warm-hit counts measure the placement policy,
/// not submission timing.
fn build_stream(
    pool: &mut Vec<WorkItem>,
    requests: usize,
    repeat_pct: u64,
    warm_pct: u64,
    clients: usize,
    depth: usize,
    seed: u64,
) -> Vec<usize> {
    let base_len = pool.len();
    let clients = clients.max(1);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut stream = Vec::with_capacity(requests);
    let mut used: Vec<usize> = Vec::new();
    // Per-client history of pool indices, in share order (the phases split
    // the stream round-robin: position p runs on client p % clients).
    let mut per_client: Vec<Vec<usize>> = vec![Vec::new(); clients];
    for position in 0..requests {
        let client = position % clients;
        let settled = per_client[client].len().saturating_sub(depth);
        let roll = rng.gen_range(0u64..100);
        let idx = if roll < repeat_pct && !used.is_empty() {
            // Exact repeat of something already requested.
            used[rng.gen_range(0..used.len())]
        } else if roll < repeat_pct + warm_pct && settled > 0 {
            // Re-weighted variant of a settled entry: same structure,
            // different weights, base guaranteed cached by submission time.
            let base = per_client[client][rng.gen_range(0..settled)];
            let dag = reweight(&pool[base].dag, &mut rng);
            let machine = pool[base].machine.clone();
            pool.push(WorkItem {
                dag: Arc::new(dag),
                machine,
            });
            let idx = pool.len() - 1;
            used.push(idx);
            idx
        } else {
            let idx = rng.gen_range(0..base_len);
            used.push(idx);
            idx
        };
        per_client[client].push(idx);
        stream.push(idx);
    }
    stream
}

#[derive(Default)]
struct ClientOutcome {
    histograms: [LatencyHistogram; 3], // cold, exact, warm
    invalid: u64,
    errors: u64,
    fp_fallbacks: u64,
    worst_deadline_ratio: f64,
}

/// Pooled outcome of one whole phase.
struct PhaseOutcome {
    merged: [LatencyHistogram; 3],
    invalid: u64,
    errors: u64,
    fp_fallbacks: u64,
    worst_deadline_ratio: f64,
    wall: Duration,
    throughput_rps: f64,
}

fn source_slot(source: ScheduleSource) -> usize {
    match source {
        ScheduleSource::Cold => 0,
        ScheduleSource::CacheExact => 1,
        ScheduleSource::CacheWarm => 2,
    }
}

fn pool_outcomes(outcomes: Vec<ClientOutcome>, requests: usize, wall: Duration) -> PhaseOutcome {
    let merged: [LatencyHistogram; 3] = Default::default();
    let mut phase = PhaseOutcome {
        merged,
        invalid: 0,
        errors: 0,
        fp_fallbacks: 0,
        worst_deadline_ratio: 0.0,
        wall,
        throughput_rps: requests as f64 / wall.as_secs_f64(),
    };
    for outcome in &outcomes {
        phase.invalid += outcome.invalid;
        phase.errors += outcome.errors;
        phase.fp_fallbacks += outcome.fp_fallbacks;
        phase.worst_deadline_ratio = phase.worst_deadline_ratio.max(outcome.worst_deadline_ratio);
        for (pooled, client) in phase.merged.iter().zip(&outcome.histograms) {
            pooled.merge_from(client);
        }
    }
    phase
}

/// Phase 1: blocking clients against a single server, one request in flight
/// per connection.
fn run_serial_phase(
    addr: SocketAddr,
    pool: &Arc<Vec<WorkItem>>,
    stream: &[usize],
    clients: usize,
    deadline: Duration,
    progress_label: &str,
) -> PhaseOutcome {
    let requests = stream.len();
    let progress = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..clients {
            let share: Vec<usize> = stream.iter().copied().skip(c).step_by(clients).collect();
            let pool = Arc::clone(pool);
            let progress = Arc::clone(&progress);
            handles.push(scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect to the server");
                let options = RequestOptions::new()
                    .with_mode(Mode::HeuristicsOnly)
                    .with_deadline(deadline);
                let mut outcome = ClientOutcome::default();
                for idx in share {
                    let item = &pool[idx];
                    let start = Instant::now();
                    match client.schedule(&item.dag, &item.machine, &options) {
                        Ok(response) => {
                            let latency = start.elapsed();
                            outcome.histograms[source_slot(response.source)].record(latency);
                            let ratio = latency.as_secs_f64() / deadline.as_secs_f64();
                            outcome.worst_deadline_ratio = outcome.worst_deadline_ratio.max(ratio);
                            if response
                                .schedule
                                .validate(&item.dag, &item.machine)
                                .is_err()
                            {
                                outcome.invalid += 1;
                            }
                        }
                        Err(err) => {
                            eprintln!("request failed: {err}");
                            outcome.errors += 1;
                        }
                    }
                    let done = progress.fetch_add(1, Ordering::Relaxed) + 1;
                    if done.is_multiple_of(50) {
                        eprintln!("  [serial] {done}/{requests} requests");
                    }
                }
                outcome
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = start.elapsed();
    eprintln!("{progress_label} done in {wall:.2?}");
    pool_outcomes(outcomes, requests, wall)
}

/// Phase 2: pipelined clients (up to `depth` requests in flight each)
/// against the router.
fn run_pipelined_phase(
    addr: SocketAddr,
    pool: &Arc<Vec<WorkItem>>,
    stream: &[usize],
    clients: usize,
    depth: usize,
    deadline: Duration,
    progress_label: &str,
) -> PhaseOutcome {
    let requests = stream.len();
    let progress = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..clients {
            let share: Vec<usize> = stream.iter().copied().skip(c).step_by(clients).collect();
            let pool = Arc::clone(pool);
            let progress = Arc::clone(&progress);
            handles.push(scope.spawn(move || {
                let mut client = PipelinedClient::connect(addr).expect("connect to the router");
                let options = RequestOptions::new()
                    .with_mode(Mode::HeuristicsOnly)
                    .with_deadline(deadline);
                let mut outcome = ClientOutcome::default();
                let mut in_flight: HashMap<u64, (usize, Instant)> = HashMap::new();
                let mut next = 0usize;
                loop {
                    // Keep the window full.
                    while next < share.len() && in_flight.len() < depth.max(1) {
                        let idx = share[next];
                        next += 1;
                        let item = &pool[idx];
                        match client.submit(&item.dag, &item.machine, &options) {
                            Ok(id) => {
                                in_flight.insert(id, (idx, Instant::now()));
                            }
                            Err(err) => {
                                eprintln!("submit failed: {err}");
                                outcome.errors += 1;
                            }
                        }
                    }
                    if in_flight.is_empty() {
                        break;
                    }
                    match client.recv() {
                        Ok(Completion::Ok(response)) => {
                            let (idx, submitted) = in_flight
                                .remove(&response.id)
                                .expect("completion for an unknown id");
                            let latency = submitted.elapsed();
                            outcome.histograms[source_slot(response.source)].record(latency);
                            let ratio = latency.as_secs_f64() / deadline.as_secs_f64();
                            outcome.worst_deadline_ratio = outcome.worst_deadline_ratio.max(ratio);
                            let item = &pool[idx];
                            if response
                                .schedule
                                .validate(&item.dag, &item.machine)
                                .is_err()
                            {
                                outcome.invalid += 1;
                            }
                        }
                        Ok(Completion::Failed { id, error }) => {
                            in_flight.remove(&id);
                            eprintln!("request {id} failed: {error}");
                            outcome.errors += 1;
                        }
                        Err(err) => {
                            eprintln!("connection failed: {err}");
                            outcome.errors += in_flight.len() as u64;
                            break;
                        }
                    }
                    let done = progress.fetch_add(1, Ordering::Relaxed) + 1;
                    if done.is_multiple_of(50) {
                        eprintln!("  [sharded] {done}/{requests} requests");
                    }
                }
                outcome.fp_fallbacks = client.fp_fallbacks();
                outcome
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = start.elapsed();
    eprintln!("{progress_label} done in {wall:.2?}");
    pool_outcomes(outcomes, requests, wall)
}

fn server_config(
    workers: usize,
    clients: usize,
    deadline: Duration,
    cache_mb: usize,
) -> ServerConfig {
    ServerConfig {
        workers,
        queue_capacity: 16 * clients.max(1),
        max_connections: 4 * clients.max(1) + 8,
        admission_batch: 8,
        idle_timeout: Duration::from_secs(30),
        service: ServiceConfig {
            cache_bytes: cache_mb << 20,
            // Cold runs get 80% of the deadline for local search (the rest
            // is headroom for the non-cancellable fringes: initializers,
            // merges, cost/validate, response encoding); warm runs a
            // quarter (they start near a local minimum).
            local_search_budget: deadline.mul_f64(0.8),
            warm_budget: deadline / 4,
            default_deadline: Some(deadline),
            placement: None, // per-shard scopes are set in spawn_deployment
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    }
}

/// Outcome of the restart phase: exact-hit latencies before and after the
/// restart, plus the store counters that certify what happened.
struct RestartOutcome {
    pre_exact: LatencyHistogram,
    post_exact: LatencyHistogram,
    /// Post-restart replays that did *not* come back as exact hits (each one
    /// is an entry the store failed to bring back warm).
    post_non_exact: u64,
    fp_fallbacks: u64,
    invalid: u64,
    appended: u64,
    loaded: u64,
    recovered_bytes: u64,
    dropped_corrupt: u64,
}

/// Phase 3: populate a store-backed server, shut it down gracefully, restart
/// it on the same directory, and replay every request by fingerprint against
/// the pre-warmed cache.  (Torn-write and `kill -9` recovery are covered by
/// the crash tests; the bench measures the happy restart's cost.)
fn run_restart_phase(
    config: &ServerConfig,
    pool: &[WorkItem],
    deadline: Duration,
) -> RestartOutcome {
    let dir = std::env::temp_dir().join(format!("bsp-exp-serve-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut stored = config.clone();
    stored.store_dir = Some(dir.clone());
    let options = RequestOptions::new()
        .with_mode(Mode::HeuristicsOnly)
        .with_deadline(deadline);
    let mut outcome = RestartOutcome {
        pre_exact: LatencyHistogram::new(),
        post_exact: LatencyHistogram::new(),
        post_non_exact: 0,
        fp_fallbacks: 0,
        invalid: 0,
        appended: 0,
        loaded: 0,
        recovered_bytes: 0,
        dropped_corrupt: 0,
    };

    // Populate, then measure the pre-restart exact-hit baseline (the second
    // pass replays by fingerprint: the client already knows every key).
    let server = Server::bind("127.0.0.1:0", stored.clone())
        .expect("bind the store-backed server")
        .spawn()
        .expect("spawn server threads");
    {
        let mut client = Client::connect(server.addr()).expect("connect");
        for item in pool {
            let response = client
                .schedule(&item.dag, &item.machine, &options)
                .expect("populate request");
            if response
                .schedule
                .validate(&item.dag, &item.machine)
                .is_err()
            {
                outcome.invalid += 1;
            }
        }
        for item in pool {
            let start = Instant::now();
            let response = client
                .schedule(&item.dag, &item.machine, &options)
                .expect("pre-restart replay");
            if response.source == ScheduleSource::CacheExact {
                outcome.pre_exact.record(start.elapsed());
            }
        }
    }
    outcome.appended = server.stats().store.appended;
    server.shutdown(); // graceful: every accepted write is flushed

    // Restart on the same directory: recovery replays the segments into the
    // cache, and a *fresh* client replays by fingerprint only because it is
    // told the entries survived (`assume_cached`).
    let server = Server::bind("127.0.0.1:0", stored)
        .expect("rebind on the same store directory")
        .spawn()
        .expect("respawn server threads");
    let stats = server.stats();
    outcome.loaded = stats.store.loaded;
    outcome.recovered_bytes = stats.store.recovered_bytes;
    outcome.dropped_corrupt = stats.store.dropped_corrupt;
    {
        let mut client = Client::connect(server.addr()).expect("reconnect");
        for item in pool {
            client.assume_cached(&item.dag, &item.machine);
            let start = Instant::now();
            let response = client
                .schedule(&item.dag, &item.machine, &options)
                .expect("post-restart replay");
            if response.source == ScheduleSource::CacheExact {
                outcome.post_exact.record(start.elapsed());
            } else {
                outcome.post_non_exact += 1;
            }
            if response
                .schedule
                .validate(&item.dag, &item.machine)
                .is_err()
            {
                outcome.invalid += 1;
            }
        }
        outcome.fp_fallbacks = client.fp_fallbacks();
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

fn spawn_deployment(shards: usize, config: &ServerConfig) -> (Vec<ServerHandle>, RouterHandle) {
    let shard_handles: Vec<ServerHandle> = (0..shards)
        .map(|shard| {
            let mut config = config.clone();
            // Each shard knows its slice of the placement policy, so adoption
            // of failed-over entries is counted and an epoch change compacts
            // foreign durable state.
            config.service.placement = Some(PlacementScope { shards, shard });
            Server::bind("127.0.0.1:0", config)
                .expect("bind a shard")
                .spawn()
                .expect("spawn shard threads")
        })
        .collect();
    let addrs: Vec<SocketAddr> = shard_handles.iter().map(|s| s.addr()).collect();
    let router = Router::bind("127.0.0.1:0", &addrs, RouterConfig::default())
        .expect("bind the router")
        .spawn()
        .expect("spawn router threads");
    (shard_handles, router)
}

/// Outcome of the huge-instance phase: one ~10⁵-node cold request in
/// `heuristics` mode under a realistic deadline, plus the server-side trace
/// spans that break the solve down per pipeline phase.
struct HugeOutcome {
    nodes: usize,
    latency: Duration,
    valid: bool,
    source: ScheduleSource,
    /// Durations (µs) of `solve` and the spans beneath it, summed per name, in
    /// recording order.
    spans: Vec<(String, u64)>,
}

/// Phase 4: a single huge request against a dedicated server.  The request
/// carries a trace id, so the span breakdown comes back over the wire
/// (`TRACE <hex>`) — the same telemetry an operator would pull from a live
/// deployment.
fn run_huge_phase(base: &ServerConfig, target: usize, deadline: Duration) -> HugeOutcome {
    let dag = size_to_target(target, |n| {
        spmv(&SpmvConfig {
            n,
            density: 8.0 / n as f64,
            seed: 21,
        })
    });
    let machine = Machine::numa_binary_tree(8, 1, 5, 3);
    eprintln!("  huge instance: {} nodes, deadline {deadline:?}", dag.n());
    let mut config = base.clone();
    config.service.default_deadline = Some(deadline);
    config.service.local_search_budget = deadline.mul_f64(0.8);
    config.service.warm_budget = deadline / 4;
    let server = Server::bind("127.0.0.1:0", config)
        .expect("bind the huge-phase server")
        .spawn()
        .expect("spawn the huge-phase server");
    let mut client = Client::connect(server.addr()).expect("connect to the huge-phase server");
    // Any non-zero id works: the trace is read back on the same connection.
    let trace_id = 0xb16u64;
    let options = RequestOptions::new()
        .with_mode(Mode::HeuristicsOnly)
        .with_deadline(deadline)
        .with_trace(trace_id);
    let start = Instant::now();
    let response = client
        .schedule(&dag, &machine, &options)
        .expect("the huge request completes");
    let latency = start.elapsed();
    let valid = response.schedule.validate(&dag, &machine).is_ok();
    let trace = client
        .trace(trace_id)
        .expect("read the huge request's trace");
    server.shutdown();
    // `solve` and the subtree the pipeline's phases hang beneath it, one
    // entry per name (either sweep has an `init_schedule`).
    let from_solve = trace.spans.iter().skip_while(|s| s.name != "solve");
    let solve_depth = from_solve.clone().next().map_or(0, |s| s.depth);
    let subtree = from_solve
        .enumerate()
        .take_while(|(i, s)| *i == 0 || s.depth > solve_depth);
    let mut spans: Vec<(String, u64)> = Vec::new();
    for (_, span) in subtree {
        match spans.iter_mut().find(|(name, _)| *name == span.name) {
            Some((_, dur)) => *dur += span.dur_us,
            None => spans.push((span.name.clone(), span.dur_us)),
        }
    }
    HugeOutcome {
        nodes: dag.n(),
        latency,
        valid,
        source: response.source,
        spans,
    }
}

fn source_name(source: ScheduleSource) -> &'static str {
    match source {
        ScheduleSource::Cold => "cold",
        ScheduleSource::CacheExact => "exact",
        ScheduleSource::CacheWarm => "warm",
    }
}

/// What one repetition of the serial, sharded and restart phases measured.
struct Measured {
    serial: PhaseOutcome,
    serial_stats: ServiceStats,
    sharded: PhaseOutcome,
    shard_stats: Vec<ServiceStats>,
    /// The router's merged exposition, scraped while the deployment was live.
    metrics: MetricsSnapshot,
    restart: RestartOutcome,
}

fn main() {
    let args = CliArgs::from_env(&[
        "smoke",
        "out",
        "target",
        "requests",
        "clients",
        "workers",
        "repeat-pct",
        "warm-pct",
        "deadline-ms",
        "cache-mb",
        "depth",
        "shards",
        "reps",
        "seed",
        "huge-target",
        "huge-deadline-ms",
    ]);
    let smoke = args.flag("smoke");
    let out_path = args.value("out").unwrap_or("BENCH_serve.json").to_string();
    let target = args.usize_or("target", if smoke { 120 } else { 4000 });
    let requests = args.usize_or("requests", if smoke { 60 } else { 240 });
    // Defaults scale with the host: on small CI boxes a couple of concurrent
    // cold solves already saturate the CPU and queueing (not service time)
    // would dominate the tail.
    let cores = bsp_bench::stats::host_cores();
    let clients = args
        .usize_or("clients", if smoke { 2 } else { cores.clamp(2, 4) })
        .max(1);
    let workers = args.usize_or("workers", cores.clamp(2, 4)).max(1);
    let repeat_pct = args.u64_or("repeat-pct", 40).min(100);
    let warm_pct = args
        .u64_or("warm-pct", 15)
        .min(100u64.saturating_sub(repeat_pct));
    let deadline =
        Duration::from_millis(args.u64_or("deadline-ms", if smoke { 200 } else { 1000 }));
    let cache_mb = args.u64_or("cache-mb", 64) as usize;
    let depth = args.usize_or("depth", if smoke { 4 } else { 8 }).max(1);
    let shards = args.usize_or("shards", 2).max(1);
    let reps = args.usize_or("reps", 1).max(1);

    eprintln!(
        "exp_serve: target {target} nodes, {requests} requests, {clients} clients, \
         {workers} workers, repeat {repeat_pct}%, warm {warm_pct}%, deadline {deadline:?}, \
         depth {depth}, {shards} shards"
    );

    eprintln!("building instance pool...");
    let mut pool = base_pool(target);
    let base_len = pool.len();
    let stream = build_stream(
        &mut pool,
        requests,
        repeat_pct,
        warm_pct,
        clients,
        depth,
        args.seed(),
    );
    let pool = Arc::new(pool);
    let config = server_config(workers, clients, deadline, cache_mb);

    let measure = |rep: usize| -> Measured {
        eprintln!("---- repetition {} of {reps} ----", rep + 1);
        // ---- Phase 1: serial single-process baseline -------------------------
        let server = Server::bind("127.0.0.1:0", config.clone())
            .expect("bind an ephemeral loopback port")
            .spawn()
            .expect("spawn server threads");
        eprintln!("serial baseline on {}", server.addr());
        let serial = run_serial_phase(
            server.addr(),
            &pool,
            &stream,
            clients,
            deadline,
            "serial baseline",
        );
        let serial_stats = server.stats();
        server.shutdown();

        // ---- Phase 2: pipelined clients against the sharded router ----------
        let (shard_handles, router) = spawn_deployment(shards, &config);
        eprintln!(
            "{shards}-shard router on {} (shards: {:?})",
            router.addr(),
            shard_handles.iter().map(|s| s.addr()).collect::<Vec<_>>()
        );
        let sharded = run_pipelined_phase(
            router.addr(),
            &pool,
            &stream,
            clients,
            depth,
            deadline,
            "sharded pipelined",
        );
        let shard_stats: Vec<_> = shard_handles.iter().map(|s| s.stats()).collect();
        // Scrape the router's merged exposition while the deployment is live:
        // the same series a Prometheus scraper would pull, pooled across shards.
        let metrics = Client::connect(router.addr())
            .expect("connect a metrics scraper to the router")
            .metrics()
            .expect("scrape METRICS through the router");
        let metrics = MetricsSnapshot::parse(&metrics).expect("the exposition parses");
        router.shutdown();
        for shard in shard_handles {
            shard.shutdown();
        }

        // ---- Phase 3: durable-store restart ---------------------------------
        eprintln!("restart phase: populate a store-backed server, restart it, replay");
        let restart = run_restart_phase(&config, &pool[..base_len], deadline);
        eprintln!(
            "restart: {} appended, {} loaded back ({} bytes, {} dropped), \
             exact p50 {}us before vs {}us after, {} fp fallbacks, {} non-exact replays",
            restart.appended,
            restart.loaded,
            restart.recovered_bytes,
            restart.dropped_corrupt,
            restart.pre_exact.quantile_micros(0.5),
            restart.post_exact.quantile_micros(0.5),
            restart.fp_fallbacks,
            restart.post_non_exact,
        );

        Measured {
            serial,
            serial_stats,
            sharded,
            shard_stats,
            metrics,
            restart,
        }
    };
    // The rows come from the repetition with the median sharded throughput;
    // every repetition's headline numbers are kept beside them.
    let mut runs: Vec<Measured> = (0..reps).map(measure).collect();
    let exact_p50 = |phase: &PhaseOutcome| phase.merged[1].quantile_micros(0.5);
    let reps_json: Vec<String> = runs
        .iter()
        .map(|m| {
            format!(
                "{{\"serial_throughput_rps\": {:.1}, \"sharded_throughput_rps\": {:.1}, \
                 \"serial_exact_p50_us\": {}, \"sharded_exact_p50_us\": {}, \
                 \"restart_post_exact_p50_us\": {}}}",
                m.serial.throughput_rps,
                m.sharded.throughput_rps,
                exact_p50(&m.serial),
                exact_p50(&m.sharded),
                m.restart.post_exact.quantile_micros(0.5),
            )
        })
        .collect();
    runs.sort_by(|a, b| {
        a.sharded
            .throughput_rps
            .total_cmp(&b.sharded.throughput_rps)
    });
    let Measured {
        serial,
        serial_stats,
        sharded,
        shard_stats,
        metrics,
        restart,
    } = runs.swap_remove(runs.len() / 2);
    let queue_wait = metrics.histogram("bsp_queue_wait_micros");
    let (qw_p50, qw_p99) = queue_wait.map_or((0, 0), |h| {
        (h.quantile_micros(0.5), h.quantile_micros(0.99))
    });
    let solve_phase_micros = metrics.counter_sum("bsp_solve_phase_micros_total");
    eprintln!(
        "router metrics: {} requests, queue wait p50 {qw_p50}us / p99 {qw_p99}us, \
         {solve_phase_micros}us of attributed solver phase time",
        metrics.counter_sum("bsp_requests_total"),
    );
    // Bytes per cached node: the shards' pooled cache gauges over the mean
    // size n̄ of the distinct instances the stream asked for (one cache
    // entry each; the caches are far larger than the workload).
    let distinct: HashSet<usize> = stream.iter().copied().collect();
    let mean_nodes =
        distinct.iter().map(|&i| pool[i].dag.n()).sum::<usize>() as f64 / distinct.len() as f64;
    let gauge = |key: &str| metrics.gauges.get(key).copied().unwrap_or(0) as f64;
    let cache_bytes_per_node =
        gauge("bsp_cache_bytes") / gauge("bsp_cache_entries").max(1.0) / mean_nodes;
    eprintln!(
        "cache: {} entries in {} bytes, n̄ {mean_nodes:.1}: {cache_bytes_per_node:.2} bytes per \
         cached node",
        gauge("bsp_cache_entries"),
        gauge("bsp_cache_bytes"),
    );

    // ---- Phase 4: huge-instance request ---------------------------------
    // Skipped under --smoke: a 10⁵-node cold solve is minutes of CI time.
    let huge = if smoke {
        None
    } else {
        let huge_target = args.usize_or("huge-target", 100_000);
        let huge_deadline = Duration::from_millis(args.u64_or("huge-deadline-ms", 15_000));
        eprintln!("huge phase: one cold heuristics-mode request with a trace");
        let outcome = run_huge_phase(&config, huge_target, huge_deadline);
        let span_us = |name: &str| {
            outcome
                .spans
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, d)| *d)
        };
        let solve_us = span_us("solve");
        let funnel_us = span_us("funnel");
        eprintln!(
            "huge: {} nodes in {:.2?} ({}, valid: {}) | solve {solve_us}us, \
             funnel {funnel_us}us ({:.1}% of solve)",
            outcome.nodes,
            outcome.latency,
            source_name(outcome.source),
            outcome.valid,
            funnel_us as f64 / solve_us.max(1) as f64 * 100.0,
        );
        Some((outcome, huge_deadline))
    };

    let speedup = if serial.throughput_rps > 0.0 {
        sharded.throughput_rps / serial.throughput_rps
    } else {
        0.0
    };
    let q =
        |phase: &PhaseOutcome, slot: usize, quant: f64| phase.merged[slot].quantile_micros(quant);
    let n_of = |phase: &PhaseOutcome, slot: usize| phase.merged[slot].count();
    let exact_speedup = {
        let (cold_p50, exact_p50) = (q(&serial, 0, 0.5), q(&serial, 1, 0.5));
        if exact_p50 > 0 {
            cold_p50 as f64 / exact_p50 as f64
        } else {
            0.0
        }
    };

    eprintln!(
        "serial:  {:.1} req/s | cold {} (p50 {}us) | exact {} (p50 {}us) | warm {} (p50 {}us)",
        serial.throughput_rps,
        n_of(&serial, 0),
        q(&serial, 0, 0.5),
        n_of(&serial, 1),
        q(&serial, 1, 0.5),
        n_of(&serial, 2),
        q(&serial, 2, 0.5),
    );
    eprintln!(
        "sharded: {:.1} req/s ({speedup:.2}x) | cold {} (p50 {}us) | exact {} (p50 {}us) | \
         fp fallbacks {} | invalid {} | errors {}",
        sharded.throughput_rps,
        n_of(&sharded, 0),
        q(&sharded, 0, 0.5),
        n_of(&sharded, 1),
        q(&sharded, 1, 0.5),
        sharded.fp_fallbacks,
        sharded.invalid,
        sharded.errors,
    );
    for (i, stats) in shard_stats.iter().enumerate() {
        eprintln!(
            "  shard {i}: {} requests, {} hits / {} warm / {} warm-fallbacks / {} misses, \
             {} entries",
            stats.requests,
            stats.cache.hits,
            stats.cache.warm_hits,
            stats.cache.warm_fallbacks,
            stats.cache.misses,
            stats.cache.entries,
        );
    }

    let mut report = BenchReport::new("serve_throughput");
    // `host_cores` contextualizes `sharded_over_serial`: the sharded
    // deployment adds parallel capacity (one shard per core/box is the
    // deployment model), so on a single-core host the same CPU-bound solve
    // work is merely time-sliced and the ratio cannot exceed ~1.
    report.set_config_json(format!(
        "{{\"target_nodes\": {target}, \"requests\": {requests}, \"clients\": {clients}, \
         \"workers\": {workers}, \"repeat_pct\": {repeat_pct}, \"warm_pct\": {warm_pct}, \
         \"deadline_ms\": {}, \"cache_mb\": {cache_mb}, \"depth\": {depth}, \
         \"shards\": {shards}, \"host_cores\": {cores}, \"reps\": {reps}}}",
        deadline.as_millis()
    ));
    for (phase_name, phase) in [("serial", &serial), ("sharded", &sharded)] {
        for (name, slot) in [("cold", 0), ("exact", 1), ("warm", 2)] {
            report.push_result_json(format!(
                "    {{\"phase\": \"{phase_name}\", \"source\": \"{name}\", \"count\": {}, \
                 \"p50_us\": {}, \"p99_us\": {}}}",
                n_of(phase, slot),
                q(phase, slot, 0.5),
                q(phase, slot, 0.99),
            ));
        }
    }
    for (phase_name, hist) in [
        ("restart_pre", &restart.pre_exact),
        ("restart_post", &restart.post_exact),
    ] {
        report.push_result_json(format!(
            "    {{\"phase\": \"{phase_name}\", \"source\": \"exact\", \"count\": {}, \
             \"p50_us\": {}, \"p99_us\": {}}}",
            hist.count(),
            hist.quantile_micros(0.5),
            hist.quantile_micros(0.99),
        ));
    }
    if let Some((outcome, _)) = &huge {
        let lat_us = outcome.latency.as_micros();
        report.push_result_json(format!(
            "    {{\"phase\": \"huge\", \"source\": \"{}\", \"count\": 1, \
             \"p50_us\": {lat_us}, \"p99_us\": {lat_us}}}",
            source_name(outcome.source),
        ));
    }
    let shard_requests: Vec<String> = shard_stats.iter().map(|s| s.requests.to_string()).collect();
    let agg_hits: u64 = shard_stats.iter().map(|s| s.cache.hits).sum();
    let agg_warm: u64 = shard_stats.iter().map(|s| s.cache.warm_hits).sum();
    let agg_warm_fallbacks: u64 = shard_stats.iter().map(|s| s.cache.warm_fallbacks).sum();
    let agg_misses: u64 = shard_stats.iter().map(|s| s.cache.misses).sum();
    // The placement policy's success metric: structure-range routing should
    // make sharded warm hits track the serial baseline (full-key ranges
    // scattered warm families across shards and lost most of them).
    let serial_warm = serial_stats.cache.warm_hits;
    let warm_ratio = if serial_warm > 0 {
        agg_warm as f64 / serial_warm as f64
    } else {
        1.0
    };
    // One field per `bsp_placement_total` decision label.
    let placement_decisions: Vec<String> = Decision::ALL
        .iter()
        .map(|d| {
            let name = d.as_str();
            let count = metrics
                .counter(&format!("bsp_placement_total{{decision=\"{name}\"}}"))
                .unwrap_or(0);
            format!("\"{name}\": {count}")
        })
        .collect();
    let warm_locality = format!(
        "{{\"serial_warm_hits\": {serial_warm}, \"sharded_warm_hits\": {agg_warm}, \
         \"warm_ratio\": {warm_ratio:.3}, \"placement_decisions\": {{{}}}}}",
        placement_decisions.join(", "),
    );
    eprintln!(
        "warm locality: {agg_warm} sharded vs {serial_warm} serial warm hits ({warm_ratio:.2}x)"
    );
    // The huge phase's summary entry: latency against its own deadline plus
    // the per-phase solve breakdown recovered from the wire trace.
    let huge_json = match &huge {
        None => "null".to_string(),
        Some((outcome, huge_deadline)) => {
            let spans: Vec<String> = outcome
                .spans
                .iter()
                .map(|(name, dur)| format!("\"{name}\": {dur}"))
                .collect();
            format!(
                "{{\"nodes\": {}, \"latency_ms\": {:.1}, \"deadline_ms\": {}, \
                 \"valid\": {}, \"source\": \"{}\", \"span_us\": {{{}}}}}",
                outcome.nodes,
                outcome.latency.as_secs_f64() * 1e3,
                huge_deadline.as_millis(),
                outcome.valid,
                source_name(outcome.source),
                spans.join(", "),
            )
        }
    };
    report.set_summary_json(format!(
        "{{\"serial_throughput_rps\": {:.1}, \"sharded_throughput_rps\": {:.1}, \
         \"serial_wall_secs\": {:.3}, \"sharded_wall_secs\": {:.3}, \
         \"sharded_over_serial\": {speedup:.2}, \
         \"exact_hit_p50_speedup\": {exact_speedup:.1}, \
         \"serial_worst_latency_over_deadline\": {:.3}, \
         \"invalid_schedules\": {}, \"request_errors\": {}, \"fp_fallbacks\": {}, \
         \"shard_requests\": [{}], \
         \"sharded_cache\": {{\"hits\": {agg_hits}, \"warm_hits\": {agg_warm}, \
         \"warm_fallbacks\": {agg_warm_fallbacks}, \"misses\": {agg_misses}}}, \
         \"serial_cache\": {{\"hits\": {}, \"warm_hits\": {}, \"warm_fallbacks\": {}, \
         \"misses\": {}}}, \
         \"restart_store\": {{\"appended\": {}, \"loaded\": {}, \"recovered_bytes\": {}, \
         \"dropped_corrupt\": {}, \"fp_fallbacks\": {}, \"non_exact_replays\": {}}}, \
         \"router_metrics\": {{\"requests_total\": {}, \"queue_wait_p50_us\": {qw_p50}, \
         \"queue_wait_p99_us\": {qw_p99}, \"solve_phase_micros\": {solve_phase_micros}, \
         \"cache_bytes_per_node\": {cache_bytes_per_node:.2}}}, \
         \"huge\": {huge_json}, \
         \"warm_locality\": {warm_locality}, \
         \"reps\": [{}]}}",
        serial.throughput_rps,
        sharded.throughput_rps,
        serial.wall.as_secs_f64(),
        sharded.wall.as_secs_f64(),
        serial.worst_deadline_ratio,
        serial.invalid + sharded.invalid,
        serial.errors + sharded.errors,
        sharded.fp_fallbacks,
        shard_requests.join(", "),
        serial_stats.cache.hits,
        serial_stats.cache.warm_hits,
        serial_stats.cache.warm_fallbacks,
        serial_stats.cache.misses,
        restart.appended,
        restart.loaded,
        restart.recovered_bytes,
        restart.dropped_corrupt,
        restart.fp_fallbacks,
        restart.post_non_exact,
        metrics.counter_sum("bsp_requests_total"),
        reps_json.join(", "),
    ));
    report
        .write(&out_path)
        .expect("failed to write the benchmark JSON");
    eprintln!("wrote {out_path}");

    if smoke {
        assert_eq!(serial.errors + sharded.errors, 0, "smoke: requests failed");
        assert_eq!(
            serial.invalid + sharded.invalid,
            0,
            "smoke: invalid schedules"
        );
        assert!(serial_stats.cache.hits > 0, "smoke: no exact cache hits");
        assert!(
            serial.worst_deadline_ratio <= 2.0,
            "smoke: serial worst latency/deadline ratio {:.3} exceeds 2.0",
            serial.worst_deadline_ratio
        );
        // Routing correctness: with caches far larger than the workload no
        // replay may miss — zero fallbacks means every `FP` frame landed on
        // the shard that owns (and therefore cached) its key.
        assert_eq!(
            sharded.fp_fallbacks, 0,
            "smoke: an FP replay missed its owning shard"
        );
        assert!(
            shard_stats.iter().map(|s| s.requests).sum::<u64>() > 0
                && shard_stats.iter().filter(|s| s.requests > 0).count() >= 2.min(shards),
            "smoke: routing did not spread traffic across shards"
        );
        assert!(
            shard_stats.iter().map(|s| s.cache.hits).sum::<u64>() > 0,
            "smoke: no exact hits through the router"
        );
        // Durability gates: the restarted server serves exact hits straight
        // from the recovered store, and every fingerprint replay lands (zero
        // fallbacks = no recovered entry went missing).
        assert!(restart.loaded > 0, "smoke: restart recovered no entries");
        assert!(
            restart.post_exact.count() > 0,
            "smoke: no exact hits after the restart"
        );
        assert_eq!(
            restart.fp_fallbacks, 0,
            "smoke: an FP replay fell back after the restart"
        );
        assert_eq!(
            restart.invalid, 0,
            "smoke: the restart phase served an invalid schedule"
        );
        // Observability gates: the scraped exposition parsed (asserted at
        // scrape time) and the core series are present and non-zero.
        assert!(
            metrics.counter_sum("bsp_requests_total") >= requests as u64,
            "smoke: the pooled bsp_requests_total undercounts the workload"
        );
        assert!(
            metrics
                .counter("bsp_cache_ops_total{op=\"hit\"}")
                .unwrap_or(0)
                > 0,
            "smoke: no cache hits in the scraped metrics"
        );
        assert!(
            solve_phase_micros > 0,
            "smoke: no solver phase time attributed in the scraped metrics"
        );
        assert!(
            queue_wait.is_some_and(|h| h.count > 0),
            "smoke: the queue-wait histogram recorded nothing"
        );
        assert_eq!(
            metrics.counter("bsp_solver_fallbacks_total{kind=\"invalid_schedule\"}"),
            Some(0),
            "smoke: a solver result was discarded, or the series is missing"
        );
        // Placement gates: the router's decision counters were live in the
        // mid-workload scrape, and structure-range routing kept sharded
        // warm hits within 10% of the serial baseline.
        assert!(
            metrics.counter_sum("bsp_placement_total") > 0,
            "smoke: the scraped exposition carries no placement decisions"
        );
        if serial_warm > 0 {
            assert!(
                agg_warm * 10 >= serial_warm * 9,
                "smoke: sharded warm hits {agg_warm} fell below 0.9x the serial \
                 baseline {serial_warm}"
            );
        }
        // Footprint gate: a cached answer is `8·n + 16·|Γ|` bytes; a wider
        // schedule representation would show up here first.
        if cache_bytes_per_node > SMOKE_MAX_CACHE_BYTES_PER_NODE {
            eprintln!(
                "smoke: {cache_bytes_per_node:.2} cached bytes per node exceed \
                 {SMOKE_MAX_CACHE_BYTES_PER_NODE}"
            );
            std::process::exit(1);
        }
        eprintln!("smoke assertions passed");
    }
}
