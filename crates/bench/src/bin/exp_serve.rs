//! `exp_serve` — throughput and latency of one `bsp_serve` server under one
//! mixed request stream, and of its durable store across a restart.
//!
//! The harness builds one deterministic stream (`spmv`, `cg` and `knn` DAGs
//! on a uniform and a NUMA machine; 40 % of the requests repeat an earlier
//! one verbatim — exact cache hits, replayed by fingerprint — and the rest
//! draw from the pool, cold on first use) and [`drive`]s it through the `serial`
//! deployment: one `Server`, each client with one request in flight.
//! Every answer is validated client-side; per-source latency rows and the
//! throughput land in the JSON written to `--out`, beside the server's
//! `METRICS` scrape.  (The router over shards is measured by the repo's
//! benchmark, workloads `serve_mixed` and `serve_replay`.)
//!
//! The **restart** phase measures the durable store: a store-backed server
//! is populated, replayed by fingerprint, shut down, restarted on the same
//! directory, and replayed again against the recovered cache (the
//! `restart_pre` and `restart_post` rows and `summary.restart_store`).
//!
//! The **huge** phase (skipped under `--smoke`) sends one ~10⁵-node `spmv`
//! request with a trace id, reads the trace back over the wire and records
//! the per-phase solve breakdown as a `huge` row and summary object.
//!
//! Flags (every other setting is a constant of [`Preset`], recorded in the
//! JSON's `config` block):
//!   --out PATH   output JSON path (default BENCH_serve.json)
//!   --reps N     repetitions of the serial run and the restart phase
//!                (default 1); the rows are those of the repetition with the
//!                median serial throughput, and every repetition's headline
//!                numbers go to `summary.reps`
//!   --smoke      tiny workload and hard checks; exits 1 if one fails (no
//!                errors, no invalid schedules and no FP fallbacks, the worst
//!                latency within 2x the deadline, six `METRICS` checks with
//!                exact hits among them; the store recovered, replayed
//!                exactly and without fallback)

use bsp_bench::stats::{host_cores, BenchReport};
use bsp_bench::{size_to_target, CliArgs};
use bsp_model::{Dag, Machine};
use bsp_serve::{
    Client, LatencyHistogram, MetricsSnapshot, RequestOptions, ScheduleSource, Server,
    ServerConfig, ServerHandle, ServiceConfig, ServiceStats, StoreStats,
};
use dag_gen::fine::{cg, knn, spmv, IterConfig, SpmvConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The `--smoke` ceiling on cached bytes per node: 12.46 plus 25 %, measured
/// at the default seed with 32-bit `π`, `τ` and `Γ` when the stream still
/// carried re-weighted variants (it reads 12.31 now).  `usize` maps and
/// transfers read ~24.8.
const SMOKE_MAX_CACHE_BYTES_PER_NODE: f64 = 15.7;

/// The schedule sources, in the order of [`Outcome::by_source`].
const SOURCES: [ScheduleSource; 2] = [ScheduleSource::Cold, ScheduleSource::CacheExact];

/// The workload and the server's sizes: a smoke preset and a full one.
struct Preset {
    /// Approximate DAG size in nodes.
    target: usize,
    requests: usize,
    /// Concurrent client connections.  On small hosts a couple of concurrent
    /// cold solves already saturate the CPU, so more clients would measure
    /// queueing rather than service time.
    clients: usize,
    /// Worker threads per server.
    workers: usize,
    /// Share (%) of requests repeating an earlier one.
    repeat_pct: u64,
    deadline: Duration,
    /// Schedule-cache byte budget per server.
    cache_mb: usize,
    seed: u64,
    /// The huge phase's DAG size and deadline (`None`: skipped).
    huge: Option<(usize, Duration)>,
}

impl Preset {
    fn new(smoke: bool) -> Self {
        let cores = host_cores();
        Preset {
            target: if smoke { 120 } else { 4000 },
            requests: if smoke { 60 } else { 240 },
            clients: if smoke { 2 } else { cores.clamp(2, 4) },
            workers: cores.clamp(2, 4),
            repeat_pct: 40,
            deadline: Duration::from_millis(if smoke { 200 } else { 1000 }),
            cache_mb: 64,
            seed: 2024,
            huge: (!smoke).then_some((100_000, Duration::from_secs(15))),
        }
    }

    fn server_config(&self) -> ServerConfig {
        ServerConfig {
            workers: self.workers,
            queue_capacity: 16 * self.clients,
            max_connections: 4 * self.clients + 8,
            idle_timeout: Duration::from_secs(30),
            service: ServiceConfig {
                cache_bytes: self.cache_mb << 20,
                default_deadline: Some(self.deadline),
                ..ServiceConfig::default()
            },
            ..ServerConfig::default()
        }
    }
}

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

/// The deterministic request stream: indices into the pool, each a repeat
/// of an earlier request (an exact hit) or a fresh draw (cold on first use).
fn build_stream(pool_len: usize, p: &Preset) -> Vec<usize> {
    let mut rng = ChaCha8Rng::seed_from_u64(p.seed);
    let mut stream: Vec<usize> = Vec::with_capacity(p.requests);
    for _ in 0..p.requests {
        let idx = if rng.gen_range(0u64..100) < p.repeat_pct && !stream.is_empty() {
            stream[rng.gen_range(0..stream.len())]
        } else {
            rng.gen_range(0..pool_len)
        };
        stream.push(idx);
    }
    stream
}

/// What driving one request stream through a deployment measured.
#[derive(Default)]
struct Outcome {
    /// Latency from submit to completion, per source (see [`SOURCES`]).
    by_source: [LatencyHistogram; 2],
    /// Answers that failed client-side validation.
    invalid: u64,
    /// Requests answered with an error, or lost with their connection.
    errors: u64,
    /// Fingerprint replays answered `unknown-fp` and resent in full.
    fp_fallbacks: u64,
    /// The largest latency over the deadline.
    worst_deadline_ratio: f64,
    wall: Duration,
    throughput_rps: f64,
}

impl Outcome {
    fn of(&self, source: ScheduleSource) -> &LatencyHistogram {
        let slot = SOURCES.iter().position(|&s| s == source);
        &self.by_source[slot.expect("every source has a slot")]
    }

    fn p50(&self, source: ScheduleSource) -> u64 {
        self.of(source).quantile_micros(0.5)
    }

    fn merge(&mut self, other: &Outcome) {
        for (pooled, client) in self.by_source.iter().zip(&other.by_source) {
            pooled.merge_from(client);
        }
        self.invalid += other.invalid;
        self.errors += other.errors;
        self.fp_fallbacks += other.fp_fallbacks;
        self.worst_deadline_ratio = self.worst_deadline_ratio.max(other.worst_deadline_ratio);
    }
}

/// Sends `stream` (indices into `pool`) to `addr` from `clients`
/// connections, request `i` on connection `i % clients`, one request in
/// flight per connection, and validates every answer against its request.
/// With `assume_cached` each request replays by fingerprint from its first
/// send.
fn drive(
    addr: SocketAddr,
    pool: &[WorkItem],
    stream: &[usize],
    clients: usize,
    deadline: Duration,
    assume_cached: bool,
) -> Outcome {
    let options = RequestOptions::new().with_deadline(deadline);
    let client_loop = |first: usize| {
        let mut client = Client::connect(addr).expect("connect to the server");
        let mut outcome = Outcome::default();
        for &idx in stream.iter().skip(first).step_by(clients) {
            let item = &pool[idx];
            if assume_cached {
                client.assume_cached(&item.dag, &item.machine);
            }
            let submitted = Instant::now();
            match client.schedule(&item.dag, &item.machine, &options) {
                Ok(response) => {
                    let latency = submitted.elapsed();
                    let ratio = latency.as_secs_f64() / deadline.as_secs_f64();
                    outcome.worst_deadline_ratio = outcome.worst_deadline_ratio.max(ratio);
                    outcome.of(response.source).record(latency);
                    let valid = response.schedule.validate(&item.dag, &item.machine);
                    outcome.invalid += u64::from(valid.is_err());
                }
                Err(err) => {
                    eprintln!("request failed: {err}");
                    outcome.errors += 1;
                }
            }
        }
        outcome.fp_fallbacks = client.fp_fallbacks();
        outcome
    };
    let client_loop = &client_loop;
    let start = Instant::now();
    let mut pooled = Outcome::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|first| scope.spawn(move || client_loop(first)))
            .collect();
        for handle in handles {
            pooled.merge(&handle.join().expect("a client thread panicked"));
        }
    });
    pooled.wall = start.elapsed();
    pooled.throughput_rps = stream.len() as f64 / pooled.wall.as_secs_f64();
    pooled
}

/// Binds and spawns one server.
fn spawn_server(config: ServerConfig) -> ServerHandle {
    Server::bind("127.0.0.1:0", config)
        .expect("bind an ephemeral loopback port")
        .spawn()
        .expect("spawn server threads")
}

/// The serial run: what its clients saw, and what the server said about
/// itself.
struct Run {
    outcome: Outcome,
    /// The server's `METRICS`, scraped after the stream.
    metrics: MetricsSnapshot,
}

/// Drives the stream through one server.
fn run_serial(p: &Preset, pool: &[WorkItem], stream: &[usize]) -> Run {
    let server = spawn_server(p.server_config());
    let outcome = drive(server.addr(), pool, stream, p.clients, p.deadline, false);
    let mut scraper = Client::connect(server.addr()).expect("connect a metrics scraper");
    let exposition = scraper.metrics().expect("scrape METRICS");
    let metrics = MetricsSnapshot::parse(&exposition).expect("the exposition parses");
    server.shutdown();
    Run { outcome, metrics }
}

/// What the restart phase measured: its three passes and the store
/// counters that certify what happened.
struct RestartOutcome {
    populate: Outcome,
    /// Fingerprint replays against the populated server.
    pre: Outcome,
    /// Fingerprint replays against the server restarted on the same store.
    post: Outcome,
    /// Records the first server appended.
    appended: u64,
    /// The restarted server's store counters (what recovery loaded).
    recovered: StoreStats,
}

/// Populates a store-backed server with every instance of `pool`, replays
/// them by fingerprint, shuts it down gracefully, restarts it on the same
/// directory, and replays them again against the recovered cache.
/// (Torn-write and `kill -9` recovery are covered by the crash tests; this
/// measures the happy restart's cost.)
fn run_restart_phase(p: &Preset, pool: &[WorkItem]) -> RestartOutcome {
    let dir = std::env::temp_dir().join(format!("bsp-exp-serve-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = p.server_config();
    config.store_dir = Some(dir.clone());
    let every: Vec<usize> = (0..pool.len()).collect();
    let pass = |server: &ServerHandle, assume_cached| {
        drive(server.addr(), pool, &every, 1, p.deadline, assume_cached)
    };

    let server = spawn_server(config.clone());
    let populate = pass(&server, false);
    let pre = pass(&server, true);
    let appended = server.stats().store.appended;
    server.shutdown(); // graceful: every accepted write is flushed

    // A fresh client replays by fingerprint only because it is told the
    // entries survived (`assume_cached`).
    let server = spawn_server(config);
    let recovered = server.stats().store;
    let post = pass(&server, true);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    RestartOutcome {
        populate,
        pre,
        post,
        appended,
        recovered,
    }
}

/// Outcome of the huge-instance phase: one cold request under its own
/// deadline, plus the server-side trace spans that break the solve down per
/// pipeline phase.
struct HugeOutcome {
    nodes: usize,
    latency: Duration,
    deadline: Duration,
    valid: bool,
    source: ScheduleSource,
    /// Durations (µs) of `solve` and the spans beneath it, summed per name, in
    /// recording order.
    spans: Vec<(String, u64)>,
}

/// A single huge request against a dedicated server.  The request carries a
/// trace id, so the span breakdown comes back over the wire (`TRACE <hex>`)
/// — the same telemetry an operator would pull from a live deployment.
fn run_huge_phase(p: &Preset, target: usize, deadline: Duration) -> HugeOutcome {
    let dag = size_to_target(target, |n| {
        spmv(&SpmvConfig {
            n,
            density: 8.0 / n as f64,
            seed: 21,
        })
    });
    let machine = Machine::numa_binary_tree(8, 1, 5, 3);
    let mut config = p.server_config();
    config.service.default_deadline = Some(deadline);
    let server = spawn_server(config);
    let mut client = Client::connect(server.addr()).expect("connect to the huge-phase server");
    // Any non-zero id works: the trace is read back on the same connection.
    let trace_id = 0xb16u64;
    let options = RequestOptions::new()
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
        deadline,
        valid,
        source: response.source,
        spans,
    }
}

/// What one repetition measured.
struct Measured {
    serial: Run,
    restart: RestartOutcome,
}

fn main() {
    let args = CliArgs::from_env(&["smoke", "out", "reps"]);
    let smoke = args.flag("smoke");
    let out_path = args.value("out").unwrap_or("BENCH_serve.json").to_string();
    let reps = args.usize_or("reps", 1).max(1);
    let p = Preset::new(smoke);
    let (huge_target, huge_deadline) = p.huge.unwrap_or_default();
    let config = format!(
        "{{\"target_nodes\": {}, \"requests\": {}, \"clients\": {}, \"workers\": {}, \
         \"repeat_pct\": {}, \"deadline_ms\": {}, \"cache_mb\": {}, \
         \"seed\": {}, \"huge_target_nodes\": {huge_target}, \
         \"huge_deadline_ms\": {}, \"host_cores\": {}, \"reps\": {reps}}}",
        p.target,
        p.requests,
        p.clients,
        p.workers,
        p.repeat_pct,
        p.deadline.as_millis(),
        p.cache_mb,
        p.seed,
        huge_deadline.as_millis(),
        host_cores(),
    );
    eprintln!("exp_serve: {config}");
    eprintln!("building instance pool...");
    let pool = base_pool(p.target);
    let stream = build_stream(pool.len(), &p);

    let measure = |rep: usize| -> Measured {
        eprintln!("---- repetition {} of {reps} ----", rep + 1);
        let measured = Measured {
            serial: run_serial(&p, &pool, &stream),
            restart: run_restart_phase(&p, &pool),
        };
        let o = &measured.serial.outcome;
        let by_source =
            SOURCES.map(|s| format!("{} {} (p50 {}us)", s.as_str(), o.of(s).count(), o.p50(s)));
        eprintln!(
            "serial: {:.1} req/s in {:.2?} | {} | fp fallbacks {} | invalid {} | errors {}",
            o.throughput_rps,
            o.wall,
            by_source.join(" | "),
            o.fp_fallbacks,
            o.invalid,
            o.errors,
        );
        let r = &measured.restart;
        eprintln!(
            "restart: {} appended, {} loaded back, exact p50 {}us before vs {}us after",
            r.appended,
            r.recovered.loaded,
            r.pre.p50(ScheduleSource::CacheExact),
            r.post.p50(ScheduleSource::CacheExact),
        );
        measured
    };
    // The rows come from the repetition with the median serial throughput;
    // every repetition's headline numbers are kept beside them.
    let mut runs: Vec<Measured> = (0..reps).map(measure).collect();
    let reps_json: Vec<String> = runs
        .iter()
        .map(|m| {
            format!(
                "{{\"serial_throughput_rps\": {:.1}, \"serial_exact_p50_us\": {}, \
                 \"restart_post_exact_p50_us\": {}}}",
                m.serial.outcome.throughput_rps,
                m.serial.outcome.p50(ScheduleSource::CacheExact),
                m.restart.post.p50(ScheduleSource::CacheExact),
            )
        })
        .collect();
    runs.sort_by(|a, b| {
        let rps = |m: &Measured| m.serial.outcome.throughput_rps;
        rps(a).total_cmp(&rps(b))
    });
    let m = runs.swap_remove(runs.len() / 2);
    let (serial, restart, metrics) = (&m.serial.outcome, &m.restart, &m.serial.metrics);
    let stats = ServiceStats::from_snapshot(metrics);
    let (qw_count, qw_p50, qw_p99) = metrics
        .histogram("bsp_queue_wait_micros")
        .map_or((0, 0, 0), |h| {
            (h.count, h.quantile_micros(0.5), h.quantile_micros(0.99))
        });
    let solve_phase_micros = metrics.counter_sum("bsp_solve_phase_micros_total");
    let requests_total = metrics.counter_sum("bsp_requests_total");
    // Bytes per cached node: the cache gauges over the mean size n̄ of the
    // distinct instances the stream asked for (one cache entry each; the
    // cache is far larger than the workload).
    let distinct: HashSet<usize> = stream.iter().copied().collect();
    let mean_nodes =
        distinct.iter().map(|&i| pool[i].dag.n()).sum::<usize>() as f64 / distinct.len() as f64;
    let gauge = |key: &str| metrics.gauges.get(key).copied().unwrap_or(0) as f64;
    let cache_bytes_per_node =
        gauge("bsp_cache_bytes") / gauge("bsp_cache_entries").max(1.0) / mean_nodes;
    eprintln!(
        "serial server: {requests_total} requests, queue wait p50 {qw_p50}us / p99 {qw_p99}us, \
         {solve_phase_micros}us of attributed solver phase time, {cache_bytes_per_node:.2} \
         bytes per cached node (n̄ {mean_nodes:.1})",
    );

    // Skipped under --smoke: a 10⁵-node cold solve is minutes of CI time.
    let huge = p.huge.map(|(target, deadline)| {
        let outcome = run_huge_phase(&p, target, deadline);
        eprintln!(
            "huge: {} nodes in {:.2?} ({}, valid: {}), spans {:?}",
            outcome.nodes,
            outcome.latency,
            outcome.source.as_str(),
            outcome.valid,
            outcome.spans,
        );
        outcome
    });

    let exact_speedup = {
        let exact_p50 = serial.p50(ScheduleSource::CacheExact);
        if exact_p50 > 0 {
            serial.p50(ScheduleSource::Cold) as f64 / exact_p50 as f64
        } else {
            0.0
        }
    };

    let mut report = BenchReport::new("serve_throughput");
    report.set_config_json(config);
    let row = |phase: &str, source: &str, hist: &LatencyHistogram| {
        format!(
            "    {{\"phase\": \"{phase}\", \"source\": \"{source}\", \"count\": {}, \
             \"p50_us\": {}, \"p99_us\": {}}}",
            hist.count(),
            hist.quantile_micros(0.5),
            hist.quantile_micros(0.99),
        )
    };
    for source in SOURCES {
        report.push_result_json(row("serial", source.as_str(), serial.of(source)));
    }
    for (name, pass) in [
        ("restart_pre", &restart.pre),
        ("restart_post", &restart.post),
    ] {
        report.push_result_json(row(name, "exact", pass.of(ScheduleSource::CacheExact)));
    }
    if let Some(huge) = &huge {
        let us = huge.latency.as_micros();
        report.push_result_json(format!(
            "    {{\"phase\": \"huge\", \"source\": \"{}\", \"count\": 1, \
             \"p50_us\": {us}, \"p99_us\": {us}}}",
            huge.source.as_str(),
        ));
    }
    // The huge phase's summary entry: latency against its own deadline plus
    // the per-phase solve breakdown recovered from the wire trace.
    let huge_json = huge.as_ref().map_or("null".to_string(), |huge| {
        let spans: Vec<String> = huge
            .spans
            .iter()
            .map(|(name, dur)| format!("\"{name}\": {dur}"))
            .collect();
        format!(
            "{{\"nodes\": {}, \"latency_ms\": {:.1}, \"deadline_ms\": {}, \
             \"valid\": {}, \"source\": \"{}\", \"span_us\": {{{}}}}}",
            huge.nodes,
            huge.latency.as_secs_f64() * 1e3,
            huge.deadline.as_millis(),
            huge.valid,
            huge.source.as_str(),
            spans.join(", "),
        )
    });
    report.set_summary_json(format!(
        "{{\"serial_throughput_rps\": {:.1}, \"serial_wall_secs\": {:.3}, \
         \"exact_hit_p50_speedup\": {exact_speedup:.1}, \
         \"serial_worst_latency_over_deadline\": {:.3}, \
         \"invalid_schedules\": {}, \"request_errors\": {}, \"fp_fallbacks\": {}, \
         \"serial_cache\": {{\"hits\": {}, \"misses\": {}}}, \
         \"restart_store\": {{\"appended\": {}, \"loaded\": {}, \"recovered_bytes\": {}, \
         \"dropped_corrupt\": {}, \"fp_fallbacks\": {}, \"non_exact_replays\": {}}}, \
         \"server_metrics\": {{\"requests_total\": {requests_total}, \
         \"queue_wait_p50_us\": {qw_p50}, \"queue_wait_p99_us\": {qw_p99}, \
         \"solve_phase_micros\": {solve_phase_micros}, \
         \"cache_bytes_per_node\": {cache_bytes_per_node:.2}}}, \
         \"huge\": {huge_json}, \"reps\": [{}]}}",
        serial.throughput_rps,
        serial.wall.as_secs_f64(),
        serial.worst_deadline_ratio,
        serial.invalid,
        serial.errors,
        serial.fp_fallbacks,
        stats.cache.hits,
        stats.cache.misses,
        restart.appended,
        restart.recovered.loaded,
        restart.recovered.recovered_bytes,
        restart.recovered.dropped_corrupt,
        restart.post.fp_fallbacks,
        restart.post.of(ScheduleSource::Cold).count(),
        reps_json.join(", "),
    ));
    report
        .write(&out_path)
        .expect("failed to write the benchmark JSON");
    eprintln!("wrote {out_path}");
    if !smoke {
        return;
    }

    // Every check is (phase, passed, what failed).
    let invalid_fallbacks = "bsp_solver_fallbacks_total{kind=\"invalid_schedule\"}";
    let restart_bad: u64 = [&restart.populate, &restart.pre, &restart.post]
        .iter()
        .map(|o| o.invalid + o.errors)
        .sum();
    let checks = [
        ("serial", serial.errors == 0, "requests failed"),
        ("serial", serial.invalid == 0, "invalid schedules"),
        // With a cache far larger than the workload no replay may miss.
        ("serial", serial.fp_fallbacks == 0, "an FP replay fell back"),
        (
            "serial",
            serial.worst_deadline_ratio <= 2.0,
            "worst latency over 2x the deadline",
        ),
        // Observability: the scrape parsed (asserted at scrape time) and the
        // core series are present and non-zero.
        (
            "serial",
            requests_total >= p.requests as u64,
            "bsp_requests_total undercounts the workload",
        ),
        (
            "serial",
            stats.cache.hits > 0,
            "no exact cache hits in the scraped metrics",
        ),
        (
            "serial",
            solve_phase_micros > 0,
            "no solver phase time in the scraped metrics",
        ),
        ("serial", qw_count > 0, "the queue-wait histogram is empty"),
        (
            "serial",
            metrics.counter(invalid_fallbacks) == Some(0),
            "a solver result was discarded, or the series is missing",
        ),
        // Footprint: a cached answer is `8·n + 16·|Γ|` bytes; a wider
        // schedule representation would show up here first.
        (
            "serial",
            cache_bytes_per_node <= SMOKE_MAX_CACHE_BYTES_PER_NODE,
            "cached bytes per node above the ceiling",
        ),
        // Durability: the restarted server serves exact hits straight from
        // the recovered store, and every fingerprint replay lands (zero
        // fallbacks = no recovered entry went missing).
        (
            "restart",
            restart.recovered.loaded > 0,
            "no entries recovered",
        ),
        (
            "restart",
            restart.post.of(ScheduleSource::CacheExact).count() > 0,
            "no exact hits after the restart",
        ),
        (
            "restart",
            restart.post.fp_fallbacks == 0,
            "an FP replay fell back after the restart",
        ),
        (
            "restart",
            restart_bad == 0,
            "an invalid schedule or a failed request",
        ),
    ];
    let failed: Vec<_> = checks.iter().filter(|(_, ok, _)| !ok).collect();
    for (name, _, what) in &failed {
        eprintln!("smoke: {name}: {what}");
    }
    if !failed.is_empty() {
        std::process::exit(1);
    }
    eprintln!("smoke checks passed");
}
