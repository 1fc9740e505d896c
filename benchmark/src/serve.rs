//! The two serve workloads: an in-process `Router` in front of two
//! `Server` shards (one worker and a durable `Store` each), driven by two
//! closed-loop clients with four requests in flight each.
//!
//! The clients speak the wire protocol through its public encode / read
//! functions rather than through `PipelinedClient`: that client replays by
//! fingerprint whenever it can, and these workloads must choose, per
//! request, between a full-payload resend and an `FP` replay.

use crate::common::{check_answer, host_cores, out_dir, peak_rss_mb, write_trace, Args, Outcome};
use crate::instances::{baseline, generate, machines, reweight, rng_for, Baseline, Family, Group};
use crate::metrics::Values;
use crate::micro;
use crate::spans::{Open, Recorder};
use crate::stats::{geo_mean, median, quantile};
use bsp_model::{request_key, Dag, Machine, RequestKey};
use bsp_serve::obs::HistogramSnapshot;
use bsp_serve::protocol::{encode_fingerprint_request, encode_request, read_reply, Reply};
use bsp_serve::{
    Client, MetricsSnapshot, Mode, PlacementScope, RequestOptions, Router, RouterConfig,
    RouterHandle, ScheduleResponse, ScheduleSource, ServeError, Server, ServerConfig, ServerHandle,
    ServiceConfig,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Mixed,
    Replay,
}

const SHARDS: usize = 2;
const CLIENTS: usize = 2;
const DEPTH: usize = 4;
const DEADLINE: Duration = Duration::from_secs(2);
/// The timed section is cut into this many slices for the end-to-end
/// throughput and latency.
const SLICES: usize = 6;
/// Every `TRACE_EVERY`-th completion of a traced run also fetches the
/// server-side span tree (`TRACE <id>`).
const TRACE_EVERY: u64 = 48;

/// Requests in a client's stream per second of `--seconds`.  The stream is
/// a fixed list, so a faster program gets the same requests and finishes
/// them sooner; the rates are what the 2-core host this was sized on
/// sustains, so there the timed section takes about `--seconds`.
const MIXED_PER_SECOND: f64 = 150.0;
const REPLAY_PER_SECOND: f64 = 330.0;
/// The request mix of `serve_mixed`, in percent; the rest are repeats.
const NEW_PCT: usize = 5;
const WARM_PCT: usize = 10;
/// Structures of `serve_mixed` answered during set-up, per client, so the
/// first repeats have something to hit.
const PREPOPULATED: usize = 8;
/// Structures per client of `serve_replay`, all answered during set-up.
const REPLAY_STRUCTURES: usize = 48;
/// A repeat or variant is drawn among the structures introduced at least
/// this many requests earlier: a cold solve outlasts some thirty exact
/// hits, and a client cannot replay an answer it has not had yet.
const LAG: usize = 32;

/// One request the clients can send.
struct Item {
    dag: Arc<Dag>,
    machine: Machine,
    key: RequestKey,
    /// Baselines of generated structures; re-weighted variants have none
    /// and stay out of the cost metrics.
    base: Option<Baseline>,
    /// Cost of the first verified answer; every later answer must agree.
    cost: Option<u64>,
}

impl Item {
    fn new(dag: Arc<Dag>, machine: Machine, base: Option<Baseline>) -> Item {
        let key = request_key(&dag, &machine);
        Item {
            dag,
            machine,
            key,
            base,
            cost: None,
        }
    }
}

/// One request of a client's stream.  `of` indexes the client's pool.
enum Draw {
    /// The pool's next structure, in full: a cold solve.
    New,
    /// A copy of structure `of` re-weighted from `seed`, in full, sent this
    /// once: same structure key, new full key, so a warm start.
    Variant { of: usize, seed: u64 },
    /// Structure `of` again, in full or as `FP` replay: an exact hit.
    Repeat { of: usize, fp_only: bool },
}

/// A client's whole request stream, drawn from the seed before the timed
/// section: what is sent does not depend on how fast answers come back.
/// `serve_mixed` gets exactly `NEW_PCT` % new structures and `WARM_PCT` %
/// variants in a seeded order; `serve_replay` repeats only, after one turn
/// through every structure so that each has its answer checked.
fn stream(kind: Kind, requests: usize, populated: usize, rng: &mut ChaCha8Rng) -> Vec<Draw> {
    #[derive(Clone, Copy, PartialEq)]
    enum What {
        New,
        Variant,
        Repeat,
    }
    let mut kinds = vec![What::Repeat; requests];
    if kind == Kind::Mixed {
        let (new, warm) = (requests * NEW_PCT / 100, requests * WARM_PCT / 100);
        kinds[..new].fill(What::New);
        kinds[new..new + warm].fill(What::Variant);
        for i in (1..requests).rev() {
            kinds.swap(i, rng.gen_range(0..=i));
        }
    }
    // `introduced[k]`: structures the client has sent before request `k`.
    let mut introduced = Vec::with_capacity(requests);
    let mut known = populated;
    let mut draws = Vec::with_capacity(requests);
    for (k, &what) in kinds.iter().enumerate() {
        introduced.push(known);
        if what == What::New {
            known += 1;
            draws.push(Draw::New);
            continue;
        }
        let of = match kind {
            Kind::Replay if k < populated => k,
            _ => rng.gen_range(0..introduced[k.saturating_sub(LAG)]),
        };
        draws.push(if what == What::Variant {
            Draw::Variant {
                of,
                seed: rng.gen(),
            }
        } else {
            Draw::Repeat {
                of,
                fp_only: rng.gen_bool(0.5),
            }
        });
    }
    draws
}

/// How many requests each client's stream holds.
fn stream_len(args: &Args, kind: Kind) -> usize {
    // A traced run keeps a fifth of its seconds for what follows the
    // closed-loop phase (router hop, micro pass).
    let seconds = match (args.smoke, args.trace) {
        (true, _) => 1.5,
        (false, true) => args.seconds * 0.8,
        (false, false) => args.seconds,
    };
    let per_second = match kind {
        Kind::Mixed => MIXED_PER_SECOND,
        Kind::Replay => REPLAY_PER_SECOND,
    };
    (seconds * per_second).round() as usize
}

/// One client's `count` structures: ~1.5k-node fine-grained DAGs, the three
/// families interleaved, alternating between the two machines.
fn pool(args: &Args, count: usize, client: usize) -> Vec<Item> {
    let per_family = count.div_ceil(3);
    let shrink = if args.smoke { 3 } else { 1 };
    let mut rng = rng_for(args.seed, &args.workload, 100 + client as u64);
    let mut families: Vec<_> = [(Family::Spmv, 75), (Family::Cg, 40), (Family::Exp, 42)]
        .iter()
        .map(|&(family, size)| {
            let group = Group {
                family,
                count: per_family,
                size: size / shrink,
            };
            generate(&[group], &mut rng).into_iter()
        })
        .collect();
    let machines = machines();
    let mut items = Vec::with_capacity(3 * per_family);
    for _ in 0..per_family {
        for family in &mut families {
            let instance = family
                .next()
                .expect("every family has per_family instances");
            let machine = machines[items.len() % 2].clone();
            let base = baseline(&instance.dag, &machine);
            items.push(Item::new(instance.dag, machine, Some(base)));
        }
    }
    items.truncate(count);
    items
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        cache_bytes: 256 << 20,
        // 80 % of the deadline for a cold local search, a quarter for a
        // warm one; neither binds at these sizes.
        local_search_budget: DEADLINE.mul_f64(0.8),
        warm_budget: DEADLINE / 4,
        default_deadline: Some(DEADLINE),
        solve_threads: 1,
        store: None,
        placement: None,
        min_coarse_nodes: 0,
    }
}

struct Deployment {
    shards: Vec<ServerHandle>,
    router: RouterHandle,
}

impl Deployment {
    fn start(dirs: &[PathBuf], probe: bool) -> Deployment {
        let shards: Vec<ServerHandle> = dirs
            .iter()
            .enumerate()
            .map(|(shard, dir)| {
                let mut service = service_config();
                service.placement = Some(PlacementScope {
                    shards: SHARDS,
                    shard,
                });
                let config = ServerConfig {
                    workers: 1,
                    queue_capacity: 64,
                    max_connections: 32,
                    admission_batch: 8,
                    idle_timeout: Duration::from_secs(30),
                    solve_threads: 1,
                    service,
                    store_dir: Some(dir.clone()),
                };
                Server::bind("127.0.0.1:0", config)
                    .expect("bind a shard on loopback")
                    .spawn()
                    .expect("spawn shard threads")
            })
            .collect();
        let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.addr()).collect();
        let config = RouterConfig {
            // Without the probe the router never scrapes load, so placement
            // is pure range ownership: what `serve_replay` needs for its
            // restarted shards to find every key where it was stored.
            health_probe_interval: probe.then_some(Duration::from_secs(2)),
            ..RouterConfig::default()
        };
        let router = Router::bind("127.0.0.1:0", &addrs, config)
            .expect("bind the router on loopback")
            .spawn()
            .expect("spawn router threads");
        Deployment { shards, router }
    }

    fn stop(self) {
        self.router.shutdown();
        for shard in self.shards {
            shard.shutdown();
        }
    }
}

/// A connection that speaks the protocol's public encode / read functions.
struct Wire {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    scratch: String,
}

impl Wire {
    fn connect(addr: SocketAddr) -> Wire {
        let stream = TcpStream::connect(addr).expect("connect on loopback");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        Wire {
            reader: BufReader::new(stream.try_clone().expect("clone the socket")),
            writer: BufWriter::new(stream),
            scratch: String::new(),
        }
    }

    /// Encodes one request into the scratch buffer.
    fn encode(&mut self, id: u64, item: &Item, fp_only: bool, options: &RequestOptions) {
        self.scratch.clear();
        if fp_only {
            encode_fingerprint_request(
                &mut self.scratch,
                id,
                item.key.full,
                Some(item.key.structure),
                None,
            );
        } else {
            encode_request(&mut self.scratch, id, &item.dag, &item.machine, options)
                .expect("tree and uniform machines encode");
        }
    }

    /// Puts the scratch buffer on the wire.
    fn flush(&mut self) -> std::io::Result<()> {
        self.writer.write_all(self.scratch.as_bytes())?;
        self.writer.flush()
    }
}

struct Pending {
    /// Index into the client's items; for a re-weighted variant, the item
    /// it was made from.
    item: usize,
    /// A re-weighted variant lives only as long as its one request: it is
    /// sent once, checked, and never repeated, so what a client holds does
    /// not grow with the number of requests it gets through.
    variant: Option<Item>,
    fp_only: bool,
    sent: Instant,
    /// Span times of a traced phase (ns since the origin).
    encode_start: u64,
    encode_end: u64,
}

/// What one client brings back from one phase.
#[derive(Default)]
struct PhaseResult {
    sent: u64,
    /// Latencies in seconds by answer class: cold, warm, exact.
    latency: [Vec<f64>; 3],
    /// When each answer arrived, in seconds since the phase began, and its
    /// latency: what the time slices of the end-to-end metrics are cut from.
    arrivals: Vec<(f64, f64)>,
    late: u64,
    refused: u64,
    failures: Vec<String>,
    fp_fallbacks: u64,
    /// Seconds the client spent recording and fetching spans.
    tracing_s: f64,
}

impl PhaseResult {
    fn absorb(&mut self, mut other: PhaseResult) {
        self.sent += other.sent;
        for (all, own) in self.latency.iter_mut().zip(&mut other.latency) {
            all.append(own);
        }
        self.arrivals.append(&mut other.arrivals);
        self.late += other.late;
        self.refused += other.refused;
        self.failures.append(&mut other.failures);
        self.fp_fallbacks += other.fp_fallbacks;
        self.tracing_s += other.tracing_s;
    }

    fn answers(&self) -> usize {
        self.latency.iter().map(Vec::len).sum()
    }
}

fn class(source: ScheduleSource) -> usize {
    match source {
        ScheduleSource::Cold => 0,
        ScheduleSource::CacheWarm => 1,
        ScheduleSource::CacheExact => 2,
    }
}

/// Server-side span names, as `&'static str` for the recorder.
const SERVER_SPANS: [&str; 14] = [
    "srv:router_dispatch",
    "srv:queue_wait",
    "srv:cache_exact_hit",
    "srv:cache_warm_hit",
    "srv:cache_miss",
    "srv:warm_start",
    "srv:solve",
    "srv:BSPg",
    "srv:Source",
    "srv:init_schedule",
    "srv:hc",
    "srv:hccs",
    "srv:cache_insert",
    "srv:respond",
];

fn server_span_name(name: &str) -> &'static str {
    SERVER_SPANS
        .iter()
        .find(|s| &s[4..] == name)
        .copied()
        .unwrap_or("srv:other")
}

/// One closed-loop client working through its pre-drawn stream.
struct ClientLoop {
    options: RequestOptions,
    items: Vec<Item>,
    stream: Vec<Draw>,
    /// The next request of the stream.
    next: usize,
    /// Leading structures of the pool answered during set-up.
    populated: usize,
    /// The pool's next unsent structure.
    next_new: usize,
    wire: Wire,
    control: Option<Client>,
    pending: HashMap<u64, Pending>,
    rec: Recorder,
    phase_start: Instant,
    out: PhaseResult,
}

impl ClientLoop {
    /// Whether the next request can go out: a repeat or a variant needs the
    /// answer to the structure it is drawn from.
    fn ready(&self) -> bool {
        match self.stream[self.next] {
            Draw::New => true,
            Draw::Variant { of, .. } | Draw::Repeat { of, .. } => {
                of < self.populated || self.items[of].cost.is_some()
            }
        }
    }

    /// The next request of the stream: an item, a variant of it if the
    /// request is to be a near hit, and whether it goes as `FP` replay.
    fn draw(&mut self) -> (usize, Option<Item>, bool) {
        let draw = &self.stream[self.next];
        self.next += 1;
        match *draw {
            Draw::New => {
                self.next_new += 1;
                (self.next_new - 1, None, false)
            }
            Draw::Variant { of, seed } => {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let dag = Arc::new(reweight(&self.items[of].dag, &mut rng));
                let machine = self.items[of].machine.clone();
                (of, Some(Item::new(dag, machine, None)), false)
            }
            Draw::Repeat { of, fp_only } => (of, None, fp_only),
        }
    }

    fn submit(&mut self) {
        let (item, variant, fp_only) = self.draw();
        // Ids are positions in the stream, from 1.
        let id = self.next as u64;
        let encode_start = self.rec.now_ns();
        let target = variant.as_ref().unwrap_or(&self.items[item]);
        self.wire.encode(id, target, fp_only, &self.options);
        let encode_end = self.rec.now_ns();
        let sent = Instant::now();
        if let Err(err) = self.wire.flush() {
            self.out
                .failures
                .push(format!("request {id}: send failed: {err}"));
            return;
        }
        self.pending.insert(
            id,
            Pending {
                item,
                variant,
                fp_only,
                sent,
                encode_start,
                encode_end,
            },
        );
    }

    /// Blocks for one reply and checks it; `false` once the connection is
    /// unusable.
    fn complete(&mut self) -> bool {
        match read_reply(&mut self.wire.reader) {
            Ok(Reply::Ok(response)) => self.check(response),
            Ok(Reply::Err { id, error }) => self.refusal(id, error),
            Err(err) => {
                for id in self.pending.keys() {
                    self.out
                        .failures
                        .push(format!("request {id}: connection failed: {err}"));
                }
                self.pending.clear();
                return false;
            }
        }
        true
    }

    fn refusal(&mut self, id: u64, error: ServeError) {
        let Some(pending) = self.pending.remove(&id) else {
            self.out
                .failures
                .push(format!("request {id}: error for an unknown id: {error}"));
            return;
        };
        let kind = match &error {
            ServeError::Remote { kind, .. } => kind.as_str(),
            _ => "",
        };
        if pending.fp_only && kind == "unknown-fp" {
            // The shard does not hold the key: resend in full under the
            // same id, as `PipelinedClient` would.
            self.out.fp_fallbacks += 1;
            let target = pending
                .variant
                .as_ref()
                .unwrap_or(&self.items[pending.item]);
            self.wire.encode(id, target, false, &self.options);
            match self.wire.flush() {
                Ok(()) => {
                    let resent = Pending {
                        fp_only: false,
                        ..pending
                    };
                    self.pending.insert(id, resent);
                }
                Err(err) => self
                    .out
                    .failures
                    .push(format!("request {id}: resend failed: {err}")),
            }
        } else if kind == "busy" {
            self.out.refused += 1;
        } else {
            self.out.failures.push(format!("request {id}: {error}"));
        }
    }

    fn check(&mut self, response: ScheduleResponse) {
        let id = response.id;
        let Some(pending) = self.pending.remove(&id) else {
            self.out
                .failures
                .push(format!("request {id}: answer for an unknown id"));
            return;
        };
        let latency = pending.sent.elapsed();
        let received = self.rec.now_ns();
        self.out.latency[class(response.source)].push(latency.as_secs_f64());
        self.out.arrivals.push((
            self.phase_start.elapsed().as_secs_f64(),
            latency.as_secs_f64(),
        ));
        if latency > DEADLINE {
            self.out.late += 1;
        }
        let item = match &pending.variant {
            Some(variant) => variant,
            None => &self.items[pending.item],
        };
        match check_answer(&item.dag, &item.machine, &response.schedule, response.cost) {
            Err(what) => self.out.failures.push(format!("request {id}: {what}")),
            Ok(_) if pending.variant.is_some() => {}
            Ok(cost) => {
                let item = &mut self.items[pending.item];
                match item.cost {
                    // A repeat is answered from the cache or the recovered
                    // store: it must be the answer given before.
                    Some(first) if first != cost => self.out.failures.push(format!(
                        "request {id}: repeat answered with cost {cost}, first answer had {first}"
                    )),
                    Some(_) => {}
                    None => item.cost = Some(cost),
                }
            }
        }
        if self.rec.enabled() {
            let clock = Instant::now();
            let checked = self.rec.now_ns();
            let (start, encoded) = (pending.encode_start, pending.encode_end);
            let request = self.rec.push("request", id, Open::root(), start, checked);
            self.rec.push("encode", id, request, start, encoded);
            // `wire` runs from the send to the parsed reply: router, shard
            // and `read_reply` (whose own cost is `protocol.read_reply_us`).
            let wire = self.rec.push("wire", id, request, encoded, received);
            self.rec.push("validate", id, request, received, checked);
            if id.is_multiple_of(TRACE_EVERY) {
                self.server_spans(wire, response.trace_id);
            }
            self.out.tracing_s += clock.elapsed().as_secs_f64();
        }
    }

    /// Fetches the request's server-side span tree over the wire and hangs
    /// it beneath the `wire` span.  The servers' clocks start at their own
    /// admission, so only the durations are kept.
    fn server_spans(&mut self, wire: Open, trace_id: u64) {
        let Some(control) = self.control.as_mut() else {
            return;
        };
        let Ok(trace) = control.trace(trace_id) else {
            return;
        };
        let mut parents: Vec<Open> = vec![wire];
        for span in &trace.spans {
            parents.truncate(usize::from(span.depth) + 1);
            let parent = *parents.last().unwrap_or(&wire);
            let name = server_span_name(&span.name);
            let child = self.rec.child(parent, name, 0, span.dur_us * 1000);
            parents.push(child);
        }
    }

    /// The closed loop: keeps `DEPTH` requests in flight until the stream
    /// is sent and answered.
    fn run(mut self, start: Instant) -> ClientLoop {
        self.phase_start = start;
        loop {
            while self.pending.len() < DEPTH && self.next < self.stream.len() && self.ready() {
                self.submit();
            }
            if self.pending.is_empty() || !self.complete() {
                break;
            }
        }
        // Nothing in flight and the next request still not ready: the
        // answer it waits for was refused or wrong.
        for k in self.next..self.stream.len() {
            self.out
                .failures
                .push(format!("request {}: never sent, the stream stopped", k + 1));
        }
        self.out.sent = self.stream.len() as u64;
        self
    }
}

/// Sends every item once, `DEPTH` in flight, and checks the answers: how
/// set-up fills the caches and stores.
fn populate(addr: SocketAddr, items: &mut [Item], options: &RequestOptions) -> Vec<String> {
    let mut wire = Wire::connect(addr);
    let mut failures = Vec::new();
    let (mut next, mut in_flight) = (0usize, 0usize);
    while next < items.len() || in_flight > 0 {
        while next < items.len() && in_flight < DEPTH {
            wire.encode(next as u64 + 1, &items[next], false, options);
            if let Err(err) = wire.flush() {
                failures.push(format!("populate {next}: send failed: {err}"));
                return failures;
            }
            next += 1;
            in_flight += 1;
        }
        match read_reply(&mut wire.reader) {
            Ok(Reply::Ok(response)) => {
                let item = &mut items[response.id as usize - 1];
                match check_answer(&item.dag, &item.machine, &response.schedule, response.cost) {
                    Ok(cost) => item.cost = Some(cost),
                    Err(what) => failures.push(format!("populate {}: {what}", response.id)),
                }
            }
            Ok(Reply::Err { id, error }) => failures.push(format!("populate {id}: {error}")),
            Err(err) => {
                failures.push(format!("populate: connection failed: {err}"));
                return failures;
            }
        }
        in_flight -= 1;
    }
    failures
}

struct Setup {
    deployment: Deployment,
    dirs: Vec<PathBuf>,
    pools: Vec<Vec<Item>>,
    streams: Vec<Vec<Draw>>,
    /// How many leading items of each pool set-up has had answered.
    populated: usize,
    failures: Vec<String>,
    /// `serve_replay`: how long the shards took to come back on their
    /// stores.
    recover_ms: f64,
}

fn fresh_dirs() -> Vec<PathBuf> {
    (0..SHARDS)
        .map(|shard| {
            let name = format!("store-{}-shard{shard}", std::process::id());
            let dir = out_dir().join(name);
            let _ = std::fs::remove_dir_all(&dir);
            dir
        })
        .collect()
}

/// Everything before the timed section: the request streams, the structure
/// pools they need with their baselines, server / router / store bring-up,
/// cache pre-population and, for `serve_replay`, the restart with its
/// store recovery.
fn set_up(args: &Args, kind: Kind, options: &RequestOptions) -> Setup {
    let requests = stream_len(args, kind);
    let populated = match (kind, args.smoke) {
        (Kind::Mixed, _) => PREPOPULATED,
        (Kind::Replay, false) => REPLAY_STRUCTURES,
        (Kind::Replay, true) => REPLAY_STRUCTURES / 4,
    };
    let streams: Vec<Vec<Draw>> = (0..CLIENTS)
        .map(|c| {
            let mut rng = rng_for(args.seed, &args.workload, 200 + c as u64);
            stream(kind, requests, populated, &mut rng)
        })
        .collect();
    let mut pools: Vec<Vec<Item>> = streams
        .iter()
        .enumerate()
        .map(|(c, stream)| {
            let new = stream.iter().filter(|d| matches!(d, Draw::New)).count();
            pool(args, populated + new, c)
        })
        .collect();
    let dirs = fresh_dirs();
    let mut deployment = Deployment::start(&dirs, kind == Kind::Mixed);
    let mut failures = Vec::new();
    for pool in &mut pools {
        let addr = deployment.router.addr();
        failures.extend(populate(addr, &mut pool[..populated], options));
    }
    let mut recover_ms = 0.0;
    if kind == Kind::Replay {
        deployment.stop(); // graceful: every accepted append is flushed
        let clock = Instant::now();
        deployment = Deployment::start(&dirs, false);
        recover_ms = clock.elapsed().as_secs_f64() * 1e3;
        // The store keeps the assignment, not the communication schedule:
        // a recovered answer is rebuilt with a lazy one and may cost more
        // than the answer given before the restart.  Each is still checked
        // on its own; repeats are held to the first answer after recovery.
        for item in pools.iter_mut().flatten() {
            item.cost = None;
        }
    }
    Setup {
        deployment,
        dirs,
        pools,
        streams,
        populated,
        failures,
        recover_ms,
    }
}

fn tear_down(deployment: Deployment, dirs: &[PathBuf]) {
    deployment.stop();
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

fn scrape(addr: SocketAddr) -> MetricsSnapshot {
    Client::connect(addr)
        .ok()
        .and_then(|mut client| client.metrics().ok())
        .and_then(|text| MetricsSnapshot::parse(&text).ok())
        .unwrap_or_default()
}

/// Counter growth between two scrapes.
fn grown(before: &MetricsSnapshot, after: &MetricsSnapshot, key: &str) -> f64 {
    let count = |snapshot: &MetricsSnapshot| snapshot.counter(key).unwrap_or(0);
    count(after).saturating_sub(count(before)) as f64
}

/// Observations a histogram gained between two scrapes.
fn grown_histogram(
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    key: &str,
) -> HistogramSnapshot {
    let Some(after) = after.histogram(key) else {
        return HistogramSnapshot::default();
    };
    let Some(before) = before.histogram(key) else {
        return after.clone();
    };
    let earlier: HashMap<u64, u64> = before.buckets.iter().copied().collect();
    HistogramSnapshot {
        buckets: after
            .buckets
            .iter()
            .map(|&(le, n)| (le, n.saturating_sub(earlier.get(&le).copied().unwrap_or(0))))
            .collect(),
        sum: after.sum.saturating_sub(before.sum),
        count: after.count.saturating_sub(before.count),
    }
}

/// Median latency of serial `FP` replays of `items` against `addr`, over
/// the replays `addr` could answer (a shard only holds its own keys).
fn fp_replay_p50(addr: SocketAddr, items: &[&Item], options: &RequestOptions) -> f64 {
    let mut wire = Wire::connect(addr);
    let mut latencies = Vec::new();
    for round in 0..8u64 {
        for (i, item) in items.iter().enumerate() {
            wire.encode(round * 1000 + i as u64 + 1, item, true, options);
            let clock = Instant::now();
            if wire.flush().is_err() {
                return median(&latencies);
            }
            match read_reply(&mut wire.reader) {
                Ok(Reply::Ok(_)) => latencies.push(clock.elapsed().as_secs_f64()),
                Ok(Reply::Err { .. }) => {}
                Err(_) => return median(&latencies),
            }
        }
    }
    median(&latencies)
}

/// Runs every client's closed loop, each on its own thread.
fn run_clients(clients: Vec<ClientLoop>) -> (Vec<ClientLoop>, PhaseResult, f64) {
    let start = Instant::now();
    let mut clients: Vec<ClientLoop> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|client| scope.spawn(move || client.run(start)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut total = PhaseResult::default();
    for client in &mut clients {
        total.absorb(std::mem::take(&mut client.out));
    }
    (clients, total, wall)
}

pub fn run(args: &Args, kind: Kind) -> Outcome {
    let mut out = Outcome::default();
    let options = RequestOptions::new()
        .with_mode(Mode::HeuristicsOnly)
        .with_deadline(DEADLINE);

    let clock = Instant::now();
    let Setup {
        deployment,
        dirs,
        pools,
        streams,
        populated,
        failures,
        recover_ms,
    } = set_up(args, kind, &options);
    let setup_s = clock.elapsed().as_secs_f64();
    out.attempted += (populated * CLIENTS) as u64;
    for what in failures {
        out.fail(what);
    }
    let nodes: usize = pools.iter().flatten().map(|i| i.dag.n()).sum();
    let structures: usize = pools.iter().map(Vec::len).sum();
    out.notes.push(format!(
        "{SHARDS} shards x 1 worker x 1 solve thread behind a router, {CLIENTS} closed-loop \
         clients at depth {DEPTH}, deadline {} ms; {structures} structures of ~{} nodes, {} of \
         them answered during set-up",
        DEADLINE.as_millis(),
        nodes / structures.max(1),
        populated * CLIENTS,
    ));
    let store_stats: Vec<_> = deployment.shards.iter().map(|s| s.stats().store).collect();
    let recovered: u64 = store_stats.iter().map(|s| s.loaded).sum();
    let dropped_corrupt: u64 = store_stats.iter().map(|s| s.dropped_corrupt).sum();
    if kind == Kind::Replay {
        out.notes.push(format!(
            "restart: stores recovered {recovered} records ({dropped_corrupt} dropped) in \
             {recover_ms:.1} ms"
        ));
    }

    let router = deployment.router.addr();
    let origin = Instant::now();
    let clients: Vec<ClientLoop> = pools
        .into_iter()
        .zip(streams)
        .map(|(items, stream)| ClientLoop {
            options: options.clone(),
            items,
            stream,
            next: 0,
            populated,
            next_new: populated,
            wire: Wire::connect(router),
            control: args.trace.then(|| Client::connect(router).ok()).flatten(),
            pending: HashMap::new(),
            rec: Recorder::new(args.trace, origin),
            phase_start: origin,
            out: PhaseResult::default(),
        })
        .collect();

    let before = scrape(router);
    let (clients, phase, wall) = run_clients(clients);
    let after = scrape(router);
    out.attempted += phase.sent;
    account(&mut out, &phase);

    let answers = phase.answers();
    let [cold, warm, exact] = &phase.latency;
    out.notes.push(format!(
        "timed section {wall:.2} s: {} sent, {answers} answered (cold {} / warm {} / exact {}), \
         {} late, {} refused, {} FP fallbacks",
        phase.sent,
        cold.len(),
        warm.len(),
        exact.len(),
        phase.late,
        phase.refused,
        phase.fp_fallbacks,
    ));
    out.notes.push(format!(
        "client latency p50: cold {:.2} ms, warm {:.2} ms, exact {:.0} us",
        median(cold) * 1e3,
        median(warm) * 1e3,
        median(exact) * 1e6
    ));

    let mut values = Values::new();
    let v = &mut values;
    v.insert("setup_s", setup_s);
    // Both are the median over `SLICES` equal slices of the timed section:
    // a burst of interference from the shared host then costs a slice, not
    // the run.
    let slice_s = wall / SLICES as f64;
    let mut by_slice: Vec<Vec<f64>> = vec![Vec::new(); SLICES];
    for &(at, latency) in &phase.arrivals {
        if let Some(slice) = by_slice.get_mut((at / slice_s) as usize) {
            slice.push(latency);
        }
    }
    let rps: Vec<f64> = by_slice.iter().map(|s| s.len() as f64 / slice_s).collect();
    let typical: Vec<f64> = by_slice.iter().map(|s| geo_mean(s) * 1e3).collect();
    v.insert("throughput_rps", median(&rps));
    v.insert("answer_geomean_ms", median(&typical));
    // Over every structure of the pools, in pool order: the stream sends
    // each at least once, and one left unanswered has failed the run above.
    let vs = |pick: fn(&Baseline) -> u64| -> f64 {
        let ratios: Vec<f64> = clients
            .iter()
            .flat_map(|c| &c.items)
            .filter_map(|item| Some(item.cost? as f64 / pick(item.base.as_ref()?) as f64))
            .collect();
        geo_mean(&ratios)
    };
    v.insert("cost_geomean_vs_cilk", vs(|b| b.cilk));
    v.insert("cost_geomean_vs_hdagg", vs(|b| b.hdagg));

    if args.trace {
        v.insert("client.cold_p50_ms", median(cold) * 1e3);
        v.insert("client.warm_p50_ms", median(warm) * 1e3);
        v.insert("client.exact_p50_us", median(exact) * 1e6);
        v.insert("client.cold_p99_ms", quantile(cold, 0.99) * 1e3);
        v.insert("client.warm_p99_ms", quantile(warm, 0.99) * 1e3);
        v.insert("client.exact_p99_us", quantile(exact, 0.99) * 1e6);
        v.insert("client.cold_samples", cold.len() as f64);
        v.insert("client.warm_samples", warm.len() as f64);
        v.insert("client.exact_samples", exact.len() as f64);
        let sent = phase.sent.max(1) as f64;
        let failures = phase.failures.len() as u64;
        v.insert(
            "client.deadline_miss_share",
            (phase.late + phase.refused + failures) as f64 / sent,
        );
        v.insert("client.fail_share", failures as f64 / sent);
        v.insert("server.busy_refusals", phase.refused as f64);
        v.insert("router.fp_fallbacks", phase.fp_fallbacks as f64);
        v.insert("bench.host_cores", host_cores() as f64);
        v.insert(
            "trace.overhead_pct",
            phase.tracing_s / (wall * CLIENTS as f64) * 100.0,
        );
        v.insert("store.recovered_records", recovered as f64);
        v.insert("store.dropped_corrupt", dropped_corrupt as f64);
        server_layers(&before, &after, v);

        // The router's hop, on the now idle deployment: serial FP replays
        // through the router against the same replays sent straight to the
        // shards.
        let known: Vec<&Item> = clients[0]
            .items
            .iter()
            .filter(|item| item.cost.is_some())
            .take(12)
            .collect();
        let through = fp_replay_p50(router, &known, &options);
        let direct: Vec<f64> = deployment
            .shards
            .iter()
            .map(|s| fp_replay_p50(s.addr(), &known, &options))
            .filter(|&p50| p50 > 0.0)
            .collect();
        if !direct.is_empty() {
            v.insert("router.hop_us", (through - median(&direct)) * 1e6);
        }

        let sample: Vec<(Arc<Dag>, Machine)> = known
            .iter()
            .take(6)
            .map(|item| (Arc::clone(&item.dag), item.machine.clone()))
            .collect();
        let mut rng = rng_for(args.seed, &args.workload, 300);
        micro::serve_pass(&sample, &options, &service_config(), &mut rng, v);
        if kind == Kind::Replay {
            // The deployment's own recovery, not the micro pass's.
            v.insert("store.open_recover_ms", recover_ms);
        }

        let recorders: Vec<Recorder> = clients.into_iter().map(|c| c.rec).collect();
        let spans: usize = recorders.iter().map(Recorder::len).sum();
        v.insert("trace.spans", spans as f64);
        write_trace(&args.workload, &recorders, &mut out.notes);
    } else {
        drop(clients);
    }
    tear_down(deployment, &dirs);
    values.insert("peak_rss_mb", peak_rss_mb());
    out.values = values;
    out
}

/// Counts a phase's wrong, missing, late and refused answers as failed
/// operations: a run cannot pass with any of them.
fn account(out: &mut Outcome, phase: &PhaseResult) {
    for what in &phase.failures {
        out.fail(what.clone());
    }
    for _ in 0..phase.late {
        out.fail("an answer arrived after its deadline".into());
    }
    for _ in 0..phase.refused {
        out.fail("a request was refused (busy)".into());
    }
}

/// Server, cache and placement numbers from the wire: the growth of the
/// router's merged `METRICS` exposition over the timed section.
fn server_layers(before: &MetricsSnapshot, after: &MetricsSnapshot, v: &mut Values) {
    let queue_wait = grown_histogram(before, after, "bsp_queue_wait_micros");
    v.insert(
        "server.queue_wait_p50_us",
        queue_wait.quantile_micros(0.5) as f64,
    );
    v.insert(
        "server.queue_wait_p99_us",
        queue_wait.quantile_micros(0.99) as f64,
    );
    for (metric, phase) in [
        ("server.solve_phase_s.init_schedule", "init_schedule"),
        ("server.solve_phase_s.hc", "hc"),
        ("server.solve_phase_s.hccs", "hccs"),
    ] {
        let key = format!("bsp_solve_phase_micros_total{{phase=\"{phase}\"}}");
        v.insert(metric, grown(before, after, &key) / 1e6);
    }
    let busy_us: u64 = ["cold", "warm", "exact"]
        .iter()
        .map(|source| {
            let key = format!("bsp_request_latency_micros{{source=\"{source}\"}}");
            grown_histogram(before, after, &key).sum
        })
        .sum();
    v.insert("server.worker_busy_s", busy_us as f64 / 1e6);
    let cache = |op: &str| {
        grown(
            before,
            after,
            &format!("bsp_cache_ops_total{{op=\"{op}\"}}"),
        )
    };
    let (hits, warm_hits, misses) = (cache("hit"), cache("warm_hit"), cache("miss"));
    let lookups = (hits + warm_hits + misses).max(1.0);
    v.insert("cache.exact_hit_ratio", hits / lookups);
    v.insert("cache.warm_hit_ratio", warm_hits / lookups);
    v.insert("cache.warm_fallbacks", cache("warm_fallback"));
    let placed = |decision: &str| {
        let key = format!("bsp_placement_total{{decision=\"{decision}\"}}");
        grown(before, after, &key)
    };
    let decisions: f64 = bsp_serve::Decision::ALL
        .iter()
        .map(|d| placed(d.as_str()))
        .sum::<f64>()
        .max(1.0);
    v.insert("placement.affinity_share", placed("affinity") / decisions);
    v.insert(
        "placement.load_steered_share",
        placed("load_steered") / decisions,
    );
    v.insert("placement.failover_count", placed("failover"));
}
