//! `bsp_router` — a fingerprint-range router that turns N `bsp_serve`
//! processes into one deployment.
//!
//! The router speaks the same wire protocol as a single server, so clients
//! (serial or pipelined) do not know it is there.  Every scheduling request
//! is placed by the [`crate::placement`] policy — the single ownership site
//! shared with the shards' stores: requests route by their **structure
//! key** ([`bsp_model::RequestKey::structure`]), so reweighted instances of
//! the same DAG co-locate.  Placement is a pure range map over that key: `FP <hex>
//! [<structure-hex>]` replays reach the same shard via the structure token,
//! and legacy one-token replays fall back to the full-key range map, the
//! pre-placement routing.
//! Content addressing is what makes any of this safe — re-running a
//! request on any shard yields a valid schedule for the same key.
//!
//! ## Threading model
//!
//! Per *client* connection: a reader thread (parses requests, fingerprints
//! them, picks the owning shard) and a writer thread (serializes completed
//! responses back, in completion order).  A full request is parsed once —
//! placement needs its key — and forwarded **as received**
//! ([`crate::protocol::reframe_request`]): only the `REQ` line is rewritten
//! and a minted trace option added, the mirror image of how answers come
//! back; nothing is encoded a second time.  Per *shard*: one multiplexed
//! backend connection shared by all clients — the router re-tags each
//! request with a router-global backend id, remembers `backend id →
//! (connection, client id)` in a pending table, and a per-shard demux
//! thread reads response frames ([`crate::protocol::read_raw_reply`] — no
//! schedule re-parse), restores the client's id, and hands the text to the
//! owning connection's writer.  Requests from many pipelined clients thus
//! interleave freely on every backend connection.
//!
//! ## Failover
//!
//! When a shard connection dies, every request pending on it is **re-run on
//! the placement policy's failover successor**
//! ([`crate::placement::Placement::failover_successor`]; the router keeps
//! each full payload until its response arrives, so re-running is a
//! resend).  Nothing records the detour, so a structure family is back on
//! its owner as soon as the owner rejoins.  Replayed `FP` requests fail over
//! too; the stand-in shard typically answers `unknown-fp`, which the
//! client's fingerprint fallback turns into a full resend — degraded to one
//! extra round trip, never an error.  This is safe *because* requests
//! are content addressed: re-running a request on any shard yields a valid
//! schedule for the same key.  A dead backend comes back one way, through
//! `ensure_live`, when something needs it: the next request owned by a dead
//! shard, or a `METRICS` scrape, attempts a bounded reconnect first, so a
//! backend connection closed by the shard server's own idle timeout (or a
//! restarted shard process) rejoins on first use instead of staying dead
//! until the router is rebuilt.
//!
//! ## Observability
//!
//! `METRICS` fans out to every live shard over short-lived control
//! connections and aggregates by **merging histogram buckets**
//! ([`crate::obs::MetricsSnapshot`]): counters and gauges sum, and an
//! aggregated quantile is computed over the pooled observations — not
//! approximated from per-shard quantiles ([`crate::Client::stats`] reads
//! this exposition, so it works through a router as against one server).  It
//! additionally carries every shard's own store counters
//! (`bsp_shard_store_*{shard="i"}`), whether every backend is connected
//! (`bsp_backend_up{backend="i"}`), and the placement policy's decision
//! counts (`bsp_placement_total{decision=…}`), so one scrape shows the
//! aggregate, which shard is misbehaving, and why traffic went where it
//! went.  Shards are scraped only to answer a `METRICS`.  A
//! *live* shard that fails to answer turns the aggregate into an error
//! rather than a silently partial sum.  `PING` is answered locally.
//!
//! Every routed request gets a **trace id** (minted here unless the client
//! supplied one via `OPTION trace`), injected into the forwarded payload so
//! the shard's journal and the router's journal share the id.  `TRACE <id>`
//! answers from the router's journal and grafts the owning shard's span
//! tree (fetched over a control connection) under the router's dispatch
//! span; `STATS SLOW` reports the router-side slow log.

use crate::client::Client;
use crate::obs::{
    split_key, MetricsRegistry, MetricsSnapshot, SpanSet, TraceIdGen, TraceJournal, TraceRecord,
};
use crate::placement::{Decision, Placement};
use crate::protocol::{
    encode_error, encode_fingerprint_request, encode_metrics_reply, encode_slow_reply,
    encode_trace_reply, read_incoming_verbatim, read_raw_reply, reframe_request, Incoming,
    ServeError, WireSpan, WireTrace,
};
use crate::server::{
    acceptor_loop, frame_ready, register_conn_thread, writer_loop, AcceptState, SLOW_LOG_CAP,
    TRACE_RING_CAP,
};
use bsp_model::request_key;
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of the router's client-facing side.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Maximum concurrently served client connections.
    pub max_connections: usize,
    /// A client connection idle for this long is closed.
    pub idle_timeout: Duration,
    /// Read by nothing: a dead backend is revived by the next request it
    /// owns or the next `METRICS` scrape.  The frozen `benchmark/` names it in a struct literal; delete
    /// with ROADMAP item 1 (benchmark v2).
    #[doc(hidden)]
    pub health_probe_interval: Option<Duration>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            max_connections: 128,
            idle_timeout: Duration::from_secs(30),
            health_probe_interval: Some(Duration::from_secs(2)),
        }
    }
}

/// What the router must remember to finish (or re-run) one request.
struct PendingRoute {
    /// Writer channel of the client connection that asked.
    client_tx: Sender<String>,
    /// The client's own correlation id, restored on the way back.
    client_id: u64,
    /// The request, ready to resend on failover.
    payload: Payload,
    /// The shard currently expected to answer.
    shard: usize,
    /// The request's trace id (never 0): minted here unless the client
    /// supplied one, and injected into the forwarded payload so the shard's
    /// journal shares it.
    trace: u64,
    /// When the router admitted the request; the journal's total latency.
    accepted: Instant,
    /// The owning connection's in-flight counter (see the reader's idle
    /// gating); decremented exactly once, when the entry leaves the table
    /// with an answer.
    in_flight: Arc<AtomicU64>,
}

impl PendingRoute {
    /// Hands the final reply text to the connection writer and releases the
    /// in-flight slot.  Consumes the entry: every terminal path goes
    /// through here exactly once.
    fn finish(self, text: String) {
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        let _ = self.client_tx.send(text);
    }
}

enum Payload {
    /// A full request as the client sent it, re-framed once (backend id on
    /// the `REQ` line, trace option before `END`): what goes to the owning
    /// shard and, unchanged, to its failover successor.
    Full(Arc<Vec<u8>>),
    /// A fingerprint-only replay.
    Fp(u128),
}

impl Payload {
    fn encode(&self, backend_id: u64, trace: u64) -> Arc<Vec<u8>> {
        match self {
            Payload::Full(bytes) => Arc::clone(bytes),
            Payload::Fp(fp) => {
                let mut out = String::new();
                // No structure token on the forwarded frame: routing already
                // happened here, and the shard serves from whatever it holds.
                encode_fingerprint_request(&mut out, backend_id, *fp, None, Some(trace));
                Arc::new(out.into_bytes())
            }
        }
    }
}

/// One backend shard: its address and the write half of the multiplexed
/// connection (`None` once the shard is dead).
struct Backend {
    addr: SocketAddr,
    writer: Mutex<Option<BufWriter<TcpStream>>>,
    /// A clone of the stream for shutdown-time unblocking of the demux.
    stream: Mutex<Option<TcpStream>>,
    /// Bumped on every (re)connect.  A demux thread only tears down the
    /// writer of its *own* connection generation — without this, a stale
    /// demux exiting late would clear a freshly revived writer.
    generation: AtomicU64,
}

impl Backend {
    /// Writes one frame; marks the shard dead (and reports `false`) on
    /// failure.
    fn try_send(&self, bytes: &[u8]) -> bool {
        let mut guard = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(writer) = guard.as_mut() {
            if writer.write_all(bytes).is_ok() && writer.flush().is_ok() {
                return true;
            }
            *guard = None;
        }
        false
    }

    fn is_live(&self) -> bool {
        self.writer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_some()
    }
}

/// The router's own registry series (shard registries are scraped, these are
/// router-side): routed-request counters by kind, failover re-runs, and the
/// placement policy's decision counters.
struct RouterSeries {
    full: Arc<AtomicU64>,
    fp: Arc<AtomicU64>,
    failovers: Arc<AtomicU64>,
    /// `bsp_placement_total{decision=...}`, indexed like [`Decision::ALL`].
    placement: [Arc<AtomicU64>; Decision::ALL.len()],
}

struct RouterShared {
    config: RouterConfig,
    backends: Vec<Backend>,
    pending: Mutex<HashMap<u64, PendingRoute>>,
    next_backend_id: AtomicU64,
    shutting_down: AtomicBool,
    conns: Mutex<HashMap<u64, TcpStream>>,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
    /// Router-side trace journal: one record per routed request, with the
    /// owning shard recorded so `TRACE` can graft the shard's span tree.
    journal: TraceJournal,
    trace_ids: TraceIdGen,
    registry: Arc<MetricsRegistry>,
    series: RouterSeries,
    /// The single ownership site: every dispatch, replay, and failover
    /// target comes from here.
    placement: Placement,
}

/// A bound-but-not-yet-running router.
pub struct Router {
    listener: TcpListener,
    shared: Arc<RouterShared>,
}

impl Router {
    /// Binds the client-facing listener and connects to every shard.
    /// Unreachable shards start dead (their key range fails over from the
    /// first request on); at least one shard must be reachable.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        shard_addrs: &[SocketAddr],
        config: RouterConfig,
    ) -> io::Result<Router> {
        if shard_addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a router needs at least one shard",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let backends: Vec<Backend> = shard_addrs
            .iter()
            .map(|&addr| Backend {
                addr,
                writer: Mutex::new(None),
                stream: Mutex::new(None),
                generation: AtomicU64::new(0),
            })
            .collect();
        let registry = Arc::new(MetricsRegistry::new());
        let series = RouterSeries {
            full: registry.counter(
                "bsp_router_requests_total",
                "requests admitted by the router, by payload kind",
                &[("kind", "full")],
            ),
            fp: registry.counter(
                "bsp_router_requests_total",
                "requests admitted by the router, by payload kind",
                &[("kind", "fp")],
            ),
            failovers: registry.counter(
                "bsp_router_failovers_total",
                "pending requests re-dispatched after a shard connection died",
                &[],
            ),
            placement: Decision::ALL.map(|d| {
                registry.counter(
                    "bsp_placement_total",
                    "placement-policy routing decisions, by decision",
                    &[("decision", d.as_str())],
                )
            }),
        };
        let shards = backends.len();
        let shared = Arc::new(RouterShared {
            config,
            backends,
            pending: Mutex::new(HashMap::new()),
            next_backend_id: AtomicU64::new(1),
            shutting_down: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            conn_threads: Mutex::new(Vec::new()),
            journal: TraceJournal::new(TRACE_RING_CAP, SLOW_LOG_CAP),
            trace_ids: TraceIdGen::new(),
            registry,
            series,
            placement: Placement::new(shards),
        });
        // Every backend starts dead and is connected the way a dead one is
        // revived later, demux thread included.
        for shard in 0..shards {
            ensure_live(&shared, shard);
        }
        if shared.backends.iter().all(|backend| !backend.is_live()) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "no shard is reachable",
            ));
        }
        Ok(Router { listener, shared })
    }

    /// The bound client-facing address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Starts the acceptor thread; returns the controlling handle.
    pub fn spawn(self) -> io::Result<RouterHandle> {
        let addr = self.listener.local_addr()?;
        let shared = self.shared;
        let acceptor = {
            let shared = Arc::clone(&shared);
            let listener = self.listener;
            std::thread::Builder::new()
                .name("bsp-router-acceptor".into())
                .spawn(move || {
                    acceptor_loop(
                        &listener,
                        &shared,
                        |s| AcceptState {
                            shutting_down: &s.shutting_down,
                            max_connections: s.config.max_connections,
                            conns: &s.conns,
                            conn_threads: &s.conn_threads,
                        },
                        "bsp-router-conn",
                        route_connection,
                    )
                })?
        };
        Ok(RouterHandle {
            addr,
            shared,
            acceptor: Some(acceptor),
        })
    }
}

/// Handle to a running router: address, shard liveness, shutdown.
pub struct RouterHandle {
    addr: SocketAddr,
    shared: Arc<RouterShared>,
    acceptor: Option<JoinHandle<()>>,
}

impl RouterHandle {
    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Which shards still have a live backend connection.
    pub fn live_shards(&self) -> Vec<usize> {
        (0..self.shared.backends.len())
            .filter(|&i| self.shared.backends[i].is_live())
            .collect()
    }

    /// Graceful shutdown: stop admission, drop every connection, join every
    /// thread.  The shard processes are left running — they belong to the
    /// deployment, not to the router.
    pub fn shutdown(mut self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        {
            let conns = self.shared.conns.lock().unwrap_or_else(|e| e.into_inner());
            for stream in conns.values() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        for backend in &self.shared.backends {
            let guard = backend.stream.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(stream) = guard.as_ref() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        // Dropping the pending table releases the last writer-channel
        // senders, letting every connection writer thread exit; the demux
        // threads (registered with the connection threads) exit on their
        // closed sockets.
        self.shared
            .pending
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        let handles: Vec<_> = {
            let mut threads = self
                .shared
                .conn_threads
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            threads.drain(..).collect()
        };
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// How long a backend revival may spend connecting (a dead process on the
/// same box refuses instantly; a dead box must not stall dispatch).
const RECONNECT_TIMEOUT: Duration = Duration::from_millis(500);

/// Connects a dead backend: the one place a backend connection is made, at
/// [`Router::bind`] (every backend starts dead) and whenever one is revived.
/// Backend connections die for mundane reasons — the shard server's own idle
/// timeout closes a quiet multiplexed connection, shard processes get
/// restarted — and the router must not treat either as permanent: the next
/// request owned by the shard, or the next `METRICS` scrape, reconnects
/// instead of failing over forever.
fn ensure_live(shared: &Arc<RouterShared>, shard: usize) {
    let backend = &shared.backends[shard];
    if backend.is_live() || shared.shutting_down.load(Ordering::SeqCst) {
        return;
    }
    let Ok(stream) = TcpStream::connect_timeout(&backend.addr, RECONNECT_TIMEOUT) else {
        return;
    };
    if stream.set_nodelay(true).is_err() {
        return;
    }
    let (Ok(demux_stream), Ok(registered)) = (stream.try_clone(), stream.try_clone()) else {
        return;
    };
    let generation = {
        let mut writer = backend.writer.lock().unwrap_or_else(|e| e.into_inner());
        if writer.is_some() {
            return; // raced another revival; drop our socket
        }
        *writer = Some(BufWriter::new(stream));
        *backend.stream.lock().unwrap_or_else(|e| e.into_inner()) = Some(registered);
        backend.generation.fetch_add(1, Ordering::SeqCst) + 1
    };
    let thread_shared = Arc::clone(shared);
    if let Ok(handle) = std::thread::Builder::new()
        .name(format!("bsp-router-demux-{shard}-gen{generation}"))
        .spawn(move || demux_loop(&thread_shared, shard, generation, demux_stream))
    {
        register_conn_thread(&shared.conn_threads, handle);
    }
    // Shutdown may have started while we were reviving; make sure the fresh
    // connection is torn down too so the new demux thread joins promptly
    // (shutdown's own sweep may have run before we registered the stream).
    if shared.shutting_down.load(Ordering::SeqCst) {
        let guard = backend.stream.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(stream) = guard.as_ref() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// Counts one placement decision on `bsp_placement_total`.
fn count_decision(shared: &RouterShared, decision: Decision) {
    if let Some(idx) = Decision::ALL.iter().position(|&d| d == decision) {
        shared.series.placement[idx].fetch_add(1, Ordering::Relaxed);
    }
}

/// Sends the pending request `backend_id` to its preferred shard, walking
/// the ring on (and lazily reviving) dead shards; errors out to the client
/// when nothing is live.
fn dispatch(shared: &Arc<RouterShared>, backend_id: u64, preferred: usize) {
    let n = shared.backends.len();
    let bytes = {
        let pending = shared.pending.lock().unwrap_or_else(|e| e.into_inner());
        match pending.get(&backend_id) {
            Some(entry) => entry.payload.encode(backend_id, entry.trace),
            None => return, // already answered (or cancelled)
        }
    };
    for attempt in 0..n {
        let shard = (preferred + attempt) % n;
        ensure_live(shared, shard);
        // Record the target *before* sending: if the shard dies in the send
        // window, its `fail_over` scan must already see this entry, or the
        // request would be stranded in the pending table forever.  The
        // worst case of the pre-recording is a duplicate re-run, whose
        // second response is dropped as an unknown id.
        {
            let mut pending = shared.pending.lock().unwrap_or_else(|e| e.into_inner());
            match pending.get_mut(&backend_id) {
                Some(entry) => entry.shard = shard,
                None => return, // answered while we were walking the ring
            }
        }
        if shared.backends[shard].try_send(&bytes) {
            return;
        }
    }
    // Every shard is dead: fail the request.
    let entry = shared
        .pending
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .remove(&backend_id);
    if let Some(entry) = entry {
        journal_route(shared, &entry, "error", -1);
        let mut out = String::new();
        encode_error(
            &mut out,
            entry.client_id,
            &ServeError::Io("no live shard can serve the request".into()),
        );
        entry.finish(out);
    }
}

/// Records one finished route in the router's journal: a single
/// `router_dispatch` span covering admission → reply, tagged with the shard
/// that answered (`-1` when none did).
fn journal_route(shared: &RouterShared, entry: &PendingRoute, source: &'static str, shard: i32) {
    let total_us = u64::try_from(entry.accepted.elapsed().as_micros()).unwrap_or(u64::MAX);
    let mut spans = SpanSet::new();
    spans.push("router_dispatch", 0, 0, total_us);
    shared.journal.record(TraceRecord {
        trace_id: entry.trace,
        source,
        shard,
        total_us,
        spans,
    });
}

/// Re-runs everything pending on a dead shard on the remaining live ones.
/// `generation` scopes the teardown: only the writer of the connection the
/// exiting demux belonged to is cleared, never a newer revival's.
fn fail_over(shared: &Arc<RouterShared>, dead_shard: usize, generation: u64) {
    {
        let backend = &shared.backends[dead_shard];
        let mut writer = backend.writer.lock().unwrap_or_else(|e| e.into_inner());
        if backend.generation.load(Ordering::SeqCst) == generation {
            *writer = None;
        }
    }
    if shared.shutting_down.load(Ordering::SeqCst) {
        return;
    }
    let stranded: Vec<u64> = {
        let pending = shared.pending.lock().unwrap_or_else(|e| e.into_inner());
        pending
            .iter()
            .filter(|(_, entry)| entry.shard == dead_shard)
            .map(|(&id, _)| id)
            .collect()
    };
    shared
        .series
        .failovers
        .fetch_add(stranded.len() as u64, Ordering::Relaxed);
    let successor = shared.placement.failover_successor(dead_shard);
    for backend_id in stranded {
        count_decision(shared, Decision::Failover);
        dispatch(shared, backend_id, successor);
    }
}

/// The per-shard demux: reads response frames off the multiplexed backend
/// connection, restores the client correlation id, and hands the text to
/// the owning connection's writer.  Exit means the shard died.
fn demux_loop(shared: &Arc<RouterShared>, shard: usize, generation: u64, stream: TcpStream) {
    let mut reader = BufReader::new(stream);
    while let Ok(Some(raw)) = read_raw_reply(&mut reader) {
        let entry = shared
            .pending
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&raw.id);
        // An unknown id can only be a duplicate from a raced failover
        // re-run; the first answer already won.
        if let Some(entry) = entry {
            let source = raw.source.map_or("error", |source| source.as_str());
            journal_route(shared, &entry, source, shard as i32);
            let text = raw.encode_with_id(entry.client_id);
            entry.finish(text);
        }
    }
    fail_over(shared, shard, generation);
}

/// Scrapes every live shard's `METRICS` over a fresh control connection
/// (the multiplexed backend connections carry only id-tagged frames) whose
/// connect and reads are bounded by the idle timeout, so a wedged shard
/// cannot hang the caller.  A dead backend is first revived through
/// [`ensure_live`]: a quiet shard whose idle timeout closed the backend
/// connection is up, and its series must stay in the aggregate.  A live
/// shard that fails to answer makes the scrape an error, never a silently
/// partial aggregate a dashboard would misread as a traffic drop.
fn scrape_shards(shared: &Arc<RouterShared>) -> Result<Vec<(usize, MetricsSnapshot)>, ServeError> {
    let mut snaps = Vec::new();
    for (i, backend) in shared.backends.iter().enumerate() {
        ensure_live(shared, i);
        if !backend.is_live() {
            continue;
        }
        let snap = Client::connect_with_timeout(backend.addr, shared.config.idle_timeout)
            .ok()
            .and_then(|mut client| client.metrics().ok())
            .and_then(|text| MetricsSnapshot::parse(&text).ok());
        let Some(snap) = snap else {
            return Err(ServeError::Io(format!(
                "live shard {i} did not answer METRICS; refusing a partial aggregate"
            )));
        };
        snaps.push((i, snap));
    }
    if snaps.is_empty() {
        return Err(ServeError::Io("no live shard answered METRICS".into()));
    }
    Ok(snaps)
}

/// Builds the router's `METRICS` exposition: the pooled shard series, every
/// shard's own store counters under a `shard` label (a shard-local
/// write-error burst must not hide inside the fleet sum), whether every
/// backend is connected, and the router's own registry.
fn router_metrics(shared: &Arc<RouterShared>) -> Result<String, ServeError> {
    let snaps = scrape_shards(shared)?;
    // Counters and gauges sum, histogram buckets pool.
    let mut merged = MetricsSnapshot::default();
    for (i, snap) in &snaps {
        merged.merge_from(snap);
        for (key, &value) in &snap.counters {
            let (name, labels) = split_key(key);
            if let Some(counter) = name.strip_prefix("bsp_store_") {
                let sep = if labels.is_empty() { "" } else { "," };
                merged.counters.insert(
                    format!("bsp_shard_store_{counter}{{shard=\"{i}\"{sep}{labels}}}"),
                    value,
                );
            }
        }
    }
    for (i, backend) in shared.backends.iter().enumerate() {
        merged.gauges.insert(
            format!("bsp_backend_up{{backend=\"{i}\"}}"),
            u64::from(backend.is_live()),
        );
    }
    let mut out = String::new();
    merged.render(&mut out);
    shared.registry.render(&mut out);
    Ok(out)
}

/// Fetches `trace_id`'s span tree from one shard over a control connection.
fn fetch_shard_trace(shared: &RouterShared, shard: usize, trace_id: u64) -> Option<WireTrace> {
    let backend = shared.backends.get(shard)?;
    if !backend.is_live() {
        return None;
    }
    let mut client = Client::connect_with_timeout(backend.addr, shared.config.idle_timeout).ok()?;
    client.trace(trace_id).ok()
}

/// Answers `TRACE <id>`: the router's own journal record with the owning
/// shard's span tree grafted one depth level down.  The shard's clock starts
/// at its own admission, so the residual between the router total and the
/// shard total — network and demux time — is split evenly before and after
/// the grafted subtree.  A trace the router has aged out is still looked up
/// on every live shard before reporting unknown.
fn router_trace(shared: &RouterShared, trace_id: u64, out: &mut String) {
    if let Some(rec) = shared.journal.lookup(trace_id) {
        let mut wire = WireTrace::from_record(&rec);
        if rec.shard >= 0 {
            if let Some(shard_trace) = fetch_shard_trace(shared, rec.shard as usize, trace_id) {
                let offset = rec.total_us.saturating_sub(shard_trace.total_us) / 2;
                wire.truncated |= shard_trace.truncated;
                for span in &shard_trace.spans {
                    wire.spans.push(WireSpan {
                        name: span.name.clone(),
                        depth: span.depth.saturating_add(1),
                        start_us: span.start_us.saturating_add(offset),
                        dur_us: span.dur_us,
                    });
                }
            }
        }
        encode_trace_reply(out, &wire);
        return;
    }
    for shard in 0..shared.backends.len() {
        if let Some(wire) = fetch_shard_trace(shared, shard, trace_id) {
            encode_trace_reply(out, &wire);
            return;
        }
    }
    encode_error(out, 0, &ServeError::UnknownTrace);
}

/// Registers one placed request in the pending table (holding an in-flight
/// slot of its connection) and sends it to the shard placement chose.
fn admit(shared: &Arc<RouterShared>, backend_id: u64, decision: Decision, route: PendingRoute) {
    count_decision(shared, decision);
    let shard = route.shard;
    route.in_flight.fetch_add(1, Ordering::SeqCst);
    shared
        .pending
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(backend_id, route);
    dispatch(shared, backend_id, shard);
}

/// The per-client-connection reader: fingerprints requests, registers them
/// in the pending table, and dispatches them to the owning shard.
fn route_connection(shared: &Arc<RouterShared>, stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(shared.config.idle_timeout))?;
    let writer_stream = stream.try_clone()?;
    let (tx, rx) = mpsc::channel::<String>();
    let writer = std::thread::Builder::new()
        .name("bsp-router-conn-writer".into())
        .spawn(move || writer_loop(writer_stream, &rx))?;
    // The writer may outlive the reader while failover re-runs are in
    // flight, so it is joined by shutdown, not by the reader.
    register_conn_thread(&shared.conn_threads, writer);
    let in_flight = Arc::new(AtomicU64::new(0));
    let mut reader = BufReader::new(stream);
    // The bytes of the message being read, kept so that a full request is
    // forwarded as it was received instead of being encoded again.
    let mut raw: Vec<u8> = Vec::new();
    while frame_ready(&mut reader, &in_flight, &tx) {
        // Control verbs are answered here; `out` stays empty for a routed
        // request, whose answer comes back through its shard's demux.
        let mut out = String::new();
        match read_incoming_verbatim(&mut reader, &mut raw) {
            Ok(None) => break,
            Ok(Some(Incoming::Ping)) => out.push_str("PONG\n"),
            Ok(Some(Incoming::SlowStats)) => {
                encode_slow_reply(&mut out, &shared.journal.snapshot_slow());
            }
            Ok(Some(Incoming::Metrics)) => match router_metrics(shared) {
                Ok(exposition) => encode_metrics_reply(&mut out, &exposition),
                Err(err) => encode_error(&mut out, 0, &err),
            },
            Ok(Some(Incoming::Trace(trace_id))) => router_trace(shared, trace_id, &mut out),
            Ok(Some(Incoming::Request(request))) => {
                // Parsed once, for the key that places it; the shard gets
                // the client's own bytes.
                let key = request_key(&request.dag, &request.machine);
                let backend_id = shared.next_backend_id.fetch_add(1, Ordering::Relaxed);
                // Adopt the client's trace id or mint one; a minted id is
                // injected into the forwarded frame so the shard journals
                // under the same id the client is told.
                let trace = request
                    .options
                    .trace
                    .unwrap_or_else(|| shared.trace_ids.mint());
                let minted = request.options.trace.is_none().then_some(trace);
                shared.series.full.fetch_add(1, Ordering::Relaxed);
                let payload = reframe_request(&raw, backend_id, minted);
                let (shard, decision) = shared.placement.place_request(key.structure, None);
                admit(
                    shared,
                    backend_id,
                    decision,
                    PendingRoute {
                        client_tx: tx.clone(),
                        client_id: request.id,
                        payload: Payload::Full(Arc::new(payload)),
                        shard,
                        trace,
                        accepted: Instant::now(),
                        in_flight: Arc::clone(&in_flight),
                    },
                );
            }
            Ok(Some(Incoming::FingerprintRequest {
                id,
                fingerprint,
                structure,
                trace,
            })) => {
                let backend_id = shared.next_backend_id.fetch_add(1, Ordering::Relaxed);
                shared.series.fp.fetch_add(1, Ordering::Relaxed);
                let (shard, decision) = shared.placement.place_replay(fingerprint, structure);
                admit(
                    shared,
                    backend_id,
                    decision,
                    PendingRoute {
                        client_tx: tx.clone(),
                        client_id: id,
                        payload: Payload::Fp(fingerprint),
                        shard,
                        trace: trace.unwrap_or_else(|| shared.trace_ids.mint()),
                        accepted: Instant::now(),
                        in_flight: Arc::clone(&in_flight),
                    },
                );
            }
            Err(err) => {
                encode_error(&mut out, 0, &err);
                let _ = tx.send(out);
                break;
            }
        }
        if (!out.is_empty() && tx.send(out).is_err()) || shared.shutting_down.load(Ordering::SeqCst)
        {
            break;
        }
    }
    Ok(())
}
