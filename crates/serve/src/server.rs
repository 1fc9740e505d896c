//! The loopback TCP server: pipelined connections feeding a request-level
//! worker pool.
//!
//! ## Threading model
//!
//! One **acceptor** thread takes connections off the listener and spawns a
//! per-connection **reader** thread (bounded by
//! [`ServerConfig::max_connections`]; beyond it a connection is answered
//! with `ERR 0 busy ...` and dropped).  The reader parses incoming messages
//! and pushes each scheduling request as a *job* into a bounded shared
//! queue — so a client may have **many id-tagged requests in flight on one
//! connection**.  `N` **worker** threads take the queue's jobs one at a
//! time, in arrival order, and hand each finished response to the owning
//! connection's **writer** thread over a channel; since several workers can
//! be solving jobs of the same connection concurrently, responses complete
//! **out of order** and the id tags are what lets the client match them up
//! (see [`crate::PipelinedClient`]).  Cheap verbs (`PING`, `METRICS`) are
//! answered by the reader directly, also through the writer channel so wire
//! frames never interleave.
//!
//! When the job queue is full the request is refused with `ERR <id> busy`
//! (admission control instead of unbounded buffering); the connection stays
//! usable.
//!
//! All request handling goes through the shared [`ScheduleService`], so the
//! cache and the latency histograms are global across workers.
//!
//! ## Graceful shutdown
//!
//! [`ServerHandle::shutdown`] stops admission, fires the service's
//! [`bsp_sched::CancelToken`] (in-flight anytime solves return their
//! best-so-far schedule promptly), shuts the connection sockets down to
//! unblock their readers, lets the workers drain the remaining jobs (refused
//! with `shutting-down`), and joins every thread.

use crate::metrics::LatencyHistogram;
use crate::obs::{SpanSet, TraceIdGen, TraceJournal, TraceRecord};
use crate::protocol::{
    encode_error, encode_metrics_reply, encode_response_parts, encode_slow_reply,
    encode_trace_reply, read_incoming, Incoming, ScheduleRequest, ServeError, WireTrace,
};
use crate::service::{ScheduleService, ServiceConfig, ServiceStats};
use crate::store::StoreConfig;
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead as _, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Capacity of the recent-trace ring ([`TraceJournal`]): every request is
/// traced, so this bounds how far back `TRACE <id>` can look.
pub(crate) const TRACE_RING_CAP: usize = 256;

/// Worst-N slow-log capacity (`STATS SLOW`).
pub(crate) const SLOW_LOG_CAP: usize = 16;

/// Configuration of the TCP serving layer.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of worker threads.  A worker runs one solve at a time on its
    /// own thread, so this is how many solves run at once.
    pub workers: usize,
    /// Pending-request (job) queue capacity; requests beyond it are refused
    /// with a per-request `busy` error.  This bounds the total in-flight
    /// pipelined work across all connections.
    pub queue_capacity: usize,
    /// Maximum concurrently served connections; further connections are
    /// refused with `ERR 0 busy`.
    pub max_connections: usize,
    /// Read by nothing: a worker takes one job per pop.  The frozen
    /// `benchmark/` names it in a struct literal; delete with ROADMAP item 1.
    #[doc(hidden)]
    pub admission_batch: usize,
    /// A connection idle for this long is closed (also bounds how long
    /// shutdown can wait for a reader stuck on a silent peer).
    pub idle_timeout: Duration,
    /// Configuration of the underlying [`ScheduleService`].
    pub service: ServiceConfig,
    /// Directory of the durable schedule store ([`crate::store`]); `None`
    /// (the default) serves memory-only.  Shorthand for setting
    /// [`ServiceConfig::store`] with default budgets — an explicit
    /// `service.store` wins over this field.
    pub store_dir: Option<PathBuf>,
    /// Read by nothing: a solve is one thread.  The frozen `benchmark/`
    /// names it in a struct literal; delete with ROADMAP item 1 (benchmark v2).
    #[doc(hidden)]
    pub solve_threads: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_capacity: 64,
            max_connections: 128,
            admission_batch: 8,
            idle_timeout: Duration::from_secs(30),
            service: ServiceConfig::default(),
            store_dir: None,
            solve_threads: 0,
        }
    }
}

/// One unit of work for the pool: a request plus the channel of the writer
/// that must carry its response.
struct Job {
    kind: JobKind,
    /// The request's trace id: carried in on `OPTION trace` (the router
    /// assigns one when sharded), minted here otherwise.  Never 0.
    trace: u64,
    /// When the job entered the queue; the worker derives the queue-wait
    /// span and the `bsp_queue_wait_micros` histogram sample from it.
    enqueued: Instant,
    reply: Sender<String>,
    /// The owning connection's in-flight counter; decremented once the
    /// response (or error) has been handed to the writer, so the reader can
    /// tell a quiet-but-working connection from an idle one.
    in_flight: Arc<AtomicU64>,
}

enum JobKind {
    Full(Box<ScheduleRequest>),
    Fingerprint { id: u64, fingerprint: u128 },
}

struct Shared {
    service: ScheduleService,
    jobs: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutting_down: AtomicBool,
    config: ServerConfig,
    /// Live connection sockets (for shutdown-time unblocking) and their
    /// reader thread handles, keyed by connection id.
    conns: Mutex<HashMap<u64, TcpStream>>,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
    /// Finished-request traces (`TRACE <id>`, `STATS SLOW`).
    journal: TraceJournal,
    /// Ids for requests that arrive without one.
    trace_ids: TraceIdGen,
    /// `bsp_queue_wait_micros`, registered in the service's registry.
    queue_wait: Arc<LatencyHistogram>,
    /// `bsp_worker_panics_total`: solves that panicked and were answered
    /// with `ERR internal`.
    worker_panics: Arc<AtomicU64>,
}

/// A bound-but-not-yet-running server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral loopback port).
    pub fn bind<A: ToSocketAddrs>(addr: A, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let mut service_config = config.service.clone();
        if service_config.store.is_none() {
            if let Some(dir) = &config.store_dir {
                service_config.store = Some(StoreConfig::at(dir.clone()));
            }
        }
        let service = ScheduleService::try_new(service_config)?;
        let queue_wait = service.registry().histogram(
            "bsp_queue_wait_micros",
            "time from request admission to a worker picking the job up",
            &[],
        );
        let worker_panics = service.registry().counter(
            "bsp_worker_panics_total",
            "solves that panicked on a worker and were answered with ERR internal",
            &[],
        );
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                service,
                jobs: Mutex::new(VecDeque::new()),
                available: Condvar::new(),
                shutting_down: AtomicBool::new(false),
                config,
                conns: Mutex::new(HashMap::new()),
                conn_threads: Mutex::new(Vec::new()),
                journal: TraceJournal::new(TRACE_RING_CAP, SLOW_LOG_CAP),
                trace_ids: TraceIdGen::new(),
                queue_wait,
                worker_panics,
            }),
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Starts the acceptor and worker threads; returns the controlling handle.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.listener.local_addr()?;
        let shared = self.shared;
        let mut workers = Vec::with_capacity(shared.config.workers.max(1));
        for i in 0..shared.config.workers.max(1) {
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("bsp-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        let acceptor = {
            let shared = Arc::clone(&shared);
            let listener = self.listener;
            std::thread::Builder::new()
                .name("bsp-serve-acceptor".into())
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
                        "bsp-serve-conn",
                        |s, stream| serve_connection(s, stream),
                    )
                })?
        };
        Ok(ServerHandle {
            addr,
            shared,
            acceptor: Some(acceptor),
            workers,
        })
    }
}

/// Handle to a running server: address, statistics, shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Direct (in-process) access to the underlying service.
    pub fn service(&self) -> &ScheduleService {
        &self.shared.service
    }

    /// A statistics snapshot without a round trip.
    pub fn stats(&self) -> ServiceStats {
        self.shared.service.stats()
    }

    /// Graceful shutdown: stop admission, cancel in-flight solves, drain the
    /// workers, join every thread.
    pub fn shutdown(mut self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        self.shared.service.begin_shutdown();
        self.shared.available.notify_all();
        // Unblock the acceptor with a no-op connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Unblock every connection reader stuck in a read.
        {
            let conns = self.shared.conns.lock().unwrap_or_else(|e| e.into_inner());
            for stream in conns.values() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        // The acceptor is gone, so no new connection threads can appear.
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
        // With every reader gone no new jobs can appear; wake the workers so
        // they drain what is left (answered with shutting-down) and exit.
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Workers are gone, so no new writes can be offered: one barrier
        // makes everything the server ever accepted durable.
        self.shared.service.flush_store();
    }
}

/// Registers a connection thread's handle, first reaping every handle whose
/// thread has already finished — a long-lived server must not accumulate a
/// `JoinHandle` per connection it ever served.  Shared with the router.
pub(crate) fn register_conn_thread(threads: &Mutex<Vec<JoinHandle<()>>>, handle: JoinHandle<()>) {
    let mut threads = threads.lock().unwrap_or_else(|e| e.into_inner());
    let mut alive = Vec::with_capacity(threads.len() + 1);
    for h in threads.drain(..) {
        if h.is_finished() {
            let _ = h.join(); // finished: join returns immediately
        } else {
            alive.push(h);
        }
    }
    *threads = alive;
    threads.push(handle);
}

/// The connection bookkeeping of a listener's shared state, as the accept
/// loop sees it.
pub(crate) struct AcceptState<'a> {
    pub(crate) shutting_down: &'a AtomicBool,
    pub(crate) max_connections: usize,
    /// Live connection sockets (for shutdown-time unblocking), by id.
    pub(crate) conns: &'a Mutex<HashMap<u64, TcpStream>>,
    pub(crate) conn_threads: &'a Mutex<Vec<JoinHandle<()>>>,
}

/// Accepts connections until shutdown: refuses with `busy` at the
/// connection cap, otherwise registers the socket and hands it to `serve` on
/// a named thread that deregisters it when the connection ends.  Shared with
/// the router, whose client side has the same shape.
pub(crate) fn acceptor_loop<S: Send + Sync + 'static>(
    listener: &TcpListener,
    shared: &Arc<S>,
    state: fn(&S) -> AcceptState<'_>,
    thread_prefix: &str,
    serve: fn(&Arc<S>, TcpStream) -> io::Result<()>,
) {
    let accept = state(shared);
    let deregister = move |shared: &S, conn_id: u64| {
        state(shared)
            .conns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&conn_id);
    };
    let mut next_conn_id = 0u64;
    for conn in listener.incoming() {
        if accept.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let at_capacity = {
            let conns = accept.conns.lock().unwrap_or_else(|e| e.into_inner());
            conns.len() >= accept.max_connections.max(1)
        };
        if at_capacity {
            let mut reply = String::new();
            encode_error(&mut reply, 0, &ServeError::Busy);
            let mut stream = stream;
            let _ = stream.write_all(reply.as_bytes());
            continue; // dropping the stream closes the refused connection
        }
        let conn_id = next_conn_id;
        next_conn_id += 1;
        let Ok(registered) = stream.try_clone() else {
            continue;
        };
        accept
            .conns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(conn_id, registered);
        let thread_shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name(format!("{thread_prefix}-{conn_id}"))
            .spawn(move || {
                let _ = serve(&thread_shared, stream);
                deregister(&thread_shared, conn_id);
            });
        match spawned {
            Ok(handle) => register_conn_thread(accept.conn_threads, handle),
            Err(_) => deregister(shared, conn_id),
        }
    }
}

/// Enqueues one job for the worker pool, refusing with a per-request `busy`
/// error when the queue is at capacity.  `trace` is the caller-supplied
/// trace id; a fresh one is minted when absent, so every admitted request is
/// traceable.
fn submit_job(
    shared: &Shared,
    kind: JobKind,
    trace: Option<u64>,
    reply: &Sender<String>,
    in_flight: &Arc<AtomicU64>,
) {
    let id = match &kind {
        JobKind::Full(request) => request.id,
        JobKind::Fingerprint { id, .. } => *id,
    };
    let trace = trace.unwrap_or_else(|| shared.trace_ids.mint());
    let mut jobs = shared.jobs.lock().unwrap_or_else(|e| e.into_inner());
    // The shutdown check must happen under the jobs lock: workers only exit
    // after observing the flag with an empty queue (also under the lock), so
    // a job enqueued here while the flag is unset is guaranteed a worker.
    if shared.shutting_down.load(Ordering::SeqCst) {
        drop(jobs);
        let mut out = String::new();
        encode_error(&mut out, id, &ServeError::ShuttingDown);
        let _ = reply.send(out);
        return;
    }
    if jobs.len() >= shared.config.queue_capacity.max(1) {
        drop(jobs);
        let mut out = String::new();
        encode_error(&mut out, id, &ServeError::Busy);
        let _ = reply.send(out);
        return;
    }
    in_flight.fetch_add(1, Ordering::SeqCst);
    jobs.push_back(Job {
        kind,
        trace,
        enqueued: Instant::now(),
        reply: reply.clone(),
        in_flight: Arc::clone(in_flight),
    });
    drop(jobs);
    shared.available.notify_one();
}

/// The per-connection reader: parses messages, answers cheap verbs, feeds
/// scheduling requests to the worker pool, and joins its writer on exit.
fn serve_connection(shared: &Shared, stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(shared.config.idle_timeout))?;
    let writer_stream = stream.try_clone()?;
    let (tx, rx) = mpsc::channel::<String>();
    let writer = std::thread::Builder::new()
        .name("bsp-serve-conn-writer".into())
        .spawn(move || writer_loop(writer_stream, &rx))?;
    let in_flight = Arc::new(AtomicU64::new(0));
    let mut reader = BufReader::new(stream);
    while frame_ready(&mut reader, &in_flight, &tx) {
        // Cheap verbs are answered here, through the writer channel so wire
        // frames never interleave; `out` stays empty for a scheduling request.
        let mut out = String::new();
        match read_incoming(&mut reader) {
            Ok(None) => break,
            Ok(Some(Incoming::Ping)) => out.push_str("PONG\n"),
            Ok(Some(Incoming::SlowStats)) => {
                encode_slow_reply(&mut out, &shared.journal.snapshot_slow());
            }
            Ok(Some(Incoming::Metrics)) => {
                let mut exposition = String::new();
                shared.service.render_metrics(&mut exposition);
                encode_metrics_reply(&mut out, &exposition);
            }
            Ok(Some(Incoming::Trace(trace_id))) => match shared.journal.lookup(trace_id) {
                Some(rec) => encode_trace_reply(&mut out, &WireTrace::from_record(&rec)),
                None => encode_error(&mut out, 0, &ServeError::UnknownTrace),
            },
            Ok(Some(Incoming::Request(request))) => {
                let trace = request.options.trace;
                submit_job(shared, JobKind::Full(request), trace, &tx, &in_flight);
            }
            Ok(Some(Incoming::FingerprintRequest {
                id,
                fingerprint,
                // Routing is the router's job; a shard serves the replay
                // from whatever its cache holds, structure key or not.
                structure: _,
                trace,
            })) => {
                submit_job(
                    shared,
                    JobKind::Fingerprint { id, fingerprint },
                    trace,
                    &tx,
                    &in_flight,
                );
            }
            Err(err) => {
                // Typed error back to the peer, then close: after a framing
                // error the stream position is unreliable.
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
    // Closing our sender lets the writer drain the in-flight responses (the
    // workers hold clones while solving) and exit.
    drop(tx);
    let _ = writer.join();
    Ok(())
}

/// Waits for the next frame on a client connection; `false` means close it
/// (clean EOF between frames, a transport error, or the idle timeout).
///
/// Peeking before parsing lets a read timeout be told apart from a frame:
/// the idle timeout may only close a connection that has nothing in flight —
/// a client quietly waiting on a slow solve is working, not idle.  (A timeout
/// *mid-frame* still surfaces as the parser's error: a peer that stalls
/// inside a frame is broken, not patient.)  Shared with the router.
pub(crate) fn frame_ready(
    reader: &mut BufReader<TcpStream>,
    in_flight: &AtomicU64,
    tx: &Sender<String>,
) -> bool {
    loop {
        match reader.fill_buf() {
            Ok(buffered) => return !buffered.is_empty(),
            Err(e) => {
                let timed_out = matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                );
                if timed_out && in_flight.load(Ordering::SeqCst) > 0 {
                    continue;
                }
                if timed_out {
                    let mut out = String::new();
                    let idle = ServeError::Io("connection idle timeout".into());
                    encode_error(&mut out, 0, &idle);
                    let _ = tx.send(out);
                }
                return false;
            }
        }
    }
}

/// The per-connection writer: serializes response frames onto the socket in
/// completion order, coalescing bursts into one flush.  Shared with the
/// router, whose client connections have the same shape.
pub(crate) fn writer_loop(stream: TcpStream, rx: &Receiver<String>) {
    let mut writer = BufWriter::new(stream);
    while let Ok(msg) = rx.recv() {
        if writer.write_all(msg.as_bytes()).is_err() {
            return;
        }
        while let Ok(more) = rx.try_recv() {
            if writer.write_all(more.as_bytes()).is_err() {
                return;
            }
        }
        if writer.flush().is_err() {
            return;
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut jobs = shared.jobs.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = jobs.pop_front() {
                    break job;
                }
                if shared.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                jobs = shared
                    .available
                    .wait(jobs)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        let mut out = String::new();
        let queue_wait = job.enqueued.elapsed();
        shared.queue_wait.record(queue_wait);
        let qw_us = queue_wait.as_micros().min(u128::from(u64::MAX)) as u64;
        // Spans are offsets from admission: queue wait first, then the
        // service's handling spans shifted past it.  All `Copy`-only —
        // the exact-hit path stays allocation-free with tracing on.
        let mut spans = SpanSet::new();
        spans.push("queue_wait", 0, 0, qw_us);
        let mut svc_spans = SpanSet::new();
        let id = match &job.kind {
            JobKind::Full(request) => request.id,
            JobKind::Fingerprint { id, .. } => *id,
        };
        // A panicking solve answers its own request with `ERR internal`;
        // the worker lives on and serves the next job.
        let handled = panic::catch_unwind(AssertUnwindSafe(|| match &job.kind {
            JobKind::Full(request) => {
                #[cfg(test)]
                tests::panic_if_marked(request);
                shared.service.handle_traced(request, &mut svc_spans)
            }
            JobKind::Fingerprint { fingerprint, .. } => shared
                .service
                .handle_fingerprint_traced(*fingerprint, &mut svc_spans),
        }));
        let result = handled.unwrap_or_else(|payload| {
            shared.worker_panics.fetch_add(1, Ordering::Relaxed);
            let message = (payload.downcast_ref::<&str>().map(|m| m.to_string()))
                .or_else(|| payload.downcast_ref::<String>().cloned());
            Err(ServeError::Internal(message.unwrap_or_default()))
        });
        spans.extend_offset(&svc_spans, 0, qw_us);
        let (source, total_us) = match &result {
            Ok(reply) => {
                let handled_us = reply.elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
                let respond_start = job.enqueued.elapsed().as_micros() as u64;
                encode_response_parts(
                    &mut out,
                    id,
                    reply.cost,
                    reply.source,
                    handled_us,
                    job.trace,
                    &reply.schedule,
                );
                let respond_dur =
                    (job.enqueued.elapsed().as_micros() as u64).saturating_sub(respond_start);
                spans.push("respond", 0, respond_start, respond_dur);
                (reply.source.as_str(), qw_us.saturating_add(handled_us))
            }
            Err(err) => {
                encode_error(&mut out, id, err);
                ("error", job.enqueued.elapsed().as_micros() as u64)
            }
        };
        shared.journal.record(TraceRecord {
            trace_id: job.trace,
            source,
            shard: -1,
            total_us,
            spans,
        });
        // A send error just means the connection is gone.
        let _ = job.reply.send(out);
        job.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, Completion, PipelinedClient};
    use crate::obs::MetricsSnapshot;
    use crate::protocol::{encode_request, read_reply, Reply, RequestOptions, ScheduleSource};
    use bsp_model::{Dag, Machine};
    use std::io::BufRead;
    use std::time::Duration;

    fn test_server() -> ServerHandle {
        test_server_with_workers(2)
    }

    fn test_server_with_workers(workers: usize) -> ServerHandle {
        let config = ServerConfig {
            workers,
            queue_capacity: 32,
            max_connections: 16,
            idle_timeout: Duration::from_secs(5),
            ..Default::default()
        };
        Server::bind("127.0.0.1:0", config)
            .expect("bind loopback")
            .spawn()
            .expect("spawn server threads")
    }

    fn small_dag(work: u64) -> Dag {
        Dag::from_edges(
            6,
            &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5)],
            vec![work; 6],
            vec![2; 6],
        )
        .unwrap()
    }

    #[test]
    fn end_to_end_schedule_over_loopback_tcp() {
        let server = test_server();
        let machine = Machine::uniform(4, 1, 2);
        let dag = small_dag(3);
        let mut client = Client::connect(server.addr()).expect("connect");
        client.ping().expect("ping");

        let options = RequestOptions::new();
        let first = client.schedule(&dag, &machine, &options).expect("cold run");
        assert_eq!(first.source, ScheduleSource::Cold);
        assert!(first.schedule.validate(&dag, &machine).is_ok());
        assert_eq!(first.cost, first.schedule.cost(&dag, &machine));

        let second = client.schedule(&dag, &machine, &options).expect("hit");
        assert_eq!(second.source, ScheduleSource::CacheExact);
        assert_eq!(second.schedule, first.schedule);

        // Reweighted instance: a miss, solved cold.
        let reweighted = client
            .schedule(&small_dag(9), &machine, &options)
            .expect("reweighted run");
        assert_eq!(reweighted.source, ScheduleSource::Cold);

        // A replay the server never saw: `unknown-fp`, then the full payload.
        let (unseen, narrow) = (small_dag(5), Machine::uniform(2, 1, 1));
        client.assume_cached(&unseen, &narrow);
        client
            .schedule(&unseen, &narrow, &options)
            .expect("fallback run");
        assert_eq!(client.fp_fallbacks(), 1);

        // What the client reads off a `METRICS` scrape is what the service
        // reads off its own counters, quantiles included.
        let stats = client.stats().expect("stats");
        assert_eq!(stats, server.stats());
        // Misses: the first run, the reweighted one, the `FP` line and its
        // full-payload resend.
        assert_eq!((stats.cache.hits, stats.cache.misses), (1, 4));
        assert_eq!(stats.requests, 4);
        assert!(stats.cold_us.0 > 0 && stats.cold_us.1 >= stats.cold_us.0);

        drop(client);
        server.shutdown();
    }

    #[test]
    fn pipelined_requests_complete_out_of_order_friendly() {
        let server = test_server();
        let machine = Machine::uniform(4, 1, 2);
        let dags: Vec<_> = (1u64..=6)
            .map(|w| std::sync::Arc::new(small_dag(w)))
            .collect();
        let options = RequestOptions::new();
        let mut client = PipelinedClient::connect(server.addr()).expect("connect");

        // Submit everything before reading a single response.
        let mut expected = std::collections::HashSet::new();
        for dag in &dags {
            let id = client.submit(dag, &machine, &options).expect("submit");
            expected.insert(id);
        }
        assert_eq!(client.in_flight(), dags.len());

        let mut completed = std::collections::HashSet::new();
        while client.in_flight() > 0 {
            match client.recv().expect("recv") {
                Completion::Ok(response) => {
                    assert!(expected.contains(&response.id));
                    completed.insert(response.id);
                }
                Completion::Failed { id, error } => panic!("request {id} failed: {error}"),
            }
        }
        assert_eq!(
            completed, expected,
            "every submission completed exactly once"
        );

        // Fingerprint replays work pipelined too (these are now cache hits).
        for dag in &dags {
            client.submit(dag, &machine, &options).expect("replay");
        }
        let mut exact = 0;
        while client.in_flight() > 0 {
            match client.recv().expect("recv replay") {
                Completion::Ok(response) => {
                    if response.source == ScheduleSource::CacheExact {
                        exact += 1;
                    }
                }
                Completion::Failed { id, error } => panic!("replay {id} failed: {error}"),
            }
        }
        assert_eq!(exact, dags.len(), "replays are exact hits");
        assert_eq!(client.fp_fallbacks(), 0, "nothing was evicted");

        drop(client);
        server.shutdown();
    }

    #[test]
    fn full_job_queue_refuses_requests_per_request_not_per_connection() {
        // queue_capacity 1 and a single worker busy with slow solves: some
        // of a deep pipeline's submissions bounce with `busy`, but the
        // connection survives and later requests succeed.
        let config = ServerConfig {
            workers: 1,
            queue_capacity: 1,
            max_connections: 4,
            idle_timeout: Duration::from_secs(5),
            ..Default::default()
        };
        let server = Server::bind("127.0.0.1:0", config)
            .expect("bind")
            .spawn()
            .expect("spawn");
        let machine = Machine::uniform(2, 1, 1);
        let options = RequestOptions::new();
        let mut client = PipelinedClient::connect(server.addr()).expect("connect");
        let dags: Vec<_> = (1u64..=8)
            .map(|w| std::sync::Arc::new(small_dag(w)))
            .collect();
        for dag in &dags {
            client.submit(dag, &machine, &options).expect("submit");
        }
        let mut ok = 0u64;
        let mut busy = 0u64;
        while client.in_flight() > 0 {
            match client.recv().expect("recv") {
                Completion::Ok(_) => ok += 1,
                Completion::Failed { error, .. } => match error {
                    ServeError::Remote { kind, .. } if kind == "busy" => busy += 1,
                    other => panic!("unexpected error: {other}"),
                },
            }
        }
        assert_eq!(ok + busy, dags.len() as u64);
        assert!(ok >= 1, "at least the queued request succeeds");
        // The connection is still usable after busy rejections.
        let id = client.submit(&dags[0], &machine, &options).expect("submit");
        match client.recv().expect("recv after busy") {
            Completion::Ok(response) => assert_eq!(response.id, id),
            Completion::Failed { error, .. } => {
                assert!(matches!(&error, ServeError::Remote { kind, .. } if kind == "busy"));
            }
        }
        drop(client);
        server.shutdown();
    }

    #[test]
    fn idle_timeout_spares_connections_with_requests_in_flight() {
        // Regression: the pipelined reader re-arms its read timeout between
        // frames, so a client quietly waiting on a slow solve used to be
        // torn down as "idle" mid-request.  A request whose solve outlasts
        // the idle timeout several times over must still be answered.
        //
        // "Outlasts" is measured, not assumed: the instance is solved once
        // on a server with a generous timeout, and the server under test
        // gets a quarter of that solve as its idle timeout.  How fast the
        // codec or the host is does not enter into it.
        let spawn = |idle_timeout: Duration| {
            let config = ServerConfig {
                workers: 1,
                queue_capacity: 4,
                max_connections: 4,
                idle_timeout,
                ..Default::default()
            };
            Server::bind("127.0.0.1:0", config)
                .expect("bind")
                .spawn()
                .expect("spawn")
        };
        let n = 20_000;
        let edges: Vec<_> = (0..n - 1)
            .flat_map(|i| [(i, i + 1)])
            .chain((0..n - 2).map(|i| (i, i + 2)))
            .collect();
        let dag = Dag::from_edges(n, &edges, vec![3; n], vec![2; n]).unwrap();
        let machine = Machine::numa_binary_tree(8, 2, 5, 3);
        // Encode before connecting: the idle clock starts at `connect`.
        let mut frame = String::new();
        let options = RequestOptions::new();
        encode_request(&mut frame, 1, &dag, &machine, &options).expect("encode");
        // One cold solve on `server`; returns the server-side handling time
        // (the stretch during which the connection's reader sees no bytes).
        let solve = |server: &ServerHandle| {
            let mut stream = TcpStream::connect(server.addr()).expect("connect");
            stream.write_all(frame.as_bytes()).expect("send");
            let reply = read_reply(&mut BufReader::new(&stream))
                .expect("slow request must not be killed by the idle timeout");
            let Reply::Ok(response) = reply else {
                panic!("slow request was refused: {reply:?}");
            };
            assert!(response.schedule.validate(&dag, &machine).is_ok());
            Duration::from_micros(response.micros)
        };
        let reference = spawn(Duration::from_secs(30));
        let mut handled = solve(&reference);
        reference.shutdown();
        // The solve is deterministic but the host is not: if a run ends up
        // inside its idle window after all, re-derive the window from it.
        for _ in 0..3 {
            let idle_timeout = (handled / 4).max(Duration::from_millis(1));
            let server = spawn(idle_timeout);
            handled = solve(&server);
            server.shutdown();
            if handled > idle_timeout {
                return;
            }
        }
        panic!("no run outlasted an idle timeout of a quarter of the previous run ({handled:?})");
    }

    #[test]
    fn idle_connections_still_time_out() {
        let config = ServerConfig {
            idle_timeout: Duration::from_millis(80),
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config)
            .expect("bind")
            .spawn()
            .expect("spawn");
        let stream = TcpStream::connect(server.addr()).expect("connect");
        let mut reply = String::new();
        BufReader::new(&stream)
            .read_line(&mut reply)
            .expect("read the idle-timeout error line");
        assert!(reply.starts_with("ERR 0 io"), "got {reply:?}");
        drop(stream);
        server.shutdown();
    }

    #[test]
    fn malformed_wire_input_gets_a_typed_error_and_close() {
        let server = test_server();
        // The bare `STATS` verb is gone: it is as unknown as any other.
        for verb in ["GARBAGE\n", "STATS\n"] {
            let mut stream = TcpStream::connect(server.addr()).expect("connect");
            stream.write_all(b"STATS SLOW\n").expect("write");
            stream.write_all(verb.as_bytes()).expect("write");
            stream.flush().expect("flush");
            let mut reader = BufReader::new(&stream);
            let mut reply = String::new();
            for expected in ["SLOW 0\n", "END\n"] {
                reply.clear();
                reader.read_line(&mut reply).expect("read the slow log");
                assert_eq!(reply, expected, "`STATS SLOW` still answers");
            }
            reply.clear();
            reader.read_line(&mut reply).expect("read error line");
            assert!(
                reply.starts_with("ERR 0 malformed"),
                "{verb:?} got {reply:?}"
            );
            reply.clear();
            assert_eq!(reader.read_line(&mut reply).expect("read eof"), 0);
        }
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_cleanly_with_idle_workers() {
        let server = test_server();
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_cleanly_with_an_open_idle_connection() {
        let server = test_server();
        let _client = Client::connect(server.addr()).expect("connect");
        // The reader is blocked on this idle connection; shutdown must still
        // join promptly (socket shutdown, not the 5 s idle timeout).
        server.shutdown();
    }

    /// The work weight on node 0 that makes a worker's solve panic.  The
    /// trigger rides on the request because this crate's tests run in
    /// parallel against servers of their own.
    const PANIC_WORK: u64 = 4093;

    pub(super) fn panic_if_marked(request: &ScheduleRequest) {
        if request.dag.n() > 0 && request.dag.work(0) == PANIC_WORK {
            panic!("solver panic planted on request {}", request.id);
        }
    }

    #[test]
    fn a_panicking_solve_is_answered_and_its_worker_serves_on() {
        let server = test_server_with_workers(1);
        let addr = server.addr();
        let (done, answers) = mpsc::channel();
        // Pipelined from a thread, so a worker that died fails the test at
        // the timeout below instead of hanging it.
        let client = std::thread::spawn(move || {
            let machine = Machine::uniform(4, 1, 2);
            let options = RequestOptions::new();
            let mut client = PipelinedClient::connect(addr).expect("connect");
            let ids: Vec<u64> = [PANIC_WORK, 3, 4]
                .map(|work| Arc::new(small_dag(work)))
                .iter()
                .map(|dag| client.submit(dag, &machine, &options).expect("submit"))
                .collect();
            let outcomes: Vec<_> = (0..ids.len())
                .map(|_| match client.recv().expect("recv") {
                    Completion::Ok(response) => (response.id, Ok(())),
                    Completion::Failed { id, error } => (id, Err(error)),
                })
                .collect();
            let _ = done.send((ids, outcomes));
        });
        let (ids, mut outcomes) = answers
            .recv_timeout(Duration::from_secs(30))
            .expect("every request is answered");
        client.join().expect("the client thread ends cleanly");
        outcomes.sort_by_key(|(id, _)| *id);
        assert_eq!(outcomes.iter().map(|(id, _)| *id).collect::<Vec<_>>(), ids);
        for (id, outcome) in outcomes {
            match outcome {
                Err(ServeError::Remote { kind, .. }) if id == ids[0] => {
                    assert_eq!(kind, "internal")
                }
                Ok(()) => assert_ne!(id, ids[0], "the marked request answered OK"),
                Err(error) => panic!("request {id}: {error}"),
            }
        }

        let mut client = Client::connect(addr).expect("connect");
        let exposition = client.metrics().expect("metrics");
        let snapshot = MetricsSnapshot::parse(&exposition).expect("parse");
        assert_eq!(snapshot.counter("bsp_worker_panics_total"), Some(1));
        drop(client);
        server.shutdown();
    }
}
