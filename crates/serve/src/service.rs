//! The scheduling engine behind the wire layer: cache consultation,
//! deadline-aware anytime solving, and per-outcome latency metrics.
//!
//! [`ScheduleService::handle`] is the whole request lifecycle:
//!
//! 1. fingerprint the request ([`bsp_model::fingerprint`], allocation-free);
//! 2. **exact cache hit** → return the cached [`BspSchedule`] in `O(1)`.
//!    This path performs *zero heap allocation* (fingerprinting, the mutex,
//!    the LRU bump, the `Arc` clone and the histogram update all stay off
//!    the allocator) — certified by the repo's counting-allocator test;
//! 3. **miss** → run the configured pipeline cold.  A re-weighted instance
//!    of a cached DAG is a miss like any other.
//!
//! Every solve runs under a [`CancelToken`] that combines the request
//! deadline with the service's shutdown token, so a request always comes
//! back with its best-so-far *valid* schedule by its deadline, and shutdown
//! drains in-flight work promptly.  If a solver ever returned an invalid
//! schedule the service would fall back to the trivial schedule rather than
//! ship it — the service-boundary counterpart of the pipeline's debug
//! assertions.

use crate::cache::{CacheStats, ScheduleCache};
use crate::metrics::{LatencyHistogram, StoreStats};
use crate::obs::{write_sample, write_type, MetricsRegistry, MetricsSnapshot, SpanSet};
use crate::placement::PlacementScope;
use crate::protocol::{ScheduleRequest, ScheduleSource, ServeError};
use crate::store::{Store, StoreConfig};
use bsp_model::record::{encode_record, RecordError, StoreRecord};
use bsp_model::{request_key, BspSchedule, RequestKey};
use bsp_sched::cancel::CancelToken;
use bsp_sched::pipeline::{Pipeline, PipelineConfig};
use dag_gen::hyperdag::{read_hyperdag, write_hyperdag};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tuning knobs of a [`ScheduleService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Byte budget of the schedule cache.
    pub cache_bytes: usize,
    /// Read by nothing: a cold solve's searches are bounded by counts, and
    /// the request's deadline is its only clock.  The frozen `benchmark/`
    /// sets it; delete with ROADMAP item 1 (benchmark v2).
    #[doc(hidden)]
    pub local_search_budget: Duration,
    /// Read by nothing: a re-weighted request is a cold solve.  The frozen
    /// `benchmark/` sets it; delete with ROADMAP item 1 (benchmark v2).
    #[doc(hidden)]
    pub warm_budget: Duration,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// The durable store under the cache ([`crate::store`]); `None` (the
    /// default) runs memory-only.  With a store, cache inserts write through
    /// asynchronously, evictions drop only the RAM copy, and startup replays
    /// the segments to pre-warm the cache.
    pub store: Option<StoreConfig>,
    /// Read by nothing: a shard keeps whatever its store recovers.  The
    /// frozen `benchmark/` sets it; delete with ROADMAP item 1 (benchmark v2).
    #[doc(hidden)]
    pub placement: Option<PlacementScope>,
    /// Read by nothing.  The frozen `benchmark/` names it in a struct
    /// literal; delete with ROADMAP item 1 (benchmark v2).
    #[doc(hidden)]
    pub min_coarse_nodes: usize,
    /// Read by nothing: a solve is one thread.  The frozen `benchmark/`
    /// names it in a struct literal; delete with ROADMAP item 1 (benchmark v2).
    #[doc(hidden)]
    pub solve_threads: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            cache_bytes: 64 << 20,
            local_search_budget: Duration::ZERO,
            warm_budget: Duration::ZERO,
            default_deadline: None,
            store: None,
            placement: None,
            min_coarse_nodes: 0,
            solve_threads: 1,
        }
    }
}

/// Latency histograms per schedule source, plus the total request count.
/// The histograms are shared with the service's [`MetricsRegistry`] (series
/// `bsp_request_latency_micros{source=…}`), so [`ServiceStats`] quantiles and
/// the `METRICS` exposition read the same data.
#[derive(Debug)]
pub struct ServiceMetrics {
    /// Cold (full pipeline) requests.
    pub cold: Arc<LatencyHistogram>,
    /// Exact cache hits.
    pub exact: Arc<LatencyHistogram>,
    /// `bsp_requests_total{source=…}` counters, same order of sources.
    requests: [Arc<AtomicU64>; 2],
    /// `bsp_solver_fallbacks_total{kind="invalid_schedule"}`: solver answers
    /// that failed the boundary's `validate` and were replaced by the trivial
    /// schedule.
    invalid_schedules: Arc<AtomicU64>,
}

const LATENCY_HELP: &str = "request handling latency in microseconds";
const REQUESTS_HELP: &str = "requests answered";
const FALLBACKS_HELP: &str = "solver results the service had to discard, by kind";

/// `bsp_cache_ops_total{op=…}`: each label and the [`CacheStats`] counter it
/// carries — the one mapping [`ScheduleService::render_metrics`] writes and
/// [`ServiceStats::from_snapshot`] reads back.
const CACHE_OPS: [(&str, fn(&mut CacheStats) -> &mut u64); 4] = [
    ("eviction", |c| &mut c.evictions),
    ("hit", |c| &mut c.hits),
    ("insertion", |c| &mut c.insertions),
    ("miss", |c| &mut c.misses),
];

/// `bsp_store_events_total{event=…}`, likewise for [`StoreStats`].
const STORE_EVENTS: [(&str, fn(&mut StoreStats) -> &mut u64); 5] = [
    ("appended", |s| &mut s.appended),
    ("compaction", |s| &mut s.compactions),
    ("dropped_corrupt", |s| &mut s.dropped_corrupt),
    ("loaded", |s| &mut s.loaded),
    ("write_error", |s| &mut s.write_errors),
];

impl ServiceMetrics {
    /// Registers the per-source series in `registry` and returns the shared
    /// handles.  Recording through them is lock- and allocation-free.
    fn register(registry: &MetricsRegistry) -> Self {
        let hist = |source| {
            registry.histogram(
                "bsp_request_latency_micros",
                LATENCY_HELP,
                &[("source", source)],
            )
        };
        let counter =
            |source| registry.counter("bsp_requests_total", REQUESTS_HELP, &[("source", source)]);
        let fallback = |kind| {
            registry.counter(
                "bsp_solver_fallbacks_total",
                FALLBACKS_HELP,
                &[("kind", kind)],
            )
        };
        ServiceMetrics {
            cold: hist("cold"),
            exact: hist("exact"),
            requests: [counter("cold"), counter("exact")],
            invalid_schedules: fallback("invalid_schedule"),
        }
    }

    /// Records one answered request: latency histogram + request counter.
    fn observe(&self, source: ScheduleSource, elapsed: Duration) {
        let (histogram, requests) = match source {
            ScheduleSource::CacheExact => (&self.exact, &self.requests[1]),
            // No service answers `CacheWarm`; it is a wire value only.
            _ => (&self.cold, &self.requests[0]),
        };
        histogram.record(elapsed);
        requests.fetch_add(1, Ordering::Relaxed);
    }
}

/// A point-in-time statistics snapshot, read out of a `METRICS`
/// exposition: the service's own ([`ScheduleService::stats`]) or a scrape
/// ([`crate::Client::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServiceStats {
    /// Requests answered (all sources).
    pub requests: u64,
    /// Cache counters.
    pub cache: CacheStats,
    /// `(p50, p99)` latency in µs of cold requests.
    pub cold_us: (u64, u64),
    /// `(p50, p99)` latency in µs of exact cache hits.
    pub exact_us: (u64, u64),
    /// Durable-store counters (all zero when running memory-only).
    pub store: StoreStats,
}

impl ServiceStats {
    /// Reads the statistics out of a parsed `METRICS` exposition — one
    /// server's, or a router's bucket-merged aggregate, whose quantiles are
    /// then those of the shards' pooled observations.
    pub fn from_snapshot(snapshot: &MetricsSnapshot) -> Self {
        let counter = |key: &str| snapshot.counter(key).unwrap_or(0);
        let gauge = |key: &str| snapshot.gauges.get(key).copied().unwrap_or(0) as usize;
        let quantiles = |source: &str| {
            snapshot
                .histogram(&format!(
                    "bsp_request_latency_micros{{source=\"{source}\"}}"
                ))
                .map_or((0, 0), |h| h.to_histogram().p50_p99_micros())
        };
        let mut stats = ServiceStats {
            requests: snapshot.counter_sum("bsp_requests_total"),
            cold_us: quantiles("cold"),
            exact_us: quantiles("exact"),
            ..Default::default()
        };
        for (op, field) in CACHE_OPS {
            *field(&mut stats.cache) = counter(&format!("bsp_cache_ops_total{{op=\"{op}\"}}"));
        }
        stats.cache.bytes_used = gauge("bsp_cache_bytes");
        stats.cache.entries = gauge("bsp_cache_entries");
        for (event, field) in STORE_EVENTS {
            *field(&mut stats.store) =
                counter(&format!("bsp_store_events_total{{event=\"{event}\"}}"));
        }
        stats.store.recovered_bytes = counter("bsp_store_recovered_bytes_total");
        stats
    }
}

/// The in-process reply of [`ScheduleService::handle`] (the wire layer turns
/// it into a [`crate::protocol::ScheduleResponse`]).
#[derive(Debug, Clone)]
pub struct ServeReply {
    /// The schedule (shared with the cache on hits and after insertions).
    pub schedule: Arc<BspSchedule>,
    /// Its cost on the request's DAG and machine.
    pub cost: u64,
    /// Where it came from.
    pub source: ScheduleSource,
    /// Handling time (queueing excluded).
    pub elapsed: Duration,
}

/// The scheduling engine: cache + solvers + metrics.  Thread-safe; the
/// worker pool shares one instance behind an `Arc`.
#[derive(Debug)]
pub struct ScheduleService {
    config: ServiceConfig,
    cache: Mutex<ScheduleCache>,
    shutdown: CancelToken,
    registry: Arc<MetricsRegistry>,
    metrics: ServiceMetrics,
    store: Option<Store>,
}

impl ScheduleService {
    /// A fresh service.  With [`ServiceConfig::store`] set this opens the
    /// durable store (running crash recovery) and pre-warms the cache from
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if the store directory cannot be opened; use
    /// [`ScheduleService::try_new`] to handle the error.
    pub fn new(config: ServiceConfig) -> Self {
        Self::try_new(config).expect("failed to open the durable schedule store")
    }

    /// [`ScheduleService::new`], minus the panic: opening or recovering the
    /// durable store surfaces as an `io::Error`.
    pub fn try_new(config: ServiceConfig) -> io::Result<Self> {
        let mut cache = ScheduleCache::new(config.cache_bytes);
        let store = match &config.store {
            Some(store_config) => {
                let (store, recovered) = Store::open(store_config.clone())?;
                for record in &recovered {
                    // Recovery trusts nothing: a checksum-valid record is
                    // re-validated end to end (fingerprints recomputed from
                    // the payload, schedule checked against the request)
                    // before the cache may serve it.
                    match adopt_record(record) {
                        Some((key, schedule, cost)) => {
                            cache.repopulate(key.full, schedule, cost);
                            store.counters().loaded.fetch_add(1, Ordering::Relaxed);
                        }
                        None => {
                            store
                                .counters()
                                .dropped_corrupt
                                .fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                Some(store)
            }
            None => None,
        };
        let registry = Arc::new(MetricsRegistry::new());
        let metrics = ServiceMetrics::register(&registry);
        Ok(ScheduleService {
            config,
            cache: Mutex::new(cache),
            shutdown: CancelToken::new(),
            registry,
            metrics,
            store,
        })
    }

    /// Asks in-flight solves to wrap up; subsequent requests are refused
    /// with [`ServeError::ShuttingDown`].
    pub fn begin_shutdown(&self) {
        self.shutdown.cancel();
    }

    /// The per-outcome latency histograms.
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// The unified metrics registry.  The wire layers register their own
    /// series (queue wait, connection counters) here so one `METRICS` render
    /// covers the whole process.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Renders the full Prometheus-style text exposition: every registry
    /// series plus the cache and store counters sampled at call time.
    pub fn render_metrics(&self, out: &mut String) {
        self.registry.render(out);
        let mut cache = self.lock_cache().stats();
        out.push_str("# HELP bsp_cache_ops_total cache operations by kind\n");
        write_type(out, "bsp_cache_ops_total", "counter");
        for (op, field) in CACHE_OPS {
            let labels = format!("op=\"{op}\"");
            write_sample(out, "bsp_cache_ops_total", &labels, *field(&mut cache));
        }
        write_type(out, "bsp_cache_bytes", "gauge");
        write_sample(out, "bsp_cache_bytes", "", cache.bytes_used as u64);
        write_type(out, "bsp_cache_entries", "gauge");
        write_sample(out, "bsp_cache_entries", "", cache.entries as u64);
        let mut store = self
            .store
            .as_ref()
            .map(|s| s.counters().snapshot())
            .unwrap_or_default();
        out.push_str("# HELP bsp_store_events_total durable-store events by kind\n");
        write_type(out, "bsp_store_events_total", "counter");
        for (event, field) in STORE_EVENTS {
            let labels = format!("event=\"{event}\"");
            write_sample(out, "bsp_store_events_total", &labels, *field(&mut store));
        }
        write_type(out, "bsp_store_recovered_bytes_total", "counter");
        write_sample(
            out,
            "bsp_store_recovered_bytes_total",
            "",
            store.recovered_bytes,
        );
    }

    /// A statistics snapshot (cache counters + latency quantiles): this
    /// service's own `METRICS` exposition read as a [`ServiceStats`], the
    /// same reader [`crate::Client::stats`] applies to a scrape.
    pub fn stats(&self) -> ServiceStats {
        let mut exposition = String::new();
        self.render_metrics(&mut exposition);
        let snapshot =
            MetricsSnapshot::parse(&exposition).expect("a service's own exposition parses");
        ServiceStats::from_snapshot(&snapshot)
    }

    /// The durable store, when configured (tests arm fault injection through
    /// it).
    pub fn store(&self) -> Option<&Store> {
        self.store.as_ref()
    }

    /// Blocks until every write offered to the store so far is on disk.
    /// No-op without a store.  Called on graceful shutdown; tests use it to
    /// make durability deterministic.
    pub fn flush_store(&self) {
        if let Some(store) = &self.store {
            store.flush();
        }
    }

    fn lock_cache(&self) -> std::sync::MutexGuard<'_, ScheduleCache> {
        // A worker that panicked mid-insert cannot corrupt the cache beyond
        // dropping its own entry; serving stale-but-consistent data beats
        // refusing all traffic.
        self.cache.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Handles one request end to end (see the module docs).
    pub fn handle(&self, request: &ScheduleRequest) -> Result<ServeReply, ServeError> {
        self.handle_traced(request, &mut SpanSet::new())
    }

    /// [`ScheduleService::handle`] with request tracing: the handling
    /// phases (cache-lookup outcome, every solver phase) are recorded into
    /// `spans`, microsecond offsets relative to the start of handling.
    /// Recording is `Copy`-only — the exact-hit path stays allocation-free
    /// with tracing, certified by the repo's counting-allocator test.
    pub fn handle_traced(
        &self,
        request: &ScheduleRequest,
        spans: &mut SpanSet,
    ) -> Result<ServeReply, ServeError> {
        let start = Instant::now();
        if self.shutdown.is_cancelled() {
            return Err(ServeError::ShuttingDown);
        }
        let key = request_key(&request.dag, &request.machine);

        if request.options.use_cache {
            match self.exact_hit(key.full, start, spans) {
                Ok(reply) => return Ok(reply),
                Err(mut cache) => cache.note_miss(),
            }
        }
        spans.push("cache_miss", 0, 0, start.elapsed().as_micros() as u64);

        let cancel = match request.options.deadline.or(self.config.default_deadline) {
            Some(budget) => self.shutdown.tightened(Instant::now() + budget),
            None => self.shutdown.clone(),
        };
        let schedule = self.solve_cold(request, &cancel, &start, spans);

        // The solvers uphold validity by construction; this is the service
        // boundary's independent check so an invalid schedule can never
        // leave the process.
        let schedule = if schedule.validate(&request.dag, &request.machine).is_ok() {
            schedule
        } else {
            self.metrics
                .invalid_schedules
                .fetch_add(1, Ordering::Relaxed);
            BspSchedule::trivial(&request.dag)
        };
        let cost = schedule.cost(&request.dag, &request.machine);
        let schedule = Arc::new(schedule);
        if request.options.use_cache {
            let insert_start = start.elapsed().as_micros() as u64;
            self.lock_cache()
                .insert(key.full, 0, Arc::clone(&schedule), cost);
            // Write-through is asynchronous and happens only on the solve
            // path (which already allocates); the exact-hit and FP-replay
            // paths stay allocation-free and never touch the store.
            self.offer_to_store(request, &schedule, cost, key);
            let dur = (start.elapsed().as_micros() as u64).saturating_sub(insert_start);
            spans.push("cache_insert", 0, insert_start, dur);
        }
        let elapsed = start.elapsed();
        self.metrics.observe(ScheduleSource::Cold, elapsed);
        Ok(ServeReply {
            schedule,
            cost,
            source: ScheduleSource::Cold,
            elapsed,
        })
    }

    /// Handles a content-addressed replay (`FP <hex>`): the exact-hit path
    /// without any payload parsing.  Allocation-free on a hit, like
    /// [`ScheduleService::handle`]'s exact-hit path.  A miss returns
    /// [`ServeError::UnknownFingerprint`] so the client resends the full
    /// payload.
    pub fn handle_fingerprint(&self, fingerprint: u128) -> Result<ServeReply, ServeError> {
        self.handle_fingerprint_traced(fingerprint, &mut SpanSet::new())
    }

    /// [`ScheduleService::handle_fingerprint`] with tracing; like
    /// [`ScheduleService::handle_traced`], recording stays allocation-free.
    pub fn handle_fingerprint_traced(
        &self,
        fingerprint: u128,
        spans: &mut SpanSet,
    ) -> Result<ServeReply, ServeError> {
        let start = Instant::now();
        if self.shutdown.is_cancelled() {
            return Err(ServeError::ShuttingDown);
        }
        self.exact_hit(fingerprint, start, spans)
            .map_err(|mut cache| {
                cache.note_miss();
                ServeError::UnknownFingerprint
            })
    }

    /// The exact-hit reply for `full_fp`, traced and counted, with the cache
    /// released before the span and the reply are made; on a miss the cache
    /// comes back still locked.
    fn exact_hit(
        &self,
        full_fp: u128,
        start: Instant,
        spans: &mut SpanSet,
    ) -> Result<ServeReply, std::sync::MutexGuard<'_, ScheduleCache>> {
        let mut cache = self.lock_cache();
        let Some((schedule, cost)) = cache.lookup_exact(full_fp) else {
            return Err(cache);
        };
        drop(cache);
        let elapsed = start.elapsed();
        // No extra clock read: the exact hit *is* the lookup.
        spans.push("cache_exact_hit", 0, 0, elapsed.as_micros() as u64);
        self.metrics.observe(ScheduleSource::CacheExact, elapsed);
        Ok(ServeReply {
            schedule,
            cost,
            source: ScheduleSource::CacheExact,
            elapsed,
        })
    }

    /// Hands the freshly solved entry to the store's writer thread (never
    /// blocks; a full queue drops the write and counts a `write_error`).
    fn offer_to_store(
        &self,
        request: &ScheduleRequest,
        schedule: &Arc<BspSchedule>,
        cost: u64,
        key: RequestKey,
    ) {
        let Some(store) = &self.store else { return };
        let record = StoreRecord {
            full_fp: key.full,
            structure_fp: key.structure,
            cost,
            machine: request.machine.clone(),
            dag_bytes: write_hyperdag(&request.dag).into_bytes(),
            assignment: schedule.assignment.clone(),
        };
        let mut frame = Vec::new();
        match encode_record(&record, &mut frame) {
            Ok(()) => store.offer(key.full, frame),
            // Explicit-λ machines and machines over `MAX_PROCESSORS` are
            // not persisted (mirroring the wire protocol); that is a
            // policy, not a failure.
            Err(RecordError::Unsupported(_)) => {}
            Err(_) => {
                store
                    .counters()
                    .write_errors
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Adds `micros` to the `bsp_solve_phase_micros_total{phase=…}` counter.
    /// Registration locks and may allocate — only ever called on the solve
    /// path, which allocates anyway.
    fn note_phase_micros(&self, phase: &'static str, micros: u64) {
        self.registry
            .counter(
                "bsp_solve_phase_micros_total",
                "cumulative solver time by phase in microseconds",
                &[("phase", phase)],
            )
            .fetch_add(micros, Ordering::Relaxed);
    }

    /// Cold path: the pipeline under the request's token, whose deadline is
    /// the solve's only clock (every mode is the same solve), on this
    /// worker's thread.  Per-phase durations feed the `bsp_solve_phase_micros_total`
    /// counters and are recorded into `spans` under a `solve` span.
    fn solve_cold(
        &self,
        request: &ScheduleRequest,
        cancel: &CancelToken,
        start: &Instant,
        spans: &mut SpanSet,
    ) -> BspSchedule {
        let solve_start = start.elapsed().as_micros() as u64;
        let config = PipelineConfig::default().with_cancel(cancel.clone());
        let report = Pipeline::new(config).run_report(&request.dag, &request.machine);
        let solve_dur = (start.elapsed().as_micros() as u64).saturating_sub(solve_start);
        spans.push("solve", 0, solve_start, solve_dur);
        for sample in &report.phases {
            self.note_phase_micros(sample.name, sample.dur_us);
            spans.push_shifted(*sample, 1, solve_start);
        }
        report.schedule
    }
}

/// Turns a checksum-valid recovered record into a cache entry — or `None`,
/// making it a `dropped_corrupt`.  Nothing in the record is trusted: the DAG
/// payload is re-parsed, both fingerprints are recomputed from it and must
/// match the stored keys, the assignment's shape is checked *before* any
/// array-indexing constructor can run, the rebuilt schedule passes the same
/// validity check every served schedule passes, and the cost is recomputed
/// rather than read back.  A corrupt or crafted record therefore costs one
/// lost cache entry, never a wrong answer.
fn adopt_record(record: &StoreRecord) -> Option<(RequestKey, Arc<BspSchedule>, u64)> {
    let text = std::str::from_utf8(&record.dag_bytes).ok()?;
    let dag = read_hyperdag(text).ok()?;
    let key = request_key(&dag, &record.machine);
    if key.full != record.full_fp || key.structure != record.structure_fp {
        return None;
    }
    // Shape guards ahead of `from_assignment_lazy`, which indexes the
    // assignment arrays by node id and allocates per superstep.
    if record.assignment.n() != dag.n() {
        return None;
    }
    if record
        .assignment
        .superstep
        .iter()
        .any(|&s| s as usize > dag.n())
    {
        return None;
    }
    let schedule = BspSchedule::from_assignment_lazy(&dag, record.assignment.clone());
    if schedule.validate(&dag, &record.machine).is_err() {
        return None;
    }
    let cost = schedule.cost(&dag, &record.machine);
    Some((key, Arc::new(schedule), cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::RequestOptions;
    use bsp_model::{Dag, Machine};

    fn request(dag: Dag, machine: Machine, options: RequestOptions) -> ScheduleRequest {
        ScheduleRequest {
            id: 1,
            dag,
            machine,
            options,
        }
    }

    fn chain(n: usize, work: u64) -> Dag {
        let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Dag::from_edges(n, &edges, vec![work; n], vec![1; n]).unwrap()
    }

    #[test]
    fn identical_requests_hit_the_cache_exactly() {
        let service = ScheduleService::new(ServiceConfig::default());
        let req = request(
            chain(12, 3),
            Machine::uniform(4, 1, 2),
            RequestOptions::new(),
        );
        let first = service.handle(&req).unwrap();
        assert_eq!(first.source, ScheduleSource::Cold);
        let second = service.handle(&req).unwrap();
        assert_eq!(second.source, ScheduleSource::CacheExact);
        assert!(Arc::ptr_eq(&first.schedule, &second.schedule));
        assert_eq!(first.cost, second.cost);
        let stats = service.stats();
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.requests, 2);
    }

    #[test]
    fn reweighted_requests_are_solved_cold() {
        let config = ServiceConfig::default();
        let service = ScheduleService::new(config.clone());
        let machine = Machine::uniform(4, 1, 2);
        let base = request(chain(12, 3), machine.clone(), RequestOptions::new());
        assert_eq!(service.handle(&base).unwrap().source, ScheduleSource::Cold);
        // Same structure key, new weights: a miss, solved like a fresh one.
        let variant = request(chain(12, 5), machine, RequestOptions::new());
        let reply = service.handle(&variant).unwrap();
        assert_eq!(reply.source, ScheduleSource::Cold);
        let fresh = ScheduleService::new(config).handle(&variant).unwrap();
        assert_eq!(reply.cost, fresh.cost);
        let stats = service.stats();
        assert_eq!((stats.cache.hits, stats.cache.misses), (0, 2));
    }

    #[test]
    fn cache_op_counters_match_the_request_counts() {
        let service = ScheduleService::new(ServiceConfig::default());
        let machine = Machine::uniform(4, 1, 2);
        // Cold, exact, re-weighted cold, FP hit, FP miss, exact, FP miss.
        let a = request(chain(10, 3), machine.clone(), RequestOptions::new());
        let b = request(chain(10, 4), machine.clone(), RequestOptions::new());
        let key_a = request_key(&a.dag, &machine).full;
        service.handle(&a).unwrap();
        service.handle(&a).unwrap();
        service.handle(&b).unwrap();
        service.handle_fingerprint(key_a).unwrap();
        let fp_misses = [0xbad, 0xbad + 1];
        assert!(matches!(
            service.handle_fingerprint(fp_misses[0]),
            Err(ServeError::UnknownFingerprint)
        ));
        service.handle(&b).unwrap();
        assert!(service.handle_fingerprint(fp_misses[1]).is_err());

        let mut exposition = String::new();
        service.render_metrics(&mut exposition);
        let snapshot = MetricsSnapshot::parse(&exposition).unwrap();
        let count = |key: &str| snapshot.counter(key).unwrap_or(0);
        let cold = count("bsp_requests_total{source=\"cold\"}");
        let exact = count("bsp_requests_total{source=\"exact\"}");
        assert_eq!((cold, exact), (2, 3));
        assert_eq!(
            count("bsp_cache_ops_total{op=\"miss\"}"),
            cold + fp_misses.len() as u64
        );
        assert_eq!(count("bsp_cache_ops_total{op=\"hit\"}"), exact);
    }

    #[test]
    fn empty_dags_are_served_without_panicking() {
        let service = ScheduleService::new(ServiceConfig::default());
        let dag = Dag::from_edge_list_unit_weights(0, &[]).unwrap();
        let machine = Machine::uniform(2, 1, 1);
        let req = request(dag.clone(), machine.clone(), RequestOptions::new());
        let reply = service.handle(&req).unwrap();
        assert!(reply.schedule.validate(&dag, &machine).is_ok());
        // And the empty schedule is cacheable like any other.
        let hit = service.handle(&req).unwrap();
        assert_eq!(hit.source, ScheduleSource::CacheExact);
    }

    #[test]
    fn cache_off_requests_never_touch_the_cache() {
        let service = ScheduleService::new(ServiceConfig::default());
        let req = request(
            chain(8, 2),
            Machine::uniform(2, 1, 1),
            RequestOptions::new().with_cache(false),
        );
        for _ in 0..2 {
            let reply = service.handle(&req).unwrap();
            assert_eq!(reply.source, ScheduleSource::Cold);
        }
        assert_eq!(service.stats().cache.entries, 0);
    }

    #[test]
    fn shutdown_refuses_new_requests() {
        let service = ScheduleService::new(ServiceConfig::default());
        service.begin_shutdown();
        let req = request(
            chain(4, 1),
            Machine::uniform(2, 1, 1),
            RequestOptions::new(),
        );
        assert!(matches!(
            service.handle(&req),
            Err(ServeError::ShuttingDown)
        ));
    }

    fn store_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bsp-service-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn stored_config(dir: &std::path::Path) -> ServiceConfig {
        ServiceConfig {
            store: Some(StoreConfig::at(dir)),
            ..Default::default()
        }
    }

    #[test]
    fn a_restarted_service_serves_exact_hits_from_the_store() {
        let dir = store_dir("restart");
        let machine = Machine::uniform(4, 1, 2);
        // Two stored requests; the second is a chain whose structure a
        // two-shard placement homes on shard 0.
        let homed_on_shard_0 = (13..64)
            .map(|n| chain(n, 3))
            .find(|dag| {
                let structure = bsp_model::request_key(dag, &machine).structure;
                crate::Placement::new(2).structure_owner(structure) == 0
            })
            .expect("some chain length is homed on shard 0");
        let dags = [chain(12, 3), homed_on_shard_0];
        let scoped = |shards, shard| ServiceConfig {
            placement: Some(PlacementScope { shards, shard }),
            ..stored_config(&dir)
        };
        let (first_costs, first_stats) = {
            let service = ScheduleService::new(scoped(1, 0));
            let costs: Vec<u64> = dags
                .iter()
                .map(|dag| {
                    let req = request(dag.clone(), machine.clone(), RequestOptions::new());
                    let reply = service.handle(&req).unwrap();
                    assert_eq!(reply.source, ScheduleSource::Cold);
                    reply.cost
                })
                .collect();
            service.flush_store();
            (costs, service.stats())
        }; // drop: the writer drains and joins
        assert_eq!(first_stats.store.appended, 2);
        assert_eq!(first_stats.store.loaded, 0, "a fresh dir loads nothing");

        // Restart under the same placement, then re-sharded 1 → 2 as shard
        // 1: a shard keeps whatever its store recovers, so both times every
        // stored request answers without solving.
        for (shards, shard) in [(1, 0), (2, 1)] {
            let service = ScheduleService::new(scoped(shards, shard));
            let stats = service.stats();
            assert_eq!(stats.store.loaded, 2, "restart recovered every entry");
            assert_eq!(stats.cache.insertions, 0, "repopulation is not traffic");
            for (dag, &cost) in dags.iter().zip(&first_costs) {
                let req = request(dag.clone(), machine.clone(), RequestOptions::new());
                let reply = service.handle(&req).unwrap();
                assert_eq!(
                    reply.source,
                    ScheduleSource::CacheExact,
                    "the recovered entry of {} nodes answers without solving ({shards} shards)",
                    dag.n()
                );
                assert_eq!(reply.cost, cost);
                assert!(reply.schedule.validate(dag, &machine).is_ok());
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_off_requests_never_reach_the_store() {
        let dir = store_dir("cache-off");
        {
            let service = ScheduleService::new(stored_config(&dir));
            let req = request(
                chain(8, 2),
                Machine::uniform(2, 1, 1),
                RequestOptions::new().with_cache(false),
            );
            service.handle(&req).unwrap();
            service.flush_store();
            assert_eq!(service.stats().store.appended, 0);
        }
        let service = ScheduleService::new(stored_config(&dir));
        assert_eq!(service.stats().store.loaded, 0);
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_corrupted_record_is_dropped_on_restart_not_served() {
        let dir = store_dir("corrupt");
        {
            let service = ScheduleService::new(stored_config(&dir));
            for work in [3, 4] {
                service
                    .handle(&request(
                        chain(12, work),
                        Machine::uniform(4, 1, 2),
                        RequestOptions::new(),
                    ))
                    .unwrap();
            }
            service.flush_store();
        }
        // Flip one byte in the middle of the first segment's payload region.
        let seg = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.file_name().is_some_and(|n| n == "seg-00000000.log"))
            .expect("first segment exists");
        let mut bytes = std::fs::read(&seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&seg, bytes).unwrap();

        let service = ScheduleService::new(stored_config(&dir));
        let stats = service.stats();
        assert!(stats.store.dropped_corrupt >= 1, "the damage was noticed");
        assert!(
            stats.store.loaded < 2,
            "a corrupt record must not be adopted"
        );
        // Whatever *was* loaded still serves correctly.
        for work in [3, 4] {
            let dag = chain(12, work);
            let machine = Machine::uniform(4, 1, 2);
            let reply = service
                .handle(&request(
                    dag.clone(),
                    machine.clone(),
                    RequestOptions::new(),
                ))
                .unwrap();
            assert!(reply.schedule.validate(&dag, &machine).is_ok());
        }
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deadline_is_honoured_with_a_valid_schedule() {
        let service = ScheduleService::new(ServiceConfig::default());
        let dag = chain(400, 7);
        let machine = Machine::uniform(8, 3, 5);
        let deadline = Duration::from_millis(60);
        let start = Instant::now();
        let reply = service
            .handle(&request(
                dag.clone(),
                machine.clone(),
                RequestOptions::new().with_deadline(deadline),
            ))
            .unwrap();
        let elapsed = start.elapsed();
        assert!(reply.schedule.validate(&dag, &machine).is_ok());
        // Anytime contract: the request returns promptly (2x covers the
        // non-cancellable fringes: initializers, merges, cost).
        assert!(
            elapsed < deadline * 2 + Duration::from_millis(50),
            "request took {elapsed:?} against a {deadline:?} deadline"
        );
    }
}
