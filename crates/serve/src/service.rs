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
//! 3. **warm hit** (same structure, different weights) → the cached
//!    assignment goes through the pipeline's improvement tail
//!    ([`bsp_sched::pipeline::improve_start`]) instead of running the
//!    pipeline cold;
//! 4. **miss** → run the configured pipeline.
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
use crate::protocol::{Mode, ScheduleRequest, ScheduleSource, ServeError};
use crate::store::{Store, StoreConfig};
use bsp_model::record::{encode_record, RecordError, StoreRecord};
use bsp_model::{request_key, BspSchedule, RequestKey};
use bsp_sched::cancel::CancelToken;
use bsp_sched::hill_climb::HillClimbConfig;
use bsp_sched::pipeline::{improve_start, Pipeline, PipelineConfig};
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
    /// `HC` + `HCcs` budget of a cold run (heuristics mode); clipped to the
    /// request deadline.
    pub local_search_budget: Duration,
    /// `HC` + `HCcs` budget of a warm-started run; clipped to the request
    /// deadline.  Smaller than the cold budget — a near-hit seed is already
    /// close to a local minimum.
    pub warm_budget: Duration,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// The durable store under the cache ([`crate::store`]); `None` (the
    /// default) runs memory-only.  With a store, cache inserts write through
    /// asynchronously, evictions drop only the RAM copy, and startup replays
    /// the segments to pre-warm the cache.
    pub store: Option<StoreConfig>,
    /// This shard's view of the placement policy ([`crate::placement`]).
    /// `None` (the default) is the single-server deployment: no ownership
    /// to assert.  When set it is forwarded to the store (placement-epoch
    /// marker) and the adoption path counts recovered entries this shard is
    /// not the range owner of (`adopted_foreign`).
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
            local_search_budget: Duration::from_secs(2),
            warm_budget: Duration::from_millis(500),
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
    /// Warm-started requests.
    pub warm: Arc<LatencyHistogram>,
    /// `bsp_requests_total{source=…}` counters, same order of sources.
    requests: [Arc<AtomicU64>; 3],
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
const CACHE_OPS: [(&str, fn(&mut CacheStats) -> &mut u64); 6] = [
    ("eviction", |c| &mut c.evictions),
    ("hit", |c| &mut c.hits),
    ("insertion", |c| &mut c.insertions),
    ("miss", |c| &mut c.misses),
    ("warm_fallback", |c| &mut c.warm_fallbacks),
    ("warm_hit", |c| &mut c.warm_hits),
];

/// `bsp_store_events_total{event=…}`, likewise for [`StoreStats`].
const STORE_EVENTS: [(&str, fn(&mut StoreStats) -> &mut u64); 7] = [
    ("adopted_foreign", |s| &mut s.adopted_foreign),
    ("appended", |s| &mut s.appended),
    ("compaction", |s| &mut s.compactions),
    ("dropped_corrupt", |s| &mut s.dropped_corrupt),
    ("dropped_foreign", |s| &mut s.dropped_foreign),
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
            warm: hist("warm"),
            requests: [counter("cold"), counter("exact"), counter("warm")],
            invalid_schedules: fallback("invalid_schedule"),
        }
    }

    /// Records one answered request: latency histogram + request counter.
    fn observe(&self, source: ScheduleSource, elapsed: Duration) {
        let (histogram, requests) = match source {
            ScheduleSource::Cold => (&self.cold, &self.requests[0]),
            ScheduleSource::CacheExact => (&self.exact, &self.requests[1]),
            ScheduleSource::CacheWarm => (&self.warm, &self.requests[2]),
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
    /// `(p50, p99)` latency in µs of warm-started requests.
    pub warm_us: (u64, u64),
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
            warm_us: quantiles("warm"),
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
                let mut store_config = store_config.clone();
                // The service's placement scope wins: the store's epoch
                // marker and the router's routing must agree on ownership.
                if store_config.placement.is_none() {
                    store_config.placement = config.placement;
                }
                let (store, recovered) = Store::open(store_config)?;
                for record in &recovered {
                    // Recovery trusts nothing: a checksum-valid record is
                    // re-validated end to end (fingerprints recomputed from
                    // the payload, schedule checked against the request)
                    // before the cache may serve it.
                    match adopt_record(record) {
                        Some((key, schedule, cost)) => {
                            cache.repopulate(key.full, key.structure, schedule, cost);
                            store.counters().loaded.fetch_add(1, Ordering::Relaxed);
                            // Within an epoch, foreign-structure residents
                            // (solved here while their owner was failed
                            // over) are adopted — counted, never dropped.
                            if let Some(scope) = config.placement {
                                if !scope.owns_structure(key.structure) {
                                    store
                                        .counters()
                                        .adopted_foreign
                                        .fetch_add(1, Ordering::Relaxed);
                                }
                            }
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
        self.handle_traced(request, None)
    }

    /// [`ScheduleService::handle`] with request tracing: when `spans` is
    /// given, the handling phases (cache-lookup outcome, warm start, every
    /// solver phase) are recorded into it, microsecond offsets relative to
    /// the start of handling.  Recording is `Copy`-only — the exact-hit path
    /// stays allocation-free with tracing enabled, certified by the repo's
    /// counting-allocator test.
    pub fn handle_traced(
        &self,
        request: &ScheduleRequest,
        mut spans: Option<&mut SpanSet>,
    ) -> Result<ServeReply, ServeError> {
        let start = Instant::now();
        if self.shutdown.is_cancelled() {
            return Err(ServeError::ShuttingDown);
        }
        let key = request_key(&request.dag, &request.machine);

        let warm_seed = if request.options.use_cache {
            match self.exact_hit(key.full, start, spans.as_deref_mut()) {
                Ok(reply) => return Ok(reply),
                Err(mut cache) => cache.lookup_warm(key.structure),
            }
        } else {
            None
        };
        if let Some(spans) = spans.as_deref_mut() {
            let name = if warm_seed.is_some() {
                "cache_warm_hit"
            } else {
                "cache_miss"
            };
            spans.push(name, 0, 0, start.elapsed().as_micros() as u64);
        }

        let cancel = match request.options.deadline.or(self.config.default_deadline) {
            Some(budget) => self.shutdown.tightened(Instant::now() + budget),
            None => self.shutdown.clone(),
        };

        // Whether a warm seed was found AND accepted decides both the
        // response source and the cache attribution: a rejected seed is a
        // `warm_fallback`, never a `warm_hit`, so the `warm_hits` counter
        // always equals the warm histogram's population.
        let mut warm_fallback = false;
        let (schedule, source) = match &warm_seed {
            Some(seed) => {
                let warm_start = start.elapsed().as_micros() as u64;
                match self.solve_warm(request, seed, &cancel) {
                    Some(schedule) => {
                        if let Some(spans) = spans.as_deref_mut() {
                            let dur =
                                (start.elapsed().as_micros() as u64).saturating_sub(warm_start);
                            spans.push("warm_start", 0, warm_start, dur);
                        }
                        (schedule, ScheduleSource::CacheWarm)
                    }
                    // Structural-fingerprint collision or stale seed: fall
                    // back to a cold run rather than serving anything
                    // unchecked.
                    None => {
                        warm_fallback = true;
                        (
                            self.solve_cold(request, &cancel, &start, &mut spans),
                            ScheduleSource::Cold,
                        )
                    }
                }
            }
            None => (
                self.solve_cold(request, &cancel, &start, &mut spans),
                ScheduleSource::Cold,
            ),
        };

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
            let mut cache = self.lock_cache();
            if warm_seed.is_some() {
                if warm_fallback {
                    cache.note_warm_fallback();
                } else {
                    cache.note_warm_hit();
                }
            }
            cache.insert(key.full, key.structure, Arc::clone(&schedule), cost);
            drop(cache);
            // Write-through is asynchronous and happens only on the solve
            // path (which already allocates); the exact-hit and FP-replay
            // paths stay allocation-free and never touch the store.
            self.offer_to_store(request, &schedule, cost, key);
            if let Some(spans) = spans {
                let dur = (start.elapsed().as_micros() as u64).saturating_sub(insert_start);
                spans.push("cache_insert", 0, insert_start, dur);
            }
        }
        let elapsed = start.elapsed();
        self.metrics.observe(source, elapsed);
        Ok(ServeReply {
            schedule,
            cost,
            source,
            elapsed,
        })
    }

    /// Handles a content-addressed replay (`FP <hex>`): the exact-hit path
    /// without any payload parsing.  Allocation-free on a hit, like
    /// [`ScheduleService::handle`]'s exact-hit path.  A miss returns
    /// [`ServeError::UnknownFingerprint`] so the client resends the full
    /// payload.
    pub fn handle_fingerprint(&self, fingerprint: u128) -> Result<ServeReply, ServeError> {
        self.handle_fingerprint_traced(fingerprint, None)
    }

    /// [`ScheduleService::handle_fingerprint`] with tracing; like
    /// [`ScheduleService::handle_traced`], recording stays allocation-free.
    pub fn handle_fingerprint_traced(
        &self,
        fingerprint: u128,
        spans: Option<&mut SpanSet>,
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
        spans: Option<&mut SpanSet>,
    ) -> Result<ServeReply, std::sync::MutexGuard<'_, ScheduleCache>> {
        let mut cache = self.lock_cache();
        let Some((schedule, cost)) = cache.lookup_exact(full_fp) else {
            return Err(cache);
        };
        drop(cache);
        let elapsed = start.elapsed();
        if let Some(spans) = spans {
            // No extra clock read: the exact hit *is* the lookup.
            spans.push("cache_exact_hit", 0, 0, elapsed.as_micros() as u64);
        }
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

    /// Warm path: the cached assignment through the pipeline's improvement
    /// tail (`HC` → merge → trivial floor → `HCcs`) under the warm budget; the floor
    /// matters here, as re-weighting can leave the seed costlier than one
    /// processor doing everything.  Returns `None` when the seed does not
    /// actually fit the request (fingerprint collision paranoia) so the
    /// caller can run cold.
    fn solve_warm(
        &self,
        request: &ScheduleRequest,
        seed: &BspSchedule,
        cancel: &CancelToken,
    ) -> Option<BspSchedule> {
        let (dag, machine) = (&request.dag, &request.machine);
        if seed.assignment.n() != dag.n() {
            return None;
        }
        let mut schedule = BspSchedule::from_assignment_lazy(dag, seed.assignment.clone());
        if schedule.validate(dag, machine).is_err() {
            return None;
        }
        let search = |share: f64| HillClimbConfig {
            time_limit: self.config.warm_budget.mul_f64(share),
            max_steps: usize::MAX,
            cancel: cancel.clone(),
        };
        let (cost, bound) = (schedule.cost(dag, machine), dag.lower_bound(machine));
        improve_start(dag, machine, &mut schedule, cost, bound, search, None);
        Some(schedule)
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

    /// Cold path: the pipeline with the request mode's `HC` + `HCcs` budget
    /// (the one thing the modes differ in), deadline-aware, on this worker's
    /// thread.  Per-phase durations always feed the `bsp_solve_phase_micros_total` counters;
    /// with `spans` given they are also recorded under a `solve` span.
    fn solve_cold(
        &self,
        request: &ScheduleRequest,
        cancel: &CancelToken,
        start: &Instant,
        spans: &mut Option<&mut SpanSet>,
    ) -> BspSchedule {
        let solve_start = start.elapsed().as_micros() as u64;
        let mut config = match request.options.mode {
            Mode::Default => PipelineConfig::default(),
            Mode::Fast => PipelineConfig::fast(),
            Mode::HeuristicsOnly => {
                PipelineConfig::default().with_hill_climb_time(self.config.local_search_budget)
            }
        }
        .with_cancel(cancel.clone());
        config.collect_phases = true;
        let report = Pipeline::new(config).run_report(&request.dag, &request.machine);
        let solve_dur = (start.elapsed().as_micros() as u64).saturating_sub(solve_start);
        if let Some(spans) = spans.as_deref_mut() {
            spans.push("solve", 0, solve_start, solve_dur);
        }
        for sample in &report.phases {
            self.note_phase_micros(sample.name, sample.dur_us);
            if let Some(spans) = spans.as_deref_mut() {
                spans.push_shifted(*sample, 1, solve_start);
            }
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
        let service = ScheduleService::new(ServiceConfig {
            local_search_budget: Duration::from_millis(50),
            ..Default::default()
        });
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
    fn reweighted_requests_warm_start() {
        let service = ScheduleService::new(ServiceConfig {
            local_search_budget: Duration::from_millis(50),
            warm_budget: Duration::from_millis(50),
            ..Default::default()
        });
        let machine = Machine::uniform(4, 1, 2);
        let cold = service
            .handle(&request(
                chain(12, 3),
                machine.clone(),
                RequestOptions::new(),
            ))
            .unwrap();
        assert_eq!(cold.source, ScheduleSource::Cold);
        let warm = service
            .handle(&request(chain(12, 5), machine, RequestOptions::new()))
            .unwrap();
        assert_eq!(warm.source, ScheduleSource::CacheWarm);
        assert_eq!(service.stats().cache.warm_hits, 1);
    }

    #[test]
    fn rejected_warm_seeds_count_as_fallbacks_not_warm_hits() {
        // Regression: a structurally matching seed that `solve_warm` rejects
        // used to count a `warm_hit` while the latency landed in the *cold*
        // histogram, so `warm_hits` and the warm histogram silently diverged.
        let service = ScheduleService::new(ServiceConfig {
            local_search_budget: Duration::from_millis(50),
            ..Default::default()
        });
        let req = request(
            chain(12, 3),
            Machine::uniform(4, 1, 2),
            RequestOptions::new(),
        );
        // Plant a colliding cache entry: same structural fingerprint as the
        // request, but a schedule for a different node count — exactly what a
        // structural-fingerprint collision looks like to the warm path.
        let key = request_key(&req.dag, &req.machine);
        let bogus_dag = chain(5, 1);
        let bogus = Arc::new(BspSchedule::trivial(&bogus_dag));
        service.lock_cache().insert(0xbad, key.structure, bogus, 0);

        let reply = service.handle(&req).unwrap();
        assert_eq!(
            reply.source,
            ScheduleSource::Cold,
            "rejected seed runs cold"
        );
        let stats = service.stats();
        assert_eq!(stats.cache.warm_fallbacks, 1);
        assert_eq!(
            stats.cache.warm_hits,
            service.metrics().warm.count(),
            "warm_hits must equal the warm histogram population"
        );
        assert_eq!(stats.cache.warm_hits, 0);
        assert_eq!(service.metrics().cold.count(), 1);
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
        let service = ScheduleService::new(ServiceConfig {
            local_search_budget: Duration::from_millis(20),
            ..Default::default()
        });
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
            local_search_budget: Duration::from_millis(50),
            store: Some(StoreConfig::at(dir)),
            ..Default::default()
        }
    }

    #[test]
    fn a_restarted_service_serves_exact_hits_from_the_store() {
        let dir = store_dir("restart");
        let machine = Machine::uniform(4, 1, 2);
        let (first_cost, first_stats) = {
            let service = ScheduleService::new(stored_config(&dir));
            let reply = service
                .handle(&request(
                    chain(12, 3),
                    machine.clone(),
                    RequestOptions::new(),
                ))
                .unwrap();
            assert_eq!(reply.source, ScheduleSource::Cold);
            service.flush_store();
            (reply.cost, service.stats())
        }; // drop: the writer drains and joins
        assert_eq!(first_stats.store.appended, 1);
        assert_eq!(first_stats.store.loaded, 0, "a fresh dir loads nothing");

        let service = ScheduleService::new(stored_config(&dir));
        let stats = service.stats();
        assert_eq!(stats.store.loaded, 1, "restart recovered the entry");
        assert_eq!(stats.cache.insertions, 0, "repopulation is not traffic");
        let reply = service
            .handle(&request(
                chain(12, 3),
                machine.clone(),
                RequestOptions::new(),
            ))
            .unwrap();
        assert_eq!(
            reply.source,
            ScheduleSource::CacheExact,
            "the recovered entry answers without solving"
        );
        assert_eq!(reply.cost, first_cost);
        assert!(reply.schedule.validate(&chain(12, 3), &machine).is_ok());
        drop(service);
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
