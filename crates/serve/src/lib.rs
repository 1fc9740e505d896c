//! # bsp-serve
//!
//! A long-lived scheduling service over the `realistic-sched` pipeline —
//! the serving layer that turns the one-shot reproduction of
//! *"Efficient Multi-Processor Scheduling in Increasingly Realistic Models"*
//! (SPAA 2024) into a system that admits requests, reuses work across them,
//! and bounds latency:
//!
//! * [`protocol`] — a line-delimited text protocol over loopback TCP
//!   (`std::net`, dependency-free) that reuses the paper's hyperDAG text
//!   format for DAG payloads; all malformed input surfaces as a typed
//!   [`ServeError`], never a panic.
//! * [`cache`] — a content-addressed schedule cache keyed by the
//!   allocation-free full fingerprint of [`bsp_model::fingerprint`]: exact
//!   hits return the cached [`bsp_model::BspSchedule`] in `O(1)` *without
//!   heap allocation*.  LRU eviction under a byte budget, hit/miss
//!   counters.
//! * [`service`] — the request lifecycle: fingerprint → cache → solve.
//!   Every miss, a re-weighted instance of a cached DAG included, runs the
//!   pipeline cold.  Every solve runs under a [`bsp_sched::CancelToken`]
//!   combining the request **deadline** with the service shutdown token, so
//!   a request always returns its best-so-far *valid* schedule in time.
//! * [`server`] — the **pipelined** TCP layer: per-connection reader/writer
//!   threads (the reader answers every cache hit) around a bounded job
//!   queue of cold solves drained by a worker pool, so any number of
//!   id-tagged requests may be in flight per connection and completions
//!   return **out of order**; per-outcome latency histograms ([`metrics`])
//!   and graceful shutdown.
//! * [`client`] — [`Client`], one connection: blocking (`schedule`) or
//!   pipelined (`submit`/`recv`), with the transparent `FP <hex>`
//!   content-addressed replay fast path.
//! * [`placement`] — the ownership policy: the **only** code that maps a
//!   request key to a shard.  A pure range map over the structure key keeps
//!   a DAG's re-weighted instances on one shard; a shard itself keeps
//!   whatever its store recovers.
//! * [`router`] — `bsp_router`: a placement-driven router fronting N
//!   `bsp_serve` shard processes.  Requests and `FP` replays consult the
//!   shared [`placement::Placement`] policy and dispatch onto multiplexed
//!   per-shard backend connections; a dead shard's pending requests are
//!   re-run on its placement successor (content addressing makes the
//!   re-run safe), and `METRICS` aggregates across shards by merging
//!   histogram buckets — the one way numbers leave a server or a router.
//! * [`obs`] — the observability layer: a [`obs::MetricsRegistry`] of
//!   named, labeled series rendered as Prometheus-style text (`METRICS`
//!   verb), mergeable [`obs::MetricsSnapshot`]s for router aggregation, and
//!   allocation-free request tracing ([`obs::SpanSet`],
//!   [`obs::TraceJournal`], `TRACE <id>` verb, `STATS SLOW` slow log).
//!
//! ## Quickstart
//!
//! ```
//! use bsp_serve::{Client, RequestOptions, Server, ServerConfig};
//! use bsp_model::{Dag, Machine};
//! use std::time::Duration;
//!
//! let server = Server::bind("127.0.0.1:0", ServerConfig::default())
//!     .unwrap()
//!     .spawn()
//!     .unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//!
//! let dag = Dag::from_edge_list_unit_weights(3, &[(0, 1), (1, 2)]).unwrap();
//! let machine = Machine::uniform(4, 1, 2);
//! let options = RequestOptions::new().with_deadline(Duration::from_millis(200));
//! let response = client.schedule(&dag, &machine, &options).unwrap();
//! assert!(response.schedule.validate(&dag, &machine).is_ok());
//!
//! drop(client);
//! server.shutdown();
//! ```

pub mod cache;
pub mod client;
pub mod metrics;
pub mod obs;
pub mod placement;
pub mod protocol;
pub mod router;
pub mod server;
pub mod service;
pub mod store;

pub use cache::{schedule_footprint, CacheStats, CachedAnswer, ScheduleCache};
pub use client::{Client, Completion};
pub use metrics::{LatencyHistogram, StoreCounters, StoreStats};
pub use obs::{MetricsRegistry, MetricsSnapshot, SpanSet, TraceIdGen, TraceJournal, TraceRecord};
pub use placement::{Decision, LoadView, Placement, PlacementScope};
pub use protocol::{
    Mode, Reply, RequestOptions, ScheduleRequest, ScheduleResponse, ScheduleSource, ScheduleView,
    ServeError, SlowEntry, WireSpan, WireTrace,
};
pub use router::{Router, RouterConfig, RouterHandle};
pub use server::{Server, ServerConfig, ServerHandle};
pub use service::{ScheduleService, ServeReply, ServiceConfig, ServiceStats};
pub use store::{FailPoint, Store, StoreConfig};
