//! Fault injection through the *service* layer: a [`FailPoint`] armed on the
//! store while real requests flow through [`ScheduleService::handle`].
//!
//! The store's own unit tests pin down frame-level recovery; these tests pin
//! down the contract the serving stack builds on top of it:
//!
//! * a torn write (crash mid-frame) costs exactly that one schedule — the
//!   next boot serves everything else and solves the torn one cold, never
//!   serving garbage;
//! * a crash *between* the durable flush and the in-memory index update
//!   loses nothing — the frame is on disk and the next boot adopts it;
//! * every injected failure is visible in the `METRICS` counters a fleet
//!   dashboard would watch (`bsp_store_events_total{event="write_error"}`,
//!   `{event="dropped_corrupt"}`).

use bsp_model::{Dag, Machine};
use bsp_serve::{
    FailPoint, RequestOptions, ScheduleRequest, ScheduleService, ScheduleSource, ServiceConfig,
    StoreConfig,
};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn temp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("bsp-store-failpoint-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn service_at(dir: &Path) -> ScheduleService {
    ScheduleService::try_new(ServiceConfig {
        local_search_budget: Duration::from_millis(40),
        warm_budget: Duration::from_millis(40),
        store: Some(StoreConfig::at(dir.to_path_buf())),
        ..Default::default()
    })
    .expect("open service over the store")
}

fn chain_request(id: u64, n: usize, work: u64) -> ScheduleRequest {
    let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
    ScheduleRequest {
        id,
        dag: Dag::from_edges(n, &edges, vec![work; n], vec![1; n]).unwrap(),
        machine: Machine::uniform(4, 1, 2),
        options: RequestOptions::new(),
    }
}

#[test]
fn a_torn_write_costs_one_schedule_and_is_counted_never_served() {
    let dir = temp_dir("torn");
    // Different node counts: structurally distinct, so neither request can
    // warm-start off the other and every first solve is honestly `Cold`.
    let survivor = chain_request(1, 12, 3);
    let torn = chain_request(2, 10, 5);
    {
        let service = service_at(&dir);
        assert_eq!(
            service.handle(&survivor).unwrap().source,
            ScheduleSource::Cold
        );
        service.flush_store();
        // Arm the fail point: the next offered frame is cut short after 7
        // bytes — exactly a crash inside the frame body.
        service
            .store()
            .expect("store-backed service")
            .set_fail_point(FailPoint::AfterBytes(7));
        assert_eq!(service.handle(&torn).unwrap().source, ScheduleSource::Cold);
        service.flush_store();
        let stats = service.stats();
        assert_eq!(stats.store.write_errors, 1, "the injected tear is counted");
        assert_eq!(stats.store.appended, 1, "only the survivor reached disk");
    }
    {
        let service = service_at(&dir);
        let stats = service.stats();
        assert_eq!(stats.store.loaded, 1, "the survivor was adopted");
        // The torn frame was physically discarded during recovery — it can
        // surface as `dropped_corrupt` (damaged tail) but never as an entry.
        assert_eq!(
            service.handle(&survivor).unwrap().source,
            ScheduleSource::CacheExact,
            "the cleanly flushed schedule is served from the recovered store"
        );
        let replay = service.handle(&torn).unwrap();
        assert_ne!(
            replay.source,
            ScheduleSource::CacheExact,
            "the torn schedule must be re-solved, not served from damage"
        );
        assert!(replay.schedule.validate(&torn.dag, &torn.machine).is_ok());
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_crash_between_flush_and_index_update_loses_nothing() {
    let dir = temp_dir("index-gap");
    let request = chain_request(1, 12, 3);
    let expected_cost;
    {
        let service = service_at(&dir);
        service
            .store()
            .expect("store-backed service")
            .set_fail_point(FailPoint::BeforeIndexUpdate);
        let reply = service.handle(&request).unwrap();
        expected_cost = reply.cost;
        service.flush_store();
        let stats = service.stats();
        assert_eq!(stats.store.appended, 1, "the frame is durable");
        assert_eq!(
            stats.store.write_errors, 1,
            "the missed index update is still surfaced as a write error"
        );
    }
    {
        let service = service_at(&dir);
        assert_eq!(service.stats().store.loaded, 1);
        let replay = service.handle(&request).unwrap();
        assert_eq!(
            replay.source,
            ScheduleSource::CacheExact,
            "a frame that reached the disk is recovered even if the writer \
             died before indexing it"
        );
        assert_eq!(replay.cost, expected_cost);
        assert!(replay
            .schedule
            .validate(&request.dag, &request.machine)
            .is_ok());
    }
    let _ = fs::remove_dir_all(&dir);
}
