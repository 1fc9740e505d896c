//! Verifies the headline property of the `bsp_serve` schedule cache: an
//! **exact cache hit performs zero heap allocation on the response path**
//! (fingerprinting, mutex, LRU bump, `Arc` hand-out, latency-histogram
//! update — encoding excluded, which is the wire layer's business).
//!
//! This lives in its own integration-test binary so the counting global
//! allocator ([`bsp_bench::heap`]) only observes this test's thread.

use bsp_bench::heap::{counted, one_at_a_time, CountingAllocator};
use bsp_model::Machine;
use bsp_serve::{
    Mode, RequestOptions, ScheduleRequest, ScheduleService, ScheduleSource, ServiceConfig, SpanSet,
};
use dag_gen::fine::{spmv, SpmvConfig};
use std::time::Duration;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn exact_cache_hit_response_path_is_allocation_free() {
    let _serial = one_at_a_time();
    let dag = spmv(&SpmvConfig {
        n: 48,
        density: 0.2,
        seed: 7,
    });
    let machine = Machine::numa_binary_tree(8, 2, 5, 3);
    let service = ScheduleService::new(ServiceConfig {
        local_search_budget: Duration::from_millis(50),
        ..Default::default()
    });
    let request = ScheduleRequest {
        id: 1,
        dag,
        machine,
        options: RequestOptions::new().with_mode(Mode::HeuristicsOnly),
    };

    // Populate the cache (allocates freely), then warm the hit path once.
    let cold = service.handle(&request).expect("cold run succeeds");
    assert_eq!(cold.source, ScheduleSource::Cold);
    let warmup = service.handle(&request).expect("hit succeeds");
    assert_eq!(warmup.source, ScheduleSource::CacheExact);
    drop(warmup);
    drop(cold);

    // Measured: full-request exact hits and fingerprint-replay hits,
    // including dropping the replies.
    let fingerprint = bsp_model::request_key(&request.dag, &request.machine).full;
    let ((), allocs, deallocs) = counted(|| {
        for _ in 0..100 {
            let reply = service.handle(&request).expect("hit succeeds");
            std::hint::black_box(reply.cost);
            drop(reply);
            let reply = service
                .handle_fingerprint(fingerprint)
                .expect("fingerprint hit succeeds");
            std::hint::black_box(reply.cost);
            drop(reply);
        }
    });
    assert_eq!(
        (allocs, deallocs),
        (0, 0),
        "exact cache hits touched the allocator: {allocs} allocs / {deallocs} deallocs \
         over 200 hits"
    );

    // The same property must hold with tracing enabled: span recording is
    // `Copy`-only writes into a caller-owned fixed array, so an exact hit
    // that produces a full span tree still never touches the allocator.
    let mut spans = SpanSet::new();
    let ((), allocs, deallocs) = counted(|| {
        for _ in 0..100 {
            spans.clear();
            let reply = service
                .handle_traced(&request, Some(&mut spans))
                .expect("traced hit succeeds");
            std::hint::black_box(reply.cost);
            drop(reply);
            spans.clear();
            let reply = service
                .handle_fingerprint_traced(fingerprint, Some(&mut spans))
                .expect("traced fingerprint hit succeeds");
            std::hint::black_box(reply.cost);
            drop(reply);
        }
    });
    assert!(
        !spans.spans().is_empty(),
        "tracing actually recorded spans on the hit path"
    );
    assert_eq!(
        (allocs, deallocs),
        (0, 0),
        "traced exact cache hits touched the allocator: {allocs} allocs / {deallocs} \
         deallocs over 200 traced hits"
    );
}
