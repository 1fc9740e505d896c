//! Verifies the headline property of the `bsp_serve` schedule cache: an
//! **exact cache hit performs zero heap allocation on the response path**
//! (fingerprinting, mutex, LRU bump, `Arc` hand-out, latency-histogram
//! update — encoding excluded, which is the wire layer's business).
//!
//! It also bounds what a wire reader may hold: on the protocol fuzz corpus
//! and on frames whose headers declare the largest counts their verbs
//! allow, no reader holds more than 64 bytes of heap per byte it was given,
//! plus 64 KiB — nothing is sized from a count the peer declares.
//!
//! This lives in its own integration-test binary so the counting global
//! allocator ([`bsp_bench::heap`]) only observes this test's thread.

mod common;

use bsp_bench::heap::{counted, held_peak, one_at_a_time, CountingAllocator};
use bsp_model::Machine;
use bsp_serve::{
    RequestOptions, ScheduleRequest, ScheduleService, ScheduleSource, ServiceConfig, SpanSet,
};
use common::protocol_fuzz::{corpus, readers, seeds};
use dag_gen::fine::{spmv, SpmvConfig};

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
    let service = ScheduleService::new(ServiceConfig::default());
    let request = ScheduleRequest {
        id: 1,
        dag,
        machine,
        options: RequestOptions::new(),
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
                .handle_traced(&request, &mut spans)
                .expect("traced hit succeeds");
            std::hint::black_box(reply.cost);
            drop(reply);
            spans.clear();
            let reply = service
                .handle_fingerprint_traced(fingerprint, &mut spans)
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

#[test]
fn wire_readers_hold_heap_in_proportion_to_the_bytes_they_read() {
    let _serial = one_at_a_time();
    // Headers that declare the most lines their verbs allow, and no lines.
    let crafted = [
        "OK 1 cost 0\nPROC\nSTEP\nCOMM 1048576\n",
        "METRICS 1000000\n",
        "SLOW 100000\n",
        "TRACE 1 source cold shard 0 total_us 0 spans 100000\n",
    ];
    let inputs: Vec<Vec<u8>> = seeds()
        .into_iter()
        .map(|(_, seed)| seed.into_bytes())
        .chain(crafted.iter().map(|frame| frame.as_bytes().to_vec()))
        .chain(corpus())
        .collect();
    let readers = readers();
    let (mut worst, mut worst_case) = (0.0f64, String::new());
    for input in &inputs {
        for (name, read) in &readers {
            let (_, peak) = held_peak(|| read(input));
            let bound = 64 * input.len() + (64 << 10);
            let case = format!("{name} on {:?}", String::from_utf8_lossy(input));
            assert!(
                peak <= bound,
                "{case} held {peak} bytes at peak, above {bound}"
            );
            let ratio = peak as f64 / input.len().max(1) as f64;
            if ratio > worst {
                (worst, worst_case) = (ratio, case);
            }
        }
    }
    eprintln!("largest peak per byte read: {worst:.1} ({worst_case})");
}
