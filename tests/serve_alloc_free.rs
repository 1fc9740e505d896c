//! Verifies the headline property of the `bsp_serve` schedule cache: an
//! **exact cache hit performs zero heap allocation on the response path**
//! (fingerprinting, mutex, LRU bump, `Arc` hand-out, span, latency-histogram
//! update — encoding excluded, which is the wire layer's business).  The
//! wire's whole hit path — the traced lookup handing out the packed answer
//! and the response encoded from its words into a reused buffer — allocates
//! nothing either.
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
use std::time::Instant;

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

    let fingerprint = bsp_model::request_key(&request.dag, &request.machine).full;

    // Measured: full-request exact hits and fingerprint-replay hits on the
    // path a server's connection reader takes (key, then the traced lookup),
    // including dropping the replies.  Span recording is `Copy`-only writes
    // into a caller-owned fixed array, so an exact hit that produces a full
    // span tree never touches the allocator.
    let mut spans = SpanSet::new();
    let ((), allocs, deallocs) = counted(|| {
        for _ in 0..100 {
            spans.clear();
            let received = Instant::now();
            let key = bsp_model::request_key(&request.dag, &request.machine);
            let reply = service
                .lookup_traced(key.full, received, true, &mut spans)
                .expect("traced hit succeeds");
            std::hint::black_box(reply.cost);
            drop(reply);
            spans.clear();
            let reply = service
                .lookup_traced(fingerprint, Instant::now(), true, &mut spans)
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

/// A wire hit never unpacks: after one warm-up, full-key and `FP` hits go
/// through `lookup_traced` and `encode_response_parts` into one reused
/// `String` without touching the allocator, as the bytes of a fresh answer.
#[test]
fn wire_hits_encode_from_the_packed_answer_allocation_free() {
    use bsp_serve::protocol::encode_response_parts;

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

    // Populate the cache as a worker does (allocates freely).
    let key = bsp_model::request_key(&request.dag, &request.machine);
    let mut spans = SpanSet::new();
    let received = Instant::now();
    assert!(service
        .lookup_traced(key.full, received, true, &mut spans)
        .is_none());
    let cold = service
        .solve_traced(&request, key, received, &mut spans)
        .expect("cold run succeeds");
    let source = ScheduleSource::CacheExact;
    let mut fresh = String::new();
    encode_response_parts(&mut fresh, 1, cold.cost, source, 0, 0, &*cold.schedule);
    drop(cold);

    let encode_hit = |out: &mut String, spans: &mut SpanSet, fingerprint: u128| {
        out.clear();
        spans.clear();
        let hit = service
            .lookup_traced(fingerprint, Instant::now(), true, spans)
            .expect("wire hit succeeds");
        encode_response_parts(out, 1, hit.cost, hit.source, 0, 0, &*hit.schedule);
    };
    // Warm up the reused buffer once.
    let mut out = String::new();
    encode_hit(&mut out, &mut spans, key.full);
    assert_eq!(
        out, fresh,
        "a cached answer goes out as the fresh one's bytes"
    );

    let fingerprint = key.full;
    let ((), allocs, deallocs) = counted(|| {
        for _ in 0..100 {
            let key = bsp_model::request_key(&request.dag, &request.machine);
            encode_hit(&mut out, &mut spans, key.full);
            std::hint::black_box(out.len());
            encode_hit(&mut out, &mut spans, fingerprint);
            std::hint::black_box(out.len());
        }
    });
    assert_eq!(out, fresh);
    assert_eq!(
        (allocs, deallocs),
        (0, 0),
        "encoded wire hits touched the allocator: {allocs} allocs / {deallocs} deallocs \
         over 200 hits"
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

/// Recovery streams: a restarted service adopts each stored record and
/// drops it before reading the next, so over a store of 240 records in
/// several segments the heap it holds at its peak stays within a small
/// multiple of the largest frame above what it keeps (the cache contents,
/// the store's index, the metrics).  Holding every record at once, as a
/// collecting recovery does, peaks at the whole store above that.
#[test]
fn store_recovery_holds_one_frame_at_a_time() {
    use bsp_bench::heap::held;
    use bsp_model::record::{encode_record, StoreRecord};
    use bsp_model::{request_key, BspSchedule};
    use bsp_serve::{Store, StoreConfig};
    use dag_gen::hyperdag::write_hyperdag;

    let _serial = one_at_a_time();
    const RECORDS: u64 = 240;
    let dir = std::env::temp_dir().join(format!("bsp-alloc-free-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store_config = StoreConfig {
        segment_bytes: 1 << 20,
        ..StoreConfig::at(&dir)
    };
    let machine = Machine::numa_binary_tree(8, 2, 5, 3);
    let (mut largest, mut total) = (0, 0);
    {
        let (store, recovered) = Store::open(store_config.clone()).expect("fresh store");
        assert!(recovered.is_empty());
        for seed in 0..RECORDS {
            let dag = spmv(&SpmvConfig {
                n: 60,
                density: 0.15,
                seed,
            });
            let key = request_key(&dag, &machine);
            let schedule = BspSchedule::trivial(&dag);
            let record = StoreRecord {
                full_fp: key.full,
                structure_fp: key.structure,
                cost: schedule.cost(&dag, &machine),
                machine: machine.clone(),
                dag_bytes: write_hyperdag(&dag).into_bytes(),
                assignment: schedule.assignment,
            };
            let mut frame = Vec::new();
            encode_record(&record, &mut frame).expect("encodes");
            (largest, total) = (largest.max(frame.len()), total + frame.len());
            store.offer(key.full, frame);
        }
        store.flush();
    }
    let segments = std::fs::read_dir(&dir).expect("store dir").count();
    assert!(segments >= 3, "{segments} segments");

    let config = ServiceConfig {
        store: Some(store_config),
        ..Default::default()
    };
    let before = held();
    let (service, peak) = held_peak(|| ScheduleService::new(config));
    let kept = held() - before;
    assert_eq!(service.stats().store.loaded, RECORDS);
    let transient = peak - kept;
    eprintln!(
        "recovery of {RECORDS} records ({total} bytes, largest frame {largest}): \
         peak {peak} bytes, {kept} kept, {transient} above"
    );
    assert!(
        transient <= 8 * largest,
        "recovery held {transient} bytes above what it kept, more than 8 frames of {largest}"
    );
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}
