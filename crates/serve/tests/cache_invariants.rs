//! Property tests for the [`bsp_serve::ScheduleCache`] and its packed
//! entries (the repo's proptest idiom: deterministic seeded cases, failure
//! messages naming the case for exact replay).
//!
//! After **every** random operation the cache must satisfy
//! [`ScheduleCache::check_invariants`]:
//! * each entry is charged its packed footprint, and `bytes_used` equals the
//!   sum of those charges;
//! * the byte budget is never exceeded;
//! * the LRU list, `by_full` and the free list are mutually consistent.
//!
//! On top of the structural invariants, four behavioural properties: a hit
//! unpacks to the schedule last inserted under its key (so a key that was
//! never inserted never hits), a fitting insert is
//! immediately retrievable (inserts only ever evict *other* entries), and
//! every lookup counts exactly one hit or one miss when misses are noted as
//! the service notes them.
//!
//! The packing itself is held to the schedule it packs on random schedules
//! at the edges of every field: the packed view equals the schedule, and
//! both encode to the same wire bytes.

use bsp_model::{Assignment, BspSchedule, CommSchedule, CommStep};
use bsp_serve::protocol::encode_response_parts;
use bsp_serve::{schedule_footprint, CachedAnswer, ScheduleCache, ScheduleSource, ScheduleView};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::sync::Arc;

/// A random schedule of `n` nodes: processors below `procs`, supersteps
/// below `steps`, and `transfers` random `Γ` rows whose nodes lie below
/// `nodes`.  Not a valid schedule of any DAG: packing reads fields, not
/// rules.  Each maximum is drawn once, so the widths are the bounds'.
fn random_schedule(
    rng: &mut ChaCha8Rng,
    n: usize,
    procs: u32,
    steps: u64,
    transfers: usize,
    nodes: u64,
) -> BspSchedule {
    let proc = |rng: &mut ChaCha8Rng, i: usize| match i {
        0 => (procs - 1) as u16,
        _ => rng.gen_range(0..procs) as u16,
    };
    let step = |rng: &mut ChaCha8Rng, i: usize| match i {
        0 => (steps - 1) as u32,
        _ => rng.gen_range(0..steps) as u32,
    };
    let assignment = Assignment {
        proc: (0..n).map(|v| proc(rng, v)).collect(),
        superstep: (0..n).map(|v| step(rng, v)).collect(),
    };
    let comm = (0..transfers)
        .map(|i| CommStep {
            node: if i == 0 {
                nodes - 1
            } else {
                rng.gen_range(0..nodes)
            } as u32,
            from: proc(rng, i),
            to: proc(rng, i + 1),
            step: step(rng, i),
        })
        .collect();
    BspSchedule {
        assignment,
        comm: CommSchedule::from_steps(comm),
    }
}

fn encoded(schedule: &impl ScheduleView) -> String {
    let mut out = String::new();
    encode_response_parts(
        &mut out,
        7,
        11,
        ScheduleSource::CacheExact,
        3,
        0xbeef,
        schedule,
    );
    out
}

#[test]
fn packed_answers_read_back_and_encode_as_their_schedules() {
    // Widths from 0 to 16 bits a processor and 0 to 32 a superstep or a
    // node.  A 3-bit processor field straddles a word from node 21 on, and
    // 17-bit supersteps do within every 4 nodes.
    let procs = [1, 2, 3, 8, 512, u32::from(u16::MAX)];
    let steps = [1, 2, 3, 1 << 17, 1 << 31, 1 << 32];
    let sizes = [0, 1, 2, 21, 22, 63, 64, 65, 127, 128, 129, 300];
    let mut rng = ChaCha8Rng::seed_from_u64(0x9ac4ed);
    let mut cases = 0;
    for &p in &procs {
        for &s in &steps {
            for &n in &sizes {
                let transfers = [0, 1, rng.gen_range(2..100)][cases % 3];
                let nodes = [n.max(1) as u64, 1 << 32][cases % 2];
                let schedule = random_schedule(&mut rng, n, p, s, transfers, nodes);
                let case = format!("P {p}, S {s}, n {n}, |Γ| {}", schedule.comm.len());
                let answer = CachedAnswer::pack(&schedule);
                assert_eq!(answer.to_schedule(), schedule, "{case}");
                assert_eq!(answer.footprint(), schedule_footprint(&schedule), "{case}");
                assert_eq!(encoded(&answer), encoded(&schedule), "{case}");
                cases += 1;
            }
        }
    }
    assert_eq!(cases, procs.len() * steps.len() * sizes.len());
}

#[test]
fn random_operation_sequences_preserve_every_cache_invariant() {
    const CASES: u64 = 24;
    const OPS: usize = 400;
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(0xCAC4E + case);
        let schedule_of = |rng: &mut ChaCha8Rng| {
            let n = rng.gen_range(1usize..40);
            let procs = [1, 2, 3, 8][rng.gen_range(0..4)];
            let transfers = rng.gen_range(0..2 * n);
            Arc::new(random_schedule(
                rng, n, procs, n as u64, transfers, n as u64,
            ))
        };
        // A budget of a few entries forces constant eviction; a small key
        // space forces in-place replacements.
        let per_entry = schedule_footprint(&schedule_of(&mut rng));
        let budget = per_entry * [2, 3, 5, 8, 16][case as usize % 5];
        let mut cache = ScheduleCache::new(budget);
        let mut inserted: HashMap<u128, Arc<BspSchedule>> = HashMap::new();
        let mut lookups = 0u64;
        for op in 0..OPS {
            match rng.gen_range(0u32..100) {
                0..=49 => {
                    let full = u128::from(rng.gen_range(0u64..24));
                    // Insert (or replace in place), packed here or by the
                    // caller as a solve packs it.
                    let schedule = schedule_of(&mut rng);
                    let fits = schedule_footprint(&schedule) <= budget;
                    if rng.gen_bool(0.5) {
                        cache.insert(full, 0, Arc::clone(&schedule), 7);
                    } else {
                        cache.insert_packed(full, CachedAnswer::pack(&schedule), 7);
                    }
                    if fits {
                        // A fitting insert never evicts itself.
                        lookups += 1;
                        let (hit, cost) = cache
                            .lookup_exact(full)
                            .unwrap_or_else(|| panic!("case {case} op {op}: lost fresh insert"));
                        assert_eq!(hit.to_schedule(), *schedule, "case {case} op {op}");
                        assert_eq!(cost, 7, "case {case} op {op}");
                        inserted.insert(full, schedule);
                    }
                }
                _ => {
                    // A lookup, a miss noted as the service notes it: a hit
                    // is what was last inserted, and a key past the
                    // inserted range never hits.
                    let full = u128::from(rng.gen_range(0u64..32));
                    lookups += 1;
                    match cache.lookup_exact(full) {
                        Some((hit, _)) => {
                            let phantom =
                                || panic!("case {case} op {op}: phantom hit for {full:#x}");
                            let expected = inserted.get(&full).unwrap_or_else(phantom);
                            assert_eq!(hit.to_schedule(), **expected, "case {case} op {op}");
                        }
                        None => cache.note_miss(),
                    }
                }
            }
            if let Err(violation) = cache.check_invariants() {
                panic!("case {case} op {op}: {violation}");
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, lookups, "case {case}");
        assert!(stats.insertions > 0, "case {case} inserted nothing");
    }
}
