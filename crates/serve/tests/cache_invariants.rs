//! Property test for the [`bsp_serve::ScheduleCache`] invariants under
//! random operation sequences (the repo's proptest idiom: deterministic
//! seeded cases, failure messages naming the case for exact replay).
//!
//! After **every** operation the cache must satisfy
//! [`ScheduleCache::check_invariants`]:
//! * `bytes_used` equals the sum of live entry footprints;
//! * the byte budget is never exceeded;
//! * the LRU list, `by_full` and the free list are mutually consistent.
//!
//! On top of the structural invariants, three behavioural properties: a key
//! that was never inserted never hits, a fitting insert is immediately
//! retrievable (inserts only ever evict *other* entries), and every lookup
//! counts exactly one hit or one miss when misses are noted as the service
//! notes them.

use bsp_model::{Assignment, BspSchedule, Dag};
use bsp_serve::{schedule_footprint, ScheduleCache};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use std::sync::Arc;

fn schedule_of(n: usize) -> Arc<BspSchedule> {
    let dag = Dag::from_edge_list_unit_weights(n, &[]).unwrap();
    Arc::new(BspSchedule::from_assignment_lazy(
        &dag,
        Assignment::trivial(n),
    ))
}

#[test]
fn random_operation_sequences_preserve_every_cache_invariant() {
    const CASES: u64 = 24;
    const OPS: usize = 400;
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(0xCAC4E + case);
        // A budget of a few small entries forces constant eviction; a small
        // key space forces in-place replacements.
        let per_entry = schedule_footprint(&schedule_of(8));
        let budget = per_entry * (2 + (case as usize % 5));
        let mut cache = ScheduleCache::new(budget);
        let mut ever_inserted: HashSet<u128> = HashSet::new();
        let mut lookups = 0u64;
        for op in 0..OPS {
            if rng.gen_range(0u32..100) < 50 {
                // Insert (or replace in place).
                let full = u128::from(rng.gen_range(0u64..24));
                let n = rng.gen_range(1usize..40);
                let schedule = schedule_of(n);
                let fits = schedule_footprint(&schedule) <= budget;
                cache.insert(full, 0, Arc::clone(&schedule), 7);
                if fits {
                    ever_inserted.insert(full);
                    // A fitting insert never evicts itself.
                    lookups += 1;
                    let (hit, cost) = cache
                        .lookup_exact(full)
                        .unwrap_or_else(|| panic!("case {case} op {op}: lost fresh insert"));
                    assert!(Arc::ptr_eq(&hit, &schedule), "case {case} op {op}");
                    assert_eq!(cost, 7, "case {case} op {op}");
                }
            } else {
                // Exact lookup, a miss noted as the service notes it: never
                // hits a key that was never inserted.
                let full = u128::from(rng.gen_range(0u64..32));
                lookups += 1;
                if cache.lookup_exact(full).is_some() {
                    assert!(
                        ever_inserted.contains(&full),
                        "case {case} op {op}: phantom hit for {full:#x}"
                    );
                } else {
                    cache.note_miss();
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
