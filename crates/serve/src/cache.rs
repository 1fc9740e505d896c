//! The content-addressed schedule cache.
//!
//! Requests are keyed by [`bsp_model::RequestKey::full`] — structure,
//! weights and machine.  A hit returns the cached schedule in `O(1)` with
//! **zero heap allocation** (the entry is handed out as an
//! [`Arc<BspSchedule>`]; bumping the LRU relinks pre-allocated nodes).  A
//! request that shares only the structure key (a re-weighted instance) is a
//! miss like any other, and the service solves it cold.
//!
//! Eviction is strict LRU under a byte budget: inserting a schedule evicts
//! least-recently-used entries until it fits, and an entry larger than the
//! whole budget is simply not cached.  The cache is a plain (non-`Sync`)
//! structure; the service wraps it in a `Mutex`.

use bsp_model::BspSchedule;
use std::collections::HashMap;
use std::mem;
use std::sync::Arc;

/// Running counters of cache behaviour (monotonically increasing except
/// `bytes_used`/`entries`, which track the current contents).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Exact-fingerprint hits served.
    pub hits: u64,
    /// Lookups that found nothing ([`ScheduleCache::note_miss`]).
    pub misses: u64,
    /// Schedules inserted.
    pub insertions: u64,
    /// Entries evicted to respect the byte budget.
    pub evictions: u64,
    /// Estimated bytes of currently cached schedules.
    pub bytes_used: usize,
    /// Number of currently cached schedules.
    pub entries: usize,
}

/// Estimated heap footprint of a cached schedule (the quantity the byte
/// budget is enforced against): the `π`, `τ` and `Γ` slices as stored, plus
/// the schedule's own header.
pub fn schedule_footprint(schedule: &BspSchedule) -> usize {
    let assignment = &schedule.assignment;
    mem::size_of_val(assignment.proc.as_slice())
        + mem::size_of_val(assignment.superstep.as_slice())
        + mem::size_of_val(schedule.comm.steps())
        + mem::size_of::<BspSchedule>()
}

/// One cached schedule, addressed by its full fingerprint.
#[derive(Debug)]
struct Entry {
    full_fp: u128,
    schedule: Arc<BspSchedule>,
    /// Cost of `schedule` on its request, memoized so an exact hit can fill
    /// its response header without recomputing (and thus allocating).
    cost: u64,
    bytes: usize,
    /// Intrusive LRU list links (slab indices; `usize::MAX` = none).
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

/// The content-addressed LRU schedule cache (see the module docs).
#[derive(Debug)]
pub struct ScheduleCache {
    byte_budget: usize,
    slots: Vec<Option<Entry>>,
    free: Vec<usize>,
    by_full: HashMap<u128, usize>,
    /// LRU list: head = most recent, tail = eviction candidate.
    head: usize,
    tail: usize,
    stats: CacheStats,
}

impl ScheduleCache {
    /// An empty cache holding at most `byte_budget` bytes of schedules.
    pub fn new(byte_budget: usize) -> Self {
        ScheduleCache {
            byte_budget,
            slots: Vec::new(),
            free: Vec::new(),
            by_full: HashMap::new(),
            head: NIL,
            tail: NIL,
            stats: CacheStats::default(),
        }
    }

    /// The configured byte budget.
    pub fn byte_budget(&self) -> usize {
        self.byte_budget
    }

    /// A snapshot of the running counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = {
            let e = self.slots[idx].as_ref().expect("linked entry exists");
            (e.prev, e.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.slots[p].as_mut().expect("linked entry").next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].as_mut().expect("linked entry").prev = prev,
        }
    }

    fn link_front(&mut self, idx: usize) {
        let old_head = self.head;
        {
            let e = self.slots[idx].as_mut().expect("entry exists");
            e.prev = NIL;
            e.next = old_head;
        }
        if old_head != NIL {
            self.slots[old_head].as_mut().expect("head entry").prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Exact lookup: `O(1)`, allocation-free, bumps the entry to the LRU
    /// front.  Counts a hit; the caller counts a miss with
    /// [`Self::note_miss`].
    pub fn lookup_exact(&mut self, full_fp: u128) -> Option<(Arc<BspSchedule>, u64)> {
        match self.by_full.get(&full_fp).copied() {
            Some(idx) => {
                self.stats.hits += 1;
                self.unlink(idx);
                self.link_front(idx);
                let entry = self.slots[idx].as_ref().expect("indexed entry");
                Some((Arc::clone(&entry.schedule), entry.cost))
            }
            None => None,
        }
    }

    /// Finds nothing and counts nothing: a re-weighted request is a cold
    /// solve.  The frozen `benchmark/` times it; delete with ROADMAP item 1
    /// (benchmark v2).
    #[doc(hidden)]
    pub fn lookup_warm(&self, _structure_fp: u64) -> Option<Arc<BspSchedule>> {
        None
    }

    /// Records a lookup that found nothing: an exact miss before a cold
    /// solve, or an `FP` replay of a key the cache does not hold.  Requests
    /// with the cache off look nothing up and are not counted.
    pub fn note_miss(&mut self) {
        self.stats.misses += 1;
    }

    fn evict(&mut self, idx: usize) {
        self.unlink(idx);
        let entry = self.slots[idx].take().expect("evicted entry exists");
        self.free.push(idx);
        self.by_full.remove(&entry.full_fp);
        self.stats.bytes_used -= entry.bytes;
        self.stats.entries -= 1;
        self.stats.evictions += 1;
    }

    /// Inserts (or replaces) the schedule for `full_fp`, evicting LRU entries
    /// until the byte budget holds.  Oversized schedules are not cached.
    /// `_structure_fp` is ignored: the frozen `benchmark/` passes one; delete
    /// it with ROADMAP item 1 (benchmark v2).
    pub fn insert(
        &mut self,
        full_fp: u128,
        _structure_fp: u64,
        schedule: Arc<BspSchedule>,
        cost: u64,
    ) {
        let bytes = schedule_footprint(&schedule);
        if bytes > self.byte_budget {
            return;
        }
        if let Some(&idx) = self.by_full.get(&full_fp) {
            // Replace in place.
            let old_bytes = {
                let e = self.slots[idx].as_mut().expect("indexed entry");
                e.schedule = schedule;
                e.cost = cost;
                mem::replace(&mut e.bytes, bytes)
            };
            self.stats.bytes_used = self.stats.bytes_used - old_bytes + bytes;
            self.unlink(idx);
            self.link_front(idx);
        } else {
            while self.stats.bytes_used + bytes > self.byte_budget && self.tail != NIL {
                self.evict(self.tail);
            }
            let idx = match self.free.pop() {
                Some(idx) => idx,
                None => {
                    self.slots.push(None);
                    self.slots.len() - 1
                }
            };
            self.slots[idx] = Some(Entry {
                full_fp,
                schedule,
                cost,
                bytes,
                prev: NIL,
                next: NIL,
            });
            self.link_front(idx);
            self.by_full.insert(full_fp, idx);
            self.stats.bytes_used += bytes;
            self.stats.entries += 1;
            self.stats.insertions += 1;
        }
        // Evicting everything else may still be required when a replacement
        // grew: budget enforcement is unconditional.
        while self.stats.bytes_used > self.byte_budget && self.tail != NIL {
            self.evict(self.tail);
        }
    }

    /// Inserts an entry recovered from the durable store at startup.
    /// Identical to [`Self::insert`] except that `insertions` is not
    /// counted: repopulation is not request traffic, and keeping the counter
    /// request-only lets a restart test tell recovered entries
    /// (`store_loaded`) apart from fresh solves (`insertions`).
    pub fn repopulate(&mut self, full_fp: u128, schedule: Arc<BspSchedule>, cost: u64) {
        let before = self.stats.insertions;
        self.insert(full_fp, 0, schedule, cost);
        self.stats.insertions = before;
    }

    /// Checks every structural invariant of the cache, returning a
    /// description of the first violation.  `O(entries)`; meant for tests
    /// (the property suite calls it after every random operation) and
    /// debugging, not for the serving path.
    ///
    /// Invariants checked:
    /// * the LRU list is a consistent doubly linked list over exactly the
    ///   live slots, and `stats.entries` equals its length;
    /// * `stats.bytes_used` equals the sum of live entry footprints and never
    ///   exceeds the byte budget;
    /// * `by_full` is a bijection onto the live slots;
    /// * the free list holds exactly the empty slots.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut seen = std::collections::HashSet::new();
        let mut bytes = 0usize;
        let mut prev = NIL;
        let mut cur = self.head;
        while cur != NIL {
            let e = self.slots[cur]
                .as_ref()
                .ok_or_else(|| format!("LRU list visits empty slot {cur}"))?;
            if e.prev != prev {
                return Err(format!("slot {cur}: prev link {} != {}", e.prev, prev));
            }
            if !seen.insert(cur) {
                return Err(format!("LRU list visits slot {cur} twice"));
            }
            bytes += e.bytes;
            prev = cur;
            cur = e.next;
        }
        if self.tail != prev {
            return Err(format!("tail {} != last visited {}", self.tail, prev));
        }
        if seen.len() != self.stats.entries {
            return Err(format!(
                "LRU list has {} entries, stats say {}",
                seen.len(),
                self.stats.entries
            ));
        }
        if bytes != self.stats.bytes_used {
            return Err(format!(
                "live footprints sum to {bytes} bytes, stats say {}",
                self.stats.bytes_used
            ));
        }
        if self.stats.bytes_used > self.byte_budget {
            return Err(format!(
                "bytes_used {} exceeds the {}-byte budget",
                self.stats.bytes_used, self.byte_budget
            ));
        }
        if self.by_full.len() != seen.len() {
            return Err(format!(
                "by_full has {} keys for {} live entries",
                self.by_full.len(),
                seen.len()
            ));
        }
        for (&fp, &idx) in &self.by_full {
            let e = self.slots.get(idx).and_then(|s| s.as_ref());
            match e {
                Some(e) if e.full_fp == fp && seen.contains(&idx) => {}
                _ => return Err(format!("by_full[{fp:#x}] -> {idx} is not a live match")),
            }
        }
        for &idx in &self.free {
            if self.slots.get(idx).map(Option::is_some) != Some(false) {
                return Err(format!("free list contains live or invalid slot {idx}"));
            }
        }
        if self.free.len() + seen.len() != self.slots.len() {
            return Err(format!(
                "{} free + {} live != {} slots",
                self.free.len(),
                seen.len(),
                self.slots.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsp_model::{Assignment, Dag};

    fn schedule_of(n: usize) -> Arc<BspSchedule> {
        let dag = Dag::from_edge_list_unit_weights(n, &[]).unwrap();
        Arc::new(BspSchedule::from_assignment_lazy(
            &dag,
            Assignment::trivial(n),
        ))
    }

    #[test]
    fn the_footprint_is_four_bytes_a_map_entry_and_sixteen_a_transfer() {
        // A chain split over two processors: every edge is one transfer.
        let n = 10;
        let edges: Vec<(usize, usize)> = (1..n).map(|v| (v - 1, v)).collect();
        let dag = Dag::from_edge_list_unit_weights(n, &edges).unwrap();
        let assignment = Assignment {
            proc: (0..n as u32).map(|v| v % 2).collect(),
            superstep: (0..n as u32).collect(),
        };
        let schedule = BspSchedule::from_assignment_lazy(&dag, assignment);
        let transfers = schedule.comm.len();
        assert_eq!(transfers, n - 1);
        assert_eq!(
            schedule_footprint(&schedule),
            8 * n + 16 * transfers + mem::size_of::<BspSchedule>()
        );
    }

    #[test]
    fn exact_hits_return_the_same_allocation() {
        let mut cache = ScheduleCache::new(1 << 20);
        let s = schedule_of(8);
        cache.insert(1, 0, Arc::clone(&s), 17);
        let (hit, cost) = cache.lookup_exact(1).expect("inserted entry hits");
        assert!(Arc::ptr_eq(&hit, &s));
        assert_eq!(cost, 17);
        assert!(cache.lookup_exact(2).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.entries, stats.insertions), (1, 1, 1));
    }

    #[test]
    fn a_structural_sibling_is_a_miss_the_caller_counts() {
        let mut cache = ScheduleCache::new(1 << 20);
        // Same structure key, different full key: nothing hits, and the
        // lookups themselves count nothing.
        cache.insert(1, 100, schedule_of(8), 0);
        assert!(cache.lookup_exact(2).is_none());
        assert!(cache.lookup_warm(100).is_none());
        assert_eq!((cache.stats().hits, cache.stats().misses), (0, 0));
        cache.note_miss();
        assert_eq!((cache.stats().hits, cache.stats().misses), (0, 1));
        cache.check_invariants().unwrap();
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        let per_entry = schedule_footprint(&schedule_of(64));
        let mut cache = ScheduleCache::new(3 * per_entry + per_entry / 2);
        for fp in 0..3u128 {
            cache.insert(fp, 0, schedule_of(64), 0);
        }
        assert_eq!(cache.stats().entries, 3);
        assert!(cache.stats().bytes_used <= cache.byte_budget());
        // Touch 0 so 1 becomes the LRU victim.
        assert!(cache.lookup_exact(0).is_some());
        cache.insert(3, 0, schedule_of(64), 0);
        assert_eq!(cache.stats().entries, 3);
        assert!(cache.stats().bytes_used <= cache.byte_budget());
        assert!(cache.lookup_exact(1).is_none(), "LRU entry 1 evicted");
        assert!(cache.lookup_exact(0).is_some());
        assert!(cache.lookup_exact(2).is_some());
        assert!(cache.lookup_exact(3).is_some());
        assert_eq!(cache.stats().evictions, 1);
        cache.check_invariants().unwrap();
    }

    #[test]
    fn oversized_schedules_are_not_cached() {
        let mut cache = ScheduleCache::new(16);
        cache.insert(1, 0, schedule_of(1024), 0);
        assert_eq!(cache.stats().entries, 0);
        assert!(cache.lookup_exact(1).is_none());
    }

    #[test]
    fn repopulation_fills_the_cache_without_counting_insertions() {
        let mut cache = ScheduleCache::new(1 << 20);
        cache.repopulate(1, schedule_of(8), 17);
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.insertions), (1, 0));
        let (_, cost) = cache.lookup_exact(1).expect("repopulated entry hits");
        assert_eq!(cost, 17);
        cache.check_invariants().unwrap();
    }

    #[test]
    fn replacement_updates_bytes_and_keeps_one_entry() {
        let mut cache = ScheduleCache::new(1 << 20);
        cache.insert(1, 0, schedule_of(8), 1);
        let before = cache.stats().bytes_used;
        cache.insert(1, 0, schedule_of(512), 2);
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes_used > before);
        assert_eq!(stats.insertions, 1, "replacement is not a new insertion");
    }
}
