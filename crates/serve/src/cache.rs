//! The content-addressed schedule cache.
//!
//! Requests are keyed by the fingerprints of [`bsp_model::fingerprint`]:
//!
//! * an **exact hit** — same [`bsp_model::RequestKey::full`], i.e. same
//!   structure, weights and machine — returns the cached schedule in `O(1)`
//!   with **zero heap allocation** (the entry is handed out as an
//!   [`Arc<BspSchedule>`]; bumping the LRU relinks pre-allocated nodes);
//! * a **warm hit** — same [`bsp_model::RequestKey::structure`] but
//!   different node weights — returns a cached schedule whose *assignment*
//!   is precedence-feasible for the request by construction (feasibility
//!   depends only on the edges), which the service uses to warm-start the
//!   hill-climbing search instead of running the whole pipeline cold.
//!
//! Eviction is strict LRU under a byte budget: inserting a schedule evicts
//! least-recently-used entries until it fits, and an entry larger than the
//! whole budget is simply not cached.  The cache is a plain (non-`Sync`)
//! structure; the service wraps it in a `Mutex`.
//!
//! The cache itself is placement-agnostic: it caches whatever its shard is
//! asked to solve.  The warm alias keyed by the structure fingerprint is
//! what the [`crate::placement`] policy's structure ranges exploit — a
//! structural family on one shard makes the alias fire for every
//! reweighted variant.

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
    /// Lookups that matched nothing at all.
    pub misses: u64,
    /// Lookups that missed exactly, matched structurally, and whose seed was
    /// actually used to warm-start a solve.  Always equals the number of
    /// observations in the service's warm latency histogram.
    pub warm_hits: u64,
    /// Lookups that matched structurally but whose seed was *rejected* by the
    /// warm solver (structural-fingerprint collision or stale seed), so the
    /// request fell back to a cold run.
    pub warm_fallbacks: u64,
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

/// One cached schedule, addressable by both fingerprints.
#[derive(Debug)]
struct Entry {
    full_fp: u128,
    structure_fp: u64,
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
    /// Most recently *inserted* entry per structure fingerprint.
    by_structure: HashMap<u64, usize>,
    /// Live entries per structure fingerprint, so evicting an alias owner
    /// with no surviving sibling (the common case: unique structures) drops
    /// the alias in `O(1)` instead of scanning the LRU list for a survivor.
    structure_counts: HashMap<u64, usize>,
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
            by_structure: HashMap::new(),
            structure_counts: HashMap::new(),
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
    /// front.  Counts a hit or (shared with [`Self::lookup_warm`]) a miss.
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

    /// Structural lookup, used after an exact miss: returns a schedule whose
    /// assignment is feasible for any request with this structure
    /// fingerprint.  Does **not** bump the LRU (the warm path re-inserts its
    /// improved schedule anyway).  Counts a miss when nothing matches; when a
    /// seed is returned the caller reports the outcome with
    /// [`Self::note_warm_hit`] or [`Self::note_warm_fallback`] once it knows
    /// whether the seed actually warm-started the solve — this keeps
    /// `warm_hits` equal to the warm latency histogram's population instead
    /// of silently diverging when a seed is rejected.
    pub fn lookup_warm(&mut self, structure_fp: u64) -> Option<Arc<BspSchedule>> {
        match self.by_structure.get(&structure_fp).copied() {
            Some(idx) => Some(Arc::clone(
                &self.slots[idx].as_ref().expect("indexed entry").schedule,
            )),
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Records that a seed handed out by [`Self::lookup_warm`] warm-started a
    /// solve.
    pub fn note_warm_hit(&mut self) {
        self.stats.warm_hits += 1;
    }

    /// Records that a seed handed out by [`Self::lookup_warm`] was rejected
    /// and the request fell back to a cold run.
    pub fn note_warm_fallback(&mut self) {
        self.stats.warm_fallbacks += 1;
    }

    /// Records a miss without a warm lookup (cache-bypassing requests still
    /// count traffic).
    pub fn note_miss(&mut self) {
        self.stats.misses += 1;
    }

    /// Decrements the live count of `structure_fp` (an entry stopped
    /// carrying it) and, if the alias pointed at `from_idx`, repoints it at
    /// the most-recently-used surviving entry with the structure — or drops
    /// it when none survives.  An *older* same-structure sibling may still
    /// be cached, and warm lookups for the structure must keep finding it.
    /// The count makes the no-survivor case (unique structures, the common
    /// one under churn) `O(1)`; the LRU walk runs only when a sibling is
    /// known to exist, and then stops at the first (most recent) match.
    fn release_structure(&mut self, structure_fp: u64, from_idx: usize) {
        let survivors = {
            let count = self
                .structure_counts
                .get_mut(&structure_fp)
                .expect("released structure is counted");
            *count -= 1;
            *count
        };
        if survivors == 0 {
            self.structure_counts.remove(&structure_fp);
        }
        if self.by_structure.get(&structure_fp) != Some(&from_idx) {
            return;
        }
        if survivors == 0 {
            self.by_structure.remove(&structure_fp);
            return;
        }
        let mut cur = self.head;
        while cur != NIL {
            let e = self.slots[cur].as_ref().expect("linked entry exists");
            if e.structure_fp == structure_fp {
                self.by_structure.insert(structure_fp, cur);
                return;
            }
            cur = e.next;
        }
        unreachable!("structure_counts says a sibling survives");
    }

    fn evict(&mut self, idx: usize) {
        self.unlink(idx);
        let entry = self.slots[idx].take().expect("evicted entry exists");
        self.free.push(idx);
        self.by_full.remove(&entry.full_fp);
        self.release_structure(entry.structure_fp, idx);
        self.stats.bytes_used -= entry.bytes;
        self.stats.entries -= 1;
        self.stats.evictions += 1;
    }

    /// Inserts (or replaces) the schedule for `full_fp`, evicting LRU entries
    /// until the byte budget holds.  Oversized schedules are not cached.
    pub fn insert(
        &mut self,
        full_fp: u128,
        structure_fp: u64,
        schedule: Arc<BspSchedule>,
        cost: u64,
    ) {
        let bytes = schedule_footprint(&schedule);
        if bytes > self.byte_budget {
            return;
        }
        if let Some(&idx) = self.by_full.get(&full_fp) {
            // Replace in place (e.g. the warm path re-solved this exact key).
            let (old_bytes, old_structure) = {
                let e = self.slots[idx].as_mut().expect("indexed entry");
                let old = (e.bytes, e.structure_fp);
                e.schedule = schedule;
                e.cost = cost;
                e.bytes = bytes;
                e.structure_fp = structure_fp;
                old
            };
            self.stats.bytes_used = self.stats.bytes_used - old_bytes + bytes;
            self.unlink(idx);
            self.link_front(idx);
            self.by_structure.insert(structure_fp, idx);
            if old_structure != structure_fp {
                *self.structure_counts.entry(structure_fp).or_insert(0) += 1;
                self.release_structure(old_structure, idx);
            }
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
                structure_fp,
                schedule,
                cost,
                bytes,
                prev: NIL,
                next: NIL,
            });
            self.link_front(idx);
            self.by_full.insert(full_fp, idx);
            self.by_structure.insert(structure_fp, idx);
            *self.structure_counts.entry(structure_fp).or_insert(0) += 1;
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
    pub fn repopulate(
        &mut self,
        full_fp: u128,
        structure_fp: u64,
        schedule: Arc<BspSchedule>,
        cost: u64,
    ) {
        let before = self.stats.insertions;
        self.insert(full_fp, structure_fp, schedule, cost);
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
    /// * `by_structure` points at a live entry with the right structure
    ///   fingerprint, and has an entry for *every* structure fingerprint that
    ///   any live entry carries (warm lookups never miss while a sibling is
    ///   cached);
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
        for (&fp, &idx) in &self.by_structure {
            let e = self.slots.get(idx).and_then(|s| s.as_ref());
            match e {
                Some(e) if e.structure_fp == fp && seen.contains(&idx) => {}
                _ => {
                    return Err(format!(
                        "by_structure[{fp:#x}] -> {idx} is not a live match"
                    ))
                }
            }
        }
        let mut counted: HashMap<u64, usize> = HashMap::new();
        for &idx in &seen {
            let fp = self.slots[idx].as_ref().expect("live slot").structure_fp;
            *counted.entry(fp).or_insert(0) += 1;
            if !self.by_structure.contains_key(&fp) {
                return Err(format!(
                    "live entry in slot {idx} has structure {fp:#x} but no alias serves it"
                ));
            }
        }
        if counted != self.structure_counts {
            return Err(format!(
                "structure_counts {:?} disagree with the live entries {:?}",
                self.structure_counts, counted
            ));
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
        cache.insert(1, 100, Arc::clone(&s), 17);
        let (hit, cost) = cache.lookup_exact(1).expect("inserted entry hits");
        assert!(Arc::ptr_eq(&hit, &s));
        assert_eq!(cost, 17);
        assert!(cache.lookup_exact(2).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.entries, stats.insertions), (1, 1, 1));
    }

    #[test]
    fn warm_lookup_matches_structure_and_counts_misses() {
        let mut cache = ScheduleCache::new(1 << 20);
        cache.insert(1, 100, schedule_of(8), 0);
        // A seed is handed out without counting anything yet: the caller
        // attributes the outcome once the solver accepts or rejects it.
        assert!(cache.lookup_warm(100).is_some());
        assert_eq!((cache.stats().warm_hits, cache.stats().misses), (0, 0));
        cache.note_warm_hit();
        assert!(cache.lookup_warm(100).is_some());
        cache.note_warm_fallback();
        assert!(cache.lookup_warm(101).is_none());
        let stats = cache.stats();
        assert_eq!(
            (stats.warm_hits, stats.warm_fallbacks, stats.misses),
            (1, 1, 1)
        );
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        let per_entry = schedule_footprint(&schedule_of(64));
        let mut cache = ScheduleCache::new(3 * per_entry + per_entry / 2);
        for fp in 0..3u64 {
            cache.insert(u128::from(fp), 100 + fp, schedule_of(64), 0);
        }
        assert_eq!(cache.stats().entries, 3);
        assert!(cache.stats().bytes_used <= cache.byte_budget());
        // Touch 0 so 1 becomes the LRU victim.
        assert!(cache.lookup_exact(0).is_some());
        cache.insert(3, 103, schedule_of(64), 0);
        assert_eq!(cache.stats().entries, 3);
        assert!(cache.stats().bytes_used <= cache.byte_budget());
        assert!(cache.lookup_exact(1).is_none(), "LRU entry 1 evicted");
        assert!(cache.lookup_exact(0).is_some());
        assert!(cache.lookup_exact(2).is_some());
        assert!(cache.lookup_exact(3).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn oversized_schedules_are_not_cached() {
        let mut cache = ScheduleCache::new(16);
        cache.insert(1, 100, schedule_of(1024), 0);
        assert_eq!(cache.stats().entries, 0);
        assert!(cache.lookup_exact(1).is_none());
    }

    #[test]
    fn structural_alias_survives_eviction_of_an_older_sibling() {
        let per_entry = schedule_footprint(&schedule_of(64));
        let mut cache = ScheduleCache::new(2 * per_entry + per_entry / 2);
        // Two entries with the same structure; inserting a third (different
        // structure) evicts the older sibling.
        cache.insert(1, 100, schedule_of(64), 0);
        cache.insert(2, 100, schedule_of(64), 0);
        cache.insert(3, 200, schedule_of(64), 0);
        assert!(cache.lookup_exact(1).is_none(), "oldest entry evicted");
        // The newer structural sibling still answers warm lookups.
        assert!(cache.lookup_warm(100).is_some());
    }

    #[test]
    fn structural_alias_survives_eviction_of_a_newer_sibling() {
        let per_entry = schedule_footprint(&schedule_of(64));
        let mut cache = ScheduleCache::new(2 * per_entry + per_entry / 2);
        // A then B share a structure, so the alias points at B (newer).
        cache.insert(1, 100, schedule_of(64), 0);
        cache.insert(2, 100, schedule_of(64), 0);
        // Touch A so *B* — the alias owner — becomes the LRU victim.
        assert!(cache.lookup_exact(1).is_some());
        cache.insert(3, 200, schedule_of(64), 0);
        assert!(cache.lookup_exact(2).is_none(), "newer sibling evicted");
        assert!(cache.lookup_exact(1).is_some(), "older sibling survives");
        // The surviving older sibling must keep serving warm lookups: the
        // alias is repointed on eviction, not dropped.
        assert!(
            cache.lookup_warm(100).is_some(),
            "warm lookups for structure 100 miss although entry 1 is cached"
        );
        cache.check_invariants().unwrap();
    }

    #[test]
    fn repopulation_fills_the_cache_without_counting_insertions() {
        let mut cache = ScheduleCache::new(1 << 20);
        cache.repopulate(1, 100, schedule_of(8), 17);
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.insertions), (1, 0));
        let (_, cost) = cache.lookup_exact(1).expect("repopulated entry hits");
        assert_eq!(cost, 17);
        assert!(
            cache.lookup_warm(100).is_some(),
            "warm alias is indexed too"
        );
        cache.check_invariants().unwrap();
    }

    #[test]
    fn replacement_updates_bytes_and_keeps_one_entry() {
        let mut cache = ScheduleCache::new(1 << 20);
        cache.insert(1, 100, schedule_of(8), 1);
        let before = cache.stats().bytes_used;
        cache.insert(1, 100, schedule_of(512), 2);
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes_used > before);
        assert_eq!(stats.insertions, 1, "replacement is not a new insertion");
    }
}
