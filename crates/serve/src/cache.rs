//! The content-addressed schedule cache.
//!
//! Requests are keyed by [`bsp_model::RequestKey::full`] — structure,
//! weights and machine.  A request that shares only the structure key (a
//! re-weighted instance) is a miss like any other, and the service solves
//! it cold.
//!
//! An entry is a [`CachedAnswer`]: the schedule bit-packed, each field of
//! `π`, `τ` and `Γ` as wide as the answer's largest processor, superstep or
//! transferred node needs, in one `Box<[u64]>` (fixed-width bit packing; on
//! the benchmark's serve mix about a byte a node, against six unpacked).  A
//! hit hands out the entry's `Arc` in `O(1)` with **zero heap allocation**
//! (bumping the LRU relinks pre-allocated nodes), and the wire encodes the
//! response straight from the packed words
//! ([`crate::protocol::ScheduleView`]).  The packed words are the entry's
//! only form: an in-process caller that wants a [`BspSchedule`] unpacks the
//! answer ([`CachedAnswer::to_schedule`]), and an entry is charged its packed
//! footprint alone.
//!
//! Eviction is strict LRU under a byte budget: inserting a schedule evicts
//! least-recently-used entries until it fits, and an entry larger than the
//! whole budget is simply not cached.  The cache is a plain (non-`Sync`)
//! structure; the service wraps it in a `Mutex`.

use crate::protocol::ScheduleView;
use bsp_model::{Assignment, BspSchedule, CommSchedule, CommStep};
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

/// The bytes the byte budget charges for caching `schedule`: its packed
/// words and the [`CachedAnswer`] header in its `Arc` (what
/// [`ScheduleCache::insert`] stores, computed without packing).
pub fn schedule_footprint(schedule: &BspSchedule) -> usize {
    let layout = Layout::of(schedule);
    packed_bytes(layout.words(schedule.assignment.n(), schedule.comm.len()))
}

/// The charge of an entry of `words` packed words.
fn packed_bytes(words: usize) -> usize {
    8 * words + mem::size_of::<CachedAnswer>() + ARC_COUNTS
}

/// The strong and weak counts an `Arc` allocates before its value.
const ARC_COUNTS: usize = 2 * mem::size_of::<usize>();

/// The field widths of one packed answer, in bits: a processor (`π` and a
/// transfer's ends), a superstep (`τ` and a transfer's step) and a
/// transferred node.  A width is the bit length of the largest value the
/// field holds, so a field that only ever holds 0 takes no bits.
#[derive(Debug, Clone, Copy)]
struct Layout {
    proc: u32,
    step: u32,
    node: u32,
}

impl Layout {
    /// The narrowest widths that hold every field of `schedule`.  The bit
    /// length of a maximum is that of the OR of all values.
    fn of(schedule: &BspSchedule) -> Self {
        let assignment = &schedule.assignment;
        let (mut proc, mut step, mut node) = (0u32, 0u32, 0u32);
        for &q in &assignment.proc {
            proc |= u32::from(q);
        }
        for &s in &assignment.superstep {
            step |= s;
        }
        for cs in schedule.comm.steps() {
            proc |= u32::from(cs.from | cs.to);
            step |= cs.step;
            node |= cs.node;
        }
        let bits = |x: u32| u32::BITS - x.leading_zeros();
        Layout {
            proc: bits(proc),
            step: bits(step),
            node: bits(node),
        }
    }

    /// Bits of one `Γ` row `(node, from, to, step)`.
    fn row(self) -> usize {
        (self.node + 2 * self.proc + self.step) as usize
    }

    /// Words holding `n` nodes' `π` and `τ` and `transfers` rows of `Γ`.
    fn words(self, n: usize, transfers: usize) -> usize {
        let bits = n * (self.proc + self.step) as usize + transfers * self.row();
        bits.div_ceil(64)
    }
}

/// A cached answer, bit-packed: `π(0..n)`, then `τ(0..n)`, then the `Γ`
/// rows `(node, from, to, step)` in their sorted order, each field as wide
/// as the answer's largest value of its kind needs, least significant bit
/// first, free to straddle two words.  Read it through [`ScheduleView`]
/// (the wire encodes from it directly) or rebuild the schedule with
/// [`CachedAnswer::to_schedule`].
#[derive(Debug, Clone)]
pub struct CachedAnswer {
    words: Box<[u64]>,
    nodes: usize,
    transfers: usize,
    /// [`BspSchedule::num_supersteps`] of the packed schedule.
    supersteps: usize,
    layout: Layout,
}

impl CachedAnswer {
    /// Packs `schedule`.
    pub fn pack(schedule: &BspSchedule) -> Self {
        let layout = Layout::of(schedule);
        let assignment = &schedule.assignment;
        let (nodes, steps) = (assignment.n(), schedule.comm.steps());
        let mut words = vec![0u64; layout.words(nodes, steps.len())].into_boxed_slice();
        let mut at = 0;
        let mut put = |x: u64, width: u32| {
            put_field(&mut words, at, width, x);
            at += width as usize;
        };
        for &q in &assignment.proc {
            put(u64::from(q), layout.proc);
        }
        for &s in &assignment.superstep {
            put(u64::from(s), layout.step);
        }
        for cs in steps {
            put(u64::from(cs.node), layout.node);
            put(u64::from(cs.from), layout.proc);
            put(u64::from(cs.to), layout.proc);
            put(u64::from(cs.step), layout.step);
        }
        CachedAnswer {
            words,
            nodes,
            transfers: steps.len(),
            supersteps: schedule.num_supersteps(),
            layout,
        }
    }

    /// The schedule this answer packs, rebuilt.
    pub fn to_schedule(&self) -> BspSchedule {
        let assignment = Assignment {
            proc: (0..self.nodes).map(|v| self.proc_of(v)).collect(),
            superstep: (0..self.nodes).map(|v| self.step_of(v)).collect(),
        };
        let steps = (0..self.transfers).map(|i| self.transfer(i)).collect();
        BspSchedule {
            assignment,
            comm: CommSchedule::from_steps(steps),
        }
    }

    /// The bytes the byte budget charges for this answer.
    pub fn footprint(&self) -> usize {
        packed_bytes(self.words.len())
    }

    /// The `width`-bit field at bit `at`.
    #[inline]
    fn field(&self, at: usize, width: u32) -> u64 {
        if width == 0 {
            return 0;
        }
        let (word, shift) = (at / 64, (at % 64) as u32);
        let mut x = self.words[word] >> shift;
        if shift + width > 64 {
            // `width` ≤ 32, so `shift` > 32 here and neither shift reaches 64.
            x |= self.words[word + 1] << (64 - shift);
        }
        x & ((1 << width) - 1)
    }
}

/// ORs the `width`-bit value `x` into `words` at bit `at`.
fn put_field(words: &mut [u64], at: usize, width: u32, x: u64) {
    debug_assert!(
        width <= 32 && x >> width == 0,
        "{x} does not fit {width} bits"
    );
    if width == 0 {
        return;
    }
    let (word, shift) = (at / 64, (at % 64) as u32);
    words[word] |= x << shift;
    if shift + width > 64 {
        words[word + 1] |= x >> (64 - shift);
    }
}

impl ScheduleView for CachedAnswer {
    fn supersteps(&self) -> usize {
        self.supersteps
    }

    fn nodes(&self) -> usize {
        self.nodes
    }

    #[inline]
    fn proc_of(&self, v: usize) -> u16 {
        assert!(v < self.nodes, "node {v} of {}", self.nodes);
        let width = self.layout.proc;
        self.field(v * width as usize, width) as u16
    }

    #[inline]
    fn step_of(&self, v: usize) -> u32 {
        assert!(v < self.nodes, "node {v} of {}", self.nodes);
        let width = self.layout.step;
        let base = self.nodes * self.layout.proc as usize;
        self.field(base + v * width as usize, width) as u32
    }

    fn transfers(&self) -> usize {
        self.transfers
    }

    #[inline]
    fn transfer(&self, i: usize) -> CommStep {
        assert!(i < self.transfers, "transfer {i} of {}", self.transfers);
        let Layout { proc, step, node } = self.layout;
        let base = self.nodes * (proc + step) as usize;
        let at = base + i * self.layout.row();
        let (from_at, to_at) = (at + node as usize, at + (node + proc) as usize);
        CommStep {
            node: self.field(at, node) as u32,
            from: self.field(from_at, proc) as u16,
            to: self.field(to_at, proc) as u16,
            step: self.field(at + (node + 2 * proc) as usize, step) as u32,
        }
    }
}

/// One cached answer, addressed by its full fingerprint.
#[derive(Debug)]
struct Entry {
    full_fp: u128,
    answer: Arc<CachedAnswer>,
    /// Cost of the answer on its request, memoized so an exact hit can fill
    /// its response header without recomputing (and thus allocating).
    cost: u64,
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

    /// Exact lookup: the packed answer and its cost.  `O(1)`,
    /// allocation-free, bumps the entry to the LRU front.  Counts a hit; the
    /// caller counts a miss with [`Self::note_miss`].
    pub fn lookup_exact(&mut self, full_fp: u128) -> Option<(Arc<CachedAnswer>, u64)> {
        let idx = self.by_full.get(&full_fp).copied()?;
        self.stats.hits += 1;
        self.unlink(idx);
        self.link_front(idx);
        let entry = self.slots[idx].as_ref().expect("indexed entry");
        Some((Arc::clone(&entry.answer), entry.cost))
    }

    /// Finds nothing and counts nothing: a re-weighted request is a cold
    /// solve.  The frozen `benchmark/` times it; delete with ROADMAP item 1
    /// (benchmark v2).
    #[doc(hidden)]
    pub fn lookup_warm(&self, _structure_fp: u64) -> Option<Arc<BspSchedule>> {
        None
    }

    /// Records a lookup that found nothing: an exact miss before a cold
    /// solve, or an `FP` replay of a key the cache does not hold.  A caller
    /// notes a miss once it is final, so each request counts one hit or one
    /// miss.
    pub fn note_miss(&mut self) {
        self.stats.misses += 1;
    }

    fn evict(&mut self, idx: usize) {
        self.unlink(idx);
        let entry = self.slots[idx].take().expect("evicted entry exists");
        self.free.push(idx);
        self.by_full.remove(&entry.full_fp);
        self.stats.bytes_used -= entry.answer.footprint();
        self.stats.entries -= 1;
        self.stats.evictions += 1;
    }

    /// Packs and inserts (or replaces) the schedule for `full_fp`, evicting
    /// LRU entries until the byte budget holds; the `Arc` itself is not
    /// kept.  Oversized schedules are not cached.  `_structure_fp` is
    /// ignored: the frozen `benchmark/` passes one; delete it with ROADMAP
    /// item 1 (benchmark v2).
    pub fn insert(
        &mut self,
        full_fp: u128,
        _structure_fp: u64,
        schedule: Arc<BspSchedule>,
        cost: u64,
    ) {
        self.insert_packed(full_fp, CachedAnswer::pack(&schedule), cost);
    }

    /// [`Self::insert`] of an answer packed beforehand, so a caller can pack
    /// outside its lock.
    pub fn insert_packed(&mut self, full_fp: u128, answer: CachedAnswer, cost: u64) {
        let bytes = answer.footprint();
        if bytes > self.byte_budget {
            return;
        }
        let entry = Entry {
            full_fp,
            answer: Arc::new(answer),
            cost,
            prev: NIL,
            next: NIL,
        };
        self.stats.bytes_used += bytes;
        if let Some(&idx) = self.by_full.get(&full_fp) {
            // Replace in place.
            self.unlink(idx);
            let old = self.slots[idx].replace(entry).expect("indexed entry");
            self.stats.bytes_used -= old.answer.footprint();
            self.link_front(idx);
        } else {
            let idx = match self.free.pop() {
                Some(idx) => idx,
                None => {
                    self.slots.push(None);
                    self.slots.len() - 1
                }
            };
            self.slots[idx] = Some(entry);
            self.link_front(idx);
            self.by_full.insert(full_fp, idx);
            self.stats.entries += 1;
            self.stats.insertions += 1;
        }
        // The entry, at the LRU front, fits alone: only others go.
        while self.stats.bytes_used > self.byte_budget {
            self.evict(self.tail);
        }
    }

    /// Inserts an entry recovered from the durable store at startup.
    /// Identical to [`Self::insert`] except that `insertions` is not
    /// counted: repopulation is not request traffic, and keeping the counter
    /// request-only lets a restart test tell recovered entries
    /// (`store_loaded`) apart from fresh solves (`insertions`).
    pub fn repopulate(&mut self, full_fp: u128, schedule: &BspSchedule, cost: u64) {
        let before = self.stats.insertions;
        self.insert_packed(full_fp, CachedAnswer::pack(schedule), cost);
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
    /// * `stats.bytes_used` equals the sum of the live entries' packed
    ///   footprints and never exceeds the byte budget;
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
            bytes += e.answer.footprint();
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

    /// A chain split over two processors: every edge is one transfer.
    fn split_chain(n: usize) -> BspSchedule {
        let edges: Vec<(usize, usize)> = (1..n).map(|v| (v - 1, v)).collect();
        let dag = Dag::from_edge_list_unit_weights(n, &edges).unwrap();
        let assignment = Assignment {
            proc: (0..n as u16).map(|v| v % 2).collect(),
            superstep: (0..n as u32).collect(),
        };
        BspSchedule::from_assignment_lazy(&dag, assignment)
    }

    #[test]
    fn the_footprint_is_the_packed_words_and_one_header() {
        let n = 10;
        let schedule = split_chain(n);
        let transfers = schedule.comm.len();
        assert_eq!(transfers, n - 1);
        // One bit a processor, four a superstep (τ ≤ 9, Γ's steps ≤ 8), four
        // a transferred node (≤ 8): 5 bits a node, 10 a transfer.
        let layout = Layout::of(&schedule);
        assert_eq!((layout.proc, layout.step, layout.node), (1, 4, 4));
        let words = (5 * n + 10 * transfers).div_ceil(64);
        let footprint = schedule_footprint(&schedule);
        assert_eq!(
            footprint,
            8 * words + mem::size_of::<CachedAnswer>() + ARC_COUNTS
        );
        assert_eq!(CachedAnswer::pack(&schedule).footprint(), footprint);
    }

    #[test]
    fn a_packed_answer_reads_back_its_schedule() {
        for schedule in [split_chain(10), split_chain(1), (*schedule_of(0)).clone()] {
            let answer = CachedAnswer::pack(&schedule);
            assert_eq!(answer.to_schedule(), schedule);
            assert_eq!(answer.supersteps(), schedule.num_supersteps());
        }
    }

    #[test]
    fn exact_hits_share_the_packed_answer() {
        let mut cache = ScheduleCache::new(1 << 20);
        let s = Arc::new(split_chain(8));
        cache.insert(1, 0, Arc::clone(&s), 17);
        let (hit, cost) = cache.lookup_exact(1).expect("inserted entry hits");
        let (again, _) = cache.lookup_exact(1).expect("inserted entry hits");
        assert!(Arc::ptr_eq(&hit, &again));
        assert_eq!(hit.to_schedule(), *s);
        assert_eq!(cost, 17);
        assert!(cache.lookup_exact(2).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.entries, stats.insertions), (2, 1, 1));
        assert_eq!(stats.bytes_used, schedule_footprint(&s));
        cache.check_invariants().unwrap();
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
        cache.repopulate(1, &schedule_of(8), 17);
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.insertions), (1, 0));
        let (_, cost) = cache.lookup_exact(1).expect("repopulated entry hits");
        assert_eq!(cost, 17);
        cache.check_invariants().unwrap();
    }

    #[test]
    fn replacement_updates_bytes_and_keeps_one_entry() {
        let mut cache = ScheduleCache::new(1 << 20);
        cache.insert(1, 0, Arc::new(split_chain(8)), 1);
        let before = cache.stats().bytes_used;
        cache.insert(1, 0, Arc::new(split_chain(512)), 2);
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes_used > before);
        assert_eq!(stats.insertions, 1, "replacement is not a new insertion");
        cache.check_invariants().unwrap();
    }
}
