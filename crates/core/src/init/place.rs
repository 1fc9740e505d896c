//! Consumer-aware source placement: the pass every initializer's schedule
//! goes through before the local search sees it.
//!
//! `BSPg` scores a ready node by the predecessors it already has on a
//! processor, so a *source* — no predecessors, score 0 — goes to whichever
//! processor is idle, and `Source` places its first layer by its own
//! clustering.  On a funnel DAG ([`crate::funnel`]) the sources are most of
//! the nodes and the communication phase that ships them is the largest
//! single term of the cost, yet single-node `HC` cannot repair it: the
//! superstep is work-balanced to the unit and every move raises a maximum.
//! [`place_sources`] re-places them all at once, each next to the nodes that
//! read it (the rule of the hypergraph model of sparse matrix–vector
//! multiplication: a vector entry lives with the rows that read it).
//!
//! Once the sources sit with their readers, many barriers carry no value at
//! all, and every superstep is charged `ℓ` regardless: [`merge_supersteps`]
//! closes each barrier no value crosses, which no single-node move can do.

use bsp_model::{Assignment, BspSchedule, CommSchedule, Dag, Machine};
use std::cmp::Reverse;

/// Moves the sources of `schedule` to the processors of their consumers and
/// says whether it did; the schedule is left untouched unless the result is
/// strictly cheaper on `machine`.
///
/// Per superstep, a source whose successors all lie in strictly later
/// supersteps is *movable* (any processor keeps the schedule valid).  Each
/// processor's *room* is the superstep's current work maximum minus its
/// non-movable work, so no work term rises.  The movable sources are taken by
/// regret — second-cheapest minus cheapest processor, ties to the smaller
/// node id — and each goes to the processor with room that minimises
/// `c(v) · Σ λ(q, r)` over the other processors `r` hosting a consumer, ties
/// to the processor it is on and then to the smaller index.  `λ` is that of
/// `machine`, the full one: a schedule built on a processor prefix may spill
/// onto a processor its initializer left idle.  A superstep in which some
/// source finds no room (possible with non-unit work weights) keeps its
/// sources where they were.  `Γ` is rebuilt lazily.
///
/// Only in-degree-0 nodes change processor and no node changes superstep; a
/// second application returns `false`.  `O(n + m + S)` plus `O(P · hosts)`
/// per movable source, the sort by regret and a binary search per node; it
/// holds `O(n + |Γ| + S)` bytes plus `O(P)` per movable source, whatever
/// `S · P` is.
pub fn place_sources(dag: &Dag, machine: &Machine, schedule: &mut BspSchedule) -> bool {
    let Some(proc) = placed(dag, machine, schedule) else {
        return false;
    };
    // Keep the result only when it is strictly cheaper than the schedule as
    // it came in, bespoke `Γ` included.
    let before = schedule.cost(dag, machine);
    let old_proc = std::mem::replace(&mut schedule.assignment.proc, proc);
    let lazy = CommSchedule::lazy(dag, &schedule.assignment);
    let old_comm = std::mem::replace(&mut schedule.comm, lazy);
    if schedule.cost(dag, machine) < before {
        return true;
    }
    schedule.assignment.proc = old_proc;
    schedule.comm = old_comm;
    false
}

/// The processors [`place_sources`] gives the nodes of `schedule`, if any
/// source moves.
fn placed(dag: &Dag, machine: &Machine, schedule: &BspSchedule) -> Option<Vec<u16>> {
    let p = machine.p();
    if p < 2 {
        return None;
    }
    // One walk over the successors of every source: is it movable, and
    // what is its regret.  The processor costs are priced again when the
    // source is placed, so no table of them is kept; no consumer is a
    // source, so they stand while sources move.
    let mut prices = Prices::new(p);
    let mut sources: Vec<Movable> = Vec::new();
    for v in 0..dag.n() {
        if !prices.price(dag, machine, schedule, v) {
            continue;
        }
        let (mut cheapest, mut second) = (u64::MAX, u64::MAX);
        for &cost in &prices.cost {
            if cost < cheapest {
                (cheapest, second) = (cost, cheapest);
            } else if cost < second {
                second = cost;
            }
        }
        sources.push(Movable {
            regret: Reverse(second - cheapest),
            node: v as u32,
            from: schedule.assignment.proc[v],
        });
    }
    if sources.is_empty() {
        return None;
    }
    sources.sort_unstable();

    // The supersteps holding a movable source, ascending: `room` and `stuck`
    // have a row for each of them and for no other.
    let mut held: Vec<u32> = sources
        .iter()
        .map(|s| schedule.assignment.superstep[s.node as usize])
        .collect();
    held.sort_unstable();
    held.dedup();
    let held_row = |v: usize| held.binary_search(&schedule.assignment.superstep[v]).ok();

    // room[r·P + q]: the work maximum of the superstep of row `r` minus the
    // non-movable work of processor `q` in it.
    let mut room = vec![0u64; held.len() * p];
    for v in 0..dag.n() {
        if let Some(r) = held_row(v) {
            room[r * p + schedule.proc(v)] += dag.work(v);
        }
    }
    for row in room.chunks_mut(p) {
        let max = row.iter().copied().max().unwrap_or(0);
        row.iter_mut().for_each(|load| *load = max - *load);
    }
    let row_of = |v: usize| held_row(v).expect("a movable source's superstep has a row");
    for source in &sources {
        let v = source.node as usize;
        room[row_of(v) * p + source.from as usize] += dag.work(v);
    }

    // A superstep in which a source found no room keeps all of its own.
    let mut proc = schedule.assignment.proc.clone();
    let mut stuck = vec![false; held.len()];
    for source in &sources {
        let (v, from) = (source.node as usize, source.from as usize);
        let r = row_of(v);
        if stuck[r] {
            continue;
        }
        prices.price(dag, machine, schedule, v);
        let (room, cost) = (&mut room[r * p..][..p], &prices.cost);
        let fits = (0..p).filter(|&q| room[q] >= dag.work(v));
        match fits.min_by_key(|&q| (cost[q], q != from, q)) {
            Some(q) => {
                room[q] -= dag.work(v);
                proc[v] = q as u16;
            }
            None => stuck[r] = true,
        }
    }
    let mut moved = false;
    for source in &sources {
        let v = source.node as usize;
        if stuck[row_of(v)] {
            proc[v] = source.from;
        }
        moved |= proc[v] != source.from;
    }
    moved.then_some(proc)
}

/// Merges adjacent supersteps that no value needs to cross and returns how
/// many supersteps it removed; the assignment is untouched when it returns 0.
///
/// Superstep `b` joins the group of supersteps before it when every
/// predecessor on another processor of a node in `b` lies in an earlier
/// group; otherwise `b` opens a new group.  The groups are renumbered
/// `0, 1, …`, so an empty superstep joins the group before it as
/// [`BspSchedule::normalize`] would remove it.  Processors do not change.
///
/// Every edge between processors still crosses a group boundary, so the
/// assignment stays valid under its lazy `Γ`, which the caller rebuilds when
/// something merged.  Against the lazy `Γ` of the assignment as it came in,
/// the cost falls by at least `ℓ` per removed superstep: a merged work row
/// and the communication phase before a group are sums of old rows, and the
/// maximum of a sum is at most the sum of the maxima.  A second application
/// returns 0.  `O(n + m)`; `assignment` must be valid for `dag`, as the
/// schedule of every scheduler of this crate is.
pub fn merge_supersteps(dag: &Dag, assignment: &mut Assignment) -> usize {
    let steps = assignment.num_supersteps();
    // `group[b]` first holds one more than the latest superstep of a
    // predecessor on another processor of a node in `b` (0 for none), then
    // the group `b` joins.
    let mut group = vec![0u32; steps];
    for v in 0..dag.n() {
        let (q, b) = (assignment.proc[v], assignment.superstep[v] as usize);
        for u in dag.predecessors(v).filter(|&u| assignment.proc[u] != q) {
            group[b] = group[b].max(assignment.superstep[u] + 1);
        }
    }
    let (mut first, mut current) = (0u32, 0u32);
    for (b, slot) in (0u32..).zip(&mut group) {
        if *slot > first {
            (first, current) = (b, current + 1);
        }
        *slot = current;
    }
    let removed = steps.saturating_sub(current as usize + 1);
    if removed > 0 {
        for s in &mut assignment.superstep {
            *s = group[*s as usize];
        }
    }
    removed
}

/// A movable source, ordered by regret (most first), then by node id.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Movable {
    regret: Reverse<u64>,
    node: u32,
    /// The processor it came from.
    from: u16,
}

/// What each processor would cost a source: `c(v) · Σ λ(q, r)` over the
/// other processors `r` hosting a consumer of `v`.
struct Prices {
    /// `cost[q]` for the source last priced.
    cost: Vec<u64>,
    /// The processors hosting a consumer of the source last priced, each
    /// once: `hosted[q]` is the last pricing that found a consumer on `q`,
    /// `pricings` counts them.
    hosts: Vec<usize>,
    hosted: Vec<usize>,
    pricings: usize,
}

impl Prices {
    fn new(p: usize) -> Self {
        Prices {
            cost: vec![0; p],
            hosts: Vec::with_capacity(p),
            hosted: vec![0; p],
            pricings: 0,
        }
    }

    /// Prices every processor for `v` if `v` is a movable source (a source
    /// with a value to send whose consumers all lie in later supersteps)
    /// and says whether it is.
    fn price(&mut self, dag: &Dag, machine: &Machine, schedule: &BspSchedule, v: usize) -> bool {
        if dag.in_degree(v) > 0 || dag.comm(v) == 0 {
            return false;
        }
        self.hosts.clear();
        self.pricings += 1;
        let mut movable = dag.out_degree(v) > 0;
        for w in dag.successors(v) {
            movable &= schedule.superstep(w) > schedule.superstep(v);
            let q = schedule.proc(w);
            if std::mem::replace(&mut self.hosted[q], self.pricings) != self.pricings {
                self.hosts.push(q);
            }
        }
        if movable {
            for (q, cost) in self.cost.iter_mut().enumerate() {
                let others = self.hosts.iter().filter(|&&r| r != q);
                *cost = dag.comm(v) * others.map(|&r| machine.lambda(q, r)).sum::<u64>();
            }
        }
        movable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsp_model::Assignment;

    /// Sources 0–3 feed the consumers 4 and 5, which sit on processors 0
    /// and 1 in superstep 1; `proc` places the sources in superstep 0.
    fn two_consumers(proc: [u16; 4]) -> (Dag, BspSchedule) {
        let edges = [(0, 4), (1, 4), (2, 5), (3, 5)];
        let dag = Dag::from_edges(6, &edges, vec![1; 6], vec![2; 6]).unwrap();
        let assignment = Assignment {
            proc: proc.into_iter().chain([0, 1]).collect(),
            superstep: vec![0, 0, 0, 0, 1, 1],
        };
        let schedule = BspSchedule::from_assignment_lazy(&dag, assignment);
        (dag, schedule)
    }

    #[test]
    fn sources_move_to_their_consumers_within_the_work_maximum() {
        let machine = Machine::uniform(2, 3, 5);
        // Every source on the wrong side: four transfers, none needed.
        let (dag, mut schedule) = two_consumers([1, 1, 0, 0]);
        let before = schedule.cost(&dag, &machine);
        assert!(place_sources(&dag, &machine, &mut schedule));
        assert_eq!(schedule.assignment.proc, [0, 0, 1, 1, 0, 1]);
        assert!(schedule.comm.is_empty());
        assert!(schedule.validate(&dag, &machine).is_ok());
        // One phase of two values each way at g = 3, c = 2.
        assert_eq!(schedule.cost(&dag, &machine), before - 3 * 4);
        assert!(!place_sources(&dag, &machine, &mut schedule));
    }

    #[test]
    fn a_full_processor_takes_no_more_than_the_maximum_allows() {
        let machine = Machine::uniform(2, 3, 5);
        // Superstep 0 holds at most three units a processor; all four
        // sources would like processor 0.
        let edges = [(0, 4), (1, 4), (2, 4), (3, 4)];
        let dag = Dag::from_edges(6, &edges, vec![1; 6], vec![2; 6]).unwrap();
        let assignment = Assignment {
            proc: vec![1, 1, 1, 0, 0, 1],
            superstep: vec![0, 0, 0, 0, 1, 1],
        };
        let mut schedule = BspSchedule::from_assignment_lazy(&dag, assignment);
        assert!(place_sources(&dag, &machine, &mut schedule));
        // Equal regret: the smaller node ids go first and fill the room.
        assert_eq!(schedule.assignment.proc, [0, 0, 0, 1, 0, 1]);
        assert!(schedule.validate(&dag, &machine).is_ok());
    }

    /// Merges `schedule`'s supersteps, rebuilding the lazy `Γ` if any went.
    fn merged(dag: &Dag, schedule: &BspSchedule) -> (usize, BspSchedule) {
        let mut merged = schedule.clone();
        let removed = merge_supersteps(dag, &mut merged.assignment);
        if removed > 0 {
            merged.relax_to_lazy(dag);
        }
        (removed, merged)
    }

    #[test]
    fn placed_sources_free_the_barrier_between_supersteps_0_and_1() {
        let machine = Machine::uniform(2, 3, 5);
        let (dag, mut schedule) = two_consumers([1, 1, 0, 0]);
        // Four values cross the barrier: it stays.
        assert_eq!(merged(&dag, &schedule), (0, schedule.clone()));
        assert!(place_sources(&dag, &machine, &mut schedule));
        let placed = schedule.cost(&dag, &machine);
        // None crosses it now: one superstep, `ℓ` saved and nothing added.
        let (removed, once) = merged(&dag, &schedule);
        assert_eq!(removed, 1);
        assert_eq!(once.assignment.superstep, [0; 6]);
        assert!(once.validate(&dag, &machine).is_ok());
        assert_eq!(once.cost(&dag, &machine), placed - 5);
        assert_eq!(merged(&dag, &once).0, 0);
    }

    #[test]
    fn one_value_across_a_barrier_keeps_it() {
        let machine = Machine::uniform(2, 3, 5);
        // Source 3 on processor 0 feeds node 5 on processor 1: one value
        // crosses between supersteps 0 and 1, the others stay home.
        let (dag, schedule) = two_consumers([0, 0, 1, 0]);
        assert!(schedule.validate(&dag, &machine).is_ok());
        assert_eq!(schedule.comm.len(), 1);
        assert_eq!(merged(&dag, &schedule), (0, schedule));
    }

    #[test]
    fn an_empty_superstep_goes_as_normalize_removes_it() {
        // A chain across processors in supersteps 0, 2, 3: superstep 1 is
        // empty, and each of the others reads a value from the one before.
        let dag = Dag::from_edges(3, &[(0, 1), (1, 2)], vec![1; 3], vec![2; 3]).unwrap();
        let assignment = Assignment {
            proc: vec![0, 1, 0],
            superstep: vec![0, 2, 3],
        };
        let schedule = BspSchedule::from_assignment_lazy(&dag, assignment);
        let mut normalized = schedule.clone();
        assert_eq!(normalized.normalize(&dag), 1);
        assert_eq!(merged(&dag, &schedule), (1, normalized));
    }

    #[test]
    fn a_source_with_a_consumer_in_its_own_superstep_stays() {
        let machine = Machine::uniform(2, 3, 5);
        let dag = Dag::from_edges(3, &[(0, 1), (0, 2)], vec![1; 3], vec![2; 3]).unwrap();
        let assignment = Assignment {
            proc: vec![0, 0, 1],
            superstep: vec![0, 0, 1],
        };
        let mut schedule = BspSchedule::from_assignment_lazy(&dag, assignment);
        let untouched = schedule.clone();
        assert!(!place_sources(&dag, &machine, &mut schedule));
        assert_eq!(schedule, untouched);
    }
}
