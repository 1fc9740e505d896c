//! The relocation block move: a heavy serial superstep moves whole, then `HC`
//! climbs again.
//!
//! `HC` moves one node at a time, and on coarse kernels its local minima
//! leave supersteps whose work sits on one processor while every other
//! processor idles in them (`bicgstab`: 4.8k–10.5k nodes of work on one
//! processor, no single-node move downhill).  Very-large-neighbourhood
//! search (Ahuja, Ergun, Orlin & Punnen 2002) and iterated local search
//! (Lourenço, Martin & Stützle 2003) name the remedy: one larger move, then
//! the small search again.
//!
//! A *heavy serial superstep* has work on exactly one processor `x`, and more
//! of it than `W / P` (`W` the DAG's total work, the work term of
//! [`Dag::lower_bound`]).  [`relocate_improve`] moves such a cell `(s, x)`
//! whole onto one idle processor per `λ`-class of `x` — the lowest-indexed
//! processor without a node in `s` for each distinct `λ(x, q)`, the nearest
//! class first, then the heavier cell — with [`HcState::relocate`], climbs
//! with `HC` from the moved nodes, their neighbours and the nodes on `x` and
//! the target either side of `s` (without verification sweeps: the seeds and
//! what the climb's moves dirty, no full pass over the DAG), merges, and
//! keeps the result only when it is strictly cheaper; otherwise
//! [`HcState::rollback`] returns to the state before the candidate.  A kept
//! candidate starts the next pass over the new schedule's cells; the phase
//! ends when a pass keeps nothing, after [`RELOCATION_CANDIDATES`]
//! candidates or [`RELOCATION_VISITS_PER_NODE`]` · n` climb visits, or when
//! the search's token fires — never on the clock, so a run repeats.
//!
//! The relocation is always precedence-valid and leaves every work term as
//! it was: it is pure communication restructuring, which single-node moves
//! cannot reach.  Light serial supersteps (`cg`'s dot products) are left
//! alone: relocating every serial superstep also lowers the `cg` rows (the
//! benchmark's `flat_hc` by 0.13 %, `ml_fine` by 0.17 %, the serve workloads
//! by 0.14–0.19 %) for about a tenth more solve time (README, *Heavy serial
//! supersteps: what relocation bought*).

use super::{hc_descend, HcState, HillClimbConfig, SearchScratch};
use crate::init::merge_supersteps;
use bsp_model::{Assignment, BspSchedule, CommSchedule, Dag, Machine};

/// The most candidates one phase evaluates.
pub const RELOCATION_CANDIDATES: usize = 64;

/// The most search visits one phase spends, per node of the DAG: the
/// climbs stop being started once they have visited this many nodes in
/// all, so the phase costs a few `HC` sweeps whatever the candidate count.
pub const RELOCATION_VISITS_PER_NODE: u64 = 2;

/// What [`relocate_improve`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RelocateOutcome {
    /// Candidates evaluated: relocate, climb, merge, cost.
    pub evaluated: usize,
    /// Of those, the ones kept, each strictly cheaper than the one before.
    pub kept: usize,
    /// Node visits the climbs made, in all.
    pub visits: u64,
    /// Cost of the schedule the phase returned; never above the cost it was
    /// given.
    pub final_cost: u64,
}

/// The candidates of one pass, in the order they are tried: nearest class
/// first — every heavy serial cell `(s, x)` with the lowest idle `y` of each
/// `λ(x, y)`, ordered by `λ(x, y)`, then the heavier cell, then the earlier
/// superstep.  A cell holding every node of the DAG is left out: moving it
/// relabels the schedule.  `O(n + S + h · P)` for `h` heavy cells.
fn candidates(dag: &Dag, machine: &Machine, assignment: &Assignment) -> Vec<(usize, usize, usize)> {
    const MIXED: u32 = u32::MAX;
    let p = machine.p();
    // Per superstep: the one processor with work (`MIXED` when two have
    // some, `None` when none has), that work and the superstep's nodes.
    let mut sole: Vec<(Option<u32>, u64, usize)> = vec![(None, 0, 0); assignment.num_supersteps()];
    for v in 0..dag.n() {
        let (q, s) = (assignment.proc[v], assignment.superstep[v] as usize);
        let (worker, work, nodes) = &mut sole[s];
        *nodes += 1;
        let w = dag.work(v);
        if w > 0 {
            *worker = match *worker {
                Some(x) if x != q => Some(MIXED),
                _ => Some(q),
            };
            *work += w;
        }
    }
    let total = dag.total_work() as u128;
    let heavy = |&(worker, work, nodes): &(Option<u32>, u64, usize)| match worker {
        Some(x) if x != MIXED && work as u128 * p as u128 > total && nodes < dag.n() => {
            Some((x as usize, work))
        }
        _ => None,
    };
    let cells: Vec<(usize, usize, u64)> = (sole.iter().enumerate())
        .filter_map(|(s, row)| heavy(row).map(|(x, work)| (s, x, work)))
        .collect();
    if cells.is_empty() {
        return Vec::new();
    }
    // Which processors hold a node of each heavy superstep.
    let mut row = vec![usize::MAX; sole.len()];
    for (i, &(s, _, _)) in cells.iter().enumerate() {
        row[s] = i;
    }
    let mut occupied = vec![false; cells.len() * p];
    for v in 0..dag.n() {
        let i = row[assignment.superstep[v] as usize];
        if i != usize::MAX {
            occupied[i * p + assignment.proc[v] as usize] = true;
        }
    }
    let mut list: Vec<(u64, std::cmp::Reverse<u64>, usize, usize, usize)> = Vec::new();
    for (i, &(s, x, work)) in cells.iter().enumerate() {
        let mut targets: Vec<(u64, usize)> = (0..p)
            .filter(|&q| !occupied[i * p + q])
            .map(|q| (machine.lambda(x, q), q))
            .collect();
        // Ascending `λ`, then index: the first of each class is its lowest.
        targets.sort_unstable();
        targets.dedup_by_key(|&mut (lambda, _)| lambda);
        let work = std::cmp::Reverse(work);
        list.extend(
            targets
                .into_iter()
                .map(|(lambda, y)| (lambda, work, s, x, y)),
        );
    }
    list.sort_unstable();
    list.into_iter().map(|(_, _, s, x, y)| (s, x, y)).collect()
}

/// The relocation phase (module docs) on `schedule`, a valid schedule of
/// cost `cost` that `merge_supersteps` leaves alone.  Each climb runs under
/// `config`; the phase stops after [`RELOCATION_CANDIDATES`] candidates or
/// [`RELOCATION_VISITS_PER_NODE`]` · n` climb visits, and polls
/// `config.cancel` before every candidate.  A kept candidate replaces the
/// schedule (merged, lazy `Γ`); otherwise it is left as it was given.
pub fn relocate_improve(
    dag: &Dag,
    machine: &Machine,
    schedule: &mut BspSchedule,
    cost: u64,
    config: &HillClimbConfig,
) -> RelocateOutcome {
    let mut outcome = RelocateOutcome {
        final_cost: cost,
        ..RelocateOutcome::default()
    };
    let mut list = candidates(dag, machine, &schedule.assignment);
    if list.is_empty() {
        return outcome;
    }
    // The state holds the one copy of the assignment while the phase runs:
    // a rolled-back candidate leaves it exactly as it was.
    let assignment = std::mem::take(&mut schedule.assignment);
    let mut state = HcState::new(dag, machine, assignment)
        .expect("the relocation phase requires a valid schedule");
    let visit_budget = RELOCATION_VISITS_PER_NODE * dag.n() as u64;
    let mut scratch = SearchScratch::new();
    'passes: loop {
        for &(s, x, y) in &list {
            let spent =
                outcome.evaluated == RELOCATION_CANDIDATES || outcome.visits >= visit_budget;
            if spent || config.cancel.is_cancelled() {
                break 'passes;
            }
            outcome.evaluated += 1;
            state.checkpoint();
            state.relocate(dag, s, x, y);
            // The moved nodes, their neighbours, and the nodes on `x` or `y`
            // of the supersteps either side, which may now move into the
            // freed cell or beside the moved one — in node order.
            let moved = state.cell_nodes(s, y);
            let neighbours = moved.flat_map(|v| {
                let around = dag.predecessors(v).chain(dag.successors(v));
                std::iter::once(v).chain(around)
            });
            let beside = [s.wrapping_sub(1), s + 1]
                .into_iter()
                .flat_map(|t| state.cell_nodes(t, x).chain(state.cell_nodes(t, y)));
            scratch.enqueue_in_order(dag.n(), neighbours.chain(beside));
            // Each climb runs to its drained work-list: the budget is checked
            // between candidates.
            let climb = hc_descend(dag, machine, &mut state, config, &mut scratch, u64::MAX);
            outcome.visits += climb.counts.visits;
            let mut merged = state.assignment();
            if merge_supersteps(dag, &mut merged) == 0 {
                drop(merged);
                // Unmerged, the state's lazy cost is the candidate's.
                if state.total_cost() >= outcome.final_cost {
                    state.rollback(dag);
                    continue;
                }
                outcome.final_cost = state.total_cost();
            } else {
                let merged = BspSchedule::from_assignment_lazy(dag, merged);
                let merged_cost = merged.cost(dag, machine);
                if merged_cost >= outcome.final_cost {
                    state.rollback(dag);
                    continue;
                }
                outcome.final_cost = merged_cost;
                // One state at a time, and no `Γ` beside it.
                let BspSchedule { assignment, comm } = merged;
                drop((state, comm));
                state =
                    HcState::new(dag, machine, assignment).expect("a merged schedule stays valid");
            }
            outcome.kept += 1;
            list = candidates(dag, machine, &state.assignment());
            continue 'passes;
        }
        break;
    }
    schedule.assignment = state.into_assignment();
    if outcome.kept > 0 {
        schedule.comm = CommSchedule::empty();
        schedule.relax_to_lazy(dag);
    }
    outcome
}
