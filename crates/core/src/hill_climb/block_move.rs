//! One block-move loop: a larger move, then the small search again.
//!
//! `HC`'s local minima hold moves no single node makes: on coarse kernels a
//! superstep whose work sits on one processor while the others idle
//! (`bicgstab`: 4.8k–10.5k nodes of work on one processor), after the funnel
//! projection the members of clusters a funnel-level move carries whole.
//! Very-large-neighbourhood search (Ahuja, Ergun, Orlin & Punnen 2002) and
//! iterated local search (Lourenço, Martin & Stützle 2003) name the remedy,
//! of which the paper's `HC` (§4.3) and multilevel refinement (§4.5) are
//! instances: one larger move, then the small search again.
//!
//! [`block_moves`] is that loop.  A [`Generator`] proposes a block move and
//! the seeds of the search after it, or the seeds alone; per proposal the
//! loop polls the token, checkpoints the state ([`HcState::checkpoint`]) when
//! there is a block move (a pure descent journals nothing), applies it, runs
//! `HC` without verification sweeps from the seeds in node order, merges
//! ([`merge_supersteps`]) and keeps the result when it is strictly cheaper;
//! otherwise [`HcState::rollback`] returns to the checkpoint.  After a kept
//! proposal the generator is asked again.  Every bound is a count, never the
//! clock, and each generator's is data:
//!
//! * [`Generator::Hc`] — one descent from every node, at most
//!   [`VISITS_PER_ENTITY`]` · n` visits.
//! * [`Generator::Relocate`] — each *heavy serial superstep* (work on exactly
//!   one processor `x`, more than `W / P` of it, `W` the work term of
//!   [`Dag::lower_bound`]) moved whole with [`HcState::relocate`] onto the
//!   lowest-indexed idle processor of each `λ`-class of `x`, the nearest
//!   class first, then the heavier cell; the climb after it starts from the
//!   moved nodes, their neighbours and the nodes on `x` and the target either
//!   side, and runs to its drained work-list.  At most
//!   [`RELOCATION_CANDIDATES`] proposals, none begun after
//!   [`BLOCK_MOVE_VISITS_PER_NODE`]` · n` visits.  A relocation is
//!   precedence-valid and leaves every work term as it was: pure
//!   communication restructuring.  Light serial supersteps (`cg`'s dot
//!   products) are left alone: moving them too lowers the `cg` rows (the
//!   benchmark's `flat_hc` by 0.13 %, `ml_fine` by 0.17 %, the serve
//!   workloads by 0.14–0.19 %) for about a tenth more solve time (CHANGES.md,
//!   *Heavy serial supersteps: what relocation bought*).
//! * [`Generator::Refine`] — one descent on the caller's DAG from the members
//!   of multi-node funnel clusters with a DAG neighbour on another processor,
//!   at most [`BLOCK_MOVE_VISITS_PER_NODE`]` · n` visits.

use super::{hc_descend, HcState, HillClimbConfig, SearchScratch, VISITS_PER_ENTITY};
use crate::funnel::Funnel;
use crate::init::merge_supersteps;
use bsp_model::{Assignment, BspSchedule, CommSchedule, Dag, Machine};

/// The most proposals the relocation evaluates.
pub const RELOCATION_CANDIDATES: usize = 64;

/// The block-move loop's visit budget per node of the DAG: the relocation
/// begins no proposal once its climbs have visited this many nodes in all,
/// and the refinement's descent stops there, so either costs a few `HC`
/// sweeps whatever the proposals.
pub const BLOCK_MOVE_VISITS_PER_NODE: u64 = 2;

/// What one [`block_moves`] run did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockMoveReport {
    /// [`Generator::name`], also the name of the run's phase sample.
    pub generator: &'static str,
    /// Proposals evaluated: move, descent, merge, cost.
    pub evaluated: usize,
    /// Of those, the ones kept, each strictly cheaper than the one before.
    pub kept: usize,
    /// Nodes the descents were seeded with, in all.
    pub seeds: usize,
    /// Node visits the descents made, in all.
    pub visits: u64,
    /// Moves the descents accepted, in all (rolled-back ones included).
    pub moves: usize,
    /// Cost of the schedule the run returned; never above the cost it was
    /// given.
    pub final_cost: u64,
}

impl BlockMoveReport {
    /// The report of a run of `generator` that evaluated nothing on a
    /// schedule of cost `cost`.
    pub fn idle(generator: &'static str, cost: u64) -> Self {
        BlockMoveReport {
            generator,
            final_cost: cost,
            ..BlockMoveReport::default()
        }
    }
}

/// What proposes the block moves of a [`block_moves`] run (module docs).
#[derive(Debug, Clone, Copy)]
pub enum Generator<'a> {
    /// One descent from every node.
    Hc,
    /// Heavy serial supersteps, each moved whole onto an idle processor.
    Relocate,
    /// One descent from the boundary members of the funnel's clusters.
    Refine(&'a Funnel),
}

/// A block move, the cell `(s, x)` to relocate onto processor `y`; `None`
/// is a pure descent from the seeds already queued.
type Proposal = Option<(usize, usize, usize)>;

impl Generator<'_> {
    /// `"hc"`, `"relocate"` or `"refine"`.
    pub fn name(&self) -> &'static str {
        match self {
            Generator::Hc => "hc",
            Generator::Relocate => "relocate",
            Generator::Refine(_) => "refine",
        }
    }

    /// The budget on a DAG of `n` nodes: at most this many proposals, none
    /// begun once the descents have made this many visits, each descent
    /// stopped after this many.
    fn budget(&self, n: u64) -> (usize, u64, u64) {
        let moves = BLOCK_MOVE_VISITS_PER_NODE * n;
        match self {
            Generator::Hc => (1, u64::MAX, VISITS_PER_ENTITY * n),
            Generator::Relocate => (RELOCATION_CANDIDATES, moves, u64::MAX),
            Generator::Refine(_) => (1, u64::MAX, moves),
        }
    }

    /// The proposals on `assignment`, in the order they are tried.  A pure
    /// descent queues its seeds on `scratch` and is proposed when it has one.
    fn propose(
        &self,
        dag: &Dag,
        machine: &Machine,
        assignment: &Assignment,
        scratch: &mut SearchScratch,
    ) -> Vec<Proposal> {
        let n = dag.n();
        match *self {
            Generator::Relocate => return relocations(dag, machine, assignment),
            Generator::Hc => scratch.enqueue_in_order(n, 0..n),
            Generator::Refine(funnel) => {
                let seeds = (0..n).filter(|&v| on_a_boundary(dag, funnel, assignment, v));
                scratch.enqueue_in_order(n, seeds);
            }
        }
        vec![None; usize::from(scratch.len() > 0)]
    }
}

/// Whether `v` lies in a multi-node funnel cluster — a DAG neighbour shares
/// its cluster (a member feeds its cluster; a root with members is fed by
/// one), so a funnel-level move carries it only with the whole cluster — and
/// has a DAG neighbour on another processor.
fn on_a_boundary(dag: &Dag, funnel: &Funnel, assignment: &Assignment, v: usize) -> bool {
    let (c, q) = (funnel.cluster_of(v), assignment.proc[v]);
    let (mut merged, mut split) = (false, false);
    for u in dag.predecessors(v).chain(dag.successors(v)) {
        merged |= funnel.cluster_of(u) == c;
        split |= assignment.proc[u] != q;
        if merged && split {
            return true;
        }
    }
    false
}

/// The relocations of one pass, in the order they are tried: nearest class
/// first — every heavy serial cell `(s, x)` with the lowest idle `y` of each
/// `λ(x, y)`, ordered by `λ(x, y)`, then the heavier cell, then the earlier
/// superstep.  A cell holding every node of the DAG is left out: moving it
/// relabels the schedule.  `O(n + S + h · P)` for `h` heavy cells.
fn relocations(dag: &Dag, machine: &Machine, assignment: &Assignment) -> Vec<Proposal> {
    const MIXED: u16 = u16::MAX;
    let p = machine.p();
    // Per superstep: the one processor with work (`MIXED` when two have
    // some, `None` when none has), that work and the superstep's nodes.
    let mut sole: Vec<(Option<u16>, u64, usize)> = vec![(None, 0, 0); assignment.num_supersteps()];
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
    let heavy = |&(worker, work, nodes): &(Option<u16>, u64, usize)| match worker {
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
    list.into_iter()
        .map(|(_, _, s, x, y)| Some((s, x, y)))
        .collect()
}

/// The block-move loop (module docs) of `generator` on `schedule`, a valid
/// schedule of `dag` at cost `cost`.  Each descent runs under `config`,
/// whose token is polled before every proposal.  When the run changed the
/// assignment, the schedule comes back under its lazy `Γ`, costed from the
/// state's lazy total when unmerged and recomputed when merged; otherwise
/// it is left as it was given, `Γ` included.
pub fn block_moves(
    dag: &Dag,
    machine: &Machine,
    schedule: &mut BspSchedule,
    cost: u64,
    generator: Generator<'_>,
    config: &HillClimbConfig,
) -> BlockMoveReport {
    let mut report = BlockMoveReport::idle(generator.name(), cost);
    let (max_proposals, max_visits, max_climb) = generator.budget(dag.n() as u64);
    let mut scratch = SearchScratch::new();
    let mut proposals = generator.propose(dag, machine, &schedule.assignment, &mut scratch);
    // The state holds the one copy of the assignment while the loop
    // searches; it is built for the first proposal, and again for the next
    // one after a merged result was kept.
    let mut held: Option<HcState> = None;
    let mut next = 0;
    while let Some(&proposal) = proposals.get(next) {
        next += 1;
        let spent = report.evaluated == max_proposals || report.visits >= max_visits;
        if spent || config.cancel.is_cancelled() {
            break;
        }
        report.evaluated += 1;
        let state = held.get_or_insert_with(|| {
            // One state at a time, and no `Γ` beside it but the given one.
            if report.kept > 0 {
                schedule.comm = CommSchedule::empty();
            }
            let assignment = std::mem::take(&mut schedule.assignment);
            HcState::new(dag, machine, assignment).expect("block moves require a valid schedule")
        });
        if let Some((s, x, y)) = proposal {
            state.checkpoint();
            state.relocate(dag, s, x, y);
            // The moved nodes, their neighbours, and the nodes on `x` or `y`
            // of the supersteps either side, which may now move into the
            // freed cell or beside the moved one.
            let moved = state.cell_nodes(s, y);
            let neighbours = moved.flat_map(|v| {
                let around = dag.predecessors(v).chain(dag.successors(v));
                std::iter::once(v).chain(around)
            });
            let beside = [s.wrapping_sub(1), s + 1]
                .into_iter()
                .flat_map(|t| state.cell_nodes(t, x).chain(state.cell_nodes(t, y)));
            scratch.enqueue_in_order(dag.n(), neighbours.chain(beside));
        }
        report.seeds += scratch.len();
        let descent = hc_descend(dag, machine, state, config, &mut scratch, max_climb);
        report.visits += descent.counts.visits;
        report.moves += descent.steps;
        // The merge rewrites a copy while a block move can be rolled back,
        // and a pure descent's own assignment otherwise: with nothing to roll
        // back to, what it changed is kept (each of its moves lowered the
        // lazy cost, and the merge never raises it).
        let mut merged = match proposal {
            Some(_) => state.assignment(),
            None => held.take().expect("built above").into_assignment(),
        };
        let removed = merge_supersteps(dag, &mut merged);
        if proposal.is_none() && descent.steps == 0 && removed == 0 {
            schedule.assignment = merged;
            continue;
        }
        // Unmerged, the state's lazy total is the result's cost, and a block
        // move's result is the state itself: the copy goes at once.
        let result = (removed > 0 || proposal.is_none())
            .then(|| BspSchedule::from_assignment_lazy(dag, merged));
        let cost = match &result {
            Some(result) if removed > 0 => result.cost(dag, machine),
            _ => descent.final_cost,
        };
        if let Some(state) = held.as_mut().filter(|_| cost >= report.final_cost) {
            state.rollback(dag);
            continue;
        }
        debug_assert!(cost <= report.final_cost, "a descent raised the cost");
        report.final_cost = cost;
        report.kept += 1;
        if let Some(result) = result {
            (held, *schedule) = (None, result);
        }
        if report.evaluated == max_proposals {
            break;
        }
        let listed = held.as_ref().map(HcState::assignment);
        let assignment = listed.as_ref().unwrap_or(&schedule.assignment);
        proposals = generator.propose(dag, machine, assignment, &mut scratch);
        next = 0;
    }
    if let Some(state) = held {
        schedule.assignment = state.into_assignment();
        if report.kept > 0 {
            schedule.comm = CommSchedule::empty();
            schedule.relax_to_lazy(dag);
        }
    }
    report
}
