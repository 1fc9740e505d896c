//! Incremental schedule state for the `HC` hill climbing.
//!
//! The paper (§4.3, Appendix A.3) stresses that recomputing the full cost for
//! every candidate move would be far too slow; instead the search keeps
//! per-superstep, per-processor work / send / receive tallies under the lazy
//! communication schedule, with cached row maxima and body costs (work +
//! `g`·h-relation), and updates only the supersteps a move actually touches.
//!
//! ## Lift once, drop per candidate
//!
//! The driver costs up to `3 · P` destinations for one node `v`, and all but
//! about one in a hundred are rejected.  What a move *removes* — `v`'s work,
//! `v`'s own sends, and the sends of predecessors that `v` alone anchored —
//! is the same for every destination, so it is done once:
//!
//! * [`HcState::lift`] takes `v` out of the tallies.  Its sends are removed;
//!   a predecessor whose unique earliest consumer on `π(v)` was `v` has that
//!   one send re-anchored for the runner-up consumer (read off the cached
//!   `ConsumerSummary`, no successor scan).  The tallies then describe the
//!   schedule of `G ∖ {v}`, and the exact cost change — the *lift gain* — is
//!   kept.
//! * [`HcState::drop_eval`] costs one destination on that lifted state: one
//!   work patch, `v`'s sends re-anchored at the new processor, and per
//!   predecessor at most "pull its send to the new processor earlier" or
//!   "add one".  It returns `lift gain + Δrows + latency term` — exactly the
//!   delta of the whole move — and undoes only its own few patches.
//! * [`HcState::drop_lower_bound`] needs no patch at all.  When no
//!   predecessor send would move earlier, a drop only *adds* to the lifted
//!   tallies, so no row gets cheaper and the destination row pays at least
//!   the rise of its work maximum.  Because the lift gain is exact, `lift
//!   gain + rise + latency term ≥ 0` rejects most destinations in `O(1)`.
//!   The driver only asks `delta < 0`, so pruning never changes which move
//!   is accepted.
//! * [`HcState::unlift`] puts `v` back, bit for bit.
//!
//! Lift and drop log their patches and the row-max caches of the rows they
//! touch, so undoing is exact inverse arithmetic plus restoring saved caches:
//! a rejected candidate never rescans a row.  `body`, `body_sum` and the
//! assignment are not touched until a move commits.  [`HcState::try_move`] is
//! lift → exact drop → unlift; property tests pin each delta against a full
//! recomputation.
//!
//! [`HcState::apply_move`] is the search's only commit path, and it
//! deliberately does *not* go through lift/drop: it patches the full old and
//! new contribution sets of `v` and its predecessors, so the `affected`
//! superstep set it leaves behind names every superstep such a contribution
//! sits in, changed or not.  The work-list re-enqueues the nodes of exactly
//! those supersteps; narrowing the set would reorder the queue and with it
//! the trajectory.
//!
//! ## Block moves and rollback
//!
//! [`HcState::relocate`] commits a whole cell — a superstep's nodes on one
//! processor — onto a processor idle in that superstep, patching the crossing
//! tallies once.  After [`HcState::checkpoint`] every commit is journalled,
//! and [`HcState::rollback`] undoes them newest first by their exact inverses
//! (a move back, the cell relocated back), so the block-move loop
//! ([`super::block_moves`]) tries a relocation and the descent after it
//! without rebuilding the state.  The journal is off until the first
//! checkpoint, so the loop's pure descents record nothing.
//!
//! ## One private scratch
//!
//! Costing a candidate fills and undoes a work area — generation-stamped need
//! maps and touched-superstep marks, contribution gathers, the lift/drop op
//! logs — that the state keeps in a private field beside its tallies and its
//! summary arena.  [`HcState::new`] sizes all of it once: the
//! processor-indexed buffers to `P`, the gathers and logs to the bounds under
//! *Footprint*, the superstep marks to the tallies' capacity, which has one
//! spare superstep.  After that `ensure_capacity` is the one place arrays are
//! resized, every superstep-indexed one at once, when a commit or a drop
//! reaches past the capacity (the row logs and the affected set, reserved up
//! to the capacity, may then grow too).  So on a freshly built state lift,
//! drop and unlift perform **zero heap allocation** from the first call.
//!
//! ## Footprint
//!
//! The state is `O(n + m)` bytes whatever the degrees.  Per node it holds
//! a `u16` processor and otherwise `u32`s only: superstep, bucket entry and
//! bucket position, and the arena's offset and length.  A node's consumer
//! summaries (one per processor hosting a consumer) live in that arena, in
//! which node `u` owns
//! `min(out_degree(u), P)` slots of 16 bytes.  The scratch is reserved to the
//! largest gather one node's moves can make,
//! `max_v Σ_{u ∈ {v} ∪ pred(v)} min(out_degree(u), P − 1)` contributions of
//! 16 bytes, and its undo logs to `max_v min(out_degree(v), P − 1) + 2 ·
//! in_degree(v)` patches of 16 bytes.  Only the tallies are per superstep
//! and processor, and `HC` runs on merged starts of a few supersteps.
//!
//! ## Graph-per-call
//!
//! The state does **not** borrow the DAG: every graph-touching method takes
//! the [`Dag`] as an argument.  Callers must pass the DAG the state was built
//! over.

use bsp_model::{Assignment, Dag, Machine, ValidityError};

/// One lazy-communication contribution: the value of some node is sent
/// `from -> to` in the communication phase of `step`, with NUMA-weighted
/// volume `weight`.  Supersteps are 32-bit and processors 16-bit, as in the
/// schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Contribution {
    weight: u64,
    step: u32,
    from: u16,
    to: u16,
}

// Gathers and undo logs hold one per entry: 16 bytes, no padding.
const _: () = assert!(std::mem::size_of::<Contribution>() == 16);

impl Contribution {
    #[inline(always)]
    fn new(step: usize, from: usize, to: usize, weight: u64) -> Self {
        Contribution {
            weight,
            step: step as u32,
            from: from as u16,
            to: to as u16,
        }
    }

    /// The same transfer as a logged patch: its weight negated (mod
    /// `2^64`) when it was removed, so undoing any patch subtracts it.
    #[inline(always)]
    fn patch(self, add: bool) -> Self {
        let weight = if add {
            self.weight
        } else {
            self.weight.wrapping_neg()
        };
        Contribution { weight, ..self }
    }

    /// The superstep whose communication phase carries the transfer.
    #[inline(always)]
    fn step(self) -> usize {
        self.step as usize
    }

    /// The send cell and the receive cell in the flat `[superstep ×
    /// processor]` tallies of a `p`-processor machine.
    #[inline(always)]
    fn cells(self, p: usize) -> (usize, usize) {
        let row = self.step() * p;
        (row + self.from as usize, row + self.to as usize)
    }
}

/// Which communication tally a patch applies to.
#[derive(Debug, Clone, Copy)]
enum Side {
    Send,
    Recv,
}

/// Summary of one node's consumers on a single processor: the earliest
/// consuming superstep, how many consumers attain it, and the next distinct
/// consuming superstep.  Unlike a materialized [`Contribution`] this keeps
/// enough information to answer "what if one consumer moved away / arrived?"
/// in `O(1)`, which is what lets candidate evaluation transform cached
/// summaries instead of rescanning successor lists.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ConsumerSummary {
    /// The consuming processor (may equal the producer's processor).
    to: u32,
    /// Earliest superstep a consumer on `to` runs in.
    min_step: u32,
    /// Number of consumers on `to` running in `min_step`.
    min_cnt: u32,
    /// Second-smallest distinct consuming superstep ([`NO_STEP`] if none).
    runner_up: u32,
}

const _: () = assert!(std::mem::size_of::<ConsumerSummary>() == 16);

/// "No such superstep" in 32 bits; read out as `usize::MAX`.
const NO_STEP: u32 = u32::MAX;

/// `len` of a node whose summaries a committed move invalidated.
const STALE: u32 = u32::MAX;

impl ConsumerSummary {
    /// The consuming processor.
    #[inline(always)]
    fn to(self) -> usize {
        self.to as usize
    }

    /// Earliest superstep a consumer on [`ConsumerSummary::to`] runs in.
    #[inline(always)]
    fn min_step(self) -> usize {
        self.min_step as usize
    }

    /// Earliest consuming superstep on `to` once one consumer at `(q, s)` is
    /// taken away (`usize::MAX` if it was the only consumer there).
    #[inline(always)]
    fn min_without(self, q: usize, s: usize) -> usize {
        if self.to() == q && self.min_step() == s && self.min_cnt == 1 {
            if self.runner_up == NO_STEP {
                usize::MAX
            } else {
                self.runner_up as usize
            }
        } else {
            self.min_step()
        }
    }
}

/// Persistent per-node consumer summaries (one per processor with at least
/// one consumer, including the producer's own) in one arena: node `u` owns
/// the slots `off[u] .. off[u + 1]`, which are `min(out_degree(u), P)`, and
/// its summaries are the first `len[u]` of them.  Node `u`'s summaries depend
/// only on `u`'s successors' positions, so a committed move of `v` marks
/// exactly `v` and `v`'s predecessors [`STALE`]; everything else survives
/// across visits, which is what makes the verification sweep cheap on
/// mostly-converged schedules.
#[derive(Debug, Clone)]
struct SummaryArena {
    slots: Vec<ConsumerSummary>,
    off: Vec<u32>,
    len: Vec<u32>,
}

impl SummaryArena {
    /// The arena slots of node `u`'s live consumer summaries.
    #[inline(always)]
    fn live(&self, u: usize) -> std::ops::Range<usize> {
        debug_assert!(self.len[u] != STALE, "summary cache of {u} is stale");
        let start = self.off[u] as usize;
        start..start + self.len[u] as usize
    }

    /// Node `u`'s cached consumer summaries; they must be fresh.
    #[inline(always)]
    fn of(&self, u: usize) -> &[ConsumerSummary] {
        &self.slots[self.live(u)]
    }
}

/// Undo record of one lift or one drop: the row-max caches of every touched
/// superstep as they were on first touch, `(row, work_max, work_max_cnt,
/// hrel_max, hrel_max_cnt)`, and the contribution patches in application
/// order ([`Contribution::patch`]).
#[derive(Debug, Clone, Default)]
struct OpLog {
    rows: Vec<(usize, u64, u32, u64, u32)>,
    ops: Vec<Contribution>,
}

/// Indices into [`Scratch::logs`].
const LIFT: usize = 0;
const DROP: usize = 1;

/// One committed change as [`HcState::rollback`] undoes it.
#[derive(Debug, Clone, Copy)]
enum Undo {
    /// Node `v` goes back to `(proc, step)`.
    Move { v: u32, proc: u16, step: u32 },
    /// The nodes of cell `(step, from)` go back to `to`.
    Relocate { step: u32, from: u16, to: u16 },
}

/// Precomputed feasibility window for all candidate moves of one node: the
/// binding predecessor/successor superstep and, when every binding neighbour
/// sits on one processor, that processor (which then also admits the equal
/// superstep).  [`MoveWindow::allows`] answers validity in `O(1)`, replacing
/// the `O(deg)` scan of [`HcState::move_is_valid`] in the driver's inner loop
/// over `3 · P` candidate destinations.
#[derive(Debug, Clone, Copy)]
pub struct MoveWindow {
    /// Latest predecessor superstep, if any predecessor exists.
    pred_step: Option<usize>,
    /// The single processor hosting *all* latest predecessors, if unique.
    pred_proc: Option<usize>,
    /// Earliest successor superstep, if any successor exists.
    succ_step: Option<usize>,
    /// The single processor hosting *all* earliest successors, if unique.
    succ_proc: Option<usize>,
}

impl MoveWindow {
    /// `true` if moving the node to `(p_new, s_new)` keeps the lazy schedule
    /// valid.  Equivalent to [`HcState::move_is_valid`].
    #[inline]
    pub fn allows(&self, p_new: usize, s_new: usize) -> bool {
        if let Some(ps) = self.pred_step {
            if s_new < ps || (s_new == ps && self.pred_proc != Some(p_new)) {
                return false;
            }
        }
        if let Some(ss) = self.succ_step {
            if s_new > ss || (s_new == ss && self.succ_proc != Some(p_new)) {
                return false;
            }
        }
        true
    }
}

/// Work area of candidate-move evaluation: generation-stamped need maps,
/// contribution gather buffers, touched-superstep dedup marks, and the
/// lift/drop undo logs.  Sized by [`HcState::new`]; `step_mark` is resized
/// with the tallies.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Earliest consuming superstep per processor for the value currently
    /// being summarized; valid iff `need_mark[q] == need_stamp`.
    need_step: Vec<u32>,
    /// Consumers attaining `need_step[q]`.
    need_cnt: Vec<u32>,
    /// Second-smallest distinct consuming superstep ([`NO_STEP`] if none).
    need_second: Vec<u32>,
    need_mark: Vec<u64>,
    /// Processors touched by the current summary computation.
    need_touched: Vec<usize>,
    need_stamp: u64,
    /// Superstep membership in `affected`; valid iff `step_mark[s] == step_stamp`.
    step_mark: Vec<u64>,
    step_stamp: u64,
    contribs_old: Vec<Contribution>,
    contribs_new: Vec<Contribution>,
    /// Supersteps whose tallies the last evaluated move touched.
    affected: Vec<usize>,
    /// Undo records of the current lift and of the drop being evaluated.
    logs: [OpLog; 2],
    /// The exact cost change the current lift made.
    lift_gain: i64,
    /// Per processor `q`: the latest superstep a predecessor's send to `q`
    /// is anchored for in the lifted state (`0` if none).  Dropping the node
    /// on `q` in an earlier superstep pulls that send earlier; at or past it,
    /// the drop only adds to the tallies.
    move_below: Vec<usize>,
    /// Node whose `contribs_old` are currently cached.  The old contributions
    /// of node `v` (its own plus its predecessors') are identical across all
    /// `3 · P` candidate destinations the driver evaluates for `v`, so they
    /// are collected once per node visit; any committed move invalidates.
    prepared_node: Option<usize>,
}

impl Scratch {
    /// Fills `affected` with the supersteps a move between `s_old` and
    /// `s_new` touches given the gathered contributions — those two first,
    /// then the old and the new contributions' — deduplicated with the
    /// generation stamp.
    fn mark_affected(&mut self, s_old: usize, s_new: usize) {
        self.affected.clear();
        self.step_stamp += 1;
        let contribs = self.contribs_old.iter().chain(&self.contribs_new);
        for s in [s_old, s_new].into_iter().chain(contribs.map(|c| c.step())) {
            if self.step_mark[s] != self.step_stamp {
                self.step_mark[s] = self.step_stamp;
                self.affected.push(s);
            }
        }
    }

    /// Starts a fresh undo log `which` under a new row-mark generation.
    fn begin_log(&mut self, which: usize) {
        self.step_stamp += 1;
        self.logs[which].rows.clear();
        self.logs[which].ops.clear();
    }

    /// Writes into `out` the consumer summaries of node `u` — per processor
    /// hosting at least one successor of `u`: the earliest consuming
    /// superstep, the number of consumers attaining it, and the runner-up
    /// superstep — and returns how many there are.  `out` needs a slot per
    /// processor the successors can occupy, `min(out_degree(u), P)`.
    fn summarize(
        &mut self,
        graph: &Dag,
        proc: &[u16],
        step: &[u32],
        u: usize,
        out: &mut [ConsumerSummary],
    ) -> usize {
        self.need_stamp += 1;
        let stamp = self.need_stamp;
        self.need_touched.clear();
        for w in graph.successors(u) {
            let (q, s) = (proc[w] as usize, step[w]);
            if self.need_mark[q] != stamp {
                self.need_mark[q] = stamp;
                self.need_step[q] = s;
                self.need_cnt[q] = 1;
                self.need_second[q] = NO_STEP;
                self.need_touched.push(q);
            } else if s < self.need_step[q] {
                self.need_second[q] = self.need_step[q];
                self.need_step[q] = s;
                self.need_cnt[q] = 1;
            } else if s == self.need_step[q] {
                self.need_cnt[q] += 1;
            } else if s < self.need_second[q] {
                self.need_second[q] = s;
            }
        }
        debug_assert!(self.need_touched.len() <= out.len());
        for (slot, &q) in out.iter_mut().zip(&self.need_touched) {
            *slot = ConsumerSummary {
                to: q as u32,
                min_step: self.need_step[q],
                min_cnt: self.need_cnt[q],
                runner_up: self.need_second[q],
            };
        }
        self.need_touched.len()
    }
}

/// Incremental cost state of an assignment under the lazy communication
/// rule: the assignment, superstep membership, flat tallies with row-max
/// caches and cached body costs, the consumer-summary arena, and a private
/// scratch for costing candidates.  [`HcState::try_move`] evaluates a move
/// and leaves the state as it was; [`HcState::apply_move`] commits it.  Both
/// return the exact cost delta, and applying the inverse move restores the
/// previous state exactly.
#[derive(Debug, Clone)]
pub struct HcState<'a> {
    machine: &'a Machine,
    proc: Vec<u16>,
    step: Vec<u32>,
    /// Number of nodes per superstep (tracks the number of supersteps).
    nodes_in_step: Vec<usize>,
    /// The nodes of each superstep (membership lists for the work-list driver).
    step_nodes: Vec<Vec<u32>>,
    /// Position of node `v` inside `step_nodes[step[v]]`.
    bucket_pos: Vec<u32>,
    /// Flat `[superstep × processor]` work tallies, indexed `s * P + q`.
    work: Vec<u64>,
    /// Flat NUMA-weighted send tallies, indexed `s * P + q`.
    send: Vec<u64>,
    /// Flat NUMA-weighted receive tallies, indexed `s * P + q`.
    recv: Vec<u64>,
    /// Fused `max(send, recv)` per cell, so body recomputation scans two rows
    /// instead of three.
    hrel: Vec<u64>,
    /// Cached row maximum of `work` per superstep, with the number of cells
    /// attaining it.  A cell update adjusts the maximum in `O(1)`; only when
    /// the last maximal cell decreases is the row rescanned.
    work_max: Vec<u64>,
    work_max_cnt: Vec<u32>,
    /// Cached row maximum of `hrel` per superstep (same scheme).
    hrel_max: Vec<u64>,
    hrel_max_cnt: Vec<u32>,
    /// Cached body cost (max work + `g`·max h-relation) per superstep.
    body: Vec<u64>,
    /// Running sum of `body` (steps past `num_steps` are always zero).
    body_sum: u64,
    num_steps: usize,
    summaries: SummaryArena,
    /// Largest contribution gather of one node's moves,
    /// `max_v Σ_{u ∈ {v} ∪ pred(v)} min(out_degree(u), P − 1)`; the gather
    /// buffers are reserved to it.
    contrib_bound: usize,
    /// Most patches one lift or drop logs,
    /// `max_v min(out_degree(v), P − 1) + 2 · in_degree(v)`: `v`'s own
    /// sends, then per predecessor at most a removal and an addition.  The
    /// undo logs are reserved to it.
    log_bound: usize,
    scratch: Scratch,
    /// The commits since [`HcState::checkpoint`], oldest first; `None` until
    /// a checkpoint is taken, so a plain search records nothing.
    journal: Option<Vec<Undo>>,
}

/// Maintains a cached row maximum (`max`, with `cnt` cells attaining it)
/// under the single-cell change `old -> new`.  `O(1)` except when the last
/// maximal cell decreases, which rescans the row.
#[inline(always)]
fn bump_row_max(max: &mut u64, cnt: &mut u32, row: &[u64], old: u64, new: u64) {
    if new == old {
        return;
    }
    if new > *max {
        *max = new;
        *cnt = 1;
        return;
    }
    if new == *max {
        *cnt += 1;
    }
    if old == *max {
        *cnt -= 1;
        if *cnt == 0 {
            let mut m = 0u64;
            let mut c = 0u32;
            for &x in row {
                if x > m {
                    m = x;
                    c = 1;
                } else if x == m {
                    c += 1;
                }
            }
            *max = m;
            *cnt = c;
        }
    }
}

/// Materializes the lazy contributions of a value produced on `pu` with
/// communication weight `cu`, given its consumer summaries: one transfer per
/// consuming processor other than `pu`, in the phase right before the
/// earliest consuming superstep.
fn push_contributions(
    machine: &Machine,
    pu: usize,
    cu: u64,
    summaries: &[ConsumerSummary],
    out: &mut Vec<Contribution>,
) {
    for sm in summaries {
        if sm.to() == pu {
            continue;
        }
        debug_assert!(
            sm.min_step > 0,
            "a cross-processor consumer sits in superstep 0; the lazy schedule \
             cannot deliver the value in time"
        );
        let weight = cu * machine.lambda(pu, sm.to());
        out.push(Contribution::new(sm.min_step() - 1, pu, sm.to(), weight));
    }
}

impl<'a> HcState<'a> {
    /// Builds the incremental state from an assignment, with every buffer the
    /// search needs sized.
    ///
    /// The assignment must be feasible for the *lazy* communication schedule:
    /// every edge `(u, w)` needs `τ(u) ≤ τ(w)` on the same processor and
    /// `τ(u) < τ(w)` across processors (otherwise the value of `u` cannot
    /// reach `π(w)` in time — for `τ(w) = 0` this is the case that used to
    /// underflow `s - 1`).  Infeasible assignments yield a [`ValidityError`]
    /// naming the offending edge.
    pub fn new(
        graph: &Dag,
        machine: &'a Machine,
        assignment: Assignment,
    ) -> Result<Self, ValidityError> {
        let n = graph.n();
        let p = machine.p();
        if assignment.proc.len() != n {
            return Err(ValidityError::AssignmentLengthMismatch {
                expected: n,
                got: assignment.proc.len(),
            });
        }
        if assignment.superstep.len() != n {
            return Err(ValidityError::AssignmentLengthMismatch {
                expected: n,
                got: assignment.superstep.len(),
            });
        }
        for (v, &q) in assignment.proc.iter().enumerate() {
            if q as usize >= p {
                return Err(ValidityError::ProcessorOutOfRange {
                    node: v,
                    proc: q as usize,
                    p,
                });
            }
        }
        for u in 0..n {
            for w in graph.successors(u) {
                if assignment.proc[u] == assignment.proc[w] {
                    if assignment.superstep[u] > assignment.superstep[w] {
                        return Err(ValidityError::PrecedenceSameProcessor { pred: u, node: w });
                    }
                } else if assignment.superstep[u] >= assignment.superstep[w] {
                    return Err(ValidityError::MissingCommunication { pred: u, node: w });
                }
            }
        }

        let num_steps = assignment.num_supersteps();
        // One spare superstep so no candidate of the driver (`s_new ≤
        // num_steps`) has to grow the arrays.
        let capacity = num_steps.max(1) + 1;
        // A value is sent to at most `P − 1` other processors, and to no
        // more than it has consumers.  The arena's size is at most `m`, so
        // its offsets fit the DAG's own 32 bits.
        let sends = |u: usize| graph.out_degree(u).min(p - 1);
        let (mut contrib_bound, mut log_bound) = (0, 0);
        let mut summary_off = Vec::with_capacity(n + 1);
        summary_off.push(0u32);
        for v in 0..n {
            let slots = summary_off[v] as usize + graph.out_degree(v).min(p);
            summary_off.push(slots as u32);
            let gather = sends(v) + graph.predecessors(v).map(sends).sum::<usize>();
            contrib_bound = contrib_bound.max(gather);
            log_bound = log_bound.max(sends(v) + 2 * graph.in_degree(v));
        }
        // A log touches the row of its work patch plus one per patch.
        let log = || OpLog {
            rows: Vec::with_capacity((1 + log_bound).min(capacity)),
            ops: Vec::with_capacity(log_bound),
        };
        let mut state = HcState {
            machine,
            proc: assignment.proc,
            step: assignment.superstep,
            nodes_in_step: vec![0; capacity],
            step_nodes: vec![Vec::new(); capacity],
            bucket_pos: vec![0; n],
            work: vec![0; capacity * p],
            send: vec![0; capacity * p],
            recv: vec![0; capacity * p],
            hrel: vec![0; capacity * p],
            work_max: vec![0; capacity],
            work_max_cnt: vec![p as u32; capacity],
            hrel_max: vec![0; capacity],
            hrel_max_cnt: vec![p as u32; capacity],
            body: vec![0; capacity],
            body_sum: 0,
            num_steps,
            summaries: SummaryArena {
                slots: vec![ConsumerSummary::default(); summary_off[n] as usize],
                off: summary_off,
                len: vec![STALE; n],
            },
            contrib_bound,
            log_bound,
            scratch: Scratch {
                need_step: vec![0; p],
                need_cnt: vec![0; p],
                need_second: vec![0; p],
                need_mark: vec![0; p],
                need_touched: Vec::with_capacity(p),
                step_mark: vec![0; capacity],
                contribs_old: Vec::with_capacity(contrib_bound),
                contribs_new: Vec::with_capacity(contrib_bound),
                // Two rows of the move itself plus one per contribution.
                affected: Vec::with_capacity((2 + 2 * contrib_bound).min(capacity)),
                logs: [log(), log()],
                move_below: vec![0; p],
                ..Scratch::default()
            },
            journal: None,
        };
        state.build_tallies(graph);
        // Headroom so the first moves into a bucket don't reallocate.
        for bucket in &mut state.step_nodes {
            bucket.reserve(bucket.len() + 8);
        }
        Ok(state)
    }

    /// Builds every derived tally — superstep buckets, work and communication
    /// matrices, row-max caches, body costs — of a freshly zeroed state from
    /// its `proc`/`step` arrays.  `O(n + m + steps · P)`.
    fn build_tallies(&mut self, graph: &Dag) {
        let p = self.machine.p();
        let n = graph.n();
        let capacity = self.body.len();
        let mut num_steps = 0usize;
        for v in 0..n {
            let s = self.step_of(v);
            self.nodes_in_step[s] += 1;
            self.bucket_pos[v] = self.step_nodes[s].len() as u32;
            self.step_nodes[s].push(v as u32);
            self.work[s * p + self.proc[v] as usize] += graph.work(v);
            num_steps = num_steps.max(s + 1);
        }
        self.num_steps = num_steps;
        for u in 0..n {
            self.refresh_summaries(graph, u);
            let materialized = &mut self.scratch.contribs_new;
            materialized.clear();
            let (pu, cu) = (self.proc[u] as usize, graph.comm(u));
            push_contributions(self.machine, pu, cu, self.summaries.of(u), materialized);
            for &c in materialized.iter() {
                let (from, to) = c.cells(p);
                self.send[from] += c.weight;
                self.recv[to] += c.weight;
                self.hrel[from] = self.send[from].max(self.recv[from]);
                self.hrel[to] = self.send[to].max(self.recv[to]);
            }
        }
        self.body_sum = 0;
        let g = self.machine.g();
        for s in 0..capacity {
            let row = s * p;
            let (mut wm, mut wc) = (0u64, 0u32);
            for &x in &self.work[row..row + p] {
                if x > wm {
                    wm = x;
                    wc = 1;
                } else if x == wm {
                    wc += 1;
                }
            }
            let (mut hm, mut hc) = (0u64, 0u32);
            for &x in &self.hrel[row..row + p] {
                if x > hm {
                    hm = x;
                    hc = 1;
                } else if x == hm {
                    hc += 1;
                }
            }
            self.work_max[s] = wm;
            self.work_max_cnt[s] = wc;
            self.hrel_max[s] = hm;
            self.hrel_max_cnt[s] = hc;
            let cost = wm + g * hm;
            self.body[s] = cost;
            self.body_sum += cost;
        }
    }

    /// Current processor of a node.
    #[inline]
    pub fn proc_of(&self, v: usize) -> usize {
        self.proc[v] as usize
    }

    /// Current superstep of a node.
    #[inline]
    pub fn step_of(&self, v: usize) -> usize {
        self.step[v] as usize
    }

    /// Current number of supersteps.
    #[inline]
    pub fn num_supersteps(&self) -> usize {
        self.num_steps
    }

    /// The nodes currently assigned to superstep `s` (in no particular order).
    pub fn nodes_in_superstep(&self, s: usize) -> impl ExactSizeIterator<Item = usize> + '_ {
        let nodes = self.step_nodes.get(s).map_or(&[][..], Vec::as_slice);
        nodes.iter().map(|&v| v as usize)
    }

    /// The supersteps whose tallies the most recent `apply_move` touched
    /// (deduplicated, unordered).  The work-list driver re-enqueues the nodes
    /// of these supersteps after an accepted move.
    pub fn last_affected_steps(&self) -> &[usize] {
        &self.scratch.affected
    }

    /// A snapshot of the current assignment.
    pub fn assignment(&self) -> Assignment {
        Assignment {
            proc: self.proc.clone(),
            superstep: self.step.clone(),
        }
    }

    /// Consumes the state and returns the assignment.
    pub fn into_assignment(self) -> Assignment {
        Assignment {
            proc: self.proc,
            superstep: self.step,
        }
    }

    /// Total schedule cost under the lazy communication schedule.  `O(1)`.
    pub fn total_cost(&self) -> u64 {
        self.body_sum + self.machine.latency() * self.num_steps as u64
    }

    /// `true` if both states hold bit-equal derived state: tally and fused
    /// h-relation cells, row-max caches with their attain counts, body costs,
    /// their sum and the superstep count.  Rows past a state's capacity count
    /// as empty.  Test support: pins the incremental state against a fresh
    /// rebuild of the same assignment.
    #[doc(hidden)]
    pub fn same_tallies(&self, other: &Self) -> bool {
        fn padded<T: Copy + PartialEq>(a: &[T], b: &[T], empty: T) -> bool {
            let at = |x: &[T], i: usize| x.get(i).copied().unwrap_or(empty);
            (0..a.len().max(b.len())).all(|i| at(a, i) == at(b, i))
        }
        let p = self.machine.p() as u32;
        let cells = [&self.work, &self.send, &self.recv, &self.hrel];
        let other_cells = [&other.work, &other.send, &other.recv, &other.hrel];
        (cells.iter().zip(other_cells)).all(|(a, b)| padded(a, b, 0))
            && padded(&self.work_max, &other.work_max, 0)
            && padded(&self.hrel_max, &other.hrel_max, 0)
            && padded(&self.body, &other.body, 0)
            && padded(&self.work_max_cnt, &other.work_max_cnt, p)
            && padded(&self.hrel_max_cnt, &other.hrel_max_cnt, p)
            && self.body_sum == other.body_sum
            && self.num_steps == other.num_steps
    }

    /// Rebuilds node `u`'s cached consumer summaries if a committed move
    /// invalidated them.
    fn refresh_summaries(&mut self, graph: &Dag, u: usize) {
        let arena = &mut self.summaries;
        if arena.len[u] != STALE {
            return;
        }
        let out = &mut arena.slots[arena.off[u] as usize..arena.off[u + 1] as usize];
        arena.len[u] = self
            .scratch
            .summarize(graph, &self.proc, &self.step, u, out) as u32;
    }

    /// Refreshes the consumer-summary caches of `v` and its predecessors —
    /// everything the evaluation of `v`'s candidate moves reads.
    fn warm_summaries(&mut self, graph: &Dag, v: usize) {
        self.refresh_summaries(graph, v);
        for u in graph.predecessors(v) {
            self.refresh_summaries(graph, u);
        }
    }

    /// Gathers into `scratch.contribs_old` the lazy contributions of `v` and
    /// its predecessors under the current assignment (from the per-node
    /// caches — no successor-list scan for clean nodes).  The result is
    /// identical for every candidate destination of `v`, so the driver's
    /// `3 · P` evaluations of one node gather it only once.
    ///
    /// Requires the summary caches of `v` and its predecessors to be valid
    /// (`warm_summaries`).
    fn prepare_node(&mut self, graph: &Dag, v: usize) {
        if self.scratch.prepared_node == Some(v) {
            return;
        }
        let gathered = &mut self.scratch.contribs_old;
        gathered.clear();
        for u in std::iter::once(v).chain(graph.predecessors(v)) {
            let (pu, cu) = (self.proc[u] as usize, graph.comm(u));
            push_contributions(self.machine, pu, cu, self.summaries.of(u), gathered);
        }
        debug_assert!(
            gathered.len() <= self.contrib_bound,
            "gather past its bound"
        );
        self.scratch.prepared_node = Some(v);
    }

    /// Fills `scratch.contribs_old` / `scratch.contribs_new` with the lazy
    /// contributions removed and added by moving `v` to `(p_new, s_new)`.
    /// Leaves the tallies alone.
    fn gather_move_contribs(&mut self, graph: &Dag, v: usize, p_new: usize, s_new: usize) {
        let p_old = self.proc_of(v);
        let s_old = self.step_of(v);

        // Values whose lazy communication steps can change: v and its
        // predecessors.  Old contributions under the current assignment
        // (cached across the candidate destinations of `v`):
        self.prepare_node(graph, v);

        // New contributions, derived from the cached consumer summaries in
        // `O(1)` per summary — no successor list is scanned per candidate.
        //
        // * v's consumers do not move, so v's new contributions are its
        //   summaries re-anchored at sender `p_new`.
        // * A predecessor u's summaries change only on the processors v
        //   leaves (`p_old`) and joins (`p_new`): exclude v via
        //   (`min_cnt`, `runner_up`), include v at `s_new`.
        let machine = self.machine;
        let new_out = &mut self.scratch.contribs_new;
        new_out.clear();
        push_contributions(machine, p_new, graph.comm(v), self.summaries.of(v), new_out);
        for u in graph.predecessors(v) {
            let pu = self.proc[u] as usize;
            let cu = graph.comm(u);
            let mut saw_p_new = false;
            for &sm in self.summaries.of(u) {
                let to = sm.to();
                if to == p_new {
                    saw_p_new = true;
                }
                if to == pu {
                    continue;
                }
                let mut eff = sm.min_without(p_old, s_old);
                if to == p_new {
                    eff = eff.min(s_new);
                }
                if eff == usize::MAX {
                    continue; // v was the only consumer on this processor
                }
                debug_assert!(eff > 0, "consumer in superstep 0 after a move");
                new_out.push(Contribution::new(
                    eff - 1,
                    pu,
                    to,
                    cu * machine.lambda(pu, to),
                ));
            }
            if !saw_p_new && p_new != pu {
                debug_assert!(s_new > 0, "cross-processor predecessor with s_new == 0");
                let weight = cu * machine.lambda(pu, p_new);
                new_out.push(Contribution::new(s_new - 1, pu, p_new, weight));
            }
        }
        debug_assert!(new_out.len() <= self.contrib_bound, "gather past its bound");
    }

    /// Sound pruning gate: `false` guarantees that *no* candidate move of `v`
    /// can lower the total cost, so the driver may skip all `3 · P`
    /// destinations outright.  `O(deg)`; it warms the summary caches and
    /// gathers the old contributions that candidate evaluation reuses.
    ///
    /// Soundness: a move only removes tallies at `v`'s own work cell and at
    /// the cells of the old lazy contributions of `v` and its predecessors;
    /// every other touched cell only grows.  A superstep's body cost is
    /// `max(work row) + g · max(hrel row)`, so it can only decrease when one
    /// of those removed-from cells currently attains its row maximum.  The
    /// latency term can only decrease when `v`'s superstep empties, i.e. `v`
    /// is alone in it.  If none of these hold, every candidate has `delta ≥ 0`.
    pub fn node_can_gain(&mut self, graph: &Dag, v: usize) -> bool {
        self.warm_summaries(graph, v);
        let p = self.machine.p();
        let s_old = self.step_of(v);
        let p_old = self.proc_of(v);
        if self.nodes_in_step[s_old] == 1 {
            return true;
        }
        // The move removes work from exactly one cell; the row max only drops
        // if that cell attains it uniquely.
        if self.work[s_old * p + p_old] == self.work_max[s_old] && self.work_max_cnt[s_old] == 1 {
            return true;
        }
        // Communication side: the removable cells are exactly those of the
        // old contributions of v and its predecessors.  A phase's h-relation
        // max drops only if the removable max-attaining cells cover *all*
        // cells attaining it, so collect distinct removable max cells per
        // phase and compare against the attain-count.
        self.prepare_node(graph, v);
        const CAP: usize = 16;
        let mut max_cells = [(0usize, 0usize); CAP];
        let mut m = 0usize;
        for &c in &self.scratch.contribs_old {
            let step = c.step();
            let row_max = self.hrel_max[step];
            let cnt = self.hrel_max_cnt[step];
            let (from, to) = c.cells(p);
            for cell in [from, to] {
                if self.hrel[cell] != row_max {
                    continue;
                }
                if cnt == 1 {
                    return true;
                }
                if !max_cells[..m].contains(&(step, cell)) {
                    if m == CAP {
                        return true; // overflow: be conservative
                    }
                    max_cells[m] = (step, cell);
                    m += 1;
                }
            }
        }
        for i in 0..m {
            let (s, _) = max_cells[i];
            let covered = max_cells[..m].iter().filter(|&&(t, _)| t == s).count();
            if covered >= self.hrel_max_cnt[s] as usize {
                return true;
            }
        }
        false
    }

    /// Precomputes the feasibility window of node `v`'s candidate moves in
    /// one `O(deg)` scan; check candidates with [`MoveWindow::allows`].
    pub fn move_window(&self, graph: &Dag, v: usize) -> MoveWindow {
        let mut pred_step = None;
        let mut pred_proc = None;
        for u in graph.predecessors(v) {
            let su = self.step_of(u);
            match pred_step {
                None => {
                    pred_step = Some(su);
                    pred_proc = Some(self.proc_of(u));
                }
                Some(cur) if su > cur => {
                    pred_step = Some(su);
                    pred_proc = Some(self.proc_of(u));
                }
                Some(cur) if su == cur && pred_proc != Some(self.proc_of(u)) => {
                    pred_proc = None;
                }
                _ => {}
            }
        }
        let mut succ_step = None;
        let mut succ_proc = None;
        for w in graph.successors(v) {
            let sw = self.step_of(w);
            match succ_step {
                None => {
                    succ_step = Some(sw);
                    succ_proc = Some(self.proc_of(w));
                }
                Some(cur) if sw < cur => {
                    succ_step = Some(sw);
                    succ_proc = Some(self.proc_of(w));
                }
                Some(cur) if sw == cur && succ_proc != Some(self.proc_of(w)) => {
                    succ_proc = None;
                }
                _ => {}
            }
        }
        MoveWindow {
            pred_step,
            pred_proc,
            succ_step,
            succ_proc,
        }
    }

    /// `true` if moving node `v` to `(p_new, s_new)` keeps the lazy schedule
    /// valid: predecessors must be available (strictly earlier superstep, or
    /// the same superstep on the same processor), and symmetrically for
    /// successors.
    pub fn move_is_valid(&self, graph: &Dag, v: usize, p_new: usize, s_new: usize) -> bool {
        for u in graph.predecessors(v) {
            let ok = if self.proc_of(u) == p_new {
                self.step_of(u) <= s_new
            } else {
                self.step_of(u) < s_new
            };
            if !ok {
                return false;
            }
        }
        for w in graph.successors(v) {
            let ok = if self.proc_of(w) == p_new {
                self.step_of(w) >= s_new
            } else {
                self.step_of(w) > s_new
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Grows every superstep-indexed array — the tallies, their row caches,
    /// the buckets and the scratch's superstep marks — to hold at least
    /// `steps` supersteps; nothing else resizes them.
    fn ensure_capacity(&mut self, steps: usize) {
        let current = self.body.len();
        if steps <= current {
            return;
        }
        let p = self.machine.p();
        self.work.resize(steps * p, 0);
        self.send.resize(steps * p, 0);
        self.recv.resize(steps * p, 0);
        self.hrel.resize(steps * p, 0);
        self.work_max.resize(steps, 0);
        self.work_max_cnt.resize(steps, p as u32);
        self.hrel_max.resize(steps, 0);
        self.hrel_max_cnt.resize(steps, p as u32);
        self.nodes_in_step.resize(steps, 0);
        self.step_nodes.resize_with(steps, Vec::new);
        self.body.resize(steps, 0);
        self.scratch.step_mark.resize(steps, 0);
    }

    /// Adds/subtracts `weight` on the send (`Side::Send`) or receive tally at
    /// `(s, cell)`, refreshing the fused h-relation entry and the row-max
    /// cache.
    #[inline(always)]
    fn patch_comm(&mut self, side: Side, s: usize, cell: usize, weight: u64, add: bool) {
        let tally = match side {
            Side::Send => &mut self.send[cell],
            Side::Recv => &mut self.recv[cell],
        };
        if add {
            *tally += weight;
        } else {
            *tally -= weight;
        }
        let old_h = self.hrel[cell];
        let new_h = self.send[cell].max(self.recv[cell]);
        if new_h != old_h {
            self.hrel[cell] = new_h;
            let p = self.machine.p();
            bump_row_max(
                &mut self.hrel_max[s],
                &mut self.hrel_max_cnt[s],
                &self.hrel[s * p..(s + 1) * p],
                old_h,
                new_h,
            );
        }
    }

    /// Sets the work tally at `(s, q)` to `new`, maintaining the row-max cache.
    #[inline(always)]
    fn patch_work(&mut self, s: usize, q: usize, new: u64) {
        let p = self.machine.p();
        let cell = s * p + q;
        let old = self.work[cell];
        if new == old {
            return;
        }
        self.work[cell] = new;
        bump_row_max(
            &mut self.work_max[s],
            &mut self.work_max_cnt[s],
            &self.work[s * p..(s + 1) * p],
            old,
            new,
        );
    }

    /// Adds (`add`) or removes one lazy contribution on both of its tallies.
    #[inline(always)]
    fn patch_contrib(&mut self, c: Contribution, add: bool) {
        let (from, to) = c.cells(self.machine.p());
        self.patch_comm(Side::Send, c.step(), from, c.weight, add);
        self.patch_comm(Side::Recv, c.step(), to, c.weight, add);
    }

    /// The superstep count after moving `v` to superstep `s_new`: the
    /// occupancy shift may open a superstep at the end or drain trailing ones.
    #[inline]
    fn steps_after_move(&self, v: usize, s_new: usize) -> usize {
        let s_old = self.step_of(v);
        let occupancy = |s: usize| {
            self.nodes_in_step.get(s).copied().unwrap_or(0) + usize::from(s == s_new)
                - usize::from(s == s_old)
        };
        let mut steps = self.num_steps.max(s_new + 1);
        while steps > 0 && occupancy(steps - 1) == 0 {
            steps -= 1;
        }
        steps
    }

    /// Latency term of the cost change of moving `v` to superstep `s_new`.
    #[inline]
    fn latency_delta(&self, v: usize, s_new: usize) -> i64 {
        self.machine.latency() as i64
            * (self.steps_after_move(v, s_new) as i64 - self.num_steps as i64)
    }

    /// Saves row `s`'s max caches in log `which` the first time it is touched.
    #[inline(always)]
    fn touch_row(&mut self, which: usize, s: usize) {
        let scratch = &mut self.scratch;
        if scratch.step_mark[s] != scratch.step_stamp {
            scratch.step_mark[s] = scratch.step_stamp;
            let (wm, hm) = (self.work_max[s], self.hrel_max[s]);
            let saved = (s, wm, self.work_max_cnt[s], hm, self.hrel_max_cnt[s]);
            scratch.logs[which].rows.push(saved);
        }
    }

    /// Applies one contribution patch and records it in log `which`.
    #[inline(always)]
    fn patch_logged(&mut self, which: usize, c: Contribution, add: bool) {
        self.touch_row(which, c.step());
        self.patch_contrib(c, add);
        self.scratch.logs[which].ops.push(c.patch(add));
    }

    /// Removes (`LIFT`) or adds (`DROP`) the sends of `v`'s value, weight
    /// `cv`, from processor `from` to every other processor hosting a consumer.
    #[inline(always)]
    fn patch_own_sends(&mut self, which: usize, v: usize, cv: u64, from: usize) {
        for i in self.summaries.live(v) {
            let sm = self.summaries.slots[i];
            if sm.to() != from {
                debug_assert!(sm.min_step > 0, "consumer of a moved value in superstep 0");
                let weight = cv * self.machine.lambda(from, sm.to());
                let c = Contribution::new(sm.min_step() - 1, from, sm.to(), weight);
                self.patch_logged(which, c, which == DROP);
            }
        }
    }

    /// Body-cost change of the rows in log `which` since their first touch.
    #[inline]
    fn log_delta(&self, which: usize) -> i64 {
        let g = self.machine.g();
        let mut delta = 0i64;
        for &(s, wm, _, hm, _) in &self.scratch.logs[which].rows {
            delta += (self.work_max[s] + g * self.hrel_max[s]) as i64 - (wm + g * hm) as i64;
        }
        delta
    }

    /// Reverts the contribution patches of log `which` (cells by exact
    /// inverse arithmetic, newest first) and restores the saved row-max
    /// caches, so no row is ever rescanned on the way back.
    #[inline]
    fn undo_log(&mut self, which: usize) {
        let p = self.machine.p();
        let log = &self.scratch.logs[which];
        for &c in log.ops.iter().rev() {
            let (from, to) = c.cells(p);
            self.send[from] = self.send[from].wrapping_sub(c.weight);
            self.recv[to] = self.recv[to].wrapping_sub(c.weight);
            self.hrel[from] = self.send[from].max(self.recv[from]);
            self.hrel[to] = self.send[to].max(self.recv[to]);
        }
        for &(s, wm, wc, hm, hc) in &log.rows {
            (self.work_max[s], self.work_max_cnt[s]) = (wm, wc);
            (self.hrel_max[s], self.hrel_max_cnt[s]) = (hm, hc);
        }
    }

    /// Takes `v` out of the tallies: its work leaves `(τ(v), π(v))`, its own
    /// sends are removed, and each predecessor send that `v` alone anchored
    /// is re-anchored for the runner-up consumer.  The tallies then describe
    /// the schedule of `G ∖ {v}`; the exact cost change is kept as the lift
    /// gain every [`HcState::drop_eval`] of `v` starts from.  `body`,
    /// `body_sum` and the assignment are left alone.  Must be paired with
    /// [`HcState::unlift`] before any other mutation.  `O(deg)`.
    pub fn lift(&mut self, graph: &Dag, v: usize) {
        let p = self.machine.p();
        self.warm_summaries(graph, v);
        let (p_old, s_old) = (self.proc_of(v), self.step_of(v));
        self.scratch.begin_log(LIFT);
        self.scratch.move_below.fill(0);

        self.touch_row(LIFT, s_old);
        self.patch_work(s_old, p_old, self.work[s_old * p + p_old] - graph.work(v));
        self.patch_own_sends(LIFT, v, graph.comm(v), p_old);
        for u in graph.predecessors(v) {
            let pu = self.proc_of(u);
            for i in self.summaries.live(u) {
                let sm = self.summaries.slots[i];
                if sm.to() == pu {
                    continue;
                }
                let eff = sm.min_without(p_old, s_old);
                if eff != sm.min_step() {
                    // v alone anchored u's send to `p_old`.
                    let weight = graph.comm(u) * self.machine.lambda(pu, p_old);
                    let c = Contribution::new(s_old - 1, pu, p_old, weight);
                    self.patch_logged(LIFT, c, false);
                    if eff != usize::MAX {
                        let c = Contribution::new(eff - 1, pu, p_old, weight);
                        self.patch_logged(LIFT, c, true);
                    }
                }
                if eff != usize::MAX {
                    let below = &mut self.scratch.move_below[sm.to()];
                    *below = (*below).max(eff);
                }
            }
        }
        debug_assert!(self.scratch.logs[LIFT].ops.len() <= self.log_bound);
        self.scratch.lift_gain = self.log_delta(LIFT);
    }

    /// Puts the lifted node `v` back where it was; every tally and row cache
    /// is bit-equal to the state before [`HcState::lift`].
    pub fn unlift(&mut self, graph: &Dag, v: usize) {
        let cell = self.step_of(v) * self.machine.p() + self.proc_of(v);
        self.work[cell] += graph.work(v);
        self.undo_log(LIFT);
    }

    /// `O(1)` lower bound on the cost change of dropping the lifted node `v`
    /// at `(p_new, s_new)`, or `None` when the drop would pull a predecessor's
    /// send earlier.  Otherwise the drop only *adds* to the lifted tallies, so
    /// no row gets cheaper and the destination row pays at least the rise of
    /// its work maximum: `delta ≥ lift gain + rise + latency term`.
    #[inline]
    pub fn drop_lower_bound(
        &self,
        graph: &Dag,
        v: usize,
        p_new: usize,
        s_new: usize,
    ) -> Option<i64> {
        if s_new < self.scratch.move_below[p_new] {
            return None;
        }
        // Rows past the allocated capacity are empty.
        let row_max = self.work_max.get(s_new).copied().unwrap_or(0);
        let cell = s_new * self.machine.p() + p_new;
        let work = self.work.get(cell).copied().unwrap_or(0);
        let rise = (work + graph.work(v)).saturating_sub(row_max);
        Some(self.scratch.lift_gain + rise as i64 + self.latency_delta(v, s_new))
    }

    /// Costs destination `(p_new, s_new)` for the lifted node `v`: patches
    /// the drop onto the lifted tallies — `v`'s work, `v`'s sends re-anchored
    /// at `p_new`, and per predecessor at most "pull its send to `p_new`
    /// earlier" or "add one for `s_new`" — reads the exact change in total
    /// cost of the whole move (negative = improvement) off the row caches,
    /// and undoes its own patches.  No heap allocation unless `s_new` lies
    /// past the tallies' capacity.
    pub fn drop_eval(&mut self, graph: &Dag, v: usize, p_new: usize, s_new: usize) -> i64 {
        let (p_old, s_old) = (self.proc_of(v), self.step_of(v));
        if p_old == p_new && s_old == s_new {
            return 0;
        }
        self.ensure_capacity(s_new + 1);
        self.scratch.begin_log(DROP);

        let (wv, cell) = (graph.work(v), s_new * self.machine.p() + p_new);
        self.touch_row(DROP, s_new);
        self.patch_work(s_new, p_new, self.work[cell] + wv);
        self.patch_own_sends(DROP, v, graph.comm(v), p_new);
        for u in graph.predecessors(v) {
            let pu = self.proc_of(u);
            if pu == p_new {
                continue;
            }
            // Where u's send to `p_new` is anchored with v lifted, if any.
            let eff = (self.summaries.of(u).iter().find(|sm| sm.to() == p_new))
                .map_or(usize::MAX, |sm| sm.min_without(p_old, s_old));
            if s_new < eff {
                debug_assert!(s_new > 0, "cross-processor predecessor with s_new == 0");
                let weight = graph.comm(u) * self.machine.lambda(pu, p_new);
                let c = Contribution::new(s_new - 1, pu, p_new, weight);
                self.patch_logged(DROP, c, true);
                if eff != usize::MAX {
                    let c = Contribution::new(eff - 1, pu, p_new, weight);
                    self.patch_logged(DROP, c, false);
                }
            }
        }
        debug_assert!(self.scratch.logs[DROP].ops.len() <= self.log_bound);
        let rows_delta = self.log_delta(DROP);
        self.work[cell] -= wv;
        self.undo_log(DROP);
        self.scratch.lift_gain + rows_delta + self.latency_delta(v, s_new)
    }

    /// Evaluates the move of node `v` to `(p_new, s_new)` without committing
    /// it — [`HcState::lift`], one exact [`HcState::drop_eval`],
    /// [`HcState::unlift`] — and returns the exact change in total cost
    /// (negative = improvement).  The driver's inner loop shares one lift
    /// across all destinations of `v` instead.
    pub fn try_move(&mut self, graph: &Dag, v: usize, p_new: usize, s_new: usize) -> i64 {
        self.lift(graph, v);
        let delta = self.drop_eval(graph, v, p_new, s_new);
        self.unlift(graph, v);
        delta
    }

    /// Applies the move of node `v` to `(p_new, s_new)` and returns the change
    /// in total cost (negative = improvement).  Applying the inverse move
    /// afterwards restores the exact previous state and returns the negated
    /// delta.  Patches the full old/new contribution sets, so
    /// [`HcState::last_affected_steps`] names every superstep a contribution
    /// of `v` or a predecessor sits in — the work-list's dirty rule depends
    /// on that set, not only on changed rows.
    pub fn apply_move(&mut self, graph: &Dag, v: usize, p_new: usize, s_new: usize) -> i64 {
        let p_old = self.proc_of(v);
        let s_old = self.step_of(v);
        if p_old == p_new && s_old == s_new {
            return 0;
        }
        self.ensure_capacity(s_new + 1);
        let p = self.machine.p();

        self.warm_summaries(graph, v);
        self.gather_move_contribs(graph, v, p_new, s_new);
        let new_num_steps = self.steps_after_move(v, s_new);

        // Mutate the assignment.
        self.proc[v] = p_new as u16;
        self.step[v] = s_new as u32;

        self.scratch.mark_affected(s_old, s_new);

        // Patch the tallies, maintaining the row-max caches.
        let wv = graph.work(v);
        self.patch_work(s_old, p_old, self.work[s_old * p + p_old] - wv);
        self.patch_work(s_new, p_new, self.work[s_new * p + p_new] + wv);
        for i in 0..self.scratch.contribs_old.len() {
            self.patch_contrib(self.scratch.contribs_old[i], false);
        }
        for i in 0..self.scratch.contribs_new.len() {
            self.patch_contrib(self.scratch.contribs_new[i], true);
        }

        let delta = self.machine.latency() as i64 * (new_num_steps as i64 - self.num_steps as i64)
            + self.settle_bodies();

        // Move v between superstep buckets (swap-remove + push).
        let pos = self.bucket_pos[v] as usize;
        let bucket = &mut self.step_nodes[s_old];
        bucket.swap_remove(pos);
        if pos < bucket.len() {
            let moved = bucket[pos] as usize;
            self.bucket_pos[moved] = pos as u32;
        }
        self.bucket_pos[v] = self.step_nodes[s_new].len() as u32;
        self.step_nodes[s_new].push(v as u32);
        self.nodes_in_step[s_old] -= 1;
        self.nodes_in_step[s_new] += 1;
        self.num_steps = new_num_steps;
        // The committed move changed v's position: the cached contributions
        // of v (sender moved) and of its predecessors (consumer moved) are
        // stale.
        self.summaries.len[v] = STALE;
        for u in graph.predecessors(v) {
            self.summaries.len[u] = STALE;
        }
        self.scratch.prepared_node = None;
        if let Some(journal) = &mut self.journal {
            let (proc, step) = (p_old as u16, s_old as u32);
            journal.push(Undo::Move {
                v: v as u32,
                proc,
                step,
            });
        }
        delta
    }

    /// Re-reads the body cost of every superstep in `scratch.affected` off
    /// the row-max caches (`O(1)` per superstep) and returns the change in
    /// their sum.
    fn settle_bodies(&mut self) -> i64 {
        let g = self.machine.g();
        let mut delta = 0i64;
        for &s in &self.scratch.affected {
            let cost = self.work_max[s] + g * self.hrel_max[s];
            delta += cost as i64 - self.body[s] as i64;
            self.body_sum = self.body_sum - self.body[s] + cost;
            self.body[s] = cost;
        }
        delta
    }

    /// Moves every node of cell `(s, x)` to processor `y`, which must hold no
    /// node of superstep `s`, and returns the exact change in total cost.
    ///
    /// The move is always precedence-valid: an edge inside the cell keeps
    /// both ends on one processor, no edge joins the cell to another
    /// processor's nodes of `s` (the lazy rule forbids it), and an edge to
    /// another superstep keeps its strict order.  The work row keeps its
    /// values, one cell's load changing processor, so only the
    /// `h`-relations move.  Walking the nodes over one at a time would pass
    /// through invalid states whenever the cell holds an edge, so the
    /// crossing tallies are patched once instead: the lazy contributions of
    /// the cell's nodes and their predecessors come off, the nodes move, and
    /// the contributions of the new positions go on.  `relocate(s, y, x)`
    /// undoes it exactly.  `O(Σ deg)` over the cell; the superstep buckets
    /// keep their order.
    pub fn relocate(&mut self, graph: &Dag, s: usize, x: usize, y: usize) -> i64 {
        debug_assert!(x != y, "a cell relocates onto another processor");
        let p = self.machine.p();
        debug_assert!(
            self.cell_nodes(s, y).next().is_none(),
            "processor {y} holds a node of superstep {s}"
        );
        // The senders whose lazy contributions the move can change: the
        // cell's nodes (sender moved) and their predecessors (consumer
        // moved), a node with several consumers in the cell met once each.
        // Their summaries are all made fresh, the contributions of each come
        // off as it is first met and its summaries are marked stale, the
        // nodes move, and each stale one goes back on, refreshed, at its
        // first meeting: no list of senders is held.
        self.scratch.affected.clear();
        self.scratch.step_stamp += 1;
        for pass in 0..3 {
            let q = if pass < 2 { x } else { y };
            for i in 0..self.step_nodes[s].len() {
                let v = self.step_nodes[s][i] as usize;
                if self.proc_of(v) != q {
                    continue;
                }
                for u in std::iter::once(v).chain(graph.predecessors(v)) {
                    match pass {
                        0 => self.refresh_summaries(graph, u),
                        1 if self.summaries.len[u] != STALE => {
                            self.patch_sends(graph, u, false);
                            self.summaries.len[u] = STALE;
                        }
                        2 if self.summaries.len[u] == STALE => {
                            self.refresh_summaries(graph, u);
                            self.patch_sends(graph, u, true);
                        }
                        _ => {}
                    }
                }
            }
            if pass == 1 {
                for &v in &self.step_nodes[s] {
                    let q = &mut self.proc[v as usize];
                    if *q as usize == x {
                        *q = y as u16;
                    }
                }
            }
        }
        // Onto `y` first: the row's maximum is then never left unattained,
        // so no row is rescanned.
        let moved = self.work[s * p + x];
        self.patch_work(s, y, self.work[s * p + y] + moved);
        self.patch_work(s, x, 0);
        self.mark_row(s);
        self.scratch.prepared_node = None;
        if let Some(journal) = &mut self.journal {
            let (step, from, to) = (s as u32, y as u16, x as u16);
            journal.push(Undo::Relocate { step, from, to });
        }
        self.settle_bodies()
    }

    /// The nodes of cell `(s, q)`: superstep `s`'s nodes on processor `q`.
    pub(crate) fn cell_nodes(&self, s: usize, q: usize) -> impl Iterator<Item = usize> + '_ {
        self.nodes_in_superstep(s)
            .filter(move |&v| self.proc_of(v) == q)
    }

    /// Adds (`add`) or removes the lazy contributions of node `u`, whose
    /// summaries must be fresh, through the gather buffer, marking their
    /// supersteps in `scratch.affected`.
    fn patch_sends(&mut self, graph: &Dag, u: usize, add: bool) {
        let mut gathered = std::mem::take(&mut self.scratch.contribs_new);
        gathered.clear();
        let (pu, cu) = (self.proc[u] as usize, graph.comm(u));
        push_contributions(self.machine, pu, cu, self.summaries.of(u), &mut gathered);
        for &c in &gathered {
            self.patch_contrib(c, add);
            self.mark_row(c.step());
        }
        self.scratch.contribs_new = gathered;
    }

    /// Adds superstep `s` to `scratch.affected` unless the current stamp
    /// already has it.
    fn mark_row(&mut self, s: usize) {
        let scratch = &mut self.scratch;
        if scratch.step_mark[s] != scratch.step_stamp {
            scratch.step_mark[s] = scratch.step_stamp;
            scratch.affected.push(s);
        }
    }

    /// Starts recording commits — [`HcState::apply_move`] and
    /// [`HcState::relocate`] — afresh, so that [`HcState::rollback`] can
    /// return to this point.
    pub fn checkpoint(&mut self) {
        self.journal.get_or_insert_with(Vec::new).clear();
    }

    /// Undoes every commit since the last [`HcState::checkpoint`], newest
    /// first, each by its exact inverse: the assignment, every tally and
    /// every row cache are as they were then (the superstep buckets may list
    /// their nodes in another order).  Recording goes on from here.
    pub fn rollback(&mut self, graph: &Dag) {
        let Some(mut journal) = self.journal.take() else {
            return;
        };
        for undo in journal.drain(..).rev() {
            match undo {
                Undo::Move { v, proc, step } => {
                    self.apply_move(graph, v as usize, proc as usize, step as usize);
                }
                Undo::Relocate { step, from, to } => {
                    self.relocate(graph, step as usize, from as usize, to as usize);
                }
            }
        }
        self.journal = Some(journal);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsp_model::{BspSchedule, Dag, Machine};

    fn sample() -> (Dag, Machine, Assignment) {
        let dag = Dag::from_edges(
            6,
            &[(0, 2), (1, 2), (2, 3), (2, 4), (3, 5), (4, 5)],
            vec![2, 3, 4, 5, 6, 7],
            vec![1, 2, 3, 4, 5, 6],
        )
        .unwrap();
        let machine = Machine::numa_binary_tree(4, 2, 5, 3);
        let assignment = Assignment {
            proc: vec![0, 1, 0, 2, 0, 3],
            superstep: vec![0, 0, 1, 2, 2, 3],
        };
        (dag, machine, assignment)
    }

    #[test]
    fn state_cost_matches_schedule_cost() {
        let (dag, machine, assignment) = sample();
        let sched = BspSchedule::from_assignment_lazy(&dag, assignment.clone());
        let state = HcState::new(&dag, &machine, assignment).unwrap();
        assert_eq!(state.total_cost(), sched.cost(&dag, &machine));
    }

    #[test]
    fn apply_move_delta_matches_recomputed_cost() {
        let (dag, machine, assignment) = sample();
        let mut state = HcState::new(&dag, &machine, assignment).unwrap();
        let before = state.total_cost();
        // Valid move: node 4 (preds {2} at step 1 proc 0, succs {5} at step 3)
        // can go to processor 1 in superstep 2.
        assert!(state.move_is_valid(&dag, 4, 1, 2));
        let delta = state.apply_move(&dag, 4, 1, 2);
        let recomputed =
            BspSchedule::from_assignment_lazy(&dag, state.assignment()).cost(&dag, &machine);
        assert_eq!(state.total_cost(), recomputed);
        assert_eq!(before as i64 + delta, recomputed as i64);
    }

    #[test]
    fn try_move_matches_apply_move_and_leaves_state_unchanged() {
        let (dag, machine, assignment) = sample();
        let mut state = HcState::new(&dag, &machine, assignment.clone()).unwrap();
        let cost_before = state.total_cost();
        let assignment_before = state.assignment();
        let tried = state.try_move(&dag, 4, 1, 2);
        assert_eq!(state.total_cost(), cost_before);
        assert_eq!(state.assignment(), assignment_before);
        let applied = state.apply_move(&dag, 4, 1, 2);
        assert_eq!(tried, applied);
    }

    #[test]
    fn apply_move_is_reversible() {
        let (dag, machine, assignment) = sample();
        let mut state = HcState::new(&dag, &machine, assignment).unwrap();
        let before = state.total_cost();
        let d1 = state.apply_move(&dag, 4, 1, 2);
        let d2 = state.apply_move(&dag, 4, 0, 2);
        assert_eq!(d1 + d2, (state.total_cost() as i64) - before as i64);
        assert_eq!(state.total_cost() as i64, before as i64 + d1 + d2);
        // Move fully back.
        let d3 = state.apply_move(&dag, 4, 0, 2);
        assert_eq!(d3, 0);
    }

    #[test]
    fn move_validity_respects_precedence() {
        let (dag, _machine, assignment) = sample();
        let machine = Machine::uniform(4, 1, 1);
        let state = HcState::new(&dag, &machine, assignment).unwrap();
        // Node 2's predecessors are in superstep 0 on processors 0 and 1; it
        // cannot move into superstep 0 on processor 2 (pred on other proc).
        assert!(!state.move_is_valid(&dag, 2, 2, 0));
        // It can move to processor 0 superstep 1 (same) or processor 3 superstep 1?
        // pred 1 is on proc 1 step 0 < 1, pred 0 on proc 0 step 0 < 1 -> fine;
        // succs 3,4 are in step 2 on other procs -> fine.
        assert!(state.move_is_valid(&dag, 2, 3, 1));
        // Cannot move past its successors.
        assert!(!state.move_is_valid(&dag, 2, 0, 3));
    }

    #[test]
    fn moving_to_a_new_superstep_accounts_for_latency() {
        let dag = Dag::from_edges(2, &[], vec![5, 5], vec![1, 1]).unwrap();
        let machine = Machine::uniform(2, 1, 7);
        let assignment = Assignment {
            proc: vec![0, 1],
            superstep: vec![0, 0],
        };
        let mut state = HcState::new(&dag, &machine, assignment).unwrap();
        assert_eq!(state.total_cost(), 5 + 7);
        // Move node 1 into a brand-new superstep: cost becomes 5 + 5 + 2*7.
        let delta = state.apply_move(&dag, 1, 1, 1);
        assert_eq!(state.total_cost(), 5 + 5 + 14);
        assert_eq!(delta, (5 + 5 + 14) - (5 + 7));
        assert_eq!(state.num_supersteps(), 2);
        // And back again.
        let back = state.apply_move(&dag, 1, 1, 0);
        assert_eq!(back, -delta);
        assert_eq!(state.num_supersteps(), 1);
    }

    #[test]
    fn superstep_membership_tracks_moves() {
        let (dag, machine, assignment) = sample();
        let mut state = HcState::new(&dag, &machine, assignment).unwrap();
        let mut step2: Vec<usize> = state.nodes_in_superstep(2).collect();
        step2.sort_unstable();
        assert_eq!(step2, vec![3, 4]);
        state.apply_move(&dag, 4, 1, 3);
        assert_eq!(state.nodes_in_superstep(2).collect::<Vec<_>>(), [3]);
        let mut step3: Vec<usize> = state.nodes_in_superstep(3).collect();
        step3.sort_unstable();
        assert_eq!(step3, vec![4, 5]);
    }

    #[test]
    fn move_window_agrees_with_move_is_valid_everywhere() {
        let (dag, machine, assignment) = sample();
        let state = HcState::new(&dag, &machine, assignment).unwrap();
        for v in 0..dag.n() {
            let window = state.move_window(&dag, v);
            for s_new in 0..=state.num_supersteps() + 1 {
                for p_new in 0..machine.p() {
                    assert_eq!(
                        window.allows(p_new, s_new),
                        state.move_is_valid(&dag, v, p_new, s_new),
                        "disagreement at v={v} p={p_new} s={s_new}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_scratch_reserved_at_construction_holds_every_gather_of_a_hub() {
        // The funnel reduction of a coarse `bicgstab`: hubs of 57
        // predecessors whose values have up to 81 consumers, on P = 8.
        let kernel = dag_gen::coarse::coarse(&dag_gen::coarse::CoarseConfig {
            algorithm: dag_gen::coarse::CoarseAlgorithm::BiCgStab,
            iterations: 40,
        });
        let machine = Machine::numa_binary_tree(8, 2, 5, 3);
        let funnel = crate::Funnel::contract(&kernel, machine.p()).expect("bicgstab contracts");
        let dag = funnel.dag();
        // Consumers spread over every processor, two supersteps per level
        // so every edge may cross: the gathers come close to the bound.
        let levels = dag.levels();
        let assignment = Assignment {
            proc: (0..dag.n()).map(|v| (v * 5 % machine.p()) as u16).collect(),
            superstep: levels.iter().map(|&l| 2 * l as u32).collect(),
        };
        let mut state = HcState::new(dag, &machine, assignment).unwrap();
        let capacities = |s: &Scratch| {
            let [lift, drop] = &s.logs;
            let logs = [&lift.ops, &drop.ops].map(Vec::capacity);
            (s.contribs_old.capacity(), s.contribs_new.capacity(), logs)
        };
        let reserved = capacities(&state.scratch);
        let (gather, log) = (state.contrib_bound, state.log_bound);
        assert_eq!(reserved, (gather, gather, [log, log]), "reserved exactly");
        let mut largest = 0;
        for v in 0..dag.n() {
            let s_old = state.step_of(v);
            for s_new in s_old.saturating_sub(1)..=s_old + 1 {
                for p_new in 0..machine.p() {
                    if state.move_is_valid(dag, v, p_new, s_new) {
                        state.try_move(dag, v, p_new, s_new);
                        state.gather_move_contribs(dag, v, p_new, s_new);
                        largest = largest.max(state.scratch.contribs_old.len());
                        largest = largest.max(state.scratch.contribs_new.len());
                    }
                }
            }
        }
        assert_eq!(
            capacities(&state.scratch),
            reserved,
            "a buffer outgrew its bound"
        );
        assert!(
            largest * 2 > gather,
            "the gathers stay far below {gather}: {largest}"
        );
    }

    #[test]
    fn rejects_cross_processor_successor_in_superstep_zero() {
        // Edge (0, 1) with both nodes in superstep 0 on different processors:
        // the lazy schedule cannot deliver the value (this used to underflow
        // `s - 1` instead of erroring).
        let dag = Dag::from_edges(2, &[(0, 1)], vec![1, 1], vec![1, 1]).unwrap();
        let machine = Machine::uniform(2, 1, 1);
        let assignment = Assignment {
            proc: vec![0, 1],
            superstep: vec![0, 0],
        };
        let err = HcState::new(&dag, &machine, assignment).unwrap_err();
        assert_eq!(
            err,
            ValidityError::MissingCommunication { pred: 0, node: 1 }
        );
    }

    #[test]
    fn rejects_same_processor_precedence_violation() {
        let dag = Dag::from_edges(2, &[(0, 1)], vec![1, 1], vec![1, 1]).unwrap();
        let machine = Machine::uniform(2, 1, 1);
        let assignment = Assignment {
            proc: vec![0, 0],
            superstep: vec![1, 0],
        };
        let err = HcState::new(&dag, &machine, assignment).unwrap_err();
        assert_eq!(
            err,
            ValidityError::PrecedenceSameProcessor { pred: 0, node: 1 }
        );
    }

    #[test]
    fn rejects_out_of_range_processors_and_length_mismatch() {
        let dag = Dag::from_edges(2, &[(0, 1)], vec![1, 1], vec![1, 1]).unwrap();
        let machine = Machine::uniform(2, 1, 1);
        let err = HcState::new(
            &dag,
            &machine,
            Assignment {
                proc: vec![0, 5],
                superstep: vec![0, 1],
            },
        )
        .unwrap_err();
        assert_eq!(
            err,
            ValidityError::ProcessorOutOfRange {
                node: 1,
                proc: 5,
                p: 2
            }
        );
        let err = HcState::new(
            &dag,
            &machine,
            Assignment {
                proc: vec![0],
                superstep: vec![0],
            },
        )
        .unwrap_err();
        assert_eq!(
            err,
            ValidityError::AssignmentLengthMismatch {
                expected: 2,
                got: 1
            }
        );
    }
}
