//! The incremental uncoarsen-and-refine engine.
//!
//! [`IncrementalRefiner`] owns the persistent [`QuotientDag`] a coarsening
//! run left behind, together with a warm [`HcState`] over it.  Undoing one
//! contraction is a three-step *split delta* instead of a rebuild:
//!
//! 1. [`HcState::pre_split`] removes the merged cluster's lazy-communication
//!    contributions from the tallies (pre-split graph),
//! 2. [`QuotientDag::uncontract_one`] splits the cluster in `O(deg)`,
//! 3. [`HcState::post_split`] activates the split-off half at the same
//!    processor and superstep and adds both halves' contributions back.
//!
//! Each refinement phase then runs the work-list search [`hc_search`] seeded
//! with only the *dirty* nodes — the split halves, their quotient neighbours,
//! and the nodes of every superstep whose tallies a split touched — so a
//! phase costs `O(local change)`, not `O(n + m)`.  The previous
//! implementation rebuilt the quotient DAG (`DagBuilder` + `BTreeSet` edge
//! dedup), re-projected the assignment, and constructed a fresh `HcState`
//! for every phase.

use crate::hill_climb::{hc_search, HcState, HillClimbConfig, HillClimbOutcome, SearchScratch};
use bsp_model::{Assignment, DagView, Machine, NodeId, QuotientDag, ValidityError};

/// Warm uncoarsening state: a mutable quotient graph plus the hill-climbing
/// state tracking its current assignment, patched in lockstep.
#[derive(Debug)]
pub struct IncrementalRefiner<'a> {
    machine: &'a Machine,
    quotient: QuotientDag,
    state: HcState<'a>,
    scratch: SearchScratch,
    /// Nodes whose best move may have changed since the last refinement
    /// phase; seeds the next phase's work-list.
    dirty: Vec<usize>,
    dirty_mark: Vec<bool>,
    /// Supersteps whose tallies a split touched since the last refinement
    /// phase.  Memberships are expanded to nodes *once per phase*
    /// ([`IncrementalRefiner::seed_dirty_steps`]), not once per split: with
    /// the paper's interval of 5 (and the adaptive interval above it) the
    /// same step is typically touched by several splits of one batch, and
    /// per-split expansion made uncontraction cost `O(step size)` each time.
    dirty_steps: Vec<usize>,
    dirty_step_mark: Vec<bool>,
}

impl<'a> IncrementalRefiner<'a> {
    /// Builds the engine from a coarsened quotient and an assignment over its
    /// node space (entries of inactive nodes are ignored; leave them `(0, 0)`).
    /// The assignment must be feasible for the lazy communication schedule;
    /// otherwise the offending edge is reported.
    pub fn new(
        machine: &'a Machine,
        quotient: QuotientDag,
        assignment: Assignment,
    ) -> Result<Self, ValidityError> {
        let n = quotient.n();
        let state = HcState::new(&quotient, machine, assignment)?;
        let mut scratch = SearchScratch::new();
        scratch.reserve(n);
        let num_steps = state.num_supersteps();
        Ok(IncrementalRefiner {
            machine,
            quotient,
            state,
            scratch,
            dirty: Vec::with_capacity(n),
            dirty_mark: vec![false; n],
            dirty_steps: Vec::with_capacity(num_steps + 16),
            dirty_step_mark: vec![false; num_steps + 16],
        })
    }

    /// The quotient graph at the current uncoarsening level.
    pub fn quotient(&self) -> &QuotientDag {
        &self.quotient
    }

    /// Cost of the current assignment under the lazy communication schedule.
    pub fn cost(&self) -> u64 {
        self.state.total_cost()
    }

    /// A snapshot of the current assignment (see [`IncrementalRefiner::new`]
    /// for the convention on inactive entries).
    pub fn assignment(&self) -> Assignment {
        self.state.assignment()
    }

    /// `true` once every contraction has been undone.
    pub fn fully_uncoarsened(&self) -> bool {
        self.quotient.num_contractions() == 0
    }

    /// Undoes one contraction, patching the hill-climbing state in `O(deg)`
    /// (see the module docs), and marks the affected nodes dirty for the next
    /// refinement phase.  Returns the `(kept, removed)` pair, or `None` when
    /// already fully uncoarsened.
    pub fn uncontract_one(&mut self) -> Option<(NodeId, NodeId)> {
        let (kept, _) = self.quotient.peek_uncontract()?;
        self.state.pre_split(&self.quotient, kept);
        let (kept, removed) = self
            .quotient
            .uncontract_one()
            .expect("peeked contraction exists");
        self.state.post_split(&self.quotient, kept, removed);

        // Dirty-set rule, mirroring the in-search re-enqueue policy: the
        // split halves, their quotient neighbours, and every node of a
        // superstep whose communication tallies the split touched.  The
        // touched *steps* are only recorded here; membership expansion is
        // deferred to the next phase so a step several splits of one batch
        // touch is expanded once (node supersteps do not change between
        // phases — only phases move nodes — so deferred expansion marks the
        // same nodes per-split expansion would).
        let Self {
            quotient,
            state,
            dirty,
            dirty_mark,
            dirty_steps,
            dirty_step_mark,
            ..
        } = self;
        let mut mark = |v: usize| {
            if !dirty_mark[v] {
                dirty_mark[v] = true;
                dirty.push(v);
            }
        };
        for half in [kept, removed] {
            mark(half);
            for &u in quotient.predecessors(half) {
                mark(u);
            }
            for &w in quotient.successors(half) {
                mark(w);
            }
        }
        for &s in state.last_affected_steps() {
            if s >= dirty_step_mark.len() {
                dirty_step_mark.resize(s + 16, false);
            }
            if !dirty_step_mark[s] {
                dirty_step_mark[s] = true;
                dirty_steps.push(s);
            }
        }
        Some((kept, removed))
    }

    /// Expands the accumulated dirty steps into dirty nodes.  Must run
    /// *before* [`HcState::compact_steps`]: compaction renumbers supersteps,
    /// and the recorded indices refer to the pre-compaction numbering.
    fn seed_dirty_steps(&mut self) {
        let Self {
            state,
            dirty,
            dirty_mark,
            dirty_steps,
            dirty_step_mark,
            ..
        } = self;
        for &s in dirty_steps.iter() {
            dirty_step_mark[s] = false;
            for &x in state.nodes_in_superstep(s) {
                if !dirty_mark[x] {
                    dirty_mark[x] = true;
                    dirty.push(x);
                }
            }
        }
        dirty_steps.clear();
    }

    /// Runs one warm-started refinement phase: the work-list search seeded
    /// with the dirty set accumulated since the previous phase.  No
    /// verification sweep — the phase examines only nodes whose neighbourhood
    /// actually changed (plus whatever its own accepted moves dirty).
    ///
    /// Supersteps the previous phase drained are compacted first (the
    /// counterpart of the `normalize` the old rebuild-per-phase flow ran);
    /// that rebuild is `O(n)` but fires only when a step actually emptied.
    pub fn refine(&mut self, config: &HillClimbConfig) -> HillClimbOutcome {
        self.seed_dirty_steps();
        self.state.compact_steps(&self.quotient);
        for &v in &self.dirty {
            self.dirty_mark[v] = false;
            self.scratch.enqueue(v);
        }
        self.dirty.clear();
        self.search(config, false)
    }

    /// Runs the seeded work-list search (always the serial driver, like
    /// [`crate::hill_climb::hc_improve`]).
    fn search(&mut self, config: &HillClimbConfig, full_sweep: bool) -> HillClimbOutcome {
        hc_search(
            &self.quotient,
            self.machine,
            &mut self.state,
            config,
            &mut self.scratch,
            full_sweep,
        )
    }

    /// Runs a *full* refinement phase: every active node is enqueued and the
    /// search sweeps to certification (or the configured limits).  The
    /// scheduler runs this once at the end of uncoarsening — the dirty-seeded
    /// phases are local by design, and one global pass over the final graph
    /// catches improvements whose enabling moves straddled phase boundaries.
    pub fn refine_full(&mut self, config: &HillClimbConfig) -> HillClimbOutcome {
        for &s in &self.dirty_steps {
            self.dirty_step_mark[s] = false;
        }
        self.dirty_steps.clear();
        self.state.compact_steps(&self.quotient);
        for &v in &self.dirty {
            self.dirty_mark[v] = false;
        }
        self.dirty.clear();
        self.scratch.enqueue_all(&self.quotient);
        self.search(config, true)
    }

    /// Consumes the engine and returns the final assignment.  Meaningful over
    /// the original node space once fully uncoarsened (every node then being
    /// its own cluster).
    pub fn into_assignment(self) -> Assignment {
        self.state.into_assignment()
    }
}
