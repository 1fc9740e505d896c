//! Acyclicity-preserving DAG coarsening by **round-based batch contraction**
//! (§4.5 and Appendix A.5 of the paper).
//!
//! Each contraction merges the endpoints of one edge `(u, v)` into a single
//! cluster.  An edge can only be contracted when there is no *other* directed
//! path from `u` to `v`, otherwise the quotient graph would acquire a cycle.
//! We use the sufficient criterion the paper points out: for every non-sink
//! cluster `u`, the out-neighbour with the smallest topological rank is always
//! safely contractable.  Among these candidate edges we prefer small merged
//! work weight `w(u) + w(v)` (the first third of the candidates sorted by it)
//! and, within that prefix, the largest communication weight `c(u)` — the
//! paper's selection rule.
//!
//! # Rounds and batches
//!
//! The previous implementation contracted **one edge at a time**, repairing a
//! `BTreeSet`-backed candidate pool after every contraction
//! (`O((deg u + deg v) · log n)` churn) and rebuilding the whole pool every 32
//! contractions when ranks were re-anchored.  [`BatchCoarsener`] replaces that
//! with a per-round schedule that touches every structure **once per round**:
//!
//! 1. **Scan** — one fresh Kahn sweep re-anchors the topological ranks
//!    (reusable buffers, no allocation), then every active cluster is scanned
//!    for its minimum-rank contractable out-edge into one flat candidate
//!    array.  The scan is a single serial pass: fanning it out over lanes
//!    measured 0.9–1.0x on 2 cores at n ≈ 2·10⁵ (OS threads spawned every
//!    round, for a phase that is 13–18 % of coarsening), so a thread budget
//!    buys whole solves and never reaches this module.
//! 2. **Select** — the paper's rule is applied to the candidate array
//!    batch-wide: an `O(k)` partition (`select_nth_unstable`) isolates the
//!    first third by merged work weight, which is then ordered by descending
//!    comm weight.  Walking that canonical order, a greedy pass claims an
//!    **endpoint-disjoint** batch, capped so the round never overshoots the
//!    cluster target.
//! 3. **Apply** — the batch is contracted against the persistent
//!    [`QuotientDag`] in canonical order.  Each edge is its source's
//!    minimum-rank successor and batch members are endpoint-disjoint, and a
//!    contraction can only *raise* the rank a neighbour observes (the merged
//!    cluster adopts the absorbed endpoint's rank), so every edge still
//!    satisfies the contraction precondition when its turn comes — checked by
//!    `QuotientDag::contract`'s debug assertions.
//!
//! # Why an endpoint-disjoint batch cannot create a cycle
//!
//! The worry for batch contraction is two selected edges closing a path
//! through each other (the classic counterexample: contract `u→v` and `x→y`
//! with paths `v→…→x` and `y→…→u`).  The paper's criterion rules this out
//! unconditionally — a *rank-monotonicity lemma*: ranks are a strict
//! topological numbering (re-anchored each round), and each selected `v` is
//! its source's *minimum-rank* successor, so every other out-edge of `u` and
//! every out-edge of `v` targets a rank **above** `rank(v)`.  The cluster
//! merged from `(u, v)` therefore exits only above its merge point
//! `rank(v)`, while it can be entered at a rank at most `rank(v)`: any path
//! between merged clusters strictly increases the merge ranks it visits and
//! can never return to where it started.  The same monotonicity keeps the
//! contraction precondition intact during sequential application: a batch
//! contraction only raises the ranks a neighbour observes and batch members
//! share no endpoints, so each member's target is still its source's
//! min-rank successor when its turn comes.  Batch safety needs
//! endpoint-disjointness and nothing else — batch members whose rank windows
//! `[rank(u), rank(v)]` cross included.
//!
//! # The sequential quality tail
//!
//! Batch rounds buy their throughput by freezing the selection keys for a
//! whole round: every contraction of a batch is chosen against the *same*
//! snapshot, whereas the sequential rule repairs the pool after every single
//! merge.  The last few thousand clusters are where the coarse solve's search
//! basin is decided, and batching them was measured and does not hold cost:
//! with `tail_width: 0` the recorded 10⁴-node rows move `exp/uniform_p4`
//! 8145 → 16284 (the trivial schedule), `exp/numa_p4` 12533 → 16284,
//! `spmv/uniform_p4` 4522 → 4952 and `cg/numa_p8` 17187 → 15063, and on the
//! benchmark's `ml_fine` workload per-row cost ratios spread over 0.38–2.39
//! (geomean 0.973 / 0.955 on its two seeds) with 58 rather than 42 rows
//! collapsing onto one processor — for a coarsening phase of 0.13 s instead
//! of 1.08 s.  So both engines stay, and [`CoarsenConfig::tail_width`]
//! bounds the batch engine from below: rounds run while more than
//! `max(target, tail_width)` clusters are
//! active, and the remaining gap down to the target is closed by the exact
//! pool-based sequential coarsener this module used to be — the
//! `BTreeSet`-backed [`CandidatePool`](self) with per-contraction repair and
//! rank re-anchoring every 32 contractions.  A run that starts at or below
//! the tail width reproduces the sequential coarsener bit for bit; a huge
//! run whose target sits above the tail width never leaves the batch engine.
//! Tail steps are accounted as width-1 rounds and additionally counted in
//! [`CoarsenStats::tail_contractions`].
//!
//! The contraction history is the same LIFO [`Contraction`] sequence either
//! engine emits, so uncoarsening and the warm incremental refiner are
//! untouched.  Per batch round the cost is `O(n + m)` for the sweep and scan
//! plus `O(k log k)` for ordering the prefix, and the number of rounds
//! shrinks geometrically with the batch widths (tracked in
//! [`CoarsenStats`]).

use bsp_model::{Dag, DagView, NodeId, QuotientDag};
use std::cmp::Reverse;
use std::collections::BTreeSet;
use std::ops::Bound::{Excluded, Unbounded};
use std::time::Instant;

/// One contraction step: the cluster represented by `removed` was merged into
/// the cluster represented by `kept`.  `moved` lists the original nodes that
/// changed cluster, which is all the information needed to undo the step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Contraction {
    /// Representative (original node id) of the surviving cluster.
    pub kept: NodeId,
    /// Representative of the cluster that was absorbed.
    pub removed: NodeId,
    /// Original nodes that moved from `removed`'s cluster into `kept`'s.
    pub moved: Vec<NodeId>,
}

/// A clustering of the original DAG's nodes, produced by coarsening and
/// gradually undone while uncoarsening.
///
/// The representative list is maintained incrementally (swap-remove on
/// contraction, exact LIFO restore on uncontraction), so
/// [`Clustering::representatives`] is a slice borrow and
/// [`Clustering::quotient_dag`] needs no `O(n)` index array — both used to
/// allocate afresh on every refinement phase.
#[derive(Debug, Clone)]
pub struct Clustering {
    /// `cluster_of[v]` is the representative of the cluster containing `v`.
    cluster_of: Vec<NodeId>,
    /// Members of each cluster, indexed by representative (empty otherwise).
    members: Vec<Vec<NodeId>>,
    /// `true` for nodes that currently represent a cluster.
    active: Vec<bool>,
    /// Current representatives (deterministic but unspecified order).
    reps: Vec<NodeId>,
    /// Position of each representative inside `reps` (stale for inactive).
    rep_pos: Vec<usize>,
    /// Contraction history, oldest first.
    history: Vec<Contraction>,
}

impl Clustering {
    /// The discrete clustering: every node is its own cluster.
    pub fn identity(n: usize) -> Self {
        Clustering {
            cluster_of: (0..n).collect(),
            members: (0..n).map(|v| vec![v]).collect(),
            active: vec![true; n],
            reps: (0..n).collect(),
            rep_pos: (0..n).collect(),
            history: Vec::new(),
        }
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.reps.len()
    }

    /// Number of recorded contraction steps not yet undone.
    pub fn num_contractions(&self) -> usize {
        self.history.len()
    }

    /// The contraction steps not yet undone, oldest first.
    pub fn history(&self) -> &[Contraction] {
        &self.history
    }

    /// Representative of the cluster containing original node `v`.
    pub fn cluster_of(&self, v: NodeId) -> NodeId {
        self.cluster_of[v]
    }

    /// Representatives of all clusters, in a deterministic (but unspecified)
    /// order; entry `i` corresponds to quotient node `i` of
    /// [`Clustering::quotient_dag`].  Maintained incrementally — no per-call
    /// allocation or scan.
    pub fn representatives(&self) -> &[NodeId] {
        &self.reps
    }

    /// Quotient node index of the cluster represented by `rep`.
    pub fn rep_index(&self, rep: NodeId) -> usize {
        debug_assert!(self.active[rep]);
        self.rep_pos[rep]
    }

    /// Original members of the cluster represented by `rep`.
    pub fn members(&self, rep: NodeId) -> &[NodeId] {
        &self.members[rep]
    }

    fn contract(&mut self, kept: NodeId, removed: NodeId) {
        debug_assert!(self.active[kept] && self.active[removed] && kept != removed);
        let moved = std::mem::take(&mut self.members[removed]);
        for &v in &moved {
            self.cluster_of[v] = kept;
        }
        self.members[kept].extend_from_slice(&moved);
        self.active[removed] = false;
        // Swap-remove `removed` from the representative list; the element
        // moved into its slot gets its position fixed up.
        let pos = self.rep_pos[removed];
        self.reps.swap_remove(pos);
        if pos < self.reps.len() {
            self.rep_pos[self.reps[pos]] = pos;
        }
        self.history.push(Contraction {
            kept,
            removed,
            moved,
        });
    }

    /// Undoes the most recent contraction step.  Returns `false` when the
    /// history is empty (the clustering is already fully uncoarsened).
    pub fn uncontract_one(&mut self) -> bool {
        let Some(Contraction {
            kept,
            removed,
            moved,
        }) = self.history.pop()
        else {
            return false;
        };
        // The moved nodes were appended to `kept`'s member list, so they form
        // its tail; split them back off.
        let keep_len = self.members[kept].len() - moved.len();
        let tail = self.members[kept].split_off(keep_len);
        debug_assert_eq!(tail, moved);
        for &v in &moved {
            self.cluster_of[v] = removed;
        }
        self.members[removed] = moved;
        self.active[removed] = true;
        // Exact inverse of the swap-remove: push `removed`, then swap it back
        // into its old slot (LIFO order guarantees the old occupant of the
        // last slot is the element the swap-remove displaced).
        let pos = self.rep_pos[removed];
        self.reps.push(removed);
        let last = self.reps.len() - 1;
        if pos != last {
            self.reps.swap(pos, last);
            self.rep_pos[self.reps[last]] = last;
            self.rep_pos[self.reps[pos]] = pos;
        }
        true
    }

    /// Builds the quotient DAG of the current clustering: one node per
    /// cluster, work/communication weights summed over the members, an edge
    /// between two clusters whenever the original DAG has an edge between
    /// members of the two (`quotient_of`).  Returns the quotient DAG
    /// together with the list of representatives, where representative
    /// `reps[i]` corresponds to quotient node `i`.
    ///
    /// This is the *from-scratch* construction: the multilevel scheduler calls
    /// it once per ratio run (to hand the base pipeline an immutable [`Dag`])
    /// and the property tests use it as the reference the incremental
    /// [`QuotientDag`] must stay isomorphic to.
    pub fn quotient_dag(&self, dag: &Dag) -> (Dag, Vec<NodeId>) {
        let summed = |weight: fn(&Dag, NodeId) -> u64| -> Vec<u64> {
            let total = |&r: &NodeId| self.members[r].iter().map(|&v| weight(dag, v)).sum();
            self.reps.iter().map(total).collect()
        };
        let quotient = quotient_of(
            dag,
            |v| self.rep_pos[self.cluster_of[v]],
            summed(Dag::work),
            summed(Dag::comm),
        );
        (quotient, self.reps.clone())
    }
}

/// The quotient of `dag` under `cluster_of` (node → cluster index): one node
/// per cluster with the given weights (`work.len()` clusters), and as edge
/// list the first occurrence of every cluster pair in `dag.edges()` order.
/// That order decides the neighbour order of the coarse [`Dag`], which the
/// initializers observe, so this is the one rule every quotient in the crate
/// is built by: the coarsener passes weights summed over the members, the
/// funnel reduction ([`crate::funnel`]) a cluster's work and its root's `c`.
///
/// # Panics
///
/// Panics when the clusters do not form a DAG.
pub(crate) fn quotient_of(
    dag: &Dag,
    cluster_of: impl Fn(NodeId) -> usize,
    work: Vec<u64>,
    comm: Vec<u64>,
) -> Dag {
    let k = work.len();
    // A stable counting sort groups the crossing edges by source cluster
    // without disturbing their order inside a group, so one stamp per target
    // cluster finds the repeats of each group; the survivors are then
    // emitted in their original positions.
    let mut offset = vec![0usize; k + 1];
    let mut mapped = Vec::new();
    for (a, b) in dag.edges() {
        let (ca, cb) = (cluster_of(a), cluster_of(b));
        if ca != cb {
            offset[ca + 1] += 1;
            mapped.push((ca, cb));
        }
    }
    for c in 0..k {
        offset[c + 1] += offset[c];
    }
    let mut grouped = vec![0usize; mapped.len()];
    for (position, &(ca, _)) in mapped.iter().enumerate() {
        grouped[offset[ca]] = position;
        offset[ca] += 1;
    }
    // `offset[c]` now ends group `c`; groups are walked back to back.
    let mut first = vec![false; mapped.len()];
    let mut stamp = vec![0usize; k];
    let mut begin = 0usize;
    for (ca, &end) in offset[..k].iter().enumerate() {
        for &position in &grouped[begin..end] {
            let cb = mapped[position].1;
            if stamp[cb] != ca + 1 {
                stamp[cb] = ca + 1;
                first[position] = true;
            }
        }
        begin = end;
    }
    let mut keep = first.iter();
    mapped.retain(|_| *keep.next().expect("one flag per crossing edge"));
    Dag::from_edges(k, &mapped, work, comm).expect("the clusters form a DAG")
}

/// A coarsening result: the member-level [`Clustering`] and the structural
/// [`QuotientDag`], sharing one contraction history.  Undo steps through
/// [`Coarsening::uncontract_one`] to keep the two in sync, or split them with
/// [`Coarsening::into_parts`] when (like the multilevel engine) you only need
/// the quotient side during uncoarsening.
#[derive(Debug, Clone)]
pub struct Coarsening {
    /// Which original nodes form each cluster.
    pub clustering: Clustering,
    /// The cluster-level graph, positioned at the coarsest level.
    pub quotient: QuotientDag,
    /// Batch-round counters and phase timings of the run that produced this.
    pub stats: CoarsenStats,
}

impl Coarsening {
    /// Number of clusters at the current level.
    pub fn num_clusters(&self) -> usize {
        self.clustering.num_clusters()
    }

    /// Undoes the most recent contraction in both views.  Returns the
    /// `(kept, removed)` pair, or `None` when fully uncoarsened.
    pub fn uncontract_one(&mut self) -> Option<(NodeId, NodeId)> {
        let pair = self.quotient.uncontract_one()?;
        let undone = self.clustering.uncontract_one();
        debug_assert!(undone, "clustering and quotient histories diverged");
        Some(pair)
    }

    /// Splits the result into its parts (their histories stay aligned until
    /// one of them is uncontracted independently).
    pub fn into_parts(self) -> (Clustering, QuotientDag) {
        (self.clustering, self.quotient)
    }
}

/// Knobs of the batch coarsener.
#[derive(Debug, Clone)]
pub struct CoarsenConfig {
    /// Active-cluster count at (and below) which coarsening switches from
    /// batch rounds to the exact sequential pool tail (see the module docs).
    /// `0` disables the tail — pure batch rounds all the way to the target.
    pub tail_width: usize,
}

impl Default for CoarsenConfig {
    fn default() -> Self {
        CoarsenConfig { tail_width: 4096 }
    }
}

/// Counters and phase timings of one coarsening run, reported per round.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CoarsenStats {
    /// Rounds that applied at least one contraction.
    pub rounds: usize,
    /// Total contractions applied (equals the history length).
    pub contractions: usize,
    /// Largest batch applied in a single round.
    pub max_batch: usize,
    /// Canonical-order candidates skipped because an endpoint was already
    /// claimed by an earlier candidate of the same round.
    pub endpoint_conflicts: usize,
    /// Contractions applied by the sequential quality tail (each also counts
    /// as a width-1 round in `rounds` / `contractions`).
    pub tail_contractions: usize,
    /// Wall-clock of the rank sweeps + min-rank-successor scans.
    pub scan_seconds: f64,
    /// Wall-clock of candidate ordering + batch selection.
    pub select_seconds: f64,
    /// Wall-clock of applying batches to the quotient and clustering.
    pub apply_seconds: f64,
}

impl CoarsenStats {
    /// Aggregates another run's stats into this one (sums; `max_batch` takes
    /// the maximum), for portfolio-level reporting.
    pub fn add(&mut self, other: &CoarsenStats) {
        self.rounds += other.rounds;
        self.contractions += other.contractions;
        self.max_batch = self.max_batch.max(other.max_batch);
        self.endpoint_conflicts += other.endpoint_conflicts;
        self.tail_contractions += other.tail_contractions;
        self.scan_seconds += other.scan_seconds;
        self.select_seconds += other.select_seconds;
        self.apply_seconds += other.apply_seconds;
    }

    /// Mean batch width over the productive rounds.
    pub fn avg_batch(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.contractions as f64 / self.rounds as f64
        }
    }
}

/// A scanned candidate edge: `u`'s minimum-rank successor `v` with the
/// selection keys (merged work, source comm) frozen at scan time.
#[derive(Debug, Clone, Copy)]
struct Cand {
    u: NodeId,
    v: NodeId,
    /// Merged work weight `w(u) + w(v)`.
    key: u64,
    /// Source communication weight `c(u)`.
    comm: u64,
}

/// `u`'s candidate edge under the current ranks: the minimum-rank successor,
/// or `None` for sinks.
#[inline]
fn scan_one(quotient: &QuotientDag, u: NodeId) -> Option<Cand> {
    let v = quotient.min_rank_successor(u)?;
    Some(Cand {
        u,
        v,
        key: quotient.work(u) + quotient.work(v),
        comm: quotient.comm(u),
    })
}

/// One registered tail candidate edge: `u`'s minimum-rank successor `v`, with
/// the selection keys frozen at registration time (so index removals match).
#[derive(Debug, Clone, Copy)]
struct CandEntry {
    v: NodeId,
    /// Merged work weight `w(u) + w(v)`.
    key: u64,
    /// Source communication weight `c(u)`.
    comm: u64,
}

/// The sequential tail's candidate pool — the paper's selection rule
/// maintained incrementally, reinstated verbatim from the pre-batch
/// coarsener: candidates are split into two ordered buckets by merged work
/// weight — the `prefix` bucket holds exactly the `⌈k/3⌉` smallest — and the
/// prefix additionally carries a max-comm index, so selection is an
/// `O(log n)` lookup instead of a fresh `O(k log k)` sort per contraction.
#[derive(Debug, Default)]
struct CandidatePool {
    /// All candidates, ordered by `(merged work, node)`.
    all: BTreeSet<(u64, NodeId)>,
    /// The first-third bucket: the `⌈|all|/3⌉` smallest elements of `all`.
    prefix: BTreeSet<(u64, NodeId)>,
    /// Max-comm index over `prefix`: `(comm, merged work, node)`.
    by_comm: BTreeSet<(u64, u64, NodeId)>,
    /// Per-node registered entry (`None` for sinks / inactive nodes).
    entries: Vec<Option<CandEntry>>,
}

impl CandidatePool {
    fn new(n: usize) -> Self {
        CandidatePool {
            entries: vec![None; n],
            ..Default::default()
        }
    }

    /// Restores the bucket invariant `|prefix| = ⌈|all|/3⌉` by moving boundary
    /// elements between the buckets (`O(1)` moves amortized per update).
    fn rebalance(&mut self) {
        let target = self.all.len().div_ceil(3);
        while self.prefix.len() > target {
            let &(key, u) = self.prefix.iter().next_back().expect("non-empty");
            self.prefix.remove(&(key, u));
            let comm = self.entries[u].expect("prefix member is registered").comm;
            self.by_comm.remove(&(comm, key, u));
        }
        while self.prefix.len() < target {
            let next = match self.prefix.iter().next_back() {
                Some(&max) => self.all.range((Excluded(max), Unbounded)).next().copied(),
                None => self.all.iter().next().copied(),
            };
            let Some((key, u)) = next else { break };
            self.prefix.insert((key, u));
            let comm = self.entries[u].expect("candidate is registered").comm;
            self.by_comm.insert((comm, key, u));
        }
    }

    /// Drops `u`'s candidate, if any.
    fn remove(&mut self, u: NodeId) {
        if let Some(e) = self.entries[u].take() {
            self.all.remove(&(e.key, u));
            if self.prefix.remove(&(e.key, u)) {
                self.by_comm.remove(&(e.comm, e.key, u));
            }
        }
        self.rebalance();
    }

    /// Registers (or re-registers) `u`'s candidate edge `u -> v`.
    fn set(&mut self, u: NodeId, entry: CandEntry) {
        if let Some(e) = self.entries[u].take() {
            self.all.remove(&(e.key, u));
            if self.prefix.remove(&(e.key, u)) {
                self.by_comm.remove(&(e.comm, e.key, u));
            }
        }
        self.all.insert((entry.key, u));
        let belongs = match self.prefix.iter().next_back() {
            Some(&max) => (entry.key, u) < max,
            None => true,
        };
        if belongs {
            self.prefix.insert((entry.key, u));
            self.by_comm.insert((entry.comm, entry.key, u));
        }
        self.entries[u] = Some(entry);
        self.rebalance();
    }

    /// The paper's pick: the largest-`c(u)` candidate within the first third
    /// by merged work weight.
    fn select(&self) -> Option<(NodeId, NodeId)> {
        let &(_, _, u) = self.by_comm.iter().next_back()?;
        Some((
            u,
            self.entries[u].expect("indexed candidate is registered").v,
        ))
    }
}

/// Re-derives `u`'s candidate edge from the current quotient and updates the
/// pool: the minimum-rank successor for non-sinks, nothing for sinks and
/// inactive nodes.
fn refresh_candidate(quotient: &QuotientDag, pool: &mut CandidatePool, u: NodeId) {
    match quotient.min_rank_successor(u) {
        Some(v) => pool.set(
            u,
            CandEntry {
                v,
                key: quotient.work(u) + quotient.work(v),
                comm: quotient.comm(u),
            },
        ),
        None => pool.remove(u),
    }
}

/// Tail contractions between rank re-anchorings.  The incrementally
/// maintained ranks stay *valid* forever, but their gaps drift away from the
/// evolving quotient; re-anchoring every so many contractions keeps the
/// min-rank-successor candidates structurally meaningful.  A refresh
/// invalidates every candidate, so the pool is rebuilt afterwards.
const RANK_REFRESH_INTERVAL: usize = 32;

/// The round-based batch coarsener (see the module docs for the three-step
/// round schedule).  Drive it with [`BatchCoarsener::round`] until it returns
/// `0`, or step [`BatchCoarsener::scan_and_select`] /
/// [`BatchCoarsener::apply_pending`] separately (the tests do, to check
/// per-round invariants and that steady-state scans allocate nothing), then
/// take the result with [`BatchCoarsener::finish`].
#[derive(Debug)]
pub struct BatchCoarsener {
    clustering: Clustering,
    quotient: QuotientDag,
    target: usize,
    tail_width: usize,
    /// The sequential tail's candidate pool, built lazily on the first tail
    /// step (never, when the target sits above the tail width).
    pool: Option<CandidatePool>,
    /// Tail contractions since the last rank re-anchoring.
    since_refresh: usize,
    /// Active cluster ids, ascending; pruned in place after each apply.
    actives: Vec<NodeId>,
    /// Candidates of the current round, scanned in `actives` order.
    cands: Vec<Cand>,
    /// The selected batch `(u, v)`, in canonical application order.
    pending: Vec<(NodeId, NodeId)>,
    /// Endpoint-claim flags, cleared via `pending` after every selection.
    used: Vec<bool>,
    /// Scratch for the per-round Kahn rank sweep.
    indeg: Vec<usize>,
    kahn_queue: Vec<NodeId>,
    stats: CoarsenStats,
}

impl BatchCoarsener {
    /// Positions the coarsener at the discrete clustering of `dag`, aiming
    /// for (at most) `target_clusters` clusters.
    pub fn new(dag: &Dag, target_clusters: usize, config: &CoarsenConfig) -> Self {
        let n = dag.n();
        BatchCoarsener {
            clustering: Clustering::identity(n),
            quotient: QuotientDag::from_dag(dag),
            target: target_clusters.max(1),
            tail_width: config.tail_width,
            pool: None,
            since_refresh: 0,
            actives: (0..n).collect(),
            cands: Vec::with_capacity(n),
            pending: Vec::with_capacity(n),
            used: vec![false; n],
            indeg: Vec::with_capacity(n),
            kahn_queue: Vec::with_capacity(n),
            stats: CoarsenStats::default(),
        }
    }

    /// The current quotient graph.
    pub fn quotient(&self) -> &QuotientDag {
        &self.quotient
    }

    /// The current clustering.
    pub fn clustering(&self) -> &Clustering {
        &self.clustering
    }

    /// Stats accumulated so far.
    pub fn stats(&self) -> CoarsenStats {
        self.stats
    }

    /// Number of clusters at the current level.
    pub fn num_clusters(&self) -> usize {
        self.clustering.num_clusters()
    }

    /// Steps 1–2 of a round: re-anchor ranks, scan every active cluster for
    /// its candidate edge, and select the conflict-free batch in canonical
    /// order.  Returns the batch size; `0` means the coarsener is done (the
    /// target is reached or no contractable edge remains).
    ///
    /// With warm buffers this performs no heap allocation (the
    /// counting-allocator test holds it to that).
    pub fn scan_and_select(&mut self) -> usize {
        debug_assert!(self.pending.is_empty(), "apply the previous batch first");
        let active = self.quotient.num_active();
        // Batch rounds stop at the tail floor; [`BatchCoarsener::round`]
        // closes the remaining gap with sequential tail steps.
        let floor = self.target.max(self.tail_width);
        if active <= floor {
            return 0;
        }
        let budget = active - floor;

        let scan_start = Instant::now();
        self.quotient
            .recompute_ranks_into(&mut self.indeg, &mut self.kahn_queue);
        debug_assert_eq!(self.actives.len(), active);
        self.cands.clear();
        for &u in &self.actives {
            self.cands.extend(scan_one(&self.quotient, u));
        }
        self.stats.scan_seconds += scan_start.elapsed().as_secs_f64();

        let select_start = Instant::now();
        let kc = self.cands.len();
        if kc == 0 {
            self.stats.select_seconds += select_start.elapsed().as_secs_f64();
            return 0;
        }

        // The paper's rule, batch-wide: the first third by merged work
        // weight, walked by descending comm weight.  `(key, u)` and
        // `(comm, key, u)` are total orders (each `u` appears once), so the
        // partition and the walk order are deterministic.
        let prefix = kc.div_ceil(3);
        if prefix < kc {
            self.cands
                .select_nth_unstable_by(prefix - 1, |a, b| (a.key, a.u).cmp(&(b.key, b.u)));
        }
        self.cands[..prefix].sort_unstable_by(|a, b| {
            (Reverse(a.comm), a.key, a.u).cmp(&(Reverse(b.comm), b.key, b.u))
        });

        // Greedy endpoint-disjoint claiming in canonical order, capped so the
        // round cannot overshoot the target.  Disjointness is all batch
        // safety needs (the rank-monotonicity lemma of the module docs).
        for c in &self.cands[..prefix] {
            if self.pending.len() >= budget {
                break;
            }
            if self.used[c.u] || self.used[c.v] {
                self.stats.endpoint_conflicts += 1;
                continue;
            }
            self.used[c.u] = true;
            self.used[c.v] = true;
            self.pending.push((c.u, c.v));
        }
        for &(u, v) in &self.pending {
            self.used[u] = false;
            self.used[v] = false;
        }
        debug_assert!(!self.pending.is_empty(), "claiming emptied a batch");
        self.stats.select_seconds += select_start.elapsed().as_secs_f64();
        self.pending.len()
    }

    /// Step 3 of a round: contracts the selected batch, in canonical order,
    /// against both the quotient and the clustering.  Returns the number of
    /// contractions applied.
    pub fn apply_pending(&mut self) -> usize {
        if self.pending.is_empty() {
            return 0;
        }
        let apply_start = Instant::now();
        let mut pending = std::mem::take(&mut self.pending);
        for &(u, v) in &pending {
            // Endpoint-disjointness keeps every batch member's target its
            // source's minimum-rank successor while earlier members apply
            // (a contraction only raises the ranks a neighbour observes);
            // `QuotientDag::contract` debug-asserts exactly that.
            self.quotient.contract(u, v);
            self.clustering.contract(u, v);
        }
        let applied = pending.len();
        pending.clear();
        self.pending = pending;
        {
            let quotient = &self.quotient;
            self.actives.retain(|&u| quotient.is_active(u));
        }
        self.stats.rounds += 1;
        self.stats.contractions += applied;
        self.stats.max_batch = self.stats.max_batch.max(applied);
        self.stats.apply_seconds += apply_start.elapsed().as_secs_f64();
        applied
    }

    /// One sequential tail step: the exact pool-based coarsener the batch
    /// engine replaced on wide levels, reinstated for the basin-sensitive
    /// final stretch (see the module docs).  Selects the pool's pick,
    /// contracts it, and repairs the pool; re-anchors ranks (and rebuilds the
    /// pool) every [`RANK_REFRESH_INTERVAL`] contractions.  Returns `1`, or
    /// `0` when the target is reached or no contractable edge remains.
    fn tail_step(&mut self) -> usize {
        if self.quotient.num_active() <= self.target {
            return 0;
        }
        let n = self.used.len();
        let scan_start = Instant::now();
        if self.pool.is_none() {
            // First tail step: register every cluster's candidate under the
            // current ranks.  For a run that never batched these are the
            // construction-time ranks, so the whole run is bit-identical to
            // the sequential coarsener this tail reinstates; after batch
            // rounds they are the last round's re-anchoring plus rank
            // adoptions — exactly the mid-interval state the sequential loop
            // tolerates between its own refreshes.
            let mut pool = CandidatePool::new(n);
            for u in 0..n {
                refresh_candidate(&self.quotient, &mut pool, u);
            }
            self.pool = Some(pool);
            self.since_refresh = 0;
        }
        let pool = self.pool.as_mut().expect("pool built above");
        if self.since_refresh >= RANK_REFRESH_INTERVAL {
            self.since_refresh = 0;
            self.quotient
                .recompute_ranks_into(&mut self.indeg, &mut self.kahn_queue);
            for u in 0..n {
                refresh_candidate(&self.quotient, pool, u);
            }
        }
        self.stats.scan_seconds += scan_start.elapsed().as_secs_f64();

        let select_start = Instant::now();
        let Some((u, v)) = pool.select() else {
            self.stats.select_seconds += select_start.elapsed().as_secs_f64();
            return 0;
        };
        self.stats.select_seconds += select_start.elapsed().as_secs_f64();

        let apply_start = Instant::now();
        self.quotient.contract(u, v);
        self.clustering.contract(u, v);
        self.since_refresh += 1;
        // The absorbed cluster can no longer be a candidate source; the
        // merged cluster and everything pointing at either endpoint may have
        // a new minimum-rank successor, merged work key, or comm weight.
        pool.remove(v);
        refresh_candidate(&self.quotient, pool, u);
        for &w in self.quotient.predecessors(u) {
            refresh_candidate(&self.quotient, pool, w);
        }
        self.stats.rounds += 1;
        self.stats.contractions += 1;
        self.stats.tail_contractions += 1;
        self.stats.max_batch = self.stats.max_batch.max(1);
        self.stats.apply_seconds += apply_start.elapsed().as_secs_f64();
        1
    }

    /// One full round — a batch round above the tail floor
    /// `max(target, tail_width)`, a sequential tail step below it.  Returns
    /// the number of contractions applied; `0` means coarsening is complete.
    pub fn round(&mut self) -> usize {
        if self.quotient.num_active() > self.target.max(self.tail_width) {
            // No batch candidate means no active cluster has an out-edge at
            // all, so the tail cannot contract anything either: done.
            if self.scan_and_select() == 0 {
                return 0;
            }
            return self.apply_pending();
        }
        self.tail_step()
    }

    /// Runs any remaining rounds and returns the [`Coarsening`].
    pub fn finish(mut self) -> Coarsening {
        while self.round() > 0 {}
        Coarsening {
            clustering: self.clustering,
            quotient: self.quotient,
            stats: self.stats,
        }
    }
}

/// Coarsens `dag` down to (at most) `target_clusters` clusters, or until no
/// contractable edge remains, with explicit [`CoarsenConfig`] knobs.  Returns
/// the [`Coarsening`] — the member-level clustering (with its full
/// contraction history) plus the persistent [`QuotientDag`] positioned at the
/// coarsest level, ready to be uncoarsened step by step.
pub fn coarsen_with(dag: &Dag, target_clusters: usize, config: &CoarsenConfig) -> Coarsening {
    BatchCoarsener::new(dag, target_clusters, config).finish()
}

/// [`coarsen_with`] under the default configuration.
pub fn coarsen(dag: &Dag, target_clusters: usize) -> Coarsening {
    coarsen_with(dag, target_clusters, &CoarsenConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dag_gen::fine::{cg, spmv, IterConfig, SpmvConfig};

    fn diamond() -> Dag {
        Dag::from_edges(
            4,
            &[(0, 1), (0, 2), (1, 3), (2, 3)],
            vec![1, 2, 3, 4],
            vec![5, 6, 7, 8],
        )
        .unwrap()
    }

    #[test]
    fn identity_clustering_quotient_is_the_original_dag() {
        let dag = diamond();
        let clustering = Clustering::identity(dag.n());
        let (q, reps) = clustering.quotient_dag(&dag);
        assert_eq!(q.n(), dag.n());
        assert_eq!(q.num_edges(), dag.num_edges());
        assert_eq!(reps, vec![0, 1, 2, 3]);
        assert_eq!(q.work_weights(), dag.work_weights());
    }

    #[test]
    fn coarsening_reaches_the_target_and_preserves_weight_totals() {
        let dag = spmv(&SpmvConfig {
            n: 20,
            density: 0.25,
            seed: 1,
        });
        let target = dag.n() * 3 / 10;
        let coarsening = coarsen(&dag, target);
        let clustering = &coarsening.clustering;
        assert!(clustering.num_clusters() <= target.max(1) + 1);
        assert_eq!(clustering.num_clusters(), coarsening.quotient.num_active());
        let (q, _) = clustering.quotient_dag(&dag);
        assert_eq!(q.total_work(), dag.total_work());
        assert_eq!(q.total_comm(), dag.total_comm());
        // Quotient must be a DAG (builder would have panicked otherwise) and
        // every original node must belong to exactly one cluster.
        let mut seen = vec![false; dag.n()];
        for &rep in clustering.representatives() {
            for &v in clustering.members(rep) {
                assert!(!seen[v]);
                seen[v] = true;
            }
        }
        assert!(seen.into_iter().all(|b| b));
    }

    #[test]
    fn every_intermediate_quotient_is_acyclic() {
        let dag = cg(&IterConfig {
            n: 8,
            density: 0.3,
            iterations: 2,
            seed: 7,
        });
        let mut coarsening = coarsen(&dag, dag.n() / 5);
        // Walk the whole uncoarsening path; quotient_dag panics on a cycle.
        loop {
            let (q, _) = coarsening.clustering.quotient_dag(&dag);
            assert!(q.topological_order().is_some());
            if coarsening.uncontract_one().is_none() {
                break;
            }
        }
        assert_eq!(coarsening.num_clusters(), dag.n());
    }

    #[test]
    fn uncontracting_everything_restores_the_identity_clustering() {
        let dag = spmv(&SpmvConfig {
            n: 12,
            density: 0.3,
            seed: 3,
        });
        let mut coarsening = coarsen(&dag, 3);
        while coarsening.uncontract_one().is_some() {}
        let clustering = &coarsening.clustering;
        for v in 0..dag.n() {
            assert_eq!(clustering.cluster_of(v), v);
            assert_eq!(clustering.members(v), &[v]);
        }
        assert_eq!(clustering.num_clusters(), dag.n());
        assert_eq!(clustering.num_contractions(), 0);
        assert_eq!(coarsening.quotient.num_contractions(), 0);
    }

    #[test]
    fn representative_indexing_is_consistent_after_every_step() {
        let dag = cg(&IterConfig {
            n: 10,
            density: 0.3,
            iterations: 2,
            seed: 13,
        });
        let mut coarsening = coarsen(&dag, 4);
        loop {
            let clustering = &coarsening.clustering;
            let reps = clustering.representatives();
            assert_eq!(reps.len(), clustering.num_clusters());
            for (i, &r) in reps.iter().enumerate() {
                assert_eq!(clustering.rep_index(r), i, "rep {r} mis-indexed");
            }
            if coarsening.uncontract_one().is_none() {
                break;
            }
        }
    }

    #[test]
    fn chain_contracts_to_a_single_cluster() {
        let dag = Dag::from_edge_list_unit_weights(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let coarsening = coarsen(&dag, 1);
        assert_eq!(coarsening.num_clusters(), 1);
        let (q, _) = coarsening.clustering.quotient_dag(&dag);
        assert_eq!(q.n(), 1);
        assert_eq!(q.total_work(), 5);
    }

    #[test]
    fn graph_without_edges_cannot_be_coarsened() {
        let dag = Dag::from_edge_list_unit_weights(4, &[]).unwrap();
        let coarsening = coarsen(&dag, 1);
        assert_eq!(coarsening.num_clusters(), 4);
        assert_eq!(coarsening.stats.contractions, 0);
    }

    #[test]
    fn incremental_quotient_matches_the_from_scratch_build_while_uncoarsening() {
        let dag = cg(&IterConfig {
            n: 9,
            density: 0.35,
            iterations: 2,
            seed: 21,
        });
        let mut coarsening = coarsen(&dag, dag.n() / 4);
        loop {
            let clustering = &coarsening.clustering;
            let quotient = &coarsening.quotient;
            let (reference, reps) = clustering.quotient_dag(&dag);
            assert_eq!(quotient.num_active(), reference.n());
            // Same nodes with the same summed weights...
            for (i, &r) in reps.iter().enumerate() {
                assert!(quotient.is_active(r));
                assert_eq!(quotient.work(r), reference.work(i), "work of rep {r}");
                assert_eq!(quotient.comm(r), reference.comm(i), "comm of rep {r}");
            }
            // ...and the same edge set (multiplicities collapsed).
            let mut incr: Vec<(usize, usize)> = quotient
                .edges()
                .map(|(a, b, _)| (clustering.rep_index(a), clustering.rep_index(b)))
                .collect();
            incr.sort_unstable();
            let mut refr: Vec<(usize, usize)> = reference.edges().collect();
            refr.sort_unstable();
            assert_eq!(incr, refr);
            if coarsening.uncontract_one().is_none() {
                break;
            }
        }
    }

    #[test]
    fn batch_rounds_never_overshoot_the_target() {
        let dag = spmv(&SpmvConfig {
            n: 60,
            density: 0.15,
            seed: 5,
        });
        for target in [1, 2, 7, 20, 45] {
            // `tail_width: 0` so the overshoot guard under test is the batch
            // budget cap, not the one-at-a-time tail.
            let mut c = BatchCoarsener::new(&dag, target, &CoarsenConfig { tail_width: 0 });
            while c.round() > 0 {
                assert!(c.num_clusters() >= target, "target {target} overshot");
            }
            let stats = c.stats();
            let done = c.finish();
            assert!(done.num_clusters() >= target.max(1));
            assert_eq!(stats.contractions, dag.n() - done.num_clusters());
        }
    }

    #[test]
    fn stats_count_rounds_and_batches_consistently() {
        let dag = spmv(&SpmvConfig {
            n: 50,
            density: 0.2,
            seed: 9,
        });
        let coarsening = coarsen(&dag, 10);
        let s = coarsening.stats;
        assert_eq!(s.contractions, coarsening.clustering.num_contractions());
        assert!(s.rounds >= 1);
        assert!(s.max_batch >= 1);
        assert!(s.max_batch <= s.contractions);
        assert!(s.avg_batch() >= 1.0);
    }

    #[test]
    fn hybrid_tail_engages_below_the_tail_width_and_the_stats_account_for_it() {
        let dag = spmv(&SpmvConfig {
            n: 300,
            density: 0.05,
            seed: 23,
        });
        let (target, tail_width) = (40, 120);
        let mut c = coarsen_with(&dag, target, &CoarsenConfig { tail_width });
        assert_eq!(c.num_clusters(), target, "instance must reach the target");
        let s = c.stats;
        // Batch rounds stop exactly at the tail floor; the sequential tail
        // closes the remaining gap one contraction at a time.
        assert_eq!(s.tail_contractions, tail_width - target);
        assert_eq!(s.contractions, dag.n() - target);
        assert!(s.max_batch > 1, "batch phase never ran");
        // The mixed history unwinds cleanly back to the identity clustering.
        while c.uncontract_one().is_some() {}
        assert_eq!(c.num_clusters(), dag.n());
        assert_eq!(c.clustering.num_contractions(), 0);

        let pure_batch = coarsen_with(&dag, target, &CoarsenConfig { tail_width: 0 });
        assert_eq!(pure_batch.stats.tail_contractions, 0);
    }
}
