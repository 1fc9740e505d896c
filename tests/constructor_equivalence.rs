//! Differential tests for the schedule-construction layer.
//!
//! `BSPg`, `Source`, the `Cilk` simulation, the list schedulers, `HDagg`,
//! the classical→BSP conversion and the lazy communication schedule were
//! rewritten from their textbook (quadratic) form to near-linear time under
//! the promise that their output does not change by a single bit.  The
//! [`oracle`] module below keeps the replaced routines verbatim; every test
//! asserts that the library's constructors return exactly the oracle's
//! `Assignment` / `ClassicalSchedule` / `BspSchedule`.  `Source`'s
//! old form lives in [`common::reference_source`] and applies the same
//! first-superstep cluster bound as the library: the claim is "the
//! near-linear constructor equals the straightforward one", not "clusters
//! are unbounded".

mod common;

use bsp_model::{ClassicalSchedule, Dag, Machine};
use bsp_sched::baselines::{BlEstScheduler, CilkScheduler, EtfScheduler, HDaggScheduler};
use bsp_sched::init::{BspgScheduler, SourceScheduler};
use bsp_sched::Scheduler;
use common::reference_source::{source_assignment, source_assignment_unbounded};
use common::rng_for_case;
use dag_gen::{cg, coarse_dag, exp, spmv, CoarseAlgorithm, CoarseConfig, IterConfig, SpmvConfig};
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// The constructors as they were before the rewrite, moved here unchanged
/// (methods became free functions; nothing else differs).
mod oracle {
    use bsp_model::{Assignment, BspSchedule, ClassicalSchedule, CommSchedule, Dag, Machine};
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::collections::{BTreeMap, BTreeSet};

    /// `BspgScheduler::assignment`.
    pub fn bspg_assignment(dag: &Dag, machine: &Machine) -> Assignment {
        let n = dag.n();
        let p = machine.p();
        let mut proc = vec![usize::MAX; n];
        let mut superstep_of = vec![usize::MAX; n];
        if n == 0 {
            return Assignment {
                proc: vec![],
                superstep: vec![],
            };
        }

        let mut unfinished_preds: Vec<usize> = (0..n).map(|v| dag.in_degree(v)).collect();
        // Nodes with all predecessors finished, not yet assigned.
        let mut ready: BTreeSet<usize> = dag.sources().into_iter().collect();
        // Nodes assignable to a specific processor within the current superstep.
        let mut ready_proc: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); p];
        // Nodes assignable to every processor within the current superstep.
        let mut ready_all: BTreeSet<usize> = ready.clone();

        let mut superstep = 0usize;
        let mut end_step = false;
        let mut free = vec![true; p];
        // finish events of the current superstep: time -> nodes finishing then.
        let mut finish_events: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        finish_events.insert(0, Vec::new());
        let mut assigned = 0usize;

        // Score of assigning `v` to processor `q` (higher is better).
        let score = |v: usize, q: usize, proc: &[usize]| -> f64 {
            let mut s = 0.0;
            for u in dag.predecessors(v) {
                let u_here = proc[u] == q;
                let succ_here = dag.successors(u).any(|w| proc[w] == q);
                if u_here || succ_here {
                    s += dag.comm(u) as f64 / dag.out_degree(u).max(1) as f64;
                }
            }
            s
        };

        while assigned < n {
            if end_step && finish_events.is_empty() {
                // Start the next superstep.
                for set in &mut ready_proc {
                    set.clear();
                }
                ready_all = ready.clone();
                superstep += 1;
                end_step = false;
                finish_events.insert(0, Vec::new());
                free.iter_mut().for_each(|f| *f = true);
            }

            // Pop the earliest finish time of the current superstep.
            let (t, finishing) = finish_events
                .pop_first()
                .expect("finish event queue cannot be empty here");

            for &v in &finishing {
                free[proc[v]] = true;
                for u in dag.successors(v) {
                    unfinished_preds[u] -= 1;
                    if unfinished_preds[u] == 0 {
                        ready.insert(u);
                        let assignable_here = dag
                            .predecessors(u)
                            .all(|u0| proc[u0] == proc[v] || superstep_of[u0] < superstep);
                        if assignable_here {
                            ready_proc[proc[v]].insert(u);
                        }
                    }
                }
            }

            if !end_step {
                loop {
                    // A free processor that can still receive a node.
                    let candidate = (0..p)
                        .find(|&q| free[q] && (!ready_proc[q].is_empty() || !ready_all.is_empty()));
                    let Some(q) = candidate else { break };
                    let pool: Vec<usize> = if !ready_proc[q].is_empty() {
                        ready_proc[q].iter().copied().collect()
                    } else {
                        ready_all.iter().copied().collect()
                    };
                    let v = pool
                        .into_iter()
                        .map(|v| (v, score(v, q, &proc)))
                        .max_by(|a, b| {
                            a.1.partial_cmp(&b.1)
                                .unwrap_or(std::cmp::Ordering::Equal)
                                .then(b.0.cmp(&a.0))
                        })
                        .map(|(v, _)| v)
                        .expect("pool is non-empty");
                    ready.remove(&v);
                    ready_all.remove(&v);
                    for set in &mut ready_proc {
                        set.remove(&v);
                    }
                    proc[v] = q;
                    superstep_of[v] = superstep;
                    assigned += 1;
                    finish_events.entry(t + dag.work(v)).or_default().push(v);
                    free[q] = false;
                }
            }

            // Close the computation phase when at least half the processors are
            // idle and no node is assignable to every processor.
            let idle = (0..p).filter(|&q| free[q]).count();
            if ready_all.is_empty() && 2 * idle >= p {
                end_step = true;
            }
        }

        crate::common::narrow_assignment(&proc, &superstep_of)
    }

    /// `ClassicalSchedule::to_bsp_assignment`.
    pub fn to_bsp_assignment(cs: &ClassicalSchedule, dag: &Dag) -> Assignment {
        let n = cs.n();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&v| (cs.start[v], v));

        let mut superstep = vec![usize::MAX; n];
        let mut current = 0usize;
        let mut remaining: Vec<usize> = order.clone();
        while !remaining.is_empty() {
            // Earliest start time t of an unassigned node with an unassigned
            // predecessor on a different processor.
            let mut cut: Option<u64> = None;
            for &v in &remaining {
                let blocked = dag
                    .predecessors(v)
                    .any(|u| superstep[u] == usize::MAX && cs.proc[u] != cs.proc[v]);
                if blocked {
                    cut = Some(cs.start[v]);
                    break;
                }
            }
            match cut {
                None => {
                    // No more communication needed: everything left goes into
                    // the current superstep.
                    for &v in &remaining {
                        superstep[v] = current;
                    }
                    remaining.clear();
                }
                Some(t) => {
                    let (now, later): (Vec<usize>, Vec<usize>) =
                        remaining.iter().partition(|&&v| cs.start[v] < t);
                    if now.is_empty() {
                        // Degenerate case (zero-length predecessors starting at
                        // the same instant): force progress by taking the first
                        // remaining node whose predecessors all have a superstep.
                        let ready = remaining
                            .iter()
                            .position(|&v| dag.predecessors(v).all(|u| superstep[u] != usize::MAX))
                            .expect("an acyclic DAG has a ready node");
                        let v = remaining.remove(ready);
                        superstep[v] = current;
                    } else {
                        for &v in &now {
                            superstep[v] = current;
                        }
                        remaining = later;
                    }
                    current += 1;
                }
            }
        }
        crate::common::narrow_assignment(&cs.proc, &superstep)
    }

    /// `CommSchedule::lazy`: the requirements, mapped, sorted and deduplicated.
    pub fn lazy(dag: &Dag, assignment: &Assignment) -> CommSchedule {
        let steps = CommSchedule::requirements(dag, assignment)
            .iter()
            .map(|r| r.send_at(r.latest_step()))
            .collect();
        CommSchedule::from_steps(steps)
    }

    /// The assignment with the old lazy `Γ`, normalized: how both
    /// `ClassicalSchedule::to_bsp` and `HDaggScheduler::schedule` end.
    fn normalized_lazy(dag: &Dag, assignment: Assignment) -> BspSchedule {
        let comm = lazy(dag, &assignment);
        let mut sched = BspSchedule { assignment, comm };
        sched.normalize(dag);
        sched
    }

    /// `ClassicalSchedule::to_bsp`.
    pub fn to_bsp(cs: &ClassicalSchedule, dag: &Dag) -> BspSchedule {
        normalized_lazy(dag, to_bsp_assignment(cs, dag))
    }

    /// `HDaggScheduler::schedule`.
    pub fn hdagg_schedule(balance_slack: f64, dag: &Dag, machine: &Machine) -> BspSchedule {
        if dag.n() == 0 {
            return BspSchedule::trivial(dag);
        }
        let (proc, levels) = hdagg_assign(balance_slack, dag, machine);
        let superstep = hdagg_aggregate(dag, &proc, &levels);
        normalized_lazy(dag, Assignment { proc, superstep })
    }

    /// `HDaggScheduler::assign`.
    fn hdagg_assign(balance_slack: f64, dag: &Dag, machine: &Machine) -> (Vec<u32>, Vec<usize>) {
        let n = dag.n();
        let p = machine.p();
        let levels = dag.levels();
        let num_levels = levels.iter().copied().max().map_or(0, |l| l + 1);
        let mut wavefronts: Vec<Vec<usize>> = vec![Vec::new(); num_levels];
        for v in 0..n {
            wavefronts[levels[v]].push(v);
        }

        let mut proc = vec![0u32; n];
        for wavefront in &wavefronts {
            let total_work: u64 = wavefront.iter().map(|&v| dag.work(v)).sum();
            let ideal = (total_work as f64 / p as f64).max(1.0);
            let mut load = vec![0u64; p];
            // Heaviest nodes first, so load balancing has room to correct.
            let mut order = wavefront.clone();
            order.sort_by_key(|&v| std::cmp::Reverse(dag.work(v)));
            for v in order {
                // Affinity: communication weight of predecessors already
                // placed on each processor.
                let mut affinity = vec![0u64; p];
                for u in dag.predecessors(v) {
                    affinity[proc[u] as usize] += dag.comm(u);
                }
                let within_slack =
                    |q: usize| (load[q] + dag.work(v)) as f64 <= ideal * balance_slack;
                // Best-affinity processor that still respects the balance
                // slack; fall back to the least-loaded processor.
                let candidate = (0..p)
                    .filter(|&q| within_slack(q))
                    .max_by_key(|&q| (affinity[q], std::cmp::Reverse(load[q])));
                let q = candidate.unwrap_or_else(|| {
                    (0..p)
                        .min_by_key(|&q| (load[q], std::cmp::Reverse(affinity[q])))
                        .expect("at least one processor")
                });
                proc[v] = q as u32;
                load[q] += dag.work(v);
            }
        }
        (proc, levels)
    }

    /// `HDaggScheduler::aggregate`.
    fn hdagg_aggregate(dag: &Dag, proc: &[u32], levels: &[usize]) -> Vec<u32> {
        let n = dag.n();
        let num_levels = levels.iter().copied().max().map_or(0, |l| l + 1);
        let mut level_nodes: Vec<Vec<usize>> = vec![Vec::new(); num_levels];
        for v in 0..n {
            level_nodes[levels[v]].push(v);
        }
        let mut level_to_superstep = vec![0u32; num_levels];
        let mut current = 0u32;
        let mut current_first_level = 0usize;
        for l in 0..num_levels {
            if l > 0 {
                // Can level l join the superstep started at current_first_level?
                let conflict = level_nodes[l].iter().any(|&v| {
                    dag.predecessors(v)
                        .any(|u| levels[u] >= current_first_level && proc[u] != proc[v])
                });
                if conflict {
                    current += 1;
                    current_first_level = l;
                }
            }
            level_to_superstep[l] = current;
        }
        (0..n).map(|v| level_to_superstep[levels[v]]).collect()
    }

    /// `CilkScheduler::classical_schedule`.
    pub fn cilk_classical_schedule(seed: u64, dag: &Dag, machine: &Machine) -> ClassicalSchedule {
        let n = dag.n();
        let p = machine.p();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);

        let mut remaining_preds: Vec<usize> = (0..n).map(|v| dag.in_degree(v)).collect();
        // Per-processor stack of ready tasks.
        let mut stacks: Vec<Vec<usize>> = vec![Vec::new(); p];
        // All sources start on processor 0's stack (in reverse topological-rank
        // order so the "oldest" task sits at the bottom, available to thieves).
        let mut sources = dag.sources();
        sources.reverse();
        stacks[0].extend(sources);

        // Per-processor state: what it is running and until when.
        let mut busy_until: Vec<Option<(u64, usize)>> = vec![None; p];
        let mut start = vec![0u64; n];
        let mut proc = vec![0usize; n];
        let mut finished = 0usize;
        let mut now = 0u64;

        while finished < n {
            // 1. Hand work to idle processors.
            loop {
                let mut progress = false;
                for q in 0..p {
                    if busy_until[q].is_some() {
                        continue;
                    }
                    let task = if let Some(v) = stacks[q].pop() {
                        Some(v)
                    } else {
                        // Steal from the bottom of a random non-empty stack.
                        let victims: Vec<usize> = (0..p)
                            .filter(|&r| r != q && !stacks[r].is_empty())
                            .collect();
                        victims
                            .choose(&mut rng)
                            .map(|&victim| stacks[victim].remove(0))
                    };
                    if let Some(v) = task {
                        start[v] = now;
                        proc[v] = q;
                        busy_until[q] = Some((now + dag.work(v), v));
                        progress = true;
                    }
                }
                if !progress {
                    break;
                }
            }

            // 2. Advance time to the next completion.
            let next = busy_until
                .iter()
                .filter_map(|b| b.map(|(t, _)| t))
                .min()
                .expect("deadlock: no processor is busy but nodes remain");
            now = next;

            // 3. Finish everything completing at `now`; newly ready successors
            //    go on top of the finishing processor's stack.
            for q in 0..p {
                if let Some((t, v)) = busy_until[q] {
                    if t == now {
                        busy_until[q] = None;
                        finished += 1;
                        for w in dag.successors(v) {
                            remaining_preds[w] -= 1;
                            if remaining_preds[w] == 0 {
                                stacks[q].push(w);
                            }
                        }
                    }
                }
            }
        }
        ClassicalSchedule::new(proc, start)
    }

    /// Node-selection rule of a list scheduler.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Selection {
        BottomLevelFirst,
        EarliestTaskFirst,
    }

    fn comm_delay(dag: &Dag, machine: &Machine, u: usize) -> u64 {
        // Baselines fold NUMA into an average coefficient (Appendix A.1); in the
        // uniform case avg_lambda < 1 because of the zero diagonal, so clamp to 1.
        let factor = machine.avg_lambda().max(1.0);
        (dag.comm(u) as f64 * machine.g() as f64 * factor).round() as u64
    }

    /// Runs the list scheduler and returns the classical schedule.
    pub fn list_schedule(dag: &Dag, machine: &Machine, selection: Selection) -> ClassicalSchedule {
        let n = dag.n();
        let p = machine.p();
        let bottom_level = dag.bottom_level();

        let mut remaining_preds: Vec<usize> = (0..n).map(|v| dag.in_degree(v)).collect();
        let mut ready: Vec<usize> = dag.sources();
        let mut proc_free = vec![0u64; p];
        let mut start = vec![0u64; n];
        let mut proc = vec![usize::MAX; n];
        let mut finish = vec![0u64; n];
        let mut scheduled = 0usize;

        // Earliest start time of node v on processor q given current assignments.
        let est = |v: usize, q: usize, proc: &[usize], finish: &[u64], proc_free: &[u64]| -> u64 {
            let mut t = proc_free[q];
            for u in dag.predecessors(v) {
                let arrival = if proc[u] == q {
                    finish[u]
                } else {
                    finish[u] + comm_delay(dag, machine, u)
                };
                t = t.max(arrival);
            }
            t
        };

        while scheduled < n {
            debug_assert!(!ready.is_empty(), "ready list empty with nodes remaining");
            // Select (node, processor).
            let (v, q, t) = match selection {
                Selection::BottomLevelFirst => {
                    // Highest bottom level first (ties: smaller node id).
                    let &v = ready
                        .iter()
                        .max_by_key(|&&v| (bottom_level[v], std::cmp::Reverse(v)))
                        .expect("ready list is non-empty");
                    let (q, t) = (0..p)
                        .map(|q| (q, est(v, q, &proc, &finish, &proc_free)))
                        .min_by_key(|&(q, t)| (t, q))
                        .expect("at least one processor");
                    (v, q, t)
                }
                Selection::EarliestTaskFirst => {
                    let mut best: Option<(u64, std::cmp::Reverse<u64>, usize, usize)> = None;
                    for &v in &ready {
                        for q in 0..p {
                            let t = est(v, q, &proc, &finish, &proc_free);
                            let key = (t, std::cmp::Reverse(bottom_level[v]), v, q);
                            if best.is_none_or(|b| key < b) {
                                best = Some(key);
                            }
                        }
                    }
                    let (t, _, v, q) = best.expect("ready list is non-empty");
                    (v, q, t)
                }
            };

            // Place the node.
            ready.retain(|&x| x != v);
            proc[v] = q;
            start[v] = t;
            finish[v] = t + dag.work(v);
            proc_free[q] = finish[v];
            scheduled += 1;
            for w in dag.successors(v) {
                remaining_preds[w] -= 1;
                if remaining_preds[w] == 0 {
                    ready.push(w);
                }
            }
        }
        ClassicalSchedule::new(proc, start)
    }
}

/// Every processor count of the issue, as a uniform and as a NUMA machine.
fn machines() -> Vec<Machine> {
    let mut out = Vec::new();
    for p in [1usize, 2, 4, 8] {
        out.push(Machine::uniform(p, 3, 5));
        out.push(Machine::numa_binary_tree(p, 2, 5, 3));
    }
    out
}

/// What a random DAG is made to stress.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Sparse layered DAG, random weights.
    Layered,
    /// A few long chains with rare cross links: one superstep per node in
    /// `BSPg`, long pull-in chains in `Source`.
    Chains,
    /// Hubs fanning out to, and joining from, many nodes.
    Fans,
    /// `Layered` with every work and communication weight 1, so `BSPg`
    /// scores tie and the id tie-break decides.
    Ties,
    /// `Layered` with a third of the nodes of work 0: nodes start at the
    /// instant their predecessor does, which is what sends the conversion
    /// into its degenerate branch.
    ZeroWork,
}

const SHAPES: [Shape; 5] = [
    Shape::Layered,
    Shape::Chains,
    Shape::Fans,
    Shape::Ties,
    Shape::ZeroWork,
];

/// A random DAG of `shape`.  Node ids are shuffled, so an edge may run from
/// a larger id to a smaller one.
fn random_dag(rng: &mut ChaCha8Rng, shape: Shape) -> Dag {
    let n = rng.gen_range(2usize..=70);
    let mut edges: Vec<(usize, usize)> = Vec::new();
    match shape {
        Shape::Layered | Shape::Ties | Shape::ZeroWork => {
            let width = rng.gen_range(1usize..=8);
            for v in width..n {
                let layer_start = (v / width - 1) * width;
                for u in layer_start..layer_start + width {
                    if rng.gen_bool(0.35) {
                        edges.push((u, v));
                    }
                }
            }
        }
        Shape::Chains => {
            let chains = rng.gen_range(1usize..=4);
            for v in chains..n {
                edges.push((v - chains, v));
                if v > chains && rng.gen_bool(0.1) {
                    edges.push((v - chains - 1, v));
                }
            }
        }
        Shape::Fans => {
            let span = rng.gen_range(3usize..=12);
            let mut hub = 0;
            while hub + span + 1 < n {
                for v in hub + 1..=hub + span {
                    edges.push((hub, v));
                    edges.push((v, hub + span + 1));
                }
                hub += span + 1;
            }
        }
    }
    let mut label: Vec<usize> = (0..n).collect();
    label.shuffle(rng);
    for e in &mut edges {
        *e = (label[e.0], label[e.1]);
    }
    let (work, comm): (Vec<u64>, Vec<u64>) = match shape {
        Shape::Ties => (vec![1; n], vec![1; n]),
        Shape::ZeroWork => (0..n)
            .map(|_| {
                let work = if rng.gen_bool(0.33) {
                    0
                } else {
                    rng.gen_range(1u64..4)
                };
                (work, rng.gen_range(0u64..4))
            })
            .unzip(),
        _ => (0..n)
            .map(|_| (rng.gen_range(1u64..20), rng.gen_range(0u64..10)))
            .unzip(),
    };
    Dag::from_edges(n, &edges, work, comm).expect("edges follow one topological order")
}

/// The list schedulers against their oracle, with the conversion and the
/// lazy communication schedule of their output.
fn assert_list_schedulers_match(dag: &Dag, machine: &Machine, what: &str) {
    let classical = [
        (
            "BL-EST",
            BlEstScheduler.classical_schedule(dag, machine),
            oracle::list_schedule(dag, machine, oracle::Selection::BottomLevelFirst),
        ),
        (
            "ETF",
            EtfScheduler.classical_schedule(dag, machine),
            oracle::list_schedule(dag, machine, oracle::Selection::EarliestTaskFirst),
        ),
    ];
    assert_classical_match(&classical, dag, what);
}

/// Each `(name, library, oracle)` classical schedule equal, and equal again
/// after the conversion, with and without its lazy communication schedule.
fn assert_classical_match(
    classical: &[(&str, ClassicalSchedule, ClassicalSchedule)],
    dag: &Dag,
    what: &str,
) {
    for (name, new, old) in classical {
        assert_eq!(new, old, "{name} differs on {what}");
        assert_eq!(
            new.to_bsp_assignment(dag),
            oracle::to_bsp_assignment(old, dag),
            "conversion of {name} differs on {what}"
        );
        assert_eq!(
            new.to_bsp(dag),
            oracle::to_bsp(old, dag),
            "BSP schedule of {name} differs on {what}"
        );
    }
}

/// Asserts that every constructor agrees with its oracle on `(dag, machine)`.
fn assert_all_match(dag: &Dag, machine: &Machine, what: &str) {
    assert_eq!(
        BspgScheduler.assignment(dag, machine),
        oracle::bspg_assignment(dag, machine),
        "BSPg differs on {what}"
    );
    assert_eq!(
        SourceScheduler.assignment(dag, machine),
        source_assignment(dag, machine),
        "Source differs on {what}"
    );
    let classical = [
        (
            "Cilk",
            CilkScheduler::default().classical_schedule(dag, machine),
            oracle::cilk_classical_schedule(CilkScheduler::default().seed, dag, machine),
        ),
        (
            "Cilk(seed 7)",
            CilkScheduler::new(7).classical_schedule(dag, machine),
            oracle::cilk_classical_schedule(7, dag, machine),
        ),
    ];
    assert_classical_match(&classical, dag, what);
    assert_list_schedulers_match(dag, machine, what);
    let hdagg = HDaggScheduler::default();
    assert_eq!(
        hdagg.schedule(dag, machine),
        oracle::hdagg_schedule(hdagg.balance_slack, dag, machine),
        "HDagg differs on {what}"
    );
}

#[test]
fn constructors_match_the_oracle_on_random_dags() {
    let machines = machines();
    let (mut dags, mut bound_binds) = (0, 0);
    for (s, &shape) in SHAPES.iter().enumerate() {
        for case in 0..44 {
            let mut rng = rng_for_case(0xC0_57 + s as u64, case);
            let dag = random_dag(&mut rng, shape);
            dags += 1;
            for machine in &machines {
                let what = format!(
                    "{shape:?} case {case} (n = {}), P = {}, numa = {}",
                    dag.n(),
                    machine.p(),
                    machine.is_numa()
                );
                assert_all_match(&dag, machine, &what);
                let bounded = source_assignment(&dag, machine);
                bound_binds += usize::from(bounded != source_assignment_unbounded(&dag, machine));
            }
        }
    }
    assert!(dags >= 200, "the issue asks for at least 200 DAGs");
    // `Source` was held to the oracle where its cluster bound decides, too.
    assert!(
        bound_binds >= 20,
        "the bound decided only {bound_binds} inputs"
    );
}

/// How often `HDagg`'s balance slack shut out some of the `p` processors
/// (`binds`) and all of them (`fallbacks`, the least-loaded rule) while it
/// assigned `proc`, replayed wavefront by wavefront.
fn hdagg_slack_events(dag: &Dag, p: usize, slack: f64, proc: &[u32]) -> (usize, usize) {
    let levels = dag.levels();
    let mut wavefronts = vec![Vec::new(); levels.iter().max().map_or(0, |l| l + 1)];
    for (v, &l) in levels.iter().enumerate() {
        wavefronts[l].push(v);
    }
    let (mut binds, mut fallbacks) = (0, 0);
    for mut wavefront in wavefronts {
        let total: u64 = wavefront.iter().map(|&v| dag.work(v)).sum();
        let limit = (total as f64 / p as f64).max(1.0) * slack;
        wavefront.sort_by_key(|&v| std::cmp::Reverse(dag.work(v)));
        let mut load = vec![0u64; p];
        for v in wavefront {
            let fit = (load.iter())
                .filter(|&&l| (l + dag.work(v)) as f64 <= limit)
                .count();
            binds += usize::from(0 < fit && fit < p);
            fallbacks += usize::from(fit == 0);
            load[proc[v] as usize] += dag.work(v);
        }
    }
    (binds, fallbacks)
}

/// `HDagg` where its choices tie: every work and communication weight of a
/// DAG equal, so wavefronts order by id alone and affinities tie, under a
/// slack that binds as soon as a processor passes its share (1.0) and one
/// that leaves room (2.0), on 1, 3 and 8 processors.
#[test]
fn hdagg_matches_the_oracle_where_everything_ties() {
    let (mut binds, mut fallbacks) = (0, 0);
    for case in 0..60 {
        let mut rng = rng_for_case(0x4DA6, case);
        let shape = if case % 2 == 0 {
            Shape::Ties
        } else {
            Shape::Fans
        };
        let unit = random_dag(&mut rng, shape);
        let (n, weight) = (unit.n(), [1u64, 2, 5][case as usize % 3]);
        let edges: Vec<(usize, usize)> = unit.edges().collect();
        let dag = Dag::from_edges(n, &edges, vec![weight; n], vec![weight; n]).unwrap();
        for slack in [1.0, 2.0] {
            for p in [1, 3, 8] {
                let machine = Machine::uniform(p, 3, 5);
                let sched = HDaggScheduler {
                    balance_slack: slack,
                }
                .schedule(&dag, &machine);
                assert_eq!(
                    sched,
                    oracle::hdagg_schedule(slack, &dag, &machine),
                    "case {case} (n = {n}, weight {weight}), slack {slack}, P = {p}"
                );
                let events = hdagg_slack_events(&dag, p, slack, &sched.assignment.proc);
                binds += events.0;
                fallbacks += events.1;
            }
        }
    }
    assert!(
        binds >= 1000 && fallbacks >= 500,
        "the slack bound {binds} choices and ruled out every processor {fallbacks} times"
    );
}

/// The smallest input on which `Source`'s cluster bound binds: four unit
/// sources that all feed both sinks.  Unbounded they are one cluster and the
/// pull-in makes the schedule the one-processor one; bounded at
/// `⌈4 / 2⌉ = 2` they are two clusters on two processors.
#[test]
fn source_splits_a_cluster_at_the_bound_and_matches_the_oracle_there() {
    let edges: Vec<(usize, usize)> = (0..4).flat_map(|u| [(u, 4), (u, 5)]).collect();
    let dag = Dag::from_edge_list_unit_weights(6, &edges).unwrap();
    let machine = Machine::uniform(2, 3, 5);
    let unbounded = source_assignment_unbounded(&dag, &machine);
    assert_eq!(unbounded.proc, vec![0; 6]);
    let bounded = source_assignment(&dag, &machine);
    assert_eq!(bounded.proc[..4], [0, 0, 1, 1]);
    assert_eq!(SourceScheduler.assignment(&dag, &machine), bounded);
}

/// The conversion takes any `(proc, start)` pair, consistent or not, so it
/// is also compared on random ones: few distinct start times make ties, and
/// ties on a blocked first node are the degenerate branch.
#[test]
fn conversion_matches_the_oracle_on_arbitrary_classical_schedules() {
    for (s, &shape) in SHAPES.iter().enumerate() {
        for case in 0..60 {
            let mut rng = rng_for_case(0x70_B5 + s as u64, case);
            let dag = random_dag(&mut rng, shape);
            let p = 1 << rng.gen_range(0usize..=3);
            let horizon = rng.gen_range(1u64..=6);
            let cs = ClassicalSchedule::new(
                (0..dag.n()).map(|_| rng.gen_range(0..p)).collect(),
                (0..dag.n()).map(|_| rng.gen_range(0..horizon)).collect(),
            );
            assert_eq!(
                cs.to_bsp_assignment(&dag),
                oracle::to_bsp_assignment(&cs, &dag),
                "{shape:?} case {case}, P = {p}, horizon = {horizon}"
            );
        }
    }
}

/// The smallest input that takes the degenerate branch: node 0 starts at the
/// same instant as its zero-work predecessor 1 on the other processor, sorts
/// before it, and is blocked with nothing before it to cut off.  The branch
/// takes node 1, the first node with every predecessor placed, so node 0
/// follows it a superstep later and the schedule is valid.
#[test]
fn conversion_keeps_the_degenerate_branch() {
    let dag = Dag::from_edges(2, &[(1, 0)], vec![1, 0], vec![1, 1]).unwrap();
    let cs = ClassicalSchedule::new(vec![0, 1], vec![0, 0]);
    let converted = cs.to_bsp_assignment(&dag);
    assert_eq!(converted, oracle::to_bsp_assignment(&cs, &dag));
    assert_eq!(converted.superstep, vec![1, 0]);
    let machine = Machine::uniform(2, 1, 1);
    assert_eq!(cs.to_bsp(&dag).validate(&dag, &machine), Ok(()));
}

/// Every family of the benchmark's workloads, at its `--smoke` sizes, on the
/// benchmark's two machines.
#[test]
fn constructors_match_the_oracle_on_the_benchmark_families() {
    let fine = |n: usize, iterations: usize, seed: u64| IterConfig {
        n,
        density: 8.0 / n as f64,
        iterations,
        seed,
    };
    let coarse = |algorithm, iterations| {
        coarse_dag(&CoarseConfig {
            algorithm,
            iterations,
        })
    };
    let dags = [
        (
            "spmv",
            spmv(&SpmvConfig {
                n: 60,
                density: 8.0 / 60.0,
                seed: 1,
            }),
        ),
        ("cg", cg(&fine(30, 2, 2))),
        ("exp", exp(&fine(30, 3, 3))),
        ("pagerank", coarse(CoarseAlgorithm::PageRank, 100)),
        ("bicgstab", coarse(CoarseAlgorithm::BiCgStab, 100)),
    ];
    for (family, dag) in &dags {
        for machine in [
            Machine::uniform(4, 3, 5),
            Machine::numa_binary_tree(8, 3, 5, 3),
        ] {
            let what = format!("{family} (n = {}), P = {}", dag.n(), machine.p());
            assert_all_match(dag, &machine, &what);
        }
    }
}

/// The list schedulers on DAGs of 500–800 nodes, whose ready sets run to
/// hundreds of nodes: `ETF` keeps most of them waiting on a processor and
/// releases them as the processor's time passes their data-ready time,
/// which the small random DAGs above barely exercise.
#[test]
fn list_schedulers_match_the_oracle_on_wide_ready_sets() {
    let dags = [
        (
            "spmv",
            spmv(&SpmvConfig {
                n: 36,
                density: 8.0 / 36.0,
                seed: 5,
            }),
        ),
        (
            "pagerank",
            coarse_dag(&CoarseConfig {
                algorithm: CoarseAlgorithm::PageRank,
                iterations: 120,
            }),
        ),
    ];
    for (family, dag) in &dags {
        assert!(
            (500..=800).contains(&dag.n()),
            "{family} has {} nodes",
            dag.n()
        );
        for machine in [
            Machine::uniform(4, 3, 5),
            Machine::numa_binary_tree(4, 1, 5, 3),
            Machine::uniform(8, 1, 5),
            Machine::numa_binary_tree(8, 3, 5, 3),
        ] {
            let what = format!(
                "{family} (n = {}), P = {}, numa = {}",
                dag.n(),
                machine.p(),
                machine.is_numa()
            );
            assert_list_schedulers_match(dag, &machine, &what);
        }
    }
}
