//! Property-based integration tests over random DAGs and machines.
//!
//! Each property runs a deterministic loop of seeded random cases; a failure
//! message always names the case index, so `rng_for_case(SEED, case)` exactly
//! reproduces it.

mod common;

use bsp_model::{Assignment, BspSchedule, CommSchedule, CommStep, Dag, Machine};
use bsp_sched::baselines::{
    BlEstScheduler, CilkScheduler, EtfScheduler, HDaggScheduler, TrivialScheduler,
};
use bsp_sched::hill_climb::{
    hc_improve, hccs_improve, relocate_improve, HcState, HillClimbConfig,
    RELOCATION_VISITS_PER_NODE,
};
use bsp_sched::init::{merge_supersteps, BspgScheduler, SourceScheduler};
use bsp_sched::pipeline::{Pipeline, PipelineConfig};
use bsp_sched::Scheduler;
use common::{random_dag, random_machine, rng_for_case};
use dag_gen::fine::{cg, spmv, IterConfig, SpmvConfig};
use dag_gen::hyperdag::{read_hyperdag, write_hyperdag};
use rand::Rng;

const CASES: u64 = 16;

fn quick_hc() -> HillClimbConfig {
    HillClimbConfig::with_max_steps(200)
}

/// Every heuristic scheduler produces a valid schedule on arbitrary DAGs
/// and machines, and the trivial schedule's cost formula holds exactly.
#[test]
fn heuristic_schedulers_are_valid_on_random_inputs() {
    for case in 0..CASES {
        let mut rng = rng_for_case(0xA11D, case);
        let dag = random_dag(&mut rng, 14);
        let machine = random_machine(&mut rng);
        for scheduler in [
            &TrivialScheduler as &dyn Scheduler,
            &CilkScheduler::default(),
            &HDaggScheduler::default(),
            &BspgScheduler,
            &SourceScheduler,
        ] {
            let sched = scheduler.schedule(&dag, &machine);
            assert!(
                sched.validate(&dag, &machine).is_ok(),
                "{} invalid on random input (case {case})",
                scheduler.name()
            );
        }
        let trivial = TrivialScheduler.schedule(&dag, &machine);
        assert_eq!(
            trivial.cost(&dag, &machine),
            dag.total_work() + machine.latency(),
            "case {case}"
        );
    }
}

/// Hill climbing never increases the cost and preserves validity; the
/// reported final cost matches an independent recomputation.
#[test]
fn hill_climbing_is_monotone_and_consistent() {
    for case in 0..CASES {
        let mut rng = rng_for_case(0xB222, case);
        let dag = random_dag(&mut rng, 12);
        let machine = random_machine(&mut rng);
        let mut sched = SourceScheduler.schedule(&dag, &machine);
        let before = sched.cost(&dag, &machine);
        let outcome = hc_improve(&dag, &machine, &mut sched, &quick_hc());
        assert!(outcome.final_cost <= before, "case {case}");
        assert_eq!(
            outcome.final_cost,
            sched.cost(&dag, &machine),
            "case {case}"
        );
        assert!(sched.validate(&dag, &machine).is_ok(), "case {case}");

        let before_cs = sched.cost(&dag, &machine);
        let outcome = hccs_improve(&dag, &machine, &mut sched, &quick_hc());
        assert!(outcome.final_cost <= before_cs, "case {case}");
        assert_eq!(
            outcome.final_cost,
            sched.cost(&dag, &machine),
            "case {case}"
        );
        assert!(sched.validate(&dag, &machine).is_ok(), "case {case}");
    }
}

/// The counts on a search's outcome add up on arbitrary inputs, for both
/// searches the one work-list driver runs: an accepted move passed the gate
/// and was costed and not pruned, a certified local minimum swept every
/// entity (nodes for `HC`, required transfers for `HCcs`), `HCcs` prunes
/// nothing, and a second run repeats every count.
#[test]
fn search_counts_add_up_on_random_inputs() {
    let unlimited = HillClimbConfig::default();
    for case in 0..CASES {
        let mut rng = rng_for_case(0x5EA2C, case);
        let dag = random_dag(&mut rng, 14);
        let machine = random_machine(&mut rng);
        let start = SourceScheduler.schedule(&dag, &machine);
        let run = |sched: &mut BspSchedule| {
            let hc = hc_improve(&dag, &machine, sched, &unlimited);
            (hc, hccs_improve(&dag, &machine, sched, &unlimited))
        };
        let (mut sched, mut again) = (start.clone(), start);
        let (hc, hccs) = run(&mut sched);
        assert_eq!((hc, hccs), run(&mut again), "case {case}");
        let transfers = CommSchedule::lazy(&dag, &sched.assignment).len();
        assert_eq!(hccs.counts.pruned, 0, "case {case}");
        for (o, entities) in [(hc, dag.n()), (hccs, transfers)] {
            let (c, steps) = (o.counts, o.steps as u64);
            assert!(o.reached_local_minimum, "case {case}: {o:?}");
            assert!(
                c.sweeps >= 1 && c.visits >= entities as u64,
                "case {case}: {o:?}"
            );
            assert!(c.gated + steps <= c.visits, "case {case}: {o:?}");
            assert!(c.pruned + steps <= c.evaluated, "case {case}: {o:?}");
        }
    }
}

/// The lazy communication schedule of any valid assignment yields a valid
/// BSP schedule, and normalization never increases its cost.
#[test]
fn lazy_schedules_are_valid_and_normalization_helps() {
    for case in 0..CASES {
        let mut rng = rng_for_case(0xC333, case);
        let dag = random_dag(&mut rng, 12);
        let machine = random_machine(&mut rng);
        let spread = rng.gen::<bool>();
        // Build a valid assignment: topological order, one node per superstep
        // (optionally spread over processors round-robin).
        let order = dag.topological_order().unwrap();
        let mut proc = vec![0u32; dag.n()];
        let mut superstep = vec![0u32; dag.n()];
        for (i, v) in order.into_iter().map(|v| v as usize).enumerate() {
            proc[v] = if spread { (i % machine.p()) as u32 } else { 0 };
            superstep[v] = 2 * i as u32; // deliberately leave empty supersteps
        }
        let assignment = Assignment { proc, superstep };
        let mut sched = BspSchedule::from_assignment_lazy(&dag, assignment);
        assert!(sched.validate(&dag, &machine).is_ok(), "case {case}");
        let before = sched.cost(&dag, &machine);
        sched.normalize(&dag);
        assert!(sched.validate(&dag, &machine).is_ok(), "case {case}");
        assert!(sched.cost(&dag, &machine) <= before, "case {case}");
    }
}

/// The eager communication schedule (send everything as early as
/// possible) is also always valid and moves the same set of values.
#[test]
fn eager_and_lazy_communication_schedules_agree_on_volume() {
    for case in 0..CASES {
        let mut rng = rng_for_case(0xD444, case);
        let dag = random_dag(&mut rng, 12);
        let machine = random_machine(&mut rng);
        let sched = BspgScheduler.schedule(&dag, &machine);
        let lazy = CommSchedule::lazy(&dag, &sched.assignment);
        let eager = CommSchedule::eager(&dag, &sched.assignment);
        assert_eq!(
            lazy.total_volume(&dag),
            eager.total_volume(&dag),
            "case {case}"
        );
        let eager_sched = BspSchedule {
            assignment: sched.assignment.clone(),
            comm: eager,
        };
        assert!(eager_sched.validate(&dag, &machine).is_ok(), "case {case}");
    }
}

/// `CommSchedule::transfers` follows its rule for `assignment` and a given
/// `Γ`: one transfer per `(node, target)` pair with a successor of `node` on
/// `target ≠ π(node)`, sent from `π(node)`, in ascending order of that pair,
/// with the window `[τ(node), first superstep of a successor on target − 1]`;
/// it starts at the latest of `given`'s placements of it when that one lies
/// in the window, and lazily at the window's end when there is none or it
/// lies outside.
fn assert_transfers_follow_their_rule(
    dag: &Dag,
    assignment: &Assignment,
    given: &CommSchedule,
    what: &str,
) {
    let (proc, step) = (&assignment.proc, &assignment.superstep);
    let (steps, windows) = CommSchedule::transfers(dag, assignment, given);
    assert_eq!(steps.len(), windows.len(), "{what}");
    assert_eq!(steps.capacity(), steps.len(), "{what}: sized exactly");
    assert_eq!(windows.capacity(), windows.len(), "{what}: sized exactly");
    let keys: Vec<(u32, u32)> = steps.iter().map(|cs| (cs.node, cs.to)).collect();
    assert!(keys.windows(2).all(|w| w[0] < w[1]), "{what}: order");
    for (cs, &[earliest, latest]) in steps.iter().zip(&windows) {
        let node = cs.node as usize;
        let first = dag
            .successors(node)
            .filter(|&v| proc[v] == cs.to)
            .map(|v| step[v])
            .min();
        // A successor in superstep 0 leaves no phase: the window closes at 0.
        assert_eq!(
            first.map(|s| s.saturating_sub(1)),
            Some(latest),
            "{what}: {cs:?}"
        );
        assert_eq!(earliest, step[node], "{what}: {cs:?}");
        assert_eq!(cs.from, proc[node], "{what}: {cs:?}");
        assert_ne!(cs.from, cs.to, "{what}: {cs:?}");
        let placed = given
            .steps()
            .iter()
            .filter(|g| (g.node, g.from, g.to) == (cs.node, cs.from, cs.to))
            .map(|g| g.step)
            .max();
        let start = placed
            .filter(|s| (earliest..=latest).contains(s))
            .unwrap_or(latest);
        assert_eq!(cs.step, start, "{what}: {cs:?} given {placed:?}");
    }
    for (u, v) in dag.edges().filter(|&(u, v)| proc[u] != proc[v]) {
        let key = (u as u32, proc[v]);
        assert!(keys.binary_search(&key).is_ok(), "{what}: no {key:?}");
    }
}

/// A `Γ` for `assignment` that places each required transfer zero, one or
/// two times, in or up to a phase or two outside its window, plus a transfer
/// the assignment does not call for.
fn scrambled_gamma(rng: &mut impl Rng, dag: &Dag, assignment: &Assignment) -> CommSchedule {
    let (lazy, windows) = CommSchedule::transfers(dag, assignment, &CommSchedule::empty());
    let mut given = vec![CommStep {
        node: 0,
        from: assignment.proc[0],
        to: assignment.proc[0],
        step: 0,
    }];
    for (cs, &[earliest, latest]) in lazy.iter().zip(&windows) {
        let (lo, hi) = (
            earliest.min(latest).saturating_sub(1),
            earliest.max(latest) + 2,
        );
        for _ in 0..rng.gen_range(0usize..3) {
            let step = rng.gen_range(lo..=hi);
            given.push(CommStep { step, ..*cs });
        }
    }
    CommSchedule::from_steps(given)
}

/// The rule holds for any assignment, valid or not, and any given `Γ`, and
/// for the benchmark's families under a real initializer, where one node
/// has successors on many processors.  With nothing given, the transfers are
/// the lazy schedule.
#[test]
fn requirements_follow_their_rule_on_random_assignments() {
    fn check(rng: &mut impl Rng, dag: &Dag, assignment: &Assignment, what: &str) {
        let empty = CommSchedule::empty();
        assert_transfers_follow_their_rule(dag, assignment, &empty, what);
        let lazy = CommSchedule::transfers(dag, assignment, &empty).0;
        assert_eq!(lazy, CommSchedule::lazy(dag, assignment).steps(), "{what}");
        let given = scrambled_gamma(rng, dag, assignment);
        assert_transfers_follow_their_rule(dag, assignment, &given, what);
    }
    for case in 0..4 * CASES {
        let mut rng = rng_for_case(0xD555, case);
        let dag = random_dag(&mut rng, 24);
        let p = random_machine(&mut rng).p();
        let steps = rng.gen_range(1usize..=6);
        let assignment = Assignment {
            proc: (0..dag.n()).map(|_| rng.gen_range(0..p) as u32).collect(),
            superstep: (0..dag.n())
                .map(|_| rng.gen_range(0..steps) as u32)
                .collect(),
        };
        check(&mut rng, &dag, &assignment, &format!("case {case}"));
    }
    let dag = cg(&IterConfig {
        n: 12,
        density: 0.3,
        iterations: 2,
        seed: 3,
    });
    let machine = Machine::numa_binary_tree(8, 3, 5, 3);
    let assignment = BspgScheduler.schedule(&dag, &machine).assignment;
    check(&mut rng_for_case(0xD556, 0), &dag, &assignment, "cg");
}

/// The hyperDAG text format round-trips every DAG exactly.
#[test]
fn hyperdag_round_trip_preserves_the_dag() {
    for case in 0..CASES {
        let mut rng = rng_for_case(0xE555, case);
        let dag = random_dag(&mut rng, 16);
        let text = write_hyperdag(&dag);
        let back = read_hyperdag(&text).expect("round trip must parse");
        assert_eq!(back.n(), dag.n(), "case {case}");
        assert_eq!(back.num_edges(), dag.num_edges(), "case {case}");
        assert_eq!(back.work_weights(), dag.work_weights(), "case {case}");
        assert_eq!(back.comm_weights(), dag.comm_weights(), "case {case}");
        let mut edges_a: Vec<_> = dag.edges().collect();
        let mut edges_b: Vec<_> = back.edges().collect();
        edges_a.sort_unstable();
        edges_b.sort_unstable();
        assert_eq!(edges_a, edges_b, "case {case}");
    }
}

/// Every scheduler's cost respects `Dag::lower_bound`: the fullest
/// processor's share of the work or the critical path, plus one latency.
/// On a chain the trivial schedule meets it.
#[test]
fn costs_respect_lower_bounds() {
    let schedulers: [&dyn Scheduler; 8] = [
        &TrivialScheduler,
        &CilkScheduler::default(),
        &BlEstScheduler,
        &EtfScheduler,
        &HDaggScheduler::default(),
        &BspgScheduler,
        &SourceScheduler,
        &Pipeline::default(),
    ];
    for case in 0..CASES {
        let mut rng = rng_for_case(0xF666, case);
        let dag = random_dag(&mut rng, 14);
        let machine = random_machine(&mut rng);
        let lower = dag.lower_bound(&machine);
        let share = dag.total_work().div_ceil(machine.p() as u64);
        assert_eq!(
            lower,
            share.max(dag.critical_path_work()) + machine.latency(),
            "case {case}"
        );
        let trivial = BspSchedule::trivial(&dag).cost(&dag, &machine);
        for scheduler in schedulers {
            let cost = scheduler.schedule(&dag, &machine).cost(&dag, &machine);
            assert!(
                cost >= lower,
                "{} cost {cost} below lower bound {lower} (case {case})",
                scheduler.name()
            );
            // The pipeline ends on the trivial-schedule floor.
            assert!(
                scheduler.name() != "Pipeline" || cost <= trivial,
                "pipeline cost {cost} above the trivial schedule's {trivial} (case {case})"
            );
        }
    }
    let chain = Dag::from_edges(3, &[(0, 1), (1, 2)], vec![2, 3, 4], vec![1; 3]).unwrap();
    let machine = Machine::uniform(4, 3, 5);
    let trivial = BspSchedule::trivial(&chain).cost(&chain, &machine);
    assert_eq!(chain.lower_bound(&machine), trivial);
    let empty = Dag::from_edge_list_unit_weights(0, &[]).unwrap();
    assert_eq!(empty.lower_bound(&machine), 0);
}

/// `C_work(s)` and `C_comm(s)` of every superstep `0..num_supersteps()`,
/// from one `supersteps × P` table each for work, sends and receives: the
/// cost model of §3.3–3.4 as written, kept here as the reference for
/// `bsp_model::cost`.
fn dense_rows(dag: &Dag, machine: &Machine, sched: &BspSchedule) -> Vec<(u64, u64)> {
    let (steps, p) = (sched.num_supersteps(), machine.p());
    let mut work = vec![vec![0u64; p]; steps];
    let (mut send, mut recv) = (work.clone(), work.clone());
    for v in 0..dag.n() {
        work[sched.superstep(v)][sched.proc(v)] += dag.work(v);
    }
    for cs in sched.comm.steps() {
        let (from, to, s) = (cs.from as usize, cs.to as usize, cs.step as usize);
        let weight = dag.comm(cs.node as usize) * machine.lambda(from, to);
        send[s][from] += weight;
        recv[s][to] += weight;
    }
    let max = |row: &[u64]| row.iter().copied().max().unwrap_or(0);
    (0..steps)
        .map(|s| (max(&work[s]), max(&send[s]).max(max(&recv[s]))))
        .collect()
}

/// `cost` and `cost_breakdown` equal the dense reference whichever layout
/// the cost function picks (a `supersteps × P` table when it holds no more
/// cells than `n + |Γ|`, else per-superstep buckets; both occur here), on
/// schedules with far more supersteps than `n / P`, empty supersteps, `Γ`
/// steps in the phases after the last computing superstep, and machines
/// with an explicit `λ`.  `Γ` is the lazy one or arbitrary: the cost is
/// defined on any.
#[test]
fn cost_and_breakdown_equal_a_dense_reference() {
    let mut layouts = [0; 2];
    for case in 0..8 * CASES {
        let mut rng = rng_for_case(0xC057, case);
        let dag = random_dag(&mut rng, 24);
        let machine = if rng.gen::<bool>() {
            random_machine(&mut rng)
        } else {
            let p = rng.gen_range(1usize..=6);
            let lambda = (0..p)
                .map(|_| (0..p).map(|_| rng.gen_range(0u64..7)).collect())
                .collect();
            let (g, l) = (rng.gen_range(0u64..5), rng.gen_range(0u64..9));
            Machine::with_numa_matrix(p, g, l, lambda)
        };
        let (n, p) = (dag.n(), machine.p());
        // Valid for the lazy `Γ` (ids are topological): each node at or
        // after its predecessors' supersteps, past them across processors,
        // plus a gap of up to 4 supersteps (so most are empty) or none.
        let gap = if rng.gen::<bool>() { 4 } else { 0 };
        let proc: Vec<u32> = (0..n).map(|_| rng.gen_range(0..p) as u32).collect();
        let mut superstep = vec![0u32; n];
        for v in 0..n {
            let after = dag
                .predecessors(v)
                .map(|u| superstep[u] + u32::from(proc[u] != proc[v]));
            superstep[v] = after.max().unwrap_or(0) + rng.gen_range(0..=gap);
        }
        let assignment = Assignment { proc, superstep };
        let sched = if rng.gen::<bool>() {
            BspSchedule::from_assignment_lazy(&dag, assignment)
        } else {
            // Up to three phases past the last computing superstep.
            let last = assignment.num_supersteps() + 2;
            let transfers = (0..rng.gen_range(0..3 * n)).map(|_| bsp_model::CommStep {
                node: rng.gen_range(0..n) as u32,
                from: rng.gen_range(0..p) as u32,
                to: rng.gen_range(0..p) as u32,
                step: rng.gen_range(0..last) as u32,
            });
            let comm = CommSchedule::from_steps(transfers.collect());
            BspSchedule { assignment, comm }
        };
        let rows = dense_rows(&dag, &machine, &sched);
        let steps = rows.len() as u64;
        let (g, l) = (machine.g(), machine.latency());
        let work: u64 = rows.iter().map(|r| r.0).sum();
        let comm: u64 = rows.iter().map(|r| r.1).sum();
        assert_eq!(
            sched.cost(&dag, &machine),
            work + g * comm + l * steps,
            "case {case}"
        );
        let breakdown = sched.cost_breakdown(&dag, &machine);
        let per_step: Vec<(u64, u64, u64)> = breakdown
            .supersteps
            .iter()
            .map(|s| (s.work, s.comm, s.latency))
            .collect();
        let expected: Vec<(u64, u64, u64)> = rows.iter().map(|&(w, c)| (w, c, l)).collect();
        assert_eq!(per_step, expected, "case {case}");
        assert_eq!(
            (
                breakdown.total_work,
                breakdown.total_comm,
                breakdown.total_latency
            ),
            (work, g * comm, l * steps),
            "case {case}"
        );
        layouts[usize::from(rows.len() * p <= n + sched.comm.len())] += 1;
    }
    assert!(
        layouts.iter().all(|&k| k > 0),
        "one layout never ran: {layouts:?}"
    );
}

/// The incremental `try_move`/`apply_move` deltas equal a full
/// `BspSchedule::from_assignment_lazy(..).cost(..)` recomputation across
/// hundreds of random valid moves on random spmv/CG DAGs, under uniform and
/// NUMA machines.  This is the invariant the allocation-free scratch-buffer
/// state (row-max caches, consumer-summary transforms) must uphold exactly.
#[test]
fn hc_move_deltas_match_full_recomputation() {
    let machines = [
        Machine::uniform(4, 3, 5),
        Machine::uniform(8, 2, 7),
        Machine::numa_binary_tree(4, 3, 5, 3),
        Machine::numa_binary_tree(8, 1, 4, 2),
    ];
    let mut total_moves_checked = 0usize;
    for case in 0..8u64 {
        let mut rng = rng_for_case(0x1717, case);
        let dag = if case % 2 == 0 {
            spmv(&SpmvConfig {
                n: 12 + case as usize * 3,
                density: 0.3,
                seed: case,
            })
        } else {
            cg(&IterConfig {
                n: 6 + case as usize * 2,
                density: 0.3,
                iterations: 2,
                seed: case,
            })
        };
        for machine in &machines {
            let init = SourceScheduler.schedule(&dag, machine);
            let mut state = HcState::new(&dag, machine, init.assignment.clone())
                .expect("scheduler output is feasible");
            let mut cost = state.total_cost();
            assert_eq!(
                cost,
                BspSchedule::from_assignment_lazy(&dag, state.assignment()).cost(&dag, machine),
                "initial state cost mismatch (case {case})"
            );
            let mut accepted = 0usize;
            let mut attempts = 0usize;
            while accepted < 40 && attempts < 4000 {
                attempts += 1;
                let v = rng.gen_range(0usize..dag.n());
                let p_new = rng.gen_range(0usize..machine.p());
                let s_old = state.step_of(v);
                let s_new = (s_old + rng.gen_range(0usize..3)).saturating_sub(1);
                if !state.move_is_valid(&dag, v, p_new, s_new) {
                    continue;
                }
                // move_window must agree with move_is_valid.
                assert!(
                    state.move_window(&dag, v).allows(p_new, s_new),
                    "window disagrees with move_is_valid (case {case})"
                );
                // try_move returns the delta and leaves the state unchanged.
                let tried = state.try_move(&dag, v, p_new, s_new);
                assert_eq!(
                    state.total_cost(),
                    cost,
                    "try_move leaked state (case {case})"
                );
                let applied = state.apply_move(&dag, v, p_new, s_new);
                assert_eq!(tried, applied, "try/apply disagree (case {case})");
                let recomputed =
                    BspSchedule::from_assignment_lazy(&dag, state.assignment()).cost(&dag, machine);
                assert_eq!(
                    cost as i64 + applied,
                    recomputed as i64,
                    "incremental delta diverged from full recomputation \
                     (case {case}, node {v} -> (p{p_new}, s{s_new}))"
                );
                assert_eq!(
                    state.total_cost(),
                    recomputed,
                    "cached total diverged (case {case})"
                );
                cost = recomputed;
                accepted += 1;
            }
            total_moves_checked += accepted;
        }
    }
    assert!(
        total_moves_checked >= 300,
        "property exercised only {total_moves_checked} moves; generator too restrictive"
    );
}

/// Random small states for the lift/drop properties: a DAG with zero-work
/// and zero-communication nodes among the rest, on a machine that may have a
/// single processor, started either from `Source` or from one node per
/// superstep on random processors (every node alone in its superstep).
fn lift_drop_case(rng: &mut rand_chacha::ChaCha8Rng, case: u64) -> (Dag, Machine, Assignment) {
    let n = rng.gen_range(2usize..=10);
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_range(0u32..10) < 3 {
                edges.push((u, v));
            }
        }
    }
    let work: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..6)).collect();
    let comm: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..5)).collect();
    let dag = Dag::from_edges(n, &edges, work, comm).expect("construction is acyclic");
    let machine = match case % 4 {
        0 => Machine::uniform(1, 2, 3),
        1 => Machine::uniform(4, 3, 5),
        _ => random_machine(rng),
    };
    let assignment = if case.is_multiple_of(2) {
        SourceScheduler.schedule(&dag, &machine).assignment
    } else {
        Assignment {
            proc: (0..n)
                .map(|_| rng.gen_range(0..machine.p()) as u32)
                .collect(),
            superstep: (0..n as u32).collect(),
        }
    };
    (dag, machine, assignment)
}

/// Every destination the driver's window admits for `v`, plus the superstep
/// past the current last one.
fn window_destinations(
    dag: &Dag,
    machine: &Machine,
    state: &HcState<'_>,
    v: usize,
) -> Vec<(usize, usize)> {
    let (p_old, s_old) = (state.proc_of(v), state.step_of(v));
    let window = state.move_window(dag, v);
    let mut steps = vec![s_old + 1, s_old, state.num_supersteps()];
    if s_old > 0 {
        steps.push(s_old - 1);
    }
    steps.sort_unstable();
    steps.dedup();
    let mut out = Vec::new();
    for s_new in steps {
        for p_new in 0..machine.p() {
            if (p_new, s_new) != (p_old, s_old) && window.allows(p_new, s_new) {
                out.push((p_new, s_new));
            }
        }
    }
    out
}

/// Applies one random window-allowed move (if the drawn node has any), so
/// the walk leaves the scheduler's output behind.
fn random_walk_step(
    rng: &mut rand_chacha::ChaCha8Rng,
    dag: &Dag,
    machine: &Machine,
    state: &mut HcState<'_>,
) {
    let v = rng.gen_range(0..dag.n());
    let dests = window_destinations(dag, machine, state, v);
    if !dests.is_empty() {
        let (p_new, s_new) = dests[rng.gen_range(0..dests.len())];
        state.apply_move(dag, v, p_new, s_new);
    }
}

/// On the lifted state, the exact `drop_eval` of every window-allowed
/// destination equals the full-recompute delta, and whenever the `O(1)`
/// lower bound exists the full-recompute delta is at least the bound — so a
/// destination the driver prunes (bound ≥ 0) can never have been improving.
/// Covers nodes alone in their superstep, moves that open superstep
/// `num_steps`, zero-work nodes and `P = 1`.
#[test]
fn lift_drop_deltas_match_full_recomputation_and_the_bound_is_sound() {
    let (mut drops, mut bounded, mut pruned, mut alone, mut opened, mut zero_work) =
        (0usize, 0usize, 0usize, 0usize, 0usize, 0usize);
    for case in 0..48u64 {
        let mut rng = rng_for_case(0x11F7, case);
        let (dag, machine, assignment) = lift_drop_case(&mut rng, case);
        let mut state = HcState::new(&dag, &machine, assignment).expect("feasible start");
        for round in 0..6 {
            let cost = state.total_cost() as i64;
            for v in 0..dag.n() {
                let dests = window_destinations(&dag, &machine, &state, v);
                let before = state.assignment();
                let alone_now = state.nodes_in_superstep(state.step_of(v)).len() == 1;
                let last = state.num_supersteps();
                state.lift(&dag, v);
                for &(p_new, s_new) in &dests {
                    let mut moved = before.clone();
                    moved.proc[v] = p_new as u32;
                    moved.superstep[v] = s_new as u32;
                    let recomputed =
                        BspSchedule::from_assignment_lazy(&dag, moved).cost(&dag, &machine) as i64;
                    let what = format!(
                        "case {case} round {round}: node {v} -> (p{p_new}, s{s_new}) on P = {}",
                        machine.p()
                    );
                    let bound = state.drop_lower_bound(&dag, v, p_new, s_new);
                    let delta = state.drop_eval(&dag, v, p_new, s_new);
                    assert_eq!(delta, recomputed - cost, "{what}: drop_eval");
                    if let Some(bound) = bound {
                        assert!(delta >= bound, "{what}: delta {delta} < bound {bound}");
                        bounded += 1;
                        pruned += usize::from(bound >= 0);
                    }
                    drops += 1;
                    alone += usize::from(alone_now);
                    opened += usize::from(s_new == last);
                    zero_work += usize::from(dag.work(v) == 0);
                }
                state.unlift(&dag, v);
                assert_eq!(state.total_cost() as i64, cost, "case {case}: unlift");
            }
            random_walk_step(&mut rng, &dag, &machine, &mut state);
        }
    }
    assert!(
        drops > 5000 && pruned > 1000 && bounded > pruned,
        "{drops} drops, {bounded} bounded, {pruned} pruned"
    );
    assert!(
        alone > 100 && opened > 100 && zero_work > 100,
        "corner cases under-sampled: {alone} alone, {opened} opening, {zero_work} zero-work"
    );
}

/// `lift` → any number of `drop_eval`s → `unlift` leaves every tally, fused
/// h-relation cell, row-max cache and count, body cost and their sum
/// bit-equal to a fresh state built from the same assignment.
#[test]
fn lift_unlift_restores_the_state_bit_for_bit() {
    let mut cycles = 0usize;
    for case in 0..48u64 {
        let mut rng = rng_for_case(0x0F17, case);
        let (dag, machine, assignment) = lift_drop_case(&mut rng, case);
        let mut state = HcState::new(&dag, &machine, assignment).expect("feasible start");
        for round in 0..8 {
            let fresh = HcState::new(&dag, &machine, state.assignment()).expect("still feasible");
            assert!(
                state.same_tallies(&fresh),
                "case {case} round {round}: walked state diverged from a fresh one"
            );
            for v in 0..dag.n() {
                let dests = window_destinations(&dag, &machine, &state, v);
                state.lift(&dag, v);
                for _ in 0..rng.gen_range(0usize..4) {
                    if let Some(&(p_new, s_new)) = dests.get(rng.gen_range(0..dests.len().max(1))) {
                        state.drop_eval(&dag, v, p_new, s_new);
                    }
                }
                state.unlift(&dag, v);
                assert!(
                    state.same_tallies(&fresh),
                    "case {case} round {round}: lift/unlift of node {v} left a trace"
                );
                assert_eq!(state.assignment(), fresh.assignment());
                cycles += 1;
            }
            random_walk_step(&mut rng, &dag, &machine, &mut state);
        }
    }
    assert!(cycles > 1500, "only {cycles} lift/unlift cycles");
}

/// The machines of the relocation properties: uniform, a binary tree and an
/// explicit `λ` that is neither.
fn relocation_machines(rng: &mut rand_chacha::ChaCha8Rng) -> [Machine; 3] {
    let (g, l) = (rng.gen_range(0u64..5), rng.gen_range(0u64..8));
    let p = rng.gen_range(2usize..=6);
    let lambda = (0..p)
        .map(|_| (0..p).map(|_| rng.gen_range(1u64..6)).collect())
        .collect();
    [
        Machine::uniform(1 << rng.gen_range(1usize..=3), g, l),
        Machine::numa_binary_tree(8, g, l, rng.gen_range(2u64..5)),
        Machine::with_numa_matrix(p, g, l, lambda),
    ]
}

/// A valid assignment with serial supersteps: each topological level is a
/// superstep, and each superstep sits whole on one random processor, except
/// that every other one is spread over all of them.
fn serial_levels(rng: &mut rand_chacha::ChaCha8Rng, dag: &Dag, p: usize) -> Assignment {
    let levels = dag.levels();
    let depth = levels.iter().max().map_or(0, |&l| l + 1);
    let home: Vec<Option<u32>> = (0..depth)
        .map(|l| (l % 2 == 0).then(|| rng.gen_range(0..p) as u32))
        .collect();
    Assignment {
        proc: (0..dag.n())
            .map(|v| home[levels[v]].unwrap_or_else(|| rng.gen_range(0..p) as u32))
            .collect(),
        superstep: levels.iter().map(|&l| l as u32).collect(),
    }
}

/// Relocating a cell onto a processor without a node in its superstep keeps
/// the schedule valid; the incremental tallies equal a fresh state's on the
/// relocated assignment, the returned delta is the cost change, and the
/// reverse relocation — or a rollback past it and the `HC` moves after it —
/// restores every tally exactly.
#[test]
fn relocation_is_valid_exact_and_undone_exactly() {
    let (mut serial, mut relocated, mut rolled_back) = (0usize, 0usize, 0usize);
    for case in 0..CASES {
        let mut rng = rng_for_case(0x4E10, case);
        let dag = random_dag(&mut rng, 20);
        for machine in relocation_machines(&mut rng) {
            let what = |s, x, y| format!("case {case}, {machine:?}: cell ({s}, {x}) onto {y}");
            let start = if rng.gen::<bool>() {
                SourceScheduler.schedule(&dag, &machine).assignment
            } else {
                serial_levels(&mut rng, &dag, machine.p())
            };
            let mut state = HcState::new(&dag, &machine, start).expect("valid start");
            for s in 0..state.num_supersteps() {
                let held: Vec<usize> = state
                    .nodes_in_superstep(s)
                    .map(|v| state.proc_of(v))
                    .collect();
                let is_serial = held.windows(2).all(|w| w[0] == w[1]);
                for x in 0..machine.p() {
                    if !held.contains(&x) {
                        continue;
                    }
                    for y in (0..machine.p()).filter(|y| !held.contains(y)) {
                        let before = state.clone();
                        let delta = state.relocate(&dag, s, x, y);
                        let moved = state.assignment();
                        let schedule = BspSchedule::from_assignment_lazy(&dag, moved.clone());
                        assert!(
                            schedule.validate(&dag, &machine).is_ok(),
                            "{}",
                            what(s, x, y)
                        );
                        let fresh = HcState::new(&dag, &machine, moved).expect("valid");
                        assert!(state.same_tallies(&fresh), "{}: tallies", what(s, x, y));
                        let change = fresh.total_cost() as i64 - before.total_cost() as i64;
                        assert_eq!(delta, change, "{}: delta", what(s, x, y));
                        assert_eq!(state.relocate(&dag, s, y, x), -delta, "{}", what(s, x, y));
                        assert!(state.same_tallies(&before), "{}: undo", what(s, x, y));
                        assert_eq!(state.assignment(), before.assignment());
                        relocated += 1;
                        serial += usize::from(is_serial);
                        // The journal undoes the relocation and the moves
                        // made after it, newest first.
                        state.checkpoint();
                        state.relocate(&dag, s, x, y);
                        for _ in 0..rng.gen_range(0usize..4) {
                            random_walk_step(&mut rng, &dag, &machine, &mut state);
                        }
                        state.rollback(&dag);
                        assert!(state.same_tallies(&before), "{}: rollback", what(s, x, y));
                        assert_eq!(state.assignment(), before.assignment());
                        rolled_back += 1;
                    }
                }
            }
        }
    }
    assert!(
        serial > 200 && relocated > serial && rolled_back == relocated,
        "{relocated} relocations, {serial} of serial cells, {rolled_back} rolled back"
    );
}

/// The relocation phase never returns a schedule costlier than the one it
/// was given: what it returns is valid, merged, costs what it reports, and
/// is the given schedule when it kept nothing.
#[test]
fn the_relocation_phase_never_raises_the_cost() {
    let (mut evaluated, mut kept) = (0usize, 0usize);
    for case in 0..2 * CASES {
        let mut rng = rng_for_case(0x4E11, case);
        let dag = if case % 2 == 0 {
            random_dag(&mut rng, 28)
        } else {
            cg(&IterConfig {
                n: rng.gen_range(6usize..14),
                density: 0.3,
                iterations: 2,
                seed: case,
            })
        };
        for machine in relocation_machines(&mut rng) {
            let what = format!("case {case}, {machine:?}");
            let mut assignment = serial_levels(&mut rng, &dag, machine.p());
            merge_supersteps(&dag, &mut assignment);
            let given = BspSchedule::from_assignment_lazy(&dag, assignment);
            let cost = given.cost(&dag, &machine);
            let mut schedule = given.clone();
            let outcome = relocate_improve(&dag, &machine, &mut schedule, cost, &quick_hc());
            assert!(schedule.validate(&dag, &machine).is_ok(), "{what}");
            assert!(
                outcome.final_cost <= cost,
                "{what}: {outcome:?} from {cost}"
            );
            assert_eq!(outcome.final_cost, schedule.cost(&dag, &machine), "{what}");
            assert_eq!(
                merge_supersteps(&dag, &mut schedule.assignment.clone()),
                0,
                "{what}"
            );
            assert!(outcome.kept <= outcome.evaluated, "{what}");
            if outcome.kept == 0 {
                assert_eq!(schedule, given, "{what}: nothing kept, something changed");
            }
            evaluated += outcome.evaluated;
            kept += outcome.kept;
        }
    }
    assert!(
        evaluated > 50 && kept > 5,
        "{evaluated} evaluated, {kept} kept"
    );
}

/// A run repeats: two pipeline runs of one input give identical schedules
/// and the same relocation counts, on DAGs where the phase keeps candidates
/// and on random ones.
#[test]
fn two_pipeline_runs_give_identical_schedules() {
    let kernel = dag_gen::coarse::coarse(&dag_gen::coarse::CoarseConfig {
        algorithm: dag_gen::coarse::CoarseAlgorithm::BiCgStab,
        iterations: 150,
    });
    let pipeline = Pipeline::default();
    let mut relocated = 0;
    for case in 0..CASES {
        let mut rng = rng_for_case(0x4E12, case);
        let random = random_dag(&mut rng, 32);
        let dag = if case < 3 { &kernel } else { &random };
        let machine = relocation_machines(&mut rng)[case as usize % 3].clone();
        let [first, second] = [0, 1].map(|_| pipeline.run_report(dag, &machine));
        assert_eq!(first.schedule, second.schedule, "case {case}, {machine:?}");
        assert_eq!(
            first.relocation, second.relocation,
            "case {case}, {machine:?}"
        );
        relocated += first.relocation.kept;
    }
    assert!(relocated > 0, "no run kept a relocation");
}

/// The refinement on the caller's DAG after the funnel projection never
/// raises the cost and is kept exactly when it lowers it; the answer
/// validates at its reported cost, and a second run repeats the schedule and
/// the refinement's counts exactly — on fine-grained DAGs, which contract,
/// and random ones.
#[test]
fn the_refinement_never_raises_the_cost_and_repeats() {
    let pipeline = Pipeline::new(PipelineConfig {
        hill_climb: HillClimbConfig::with_max_steps(400),
        ..PipelineConfig::default()
    });
    let (mut refined, mut kept) = (0, 0);
    for case in 0..3 * CASES {
        let mut rng = rng_for_case(0x2EF1, case);
        let n = rng.gen_range(8usize..=40);
        let (density, seed) = (3.0 / n as f64, rng.gen());
        let dag = match case % 3 {
            0 => spmv(&SpmvConfig { n, density, seed }),
            1 => cg(&IterConfig {
                n,
                density,
                iterations: 2,
                seed,
            }),
            _ => random_dag(&mut rng, 24),
        };
        let machine = random_machine(&mut rng);
        let what = format!("case {case}, n = {}, {machine:?}", dag.n());
        let [first, second] = [0, 1].map(|_| pipeline.run_report(&dag, &machine));
        let (refinement, before) = (first.refinement, first.relocation.final_cost);
        assert!(first.schedule.validate(&dag, &machine).is_ok(), "{what}");
        let cost = first.schedule.cost(&dag, &machine);
        assert_eq!(first.final_cost, cost, "{what}");
        assert!(refinement.final_cost <= before, "{what}: {refinement:?}");
        assert!(first.final_cost <= refinement.final_cost, "{what}");
        let lowered = refinement.seeds > 0 && refinement.final_cost < before;
        assert_eq!(refinement.kept, lowered, "{what}: {refinement:?}");
        let budget = RELOCATION_VISITS_PER_NODE * dag.n() as u64;
        assert!(refinement.visits <= budget, "{what}: {refinement:?}");
        assert_eq!(first.schedule, second.schedule, "{what}");
        assert_eq!(refinement, second.refinement, "{what}");
        refined += usize::from(refinement.seeds > 0);
        kept += usize::from(refinement.kept);
    }
    assert!(refined > 5 && kept > 0, "{refined} refined, {kept} kept");
}
