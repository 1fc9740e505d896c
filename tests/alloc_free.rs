//! Verifies the headline property of the hill-climbing refactor: evaluating a
//! candidate move with [`HcState::try_move`] performs **zero heap allocation**
//! once the state's scratch buffers are warm.
//!
//! The harness's counting global allocator ([`bsp_bench::heap`]) wraps the
//! system allocator; after a warm-up pass over a set of valid moves,
//! replaying the same moves must not allocate or deallocate at all.  It also
//! counts the bytes held, for the bounds on what the cost function and
//! source placement hold.

use bsp_bench::heap::{counted, held_peak, one_at_a_time, CountingAllocator};
use bsp_model::{BspSchedule, Dag, Machine};
use bsp_sched::baselines::{CilkScheduler, HDaggScheduler};
use bsp_sched::hill_climb::{hc_search, hccs_improve, HcState, HillClimbConfig, SearchScratch};
use bsp_sched::init::{place_sources, BspgScheduler, SourceScheduler};
use bsp_sched::{Funnel, Scheduler};
use dag_gen::coarse::{coarse, CoarseAlgorithm, CoarseConfig};
use dag_gen::fine::{cg, spmv, IterConfig, SpmvConfig};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// What every `HC` proof runs on: a DAG, a machine, and the schedule a
/// search phase starts from (one with more than ten improving moves).
struct HcCase {
    name: &'static str,
    dag: Dag,
    machine: Machine,
    search_start: fn(&Dag, &Machine) -> BspSchedule,
}

/// A fine `spmv`, whose in-degrees stay small, on a uniform and a NUMA
/// machine, and the funnel reduction of a small coarse `bicgstab` — the DAG
/// the pipeline searches — whose hubs have 57 predecessors and 81 successors
/// against `P = 8`.  The scratch is reserved to the exact gather bound of
/// the DAG, which only a hub comes near.
fn hc_cases() -> Vec<HcCase> {
    let fine = spmv(&SpmvConfig {
        n: 48,
        density: 0.2,
        seed: 9,
    });
    let kernel = coarse(&CoarseConfig {
        algorithm: CoarseAlgorithm::BiCgStab,
        iterations: 40,
    });
    let machine = Machine::numa_binary_tree(8, 2, 5, 3);
    let hub = Funnel::contract(&kernel, machine.p()).expect("bicgstab contracts");
    let max_in = (0..hub.dag().n()).map(|v| hub.dag().in_degree(v)).max();
    assert!(
        max_in >= Some(6 * machine.p()),
        "no hub: max in-degree {max_in:?}"
    );
    let cilk = |dag: &Dag, machine: &Machine| CilkScheduler::default().schedule(dag, machine);
    // From `Cilk` the hub reaches its local minimum after 7 moves.
    let hdagg = |dag: &Dag, machine: &Machine| HDaggScheduler::default().schedule(dag, machine);
    let case = |name, dag, machine, search_start| HcCase {
        name,
        dag,
        machine,
        search_start,
    };
    vec![
        case("spmv48", fine.clone(), Machine::uniform(4, 3, 5), cilk),
        case("spmv48", fine, machine.clone(), cilk),
        case("bicgstab-hub", hub.dag().clone(), machine, hdagg),
    ]
}

#[test]
fn try_move_is_allocation_free_after_warmup() {
    let _serial = one_at_a_time();
    for HcCase {
        name, dag, machine, ..
    } in hc_cases()
    {
        let init = SourceScheduler.schedule(&dag, &machine);
        let mut state = HcState::new(&dag, &machine, init.assignment.clone())
            .expect("scheduler output is feasible");

        // Gather every valid candidate move of every node.
        let mut moves = Vec::new();
        for v in 0..dag.n() {
            let s_old = state.step_of(v);
            for s_new in [s_old.wrapping_sub(1), s_old, s_old + 1] {
                if s_new == usize::MAX {
                    continue;
                }
                for p_new in 0..machine.p() {
                    if state.move_is_valid(&dag, v, p_new, s_new) {
                        moves.push((v, p_new, s_new));
                    }
                }
            }
        }
        assert!(
            moves.len() > 100,
            "not enough candidate moves to be meaningful"
        );

        // Warm-up: lets the scratch buffers and tally matrices reach their
        // steady-state capacities.
        for &(v, p_new, s_new) in &moves {
            std::hint::black_box(state.try_move(&dag, v, p_new, s_new));
        }

        let (checksum, allocs, deallocs) = counted(|| {
            let mut checksum = 0i64;
            for &(v, p_new, s_new) in &moves {
                checksum = checksum.wrapping_add(state.try_move(&dag, v, p_new, s_new));
            }
            checksum
        });
        std::hint::black_box(checksum);
        assert_eq!(
            (allocs, deallocs),
            (0, 0),
            "try_move allocated on {name}, P={}: {} allocs / {} deallocs over {} evaluations",
            machine.p(),
            allocs,
            deallocs,
            moves.len()
        );
    }
}

/// The serial driver's evaluation kernel — gate, one [`HcState::lift`], the
/// `O(1)` bound and a [`HcState::drop_eval`] for each of the `3 · P`
/// destinations, [`HcState::unlift`] — performs **zero** heap allocation
/// from the state's construction on, and a complete bounded [`hc_search`]
/// phase built on it (accepted moves, dirty re-enqueues, the verification
/// sweep and all) performs none in steady state.
#[test]
fn lift_drop_cycle_and_search_phase_are_allocation_free_after_warmup() {
    let _serial = one_at_a_time();
    for HcCase {
        name,
        dag,
        machine,
        search_start,
    } in hc_cases()
    {
        let init = SourceScheduler.schedule(&dag, &machine);
        let mut state = HcState::new(&dag, &machine, init.assignment.clone())
            .expect("scheduler output is feasible");

        let cycle_all = |state: &mut HcState<'_>| {
            let (mut drops, mut checksum) = (0usize, 0i64);
            for v in 0..dag.n() {
                if !state.node_can_gain(&dag, v) {
                    continue;
                }
                let s_old = state.step_of(v);
                let window = state.move_window(&dag, v);
                state.lift(&dag, v);
                for s_new in [s_old.wrapping_sub(1), s_old, s_old + 1] {
                    if s_new == usize::MAX {
                        continue;
                    }
                    for p_new in 0..machine.p() {
                        if !window.allows(p_new, s_new) {
                            continue;
                        }
                        let bound = state.drop_lower_bound(&dag, v, p_new, s_new);
                        checksum = checksum.wrapping_add(bound.unwrap_or(0));
                        checksum = checksum.wrapping_add(state.drop_eval(&dag, v, p_new, s_new));
                        drops += 1;
                    }
                }
                state.unlift(&dag, v);
            }
            std::hint::black_box(checksum);
            drops
        };
        // From construction: `HcState::new` sized every buffer, and each
        // destination's `s_new ≤ num_steps` fits the spare superstep.
        let (cold, allocs, deallocs) = counted(|| cycle_all(&mut state));
        assert_eq!(
            (allocs, deallocs),
            (0, 0),
            "lift/drop/unlift allocated on a fresh state on {name}, P={}: {allocs} allocs / \
             {deallocs} deallocs over {cold} drops",
            machine.p(),
        );
        // Warm-up: the op logs and tally matrices reach steady-state capacity.
        let warm = cycle_all(&mut state);
        assert!(warm > 100, "not enough destinations to be meaningful");

        let (measured, allocs, deallocs) = counted(|| cycle_all(&mut state));
        assert_eq!(measured, warm);
        assert_eq!(
            (allocs, deallocs),
            (0, 0),
            "lift/drop/unlift allocated on {name}, P={}: {allocs} allocs / {deallocs} deallocs \
             over {measured} drops",
            machine.p(),
        );

        // A bounded search phase, from a start with more to improve: warm
        // one up, measure the next.
        let init = search_start(&dag, &machine);
        let mut state = HcState::new(&dag, &machine, init.assignment.clone())
            .expect("scheduler output is feasible");
        let config = HillClimbConfig::with_max_steps(10);
        let mut scratch = SearchScratch::new();
        scratch.reserve(dag.n());
        let phase = |state: &mut HcState<'_>, scratch: &mut SearchScratch| {
            for v in 0..dag.n() {
                scratch.enqueue(v);
            }
            hc_search(&dag, &machine, state, &config, scratch)
        };
        let warm = phase(&mut state, &mut scratch);
        assert_eq!(
            warm.steps, 10,
            "{name}: warm-up phase ran out of improving moves"
        );

        let (measured, allocs, deallocs) = counted(|| phase(&mut state, &mut scratch));
        assert!(
            measured.steps > 0,
            "{name}: measured phase accepted nothing"
        );
        assert_eq!(
            (allocs, deallocs),
            (0, 0),
            "warm hc_search phase allocated on {name}, P={}: {allocs} allocs / {deallocs} \
             deallocs over {} accepted moves",
            machine.p(),
            measured.steps,
        );
    }
}

/// The text data path makes a fixed number of allocations per call, sized
/// once from counts it has checked: parsing a hyperDAG and validating a
/// schedule must not allocate more often for 16× the nodes (no per-line
/// `String`, no per-hyperedge or per-node `Vec`, no hash table growing).
#[test]
fn read_hyperdag_and_validate_allocation_counts_do_not_grow_with_n() {
    let _serial = one_at_a_time();
    let machine = Machine::numa_binary_tree(8, 2, 5, 3);
    let counts_at = |n: usize| {
        let dag = spmv(&SpmvConfig {
            n,
            density: 4.0 / n as f64,
            seed: 21,
        });
        let text = dag_gen::write_hyperdag(&dag);
        let schedule = SourceScheduler.schedule(&dag, &machine);
        assert!(!schedule.comm.is_empty(), "the schedule must carry a Γ");

        let (parsed, parse_allocs, _) = counted(|| dag_gen::read_hyperdag(&text));
        assert_eq!(parsed.expect("own output parses").n(), dag.n());

        let (verdict, validate_allocs, _) = counted(|| schedule.validate(&dag, &machine));
        assert!(verdict.is_ok());
        (dag.n(), parse_allocs, validate_allocs)
    };
    let (small_n, small_parse, small_validate) = counts_at(85);
    let (large_n, large_parse, large_validate) = counts_at(1400);
    assert!(
        (900..2000).contains(&small_n) && large_n >= 16 * small_n,
        "instance sizes drifted: {small_n} and {large_n} nodes"
    );
    assert_eq!(
        (small_parse, small_validate),
        (large_parse, large_validate),
        "allocations grew with n ({small_n} -> {large_n} nodes): \
         read_hyperdag {small_parse} -> {large_parse}, validate {small_validate} -> {large_validate}"
    );
    assert!(
        small_validate <= 4,
        "validate made {small_validate} allocations"
    );
}

/// Neither the cost function nor source placement holds a table of
/// supersteps × processors.  `BSPg` gives the funnel reduction of a
/// 1 500-iteration `bicgstab` one superstep per node, about 12 000 of them;
/// at `P = 16` such tables take 3.2 MB in a `cost` call and 4.8 MB in
/// `place_sources`, and each must stay below `16 · (n + |Γ|) + 64 · P`
/// bytes above what it started with (0.19 MB).
#[test]
fn cost_and_source_placement_hold_no_superstep_by_processor_table() {
    let _serial = one_at_a_time();
    let kernel = coarse(&CoarseConfig {
        algorithm: CoarseAlgorithm::BiCgStab,
        iterations: 1500,
    });
    let machine = Machine::uniform(16, 3, 5);
    let funnel = Funnel::contract(&kernel, machine.p()).expect("bicgstab contracts");
    let dag = funnel.dag();
    let schedule = BspgScheduler.schedule(dag, &machine);
    let (n, gamma, p) = (dag.n(), schedule.comm.len(), machine.p());
    let steps = schedule.num_supersteps();
    assert!(
        steps * p > 10 * (n + gamma),
        "{steps} supersteps at P = {p} for {n} nodes and {gamma} transfers: nothing to avoid"
    );
    let bound = 16 * (n + gamma) + 64 * p;

    let (cost, cost_bytes) = held_peak(|| schedule.cost(dag, &machine));
    std::hint::black_box(cost);
    let mut placed = schedule.clone();
    let (_, place_bytes) = held_peak(|| place_sources(dag, &machine, &mut placed));
    for (what, bytes) in [("cost", cost_bytes), ("place_sources", place_bytes)] {
        assert!(
            bytes < bound,
            "{what} held {bytes} bytes on {steps} supersteps × {p} processors, bound {bound}"
        );
    }
}

/// `HCcs` holds each required transfer once, as the `CommStep` that becomes
/// the answer's `Γ`, beside its window, its entries in the per-phase index
/// and its place on the work-list: below `56 · |Γ| + 32 · S · P + 4096`
/// bytes above what it started with, the `S × P` send and receive tallies
/// included.  A `cg` funnel DAG at `P = 16` requires 8 211 transfers from
/// `BSPg`'s start (38 bytes each; 169 with a copy of every requirement and
/// a `Vec` of `usize` per phase).
#[test]
fn hccs_holds_one_record_per_transfer() {
    let _serial = one_at_a_time();
    let n = 200;
    let kernel = cg(&IterConfig {
        n,
        density: 16.0 / n as f64,
        iterations: 2,
        seed: 42,
    });
    let machine = Machine::uniform(16, 3, 5);
    let funnel = Funnel::contract(&kernel, machine.p()).expect("cg contracts");
    let dag = funnel.dag();
    let mut schedule = BspgScheduler.schedule(dag, &machine);
    let (gamma, steps, p) = (schedule.comm.len(), schedule.num_supersteps(), machine.p());
    assert!(gamma >= 2000, "{gamma} transfers on {} nodes", dag.n());
    let bound = 56 * gamma + 32 * steps * p + 4096;

    let config = HillClimbConfig::default();
    let (outcome, bytes) = held_peak(|| hccs_improve(dag, &machine, &mut schedule, &config));
    assert!(outcome.steps > 0, "{outcome:?}: nothing to search");
    assert!(
        bytes < bound,
        "HCcs held {bytes} bytes for {gamma} transfers on {steps} supersteps × {p} processors, bound {bound}"
    );
}
