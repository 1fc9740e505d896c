//! `init::place_sources`, the consumer-aware source placement the pipeline
//! sends every initial schedule through, and `init::merge_supersteps`, which
//! follows it.
//!
//! Over random DAGs (dense, source-heavy, and the funnel DAGs of the fine
//! families) × uniform, tree and explicit machines, and both initializers at
//! every prefix width: the placement validates on the full
//! machine, costs no more than the input, raises no superstep's work
//! maximum, moves only in-degree-0 nodes and only between processors, and is
//! a fixed point of a second application.  The merge, over the same DAGs ×
//! `machine_grid()`, validates, saves at least `ℓ` per superstep it removes,
//! keeps every processor and the order of the supersteps, and finds nothing
//! the second time; no answer of the pipeline or of its improvement tail has
//! a barrier left to merge.  Two pinned rows hold the gain on the instance
//! the placement was built for, on either benchmark machine.

mod common;

use bsp_model::{BspSchedule, Dag, Machine};
use bsp_sched::baselines::CilkScheduler;
use bsp_sched::hill_climb::HillClimbConfig;
use bsp_sched::init::{merge_supersteps, place_sources, BspgScheduler, SourceScheduler};
use bsp_sched::pipeline::{improve_start, BranchReport, Pipeline, PipelineConfig, Start};
use bsp_sched::{Funnel, Scheduler};
use common::{machine_grid, placed_start, random_dag, rng_for_case};
use dag_gen::{cg, exp, spmv, IterConfig, SpmvConfig};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Many sources over a few layers of consumers: each source feeds one to
/// three nodes of the first layer, each later node reads two of the layer
/// before — the shape of a funnel DAG, with random weights.
fn source_heavy_dag(rng: &mut ChaCha8Rng) -> Dag {
    let sources = rng.gen_range(6usize..30);
    let width = rng.gen_range(3usize..8);
    let layers = rng.gen_range(1usize..4);
    let n = sources + width * layers;
    let mut edges = Vec::new();
    for v in 0..sources {
        for _ in 0..rng.gen_range(1usize..=3) {
            edges.push((v, sources + rng.gen_range(0..width)));
        }
    }
    for v in sources + width..n {
        let below = v - width - (v - sources) % width;
        edges.push((below + rng.gen_range(0..width), v));
        edges.push((below + rng.gen_range(0..width), v));
    }
    edges.sort_unstable();
    edges.dedup();
    let work = (0..n).map(|_| rng.gen_range(1u64..6)).collect();
    let comm = (0..n).map(|_| rng.gen_range(0u64..10)).collect();
    Dag::from_edges(n, &edges, work, comm).expect("edges run up the layers")
}

/// What the funnel reduction leaves of a small fine-grained instance.
fn funnel_dag(rng: &mut ChaCha8Rng, case: u64) -> Dag {
    let n = rng.gen_range(8usize..20);
    let iter = IterConfig {
        n,
        density: 4.0 / n as f64,
        iterations: 2,
        seed: case,
    };
    let dag = match case % 3 {
        0 => spmv(&SpmvConfig {
            n: iter.n,
            density: iter.density,
            seed: case,
        }),
        1 => cg(&iter),
        _ => exp(&iter),
    };
    let funnel = Funnel::contract(&dag, 4).expect("the fine families are all funnels");
    funnel.dag().clone()
}

/// One of the three DAG kinds of the properties, by case: dense random,
/// source-heavy, a funnel DAG.
fn case_dag(rng: &mut ChaCha8Rng, case: u64) -> Dag {
    match case % 3 {
        0 => random_dag(rng, 24),
        1 => source_heavy_dag(rng),
        _ => funnel_dag(rng, case),
    }
}

/// Uniform, a tree, and an explicit matrix that is neither.
fn machines(rng: &mut ChaCha8Rng) -> Vec<Machine> {
    let g = rng.gen_range(1u64..6);
    let l = rng.gen_range(0u64..8);
    let matrix = (0..6)
        .map(|_| (0..6).map(|_| rng.gen_range(1u64..5)).collect())
        .collect();
    vec![
        Machine::uniform(1 << rng.gen_range(1usize..=3), g, l),
        Machine::numa_binary_tree(8, g, l, rng.gen_range(2u64..5)),
        Machine::with_numa_matrix(6, g, l, matrix),
    ]
}

fn work_maxima(dag: &Dag, machine: &Machine, schedule: &BspSchedule) -> Vec<u64> {
    let steps = schedule.assignment.num_supersteps();
    let breakdown = schedule.cost_breakdown(dag, machine);
    breakdown.supersteps[..steps]
        .iter()
        .map(|s| s.work)
        .collect()
}

/// Every property of one application, and of the one after it.
fn assert_placement_holds(context: &str, dag: &Dag, machine: &Machine, input: &BspSchedule) {
    let mut placed = input.clone();
    let changed = place_sources(dag, machine, &mut placed);
    placed
        .validate(dag, machine)
        .unwrap_or_else(|e| panic!("{context}: invalid on the full machine: {e}"));
    let (before, after) = (input.cost(dag, machine), placed.cost(dag, machine));
    if changed {
        assert!(after < before, "{context}: kept {after} against {before}");
    } else {
        assert_eq!(&placed, input, "{context}: said no and changed it");
    }
    let maxima = work_maxima(dag, machine, &placed);
    for (s, (now, was)) in maxima
        .iter()
        .zip(work_maxima(dag, machine, input))
        .enumerate()
    {
        assert!(*now <= was, "{context}: superstep {s} work {was} -> {now}");
    }
    for v in 0..dag.n() {
        assert_eq!(placed.superstep(v), input.superstep(v), "{context}: τ({v})");
        if dag.in_degree(v) > 0 {
            assert_eq!(placed.proc(v), input.proc(v), "{context}: π({v})");
        }
    }
    let again = placed.clone();
    assert!(
        !place_sources(dag, machine, &mut placed),
        "{context}: a second application found more"
    );
    assert_eq!(placed, again, "{context}: a second application changed it");
}

#[test]
fn placement_is_valid_monotone_work_neutral_and_idempotent() {
    // The property must not hold vacuously.
    let (mut moved, mut kept, mut spilled) = (0, 0, 0);
    for case in 0..36 {
        let mut rng = rng_for_case(0x50AC, case);
        let dag = case_dag(&mut rng, case);
        for machine in machines(&mut rng) {
            let initializers: [&dyn Scheduler; 2] = [&BspgScheduler, &SourceScheduler];
            for init in initializers {
                for width in 1..=machine.p() {
                    let context = format!(
                        "case {case}, n = {}, {} on {width} of {machine:?}",
                        dag.n(),
                        init.name()
                    );
                    let input = init.schedule(&dag, &machine.prefix(width));
                    assert_placement_holds(&context, &dag, &machine, &input);

                    let mut placed = input.clone();
                    if place_sources(&dag, &machine, &mut placed) {
                        moved += 1;
                        let idle = |s: &BspSchedule| {
                            s.assignment.proc.iter().any(|&q| q as usize >= width)
                        };
                        spilled += usize::from(idle(&placed));
                    } else {
                        kept += 1;
                    }
                }
            }
        }
    }
    assert!(
        moved > 100 && kept > 100 && spilled > 10,
        "a regime hardly came up: moved {moved}, kept {kept}, spilled past the prefix {spilled}"
    );
}

#[test]
fn placement_starts_from_any_communication_schedule() {
    // A bespoke `Γ` (here `HCcs`'s) is part of the cost the result has to
    // beat, and comes back untouched when it does not.
    use bsp_sched::hill_climb::{hccs_improve, HillClimbConfig};
    for case in 0..12 {
        let mut rng = rng_for_case(0x50AD, case);
        let dag = source_heavy_dag(&mut rng);
        for machine in machines(&mut rng) {
            let mut input = BspgScheduler.schedule(&dag, &machine);
            hccs_improve(&dag, &machine, &mut input, &HillClimbConfig::default());
            let context = format!("case {case}, {machine:?}");
            assert_placement_holds(&context, &dag, &machine, &input);
        }
    }
}

/// What a width-sweep candidate costs at least: the initializer leaves every
/// node with a predecessor on the first `width` processors, where
/// `place_sources` and the merge do not move it, so the fullest of them carries at least
/// a `width`-th of that work; the critical path and one latency hold as
/// ever.  The sources may go anywhere.
fn placed_bound(dag: &Dag, machine: &Machine, width: usize) -> u64 {
    let fed: u64 = (0..dag.n())
        .filter(|&v| dag.in_degree(v) > 0)
        .map(|v| dag.work(v))
        .sum();
    fed.div_ceil(width as u64).max(dag.critical_path_work()) + machine.latency()
}

/// `lower_bound(prefix(w))` is no bound on a placed candidate: a source can
/// leave the prefix.  `BSPg` on two of eight processors, sources placed,
/// costs 13 against the prefix's 14 (total work 27 over two processors); the
/// bound above reads 8 (the path 4 → 8).
#[test]
fn a_placed_candidate_can_cost_less_than_its_prefix_bound() {
    let edges = [(1, 8), (2, 7), (4, 8), (6, 7)];
    let work = vec![4, 3, 2, 1, 4, 4, 1, 4, 4];
    let comm = vec![1, 3, 1, 1, 1, 1, 3, 0, 1];
    let dag = Dag::from_edges(9, &edges, work, comm).unwrap();
    let machine = Machine::uniform(8, 1, 0);
    let placed = placed_start(&BspgScheduler, &dag, &machine, 2);
    assert_eq!(placed.validate(&dag, &machine), Ok(()));
    let prefix_bound = dag.lower_bound(&machine.prefix(2));
    assert_eq!((placed.cost(&dag, &machine), prefix_bound), (13, 14));
    assert_eq!(placed_bound(&dag, &machine, 2), 8);
}

/// Merges `input` as the pipeline does and checks the result: valid on the
/// full machine, at least `ℓ` cheaper per removed superstep than `input`
/// (whose `Γ` is lazy), the same processors, whole supersteps kept in order,
/// and nothing left for a second application.  Returns how many went.
fn assert_merge_holds(context: &str, dag: &Dag, machine: &Machine, input: &BspSchedule) -> usize {
    let mut merged = input.clone();
    let removed = merge_supersteps(dag, &mut merged.assignment);
    if removed == 0 {
        assert_eq!(&merged, input, "{context}: said 0 and changed it");
        return 0;
    }
    merged.relax_to_lazy(dag);
    merged
        .validate(dag, machine)
        .unwrap_or_else(|e| panic!("{context}: invalid after the merge: {e}"));
    let (before, after) = (input.cost(dag, machine), merged.cost(dag, machine));
    let saved = machine.latency() * removed as u64;
    assert!(
        after + saved <= before,
        "{context}: {before} -> {after}, {removed} supersteps"
    );
    assert_eq!(merged.assignment.proc, input.assignment.proc, "{context}");
    let steps = |s: &BspSchedule| s.assignment.num_supersteps();
    assert_eq!(steps(&merged) + removed, steps(input), "{context}");
    // Each old superstep goes whole into one new one, in order.
    let (old, new) = (&input.assignment.superstep, &merged.assignment.superstep);
    let mut moves: Vec<(u32, u32)> = old.iter().copied().zip(new.iter().copied()).collect();
    moves.sort_unstable();
    moves.dedup();
    assert!(
        moves
            .windows(2)
            .all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1),
        "{context}: superstep order"
    );
    let again = merged.clone();
    assert_eq!(
        merge_supersteps(dag, &mut merged.assignment),
        0,
        "{context}"
    );
    assert_eq!(merged, again, "{context}: a second application changed it");
    removed
}

#[test]
fn merging_is_valid_saves_a_latency_per_superstep_and_is_idempotent() {
    // The property must not hold vacuously.
    let (mut merged, mut kept, mut removed) = (0, 0, 0);
    for case in 0..36 {
        let mut rng = rng_for_case(0x3E26, case);
        let dag = case_dag(&mut rng, case);
        for machine in machine_grid() {
            let initializers: [&dyn Scheduler; 2] = [&BspgScheduler, &SourceScheduler];
            for init in initializers {
                for width in 1..=machine.p() {
                    let mut input = init.schedule(&dag, &machine.prefix(width));
                    for stage in ["built", "placed"] {
                        let context = format!(
                            "case {case}, n = {}, {} on {width} of {machine:?}, {stage}",
                            dag.n(),
                            init.name()
                        );
                        match assert_merge_holds(&context, &dag, &machine, &input) {
                            0 => kept += 1,
                            r => (merged, removed) = (merged + 1, removed + r),
                        }
                        place_sources(&dag, &machine, &mut input);
                    }
                }
            }
        }
    }
    assert!(
        merged > 1000 && kept > 1000 && removed > 2 * merged,
        "a regime hardly came up: merged {merged} ({removed} supersteps), kept {kept}"
    );
}

/// No answer keeps a barrier no value crosses: the pipeline's, and the
/// improvement tail's from a start the sweep never builds.
#[test]
fn no_answer_has_a_barrier_left_to_merge() {
    let config = PipelineConfig {
        hill_climb: HillClimbConfig::with_max_steps(500),
        ..PipelineConfig::default()
    };
    let (pipeline, search) = (Pipeline::new(config.clone()), &config.hill_climb);
    let mut answers = 0;
    for case in 0..24 {
        let mut rng = rng_for_case(0x3E27, case);
        let dag = case_dag(&mut rng, case);
        for machine in machine_grid() {
            let context = format!("case {case}, n = {}, {machine:?}", dag.n());
            let report = pipeline.run_report(&dag, &machine);
            let schedule = CilkScheduler::default().schedule(&dag, &machine);
            let (cost, bound) = (schedule.cost(&dag, &machine), dag.lower_bound(&machine));
            let branch = BranchReport {
                init_cost: cost,
                ..BranchReport::default()
            };
            let cilk = Start { branch, schedule };
            let now = Instant::now();
            let improved = improve_start(&dag, None, &machine, cilk, bound, search, now);
            assert!(improved.final_cost <= cost, "{context}: Cilk start");
            for (kind, answer, reported) in [
                ("pipeline", &report.schedule, report.final_cost),
                ("Cilk start", &improved.schedule, improved.final_cost),
            ] {
                assert!(answer.validate(&dag, &machine).is_ok(), "{context}: {kind}");
                assert_eq!(answer.cost(&dag, &machine), reported, "{context}: {kind}");
                let mut again = answer.assignment.clone();
                let left = merge_supersteps(&dag, &mut again);
                assert_eq!(left, 0, "{context}: {kind} answer");
                answers += 1;
            }
        }
    }
    assert_eq!(answers, 24 * 6 * 2);
}

/// Every candidate the sweep can judge — either initializer on any prefix,
/// sources placed, supersteps merged — costs at least [`placed_bound`].
#[test]
fn a_placed_candidate_costs_at_least_the_bound_of_what_stays_on_the_prefix() {
    let mut candidates = 0;
    for case in 0..36 {
        let mut rng = rng_for_case(0x50AE, case);
        let dag = case_dag(&mut rng, case);
        for machine in machine_grid() {
            let initializers: [&dyn Scheduler; 2] = [&BspgScheduler, &SourceScheduler];
            for init in initializers {
                for width in 1..=machine.p() {
                    let cost = placed_start(init, &dag, &machine, width).cost(&dag, &machine);
                    let bound = placed_bound(&dag, &machine, width);
                    assert!(
                        cost >= bound,
                        "case {case}, {} on {width} of {machine:?}: {cost} < {bound}",
                        init.name()
                    );
                    candidates += 1;
                }
            }
        }
    }
    assert!(candidates > 4000, "{candidates} candidates");
}

/// The instance of the issue: three iterations of `exp` on a 180-row matrix,
/// 2377 nodes of which the funnel reduction leaves the 1620 matrix and vector
/// entries as sources.
#[test]
fn pinned_rows_keep_the_gain() {
    let dag = exp(&IterConfig {
        n: 180,
        density: 8.0 / 180.0,
        iterations: 3,
        seed: 1,
    });
    let pipeline = Pipeline::default();

    // Was 4691 with the sources where `BSPg` and `Source` drop them; 3802.
    let uniform = Machine::uniform(4, 3, 5);
    let report = pipeline.run_report(&dag, &uniform);
    assert!(report.schedule.validate(&dag, &uniform).is_ok());
    assert_eq!(report.final_cost, report.schedule.cost(&dag, &uniform));
    assert!(
        report.final_cost <= 3900,
        "uniform(4,3,5): {}",
        report.final_cost
    );

    // Was 6451 at width 2: judged on `Source`'s schedule the sweep narrowed
    // past the subtree `BSPg` with placed sources is cheapest on; 5056.
    let tree = Machine::numa_binary_tree(8, 3, 5, 3);
    let report = pipeline.run_report(&dag, &tree);
    assert!(report.schedule.validate(&dag, &tree).is_ok());
    assert_eq!(report.final_cost, report.schedule.cost(&dag, &tree));
    assert_eq!(report.placement_width, 4, "{:?}", report.branches);
    assert!(
        report.final_cost <= 5300,
        "numa_binary_tree(8,3,5,3): {}",
        report.final_cost
    );
}
