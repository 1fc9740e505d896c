//! Property tests for the incremental multilevel engine: the persistent
//! quotient graph must stay isomorphic to a from-scratch rebuild after any
//! prefix of uncontractions, and the warm-started (split-patched) refinement
//! state must be indistinguishable from a cold one built off the same
//! assignment.

mod common;

use bsp_model::{BspSchedule, Dag, DagView};
use bsp_sched::hill_climb::{HcState, HillClimbConfig};
use bsp_sched::init::SourceScheduler;
use bsp_sched::multilevel::{
    coarsen, BatchCoarsener, CoarsenConfig, Coarsening, IncrementalRefiner,
};
use bsp_sched::Scheduler;
use common::{random_dag, random_machine, rng_for_case};
use rand::Rng;
use std::time::Duration;

const CASES: u64 = 24;

/// Asserts that the incremental quotient equals the from-scratch
/// `Clustering::quotient_dag` build: same clusters, same summed work and
/// communication weights, same edge set.
fn assert_isomorphic(dag: &Dag, coarsening: &Coarsening, context: &str) {
    let clustering = &coarsening.clustering;
    let quotient = &coarsening.quotient;
    let (reference, reps) = clustering.quotient_dag(dag);
    assert_eq!(
        quotient.num_active(),
        reference.n(),
        "{context}: node count"
    );
    for (i, &r) in reps.iter().enumerate() {
        assert!(quotient.is_active(r), "{context}: rep {r} inactive");
        assert_eq!(
            quotient.work(r),
            reference.work(i),
            "{context}: work of {r}"
        );
        assert_eq!(
            quotient.comm(r),
            reference.comm(i),
            "{context}: comm of {r}"
        );
    }
    let mut incremental_edges: Vec<(usize, usize)> = quotient
        .edges()
        .map(|(a, b, _)| (clustering.rep_index(a), clustering.rep_index(b)))
        .collect();
    incremental_edges.sort_unstable();
    let mut reference_edges: Vec<(usize, usize)> = reference.edges().collect();
    reference_edges.sort_unstable();
    assert_eq!(incremental_edges, reference_edges, "{context}: edge set");
    // (Ranks are coarsening-time data: the periodic rank refresh means the
    // values restored during uncoarsening can mix numbering systems, so they
    // are deliberately not checked here — quotient.rs unit-tests their
    // validity under contraction.)
}

/// After any prefix of uncontractions, the persistent quotient graph is
/// isomorphic (same nodes, edges, summed weights) to a from-scratch quotient
/// build off the member-level clustering.
#[test]
fn incremental_quotient_isomorphic_after_any_uncontraction_prefix() {
    for case in 0..CASES {
        let mut rng = rng_for_case(0xC0A2, case);
        let dag = random_dag(&mut rng, 18);
        let target = rng.gen_range(1..=dag.n().max(2) - 1);
        let mut coarsening = coarsen(&dag, target);
        assert!(coarsening.num_clusters() >= target.min(dag.n()));
        let mut prefix = 0usize;
        loop {
            assert_isomorphic(&dag, &coarsening, &format!("case {case}, prefix {prefix}"));
            if coarsening.uncontract_one().is_none() {
                break;
            }
            prefix += 1;
        }
        assert_eq!(coarsening.num_clusters(), dag.n(), "case {case}");
    }
}

/// Stepping the batch coarsener one round at a time: after **every** round
/// (not just at the end) the quotient's rank array is a strict topological
/// numbering of the surviving edges, and the from-scratch quotient built off
/// the member-level clustering is an acyclic DAG with the same node count.
/// This is the per-round invariant the rank-monotonicity lemma promises for
/// endpoint-disjoint batches — a bad batch would surface here as a rank
/// inversion or a cycle in the reference build.
#[test]
fn batch_rounds_preserve_acyclicity_at_every_level() {
    for case in 0..CASES {
        let mut rng = rng_for_case(0xBA7C, case);
        let dag = random_dag(&mut rng, 20);
        let target = rng.gen_range(1..=dag.n().max(2) - 1);
        // `tail_width: 0` keeps every level on batch rounds — the per-round
        // invariant under test is the batch engine's.
        let mut coarsener = BatchCoarsener::new(&dag, target, &CoarsenConfig { tail_width: 0 });
        let mut round = 0usize;
        loop {
            let applied = coarsener.round();
            let quotient = coarsener.quotient();
            for (a, b, _) in quotient.edges() {
                assert!(
                    quotient.rank(a) < quotient.rank(b),
                    "case {case}, round {round}: edge ({a}, {b}) violates rank order"
                );
            }
            let (reference, _) = coarsener.clustering().quotient_dag(&dag);
            assert!(
                reference.topological_order().is_some(),
                "case {case}, round {round}: reference quotient has a cycle"
            );
            assert_eq!(
                coarsener.num_clusters(),
                reference.n(),
                "case {case}, round {round}: cluster count"
            );
            if applied == 0 {
                break;
            }
            round += 1;
        }
        assert!(
            coarsener.num_clusters() >= target.min(dag.n()),
            "case {case}: overshot the target"
        );
    }
}

/// The warm-started refinement state — patched through
/// `pre_split`/`post_split` after every uncontraction and mutated by interleaved
/// work-list refinement phases — always reports the same cost as a cold
/// `HcState` built from scratch over the same quotient and assignment, and
/// the fully uncoarsened result is a valid schedule of that exact cost.
#[test]
fn warm_started_refinement_matches_cold_state_and_stays_valid() {
    let refine_config = HillClimbConfig {
        time_limit: Duration::from_millis(50),
        max_steps: 30,
        ..Default::default()
    };
    let mut refined_phases = 0usize;
    for case in 0..CASES {
        let mut rng = rng_for_case(0x5B17, case);
        let dag = random_dag(&mut rng, 16);
        let machine = random_machine(&mut rng);
        let target = rng.gen_range(1..=dag.n().max(2) - 1);
        let (clustering, quotient) = coarsen(&dag, target).into_parts();

        // Seed with a real coarse schedule, projected onto the representatives.
        let (coarse_dag, reps) = clustering.quotient_dag(&dag);
        let coarse_schedule = SourceScheduler.schedule(&coarse_dag, &machine);
        let mut proc = vec![0usize; dag.n()];
        let mut step = vec![0usize; dag.n()];
        for (i, &rep) in reps.iter().enumerate() {
            proc[rep] = coarse_schedule.proc(i);
            step[rep] = coarse_schedule.superstep(i);
        }
        let mut refiner = IncrementalRefiner::new(
            &machine,
            quotient,
            bsp_model::Assignment {
                proc,
                superstep: step,
            },
        )
        .expect("coarse Source schedule is lazily feasible");

        let mut splits = 0usize;
        loop {
            let cold = HcState::new(refiner.quotient(), &machine, refiner.assignment())
                .expect("warm assignment stays lazily feasible");
            assert_eq!(
                refiner.cost(),
                cold.total_cost(),
                "case {case}: warm state diverged from cold rebuild after {splits} splits"
            );
            if refiner.uncontract_one().is_none() {
                break;
            }
            splits += 1;
            if splits.is_multiple_of(3) {
                let outcome = refiner.refine(&refine_config);
                assert!(outcome.final_cost <= outcome.initial_cost, "case {case}");
                refined_phases += 1;
            }
        }
        refiner.refine_full(&refine_config);

        // Fully uncoarsened: the engine's assignment is the original-node
        // assignment, its cost is exactly the lazy-schedule cost, and the
        // schedule is valid.
        let cost = refiner.cost();
        let schedule = BspSchedule::from_assignment_lazy(&dag, refiner.into_assignment());
        assert!(
            schedule.validate(&dag, &machine).is_ok(),
            "case {case}: invalid refined schedule"
        );
        assert_eq!(
            schedule.cost(&dag, &machine),
            cost,
            "case {case}: engine cost diverged from the lazy schedule cost"
        );
    }
    assert!(
        refined_phases > CASES as usize,
        "property exercised only {refined_phases} interleaved refinement phases"
    );
}
