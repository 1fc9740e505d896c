//! The funnel (in-tree) reduction in front of `Pipeline`, and the `Source`
//! cluster bound that ships with it.
//!
//! `Funnel::contract` merges every node whose successors all lie in one
//! cluster into that cluster.  The tests here hold, over random DAGs × random
//! machines and the benchmark's five generator families, what the schedulers
//! rely on: a cluster has one exit and the quotient is built by the stated
//! rule; the reduction is *exact* (a projected schedule validates on the DAG
//! at the coarse cost, lazy `Γ` or explicit) and idempotent; a DAG with
//! nothing to contract takes the pipeline as it stood; a pure in-tree does
//! not fold into one node; and two guard rows keep the gain and the `Source`
//! bound from eroding.

mod common;

use bsp_model::{Assignment, BspSchedule, Dag, Machine};
use bsp_sched::baselines::CilkScheduler;
use bsp_sched::hill_climb::HillClimbConfig;
use bsp_sched::init::{BspgScheduler, SourceScheduler};
use bsp_sched::pipeline::{Pipeline, PipelineConfig};
use bsp_sched::{Funnel, Scheduler};
use common::{
    benchmark_families, benchmark_machines, fine_spmv, placed_start, random_dag, random_machine,
    rng_for_case, source_bound, source_groups,
};
use dag_gen::{exp, IterConfig};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;

/// A sparse random DAG: every node but the last has one successor, every
/// third a second one, a few ids ahead — chains and in-trees with the odd
/// fork, which is what the reduction feeds on (`random_dag` keeps every
/// second edge and barely contracts).
fn sparse_dag(rng: &mut ChaCha8Rng, max_nodes: usize) -> Dag {
    let n = rng.gen_range(2usize..=max_nodes);
    let mut edges = Vec::new();
    for u in 0..n - 1 {
        let reach = (n - 1 - u).min(6);
        let first = u + rng.gen_range(1..=reach);
        edges.push((u, first));
        let second = u + rng.gen_range(1..=reach);
        if second != first && rng.gen_range(0usize..3) == 0 {
            edges.push((u, second));
        }
    }
    let work = (0..n).map(|_| rng.gen_range(1u64..20)).collect();
    let comm = (0..n).map(|_| rng.gen_range(0u64..10)).collect();
    Dag::from_edges(n, &edges, work, comm).expect("edges run from smaller to larger ids")
}

/// Random dense and sparse DAGs on random machines, and every family on the
/// benchmark's two machines.
fn inputs() -> Vec<(String, Dag, Machine)> {
    let mut inputs = Vec::new();
    for case in 0..60 {
        let mut rng = rng_for_case(0xF077E1, case);
        let dag = if case % 3 == 0 {
            random_dag(&mut rng, 30)
        } else {
            sparse_dag(&mut rng, 120)
        };
        let machine = random_machine(&mut rng);
        inputs.push((format!("case {case} (n = {})", dag.n()), dag, machine));
    }
    for (family, dag) in benchmark_families() {
        for machine in benchmark_machines() {
            let name = format!("{family} (n = {}), P = {}", dag.n(), machine.p());
            inputs.push((name, dag.clone(), machine));
        }
    }
    inputs
}

/// The work a cluster may hold on `p` processors.
fn cluster_bound(dag: &Dag, p: usize) -> u64 {
    dag.total_work() / (2 * p as u64)
}

/// A local search bounded by steps.
fn pipeline(max_steps: usize) -> Pipeline {
    Pipeline::new(PipelineConfig {
        hill_climb: HillClimbConfig::with_max_steps(max_steps),
        ..PipelineConfig::default()
    })
}

#[test]
fn a_cluster_has_one_exit_and_the_quotient_is_built_by_the_stated_rule() {
    let (mut contracted, mut untouched) = (0, 0);
    for (name, dag, machine) in inputs() {
        let bound = cluster_bound(&dag, machine.p());
        let Some(funnel) = Funnel::contract(&dag, machine.p()) else {
            // Nothing contracts: whoever has all its successors in one
            // cluster — a single node, here — is kept out by the bound.
            for u in 0..dag.n() {
                let mut successors = dag.successors(u);
                if let Some(first) = successors.next() {
                    let one_cluster = successors.all(|v| v == first);
                    let fits = dag.work(u) + dag.work(first) <= bound;
                    assert!(!(one_cluster && fits), "{name}: {u} could have joined");
                }
            }
            untouched += 1;
            continue;
        };
        contracted += 1;
        let coarse = funnel.dag();
        let roots = funnel.roots();
        assert!(coarse.n() < dag.n() && coarse.n() == roots.len(), "{name}");
        assert!(coarse.topological_order().is_some(), "{name}: not a DAG");
        assert!(roots.windows(2).all(|w| w[0] < w[1]), "{name}: root order");

        let mut work = vec![0u64; coarse.n()];
        let mut members = vec![0usize; coarse.n()];
        for v in 0..dag.n() {
            let cluster = funnel.cluster_of(v);
            work[cluster] += dag.work(v);
            members[cluster] += 1;
            if roots[cluster] != v {
                // A non-root member has no consumer outside its cluster.
                assert!(dag.out_degree(v) > 0, "{name}: sink {v} is not a root");
                for succ in dag.successors(v) {
                    assert_eq!(funnel.cluster_of(succ), cluster, "{name}: {v} → {succ}");
                }
            }
        }
        for (cluster, &root) in roots.iter().enumerate() {
            assert_eq!(funnel.cluster_of(root), cluster, "{name}");
            assert_eq!(coarse.work(cluster), work[cluster], "{name}: w = Σ members");
            assert_eq!(coarse.comm(cluster), dag.comm(root), "{name}: c = c(root)");
            assert!(
                members[cluster] == 1 || work[cluster] <= bound,
                "{name}: cluster {cluster} holds {} > {bound}",
                work[cluster]
            );
        }

        // The first occurrence of every cluster pair, in `dag.edges()` order.
        let mut seen = HashSet::new();
        let mut successors = vec![Vec::new(); coarse.n()];
        for (a, b) in dag.edges() {
            let (ca, cb) = (funnel.cluster_of(a), funnel.cluster_of(b));
            if ca != cb && seen.insert((ca, cb)) {
                successors[ca].push(cb);
            }
        }
        for (cluster, expected) in successors.iter().enumerate() {
            assert_eq!(
                coarse.successors(cluster).collect::<Vec<_>>(),
                *expected,
                "{name}: edges"
            );
        }

        // Idempotent: a second application contracts nothing.
        assert_eq!(Funnel::contract(coarse, machine.p()), None, "{name}");
    }
    assert!(
        contracted >= 40 && untouched >= 4,
        "{contracted} inputs contracted, {untouched} did not"
    );
}

/// A random valid `(π, τ)` of `dag`: any processor, and a superstep late
/// enough for every predecessor's value to have arrived.
fn random_assignment(rng: &mut ChaCha8Rng, dag: &Dag, p: usize) -> Assignment {
    let mut proc = vec![0u16; dag.n()];
    let mut superstep = vec![0u32; dag.n()];
    for v in dag.topological_order().expect("a DAG") {
        let v = v as usize;
        proc[v] = rng.gen_range(0..p) as u16;
        let earliest = dag
            .predecessors(v)
            .map(|u| superstep[u] + u32::from(proc[u] != proc[v]));
        superstep[v] = earliest.max().unwrap_or(0) + rng.gen_range(0usize..2) as u32;
    }
    Assignment { proc, superstep }
}

#[test]
fn a_projected_schedule_is_valid_on_the_dag_at_exactly_the_coarse_cost() {
    let pipeline = pipeline(300);
    let mut checked = 0;
    for (case, (name, dag, machine)) in inputs().into_iter().enumerate() {
        let Some(funnel) = Funnel::contract(&dag, machine.p()) else {
            continue;
        };
        let coarse = funnel.dag();
        let assert_exact = |what: &str, schedule: &BspSchedule| {
            schedule
                .validate(coarse, &machine)
                .unwrap_or_else(|e| panic!("{name}, {what}: invalid on the funnel DAG: {e}"));
            let projected = funnel.project(schedule);
            projected
                .validate(&dag, &machine)
                .unwrap_or_else(|e| panic!("{name}, {what}: invalid on the DAG: {e}"));
            assert_eq!(
                projected.cost(&dag, &machine),
                schedule.cost(coarse, &machine),
                "{name}, {what}: cost"
            );
            projected
        };

        // Lazy `Γ`: the projection is the lazy schedule of the projected
        // assignment, transfer for transfer.
        let mut rng = rng_for_case(0x1A27, case as u64);
        for round in 0..3 {
            let assignment = random_assignment(&mut rng, coarse, machine.p());
            let lazy = BspSchedule::from_assignment_lazy(coarse, assignment);
            let projected = assert_exact(&format!("lazy {round}"), &lazy);
            let assignment = projected.assignment.clone();
            assert_eq!(
                projected,
                BspSchedule::from_assignment_lazy(&dag, assignment),
                "{name}: lazy {round}"
            );
        }

        // Explicit `Γ`: the pipeline's own `HCcs`-optimised schedule of the
        // funnel DAG (a second reduction contracts nothing, so this run
        // solves `coarse` as it stands).
        let searched = pipeline.run_report(coarse, &machine);
        assert_eq!(searched.funnel_nodes, coarse.n(), "{name}");
        assert_exact("HCcs", &searched.schedule);
        checked += 1;
    }
    assert!(checked >= 40, "only {checked} inputs contracted");
}

/// Every node above the last layer has two successors in the next one: the
/// sinks are clusters of their own, so by induction up the layers no node has
/// all its successors in one cluster.
fn layered_dag(rng: &mut ChaCha8Rng) -> Dag {
    let width = rng.gen_range(3usize..8);
    let layers = rng.gen_range(2usize..6);
    let mut edges = Vec::new();
    for v in 0..width * (layers - 1) {
        let next = (v / width + 1) * width;
        let first = rng.gen_range(0..width);
        let second = (first + rng.gen_range(1..width)) % width;
        edges.push((v, next + first));
        edges.push((v, next + second));
    }
    let n = width * layers;
    let work = (0..n).map(|_| rng.gen_range(1u64..20)).collect();
    let comm = (0..n).map(|_| rng.gen_range(0u64..10)).collect();
    Dag::from_edges(n, &edges, work, comm).expect("edges run down the layers")
}

/// With nothing to contract `Pipeline::run_report` solves the DAG it was
/// handed: each initializer's start is its schedule of *that* DAG (on the
/// width it reports, sources placed), and the answer keeps the bounds of any
/// other.  (What a report stands for in general — the width rule per
/// initializer, the one search, the floor, `par == seq` — is
/// `tests/placement_width.rs`, which counts its uncontracted inputs.)
#[test]
fn a_dag_with_nothing_to_contract_takes_the_pipeline_as_it_stood() {
    let pipeline = pipeline(2000);
    let inits: [&dyn Scheduler; 2] = [&BspgScheduler, &SourceScheduler];
    for case in 0..16 {
        let mut rng = rng_for_case(0x2D06, case);
        let dag = layered_dag(&mut rng);
        let machine = random_machine(&mut rng);
        assert_eq!(Funnel::contract(&dag, machine.p()), None, "case {case}");

        let report = pipeline.run_report(&dag, &machine);
        assert_eq!(report.funnel_nodes, dag.n(), "case {case}");
        assert!(report.schedule.validate(&dag, &machine).is_ok());
        assert_eq!(report.final_cost, report.schedule.cost(&dag, &machine));
        let trivial = BspSchedule::trivial(&dag).cost(&dag, &machine);
        assert!(report.final_cost <= trivial, "case {case}");
        let kept: Vec<_> = report.branches.iter().filter(|b| b.kept).collect();
        assert_eq!(kept.len(), inits.len(), "case {case}");
        for (init, branch) in inits.into_iter().zip(kept) {
            let start = placed_start(init, &dag, &machine, branch.width);
            assert_eq!(
                branch.init_cost,
                start.cost(&dag, &machine),
                "case {case}: {} did not start on the DAG itself",
                init.name()
            );
            assert!(report.final_cost <= branch.init_cost, "case {case}");
        }
    }
}

#[test]
fn a_pure_in_tree_does_not_fold_into_one_node() {
    // A complete binary in-tree: node `v` feeds `(v − 1) / 2`, node 0 is the
    // sink.  Unbounded it is one funnel and would contract to a single node.
    let edges: Vec<(usize, usize)> = (1..1023).map(|v| (v, (v - 1) / 2)).collect();
    let dag = Dag::from_edge_list_unit_weights(1023, &edges).unwrap();
    let machine = Machine::uniform(4, 3, 5);
    let funnel = Funnel::contract(&dag, machine.p()).expect("an in-tree is all funnels");
    let clusters = funnel.dag().n();
    assert!((8..256).contains(&clusters), "{clusters} clusters");
    let bound = cluster_bound(&dag, machine.p());
    assert!(funnel.dag().work_weights().iter().all(|&w| w <= bound));

    let report = pipeline(usize::MAX).run_report(&dag, &machine);
    assert_eq!(report.funnel_nodes, clusters);
    assert!(report.schedule.validate(&dag, &machine).is_ok());
    let used: HashSet<u16> = report.schedule.assignment.proc.iter().copied().collect();
    assert!(used.len() > 1, "the in-tree ended on one processor");
    assert!(report.final_cost < BspSchedule::trivial(&dag).cost(&dag, &machine));
}

/// Two rows that fail without this PR's two halves: the first without the
/// reduction (the parent answers ≈ 0.33 × `Cilk`, the reduction ≈ 0.23), the
/// second with the reduction but without `Source`'s cluster bound (`Source`
/// then collapses onto one processor, the sweep never narrows and the answer
/// is the trivial schedule at width 8).
#[test]
fn guard_rows_keep_the_gain_and_the_source_bound() {
    let pipeline = Pipeline::default();

    let dag = fine_spmv(350, 1);
    let machine = Machine::uniform(4, 3, 5);
    let cilk = CilkScheduler::default().schedule(&dag, &machine);
    let report = pipeline.run_report(&dag, &machine);
    assert!(report.schedule.validate(&dag, &machine).is_ok());
    let ratio = report.final_cost as f64 / cilk.cost(&dag, &machine) as f64;
    assert!(ratio <= 0.27, "spmv on uniform(4,3,5): {ratio:.4} × Cilk");

    // `medium-exp-wide` of the paper's dataset: two iterations, four entries
    // a row, ≈ 1500 nodes.
    let dag = exp(&IterConfig {
        n: 85,
        density: 4.0 / 85.0,
        iterations: 2,
        seed: 3,
    });
    assert!((1400..1600).contains(&dag.n()), "{} nodes", dag.n());
    let tree = Machine::numa_binary_tree(8, 3, 5, 3);
    let report = pipeline.run_report(&dag, &tree);
    assert!(report.schedule.validate(&dag, &tree).is_ok());
    let trivial = BspSchedule::trivial(&dag).cost(&dag, &tree);
    assert!(
        report.final_cost < trivial,
        "exp on the tree: {} against the trivial {trivial}",
        report.final_cost
    );
    assert!(
        report.placement_width < tree.p(),
        "the sweep did not narrow"
    );
}

#[test]
fn source_spreads_a_funnel_dag_and_leaves_fine_dags_as_they_were() {
    // On a funnel DAG the sources are the shared inputs: every one reaches
    // every other through a shared row sum, so they are one group of
    // sources sharing successors.  Without the bound that group is one
    // cluster and the schedule the one-processor one.
    let dag = fine_spmv(60, 1);
    for machine in &benchmark_machines() {
        let funnel = Funnel::contract(&dag, machine.p()).expect("spmv is all funnels");
        let coarse = funnel.dag();
        let groups = source_groups(coarse);
        assert_eq!(groups, [(coarse.sources().len(), groups[0].1)]);
        let assignment = SourceScheduler.assignment(coarse, machine);
        let used: HashSet<u16> = assignment.proc.iter().copied().collect();
        assert!(used.len() > 1, "Source collapsed on P = {}", machine.p());
    }
    // On the fine DAGs themselves a group is a matrix column, within the
    // bound, so the bound never binds.
    let families = benchmark_families();
    for (family, dag) in [&families[0], &families[2]] {
        for machine in &benchmark_machines() {
            let bound = source_bound(dag, machine.p());
            let largest = source_groups(dag).into_iter().map(|(_, work)| work).max();
            assert!(
                largest.is_some_and(|work| work <= bound),
                "{family}, P = {}: a group of {largest:?} against the bound {bound}",
                machine.p()
            );
        }
    }
}
