//! One coarsening-ratio run of the multilevel scheduler as it was before the
//! portfolio shared one contraction log: coarsen from scratch to the ratio's
//! own target, build the coarse DAG with a `BTreeSet` edge dedup, run the
//! base pipeline, and always walk the whole log back up.  Kept as the
//! reference `tests/multilevel_equivalence.rs` holds the scheduler's
//! per-ratio answers against; it goes through public API only.  The DAG it
//! is handed is the one the portfolio races on — what the funnel reduction
//! left of the caller's — and the target is worked out by the caller, from
//! the caller's node count ([`target`]).

use bsp_model::{Assignment, BspSchedule, Dag, DagBuilder, Machine, NodeId};
use bsp_sched::hill_climb::{hccs_improve, HillClimbConfig};
use bsp_sched::ilp::{ilp_cs_improve, IlpConfig};
use bsp_sched::multilevel::{coarsen, Clustering, IncrementalRefiner, MultilevelConfig};
use bsp_sched::pipeline::{placement_width, Pipeline, PipelineConfig};
use std::collections::BTreeSet;

/// The coarse DAG of `clustering` through `DagBuilder` and a `BTreeSet` over
/// all of `dag`'s edges.
pub fn quotient_dag(clustering: &Clustering, dag: &Dag) -> (Dag, Vec<NodeId>) {
    let reps = clustering.representatives();
    let mut builder = DagBuilder::new();
    for &r in reps {
        let work = clustering.members(r).iter().map(|&v| dag.work(v)).sum();
        let comm = clustering.members(r).iter().map(|&v| dag.comm(v)).sum();
        builder.add_node(work, comm);
    }
    let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (a, b) in dag.edges() {
        let ca = clustering.rep_index(clustering.cluster_of(a));
        let cb = clustering.rep_index(clustering.cluster_of(b));
        if ca != cb && seen.insert((ca, cb)) {
            builder.add_edge(ca, cb);
        }
    }
    let quotient = builder
        .build()
        .expect("contractions preserve acyclicity, so the quotient is a DAG");
    (quotient, reps.to_vec())
}

/// The number of clusters `ratio` asks for on a DAG of `n` nodes.
pub fn target(config: &MultilevelConfig, n: usize, ratio: f64) -> usize {
    ((n as f64 * ratio).round() as usize)
        .max(config.min_coarse_nodes)
        .clamp(2, n.saturating_sub(1).max(2))
}

/// `HCcs`, then `ILPcs` when the base pipeline has its ILP stage enabled.
fn final_comm_optimization(
    config: &MultilevelConfig,
    dag: &Dag,
    machine: &Machine,
    schedule: &mut BspSchedule,
) {
    let cancel = config.base.effective_cancel();
    let hccs_cfg = HillClimbConfig {
        time_limit: config.final_comm_time_limit,
        max_steps: usize::MAX,
        cancel: cancel.clone(),
    };
    hccs_improve(dag, machine, schedule, &hccs_cfg);
    if config.base.use_ilp {
        let ilp_config = IlpConfig {
            cancel,
            ..config.base.ilp.clone()
        };
        ilp_cs_improve(dag, machine, schedule, &ilp_config);
    }
}

/// One full coarsen–solve–refine run down to `target` clusters, with one
/// thread for the base pipeline.
pub fn ratio_run(
    config: &MultilevelConfig,
    dag: &Dag,
    machine: &Machine,
    target: usize,
) -> BspSchedule {
    let base_pipeline = Pipeline::new(PipelineConfig {
        use_ilp_cs: false,
        ..config.base.clone().with_thread_budget(1)
    });
    let (clustering, quotient) = coarsen(dag, target).into_parts();
    let coarse_nodes = clustering.num_clusters();
    let (coarse_dag, reps) = quotient_dag(&clustering, dag);
    // The ratio members' base solve: no sweep on the coarse DAG and no
    // floor under it, the initializers on the width kept for `dag` itself.
    let coarse_schedule = base_pipeline
        .run_report_on_prefix(&coarse_dag, machine, placement_width(dag, machine))
        .schedule;

    let mut proc = vec![0usize; dag.n()];
    let mut step = vec![0usize; dag.n()];
    for (i, &rep) in reps.iter().enumerate() {
        proc[rep] = coarse_schedule.proc(i);
        step[rep] = coarse_schedule.superstep(i);
    }
    let mut refiner = IncrementalRefiner::new(
        machine,
        quotient,
        Assignment {
            proc,
            superstep: step,
        },
    )
    .expect("the base pipeline produces lazily-feasible schedules");

    let refine_config = HillClimbConfig {
        time_limit: config.refine_time_limit,
        max_steps: config.refine_max_steps,
        cancel: config.base.effective_cancel(),
    };
    let mut since_refine = 0usize;
    let mut active = coarse_nodes;
    loop {
        let more = refiner.uncontract_one().is_some();
        since_refine += 1;
        active += 1;
        if !more {
            refiner.refine_full(&refine_config);
            break;
        }
        let interval = match active.checked_div(config.refine_interval_scale) {
            Some(scaled) => config.refine_interval.max(scaled),
            None => config.refine_interval,
        };
        if since_refine >= interval {
            refiner.refine(&refine_config);
            since_refine = 0;
        }
    }

    let mut schedule = BspSchedule::from_assignment_lazy(dag, refiner.into_assignment());
    schedule.normalize(dag);
    final_comm_optimization(config, dag, machine, &mut schedule);
    schedule
        .validate(dag, machine)
        .expect("the reference run produces valid schedules");
    schedule
}
