//! The golden schedule table's pipeline rows, `HDagg` on the tie set and the
//! classical baselines on zero-work DAGs, and what the tie set and the
//! random set are there to exercise.  The table, its digests and how a
//! change that moves schedules updates it are in `common::golden`; the
//! other rows are checked by `constructor_equivalence` and `hc_equivalence`.

mod common;

use bsp_model::Dag;
use bsp_sched::baselines::HDaggScheduler;
use bsp_sched::Scheduler;
use common::golden::{check, random_dags, random_machines, tie_dags, tie_machines, Check};
use common::{source_bound, source_groups};

#[test]
fn the_pipeline_and_the_tie_and_zero_work_rows_reproduce_the_golden_table() {
    check(Check::Rest);
}

/// How often `HDagg`'s balance slack shut out some of the `p` processors
/// (`binds`) and all of them (`fallbacks`, the least-loaded rule) while it
/// assigned `proc`, replayed wavefront by wavefront.
fn hdagg_slack_events(dag: &Dag, p: usize, slack: f64, proc: &[u16]) -> (usize, usize) {
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

/// The tie set's rows pin `HDagg` where its slack decides: it shuts out some
/// processors at least 1 000 times and every processor at least 500.
#[test]
fn the_tie_set_binds_hdaggs_slack_and_falls_back() {
    let (mut binds, mut fallbacks) = (0, 0);
    for dag in tie_dags() {
        for slack in [1.0, 2.0] {
            for machine in tie_machines() {
                let hdagg = HDaggScheduler {
                    balance_slack: slack,
                };
                let proc = hdagg.schedule(&dag, &machine).assignment.proc;
                let events = hdagg_slack_events(&dag, machine.p(), slack, &proc);
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

/// The random set's `Source` rows pin the first superstep's cluster bound
/// where it binds: on at least 20 (DAG, machine) inputs some group of
/// sources sharing successors holds more than the bound, so the bound splits
/// it.
#[test]
fn the_random_set_splits_source_groups_at_the_bound() {
    let dags = random_dags();
    assert_eq!(dags.len(), 220);
    let mut splits = 0;
    for dag in &dags {
        for machine in random_machines() {
            let bound = source_bound(dag, machine.p());
            let groups = source_groups(dag);
            splits += usize::from(groups.iter().any(|&(n, work)| n > 1 && work > bound));
        }
    }
    assert!(splits >= 20, "the bound splits a group on {splits} inputs");
}
