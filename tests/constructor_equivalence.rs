//! The schedule constructors against their oracle, the golden table
//! recorded before their rewrites (`common::golden`), on each case set, and
//! two corner cases pinned by value.

mod common;

use bsp_model::{Assignment, ClassicalSchedule, Dag, Machine};
use bsp_sched::init::SourceScheduler;
use common::golden::{check, Check};

/// 220 random DAGs of five shapes (layered, chains, fans, tied scores,
/// zero-work nodes) with shuffled ids, on 1, 2, 4 and 8 processors, uniform
/// and NUMA; also the superstep merge after placement, at every width.
#[test]
fn constructors_match_the_oracle_on_random_dags() {
    check(Check::Random);
}

/// Every family of the benchmark's workloads, at its `--smoke` sizes, on the
/// benchmark's two machines.
#[test]
fn constructors_match_the_oracle_on_the_benchmark_families() {
    check(Check::Families);
}

/// The conversion takes any `(proc, start)` pair, consistent or not, so it
/// is also pinned on random ones: few distinct start times make ties, and
/// ties on a blocked first node are the degenerate branch.
#[test]
fn conversion_matches_the_oracle_on_arbitrary_classical_schedules() {
    check(Check::Conversion);
}

/// The list schedulers on DAGs of 500–800 nodes, whose ready sets run to
/// hundreds of nodes: `ETF` keeps most of them waiting on a processor and
/// releases them as the processor's time passes their data-ready time.
#[test]
fn list_schedulers_match_the_oracle_on_wide_ready_sets() {
    check(Check::Wide);
}

/// The smallest input on which `Source`'s cluster bound binds: four unit
/// sources that all feed both sinks.  Without the bound they would be one
/// cluster and the pull-in would make the schedule the one-processor one;
/// bounded at `⌈4 / 2⌉ = 2` they are two clusters on two processors, and
/// the sinks, fed from both, follow a superstep later.
#[test]
fn source_splits_a_cluster_at_the_bound() {
    let edges: Vec<(usize, usize)> = (0..4).flat_map(|u| [(u, 4), (u, 5)]).collect();
    let dag = Dag::from_edge_list_unit_weights(6, &edges).unwrap();
    let machine = Machine::uniform(2, 3, 5);
    let expected = Assignment {
        proc: vec![0, 0, 1, 1, 0, 1],
        superstep: vec![0, 0, 0, 0, 1, 1],
    };
    assert_eq!(SourceScheduler.assignment(&dag, &machine), expected);
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
    assert_eq!(converted.proc, vec![0, 1]);
    assert_eq!(converted.superstep, vec![1, 0]);
    let machine = Machine::uniform(2, 1, 1);
    assert_eq!(cs.to_bsp(&dag).validate(&dag, &machine), Ok(()));
}
