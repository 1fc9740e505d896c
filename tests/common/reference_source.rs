//! `SourceScheduler::assignment` in its textbook (quadratic) form, as it was
//! before the constructors were rewritten to near-linear time, with the
//! first superstep's cluster bound as a parameter:
//! `tests/constructor_equivalence.rs` holds the library to
//! [`source_assignment`] (the bound the library applies), `tests/funnel.rs`
//! uses [`source_assignment_unbounded`] (the rule before the bound existed)
//! to show where the bound does and does not bind.

use bsp_model::{Assignment, Dag, Machine};

/// The library's rule: a first-superstep cluster holds at most
/// `⌈Σ w(sources) / P⌉` work.
pub fn source_assignment(dag: &Dag, machine: &Machine) -> Assignment {
    let source_work: u64 = dag.sources().iter().map(|&v| dag.work(v)).sum();
    assignment_with_bound(dag, machine, source_work.div_ceil(machine.p() as u64))
}

/// Sources that share a successor always share a cluster.
pub fn source_assignment_unbounded(dag: &Dag, machine: &Machine) -> Assignment {
    assignment_with_bound(dag, machine, u64::MAX)
}

fn assignment_with_bound(dag: &Dag, machine: &Machine, bound: u64) -> Assignment {
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

    // Remaining in-degree in the "shrinking" DAG (assigned nodes removed).
    let mut remaining_indeg: Vec<usize> = (0..n).map(|v| dag.in_degree(v)).collect();
    let mut assigned_count = 0usize;
    let mut superstep = 0usize;

    // Removes an assigned node from the remaining DAG.
    fn remove_node(dag: &Dag, v: usize, remaining_indeg: &mut [usize]) {
        for w in dag.successors(v) {
            remaining_indeg[w] = remaining_indeg[w].saturating_sub(1);
        }
    }

    while assigned_count < n {
        let sources: Vec<usize> = (0..n)
            .filter(|&v| proc[v] == usize::MAX && remaining_indeg[v] == 0)
            .collect();
        debug_assert!(
            !sources.is_empty(),
            "no sources but unassigned nodes remain"
        );
        let mut next_proc = 0usize;

        if superstep == 0 {
            // Cluster sources that share a direct successor, within the bound.
            let mut cluster_of: Vec<Option<usize>> = vec![None; n];
            let mut clusters: Vec<Vec<usize>> = Vec::new();
            let work_of = |cluster: &[usize]| cluster.iter().map(|&v| dag.work(v)).sum::<u64>();
            let fits =
                |cluster: &[usize], v: usize| work_of(cluster).saturating_add(dag.work(v)) <= bound;
            for &v in &sources {
                if cluster_of[v].is_some() {
                    continue;
                }
                // Does v share an out-neighbour with an already-clustered
                // source whose cluster has room?
                let mut target_cluster: Option<usize> = None;
                'outer: for succ in dag.successors(v) {
                    for u in dag.predecessors(succ) {
                        if u != v && proc[u] == usize::MAX && remaining_indeg[u] == 0 {
                            if let Some(c) = cluster_of[u] {
                                if fits(&clusters[c], v) {
                                    target_cluster = Some(c);
                                    break 'outer;
                                }
                            }
                        }
                    }
                }
                match target_cluster {
                    Some(c) => {
                        clusters[c].push(v);
                        cluster_of[v] = Some(c);
                    }
                    None => {
                        // Start a new cluster; pull in sharing partners that
                        // are not yet clustered and fit.
                        let c = clusters.len();
                        clusters.push(vec![v]);
                        cluster_of[v] = Some(c);
                        for succ in dag.successors(v) {
                            for u in dag.predecessors(succ) {
                                if u != v
                                    && proc[u] == usize::MAX
                                    && remaining_indeg[u] == 0
                                    && cluster_of[u].is_none()
                                    && fits(&clusters[c], u)
                                {
                                    clusters[c].push(u);
                                    cluster_of[u] = Some(c);
                                }
                            }
                        }
                    }
                }
            }
            for cluster in clusters {
                for v in cluster {
                    proc[v] = next_proc;
                    superstep_of[v] = superstep;
                    assigned_count += 1;
                    remove_node(dag, v, &mut remaining_indeg);
                }
                next_proc = (next_proc + 1) % p;
            }
        } else {
            // Decreasing work weight, round-robin.
            let mut order = sources.clone();
            order.sort_by_key(|&v| (std::cmp::Reverse(dag.work(v)), v));
            for v in order {
                proc[v] = next_proc;
                superstep_of[v] = superstep;
                assigned_count += 1;
                remove_node(dag, v, &mut remaining_indeg);
                next_proc = (next_proc + 1) % p;
            }
        }

        // Pull in successors whose predecessors all live on one processor.
        // (Iterate to a fixed point so chains of such nodes are absorbed.)
        loop {
            let mut pulled = false;
            for u in 0..n {
                if proc[u] != usize::MAX || remaining_indeg[u] != 0 {
                    continue;
                }
                let mut preds = dag.predecessors(u);
                let Some(first) = preds.next() else {
                    continue;
                };
                let target = proc[first];
                if preds.all(|w| proc[w] == target) {
                    proc[u] = target;
                    superstep_of[u] = superstep;
                    assigned_count += 1;
                    remove_node(dag, u, &mut remaining_indeg);
                    pulled = true;
                }
            }
            if !pulled {
                break;
            }
        }

        superstep += 1;
    }

    super::narrow_assignment(&proc, &superstep_of)
}
