//! Human-readable rendering of BSP schedules.
//!
//! [`ascii_schedule`] prints a superstep-by-superstep view of a schedule —
//! which nodes each processor computes, how much work that is, and what the
//! communication phase transfers — in the spirit of the paper's Figure 1.
//! It is meant for debugging, examples and small instances; the output grows
//! linearly with the number of nodes and communication steps.

use crate::cost::cost_breakdown;
use crate::dag::Dag;
use crate::machine::Machine;
use crate::schedule::BspSchedule;
use std::fmt::Write as _;

/// Renders a schedule as a plain-text, superstep-by-superstep report.
///
/// Each superstep section lists the nodes (and summed work) per processor in
/// the computation phase, the transfers of the communication phase, and the
/// superstep's cost contribution `C_work + g · C_comm + ℓ`.
pub fn ascii_schedule(dag: &Dag, machine: &Machine, schedule: &BspSchedule) -> String {
    let breakdown = cost_breakdown(dag, machine, schedule);
    let steps = schedule.num_supersteps();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "BSP schedule: {} nodes, {} processors, {} supersteps, total cost {}",
        dag.n(),
        machine.p(),
        steps,
        breakdown.total()
    );

    // Nodes per (superstep, processor).
    let mut cells: Vec<Vec<Vec<usize>>> = vec![vec![Vec::new(); machine.p()]; steps.max(1)];
    for v in 0..dag.n() {
        cells[schedule.superstep(v)][schedule.proc(v)].push(v);
    }

    for s in 0..steps {
        let step_cost = breakdown
            .supersteps
            .get(s)
            .map(|c| c.total(machine.g()))
            .unwrap_or(machine.latency());
        let _ = writeln!(out, "superstep {s} (cost {step_cost}):");
        for (p, nodes) in cells[s].iter().enumerate() {
            if nodes.is_empty() {
                continue;
            }
            let work: u64 = nodes.iter().map(|&v| dag.work(v)).sum();
            let list = nodes
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(out, "  proc {p}: work {work:>4}  nodes [{list}]");
        }
        let transfers: Vec<String> = schedule
            .comm
            .steps()
            .iter()
            .filter(|c| c.step as usize == s)
            .map(|c| {
                format!(
                    "v{} {}→{} ({}·λ{})",
                    c.node,
                    c.from,
                    c.to,
                    dag.comm(c.node as usize),
                    machine.lambda(c.from as usize, c.to as usize)
                )
            })
            .collect();
        if !transfers.is_empty() {
            let _ = writeln!(out, "  comm : {}", transfers.join(", "));
        }
    }
    out
}

/// Renders a one-line-per-superstep summary: work cost, communication cost
/// and latency (the three terms of the BSP cost function) for each superstep.
pub fn cost_table(dag: &Dag, machine: &Machine, schedule: &BspSchedule) -> String {
    let breakdown = cost_breakdown(dag, machine, schedule);
    let mut out = String::new();
    let _ = writeln!(out, "superstep |   work |  g·comm | latency |   total");
    for (s, c) in breakdown.supersteps.iter().enumerate() {
        let _ = writeln!(
            out,
            "{s:>9} | {:>6} | {:>7} | {:>7} | {:>7}",
            c.work,
            machine.g() * c.comm,
            machine.latency(),
            c.total(machine.g())
        );
    }
    let _ = writeln!(
        out,
        "    total |        |         |         | {:>7}",
        breakdown.total()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Assignment;

    fn setup() -> (Dag, Machine, BspSchedule) {
        let dag = Dag::from_edges(
            4,
            &[(0, 1), (0, 2), (1, 3), (2, 3)],
            vec![2, 3, 4, 5],
            vec![1, 1, 1, 1],
        )
        .unwrap();
        let machine = Machine::uniform(2, 2, 5);
        let assignment = Assignment {
            proc: vec![0, 0, 1, 0],
            superstep: vec![0, 1, 1, 2],
        };
        let sched = BspSchedule::from_assignment_lazy(&dag, assignment);
        (dag, machine, sched)
    }

    #[test]
    fn ascii_schedule_mentions_every_node_and_the_total_cost() {
        let (dag, machine, sched) = setup();
        let text = ascii_schedule(&dag, &machine, &sched);
        for v in 0..dag.n() {
            assert!(
                text.contains(&format!("{v}")),
                "node {v} missing from rendering:\n{text}"
            );
        }
        assert!(text.contains(&format!("total cost {}", sched.cost(&dag, &machine))));
        assert!(text.contains("superstep 0"));
        assert!(
            text.contains("comm"),
            "communication phase not rendered:\n{text}"
        );
    }

    #[test]
    fn cost_table_totals_match_the_cost_function() {
        let (dag, machine, sched) = setup();
        let table = cost_table(&dag, &machine, &sched);
        let total = sched.cost(&dag, &machine);
        assert!(
            table.lines().last().unwrap().contains(&total.to_string()),
            "total {total} missing in:\n{table}"
        );
        // One line per superstep plus a header and a total line.
        let breakdown = cost_breakdown(&dag, &machine, &sched);
        assert_eq!(table.lines().count(), 2 + breakdown.num_supersteps());
    }

    #[test]
    fn rendering_handles_schedules_without_communication() {
        let dag = Dag::from_edge_list_unit_weights(3, &[(0, 1), (1, 2)]).unwrap();
        let machine = Machine::uniform(2, 1, 1);
        let sched = BspSchedule::trivial(&dag);
        let text = ascii_schedule(&dag, &machine, &sched);
        assert!(!text.contains("comm :"));
        assert!(text.contains("proc 0"));
    }
}
