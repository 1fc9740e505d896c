//! # bsp-sched
//!
//! The scheduling algorithms of the paper *"Efficient Multi-Processor
//! Scheduling in Increasingly Realistic Models"* (SPAA 2024), all operating on
//! the BSP + NUMA model of the [`bsp_model`] crate:
//!
//! * [`baselines`] — `Cilk` work stealing, the `BL-EST` and `ETF` list
//!   schedulers, the `HDagg` wavefront scheduler, and the trivial
//!   single-processor schedule.
//! * [`cancel`] — the cooperative [`CancelToken`] polled by every anytime
//!   search loop (deadline-aware requests and graceful shutdown in
//!   `bsp_serve` are built on it).
//! * [`funnel`] — the exact funnel (in-tree) reduction the pipeline applies to
//!   the DAG before it solves it: the multilevel idea of §4.5 ("a coarse node
//!   is a multi-node move") in the one form that pays here.
//! * [`init`] — the `BSPg` and `Source` initialization heuristics.
//! * [`hill_climb`] — the `HC` (node moves) and `HCcs` (communication
//!   schedule) hill-climbing local searches.
//! * [`ilp`] — `ILPcs` over the [`micro_ilp`] branch-&-bound solver: the exact
//!   check on `HCcs`, the one ILP formulation of the paper that solver closes.
//! * [`pipeline`] — the combined framework of Figure 3, the one scheduler.

pub mod baselines;
pub mod cancel;
pub mod funnel;
pub mod hill_climb;
pub mod ilp;
pub mod init;
#[doc(hidden)]
pub mod multilevel;
pub mod pipeline;

use bsp_model::{BspSchedule, Dag, Machine};
use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A scheduling algorithm: consumes a DAG and a machine description and
/// produces a valid BSP schedule.
pub trait Scheduler {
    /// Short name used in experiment tables (e.g. `"Cilk"`, `"HDagg"`).
    fn name(&self) -> &'static str;

    /// Computes a schedule.  Implementations must return a schedule that
    /// passes [`BspSchedule::validate`] for the given inputs.
    fn schedule(&self, dag: &Dag, machine: &Machine) -> BspSchedule;
}

/// Convenience: runs a scheduler and returns `(cost, schedule)`.
pub fn evaluate(scheduler: &dyn Scheduler, dag: &Dag, machine: &Machine) -> (u64, BspSchedule) {
    let sched = scheduler.schedule(dag, machine);
    let cost = sched.cost(dag, machine);
    (cost, sched)
}

/// Resolves a thread-budget knob to a concrete count: `0` means one thread
/// per available core, anything else passes through.  The single definition
/// every budget layer shares ([`pipeline::PipelineConfig::solve_threads`] and
/// `bsp_serve`'s derived per-worker budget).  A budget means one thing — how
/// many of the pipeline's width sweeps may run at once — and no search
/// reads it.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// The fork rule of the pipeline's sweep fan-out: maps `f` over `items` on
/// `min(budget, items)` lanes of the rayon pool, each lane taking the next
/// item nobody has started, so a budget that covers only some of the items
/// still keeps that many cores busy.  One lane is the calling thread going
/// through the items in order.  Results come back in input order either way.
pub(crate) fn map_within_budget<'a, T: Sync, R: Send>(
    budget: usize,
    items: &'a [T],
    f: impl Fn(&'a T) -> R + Sync,
) -> Vec<R> {
    let lanes: Vec<usize> = (0..budget.min(items.len())).collect();
    if lanes.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let _: Vec<()> = lanes
        .par_iter()
        .map(|_| {
            // `Relaxed`: the counter only hands out indices; the results are
            // published by their slots' mutexes and the join of the pool.
            loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(index) else { break };
                *slots[index].lock().expect("a slot is locked once") = Some(f(item));
            }
        })
        .collect();
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("a slot is locked once")
                .expect("the lanes took every item")
        })
        .collect()
}

pub use baselines::{
    BlEstScheduler, CilkScheduler, EtfScheduler, HDaggScheduler, TrivialScheduler,
};
pub use cancel::CancelToken;
pub use funnel::Funnel;
pub use hill_climb::{hc_improve, hccs_improve, HillClimbConfig};
pub use init::{BspgScheduler, SourceScheduler};
#[doc(hidden)]
pub use multilevel::{MultilevelConfig, MultilevelScheduler};
pub use pipeline::{PhaseSample, Pipeline, PipelineConfig};

#[cfg(test)]
mod tests {
    use super::map_within_budget;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    /// Runs `items` under `budget` and returns the results and the largest
    /// number of items that were inside `f` at once.  With `meet`, the first
    /// `meet` items wait for each other, which proves that many lanes live.
    fn run(budget: usize, items: &[usize], meet: usize) -> (Vec<usize>, usize) {
        let (running, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let barrier = Barrier::new(meet.max(1));
        let out = map_within_budget(budget, items, |&i| {
            let now = running.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            if i < meet {
                barrier.wait();
            }
            running.fetch_sub(1, Ordering::SeqCst);
            i * 10
        });
        (out, peak.into_inner())
    }

    #[test]
    fn a_budget_below_the_item_count_still_forks_but_never_wider_than_the_budget() {
        // The rayon stand-in caps its workers at the host's cores, so only a
        // host with two of them can show two lanes at once.
        let cores = crate::resolve_threads(0);
        let meet = if cores >= 2 { 2 } else { 0 };
        for _ in 0..20 {
            let (out, peak) = run(2, &[0, 1, 2], meet);
            assert_eq!(out, vec![0, 10, 20]);
            assert!(peak <= 2, "{peak} members ran at once under a budget of 2");
            if cores >= 2 {
                assert_eq!(peak, 2, "three members at budget 2 ran one by one");
            }
        }
    }

    #[test]
    fn a_budget_of_one_stays_on_the_calling_thread_in_input_order() {
        let caller = std::thread::current().id();
        let order = std::sync::Mutex::new(Vec::new());
        let out = map_within_budget(1, &[3usize, 1, 2], |&i| {
            assert_eq!(std::thread::current().id(), caller);
            order.lock().unwrap().push(i);
            i
        });
        assert_eq!(out, vec![3, 1, 2]);
        assert_eq!(order.into_inner().unwrap(), vec![3, 1, 2]);
    }
}
