//! What every workload shares: the run's arguments, its outcome, the
//! output oracle, and the facts about the host printed in the header.

use crate::metrics::Values;
use crate::spans::{self, Recorder};
use bsp_model::{BspSchedule, Dag, Machine, ValidityError};
use std::path::PathBuf;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes, oracle on: the `--smoke` pass.
    pub smoke: bool,
}

/// What a run hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: solved rows, or requests sent.
    pub attempted: u64,
    /// Operations whose output was wrong, missing, late or refused.
    pub failed: u64,
    /// One line per failed operation, by row or request id.
    pub failures: Vec<String>,
    pub values: Values,
    /// Header lines: sizes and sample counts.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 50 {
            self.failures.push(what);
        }
    }
}

/// The output oracle: the schedule must validate against its request and
/// the cost the program reported must equal a from-scratch recompute.
/// Returns the recomputed cost, or what was wrong.
pub fn check_answer(
    dag: &Dag,
    machine: &Machine,
    schedule: &BspSchedule,
    reported_cost: u64,
) -> Result<u64, String> {
    verdict(
        schedule.validate(dag, machine),
        schedule.cost(dag, machine),
        reported_cost,
    )
}

/// The oracle's verdict from its two halves, for callers that put a span
/// around each.
pub fn verdict(
    valid: Result<(), ValidityError>,
    cost: u64,
    reported_cost: u64,
) -> Result<u64, String> {
    match valid {
        Err(err) => Err(format!("schedule fails validate: {err}")),
        Ok(()) if cost != reported_cost => Err(format!(
            "reported cost {reported_cost} != recomputed {cost}"
        )),
        Ok(()) => Ok(cost),
    }
}

/// Directory for everything the benchmark writes (traces, store segments).
/// Inside the package, so a run never touches anything outside its checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes a traced run's spans to `out/trace_<workload>.json` and says so
/// in the header notes.
pub fn write_trace(workload: &str, recorders: &[Recorder], notes: &mut Vec<String>) {
    let path = out_dir().join(format!("trace_{workload}.json"));
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, spans::render_json(workload, recorders)));
    match written {
        Ok(()) => notes.push(format!("trace written to {}", path.display())),
        Err(err) => notes.push(format!("trace not written to {}: {err}", path.display())),
    }
}

/// `VmHWM` of this process in MB (0 where `/proc` is not available).
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds the hypervisor has kept this machine's virtual CPUs waiting
/// since boot (`steal` of the first line of `/proc/stat`, 10 ms ticks);
/// `None` where that file is missing.  Printed beside the timed section so
/// a reader can tell a disturbed run from a slow program.
pub fn stolen_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: u64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    Some(ticks as f64 / 100.0)
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the checkout is at, read from `.git` without running git
/// (`unknown` in a checkout that is not a repository).
pub fn git_sha() -> String {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let Ok(head) = std::fs::read_to_string(root.join(".git/HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(root.join(".git").join(reference))
            .map(|sha| sha.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => head.to_string(),
    }
}
