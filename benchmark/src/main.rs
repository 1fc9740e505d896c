//! The repo's benchmark: five seeded workloads over the scheduler
//! (`dag_gen`, `bsp_model`, `bsp_sched`, `micro_ilp`) and its serving stack
//! (`bsp_serve`).  See `README.md` beside this package for the metric and
//! workload tables; `BENCHMARK.json` at the repository root is rendered
//! from `metrics.rs` with `--manifest`.
//!
//! ```text
//! sched_benchmark --workload <name> [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
//! sched_benchmark --all | --selfcheck [--runs N] | --smoke | --manifest
//! ```

mod common;
mod instances;
mod metrics;
mod micro;
mod selfcheck;
mod serve;
mod solve;
mod spans;
mod stats;

use common::{git_sha, host_cores, Args, Outcome};
use metrics::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::process::ExitCode;

/// The seed runs use unless told otherwise, and the one kept aside: a claim
/// made with the first must also hold on the second.
pub const DEFAULT_SEED: u64 = 1;
pub const HOLDOUT_SEED: u64 = 7919;

enum Mode {
    One,
    All,
    SelfCheck,
    Smoke,
    Manifest,
}

struct Cli {
    mode: Mode,
    args: Args,
    runs: usize,
}

fn parse() -> Result<Cli, String> {
    let mut cli = Cli {
        mode: Mode::One,
        args: Args {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: RUN_SECONDS as f64,
            trace: false,
            smoke: false,
        },
        runs: 3,
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => cli.args.workload = value("a workload name")?,
            "--seed" => {
                cli.args.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?;
            }
            "--seconds" => {
                cli.args.seconds = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds needs a number".to_string())?;
            }
            "--runs" => {
                cli.runs = value("a number")?
                    .parse()
                    .map_err(|_| "--runs needs a whole number".to_string())?;
            }
            // `--trace`, `--trace 1` and `--trace 0` are all accepted.
            "--trace" => {
                cli.args.trace = match argv.peek().map(String::as_str) {
                    Some("0") => {
                        argv.next();
                        false
                    }
                    Some("1") => {
                        argv.next();
                        true
                    }
                    _ => true,
                };
            }
            "--all" => cli.mode = Mode::All,
            "--selfcheck" => cli.mode = Mode::SelfCheck,
            "--smoke" => cli.args.smoke = true,
            "--manifest" => cli.mode = Mode::Manifest,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(cli.args.seconds > 0.0 && cli.args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    // `--smoke` alone is every workload at the tiny size; with `--workload`
    // it is that one.
    if cli.args.smoke && cli.args.workload.is_empty() && matches!(cli.mode, Mode::One) {
        cli.mode = Mode::Smoke;
    }
    Ok(cli)
}

fn run_workload(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "flat_hc" => Ok(solve::run(args, solve::Kind::FlatHc)),
        "ml_fine" => Ok(solve::run(args, solve::Kind::MlFine)),
        "ml_kernels" => Ok(solve::run(args, solve::Kind::MlKernels)),
        "serve_mixed" => Ok(serve::run(args, serve::Kind::Mixed)),
        "serve_replay" => Ok(serve::run(args, serve::Kind::Replay)),
        "" => Err("--workload <name> is required (or --all, --selfcheck, --smoke)".into()),
        other => Err(format!(
            "unknown workload {other}; the workloads are {}",
            WORKLOADS
                .iter()
                .map(|w| w.name)
                .collect::<Vec<_>>()
                .join(", ")
        )),
    }
}

/// One workload in this process: header, every metric by name with its
/// unit, the oracle's findings, and the result line last.
fn one(args: &Args) -> ExitCode {
    println!(
        "# sched_benchmark workload={} seed={} (default {DEFAULT_SEED}, hold-out {HOLDOUT_SEED}) \
         seconds={} trace={} git={} host_cores={} solve_threads=1 client_threads=2",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_sha(),
        host_cores(),
    );
    let outcome = match run_workload(args) {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    let layers = PER_LAYER.iter().map(|m| (m.name, m.unit));
    let names: Vec<(&'static str, &'static str)> = if args.trace {
        layers.clone().collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    for (name, unit) in &names {
        let value = outcome.values.get(name).copied().unwrap_or(0.0);
        println!("{name:<40} {value:>16.4} {unit}");
    }
    if !args.trace {
        // Per-layer metrics the untraced run measures anyway: printed, but
        // not part of its result line.
        for (name, unit) in layers {
            if let Some(value) = outcome.values.get(name) {
                println!("{name:<40} {value:>16.4} {unit}  (not gated)");
            }
        }
    }
    println!(
        "# oracle: {} operations attempted, {} failed (fail_share {:.6})",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for failure in &outcome.failures {
        println!("# FAILED {failure}");
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "{}",
        metrics::result_line(
            correct,
            outcome.attempted.max(1),
            outcome.failed,
            &names,
            &outcome.values
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let cli = match parse() {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    match cli.mode {
        Mode::Manifest => {
            print!("{}", metrics::manifest_json());
            ExitCode::SUCCESS
        }
        Mode::One => one(&cli.args),
        Mode::All => selfcheck::all(&cli.args),
        Mode::SelfCheck => selfcheck::selfcheck(&cli.args, cli.runs),
        Mode::Smoke => selfcheck::smoke(&cli.args),
    }
}
