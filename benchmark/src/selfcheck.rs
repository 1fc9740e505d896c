//! The modes that run several workloads: `--all`, `--selfcheck`, `--smoke`.
//! Each run is a child process of this executable, so every workload has
//! its own address space (and its own `peak_rss_mb`); every child is waited
//! for.

use crate::common::{out_dir, Args};
use crate::metrics::{manifest_json, Values, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartile_spread};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Metrics that repeat exactly for a fixed seed: a changed value is a
/// changed algorithm, not noise.
const EXACT_END_TO_END: [&str; 2] = ["cost_geomean_vs_cilk", "cost_geomean_vs_hdagg"];
const EXACT_PER_LAYER: [&str; 3] = ["hc.steps", "ml.refine_phases", "ml.coarsen_contractions"];
/// The timed section's own metrics: reported with their spread, not gated.
const TIMED: [&str; 2] = ["throughput_rps", "answer_geomean_ms"];

struct Child {
    correct: bool,
    failed: u64,
    values: Values,
    output: String,
}

/// Reads the number that follows `key` in `line`.
fn number_after(line: &str, key: &str) -> Option<f64> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool, smoke: bool) -> Child {
    let exe = std::env::current_exe().expect("the path of this executable");
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child and collects what it printed.
    let output = command.output().expect("start a child run");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let last = stdout.lines().last().unwrap_or("");
    let names = END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name));
    let mut values: Values = names
        .filter_map(|name| {
            let key = format!("\"{name}\": {{\"value\": ");
            number_after(last, &key).map(|v| (name, v))
        })
        .collect();
    // What an untraced run prints beside its result line.
    for line in stdout.lines().filter(|l| l.ends_with("(not gated)")) {
        let mut words = line.split_whitespace();
        let layer = words
            .next()
            .and_then(|name| PER_LAYER.iter().find(|m| m.name == name));
        if let (Some(layer), Some(Ok(value))) = (layer, words.next().map(str::parse)) {
            values.insert(layer.name, value);
        }
    }
    Child {
        correct: output.status.success() && last.contains("\"correct\": true"),
        failed: number_after(last, "\"failed\": ").unwrap_or(1.0) as u64,
        values,
        output: stdout,
    }
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--all`: every workload, untraced then traced, with its full report.
pub fn all(args: &Args) -> ExitCode {
    let mut ok = true;
    for workload in WORKLOADS {
        for trace in [false, true] {
            let child = run_child(workload.name, args.seed, args.seconds, trace, false);
            print!("{}", child.output);
            ok &= child.correct;
        }
    }
    exit_code(ok)
}

/// `--smoke`: every workload at a tiny size, untraced and traced, oracle
/// on; also checks that `BENCHMARK.json` is what `--manifest` renders.
pub fn smoke(args: &Args) -> ExitCode {
    let clock = Instant::now();
    let mut ok = true;
    for workload in WORKLOADS {
        for trace in [false, true] {
            let child = run_child(workload.name, args.seed, 1.0, trace, true);
            let verdict = if child.correct { "ok" } else { "FAILED" };
            println!(
                "smoke {:<13} trace={} {verdict} ({} metrics, {} failed operations)",
                workload.name,
                u8::from(trace),
                child.values.len(),
                child.failed
            );
            if !child.correct {
                print!("{}", child.output);
            }
            ok &= child.correct;
        }
    }
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    match std::fs::read_to_string(&manifest) {
        Ok(text) if text == manifest_json() => println!("smoke BENCHMARK.json matches --manifest"),
        Ok(_) => {
            println!("smoke BENCHMARK.json differs from --manifest: FAILED");
            ok = false;
        }
        Err(_) => println!("smoke BENCHMARK.json not found, skipped"),
    }
    println!("smoke pass took {:.1} s", clock.elapsed().as_secs_f64());
    exit_code(ok)
}

/// `--selfcheck`: `runs` untraced and two traced runs per workload on this
/// build and seed.  Prints each end-to-end metric's median and spread (the
/// driver's own formula) and fails on a spread above its bound, on any
/// failed operation (a time-limited row is one) and on a cost or count that
/// did not repeat exactly.  The findings are written to
/// `out/selfcheck.json`.
pub fn selfcheck(args: &Args, runs: usize) -> ExitCode {
    let runs = runs.max(3);
    let mut ok = true;
    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"seed\": {}, \"runs\": {runs}, \"seconds\": {},",
        args.seed, args.seconds
    );
    json.push_str("  \"workloads\": {\n");
    for (w, workload) in WORKLOADS.iter().enumerate() {
        println!("== {} ==", workload.name);
        let plain: Vec<Child> = (0..runs)
            .map(|_| run_child(workload.name, args.seed, args.seconds, false, false))
            .collect();
        let traced: Vec<Child> = (0..2)
            .map(|_| run_child(workload.name, args.seed, args.seconds, true, false))
            .collect();
        for child in plain.iter().chain(&traced) {
            if !child.correct {
                println!("FAILED run:\n{}", child.output);
                ok = false;
            }
        }
        let of = |name: &str| -> Vec<f64> {
            plain
                .iter()
                .filter_map(|c| c.values.get(name).copied())
                .collect()
        };
        let mut entries = Vec::new();
        for metric in END_TO_END {
            let values = of(metric.name);
            let spread = quartile_spread(&values);
            // The driver does not hold `setup_s` to its spread, only to
            // its median between two sets of runs.
            let within = spread <= metric.bound || metric.name == "setup_s";
            let exact = EXACT_END_TO_END.contains(&metric.name);
            let repeats = values.windows(2).all(|w| w[0] == w[1]);
            let verdict = match (within, exact && !repeats) {
                (false, _) => "SPREAD ABOVE BOUND",
                (_, true) => "DID NOT REPEAT EXACTLY",
                _ => "ok",
            };
            ok &= verdict == "ok";
            println!(
                "{:<24} median {:>14.4} {:<6} spread {:>7.4} bound {:>5.2}  {verdict}",
                metric.name,
                median(&values),
                metric.unit,
                spread,
                metric.bound
            );
            entries.push(format!(
                "      \"{}\": {{\"median\": {}, \"spread\": {spread}, \"bound\": {}}}",
                metric.name,
                median(&values),
                metric.bound
            ));
        }
        for name in TIMED {
            let values = of(name);
            let spread = quartile_spread(&values);
            println!(
                "{name:<24} median {:>14.4}        spread {spread:>7.4} (not gated)",
                median(&values)
            );
            entries.push(format!(
                "      \"{name}\": {{\"median\": {}, \"spread\": {spread}}}",
                median(&values)
            ));
        }
        let sep = if w + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    \"{}\": {{\n{}\n    }}{sep}",
            workload.name,
            entries.join(",\n")
        );
        let layer = |child: &Child, name: &str| child.values.get(name).copied().unwrap_or(0.0);
        for name in EXACT_PER_LAYER {
            let (a, b) = (layer(&traced[0], name), layer(&traced[1], name));
            if a != b {
                println!("{name}: {a} then {b}  DID NOT REPEAT EXACTLY");
                ok = false;
            }
        }
        println!(
            "traced: trace.overhead_pct {:.2} / {:.2}, ml.refine_share {:.3}, \
             server.queue_wait_p50_us {:.0}",
            layer(&traced[0], "trace.overhead_pct"),
            layer(&traced[1], "trace.overhead_pct"),
            layer(&traced[0], "ml.refine_share"),
            layer(&traced[0], "server.queue_wait_p50_us"),
        );
    }
    json.push_str("  }\n}\n");
    let path = out_dir().join("selfcheck.json");
    if std::fs::create_dir_all(out_dir()).is_ok() && std::fs::write(&path, json).is_ok() {
        println!("written to {}", path.display());
    }
    println!("selfcheck {}", if ok { "passed" } else { "FAILED" });
    exit_code(ok)
}
