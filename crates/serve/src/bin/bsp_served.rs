//! `bsp_served` — a standalone shard server process.
//!
//! The in-process [`bsp_serve::Server`] is what tests and the bench harness
//! normally use, but crash-safety can only be demonstrated on a real process
//! boundary: a `kill -9` must be able to take the whole address space away
//! mid-write, with no `Drop` impl running.  This binary is that process.
//! The fault-injection harness (`crates/serve/tests/crash_kill.rs`) spawns
//! it with a store directory, fills its cache over the wire, kills it
//! without ceremony, restarts it on the same directory, and asserts the
//! durable store recovered everything the server had acknowledged as
//! appended.
//!
//! ## Protocol with the parent
//!
//! * On startup the server binds and prints `READY <addr>` on stdout (one
//!   line, flushed) — the parent reads the line to learn the ephemeral port.
//! * The process then blocks on stdin: a `STOP` line (or stdin closing)
//!   triggers a graceful shutdown — workers drain, the store flushes — and
//!   the process exits 0.  Anything else on stdin is ignored.
//! * An ungraceful exit is the point: `SIGKILL` at any moment must never
//!   cost more than the not-yet-flushed tail of the store.
//!
//! ## Flags
//!
//! * `--addr <host:port>` — listen address (default `127.0.0.1:0`).
//! * `--store-dir <path>` — durable store directory; omitted = memory-only.
//! * `--workers <n>` — worker threads (default 2).

use bsp_serve::{Server, ServerConfig};
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut addr = "127.0.0.1:0".to_string();
    let mut store_dir: Option<PathBuf> = None;
    let mut workers = 2usize;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("bsp_served: {name} needs a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--addr" => addr = value("--addr"),
            "--store-dir" => store_dir = Some(PathBuf::from(value("--store-dir"))),
            "--workers" => {
                workers = value("--workers").parse().unwrap_or_else(|e| {
                    eprintln!("bsp_served: bad --workers: {e}");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("bsp_served: unknown flag {other}");
                return ExitCode::from(2);
            }
        }
    }

    let config = ServerConfig {
        workers: workers.max(1),
        store_dir,
        ..Default::default()
    };
    let server = match Server::bind(addr.as_str(), config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("bsp_served: bind {addr}: {e}");
            return ExitCode::from(1);
        }
    };
    let handle = match server.spawn() {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("bsp_served: spawn: {e}");
            return ExitCode::from(1);
        }
    };

    // The parent parses this exact line to learn the ephemeral port.
    let mut stdout = std::io::stdout().lock();
    if writeln!(stdout, "READY {}", handle.addr())
        .and_then(|()| stdout.flush())
        .is_err()
    {
        handle.shutdown();
        return ExitCode::from(1);
    }
    drop(stdout);

    // Park on stdin until the parent says STOP (or goes away).
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(line) if line.trim() == "STOP" => break,
            Ok(_) => continue,
            Err(_) => break,
        }
    }
    handle.shutdown();
    ExitCode::SUCCESS
}
