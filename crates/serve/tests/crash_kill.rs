//! The crash harness: a real `bsp_served` process, `SIGKILL`, restart, and
//! the proof that nothing the server acknowledged as durable is lost — and
//! nothing damaged is ever served.
//!
//! In-process tests cannot prove crash safety: graceful `Drop` impls always
//! run.  Here the shard is a child process spawned from the
//! `CARGO_BIN_EXE_bsp_served` build artifact, killed with `SIGKILL` (no
//! signal handler, no flush, no `Drop`), restarted on the same store
//! directory, and interrogated over the real wire protocol.
//!
//! The durability contract under test: `bsp_store_events_total{event="appended"}`
//! (`ServiceStats::store.appended` off a `METRICS` scrape) counts frames that were written *and* fsynced — every one of them must be
//! recovered by the next boot, served as an exact cache hit, and validate.

#![cfg(unix)]

use bsp_model::{Dag, Machine};
use bsp_serve::{
    Client, Mode, Placement, RequestOptions, Router, RouterConfig, ScheduleSource, Server,
    ServerConfig,
};
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bsp-crash-kill-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A running `bsp_served` child: kill it hard or stop it politely.
struct Shard {
    child: Child,
    addr: SocketAddr,
}

impl Shard {
    /// Spawns `bsp_served --addr <addr> --store-dir <dir>` and waits for its
    /// `READY` line.  Retries the spawn while the requested port is still in
    /// the kernel's hands after a kill.
    fn spawn(addr: &str, store_dir: &Path) -> Shard {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let mut child = Command::new(env!("CARGO_BIN_EXE_bsp_served"))
                .args(["--addr", addr, "--workers", "2"])
                .arg("--store-dir")
                .arg(store_dir)
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .expect("spawn bsp_served");
            let mut line = String::new();
            let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
            reader.read_line(&mut line).expect("read READY line");
            if let Some(rest) = line.trim().strip_prefix("READY ") {
                child.stdout = Some(reader.into_inner());
                return Shard {
                    child,
                    addr: rest.parse().expect("parse READY address"),
                };
            }
            // Bind failed (EOF on stdout) — the port is not free yet.
            let _ = child.wait();
            assert!(
                Instant::now() < deadline,
                "bsp_served never came up on {addr}"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// `SIGKILL`: the address space disappears mid-whatever.
    fn kill(mut self) {
        self.child.kill().expect("SIGKILL bsp_served");
        self.child.wait().expect("reap killed bsp_served");
    }

    /// Graceful stop via the stdin protocol (flushes the store).
    fn stop(mut self) {
        let mut stdin = self.child.stdin.take().expect("piped stdin");
        let _ = stdin.write_all(b"STOP\n");
        drop(stdin);
        self.child.wait().expect("reap stopped bsp_served");
    }
}

fn dag_with_seed(seed: u64) -> Dag {
    // The chain's length varies with the seed: placement routes by structure
    // key, so distinct seeds need distinct DAG shapes to spread over shards.
    let n = 4 + (seed as usize % 32);
    let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
    Dag::from_edges(n, &edges, vec![seed + 1; n], vec![2; n]).unwrap()
}

/// Polls the server's `METRICS` until `store_appended` reaches `want`.
fn wait_for_appended(addr: SocketAddr, want: u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let appended = Client::connect(addr)
            .ok()
            .and_then(|mut c| c.stats().ok())
            .map_or(0, |s| s.store.appended);
        if appended >= want {
            return appended;
        }
        assert!(
            Instant::now() < deadline,
            "store_appended stuck at {appended}, want {want}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn a_sigkilled_server_serves_every_acknowledged_schedule_after_restart() {
    let dir = temp_dir("direct");
    let machine = Machine::uniform(4, 1, 2);
    let options = RequestOptions::new().with_mode(Mode::HeuristicsOnly);
    let dags: Vec<Dag> = (0..6).map(dag_with_seed).collect();

    let shard = Shard::spawn("127.0.0.1:0", &dir);
    let addr = shard.addr;
    let mut costs = Vec::new();
    {
        let mut client = Client::connect(addr).expect("connect");
        for dag in &dags {
            let reply = client.schedule(dag, &machine, &options).expect("cold");
            assert!(reply.schedule.validate(dag, &machine).is_ok());
            costs.push(reply.cost);
        }
    }
    // Wait until every frame is acknowledged durable, *then* pull the plug.
    let acknowledged = wait_for_appended(addr, dags.len() as u64);
    shard.kill();

    // Same port, same store directory, brand-new process.
    let restarted = Shard::spawn(&addr.to_string(), &dir);
    let mut client = Client::connect(restarted.addr).expect("reconnect");
    let stats = client.stats().expect("stats after restart");
    assert_eq!(
        stats.store.loaded, acknowledged,
        "every acknowledged append was recovered and adopted"
    );
    assert!(stats.store.recovered_bytes > 0);
    assert_eq!(
        stats.store.dropped_corrupt, 0,
        "a quiesced kill leaves no damaged tail"
    );
    // Replay every request by fingerprint only: the restarted server must
    // hold them all, at the exact pre-crash costs.
    for (dag, &cost) in dags.iter().zip(&costs) {
        client.assume_cached(dag, &machine);
        let reply = client.schedule(dag, &machine, &options).expect("replay");
        assert_eq!(reply.source, ScheduleSource::CacheExact);
        assert_eq!(reply.cost, cost, "recovered schedule, recovered cost");
        assert!(reply.schedule.validate(dag, &machine).is_ok());
    }
    assert_eq!(
        client.fp_fallbacks(),
        0,
        "no fingerprint replay fell back — recovery was complete"
    );

    restarted.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_router_fronted_shard_killed_mid_burst_recovers_and_rejoins() {
    // The deployment-level version: shard 0 is a store-backed bsp_served
    // process, shard 1 an in-process survivor.  Shard 0 is SIGKILLed in the
    // middle of a write burst; every in-flight and subsequent request must
    // still be answered (failover), and after a restart on the same store
    // directory the first replay it owns rejoins the shard with its durable
    // cache intact.
    let dir = temp_dir("router");
    let machine = Machine::uniform(4, 1, 2);
    let options = RequestOptions::new().with_mode(Mode::HeuristicsOnly);

    let shard0 = Shard::spawn("127.0.0.1:0", &dir);
    let shard0_addr = shard0.addr;
    let survivor = Server::bind("127.0.0.1:0", ServerConfig::default())
        .expect("bind survivor")
        .spawn()
        .expect("spawn survivor");
    let addrs = [shard0_addr, survivor.addr()];
    let router = Router::bind("127.0.0.1:0", &addrs, RouterConfig::default())
        .expect("bind router")
        .spawn()
        .expect("spawn router");

    // A burst of requests all homed on shard 0 by the placement policy, so
    // the kill lands on keys whose durability is shard 0's job.
    let placement = Placement::new(2);
    let owned: Vec<Dag> = (0..64)
        .filter(|&seed| {
            let key = bsp_model::request_key(&dag_with_seed(seed), &machine);
            placement.structure_owner(key.structure) == 0
        })
        .take(6)
        .map(dag_with_seed)
        .collect();
    assert!(owned.len() >= 4, "enough seeds route to shard 0");

    let mut client = Client::connect(router.addr()).expect("connect via router");
    let mid = owned.len() / 2;
    for dag in &owned[..mid] {
        let reply = client.schedule(dag, &machine, &options).expect("pre-kill");
        assert!(reply.schedule.validate(dag, &machine).is_ok());
    }
    // Only what the shard acknowledged as fsynced is promised to survive.
    let acknowledged = wait_for_appended(shard0_addr, mid as u64);
    shard0.kill();

    // Mid-burst: the remaining owned requests must keep completing through
    // failover, valid every time.
    for dag in &owned[mid..] {
        let reply = client
            .schedule(dag, &machine, &options)
            .expect("failover request");
        assert!(reply.schedule.validate(dag, &machine).is_ok());
    }

    // Restart shard 0 on its old address and store.
    let restarted = Shard::spawn(&shard0_addr.to_string(), &dir);

    // The restarted shard recovered everything it had acknowledged...
    let mut direct = Client::connect(restarted.addr).expect("connect to restarted shard");
    let stats = direct.stats().expect("stats");
    assert!(
        stats.store.loaded >= acknowledged,
        "restarted shard adopted {} of {acknowledged} acknowledged frames",
        stats.store.loaded
    );
    // ...and serves them as exact hits through the router again: the first
    // replay it owns reconnects it.
    let mut replayer = Client::connect(router.addr()).expect("reconnect via router");
    for dag in &owned[..mid] {
        replayer.assume_cached(dag, &machine);
        let reply = replayer.schedule(dag, &machine, &options).expect("replay");
        assert_eq!(
            reply.source,
            ScheduleSource::CacheExact,
            "pre-kill schedules survive the crash and the rejoin"
        );
        assert!(reply.schedule.validate(dag, &machine).is_ok());
    }
    assert_eq!(replayer.fp_fallbacks(), 0);
    assert_eq!(router.live_shards(), vec![0, 1]);

    drop(client);
    drop(direct);
    drop(replayer);
    router.shutdown();
    restarted.stop();
    survivor.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
