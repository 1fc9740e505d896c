//! Spin up the scheduling service on an ephemeral loopback port, schedule a
//! DAG three ways — cold, exact cache hit, and re-weighted (cold again) — and
//! show the server-side statistics.
//!
//! Run with: `cargo run --example serve_quickstart`

use bsp_serve::{Client, RequestOptions, Server, ServerConfig};
use realistic_sched::gen::fine::{spmv, SpmvConfig};
use realistic_sched::model::{Dag, Machine};
use std::time::Duration;

fn main() {
    let config = ServerConfig {
        workers: 2,
        ..Default::default()
    };
    let server = Server::bind("127.0.0.1:0", config)
        .expect("bind an ephemeral loopback port")
        .spawn()
        .expect("start the server threads");
    println!("serving on {}", server.addr());

    let mut client = Client::connect(server.addr()).expect("connect");
    let machine = Machine::numa_binary_tree(8, 1, 5, 3);
    let dag = spmv(&SpmvConfig {
        n: 48,
        density: 0.15,
        seed: 3,
    });
    let options = RequestOptions::new().with_deadline(Duration::from_millis(500));

    // Cold: full pipeline run, schedule enters the cache.
    let cold = client.schedule(&dag, &machine, &options).expect("cold");
    println!(
        "cold : cost {} in {} us ({})",
        cold.cost,
        cold.micros,
        cold.source.as_str()
    );

    // Exact hit: same request again — answered from the cache, and the
    // client only puts the 16-hex-digit fingerprint on the wire.
    let hit = client.schedule(&dag, &machine, &options).expect("hit");
    println!(
        "hit  : cost {} in {} us ({})",
        hit.cost,
        hit.micros,
        hit.source.as_str()
    );

    // Re-weighted: same structure, different work weights — a different
    // request, so a cache miss and another cold pipeline run.
    let edges: Vec<_> = dag.edges().collect();
    let work: Vec<u64> = dag.work_weights().iter().map(|&w| w + 2).collect();
    let reweighted = Dag::from_edges(dag.n(), &edges, work, dag.comm_weights().to_vec()).unwrap();
    let again = client
        .schedule(&reweighted, &machine, &options)
        .expect("re-weighted");
    println!(
        "reweighted: cost {} in {} us ({})",
        again.cost,
        again.micros,
        again.source.as_str()
    );

    let stats = client.stats().expect("stats");
    println!(
        "cache: {} hit / {} miss, {} entries, {} bytes",
        stats.cache.hits, stats.cache.misses, stats.cache.entries, stats.cache.bytes_used
    );

    drop(client);
    server.shutdown();
}
