//! The benchmark's names: workloads, end-to-end metrics with their bounds,
//! per-layer metrics.  `BENCHMARK.json` is rendered from these tables
//! (`--manifest`), so the file and the program cannot drift apart.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How long one run measures, as `BENCHMARK.json` tells the driver.
pub const RUN_SECONDS: u64 = 16;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "flat_hc",
        why: "heuristics-only Pipeline on 22 spmv/cg/exp/pagerank/bicgstab DAGs of 5-20k nodes, two \
              machines alternating: initializers, HC and HCcs do all the work, multilevel and serving none",
    },
    Workload {
        name: "ml_fine",
        why: "MultilevelScheduler on 96 fine-grained cg/exp/spmv DAGs of ~660 nodes, two machines \
              alternating: ml_refine is the largest phase (0.55 of the solve), coarsening and base solve small",
    },
    Workload {
        name: "ml_kernels",
        why: "same scheduler on 10 coarse-grained pagerank/bicgstab DAGs of 26-30k nodes: batch \
              coarsener, base solve and uncontraction carry the run, refinement is a quarter",
    },
    Workload {
        name: "serve_mixed",
        why: "router + 2 durable shards, 2 closed-loop clients at depth 4 on a pre-drawn stream: 5% new \
              structures, 10% re-weighted, 85% repeats, so exact hits queue behind cold solves and appends",
    },
    Workload {
        name: "serve_replay",
        why: "same deployment restarted on its populated stores, repeats only (half full payload, \
              half FP): parse, key, placement, router hop and cache lookup with the solver idle",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// Every end-to-end metric is defined, and never 0, on every workload (the
/// driver requires it); the README says what each means per workload.  The
/// two time metrics of the timed section are not here: identical runs on
/// the host this was sized on differ by up to 35 %, no bound of 15 % or less
/// holds them, and the issue has such a metric reported, not gated.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "cost_geomean_vs_cilk",
        unit: "ratio",
        better: "lower",
        bound: 0.05,
    },
    EndToEnd {
        name: "cost_geomean_vs_hdagg",
        unit: "ratio",
        better: "lower",
        bound: 0.05,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.15,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Layer {
    Layer { name, unit, better }
}

/// Per-layer metrics, from the traced run.  A metric that does not apply to
/// a workload reads 0 there.
pub const PER_LAYER: &[Layer] = &[
    // End to end in meaning, but too unsteady on a shared host to gate; the
    // untraced run prints them too.
    layer("throughput_rps", "1/s", "higher"),
    layer("answer_geomean_ms", "ms", "lower"),
    // What the issue calls solve_s and the per-class serve latencies:
    // undefined (or 0) on some workloads.
    layer("solve.total_s", "s", "lower"),
    layer("solve.rows", "count", "higher"),
    layer("solve.nodes", "count", "higher"),
    layer("solve.time_limited_rows", "count", "lower"),
    layer("client.cold_p50_ms", "ms", "lower"),
    layer("client.warm_p50_ms", "ms", "lower"),
    layer("client.exact_p50_us", "us", "lower"),
    layer("client.cold_p99_ms", "ms", "lower"),
    layer("client.warm_p99_ms", "ms", "lower"),
    layer("client.exact_p99_us", "us", "lower"),
    layer("client.cold_samples", "count", "higher"),
    layer("client.warm_samples", "count", "higher"),
    layer("client.exact_samples", "count", "higher"),
    layer("client.deadline_miss_share", "share", "lower"),
    layer("client.fail_share", "share", "lower"),
    // dag_gen
    layer("dag_gen.generate_us_per_node", "us", "lower"),
    layer("dag_gen.read_hyperdag_us_per_node", "us", "lower"),
    layer("dag_gen.write_hyperdag_us_per_node", "us", "lower"),
    // bsp_model
    layer("model.request_key_ns_per_node", "ns", "lower"),
    layer("model.cost_ns_per_node", "ns", "lower"),
    layer("model.validate_ns_per_node", "ns", "lower"),
    layer("model.record_encode_us", "us", "lower"),
    layer("model.record_decode_us", "us", "lower"),
    // bsp_sched::baselines / init
    layer("baselines.cilk_s", "s", "lower"),
    layer("baselines.hdagg_s", "s", "lower"),
    layer("init.bspg_s", "s", "lower"),
    layer("init.source_s", "s", "lower"),
    layer("init.bspg_cost_vs_cilk", "ratio", "lower"),
    layer("init.source_cost_vs_cilk", "ratio", "lower"),
    // bsp_sched::hill_climb
    layer("hc.improve_s", "s", "lower"),
    layer("hc.steps", "count", "lower"),
    layer("hc.steps_per_s", "1/s", "higher"),
    layer("hc.gain_share", "share", "higher"),
    layer("hc.local_min_share", "share", "higher"),
    layer("hccs.improve_s", "s", "lower"),
    layer("hccs.gain_share", "share", "higher"),
    layer("hc.parallel_speedup_2lanes", "ratio", "higher"),
    // bsp_sched::pipeline
    layer("pipeline.run_s", "s", "lower"),
    layer("pipeline.phase_s.BSPg", "s", "lower"),
    layer("pipeline.phase_s.Source", "s", "lower"),
    layer("pipeline.phase_s.init_schedule", "s", "lower"),
    layer("pipeline.phase_s.hc", "s", "lower"),
    layer("pipeline.phase_s.hccs", "s", "lower"),
    // bsp_sched::multilevel
    layer("ml.coarsen_s", "s", "lower"),
    layer("ml.base_solve_s", "s", "lower"),
    layer("ml.uncontract_s", "s", "lower"),
    layer("ml.refine_s", "s", "lower"),
    layer("ml.final_sweep_s", "s", "lower"),
    layer("ml.final_comm_s", "s", "lower"),
    layer("ml.refine_phases", "count", "lower"),
    layer("ml.refine_share", "share", "lower"),
    layer("ml.coarsen_rounds", "count", "lower"),
    layer("ml.coarsen_contractions", "count", "lower"),
    layer("ml.coarsen_tail_share", "share", "lower"),
    layer("ml.one_proc_rows", "count", "lower"),
    layer("ml.coarsen_only_s", "s", "lower"),
    layer("ml.cost_vs_flat", "ratio", "lower"),
    layer("ml.time_vs_flat", "ratio", "lower"),
    // micro_ilp
    layer("micro_ilp.bb_nodes_per_s", "1/s", "higher"),
    layer("micro_ilp.solve_s", "s", "lower"),
    // bsp_serve::protocol
    layer("protocol.encode_request_us", "us", "lower"),
    layer("protocol.read_incoming_us", "us", "lower"),
    layer("protocol.encode_response_us", "us", "lower"),
    layer("protocol.read_reply_us", "us", "lower"),
    // bsp_serve::cache
    layer("cache.lookup_exact_ns", "ns", "lower"),
    layer("cache.lookup_warm_ns", "ns", "lower"),
    layer("cache.insert_us", "us", "lower"),
    layer("cache.exact_hit_ratio", "share", "higher"),
    layer("cache.warm_hit_ratio", "share", "higher"),
    layer("cache.warm_fallbacks", "count", "lower"),
    // bsp_serve::service (in process, no sockets)
    layer("service.handle_exact_us", "us", "lower"),
    layer("service.handle_fp_us", "us", "lower"),
    layer("service.handle_warm_ms", "ms", "lower"),
    layer("service.handle_cold_ms", "ms", "lower"),
    // bsp_serve::store
    layer("store.append_us_per_record", "us", "lower"),
    layer("store.open_recover_ms", "ms", "lower"),
    layer("store.recovered_records", "count", "higher"),
    layer("store.dropped_corrupt", "count", "lower"),
    // bsp_serve::placement / router
    layer("placement.place_request_ns", "ns", "lower"),
    layer("placement.affinity_share", "share", "higher"),
    layer("placement.load_steered_share", "share", "lower"),
    layer("placement.failover_count", "count", "lower"),
    layer("router.hop_us", "us", "lower"),
    layer("router.fp_fallbacks", "count", "lower"),
    // bsp_serve::server
    layer("server.queue_wait_p50_us", "us", "lower"),
    layer("server.queue_wait_p99_us", "us", "lower"),
    layer("server.busy_refusals", "count", "lower"),
    layer("server.solve_phase_s.init_schedule", "s", "lower"),
    layer("server.solve_phase_s.hc", "s", "lower"),
    layer("server.solve_phase_s.hccs", "s", "lower"),
    layer("server.worker_busy_s", "s", "lower"),
    // the benchmark itself
    layer("trace.overhead_pct", "%", "lower"),
    layer("trace.spans", "count", "lower"),
    layer("bench.host_cores", "count", "higher"),
];

/// Values of one run, by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// `BENCHMARK.json`, exactly the keys the driver's contract names.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let why: String = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{why}\"}}{sep}",
            w.name
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name, m.unit, m.better, m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name, m.unit, m.better
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// The last line of a run: one JSON object with exactly the keys the
/// driver reads.  `names` fixes which metrics appear (all of them, in table
/// order); a metric the run did not set reads 0.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[(&'static str, &'static str)],
    values: &Values,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit)) in names.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = values.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The limits the driver puts on `BENCHMARK.json`.
    #[test]
    fn manifest_is_within_the_contract() {
        let name_ok = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| name_ok(n)));
        let distinct: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(distinct.len(), names.len(), "a name is used twice");
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for w in WORKLOADS {
            let why = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
            assert!(
                why.len() <= 200,
                "{}: why has {} characters",
                w.name,
                why.len()
            );
        }
        assert!(END_TO_END
            .iter()
            .all(|m| unit_ok(m.unit) && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(manifest_json().len() <= 64 << 10);
    }
}
