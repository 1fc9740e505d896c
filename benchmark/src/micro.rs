//! The micro pass of a traced run: each public function of the layer
//! table, timed on its own over the workload's own instances.  Nothing
//! here feeds an end-to-end metric.

use crate::common::out_dir;
use crate::instances::reweight;
use crate::metrics::Values;
use crate::solve::{Answer, Kind, Setup, Solver};
use crate::spans::Recorder;
use crate::stats::geo_mean;
use bsp_model::{
    decode_record, encode_record, request_key, BspSchedule, Dag, Machine, StoreRecord,
};
use bsp_sched::multilevel::coarsen;
use bsp_sched::{
    hc_improve, hccs_improve, BspgScheduler, HillClimbConfig, Scheduler, SourceScheduler,
};
use bsp_serve::protocol::{encode_request, encode_response, read_incoming, read_reply};
use bsp_serve::{
    Placement, RequestOptions, ScheduleCache, ScheduleRequest, ScheduleResponse, ScheduleService,
    ServiceConfig, Store, StoreConfig,
};
use dag_gen::write_hyperdag;
use micro_ilp::{solve_mip, MipConfig, Model};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One answered request: what the model- and serve-layer functions take.
#[derive(Clone, Copy)]
pub struct Sample<'a> {
    pub dag: &'a Dag,
    pub machine: &'a Machine,
    pub schedule: &'a BspSchedule,
    pub cost: u64,
}

/// Seconds `f` takes per call, over enough calls to fill ~2 ms.
fn per_call<F: FnMut()>(mut f: F) -> f64 {
    let clock = Instant::now();
    let mut calls = 0u32;
    loop {
        f();
        calls += 1;
        let elapsed = clock.elapsed();
        if elapsed >= Duration::from_millis(2) || calls >= 10_000 {
            return elapsed.as_secs_f64() / f64::from(calls);
        }
    }
}

fn record_of(sample: &Sample) -> StoreRecord {
    let key = request_key(sample.dag, sample.machine);
    StoreRecord {
        full_fp: key.full,
        structure_fp: key.structure,
        cost: sample.cost,
        machine: sample.machine.clone(),
        dag_bytes: write_hyperdag(sample.dag).into_bytes(),
        assignment: sample.schedule.assignment.clone(),
    }
}

/// `bsp_model`: the request key and the store record codec.
pub fn model_layer(samples: &[Sample], v: &mut Values) {
    if samples.is_empty() {
        return;
    }
    let nodes: f64 = samples.iter().map(|s| s.dag.n() as f64).sum();
    let key_s: f64 = samples
        .iter()
        .map(|s| {
            per_call(|| {
                black_box(request_key(s.dag, s.machine));
            })
        })
        .sum();
    v.insert("model.request_key_ns_per_node", key_s * 1e9 / nodes);
    let (mut encode_s, mut decode_s) = (0.0, 0.0);
    for sample in samples {
        let record = record_of(sample);
        let mut frame = Vec::new();
        encode_s += per_call(|| {
            frame.clear();
            encode_record(black_box(&record), &mut frame)
                .expect("tree and uniform machines encode");
        });
        decode_s += per_call(|| drop(black_box(decode_record(black_box(&frame)))));
    }
    let n = samples.len() as f64;
    v.insert("model.record_encode_us", encode_s * 1e6 / n);
    v.insert("model.record_decode_us", decode_s * 1e6 / n);
}

/// Micro pass of a solve workload.
pub fn solve_pass(kind: Kind, setup: &Setup, last: &[Option<Answer>], seed: u64, v: &mut Values) {
    let samples: Vec<Sample> = setup
        .rows
        .iter()
        .zip(last)
        .filter_map(|(row, answer)| {
            let answer = answer.as_ref()?;
            Some(Sample {
                dag: &setup.instances[row.inst].dag,
                machine: &setup.machines[row.machine],
                schedule: &answer.schedule,
                cost: *answer.checked.as_ref().ok()?,
            })
        })
        .collect();
    // Every fourth row: both machines and every family get a turn.
    let few: Vec<Sample> = samples.iter().step_by(4).copied().collect();
    model_layer(&few, v);
    match kind {
        Kind::FlatHc => flat_layers(setup, seed, v),
        Kind::MlFine | Kind::MlKernels => ml_layers(setup, last, v),
    }
}

/// `init`, `hill_climb` and `micro_ilp`, on every ninth row of `flat_hc`.
fn flat_layers(setup: &Setup, seed: u64, v: &mut Values) {
    let (mut bspg_s, mut source_s) = (0.0, 0.0);
    let (mut bspg_ratio, mut source_ratio) = (Vec::new(), Vec::new());
    let (mut hc_s, mut hc2_s, mut hccs_s) = (0.0, 0.0, 0.0);
    let (mut steps, mut runs, mut at_minimum) = (0usize, 0usize, 0usize);
    let (mut hc_before, mut hc_after, mut cs_before, mut cs_after) = (0u64, 0u64, 0u64, 0u64);
    // The pipeline's own split of its 5 s local-search budget.
    let budget = Duration::from_secs(5);
    let hc_cfg = HillClimbConfig::with_time_limit(budget.mul_f64(0.9));
    let hccs_cfg = HillClimbConfig::with_time_limit(budget.mul_f64(0.1));
    for row in setup.rows.iter().step_by(9) {
        let dag = &*setup.instances[row.inst].dag;
        let machine = &setup.machines[row.machine];
        let clock = Instant::now();
        let start = BspgScheduler.schedule(dag, machine);
        bspg_s += clock.elapsed().as_secs_f64();
        bspg_ratio.push(start.cost(dag, machine) as f64 / row.base.cilk as f64);
        let clock = Instant::now();
        let source = SourceScheduler.schedule(dag, machine);
        source_s += clock.elapsed().as_secs_f64();
        source_ratio.push(source.cost(dag, machine) as f64 / row.base.cilk as f64);

        let mut serial = start.clone();
        let clock = Instant::now();
        let outcome = hc_improve(dag, machine, &mut serial, &hc_cfg);
        hc_s += clock.elapsed().as_secs_f64();
        steps += outcome.steps;
        runs += 1;
        at_minimum += usize::from(outcome.reached_local_minimum);
        hc_before += outcome.initial_cost;
        hc_after += outcome.final_cost;
        let clock = Instant::now();
        let outcome = hccs_improve(dag, machine, &mut serial, &hccs_cfg);
        hccs_s += clock.elapsed().as_secs_f64();
        cs_before += outcome.initial_cost;
        cs_after += outcome.final_cost;

        let mut lanes = start;
        let clock = Instant::now();
        hc_improve(dag, machine, &mut lanes, &hc_cfg.clone().with_threads(2));
        hc2_s += clock.elapsed().as_secs_f64();
    }
    let gain = |before: u64, after: u64| before.saturating_sub(after) as f64 / before.max(1) as f64;
    v.insert("init.bspg_s", bspg_s);
    v.insert("init.source_s", source_s);
    v.insert("init.bspg_cost_vs_cilk", geo_mean(&bspg_ratio));
    v.insert("init.source_cost_vs_cilk", geo_mean(&source_ratio));
    v.insert("hc.improve_s", hc_s);
    v.insert("hc.steps", steps as f64);
    v.insert("hc.steps_per_s", steps as f64 / hc_s);
    v.insert("hc.gain_share", gain(hc_before, hc_after));
    v.insert("hc.local_min_share", at_minimum as f64 / runs.max(1) as f64);
    v.insert("hccs.improve_s", hccs_s);
    v.insert("hccs.gain_share", gain(cs_before, cs_after));
    v.insert("hc.parallel_speedup_2lanes", hc_s / hc2_s);

    // Seeded multi-constraint knapsacks under a node cap; the time limit
    // never binds, so the node count repeats for a fixed seed.
    let mut rng = crate::instances::rng_for(seed, "micro_ilp", 0);
    let config = MipConfig {
        time_limit: Duration::from_secs(60),
        max_nodes: 600,
        ..MipConfig::default()
    };
    let (mut ilp_s, mut bb_nodes) = (0.0, 0usize);
    for _ in 0..3 {
        let model = knapsack(&mut rng);
        let clock = Instant::now();
        let result = solve_mip(&model, &config, None);
        ilp_s += clock.elapsed().as_secs_f64();
        bb_nodes += result.nodes_explored;
    }
    v.insert("micro_ilp.solve_s", ilp_s);
    v.insert("micro_ilp.bb_nodes_per_s", bb_nodes as f64 / ilp_s);
}

fn knapsack(rng: &mut ChaCha8Rng) -> Model {
    let mut model = Model::new();
    let vars: Vec<_> = (0..28)
        .map(|i| model.add_binary(format!("x{i}"), -(rng.gen_range(10u64..60) as f64)))
        .collect();
    for c in 0..4 {
        let terms: Vec<_> = vars
            .iter()
            .map(|&x| (x, rng.gen_range(5u64..40) as f64))
            .collect();
        let total: f64 = terms.iter().map(|(_, w)| w).sum();
        model.add_le(format!("cap{c}"), terms, (total / 2.0).floor());
    }
    model
}

/// `multilevel`: the coarsener on its own, and multilevel against the flat
/// pipeline on every fifth row.
fn ml_layers(setup: &Setup, last: &[Option<Answer>], v: &mut Values) {
    let mut coarsen_s = 0.0;
    for instance in setup.instances.iter().step_by(3) {
        let target = ((instance.dag.n() as f64 * 0.15).round() as usize).max(2);
        let clock = Instant::now();
        black_box(coarsen(&instance.dag, target));
        coarsen_s += clock.elapsed().as_secs_f64();
    }
    v.insert("ml.coarsen_only_s", coarsen_s);

    let flat = Solver::new(false, false);
    let mut rec = Recorder::new(false, Instant::now());
    let (mut ml_s, mut flat_s) = (0.0, 0.0);
    let mut cost_ratio = Vec::new();
    for (i, row) in setup.rows.iter().enumerate().step_by(5) {
        let Some(ml) = last[i].as_ref() else { continue };
        let Ok(ml_cost) = ml.checked else { continue };
        let text = &setup.instances[row.inst].text;
        let answer = flat.answer(text, &setup.machines[row.machine], &mut rec, i as u64);
        let Ok(flat_cost) = answer.checked else {
            continue;
        };
        ml_s += ml.seconds;
        flat_s += answer.seconds;
        cost_ratio.push(ml_cost as f64 / flat_cost as f64);
    }
    v.insert("ml.cost_vs_flat", geo_mean(&cost_ratio));
    v.insert("ml.time_vs_flat", ml_s / flat_s);
}

/// Micro pass of a serve workload: protocol, cache, service, store and
/// placement, each on its own and in process.
pub fn serve_pass(
    items: &[(Arc<Dag>, Machine)],
    options: &RequestOptions,
    config: &ServiceConfig,
    rng: &mut ChaCha8Rng,
    v: &mut Values,
) {
    let n = items.len() as f64;
    if items.is_empty() {
        return;
    }
    // service: cold, then exact / FP on the same key, then a re-weighted
    // variant (warm).
    let service = ScheduleService::new(config.clone());
    let (mut cold_s, mut exact_s, mut fp_s, mut warm_s) = (0.0, 0.0, 0.0, 0.0);
    let mut replies = Vec::new();
    for (id, (dag, machine)) in items.iter().enumerate() {
        let request = ScheduleRequest {
            id: id as u64,
            dag: (**dag).clone(),
            machine: machine.clone(),
            options: options.clone(),
        };
        let clock = Instant::now();
        let reply = service.handle(&request).expect("in-process cold solve");
        cold_s += clock.elapsed().as_secs_f64();
        exact_s += per_call(|| drop(black_box(service.handle(&request))));
        let key = request_key(dag, machine);
        fp_s += per_call(|| drop(black_box(service.handle_fingerprint(key.full))));
        let variant = ScheduleRequest {
            dag: reweight(dag, rng),
            ..request.clone()
        };
        let clock = Instant::now();
        black_box(service.handle(&variant).expect("in-process warm solve"));
        warm_s += clock.elapsed().as_secs_f64();
        replies.push((request, reply));
    }
    v.insert("service.handle_cold_ms", cold_s * 1e3 / n);
    v.insert("service.handle_warm_ms", warm_s * 1e3 / n);
    v.insert("service.handle_exact_us", exact_s * 1e6 / n);
    v.insert("service.handle_fp_us", fp_s * 1e6 / n);

    let samples: Vec<Sample> = replies
        .iter()
        .map(|(request, reply)| Sample {
            dag: &request.dag,
            machine: &request.machine,
            schedule: &reply.schedule,
            cost: reply.cost,
        })
        .collect();
    model_layer(&samples, v);

    // protocol: both directions of both frames.
    let (mut enc_req, mut dec_req, mut enc_resp, mut dec_resp) = (0.0, 0.0, 0.0, 0.0);
    for (request, reply) in &replies {
        let mut wire = String::new();
        enc_req += per_call(|| {
            wire.clear();
            encode_request(
                &mut wire,
                request.id,
                &request.dag,
                &request.machine,
                options,
            )
            .expect("tree and uniform machines encode");
        });
        dec_req += per_call(|| drop(black_box(read_incoming(&mut wire.as_bytes()))));
        let response = ScheduleResponse {
            id: request.id,
            cost: reply.cost,
            supersteps: reply.schedule.num_supersteps(),
            source: reply.source,
            micros: 0,
            trace_id: 0,
            schedule: (*reply.schedule).clone(),
        };
        let mut wire = String::new();
        enc_resp += per_call(|| {
            wire.clear();
            encode_response(&mut wire, &response);
        });
        dec_resp += per_call(|| drop(black_box(read_reply(&mut wire.as_bytes()))));
    }
    v.insert("protocol.encode_request_us", enc_req * 1e6 / n);
    v.insert("protocol.read_incoming_us", dec_req * 1e6 / n);
    v.insert("protocol.encode_response_us", enc_resp * 1e6 / n);
    v.insert("protocol.read_reply_us", dec_resp * 1e6 / n);

    // cache
    let mut cache = ScheduleCache::new(64 << 20);
    let keys: Vec<_> = samples
        .iter()
        .map(|s| request_key(s.dag, s.machine))
        .collect();
    let clock = Instant::now();
    for (key, (_, reply)) in keys.iter().zip(&replies) {
        cache.insert(
            key.full,
            key.structure,
            Arc::clone(&reply.schedule),
            reply.cost,
        );
    }
    v.insert("cache.insert_us", clock.elapsed().as_secs_f64() * 1e6 / n);
    let mut at = 0;
    let exact = per_call(|| {
        at = (at + 1) % keys.len();
        black_box(cache.lookup_exact(keys[at].full));
    });
    let warm = per_call(|| {
        at = (at + 1) % keys.len();
        black_box(cache.lookup_warm(keys[at].structure));
    });
    v.insert("cache.lookup_exact_ns", exact * 1e9);
    v.insert("cache.lookup_warm_ns", warm * 1e9);

    // placement
    let placement = Placement::new(2);
    let place = per_call(|| {
        at = (at + 1) % keys.len();
        black_box(placement.place_request(keys[at].structure, None));
    });
    v.insert("placement.place_request_ns", place * 1e9);

    // store: append through the writer thread, then recover on reopen.
    let dir = out_dir().join(format!("store-micro-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    if let Ok((store, _)) = Store::open(StoreConfig::at(&dir)) {
        let frames: Vec<(u128, Vec<u8>)> = samples
            .iter()
            .map(|s| {
                let record = record_of(s);
                let mut frame = Vec::new();
                encode_record(&record, &mut frame).expect("tree and uniform machines encode");
                (record.full_fp, frame)
            })
            .collect();
        let clock = Instant::now();
        for (full_fp, frame) in &frames {
            store.offer(*full_fp, frame.clone());
        }
        store.flush();
        v.insert(
            "store.append_us_per_record",
            clock.elapsed().as_secs_f64() * 1e6 / n,
        );
        drop(store);
        let clock = Instant::now();
        if let Ok((store, recovered)) = Store::open(StoreConfig::at(&dir)) {
            v.insert("store.open_recover_ms", clock.elapsed().as_secs_f64() * 1e3);
            black_box(recovered.len());
            drop(store);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
