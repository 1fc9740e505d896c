//! The seeded corpus of the protocol fuzz: well-formed frames of every
//! non-`DAG` request verb and every reply verb, their cuts at every byte and
//! seeded mutants (byte flips, dropped and doubled tokens, numbers past
//! `u8`, `u16`, `u32`, `u64` and `u128`), and every reader of the wire.
//! `codec_equivalence` holds each reader to a value or a typed error on it;
//! `serve_alloc_free` bounds the heap each reader holds on it.

use super::rng_for_case;
use bsp_model::{BspSchedule, Dag};
use bsp_serve::protocol::{
    encode_error, encode_metrics_reply, encode_response, encode_slow_reply, encode_trace_reply,
    read_incoming, ScheduleResponse, WireTrace,
};
use bsp_serve::ServeError;
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Every seed, tagged with its side: 0 for a request, 1 for a reply.
pub fn seeds() -> Vec<(usize, String)> {
    let requests = request_seeds().into_iter().map(|s| (0, s));
    requests
        .chain(reply_seeds().into_iter().map(|s| (1, s)))
        .collect()
}

/// What the fuzz feeds every reader: each seed cut at every byte, and 120
/// seeded mutants of it.
pub fn corpus() -> Vec<Vec<u8>> {
    let mut inputs = Vec::new();
    for (s, (_, seed)) in seeds().iter().enumerate() {
        inputs.extend((0..seed.len()).map(|cut| seed.as_bytes()[..cut].to_vec()));
        inputs.extend((0..120u64).map(|case| {
            let mut rng = rng_for_case(0xF422 + s as u64, case);
            mutate_message(seed, &mut rng)
        }));
    }
    inputs
}

/// The numbers of `line`, as (start, end) byte ranges.
pub fn number_spans(line: &str) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut start = None;
    for (i, c) in line.char_indices() {
        match (c.is_ascii_digit(), start) {
            (true, None) => start = Some(i),
            (false, Some(s)) => {
                spans.push((s, i));
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        spans.push((s, line.len()));
    }
    spans
}

/// Well-formed messages of every non-`DAG` request verb: a fingerprint
/// replay, a full request (its `DAG` block two lines long) and the control
/// verbs.
fn request_seeds() -> Vec<String> {
    vec![
        format!(
            "REQ 7\nFP {:032x} {:016x}\nOPTION trace 1f\nEND\n",
            u128::MAX / 3,
            0xfeed
        ),
        "REQ 8\nMACHINE tree 8 3 5 2\nOPTION deadline_ms 250\nOPTION mode fast\n\
         OPTION mode default\nOPTION trace ff\nDAG 2\n0 1 0\n0 1 1\nEND\n"
            .to_string(),
        "REQ 9\nMACHINE uniform 4 1 2\nOPTION mode heuristics\nDAG 2\n0 1 0\n0 4 1\nEND\n"
            .to_string(),
        "METRICS\n".to_string(),
        "STATS SLOW\n".to_string(),
        "TRACE ff0a\n".to_string(),
        "PING\n".to_string(),
    ]
}

/// One well-formed frame per reply verb, as the encoders write them.  The
/// schedule names processor `u16::MAX`, the widest a `PROC` entry or a
/// `COMM` `from` / `to` reads back as, so a flipped digit of it is past the
/// field's width.
fn reply_seeds() -> Vec<String> {
    let dag = Dag::from_edges(3, &[(0, 1), (0, 2)], vec![1, 2, 3], vec![4, 5, 6]).unwrap();
    let assignment = bsp_model::Assignment {
        proc: vec![0, u16::MAX, 0],
        superstep: vec![0, 1, 1],
    };
    let response = ScheduleResponse {
        id: 12,
        cost: 40,
        supersteps: 2,
        source: bsp_serve::ScheduleSource::CacheExact,
        micros: 99,
        trace_id: 0xabc,
        schedule: BspSchedule::from_assignment_lazy(&dag, assignment),
    };
    let mut spans = bsp_serve::SpanSet::new();
    spans.push("queue_wait", 0, 0, 12);
    spans.push("funnel", 1, 12, 300);
    let record = bsp_serve::TraceRecord {
        trace_id: 0x10,
        source: "cold",
        shard: 1,
        total_us: 300,
        spans,
    };
    let mut frames = vec![String::new(); 5];
    encode_response(&mut frames[0], &response);
    encode_error(&mut frames[1], 12, &ServeError::Busy);
    encode_trace_reply(&mut frames[2], &WireTrace::from_record(&record));
    encode_metrics_reply(
        &mut frames[3],
        "# TYPE x counter\nx 7\nlat_bucket{le=\"40\"} 2\n",
    );
    encode_slow_reply(&mut frames[4], &[record]);
    frames
}

/// One seeded mutation of a protocol message: byte flips, a token dropped
/// or doubled, or a number past `u8`, `u16`, `u32`, `u64` or `u128`.
pub fn mutate_message(text: &str, rng: &mut ChaCha8Rng) -> Vec<u8> {
    let mut bytes = text.as_bytes().to_vec();
    let spans = number_spans(text);
    match rng.gen_range(0..4u32) {
        0 => {
            for _ in 0..rng.gen_range(1..4u32) {
                let at = rng.gen_range(0..bytes.len());
                let pool = b"0123456789abcdef \t\n\r+-xEND\x0b\x80\xff";
                bytes[at] = *pool.choose(rng).unwrap();
            }
        }
        1 | 2 => {
            let mut tokens: Vec<&[u8]> = bytes
                .split_inclusive(|&b| b == b' ' || b == b'\n')
                .collect();
            let at = rng.gen_range(0..tokens.len());
            if rng.gen_range(0..2u32) == 1 {
                tokens.remove(at);
            } else {
                tokens.insert(at, tokens[at]);
            }
            bytes = tokens.concat();
        }
        _ => {
            if let Some(&(s, e)) = spans.choose(rng) {
                let big = [
                    "256",
                    "65536",
                    "4294967296",
                    "18446744073709551616",
                    "340282366920938463463374607431768211456",
                    "99999999999999999999999999999999999999999",
                ];
                bytes.splice(s..e, big.choose(rng).unwrap().bytes());
            }
        }
    }
    bytes
}

/// Every reader of the wire, each reduced to whether it returned a value:
/// a reader may refuse a mutant with any typed [`ServeError`], never panic.
pub fn readers() -> [(&'static str, fn(&[u8]) -> bool); 6] {
    use bsp_serve::protocol::{
        read_metrics_reply, read_raw_reply, read_reply, read_slow_reply, read_trace_reply,
    };
    [
        ("read_incoming", |mut w| read_incoming(&mut w).is_ok()),
        ("read_reply", |mut w| read_reply(&mut w).is_ok()),
        ("read_raw_reply", |mut w| read_raw_reply(&mut w).is_ok()),
        ("read_trace_reply", |mut w| read_trace_reply(&mut w).is_ok()),
        ("read_metrics_reply", |mut w| {
            read_metrics_reply(&mut w).is_ok()
        }),
        ("read_slow_reply", |mut w| read_slow_reply(&mut w).is_ok()),
    ]
}
