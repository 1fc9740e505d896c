//! Differential tests for the text data path.
//!
//! `read_hyperdag`, `write_hyperdag`, `Dag::from_edges`, `validate` and the
//! `DAG`-block reader of `read_incoming` were rewritten to touch each byte
//! once, under the promise that nothing observable changes: the same `Dag`
//! (CSR order included), the same bytes, the same typed error at the same
//! line.  [`common::reference_codec`] keeps the replaced routines verbatim;
//! the tests here hold the library against them on every `dag_gen` family
//! and on a seeded mutational corpus, offline.
//!
//! The one documented narrowing: the hyperDAG parser scans bytes, so a
//! non-ASCII byte outside a comment is `Malformed` where `split_whitespace`
//! used to accept Unicode blanks.
//!
//! The protocol's other readers — the non-`DAG` verbs of `read_incoming`
//! and every reply reader — are fuzzed with seeded mutants (byte flips,
//! dropped and doubled tokens, a cut at every byte, numbers past `u8`,
//! `u32`, `u64` and `u128`): each must return a value or a typed
//! `ServeError`, never panic.  So are the two readers of bytes that come
//! from elsewhere than a client: `MetricsSnapshot::parse`, which the router
//! runs on every shard's `METRICS` reply before pooling and re-rendering it,
//! and the store's `decode_record`, fed frames whose fields are set to edge
//! values and then checksummed again.

mod common;

use bsp_model::decimal::{push_line, push_u64};
use bsp_model::record::{FRAME_HEADER_BYTES, MAX_PROCESSORS, MAX_RECORD_BYTES};
use bsp_model::{
    decode_record, encode_record, BspSchedule, CommSchedule, CommStep, Dag, DagError, Fnv64,
    Machine, RecordError, StoreRecord, ValidityError,
};
use bsp_sched::baselines::CilkScheduler;
use bsp_sched::hill_climb::{hccs_improve, HillClimbConfig};
use bsp_sched::init::{BspgScheduler, SourceScheduler};
use bsp_sched::Scheduler;
use bsp_serve::protocol::{read_incoming, Incoming};
use bsp_serve::{MetricsRegistry, MetricsSnapshot, Router, RouterConfig, ServeError};
use common::protocol_fuzz::{corpus, mutate_message, number_spans, readers, seeds};
use common::reference_codec as reference;
use common::{random_dag, random_machine, rng_for_case};
use dag_gen::{
    cg, coarse_dag, exp, knn, read_hyperdag, spmv, write_hyperdag, CoarseAlgorithm, CoarseConfig,
    HyperDagError, IterConfig, SpmvConfig,
};
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::io::{BufRead, BufReader, Cursor, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

/// One instance of every `dag_gen` family.
fn families() -> Vec<(String, Dag)> {
    let fine = |n: usize, iterations: usize, seed: u64| IterConfig {
        n,
        density: 6.0 / n as f64,
        iterations,
        seed,
    };
    let mut dags = vec![
        (
            "spmv".to_string(),
            spmv(&SpmvConfig {
                n: 40,
                density: 0.15,
                seed: 1,
            }),
        ),
        ("cg".to_string(), cg(&fine(24, 2, 2))),
        ("exp".to_string(), exp(&fine(24, 3, 3))),
        ("knn".to_string(), knn(&fine(24, 3, 4))),
    ];
    for algorithm in CoarseAlgorithm::ALL {
        let dag = coarse_dag(&CoarseConfig {
            algorithm,
            iterations: 6,
        });
        dags.push((format!("coarse/{}", algorithm.name()), dag));
    }
    dags
}

/// `Ok` with equal DAGs (`Dag: Eq` compares the CSR arrays, so neighbour
/// order is part of it), or the same error variant at the same line.
fn assert_same_parse(text: &str, what: &str) -> bool {
    let new = read_hyperdag(text);
    let old = reference::read_hyperdag(text);
    match (&new, &old) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{what}: DAGs differ on {text:?}"),
        (
            Err(HyperDagError::Malformed { line: a, .. }),
            Err(HyperDagError::Malformed { line: b, .. }),
        )
        | (Err(HyperDagError::Number { line: a }), Err(HyperDagError::Number { line: b })) => {
            assert_eq!(
                a, b,
                "{what}: error lines differ on {text:?}: {new:?} vs {old:?}"
            )
        }
        (Err(HyperDagError::Dag(a)), Err(HyperDagError::Dag(b))) => {
            assert_eq!(a, b, "{what}: DAG errors differ on {text:?}")
        }
        _ => panic!("{what}: outcomes differ on {text:?}: new {new:?}, reference {old:?}"),
    }
    new.is_ok()
}

#[test]
fn writer_is_byte_identical_and_reader_agrees_on_every_family() {
    for (name, dag) in families() {
        let text = write_hyperdag(&dag);
        assert_eq!(
            text,
            reference::write_hyperdag(&dag),
            "{name}: bytes differ"
        );
        assert!(
            assert_same_parse(&text, &name),
            "{name}: own output rejected"
        );
    }
    // The empty DAG and a DAG without edges are files too.
    for dag in [
        Dag::from_edges(0, &[], vec![], vec![]).unwrap(),
        Dag::from_edges(3, &[], vec![7, 8, 9], vec![0, u64::MAX, 2]).unwrap(),
    ] {
        let text = write_hyperdag(&dag);
        assert_eq!(text, reference::write_hyperdag(&dag));
        assert!(assert_same_parse(&text, "edgeless"));
    }
}

/// Both sides of every change in digit count of a `u64`: 0, 9, 10, 99, 100,
/// …, 10¹⁹ − 1, 10¹⁹, and `u64::MAX`.
fn digit_boundaries() -> Vec<u64> {
    let mut values = vec![0];
    for digits in 1..20 {
        let power = 10u64.pow(digits);
        values.extend([power - 1, power]);
    }
    values.push(u64::MAX);
    values
}

/// The decimal writers against `fmt`, which the reference writer formats
/// with, at every digit count: a number alone, a line of them, and the
/// hyperDAG text of DAGs whose weights, node ids and hyperedge indices
/// cross the boundaries.
#[test]
fn codec_bytes_match_the_reference_at_every_digit_count() {
    let values = digit_boundaries();
    assert_eq!(values.len(), 40);
    for &x in &values {
        let mut out = b"x ".to_vec();
        push_u64(&mut out, x);
        assert_eq!(out, format!("x {x}").into_bytes());
        let mut line = Vec::new();
        push_line(&mut line, [x, 7, x]);
        assert_eq!(line, format!("{x} 7 {x}\n").into_bytes());
    }
    // Every boundary as a work and as a communication weight.
    let n = values.len();
    let edges: Vec<(usize, usize)> = (1..n).map(|v| (v - 1, v)).collect();
    let reversed: Vec<u64> = values.iter().rev().copied().collect();
    let weighted = Dag::from_edges(n, &edges, values.clone(), reversed).unwrap();
    let text = write_hyperdag(&weighted);
    assert_eq!(text, reference::write_hyperdag(&weighted));
    assert!(assert_same_parse(&text, "boundary weights"));
    // Node ids and hyperedge indices from 0 to 10⁵: a chain past 100 000.
    let n = 100_002;
    let edges: Vec<(usize, usize)> = (1..n).map(|v| (v - 1, v)).collect();
    let chain = Dag::from_edges(n, &edges, vec![1; n], vec![2; n]).unwrap();
    assert_eq!(write_hyperdag(&chain), reference::write_hyperdag(&chain));
}

/// One seeded mutation of a well-formed file.  `structured` mutations keep
/// the file meaningful (most still parse); the others tear it.
fn mutate(text: &str, rng: &mut ChaCha8Rng, structured: bool) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let header = lines
        .iter()
        .position(|l| !l.trim().is_empty() && !l.trim().starts_with('%'))
        .expect("a header");
    let counts: Vec<usize> = lines[header]
        .split_whitespace()
        .map(|t| t.parse().expect("a header that parsed"))
        .collect();
    let (pins, nodes) = (counts[2], counts[1]);
    let pin_lines = header + 1..header + 1 + pins;
    let node_lines = pin_lines.end..pin_lines.end + nodes;
    let set_header = |lines: &mut Vec<String>, he: usize, nodes: usize, pins: usize| {
        lines[header] = format!("{he} {nodes} {pins}");
    };
    let any_body_line =
        |rng: &mut ChaCha8Rng| rng.gen_range(header + 1..node_lines.end.max(header + 2));
    if structured {
        match rng.gen_range(0..9u32) {
            // Line endings.
            0 => return lines.join("\r\n") + "\r\n",
            // Blank and comment lines anywhere, indented comments included.
            1 => {
                for _ in 0..rng.gen_range(1..6u32) {
                    let at = rng.gen_range(0..=lines.len());
                    let junk = ["", "   ", "\t", "% note", "  % indented \u{e9}\u{a0}", "%"];
                    lines.insert(at, junk.choose(rng).unwrap().to_string());
                }
            }
            // An explicit plus sign, leading zeros, odd blanks.
            2 => {
                for _ in 0..rng.gen_range(1..8u32) {
                    let at = rng.gen_range(header..lines.len());
                    let spans = number_spans(&lines[at]);
                    if let Some(&(s, _)) = spans.choose(rng) {
                        let prefix = ["+", "0", "+00", "\t ", " \u{b}"].choose(rng).unwrap();
                        lines[at].insert_str(s, prefix);
                    }
                }
            }
            // Pins interleaved across hyperedges.
            3 if pins > 1 => lines[pin_lines.clone()].shuffle(rng),
            // Node lines in any order.
            4 if nodes > 1 => lines[node_lines.clone()].shuffle(rng),
            // A duplicate pin, counted by the header.
            5 if pins > 0 => {
                let dup = lines[rng.gen_range(pin_lines.clone())].clone();
                lines.insert(rng.gen_range(pin_lines.start..=pin_lines.end), dup);
                set_header(&mut lines, counts[0], nodes, pins + 1);
            }
            // A self pin: the source of a hyperedge listed again.
            6 if pins > 0 => {
                let first = lines[pin_lines.start].clone();
                lines.insert(pin_lines.end, first);
                set_header(&mut lines, counts[0], nodes, pins + 1);
            }
            // Trailing junk after the last node line.
            7 => {
                let junk = ["0 0", "x", "1 2 3 4", "% bye", "\u{e9}"];
                for _ in 0..rng.gen_range(1..4u32) {
                    lines.push(junk.choose(rng).unwrap().to_string());
                }
            }
            // No final newline.
            _ => return lines.join("\n"),
        }
        return lines.join("\n") + "\n";
    }
    match rng.gen_range(0..8u32) {
        // Truncation at any byte.
        0 => {
            let mut cut = rng.gen_range(0..=text.len());
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            return text[..cut].to_string();
        }
        // Byte flips, ASCII to ASCII.
        1 => {
            let mut bytes = text.as_bytes().to_vec();
            for _ in 0..rng.gen_range(1..4u32) {
                let at = rng.gen_range(0..bytes.len());
                let pool = b"0123456789 \t\n\r%+-x\x0b\x0c";
                bytes[at] = *pool.choose(rng).unwrap();
            }
            return String::from_utf8(bytes).expect("ASCII in, ASCII out");
        }
        // A number no `u64` holds, or a sign no `u64` takes.
        2 => {
            let at = any_body_line(rng).min(lines.len() - 1);
            if let Some(&(s, e)) = number_spans(&lines[at]).choose(rng) {
                let big = [
                    "123456789012345678901",
                    "18446744073709551616",
                    "-1",
                    "+",
                    "1e3",
                ];
                lines[at].replace_range(s..e, big.choose(rng).unwrap());
            }
        }
        // Hostile headers.
        3 => {
            let huge = (u64::MAX / 4).to_string();
            let headers = [
                format!("{huge} {huge} {huge}"),
                format!("{} {nodes} {pins}", pins + 1),
                format!("{} {} {pins}", counts[0], nodes + 1),
                format!("{} {nodes} {}", counts[0], pins + 1),
                format!("{} {nodes}", counts[0]),
                format!("{} {nodes} {pins} 0", counts[0]),
                format!("{} x {pins}", counts[0]),
                "18446744073709551615 18446744073709551615 1".to_string(),
                "0 0 0".to_string(),
            ];
            lines[header] = headers.choose(rng).unwrap().clone();
        }
        // A line lost, or one too many.
        4 => {
            let at = any_body_line(rng).min(lines.len() - 1);
            if rng.gen() {
                lines.remove(at);
            } else {
                let copy = lines[at].clone();
                lines.insert(at, copy);
            }
        }
        // Wrong field counts.
        5 => {
            let at = any_body_line(rng).min(lines.len() - 1);
            if rng.gen() {
                lines[at].push_str(" 1");
            } else if let Some(&(s, _)) = number_spans(&lines[at]).last() {
                lines[at].truncate(s);
            }
        }
        // Out-of-range indices.
        6 => {
            let at = any_body_line(rng).min(lines.len() - 1);
            if let Some(&(s, e)) = number_spans(&lines[at]).first() {
                lines[at].replace_range(s..e, &(nodes + pins + 5).to_string());
            }
        }
        // A cycle: some hyperedge gets an early node as a pin.
        _ if pins > 0 => {
            let at = rng.gen_range(pin_lines.clone());
            if let Some(&(s, e)) = number_spans(&lines[at]).last() {
                lines[at].replace_range(s..e, "0");
            }
        }
        _ => {}
    }
    lines.join("\n") + "\n"
}

#[test]
fn reader_agrees_with_the_reference_on_a_mutational_corpus() {
    let bases: Vec<(String, String)> = families()
        .into_iter()
        .map(|(name, dag)| (name, write_hyperdag(&dag)))
        .chain([(
            "handwritten".to_string(),
            "% c\n\n2 4 5\n0 0\n1 1\n0 2\n1 3\n0 3\n0 1 1\n1 2 2\n2 3 3\n3 4 4\n".to_string(),
        )])
        .collect();
    let (mut parsed, mut rejected) = (0usize, 0usize);
    for (b, (name, base)) in bases.iter().enumerate() {
        for case in 0..160u64 {
            let mut rng = rng_for_case(0xC0DEC + b as u64, case);
            let mut text = mutate(base, &mut rng, case % 2 == 0);
            // Every other mutant is mutated again: defects in combination.
            if case % 4 >= 2 && read_hyperdag(&text).is_ok() {
                let structured = rng.gen();
                text = mutate(&text, &mut rng, structured);
            }
            if text.is_ascii() {
                let ok = assert_same_parse(&text, &format!("{name} case {case}"));
                parsed += usize::from(ok);
                rejected += usize::from(!ok);
            } else {
                // Non-ASCII in a comment (or in junk that is never read) is
                // fine and changes nothing; anywhere else it is `Malformed`.
                match (read_hyperdag(&text), reference::read_hyperdag(&text)) {
                    (Ok(new), Ok(old)) => assert_eq!(new, old),
                    (Ok(_), Err(_)) => panic!("{name} case {case}: accepts what was an error"),
                    (Err(_), _) => {}
                }
            }
        }
    }
    assert!(
        parsed > 300 && rejected > 300,
        "the corpus must exercise both outcomes: {parsed} parsed, {rejected} rejected"
    );
}

#[test]
fn non_ascii_outside_a_comment_is_malformed() {
    let base = "1 2 2\n0 0\n0 1\n0 1 1\n1 1 1\n";
    assert!(read_hyperdag(base).is_ok());
    // U+00A0 and U+2003 are blanks to `split_whitespace`, bytes to the scan.
    for (text, line) in [
        ("1\u{a0}2 2\n0 0\n0 1\n0 1 1\n1 1 1\n", 1),
        ("1 2 2\n0\u{2003}0\n0 1\n0 1 1\n1 1 1\n", 2),
        ("1 2 2\n0 0\n0 1\n0 1 \u{661}\n1 1 1\n", 4),
        ("1 2 2\n0 0\n0 1\n0 1 1\n1 1 1 \u{e9}\n", 5),
    ] {
        match read_hyperdag(text) {
            Err(HyperDagError::Malformed { line: l, .. }) => assert_eq!(l, line, "{text:?}"),
            other => panic!("{text:?}: expected Malformed at line {line}, got {other:?}"),
        }
    }
    // In a comment, and after the last line that is read, anything goes.
    let commented =
        "% caf\u{e9}\u{a0}\n1 2 2\n  % \u{2003}\n0 0\n0 1\n0 1 1\n1 1 1\n\u{e9} \u{e9}\n";
    assert_eq!(
        read_hyperdag(commented).unwrap(),
        reference::read_hyperdag(commented).unwrap()
    );
}

#[test]
fn from_edges_names_the_first_defect_of_many_in_any_order() {
    let (mut forward, mut relabelled, mut cyclic) = (0usize, 0usize, 0usize);
    for case in 0..400u64 {
        let mut rng = rng_for_case(0xED6E5, case);
        let n = rng.gen_range(2usize..14);
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for u in 0..n {
            for v in u + 1..n {
                if rng.gen_range(0..3u32) == 0 {
                    edges.push((u, v));
                }
            }
        }
        for _ in 0..rng.gen_range(0..4u32) {
            let defect = match rng.gen_range(0..6u32) {
                0 => (n + rng.gen_range(0..3), rng.gen_range(0..n)),
                1 => (rng.gen_range(0..n), n + rng.gen_range(0..3)),
                2 => {
                    let v = rng.gen_range(0..n);
                    (v, v)
                }
                3 if !edges.is_empty() => *edges.choose(&mut rng).unwrap(),
                // An edge reversed: no defect of the list, but a cycle.
                4 if !edges.is_empty() => {
                    let &(u, v) = edges.choose(&mut rng).unwrap();
                    (v, u)
                }
                // A back edge: no defect of the list, and a cycle or not.
                _ => (rng.gen_range(1..n), 0),
            };
            edges.push(defect);
        }
        edges.shuffle(&mut rng);
        let built = Dag::from_edges(n, &edges, vec![1; n], vec![1; n]);
        if let Some(defect) = reference::first_edge_defect(n, &edges) {
            assert_eq!(built.unwrap_err(), defect, "case {case}: {edges:?}");
            continue;
        }
        // A defect-free list is a DAG exactly when it has no cycle.
        let is_acyclic = acyclic(n, &edges);
        match &built {
            Ok(dag) => {
                assert!(is_acyclic, "case {case}: a cycle was accepted: {edges:?}");
                // CSR rows keep insertion order.
                for u in 0..n {
                    let row: Vec<usize> = edges.iter().filter(|e| e.0 == u).map(|e| e.1).collect();
                    assert_eq!(dag.successors(u).collect::<Vec<_>>(), row);
                    let col: Vec<usize> = edges.iter().filter(|e| e.1 == u).map(|e| e.0).collect();
                    assert_eq!(dag.predecessors(u).collect::<Vec<_>>(), col);
                }
            }
            Err(err) => {
                assert_eq!(*err, DagError::Cycle, "case {case}: {edges:?}");
                assert!(!is_acyclic, "case {case}: a DAG was refused: {edges:?}");
            }
        }
        cyclic += usize::from(!is_acyclic);
        // The same list under shuffled ids: a forward list usually stops
        // being one, which must change neither the verdict nor the rows.
        let mut label: Vec<usize> = (0..n).collect();
        label.shuffle(&mut rng);
        let moved: Vec<(usize, usize)> = edges.iter().map(|&(u, v)| (label[u], label[v])).collect();
        if edges.iter().all(|&(u, v)| u < v) {
            forward += 1;
            relabelled += usize::from(moved.iter().any(|&(u, v)| u > v));
        }
        match (built, Dag::from_edges(n, &moved, vec![1; n], vec![1; n])) {
            (Ok(dag), Ok(moved_dag)) => {
                let relabel = |row: &mut dyn Iterator<Item = usize>| {
                    row.map(|v| label[v]).collect::<Vec<_>>()
                };
                for u in 0..n {
                    assert_eq!(
                        moved_dag.successors(label[u]).collect::<Vec<_>>(),
                        relabel(&mut dag.successors(u))
                    );
                    assert_eq!(
                        moved_dag.predecessors(label[u]).collect::<Vec<_>>(),
                        relabel(&mut dag.predecessors(u))
                    );
                }
            }
            (Err(err), Err(moved_err)) => assert_eq!(err, moved_err, "case {case}"),
            (a, b) => panic!("case {case}: relabelling changed the verdict: {a:?} vs {b:?}"),
        }
    }
    assert!(
        forward >= 80 && relabelled >= 60 && cyclic >= 30,
        "{forward} forward lists, {relabelled} relabelled to non-forward, {cyclic} cyclic"
    );
}

/// Whether an edge list is free of cycles, by taking away nodes without
/// incoming edges until none is left (no `Dag` involved).
fn acyclic(n: usize, edges: &[(usize, usize)]) -> bool {
    let mut indeg = vec![0usize; n];
    let mut out = vec![Vec::new(); n];
    for &(u, v) in edges {
        indeg[v] += 1;
        out[u].push(v);
    }
    let mut free: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
    let mut taken = 0;
    while let Some(u) = free.pop() {
        taken += 1;
        for &v in &out[u] {
            indeg[v] -= 1;
            if indeg[v] == 0 {
                free.push(v);
            }
        }
    }
    taken == n
}

/// Same verdict; `SourceValueNotPresent` is compared by variant only, since
/// the reference reports condition-2 violations in hash order.
fn assert_same_verdict(dag: &Dag, machine: &Machine, sched: &BspSchedule, what: &str) -> bool {
    let new = sched.validate(dag, machine);
    let old = reference::validate(dag, machine, sched);
    match (&new, &old) {
        (
            Err(ValidityError::SourceValueNotPresent { .. }),
            Err(ValidityError::SourceValueNotPresent { .. }),
        ) => {}
        _ => assert_eq!(new, old, "{what}"),
    }
    new.is_ok()
}

#[test]
fn validate_agrees_with_the_reference_on_valid_and_corrupted_schedules() {
    let (mut valid, mut invalid) = (0usize, 0usize);
    for case in 0..120u64 {
        let mut rng = rng_for_case(0x7A11D, case);
        let dag = random_dag(&mut rng, 14);
        let machine = random_machine(&mut rng);
        let p = machine.p();
        let mut schedules: Vec<BspSchedule> = vec![
            SourceScheduler.schedule(&dag, &machine),
            BspgScheduler.schedule(&dag, &machine),
            CilkScheduler::default().schedule(&dag, &machine),
        ];
        // The eager Γ of the first, and the `HCcs`-rewritten Γ of each.
        let eager = CommSchedule::eager(&dag, &schedules[0].assignment);
        schedules.push(BspSchedule {
            assignment: schedules[0].assignment.clone(),
            comm: eager,
        });
        for i in 0..3 {
            let mut rewritten = schedules[i].clone();
            hccs_improve(
                &dag,
                &machine,
                &mut rewritten,
                &HillClimbConfig::with_max_steps(200),
            );
            schedules.push(rewritten);
        }
        for (s, sched) in schedules.iter().enumerate() {
            let what = format!("case {case} schedule {s}");
            assert!(assert_same_verdict(&dag, &machine, sched, &what), "{what}");
            valid += 1;
            // Single-field corruptions.
            for k in 0..12 {
                let mut bad = sched.clone();
                let v = rng.gen_range(0..dag.n());
                let mut steps: Vec<CommStep> = bad.comm.steps().to_vec();
                match k % 6 {
                    0 => bad.assignment.proc[v] = rng.gen_range(0..p + 1) as u16,
                    1 => bad.assignment.superstep[v] = rng.gen_range(0..6),
                    2 => {
                        bad.assignment.proc.pop();
                    }
                    _ if steps.is_empty() => bad.assignment.superstep[v] += 1,
                    3 => {
                        let i = rng.gen_range(0..steps.len());
                        steps.remove(i);
                    }
                    4 => {
                        let i = rng.gen_range(0..steps.len());
                        match rng.gen_range(0..3u32) {
                            0 => steps[i].from = rng.gen_range(0..p + 1) as u16,
                            1 => steps[i].to = rng.gen_range(0..p + 1) as u16,
                            _ => steps[i].node = rng.gen_range(0..dag.n()) as u32,
                        }
                    }
                    _ => {
                        let i = rng.gen_range(0..steps.len());
                        steps[i].step = rng.gen_range(0..6);
                    }
                }
                bad.comm = CommSchedule::from_steps(steps);
                let what = format!("case {case} schedule {s} corruption {k}");
                let ok = assert_same_verdict(&dag, &machine, &bad, &what);
                valid += usize::from(ok);
                invalid += usize::from(!ok);
            }
        }
    }
    assert!(
        valid > 800 && invalid > 800,
        "both verdicts must be exercised: {valid} valid, {invalid} invalid"
    );
}

/// A reader that hands out one byte per `fill_buf`: every line, and every
/// multi-byte character, spans a buffer boundary.
struct OneByte<'a>(&'a [u8]);

impl Read for OneByte<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.0.len().min(buf.len()).min(1);
        buf[..n].copy_from_slice(&self.0[..n]);
        self.0 = &self.0[n..];
        Ok(n)
    }
}

impl BufRead for OneByte<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        Ok(&self.0[..self.0.len().min(1)])
    }

    fn consume(&mut self, amount: usize) {
        self.0 = &self.0[amount..];
    }
}

/// What `read_incoming` makes of a stream, message by message, and how many
/// bytes each call took.
fn transcript<R: BufRead>(mut reader: R, remaining: impl Fn(&R) -> usize) -> Vec<String> {
    let mut out = Vec::new();
    for _ in 0..6 {
        let before = remaining(&reader);
        let what = match read_incoming(&mut reader) {
            Ok(None) => {
                out.push("eof".to_string());
                break;
            }
            Ok(Some(Incoming::Request(r))) => {
                format!("request {} n={} m={}", r.id, r.dag.n(), r.dag.num_edges())
            }
            Ok(Some(Incoming::Ping)) => "ping".to_string(),
            Ok(Some(other)) => format!("{other:?}"),
            Err(ServeError::Malformed { reason, .. }) => format!("malformed: {reason}"),
            Err(other) => format!("{}: {other}", other.kind()),
        };
        out.push(format!("{what} [{} bytes]", before - remaining(&reader)));
    }
    out
}

/// The transcript of `wire` read through a `Cursor` and one byte at a time;
/// the two must agree.
fn transcripts(wire: &[u8]) -> Vec<String> {
    let whole = transcript(Cursor::new(wire), |c| wire.len() - c.position() as usize);
    let bytewise = transcript(OneByte(wire), |r| r.0.len());
    assert_eq!(whole, bytewise, "buffering changed the outcome");
    // `BufReader`'s 8 KiB buffer-fulls are a third way to cut the stream;
    // its read-ahead hides the position, so compare without the byte counts.
    let strip = |t: &[String]| -> Vec<String> {
        t.iter()
            .map(|s| s.split(" [").next().unwrap_or(s).to_string())
            .collect()
    };
    let buffered = transcript(BufReader::with_capacity(64, wire), |_| 0);
    assert_eq!(
        strip(&whole),
        strip(&buffered),
        "a 64-byte buffer changed the outcome"
    );
    whole
}

#[test]
fn dag_block_reader_keeps_every_error_and_every_stream_position() {
    const HEAD: &str = "REQ 9\nMACHINE uniform 2 1 1\n";
    const BLOCK: &str = "1 2 2\n0 0\n0 1\n0 1 1\n1 1 1\n";
    let head = HEAD.len();

    // A well-formed request, `\r\n` line ends, a second one behind it.
    let crlf = format!("{HEAD}DAG 5\n{BLOCK}END\nPING\n").replace('\n', "\r\n");
    assert_eq!(
        transcripts(crlf.as_bytes()),
        [
            format!("request 9 n=2 m=1 [{} bytes]", crlf.len() - 6),
            "ping [6 bytes]".to_string(),
            "eof".to_string()
        ]
    );

    // Early `END`: a typed error that reads the `END` line and nothing more,
    // so the next message parses.
    let early = format!("{HEAD}DAG 5\n1 2 2\n0 0\n END \nPING\n");
    assert_eq!(
        transcripts(early.as_bytes()),
        [
            format!(
                "malformed: DAG payload shorter than its declared line count [{} bytes]",
                early.len() - 5
            ),
            "ping [5 bytes]".to_string(),
            "eof".to_string()
        ]
    );

    // End of stream inside the block.
    let cut = format!("{HEAD}DAG 5\n1 2 2\n0 0\n");
    assert_eq!(
        transcripts(cut.as_bytes()),
        [
            format!("eof: connection closed mid-request [{} bytes]", cut.len()),
            "eof".to_string()
        ]
    );

    // A last line without `\n`: it counts, as block line or as `END`.
    let unterminated_end = format!("{HEAD}DAG 5\n{BLOCK}END");
    assert_eq!(
        transcripts(unterminated_end.as_bytes()),
        [
            format!("request 9 n=2 m=1 [{} bytes]", unterminated_end.len()),
            "eof".to_string()
        ]
    );
    let unterminated_block = format!("{HEAD}DAG 5\n{}", BLOCK.trim_end());
    assert_eq!(
        transcripts(unterminated_block.as_bytes()),
        [
            format!(
                "eof: connection closed mid-request [{} bytes]",
                unterminated_block.len()
            ),
            "eof".to_string()
        ]
    );

    // A block line of 1 MiB + 1: rejected once 1 MiB of it is read, the
    // rest of the line is the next "message".
    let mib = 1usize << 20;
    let long = format!("{HEAD}DAG 3\n{}\nPING\n", "7".repeat(mib + 1));
    assert_eq!(
        transcripts(long.as_bytes()),
        [
            format!(
                "malformed: request line exceeds 1048576 bytes [{} bytes]",
                head + 6 + mib
            ),
            "malformed: expected REQ, STATS SLOW, METRICS, TRACE or PING [2 bytes]".to_string(),
            "ping [5 bytes]".to_string(),
            "eof".to_string()
        ]
    );
    // Exactly 1 MiB with its newline is a line like any other.
    let fits = format!("{HEAD}DAG 6\n%{}\n{BLOCK}END\n", "c".repeat(mib - 2));
    assert_eq!(
        transcripts(fits.as_bytes()),
        [
            format!("request 9 n=2 m=1 [{} bytes]", fits.len()),
            "eof".to_string()
        ]
    );

    // Invalid UTF-8 inside the block: the transport error `read_line` gives,
    // at that line; the rest of the block is then read as messages.
    let mut invalid = format!("{HEAD}DAG 6\n1 2 2\n% ").into_bytes();
    let bad_line_end = invalid.len() + 2;
    invalid.extend_from_slice(b"\xff\n0 0\n");
    assert_eq!(
        transcripts(&invalid),
        [
            format!(
                "io: transport error: stream did not contain valid UTF-8 [{bad_line_end} bytes]"
            ),
            "malformed: expected REQ, STATS SLOW, METRICS, TRACE or PING [4 bytes]".to_string(),
            "eof".to_string()
        ]
    );
    // Valid UTF-8 in a comment is a comment, even split across buffers.
    let accented = format!("{HEAD}DAG 6\n% caf\u{e9} \u{2003}\u{1f600}\n{BLOCK}END\n");
    assert_eq!(
        transcripts(accented.as_bytes()),
        [
            format!("request 9 n=2 m=1 [{} bytes]", accented.len()),
            "eof".to_string()
        ]
    );

    // The limits on the block itself.
    let too_many = format!("{HEAD}DAG 4000001\n");
    assert_eq!(
        transcripts(too_many.as_bytes())[0],
        format!(
            "malformed: DAG payload exceeds the service limit [{} bytes]",
            too_many.len()
        )
    );
    let hostile = format!("{HEAD}DAG 3\n9999999999 9999999999 9999999999\n0 0\n0 1 1\nEND\n");
    assert!(transcripts(hostile.as_bytes())[0].starts_with("dag: bad DAG payload: malformed"));
}

/// A stand-in shard: accepts one connection at a time and reads request
/// frames off it (each up to its `END` line), reports their bytes, and
/// answers as `reply` says (`None`: hang up without answering, as a dying
/// shard does).
fn fake_shard(
    frames: mpsc::Sender<(usize, Vec<u8>)>,
    index: usize,
    reply: impl Fn() -> Option<&'static str> + Send + 'static,
) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a fake shard");
    let addr = listener.local_addr().expect("local addr");
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { return };
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            loop {
                let mut frame = Vec::new();
                loop {
                    let before = frame.len();
                    match reader.read_until(b'\n', &mut frame) {
                        Ok(0) | Err(_) => break,
                        Ok(_) if frame[before..].trim_ascii() == b"END" => break,
                        Ok(_) => {}
                    }
                }
                if !frame.ends_with(b"END\n") {
                    break; // the router hung up
                }
                let id = String::from_utf8_lossy(&frame)
                    .lines()
                    .next()
                    .and_then(|l| l.strip_prefix("REQ "))
                    .unwrap_or("0")
                    .to_string();
                if frames.send((index, frame)).is_err() {
                    return;
                }
                match reply() {
                    Some(kind) => {
                        let _ = writeln!(stream, "ERR {id} {kind} answered by fake shard {index}");
                    }
                    None => break,
                }
            }
        }
    });
    addr
}

#[test]
fn router_forwards_request_bodies_verbatim_and_failover_resends_the_same_bytes() {
    let (tx, rx) = mpsc::channel();
    // Whichever shard gets a frame first hangs up on it; the survivor's
    // answer ends the request.  Both report what they were sent.
    let first_dies = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
    let addrs: Vec<SocketAddr> = (0..2)
        .map(|index| {
            let first_dies = std::sync::Arc::clone(&first_dies);
            fake_shard(tx.clone(), index, move || {
                let dies = first_dies.swap(false, std::sync::atomic::Ordering::SeqCst);
                (!dies).then_some("busy")
            })
        })
        .collect();
    let router = Router::bind("127.0.0.1:0", &addrs, RouterConfig::default())
        .expect("bind router")
        .spawn()
        .expect("spawn router");

    // Nothing `encode_request` would write: blank lines, `\r\n`, tabs, an
    // explicit plus, comments with UTF-8 in them, options in any order.
    let body = "MACHINE uniform 4 1 2\r\n\nOPTION deadline_ms 0\nOPTION mode heuristics\n\
                DAG 9\n% caf\u{e9} \u{2713}\n1 3 3\n0 0\n\t0 1\n 0 +2 \n\n0 1 1\r\n1 2 1\n2 3 1\n";
    let mut client = TcpStream::connect(router.addr()).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");
    write!(client, "\nREQ 77\r\n{body} END \n").expect("send");
    let mut answer = String::new();
    BufReader::new(&client)
        .read_line(&mut answer)
        .expect("the survivor's answer comes back");
    assert!(
        answer.starts_with("ERR 77 busy answered by fake shard"),
        "the client's id is restored on the way back: {answer:?}"
    );

    let (first_shard, first) = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("first frame");
    let (second_shard, second) = rx.recv_timeout(Duration::from_secs(20)).expect("resend");
    assert_ne!(
        first_shard, second_shard,
        "failover goes to the other shard"
    );
    assert_eq!(first, second, "failover resends the same bytes");

    // Below its `REQ` line the frame is the client's body, then the minted
    // trace option, then `END`.
    let text = String::from_utf8(first).expect("UTF-8 in, UTF-8 out");
    let (req_line, rest) = text.split_once('\n').expect("a REQ line");
    assert!(
        req_line.starts_with("REQ ") && req_line != "REQ 77",
        "{req_line:?}"
    );
    let tail = rest.strip_prefix(body).expect("the body, byte for byte");
    let trace = tail
        .strip_prefix("OPTION trace ")
        .and_then(|t| t.strip_suffix("\nEND\n"))
        .unwrap_or_else(|| panic!("expected the trace option and END, got {tail:?}"));
    assert!(!trace.is_empty() && trace.bytes().all(|b| b.is_ascii_hexdigit()));

    // A client that brings its own trace id gets nothing injected.
    let traced = format!("OPTION trace beef\n{body}");
    write!(client, "REQ 78\n{traced}END\n").expect("send");
    answer.clear();
    BufReader::new(&client)
        .read_line(&mut answer)
        .expect("answer");
    assert!(answer.starts_with("ERR 78 busy"), "{answer:?}");
    let (_, frame) = rx.recv_timeout(Duration::from_secs(20)).expect("frame");
    let text = String::from_utf8(frame).expect("UTF-8");
    let (_, rest) = text.split_once('\n').expect("a REQ line");
    assert_eq!(rest, format!("{traced}END\n"));

    drop(client);
    router.shutdown();
}

#[test]
fn protocol_readers_return_a_value_or_a_typed_error_on_every_mutant() {
    let readers = readers();
    // The seeds read back through their own readers.
    for (side, seed) in &seeds() {
        let own = match side {
            0 => &readers[..1],
            _ => &readers[1..],
        };
        assert!(
            own.iter().any(|(_, read)| read(seed.as_bytes())),
            "{seed:?}"
        );
    }
    let (mut read, mut refused) = (0usize, 0usize);
    for input in corpus() {
        for (_, reader) in &readers {
            let ok = reader(&input);
            read += usize::from(ok);
            refused += usize::from(!ok);
        }
    }
    assert!(
        read > 500 && refused > 10_000,
        "the corpus must exercise both outcomes: {read} read, {refused} refused"
    );
}

/// `METRICS` expositions as a shard renders them (counters, a gauge and a
/// histogram with observations in linear and log buckets) and as a router
/// renders the pooled snapshot.
fn exposition_seeds() -> Vec<String> {
    use std::sync::atomic::Ordering;
    let registry = MetricsRegistry::new();
    registry
        .counter("bsp_requests_total", "requests", &[("source", "cold")])
        .fetch_add(5, Ordering::Relaxed);
    registry
        .gauge("bsp_cache_bytes", "bytes", &[])
        .store(4096, Ordering::Relaxed);
    let wait = registry.histogram("bsp_queue_wait_micros", "wait", &[]);
    for us in [3, 40, 900, 70_000] {
        wait.record(Duration::from_micros(us));
    }
    let mut shard = String::new();
    registry.render(&mut shard);
    let mut pooled = String::new();
    MetricsSnapshot::parse(&shard)
        .expect("a rendered registry parses")
        .render(&mut pooled);
    vec![shard, pooled]
}

/// What the router does with one shard's `METRICS` reply: parse it, pool it
/// into the aggregate (twice, so sums grow), and render the aggregate, which
/// must parse again.  Reports whether the reply parsed.
fn pools(text: &str, aggregate: &mut MetricsSnapshot) -> bool {
    let Ok(snapshot) = MetricsSnapshot::parse(text) else {
        return false;
    };
    aggregate.merge_from(&snapshot);
    aggregate.merge_from(&snapshot);
    let mut out = String::new();
    aggregate.render(&mut out);
    assert!(MetricsSnapshot::parse(&out).is_ok(), "{text:?} -> {out:?}");
    true
}

#[test]
fn metrics_parser_returns_a_snapshot_or_an_error_on_every_mutant() {
    let (mut read, mut refused) = (0usize, 0usize);
    for (s, seed) in exposition_seeds().iter().enumerate() {
        let mut aggregate = MetricsSnapshot::default();
        assert!(pools(seed, &mut aggregate), "{seed:?}");
        let mut count = |ok: bool| {
            read += usize::from(ok);
            refused += usize::from(!ok);
        };
        for cut in 0..seed.len() {
            count(pools(&seed[..cut], &mut aggregate));
        }
        for case in 0..400u64 {
            let mut rng = rng_for_case(0x3E7 + s as u64, case);
            let mut lines: Vec<&str> = seed.lines().collect();
            let mutant = match rng.gen_range(0..4u32) {
                // Byte flips, tokens dropped or doubled, numbers past `u64`.
                0 => String::from_utf8_lossy(&mutate_message(seed, &mut rng)).into_owned(),
                // Lines in any order: samples before their `# TYPE`, buckets
                // out of `le` order.
                1 => {
                    lines.shuffle(&mut rng);
                    lines.join("\n")
                }
                // A line dropped or doubled.
                2 => {
                    let at = rng.gen_range(0..lines.len());
                    if rng.gen_range(0..2u32) == 1 {
                        lines.remove(at);
                    } else {
                        lines.insert(at, lines[at]);
                    }
                    lines.join("\n")
                }
                // A number at the edge of `u64`, or not a number.
                _ => {
                    let mut text = seed.clone();
                    if let Some(&(b, e)) = number_spans(seed).choose(&mut rng) {
                        let edge = ["0", "18446744073709551615", "-1", "+Inf", "1e3", ""];
                        text.replace_range(b..e, edge.choose(&mut rng).unwrap());
                    }
                    text
                }
            };
            count(pools(&mutant, &mut aggregate));
        }
    }
    assert!(
        read > 500 && refused > 500,
        "the corpus must exercise both outcomes: {read} parsed, {refused} refused"
    );
}

/// Framed store records: a uniform and a tree machine, an empty and a
/// non-empty assignment.
fn record_seeds() -> Vec<Vec<u8>> {
    let record = |machine: Machine, n: u32| StoreRecord {
        full_fp: u128::MAX / 7,
        structure_fp: 0xfeed,
        cost: 42,
        machine,
        dag_bytes: b"% hyperdag\n1 2 1\n0 0\n0 1 1\n1 1 1\n".to_vec(),
        assignment: bsp_model::Assignment {
            proc: (0..n).map(|i| (i % 4) as u16).collect(),
            superstep: (0..n).collect(),
        },
    };
    [
        record(Machine::uniform(4, 1, 5), 2),
        record(Machine::numa_binary_tree(8, 2, 5, 3), 9),
        record(Machine::uniform(1, 0, 0), 0),
    ]
    .iter()
    .map(|r| {
        let mut frame = Vec::new();
        encode_record(r, &mut frame).expect("a persistable record");
        frame
    })
    .collect()
}

/// Rewrites a frame's length and checksum over `body`, so the decoder gets
/// past the checksum and reads the fields.
fn reframe(body: &[u8]) -> Vec<u8> {
    let mut hasher = Fnv64::new();
    hasher.write_bytes(body);
    let mut frame = (body.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&hasher.finish().to_le_bytes());
    frame.extend_from_slice(body);
    frame
}

/// One seeded mutation of a framed record: bytes flipped under the old
/// checksum, a length header at an edge, or a body whose fields are flipped,
/// set to edge values, cut or extended and then framed again.
fn mutate_record(frame: &[u8], rng: &mut ChaCha8Rng) -> Vec<u8> {
    let mut bytes = frame.to_vec();
    let mut body = frame[FRAME_HEADER_BYTES..].to_vec();
    match rng.gen_range(0..5u32) {
        0 => {
            for _ in 0..rng.gen_range(1..4u32) {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] = rng.gen::<u32>() as u8;
            }
            bytes
        }
        1 => {
            let len = (body.len() as u32).saturating_sub(1);
            let edge = [0, len, len + 2, MAX_RECORD_BYTES as u32 + 1, u32::MAX];
            bytes[..4].copy_from_slice(&edge.choose(rng).unwrap().to_le_bytes());
            bytes
        }
        2 => {
            for _ in 0..rng.gen_range(1..4u32) {
                let at = rng.gen_range(0..body.len());
                body[at] = rng.gen::<u32>() as u8;
            }
            reframe(&body)
        }
        // The machine kind, `P`, `g`, `ℓ`, `Δ`, the DAG length or `n` at an
        // edge: the fields after `full_fp`, `structure_fp` and `cost`.
        3 => {
            let dag_len = u32::from_le_bytes(body[61..65].try_into().unwrap()) as usize;
            let fields = [
                (32, 1),
                (33, 4),
                (37, 8),
                (45, 8),
                (53, 8),
                (61, 4),
                (65 + dag_len, 4),
            ];
            let &(at, width) = fields.choose(rng).unwrap();
            let edges = [0, 1, 2, 3, 8, 511, 512, 513, 1 << 16, u64::MAX];
            let value = edges.choose(rng).unwrap().to_le_bytes();
            body[at..at + width].copy_from_slice(&value[..width]);
            reframe(&body)
        }
        _ => {
            if rng.gen_range(0..2u32) == 1 {
                body.truncate(rng.gen_range(0..body.len()));
            } else {
                body.extend((0..rng.gen_range(1..9u32)).map(|_| rng.gen::<u32>() as u8));
            }
            reframe(&body)
        }
    }
}

/// Whether `bytes` decoded; a refusal must be one of the decoder's errors
/// and a decoded frame must stay inside `bytes` with maps of equal length.
fn decodes(bytes: &[u8]) -> bool {
    match decode_record(bytes) {
        Ok((record, used)) => {
            let assignment = &record.assignment;
            assert!(used <= bytes.len());
            assert_eq!(assignment.proc.len(), assignment.superstep.len());
            assert!(record.machine.p() <= MAX_PROCESSORS);
            true
        }
        Err(RecordError::Truncated | RecordError::ChecksumMismatch | RecordError::Malformed(_)) => {
            false
        }
        Err(err @ RecordError::Unsupported(_)) => panic!("a decode-side {err}"),
    }
}

#[test]
fn record_decoder_returns_a_record_or_a_typed_error_on_every_mutant() {
    let seeds = record_seeds();
    let (mut read, mut refused) = (0usize, 0usize);
    let mut count = |ok: bool| {
        read += usize::from(ok);
        refused += usize::from(!ok);
    };
    for (s, seed) in seeds.iter().enumerate() {
        assert!(decodes(seed));
        // A frame followed by the next one decodes as the first alone.
        let next = &seeds[(s + 1) % seeds.len()];
        let (_, used) = decode_record(&[seed.as_slice(), next].concat()).unwrap();
        assert_eq!(used, seed.len());
        for cut in 0..seed.len() {
            assert_eq!(decode_record(&seed[..cut]), Err(RecordError::Truncated));
        }
        for case in 0..2_000u64 {
            let mut rng = rng_for_case(0x5EC + s as u64, case);
            count(decodes(&mutate_record(seed, &mut rng)));
        }
    }
    assert!(
        read > 1_000 && refused > 3_000,
        "the corpus must exercise both outcomes: {read} decoded, {refused} refused"
    );
}
