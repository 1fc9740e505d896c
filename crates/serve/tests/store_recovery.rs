//! Randomized corruption recovery over a log of several segments: for *any*
//! truncation or single-bit flip of one segment file, for a compaction
//! interrupted anywhere in its rewrite, and for the real rewrite failed after
//! any frame, [`Store::open`] recovers exactly the
//! maximal checksum-valid prefix of frames of each segment, never an entry
//! past the damage, and the newest surviving version of every fingerprint.
//!
//! This is the property the torn-write design rests on: a crash can garble
//! at most the tail of the segment being written, and recovery = "keep the
//! longest clean prefix of each segment, then the newest version wins".
//! The seeded cases below sweep damage positions across whole files —
//! segment headers, frame length headers, checksums, bodies, frame
//! boundaries — of every segment, rather than hand-picking a few offsets.

use bsp_model::record::{decode_record, encode_record, StoreRecord};
use bsp_model::{Assignment, Machine};
use bsp_serve::store::SEGMENT_HEADER_BYTES;
use bsp_serve::{FailPoint, Store, StoreConfig, StoreStats};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fs;
use std::path::PathBuf;

const CASES: u64 = 48;
/// Writes into the pristine log, over `FINGERPRINTS` keys: later writes of
/// a key supersede earlier ones, also across segments.
const WRITES: usize = 18;
const FINGERPRINTS: u64 = 8;
/// Small segments, so the writes roll over several files.
const SEGMENT_BYTES: u64 = 600;

fn temp_dir(name: &str) -> PathBuf {
    // Keyed by the running test as well as the process: libtest gives each
    // test a thread named after it, and the tests here run side by side and
    // both want a "pristine" directory.
    let thread = std::thread::current();
    let test = thread.name().unwrap_or("main");
    let dir = std::env::temp_dir().join(format!(
        "bsp-store-recovery-{}-{test}-{name}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Write `version` of fingerprint `fp`: the version is the record's cost,
/// so recovery's answer says which write of a key it kept.
fn record(fp: u128, version: u64, payload: usize) -> StoreRecord {
    StoreRecord {
        full_fp: fp,
        structure_fp: (fp as u64).wrapping_mul(3),
        cost: version,
        machine: Machine::uniform(2, 1, 1),
        dag_bytes: vec![(fp as u8).wrapping_add(7); payload],
        assignment: Assignment {
            proc: vec![0, 1],
            superstep: vec![0, 0],
        },
    }
}

/// One segment file: its name, its bytes, and each frame's `(fingerprint,
/// version)` with its *end* offset within the file (segment header
/// included).
struct Segment {
    name: String,
    bytes: Vec<u8>,
    frames: Vec<(u128, u64, u64)>,
}

/// Writes `WRITES` frames into a fresh store whose segments roll every
/// `SEGMENT_BYTES`, and returns the pristine segments in sequence order.
fn pristine_log(rng: &mut ChaCha8Rng) -> Vec<Segment> {
    let dir = temp_dir("pristine");
    let config = StoreConfig {
        segment_bytes: SEGMENT_BYTES,
        ..StoreConfig::at(&dir)
    };
    {
        let (store, recovered) = Store::open(config).expect("open fresh store");
        assert!(recovered.is_empty());
        for version in 0..WRITES as u64 {
            let fp = u128::from(rng.gen_range(1..=FINGERPRINTS));
            let mut frame = Vec::new();
            let payload = rng.gen_range(1..200);
            encode_record(&record(fp, version, payload), &mut frame).expect("encode");
            store.offer(fp, frame);
        }
        store.flush();
    }
    let mut names: Vec<String> = fs::read_dir(&dir)
        .expect("list pristine segments")
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    let segments: Vec<Segment> = names
        .into_iter()
        .map(|name| read_segment(&dir, name))
        .collect();
    let _ = fs::remove_dir_all(&dir);
    let written: usize = segments.iter().map(|s| s.frames.len()).sum();
    assert_eq!(written, WRITES);
    let used = segments.iter().filter(|s| !s.frames.is_empty()).count();
    assert!(
        used >= 3,
        "the writes fill {used} segments, want at least 3"
    );
    let segment_of = |fp: u128| {
        let holds = |s: &Segment| s.frames.iter().any(|f| f.0 == fp);
        segments.iter().filter(|&s| holds(s)).count()
    };
    assert!(
        (1..=FINGERPRINTS as u128).any(|fp| segment_of(fp) > 1),
        "some key is superseded in a later segment"
    );
    segments
}

/// Reads a pristine segment back, walking its frames.
fn read_segment(dir: &std::path::Path, name: String) -> Segment {
    let bytes = fs::read(dir.join(&name)).expect("read pristine segment");
    let mut frames = Vec::new();
    let mut offset = SEGMENT_HEADER_BYTES as usize;
    while offset < bytes.len() {
        let (record, consumed) = decode_record(&bytes[offset..]).expect("pristine frame");
        offset += consumed;
        frames.push((record.full_fp, record.cost, offset as u64));
    }
    Segment {
        name,
        bytes,
        frames,
    }
}

/// Opens a store over a directory holding exactly `files` and returns the
/// recovered `(fingerprint, version)`s in recovery order, with the length
/// each file has after recovery.
fn recover(case: u64, files: &[(String, Vec<u8>)]) -> (Vec<(u128, u64)>, Vec<u64>) {
    let dir = temp_dir(&format!("case-{case}"));
    fs::create_dir_all(&dir).expect("mkdir");
    for (name, bytes) in files {
        fs::write(dir.join(name), bytes).expect("write segment");
    }
    let (store, recovered) = Store::open(StoreConfig::at(&dir)).expect("recovery never errors");
    drop(store);
    let lens = files
        .iter()
        .map(|(name, _)| fs::metadata(dir.join(name)).expect("file kept").len())
        .collect();
    // Recovery must be idempotent: a second boot over the physically
    // truncated directory yields the same survivors.
    let (store, again) = Store::open(StoreConfig::at(&dir)).expect("re-open after recovery");
    let versions = |records: &[StoreRecord]| -> Vec<(u128, u64)> {
        records.iter().map(|r| (r.full_fp, r.cost)).collect()
    };
    assert_eq!(
        versions(&recovered),
        versions(&again),
        "case {case}: recovery is not idempotent across reboots"
    );
    drop(store);
    let _ = fs::remove_dir_all(&dir);
    (versions(&recovered), lens)
}

/// The frames of `segment` that survive when its first damaged byte is at
/// `damage`: every frame wholly before it, nothing after.
fn surviving(segment: &Segment, damage: u64) -> &[(u128, u64, u64)] {
    if damage < SEGMENT_HEADER_BYTES {
        return &[];
    }
    let kept = segment
        .frames
        .iter()
        .take_while(|&&(_, _, end)| end <= damage);
    &segment.frames[..kept.count()]
}

/// What `Store::open` must return when segment `damaged` is first damaged at
/// byte `damage` (`None`: no damage): each segment's surviving frames, in
/// sequence order, reduced to the newest version per fingerprint in the
/// order each fingerprint was first written.
fn expected(log: &[Segment], damaged: Option<(usize, u64)>) -> Vec<(u128, u64)> {
    let mut out: Vec<(u128, u64)> = Vec::new();
    for (i, segment) in log.iter().enumerate() {
        let frames = match damaged {
            Some((at, damage)) if at == i => surviving(segment, damage),
            _ => &segment.frames,
        };
        for &(fp, version, _) in frames {
            match out.iter_mut().find(|(seen, _)| *seen == fp) {
                Some(entry) => entry.1 = version,
                None => out.push((fp, version)),
            }
        }
    }
    out
}

/// The log's files with segment `damaged` replaced by `bytes`.
fn files_with(log: &[Segment], damaged: usize, bytes: Vec<u8>) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = log
        .iter()
        .map(|s| (s.name.clone(), s.bytes.clone()))
        .collect();
    files[damaged].1 = bytes;
    files
}

#[test]
fn any_prefix_truncation_recovers_the_maximal_valid_prefix() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA11C);
    let log = pristine_log(&mut rng);
    for case in 0..CASES {
        // A torn write cuts the segment it hit; the writer rolls on to a
        // fresh one, so every other segment is whole.
        let at = rng.gen_range(0..log.len());
        let segment = &log[at];
        let cut = rng.gen_range(0..=segment.bytes.len() as u64);
        let files = files_with(&log, at, segment.bytes[..cut as usize].to_vec());
        let (got, lens) = recover(case, &files);
        assert_eq!(
            got,
            expected(&log, Some((at, cut))),
            "case {case}: {} cut at byte {cut} of {} (frames {:?})",
            segment.name,
            segment.bytes.len(),
            segment.frames
        );
        let kept = surviving(segment, cut).last().map_or(0, |&(_, _, end)| end);
        let header_only = cut >= SEGMENT_HEADER_BYTES && kept == 0;
        let kept = if header_only {
            SEGMENT_HEADER_BYTES
        } else {
            kept
        };
        assert_eq!(lens[at], kept, "case {case}: the damage was truncated away");
    }
    // The boundary cuts, always: every segment emptied, and the whole log.
    for at in 0..log.len() {
        let (got, _) = recover(900 + at as u64, &files_with(&log, at, Vec::new()));
        assert_eq!(
            got,
            expected(&log, Some((at, 0))),
            "{} emptied",
            log[at].name
        );
    }
    let whole = files_with(&log, 0, log[0].bytes.clone());
    assert_eq!(
        recover(999, &whole).0,
        expected(&log, None),
        "an undamaged log recovers everything"
    );
}

#[test]
fn any_single_bit_flip_recovers_the_frames_before_the_damage() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB17F);
    let log = pristine_log(&mut rng);
    for case in 0..CASES {
        let at = rng.gen_range(0..log.len());
        let segment = &log[at];
        let byte = rng.gen_range(0..segment.bytes.len());
        let bit = rng.gen_range(0..8u32);
        let mut damaged = segment.bytes.clone();
        damaged[byte] ^= 1 << bit;
        // A flip inside the segment header drops the whole file; a flip
        // inside frame `i` invalidates frame `i` and truncates recovery
        // there — frames before it are untouched bytes and must survive,
        // and so must every other segment.
        let (got, _) = recover(1000 + case, &files_with(&log, at, damaged));
        assert_eq!(
            got,
            expected(&log, Some((at, byte as u64))),
            "case {case}: bit {bit} of byte {byte} of {} flipped (frames {:?})",
            segment.name,
            segment.frames
        );
    }
}

/// Compaction writes the live frames (the newest version of each key, in age
/// order) into a fresh segment after the old ones, syncs it, then deletes
/// the old segments.  A crash anywhere in the rewrite leaves the old log
/// whole beside a torn copy; a crash among the deletions leaves the whole
/// copy beside what is left of the old log.  Either way every key recovers
/// at its newest version, and the torn copy is cut to its clean prefix.
#[test]
fn a_compaction_interrupted_mid_rewrite_loses_nothing() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xC0AC);
    let log = pristine_log(&mut rng);
    let live = expected(&log, None);
    let mut rewrite = log[0].bytes[..SEGMENT_HEADER_BYTES as usize].to_vec();
    let mut ends = Vec::new();
    for segment in &log {
        let mut start = SEGMENT_HEADER_BYTES as usize;
        for &(fp, version, end) in &segment.frames {
            if live.contains(&(fp, version)) {
                rewrite.extend_from_slice(&segment.bytes[start..end as usize]);
                ends.push(rewrite.len() as u64);
            }
            start = end as usize;
        }
    }
    assert_eq!(ends.len(), live.len(), "one copy per live key");
    let next_seq: u64 = (log.last().unwrap().name)
        .trim_start_matches("seg-")
        .trim_end_matches(".log")
        .parse::<u64>()
        .unwrap()
        + 1;
    let copy_name = format!("seg-{next_seq:08}.log");
    let old: Vec<(String, Vec<u8>)> = log
        .iter()
        .map(|s| (s.name.clone(), s.bytes.clone()))
        .collect();
    let sorted = |mut v: Vec<(u128, u64)>| {
        v.sort_unstable();
        v
    };

    for case in 0..CASES {
        // Torn mid-rewrite: the old log, then a prefix of the copy.
        let cut = rng.gen_range(0..=rewrite.len());
        let mut files = old.clone();
        files.push((copy_name.clone(), rewrite[..cut].to_vec()));
        let (got, lens) = recover(2000 + case, &files);
        assert_eq!(got, live, "case {case}: rewrite torn at byte {cut}");
        let clean = ends
            .iter()
            .copied()
            .take_while(|&end| end <= cut as u64)
            .last();
        let clean = match clean {
            Some(end) => end,
            None if cut as u64 >= SEGMENT_HEADER_BYTES => SEGMENT_HEADER_BYTES,
            None => 0,
        };
        assert_eq!(
            lens[old.len()],
            clean,
            "case {case}: the torn copy is cut clean"
        );

        // Interrupted among the deletions: the whole copy, and whichever
        // old segments were not deleted yet.
        let kept: Vec<(String, Vec<u8>)> =
            old.iter().filter(|_| rng.gen_bool(0.5)).cloned().collect();
        let mut files = kept;
        files.push((copy_name.clone(), rewrite.clone()));
        let (got, _) = recover(3000 + case, &files);
        assert_eq!(
            sorted(got),
            sorted(live.clone()),
            "case {case}: deletions cut short"
        );
    }
}

/// Every segment file of `dir`, by name, with its bytes.
fn segment_files(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
        .expect("list segments")
        .map(|entry| entry.unwrap().path())
        .map(|path| {
            let name = path.file_name().unwrap().to_str().unwrap().to_string();
            (name, fs::read(&path).expect("read segment"))
        })
        .collect();
    files.sort();
    files
}

/// Offers `frames` in order to a fresh store at `dir` with disk budget
/// `budget`, `fail` armed from the start, and returns its counters.
fn write_log(
    dir: &std::path::Path,
    frames: &[(u128, Vec<u8>)],
    budget: u64,
    fail: FailPoint,
) -> StoreStats {
    let config = StoreConfig {
        segment_bytes: SEGMENT_BYTES,
        disk_budget_bytes: budget,
        ..StoreConfig::at(dir)
    };
    let (store, recovered) = Store::open(config).expect("open fresh store");
    assert!(recovered.is_empty());
    store.set_fail_point(fail);
    for (fp, frame) in frames {
        store.offer(*fp, frame.clone());
    }
    store.flush();
    store.counters().snapshot()
}

/// The real rewrite, failed by [`FailPoint::MidCompaction`] after each
/// number of copied frames: the compaction is all-or-nothing, so the disk
/// is byte for byte the log without it (no half-written new segment), and
/// a reopened store holds exactly the pre-compaction records.
#[test]
fn a_compaction_failing_after_any_frame_leaves_the_log_it_found() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xFA11);
    let frames: Vec<(u128, Vec<u8>)> = (0..WRITES as u64)
        .map(|version| {
            let fp = u128::from(rng.gen_range(1..=FINGERPRINTS));
            let mut frame = Vec::new();
            let payload = rng.gen_range(1..200);
            encode_record(&record(fp, version, payload), &mut frame).expect("encode");
            (fp, frame)
        })
        .collect();

    // The log no compaction touches, and a budget its last write is the
    // first to exceed.
    let dir = temp_dir("uncompacted");
    write_log(&dir, &frames[..WRITES - 1], u64::MAX, FailPoint::Disabled);
    let budget: u64 = segment_files(&dir)
        .iter()
        .map(|(_, b)| b.len() as u64)
        .sum();
    let _ = fs::remove_dir_all(&dir);
    let stats = write_log(&dir, &frames, u64::MAX, FailPoint::Disabled);
    assert_eq!(stats.compactions, 0);
    let untouched = segment_files(&dir);
    let _ = fs::remove_dir_all(&dir);
    let (live, _) = recover(4000, &untouched);
    assert!(live.len() >= 4, "{} live keys", live.len());
    let sorted = |mut v: Vec<(u128, u64)>| {
        v.sort_unstable();
        v
    };

    // Unfailed, that budget compacts once, on the last write, and keeps
    // every live key.
    let dir = temp_dir("compacted");
    let stats = write_log(&dir, &frames, budget, FailPoint::Disabled);
    assert_eq!((stats.compactions, stats.write_errors), (1, 0));
    let (got, _) = recover(4001, &segment_files(&dir));
    assert_eq!(sorted(got), sorted(live.clone()));
    assert_ne!(
        segment_files(&dir),
        untouched,
        "the compaction rewrote the log"
    );
    let _ = fs::remove_dir_all(&dir);

    for copied in 0..=live.len() {
        let dir = temp_dir(&format!("failed-after-{copied}"));
        let stats = write_log(&dir, &frames, budget, FailPoint::MidCompaction(copied));
        assert_eq!(
            (stats.compactions, stats.write_errors),
            (0, 1),
            "failed after {copied} frames: the fault tripped, no compaction counted"
        );
        assert!(
            segment_files(&dir) == untouched,
            "failed after {copied} frames: the disk is the log it found"
        );
        let (store, reopened) = Store::open(StoreConfig::at(&dir)).expect("reopen");
        let versions: Vec<(u128, u64)> = reopened.iter().map(|r| (r.full_fp, r.cost)).collect();
        assert_eq!(versions, live, "failed after {copied} frames: reopened");
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }
}
