//! Randomized corruption recovery: for *any* prefix truncation or single-bit
//! flip of a segment file, [`Store::open`] recovers exactly the maximal
//! checksum-valid prefix of frames, and never an entry past the damage.
//!
//! This is the property the torn-write design rests on: a crash can garble
//! at most the tail of the active segment, and recovery = "keep the longest
//! clean prefix".  The seeded cases below sweep damage positions across the
//! whole file — segment header, frame length headers, checksums, bodies,
//! frame boundaries — rather than hand-picking a few offsets.

use bsp_model::record::{encode_record, StoreRecord};
use bsp_model::{Assignment, Machine};
use bsp_serve::store::SEGMENT_HEADER_BYTES;
use bsp_serve::{Store, StoreConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fs;
use std::path::PathBuf;

const CASES: u64 = 48;
const RECORDS: usize = 6;

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

fn record(fp: u128, payload: usize) -> StoreRecord {
    StoreRecord {
        full_fp: fp,
        structure_fp: (fp as u64).wrapping_mul(3),
        cost: 9,
        machine: Machine::uniform(2, 1, 1),
        dag_bytes: vec![(fp as u8).wrapping_add(7); payload],
        assignment: Assignment {
            proc: vec![0, 1],
            superstep: vec![0, 0],
        },
    }
}

/// Writes `RECORDS` distinct-fingerprint frames into a fresh store and
/// returns the pristine segment bytes plus each frame's *end* offset within
/// the file (absolute, segment header included).
fn pristine_segment(rng: &mut ChaCha8Rng) -> (Vec<u8>, Vec<u64>) {
    let dir = temp_dir("pristine");
    let mut ends = Vec::new();
    let mut offset = SEGMENT_HEADER_BYTES;
    {
        let (store, recovered) = Store::open(StoreConfig::at(&dir)).expect("open fresh store");
        assert!(recovered.is_empty());
        for i in 0..RECORDS {
            let payload = rng.gen_range(1..200);
            let mut frame = Vec::new();
            encode_record(&record(i as u128 + 1, payload), &mut frame).expect("encode");
            offset += frame.len() as u64;
            ends.push(offset);
            store.offer(i as u128 + 1, frame);
        }
        store.flush();
    }
    // The first boot's active segment is seg 0; read it back raw.
    let bytes = fs::read(dir.join("seg-00000000.log")).expect("read pristine segment");
    assert_eq!(bytes.len() as u64, *ends.last().unwrap());
    let _ = fs::remove_dir_all(&dir);
    (bytes, ends)
}

/// Opens a store over a directory holding exactly `bytes` as segment 0 and
/// returns the recovered fingerprints in recovery order.
fn recover(case: u64, bytes: &[u8]) -> Vec<u128> {
    let dir = temp_dir(&format!("case-{case}"));
    fs::create_dir_all(&dir).expect("mkdir");
    fs::write(dir.join("seg-00000000.log"), bytes).expect("write damaged segment");
    let (store, recovered) = Store::open(StoreConfig::at(&dir)).expect("recovery never errors");
    drop(store);
    // Recovery must be idempotent: a second boot over the physically
    // truncated directory yields the same survivors.
    let (store, again) = Store::open(StoreConfig::at(&dir)).expect("re-open after recovery");
    let fps: Vec<u128> = recovered.iter().map(|r| r.full_fp).collect();
    let fps_again: Vec<u128> = again.iter().map(|r| r.full_fp).collect();
    assert_eq!(
        fps, fps_again,
        "case {case}: recovery is not idempotent across reboots"
    );
    drop(store);
    let _ = fs::remove_dir_all(&dir);
    fps
}

/// The fingerprints recovery must yield when the first damaged byte is at
/// `damage`: every frame wholly before it, nothing after.
fn expected_prefix(ends: &[u64], damage: u64) -> Vec<u128> {
    if damage < SEGMENT_HEADER_BYTES {
        return Vec::new();
    }
    ends.iter()
        .enumerate()
        .take_while(|(_, &end)| end <= damage)
        .map(|(i, _)| i as u128 + 1)
        .collect()
}

#[test]
fn any_prefix_truncation_recovers_the_maximal_valid_prefix() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA11C);
    let (bytes, ends) = pristine_segment(&mut rng);
    for case in 0..CASES {
        let cut = rng.gen_range(0..=bytes.len() as u64);
        let expected = expected_prefix(&ends, cut);
        let got = recover(case, &bytes[..cut as usize]);
        assert_eq!(
            got,
            expected,
            "case {case}: truncation at byte {cut} of {} (frame ends {ends:?})",
            bytes.len()
        );
    }
    // The two boundary cuts, always.
    assert!(recover(900, &[]).is_empty(), "empty file recovers nothing");
    assert_eq!(
        recover(901, &bytes),
        expected_prefix(&ends, bytes.len() as u64),
        "undamaged file recovers everything"
    );
}

#[test]
fn any_single_bit_flip_recovers_the_frames_before_the_damage() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB17F);
    let (bytes, ends) = pristine_segment(&mut rng);
    for case in 0..CASES {
        let byte = rng.gen_range(0..bytes.len());
        let bit = rng.gen_range(0..8u32);
        let mut damaged = bytes.clone();
        damaged[byte] ^= 1 << bit;
        // A flip inside the segment header drops the whole file; a flip
        // inside frame `i` invalidates frame `i` and truncates recovery
        // there — frames before it are untouched bytes and must survive.
        let expected = expected_prefix(&ends, byte as u64);
        let got = recover(1000 + case, &damaged);
        assert_eq!(
            got, expected,
            "case {case}: bit {bit} of byte {byte} flipped (frame ends {ends:?})"
        );
    }
}
