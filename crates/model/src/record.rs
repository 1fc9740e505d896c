//! The on-disk record codec of the durable schedule store.
//!
//! `bsp_serve`'s store persists one checksummed, length-framed record per
//! cached schedule so a restarted shard can pre-warm its content-addressed
//! cache.  The codec lives here, next to [`crate::fingerprint`], because a
//! record is exactly the durable form of a fingerprinted request: the
//! [`crate::RequestKey`] lanes, the machine, the DAG payload (opaque bytes —
//! the serve layer uses the hyperDAG text format, which this crate must not
//! depend on), and the assignment.
//!
//! ## Frame layout
//!
//! ```text
//! [len: u32 LE] [checksum: u64 LE] [body: len bytes]
//! ```
//!
//! The checksum is 64-bit FNV-1a over the body ([`Fnv64::write_bytes`]).
//! The body is fixed little-endian fields:
//!
//! ```text
//! full_fp u128 · structure_fp u64 · cost u64
//! machine: kind u8 (0 uniform | 1 tree) · p u32 · g u64 · l u64 · delta u64
//! dag_len u32 · dag_bytes
//! n u32 · proc[n] u32 · superstep[n] u32
//! ```
//!
//! Decoding distinguishes the two failure classes recovery cares about:
//! [`RecordError::Truncated`] (the frame runs past the available bytes — a
//! torn tail after `kill -9`) and [`RecordError::ChecksumMismatch`] /
//! [`RecordError::Malformed`] (the bytes are there but wrong — corruption).
//! Either way the store truncates its scan at the offending record, so a
//! damaged frame can never surface as a served schedule.

use crate::fingerprint::Fnv64;
use crate::machine::Machine;
use crate::schedule::Assignment;
use std::fmt;

/// Frame overhead in bytes: the `u32` length header plus the `u64` checksum.
pub const FRAME_HEADER_BYTES: usize = 4 + 8;

/// Upper bound on one record body.  A length header larger than this is
/// treated as corruption even before the checksum runs — a bit flip in the
/// length field must not send the scanner astray.
pub const MAX_RECORD_BYTES: usize = 64 << 20;

/// The largest `P` a record may carry: the limit on every machine that
/// arrives from outside, checked by [`Machine::checked`].
pub use crate::machine::MAX_PROCESSORS;

/// One durable cache entry, ready to re-validate and re-insert.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreRecord {
    /// 128-bit full-content cache key ([`crate::RequestKey::full`]).
    pub full_fp: u128,
    /// 64-bit structural cache key ([`crate::RequestKey::structure`]).
    pub structure_fp: u64,
    /// The schedule's cost on its request, as served.
    pub cost: u64,
    /// The machine of the request (uniform or binary-tree NUMA; explicit
    /// matrices are not persisted — see [`encode_record`]).
    pub machine: Machine,
    /// The DAG payload, opaque to this codec (the serve layer stores the
    /// hyperDAG text form).
    pub dag_bytes: Vec<u8>,
    /// The cached schedule's assignment maps `π` and `τ`.
    pub assignment: Assignment,
}

/// Why a frame failed to encode or decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// The frame extends past the end of the available bytes: a torn write.
    /// Recovery truncates the segment here and keeps everything before it.
    Truncated,
    /// The frame is fully present but its checksum does not match: bit-level
    /// corruption (or a garbled length field).
    ChecksumMismatch,
    /// The checksum matched but the body does not parse as a record —
    /// version skew or an impossible field value.
    Malformed(String),
    /// The entry cannot be represented on disk (encode side only): explicit
    /// NUMA matrices have no wire form, mirroring the request protocol.
    Unsupported(String),
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Truncated => write!(f, "record frame is truncated"),
            RecordError::ChecksumMismatch => write!(f, "record checksum mismatch"),
            RecordError::Malformed(why) => write!(f, "malformed record: {why}"),
            RecordError::Unsupported(why) => write!(f, "unsupported record: {why}"),
        }
    }
}

impl std::error::Error for RecordError {}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends one framed record to `out`.  Fails only for entries with no
/// durable form ([`RecordError::Unsupported`]: an explicit `λ` matrix, or
/// more than [`MAX_PROCESSORS`] processors, which [`decode_record`] would
/// refuse) or an assignment whose maps disagree in length
/// ([`RecordError::Malformed`]); `out` is untouched on error.
pub fn encode_record(record: &StoreRecord, out: &mut Vec<u8>) -> Result<(), RecordError> {
    use crate::machine::NumaTopology;
    if record.machine.p() > MAX_PROCESSORS {
        return Err(RecordError::Unsupported(format!(
            "machine with {} processors (at most {MAX_PROCESSORS} are persisted)",
            record.machine.p()
        )));
    }
    let (kind, delta) = match record.machine.topology() {
        NumaTopology::Uniform => (0u8, 0u64),
        NumaTopology::BinaryTree { delta } => (1u8, *delta),
        NumaTopology::Explicit(_) => {
            return Err(RecordError::Unsupported(
                "explicit NUMA matrices are not persisted".into(),
            ))
        }
    };
    let n = record.assignment.proc.len();
    if record.assignment.superstep.len() != n {
        return Err(RecordError::Malformed(
            "assignment maps disagree in length".into(),
        ));
    }
    let mut body = Vec::with_capacity(64 + record.dag_bytes.len() + 8 * n);
    body.extend_from_slice(&record.full_fp.to_le_bytes());
    put_u64(&mut body, record.structure_fp);
    put_u64(&mut body, record.cost);
    body.push(kind);
    put_u32(&mut body, record.machine.p() as u32);
    put_u64(&mut body, record.machine.g());
    put_u64(&mut body, record.machine.latency());
    put_u64(&mut body, delta);
    put_u32(&mut body, record.dag_bytes.len() as u32);
    body.extend_from_slice(&record.dag_bytes);
    put_u32(&mut body, n as u32);
    for &p in &record.assignment.proc {
        put_u32(&mut body, u32::from(p));
    }
    for &s in &record.assignment.superstep {
        put_u32(&mut body, s);
    }
    if body.len() > MAX_RECORD_BYTES {
        return Err(RecordError::Unsupported(format!(
            "record body of {} bytes exceeds the {MAX_RECORD_BYTES}-byte cap",
            body.len()
        )));
    }
    let mut hasher = Fnv64::new();
    hasher.write_bytes(&body);
    put_u32(out, body.len() as u32);
    put_u64(out, hasher.finish());
    out.extend_from_slice(&body);
    Ok(())
}

/// A bounds-checked little-endian reader over a record body.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], RecordError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| RecordError::Malformed("body shorter than its fields".into()))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, RecordError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, RecordError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, RecordError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn u128(&mut self) -> Result<u128, RecordError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }
}

/// Decodes the frame at the start of `bytes`; returns the record and the
/// total frame length consumed.  [`RecordError::Truncated`] means the bytes
/// end mid-frame (keep everything before, drop the tail); any other error
/// means the frame is present but damaged.
pub fn decode_record(bytes: &[u8]) -> Result<(StoreRecord, usize), RecordError> {
    if bytes.len() < FRAME_HEADER_BYTES {
        return Err(RecordError::Truncated);
    }
    let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
    if len > MAX_RECORD_BYTES {
        return Err(RecordError::ChecksumMismatch);
    }
    let checksum = u64::from_le_bytes(bytes[4..12].try_into().unwrap());
    let total = FRAME_HEADER_BYTES + len;
    if bytes.len() < total {
        return Err(RecordError::Truncated);
    }
    let body = &bytes[FRAME_HEADER_BYTES..total];
    let mut hasher = Fnv64::new();
    hasher.write_bytes(body);
    if hasher.finish() != checksum {
        return Err(RecordError::ChecksumMismatch);
    }

    let mut cur = Cursor {
        bytes: body,
        pos: 0,
    };
    let full_fp = cur.u128()?;
    let structure_fp = cur.u64()?;
    let cost = cur.u64()?;
    let kind = cur.u8()?;
    let p = u64::from(cur.u32()?);
    let g = cur.u64()?;
    let l = cur.u64()?;
    let delta = cur.u64()?;
    let tree_delta = match kind {
        0 => None,
        1 => Some(delta),
        other => {
            return Err(RecordError::Malformed(format!(
                "unknown machine kind {other}"
            )))
        }
    };
    let machine = Machine::checked(p, g, l, tree_delta).map_err(RecordError::Malformed)?;
    let dag_len = cur.u32()? as usize;
    let dag_bytes = cur.take(dag_len)?.to_vec();
    let n = cur.u32()? as usize;
    // Two u32 maps of n entries each must fit in the remaining body.
    if body.len() - cur.pos < n.saturating_mul(8) {
        return Err(RecordError::Malformed(
            "assignment maps run past the body".into(),
        ));
    }
    // `π` is stored in `u32` (the layout predates 16-bit processors); an
    // entry no `Machine` can have is refused, never truncated.
    let mut proc = Vec::with_capacity(n);
    for _ in 0..n {
        let p = cur.u32()?;
        proc.push(
            u16::try_from(p)
                .map_err(|_| RecordError::Malformed(format!("processor {p} is past u16::MAX")))?,
        );
    }
    let mut superstep = Vec::with_capacity(n);
    for _ in 0..n {
        superstep.push(cur.u32()?);
    }
    if cur.pos != body.len() {
        return Err(RecordError::Malformed("trailing bytes in body".into()));
    }
    Ok((
        StoreRecord {
            full_fp,
            structure_fp,
            cost,
            machine,
            dag_bytes,
            assignment: Assignment { proc, superstep },
        },
        total,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(full: u128) -> StoreRecord {
        StoreRecord {
            full_fp: full,
            structure_fp: 0xfeed,
            cost: 42,
            machine: Machine::numa_binary_tree(4, 2, 5, 3),
            dag_bytes: b"%% hyperdag\n3 2 ...\n".to_vec(),
            assignment: Assignment {
                proc: vec![0, 1, 3],
                superstep: vec![0, 0, 1],
            },
        }
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let record = sample(0xdead_beef);
        let mut frame = Vec::new();
        encode_record(&record, &mut frame).unwrap();
        let (decoded, consumed) = decode_record(&frame).unwrap();
        assert_eq!(consumed, frame.len());
        assert_eq!(decoded, record);
        // Uniform machines roundtrip too.
        let record = StoreRecord {
            machine: Machine::uniform(3, 1, 7),
            ..record
        };
        let mut frame = Vec::new();
        encode_record(&record, &mut frame).unwrap();
        assert_eq!(decode_record(&frame).unwrap().0, record);
    }

    /// A frame written when the in-memory assignment was still `Vec<usize>`:
    /// stores from then must recover unchanged, and the same record must
    /// still encode to exactly these bytes.
    #[test]
    fn frames_written_by_the_usize_assignment_still_decode() {
        #[rustfmt::skip]
        const GOLDEN: [u8; 119] = [
            0x6b, 0x00, 0x00, 0x00, 0x1a, 0x94, 0xa1, 0x85, 0x0e, 0xc1, 0x83, 0xcc, 0x10, 0x32, 0x54, 0x76,
            0x98, 0xba, 0xdc, 0xfe, 0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01, 0x0d, 0xf0, 0xed, 0xfe,
            0x00, 0x00, 0x00, 0x00, 0xd2, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x04, 0x00, 0x00,
            0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0e, 0x00, 0x00, 0x00, 0x33, 0x20, 0x32,
            0x20, 0x32, 0x0a, 0x30, 0x20, 0x30, 0x0a, 0x31, 0x20, 0x31, 0x0a, 0x03, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02,
            0x00, 0x00, 0x00, 0x70, 0x11, 0x01, 0x00,
        ];
        let record = StoreRecord {
            full_fp: 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210,
            structure_fp: 0xfeed_f00d,
            cost: 1234,
            machine: Machine::numa_binary_tree(4, 2, 5, 3),
            dag_bytes: b"3 2 2\n0 0\n1 1\n".to_vec(),
            assignment: Assignment {
                proc: vec![0, 3, 1],
                superstep: vec![0, 2, 70_000],
            },
        };
        assert_eq!(decode_record(&GOLDEN), Ok((record.clone(), GOLDEN.len())));
        let mut frame = Vec::new();
        encode_record(&record, &mut frame).unwrap();
        assert_eq!(frame, GOLDEN);
    }

    #[test]
    fn frames_concatenate_and_decode_in_sequence() {
        let mut frames = Vec::new();
        for i in 0..5u128 {
            encode_record(&sample(i), &mut frames).unwrap();
        }
        let mut offset = 0;
        for i in 0..5u128 {
            let (decoded, consumed) = decode_record(&frames[offset..]).unwrap();
            assert_eq!(decoded.full_fp, i);
            offset += consumed;
        }
        assert_eq!(offset, frames.len());
        assert_eq!(
            decode_record(&frames[offset..]),
            Err(RecordError::Truncated)
        );
    }

    #[test]
    fn every_prefix_truncation_is_reported_as_truncated() {
        let mut frame = Vec::new();
        encode_record(&sample(7), &mut frame).unwrap();
        for cut in 0..frame.len() {
            assert_eq!(
                decode_record(&frame[..cut]),
                Err(RecordError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let mut frame = Vec::new();
        encode_record(&sample(7), &mut frame).unwrap();
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut damaged = frame.clone();
                damaged[byte] ^= 1 << bit;
                match decode_record(&damaged) {
                    // A flip in the length field may claim a longer frame.
                    Err(RecordError::Truncated) if byte < 4 => {}
                    Err(RecordError::ChecksumMismatch) => {}
                    other => panic!("flip at byte {byte} bit {bit} gave {other:?}"),
                }
            }
        }
    }

    #[test]
    fn machines_without_a_durable_form_are_refused_at_encode_time() {
        let explicit = Machine::with_numa_matrix(2, 1, 1, vec![vec![0, 5], vec![5, 0]]);
        // Over `MAX_PROCESSORS` the decoder would refuse the frame.
        for machine in [explicit, Machine::uniform(MAX_PROCESSORS + 1, 1, 1)] {
            let record = StoreRecord {
                machine,
                ..sample(1)
            };
            let mut frame = Vec::new();
            assert!(matches!(
                encode_record(&record, &mut frame),
                Err(RecordError::Unsupported(_))
            ));
            assert!(frame.is_empty(), "failed encode must not emit bytes");
        }
        let at_limit = StoreRecord {
            machine: Machine::uniform(MAX_PROCESSORS, 1, 1),
            ..sample(1)
        };
        let mut frame = Vec::new();
        encode_record(&at_limit, &mut frame).unwrap();
        assert_eq!(decode_record(&frame).unwrap().0, at_limit);
    }

    /// `π` is stored as `u32`: an entry past `u16::MAX` names a processor
    /// no machine has, and is refused, never read back truncated.
    #[test]
    fn a_processor_past_u16_is_malformed_not_truncated() {
        let mut record = sample(3);
        record.assignment.proc[1] = u16::MAX;
        let mut frame = Vec::new();
        encode_record(&record, &mut frame).unwrap();
        assert_eq!(decode_record(&frame).unwrap().0, record);
        // Body: fingerprints, cost, machine (61 bytes), the DAG with its
        // length, `n`, then `π`.
        let at = FRAME_HEADER_BYTES + 61 + 4 + record.dag_bytes.len() + 4 + 4;
        assert_eq!(frame[at..at + 4], u32::from(u16::MAX).to_le_bytes());
        for past in [1u32 << 16, u32::MAX] {
            frame[at..at + 4].copy_from_slice(&past.to_le_bytes());
            let mut hasher = Fnv64::new();
            hasher.write_bytes(&frame[FRAME_HEADER_BYTES..]);
            frame[4..12].copy_from_slice(&hasher.finish().to_le_bytes());
            match decode_record(&frame) {
                Err(RecordError::Malformed(why)) => assert!(why.contains("past u16"), "{why}"),
                other => panic!("π entry {past}: expected a malformed record, got {other:?}"),
            }
        }
    }

    #[test]
    fn checksum_valid_but_nonsense_bodies_are_malformed() {
        // Hand-build a frame whose body is too short for its fields.
        let body = vec![0u8; 8];
        let mut hasher = Fnv64::new();
        hasher.write_bytes(&body);
        let mut frame = Vec::new();
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(&hasher.finish().to_le_bytes());
        frame.extend_from_slice(&body);
        assert!(matches!(
            decode_record(&frame),
            Err(RecordError::Malformed(_))
        ));
    }
}
