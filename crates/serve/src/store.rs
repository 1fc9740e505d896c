//! The durable tier under the schedule cache: a per-shard, append-only,
//! content-addressed store of `(request, schedule)` records in checksummed
//! segment files.
//!
//! ## Design
//!
//! * **Append-only segments.**  Records ([`bsp_model::record`]) are framed
//!   with a length header and an FNV-64 checksum and appended to
//!   `seg-<seq>.log` files; nothing is ever mutated in place.  A segment
//!   rolls when it reaches [`StoreConfig::segment_bytes`].
//! * **Asynchronous write-through.**  [`Store::offer`] hands the encoded
//!   frame to a dedicated writer thread over a *bounded* channel and never
//!   blocks: when the queue is full the write is dropped (and counted in
//!   [`StoreCounters::write_errors`]) rather than stalling a response
//!   worker on disk I/O.  Durability is best-effort per entry; correctness
//!   never depends on it.
//! * **Crash recovery, one frame at a time.**  [`Store::open_with`] scans
//!   every segment in sequence order, frame by frame through a
//!   `BufReader`, verifies each frame's checksum, **truncates the segment at
//!   the first torn or corrupt record**, and hands each surviving record to
//!   a callback in write order — the service re-validates it, adopts it
//!   into the cache and drops it, so a boot holds one frame, not the
//!   store.  A later version of a fingerprint comes after the earlier one,
//!   so "newest version wins" is "last one adopted".  [`Store::open`]
//!   collects the same scan (newest version per fingerprint).  A damaged
//!   tail is physically truncated so it is not re-counted on the next boot
//!   — and can never surface as a served schedule.
//! * **Disk budget.**  The cache's LRU byte budget governs RAM only;
//!   evictions keep the on-disk copy.  When the segment files exceed
//!   [`StoreConfig::disk_budget_bytes`], the writer compacts: live entries
//!   are rewritten newest-first into fresh segments (oldest entries beyond
//!   the budget are dropped), superseded and torn frames disappear, and the
//!   old segments are deleted.
//! * **Fault injection.**  A test-only [`FailPoint`] trips the next append
//!   mid-write ([`FailPoint::AfterBytes`]) or between the flush and the
//!   index update ([`FailPoint::BeforeIndexUpdate`]), or the next
//!   compaction's rewrite after some frames ([`FailPoint::MidCompaction`]),
//!   so the recovery guarantees are tested properties, not design
//!   intentions.  The hooks
//!   are always compiled (integration tests and the kill harness need
//!   them) but inert unless armed.

use crate::metrics::StoreCounters;
use bsp_model::record::{decode_record, StoreRecord, FRAME_HEADER_BYTES, MAX_RECORD_BYTES};
use std::collections::{hash_map, BTreeMap, HashMap};
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, Read, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Magic + version prefix of every segment file.
const SEGMENT_MAGIC: &[u8; 8] = b"BSPSTOR1";
/// Bytes of the segment header (the 8-byte magic plus a `u32` version).
pub const SEGMENT_HEADER_BYTES: u64 = 12;
const SEGMENT_VERSION: u32 = 1;

/// Configuration of a shard's durable store.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding the segment files (created if missing).  One store
    /// per directory.
    pub dir: PathBuf,
    /// Total segment-file byte budget; exceeding it triggers compaction.
    pub disk_budget_bytes: u64,
    /// Roll the active segment when it reaches this size.
    pub segment_bytes: u64,
    /// Bound of the writer channel; a full queue drops the write instead of
    /// blocking the response worker.
    pub queue_depth: usize,
}

impl StoreConfig {
    /// A store rooted at `dir` with default budgets (128 MB on disk, 8 MB
    /// segments, a 256-entry writer queue).
    pub fn at<P: Into<PathBuf>>(dir: P) -> StoreConfig {
        StoreConfig {
            dir: dir.into(),
            disk_budget_bytes: 128 << 20,
            segment_bytes: 8 << 20,
            queue_depth: 256,
        }
    }
}

/// A test-only fault injected into the writer.  One-shot: the armed fault
/// trips on the next append (or, for [`FailPoint::MidCompaction`], the next
/// compaction) and disarms itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailPoint {
    /// No fault (the production state).
    #[default]
    Disabled,
    /// Write only the first `N` bytes of the next frame, flush, then fail —
    /// a torn write, exactly what `kill -9` mid-`write` leaves behind.
    AfterBytes(usize),
    /// Write and flush the whole frame, then fail before the in-memory
    /// index records it — the entry is durable but invisible to compaction,
    /// the crash window between flush and index update.
    BeforeIndexUpdate,
    /// Fail the next compaction's rewrite, as an I/O error would, once it
    /// has copied `N` frames into the new segments (after the last frame
    /// when `N` is the number it keeps).  Appends pass it by.
    MidCompaction(usize),
}

enum Job {
    Append { full_fp: u128, frame: Vec<u8> },
    Barrier(mpsc::Sender<()>),
}

/// Handle to a shard's durable store: an `offer`-only front backed by the
/// writer thread.  Dropping the handle drains the queue and joins the
/// writer (remaining queued appends are written out).
#[derive(Debug)]
pub struct Store {
    tx: Option<SyncSender<Job>>,
    writer: Option<JoinHandle<()>>,
    counters: Arc<StoreCounters>,
    fail: Arc<Mutex<FailPoint>>,
}

/// Where a live record lives on disk (for compaction).
#[derive(Debug, Clone, Copy)]
struct LiveRef {
    seq: u64,
    offset: u64,
    len: u64,
}

impl Store {
    /// Opens (or creates) the store at `config.dir`, runs crash recovery on
    /// every segment, and returns the handle plus the recovered entries —
    /// newest version per full fingerprint, in the order each fingerprint
    /// was first written.  It holds every entry at once; a server's boot
    /// calls [`Store::open_with`], which does not.
    pub fn open(config: StoreConfig) -> io::Result<(Store, Vec<StoreRecord>)> {
        let mut at: HashMap<u128, usize> = HashMap::new();
        let mut entries: Vec<StoreRecord> = Vec::new();
        let store = Store::open_with(config, |record| match at.entry(record.full_fp) {
            hash_map::Entry::Occupied(seen) => entries[*seen.get()] = record,
            hash_map::Entry::Vacant(new) => {
                new.insert(entries.len());
                entries.push(record);
            }
        })?;
        Ok((store, entries))
    }

    /// Opens (or creates) the store at `config.dir`, runs crash recovery on
    /// every segment, and hands each record that survives it to `recovered`,
    /// in write order (every version of a fingerprint, the newest last),
    /// for the caller to re-validate, keep what it needs of, and drop.  The
    /// scan holds one frame at a time.
    pub fn open_with(
        config: StoreConfig,
        mut recovered: impl FnMut(StoreRecord),
    ) -> io::Result<Store> {
        let counters = Arc::new(StoreCounters::default());
        fs::create_dir_all(&config.dir)?;
        let mut segments: Vec<(u64, PathBuf)> = Vec::new();
        for entry in fs::read_dir(&config.dir)? {
            let entry = entry?;
            if let Some(seq) = segment_seq(&entry.path()) {
                segments.push((seq, entry.path()));
            }
        }
        segments.sort_by_key(|&(seq, _)| seq);

        // Scan in sequence order; within a segment, frames are in write
        // order, so the newest location of a fingerprint is the last seen.
        let mut index: HashMap<u128, LiveRef> = HashMap::new();
        let mut total_bytes = 0u64;
        for &(seq, ref path) in &segments {
            total_bytes += scan_segment(path, seq, &counters, &mut index, &mut recovered)?;
        }

        // A fresh active segment per boot: recovery never appends to an old
        // file, so a boot right after a torn write cannot interleave with
        // the damage it just truncated.
        let next_seq = segments.last().map_or(0, |&(seq, _)| seq + 1);
        let (active, active_len) = create_segment(&config.dir, next_seq)?;
        total_bytes += active_len;

        let fail = Arc::new(Mutex::new(FailPoint::Disabled));
        let (tx, rx) = mpsc::sync_channel(config.queue_depth.max(1));
        let mut writer = Writer {
            config,
            counters: Arc::clone(&counters),
            fail: Arc::clone(&fail),
            active,
            active_seq: next_seq,
            active_len,
            next_seq: next_seq + 1,
            index,
            total_bytes,
        };
        let handle = std::thread::Builder::new()
            .name("bsp-store-writer".into())
            .spawn(move || writer.run(&rx))?;
        Ok(Store {
            tx: Some(tx),
            writer: Some(handle),
            counters,
            fail,
        })
    }

    /// Hands one encoded frame to the writer.  Never blocks: a full queue
    /// (or a gone writer) drops the write and counts a `write_error`.
    pub fn offer(&self, full_fp: u128, frame: Vec<u8>) {
        let Some(tx) = &self.tx else { return };
        match tx.try_send(Job::Append { full_fp, frame }) {
            Ok(()) => {}
            Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => {
                self.counters.write_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Blocks until every append offered before this call has been written
    /// and fsynced (or failed).  Control-plane only — tests and graceful
    /// shutdown; the response path never calls this.
    pub fn flush(&self) {
        let Some(tx) = &self.tx else { return };
        let (ack_tx, ack_rx) = mpsc::channel();
        if tx.send(Job::Barrier(ack_tx)).is_ok() {
            let _ = ack_rx.recv();
        }
    }

    /// Arms the one-shot write-path fault (test-only; see [`FailPoint`]).
    pub fn set_fail_point(&self, point: FailPoint) {
        *self.fail.lock().unwrap_or_else(|e| e.into_inner()) = point;
    }

    /// The store's live counters (rendered by the service's `METRICS`).
    pub fn counters(&self) -> &Arc<StoreCounters> {
        &self.counters
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        drop(self.tx.take()); // closes the channel; the writer drains and exits
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
    }
}

/// `seg-<seq>.log` → `seq`.
fn segment_seq(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let digits = name.strip_prefix("seg-")?.strip_suffix(".log")?;
    digits.parse().ok()
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("seg-{seq:08}.log"))
}

/// Creates a fresh segment with its header written and synced; returns the
/// file (positioned at the end) and its current length.
fn create_segment(dir: &Path, seq: u64) -> io::Result<(File, u64)> {
    let mut file = OpenOptions::new()
        .create_new(true)
        .append(true)
        .read(true)
        .open(segment_path(dir, seq))?;
    file.write_all(SEGMENT_MAGIC)?;
    file.write_all(&SEGMENT_VERSION.to_le_bytes())?;
    file.sync_data()?;
    Ok((file, SEGMENT_HEADER_BYTES))
}

/// Recovers one segment, frame by frame: verifies the header and every
/// frame checksum, physically truncates the file at the first torn or
/// corrupt record, hands each survivor to `recovered`, and returns the
/// number of valid bytes kept.
fn scan_segment(
    path: &Path,
    seq: u64,
    counters: &StoreCounters,
    index: &mut HashMap<u128, LiveRef>,
    recovered: &mut impl FnMut(StoreRecord),
) -> io::Result<u64> {
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut reader = BufReader::new(file);
    let mut header = [0u8; SEGMENT_HEADER_BYTES as usize];
    let header_ok = file_len >= SEGMENT_HEADER_BYTES
        && reader.read_exact(&mut header).is_ok()
        && &header[..8] == SEGMENT_MAGIC
        && header[8..] == SEGMENT_VERSION.to_le_bytes();
    if !header_ok {
        // The whole file is unusable; truncate it to nothing so the damage
        // is not re-reported every boot.
        counters.dropped_corrupt.fetch_add(1, Ordering::Relaxed);
        OpenOptions::new().write(true).open(path)?.set_len(0)?;
        return Ok(0);
    }
    let mut offset = SEGMENT_HEADER_BYTES;
    let mut frame = Vec::new();
    while offset < file_len {
        let whole = next_frame(&mut reader, file_len - offset, &mut frame)?;
        let decoded = if whole {
            decode_record(&frame).ok()
        } else {
            None
        };
        let Some((record, consumed)) = decoded else {
            // Torn tail or corruption: keep the checksum-valid prefix,
            // drop everything from here on.
            counters.dropped_corrupt.fetch_add(1, Ordering::Relaxed);
            OpenOptions::new().write(true).open(path)?.set_len(offset)?;
            break;
        };
        let len = consumed as u64;
        index.insert(record.full_fp, LiveRef { seq, offset, len });
        counters.recovered_bytes.fetch_add(len, Ordering::Relaxed);
        offset += len;
        recovered(record);
    }
    Ok(offset)
}

/// Reads the frame at `reader`'s position into `frame`, header included, or
/// returns `false` when the `remaining` bytes of the segment cannot hold it:
/// fewer than a frame header, or fewer than the header declares (a torn
/// tail), or a length no record has (a garbled header).  `frame` never
/// grows past the bytes the file holds.
fn next_frame(reader: &mut impl Read, remaining: u64, frame: &mut Vec<u8>) -> io::Result<bool> {
    if remaining < FRAME_HEADER_BYTES as u64 {
        return Ok(false);
    }
    frame.resize(FRAME_HEADER_BYTES, 0);
    reader.read_exact(frame)?;
    let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
    if len > MAX_RECORD_BYTES || (FRAME_HEADER_BYTES + len) as u64 > remaining {
        return Ok(false);
    }
    frame.resize(FRAME_HEADER_BYTES + len, 0);
    reader.read_exact(&mut frame[FRAME_HEADER_BYTES..])?;
    Ok(true)
}

/// The writer thread's whole state; single-threaded by construction.
struct Writer {
    config: StoreConfig,
    counters: Arc<StoreCounters>,
    fail: Arc<Mutex<FailPoint>>,
    active: File,
    active_seq: u64,
    /// Bytes written to the active segment (header included).
    active_len: u64,
    next_seq: u64,
    /// Newest on-disk location per full fingerprint.
    index: HashMap<u128, LiveRef>,
    /// Total bytes across all segment files (live + superseded + headers).
    total_bytes: u64,
}

impl Writer {
    fn run(&mut self, rx: &Receiver<Job>) {
        while let Ok(job) = rx.recv() {
            match job {
                Job::Append { full_fp, frame } => self.append(full_fp, &frame),
                Job::Barrier(ack) => {
                    let _ = self.active.sync_data();
                    let _ = ack.send(());
                }
            }
        }
        let _ = self.active.sync_data();
    }

    fn append(&mut self, full_fp: u128, frame: &[u8]) {
        if self.active_len > SEGMENT_HEADER_BYTES
            && self.active_len + frame.len() as u64 > self.config.segment_bytes
        {
            self.roll();
        }
        match self.take_fail(|armed| !matches!(armed, FailPoint::MidCompaction(_))) {
            FailPoint::AfterBytes(n) if n < frame.len() => {
                // A torn write: part of the frame reaches the disk, then the
                // "crash".  The tail of this segment is now unreadable, so
                // later appends go to a fresh segment — recovery truncates
                // the torn frame without losing anything written after it.
                let wrote = self.active.write_all(&frame[..n]).is_ok();
                let _ = self.active.sync_data();
                if wrote {
                    self.active_len += n as u64;
                    self.total_bytes += n as u64;
                }
                self.counters.write_errors.fetch_add(1, Ordering::Relaxed);
                self.roll();
                return;
            }
            FailPoint::AfterBytes(_) | FailPoint::BeforeIndexUpdate => {
                // The frame is fully written and flushed (durable — recovery
                // will find it), but the fault fires before the index
                // records it, so compaction would not preserve it.
                if self.write_frame(frame) {
                    self.counters.appended.fetch_add(1, Ordering::Relaxed);
                }
                self.counters.write_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
            FailPoint::Disabled | FailPoint::MidCompaction(_) => {}
        }
        if self.write_frame(frame) {
            self.counters.appended.fetch_add(1, Ordering::Relaxed);
            self.index.insert(
                full_fp,
                LiveRef {
                    seq: self.active_seq,
                    offset: self.active_len - frame.len() as u64,
                    len: frame.len() as u64,
                },
            );
            if self.total_bytes > self.config.disk_budget_bytes {
                self.compact();
            }
        } else {
            // The segment may hold a partial frame now; isolate it exactly
            // like an injected torn write.
            self.counters.write_errors.fetch_add(1, Ordering::Relaxed);
            self.roll();
        }
    }

    /// Disarms and returns the armed fault if it `trips` this path, else
    /// [`FailPoint::Disabled`] (leaving it armed).
    fn take_fail(&self, trips: impl Fn(FailPoint) -> bool) -> FailPoint {
        let mut guard = self.fail.lock().unwrap_or_else(|e| e.into_inner());
        if trips(*guard) {
            std::mem::take(&mut *guard)
        } else {
            FailPoint::Disabled
        }
    }

    /// Appends and flushes one frame to the active segment, maintaining the
    /// byte accounting.  Returns whether the full frame reached the file.
    fn write_frame(&mut self, frame: &[u8]) -> bool {
        match self.active.write_all(frame) {
            Ok(()) => {
                let _ = self.active.flush();
                self.active_len += frame.len() as u64;
                self.total_bytes += frame.len() as u64;
                true
            }
            Err(_) => false,
        }
    }

    /// Starts a fresh active segment (fsyncing the old one).  On failure the
    /// old segment stays active — later appends will keep reporting errors.
    fn roll(&mut self) {
        let _ = self.active.sync_data();
        let seq = self.next_seq;
        // Burn the sequence number either way: a half-created segment file
        // must not make every later roll collide with it.
        self.next_seq += 1;
        match create_segment(&self.config.dir, seq) {
            Ok((file, len)) => {
                self.active = file;
                self.active_seq = seq;
                self.active_len = len;
                self.total_bytes += len;
            }
            Err(_) => {
                self.counters.write_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Rewrites the live entries (newest first, oldest dropped beyond the
    /// disk budget) into fresh segments and deletes every old one.  On any
    /// I/O failure the old segments are kept and the half-written new ones
    /// removed — compaction is all-or-nothing.
    fn compact(&mut self) {
        let mut live: Vec<(u128, LiveRef)> = self.index.iter().map(|(&fp, &r)| (fp, r)).collect();
        live.sort_by_key(|&(_, r)| (r.seq, r.offset));
        // Keep newest-first while under budget; always keep at least the
        // newest entry so a single oversized record cannot empty the store.
        let mut kept_bytes = 0u64;
        let mut first_kept = live.len();
        for i in (0..live.len()).rev() {
            let len = live[i].1.len;
            if first_kept < live.len() && kept_bytes + len > self.config.disk_budget_bytes {
                break;
            }
            kept_bytes += len;
            first_kept = i;
        }
        let kept = &live[first_kept..];

        let mut new_seqs: Vec<u64> = Vec::new();
        match self.rewrite(kept, &mut new_seqs) {
            Ok(state) => {
                // The new segments are synced; every older file (live,
                // superseded, or torn) can go.
                if let Ok(dir) = fs::read_dir(&self.config.dir) {
                    for entry in dir.flatten() {
                        if let Some(seq) = segment_seq(&entry.path()) {
                            if seq < state.first_seq {
                                let _ = fs::remove_file(entry.path());
                            }
                        }
                    }
                }
                self.index = state.index;
                self.active = state.active;
                self.active_seq = state.active_seq;
                self.active_len = state.active_len;
                self.total_bytes = state.total_bytes;
                self.counters.compactions.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                // All-or-nothing: drop the half-written new segments, keep
                // the old ones (and the old index) untouched.
                for seq in new_seqs {
                    let _ = fs::remove_file(segment_path(&self.config.dir, seq));
                }
                self.counters.write_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Copies `kept` frames (in age order) into fresh segments, recording
    /// each created sequence number in `new_seqs` so a failure can be
    /// cleaned up by the caller.
    fn rewrite(
        &mut self,
        kept: &[(u128, LiveRef)],
        new_seqs: &mut Vec<u64>,
    ) -> io::Result<NewState> {
        let trip_after = match self.take_fail(|armed| matches!(armed, FailPoint::MidCompaction(_)))
        {
            FailPoint::MidCompaction(frames) => Some(frames),
            _ => None,
        };
        let trip = |copied: usize| match trip_after {
            Some(frames) if frames == copied => Err(io::Error::other("injected compaction fault")),
            _ => Ok(()),
        };
        let mut sources: BTreeMap<u64, File> = BTreeMap::new();
        let first_seq = self.next_seq;
        self.next_seq += 1;
        let (mut file, mut len) = create_segment(&self.config.dir, first_seq)?;
        new_seqs.push(first_seq);
        let mut index = HashMap::new();
        let mut total = len;
        let mut active_seq = first_seq;
        let mut buf = Vec::new();
        for (copied, &(fp, r)) in kept.iter().enumerate() {
            trip(copied)?;
            if len > SEGMENT_HEADER_BYTES && len + r.len > self.config.segment_bytes {
                file.sync_data()?;
                let seq = self.next_seq;
                self.next_seq += 1;
                let (f, l) = create_segment(&self.config.dir, seq)?;
                new_seqs.push(seq);
                file = f;
                len = l;
                total += l;
                active_seq = seq;
            }
            let src = match sources.entry(r.seq) {
                std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(File::open(segment_path(&self.config.dir, r.seq))?)
                }
            };
            buf.resize(r.len as usize, 0);
            src.seek(SeekFrom::Start(r.offset))?;
            src.read_exact(&mut buf)?;
            // Paranoia: re-verify the frame before copying; silent disk rot
            // must not be rewritten as a live entry.
            if !frame_checksum_ok(&buf) {
                self.counters
                    .dropped_corrupt
                    .fetch_add(1, Ordering::Relaxed);
                continue;
            }
            file.write_all(&buf)?;
            index.insert(
                fp,
                LiveRef {
                    seq: active_seq,
                    offset: len,
                    len: r.len,
                },
            );
            len += r.len;
            total += r.len;
        }
        trip(kept.len())?;
        file.sync_data()?;
        Ok(NewState {
            index,
            active: file,
            active_seq,
            active_len: len,
            total_bytes: total,
            first_seq,
        })
    }
}

/// The writer state produced by a successful compaction rewrite.
struct NewState {
    index: HashMap<u128, LiveRef>,
    active: File,
    active_seq: u64,
    active_len: u64,
    total_bytes: u64,
    /// The first new sequence number: every segment below it is obsolete.
    first_seq: u64,
}

/// Verifies a complete frame's length header and checksum without decoding
/// the body.
fn frame_checksum_ok(frame: &[u8]) -> bool {
    if frame.len() < FRAME_HEADER_BYTES {
        return false;
    }
    let len = u32::from_le_bytes(frame[0..4].try_into().unwrap()) as usize;
    if frame.len() != FRAME_HEADER_BYTES + len {
        return false;
    }
    let checksum = u64::from_le_bytes(frame[4..12].try_into().unwrap());
    let mut hasher = bsp_model::Fnv64::new();
    hasher.write_bytes(&frame[FRAME_HEADER_BYTES..]);
    hasher.finish() == checksum
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsp_model::record::{encode_record, StoreRecord};
    use bsp_model::{Assignment, Machine};

    /// A fresh, empty temp directory unique to `name` within this process.
    fn temp_store_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bsp-store-unit-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn record(fp: u128, payload: usize) -> StoreRecord {
        StoreRecord {
            full_fp: fp,
            structure_fp: (fp as u64).wrapping_mul(3),
            cost: 9,
            machine: Machine::uniform(2, 1, 1),
            dag_bytes: vec![b'x'; payload],
            assignment: Assignment {
                proc: vec![0, 1],
                superstep: vec![0, 0],
            },
        }
    }

    fn frame(fp: u128, payload: usize) -> Vec<u8> {
        let mut out = Vec::new();
        encode_record(&record(fp, payload), &mut out).unwrap();
        out
    }

    #[test]
    fn offered_entries_survive_a_close_and_reopen() {
        let dir = temp_store_dir("reopen");
        {
            let (store, entries) = Store::open(StoreConfig::at(&dir)).unwrap();
            assert!(entries.is_empty());
            for fp in 0..5u128 {
                store.offer(fp, frame(fp, 16));
            }
            store.flush();
            assert_eq!(store.counters().snapshot().appended, 5);
        } // drop drains and joins the writer
        let (store, entries) = Store::open(StoreConfig::at(&dir)).unwrap();
        let fps: Vec<u128> = entries.iter().map(|r| r.full_fp).collect();
        assert_eq!(fps, vec![0, 1, 2, 3, 4]);
        assert_eq!(entries[3], record(3, 16));
        let snap = store.counters().snapshot();
        assert_eq!(snap.dropped_corrupt, 0);
        assert!(snap.recovered_bytes > 0);
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_newest_version_of_a_fingerprint_wins() {
        let dir = temp_store_dir("supersede");
        {
            let (store, _) = Store::open(StoreConfig::at(&dir)).unwrap();
            store.offer(7, frame(7, 10));
            store.offer(8, frame(8, 10));
            store.offer(7, frame(7, 99)); // supersedes the first write
            store.flush();
        }
        let (_store, entries) = Store::open(StoreConfig::at(&dir)).unwrap();
        assert_eq!(entries.len(), 2);
        let seven = entries.iter().find(|r| r.full_fp == 7).unwrap();
        assert_eq!(seven.dag_bytes.len(), 99);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segments_roll_and_all_are_recovered() {
        let dir = temp_store_dir("roll");
        let config = StoreConfig {
            segment_bytes: 256, // a few frames per segment
            ..StoreConfig::at(&dir)
        };
        {
            let (store, _) = Store::open(config.clone()).unwrap();
            for fp in 0..20u128 {
                store.offer(fp, frame(fp, 32));
            }
            store.flush();
        }
        let segment_files = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| segment_seq(&e.as_ref().unwrap().path()).is_some())
            .count();
        assert!(segment_files > 2, "writes must have rolled segments");
        let (_store, entries) = Store::open(config).unwrap();
        assert_eq!(entries.len(), 20);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn exceeding_the_disk_budget_compacts_away_superseded_frames() {
        let dir = temp_store_dir("compact");
        let one_frame = frame(0, 32).len() as u64;
        let config = StoreConfig {
            segment_bytes: one_frame * 4,
            disk_budget_bytes: one_frame * 8,
            ..StoreConfig::at(&dir)
        };
        {
            let (store, _) = Store::open(config.clone()).unwrap();
            // Rewrite the same 3 fingerprints over and over: the live set
            // stays small, the superseded bytes grow past the budget.
            for round in 0..20u128 {
                for fp in 0..3u128 {
                    store.offer(fp, frame(fp, 32 + (round as usize % 2)));
                }
            }
            store.flush();
            let snap = store.counters().snapshot();
            assert!(snap.compactions >= 1, "budget overflow must compact");
            assert_eq!(snap.write_errors, 0);
        }
        let disk: u64 = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().metadata().unwrap().len())
            .sum();
        assert!(
            disk <= config.disk_budget_bytes + config.segment_bytes,
            "disk usage {disk} stayed near the budget"
        );
        let (_store, entries) = Store::open(config).unwrap();
        assert_eq!(entries.len(), 3, "every live fingerprint survives");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_write_loses_only_the_torn_frame() {
        let dir = temp_store_dir("torn");
        {
            let (store, _) = Store::open(StoreConfig::at(&dir)).unwrap();
            store.offer(1, frame(1, 16));
            store.flush();
            store.set_fail_point(FailPoint::AfterBytes(7));
            store.offer(2, frame(2, 16)); // torn mid-frame
            store.offer(3, frame(3, 16)); // lands in the rolled segment
            store.flush();
            assert_eq!(store.counters().snapshot().write_errors, 1);
        }
        let (store, entries) = Store::open(StoreConfig::at(&dir)).unwrap();
        let fps: Vec<u128> = entries.iter().map(|r| r.full_fp).collect();
        assert_eq!(
            fps,
            vec![1, 3],
            "the torn frame is gone, its neighbours are not"
        );
        assert_eq!(store.counters().snapshot().dropped_corrupt, 1);
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_flushed_frame_survives_a_missed_index_update() {
        let dir = temp_store_dir("before-index");
        {
            let (store, _) = Store::open(StoreConfig::at(&dir)).unwrap();
            store.offer(1, frame(1, 16));
            store.set_fail_point(FailPoint::BeforeIndexUpdate);
            store.offer(2, frame(2, 16)); // durable, but unindexed
            store.flush();
            let snap = store.counters().snapshot();
            assert_eq!(snap.appended, 2, "the frame did reach the disk");
            assert_eq!(snap.write_errors, 1);
        }
        let (_store, entries) = Store::open(StoreConfig::at(&dir)).unwrap();
        let fps: Vec<u128> = entries.iter().map(|r| r.full_fp).collect();
        assert_eq!(fps, vec![1, 2], "fully flushed means recovered");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_record_naming_a_processor_past_u16_is_dropped_as_corrupt() {
        let dir = temp_store_dir("proc-past-u16");
        // `frame(2, 16)` with its second `π` entry set to 2¹⁶ and its
        // checksum redone: whole and checksum-valid, but no `u16` holds it.
        let mut wide = frame(2, 16);
        let at = FRAME_HEADER_BYTES + 61 + 4 + 16 + 4 + 4;
        assert_eq!(wide[at..at + 4], 1u32.to_le_bytes());
        wide[at..at + 4].copy_from_slice(&(1u32 << 16).to_le_bytes());
        let mut hasher = bsp_model::Fnv64::new();
        hasher.write_bytes(&wide[FRAME_HEADER_BYTES..]);
        wide[4..12].copy_from_slice(&hasher.finish().to_le_bytes());
        assert!(frame_checksum_ok(&wide));
        {
            let (store, _) = Store::open(StoreConfig::at(&dir)).unwrap();
            store.offer(1, frame(1, 16));
            store.offer(2, wide);
            store.flush();
        }
        let (store, entries) = Store::open(StoreConfig::at(&dir)).unwrap();
        let fps: Vec<u128> = entries.iter().map(|r| r.full_fp).collect();
        assert_eq!(fps, vec![1], "the frame before it survives");
        assert_eq!(store.counters().snapshot().dropped_corrupt, 1);
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_garbled_segment_header_drops_the_file_not_the_store() {
        let dir = temp_store_dir("bad-header");
        let seg0 = {
            let (store, _) = Store::open(StoreConfig::at(&dir)).unwrap();
            store.offer(1, frame(1, 16));
            store.flush();
            drop(store);
            segment_path(&dir, 0)
        };
        let mut bytes = fs::read(&seg0).unwrap();
        bytes[0] ^= 0xff;
        fs::write(&seg0, bytes).unwrap();
        let (store, entries) = Store::open(StoreConfig::at(&dir)).unwrap();
        assert!(entries.is_empty());
        assert_eq!(store.counters().snapshot().dropped_corrupt, 1);
        assert_eq!(
            fs::metadata(&seg0).unwrap().len(),
            0,
            "truncated, not re-scanned"
        );
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }
}
