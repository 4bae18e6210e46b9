//! # ltee-store
//!
//! Durability layer for the accumulated serving state: checksummed
//! [`PipelineCheckpoint`] files plus an append-only write-ahead log of
//! ingested micro-batches (see [`wal`] for the byte format and the
//! crash-consistency contract), reached through one [`Storage`] seam.
//!
//! ## Store layout
//!
//! ```text
//! wal.log                      the write-ahead log
//! ckpt-00000000000000000042.bin  checkpoint after batch 42
//! ```
//!
//! [`DirStorage`] keeps these files in a directory; [`KbStore::open`] takes
//! the directory, [`KbStore::open_in`] any [`Storage`].
//!
//! ## Protocol
//!
//! * **Ingest**: check the batch, encode it, [`KbStore::append_batch`]
//!   (compress + write + fsync), *then* apply it in memory. A batch the
//!   pipeline would refuse is refused before the append, so the log only
//!   ever holds batches that apply. A crash between append and apply
//!   replays the batch on recovery; a crash during the append leaves a torn
//!   tail the scanner drops. Either way recovery lands on a prefix of the
//!   applied batches. An append starts at the end of the acknowledged log,
//!   cutting whatever a failed append left there first.
//! * **Segments**: a record is compressed against the raw batches of the
//!   records before it in its segment (see [`wal`]). The store starts a
//!   segment when it opens and as soon as a checkpoint is durably in place,
//!   so no record depends on a record a checkpoint covers, and a replay
//!   from any retained checkpoint starts at a segment start.
//! * **Checkpoint**: [`KbStore::write_checkpoint`] puts the file in place
//!   with [`Storage::replace`] — a checkpoint is either fully present or
//!   absent, never torn-but-plausible — so it is durably present before
//!   anything it supersedes is deleted. Retention keeps the newest
//!   checkpoint plus one predecessor that `open` did not refuse as corrupt;
//!   the WAL is then compacted down to the records the older retained
//!   checkpoint does not cover, in whole segments, so a corrupt newest
//!   checkpoint can always fall back to `older checkpoint + longer replay`.
//! * **Recovery**: [`KbStore::open`] picks the newest *structurally valid*
//!   checkpoint (corrupt ones are skipped, not fatal), scans the WAL,
//!   repairs any torn tail by truncating it, and returns the checkpoint
//!   plus the contiguous tail of decompressed batch records still to
//!   replay. A structurally valid checkpoint or WAL minted under a
//!   *different config fingerprint* is a hard typed error — silently
//!   mixing configurations would poison the state — and so is an intact
//!   checkpoint or a WAL of *another format version*: skipping it as
//!   corrupt would start a fresh store over existing data.
//!
//! ## Errors
//!
//! Stored bytes are refused in the codec's one vocabulary,
//! [`CodecError`], which names the format it refused:
//! [`StoreError::Checkpoint`] for a checkpoint, [`StoreError::Wal`] for
//! the log's header and [`StoreError::WalRecord`] for one of its records.
//! [`StoreError`]'s other variants are the store's own: I/O, a record too
//! large to frame, a log that does not connect to its checkpoint, a
//! replay the pipeline refused, and a checkpoint cut that failed after
//! its batch applied.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};

use ltee_codec::CodecError;
use ltee_core::checkpoint::{CheckpointView, PipelineCheckpoint, CHECKPOINT};

mod storage;
pub mod wal;

pub use storage::{DirStorage, Storage};
pub use wal::{scan_wal, WalRecord, WalScan, WalTail};
use wal::SegmentWindow;

/// The write-ahead log's file name.
const WAL_FILE: &str = "wal.log";

/// Errors raised by the durability layer. Stored bytes refused by the
/// codec carry its [`CodecError`], which names the file's format.
#[derive(Debug)]
pub enum StoreError {
    /// Reading or writing a store file failed.
    Io(std::io::Error),
    /// A checkpoint was refused: an intact file of another version, or one
    /// minted under another config (a corrupt one is skipped instead); or
    /// the recovered one did not restore.
    Checkpoint(CodecError),
    /// The write-ahead log's header was refused: another file's magic,
    /// another version or another config.
    Wal(CodecError),
    /// A batch compressed to 4 GiB or more, past what a WAL record's
    /// length field holds; nothing was written.
    RecordTooLarge {
        /// The compressed payload's length.
        len: usize,
    },
    /// A WAL record passed its checksum but its payload does not
    /// decompress, or its batch does not decode.
    WalRecord {
        /// The record's batch number.
        seq: u64,
        /// Why its payload was refused.
        error: CodecError,
    },
    /// Replaying a WAL batch was rejected by the pipeline — the log is
    /// intact (every record passed its checksum) but semantically
    /// inconsistent with the recovered checkpoint.
    Pipeline(ltee_core::PipelineError),
    /// The WAL's surviving records do not connect to the checkpoint: the
    /// first record past the checkpoint is not batch `applied + 1`.
    WalGap {
        /// Batches covered by the recovered checkpoint.
        applied: u64,
        /// First surviving WAL batch number past the checkpoint.
        first_seq: u64,
    },
    /// A batch was applied and logged, but the checkpoint cut after it
    /// failed: unlike every other error of an ingest, the state moved on.
    CheckpointFailed {
        /// The batches applied, this one included.
        applied: u64,
        /// Why the checkpoint failed.
        error: Box<StoreError>,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Checkpoint(e) | StoreError::Wal(e) => write!(f, "{e}"),
            StoreError::RecordTooLarge { len } => write!(
                f,
                "batch compresses to {len} bytes, past the {} a write-ahead log record holds",
                u32::MAX
            ),
            StoreError::WalRecord { seq, error } => {
                write!(f, "write-ahead log record {seq} does not decode: {error}")
            }
            StoreError::Pipeline(e) => write!(f, "replaying the write-ahead log failed: {e}"),
            StoreError::WalGap { applied, first_seq } => write!(
                f,
                "write-ahead log does not connect to the checkpoint: checkpoint covers \
                 {applied} batches but the first surviving WAL record is batch {first_seq}"
            ),
            StoreError::CheckpointFailed { applied, error } => write!(
                f,
                "batch {applied} was applied and logged, but the checkpoint after it failed: {error}"
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Checkpoint(e) | StoreError::Wal(e) | StoreError::WalRecord { error: e, .. } => Some(e),
            StoreError::Pipeline(e) => Some(e),
            StoreError::CheckpointFailed { error, .. } => Some(error.as_ref()),
            _ => None,
        }
    }
}

impl From<ltee_core::PipelineError> for StoreError {
    fn from(e: ltee_core::PipelineError) -> Self {
        StoreError::Pipeline(e)
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// What [`KbStore::open`] recovered from the directory.
#[derive(Debug)]
pub struct StoreRecovery {
    /// The opened store, positioned to append the next batch.
    pub store: KbStore,
    /// Newest structurally valid checkpoint, if any.
    pub checkpoint: Option<PipelineCheckpoint>,
    /// WAL records past the checkpoint, contiguous from `applied + 1`,
    /// still to be replayed.
    pub tail: Vec<WalRecord>,
    /// How the WAL scan ended (a truncated tail has already been repaired
    /// on disk by the time `open` returns).
    pub wal_tail: WalTail,
}

/// A durable store: checkpoints + write-ahead log on a [`Storage`].
#[derive(Debug)]
pub struct KbStore {
    storage: Box<dyn Storage>,
    fingerprint: u64,
    next_seq: u64,
    /// Bytes of the log that hold acknowledged records: every append
    /// starts here, whatever a failed append left behind it.
    wal_len: u64,
    /// The current segment's raw bytes the next record is compressed
    /// against.
    window: SegmentWindow,
    /// Checkpoints `open` skipped as corrupt: never the retained fallback,
    /// and removed by the next checkpoint.
    refused: Vec<u64>,
}

impl KbStore {
    /// Path of the write-ahead log inside `dir`.
    pub fn wal_path(dir: &Path) -> PathBuf {
        dir.join(WAL_FILE)
    }

    /// Path of the checkpoint file covering `applied` batches inside `dir`.
    pub fn checkpoint_path(dir: &Path, applied: u64) -> PathBuf {
        dir.join(checkpoint_name(applied))
    }

    /// [`KbStore::open_in`] on the store directory `dir` (a
    /// [`DirStorage`]).
    pub fn open(dir: impl AsRef<Path>, fingerprint: u64) -> Result<StoreRecovery, StoreError> {
        Self::open_in(DirStorage::open(dir)?, fingerprint)
    }

    /// Open (or initialise) the store on `storage` for a pipeline whose
    /// config fingerprint is `fingerprint`, recovering whatever state
    /// survived.
    ///
    /// See the [crate docs](self) for the recovery rules. The returned
    /// [`StoreRecovery`] carries the newest valid checkpoint and the
    /// contiguous WAL tail past it; the caller restores the checkpoint and
    /// replays the tail.
    pub fn open_in(
        storage: impl Storage + 'static,
        fingerprint: u64,
    ) -> Result<StoreRecovery, StoreError> {
        let storage: Box<dyn Storage> = Box::new(storage);
        let names = storage.list()?;

        // Newest structurally valid checkpoint wins; corrupt files are
        // skipped (falling back to an older checkpoint or a fresh start),
        // but a valid checkpoint under the wrong config, or an intact file
        // of another format version, is a hard error: skipping one would
        // open a fresh store over existing data.
        let mut checkpoint = None;
        let mut refused = Vec::new();
        for applied in checkpoints(&names) {
            match PipelineCheckpoint::decode(&storage.read(&checkpoint_name(applied))?) {
                Ok(ckpt) => {
                    CHECKPOINT.check_fingerprint(ckpt.fingerprint, fingerprint).map_err(StoreError::Checkpoint)?;
                    checkpoint = Some(ckpt);
                    break;
                }
                // Written whole by another build (a damaged version field
                // decodes as `Corrupted`, not as this).
                Err(other @ CodecError::UnsupportedVersion { .. }) => return Err(StoreError::Checkpoint(other)),
                Err(_corrupt) => refused.push(applied),
            }
        }
        let applied = checkpoint.as_ref().map_or(0, |c| c.applied_batches);

        let has_log = names.iter().any(|name| name == WAL_FILE);
        let log = if has_log { storage.read(WAL_FILE)? } else { Vec::new() };
        let scan = if log.is_empty() {
            WalScan { fingerprint: Some(fingerprint), records: Vec::new(), tail: WalTail::Clean }
        } else {
            scan_wal(&log)?
        };
        if let Some(wal_fingerprint) = scan.fingerprint {
            wal::WAL.check_fingerprint(wal_fingerprint, fingerprint).map_err(StoreError::Wal)?;
        }

        // Records the checkpoint already covers are skipped; the rest move
        // out of the scan (no second copy of their payloads) and must
        // connect to the checkpoint without a gap.
        let kept = kept_bytes(&log, &scan, 0);
        let wal_tail = scan.tail;
        let tail: Vec<WalRecord> = scan.records.into_iter().filter(|r| r.seq > applied).collect();
        if let Some(first) = tail.first() {
            if first.seq != applied + 1 {
                return Err(StoreError::WalGap { applied, first_seq: first.seq });
            }
        }

        // Repair the log on disk: drop any torn tail, so future appends
        // extend a pristine log. Records the checkpoint covers stay: the
        // fallback checkpoint retention kept replays them, and the next
        // checkpoint compacts them away.
        let dirty = log.is_empty() || !matches!(wal_tail, WalTail::Clean);
        let wal_len =
            if dirty { rewrite_wal(&*storage, fingerprint, kept)? } else { log.len() as u64 };

        let next_seq = applied + tail.len() as u64 + 1;
        let window = SegmentWindow::default();
        let store = KbStore { storage, fingerprint, next_seq, wal_len, window, refused };
        Ok(StoreRecovery { store, checkpoint, tail, wal_tail })
    }

    /// The heap the store holds: its storage box, WAL window and refusals.
    pub fn heap_bytes(&self) -> ltee_intern::HeapBytes {
        use ltee_intern::{HeapBytes, HeapSize};
        HeapBytes::block(std::mem::size_of_val(&*self.storage)) + self.window.bytes.heap_bytes() + self.refused.heap_bytes()
    }

    /// The batch number the next [`KbStore::append_batch`] will write.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Append one encoded micro-batch to the WAL, compressed against the
    /// segment's earlier batches, and fsync it. Returns the batch number
    /// assigned. Call this *before* applying the batch in memory — the WAL
    /// must always be ahead of the applied state — and only for a batch
    /// that will apply: a record is never taken back.
    ///
    /// The record goes at the end of the acknowledged log: bytes a failed
    /// append left behind (a short write, a failed sync) are cut first, or
    /// the scanner would stop at them on reopen and drop every batch
    /// appended after. A batch that compresses to 4 GiB or more is refused
    /// with [`StoreError::RecordTooLarge`] before anything is written.
    pub fn append_batch(&mut self, payload: &[u8]) -> Result<u64, StoreError> {
        let seq = self.next_seq;
        let record = wal::frame_record(seq, &self.window.compress(payload))?;
        self.storage.append_at(WAL_FILE, self.wal_len, &record)?;
        self.window.push(payload);
        self.wal_len += record.len() as u64;
        self.next_seq += 1;
        Ok(seq)
    }

    /// Durably write `checkpoint` ([`Storage::replace`]) and start a new
    /// WAL segment, then apply retention: keep this checkpoint plus its
    /// newest predecessor that `open` did not refuse, delete the others,
    /// and compact the WAL down to the segments holding the records the
    /// older retained checkpoint does not cover.
    pub fn write_checkpoint(&mut self, checkpoint: &CheckpointView<'_>) -> Result<(), StoreError> {
        CHECKPOINT.check_fingerprint(checkpoint.fingerprint, self.fingerprint).map_err(StoreError::Checkpoint)?;
        let applied = checkpoint.applied_batches;
        self.storage.replace(&checkpoint_name(applied), &checkpoint.encode())?;
        // No record after this one may depend on one the checkpoint covers,
        // whatever retention below manages to do.
        self.window.clear();
        self.refused.retain(|&refused| refused != applied);

        // Retention: the newest two checkpoints `open` did not refuse.
        let mut retained = Vec::new();
        for older in checkpoints(&self.storage.list()?) {
            if retained.len() < 2 && !self.refused.contains(&older) {
                retained.push(older);
            } else {
                self.storage.remove(&checkpoint_name(older))?;
            }
        }
        self.refused.clear();

        // Compact the WAL to what the *older* retained checkpoint cannot
        // reconstruct, so recovery can still fall back one checkpoint. Only
        // the acknowledged records are read; the next append cuts whatever
        // lies past them.
        let keep_after = retained.get(1).copied().unwrap_or(applied);
        let mut log = self.storage.read(WAL_FILE)?;
        log.truncate(self.wal_len as usize);
        let scan = scan_wal(&log)?;
        let keep = first_kept(&scan.records, keep_after);
        if keep > 0 || !matches!(scan.tail, WalTail::Clean) {
            let kept = kept_bytes(&log, &scan, keep);
            self.wal_len = rewrite_wal(&*self.storage, self.fingerprint, kept)?;
        }
        Ok(())
    }
}

/// Whether `name` is one of a store's files: the WAL or a checkpoint.
fn is_store_file(name: &str) -> bool {
    name == WAL_FILE || checkpoint_applied(name).is_some()
}

/// The file name of the checkpoint covering `applied` batches.
fn checkpoint_name(applied: u64) -> String {
    format!("ckpt-{applied:020}.bin")
}

/// The applied-batch count a checkpoint file name carries
/// (`ckpt-<digits>.bin`).
fn checkpoint_applied(name: &str) -> Option<u64> {
    name.strip_prefix("ckpt-")?.strip_suffix(".bin")?.parse().ok()
}

/// Applied-batch counts of the checkpoints among `names`, newest first.
fn checkpoints(names: &[String]) -> Vec<u64> {
    let mut found: Vec<u64> = names.iter().filter_map(|name| checkpoint_applied(name)).collect();
    found.sort_unstable_by(|a, b| b.cmp(a));
    found
}

/// Atomically replace the WAL with `header + records`, the records being
/// whole segments as they lie in the old log; returns the new log's length.
fn rewrite_wal(storage: &dyn Storage, fingerprint: u64, records: &[u8]) -> Result<u64, StoreError> {
    let mut log = wal::encode_wal_header(fingerprint);
    log.extend_from_slice(records);
    storage.replace(WAL_FILE, &log)?;
    Ok(log.len() as u64)
}

/// Index of the first record a log keeps when it must hold every record
/// past batch `covered`: the start of the segment that record is in, so
/// every kept record still decompresses; `records.len()` when none is past.
fn first_kept(records: &[WalRecord], covered: u64) -> usize {
    match records.iter().position(|r| r.seq > covered) {
        // The log's first record starts a segment, or the scan refused it.
        Some(first) => records[..=first].iter().rposition(|r| r.dictionary == 0).unwrap_or(0),
        None => records.len(),
    }
}

/// The bytes of the scanned `log` from record `keep` to the end of its
/// valid prefix.
fn kept_bytes<'a>(log: &'a [u8], scan: &WalScan, keep: usize) -> &'a [u8] {
    if keep == scan.records.len() {
        return &[];
    }
    let start = keep.checked_sub(1).map_or(wal::WAL_HEADER_LEN, |i| scan.records[i].end_offset);
    &log[start..scan.valid_len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::{self, OpenOptions};
    use std::io::Write as _;

    use ltee_core::checkpoint::CHECKPOINT_VERSION;
    use ltee_codec::{seal, ByteWriter, Format};

    /// Hand-build an encoded empty checkpoint (no tables, no state) with
    /// the given fingerprint and applied-batch count, exercising the real
    /// decoder on the way in.
    fn empty_checkpoint(fingerprint: u64, applied: u64) -> PipelineCheckpoint {
        let bytes = empty_checkpoint_bytes(CHECKPOINT_VERSION, fingerprint, applied);
        PipelineCheckpoint::decode(&bytes).expect("hand-built checkpoint must decode")
    }

    /// The file behind [`empty_checkpoint`], sealed as format `version`.
    fn empty_checkpoint_bytes(version: u32, fingerprint: u64, applied: u64) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.write_varint(0); // string table
        w.write_varint(0); // corpus tables
        w.write_varint(0); // mappings
        let num_classes = ltee_kb::CLASS_KEYS.len();
        w.write_varint(num_classes as u64);
        for _ in 0..num_classes {
            w.write_varint(0); // per-class interner strings
            w.write_varint(0); // clusters
            w.write_varint(0); // results
        }
        seal(&Format { version, ..CHECKPOINT }, &[fingerprint, applied], &w.into_bytes())
    }

    /// Applied-batch counts of the checkpoints in `dir`, newest first.
    fn checkpoints_in(dir: &Path) -> Vec<u64> {
        checkpoints(&DirStorage::open(dir).unwrap().list().unwrap())
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("ltee-store-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fresh_store_appends_and_recovers_the_tail() {
        let dir = scratch_dir("fresh");
        let mut rec = KbStore::open(&dir, 42).unwrap();
        assert!(rec.checkpoint.is_none());
        assert!(rec.tail.is_empty());
        assert_eq!(rec.store.append_batch(b"one").unwrap(), 1);
        assert_eq!(rec.store.append_batch(b"two").unwrap(), 2);

        let rec2 = KbStore::open(&dir, 42).unwrap();
        assert_eq!(rec2.wal_tail, WalTail::Clean);
        assert_eq!(
            rec2.tail.iter().map(|r| (r.seq, r.payload.clone())).collect::<Vec<_>>(),
            vec![(1, b"one".to_vec()), (2, b"two".to_vec())]
        );
        assert_eq!(rec2.store.next_seq(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// What a failed append left past the acknowledged log, in a
    /// [`DirStorage`] file, is cut by the next append.
    #[test]
    fn bytes_a_failed_append_left_behind_are_cut_by_the_next_append() {
        let dir = scratch_dir("residue");
        let mut rec = KbStore::open(&dir, 11).unwrap();
        rec.store.append_batch(b"first").unwrap();
        // Part of a record the store never acknowledged: what a short
        // write leaves behind.
        let mut file = OpenOptions::new().append(true).open(KbStore::wal_path(&dir)).unwrap();
        file.write_all(&wal::encode_wal_record(2, b"torn").unwrap()[..7]).unwrap();
        drop(file);
        assert_eq!(rec.store.append_batch(b"second").unwrap(), 2);

        let rec2 = KbStore::open(&dir, 11).unwrap();
        assert_eq!(rec2.wal_tail, WalTail::Clean);
        assert_eq!(
            rec2.tail.iter().map(|r| (r.seq, r.payload.clone())).collect::<Vec<_>>(),
            vec![(1, b"first".to_vec()), (2, b"second".to_vec())]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_retention_and_wal_compaction() {
        let dir = scratch_dir("retention");
        let mut rec = KbStore::open(&dir, 9).unwrap();
        for i in 1..=6u64 {
            rec.store.append_batch(format!("batch-{i}").as_bytes()).unwrap();
            rec.store.write_checkpoint(&empty_checkpoint(9, i).view()).unwrap();
        }
        // Newest two checkpoints survive; older ones are gone.
        assert_eq!(checkpoints_in(&dir), vec![6, 5]);
        // The WAL keeps only what checkpoint 5 cannot reconstruct.
        let scan = scan_wal(&fs::read(KbStore::wal_path(&dir)).unwrap()).unwrap();
        assert_eq!(scan.records.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![6]);

        // Recovery prefers the newest checkpoint and replays nothing.
        let rec2 = KbStore::open(&dir, 9).unwrap();
        assert_eq!(rec2.checkpoint.as_ref().unwrap().applied_batches, 6);
        assert!(rec2.tail.is_empty());
        assert_eq!(rec2.store.next_seq(), 7);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_checkpoint_falls_back_to_predecessor() {
        let dir = scratch_dir("fallback");
        let mut rec = KbStore::open(&dir, 3).unwrap();
        rec.store.append_batch(b"b1").unwrap();
        rec.store.write_checkpoint(&empty_checkpoint(3, 1).view()).unwrap();
        rec.store.append_batch(b"b2").unwrap();
        rec.store.write_checkpoint(&empty_checkpoint(3, 2).view()).unwrap();

        // Corrupt the newest checkpoint file.
        let newest = KbStore::checkpoint_path(&dir, 2);
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&newest, &bytes).unwrap();

        let rec2 = KbStore::open(&dir, 3).unwrap();
        assert_eq!(rec2.checkpoint.as_ref().unwrap().applied_batches, 1);
        // Compaction retained batch 2 exactly for this fallback.
        assert_eq!(
            rec2.tail.iter().map(|r| (r.seq, r.payload.clone())).collect::<Vec<_>>(),
            vec![(2, b"b2".to_vec())]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Checkpoints 6 and 4 corrupted in turn, each after the store fell
    /// back past the one before: the checkpoint `open` refused is not the
    /// retained fallback, so the one it fell back to survives the next
    /// checkpoint along with the records past it.
    #[test]
    fn a_checkpoint_open_refused_is_not_the_retained_fallback() {
        let dir = scratch_dir("refused-fallback");
        let corrupt = |applied: u64| {
            let path = KbStore::checkpoint_path(&dir, applied);
            let mut bytes = fs::read(&path).unwrap();
            *bytes.last_mut().unwrap() ^= 0xFF;
            fs::write(&path, &bytes).unwrap();
        };
        let mut rec = KbStore::open(&dir, 15).unwrap();
        for i in 1..=6u64 {
            rec.store.append_batch(format!("batch-{i}").as_bytes()).unwrap();
            if i % 2 == 0 {
                rec.store.write_checkpoint(&empty_checkpoint(15, i).view()).unwrap();
            }
        }
        drop(rec);
        corrupt(6);
        let mut rec = KbStore::open(&dir, 15).unwrap();
        assert_eq!(rec.checkpoint.as_ref().map(|c| c.applied_batches), Some(4));
        assert_eq!(rec.tail.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![5, 6]);
        for i in 7..=8u64 {
            rec.store.append_batch(format!("batch-{i}").as_bytes()).unwrap();
        }
        rec.store.write_checkpoint(&empty_checkpoint(15, 8).view()).unwrap();
        assert_eq!(checkpoints_in(&dir), vec![8, 4], "the refused checkpoint 6 is removed");
        drop(rec);

        corrupt(8);
        let rec = KbStore::open(&dir, 15).unwrap();
        assert_eq!(rec.checkpoint.as_ref().map(|c| c.applied_batches), Some(4));
        assert_eq!(rec.tail.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![5, 6, 7, 8]);
        assert_eq!(rec.tail[3].payload, b"batch-8");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn config_mismatches_are_hard_typed_errors() {
        let dir = scratch_dir("mismatch");
        let mut rec = KbStore::open(&dir, 1).unwrap();
        rec.store.append_batch(b"b1").unwrap();
        assert!(matches!(
            KbStore::open(&dir, 2),
            Err(StoreError::Wal(CodecError::ConfigMismatch { stored: 1, expected: 2, .. }))
        ));
        // A checkpoint under the wrong fingerprint is also rejected, even
        // with a matching WAL.
        assert!(matches!(
            rec.store.write_checkpoint(&empty_checkpoint(99, 1).view()),
            Err(StoreError::Checkpoint(CodecError::ConfigMismatch { stored: 99, expected: 1, .. }))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_intact_checkpoint_of_another_version_is_a_hard_error_not_a_fresh_store() {
        // One old-format checkpoint and an empty WAL tail: skipping it as
        // corrupt would open a fresh store at batch 1 over existing data.
        let dir = scratch_dir("old-version-only");
        let mut rec = KbStore::open(&dir, 4).unwrap();
        rec.store.append_batch(b"b1").unwrap();
        rec.store.write_checkpoint(&empty_checkpoint(4, 1).view()).unwrap();
        let old = empty_checkpoint_bytes(CHECKPOINT_VERSION - 1, 4, 1);
        fs::write(KbStore::checkpoint_path(&dir, 1), &old).unwrap();
        let err = KbStore::open(&dir, 4).unwrap_err();
        assert!(matches!(
            err,
            StoreError::Checkpoint(CodecError::UnsupportedVersion { found, .. }) if found == CHECKPOINT_VERSION - 1
        ));
        let message = err.to_string();
        assert!(
            message.contains(&format!("version {}", CHECKPOINT_VERSION - 1))
                && message.contains(&format!("version {CHECKPOINT_VERSION}")),
            "{message}"
        );
        fs::remove_dir_all(&dir).unwrap();

        // An old-format checkpoint ahead of a WAL tail used to surface as a
        // misleading `WalGap { applied: 0, .. }`.
        let dir = scratch_dir("old-version-with-tail");
        let mut rec = KbStore::open(&dir, 4).unwrap();
        rec.store.append_batch(b"b1").unwrap();
        rec.store.write_checkpoint(&empty_checkpoint(4, 1).view()).unwrap();
        rec.store.append_batch(b"b2").unwrap();
        rec.store.write_checkpoint(&empty_checkpoint(4, 2).view()).unwrap();
        rec.store.append_batch(b"b3").unwrap();
        for applied in [1, 2] {
            let old = empty_checkpoint_bytes(CHECKPOINT_VERSION - 1, 4, applied);
            fs::write(KbStore::checkpoint_path(&dir, applied), &old).unwrap();
        }
        assert!(matches!(
            KbStore::open(&dir, 4),
            Err(StoreError::Checkpoint(CodecError::UnsupportedVersion { .. }))
        ));

        // A file whose version bytes are damage, not a version, is still
        // just a corrupt checkpoint: recovery falls back past it.
        let mut torn = empty_checkpoint(4, 2).encode();
        torn[8] ^= 0x40;
        *torn.last_mut().unwrap() ^= 0x01;
        fs::write(KbStore::checkpoint_path(&dir, 2), &torn).unwrap();
        fs::write(KbStore::checkpoint_path(&dir, 1), empty_checkpoint(4, 1).encode()).unwrap();
        let rec = KbStore::open(&dir, 4).unwrap();
        assert_eq!(rec.checkpoint.as_ref().unwrap().applied_batches, 1);
        assert_eq!(rec.tail.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![2, 3]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_start_at_open_and_at_checkpoints_and_compaction_keeps_them_whole() {
        let dir = scratch_dir("segments");
        let mut rec = KbStore::open(&dir, 13).unwrap();
        for i in 1..=3u64 {
            rec.store.append_batch(format!("batch-{i}").as_bytes()).unwrap();
        }
        // A checkpoint covering batch 2 only: batch 3 is in the segment it
        // ends, so the log must keep that segment from batch 1 on.
        rec.store.write_checkpoint(&empty_checkpoint(13, 2).view()).unwrap();
        rec.store.append_batch(b"batch-4").unwrap();
        rec.store.write_checkpoint(&empty_checkpoint(13, 2).view()).unwrap();
        let scan = scan_wal(&fs::read(KbStore::wal_path(&dir)).unwrap()).unwrap();
        assert_eq!(
            scan.records.iter().map(|r| (r.seq, r.dictionary)).collect::<Vec<_>>(),
            vec![(1, 0), (2, 7), (3, 14), (4, 0)]
        );
        drop(rec);
        // Reopening starts a segment; the records it replays decompress.
        let mut rec = KbStore::open(&dir, 13).unwrap();
        assert_eq!(rec.tail.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![3, 4]);
        assert_eq!(rec.tail[0].payload, b"batch-3");
        rec.store.append_batch(b"batch-5").unwrap();
        let scan = scan_wal(&fs::read(KbStore::wal_path(&dir)).unwrap()).unwrap();
        assert_eq!(scan.records.last().map(|r| (r.seq, r.dictionary)), Some((5, 0)));
        // A checkpoint at 5 with 2 retained: the first segment still holds
        // batch 3, the fallback's first record.
        rec.store.write_checkpoint(&empty_checkpoint(13, 5).view()).unwrap();
        let scan = scan_wal(&fs::read(KbStore::wal_path(&dir)).unwrap()).unwrap();
        assert_eq!(scan.records.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![1, 2, 3, 4, 5]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn temp_files_a_crash_left_behind_are_removed_on_open() {
        let dir = scratch_dir("stale-temp");
        let mut rec = KbStore::open(&dir, 14).unwrap();
        rec.store.append_batch(b"b1").unwrap();
        rec.store.write_checkpoint(&empty_checkpoint(14, 1).view()).unwrap();
        rec.store.append_batch(b"b2").unwrap();
        drop(rec);
        // A torn checkpoint and a torn WAL rewrite, each cut before its
        // rename, and two files of other shapes that are not the store's.
        let torn_checkpoint = dir.join(format!("{}.tmp", checkpoint_name(2)));
        let torn_wal = dir.join("wal.log.tmp");
        let full = empty_checkpoint(14, 2).encode();
        fs::write(&torn_checkpoint, &full[..full.len() / 2]).unwrap();
        fs::write(&torn_wal, &wal::encode_wal_header(14)[..9]).unwrap();
        let foreign = [dir.join("notes.tmp"), dir.join("ckpt-x.bin.tmp")];
        for path in &foreign {
            fs::write(path, b"not ours").unwrap();
        }

        let rec = KbStore::open(&dir, 14).unwrap();
        assert!(!torn_checkpoint.exists() && !torn_wal.exists());
        assert!(foreign.iter().all(|path| path.exists()));
        assert_eq!(rec.checkpoint.as_ref().map(|c| c.applied_batches), Some(1));
        assert_eq!(rec.tail.iter().map(|r| (r.seq, r.payload.clone())).collect::<Vec<_>>(), vec![(2, b"b2".to_vec())]);
        assert_eq!(rec.store.next_seq(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }
}
