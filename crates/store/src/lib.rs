//! # ltee-store
//!
//! Durability layer for the accumulated serving state: a directory holding
//! checksummed [`PipelineCheckpoint`] files plus an append-only write-ahead
//! log of ingested micro-batches (see [`wal`] for the byte format and the
//! crash-consistency contract).
//!
//! ## Store layout
//!
//! ```text
//! <dir>/wal.log                      the write-ahead log
//! <dir>/ckpt-00000000000000000042.bin  checkpoint after batch 42
//! ```
//!
//! ## Protocol
//!
//! * **Ingest**: encode the batch, [`KbStore::append_batch`] (compress +
//!   write + fsync), *then* apply it in memory. A crash between the two
//!   replays the batch on recovery; a crash during the append leaves a
//!   torn tail the scanner drops. Either way recovery lands on a prefix of
//!   the applied batches. An append starts at the end of the acknowledged
//!   log, cutting whatever a failed append left there first.
//! * **Segments**: a record is compressed against the raw batches of the
//!   records before it in its segment (see [`wal`]). The store starts a
//!   segment when it opens and as soon as a checkpoint is durably in place,
//!   so no record depends on a record a checkpoint covers, and a replay
//!   from any retained checkpoint starts at a segment start. A rolled-back
//!   append leaves the segment as it was.
//! * **Checkpoint**: [`KbStore::write_checkpoint`] writes to a temp file,
//!   renames it into place and syncs the directory — a checkpoint is
//!   either fully present or absent, never torn-but-plausible (and a torn
//!   temp file is invisible to recovery, which deletes it), and it is
//!   durably present before anything it supersedes is deleted. Retention
//!   keeps the newest checkpoint plus one predecessor; the WAL is then
//!   compacted down to the records the older retained checkpoint does not
//!   cover, in whole segments, so a corrupt newest checkpoint can always
//!   fall back to `older checkpoint + longer replay`.
//! * **Recovery**: [`KbStore::open`] deletes the temp files a crash before
//!   a rename left, picks the newest *structurally valid* checkpoint
//!   (corrupt ones are skipped, not fatal), scans the WAL, repairs any torn
//!   tail by truncating it, and returns the checkpoint plus the contiguous
//!   tail of decompressed batch records still to replay. A
//!   structurally valid checkpoint or WAL minted under a *different
//!   config fingerprint* is a hard typed error — silently mixing
//!   configurations would poison the state — and so is an intact
//!   checkpoint or a WAL of *another format version*: skipping it as
//!   corrupt would start a fresh store over existing data.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use ltee_core::checkpoint::{CheckpointError, CheckpointView, PipelineCheckpoint};

pub mod wal;

pub use wal::{scan_wal, WalRecord, WalScan, WalTail};
use wal::SegmentWindow;

/// Errors raised by the durability layer.
#[derive(Debug)]
pub enum StoreError {
    /// Reading or writing a store file failed.
    Io(std::io::Error),
    /// A checkpoint file failed to decode, validate or match the config.
    Checkpoint(CheckpointError),
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
        error: CheckpointError,
    },
    /// Replaying a WAL batch was rejected by the pipeline — the log is
    /// intact (every record passed its checksum) but semantically
    /// inconsistent with the recovered checkpoint.
    Pipeline(ltee_core::PipelineError),
    /// The WAL file does not start with the WAL magic.
    BadWalMagic,
    /// The WAL was written by an unknown format version.
    UnsupportedWalVersion(u32),
    /// The WAL was written under a different inference configuration.
    WalConfigMismatch {
        /// Fingerprint stored in the WAL header.
        wal: u64,
        /// Fingerprint of the configuration the caller supplied.
        config: u64,
    },
    /// The WAL's surviving records do not connect to the checkpoint: the
    /// first record past the checkpoint is not batch `applied + 1`.
    WalGap {
        /// Batches covered by the recovered checkpoint.
        applied: u64,
        /// First surviving WAL batch number past the checkpoint.
        first_seq: u64,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Checkpoint(e) => write!(f, "{e}"),
            StoreError::RecordTooLarge { len } => write!(
                f,
                "batch compresses to {len} bytes, past the {} a write-ahead log record holds",
                u32::MAX
            ),
            // The batch codec reports in checkpoint terms; name the record.
            StoreError::WalRecord { seq, error } => {
                write!(f, "write-ahead log record {seq} does not decode: ")?;
                match error {
                    CheckpointError::Corrupted(why) => write!(f, "{why}"),
                    CheckpointError::Decode(e) => write!(f, "{e}"),
                    other => write!(f, "{other}"),
                }
            }
            StoreError::Pipeline(e) => write!(f, "replaying the write-ahead log failed: {e}"),
            StoreError::BadWalMagic => {
                write!(f, "not an LTEE write-ahead log (bad magic header)")
            }
            StoreError::UnsupportedWalVersion(v) => write!(
                f,
                "unsupported WAL format version {v} (this build reads version {})",
                wal::WAL_VERSION
            ),
            StoreError::WalConfigMismatch { wal, config } => write!(
                f,
                "write-ahead log was written under a different configuration \
                 (WAL fingerprint {wal:#018x}, pipeline config fingerprint {config:#018x})"
            ),
            StoreError::WalGap { applied, first_seq } => write!(
                f,
                "write-ahead log does not connect to the checkpoint: checkpoint covers \
                 {applied} batches but the first surviving WAL record is batch {first_seq}"
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Checkpoint(e) | StoreError::WalRecord { error: e, .. } => Some(e),
            StoreError::Pipeline(e) => Some(e),
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

impl From<CheckpointError> for StoreError {
    fn from(e: CheckpointError) -> Self {
        StoreError::Checkpoint(e)
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

/// A durable store directory: checkpoints + write-ahead log.
#[derive(Debug)]
pub struct KbStore {
    dir: PathBuf,
    fingerprint: u64,
    next_seq: u64,
    /// Bytes of the log that hold acknowledged records: every append
    /// starts here, whatever a failed append left behind it.
    wal_len: u64,
    /// The current segment's raw bytes the next record is compressed
    /// against.
    window: SegmentWindow,
    /// Where the most recent append started in the log and in the window,
    /// while it can be rolled back.
    last_append: Option<(u64, usize)>,
}

impl KbStore {
    /// Path of the write-ahead log inside `dir`.
    pub fn wal_path(dir: &Path) -> PathBuf {
        dir.join("wal.log")
    }

    /// Path of the checkpoint file covering `applied` batches inside `dir`.
    pub fn checkpoint_path(dir: &Path, applied: u64) -> PathBuf {
        dir.join(format!("ckpt-{applied:020}.bin"))
    }

    /// Open (or initialise) a store directory for a pipeline whose config
    /// fingerprint is `fingerprint`, recovering whatever state survived.
    ///
    /// See the [crate docs](self) for the recovery rules. The returned
    /// [`StoreRecovery`] carries the newest valid checkpoint and the
    /// contiguous WAL tail past it; the caller restores the checkpoint and
    /// replays the tail.
    pub fn open(dir: impl AsRef<Path>, fingerprint: u64) -> Result<StoreRecovery, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Self::remove_temp_files(&dir)?;

        // Newest structurally valid checkpoint wins; corrupt files are
        // skipped (falling back to an older checkpoint or a fresh start),
        // but a valid checkpoint under the wrong config, or an intact file
        // of another format version, is a hard error: skipping one would
        // open a fresh store over existing data.
        let mut checkpoint = None;
        for applied in Self::list_checkpoints(&dir)? {
            let bytes = fs::read(Self::checkpoint_path(&dir, applied))?;
            match PipelineCheckpoint::decode(&bytes) {
                Ok(ckpt) => {
                    if ckpt.fingerprint != fingerprint {
                        return Err(CheckpointError::ConfigMismatch {
                            checkpoint: ckpt.fingerprint,
                            config: fingerprint,
                        }
                        .into());
                    }
                    checkpoint = Some(ckpt);
                    break;
                }
                // Written whole by another build (a damaged version field
                // decodes as `Corrupted`, not as this).
                Err(other @ CheckpointError::UnsupportedVersion(_)) => return Err(other.into()),
                Err(_corrupt) => continue,
            }
        }
        let applied = checkpoint.as_ref().map_or(0, |c| c.applied_batches);

        let wal_path = Self::wal_path(&dir);
        let log = if wal_path.exists() { fs::read(&wal_path)? } else { Vec::new() };
        let scan = if log.is_empty() {
            WalScan { fingerprint: Some(fingerprint), records: Vec::new(), tail: WalTail::Clean }
        } else {
            scan_wal(&log)?
        };
        if let Some(wal_fingerprint) = scan.fingerprint {
            if wal_fingerprint != fingerprint {
                return Err(StoreError::WalConfigMismatch {
                    wal: wal_fingerprint,
                    config: fingerprint,
                });
            }
        }

        // Records the checkpoint already covers are dropped; the rest move
        // out of the scan (no second copy of their payloads) and must
        // connect to the checkpoint without a gap.
        let keep = first_kept(&scan.records, applied);
        let kept = kept_bytes(&log, &scan, keep);
        let wal_tail = scan.tail;
        let mut records = scan.records;
        let tail: Vec<WalRecord> = records.drain(keep..).filter(|r| r.seq > applied).collect();
        if let Some(first) = tail.first() {
            if first.seq != applied + 1 {
                return Err(StoreError::WalGap { applied, first_seq: first.seq });
            }
        }

        // Repair the log on disk: drop any torn tail and the whole segments
        // the checkpoint covers, so future appends extend a pristine log.
        let dirty = log.is_empty() || keep > 0 || !matches!(wal_tail, WalTail::Clean);
        let wal_len = if dirty {
            Self::rewrite_wal(&dir, fingerprint, kept)?
        } else {
            log.len() as u64
        };

        let next_seq = applied + tail.len() as u64 + 1;
        let window = SegmentWindow::default();
        let store = KbStore { dir, fingerprint, next_seq, wal_len, window, last_append: None };
        Ok(StoreRecovery { store, checkpoint, tail, wal_tail })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The batch number the next [`KbStore::append_batch`] will write.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Append one encoded micro-batch to the WAL, compressed against the
    /// segment's earlier batches, and fsync it. Returns the batch number
    /// assigned. Call this *before* applying the batch in memory — the WAL
    /// must always be ahead of the applied state.
    ///
    /// The record goes at the end of the acknowledged log: bytes a failed
    /// append left behind (a short write, a failed sync) are cut first, or
    /// the scanner would stop at them on reopen and drop every batch
    /// appended after. A batch that compresses to 4 GiB or more is refused
    /// with [`StoreError::RecordTooLarge`] before anything is written.
    pub fn append_batch(&mut self, payload: &[u8]) -> Result<u64, StoreError> {
        let seq = self.next_seq;
        // A failed append leaves nothing to roll back.
        self.last_append = None;
        let record = wal::frame_record(seq, &self.window.compress(payload))?;
        let mut file = OpenOptions::new().append(true).open(Self::wal_path(&self.dir))?;
        if file.metadata()?.len() != self.wal_len {
            file.set_len(self.wal_len)?;
        }
        file.write_all(&record)?;
        file.sync_data()?;
        self.last_append = Some((self.wal_len, self.window.len()));
        self.window.push(payload);
        self.wal_len += record.len() as u64;
        self.next_seq += 1;
        Ok(seq)
    }

    /// Undo the most recent [`KbStore::append_batch`] by cutting the WAL
    /// back to where it started, and the segment with it — used when the
    /// apply step rejects the batch (e.g. a duplicate table id), so a
    /// rejected batch leaves no trace on disk and its batch number is
    /// reused. Does nothing when there is no append to undo: none since the
    /// store opened or last checkpointed, or it was already undone.
    pub fn rollback_append(&mut self) -> Result<(), StoreError> {
        let Some((start, window_len)) = self.last_append else { return Ok(()) };
        let file = OpenOptions::new().write(true).open(Self::wal_path(&self.dir))?;
        file.set_len(start)?;
        file.sync_data()?;
        self.wal_len = start;
        self.window.truncate(window_len);
        self.last_append = None;
        self.next_seq -= 1;
        Ok(())
    }

    /// Durably write `checkpoint` (temp file + rename + directory sync, so
    /// it is atomic and survives power loss) and start a new WAL segment,
    /// then apply retention: keep this checkpoint plus its newest surviving
    /// predecessor, delete older ones, and compact the WAL down to the
    /// segments holding the records the older retained checkpoint does not
    /// cover.
    pub fn write_checkpoint(&mut self, checkpoint: &CheckpointView<'_>) -> Result<(), StoreError> {
        if checkpoint.fingerprint != self.fingerprint {
            return Err(CheckpointError::ConfigMismatch {
                checkpoint: checkpoint.fingerprint,
                config: self.fingerprint,
            }
            .into());
        }
        let path = Self::checkpoint_path(&self.dir, checkpoint.applied_batches);
        let tmp = temp_path(&path);
        {
            let mut file = File::create(&tmp)?;
            file.write_all(&checkpoint.encode())?;
            file.sync_all()?;
        }
        fs::rename(&tmp, &path)?;
        // Retention and compaction below delete what only this checkpoint
        // replaces, so its directory entry must be on disk first.
        Self::sync_dir(&self.dir)?;
        // No record after this one may depend on one the checkpoint covers,
        // whatever retention below manages to do.
        self.window.clear();
        self.last_append = None;

        // Retention: newest two checkpoints survive.
        let all = Self::list_checkpoints(&self.dir)?;
        for &applied in all.iter().skip(2) {
            fs::remove_file(Self::checkpoint_path(&self.dir, applied))?;
        }

        // Compact the WAL to what the *older* retained checkpoint cannot
        // reconstruct, so recovery can still fall back one checkpoint. Only
        // the acknowledged records are read; the next append cuts whatever
        // lies past them.
        let keep_after = all.get(1).copied().unwrap_or(checkpoint.applied_batches);
        let mut log = fs::read(Self::wal_path(&self.dir))?;
        log.truncate(self.wal_len as usize);
        let scan = scan_wal(&log)?;
        let keep = first_kept(&scan.records, keep_after);
        if keep > 0 || !matches!(scan.tail, WalTail::Clean) {
            self.wal_len = Self::rewrite_wal(&self.dir, self.fingerprint, kept_bytes(&log, &scan, keep))?;
        }
        Ok(())
    }

    /// Applied-batch counts of the checkpoints in `dir`, newest first.
    fn list_checkpoints(dir: &Path) -> Result<Vec<u64>, StoreError> {
        let mut found = Vec::new();
        for entry in fs::read_dir(dir)? {
            let name = entry?.file_name();
            if let Some(applied) = name.to_str().and_then(checkpoint_applied) {
                found.push(applied);
            }
        }
        found.sort_unstable_by(|a, b| b.cmp(a));
        Ok(found)
    }

    /// Delete the temp file of a checkpoint or a WAL rewrite that a crash
    /// before its rename left in `dir`: nothing reads one, and it would
    /// otherwise stay on disk for good.
    fn remove_temp_files(dir: &Path) -> Result<(), StoreError> {
        for entry in fs::read_dir(dir)? {
            let name = entry?.file_name();
            let Some(target) = name.to_str().and_then(|n| n.strip_suffix(".tmp")) else { continue };
            if target == "wal.log" || checkpoint_applied(target).is_some() {
                fs::remove_file(dir.join(&name))?;
            }
        }
        Ok(())
    }

    /// Atomically replace the WAL with `header + records`, the records
    /// being whole segments as they lie in the old log (temp + rename);
    /// returns the new log's length.
    fn rewrite_wal(dir: &Path, fingerprint: u64, records: &[u8]) -> Result<u64, StoreError> {
        let path = Self::wal_path(dir);
        let tmp = temp_path(&path);
        {
            let mut file = File::create(&tmp)?;
            file.write_all(&wal::encode_wal_header(fingerprint))?;
            file.write_all(records)?;
            file.sync_all()?;
        }
        fs::rename(&tmp, &path)?;
        Self::sync_dir(dir)?;
        Ok((wal::WAL_HEADER_LEN + records.len()) as u64)
    }

    /// Make the renames done in `dir` durable: a rename lives in the
    /// directory, not in the file that was fsynced before it.
    fn sync_dir(dir: &Path) -> Result<(), StoreError> {
        File::open(dir)?.sync_all()?;
        Ok(())
    }
}

/// The applied-batch count a checkpoint file name carries
/// (`ckpt-<digits>.bin`).
fn checkpoint_applied(name: &str) -> Option<u64> {
    name.strip_prefix("ckpt-")?.strip_suffix(".bin")?.parse().ok()
}

/// Where a store file is written before it is renamed into place: its name
/// plus `.tmp`.
fn temp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
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

/// Crash-point enumeration for the injection harness: every byte-prefix
/// length of a WAL file at which a kill must leave a recoverable store.
pub mod crashpoints {
    use super::wal::{scan_wal, WAL_HEADER_LEN, WAL_RECORD_HEADER_LEN};

    /// Enumerate the crash points of a (clean) WAL file as byte-prefix
    /// lengths: the empty file, a torn file header, the header boundary,
    /// and per record a torn record header, a torn payload and the record
    /// boundary itself — plus the full length (no bytes lost).
    ///
    /// Panics if `bytes` is not a clean WAL (the harness enumerates crash
    /// points of the *uncrashed* run's log).
    // Test-harness entry point: its input is the log the harness itself
    // just wrote, so a malformed one is a bug in the caller, not input.
    #[allow(clippy::expect_used)]
    pub fn wal_crash_prefixes(bytes: &[u8]) -> Vec<usize> {
        let scan = scan_wal(bytes).expect("crash-point enumeration needs a well-formed WAL");
        assert!(
            matches!(scan.tail, super::WalTail::Clean),
            "crash-point enumeration needs a clean WAL"
        );
        let mut cuts = vec![0, WAL_HEADER_LEN / 2, WAL_HEADER_LEN];
        let mut start = WAL_HEADER_LEN;
        for record in &scan.records {
            let payload_len = record.end_offset - start - WAL_RECORD_HEADER_LEN;
            cuts.push(start + WAL_RECORD_HEADER_LEN / 2); // torn record header
            cuts.push(start + WAL_RECORD_HEADER_LEN + payload_len / 2); // torn payload
            cuts.push(record.end_offset); // record boundary
            start = record.end_offset;
        }
        cuts.push(bytes.len());
        cuts.sort_unstable();
        cuts.dedup();
        cuts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltee_core::checkpoint::{CHECKPOINT_MAGIC, CHECKPOINT_VERSION};
    use ltee_ml::codec::{seal, ByteWriter};

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
        seal(&CHECKPOINT_MAGIC, version, &[fingerprint, applied], &w.into_bytes())
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

    #[test]
    fn torn_tail_is_repaired_and_future_appends_are_clean() {
        let dir = scratch_dir("torn");
        let mut rec = KbStore::open(&dir, 7).unwrap();
        rec.store.append_batch(b"alpha").unwrap();
        rec.store.append_batch(b"beta").unwrap();

        // Tear the log mid-way through the second record's payload.
        let wal = KbStore::wal_path(&dir);
        let bytes = fs::read(&wal).unwrap();
        fs::write(&wal, &bytes[..bytes.len() - 2]).unwrap();

        let mut rec2 = KbStore::open(&dir, 7).unwrap();
        assert!(matches!(rec2.wal_tail, WalTail::Truncated { .. }));
        assert_eq!(rec2.tail.len(), 1);
        assert_eq!(rec2.store.next_seq(), 2);
        rec2.store.append_batch(b"beta-again").unwrap();

        let rec3 = KbStore::open(&dir, 7).unwrap();
        assert_eq!(rec3.wal_tail, WalTail::Clean);
        assert_eq!(
            rec3.tail.iter().map(|r| (r.seq, r.payload.clone())).collect::<Vec<_>>(),
            vec![(1, b"alpha".to_vec()), (2, b"beta-again".to_vec())]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bytes_a_failed_append_left_behind_are_cut_by_the_next_append() {
        let dir = scratch_dir("residue");
        let mut rec = KbStore::open(&dir, 11).unwrap();
        rec.store.append_batch(b"first").unwrap();
        // Part of a record the store never acknowledged: what a short
        // write leaves behind.
        let mut file = OpenOptions::new().append(true).open(KbStore::wal_path(&dir)).unwrap();
        file.write_all(&wal::encode_wal_record(2, b"torn")[..7]).unwrap();
        drop(file);
        assert_eq!(rec.store.append_batch(b"second").unwrap(), 2);

        let rec2 = KbStore::open(&dir, 11).unwrap();
        assert_eq!(rec2.wal_tail, WalTail::Clean);
        assert_eq!(
            rec2.tail.iter().map(|r| (r.seq, r.payload.clone())).collect::<Vec<_>>(),
            vec![(1, b"first".to_vec()), (2, b"second".to_vec())]
        );

        // A rollback cuts back to where its append started, residue and all.
        let mut rec2 = rec2;
        rec2.store.append_batch(b"rejected").unwrap();
        rec2.store.rollback_append().unwrap();
        rec2.store.rollback_append().unwrap();
        assert_eq!(rec2.store.next_seq(), 3);
        let rec3 = KbStore::open(&dir, 11).unwrap();
        assert_eq!((rec3.wal_tail, rec3.tail.len()), (WalTail::Clean, 2));
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
        let found = KbStore::list_checkpoints(&dir).unwrap();
        assert_eq!(found, vec![6, 5]);
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

    #[test]
    fn config_mismatches_are_hard_typed_errors() {
        let dir = scratch_dir("mismatch");
        let mut rec = KbStore::open(&dir, 1).unwrap();
        rec.store.append_batch(b"b1").unwrap();
        assert!(matches!(
            KbStore::open(&dir, 2),
            Err(StoreError::WalConfigMismatch { wal: 1, config: 2 })
        ));
        // A checkpoint under the wrong fingerprint is also rejected, even
        // with a matching WAL.
        assert!(matches!(
            rec.store.write_checkpoint(&empty_checkpoint(99, 1).view()),
            Err(StoreError::Checkpoint(CheckpointError::ConfigMismatch { .. }))
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
            StoreError::Checkpoint(CheckpointError::UnsupportedVersion(v)) if v == CHECKPOINT_VERSION - 1
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
            Err(StoreError::Checkpoint(CheckpointError::UnsupportedVersion(_)))
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
    fn every_wal_crash_prefix_recovers_without_panic() {
        let dir = scratch_dir("crashes");
        let mut rec = KbStore::open(&dir, 5).unwrap();
        for i in 1..=3u64 {
            rec.store.append_batch(format!("payload-{i}").as_bytes()).unwrap();
        }
        let bytes = fs::read(KbStore::wal_path(&dir)).unwrap();
        let cuts = crashpoints::wal_crash_prefixes(&bytes);
        assert!(cuts.len() >= 3 + 3 * 3);
        for &cut in &cuts {
            let crash_dir = scratch_dir(&format!("crash-{cut}"));
            fs::create_dir_all(&crash_dir).unwrap();
            fs::write(KbStore::wal_path(&crash_dir), &bytes[..cut]).unwrap();
            let recovered = KbStore::open(&crash_dir, 5).unwrap();
            // The recovered records are a prefix of the batches appended.
            for (i, r) in recovered.tail.iter().enumerate() {
                assert_eq!(r.seq, i as u64 + 1);
                assert_eq!(r.payload, format!("payload-{}", i + 1).as_bytes());
            }
            assert_eq!(recovered.store.next_seq(), recovered.tail.len() as u64 + 1);
            fs::remove_dir_all(&crash_dir).unwrap();
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_rolled_back_append_leaves_the_segment_as_it_was() {
        let dir = scratch_dir("rollback-segment");
        let mut rec = KbStore::open(&dir, 12).unwrap();
        rec.store.append_batch(b"first batch: song, year").unwrap();
        rec.store.append_batch(b"rejected batch: song, year, genre").unwrap();
        rec.store.rollback_append().unwrap();
        // Batch 2 again, compressed against batch 1 alone: had the window
        // kept the rejected batch, this record would declare more
        // dictionary than its segment holds on disk.
        assert_eq!(rec.store.append_batch(b"second batch: song, year").unwrap(), 2);
        rec.store.append_batch(b"third batch: song, year").unwrap();

        let rec2 = KbStore::open(&dir, 12).unwrap();
        assert_eq!(rec2.wal_tail, WalTail::Clean);
        let scan = scan_wal(&fs::read(KbStore::wal_path(&dir)).unwrap()).unwrap();
        let first = b"first batch: song, year".len();
        let second = b"second batch: song, year".len();
        assert_eq!(
            scan.records.iter().map(|r| (r.seq, r.dictionary)).collect::<Vec<_>>(),
            vec![(1, 0), (2, first), (3, first + second)]
        );
        assert_eq!(
            rec2.tail.iter().map(|r| r.payload.clone()).collect::<Vec<_>>(),
            [&b"first batch: song, year"[..], b"second batch: song, year", b"third batch: song, year"]
        );
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
        let torn_checkpoint = temp_path(&KbStore::checkpoint_path(&dir, 2));
        let torn_wal = temp_path(&KbStore::wal_path(&dir));
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
