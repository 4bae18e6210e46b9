//! Write-ahead log byte format and torn-tail-tolerant scanner.
//!
//! ## Layout
//!
//! ```text
//! file    = header record*
//! header  = magic b"LTEEWAL\x01" (8) · format version (u32 LE) · config fingerprint (u64 LE)
//! record  = seq (u64 LE) · payload_len (u32 LE) · payload FNV-1a64 checksum (u64 LE) · payload
//! payload = dictionary length (varint, ≤ 32 768) · block
//! ```
//!
//! The file header is the head of the codec's envelope ([`write_header`] /
//! [`read_header`]) with the fingerprint as its one word.
//!
//! `seq` is the 1-based number of the micro-batch the record carries;
//! records are strictly contiguous (`seq`, `seq+1`, …). The raw batch is an
//! encoded corpus (`ltee_core::checkpoint::encode_corpus`) — the tables of
//! the batch handed to `ingest`, each its id and columns — in the codec's
//! payload spelling: the record's own string table, then the tables as
//! varints and string references, byte for byte what the checkpoint's
//! corpus section holds. Gold never reaches a batch: a generated table's
//! ground truth lives beside the generated tables, in
//! `ltee_webtables::GeneratedCorpus`.
//!
//! The payload stores the raw batch as one block of the codec's DEFLATE
//! compressor ([`ltee_codec::compress`]), compressed against the last
//! `dictionary length` raw bytes of the records before it in its
//! **segment**: a record declaring no dictionary starts a segment, and the
//! records after it that declare one continue it. A record repeats the
//! headers and values of the batches before it, so a match into them costs
//! a few bits where the record alone would spell them again. A dictionary
//! is at most DEFLATE's own 32 KiB window ([`WINDOW`]), and
//! one longer than the raw bytes the segment holds so far is refused. The
//! store starts a segment at `open` and at every checkpoint, so no record
//! depends on one a checkpoint covers; see the crate docs. The record
//! checksum covers the payload as stored, so the scanner verifies a record
//! before it decompresses it. The framing around the payload stays fixed
//! width, so a torn record header is told from a whole one by its length
//! alone.
//!
//! A log of another version is refused by its header with
//! [`StoreError::Wal`] holding [`CodecError::UnsupportedVersion`] before
//! any record is read — one payload decoder, and never a decode error
//! halfway through a replay. A
//! checksummed record whose payload still does not decompress, or whose
//! batch does not decode, is [`StoreError::WalRecord`], naming its batch
//! number.
//!
//! ## Crash-consistency contract
//!
//! A record is *applied* only after its bytes are on disk (append → fsync →
//! apply), so a crash at any byte boundary leaves the log as `valid prefix
//! ‖ torn tail`. [`scan_wal`] embodies that contract: it walks records
//! front to back and **stops at the first invalid one** — torn header,
//! short payload, checksum mismatch or sequence gap — returning the valid
//! prefix plus a [`WalTail::Truncated`] describing where and why the scan
//! stopped. Mid-log corruption is indistinguishable from a torn tail by
//! design: everything from the first bad byte onward is discarded, which
//! can only ever drop *suffix* batches (recovery then lands on a prefix of
//! the applied batches, never an inconsistent interleaving). A record only
//! ever depends on records before it, so the valid prefix decompresses
//! whole.
//!
//! Header-level damage is different: a wrong magic or version, or a
//! fingerprint minted under another config, means the file is not ours to
//! repair and scanning (or, for the fingerprint, `KbStore::open`) fails
//! with [`StoreError::Wal`] and the codec's refusal. The one exception is
//! a *torn header* (shorter than [`WAL_HEADER_LEN`] but a byte-prefix of a
//! valid header) — that is the legitimate crash point during store
//! creation, reported as an empty log with a truncated tail.

use ltee_codec::{
    compress, decompress, read_header, write_header, ByteReader, ByteWriter, CodecError, Format, WINDOW,
};
use ltee_intern::fnv1a64;

use crate::StoreError;

/// Magic bytes opening every WAL file.
pub const WAL_MAGIC: [u8; 8] = *b"LTEEWAL\x01";

/// The WAL format version this build writes and reads.
pub const WAL_VERSION: u32 = 6;

/// The write-ahead log format.
pub const WAL: Format = Format { name: "write-ahead log", magic: WAL_MAGIC, version: WAL_VERSION };

/// Size of the WAL file header (magic + version + fingerprint).
pub const WAL_HEADER_LEN: usize = 20;

/// Size of a record header (seq + payload length + checksum).
pub const WAL_RECORD_HEADER_LEN: usize = 20;

/// Encode the WAL file header for a store minted under `fingerprint`.
pub fn encode_wal_header(fingerprint: u64) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(WAL_HEADER_LEN);
    write_header(&mut w, &WAL, &[fingerprint]);
    w.into_bytes()
}

/// Encode one WAL record carrying the raw batch `raw` as batch number
/// `seq`, starting a segment: compressed against no earlier record.
///
/// A batch that compresses to 4 GiB or more, which the record's length
/// field cannot hold, is [`StoreError::RecordTooLarge`], as in
/// [`crate::KbStore::append_batch`].
pub fn encode_wal_record(seq: u64, raw: &[u8]) -> Result<Vec<u8>, StoreError> {
    frame_record(seq, &SegmentWindow::default().compress(raw))
}

/// The record header's length field for a payload of `len` bytes: a
/// payload of 4 GiB or more has none, and would otherwise wrap into a
/// record that scans as torn.
pub(crate) fn payload_len_field(len: usize) -> Result<u32, StoreError> {
    u32::try_from(len).map_err(|_| StoreError::RecordTooLarge { len })
}

/// `seq · payload length · checksum · payload`, refused before anything is
/// built if the length does not fit its field.
pub(crate) fn frame_record(seq: u64, payload: &[u8]) -> Result<Vec<u8>, StoreError> {
    let len = payload_len_field(payload.len())?;
    let mut w = ByteWriter::with_capacity(WAL_RECORD_HEADER_LEN + payload.len());
    w.write_u64(seq);
    w.write_u32(len);
    w.write_u64(fnv1a64(payload));
    w.write_bytes(payload);
    Ok(w.into_bytes())
}

/// The raw bytes of a segment's records so far, as far back as a record
/// may be compressed against them: the writer's side and the reader's side
/// of the same state, so both compute the same dictionary.
#[derive(Debug, Default)]
pub(crate) struct SegmentWindow {
    /// The segment's latest raw bytes, trimmed to the last [`WINDOW`]
    /// before each use.
    pub(crate) bytes: Vec<u8>,
}

impl SegmentWindow {
    /// Start a new segment.
    pub(crate) fn clear(&mut self) {
        self.bytes.clear();
    }

    /// Drop what no record can reach any more: all but the last [`WINDOW`]
    /// bytes.
    fn trim(&mut self) {
        self.bytes.drain(..self.bytes.len().saturating_sub(WINDOW));
    }

    /// The segment's next record payload for `raw`: `dictionary length ·
    /// block`, compressed against the segment's last [`WINDOW`] raw bytes.
    /// Does not push `raw`.
    pub(crate) fn compress(&mut self, raw: &[u8]) -> Vec<u8> {
        self.trim();
        let mut w = ByteWriter::new();
        w.write_varint(self.bytes.len() as u64);
        w.write_bytes(&compress(raw, &self.bytes));
        w.into_bytes()
    }

    /// Add a record's raw bytes to the segment.
    pub(crate) fn push(&mut self, raw: &[u8]) {
        self.bytes.extend_from_slice(raw);
    }

    /// Inverse of [`SegmentWindow::compress`], then [`SegmentWindow::push`]:
    /// a payload declaring no dictionary starts a new segment, and one
    /// declaring more than the segment's last [`WINDOW`] raw bytes is
    /// refused. Returns the declared dictionary length and the raw batch.
    pub(crate) fn inflate(&mut self, payload: &[u8]) -> Result<(usize, Vec<u8>), CodecError> {
        let mut r = ByteReader::new(payload);
        let declared = r.read_varint("wal record dictionary length")?;
        if declared == 0 {
            self.clear();
        }
        self.trim();
        let held = self.bytes.len();
        let dictionary = usize::try_from(declared).ok().filter(|&d| d <= held).ok_or(
            CodecError::OutOfRange {
                what: "wal record dictionary length",
                value: declared,
                allowed: 0..held as u64 + 1,
            },
        )?;
        let block = r.read_bytes(r.remaining(), "wal record block")?;
        let raw = decompress(block, &self.bytes[held - dictionary..])?;
        self.push(&raw);
        Ok((dictionary, raw))
    }
}

/// One checksummed record recovered from the log's valid prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// 1-based micro-batch number.
    pub seq: u64,
    /// The raw batch (an `encode_corpus` byte stream), decompressed.
    pub payload: Vec<u8>,
    /// Raw bytes of the earlier records of its segment the payload was
    /// compressed against; `0` starts a segment.
    pub dictionary: usize,
    /// Byte offset one past this record — the next record boundary.
    pub end_offset: usize,
}

/// How the scan of a WAL file ended.
#[derive(Debug, Clone, PartialEq)]
pub enum WalTail {
    /// The file ends exactly at a record boundary — no bytes were lost.
    Clean,
    /// The scan stopped before the end of the file: everything from
    /// `offset` onward is a torn write or corruption and must be dropped.
    Truncated {
        /// First byte offset not covered by the valid prefix.
        offset: usize,
        /// Human-readable reason the scan stopped.
        reason: String,
    },
}

/// The result of scanning a WAL file: its fingerprint, the records of the
/// valid prefix, and how the scan ended.
#[derive(Debug, Clone, PartialEq)]
pub struct WalScan {
    /// Config fingerprint from the header; `None` only for a torn header
    /// (crash during store creation), in which case there are no records.
    pub fingerprint: Option<u64>,
    /// Valid-prefix records, in `seq` order.
    pub records: Vec<WalRecord>,
    /// Whether the file ended cleanly or was cut at `Truncated::offset`.
    pub tail: WalTail,
}

impl WalScan {
    /// Byte length of the valid prefix (header + intact records).
    pub fn valid_len(&self) -> usize {
        match &self.tail {
            WalTail::Clean => {
                self.records.last().map_or(WAL_HEADER_LEN, |r| r.end_offset)
            }
            WalTail::Truncated { offset, .. } => *offset,
        }
    }
}

/// Scan a WAL file per the crash-consistency contract described in the
/// [module docs](self): [`StoreError::Wal`] for a foreign or incompatible
/// header, a valid prefix + truncated tail for everything else, and
/// [`StoreError::WalRecord`] for a checksummed record of the valid prefix
/// whose payload does not decompress against its segment.
pub fn scan_wal(bytes: &[u8]) -> Result<WalScan, StoreError> {
    let mut r = ByteReader::new(bytes);
    let magic_len = bytes.len().min(WAL_MAGIC.len());
    if bytes[..magic_len] != WAL_MAGIC[..magic_len] {
        return Err(StoreError::Wal(CodecError::BadMagic(WAL)));
    }
    let Ok((version, [fingerprint])) = read_header(&mut r, &WAL) else {
        // A torn header is only acceptable if what *is* there is a prefix
        // of a real header (magic, then version bytes), checked above;
        // anything else is a foreign file.
        return Ok(WalScan {
            fingerprint: None,
            records: Vec::new(),
            tail: WalTail::Truncated { offset: 0, reason: "torn file header".into() },
        });
    };
    WAL.check_version(version).map_err(StoreError::Wal)?;

    let mut records = Vec::new();
    let mut segment = SegmentWindow::default();
    let mut expected_seq: Option<u64> = None;
    let tail = loop {
        let offset = bytes.len() - r.remaining();
        if r.remaining() == 0 {
            break WalTail::Clean;
        }
        let Ok((seq, len, checksum)) = read_record_header(&mut r) else {
            break WalTail::Truncated { offset, reason: "torn record header".into() };
        };
        let Ok(payload) = r.read_bytes(len, "wal record payload") else {
            break WalTail::Truncated {
                offset,
                reason: format!(
                    "torn record payload: header declares {len} bytes, {} remain",
                    r.remaining()
                ),
            };
        };
        if fnv1a64(payload) != checksum {
            break WalTail::Truncated { offset, reason: "record checksum mismatch".into() };
        }
        if let Some(expected) = expected_seq {
            if seq != expected {
                break WalTail::Truncated {
                    offset,
                    reason: format!("sequence gap: expected batch {expected}, found {seq}"),
                };
            }
        } else if seq == 0 {
            break WalTail::Truncated { offset, reason: "batch numbers are 1-based".into() };
        }
        expected_seq = Some(seq + 1);
        let end_offset = bytes.len() - r.remaining();
        let (dictionary, payload) = segment
            .inflate(payload)
            .map_err(|error| StoreError::WalRecord { seq, error })?;
        records.push(WalRecord { seq, payload, dictionary, end_offset });
    };

    Ok(WalScan { fingerprint: Some(fingerprint), records, tail })
}

/// `seq · payload length · payload checksum`.
fn read_record_header(r: &mut ByteReader<'_>) -> Result<(u64, usize, u64), CodecError> {
    Ok((
        r.read_u64("wal record seq")?,
        r.read_u32("wal record payload length")? as usize,
        r.read_u64("wal record checksum")?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wal_with(records: &[(u64, &[u8])]) -> Vec<u8> {
        let mut bytes = encode_wal_header(0xF00D);
        for &(seq, payload) in records {
            bytes.extend_from_slice(&encode_wal_record(seq, payload).unwrap());
        }
        bytes
    }

    #[test]
    fn clean_log_round_trips() {
        let bytes = wal_with(&[(1, b"alpha"), (2, b"beta"), (3, b"")]);
        let scan = scan_wal(&bytes).unwrap();
        assert_eq!(scan.fingerprint, Some(0xF00D));
        assert_eq!(scan.tail, WalTail::Clean);
        assert_eq!(scan.valid_len(), bytes.len());
        assert_eq!(
            scan.records.iter().map(|r| (r.seq, r.payload.clone())).collect::<Vec<_>>(),
            vec![(1, b"alpha".to_vec()), (2, b"beta".to_vec()), (3, Vec::new())]
        );
    }

    #[test]
    fn every_byte_prefix_recovers_a_record_prefix() {
        let bytes = wal_with(&[(1, b"alpha"), (2, b"beta"), (3, b"gamma")]);
        for cut in 0..=bytes.len() {
            let scan = scan_wal(&bytes[..cut])
                .unwrap_or_else(|e| panic!("cut {cut}: unexpected error {e}"));
            assert!(scan.valid_len() <= cut, "cut {cut}: valid prefix exceeds the file");
            // The recovered records must be an exact prefix of the full set.
            for (i, r) in scan.records.iter().enumerate() {
                assert_eq!(r.seq, i as u64 + 1, "cut {cut}");
            }
            if cut == bytes.len() {
                assert_eq!(scan.tail, WalTail::Clean);
                assert_eq!(scan.records.len(), 3);
            } else {
                assert!(
                    matches!(scan.tail, WalTail::Truncated { .. }) || scan.valid_len() == cut,
                    "cut {cut}: lost bytes without reporting truncation"
                );
            }
        }
    }

    #[test]
    fn mid_log_corruption_stops_at_last_valid_record() {
        let mut bytes = wal_with(&[(1, b"alpha"), (2, b"beta"), (3, b"gamma")]);
        // Flip one payload byte of record 2.
        let r2_payload_start = WAL_HEADER_LEN
            + encode_wal_record(1, b"alpha").unwrap().len()
            + WAL_RECORD_HEADER_LEN;
        bytes[r2_payload_start] ^= 0x01;
        let scan = scan_wal(&bytes).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].payload, b"alpha");
        assert!(matches!(
            &scan.tail,
            WalTail::Truncated { reason, .. } if reason.contains("checksum")
        ));
    }

    #[test]
    fn oversized_length_prefix_is_a_truncated_tail_not_an_allocation() {
        let mut bytes = wal_with(&[(1, b"alpha")]);
        let mut record = Vec::new();
        record.extend_from_slice(&2u64.to_le_bytes());
        record.extend_from_slice(&u32::MAX.to_le_bytes());
        record.extend_from_slice(&fnv1a64(b"x").to_le_bytes());
        record.push(b'x');
        bytes.extend_from_slice(&record);
        let scan = scan_wal(&bytes).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(matches!(
            &scan.tail,
            WalTail::Truncated { reason, .. } if reason.contains("torn record payload")
        ));
    }

    #[test]
    fn sequence_gap_and_foreign_headers_are_typed() {
        let bytes = wal_with(&[(1, b"alpha"), (5, b"beta")]);
        let scan = scan_wal(&bytes).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(matches!(
            &scan.tail,
            WalTail::Truncated { reason, .. } if reason.contains("sequence gap")
        ));

        assert!(matches!(scan_wal(b"NOTAWAL\x01rest"), Err(StoreError::Wal(CodecError::BadMagic(WAL)))));
        let mut wrong_version = wal_with(&[]);
        wrong_version[8] = 9;
        assert!(matches!(
            scan_wal(&wrong_version),
            Err(StoreError::Wal(CodecError::UnsupportedVersion { found: 9, .. }))
        ));
    }

    /// `batches` as the records of one segment, numbered from `first_seq`,
    /// each compressed against the ones before it.
    fn segment(first_seq: u64, batches: &[&[u8]]) -> Vec<u8> {
        let mut bytes = Vec::new();
        let mut window = SegmentWindow::default();
        for (seq, raw) in (first_seq..).zip(batches) {
            bytes.extend_from_slice(&frame_record(seq, &window.compress(raw)).unwrap());
            window.push(raw);
        }
        bytes
    }

    #[test]
    fn records_of_a_segment_compress_against_the_ones_before_them() {
        let batch = |i: usize| format!("batch {i}: song, year, Yellow Submarine, 1966; ").repeat(8);
        let batches: Vec<String> = (0..100).map(batch).collect();
        let raw: Vec<&[u8]> = batches.iter().map(String::as_bytes).collect();
        let bytes = [encode_wal_header(0xF00D), segment(1, &raw)].concat();
        let alone: usize = raw.iter().map(|r| encode_wal_record(1, r).unwrap().len()).sum();
        assert!(bytes.len() - WAL_HEADER_LEN < alone / 2, "{} vs {alone}", bytes.len());
        let scan = scan_wal(&bytes).unwrap();
        assert_eq!(scan.tail, WalTail::Clean);
        let payloads: Vec<&[u8]> = scan.records.iter().map(|r| &r.payload[..]).collect();
        assert_eq!(payloads, raw);
        // Each record declares the segment so far, up to the 32 KiB window.
        let mut before = 0;
        for (record, raw) in scan.records.iter().zip(&raw) {
            assert_eq!(record.dictionary, before.min(WINDOW));
            before += raw.len();
        }
        assert!(before > WINDOW);

        // A record declaring no dictionary starts a new segment.
        let two = [encode_wal_header(0xF00D), segment(1, &raw[..3]), segment(4, &raw[3..5])].concat();
        let scan = scan_wal(&two).unwrap();
        let (n0, n1, n3) = (raw[0].len(), raw[1].len(), raw[3].len());
        assert_eq!(scan.records.iter().map(|r| r.dictionary).collect::<Vec<_>>(), [0, n0, n0 + n1, 0, n3]);
        let payloads: Vec<&[u8]> = scan.records.iter().map(|r| &r.payload[..]).collect();
        assert_eq!(payloads, raw[..5]);
    }

    #[test]
    fn a_record_declaring_more_dictionary_than_its_segment_holds_is_refused() {
        // Batch `seq` compressed alone, declaring `declared` bytes of
        // dictionary.
        let overreaching = |seq: u64, declared: u64| {
            let mut w = ByteWriter::new();
            w.write_varint(declared);
            w.write_bytes(&compress(b"beta", &[]));
            frame_record(seq, &w.into_bytes()).unwrap()
        };
        let cases = [
            // Batch 1 declares a dictionary although it starts the log.
            (vec![overreaching(1, 1)], 1),
            // Batch 2 declares one byte more than batch 1 left.
            (vec![encode_wal_record(1, b"alpha").unwrap(), overreaching(2, 6)], 2),
            // Batch 3 declares batch 1's bytes too, though batch 2 started
            // a new segment.
            (vec![segment(1, &[&b"alpha"[..]]), encode_wal_record(2, b"gamma").unwrap(), overreaching(3, 10)], 3),
        ];
        for (records, seq) in cases {
            let bytes = [encode_wal_header(0xF00D), records.concat()].concat();
            match scan_wal(&bytes) {
                Err(StoreError::WalRecord { seq: refused, error: e }) => {
                    assert_eq!(refused, seq);
                    assert!(matches!(e, CodecError::OutOfRange { what: "wal record dictionary length", .. }));
                }
                other => panic!("batch {seq}: {other:?}"),
            }
        }
    }

    #[test]
    fn a_payload_past_the_length_field_is_refused_not_wrapped() {
        assert_eq!(payload_len_field(0).unwrap(), 0);
        assert_eq!(payload_len_field(u32::MAX as usize).unwrap(), u32::MAX);
        let past = u32::MAX as usize + 1;
        assert!(matches!(payload_len_field(past), Err(StoreError::RecordTooLarge { len }) if len == past));
    }
}
