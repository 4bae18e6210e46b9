//! Write-ahead log byte format and torn-tail-tolerant scanner.
//!
//! ## Layout
//!
//! ```text
//! file   = header record*
//! header = magic b"LTEEWAL\x01" (8) · format version (u32 LE) · config fingerprint (u64 LE)
//! record = seq (u64 LE) · payload_len (u32 LE) · payload FNV-1a64 checksum (u64 LE) · payload
//! ```
//!
//! `seq` is the 1-based number of the micro-batch the record carries;
//! records are strictly contiguous (`seq`, `seq+1`, …). The payload is an
//! encoded corpus (`ltee_core::checkpoint::encode_corpus`) — the tables of
//! the batch handed to `ingest`, each its id and columns — in the codec's
//! payload spelling: the record's own string table, then the tables as
//! varints and string references, byte for byte what the checkpoint's
//! corpus section holds — stored as one block of the codec's DEFLATE
//! compressor (`ltee_ml::codec::compress`). The record checksum covers the block as
//! stored, so the scanner verifies a record without decompressing it. A
//! table's ground truth is not written: the pipeline never reads it, so
//! replay needs none. The framing around the payload stays fixed width, so
//! a torn record header is told from a whole one by its length alone.
//!
//! Version 5 stores version 4's raw payload as a DEFLATE block where
//! version 4 stored it in an LZ4-layout block; version 4 compressed
//! version 3's payload, which dropped the ground truth from version 2's;
//! the framing did not change. A log of an older
//! version is refused by its header with
//! [`StoreError::UnsupportedWalVersion`] before any record is
//! read — one payload decoder, and never a decode error halfway through a
//! replay. A checksummed record whose payload still does not decode is
//! [`StoreError::WalRecord`], naming its batch number.
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
//! the applied batches, never an inconsistent interleaving).
//!
//! Header-level damage is different: a wrong magic or version, or a
//! fingerprint minted under another config, means the file is not ours to
//! repair and scanning fails with a hard typed error. The one exception is
//! a *torn header* (shorter than [`WAL_HEADER_LEN`] but a byte-prefix of a
//! valid header) — that is the legitimate crash point during store
//! creation, reported as an empty log with a truncated tail.

use ltee_ml::codec::{fnv1a64, ByteReader, ByteWriter, CodecError};

use crate::StoreError;

/// Magic bytes opening every WAL file.
pub const WAL_MAGIC: [u8; 8] = *b"LTEEWAL\x01";

/// The WAL format version this build writes and reads.
pub const WAL_VERSION: u32 = 5;

/// Size of the WAL file header (magic + version + fingerprint).
pub const WAL_HEADER_LEN: usize = 20;

/// Size of a record header (seq + payload length + checksum).
pub const WAL_RECORD_HEADER_LEN: usize = 20;

/// Encode the WAL file header for a store minted under `fingerprint`.
pub fn encode_wal_header(fingerprint: u64) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.write_bytes(&WAL_MAGIC);
    w.write_u32(WAL_VERSION);
    w.write_u64(fingerprint);
    w.into_bytes()
}

/// Encode one WAL record carrying `payload` as batch number `seq`.
pub fn encode_wal_record(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(WAL_RECORD_HEADER_LEN + payload.len());
    w.write_u64(seq);
    debug_assert!(payload.len() <= u32::MAX as usize, "batch too large for a record");
    w.write_u32(payload.len() as u32);
    w.write_u64(fnv1a64(payload));
    w.write_bytes(payload);
    w.into_bytes()
}

/// One checksummed record recovered from the log's valid prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// 1-based micro-batch number.
    pub seq: u64,
    /// The encoded batch (an `encode_corpus` byte stream).
    pub payload: Vec<u8>,
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
/// [module docs](self): hard typed errors for foreign or incompatible
/// headers, a valid prefix + truncated tail for everything else.
pub fn scan_wal(bytes: &[u8]) -> Result<WalScan, StoreError> {
    let mut r = ByteReader::new(bytes);
    let magic_len = bytes.len().min(WAL_MAGIC.len());
    if bytes[..magic_len] != WAL_MAGIC[..magic_len] {
        return Err(StoreError::BadWalMagic);
    }
    let Ok((version, fingerprint)) = read_header(&mut r) else {
        // A torn header is only acceptable if what *is* there is a prefix
        // of a real header (magic, then version bytes), checked above;
        // anything else is a foreign file.
        return Ok(WalScan {
            fingerprint: None,
            records: Vec::new(),
            tail: WalTail::Truncated { offset: 0, reason: "torn file header".into() },
        });
    };
    if version != WAL_VERSION {
        return Err(StoreError::UnsupportedWalVersion(version));
    }

    let mut records = Vec::new();
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
        records.push(WalRecord { seq, payload: payload.to_vec(), end_offset });
    };

    Ok(WalScan { fingerprint: Some(fingerprint), records, tail })
}

/// `magic · version · fingerprint`; the caller has already compared the
/// magic bytes that are present.
fn read_header(r: &mut ByteReader<'_>) -> Result<(u32, u64), CodecError> {
    r.read_bytes(WAL_MAGIC.len(), "wal magic")?;
    Ok((r.read_u32("wal version")?, r.read_u64("wal fingerprint")?))
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
            bytes.extend_from_slice(&encode_wal_record(seq, payload));
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
            + (WAL_RECORD_HEADER_LEN + 5) // record 1
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

        assert!(matches!(scan_wal(b"NOTAWAL\x01rest"), Err(StoreError::BadWalMagic)));
        let mut wrong_version = wal_with(&[]);
        wrong_version[8] = 9;
        assert!(matches!(
            scan_wal(&wrong_version),
            Err(StoreError::UnsupportedWalVersion(9))
        ));
    }
}
