//! Format pin for the three on-disk formats (model artifact, state
//! checkpoint, write-ahead log).
//!
//! Every byte below is spelled out with scalar writes only — no training,
//! no float arithmetic, so nothing here depends on libm or the platform —
//! and each file is checked three ways: the documented header offsets are
//! read back literally, the production decoder accepts the hand-written
//! bytes and the production encoder reproduces them exactly, and the
//! FNV-1a64 of the whole file equals a pinned constant: the artifact's was
//! generated before the codec consolidation (PR 13), the checkpoint's and
//! the WAL's with the formats they pin (checkpoint version 6, WAL
//! version 4). Their compressed blocks are spelled out too, match by match.
//! A change to any of these constants is a format change and needs a
//! version bump, not an edit here.

use ltee_core::{
    decode_corpus, encode_corpus, CheckpointError, ModelArtifact, PipelineCheckpoint,
};
use ltee_ml::codec::{compress, fnv1a64, ByteWriter};
use ltee_store::wal::{encode_wal_header, encode_wal_record};
use ltee_store::{scan_wal, KbStore, StoreError, WalTail};

const ARTIFACT_FNV: u64 = 0xde7aa557b610faef;
const CHECKPOINT_FNV: u64 = 0x89dc34083876500b;
const WAL_FNV: u64 = 0x23da3cd3d80882fb;

fn u32_at(bytes: &[u8], offset: usize) -> u32 {
    u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap())
}

fn u64_at(bytes: &[u8], offset: usize) -> u64 {
    u64::from_le_bytes(bytes[offset..offset + 8].try_into().unwrap())
}

/// `magic · version · header words · payload length · checksum · payload`,
/// written out literally (this is the layout under test, so it must not
/// come from the code under test).
fn framed(magic: &[u8; 8], version: u32, words: &[u64], payload: &[u8]) -> Vec<u8> {
    let mut out = magic.to_vec();
    out.extend_from_slice(&version.to_le_bytes());
    for word in words {
        out.extend_from_slice(&word.to_le_bytes());
    }
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn strs(w: &mut ByteWriter, values: &[&str]) {
    w.write_u32(values.len() as u32);
    for v in values {
        w.write_str(v);
    }
}

fn f64s(w: &mut ByteWriter, values: &[f64]) {
    w.write_u32(values.len() as u32);
    for &v in values {
        w.write_f64(v);
    }
}

/// The checkpoint's string table: every distinct string once, in the order
/// the sections first use it. The corpus section uses the first six, so
/// they are also the table of the WAL batch that carries the same table.
const STRINGS: [&str; 9] = [
    "song",             // 0  column header
    "Yellow Submarine", // 1  cell
    "",                 // 2
    "year",             // 3
    "1966",             // 4
    "n/a",              // 5
    "releaseYear",      // 6  the mapping's correspondence
    "yellow",           // 7  Song interner arena
    "submarine",        // 8
];

/// `count · (byte length · UTF-8 bytes)*`. Every number below 128 is its
/// own one-byte varint, so the compact layout is spelled with `write_u8`;
/// the few larger ones are written out as their LEB128 bytes.
fn string_table(w: &mut ByteWriter, strings: &[&str]) {
    w.write_u8(strings.len() as u8);
    for s in strings {
        w.write_u8(s.len() as u8);
        w.write_bytes(s.as_bytes());
    }
}

/// A raw stream under 128 bytes as its stored block: the one-byte varint
/// length, then per match `(position, offset, length)` a sequence of the
/// literals since the last match, the `u16` offset and the length, then a
/// last sequence of the literals left, if any. A token holds the literal
/// count (15 or more: 15, continued in one more byte) and the match length
/// minus four, which stays below 15 here.
fn block(raw: &[u8], matches: &[(usize, u16, usize)]) -> Vec<u8> {
    let token = |w: &mut ByteWriter, literals: usize, match_run: usize| {
        assert!(literals < 15 + 255 && match_run < 15);
        w.write_u8((literals.min(15) as u8) << 4 | match_run as u8);
        if literals >= 15 {
            w.write_u8((literals - 15) as u8);
        }
    };
    let mut w = ByteWriter::new();
    w.write_u8(raw.len() as u8);
    let mut anchor = 0;
    for &(at, offset, len) in matches {
        token(&mut w, at - anchor, len - 4);
        w.write_bytes(&raw[anchor..at]);
        w.write_bytes(&offset.to_le_bytes());
        anchor = at + len;
    }
    if anchor < raw.len() {
        token(&mut w, raw.len() - anchor, 0);
        w.write_bytes(&raw[anchor..]);
    }
    w.into_bytes()
}

/// The greedy match finder's matches in [`checkpoint_payload`]: "ellow"
/// and "ubmarine" of the Song interner arena, then the zero bytes and
/// the class sections that repeat in the body.
const CHECKPOINT_MATCHES: [(usize, u16, usize); 7] =
    [(52, 44, 5), (59, 44, 8), (88, 1, 5), (95, 9, 4), (102, 21, 4), (110, 21, 4), (117, 23, 5)];

/// One table: two columns, two rows, and nothing else — no ground truth.
fn table_bytes(w: &mut ByteWriter) {
    w.write_u8(7); // table id
    w.write_u8(2); // columns
    w.write_u8(0); // header "song"
    w.write_bytes(&[2, 1, 2]); // two cells: "Yellow Submarine", ""
    w.write_u8(3); // header "year"
    w.write_bytes(&[2, 4, 5]); // two cells: "1966", "n/a"
}

fn checkpoint_payload() -> Vec<u8> {
    let mut w = ByteWriter::new();
    string_table(&mut w, &STRINGS);

    w.write_u8(1); // tables
    table_bytes(&mut w);

    // A mapping is the matcher's decisions: the decoder detects the label
    // column and column types again from the table.
    w.write_u8(1); // mappings
    w.write_u8(7); // table id
    w.write_bool(true);
    w.write_u8(1); // class Song
    w.write_u8(2); // correspondences
    w.write_bool(false);
    w.write_bool(true);
    w.write_u8(6); // "releaseYear"
    w.write_u8(3); // DataType::Date
    w.write_f64(0.5);

    w.write_u8(3); // class states, CLASS_KEYS order
    w.write_bytes(&[0; 3]); // GridironFootballPlayer: no strings/clusters/results
    w.write_bytes(&[2, 7, 8]); // Song interner arena: "yellow", "submarine"
    w.write_u8(1); // clusters
    w.write_bytes(&[2, 0, 1]); // two rows: row 0, then a gap of 1
    w.write_u8(1); // results, one per cluster in cluster order
    w.write_u8(1); // Existing
    w.write_bytes(&[0xAC, 0x02]); // instance id 300 = 0x2C + (2 << 7)
    w.write_f64(0.875); // best score
    w.write_u8(3); // candidate count
    w.write_bytes(&[0; 3]); // Settlement: empty
    w.into_bytes()
}

/// Weighted-average branch of a pairwise model.
fn weighted_bytes(w: &mut ByteWriter, weights: &[f64], names: &[&str]) {
    f64s(w, weights);
    w.write_f64(0.5); // threshold
    strs(w, names);
}

fn artifact_payload() -> Vec<u8> {
    let mut w = ByteWriter::new();
    // MatcherWeights
    w.write_u32(1); // class weights
    w.write_u8(1); // Song
    f64s(&mut w, &[0.125, 0.25, 0.25, 0.25, 0.125]);
    w.write_u32(1); // property thresholds
    w.write_u8(1);
    w.write_str("releaseYear");
    w.write_f64(0.25);

    // RowSimilarityModel: metric codes, then the pairwise model
    w.write_u32(2);
    w.write_u8(0); // LABEL
    w.write_u8(5); // SAME_TABLE
    w.write_u8(2); // AggregationMethod::Combined
    w.write_u64(2); // similarities
    w.write_bool(true);
    weighted_bytes(&mut w, &[0.5, 0.5], &["LABEL", "SAME_TABLE"]);
    w.write_bool(true); // forest
    w.write_u64(1); // num_trees
    w.write_u64(4); // max_depth
    w.write_u64(2); // min_samples_split
    w.write_bool(false); // features_per_split: flag, then the value slot
    w.write_u64(0);
    w.write_f64(1.0); // bootstrap fraction
    w.write_u64(9); // seed
    w.write_u32(1); // trees
    w.write_u32(3); // nodes
    w.write_u8(1); // split: feature · threshold · gain · left · right
    w.write_u64(0);
    w.write_f64(0.5);
    w.write_f64(0.125);
    w.write_u64(1);
    w.write_u64(2);
    w.write_u8(0); // leaf
    w.write_f64(-1.0);
    w.write_u8(0);
    w.write_f64(1.0);
    strs(&mut w, &["LABEL", "SAME_TABLE"]);
    w.write_f64(0.0); // oob error
    w.write_f64(0.5); // combine weight
    strs(&mut w, &["LABEL", "SAME_TABLE"]);

    // EntitySimilarityModel
    w.write_u32(1);
    w.write_u8(0); // LABEL
    w.write_u8(0); // AggregationMethod::WeightedAverage
    w.write_u64(1);
    w.write_bool(true);
    weighted_bytes(&mut w, &[1.0], &["LABEL"]);
    w.write_bool(false); // no forest
    w.write_f64(1.0);
    strs(&mut w, &["LABEL"]);
    w.into_bytes()
}

#[test]
fn on_disk_formats_are_pinned() {
    // ── model artifact: one header word (config fingerprint) ─────────────
    let payload = artifact_payload();
    let artifact = framed(b"LTEEART\x01", 1, &[0xA11C_E5ED_0BAD_F00D], &payload);
    assert_eq!(&artifact[0..8], b"LTEEART\x01");
    assert_eq!(u32_at(&artifact, 8), 1);
    assert_eq!(u64_at(&artifact, 12), 0xA11C_E5ED_0BAD_F00D);
    assert_eq!(u64_at(&artifact, 20), payload.len() as u64);
    assert_eq!(u64_at(&artifact, 28), fnv1a64(&payload));
    assert_eq!(&artifact[36..], &payload[..]);
    let decoded = ModelArtifact::decode(&artifact).expect("hand-written artifact decodes");
    assert_eq!(decoded.fingerprint, 0xA11C_E5ED_0BAD_F00D);
    assert_eq!(decoded.encode(), artifact);
    assert_eq!(fnv1a64(&artifact), ARTIFACT_FNV, "artifact bytes: {:#018x}", fnv1a64(&artifact));

    // ── state checkpoint: two header words (fingerprint, applied batches) ─
    // The payload is the raw stream stored as one compressed block.
    let raw = checkpoint_payload();
    let payload = block(&raw, &CHECKPOINT_MATCHES);
    assert_eq!(compress(&raw), payload);
    let checkpoint = framed(b"LTEECKP\x01", 6, &[0x0123_4567_89AB_CDEF, 5], &payload);
    assert_eq!(&checkpoint[0..8], b"LTEECKP\x01");
    assert_eq!(u32_at(&checkpoint, 8), 6);
    assert_eq!(u64_at(&checkpoint, 12), 0x0123_4567_89AB_CDEF);
    assert_eq!(u64_at(&checkpoint, 20), 5);
    assert_eq!(u64_at(&checkpoint, 28), payload.len() as u64);
    assert_eq!(u64_at(&checkpoint, 36), fnv1a64(&payload));
    assert_eq!(&checkpoint[44..], &payload[..]);
    let decoded = PipelineCheckpoint::decode(&checkpoint).expect("hand-written checkpoint decodes");
    assert_eq!((decoded.fingerprint, decoded.applied_batches), (0x0123_4567_89AB_CDEF, 5));
    assert_eq!(decoded.encode(), checkpoint);
    assert_eq!(
        fnv1a64(&checkpoint),
        CHECKPOINT_FNV,
        "checkpoint bytes: {:#018x}",
        fnv1a64(&checkpoint)
    );

    // An intact version-5 checkpoint: the same raw stream, uncompressed.
    // The decoder refuses it by version before it reads a payload byte,
    // and the store refuses to open over it rather than skip it as
    // corrupt.
    let version_5 = framed(b"LTEECKP\x01", 5, &[0x0123_4567_89AB_CDEF, 5], &raw);
    assert!(matches!(
        PipelineCheckpoint::decode(&version_5),
        Err(CheckpointError::UnsupportedVersion(5))
    ));
    let dir = std::env::temp_dir().join(format!("ltee-format-pin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(KbStore::checkpoint_path(&dir, 5), &version_5).unwrap();
    assert!(matches!(
        KbStore::open(&dir, 0x0123_4567_89AB_CDEF),
        Err(StoreError::Checkpoint(CheckpointError::UnsupportedVersion(5)))
    ));
    std::fs::remove_dir_all(&dir).unwrap();

    // ── write-ahead log: 20-byte header, then 20-byte record headers ─────
    // A batch payload is `string table · tables`, the table bytes the
    // checkpoint's corpus section holds.
    // Stored as one block each; neither repeats four bytes.
    let mut raw_batch = ByteWriter::new();
    string_table(&mut raw_batch, &STRINGS[..6]);
    raw_batch.write_u8(1);
    table_bytes(&mut raw_batch);
    let batch = block(&raw_batch.into_bytes(), &[]);
    assert_eq!(encode_corpus(&decode_corpus(&batch).expect("hand-written batch decodes")), batch);
    let empty_batch = block(&[0, 0], &[]); // no strings, no tables
    assert_eq!(empty_batch, [2, 0x20, 0, 0]);

    let mut wal = encode_wal_header(0x0123_4567_89AB_CDEF);
    wal.extend_from_slice(&encode_wal_record(1, &batch));
    wal.extend_from_slice(&encode_wal_record(2, &empty_batch));
    assert_eq!(&wal[0..8], b"LTEEWAL\x01");
    assert_eq!(u32_at(&wal, 8), 4);
    assert_eq!(u64_at(&wal, 12), 0x0123_4567_89AB_CDEF);
    assert_eq!(u64_at(&wal, 20), 1); // record 1: seq · payload length (u32) · checksum · payload
    assert_eq!(u32_at(&wal, 28), batch.len() as u32);
    assert_eq!(u64_at(&wal, 32), fnv1a64(&batch));
    assert_eq!(&wal[40..40 + batch.len()], &batch[..]);
    let second = 40 + batch.len();
    assert_eq!(u64_at(&wal, second), 2);
    assert_eq!(u32_at(&wal, second + 8), empty_batch.len() as u32);
    assert_eq!(u64_at(&wal, second + 12), fnv1a64(&empty_batch));
    assert_eq!(&wal[second + 20..], &empty_batch[..]);
    let scan = scan_wal(&wal).expect("hand-built WAL scans");
    assert_eq!(scan.fingerprint, Some(0x0123_4567_89AB_CDEF));
    assert_eq!(scan.tail, WalTail::Clean);
    assert_eq!(
        scan.records.iter().map(|r| (r.seq, &r.payload[..], r.end_offset)).collect::<Vec<_>>(),
        vec![(1, &batch[..], second), (2, &empty_batch[..], wal.len())]
    );
    assert_eq!(fnv1a64(&wal), WAL_FNV, "WAL bytes: {:#018x}", fnv1a64(&wal));

    // A version-3 log, whose batches were stored uncompressed, is refused
    // by its header before any record is read.
    let mut version_3 = wal;
    version_3[8..12].copy_from_slice(&3u32.to_le_bytes());
    assert!(matches!(scan_wal(&version_3), Err(StoreError::UnsupportedWalVersion(3))));
}
