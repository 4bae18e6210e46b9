//! Format pin for the three on-disk formats (model artifact, state
//! checkpoint, write-ahead log).
//!
//! Every byte below is spelled out with scalar writes only — no training,
//! no float arithmetic, so nothing here depends on libm or the platform —
//! and each file is checked three ways: the documented header offsets are
//! read back literally, the production decoder accepts the hand-written
//! bytes and the production encoder reproduces them exactly, and the
//! FNV-1a64 of the whole file equals a pinned constant, generated with the
//! format it pins (artifact version 2, checkpoint version 6, WAL
//! version 4). Every payload is a compressed block, spelled out too, match
//! by match.
//! A change to any of these constants is a format change and needs a
//! version bump, not an edit here.

use ltee_core::{
    decode_corpus, encode_corpus, ArtifactError, CheckpointError, ModelArtifact,
    PipelineCheckpoint,
};
use ltee_ml::codec::{compress, fnv1a64, ByteWriter};
use ltee_store::wal::{encode_wal_header, encode_wal_record};
use ltee_store::{scan_wal, KbStore, StoreError, WalTail};

const ARTIFACT_FNV: u64 = 0x844029b8f8160a6d;
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

/// A raw stream under 16 KiB as its stored block: the varint length (one
/// or two bytes), then per match `(position, offset, length)` a sequence of
/// the literals since the last match, the `u16` offset and the length, then
/// a last sequence of the literals left, if any. A token holds the literal
/// count and the match length minus four; a nibble of 15 is continued in
/// one more byte, after the literals or after the offset, which is all the
/// runs here need.
fn block(raw: &[u8], matches: &[(usize, u16, usize)]) -> Vec<u8> {
    let run_tail = |w: &mut ByteWriter, run: usize| {
        assert!(run < 15 + 255);
        if run >= 15 {
            w.write_u8((run - 15) as u8);
        }
    };
    let token = |w: &mut ByteWriter, literals: usize, match_run: usize| {
        w.write_u8((literals.min(15) as u8) << 4 | match_run.min(15) as u8);
        run_tail(w, literals);
    };
    let mut w = ByteWriter::new();
    assert!(raw.len() < 1 << 14);
    if raw.len() < 128 {
        w.write_u8(raw.len() as u8);
    } else {
        w.write_bytes(&[raw.len() as u8 | 0x80, (raw.len() >> 7) as u8]);
    }
    let mut anchor = 0;
    for &(at, offset, len) in matches {
        token(&mut w, at - anchor, len - 4);
        w.write_bytes(&raw[anchor..at]);
        w.write_bytes(&offset.to_le_bytes());
        run_tail(&mut w, len - 4);
        anchor = at + len;
    }
    if anchor < raw.len() {
        token(&mut w, raw.len() - anchor, 0);
        w.write_bytes(&raw[anchor..]);
    }
    w.into_bytes()
}

/// The greedy match finder's matches in [`artifact_payload`]: zero bytes and
/// repeated weights of the `f64` fields, and the repeated feature-name
/// references.
const ARTIFACT_MATCHES: [(usize, u16, usize); 21] = [
    (34, 1, 5),
    (41, 6, 4),
    (48, 8, 23),
    (75, 8, 4),
    (79, 19, 5),
    (91, 13, 4),
    (98, 34, 7),
    (105, 8, 10),
    (121, 31, 7),
    (132, 17, 4),
    (137, 63, 8),
    (145, 40, 8),
    (155, 66, 8),
    (166, 6, 4),
    (170, 9, 4),
    (174, 28, 7),
    (181, 1, 8),
    (189, 76, 6),
    (198, 125, 8),
    (206, 33, 8),
    (215, 143, 10),
];

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

/// The artifact's string table: the matcher's property, then the feature
/// names in the order the row model first uses them.
const ARTIFACT_STRINGS: [&str; 3] = ["releaseYear", "LABEL", "SAME_TABLE"];

/// `count · f64*`, a float sequence under 128 long.
fn f64s(w: &mut ByteWriter, values: &[f64]) {
    w.write_u8(values.len() as u8);
    for &v in values {
        w.write_f64(v);
    }
}

/// Weighted-average branch of a pairwise model: weights, threshold, then
/// its feature names as references into [`ARTIFACT_STRINGS`].
fn weighted_bytes(w: &mut ByteWriter, weights: &[f64], names: &[u8]) {
    f64s(w, weights);
    w.write_f64(0.5); // threshold
    w.write_u8(names.len() as u8);
    w.write_bytes(names);
}

fn artifact_payload() -> Vec<u8> {
    let mut w = ByteWriter::new();
    string_table(&mut w, &ARTIFACT_STRINGS);
    // MatcherWeights
    w.write_u8(1); // class weights
    w.write_u8(1); // Song
    f64s(&mut w, &[0.125, 0.25, 0.25, 0.25, 0.125]);
    w.write_u8(1); // property thresholds
    w.write_u8(1); // Song
    w.write_u8(0); // "releaseYear"
    w.write_f64(0.25);

    // RowSimilarityModel: metric codes, then the pairwise model
    w.write_bytes(&[2, 0, 5]); // LABEL, SAME_TABLE
    w.write_u8(2); // AggregationMethod::Combined
    w.write_u8(2); // similarities
    w.write_bool(true);
    weighted_bytes(&mut w, &[0.5, 0.5], &[1, 2]);
    w.write_bool(true); // forest
    w.write_bytes(&[1, 4, 2]); // num_trees, max_depth, min_samples_split
    w.write_bool(false); // features_per_split: none
    w.write_f64(1.0); // bootstrap fraction
    w.write_u8(9); // seed
    w.write_bytes(&[2, 1, 2]); // feature names
    w.write_u8(1); // trees
    w.write_u8(3); // nodes
    w.write_bytes(&[1, 0]); // split: feature · threshold · gain · left · right
    w.write_f64(0.5);
    w.write_f64(0.125);
    w.write_bytes(&[1, 2]);
    w.write_u8(0); // leaf
    w.write_f64(-1.0);
    w.write_u8(0);
    w.write_f64(1.0);
    w.write_f64(0.0); // oob error
    w.write_f64(0.5); // combine weight
    w.write_bytes(&[2, 1, 2]); // feature names

    // EntitySimilarityModel
    w.write_bytes(&[1, 0]); // LABEL
    w.write_u8(0); // AggregationMethod::WeightedAverage
    w.write_u8(1); // similarities
    w.write_bool(true);
    weighted_bytes(&mut w, &[1.0], &[1]);
    w.write_bool(false); // no forest
    w.write_f64(1.0);
    w.write_bytes(&[1, 1]); // feature names
    w.into_bytes()
}

#[test]
fn on_disk_formats_are_pinned() {
    // ── model artifact: one header word (config fingerprint) ─────────────
    // The payload is the raw stream stored as one compressed block.
    let raw = artifact_payload();
    let payload = block(&raw, &ARTIFACT_MATCHES);
    assert_eq!(compress(&raw), payload);
    let artifact = framed(b"LTEEART\x01", 2, &[0xA11C_E5ED_0BAD_F00D], &payload);
    assert_eq!(&artifact[0..8], b"LTEEART\x01");
    assert_eq!(u32_at(&artifact, 8), 2);
    assert_eq!(u64_at(&artifact, 12), 0xA11C_E5ED_0BAD_F00D);
    assert_eq!(u64_at(&artifact, 20), payload.len() as u64);
    assert_eq!(u64_at(&artifact, 28), fnv1a64(&payload));
    assert_eq!(&artifact[36..], &payload[..]);
    let decoded = ModelArtifact::decode(&artifact).expect("hand-written artifact decodes");
    assert_eq!(decoded.fingerprint, 0xA11C_E5ED_0BAD_F00D);
    assert_eq!(decoded.encode(), artifact);
    assert_eq!(fnv1a64(&artifact), ARTIFACT_FNV, "artifact bytes: {:#018x}", fnv1a64(&artifact));
    // An intact version-1 envelope is refused by version; its payload,
    // here the raw stream, is never read.
    let version_1 = framed(b"LTEEART\x01", 1, &[0xA11C_E5ED_0BAD_F00D], &raw);
    assert!(matches!(ModelArtifact::decode(&version_1), Err(ArtifactError::UnsupportedVersion(1))));

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
