//! Format pin for the three on-disk formats (model artifact, state
//! checkpoint, write-ahead log).
//!
//! Every byte below is spelled out with scalar writes only — no training,
//! no float arithmetic, so nothing here depends on libm or the platform —
//! and each file is checked three ways: the documented header offsets are
//! read back literally, the production decoder accepts the hand-written
//! bytes and the production encoder reproduces them exactly, and the
//! FNV-1a64 of the whole file equals a pinned constant, generated with the
//! format it pins (artifact version 4, checkpoint version 8, WAL
//! version 6). Every string reference is spelled by recency: `0` for a
//! first use, else the distance back. Every payload is a compressed block,
//! spelled out too, match by match, in fixed-Huffman DEFLATE (RFC 1951
//! §3.2.6) — the block type the encoder picks for streams this small; the
//! second WAL record's block is compressed against the first record's raw
//! batch, and its matches reach into it. Each of these blocks also
//! inflates byte-exact under zlib (the second given the first batch as its
//! `zdict`).
//! A change to any of these constants is a format change and needs a
//! version bump, not an edit here.

use ltee_codec::{compress, ByteWriter};
use ltee_core::{
    decode_corpus, encode_corpus, ArtifactError, CheckpointError, ModelArtifact,
    PipelineCheckpoint,
};
use ltee_intern::fnv1a64;
use ltee_store::wal::encode_wal_header;
use ltee_store::{scan_wal, KbStore, StoreError, WalTail};

#[path = "support/deflate_bits.rs"]
mod deflate_bits;
use deflate_bits::Bits;
#[path = "support/envelope.rs"]
mod envelope;
use envelope::framed;

const ARTIFACT_FNV: u64 = 0x260fee4586e732ab;
const CHECKPOINT_FNV: u64 = 0xd0ebf08efd3d4692;
const WAL_FNV: u64 = 0xa3bd1d999d87bcdf;

fn u32_at(bytes: &[u8], offset: usize) -> u32 {
    u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap())
}

fn u64_at(bytes: &[u8], offset: usize) -> u64 {
    u64::from_le_bytes(bytes[offset..offset + 8].try_into().unwrap())
}

/// The checkpoint's string table: every distinct string once, in the order
/// the sections first use it. The corpus section uses the first five, so
/// they are also the table of a WAL batch that carries the same table.
const STRINGS: [&str; 8] = [
    "song",             // 0  column header
    "Yellow Submarine", // 1  cell
    "",                 // 2
    "year",             // 3
    "1966",             // 4
    "releaseYear",      // 5  the mapping's correspondence
    "yellow",           // 6  Song interner arena
    "submarine",        // 7
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

/// A match of `len` (3–257) bytes `dist` back in the fixed code: its
/// length symbol and extra bits, then its five-bit distance symbol and
/// extra bits. Past the first codes each symbol covers twice the span of
/// the one four (lengths) or two (distances) before it.
fn fixed_match(bits: &mut Bits, len: u32, dist: u32) {
    let v = len - 3;
    if v < 8 {
        bits.fixed_literal(257 + v);
    } else {
        let extra = v.ilog2() - 2;
        bits.fixed_literal(265 + 4 * (extra - 1) + (v >> extra) - 4);
        bits.put(v & ((1 << extra) - 1), extra);
    }
    let v = dist - 1;
    if v < 4 {
        bits.code(v, 5);
    } else {
        let extra = v.ilog2() - 1;
        bits.code(2 * extra + (v >> extra), 5);
        bits.put(v & ((1 << extra) - 1), extra);
    }
}

/// A raw stream under 16 KiB as its stored block: the varint length (one
/// or two bytes), then one final fixed-Huffman DEFLATE block — header bits
/// `1 · 01`, then per match `(position, distance, length)` the literals
/// since the last match and the match, then the literals left and the end
/// of block.
fn block(raw: &[u8], matches: &[(usize, u16, usize)]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    assert!(raw.len() < 1 << 14);
    if raw.len() < 128 {
        w.write_u8(raw.len() as u8);
    } else {
        w.write_bytes(&[raw.len() as u8 | 0x80, (raw.len() >> 7) as u8]);
    }
    let mut bits = Bits::default();
    bits.put(0b011, 3);
    let mut anchor = 0;
    for &(at, dist, len) in matches {
        raw[anchor..at].iter().for_each(|&b| bits.fixed_literal(u32::from(b)));
        fixed_match(&mut bits, len as u32, u32::from(dist));
        anchor = at + len;
    }
    raw[anchor..].iter().for_each(|&b| bits.fixed_literal(u32::from(b)));
    bits.fixed_literal(256);
    w.write_bytes(&bits.finish());
    w.into_bytes()
}

/// The greedy match finder's matches in [`artifact_payload`]: zero bytes and
/// repeated weights of the `f64` fields, and the repeated feature-name
/// references.
const ARTIFACT_MATCHES: [(usize, u16, usize); 22] = [
    (35, 1, 4),
    (41, 8, 6),
    (50, 1, 5),
    (56, 16, 9),
    (65, 8, 8),
    (76, 1, 6),
    (91, 13, 4),
    (99, 6, 4),
    (103, 8, 12),
    (121, 31, 7),
    (137, 63, 8),
    (145, 40, 8),
    (155, 66, 8),
    (166, 6, 4),
    (170, 9, 4),
    (174, 28, 7),
    (181, 1, 8),
    (191, 59, 4),
    (195, 79, 4),
    (199, 62, 7),
    (206, 33, 8),
    (215, 61, 11),
];

/// The greedy match finder's matches in the second WAL batch, against the
/// first (45 bytes) as its dictionary: the string table and the first byte
/// of the corpus, 45 back, then, past the table id, the table's columns.
const SECOND_BATCH_MATCHES: [(usize, u16, usize); 2] = [(0, 45, 35), (36, 45, 9)];

/// The greedy match finder's matches in [`checkpoint_payload`]: "ellow"
/// and "ubmarine" of the Song interner arena, then the zero bytes and
/// the class sections that repeat in the body.
const CHECKPOINT_MATCHES: [(usize, u16, usize); 7] =
    [(48, 40, 5), (55, 40, 8), (84, 1, 5), (91, 9, 4), (98, 21, 4), (105, 38, 4), (113, 23, 5)];

/// Table `id`: two columns, two rows, and nothing else — no ground truth.
/// Every string is a first use (`0`) but the last cell, "", three back.
fn table_bytes(w: &mut ByteWriter, id: u8) {
    w.write_u8(id); // table id
    w.write_u8(2); // columns
    w.write_u8(0); // header "song"
    w.write_bytes(&[2, 0, 0]); // two cells: "Yellow Submarine", ""
    w.write_u8(0); // header "year"
    w.write_bytes(&[2, 0, 3]); // two cells: "1966", "" again
}

fn checkpoint_payload() -> Vec<u8> {
    let mut w = ByteWriter::new();
    string_table(&mut w, &STRINGS);

    w.write_u8(1); // tables
    table_bytes(&mut w, 7);

    // A mapping is the matcher's decisions: the decoder detects the label
    // column and column types again from the table.
    w.write_u8(1); // mappings
    w.write_u8(7); // table id
    w.write_bool(true);
    w.write_u8(1); // class Song
    w.write_u8(2); // correspondences
    w.write_bool(false);
    w.write_bool(true);
    w.write_u8(0); // "releaseYear", first used here
    w.write_u8(3); // DataType::Date
    w.write_f64(0.5);

    w.write_u8(3); // class states, CLASS_KEYS order
    w.write_bytes(&[0; 3]); // GridironFootballPlayer: no strings/clusters/results
    w.write_bytes(&[2, 0, 0]); // Song interner arena: "yellow", "submarine"
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
/// its feature names as references into [`ARTIFACT_STRINGS`], by recency.
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
    f64s(&mut w, &[0.1, 0.2, 0.3, 0.2, 0.2]);
    w.write_u8(1); // property thresholds
    w.write_u8(1); // Song
    w.write_u8(0); // "releaseYear"
    w.write_f64(0.25);

    // RowSimilarityModel: metric codes, then the pairwise model
    w.write_bytes(&[2, 0, 5]); // LABEL, SAME_TABLE
    w.write_u8(2); // AggregationMethod::Combined
    w.write_u8(2); // similarities
    w.write_bool(true);
    weighted_bytes(&mut w, &[0.5, 0.5], &[0, 0]); // LABEL, SAME_TABLE: first uses
    w.write_bool(true); // forest
    w.write_bytes(&[1, 4, 2]); // num_trees, max_depth, min_samples_split
    w.write_bool(false); // features_per_split: none
    w.write_f64(1.0); // bootstrap fraction
    w.write_u8(9); // seed
    w.write_bytes(&[2, 2, 1]); // feature names: LABEL two back, SAME_TABLE one
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
    w.write_bytes(&[2, 2, 1]); // feature names

    // EntitySimilarityModel
    w.write_bytes(&[1, 0]); // LABEL
    w.write_u8(0); // AggregationMethod::WeightedAverage
    w.write_u8(1); // similarities
    w.write_bool(true);
    weighted_bytes(&mut w, &[1.0], &[2]); // LABEL
    w.write_bool(false); // no forest
    w.write_f64(1.0);
    w.write_bytes(&[1, 2]); // feature names: LABEL
    w.into_bytes()
}

/// `seq · payload length (u32) · checksum · payload`, a WAL record
/// written out literally.
fn wal_record(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.write_u64(seq);
    w.write_u32(payload.len() as u32);
    w.write_u64(fnv1a64(payload));
    w.write_bytes(payload);
    w.into_bytes()
}

/// A WAL batch: the first five [`STRINGS`] as its table, then table `id`.
fn batch_bytes(id: u8) -> Vec<u8> {
    let mut w = ByteWriter::new();
    string_table(&mut w, &STRINGS[..5]);
    w.write_u8(1); // tables
    table_bytes(&mut w, id);
    w.into_bytes()
}

#[test]
fn on_disk_formats_are_pinned() {
    // ── model artifact: one header word (config fingerprint) ─────────────
    // The payload is the raw stream stored as one compressed block.
    let raw = artifact_payload();
    let payload = block(&raw, &ARTIFACT_MATCHES);
    assert_eq!(compress(&raw, &[]), payload);
    let artifact = framed(b"LTEEART\x01", 4, &[0xA11C_E5ED_0BAD_F00D], &payload);
    assert_eq!(&artifact[0..8], b"LTEEART\x01");
    assert_eq!(u32_at(&artifact, 8), 4);
    assert_eq!(u64_at(&artifact, 12), 0xA11C_E5ED_0BAD_F00D);
    assert_eq!(u64_at(&artifact, 20), payload.len() as u64);
    assert_eq!(u64_at(&artifact, 28), fnv1a64(&payload));
    assert_eq!(&artifact[36..], &payload[..]);
    let decoded = ModelArtifact::decode(&artifact).expect("hand-written artifact decodes");
    assert_eq!(decoded.fingerprint, 0xA11C_E5ED_0BAD_F00D);
    assert_eq!(decoded.encode(), artifact);
    assert_eq!(fnv1a64(&artifact), ARTIFACT_FNV, "artifact bytes: {:#018x}", fnv1a64(&artifact));
    // Intact envelopes of versions 1 to 3 are refused by version; the
    // payload is never read.
    for version in [1, 2, 3] {
        let old = framed(b"LTEEART\x01", version, &[0xA11C_E5ED_0BAD_F00D], &payload);
        let refused = ModelArtifact::decode(&old);
        assert!(matches!(refused, Err(ArtifactError::UnsupportedVersion(v)) if v == version));
    }

    // ── state checkpoint: two header words (fingerprint, applied batches) ─
    // The payload is the raw stream stored as one compressed block.
    let raw = checkpoint_payload();
    let payload = block(&raw, &CHECKPOINT_MATCHES);
    assert_eq!(compress(&raw, &[]), payload);
    let checkpoint = framed(b"LTEECKP\x01", 8, &[0x0123_4567_89AB_CDEF, 5], &payload);
    assert_eq!(&checkpoint[0..8], b"LTEECKP\x01");
    assert_eq!(u32_at(&checkpoint, 8), 8);
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

    // An intact version-7 checkpoint: the same block, under the previous
    // version. The decoder refuses it by version before it reads a
    // payload byte, and the store refuses to open over it rather than skip
    // it as corrupt.
    let version_7 = framed(b"LTEECKP\x01", 7, &[0x0123_4567_89AB_CDEF, 5], &payload);
    assert!(matches!(
        PipelineCheckpoint::decode(&version_7),
        Err(CheckpointError::UnsupportedVersion(7))
    ));
    let dir = std::env::temp_dir().join(format!("ltee-format-pin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(KbStore::checkpoint_path(&dir, 5), &version_7).unwrap();
    assert!(matches!(
        KbStore::open(&dir, 0x0123_4567_89AB_CDEF),
        Err(StoreError::Checkpoint(CheckpointError::UnsupportedVersion(7)))
    ));
    std::fs::remove_dir_all(&dir).unwrap();

    // ── write-ahead log: 20-byte header, then 20-byte record headers ─────
    // A batch is `string table · tables`, the table bytes the checkpoint's
    // corpus section holds. The two batches carry the same table under
    // ids 7 and 8, in one segment: a record payload is `dictionary length ·
    // block`, the first record's against nothing, the second's against the
    // first batch, which it repeats but for one byte.
    let (first_batch, second_batch) = (batch_bytes(7), batch_bytes(8));
    assert_eq!(
        encode_corpus(&decode_corpus(&first_batch).expect("hand-written batch decodes")),
        first_batch
    );
    assert!(first_batch.len() < 128);
    let first = [vec![0], block(&first_batch, &[])].concat();
    let second = [vec![first_batch.len() as u8], block(&second_batch, &SECOND_BATCH_MATCHES)].concat();
    assert_eq!(compress(&second_batch, &first_batch), second[1..]);

    let mut wal = encode_wal_header(0x0123_4567_89AB_CDEF);
    wal.extend_from_slice(&wal_record(1, &first));
    wal.extend_from_slice(&wal_record(2, &second));
    assert_eq!(&wal[0..8], b"LTEEWAL\x01");
    assert_eq!(u32_at(&wal, 8), 6);
    assert_eq!(u64_at(&wal, 12), 0x0123_4567_89AB_CDEF);
    assert_eq!(u64_at(&wal, 20), 1); // record 1: seq · payload length (u32) · checksum · payload
    assert_eq!(u32_at(&wal, 28), first.len() as u32);
    assert_eq!(u64_at(&wal, 32), fnv1a64(&first));
    assert_eq!(&wal[40..40 + first.len()], &first[..]);
    let second_at = 40 + first.len();
    assert_eq!(u64_at(&wal, second_at), 2);
    assert_eq!(u32_at(&wal, second_at + 8), second.len() as u32);
    assert_eq!(u64_at(&wal, second_at + 12), fnv1a64(&second));
    assert_eq!(&wal[second_at + 20..], &second[..]);
    let scan = scan_wal(&wal).expect("hand-built WAL scans");
    assert_eq!(scan.fingerprint, Some(0x0123_4567_89AB_CDEF));
    assert_eq!(scan.tail, WalTail::Clean);
    assert_eq!(
        scan.records.iter().map(|r| (r.seq, &r.payload[..], r.dictionary, r.end_offset)).collect::<Vec<_>>(),
        vec![(1, &first_batch[..], 0, second_at), (2, &second_batch[..], first_batch.len(), wal.len())]
    );
    // A store appending the two batches writes exactly these bytes.
    let dir = std::env::temp_dir().join(format!("ltee-format-pin-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = KbStore::open(&dir, 0x0123_4567_89AB_CDEF).expect("open a fresh store").store;
    store.append_batch(&first_batch).unwrap();
    store.append_batch(&second_batch).unwrap();
    assert!(std::fs::read(KbStore::wal_path(&dir)).unwrap() == wal);
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(fnv1a64(&wal), WAL_FNV, "WAL bytes: {:#018x}", fnv1a64(&wal));

    // A version-5 log, whose records were compressed alone, is refused by
    // its header before any record is read.
    let mut version_5 = wal;
    version_5[8..12].copy_from_slice(&5u32.to_le_bytes());
    assert!(matches!(scan_wal(&version_5), Err(StoreError::UnsupportedWalVersion(5))));
}
