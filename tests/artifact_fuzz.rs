//! Deterministic fuzz-style corpora for the payload decoders: 200
//! systematically corrupted, truncated and bit-flipped model artifacts and
//! 200 state checkpoints must all be rejected with a typed error — never a
//! panic, never an attempt to honour a corrupted length prefix with a huge
//! allocation.
//!
//! Both payloads are a string-table stream stored as one compressed block,
//! and both corpora are made of six families (all of which *must* fail:
//! the header validation or the bounds-checked payload decoders have no
//! legitimate success path for them):
//!
//! 1. truncations of the whole file at 40 evenly spaced lengths,
//! 2. single bit flips at 64 evenly spaced positions,
//! 3. byte substitutions (0x00 / 0xFF) at 32 evenly spaced positions,
//! 4. seeded-random garbage buffers (13 artifacts, 15 checkpoints),
//! 5. truncations of the raw stream at 40 evenly spaced lengths, stored in
//!    a valid block **with the header re-fixed** (length and checksum
//!    recomputed), so the corruption reaches the model or state decoders
//!    instead of being caught by the checksum or the block decoder,
//! 6. hand-written streams, stored in a valid block, whose only defect is
//!    a string reference past the table, a string table longer than the
//!    stream, references that expand past the stream's budget, and per
//!    format one more — a cluster row gap of zero, or a forest tree
//!    without nodes, a split on a feature the forest does not have, a
//!    split child that does not point forward ([`crafted_checkpoint_stream`],
//!    [`crafted_artifact_stream`]); and hand-written blocks around a valid
//!    stream whose only defect is in the block: offset 0, an offset past
//!    the output, a literal run past the block, a match past the declared
//!    length, or a declared length past the expansion limit
//!    ([`crafted_block`]).
//!
//! Families 2 and 3 skip the opaque header words (the config fingerprint,
//! and a checkpoint's applied-batch count): any value decodes — they are
//! checked against the serve config and the WAL later, not at decode time.
//!
//! An additional exploratory family per format (varint bombs: four `0xFF`
//! bytes spliced into the raw stream at 32 positions, stored and sealed
//! again) is allowed to decode when the splice lands inside an `f64` or a
//! string, but must never panic and must reject oversized collections via
//! `LengthOverflow` rather than allocating gigabytes.
//!
//! A 100-case corpus mutates a write-ahead log, where the contract is
//! different — the scanner must never panic and must always recover a
//! strict prefix of the original records (mid-log corruption truncates at
//! the last valid record rather than rejecting the file).
//!
//! Deterministic: fixed seed 2718 for the model training, ChaCha-seeded
//! garbage. Expected runtime: ~40 s in debug (two training runs; the
//! decodes are microseconds each).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use ltee_core::artifact::{ARTIFACT_MAGIC, ARTIFACT_VERSION};
use ltee_core::checkpoint::{CHECKPOINT_MAGIC, CHECKPOINT_VERSION};
use ltee_core::prelude::*;
use ltee_ml::codec::{
    compress, decompress, open, seal, ByteWriter, CodecError, BLOCK_EXPANSION_LIMIT,
    STRING_EXPANSION_LIMIT,
};
use ltee_store::wal::{encode_wal_header, encode_wal_record};
use ltee_store::{scan_wal, WalTail};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Byte range of the config fingerprint in the artifact header (opaque
/// data: changing it cannot make decoding fail).
const FINGERPRINT_BYTES: std::ops::Range<usize> = 12..20;

fn artifact_bytes() -> Vec<u8> {
    let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 2718));
    let corpus = generate_corpus(&world, &CorpusConfig::tiny());
    let golds: Vec<GoldStandard> =
        CLASS_KEYS.iter().map(|&c| GoldStandard::build(&world, &corpus, c)).collect();
    let config = PipelineConfig { parallelism: Parallelism::Threads(1), ..PipelineConfig::fast() };
    let models = train_models(&corpus, world.kb(), &golds, &config).expect("trainable corpus");
    ModelArtifact::new(models, &config).encode()
}

/// Split a valid artifact into its header word (the fingerprint) and its
/// payload. Re-`seal`ing a corrupted payload under the same word gives the
/// corruption a valid envelope, so it reaches the model decoders instead
/// of the checksum check.
fn artifact_parts(valid: &[u8]) -> ([u64; 1], &[u8]) {
    open(&ARTIFACT_MAGIC, ARTIFACT_VERSION, valid).expect("the uncorrupted artifact opens")
}

/// Decode under `catch_unwind`: `Ok(result)` when the decoder returned,
/// `Err(())` when it panicked.
fn decode_caught(bytes: &[u8]) -> Result<Result<ModelArtifact, ArtifactError>, ()> {
    catch_unwind(AssertUnwindSafe(|| ModelArtifact::decode(bytes))).map_err(|_| ())
}

/// Offsets 12..28 of a checkpoint header hold the config fingerprint and
/// the applied-batch count — both opaque stored data (validated against
/// the config / the WAL later, not at decode time), so flip/substitution
/// families skip them.
const CHECKPOINT_OPAQUE_BYTES: std::ops::Range<usize> = 12..28;

/// One trained serve run, shared by the durability fuzz tests: the encoded
/// checkpoint after three ingested micro-batches, plus the WAL those
/// batches would have written.
fn durability_bytes() -> &'static (Vec<u8>, Vec<u8>) {
    static BYTES: OnceLock<(Vec<u8>, Vec<u8>)> = OnceLock::new();
    BYTES.get_or_init(|| {
        let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 2718));
        let corpus = generate_corpus(&world, &CorpusConfig::tiny());
        let golds: Vec<GoldStandard> =
            CLASS_KEYS.iter().map(|&c| GoldStandard::build(&world, &corpus, c)).collect();
        let config =
            PipelineConfig { parallelism: Parallelism::Threads(1), ..PipelineConfig::fast() };
        let models = train_models(&corpus, world.kb(), &golds, &config).expect("trainable corpus");
        let mut pipeline = IncrementalPipeline::new(world.kb(), models, config.clone());
        let mut wal = encode_wal_header(ltee_core::config_fingerprint(&config));
        for (i, batch) in corpus.split_into_batches(3).iter().enumerate() {
            wal.extend_from_slice(&encode_wal_record(
                i as u64 + 1,
                &ltee_core::encode_corpus(batch),
            ));
            pipeline.ingest(batch).expect("fresh table ids");
        }
        (pipeline.checkpoint(3).encode(), wal)
    })
}

/// Split a valid checkpoint into its header words (fingerprint, applied
/// batches) and payload, for re-`seal`ing like [`artifact_parts`].
fn checkpoint_parts(valid: &[u8]) -> ([u64; 2], &[u8]) {
    open(&CHECKPOINT_MAGIC, CHECKPOINT_VERSION, valid).expect("the uncorrupted checkpoint opens")
}

/// The one thing wrong with a crafted stream.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Defect {
    /// A string reference one past a 3-string table.
    StringIndexOutOfRange,
    /// The string table declares 2⁴⁰ entries.
    TableLongerThanStream,
    /// 256 one-byte references each expand to a 4 KiB string.
    ExpansionBomb,
    /// A checkpoint cluster's second row repeats its first (a row gap of
    /// zero).
    NonAscendingGap,
    /// An artifact forest tree with no nodes.
    EmptyTree,
    /// An artifact forest split on feature 1 of a one-feature forest.
    SplitFeatureOutOfRange,
    /// An artifact forest split whose left child is itself.
    BackwardChild,
}

const CHECKPOINT_DEFECTS: [Defect; 4] = [
    Defect::StringIndexOutOfRange,
    Defect::TableLongerThanStream,
    Defect::ExpansionBomb,
    Defect::NonAscendingGap,
];

const ARTIFACT_DEFECTS: [Defect; 6] = [
    Defect::StringIndexOutOfRange,
    Defect::TableLongerThanStream,
    Defect::ExpansionBomb,
    Defect::EmptyTree,
    Defect::SplitFeatureOutOfRange,
    Defect::BackwardChild,
];

/// A crafted stream's string table, `strings`; under
/// [`Defect::TableLongerThanStream`] its count is 2⁴⁰, and under
/// [`Defect::ExpansionBomb`] its second string is 4 KiB long.
fn crafted_string_table(w: &mut ByteWriter, defect: Option<Defect>, strings: [&str; 3]) {
    let long = "x".repeat(4096);
    w.write_varint(if defect == Some(Defect::TableLongerThanStream) { 1 << 40 } else { 3 });
    for (i, s) in strings.into_iter().enumerate() {
        let s = if i == 1 && defect == Some(Defect::ExpansionBomb) { long.as_str() } else { s };
        w.write_varint(s.len() as u64);
        w.write_bytes(s.as_bytes());
    }
}

/// A minimal checkpoint stream written field by field — one two-row Song
/// table, its mapping, a one-string interner, one cluster, one result.
fn crafted_checkpoint_stream(defect: Option<Defect>) -> Vec<u8> {
    let mut w = ByteWriter::new();
    crafted_string_table(&mut w, defect, ["song", "a", "b"]);
    // corpus: one table, id 1, one column "song" with cells "a", "b"
    w.write_varint(1);
    w.write_varint(1);
    w.write_varint(1);
    w.write_varint(0);
    w.write_varint(2);
    w.write_varint(if defect == Some(Defect::StringIndexOutOfRange) { 3 } else { 1 });
    w.write_varint(2);
    // mapping: table 1 is a Song table, no correspondence for its one column
    w.write_varint(1);
    w.write_varint(1);
    w.write_bool(true);
    w.write_u8(ClassKey::Song.code());
    w.write_varint(1); // correspondences
    w.write_bool(false);
    // class sections
    w.write_varint(CLASS_KEYS.len() as u64);
    for class in CLASS_KEYS {
        if class != ClassKey::Song {
            w.write_bytes(&[0; 3]);
            continue;
        }
        // interner strings: "a"
        let arena = if defect == Some(Defect::ExpansionBomb) { 4 * STRING_EXPANSION_LIMIT } else { 1 };
        w.write_varint(arena as u64);
        w.write_bytes(&vec![1; arena]);
        w.write_varint(1); // one cluster of rows 0 and 1
        w.write_varint(2);
        w.write_varint(0);
        w.write_varint(if defect == Some(Defect::NonAscendingGap) { 0 } else { 1 });
        w.write_varint(1); // one result: cluster 0 is new
        w.write_u8(0);
        w.write_f64(0.0);
        w.write_varint(0);
    }
    w.into_bytes()
}

/// [`crafted_checkpoint_stream`] compressed and sealed in a valid envelope,
/// so `defect` is the only thing a decoder can object to.
fn crafted_checkpoint(defect: Option<Defect>) -> Vec<u8> {
    seal(&CHECKPOINT_MAGIC, CHECKPOINT_VERSION, &[7, 1], &compress(&crafted_checkpoint_stream(defect)))
}

/// A minimal artifact stream written field by field: one matcher
/// threshold; a row model scored by a one-feature forest of one
/// three-node tree; an entity model scored by a one-weight average.
fn crafted_artifact_stream(defect: Option<Defect>) -> Vec<u8> {
    let mut w = ByteWriter::new();
    crafted_string_table(&mut w, defect, ["year", "genre", "LABEL"]);
    // MatcherWeights: no class weights; Song thresholds for "genre"
    w.write_varint(0);
    let thresholds = if defect == Some(Defect::ExpansionBomb) { 4 * STRING_EXPANSION_LIMIT } else { 1 };
    w.write_varint(thresholds as u64);
    for _ in 0..thresholds {
        w.write_u8(ClassKey::Song.code());
        w.write_varint(if defect == Some(Defect::StringIndexOutOfRange) { 3 } else { 1 });
        w.write_f64(0.5);
    }
    // RowSimilarityModel: metric LABEL, random-forest aggregation
    w.write_bytes(&[1, 0]);
    w.write_u8(1); // AggregationMethod::RandomForest
    w.write_varint(1); // similarities
    w.write_bool(false); // no weighted average
    w.write_bool(true); // forest
    w.write_bytes(&[1, 4, 2]); // num_trees, max_depth, min_samples_split
    w.write_bool(false); // features_per_split
    w.write_f64(1.0); // bootstrap fraction
    w.write_varint(9); // seed
    w.write_bytes(&[1, 2]); // feature names: "LABEL"
    w.write_varint(1); // trees
    if defect == Some(Defect::EmptyTree) {
        w.write_varint(0);
    } else {
        let feature = if defect == Some(Defect::SplitFeatureOutOfRange) { 1 } else { 0 };
        let left = if defect == Some(Defect::BackwardChild) { 0 } else { 1 };
        w.write_varint(3);
        w.write_bytes(&[1, feature]); // split
        w.write_f64(0.5);
        w.write_f64(0.25);
        w.write_bytes(&[left, 2]);
        for prediction in [-1.0, 1.0] {
            w.write_u8(0); // leaf
            w.write_f64(prediction);
        }
    }
    w.write_f64(0.0); // oob error
    w.write_f64(1.0); // combine weight
    w.write_bytes(&[1, 2]); // feature names
    // EntitySimilarityModel: metric LABEL, weighted-average aggregation
    w.write_bytes(&[1, 0]);
    w.write_u8(0); // AggregationMethod::WeightedAverage
    w.write_varint(1);
    w.write_bool(true);
    w.write_varint(1);
    w.write_f64(1.0); // weight
    w.write_f64(0.5); // threshold
    w.write_bytes(&[1, 2]);
    w.write_bool(false); // no forest
    w.write_f64(1.0);
    w.write_bytes(&[1, 2]);
    w.into_bytes()
}

/// [`crafted_artifact_stream`] compressed and sealed in a valid envelope.
fn crafted_artifact(defect: Option<Defect>) -> Vec<u8> {
    seal(&ARTIFACT_MAGIC, ARTIFACT_VERSION, &[7], &compress(&crafted_artifact_stream(defect)))
}

/// The one thing wrong with a [`crafted_block`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum BlockDefect {
    /// A match at offset 0.
    ZeroOffset,
    /// A match reaching back past the one byte produced.
    OffsetPastOutput,
    /// A literal run one byte longer than the rest of the block.
    LiteralsPastBlock,
    /// A match running two bytes past the declared length.
    MatchPastLength,
    /// A declared length one byte past what the block's length allows.
    LengthOverLimit,
}

const BLOCK_DEFECTS: [BlockDefect; 5] = [
    BlockDefect::ZeroOffset,
    BlockDefect::OffsetPastOutput,
    BlockDefect::LiteralsPastBlock,
    BlockDefect::MatchPastLength,
    BlockDefect::LengthOverLimit,
];

/// A block sequence as `compress` writes one: the token, each run's
/// continuation bytes, the literals, the offset.
fn sequence(w: &mut ByteWriter, literals: &[u8], matched: Option<(u16, usize)>) {
    let run_tail = |w: &mut ByteWriter, run: usize| {
        if let Some(mut rest) = run.checked_sub(15) {
            while rest >= 255 {
                w.write_u8(255);
                rest -= 255;
            }
            w.write_u8(rest as u8);
        }
    };
    let match_run = matched.map_or(0, |(_, len)| len - 4);
    w.write_u8((literals.len().min(15) as u8) << 4 | match_run.min(15) as u8);
    run_tail(w, literals.len());
    w.write_bytes(literals);
    if let Some((offset, _)) = matched {
        w.write_bytes(&offset.to_le_bytes());
        run_tail(w, match_run);
    }
}

/// Bytes of `v` as a varint.
fn varint_len(v: usize) -> usize {
    (1..).find(|&n| n == 10 || v >> (7 * n) == 0).unwrap_or(10)
}

/// The valid stream `raw` in a hand-written block whose one defect is
/// `defect`.
fn crafted_block(raw: &[u8], defect: BlockDefect) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match defect {
        BlockDefect::LengthOverLimit => {
            // The same sequences under the shortest declared length past
            // the limit, counting the bytes that length itself takes.
            let sequences = &compress(raw)[varint_len(raw.len())..];
            let over = |n: usize| BLOCK_EXPANSION_LIMIT * (n + sequences.len()) + 1;
            let declared = over((1..).find(|&n| varint_len(over(n)) == n).unwrap());
            w.write_varint(declared as u64);
            w.write_bytes(sequences);
        }
        _ => {
            w.write_varint(raw.len() as u64);
            match defect {
                BlockDefect::ZeroOffset => sequence(&mut w, &raw[..1], Some((0, 4))),
                BlockDefect::OffsetPastOutput => sequence(&mut w, &raw[..1], Some((2, 4))),
                BlockDefect::LiteralsPastBlock => sequence(&mut w, raw, None),
                _ => sequence(&mut w, &raw[..raw.len() - 2], Some((1, 4))),
            }
        }
    }
    let mut block = w.into_bytes();
    if defect == BlockDefect::LiteralsPastBlock {
        block.pop();
    }
    block
}

/// [`crafted_block`] around the valid [`crafted_checkpoint_stream`],
/// sealed in a valid envelope.
fn crafted_checkpoint_block(defect: BlockDefect) -> Vec<u8> {
    let block = crafted_block(&crafted_checkpoint_stream(None), defect);
    seal(&CHECKPOINT_MAGIC, CHECKPOINT_VERSION, &[7, 1], &block)
}

/// [`crafted_block`] around the valid [`crafted_artifact_stream`], sealed
/// in a valid envelope.
fn crafted_artifact_block(defect: BlockDefect) -> Vec<u8> {
    let block = crafted_block(&crafted_artifact_stream(None), defect);
    seal(&ARTIFACT_MAGIC, ARTIFACT_VERSION, &[7], &block)
}

/// Whether `error` is what a crafted block's `defect` is refused as.
fn is_block_refusal(defect: BlockDefect, error: &CodecError) -> bool {
    match defect {
        BlockDefect::ZeroOffset => *error == CodecError::BlockOffset { offset: 0, produced: 1 },
        BlockDefect::OffsetPastOutput => *error == CodecError::BlockOffset { offset: 2, produced: 1 },
        BlockDefect::LiteralsPastBlock => {
            matches!(error, CodecError::UnexpectedEof { what: "block literals", .. })
        }
        BlockDefect::MatchPastLength => matches!(error, CodecError::BlockOverrun { what: "match", .. }),
        BlockDefect::LengthOverLimit => matches!(
            error,
            CodecError::BlockExpansion { declared, limit } if *declared == *limit as u64 + 1
        ),
    }
}

fn decode_checkpoint_caught(
    bytes: &[u8],
) -> Result<Result<PipelineCheckpoint, CheckpointError>, ()> {
    catch_unwind(AssertUnwindSafe(|| PipelineCheckpoint::decode(bytes))).map_err(|_| ())
}

#[test]
fn two_hundred_corrupted_checkpoints_are_all_rejected_without_panicking() {
    let (valid, _) = durability_bytes();
    assert!(PipelineCheckpoint::decode(valid).is_ok(), "the uncorrupted checkpoint must decode");
    let len = valid.len();
    let (words, payload) = checkpoint_parts(valid);
    assert!(payload.len() > 4096, "fuzz corpus assumes a non-trivial payload, got {}", payload.len());

    let mut corpus: Vec<(String, Vec<u8>)> = Vec::new();

    // 1. Whole-file truncations, 40 evenly spaced lengths in [0, len).
    for i in 0..40 {
        let cut = i * len / 40;
        corpus.push((format!("truncate[..{cut}]"), valid[..cut].to_vec()));
    }

    // 2. Single bit flips at 64 evenly spaced offsets (opaque header bytes
    //    skipped): without a checksum re-fix every flip must be caught by
    //    the header checks or the checksum.
    let mut offset = 0usize;
    let mut flips = 0usize;
    while flips < 64 {
        let pos = offset % len;
        offset += (len / 64).max(1) + 1;
        if CHECKPOINT_OPAQUE_BYTES.contains(&pos) {
            continue;
        }
        let mut bytes = valid.clone();
        let bit = flips % 8;
        bytes[pos] ^= 1 << bit;
        corpus.push((format!("bitflip[{pos}] bit {bit}"), bytes));
        flips += 1;
    }

    // 3. Byte substitutions at 32 evenly spaced offsets, alternating
    //    0x00 / 0xFF (opaque header bytes skipped).
    let mut subs = 0usize;
    let mut offset = 1usize;
    while subs < 32 {
        let pos = offset % len;
        offset += (len / 32).max(1) + 3;
        if CHECKPOINT_OPAQUE_BYTES.contains(&pos) {
            continue;
        }
        let value = if subs.is_multiple_of(2) { 0x00 } else { 0xFF };
        if valid[pos] == value {
            offset += 1;
            continue;
        }
        let mut bytes = valid.clone();
        bytes[pos] = value;
        corpus.push((format!("substitute[{pos}] = {value:#04x}"), bytes));
        subs += 1;
    }

    // 4. Seeded-random garbage of assorted sizes.
    let mut rng = ChaCha8Rng::seed_from_u64(0xF423);
    for i in 0..15 {
        let size = (i * 171) % 4096;
        let bytes: Vec<u8> = (0..size).map(|_| rng.next_u32() as u8).collect();
        corpus.push((format!("garbage #{i} ({size} B)"), bytes));
    }

    // 5. Stream truncations stored in a valid block under a re-fixed
    //    header: block and checksum are sound, so the bounds-checked state
    //    decoders (and the cross-validation of clusters against the decoded
    //    corpus) must reject the short stream.
    let raw = decompress(payload).expect("the uncorrupted checkpoint decompresses");
    for i in 0..40 {
        let cut = i * raw.len() / 40;
        let bytes = seal(&CHECKPOINT_MAGIC, CHECKPOINT_VERSION, &words, &compress(&raw[..cut]));
        corpus.push((format!("stream truncate[..{cut}] (block and checksum fixed)"), bytes));
    }

    // 6. Well-formed but for one field the compact layout must police, or
    //    one field of the block around a valid stream.
    assert!(PipelineCheckpoint::decode(&crafted_checkpoint(None)).is_ok());
    for defect in CHECKPOINT_DEFECTS {
        corpus.push((format!("crafted {defect:?}"), crafted_checkpoint(Some(defect))));
    }
    for defect in BLOCK_DEFECTS {
        corpus.push((format!("crafted block {defect:?}"), crafted_checkpoint_block(defect)));
    }

    assert_eq!(corpus.len(), 200, "the corpus is specified as exactly 200 cases");

    let mut failures: Vec<String> = Vec::new();
    for (label, bytes) in &corpus {
        match decode_checkpoint_caught(bytes) {
            Err(_) => failures.push(format!("{label}: PANICKED")),
            Ok(Ok(_)) => failures.push(format!("{label}: decoded successfully")),
            Ok(Err(_typed_rejection)) => {}
        }
    }
    assert!(
        failures.is_empty(),
        "{} of 200 corrupted checkpoints were not cleanly rejected:\n  {}",
        failures.len(),
        failures.join("\n  ")
    );
}

#[test]
fn checkpoint_length_prefix_bombs_are_typed_rejections() {
    let (valid, _) = durability_bytes();
    let (words, payload) = checkpoint_parts(valid);
    let valid_raw = decompress(payload).expect("the uncorrupted checkpoint decompresses");
    let stored = |raw: &[u8]| seal(&CHECKPOINT_MAGIC, CHECKPOINT_VERSION, &words, &compress(raw));

    // Splice u32::MAX over 4 bytes at 32 evenly spaced offsets of the raw
    // stream and store it again: in the compact layout that is four
    // continuation bytes, so whatever varint the splice lands in becomes
    // enormous. A splice can still land inside a score or a long
    // string-table entry, so a successful decode is tolerated; panics and
    // large allocations are not.
    for i in 0..32 {
        let pos = i * (valid_raw.len() - 4) / 31;
        let mut raw = valid_raw.clone();
        raw[pos..pos + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        if decode_checkpoint_caught(&stored(&raw)).is_err() {
            panic!("length bomb at stream offset {pos} panicked the decoder");
        }
    }

    // The canonical bomb: the first stream bytes are the string-table
    // count — declaring billions of strings must be a typed decode error,
    // not an allocation.
    let mut raw = valid_raw.clone();
    raw[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
    match PipelineCheckpoint::decode(&stored(&raw)) {
        Err(CheckpointError::Decode(_)) => {}
        other => panic!("a length bomb on the first prefix must be a decode error, got {other:?}"),
    }

    // The bombs only the compact layout has, each rejected for its reason.
    for defect in CHECKPOINT_DEFECTS {
        let rejection = PipelineCheckpoint::decode(&crafted_checkpoint(Some(defect))).unwrap_err();
        let as_expected = match defect {
            Defect::StringIndexOutOfRange => matches!(
                rejection,
                CheckpointError::Decode(CodecError::StringIndexOutOfRange { index: 3, table_len: 3, .. })
            ),
            Defect::TableLongerThanStream => matches!(
                rejection,
                CheckpointError::Decode(CodecError::LengthOverflow { what: "string table", .. })
            ),
            Defect::NonAscendingGap => matches!(
                &rejection,
                CheckpointError::Corrupted(why) if why.contains("not ascending")
            ),
            Defect::ExpansionBomb => {
                matches!(rejection, CheckpointError::Decode(CodecError::StringExpansion { .. }))
            }
            _ => unreachable!("not a checkpoint defect"),
        };
        assert!(as_expected, "{defect:?} was rejected as {rejection:?}");
    }

    // The block's own defects, each rejected for its reason before the
    // stream inside is read.
    for defect in BLOCK_DEFECTS {
        let rejection = PipelineCheckpoint::decode(&crafted_checkpoint_block(defect)).unwrap_err();
        let as_expected =
            matches!(&rejection, CheckpointError::Decode(e) if is_block_refusal(defect, e));
        assert!(as_expected, "{defect:?} was rejected as {rejection:?}");
    }
}

/// A real checkpoint's stream and every batch of its log come back from
/// their stored blocks, smaller than they are raw, and compress again to
/// the same bytes.
#[test]
fn stored_blocks_of_a_real_store_round_trip() {
    let (checkpoint, wal) = durability_bytes();
    let (_, payload) = checkpoint_parts(checkpoint);
    let log = scan_wal(wal).expect("the uncorrupted WAL must scan");
    for block in std::iter::once(payload).chain(log.records.iter().map(|r| &r.payload[..])) {
        let raw = decompress(block).expect("a stored block decompresses");
        assert_eq!(compress(&raw), block);
        assert!(block.len() < raw.len(), "{} bytes stored for {} raw", block.len(), raw.len());
    }
}

#[test]
fn one_hundred_mutated_wals_always_recover_a_strict_record_prefix() {
    let (_, valid) = durability_bytes();
    let reference = scan_wal(valid).expect("the uncorrupted WAL must scan");
    assert_eq!(reference.tail, WalTail::Clean);
    assert_eq!(reference.records.len(), 3);
    let len = valid.len();

    let mut corpus: Vec<(String, Vec<u8>)> = Vec::new();

    // 1. Whole-file truncations at 30 evenly spaced lengths — every torn
    //    tail a crash could leave.
    for i in 0..30 {
        let cut = i * len / 30;
        corpus.push((format!("truncate[..{cut}]"), valid[..cut].to_vec()));
    }

    // 2. Single bit flips at 40 evenly spaced offsets, anywhere in the
    //    file (header flips become hard typed errors; body flips must
    //    drop the damaged record and everything after it).
    for i in 0..40 {
        let pos = i * len / 40;
        let mut bytes = valid.clone();
        bytes[pos] ^= 1 << (i % 8);
        corpus.push((format!("bitflip[{pos}] bit {}", i % 8), bytes));
    }

    // 3. Seeded-random garbage (wrong magic, or empty → torn header).
    let mut rng = ChaCha8Rng::seed_from_u64(0xF424);
    for i in 0..15 {
        let size = (i * 313) % 2048;
        let bytes: Vec<u8> = (0..size).map(|_| rng.next_u32() as u8).collect();
        corpus.push((format!("garbage #{i} ({size} B)"), bytes));
    }

    // 4. Oversized length prefixes: splice u32::MAX into each record's
    //    length field and at assorted payload offsets — the scanner must
    //    truncate, never allocate the declared size.
    let mut splices = Vec::new();
    let mut start = ltee_store::wal::WAL_HEADER_LEN;
    for record in &reference.records {
        splices.push(start + 8); // the length field of this record header
        start = record.end_offset;
    }
    let mut pos = 25usize;
    while splices.len() < 15 {
        splices.push(pos % (len - 4));
        pos += (len / 13).max(5);
    }
    for (i, &pos) in splices.iter().enumerate() {
        let mut bytes = valid.clone();
        bytes[pos..pos + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        corpus.push((format!("length splice #{i} at {pos}"), bytes));
    }

    assert_eq!(corpus.len(), 100, "the WAL corpus is specified as exactly 100 cases");

    let mut failures: Vec<String> = Vec::new();
    for (label, bytes) in &corpus {
        match catch_unwind(AssertUnwindSafe(|| scan_wal(bytes))) {
            Err(_) => failures.push(format!("{label}: PANICKED")),
            Ok(Err(_typed_rejection)) => {}
            Ok(Ok(scan)) => {
                // Valid-prefix contract: every recovered record must be
                // byte-identical to the reference record at its position.
                for (i, record) in scan.records.iter().enumerate() {
                    if reference.records.get(i) != Some(record) {
                        failures.push(format!("{label}: record {i} is not a reference prefix"));
                        break;
                    }
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} of 100 mutated WALs broke the recovery contract:\n  {}",
        failures.len(),
        failures.join("\n  ")
    );
}

#[test]
fn mid_log_wal_corruption_recovers_to_the_last_valid_record() {
    let (_, valid) = durability_bytes();
    let reference = scan_wal(valid).unwrap();
    // Corrupt one payload byte of the *middle* record: the scan must keep
    // record 1 exactly and drop records 2 and 3.
    let mid = reference.records[1].end_offset - 1;
    let mut bytes = valid.clone();
    bytes[mid] ^= 0x10;
    let scan = scan_wal(&bytes).unwrap();
    assert_eq!(scan.records.len(), 1);
    assert_eq!(scan.records[0], reference.records[0]);
    assert!(matches!(
        &scan.tail,
        WalTail::Truncated { offset, reason }
            if *offset == reference.records[0].end_offset && reason.contains("checksum")
    ));
}

#[test]
fn two_hundred_corrupted_artifacts_are_all_rejected_without_panicking() {
    let valid = artifact_bytes();
    assert!(ModelArtifact::decode(&valid).is_ok(), "the uncorrupted artifact must decode");
    let len = valid.len();
    let (words, payload) = artifact_parts(&valid);
    let raw = decompress(payload).expect("the uncorrupted artifact decompresses");
    assert!(raw.len() > 4096, "fuzz corpus assumes a non-trivial stream, got {}", raw.len());

    // (case label, corrupted bytes) — built fully deterministically.
    let mut corpus: Vec<(String, Vec<u8>)> = Vec::new();

    // 1. Whole-file truncations, 40 evenly spaced lengths in [0, len).
    for i in 0..40 {
        let cut = i * len / 40;
        corpus.push((format!("truncate[..{cut}]"), valid[..cut].to_vec()));
    }

    // 2. Single bit flips at 64 evenly spaced offsets (fingerprint skipped).
    let mut offset = 0usize;
    let mut flips = 0usize;
    while flips < 64 {
        let pos = offset % len;
        offset += (len / 64).max(1) + 1; // +1 walks the flipped bit around
        if FINGERPRINT_BYTES.contains(&pos) {
            continue;
        }
        let mut bytes = valid.clone();
        let bit = flips % 8;
        bytes[pos] ^= 1 << bit;
        corpus.push((format!("bitflip[{pos}] bit {bit}"), bytes));
        flips += 1;
    }

    // 3. Byte substitutions at 32 evenly spaced offsets (fingerprint
    //    skipped), alternating 0x00 / 0xFF.
    let mut subs = 0usize;
    let mut offset = 1usize;
    while subs < 32 {
        let pos = offset % len;
        offset += (len / 32).max(1) + 3;
        if FINGERPRINT_BYTES.contains(&pos) {
            continue;
        }
        let value = if subs.is_multiple_of(2) { 0x00 } else { 0xFF };
        if valid[pos] == value {
            offset += 1;
            continue; // substitution must actually change the byte
        }
        let mut bytes = valid.clone();
        bytes[pos] = value;
        corpus.push((format!("substitute[{pos}] = {value:#04x}"), bytes));
        subs += 1;
    }

    // 4. Seeded-random garbage of assorted sizes (never a valid artifact:
    //    the 8-byte magic has a 2^-64 collision chance per case, and the
    //    stream is fixed, so the corpus is stable).
    let mut rng = ChaCha8Rng::seed_from_u64(0xF422);
    for i in 0..13 {
        let size = (i * 171) % 4096;
        let bytes: Vec<u8> = (0..size).map(|_| rng.next_u32() as u8).collect();
        corpus.push((format!("garbage #{i} ({size} B)"), bytes));
    }

    // 5. Stream truncations stored in a valid block under a re-fixed
    //    header: block and checksum are sound, so the model decoders
    //    themselves must reject the short stream.
    for i in 0..40 {
        let cut = i * raw.len() / 40;
        let bytes = seal(&ARTIFACT_MAGIC, ARTIFACT_VERSION, &words, &compress(&raw[..cut]));
        corpus.push((format!("stream truncate[..{cut}] (block and checksum fixed)"), bytes));
    }

    // 6. Well-formed but for one field of the stream, or one field of the
    //    block around a valid stream.
    let crafted = ModelArtifact::decode(&crafted_artifact(None)).expect("the crafted artifact decodes");
    assert_eq!(crafted.models.row_model.metric_importances().len(), 1);
    for defect in ARTIFACT_DEFECTS {
        corpus.push((format!("crafted {defect:?}"), crafted_artifact(Some(defect))));
    }
    for defect in BLOCK_DEFECTS {
        corpus.push((format!("crafted block {defect:?}"), crafted_artifact_block(defect)));
    }

    assert_eq!(corpus.len(), 200, "the corpus is specified as exactly 200 cases");

    let mut failures: Vec<String> = Vec::new();
    for (label, bytes) in &corpus {
        match decode_caught(bytes) {
            Err(_) => failures.push(format!("{label}: PANICKED")),
            Ok(Ok(_)) => failures.push(format!("{label}: decoded successfully")),
            Ok(Err(_typed_rejection)) => {}
        }
    }
    assert!(
        failures.is_empty(),
        "{} of 200 corrupted artifacts were not cleanly rejected:\n  {}",
        failures.len(),
        failures.join("\n  ")
    );
}

#[test]
fn length_prefix_bombs_never_panic_and_never_allocate_the_declared_size() {
    let valid = artifact_bytes();
    let (words, payload) = artifact_parts(&valid);
    let valid_raw = decompress(payload).expect("the uncorrupted artifact decompresses");
    let stored = |raw: &[u8]| seal(&ARTIFACT_MAGIC, ARTIFACT_VERSION, &words, &compress(raw));

    // Splice four 0xFF bytes at 32 evenly spaced offsets of the raw stream
    // and store it again: four continuation bytes, so whatever varint the
    // splice lands in becomes enormous, and a count that large must be
    // refused (LengthOverflow / EOF / tag errors) instead of allocated. A
    // splice inside an f64 or a string table entry merely changes a weight
    // or a name, so a successful decode is legitimate there — and then the
    // models are sound: re-encoding them gives bytes that decode to the
    // same artifact.
    for i in 0..32 {
        let pos = i * (valid_raw.len() - 4) / 31;
        let mut raw = valid_raw.clone();
        raw[pos..pos + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        match decode_caught(&stored(&raw)) {
            Err(()) => panic!("length bomb at stream offset {pos} panicked the decoder"),
            Ok(Err(_typed_rejection)) => {}
            Ok(Ok(artifact)) => {
                let reencoded = artifact.encode();
                let again = ModelArtifact::decode(&reencoded).expect("a re-encoded artifact decodes");
                assert_eq!(again.fingerprint, artifact.fingerprint);
                assert_eq!(again.encode(), reencoded, "bomb at {pos}: the re-encoded artifact");
            }
        }
    }

    // The canonical bomb: the first stream bytes are the string-table
    // count, so this one must be a typed rejection.
    let mut raw = valid_raw.clone();
    raw[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
    match ModelArtifact::decode(&stored(&raw)) {
        Err(ArtifactError::Decode(_)) => {}
        other => panic!("a length bomb on the first prefix must be a decode error, got {other:?}"),
    }

}

/// Each crafted defect is refused for its reason. An empty tree and a split
/// on a feature the forest does not have used to decode, and then panic
/// the process that scored pairs with the model or reported its metric
/// importances; a backward child was refused as a bad tag.
#[test]
fn crafted_artifacts_are_rejected_for_their_defect() {
    for defect in ARTIFACT_DEFECTS {
        let rejection = ModelArtifact::decode(&crafted_artifact(Some(defect))).unwrap_err();
        let ArtifactError::Decode(error) = &rejection else {
            panic!("{defect:?} was rejected as {rejection:?}");
        };
        let as_expected = match defect {
            Defect::StringIndexOutOfRange => {
                matches!(error, CodecError::StringIndexOutOfRange { index: 3, table_len: 3, .. })
            }
            Defect::TableLongerThanStream => {
                matches!(error, CodecError::LengthOverflow { what: "string table", .. })
            }
            Defect::ExpansionBomb => matches!(error, CodecError::StringExpansion { .. }),
            Defect::EmptyTree => {
                *error == CodecError::OutOfRange { what: "forest.tree.nodes", value: 0, allowed: 1..u64::MAX }
            }
            Defect::SplitFeatureOutOfRange => {
                *error == CodecError::OutOfRange { what: "forest.node.feature", value: 1, allowed: 0..1 }
            }
            Defect::BackwardChild => {
                *error == CodecError::OutOfRange { what: "forest.node.left", value: 0, allowed: 1..3 }
            }
            Defect::NonAscendingGap => unreachable!("not an artifact defect"),
        };
        assert!(as_expected, "{defect:?} was rejected as {rejection:?}");
    }
    for defect in BLOCK_DEFECTS {
        let rejection = ModelArtifact::decode(&crafted_artifact_block(defect)).unwrap_err();
        let as_expected = matches!(&rejection, ArtifactError::Decode(e) if is_block_refusal(defect, e));
        assert!(as_expected, "{defect:?} was rejected as {rejection:?}");
    }
}
