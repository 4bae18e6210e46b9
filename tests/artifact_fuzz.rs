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
//! 4. seeded-random garbage buffers (3 artifacts, 7 checkpoints),
//! 5. truncations of the raw stream at 40 evenly spaced lengths, stored in
//!    a valid block **with the header re-fixed** (length and checksum
//!    recomputed), so the corruption reaches the model or state decoders
//!    instead of being caught by the checksum or the block decoder,
//! 6. hand-written streams, stored in a valid block, whose only defect is
//!    in a string reference — a first use past the table, a repeat
//!    reaching back past the strings introduced — or in the table: longer
//!    than the stream, an entry the body never introduces, references that
//!    expand past the stream's budget; and per format one more — a cluster
//!    row gap of zero, or a forest tree without nodes, a split on a
//!    feature the forest does not have, a split child that does not point
//!    forward, a row model listing more metrics than its forest has
//!    features, an entity model whose weighted average names another
//!    feature ([`crafted_checkpoint_stream`], [`crafted_artifact_stream`]);
//!    and hand-written DEFLATE blocks around a valid stream whose only
//!    defect is in the block: the reserved block type, a stored block's
//!    `NLEN` that is not its `LEN`'s complement, over-subscribed code
//!    lengths, an incomplete literal/length code, a repeat with no previous
//!    length, literal/length symbol 287, distance symbol 30, a distance
//!    past the output, output past the declared length, bytes after the
//!    final block, or matches into a dictionary a sealed payload does not
//!    have ([`crafted_block`]).
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
//! the last valid record rather than rejecting the file). Its records are
//! one segment, each compressed against the ones before it.
//!
//! A seeded sweep of single bit flips over a real store block holds the
//! block decoder itself to its contract: every flip decodes to exactly the
//! length the block declares, or is a typed error.
//!
//! Deterministic: fixed seed 2718 for the model training, ChaCha-seeded
//! garbage and flips. Expected runtime: ~40 s in debug (two training runs; the
//! decodes are microseconds each).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use ltee_core::artifact::{ARTIFACT_MAGIC, ARTIFACT_VERSION};
use ltee_core::checkpoint::{CHECKPOINT_MAGIC, CHECKPOINT_PAYLOAD_START, CHECKPOINT_VERSION};
use ltee_core::prelude::*;
use ltee_codec::{
    compress, decompress, open, seal, ByteReader, ByteWriter, CodeDefect, CodecError,
    STRING_EXPANSION_LIMIT,
};
use ltee_store::wal::{WAL_HEADER_LEN, WAL_RECORD_HEADER_LEN};
use ltee_store::{scan_wal, KbStore, WalTail};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

#[path = "support/deflate_bits.rs"]
mod deflate_bits;
use deflate_bits::Bits;
#[path = "support/envelope.rs"]
mod envelope;
use envelope::framed;

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
/// raw stream. Re-`seal`ing a corrupted stream under the same word gives
/// the corruption a valid envelope, so it reaches the model decoders
/// instead of the checksum check.
fn artifact_parts(valid: &[u8]) -> ([u64; 1], Vec<u8>) {
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
/// checkpoint after three ingested micro-batches, plus the WAL a store
/// writes for those batches — one segment, each record compressed against
/// the ones before it.
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
        let dir = std::env::temp_dir().join(format!("ltee-artifact-fuzz-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = KbStore::open(&dir, ltee_core::config_fingerprint(&config))
            .expect("open a fresh store")
            .store;
        for batch in corpus.split_into_batches(3) {
            store.append_batch(&ltee_core::encode_corpus(&batch)).expect("append a batch");
            pipeline.ingest(&batch).expect("fresh table ids");
        }
        let wal = std::fs::read(KbStore::wal_path(&dir)).expect("read the log");
        std::fs::remove_dir_all(&dir).expect("remove the store");
        (pipeline.checkpoint(3).encode(), wal)
    })
}

/// Split a valid checkpoint into its header words (fingerprint, applied
/// batches) and raw stream, for re-`seal`ing like [`artifact_parts`].
fn checkpoint_parts(valid: &[u8]) -> ([u64; 2], Vec<u8>) {
    open(&CHECKPOINT_MAGIC, CHECKPOINT_VERSION, valid).expect("the uncorrupted checkpoint opens")
}

/// The stored payload of each record of a scanned `log`, as it lies in
/// the file.
fn stored_payloads<'a>(log: &'a [u8], scan: &ltee_store::WalScan) -> Vec<&'a [u8]> {
    let mut start = WAL_HEADER_LEN;
    scan.records
        .iter()
        .map(|record| {
            let stored = &log[start + WAL_RECORD_HEADER_LEN..record.end_offset];
            start = record.end_offset;
            stored
        })
        .collect()
}

/// The one thing wrong with a crafted stream.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Defect {
    /// A fourth first-use string reference (`0`) to a 3-string table.
    NewStringPastTable,
    /// A repeat reaching four strings back once three are introduced.
    DistancePastCursor,
    /// A fourth table string the body never introduces.
    UnreferencedString,
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
    /// An artifact row model listing LABEL and BOW over a one-feature
    /// forest.
    RowMetricsPastModel,
    /// An artifact entity model over LABEL whose weighted average names
    /// its one feature `genre`.
    EntityWeightedNames,
}

const CHECKPOINT_DEFECTS: [Defect; 6] = [
    Defect::NewStringPastTable,
    Defect::DistancePastCursor,
    Defect::UnreferencedString,
    Defect::TableLongerThanStream,
    Defect::ExpansionBomb,
    Defect::NonAscendingGap,
];

const ARTIFACT_DEFECTS: [Defect; 10] = [
    Defect::NewStringPastTable,
    Defect::DistancePastCursor,
    Defect::UnreferencedString,
    Defect::TableLongerThanStream,
    Defect::ExpansionBomb,
    Defect::EmptyTree,
    Defect::SplitFeatureOutOfRange,
    Defect::BackwardChild,
    Defect::RowMetricsPastModel,
    Defect::EntityWeightedNames,
];

/// A crafted stream's string table, `strings`; under
/// [`Defect::TableLongerThanStream`] its count is 2⁴⁰, under
/// [`Defect::ExpansionBomb`] its second string is 4 KiB long, and under
/// [`Defect::UnreferencedString`] a fourth string follows.
fn crafted_string_table(w: &mut ByteWriter, defect: Option<Defect>, strings: [&str; 3]) {
    let long = "x".repeat(4096);
    let extra = if defect == Some(Defect::UnreferencedString) { &["unused"][..] } else { &[] };
    let count = if defect == Some(Defect::TableLongerThanStream) { 1 << 40 } else { 3 + extra.len() };
    w.write_varint(count as u64);
    for (i, s) in strings.into_iter().chain(extra.iter().copied()).enumerate() {
        let s = if i == 1 && defect == Some(Defect::ExpansionBomb) { long.as_str() } else { s };
        w.write_varint(s.len() as u64);
        w.write_bytes(s.as_bytes());
    }
}

/// A reference to a string already introduced, `distance` back from the
/// cursor — or, under the reference defects, the reference that breaks
/// the table: a first use once every string is introduced, or a distance
/// past the first string.
fn repeat_ref(w: &mut ByteWriter, defect: Option<Defect>, distance: u64) {
    w.write_varint(match defect {
        Some(Defect::NewStringPastTable) => 0,
        Some(Defect::DistancePastCursor) => 4,
        _ => distance,
    });
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
    w.write_varint(0); // "a"
    w.write_varint(0); // "b"
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
        // interner strings: "a", two strings back
        let arena = if defect == Some(Defect::ExpansionBomb) { 4 * STRING_EXPANSION_LIMIT } else { 1 };
        w.write_varint(arena as u64);
        for _ in 0..arena {
            repeat_ref(&mut w, defect, 2);
        }
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
    seal(&CHECKPOINT_MAGIC, CHECKPOINT_VERSION, &[7, 1], &crafted_checkpoint_stream(defect))
}

/// A minimal artifact stream written field by field: two matcher
/// thresholds; a row model scored by a one-feature forest of one
/// three-node tree; an entity model scored by a one-weight average.
fn crafted_artifact_stream(defect: Option<Defect>) -> Vec<u8> {
    let mut w = ByteWriter::new();
    crafted_string_table(&mut w, defect, ["year", "genre", "LABEL"]);
    // MatcherWeights: no class weights; Song thresholds for "year" and
    // "genre", and under the bomb "genre" again and again.
    w.write_varint(0);
    let bomb = if defect == Some(Defect::ExpansionBomb) { 4 * STRING_EXPANSION_LIMIT } else { 0 };
    w.write_varint(2 + bomb as u64);
    for property in std::iter::repeat_n(0, 2).chain(std::iter::repeat_n(1, bomb)) {
        w.write_u8(ClassKey::Song.code());
        w.write_varint(property);
        w.write_f64(0.5);
    }
    // RowSimilarityModel: metric LABEL (and BOW under its defect),
    // random-forest aggregation
    if defect == Some(Defect::RowMetricsPastModel) {
        w.write_bytes(&[2, 0, 1]);
    } else {
        w.write_bytes(&[1, 0]);
    }
    w.write_u8(1); // AggregationMethod::RandomForest
    w.write_varint(1); // similarities
    w.write_bool(false); // no weighted average
    w.write_bool(true); // forest
    w.write_bytes(&[1, 4, 2]); // num_trees, max_depth, min_samples_split
    w.write_bool(false); // features_per_split
    w.write_f64(1.0); // bootstrap fraction
    w.write_varint(9); // seed
    w.write_bytes(&[1, 0]); // feature names: "LABEL", introduced
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
    w.write_bytes(&[1, 1]); // feature names: "LABEL", one back
    // EntitySimilarityModel: metric LABEL, weighted-average aggregation
    w.write_bytes(&[1, 0]);
    w.write_u8(0); // AggregationMethod::WeightedAverage
    w.write_varint(1);
    w.write_bool(true);
    w.write_varint(1);
    w.write_f64(1.0); // weight
    w.write_f64(0.5); // threshold
    // feature names: "LABEL" one back, or "genre" two back
    w.write_bytes(&[1, if defect == Some(Defect::EntityWeightedNames) { 2 } else { 1 }]);
    w.write_bool(false); // no forest
    w.write_f64(1.0);
    w.write_varint(1); // feature names
    repeat_ref(&mut w, defect, 1);
    w.into_bytes()
}

/// [`crafted_artifact_stream`] compressed and sealed in a valid envelope.
fn crafted_artifact(defect: Option<Defect>) -> Vec<u8> {
    seal(&ARTIFACT_MAGIC, ARTIFACT_VERSION, &[7], &crafted_artifact_stream(defect))
}

/// The one thing wrong with a [`crafted_block`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum BlockDefect {
    /// A block of the reserved type 3.
    ReservedType,
    /// A stored block whose `NLEN` is not the complement of its `LEN`.
    StoredLengthMismatch,
    /// A dynamic block whose code-length code gives four symbols one bit.
    OverSubscribedCode,
    /// A dynamic block whose literal/length code leaves codes unused.
    IncompleteLiteralCode,
    /// A dynamic block whose first code length repeats the previous one.
    RepeatWithoutLength,
    /// Literal/length symbol 287 of the fixed code.
    LiteralSymbol287,
    /// Distance symbol 30 of the fixed code.
    DistanceSymbol30,
    /// A match reaching back past the one byte produced.
    DistancePastOutput,
    /// The whole stream stored, then one more literal.
    OutputPastLength,
    /// A zero byte after the final block.
    BytesAfterFinalBlock,
    /// The stream compressed against itself as a dictionary, which the
    /// envelope's payload does not have: its first match into it reaches
    /// back before the output.
    MatchIntoAbsentDictionary,
}

const BLOCK_DEFECTS: [BlockDefect; 11] = [
    BlockDefect::ReservedType,
    BlockDefect::StoredLengthMismatch,
    BlockDefect::OverSubscribedCode,
    BlockDefect::IncompleteLiteralCode,
    BlockDefect::RepeatWithoutLength,
    BlockDefect::LiteralSymbol287,
    BlockDefect::DistanceSymbol30,
    BlockDefect::DistancePastOutput,
    BlockDefect::OutputPastLength,
    BlockDefect::BytesAfterFinalBlock,
    BlockDefect::MatchIntoAbsentDictionary,
];

/// The header of a final dynamic block listing 257 literal/length and one
/// distance code length, whose code-length code gives the symbols 0, 1, 2,
/// 7, 8, 16, 17 and 18 three bits each, then the code lengths as
/// `(code-length symbol, repeat extra bits)`.
fn dynamic_header(bits: &mut Bits, runs: &[(u32, u32)]) {
    const SYMBOLS: [u32; 8] = [0, 1, 2, 7, 8, 16, 17, 18];
    const ORDER: [u32; 18] = [16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1];
    bits.put(0b101, 3);
    bits.put(0, 5);
    bits.put(0, 5);
    bits.put(ORDER.len() as u32 - 4, 4);
    for symbol in ORDER {
        bits.put(if SYMBOLS.contains(&symbol) { 3 } else { 0 }, 3);
    }
    for &(symbol, extra) in runs {
        bits.code(SYMBOLS.iter().position(|&s| s == symbol).unwrap() as u32, 3);
        let extra_bits = match symbol {
            16 => 2,
            17 => 3,
            18 => 7,
            _ => 0,
        };
        bits.put(extra, extra_bits);
    }
}

/// The valid stream `raw` in a hand-written block whose one defect is
/// `defect`: its declared length, then a DEFLATE stream.
fn crafted_block(raw: &[u8], defect: BlockDefect) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.write_varint(raw.len() as u64);
    let mut bits = Bits::default();
    // 255 zero code lengths, as 138 + 117.
    let zeros_255 = [(18, 127), (18, 106)];
    match defect {
        BlockDefect::ReservedType => bits.put(0b111, 3),
        BlockDefect::StoredLengthMismatch => {
            let len = raw.len() as u16;
            bits.put(0b001, 8);
            bits.put(u32::from(len), 16);
            bits.put(u32::from(!len ^ 1), 16);
            raw.iter().for_each(|&b| bits.put(u32::from(b), 8));
        }
        BlockDefect::OverSubscribedCode => {
            bits.put(0b101, 3);
            bits.put(0, 14);
            for _ in 0..4 {
                bits.put(1, 3);
            }
        }
        // Literal 0 one bit, end of block two: half a code is missing.
        BlockDefect::IncompleteLiteralCode => {
            dynamic_header(&mut bits, &[&[(1, 0)][..], &zeros_255, &[(2, 0), (1, 0)]].concat())
        }
        BlockDefect::RepeatWithoutLength => {
            dynamic_header(&mut bits, &[&[(16, 0)][..], &zeros_255].concat())
        }
        BlockDefect::LiteralSymbol287 => {
            bits.put(0b011, 3);
            bits.fixed_literal(287);
        }
        BlockDefect::DistanceSymbol30 | BlockDefect::DistancePastOutput => {
            bits.put(0b011, 3);
            bits.fixed_literal(u32::from(raw[0]));
            bits.fixed_literal(257);
            bits.code(if defect == BlockDefect::DistanceSymbol30 { 30 } else { 1 }, 5);
        }
        BlockDefect::OutputPastLength => {
            let len = raw.len() as u16;
            bits.put(0b000, 8);
            bits.put(u32::from(len), 16);
            bits.put(u32::from(!len), 16);
            raw.iter().for_each(|&b| bits.put(u32::from(b), 8));
            bits.put(0b011, 3);
            bits.fixed_literal(0);
        }
        BlockDefect::BytesAfterFinalBlock => {
            let mut block = compress(raw, &[]);
            block.push(0);
            return block;
        }
        BlockDefect::MatchIntoAbsentDictionary => return compress(raw, raw),
    }
    w.write_bytes(&bits.finish());
    w.into_bytes()
}

/// [`crafted_block`] around the valid [`crafted_checkpoint_stream`], as
/// the payload of a valid envelope.
fn crafted_checkpoint_block(defect: BlockDefect) -> Vec<u8> {
    let block = crafted_block(&crafted_checkpoint_stream(None), defect);
    framed(&CHECKPOINT_MAGIC, CHECKPOINT_VERSION, &[7, 1], &block)
}

/// [`crafted_block`] around the valid [`crafted_artifact_stream`], as the
/// payload of a valid envelope.
fn crafted_artifact_block(defect: BlockDefect) -> Vec<u8> {
    let block = crafted_block(&crafted_artifact_stream(None), defect);
    framed(&ARTIFACT_MAGIC, ARTIFACT_VERSION, &[7], &block)
}

/// Whether `error` is what a crafted block's `defect` is refused as.
fn is_block_refusal(defect: BlockDefect, error: &CodecError) -> bool {
    let code = |what, defect| CodecError::BlockCode { what, defect };
    match defect {
        BlockDefect::ReservedType => *error == CodecError::InvalidTag { what: "deflate block type", tag: 3 },
        BlockDefect::StoredLengthMismatch => {
            matches!(error, CodecError::StoredLength { len, nlen } if *len == !*nlen ^ 1)
        }
        BlockDefect::OverSubscribedCode => *error == code("code length code", CodeDefect::OverSubscribed),
        BlockDefect::IncompleteLiteralCode => *error == code("literal/length code", CodeDefect::Incomplete),
        BlockDefect::RepeatWithoutLength => *error == code("code lengths", CodeDefect::RepeatWithoutLength),
        BlockDefect::LiteralSymbol287 => {
            *error == CodecError::OutOfRange { what: "literal/length symbol", value: 287, allowed: 0..286 }
        }
        BlockDefect::DistanceSymbol30 => {
            *error == CodecError::OutOfRange { what: "distance symbol", value: 30, allowed: 0..30 }
        }
        BlockDefect::DistancePastOutput => *error == CodecError::BlockOffset { offset: 2, produced: 1 },
        BlockDefect::OutputPastLength => matches!(error, CodecError::BlockOverrun { what: "literal", .. }),
        BlockDefect::BytesAfterFinalBlock => *error == CodecError::TrailingBytes(1),
        BlockDefect::MatchIntoAbsentDictionary => matches!(error, CodecError::BlockOffset { .. }),
    }
}

/// Whether `error` is what a crafted string-reference `defect` is refused
/// as.
fn is_ref_refusal(defect: Defect, error: &CodecError) -> bool {
    match defect {
        Defect::NewStringPastTable => {
            matches!(error, CodecError::StringIndexOutOfRange { index: 3, table_len: 3, .. })
        }
        Defect::DistancePastCursor => {
            matches!(error, CodecError::StringDistance { distance: 4, cursor: 3, .. })
        }
        Defect::UnreferencedString => {
            *error == CodecError::UnreferencedStrings { referenced: 3, table_len: 4 }
        }
        _ => false,
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
    let (words, raw) = checkpoint_parts(valid);
    let payload = &valid[CHECKPOINT_PAYLOAD_START..];
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
    for i in 0..7 {
        let size = (i * 171) % 4096;
        let bytes: Vec<u8> = (0..size).map(|_| rng.next_u32() as u8).collect();
        corpus.push((format!("garbage #{i} ({size} B)"), bytes));
    }

    // 5. Stream truncations stored in a valid block under a re-fixed
    //    header: block and checksum are sound, so the bounds-checked state
    //    decoders (and the cross-validation of clusters against the decoded
    //    corpus) must reject the short stream.
    for i in 0..40 {
        let cut = i * raw.len() / 40;
        let bytes = seal(&CHECKPOINT_MAGIC, CHECKPOINT_VERSION, &words, &raw[..cut]);
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
    let (words, valid_raw) = checkpoint_parts(valid);
    let stored = |raw: &[u8]| seal(&CHECKPOINT_MAGIC, CHECKPOINT_VERSION, &words, raw);

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
            Defect::NewStringPastTable | Defect::DistancePastCursor | Defect::UnreferencedString => {
                matches!(&rejection, CheckpointError::Decode(e) if is_ref_refusal(defect, e))
            }
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
/// their stored blocks — each record's against the raw batches before it
/// in its segment — smaller than they are raw, and compress again to the
/// same bytes.
#[test]
fn stored_blocks_of_a_real_store_round_trip() {
    let (checkpoint, wal) = durability_bytes();
    let (_, raw) = checkpoint_parts(checkpoint);
    let payload = &checkpoint[CHECKPOINT_PAYLOAD_START..];
    assert_eq!(compress(&raw, &[]), payload);
    assert!(payload.len() < raw.len());

    let log = scan_wal(wal).expect("the uncorrupted WAL must scan");
    let mut segment: Vec<u8> = Vec::new();
    for (record, stored) in log.records.iter().zip(stored_payloads(wal, &log)) {
        let mut r = ByteReader::new(stored);
        let declared = r.read_varint("dictionary length").expect("a dictionary length");
        assert_eq!(declared as usize, segment.len().min(ltee_codec::WINDOW));
        assert_eq!(declared as usize, record.dictionary);
        let block = &stored[stored.len() - r.remaining()..];
        let dictionary = &segment[segment.len() - record.dictionary..];
        assert_eq!(decompress(block, dictionary).as_ref(), Ok(&record.payload));
        assert_eq!(compress(&record.payload, dictionary), block);
        assert!(stored.len() < record.payload.len(), "{} bytes stored for {} raw", stored.len(), record.payload.len());
        // Against its segment, a batch after the first costs less than alone.
        if declared > 0 {
            assert!(block.len() < compress(&record.payload, &[]).len());
        }
        segment.extend_from_slice(&record.payload);
    }
}

/// Single bit flips anywhere in a real store block — the checkpoint's
/// payload — never panic the block decoder: each flipped block inflates to
/// exactly the length it declares, or is refused with a typed error.
#[test]
fn bit_flips_in_a_real_store_block_decode_to_the_declared_length_or_are_refused() {
    let (checkpoint, _) = durability_bytes();
    let payload = &checkpoint[CHECKPOINT_PAYLOAD_START..];
    let mut rng = ChaCha8Rng::seed_from_u64(0xF425);
    let (mut inflated, mut refused) = (0, 0);
    for _ in 0..2000 {
        let bit = rng.next_u64() as usize % (8 * payload.len());
        let mut block = payload.to_vec();
        block[bit / 8] ^= 1 << (bit % 8);
        let declared = ByteReader::new(&block).read_varint("declared length");
        match catch_unwind(AssertUnwindSafe(|| decompress(&block, &[]))) {
            Err(_) => panic!("flipping bit {bit} panicked the block decoder"),
            Ok(Ok(raw)) => {
                assert_eq!(Ok(raw.len() as u64), declared, "flipping bit {bit}");
                inflated += 1;
            }
            Ok(Err(_typed_rejection)) => refused += 1,
        }
    }
    println!("bit flips: {inflated} inflated to the declared length, {refused} refused");
    assert!(refused > 0);
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
    let (words, raw) = artifact_parts(&valid);
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
    for i in 0..3 {
        let size = (i * 171) % 4096;
        let bytes: Vec<u8> = (0..size).map(|_| rng.next_u32() as u8).collect();
        corpus.push((format!("garbage #{i} ({size} B)"), bytes));
    }

    // 5. Stream truncations stored in a valid block under a re-fixed
    //    header: block and checksum are sound, so the model decoders
    //    themselves must reject the short stream.
    for i in 0..40 {
        let cut = i * raw.len() / 40;
        let bytes = seal(&ARTIFACT_MAGIC, ARTIFACT_VERSION, &words, &raw[..cut]);
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
    let (words, valid_raw) = artifact_parts(&valid);
    let stored = |raw: &[u8]| seal(&ARTIFACT_MAGIC, ARTIFACT_VERSION, &words, raw);

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
            Defect::NewStringPastTable | Defect::DistancePastCursor | Defect::UnreferencedString => {
                is_ref_refusal(defect, error)
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
            Defect::RowMetricsPastModel => {
                *error == CodecError::MetricLayout { what: "row_model.metrics", part: "pairwise.num_similarities" }
            }
            Defect::EntityWeightedNames => {
                *error == CodecError::MetricLayout { what: "entity_model.metrics", part: "weighted.feature_names" }
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
