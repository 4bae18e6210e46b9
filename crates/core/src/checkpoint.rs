//! Durable checkpoints of accumulated serve state.
//!
//! [`crate::artifact::ModelArtifact`] (PR 3) made the *models* persistent;
//! this module makes the *accumulated knowledge-base state* persistent: a
//! [`PipelineCheckpoint`] captures everything an [`IncrementalPipeline`]
//! has learned from the stream so far, in the same versioned / checksummed
//! / bounds-checked binary discipline as the artifact format, so a serving
//! process can restart (or a second process can spawn) without re-ingesting
//! the corpus.
//!
//! ## What is persisted vs. rebuilt
//!
//! The checkpoint persists the **model-driven decisions** and rebuilds
//! everything that is a deterministic function of them on restore:
//!
//! * persisted — the accumulated corpus (tables in arrival order, each its
//!   id and columns), the schema matcher's decisions per table (class and
//!   attribute correspondences), and per class the interner arena (every
//!   string, in mint order, so every `Sym` id is reproduced exactly), the
//!   cluster assignments and the new-detection results;
//! * rebuilt — each mapping's label column and detected column types (the
//!   matcher's own [`detect_column_types`] / [`detect_label_attribute`],
//!   functions of the table alone, recomputed as each mapping decodes
//!   after the corpus), row contexts, the prefix blocking index and
//!   per-cluster block keys ([`StreamingClusterer::from_parts`]), frozen
//!   PHI vectors (replayed per table in arrival order), implicit
//!   attributes and KBT scores (both pure functions of corpus + mapping +
//!   frozen KB) — by the same per-class statistics step ingest runs on
//!   every batch — and the fused entities, by the same fusion call ingest
//!   makes on the clusters a batch touches, here over every cluster;
//! * never persisted — a table's generator ground truth
//!   ([`ltee_webtables::TableTruth`]): it is the answer key a run is scored
//!   against, and nothing the served system computes reads it, so ingest
//!   keeps its tables without it and the encoders write the same bytes
//!   with or without it.
//!
//! Fusion reads only a cluster's rows, their tables and mappings and the
//! per-table KBT scores, none of which changes once a table is ingested,
//! so an entity re-fused on restore equals the one ingest fused when its
//! cluster last changed, however many batches ago. New detection stays
//! persisted: it is a model decision that scores against the knowledge
//! base and costs far more than fusion. Skipping schema matching, pair
//! scoring and new detection on restore is what makes cold recovery
//! faster than re-ingesting the corpus (recorded, not asserted:
//! `recover_s` beside `ingest_rows_per_s` in every `kbbench` run,
//! `core.restore_s` in its per-layer metrics); the incremental-equivalence
//! contract (every rebuilt structure is a deterministic function of the
//! persisted decisions) is what makes the restored pipeline
//! **bit-identical** to the one that wrote the checkpoint —
//! `tests/recovery_equivalence.rs` proves it end to end.
//!
//! ## File format (version 8)
//!
//! The envelope of [`ltee_codec`] (see its crate docs) with magic
//! `b"LTEECKP\x01"`, format version 8 and two header words: the config
//! fingerprint ([`config_fingerprint`]) and the applied-batch count
//! (non-empty ingests == snapshot version). [`ltee_codec::seal`] stores the
//! raw stream as one block of the codec's DEFLATE compressor; the envelope's
//! length and checksum cover the block as stored, so a damaged file is
//! refused before anything is decompressed. The raw stream is `string
//! table · corpus · mapping · per-class interner strings / clusters /
//! results`, in the codec's payload spelling: every count, id and index is
//! a LEB128 varint, every string — header, cell, property, interner entry
//! — is a reference into the one string table at the head of the payload
//! (each distinct string once, in first-use order, so the bytes are a
//! function of the state alone), coded by recency: `0` introduces the next
//! table string, a repeat is its distance back. A cluster's ascending row
//! indexes are its first row and the gaps between the rest, and every
//! `f64` is its eight-byte bit pattern. A table is its id and columns; a
//! mapping is its table id, class and correspondences. A result is its
//! outcome, best score and candidate count; the cluster it belongs to is
//! its position. [`CheckpointLayout`] reports the raw bytes of every
//! section, the stored payload's size and how many of the referenced
//! strings are distinct.
//!
//! The per-class sections hold one interner arena per class: each class owns its interner at serve time.
//! The payload remains **logical per-class state only**: no shard layout is
//! ever persisted, so any process can restore a checkpoint under any
//! [`crate::ShardPlan`] (shard and thread counts are both excluded from the
//! config fingerprint).
//!
//! A checkpoint of any other version is refused with
//! [`CheckpointError::UnsupportedVersion`], by version, before a payload
//! byte is read: reading it would mean a second decoder, kept correct and
//! fuzzed for as long as the first, for a store that re-ingesting its
//! source stream rebuilds. The store treats an intact checkpoint of another
//! version as a hard error, never as a corrupt file to skip
//! (`ltee_store::KbStore::open`).
//!
//! Decoding validates magic, version, length and checksum before touching
//! the payload, the block's codes, symbols, distances and lengths are
//! checked against the block and its declared length, every collection length is
//! bounds-checked against the
//! remaining stream and every string reference against the table and the
//! stream's expansion budget (no allocation bombs), and the decoded state is
//! cross-validated (tables well-formed, ids unique, clusters partition the
//! mapped rows in founding order, one result per cluster) before any of it
//! is trusted. Restoring additionally rejects a checkpoint written under a
//! different inference configuration ([`CheckpointError::ConfigMismatch`]).

use std::collections::HashSet;

use ltee_clustering::StreamingClusterer;
use ltee_intern::Interner;
use ltee_kb::{ClassKey, KnowledgeBase, CLASS_KEYS};
use ltee_matching::{
    detect_column_types, detect_label_attribute, AttributeMatch, CorpusMapping, TableMapping,
};
use ltee_codec::{ByteReader, ByteWriter, CodecError, StringTable, StringTableWriter};
use ltee_newdetect::{NewDetectionOutcome, NewDetectionResult};
use ltee_types::DataType;
use ltee_webtables::{Column, Corpus, TableId, WebTable};

use crate::artifact::config_fingerprint;
use crate::incremental::{
    check_capacity, class_rows_in_arrival_order, ClassState, IncrementalPipeline,
};
use crate::pipeline::{PipelineConfig, TrainedModels};

/// Magic bytes opening every checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"LTEECKP\x01";

/// The checkpoint format version this build writes and reads.
pub const CHECKPOINT_VERSION: u32 = 8;

/// Offset where the checkpoint payload starts (after magic, version,
/// fingerprint, applied-batch count, payload length and checksum).
pub const CHECKPOINT_PAYLOAD_START: usize = ltee_codec::sealed_header_len(2);

/// Errors raised while decoding, validating or restoring a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// The input does not start with the checkpoint magic.
    BadMagic,
    /// The file is an intact checkpoint of another format version (it
    /// passes its own length and checksum under the version it declares).
    UnsupportedVersion(u32),
    /// The payload failed its checksum, length or cross-validation check.
    Corrupted(String),
    /// A payload field could not be decoded.
    Decode(CodecError),
    /// The checkpoint was written under a different inference configuration.
    ConfigMismatch {
        /// Fingerprint stored in the checkpoint.
        checkpoint: u64,
        /// Fingerprint of the configuration the caller supplied.
        config: u64,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => {
                write!(f, "not an LTEE state checkpoint (bad magic header)")
            }
            CheckpointError::UnsupportedVersion(v) => write!(
                f,
                "unsupported checkpoint format version {v} (this build reads version {CHECKPOINT_VERSION})"
            ),
            CheckpointError::Corrupted(why) => write!(f, "checkpoint is corrupted: {why}"),
            CheckpointError::Decode(e) => write!(f, "checkpoint payload is malformed: {e}"),
            CheckpointError::ConfigMismatch { checkpoint, config } => write!(
                f,
                "checkpoint was written under a different configuration \
                 (checkpoint fingerprint {checkpoint:#018x}, pipeline config fingerprint {config:#018x}); \
                 recover with the writing process's config or start a fresh store"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::BadMagic => CheckpointError::BadMagic,
            CodecError::UnsupportedVersion(v) => CheckpointError::UnsupportedVersion(v),
            CodecError::Corrupted(why) => CheckpointError::Corrupted(why),
            field => CheckpointError::Decode(field),
        }
    }
}

// ─────────────────────────── table / mapping codecs ──────────────────────
//
// Every encoder takes the stream's string table beside the writer, every
// decoder beside the reader: a string is a varint reference into it.

fn data_type_tag(dt: DataType) -> u8 {
    match dt {
        DataType::Text => 0,
        DataType::NominalString => 1,
        DataType::InstanceReference => 2,
        DataType::Date => 3,
        DataType::Quantity => 4,
        DataType::NominalInteger => 5,
    }
}

fn data_type_from_tag(tag: u8) -> Result<DataType, CodecError> {
    Ok(match tag {
        0 => DataType::Text,
        1 => DataType::NominalString,
        2 => DataType::InstanceReference,
        3 => DataType::Date,
        4 => DataType::Quantity,
        5 => DataType::NominalInteger,
        tag => return Err(CodecError::InvalidTag { what: "data type", tag }),
    })
}

fn class_key_from_code(code: u8) -> Result<ClassKey, CodecError> {
    ClassKey::from_code(code).ok_or(CodecError::InvalidTag { what: "class key", tag: code })
}

/// A table is its id and columns; its ground truth, if any, is not written.
fn encode_table_into<'a>(table: &'a WebTable, strings: &mut StringTableWriter<'a>, w: &mut ByteWriter) {
    w.write_varint(table.id.raw());
    w.write_seq(&table.columns, |w, column| {
        strings.write_ref(w, &column.header);
        w.write_seq(&column.cells, |w, cell| strings.write_ref(w, cell));
    });
}

fn decode_table_from(
    r: &mut ByteReader<'_>,
    strings: &mut StringTable<'_>,
) -> Result<WebTable, CheckpointError> {
    let id = TableId(r.read_varint("table id")?);
    let columns = r.read_seq("table columns", 2, |r| {
        let header = strings.read_ref(r, "column header")?.to_string();
        let cells = r.read_seq("column cells", 1, |r| {
            strings.read_ref(r, "column cell").map(str::to_string)
        })?;
        Ok::<_, CodecError>(Column { header, cells })
    })?;
    let table = WebTable { id, columns, truth: None };
    table
        .validate()
        .map_err(|why| CheckpointError::Corrupted(format!("table {}: {why}", id.raw())))?;
    Ok(table)
}

/// Encode a corpus (tables in arrival order) as the raw stream `string
/// table · tables`. This is the WAL batch payload (`ltee-store`, which
/// compresses it); the checkpoint's corpus section is the same table bytes
/// against the checkpoint's one table, so a replayed batch and a
/// checkpointed corpus go through one table encoder.
pub fn encode_corpus(corpus: &Corpus) -> Vec<u8> {
    let mut strings = StringTableWriter::new();
    let mut body = ByteWriter::new();
    encode_corpus_into(corpus, &mut strings, &mut body);
    strings.into_stream(body)
}

fn encode_corpus_into<'a>(corpus: &'a Corpus, strings: &mut StringTableWriter<'a>, w: &mut ByteWriter) {
    w.write_seq(corpus.tables(), |w, table| encode_table_into(table, strings, w));
}

/// Decode a corpus encoded by [`encode_corpus`]: validate every table and
/// reject duplicate table ids. Requires the stream to be fully consumed.
pub fn decode_corpus(bytes: &[u8]) -> Result<Corpus, CheckpointError> {
    ltee_codec::read_stream(bytes, decode_corpus_from)
}

fn decode_corpus_from(
    r: &mut ByteReader<'_>,
    strings: &mut StringTable<'_>,
) -> Result<Corpus, CheckpointError> {
    let mut seen = HashSet::new();
    let tables = r.read_seq("corpus tables", 2, |r| {
        let table = decode_table_from(r, strings)?;
        if !seen.insert(table.id) {
            return Err(CheckpointError::Corrupted(format!(
                "duplicate table id {} in corpus",
                table.id.raw()
            )));
        }
        Ok(table)
    })?;
    Ok(Corpus::from_tables(tables))
}

/// The stream of a checkpoint after its string table: corpus, mappings,
/// then the per-class sections in [`CLASS_KEYS`] order.
fn decode_state_from(
    r: &mut ByteReader<'_>,
    strings: &mut StringTable<'_>,
) -> Result<(Corpus, Vec<TableMapping>, Vec<ClassDump>), CheckpointError> {
    let corpus = decode_corpus_from(r, strings)?;
    let mut seen = HashSet::new();
    let mappings = r.read_seq("corpus mappings", 3, |r| {
        let mapping = decode_mapping_from(r, strings, &corpus)?;
        if !seen.insert(mapping.table) {
            return Err(CheckpointError::Corrupted(format!(
                "duplicate mapping for table {}",
                mapping.table.raw()
            )));
        }
        Ok(mapping)
    })?;
    let num_classes = r.read_len("class states", 3)?;
    if num_classes != CLASS_KEYS.len() {
        return Err(CheckpointError::Corrupted(format!(
            "checkpoint holds {num_classes} class states, this build has {}",
            CLASS_KEYS.len()
        )));
    }
    // The per-class sections are in CLASS_KEYS order.
    let mut classes = Vec::with_capacity(num_classes);
    for class in CLASS_KEYS {
        let arena = r.read_seq("class interner strings", 1, |r| {
            strings.read_ref(r, "class interner string")
        })?;
        let mut interner =
            Interner::with_capacity(arena.len(), arena.iter().map(|s| s.len()).sum());
        for s in arena {
            let minted = interner.len();
            if interner.intern(s).raw() as usize != minted {
                return Err(CheckpointError::Corrupted(format!(
                    "{class}: interner string {s:?} is stored twice"
                )));
            }
        }
        let clusters = r.read_seq("clusters", 1, decode_cluster_from)?;
        let mut position = 0;
        let results = r.read_seq("results", 10, |r| {
            position += 1;
            decode_result_from(r, position - 1)
        })?;
        classes.push(ClassDump { interner, clusters, results });
    }
    Ok((corpus, mappings, classes))
}

/// A mapping is the matcher's decisions — class and correspondences; the
/// label column and detected types are functions of the table.
fn encode_mapping_into<'a>(mapping: &'a TableMapping, strings: &mut StringTableWriter<'a>, w: &mut ByteWriter) {
    w.write_varint(mapping.table.raw());
    w.write_opt(mapping.class, |w, class| w.write_u8(class.code()));
    w.write_seq(&mapping.correspondences, |w, c| {
        w.write_opt(c.as_ref(), |w, m| {
            strings.write_ref(w, &m.property);
            w.write_u8(data_type_tag(m.data_type));
            w.write_f64(m.score);
        });
    });
}

/// Decode a mapping of a table in the already decoded `corpus`, detecting
/// its label column and column types again as the matcher did.
fn decode_mapping_from(
    r: &mut ByteReader<'_>,
    strings: &mut StringTable<'_>,
    corpus: &Corpus,
) -> Result<TableMapping, CheckpointError> {
    let id = TableId(r.read_varint("mapping table id")?);
    let class = r.read_opt("mapping class flag", |r| {
        class_key_from_code(r.read_u8("mapping class")?)
    })?;
    let correspondences = r.read_seq("mapping correspondences", 1, |r| {
        r.read_opt("correspondence flag", |r| {
            let property = strings.read_ref(r, "correspondence property")?.to_string();
            let data_type = data_type_from_tag(r.read_u8("correspondence data type")?)?;
            let score = r.read_f64("correspondence score")?;
            Ok::<_, CodecError>(AttributeMatch { property, data_type, score })
        })
    })?;
    let table = corpus.table(id).ok_or_else(|| {
        CheckpointError::Corrupted(format!("mapping for table {} outside the corpus", id.raw()))
    })?;
    let detected_types = detect_column_types(table);
    let label_column = detect_label_attribute(table, &detected_types);
    Ok(TableMapping { table: id, class, label_column, detected_types, correspondences })
}

/// A cluster's row indexes, which are strictly ascending: the row count,
/// the first row, then the gap to each following row.
fn encode_cluster_into(cluster: &[usize], w: &mut ByteWriter) {
    w.write_varint(cluster.len() as u64);
    let mut previous = 0;
    for &row in cluster {
        w.write_varint((row - previous) as u64);
        previous = row;
    }
}

fn decode_cluster_from(r: &mut ByteReader<'_>) -> Result<Vec<usize>, CheckpointError> {
    let len = r.read_len("cluster rows", 1)?;
    let mut rows = Vec::with_capacity(len);
    let mut previous = 0usize;
    for i in 0..len {
        let gap = r.read_varint_usize("cluster row gap")?;
        let row = previous.checked_add(gap).filter(|_| i == 0 || gap > 0);
        previous = row
            .ok_or_else(|| CheckpointError::Corrupted("cluster rows are not ascending".into()))?;
        rows.push(previous);
    }
    Ok(rows)
}

/// A detection result without its `entity`, which is the result's position
/// in its class section.
fn encode_result_into(result: &NewDetectionResult, w: &mut ByteWriter) {
    match result.outcome {
        NewDetectionOutcome::New => w.write_u8(0),
        NewDetectionOutcome::Existing(instance) => {
            w.write_u8(1);
            w.write_varint(instance.raw());
        }
    }
    w.write_f64(result.best_score);
    w.write_varint(result.candidate_count as u64);
}

fn decode_result_from(
    r: &mut ByteReader<'_>,
    entity: usize,
) -> Result<NewDetectionResult, CodecError> {
    let outcome = match r.read_u8("result outcome")? {
        0 => NewDetectionOutcome::New,
        1 => NewDetectionOutcome::Existing(ltee_kb::InstanceId(r.read_varint("result instance")?)),
        tag => return Err(CodecError::InvalidTag { what: "detection outcome", tag }),
    };
    let best_score = r.read_f64("result best score")?;
    let candidate_count = r.read_varint_usize("result candidate count")?;
    Ok(NewDetectionResult { entity, outcome, best_score, candidate_count })
}

// ─────────────────────────── the checkpoint itself ───────────────────────

/// The persisted per-class decisions (parallel to [`CLASS_KEYS`]).
#[derive(Debug, Clone)]
struct ClassDump {
    /// The class's interner, every string re-minted in stored order — which
    /// reproduces every `Sym` id of the class exactly.
    interner: Interner,
    clusters: Vec<Vec<usize>>,
    results: Vec<NewDetectionResult>,
}

/// A full checkpoint of [`IncrementalPipeline`] accumulated state, decoded
/// and validated.
///
/// [`IncrementalPipeline::checkpoint`] views a live pipeline's state as a
/// checkpoint and [`CheckpointView::encode`] writes it;
/// [`PipelineCheckpoint::decode`] + [`PipelineCheckpoint::restore`] bring a
/// fresh process back to the exact pre-checkpoint state. See the [module
/// docs](self) for the format and the persisted/rebuilt split.
#[derive(Debug, Clone)]
pub struct PipelineCheckpoint {
    /// Fingerprint of the inference configuration the state was produced
    /// under (see [`config_fingerprint`]).
    pub fingerprint: u64,
    /// Number of non-empty micro-batches applied before the checkpoint was
    /// taken — equals the published snapshot version of the serve layer.
    pub applied_batches: u64,
    /// Corpus and mapping in the types the pipeline holds them in, so
    /// [`PipelineCheckpoint::restore`] moves them instead of copying.
    corpus: Corpus,
    mapping: CorpusMapping,
    classes: Vec<ClassDump>,
}

/// One class's persisted state, borrowed from whoever holds it.
#[derive(Debug, Clone, Copy)]
struct ClassView<'a> {
    interner: &'a Interner,
    clusters: &'a [Vec<usize>],
    results: &'a [NewDetectionResult],
}

/// Everything a checkpoint file holds, borrowed — from a live pipeline
/// ([`IncrementalPipeline::checkpoint`]) or from a decoded checkpoint
/// ([`PipelineCheckpoint::view`]). Encoding copies nothing but the bytes
/// it writes.
#[derive(Debug, Clone)]
pub struct CheckpointView<'a> {
    /// Fingerprint of the inference configuration the state was produced
    /// under (see [`config_fingerprint`]).
    pub fingerprint: u64,
    /// Number of non-empty micro-batches applied so far.
    pub applied_batches: u64,
    corpus: &'a Corpus,
    mapping: &'a CorpusMapping,
    classes: Vec<ClassView<'a>>,
}

/// Where the bytes of one encoded checkpoint payload went, section by
/// section of the raw stream (the per-class sections summed over the
/// classes), what the string table saved, and what compression left.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointLayout {
    /// The string table at the head of the payload.
    pub string_table: usize,
    /// The accumulated corpus.
    pub corpus: usize,
    /// The accumulated schema mapping.
    pub mapping: usize,
    /// Per-class interner arenas (string references in mint order).
    pub interner: usize,
    /// Per-class cluster assignments.
    pub clusters: usize,
    /// Per-class new-detection results.
    pub results: usize,
    /// String references in the payload — the strings a table-less layout
    /// would have written.
    pub strings_written: usize,
    /// Distinct strings, each stored once in the table.
    pub strings_distinct: usize,
    /// The payload as stored: the compressed block.
    stored: usize,
}

impl CheckpointLayout {
    /// Payload bytes in the file: the raw stream compressed.
    pub fn payload_len(&self) -> usize {
        self.stored
    }

    /// Raw stream bytes: the sections plus the one-byte class count.
    pub fn raw_len(&self) -> usize {
        self.string_table
            + self.corpus
            + self.mapping
            + 1
            + self.interner
            + self.clusters
            + self.results
    }
}

impl IncrementalPipeline<'_> {
    /// View the accumulated state as a checkpoint. `applied_batches` is the
    /// number of non-empty batches ingested so far (the serve layer's
    /// snapshot version); the pipeline itself does not track batch
    /// boundaries, so the durability layer supplies it.
    pub fn checkpoint(&self, applied_batches: u64) -> CheckpointView<'_> {
        CheckpointView {
            fingerprint: config_fingerprint(&self.config),
            applied_batches,
            corpus: &self.corpus,
            mapping: &self.mapping,
            classes: self
                .states
                .iter()
                .map(|s| ClassView {
                    interner: &s.interner,
                    clusters: s.clusterer.clusters(),
                    results: &s.results,
                })
                .collect(),
        }
    }
}

impl CheckpointView<'_> {
    /// Encode the checkpoint into its binary file format.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_with_layout().0
    }

    /// [`CheckpointView::encode`], also reporting where the payload's bytes
    /// went.
    pub fn encode_with_layout(&self) -> (Vec<u8>, CheckpointLayout) {
        let mut strings = StringTableWriter::new();
        let mut w = ByteWriter::new();
        let mut layout = CheckpointLayout::default();
        // Bytes `w` grew by since the last call.
        let mut mark = 0;
        let mut grown = |w: &ByteWriter| {
            let added = w.len() - mark;
            mark = w.len();
            added
        };

        encode_corpus_into(self.corpus, &mut strings, &mut w);
        layout.corpus = grown(&w);
        // Canonical byte stream: the mapping lives in a HashMap, so encode
        // it sorted by table id (arrival order is already canonical for
        // everything else).
        let mut mappings: Vec<&TableMapping> = self.mapping.tables().collect();
        mappings.sort_by_key(|m| m.table);
        w.write_seq(&mappings, |w, &mapping| encode_mapping_into(mapping, &mut strings, w));
        layout.mapping = grown(&w);
        w.write_varint(self.classes.len() as u64);
        grown(&w);
        for class in &self.classes {
            w.write_varint(class.interner.len() as u64);
            for (_, s) in class.interner.iter() {
                strings.write_ref(&mut w, s);
            }
            layout.interner += grown(&w);
            w.write_seq(class.clusters, |w, cluster| encode_cluster_into(cluster, w));
            layout.clusters += grown(&w);
            debug_assert!(class.results.iter().enumerate().all(|(i, r)| r.entity == i));
            w.write_seq(class.results, |w, result| encode_result_into(result, w));
            layout.results += grown(&w);
        }
        layout.strings_written = strings.references();
        layout.strings_distinct = strings.len();
        layout.string_table = strings.table_len();
        let bytes = ltee_codec::seal(
            &CHECKPOINT_MAGIC,
            CHECKPOINT_VERSION,
            &[self.fingerprint, self.applied_batches],
            &strings.into_stream(w),
        );
        layout.stored = bytes.len() - CHECKPOINT_PAYLOAD_START;
        (bytes, layout)
    }
}

impl PipelineCheckpoint {
    /// The decoded state as a [`CheckpointView`] — the one thing that
    /// encodes.
    pub fn view(&self) -> CheckpointView<'_> {
        CheckpointView {
            fingerprint: self.fingerprint,
            applied_batches: self.applied_batches,
            corpus: &self.corpus,
            mapping: &self.mapping,
            classes: self
                .classes
                .iter()
                .map(|dump| ClassView {
                    interner: &dump.interner,
                    clusters: &dump.clusters,
                    results: &dump.results,
                })
                .collect(),
        }
    }

    /// Encode the checkpoint into its binary file format.
    pub fn encode(&self) -> Vec<u8> {
        self.view().encode()
    }

    /// Decode and fully validate a checkpoint from bytes.
    ///
    /// Header checks (magic, version, payload length, checksum) run before
    /// any payload byte is interpreted; payload decoding is bounds-checked
    /// throughout; and the decoded state is cross-validated — tables
    /// well-formed with unique ids, mapping entries unique and of tables in
    /// the corpus, and per class the clusters must partition the mapped
    /// rows in founding order with results parallel to clusters. Anything
    /// else is a typed rejection, never a panic.
    pub fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        // The checksum covers the block as stored; it is expanded after.
        let ([fingerprint, applied_batches], raw) =
            ltee_codec::open(&CHECKPOINT_MAGIC, CHECKPOINT_VERSION, bytes)?;
        let (corpus, mappings, classes) = ltee_codec::read_stream(&raw, decode_state_from)?;
        let checkpoint = PipelineCheckpoint {
            fingerprint,
            applied_batches,
            corpus,
            mapping: CorpusMapping::from_tables(mappings),
            classes,
        };
        checkpoint.validate_state()?;
        Ok(checkpoint)
    }

    /// Cross-validate the decoded state: per class, the clusters must
    /// partition the rows of that class's tables exactly once, in founding
    /// order, with one result per cluster. This is what lets
    /// [`StreamingClusterer::from_parts`] assume well-formed inputs.
    fn validate_state(&self) -> Result<(), CheckpointError> {
        for (&class, dump) in CLASS_KEYS.iter().zip(&self.classes) {
            let rows = class_rows_in_arrival_order(&self.corpus, &self.mapping, class);
            if dump.results.len() != dump.clusters.len() {
                return Err(CheckpointError::Corrupted(format!(
                    "{class}: {} clusters but {} results",
                    dump.clusters.len(),
                    dump.results.len()
                )));
            }
            let mut assigned = vec![false; rows.len()];
            let mut previous_founder = None;
            for (ci, cluster) in dump.clusters.iter().enumerate() {
                if cluster.is_empty() {
                    return Err(CheckpointError::Corrupted(format!(
                        "{class}: cluster {ci} is empty"
                    )));
                }
                if previous_founder.is_some_and(|f| cluster[0] <= f) {
                    return Err(CheckpointError::Corrupted(format!(
                        "{class}: clusters are not in founding order at cluster {ci}"
                    )));
                }
                previous_founder = Some(cluster[0]);
                for &row in cluster {
                    if row >= rows.len() {
                        return Err(CheckpointError::Corrupted(format!(
                            "{class}: cluster {ci} references row {row} of {} mapped rows",
                            rows.len()
                        )));
                    }
                    if assigned[row] {
                        return Err(CheckpointError::Corrupted(format!(
                            "{class}: row {row} assigned to more than one cluster"
                        )));
                    }
                    assigned[row] = true;
                }
            }
            if let Some(unassigned) = assigned.iter().position(|&a| !a) {
                return Err(CheckpointError::Corrupted(format!(
                    "{class}: mapped row {unassigned} is in no cluster"
                )));
            }
        }
        Ok(())
    }

    /// Check that `config` matches the configuration the checkpoint's state
    /// was produced under.
    pub fn verify_config(&self, config: &PipelineConfig) -> Result<(), CheckpointError> {
        let fingerprint = config_fingerprint(config);
        if fingerprint == self.fingerprint {
            Ok(())
        } else {
            Err(CheckpointError::ConfigMismatch { checkpoint: self.fingerprint, config: fingerprint })
        }
    }

    /// Restore an [`IncrementalPipeline`] to the exact state it had when
    /// the checkpoint was captured — bit-identical, including every `Sym`
    /// id and every `f64` bit pattern.
    ///
    /// Rebuilds the derived state (contexts, blocking, PHI, implicit
    /// attributes, KBT scores, fused entities) from the persisted
    /// decisions; see the [module docs](self). Fails with
    /// [`CheckpointError::ConfigMismatch`] when `config` differs from the
    /// writing process's config, and with [`CheckpointError::Corrupted`]
    /// when the rebuild detects an inconsistency the structural validation
    /// could not (vocabulary missing from the persisted interner).
    ///
    /// Consumes the checkpoint: corpus, mapping, clusters and results move
    /// into the pipeline, so recovery holds the decoded state once (clone
    /// first to restore the same checkpoint twice).
    pub fn restore<'a>(
        self,
        kb: &'a KnowledgeBase,
        models: TrainedModels,
        config: PipelineConfig,
    ) -> Result<IncrementalPipeline<'a>, CheckpointError> {
        self.verify_config(&config)?;
        // A restored pipeline holds what ingest would have let it.
        check_capacity([0, 0], [self.corpus.total_rows(), self.corpus.len()])
            .map_err(|refused| CheckpointError::Corrupted(refused.to_string()))?;
        config.parallelism.install();
        let PipelineCheckpoint { corpus, mapping, classes, .. } = self;

        let mut states = Vec::with_capacity(CLASS_KEYS.len());
        for (&class, dump) in CLASS_KEYS.iter().zip(classes) {
            // Decoding re-minted the class's arena in stored order, which
            // reproduces every Sym id; all interning below is re-interning of
            // already-present strings, asserted by the per-class baseline
            // check at the end of the loop body.
            let interner = dump.interner;
            let baseline = interner.len();

            // The step ingest runs per batch, over the whole restored
            // corpus: PHI vectors replay per table in arrival order.
            let mut state = ClassState::new(class, interner, &config);
            let contexts = state.absorb_corpus_statistics(&corpus, &mapping, None, kb, &config);
            state.clusterer = StreamingClusterer::from_parts(
                config.clustering.clone(),
                contexts,
                dump.clusters,
            );
            if state.interner.len() != baseline {
                return Err(CheckpointError::Corrupted(format!(
                    "{class}: state rebuild minted {} new interned strings — the checkpointed \
                     interner does not cover the class's corpus vocabulary",
                    state.interner.len() - baseline
                )));
            }
            // The fusion call ingest makes on the clusters a batch touched
            // (`refresh_touched_clusters`), over every cluster.
            state.entities = ltee_fusion::create_entities_with_scores(
                &state.clusterer.all_row_refs(),
                &corpus,
                &mapping,
                kb,
                class,
                &config.fusion,
                Some(&state.kbt),
            );
            state.results = dump.results;
            states.push(state);
        }

        Ok(IncrementalPipeline { kb, models, config, corpus, mapping, states })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_outcome_and_type_tags_are_rejected() {
        assert!(matches!(
            decode_result_from(&mut ByteReader::new(&[2]), 0),
            Err(CodecError::InvalidTag { what: "detection outcome", tag: 2 })
        ));
        assert!(data_type_from_tag(6).is_err());
        assert!(class_key_from_code(250).is_err());
    }

    fn song_table(truth: Option<ltee_webtables::TableTruth>) -> WebTable {
        WebTable {
            id: TableId(7),
            columns: vec![Column {
                header: "song".into(),
                cells: vec!["Yellow Submarine".into(), "".into()],
            }],
            truth,
        }
    }

    #[test]
    fn a_table_encodes_to_the_same_bytes_with_and_without_truth() {
        let truth = ltee_webtables::TableTruth {
            class: ClassKey::Song,
            label_column: 0,
            column_property: vec![Some("releaseYear".into())],
            row_entity: vec![ltee_kb::EntityId(1), ltee_kb::EntityId(2)],
        };
        let with = encode_corpus(&Corpus::from_tables(vec![song_table(Some(truth))]));
        let without = encode_corpus(&Corpus::from_tables(vec![song_table(None)]));
        assert_eq!(with, without);
        assert_eq!(decode_corpus(&with).unwrap().tables(), [song_table(None)]);
    }

    #[test]
    fn a_mapping_of_a_table_outside_the_corpus_is_rejected() {
        let mapping = TableMapping {
            table: TableId(7),
            class: Some(ClassKey::Song),
            label_column: 0,
            detected_types: vec![],
            correspondences: vec![None],
        };
        let orphan = PipelineCheckpoint {
            fingerprint: 1,
            applied_batches: 1,
            corpus: Corpus::new(),
            mapping: CorpusMapping::from_tables(vec![mapping]),
            classes: CLASS_KEYS
                .iter()
                .map(|_| ClassDump { interner: Interner::new(), clusters: vec![], results: vec![] })
                .collect(),
        };
        assert!(matches!(
            PipelineCheckpoint::decode(&orphan.encode()),
            Err(CheckpointError::Corrupted(why)) if why.contains("outside the corpus")
        ));
    }

    #[test]
    fn corpus_codec_round_trips_and_rejects_duplicates() {
        let table = song_table(None);
        let corpus = Corpus::from_tables(vec![table.clone()]);
        let decoded = decode_corpus(&encode_corpus(&corpus)).unwrap();
        assert_eq!(decoded.tables(), corpus.tables());

        let doubled = Corpus::from_tables(vec![table.clone(), table]);
        // from_tables collapses the id lookup, but the encoded stream still
        // carries both tables — decode must reject it.
        assert!(matches!(
            decode_corpus(&encode_corpus(&doubled)),
            Err(CheckpointError::Corrupted(why)) if why.contains("duplicate table id")
        ));
    }

    #[test]
    fn restore_is_bit_identical_and_ingests_identically_afterwards() {
        use crate::pipeline::train_models;
        use ltee_kb::{generate_world, GeneratorConfig, Scale};
        use ltee_webtables::{generate_corpus, CorpusConfig, GoldStandard};

        use crate::{IngestReport, Parallelism};
        use ltee_fusion::ScoringMethod;

        /// Every class's entities and results, and the state beside them.
        fn assert_same_state(a: &IncrementalPipeline<'_>, b: &IncrementalPipeline<'_>, what: &str) {
            for class in CLASS_KEYS {
                assert_eq!(a.class_entities(class), b.class_entities(class), "{what}: {class}");
            }
            for (x, y) in a.states.iter().zip(&b.states) {
                assert_eq!(x.interner.len(), y.interner.len(), "{what}");
                assert_eq!(x.clusterer.clusters(), y.clusterer.clusters(), "{what}");
                assert_eq!(x.phi.table_count(), y.phi.table_count(), "{what}");
                for (r, s) in x.results.iter().zip(&y.results) {
                    assert_eq!(r.best_score.to_bits(), s.best_score.to_bits(), "{what}");
                }
            }
        }

        let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 58));
        let corpus = generate_corpus(&world, &CorpusConfig::tiny());
        let golds: Vec<GoldStandard> =
            CLASS_KEYS.iter().map(|&c| GoldStandard::build(&world, &corpus, c)).collect();
        let models = train_models(&corpus, world.kb(), &golds, &PipelineConfig::fast()).unwrap();

        // A checkpoint after six of eight batches, then a two-batch tail.
        let batches = corpus.split_into_batches(8);
        let (before, tail) = batches.split_at(6);
        // KBT scores come from the batch at ingest and from the whole
        // corpus on restore, so run both fusion scorings.
        for scoring in [ScoringMethod::Matching, ScoringMethod::Kbt] {
            let mut config = PipelineConfig::fast();
            config.fusion.scoring = scoring;
            let mut original = IncrementalPipeline::new(world.kb(), models.clone(), config.clone());
            // The batch that last re-fused each cluster, per class.
            let mut last_fused = vec![Vec::new(); CLASS_KEYS.len()];
            for (b, batch) in before.iter().enumerate() {
                let report = original.ingest(batch).unwrap();
                for (class, touched) in report.touched_classes.iter().zip(&report.touched_clusters) {
                    let slots = &mut last_fused[CLASS_KEYS.iter().position(|c| c == class).unwrap()];
                    for &cluster in touched {
                        slots.resize(slots.len().max(cluster + 1), 0);
                        slots[cluster] = b;
                    }
                }
            }
            // Restore must re-fuse entities whose clusters last changed long
            // before the cut, from a corpus that grew since.
            let stale = last_fused.iter().flatten().filter(|&&b| b + 4 < before.len()).count();
            assert!(stale > 10, "{scoring:?}: only {stale} clusters untouched for four batches");

            // One encoder body: the live pipeline's borrowed view and the
            // decoded, owned checkpoint write the same bytes.
            let (bytes, layout) = original.checkpoint(6).encode_with_layout();
            let decoded = PipelineCheckpoint::decode(&bytes).unwrap();
            assert_eq!(decoded.applied_batches, 6);
            assert_eq!(decoded.encode(), bytes);
            assert_eq!(layout.payload_len(), bytes.len() - CHECKPOINT_PAYLOAD_START);
            assert!(layout.payload_len() < layout.raw_len());
            assert!(layout.strings_distinct < layout.strings_written);

            let at_cut = original.clone();
            let reports: Vec<IngestReport> =
                tail.iter().map(|batch| original.ingest(batch).unwrap()).collect();
            for threads in [1, 4] {
                let what = format!("{scoring:?} at {threads} threads");
                let config = PipelineConfig { parallelism: Parallelism::Threads(threads), ..config.clone() };
                let mut restored = decoded.clone().restore(world.kb(), models.clone(), config).unwrap();
                // Ingest keeps no ground truth, so the corpora are equal.
                assert!(at_cut.corpus.tables().iter().all(|t| t.truth.is_none()));
                assert_eq!(restored.corpus.tables(), at_cut.corpus.tables());
                // Label columns and column types are detected again.
                assert_eq!(restored.mapping.len(), at_cut.mapping.len());
                for mapping in at_cut.mapping.tables() {
                    assert_eq!(restored.mapping.table(mapping.table), Some(mapping), "{what}");
                }
                assert_same_state(&at_cut, &restored, &what);

                // The WAL tail: both pipelines must evolve identically.
                for (batch, report) in tail.iter().zip(&reports) {
                    assert_eq!(&restored.ingest(batch).unwrap(), report, "{what}");
                }
                assert_same_state(&original, &restored, &format!("{what}, after the tail"));
            }

            // Config-fingerprint guard.
            let mut other = config.clone();
            other.iterations = config.iterations + 1;
            assert!(matches!(
                decoded.verify_config(&other),
                Err(CheckpointError::ConfigMismatch { .. })
            ));
        }
    }

    #[test]
    fn decode_rejects_bad_magic_truncation_and_version() {
        assert!(matches!(PipelineCheckpoint::decode(b"nope"), Err(CheckpointError::BadMagic)));
        let empty = PipelineCheckpoint {
            fingerprint: 1,
            applied_batches: 0,
            corpus: Corpus::new(),
            mapping: CorpusMapping::default(),
            classes: CLASS_KEYS
                .iter()
                .map(|_| ClassDump { interner: Interner::new(), clusters: vec![], results: vec![] })
                .collect(),
        };
        let bytes = empty.encode();
        assert!(PipelineCheckpoint::decode(&bytes).is_ok());
        assert!(matches!(
            PipelineCheckpoint::decode(&bytes[..20]),
            Err(CheckpointError::Decode(_))
        ));
        let mut wrong_version = bytes.clone();
        wrong_version[8] = 99;
        assert!(matches!(
            PipelineCheckpoint::decode(&wrong_version),
            Err(CheckpointError::UnsupportedVersion(99))
        ));
        // Another version is only believed of a file that is intact under
        // it; a version field that is itself damage is corruption.
        *wrong_version.last_mut().unwrap() ^= 0x40;
        assert!(matches!(
            PipelineCheckpoint::decode(&wrong_version),
            Err(CheckpointError::Corrupted(_))
        ));
        let mut flipped = bytes;
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert!(matches!(
            PipelineCheckpoint::decode(&flipped),
            Err(CheckpointError::Corrupted(_))
        ));
    }
}
