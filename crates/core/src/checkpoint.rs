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
//! The checkpoint persists the **expensive model-driven decisions** and
//! rebuilds the **cheap derived state** on restore:
//!
//! * persisted — the accumulated corpus (tables in arrival order), the
//!   accumulated schema mapping, and per class the interner arena (every
//!   string, in mint order, so every `Sym` id is reproduced exactly), the
//!   cluster assignments, fused entities and new-detection results;
//! * rebuilt — row contexts, the prefix blocking index and per-cluster
//!   block keys ([`StreamingClusterer::from_parts`]), frozen PHI vectors
//!   (replayed per table in arrival order), implicit attributes and KBT
//!   scores (both pure functions of corpus + mapping + frozen KB) — by
//!   the same per-class statistics step ingest runs on every batch.
//!
//! Skipping schema matching, pair scoring and fusion on restore is what
//! makes cold recovery faster than re-ingesting the corpus (recorded, not
//! asserted: `recover_s` beside `ingest_rows_per_s` in every `kbbench`
//! run, `core.restore_s` in its per-layer metrics); the incremental-
//! equivalence contract (every rebuilt structure is a deterministic
//! function of the persisted decisions) is what makes the restored
//! pipeline **bit-identical** to the one that wrote the checkpoint —
//! `tests/recovery_equivalence.rs` proves it end to end.
//!
//! ## File format (version 2)
//!
//! The envelope of [`ltee_ml::codec`] (see its module docs)
//! with magic `b"LTEECKP\x01"`, format version 2 and two header words: the
//! config fingerprint ([`config_fingerprint`]) and the applied-batch count
//! (non-empty ingests == snapshot version). The payload is `corpus ·
//! mapping · per-class interner strings / clusters / entities / results`.
//!
//! Version 2 (the class-sharding PR) moved the single pipeline-wide
//! interner arena into the per-class sections: each class owns its interner
//! at serve time, so the checkpoint persists one string list per class.
//! Version-1 files are refused with
//! [`CheckpointError::UnsupportedVersion`] — the global arena cannot be
//! split faithfully after the fact. The payload remains **logical per-class
//! state only**: no shard layout is ever persisted, so any process can
//! restore a checkpoint under any [`crate::ShardPlan`] (shard and thread
//! counts are both excluded from the config fingerprint).
//!
//! Decoding validates magic, version, length and checksum before touching
//! the payload, every collection length is bounds-checked against the
//! remaining stream (no allocation bombs), and the decoded state is
//! cross-validated (tables well-formed, ids unique, clusters partition the
//! mapped rows in founding order) before any of it is trusted. Restoring
//! additionally rejects a checkpoint written under a different inference
//! configuration ([`CheckpointError::ConfigMismatch`]).

use std::collections::HashSet;
use std::path::Path;

use ltee_clustering::StreamingClusterer;
use ltee_fusion::Entity;
use ltee_intern::Interner;
use ltee_kb::{ClassKey, KnowledgeBase, CLASS_KEYS};
use ltee_matching::{AttributeMatch, CorpusMapping, TableMapping};
use ltee_ml::codec::{self, ByteReader, ByteWriter, CodecError};
use ltee_newdetect::{NewDetectionOutcome, NewDetectionResult};
use ltee_types::{DataType, Date, DateGranularity, DetectedType, Value};
use ltee_webtables::{Column, Corpus, RowRef, TableId, TableTruth, WebTable};

use crate::artifact::config_fingerprint;
use crate::incremental::{class_rows_in_arrival_order, ClassState, IncrementalPipeline};
use crate::pipeline::{PipelineConfig, TrainedModels};

/// Magic bytes opening every checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"LTEECKP\x01";

/// The checkpoint format version this build writes and reads.
pub const CHECKPOINT_VERSION: u32 = 2;

/// Offset where the checkpoint payload starts (after magic, version,
/// fingerprint, applied-batch count, payload length and checksum).
pub const CHECKPOINT_PAYLOAD_START: usize = codec::sealed_header_len(2);

/// Errors raised while encoding, decoding, validating or restoring a
/// checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// Reading or writing the checkpoint file failed.
    Io(std::io::Error),
    /// The input does not start with the checkpoint magic.
    BadMagic,
    /// The checkpoint was written by an unknown format version.
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
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
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
            CheckpointError::Io(e) => Some(e),
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

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

// ───────────────────────── value / table / mapping codecs ────────────────

fn encode_value_into(value: &Value, w: &mut ByteWriter) {
    match value {
        Value::Text(s) => {
            w.write_u8(0);
            w.write_str(s);
        }
        Value::Nominal(s) => {
            w.write_u8(1);
            w.write_str(s);
        }
        Value::InstanceRef(s) => {
            w.write_u8(2);
            w.write_str(s);
        }
        Value::Date(d) => {
            w.write_u8(3);
            w.write_u32(d.year as u32);
            w.write_u8(d.month);
            w.write_u8(d.day);
            w.write_u8(match d.granularity {
                DateGranularity::Year => 0,
                DateGranularity::Day => 1,
            });
        }
        Value::Quantity(q) => {
            w.write_u8(4);
            w.write_f64(*q);
        }
        Value::NominalInt(i) => {
            w.write_u8(5);
            w.write_u64(*i as u64);
        }
    }
}

fn decode_value_from(r: &mut ByteReader<'_>) -> Result<Value, CodecError> {
    match r.read_u8("value tag")? {
        0 => Ok(Value::Text(r.read_str("text value")?)),
        1 => Ok(Value::Nominal(r.read_str("nominal value")?)),
        2 => Ok(Value::InstanceRef(r.read_str("instance-ref value")?)),
        3 => {
            let year = r.read_u32("date year")? as i32;
            let month = r.read_u8("date month")?;
            let day = r.read_u8("date day")?;
            let granularity = match r.read_u8("date granularity")? {
                0 => DateGranularity::Year,
                1 => DateGranularity::Day,
                tag => return Err(CodecError::InvalidTag { what: "date granularity", tag }),
            };
            Ok(Value::Date(Date { year, month, day, granularity }))
        }
        4 => Ok(Value::Quantity(r.read_f64("quantity value")?)),
        5 => Ok(Value::NominalInt(r.read_u64("nominal-int value")? as i64)),
        tag => Err(CodecError::InvalidTag { what: "value", tag }),
    }
}

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

fn detected_type_tag(dt: DetectedType) -> u8 {
    match dt {
        DetectedType::Text => 0,
        DetectedType::Date => 1,
        DetectedType::Quantity => 2,
    }
}

fn detected_type_from_tag(tag: u8) -> Result<DetectedType, CodecError> {
    Ok(match tag {
        0 => DetectedType::Text,
        1 => DetectedType::Date,
        2 => DetectedType::Quantity,
        tag => return Err(CodecError::InvalidTag { what: "detected type", tag }),
    })
}

fn class_key_from_code(code: u8) -> Result<ClassKey, CodecError> {
    ClassKey::from_code(code).ok_or(CodecError::InvalidTag { what: "class key", tag: code })
}

fn encode_table_into(table: &WebTable, w: &mut ByteWriter) {
    w.write_u64(table.id.raw());
    w.write_seq(&table.columns, |w, column| {
        w.write_str(&column.header);
        w.write_str_slice(&column.cells);
    });
    w.write_u8(table.truth.class.code());
    w.write_usize(table.truth.label_column);
    w.write_seq(&table.truth.column_property, |w, prop| {
        w.write_opt(prop.as_ref(), |w, p| w.write_str(p));
    });
    w.write_seq(&table.truth.row_entity, |w, entity| w.write_u64(entity.raw()));
}

fn decode_table_from(r: &mut ByteReader<'_>) -> Result<WebTable, CheckpointError> {
    let id = TableId(r.read_u64("table id")?);
    let columns = r.read_seq("table columns", 8, |r| {
        let header = r.read_str("column header")?;
        Ok::<_, CodecError>(Column { header, cells: r.read_str_vec("column cells")? })
    })?;
    let class = class_key_from_code(r.read_u8("truth class")?)?;
    let label_column = r.read_usize("truth label column")?;
    let column_property = r.read_seq("truth column properties", 1, |r| {
        r.read_opt::<_, CodecError>("truth property flag", |r| r.read_str("truth property"))
    })?;
    let row_entity = r.read_seq("truth row entities", 8, |r| {
        r.read_u64("truth row entity").map(ltee_kb::EntityId)
    })?;
    let table = WebTable {
        id,
        columns,
        truth: TableTruth { class, label_column, column_property, row_entity },
    };
    table
        .validate()
        .map_err(|why| CheckpointError::Corrupted(format!("table {}: {why}", id.raw())))?;
    Ok(table)
}

/// Encode a corpus (tables in arrival order). Shared by the checkpoint
/// payload and by WAL batch records (`ltee-store`), so a replayed batch and
/// a checkpointed corpus go through the exact same byte layout.
pub fn encode_corpus(corpus: &Corpus) -> Vec<u8> {
    let mut w = ByteWriter::new();
    encode_corpus_into(corpus, &mut w);
    w.into_bytes()
}

fn encode_corpus_into(corpus: &Corpus, w: &mut ByteWriter) {
    w.write_seq(corpus.tables(), |w, table| encode_table_into(table, w));
}

/// Decode a corpus encoded by [`encode_corpus`], validating every table and
/// rejecting duplicate table ids. Requires the reader to be fully consumed.
pub fn decode_corpus(bytes: &[u8]) -> Result<Corpus, CheckpointError> {
    let mut r = ByteReader::new(bytes);
    let corpus = decode_corpus_from(&mut r)?;
    r.expect_eof()?;
    Ok(corpus)
}

fn decode_corpus_from(r: &mut ByteReader<'_>) -> Result<Corpus, CheckpointError> {
    let mut seen = HashSet::new();
    let tables = r.read_seq("corpus tables", 16, |r| {
        let table = decode_table_from(r)?;
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

fn encode_mapping_into(mapping: &TableMapping, w: &mut ByteWriter) {
    w.write_u64(mapping.table.raw());
    w.write_opt(mapping.class, |w, class| w.write_u8(class.code()));
    w.write_f64(mapping.class_score);
    w.write_usize(mapping.label_column);
    w.write_seq(&mapping.detected_types, |w, &dt| w.write_u8(detected_type_tag(dt)));
    w.write_seq(&mapping.correspondences, |w, c| {
        w.write_opt(c.as_ref(), |w, m| {
            w.write_str(&m.property);
            w.write_u8(data_type_tag(m.data_type));
            w.write_f64(m.score);
        });
    });
}

fn decode_mapping_from(r: &mut ByteReader<'_>) -> Result<TableMapping, CodecError> {
    let table = TableId(r.read_u64("mapping table id")?);
    let class = r.read_opt("mapping class flag", |r| {
        class_key_from_code(r.read_u8("mapping class")?)
    })?;
    let class_score = r.read_f64("mapping class score")?;
    let label_column = r.read_usize("mapping label column")?;
    let detected_types = r.read_seq("mapping detected types", 1, |r| {
        detected_type_from_tag(r.read_u8("detected type")?)
    })?;
    let correspondences = r.read_seq("mapping correspondences", 1, |r| {
        r.read_opt("correspondence flag", |r| {
            let property = r.read_str("correspondence property")?;
            let data_type = data_type_from_tag(r.read_u8("correspondence data type")?)?;
            let score = r.read_f64("correspondence score")?;
            Ok::<_, CodecError>(AttributeMatch { property, data_type, score })
        })
    })?;
    Ok(TableMapping { table, class, class_score, label_column, detected_types, correspondences })
}

fn encode_entity_into(entity: &Entity, w: &mut ByteWriter) {
    // The class is implied by the per-class section the entity sits in.
    w.write_seq(&entity.rows, |w, row| {
        w.write_u64(row.table.raw());
        w.write_usize(row.row);
    });
    w.write_str_slice(&entity.labels);
    w.write_seq(&entity.facts, |w, (property, value, score)| {
        w.write_str(property);
        encode_value_into(value, w);
        w.write_f64(*score);
    });
}

fn decode_entity_from(r: &mut ByteReader<'_>, class: ClassKey) -> Result<Entity, CodecError> {
    let rows = r.read_seq("entity rows", 16, |r| {
        let table = TableId(r.read_u64("entity row table")?);
        Ok::<_, CodecError>(RowRef::new(table, r.read_usize("entity row index")?))
    })?;
    let labels = r.read_str_vec("entity labels")?;
    let facts = r.read_seq("entity facts", 14, |r| {
        let property = r.read_str("fact property")?;
        let value = decode_value_from(r)?;
        Ok::<_, CodecError>((property, value, r.read_f64("fact score")?))
    })?;
    Ok(Entity { class, rows, labels, facts })
}

fn encode_result_into(result: &NewDetectionResult, w: &mut ByteWriter) {
    w.write_usize(result.entity);
    match result.outcome {
        NewDetectionOutcome::New => w.write_u8(0),
        NewDetectionOutcome::Existing(instance) => {
            w.write_u8(1);
            w.write_u64(instance.raw());
        }
    }
    w.write_f64(result.best_score);
    w.write_usize(result.candidate_count);
}

fn decode_result_from(r: &mut ByteReader<'_>) -> Result<NewDetectionResult, CodecError> {
    let entity = r.read_usize("result entity")?;
    let outcome = match r.read_u8("result outcome")? {
        0 => NewDetectionOutcome::New,
        1 => NewDetectionOutcome::Existing(ltee_kb::InstanceId(r.read_u64("result instance")?)),
        tag => return Err(CodecError::InvalidTag { what: "detection outcome", tag }),
    };
    let best_score = r.read_f64("result best score")?;
    let candidate_count = r.read_usize("result candidate count")?;
    Ok(NewDetectionResult { entity, outcome, best_score, candidate_count })
}

// ─────────────────────────── the checkpoint itself ───────────────────────

/// The persisted per-class decisions (parallel to [`CLASS_KEYS`]).
#[derive(Debug, Clone)]
struct ClassDump {
    /// The class's interner arena in mint order — re-interning reproduces
    /// every `Sym` id of the class exactly.
    interner: Vec<String>,
    clusters: Vec<Vec<usize>>,
    entities: Vec<Entity>,
    results: Vec<NewDetectionResult>,
}

/// A full checkpoint of [`IncrementalPipeline`] accumulated state.
///
/// Capture one with [`IncrementalPipeline::checkpoint`], persist it with
/// [`PipelineCheckpoint::encode`] / [`PipelineCheckpoint::save`], and bring
/// a fresh process back to the exact pre-checkpoint state with
/// [`PipelineCheckpoint::decode`] + [`PipelineCheckpoint::restore`]. See
/// the [module docs](self) for the format and the persisted/rebuilt split.
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

impl IncrementalPipeline<'_> {
    /// Capture a checkpoint of the accumulated state. `applied_batches` is
    /// the number of non-empty batches ingested so far (the serve layer's
    /// snapshot version); the pipeline itself does not track batch
    /// boundaries, so the durability layer supplies it.
    pub fn checkpoint(&self, applied_batches: u64) -> PipelineCheckpoint {
        PipelineCheckpoint {
            fingerprint: config_fingerprint(&self.config),
            applied_batches,
            corpus: self.corpus.clone(),
            mapping: self.mapping.clone(),
            classes: self
                .states
                .iter()
                .map(|s| ClassDump {
                    interner: s.interner.iter().map(|(_, str)| str.to_string()).collect(),
                    clusters: s.clusterer.clusters().to_vec(),
                    entities: s.entities.clone(),
                    results: s.results.clone(),
                })
                .collect(),
        }
    }
}

impl PipelineCheckpoint {
    /// Encode the checkpoint into its binary file format.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        encode_corpus_into(&self.corpus, &mut w);
        // Canonical byte stream: the mapping lives in a HashMap, so encode
        // it sorted by table id (arrival order is already canonical for
        // everything else).
        let mut mappings: Vec<&TableMapping> = self.mapping.tables().collect();
        mappings.sort_by_key(|m| m.table);
        w.write_seq(&mappings, |w, mapping| encode_mapping_into(mapping, w));
        w.write_seq(&self.classes, |w, dump| {
            w.write_str_slice(&dump.interner);
            w.write_seq(&dump.clusters, |w, cluster| {
                w.write_seq(cluster, |w, &row| w.write_u32(row as u32));
            });
            w.write_seq(&dump.entities, |w, entity| encode_entity_into(entity, w));
            w.write_seq(&dump.results, |w, result| encode_result_into(result, w));
        });
        codec::seal(
            &CHECKPOINT_MAGIC,
            CHECKPOINT_VERSION,
            &[self.fingerprint, self.applied_batches],
            &w.into_bytes(),
        )
    }

    /// Decode and fully validate a checkpoint from bytes.
    ///
    /// Header checks (magic, version, payload length, checksum) run before
    /// any payload byte is interpreted; payload decoding is bounds-checked
    /// throughout; and the decoded state is cross-validated — tables
    /// well-formed with unique ids, mapping entries unique, and per class
    /// the clusters must partition the mapped rows in founding order with
    /// results parallel to clusters. Anything else is a typed rejection,
    /// never a panic.
    pub fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let ([fingerprint, applied_batches], payload) =
            codec::open(&CHECKPOINT_MAGIC, CHECKPOINT_VERSION, bytes)?;

        let mut r = ByteReader::new(payload);
        let corpus = decode_corpus_from(&mut r)?;
        let mut seen = HashSet::new();
        let mappings = r.read_seq("corpus mappings", 16, |r| {
            let mapping = decode_mapping_from(r)?;
            if !seen.insert(mapping.table) {
                return Err(CheckpointError::Corrupted(format!(
                    "duplicate mapping for table {}",
                    mapping.table.raw()
                )));
            }
            Ok(mapping)
        })?;
        let num_classes = r.read_len("class states", 12)?;
        if num_classes != CLASS_KEYS.len() {
            return Err(CheckpointError::Corrupted(format!(
                "checkpoint holds {num_classes} class states, this build has {}",
                CLASS_KEYS.len()
            )));
        }
        // The per-class sections are in CLASS_KEYS order.
        let mut classes = Vec::with_capacity(num_classes);
        for class in CLASS_KEYS {
            let interner = r.read_str_vec("class interner strings")?;
            let clusters = r.read_seq("clusters", 4, |r| {
                r.read_seq("cluster rows", 4, |r| {
                    r.read_u32("cluster row index").map(|row| row as usize)
                })
            })?;
            let entities = r.read_seq("entities", 12, |r| decode_entity_from(r, class))?;
            let results = r.read_seq("results", 25, decode_result_from)?;
            classes.push(ClassDump { interner, clusters, entities, results });
        }
        r.expect_eof()?;

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
    /// order, with entities/results parallel to the cluster list. This is
    /// what lets [`StreamingClusterer::from_parts`] assume well-formed
    /// inputs.
    fn validate_state(&self) -> Result<(), CheckpointError> {
        for (&class, dump) in CLASS_KEYS.iter().zip(&self.classes) {
            let rows = class_rows_in_arrival_order(&self.corpus, &self.mapping, class);
            if dump.entities.len() != dump.clusters.len()
                || dump.results.len() != dump.clusters.len()
            {
                return Err(CheckpointError::Corrupted(format!(
                    "{class}: {} clusters but {} entities / {} results",
                    dump.clusters.len(),
                    dump.entities.len(),
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
                let mut previous_row = None;
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
                    if previous_row.is_some_and(|p| row <= p) {
                        return Err(CheckpointError::Corrupted(format!(
                            "{class}: cluster {ci} rows are not ascending"
                        )));
                    }
                    assigned[row] = true;
                    previous_row = Some(row);
                }
                if dump.results[ci].entity != ci {
                    return Err(CheckpointError::Corrupted(format!(
                        "{class}: result {ci} points at cluster {}",
                        dump.results[ci].entity
                    )));
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
    /// attributes, KBT scores) from the persisted decisions; see the
    /// [module docs](self). Fails with [`CheckpointError::ConfigMismatch`]
    /// when `config` differs from the writing process's config, and with
    /// [`CheckpointError::Corrupted`] when the rebuild detects an
    /// inconsistency the structural validation could not (vocabulary
    /// missing from the persisted interner).
    ///
    /// Consumes the checkpoint: corpus, mapping, clusters, entities and
    /// results move into the pipeline, so recovery holds the decoded state
    /// once (clone first to restore the same checkpoint twice).
    pub fn restore<'a>(
        self,
        kb: &'a KnowledgeBase,
        models: TrainedModels,
        config: PipelineConfig,
    ) -> Result<IncrementalPipeline<'a>, CheckpointError> {
        self.verify_config(&config)?;
        let PipelineCheckpoint { corpus, mapping, classes, .. } = self;

        let mut states = Vec::with_capacity(CLASS_KEYS.len());
        for (&class, dump) in CLASS_KEYS.iter().zip(classes) {
            // Re-minting the class's arena in stored order reproduces every
            // Sym id of that class; all interning below is re-interning of
            // already-present strings, asserted by the per-class baseline
            // check at the end of the loop body.
            let arena_bytes = dump.interner.iter().map(String::len).sum();
            let mut interner = Interner::with_capacity(dump.interner.len(), arena_bytes);
            for s in &dump.interner {
                interner.intern(s);
            }
            let baseline = interner.len();

            // The step ingest runs per batch, over the whole restored
            // corpus: PHI vectors replay per table in arrival order.
            let mut state = ClassState::new(class, interner, &config);
            let contexts = state.absorb_corpus_statistics(&corpus, &mapping, kb, &config);
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
            state.entities = dump.entities;
            state.results = dump.results;
            states.push(state);
        }

        Ok(IncrementalPipeline { kb, models, config, corpus, mapping, states })
    }

    /// Write the checkpoint to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        std::fs::write(path, self.encode())?;
        Ok(())
    }

    /// Read and decode a checkpoint file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        Self::decode(&std::fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_codec_round_trips_every_variant_bit_exactly() {
        let values = vec![
            Value::Text("héllo world".into()),
            Value::Nominal("US-07302".into()),
            Value::InstanceRef("New England Patriots".into()),
            Value::Date(Date::year(-44)),
            Value::Date(Date::day(1969, 7, 20)),
            Value::Quantity(-0.0),
            Value::Quantity(f64::NAN),
            Value::NominalInt(-12),
        ];
        let mut w = ByteWriter::new();
        for v in &values {
            encode_value_into(v, &mut w);
        }
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        for v in &values {
            let decoded = decode_value_from(&mut r).unwrap();
            match (v, &decoded) {
                (Value::Quantity(a), Value::Quantity(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                _ => assert_eq!(*v, decoded),
            }
        }
        r.expect_eof().unwrap();
    }

    #[test]
    fn invalid_value_and_type_tags_are_rejected() {
        let mut r = ByteReader::new(&[9]);
        assert!(matches!(
            decode_value_from(&mut r),
            Err(CodecError::InvalidTag { what: "value", tag: 9 })
        ));
        assert!(data_type_from_tag(6).is_err());
        assert!(detected_type_from_tag(3).is_err());
        assert!(class_key_from_code(250).is_err());
    }

    #[test]
    fn corpus_codec_round_trips_and_rejects_duplicates() {
        let table = WebTable {
            id: TableId(7),
            columns: vec![Column {
                header: "song".into(),
                cells: vec!["Yellow Submarine".into(), "".into()],
            }],
            truth: TableTruth {
                class: ClassKey::Song,
                label_column: 0,
                column_property: vec![None],
                row_entity: vec![ltee_kb::EntityId(1), ltee_kb::EntityId(2)],
            },
        };
        let corpus = Corpus::from_tables(vec![table.clone()]);
        let decoded = decode_corpus(&encode_corpus(&corpus)).unwrap();
        assert_eq!(decoded.tables(), corpus.tables());

        let doubled = Corpus::from_tables(vec![table.clone(), table]);
        // from_tables collapses the id lookup, but the encoded stream still
        // carries both tables — decode must reject it.
        let mut w = ByteWriter::new();
        encode_corpus_into(&doubled, &mut w);
        assert!(matches!(
            decode_corpus(&w.into_bytes()),
            Err(CheckpointError::Corrupted(why)) if why.contains("duplicate table id")
        ));
    }

    #[test]
    fn restore_is_bit_identical_and_ingests_identically_afterwards() {
        use crate::pipeline::train_models;
        use ltee_kb::{generate_world, GeneratorConfig, Scale};
        use ltee_webtables::{generate_corpus, CorpusConfig, GoldStandard};

        let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 58));
        let corpus = generate_corpus(&world, &CorpusConfig::tiny());
        let golds: Vec<GoldStandard> =
            CLASS_KEYS.iter().map(|&c| GoldStandard::build(&world, &corpus, c)).collect();
        let config = PipelineConfig::fast();
        let models = train_models(&corpus, world.kb(), &golds, &config).unwrap();

        let batches = corpus.split_into_batches(3);
        let mut original = IncrementalPipeline::new(world.kb(), models.clone(), config.clone());
        original.ingest(&batches[0]).unwrap();
        original.ingest(&batches[1]).unwrap();

        let checkpoint = original.checkpoint(2);
        let decoded = PipelineCheckpoint::decode(&checkpoint.encode()).unwrap();
        assert_eq!(decoded.applied_batches, 2);
        let mut restored = decoded.clone().restore(world.kb(), models, config.clone()).unwrap();

        assert_eq!(restored.corpus.tables(), original.corpus.tables());
        for (a, b) in original.states.iter().zip(&restored.states) {
            assert_eq!(a.interner.len(), b.interner.len());
            assert_eq!(a.clusterer.clusters(), b.clusterer.clusters());
            assert_eq!(a.entities, b.entities);
            assert_eq!(a.results, b.results);
            assert_eq!(a.phi.table_count(), b.phi.table_count());
        }

        // The decisive check: both pipelines must evolve identically.
        let ra = original.ingest(&batches[2]).unwrap();
        let rb = restored.ingest(&batches[2]).unwrap();
        assert_eq!(ra, rb);
        for (a, b) in original.states.iter().zip(&restored.states) {
            assert_eq!(a.clusterer.clusters(), b.clusterer.clusters());
            assert_eq!(a.entities, b.entities);
            for (x, y) in a.results.iter().zip(&b.results) {
                assert_eq!(x.entity, y.entity);
                assert_eq!(x.outcome, y.outcome);
                assert_eq!(x.best_score.to_bits(), y.best_score.to_bits());
                assert_eq!(x.candidate_count, y.candidate_count);
            }
        }

        // Config-fingerprint guard.
        let mut other = PipelineConfig::fast();
        other.iterations = config.iterations + 1;
        assert!(matches!(
            decoded.verify_config(&other),
            Err(CheckpointError::ConfigMismatch { .. })
        ));
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
                .map(|_| ClassDump {
                    interner: vec![],
                    clusters: vec![],
                    entities: vec![],
                    results: vec![],
                })
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
        let mut flipped = bytes;
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert!(matches!(
            PipelineCheckpoint::decode(&flipped),
            Err(CheckpointError::Corrupted(_))
        ));
    }
}
