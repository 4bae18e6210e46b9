//! Persistent model artifacts: the train-once / serve-many boundary.
//!
//! Training the LTEE models (matcher weights via the genetic algorithm, the
//! row and entity similarity random forests) is by far the most expensive
//! part of the pipeline, while applying them is cheap. This module
//! separates the two phases: [`ModelArtifact`] captures everything the
//! serve phase needs — the three learned models plus a fingerprint of the
//! inference-relevant configuration — in a versioned, self-validating
//! binary file, so models are trained once and then loaded by any number of
//! serving processes ([`crate::IncrementalPipeline`]).
//!
//! ## File format (version 4)
//!
//! The envelope of [`ltee_codec`] (see its crate docs) with magic
//! `b"LTEEART\x01"`, format version 4 and one header word, the config
//! fingerprint (see [`config_fingerprint`]). [`ltee_codec::seal`] stores
//! the raw stream as one block of the codec's DEFLATE compressor, like a
//! checkpoint's; the raw stream is `string table · MatcherWeights ·
//! RowSimilarityModel · EntitySimilarityModel` in the codec's one
//! spelling: every count, index and integer a varint, every property and
//! feature name a reference into the string table, coded by recency.
//!
//! Every `f64` in the payload is stored as its IEEE-754 bit pattern, so a
//! decoded artifact reproduces the in-memory models **bit-for-bit**: the
//! serve phase scores identically to the process that trained the models.
//! Decoding refuses what would make a decoded model panic or loop: a tree
//! without nodes, a split on a feature its forest does not have, a child
//! that does not point forward.
//!
//! An artifact of any other version is refused with
//! [`ArtifactError::UnsupportedVersion`]: one decoder reads one format,
//! and retraining rebuilds an artifact.
//!
//! ## Versioning and validation contract
//!
//! * The magic rejects non-artifact files immediately ([`ArtifactError::BadMagic`]).
//! * The format version gates structural evolution: readers reject an
//!   intact file of a version they do not understand instead of misparsing
//!   it ([`ArtifactError::UnsupportedVersion`]); a version field that is
//!   itself damage fails the checksum of the version it names.
//! * The checksum detects corruption/truncation before any field is
//!   interpreted ([`ArtifactError::Corrupted`]).
//! * The **config fingerprint** hashes the inference-relevant parts of
//!   [`PipelineConfig`] (iterations, schema matching, clustering, metric
//!   sets, fusion, new detection — *not* training hyperparameters or the
//!   thread count). Loading an artifact into a pipeline whose config
//!   fingerprint differs fails with [`ArtifactError::ConfigMismatch`]:
//!   models are only valid for the feature layout and thresholds they were
//!   trained against.

use std::path::Path;

use ltee_clustering::RowSimilarityModel;
use ltee_matching::MatcherWeights;
use ltee_codec::{ByteWriter, CodecError, StringTableWriter};
use ltee_intern::fnv1a64;
use ltee_newdetect::EntitySimilarityModel;

use crate::pipeline::{PipelineConfig, TrainedModels};

/// Magic bytes opening every artifact file.
pub const ARTIFACT_MAGIC: [u8; 8] = *b"LTEEART\x01";

/// The artifact format version this build writes and reads.
pub const ARTIFACT_VERSION: u32 = 4;

/// Errors raised while encoding, decoding or validating an artifact.
#[derive(Debug)]
pub enum ArtifactError {
    /// Reading or writing the artifact file failed.
    Io(std::io::Error),
    /// The input does not start with the artifact magic.
    BadMagic,
    /// The artifact was written by an unknown format version.
    UnsupportedVersion(u32),
    /// The payload failed its checksum or length check.
    Corrupted(String),
    /// A payload field could not be decoded.
    Decode(CodecError),
    /// The artifact was trained under a different inference configuration.
    ConfigMismatch {
        /// Fingerprint stored in the artifact.
        artifact: u64,
        /// Fingerprint of the configuration the caller supplied.
        config: u64,
    },
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact I/O error: {e}"),
            ArtifactError::BadMagic => {
                write!(f, "not an LTEE model artifact (bad magic header)")
            }
            ArtifactError::UnsupportedVersion(v) => write!(
                f,
                "unsupported artifact format version {v} (this build reads version {ARTIFACT_VERSION})"
            ),
            ArtifactError::Corrupted(why) => write!(f, "artifact is corrupted: {why}"),
            ArtifactError::Decode(e) => write!(f, "artifact payload is malformed: {e}"),
            ArtifactError::ConfigMismatch { artifact, config } => write!(
                f,
                "artifact was trained under a different configuration \
                 (artifact fingerprint {artifact:#018x}, pipeline config fingerprint {config:#018x}); \
                 retrain or serve with the training-time config"
            ),
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Io(e) => Some(e),
            ArtifactError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for ArtifactError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::BadMagic => ArtifactError::BadMagic,
            CodecError::UnsupportedVersion(v) => ArtifactError::UnsupportedVersion(v),
            CodecError::Corrupted(why) => ArtifactError::Corrupted(why),
            field => ArtifactError::Decode(field),
        }
    }
}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

/// Fingerprint of the inference-relevant parts of a [`PipelineConfig`].
///
/// Covers everything that changes what the learned models *mean* at serve
/// time: the iteration count, schema matching settings, clustering
/// settings, the row/entity metric sets (feature layout!), fusion and new
/// detection settings. Excludes training hyperparameters (they are baked
/// into the learned parameters) and [`crate::Parallelism`] (results are
/// thread-count independent by the determinism contract).
pub fn config_fingerprint(config: &PipelineConfig) -> u64 {
    // The Debug renderings of the config sub-structs are stable, explicit
    // and cheap; hashing them avoids a second hand-rolled encoder that
    // could silently fall out of sync with the struct definitions.
    let rendering = format!(
        "iterations={:?};schema={:?};clustering={:?};row_metrics={:?};entity_metrics={:?};fusion={:?};newdetect={:?}",
        config.iterations,
        config.schema,
        config.clustering,
        config.row_metrics,
        config.entity_metrics,
        config.fusion,
        config.newdetect,
    );
    fnv1a64(rendering.as_bytes())
}

/// A persisted bundle of trained models plus the fingerprint of the
/// configuration they were trained under.
#[derive(Debug, Clone)]
pub struct ModelArtifact {
    /// The trained models (bit-exact across a save/load round trip).
    pub models: TrainedModels,
    /// Fingerprint of the training-time inference configuration.
    pub fingerprint: u64,
}

impl ModelArtifact {
    /// Bundle trained models with the fingerprint of `config`.
    pub fn new(models: TrainedModels, config: &PipelineConfig) -> Self {
        Self { models, fingerprint: config_fingerprint(config) }
    }

    /// Check that `config` matches the configuration the artifact's models
    /// were trained under.
    pub fn verify_config(&self, config: &PipelineConfig) -> Result<(), ArtifactError> {
        let fingerprint = config_fingerprint(config);
        if fingerprint == self.fingerprint {
            Ok(())
        } else {
            Err(ArtifactError::ConfigMismatch { artifact: self.fingerprint, config: fingerprint })
        }
    }

    /// Encode the artifact into its binary file format.
    pub fn encode(&self) -> Vec<u8> {
        let mut strings = StringTableWriter::new();
        let mut body = ByteWriter::new();
        self.models.matcher_weights.encode_into(&mut strings, &mut body);
        self.models.row_model.encode_into(&mut strings, &mut body);
        self.models.entity_model.encode_into(&mut strings, &mut body);
        let raw = strings.into_stream(body);
        ltee_codec::seal(&ARTIFACT_MAGIC, ARTIFACT_VERSION, &[self.fingerprint], &raw)
    }

    /// Decode an artifact from bytes, validating magic, length, checksum
    /// and version before interpreting any payload field.
    pub fn decode(bytes: &[u8]) -> Result<Self, ArtifactError> {
        let ([fingerprint], raw) = ltee_codec::open(&ARTIFACT_MAGIC, ARTIFACT_VERSION, bytes)?;
        let models = ltee_codec::read_stream(&raw, |r, strings| {
            Ok::<_, CodecError>(TrainedModels {
                matcher_weights: MatcherWeights::decode_from(r, strings)?,
                row_model: RowSimilarityModel::decode_from(r, strings)?,
                entity_model: EntitySimilarityModel::decode_from(r, strings)?,
            })
        })?;
        Ok(Self { models, fingerprint })
    }

    /// Write the artifact to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ArtifactError> {
        std::fs::write(path, self.encode())?;
        Ok(())
    }

    /// Read and decode an artifact file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ArtifactError> {
        Self::decode(&std::fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_ignores_training_and_thread_settings() {
        let base = PipelineConfig::default();
        let mut training_changed = PipelineConfig::default();
        training_changed.matcher_genetic.population = 999;
        training_changed.row_training.negatives_per_positive = 9;
        training_changed.parallelism = crate::Parallelism::Threads(7);
        assert_eq!(config_fingerprint(&base), config_fingerprint(&training_changed));
    }

    #[test]
    fn fingerprint_tracks_inference_settings() {
        let base = PipelineConfig::default();
        let mut fewer_candidates = PipelineConfig::default();
        fewer_candidates.newdetect.candidates = 3;
        assert_ne!(config_fingerprint(&base), config_fingerprint(&fewer_candidates));

        let mut fewer_metrics = PipelineConfig::default();
        fewer_metrics.row_metrics.pop();
        assert_ne!(config_fingerprint(&base), config_fingerprint(&fewer_metrics));
    }

    #[test]
    fn decode_rejects_bad_magic_and_short_input() {
        assert!(matches!(ModelArtifact::decode(b"nope"), Err(ArtifactError::BadMagic)));
        assert!(matches!(
            ModelArtifact::decode(b"PNG\x89\x0d\x0a\x1a\x0a rest"),
            Err(ArtifactError::BadMagic)
        ));
    }
}
