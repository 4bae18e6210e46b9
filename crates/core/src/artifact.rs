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
//! [`CodecError::UnsupportedVersion`]: one decoder reads one format, and
//! retraining rebuilds an artifact.
//!
//! ## Versioning and validation contract
//!
//! Every refusal is a [`CodecError`] naming the [`ARTIFACT`] format:
//!
//! * The magic rejects non-artifact files immediately ([`CodecError::BadMagic`]).
//! * The format version gates structural evolution: readers reject an
//!   intact file of a version they do not understand instead of misparsing
//!   it ([`CodecError::UnsupportedVersion`]); a version field that is
//!   itself damage fails the checksum of the version it names.
//! * The checksum detects corruption/truncation before any field is
//!   interpreted ([`CodecError::Corrupted`]).
//! * The **config fingerprint** hashes the inference-relevant parts of
//!   [`PipelineConfig`] (iterations, schema matching, clustering, metric
//!   sets, fusion, new detection — *not* the training constants, the
//!   thread count or the shard plan). Loading an artifact into a pipeline
//!   whose config fingerprint differs fails with
//!   [`CodecError::ConfigMismatch`]: models are only valid for the
//!   feature layout and thresholds they were trained against.

use std::path::Path;

use ltee_clustering::{ClusteringConfig, RowMetricKind, RowSimilarityModel};
use ltee_matching::MatcherWeights;
use ltee_codec::{ByteWriter, CodecError, Format, StringTableWriter};
use ltee_intern::fnv1a64;
use ltee_ml::MetricKind;
use ltee_newdetect::{EntityMetricKind, EntitySimilarityModel};
use ltee_types::EquivalenceConfig;

use crate::pipeline::{PipelineConfig, TrainedModels};

/// Magic bytes opening every artifact file.
pub const ARTIFACT_MAGIC: [u8; 8] = *b"LTEEART\x01";

/// The artifact format version this build writes and reads.
pub const ARTIFACT_VERSION: u32 = 4;

/// The model artifact format.
pub const ARTIFACT: Format = Format { name: "model artifact", magic: ARTIFACT_MAGIC, version: ARTIFACT_VERSION };

/// Fingerprint of the inference-relevant parts of a [`PipelineConfig`].
///
/// Covers everything that changes what the learned models *mean* at serve
/// time: the iteration count, schema matching settings, clustering
/// settings, the row/entity metric sets (feature layout!), fusion and new
/// detection settings — the constants among them too. Excludes the
/// training constants (they are baked into the learned parameters),
/// [`crate::Parallelism`] and [`crate::ShardPlan`] (results are
/// independent of both by the determinism contract).
pub fn config_fingerprint(config: &PipelineConfig) -> u64 {
    // The Debug renderings of the config sub-structs are stable, explicit
    // and cheap; hashing them avoids a second hand-rolled encoder that
    // could silently fall out of sync with the struct definitions. The
    // clustering and fusion constants are spelled as the fields they once
    // were, so every stored artifact and checkpoint keeps its fingerprint.
    let clustering = &config.clustering;
    let rendering = format!(
        "iterations={:?};schema={:?};\
         clustering=ClusteringConfig {{ use_blocking: {:?}, block_candidates: {:?}, batch_size: {:?}, \
         use_klj: {:?}, max_klj_passes: {:?} }};\
         row_metrics={:?};entity_metrics={:?};\
         fusion=EntityCreationConfig {{ scoring: {:?}, equivalence: {:?} }};newdetect={:?}",
        config.iterations,
        config.schema,
        clustering.use_blocking,
        ClusteringConfig::BLOCK_CANDIDATES,
        ClusteringConfig::BATCH_SIZE,
        clustering.use_klj,
        ClusteringConfig::MAX_KLJ_PASSES,
        RowMetricKind::ALL,
        EntityMetricKind::ALL,
        config.fusion.scoring,
        EquivalenceConfig::default(),
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
    pub fn verify_config(&self, config: &PipelineConfig) -> Result<(), CodecError> {
        ARTIFACT.check_fingerprint(self.fingerprint, config_fingerprint(config))
    }

    /// Encode the artifact into its binary file format.
    pub fn encode(&self) -> Vec<u8> {
        let mut strings = StringTableWriter::new();
        let mut body = ByteWriter::new();
        self.models.matcher_weights.encode_into(&mut strings, &mut body);
        self.models.row_model.encode_into(&mut strings, &mut body);
        self.models.entity_model.encode_into(&mut strings, &mut body);
        let raw = strings.into_stream(body);
        ltee_codec::seal(&ARTIFACT, &[self.fingerprint], &raw)
    }

    /// Decode an artifact from bytes, validating magic, length, checksum
    /// and version before interpreting any payload field.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let ([fingerprint], raw) = ltee_codec::open(&ARTIFACT, bytes)?;
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
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.encode())
    }

    /// Read and decode an artifact file. A file [`ModelArtifact::decode`]
    /// refuses is an [`std::io::ErrorKind::InvalidData`] error whose inner
    /// error is the [`CodecError`].
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Self::decode(&std::fs::read(path)?)
            .map_err(|refused| std::io::Error::new(std::io::ErrorKind::InvalidData, refused))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_config_fingerprint_is_pinned() {
        // Every stored artifact and checkpoint carries this word; moving it
        // makes every one of them refuse to load.
        assert_eq!(config_fingerprint(&PipelineConfig::fast()), 0x72e03a8bac34d7e7);
    }

    #[test]
    fn fingerprint_ignores_training_and_thread_settings() {
        let base = PipelineConfig::fast();
        let placed = PipelineConfig {
            parallelism: crate::Parallelism::Threads(7),
            shards: crate::ShardPlan::Shards(3),
            ..PipelineConfig::fast()
        };
        assert_eq!(config_fingerprint(&base), config_fingerprint(&placed));
    }

    #[test]
    fn fingerprint_tracks_inference_settings() {
        let base = config_fingerprint(&PipelineConfig::fast());
        let mut fewer_candidates = PipelineConfig::fast();
        fewer_candidates.newdetect.candidates = 3;
        assert_ne!(base, config_fingerprint(&fewer_candidates));

        let mut without_klj = PipelineConfig::fast();
        without_klj.clustering.use_klj = false;
        assert_ne!(base, config_fingerprint(&without_klj));

        let mut kbt = PipelineConfig::fast();
        kbt.fusion.scoring = ltee_fusion::ScoringMethod::Kbt;
        assert_ne!(base, config_fingerprint(&kbt));
    }

    #[test]
    fn decode_rejects_bad_magic_and_short_input() {
        assert_eq!(ModelArtifact::decode(b"nope").unwrap_err(), CodecError::BadMagic(ARTIFACT));
        assert_eq!(
            ModelArtifact::decode(b"PNG\x89\x0d\x0a\x1a\x0a rest").unwrap_err(),
            CodecError::BadMagic(ARTIFACT)
        );
    }
}
