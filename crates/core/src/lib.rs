//! # ltee-core
//!
//! The paper's contribution: the end-to-end LTEE pipeline that extends a
//! cross-domain knowledge base with long-tail entities extracted from web
//! tables (Figure 1), plus the experiment harness that regenerates every
//! table of the paper's evaluation.
//!
//! ## Pipeline
//!
//! [`Pipeline`] runs the four components — schema matching, row clustering,
//! entity creation and new detection — in **two iterations**: the first
//! iteration's row clusters and entity-to-instance correspondences are fed
//! back into the second iteration's schema matching, which is what lifts
//! attribute-to-property matching recall so markedly (paper Table 6).
//!
//! ```no_run
//! use ltee_core::prelude::*;
//!
//! let world = generate_world(&GeneratorConfig::new(Scale::gold(), 7));
//! let corpus = generate_corpus(&world, &CorpusConfig::gold());
//! let golds: Vec<GoldStandard> =
//!     CLASS_KEYS.iter().map(|&c| GoldStandard::build(&world, &corpus, c)).collect();
//!
//! let config = PipelineConfig::fast();
//! let models = train_models(&corpus, world.kb(), &golds, &config).expect("trainable corpus");
//! let pipeline = Pipeline::new(world.kb(), models, config);
//! let output = pipeline.run(&corpus).expect("non-empty corpus");
//! for class_output in &output.classes {
//!     println!("{}: {} new entities", class_output.class, class_output.new_entities().len());
//! }
//! ```
//!
//! ## Train once, serve many
//!
//! The batch pipeline retrains nothing at run time, but it is still a batch
//! job. For serving a stream of newly crawled tables, split the phases:
//! [`train_models`] + [`ModelArtifact`] persist the learned models
//! (matcher weights, row/entity forests, thresholds, config fingerprint)
//! to a versioned binary file, and [`IncrementalPipeline`] loads an
//! artifact once and ingests micro-batches of tables — matching,
//! clustering, fusing and classifying only the delta while scoring against
//! all previously ingested state. Ingesting a corpus in K micro-batches is
//! bit-identical to one [`Pipeline::run_streaming`] pass over the union.
//!
//! ```no_run
//! use ltee_core::prelude::*;
//!
//! # let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 7));
//! # let corpus = generate_corpus(&world, &CorpusConfig::tiny());
//! # let golds: Vec<GoldStandard> =
//! #     CLASS_KEYS.iter().map(|&c| GoldStandard::build(&world, &corpus, c)).collect();
//! let config = PipelineConfig::fast();
//! // Train phase (once, offline):
//! let models = train_models(&corpus, world.kb(), &golds, &config).expect("trainable corpus");
//! ModelArtifact::new(models, &config).save("ltee.model").expect("writable path");
//!
//! // Serve phase (any number of processes, no retraining):
//! let artifact = ModelArtifact::load("ltee.model").expect("readable artifact");
//! let mut serving = IncrementalPipeline::from_artifact(world.kb(), &artifact, config)
//!     .expect("artifact matches the config");
//! for batch in corpus.split_into_batches(4) {
//!     let report = serving.ingest(&batch).expect("fresh table ids");
//!     println!("+{} rows -> {} new entities", report.rows, report.new_entities);
//! }
//! ```
//!
//! ## Experiments
//!
//! [`experiments`] regenerates paper Tables 1–12 (and the Section 6 ranked
//! evaluation); every function returns plain row structs, which the
//! umbrella crate's `paper_tables` example prints.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

pub mod artifact;
pub mod checkpoint;
// The paper's evaluation driver runs on corpora it generates itself: a
// failure there is a bug in the generator, not input to report.
#[allow(clippy::expect_used)]
pub mod experiments;
pub mod incremental;
pub mod parallel;
pub mod pipeline;
pub mod shard;

pub use artifact::{config_fingerprint, ModelArtifact};
pub use checkpoint::{decode_corpus, encode_corpus, CheckpointLayout, CheckpointView, PipelineCheckpoint};
pub use incremental::{IncrementalPipeline, IngestReport};
pub use parallel::Parallelism;
pub use shard::ShardPlan;
pub use ltee_codec::CodecError;
pub use pipeline::{
    train_models, ClassOutput, Pipeline, PipelineConfig, PipelineError, PipelineOutput,
    TrainedModels,
};

/// Convenience prelude re-exporting the types needed to drive the pipeline.
pub mod prelude {
    pub use crate::artifact::ModelArtifact;
    pub use crate::checkpoint::PipelineCheckpoint;
    pub use crate::experiments::{self, ExperimentConfig, TrainedWorld};
    pub use crate::incremental::{IncrementalPipeline, IngestReport};
    pub use crate::parallel::Parallelism;
    pub use crate::shard::ShardPlan;
    pub use crate::pipeline::{
        train_models, ClassOutput, Pipeline, PipelineConfig, PipelineError, PipelineOutput,
        TrainedModels,
    };
    pub use ltee_clustering::{AggregationMethod, ClusteringConfig, RowMetricKind};
    pub use ltee_codec::CodecError;
    pub use ltee_fusion::ScoringMethod;
    pub use ltee_intern::{Interner, Sym, TokenSeq};
    pub use ltee_kb::{
        generate_world, ClassKey, GeneratorConfig, KnowledgeBase, Scale, World, CLASS_KEYS,
    };
    pub use ltee_ml::MetricKind;
    pub use ltee_newdetect::{EntityMetricKind, NewDetectionConfig, NewDetectionOutcome};
    pub use ltee_webtables::{generate_corpus, Corpus, CorpusConfig, GeneratedCorpus, GoldStandard};
}
