//! # ltee-ml
//!
//! The learning substrate of the LTEE pipeline.
//!
//! The paper learns three kinds of models:
//!
//! * **Weighted averages** whose weights (and a decision threshold) are
//!   learned "using a genetic algorithm that attempts to maximize the
//!   matching performance on the learning set" (Section 3.2). Used to
//!   aggregate schema matching scores, row similarity metrics and
//!   entity-to-instance similarity metrics.
//! * **Random forest regression trees** (WEKA in the paper) over similarity
//!   *and* confidence features, regressing to `-1.0` (non-match) / `1.0`
//!   (match).
//! * A **combined aggregation** that mixes the two model families with
//!   learned mixing weights.
//!
//! Supporting machinery: balanced upsampling of match/non-match pairs,
//! group-aware k-fold splits (homonym groups must stay in one fold), and
//! metric importance scores (the average of random-forest feature importance
//! and weighted-average weights, as reported in Tables 7 and 8).
//!
//! [`MetricModel`] is the pairwise model over one family of similarity
//! metrics ([`MetricKind`]): the row and entity similarity models are its
//! two instances.
//!
//! All three model families serialise through `ltee-codec`
//! (`encode_into` / `decode_from`, against the stream's string table),
//! which is what the train-once / serve-many model artifact in `ltee-core`
//! is built on.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod aggregate;
pub mod dataset;
pub mod folds;
pub mod forest;
pub mod genetic;
pub mod metric;
pub mod weighted;

pub use aggregate::{AggregationMethod, MetricImportance, PairFeatures, PairwiseModel, PairwiseTrainingConfig};
pub use dataset::{Dataset, Sample};
pub use folds::{grouped_k_folds, FoldSplit};
pub use forest::{RandomForest, RandomForestConfig};
pub use genetic::{GeneticConfig, GeneticOptimizer};
pub use metric::{MetricKind, MetricModel};
pub use weighted::WeightedAverageModel;
