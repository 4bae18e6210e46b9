//! # ltee-clustering
//!
//! Row clustering (paper Section 3.2): grouping web table rows that describe
//! the same real-world instance, *independently of whether that instance
//! exists in the knowledge base* — the step that makes discovering new
//! entities possible at all.
//!
//! The implementation follows the paper:
//!
//! * **Row similarity metrics** — `LABEL`, `BOW`, `PHI`, `ATTRIBUTE`,
//!   `IMPLICIT_ATT` and `SAME_TABLE` ([`RowMetricKind`]), each producing a
//!   similarity and (for some) a confidence score.
//! * **Aggregation** — a learned weighted average, a random forest
//!   regression over similarities and confidences, or their combination
//!   (via `ltee-ml`'s [`PairwiseModel`](ltee_ml::PairwiseModel)), producing
//!   a score in `[-1, 1]`.
//! * **Clustering algorithm** — greedy correlation clustering executed in
//!   parallel over row batches, followed by a Kernighan-Lin-with-joins (KLj)
//!   refinement that moves rows between cluster pairs, merges and splits
//!   clusters until the local fitness stops improving.
//! * **Blocking** — a label index over normalised row labels; rows are only
//!   compared to clusters with which they share a block, and KLj only
//!   compares cluster pairs sharing a block.

//! * **Streaming mode** — [`incremental`] hosts the serve-phase variants
//!   ([`StreamingClusterer`], [`StreamingPhi`]) whose results are invariant
//!   to how a table stream is split into micro-batches.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

pub mod cluster;
pub mod context;
pub mod incremental;
pub mod metrics;
#[cfg(test)]
mod phi_oracle;
#[cfg(test)]
#[path = "../../../tests/support/seeded_words.rs"]
mod seeded_words;
pub mod train;

pub use cluster::{cluster_rows, Clustering, ClusteringConfig};
pub use context::{build_row_contexts, ImplicitAttribute, ImplicitAttributes, RowContext};
pub use incremental::{StreamingClusterer, StreamingPhi};
pub use metrics::{metric_features, RowMetricKind, RowProbe, RowSimilarityModel};
pub use train::{build_pair_dataset, ROW_MODEL_TRAINING};

pub use ltee_ml::AggregationMethod;
