//! # ltee-newdetect
//!
//! New detection (paper Section 3.4): deciding whether a created entity
//! describes an instance that is *new* (missing from the knowledge base) or
//! an existing one — and, for existing ones, which instance it corresponds
//! to. The correspondences are fed back into the second pipeline iteration
//! to refine the schema mapping.
//!
//! The three steps:
//!
//! 1. **Candidate selection** — candidate instances are retrieved from a
//!    label index over the knowledge base labels, restricted to the entity's
//!    class (or a class sharing a parent).
//! 2. **Similarity computation** — six entity-to-instance metrics: `LABEL`,
//!    `TYPE`, `BOW`, `ATTRIBUTE`, `IMPLICIT_ATT` and `POPULARITY`
//!    ([`EntityMetricKind`]), aggregated by the same learned machinery as
//!    row clustering (weighted average / random forest / combined).
//! 3. **Classification** — if the best candidate's aggregated score is below
//!    a learned threshold the entity is classified as *new*; otherwise it is
//!    classified as *existing* and linked to that candidate.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

pub mod detect;
pub mod metrics;
pub mod train;

pub use detect::{detect_new, NewDetectionConfig, NewDetectionOutcome, NewDetectionResult};
pub use metrics::{entity_metric_features, EntityMetricKind, EntitySimilarityModel, InstanceContext};
pub use train::{build_entity_pair_dataset, ENTITY_MODEL_TRAINING};
