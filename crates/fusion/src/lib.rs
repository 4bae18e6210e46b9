//! # ltee-fusion
//!
//! Entity creation (paper Section 3.3): turning a cluster of rows into an
//! entity described according to the knowledge base schema.
//!
//! An entity consists of one or more labels (extracted from the label
//! attribute of the cluster's rows) and a set of fused property values.
//! Because a cluster usually contributes several candidate values per
//! property, candidates are fused with the paper's four-step method:
//!
//! 1. **Scoring** — [`ScoringMethod::Voting`] (all candidates equal),
//!    [`ScoringMethod::Kbt`] (Knowledge-Based-Trust: the trustworthiness of
//!    the source attribute, estimated from how well its values overlap with
//!    the knowledge base) or [`ScoringMethod::Matching`] (the
//!    attribute-to-property correspondence score from schema matching).
//! 2. **Grouping** — equal values (under the data type's equivalence
//!    function) are grouped.
//! 3. **Selection** — the group with the highest sum of candidate scores is
//!    selected.
//! 4. **Fusion** — the group is fused into one value: majority value for
//!    text and instance references, weighted median for quantities and
//!    dates, and the (identical) value for nominals.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

pub mod entity;
pub mod fuse;

pub use entity::{CandidateValue, Entity};
pub use fuse::{
    create_entities, create_entities_with_scores, kbt_scores_for_tables,
    EntityCreationConfig, ScoringMethod,
};
