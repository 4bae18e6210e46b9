//! # ltee-index
//!
//! An inverted label index — the crate that stands in for the Apache Lucene
//! index the paper uses in two places:
//!
//! * **Blocking** for row clustering (Section 3.2): "We first normalize the
//!   labels of all rows and use them to build a Lucene index. Each label in
//!   the index forms a block … For each row we use the index to retrieve a
//!   number of labels similar to the row's label, and assign their blocks to
//!   the row."
//! * **Candidate selection** for new detection (Section 3.4): "We find a
//!   list of candidate instances from the knowledge base using a Lucene
//!   index built from the labels of knowledge base instances."
//!
//! Both uses are recall-oriented, approximate, top-k lookups over short
//! labels, so the index is a straightforward token-level inverted index with
//! a cheap ranking function (shared-token count, tie-broken by a normalised
//! length-difference penalty). It is deliberately not a general-purpose
//! search engine.
//!
//! All postings and block keys are integer [`ltee_intern::Sym`]s backed by
//! the index's own arena interner — no per-entry `String`s, no string
//! hashing on the lookup path. The syms a lookup returns double as dense
//! blocking keys for the clustering layer.
//!
//! Fuzzy lookups are *pruned*: alongside the postings the index maintains
//! per-token length buckets and a deletion-neighborhood token dictionary
//! (the [`candidates`](crate) side tables), visits candidates
//! document-at-a-time, and fully scores only those whose length-derived
//! upper bound could still enter the running top-k. Near-miss tokens are
//! resolved through `ltee_text::SimilarityGate`, whose bounded
//! bit-parallel kernel stops once a token cannot beat the running best.
//! Results are bit-identical to the flat scan — same ids, same score
//! bits, same surfaced labels, same order —
//! while the work per query stays roughly flat as the index grows; the
//! [`metrics`] counters expose that claim deterministically.
//!
//! There is one index type. A [`LabelIndex`] grows by `insert` (the
//! streaming blocking index of each class's rows never stops growing);
//! [`LabelIndex::into_shared`] seals it once it is complete. The sealed
//! [`SharedLabelIndex`] dereferences to the same index, so every read is
//! the index's own, but it has no `insert`, and its tables hold no growth
//! slack. The knowledge base's per-class indexes (candidate selection) and
//! every served snapshot's per-class index are sealed.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

mod candidates;
pub mod label_index;
pub mod metrics;
mod postings;
#[cfg(test)]
mod reference;
#[cfg(test)]
#[path = "../tests/scaling_corpus/mod.rs"]
mod scaling_corpus;

pub use label_index::{LabelEntry, LabelIndex, LabelMatch, NormalizedLabel, SharedLabelIndex};
pub use metrics::LookupMetrics;
