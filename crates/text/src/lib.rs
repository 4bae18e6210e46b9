//! # ltee-text
//!
//! String processing substrate for the LTEE pipeline: normalisation,
//! tokenisation, character- and token-level string similarity measures and
//! bag-of-words vectors.
//!
//! The paper relies on a small set of classic measures:
//!
//! * **Levenshtein** edit distance (normalised to a similarity in `[0, 1]`),
//!   used as the inner similarity of Monge-Elkan.
//! * **Monge-Elkan** token-set similarity with Levenshtein as the inner
//!   function — the label similarity used both by the `LABEL` row-similarity
//!   metric (Section 3.2) and the `LABEL` entity-to-instance metric
//!   (Section 3.4).
//! * **Jaccard** token overlap, used by the label-based schema matchers.
//! * **Cosine** similarity of binary bag-of-words vectors, used by the `BOW`
//!   metrics.
//!
//! All functions operate on already-normalised text; [`normalize`] provides
//! the shared cleaning / tokenisation used across the pipeline.
//!
//! Every edit distance comes from one kernel, Myers' [`bounded_levenshtein`];
//! Monge-Elkan and the fuzzy label index take their maxima through one exact
//! [`SimilarityGate`]. The two-row DP is the test oracle (`tests/oracle/`).
//!
//! The [`interned`] module provides the symbol-based entry points
//! ([`normalize_and_intern`], [`tokenize_interned`],
//! [`monge_elkan_tokens`]) that the hot paths use: same values, one
//! normalisation per distinct label per run instead of one per comparison.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

pub mod interned;
pub mod jaccard;
pub mod levenshtein;
pub mod monge_elkan;
pub mod myers;
pub mod normalize;
pub mod vector;

#[cfg(test)]
#[path = "../tests/oracle/mod.rs"]
mod oracle;

pub use interned::{monge_elkan_tokens, normalize_and_intern, tokenize_interned, tokenize_interned_into};
pub use jaccard::jaccard_similarity;
pub use levenshtein::{levenshtein_distance, levenshtein_similarity, SimilarityGate};
pub use myers::{bounded_levenshtein, within_one_edit};
pub use monge_elkan::{monge_elkan_normalized, monge_elkan_similarity, monge_elkan_tokenized};
pub use normalize::{clean_label, normalize_label, tokenize};
pub use vector::{cosine_similarity, BowVector};

/// Clamp a floating point score into the inclusive `[0.0, 1.0]` range.
///
/// Similarity functions throughout the pipeline are documented to return
/// scores in `[0, 1]`; floating point error occasionally nudges a result a
/// hair outside that interval, which would later break threshold learning.
#[inline]
pub fn clamp_unit(score: f64) -> f64 {
    score.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_unit_clamps_low() {
        assert_eq!(clamp_unit(-0.3), 0.0);
    }

    #[test]
    fn clamp_unit_clamps_high() {
        assert_eq!(clamp_unit(1.2), 1.0);
    }

    #[test]
    fn clamp_unit_passes_through() {
        assert_eq!(clamp_unit(0.5), 0.5);
    }
}
