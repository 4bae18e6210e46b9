//! # ltee-eval
//!
//! The evaluation framework: every measure the paper reports.
//!
//! * [`clustering`] — the Hassanzadeh et al. clustering evaluation used for
//!   Table 7: a one-to-one mapping between produced and gold clusters,
//!   average recall, pairwise clustering precision penalised by the
//!   deviation of the cluster count, and their F1.
//! * [`newdetect`] — accuracy and per-side F1 (existing / new) of the new
//!   detection component (Table 8).
//! * [`instances`] — the "new instances found" precision / recall / F1 of
//!   the end-to-end system (Table 9).
//! * [`facts`] — the "facts found" F1 of the fused descriptions (Table 10)
//!   and the fact accuracy used in the large-scale profiling (Table 11).
//! * [`ranked`] — MAP@k and precision@k used for the set-expansion
//!   comparison in Section 6.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

pub mod clustering;
pub mod facts;
pub mod instances;
pub mod newdetect;
pub mod ranked;

pub use clustering::{evaluate_clustering, ClusteringEvaluation};
pub use facts::{evaluate_facts, fact_accuracy_against_world, FactsEvaluation};
pub use instances::{evaluate_new_instances, NewInstancesEvaluation};
pub use newdetect::{evaluate_new_detection, EntityTruth, NewDetectionEvaluation};
pub use ranked::{average_precision, precision_at_k, RankedEvaluation};

/// Harmonic mean of precision and recall; zero when either is zero.
pub fn f1(precision: f64, recall: f64) -> f64 {
    if precision + recall <= 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f1_of_equal_precision_recall() {
        assert!((f1(0.8, 0.8) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn f1_zero_when_either_zero() {
        assert_eq!(f1(0.0, 0.9), 0.0);
        assert_eq!(f1(0.9, 0.0), 0.0);
    }

    #[test]
    fn f1_is_harmonic_mean() {
        assert!((f1(1.0, 0.5) - 2.0 / 3.0).abs() < 1e-12);
    }
}
