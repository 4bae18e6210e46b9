//! Evaluation of the new detection component (paper Table 8).

use ltee_kb::InstanceId;
use ltee_newdetect::NewDetectionOutcome;

use crate::f1;

/// Ground truth for one evaluated entity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EntityTruth {
    /// Whether the entity truly describes a new instance.
    pub is_new: bool,
    /// The knowledge base instance the entity truly corresponds to (for
    /// existing entities).
    pub instance: Option<InstanceId>,
}

/// Evaluation result of the new detection component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewDetectionEvaluation {
    /// Fraction of entities classified correctly (existing entities must
    /// additionally be matched to the correct instance).
    pub accuracy: f64,
    /// F1 of the "existing" classification (correct instance required).
    pub f1_existing: f64,
    /// F1 of the "new" classification.
    pub f1_new: f64,
    /// Number of evaluated entities.
    pub evaluated: usize,
}

/// Evaluate predicted outcomes against the per-entity ground truth.
pub fn evaluate_new_detection(
    predicted: &[NewDetectionOutcome],
    truth: &[EntityTruth],
) -> NewDetectionEvaluation {
    assert_eq!(predicted.len(), truth.len(), "one truth entry per prediction");
    if predicted.is_empty() {
        return NewDetectionEvaluation { accuracy: 0.0, f1_existing: 0.0, f1_new: 0.0, evaluated: 0 };
    }

    let mut correct = 0usize;
    // New side.
    let mut tp_new = 0usize;
    let mut fp_new = 0usize;
    let mut fn_new = 0usize;
    // Existing side (correct instance required for a true positive).
    let mut tp_existing = 0usize;
    let mut fp_existing = 0usize;
    let mut fn_existing = 0usize;

    for (p, t) in predicted.iter().zip(truth.iter()) {
        let correctly_classified = match p {
            NewDetectionOutcome::New => t.is_new,
            NewDetectionOutcome::Existing(id) => !t.is_new && Some(*id) == t.instance,
        };
        if correctly_classified {
            correct += 1;
        }
        match (p.is_new(), t.is_new) {
            (true, true) => tp_new += 1,
            (true, false) => {
                fp_new += 1;
                fn_existing += 1;
            }
            (false, true) => {
                fn_new += 1;
                fp_existing += 1;
            }
            (false, false) => {
                if correctly_classified {
                    tp_existing += 1;
                } else {
                    // Linked to the wrong instance: a false positive for the
                    // existing side and a miss of the correct link.
                    fp_existing += 1;
                    fn_existing += 1;
                }
            }
        }
    }

    let precision_new = if tp_new + fp_new == 0 { 0.0 } else { tp_new as f64 / (tp_new + fp_new) as f64 };
    let recall_new = if tp_new + fn_new == 0 { 0.0 } else { tp_new as f64 / (tp_new + fn_new) as f64 };
    let precision_existing = if tp_existing + fp_existing == 0 {
        0.0
    } else {
        tp_existing as f64 / (tp_existing + fp_existing) as f64
    };
    let recall_existing = if tp_existing + fn_existing == 0 {
        0.0
    } else {
        tp_existing as f64 / (tp_existing + fn_existing) as f64
    };

    NewDetectionEvaluation {
        accuracy: correct as f64 / predicted.len() as f64,
        f1_existing: f1(precision_existing, recall_existing),
        f1_new: f1(precision_new, recall_new),
        evaluated: predicted.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn new_truth() -> EntityTruth {
        EntityTruth { is_new: true, instance: None }
    }

    fn existing_truth(id: u64) -> EntityTruth {
        EntityTruth { is_new: false, instance: Some(InstanceId(id)) }
    }

    #[test]
    fn perfect_predictions_score_one() {
        let predicted = vec![
            NewDetectionOutcome::New,
            NewDetectionOutcome::Existing(InstanceId(1)),
            NewDetectionOutcome::Existing(InstanceId(2)),
        ];
        let truth = vec![new_truth(), existing_truth(1), existing_truth(2)];
        let eval = evaluate_new_detection(&predicted, &truth);
        assert_eq!(eval.accuracy, 1.0);
        assert_eq!(eval.f1_existing, 1.0);
        assert_eq!(eval.f1_new, 1.0);
    }

    #[test]
    fn wrong_instance_counts_against_existing_even_if_not_new() {
        let predicted = vec![NewDetectionOutcome::Existing(InstanceId(9))];
        let truth = vec![existing_truth(1)];
        let eval = evaluate_new_detection(&predicted, &truth);
        assert_eq!(eval.accuracy, 0.0);
        assert_eq!(eval.f1_existing, 0.0);
    }

    #[test]
    fn misclassifying_existing_as_new_hurts_both_sides() {
        let predicted = vec![NewDetectionOutcome::New, NewDetectionOutcome::New];
        let truth = vec![existing_truth(1), new_truth()];
        let eval = evaluate_new_detection(&predicted, &truth);
        assert_eq!(eval.accuracy, 0.5);
        assert!(eval.f1_new < 1.0);
        assert_eq!(eval.f1_existing, 0.0);
    }

    #[test]
    fn missing_new_entities_hurts_new_recall() {
        let predicted = vec![NewDetectionOutcome::Existing(InstanceId(1)), NewDetectionOutcome::New];
        let truth = vec![new_truth(), new_truth()];
        let eval = evaluate_new_detection(&predicted, &truth);
        assert!(eval.f1_new > 0.0 && eval.f1_new < 1.0);
    }

    #[test]
    fn empty_input() {
        let eval = evaluate_new_detection(&[], &[]);
        assert_eq!(eval.evaluated, 0);
        assert_eq!(eval.accuracy, 0.0);
    }

    #[test]
    #[should_panic(expected = "one truth entry per prediction")]
    fn mismatched_lengths_panic() {
        evaluate_new_detection(&[NewDetectionOutcome::New], &[]);
    }
}
