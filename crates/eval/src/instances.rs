//! "New instances found" evaluation (paper Section 4.1, Table 9).

use std::collections::{HashMap, HashSet};

use ltee_fusion::Entity;
use ltee_newdetect::NewDetectionOutcome;
use ltee_webtables::{GoldStandard, RowRef};

use crate::f1;

/// Result of the new-instances-found evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewInstancesEvaluation {
    /// Precision: fraction of entities returned as new that correctly match
    /// a new instance of the gold standard.
    pub precision: f64,
    /// Recall: fraction of new instances in the gold standard for which a
    /// correct entity was returned.
    pub recall: f64,
    /// F1 of the two.
    pub f1: f64,
    /// Number of entities the system returned as new.
    pub returned_new: usize,
    /// Number of new instances in the gold standard.
    pub gold_new: usize,
}

/// Map an entity to the gold cluster it represents, if any.
///
/// Paper Section 4.1: "a majority of the rows of an entity must correspond
/// to the same new instance in the gold standard, while at the same time the
/// entity must also contain the majority of the rows that actually describe
/// that instance."
pub fn entity_gold_cluster(entity_rows: &[RowRef], gold: &GoldStandard) -> Option<usize> {
    if entity_rows.is_empty() {
        return None;
    }
    let mut counts: HashMap<usize, usize> = HashMap::new();
    for row in entity_rows {
        if let Some(ci) = gold.cluster_of_row(*row) {
            *counts.entry(ci).or_insert(0) += 1;
        }
    }
    let (&best_cluster, &overlap) = counts.iter().max_by_key(|(_, &c)| c)?;
    // Majority of the entity's rows belong to that cluster…
    if overlap * 2 <= entity_rows.len() {
        return None;
    }
    // …and the entity contains the majority of the cluster's rows.
    let cluster_size = gold.clusters[best_cluster].rows.len();
    if overlap * 2 <= cluster_size {
        return None;
    }
    Some(best_cluster)
}

/// Evaluate how well new instances were found.
///
/// `entities` and `outcomes` are parallel (one outcome per created entity).
pub fn evaluate_new_instances(
    entities: &[Entity],
    outcomes: &[NewDetectionOutcome],
    gold: &GoldStandard,
) -> NewInstancesEvaluation {
    assert_eq!(entities.len(), outcomes.len(), "one outcome per entity");
    let gold_new: HashSet<usize> = gold
        .clusters
        .iter()
        .enumerate()
        .filter(|(_, c)| c.is_new)
        .map(|(i, _)| i)
        .collect();

    let mut correctly_found: HashSet<usize> = HashSet::new();
    let mut returned_new = 0usize;
    let mut correct_returns = 0usize;
    for (entity, outcome) in entities.iter().zip(outcomes.iter()) {
        if !outcome.is_new() {
            continue;
        }
        returned_new += 1;
        if let Some(cluster) = entity_gold_cluster(&entity.rows, gold) {
            if gold_new.contains(&cluster) {
                correct_returns += 1;
                correctly_found.insert(cluster);
            }
        }
    }

    let precision = if returned_new == 0 { 0.0 } else { correct_returns as f64 / returned_new as f64 };
    let recall = if gold_new.is_empty() { 0.0 } else { correctly_found.len() as f64 / gold_new.len() as f64 };
    NewInstancesEvaluation {
        precision,
        recall,
        f1: f1(precision, recall),
        returned_new,
        gold_new: gold_new.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltee_kb::{ClassKey, EntityId, InstanceId};
    use ltee_webtables::{GoldCluster, TableId};

    fn r(t: u64, row: usize) -> RowRef {
        RowRef::new(TableId(t), row)
    }

    fn gold_with(clusters: Vec<(Vec<RowRef>, bool)>) -> GoldStandard {
        GoldStandard {
            class: ClassKey::Song,
            tables: vec![],
            clusters: clusters
                .into_iter()
                .enumerate()
                .map(|(i, (rows, is_new))| GoldCluster {
                    entity: EntityId(i as u64),
                    rows,
                    is_new,
                    is_target_class: true,
                    kb_instance: if is_new { None } else { Some(InstanceId(i as u64)) },
                    homonym_group: i as u64,
                })
                .collect(),
            attributes: vec![],
            facts: vec![],
        }
    }

    fn entity(rows: Vec<RowRef>) -> Entity {
        Entity { class: ClassKey::Song, rows, labels: vec!["x".into()], facts: vec![] }
    }

    #[test]
    fn perfect_system_scores_one() {
        let gold = gold_with(vec![
            (vec![r(1, 0), r(2, 0)], true),
            (vec![r(3, 0)], true),
            (vec![r(4, 0), r(5, 0)], false),
        ]);
        let entities = vec![
            entity(vec![r(1, 0), r(2, 0)]),
            entity(vec![r(3, 0)]),
            entity(vec![r(4, 0), r(5, 0)]),
        ];
        let outcomes = vec![
            NewDetectionOutcome::New,
            NewDetectionOutcome::New,
            NewDetectionOutcome::Existing(InstanceId(2)),
        ];
        let eval = evaluate_new_instances(&entities, &outcomes, &gold);
        assert_eq!(eval.precision, 1.0);
        assert_eq!(eval.recall, 1.0);
        assert_eq!(eval.f1, 1.0);
    }

    #[test]
    fn existing_entity_classified_new_hurts_precision() {
        let gold = gold_with(vec![(vec![r(1, 0)], true), (vec![r(2, 0)], false)]);
        let entities = vec![entity(vec![r(1, 0)]), entity(vec![r(2, 0)])];
        let outcomes = vec![NewDetectionOutcome::New, NewDetectionOutcome::New];
        let eval = evaluate_new_instances(&entities, &outcomes, &gold);
        assert_eq!(eval.precision, 0.5);
        assert_eq!(eval.recall, 1.0);
    }

    #[test]
    fn missed_new_instance_hurts_recall() {
        let gold = gold_with(vec![(vec![r(1, 0)], true), (vec![r(2, 0)], true)]);
        let entities = vec![entity(vec![r(1, 0)]), entity(vec![r(2, 0)])];
        let outcomes = vec![NewDetectionOutcome::New, NewDetectionOutcome::Existing(InstanceId(0))];
        let eval = evaluate_new_instances(&entities, &outcomes, &gold);
        assert_eq!(eval.recall, 0.5);
        assert_eq!(eval.precision, 1.0);
    }

    #[test]
    fn badly_clustered_entity_does_not_count() {
        // The entity mixes rows of two clusters: no majority mapping.
        let gold = gold_with(vec![(vec![r(1, 0), r(1, 1)], true), (vec![r(2, 0), r(2, 1)], true)]);
        let entities = vec![entity(vec![r(1, 0), r(2, 0)])];
        let outcomes = vec![NewDetectionOutcome::New];
        let eval = evaluate_new_instances(&entities, &outcomes, &gold);
        assert_eq!(eval.precision, 0.0);
        assert_eq!(eval.recall, 0.0);
    }

    #[test]
    fn entity_missing_majority_of_cluster_rows_does_not_count() {
        let gold = gold_with(vec![(vec![r(1, 0), r(2, 0), r(3, 0), r(4, 0)], true)]);
        let entities = vec![entity(vec![r(1, 0)])];
        let outcomes = vec![NewDetectionOutcome::New];
        let eval = evaluate_new_instances(&entities, &outcomes, &gold);
        assert_eq!(eval.recall, 0.0);
    }

    #[test]
    fn entity_gold_cluster_majority_mapping() {
        let gold = gold_with(vec![(vec![r(1, 0), r(2, 0), r(3, 0)], true)]);
        assert_eq!(entity_gold_cluster(&[r(1, 0), r(2, 0)], &gold), Some(0));
        assert_eq!(entity_gold_cluster(&[r(9, 9)], &gold), None);
        assert_eq!(entity_gold_cluster(&[], &gold), None);
    }
}
