//! "Facts found" evaluation (paper Section 4.2, Table 10) and fact accuracy
//! for the large-scale profiling (Table 11).

use ltee_fusion::Entity;
use ltee_kb::{ClassKey, KnowledgeBase};
use ltee_newdetect::NewDetectionOutcome;
use ltee_types::{value_equivalent, EquivalenceConfig};
use ltee_webtables::GoldStandard;

use crate::f1;
use crate::instances::entity_gold_cluster;

/// Result of the facts-found evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FactsEvaluation {
    /// Precision of the returned facts.
    pub precision: f64,
    /// Recall against the gold facts whose correct value is present in the
    /// tables.
    pub recall: f64,
    /// F1 of the two.
    pub f1: f64,
    /// Total facts returned for entities classified as new.
    pub returned_facts: usize,
    /// Number of returned facts judged correct.
    pub correct_facts: usize,
}

/// Evaluate the facts of entities classified as new against the gold facts.
///
/// * Facts of entities that cannot be mapped to a new gold cluster (wrongly
///   created or wrongly classified as new) count as wrong.
/// * A fact is correct when it is equivalent (data-type specific similarity
///   with a tolerance range) to the gold fact of its cluster and property.
/// * Recall counts, over the new gold clusters, the gold facts whose correct
///   value is present in the tables (Table 5, last column) — the value
///   groups the system could have gotten right.
pub fn evaluate_facts(
    entities: &[Entity],
    outcomes: &[NewDetectionOutcome],
    gold: &GoldStandard,
    kb: &KnowledgeBase,
    class: ClassKey,
) -> FactsEvaluation {
    assert_eq!(entities.len(), outcomes.len(), "one outcome per entity");
    let eq = EquivalenceConfig::lenient();

    let mut returned = 0usize;
    let mut correct = 0usize;
    // Recallable gold facts: (cluster, property) groups of new clusters with
    // the correct value present.
    let recallable: Vec<(usize, &'static str)> = gold
        .facts
        .iter()
        .filter(|f| f.value_present && gold.clusters[f.cluster].is_new)
        .map(|f| (f.cluster, f.property))
        .collect();
    let mut recalled: std::collections::HashSet<(usize, &'static str)> = std::collections::HashSet::new();

    for (entity, outcome) in entities.iter().zip(outcomes.iter()) {
        if !outcome.is_new() {
            continue;
        }
        let cluster = entity_gold_cluster(&entity.rows, gold);
        let new_cluster = cluster.filter(|&ci| gold.clusters[ci].is_new);
        for &(property, ref value, _) in &entity.facts {
            returned += 1;
            let Some(ci) = new_cluster else { continue };
            let Some(gold_fact) = gold.facts.iter().find(|f| f.cluster == ci && f.property == property)
            else {
                continue;
            };
            let dtype = kb
                .property_by_name(class, property)
                .map(|p| p.data_type)
                .unwrap_or_else(|| value.data_type());
            if value_equivalent(value, &gold_fact.correct_value, dtype, &eq) {
                correct += 1;
                recalled.insert((ci, property));
            }
        }
    }

    let precision = if returned == 0 { 0.0 } else { correct as f64 / returned as f64 };
    let recall = if recallable.is_empty() {
        0.0
    } else {
        recalled.len() as f64 / recallable.len() as f64
    };
    FactsEvaluation {
        precision,
        recall,
        f1: f1(precision, recall),
        returned_facts: returned,
        correct_facts: correct,
    }
}

/// Fact accuracy against the world ground truth — used by the large-scale
/// profiling (Table 11), where a sample of new entities is checked against
/// the "real world" rather than the gold standard.
pub fn fact_accuracy_against_world(
    entities: &[&Entity],
    world: &ltee_kb::World,
    entity_of: impl Fn(&Entity) -> Option<ltee_kb::EntityId>,
    class: ClassKey,
) -> f64 {
    let eq = EquivalenceConfig::lenient();
    let mut total = 0usize;
    let mut correct = 0usize;
    for entity in entities {
        let Some(world_id) = entity_of(entity) else {
            total += entity.facts.len();
            continue;
        };
        let Some(world_entity) = world.entity(world_id) else { continue };
        for (prop, value, _) in &entity.facts {
            total += 1;
            let Some(truth) = world_entity.fact(prop) else { continue };
            let dtype = world
                .kb()
                .property_by_name(class, prop)
                .map(|p| p.data_type)
                .unwrap_or_else(|| value.data_type());
            if value_equivalent(value, truth, dtype, &eq) {
                correct += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        correct as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltee_kb::{EntityId, InstanceId};
    use ltee_types::{DataType, Value};
    use ltee_webtables::{GoldCluster, GoldFact, RowRef, TableId};

    fn r(t: u64, row: usize) -> RowRef {
        RowRef::new(TableId(t), row)
    }

    fn kb_with_song_props() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        kb.add_property(ClassKey::Song, "runtime", DataType::Quantity, "length");
        kb.add_property(ClassKey::Song, "musicalArtist", DataType::InstanceReference, "artist");
        kb
    }

    fn gold_one_new_cluster() -> GoldStandard {
        GoldStandard {
            class: ClassKey::Song,
            tables: vec![],
            clusters: vec![GoldCluster {
                entity: EntityId(0),
                rows: vec![r(1, 0), r(2, 0)],
                is_new: true,
                is_target_class: true,
                kb_instance: None,
                homonym_group: 0,
            }],
            attributes: vec![],
            facts: vec![
                GoldFact {
                    cluster: 0,
                    property: "runtime",
                    correct_value: Value::Quantity(200.0),
                    value_present: true,
                },
                GoldFact {
                    cluster: 0,
                    property: "musicalArtist",
                    correct_value: Value::InstanceRef("Echo Chamber".into()),
                    value_present: true,
                },
            ],
        }
    }

    fn entity(rows: Vec<RowRef>, facts: Vec<(&'static str, Value)>) -> Entity {
        Entity {
            class: ClassKey::Song,
            rows,
            labels: vec!["x".into()],
            facts: facts.into_iter().map(|(p, v)| (p, v, 1.0)).collect(),
        }
    }

    #[test]
    fn correct_facts_give_perfect_scores() {
        let gold = gold_one_new_cluster();
        let kb = kb_with_song_props();
        let entities = vec![entity(
            vec![r(1, 0), r(2, 0)],
            vec![
                ("runtime", Value::Quantity(200.0)),
                ("musicalArtist", Value::InstanceRef("Echo Chamber".into())),
            ],
        )];
        let outcomes = vec![NewDetectionOutcome::New];
        let eval = evaluate_facts(&entities, &outcomes, &gold, &kb, ClassKey::Song);
        assert_eq!(eval.precision, 1.0);
        assert_eq!(eval.recall, 1.0);
        assert_eq!(eval.f1, 1.0);
    }

    #[test]
    fn wrong_value_reduces_precision_and_recall() {
        let gold = gold_one_new_cluster();
        let kb = kb_with_song_props();
        let entities = vec![entity(vec![r(1, 0), r(2, 0)], vec![("runtime", Value::Quantity(999.0))])];
        let outcomes = vec![NewDetectionOutcome::New];
        let eval = evaluate_facts(&entities, &outcomes, &gold, &kb, ClassKey::Song);
        assert_eq!(eval.precision, 0.0);
        assert_eq!(eval.recall, 0.0);
    }

    #[test]
    fn facts_of_wrongly_new_entities_count_as_wrong() {
        let mut gold = gold_one_new_cluster();
        gold.clusters[0].is_new = false;
        gold.clusters[0].kb_instance = Some(InstanceId(7));
        let kb = kb_with_song_props();
        let entities = vec![entity(vec![r(1, 0), r(2, 0)], vec![("runtime", Value::Quantity(200.0))])];
        let outcomes = vec![NewDetectionOutcome::New];
        let eval = evaluate_facts(&entities, &outcomes, &gold, &kb, ClassKey::Song);
        assert_eq!(eval.precision, 0.0, "facts of an existing instance returned as new are wrong");
    }

    #[test]
    fn entities_classified_existing_are_ignored() {
        let gold = gold_one_new_cluster();
        let kb = kb_with_song_props();
        let entities = vec![entity(vec![r(1, 0), r(2, 0)], vec![("runtime", Value::Quantity(200.0))])];
        let outcomes = vec![NewDetectionOutcome::Existing(InstanceId(3))];
        let eval = evaluate_facts(&entities, &outcomes, &gold, &kb, ClassKey::Song);
        assert_eq!(eval.returned_facts, 0);
        assert_eq!(eval.recall, 0.0);
    }

    #[test]
    fn tolerance_accepts_slightly_off_quantities() {
        let gold = gold_one_new_cluster();
        let kb = kb_with_song_props();
        // 205 vs 200 is within the lenient 10% tolerance.
        let entities = vec![entity(vec![r(1, 0), r(2, 0)], vec![("runtime", Value::Quantity(205.0))])];
        let outcomes = vec![NewDetectionOutcome::New];
        let eval = evaluate_facts(&entities, &outcomes, &gold, &kb, ClassKey::Song);
        assert_eq!(eval.precision, 1.0);
    }

    #[test]
    fn fact_accuracy_against_world_counts_matches() {
        use ltee_kb::{generate_world, GeneratorConfig, Scale};
        let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 91));
        let class = ClassKey::Song;
        let tail = &world.long_tail_of_class(class)[0];
        let good = entity(
            vec![r(1, 0)],
            vec![("runtime", tail.fact("runtime").unwrap().clone())],
        );
        let bad = entity(vec![r(2, 0)], vec![("runtime", Value::Quantity(-1.0))]);
        let entities = vec![&good, &bad];
        let id = tail.id;
        let acc = fact_accuracy_against_world(&entities, &world, |_| Some(id), class);
        assert!((acc - 0.5).abs() < 1e-12);
    }
}
