//! Candidate selection and new/existing classification.

use ltee_index::LabelIndex;
use ltee_intern::Interner;
use ltee_kb::{InstanceId, KnowledgeBase};
use rayon::prelude::*;

use crate::metrics::{by_popularity, entity_metric_features, EntityContext, EntitySimilarityModel, InstanceContext};

/// Configuration of the new detection component.
#[derive(Debug, Clone, PartialEq)]
pub struct NewDetectionConfig {
    /// Number of candidate instances retrieved per entity.
    pub candidates: usize,
    /// Minimum label score for a candidate to be considered at all.
    pub min_candidate_label_score: f64,
    /// Margin on the aggregated score above which an entity is linked to the
    /// best candidate (scores below `-margin`… `margin` around zero are kept
    /// conservative: the model score must exceed this to classify as
    /// existing, and fall below its negation to be confidently new; scores
    /// in between default to new, which matches the paper's observation that
    /// errors are dominated by entities wrongly classified as new).
    pub existing_margin: f64,
}

impl Default for NewDetectionConfig {
    fn default() -> Self {
        Self { candidates: 10, min_candidate_label_score: 0.35, existing_margin: 0.0 }
    }
}

/// Classification outcome for one entity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NewDetectionOutcome {
    /// The entity describes an instance not present in the knowledge base.
    New,
    /// The entity corresponds to the given existing instance.
    Existing(InstanceId),
}

impl NewDetectionOutcome {
    /// Whether the outcome is `New`.
    pub fn is_new(&self) -> bool {
        matches!(self, NewDetectionOutcome::New)
    }

    /// The matched instance, if existing.
    pub fn instance(&self) -> Option<InstanceId> {
        match self {
            NewDetectionOutcome::Existing(id) => Some(*id),
            NewDetectionOutcome::New => None,
        }
    }
}

/// The result of new detection for one entity.
#[derive(Debug, Clone, PartialEq)]
pub struct NewDetectionResult {
    /// Index of the entity in the input slice.
    pub entity: usize,
    /// Classification outcome.
    pub outcome: NewDetectionOutcome,
    /// The best candidate's aggregated score (0.0 when no candidate existed).
    pub best_score: f64,
    /// Number of candidates considered.
    pub candidate_count: usize,
}

/// Run new detection over a set of created entities.
///
/// `label_index` must be a label index over the knowledge base instances of
/// the entity's class (built via [`KnowledgeBase::label_index`]);
/// `interner` is the run interner that minted the entity contexts' label
/// tokens, and candidate instance contexts are interned into it too.
///
/// The work runs in three phases so that each distinct candidate instance
/// is materialised **once**, not once per entity that retrieves it:
///
/// 1. candidate ids per entity — parallel, read-only index lookups;
/// 2. one [`InstanceContext`] per distinct candidate — the bodies in
///    parallel, the label tokens interned sequentially in first-retrieval
///    order, so sym assignment is deterministic;
/// 3. ranking and scoring — parallel over entities against the shared
///    read-only candidate cache.
pub fn detect_new(
    entities: &[EntityContext],
    kb: &KnowledgeBase,
    label_index: &LabelIndex,
    model: &EntitySimilarityModel,
    config: &NewDetectionConfig,
    interner: &mut Interner,
) -> Vec<NewDetectionResult> {
    // Phase 1: candidate ids per entity.
    let ids_per_entity: Vec<Vec<InstanceId>> = entities
        .par_iter()
        .map(|entity| candidate_ids(entity, label_index, config))
        .collect();

    // Phase 2: build each distinct candidate's context exactly once —
    // only for candidates that pass the class gate of at least one
    // retrieving entity, so class-incompatible instances never cost a
    // context build or grow the run interner's arena.
    let retrievals = entities.iter().zip(ids_per_entity.iter().map(Vec::as_slice));
    let cache = InstanceContext::build_retrieved(retrievals, kb, interner, |instance, entity| {
        class_compatible(instance.class, entity)
    });

    // Phase 3: rank and score.
    let interner = &*interner;
    let cache = &cache;
    entities
        .par_iter()
        .enumerate()
        .map(|(idx, entity)| {
            // Candidates must share the class (the label index is per class
            // already, but keep the check for robustness) or a parent class.
            // Re-checked per entity: a cached context may have been built
            // for a different retrieving entity's class.
            let candidates: Vec<&InstanceContext> = ids_per_entity[idx]
                .iter()
                .filter_map(|id| cache.get(id))
                .filter(|inst| class_compatible(inst.class, entity))
                .collect();
            let n = candidates.len();
            let mut best: Option<(InstanceId, f64)> = None;
            for (instance_ctx, popularity) in by_popularity(candidates) {
                let features = entity_metric_features(&model.metrics, entity, instance_ctx, popularity, interner);
                let score = model.score(&features);
                if best.map(|(_, s)| score > s).unwrap_or(true) {
                    best = Some((instance_ctx.id, score));
                }
            }
            // No candidate: new, with nothing to score against.
            let Some((instance, score)) = best else {
                return NewDetectionResult {
                    entity: idx,
                    outcome: NewDetectionOutcome::New,
                    best_score: 0.0,
                    candidate_count: 0,
                };
            };
            let outcome = if score > config.existing_margin {
                NewDetectionOutcome::Existing(instance)
            } else {
                NewDetectionOutcome::New
            };
            NewDetectionResult { entity: idx, outcome, best_score: score, candidate_count: n }
        })
        .collect()
}

/// Whether an instance of `class` is a valid candidate for `entity`: same
/// class, or the two classes share an ancestor.
fn class_compatible(class: ltee_kb::ClassKey, entity: &EntityContext) -> bool {
    class == entity.entity().class
        || class.ancestors().iter().any(|a| entity.entity().class.ancestors().contains(a))
}

/// Gather the candidate instance ids of an entity: label-index lookups for
/// every entity label, score-filtered, deduplicated in retrieval order and
/// capped at the configured candidate count.
fn candidate_ids(
    entity: &EntityContext,
    label_index: &LabelIndex,
    config: &NewDetectionConfig,
) -> Vec<InstanceId> {
    let mut ids: Vec<InstanceId> = Vec::new();
    for label in &entity.entity().labels {
        for m in label_index.lookup(label, config.candidates) {
            if m.score < config.min_candidate_label_score {
                continue;
            }
            let id = InstanceId(m.id);
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        if ids.len() >= config.candidates {
            break;
        }
    }
    ids.truncate(config.candidates);
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::EntityMetricKind;
    use ltee_fusion::Entity;
    use ltee_kb::{generate_world, ClassKey, GeneratorConfig, Scale};
    use ltee_ml::{AggregationMethod, Dataset, PairwiseTrainingConfig, Sample};
    use ltee_text::BowVector;
    use ltee_webtables::{RowRef, TableId};

    /// Number of synthetic training points for the hand-built label model
    /// below (dense enough to pin the learned threshold).
    const LABEL_MODEL_TRAINING_POINTS: usize = 40;

    /// A hand-trained model over LABEL only: match iff label similarity is
    /// very high.
    fn label_model() -> EntitySimilarityModel {
        let metrics = vec![EntityMetricKind::Label];
        let mut ds = Dataset::new(EntitySimilarityModel::feature_names(&metrics));
        for i in 0..LABEL_MODEL_TRAINING_POINTS {
            let x = i as f64 / LABEL_MODEL_TRAINING_POINTS as f64;
            ds.push(Sample::new(vec![x], if x > 0.85 { 1.0 } else { 0.0 }));
        }
        EntitySimilarityModel::train(
            &ds,
            metrics,
            AggregationMethod::WeightedAverage,
            &PairwiseTrainingConfig {
                genetic: ltee_ml::GeneticConfig { population: 20, generations: 15, seed: 2 },
                ..Default::default()
            },
        )
    }

    fn entity_for(interner: &mut Interner, class: ClassKey, label: &str) -> EntityContext {
        EntityContext::from_parts(
            Entity {
                class,
                rows: vec![RowRef::new(TableId(1), 0)],
                labels: vec![label.to_string()],
                facts: vec![],
            },
            BowVector::from_text(label),
            vec![],
            interner,
        )
    }

    #[test]
    fn known_label_is_classified_existing_and_unknown_as_new() {
        let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 71));
        let kb = world.kb();
        let class = ClassKey::GridironFootballPlayer;
        let index = kb.label_index(class);
        let model = label_model();
        let mut interner = Interner::new();

        let head = &world.head_of_class(class)[0];
        let entities = vec![
            entity_for(&mut interner, class, &head.canonical_label),
            entity_for(&mut interner, class, "Zxqwy Unheardof"),
        ];
        let results =
            detect_new(&entities, kb, &index, &model, &NewDetectionConfig::default(), &mut interner);
        assert_eq!(results.len(), 2);
        // The head entity must be linked to its KB instance.
        let expected_instance = world.instance_for_entity(head.id).unwrap();
        assert_eq!(results[0].outcome, NewDetectionOutcome::Existing(expected_instance));
        assert!(results[0].best_score > 0.0);
        // The made-up entity has no candidates and is new.
        assert!(results[1].outcome.is_new());
        assert_eq!(results[1].candidate_count, 0);
    }

    #[test]
    fn long_tail_entities_are_classified_new() {
        let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 72));
        let kb = world.kb();
        let class = ClassKey::Settlement;
        let index = kb.label_index(class);
        let model = label_model();

        // Long-tail settlements are not in the KB; unless they collide with a
        // head label (homonym) they must be classified as new.
        let tails = world.long_tail_of_class(class);
        let head_labels: std::collections::HashSet<String> = world
            .head_of_class(class)
            .iter()
            .map(|e| ltee_text::normalize_label(&e.canonical_label))
            .collect();
        let non_homonym: Vec<_> = tails
            .iter()
            .filter(|e| !head_labels.contains(&ltee_text::normalize_label(&e.canonical_label)))
            .take(10)
            .collect();
        let mut interner = Interner::new();
        let entities: Vec<EntityContext> = non_homonym
            .iter()
            .map(|e| entity_for(&mut interner, class, &e.canonical_label))
            .collect();
        let results =
            detect_new(&entities, kb, &index, &model, &NewDetectionConfig::default(), &mut interner);
        let new_count = results.iter().filter(|r| r.outcome.is_new()).count();
        assert!(
            new_count as f64 >= entities.len() as f64 * 0.8,
            "only {new_count}/{} tail entities classified as new",
            entities.len()
        );
    }

    #[test]
    fn outcome_accessors() {
        assert!(NewDetectionOutcome::New.is_new());
        assert!(NewDetectionOutcome::New.instance().is_none());
        let e = NewDetectionOutcome::Existing(InstanceId(4));
        assert!(!e.is_new());
        assert_eq!(e.instance(), Some(InstanceId(4)));
    }

    #[test]
    fn empty_entity_list_is_fine() {
        let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 73));
        let kb = world.kb();
        let index = kb.label_index(ClassKey::Song);
        let results = detect_new(
            &[],
            kb,
            &index,
            &label_model(),
            &NewDetectionConfig::default(),
            &mut Interner::new(),
        );
        assert!(results.is_empty());
    }
}
