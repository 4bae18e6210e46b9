//! New detection's training-set and detection paths as they ran before
//! their work moved onto the pool, kept as the oracle of that move: every
//! candidate retrieved, every instance context built — its label tokens
//! minted as it is built — and every pair scored one after another. The
//! pooled paths must produce the same datasets and results, and leave the
//! same strings in the run interner in the same order, at every thread
//! count.

use std::collections::hash_map::{Entry, HashMap};

use ltee_index::LabelIndex;
use ltee_intern::Interner;
use ltee_kb::{Instance, InstanceId, KnowledgeBase};
use ltee_ml::{Dataset, Sample};

use crate::detect::{
    candidate_ids, class_compatible, NewDetectionConfig, NewDetectionOutcome, NewDetectionResult,
};
use crate::metrics::{
    entity_metric_feature_names, entity_metric_features, EntityContext, EntityMetricKind,
    EntitySimilarityModel, InstanceContext,
};
use crate::train::EntityModelTrainingConfig;

/// Build the context of every instance among `ids` that `cache` does not
/// hold yet and `admit` lets through, in `ids` order.
fn build_missing(
    cache: &mut HashMap<InstanceId, InstanceContext>,
    ids: &[InstanceId],
    kb: &KnowledgeBase,
    interner: &mut Interner,
    admit: impl Fn(&Instance) -> bool,
) {
    for &id in ids {
        if let Entry::Vacant(slot) = cache.entry(id) {
            if let Some(instance) = kb.instance(id).filter(|instance| admit(instance)) {
                let (mut context, labels) = InstanceContext::body(instance, kb);
                context.mint_label_tokens(&labels, interner);
                slot.insert(context);
            }
        }
    }
}

/// [`crate::build_entity_pair_dataset`], one entity after another.
pub(crate) fn build_entity_pair_dataset(
    entities: &[EntityContext],
    truth: &[Option<InstanceId>],
    kb: &KnowledgeBase,
    label_index: &LabelIndex,
    metrics: &[EntityMetricKind],
    config: &EntityModelTrainingConfig,
    interner: &mut Interner,
) -> Dataset {
    let mut dataset = Dataset::new(entity_metric_feature_names(metrics));
    let mut cache = HashMap::new();
    for (entity, true_instance) in entities.iter().zip(truth) {
        let mut ids: Vec<InstanceId> = Vec::new();
        for label in &entity.entity().labels {
            for m in label_index.lookup(label, config.candidates) {
                let id = InstanceId(m.id);
                if !ids.contains(&id) {
                    ids.push(id);
                }
            }
        }
        if let Some(t) = true_instance {
            if !ids.contains(t) {
                ids.push(*t);
            }
        }
        build_missing(&mut cache, &ids, kb, interner, |_| true);
        let mut contexts: Vec<&InstanceContext> =
            ids.iter().filter_map(|id| cache.get(id)).collect();
        contexts.sort_by_key(|c| std::cmp::Reverse(c.page_links));
        let n = contexts.len();
        for (rank, ctx) in contexts.iter().enumerate() {
            let popularity = if n == 1 { 1.0 } else { 1.0 / (rank + 1) as f64 };
            let features =
                entity_metric_features(metrics, entity, ctx, popularity, interner).to_vec();
            let target = if Some(ctx.id) == *true_instance {
                1.0
            } else {
                0.0
            };
            dataset.push(Sample::new(features, target));
        }
    }
    dataset
}

/// [`crate::detect_new`], one entity after another.
pub(crate) fn detect_new(
    entities: &[EntityContext],
    kb: &KnowledgeBase,
    label_index: &LabelIndex,
    model: &EntitySimilarityModel,
    config: &NewDetectionConfig,
    interner: &mut Interner,
) -> Vec<NewDetectionResult> {
    let ids_per_entity: Vec<Vec<InstanceId>> = entities
        .iter()
        .map(|entity| candidate_ids(entity, label_index, config))
        .collect();
    let mut cache = HashMap::new();
    for (entity, ids) in entities.iter().zip(&ids_per_entity) {
        build_missing(&mut cache, ids, kb, interner, |instance| {
            class_compatible(instance.class, entity)
        });
    }
    let interner = &*interner;
    let mut results = Vec::new();
    for (idx, entity) in entities.iter().enumerate() {
        let mut candidates: Vec<&InstanceContext> = ids_per_entity[idx]
            .iter()
            .filter_map(|id| cache.get(id))
            .filter(|inst| class_compatible(inst.class, entity))
            .collect();
        candidates.sort_by_key(|c| std::cmp::Reverse(c.page_links));
        let n = candidates.len();
        let mut best: Option<(InstanceId, f64)> = None;
        for (rank, instance_ctx) in candidates.iter().enumerate() {
            let popularity = if n == 1 { 1.0 } else { 1.0 / (rank + 1) as f64 };
            let score = model.score(entity, instance_ctx, popularity, interner);
            if best.map(|(_, s)| score > s).unwrap_or(true) {
                best = Some((instance_ctx.id, score));
            }
        }
        results.push(match best {
            None => NewDetectionResult {
                entity: idx,
                outcome: NewDetectionOutcome::New,
                best_score: 0.0,
                candidate_count: 0,
            },
            Some((instance, score)) => NewDetectionResult {
                entity: idx,
                outcome: if score > config.existing_margin {
                    NewDetectionOutcome::Existing(instance)
                } else {
                    NewDetectionOutcome::New
                },
                best_score: score,
                candidate_count: n,
            },
        });
    }
    results
}
