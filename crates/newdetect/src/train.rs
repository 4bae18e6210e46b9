//! Training the entity-to-instance similarity model from gold clusters.

use ltee_index::LabelIndex;
use ltee_intern::Interner;
use ltee_kb::{InstanceId, KnowledgeBase};
use ltee_ml::{Dataset, GeneticConfig, PairFeatures, PairwiseTrainingConfig, RandomForestConfig, Sample};
use rayon::prelude::*;

use crate::metrics::{
    by_popularity, entity_metric_features, EntityContext, EntityMetricKind, EntitySimilarityModel, InstanceContext,
};

/// How the entity similarity model is trained (with
/// [`AggregationMethod::Combined`](ltee_ml::AggregationMethod::Combined)).
/// The paper trains it once, under one setting; this is that setting.
pub const ENTITY_MODEL_TRAINING: PairwiseTrainingConfig = PairwiseTrainingConfig {
    genetic: GeneticConfig { population: 20, generations: 15, seed: 101 },
    forest: RandomForestConfig {
        num_trees: 20,
        max_depth: 8,
        min_samples_split: 4,
        features_per_split: None,
        bootstrap_fraction: 1.0,
        seed: 13,
    },
    upsample_seed: 23,
};

/// Candidates retrieved per entity label when building training pairs.
const TRAINING_CANDIDATES: usize = 6;

/// Build a training dataset of (entity, candidate instance) pairs.
///
/// `truth` gives, per entity (by index), the knowledge base instance the
/// entity truly corresponds to (`None` for new entities). Positive samples
/// are (entity, true instance) pairs; negative samples are (entity, other
/// candidate) pairs.
///
/// Panics if `metrics` lists more than [`PairFeatures::MAX_METRICS`].
pub fn build_entity_pair_dataset(
    entities: &[EntityContext],
    truth: &[Option<InstanceId>],
    kb: &KnowledgeBase,
    label_index: &LabelIndex,
    metrics: &[EntityMetricKind],
    interner: &mut Interner,
) -> Dataset {
    assert_eq!(entities.len(), truth.len(), "one truth entry per entity");
    PairFeatures::assert_metric_count(metrics.len());
    let mut dataset = Dataset::new(EntitySimilarityModel::feature_names(metrics));

    // Candidate instances via the label index (as at detection time), on
    // the pool.
    let ids_per_entity: Vec<Vec<InstanceId>> = entities
        .par_iter()
        .enumerate()
        .map(|(idx, entity)| {
            let mut ids: Vec<InstanceId> = Vec::new();
            for label in &entity.entity().labels {
                for m in label_index.lookup(label, TRAINING_CANDIDATES) {
                    let id = InstanceId(m.id);
                    if !ids.contains(&id) {
                        ids.push(id);
                    }
                }
            }
            // Ensure the true instance is among the pairs even if the index
            // missed it (it is a legitimate positive example).
            if let Some(t) = truth[idx] {
                if !ids.contains(&t) {
                    ids.push(t);
                }
            }
            ids
        })
        .collect();

    // Each distinct candidate instance is materialised (and its labels
    // interned) once, however many entities retrieve it.
    let retrievals = entities.iter().zip(ids_per_entity.iter().map(Vec::as_slice));
    let cache = InstanceContext::build_retrieved(retrievals, kb, interner, |_, _| true);

    // Pairs are scored on the pool and pushed in entity order, so the
    // dataset is the same at every thread count.
    let interner = &*interner;
    let per_entity: Vec<Vec<Sample>> = entities
        .par_iter()
        .enumerate()
        .map(|(idx, entity)| {
            let contexts = ids_per_entity[idx].iter().filter_map(|id| cache.get(id)).collect();
            by_popularity(contexts)
                .map(|(ctx, popularity)| {
                    let features = entity_metric_features(metrics, entity, ctx, popularity, interner).to_vec();
                    let target = if Some(ctx.id) == truth[idx] { 1.0 } else { 0.0 };
                    Sample::new(features, target)
                })
                .collect()
        })
        .collect();
    for sample in per_entity.into_iter().flatten() {
        dataset.push(sample);
    }
    dataset
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::{detect_new, NewDetectionConfig};
    use ltee_clustering::ImplicitAttributes;
    use ltee_ml::{AggregationMethod, MetricKind};
    use ltee_fusion::Entity;
    use ltee_kb::{generate_world, ClassKey, GeneratorConfig, Scale, World};
    use ltee_text::BowVector;
    use ltee_webtables::{RowRef, TableId};

    fn entity_from_world(
        world: &World,
        e: &ltee_kb::WorldEntity,
        interner: &mut Interner,
    ) -> EntityContext {
        // Build an entity straight from the world's ground truth — a stand-in
        // for "perfect clustering and fusion" used to test new detection in
        // isolation.
        let facts = e.facts.iter().map(|(p, v)| (p, v.clone(), 1.0)).collect();
        let entity = Entity {
            class: e.class,
            rows: vec![RowRef::new(TableId(e.id.raw()), 0)],
            labels: vec![e.canonical_label.clone()],
            facts,
        };
        let bow = BowVector::from_texts(std::iter::once(e.canonical_label.clone()).chain(e.facts.values().map(|v| v.render())));
        let _ = world;
        EntityContext::from_parts(entity, bow, vec![], interner)
    }

    #[test]
    fn trained_model_beats_trivial_on_head_vs_tail_classification() {
        let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 81));
        let kb = world.kb();
        let class = ClassKey::GridironFootballPlayer;
        let index = kb.label_index(class);
        let mut interner = Interner::new();

        // Training set: half heads (existing) + half tails (new).
        let heads = world.head_of_class(class);
        let tails = world.long_tail_of_class(class);
        let mut entities = Vec::new();
        let mut truth = Vec::new();
        for e in heads.iter().take(20) {
            entities.push(entity_from_world(&world, e, &mut interner));
            truth.push(world.instance_for_entity(e.id));
        }
        for e in tails.iter().take(15) {
            entities.push(entity_from_world(&world, e, &mut interner));
            truth.push(None);
        }

        let metrics = EntityMetricKind::ALL.to_vec();
        let ds = build_entity_pair_dataset(&entities, &truth, kb, &index, &metrics, &mut interner);
        assert!(ds.positives() > 5, "need positive pairs, got {}", ds.positives());
        assert!(ds.negatives() > 5, "need negative pairs, got {}", ds.negatives());
        let model = EntitySimilarityModel::train(&ds, metrics, AggregationMethod::Combined, &ENTITY_MODEL_TRAINING);

        // Evaluate on a held-out slice.
        let mut eval_entities = Vec::new();
        let mut eval_new = Vec::new();
        let mut eval_instance = Vec::new();
        for e in heads.iter().skip(20).take(10) {
            eval_entities.push(entity_from_world(&world, e, &mut interner));
            eval_new.push(false);
            eval_instance.push(world.instance_for_entity(e.id));
        }
        for e in tails.iter().skip(15).take(8) {
            eval_entities.push(entity_from_world(&world, e, &mut interner));
            eval_new.push(true);
            eval_instance.push(None);
        }
        let results = detect_new(
            &eval_entities,
            kb,
            &index,
            &model,
            &NewDetectionConfig::default(),
            &mut interner,
        );
        let mut correct = 0usize;
        for (r, (is_new, instance)) in results.iter().zip(eval_new.iter().zip(eval_instance.iter())) {
            let ok = if *is_new {
                r.outcome.is_new()
            } else {
                r.outcome.instance() == *instance
            };
            if ok {
                correct += 1;
            }
        }
        let acc = correct as f64 / results.len() as f64;
        assert!(acc > 0.6, "new-detection accuracy {acc:.2}");
    }

    /// Bit pin of the six entity metrics: FNV-1a64 over every feature's and
    /// target's bits of a pair dataset built from world entities that also
    /// carry entity-level implicit attributes (every other fact, so
    /// `IMPLICIT_ATT` fires). The constant was generated before pair
    /// scoring moved to prepared values and inline feature vectors (PR 14);
    /// a change to it is a change to what the entity model is trained on
    /// and scores.
    #[test]
    fn entity_metric_features_are_bit_pinned_on_the_fixture() {
        let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 81));
        let kb = world.kb();
        let mut interner = Interner::new();
        let mut bytes = Vec::new();
        let mut samples = 0;
        for class in ltee_kb::CLASS_KEYS {
            let index = kb.label_index(class);
            let mut entities = Vec::new();
            let mut truth = Vec::new();
            let heads = world.head_of_class(class);
            let tails = world.long_tail_of_class(class);
            for e in heads.iter().take(20).chain(tails.iter().take(15)) {
                let plain = entity_from_world(&world, e, &mut interner);
                let implicit = plain
                    .entity()
                    .facts
                    .iter()
                    .step_by(2)
                    .enumerate()
                    .map(|(i, &(p, ref v, _))| (p, v.clone(), 0.5 + i as f64 / 10.0))
                    .collect();
                entities.push(EntityContext::from_parts(plain.entity().clone(), plain.bow, implicit, &mut interner));
                truth.push(world.instance_for_entity(e.id));
            }
            let ds = build_entity_pair_dataset(
                &entities,
                &truth,
                kb,
                &index,
                EntityMetricKind::ALL,
                &mut interner,
            );
            assert!(ds.samples.iter().any(|s| s.features[6] > 0.0), "{class}: no ATTRIBUTE overlap");
            assert!(ds.samples.iter().any(|s| s.features[7] > 0.0), "{class}: no IMPLICIT_ATT overlap");
            samples += ds.len();
            for sample in &ds.samples {
                for value in sample.features.iter().chain([&sample.target]) {
                    bytes.extend_from_slice(&value.to_bits().to_le_bytes());
                }
            }
        }
        assert_eq!(ltee_intern::fnv1a64(&bytes), 0x4aa75feca1d99e17, "{samples} samples");
    }

    /// Bit pin of new detection on the fixture, per class, at 1 and at 4
    /// threads: the run interner's strings in mint order, then every
    /// result's outcome, best score bits and candidate count. Instance
    /// contexts mint their label tokens in first-retrieval order (the order
    /// a checkpoint's interner section persists) and candidates that tie
    /// on page links keep retrieval order; no other test sees either. The
    /// constant was generated by the sequential paths the pooled ones
    /// replaced.
    #[test]
    fn new_detection_and_mint_order_are_bit_pinned_on_the_fixture() {
        let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 81));
        let kb = world.kb();
        for threads in [1, 4] {
            rayon::ThreadPoolBuilder::new().num_threads(threads).build_global().expect("never fails");
            let mut bytes = Vec::new();
            for class in ltee_kb::CLASS_KEYS {
                let index = kb.class_label_index(class);
                let mut interner = Interner::new();
                let (heads, tails) = (world.head_of_class(class), world.long_tail_of_class(class));
                let (mut entities, mut truth) = (Vec::new(), Vec::new());
                for e in heads.iter().take(20).chain(tails.iter().take(15)) {
                    entities.push(entity_from_world(&world, e, &mut interner));
                    truth.push(world.instance_for_entity(e.id));
                }
                let minted = interner.len();
                let metrics = EntityMetricKind::ALL;
                let ds = build_entity_pair_dataset(&entities, &truth, kb, index, metrics, &mut interner);
                assert!(interner.len() > minted, "{class}: instance contexts must mint tokens");
                let model = EntitySimilarityModel::train(
                    &ds,
                    metrics.to_vec(),
                    AggregationMethod::Combined,
                    &ENTITY_MODEL_TRAINING,
                );
                let results = detect_new(&entities, kb, index, &model, &NewDetectionConfig::default(), &mut interner);
                let new = results.iter().filter(|r| r.outcome.is_new()).count();
                assert!(0 < new && new < results.len(), "{class}: both outcomes must occur");
                for (_, string) in interner.iter() {
                    bytes.extend_from_slice(string.as_bytes());
                    bytes.push(0);
                }
                for r in &results {
                    bytes.extend_from_slice(&r.outcome.instance().map_or(u64::MAX, |i| i.raw()).to_le_bytes());
                    bytes.extend_from_slice(&r.best_score.to_bits().to_le_bytes());
                    bytes.extend_from_slice(&(r.candidate_count as u64).to_le_bytes());
                }
            }
            assert_eq!(ltee_intern::fnv1a64(&bytes), 0xb36738eb93168090, "at {threads} threads");
        }
    }

    #[test]
    fn dataset_arity_matches_metric_features() {
        let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 82));
        let kb = world.kb();
        let class = ClassKey::Song;
        let index = kb.label_index(class);
        let heads = world.head_of_class(class);
        let mut interner = Interner::new();
        let entities: Vec<EntityContext> =
            heads.iter().take(5).map(|e| entity_from_world(&world, e, &mut interner)).collect();
        let truth: Vec<Option<InstanceId>> =
            heads.iter().take(5).map(|e| world.instance_for_entity(e.id)).collect();
        let metrics = vec![EntityMetricKind::Label, EntityMetricKind::Attribute];
        let ds = build_entity_pair_dataset(
            &entities,
            &truth,
            kb,
            &index,
            &metrics,
            &mut interner,
        );
        assert_eq!(ds.num_features(), 3); // 2 sims + 1 confidence
        assert!(!ds.is_empty());
    }

    #[test]
    #[should_panic(expected = "one truth entry per entity")]
    fn mismatched_truth_length_panics() {
        let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 83));
        let kb = world.kb();
        let index = kb.label_index(ClassKey::Song);
        build_entity_pair_dataset(
            &[],
            &[None],
            kb,
            &index,
            &[EntityMetricKind::Label],
            &mut Interner::new(),
        );
    }

    #[test]
    fn entity_context_build_aggregates_implicit_attributes() {
        let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 84));
        let corpus = ltee_webtables::generate_corpus(&world, &ltee_webtables::CorpusConfig::tiny());
        let entity = Entity {
            class: ClassKey::Song,
            rows: vec![RowRef::new(corpus.tables()[0].id, 0)],
            labels: vec!["Something".into()],
            facts: vec![],
        };
        let ctx = EntityContext::build(
            entity,
            &corpus,
            &ImplicitAttributes::default(),
            &mut Interner::new(),
        );
        assert!(!ctx.bow.is_empty());
        assert!(ctx.implicit().is_empty());
    }
}
