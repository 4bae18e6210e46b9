//! Integration test of entity creation + new detection on gold clusters
//! (isolating those two components from clustering errors, like the paper's
//! Table 8 setup).
//!
//! Deterministic: `Scale::tiny()` worlds with fixed seeds 701 and 702.
//! Expected runtime: ~1 s in debug (`cargo test`).

use ltee_clustering::ImplicitAttributes;
use ltee_core::prelude::*;
use ltee_eval::{evaluate_new_detection, EntityTruth};
use ltee_fusion::create_entities;
use ltee_matching::{match_corpus, MatcherWeights, SchemaMatchingConfig};
use ltee_newdetect::metrics::EntityContext;
use ltee_ml::AggregationMethod;
use ltee_newdetect::{build_entity_pair_dataset, detect_new, EntitySimilarityModel, ENTITY_MODEL_TRAINING};
use ltee_webtables::RowRef;

#[test]
fn new_detection_on_gold_clusters_beats_the_label_baseline() {
    let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 701));
    let corpus = generate_corpus(&world, &CorpusConfig::tiny());
    let kb = world.kb();
    let mapping = match_corpus(&corpus, kb, &MatcherWeights::default(), &SchemaMatchingConfig::default(), None);

    let mut accuracies_all = Vec::new();
    let mut accuracies_label = Vec::new();
    let mut interner = ltee_intern::Interner::new();

    for &class in &CLASS_KEYS {
        let gold = GoldStandard::build(&world, &corpus, class);
        let index = kb.label_index(class);
        let implicit = ImplicitAttributes::build(&corpus, &mapping, kb, class, &index);

        let clusters: Vec<Vec<RowRef>> = gold.clusters.iter().map(|c| c.rows.clone()).collect();
        let entities = create_entities(&clusters, &corpus, &mapping, kb, class, &Default::default());
        let contexts: Vec<EntityContext> = entities
            .into_iter()
            .map(|e| EntityContext::build(e, &corpus, &implicit, &mut interner))
            .collect();
        let instance_truth: Vec<_> = gold.clusters.iter().map(|c| c.kb_instance).collect();
        let truths: Vec<EntityTruth> = gold
            .clusters
            .iter()
            .map(|c| EntityTruth { is_new: c.is_new, instance: c.kb_instance })
            .collect();

        // Split entities: first 60 % train, rest test (grouped splits are
        // exercised in the experiment harness; here a simple split keeps the
        // integration test fast).
        let split = (contexts.len() * 3) / 5;

        for (metrics, accs) in [
            (EntityMetricKind::ALL.to_vec(), &mut accuracies_all),
            (vec![EntityMetricKind::Label], &mut accuracies_label),
        ] {
            let ds = build_entity_pair_dataset(
                &contexts[..split],
                &instance_truth[..split],
                kb,
                &index,
                &metrics,
                &mut interner,
            );
            if ds.positives() == 0 || ds.negatives() == 0 {
                continue;
            }
            let model =
                EntitySimilarityModel::train(&ds, metrics, AggregationMethod::Combined, &ENTITY_MODEL_TRAINING);
            let results =
                detect_new(&contexts[split..], kb, &index, &model, &Default::default(), &mut interner);
            let outcomes: Vec<_> = results.iter().map(|r| r.outcome).collect();
            let eval = evaluate_new_detection(&outcomes, &truths[split..]);
            accs.push(eval.accuracy);
        }
    }

    assert!(!accuracies_all.is_empty());
    let avg_all = accuracies_all.iter().sum::<f64>() / accuracies_all.len() as f64;
    let avg_label = if accuracies_label.is_empty() {
        0.0
    } else {
        accuracies_label.iter().sum::<f64>() / accuracies_label.len() as f64
    };
    // Paper Table 8: 0.69 for LABEL alone vs 0.89 with all metrics. We only
    // require that the full model is usable and not clearly worse.
    assert!(avg_all > 0.55, "all-metric accuracy {avg_all:.2}");
    assert!(
        avg_all >= avg_label - 0.1,
        "all-metric accuracy ({avg_all:.2}) should not be clearly below label-only ({avg_label:.2})"
    );
}

#[test]
fn detection_results_reference_valid_entities() {
    let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 702));
    let corpus = generate_corpus(&world, &CorpusConfig::tiny());
    let kb = world.kb();
    let mapping = match_corpus(&corpus, kb, &MatcherWeights::default(), &SchemaMatchingConfig::default(), None);
    let class = ClassKey::Song;
    let gold = GoldStandard::build(&world, &corpus, class);
    let index = kb.label_index(class);
    let implicit = ImplicitAttributes::build(&corpus, &mapping, kb, class, &index);
    let clusters: Vec<Vec<RowRef>> = gold.clusters.iter().map(|c| c.rows.clone()).collect();
    let entities = create_entities(&clusters, &corpus, &mapping, kb, class, &Default::default());
    let mut interner = ltee_intern::Interner::new();
    let contexts: Vec<EntityContext> = entities
        .into_iter()
        .map(|e| EntityContext::build(e, &corpus, &implicit, &mut interner))
        .collect();
    let instance_truth: Vec<_> = gold.clusters.iter().map(|c| c.kb_instance).collect();
    let ds = build_entity_pair_dataset(
        &contexts,
        &instance_truth,
        kb,
        &index,
        EntityMetricKind::ALL,
        &mut interner,
    );
    let model = EntitySimilarityModel::train(
        &ds,
        EntityMetricKind::ALL.to_vec(),
        AggregationMethod::Combined,
        &ENTITY_MODEL_TRAINING,
    );
    let results = detect_new(&contexts, kb, &index, &model, &Default::default(), &mut interner);
    assert_eq!(results.len(), contexts.len());
    for r in &results {
        assert!(r.entity < contexts.len());
        if let Some(instance) = r.outcome.instance() {
            assert!(kb.instance(instance).is_some(), "linked instance must exist in the KB");
        }
    }
}
