//! Integration test of schema matching across crates: generated corpus →
//! table-to-class matching → attribute-to-property matching → value
//! extraction, verified against the generator's ground truth.
//!
//! Deterministic: `Scale::tiny()` world with fixed seed 501.
//! Expected runtime: ~3 s in debug (`cargo test`).

use ltee_core::prelude::*;
use ltee_matching::{learn_weights, match_corpus, MatcherWeights, SchemaMatchingConfig};
use ltee_webtables::GoldStandard;

fn setup() -> (World, GeneratedCorpus, Vec<GoldStandard>) {
    let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 501));
    let corpus = generate_corpus(&world, &CorpusConfig::tiny());
    let golds: Vec<GoldStandard> =
        CLASS_KEYS.iter().map(|&c| GoldStandard::build(&world, &corpus, c)).collect();
    (world, corpus, golds)
}

#[test]
fn table_to_class_matching_is_mostly_correct() {
    let (world, corpus, _) = setup();
    let mapping = match_corpus(
        &corpus,
        world.kb(),
        &MatcherWeights::default(),
        &SchemaMatchingConfig::default(),
        None,
    );
    let mut correct = 0usize;
    let mut decided = 0usize;
    for table in corpus.tables() {
        let tm = mapping.table(table.id).expect("every table gets a mapping");
        if let Some(class) = tm.class {
            decided += 1;
            if corpus.truth(table.id).is_some_and(|truth| truth.class == class) {
                correct += 1;
            }
        }
    }
    assert!(decided as f64 > corpus.len() as f64 * 0.6, "too few tables decided: {decided}");
    assert!(correct as f64 / decided as f64 > 0.85, "class accuracy {:.2}", correct as f64 / decided as f64);
}

#[test]
fn learned_weights_beat_or_match_default_weights() {
    let (world, corpus, golds) = setup();
    let kb = world.kb();
    let gold_refs: Vec<&GoldStandard> = golds.iter().collect();
    let learned = learn_weights(&corpus, kb, &gold_refs, None);

    let prf = |weights: &MatcherWeights| {
        let mapping = match_corpus(&corpus, kb, weights, &SchemaMatchingConfig::default(), None);
        let mut gold_set = std::collections::HashMap::new();
        for gold in &golds {
            for a in &gold.attributes {
                gold_set.insert((a.table, a.column), a.property);
            }
        }
        let mut predicted = 0usize;
        let mut correct = 0usize;
        for tm in mapping.tables() {
            for (col, corr) in tm.correspondences.iter().enumerate() {
                if let Some(m) = corr {
                    predicted += 1;
                    if gold_set.get(&(tm.table, col)).map(|&p| p == m.property).unwrap_or(false) {
                        correct += 1;
                    }
                }
            }
        }
        let p = if predicted == 0 { 0.0 } else { correct as f64 / predicted as f64 };
        let r = if gold_set.is_empty() { 0.0 } else { correct as f64 / gold_set.len() as f64 };
        ltee_eval::f1(p, r)
    };

    let f1_default = prf(&MatcherWeights::default());
    let f1_learned = prf(&learned);
    assert!(f1_learned > 0.3, "learned weights produce a usable mapping, f1={f1_learned:.2}");
    assert!(
        f1_learned >= f1_default - 0.05,
        "learned weights ({f1_learned:.2}) should not be much worse than defaults ({f1_default:.2})"
    );
}

#[test]
fn second_iteration_improves_attribute_recall() {
    // The headline result of paper Table 6: feedback from clustering and new
    // detection lifts recall substantially while precision stays high.
    let trained = TrainedWorld::new(&ExperimentConfig::tiny(), PipelineConfig::fast());
    let rows = experiments::table06_schema_matching_iterations(&trained, 2);
    assert_eq!(rows.len(), 2);
    assert!(rows[0].f1 > 0.2, "first-iteration F1 unexpectedly low: {:.2}", rows[0].f1);
    assert!(
        rows[1].recall >= rows[0].recall - 0.02,
        "second-iteration recall ({:.2}) should not drop below the first ({:.2})",
        rows[1].recall,
        rows[0].recall
    );
}

#[test]
fn extracted_row_values_match_ground_truth_facts() {
    let (world, corpus, _) = setup();
    let mapping = match_corpus(
        &corpus,
        world.kb(),
        &MatcherWeights::default(),
        &SchemaMatchingConfig::default(),
        None,
    );
    let mut correct = 0usize;
    let mut total = 0usize;
    for (table, truth) in corpus.annotated_tables() {
        for row_ref in table.row_refs() {
            let values = mapping.row_values(&corpus, row_ref);
            let entity = world.entity(truth.row_entity[row_ref.row]).unwrap();
            for (prop, value) in &values.values {
                let Some(fact) = entity.fact(prop) else { continue };
                total += 1;
                let dtype = value.data_type();
                if ltee_types::value_equivalent(value, fact, dtype, &ltee_types::EquivalenceConfig::lenient()) {
                    correct += 1;
                }
            }
        }
    }
    assert!(total > 100, "expected many extracted values, got {total}");
    let accuracy = correct as f64 / total as f64;
    assert!(accuracy > 0.6, "extracted value accuracy {accuracy:.2}");
}
