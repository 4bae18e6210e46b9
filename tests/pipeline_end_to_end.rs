//! End-to-end integration test: world → corpus → trained models → two
//! pipeline iterations → evaluation against the gold standard.
//!
//! Deterministic: `Scale::tiny()` world with fixed seed 2024.
//! Expected runtime: ~9 s in debug (`cargo test`), dominated by model
//! training in `setup()` which runs once per test fn.

use ltee_core::prelude::*;
use ltee_eval::{evaluate_facts, evaluate_new_instances};

fn setup() -> (World, GeneratedCorpus, Vec<GoldStandard>, PipelineOutput) {
    let trained = TrainedWorld::train(2024);
    let output = trained.run_batch();
    let TrainedWorld { world, corpus, golds, .. } = trained;
    (world, corpus, golds, output)
}

#[test]
fn pipeline_discovers_new_long_tail_entities() {
    let (world, _, golds, output) = setup();
    let mut found_truly_new = 0usize;
    for class_output in &output.classes {
        let gold = golds.iter().find(|g| g.class == class_output.class).unwrap();
        for entity in class_output.new_entities() {
            if let Some(ci) = ltee_eval::instances::entity_gold_cluster(&entity.rows, gold) {
                let cluster = &gold.clusters[ci];
                if cluster.is_new && cluster.is_target_class {
                    // The discovered entity corresponds to a real long-tail
                    // world entity that the knowledge base does not contain.
                    let world_entity = world.entity(cluster.entity).unwrap();
                    assert!(!world_entity.in_kb);
                    found_truly_new += 1;
                }
            }
        }
    }
    assert!(
        found_truly_new >= 10,
        "expected the pipeline to discover a healthy number of truly new entities, got {found_truly_new}"
    );
}

#[test]
fn new_instances_found_quality_is_reasonable() {
    let (_, _, golds, output) = setup();
    let mut f1_sum = 0.0;
    let mut classes = 0usize;
    for class_output in &output.classes {
        let gold = golds.iter().find(|g| g.class == class_output.class).unwrap();
        let eval = evaluate_new_instances(&class_output.entities, &class_output.outcomes(), gold);
        f1_sum += eval.f1;
        classes += 1;
    }
    let avg_f1 = f1_sum / classes as f64;
    // The paper reports an average F1 of 0.80 on the real gold standard; on
    // the small synthetic setup we only require a sensible lower bound.
    assert!(avg_f1 > 0.35, "average new-instances-found F1 too low: {avg_f1:.2}");
}

#[test]
fn facts_of_new_entities_are_mostly_correct() {
    let (world, _, golds, output) = setup();
    let mut precision_sum = 0.0;
    let mut classes = 0usize;
    for class_output in &output.classes {
        let gold = golds.iter().find(|g| g.class == class_output.class).unwrap();
        let eval = evaluate_facts(
            &class_output.entities,
            &class_output.outcomes(),
            gold,
            world.kb(),
            class_output.class,
        );
        if eval.returned_facts > 0 {
            precision_sum += eval.precision;
            classes += 1;
        }
    }
    assert!(classes > 0, "no class returned any facts");
    let avg_precision = precision_sum / classes as f64;
    // Paper Table 11 reports fact accuracies around 0.85-0.95.
    assert!(avg_precision > 0.4, "average fact precision too low: {avg_precision:.2}");
}

#[test]
fn existing_entities_link_to_correct_instances_more_often_than_not() {
    let (world, _, golds, output) = setup();
    let mut correct = 0usize;
    let mut total = 0usize;
    for class_output in &output.classes {
        let gold = golds.iter().find(|g| g.class == class_output.class).unwrap();
        for (entity, instance) in class_output.existing_entities() {
            let Some(ci) = ltee_eval::instances::entity_gold_cluster(&entity.rows, gold) else { continue };
            let Some(expected) = gold.clusters[ci].kb_instance else { continue };
            total += 1;
            if expected == instance {
                correct += 1;
            }
        }
    }
    let _ = world;
    assert!(total > 10, "expected a reasonable number of linked entities, got {total}");
    assert!(
        correct as f64 / total as f64 > 0.6,
        "instance linking accuracy {:.2}",
        correct as f64 / total as f64
    );
}
