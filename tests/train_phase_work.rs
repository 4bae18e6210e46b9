//! Work gate of the train phase: the exact `ltee_index::metrics` deltas
//! across `train_models`, and the KB label lookups of each of its stages.
//!
//! The train phase looks a row label up once: the table-to-class matcher
//! looks every distinct (class, normalised label) pair of the corpus up
//! once, implicit attributes read the winning class's lookups instead of
//! repeating them, and the entity pair datasets retrieve each fused
//! entity's candidates. Looking anything up twice again — or scoring more
//! candidates per lookup — moves the pinned deltas. The printed table puts
//! each stage next to what it cost when the matcher looked up every row
//! and implicit attributes looked every row up again (measured on the
//! same fixture at that revision).
//!
//! The counters are process-global, so this file holds one test and
//! nothing else in its process looks anything up. The deltas do not
//! depend on the thread count. Run with `-- --nocapture` for the table.
//!
//! Deterministic: `Scale::gold()` world and `CorpusConfig::gold()` corpus,
//! seed 4242 — a fixture where the matcher meets repeated labels, every
//! gold class has implicit attributes and entities retrieve candidates.

use ltee_clustering::ImplicitAttributes;
use ltee_core::prelude::*;
use ltee_index::metrics::{self, LookupMetrics};
use ltee_matching::{match_corpus_and_candidates, MatcherWeights, SchemaMatchingConfig};

/// Lookups per stage when the matcher looked up every row and implicit
/// attributes repeated the winning class's lookups:
/// (match_corpus, implicit attributes, entity pair datasets).
const LOOKUPS_BEFORE: (u64, u64, u64) = (3_945, 1_309, 724);

/// What `train_models` costs the index on the fixture.
const TRAIN_MODELS: LookupMetrics = LookupMetrics {
    lookups: 2_704,
    edit_distance_calls: 28_834,
    candidates_scored: 32_186,
    candidates_skipped: 9_873,
};

/// The counter deltas across `work`.
fn measure<T>(work: impl FnOnce() -> T) -> (T, LookupMetrics) {
    let before = metrics::snapshot();
    let out = work();
    (out, metrics::snapshot().delta_since(before))
}

#[test]
fn train_phase_work_is_pinned() {
    let world = generate_world(&GeneratorConfig::new(Scale::gold(), 4242));
    let kb = world.kb();
    let corpus = generate_corpus(&world, &CorpusConfig::gold());
    let golds: Vec<GoldStandard> = CLASS_KEYS
        .iter()
        .map(|&c| GoldStandard::build(&world, &corpus, c))
        .collect();

    let (models, train) = measure(|| train_models(&corpus, kb, &golds, &PipelineConfig::fast()));
    models.expect("the gold corpus is trainable");

    // The stages that look labels up, on the same inputs. The matcher's
    // lookups do not depend on the matcher weights.
    let ((mapping, candidates), matching) = measure(|| {
        match_corpus_and_candidates(
            &corpus,
            kb,
            &MatcherWeights::default(),
            &SchemaMatchingConfig::default(),
            None,
        )
    });
    let (_, implicit) = measure(|| {
        for gold in &golds {
            ImplicitAttributes::from_candidates(&corpus, &mapping, kb, gold.class, &candidates);
        }
    });
    // What the same implicit attributes cost by lookup (checkpoint restore's path).
    let (_, implicit_by_lookup) = measure(|| {
        for gold in &golds {
            ImplicitAttributes::build(
                &corpus,
                &mapping,
                kb,
                gold.class,
                kb.class_label_index(gold.class),
            );
        }
    });
    let entity_pairs = train.lookups - matching.lookups - implicit.lookups;

    let (before_matching, before_implicit, before_entity_pairs) = LOOKUPS_BEFORE;
    println!("KB label lookups of train_models, Scale::gold() + CorpusConfig::gold():");
    println!("{:<24} {:>8} {:>8}", "stage", "before", "after");
    for (stage, before, after) in [
        ("match_corpus", before_matching, matching.lookups),
        ("implicit attributes", before_implicit, implicit.lookups),
        ("entity pair datasets", before_entity_pairs, entity_pairs),
        (
            "train_models",
            before_matching + before_implicit + before_entity_pairs,
            train.lookups,
        ),
    ] {
        println!("{stage:<24} {before:>8} {after:>8}");
    }
    println!("train_models: {train:?}");

    assert_eq!(
        implicit.lookups, 0,
        "implicit attributes read the matcher's candidates"
    );
    assert_eq!(
        implicit_by_lookup.lookups, before_implicit,
        "one lookup per labelled row of a gold-class table"
    );
    assert_eq!(train, TRAIN_MODELS);
}
