//! Property test: fuzzy label lookup *through the snapshot* agrees
//! result-for-result — ids, bitwise scores, surfaced normalised labels,
//! order — with a brute-force Levenshtein scan over the same snapshot's
//! entity records.
//!
//! The brute force (`crates/index/src/reference.rs`, included by path and
//! shared with the index's own property tests) spells the documented
//! scoring semantics out on strings (no interner, no bounds, no pruning,
//! every candidate scored in full): a record label is a
//! candidate iff it shares ≥ 1 exact token with the query; each query
//! token contributes 1.0 on exact membership, else its best Levenshtein
//! similarity against the candidate's tokens; the mean is blended with a
//! token-count penalty and an exact-hit bonus; per-id the best-scoring
//! label wins, ordered by (score desc, id asc, insertion order).
//! Any divergence — in the interned fast paths, the sym memoisation, the
//! tie-breaking, or the snapshot's cross-class merge — fails the test.
//!
//! Inputs come from the vendored proptest shim: seeded, replayable corpora
//! of random labels plus systematic perturbations of labels actually
//! served by the snapshot.
//!
//! Three corpora share the machinery:
//!
//! * the plain training corpus (seed 5150),
//! * a near-duplicate **flood** corpus ([`Scenario::NearDuplicateFlood`])
//!   — many labels one or two edits apart, the adversarial case for
//!   candidate pruning, where score upper bounds separate almost nothing,
//! * a **long-label** corpus ([`with_long_labels`]) whose labels carry a
//!   single token past 64 characters, forcing the multi-block path of
//!   the bit-parallel Levenshtein kernel through the full serving stack.
//!
//! Deterministic: `Scale::tiny()` worlds with fixed seeds, one shared
//! training run per corpus. Expected runtime: a few seconds in debug.

use std::sync::{Arc, OnceLock};

use ltee::scenario::{with_long_labels, Scenario, TrainedWorld};
use ltee_core::prelude::*;
use ltee_serve::{ClassSnapshot, KbSnapshot, ServePipeline};
use ltee_text::{normalize_label, tokenize};
use proptest::prelude::*;

#[path = "../crates/index/src/reference.rs"]
mod reference;
use reference::{Hit as BruteHit, ScanIndex};

static SNAPSHOT: OnceLock<Arc<KbSnapshot>> = OnceLock::new();
static FLOOD_SNAPSHOT: OnceLock<Arc<KbSnapshot>> = OnceLock::new();
static LONG_LABEL_SNAPSHOT: OnceLock<Arc<KbSnapshot>> = OnceLock::new();

/// Sequential-config training world shared by the scenario snapshots.
fn sequential_trained_world(seed: u64) -> TrainedWorld {
    let config =
        PipelineConfig { parallelism: Parallelism::Threads(1), ..PipelineConfig::fast() };
    TrainedWorld::train_with(seed, config)
}

/// Snapshot fed the near-duplicate flood corpus.
fn flood_snapshot() -> Arc<KbSnapshot> {
    FLOOD_SNAPSHOT
        .get_or_init(|| {
            let trained = sequential_trained_world(5151);
            let corpus = Scenario::NearDuplicateFlood.generate(&trained.world, 97);
            let mut serving = ServePipeline::new(trained.world.kb(), trained.models, trained.config);
            for batch in corpus.split_into_batches(2) {
                serving.ingest(&batch).expect("fresh table ids");
            }
            serving.snapshot()
        })
        .clone()
}

/// Snapshot fed a corpus whose labels carry >64-char single tokens.
fn long_label_snapshot() -> Arc<KbSnapshot> {
    LONG_LABEL_SNAPSHOT
        .get_or_init(|| {
            let trained = sequential_trained_world(5152);
            let corpus = with_long_labels(trained.corpus.clone(), "supercalifragilistic");
            let mut serving = ServePipeline::new(trained.world.kb(), trained.models, trained.config);
            serving.ingest(&corpus).expect("fresh table ids");
            serving.snapshot()
        })
        .clone()
}

/// One shared snapshot for every property case (training once).
fn snapshot() -> Arc<KbSnapshot> {
    SNAPSHOT
        .get_or_init(|| {
            let trained = sequential_trained_world(5150);
            let mut serving = ServePipeline::new(trained.world.kb(), trained.models, trained.config);
            for batch in trained.corpus.split_into_batches(3) {
                serving.ingest(&batch).expect("fresh table ids");
            }
            serving.snapshot()
        })
        .clone()
}

/// Score every (record, label) pair of a class with the string-level
/// reference scan. Entry order mirrors snapshot construction (records in
/// cluster order, labels in frequency order), so it is the
/// insertion-order tie-break; hit ids are record positions.
fn brute_force_lookup(slice: &ClassSnapshot, query: &str, k: usize) -> Vec<BruteHit> {
    let entries = slice
        .records()
        .iter()
        .enumerate()
        .flat_map(|(id, record)| record.labels.iter().map(move |label| (id as u64, label.as_str())));
    ScanIndex::build(entries).lookup(query, k).0
}

/// Assert one class's snapshot lookup equals the brute force,
/// result-for-result and bit-for-bit.
fn assert_class_agreement(snap: &KbSnapshot, slice: &ClassSnapshot, query: &str, k: usize) {
    let expected = brute_force_lookup(slice, query, k);

    // Index-level agreement (ids, bitwise scores, surfaced labels, order).
    let actual = slice.index().lookup(query, k);
    assert_eq!(
        actual.len(),
        expected.len(),
        "{} lookup({query:?}, {k}): result count",
        slice.class()
    );
    for (i, (a, e)) in actual.iter().zip(&expected).enumerate() {
        assert_eq!(a.id, e.id, "{} lookup({query:?}, {k})[{i}]: id", slice.class());
        assert_eq!(
            a.score.to_bits(),
            e.score.to_bits(),
            "{} lookup({query:?}, {k})[{i}]: score {} vs {}",
            slice.class(),
            a.score,
            e.score
        );
        assert_eq!(
            slice.index().resolve(a.normalized),
            e.normalized,
            "{} lookup({query:?}, {k})[{i}]: surfaced label",
            slice.class()
        );
    }

    // Snapshot-level agreement: the per-class query path adds nothing but
    // the EntityRef/label projection.
    let hits = snap.fuzzy_lookup(Some(slice.class()), query, k);
    assert_eq!(hits.len(), expected.len());
    for (h, e) in hits.iter().zip(&expected) {
        assert_eq!((h.entity.class, u64::from(h.entity.id)), (slice.class(), e.id));
        assert_eq!(h.score.to_bits(), e.score.to_bits());
        assert_eq!(h.label, e.normalized);
    }
}

/// Assert the cross-class merged lookup equals merging the per-class brute
/// lists by the documented total order.
fn assert_merged_agreement(snap: &KbSnapshot, query: &str, k: usize) {
    let mut expected: Vec<(ClassKey, BruteHit)> = Vec::new();
    for slice in snap.classes() {
        for hit in brute_force_lookup(slice, query, k) {
            expected.push((slice.class(), hit));
        }
    }
    expected.sort_by(|(_, a), (_, b)| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.id.cmp(&b.id))
    });
    expected.truncate(k);

    let actual = snap.fuzzy_lookup(None, query, k);
    assert_eq!(actual.len(), expected.len(), "merged lookup({query:?}, {k}): count");
    for (a, (class, e)) in actual.iter().zip(&expected) {
        assert_eq!(
            (a.entity.class, u64::from(a.entity.id)),
            (*class, e.id),
            "merged lookup({query:?})"
        );
        assert_eq!(a.score.to_bits(), e.score.to_bits());
        assert_eq!(a.label, e.normalized);
    }
}

fn check_query_on(snap: &KbSnapshot, query: &str, k: usize) {
    for slice in snap.classes() {
        assert_class_agreement(snap, slice, query, k);
    }
    assert_merged_agreement(snap, query, k);
}

fn check_query(query: &str, k: usize) {
    check_query_on(&snapshot(), query, k);
}

/// Deterministically pick a label served by `snap` and perturb it: drop
/// one character and/or append garbage, producing near-miss queries that
/// exercise the Levenshtein branch instead of the exact-token fast path.
fn perturbed_label_on(snap: &KbSnapshot, pick: usize, drop: usize, suffix: &str) -> Option<String> {
    let slices: Vec<_> = snap.classes().collect();
    let slice = slices[pick % slices.len()];
    let record = slice.record((pick / slices.len()) as u32 % slice.len() as u32)?;
    let label = record.labels.get(pick % record.labels.len().max(1))?;
    let mut chars: Vec<char> = label.chars().collect();
    if !chars.is_empty() {
        chars.remove(drop % chars.len());
    }
    let mut query: String = chars.into_iter().collect();
    query.push_str(suffix);
    Some(query)
}

fn perturbed_label(pick: usize, drop: usize, suffix: &str) -> Option<String> {
    perturbed_label_on(&snapshot(), pick, drop, suffix)
}

/// The scenario snapshots must actually serve records (and, for the
/// long-label corpus, >64-char tokens) — otherwise the agreement
/// properties over them would pass vacuously.
#[test]
fn scenario_snapshots_serve_their_corpora() {
    let flood = flood_snapshot();
    assert!(
        flood.classes().any(|s| !s.is_empty()),
        "flood snapshot should serve records"
    );
    let long = long_label_snapshot();
    let has_long_token = long.classes().any(|slice| {
        slice.records().iter().any(|r| {
            r.labels.iter().any(|l| {
                tokenize(&normalize_label(l)).iter().any(|t| t.chars().count() > 64)
            })
        })
    });
    assert!(has_long_token, "long-label snapshot should serve a >64-char token");
}

proptest! {
    #[test]
    fn random_queries_agree_with_brute_force(query in "[a-z ]{0,24}", k in 0usize..8) {
        check_query(&query, k);
    }

    #[test]
    fn perturbed_served_labels_agree_with_brute_force(
        pick in 0usize..4096,
        drop in 0usize..32,
        suffix in "[a-z]{0,3}",
        k in 1usize..7,
    ) {
        if let Some(query) = perturbed_label(pick, drop, &suffix) {
            check_query(&query, k);
        }
    }

    #[test]
    fn flood_queries_agree_with_brute_force(
        pick in 0usize..4096,
        drop in 0usize..32,
        suffix in "[a-z]{0,2}",
        k in 1usize..6,
    ) {
        // Near-duplicate flood: many candidates within one or two edits
        // of each other, so pruning bounds separate almost nothing and
        // the top-k boundary is contested by score ties — exactly where
        // an unsound skip or a float divergence would surface.
        let snap = flood_snapshot();
        if let Some(query) = perturbed_label_on(&snap, pick, drop, &suffix) {
            check_query_on(&snap, &query, k);
        }
    }

    #[test]
    fn long_label_queries_agree_with_brute_force(
        pick in 0usize..2048,
        drop in 0usize..96,
        k in 1usize..5,
    ) {
        // Labels carry a >64-char token: dropping a character from it
        // keeps it past the single-block limit, so the multi-block
        // kernel runs inside the full serving stack and must agree with
        // the string-level brute force bit-for-bit.
        let snap = long_label_snapshot();
        if let Some(query) = perturbed_label_on(&snap, pick, drop, "") {
            check_query_on(&snap, &query, k);
        }
    }

    #[test]
    fn served_labels_are_always_their_own_best_exact_match(pick in 0usize..4096) {
        let snap = snapshot();
        let slices: Vec<_> = snap.classes().collect();
        let slice = slices[pick % slices.len()];
        let id = (pick / slices.len()) as u32 % slice.len() as u32;
        let record = slice.record(id).expect("id is in range");
        let label = &record.labels[pick % record.labels.len()];
        let hits = snap.exact_lookup(Some(slice.class()), label);
        prop_assert!(
            hits.iter().any(|h| h.entity.id == id),
            "exact lookup of a served label must retrieve its record"
        );
    }
}
