//! Integration test of row clustering on a generated corpus, evaluated with
//! the Hassanzadeh framework against the gold clusters.
//!
//! Deterministic: `Scale::tiny()` world with fixed seed 601.
//! Expected runtime: ~2 s in debug (`cargo test`).

use ltee_clustering::metrics::PhiTableVectors;
use ltee_clustering::{
    build_pair_dataset, build_row_contexts, cluster_rows, AggregationMethod, ClusteringConfig,
    ImplicitAttributes, RowMetricKind, RowSimilarityModel, ROW_MODEL_TRAINING,
};
use ltee_core::prelude::*;
use ltee_eval::evaluate_clustering;
use ltee_matching::{match_corpus, MatcherWeights, SchemaMatchingConfig};
use ltee_webtables::RowRef;

struct Setup {
    world: World,
    corpus: GeneratedCorpus,
    gold: GoldStandard,
    mapping: ltee_matching::CorpusMapping,
}

fn setup(class: ClassKey) -> Setup {
    let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 601));
    let corpus = generate_corpus(&world, &CorpusConfig::tiny());
    let mapping = match_corpus(
        &corpus,
        world.kb(),
        &MatcherWeights::default(),
        &SchemaMatchingConfig::default(),
        None,
    );
    let gold = GoldStandard::build(&world, &corpus, class);
    Setup { world, corpus, gold, mapping }
}

fn run_clustering(setup: &Setup, metrics: Vec<RowMetricKind>, config: &ClusteringConfig) -> f64 {
    let class = setup.gold.class;
    let rows = setup.mapping.class_rows(&setup.corpus, class);
    let mut interner = ltee_intern::Interner::new();
    let contexts = build_row_contexts(&setup.corpus, &setup.mapping, &rows, &mut interner);
    let phi = PhiTableVectors::build(&setup.corpus, &contexts);
    let index = setup.world.kb().label_index(class);
    let implicit = ImplicitAttributes::build(&setup.corpus, &setup.mapping, setup.world.kb(), class, &index);
    let ds = build_pair_dataset(&contexts, &setup.gold, &metrics, &phi, &implicit, &interner);
    let model = RowSimilarityModel::train(&ds, metrics, AggregationMethod::Combined, &ROW_MODEL_TRAINING);
    let clustering = cluster_rows(&contexts, &model, &phi, &implicit, config, &interner);
    let produced = clustering.to_row_refs(&contexts);
    let gold_clusters: Vec<Vec<RowRef>> = setup
        .gold
        .clusters
        .iter()
        .map(|c| c.rows.iter().copied().filter(|r| rows.contains(r)).collect::<Vec<_>>())
        .filter(|c: &Vec<RowRef>| !c.is_empty())
        .collect();
    evaluate_clustering(&produced, &gold_clusters).f1
}

#[test]
fn full_metric_clustering_reaches_a_reasonable_f1() {
    let s = setup(ClassKey::GridironFootballPlayer);
    let f1 = run_clustering(&s, RowMetricKind::ALL.to_vec(), &ClusteringConfig::default());
    // The paper reaches 0.83 on its gold standard; the synthetic tiny setup
    // should comfortably clear a lower bar.
    assert!(f1 > 0.5, "clustering F1 {f1:.2}");
}

#[test]
fn aggregating_all_metrics_is_not_worse_than_label_only() {
    let s = setup(ClassKey::GridironFootballPlayer);
    let label_only = run_clustering(&s, vec![RowMetricKind::Label], &ClusteringConfig::default());
    let all = run_clustering(&s, RowMetricKind::ALL.to_vec(), &ClusteringConfig::default());
    // On the tiny synthetic setup the label is already near-perfect for the
    // player class, so the aggregated model only has to stay in the same
    // ballpark (the paper's Table 7 improvement shows up at gold scale).
    assert!(
        all >= label_only - 0.2,
        "all-metric clustering ({all:.2}) should not be clearly worse than label-only ({label_only:.2})"
    );
}

#[test]
fn blocking_does_not_destroy_quality() {
    // Paper: "the blocking yields no decrease in F1".
    let s = setup(ClassKey::Settlement);
    let with = run_clustering(&s, RowMetricKind::ALL.to_vec(), &ClusteringConfig::default());
    let without = run_clustering(
        &s,
        RowMetricKind::ALL.to_vec(),
        &ClusteringConfig { use_blocking: false, ..Default::default() },
    );
    assert!(
        with >= without - 0.1,
        "blocking F1 {with:.2} dropped too far below unblocked {without:.2}"
    );
}

#[test]
fn klj_refinement_does_not_hurt_on_player_tables() {
    // The KLj comparison uses the player class: for songs the correlation
    // clustering objective itself favours merging homonym clusters (identical
    // labels, compatible facts), so the KLj step can legitimately trade gold
    // F1 for objective value there — the same "clustering is more difficult
    // for songs" effect the paper reports in Section 4.1.
    let s = setup(ClassKey::GridironFootballPlayer);
    let with_klj = run_clustering(&s, RowMetricKind::ALL.to_vec(), &ClusteringConfig::default());
    let without_klj = run_clustering(
        &s,
        RowMetricKind::ALL.to_vec(),
        &ClusteringConfig { use_klj: false, ..Default::default() },
    );
    assert!(
        with_klj >= without_klj - 0.15,
        "KLj F1 {with_klj:.2} vs greedy-only {without_klj:.2}"
    );
}

#[test]
fn song_clustering_is_harder_but_still_usable() {
    // Section 4.1/5: songs are the hardest class because of homonyms.
    let s = setup(ClassKey::Song);
    let f1 = run_clustering(&s, RowMetricKind::ALL.to_vec(), &ClusteringConfig::default());
    assert!(f1 > 0.35, "song clustering F1 {f1:.2}");
}
