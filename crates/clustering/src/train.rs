//! Training of the row similarity model from gold standard clusters.
//!
//! "To learn the weights, we model the data in the learning set as row-pairs
//! that either match or not … In all cases we upsample to balance the number
//! of matching and non-matching row pairs." (Section 3.2)

use std::collections::HashMap;

use ltee_intern::Interner;
use ltee_ml::{AggregationMethod, Dataset, PairFeatures, PairwiseTrainingConfig, Sample};
use ltee_webtables::{GoldStandard, RowRef};
use rayon::prelude::*;

use crate::context::{ImplicitAttributes, RowContext};
use crate::metrics::{metric_features, PhiTableVectors, RowMetricKind, RowSimilarityModel};

/// Training configuration for the row similarity model.
#[derive(Debug, Clone, PartialEq)]
pub struct RowModelTrainingConfig {
    /// Which aggregation approach to train.
    pub aggregation: AggregationMethod,
    /// Negative pairs sampled per positive pair (before balancing).
    pub negatives_per_positive: usize,
    /// Underlying pairwise model training configuration.
    pub pairwise: PairwiseTrainingConfig,
}

impl Default for RowModelTrainingConfig {
    fn default() -> Self {
        Self {
            aggregation: AggregationMethod::Combined,
            negatives_per_positive: 3,
            pairwise: PairwiseTrainingConfig::default(),
        }
    }
}

impl RowModelTrainingConfig {
    /// A fast configuration for tests and small experiments.
    pub fn fast() -> Self {
        Self {
            aggregation: AggregationMethod::Combined,
            negatives_per_positive: 2,
            pairwise: PairwiseTrainingConfig {
                genetic: ltee_ml::GeneticConfig { population: 20, generations: 15, ..Default::default() },
                forest: ltee_ml::RandomForestConfig { num_trees: 20, max_depth: 8, ..Default::default() },
                upsample_seed: 11,
            },
        }
    }
}

/// Build a pairwise training dataset from gold clusters restricted to the
/// rows available in `contexts` (typically the learning folds).
///
/// Positive pairs are all within-cluster row pairs; negative pairs are
/// cross-cluster pairs with similar labels (hard negatives) plus a few
/// random ones, capped at `negatives_per_positive` times the positives.
///
/// Panics if `metrics` lists more than [`PairFeatures::MAX_METRICS`].
pub fn build_pair_dataset(
    contexts: &[RowContext],
    gold: &GoldStandard,
    metrics: &[RowMetricKind],
    phi: &PhiTableVectors,
    implicit: &ImplicitAttributes,
    config: &RowModelTrainingConfig,
    interner: &Interner,
) -> Dataset {
    PairFeatures::assert_metric_count(metrics.len());
    let mut dataset = Dataset::new(RowSimilarityModel::feature_names(metrics));

    let (cluster_of, positives) = gold_pairs(contexts, gold);
    let max_negatives = positives.len().max(1) * config.negatives_per_positive;
    let negatives = select_negatives(&cluster_of, max_negatives, |i, j| {
        ltee_text::monge_elkan_tokens(&contexts[i].label_tokens, &contexts[j].label_tokens, interner)
    });

    // Feature extraction per selected pair is embarrassingly parallel; the
    // samples are pushed in pair order so the dataset layout (and therefore
    // the seeded upsampling downstream) never depends on the thread count.
    let positive_samples: Vec<Sample> = positives
        .par_iter()
        .map(|&(i, j)| {
            Sample::new(
                metric_features(metrics, &contexts[i], &contexts[j], phi, implicit, interner).to_vec(),
                1.0,
            )
        })
        .collect();
    let negative_samples: Vec<Sample> = negatives
        .par_iter()
        .map(|&(i, j)| {
            Sample::new(
                metric_features(metrics, &contexts[i], &contexts[j], phi, implicit, interner).to_vec(),
                0.0,
            )
        })
        .collect();
    for sample in positive_samples.into_iter().chain(negative_samples) {
        dataset.push(sample);
    }
    dataset
}

/// The gold cluster of every row of `contexts` (`None` for a row the gold
/// standard does not cover) and the positive pairs: every within-cluster
/// pair of rows, cluster by cluster.
fn gold_pairs(contexts: &[RowContext], gold: &GoldStandard) -> (Vec<Option<usize>>, Vec<(usize, usize)>) {
    let row_index: HashMap<RowRef, usize> = contexts.iter().enumerate().map(|(i, c)| (c.row, i)).collect();
    let mut cluster_of = vec![None; contexts.len()];
    let mut positives = Vec::new();
    for (ci, cluster) in gold.clusters.iter().enumerate() {
        let members: Vec<usize> = cluster.rows.iter().filter_map(|r| row_index.get(r).copied()).collect();
        for &member in &members {
            cluster_of[member] = Some(ci);
        }
        for i in 0..members.len() {
            for j in (i + 1)..members.len() {
                positives.push((members[i], members[j]));
            }
        }
    }
    (cluster_of, positives)
}

/// Fewest label similarities one round of the negative scan computes, so
/// that a round keeps the pool busy however few places are left.
const NEGATIVE_SCAN_ROUND: usize = 64;

/// Negative pairs: cross-cluster row pairs `(i, j)`, `i < j`, walked in
/// `(i, j)` order, taking every pair whose `label_sim` is at least 0.3 —
/// the pairs the model must learn to separate — and, while fewer than
/// `max_negatives / 2` are taken, every other pair too, until
/// `max_negatives` are taken.
///
/// The label similarities are the expensive part, and the walk reads only
/// some of them: none before half the quota is taken, then one per walked
/// pair until the quota is full. Each pair taken fills one place, so with
/// `r` places left at least the next `r` pairs are walked — each round
/// computes the next `max(r, NEGATIVE_SCAN_ROUND)` similarities on the
/// pool, walks them until the quota is full, and repeats. Only the last
/// round can compute similarities the walk does not read, fewer than
/// `NEGATIVE_SCAN_ROUND`.
fn select_negatives(
    cluster_of: &[Option<usize>],
    max_negatives: usize,
    label_sim: impl Fn(usize, usize) -> f64 + Sync,
) -> Vec<(usize, usize)> {
    let rows = cluster_of.len();
    let mut pairs = (0..rows).filter_map(|i| Some((i, cluster_of[i]?))).flat_map(|(i, ci)| {
        ((i + 1)..rows).filter(move |&j| cluster_of[j].is_some_and(|cj| cj != ci)).map(move |j| (i, j))
    });
    let mut negatives: Vec<(usize, usize)> = pairs.by_ref().take(max_negatives / 2).collect();
    while negatives.len() < max_negatives {
        let places = max_negatives - negatives.len();
        let ahead: Vec<(usize, usize)> = pairs.by_ref().take(places.max(NEGATIVE_SCAN_ROUND)).collect();
        if ahead.is_empty() {
            break;
        }
        let hard: Vec<bool> = ahead.par_iter().map(|&(i, j)| label_sim(i, j) >= 0.3).collect();
        negatives.extend(ahead.into_iter().zip(hard).filter_map(|(pair, hard)| hard.then_some(pair)).take(places));
    }
    negatives
}

/// The negative scan [`select_negatives`] replaced, kept as its oracle:
/// blocks of 64 left rows, each block's similarities all computed on the
/// pool, then walked in `(i, j)` order up to the quota.
#[cfg(test)]
fn select_negatives_in_blocks(
    cluster_of: &[Option<usize>],
    max_negatives: usize,
    label_sim: impl Fn(usize, usize) -> f64 + Sync,
) -> Vec<(usize, usize)> {
    const NEGATIVE_SCAN_BLOCK: usize = 64;
    let rows = cluster_of.len();
    let mut negatives: Vec<(usize, usize)> = Vec::new();
    let mut block_start = 0;
    'outer: while block_start < rows && negatives.len() < max_negatives {
        let block_end = (block_start + NEGATIVE_SCAN_BLOCK).min(rows);
        let per_row_candidates: Vec<Vec<(usize, bool)>> = (block_start..block_end)
            .into_par_iter()
            .map(|i| {
                let Some(ci) = cluster_of[i] else { return Vec::new() };
                ((i + 1)..rows)
                    .filter(|&j| cluster_of[j].is_some_and(|cj| cj != ci))
                    .map(|j| (j, label_sim(i, j) >= 0.3))
                    .collect()
            })
            .collect();
        for (i, candidates) in (block_start..).zip(per_row_candidates) {
            for (j, is_hard) in candidates {
                if is_hard || negatives.len() < max_negatives / 2 {
                    negatives.push((i, j));
                }
                if negatives.len() >= max_negatives {
                    break 'outer;
                }
            }
        }
        block_start = block_end;
    }
    negatives
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltee_kb::{generate_world, ClassKey, GeneratorConfig, Scale};
    use ltee_ml::MetricKind;
    use ltee_matching::{match_corpus, MatcherWeights, SchemaMatchingConfig};
    use ltee_webtables::{generate_corpus, CorpusConfig};

    fn setup() -> (Vec<RowContext>, GoldStandard, PhiTableVectors, ImplicitAttributes, Interner) {
        setup_class(ClassKey::GridironFootballPlayer)
    }

    fn setup_class(
        class: ClassKey,
    ) -> (Vec<RowContext>, GoldStandard, PhiTableVectors, ImplicitAttributes, Interner) {
        let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 51));
        let corpus = generate_corpus(&world, &CorpusConfig::tiny());
        let mapping = match_corpus(
            &corpus,
            world.kb(),
            &MatcherWeights::default(),
            &SchemaMatchingConfig::default(),
            None,
        );
        let gold = GoldStandard::build(&world, &corpus, class);
        let rows = mapping.class_rows(&corpus, class);
        let mut interner = Interner::new();
        let contexts = crate::context::build_row_contexts(&corpus, &mapping, &rows, &mut interner);
        let phi = PhiTableVectors::build(&corpus, &contexts);
        let index = world.kb().label_index(class);
        let implicit = ImplicitAttributes::build(&corpus, &mapping, world.kb(), class, &index);
        (contexts, gold, phi, implicit, interner)
    }

    #[test]
    fn pair_dataset_has_both_classes_and_correct_arity() {
        let (contexts, gold, phi, implicit, interner) = setup();
        let metrics = RowMetricKind::ALL.to_vec();
        let ds = build_pair_dataset(&contexts, &gold, &metrics, &phi, &implicit, &RowModelTrainingConfig::fast(), &interner);
        assert!(ds.positives() > 0, "need positive pairs");
        assert!(ds.negatives() > 0, "need negative pairs");
        assert_eq!(ds.num_features(), 8);
    }

    /// Bit pin of the six row metrics: FNV-1a64 over the bits of
    /// `metric_features` for every row pair of the fixture, class by class.
    /// The constant was generated before pair scoring moved to prepared
    /// values, stored PHI norms and inline feature vectors (PR 14); a
    /// change to it is a change to what the row model is trained on and
    /// scores.
    #[test]
    fn metric_features_are_bit_pinned_on_the_fixture() {
        let mut bytes = Vec::new();
        let (mut pairs, mut attribute_overlaps, mut implicit_overlaps) = (0, 0, 0);
        for class in ltee_kb::CLASS_KEYS {
            let (contexts, _, phi, implicit, interner) = setup_class(class);
            for (i, a) in contexts.iter().enumerate() {
                for b in &contexts[i + 1..] {
                    let features = metric_features(RowMetricKind::ALL, a, b, &phi, &implicit, &interner);
                    assert_eq!(features.len(), 8);
                    pairs += 1;
                    attribute_overlaps += usize::from(features[6] > 0.0);
                    implicit_overlaps += usize::from(features[7] > 0.0);
                    for value in features.iter() {
                        bytes.extend_from_slice(&value.to_bits().to_le_bytes());
                    }
                }
            }
        }
        // Both confidence-carrying metrics must actually fire on the fixture.
        assert!(attribute_overlaps > 100 && implicit_overlaps > 100, "{attribute_overlaps} / {implicit_overlaps}");
        assert_eq!(ltee_intern::fnv1a64(&bytes), 0xd66bd84bea9b8022, "{pairs} pairs");
    }

    #[test]
    fn trained_model_separates_same_and_different_entities() {
        let (contexts, gold, phi, implicit, interner) = setup();
        let metrics = RowMetricKind::ALL.to_vec();
        let config = RowModelTrainingConfig::fast();
        let ds = build_pair_dataset(&contexts, &gold, &metrics, &phi, &implicit, &config, &interner);
        let model = RowSimilarityModel::train(&ds, metrics, config.aggregation, &config.pairwise);

        // Evaluate on the training pairs themselves (sanity, not rigour):
        // the model should get a clear majority of them right.
        let mut correct = 0usize;
        let mut total = 0usize;
        for s in &ds.samples {
            let predicted = s.features.is_empty() || model.model.score(&s.features) > 0.0;
            if predicted == (s.target > 0.0) {
                correct += 1;
            }
            total += 1;
        }
        assert!(total > 20);
        assert!(
            correct as f64 / total as f64 > 0.75,
            "pairwise accuracy {}",
            correct as f64 / total as f64
        );
    }

    #[test]
    fn metric_importances_cover_all_metrics() {
        let (contexts, gold, phi, implicit, interner) = setup();
        let metrics = RowMetricKind::ALL.to_vec();
        let config = RowModelTrainingConfig::fast();
        let ds = build_pair_dataset(&contexts, &gold, &metrics, &phi, &implicit, &config, &interner);
        let model = RowSimilarityModel::train(&ds, metrics, config.aggregation, &config.pairwise);
        let importances = model.metric_importances();
        assert_eq!(importances.len(), 6);
        let total: f64 = importances.iter().map(|(_, v)| v).sum();
        assert!(total > 0.0);
    }

    /// The negative scan's work on the fixture: each class's quota is met
    /// within the first rows, and the scan computes the similarities the
    /// selection reads plus at most one partly read round, where 64-row
    /// blocks computed a whole block's — and selects the same pairs.
    #[test]
    fn negative_scan_counts_its_label_similarities() {
        let (mut lazy_total, mut blocked_total) = (0, 0);
        for class in ltee_kb::CLASS_KEYS {
            let (contexts, gold, _, _, interner) = setup_class(class);
            let (cluster_of, positives) = gold_pairs(&contexts, &gold);
            let quota = positives.len().max(1) * RowModelTrainingConfig::fast().negatives_per_positive;
            let calls = std::sync::atomic::AtomicUsize::new(0);
            let counted_sim = |i: usize, j: usize| {
                calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                ltee_text::monge_elkan_tokens(&contexts[i].label_tokens, &contexts[j].label_tokens, &interner)
            };
            let lazy = select_negatives(&cluster_of, quota, counted_sim);
            let lazy_calls = calls.swap(0, std::sync::atomic::Ordering::Relaxed);
            let blocked = select_negatives_in_blocks(&cluster_of, quota, counted_sim);
            let blocked_calls = calls.into_inner();
            assert_eq!(lazy, blocked, "{class}");
            assert_eq!(lazy.len(), quota, "{class}: the fixture meets its quota");
            println!("{class}: {lazy_calls} label similarities computed, {blocked_calls} in 64-row blocks");
            lazy_total += lazy_calls;
            blocked_total += blocked_calls;
        }
        assert_eq!((lazy_total, blocked_total), (384, 2_201));
    }

    #[test]
    fn label_only_model_trains() {
        let (contexts, gold, phi, implicit, interner) = setup();
        let metrics = vec![RowMetricKind::Label];
        let config = RowModelTrainingConfig::fast();
        let ds = build_pair_dataset(&contexts, &gold, &metrics, &phi, &implicit, &config, &interner);
        assert_eq!(ds.num_features(), 1);
        let model = RowSimilarityModel::train(&ds, metrics, config.aggregation, &config.pairwise);
        assert_eq!(model.metrics.len(), 1);
    }

    proptest::proptest! {
        /// The lazy scan selects exactly what 64-row blocks selected, on
        /// random labels, gold clusters (rows outside the gold standard
        /// included) and quotas — quotas never met included.
        #[test]
        fn lazy_negative_scan_equals_the_64_row_block_scan(
            labels in proptest::collection::vec("[ab ]{1,6}", 0..150),
            clusters in proptest::collection::vec(0usize..6, 150..151),
            quota in 0usize..400,
        ) {
            // Cluster 5 stands for a row outside the gold standard.
            let cluster_of: Vec<Option<usize>> =
                clusters[..labels.len()].iter().map(|&c| (c < 5).then_some(c)).collect();
            let sim = |i: usize, j: usize| ltee_text::monge_elkan_similarity(&labels[i], &labels[j]);
            let lazy = select_negatives(&cluster_of, quota, sim);
            let blocked = select_negatives_in_blocks(&cluster_of, quota, sim);
            proptest::prop_assert_eq!(lazy, blocked);
        }
    }
}
