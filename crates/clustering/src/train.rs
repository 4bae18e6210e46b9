//! Training of the row similarity model from gold standard clusters.
//!
//! "To learn the weights, we model the data in the learning set as row-pairs
//! that either match or not … In all cases we upsample to balance the number
//! of matching and non-matching row pairs." (Section 3.2)

use std::collections::HashMap;

use ltee_intern::Interner;
use ltee_ml::{AggregationMethod, Dataset, PairFeatures, PairwiseModel, PairwiseTrainingConfig, Sample};
use ltee_webtables::{GoldStandard, RowRef};
use rayon::prelude::*;

use crate::context::{ImplicitAttributes, RowContext};
use crate::metrics::{metric_feature_names, metric_features, PhiTableVectors, RowMetricKind, RowSimilarityModel};

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
    let names = metric_feature_names(metrics);
    let mut dataset = Dataset::new(names);

    // Row → cluster index for the gold clusters, restricted to known rows.
    let row_index: HashMap<RowRef, usize> =
        contexts.iter().enumerate().map(|(i, c)| (c.row, i)).collect();
    let mut cluster_of: HashMap<usize, usize> = HashMap::new();
    for (ci, cluster) in gold.clusters.iter().enumerate() {
        for row in &cluster.rows {
            if let Some(&idx) = row_index.get(row) {
                cluster_of.insert(idx, ci);
            }
        }
    }

    // Positive pairs: same gold cluster.
    let mut positives: Vec<(usize, usize)> = Vec::new();
    for cluster in &gold.clusters {
        let members: Vec<usize> =
            cluster.rows.iter().filter_map(|r| row_index.get(r).copied()).collect();
        for i in 0..members.len() {
            for j in (i + 1)..members.len() {
                positives.push((members[i], members[j]));
            }
        }
    }

    // Negative pairs: prefer pairs with similar labels but different gold
    // clusters (these are the pairs the model must learn to separate). The
    // O(n²) label-similarity scan is the expensive part, so left rows are
    // processed in blocks — each block's rows scanned in parallel, then the
    // selection pass walks the block in (i, j) order, stopping at the
    // quota. This reproduces the sequential selection exactly while keeping
    // the old early exit: at most one block of similarities is computed
    // beyond what the quota needed.
    const NEGATIVE_SCAN_BLOCK: usize = 64;
    let mut negatives: Vec<(usize, usize)> = Vec::new();
    let max_negatives = positives.len().max(1) * config.negatives_per_positive;
    let mut block_start = 0;
    'outer: while block_start < contexts.len() && negatives.len() < max_negatives {
        let block_end = (block_start + NEGATIVE_SCAN_BLOCK).min(contexts.len());
        let per_row_candidates: Vec<Vec<(usize, bool)>> = (block_start..block_end)
            .into_par_iter()
            .map(|i| {
                let Some(&ci) = cluster_of.get(&i) else { return Vec::new() };
                ((i + 1)..contexts.len())
                    .filter_map(|j| {
                        let &cj = cluster_of.get(&j)?;
                        if ci == cj {
                            return None;
                        }
                        let label_sim = ltee_text::monge_elkan_tokens(
                            &contexts[i].label_tokens,
                            &contexts[j].label_tokens,
                            interner,
                        );
                        Some((j, label_sim >= 0.3))
                    })
                    .collect()
            })
            .collect();

        for (i, candidates) in (block_start..).zip(per_row_candidates) {
            for (j, is_hard) in candidates {
                // Hard negatives first; everything below 0.3 is skipped
                // unless we are short on negatives.
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

/// Train a row similarity model on a pair dataset.
///
/// Panics if `metrics` lists more than [`PairFeatures::MAX_METRICS`].
pub fn train_row_model(
    dataset: &Dataset,
    metrics: Vec<RowMetricKind>,
    config: &RowModelTrainingConfig,
) -> RowSimilarityModel {
    PairFeatures::assert_metric_count(metrics.len());
    let model = PairwiseModel::train(dataset, metrics.len(), config.aggregation, &config.pairwise);
    RowSimilarityModel { metrics, model }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltee_kb::{generate_world, ClassKey, GeneratorConfig, Scale};
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
                    let features = metric_features(&RowMetricKind::ALL, a, b, &phi, &implicit, &interner);
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
        assert_eq!(ltee_ml::fnv1a64(&bytes), 0xd66bd84bea9b8022, "{pairs} pairs");
    }

    #[test]
    fn trained_model_separates_same_and_different_entities() {
        let (contexts, gold, phi, implicit, interner) = setup();
        let metrics = RowMetricKind::ALL.to_vec();
        let config = RowModelTrainingConfig::fast();
        let ds = build_pair_dataset(&contexts, &gold, &metrics, &phi, &implicit, &config, &interner);
        let model = train_row_model(&ds, metrics, &config);

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
        let model = train_row_model(&ds, metrics, &config);
        let importances = model.metric_importances();
        assert_eq!(importances.len(), 6);
        let total: f64 = importances.iter().map(|(_, v)| v).sum();
        assert!(total > 0.0);
    }

    #[test]
    fn label_only_model_trains() {
        let (contexts, gold, phi, implicit, interner) = setup();
        let metrics = vec![RowMetricKind::Label];
        let config = RowModelTrainingConfig::fast();
        let ds = build_pair_dataset(&contexts, &gold, &metrics, &phi, &implicit, &config, &interner);
        assert_eq!(ds.num_features(), 1);
        let model = train_row_model(&ds, metrics, &config);
        assert_eq!(model.metrics.len(), 1);
    }
}
