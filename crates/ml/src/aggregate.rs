//! Aggregation of similarity metrics into a single pairwise match score.
//!
//! The paper evaluates three aggregation approaches (Sections 3.2, 3.4):
//!
//! 1. a learned **weighted average** over the similarity scores (confidence
//!    scores ignored) with a learned threshold,
//! 2. a **random forest regression tree** over similarity *and* confidence
//!    scores with targets −1.0 / 1.0,
//! 3. a **combination** of both, mixed by a learned weighted average.
//!
//! All three are wrapped behind [`PairwiseModel`], whose output is a score
//! in `[-1, 1]` where positive means "same instance" — exactly the form the
//! correlation clustering fitness function and the new-detection classifier
//! consume. The module also computes the **metric importance** reported in
//! Tables 7 and 8: "the average of the relative importance of the metric
//! inside the learned random forest regression tree and the weights in the
//! learned weighted average function".

use ltee_codec::{ByteReader, ByteWriter, CodecError, StringTable, StringTableWriter};
use crate::dataset::{Dataset, Sample};
use crate::forest::{RandomForest, RandomForestConfig};
use crate::genetic::GeneticConfig;
use crate::weighted::WeightedAverageModel;

/// Which aggregation approach to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregationMethod {
    /// Learned weighted average over similarity scores only.
    WeightedAverage,
    /// Random forest regression over similarity and confidence scores.
    RandomForest,
    /// Learned mix of the two (the paper's best-performing setting).
    Combined,
}

impl AggregationMethod {
    /// All aggregation methods in a stable order.
    pub const ALL: [AggregationMethod; 3] = [
        AggregationMethod::WeightedAverage,
        AggregationMethod::RandomForest,
        AggregationMethod::Combined,
    ];

    /// Human readable name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            AggregationMethod::WeightedAverage => "weighted_average",
            AggregationMethod::RandomForest => "random_forest",
            AggregationMethod::Combined => "combined",
        }
    }

    /// Stable on-disk tag of this method (model persistence).
    pub fn code(self) -> u8 {
        match self {
            AggregationMethod::WeightedAverage => 0,
            AggregationMethod::RandomForest => 1,
            AggregationMethod::Combined => 2,
        }
    }

    /// Inverse of [`AggregationMethod::code`].
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(AggregationMethod::WeightedAverage),
            1 => Some(AggregationMethod::RandomForest),
            2 => Some(AggregationMethod::Combined),
            _ => None,
        }
    }
}

/// Importance of one metric in the final aggregated model (Tables 7/8).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricImportance {
    /// Metric (feature) name.
    pub name: String,
    /// Average of the random-forest relative importance and the
    /// weighted-average weight.
    pub importance: f64,
}

/// Hyperparameters shared by pairwise model training.
#[derive(Debug, Clone, PartialEq)]
pub struct PairwiseTrainingConfig {
    /// Genetic algorithm settings for the weighted average.
    pub genetic: GeneticConfig,
    /// Random forest settings.
    pub forest: RandomForestConfig,
    /// Seed for balanced upsampling.
    pub upsample_seed: u64,
}

impl Default for PairwiseTrainingConfig {
    fn default() -> Self {
        Self { genetic: GeneticConfig::default(), forest: RandomForestConfig::default(), upsample_seed: 77 }
    }
}

/// The feature vector of one pair in the layout [`PairwiseModel`] scores —
/// every metric's similarity, then the confidences of the metrics that have
/// one, both in metric order — held inline, because the serve path builds
/// one per scored pair. Dereferences to the feature slice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairFeatures {
    values: [f64; Self::CAPACITY],
    len: usize,
}

impl PairFeatures {
    /// Most metrics a metric set may list (the paper's models have six).
    pub const MAX_METRICS: usize = 6;

    /// Most features held: a similarity and a confidence per metric.
    pub const CAPACITY: usize = 2 * Self::MAX_METRICS;

    /// Panic, naming the limit, unless a set of `metrics` metrics fits.
    /// Dataset builders and model constructors call this up front, where
    /// [`PairwiseModel::train`] asserts its own preconditions, so an
    /// oversized set (a list with a repeated metric) is refused on the
    /// calling thread before any pair is scored; model decoders return a
    /// [`CodecError`] instead.
    pub fn assert_metric_count(metrics: usize) {
        assert!(
            metrics <= Self::MAX_METRICS,
            "a metric set lists at most {} metrics, got {metrics}",
            Self::MAX_METRICS
        );
    }

    /// Lay out one `(similarity, confidence)` per metric, in metric order;
    /// `confidence` is `None` for metrics that do not have one.
    ///
    /// Panics if there are more than [`PairFeatures::MAX_METRICS`] metrics
    /// (an internal invariant: see [`PairFeatures::assert_metric_count`]).
    pub fn from_scores(scores: impl IntoIterator<Item = (f64, Option<f64>)>) -> Self {
        let mut values = [0.0; Self::CAPACITY];
        let mut confidences = [0.0; Self::MAX_METRICS];
        let (mut similarity_count, mut confidence_count) = (0, 0);
        for (similarity, confidence) in scores {
            assert!(
                similarity_count < Self::MAX_METRICS,
                "a metric set lists at most {} metrics",
                Self::MAX_METRICS
            );
            values[similarity_count] = similarity;
            similarity_count += 1;
            if let Some(confidence) = confidence {
                confidences[confidence_count] = confidence;
                confidence_count += 1;
            }
        }
        let len = similarity_count + confidence_count;
        values[similarity_count..len].copy_from_slice(&confidences[..confidence_count]);
        Self { values, len }
    }
}

impl std::ops::Deref for PairFeatures {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        &self.values[..self.len]
    }
}

/// A trained pairwise matching model.
///
/// The feature layout is: the first `num_similarities` features are
/// similarity scores in `[0, 1]`; any remaining features are confidence
/// scores (used only by the random forest, mirroring the paper where "in
/// this case, attached confidence scores are not considered" for the
/// weighted average).
#[derive(Debug, Clone, PartialEq)]
pub struct PairwiseModel {
    method: AggregationMethod,
    num_similarities: usize,
    weighted: Option<WeightedAverageModel>,
    forest: Option<RandomForest>,
    /// Mixing weight of the weighted-average branch in the combined model.
    combine_weight: f64,
    feature_names: Vec<String>,
}

impl PairwiseModel {
    /// Train a pairwise model.
    ///
    /// * `dataset` — full feature vectors (similarities then confidences),
    ///   targets `1.0` (match) / `0.0` or `-1.0` (non-match).
    /// * `num_similarities` — how many leading features are similarity
    ///   scores; must be at least 1 and at most the total feature count.
    pub fn train(
        dataset: &Dataset,
        num_similarities: usize,
        method: AggregationMethod,
        config: &PairwiseTrainingConfig,
    ) -> Self {
        assert!(!dataset.is_empty(), "cannot train a pairwise model on an empty dataset");
        assert!(
            (1..=dataset.num_features()).contains(&num_similarities),
            "num_similarities must be within the feature count"
        );
        let balanced = dataset.upsampled_balanced(config.upsample_seed);

        let weighted = if method != AggregationMethod::RandomForest {
            // Weighted average sees only the similarity features, with 0/1 targets.
            let mut sim_ds = Dataset::new(balanced.feature_names[..num_similarities].to_vec());
            for s in &balanced.samples {
                sim_ds.push(Sample::new(
                    s.features[..num_similarities].to_vec(),
                    if s.is_positive() { 1.0 } else { 0.0 },
                ));
            }
            Some(WeightedAverageModel::learn(&sim_ds, &config.genetic))
        } else {
            None
        };

        let forest = if method != AggregationMethod::WeightedAverage {
            // Random forest sees all features, with -1/1 targets.
            let target = |s: &Sample| if s.is_positive() { 1.0 } else { -1.0 };
            Some(RandomForest::train_with_targets(&balanced, target, &config.forest))
        } else {
            None
        };

        // Mixing weight for the combined model: learned by a tiny line search
        // over the balanced training data (the paper learns it with the same
        // weighted-average machinery; a direct search over one scalar is
        // equivalent and cheaper).
        let combine_weight = match (&weighted, &forest) {
            (Some(w), Some(f)) => {
                // Both branch scores are constant across the line search, so
                // compute them once per sample up front — the forest side in
                // parallel over the batch.
                let rows: Vec<&[f64]> =
                    balanced.samples.iter().map(|s| s.features.as_slice()).collect();
                let f_scores = f.predict_batch(&rows);
                let w_scores: Vec<f64> = balanced
                    .samples
                    .iter()
                    .map(|s| w.normalized_score(&s.features[..num_similarities]))
                    .collect();
                let mut best = (0.5, f64::MIN);
                for step in 0..=10 {
                    let alpha = step as f64 / 10.0;
                    let mut tp = 0usize;
                    let mut fp = 0usize;
                    let mut fn_ = 0usize;
                    for (k, s) in balanced.samples.iter().enumerate() {
                        let score = alpha * w_scores[k] + (1.0 - alpha) * f_scores[k];
                        let predicted = score > 0.0;
                        match (predicted, s.is_positive()) {
                            (true, true) => tp += 1,
                            (true, false) => fp += 1,
                            (false, true) => fn_ += 1,
                            _ => {}
                        }
                    }
                    let f1 = if tp == 0 {
                        0.0
                    } else {
                        let p = tp as f64 / (tp + fp) as f64;
                        let r = tp as f64 / (tp + fn_) as f64;
                        2.0 * p * r / (p + r)
                    };
                    if f1 > best.1 {
                        best = (alpha, f1);
                    }
                }
                best.0
            }
            _ => 1.0,
        };

        Self {
            method,
            num_similarities,
            weighted,
            forest,
            combine_weight,
            feature_names: dataset.feature_names.clone(),
        }
    }

    /// The aggregation method this model was trained with.
    pub fn method(&self) -> AggregationMethod {
        self.method
    }

    /// Score a feature vector; the result is in `[-1, 1]`, positive meaning
    /// the pair matches.
    pub fn score(&self, features: &[f64]) -> f64 {
        match self.method {
            AggregationMethod::WeightedAverage => self
                .weighted
                .as_ref()
                .map(|w| w.normalized_score(&features[..self.num_similarities.min(features.len())]))
                .unwrap_or(0.0),
            AggregationMethod::RandomForest => {
                self.forest.as_ref().map(|f| f.predict(features).clamp(-1.0, 1.0)).unwrap_or(0.0)
            }
            AggregationMethod::Combined => {
                let w_score = self
                    .weighted
                    .as_ref()
                    .map(|w| w.normalized_score(&features[..self.num_similarities.min(features.len())]))
                    .unwrap_or(0.0);
                let f_score =
                    self.forest.as_ref().map(|f| f.predict(features).clamp(-1.0, 1.0)).unwrap_or(0.0);
                self.combine_weight * w_score + (1.0 - self.combine_weight) * f_score
            }
        }
    }

    /// Whether the pair is classified as a match (score above zero).
    pub fn is_match(&self, features: &[f64]) -> bool {
        self.score(features) > 0.0
    }

    /// Metric importance per *similarity* feature: the average of the
    /// forest's relative importance and the weighted-average weight
    /// (whichever of the two exist for this aggregation method).
    pub fn metric_importances(&self) -> Vec<MetricImportance> {
        let n = self.num_similarities;
        let weights: Option<&[f64]> = self.weighted.as_ref().map(|w| w.weights.as_slice());
        let forest_importances: Option<Vec<f64>> = self.forest.as_ref().map(|f| {
            let all = f.feature_importances();
            // Renormalise over the similarity features only so weights and
            // importances live on the same scale.
            let slice = &all[..n.min(all.len())];
            let sum: f64 = slice.iter().sum();
            if sum > 0.0 {
                slice.iter().map(|v| v / sum).collect()
            } else {
                vec![0.0; n]
            }
        });

        (0..n)
            .map(|i| {
                let mut parts = 0usize;
                let mut total = 0.0;
                if let Some(w) = weights {
                    total += w.get(i).copied().unwrap_or(0.0);
                    parts += 1;
                }
                if let Some(fi) = &forest_importances {
                    total += fi.get(i).copied().unwrap_or(0.0);
                    parts += 1;
                }
                MetricImportance {
                    name: self.feature_names.get(i).cloned().unwrap_or_else(|| format!("f{i}")),
                    importance: if parts > 0 { total / parts as f64 } else { 0.0 },
                }
            })
            .collect()
    }

    /// The first part of this model that does not lay its features out as
    /// `names`, the first `similarities` of them similarity features, or
    /// `None` when every part does.
    pub(crate) fn layout_mismatch(&self, names: &[String], similarities: usize) -> Option<&'static str> {
        if self.num_similarities != similarities {
            Some("pairwise.num_similarities")
        } else if self.feature_names != names {
            Some("pairwise.feature_names")
        } else if self.forest.as_ref().is_some_and(|forest| forest.feature_names() != names) {
            Some("forest.feature_names")
        } else if self.weighted.as_ref().is_some_and(|weighted| weighted.feature_names != names[..similarities]) {
            Some("weighted.feature_names")
        } else {
            None
        }
    }

    /// Serialise the model into the writer. Every learned parameter (both
    /// branches, the mixing weight) is stored bit-exact, so the decoded
    /// model's [`PairwiseModel::score`] is bit-identical to the original's;
    /// feature names are references into `strings`.
    pub fn encode_into<'a>(&'a self, strings: &mut StringTableWriter<'a>, w: &mut ByteWriter) {
        w.write_u8(self.method.code());
        w.write_varint(self.num_similarities as u64);
        w.write_opt(self.weighted.as_ref(), |w, weighted| weighted.encode_into(strings, w));
        w.write_opt(self.forest.as_ref(), |w, forest| forest.encode_into(strings, w));
        w.write_f64(self.combine_weight);
        w.write_seq(&self.feature_names, |w, name| strings.write_ref(w, name));
    }

    /// Decode a model previously written by [`PairwiseModel::encode_into`].
    pub fn decode_from(r: &mut ByteReader<'_>, strings: &mut StringTable<'_>) -> Result<Self, CodecError> {
        let method_code = r.read_u8("pairwise.method")?;
        let method = AggregationMethod::from_code(method_code)
            .ok_or(CodecError::InvalidTag { what: "pairwise.method", tag: method_code })?;
        let num_similarities = r.read_varint_usize("pairwise.num_similarities")?;
        let weighted =
            r.read_opt("pairwise.weighted.some", |r| WeightedAverageModel::decode_from(r, strings))?;
        let forest = r.read_opt("pairwise.forest.some", |r| RandomForest::decode_from(r, strings))?;
        let combine_weight = r.read_f64("pairwise.combine_weight")?;
        let feature_names = r.read_seq("pairwise.feature_names", 1, |r| {
            strings.read_ref(r, "pairwise.feature_name").map(str::to_string)
        })?;
        Ok(Self { method, num_similarities, weighted, forest, combine_weight, feature_names })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Sample;

    /// Pairwise data where similarity feature 0 is decisive and feature 1 is
    /// noise; one confidence feature is appended.
    fn pair_data(n: usize) -> Dataset {
        let mut ds = Dataset::new(["label_sim", "noise_sim", "confidence"]);
        for i in 0..n {
            let x = (i % 100) as f64 / 100.0;
            let noise = ((i * 31 + 5) % 83) as f64 / 83.0;
            let conf = ((i * 17) % 10) as f64;
            let target = if x > 0.6 { 1.0 } else { 0.0 };
            ds.push(Sample::new(vec![x, noise, conf], target));
        }
        ds
    }

    fn quick_cfg() -> PairwiseTrainingConfig {
        PairwiseTrainingConfig {
            genetic: GeneticConfig { population: 20, generations: 15, seed: 5 },
            forest: RandomForestConfig { num_trees: 15, max_depth: 6, ..Default::default() },
            upsample_seed: 3,
        }
    }

    #[test]
    fn pair_features_put_similarities_before_confidences() {
        let scores = [(0.1, None), (0.2, Some(3.0)), (0.3, None), (0.4, Some(0.5))];
        assert_eq!(*PairFeatures::from_scores(scores), [0.1, 0.2, 0.3, 0.4, 3.0, 0.5]);
        assert!(PairFeatures::from_scores([]).is_empty());
        let full = PairFeatures::from_scores([(1.0, Some(2.0)); PairFeatures::MAX_METRICS]);
        assert_eq!(full.len(), PairFeatures::CAPACITY);
    }

    #[test]
    #[should_panic(expected = "at most 6 metrics")]
    fn pair_features_reject_an_oversized_metric_set() {
        PairFeatures::from_scores([(0.0, None); PairFeatures::MAX_METRICS + 1]);
    }

    #[test]
    #[should_panic(expected = "at most 6 metrics, got 7")]
    fn metric_count_is_checked_at_entry() {
        PairFeatures::assert_metric_count(PairFeatures::MAX_METRICS);
        PairFeatures::assert_metric_count(PairFeatures::MAX_METRICS + 1);
    }

    #[test]
    fn weighted_average_model_learns() {
        let ds = pair_data(200);
        let m = PairwiseModel::train(&ds, 2, AggregationMethod::WeightedAverage, &quick_cfg());
        assert!(m.score(&[0.95, 0.5, 0.0]) > 0.0);
        assert!(m.score(&[0.05, 0.5, 0.0]) < 0.0);
    }

    #[test]
    fn random_forest_model_learns() {
        let ds = pair_data(200);
        let m = PairwiseModel::train(&ds, 2, AggregationMethod::RandomForest, &quick_cfg());
        assert!(m.score(&[0.95, 0.5, 0.0]) > 0.0);
        assert!(m.score(&[0.05, 0.5, 0.0]) < 0.0);
    }

    #[test]
    fn combined_model_learns() {
        let ds = pair_data(200);
        let m = PairwiseModel::train(&ds, 2, AggregationMethod::Combined, &quick_cfg());
        assert!(m.is_match(&[0.9, 0.5, 1.0]));
        assert!(!m.is_match(&[0.1, 0.5, 1.0]));
    }

    #[test]
    fn scores_bounded() {
        let ds = pair_data(150);
        for method in AggregationMethod::ALL {
            let m = PairwiseModel::train(&ds, 2, method, &quick_cfg());
            for x in [0.0, 0.3, 0.7, 1.0] {
                let s = m.score(&[x, 0.5, 2.0]);
                assert!((-1.0..=1.0).contains(&s), "{method:?} score {s}");
            }
        }
    }

    #[test]
    fn importances_cover_similarity_features_only() {
        let ds = pair_data(200);
        let m = PairwiseModel::train(&ds, 2, AggregationMethod::Combined, &quick_cfg());
        let imps = m.metric_importances();
        assert_eq!(imps.len(), 2);
        assert_eq!(imps[0].name, "label_sim");
        assert!(imps[0].importance > imps[1].importance, "{imps:?}");
    }

    #[test]
    fn method_is_reported() {
        let ds = pair_data(100);
        let m = PairwiseModel::train(&ds, 2, AggregationMethod::RandomForest, &quick_cfg());
        assert_eq!(m.method(), AggregationMethod::RandomForest);
        assert_eq!(AggregationMethod::RandomForest.name(), "random_forest");
    }

    #[test]
    #[should_panic(expected = "num_similarities")]
    fn invalid_similarity_count_rejected() {
        let ds = pair_data(20);
        PairwiseModel::train(&ds, 9, AggregationMethod::Combined, &quick_cfg());
    }

    #[test]
    fn codec_round_trip_every_method_is_bit_identical() {
        let ds = pair_data(180);
        for method in AggregationMethod::ALL {
            let model = PairwiseModel::train(&ds, 2, method, &quick_cfg());
            let mut strings = StringTableWriter::new();
            let mut w = ByteWriter::new();
            model.encode_into(&mut strings, &mut w);
            let stream = strings.into_stream(w);
            let decoded = ltee_codec::read_stream(&stream, PairwiseModel::decode_from).unwrap();
            assert_eq!(decoded, model, "{method:?}");
            for s in &ds.samples {
                assert_eq!(
                    model.score(&s.features).to_bits(),
                    decoded.score(&s.features).to_bits(),
                    "{method:?}"
                );
            }
        }
    }

    #[test]
    fn method_codes_round_trip() {
        for method in AggregationMethod::ALL {
            assert_eq!(AggregationMethod::from_code(method.code()), Some(method));
        }
        assert_eq!(AggregationMethod::from_code(9), None);
    }

    #[test]
    fn codec_rejects_invalid_method_tag() {
        // An empty string table, then the method tag.
        assert!(matches!(
            ltee_codec::read_stream(&[0, 42], PairwiseModel::decode_from).unwrap_err(),
            CodecError::InvalidTag { what: "pairwise.method", tag: 42 }
        ));
    }
}
