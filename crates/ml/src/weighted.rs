//! Weighted-average aggregation model with a learned decision threshold.
//!
//! The first aggregation approach of Sections 3.2 and 3.4: "a weighted
//! average, where the weights assigned to each metric are learned … We also
//! learn a threshold, where scores above the threshold indicate that the
//! rows describe the same instance. This threshold is used to normalize the
//! similarity metric to −1.0 and 1.0."

use ltee_codec::{ByteReader, ByteWriter, CodecError, StringTable, StringTableWriter};
use crate::dataset::Dataset;
use crate::genetic::{GeneticConfig, GeneticOptimizer};

/// A weighted average over feature scores with a decision threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedAverageModel {
    /// Per-feature weights; non-negative, normalised to sum to 1.
    pub weights: Vec<f64>,
    /// Decision threshold on the weighted average in `[0, 1]`.
    pub threshold: f64,
    /// Names of the features, parallel to `weights`.
    pub feature_names: Vec<String>,
}

ltee_intern::heap_size!(WeightedAverageModel { weights, feature_names });

impl WeightedAverageModel {
    /// Create a model with uniform weights and a 0.5 threshold.
    pub fn uniform(feature_names: Vec<String>) -> Self {
        let n = feature_names.len().max(1);
        Self { weights: vec![1.0 / n as f64; feature_names.len()], threshold: 0.5, feature_names }
    }

    /// Create a model from explicit weights (normalised) and threshold.
    pub fn from_weights(feature_names: Vec<String>, weights: Vec<f64>, threshold: f64) -> Self {
        assert_eq!(feature_names.len(), weights.len(), "weights must match feature names");
        let mut model = Self { weights, threshold, feature_names };
        model.normalize_weights();
        model
    }

    fn normalize_weights(&mut self) {
        let sum: f64 = self.weights.iter().map(|w| w.max(0.0)).sum();
        if sum > 0.0 {
            for w in &mut self.weights {
                *w = w.max(0.0) / sum;
            }
        } else if !self.weights.is_empty() {
            let n = self.weights.len() as f64;
            for w in &mut self.weights {
                *w = 1.0 / n;
            }
        }
    }

    /// Raw weighted average of the feature scores, in the same scale as the
    /// inputs (typically `[0, 1]`).
    pub fn score(&self, features: &[f64]) -> f64 {
        self.weights
            .iter()
            .enumerate()
            .map(|(i, w)| w * features.get(i).copied().unwrap_or(0.0))
            .sum()
    }

    /// Score normalised around the learned threshold to `[-1, 1]`:
    /// positive means "match". This is the form consumed by the correlation
    /// clustering fitness function.
    pub fn normalized_score(&self, features: &[f64]) -> f64 {
        let raw = self.score(features);
        if raw >= self.threshold {
            if self.threshold >= 1.0 {
                0.0
            } else {
                (raw - self.threshold) / (1.0 - self.threshold)
            }
        } else if self.threshold <= 0.0 {
            0.0
        } else {
            (raw - self.threshold) / self.threshold
        }
        .clamp(-1.0, 1.0)
    }

    /// Whether the feature vector is classified as a match.
    pub fn is_match(&self, features: &[f64]) -> bool {
        self.score(features) >= self.threshold
    }

    /// Learn weights and threshold with the genetic algorithm, maximising F1
    /// of the match decision on the (already upsampled) training set.
    pub fn learn(dataset: &Dataset, config: &GeneticConfig) -> Self {
        assert!(!dataset.is_empty(), "cannot learn a weighted average from an empty dataset");
        let num_features = dataset.num_features();
        // Genome: one weight per feature in [0,1] plus the threshold in [0.05, 0.95].
        let mut bounds = vec![(0.0, 1.0); num_features];
        bounds.push((0.05, 0.95));
        let optimizer = GeneticOptimizer::new(bounds, config.clone());

        let (genome, _) = optimizer.optimize(|genes| {
            let model = WeightedAverageModel::from_weights(
                dataset.feature_names.clone(),
                genes[..num_features].to_vec(),
                genes[num_features],
            );
            f1_of_model(&model, dataset)
        });

        WeightedAverageModel::from_weights(
            dataset.feature_names.clone(),
            genome[..num_features].to_vec(),
            genome[num_features],
        )
    }

    /// Serialise the model into the writer (bit-exact weights/threshold),
    /// its feature names as references into `strings`.
    pub fn encode_into<'a>(&'a self, strings: &mut StringTableWriter<'a>, w: &mut ByteWriter) {
        w.write_seq(&self.weights, |w, &v| w.write_f64(v));
        w.write_f64(self.threshold);
        w.write_seq(&self.feature_names, |w, name| strings.write_ref(w, name));
    }

    /// Decode a model previously written by
    /// [`WeightedAverageModel::encode_into`]. The stored weights are taken
    /// verbatim (no re-normalisation) so scores are bit-identical.
    pub fn decode_from(r: &mut ByteReader<'_>, strings: &mut StringTable<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            weights: r.read_seq("weighted.weights", 8, |r| r.read_f64("weighted.weight"))?,
            threshold: r.read_f64("weighted.threshold")?,
            feature_names: r.read_seq("weighted.feature_names", 1, |r| {
                strings.read_ref(r, "weighted.feature_name").map(str::to_string)
            })?,
        })
    }
}

/// F1 score of a model's match decision against the dataset's targets
/// (target > 0 means the pair is a true match).
pub fn f1_of_model(model: &WeightedAverageModel, dataset: &Dataset) -> f64 {
    let mut tp = 0usize;
    let mut fp = 0usize;
    let mut fn_ = 0usize;
    for s in &dataset.samples {
        let predicted = model.is_match(&s.features);
        let actual = s.is_positive();
        match (predicted, actual) {
            (true, true) => tp += 1,
            (true, false) => fp += 1,
            (false, true) => fn_ += 1,
            (false, false) => {}
        }
    }
    f1_from_counts(tp, fp, fn_)
}

/// F1, `2pr / (p + r)`, of true positives `tp`, false positives `fp` and
/// false negatives `fn_`; `0.0` when there is no true positive.
pub fn f1_from_counts(tp: usize, fp: usize, fn_: usize) -> f64 {
    if tp == 0 {
        return 0.0;
    }
    let precision = tp as f64 / (tp + fp) as f64;
    let recall = tp as f64 / (tp + fn_) as f64;
    2.0 * precision * recall / (precision + recall)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Sample;
    use proptest::prelude::*;

    fn training_data() -> Dataset {
        // Feature 0 is informative, feature 1 is anti-correlated noise.
        let mut ds = Dataset::new(["label_sim", "noise"]);
        for i in 0..60 {
            let x = i as f64 / 60.0;
            let noise = 1.0 - x + ((i % 7) as f64) * 0.01;
            let target = if x > 0.55 { 1.0 } else { 0.0 };
            ds.push(Sample::new(vec![x, noise.clamp(0.0, 1.0)], target));
        }
        ds
    }

    #[test]
    fn uniform_model_averages() {
        let m = WeightedAverageModel::uniform(vec!["a".into(), "b".into()]);
        assert!((m.score(&[1.0, 0.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn weights_are_normalised() {
        let m = WeightedAverageModel::from_weights(vec!["a".into(), "b".into()], vec![2.0, 6.0], 0.5);
        assert!((m.weights[0] - 0.25).abs() < 1e-12);
        assert!((m.weights[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn negative_weights_are_clipped() {
        let m = WeightedAverageModel::from_weights(vec!["a".into(), "b".into()], vec![-1.0, 1.0], 0.5);
        assert_eq!(m.weights[0], 0.0);
        assert_eq!(m.weights[1], 1.0);
    }

    #[test]
    fn all_zero_weights_fall_back_to_uniform() {
        let m = WeightedAverageModel::from_weights(vec!["a".into(), "b".into()], vec![0.0, 0.0], 0.5);
        assert!((m.weights[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn normalized_score_signs_follow_threshold() {
        let m = WeightedAverageModel::from_weights(vec!["a".into()], vec![1.0], 0.6);
        assert!(m.normalized_score(&[0.9]) > 0.0);
        assert!(m.normalized_score(&[0.2]) < 0.0);
        assert!((m.normalized_score(&[0.6]) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn normalized_score_is_bounded() {
        let m = WeightedAverageModel::from_weights(vec!["a".into()], vec![1.0], 0.4);
        assert!(m.normalized_score(&[1.0]) <= 1.0);
        assert!(m.normalized_score(&[0.0]) >= -1.0);
    }

    #[test]
    fn learning_recovers_the_informative_feature() {
        let ds = training_data().upsampled_balanced(3);
        let cfg = GeneticConfig { population: 30, generations: 25, seed: 9 };
        let model = WeightedAverageModel::learn(&ds, &cfg);
        assert!(
            model.weights[0] > model.weights[1],
            "informative weight {} should exceed noise weight {}",
            model.weights[0],
            model.weights[1]
        );
        assert!(f1_of_model(&model, &ds) > 0.85, "f1 {}", f1_of_model(&model, &ds));
    }

    #[test]
    fn f1_is_zero_when_nothing_predicted_positive() {
        let m = WeightedAverageModel::from_weights(vec!["a".into()], vec![1.0], 0.95);
        let mut ds = Dataset::new(["a"]);
        ds.push(Sample::new(vec![0.1], 1.0));
        assert_eq!(f1_of_model(&m, &ds), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn learning_from_empty_dataset_panics() {
        let ds = Dataset::new(["a"]);
        WeightedAverageModel::learn(&ds, &GeneticConfig::default());
    }

    proptest! {
        #[test]
        fn score_is_convex_combination(f0 in 0.0f64..1.0, f1 in 0.0f64..1.0, w0 in 0.0f64..1.0, w1 in 0.01f64..1.0) {
            let m = WeightedAverageModel::from_weights(vec!["a".into(), "b".into()], vec![w0, w1], 0.5);
            let s = m.score(&[f0, f1]);
            prop_assert!((-1e-12..=1.0 + 1e-12).contains(&s));
            prop_assert!(s >= f0.min(f1) - 1e-9 && s <= f0.max(f1) + 1e-9);
        }

        #[test]
        fn normalized_score_in_range(f in 0.0f64..1.0, t in 0.05f64..0.95) {
            let m = WeightedAverageModel::from_weights(vec!["a".into()], vec![1.0], t);
            let s = m.normalized_score(&[f]);
            prop_assert!((-1.0..=1.0).contains(&s));
        }
    }
}
