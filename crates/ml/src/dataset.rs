//! Training data containers: feature vectors, targets and balanced
//! upsampling.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A single training sample: a feature vector and a regression target.
///
/// For pairwise matching tasks the target is `1.0` for a matching pair and
/// `-1.0` (random forest) or `0.0` (weighted average / F1 learning) for a
/// non-matching pair; the dataset does not interpret it.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Feature values, one per metric / matcher (missing features as 0.0).
    pub features: Vec<f64>,
    /// Regression target.
    pub target: f64,
}

impl Sample {
    /// Create a sample.
    pub fn new(features: Vec<f64>, target: f64) -> Self {
        Self { features, target }
    }

    /// Whether this sample represents a positive (matching) pair.
    pub fn is_positive(&self) -> bool {
        self.target > 0.0
    }
}

/// A collection of samples with named features.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dataset {
    /// Feature names, parallel to every sample's feature vector.
    pub feature_names: Vec<String>,
    /// The samples.
    pub samples: Vec<Sample>,
}

impl Dataset {
    /// Create an empty dataset with the given feature names.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(feature_names: I) -> Self {
        Self { feature_names: feature_names.into_iter().map(Into::into).collect(), samples: Vec::new() }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Number of features.
    pub fn num_features(&self) -> usize {
        self.feature_names.len()
    }

    /// Add a sample. Panics if the feature count does not match the dataset,
    /// which would silently corrupt every model trained on it.
    pub fn push(&mut self, sample: Sample) {
        assert_eq!(
            sample.features.len(),
            self.feature_names.len(),
            "sample feature count must match dataset feature names"
        );
        self.samples.push(sample);
    }

    /// Count of positive (matching) samples.
    pub fn positives(&self) -> usize {
        self.samples.iter().filter(|s| s.is_positive()).count()
    }

    /// Count of negative samples.
    pub fn negatives(&self) -> usize {
        self.len() - self.positives()
    }

    /// Balance positives and negatives by upsampling the minority class
    /// ("In all cases we upsample to balance the number of matching and
    /// non-matching row pairs", Section 3.2). Deterministic given the seed.
    pub fn upsampled_balanced(&self, seed: u64) -> Dataset {
        let positives: Vec<&Sample> = self.samples.iter().filter(|s| s.is_positive()).collect();
        let negatives: Vec<&Sample> = self.samples.iter().filter(|s| !s.is_positive()).collect();
        if positives.is_empty() || negatives.is_empty() {
            return self.clone();
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut samples: Vec<Sample> = self.samples.clone();
        let (minority, target_len) = if positives.len() < negatives.len() {
            (&positives, negatives.len())
        } else {
            (&negatives, positives.len())
        };
        // `choose` returns `None` only on an empty slice, ruled out above.
        for _ in minority.len()..target_len {
            let Some(pick) = minority.choose(&mut rng) else { break };
            samples.push((*pick).clone());
        }
        Dataset { feature_names: self.feature_names.clone(), samples }
    }

    /// Build a new dataset containing only the samples at `indices`.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset {
            feature_names: self.feature_names.clone(),
            samples: indices.iter().map(|&i| self.samples[i].clone()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn toy() -> Dataset {
        let mut ds = Dataset::new(["a", "b"]);
        ds.push(Sample::new(vec![1.0, 0.0], 1.0));
        ds.push(Sample::new(vec![0.9, 0.1], 1.0));
        ds.push(Sample::new(vec![0.1, 0.9], 0.0));
        ds.push(Sample::new(vec![0.2, 0.8], 0.0));
        ds.push(Sample::new(vec![0.0, 1.0], 0.0));
        ds
    }

    #[test]
    fn counts_positive_and_negative() {
        let ds = toy();
        assert_eq!(ds.positives(), 2);
        assert_eq!(ds.negatives(), 3);
    }

    #[test]
    #[should_panic(expected = "feature count")]
    fn push_rejects_wrong_arity() {
        let mut ds = Dataset::new(["a", "b"]);
        ds.push(Sample::new(vec![1.0], 1.0));
    }

    #[test]
    fn upsampling_balances_classes() {
        let balanced = toy().upsampled_balanced(7);
        assert_eq!(balanced.positives(), balanced.negatives());
        assert_eq!(balanced.positives(), 3);
    }

    #[test]
    fn upsampling_is_deterministic() {
        let a = toy().upsampled_balanced(7);
        let b = toy().upsampled_balanced(7);
        assert_eq!(a, b);
    }

    #[test]
    fn upsampling_noop_when_single_class() {
        let mut ds = Dataset::new(["a"]);
        ds.push(Sample::new(vec![1.0], 1.0));
        ds.push(Sample::new(vec![0.5], 1.0));
        let up = ds.upsampled_balanced(1);
        assert_eq!(up.len(), 2);
    }

    #[test]
    fn subset_selects_requested_rows() {
        let ds = toy();
        let sub = ds.subset(&[0, 2]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.samples[1].features, vec![0.1, 0.9]);
    }

    proptest! {
        #[test]
        fn upsampling_never_removes_samples(seed in 0u64..100) {
            let ds = toy();
            let up = ds.upsampled_balanced(seed);
            prop_assert!(up.len() >= ds.len());
            // Original samples are all still present (prefix preserved).
            for (orig, kept) in ds.samples.iter().zip(up.samples.iter()) {
                prop_assert_eq!(orig, kept);
            }
        }
    }
}
