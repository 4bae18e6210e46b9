//! A learned pairwise model over a set of similarity metrics.
//!
//! Both of the paper's learned pairwise models are built the same way: a
//! set of metrics, each giving a similarity and, for some, a confidence,
//! aggregated by a [`PairwiseModel`] — six row metrics for clustering
//! (Section 3.2), six entity-to-instance metrics for new detection
//! (Section 3.4). [`MetricKind`] is what a metric family supplies;
//! [`MetricModel`] is everything else, once: the feature layout and its
//! names, training, scoring, metric importances (Tables 7 and 8) and the
//! model's codec.

use crate::aggregate::{AggregationMethod, PairFeatures, PairwiseModel, PairwiseTrainingConfig};
use ltee_codec::{ByteReader, ByteWriter, CodecError, StringTable, StringTableWriter};
use crate::dataset::Dataset;

/// One family of similarity metrics.
pub trait MetricKind: Copy + Eq + std::fmt::Debug + 'static {
    /// Every metric, in the order of the paper's ablation table.
    const ALL: &'static [Self];

    /// How codec errors name a model's metric list (`"row_model.metrics"`).
    const LIST_LABEL: &'static str;

    /// How codec errors name one metric tag (`"row_model.metric"`).
    const TAG_LABEL: &'static str;

    /// Stable name, used as the metric's feature name.
    fn name(self) -> &'static str;

    /// Whether the metric gives a confidence beside its similarity.
    fn has_confidence(self) -> bool;

    /// Stable on-disk tag of the metric (model persistence).
    fn code(self) -> u8;

    /// Inverse of [`MetricKind::code`].
    fn from_code(code: u8) -> Option<Self> {
        Self::ALL.iter().copied().find(|metric| metric.code() == code)
    }
}

/// A trained similarity model: the metric set plus the aggregation model,
/// scoring pairs in `[-1, 1]`, positive meaning "same instance".
#[derive(Debug, Clone)]
pub struct MetricModel<K> {
    /// Metrics used, in feature order.
    pub metrics: Vec<K>,
    /// The learned pairwise aggregation model.
    pub model: PairwiseModel,
}

impl<K: MetricKind> MetricModel<K> {
    /// The feature vector of one pair: `score` gives each metric's
    /// (similarity, confidence), and the features are every similarity,
    /// then the confidences of the metrics that have one, both in metric
    /// order — the layout [`MetricModel::feature_names`] names.
    pub fn features(metrics: &[K], mut score: impl FnMut(K) -> (f64, f64)) -> PairFeatures {
        PairFeatures::from_scores(metrics.iter().map(|&metric| {
            let (similarity, confidence) = score(metric);
            (similarity, metric.has_confidence().then_some(confidence))
        }))
    }

    /// The feature names of [`MetricModel::features`]: each metric's name,
    /// then `<NAME>_confidence` for each metric with a confidence.
    pub fn feature_names(metrics: &[K]) -> Vec<String> {
        let confidences = metrics.iter().filter(|metric| metric.has_confidence());
        metrics
            .iter()
            .map(|metric| metric.name().to_string())
            .chain(confidences.map(|metric| format!("{}_confidence", metric.name())))
            .collect()
    }

    /// Train the aggregation of `metrics` on a pair dataset laid out by
    /// [`MetricModel::features`].
    ///
    /// Panics if `metrics` lists more than [`PairFeatures::MAX_METRICS`].
    pub fn train(
        dataset: &Dataset,
        metrics: Vec<K>,
        method: AggregationMethod,
        config: &PairwiseTrainingConfig,
    ) -> Self {
        PairFeatures::assert_metric_count(metrics.len());
        let model = PairwiseModel::train(dataset, metrics.len(), method, config);
        Self { metrics, model }
    }

    /// Score a pair's features.
    pub fn score(&self, features: &PairFeatures) -> f64 {
        self.model.score(features)
    }

    /// Importance of every metric in the aggregated model (Tables 7 and 8,
    /// MI column).
    pub fn metric_importances(&self) -> Vec<(K, f64)> {
        let importances = self.model.metric_importances();
        self.metrics.iter().zip(importances).map(|(&metric, mi)| (metric, mi.importance)).collect()
    }

    /// Serialise the model (metric codes, then the aggregation model) into
    /// the writer, its feature names as references into `strings`.
    pub fn encode_into<'a>(&'a self, strings: &mut StringTableWriter<'a>, w: &mut ByteWriter) {
        w.write_seq(&self.metrics, |w, metric| w.write_u8(metric.code()));
        self.model.encode_into(strings, w);
    }

    /// Decode a model previously written by [`MetricModel::encode_into`].
    ///
    /// The aggregation model must lay its features out as the metric list
    /// does: scoring reads a feature the model lacks as zero, so a model
    /// whose layout disagrees would decode and then score every pair
    /// wrongly. It is refused as [`CodecError::MetricLayout`].
    pub fn decode_from(r: &mut ByteReader<'_>, strings: &mut StringTable<'_>) -> Result<Self, CodecError> {
        let metrics = r.read_seq(K::LIST_LABEL, 1, |r| {
            let tag = r.read_u8(K::TAG_LABEL)?;
            K::from_code(tag).ok_or(CodecError::InvalidTag { what: K::TAG_LABEL, tag })
        })?;
        // Scoring lays a metric set's features out inline.
        if metrics.len() > PairFeatures::MAX_METRICS {
            return Err(CodecError::LengthOverflow { what: K::LIST_LABEL, declared: metrics.len() });
        }
        let model = PairwiseModel::decode_from(r, strings)?;
        if let Some(part) = model.layout_mismatch(&Self::feature_names(&metrics), metrics.len()) {
            return Err(CodecError::MetricLayout { what: K::LIST_LABEL, part });
        }
        Ok(Self { metrics, model })
    }
}
