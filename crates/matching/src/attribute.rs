//! Attribute-to-property matching: candidate selection, matcher aggregation,
//! thresholding and weight learning.
//!
//! "We first select candidate properties from the knowledge base schema
//! based on data types. … Secondly, we use various matchers … Scores of
//! multiple matchers are then aggregated based on a weighted average, where
//! weights are learned for each class individually. We then utilize
//! thresholds on the aggregated scores … An attribute is matched to a
//! property if it is both, a property that achieves a score above the
//! property-specific threshold, and the property with the highest aggregated
//! score." (Section 3.1)

use std::collections::HashMap;

use ltee_kb::{schema_property_name, ClassKey, KnowledgeBase, Property};
use ltee_codec::{ByteReader, ByteWriter, CodecError, StringTable, StringTableWriter};
use ltee_ml::{f1_from_counts, Dataset, GeneticConfig, Sample, WeightedAverageModel};
use ltee_types::DetectedType;
use ltee_webtables::{Corpus, GoldStandard, WebTable};
use rayon::prelude::*;

use crate::mapping::{AttributeMatch, CorpusFeedback};
use crate::matchers::{self, HeaderStatistics, MatcherKind};

/// Configuration of the attribute-to-property matcher.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeMatcherConfig {
    /// Default threshold used for properties without a learned threshold.
    pub default_threshold: f64,
}

impl Default for AttributeMatcherConfig {
    fn default() -> Self {
        Self { default_threshold: 0.30 }
    }
}

/// Learned matcher weights (per class) and per-property thresholds.
#[derive(Debug, Clone, PartialEq)]
pub struct MatcherWeights {
    /// Per-class weights over [`MatcherKind::ALL`] in order.
    pub class_weights: HashMap<ClassKey, Vec<f64>>,
    /// Per-property decision thresholds, by class and property.
    pub property_thresholds: HashMap<ClassKey, HashMap<&'static str, f64>>,
}

ltee_intern::heap_size!(MatcherWeights { class_weights, property_thresholds });

impl Default for MatcherWeights {
    fn default() -> Self {
        // Sensible priors mirroring the averaged weights the paper reports
        // in Section 3.1 (label-based 0.46, duplicate-based 0.43,
        // KB-Overlap 0.10).
        let default = vec![0.10, 0.21, 0.25, 0.25, 0.19];
        let class_weights =
            ltee_kb::CLASS_KEYS.iter().map(|&c| (c, default.clone())).collect();
        Self { class_weights, property_thresholds: HashMap::new() }
    }
}

impl MatcherWeights {
    /// The weights for a class (falling back to uniform weights).
    pub fn weights_for(&self, class: ClassKey) -> &[f64] {
        const UNIFORM: [f64; MatcherKind::ALL.len()] =
            [1.0 / MatcherKind::ALL.len() as f64; MatcherKind::ALL.len()];
        self.class_weights.get(&class).map_or(&UNIFORM, Vec::as_slice)
    }

    /// The threshold for a property, falling back to `default`.
    pub fn threshold_for(&self, class: ClassKey, property: &str, default: f64) -> f64 {
        self.property_thresholds.get(&class).and_then(|t| t.get(property)).copied().unwrap_or(default)
    }

    /// Serialise the learned weights and thresholds into the writer, each
    /// property name as a reference into `strings`.
    ///
    /// Hash maps are written in a canonical order (classes by
    /// [`ClassKey::code`], thresholds by `(class code, property name)`), so
    /// the encoding of a given model is byte-stable across runs.
    pub fn encode_into<'a>(&'a self, strings: &mut StringTableWriter<'a>, w: &mut ByteWriter) {
        let mut classes: Vec<(&ClassKey, &Vec<f64>)> = self.class_weights.iter().collect();
        classes.sort_by_key(|(c, _)| c.code());
        w.write_seq(&classes, |w, (class, weights)| {
            w.write_u8(class.code());
            w.write_seq(*weights, |w, &v| w.write_f64(v));
        });
        let mut thresholds: Vec<(u8, &str, f64)> = self
            .property_thresholds
            .iter()
            .flat_map(|(class, of_class)| of_class.iter().map(|(&p, &t)| (class.code(), p, t)))
            .collect();
        thresholds.sort_by_key(|&(class, property, _)| (class, property));
        w.write_seq(&thresholds, |w, &(class, property, threshold)| {
            w.write_u8(class);
            strings.write_ref(w, property);
            w.write_f64(threshold);
        });
    }

    /// Decode weights previously written by [`MatcherWeights::encode_into`].
    pub fn decode_from(r: &mut ByteReader<'_>, strings: &mut StringTable<'_>) -> Result<Self, CodecError> {
        fn class(r: &mut ByteReader<'_>, what: &'static str) -> Result<ClassKey, CodecError> {
            let tag = r.read_u8(what)?;
            ClassKey::from_code(tag).ok_or(CodecError::InvalidTag { what, tag })
        }
        let class_weights = r.read_seq("matcher.class_weights", 2, |r| {
            let class = class(r, "matcher.class")?;
            let weights = r.read_seq("matcher.weights", 8, |r| r.read_f64("matcher.weight"))?;
            Ok::<_, CodecError>((class, weights))
        })?;
        let thresholds = r.read_seq("matcher.thresholds", 10, |r| {
            let class = class(r, "matcher.threshold.class")?;
            let name = strings.read_ref(r, "matcher.threshold.property")?;
            Ok::<_, CodecError>((class, name, r.read_f64("matcher.threshold.value")?))
        })?;
        let mut property_thresholds: HashMap<ClassKey, HashMap<&'static str, f64>> = HashMap::new();
        for (class, name, threshold) in thresholds {
            let property = schema_property_name(class, name).ok_or_else(|| {
                CodecError::Corrupted(format!("matcher threshold for unknown {class} property {name:?}"))
            })?;
            property_thresholds.entry(class).or_default().insert(property, threshold);
        }
        Ok(Self { class_weights: class_weights.into_iter().collect(), property_thresholds })
    }
}

/// Compute the five matcher scores of a (column, property) pair.
///
/// Matchers that require feedback return 0.0 when no feedback is available
/// (the first pipeline iteration), matching the paper's setup where "the
/// duplicate-based methods are not included in the first iteration".
pub fn matcher_scores(
    table: &WebTable,
    column: usize,
    property: &Property,
    kb: &KnowledgeBase,
    corpus: Option<&Corpus>,
    feedback: Option<&CorpusFeedback>,
    header_stats: Option<&HeaderStatistics>,
) -> [f64; 5] {
    let kb_overlap = matchers::kb_overlap(table, column, property, kb);
    let kb_label = matchers::kb_label(table, column, property);
    let kb_duplicate = feedback
        .map(|fb| matchers::kb_duplicate(table, column, property, kb, fb))
        .unwrap_or(0.0);
    let wt_label = header_stats
        .map(|hs| matchers::wt_label(table, column, property, hs))
        .unwrap_or(0.0);
    let wt_duplicate = match (corpus, feedback) {
        (Some(corpus), Some(fb)) => matchers::wt_duplicate(table, column, property, corpus, fb),
        _ => 0.0,
    };
    [kb_overlap, kb_label, kb_duplicate, wt_label, wt_duplicate]
}

/// Match the attribute columns of a table to knowledge base properties.
///
/// Returns one optional [`AttributeMatch`] per column (None for the label
/// column, noise columns and columns below their property threshold).
#[allow(clippy::too_many_arguments)]
pub fn match_attributes(
    table: &WebTable,
    label_column: usize,
    detected: &[DetectedType],
    class: ClassKey,
    kb: &KnowledgeBase,
    corpus: Option<&Corpus>,
    weights: &MatcherWeights,
    config: &AttributeMatcherConfig,
    feedback: Option<&CorpusFeedback>,
    header_stats: Option<&HeaderStatistics>,
) -> Vec<Option<AttributeMatch>> {
    let class_weights = weights.weights_for(class);
    // Only matchers that can actually produce a signal participate in the
    // weighted average: "the duplicate-based methods are not included in the
    // first iteration, as they require output from the other pipeline
    // components" (Section 3.1).
    let available: Vec<bool> = MatcherKind::ALL
        .iter()
        .map(|m| match m {
            MatcherKind::KbOverlap | MatcherKind::KbLabel => true,
            MatcherKind::KbDuplicate => feedback.is_some(),
            MatcherKind::WtLabel => header_stats.is_some(),
            MatcherKind::WtDuplicate => feedback.is_some() && corpus.is_some(),
        })
        .collect();
    let weight_norm: f64 = class_weights
        .iter()
        .zip(available.iter())
        .filter(|(_, a)| **a)
        .map(|(w, _)| *w)
        .sum::<f64>()
        .max(1e-9);
    let properties = kb.class_property_slice(class);
    let mut result: Vec<Option<AttributeMatch>> = vec![None; table.num_columns()];

    for (column, &dtype) in detected.iter().enumerate() {
        if column == label_column {
            continue;
        }
        // Candidate property selection by data type.
        let candidates =
            properties.iter().filter(|p| dtype.candidate_property_types().contains(&p.data_type));
        let mut best: Option<(f64, &Property)> = None;
        for prop in candidates {
            let scores = matcher_scores(table, column, prop, kb, corpus, feedback, header_stats);
            let aggregated: f64 = scores
                .iter()
                .zip(class_weights.iter())
                .zip(available.iter())
                .filter(|(_, a)| **a)
                .map(|((s, w), _)| s * w)
                .sum::<f64>()
                / weight_norm;
            if best.map(|(s, _)| aggregated > s).unwrap_or(true) {
                best = Some((aggregated, prop));
            }
        }
        if let Some((score, prop)) = best {
            if score >= weights.threshold_for(class, prop.name, config.default_threshold) {
                result[column] = Some(AttributeMatch { property: prop.name, data_type: prop.data_type, score });
            }
        }
    }
    result
}

/// The genetic search behind the learned matcher weights. The paper learns
/// them once, under one setting; this is that setting.
pub const MATCHER_GENETIC: GeneticConfig = GeneticConfig { population: 20, generations: 15, seed: 101 };

/// Learn per-class matcher weights and per-property thresholds from gold
/// standard attribute annotations.
///
/// Every (column, candidate property) pair of the gold tables becomes a
/// training sample whose target is whether the gold standard annotates that
/// correspondence; weights are learned with the genetic algorithm
/// ([`MATCHER_GENETIC`], maximising F1), thresholds per property by a grid
/// search over the aggregated scores.
pub fn learn_weights(
    corpus: &Corpus,
    kb: &KnowledgeBase,
    golds: &[&GoldStandard],
    feedback: Option<&CorpusFeedback>,
) -> MatcherWeights {
    let header_stats = feedback.map(|fb| HeaderStatistics::build(corpus, fb));
    // Classes learn independently, on the pool; their results are folded
    // in gold order, so a class given twice ends as it did sequentially.
    let learned: Vec<ClassLearning> = golds
        .par_iter()
        .map(|gold| learn_class(corpus, kb, gold, feedback, header_stats.as_ref()))
        .collect();
    let mut weights = MatcherWeights { class_weights: HashMap::new(), property_thresholds: HashMap::new() };
    for (class, class_weights, thresholds) in learned {
        for (property, threshold) in thresholds {
            weights.property_thresholds.entry(class).or_default().insert(property, threshold);
        }
        weights.class_weights.insert(class, class_weights);
    }
    weights
}

/// A class's matcher weights and its per-property thresholds.
type ClassLearning = (ClassKey, Vec<f64>, Vec<(&'static str, f64)>);

/// One gold standard's class weights and per-property thresholds (none
/// when its tables hold no positive or no negative pair, in which case the
/// weights are the defaults).
fn learn_class(
    corpus: &Corpus,
    kb: &KnowledgeBase,
    gold: &GoldStandard,
    feedback: Option<&CorpusFeedback>,
    header_stats: Option<&HeaderStatistics>,
) -> ClassLearning {
    let class = gold.class;
    let properties = kb.class_property_slice(class);
    // Gold correspondences keyed by (table, column).
    let gold_map: HashMap<(ltee_webtables::TableId, usize), &str> =
        gold.attributes.iter().map(|a| ((a.table, a.column), a.property)).collect();

    let feature_names: Vec<String> = MatcherKind::ALL.iter().map(|m| m.name().to_string()).collect();
    let mut dataset = Dataset::new(feature_names);
    // Remember (scores, property, is_gold) to derive thresholds later.
    let mut scored_pairs: Vec<([f64; 5], &str, bool)> = Vec::new();

    // Tables are scored on the pool and their pairs appended in table
    // order, so the dataset is the same at every thread count.
    let per_table: Vec<Vec<([f64; 5], &str, bool)>> = gold
        .tables
        .par_iter()
        .map(|&table_id| {
            let mut pairs = Vec::new();
            let Some(table) = corpus.table(table_id) else { return pairs };
            let detected = crate::label_attr::detect_column_types(table);
            let label_column = crate::label_attr::detect_label_attribute(table, &detected);
            for (column, &dtype) in detected.iter().enumerate() {
                if column == label_column {
                    continue;
                }
                for prop in properties {
                    if !dtype.candidate_property_types().contains(&prop.data_type) {
                        continue;
                    }
                    let scores = matcher_scores(table, column, prop, kb, Some(corpus), feedback, header_stats);
                    let is_gold = gold_map.get(&(table_id, column)) == Some(&prop.name);
                    pairs.push((scores, prop.name, is_gold));
                }
            }
            pairs
        })
        .collect();
    for (scores, prop, is_gold) in per_table.into_iter().flatten() {
        dataset.push(Sample::new(scores.to_vec(), if is_gold { 1.0 } else { 0.0 }));
        scored_pairs.push((scores, prop, is_gold));
    }

    if dataset.positives() == 0 || dataset.negatives() == 0 {
        return (class, MatcherWeights::default().weights_for(class).to_vec(), Vec::new());
    }

    let balanced = dataset.upsampled_balanced(MATCHER_GENETIC.seed);
    let model = WeightedAverageModel::learn(&balanced, &MATCHER_GENETIC);
    let class_weights = model.weights.clone();

    // Per-property threshold: grid search maximising F1 of "aggregated
    // score >= threshold" per property.
    let mut per_property: HashMap<&str, Vec<(f64, bool)>> = HashMap::new();
    for (scores, prop, is_gold) in &scored_pairs {
        let agg: f64 = scores.iter().zip(class_weights.iter()).map(|(s, w)| s * w).sum::<f64>()
            / class_weights.iter().sum::<f64>().max(1e-9);
        per_property.entry(prop).or_default().push((agg, *is_gold));
    }
    let mut thresholds = Vec::new();
    for (prop, pairs) in per_property {
        let positives = pairs.iter().filter(|(_, g)| *g).count();
        if positives == 0 {
            continue;
        }
        let mut best = (0.30, f64::MIN);
        for step in 1..=18 {
            let threshold = step as f64 * 0.05;
            let tp = pairs.iter().filter(|(s, g)| *g && *s >= threshold).count();
            let fp = pairs.iter().filter(|(s, g)| !*g && *s >= threshold).count();
            let fn_ = positives - tp;
            if tp == 0 {
                continue;
            }
            let f1 = f1_from_counts(tp, fp, fn_);
            if f1 > best.1 {
                best = (threshold, f1);
            }
        }
        thresholds.push((prop, best.0));
    }
    (class, class_weights, thresholds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_weights_cover_all_classes_and_sum_to_one() {
        let w = MatcherWeights::default();
        for class in ltee_kb::CLASS_KEYS {
            let cw = w.weights_for(class);
            assert_eq!(cw.len(), 5);
            assert!((cw.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn threshold_falls_back_to_default() {
        let mut w = MatcherWeights::default();
        assert_eq!(w.threshold_for(ClassKey::Song, "genre", 0.3), 0.3);
        w.property_thresholds.entry(ClassKey::Song).or_default().insert("genre", 0.55);
        assert_eq!(w.threshold_for(ClassKey::Song, "genre", 0.3), 0.55);
        assert_eq!(w.threshold_for(ClassKey::Settlement, "genre", 0.3), 0.3);
    }

    #[test]
    fn weights_for_unknown_class_uniform() {
        let w = MatcherWeights { class_weights: HashMap::new(), property_thresholds: HashMap::new() };
        let cw = w.weights_for(ClassKey::Song);
        assert!(cw.iter().all(|v| (*v - 0.2).abs() < 1e-12));
    }

    #[test]
    fn codec_round_trip_is_exact_and_byte_stable() {
        let mut w = MatcherWeights::default();
        w.property_thresholds.entry(ClassKey::Song).or_default().insert("genre", 0.55);
        w.property_thresholds.entry(ClassKey::Settlement).or_default().insert("country", 0.40);
        w.property_thresholds.entry(ClassKey::Song).or_default().insert("album", 0.35);

        let stream = |weights: &MatcherWeights| {
            let mut strings = StringTableWriter::new();
            let mut writer = ByteWriter::new();
            weights.encode_into(&mut strings, &mut writer);
            strings.into_stream(writer)
        };
        let bytes = stream(&w);
        let decoded = ltee_codec::read_stream(&bytes, MatcherWeights::decode_from).unwrap();
        assert_eq!(decoded, w);

        // Encoding a HashMap-backed struct twice must produce identical
        // bytes (canonical ordering).
        assert_eq!(stream(&decoded), bytes);
    }
}
