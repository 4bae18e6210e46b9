//! Row similarity metrics and their aggregation into a single pairwise
//! score.

use std::collections::HashMap;

use ltee_intern::Interner;
use ltee_ml::PairwiseModel;
use ltee_text::{cosine_similarity, monge_elkan_tokens};
use ltee_types::{value_similarity, Value};
use ltee_webtables::{Corpus, TableId};

use crate::context::{ImplicitAttributes, RowContext};

/// The six row similarity metrics of paper Section 3.2, in feature order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowMetricKind {
    /// Monge-Elkan similarity of the row labels.
    Label,
    /// Cosine similarity of the rows' bag-of-words vectors.
    Bow,
    /// Cosine similarity of the rows' tables in PHI-correlation space.
    Phi,
    /// Data-type-specific equality of overlapping schema-mapped values
    /// (with a confidence equal to the number of compared pairs).
    Attribute,
    /// Agreement between one row's implicit table attributes and the other
    /// row's implicit and explicit attributes.
    ImplicitAtt,
    /// 0.0 for rows of the same table (they describe different entities),
    /// 1.0 otherwise.
    SameTable,
}

impl RowMetricKind {
    /// All metrics in the order used by the Table 7 ablation.
    pub const ALL: [RowMetricKind; 6] = [
        RowMetricKind::Label,
        RowMetricKind::Bow,
        RowMetricKind::Phi,
        RowMetricKind::Attribute,
        RowMetricKind::ImplicitAtt,
        RowMetricKind::SameTable,
    ];

    /// Stable name used as a feature name.
    pub fn name(self) -> &'static str {
        match self {
            RowMetricKind::Label => "LABEL",
            RowMetricKind::Bow => "BOW",
            RowMetricKind::Phi => "PHI",
            RowMetricKind::Attribute => "ATTRIBUTE",
            RowMetricKind::ImplicitAtt => "IMPLICIT_ATT",
            RowMetricKind::SameTable => "SAME_TABLE",
        }
    }

    /// Whether the metric produces a meaningful confidence score in addition
    /// to its similarity.
    pub fn has_confidence(self) -> bool {
        matches!(self, RowMetricKind::Attribute | RowMetricKind::ImplicitAtt)
    }

    /// Stable on-disk tag of this metric (model persistence).
    pub fn code(self) -> u8 {
        match self {
            RowMetricKind::Label => 0,
            RowMetricKind::Bow => 1,
            RowMetricKind::Phi => 2,
            RowMetricKind::Attribute => 3,
            RowMetricKind::ImplicitAtt => 4,
            RowMetricKind::SameTable => 5,
        }
    }

    /// Inverse of [`RowMetricKind::code`].
    pub fn from_code(code: u8) -> Option<Self> {
        RowMetricKind::ALL.into_iter().find(|m| m.code() == code)
    }
}

/// Table-level PHI correlation vectors (paper Section 3.2, `PHI`).
///
/// For every normalised row label the PHI correlation with every other label
/// (based on co-occurrence in tables) forms a sparse vector; a table's
/// vector is the average of its labels' vectors; two rows are compared by
/// the cosine of their tables' vectors.
#[derive(Debug, Clone, Default)]
pub struct PhiTableVectors {
    // Sparse vectors sorted by label so dot products and norms always sum
    // in the same order: float addition is not associative, and summing in
    // hash order would make scores differ between processes.
    vectors: HashMap<TableId, Vec<(String, f64)>>,
}

impl PhiTableVectors {
    /// Build the PHI vectors for the tables containing the given rows.
    pub fn build(corpus: &Corpus, contexts: &[RowContext]) -> Self {
        // Label occurrence sets per table and global counts.
        let mut labels_per_table: HashMap<TableId, Vec<String>> = HashMap::new();
        for ctx in contexts {
            if ctx.normalized_label.is_empty() {
                continue;
            }
            labels_per_table.entry(ctx.row.table).or_default().push(ctx.normalized_label.clone());
        }
        let _ = corpus; // table contents are already captured in the contexts

        let mut label_tables: HashMap<&str, Vec<TableId>> = HashMap::new();
        for (table, labels) in &labels_per_table {
            for l in labels {
                label_tables.entry(l.as_str()).or_default().push(*table);
            }
        }
        let n = labels_per_table.len().max(1) as f64;

        // Pairwise co-occurrence counts (only for labels that co-occur).
        let mut cooccur: HashMap<(&str, &str), f64> = HashMap::new();
        for labels in labels_per_table.values() {
            for i in 0..labels.len() {
                for j in 0..labels.len() {
                    if i == j {
                        continue;
                    }
                    *cooccur.entry((labels[i].as_str(), labels[j].as_str())).or_insert(0.0) += 1.0;
                }
            }
        }

        // PHI correlation per co-occurring label pair.
        let phi = |a: &str, b: &str, nab: f64| -> f64 {
            let na = label_tables.get(a).map(|t| t.len() as f64).unwrap_or(0.0);
            let nb = label_tables.get(b).map(|t| t.len() as f64).unwrap_or(0.0);
            let denom = (na * nb * (n - na) * (n - nb)).sqrt();
            if denom < 1e-12 {
                return 0.0;
            }
            (n * nab - na * nb) / denom
        };

        // Label vector: correlations with co-occurring labels.
        let mut label_vectors: HashMap<&str, HashMap<String, f64>> = HashMap::new();
        for ((a, b), nab) in &cooccur {
            let value = phi(a, b, *nab);
            if value.abs() > 1e-9 {
                label_vectors.entry(a).or_default().insert((*b).to_string(), value);
            }
        }

        // Table vector: average of its labels' vectors.
        let mut vectors = HashMap::new();
        for (table, labels) in &labels_per_table {
            let mut acc: HashMap<String, f64> = HashMap::new();
            for l in labels {
                if let Some(v) = label_vectors.get(l.as_str()) {
                    for (k, val) in v {
                        *acc.entry(k.clone()).or_insert(0.0) += val;
                    }
                }
            }
            let count = labels.len().max(1) as f64;
            let mut sorted: Vec<(String, f64)> =
                acc.into_iter().map(|(k, v)| (k, v / count)).collect();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            vectors.insert(*table, sorted);
        }
        Self { vectors }
    }

    /// Insert a precomputed sparse vector for a table (must be sorted by
    /// label). Used by [`StreamingPhi`](crate::incremental::StreamingPhi)
    /// to freeze per-table vectors as the corpus grows;
    /// [`PhiTableVectors::build`] remains the batch path.
    pub fn insert_vector(&mut self, table: TableId, vector: Vec<(String, f64)>) {
        debug_assert!(vector.windows(2).all(|w| w[0].0 < w[1].0), "vector must be label-sorted");
        self.vectors.insert(table, vector);
    }

    /// Number of tables with a vector.
    pub fn table_count(&self) -> usize {
        self.vectors.len()
    }

    /// Whether the table has a vector.
    pub fn contains(&self, table: TableId) -> bool {
        self.vectors.contains_key(&table)
    }

    /// Cosine similarity of two tables' PHI vectors.
    pub fn table_similarity(&self, a: TableId, b: TableId) -> f64 {
        if a == b {
            return 1.0;
        }
        let (Some(va), Some(vb)) = (self.vectors.get(&a), self.vectors.get(&b)) else { return 0.0 };
        if va.is_empty() || vb.is_empty() {
            return 0.0;
        }
        // Merge join over the key-sorted sparse vectors.
        let mut dot = 0.0;
        let (mut i, mut j) = (0, 0);
        while i < va.len() && j < vb.len() {
            match va[i].0.cmp(&vb[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    dot += va[i].1 * vb[j].1;
                    i += 1;
                    j += 1;
                }
            }
        }
        let norm_a: f64 = va.iter().map(|(_, v)| v * v).sum::<f64>().sqrt();
        let norm_b: f64 = vb.iter().map(|(_, v)| v * v).sum::<f64>().sqrt();
        if norm_a < 1e-12 || norm_b < 1e-12 {
            0.0
        } else {
            (dot / (norm_a * norm_b)).clamp(-1.0, 1.0).max(0.0)
        }
    }
}

/// Compute the similarity (and confidence) of one metric for a row pair.
///
/// `interner` is the run interner that minted both contexts'
/// `label_tokens`; the `LABEL` metric scores those interned tokens
/// directly (bit-identical to the string path, no re-tokenisation).
pub fn metric_score(
    kind: RowMetricKind,
    a: &RowContext,
    b: &RowContext,
    phi: &PhiTableVectors,
    implicit: &ImplicitAttributes,
    interner: &Interner,
) -> (f64, f64) {
    match kind {
        RowMetricKind::Label => (monge_elkan_tokens(&a.label_tokens, &b.label_tokens, interner), 1.0),
        RowMetricKind::Bow => (cosine_similarity(&a.bow, &b.bow), 1.0),
        RowMetricKind::Phi => (phi.table_similarity(a.row.table, b.row.table), 1.0),
        RowMetricKind::Attribute => attribute_score(a, b),
        RowMetricKind::ImplicitAtt => implicit_score(a, b, implicit),
        RowMetricKind::SameTable => {
            if a.row.table == b.row.table {
                (0.0, 1.0)
            } else {
                (1.0, 1.0)
            }
        }
    }
}

/// `ATTRIBUTE`: average data-type equality over overlapping value pairs,
/// confidence = number of compared pairs.
fn attribute_score(a: &RowContext, b: &RowContext) -> (f64, f64) {
    let mut compared = 0usize;
    let mut total = 0.0;
    for (prop, va) in &a.values.values {
        if let Some(vb) = b.values.value(prop) {
            let dtype = va.data_type();
            let sim = value_similarity(va, vb, dtype);
            // The paper assigns 1.0 / 0.0 per pair based on data type
            // equality; we use the similarity function's own equality notion.
            total += if sim >= 0.95 { 1.0 } else { 0.0 };
            compared += 1;
        }
    }
    if compared == 0 {
        (0.0, 0.0)
    } else {
        (total / compared as f64, compared as f64)
    }
}

/// `IMPLICIT_ATT`: compare the implicit attributes of each row's table with
/// the overlapping implicit and explicit attributes of the other row.
fn implicit_score(a: &RowContext, b: &RowContext, implicit: &ImplicitAttributes) -> (f64, f64) {
    let a_imp = implicit.of_table(a.row.table);
    let b_imp = implicit.of_table(b.row.table);
    let mut total = 0.0;
    let mut confidence = 0.0;
    let mut compared = 0usize;

    let mut compare_side = |from: &[(String, Value, f64)], other: &RowContext, other_imp: &[(String, Value, f64)]| {
        for (prop, value, score) in from {
            // Overlap with the other row's explicit (column) attributes…
            let explicit = other.values.value(prop);
            // …or with the other table's implicit attributes.
            let implicit_other = other_imp.iter().find(|(p, _, _)| p == prop).map(|(_, v, _)| v);
            if let Some(other_value) = explicit.or(implicit_other) {
                let dtype = value.data_type();
                let sim = value_similarity(value, other_value, dtype);
                total += if sim >= 0.95 { 1.0 } else { 0.0 };
                confidence += score;
                compared += 1;
            }
        }
    };
    compare_side(a_imp, b, b_imp);
    compare_side(b_imp, a, a_imp);

    if compared == 0 {
        (0.0, 0.0)
    } else {
        (total / compared as f64, confidence)
    }
}

/// Compute the feature vector of a row pair for a set of metrics: first the
/// similarity of every metric, then the confidences of the metrics that have
/// one (in metric order). This is the layout expected by
/// [`RowSimilarityModel`].
pub fn metric_features(
    metrics: &[RowMetricKind],
    a: &RowContext,
    b: &RowContext,
    phi: &PhiTableVectors,
    implicit: &ImplicitAttributes,
    interner: &Interner,
) -> Vec<f64> {
    let mut sims = Vec::with_capacity(metrics.len() + 2);
    let mut confs = Vec::new();
    for &kind in metrics {
        let (sim, conf) = metric_score(kind, a, b, phi, implicit, interner);
        sims.push(sim);
        if kind.has_confidence() {
            confs.push(conf);
        }
    }
    sims.extend(confs);
    sims
}

/// Feature names corresponding to [`metric_features`].
pub fn metric_feature_names(metrics: &[RowMetricKind]) -> Vec<String> {
    let mut names: Vec<String> = metrics.iter().map(|m| m.name().to_string()).collect();
    for m in metrics {
        if m.has_confidence() {
            names.push(format!("{}_confidence", m.name()));
        }
    }
    names
}

/// A trained row similarity model: the metric set plus the aggregation
/// model, scoring row pairs in `[-1, 1]`.
#[derive(Debug, Clone)]
pub struct RowSimilarityModel {
    /// Metrics used, in feature order.
    pub metrics: Vec<RowMetricKind>,
    /// The learned pairwise aggregation model.
    pub model: PairwiseModel,
}

impl RowSimilarityModel {
    /// Score a row pair: positive means "same instance". `interner` is the
    /// run interner behind both contexts' interned tokens.
    pub fn score(
        &self,
        a: &RowContext,
        b: &RowContext,
        phi: &PhiTableVectors,
        implicit: &ImplicitAttributes,
        interner: &Interner,
    ) -> f64 {
        let features = metric_features(&self.metrics, a, b, phi, implicit, interner);
        self.model.score(&features)
    }

    /// Importance of every metric in the aggregated model (Table 7, MI
    /// column).
    pub fn metric_importances(&self) -> Vec<(RowMetricKind, f64)> {
        self.model
            .metric_importances()
            .into_iter()
            .zip(self.metrics.iter())
            .map(|(mi, &kind)| (kind, mi.importance))
            .collect()
    }

    /// Serialise the model (metric set + aggregation model) into the writer.
    pub fn encode_into(&self, w: &mut ltee_ml::ByteWriter) {
        w.write_seq(&self.metrics, |w, metric| w.write_u8(metric.code()));
        self.model.encode_into(w);
    }

    /// Decode a model previously written by
    /// [`RowSimilarityModel::encode_into`].
    pub fn decode_from(r: &mut ltee_ml::ByteReader<'_>) -> Result<Self, ltee_ml::CodecError> {
        let metrics = r.read_seq("row_model.metrics", 1, |r| {
            let tag = r.read_u8("row_model.metric")?;
            RowMetricKind::from_code(tag)
                .ok_or(ltee_ml::CodecError::InvalidTag { what: "row_model.metric", tag })
        })?;
        let model = PairwiseModel::decode_from(r)?;
        Ok(Self { metrics, model })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltee_matching::RowValues;
    use ltee_text::BowVector;
    use ltee_webtables::RowRef;

    fn ctx(
        interner: &mut Interner,
        table: u64,
        row: usize,
        label: &str,
        values: Vec<(&str, Value)>,
        extra_terms: &str,
    ) -> RowContext {
        let mut bow = BowVector::from_text(label);
        bow.add_text(extra_terms);
        let normalized_label = ltee_text::normalize_label(label);
        let label_tokens = ltee_text::tokenize_interned(&normalized_label, interner);
        RowContext {
            row: RowRef::new(TableId(table), row),
            label: label.to_string(),
            normalized_label,
            label_tokens,
            bow,
            values: RowValues {
                label: label.to_string(),
                values: values.into_iter().map(|(p, v)| (p.to_string(), v)).collect(),
            },
        }
    }

    #[test]
    fn label_metric_high_for_same_label() {
        let mut interner = Interner::new();
        let a = ctx(&mut interner, 1, 0, "Tom Brady", vec![], "");
        let b = ctx(&mut interner, 2, 0, "Tom Brady", vec![], "");
        let (sim, _) = metric_score(
            RowMetricKind::Label,
            &a,
            &b,
            &PhiTableVectors::default(),
            &ImplicitAttributes::default(),
            &interner,
        );
        assert!(sim > 0.99);
    }

    #[test]
    fn label_metric_bit_matches_string_monge_elkan() {
        let mut interner = Interner::new();
        let a = ctx(&mut interner, 1, 0, "Peyton Maning", vec![], "");
        let b = ctx(&mut interner, 2, 0, "Peyton Manning (QB)", vec![], "");
        let (sim, _) = metric_score(
            RowMetricKind::Label,
            &a,
            &b,
            &PhiTableVectors::default(),
            &ImplicitAttributes::default(),
            &interner,
        );
        let expected =
            ltee_text::monge_elkan_similarity(&a.normalized_label, &b.normalized_label);
        assert_eq!(sim.to_bits(), expected.to_bits());
    }

    #[test]
    fn bow_metric_reflects_shared_cells() {
        let mut interner = Interner::new();
        let a = ctx(&mut interner, 1, 0, "Tom Brady", vec![], "patriots qb michigan");
        let b = ctx(&mut interner, 2, 0, "Tom Brady", vec![], "patriots qb");
        let c = ctx(&mut interner, 3, 0, "Tom Brady", vec![], "unrelated terms here");
        let phi = PhiTableVectors::default();
        let imp = ImplicitAttributes::default();
        let (ab, _) = metric_score(RowMetricKind::Bow, &a, &b, &phi, &imp, &interner);
        let (ac, _) = metric_score(RowMetricKind::Bow, &a, &c, &phi, &imp, &interner);
        assert!(ab > ac);
    }

    #[test]
    fn attribute_metric_counts_overlapping_pairs() {
        let mut interner = Interner::new();
        let a = ctx(&mut interner, 1, 0, "X", vec![("team", Value::InstanceRef("Packers".into())), ("number", Value::NominalInt(4))], "");
        let b = ctx(&mut interner, 2, 0, "X", vec![("team", Value::InstanceRef("Packers".into())), ("number", Value::NominalInt(12))], "");
        let (sim, conf) = attribute_score(&a, &b);
        assert!((sim - 0.5).abs() < 1e-12);
        assert_eq!(conf, 2.0);
    }

    #[test]
    fn attribute_metric_no_overlap_zero_confidence() {
        let mut interner = Interner::new();
        let a = ctx(&mut interner, 1, 0, "X", vec![("team", Value::InstanceRef("Packers".into()))], "");
        let b = ctx(&mut interner, 2, 0, "X", vec![("number", Value::NominalInt(12))], "");
        let (sim, conf) = attribute_score(&a, &b);
        assert_eq!(sim, 0.0);
        assert_eq!(conf, 0.0);
    }

    #[test]
    fn same_table_metric() {
        let mut interner = Interner::new();
        let a = ctx(&mut interner, 1, 0, "A", vec![], "");
        let b = ctx(&mut interner, 1, 1, "B", vec![], "");
        let c = ctx(&mut interner, 2, 0, "C", vec![], "");
        let phi = PhiTableVectors::default();
        let imp = ImplicitAttributes::default();
        assert_eq!(metric_score(RowMetricKind::SameTable, &a, &b, &phi, &imp, &interner).0, 0.0);
        assert_eq!(metric_score(RowMetricKind::SameTable, &a, &c, &phi, &imp, &interner).0, 1.0);
    }

    #[test]
    fn phi_vectors_give_higher_similarity_to_tables_sharing_labels() {
        // Tables 1 and 2 share two labels; table 3 shares none.
        let mut interner = Interner::new();
        let contexts = vec![
            ctx(&mut interner, 1, 0, "alpha", vec![], ""),
            ctx(&mut interner, 1, 1, "beta", vec![], ""),
            ctx(&mut interner, 2, 0, "alpha", vec![], ""),
            ctx(&mut interner, 2, 1, "beta", vec![], ""),
            ctx(&mut interner, 3, 0, "gamma", vec![], ""),
            ctx(&mut interner, 3, 1, "delta", vec![], ""),
        ];
        let corpus = Corpus::new();
        let phi = PhiTableVectors::build(&corpus, &contexts);
        let s12 = phi.table_similarity(TableId(1), TableId(2));
        let s13 = phi.table_similarity(TableId(1), TableId(3));
        assert!(s12 >= s13, "tables sharing labels should be at least as similar ({s12} vs {s13})");
        assert_eq!(phi.table_similarity(TableId(1), TableId(1)), 1.0);
    }

    #[test]
    fn feature_vector_layout_matches_names() {
        let mut interner = Interner::new();
        let metrics = RowMetricKind::ALL.to_vec();
        let names = metric_feature_names(&metrics);
        assert_eq!(names.len(), 8); // 6 similarities + 2 confidences
        assert_eq!(names[6], "ATTRIBUTE_confidence");
        let a = ctx(&mut interner, 1, 0, "A", vec![], "");
        let b = ctx(&mut interner, 2, 0, "A", vec![], "");
        let features = metric_features(
            &metrics,
            &a,
            &b,
            &PhiTableVectors::default(),
            &ImplicitAttributes::default(),
            &interner,
        );
        assert_eq!(features.len(), names.len());
    }

    #[test]
    fn metric_names_unique() {
        let names: std::collections::HashSet<_> = RowMetricKind::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), 6);
    }
}
