//! Row similarity metrics and their aggregation into a single pairwise
//! score.

use std::collections::HashMap;

use ltee_intern::{Interner, Sym};
use ltee_ml::{PairFeatures, PairwiseModel};
use ltee_text::{cosine_similarity, monge_elkan_tokens};
use ltee_types::{PreparedValue, Value};
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
///
/// Labels are syms of a **private** interner and a table's vector is one
/// flat slice: a serving class freezes a vector per ingested table, so
/// what a component costs is a per-row cost. None of it is persisted (a
/// restore rebuilds it from the restored corpus), and the interner must
/// not be the class's pipeline interner: that one's strings are
/// checkpointed in mint order, so minting whole labels into it would
/// change every checkpoint's bytes. No value depends on a sym's number:
/// entries are ordered by the label *strings* and syms are only compared
/// for equality.
#[derive(Debug, Clone, Default)]
pub struct PhiTableVectors {
    /// Every label a vector (or the statistics behind it) mentions.
    labels: Interner,
    vectors: HashMap<TableId, PhiVector>,
}

/// One table's sparse PHI vector.
#[derive(Debug, Clone)]
struct PhiVector {
    // Sorted by label string so dot products and norms always sum in the
    // same order: float addition is not associative, so summing in hash
    // order would make scores differ between processes, and summing in
    // sym (mint) order would not reproduce the sums every pinned digest
    // and golden file was computed from.
    entries: Box<[(Sym, f64)]>,
    /// Euclidean norm of `entries`, summed in entry order.
    norm: f64,
}

/// Label occurrence and within-table co-occurrence counts over the tables
/// counted so far, indexed by the syms of one label interner.
#[derive(Debug, Clone, Default)]
pub(crate) struct PhiStats {
    /// Occurrences of each label across the counted tables, by `Sym::raw`.
    occurrences: Vec<u32>,
    /// By `Sym::raw` of a label `a`: every label `b` that shared a table
    /// with it and how many times (ordered pairs: `a` at one row, `b` at
    /// another), ascending by sym so a pair is found by binary search.
    cooccur: Vec<Vec<(Sym, u32)>>,
    /// Tables counted (only tables with at least one label are).
    tables: usize,
}

impl PhiStats {
    /// Count one table's labels (one per labelled row, duplicates kept).
    fn count_table(&mut self, labels: &[Sym]) {
        let minted = labels.iter().map(|label| label.raw() as usize + 1).max().unwrap_or(0);
        if minted > self.occurrences.len() {
            self.occurrences.resize(minted, 0);
            self.cooccur.resize_with(minted, Vec::new);
        }
        // An occurrence count never reaches `u32::MAX`: the serving
        // pipeline refuses a batch that would take the rows it has
        // ingested past it. A co-occurrence counts row pairs, which the
        // rows do not bound, so it saturates there instead — the same
        // count in whatever order tables arrive.
        let bump = |count: &mut u32| *count = count.saturating_add(1);
        for (i, &a) in labels.iter().enumerate() {
            bump(&mut self.occurrences[a.raw() as usize]);
            let pairs = &mut self.cooccur[a.raw() as usize];
            for (j, &b) in labels.iter().enumerate() {
                if i == j {
                    continue;
                }
                match pairs.binary_search_by_key(&b, |&(other, _)| other) {
                    Ok(at) => bump(&mut pairs[at].1),
                    Err(at) => pairs.insert(at, (b, 1)),
                }
            }
        }
        self.tables += 1;
    }

    /// The vector of a table with these labels under the current counts:
    /// the average of its labels' correlation vectors, ordered by label
    /// string (`interner` resolves the syms). A component is the sum of
    /// one term per label of the table, added in the table's label order.
    fn table_vector(&self, labels: &[Sym], interner: &Interner) -> Vec<(Sym, f64)> {
        let n = self.tables.max(1) as f64;
        let mut acc: HashMap<Sym, f64> = HashMap::new();
        for &label in labels {
            let na = f64::from(self.occurrences[label.raw() as usize]);
            for &(other, nab) in &self.cooccur[label.raw() as usize] {
                let nb = f64::from(self.occurrences[other.raw() as usize]);
                let denom = (na * nb * (n - na) * (n - nb)).sqrt();
                if denom < 1e-12 {
                    continue;
                }
                let phi = (n * f64::from(nab) - na * nb) / denom;
                if phi.abs() > 1e-9 {
                    *acc.entry(other).or_insert(0.0) += phi;
                }
            }
        }
        let count = labels.len().max(1) as f64;
        let mut vector: Vec<(Sym, f64)> = acc.into_iter().map(|(k, v)| (k, v / count)).collect();
        vector.sort_by(|a, b| interner.resolve(a.0).cmp(interner.resolve(b.0)));
        vector
    }

    /// Number of distinct ordered label pairs that shared a table.
    pub(crate) fn pair_count(&self) -> usize {
        self.cooccur.iter().map(Vec::len).sum()
    }
}

impl PhiTableVectors {
    /// Build the PHI vectors for the tables containing the given rows,
    /// every vector under the statistics of all of them.
    pub fn build(corpus: &Corpus, contexts: &[RowContext]) -> Self {
        let _ = corpus; // table contents are already captured in the contexts
        let mut built = Self::default();
        // The tables in first-row order, each with its rows' labels.
        let mut slots: HashMap<TableId, usize> = HashMap::new();
        let mut tables: Vec<(TableId, Vec<Sym>)> = Vec::new();
        for ctx in contexts {
            if ctx.normalized_label.is_empty() {
                continue;
            }
            let slot = *slots.entry(ctx.row.table).or_insert_with(|| {
                tables.push((ctx.row.table, Vec::new()));
                tables.len() - 1
            });
            tables[slot].1.push(built.labels.intern(&ctx.normalized_label));
        }
        let mut stats = PhiStats::default();
        for (_, labels) in &tables {
            stats.count_table(labels);
        }
        for (table, labels) in &tables {
            let vector = stats.table_vector(labels, &built.labels);
            built.insert(*table, vector);
        }
        built
    }

    /// Count `labels` (a table's normalised row labels, none empty) as one
    /// more table in `stats`, then freeze the table's vector under the
    /// counts so far — its own included, as [`PhiTableVectors::build`]
    /// counts a label's own table — without the components that cancelled
    /// to zero. `stats` must only ever count through this set of vectors:
    /// it is indexed by this set's label syms.
    pub(crate) fn freeze(&mut self, table: TableId, labels: &[String], stats: &mut PhiStats) {
        let labels: Vec<Sym> = labels.iter().map(|label| self.labels.intern(label)).collect();
        stats.count_table(&labels);
        let mut vector = stats.table_vector(&labels, &self.labels);
        vector.retain(|(_, v)| v.abs() > 0.0);
        self.insert(table, vector);
    }

    /// Store a table's vector (ordered by label string).
    fn insert(&mut self, table: TableId, entries: Vec<(Sym, f64)>) {
        debug_assert!(
            entries.windows(2).all(|w| self.labels.resolve(w[0].0) < self.labels.resolve(w[1].0)),
            "vector must be label-sorted"
        );
        let norm = entries.iter().map(|(_, v)| v * v).sum::<f64>().sqrt();
        self.vectors.insert(table, PhiVector { entries: entries.into_boxed_slice(), norm });
    }

    /// Number of tables with a vector.
    pub fn table_count(&self) -> usize {
        self.vectors.len()
    }

    /// Whether the table has a vector.
    pub fn contains(&self, table: TableId) -> bool {
        self.vectors.contains_key(&table)
    }

    /// Number of vector components held, over all tables (diagnostics).
    pub fn entry_count(&self) -> usize {
        self.vectors.values().map(|vector| vector.entries.len()).sum()
    }

    /// Number of distinct labels interned (diagnostics).
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// Cosine similarity of two tables' PHI vectors.
    pub fn table_similarity(&self, a: TableId, b: TableId) -> f64 {
        if a == b {
            return 1.0;
        }
        let (Some(a), Some(b)) = (self.vectors.get(&a), self.vectors.get(&b)) else { return 0.0 };
        let (va, vb) = (&a.entries, &b.entries);
        if va.is_empty() || vb.is_empty() {
            return 0.0;
        }
        // Merge join over the label-sorted sparse vectors. Equal labels
        // are equal syms; the strings are only read to tell which side of
        // a mismatch is behind.
        let mut dot = 0.0;
        let (mut i, mut j) = (0, 0);
        while i < va.len() && j < vb.len() {
            if va[i].0 == vb[j].0 {
                dot += va[i].1 * vb[j].1;
                i += 1;
                j += 1;
            } else if self.labels.resolve(va[i].0) < self.labels.resolve(vb[j].0) {
                i += 1;
            } else {
                j += 1;
            }
        }
        if a.norm < 1e-12 || b.norm < 1e-12 {
            0.0
        } else {
            (dot / (a.norm * b.norm)).clamp(-1.0, 1.0).max(0.0)
        }
    }
}

#[cfg(test)]
impl PhiTableVectors {
    /// A table's vector with the label strings resolved.
    pub(crate) fn entries(&self, table: TableId) -> Option<Vec<(String, f64)>> {
        let vector = self.vectors.get(&table)?;
        Some(vector.entries.iter().map(|&(sym, v)| (self.labels.resolve(sym).to_string(), v)).collect())
    }
}

/// The left row of the pairs being scored, with everything that depends on
/// it alone looked up once: a row is scored against every member of every
/// admitted cluster, and its table's implicit attributes and its own value
/// per property do not change from one member to the next.
pub struct RowProbe<'a> {
    ctx: &'a RowContext,
    /// Every table's implicit attributes (the other row's are looked up
    /// per pair).
    all_implicit: &'a ImplicitAttributes,
    /// The implicit attributes of the row's table…
    implicit: &'a [(String, Value, f64)],
    /// …and their prepared values, position by position.
    implicit_prepared: &'a [PreparedValue],
    /// What the row has to say about a property: its explicit (column)
    /// values, then its table's implicit ones. The first entry for a
    /// property is the one `IMPLICIT_ATT` compares against.
    own_values: Vec<(&'a str, &'a PreparedValue)>,
}

impl<'a> RowProbe<'a> {
    /// Look up what scoring reads of `ctx`'s table.
    pub fn new(ctx: &'a RowContext, all_implicit: &'a ImplicitAttributes) -> Self {
        let (implicit, implicit_prepared) = all_implicit.prepared_of_table(ctx.row.table);
        let explicit = ctx.prepared_values().map(|(p, _, prepared)| (p, prepared));
        let own_values =
            explicit.chain(implicit.iter().map(|(p, _, _)| p.as_str()).zip(implicit_prepared)).collect();
        Self { ctx, all_implicit, implicit, implicit_prepared, own_values }
    }

    /// The similarity (and confidence) of one metric for the pair
    /// (this row, `b`).
    ///
    /// `interner` is the run interner that minted both contexts'
    /// `label_tokens`; the `LABEL` metric scores those interned tokens
    /// directly (bit-identical to the string path, no re-tokenisation).
    /// `phi` supplies the PHI similarity of two tables:
    /// [`PhiTableVectors::table_similarity`] itself, or a memo of it.
    fn metric_score(
        &self,
        kind: RowMetricKind,
        b: &RowContext,
        phi: &mut impl FnMut(TableId, TableId) -> f64,
        interner: &Interner,
    ) -> (f64, f64) {
        let a = self.ctx;
        match kind {
            RowMetricKind::Label => (monge_elkan_tokens(&a.label_tokens, &b.label_tokens, interner), 1.0),
            RowMetricKind::Bow => (cosine_similarity(&a.bow, &b.bow), 1.0),
            RowMetricKind::Phi => (phi(a.row.table, b.row.table), 1.0),
            RowMetricKind::Attribute => self.attribute_score(b),
            RowMetricKind::ImplicitAtt => self.implicit_score(b),
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
    /// confidence = number of compared pairs (a sum of ones).
    fn attribute_score(&self, b: &RowContext) -> (f64, f64) {
        let mut agreement = Agreement::default();
        for (prop, va, prepared) in self.ctx.prepared_values() {
            if let Some(vb) = b.prepared_value(prop) {
                agreement.compare(prepared, vb, va, 1.0);
            }
        }
        agreement.score()
    }

    /// `IMPLICIT_ATT`: compare the implicit attributes of each row's table
    /// with the overlapping implicit and explicit attributes of the other
    /// row.
    fn implicit_score(&self, b: &RowContext) -> (f64, f64) {
        let (b_implicit, b_implicit_prepared) = self.all_implicit.prepared_of_table(b.row.table);
        let mut agreement = Agreement::default();
        for ((prop, value, score), prepared) in self.implicit.iter().zip(self.implicit_prepared) {
            // Overlap with the other row's explicit (column) attributes, or
            // with the other table's implicit attributes.
            let other = b.prepared_value(prop).or_else(|| {
                b_implicit.iter().position(|(p, _, _)| p == prop).map(|i| &b_implicit_prepared[i])
            });
            if let Some(other) = other {
                agreement.compare(prepared, other, value, *score);
            }
        }
        for ((prop, value, score), prepared) in b_implicit.iter().zip(b_implicit_prepared) {
            if let Some((_, own)) = self.own_values.iter().find(|(p, _)| p == prop) {
                agreement.compare(prepared, own, value, *score);
            }
        }
        agreement.score()
    }

    /// The feature vector of the pair (this row, `b`) for a set of metrics:
    /// first the similarity of every metric, then the confidences of the
    /// metrics that have one (in metric order). This is the layout expected
    /// by [`RowSimilarityModel`].
    pub fn metric_features(
        &self,
        metrics: &[RowMetricKind],
        b: &RowContext,
        phi: &PhiTableVectors,
        interner: &Interner,
    ) -> PairFeatures {
        self.metric_features_with(metrics, b, &mut |x, y| phi.table_similarity(x, y), interner)
    }

    /// [`RowProbe::metric_features`] with the PHI similarity of two tables
    /// supplied by the caller.
    fn metric_features_with(
        &self,
        metrics: &[RowMetricKind],
        b: &RowContext,
        phi: &mut impl FnMut(TableId, TableId) -> f64,
        interner: &Interner,
    ) -> PairFeatures {
        PairFeatures::from_scores(metrics.iter().map(|&kind| {
            let (similarity, confidence) = self.metric_score(kind, b, phi, interner);
            (similarity, kind.has_confidence().then_some(confidence))
        }))
    }
}

/// Running tally of compared value pairs.
#[derive(Default)]
struct Agreement {
    compared: usize,
    agreeing: f64,
    confidence: f64,
}

impl Agreement {
    /// Compare one value pair under the data type of `value` (the
    /// unprepared form of `a`). The paper assigns 1.0 / 0.0 per pair based
    /// on data type equality; we use the similarity function's own equality
    /// notion.
    fn compare(&mut self, a: &PreparedValue, b: &PreparedValue, value: &Value, confidence: f64) {
        self.agreeing += if a.similarity(b, value.data_type()) >= 0.95 { 1.0 } else { 0.0 };
        self.confidence += confidence;
        self.compared += 1;
    }

    /// (share of agreeing pairs, summed confidence), or zeros if nothing
    /// was compared.
    fn score(&self) -> (f64, f64) {
        if self.compared == 0 {
            (0.0, 0.0)
        } else {
            (self.agreeing / self.compared as f64, self.confidence)
        }
    }
}

/// Compute the feature vector of a row pair for a set of metrics (see
/// [`RowProbe::metric_features`], which callers scoring one row against
/// many should use directly).
pub fn metric_features(
    metrics: &[RowMetricKind],
    a: &RowContext,
    b: &RowContext,
    phi: &PhiTableVectors,
    implicit: &ImplicitAttributes,
    interner: &Interner,
) -> PairFeatures {
    RowProbe::new(a, implicit).metric_features(metrics, b, phi, interner)
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
    /// Score the pair (`probe`'s row, `b`): positive means "same instance".
    /// `interner` is the run interner behind both contexts' interned tokens.
    pub fn score(&self, probe: &RowProbe<'_>, b: &RowContext, phi: &PhiTableVectors, interner: &Interner) -> f64 {
        self.score_with(probe, b, &mut |x, y| phi.table_similarity(x, y), interner)
    }

    /// [`RowSimilarityModel::score`] with the PHI similarity of two tables
    /// supplied by the caller: the streaming clusterer memoises it per
    /// table pair for the length of one ingest call.
    pub(crate) fn score_with(
        &self,
        probe: &RowProbe<'_>,
        b: &RowContext,
        phi: &mut impl FnMut(TableId, TableId) -> f64,
        interner: &Interner,
    ) -> f64 {
        self.model.score(&probe.metric_features_with(&self.metrics, b, phi, interner))
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

    /// Serialise the model (metric set + aggregation model) into the writer,
    /// its feature names as references into `strings`.
    pub fn encode_into<'a>(
        &'a self,
        strings: &mut ltee_ml::StringTableWriter<'a>,
        w: &mut ltee_ml::ByteWriter,
    ) {
        w.write_seq(&self.metrics, |w, metric| w.write_u8(metric.code()));
        self.model.encode_into(strings, w);
    }

    /// Decode a model previously written by
    /// [`RowSimilarityModel::encode_into`].
    pub fn decode_from(
        r: &mut ltee_ml::ByteReader<'_>,
        strings: &mut ltee_ml::StringTable<'_>,
    ) -> Result<Self, ltee_ml::CodecError> {
        let metrics = r.read_seq("row_model.metrics", 1, |r| {
            let tag = r.read_u8("row_model.metric")?;
            RowMetricKind::from_code(tag)
                .ok_or(ltee_ml::CodecError::InvalidTag { what: "row_model.metric", tag })
        })?;
        // Scoring lays a metric set's features out inline.
        if metrics.len() > PairFeatures::MAX_METRICS {
            return Err(ltee_ml::CodecError::LengthOverflow {
                what: "row_model.metrics",
                declared: metrics.len(),
            });
        }
        let model = PairwiseModel::decode_from(r, strings)?;
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
        let values = RowValues {
            label: label.to_string(),
            values: values.into_iter().map(|(p, v)| (p.to_string(), v)).collect(),
        };
        RowContext::new(RowRef::new(TableId(table), row), values, bow, interner)
    }

    fn metric_score(
        kind: RowMetricKind,
        a: &RowContext,
        b: &RowContext,
        phi: &PhiTableVectors,
        implicit: &ImplicitAttributes,
        interner: &Interner,
    ) -> (f64, f64) {
        RowProbe::new(a, implicit).metric_score(kind, b, &mut |x, y| phi.table_similarity(x, y), interner)
    }

    fn attribute_score(a: &RowContext, b: &RowContext, interner: &Interner) -> (f64, f64) {
        let (phi, implicit) = (PhiTableVectors::default(), ImplicitAttributes::default());
        metric_score(RowMetricKind::Attribute, a, b, &phi, &implicit, interner)
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
        let (sim, conf) = attribute_score(&a, &b, &interner);
        assert!((sim - 0.5).abs() < 1e-12);
        assert_eq!(conf, 2.0);
    }

    #[test]
    fn attribute_metric_no_overlap_zero_confidence() {
        let mut interner = Interner::new();
        let a = ctx(&mut interner, 1, 0, "X", vec![("team", Value::InstanceRef("Packers".into()))], "");
        let b = ctx(&mut interner, 2, 0, "X", vec![("number", Value::NominalInt(12))], "");
        let (sim, conf) = attribute_score(&a, &b, &interner);
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
