//! Row similarity metrics and their aggregation into a single pairwise
//! score.

use std::collections::HashMap;

use ltee_intern::{Interner, Sym};
use ltee_ml::{MetricKind, MetricModel, PairFeatures};
use ltee_text::{cosine_similarity, monge_elkan_tokens};
use ltee_types::{Agreement, PreparedValue, Value};
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

impl MetricKind for RowMetricKind {
    /// All metrics in the order used by the Table 7 ablation.
    const ALL: &'static [RowMetricKind] = &[
        RowMetricKind::Label,
        RowMetricKind::Bow,
        RowMetricKind::Phi,
        RowMetricKind::Attribute,
        RowMetricKind::ImplicitAtt,
        RowMetricKind::SameTable,
    ];
    const LIST_LABEL: &'static str = "row_model.metrics";
    const TAG_LABEL: &'static str = "row_model.metric";

    fn name(self) -> &'static str {
        match self {
            RowMetricKind::Label => "LABEL",
            RowMetricKind::Bow => "BOW",
            RowMetricKind::Phi => "PHI",
            RowMetricKind::Attribute => "ATTRIBUTE",
            RowMetricKind::ImplicitAtt => "IMPLICIT_ATT",
            RowMetricKind::SameTable => "SAME_TABLE",
        }
    }

    fn has_confidence(self) -> bool {
        matches!(self, RowMetricKind::Attribute | RowMetricKind::ImplicitAtt)
    }

    fn code(self) -> u8 {
        match self {
            RowMetricKind::Label => 0,
            RowMetricKind::Bow => 1,
            RowMetricKind::Phi => 2,
            RowMetricKind::Attribute => 3,
            RowMetricKind::ImplicitAtt => 4,
            RowMetricKind::SameTable => 5,
        }
    }
}

/// A trained row similarity model, scoring row pairs (through
/// [`RowProbe::score`]) in `[-1, 1]`.
pub type RowSimilarityModel = MetricModel<RowMetricKind>;

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

ltee_intern::heap_size! {
    PhiTableVectors { labels, vectors }
    PhiVector { entries }
    PhiStats { occurrences, cooccur }
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
    implicit: &'a [(&'static str, Value, f64)],
    /// …and their prepared values, position by position.
    implicit_prepared: &'a [PreparedValue],
    /// What the row has to say about a property: its explicit (column)
    /// values, then its table's implicit ones. The first entry for a
    /// property is the one `IMPLICIT_ATT` compares against.
    own_values: Vec<(&'static str, &'a PreparedValue)>,
}

impl<'a> RowProbe<'a> {
    /// Look up what scoring reads of `ctx`'s table.
    pub fn new(ctx: &'a RowContext, all_implicit: &'a ImplicitAttributes) -> Self {
        let (implicit, implicit_prepared) = all_implicit.prepared_of_table(ctx.row.table);
        let explicit = ctx.prepared_values().map(|(p, _, prepared)| (p, prepared));
        let own_values =
            explicit.chain(implicit.iter().map(|&(p, _, _)| p).zip(implicit_prepared)).collect();
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
                agreement.compare(prepared, vb, va.data_type(), 1.0);
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
                agreement.compare(prepared, other, value.data_type(), *score);
            }
        }
        for ((prop, value, score), prepared) in b_implicit.iter().zip(b_implicit_prepared) {
            if let Some((_, own)) = self.own_values.iter().find(|(p, _)| p == prop) {
                agreement.compare(prepared, own, value.data_type(), *score);
            }
        }
        agreement.score()
    }

    /// `model`'s score of the pair (this row, `b`): positive means "same
    /// instance". `interner` is the run interner behind both contexts'
    /// interned tokens.
    pub fn score(
        &self,
        model: &RowSimilarityModel,
        b: &RowContext,
        phi: &PhiTableVectors,
        interner: &Interner,
    ) -> f64 {
        self.score_with(model, b, &mut |x, y| phi.table_similarity(x, y), interner)
    }

    /// [`RowProbe::score`] with the PHI similarity of two tables supplied
    /// by the caller: the streaming clusterer memoises it per table pair
    /// for the length of one ingest call.
    pub(crate) fn score_with(
        &self,
        model: &RowSimilarityModel,
        b: &RowContext,
        phi: &mut impl FnMut(TableId, TableId) -> f64,
        interner: &Interner,
    ) -> f64 {
        model.score(&RowSimilarityModel::features(&model.metrics, |kind| self.metric_score(kind, b, phi, interner)))
    }
}

/// The feature vector of a row pair for a set of metrics, in the layout of
/// [`RowSimilarityModel`] (callers scoring one row against many should
/// hold a [`RowProbe`]).
pub fn metric_features(
    metrics: &[RowMetricKind],
    a: &RowContext,
    b: &RowContext,
    phi: &PhiTableVectors,
    implicit: &ImplicitAttributes,
    interner: &Interner,
) -> PairFeatures {
    let probe = RowProbe::new(a, implicit);
    let mut phi = |x, y| phi.table_similarity(x, y);
    RowSimilarityModel::features(metrics, |kind| probe.metric_score(kind, b, &mut phi, interner))
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
        values: Vec<(&'static str, Value)>,
        extra_terms: &str,
    ) -> RowContext {
        let bow = BowVector::from_texts([label, extra_terms]);
        let values = RowValues { label: label.to_string(), values };
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
        let names = RowSimilarityModel::feature_names(&metrics);
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
}
