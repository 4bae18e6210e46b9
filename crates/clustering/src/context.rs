//! Per-row context built once before clustering, and the table-level
//! implicit attributes.

use std::borrow::Cow;
use std::collections::HashMap;

use ltee_index::LabelIndex;
use ltee_intern::{Interner, TokenSeq};
use ltee_kb::{ClassKey, InstanceId, KnowledgeBase};
use ltee_matching::{CorpusMapping, RowCandidates, RowValues, TableMapping, CANDIDATES_PER_ROW};
use ltee_text::{normalize_label, tokenize_interned, BowVector};
use ltee_types::{value_equivalent, EquivalenceConfig, PreparedValue, Value};
use ltee_webtables::{Corpus, RowRef, TableId, WebTable};
use rayon::prelude::*;

/// Everything the row similarity metrics need to know about one row,
/// precomputed once.
#[derive(Debug, Clone)]
pub struct RowContext {
    /// The row.
    pub row: RowRef,
    /// The normalised form of `values().label`, the cleaned label from the
    /// table's label attribute (blocking key).
    pub normalized_label: String,
    /// Interned tokens of the normalised label, minted by the pipeline
    /// run's interner. The `LABEL` metric scores these instead of
    /// re-tokenising `normalized_label` per comparison.
    pub label_tokens: TokenSeq,
    /// Binary bag-of-words vector over all cells of the row.
    pub bow: BowVector,
    /// Schema-mapped values of the row (read through
    /// [`RowContext::values`]).
    values: RowValues,
    /// `values.values` prepared for similarity scoring, position by
    /// position: the `ATTRIBUTE` / `IMPLICIT_ATT` metrics compare these, so
    /// a value's normal form is derived once per row instead of once per
    /// scored pair. Only `RowContext::body` writes this and `values`, so
    /// the two cannot fall out of step. Derived data — checkpoints persist
    /// the table cells, and restoring rebuilds the contexts through
    /// [`build_row_contexts`].
    prepared: Vec<PreparedValue>,
}

impl RowContext {
    /// Derive a row's context from its schema-mapped values and the
    /// bag-of-words vector of its cells, interning the label's tokens into
    /// the run interner.
    pub fn new(row: RowRef, values: RowValues, bow: BowVector, interner: &mut Interner) -> Self {
        let mut context = Self::body(row, values, bow);
        context.mint_label_tokens(interner);
        context
    }

    /// Everything of the context but its label tokens: no interner
    /// involved, so bodies can be built on the pool.
    fn body(row: RowRef, values: RowValues, bow: BowVector) -> Self {
        let normalized_label = normalize_label(&values.label);
        let prepared = values.values.iter().map(|(_, value)| PreparedValue::new(value)).collect();
        RowContext {
            row,
            normalized_label,
            label_tokens: TokenSeq::default(),
            bow,
            values,
            prepared,
        }
    }

    fn mint_label_tokens(&mut self, interner: &mut Interner) {
        self.label_tokens = tokenize_interned(&self.normalized_label, interner);
    }

    /// Schema-mapped values of the row.
    pub fn values(&self) -> &RowValues {
        &self.values
    }

    /// The row's (property, value, prepared value) triples, in
    /// `values().values` order.
    pub(crate) fn prepared_values(&self) -> impl Iterator<Item = (&'static str, &Value, &PreparedValue)> {
        self.values.values.iter().zip(&self.prepared).map(|(&(p, ref v), prepared)| (p, v, prepared))
    }

    /// The prepared form of the row's value for `property`, if it has one.
    pub(crate) fn prepared_value(&self, property: &str) -> Option<&PreparedValue> {
        self.values.values.iter().position(|&(p, _)| p == property).map(|i| &self.prepared[i])
    }
}

/// Build the row contexts for a set of rows under a corpus mapping: the
/// bodies on the pool, then each label's tokens interned into the run
/// interner in row order (sequential — the sym ids depend only on row
/// order, never on thread count).
pub fn build_row_contexts(
    corpus: &Corpus,
    mapping: &CorpusMapping,
    rows: &[RowRef],
    interner: &mut Interner,
) -> Vec<RowContext> {
    let bodies: Vec<RowContext> = rows
        .par_iter()
        .map(|&row| {
            let values = mapping.row_values(corpus, row);
            let cells = corpus.row_cells(row);
            let bow = BowVector::from_texts(cells.iter().copied());
            RowContext::body(row, values, bow)
        })
        .collect();
    bodies
        .into_iter()
        .map(|mut context| {
            context.mint_label_tokens(interner);
            context
        })
        .collect()
}

/// Implicit property-value combinations derived per table (paper
/// Section 3.2, `IMPLICIT_ATT`).
///
/// "We first use the row labels to find candidate instances for all rows,
/// and then for each row all property-value combinations that exist for at
/// least one candidate in the knowledge base. For each property-value
/// combination we then derive a score for the whole table, which equals the
/// proportion of rows that have this combination. We keep only combinations
/// with a score above a certain threshold."
#[derive(Debug, Clone, Default)]
pub struct ImplicitAttributes {
    per_table: HashMap<TableId, TableAttributes>,
}

/// The implicit attributes of one table.
#[derive(Debug, Clone, Default)]
struct TableAttributes {
    /// (property, value, confidence score).
    attributes: Vec<(&'static str, Value, f64)>,
    /// The values of `attributes` prepared for similarity scoring, position
    /// by position.
    prepared: Vec<PreparedValue>,
}

ltee_intern::heap_size! {
    ImplicitAttributes { per_table }
    TableAttributes { attributes, prepared }
    RowContext { normalized_label, label_tokens, bow, values, prepared }
}

impl TableAttributes {
    /// The attributes of a table of `num_rows` rows whose rows retrieved
    /// `row_candidates`: every property-value combination held by at
    /// least one candidate of a row, scored by the share of rows holding
    /// it, kept above [`ImplicitAttributes::SCORE_THRESHOLD`].
    fn derive(kb: &KnowledgeBase, num_rows: usize, row_candidates: &[Vec<InstanceId>]) -> Self {
        let eq = EquivalenceConfig::default();
        // For each row, the set of property-value combinations of its
        // candidate instances, keyed by (property, rendered value).
        let mut combo_rows: HashMap<(&'static str, String), (&Value, usize)> = HashMap::new();
        for candidates in row_candidates {
            let mut row_combos: HashMap<(&'static str, String), &Value> = HashMap::new();
            for &id in candidates {
                let Some(instance) = kb.instance(id) else { continue };
                for fact in &instance.facts {
                    let Some(prop) = kb.property(fact.property) else { continue };
                    row_combos.entry((prop.name, fact.value.render())).or_insert(&fact.value);
                }
            }
            for (key, value) in row_combos {
                combo_rows.entry(key).or_insert((value, 0)).1 += 1;
            }
        }
        let mut implicit: Vec<(&'static str, Value, f64, String)> = combo_rows
            .into_iter()
            .filter_map(|((prop, render), (value, count))| {
                let score = count as f64 / num_rows as f64;
                (score >= ImplicitAttributes::SCORE_THRESHOLD)
                    .then(|| (prop, value.clone(), score, render))
            })
            .collect();
        implicit.sort_by(|a, b| {
            // Fully ordered (value render as final tiebreak): the list
            // comes out of a HashMap, and which same-score entry survives
            // dedup below must not depend on hash iteration order.
            b.2.partial_cmp(&a.2)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(b.0))
                .then_with(|| a.3.cmp(&b.3))
        });
        // Deduplicate by property, keeping the highest-scoring value, and
        // verify consistency with the equivalence functions (two distinct
        // renders of the same value should not produce two entries).
        let mut attributes: Vec<(&'static str, Value, f64)> = Vec::new();
        for (prop, value, score, _render) in implicit {
            let dtype = value.data_type();
            let duplicate =
                attributes.iter().any(|(p, v, _)| *p == prop && value_equivalent(v, &value, dtype, &eq));
            if !duplicate {
                attributes.push((prop, value, score));
            }
        }
        let prepared = attributes.iter().map(|(_, value, _)| PreparedValue::new(value)).collect();
        Self { attributes, prepared }
    }
}

impl ImplicitAttributes {
    /// Minimum proportion of rows that must share a property-value
    /// combination for it to become an implicit attribute of the table.
    pub const SCORE_THRESHOLD: f64 = 0.5;

    /// Derive the implicit attributes of every table of a class, looking
    /// each row label up in the class's label index — the top
    /// [`CANDIDATES_PER_ROW`] of the lookup, exactly the candidates the
    /// table-to-class matcher retrieves for the row. Used where those
    /// candidates are not at hand (checkpoint restore, the batch
    /// pipeline); training and ingest feed a
    /// [`ltee_matching::match_corpus_and_candidates`] result to
    /// [`ImplicitAttributes::from_candidates`] instead.
    pub fn build(
        corpus: &Corpus,
        mapping: &CorpusMapping,
        kb: &KnowledgeBase,
        class: ClassKey,
        label_index: &LabelIndex,
    ) -> Self {
        Self::derive(corpus, mapping, kb, class, |table, table_mapping| {
            let rows = (0..table.num_rows()).map(|row| {
                let label = table_mapping.row_label(table, row);
                if label.is_empty() {
                    return Vec::new();
                }
                label_index.lookup(&label, CANDIDATES_PER_ROW).iter().map(|m| InstanceId(m.id)).collect()
            });
            Cow::Owned(rows.collect())
        })
    }

    /// Derive the implicit attributes of every table of a class from the
    /// candidates the table-to-class matcher retrieved, without a single
    /// lookup. `candidates` must come from the call that produced
    /// `mapping`; a table it does not cover has no implicit attributes.
    pub fn from_candidates(
        corpus: &Corpus,
        mapping: &CorpusMapping,
        kb: &KnowledgeBase,
        class: ClassKey,
        candidates: &RowCandidates,
    ) -> Self {
        Self::derive(corpus, mapping, kb, class, |table, _| {
            Cow::Borrowed(candidates.of_table(table.id).unwrap_or_default())
        })
    }

    /// The one body of [`ImplicitAttributes::build`] and
    /// [`ImplicitAttributes::from_candidates`]: per table of the class, on
    /// the pool, the attributes of its rows' candidate instances —
    /// `row_candidates(table, its mapping)`, one list per row.
    fn derive<'c>(
        corpus: &Corpus,
        mapping: &CorpusMapping,
        kb: &KnowledgeBase,
        class: ClassKey,
        row_candidates: impl Fn(&WebTable, &TableMapping) -> Cow<'c, [Vec<InstanceId>]> + Sync,
    ) -> Self {
        let tables: Vec<(&WebTable, &TableMapping)> = mapping
            .tables_of_class(class)
            .into_iter()
            .filter_map(|tm| Some((corpus.table(tm.table)?, tm)))
            .filter(|(table, _)| table.num_rows() > 0)
            .collect();
        let per_table: Vec<(TableId, TableAttributes)> = tables
            .par_iter()
            .map(|&(table, table_mapping)| {
                let rows = row_candidates(table, table_mapping);
                (table.id, TableAttributes::derive(kb, table.num_rows(), &rows))
            })
            .collect();
        Self { per_table: per_table.into_iter().collect() }
    }

    /// The implicit attributes of a table.
    pub fn of_table(&self, table: TableId) -> &[(&'static str, Value, f64)] {
        self.prepared_of_table(table).0
    }

    /// The implicit attributes of a table and, position by position, their
    /// values prepared for similarity scoring.
    pub(crate) fn prepared_of_table(&self, table: TableId) -> (&[(&'static str, Value, f64)], &[PreparedValue]) {
        match self.per_table.get(&table) {
            Some(table) => (&table.attributes, &table.prepared),
            None => (&[], &[]),
        }
    }

    /// Absorb another instance's per-table attributes (later entries win on
    /// table id collisions). The incremental serve path builds implicit
    /// attributes per micro-batch — they only depend on the table itself
    /// and the frozen knowledge base — and merges them into the
    /// accumulated per-class state with this.
    pub fn merge(&mut self, other: ImplicitAttributes) {
        self.per_table.extend(other.per_table);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltee_kb::{generate_world, GeneratorConfig, Scale, CLASS_KEYS};
    use ltee_matching::{match_corpus, MatcherWeights, SchemaMatchingConfig};
    use ltee_webtables::{generate_corpus, CorpusConfig, GeneratedCorpus};

    /// Number of tables with at least one implicit attribute.
    fn tables_with_attributes(implicit: &ImplicitAttributes) -> usize {
        implicit.per_table.values().filter(|table| !table.attributes.is_empty()).count()
    }

    fn setup() -> (ltee_kb::World, GeneratedCorpus, CorpusMapping) {
        let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 41));
        let corpus = generate_corpus(&world, &CorpusConfig::tiny());
        let mapping = match_corpus(
            &corpus,
            world.kb(),
            &MatcherWeights::default(),
            &SchemaMatchingConfig::default(),
            None,
        );
        (world, corpus, mapping)
    }

    #[test]
    fn row_contexts_have_labels_and_bows() {
        let (_, corpus, mapping) = setup();
        let class = ClassKey::GridironFootballPlayer;
        let rows = mapping.class_rows(&corpus, class);
        assert!(!rows.is_empty(), "schema matching should map some tables to the class");
        let mut interner = Interner::new();
        let contexts = build_row_contexts(&corpus, &mapping, &rows, &mut interner);
        assert_eq!(contexts.len(), rows.len());
        let with_labels = contexts.iter().filter(|c| !c.values().label.is_empty()).count();
        assert!(with_labels as f64 > contexts.len() as f64 * 0.9);
        assert!(contexts.iter().all(|c| !c.bow.is_empty()));
        // Interned tokens mirror the normalised labels.
        for c in &contexts {
            assert_eq!(c.label_tokens.is_empty(), ltee_text::tokenize(&c.normalized_label).is_empty());
        }
    }

    #[test]
    fn implicit_attributes_exist_for_some_tables() {
        let (world, corpus, mapping) = setup();
        for class in CLASS_KEYS {
            let index = world.kb().label_index(class);
            let implicit = ImplicitAttributes::build(&corpus, &mapping, world.kb(), class, &index);
            // Themed tables about head entities should yield implicit
            // attributes for at least a few tables.
            assert!(
                tables_with_attributes(&implicit) > 0,
                "{class}: no table received implicit attributes"
            );
        }
    }

    #[test]
    fn implicit_attribute_scores_are_above_threshold() {
        let (world, corpus, mapping) = setup();
        let class = ClassKey::Settlement;
        let index = world.kb().label_index(class);
        let implicit = ImplicitAttributes::build(&corpus, &mapping, world.kb(), class, &index);
        for tm in mapping.tables_of_class(class) {
            for (_, _, score) in implicit.of_table(tm.table) {
                assert!(*score >= ImplicitAttributes::SCORE_THRESHOLD);
                assert!(*score <= 1.0 + 1e-9);
            }
        }
    }

    /// Implicit attributes from the class matcher's candidates equal the
    /// ones built by looking every row label up again, table by table, on
    /// the tiny and the gold fixture.
    #[test]
    fn implicit_attributes_from_matcher_candidates_equal_lookups() {
        let fixtures = [(Scale::tiny(), CorpusConfig::tiny()), (Scale::gold(), CorpusConfig::gold())];
        for (scale, corpus_config) in fixtures {
            let world = generate_world(&GeneratorConfig::new(scale, 41));
            let kb = world.kb();
            let corpus = generate_corpus(&world, &corpus_config);
            let (mapping, candidates) = ltee_matching::match_corpus_and_candidates(
                &corpus,
                kb,
                &MatcherWeights::default(),
                &SchemaMatchingConfig::default(),
                None,
            );
            let mut attributes = 0;
            for class in CLASS_KEYS {
                let index = kb.class_label_index(class);
                let looked_up = ImplicitAttributes::build(&corpus, &mapping, kb, class, index);
                let reused = ImplicitAttributes::from_candidates(&corpus, &mapping, kb, class, &candidates);
                for tm in mapping.tables_of_class(class) {
                    let expected = looked_up.prepared_of_table(tm.table);
                    let got = reused.prepared_of_table(tm.table);
                    assert_eq!(format!("{got:?}"), format!("{expected:?}"), "table {}", tm.table.raw());
                    attributes += expected.0.len();
                }
                assert_eq!(tables_with_attributes(&reused), tables_with_attributes(&looked_up));
            }
            assert!(attributes > 0, "the comparison must not be vacuous");
        }
    }

    #[test]
    fn implicit_attributes_unknown_table_is_empty() {
        let implicit = ImplicitAttributes::default();
        assert!(implicit.of_table(TableId(12345)).is_empty());
    }
}
