//! Per-row context built once before clustering, and the table-level
//! implicit attributes.

use std::collections::HashMap;

use ltee_index::LabelIndex;
use ltee_intern::{Interner, TokenSeq};
use ltee_kb::{ClassKey, InstanceId, KnowledgeBase};
use ltee_matching::{CorpusMapping, RowValues};
use ltee_text::{normalize_label, tokenize_interned, BowVector};
use ltee_types::{value_equivalent, EquivalenceConfig, PreparedValue, Value};
use ltee_webtables::{Corpus, RowRef, TableId};

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
    /// scored pair. Only [`RowContext::new`] writes this and `values`, so
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
        let normalized_label = normalize_label(&values.label);
        let label_tokens = tokenize_interned(&normalized_label, interner);
        let prepared = values.values.iter().map(|(_, value)| PreparedValue::new(value)).collect();
        RowContext {
            row,
            normalized_label,
            label_tokens,
            bow,
            values,
            prepared,
        }
    }

    /// Schema-mapped values of the row.
    pub fn values(&self) -> &RowValues {
        &self.values
    }

    /// The row's (property, value, prepared value) triples, in
    /// `values().values` order.
    pub(crate) fn prepared_values(&self) -> impl Iterator<Item = (&str, &Value, &PreparedValue)> {
        self.values.values.iter().zip(&self.prepared).map(|((p, v), prepared)| (p.as_str(), v, prepared))
    }

    /// The prepared form of the row's value for `property`, if it has one.
    pub(crate) fn prepared_value(&self, property: &str) -> Option<&PreparedValue> {
        self.values.values.iter().position(|(p, _)| p == property).map(|i| &self.prepared[i])
    }
}

/// Build the row contexts for a set of rows under a corpus mapping,
/// interning each label's tokens into the run interner (sequential — the
/// sym ids depend only on row order, never on thread count).
pub fn build_row_contexts(
    corpus: &Corpus,
    mapping: &CorpusMapping,
    rows: &[RowRef],
    interner: &mut Interner,
) -> Vec<RowContext> {
    rows.iter()
        .map(|&row| {
            let values = mapping.row_values(corpus, row);
            let cells = corpus.row_cells(row);
            let bow = BowVector::from_texts(cells.iter().copied());
            RowContext::new(row, values, bow, interner)
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
    /// (property name, value, confidence score).
    attributes: Vec<(String, Value, f64)>,
    /// The values of `attributes` prepared for similarity scoring, position
    /// by position.
    prepared: Vec<PreparedValue>,
}

impl ImplicitAttributes {
    /// Minimum proportion of rows that must share a property-value
    /// combination for it to become an implicit attribute of the table.
    pub const SCORE_THRESHOLD: f64 = 0.5;

    /// Number of candidate instances considered per row label.
    const CANDIDATES_PER_ROW: usize = 3;

    /// Derive the implicit attributes of every table of a class.
    pub fn build(
        corpus: &Corpus,
        mapping: &CorpusMapping,
        kb: &KnowledgeBase,
        class: ClassKey,
        label_index: &LabelIndex,
    ) -> Self {
        let eq = EquivalenceConfig::default();
        let mut per_table = HashMap::new();
        for table_mapping in mapping.tables_of_class(class) {
            let Some(table) = corpus.table(table_mapping.table) else { continue };
            let num_rows = table.num_rows();
            if num_rows == 0 {
                continue;
            }
            // For each row, the set of property-value combinations of its
            // candidate instances.
            let mut combo_rows: HashMap<(String, String), (Value, usize)> = HashMap::new();
            for row in 0..num_rows {
                let Some(raw) = table.cell(row, table_mapping.label_column) else { continue };
                let label = ltee_text::clean_label(raw);
                if label.is_empty() {
                    continue;
                }
                let mut row_combos: HashMap<(String, String), Value> = HashMap::new();
                for m in label_index.lookup(&label, Self::CANDIDATES_PER_ROW) {
                    let Some(instance) = kb.instance(InstanceId(m.id)) else { continue };
                    for fact in &instance.facts {
                        let Some(prop) = kb.property(fact.property) else { continue };
                        let key = (prop.name.clone(), fact.value.render());
                        row_combos.entry(key).or_insert_with(|| fact.value.clone());
                    }
                }
                for (key, value) in row_combos {
                    let entry = combo_rows.entry(key).or_insert_with(|| (value, 0));
                    entry.1 += 1;
                }
            }
            let mut implicit: Vec<(String, Value, f64, String)> = combo_rows
                .into_iter()
                .filter_map(|((prop, render), (value, count))| {
                    let score = count as f64 / num_rows as f64;
                    (score >= Self::SCORE_THRESHOLD).then_some((prop, value, score, render))
                })
                .collect();
            implicit.sort_by(|a, b| {
                // Fully ordered (value render as final tiebreak): the list
                // comes out of a HashMap, and which same-score entry survives
                // dedup below must not depend on hash iteration order.
                b.2.partial_cmp(&a.2)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| a.0.cmp(&b.0))
                    .then_with(|| a.3.cmp(&b.3))
            });
            // Deduplicate by property, keeping the highest-scoring value, and
            // verify consistency with the equivalence functions (two distinct
            // renders of the same value should not produce two entries).
            let mut deduped: Vec<(String, Value, f64)> = Vec::new();
            for (prop, value, score, _render) in implicit {
                let dtype = value.data_type();
                let duplicate = deduped.iter().any(|(p, v, _)| {
                    *p == prop && value_equivalent(v, &value, dtype, &eq)
                });
                if !duplicate {
                    deduped.push((prop, value, score));
                }
            }
            let prepared = deduped.iter().map(|(_, value, _)| PreparedValue::new(value)).collect();
            per_table.insert(table_mapping.table, TableAttributes { attributes: deduped, prepared });
        }
        Self { per_table }
    }

    /// The implicit attributes of a table.
    pub fn of_table(&self, table: TableId) -> &[(String, Value, f64)] {
        self.prepared_of_table(table).0
    }

    /// The implicit attributes of a table and, position by position, their
    /// values prepared for similarity scoring.
    pub(crate) fn prepared_of_table(&self, table: TableId) -> (&[(String, Value, f64)], &[PreparedValue]) {
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

    /// Number of tables with at least one implicit attribute.
    pub fn tables_with_attributes(&self) -> usize {
        self.per_table.values().filter(|table| !table.attributes.is_empty()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltee_kb::{generate_world, GeneratorConfig, Scale, CLASS_KEYS};
    use ltee_matching::{match_corpus, MatcherWeights, SchemaMatchingConfig};
    use ltee_webtables::{generate_corpus, CorpusConfig};

    fn setup() -> (ltee_kb::World, Corpus, CorpusMapping) {
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
                implicit.tables_with_attributes() > 0,
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

    #[test]
    fn implicit_attributes_unknown_table_is_empty() {
        let implicit = ImplicitAttributes::default();
        assert!(implicit.of_table(TableId(12345)).is_empty());
    }
}
