//! Table-to-class matching.
//!
//! "We first extract from the label attribute a label for each row, and use
//! the label to find candidate instances from the knowledge base. A class,
//! for which many rows of a table have a candidate instance, is chosen as a
//! possible candidate class of that table. … Given these candidate classes,
//! we then evaluate how well their properties match [duplicate-based
//! attribute-to-property matching]. Per candidate class, we aggregate all
//! scores to compute a ranked list of candidate classes. We choose the class
//! with the highest score as the class of the table." (Section 3.1)

use std::collections::HashMap;

use ltee_index::{LabelMatch, SharedLabelIndex};
use ltee_kb::{ClassKey, InstanceId, KnowledgeBase};
use ltee_types::{parse_cell_as, value_equivalent, DetectedType, EquivalenceConfig};
use ltee_webtables::{TableId, WebTable};
use rayon::prelude::*;

/// Minimum fuzzy label score for a knowledge base instance to count as a
/// candidate for a row.
const CANDIDATE_LABEL_THRESHOLD: f64 = 0.55;

/// Number of candidate instances looked up per row label. The matcher
/// retrieves them for every class, and the winning class's lists are the
/// candidates implicit attributes (Section 3.2) are derived from — which
/// is why this is one constant: a row's implicit-attribute candidates are
/// the matcher's only while the two counts agree.
pub const CANDIDATES_PER_ROW: usize = 3;

/// Every row label of a set of tables looked up in every class index,
/// each distinct (class, normalised label) pair once: a lookup's result
/// depends on the normalised label alone, and one corpus repeats labels
/// across tables.
#[derive(Debug, Default)]
pub(crate) struct RowLookups {
    classes: usize,
    /// Label-major: `matches[slot * classes + c]` is the top
    /// [`CANDIDATES_PER_ROW`] of label `slot` in the `c`-th class index.
    matches: Vec<Vec<LabelMatch>>,
}

/// Per row of one table, the [`RowLookups`] slot of its cleaned label;
/// `None` for a row without one.
pub(crate) type RowSlots = Vec<Option<usize>>;

impl RowLookups {
    /// Look up the labels of every table — `(table, label column)` — and
    /// return each table's row slots beside the lookups. Labels are
    /// numbered in first-appearance order and the lookups run on the pool.
    pub(crate) fn run(
        tables: &[(&WebTable, usize)],
        class_indexes: &[(ClassKey, SharedLabelIndex)],
    ) -> (Vec<RowSlots>, Self) {
        let labels: Vec<Vec<Option<(String, String)>>> = tables
            .par_iter()
            .map(|&(table, label_column)| {
                (0..table.num_rows())
                    .map(|row| {
                        let label = ltee_text::clean_label(table.cell(row, label_column)?);
                        (!label.is_empty()).then(|| (ltee_text::normalize_label(&label), label))
                    })
                    .collect()
            })
            .collect();
        let mut slot_of: HashMap<String, usize> = HashMap::new();
        let mut distinct: Vec<String> = Vec::new();
        let slots = labels
            .into_iter()
            .map(|rows| {
                rows.into_iter()
                    .map(|row| {
                        let (normalized, label) = row?;
                        Some(*slot_of.entry(normalized).or_insert_with(|| {
                            distinct.push(label);
                            distinct.len() - 1
                        }))
                    })
                    .collect()
            })
            .collect();
        let classes = class_indexes.len();
        let matches = (0..distinct.len() * classes)
            .into_par_iter()
            .map(|at| {
                let (label, class) = (&distinct[at / classes], at % classes);
                class_indexes[class].1.lookup(label, CANDIDATES_PER_ROW)
            })
            .collect();
        (slots, Self { classes, matches })
    }

    /// The lookup of a label slot in the `class`-th class index.
    pub(crate) fn get(&self, slot: usize, class: usize) -> &[LabelMatch] {
        &self.matches[slot * self.classes + class]
    }
}

/// The KB candidates the class matcher retrieved for the rows of the
/// tables it matched: per table with a class, per row, the instances of
/// the top [`CANDIDATES_PER_ROW`] lookup of the row's label in the winning
/// class's label index, best first (empty for a row without a label).
/// Returned beside a [`crate::CorpusMapping`] by
/// [`crate::match_corpus_and_candidates`], so implicit attributes read them
/// instead of looking every label up again; derived data, never persisted.
#[derive(Debug, Clone, Default)]
pub struct RowCandidates {
    per_table: HashMap<TableId, Vec<Vec<InstanceId>>>,
}

impl RowCandidates {
    /// Per row of `table`, its candidate instances; `None` when the table
    /// was not matched to a class.
    pub fn of_table(&self, table: TableId) -> Option<&[Vec<InstanceId>]> {
        self.per_table.get(&table).map(Vec::as_slice)
    }

    /// Keep the winning class's lookups of a matched table.
    pub(crate) fn insert(&mut self, table: TableId, slots: &RowSlots, lookups: &RowLookups, class: usize) {
        let rows = slots
            .iter()
            .map(|slot| match slot {
                Some(slot) => lookups.get(*slot, class).iter().map(|m| InstanceId(m.id)).collect(),
                None => Vec::new(),
            })
            .collect();
        self.per_table.insert(table, rows);
    }
}

/// Match a table to a knowledge base class, from its rows' label lookups
/// (`slots` into `lookups`).
///
/// Returns the winning class's position in `class_indexes`, or `None` when
/// no class gathered any evidence (e.g. a table whose rows match nothing).
pub(crate) fn match_table_class(
    table: &WebTable,
    label_column: usize,
    detected: &[DetectedType],
    kb: &KnowledgeBase,
    class_indexes: &[(ClassKey, SharedLabelIndex)],
    slots: &RowSlots,
    lookups: &RowLookups,
) -> Option<usize> {
    let eq = EquivalenceConfig::default();
    let mut best: Option<(usize, f64)> = None;

    for (position, (class, _)) in class_indexes.iter().enumerate() {
        let properties = kb.class_property_slice(*class);
        let mut row_hits = 0usize;
        let mut duplicate_cells = 0usize;

        for (row, slot) in slots.iter().enumerate() {
            let Some(slot) = *slot else { continue };
            let matches = lookups.get(slot, position);
            let Some(top) = matches.first().filter(|m| m.score >= CANDIDATE_LABEL_THRESHOLD) else {
                continue;
            };
            row_hits += 1;

            // Duplicate-based evidence: compare the row's remaining cells to
            // the candidate instance's facts, blocking by detected type.
            let candidate = InstanceId(top.id);
            let Some(instance) = kb.instance(candidate) else { continue };
            for (col, cell_type) in detected.iter().enumerate() {
                if col == label_column {
                    continue;
                }
                let Some(cell) = table.cell(row, col) else { continue };
                if cell.trim().is_empty() {
                    continue;
                }
                for prop in properties {
                    if !cell_type.candidate_property_types().contains(&prop.data_type) {
                        continue;
                    }
                    let Some(fact) = instance.fact(prop.id) else { continue };
                    let Some(value) = parse_cell_as(cell, prop.data_type) else { continue };
                    if value_equivalent(&value, fact, prop.data_type, &eq) {
                        duplicate_cells += 1;
                        break;
                    }
                }
            }
        }

        if row_hits == 0 {
            continue;
        }
        let score = row_hits as f64 + duplicate_cells as f64;
        if best.map(|(_, s)| score > s).unwrap_or(true) {
            best = Some((position, score));
        }
    }

    best.map(|(position, _)| position)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label_attr::{detect_column_types, detect_label_attribute};
    use ltee_kb::{generate_world, GeneratorConfig, Scale};
    use ltee_webtables::{generate_corpus, CorpusConfig};

    #[test]
    fn majority_of_generated_tables_match_their_true_class() {
        let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 31));
        let corpus = generate_corpus(&world, &CorpusConfig::tiny());
        let kb = world.kb();
        let indexes = kb.class_label_indexes();

        let mut correct = 0usize;
        let mut decided = 0usize;
        for table in corpus.tables() {
            let detected = detect_column_types(table);
            let label_col = detect_label_attribute(table, &detected);
            let (slots, lookups) = RowLookups::run(&[(table, label_col)], indexes);
            let class = match_table_class(table, label_col, &detected, kb, indexes, &slots[0], &lookups);
            if let Some(c) = class.map(|position| indexes[position].0) {
                decided += 1;
                if corpus.truth(table.id).is_some_and(|truth| truth.class == c) {
                    correct += 1;
                }
            }
        }
        assert!(decided > corpus.len() / 2, "too few tables decided: {decided}/{}", corpus.len());
        let accuracy = correct as f64 / decided as f64;
        assert!(accuracy > 0.8, "table-to-class accuracy {accuracy:.2}");
    }

    #[test]
    fn empty_table_matches_nothing() {
        let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 1));
        let kb = world.kb();
        let indexes = kb.class_label_indexes();
        let table = ltee_webtables::WebTable {
            id: ltee_webtables::TableId(99),
            columns: vec![ltee_webtables::Column { header: "x".into(), cells: ["zzz qqq"].into_iter().collect() }],
        };
        let detected = detect_column_types(&table);
        let (slots, lookups) = RowLookups::run(&[(&table, 0)], indexes);
        assert!(match_table_class(&table, 0, &detected, kb, indexes, &slots[0], &lookups).is_none());
    }
}
