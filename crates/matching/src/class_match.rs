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

use ltee_index::LabelIndex;
use ltee_kb::{ClassKey, InstanceId, KnowledgeBase};
use ltee_types::{parse_cell_as, value_equivalent, DetectedType, EquivalenceConfig};
use ltee_webtables::WebTable;

/// Minimum fuzzy label score for a knowledge base instance to count as a
/// candidate for a row.
const CANDIDATE_LABEL_THRESHOLD: f64 = 0.55;

/// Match a table to a knowledge base class.
///
/// Returns the winning class and its aggregated score, or `None` when no
/// class gathered any evidence (e.g. a table whose rows match nothing).
pub fn match_table_class(
    table: &WebTable,
    label_column: usize,
    detected: &[DetectedType],
    kb: &KnowledgeBase,
    class_indexes: &[(ClassKey, LabelIndex)],
) -> (Option<ClassKey>, f64) {
    let eq = EquivalenceConfig::default();
    let mut best: Option<(ClassKey, f64)> = None;

    for (class, index) in class_indexes {
        let properties = kb.class_property_slice(*class);
        let mut row_hits = 0usize;
        let mut duplicate_cells = 0usize;

        for row in 0..table.num_rows() {
            let Some(raw_label) = table.cell(row, label_column) else { continue };
            let label = ltee_text::clean_label(raw_label);
            if label.is_empty() {
                continue;
            }
            let matches = index.lookup(&label, 3);
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
            best = Some((*class, score));
        }
    }

    match best {
        Some((class, score)) => (Some(class), score),
        None => (None, 0.0),
    }
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
            let (class, _) = match_table_class(table, label_col, &detected, kb, indexes);
            if let Some(c) = class {
                decided += 1;
                if c == table.truth.class {
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
            columns: vec![ltee_webtables::Column { header: "x".into(), cells: vec!["zzz qqq".into()] }],
            truth: ltee_webtables::TableTruth {
                class: ClassKey::Song,
                label_column: 0,
                column_property: vec![None],
                row_entity: vec![ltee_kb::EntityId(0)],
            },
        };
        let detected = detect_column_types(&table);
        let (class, score) = match_table_class(&table, 0, &detected, kb, indexes);
        assert!(class.is_none());
        assert_eq!(score, 0.0);
    }
}
