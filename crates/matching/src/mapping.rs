//! Output structures of schema matching and the feedback structures carried
//! between pipeline iterations.

use std::collections::HashMap;

use ltee_kb::{ClassKey, InstanceId, KnowledgeBase};
use ltee_types::{parse_cell_as, DataType, DetectedType, Value};
use ltee_webtables::{Corpus, RowRef, TableId, WebTable};

/// A correspondence between a table column and a knowledge base property.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeMatch {
    /// The matched property: its schema entry's name.
    pub property: &'static str,
    /// The data type of the matched property (the column's values are
    /// normalised to this type after matching).
    pub data_type: DataType,
    /// The aggregated matcher score of the correspondence.
    pub score: f64,
}

/// Schema matching result for one table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableMapping {
    /// The table.
    pub table: TableId,
    /// The matched class (None when no class reached the minimum score).
    pub class: Option<ClassKey>,
    /// Index of the detected label attribute column
    /// ([`crate::detect_label_attribute`], a function of the table).
    pub label_column: usize,
    /// Detected coarse data type per column ([`crate::detect_column_types`],
    /// a function of the table).
    pub detected_types: Vec<DetectedType>,
    /// Attribute-to-property correspondence per column (None for the label
    /// column and unmatched columns).
    pub correspondences: Vec<Option<AttributeMatch>>,
}

ltee_intern::heap_size! {
    AttributeMatch {}
    TableMapping { detected_types, correspondences }
    RowValues { label, values }
    CorpusMapping { tables }
}

impl TableMapping {
    /// The properties matched in this table with their column indices.
    pub fn matched_columns(&self) -> Vec<(usize, &AttributeMatch)> {
        self.correspondences
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_ref().map(|m| (i, m)))
            .collect()
    }

    /// Number of matched attribute columns.
    pub fn matched_count(&self) -> usize {
        self.correspondences.iter().filter(|c| c.is_some()).count()
    }

    /// A row's label: its cell in the label attribute, cleaned (empty when
    /// the row has no such cell).
    pub fn row_label(&self, table: &WebTable, row: usize) -> String {
        table.cell(row, self.label_column).map(ltee_text::clean_label).unwrap_or_default()
    }
}

/// Values of one row, extracted according to the schema mapping.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RowValues {
    /// The row's label (from the label attribute).
    pub label: String,
    /// Property → normalised value, for every matched column with a
    /// parseable, non-empty cell.
    pub values: Vec<(&'static str, Value)>,
}

impl RowValues {
    /// The value for a property, if present.
    pub fn value(&self, property: &str) -> Option<&Value> {
        self.values.iter().find(|(p, _)| *p == property).map(|(_, v)| v)
    }
}

/// The schema matching result for a whole corpus.
#[derive(Debug, Clone, Default)]
pub struct CorpusMapping {
    tables: HashMap<TableId, TableMapping>,
}

impl CorpusMapping {
    /// Build from per-table mappings.
    pub fn from_tables(tables: Vec<TableMapping>) -> Self {
        Self { tables: tables.into_iter().map(|t| (t.table, t)).collect() }
    }

    /// The mapping of a table.
    pub fn table(&self, id: TableId) -> Option<&TableMapping> {
        self.tables.get(&id)
    }

    /// Iterate over all table mappings.
    pub fn tables(&self) -> impl Iterator<Item = &TableMapping> {
        self.tables.values()
    }

    /// Number of mapped tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether the mapping is empty.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Tables mapped to a given class.
    pub fn tables_of_class(&self, class: ClassKey) -> Vec<&TableMapping> {
        let mut v: Vec<&TableMapping> =
            self.tables.values().filter(|t| t.class == Some(class)).collect();
        v.sort_by_key(|t| t.table);
        v
    }

    /// Extract the schema-mapped values of a row.
    ///
    /// The label comes from the detected label attribute; every matched
    /// column contributes its cell parsed as the matched property's data
    /// type (empty and unparseable cells are skipped).
    pub fn row_values(&self, corpus: &Corpus, row: RowRef) -> RowValues {
        let Some(mapping) = self.table(row.table) else { return RowValues::default() };
        let Some(table) = corpus.table(row.table) else { return RowValues::default() };
        extract_row_values(table, mapping, row.row)
    }

    /// Absorb another mapping's tables into this one (later mappings win on
    /// table id collisions). Used by the incremental serve path to grow the
    /// accumulated corpus mapping one micro-batch at a time.
    pub fn merge(&mut self, other: CorpusMapping) {
        self.tables.extend(other.tables);
    }

    /// Row references of all rows in tables mapped to `class`.
    pub fn class_rows(&self, corpus: &Corpus, class: ClassKey) -> Vec<RowRef> {
        let mut rows = Vec::new();
        for mapping in self.tables_of_class(class) {
            if let Some(table) = corpus.table(mapping.table) {
                rows.extend(table.row_refs());
            }
        }
        rows
    }
}

/// Extract the label and mapped values of one row given its table's mapping.
pub fn extract_row_values(table: &WebTable, mapping: &TableMapping, row: usize) -> RowValues {
    let label = mapping.row_label(table, row);
    let mut values = Vec::new();
    for (col, m) in mapping.matched_columns() {
        if let Some(cell) = table.cell(row, col) {
            if let Some(value) = parse_cell_as(cell, m.data_type) {
                values.push((m.property, value));
            }
        }
    }
    RowValues { label, values }
}

/// Feedback produced by a previous pipeline iteration, consumed by the
/// duplicate-based and corpus-level matchers in the next iteration.
#[derive(Debug, Clone, Default)]
pub struct CorpusFeedback {
    /// The previous iteration's schema mapping (used by WT-Label to derive
    /// header-label statistics).
    pub mapping: CorpusMapping,
    /// Row clusters from the previous row clustering run.
    pub clusters: Vec<Vec<RowRef>>,
    /// Cluster index → knowledge base instance, for clusters that the new
    /// detection component matched to an existing instance.
    pub cluster_instance: HashMap<usize, InstanceId>,
}

impl CorpusFeedback {
    /// Cluster index containing a row, if any.
    pub fn cluster_of_row(&self, row: RowRef) -> Option<usize> {
        self.clusters.iter().position(|c| c.contains(&row))
    }

    /// The knowledge base instance a row was (indirectly) matched to, if its
    /// cluster has an instance correspondence.
    pub fn instance_of_row(&self, row: RowRef, kb: &KnowledgeBase) -> Option<InstanceId> {
        let cluster = self.cluster_of_row(row)?;
        let id = self.cluster_instance.get(&cluster)?;
        kb.instance(*id).map(|i| i.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltee_webtables::Column;

    fn table_and_mapping() -> (WebTable, TableMapping) {
        let table = WebTable {
            id: TableId(1),
            columns: vec![
                Column { header: "player".into(), cells: ["Tom Brady", "Eli Manning"].into_iter().collect() },
                Column { header: "team".into(), cells: ["Patriots", ""].into_iter().collect() },
                Column { header: "no".into(), cells: ["12", "10"].into_iter().collect() },
            ],
        };
        let mapping = TableMapping {
            table: TableId(1),
            class: Some(ClassKey::GridironFootballPlayer),
            label_column: 0,
            detected_types: vec![DetectedType::Text, DetectedType::Text, DetectedType::Quantity],
            correspondences: vec![
                None,
                Some(AttributeMatch { property: "team", data_type: DataType::InstanceReference, score: 0.8 }),
                Some(AttributeMatch { property: "number", data_type: DataType::NominalInteger, score: 0.7 }),
            ],
        };
        (table, mapping)
    }

    #[test]
    fn extract_row_values_reads_label_and_typed_values() {
        let (table, mapping) = table_and_mapping();
        let rv = extract_row_values(&table, &mapping, 0);
        assert_eq!(rv.label, "Tom Brady");
        assert_eq!(rv.value("team"), Some(&Value::InstanceRef("Patriots".into())));
        assert_eq!(rv.value("number"), Some(&Value::NominalInt(12)));
    }

    #[test]
    fn extract_row_values_skips_empty_cells() {
        let (table, mapping) = table_and_mapping();
        let rv = extract_row_values(&table, &mapping, 1);
        assert_eq!(rv.label, "Eli Manning");
        assert!(rv.value("team").is_none());
        assert_eq!(rv.value("number"), Some(&Value::NominalInt(10)));
    }

    #[test]
    fn corpus_mapping_lookup_and_class_partition() {
        let (_, mapping) = table_and_mapping();
        let cm = CorpusMapping::from_tables(vec![mapping]);
        assert_eq!(cm.len(), 1);
        assert!(cm.table(TableId(1)).is_some());
        assert_eq!(cm.tables_of_class(ClassKey::GridironFootballPlayer).len(), 1);
        assert!(cm.tables_of_class(ClassKey::Song).is_empty());
    }

    #[test]
    fn matched_columns_excludes_label_and_unmatched() {
        let (_, mapping) = table_and_mapping();
        assert_eq!(mapping.matched_count(), 2);
        let cols: Vec<usize> = mapping.matched_columns().iter().map(|(i, _)| *i).collect();
        assert_eq!(cols, vec![1, 2]);
    }

    #[test]
    fn feedback_cluster_lookup() {
        let fb = CorpusFeedback {
            mapping: CorpusMapping::default(),
            clusters: vec![
                vec![RowRef::new(TableId(1), 0), RowRef::new(TableId(2), 3)],
                vec![RowRef::new(TableId(1), 1)],
            ],
            cluster_instance: HashMap::from([(0, InstanceId(9))]),
        };
        assert_eq!(fb.cluster_of_row(RowRef::new(TableId(2), 3)), Some(0));
        assert_eq!(fb.cluster_of_row(RowRef::new(TableId(5), 0)), None);
    }

    #[test]
    fn row_values_value_lookup_missing_property() {
        let rv = RowValues { label: "x".into(), values: vec![("a", Value::Quantity(1.0))] };
        assert!(rv.value("b").is_none());
    }
}
