//! A corpus of web tables.

use std::collections::HashMap;

use ltee_kb::ClassKey;

use crate::table::{RowRef, TableId, WebTable};

/// A corpus of web tables, the unit the pipeline operates on.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    tables: Vec<WebTable>,
    by_id: HashMap<TableId, usize>,
}

impl Corpus {
    /// Create an empty corpus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a corpus from tables.
    pub fn from_tables(tables: Vec<WebTable>) -> Self {
        let by_id = tables.iter().enumerate().map(|(i, t)| (t.id, i)).collect();
        Self { tables, by_id }
    }

    /// Add a table.
    pub fn push(&mut self, table: WebTable) {
        self.by_id.insert(table.id, self.tables.len());
        self.tables.push(table);
    }

    /// All tables.
    pub fn tables(&self) -> &[WebTable] {
        &self.tables
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when the corpus holds no tables.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Look up a table by id.
    pub fn table(&self, id: TableId) -> Option<&WebTable> {
        self.by_id.get(&id).map(|&i| &self.tables[i])
    }

    /// The raw cells of a row.
    pub fn row_cells(&self, row: RowRef) -> Vec<&str> {
        self.table(row.table).map(|t| t.row_cells(row.row)).unwrap_or_default()
    }

    /// Tables whose ground truth says they are about `class`; tables
    /// without truth are skipped.
    ///
    /// Used by the corpus-level experiments to partition work per class; the
    /// pipeline's own table-to-class matching does not read the truth.
    pub fn tables_of_class(&self, class: ClassKey) -> Vec<&WebTable> {
        self.tables
            .iter()
            .filter(|t| t.truth.as_ref().is_some_and(|truth| truth.class == class))
            .collect()
    }

    /// Split the corpus into `batches` contiguous micro-batches of (nearly)
    /// equal table counts, preserving table order. The first
    /// `len() % batches` batches receive one extra table. Batches that
    /// would be empty (more batches than tables) are omitted, so the
    /// result concatenates back to exactly this corpus.
    ///
    /// This is the delta-batch helper for the incremental serve path:
    /// ingesting the returned batches in order through
    /// `IncrementalPipeline` is equivalent to streaming the whole corpus
    /// at once.
    pub fn split_into_batches(&self, batches: usize) -> Vec<Corpus> {
        if batches == 0 || self.tables.is_empty() {
            return if self.tables.is_empty() {
                Vec::new()
            } else {
                vec![self.clone()]
            };
        }
        let batches = batches.min(self.tables.len());
        let base = self.tables.len() / batches;
        let extra = self.tables.len() % batches;
        let mut out = Vec::with_capacity(batches);
        let mut start = 0;
        for i in 0..batches {
            let size = base + usize::from(i < extra);
            let end = start + size;
            out.push(Corpus::from_tables(self.tables[start..end].to_vec()));
            start = end;
        }
        out
    }

    /// Split the corpus into contiguous micro-batches of at most
    /// `tables_per_batch` tables each, preserving table order.
    pub fn split_by_tables(&self, tables_per_batch: usize) -> Vec<Corpus> {
        self.tables
            .chunks(tables_per_batch.max(1))
            .map(|chunk| Corpus::from_tables(chunk.to_vec()))
            .collect()
    }

    /// Total number of rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(|t| t.num_rows()).sum()
    }

    /// Total number of rows in tables of one class (by ground truth).
    pub fn total_rows_of_class(&self, class: ClassKey) -> usize {
        self.tables_of_class(class).iter().map(|t| t.num_rows()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{Column, TableTruth};
    use ltee_kb::EntityId;

    fn table(id: u64, class: ClassKey, rows: usize) -> WebTable {
        WebTable {
            id: TableId(id),
            columns: vec![Column {
                header: "name".into(),
                cells: (0..rows).map(|r| format!("entity {r}")).collect(),
            }],
            truth: Some(TableTruth {
                class,
                label_column: 0,
                column_property: vec![None],
                row_entity: (0..rows).map(|r| EntityId(r as u64)).collect(),
            }),
        }
    }

    #[test]
    fn from_tables_builds_lookup() {
        let corpus = Corpus::from_tables(vec![table(1, ClassKey::Song, 2), table(2, ClassKey::Settlement, 3)]);
        assert_eq!(corpus.len(), 2);
        assert_eq!(corpus.table(TableId(2)).unwrap().num_rows(), 3);
        assert!(corpus.table(TableId(9)).is_none());
    }

    #[test]
    fn push_keeps_lookup_consistent() {
        let mut corpus = Corpus::new();
        corpus.push(table(5, ClassKey::Song, 1));
        assert!(corpus.table(TableId(5)).is_some());
    }

    #[test]
    fn class_partition_and_row_counts() {
        let corpus = Corpus::from_tables(vec![
            table(1, ClassKey::Song, 2),
            table(2, ClassKey::Song, 4),
            table(3, ClassKey::Settlement, 3),
            WebTable { truth: None, ..table(4, ClassKey::Song, 5) },
        ]);
        assert_eq!(corpus.tables_of_class(ClassKey::Song).len(), 2);
        assert_eq!(corpus.total_rows(), 14);
        assert_eq!(corpus.total_rows_of_class(ClassKey::Song), 6);
    }

    #[test]
    fn row_cells_resolves_through_corpus() {
        let corpus = Corpus::from_tables(vec![table(1, ClassKey::Song, 2)]);
        assert_eq!(corpus.row_cells(RowRef::new(TableId(1), 1)), vec!["entity 1"]);
        assert!(corpus.row_cells(RowRef::new(TableId(7), 0)).is_empty());
    }

    #[test]
    fn empty_corpus_reports_empty() {
        let corpus = Corpus::new();
        assert!(corpus.is_empty());
        assert_eq!(corpus.total_rows(), 0);
    }

    #[test]
    fn split_into_batches_partitions_in_order() {
        let corpus = Corpus::from_tables(
            (1..=7).map(|i| table(i, ClassKey::Song, 2)).collect(),
        );
        let batches = corpus.split_into_batches(3);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches.iter().map(Corpus::len).collect::<Vec<_>>(), vec![3, 2, 2]);
        let rejoined: Vec<u64> = batches
            .iter()
            .flat_map(|b| b.tables().iter().map(|t| t.id.raw()))
            .collect();
        assert_eq!(rejoined, (1..=7).collect::<Vec<_>>());
        // Each batch has a working id lookup.
        assert!(batches[1].table(TableId(4)).is_some());
    }

    #[test]
    fn split_handles_degenerate_counts() {
        let corpus = Corpus::from_tables(vec![table(1, ClassKey::Song, 1), table(2, ClassKey::Song, 1)]);
        assert_eq!(corpus.split_into_batches(0).len(), 1);
        assert_eq!(corpus.split_into_batches(5).len(), 2);
        assert!(Corpus::new().split_into_batches(3).is_empty());
        let by_tables = corpus.split_by_tables(1);
        assert_eq!(by_tables.len(), 2);
        assert_eq!(corpus.split_by_tables(0).len(), 2); // clamped to 1 per batch
    }
}
