//! The relational web table model.

use ltee_kb::{ClassKey, EntityId};

/// Identifier of a table within a corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u64);

impl TableId {
    /// Raw numeric value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// A reference to one row of one table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowRef {
    /// The table.
    pub table: TableId,
    /// Zero-based row index within the table.
    pub row: usize,
}

impl RowRef {
    /// Construct a row reference.
    pub fn new(table: TableId, row: usize) -> Self {
        Self { table, row }
    }
}

impl std::fmt::Display for RowRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}r{}", self.table.0, self.row)
    }
}

/// One attribute column of a web table: a header label and raw string cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// The header row label of the column.
    pub header: String,
    /// Raw cell strings, one per row; empty strings are missing values.
    pub cells: Vec<String>,
}

/// Ground truth attached to a generated table.
///
/// Only the corpus generators write this, and only the gold standard and the
/// evaluation read it; pipeline components operate exclusively on the raw
/// [`Column`]s, and the serve path neither keeps nor persists it.
#[derive(Debug, Clone, PartialEq)]
pub struct TableTruth {
    /// The class the table is about.
    pub class: ClassKey,
    /// Index of the true label attribute column.
    pub label_column: usize,
    /// For each column, the knowledge base property it publishes (`None` for
    /// the label column and for noise columns).
    pub column_property: Vec<Option<String>>,
    /// For each row, the world entity it describes.
    pub row_entity: Vec<EntityId>,
}

/// A relational web table.
#[derive(Debug, Clone, PartialEq)]
pub struct WebTable {
    /// Identifier within the corpus.
    pub id: TableId,
    /// The columns (including the label attribute).
    pub columns: Vec<Column>,
    /// Ground truth for evaluation (see [`TableTruth`]): set by the
    /// generators, absent from every table the serve path holds.
    pub truth: Option<TableTruth>,
}

impl WebTable {
    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.columns.first().map(|c| c.cells.len()).unwrap_or(0)
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// The raw cell at `(row, column)`, if it exists.
    pub fn cell(&self, row: usize, column: usize) -> Option<&str> {
        self.columns.get(column).and_then(|c| c.cells.get(row)).map(String::as_str)
    }

    /// All cells of a row (one per column).
    pub fn row_cells(&self, row: usize) -> Vec<&str> {
        self.columns.iter().filter_map(|c| c.cells.get(row)).map(String::as_str).collect()
    }

    /// Iterator over the row references of this table.
    pub fn row_refs(&self) -> impl Iterator<Item = RowRef> + '_ {
        (0..self.num_rows()).map(move |r| RowRef::new(self.id, r))
    }

    /// Check the internal consistency of the table: every column has the
    /// same number of cells. This is everything a stored table has, so it
    /// is what ingest accepts and what the decoders require.
    pub fn validate(&self) -> Result<(), String> {
        let rows = self.num_rows();
        for (i, c) in self.columns.iter().enumerate() {
            if c.cells.len() != rows {
                return Err(format!("column {i} has {} cells, expected {rows}", c.cells.len()));
            }
        }
        Ok(())
    }

    /// Check that the table's ground truth, if any, fits its shape: one
    /// annotation per column and per row, and a label column that exists.
    /// Whoever reads the truth checks it.
    pub fn validate_truth(&self) -> Result<(), String> {
        let Some(truth) = &self.truth else { return Ok(()) };
        if truth.column_property.len() != self.columns.len() {
            return Err(format!(
                "truth has {} column annotations for {} columns",
                truth.column_property.len(),
                self.columns.len()
            ));
        }
        if truth.row_entity.len() != self.num_rows() {
            return Err(format!(
                "truth has {} row annotations for {} rows",
                truth.row_entity.len(),
                self.num_rows()
            ));
        }
        if truth.label_column >= self.columns.len() {
            return Err("label column out of range".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> WebTable {
        WebTable {
            id: TableId(1),
            columns: vec![
                Column { header: "player".into(), cells: vec!["Tom Brady".into(), "Eli Manning".into()] },
                Column { header: "team".into(), cells: vec!["Patriots".into(), "Giants".into()] },
            ],
            truth: Some(TableTruth {
                class: ClassKey::GridironFootballPlayer,
                label_column: 0,
                column_property: vec![None, Some("team".into())],
                row_entity: vec![EntityId(10), EntityId(11)],
            }),
        }
    }

    fn truth(t: &mut WebTable) -> &mut TableTruth {
        t.truth.as_mut().unwrap()
    }

    #[test]
    fn dimensions_are_reported() {
        let t = sample_table();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.num_columns(), 2);
    }

    #[test]
    fn cell_access() {
        let t = sample_table();
        assert_eq!(t.cell(0, 1), Some("Patriots"));
        assert_eq!(t.cell(5, 0), None);
        assert_eq!(t.cell(0, 9), None);
    }

    #[test]
    fn row_cells_collects_across_columns() {
        let t = sample_table();
        assert_eq!(t.row_cells(1), vec!["Eli Manning", "Giants"]);
    }

    #[test]
    fn row_refs_cover_all_rows() {
        let t = sample_table();
        let refs: Vec<RowRef> = t.row_refs().collect();
        assert_eq!(refs.len(), 2);
        assert_eq!(refs[1], RowRef::new(TableId(1), 1));
    }

    #[test]
    fn validate_accepts_consistent_table() {
        let t = sample_table();
        assert!(t.validate().is_ok() && t.validate_truth().is_ok());
        let bare = WebTable { truth: None, ..t };
        assert!(bare.validate().is_ok() && bare.validate_truth().is_ok());
    }

    #[test]
    fn validate_rejects_ragged_columns() {
        let mut t = sample_table();
        t.columns[1].cells.pop();
        assert!(t.validate().is_err());
        t.truth = None;
        assert!(t.validate().is_err(), "a ragged table is ragged with or without truth");
    }

    #[test]
    fn validate_rejects_wrong_truth_lengths() {
        let mut t = sample_table();
        truth(&mut t).row_entity.pop();
        assert!(t.validate().is_ok(), "the stored table is fine");
        assert!(t.validate_truth().is_err());
        let mut t2 = sample_table();
        truth(&mut t2).column_property.push(None);
        assert!(t2.validate_truth().is_err());
    }

    #[test]
    fn validate_rejects_out_of_range_label_column() {
        let mut t = sample_table();
        truth(&mut t).label_column = 7;
        assert!(t.validate_truth().is_err());
    }

    #[test]
    fn row_ref_display_is_compact() {
        assert_eq!(RowRef::new(TableId(3), 4).to_string(), "t3r4");
    }
}
