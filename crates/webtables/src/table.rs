//! The relational web table model.

use ltee_intern::StrList;

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
    /// One list, two heap blocks, however many rows the column has.
    pub cells: StrList,
}

/// A relational web table.
#[derive(Debug, Clone, PartialEq)]
pub struct WebTable {
    /// Identifier within the corpus.
    pub id: TableId,
    /// The columns (including the label attribute).
    pub columns: Vec<Column>,
}

ltee_intern::heap_size! {
    TableId {}
    RowRef {}
    Column { header, cells }
    WebTable { columns }
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
        self.columns.get(column).and_then(|c| c.cells.get(row))
    }

    /// All cells of a row (one per column).
    pub fn row_cells(&self, row: usize) -> Vec<&str> {
        self.columns.iter().filter_map(|c| c.cells.get(row)).collect()
    }

    /// Iterator over the row references of this table.
    pub fn row_refs(&self) -> impl Iterator<Item = RowRef> + '_ {
        (0..self.num_rows()).map(move |r| RowRef::new(self.id, r))
    }

    /// Check the internal consistency of the table: every column has the
    /// same number of cells. Ingest and the decoders require it.
    pub fn validate(&self) -> Result<(), String> {
        let rows = self.num_rows();
        for (i, c) in self.columns.iter().enumerate() {
            if c.cells.len() != rows {
                return Err(format!("column {i} has {} cells, expected {rows}", c.cells.len()));
            }
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
                Column { header: "player".into(), cells: ["Tom Brady", "Eli Manning"].into_iter().collect() },
                Column { header: "team".into(), cells: ["Patriots", "Giants"].into_iter().collect() },
            ],
        }
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
        assert!(sample_table().validate().is_ok());
    }

    #[test]
    fn validate_rejects_ragged_columns() {
        let mut t = sample_table();
        t.columns[1].cells = ["Patriots"].into_iter().collect();
        assert!(t.validate().is_err());
    }

    #[test]
    fn row_ref_display_is_compact() {
        assert_eq!(RowRef::new(TableId(3), 4).to_string(), "t3r4");
    }
}
