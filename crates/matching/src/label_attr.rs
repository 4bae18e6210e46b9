//! Column data type detection and label attribute detection.

use ltee_types::{detect_column_type, DetectedType};
use ltee_webtables::WebTable;

/// Detect the coarse data type of every column of a table by majority vote
/// over its cells (paper Section 3.1, data type detection).
pub fn detect_column_types(table: &WebTable) -> Vec<DetectedType> {
    table
        .columns
        .iter()
        .map(|c| detect_column_type(c.cells.iter().map(String::as_str)))
        .collect()
}

/// Detect the label attribute: "the column with the data type text and the
/// highest number of unique values. In case there is a tie between multiple
/// columns, we choose the column that is furthest to the left."
///
/// If no column was detected as text, the leftmost column is used as a
/// fallback so that downstream components always have a label source.
pub fn detect_label_attribute(table: &WebTable, detected: &[DetectedType]) -> usize {
    // One table-local interner maps every normalised cell to a dense sym:
    // uniqueness counting then dedupes integers instead of owned strings,
    // and cells repeated across columns normalise into one arena slot.
    let mut interner = ltee_intern::Interner::new();
    let mut best: Option<(usize, usize)> = None; // (unique count, column) — compared as (count, -col)
    for (col, dtype) in detected.iter().enumerate() {
        if *dtype != DetectedType::Text {
            continue;
        }
        let unique: std::collections::HashSet<ltee_intern::Sym> = table.columns[col]
            .cells
            .iter()
            .filter(|c| !c.trim().is_empty())
            .map(|c| ltee_text::normalize_and_intern(c, &mut interner))
            .collect();
        let count = unique.len();
        let better = match best {
            None => true,
            // Strictly greater wins; ties keep the earlier (leftmost) column.
            Some((best_count, _)) => count > best_count,
        };
        if better {
            best = Some((count, col));
        }
    }
    best.map(|(_, col)| col).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltee_webtables::{Column, TableId};

    fn table(columns: Vec<Column>) -> WebTable {
        WebTable { id: TableId(0), columns }
    }

    #[test]
    fn detects_types_per_column() {
        let t = table(vec![
            Column { header: "title".into(), cells: vec!["Hey Jude".into(), "Let It Be".into()] },
            Column { header: "year".into(), cells: vec!["1968".into(), "1970".into()] },
            Column { header: "length".into(), cells: vec!["431".into(), "243".into()] },
        ]);
        let d = detect_column_types(&t);
        assert_eq!(d, vec![DetectedType::Text, DetectedType::Date, DetectedType::Quantity]);
    }

    #[test]
    fn label_attribute_is_text_column_with_most_unique_values() {
        let t = table(vec![
            Column { header: "genre".into(), cells: vec!["Rock".into(), "Rock".into(), "Rock".into()] },
            Column { header: "title".into(), cells: vec!["A".into(), "B".into(), "C".into()] },
        ]);
        let d = detect_column_types(&t);
        assert_eq!(detect_label_attribute(&t, &d), 1);
    }

    #[test]
    fn label_attribute_tie_prefers_leftmost() {
        let t = table(vec![
            Column { header: "a".into(), cells: vec!["x".into(), "y".into()] },
            Column { header: "b".into(), cells: vec!["p".into(), "q".into()] },
        ]);
        let d = detect_column_types(&t);
        assert_eq!(detect_label_attribute(&t, &d), 0);
    }

    #[test]
    fn label_attribute_ignores_numeric_columns() {
        let t = table(vec![
            Column { header: "no".into(), cells: vec!["1".into(), "2".into(), "3".into()] },
            Column { header: "name".into(), cells: vec!["A".into(), "A".into(), "B".into()] },
        ]);
        let d = detect_column_types(&t);
        assert_eq!(detect_label_attribute(&t, &d), 1);
    }

    #[test]
    fn label_attribute_falls_back_to_first_column() {
        let t = table(vec![
            Column { header: "no".into(), cells: vec!["1".into(), "2".into()] },
            Column { header: "year".into(), cells: vec!["1999".into(), "2001".into()] },
        ]);
        let d = detect_column_types(&t);
        assert_eq!(detect_label_attribute(&t, &d), 0);
    }

    #[test]
    fn empty_cells_do_not_count_as_unique_values() {
        let t = table(vec![
            Column { header: "a".into(), cells: vec!["".into(), "".into(), "x".into()] },
            Column { header: "b".into(), cells: vec!["p".into(), "q".into(), "r".into()] },
        ]);
        let d = detect_column_types(&t);
        assert_eq!(detect_label_attribute(&t, &d), 1);
    }
}
