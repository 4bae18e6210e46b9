//! Column data type detection and label attribute detection.

use ltee_types::{detect_column_type, DetectedType};
use ltee_webtables::WebTable;

/// Detect the coarse data type of every column of a table by majority vote
/// over its cells (paper Section 3.1, data type detection).
pub fn detect_column_types(table: &WebTable) -> Vec<DetectedType> {
    table
        .columns
        .iter()
        .map(|c| detect_column_type(c.cells.iter()))
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
            Column { header: "title".into(), cells: ["Hey Jude", "Let It Be"].into_iter().collect() },
            Column { header: "year".into(), cells: ["1968", "1970"].into_iter().collect() },
            Column { header: "length".into(), cells: ["431", "243"].into_iter().collect() },
        ]);
        let d = detect_column_types(&t);
        assert_eq!(d, vec![DetectedType::Text, DetectedType::Date, DetectedType::Quantity]);
    }

    #[test]
    fn label_attribute_is_text_column_with_most_unique_values() {
        let t = table(vec![
            Column { header: "genre".into(), cells: ["Rock", "Rock", "Rock"].into_iter().collect() },
            Column { header: "title".into(), cells: ["A", "B", "C"].into_iter().collect() },
        ]);
        let d = detect_column_types(&t);
        assert_eq!(detect_label_attribute(&t, &d), 1);
    }

    #[test]
    fn label_attribute_tie_prefers_leftmost() {
        let t = table(vec![
            Column { header: "a".into(), cells: ["x", "y"].into_iter().collect() },
            Column { header: "b".into(), cells: ["p", "q"].into_iter().collect() },
        ]);
        let d = detect_column_types(&t);
        assert_eq!(detect_label_attribute(&t, &d), 0);
    }

    #[test]
    fn label_attribute_ignores_numeric_columns() {
        let t = table(vec![
            Column { header: "no".into(), cells: ["1", "2", "3"].into_iter().collect() },
            Column { header: "name".into(), cells: ["A", "A", "B"].into_iter().collect() },
        ]);
        let d = detect_column_types(&t);
        assert_eq!(detect_label_attribute(&t, &d), 1);
    }

    #[test]
    fn label_attribute_falls_back_to_first_column() {
        let t = table(vec![
            Column { header: "no".into(), cells: ["1", "2"].into_iter().collect() },
            Column { header: "year".into(), cells: ["1999", "2001"].into_iter().collect() },
        ]);
        let d = detect_column_types(&t);
        assert_eq!(detect_label_attribute(&t, &d), 0);
    }

    #[test]
    fn empty_cells_do_not_count_as_unique_values() {
        let t = table(vec![
            Column { header: "a".into(), cells: ["", "", "x"].into_iter().collect() },
            Column { header: "b".into(), cells: ["p", "q", "r"].into_iter().collect() },
        ]);
        let d = detect_column_types(&t);
        assert_eq!(detect_label_attribute(&t, &d), 1);
    }
}
