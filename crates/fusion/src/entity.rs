//! The entity produced from a row cluster.

use ltee_kb::ClassKey;
use ltee_types::Value;
use ltee_webtables::RowRef;

/// A candidate value for a property, before fusion.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateValue {
    /// The property the candidate belongs to.
    pub property: &'static str,
    /// The candidate value.
    pub value: Value,
    /// The row the candidate came from.
    pub row: RowRef,
    /// The candidate's score (depends on the scoring method).
    pub score: f64,
}

/// An entity created from a row cluster: labels plus fused facts.
#[derive(Debug, Clone, PartialEq)]
pub struct Entity {
    /// The class of the entity.
    pub class: ClassKey,
    /// The rows the entity was created from.
    pub rows: Vec<RowRef>,
    /// Labels extracted from the label attribute of the rows, most frequent
    /// first.
    pub labels: Vec<String>,
    /// Fused facts: property → (value, support score).
    pub facts: Vec<(&'static str, Value, f64)>,
}

ltee_intern::heap_size!(Entity { rows, labels, facts });

impl Entity {
    /// The canonical (most frequent) label.
    pub fn canonical_label(&self) -> &str {
        self.labels.first().map(String::as_str).unwrap_or("")
    }

    /// The fused value of a property, if present.
    pub fn fact(&self, property: &str) -> Option<&Value> {
        self.facts.iter().find(|(p, _, _)| *p == property).map(|(_, v, _)| v)
    }

    /// Number of fused facts.
    pub fn fact_count(&self) -> usize {
        self.facts.len()
    }

    /// Number of rows backing the entity.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// The distinct web tables the entity's rows came from, ascending by
    /// table id — the entity's table-level provenance, as served by the
    /// query layer alongside the fused facts.
    pub fn provenance_tables(&self) -> Vec<ltee_webtables::TableId> {
        let mut tables: Vec<_> = self.rows.iter().map(|r| r.table).collect();
        tables.sort_unstable();
        tables.dedup();
        tables
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltee_webtables::TableId;

    #[test]
    fn entity_accessors() {
        let e = Entity {
            class: ClassKey::Song,
            rows: vec![RowRef::new(TableId(1), 0), RowRef::new(TableId(2), 3)],
            labels: vec!["Hey Jude".into(), "Hey Jude (song)".into()],
            facts: vec![("runtime", Value::Quantity(431.0), 2.0)],
        };
        assert_eq!(e.canonical_label(), "Hey Jude");
        assert_eq!(e.fact("runtime"), Some(&Value::Quantity(431.0)));
        assert!(e.fact("genre").is_none());
        assert_eq!(e.fact_count(), 1);
        assert_eq!(e.row_count(), 2);
    }

    #[test]
    fn provenance_tables_are_distinct_and_sorted() {
        let e = Entity {
            class: ClassKey::Song,
            rows: vec![
                RowRef::new(TableId(9), 0),
                RowRef::new(TableId(2), 3),
                RowRef::new(TableId(9), 4),
                RowRef::new(TableId(2), 1),
            ],
            labels: vec![],
            facts: vec![],
        };
        assert_eq!(e.provenance_tables(), vec![TableId(2), TableId(9)]);
        let empty = Entity { class: ClassKey::Song, rows: vec![], labels: vec![], facts: vec![] };
        assert!(empty.provenance_tables().is_empty());
    }

    #[test]
    fn empty_entity_is_harmless() {
        let e = Entity { class: ClassKey::Settlement, rows: vec![], labels: vec![], facts: vec![] };
        assert_eq!(e.canonical_label(), "");
        assert_eq!(e.fact_count(), 0);
    }
}
