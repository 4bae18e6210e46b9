//! The resident-memory ledger: the heap a process holds by component and
//! class, computed from lengths and capacities ([`HeapSize`]).

use std::fmt;

pub use ltee_intern::{HeapBytes, HeapSize};

use crate::schema::ClassKey;

/// One line of a [`Footprint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FootprintRow {
    /// What the memory is, layer first, e.g. `kb.label_index`.
    pub component: &'static str,
    /// The class it belongs to; `None` for memory no one class owns.
    pub class: Option<ClassKey>,
    /// Its heap bytes and blocks.
    pub heap: HeapBytes,
    /// How many items (entities, labels, rows, …) the memory holds.
    pub items: usize,
}

/// Resident heap memory by component and class, rows in the order they
/// were first added.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Footprint {
    rows: Vec<FootprintRow>,
}

impl Footprint {
    /// Add `heap` holding `items` items to a component's row for `class`.
    pub fn add(&mut self, component: &'static str, class: Option<ClassKey>, heap: HeapBytes, items: usize) {
        match self.rows.iter_mut().find(|row| row.component == component && row.class == class) {
            Some(row) => {
                row.heap = row.heap + heap;
                row.items += items;
            }
            None => self.rows.push(FootprintRow { component, class, heap, items }),
        }
    }

    /// Add every row of `other`.
    pub fn extend(&mut self, other: Footprint) {
        for row in other.rows {
            self.add(row.component, row.class, row.heap, row.items);
        }
    }

    /// A component's row for `class` (zero when there is none).
    pub fn row(&self, component: &'static str, class: Option<ClassKey>) -> FootprintRow {
        let none = FootprintRow { component, class, heap: HeapBytes::ZERO, items: 0 };
        self.rows.iter().find(|row| row.component == component && row.class == class).copied().unwrap_or(none)
    }

    /// Everything.
    pub fn total(&self) -> HeapBytes {
        self.rows.iter().map(|row| row.heap).sum()
    }
}

/// One line per row, then the total.
impl fmt::Display for Footprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<18} {:<11} {:>10} {:>8} {:>6}", "component", "class", "bytes", "blocks", "items")?;
        for FootprintRow { component, class, heap, items } in &self.rows {
            let class = class.map_or_else(|| "-".to_string(), |class| class.to_string());
            writeln!(f, "{component:<18} {class:<11} {:>10} {:>8} {items:>6}", heap.bytes, heap.blocks)?;
        }
        let total = self.total();
        writeln!(f, "{:<30} {:>10} {:>8}", "total", total.bytes, total.blocks)
    }
}
