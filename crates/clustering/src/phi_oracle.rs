//! The string-keyed PHI layout the sym-keyed tables replaced, kept as the
//! test oracle: owned label strings as the keys of nested hash maps, one
//! heap string per vector component. The proptests hold
//! [`StreamingPhi`] and [`PhiTableVectors::build`] to it bit for bit.

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

use ltee_intern::Interner;
use ltee_matching::RowValues;
use ltee_text::BowVector;
use ltee_webtables::{Corpus, RowRef, TableId};
use proptest::prelude::*;

use crate::context::RowContext;
use crate::incremental::StreamingPhi;
use crate::metrics::PhiTableVectors;

/// `PhiTableVectors` over label strings.
#[derive(Default)]
struct StringVectors {
    vectors: HashMap<TableId, (Vec<(String, f64)>, f64)>,
}

impl StringVectors {
    fn build(contexts: &[RowContext]) -> Self {
        let mut labels_per_table: HashMap<TableId, Vec<String>> = HashMap::new();
        for ctx in contexts {
            if ctx.normalized_label.is_empty() {
                continue;
            }
            labels_per_table.entry(ctx.row.table).or_default().push(ctx.normalized_label.clone());
        }
        let mut label_tables: HashMap<&str, Vec<TableId>> = HashMap::new();
        for (table, labels) in &labels_per_table {
            for l in labels {
                label_tables.entry(l.as_str()).or_default().push(*table);
            }
        }
        let n = labels_per_table.len().max(1) as f64;
        let mut cooccur: HashMap<(&str, &str), f64> = HashMap::new();
        for labels in labels_per_table.values() {
            for i in 0..labels.len() {
                for j in 0..labels.len() {
                    if i == j {
                        continue;
                    }
                    *cooccur.entry((labels[i].as_str(), labels[j].as_str())).or_insert(0.0) += 1.0;
                }
            }
        }
        let phi = |a: &str, b: &str, nab: f64| -> f64 {
            let na = label_tables.get(a).map(|t| t.len() as f64).unwrap_or(0.0);
            let nb = label_tables.get(b).map(|t| t.len() as f64).unwrap_or(0.0);
            let denom = (na * nb * (n - na) * (n - nb)).sqrt();
            if denom < 1e-12 {
                return 0.0;
            }
            (n * nab - na * nb) / denom
        };
        let mut label_vectors: HashMap<&str, HashMap<String, f64>> = HashMap::new();
        for ((a, b), nab) in &cooccur {
            let value = phi(a, b, *nab);
            if value.abs() > 1e-9 {
                label_vectors.entry(a).or_default().insert((*b).to_string(), value);
            }
        }
        let mut built = Self::default();
        for (table, labels) in &labels_per_table {
            let mut acc: HashMap<String, f64> = HashMap::new();
            for l in labels {
                if let Some(v) = label_vectors.get(l.as_str()) {
                    for (k, val) in v {
                        *acc.entry(k.clone()).or_insert(0.0) += val;
                    }
                }
            }
            let count = labels.len().max(1) as f64;
            let mut sorted: Vec<(String, f64)> =
                acc.into_iter().map(|(k, v)| (k, v / count)).collect();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            built.insert_vector(*table, sorted);
        }
        built
    }

    fn insert_vector(&mut self, table: TableId, entries: Vec<(String, f64)>) {
        let norm = entries.iter().map(|(_, v)| v * v).sum::<f64>().sqrt();
        self.vectors.insert(table, (entries, norm));
    }

    fn entries(&self, table: TableId) -> Option<&[(String, f64)]> {
        self.vectors.get(&table).map(|(entries, _)| entries.as_slice())
    }

    fn table_similarity(&self, a: TableId, b: TableId) -> f64 {
        if a == b {
            return 1.0;
        }
        let (Some(a), Some(b)) = (self.vectors.get(&a), self.vectors.get(&b)) else { return 0.0 };
        let ((va, norm_a), (vb, norm_b)) = (a, b);
        if va.is_empty() || vb.is_empty() {
            return 0.0;
        }
        let mut dot = 0.0;
        let (mut i, mut j) = (0, 0);
        while i < va.len() && j < vb.len() {
            match va[i].0.cmp(&vb[j].0) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    dot += va[i].1 * vb[j].1;
                    i += 1;
                    j += 1;
                }
            }
        }
        if *norm_a < 1e-12 || *norm_b < 1e-12 {
            0.0
        } else {
            (dot / (norm_a * norm_b)).clamp(-1.0, 1.0).max(0.0)
        }
    }
}

/// `StreamingPhi` over label strings.
#[derive(Default)]
struct StringStreamingPhi {
    occurrences: HashMap<String, f64>,
    cooccur: HashMap<String, HashMap<String, f64>>,
    tables: usize,
    frozen: StringVectors,
}

impl StringStreamingPhi {
    fn add_table(&mut self, table: TableId, labels: &[String]) {
        if labels.is_empty() || self.frozen.vectors.contains_key(&table) {
            return;
        }
        for i in 0..labels.len() {
            *self.occurrences.entry(labels[i].clone()).or_insert(0.0) += 1.0;
            for j in 0..labels.len() {
                if i == j {
                    continue;
                }
                *self
                    .cooccur
                    .entry(labels[i].clone())
                    .or_default()
                    .entry(labels[j].clone())
                    .or_insert(0.0) += 1.0;
            }
        }
        self.tables += 1;
        let n = self.tables.max(1) as f64;
        let mut acc: HashMap<String, f64> = HashMap::new();
        for label in labels {
            let Some(pairs) = self.cooccur.get(label) else { continue };
            let na = self.occurrences.get(label).copied().unwrap_or(0.0);
            for (other, nab) in pairs {
                let nb = self.occurrences.get(other).copied().unwrap_or(0.0);
                let denom = (na * nb * (n - na) * (n - nb)).sqrt();
                if denom < 1e-12 {
                    continue;
                }
                let phi = (n * *nab - na * nb) / denom;
                if phi.abs() > 1e-9 {
                    *acc.entry(other.clone()).or_insert(0.0) += phi;
                }
            }
        }
        let count = labels.len().max(1) as f64;
        let mut sorted: Vec<(String, f64)> =
            acc.into_iter().map(|(k, v)| (k, v / count)).collect();
        sorted.retain(|(_, v)| v.abs() > 0.0);
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        self.frozen.insert_vector(table, sorted);
    }

    fn pair_count(&self) -> usize {
        self.cooccur.values().map(HashMap::len).sum()
    }
}

fn bits(entries: &[(String, f64)]) -> Vec<(&str, u64)> {
    entries.iter().map(|(label, v)| (label.as_str(), v.to_bits())).collect()
}

fn ctx(interner: &mut Interner, table: u64, row: usize, label: &str) -> RowContext {
    let values = RowValues { label: label.to_string(), values: vec![] };
    RowContext::new(RowRef::new(TableId(table), row), values, BowVector::from_text(label), interner)
}

/// A small label pool with multi-byte members, some sharing a prefix,
/// so that tables overlap heavily and string order differs from mint
/// order.
const POOL: [&str; 12] = [
    "zeta", "alpha", "münchen", "alpha beta", "ωmega", "beta", "中村", "delta", "al", "épée", "gamma", "a",
];

/// Decode a drawn script into a table stream: `draws[i]` picks table
/// `i`'s id (a small range, so ids repeat and re-adds happen) and its
/// size (0 to 5 rows, so label-free tables happen); its labels are the
/// next draws modulo the pool (so a label can repeat inside a table).
fn stream(draws: &[usize]) -> Vec<(TableId, Vec<String>)> {
    let mut tables = Vec::new();
    let mut draws = draws.iter().copied();
    while let Some(head) = draws.next() {
        let id = TableId((head % 14) as u64);
        let labels = draws.by_ref().take(head / 14 % 6).map(|d| POOL[d % POOL.len()].to_string()).collect();
        tables.push((id, labels));
    }
    tables
}

proptest! {
    #[test]
    fn sym_keyed_streaming_phi_agrees_with_the_string_keyed_oracle(
        draws in proptest::collection::vec(0usize..10_000, 0..160),
    ) {
        let tables = stream(&draws);
        let mut phi = StreamingPhi::new();
        let mut expected = StringStreamingPhi::default();
        for (table, labels) in &tables {
            phi.add_table(*table, labels);
            expected.add_table(*table, labels);
        }
        prop_assert_eq!(phi.pair_count(), expected.pair_count());
        for id in 0..15 {
            let table = TableId(id);
            let frozen = phi.vectors().entries(table);
            prop_assert_eq!(frozen.as_deref().map(bits), expected.frozen.entries(table).map(bits));
            for other in 0..15 {
                prop_assert_eq!(
                    phi.vectors().table_similarity(table, TableId(other)).to_bits(),
                    expected.frozen.table_similarity(table, TableId(other)).to_bits(),
                    "tables {} and {}", id, other
                );
            }
        }
    }

    /// Where the batch and the streaming definitions agree: the table
    /// added last is frozen under the statistics of the whole stream,
    /// which are the batch builder's — provided no id was re-added
    /// (streaming ignores the second table, the batch builder pools
    /// both under the id). The batch builder keeps components that
    /// cancel to zero, streaming drops them. And the batch builder
    /// agrees with its own string-keyed oracle on every table pair.
    #[test]
    fn batch_build_agrees_with_its_oracle_and_with_streaming_on_the_last_table(
        draws in proptest::collection::vec(0usize..10_000, 0..120),
    ) {
        let mut tables = stream(&draws);
        let mut seen = HashSet::new();
        tables.retain(|(table, _)| seen.insert(*table));
        let mut interner = Interner::new();
        let contexts: Vec<RowContext> = tables
            .iter()
            .flat_map(|(table, labels)| labels.iter().enumerate().map(move |(row, l)| (table.0, row, l)))
            .map(|(table, row, label)| ctx(&mut interner, table, row, label))
            .collect();
        let built = PhiTableVectors::build(&Corpus::new(), &contexts);
        let expected = StringVectors::build(&contexts);
        for id in 0..15 {
            let table = TableId(id);
            prop_assert_eq!(built.entries(table).as_deref().map(bits), expected.entries(table).map(bits));
            for other in 0..15 {
                prop_assert_eq!(
                    built.table_similarity(table, TableId(other)).to_bits(),
                    expected.table_similarity(table, TableId(other)).to_bits()
                );
            }
        }

        let mut phi = StreamingPhi::new();
        for (table, labels) in &tables {
            phi.add_table(*table, labels);
        }
        if let Some((last, _)) = tables.iter().rev().find(|(_, labels)| !labels.is_empty()) {
            let mut batch = built.entries(*last).expect("a labelled table has a vector");
            batch.retain(|(_, v)| v.abs() > 0.0);
            prop_assert_eq!(bits(&phi.vectors().entries(*last).expect("frozen")), bits(&batch));
        }
    }
}

#[test]
fn the_frozen_vectors_are_shared_across_threads_without_a_lock() {
    fn assert_sync<T: Sync>() {}
    assert_sync::<PhiTableVectors>();
}
