//! The fuzzy lookup's scaling gate: edit-distance work per query must
//! grow sublinearly in the number of indexed labels.
//!
//! Counter-based, not wall-clock-based: `ltee_index::metrics` counts are a
//! pure function of corpus and query stream. They are process-global, so
//! this file holds a single `#[test]` — its own process, exact counts.

use ltee_index::{metrics, LabelIndex};

mod scaling_corpus;
use scaling_corpus::scaling_labels;

/// `count` queries sampled evenly from the labels: exact lookups (as when
/// blocking rows against their own label set), typo'd variants and
/// partial labels.
fn queries(labels: &[String], count: usize) -> Vec<String> {
    let step = (labels.len() / count).max(1);
    let mut queries = Vec::with_capacity(count);
    for i in 0..count {
        let label = &labels[(i * step) % labels.len()];
        let q = match i % 4 {
            0 | 1 => label.clone(),
            // Typo: drop the second character.
            2 => {
                let mut chars: Vec<char> = label.chars().collect();
                chars.remove(1);
                chars.into_iter().collect()
            }
            // Partial: first token only.
            _ => label.split(' ').next().unwrap_or(label).to_string(),
        };
        queries.push(q);
    }
    queries
}

const TOP_K: usize = 8;

/// Edit-distance kernel calls per query of `query_count` top-8 lookups
/// against an index of `size` labels.
fn edit_calls_per_query(size: usize, query_count: usize) -> f64 {
    let labels = scaling_labels(size);
    let queries = queries(&labels, query_count);
    let mut index = LabelIndex::new();
    for (i, label) in labels.iter().enumerate() {
        index.insert(i as u64, label);
    }

    let before = metrics::snapshot();
    let hits: usize = queries.iter().map(|q| index.lookup(q, TOP_K).len()).sum();
    let work = metrics::snapshot().delta_since(before);

    assert!(hits > 0, "{size} labels: lookups returned nothing at all");
    work.edit_distance_calls as f64 / queries.len() as f64
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-sized; run by the CI scaling step")]
fn edit_calls_per_query_grow_sublinearly_in_label_count() {
    const SMALL: usize = 5_000;
    const LARGE: usize = 500_000;
    let small = edit_calls_per_query(SMALL, 2_000);
    let large = edit_calls_per_query(LARGE, 400);

    let growth = large / small.max(1e-9);
    let size_growth = (LARGE / SMALL) as f64;
    // ×100 labels must cost far less than ×100 edit work per query. The
    // factor-5 margin keeps the assertion robust to corpus vocabulary
    // growth while still rejecting any linear-scan regression.
    assert!(
        growth < size_growth / 5.0,
        "pruned lookup lost sublinearity: {small:.1} -> {large:.1} edit calls per query, \
         {growth:.2}x growth over {size_growth:.0}x label growth"
    );
}
