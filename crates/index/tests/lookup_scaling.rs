//! The fuzzy lookup's scaling gate: edit-distance work per query must
//! grow sublinearly in the number of indexed labels.
//!
//! Counter-based, not wall-clock-based: `ltee_index::metrics` counts are a
//! pure function of corpus and query stream. They are process-global, so
//! this file holds a single `#[test]` — its own process, exact counts.

use ltee_index::{metrics, LabelIndex};

const FIRST: [&str; 20] = [
    "tom", "peyton", "eli", "aaron", "patrick", "johnny", "maria", "paris", "london", "austin",
    "yellow", "purple", "golden", "silver", "crimson", "abbey", "penny", "norwegian", "lucy", "jude",
];
const LAST: [&str; 25] = [
    "brady", "manning", "rodgers", "mahomes", "unitas", "submarine", "road", "lane", "wood",
    "fields", "springs", "heights", "falls", "city", "creek", "song", "anthem", "ballad", "hymn",
    "march", "texas", "ohio", "kansas", "dakota", "maine",
];
const QUALIFIER: [&str; 5] = ["(Remastered)", "(Live)", "(1968)", "[Demo]", "(Texas)"];

/// `size` labels over 500 name pairs with numeric volume suffixes; every
/// seventh label gains a bracketed qualifier. All sizes share the same
/// token shape so counter curves compare like for like.
fn labels(size: usize) -> Vec<String> {
    let mut labels = Vec::with_capacity(size);
    let per_pair = size.div_ceil(FIRST.len() * LAST.len());
    let mut n = 0u64;
    'outer: for f in FIRST {
        for l in LAST {
            for suffix in 0..per_pair as u64 {
                let mut label = if suffix == 0 {
                    format!("{f} {l}")
                } else {
                    format!("{f} {l} {suffix}")
                };
                if n % 7 == 3 {
                    label = format!("{label} {}", QUALIFIER[(n % 5) as usize]);
                }
                labels.push(label);
                n += 1;
                if labels.len() == size {
                    break 'outer;
                }
            }
        }
    }
    assert_eq!(labels.len(), size, "label pool exhausted early");
    labels
}

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
    let labels = labels(size);
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
