//! # ltee-matching
//!
//! Schema matching (paper Section 3.1): mapping the heterogeneous schemata
//! of web tables onto the schema of the knowledge base.
//!
//! Four steps are implemented:
//!
//! 1. **Data type detection** — per attribute column, by majority vote over
//!    the cell-level rule-based detection from `ltee-types`.
//! 2. **Label attribute detection** — the text column with the highest
//!    number of unique values; ties broken towards the leftmost column.
//! 3. **Table-to-class matching** — rows are looked up in per-class label
//!    indexes; classes are scored by the number of rows with candidate
//!    instances plus duplicate-based attribute evidence, and the
//!    best-scoring class wins.
//! 4. **Attribute-to-property matching** — five matchers (`KB-Overlap`,
//!    `KB-Label`, `KB-Duplicate`, `WT-Label`, `WT-Duplicate`) are aggregated
//!    by a learned weighted average with per-property thresholds. The two
//!    duplicate-based and the corpus-level matchers require feedback from a
//!    previous pipeline iteration ([`CorpusFeedback`]), which is exactly why
//!    the paper's second iteration improves schema matching so markedly
//!    (Table 6).
//!
//! The output of schema matching is a [`CorpusMapping`]: per table, the
//! matched class, the label column, per-column detected types and
//! attribute-to-property correspondences, from which typed row values can be
//! extracted for the downstream components.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

pub mod attribute;
pub mod class_match;
pub mod label_attr;
pub mod mapping;
pub mod matchers;

pub use attribute::{learn_weights, AttributeMatcherConfig, MatcherWeights, MATCHER_GENETIC};
pub use class_match::{RowCandidates, CANDIDATES_PER_ROW};
pub use label_attr::{detect_column_types, detect_label_attribute};
pub use mapping::{AttributeMatch, CorpusFeedback, CorpusMapping, RowValues, TableMapping};
pub use matchers::MatcherKind;

use ltee_kb::KnowledgeBase;
use ltee_webtables::Corpus;

use class_match::{match_table_class, RowLookups};

/// Configuration of a full schema matching pass.
#[derive(Debug, Clone, Default)]
pub struct SchemaMatchingConfig {
    /// Attribute matcher configuration.
    pub attribute: AttributeMatcherConfig,
}

/// Run schema matching over a whole corpus.
///
/// `feedback` carries the row clusters and entity-to-instance
/// correspondences produced by a previous pipeline iteration; pass `None`
/// for the first iteration.
pub fn match_corpus(
    corpus: &Corpus,
    kb: &KnowledgeBase,
    weights: &MatcherWeights,
    config: &SchemaMatchingConfig,
    feedback: Option<&CorpusFeedback>,
) -> CorpusMapping {
    match_corpus_and_candidates(corpus, kb, weights, config, feedback).0
}

/// [`match_corpus`], also returning the KB candidates the table-to-class
/// matcher retrieved for every row of a matched table — what implicit
/// attributes are derived from (`ltee_clustering::ImplicitAttributes`).
pub fn match_corpus_and_candidates(
    corpus: &Corpus,
    kb: &KnowledgeBase,
    weights: &MatcherWeights,
    config: &SchemaMatchingConfig,
    feedback: Option<&CorpusFeedback>,
) -> (CorpusMapping, RowCandidates) {
    use rayon::prelude::*;

    // Everything matching derives from the knowledge base alone — the
    // per-class label indexes here, the KB-Overlap samples and the
    // per-class property slices further down — is memoised on the KB.
    let class_indexes = kb.class_label_indexes();

    // Corpus-level header statistics (WT-Label) need a preliminary mapping;
    // they are only available when feedback from a previous iteration exists.
    let header_stats = feedback.map(|fb| matchers::HeaderStatistics::build(corpus, fb));

    let schemas: Vec<(Vec<ltee_types::DetectedType>, usize)> = corpus
        .tables()
        .par_iter()
        .map(|table| {
            let detected = detect_column_types(table);
            let label_column = detect_label_attribute(table, &detected);
            (detected, label_column)
        })
        .collect();
    // Every row label of the corpus looked up in every class index, each
    // distinct one once.
    let tables = corpus.tables();
    let labelled: Vec<_> = tables.iter().zip(&schemas).map(|(table, (_, label))| (table, *label)).collect();
    let (slots, lookups) = RowLookups::run(&labelled, class_indexes);

    let matched: Vec<(TableMapping, Option<usize>)> = schemas
        .into_par_iter()
        .enumerate()
        .map(|(t, (detected, label_column))| {
            let table = &tables[t];
            let winner =
                match_table_class(table, label_column, &detected, kb, class_indexes, &slots[t], &lookups);
            let class = winner.map(|c| class_indexes[c].0);
            let correspondences = match class {
                Some(class) => attribute::match_attributes(
                    table,
                    label_column,
                    &detected,
                    class,
                    kb,
                    Some(corpus),
                    weights,
                    &config.attribute,
                    feedback,
                    header_stats.as_ref(),
                ),
                None => vec![None; table.num_columns()],
            };
            let mapping =
                TableMapping { table: table.id, class, label_column, detected_types: detected, correspondences };
            (mapping, winner)
        })
        .collect();

    let mut candidates = RowCandidates::default();
    for ((mapping, winner), slots) in matched.iter().zip(&slots) {
        if let Some(class) = *winner {
            candidates.insert(mapping.table, slots, &lookups, class);
        }
    }
    let mappings = matched.into_iter().map(|(mapping, _)| mapping).collect();
    (CorpusMapping::from_tables(mappings), candidates)
}
