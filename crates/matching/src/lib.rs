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

pub mod attribute;
pub mod class_match;
pub mod label_attr;
pub mod mapping;
pub mod matchers;
#[cfg(test)]
mod naive;

pub use attribute::{learn_weights, AttributeMatcherConfig, MatcherWeights};
pub use class_match::match_table_class;
pub use label_attr::{detect_column_types, detect_label_attribute};
pub use mapping::{AttributeMatch, CorpusFeedback, CorpusMapping, RowValues, TableMapping};
pub use matchers::MatcherKind;

use ltee_kb::KnowledgeBase;
use ltee_webtables::Corpus;

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
    // Everything matching derives from the knowledge base alone — the
    // per-class label indexes here, the KB-Overlap samples and the
    // per-class property slices further down — is memoised on the KB.
    let class_indexes = kb.class_label_indexes();
    match_corpus_with(corpus, kb, weights, config, feedback, class_indexes, matchers::kb_overlap)
}

/// [`match_corpus`] over given per-class label indexes and a given
/// KB-Overlap implementation.
fn match_corpus_with(
    corpus: &Corpus,
    kb: &KnowledgeBase,
    weights: &MatcherWeights,
    config: &SchemaMatchingConfig,
    feedback: Option<&CorpusFeedback>,
    class_indexes: &[(ltee_kb::ClassKey, ltee_index::LabelIndex)],
    kb_overlap: matchers::KbOverlapFn,
) -> CorpusMapping {
    use rayon::prelude::*;

    // Corpus-level header statistics (WT-Label) need a preliminary mapping;
    // they are only available when feedback from a previous iteration exists.
    let header_stats = feedback.map(|fb| matchers::HeaderStatistics::build(corpus, fb));

    let tables: Vec<TableMapping> = corpus
        .tables()
        .par_iter()
        .map(|table| {
            let detected = detect_column_types(table);
            let label_column = detect_label_attribute(table, &detected);
            let (class, class_score) =
                match_table_class(table, label_column, &detected, kb, class_indexes);
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
                    kb_overlap,
                ),
                None => vec![None; table.num_columns()],
            };
            TableMapping {
                table: table.id,
                class,
                class_score,
                label_column,
                detected_types: detected,
                correspondences,
            }
        })
        .collect();

    CorpusMapping::from_tables(tables)
}
