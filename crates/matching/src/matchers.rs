//! The five attribute-to-property matchers (paper Section 3.1).
//!
//! Three matchers exploit the knowledge base (`KB-Overlap`, `KB-Label`,
//! `KB-Duplicate`) and two exploit the web table corpus together with the
//! previous iteration's preliminary mapping (`WT-Label`, `WT-Duplicate`).
//! Each matcher returns a score in `[0, 1]` measuring the likelihood that a
//! column matches a candidate property.

use std::collections::HashMap;

use ltee_kb::{KnowledgeBase, Property};
use ltee_types::{parse_cell_as, value_equivalent, EquivalenceConfig};
use ltee_webtables::{Corpus, RowRef, WebTable};

use crate::mapping::CorpusFeedback;

/// The five matcher kinds, in the feature order used for weight learning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatcherKind {
    /// Proportion of column values that fit the candidate property anywhere
    /// in the knowledge base.
    KbOverlap,
    /// Similarity of the column header to the property's label.
    KbLabel,
    /// Proportion of column values equal to the fact of the candidate
    /// property for the instance the row was matched to (requires feedback).
    KbDuplicate,
    /// Likelihood that a column with this header label corresponds to the
    /// property, estimated from the preliminary corpus-wide mapping
    /// (requires feedback).
    WtLabel,
    /// Proportion of column values for which an equal value matched to the
    /// same instance (row cluster) and property exists elsewhere in the
    /// corpus (requires feedback).
    WtDuplicate,
}

impl MatcherKind {
    /// All matchers in feature order.
    pub const ALL: [MatcherKind; 5] = [
        MatcherKind::KbOverlap,
        MatcherKind::KbLabel,
        MatcherKind::KbDuplicate,
        MatcherKind::WtLabel,
        MatcherKind::WtDuplicate,
    ];

    /// Stable name used as a feature name in learned models.
    pub fn name(self) -> &'static str {
        match self {
            MatcherKind::KbOverlap => "kb_overlap",
            MatcherKind::KbLabel => "kb_label",
            MatcherKind::KbDuplicate => "kb_duplicate",
            MatcherKind::WtLabel => "wt_label",
            MatcherKind::WtDuplicate => "wt_duplicate",
        }
    }
}

/// KB-Overlap: the proportion of non-empty column cells whose parsed value
/// is equivalent to *some* value of the candidate property in the knowledge
/// base — more precisely, to one of its first
/// [`ltee_kb::KB_OVERLAP_SAMPLE`] values in instance order, which keeps the
/// matcher linear in the column size. The sample is digested once per
/// knowledge base ([`KnowledgeBase::property_value_sample`]), not per call.
pub fn kb_overlap(table: &WebTable, column: usize, property: &Property, kb: &KnowledgeBase) -> f64 {
    let Some(sample) = kb.property_value_sample(property.id) else { return 0.0 };
    let mut total = 0usize;
    let mut hits = 0usize;
    for cell in &table.columns[column].cells {
        if cell.trim().is_empty() {
            continue;
        }
        total += 1;
        if parse_cell_as(cell, property.data_type).is_some_and(|value| sample.contains_equivalent(&value)) {
            hits += 1;
        }
    }
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// KB-Label: similarity of the column header to the property's label and
/// name (maximum of Monge-Elkan and Jaccard so both word-level and
/// character-level agreement count).
pub fn kb_label(table: &WebTable, column: usize, property: &Property) -> f64 {
    let header = &table.columns[column].header;
    let header_n = ltee_text::normalize_label(header);
    let candidates = [
        ltee_text::normalize_label(property.label),
        camel_case_to_words(property.name),
    ];
    candidates
        .iter()
        .map(|c| {
            ltee_text::monge_elkan_similarity(&header_n, c).max(ltee_text::jaccard_similarity(&header_n, c))
        })
        .fold(0.0, f64::max)
}

/// Split a camelCase property name into lower-case words
/// (`populationTotal` → `population total`).
pub fn camel_case_to_words(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    for ch in name.chars() {
        if ch.is_uppercase() {
            out.push(' ');
            out.extend(ch.to_lowercase());
        } else {
            out.push(ch);
        }
    }
    out.trim().to_string()
}

/// KB-Duplicate: the proportion of non-empty cells in the column that are
/// equal to the fact of the candidate property for the knowledge base
/// instance the row was matched to in the previous iteration.
pub fn kb_duplicate(
    table: &WebTable,
    column: usize,
    property: &Property,
    kb: &KnowledgeBase,
    feedback: &CorpusFeedback,
) -> f64 {
    let eq = EquivalenceConfig::default();
    let mut total = 0usize;
    let mut hits = 0usize;
    for (row, cell) in table.columns[column].cells.iter().enumerate() {
        if cell.trim().is_empty() {
            continue;
        }
        let row_ref = RowRef::new(table.id, row);
        let Some(instance_id) = feedback.instance_of_row(row_ref, kb) else { continue };
        let Some(instance) = kb.instance(instance_id) else { continue };
        let Some(fact) = instance.fact(property.id) else { continue };
        total += 1;
        if let Some(value) = parse_cell_as(cell, property.data_type) {
            if value_equivalent(&value, fact, property.data_type, &eq) {
                hits += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// Corpus-wide header label statistics derived from a preliminary mapping.
///
/// WT-Label "utilizes the column headers of columns matched in the
/// preliminary run, to derive label-to-property scores, where the score
/// represents the likelihood that an attribute with a certain header row
/// label corresponds to a certain candidate property".
///
/// Headers are interned and properties are their schema names: the count
/// maps are keyed by `(Sym, &'static str)`, and the (hot)
/// [`HeaderStatistics::likelihood`] probe is a read-only interner lookup
/// plus two map hits — no per-call `String` keys.
#[derive(Debug, Clone, Default)]
pub struct HeaderStatistics {
    /// Arena for normalised headers.
    interner: ltee_intern::Interner,
    /// (normalised header, property) → number of columns matched that way.
    counts: HashMap<(ltee_intern::Sym, &'static str), usize>,
    /// normalised header → total matched columns with that header.
    totals: HashMap<ltee_intern::Sym, usize>,
}

impl HeaderStatistics {
    /// Build the statistics from the previous iteration's corpus mapping.
    pub fn build(corpus: &Corpus, feedback: &CorpusFeedback) -> Self {
        let mut stats = HeaderStatistics::default();
        for mapping in feedback.mapping.tables() {
            let Some(table) = corpus.table(mapping.table) else { continue };
            for (col, m) in mapping.matched_columns() {
                let header = ltee_text::normalize_label(&table.columns[col].header);
                if header.is_empty() {
                    continue;
                }
                let header = stats.interner.intern(&header);
                *stats.counts.entry((header, m.property)).or_insert(0) += 1;
                *stats.totals.entry(header).or_insert(0) += 1;
            }
        }
        stats
    }

    /// The likelihood that a column with this header corresponds to the
    /// property, i.e. `count(header, property) / count(header)`. A header
    /// or property never observed during [`HeaderStatistics::build`] has
    /// likelihood 0.
    pub fn likelihood(&self, header: &str, property: &'static str) -> f64 {
        let Some(header) = self.interner.get(&ltee_text::normalize_label(header)) else {
            return 0.0;
        };
        let total = self.totals.get(&header).copied().unwrap_or(0);
        if total == 0 {
            return 0.0;
        }
        let hits = self.counts.get(&(header, property)).copied().unwrap_or(0);
        hits as f64 / total as f64
    }
}

/// WT-Label: the header-to-property likelihood from the preliminary mapping.
pub fn wt_label(table: &WebTable, column: usize, property: &Property, stats: &HeaderStatistics) -> f64 {
    stats.likelihood(&table.columns[column].header, property.name)
}

/// WT-Duplicate: the proportion of non-empty cells for which an equal value,
/// matched to the same instance (row cluster) and property, exists in
/// another table of the corpus under the preliminary mapping.
pub fn wt_duplicate(
    table: &WebTable,
    column: usize,
    property: &Property,
    corpus: &Corpus,
    feedback: &CorpusFeedback,
) -> f64 {
    let eq = EquivalenceConfig::default();
    let mut total = 0usize;
    let mut hits = 0usize;
    for (row, cell) in table.columns[column].cells.iter().enumerate() {
        if cell.trim().is_empty() {
            continue;
        }
        let row_ref = RowRef::new(table.id, row);
        let Some(cluster_idx) = feedback.cluster_of_row(row_ref) else { continue };
        total += 1;
        let Some(value) = parse_cell_as(cell, property.data_type) else { continue };
        // Look for an equal value for the same property among the other rows
        // of the same cluster, as mapped by the preliminary mapping.
        let mut found = false;
        for other in &feedback.clusters[cluster_idx] {
            if *other == row_ref {
                continue;
            }
            let other_values = feedback.mapping.row_values(corpus, *other);
            if let Some(other_value) = other_values.value(property.name) {
                if value_equivalent(&value, other_value, property.data_type, &eq) {
                    found = true;
                    break;
                }
            }
        }
        if found {
            hits += 1;
        }
    }
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltee_kb::{generate_world, ClassKey, EntityId, GeneratorConfig, Scale};
    use ltee_webtables::{Column, TableId, WebTable};

    fn player_table(world: &ltee_kb::World) -> WebTable {
        player_table_and_entities(world).0
    }

    /// The player table and, per row, the world entity it describes.
    fn player_table_and_entities(world: &ltee_kb::World) -> (WebTable, Vec<EntityId>) {
        // Build a table whose team column contains real KB team values,
        // restricted to head entities whose `team` fact survived the
        // density-based dropout (so the KB actually knows the value).
        let kb = world.kb();
        let team_prop = kb.property_by_name(ClassKey::GridironFootballPlayer, "team").unwrap().id;
        let heads: Vec<_> = world
            .head_of_class(ClassKey::GridironFootballPlayer)
            .into_iter()
            .filter(|e| {
                world
                    .instance_for_entity(e.id)
                    .and_then(|i| kb.instance(i))
                    .map(|i| i.fact(team_prop).is_some())
                    .unwrap_or(false)
            })
            .collect();
        assert!(heads.len() >= 6, "need enough head players with a KB team fact");
        let cells: Vec<String> =
            heads.iter().take(6).map(|e| e.fact("team").unwrap().render()).collect();
        let labels: Vec<String> = heads.iter().take(6).map(|e| e.canonical_label.clone()).collect();
        let entities: Vec<_> = heads.iter().take(6).map(|e| e.id).collect();
        let table = WebTable {
            id: TableId(1),
            columns: vec![
                Column { header: "player".into(), cells: labels.iter().collect() },
                Column { header: "club".into(), cells: cells.iter().collect() },
            ],
        };
        (table, entities)
    }

    #[test]
    fn kb_overlap_high_for_true_property_low_for_wrong_one() {
        let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 13));
        let kb = world.kb();
        let table = player_table(&world);
        let team = kb.property_by_name(ClassKey::GridironFootballPlayer, "team").unwrap();
        let college = kb.property_by_name(ClassKey::GridironFootballPlayer, "college").unwrap();
        let team_score = kb_overlap(&table, 1, team, kb);
        let college_score = kb_overlap(&table, 1, college, kb);
        assert!(team_score > 0.9, "team overlap {team_score}");
        assert!(college_score < 0.3, "college overlap {college_score}");
    }

    #[test]
    fn kb_label_matches_synonyms_and_camel_case() {
        let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 13));
        let kb = world.kb();
        let table = player_table(&world);
        let team = kb.property_by_name(ClassKey::GridironFootballPlayer, "team").unwrap();
        // Header "club" vs label "team": weak, but birth date style matches work.
        let weight = kb.property_by_name(ClassKey::GridironFootballPlayer, "weight").unwrap();
        assert!(kb_label(&table, 1, team) < 0.6);
        let mut t2 = table.clone();
        t2.columns[1].header = "team".into();
        assert!(kb_label(&t2, 1, team) > 0.9);
        t2.columns[1].header = "weight".into();
        assert!(kb_label(&t2, 1, weight) > 0.9);
    }

    #[test]
    fn camel_case_split_works() {
        assert_eq!(camel_case_to_words("populationTotal"), "population total");
        assert_eq!(camel_case_to_words("team"), "team");
        assert_eq!(camel_case_to_words("birthDate"), "birth date");
    }

    #[test]
    fn kb_overlap_zero_for_empty_column() {
        let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 13));
        let kb = world.kb();
        let mut table = player_table(&world);
        let rows = table.columns[1].cells.len();
        table.columns[1].cells = std::iter::repeat_n("", rows).collect();
        let team = kb.property_by_name(ClassKey::GridironFootballPlayer, "team").unwrap();
        assert_eq!(kb_overlap(&table, 1, team, kb), 0.0);
    }

    #[test]
    fn kb_duplicate_uses_feedback_correspondences() {
        let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 13));
        let kb = world.kb();
        let (table, entities) = player_table_and_entities(&world);
        let team = kb.property_by_name(ClassKey::GridironFootballPlayer, "team").unwrap();

        // Feedback: each row is its own cluster, matched to its true instance.
        let mut clusters = Vec::new();
        let mut cluster_instance = HashMap::new();
        for (row, entity) in entities.iter().enumerate() {
            clusters.push(vec![RowRef::new(table.id, row)]);
            if let Some(inst) = world.instance_for_entity(*entity) {
                cluster_instance.insert(row, inst);
            }
        }
        let feedback = CorpusFeedback {
            mapping: crate::mapping::CorpusMapping::default(),
            clusters,
            cluster_instance,
        };
        let score = kb_duplicate(&table, 1, team, kb, &feedback);
        // Every selected row's instance has a team fact equal to the cell.
        assert!(score > 0.9, "kb_duplicate score {score}");
        let college = kb.property_by_name(ClassKey::GridironFootballPlayer, "college").unwrap();
        assert!(kb_duplicate(&table, 1, college, kb, &feedback) < score);
    }

    #[test]
    fn header_statistics_likelihood() {
        let mut stats = HeaderStatistics::default();
        let club = stats.interner.intern("club");
        stats.counts.insert((club, "team"), 8);
        stats.counts.insert((club, "college"), 2);
        stats.totals.insert(club, 10);
        assert!((stats.likelihood("Club", "team") - 0.8).abs() < 1e-12);
        assert!((stats.likelihood("club", "college") - 0.2).abs() < 1e-12);
        assert_eq!(stats.likelihood("unknown", "team"), 0.0);
        assert_eq!(stats.likelihood("club", "unobserved"), 0.0);
    }

    #[test]
    fn matcher_kind_names_are_unique() {
        let names: std::collections::HashSet<_> = MatcherKind::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), 5);
    }
}
