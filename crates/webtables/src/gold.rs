//! The gold standard: annotated clusters, correspondences and facts.
//!
//! Paper Section 2.3 describes the manually built gold standard: clusters of
//! rows describing the same instance, whether each cluster is new, the
//! correspondence of existing clusters to knowledge base instances,
//! attribute-to-property correspondences, and facts for every cluster /
//! property combination for which a candidate value exists in the tables.
//! Because our corpus is generated from a world whose ground truth is known,
//! the gold standard is derived *by construction* instead of by manual
//! annotation — the annotation types and the downstream evaluation are
//! identical.

use std::collections::{BTreeMap, HashMap};

use ltee_kb::{class_schema, ClassKey, EntityId, InstanceId, World};
use ltee_types::{parse_cell_as, value_equivalent, EquivalenceConfig, Value};

use crate::corpus::Corpus;
use crate::generator::GeneratedCorpus;
use crate::table::{RowRef, TableId};

/// A gold cluster: the set of rows that describe one world entity.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldCluster {
    /// The described world entity.
    pub entity: EntityId,
    /// All rows (across tables) describing the entity.
    pub rows: Vec<RowRef>,
    /// Whether the entity is a *new* instance (a long-tail entity of the
    /// target class that is missing from the knowledge base).
    pub is_new: bool,
    /// Whether the entity actually belongs to the target class. Confusable
    /// sibling-class entities are annotated `false`; returning them as new
    /// instances counts as an error in the evaluation.
    pub is_target_class: bool,
    /// The knowledge base instance the cluster corresponds to, for existing
    /// entities.
    pub kb_instance: Option<InstanceId>,
    /// Homonym group of the entity (clusters with highly similar labels
    /// share a group and are kept within one cross-validation fold).
    pub homonym_group: u64,
}

impl GoldCluster {
    /// Number of rows in the cluster.
    pub fn size(&self) -> usize {
        self.rows.len()
    }
}

/// An attribute-to-property correspondence annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributeCorrespondence {
    /// The table.
    pub table: TableId,
    /// The column index within the table.
    pub column: usize,
    /// The knowledge base property the column publishes.
    pub property: &'static str,
}

/// A gold fact: for one cluster and property, the correct value.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldFact {
    /// Index of the cluster within [`GoldStandard::clusters`].
    pub cluster: usize,
    /// The property.
    pub property: &'static str,
    /// The correct value (world ground truth).
    pub correct_value: Value,
    /// Whether a (sufficiently) correct candidate value is present among the
    /// cluster's table cells — the denominator of fact recall (Table 5, last
    /// column).
    pub value_present: bool,
}

/// Summary statistics of a gold standard (one row of paper Table 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GoldStandardStats {
    /// Number of annotated tables.
    pub tables: usize,
    /// Number of annotated attribute-to-property correspondences.
    pub attributes: usize,
    /// Number of annotated rows.
    pub rows: usize,
    /// Number of clusters corresponding to existing KB instances.
    pub existing_clusters: usize,
    /// Number of clusters describing new instances.
    pub new_clusters: usize,
    /// Number of cell values inside the clusters that are matched to a
    /// knowledge base property.
    pub matched_values: usize,
    /// Number of (cluster, property) value groups with at least one
    /// candidate value.
    pub value_groups: usize,
    /// Number of value groups whose correct value is present in the tables.
    pub correct_value_present: usize,
}

/// The gold standard for one class.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldStandard {
    /// The class the gold standard covers.
    pub class: ClassKey,
    /// Tables covered (all tables of the class in the corpus).
    pub tables: Vec<TableId>,
    /// The annotated clusters.
    pub clusters: Vec<GoldCluster>,
    /// Attribute-to-property correspondences.
    pub attributes: Vec<AttributeCorrespondence>,
    /// Gold facts per (cluster, property) value group.
    pub facts: Vec<GoldFact>,
}

impl GoldStandard {
    /// Derive the gold standard of a class from a world and a corpus
    /// generated from it. Rows of an entity the world does not hold are not
    /// annotated; a truth that does not fit its table panics.
    pub fn build(world: &World, corpus: &GeneratedCorpus, class: ClassKey) -> Self {
        let eq = EquivalenceConfig::lenient();
        let annotated: Vec<_> = corpus.annotated_tables().filter(|(_, truth)| truth.class == class).collect();
        let tables: Vec<TableId> = annotated.iter().map(|(t, _)| t.id).collect();

        // Group rows by entity.
        let mut rows_by_entity: BTreeMap<EntityId, Vec<RowRef>> = BTreeMap::new();
        let mut attributes = Vec::new();
        for &(table, truth) in &annotated {
            if let Err(why) = truth.fits(table) {
                panic!("table {}: {why}", table.id.raw());
            }
            for (row, entity) in truth.row_entity.iter().enumerate() {
                rows_by_entity.entry(*entity).or_default().push(RowRef::new(table.id, row));
            }
            for (column, prop) in truth.column_property.iter().enumerate() {
                if let Some(property) = *prop {
                    attributes.push(AttributeCorrespondence { table: table.id, column, property });
                }
            }
        }

        let mut clusters = Vec::new();
        let mut cluster_entities = Vec::new();
        for (entity_id, rows) in rows_by_entity {
            let Some(entity) = world.entity(entity_id) else { continue };
            cluster_entities.push(entity);
            clusters.push(GoldCluster {
                entity: entity_id,
                rows,
                is_new: !entity.in_kb && !entity.confusable,
                is_target_class: !entity.confusable,
                kb_instance: world.instance_for_entity(entity_id),
                homonym_group: entity.homonym_group,
            });
        }

        // Facts: for every cluster and property with at least one candidate
        // cell, record the correct value and whether a correct candidate is
        // present.
        let schema = class_schema(class);
        let prop_types: HashMap<&str, ltee_types::DataType> =
            schema.iter().map(|s| (s.name, s.data_type)).collect();
        let mut facts = Vec::new();
        for (ci, (cluster, entity)) in clusters.iter().zip(cluster_entities).enumerate() {
            // Collect candidate cells per property for this cluster.
            let mut candidates: BTreeMap<&'static str, Vec<String>> = BTreeMap::new();
            for row in &cluster.rows {
                let (Some(table), Some(truth)) = (corpus.table(row.table), corpus.truth(row.table)) else {
                    continue;
                };
                for (column, prop) in truth.column_property.iter().enumerate() {
                    let Some(p) = *prop else { continue };
                    if let Some(cell) = table.cell(row.row, column) {
                        if !cell.trim().is_empty() {
                            candidates.entry(p).or_default().push(cell.to_string());
                        }
                    }
                }
            }
            for (property, cells) in candidates {
                let Some(correct) = entity.fact(property) else { continue };
                let Some(&dtype) = prop_types.get(property) else { continue };
                let value_present = cells.iter().any(|cell| {
                    parse_cell_as(cell, dtype)
                        .map(|v| value_equivalent(&v, correct, dtype, &eq))
                        .unwrap_or(false)
                });
                facts.push(GoldFact { cluster: ci, property, correct_value: correct.clone(), value_present });
            }
        }

        Self { class, tables, clusters, attributes, facts }
    }

    /// The Table 5 style summary statistics.
    pub fn stats(&self, corpus: &Corpus) -> GoldStandardStats {
        let rows: usize = self.clusters.iter().map(|c| c.size()).sum();
        // Matched values: non-empty cells in annotated attribute columns that
        // belong to rows of an annotated cluster.
        let mut matched_values = 0usize;
        for attr in &self.attributes {
            if let Some(table) = corpus.table(attr.table) {
                if let Some(col) = table.columns.get(attr.column) {
                    matched_values += col.cells.iter().filter(|c| !c.trim().is_empty()).count();
                }
            }
        }
        GoldStandardStats {
            tables: self.tables.len(),
            attributes: self.attributes.len(),
            rows,
            existing_clusters: self.clusters.iter().filter(|c| !c.is_new && c.is_target_class).count(),
            new_clusters: self.clusters.iter().filter(|c| c.is_new).count(),
            matched_values,
            value_groups: self.facts.len(),
            correct_value_present: self.facts.iter().filter(|f| f.value_present).count(),
        }
    }

    /// The fold group id of every cluster, in cluster order — the input to
    /// `ltee_ml`'s grouped k-fold splitter.
    pub fn cluster_fold_groups(&self) -> Vec<u64> {
        self.clusters.iter().map(|c| c.homonym_group).collect()
    }

    /// Look up the cluster index containing a given row, if any.
    pub fn cluster_of_row(&self, row: RowRef) -> Option<usize> {
        self.clusters.iter().position(|c| c.rows.contains(&row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_corpus, CorpusConfig};
    use ltee_kb::{generate_world, GeneratorConfig, Scale};

    fn setup() -> (ltee_kb::World, GeneratedCorpus) {
        let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 21));
        let corpus = generate_corpus(&world, &CorpusConfig::tiny());
        (world, corpus)
    }

    #[test]
    fn clusters_partition_all_rows() {
        let (world, corpus) = setup();
        for class in ltee_kb::CLASS_KEYS {
            let gold = GoldStandard::build(&world, &corpus, class);
            let clustered_rows: usize = gold.clusters.iter().map(|c| c.size()).sum();
            assert_eq!(clustered_rows, corpus.total_rows_of_class(class));
            // No row appears in two clusters.
            let mut seen = std::collections::HashSet::new();
            for c in &gold.clusters {
                for r in &c.rows {
                    assert!(seen.insert(*r), "row {r} in two clusters");
                }
            }
        }
    }

    #[test]
    fn new_flags_match_world_membership() {
        let (world, corpus) = setup();
        let gold = GoldStandard::build(&world, &corpus, ClassKey::Song);
        for c in &gold.clusters {
            let e = world.entity(c.entity).unwrap();
            assert_eq!(c.is_new, !e.in_kb && !e.confusable);
            assert_eq!(c.is_target_class, !e.confusable);
            if !c.is_new && c.is_target_class {
                assert!(c.kb_instance.is_some(), "existing cluster must map to an instance");
            }
            if c.is_new {
                assert!(c.kb_instance.is_none());
            }
        }
    }

    #[test]
    fn gold_contains_both_new_and_existing_clusters() {
        let (world, corpus) = setup();
        for class in ltee_kb::CLASS_KEYS {
            let gold = GoldStandard::build(&world, &corpus, class);
            let stats = gold.stats(&corpus);
            assert!(stats.new_clusters > 0, "{class}: no new clusters");
            assert!(stats.existing_clusters > 0, "{class}: no existing clusters");
        }
    }

    #[test]
    fn facts_reference_valid_clusters_and_properties() {
        let (world, corpus) = setup();
        let gold = GoldStandard::build(&world, &corpus, ClassKey::GridironFootballPlayer);
        let schema_props: std::collections::HashSet<&str> =
            class_schema(ClassKey::GridironFootballPlayer).iter().map(|s| s.name).collect();
        assert!(!gold.facts.is_empty());
        for f in &gold.facts {
            assert!(f.cluster < gold.clusters.len());
            assert!(schema_props.contains(f.property));
        }
    }

    #[test]
    fn most_value_groups_have_correct_value_present() {
        // The paper's Table 5 shows that for the vast majority of value
        // groups the correct value is present; our noise model should keep
        // the same shape.
        let (world, corpus) = setup();
        let mut present = 0usize;
        let mut total = 0usize;
        for class in ltee_kb::CLASS_KEYS {
            let gold = GoldStandard::build(&world, &corpus, class);
            let stats = gold.stats(&corpus);
            present += stats.correct_value_present;
            total += stats.value_groups;
        }
        assert!(total > 50);
        let ratio = present as f64 / total as f64;
        assert!(ratio > 0.7, "correct-value-present ratio {ratio:.2}");
    }

    #[test]
    fn stats_counts_are_consistent() {
        let (world, corpus) = setup();
        let gold = GoldStandard::build(&world, &corpus, ClassKey::Settlement);
        let stats = gold.stats(&corpus);
        assert_eq!(stats.tables, corpus.tables_of_class(ClassKey::Settlement).len());
        assert!(stats.attributes > 0);
        assert!(stats.correct_value_present <= stats.value_groups);
        assert!(stats.existing_clusters + stats.new_clusters <= gold.clusters.len());
    }

    #[test]
    fn fold_groups_align_with_clusters() {
        let (world, corpus) = setup();
        let gold = GoldStandard::build(&world, &corpus, ClassKey::Song);
        assert_eq!(gold.cluster_fold_groups().len(), gold.clusters.len());
    }

    #[test]
    fn cluster_of_row_finds_containing_cluster() {
        let (world, corpus) = setup();
        let gold = GoldStandard::build(&world, &corpus, ClassKey::Song);
        let row = gold.clusters[0].rows[0];
        assert_eq!(gold.cluster_of_row(row), Some(0));
        assert_eq!(gold.cluster_of_row(RowRef::new(TableId(999_999), 0)), None);
    }

    #[test]
    fn homonym_entities_share_fold_groups() {
        let (world, corpus) = setup();
        let gold = GoldStandard::build(&world, &corpus, ClassKey::Song);
        // Find two clusters of different entities with the same normalised
        // label, if any exist, and check they share a homonym group.
        for (i, a) in gold.clusters.iter().enumerate() {
            for b in gold.clusters.iter().skip(i + 1) {
                let ea = world.entity(a.entity).unwrap();
                let eb = world.entity(b.entity).unwrap();
                if ltee_text::normalize_label(&ea.canonical_label)
                    == ltee_text::normalize_label(&eb.canonical_label)
                {
                    assert_eq!(a.homonym_group, b.homonym_group);
                }
            }
        }
    }
}
