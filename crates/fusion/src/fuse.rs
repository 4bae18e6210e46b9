//! Candidate scoring, grouping, selection and fusion.

use std::collections::{BTreeMap, HashMap};

use ltee_kb::{ClassKey, KnowledgeBase};
use ltee_matching::CorpusMapping;
use ltee_types::{value_equivalent, DataType, EquivalenceConfig, Value};
use ltee_webtables::{Corpus, RowRef, TableId};
use rayon::prelude::*;

use crate::entity::{CandidateValue, Entity};

/// The candidate scoring approaches of Section 3.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScoringMethod {
    /// All candidate values receive an equal score of 1.0.
    Voting,
    /// Knowledge-Based-Trust: the trustworthiness of the source attribute
    /// column, estimated as the proportion of its values that overlap with
    /// knowledge base facts of the matched property.
    Kbt,
    /// The attribute-to-property correspondence score assigned by the
    /// schema matching component.
    Matching,
}

impl ScoringMethod {
    /// All scoring methods in a stable order (Table 10 columns).
    pub const ALL: [ScoringMethod; 3] = [ScoringMethod::Voting, ScoringMethod::Kbt, ScoringMethod::Matching];

    /// Name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            ScoringMethod::Voting => "VOTING",
            ScoringMethod::Kbt => "KBT",
            ScoringMethod::Matching => "MATCHING",
        }
    }
}

/// Configuration of entity creation. Equal candidates are grouped under
/// [`EquivalenceConfig::default`], the equality every other stage uses.
#[derive(Debug, Clone, PartialEq)]
pub struct EntityCreationConfig {
    /// The candidate scoring method.
    pub scoring: ScoringMethod,
}

impl Default for EntityCreationConfig {
    fn default() -> Self {
        Self { scoring: ScoringMethod::Matching }
    }
}

/// How many of a property's first values (a prefix of the knowledge base's
/// KB-Overlap sample, [`ltee_kb::KB_OVERLAP_SAMPLE`]) KBT scoring compares a
/// column against.
const KBT_SAMPLE: usize = 300;

/// Knowledge-Based-Trust scores per (table, column): the fraction of the
/// column's parsed values that overlap with any knowledge base value of the
/// matched property.
fn kbt_scores(corpus: &Corpus, mapping: &CorpusMapping, kb: &KnowledgeBase, class: ClassKey) -> HashMap<(TableId, usize), f64> {
    let tables: Vec<TableId> = mapping.tables_of_class(class).iter().map(|tm| tm.table).collect();
    kbt_scores_for_tables(corpus, mapping, kb, class, &tables)
}

/// [`ScoringMethod::Kbt`] scores restricted to the given tables.
///
/// A column's KBT score depends only on its own cells, its mapping and the
/// (frozen) knowledge base, so scores are computable table by table. The
/// incremental serve path uses this to score just a micro-batch's tables
/// and cache the result, instead of rescanning the whole accumulated
/// corpus on every ingest.
pub fn kbt_scores_for_tables(
    corpus: &Corpus,
    mapping: &CorpusMapping,
    kb: &KnowledgeBase,
    class: ClassKey,
    tables: &[TableId],
) -> HashMap<(TableId, usize), f64> {
    let mut scores = HashMap::new();
    for &table_id in tables {
        let Some(tm) = mapping.table(table_id) else { continue };
        if tm.class != Some(class) {
            continue;
        }
        let Some(table) = corpus.table(tm.table) else { continue };
        for (col, m) in tm.matched_columns() {
            let Some(prop) = kb.property_by_name(class, m.property) else { continue };
            let Some(sample) = kb.property_value_sample(prop.id) else { continue };
            let mut total = 0usize;
            let mut hits = 0usize;
            for cell in &table.columns[col].cells {
                if cell.trim().is_empty() {
                    continue;
                }
                total += 1;
                // A matched column carries its property's data type, the
                // one the sample was digested under.
                if ltee_types::parse_cell_as(cell, prop.data_type)
                    .is_some_and(|v| sample.prefix_contains_equivalent(&v, KBT_SAMPLE))
                {
                    hits += 1;
                }
            }
            let score = if total == 0 { 0.0 } else { hits as f64 / total as f64 };
            scores.insert((tm.table, col), score);
        }
    }
    scores
}

/// Create entities for every cluster of a clustering run.
pub fn create_entities(
    clusters: &[Vec<RowRef>],
    corpus: &Corpus,
    mapping: &CorpusMapping,
    kb: &KnowledgeBase,
    class: ClassKey,
    config: &EntityCreationConfig,
) -> Vec<Entity> {
    let kbt = match config.scoring {
        ScoringMethod::Kbt => Some(kbt_scores(corpus, mapping, kb, class)),
        _ => None,
    };
    create_entities_with_scores(clusters, corpus, mapping, kb, class, config, kbt.as_ref())
}

/// [`create_entities`] with precomputed KBT scores.
///
/// `kbt` is only consulted when `config.scoring` is
/// [`ScoringMethod::Kbt`]; pass a map built by [`kbt_scores_for_tables`]
/// (covering at least every table the clusters reference) to avoid the
/// full-corpus rescan that [`create_entities`] performs per call.
///
/// Fusing a cluster reads shared state only, so clusters fuse on the pool;
/// the collect keeps cluster order, and the output is the same at every
/// thread count.
pub fn create_entities_with_scores(
    clusters: &[Vec<RowRef>],
    corpus: &Corpus,
    mapping: &CorpusMapping,
    kb: &KnowledgeBase,
    class: ClassKey,
    config: &EntityCreationConfig,
    kbt: Option<&HashMap<(TableId, usize), f64>>,
) -> Vec<Entity> {
    clusters
        .par_iter()
        .map(|rows| create_entity(rows, corpus, mapping, kb, class, config, kbt))
        .collect()
}

/// Create a single entity from a cluster of rows, its facts scored by
/// `kbt` under [`ScoringMethod::Kbt`].
fn create_entity(
    rows: &[RowRef],
    corpus: &Corpus,
    mapping: &CorpusMapping,
    kb: &KnowledgeBase,
    class: ClassKey,
    config: &EntityCreationConfig,
    kbt: Option<&HashMap<(TableId, usize), f64>>,
) -> Entity {
    // --- Label counting, candidate collection and scoring --------------------
    let mut label_counts: BTreeMap<String, usize> = BTreeMap::new();
    let mut candidates: BTreeMap<&'static str, Vec<CandidateValue>> = BTreeMap::new();
    for &row in rows {
        let Some(tm) = mapping.table(row.table) else { continue };
        let Some(table) = corpus.table(row.table) else { continue };
        let label = tm.row_label(table, row.row);
        if !label.is_empty() {
            *label_counts.entry(label).or_insert(0) += 1;
        }
        for (col, m) in tm.matched_columns() {
            let Some(cell) = table.cell(row.row, col) else { continue };
            let Some(value) = ltee_types::parse_cell_as(cell, m.data_type) else { continue };
            let score = match config.scoring {
                ScoringMethod::Voting => 1.0,
                ScoringMethod::Matching => m.score,
                ScoringMethod::Kbt => {
                    kbt.and_then(|k| k.get(&(row.table, col)).copied()).unwrap_or(0.5)
                }
            };
            candidates.entry(m.property).or_default().push(CandidateValue { property: m.property, value, row, score });
        }
    }
    let mut labels: Vec<(String, usize)> = label_counts.into_iter().collect();
    labels.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let labels: Vec<String> = labels.into_iter().map(|(l, _)| l).collect();

    // --- Group, select, fuse ---------------------------------------------------
    let mut facts = Vec::new();
    for (property, cands) in candidates {
        let data_type = kb
            .property_by_name(class, property)
            .map(|p| p.data_type)
            .unwrap_or_else(|| cands[0].value.data_type());
        if let Some((value, support)) = fuse_candidates(&cands, data_type) {
            facts.push((property, value, support));
        }
    }

    Entity { class, rows: rows.to_vec(), labels, facts }
}

/// Group equal candidates, select the group with the highest score sum, and
/// fuse it into one value. Returns the fused value and the winning group's
/// score sum.
pub fn fuse_candidates(
    candidates: &[CandidateValue],
    data_type: DataType,
) -> Option<(Value, f64)> {
    if candidates.is_empty() {
        return None;
    }
    let eq = &EquivalenceConfig::default();
    // Grouping.
    let mut groups: Vec<Vec<&CandidateValue>> = Vec::new();
    for cand in candidates {
        match groups.iter_mut().find(|g| value_equivalent(&g[0].value, &cand.value, data_type, eq)) {
            Some(group) => group.push(cand),
            None => groups.push(vec![cand]),
        }
    }
    // Selection: highest sum of scores; ties broken towards the larger group
    // and then the first-seen group for determinism.
    let best = groups
        .iter()
        .enumerate()
        .max_by(|(ia, a), (ib, b)| {
            let sa: f64 = a.iter().map(|c| c.score).sum();
            let sb: f64 = b.iter().map(|c| c.score).sum();
            sa.partial_cmp(&sb)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.len().cmp(&b.len()))
                .then_with(|| ib.cmp(ia))
        })
        .map(|(_, g)| g)?;
    let support: f64 = best.iter().map(|c| c.score).sum();

    // Fusion.
    let fused = match data_type {
        DataType::Text | DataType::InstanceReference => majority_value(best),
        DataType::NominalString | DataType::NominalInteger => best[0].value.clone(),
        DataType::Quantity => Value::Quantity(weighted_median(
            best.iter().filter_map(|c| c.value.as_f64().map(|v| (v, c.score))).collect(),
        )?),
        DataType::Date => {
            // Weighted median over the dates' linearisation, then pick the
            // candidate date closest to that median.
            let median = weighted_median(
                best.iter()
                    .filter_map(|c| c.value.as_date().map(|d| (d.approximate_days(), c.score)))
                    .collect(),
            )?;
            best.iter()
                .filter_map(|c| c.value.as_date().map(|d| (c, (d.approximate_days() - median).abs())))
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(c, _)| c.value.clone())?
        }
    };
    Some((fused, support))
}

/// The most frequent value of a group (score-weighted), deterministic on ties.
fn majority_value(group: &[&CandidateValue]) -> Value {
    let mut weights: Vec<(String, f64, &Value)> = Vec::new();
    for cand in group {
        let key = cand.value.render();
        match weights.iter_mut().find(|(k, _, _)| *k == key) {
            Some((_, w, _)) => *w += cand.score,
            None => weights.push((key, cand.score, &cand.value)),
        }
    }
    weights
        .into_iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal).then_with(|| b.0.cmp(&a.0)))
        .map(|(_, _, v)| v.clone())
        .unwrap_or_else(|| group[0].value.clone())
}

/// Weighted median of `(value, weight)` pairs.
fn weighted_median(mut pairs: Vec<(f64, f64)>) -> Option<f64> {
    if pairs.is_empty() {
        return None;
    }
    pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let total: f64 = pairs.iter().map(|(_, w)| w.max(0.0)).sum();
    if total <= 0.0 {
        return Some(pairs[pairs.len() / 2].0);
    }
    let mut acc = 0.0;
    for (v, w) in &pairs {
        acc += w.max(0.0);
        if acc >= total / 2.0 {
            return Some(*v);
        }
    }
    Some(pairs[pairs.len() - 1].0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltee_types::Date;
    use ltee_webtables::TableId;

    fn cand(property: &'static str, value: Value, score: f64, row: usize) -> CandidateValue {
        CandidateValue { property, value, row: RowRef::new(TableId(1), row), score }
    }

    #[test]
    fn scoring_method_names() {
        assert_eq!(ScoringMethod::Voting.name(), "VOTING");
        assert_eq!(ScoringMethod::ALL.len(), 3);
    }

    #[test]
    fn fuse_majority_for_instance_refs() {
        let cands = vec![
            cand("team", Value::InstanceRef("Packers".into()), 1.0, 0),
            cand("team", Value::InstanceRef("Packers".into()), 1.0, 1),
            cand("team", Value::InstanceRef("Bears".into()), 1.0, 2),
        ];
        let (v, support) =
            fuse_candidates(&cands, DataType::InstanceReference).unwrap();
        assert_eq!(v, Value::InstanceRef("Packers".into()));
        assert_eq!(support, 2.0);
    }

    #[test]
    fn fuse_respects_scores_over_counts() {
        let cands = vec![
            cand("team", Value::InstanceRef("Packers".into()), 0.1, 0),
            cand("team", Value::InstanceRef("Packers".into()), 0.1, 1),
            cand("team", Value::InstanceRef("Bears".into()), 0.9, 2),
        ];
        let (v, _) =
            fuse_candidates(&cands, DataType::InstanceReference).unwrap();
        assert_eq!(v, Value::InstanceRef("Bears".into()));
    }

    #[test]
    fn fuse_weighted_median_for_quantities() {
        let cands = vec![
            cand("populationTotal", Value::Quantity(1000.0), 1.0, 0),
            cand("populationTotal", Value::Quantity(1020.0), 1.0, 1),
            cand("populationTotal", Value::Quantity(5000.0), 1.0, 2),
        ];
        // 1000 and 1020 group together (2% tolerance), 5000 is separate.
        let (v, _) = fuse_candidates(&cands, DataType::Quantity).unwrap();
        let q = v.as_f64().unwrap();
        assert!((1000.0..=1020.0).contains(&q), "fused {q}");
    }

    #[test]
    fn fuse_dates_picks_median_candidate() {
        let cands = vec![
            cand("releaseDate", Value::Date(Date::year(1999)), 1.0, 0),
            cand("releaseDate", Value::Date(Date::year(1999)), 1.0, 1),
            cand("releaseDate", Value::Date(Date::year(2005)), 1.0, 2),
        ];
        let (v, _) = fuse_candidates(&cands, DataType::Date).unwrap();
        assert_eq!(v.as_date().unwrap().year, 1999);
    }

    #[test]
    fn fuse_nominal_group_is_exact() {
        let cands = vec![
            cand("number", Value::NominalInt(12), 1.0, 0),
            cand("number", Value::NominalInt(12), 1.0, 1),
            cand("number", Value::NominalInt(7), 1.0, 2),
        ];
        let (v, support) =
            fuse_candidates(&cands, DataType::NominalInteger).unwrap();
        assert_eq!(v, Value::NominalInt(12));
        assert_eq!(support, 2.0);
    }

    #[test]
    fn fuse_empty_candidates_is_none() {
        assert!(fuse_candidates(&[], DataType::Text).is_none());
    }

    #[test]
    fn weighted_median_basics() {
        assert_eq!(weighted_median(vec![(1.0, 1.0), (2.0, 1.0), (100.0, 1.0)]), Some(2.0));
        assert_eq!(weighted_median(vec![(5.0, 1.0)]), Some(5.0));
        assert_eq!(weighted_median(vec![]), None);
        // Heavy weight pulls the median.
        assert_eq!(weighted_median(vec![(1.0, 0.1), (2.0, 0.1), (10.0, 5.0)]), Some(10.0));
    }

    #[test]
    fn end_to_end_entity_creation_produces_correct_facts() {
        use ltee_kb::{generate_world, GeneratorConfig, Scale};
        use ltee_matching::{match_corpus, MatcherWeights, SchemaMatchingConfig};
        use ltee_webtables::{generate_corpus, CorpusConfig, GoldStandard};

        let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 61));
        let corpus = generate_corpus(&world, &CorpusConfig::tiny());
        let mapping = match_corpus(
            &corpus,
            world.kb(),
            &MatcherWeights::default(),
            &SchemaMatchingConfig::default(),
            None,
        );
        let class = ClassKey::GridironFootballPlayer;
        let gold = GoldStandard::build(&world, &corpus, class);

        // Fuse the gold clusters directly (perfect clustering), then check
        // that a decent share of fused facts match the world ground truth.
        let clusters: Vec<Vec<RowRef>> = gold.clusters.iter().map(|c| c.rows.clone()).collect();
        for method in ScoringMethod::ALL {
            let config = EntityCreationConfig { scoring: method };
            let entities = create_entities(&clusters, &corpus, &mapping, world.kb(), class, &config);
            assert_eq!(entities.len(), clusters.len());

            let eq = EquivalenceConfig::lenient();
            let mut correct = 0usize;
            let mut total = 0usize;
            for (entity, cluster) in entities.iter().zip(gold.clusters.iter()) {
                let world_entity = world.entity(cluster.entity).unwrap();
                for (prop, value, _) in &entity.facts {
                    let Some(truth) = world_entity.fact(prop) else { continue };
                    total += 1;
                    let dtype = world.kb().property_by_name(class, prop).unwrap().data_type;
                    if value_equivalent(value, truth, dtype, &eq) {
                        correct += 1;
                    }
                }
            }
            assert!(total > 30, "{method:?}: too few facts fused ({total})");
            let acc = correct as f64 / total as f64;
            assert!(acc > 0.6, "{method:?}: fused fact accuracy {acc:.2}");
        }
    }

    #[test]
    fn kbt_scores_are_per_table_and_cached_fusion_matches_full_rescan() {
        use ltee_kb::{generate_world, GeneratorConfig, Scale};
        use ltee_matching::{match_corpus, MatcherWeights, SchemaMatchingConfig};
        use ltee_webtables::{generate_corpus, CorpusConfig, GoldStandard};

        let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 63));
        let corpus = generate_corpus(&world, &CorpusConfig::tiny());
        let mapping = match_corpus(
            &corpus,
            world.kb(),
            &MatcherWeights::default(),
            &SchemaMatchingConfig::default(),
            None,
        );
        let class = ClassKey::GridironFootballPlayer;
        let all_tables: Vec<TableId> =
            mapping.tables_of_class(class).iter().map(|tm| tm.table).collect();
        assert!(all_tables.len() >= 2, "need several mapped tables");

        // Scoring each table with only itself in the corpus and mapping, as
        // a micro-batch does, equals one pass over everything, as restore
        // does: a table's scores do not change when other tables join.
        let full = kbt_scores_for_tables(&corpus, &mapping, world.kb(), class, &all_tables);
        let mut piecewise = HashMap::new();
        for &id in &all_tables {
            let alone = Corpus::from_tables(vec![corpus.table(id).unwrap().clone()]);
            let alone_mapping = CorpusMapping::from_tables(vec![mapping.table(id).unwrap().clone()]);
            piecewise.extend(kbt_scores_for_tables(&alone, &alone_mapping, world.kb(), class, &[id]));
        }
        assert!(!full.is_empty());
        assert_eq!(full.len(), piecewise.len());
        for (key, value) in &full {
            assert_eq!(piecewise.get(key).map(|v| v.to_bits()), Some(value.to_bits()));
        }
        // Every score equals the raw scan over the property's first values.
        let eq = EquivalenceConfig::default();
        for (&(table_id, col), score) in &full {
            let m = mapping.table(table_id).unwrap().correspondences[col].as_ref().unwrap();
            let prop = world.kb().property_by_name(class, m.property).unwrap();
            let kb_values = world.kb().property_values(prop.id);
            let cells = &corpus.table(table_id).unwrap().columns[col].cells;
            let filled = cells.iter().filter(|c| !c.trim().is_empty());
            let hit = |cell: &&str| {
                ltee_types::parse_cell_as(cell, m.data_type).is_some_and(|v| {
                    kb_values.iter().take(KBT_SAMPLE).any(|kv| value_equivalent(&v, kv, m.data_type, &eq))
                })
            };
            let expected = filled.clone().filter(hit).count() as f64 / filled.count() as f64;
            assert_eq!(score.to_bits(), expected.to_bits());
        }
        // Tables of other classes and unknown tables contribute nothing.
        assert!(kbt_scores_for_tables(&corpus, &mapping, world.kb(), class, &[TableId(u64::MAX)])
            .is_empty());

        // Fusing with the cached scores equals the rescanning entry point.
        let gold = GoldStandard::build(&world, &corpus, class);
        let clusters: Vec<Vec<RowRef>> = gold.clusters.iter().map(|c| c.rows.clone()).collect();
        let config = EntityCreationConfig { scoring: ScoringMethod::Kbt };
        let rescan = create_entities(&clusters, &corpus, &mapping, world.kb(), class, &config);
        let cached = create_entities_with_scores(
            &clusters,
            &corpus,
            &mapping,
            world.kb(),
            class,
            &config,
            Some(&full),
        );
        assert_eq!(rescan, cached);
    }

    #[test]
    fn pooled_fusion_equals_sequential_fusion_at_every_thread_count() {
        use ltee_kb::{generate_world, GeneratorConfig, Scale};
        use ltee_matching::{match_corpus, MatcherWeights, SchemaMatchingConfig};
        use ltee_webtables::{generate_corpus, CorpusConfig, GoldStandard};

        let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 65));
        let corpus = generate_corpus(&world, &CorpusConfig::tiny());
        let mapping = match_corpus(
            &corpus,
            world.kb(),
            &MatcherWeights::default(),
            &SchemaMatchingConfig::default(),
            None,
        );
        for class in ltee_kb::CLASS_KEYS {
            let gold = GoldStandard::build(&world, &corpus, class);
            let clusters: Vec<Vec<RowRef>> = gold.clusters.into_iter().map(|c| c.rows).collect();
            assert!(clusters.len() > 8, "{class}: too few clusters to spread over a pool");
            let kbt = kbt_scores(&corpus, &mapping, world.kb(), class);
            for scoring in ScoringMethod::ALL {
                let config = EntityCreationConfig { scoring };
                let fuse = |rows: &Vec<RowRef>| {
                    create_entity(rows, &corpus, &mapping, world.kb(), class, &config, Some(&kbt))
                };
                let sequential: Vec<Entity> = clusters.iter().map(fuse).collect();
                for threads in [1, 4] {
                    rayon::ThreadPoolBuilder::new().num_threads(threads).build_global().unwrap();
                    let pooled = create_entities_with_scores(
                        &clusters,
                        &corpus,
                        &mapping,
                        world.kb(),
                        class,
                        &config,
                        Some(&kbt),
                    );
                    // Debug text compares every f64 by its digits, NaN included.
                    let (got, expected) = (format!("{pooled:?}"), format!("{sequential:?}"));
                    assert_eq!(got, expected, "{class} {scoring:?} at {threads}");
                }
            }
        }
    }

    #[test]
    fn entities_have_labels_from_rows() {
        use ltee_kb::{generate_world, GeneratorConfig, Scale};
        use ltee_matching::{match_corpus, MatcherWeights, SchemaMatchingConfig};
        use ltee_webtables::{generate_corpus, CorpusConfig, GoldStandard};

        let world = generate_world(&GeneratorConfig::new(Scale::tiny(), 62));
        let corpus = generate_corpus(&world, &CorpusConfig::tiny());
        let mapping = match_corpus(
            &corpus,
            world.kb(),
            &MatcherWeights::default(),
            &SchemaMatchingConfig::default(),
            None,
        );
        let class = ClassKey::Song;
        let gold = GoldStandard::build(&world, &corpus, class);
        let clusters: Vec<Vec<RowRef>> = gold.clusters.iter().map(|c| c.rows.clone()).collect();
        let entities =
            create_entities(&clusters, &corpus, &mapping, world.kb(), class, &EntityCreationConfig::default());
        let with_labels = entities.iter().filter(|e| !e.labels.is_empty()).count();
        assert!(with_labels as f64 > entities.len() as f64 * 0.9);
    }
}
