//! Entity-to-instance similarity metrics.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

use ltee_fusion::Entity;
use ltee_intern::{Interner, TokenSeq};
use ltee_kb::{ClassKey, Instance, InstanceId, KnowledgeBase};
use ltee_ml::{MetricKind, MetricModel, PairFeatures};
use ltee_text::{cosine_similarity, monge_elkan_tokens, normalize_label, tokenize_interned, BowVector};
use ltee_types::{Agreement, PreparedValue, Value};
use ltee_webtables::Corpus;
use rayon::prelude::*;

use ltee_clustering::ImplicitAttributes;

/// The six entity-to-instance similarity metrics of paper Section 3.4, in
/// feature order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntityMetricKind {
    /// Monge-Elkan similarity between entity labels and instance labels.
    Label,
    /// Overlap between the entity's class (plus ancestors) and the
    /// candidate instance's class hierarchy.
    Type,
    /// Cosine similarity between the entity's combined bag-of-words vector
    /// and a vector built from the instance's labels, abstract and facts.
    Bow,
    /// Equality of overlapping facts (with a confidence equal to the number
    /// of overlapping properties).
    Attribute,
    /// Agreement between the entity-level implicit attributes and the
    /// instance's facts.
    ImplicitAtt,
    /// Rank-based popularity score of the candidate among all candidates.
    Popularity,
}

impl MetricKind for EntityMetricKind {
    /// All metrics in the order of the Table 8 ablation.
    const ALL: &'static [EntityMetricKind] = &[
        EntityMetricKind::Label,
        EntityMetricKind::Type,
        EntityMetricKind::Bow,
        EntityMetricKind::Attribute,
        EntityMetricKind::ImplicitAtt,
        EntityMetricKind::Popularity,
    ];
    const LIST_LABEL: &'static str = "entity_model.metrics";
    const TAG_LABEL: &'static str = "entity_model.metric";

    fn name(self) -> &'static str {
        match self {
            EntityMetricKind::Label => "LABEL",
            EntityMetricKind::Type => "TYPE",
            EntityMetricKind::Bow => "BOW",
            EntityMetricKind::Attribute => "ATTRIBUTE",
            EntityMetricKind::ImplicitAtt => "IMPLICIT_ATT",
            EntityMetricKind::Popularity => "POPULARITY",
        }
    }

    fn has_confidence(self) -> bool {
        matches!(self, EntityMetricKind::Attribute | EntityMetricKind::ImplicitAtt)
    }

    fn code(self) -> u8 {
        match self {
            EntityMetricKind::Label => 0,
            EntityMetricKind::Type => 1,
            EntityMetricKind::Bow => 2,
            EntityMetricKind::Attribute => 3,
            EntityMetricKind::ImplicitAtt => 4,
            EntityMetricKind::Popularity => 5,
        }
    }
}

/// A trained entity-to-instance similarity model, scoring the features of
/// [`entity_metric_features`] in `[-1, 1]`.
pub type EntitySimilarityModel = MetricModel<EntityMetricKind>;

/// Precomputed view of a created entity used by the metrics.
#[derive(Debug, Clone)]
pub struct EntityContext {
    /// The created entity (read through [`EntityContext::entity`]; its
    /// facts have prepared forms below, so it is fixed once assembled).
    entity: Entity,
    /// Interned tokens of each normalised entity label, memoised once so
    /// candidate scoring neither re-normalises nor re-tokenises the same
    /// labels for every candidate instance (parallel workers score many
    /// candidates per entity). One `TokenSeq` per `entity.labels` entry,
    /// minted by the pipeline run's interner.
    pub label_tokens: Vec<TokenSeq>,
    /// The entity's class hierarchy (class name + ancestors), precomputed
    /// for the `TYPE` metric.
    pub class_hierarchy: Vec<&'static str>,
    /// Combined bag-of-words vector of all the entity's rows.
    pub bow: BowVector,
    /// Entity-level implicit attributes: (property, prepared value,
    /// confidence); read through [`EntityContext::implicit`].
    implicit: Vec<(&'static str, PreparedValue, f64)>,
    /// The values of `entity.facts` prepared for comparison, position by
    /// position: the `ATTRIBUTE` metric compares these against every
    /// candidate instance. The facts themselves stay on `entity`, the
    /// record fusion serves; only [`EntityContext::from_parts`] writes the
    /// two.
    prepared_facts: Vec<PreparedValue>,
}

impl EntityContext {
    /// Assemble a context from its parts, interning the normalised labels'
    /// tokens into the run interner.
    pub fn from_parts(
        entity: Entity,
        bow: BowVector,
        implicit: Vec<(&'static str, PreparedValue, f64)>,
        interner: &mut Interner,
    ) -> Self {
        let label_tokens = entity
            .labels
            .iter()
            .map(|l| tokenize_interned(&normalize_label(l), interner))
            .collect();
        let class_hierarchy = class_hierarchy_of(entity.class);
        let prepared_facts = entity.facts.iter().map(|(_, value, _)| PreparedValue::new(value)).collect();
        Self { entity, label_tokens, class_hierarchy, bow, implicit, prepared_facts }
    }

    /// The created entity.
    pub fn entity(&self) -> &Entity {
        &self.entity
    }

    /// Entity-level implicit attributes: (property, prepared value,
    /// confidence).
    pub fn implicit(&self) -> &[(&'static str, PreparedValue, f64)] {
        &self.implicit
    }

    /// Build the context of an entity from the corpus and the table-level
    /// implicit attributes.
    pub fn build(
        entity: Entity,
        corpus: &Corpus,
        implicit: &ImplicitAttributes,
        interner: &mut Interner,
    ) -> Self {
        let bow = BowVector::from_texts(entity.rows.iter().flat_map(|&row| corpus.row_cells(row)));
        // Entity-level implicit attributes: sum the table-level confidence of
        // equal (property, value) combinations over the entity's rows and
        // divide by the number of rows.
        let mut acc: Vec<(&'static str, PreparedValue, f64)> = Vec::new();
        // How each entry of `acc` renders: combinations are equal when
        // their properties and rendered values are.
        let mut renders: Vec<String> = Vec::new();
        for row in &entity.rows {
            for attribute in implicit.of_table(row.table) {
                let (prop, render) = (attribute.property, attribute.value.render());
                match acc.iter().zip(&renders).position(|(&(p, _, _), r)| p == prop && *r == render) {
                    Some(i) => acc[i].2 += attribute.score,
                    None => {
                        acc.push((prop, attribute.prepared.clone(), attribute.score));
                        renders.push(render);
                    }
                }
            }
        }
        let rows = entity.rows.len().max(1) as f64;
        for (_, _, s) in &mut acc {
            *s /= rows;
        }
        acc.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
        Self::from_parts(entity, bow, acc, interner)
    }
}

/// What [`Value::render`] gives, borrowed for a string value (which renders
/// as itself).
fn rendered(value: &Value) -> Cow<'_, str> {
    value.as_str().map_or_else(|| Cow::Owned(value.render()), Cow::Borrowed)
}

/// The static class hierarchy (class name + ancestors) of a class.
fn class_hierarchy_of(class: ClassKey) -> Vec<&'static str> {
    let mut hierarchy = vec![class.name()];
    hierarchy.extend(class.ancestors().iter().copied());
    hierarchy
}

/// Precomputed view of a knowledge base instance used by the metrics.
#[derive(Debug, Clone)]
pub struct InstanceContext {
    /// Interned tokens of each normalised instance label (one `TokenSeq`
    /// per label), minted by the same interner as the entity contexts the
    /// instance is scored against.
    pub label_tokens: Vec<TokenSeq>,
    /// Bag-of-words vector over labels, abstract and facts.
    pub bow: BowVector,
    /// The instance's class.
    pub class: ClassKey,
    /// Class ancestors (including the class itself).
    pub class_hierarchy: Vec<&'static str>,
    /// Facts of the instance: (property, value prepared for comparison).
    facts: Vec<(&'static str, PreparedValue)>,
    /// Page-link popularity.
    pub page_links: u64,
    /// The instance id.
    pub id: ltee_kb::InstanceId,
}

impl InstanceContext {
    /// Everything of an instance's context but its label tokens — a
    /// function of the instance and the frozen knowledge base alone — and
    /// the normalised labels whose tokens `mint_label_tokens` interns.
    fn body(instance: &Instance, kb: &KnowledgeBase) -> (Self, Vec<String>) {
        let texts = instance.labels_and_abstract().map(Cow::Borrowed);
        let bow = BowVector::from_texts(texts.chain(instance.facts.iter().map(|fact| rendered(&fact.value))));
        let facts = instance
            .facts
            .iter()
            .filter_map(|fact| Some((kb.property(fact.property)?.name, PreparedValue::new(&fact.value))))
            .collect();
        let context = Self {
            label_tokens: Vec::new(),
            bow,
            class: instance.class,
            class_hierarchy: class_hierarchy_of(instance.class),
            facts,
            page_links: instance.page_links,
            id: instance.id,
        };
        (context, instance.labels().map(normalize_label).collect())
    }

    /// Intern the tokens of the instance's normalised labels.
    fn mint_label_tokens(&mut self, normalized_labels: &[String], interner: &mut Interner) {
        self.label_tokens = normalized_labels.iter().map(|l| tokenize_interned(l, interner)).collect();
    }

    /// The context of every distinct instance that `retrievals` — each
    /// entity with the candidate ids it retrieved — name and `admit` lets
    /// through for a retrieving entity, keyed by id. Each instance is
    /// materialised once however many entities retrieve it: the bodies on
    /// the pool, then the label tokens minted into `interner` in
    /// first-retrieval order — the order checkpoints persist, which is why
    /// minting alone stays sequential.
    pub(crate) fn build_retrieved<'e>(
        retrievals: impl IntoIterator<Item = (&'e EntityContext, &'e [InstanceId])>,
        kb: &KnowledgeBase,
        interner: &mut Interner,
        admit: impl Fn(&Instance, &EntityContext) -> bool,
    ) -> HashMap<InstanceId, InstanceContext> {
        let mut queued: HashSet<InstanceId> = HashSet::new();
        let mut to_build: Vec<(InstanceId, &Instance)> = Vec::new();
        for (entity, ids) in retrievals {
            for &id in ids {
                if queued.contains(&id) {
                    continue;
                }
                if let Some(instance) = kb.instance(id).filter(|instance| admit(instance, entity)) {
                    queued.insert(id);
                    to_build.push((id, instance));
                }
            }
        }
        let bodies: Vec<(Self, Vec<String>)> =
            to_build.par_iter().map(|&(_, instance)| Self::body(instance, kb)).collect();
        let mut contexts = HashMap::with_capacity(bodies.len());
        for ((id, _), (mut context, labels)) in to_build.into_iter().zip(bodies) {
            context.mint_label_tokens(&labels, interner);
            contexts.insert(id, context);
        }
        contexts
    }

    /// Share of `values` — (property, confidence, prepared value) — that
    /// agree with this instance's fact for the same property, under the
    /// fact's data type, and the summed confidence of the values that had a
    /// fact to compare with; zeros if none had.
    fn agreement<'a>(&self, values: impl Iterator<Item = (&'a str, f64, &'a PreparedValue)>) -> (f64, f64) {
        let mut agreement = Agreement::default();
        for (prop, score, value) in values {
            if let Some((_, fact)) = self.facts.iter().find(|&&(p, _)| p == prop) {
                // Similarity is symmetric: comparing under the fact's type
                // with the fact first scores what the reverse order does.
                agreement.compare(fact, value, score);
            }
        }
        agreement.score()
    }
}

/// Every candidate of one entity with its `POPULARITY` score: ranked by
/// page links (a stable sort, so retrieval order breaks ties), the
/// candidate at rank `r` scores `1/r` — `1.0` when it is the only one.
pub(crate) fn by_popularity(mut candidates: Vec<&InstanceContext>) -> impl Iterator<Item = (&InstanceContext, f64)> {
    candidates.sort_by_key(|c| std::cmp::Reverse(c.page_links));
    candidates.into_iter().enumerate().map(|(rank, c)| (c, 1.0 / (rank + 1) as f64))
}

/// Compute one metric for an entity / candidate-instance pair.
///
/// `popularity_score` is the rank-based score of this candidate among the
/// entity's candidate set (1.0 when it is the only candidate). `interner`
/// is the interner behind both contexts' interned label tokens.
pub fn entity_metric_score(
    kind: EntityMetricKind,
    entity: &EntityContext,
    instance: &InstanceContext,
    popularity_score: f64,
    interner: &Interner,
) -> (f64, f64) {
    match kind {
        EntityMetricKind::Label => {
            let mut best: f64 = 0.0;
            for el in &entity.label_tokens {
                for il in &instance.label_tokens {
                    best = best.max(monge_elkan_tokens(el, il, interner));
                }
            }
            (best, 1.0)
        }
        EntityMetricKind::Type => {
            // The entity's class hierarchy (class + ancestors) vs the
            // instance's: fraction of the entity's hierarchy present in the
            // instance's hierarchy (both memoised on the contexts).
            let overlap = entity
                .class_hierarchy
                .iter()
                .filter(|c| instance.class_hierarchy.contains(c))
                .count();
            (overlap as f64 / entity.class_hierarchy.len().max(1) as f64, 1.0)
        }
        EntityMetricKind::Bow => (cosine_similarity(&entity.bow, &instance.bow), 1.0),
        // Confidence: the number of overlapping properties (a sum of ones).
        EntityMetricKind::Attribute => instance.agreement(
            entity.entity.facts.iter().zip(&entity.prepared_facts).map(|(&(p, _, _), v)| (p, 1.0, v)),
        ),
        // Confidence: the summed scores of the overlapping implicit attributes.
        EntityMetricKind::ImplicitAtt => instance.agreement(entity.implicit.iter().map(|(p, v, s)| (*p, *s, v))),
        EntityMetricKind::Popularity => (popularity_score, 1.0),
    }
}

/// Full feature vector (similarities then confidences) for a pair.
pub fn entity_metric_features(
    metrics: &[EntityMetricKind],
    entity: &EntityContext,
    instance: &InstanceContext,
    popularity_score: f64,
    interner: &Interner,
) -> PairFeatures {
    EntitySimilarityModel::features(metrics, |kind| {
        entity_metric_score(kind, entity, instance, popularity_score, interner)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltee_kb::ClassKey;
    use ltee_webtables::{RowRef, TableId};

    fn entity_ctx(
        interner: &mut Interner,
        class: ClassKey,
        label: &str,
        facts: Vec<(&'static str, Value)>,
    ) -> EntityContext {
        let entity = Entity {
            class,
            rows: vec![RowRef::new(TableId(1), 0)],
            labels: vec![label.to_string()],
            facts: facts.into_iter().map(|(p, v)| (p, v, 1.0)).collect(),
        };
        EntityContext::from_parts(entity, BowVector::from_text(label), vec![], interner)
    }

    fn instance_ctx(
        interner: &mut Interner,
        class: ClassKey,
        label: &str,
        facts: Vec<(&'static str, Value)>,
        links: u64,
    ) -> InstanceContext {
        let bow = BowVector::from_texts(std::iter::once(label.to_string()).chain(facts.iter().map(|(_, v)| v.render())));
        InstanceContext {
            label_tokens: vec![tokenize_interned(&normalize_label(label), interner)],
            bow,
            class,
            class_hierarchy: super::class_hierarchy_of(class),
            facts: facts.iter().map(|&(p, ref v)| (p, PreparedValue::new(v))).collect(),
            page_links: links,
            id: ltee_kb::InstanceId(0),
        }
    }

    #[test]
    fn label_metric_distinguishes_matching_labels() {
        let mut interner = Interner::new();
        let e = entity_ctx(&mut interner, ClassKey::Song, "Hey Jude", vec![]);
        let same = instance_ctx(&mut interner, ClassKey::Song, "Hey Jude", vec![], 10);
        let other = instance_ctx(&mut interner, ClassKey::Song, "Yellow Submarine", vec![], 10);
        let (s1, _) = entity_metric_score(EntityMetricKind::Label, &e, &same, 1.0, &interner);
        let (s2, _) = entity_metric_score(EntityMetricKind::Label, &e, &other, 1.0, &interner);
        assert!(s1 > 0.95);
        assert!(s2 < 0.6);
    }

    #[test]
    fn type_metric_full_for_same_class() {
        let mut interner = Interner::new();
        let e = entity_ctx(&mut interner, ClassKey::Settlement, "Springfield", vec![]);
        let same = instance_ctx(&mut interner, ClassKey::Settlement, "Springfield", vec![], 1);
        let (s, _) = entity_metric_score(EntityMetricKind::Type, &e, &same, 1.0, &interner);
        assert!((s - 1.0).abs() < 1e-12);
        let diff = instance_ctx(&mut interner, ClassKey::Song, "Springfield", vec![], 1);
        let (s2, _) = entity_metric_score(EntityMetricKind::Type, &e, &diff, 1.0, &interner);
        assert!(s2 < s);
    }

    #[test]
    fn attribute_metric_counts_overlapping_facts() {
        let mut interner = Interner::new();
        let e = entity_ctx(
            &mut interner,
            ClassKey::Song,
            "Hey Jude",
            vec![("runtime", Value::Quantity(431.0)), ("genre", Value::Nominal("Rock".into()))],
        );
        let inst = instance_ctx(
            &mut interner,
            ClassKey::Song,
            "Hey Jude",
            vec![("runtime", Value::Quantity(431.0)), ("genre", Value::Nominal("Pop".into()))],
            5,
        );
        let (sim, conf) = entity_metric_score(EntityMetricKind::Attribute, &e, &inst, 1.0, &interner);
        assert!((sim - 0.5).abs() < 1e-12);
        assert_eq!(conf, 2.0);
    }

    #[test]
    fn attribute_metric_zero_confidence_without_overlap() {
        let mut interner = Interner::new();
        let e = entity_ctx(&mut interner, ClassKey::Song, "Hey Jude", vec![("runtime", Value::Quantity(431.0))]);
        let inst = instance_ctx(&mut interner, ClassKey::Song, "Hey Jude", vec![("genre", Value::Nominal("Rock".into()))], 5);
        let (sim, conf) = entity_metric_score(EntityMetricKind::Attribute, &e, &inst, 1.0, &interner);
        assert_eq!(sim, 0.0);
        assert_eq!(conf, 0.0);
    }

    #[test]
    fn bow_metric_rewards_shared_terms() {
        let mut interner = Interner::new();
        let e = entity_ctx(&mut interner, ClassKey::Song, "Hey Jude Beatles", vec![]);
        let close = instance_ctx(&mut interner, ClassKey::Song, "Hey Jude", vec![("musicalArtist", Value::InstanceRef("Beatles".into()))], 1);
        let far = instance_ctx(&mut interner, ClassKey::Song, "Completely Different Title", vec![], 1);
        let (s1, _) = entity_metric_score(EntityMetricKind::Bow, &e, &close, 1.0, &interner);
        let (s2, _) = entity_metric_score(EntityMetricKind::Bow, &e, &far, 1.0, &interner);
        assert!(s1 > s2);
    }

    #[test]
    fn popularity_metric_passes_through_rank_score() {
        let mut interner = Interner::new();
        let e = entity_ctx(&mut interner, ClassKey::Song, "Hey Jude", vec![]);
        let inst = instance_ctx(&mut interner, ClassKey::Song, "Hey Jude", vec![], 1);
        assert_eq!(
            entity_metric_score(EntityMetricKind::Popularity, &e, &inst, 0.5, &interner).0,
            0.5
        );
    }

    #[test]
    fn feature_layout_matches_names() {
        let mut interner = Interner::new();
        let metrics = EntityMetricKind::ALL.to_vec();
        let names = EntitySimilarityModel::feature_names(&metrics);
        assert_eq!(names.len(), 8);
        let e = entity_ctx(&mut interner, ClassKey::Song, "Hey Jude", vec![]);
        let inst = instance_ctx(&mut interner, ClassKey::Song, "Hey Jude", vec![], 1);
        assert_eq!(entity_metric_features(&metrics, &e, &inst, 1.0, &interner).len(), 8);
    }

    #[test]
    fn implicit_metric_uses_entity_level_attributes() {
        let mut interner = Interner::new();
        let plain = entity_ctx(&mut interner, ClassKey::Song, "Hey Jude", vec![]);
        let implicit = vec![("musicalArtist", PreparedValue::new(&Value::InstanceRef("The Beatles".into())), 0.8)];
        let e = EntityContext::from_parts(plain.entity, plain.bow, implicit, &mut interner);
        let matching = instance_ctx(
            &mut interner,
            ClassKey::Song,
            "Hey Jude",
            vec![("musicalArtist", Value::InstanceRef("The Beatles".into()))],
            1,
        );
        let (sim, conf) = entity_metric_score(EntityMetricKind::ImplicitAtt, &e, &matching, 1.0, &interner);
        assert_eq!(sim, 1.0);
        assert!((conf - 0.8).abs() < 1e-12);
    }
}
