//! Synthetic world and knowledge base generator.
//!
//! See the crate-level documentation for the world / knowledge base split.
//! Everything is deterministic given the seed in [`GeneratorConfig`].

use crate::footprint::{Footprint, HeapBytes, HeapSize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

use ltee_types::{Date, Value};
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::ids::{EntityId, InstanceId, PropertyId};
use crate::model::{Fact, KnowledgeBase};
use crate::names;
use crate::schema::{class_schema, ClassKey, CLASS_KEYS};

/// An entity's ground truth: at most one value per property of its class
/// schema, held in one exact-sized allocation of values in property-name
/// order. Which properties the entity has is a bit mask by name rank, kept
/// beside the class in what would otherwise be padding, so no fact carries
/// its property's name or position.
#[derive(Clone, PartialEq)]
pub struct Facts {
    /// The values, ordered by property name.
    values: Box<[Value]>,
    /// Bit `r` is set when the entity has a value for `names_by_rank(class)[r]`.
    present: u16,
    class: ClassKey,
}

/// A class's schema property names in ascending order: a fact's bit in
/// [`Facts`]'s mask is its name's rank here. Held inline (no schema has more
/// than 16 properties), so the table owns no heap.
fn names_by_rank(class: ClassKey) -> &'static [&'static str] {
    static SORTED: OnceLock<[([&str; 16], usize); 3]> = OnceLock::new();
    let sorted = SORTED.get_or_init(|| {
        CLASS_KEYS.map(|class| {
            let (schema, mut names) = (class_schema(class), [""; 16]);
            let len = schema.len().min(names.len());
            for (name, spec) in names.iter_mut().zip(schema) {
                *name = spec.name;
            }
            names[..len].sort_unstable();
            (names, len)
        })
    });
    let (names, len) = &sorted[class.code() as usize];
    &names[..*len]
}

impl Facts {
    /// The facts of a `class` entity from `(property name, value)` pairs,
    /// one per property, in any order. A name outside the class schema is
    /// not kept, nor a repeated name's later value.
    fn from_named(class: ClassKey, named: Vec<(&str, Value)>) -> Self {
        let names = names_by_rank(class);
        let mut ranked: Vec<(usize, Value)> =
            named.into_iter().filter_map(|(name, value)| Some((names.binary_search(&name).ok()?, value))).collect();
        ranked.sort_by_key(|&(rank, _)| rank);
        ranked.dedup_by_key(|&mut (rank, _)| rank);
        let present = ranked.iter().fold(0u16, |mask, &(rank, _)| mask | 1 << rank);
        Self { values: ranked.into_iter().map(|(_, value)| value).collect(), present, class }
    }

    /// The value of a property, if the entity has one.
    pub fn get(&self, property: &str) -> Option<&Value> {
        let rank = names_by_rank(self.class).binary_search(&property).ok()?;
        let bit = 1u16 << rank;
        (self.present & bit != 0).then(|| &self.values[(self.present & (bit - 1)).count_ones() as usize])
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the entity has no facts.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// `(property name, value)` pairs in property-name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &Value)> + '_ {
        let names = names_by_rank(self.class).iter().enumerate();
        let present = names.filter(|&(rank, _)| self.present & 1 << rank != 0).map(|(_, &name)| name);
        present.zip(self.values.iter())
    }

    /// The values, in property-name order.
    pub fn values(&self) -> impl Iterator<Item = &Value> + '_ {
        self.values.iter()
    }
}

impl fmt::Debug for Facts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// How large to make the synthetic world.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Entities per class that are projected into the knowledge base
    /// ("head" / notable entities).
    pub kb_entities_per_class: usize,
    /// Long-tail entities per class that exist only in the world — the
    /// entities the pipeline should discover as *new*.
    pub long_tail_per_class: usize,
    /// Entities of a confusable sibling class (regions, albums, baseball
    /// players) that web tables may wrongly attribute to the target class.
    pub confusable_per_class: usize,
}

impl Scale {
    /// Minimal scale for fast unit tests.
    pub fn tiny() -> Self {
        Self { kb_entities_per_class: 40, long_tail_per_class: 25, confusable_per_class: 6 }
    }

    /// Gold-standard scale: comparable to the paper's manually annotated
    /// gold standard (Table 5: ~100-200 tables and ~100 clusters per class).
    pub fn gold() -> Self {
        Self { kb_entities_per_class: 140, long_tail_per_class: 90, confusable_per_class: 15 }
    }

    /// Profiling scale used by the Table 11/12 experiments: large enough that
    /// relative increases and density shapes are meaningful, small enough to
    /// run in CI minutes.
    pub fn profiling() -> Self {
        Self { kb_entities_per_class: 1_500, long_tail_per_class: 900, confusable_per_class: 80 }
    }

    /// Total number of world entities per class (excluding confusables).
    pub fn world_entities_per_class(&self) -> usize {
        self.kb_entities_per_class + self.long_tail_per_class
    }
}

/// Configuration of the world generator.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// World size.
    pub scale: Scale,
    /// RNG seed; every derived artefact is deterministic in this seed.
    pub seed: u64,
    /// Probability that a newly generated entity re-uses an existing label,
    /// forming a homonym group. The paper reports homonyms as the main
    /// difficulty for the Song class, so songs use three times this rate.
    pub homonym_rate: f64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        Self { scale: Scale::gold(), seed: 2019, homonym_rate: 0.04 }
    }
}

impl GeneratorConfig {
    /// Convenience constructor with an explicit scale and seed.
    pub fn new(scale: Scale, seed: u64) -> Self {
        Self { scale, seed, ..Default::default() }
    }
}

/// An entity of the synthetic world with its full ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldEntity {
    /// World-wide identifier.
    pub id: EntityId,
    /// Target class the entity belongs to (for confusable entities, the
    /// class whose tables they pollute).
    pub class: ClassKey,
    /// Canonical label.
    pub canonical_label: String,
    /// Alternative labels (spelling variants, qualifiers).
    pub alt_labels: Box<[Box<str>]>,
    /// Ground-truth facts, in property-name order.
    pub facts: Facts,
    /// Popularity (page-link proxy); higher for head entities.
    pub popularity: u64,
    /// Whether the entity was projected into the knowledge base.
    pub in_kb: bool,
    /// Whether the entity actually belongs to a confusable sibling class
    /// (and therefore should *not* be added to the knowledge base even
    /// though tables may describe it alongside target-class entities).
    pub confusable: bool,
    /// Homonym group: entities sharing a (normalised) label share a group.
    pub homonym_group: u64,
}

impl WorldEntity {
    /// All labels, canonical first.
    pub fn labels(&self) -> Vec<&str> {
        std::iter::once(self.canonical_label.as_str())
            .chain(self.alt_labels.iter().map(|label| &**label))
            .collect()
    }

    /// The ground-truth value of a property, if the entity has one.
    pub fn fact(&self, property: &str) -> Option<&Value> {
        self.facts.get(property)
    }
}

/// The generated world: all entities plus the knowledge base projected from
/// the head entities.
#[derive(Debug, Clone)]
pub struct World {
    /// Every entity of the world (including confusables).
    pub entities: Vec<WorldEntity>,
    /// The knowledge base covering the head entities.
    pub kb: KnowledgeBase,
    /// The configuration the world was generated with.
    pub config: GeneratorConfig,
    /// The KB instance of each entity, indexed by [`EntityId`].
    entity_to_instance: Vec<Option<InstanceId>>,
}

ltee_intern::heap_size! {
    Facts { values }
    WorldEntity { canonical_label, alt_labels, facts }
}

impl World {
    /// The heap of the world's entities, per class; its knowledge base
    /// reports through [`KnowledgeBase::footprint`].
    pub fn footprint(&self) -> Footprint {
        let table = HeapBytes::buffer::<WorldEntity>(self.entities.capacity()) + self.entity_to_instance.heap_bytes();
        let mut footprint = Footprint::default();
        footprint.add("world.entities", None, table, 0);
        for entity in &self.entities {
            footprint.add("world.entities", Some(entity.class), entity.heap_bytes(), 1);
        }
        footprint
    }

    /// Entity by id.
    pub fn entity(&self, id: EntityId) -> Option<&WorldEntity> {
        self.entities.get(id.raw() as usize)
    }

    /// All (non-confusable) entities of a class.
    pub fn entities_of_class(&self, class: ClassKey) -> Vec<&WorldEntity> {
        self.entities.iter().filter(|e| e.class == class && !e.confusable).collect()
    }

    /// The long-tail entities of a class (not in the knowledge base).
    pub fn long_tail_of_class(&self, class: ClassKey) -> Vec<&WorldEntity> {
        self.entities.iter().filter(|e| e.class == class && !e.confusable && !e.in_kb).collect()
    }

    /// The head entities of a class (projected into the knowledge base).
    pub fn head_of_class(&self, class: ClassKey) -> Vec<&WorldEntity> {
        self.entities.iter().filter(|e| e.class == class && !e.confusable && e.in_kb).collect()
    }

    /// Confusable entities attached to a class.
    pub fn confusables_of_class(&self, class: ClassKey) -> Vec<&WorldEntity> {
        self.entities.iter().filter(|e| e.class == class && e.confusable).collect()
    }

    /// The knowledge base instance an entity was projected to, if any.
    pub fn instance_for_entity(&self, id: EntityId) -> Option<InstanceId> {
        self.entity_to_instance.get(id.raw() as usize).copied().flatten()
    }

    /// The knowledge base.
    pub fn kb(&self) -> &KnowledgeBase {
        &self.kb
    }
}

/// Generate a world (and its knowledge base) from the configuration.
pub fn generate_world(config: &GeneratorConfig) -> World {
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let per_class = config.scale.world_entities_per_class() + config.scale.confusable_per_class;
    let mut entities: Vec<WorldEntity> = Vec::with_capacity(CLASS_KEYS.len() * per_class);
    let mut next_homonym_group: u64 = 0;

    for class in CLASS_KEYS {
        let homonym_rate = match class {
            // Homonyms are far more common among songs (cover versions,
            // re-releases) — the paper calls this out explicitly.
            ClassKey::Song => config.homonym_rate * 3.0,
            _ => config.homonym_rate,
        };
        let total = config.scale.world_entities_per_class();
        let mut labels_seen: BTreeMap<String, u64> = BTreeMap::new();
        for i in 0..total {
            let in_kb = i < config.scale.kb_entities_per_class;
            let reuse_label = !labels_seen.is_empty() && rng.gen::<f64>() < homonym_rate;
            // Pick an existing label to form a homonym.
            let homonym = if reuse_label {
                let keys: Vec<&String> = labels_seen.keys().collect();
                keys.choose(&mut rng).map(|&label| label.clone())
            } else {
                None
            };
            let mut canonical_label = match homonym {
                Some(label) => label,
                None => generate_unique_label(class, &labels_seen, &mut rng),
            };
            canonical_label.shrink_to_fit();
            let homonym_group = *labels_seen
                .entry(normalize_for_grouping(&canonical_label))
                .or_insert_with(|| {
                    let g = next_homonym_group;
                    next_homonym_group += 1;
                    g
                });
            let facts = generate_facts(class, &mut rng);
            let alt_labels = generate_alt_labels(class, &canonical_label, &facts, &mut rng);
            // Popularity: head entities follow a heavy-tailed distribution,
            // long-tail entities stay small.
            let popularity = if in_kb {
                let r = rng.gen::<f64>();
                (50.0 + 5_000.0 * (1.0 - r).powi(3)) as u64
            } else {
                rng.gen_range(0..30)
            };
            let id = EntityId(entities.len() as u64);
            entities.push(WorldEntity {
                id,
                class,
                canonical_label,
                alt_labels,
                facts,
                popularity,
                in_kb,
                confusable: false,
                homonym_group,
            });
        }

        // Confusable entities of the sibling class.
        for c in 0..config.scale.confusable_per_class {
            let mut label = generate_confusable_label(class, c, &mut rng);
            label.shrink_to_fit();
            let homonym_group = next_homonym_group;
            next_homonym_group += 1;
            let id = EntityId(entities.len() as u64);
            entities.push(WorldEntity {
                id,
                class,
                canonical_label: label,
                alt_labels: Box::default(),
                facts: generate_confusable_facts(class, &mut rng),
                popularity: rng.gen_range(0..20),
                in_kb: false,
                confusable: true,
                homonym_group,
            });
        }
    }

    // Project the head entities into the knowledge base.
    let mut kb = KnowledgeBase::new();
    let mut class_properties: Vec<(ClassKey, Vec<PropertyId>)> = Vec::new();
    for class in CLASS_KEYS {
        let schema = class_schema(class);
        let ids = schema.iter().map(|spec| kb.add_property(class, spec.name, spec.data_type, spec.header_labels[0]));
        class_properties.push((class, ids.collect()));
    }
    kb.reserve_instances(entities.iter().filter(|entity| entity.in_kb && !entity.confusable).count());
    let mut kb_rng = ChaCha8Rng::seed_from_u64(config.seed.wrapping_add(1));
    let entity_to_instance = entities
        .iter()
        .map(|entity| {
            if !entity.in_kb || entity.confusable {
                return None;
            }
            // Every class's properties were registered above.
            let (_, properties) = class_properties.iter().find(|(class, _)| *class == entity.class)?;
            let mut facts = Vec::with_capacity(properties.len());
            for (spec, &property) in class_schema(entity.class).iter().zip(properties) {
                if let Some(value) = entity.facts.get(spec.name) {
                    // Drop facts according to the paper's densities.
                    if kb_rng.gen::<f64>() < spec.kb_density {
                        facts.push(Fact { property, value: value.clone() });
                    }
                }
            }
            let abstract_text = build_abstract(entity);
            let labels = entity.labels().into_iter().map(str::to_string).collect();
            Some(kb.add_instance(entity.class, labels, abstract_text, entity.popularity, facts))
        })
        .collect();

    World { entities, kb, config: config.clone(), entity_to_instance }
}

fn normalize_for_grouping(label: &str) -> String {
    ltee_text::normalize_label(label)
}

/// A uniform draw from a name pool: the one draw `SliceRandom::choose`
/// makes, so the world is the same; `""` from an empty pool, which no pool
/// of [`names`] is.
fn pick(pool: &[&'static str], rng: &mut ChaCha8Rng) -> &'static str {
    pool.choose(rng).copied().unwrap_or_default()
}

fn generate_unique_label(
    class: ClassKey,
    seen: &BTreeMap<String, u64>,
    rng: &mut ChaCha8Rng,
) -> String {
    for attempt in 0..64 {
        let candidate = match class {
            ClassKey::GridironFootballPlayer => {
                let first = pick(names::FIRST_NAMES, rng);
                let last = pick(names::LAST_NAMES, rng);
                if attempt < 8 {
                    format!("{first} {last}")
                } else {
                    // Disambiguate with a middle initial once collisions pile up.
                    let initial = (b'A' + rng.gen_range(0..26u8)) as char;
                    format!("{first} {initial}. {last}")
                }
            }
            ClassKey::Song => {
                let w1 = pick(names::SONG_TITLE_WORDS, rng);
                let pattern = rng.gen_range(0..4);
                match pattern {
                    0 => format!("{w1} {}", pick(names::SONG_TITLE_WORDS, rng)),
                    1 => format!("The {w1}"),
                    2 => format!("{w1} of the {}", pick(names::SONG_TITLE_WORDS, rng)),
                    _ => format!("{w1} Tonight"),
                }
            }
            ClassKey::Settlement => {
                let stem = pick(names::SETTLEMENT_STEMS, rng);
                let suffix = pick(names::SETTLEMENT_SUFFIXES, rng);
                if attempt < 8 {
                    format!("{stem}{suffix}")
                } else {
                    let stem2 = pick(names::SETTLEMENT_STEMS, rng);
                    format!("{stem} {stem2}{suffix}")
                }
            }
        };
        if !seen.contains_key(&normalize_for_grouping(&candidate)) {
            return candidate;
        }
    }
    // Extremely unlikely fallback: make the label unique with a counter.
    format!("Entity {}", seen.len())
}

fn generate_confusable_label(class: ClassKey, index: usize, rng: &mut ChaCha8Rng) -> String {
    match class {
        ClassKey::GridironFootballPlayer => {
            let first = pick(names::FIRST_NAMES, rng);
            let last = pick(names::LAST_NAMES, rng);
            format!("{first} {last} (baseball)")
        }
        ClassKey::Song => {
            let w = pick(names::ALBUM_WORDS, rng);
            format!("{w} Vol. {}", index + 1)
        }
        ClassKey::Settlement => {
            let stem = pick(names::SETTLEMENT_STEMS, rng);
            format!("Mount {stem}")
        }
    }
}

fn generate_facts(class: ClassKey, rng: &mut ChaCha8Rng) -> Facts {
    let mut facts = Vec::with_capacity(class_schema(class).len());
    match class {
        ClassKey::GridironFootballPlayer => {
            let birth_year = rng.gen_range(1960..=1995);
            facts.push(("birthDate", Value::Date(Date::day(birth_year, rng.gen_range(1..=12), rng.gen_range(1..=28)))));
            facts.push(("college", Value::InstanceRef(pick(names::COLLEGES, rng).into())));
            facts.push(("birthPlace", Value::InstanceRef(pick(names::BIRTH_CITIES, rng).into())));
            facts.push(("team", Value::InstanceRef(pick(names::TEAMS, rng).into())));
            facts.push(("number", Value::NominalInt(rng.gen_range(1..=99))));
            facts.push(("position", Value::Nominal(pick(names::POSITIONS, rng).into())));
            facts.push(("height", Value::Quantity(rng.gen_range(165.0..=208.0f64).round())));
            facts.push(("weight", Value::Quantity(rng.gen_range(70.0..=160.0f64).round())));
            let draft_year = (birth_year + rng.gen_range(21..=24)).min(2014);
            facts.push(("draftYear", Value::Date(Date::year(draft_year))));
            facts.push(("draftRound", Value::NominalInt(rng.gen_range(1..=7))));
            facts.push(("draftPick", Value::NominalInt(rng.gen_range(1..=260))));
        }
        ClassKey::Song => {
            facts.push(("genre", Value::Nominal(pick(names::GENRES, rng).into())));
            facts.push(("musicalArtist", Value::InstanceRef(pick(names::ARTISTS, rng).into())));
            facts.push(("recordLabel", Value::InstanceRef(pick(names::RECORD_LABELS, rng).into())));
            facts.push(("runtime", Value::Quantity(rng.gen_range(120.0..=420.0f64).round())));
            let album_word = pick(names::ALBUM_WORDS, rng);
            facts.push(("album", Value::InstanceRef(format!("{album_word} {}", rng.gen_range(1..=30)).into())));
            let writer = format!(
                "{} {}",
                pick(names::FIRST_NAMES, rng),
                pick(names::LAST_NAMES, rng)
            );
            facts.push(("writer", Value::InstanceRef(writer.into())));
            let year = rng.gen_range(1960..=2012);
            facts.push(("releaseDate", Value::Date(Date::day(year, rng.gen_range(1..=12), rng.gen_range(1..=28)))));
        }
        ClassKey::Settlement => {
            facts.push(("country", Value::InstanceRef(pick(names::COUNTRIES, rng).into())));
            facts.push(("isPartOf", Value::InstanceRef(pick(names::REGIONS, rng).into())));
            // Heavy-tailed population: lots of small villages, few cities.
            let magnitude = rng.gen_range(2.0..=6.0f64);
            let population = (10.0f64.powf(magnitude)).round();
            facts.push(("populationTotal", Value::Quantity(population)));
            facts.push(("postalCode", Value::Nominal(format!("{:05}", rng.gen_range(1_000..=99_999)).into())));
            facts.push(("elevation", Value::Quantity(rng.gen_range(0.0..=2500.0f64).round())));
        }
    }
    Facts::from_named(class, facts)
}

fn generate_confusable_facts(class: ClassKey, rng: &mut ChaCha8Rng) -> Facts {
    // Confusable entities share a couple of superficially compatible
    // attributes with the target class (which is exactly why the
    // table-to-class matcher can be fooled) but lack the rest.
    let mut facts = Vec::with_capacity(2);
    match class {
        ClassKey::GridironFootballPlayer => {
            facts.push(("number", Value::NominalInt(rng.gen_range(1..=60))));
            facts.push(("height", Value::Quantity(rng.gen_range(165.0..=205.0f64).round())));
        }
        ClassKey::Song => {
            facts.push(("musicalArtist", Value::InstanceRef(pick(names::ARTISTS, rng).into())));
            let year = rng.gen_range(1970..=2012);
            facts.push(("releaseDate", Value::Date(Date::year(year))));
        }
        ClassKey::Settlement => {
            facts.push(("country", Value::InstanceRef(pick(names::COUNTRIES, rng).into())));
            facts.push(("elevation", Value::Quantity(rng.gen_range(800.0..=4500.0f64).round())));
        }
    }
    Facts::from_named(class, facts)
}

fn generate_alt_labels(
    class: ClassKey,
    canonical: &str,
    facts: &Facts,
    rng: &mut ChaCha8Rng,
) -> Box<[Box<str>]> {
    let mut alts = Vec::new();
    match class {
        ClassKey::GridironFootballPlayer => {
            // "John Smith" -> "J. Smith"
            let parts: Vec<&str> = canonical.split_whitespace().collect();
            if parts.len() >= 2 {
                if let Some(initial) = parts[0].chars().next() {
                    alts.push(format!("{initial}. {}", parts[parts.len() - 1]));
                }
            }
        }
        ClassKey::Song => {
            alts.push(format!("{canonical} (song)"));
            if rng.gen::<f64>() < 0.3 {
                if let Some(Value::InstanceRef(artist)) = facts.get("musicalArtist") {
                    alts.push(format!("{canonical} ({artist} song)"));
                }
            }
        }
        ClassKey::Settlement => {
            if let Some(Value::InstanceRef(region)) = facts.get("isPartOf") {
                if rng.gen::<f64>() < 0.4 {
                    alts.push(format!("{canonical}, {region}"));
                }
            }
        }
    }
    alts.into_iter().map(String::into_boxed_str).collect()
}

fn build_abstract(entity: &WorldEntity) -> String {
    let mut parts = vec![entity.canonical_label.clone()];
    match entity.class {
        ClassKey::GridironFootballPlayer => {
            parts.push("is an American football player".into());
            if let Some(v) = entity.facts.get("team") {
                parts.push(format!("who plays for the {}", v.render()));
            }
            if let Some(v) = entity.facts.get("college") {
                parts.push(format!("and played college football at {}", v.render()));
            }
            if let Some(v) = entity.facts.get("position") {
                parts.push(format!("at the {} position", v.render()));
            }
        }
        ClassKey::Song => {
            parts.push("is a song".into());
            if let Some(v) = entity.facts.get("musicalArtist") {
                parts.push(format!("by {}", v.render()));
            }
            if let Some(v) = entity.facts.get("album") {
                parts.push(format!("from the album {}", v.render()));
            }
            if let Some(v) = entity.facts.get("releaseDate") {
                parts.push(format!("released in {}", v.render()));
            }
        }
        ClassKey::Settlement => {
            parts.push("is a settlement".into());
            if let Some(v) = entity.facts.get("isPartOf") {
                parts.push(format!("in {}", v.render()));
            }
            if let Some(v) = entity.facts.get("country") {
                parts.push(format!("located in {}", v.render()));
            }
        }
    }
    parts.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn tiny_world() -> World {
        generate_world(&GeneratorConfig::new(Scale::tiny(), 7))
    }

    #[test]
    fn world_has_expected_entity_counts() {
        let w = tiny_world();
        let scale = Scale::tiny();
        for class in CLASS_KEYS {
            assert_eq!(w.entities_of_class(class).len(), scale.world_entities_per_class());
            assert_eq!(w.head_of_class(class).len(), scale.kb_entities_per_class);
            assert_eq!(w.long_tail_of_class(class).len(), scale.long_tail_per_class);
            assert_eq!(w.confusables_of_class(class).len(), scale.confusable_per_class);
        }
    }

    /// The KB's properties are the schema's, class by class and in order:
    /// decoders resolve stored names through `class_schema` alone.
    #[test]
    fn kb_properties_are_exactly_the_schema() {
        let w = tiny_world();
        for class in CLASS_KEYS {
            let properties = w.kb().class_property_slice(class);
            assert_eq!(properties.len(), class_schema(class).len(), "{class}");
            for (property, spec) in properties.iter().zip(class_schema(class)) {
                assert!(std::ptr::eq(property.name, spec.name), "{class} {} is not the schema's entry", spec.name);
                assert_eq!(property.data_type, spec.data_type);
            }
        }
        assert_eq!(w.kb().properties().len(), CLASS_KEYS.iter().map(|&c| class_schema(c).len()).sum::<usize>());
    }

    #[test]
    fn kb_covers_only_head_entities() {
        let w = tiny_world();
        for class in CLASS_KEYS {
            assert_eq!(w.kb().class_instance_count(class), Scale::tiny().kb_entities_per_class);
        }
        for e in w.entities.iter() {
            if e.in_kb && !e.confusable {
                assert!(w.instance_for_entity(e.id).is_some(), "head entity missing instance");
            } else {
                assert!(w.instance_for_entity(e.id).is_none(), "tail entity has instance");
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_world(&GeneratorConfig::new(Scale::tiny(), 99));
        let b = generate_world(&GeneratorConfig::new(Scale::tiny(), 99));
        assert_eq!(a.entities, b.entities);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_world(&GeneratorConfig::new(Scale::tiny(), 1));
        let b = generate_world(&GeneratorConfig::new(Scale::tiny(), 2));
        assert_ne!(a.entities, b.entities);
    }

    #[test]
    fn every_entity_has_all_schema_facts() {
        let w = tiny_world();
        for class in CLASS_KEYS {
            for e in w.entities_of_class(class) {
                assert_eq!(
                    e.facts.len(),
                    class_schema(class).len(),
                    "entity {} missing ground-truth facts",
                    e.canonical_label
                );
            }
        }
    }

    #[test]
    fn kb_facts_respect_density_dropout() {
        let w = generate_world(&GeneratorConfig::new(Scale::gold(), 3));
        // Settlement elevation has density ~0.31; postalCode ~0.33; so their
        // fact counts should be well below the instance count, while country
        // (0.925) should be close to it.
        let kb = w.kb();
        let n = kb.class_instance_count(ClassKey::Settlement) as f64;
        let country = kb.property_by_name(ClassKey::Settlement, "country").unwrap().id;
        let elevation = kb.property_by_name(ClassKey::Settlement, "elevation").unwrap().id;
        let country_count = kb.property_values(country).len() as f64;
        let elevation_count = kb.property_values(elevation).len() as f64;
        assert!(country_count / n > 0.8, "country density too low: {}", country_count / n);
        assert!(elevation_count / n < 0.55, "elevation density too high: {}", elevation_count / n);
    }

    #[test]
    fn songs_have_more_homonyms_than_settlements() {
        let w = generate_world(&GeneratorConfig::new(Scale::gold(), 5));
        let homonym_fraction = |class: ClassKey| {
            let entities = w.entities_of_class(class);
            let mut group_sizes: HashMap<u64, usize> = HashMap::new();
            for e in &entities {
                *group_sizes.entry(e.homonym_group).or_insert(0) += 1;
            }
            let in_homonym: usize =
                group_sizes.values().filter(|&&s| s > 1).copied().sum();
            in_homonym as f64 / entities.len() as f64
        };
        assert!(
            homonym_fraction(ClassKey::Song) > homonym_fraction(ClassKey::Settlement),
            "songs should be more homonymous"
        );
    }

    #[test]
    fn head_entities_are_more_popular_than_tail() {
        let w = tiny_world();
        for class in CLASS_KEYS {
            let head_avg: f64 = w.head_of_class(class).iter().map(|e| e.popularity as f64).sum::<f64>()
                / Scale::tiny().kb_entities_per_class as f64;
            let tail_avg: f64 = w.long_tail_of_class(class).iter().map(|e| e.popularity as f64).sum::<f64>()
                / Scale::tiny().long_tail_per_class as f64;
            assert!(head_avg > tail_avg, "{class}: head {head_avg} vs tail {tail_avg}");
        }
    }

    #[test]
    fn abstracts_mention_class_specific_phrases() {
        let w = tiny_world();
        let player = &w.entities_of_class(ClassKey::GridironFootballPlayer)[0];
        let kb_inst = w.instance_for_entity(player.id);
        if let Some(id) = kb_inst {
            let inst = w.kb().instance(id).unwrap();
            assert!(inst.abstract_text().contains("American football"));
        }
    }

    #[test]
    fn entity_lookup_by_id() {
        let w = tiny_world();
        let e = &w.entities[5];
        assert_eq!(w.entity(e.id).unwrap().canonical_label, e.canonical_label);
        assert!(w.entity(EntityId(u64::MAX)).is_none());
    }

    #[test]
    fn facts_iterate_in_property_name_order_and_look_up_by_name() {
        let w = tiny_world();
        for e in &w.entities {
            let names: Vec<&str> = e.facts.iter().map(|(name, _)| name).collect();
            assert!(names.windows(2).all(|pair| pair[0] < pair[1]), "{names:?}");
            for (name, value) in e.facts.iter() {
                assert_eq!(e.fact(name), Some(value));
            }
            assert!(e.facts.values().eq(e.facts.iter().map(|(_, value)| value)));
            assert_eq!(e.fact("nonexistent"), None);
        }
    }

    #[test]
    fn every_schema_fits_the_presence_mask() {
        for class in CLASS_KEYS {
            assert!(class_schema(class).len() <= 16, "{class}");
            assert_eq!(names_by_rank(class).len(), class_schema(class).len(), "{class}");
        }
    }

    #[test]
    fn facts_keep_schema_properties_only() {
        let facts = Facts::from_named(
            ClassKey::Settlement,
            vec![
                ("elevation", Value::Quantity(310.0)),
                ("runtime", Value::Quantity(200.0)),
                ("country", Value::InstanceRef("Poland".into())),
            ],
        );
        assert_eq!(facts.len(), 2);
        assert_eq!(facts.get("runtime"), None);
        let repeated = [("country", Value::Quantity(1.0)), ("country", Value::Quantity(2.0))];
        let repeated = Facts::from_named(ClassKey::Settlement, repeated.to_vec());
        assert_eq!((repeated.len(), repeated.get("country")), (1, Some(&Value::Quantity(1.0))));
        assert_eq!(format!("{facts:?}"), r#"{"country": InstanceRef("Poland"), "elevation": Quantity(310.0)}"#);
        assert!(Facts::from_named(ClassKey::Song, Vec::new()).is_empty());
    }

    #[test]
    fn instances_are_indexed_by_entity_position() {
        let w = tiny_world();
        let head: Vec<InstanceId> = w.entities.iter().filter_map(|e| w.instance_for_entity(e.id)).collect();
        let minted: Vec<InstanceId> = w.kb().instances().iter().map(|inst| inst.id).collect();
        assert_eq!(head, minted);
        assert_eq!(w.instance_for_entity(EntityId(u64::MAX)), None);
    }

    #[test]
    fn labels_include_canonical_first() {
        let w = tiny_world();
        for e in &w.entities {
            assert_eq!(e.labels()[0], e.canonical_label);
        }
    }
}
